//! Fixed-width truth tables and the Minato–Morreale irredundant
//! sum-of-products (ISOP) computation used by refactoring and the
//! SOP-balancing transforms.
//!
//! Every window the transforms inspect has at most eight leaves, so a table
//! is a `Copy` value of four 64-bit words and no operation allocates.

use boils_aig::Aig;

/// Bit patterns of the six variables that live inside one 64-bit word.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A truth table over `num_vars ≤ 8` variables, packed into four 64-bit
/// words; words beyond the `2^num_vars` significant bits are kept zero.
///
/// Bit `p` (of the flattened table) is the function value for the input
/// minterm with binary encoding `p`, variable 0 being the least significant
/// bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Tt {
    num_vars: usize,
    words: [u64; 4],
}

impl Tt {
    /// The largest supported variable count.
    const MAX_VARS: usize = 8;

    /// The constant-false function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 8`.
    pub fn zero(num_vars: usize) -> Tt {
        assert!(num_vars <= Self::MAX_VARS, "truth tables limited to 8 vars");
        Tt {
            num_vars,
            words: [0; 4],
        }
    }

    /// The constant-true function over `num_vars` variables.
    pub fn one(num_vars: usize) -> Tt {
        let mut t = Tt::zero(num_vars);
        t.words[..Self::words_for(num_vars)].fill(!0);
        t.mask_off();
        t
    }

    /// The projection onto variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(num_vars: usize, var: usize) -> Tt {
        assert!(var < num_vars);
        let mut t = Tt::zero(num_vars);
        for (w, word) in t.words[..Self::words_for(num_vars)].iter_mut().enumerate() {
            *word = if var < 6 {
                VAR_MASKS[var]
            } else if w >> (var - 6) & 1 == 1 {
                !0
            } else {
                0
            };
        }
        t.mask_off();
        t
    }

    /// Builds a table from raw words (low 2^num_vars bits significant).
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold exactly the table's word count.
    pub fn from_words(num_vars: usize, words: &[u64]) -> Tt {
        let mut t = Tt::zero(num_vars);
        t.words[..Self::words_for(num_vars)].copy_from_slice(words);
        t.mask_off();
        t
    }

    /// Builds a 6-variable-or-fewer table from a single word.
    pub fn from_u64(num_vars: usize, bits: u64) -> Tt {
        assert!(num_vars <= 6);
        Tt::from_words(num_vars, &[bits])
    }

    /// The packed bits when `num_vars ≤ 6`.
    ///
    /// # Panics
    ///
    /// Panics if the table spans more than one word.
    pub fn as_u64(&self) -> u64 {
        assert!(self.num_vars <= 6);
        self.words[0]
    }

    fn words_for(num_vars: usize) -> usize {
        (1usize << num_vars).div_ceil(64)
    }

    fn mask_off(&mut self) {
        let bits = 1usize << self.num_vars;
        if bits < 64 {
            self.words[0] &= (1u64 << bits) - 1;
        }
    }

    /// The number of variables of the table.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Whether the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words == [0; 4]
    }

    /// Whether the function is constant true.
    pub fn is_one(&self) -> bool {
        *self == Tt::one(self.num_vars)
    }

    /// The value of the function on minterm `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= 2^num_vars`.
    pub fn bit(&self, p: usize) -> bool {
        assert!(p < 1 << self.num_vars);
        self.words[p / 64] >> (p % 64) & 1 == 1
    }

    /// Logical negation.
    pub fn not(&self) -> Tt {
        self.xor(&Tt::one(self.num_vars))
    }

    /// Logical conjunction.
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    pub fn and(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a & b)
    }

    /// Logical disjunction.
    pub fn or(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a | b)
    }

    /// Exclusive or.
    pub fn xor(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a ^ b)
    }

    fn zip(&self, other: &Tt, op: impl Fn(u64, u64) -> u64) -> Tt {
        assert_eq!(self.num_vars, other.num_vars);
        Tt {
            num_vars: self.num_vars,
            words: std::array::from_fn(|w| op(self.words[w], other.words[w])),
        }
    }

    /// The negative cofactor (fixes `var = 0`).
    pub fn cofactor0(&self, var: usize) -> Tt {
        self.cofactor(var, false)
    }

    /// The positive cofactor (fixes `var = 1`).
    pub fn cofactor1(&self, var: usize) -> Tt {
        self.cofactor(var, true)
    }

    fn cofactor(&self, var: usize, value: bool) -> Tt {
        assert!(var < self.num_vars);
        let mut out = *self;
        if var < 6 {
            let shift = 1u32 << var;
            let keep = VAR_MASKS[var];
            for w in &mut out.words {
                *w = if value {
                    let sel = *w & keep;
                    sel | (sel >> shift)
                } else {
                    let sel = *w & !keep;
                    sel | (sel << shift)
                };
            }
        } else {
            // Variable 6 toggles between neighbouring words, variable 7
            // between word pairs.
            let stride = 1usize << (var - 6);
            for base in (0..4).step_by(2 * stride) {
                for i in base..base + stride {
                    let v = out.words[if value { i + stride } else { i }];
                    out.words[i] = v;
                    out.words[i + stride] = v;
                }
            }
        }
        out
    }

    /// Whether the function depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.num_vars);
        if var < 6 {
            let (shift, keep) = (1u32 << var, VAR_MASKS[var]);
            self.words.iter().any(|&w| (w & !keep) << shift != w & keep)
        } else {
            let stride = 1usize << (var - 6);
            (0..4)
                .filter(|i| i & stride == 0)
                .any(|i| self.words[i] != self.words[i + stride])
        }
    }

    /// The variables the function actually depends on, in ascending order.
    pub fn support(&self) -> impl Iterator<Item = usize> {
        let t = *self;
        (0..t.num_vars).filter(move |&v| t.depends_on(v))
    }
}

/// A product term over up to 32 variables: `pos` collects positive literals,
/// `neg` complemented ones.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cube {
    /// Bitmask of variables appearing positively.
    pub pos: u32,
    /// Bitmask of variables appearing negated.
    pub neg: u32,
}

impl Cube {
    /// The universal cube (empty product, always true).
    pub const ONE: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_lits(self) -> u32 {
        (self.pos | self.neg).count_ones()
    }

    /// The cube's characteristic function as a truth table.
    pub fn to_tt(self, num_vars: usize) -> Tt {
        let mut t = Tt::one(num_vars);
        for v in 0..num_vars {
            if self.pos >> v & 1 == 1 {
                t = t.and(&Tt::var(num_vars, v));
            }
            if self.neg >> v & 1 == 1 {
                t = t.and(&Tt::var(num_vars, v).not());
            }
        }
        t
    }
}

/// The function of a sum-of-products cover.
pub fn cover_function(cover: &[Cube], num_vars: usize) -> Tt {
    cover
        .iter()
        .fold(Tt::zero(num_vars), |acc, c| acc.or(&c.to_tt(num_vars)))
}

/// Computes an irredundant sum-of-products cover of `f` with the
/// Minato–Morreale algorithm.
///
/// The result `c` satisfies `f = Σ c` and no cube or literal can be removed
/// without uncovering a minterm.
pub fn isop(f: &Tt) -> Vec<Cube> {
    let mut cover = Vec::new();
    isop_rec(f, f, f.num_vars(), &mut cover);
    cover
}

/// Minato–Morreale on the interval `[lower, upper]`: appends a cover `c`
/// with `lower ⊆ c ⊆ upper` to `cover` and returns its function.
fn isop_rec(lower: &Tt, upper: &Tt, top: usize, cover: &mut Vec<Cube>) -> Tt {
    let n = lower.num_vars();
    if lower.is_zero() {
        return Tt::zero(n);
    }
    if upper.is_one() {
        cover.push(Cube::ONE);
        return Tt::one(n);
    }
    // Find the highest variable in the support of either bound.
    let Some(x) = (0..top)
        .rev()
        .find(|&v| lower.depends_on(v) || upper.depends_on(v))
    else {
        // No support left: lower must be 0 (else upper would be 1).
        debug_assert!(lower.is_zero());
        return Tt::zero(n);
    };

    let (l0, l1) = (lower.cofactor0(x), lower.cofactor1(x));
    let (u0, u1) = (upper.cofactor0(x), upper.cofactor1(x));

    // Minterms that must be covered by cubes containing ¬x / x.
    let need0 = l0.and(&u1.not());
    let need1 = l1.and(&u0.not());
    let start = cover.len();
    let f0 = isop_rec(&need0, &u0, x, cover);
    let mid = cover.len();
    let f1 = isop_rec(&need1, &u1, x, cover);
    for c in &mut cover[start..mid] {
        c.neg |= 1 << x;
    }
    for c in &mut cover[mid..] {
        c.pos |= 1 << x;
    }

    // Remaining minterms go to cubes independent of x.
    let rest = l0.and(&f0.not()).or(&l1.and(&f1.not()));
    let u_star = u0.and(&u1);
    let f_star = isop_rec(&rest, &u_star, x, cover);

    let xv = Tt::var(n, x);
    xv.not().and(&f0).or(&xv.and(&f1)).or(&f_star)
}

/// Node-indexed truth tables over one window, reused across windows: a
/// generation stamp per node marks which entries belong to the current
/// window, so starting a new one is O(1) and nothing is allocated after
/// construction.
pub(crate) struct WindowTts {
    tts: Vec<Tt>,
    stamps: Vec<u32>,
    generation: u32,
}

impl WindowTts {
    /// Scratch for an AIG with `num_nodes` nodes.
    pub(crate) fn new(num_nodes: usize) -> WindowTts {
        WindowTts {
            tts: vec![Tt::zero(0); num_nodes],
            stamps: vec![0; num_nodes],
            generation: 1,
        }
    }

    /// Forgets every entry. (A `u32` generation cannot wrap: windows are
    /// opened at most once per node of a `u32`-literal AIG.)
    pub(crate) fn clear(&mut self) {
        self.generation += 1;
    }

    /// The table of `node` in the current window, if set.
    pub(crate) fn get(&self, node: usize) -> Option<Tt> {
        (self.stamps[node] == self.generation).then(|| self.tts[node])
    }

    /// Sets the table of `node` in the current window.
    pub(crate) fn set(&mut self, node: usize, tt: Tt) {
        self.tts[node] = tt;
        self.stamps[node] = self.generation;
    }
}

/// Computes the truth table of the cone rooted at `root` over the given
/// `leaves` (a valid cut of `root`, at most 8 leaves), using `scratch` (sized
/// for `aig`) as the memo.
///
/// # Panics
///
/// Panics if `leaves.len() > 8` or the cone escapes the leaves.
pub(crate) fn cone_function(
    aig: &Aig,
    root: usize,
    leaves: &[usize],
    scratch: &mut WindowTts,
) -> Tt {
    let n = leaves.len();
    scratch.clear();
    scratch.set(0, Tt::zero(n));
    for (i, &l) in leaves.iter().enumerate() {
        scratch.set(l, Tt::var(n, i));
    }
    fn eval(aig: &Aig, node: usize, memo: &mut WindowTts) -> Tt {
        if let Some(t) = memo.get(node) {
            return t;
        }
        assert!(aig.is_and(node), "cone escapes cut at node {node}");
        let (f0, f1) = (aig.fanin0(node), aig.fanin1(node));
        let mut t0 = eval(aig, f0.var(), memo);
        if f0.is_complement() {
            t0 = t0.not();
        }
        let mut t1 = eval(aig, f1.var(), memo);
        if f1.is_complement() {
            t1 = t1.not();
        }
        let t = t0.and(&t1);
        memo.set(node, t);
        t
    }
    eval(aig, root, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        assert!(Tt::zero(3).is_zero());
        assert!(Tt::one(3).is_one());
        assert_eq!(Tt::var(3, 0).as_u64(), 0b10101010);
        assert_eq!(Tt::var(3, 1).as_u64(), 0b11001100);
        assert_eq!(Tt::var(3, 2).as_u64(), 0b11110000);
    }

    #[test]
    fn cofactors_small() {
        // f = x0 & x1
        let f = Tt::var(2, 0).and(&Tt::var(2, 1));
        assert!(f.cofactor0(0).is_zero());
        assert_eq!(f.cofactor1(0), Tt::var(2, 1));
        assert!(f.depends_on(0) && f.depends_on(1));
    }

    #[test]
    fn cofactors_multiword() {
        // 8 variables → 4 words; f = x7 & x0.
        let f = Tt::var(8, 7).and(&Tt::var(8, 0));
        assert!(f.cofactor0(7).is_zero());
        assert_eq!(f.cofactor1(7), Tt::var(8, 0));
        assert_eq!(f.support().collect::<Vec<_>>(), vec![0, 7]);
    }

    #[test]
    fn isop_of_xor_has_two_cubes() {
        let f = Tt::var(2, 0).xor(&Tt::var(2, 1));
        let cover = isop(&f);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover_function(&cover, 2), f);
    }

    #[test]
    fn isop_covers_exactly() {
        // Several structured functions, including multi-word ones.
        let cases: Vec<Tt> = vec![
            Tt::var(4, 0)
                .and(&Tt::var(4, 1))
                .or(&Tt::var(4, 2).and(&Tt::var(4, 3))),
            Tt::var(3, 0).xor(&Tt::var(3, 1)).xor(&Tt::var(3, 2)),
            Tt::var(7, 6).or(&Tt::var(7, 0).and(&Tt::var(7, 3).not())),
            Tt::one(2),
            Tt::zero(5),
        ];
        for f in cases {
            let cover = isop(&f);
            assert_eq!(cover_function(&cover, f.num_vars()), f, "cover mismatch");
        }
    }

    #[test]
    fn isop_is_irredundant_on_majority() {
        let n = 3;
        let f = Tt::var(n, 0)
            .and(&Tt::var(n, 1))
            .or(&Tt::var(n, 0).and(&Tt::var(n, 2)))
            .or(&Tt::var(n, 1).and(&Tt::var(n, 2)));
        let cover = isop(&f);
        assert_eq!(cover_function(&cover, n), f);
        // Dropping any cube must uncover a minterm.
        for skip in 0..cover.len() {
            let reduced: Vec<Cube> = cover
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| *c)
                .collect();
            assert_ne!(cover_function(&reduced, n), f, "cube {skip} is redundant");
        }
    }

    #[test]
    fn cone_function_matches_exhaustive() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let m = aig.maj(a, b, c);
        aig.add_po(m);
        let leaves = vec![a.var(), b.var(), c.var()];
        let tt = cone_function(&aig, m.var(), &leaves, &mut WindowTts::new(aig.num_nodes()));
        let expect = aig.simulate_exhaustive()[0][0];
        let got = if m.is_complement() { tt.not() } else { tt };
        assert_eq!(got.as_u64(), expect);
    }
}
