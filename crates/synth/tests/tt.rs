//! Property tests of the fixed-width truth-table kernel against a naive
//! per-minterm reference built from [`Tt::bit`].

use boils_synth::tt::{cover_function, isop, Tt};
use proptest::prelude::*;

/// The table of `f` over `n` variables, one minterm at a time.
fn naive(n: usize, f: impl Fn(usize) -> bool) -> Tt {
    let mut words = vec![0u64; (1usize << n).div_ceil(64)];
    for p in (0..1usize << n).filter(|&p| f(p)) {
        words[p / 64] |= 1 << (p % 64);
    }
    Tt::from_words(n, &words)
}

/// The table over `n` variables whose words are the first of `words`
/// (bits beyond `2^n` are dropped).
fn table(n: usize, words: &[u64]) -> Tt {
    Tt::from_words(n, &words[..(1usize << n).div_ceil(64)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn boolean_ops_match_minterms(
        n in 0usize..=8,
        a in prop::collection::vec(any::<u64>(), 4),
        b in prop::collection::vec(any::<u64>(), 4),
    ) {
        let (f, g) = (table(n, &a), table(n, &b));
        prop_assert_eq!(f.not(), naive(n, |p| !f.bit(p)));
        prop_assert_eq!(f.and(&g), naive(n, |p| f.bit(p) && g.bit(p)));
        prop_assert_eq!(f.or(&g), naive(n, |p| f.bit(p) || g.bit(p)));
        prop_assert_eq!(f.xor(&g), naive(n, |p| f.bit(p) != g.bit(p)));
        let ones = (0..1usize << n).filter(|&p| f.bit(p)).count();
        prop_assert_eq!(f.is_zero(), ones == 0);
        prop_assert_eq!(f.is_one(), ones == 1 << n);
    }

    #[test]
    fn cofactors_and_support_match_minterms(
        n in 0usize..=8,
        words in prop::collection::vec(any::<u64>(), 4),
        keep in 0usize..256,
    ) {
        // Only the variables in `keep` can be in the support.
        let raw = table(n, &words);
        let f = naive(n, |p| raw.bit(p & keep));
        let mut support = Vec::new();
        for v in 0..n {
            let bit = 1usize << v;
            prop_assert_eq!(f.cofactor0(v), naive(n, |p| f.bit(p & !bit)), "cofactor0 of x{}", v);
            prop_assert_eq!(f.cofactor1(v), naive(n, |p| f.bit(p | bit)), "cofactor1 of x{}", v);
            prop_assert_eq!(Tt::var(n, v), naive(n, |p| p & bit != 0));
            let depends = (0..1usize << n).any(|p| f.bit(p) != f.bit(p ^ bit));
            prop_assert_eq!(f.depends_on(v), depends, "depends_on x{}", v);
            if depends {
                support.push(v);
            }
        }
        prop_assert_eq!(f.support().collect::<Vec<_>>(), support);
    }

    #[test]
    fn isop_covers_random_functions(
        n in 0usize..=8,
        words in prop::collection::vec(any::<u64>(), 4),
    ) {
        let f = table(n, &words);
        prop_assert_eq!(cover_function(&isop(&f), f.num_vars()), f);
    }
}

#[test]
fn constants_match_minterms() {
    for n in 0..=8 {
        assert_eq!(Tt::zero(n), naive(n, |_| false));
        assert_eq!(Tt::one(n), naive(n, |_| true));
    }
}

#[test]
#[should_panic(expected = "limited to 8 vars")]
fn nine_variables_are_rejected() {
    let _ = Tt::zero(9);
}
