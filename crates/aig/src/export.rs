//! Additional interchange formats: binary AIGER (`.aig`), Graphviz DOT and
//! structural Verilog.

use std::io::{BufRead, BufReader, Read, Write};

use crate::error::ParseAagError;
use crate::{Aig, Lit};

impl Aig {
    /// Serialises the AIG in the binary AIGER (`.aig`) format.
    ///
    /// Binary AIGER requires inputs and AND gates to be consecutively
    /// numbered, which this arena layout already guarantees; fanin deltas
    /// are LEB128-style 7-bit encoded per the AIGER 1.9 specification.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure from the writer (which can be `&mut`).
    pub fn write_aig_binary<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let m = self.num_nodes() - 1;
        writeln!(
            w,
            "aig {} {} 0 {} {}",
            m,
            self.num_pis(),
            self.num_pos(),
            self.num_ands()
        )?;
        for po in self.pos() {
            writeln!(w, "{}", po.raw())?;
        }
        for var in self.ands() {
            let lhs = Lit::from_var(var, false).raw();
            let (mut f0, mut f1) = (self.fanin0(var).raw(), self.fanin1(var).raw());
            // AIGER binary stores (lhs − max) then (max − min).
            if f0 < f1 {
                std::mem::swap(&mut f0, &mut f1);
            }
            debug_assert!(lhs > f0);
            write_delta(&mut w, lhs - f0)?;
            write_delta(&mut w, f0 - f1)?;
        }
        if !self.name().is_empty() {
            writeln!(w, "c")?;
            writeln!(w, "{}", self.name())?;
        }
        Ok(())
    }

    /// Parses a binary AIGER (`.aig`) stream.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseAagError`] for syntactic problems; latches are
    /// unsupported (combinational circuits only).
    pub fn read_aig_binary<R: Read>(r: R) -> Result<Aig, ParseAagError> {
        let mut reader = BufReader::new(r);
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        if fields.len() != 6 || fields[0] != "aig" {
            return Err(ParseAagError::BadHeader(header));
        }
        let parse = |s: &str| -> Result<usize, ParseAagError> {
            s.parse()
                .map_err(|_| ParseAagError::BadHeader(header.clone()))
        };
        let (m, i, l, o, a) = (
            parse(fields[1])?,
            parse(fields[2])?,
            parse(fields[3])?,
            parse(fields[4])?,
            parse(fields[5])?,
        );
        if l != 0 {
            return Err(ParseAagError::LatchesUnsupported);
        }
        // Every declared variable must fit a `u32` literal (`2 · var + 1`).
        // Inputs are implicit in the binary format (they take no body
        // bytes), so the AIG below is sized from the header within this
        // bound; outputs and gates grow with the bytes actually read.
        let max_var = i.checked_add(a).filter(|&v| v <= (u32::MAX >> 1) as usize);
        if max_var != Some(m) {
            return Err(ParseAagError::BadHeader(header));
        }
        let mut output_raws = Vec::new();
        for _ in 0..o {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let raw: u32 = line.trim().parse().map_err(|_| ParseAagError::BadLine {
                line_number: 0,
                message: format!("bad output literal {line:?}"),
            })?;
            output_raws.push(raw);
        }
        let mut aig = Aig::new(i);
        let mut map: Vec<Lit> = (0..=i).map(|v| Lit::from_var(v, false)).collect();
        for k in 0..a {
            let lhs = ((i + 1 + k) << 1) as u32;
            let d0 = read_delta(&mut reader)?;
            let d1 = read_delta(&mut reader)?;
            let f0 = lhs
                .checked_sub(d0)
                .ok_or(ParseAagError::UndefinedLiteral(lhs))?;
            let f1 = f0
                .checked_sub(d1)
                .ok_or(ParseAagError::UndefinedLiteral(lhs))?;
            let fan = |raw: u32| -> Result<Lit, ParseAagError> {
                let v = (raw >> 1) as usize;
                if v >= map.len() {
                    return Err(ParseAagError::NotTopological { gate_literal: lhs });
                }
                Ok(map[v].xor_complement(raw & 1 == 1))
            };
            let (a_lit, b_lit) = (fan(f0)?, fan(f1)?);
            map.push(aig.and(a_lit, b_lit));
        }
        for raw in output_raws {
            let v = (raw >> 1) as usize;
            let base = map
                .get(v)
                .copied()
                .ok_or(ParseAagError::UndefinedLiteral(raw))?;
            aig.add_po(base.xor_complement(raw & 1 == 1));
        }
        // Optional name from the comment section.
        let mut rest = String::new();
        reader.read_to_string(&mut rest)?;
        if let Some(name) = rest.lines().nth(1) {
            if rest.starts_with('c') {
                aig.set_name(name.trim().to_string());
            }
        }
        Ok(aig)
    }

    /// Renders the AIG as a Graphviz DOT digraph (dashed edges are
    /// complemented).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph aig {\n  rankdir=BT;\n");
        for idx in 0..self.num_pis() {
            let var = 1 + idx;
            writeln!(out, "  n{var} [shape=box,label=\"i{idx}\"];").expect("string write");
        }
        for var in self.ands() {
            writeln!(out, "  n{var} [shape=circle,label=\"∧\"];").expect("string write");
            for f in [self.fanin0(var), self.fanin1(var)] {
                let style = if f.is_complement() {
                    " [style=dashed]"
                } else {
                    ""
                };
                writeln!(out, "  n{} -> n{}{};", f.var(), var, style).expect("string write");
            }
        }
        for (k, po) in self.pos().iter().enumerate() {
            writeln!(out, "  o{k} [shape=invtriangle,label=\"o{k}\"];").expect("string write");
            let style = if po.is_complement() {
                " [style=dashed]"
            } else {
                ""
            };
            writeln!(out, "  n{} -> o{k}{};", po.var(), style).expect("string write");
        }
        out.push_str("}\n");
        out
    }

    /// Emits the AIG as structural Verilog (one `assign` per gate).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer.
    pub fn write_verilog<W: Write>(&self, mut w: W, module: &str) -> std::io::Result<()> {
        write!(w, "module {module}(")?;
        for i in 0..self.num_pis() {
            write!(w, "i{i}, ")?;
        }
        for k in 0..self.num_pos() {
            write!(w, "o{k}{}", if k + 1 == self.num_pos() { "" } else { ", " })?;
        }
        writeln!(w, ");")?;
        for i in 0..self.num_pis() {
            writeln!(w, "  input i{i};")?;
        }
        for k in 0..self.num_pos() {
            writeln!(w, "  output o{k};")?;
        }
        let lit = |l: Lit| -> String {
            let base = if l.var() == 0 {
                String::from("1'b0")
            } else if self.is_pi(l.var()) {
                format!("i{}", l.var() - 1)
            } else {
                format!("n{}", l.var())
            };
            if l.is_complement() {
                format!("~{base}")
            } else {
                base
            }
        };
        for var in self.ands() {
            writeln!(w, "  wire n{var};")?;
            writeln!(
                w,
                "  assign n{var} = {} & {};",
                lit(self.fanin0(var)),
                lit(self.fanin1(var))
            )?;
        }
        for (k, po) in self.pos().iter().enumerate() {
            writeln!(w, "  assign o{k} = {};", lit(*po))?;
        }
        writeln!(w, "endmodule")?;
        Ok(())
    }
}

fn write_delta<W: Write>(w: &mut W, mut delta: u32) -> std::io::Result<()> {
    loop {
        let byte = (delta & 0x7F) as u8;
        delta >>= 7;
        if delta == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_delta<R: Read>(r: &mut R) -> Result<u32, ParseAagError> {
    let mut delta = 0u32;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        delta |= u32::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(delta);
        }
        shift += 7;
        if shift > 28 {
            return Err(ParseAagError::BadLine {
                line_number: 0,
                message: String::from("overlong delta encoding"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_aig;

    #[test]
    fn binary_aiger_round_trips() {
        for seed in 0..10 {
            let aig = random_aig(seed, 6, 80, 3).cleanup();
            let mut buf = Vec::new();
            aig.write_aig_binary(&mut buf).expect("write");
            let back = Aig::read_aig_binary(buf.as_slice()).expect("parse");
            assert_eq!(back.num_pis(), aig.num_pis());
            assert_eq!(
                back.simulate_exhaustive(),
                aig.simulate_exhaustive(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn binary_and_ascii_agree() {
        let aig = random_aig(3, 5, 50, 2).cleanup();
        let mut bin = Vec::new();
        let mut asc = Vec::new();
        aig.write_aig_binary(&mut bin).expect("write bin");
        aig.write_aag(&mut asc).expect("write asc");
        let from_bin = Aig::read_aig_binary(bin.as_slice()).expect("bin");
        let from_asc = Aig::read_aag(asc.as_slice()).expect("asc");
        assert_eq!(
            from_bin.simulate_exhaustive(),
            from_asc.simulate_exhaustive()
        );
    }

    #[test]
    fn delta_encoding_round_trips() {
        for v in [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX / 2] {
            let mut buf = Vec::new();
            write_delta(&mut buf, v).expect("write");
            let back = read_delta(&mut buf.as_slice()).expect("read");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn binary_headers_beyond_the_literal_range_or_the_body_are_errors() {
        for text in [
            // `i + a` overflowing `usize` used to wrap past `m != i + a`.
            "aig 18446744073709551615 1 0 0 18446744073709551615\n",
            // Fits `usize` but not a `u32` literal.
            "aig 2147483648 0 0 0 2147483648\n",
        ] {
            assert!(
                matches!(
                    Aig::read_aig_binary(text.as_bytes()),
                    Err(ParseAagError::BadHeader(_))
                ),
                "{text:?}"
            );
        }
        // A huge output count reads until the body runs out instead of
        // reserving 4·10¹² slots up front.
        assert!(Aig::read_aig_binary("aig 0 0 0 4000000000000 0\n".as_bytes()).is_err());
    }

    #[test]
    fn dot_output_mentions_every_node() {
        let aig = random_aig(5, 4, 20, 2);
        let dot = aig.to_dot();
        assert!(dot.starts_with("digraph"));
        for var in aig.ands() {
            assert!(dot.contains(&format!("n{var} ")), "missing node {var}");
        }
        assert!(dot.contains("o0"));
    }

    #[test]
    fn verilog_is_emitted_for_all_interfaces() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let x = aig.xor(a, b);
        aig.add_po(x);
        aig.add_po(Lit::TRUE);
        let mut buf = Vec::new();
        aig.write_verilog(&mut buf, "xor2").expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("module xor2"));
        assert!(text.contains("input i0;"));
        assert!(text.contains("assign o1 = ~1'b0;"));
        assert!(text.contains("endmodule"));
    }
}
