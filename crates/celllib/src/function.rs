use std::fmt;

/// Combinational logic function of a library cell.
///
/// Functions are evaluated bit-parallel over `u64` words (64 simulation
/// vectors at a time), which is what makes the random-simulation power
/// estimator in `dvs-power` fast enough to run the full benchmark table.
///
/// `Aoi`/`Oai` encode AND-OR-INVERT / OR-AND-INVERT cells as up to four
/// input groups: `Aoi([2, 1, 0, 0])` is AOI21, i.e. `!(i0·i1 + i2)`.
/// Group sizes of zero terminate the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateFn {
    /// Identity (also used for level converters).
    Buf,
    /// Inversion.
    Inv,
    /// N-input AND.
    And(u8),
    /// N-input NAND.
    Nand(u8),
    /// N-input OR.
    Or(u8),
    /// N-input NOR.
    Nor(u8),
    /// 2-input XOR (wider XORs are not in the library).
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// AND-OR-INVERT with the given group sizes.
    Aoi([u8; 4]),
    /// OR-AND-INVERT with the given group sizes.
    Oai([u8; 4]),
}

impl GateFn {
    /// Number of input pins.
    pub fn arity(self) -> usize {
        match self {
            GateFn::Buf | GateFn::Inv => 1,
            GateFn::And(n) | GateFn::Nand(n) | GateFn::Or(n) | GateFn::Nor(n) => n as usize,
            GateFn::Xor | GateFn::Xnor => 2,
            GateFn::Aoi(groups) | GateFn::Oai(groups) => groups.iter().map(|&g| g as usize).sum(),
        }
    }

    /// Returns `true` for functions whose output stage inverts (the paper's
    /// cells with three drive sizes).
    pub fn is_inverting(self) -> bool {
        match self {
            GateFn::Inv
            | GateFn::Nand(_)
            | GateFn::Nor(_)
            | GateFn::Xnor
            | GateFn::Aoi(_)
            | GateFn::Oai(_) => true,
            GateFn::Buf | GateFn::And(_) | GateFn::Or(_) | GateFn::Xor => false,
        }
    }

    /// Evaluates the function over whole waveform rows: `pin(i)` is the
    /// row of input pin `i`, word `w` of which carries simulation vectors
    /// `64·w ..= 64·w + 63`, and `out` receives the output row. Every pin
    /// row must be at least `out.len()` words long.
    ///
    /// The kernel runs one logic operation at a time over the whole row,
    /// the word loop innermost: `And`/`Nand` fold the pin rows into `out`
    /// with `&=`, `Or`/`Nor` with `|=`, `Xor`/`Xnor` combine element-wise,
    /// and `Aoi`/`Oai` fold each group into a scratch block that is then
    /// merged into `out`. [`GateFn::eval_words`] is its one-word case.
    #[inline]
    pub fn eval_rows<'a>(self, pin: impl Fn(usize) -> &'a [u64], out: &mut [u64]) {
        match self {
            GateFn::Buf => out.copy_from_slice(&pin(0)[..out.len()]),
            GateFn::Inv => zip_into(out, pin(0), |_, x| !x),
            GateFn::And(n) => fold_into(out, 0..n as usize, &pin, true),
            GateFn::Nand(n) => {
                fold_into(out, 0..n as usize, &pin, true);
                invert(out);
            }
            GateFn::Or(n) => fold_into(out, 0..n as usize, &pin, false),
            GateFn::Nor(n) => {
                fold_into(out, 0..n as usize, &pin, false);
                invert(out);
            }
            GateFn::Xor => {
                out.copy_from_slice(&pin(0)[..out.len()]);
                zip_into(out, pin(1), |o, x| o ^ x);
            }
            GateFn::Xnor => {
                out.copy_from_slice(&pin(0)[..out.len()]);
                zip_into(out, pin(1), |o, x| !(o ^ x));
            }
            // !(g0 + g1 + …) with each g an AND of its group's pins
            GateFn::Aoi(groups) => fold_groups(out, groups, &pin, true),
            // !(g0 · g1 · …) with each g an OR of its group's pins
            GateFn::Oai(groups) => fold_groups(out, groups, &pin, false),
        }
    }

    /// Evaluates the function on 64 parallel input vectors: the one-word
    /// case of [`GateFn::eval_rows`].
    ///
    /// `inputs[i]` carries bit `b` of simulation vector `b` for pin `i`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `inputs.len()` differs from
    /// [`GateFn::arity`].
    #[inline]
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        debug_assert_eq!(inputs.len(), self.arity(), "wrong pin count for {self}");
        let mut out = [0u64];
        self.eval_rows(|i| std::slice::from_ref(&inputs[i]), &mut out);
        out[0]
    }

    /// Scalar convenience wrapper around [`GateFn::eval_words`].
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_words(&words) & 1 == 1
    }
}

/// Words per scratch block of the `Aoi`/`Oai` kernel: one block covers a
/// 4096-vector waveform row.
const BLOCK: usize = 64;

/// `out[w] = f(out[w], row[w])` for every word of `out`.
#[inline]
fn zip_into(out: &mut [u64], row: &[u64], f: impl Fn(u64, u64) -> u64) {
    let row = &row[..out.len()];
    for (o, &x) in out.iter_mut().zip(row) {
        *o = f(*o, x);
    }
}

#[inline]
fn invert(out: &mut [u64]) {
    for o in out.iter_mut() {
        *o = !*o;
    }
}

/// Folds the rows of `pins` into `out`: their AND when `and`, else their
/// OR (the fold's identity when `pins` is empty).
#[inline]
fn fold_into<'a>(
    out: &mut [u64],
    pins: std::ops::Range<usize>,
    pin: &impl Fn(usize) -> &'a [u64],
    and: bool,
) {
    out.fill(if and { !0 } else { 0 });
    for i in pins {
        if and {
            zip_into(out, pin(i), |o, x| o & x);
        } else {
            zip_into(out, pin(i), |o, x| o | x);
        }
    }
}

/// The AND-OR-INVERT (`aoi`) or OR-AND-INVERT kernel: each non-empty group
/// of consecutive pins is folded into a scratch block (AND for AOI, OR for
/// OAI), the blocks are merged into `out` with the other operation, and
/// the result is inverted.
#[inline]
fn fold_groups<'a>(out: &mut [u64], groups: [u8; 4], pin: &impl Fn(usize) -> &'a [u64], aoi: bool) {
    let mut scratch = [0u64; BLOCK];
    for (b, chunk) in out.chunks_mut(BLOCK).enumerate() {
        let lo = b * BLOCK;
        let shifted = |i: usize| &pin(i)[lo..];
        chunk.fill(if aoi { 0 } else { !0 });
        let mut at = 0usize;
        for &g in groups.iter().filter(|&&g| g > 0) {
            let block = &mut scratch[..chunk.len()];
            fold_into(block, at..at + g as usize, &shifted, aoi);
            if aoi {
                zip_into(chunk, block, |o, x| o | x);
            } else {
                zip_into(chunk, block, |o, x| o & x);
            }
            at += g as usize;
        }
        invert(chunk);
    }
}

impl fmt::Display for GateFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateFn::Buf => write!(f, "BUF"),
            GateFn::Inv => write!(f, "INV"),
            GateFn::And(n) => write!(f, "AND{n}"),
            GateFn::Nand(n) => write!(f, "NAND{n}"),
            GateFn::Or(n) => write!(f, "OR{n}"),
            GateFn::Nor(n) => write!(f, "NOR{n}"),
            GateFn::Xor => write!(f, "XOR2"),
            GateFn::Xnor => write!(f, "XNOR2"),
            GateFn::Aoi(g) => {
                write!(f, "AOI")?;
                for &x in g.iter().filter(|&&x| x > 0) {
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            GateFn::Oai(g) => {
                write!(f, "OAI")?;
                for &x in g.iter().filter(|&&x| x > 0) {
                    write!(f, "{x}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_table(f: GateFn) -> Vec<bool> {
        let n = f.arity();
        (0..1usize << n)
            .map(|pattern| {
                let bits: Vec<bool> = (0..n).map(|i| pattern >> i & 1 == 1).collect();
                f.eval_bool(&bits)
            })
            .collect()
    }

    #[test]
    fn basic_gates() {
        assert_eq!(truth_table(GateFn::Inv), vec![true, false]);
        assert_eq!(truth_table(GateFn::Buf), vec![false, true]);
        assert_eq!(truth_table(GateFn::And(2)), vec![false, false, false, true]);
        assert_eq!(truth_table(GateFn::Nand(2)), vec![true, true, true, false]);
        assert_eq!(truth_table(GateFn::Or(2)), vec![false, true, true, true]);
        assert_eq!(truth_table(GateFn::Nor(2)), vec![true, false, false, false]);
        assert_eq!(truth_table(GateFn::Xor), vec![false, true, true, false]);
        assert_eq!(truth_table(GateFn::Xnor), vec![true, false, false, true]);
    }

    #[test]
    fn aoi21_matches_formula() {
        // AOI21(a,b,c) = !(a·b + c); pin order a,b,c; pattern bit i = pin i.
        let f = GateFn::Aoi([2, 1, 0, 0]);
        assert_eq!(f.arity(), 3);
        for pattern in 0..8usize {
            let a = pattern & 1 == 1;
            let b = pattern & 2 != 0;
            let c = pattern & 4 != 0;
            assert_eq!(f.eval_bool(&[a, b, c]), !((a && b) || c), "p={pattern}");
        }
    }

    #[test]
    fn oai22_matches_formula() {
        let f = GateFn::Oai([2, 2, 0, 0]);
        assert_eq!(f.arity(), 4);
        for pattern in 0..16usize {
            let v: Vec<bool> = (0..4).map(|i| pattern >> i & 1 == 1).collect();
            let want = !((v[0] || v[1]) && (v[2] || v[3]));
            assert_eq!(f.eval_bool(&v), want, "p={pattern}");
        }
    }

    #[test]
    fn aoi211() {
        let f = GateFn::Aoi([2, 1, 1, 0]);
        assert_eq!(f.arity(), 4);
        for pattern in 0..16usize {
            let v: Vec<bool> = (0..4).map(|i| pattern >> i & 1 == 1).collect();
            let want = !((v[0] && v[1]) || v[2] || v[3]);
            assert_eq!(f.eval_bool(&v), want);
        }
    }

    #[test]
    fn word_parallel_agrees_with_scalar() {
        let fns = [
            GateFn::Nand(3),
            GateFn::Nor(4),
            GateFn::Xor,
            GateFn::Aoi([2, 2, 0, 0]),
            GateFn::Oai([3, 1, 0, 0]),
        ];
        for f in fns {
            let n = f.arity();
            // pack all input patterns into word lanes
            let mut words = vec![0u64; n];
            for pattern in 0..1usize << n {
                for (i, w) in words.iter_mut().enumerate() {
                    if pattern >> i & 1 == 1 {
                        *w |= 1 << pattern;
                    }
                }
            }
            let out = f.eval_words(&words);
            for pattern in 0..1usize << n {
                let bits: Vec<bool> = (0..n).map(|i| pattern >> i & 1 == 1).collect();
                assert_eq!(
                    out >> pattern & 1 == 1,
                    f.eval_bool(&bits),
                    "{f} p={pattern}"
                );
            }
        }
    }

    #[test]
    fn arity_and_inverting() {
        assert_eq!(GateFn::Aoi([3, 3, 0, 0]).arity(), 6);
        assert_eq!(GateFn::Oai([2, 1, 1, 0]).arity(), 4);
        assert!(GateFn::Nand(2).is_inverting());
        assert!(GateFn::Xnor.is_inverting());
        assert!(!GateFn::And(3).is_inverting());
        assert!(!GateFn::Buf.is_inverting());
    }

    #[test]
    fn display_names() {
        assert_eq!(GateFn::Aoi([2, 1, 0, 0]).to_string(), "AOI21");
        assert_eq!(GateFn::Oai([2, 2, 0, 0]).to_string(), "OAI22");
        assert_eq!(GateFn::Nand(3).to_string(), "NAND3");
        assert_eq!(GateFn::Xor.to_string(), "XOR2");
    }
}
