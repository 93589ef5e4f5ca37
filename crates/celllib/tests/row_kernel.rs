//! The row kernel `GateFn::eval_rows` against a per-bit reference written
//! from each function's definition: every function of the compass
//! library, plus AOI/OAI group shapes of one to four groups, over random
//! rows of 1, 2, 64 and 65 words (the last crosses the AOI/OAI kernel's
//! 64-word scratch block).

use dvs_celllib::{compass, GateFn, VoltagePair};

/// SplitMix64: a self-contained stream of random words.
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The function's output for one vector of pin values, from its
/// definition.
fn reference(f: GateFn, pins: &[bool]) -> bool {
    let all = |p: &[bool]| p.iter().all(|&b| b);
    let any = |p: &[bool]| p.iter().any(|&b| b);
    let groups = |g: [u8; 4]| {
        let mut at = 0;
        g.iter()
            .filter(|&&n| n > 0)
            .map(|&n| {
                at += n as usize;
                &pins[at - n as usize..at]
            })
            .collect::<Vec<_>>()
    };
    match f {
        GateFn::Buf => pins[0],
        GateFn::Inv => !pins[0],
        GateFn::And(_) => all(pins),
        GateFn::Nand(_) => !all(pins),
        GateFn::Or(_) => any(pins),
        GateFn::Nor(_) => !any(pins),
        GateFn::Xor => pins[0] != pins[1],
        GateFn::Xnor => pins[0] == pins[1],
        GateFn::Aoi(g) => !groups(g).into_iter().any(all),
        GateFn::Oai(g) => !groups(g).into_iter().all(any),
    }
}

/// Runs `f` over random rows of 1, 2, 64 and 65 words and checks every
/// output bit against [`reference`].
fn check(f: GateFn, rng: &mut Words) {
    let n = f.arity();
    for words in [1usize, 2, 64, 65] {
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..words).map(|_| rng.next()).collect())
            .collect();
        // a stale output row must be overwritten, not folded into
        let mut out: Vec<u64> = (0..words).map(|_| rng.next()).collect();
        f.eval_rows(|i| &rows[i], &mut out);
        for (w, &word) in out.iter().enumerate() {
            for b in 0..64 {
                let pins: Vec<bool> = rows.iter().map(|r| r[w] >> b & 1 == 1).collect();
                assert_eq!(
                    word >> b & 1 == 1,
                    reference(f, &pins),
                    "{f} at word {w} of {words}, bit {b}, pins {pins:?}"
                );
            }
            let inputs: Vec<u64> = rows.iter().map(|r| r[w]).collect();
            assert_eq!(f.eval_words(&inputs), word, "{f}: eval_words at word {w}");
        }
    }
}

#[test]
fn every_library_function_matches_its_definition() {
    let lib = compass::compass_library(VoltagePair::default());
    let mut rng = Words(1);
    let mut checked = 0;
    for (_, cell) in lib.cells() {
        check(cell.function(), &mut rng);
        checked += 1;
    }
    assert_eq!(checked, lib.cell_count());
}

#[test]
fn aoi_and_oai_group_shapes_match_their_definitions() {
    let mut rng = Words(2);
    let mut shapes = 0;
    for groups in 1..=4usize {
        // every shape of `groups` groups with one to three pins each
        for code in 0..3usize.pow(groups as u32) {
            let mut g = [0u8; 4];
            for (k, slot) in g.iter_mut().enumerate().take(groups) {
                *slot = (code / 3usize.pow(k as u32) % 3 + 1) as u8;
            }
            check(GateFn::Aoi(g), &mut rng);
            check(GateFn::Oai(g), &mut rng);
            shapes += 1;
        }
    }
    assert_eq!(shapes, 3 + 9 + 27 + 81);
}
