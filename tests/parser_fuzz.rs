//! No-panic properties for the three parsers of outside input: the library
//! text format, BLIF and JSON. Each mutates a valid document by byte
//! deletions, insertions and duplicated spans, and requires the parser to
//! return `Ok` or `Err` instead of panicking.

use std::panic::catch_unwind;
use std::sync::OnceLock;

use dual_vdd::celllib::{compass, textfmt, VoltagePair};
use dual_vdd::core::FlowConfig;
use dual_vdd::netlist::blif;
use dual_vdd::sweep::{json, run_grid, to_json, ConfigVariant, Grid};
use dual_vdd::synth::mcnc;
use proptest::prelude::*;

const FULL_ADDER: &str = "\
# one-bit full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";

/// Bytes an insertion draws from: the punctuation of all three grammars,
/// number characters, the letters of `nan`/`inf`, and a lone UTF-8 lead
/// byte (which the lossy re-decoding turns into U+FFFD).
const INSERTS: &[u8] = b"0123456789.-+eE\"\\{}[],:= \n\t#.naif\xC3";

/// One edit: kind (deletion, insertion, duplicated span), position, span
/// length and inserted byte, each reduced into range by [`mutate`].
type Edit = (u8, u32, u8, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..8)
}

fn mutate(doc: &str, edits: &[Edit]) -> String {
    let mut b = doc.as_bytes().to_vec();
    for &(kind, pos, len, byte) in edits {
        let at = pos as usize % (b.len() + 1);
        let end = (at + 1 + len as usize % 16).min(b.len());
        match kind % 3 {
            0 => {
                b.drain(at..end);
            }
            1 => b.insert(at, INSERTS[byte as usize % INSERTS.len()]),
            _ => {
                let span = b[at..end].to_vec();
                b.splice(at..at, span);
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

fn library_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| textfmt::write(&compass::compass_library(VoltagePair::default())))
}

/// The sweep document of one small scenario.
fn sweep_document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let paper = ConfigVariant::paper();
        let grid = Grid {
            profiles: vec![mcnc::find("i1").unwrap()],
            scales: vec![1],
            variants: vec![ConfigVariant {
                config: FlowConfig {
                    sim_vectors: 128,
                    ..paper.config
                },
                ..paper
            }],
            seeds: vec![0],
        };
        to_json(&run_grid(&grid, 1, |_| {}), false).render()
    })
}

#[test]
fn corpus_documents_parse() {
    assert!(textfmt::parse(library_text()).is_ok());
    assert!(blif::parse(FULL_ADDER).is_ok());
    assert!(json::parse(sweep_document()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn library_text_never_panics(e in edits()) {
        let text = mutate(library_text(), &e);
        let parsed = catch_unwind(|| textfmt::parse(&text).is_ok());
        prop_assert!(parsed.is_ok(), "textfmt::parse panicked on:\n{}", text);
    }

    #[test]
    fn blif_never_panics(e in edits()) {
        let text = mutate(FULL_ADDER, &e);
        let parsed = catch_unwind(|| blif::parse(&text).is_ok());
        prop_assert!(parsed.is_ok(), "blif::parse panicked on:\n{}", text);
    }

    #[test]
    fn sweep_json_never_panics(e in edits()) {
        let text = mutate(sweep_document(), &e);
        let parsed = catch_unwind(|| json::parse(&text).is_ok());
        prop_assert!(parsed.is_ok(), "json::parse panicked on:\n{}", text);
    }
}
