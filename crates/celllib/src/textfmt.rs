//! A minimal, Liberty-inspired *text format* for libraries, so users can
//! characterise their own cells (or tweak the built-in stand-in) without
//! recompiling.
//!
//! The grammar is line-oriented; `#` starts a comment. One `library` header
//! followed by attribute lines, then one block per cell:
//!
//! ```text
//! library compass06-standin
//! voltages 5.0 4.3
//! alpha_model 0.8 1.3
//! wire_cap_per_fanout 0.004
//! po_load 0.05
//! pi_drive_res 3.5
//!
//! cell NAND2 function=NAND2
//!   size d0 area=1.25 cap=0.0105 intrinsic=0.092 res=3.45 internal=0.0042 leak=1.25
//!   size d1 area=1.375 cap=0.0152 intrinsic=0.103 res=1.725 internal=0.0084 leak=2.5
//! converter LCONV
//!   size d0 area=2.0 cap=0.005 intrinsic=0.16 res=3.15 internal=0.003 leak=2.5
//! ```
//!
//! Functions are named with the same spelling as [`GateFn`]'s `Display`
//! (`INV`, `NAND3`, `AOI21`, `XOR2`, …).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::{
    AlphaPowerModel, Cell, GateFn, Library, LibraryBuilder, LibraryError, SizeVariant, VoltagePair,
};

/// Error parsing the library text format.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseLibraryError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "library parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseLibraryError {}

fn err(line: usize, message: impl Into<String>) -> ParseLibraryError {
    ParseLibraryError {
        line,
        message: message.into(),
    }
}

/// Parses a [`GateFn`] from its display name (`NAND3`, `AOI211`, …).
pub fn parse_function(name: &str) -> Option<GateFn> {
    let groups_of = |digits: &str| -> Option<[u8; 4]> {
        let mut g = [0u8; 4];
        if digits.is_empty() || digits.len() > 4 {
            return None;
        }
        for (ix, ch) in digits.chars().enumerate() {
            g[ix] = ch.to_digit(10)? as u8;
            if g[ix] == 0 {
                return None;
            }
        }
        Some(g)
    };
    match name {
        "BUF" => Some(GateFn::Buf),
        "INV" => Some(GateFn::Inv),
        "XOR2" => Some(GateFn::Xor),
        "XNOR2" => Some(GateFn::Xnor),
        _ => {
            if let Some(n) = name.strip_prefix("NAND") {
                n.parse().ok().map(GateFn::Nand)
            } else if let Some(n) = name.strip_prefix("NOR") {
                n.parse().ok().map(GateFn::Nor)
            } else if let Some(n) = name.strip_prefix("AND") {
                n.parse().ok().map(GateFn::And)
            } else if let Some(n) = name.strip_prefix("OR") {
                n.parse().ok().map(GateFn::Or)
            } else if let Some(d) = name.strip_prefix("AOI") {
                groups_of(d).map(GateFn::Aoi)
            } else if let Some(d) = name.strip_prefix("OAI") {
                groups_of(d).map(GateFn::Oai)
            } else {
                None
            }
        }
    }
}

/// `token` as a finite number; `None` for anything else, `inf` and `NaN`
/// included.
fn finite(token: &str) -> Option<f64> {
    token.parse().ok().filter(|v: &f64| v.is_finite())
}

/// Serialises a library to the text format. Lossless for everything the
/// format covers: `parse(write(lib))` behaves identically in the flow.
pub fn write(lib: &Library) -> String {
    let mut out = String::new();
    writeln!(out, "library {}", lib.name()).unwrap();
    writeln!(
        out,
        "voltages {} {}",
        lib.voltages().high(),
        lib.voltages().low()
    )
    .unwrap();
    let a = lib.alpha_model();
    writeln!(out, "alpha_model {} {}", a.vt, a.alpha).unwrap();
    writeln!(out, "wire_cap_per_fanout {}", lib.wire_cap_per_fanout_pf()).unwrap();
    writeln!(out, "po_load {}", lib.po_load_pf()).unwrap();
    writeln!(out, "pi_drive_res {}", lib.pi_drive_res_ns_per_pf()).unwrap();
    for (_, cell) in lib.cells() {
        writeln!(out).unwrap();
        if cell.is_converter() {
            writeln!(out, "converter {}", cell.name()).unwrap();
        } else {
            writeln!(out, "cell {} function={}", cell.name(), cell.function()).unwrap();
        }
        for sz in cell.sizes() {
            writeln!(
                out,
                "  size {} area={} cap={} intrinsic={} res={} internal={} leak={}",
                sz.name,
                sz.area,
                sz.input_cap_pf,
                sz.intrinsic_ns,
                sz.drive_res_ns_per_pf,
                sz.internal_cap_pf,
                sz.leakage_nw
            )
            .unwrap();
        }
    }
    out
}

/// Parses the text format back into a [`Library`].
///
/// # Errors
///
/// Returns [`ParseLibraryError`] describing the first malformed line. A
/// problem found once the whole text is read names the line that caused
/// it: a duplicate cell or a bad size attribute its cell's line, a low rail
/// not above the threshold the later of the `voltages` and `alpha_model`
/// lines, and a missing converter the final line.
pub fn parse(text: &str) -> Result<Library, ParseLibraryError> {
    let mut name = String::from("unnamed");
    let mut voltages: Option<VoltagePair> = None;
    let mut alpha: Option<AlphaPowerModel> = None;
    // the later of the `voltages` and `alpha_model` lines
    let mut rails_line = None;
    let mut wire_cap: Option<f64> = None;
    let mut po_load: Option<f64> = None;
    let mut pi_drive: Option<f64> = None;

    struct PendingCell {
        name: String,
        function: Option<GateFn>, // None = converter
        sizes: Vec<SizeVariant>,
        line: usize,
    }
    let mut cells: Vec<PendingCell> = Vec::new();
    let mut last_line = 1;

    for (ix, raw) in text.lines().enumerate() {
        let line_no = ix + 1;
        last_line = line_no;
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let mut tok = line.split_whitespace();
        let Some(head) = tok.next() else { continue };
        let mut num = |what: &str| -> Result<f64, ParseLibraryError> {
            finite(
                tok.next()
                    .ok_or_else(|| err(line_no, format!("missing {what}")))?,
            )
            .ok_or_else(|| err(line_no, format!("bad number for {what}")))
        };
        match head {
            "library" => {
                name = tok.next().unwrap_or("unnamed").to_owned();
            }
            "voltages" => {
                let hi = num("high voltage")?;
                let lo = num("low voltage")?;
                if !(hi > lo && lo > 0.0) {
                    return Err(err(line_no, "voltages must satisfy high > low > 0"));
                }
                voltages = Some(VoltagePair::new(hi, lo));
                rails_line = Some(line_no);
            }
            "alpha_model" => {
                let vt = num("vt")?;
                let al = num("alpha")?;
                if vt <= 0.0 || al <= 0.0 {
                    return Err(err(line_no, "vt and alpha must be positive"));
                }
                alpha = Some(AlphaPowerModel::new(vt, al));
                rails_line = Some(line_no);
            }
            "wire_cap_per_fanout" => wire_cap = Some(num("wire cap")?),
            "po_load" => po_load = Some(num("po load")?),
            "pi_drive_res" => pi_drive = Some(num("pi drive resistance")?),
            "cell" | "converter" => {
                let cname = tok
                    .next()
                    .ok_or_else(|| err(line_no, "cell needs a name"))?
                    .to_owned();
                let function = if head == "cell" {
                    let fspec = tok
                        .next()
                        .ok_or_else(|| err(line_no, "cell needs function=<F>"))?;
                    let fname = fspec
                        .strip_prefix("function=")
                        .ok_or_else(|| err(line_no, "expected function=<F>"))?;
                    Some(
                        parse_function(fname)
                            .ok_or_else(|| err(line_no, format!("unknown function `{fname}`")))?,
                    )
                } else {
                    None
                };
                cells.push(PendingCell {
                    name: cname,
                    function,
                    sizes: Vec::new(),
                    line: line_no,
                });
            }
            "size" => {
                let cell = cells
                    .last_mut()
                    .ok_or_else(|| err(line_no, "size line outside a cell block"))?;
                let sname = tok
                    .next()
                    .ok_or_else(|| err(line_no, "size needs a name"))?
                    .to_owned();
                let mut attrs: BTreeMap<&str, f64> = BTreeMap::new();
                for spec in tok {
                    let (k, v) = spec
                        .split_once('=')
                        .ok_or_else(|| err(line_no, format!("expected key=value, got `{spec}`")))?;
                    let v =
                        finite(v).ok_or_else(|| err(line_no, format!("bad number in `{spec}`")))?;
                    attrs.insert(
                        match k {
                            "area" | "cap" | "intrinsic" | "res" | "internal" | "leak" => k,
                            other => {
                                return Err(err(line_no, format!("unknown attribute `{other}`")))
                            }
                        },
                        v,
                    );
                }
                let get = |k: &str| -> Result<f64, ParseLibraryError> {
                    attrs
                        .get(k)
                        .copied()
                        .ok_or_else(|| err(line_no, format!("size is missing `{k}=`")))
                };
                cell.sizes.push(SizeVariant {
                    name: sname,
                    area: get("area")?,
                    input_cap_pf: get("cap")?,
                    intrinsic_ns: get("intrinsic")?,
                    drive_res_ns_per_pf: get("res")?,
                    internal_cap_pf: get("internal")?,
                    leakage_nw: get("leak")?,
                });
            }
            other => return Err(err(line_no, format!("unknown directive `{other}`"))),
        }
    }

    let mut builder = LibraryBuilder::new(name);
    if let Some(v) = voltages {
        builder = builder.voltages(v);
    }
    if let Some(a) = alpha {
        builder = builder.alpha_model(a);
    }
    if let Some(w) = wire_cap {
        builder = builder.wire_cap_per_fanout_pf(w);
    }
    if let Some(p) = po_load {
        builder = builder.po_load_pf(p);
    }
    if let Some(r) = pi_drive {
        builder = builder.pi_drive_res_ns_per_pf(r);
    }
    // the line of each cell in the order the builder sees them, the
    // converter last
    let mut cell_lines = Vec::new();
    let mut converter = None;
    for cell in cells {
        match cell.function {
            Some(f) => {
                if cell.sizes.is_empty() {
                    return Err(err(cell.line, format!("cell `{}` has no sizes", cell.name)));
                }
                cell_lines.push(cell.line);
                builder = builder.cell(Cell::new(cell.name, f, cell.sizes));
            }
            None => converter = Some((cell.line, cell.sizes)),
        }
    }
    if let Some((line, sizes)) = converter {
        cell_lines.push(line);
        builder = builder.converter_cell(sizes);
    }
    builder.build_at().map_err(|(cell, e)| {
        let line = match (&e, cell) {
            (_, Some(ix)) => cell_lines[ix],
            (LibraryError::RailBelowThreshold { .. }, None) => rails_line.unwrap_or(last_line),
            _ => last_line,
        };
        err(line, e.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compass;
    use dvs_netlist::{Rail, SizeIx};

    #[test]
    fn compass_round_trips() {
        let lib = compass::compass_library(VoltagePair::default());
        let text = write(&lib);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.sized_cell_count(), lib.sized_cell_count());
        assert_eq!(back.cell_count(), lib.cell_count());
        assert_eq!(back.voltages(), lib.voltages());
        assert_eq!(back.wire_cap_per_fanout_pf(), lib.wire_cap_per_fanout_pf());
        assert_eq!(back.po_load_pf(), lib.po_load_pf());
        // timing behaviour identical for a spot-checked cell
        let a = lib.find("AOI21").unwrap();
        let b = back.find("AOI21").unwrap();
        for load in [0.01, 0.05, 0.2] {
            assert_eq!(
                lib.delay_ns(a, SizeIx(1), Rail::Low, load),
                back.delay_ns(b, SizeIx(1), Rail::Low, load)
            );
        }
    }

    #[test]
    fn parse_function_covers_all_families() {
        for f in compass::INVERTING_FUNCTIONS
            .iter()
            .chain(&compass::NON_INVERTING_FUNCTIONS)
        {
            let name = f.to_string();
            assert_eq!(parse_function(&name), Some(*f), "{name}");
        }
        assert_eq!(parse_function("FROB3"), None);
        assert_eq!(parse_function("AOI"), None);
    }

    #[test]
    fn minimal_library_parses() {
        let text = "\
library tiny
voltages 3.3 2.5
cell INV function=INV
  size d0 area=1 cap=0.01 intrinsic=0.1 res=3 internal=0.004 leak=1
converter LC
  size d0 area=2 cap=0.005 intrinsic=0.2 res=3 internal=0.003 leak=2
";
        let lib = parse(text).unwrap();
        assert_eq!(lib.name(), "tiny");
        assert_eq!(lib.voltages().high(), 3.3);
        assert!(lib.find("INV").is_some());
        assert!(lib.cell(lib.converter()).is_converter());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let size = "  size d0 area=1 cap=0.01 intrinsic=0.1 res=3 internal=0.004 leak=1\n";
        let converter = format!("converter LC\n{size}");
        let cases = [
            ("library x\nvoltages 2 5\n".to_owned(), "high > low", 2),
            ("library x\nbogus 1\n".to_owned(), "unknown directive", 2),
            ("size d0 area=1\n".to_owned(), "outside a cell", 1),
            ("cell X function=WAT\n".to_owned(), "unknown function", 1),
            (
                "cell INV function=INV\n  size d0 area=1 cap=0.01\n".to_owned(),
                "missing `intrinsic=`",
                2,
            ),
            // found once the whole text is read: named at the second cell
            (
                format!(
                    "library x\ncell INV function=INV\n{size}cell INV function=INV\n{size}{converter}"
                ),
                "duplicate cell family `INV`",
                4,
            ),
            // named at the cell whose size is bad, not at the last line
            (
                format!(
                    "cell INV function=INV\n{}{converter}",
                    size.replace("area=1", "area=0")
                ),
                "bad attribute on `INV`",
                1,
            ),
            (
                format!("cell INV function=INV\n{size}"),
                "no level-converter",
                2,
            ),
        ];
        for (text, want, line) in cases {
            let e = parse(&text).unwrap_err();
            assert!(
                e.to_string().contains(want),
                "`{text}` gave `{e}`, wanted `{want}`"
            );
            assert_eq!(e.line, line, "`{text}` gave `{e}`");
        }
    }

    #[test]
    fn out_of_range_numbers_are_errors() {
        // one line of the compass library's own text edited at a time;
        // each used to panic or to be accepted
        let text = write(&compass::compass_library(VoltagePair::default()));
        // the threshold is checked once the whole library is read; its
        // errors name the later of the `voltages` and `alpha_model` lines
        let cases = [
            ("alpha_model 0.8 1.3", "alpha_model nan 1.3", 3),
            ("alpha_model 0.8 1.3", "alpha_model 6 1.3", 3),
            ("voltages 5 4.3", "voltages 5 0.5", 3),
            ("voltages 5 4.3", "voltages inf 4.3", 2),
            ("alpha_model 0.8 1.3", "alpha_model 0.8 inf", 3),
            ("wire_cap_per_fanout 0.004", "wire_cap_per_fanout nan", 4),
        ];
        for (from, to, line) in cases {
            assert!(text.contains(from), "`{from}` not in the written text");
            let e = parse(&text.replacen(from, to, 1)).unwrap_err();
            assert_eq!(e.line, line, "`{to}` gave `{e}`");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
# a comment
library c   # trailing

voltages 5.0 4.3
cell INV function=INV
  size d0 area=1 cap=0.01 intrinsic=0.1 res=3 internal=0 leak=0
converter LC
  size d0 area=2 cap=0.005 intrinsic=0.2 res=3 internal=0 leak=0
";
        assert!(parse(text).is_ok());
    }
}
