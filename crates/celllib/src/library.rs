use std::collections::BTreeMap;

use dvs_netlist::{ArityOracle, CellRef, Rail, SizeIx};

use crate::{AlphaPowerModel, Cell, LibraryError, VoltagePair};

/// A dual-Vdd characterised standard-cell library.
///
/// Cells are addressed by [`CellRef`] (dense indices shared with
/// `dvs-netlist` gates). The library owns the voltage pair, the alpha-power
/// derating model, the level-converter cell and the interconnect loading
/// constants used by the timing and power engines.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    cells: Vec<Cell>,
    by_name: BTreeMap<String, CellRef>,
    voltages: VoltagePair,
    alpha: AlphaPowerModel,
    derate_low: f64,
    converter: CellRef,
    wire_cap_per_fanout_pf: f64,
    po_load_pf: f64,
    pi_drive_res_ns_per_pf: f64,
}

impl Library {
    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell referenced by `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range for this library.
    pub fn cell(&self, r: CellRef) -> &Cell {
        &self.cells[r.index()]
    }

    /// Looks a cell family up by name.
    pub fn find(&self, name: &str) -> Option<CellRef> {
        self.by_name.get(name).copied()
    }

    /// Iterates over `(CellRef, &Cell)` pairs in index order.
    pub fn cells(&self) -> impl Iterator<Item = (CellRef, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(ix, c)| (CellRef(ix as u32), c))
    }

    /// Number of cell families, including the level converter.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of sized combinational cells (size variants summed over all
    /// families, converter excluded) — 72 for the paper's library.
    pub fn sized_cell_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !c.is_converter())
            .map(|c| c.sizes().len())
            .sum()
    }

    /// The dual supply rails.
    pub fn voltages(&self) -> VoltagePair {
        self.voltages
    }

    /// The alpha-power model used for low-rail derating.
    pub fn alpha_model(&self) -> AlphaPowerModel {
        self.alpha
    }

    /// Supply voltage of a rail, volts.
    pub fn rail_voltage(&self, rail: Rail) -> f64 {
        match rail {
            Rail::High => self.voltages.high(),
            Rail::Low => self.voltages.low(),
        }
    }

    /// Delay multiplier of a rail (1.0 for high, the alpha-power factor for
    /// low).
    pub fn derate(&self, rail: Rail) -> f64 {
        match rail {
            Rail::High => 1.0,
            Rail::Low => self.derate_low,
        }
    }

    /// The level-restoration converter cell.
    pub fn converter(&self) -> CellRef {
        self.converter
    }

    /// Pin-to-pin gate delay in ns of `cell` at `size` on `rail` driving
    /// `load_pf`.
    #[inline]
    pub fn delay_ns(&self, cell: CellRef, size: SizeIx, rail: Rail, load_pf: f64) -> f64 {
        self.derate(rail) * self.cell(cell).size(size).delay_ns(load_pf)
    }

    /// Estimated wire capacitance per fanout connection, pF.
    pub fn wire_cap_per_fanout_pf(&self) -> f64 {
        self.wire_cap_per_fanout_pf
    }

    /// Capacitive load modelled at each primary output, pF.
    pub fn po_load_pf(&self) -> f64 {
        self.po_load_pf
    }

    /// Maximum load a drive size may legally carry: real libraries bound
    /// fanout load per drive (slew / EM rules), so area recovery must not
    /// strip a heavily loaded driver — e.g. a primary-output pad driver —
    /// down to the minimum size no matter how much slack it has.
    pub fn max_load_pf(&self, cell: CellRef, size: SizeIx) -> f64 {
        4.5 * self.cell(cell).size(size).input_cap_pf
    }

    /// Drive resistance of whatever feeds a primary input (pad or upstream
    /// register), ns/pF. The arrival model treats inputs as ideal (time 0,
    /// like the paper's SIS setup), but `Gscale`'s sizing weight charges
    /// this resistance for the extra pin capacitance an up-size presents —
    /// up-sizing PI-driven gates is not free in a real design.
    pub fn pi_drive_res_ns_per_pf(&self) -> f64 {
        self.pi_drive_res_ns_per_pf
    }
}

impl ArityOracle for Library {
    fn arity_of(&self, cell: CellRef) -> Option<usize> {
        self.cells.get(cell.index()).map(|c| c.arity())
    }
}

/// Builder assembling a [`Library`].
///
/// # Example
///
/// ```
/// use dvs_celllib::{Cell, GateFn, LibraryBuilder, SizeVariant, VoltagePair};
///
/// let size = SizeVariant {
///     name: "d0".into(),
///     area: 1.0,
///     input_cap_pf: 0.01,
///     intrinsic_ns: 0.1,
///     drive_res_ns_per_pf: 3.0,
///     internal_cap_pf: 0.005,
///     leakage_nw: 1.0,
/// };
/// let lib = LibraryBuilder::new("tiny")
///     .voltages(VoltagePair::new(5.0, 4.3))
///     .cell(Cell::new("INV", GateFn::Inv, vec![size.clone()]))
///     .converter_cell(vec![size])
///     .build()?;
/// assert_eq!(lib.cell_count(), 2); // INV + converter
/// # Ok::<(), dvs_celllib::LibraryError>(())
/// ```
#[derive(Debug)]
pub struct LibraryBuilder {
    name: String,
    cells: Vec<Cell>,
    voltages: VoltagePair,
    alpha: AlphaPowerModel,
    converter_sizes: Option<Vec<crate::SizeVariant>>,
    wire_cap_per_fanout_pf: f64,
    po_load_pf: f64,
    pi_drive_res_ns_per_pf: f64,
}

impl LibraryBuilder {
    /// Starts a builder with the paper's default voltages (5 V / 4.3 V),
    /// alpha-power model and interconnect constants.
    pub fn new(name: impl Into<String>) -> Self {
        LibraryBuilder {
            name: name.into(),
            cells: Vec::new(),
            voltages: VoltagePair::default(),
            alpha: AlphaPowerModel::default(),
            converter_sizes: None,
            wire_cap_per_fanout_pf: 0.004,
            po_load_pf: 0.05,
            pi_drive_res_ns_per_pf: 3.5,
        }
    }

    /// Sets the dual supply rails.
    pub fn voltages(mut self, v: VoltagePair) -> Self {
        self.voltages = v;
        self
    }

    /// Sets the alpha-power derating model.
    pub fn alpha_model(mut self, m: AlphaPowerModel) -> Self {
        self.alpha = m;
        self
    }

    /// Adds a cell family.
    pub fn cell(mut self, cell: Cell) -> Self {
        self.cells.push(cell);
        self
    }

    /// Declares the level-converter cell with the given size variants.
    pub fn converter_cell(mut self, sizes: Vec<crate::SizeVariant>) -> Self {
        self.converter_sizes = Some(sizes);
        self
    }

    /// Sets the wire capacitance added per fanout connection, pF.
    pub fn wire_cap_per_fanout_pf(mut self, pf: f64) -> Self {
        self.wire_cap_per_fanout_pf = pf;
        self
    }

    /// Sets the load modelled at each primary output, pF.
    pub fn po_load_pf(mut self, pf: f64) -> Self {
        self.po_load_pf = pf;
        self
    }

    /// Sets the drive resistance of primary-input drivers, ns/pF.
    pub fn pi_drive_res_ns_per_pf(mut self, r: f64) -> Self {
        self.pi_drive_res_ns_per_pf = r;
        self
    }

    /// Finalises the library.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::DuplicateCell`] on name clashes,
    /// [`LibraryError::MissingConverter`] if no converter was declared,
    /// [`LibraryError::BadAttribute`] on non-positive physical attributes
    /// and [`LibraryError::RailBelowThreshold`] unless the low rail is
    /// above the alpha-power model's threshold.
    pub fn build(self) -> Result<Library, LibraryError> {
        self.build_at().map_err(|(_, e)| e)
    }

    /// [`LibraryBuilder::build`], also naming the cell an error belongs
    /// to: its position in the order the cells were added, the converter
    /// counting last. `None` for library-wide errors.
    pub(crate) fn build_at(self) -> Result<Library, (Option<usize>, LibraryError)> {
        let mut cells = self.cells;
        let converter_sizes = self
            .converter_sizes
            .ok_or((None, LibraryError::MissingConverter))?;
        cells.push(Cell::new_converter("LCONV", converter_sizes));
        let converter = CellRef((cells.len() - 1) as u32);

        let mut by_name = BTreeMap::new();
        for (ix, cell) in cells.iter().enumerate() {
            for sz in cell.sizes() {
                let check = |value: f64, what: &str| {
                    if value <= 0.0 || !value.is_finite() {
                        return Err((
                            Some(ix),
                            LibraryError::BadAttribute {
                                cell: cell.name().to_owned(),
                                message: format!("{what} must be positive, got {value}"),
                            },
                        ));
                    }
                    Ok(())
                };
                check(sz.area, "area")?;
                check(sz.input_cap_pf, "input_cap_pf")?;
                check(sz.intrinsic_ns, "intrinsic_ns")?;
                check(sz.drive_res_ns_per_pf, "drive_res_ns_per_pf")?;
                if sz.internal_cap_pf < 0.0 || sz.leakage_nw < 0.0 {
                    return Err((
                        Some(ix),
                        LibraryError::BadAttribute {
                            cell: cell.name().to_owned(),
                            message: "internal cap and leakage must be non-negative".to_owned(),
                        },
                    ));
                }
            }
            if by_name
                .insert(cell.name().to_owned(), CellRef(ix as u32))
                .is_some()
            {
                return Err((
                    Some(ix),
                    LibraryError::DuplicateCell {
                        name: cell.name().to_owned(),
                    },
                ));
            }
        }

        let (vt, low) = (self.alpha.vt, self.voltages.low());
        if vt.is_nan() || vt >= low {
            return Err((
                None,
                LibraryError::RailBelowThreshold {
                    message: format!("low rail {low} V is not above the threshold {vt} V"),
                },
            ));
        }
        let derate_low = self.alpha.derate(self.voltages);
        Ok(Library {
            name: self.name,
            cells,
            by_name,
            voltages: self.voltages,
            alpha: self.alpha,
            derate_low,
            converter,
            wire_cap_per_fanout_pf: self.wire_cap_per_fanout_pf,
            po_load_pf: self.po_load_pf,
            pi_drive_res_ns_per_pf: self.pi_drive_res_ns_per_pf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateFn, SizeVariant};

    fn size(scale: f64) -> SizeVariant {
        SizeVariant {
            name: format!("d{}", scale as u32),
            area: scale,
            input_cap_pf: 0.01 * scale,
            intrinsic_ns: 0.1,
            drive_res_ns_per_pf: 3.0 / scale,
            internal_cap_pf: 0.005 * scale,
            leakage_nw: scale,
        }
    }

    fn tiny() -> Library {
        LibraryBuilder::new("tiny")
            .cell(Cell::new("INV", GateFn::Inv, vec![size(1.0), size(2.0)]))
            .cell(Cell::new("NAND2", GateFn::Nand(2), vec![size(1.0)]))
            .converter_cell(vec![size(1.5)])
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_and_counts() {
        let lib = tiny();
        assert_eq!(lib.cell_count(), 3);
        assert_eq!(lib.sized_cell_count(), 3); // 2 INV sizes + 1 NAND2
        let inv = lib.find("INV").unwrap();
        assert_eq!(lib.cell(inv).name(), "INV");
        assert!(lib.find("LCONV").is_some());
        assert!(lib.cell(lib.converter()).is_converter());
    }

    #[test]
    fn delay_derates_on_low_rail() {
        let lib = tiny();
        let inv = lib.find("INV").unwrap();
        let hi = lib.delay_ns(inv, SizeIx(0), Rail::High, 0.05);
        let lo = lib.delay_ns(inv, SizeIx(0), Rail::Low, 0.05);
        assert!((lo / hi - lib.derate(Rail::Low)).abs() < 1e-12);
        assert!(lib.derate(Rail::Low) > 1.0);
        assert_eq!(lib.derate(Rail::High), 1.0);
    }

    #[test]
    fn bigger_size_drives_harder() {
        let lib = tiny();
        let inv = lib.find("INV").unwrap();
        // under heavy load the d1 variant must win
        let d0 = lib.delay_ns(inv, SizeIx(0), Rail::High, 0.5);
        let d1 = lib.delay_ns(inv, SizeIx(1), Rail::High, 0.5);
        assert!(d1 < d0);
    }

    #[test]
    fn missing_converter_rejected() {
        let err = LibraryBuilder::new("x")
            .cell(Cell::new("INV", GateFn::Inv, vec![size(1.0)]))
            .build()
            .unwrap_err();
        assert_eq!(err, LibraryError::MissingConverter);
    }

    #[test]
    fn duplicate_cell_rejected() {
        let err = LibraryBuilder::new("x")
            .cell(Cell::new("INV", GateFn::Inv, vec![size(1.0)]))
            .cell(Cell::new("INV", GateFn::Inv, vec![size(1.0)]))
            .converter_cell(vec![size(1.0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, LibraryError::DuplicateCell { .. }));
    }

    #[test]
    fn bad_attribute_rejected() {
        let mut s = size(1.0);
        s.area = -1.0;
        let err = LibraryBuilder::new("x")
            .cell(Cell::new("INV", GateFn::Inv, vec![s]))
            .converter_cell(vec![size(1.0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, LibraryError::BadAttribute { .. }));
    }

    #[test]
    fn threshold_not_below_the_low_rail_rejected() {
        for vt in [4.3, 6.0, f64::NAN] {
            let err = LibraryBuilder::new("x")
                .alpha_model(AlphaPowerModel { vt, alpha: 1.3 })
                .cell(Cell::new("INV", GateFn::Inv, vec![size(1.0)]))
                .converter_cell(vec![size(1.0)])
                .build()
                .unwrap_err();
            assert!(
                matches!(err, LibraryError::RailBelowThreshold { .. }),
                "{vt}"
            );
        }
    }

    #[test]
    fn arity_oracle_impl() {
        let lib = tiny();
        let nand = lib.find("NAND2").unwrap();
        assert_eq!(lib.arity_of(nand), Some(2));
        assert_eq!(lib.arity_of(CellRef(99)), None);
    }

    #[test]
    fn rail_voltages() {
        let lib = tiny();
        assert_eq!(lib.rail_voltage(Rail::High), 5.0);
        assert_eq!(lib.rail_voltage(Rail::Low), 4.3);
    }

    #[test]
    fn max_load_scales_with_pin_cap() {
        let lib = tiny();
        let inv = lib.find("INV").unwrap();
        let d0 = lib.max_load_pf(inv, SizeIx(0));
        let d1 = lib.max_load_pf(inv, SizeIx(1));
        assert!((d0 - 4.5 * 0.01).abs() < 1e-12);
        assert!(d1 > d0, "bigger drives carry more");
    }

    #[test]
    fn interconnect_knobs_settable() {
        let lib = LibraryBuilder::new("k")
            .cell(Cell::new("INV", GateFn::Inv, vec![size(1.0)]))
            .converter_cell(vec![size(1.0)])
            .wire_cap_per_fanout_pf(0.01)
            .po_load_pf(0.2)
            .pi_drive_res_ns_per_pf(1.25)
            .build()
            .unwrap();
        assert_eq!(lib.wire_cap_per_fanout_pf(), 0.01);
        assert_eq!(lib.po_load_pf(), 0.2);
        assert_eq!(lib.pi_drive_res_ns_per_pf(), 1.25);
    }

    #[test]
    fn cells_iterator_is_dense_and_ordered() {
        let lib = tiny();
        let refs: Vec<usize> = lib.cells().map(|(r, _)| r.index()).collect();
        let expect: Vec<usize> = (0..lib.cell_count()).collect();
        assert_eq!(refs, expect);
    }
}
