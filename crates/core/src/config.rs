/// Knobs of the dual-Vdd flow, defaulting to the paper's experimental
/// setup.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Clock frequency used by the power estimator, MHz (paper: 20 MHz).
    pub fclk_mhz: f64,
    /// Random vectors per power estimation (SIS uses "random simulations";
    /// 4096 keeps the estimator variance below a percent).
    pub sim_vectors: usize,
    /// Seed of the simulation vector stream — fixed so that before/after
    /// comparisons share activities.
    pub sim_seed: u64,
    /// Maximum fractional area growth `Gscale` may spend (paper: 10 %).
    pub max_area_increase: f64,
    /// Consecutive unsuccessful boundary pushes before `Gscale` stops
    /// (paper: `maxIter` = 10).
    pub max_iter: usize,
    /// Guard band subtracted from every timing-feasibility check, ns.
    pub guard_ns: f64,
    /// `Dscale` candidate weighting. `true` (default): weight by the
    /// converter-adjusted net power gain and drop non-positive candidates,
    /// so level restoration never loses power — reproducing the paper's
    /// Table 1, where Dscale improves on CVS everywhere but only by
    /// ~1.8 % on average because the converter tax swallows most of the
    /// extra demotions. `false`: the literal pseudo-code reading — weight
    /// by the gross "power reduction when Vlow is applied" and let the
    /// restoration circuitry eat into it afterwards (the ablation of
    /// DESIGN.md §7.3; on converter-hostile circuits this loses power).
    pub dscale_net_weighting: bool,
    /// Replace Dscale's exact maximum-weight-independent-set selection
    /// with a weight-greedy conflict-free sweep (the ablation of
    /// DESIGN.md §7.1). Greedy picks the heaviest candidate, discards its
    /// path-conflicting rivals, and repeats — cheaper, but it can strand
    /// weight the exact antichain would have captured.
    pub dscale_greedy_selection: bool,
    /// Intra-circuit worker threads for the parallel paths (Dscale
    /// candidate scoring, wavefront power simulation). `0` (default)
    /// defers to the process-wide [`dvs_pool::circuit_jobs`] width —
    /// which entry points set from `--circuit-jobs`/`DVS_CIRCUIT_JOBS`
    /// after the [`dvs_pool::budget_circuit_jobs`] oversubscription
    /// guard. Results are value-identical for every width; only the
    /// wall-clock moves.
    pub circuit_jobs: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            fclk_mhz: 20.0,
            sim_vectors: 4096,
            sim_seed: 0x0D5C,
            max_area_increase: 0.10,
            max_iter: 10,
            guard_ns: 1e-9,
            dscale_net_weighting: true,
            dscale_greedy_selection: false,
            circuit_jobs: 0,
        }
    }
}

impl FlowConfig {
    /// Validates the configuration, panicking on nonsensical values.
    ///
    /// # Panics
    ///
    /// Panics if any knob is out of range (non-positive frequency, fewer
    /// than 2 vectors, negative area budget or guard band).
    pub fn assert_valid(&self) {
        assert!(self.fclk_mhz > 0.0, "clock frequency must be positive");
        assert!(self.sim_vectors >= 2, "need at least 2 simulation vectors");
        assert!(
            self.max_area_increase >= 0.0,
            "area budget cannot be negative"
        );
        assert!(self.guard_ns >= 0.0, "guard band cannot be negative");
    }

    /// The intra-circuit thread width this config resolves to: the
    /// explicit [`FlowConfig::circuit_jobs`] when set, otherwise the
    /// process-wide [`dvs_pool::circuit_jobs`] value.
    #[must_use]
    pub fn resolved_circuit_jobs(&self) -> usize {
        if self.circuit_jobs > 0 {
            self.circuit_jobs
        } else {
            dvs_pool::circuit_jobs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FlowConfig::default();
        assert_eq!(c.fclk_mhz, 20.0);
        assert_eq!(c.max_area_increase, 0.10);
        assert_eq!(c.max_iter, 10);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn rejects_zero_frequency() {
        let c = FlowConfig {
            fclk_mhz: 0.0,
            ..FlowConfig::default()
        };
        c.assert_valid();
    }
}
