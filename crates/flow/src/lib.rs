//! # dvs-flow
//!
//! Directed-graph optimisation kit for the DAC'99 dual-Vdd algorithms:
//!
//! * [`FlowGraph`] — residual-graph representation with a Dinic
//!   max-flow (`O(V²·E)`, level graph + blocking flow) and min-cut
//!   extraction. The Edmonds–Karp algorithm the paper cites from
//!   Cormen–Leiserson–Rivest chapter 27 lives in the `dinic_vs_ek` test
//!   as the differential oracle: both compute the same flow value and the
//!   same source-side min cut (the residual-reachable set is invariant
//!   across max flows), so swapping the engine changes no separator and
//!   no downstream result;
//! * [`min_vertex_separator`] — minimum-weight *vertex* separator of a DAG
//!   via the classic node-splitting reduction, used by `Gscale` to pick the
//!   cheapest set of gates whose resizing speeds up every critical path;
//! * [`max_weight_antichain`] — maximum-weight independent set on the
//!   transitive (comparability) graph of a DAG, used by `Dscale` to select
//!   simultaneous voltage reductions that never share a path. Computed as a
//!   minimum flow with node lower bounds (two max-flow runs), the weighted
//!   generalisation of Dilworth's theorem.
//!
//! Capacities are `u64`; real-valued weights (power gains, area/time
//! ratios) are quantised by the caller — see [`quantize`]. [`INF`] marks
//! uncuttable arcs.
//!
//! # Example
//!
//! ```
//! use dvs_flow::max_weight_antichain;
//!
//! // diamond poset: 0 < 1, 0 < 2, 1 < 3, 2 < 3; weights favour the middle
//! let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)];
//! let weights = [3, 4, 4, 3];
//! let (weight, picked) = max_weight_antichain(4, &edges, &weights);
//! assert_eq!(weight, 8);
//! assert_eq!(picked, vec![1, 2]); // the incomparable pair
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod antichain;
mod graph;
mod separator;

pub use antichain::max_weight_antichain;
pub use graph::{EdgeId, FlowGraph, INF};
pub use separator::{min_vertex_separator, SeparatorProblem, SeparatorResult};

/// Quantises a non-negative real weight to integer flow capacity.
///
/// All algorithms in this crate are exact over integers; callers convert
/// real-valued gains with a fixed `scale` (units per 1.0) so that ties and
/// termination behave deterministically.
///
/// # Panics
///
/// Panics if `w` is negative or non-finite, or `scale` is non-positive.
pub fn quantize(w: f64, scale: f64) -> u64 {
    assert!(
        w >= 0.0 && w.is_finite(),
        "weight must be finite and >= 0, got {w}"
    );
    assert!(scale > 0.0, "scale must be positive");
    let q = (w * scale).round();
    if q >= INF as f64 {
        INF - 1
    } else {
        q as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_rounds() {
        assert_eq!(quantize(1.26, 100.0), 126);
        assert_eq!(quantize(0.0, 1000.0), 0);
    }

    #[test]
    fn quantize_saturates_below_inf() {
        assert!(quantize(1e30, 1e9) < INF);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn quantize_rejects_negative() {
        quantize(-1.0, 10.0);
    }
}
