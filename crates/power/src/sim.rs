//! Bit-parallel random-vector logic simulation.
//!
//! A node's waveform is a **row** of `vectors.div_ceil(64)` words, 64
//! vectors per word. A gate's row is computed by its cell's row kernel
//! ([`dvs_celllib::GateFn::eval_rows`]), which runs one logic operation
//! at a time over whole rows and reads the fanin rows in place
//! ([`eval_row_into`]); per-row statistics ([`row_stats`]) count whole
//! words with integer popcounts.
//!
//! The gate evaluation sweep is a **parallel wavefront**: gates are
//! grouped by logic level (as [`dvs_netlist::Levels`] defines it) and
//! each level's rows are evaluated by [`eval_level`] — a row depends only
//! on fanin rows, which a level boundary guarantees are committed. A
//! narrow level is evaluated row by row into one scratch row and
//! committed at once; a wide one runs on the shared [`dvs_pool`] worker
//! pool into one buffer reused across levels, so no row allocates.
//! Results are identical to the sequential topological sweep for any
//! thread count (exact `f64 ==`, same bits): each row is evaluated by the
//! same kernel, rows are committed in level order, and rows within a
//! level are independent by construction.

use dvs_celllib::Library;
use dvs_netlist::{node_level, Network, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Per-net signal statistics from random simulation.
///
/// Indexed by [`NodeId::index`]; sized for the network it was computed on,
/// so re-simulate after structural edits (converter insertion changes the
/// node count — the estimator asserts on size mismatches rather than
/// silently reading stale data).
#[derive(Debug, Clone)]
pub struct Activities {
    pub(crate) vectors: usize,
    pub(crate) p_one: Vec<f64>,
    pub(crate) sw01: Vec<f64>,
}

impl Activities {
    /// Number of random vectors simulated.
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Probability that the node's output is logic 1.
    pub fn one_prob(&self, node: NodeId) -> f64 {
        self.p_one[node.index()]
    }

    /// Average number of 0→1 transitions per clock cycle at the node's
    /// output — the `a01` factor of the paper's Eq. (1).
    pub fn switching(&self, node: NodeId) -> f64 {
        self.sw01[node.index()]
    }

    /// Number of node slots covered (for size checks by consumers).
    pub fn len(&self) -> usize {
        self.sw01.len()
    }

    /// Returns `true` if no node statistics are present.
    pub fn is_empty(&self) -> bool {
        self.sw01.is_empty()
    }
}

/// Simulates `vectors` random input vectors (equiprobable 0/1 per input)
/// and returns per-net activities.
///
/// Deterministic for a given `(network, vectors, seed)` triple.
///
/// # Panics
///
/// Panics if `vectors < 2` (transition counting needs at least two) or if
/// the network contains a combinational cycle.
pub fn simulate(net: &Network, lib: &Library, vectors: usize, seed: u64) -> Activities {
    simulate_jobs(net, lib, vectors, seed, dvs_pool::circuit_jobs())
}

/// [`simulate`] with an explicit wavefront thread count instead of the
/// process-wide [`dvs_pool::circuit_jobs`] width. The result is
/// value-identical for every `jobs` (see the module docs); the parameter
/// only controls how many threads evaluate each level.
///
/// # Panics
///
/// Panics if `vectors < 2` or the network contains a combinational cycle.
pub fn simulate_jobs(
    net: &Network,
    lib: &Library,
    vectors: usize,
    seed: u64,
    jobs: usize,
) -> Activities {
    let probs = vec![0.5; net.primary_input_count()];
    simulate_data(net, lib, vectors, seed, &probs, jobs).acts
}

/// Like [`simulate`] but with an explicit probability of logic 1 for each
/// primary input (in [`Network::primary_inputs`] order) — useful for
/// datapath blocks whose control inputs are strongly biased.
///
/// # Panics
///
/// Panics if `probs.len()` differs from the primary-input count, if any
/// probability is outside `[0, 1]`, or if `vectors < 2`.
pub fn simulate_with_probs(
    net: &Network,
    lib: &Library,
    vectors: usize,
    seed: u64,
    probs: &[f64],
) -> Activities {
    simulate_data(net, lib, vectors, seed, probs, dvs_pool::circuit_jobs()).acts
}

/// Below this many rows a gather level runs sequentially: the scoped
/// thread spawn of one [`dvs_pool::run_indexed`] call costs more than
/// evaluating a narrow level outright. Shared with the incremental
/// engine's per-level refresh batches so both paths flip at the same
/// width. Public so that thread-count tests can check their levels clear
/// it.
pub const PAR_MIN_ROWS: usize = 256;

/// Gates grouped by logic level: every fanin of a gate in wavefront `k`
/// lives in an earlier wavefront (or is a primary input), so all rows of
/// one wavefront can be evaluated concurrently. Within a wavefront, gates
/// appear in topological-order sequence, which keeps the commit order —
/// and therefore every downstream byte — deterministic. Also returns the
/// per-node logic levels the grouping used (0 for dead slots).
pub(crate) fn gate_wavefronts(net: &Network) -> (Vec<Vec<NodeId>>, Vec<u32>) {
    let order = net.topo_order();
    let mut level = vec![0u32; net.node_count()];
    for &id in &order {
        level[id.index()] = node_level(net, &level, id);
    }
    let depth = order.iter().map(|id| level[id.index()]).max().unwrap_or(0);
    let mut fronts: Vec<Vec<NodeId>> = vec![Vec::new(); depth as usize];
    for &id in &order {
        if net.node(id).is_gate() {
            fronts[(level[id.index()].max(1) - 1) as usize].push(id);
        }
    }
    (fronts, level)
}

/// Full simulation result including the raw node-major waveform buffer —
/// the seed state of the incremental engine ([`crate::PowerState`]).
pub(crate) struct SimData {
    /// Machine words per node waveform (`vectors.div_ceil(64)`).
    pub words: usize,
    /// Node-major waveforms: node `i` occupies `values[i*words..(i+1)*words]`.
    pub values: Vec<u64>,
    /// The per-net statistics derived from `values`.
    pub acts: Activities,
    /// Logic level of every node (0 for dead slots).
    pub level: Vec<u32>,
}

/// Evaluates gate `id`'s waveform into `out` (which must hold `words`
/// words), reading its fanins' rows straight from the node-major `values`
/// and running the cell's row kernel ([`dvs_celllib::GateFn::eval_rows`])
/// over them.
///
/// Shared by the from-scratch simulator and the incremental cone resim so
/// both produce bit-identical waveforms for identical fanin rows.
pub(crate) fn eval_row_into(
    net: &Network,
    lib: &Library,
    values: &[u64],
    words: usize,
    id: NodeId,
    out: &mut [u64],
) {
    let node = net.node(id);
    let fanins = node.fanins();
    lib.cell(node.cell())
        .function()
        .eval_rows(|i| &values[fanins[i].index() * words..][..words], out);
}

/// Evaluates one wavefront level of gates and hands row `k` of `level` to
/// `commit(values, k, row)`, in level order. A row reads only the
/// committed rows of earlier levels, so the rows of one level are
/// independent: sequentially each row is evaluated into one scratch row
/// and committed at once; from [`PAR_MIN_ROWS`] rows on, `jobs` pool
/// threads evaluate the whole level into `buf` before the commits. Every
/// byte is the same at any width. `buf` is reused across levels, so no
/// row allocates.
///
/// Records the level's `pool.batch_items` sample (one item per row) at
/// every width.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_level(
    net: &Network,
    lib: &Library,
    values: &mut [u64],
    words: usize,
    level: &[NodeId],
    jobs: usize,
    buf: &mut Vec<u64>,
    mut commit: impl FnMut(&mut [u64], usize, &[u64]),
) {
    let jobs = dvs_pool::effective_jobs(jobs, level.len(), PAR_MIN_ROWS);
    if jobs == 1 {
        dvs_pool::record_batch(level.len());
        buf.resize(words, 0);
        for (k, &id) in level.iter().enumerate() {
            eval_row_into(net, lib, values, words, id, buf);
            commit(values, k, buf);
        }
        return;
    }
    buf.resize(level.len() * words, 0);
    {
        // each item owns its output row behind an uncontended lock, so the
        // workers write disjoint rows of the one buffer
        let items: Vec<(NodeId, Mutex<&mut [u64]>)> = level
            .iter()
            .zip(buf.chunks_exact_mut(words))
            .map(|(&id, out)| (id, Mutex::new(out)))
            .collect();
        let values = &*values;
        dvs_pool::run_indexed(&items, jobs, |_, (id, out)| {
            let mut out = out.lock().expect("a row lock is never poisoned");
            eval_row_into(net, lib, values, words, *id, &mut out);
        });
    }
    for (k, row) in buf.chunks_exact(words).enumerate() {
        commit(values, k, row);
    }
}

/// `(p_one, sw01)` statistics of one node waveform row, masking the tail
/// bits of the last partially used word.
///
/// Shared by the simulator's stats loop and the incremental engine, so
/// both derive bit-identical values from identical rows. The counts are
/// integers: full words are counted without per-word branches and the tail
/// word once.
pub(crate) fn row_stats(row: &[u64], vectors: usize) -> (f64, f64) {
    let (&tail, full) = row.split_last().expect("a waveform row has a word");
    let used = vectors - full.len() * 64;
    let mut ones = 0u64;
    let mut transitions = 0u64;
    // top bit of the previous word: a boundary 0→1 transition needs it 0,
    // and the first word has no predecessor
    let mut prev_top = 1u64;
    for &v in full {
        ones += u64::from(v.count_ones());
        // within-word 0→1 transitions between vector b and b+1 (`v >> 1`
        // clears bit 63, which has no successor in this word)
        transitions += u64::from((!v & (v >> 1)).count_ones());
        transitions += !prev_top & v & 1;
        prev_top = v >> 63;
    }
    let used_mask = !0u64 >> (64 - used);
    let v = tail & used_mask;
    ones += u64::from(v.count_ones());
    // the tail's last used bit has no successor
    let pairs = !v & (v >> 1) & (used_mask >> 1);
    transitions += u64::from(pairs.count_ones());
    transitions += !prev_top & v & 1;
    (
        ones as f64 / vectors as f64,
        transitions as f64 / (vectors - 1) as f64,
    )
}

/// The simulation core behind [`simulate_with_probs`], also returning the
/// waveform buffer.
pub(crate) fn simulate_data(
    net: &Network,
    lib: &Library,
    vectors: usize,
    seed: u64,
    probs: &[f64],
    jobs: usize,
) -> SimData {
    assert!(vectors >= 2, "need at least two vectors, got {vectors}");
    assert_eq!(
        probs.len(),
        net.primary_input_count(),
        "one probability per primary input"
    );
    assert!(
        probs.iter().all(|p| (0.0..=1.0).contains(p)),
        "probabilities must lie in [0, 1]"
    );
    let words = vectors.div_ceil(64);
    let n = net.node_count();
    let mut rng = SmallRng::seed_from_u64(seed);

    // Lay the waveforms out node-major: waveform of node i occupies
    // values[i*words .. (i+1)*words].
    let mut values = vec![0u64; n * words];
    for (pi_ix, &pi) in net.primary_inputs().iter().enumerate() {
        let p = probs[pi_ix];
        let base = pi.index() * words;
        for w in 0..words {
            let word = if (p - 0.5).abs() < f64::EPSILON {
                rng.gen::<u64>()
            } else {
                let mut acc = 0u64;
                for b in 0..64 {
                    if rng.gen::<f64>() < p {
                        acc |= 1 << b;
                    }
                }
                acc
            };
            values[base + w] = word;
        }
    }

    // Wavefront sweep: evaluate each level (reads only committed fanin
    // rows) and commit its rows in level order.
    let (fronts, level) = gate_wavefronts(net);
    let mut buf = Vec::new();
    for front in &fronts {
        eval_level(
            net,
            lib,
            &mut values,
            words,
            front,
            jobs,
            &mut buf,
            |values, k, row| {
                values[front[k].index() * words..][..words].copy_from_slice(row);
            },
        );
    }

    let mut p_one = vec![0.0; n];
    let mut sw01 = vec![0.0; n];
    for id in net.node_ids() {
        let base = id.index() * words;
        let (p, s) = row_stats(&values[base..base + words], vectors);
        p_one[id.index()] = p;
        sw01[id.index()] = s;
    }

    SimData {
        words,
        values,
        acts: Activities {
            vectors,
            p_one,
            sw01,
        },
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    #[test]
    fn input_probability_near_half() {
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g = net.add_gate("g", lib.find("INV").unwrap(), &[a]);
        net.add_output("y", g);
        let acts = simulate(&net, &lib, 4096, 1);
        assert!((acts.one_prob(a) - 0.5).abs() < 0.05);
        // INV output probability is the complement
        assert!((acts.one_prob(g) - (1.0 - acts.one_prob(a))).abs() < 1e-12);
        assert_eq!(acts.vectors(), 4096);
        assert!(!acts.is_empty());
    }

    #[test]
    fn random_stream_switching_near_quarter() {
        // For an i.i.d. 0.5 stream, P(0 then 1) = 1/4 per cycle.
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g = net.add_gate("g", lib.find("BUF").unwrap(), &[a]);
        net.add_output("y", g);
        let acts = simulate(&net, &lib, 16384, 9);
        assert!(
            (acts.switching(a) - 0.25).abs() < 0.02,
            "{}",
            acts.switching(a)
        );
        assert!((acts.switching(g) - acts.switching(a)).abs() < 1e-12);
    }

    #[test]
    fn and_gate_one_prob_near_quarter() {
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate("g", lib.find("AND2").unwrap(), &[a, b]);
        net.add_output("y", g);
        let acts = simulate(&net, &lib, 16384, 3);
        assert!((acts.one_prob(g) - 0.25).abs() < 0.02);
        // AND2: P(0→1) = P(prev != 11) * P(next = 11) = 3/4 * 1/4 under iid
        assert!((acts.switching(g) - 0.1875).abs() < 0.02);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate("g", lib.find("XOR2").unwrap(), &[a, b]);
        net.add_output("y", g);
        let a1 = simulate(&net, &lib, 512, 42);
        let a2 = simulate(&net, &lib, 512, 42);
        for id in net.node_ids() {
            assert_eq!(a1.switching(id), a2.switching(id));
            assert_eq!(a1.one_prob(id), a2.one_prob(id));
        }
        let a3 = simulate(&net, &lib, 512, 43);
        assert!(net
            .node_ids()
            .any(|id| a1.switching(id) != a3.switching(id)));
    }

    #[test]
    fn biased_inputs_respected() {
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g = net.add_gate("g", lib.find("BUF").unwrap(), &[a]);
        net.add_output("y", g);
        let acts = simulate_with_probs(&net, &lib, 8192, 5, &[0.9]);
        assert!(acts.one_prob(a) > 0.85);
        // switching P(0→1) = 0.1 * 0.9 = 0.09
        assert!((acts.switching(g) - 0.09).abs() < 0.02);
    }

    #[test]
    fn non_multiple_of_64_vector_counts() {
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g = net.add_gate("g", lib.find("INV").unwrap(), &[a]);
        net.add_output("y", g);
        for vectors in [2, 63, 64, 65, 100, 129] {
            let acts = simulate(&net, &lib, vectors, 11);
            assert!(acts.one_prob(a) >= 0.0 && acts.one_prob(a) <= 1.0);
            assert!(acts.switching(g) >= 0.0 && acts.switching(g) <= 1.0);
        }
    }

    #[test]
    fn row_stats_matches_a_per_vector_count() {
        let mut rng = SmallRng::seed_from_u64(3);
        for vectors in [2usize, 63, 64, 65, 100, 129, 4096] {
            for _ in 0..8 {
                // random tail bits past `vectors` must be ignored
                let row: Vec<u64> = (0..vectors.div_ceil(64)).map(|_| rng.gen()).collect();
                let bit = |v: usize| row[v / 64] >> (v % 64) & 1 == 1;
                let ones = (0..vectors).filter(|&v| bit(v)).count();
                let rises = (1..vectors).filter(|&v| !bit(v - 1) && bit(v)).count();
                let (p, s) = row_stats(&row, vectors);
                assert_eq!(p, ones as f64 / vectors as f64, "p_one at {vectors}");
                assert_eq!(s, rises as f64 / (vectors - 1) as f64, "sw01 at {vectors}");
            }
        }
    }

    #[test]
    fn constant_zero_prob_input() {
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g = net.add_gate("g", lib.find("BUF").unwrap(), &[a]);
        net.add_output("y", g);
        let acts = simulate_with_probs(&net, &lib, 1024, 5, &[0.0]);
        assert_eq!(acts.one_prob(g), 0.0);
        assert_eq!(acts.switching(g), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two vectors")]
    fn rejects_tiny_vector_count() {
        let lib = lib();
        let mut net = Network::new("p");
        let _ = net.add_input("a");
        simulate(&net, &lib, 1, 0);
    }

    #[test]
    fn converter_inherits_driver_activity() {
        let lib = lib();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g = net.add_gate("g", lib.find("INV").unwrap(), &[a]);
        let s = net.add_gate("s", lib.find("INV").unwrap(), &[g]);
        net.add_output("y", s);
        let conv = net
            .insert_converter(g, &[s], false, lib.converter())
            .unwrap();
        let acts = simulate(&net, &lib, 2048, 17);
        assert_eq!(acts.switching(conv), acts.switching(g));
        assert_eq!(acts.one_prob(conv), acts.one_prob(g));
    }
}
