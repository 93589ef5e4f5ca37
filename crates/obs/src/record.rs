//! Record types delivered to [`Subscriber`](crate::Subscriber)s and the
//! fixed log-bucket histogram every recorder aggregates into.

/// A completed hierarchical span, delivered on guard drop.
///
/// `enter_seq`/`exit_seq` are per-thread monotone sequence numbers taken
/// at span entry and exit, so "does span A lie inside span B" is the
/// exact integer test `B.enter_seq < A.enter_seq && A.exit_seq <
/// B.exit_seq` on the same `tid` — no timestamp comparisons, no
/// clock-granularity ties.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Observability thread id (process-unique, assigned on first use).
    pub tid: u32,
    /// Per-thread sequence number taken at span entry.
    pub enter_seq: u64,
    /// Per-thread sequence number taken at span exit.
    pub exit_seq: u64,
    /// `enter_seq` of the innermost enclosing span on the same thread.
    pub parent_enter_seq: Option<u64>,
    /// Nesting depth at entry (0 = top level).
    pub depth: u32,
    /// Static span name, e.g. `"gscale"` or `"scenario"`.
    pub name: &'static str,
    /// Optional dynamic detail (scenario id, circuit name). Only built
    /// when a subscriber is installed — see [`crate::span_with`].
    pub detail: Option<String>,
    /// Entry timestamp on the shared [`crate::wall_ns`] timeline.
    pub start_ns: u64,
    /// Wall duration, ns.
    pub dur_ns: u64,
    /// On-CPU nanoseconds the owning thread spent inside the span: the
    /// movement of [`crate::thread_cpu_raw_ns`], the same clock
    /// [`crate::CpuTimer`] reads. 0 where the platform offers no thread
    /// clock.
    pub cpu_ns: u64,
}

/// A point-in-time structured event (the old `DVS_TRACE` lines).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRecord {
    /// Observability thread id.
    pub tid: u32,
    /// Timestamp on the shared [`crate::wall_ns`] timeline.
    pub t_ns: u64,
    /// Static event name, e.g. `"gscale.iteration"`.
    pub name: &'static str,
    /// Rendered event text (lazily built, subscriber-only).
    pub text: String,
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `k`
/// (`1 ..= 64`) holds values in `[2^(k-1), 2^k - 1]`, so `u64::MAX` lands
/// in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// Maps a value to its log-2 bucket index. Total and monotone over `u64`:
/// `0 → 0`, `1 → 1`, `2..=3 → 2`, …, `u64::MAX → 64`.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower bound of a bucket (0 for buckets 0 and 1).
#[must_use]
pub fn bucket_lo(bucket: usize) -> u64 {
    match bucket {
        0 | 1 => 0,
        k => 1u64 << (k - 1),
    }
}

/// A fixed log-bucket histogram over `u64` samples.
///
/// Bucket boundaries are powers of two ([`bucket_of`]), so recording is
/// one `leading_zeros` plus an array bump — no allocation after
/// construction, no configuration to disagree about between producers.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts, indexed by [`bucket_of`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Merges another histogram into this one (bucket-wise sums).
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// `(bucket index, count)` pairs for the non-empty buckets.
    #[must_use]
    pub fn sparse(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of((1 << 32) - 1), 32);
        assert_eq!(bucket_of(1 << 32), 33);
        assert_eq!(bucket_of(u64::MAX / 2), 63);
        assert_eq!(bucket_of(u64::MAX / 2 + 1), 64);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn every_power_of_two_starts_a_bucket() {
        for k in 0..64u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_of(v), (k + 1) as usize, "2^{k}");
            if v > 1 {
                assert_eq!(bucket_of(v - 1), k as usize, "2^{k}-1");
            }
            assert_eq!(bucket_lo((k + 1) as usize), v.max(1) >> u32::from(k == 0));
        }
    }

    #[test]
    fn hist_records_extremes_without_overflow() {
        let mut h = Hist::default();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates instead of wrapping
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[64], 2);
        assert_eq!(h.sparse(), vec![(0, 1), (64, 2)]);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = Hist::default();
        a.record(3);
        a.record(100);
        let mut b = Hist::default();
        b.record(0);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 100);
        assert_eq!(a.buckets[bucket_of(3)], 2);
        assert_eq!(a.buckets[0], 1);
    }
}
