//! Per-thread CPU clocks for honest `CPU` columns under parallelism.
//!
//! Table 1 reports CPU seconds. Sequentially, wall time of one algorithm
//! run is a fine proxy; on a loaded worker pool it is not — a thread that
//! sits descheduled while siblings hog the cores would report inflated
//! times, and a multi-job sweep would disagree with the sequential
//! baseline. [`CpuTimer`] therefore charges only the time *this thread*
//! actually spent on a CPU.
//!
//! ## Precision contract
//!
//! [`thread_cpu_raw_ns`] is the one thread-CPU source: on Linux x86-64 it
//! issues `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` as a raw syscall (no
//! libc binding needed). The reading has nanosecond resolution *including
//! the currently running timeslice* — the kernel adds the time since the
//! last scheduler update at read time — so even sub-millisecond phases
//! report non-zero CPU. Spans, sweep rows and the Table 1 columns all read
//! it.
//!
//! Everywhere else it returns `None`, and [`CpuTimer`] falls back to the
//! monotonic wall clock, which also bills descheduled time. That is the
//! one fallback; span `cpu_ns` fields read 0 there.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Monotonic nanoseconds since the first observability clock read of this
/// process — the common timeline all span timestamps share, so events from
/// different threads land on one trace axis.
///
/// The epoch is pinned lazily by the first caller; every later reading is
/// `Instant`-monotonic against it.
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// This thread's cumulative on-CPU time in nanoseconds, or `None` off
/// Linux x86-64 (see the module-level *precision contract*).
///
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` is issued as a direct syscall
/// so the std-only crate needs no libc binding: the one place the crate
/// opts back into `unsafe`, a single `syscall` instruction writing a
/// 16-byte `timespec` to a stack buffer we own. The syscall cannot fail
/// for a valid clock id and pointer, but a nonzero return still reads as
/// `None`.
#[allow(unsafe_code)]
pub fn thread_cpu_raw_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_CLOCK_GETTIME: i64 = 228;
        const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
        let mut ts = [0i64; 2]; // timespec: tv_sec, tv_nsec
        let ret: i64;
        // SAFETY: SYS_clock_gettime only writes 16 bytes through rsi,
        // which points at `ts`, a live stack buffer of exactly that size;
        // rcx/r11 are declared clobbered as the syscall ABI requires.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        (ret == 0).then(|| {
            (ts[0] as u64)
                .saturating_mul(1_000_000_000)
                .saturating_add(ts[1] as u64)
        })
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
    }
}

/// A started clock measuring CPU time consumed by the calling thread.
///
/// Start and stop on the *same* thread — the thread-CPU clock is
/// per-thread, so an elapsed read from another thread would subtract
/// unrelated counters. (With the wall-clock fallback the reading is
/// thread-independent but includes descheduled time.)
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer {
    cpu_start: Option<u64>,
    wall_start: Instant,
}

impl CpuTimer {
    /// Starts a timer on the calling thread.
    pub fn start() -> Self {
        CpuTimer {
            cpu_start: thread_cpu_raw_ns(),
            wall_start: Instant::now(),
        }
    }

    /// CPU time this thread consumed since [`CpuTimer::start`], falling
    /// back to elapsed wall time when no thread clock is available.
    pub fn elapsed(&self) -> Duration {
        match (self.cpu_start, thread_cpu_raw_ns()) {
            (Some(start), Some(now)) => Duration::from_nanos(now.saturating_sub(start)),
            _ => self.wall_start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_ns_is_monotone() {
        let a = wall_ns();
        let b = wall_ns();
        std::thread::sleep(Duration::from_millis(2));
        let c = wall_ns();
        assert!(a <= b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn busy_loop_accumulates_cpu_time() {
        let t = CpuTimer::start();
        // spin long enough to cross scheduler accounting granularity
        let mut acc = 0u64;
        while t.wall_start.elapsed() < Duration::from_millis(30) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let cpu = t.elapsed();
        assert!(cpu > Duration::ZERO, "spin charged no CPU time");
        // a pure spin's CPU time cannot exceed wall time by more than
        // clock granularity
        assert!(cpu <= t.wall_start.elapsed() + Duration::from_millis(20));
    }

    /// The syscall source resolves sub-tick work: a ~200 µs spin (far
    /// below a 1–10 ms scheduler tick) must read as nonzero CPU through
    /// the public timer. Only meaningful where the syscall path exists.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn sub_tick_spin_reads_nonzero_cpu() {
        let t = CpuTimer::start();
        let mut acc = 1u64;
        while t.wall_start.elapsed() < Duration::from_micros(200) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        assert!(
            t.elapsed() > Duration::ZERO,
            "200µs spin read as 0 ns of thread CPU"
        );
    }

    #[test]
    fn sleeping_is_not_charged_when_thread_clock_exists() {
        if thread_cpu_raw_ns().is_none() {
            return; // wall fallback: nothing to assert
        }
        let t = CpuTimer::start();
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            t.elapsed() < Duration::from_millis(50),
            "sleep was billed as CPU time: {:?}",
            t.elapsed()
        );
    }
}
