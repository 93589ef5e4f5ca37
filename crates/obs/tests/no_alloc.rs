//! Enforces the disabled-path cost contract from the crate docs: with no
//! subscriber installed, the recording entry points perform **zero heap
//! allocations** (and invoke no lazy closures). A counting global
//! allocator measures the hot loop directly.
//!
//! This binary must never install a subscriber — the contract test relies
//! on the process-global disabled state. Subscriber-installing tests live
//! in the other integration binaries and the library's own unit tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Test fns run on parallel threads; the counter is thread-local but the
/// assertions still serialize so neither test's allocations interleave
/// with the other's reasoning about global state.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn the_counting_allocator_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = alloc_calls();
    let v: Vec<u64> = Vec::with_capacity(32);
    std::hint::black_box(&v);
    assert!(alloc_calls() > before, "allocator wrapper sees no allocs");
}

#[test]
fn disabled_path_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        dvs_obs::set_subscriber(None).is_none(),
        "this test binary must stay subscriber-free"
    );

    // Warm-up outside the measured window (TLS init, lazy statics).
    {
        let _g = dvs_obs::span("warmup");
        dvs_obs::hist_record("warmup", 1);
    }

    let before = alloc_calls();
    for i in 0..1000u64 {
        {
            let _g = dvs_obs::span("phase");
            let _h = dvs_obs::span_with("iter", || format!("detail {i}"));
            dvs_obs::hist_record("sta.events_per_change", i);
            dvs_obs::attr_add("sta.events", || format!("gate-{i}"), i);
            dvs_obs::instant("gscale.stop", || format!("iter {i}: stop"));
        }
        dvs_obs::set_thread_label(|| format!("worker-{i}"));
    }
    let after = alloc_calls();
    assert_eq!(
        after - before,
        0,
        "disabled observability path allocated {} times",
        after - before
    );
}
