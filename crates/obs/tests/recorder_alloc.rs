//! The enabled-path allocation contract: with a [`Recorder`] installed,
//! counters and attribution to an already-recorded site perform **zero
//! heap allocations** — a borrowed site name is looked up, not copied. A
//! counting global allocator measures the hot loop directly.
//!
//! This binary installs a subscriber, so it is kept apart from
//! `no_alloc.rs`, which relies on the process-global disabled state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dvs_obs::Recorder;

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

/// The only test in this binary, so nothing else races the global
/// subscriber slot.
#[test]
fn recorded_sites_and_counters_allocate_nothing() {
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    let mark = rec.mark();

    // First records create the thread's sink, its TLS context, the map
    // entries and the site's owned name.
    dvs_obs::attr_add("sta.events", || "g7", 1);
    dvs_obs::counter_add("sta.edits", 1);

    let before = alloc_calls();
    for i in 0..1000u64 {
        dvs_obs::attr_add("sta.events", || "g7", i);
        dvs_obs::counter_add("sta.edits", 1);
    }
    let allocs = alloc_calls() - before;

    let roll = rec.rollup_since(&mark);
    dvs_obs::set_subscriber(None);
    assert_eq!(
        allocs, 0,
        "recorded attribution/counter path allocated {allocs} times"
    );
    assert_eq!(roll.counters, vec![("sta.edits".to_string(), 1001)]);
    let sta = &roll.attrs[0];
    assert_eq!((sta.sites, sta.count), (1, 1001));
    assert_eq!(sta.sum, 1 + (0..1000).sum::<u64>());
}
