//! Allocation-count gate for the name tables: a fleet's names cost
//! allocations per *table*, not per name. A count, not a timing, so it
//! reads the same on a loaded host. Its own test binary because it
//! installs a counting global allocator, and one test so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mirage::report::Urr;
use mirage::sim::ScenarioBuilder;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `work` performs (its result is dropped after the count).
fn allocations<T>(work: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    count
}

#[test]
fn name_tables_allocate_per_table_not_per_name() {
    // 1 000 000 synthetic machines: the plan is 100 member lists and
    // one name table.
    let build = allocations(|| ScenarioBuilder::new().clusters(100, 10_000, 1).build());
    assert!(
        build < 10_000,
        "building a 1M-machine scenario allocated {build} times"
    );

    // 500 000 reported names, in order (the table is its own index) and
    // shuffled (the table is hashed): both grow a handful of vectors.
    let mut names: Vec<String> = (0..500_000).map(|i| format!("m{i:07}")).collect();
    let ascending = allocations(|| Urr::new().intern_machines(names.iter().map(String::as_str)));
    assert!(
        ascending < 1_000,
        "interning 500k ascending names allocated {ascending} times"
    );
    let mut x = 0x5eed_0023_u64;
    for i in (1..names.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        names.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let shuffled = allocations(|| Urr::new().intern_machines(names.iter().map(String::as_str)));
    assert!(
        shuffled < 1_000,
        "interning 500k shuffled names allocated {shuffled} times"
    );
}
