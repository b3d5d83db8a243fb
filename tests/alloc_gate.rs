//! Allocation gates: counts and bytes, not timings, so they read the
//! same on a loaded host. A fleet's names cost allocations per *table*,
//! not per name, a simulated run holds a bounded number of bytes per
//! machine at its peak, and a repository a bounded number per record.
//! Their own test binary because it installs a counting global
//! allocator; the tests take turns ([`exclusive`]), so nothing else
//! allocates while one of them counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mirage::core::{GuardSettings, ProtocolChoice, RolloutStrategy};
use mirage::deploy::Protocol;
use mirage::report::{
    DurableConfig, DurableUrr, InternedOutcome, InternedReport, MemoryStore, Urr,
};
use mirage::sim::{FaultSpec, Scenario, ScenarioBuilder, Simulation};
use mirage_telemetry::Telemetry;

/// The system allocator, counting every allocation and reallocation and
/// the bytes live at any moment.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since [`peak_bytes`] last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s
        // own.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Holds every other test of this binary off while one counts.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations `work` performs (its result is dropped after the count).
fn allocations<T>(work: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    count
}

/// The most bytes `work` held live at once, its result included (which
/// is dropped after the count).
fn peak_bytes<T>(work: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = work();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(out);
    peak
}

#[test]
fn name_tables_allocate_per_table_not_per_name() {
    let _turn = exclusive();
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

/// Machines per gated run: 100 clusters of 1 000.
const FLEET: usize = 100_000;

/// Peak bytes per machine of the faulted run. It reads 99.7: 32 bytes
/// of vendor-side columns (pass and revert times, the awaited
/// notification, the machine's fault RNG lane), the rest the
/// repository's 16-byte rows, the journal's segments and the queue.
/// With 24-byte repository records it read 104.7; with 84 bytes of
/// columns as well (16-byte times, a 12-byte awaited pair, a 24-byte
/// churn table beside a plan without churn, a ref table that is the
/// identity, a cluster table the plan already answers) it read 157.3.
const FAULTED_BOUND: f64 = 115.0;

/// Peak bytes per machine of the Balanced run: 25.3 with 8-byte pass
/// times, 33.3 with 16-byte ones.
const BALANCED_BOUND: f64 = 29.0;

/// Peak bytes per machine of one `Simulation::run` of `scenario` under
/// `protocol`. The scenario and the protocol are built before the
/// count; the run's queue, buffers, columns, deposits and metrics are
/// inside it.
fn run_bytes_per_machine(scenario: &Scenario, protocol: &mut dyn Protocol) -> f64 {
    let bytes = peak_bytes(|| Simulation::new(scenario).run(protocol));
    bytes as f64 / FLEET as f64
}

/// A simulated run's per-run state is sized by what the run uses: pass
/// and revert times in 8-byte columns, the awaited notification packed
/// in 8 bytes, no churn table for a plan without churn, no ref table for
/// a fleet the repository adopted and no cluster table beside the plan.
/// Bytes, not milliseconds.
#[test]
fn simulated_runs_hold_bounded_bytes_per_machine() {
    let _turn = exclusive();
    // The `sim_rollback` campaign at a tenth of its fleet: a regression
    // everywhere over a lossy, duplicating, delaying channel; rolling
    // batches, a guard that trips, a revert wave, journaled deposits.
    let everywhere: Vec<usize> = (0..100).collect();
    let durable = DurableUrr::new(Box::new(MemoryStore::new()), DurableConfig::default())
        .expect("the memory store cannot fail");
    let rollback = ScenarioBuilder::new()
        .clusters(100, FLEET / 100, 1)
        .with_strategy(RolloutStrategy::Rolling {
            batch_size: FLEET / 10,
        })
        .problem_in_clusters("fleet-regression", &everywhere)
        .faults(FaultSpec::new(1).loss(0.20).duplication(0.10).delay(10))
        .with_durable_urr(Arc::new(durable))
        .with_guard(GuardSettings {
            max_cluster_failure_rate: 0.3,
            max_failure_population: 50,
            min_reports: 5,
            unhealthy_ticks: 2,
            healthy_ticks: 1,
        })
        .build();
    let mut controller = rollback.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
    let faulted = run_bytes_per_machine(&rollback, &mut controller);
    assert!(
        controller.outcome().rollback.is_some(),
        "the guard rolls back"
    );
    // A good release on the reliable channel under Balanced: the
    // all-pass fast path.
    let balanced = ScenarioBuilder::new().clusters(100, FLEET / 100, 1).build();
    let mut protocol = ProtocolChoice::Balanced.build(balanced.plan.clone(), 1.0);
    let fast = run_bytes_per_machine(&balanced, &mut protocol);
    assert!(protocol.done(), "the Balanced run completes");
    assert!(
        faulted < FAULTED_BOUND,
        "a faulted, guarded, journaled run peaked at {faulted:.1} bytes per machine"
    );
    assert!(
        fast < BALANCED_BOUND,
        "a Balanced run peaked at {fast:.1} bytes per machine"
    );
}

/// Records per gated ingest, one a machine, deposited in batches of the
/// simulator's flush size.
const RECORDS: usize = 100_000;
const BATCH: usize = 4_096;

/// Peak bytes per record of an interned ingest into a fresh [`Urr`]. It
/// reads 32.0: the 16-byte rows, their buffer growing by doubling (the
/// old and the new buffer live at once). With 24-byte records, the
/// payload an inline `Option<Box<_>>`, it read 47.6.
const INGEST_BOUND: f64 = 36.0;

/// Peak bytes per record of a journaled ingest into a [`DurableUrr`]
/// over a [`MemoryStore`], and the recovery of a second repository from
/// the store's image beside it: the live rows, the WAL (17 bytes a
/// record and the names' delta), the recovered names and rows. It reads
/// 108.4; with 24-byte records, lowered into a fresh vector for every
/// journaled batch and every replayed frame, it read 134.9.
const JOURNALED_BOUND: f64 = 118.0;

/// `RECORDS` reports from `RECORDS` machines interned into `urr`: every
/// tenth a failure, the rest successes, over 100 clusters.
fn interned_records(urr: &Urr) -> Vec<InternedReport> {
    let names: Vec<String> = (0..RECORDS).map(|i| format!("m{i:07}")).collect();
    let machines = urr.intern_machines(names.iter().map(String::as_str));
    let release = urr.intern_release("upgrade", "r1");
    let sig = urr.intern_signature("fleet-regression");
    (machines.into_iter().enumerate())
        .map(|(i, machine)| InternedReport {
            machine,
            cluster: (i % 100) as u32,
            release,
            outcome: if i % 10 == 0 {
                InternedOutcome::Failure(sig)
            } else {
                InternedOutcome::Success
            },
        })
        .collect()
}

/// A repository holds a report in a 16-byte row of ids, its rare
/// payload beside the rows, and journaled ingest and recovery move rows:
/// the peak live bytes per record of an interned ingest, and of a
/// journaled one with the recovery of its store's image, are bounded.
/// The names are interned before the count, except the ones recovery
/// interns again.
#[test]
fn urr_ingest_holds_bounded_bytes_per_record() {
    let _turn = exclusive();
    let urr = Urr::new();
    let recs = interned_records(&urr);
    let ingest = peak_bytes(|| {
        for batch in recs.chunks(BATCH) {
            urr.deposit_interned_batch(batch);
        }
    }) as f64
        / RECORDS as f64;
    assert_eq!(urr.stats().total, RECORDS);

    let store = MemoryStore::new();
    let durable = DurableUrr::new(Box::new(store.clone()), DurableConfig::default())
        .expect("the memory store cannot fail");
    assert_eq!(interned_records(durable.urr()), recs);
    let journaled = peak_bytes(|| {
        for batch in recs.chunks(BATCH) {
            durable.deposit_interned_batch(batch).expect("memory store");
        }
        DurableUrr::recover(Box::new(store.fork()), DurableConfig::default())
            .expect("the memory store cannot fail")
    }) as f64
        / RECORDS as f64;
    assert!(
        ingest < INGEST_BOUND,
        "an interned ingest peaked at {ingest:.1} bytes per record"
    );
    assert!(
        journaled < JOURNALED_BOUND,
        "a journaled ingest and its recovery peaked at {journaled:.1} bytes per record"
    );
}
