//! Sharded time-bucket parallel simulation driver.
//!
//! The sequential [`Simulation`] processes one event at a time off a
//! single calendar queue. This driver runs the same vendor side
//! (`vendor.rs`) over a different schedule: the [`MachineId`]
//! space is sharded across `workers` shards
//! (`machine.index() % workers`), every scheduled event is stamped with
//! a global sequence number, and every time bucket is split into two
//! phases:
//!
//! - **Phase A (shard-local, parallelizable):** each shard drains its
//!   own calendar queue's bucket of `TestDone` records and computes the
//!   *pure* part of each: pass/escape outcome (reads only the
//!   append-only `fixed_by_release` history, which same-time events
//!   cannot change for already-scheduled releases) and, under a fault
//!   plan, the machine's up-link fault draws from its own strided RNG
//!   lane (per-machine streams, so draw order depends only on that
//!   machine's event order — never on cross-shard interleaving). When
//!   the process has more than one core and the bucket is large, shards
//!   run under [`std::thread::scope`]; otherwise inline. Either way the
//!   records produced are identical.
//! - **Phase B (coordinator, sequential):** shard records and
//!   coordinator events (fixes, report deliveries, retries, ticks) are
//!   merged by sequence number and handed to the vendor side in exactly
//!   the order the sequential driver would have popped them. Within a
//!   merged bucket, maximal runs of passing reliable-channel records
//!   collapse through [`Protocol::absorb_passes`], and a bucket that is
//!   *all* passes with no observers attached (no flight events, no
//!   journal, no URR, no faults) skips the merge entirely via the
//!   order-free [`Protocol::absorb_pass_batch`].
//!
//! Because sequence numbers are assigned at scheduling time by a single
//! monotone counter and the sequential queue is FIFO within a
//! timestamp, "merge by sequence number" reproduces the sequential
//! processing order exactly — the two drivers are bit-identical in
//! [`SimMetrics`], journal contents, flight events, and counter/gauge
//! totals at any worker count (counter *increments* may batch on the
//! fast path; their sums are identical).
//!
//! [`SimArena`] owns every queue and scratch buffer so sweep drivers
//! re-running many configurations reuse allocations across runs.

use mirage_deploy::{MachineId, MachineSet, ProblemId, ProblemSet, Protocol, Release, TestOutcome};
use mirage_telemetry::journal::{JournalEvent, NO_PROBLEM};
use mirage_telemetry::{FlightEvent, Telemetry};

use crate::engine::{Event, EventQueue, SimTime};
use crate::faults::{FaultPlan, RngLanes};
use crate::metrics::SimMetrics;
use crate::runner::Simulation;
use crate::scenario::Scenario;
use crate::vendor::{Lent, Schedule, Transmission, VendorSide};

/// Hard ceiling on the shard count. Shards beyond the fleet size add
/// pure overhead, and determinism does not require more.
pub const MAX_WORKERS: usize = 64;

/// Minimum bucket size (records) before Phase A fans out onto OS
/// threads; smaller buckets compute inline — thread launch would cost
/// more than the work.
const PAR_COMPUTE_MIN: usize = 4_096;

/// A `TestDone` event in a shard's calendar queue, stamped with the
/// global schedule sequence number that fixes its replay position.
#[derive(Debug, Clone, Copy)]
struct ShardTest {
    seq: u64,
    machine: MachineId,
    release: u32,
}

/// A shard-computed test record: the outcome plus (under faults) the
/// machine's precomputed up-link fault draws, ready for ordered replay.
#[derive(Debug, Clone, Copy)]
struct TestRec {
    seq: u64,
    machine: MachineId,
    release: u32,
    passed: bool,
    escaped: bool,
    uplink: Option<Transmission>,
}

/// One machine shard: its calendar queue, drain scratch, and (under
/// faults) the strided per-machine RNG lanes it owns.
#[derive(Debug)]
struct Shard {
    queue: EventQueue<ShardTest>,
    raw: Vec<ShardTest>,
    lanes: RngLanes,
}

/// Reusable state for [`run_parallel_in`]: every queue and scratch
/// buffer the parallel driver needs, kept allocated across runs so
/// sweep grids pay allocation cost once.
#[derive(Debug, Default)]
pub struct SimArena {
    shards: Vec<Shard>,
    rec_bufs: Vec<Vec<TestRec>>,
    coord: EventQueue<(u64, Event)>,
    coord_buf: Vec<(u64, Event)>,
    /// Master time index: one notification per scheduled event, tagged
    /// with the owning shard (or the coordinator sentinel `workers`).
    /// Because it sees *every* schedule, its cursor is exactly the
    /// global simulation time — shard queues are then only drained when
    /// this queue proves they hold events at the current bucket, which
    /// keeps every shard cursor at (not beyond) global time and makes
    /// replay-time scheduling always legal.
    due: EventQueue<u8>,
    due_buf: Vec<u8>,
    due_flags: Vec<bool>,
    /// Last future time each queue was notified for: consecutive
    /// schedules onto the same queue at the same (still-pending) time
    /// need only one master-index entry.
    due_mark: Vec<SimTime>,
    escape_buf: Vec<u64>,
    fail_buf: Vec<ShardTest>,
    pairs: Vec<(MachineId, Release)>,
    run_buf: Vec<TestRec>,
    heads: Vec<usize>,
    /// The vendor side's per-run buffers, lent for each run.
    lent: Lent,
}

impl SimArena {
    /// Creates an empty arena. Buffers grow on first use and are
    /// retained across runs.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Resets the arena for a fresh run over `scenario` at `workers`
    /// shards, reusing every allocation whose shape still fits.
    fn prepare(&mut self, scenario: &Scenario, workers: usize) {
        // Lanes are strided so shard `s` owns exactly the machines with
        // `index % workers == s`, and local lane `i` maps back to the
        // same global lane id (`i * workers + s == machine index`) the
        // sequential driver uses — per-machine streams are identical.
        let lanes_per_shard = if scenario.faults.is_none() {
            0
        } else {
            scenario.machine_count().div_ceil(workers)
        };
        if self.shards.len() != workers {
            self.shards.clear();
            self.rec_bufs.clear();
            for s in 0..workers {
                self.shards.push(Shard {
                    queue: EventQueue::new(),
                    raw: Vec::new(),
                    lanes: RngLanes::strided(
                        scenario.faults.seed,
                        lanes_per_shard,
                        workers as u64,
                        s as u64,
                    ),
                });
                self.rec_bufs.push(Vec::new());
            }
        } else {
            for (s, shard) in self.shards.iter_mut().enumerate() {
                shard.queue.reset();
                shard.raw.clear();
                shard.lanes.reset(
                    scenario.faults.seed,
                    lanes_per_shard,
                    workers as u64,
                    s as u64,
                );
            }
            for buf in &mut self.rec_bufs {
                buf.clear();
            }
        }
        self.coord.reset();
        self.coord_buf.clear();
        self.due.reset();
        self.due_buf.clear();
        self.due_flags.clear();
        self.due_flags.resize(workers + 1, false);
        self.due_mark.clear();
        self.due_mark.resize(workers + 1, SimTime::MAX);
        self.escape_buf.clear();
        self.fail_buf.clear();
        self.pairs.clear();
        self.run_buf.clear();
        self.heads.clear();
        self.heads.resize(workers, 0);
    }
}

/// Phase A: computes outcome (and fault draws) for every drained record
/// of one shard. Pure with respect to coordinator state: reads only the
/// scenario's static maps and the append-only release history.
fn compute_shard(
    shard: &mut Shard,
    out: &mut Vec<TestRec>,
    machine_problem: &[Option<ProblemId>],
    missed: &MachineSet,
    fixed: &[ProblemSet],
    faults: Option<&FaultPlan>,
    workers: usize,
) {
    for &ShardTest {
        seq,
        machine,
        release,
    } in &shard.raw
    {
        let mut passed = match machine_problem[machine.index()] {
            None => true,
            Some(problem) => fixed[release as usize].contains(problem),
        };
        let mut escaped = false;
        if !passed && missed.contains(machine) {
            passed = true;
            escaped = true;
        }
        // The machine's own up-link lane: the draws the sequential
        // driver makes when it pops this test, made ahead of replay.
        let uplink = faults
            .map(|faults| Transmission::draw(shard.lanes.lane(machine.index() / workers), faults));
        out.push(TestRec {
            seq,
            machine,
            release,
            passed,
            escaped,
            uplink,
        });
    }
}

/// Where the next in-order item of a merged bucket comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Shard(usize),
    Coord,
    Done,
}

/// The `(workers + 1)`-way merge cursor: picks the pending record or
/// coordinator event with the smallest sequence number.
fn next_source(
    rec_bufs: &[Vec<TestRec>],
    heads: &[usize],
    coord_buf: &[(u64, Event)],
    chead: usize,
) -> Source {
    let mut best = Source::Done;
    let mut best_seq = u64::MAX;
    for (s, out) in rec_bufs.iter().enumerate() {
        if let Some(rec) = out.get(heads[s]) {
            if rec.seq < best_seq {
                best_seq = rec.seq;
                best = Source::Shard(s);
            }
        }
    }
    if let Some(&(seq, _)) = coord_buf.get(chead) {
        if seq < best_seq {
            best = Source::Coord;
        }
    }
    best
}

/// The parallel driver's schedule: per-shard test queues, the
/// coordinator's vendor-event queue, and the master index that orders
/// them.
struct ShardQueues<'a> {
    arena: &'a mut SimArena,
    workers: usize,
    /// Time of the bucket being replayed (the master index's cursor).
    now: SimTime,
    /// Global schedule sequence counter: every scheduled event (shard or
    /// coordinator) takes the next value, reproducing the sequential
    /// queue's FIFO-within-timestamp order under merge.
    seq: u64,
    /// Total pending events across all queues — the sequential driver's
    /// `queue.len()`, maintained incrementally so the queue-depth gauge
    /// trajectory matches exactly.
    virtual_len: usize,
}

impl ShardQueues<'_> {
    /// Counts one event onto `queue` (a shard, or `workers` for the
    /// coordinator) at `time`, makes sure the master index will visit
    /// it there, and returns the event's sequence number.
    fn stamp(&mut self, queue: usize, time: SimTime) -> u64 {
        // One master-index entry per (queue, future time) suffices; a
        // mark at a strictly future time is guaranteed still pending.
        if time <= self.now || self.arena.due_mark[queue] != time {
            self.arena.due.schedule(time, queue as u8);
            self.arena.due_mark[queue] = time;
        }
        self.virtual_len += 1;
        self.seq += 1;
        self.seq - 1
    }
}

impl Schedule for ShardQueues<'_> {
    #[inline]
    fn test(&mut self, time: SimTime, machine: MachineId, release: u32) {
        let shard = machine.index() % self.workers;
        let seq = self.stamp(shard, time);
        self.arena.shards[shard].queue.schedule(
            time,
            ShardTest {
                seq,
                machine,
                release,
            },
        );
    }

    #[inline]
    fn vendor(&mut self, time: SimTime, event: Event) {
        let seq = self.stamp(self.workers, time);
        self.arena.coord.schedule(time, (seq, event));
    }

    fn pending(&self) -> usize {
        self.virtual_len
    }
}

/// The parallel driver: the vendor side over [`ShardQueues`], plus the
/// bucket machinery that replays merged buckets in sequential order.
struct ParSim<'s, 'a> {
    vendor: VendorSide<'s, ShardQueues<'a>>,
    /// OS-level parallelism available for Phase A (1 on a single-core
    /// host: sharding still pays via batch absorption, honestly inline).
    threads: usize,
    /// No observers that are sensitive to per-event order (flight
    /// events, journal, URR) and no faults: all-pass buckets may take
    /// the order-free batch path.
    plain: bool,
}

impl<'s, 'a> ParSim<'s, 'a> {
    fn new(
        arena: &'a mut SimArena,
        scenario: &'s Scenario,
        telemetry: Telemetry,
        workers: usize,
    ) -> Self {
        arena.prepare(scenario, workers);
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(workers);
        let plain = scenario.faults.is_none()
            && scenario.urr.is_none()
            && !telemetry.enabled()
            && !telemetry.journals();
        let lent = std::mem::take(&mut arena.lent);
        let queues = ShardQueues {
            arena,
            workers,
            now: 0,
            seq: 0,
            virtual_len: 0,
        };
        ParSim {
            vendor: VendorSide::new(scenario, queues, telemetry, lent),
            threads,
            plain,
        }
    }

    /// Hands one shard test, popped in sequence order, to the vendor
    /// side.
    fn replay_test(
        &mut self,
        protocol: &mut dyn Protocol,
        machine: MachineId,
        release: u32,
        outcome: (bool, bool),
        uplink: Option<Transmission>,
    ) {
        self.vendor.sched.virtual_len -= 1;
        self.vendor
            .test_done(protocol, machine, release, outcome, uplink);
    }

    /// Emits the driver-side effects of passes absorbed silently by the
    /// protocol (what the vendor side does for a reliable-channel pass,
    /// minus the `on_report` the protocol already accounted for).
    /// Counter increments batch across the chunk — their *sums* match
    /// the sequential per-event emissions.
    fn absorbed_pass_effects(&mut self, chunk: &[TestRec]) {
        let vendor = &mut self.vendor;
        let now = vendor.now;
        let mut escaped = 0u64;
        for rec in chunk {
            if rec.escaped {
                escaped += 1;
                vendor.metrics.escaped_problems += 1;
            }
            let slot = &mut vendor.metrics.machine_pass_time[rec.machine.index()];
            if slot.is_none() {
                *slot = Some(now);
            }
        }
        if !self.plain {
            for rec in chunk {
                vendor.telemetry.event_with(|| FlightEvent::TestPassedId {
                    machine: rec.machine.index() as u32,
                    release: rec.release,
                });
                vendor.jot(JournalEvent::Test {
                    machine: rec.machine.index() as u32,
                    release: rec.release,
                    problem: NO_PROBLEM,
                });
                vendor.jot(JournalEvent::Report {
                    machine: rec.machine.index() as u32,
                    release: rec.release,
                    passed: true,
                });
                vendor.sink_report(rec.machine, rec.release, TestOutcome::Pass);
            }
        }
        vendor
            .telemetry
            .counter("sim.events_processed", chunk.len() as u64);
        vendor
            .telemetry
            .counter("sim.tests_passed", chunk.len() as u64);
        if escaped > 0 {
            vendor.telemetry.counter("sim.escaped_problems", escaped);
        }
        vendor.sched.virtual_len -= chunk.len();
        // The queue only shrank: no high-water check needed.
    }

    /// Replays a maximal seq-contiguous run of passing reliable-channel
    /// records: absorb what the protocol can take silently, route the
    /// first transition-triggering record through `on_report`, repeat.
    fn replay_pass_run(
        &mut self,
        protocol: &mut dyn Protocol,
        pairs: &mut Vec<(MachineId, Release)>,
        run: &[TestRec],
    ) {
        let mut off = 0;
        while off < run.len() {
            pairs.clear();
            pairs.extend(run[off..].iter().map(|r| (r.machine, Release(r.release))));
            let absorbed = protocol.absorb_passes(pairs);
            self.absorbed_pass_effects(&run[off..off + absorbed]);
            off += absorbed;
            if off < run.len() {
                let rec = run[off];
                off += 1;
                self.replay_test(
                    protocol,
                    rec.machine,
                    rec.release,
                    (true, rec.escaped),
                    None,
                );
            }
        }
    }

    /// Ordered replay of an all-pass plain bucket whose `pairs` are
    /// already in global sequence order, without materialized records:
    /// absorb maximal prefixes, fully replay each stage-completing
    /// pass, repeat. `escapes` holds the (sorted) bucket-relative
    /// positions of passes that escaped detection.
    fn replay_ordered_passes(
        &mut self,
        protocol: &mut dyn Protocol,
        pairs: &[(MachineId, Release)],
        escapes: &[u64],
        base: u64,
    ) {
        // Pass times are pre-stamped by the caller while it gathers
        // `pairs` — every pass in the current bucket gets time `now`
        // regardless of which sub-path replays it. Escape positions in
        // `escapes` are bucket-absolute; `base` is the bucket position
        // of `pairs[0]`.
        let mut off = 0usize;
        let mut esc_i = 0usize;
        while off < pairs.len() {
            let absorbed = protocol.absorb_passes(&pairs[off..]);
            if absorbed > 0 {
                let mut escaped = 0u64;
                while esc_i < escapes.len()
                    && (escapes[esc_i] as usize) < base as usize + off + absorbed
                {
                    esc_i += 1;
                    escaped += 1;
                }
                let vendor = &mut self.vendor;
                if escaped > 0 {
                    vendor.metrics.escaped_problems += escaped as usize;
                    vendor.telemetry.counter("sim.escaped_problems", escaped);
                }
                vendor
                    .telemetry
                    .counter("sim.events_processed", absorbed as u64);
                vendor
                    .telemetry
                    .counter("sim.tests_passed", absorbed as u64);
                vendor.sched.virtual_len -= absorbed;
                off += absorbed;
            }
            if off < pairs.len() {
                let (machine, release) = pairs[off];
                let escaped =
                    esc_i < escapes.len() && escapes[esc_i] as usize == base as usize + off;
                if escaped {
                    esc_i += 1;
                }
                off += 1;
                self.replay_test(protocol, machine, release.0, (true, escaped), None);
            }
        }
    }

    fn run(mut self, protocol: &mut dyn Protocol) -> SimMetrics {
        let _span = self.vendor.telemetry.span("sim.run");
        self.vendor.start(protocol);
        let workers = self.vendor.sched.workers;

        // Scratch buffers move out of the arena for the run (the borrow
        // checker cannot see through `&mut self` into disjoint arena
        // fields from helper calls) and move back at the end.
        let arena = &mut *self.vendor.sched.arena;
        let mut rec_bufs = std::mem::take(&mut arena.rec_bufs);
        let mut coord_buf = std::mem::take(&mut arena.coord_buf);
        let mut pairs = std::mem::take(&mut arena.pairs);
        let mut run_buf = std::mem::take(&mut arena.run_buf);
        let mut heads = std::mem::take(&mut arena.heads);
        let mut due_buf = std::mem::take(&mut arena.due_buf);
        let mut due_flags = std::mem::take(&mut arena.due_flags);
        let mut escape_buf = std::mem::take(&mut arena.escape_buf);
        let mut fail_buf = std::mem::take(&mut arena.fail_buf);

        loop {
            // The next time bucket comes from the master index, which
            // also tells us *which* queues hold events there. Never
            // probing the other queues keeps their cursors at global
            // time, so replay-time schedules are always in the future.
            due_buf.clear();
            let Some(t) = self.vendor.sched.arena.due.pop_bucket(&mut due_buf) else {
                break;
            };
            due_flags.fill(false);
            for &s in &due_buf {
                due_flags[s as usize] = true;
            }
            self.vendor.sched.now = t;
            self.vendor.advance(t);

            // Phase A, step 1: drain each shard's bucket. Record
            // computation is deferred until the bucket's replay path is
            // known — all-pass plain buckets never materialize records.
            let mut total = 0usize;
            let mut min_seq = u64::MAX;
            let mut max_seq = 0u64;
            for (s, shard) in self.vendor.sched.arena.shards.iter_mut().enumerate() {
                shard.raw.clear();
                if due_flags[s] {
                    let drained = shard.queue.pop_bucket(&mut shard.raw);
                    debug_assert_eq!(drained, Some(t), "shard bucket off the master index");
                }
                if let (Some(first), Some(last)) = (shard.raw.first(), shard.raw.last()) {
                    min_seq = min_seq.min(first.seq);
                    max_seq = max_seq.max(last.seq);
                }
                total += shard.raw.len();
            }
            // Scheduling is FIFO within a timestamp, so each shard's
            // drained bucket is already seq-sorted; when the bucket's
            // seqs form one contiguous range (the common case: one wave
            // scheduled by a single Notify) the global order falls out
            // by direct placement, with no comparison merge at all.
            let contiguous = total > 0 && max_seq - min_seq + 1 == total as u64;

            // Drain the coordinator's bucket at this time, if any.
            coord_buf.clear();
            if due_flags[workers] {
                let drained = self.vendor.sched.arena.coord.pop_bucket(&mut coord_buf);
                debug_assert_eq!(drained, Some(t), "coordinator bucket off the master index");
            }

            // Plain contiguous buckets (no faults, journal, URR, or
            // flight events — the overwhelmingly common case) replay
            // straight off the 16-byte raw records. No TestRec is ever
            // materialized.
            if self.plain && contiguous && coord_buf.is_empty() {
                // One placement pass per shard computes each record's
                // outcome, stamps pass times, places passes into
                // `pairs` by global sequence, and sets failing records
                // aside (with their global position stashed in `seq`).
                // Stamping before replay is equivalent: every pass in
                // this bucket receives time `t` on whichever sub-path
                // replays it.
                escape_buf.clear();
                pairs.clear();
                pairs.resize(total, (MachineId(0), Release(0)));
                fail_buf.clear();
                {
                    let vendor = &mut self.vendor;
                    let machine_problem = &vendor.scenario.machine_problem[..];
                    let missed = &vendor.scenario.missed_detection;
                    let fixed = &vendor.fixed_by_release[..];
                    let pass_time = &mut vendor.metrics.machine_pass_time[..];
                    for shard in &vendor.sched.arena.shards {
                        for st in &shard.raw {
                            let pos = st.seq - min_seq;
                            if let Some(problem) = machine_problem[st.machine.index()] {
                                if !fixed[st.release as usize].contains(problem) {
                                    if !missed.contains(st.machine) {
                                        fail_buf.push(ShardTest { seq: pos, ..*st });
                                        continue;
                                    }
                                    escape_buf.push(pos);
                                }
                            }
                            pairs[pos as usize] = (st.machine, Release(st.release));
                            let slot = &mut pass_time[st.machine.index()];
                            if slot.is_none() {
                                *slot = Some(t);
                            }
                        }
                    }
                }
                // Shards interleave in the placement, so positions
                // collected per shard need one merge-sort each (both
                // are concatenations of sorted runs — cheap).
                escape_buf.sort_unstable();
                fail_buf.sort_unstable_by_key(|st| st.seq);

                // Walk the bucket as pass segments separated by
                // failures: each segment absorbs via ordered
                // maximal-prefix absorption (a transition-free segment
                // is a single `absorb_passes` call — the ordered twin
                // of the order-free batch, which still serves the
                // non-contiguous path below); each failure replays
                // through the full protocol path in order.
                let mut start = 0usize;
                let mut esc_lo = 0usize;
                for f in &fail_buf {
                    let pos = f.seq as usize;
                    if pos > start {
                        let hi =
                            esc_lo + escape_buf[esc_lo..].partition_point(|&e| (e as usize) < pos);
                        self.replay_ordered_passes(
                            protocol,
                            &pairs[start..pos],
                            &escape_buf[esc_lo..hi],
                            start as u64,
                        );
                        esc_lo = hi;
                    }
                    self.replay_test(protocol, f.machine, f.release, (false, false), None);
                    start = pos + 1;
                }
                if start < total {
                    self.replay_ordered_passes(
                        protocol,
                        &pairs[start..],
                        &escape_buf[esc_lo..],
                        start as u64,
                    );
                }
                continue;
            }

            // A plain bucket whose seqs are *not* contiguous (offline
            // stragglers colliding with a later wave) cannot placement-
            // merge, but if it is all passes the order-free batch
            // absorb applies — shard order is as good as any.
            if self.plain && total > 0 && !contiguous && coord_buf.is_empty() {
                let vendor = &mut self.vendor;
                let mut all_pass = true;
                let mut escaped = 0usize;
                {
                    let machine_problem = &vendor.scenario.machine_problem[..];
                    let missed = &vendor.scenario.missed_detection;
                    let fixed = &vendor.fixed_by_release[..];
                    'scan: for shard in &vendor.sched.arena.shards {
                        for st in &shard.raw {
                            if let Some(problem) = machine_problem[st.machine.index()] {
                                if !fixed[st.release as usize].contains(problem) {
                                    if !missed.contains(st.machine) {
                                        all_pass = false;
                                        break 'scan;
                                    }
                                    escaped += 1;
                                }
                            }
                        }
                    }
                }
                if all_pass {
                    pairs.clear();
                    for shard in &vendor.sched.arena.shards {
                        pairs.extend(shard.raw.iter().map(|r| (r.machine, Release(r.release))));
                    }
                    if protocol.absorb_pass_batch(&pairs) {
                        for &(m, _) in pairs.iter() {
                            let slot = &mut vendor.metrics.machine_pass_time[m.index()];
                            if slot.is_none() {
                                *slot = Some(t);
                            }
                        }
                        // Counter *sums* match the per-event sequential
                        // emissions (order-insensitive by definition).
                        vendor.metrics.escaped_problems += escaped;
                        vendor
                            .telemetry
                            .counter("sim.events_processed", total as u64);
                        vendor.telemetry.counter("sim.tests_passed", total as u64);
                        if escaped > 0 {
                            vendor
                                .telemetry
                                .counter("sim.escaped_problems", escaped as u64);
                        }
                        vendor.sched.virtual_len -= total;
                        continue;
                    }
                }
            }

            // Phase A, step 2: compute records for every drained shard.
            {
                let vendor = &mut self.vendor;
                let shards = &mut vendor.sched.arena.shards;
                for out in rec_bufs.iter_mut() {
                    out.clear();
                }
                let machine_problem = &vendor.scenario.machine_problem[..];
                let missed = &vendor.scenario.missed_detection;
                let fixed = &vendor.fixed_by_release[..];
                let faults = vendor.faults_active.then_some(&vendor.scenario.faults);
                let busy = shards
                    .iter_mut()
                    .zip(rec_bufs.iter_mut())
                    .filter(|(shard, _)| !shard.raw.is_empty());
                if self.threads > 1 && total >= PAR_COMPUTE_MIN {
                    std::thread::scope(|scope| {
                        for (shard, out) in busy {
                            scope.spawn(move || {
                                compute_shard(
                                    shard,
                                    out,
                                    machine_problem,
                                    missed,
                                    fixed,
                                    faults,
                                    workers,
                                );
                            });
                        }
                    });
                } else {
                    for (shard, out) in busy {
                        compute_shard(shard, out, machine_problem, missed, fixed, faults, workers);
                    }
                }
            }

            // Phase B: merge by global sequence number and replay in
            // exact sequential order.
            heads.fill(0);
            let mut chead = 0usize;
            loop {
                match next_source(&rec_bufs, &heads, &coord_buf, chead) {
                    Source::Done => break,
                    Source::Coord => {
                        let (_, event) = coord_buf[chead];
                        chead += 1;
                        self.vendor.sched.virtual_len -= 1;
                        self.vendor.vendor_event(protocol, event);
                    }
                    Source::Shard(s) => {
                        let rec = rec_bufs[s][heads[s]];
                        if rec.uplink.is_none() && rec.passed {
                            // Gather the maximal run of consecutive
                            // passing records (across shards, in seq
                            // order) and absorb it batched.
                            run_buf.clear();
                            run_buf.push(rec);
                            heads[s] += 1;
                            while let Source::Shard(s2) =
                                next_source(&rec_bufs, &heads, &coord_buf, chead)
                            {
                                let next = rec_bufs[s2][heads[s2]];
                                if !next.passed {
                                    break;
                                }
                                run_buf.push(next);
                                heads[s2] += 1;
                            }
                            let run = std::mem::take(&mut run_buf);
                            self.replay_pass_run(protocol, &mut pairs, &run);
                            run_buf = run;
                        } else {
                            heads[s] += 1;
                            self.replay_test(
                                protocol,
                                rec.machine,
                                rec.release,
                                (rec.passed, rec.escaped),
                                rec.uplink,
                            );
                        }
                    }
                }
            }
        }

        debug_assert_eq!(
            self.vendor.sched.virtual_len, 0,
            "all queues drained at run end"
        );
        let metrics = self.vendor.finish(protocol);
        let arena = &mut *self.vendor.sched.arena;
        arena.rec_bufs = rec_bufs;
        arena.coord_buf = coord_buf;
        arena.pairs = pairs;
        arena.run_buf = run_buf;
        arena.heads = heads;
        arena.due_buf = due_buf;
        arena.due_flags = due_flags;
        arena.escape_buf = escape_buf;
        arena.fail_buf = fail_buf;
        arena.lent = std::mem::take(&mut self.vendor.lent);
        metrics
    }
}

/// Clamps a requested worker count to `[1, MAX_WORKERS]` and the fleet
/// size (more shards than machines is pure overhead).
fn clamp_workers(requested: usize, machine_count: usize) -> usize {
    requested.clamp(1, MAX_WORKERS).min(machine_count.max(1))
}

/// Runs `protocol` against `scenario` on the sharded parallel driver
/// with an explicit worker count, reusing `arena`'s allocations.
///
/// Bit-identical to the sequential [`Simulation`] at every worker
/// count; `workers <= 1` delegates to it outright (the oracle is the
/// one-worker configuration). Publishes the effective worker count on
/// the `sim.workers` gauge.
pub fn run_parallel_in(
    arena: &mut SimArena,
    scenario: &Scenario,
    protocol: &mut dyn Protocol,
    telemetry: Telemetry,
    workers: usize,
) -> SimMetrics {
    let workers = clamp_workers(workers, scenario.machine_count());
    telemetry.gauge("sim.workers", workers as i64);
    // Tick-driven protocols (rollout controllers with a decision clock)
    // run on the sequential driver: the shared vendor side would tick
    // them here too, but no equivalence property yet covers tick-driven
    // controllers (guard queries, `PRIOR_RELEASE` revert waves) on the
    // sharded driver, whose Phase A does not know the revert sentinel.
    if workers <= 1 || protocol.wants_ticks() {
        return Simulation::new(scenario)
            .with_telemetry(telemetry)
            .run(protocol);
    }
    ParSim::new(arena, scenario, telemetry, workers).run(protocol)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::faults::FaultSpec;
    use crate::runner;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::ProtocolChoice;
    use mirage_telemetry::health::{health_report_json, rollup};
    use mirage_telemetry::trace_export::chrome_trace;
    use mirage_telemetry::{Journal, Registry, TraceConfig, WatchdogConfig};

    const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

    fn choices() -> [ProtocolChoice; 4] {
        [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 11 },
        ]
    }

    fn scenarios() -> Vec<(&'static str, Scenario)> {
        vec![
            (
                "small",
                ScenarioBuilder::new()
                    .clusters(4, 3, 1)
                    .problem_in_clusters("p", &[2])
                    .build(),
            ),
            ("healthy", ScenarioBuilder::new().clusters(3, 5, 2).build()),
            (
                "misplaced",
                ScenarioBuilder::new()
                    .clusters(4, 4, 1)
                    .problem_in_clusters("p", &[1])
                    .misplaced_machine(3, "q")
                    .build(),
            ),
            (
                "threshold+offline",
                ScenarioBuilder::new()
                    .clusters(3, 6, 1)
                    .problem_in_clusters("p", &[0])
                    .offline_machines(1, 2, 200)
                    .threshold(0.5)
                    .build(),
            ),
            (
                "missed-detection",
                ScenarioBuilder::new()
                    .clusters(3, 4, 1)
                    .problem_in_clusters("p", &[1])
                    .missed_detections(1, 2)
                    .build(),
            ),
            (
                "multi-problem",
                ScenarioBuilder::new()
                    .clusters(5, 4, 1)
                    .problem_in_clusters("p", &[1, 2])
                    .problem_in_clusters("q", &[3])
                    .build(),
            ),
        ]
    }

    /// The parallel driver is bit-identical to the sequential oracle on
    /// reliable channels, for every protocol, scenario shape, and
    /// worker count (1 delegates to the oracle itself).
    #[test]
    fn parallel_matches_sequential() {
        for (name, s) in scenarios() {
            for choice in choices() {
                let mut oracle = choice.build(s.plan.clone(), s.threshold);
                let expect = runner::run(&s, &mut oracle);
                for workers in WORKER_COUNTS {
                    let mut p = choice.build(s.plan.clone(), s.threshold);
                    let got = run_parallel_in(
                        &mut SimArena::new(),
                        &s,
                        &mut p,
                        Telemetry::noop(),
                        workers,
                    );
                    assert_eq!(
                        expect,
                        got,
                        "{name}/{} diverged at {workers} workers",
                        choice.name()
                    );
                }
            }
        }
    }

    /// Same bit-identity under a fault plan exercising loss,
    /// duplication, delay, retries, rep timeouts, and churn — the RNG
    /// forking must reproduce the exact sequential fault schedule at
    /// every worker count.
    #[test]
    fn parallel_matches_sequential_under_faults() {
        let s = ScenarioBuilder::new()
            .clusters(4, 6, 1)
            .problem_in_clusters("p", &[2])
            .faults(
                FaultSpec::new(0xFA11)
                    .loss(0.30)
                    .duplication(0.15)
                    .delay(6)
                    .retry(20, 4)
                    .rep_timeout(600)
                    .churn(1, 2, 40, 400)
                    .churn(3, 1, 10, SimTime::MAX),
            )
            .build();
        for choice in choices() {
            let mut oracle = choice.build(s.plan.clone(), s.threshold);
            let expect = runner::run(&s, &mut oracle);
            for workers in WORKER_COUNTS {
                let mut p = choice.build(s.plan.clone(), s.threshold);
                let got =
                    run_parallel_in(&mut SimArena::new(), &s, &mut p, Telemetry::noop(), workers);
                assert_eq!(
                    expect,
                    got,
                    "faulted {} diverged at {workers} workers",
                    choice.name()
                );
            }
        }
    }

    fn journaled_registry() -> Arc<Registry> {
        Arc::new(Registry::with_journal(
            1 << 14,
            Journal::with_spill(1 << 12),
        ))
    }

    fn run_instrumented(
        s: &Scenario,
        choice: ProtocolChoice,
        workers: Option<usize>,
    ) -> (SimMetrics, Arc<Registry>) {
        let registry = journaled_registry();
        let telemetry = Telemetry::from_registry(Arc::clone(&registry));
        let mut protocol = choice
            .build(s.plan.clone(), s.threshold)
            .with_telemetry(telemetry.clone());
        let metrics = match workers {
            None => runner::run_with_telemetry(s, &mut protocol, telemetry),
            Some(w) => run_parallel_in(&mut SimArena::new(), s, &mut protocol, telemetry, w),
        };
        (metrics, registry)
    }

    /// Journaled instrumented runs are byte-identical between the
    /// drivers: the journal entry stream (time, seq, payload), counter
    /// sums, the queue-depth gauge trajectory, and the derived health
    /// rollup and Perfetto export all match at every worker count.
    #[test]
    fn instrumented_parallel_run_is_bit_identical() {
        let reliable = ScenarioBuilder::new()
            .clusters(4, 5, 1)
            .problem_in_clusters("p", &[2])
            .build();
        let faulted = ScenarioBuilder::new()
            .clusters(3, 5, 1)
            .problem_in_clusters("p", &[1])
            .faults(
                FaultSpec::new(0x0B5E)
                    .loss(0.25)
                    .duplication(0.10)
                    .delay(5)
                    .retry(20, 4)
                    .rep_timeout(600),
            )
            .build();
        for (name, s) in [("reliable", &reliable), ("faulted", &faulted)] {
            let (seq_metrics, seq_reg) = run_instrumented(s, ProtocolChoice::Balanced, None);
            let seq_entries = seq_reg.journal().entries();
            assert!(
                !seq_entries.is_empty(),
                "{name}: sequential journal must record"
            );
            let mut machine_cluster = vec![0u32; s.machine_count()];
            for cluster in &s.plan.clusters {
                for m in &cluster.members {
                    machine_cluster[m.index()] = cluster.id as u32;
                }
            }
            let run_end = seq_metrics.completion_time.unwrap_or(0);
            for workers in [2, 3, 8] {
                let (par_metrics, par_reg) =
                    run_instrumented(s, ProtocolChoice::Balanced, Some(workers));
                assert_eq!(seq_metrics, par_metrics, "{name} w={workers}: metrics");
                let par_entries = par_reg.journal().entries();
                assert_eq!(
                    seq_entries, par_entries,
                    "{name} w={workers}: journal streams differ"
                );
                let seq_snap = seq_reg.snapshot();
                let par_snap = par_reg.snapshot();
                assert_eq!(
                    seq_snap.counters, par_snap.counters,
                    "{name} w={workers}: counter sums differ"
                );
                assert_eq!(
                    seq_snap.gauges.get("sim.queue_depth"),
                    par_snap.gauges.get("sim.queue_depth"),
                    "{name} w={workers}: queue depth gauge differs"
                );
                assert_eq!(
                    par_snap.gauges.get("sim.workers").map(|g| g.value),
                    Some(workers as i64),
                    "{name} w={workers}: workers gauge"
                );
                // Derived artifacts are byte-identical after the
                // exporters' canonical (time, seq) sort.
                let config = WatchdogConfig::default();
                assert_eq!(
                    health_report_json(&rollup(&seq_entries, &machine_cluster, run_end, &config)),
                    health_report_json(&rollup(&par_entries, &machine_cluster, run_end, &config)),
                    "{name} w={workers}: health rollup differs"
                );
                let trace = |entries: &[mirage_telemetry::JournalEntry]| {
                    chrome_trace(
                        entries,
                        run_end,
                        &|m| s.plan.machine_name(MachineId(m)).to_string(),
                        &|p| s.problems.name(ProblemId(p)).to_string(),
                        &TraceConfig::default(),
                    )
                };
                assert_eq!(
                    trace(&seq_entries),
                    trace(&par_entries),
                    "{name} w={workers}: Perfetto export differs"
                );
            }
        }
    }

    /// The journal keeps its `(time, seq)` ordering property under
    /// multi-shard flushes: the raw stream (buffered driver jots
    /// interleaved with write-through protocol jots) is identical to the
    /// sequential one, and the exporters' canonical `(time, seq)` sort
    /// yields a time-monotone stream with unique sequence numbers.
    #[test]
    fn journal_orders_by_time_seq_under_multi_shard_flushes() {
        let s = ScenarioBuilder::new()
            .clusters(5, 7, 1)
            .problem_in_clusters("p", &[1, 3])
            .build();
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, None);
        let seq_entries = seq_reg.journal().entries();
        for workers in [2, 4, 8] {
            let (_, reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, Some(workers));
            let entries = reg.journal().entries();
            assert!(!entries.is_empty());
            assert_eq!(
                seq_entries, entries,
                "raw stream diverged at {workers} workers"
            );
            let mut sorted = entries.clone();
            sorted.sort_by_key(|e| (e.time, e.seq));
            for pair in sorted.windows(2) {
                assert!(
                    pair[0].time <= pair[1].time && pair[0].seq != pair[1].seq,
                    "canonical sort violated: {:?} then {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// Cross-shard scheduling reproduces the sequential queue-depth
    /// high-water mark exactly (the parallel driver tracks a virtual
    /// global depth, not per-shard depths).
    #[test]
    fn cross_shard_queue_depth_high_water_matches() {
        let s = ScenarioBuilder::new()
            .clusters(6, 8, 2)
            .problem_in_clusters("p", &[2])
            .build();
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::NoStaging, None);
        let seq_gauge = seq_reg.snapshot().gauges["sim.queue_depth"];
        assert!(seq_gauge.high_water >= s.machine_count() as i64);
        for workers in [2, 5, 8] {
            let (_, par_reg) = run_instrumented(&s, ProtocolChoice::NoStaging, Some(workers));
            let par_gauge = par_reg.snapshot().gauges["sim.queue_depth"];
            assert_eq!(
                seq_gauge, par_gauge,
                "queue depth high-water diverged at {workers} workers"
            );
        }
    }

    /// One arena serves many runs (different scenarios, protocols,
    /// worker counts) without contaminating results.
    #[test]
    fn arena_reuse_is_deterministic() {
        let mut arena = SimArena::new();
        for _ in 0..2 {
            for (name, s) in scenarios() {
                for choice in [ProtocolChoice::Balanced, ProtocolChoice::NoStaging] {
                    let mut oracle = choice.build(s.plan.clone(), s.threshold);
                    let expect = runner::run(&s, &mut oracle);
                    for workers in [2, 4] {
                        let mut p = choice.build(s.plan.clone(), s.threshold);
                        let got =
                            run_parallel_in(&mut arena, &s, &mut p, Telemetry::noop(), workers);
                        assert_eq!(expect, got, "{name}/{} reused arena", choice.name());
                    }
                }
            }
        }
    }

    /// The requested worker count is clamped to the fleet size and
    /// `MAX_WORKERS`, and the clamped count runs bit-identically.
    #[test]
    fn worker_count_clamping() {
        assert_eq!(clamp_workers(6, 400), 6);
        // Clamped to the fleet: 2 machines cannot use 6 shards.
        assert_eq!(clamp_workers(6, 2), 2);
        assert_eq!(clamp_workers(10_000, 200), MAX_WORKERS);
        assert_eq!(clamp_workers(0, 200), 1);
        assert_eq!(clamp_workers(4, 0), 1);
        // An over-large request runs clamped, end to end.
        let tiny = ScenarioBuilder::new().clusters(1, 2, 1).build();
        let mut p = ProtocolChoice::Balanced.build(tiny.plan.clone(), tiny.threshold);
        let got = run_parallel_in(&mut SimArena::new(), &tiny, &mut p, Telemetry::noop(), 6);
        let mut oracle = ProtocolChoice::Balanced.build(tiny.plan.clone(), tiny.threshold);
        assert_eq!(got, runner::run(&tiny, &mut oracle));
    }
}
