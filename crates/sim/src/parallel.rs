//! Sharded time-bucket parallel simulation driver.
//!
//! The sequential loop in [`crate::runner`] processes one event at a
//! time off a single calendar queue. This driver — what
//! [`Simulation::run`](crate::Simulation::run) runs at more than one
//! worker, whatever the protocol — runs the same vendor side
//! (`vendor.rs`) over a different schedule: the [`MachineId`]
//! space is sharded across `workers` shards
//! (`machine.index() % workers`), every scheduled event is stamped with
//! a global sequence number, and every time bucket is split into two
//! phases:
//!
//! - **Phase A (shard-local, parallelizable):** each shard drains its
//!   own calendar queue's bucket of `TestDone` records and computes the
//!   *pure* part of each: the test's outcome (the vendor side's one
//!   `test_outcome`, which reads only the scenario and the append-only
//!   `fixed_by_release` history, which same-time events cannot change
//!   for already-scheduled releases) and, under a fault
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
//!   collapse through [`Protocol::absorb_passes`].
//!
//! A bucket the driver can see needs no merge — no observer sensitive
//! to per-event order (flight events, journal, URR), no faults, no
//! coordinator event, and sequence numbers forming one contiguous range
//! (one wave scheduled by a single `Notify`) — skips both phases: one
//! placement pass drops each record into its slot and the pass segments
//! between failures go through the same ordered
//! [`Protocol::absorb_passes`]. Every other bucket, a plain one whose
//! sequence numbers have gaps included (an offline straggler landing on
//! a later wave), takes Phase A and the merge.
//!
//! Because sequence numbers are assigned at scheduling time by a single
//! monotone counter and the sequential queue is FIFO within a
//! timestamp, "merge by sequence number" reproduces the sequential
//! processing order exactly — the two drivers are bit-identical in
//! [`SimMetrics`], journal contents, flight events, and counter/gauge
//! totals at any worker count (counter *increments* may batch on the
//! placement path; their sums are identical). That holds for tick-driven
//! protocols too: a guarded rollout's decision ticks, guard queries and
//! `PRIOR_RELEASE` revert wave replay in the same order on either
//! driver (`guarded_rollout_matches_sequential_at_any_worker_count`).
//!
//! [`SimArena`] owns every queue and scratch buffer so sweep drivers
//! re-running many configurations reuse allocations across runs.

use mirage_deploy::{MachineId, ProblemSet, Protocol, Release, TestOutcome, PRIOR_RELEASE};
use mirage_telemetry::journal::{JournalEvent, NO_PROBLEM};
use mirage_telemetry::{FlightEvent, Telemetry};

use crate::engine::{Event, EventQueue, SimTime};
use crate::faults::RngLanes;
use crate::metrics::SimMetrics;
use crate::runner::Simulation;
use crate::scenario::Scenario;
use crate::vendor::{test_outcome, Lent, Schedule, Transmission, VendorSide};

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

/// Reusable state for the sharded driver, handed to a run with
/// [`Simulation::arena`]: every queue and scratch buffer it needs,
/// kept allocated across runs so sweep grids pay allocation cost once.
/// Any run may follow any other in one arena — plain, faulted, guarded,
/// at any worker count — with the result of a fresh one.
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
    aside_buf: Vec<ShardTest>,
    pairs: Vec<(MachineId, Release)>,
    run_buf: Vec<TestRec>,
    heads: Vec<usize>,
    /// The vendor side's per-run buffers, lent for each run.
    lent: Lent,
    /// Plain buckets with no coordinator event whose sequence numbers
    /// had gaps, so that they took the merge and not the placement
    /// pass: lets a test show it drove that shape.
    #[cfg(test)]
    gapped_plain_buckets: usize,
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
        self.aside_buf.clear();
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
    scenario: &Scenario,
    fixed: &[ProblemSet],
    faults_active: bool,
    workers: usize,
) {
    for &ShardTest {
        seq,
        machine,
        release,
    } in &shard.raw
    {
        let (passed, escaped) = test_outcome(scenario, fixed, machine, release);
        // The machine's own up-link lane: the draws the sequential
        // driver makes when it pops this test, made ahead of replay.
        let uplink = faults_active.then(|| {
            Transmission::draw(
                shard.lanes.lane(machine.index() / workers),
                &scenario.faults,
            )
        });
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
/// [`Simulation::run`] is the one place that builds it.
pub(crate) struct ParSim<'s, 'a> {
    vendor: VendorSide<'s, ShardQueues<'a>>,
    /// OS-level parallelism available for Phase A (1 on a single-core
    /// host: sharding still pays via batch absorption, honestly inline).
    threads: usize,
    /// No observers that are sensitive to per-event order (flight
    /// events, journal, URR) and no faults: seq-contiguous buckets may
    /// take the placement path.
    plain: bool,
}

impl<'s, 'a> ParSim<'s, 'a> {
    /// A driver over `scenario` at `workers` (already clamped, more
    /// than one) shards, in `arena`.
    pub(crate) fn new(
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
    /// minus the `on_report` the protocol already accounted for); each
    /// pass is recorded by the vendor side's one `note_pass`. The
    /// `sim.events_processed` increment batches across the chunk — its
    /// *sum* matches the sequential per-event emissions.
    fn absorbed_pass_effects(&mut self, chunk: &[TestRec]) {
        let vendor = &mut self.vendor;
        let mut escaped = 0u64;
        for rec in chunk {
            if rec.escaped {
                escaped += 1;
                vendor.metrics.escaped_problems += 1;
            }
            vendor.note_pass(rec.machine, rec.release);
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

    /// Ordered replay of a plain bucket's segment of upgrade passes
    /// whose `pairs` are already in global sequence order, without
    /// materialized records: absorb maximal prefixes, fully replay each
    /// stage-completing pass, repeat. `escapes` holds the (sorted)
    /// bucket-relative positions of passes that escaped detection.
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

    pub(crate) fn run(mut self, protocol: &mut dyn Protocol) -> SimMetrics {
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
        let mut aside_buf = std::mem::take(&mut arena.aside_buf);

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
            // known — the placement path never materializes records.
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
                // outcome, stamps pass times, places upgrade passes
                // into `pairs` by global sequence, and sets aside (with
                // their global position stashed in `seq`) the records
                // that need the full per-record path: failures, and
                // revert confirmations, which `note_pass` records as
                // reverts, not as passes. Stamping before replay is
                // equivalent: every upgrade pass in this bucket
                // receives time `t` on whichever sub-path replays it.
                escape_buf.clear();
                pairs.clear();
                pairs.resize(total, (MachineId(0), Release(0)));
                aside_buf.clear();
                {
                    let vendor = &mut self.vendor;
                    let fixed = &vendor.fixed_by_release[..];
                    let pass_time = &mut vendor.metrics.machine_pass_time[..];
                    for shard in &vendor.sched.arena.shards {
                        for st in &shard.raw {
                            let pos = st.seq - min_seq;
                            let (passed, escaped) =
                                test_outcome(vendor.scenario, fixed, st.machine, st.release);
                            if !passed || st.release == PRIOR_RELEASE.0 {
                                aside_buf.push(ShardTest { seq: pos, ..*st });
                                continue;
                            }
                            if escaped {
                                escape_buf.push(pos);
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
                aside_buf.sort_unstable_by_key(|st| st.seq);

                // Walk the bucket as pass segments separated by the
                // records set aside: each segment absorbs via ordered
                // maximal-prefix absorption (a transition-free segment
                // is a single `absorb_passes` call); each record set
                // aside replays through the full protocol path in
                // order. Its outcome is worked out again here rather
                // than carried: the release history is append-only.
                let mut start = 0usize;
                let mut esc_lo = 0usize;
                for f in &aside_buf {
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
                    let outcome = test_outcome(
                        self.vendor.scenario,
                        &self.vendor.fixed_by_release,
                        f.machine,
                        f.release,
                    );
                    self.replay_test(protocol, f.machine, f.release, outcome, None);
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
            #[cfg(test)]
            if self.plain && total > 0 && coord_buf.is_empty() {
                self.vendor.sched.arena.gapped_plain_buckets += 1;
            }

            // Phase A, step 2: compute records for every drained shard.
            {
                let vendor = &mut self.vendor;
                let shards = &mut vendor.sched.arena.shards;
                for out in rec_bufs.iter_mut() {
                    out.clear();
                }
                let scenario = vendor.scenario;
                let fixed = &vendor.fixed_by_release[..];
                let faults_active = vendor.faults_active;
                let busy = shards
                    .iter_mut()
                    .zip(rec_bufs.iter_mut())
                    .filter(|(shard, _)| !shard.raw.is_empty());
                if self.threads > 1 && total >= PAR_COMPUTE_MIN {
                    std::thread::scope(|scope| {
                        for (shard, out) in busy {
                            scope.spawn(move || {
                                compute_shard(shard, out, scenario, fixed, faults_active, workers);
                            });
                        }
                    });
                } else {
                    for (shard, out) in busy {
                        compute_shard(shard, out, scenario, fixed, faults_active, workers);
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
        arena.aside_buf = aside_buf;
        arena.lent = std::mem::take(&mut self.vendor.lent);
        metrics
    }
}

/// Clamps a requested worker count to `[1, MAX_WORKERS]` and the fleet
/// size (more shards than machines is pure overhead).
pub(crate) fn clamp_workers(requested: usize, machine_count: usize) -> usize {
    requested.clamp(1, MAX_WORKERS).min(machine_count.max(1))
}

/// [`Simulation`] with every setting spelled as an argument. Pinned by
/// `benchmark/src/workloads/sim.rs`, which a program change may not
/// edit, and called from nowhere else; the change that follows the
/// benchmark's move to [`Simulation`] deletes it.
pub fn run_parallel_in(
    arena: &mut SimArena,
    scenario: &Scenario,
    protocol: &mut dyn Protocol,
    telemetry: Telemetry,
    workers: usize,
) -> SimMetrics {
    Simulation::new(scenario)
        .with_telemetry(telemetry)
        .workers(workers)
        .arena(arena)
        .run(protocol)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::faults::FaultSpec;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::{ProblemId, ProtocolChoice};
    use mirage_report::Urr;
    use mirage_rollout::{GuardSettings, RolloutOutcome, RolloutStrategy};
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
                let expect = Simulation::new(&s).run(&mut oracle);
                for workers in WORKER_COUNTS {
                    let mut p = choice.build(s.plan.clone(), s.threshold);
                    let got = Simulation::new(&s).workers(workers).run(&mut p);
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
            let expect = Simulation::new(&s).run(&mut oracle);
            for workers in WORKER_COUNTS {
                let mut p = choice.build(s.plan.clone(), s.threshold);
                let got = Simulation::new(&s).workers(workers).run(&mut p);
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
        workers: usize,
    ) -> (SimMetrics, Arc<Registry>) {
        let registry = journaled_registry();
        let telemetry = Telemetry::from_registry(Arc::clone(&registry));
        let mut protocol = choice
            .build(s.plan.clone(), s.threshold)
            .with_telemetry(telemetry.clone());
        let metrics = Simulation::new(s)
            .with_telemetry(telemetry)
            .workers(workers)
            .run(&mut protocol);
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
            let (seq_metrics, seq_reg) = run_instrumented(s, ProtocolChoice::Balanced, 1);
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
                let (par_metrics, par_reg) = run_instrumented(s, ProtocolChoice::Balanced, workers);
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
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, 1);
        let seq_entries = seq_reg.journal().entries();
        for workers in [2, 4, 8] {
            let (_, reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, workers);
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
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::NoStaging, 1);
        let seq_gauge = seq_reg.snapshot().gauges["sim.queue_depth"];
        assert!(seq_gauge.high_water >= s.machine_count() as i64);
        for workers in [2, 5, 8] {
            let (_, par_reg) = run_instrumented(&s, ProtocolChoice::NoStaging, workers);
            let par_gauge = par_reg.snapshot().gauges["sim.queue_depth"];
            assert_eq!(
                seq_gauge, par_gauge,
                "queue depth high-water diverged at {workers} workers"
            );
        }
    }

    /// A fleet-wide regression under a guarded rolling rollout on a
    /// lossy channel, in `arena`: decision ticks, retries, a revert
    /// wave, and the lent per-machine fault tables all in use.
    fn guarded_rollback(arena: &mut SimArena, workers: usize) -> (SimMetrics, RolloutOutcome) {
        let s = ScenarioBuilder::new()
            .clusters(3, 4, 1)
            .problem_in_clusters("regression", &[0, 1, 2])
            .faults(
                FaultSpec::new(0xA7E)
                    .loss(0.20)
                    .duplication(0.10)
                    .retry(20, 4),
            )
            .with_urr(Arc::new(Urr::new()))
            .with_strategy(RolloutStrategy::Rolling { batch_size: 4 })
            .with_guard(GuardSettings {
                min_reports: 2,
                ..GuardSettings::default()
            })
            .build();
        let mut controller = s.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
        let metrics = Simulation::new(&s)
            .workers(workers)
            .arena(arena)
            .run(&mut controller);
        (metrics, controller.outcome())
    }

    /// One arena serves many runs (different scenarios, protocols,
    /// worker counts; plain runs and a tick-driven rollback in turn)
    /// without contaminating results.
    #[test]
    fn arena_reuse_is_deterministic() {
        let mut arena = SimArena::new();
        for _ in 0..2 {
            for (name, s) in scenarios() {
                for choice in [ProtocolChoice::Balanced, ProtocolChoice::NoStaging] {
                    let mut oracle = choice.build(s.plan.clone(), s.threshold);
                    let expect = Simulation::new(&s).run(&mut oracle);
                    for workers in [2, 4] {
                        let mut p = choice.build(s.plan.clone(), s.threshold);
                        let got = Simulation::new(&s)
                            .workers(workers)
                            .arena(&mut arena)
                            .run(&mut p);
                        assert_eq!(expect, got, "{name}/{} reused arena", choice.name());
                    }
                }
                for workers in [2, 4] {
                    let fresh = guarded_rollback(&mut SimArena::new(), workers);
                    assert!(fresh.0.retries_sent > 0 && fresh.0.reverted_count() > 0);
                    assert!(fresh.1.rollback.is_some(), "the guard rolled back");
                    let reused = guarded_rollback(&mut arena, workers);
                    assert_eq!(fresh, reused, "rollback after {name}, {workers} workers");
                }
            }
        }
    }

    /// The bucket shape the deleted order-free batch absorption served:
    /// a plain bucket with no coordinator event whose sequence numbers
    /// have a gap, because an offline straggler's test lands on a later
    /// wave's. It replays through Phase A and the `(time, seq)` merge
    /// like any other, in sequence order.
    #[test]
    fn colliding_waves_replay_in_sequence_order() {
        let base = ScenarioBuilder::new()
            .clusters(4, 6, 1)
            .problem_in_clusters("p", &[3])
            .threshold(0.5);
        let everyone_online = base.clone().build();
        let cycle = everyone_online.timings.machine_cycle();
        for choice in choices() {
            let name = choice.name();
            // When each wave lands with everyone online. Half a cluster
            // is enough to move on, so none of them waits for a
            // machine that is away.
            let mut dry = choice.build(everyone_online.plan.clone(), 0.5);
            let landed = Simulation::new(&everyone_online)
                .run(&mut dry)
                .machine_pass_time;
            let last_wave = landed.iter().flatten().copied().max().expect("ran");
            // `offline_machines(c, 1, _)` takes cluster `c`'s third
            // member; use the cluster whose own wave comes first.
            let third = |c: usize| everyone_online.plan.clusters[c].members[2];
            let cluster = (0..4)
                .min_by_key(|&c| landed[third(c).index()])
                .expect("four clusters");
            assert!(landed[third(cluster).index()] < Some(last_wave), "{name}");
            let s = base
                .clone()
                .offline_machines(cluster, 1, last_wave - cycle)
                .build();

            let mut oracle = choice.build(s.plan.clone(), s.threshold);
            let expect = Simulation::new(&s).run(&mut oracle);
            assert_eq!(expect.pass_time(third(cluster)), Some(last_wave), "{name}");
            for workers in [2, 4, 8] {
                let mut arena = SimArena::new();
                let mut p = choice.build(s.plan.clone(), s.threshold);
                let got = Simulation::new(&s)
                    .workers(workers)
                    .arena(&mut arena)
                    .run(&mut p);
                assert_eq!(expect, got, "{name} at {workers} workers");
                let gapped = arena.gapped_plain_buckets;
                assert!(gapped > 0, "{name} at {workers} workers: no gapped bucket");
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
        let got = Simulation::new(&tiny).workers(6).run(&mut p);
        let mut oracle = ProtocolChoice::Balanced.build(tiny.plan.clone(), tiny.threshold);
        assert_eq!(got, Simulation::new(&tiny).run(&mut oracle));
    }
}
