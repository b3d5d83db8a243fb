//! The event queue: a calendar (bucket) queue over discrete [`SimTime`].
//!
//! Simulation events are tiny [`Copy`] values keyed by dense interned
//! ids, so the queue stores them inline — no slab, no free list, no
//! per-event allocation. Ordering uses the *calendar queue* structure:
//! a power-of-two wheel of `WHEEL` buckets indexed by `time % WHEEL`,
//! each bucket a `Vec` drained front-to-back (FIFO within a timestamp
//! for free), plus a sorted overflow map for events scheduled further
//! than `WHEEL` ticks ahead. `schedule` is O(1) amortised; `pop`
//! is O(1) amortised for the dense event streams a deployment run
//! produces (machine cycles of ~15 ticks, fix delays of ~500 — both far
//! inside the wheel horizon).
//!
//! The previous `BinaryHeap`+slab implementation survives as
//! `runner::reference::HeapEventQueue` for the equivalence
//! property tests.

use std::collections::BTreeMap;

use mirage_deploy::{MachineId, ProblemId, TestOutcome};

/// Simulated time, in the paper's abstract "time units".
pub type SimTime = u64;

/// Number of wheel buckets (one simulated tick each). Power of two so
/// `time % WHEEL` compiles to a mask. 2048 comfortably covers the
/// paper's longest single delay (fix = 500 ticks).
const WHEEL: usize = 2048;

/// Events processed by the simulation. A small `Copy` value: the queue
/// and the runner pass events by value with no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A machine finished downloading and testing a release.
    TestDone {
        /// The machine that tested.
        machine: MachineId,
        /// The release it tested.
        release: u32,
    },
    /// The vendor finished fixing a problem.
    FixDone {
        /// The problem that was fixed.
        problem: ProblemId,
    },
    /// A test report arriving at the vendor over the (possibly lossy,
    /// delaying, duplicating) report channel. Only scheduled when a
    /// fault plan is active; on reliable channels reports are delivered
    /// synchronously inside `TestDone` handling, preserving the
    /// zero-fault event stream bit-for-bit.
    ReportDelivery {
        /// The machine whose report this is.
        machine: MachineId,
        /// The release the report is about.
        release: u32,
        /// The reported outcome.
        outcome: TestOutcome,
    },
    /// Vendor-side retry timer: if `machine` still owes a report for
    /// `release` when this fires, the notification is re-sent with
    /// exponential backoff. Only scheduled when a fault plan is active.
    RetryCheck {
        /// The machine being watched.
        machine: MachineId,
        /// The release whose report is awaited.
        release: u32,
        /// How many retries have already been sent (backoff exponent).
        attempt: u32,
    },
    /// Periodic protocol timer: drives `Protocol::on_tick`. Scheduled
    /// when the fault plan sets a stall budget (`rep_timeout`), or when
    /// the protocol [wants ticks](mirage_deploy::Protocol::wants_ticks)
    /// as its decision clock (guarded and tick-gated rollouts), on the
    /// reliable channel too.
    Tick,
}

/// One wheel slot: events at a single timestamp, drained via `head`
/// so same-time pops are O(1) without shifting the vector.
#[derive(Debug, Clone)]
struct Bucket<T> {
    events: Vec<T>,
    head: usize,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            events: Vec::new(),
            head: 0,
        }
    }
}

impl<T> Bucket<T> {
    fn pending(&self) -> usize {
        self.events.len() - self.head
    }
}

/// A deterministic time-ordered calendar event queue.
///
/// Events at equal times are processed in insertion order (FIFO), which
/// keeps simulations reproducible — the queue preserves this even for
/// events that cross the wheel/overflow boundary (see `schedule`).
///
/// # Invariants
///
/// * every wheel event's time lies in `[cursor, cursor + WHEEL)`, so
///   each bucket holds events of exactly one timestamp;
/// * every overflow key was `>= cursor + WHEEL` when inserted; keys
///   that drift inside the horizon as `cursor` advances are migrated
///   into the wheel at the start of each `pop`, *before* the wheel
///   could acquire same-time events (a same-time wheel insert while the
///   overflow entry exists is redirected to the overflow entry).
#[derive(Debug)]
pub(crate) struct EventQueue<T: Copy = Event> {
    buckets: Vec<Bucket<T>>,
    /// Next timestamp to drain; only advances.
    cursor: SimTime,
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Far-future events: time → FIFO batch.
    overflow: BTreeMap<SimTime, Vec<T>>,
    /// Total pending events (wheel + overflow).
    len: usize,
}

impl<T: Copy> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            buckets: (0..WHEEL).map(|_| Bucket::default()).collect(),
            cursor: 0,
            wheel_len: 0,
            overflow: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<T: Copy> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    ///
    /// Times earlier than the queue's current position are clamped to
    /// "now" (the simulation never schedules into the past; the clamp
    /// makes the queue total rather than panicking in release builds).
    pub fn schedule(&mut self, time: SimTime, event: T) {
        debug_assert!(time >= self.cursor, "scheduling into the past");
        let time = time.max(self.cursor);
        self.len += 1;
        if !self.overflow.is_empty() {
            // FIFO preservation across the boundary: if this timestamp
            // already has an overflow batch, later same-time events must
            // queue *behind* it, not jump ahead via the wheel.
            if let Some(batch) = self.overflow.get_mut(&time) {
                batch.push(event);
                return;
            }
        }
        if time < self.cursor + WHEEL as SimTime {
            self.buckets[(time % WHEEL as SimTime) as usize]
                .events
                .push(event);
            self.wheel_len += 1;
        } else {
            self.overflow.entry(time).or_default().push(event);
        }
    }

    /// Moves overflow batches that now fall inside the wheel horizon
    /// into their buckets.
    fn migrate(&mut self) {
        while let Some((&t, _)) = self.overflow.first_key_value() {
            if t >= self.cursor + WHEEL as SimTime {
                break;
            }
            let batch = self.overflow.pop_first().expect("checked non-empty").1;
            let bucket = &mut self.buckets[(t % WHEEL as SimTime) as usize];
            debug_assert!(
                bucket.pending() == 0,
                "migration target bucket not empty (invariant violation)"
            );
            self.wheel_len += batch.len();
            if bucket.events.is_empty() {
                bucket.events = batch;
                bucket.head = 0;
            } else {
                bucket.events.extend(batch);
            }
        }
    }

    /// Pops the earliest event, returning `(time, event)`. The driver
    /// takes whole timestamps with [`EventQueue::pop_bucket`]; one event
    /// at a time is the sequential oracle's way.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.len == 0 {
            return None;
        }
        self.migrate();
        loop {
            if self.wheel_len == 0 {
                // Jump the cursor straight to the first far-future batch
                // instead of scanning empty buckets.
                let (&t, _) = self
                    .overflow
                    .first_key_value()
                    .expect("len > 0 but both queues empty");
                self.cursor = t;
                self.migrate();
                continue;
            }
            let bucket = &mut self.buckets[(self.cursor % WHEEL as SimTime) as usize];
            if bucket.head < bucket.events.len() {
                let event = bucket.events[bucket.head];
                bucket.head += 1;
                if bucket.head == bucket.events.len() {
                    bucket.events.clear();
                    bucket.head = 0;
                }
                self.wheel_len -= 1;
                self.len -= 1;
                return Some((self.cursor, event));
            }
            self.cursor += 1;
            if !self.overflow.is_empty() {
                self.migrate();
            }
        }
    }

    /// Positions the cursor on the earliest pending timestamp and
    /// returns it without popping (`None` when the queue is empty).
    /// Amortised O(1): any cursor advancement done here is work the
    /// next `pop`/`pop_bucket` would have done anyway.
    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.migrate();
        loop {
            if self.wheel_len == 0 {
                let (&t, _) = self
                    .overflow
                    .first_key_value()
                    .expect("len > 0 but both queues empty");
                self.cursor = t;
                self.migrate();
                continue;
            }
            if self.buckets[(self.cursor % WHEEL as SimTime) as usize].pending() > 0 {
                return Some(self.cursor);
            }
            self.cursor += 1;
            if !self.overflow.is_empty() {
                self.migrate();
            }
        }
    }

    /// Moves every event at the earliest pending timestamp into `out`,
    /// replacing what it held, in FIFO order, and returns that
    /// timestamp. The calendar invariant — each wheel bucket holds
    /// events of exactly one timestamp — makes this one swap of vectors
    /// instead of per-event pops or a copy: the bucket keeps `out`'s old
    /// (cleared) allocation, so events scheduled at the same timestamp
    /// meanwhile queue there, behind the ones taken.
    pub(crate) fn pop_bucket(&mut self, out: &mut Vec<T>) -> Option<SimTime> {
        let t = self.next_time()?;
        let bucket = &mut self.buckets[(t % WHEEL as SimTime) as usize];
        let n = bucket.pending();
        bucket.events.drain(..bucket.head);
        out.clear();
        std::mem::swap(&mut bucket.events, out);
        bucket.head = 0;
        self.wheel_len -= n;
        self.len -= n;
        Some(t)
    }

    /// Empties the queue for reuse, keeping every bucket's allocation
    /// (the arena-run fast path: a reused queue schedules into warmed
    /// buckets).
    pub fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.events.clear();
            bucket.head = 0;
        }
        self.cursor = 0;
        self.wheel_len = 0;
        self.overflow.clear();
        self.len = 0;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_done(machine: u32) -> Event {
        Event::TestDone {
            machine: MachineId(machine),
            release: 0,
        }
    }

    fn machine_of(e: Event) -> u32 {
        match e {
            Event::TestDone { machine, .. } => machine.0,
            other => panic!("expected TestDone, got {other:?}"),
        }
    }

    #[test]
    fn time_ordering() {
        let mut q = EventQueue::new();
        q.schedule(10, test_done(1));
        q.schedule(5, test_done(0));
        q.schedule(20, test_done(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().0, 5);
        assert_eq!(q.pop().unwrap().0, 10);
        assert_eq!(q.pop().unwrap().0, 20);
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        q.schedule(5, test_done(0));
        q.schedule(5, test_done(1));
        q.schedule(5, test_done(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| machine_of(e))
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn mixed_event_kinds() {
        let mut q = EventQueue::new();
        q.schedule(
            100,
            Event::FixDone {
                problem: ProblemId(0),
            },
        );
        q.schedule(15, test_done(0));
        assert!(matches!(q.pop().unwrap().1, Event::TestDone { .. }));
        assert!(matches!(q.pop().unwrap().1, Event::FixDone { .. }));
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon.
        q.schedule(1_000_000, test_done(9));
        q.schedule(3, test_done(0));
        assert_eq!(q.pop().unwrap(), (3, test_done(0)));
        // The cursor jumps straight to the overflow batch.
        assert_eq!(q.pop().unwrap(), (1_000_000, test_done(9)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fifo_preserved_across_wheel_overflow_boundary() {
        let mut q = EventQueue::new();
        // t=5000 is beyond the horizon at cursor 0 → overflow.
        q.schedule(5000, test_done(0));
        q.schedule(1, test_done(7));
        // Advance the cursor so 5000 is now inside the horizon.
        assert_eq!(q.pop().unwrap().0, 1);
        // A later same-time schedule must queue BEHIND the overflow
        // batch even though 5000 is now wheel-eligible.
        q.schedule(5000, test_done(1));
        q.schedule(5000, test_done(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| machine_of(e))
            .collect();
        assert_eq!(order, vec![0, 1, 2], "insertion order across boundary");
    }

    #[test]
    fn wheel_wraps_across_many_cycles() {
        let mut q = EventQueue::new();
        // March time far past several wheel revolutions.
        let mut expected = Vec::new();
        let mut t = 0u64;
        for i in 0..50u32 {
            t += 700; // crosses bucket-0 wrap repeatedly
            q.schedule(t, test_done(i));
            expected.push((t, i));
        }
        for (t, i) in expected {
            assert_eq!(q.pop().unwrap(), (t, test_done(i)));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_schedule_and_pop_at_current_time() {
        // A popped event may schedule another at the same timestamp
        // (zero-length cycles); it must come out after already-pending
        // same-time events.
        let mut q = EventQueue::new();
        q.schedule(4, test_done(0));
        q.schedule(4, test_done(1));
        assert_eq!(machine_of(q.pop().unwrap().1), 0);
        q.schedule(4, test_done(2));
        assert_eq!(machine_of(q.pop().unwrap().1), 1);
        assert_eq!(machine_of(q.pop().unwrap().1), 2);
    }

    #[test]
    fn next_time_peeks_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(9, test_done(0));
        q.schedule(5_000, test_done(1)); // overflow at cursor 0
        assert_eq!(q.next_time(), Some(9));
        assert_eq!(q.len(), 2, "peek pops nothing");
        assert_eq!(q.pop().unwrap().0, 9);
        assert_eq!(q.next_time(), Some(5_000), "cursor jumps through overflow");
        assert_eq!(q.pop().unwrap().0, 5_000);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn pop_bucket_drains_one_timestamp_in_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(7, test_done(0));
        q.schedule(7, test_done(1));
        q.schedule(8, test_done(2));
        let mut out = Vec::new();
        assert_eq!(q.pop_bucket(&mut out), Some(7));
        assert_eq!(
            out.iter().map(|&e| machine_of(e)).collect::<Vec<_>>(),
            [0, 1]
        );
        assert_eq!(q.len(), 1, "later timestamps stay queued");
        // Same-time events scheduled after a drain form the next batch,
        // and a bucket replaces what `out` held.
        q.schedule(8, test_done(3));
        assert_eq!(q.pop_bucket(&mut out), Some(8));
        assert_eq!(
            out.iter().map(|&e| machine_of(e)).collect::<Vec<_>>(),
            [2, 3]
        );
        // A bucket already popped from yields only its rest.
        for m in 4..7 {
            q.schedule(9, test_done(m));
        }
        assert_eq!(q.pop().map(|(t, e)| (t, machine_of(e))), Some((9, 4)));
        assert_eq!(q.pop_bucket(&mut out), Some(9));
        assert_eq!(
            out.iter().map(|&e| machine_of(e)).collect::<Vec<_>>(),
            [5, 6]
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop_bucket(&mut out), None);
    }

    #[test]
    fn generic_payloads_and_reset_reuse() {
        // The queue is generic over any `Copy` payload.
        let mut q: EventQueue<(u64, u32)> = EventQueue::new();
        q.schedule(3, (10, 1));
        q.schedule(3, (11, 2));
        q.schedule(2_500, (12, 3));
        let mut out = Vec::new();
        assert_eq!(q.pop_bucket(&mut out), Some(3));
        assert_eq!(out, vec![(10, 1), (11, 2)]);
        q.reset();
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_time(), None);
        // A reset queue starts over at time 0.
        q.schedule(1, (0, 9));
        assert_eq!(q.pop(), Some((1, (0, 9))));
    }

    /// Randomised model check: the calendar queue must agree with a
    /// `BinaryHeap` ordered by `(time, insertion seq)` on every pop.
    #[test]
    fn matches_heap_model_on_random_workloads() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Seeded xorshift: deterministic, no external crates.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..5_000 {
            let r = rng();
            if r % 3 != 0 || model.is_empty() {
                // Schedule at now + jittered delay; ~1 in 8 far-future.
                let delay = if r % 8 == 0 {
                    2048 + (r >> 8) % 10_000
                } else {
                    (r >> 8) % 600
                };
                let t = now + delay;
                let m = (r >> 40) as u32;
                q.schedule(t, test_done(m));
                model.push(Reverse((t, seq, m)));
                seq += 1;
            } else {
                let Reverse((t, _, m)) = model.pop().unwrap();
                let (qt, qe) = q.pop().expect("model non-empty");
                assert_eq!((qt, machine_of(qe)), (t, m));
                now = t;
            }
            assert_eq!(q.len(), model.len());
        }
        while let Some(Reverse((t, _, m))) = model.pop() {
            let (qt, qe) = q.pop().expect("model non-empty");
            assert_eq!((qt, machine_of(qe)), (t, m));
        }
        assert_eq!(q.len(), 0);
    }
}
