//! The fault model: seeded, deterministic unreliable-channel and
//! churn injection for deployment simulations.
//!
//! The paper's staged-deployment protocols (§5) are specified over a
//! reliable vendor↔machine channel, but real fleets lose reports,
//! deliver duplicates, delay messages, and watch machines leave —
//! sometimes forever — mid-stage. A [`FaultPlan`] describes exactly
//! which of those environmental faults a simulation run injects:
//!
//! * **message loss** — each channel transmission (vendor→machine
//!   notification, machine→vendor report) is dropped with probability
//!   `FaultPlan::loss`;
//! * **duplication** — each surviving transmission is delivered twice
//!   with probability `FaultPlan::duplication`;
//! * **delay** — each delivery is postponed by a uniform draw from
//!   `0..=max_delay` ticks;
//! * **churn** — machines leave the fleet during `[leave, rejoin)`
//!   windows; `rejoin == SimTime::MAX` models a crash (the machine
//!   never returns);
//! * **vendor hardening knobs** — retry backoff parameters for
//!   re-notification and the `rep_timeout` stall budget the driver
//!   hands the protocol with every tick, which enables timeout-based
//!   stage advancement.
//!
//! Everything is driven by one xorshift64* stream seeded from
//! `FaultPlan::seed`, so a `(Scenario, FaultPlan)` pair replays
//! bit-identically — the property tests rely on it. The zero-fault
//! plan (`FaultPlan::none`) disables the entire fault path: the
//! simulator takes the original synchronous-delivery code and produces
//! bit-identical [`crate::SimMetrics`] to the pre-fault driver.
//!
//! [`FaultSpec`] is the fluent builder-side surface, lowered onto a
//! concrete plan by [`crate::ScenarioBuilder::build`] (cluster indexes
//! become machine ids).

use mirage_deploy::{DeployPlan, MachineId, DEFAULT_TICK_INTERVAL};

use crate::engine::SimTime;

/// Default base delay before the first re-notification retry.
pub(crate) const DEFAULT_RETRY_BASE: SimTime = 40;
/// Default cap on the backoff exponent (`base << cap` is the largest
/// retry delay: 40 << 6 = 2 560 ticks).
pub(crate) const DEFAULT_RETRY_BACKOFF_CAP: u32 = 6;
/// Default bound on the number of ticks a run may issue (a safety
/// valve: no fault combination can hang the simulator).
pub(crate) const DEFAULT_MAX_TICKS: u64 = 100_000;

/// A complete, lowered fault-injection plan carried by a
/// [`crate::Scenario`]. Per-machine directives are keyed by dense
/// [`MachineId`]s; construct via [`FaultSpec`] + the scenario builder,
/// or field-by-field in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream (xorshift64*).
    pub(crate) seed: u64,
    /// Per-transmission loss probability in `[0, 1]`.
    pub(crate) loss: f64,
    /// Per-delivery duplication probability in `[0, 1]`.
    pub(crate) duplication: f64,
    /// Maximum per-delivery delay; each delivery is postponed by a
    /// uniform draw from `0..=max_delay` ticks.
    pub(crate) max_delay: SimTime,
    /// Base delay before the first retry of an unanswered notification.
    pub(crate) retry_base: SimTime,
    /// Cap on the exponential-backoff exponent.
    pub(crate) retry_backoff_cap: u32,
    /// Interval between protocol ticks.
    pub(crate) tick_interval: SimTime,
    /// Upper bound on ticks issued per run (safety valve).
    pub(crate) max_ticks: u64,
    /// Stall budget: after this much quiet time the protocol waives
    /// silent machines and advances (graceful degradation). The driver
    /// passes it with every tick; this is the only place it is set.
    /// `None` leaves protocols un-hardened.
    pub(crate) rep_timeout: Option<SimTime>,
    /// Churn windows `(machine, leave, rejoin)`: the machine is
    /// unreachable during `[leave, rejoin)`. `rejoin == SimTime::MAX`
    /// is a crash. At most one window per machine (later entries win).
    pub churn: Vec<(MachineId, SimTime, SimTime)>,
}

impl FaultPlan {
    /// The zero-fault plan: a perfectly reliable channel. Runs carrying
    /// this plan take the original synchronous-delivery path and are
    /// bit-identical to the pre-fault simulator.
    pub(crate) fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss: 0.0,
            duplication: 0.0,
            max_delay: 0,
            retry_base: DEFAULT_RETRY_BASE,
            retry_backoff_cap: DEFAULT_RETRY_BACKOFF_CAP,
            tick_interval: DEFAULT_TICK_INTERVAL,
            max_ticks: DEFAULT_MAX_TICKS,
            rep_timeout: None,
            churn: Vec::new(),
        }
    }

    /// Returns `true` when the plan injects no faults at all — the
    /// simulator then runs the reliable-channel fast path.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0
            && self.duplication == 0.0
            && self.max_delay == 0
            && self.churn.is_empty()
            && self.rep_timeout.is_none()
    }

    /// Delay before retry number `attempt` (0-based): exponential
    /// backoff `retry_base << min(attempt, cap)`.
    pub(crate) fn retry_delay(&self, attempt: u32) -> SimTime {
        self.retry_base
            .saturating_mul(1 << attempt.min(self.retry_backoff_cap))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Builder-side fault directives, lowered to a [`FaultPlan`] against a
/// concrete [`DeployPlan`] by [`crate::ScenarioBuilder::build`]
/// (cluster indexes resolve to machine ids at that point).
///
/// # Examples
///
/// ```
/// use mirage_sim::{FaultSpec, ScenarioBuilder};
/// let scenario = ScenarioBuilder::new()
///     .clusters(4, 25, 1)
///     .faults(
///         FaultSpec::new(0xFA17)
///             .loss(0.2)
///             .duplication(0.1)
///             .delay(8)
///             .rep_timeout(3_000)
///             .crash_rep(2, 40),
///     )
///     .build();
/// assert!(!scenario.faults.is_none());
/// assert_eq!(scenario.faults.churn.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    seed: u64,
    loss: f64,
    duplication: f64,
    max_delay: SimTime,
    retry: Option<(SimTime, u32)>,
    rep_timeout: Option<SimTime>,
    /// `(cluster, count, leave, rejoin)` — take `count` non-reps of
    /// `cluster` away during `[leave, rejoin)`.
    churn: Vec<(usize, usize, SimTime, SimTime)>,
    /// `(cluster, at)` — crash the first representative of `cluster`
    /// at time `at` (it never returns).
    crash_reps: Vec<(usize, SimTime)>,
}

impl FaultSpec {
    /// Starts a spec with the given RNG seed and no faults.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            loss: 0.0,
            duplication: 0.0,
            max_delay: 0,
            retry: None,
            rep_timeout: None,
            churn: Vec::new(),
            crash_reps: Vec::new(),
        }
    }

    /// Sets the per-transmission loss probability (clamped to `[0, 1]`).
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-delivery duplication probability (clamped to `[0, 1]`).
    pub fn duplication(mut self, p: f64) -> Self {
        self.duplication = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the maximum per-delivery delay (uniform in `0..=max`).
    pub fn delay(mut self, max: SimTime) -> Self {
        self.max_delay = max;
        self
    }

    /// Overrides the retry backoff parameters (base delay, exponent cap).
    pub fn retry(mut self, base: SimTime, backoff_cap: u32) -> Self {
        self.retry = Some((base, backoff_cap));
        self
    }

    /// Enables timeout-based stage advancement with the given quiet-time
    /// budget.
    pub fn rep_timeout(mut self, timeout: SimTime) -> Self {
        self.rep_timeout = Some(timeout);
        self
    }

    /// Takes `count` non-representatives of `cluster` out of the fleet
    /// during `[leave, rejoin)` (use `SimTime::MAX` for "never
    /// returns"). Victims are drawn from the *end* of the cluster's
    /// non-rep list so they do not collide with the builder's
    /// misplaced-machine (first non-rep) or offline (next `count`
    /// non-reps) directives.
    pub fn churn(mut self, cluster: usize, count: usize, leave: SimTime, rejoin: SimTime) -> Self {
        self.churn.push((cluster, count, leave, rejoin));
        self
    }

    /// Crashes the first representative of `cluster` at time `at`: it
    /// leaves and never returns, forcing timeout-based degradation.
    pub fn crash_rep(mut self, cluster: usize, at: SimTime) -> Self {
        self.crash_reps.push((cluster, at));
        self
    }

    /// Lowers the spec onto a concrete plan, resolving cluster indexes
    /// to machine ids.
    ///
    /// # Panics
    ///
    /// Panics if a directive references a missing cluster, a churn
    /// directive asks for more non-reps than the cluster has, or a
    /// crash-rep directive targets a cluster without representatives.
    pub(crate) fn lower(&self, plan: &DeployPlan) -> FaultPlan {
        let (retry_base, retry_backoff_cap) = self
            .retry
            .unwrap_or((DEFAULT_RETRY_BASE, DEFAULT_RETRY_BACKOFF_CAP));
        let mut churn: Vec<(MachineId, SimTime, SimTime)> = Vec::new();
        for &(cid, count, leave, rejoin) in &self.churn {
            let cluster = plan
                .clusters
                .get(cid)
                .unwrap_or_else(|| panic!("churn directive for missing cluster {cid}"));
            let non_reps = cluster.non_reps();
            assert!(
                count <= non_reps.len(),
                "churn directive wants {count} non-reps but cluster {cid} has {}",
                non_reps.len()
            );
            for &m in non_reps.iter().rev().take(count) {
                churn.push((m, leave, rejoin));
            }
        }
        for &(cid, at) in &self.crash_reps {
            let cluster = plan
                .clusters
                .get(cid)
                .unwrap_or_else(|| panic!("crash-rep directive for missing cluster {cid}"));
            let rep = *cluster
                .reps
                .first()
                .unwrap_or_else(|| panic!("cluster {cid} has no representatives to crash"));
            churn.push((rep, at, SimTime::MAX));
        }
        FaultPlan {
            seed: self.seed,
            loss: self.loss,
            duplication: self.duplication,
            max_delay: self.max_delay,
            retry_base,
            retry_backoff_cap,
            tick_interval: DEFAULT_TICK_INTERVAL,
            max_ticks: DEFAULT_MAX_TICKS,
            rep_timeout: self.rep_timeout,
            churn,
        }
    }
}

/// The fault RNG: xorshift64* seeded from [`FaultPlan::seed`]. Cheap,
/// deterministic, and dependency-free (the workspace builds offline —
/// no external `rand`).
#[derive(Debug, Clone)]
pub(crate) struct FaultRng(u64);

impl FaultRng {
    /// Seeds the stream (golden-ratio scrambled so nearby seeds give
    /// unrelated streams; forced odd so the state never collapses).
    pub(crate) fn new(seed: u64) -> Self {
        FaultRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Forks an independent per-`lane` stream off a base `seed`.
    ///
    /// The fork depends only on `(seed, lane)` — never on how many
    /// draws other lanes have made — so a simulation that assigns one
    /// lane per machine produces the same per-machine fault schedule
    /// regardless of event interleaving.
    pub(crate) fn fork(seed: u64, lane: u64) -> Self {
        // A second odd multiplier decorrelates lanes from each other
        // and from the base stream before the `new` scramble.
        FaultRng::new(seed ^ lane.wrapping_add(1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)` (53-bit mantissa).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `0..=max`.
    pub(crate) fn below_inclusive(&mut self, max: u64) -> u64 {
        if max == 0 {
            0
        } else {
            self.next_u64() % (max + 1)
        }
    }

    /// Bernoulli draw with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

/// A table of lazily-seeded [`FaultRng::fork`] lanes over one base
/// seed: lane `i` always yields the stream `fork(seed, i)`, no matter
/// which other lanes were touched first.
///
/// The simulator uses one lane per machine for machine→vendor draws.
/// Unseeded lanes are marked by state 0, which a seeded xorshift64*
/// stream can never reach (`new` forces the low bit), so a fresh table
/// is one zeroed allocation, which the allocator hands out without
/// writing it: a run touches the pages of the lanes it draws from and no
/// others.
#[derive(Debug, Clone)]
pub(crate) struct RngLanes {
    seed: u64,
    /// Each lane's xorshift state; 0 = not seeded yet.
    lanes: Vec<u64>,
}

impl RngLanes {
    /// One lane per index in `0..len`, lane id == index.
    pub(crate) fn new(seed: u64, len: usize) -> Self {
        RngLanes {
            seed,
            lanes: vec![0; len],
        }
    }

    /// Runs `draw` on the lane stream at index `i`, seeded on first
    /// use, and keeps the stream where `draw` left it.
    #[inline]
    pub(crate) fn draw<T>(&mut self, i: usize, draw: impl FnOnce(&mut FaultRng) -> T) -> T {
        let slot = &mut self.lanes[i];
        let mut rng = match *slot {
            0 => FaultRng::fork(self.seed, i as u64),
            state => FaultRng(state),
        };
        let out = draw(&mut rng);
        *slot = rng.0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> DeployPlan {
        DeployPlan::from_named([
            (vec!["a0", "a1", "a2", "a3"], 1, 1.0),
            (vec!["b0", "b1", "b2"], 1, 2.0),
        ])
    }

    #[test]
    fn none_is_none() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert_eq!(p, FaultPlan::default());
        // Retry knobs alone do not activate the fault path.
        let spec = FaultSpec::new(1).retry(10, 2).lower(&tiny_plan());
        assert!(spec.is_none());
    }

    #[test]
    fn any_fault_knob_activates_the_plan() {
        let plan = tiny_plan();
        for spec in [
            FaultSpec::new(1).loss(0.1),
            FaultSpec::new(1).duplication(0.1),
            FaultSpec::new(1).delay(3),
            FaultSpec::new(1).churn(0, 1, 10, 20),
            FaultSpec::new(1).rep_timeout(100),
        ] {
            assert!(!spec.lower(&plan).is_none(), "{spec:?}");
        }
    }

    #[test]
    fn retry_delay_backs_off_exponentially_and_caps() {
        let p = FaultPlan {
            retry_base: 10,
            retry_backoff_cap: 3,
            ..FaultPlan::none()
        };
        assert_eq!(p.retry_delay(0), 10);
        assert_eq!(p.retry_delay(1), 20);
        assert_eq!(p.retry_delay(2), 40);
        assert_eq!(p.retry_delay(3), 80);
        assert_eq!(p.retry_delay(4), 80, "capped");
        assert_eq!(p.retry_delay(99), 80, "still capped");
    }

    #[test]
    fn churn_lowers_to_trailing_non_reps() {
        let plan = tiny_plan();
        let lowered = FaultSpec::new(7).churn(0, 2, 100, 200).lower(&plan);
        let names: Vec<&str> = lowered
            .churn
            .iter()
            .map(|&(m, _, _)| plan.machine_name(m))
            .collect();
        // Last two non-reps of cluster 0, reverse order.
        assert_eq!(names, vec!["a3", "a2"]);
        assert!(lowered.churn.iter().all(|&(_, l, r)| l == 100 && r == 200));
    }

    #[test]
    fn crash_rep_lowers_to_first_rep_with_open_window() {
        let plan = tiny_plan();
        let lowered = FaultSpec::new(7).crash_rep(1, 42).lower(&plan);
        assert_eq!(lowered.churn.len(), 1);
        let (m, leave, rejoin) = lowered.churn[0];
        assert_eq!(plan.machine_name(m), "b0");
        assert_eq!(leave, 42);
        assert_eq!(rejoin, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "missing cluster")]
    fn churn_on_missing_cluster_panics() {
        let _ = FaultSpec::new(1).churn(9, 1, 0, 1).lower(&tiny_plan());
    }

    #[test]
    fn rng_is_deterministic_and_roughly_uniform() {
        let mut a = FaultRng::new(0xDEAD);
        let mut b = FaultRng::new(0xDEAD);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut hits = 0usize;
        let mut rng = FaultRng::new(3);
        for _ in 0..10_000 {
            if rng.chance(0.3) {
                hits += 1;
            }
        }
        // Loose two-sided bound: 30% ± 5%.
        assert!((2_500..=3_500).contains(&hits), "hits = {hits}");
        assert!(!FaultRng::new(1).chance(0.0), "p=0 never fires");
        assert_eq!(FaultRng::new(1).below_inclusive(0), 0);
        for _ in 0..50 {
            assert!(FaultRng::new(9).below_inclusive(4) <= 4);
        }
    }

    #[test]
    fn forked_lanes_are_deterministic_and_distinct() {
        let mut a = FaultRng::fork(0xFA17, 3);
        let mut b = FaultRng::fork(0xFA17, 3);
        let mut c = FaultRng::fork(0xFA17, 4);
        let mut base = FaultRng::new(0xFA17);
        let (x, y, z, w) = (a.next_u64(), b.next_u64(), c.next_u64(), base.next_u64());
        assert_eq!(x, y, "same (seed, lane) replays");
        assert_ne!(x, z, "lanes diverge");
        assert_ne!(x, w, "lanes diverge from the base stream");
    }

    #[test]
    fn lanes_are_order_independent() {
        // Drawing lanes in different orders must not change any lane's
        // stream — the property per-machine fault schedules rely on.
        let mut fwd = RngLanes::new(42, 8);
        let mut rev = RngLanes::new(42, 8);
        let a: Vec<u64> = (0..8).map(|i| fwd.draw(i, FaultRng::next_u64)).collect();
        let b: Vec<u64> = (0..8)
            .rev()
            .map(|i| rev.draw(i, FaultRng::next_u64))
            .collect();
        for i in 0..8 {
            assert_eq!(a[i], b[7 - i], "lane {i}");
        }
    }
}
