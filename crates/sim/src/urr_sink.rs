//! Simulator → Upgrade Report Repository wiring.
//!
//! When a scenario is built with [`crate::ScenarioBuilder::with_urr`],
//! every test outcome the vendor *receives* is also deposited into the
//! attached [`mirage_report::Urr`] as a structured report, so a
//! million-machine deployment run produces a queryable repository the
//! vendor can interrogate afterwards (top-k failure groups, per-cluster
//! failure rates, signature drill-downs).
//!
//! The sink speaks the repository's fully interned batch protocol. The
//! fleet's machine names are not interned at all when the repository is
//! fresh: the sink hands it the plan's machine table
//! ([`mirage_report::Urr::intern_fleet`]) and the repository *adopts*
//! it — `MachineRef(i)` is `MachineId(i)`, the table is the one the
//! plan, the controller and the protocol already share, and no name is
//! copied or hashed. A repository that already knows other machines
//! interns the fleet name by name instead; which happens depends on the
//! repository alone, and it reads the same afterwards. The scenario's
//! problem names (which double as failure signatures) and the
//! `("upgrade", "r{n}")` release pairs are interned once, at
//! construction / first sight. The simulation loop then accumulates
//! `Copy` [`InternedReport`] records that are flushed through
//! [`mirage_report::Urr::deposit_interned_batch`] every `BATCH` records
//! (and once at run end), so the simulator's inner loop never allocates
//! a string for the repository.
//!
//! The sink is strictly observational: it is consulted only where the
//! vendor already handles a received report, deposits nothing into the
//! simulation, and when no repository is attached the driver carries a
//! `None` and the hot loop is bit-identical to the unwired simulator
//! (the 48-case recorded-reference properties run with the knob
//! disabled).

use std::sync::Arc;

use mirage_deploy::{DeployPlan, MachineId, ProblemId, PRIOR_RELEASE};
use mirage_report::{
    DurableUrr, InternedOutcome, InternedReport, MachineRef, ReleaseId, SigId, Urr,
};

use crate::scenario::Scenario;

/// Records per flush batch. Large enough to amortise the repository lock,
/// small enough to keep the buffer cache-resident.
const BATCH: usize = 4096;

/// Buffered, pre-interned bridge from the simulation loop to a shared
/// [`Urr`].
#[derive(Debug)]
pub(crate) struct UrrSink {
    urr: Arc<Urr>,
    /// When the scenario attached a durable repository
    /// ([`crate::ScenarioBuilder::with_durable_urr`]), flushes are
    /// journaled through it instead of deposited directly, so the
    /// campaign's repository is crash-recoverable.
    durable: Option<Arc<DurableUrr>>,
    /// Repository machine ref per [`MachineId`] (plan order); `None`
    /// when the ref is the id, as it is whenever the repository adopted
    /// or already holds the plan's table.
    machine_refs: Option<Vec<MachineRef>>,
    /// The plan cluster the last record's machine was in: a run
    /// deposits a wave's machines together, so it is probed first.
    last_cluster: usize,
    /// Repository signature per [`ProblemId`].
    sig_ids: Vec<SigId>,
    /// Repository release per simulated release number (grown lazily as
    /// fixes ship).
    release_ids: Vec<ReleaseId>,
    /// Interned `("upgrade", "prior")` release for rollback
    /// confirmations (the `PRIOR_RELEASE` sentinel), created on first
    /// sight so rollback-free runs never intern it.
    prior_release_id: Option<ReleaseId>,
    buf: Vec<InternedReport>,
}

impl UrrSink {
    /// Builds a sink for `scenario`: hands the plan's machine table to
    /// the repository ([`Urr::intern_fleet`]) and interns the problem
    /// signatures and the initial release.
    pub(crate) fn new(scenario: &Scenario, urr: Arc<Urr>) -> Self {
        let plan = &scenario.plan;
        let machine_refs = urr.intern_fleet(Arc::clone(plan.machines.shared()));
        let sig_ids = (0..scenario.problems.len())
            .map(|p| urr.intern_signature(scenario.problems.name(ProblemId(p as u16))))
            .collect();
        let release_ids = vec![urr.intern_release("upgrade", "r0")];
        UrrSink {
            urr,
            durable: scenario.durable.clone(),
            machine_refs,
            last_cluster: 0,
            sig_ids,
            release_ids,
            prior_release_id: None,
            buf: Vec::with_capacity(BATCH),
        }
    }

    /// The repository release for simulated release number `release`.
    /// The [`PRIOR_RELEASE`] rollback sentinel maps to a dedicated
    /// `("upgrade", "prior")` release rather than growing the dense
    /// table to it.
    fn release_id(&mut self, release: u32) -> ReleaseId {
        if release == PRIOR_RELEASE.0 {
            return *self
                .prior_release_id
                .get_or_insert_with(|| self.urr.intern_release("upgrade", "prior"));
        }
        while self.release_ids.len() <= release as usize {
            let version = format!("r{}", self.release_ids.len());
            self.release_ids
                .push(self.urr.intern_release("upgrade", &version));
        }
        self.release_ids[release as usize]
    }

    /// Records one vendor-received outcome; `problem` is `None` for a
    /// pass. Flushes when the batch fills.
    pub(crate) fn record(
        &mut self,
        plan: &DeployPlan,
        machine: MachineId,
        release: u32,
        problem: Option<ProblemId>,
    ) {
        let release = self.release_id(release);
        let outcome = match problem {
            None => InternedOutcome::Success,
            Some(p) => InternedOutcome::Failure(self.sig_ids[p.index()]),
        };
        let machine_ref = match &self.machine_refs {
            Some(refs) => refs[machine.index()],
            None => MachineRef(machine.index() as u32),
        };
        let cluster = self.cluster_of(plan, machine);
        self.buf.push(InternedReport {
            machine: machine_ref,
            cluster,
            release,
            outcome,
        });
        if self.buf.len() >= BATCH {
            self.flush();
        }
    }

    /// The id of the plan cluster `machine` is in
    /// ([`DeployPlan::cluster_of`]); 0 for a machine in none. The last
    /// cluster found is probed first, so a wave costs one probe a
    /// record, and the run keeps no per-machine table. (A plan that
    /// lists a machine in several clusters files it under one of them.)
    fn cluster_of(&mut self, plan: &DeployPlan, machine: MachineId) -> u32 {
        let cluster = match plan.clusters.get(self.last_cluster) {
            Some(c) if c.holds_in_place(machine) => Some(c),
            _ => plan.cluster_of(machine),
        };
        cluster.map_or(0, |c| {
            self.last_cluster = c.id;
            c.id as u32
        })
    }

    /// Deposits any buffered records — journaled through the durable
    /// layer when the scenario attached one.
    ///
    /// # Panics
    ///
    /// Panics if a durable repository's backing store fails (a
    /// simulation cannot meaningfully continue once its journal is
    /// gone; the in-memory backend is infallible).
    pub(crate) fn flush(&mut self) {
        if !self.buf.is_empty() {
            match &self.durable {
                Some(durable) => {
                    durable
                        .deposit_interned_batch(&self.buf)
                        .expect("urr journal write failed");
                }
                None => {
                    self.urr.deposit_interned_batch(&self.buf);
                }
            }
            self.buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;

    #[test]
    fn sink_interns_fleet_and_batches_deposits() {
        let urr = Arc::new(Urr::new());
        let scenario = ScenarioBuilder::new()
            .clusters(2, 3, 1)
            .problem_in_clusters("p", &[1])
            .build();
        let mut sink = UrrSink::new(&scenario, Arc::clone(&urr));
        let p = scenario.problems.id("p").unwrap();
        sink.record(&scenario.plan, MachineId(0), 0, None);
        sink.record(&scenario.plan, MachineId(3), 0, Some(p));
        sink.record(&scenario.plan, MachineId(4), 1, Some(p));
        assert_eq!(urr.stats().total, 0, "buffered until flush");
        sink.flush();
        let stats = urr.stats();
        assert_eq!((stats.successes, stats.failures), (1, 2));
        let groups = urr.failure_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].signature, "p");
        assert_eq!(groups[0].clusters, vec![1]);
        assert_eq!(groups[0].machines, vec!["c01-m00000", "c01-m00001"]);
        let summaries = urr.release_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].version, "r0");
        assert_eq!(summaries[1].version, "r1");
        // Flushing twice is a no-op.
        sink.flush();
        assert_eq!(urr.stats().total, 3);
    }
}
