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
//! (the 48-case reference-equivalence properties run with the knob
//! disabled).

use std::sync::Arc;

use mirage_deploy::{MachineId, ProblemId, PRIOR_RELEASE};
use mirage_report::{
    DurableUrr, InternedOutcome, InternedReport, MachineRef, ReleaseId, SigId, Urr,
};

use crate::scenario::Scenario;

/// Records per flush batch. Large enough to amortise shard locking,
/// small enough to keep the buffer cache-resident.
const BATCH: usize = 4096;

/// Buffered, pre-interned bridge from the simulation loop to a shared
/// [`Urr`].
#[derive(Debug)]
pub struct UrrSink {
    urr: Arc<Urr>,
    /// When the scenario attached a durable repository
    /// ([`crate::ScenarioBuilder::with_durable_urr`]), flushes are
    /// journaled through it instead of deposited directly, so the
    /// campaign's repository is crash-recoverable.
    durable: Option<Arc<DurableUrr>>,
    /// Repository machine ref per [`MachineId`] (plan order).
    machine_refs: Vec<MachineRef>,
    /// Cluster id per [`MachineId`] (plan order).
    machine_cluster: Vec<u32>,
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
    pub fn new(scenario: &Scenario, urr: Arc<Urr>) -> Self {
        let plan = &scenario.plan;
        let machine_refs = urr.intern_fleet(Arc::clone(plan.machines.shared()));
        let mut machine_cluster = vec![0u32; machine_refs.len()];
        for cluster in &plan.clusters {
            for m in &cluster.members {
                machine_cluster[m.index()] = cluster.id as u32;
            }
        }
        let sig_ids = (0..scenario.problems.len())
            .map(|p| urr.intern_signature(scenario.problems.name(ProblemId(p as u16))))
            .collect();
        let release_ids = vec![urr.intern_release("upgrade", "r0")];
        UrrSink {
            urr,
            durable: scenario.durable.clone(),
            machine_refs,
            machine_cluster,
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
    pub fn record(&mut self, machine: MachineId, release: u32, problem: Option<ProblemId>) {
        let release = self.release_id(release);
        let outcome = match problem {
            None => InternedOutcome::Success,
            Some(p) => InternedOutcome::Failure(self.sig_ids[p.index()]),
        };
        self.buf.push(InternedReport {
            machine: self.machine_refs[machine.index()],
            cluster: self.machine_cluster[machine.index()],
            release,
            outcome,
        });
        if self.buf.len() >= BATCH {
            self.flush();
        }
    }

    /// Deposits any buffered records — journaled through the durable
    /// layer when the scenario attached one.
    ///
    /// # Panics
    ///
    /// Panics if a durable repository's backing store fails (a
    /// simulation cannot meaningfully continue once its journal is
    /// gone; the in-memory backend is infallible).
    pub fn flush(&mut self) {
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
        let urr = Arc::new(Urr::with_shards(2));
        let scenario = ScenarioBuilder::new()
            .clusters(2, 3, 1)
            .problem_in_clusters("p", &[1])
            .build();
        let mut sink = UrrSink::new(&scenario, Arc::clone(&urr));
        let p = scenario.problems.id("p").unwrap();
        sink.record(MachineId(0), 0, None);
        sink.record(MachineId(3), 0, Some(p));
        sink.record(MachineId(4), 1, Some(p));
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
