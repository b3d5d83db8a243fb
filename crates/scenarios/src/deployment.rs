//! The deployment-protocol simulation scenarios (paper §4.3, Figures
//! 10–11).
//!
//! 100 000 machines in 20 equal clusters of 5 000 (a sound clustering:
//! 16 more clusters than the ideal 4), one representative per cluster.
//! Times: download 5, test 10, fix 500. Problems: one *prevalent*
//! problem affecting 15 % of machines (three whole clusters, mirroring
//! the failure rates reported by Beattie et al.) and two *non-prevalent*
//! problems of one cluster each.
//!
//! Cluster index doubles as vendor distance, so placing the problem
//! clusters at the *end* of the index range is the Balanced protocol's
//! best case (problems discovered as late as possible) and placing them
//! at the *start* is its worst case. RandomStaging is evaluated, as in
//! the paper, on a scenario whose problems are uniformly spread across
//! the deployment order. The imperfect-clustering variant (Figure 11)
//! injects a single misplaced non-representative machine into the first
//! or last cluster of the deployment order.

use mirage_deploy::{Protocol, ProtocolChoice};
use mirage_sim::{latency_cdf, Scenario, ScenarioBuilder, SimTime, Simulation};

/// Number of clusters in the paper's scenario.
pub const CLUSTERS: usize = 20;
/// Machines per cluster.
pub const CLUSTER_SIZE: usize = 5_000;
/// The prevalent problem's name.
pub const PREVALENT: &str = "prevalent";
/// First non-prevalent problem.
pub const RARE_A: &str = "rare-a";
/// Second non-prevalent problem.
pub const RARE_B: &str = "rare-b";

/// Where the five problem clusters sit in the deployment order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemPlacement {
    /// Problems in the last clusters — Balanced's best case.
    Late,
    /// Problems in the first clusters — Balanced's worst case.
    Early,
    /// Problems uniformly spread — the RandomStaging evaluation.
    Uniform,
}

impl ProblemPlacement {
    fn clusters(self) -> ([usize; 3], usize, usize) {
        match self {
            ProblemPlacement::Late => ([15, 16, 17], 18, 19),
            ProblemPlacement::Early => ([0, 1, 2], 3, 4),
            ProblemPlacement::Uniform => ([3, 9, 15], 6, 12),
        }
    }
}

/// Builds the sound-clustering scenario with the given placement.
pub fn sound_scenario(placement: ProblemPlacement) -> Scenario {
    let (prevalent, rare_a, rare_b) = placement.clusters();
    ScenarioBuilder::new()
        .clusters(CLUSTERS, CLUSTER_SIZE, 1)
        .problem_in_clusters(PREVALENT, &prevalent)
        .problem_in_clusters(RARE_A, &[rare_a])
        .problem_in_clusters(RARE_B, &[rare_b])
        .build()
}

/// Builds the imperfect-clustering scenario: sound base plus one
/// misplaced (problematic, non-representative) machine in the given
/// cluster.
pub fn imperfect_scenario(placement: ProblemPlacement, misplaced_cluster: usize) -> Scenario {
    let (prevalent, rare_a, rare_b) = placement.clusters();
    ScenarioBuilder::new()
        .clusters(CLUSTERS, CLUSTER_SIZE, 1)
        .problem_in_clusters(PREVALENT, &prevalent)
        .problem_in_clusters(RARE_A, &[rare_a])
        .problem_in_clusters(RARE_B, &[rare_b])
        .misplaced_machine(misplaced_cluster, "misplaced")
        .build()
}

/// One Figure 10/11 curve: protocol label plus its per-cluster latency
/// CDF and headline metrics.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Curve label as printed in the figure legend.
    pub label: String,
    /// CDF points `(time, fraction of clusters)`.
    pub cdf: Vec<(SimTime, f64)>,
    /// Upgrade overhead (failed tests).
    pub overhead: usize,
    /// Completion time.
    pub completion: Option<SimTime>,
}

fn curve(label: &str, scenario: &Scenario, protocol: &mut dyn Protocol) -> Curve {
    let metrics = Simulation::new(scenario).run(protocol);
    let latencies = metrics.cluster_latencies(&scenario.plan, 1.0);
    Curve {
        label: label.to_string(),
        cdf: latency_cdf(&latencies),
        overhead: metrics.failed_tests,
        completion: metrics.completion_time,
    }
}

/// Runs the five Figure 10 curves under sound clustering.
pub fn figure10() -> Vec<Curve> {
    let mut curves = Vec::new();

    let late = sound_scenario(ProblemPlacement::Late);
    curves.push(curve(
        "NoStaging",
        &late,
        &mut ProtocolChoice::NoStaging.build(late.plan.clone(), 1.0),
    ));
    curves.push(curve(
        "Balanced (best)",
        &late,
        &mut ProtocolChoice::Balanced.build(late.plan.clone(), 1.0),
    ));

    // RandomStaging: the problems, not the order, are spread at random
    // (module docs), so the staging walks the uniform scenario's
    // clusters in index order.
    let uniform = sound_scenario(ProblemPlacement::Uniform);
    curves.push(curve(
        "RandomStaging",
        &uniform,
        &mut ProtocolChoice::Balanced.build(uniform.plan.clone(), 1.0),
    ));
    curves.push(curve(
        "FrontLoading",
        &late,
        &mut ProtocolChoice::FrontLoading.build(late.plan.clone(), 1.0),
    ));

    let early = sound_scenario(ProblemPlacement::Early);
    curves.push(curve(
        "Balanced (worst)",
        &early,
        &mut ProtocolChoice::Balanced.build(early.plan.clone(), 1.0),
    ));
    curves
}

/// Runs the five Figure 11 curves under imperfect clustering.
///
/// "(first)" / "(last)" gives the position of the misplaced machine's
/// cluster in the protocol's deployment order.
pub fn figure11() -> Vec<Curve> {
    let mut curves = Vec::new();

    // NoStaging is insensitive to the misplaced machine's position.
    let base = imperfect_scenario(ProblemPlacement::Late, 0);
    curves.push(curve(
        "NoStaging",
        &base,
        &mut ProtocolChoice::NoStaging.build(base.plan.clone(), 1.0),
    ));

    // Balanced deploys ascending: first cluster = 0, last = 19. Its
    // problems sit late (best case), so the misplaced machine goes into
    // an otherwise-healthy cluster.
    let first = imperfect_scenario(ProblemPlacement::Late, 0);
    curves.push(curve(
        "Balanced-best (first)",
        &first,
        &mut ProtocolChoice::Balanced.build(first.plan.clone(), 1.0),
    ));
    let last = imperfect_scenario(ProblemPlacement::Late, 14);
    curves.push(curve(
        "Balanced-best (last)",
        &last,
        &mut ProtocolChoice::Balanced.build(last.plan.clone(), 1.0),
    ));

    // FrontLoading deploys descending: first cluster = 19, last = 0.
    let fl_first = imperfect_scenario(ProblemPlacement::Early, 19);
    curves.push(curve(
        "FrontLoading (first)",
        &fl_first,
        &mut ProtocolChoice::FrontLoading.build(fl_first.plan.clone(), 1.0),
    ));
    let fl_last = imperfect_scenario(ProblemPlacement::Early, 5);
    curves.push(curve(
        "FrontLoading (last)",
        &fl_last,
        &mut ProtocolChoice::FrontLoading.build(fl_last.plan.clone(), 1.0),
    ));
    curves
}

/// The §4.3.2 upgrade-overhead comparison under sound clustering.
///
/// Returns `(protocol, overhead)` rows: NoStaging's overhead is `m`
/// (every problematic machine), Balanced's and RandomStaging's is `p`
/// (one representative per problem), FrontLoading's is `p + Cp`
/// (representatives of every cluster sharing the prevalent problem).
pub fn overhead_table() -> Vec<(String, usize)> {
    figure10()
        .into_iter()
        .map(|c| (c.label, c.overhead))
        .collect()
}

/// Convenience: the expected problematic-machine count `m`.
pub fn problematic_machines() -> usize {
    5 * CLUSTER_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smaller clusters keep debug-mode tests quick; the repro harness
    /// runs the full 100 000-machine version.
    fn small(placement: ProblemPlacement) -> Scenario {
        let (prevalent, rare_a, rare_b) = placement.clusters();
        ScenarioBuilder::new()
            .clusters(CLUSTERS, 50, 1)
            .problem_in_clusters(PREVALENT, &prevalent)
            .problem_in_clusters(RARE_A, &[rare_a])
            .problem_in_clusters(RARE_B, &[rare_b])
            .build()
    }

    #[test]
    fn overheads_match_paper_formulas() {
        let s = small(ProblemPlacement::Late);
        let m = 5 * 50;
        let nostaging =
            Simulation::new(&s).run(&mut ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0));
        assert_eq!(nostaging.failed_tests, m, "NoStaging overhead = m");
        let balanced =
            Simulation::new(&s).run(&mut ProtocolChoice::Balanced.build(s.plan.clone(), 1.0));
        assert_eq!(balanced.failed_tests, 3, "Balanced overhead = p");
        let frontloading =
            Simulation::new(&s).run(&mut ProtocolChoice::FrontLoading.build(s.plan.clone(), 1.0));
        assert_eq!(
            frontloading.failed_tests,
            3 + 2,
            "FrontLoading overhead = p + Cp"
        );
        let random = Simulation::new(&s)
            .run(&mut ProtocolChoice::RandomStaging { seed: 7 }.build(s.plan.clone(), 1.0));
        assert_eq!(random.failed_tests, 3, "RandomStaging overhead = p");
    }

    #[test]
    fn nostaging_cdf_shape() {
        let s = small(ProblemPlacement::Late);
        let m = Simulation::new(&s).run(&mut ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0));
        let cdf = latency_cdf(&m.cluster_latencies(&s.plan, 1.0));
        // 75 % of clusters pass at download+test = 15.
        assert_eq!(cdf[0], (15, 0.75));
        // Everyone done after the three sequential fixes.
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(m.completion_time, Some(1530));
    }

    #[test]
    fn balanced_best_beats_frontloading_early_and_loses_late() {
        let s = small(ProblemPlacement::Late);
        let balanced =
            Simulation::new(&s).run(&mut ProtocolChoice::Balanced.build(s.plan.clone(), 1.0));
        let fl =
            Simulation::new(&s).run(&mut ProtocolChoice::FrontLoading.build(s.plan.clone(), 1.0));
        let b_cdf = latency_cdf(&balanced.cluster_latencies(&s.plan, 1.0));
        let f_cdf = latency_cdf(&fl.cluster_latencies(&s.plan, 1.0));
        // Balanced's first cluster completes far earlier than
        // FrontLoading's (which waits out phase 1 debugging).
        assert!(b_cdf[0].0 < f_cdf[0].0);
        // ...but FrontLoading's *last* cluster finishes sooner (the
        // paper's crossover).
        assert!(f_cdf.last().unwrap().0 < b_cdf.last().unwrap().0);
    }

    #[test]
    fn balanced_worst_is_slower_early_than_best() {
        let best = small(ProblemPlacement::Late);
        let worst = small(ProblemPlacement::Early);
        let b =
            Simulation::new(&best).run(&mut ProtocolChoice::Balanced.build(best.plan.clone(), 1.0));
        let w = Simulation::new(&worst)
            .run(&mut ProtocolChoice::Balanced.build(worst.plan.clone(), 1.0));
        let b_cdf = latency_cdf(&b.cluster_latencies(&best.plan, 1.0));
        let w_cdf = latency_cdf(&w.cluster_latencies(&worst.plan, 1.0));
        // Worst case hits the problems immediately: first completion late.
        assert!(w_cdf[0].0 > b_cdf[0].0);
    }

    #[test]
    fn misplaced_machine_slows_the_affected_order_position() {
        let (prevalent, rare_a, rare_b) = ProblemPlacement::Late.clusters();
        let build = |mis: usize| {
            ScenarioBuilder::new()
                .clusters(CLUSTERS, 50, 1)
                .problem_in_clusters(PREVALENT, &prevalent)
                .problem_in_clusters(RARE_A, &[rare_a])
                .problem_in_clusters(RARE_B, &[rare_b])
                .misplaced_machine(mis, "misplaced")
                .build()
        };
        let first = build(0);
        let last = build(14);
        let m_first = Simulation::new(&first)
            .run(&mut ProtocolChoice::Balanced.build(first.plan.clone(), 1.0));
        let m_last =
            Simulation::new(&last).run(&mut ProtocolChoice::Balanced.build(last.plan.clone(), 1.0));
        // Both runs pay one extra failure.
        assert_eq!(m_first.failed_tests, 4);
        assert_eq!(m_last.failed_tests, 4);
        // A misplaced machine in the first cluster delays everything.
        assert!(
            m_first.completion_time.unwrap() >= m_last.completion_time.unwrap(),
            "first: {:?}, last: {:?}",
            m_first.completion_time,
            m_last.completion_time
        );
    }

    #[test]
    fn figure_helpers_produce_five_curves() {
        // Run the full-size figures once in release-ish CI: they are the
        // repro harness's direct inputs. Keep assertions structural.
        let placements = [
            ProblemPlacement::Late,
            ProblemPlacement::Early,
            ProblemPlacement::Uniform,
        ];
        for p in placements {
            let s = small(p);
            assert_eq!(s.plan.clusters.len(), CLUSTERS);
        }
    }
}
