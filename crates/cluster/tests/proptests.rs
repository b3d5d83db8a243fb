//! Randomised property tests for the clustering pipeline.
//!
//! Populations are generated with a seeded xorshift generator, so every
//! run exercises the same cases deterministically and offline.

use std::collections::BTreeSet;

use mirage_cluster::{ClusterEngine, MachineInfo};
use mirage_fingerprint::{DiffSet, Item};

/// Deterministic xorshift64 generator for test populations.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A machine with a random small parsed/content diff and an optional
/// overlapping-app marker. Parsed items come from `a..=d`, content
/// items from `w..=z`.
fn random_machine(rng: &mut Rng, id: usize) -> MachineInfo {
    let mut diff = DiffSet::empty(format!("m{id}"));
    let parsed_letters = ["a", "b", "c", "d"];
    let content_letters = ["w", "x", "y", "z"];
    for _ in 0..rng.below(4) {
        diff.parsed
            .insert(Item::new([parsed_letters[rng.below(4)]]));
    }
    for _ in 0..rng.below(4) {
        diff.content
            .insert(Item::new([content_letters[rng.below(4)]]));
    }
    let mut info = MachineInfo::new(diff);
    if rng.below(2) == 0 {
        info.overlapping_apps.insert("php".into());
    }
    info
}

fn population(rng: &mut Rng, n: usize) -> Vec<MachineInfo> {
    (0..n).map(|i| random_machine(rng, i)).collect()
}

/// Every machine lands in exactly one cluster.
#[test]
fn clustering_is_a_partition() {
    let mut rng = Rng::new(0xc1);
    for case in 0..48 {
        let machines = population(&mut rng, 12);
        let d = rng.below(6);
        let clustering = ClusterEngine::new(d).cluster(&machines);
        let seen = clustering.validate_partition().expect("partition");
        assert_eq!(seen.len(), machines.len(), "case {case}");
        assert_eq!(clustering.machine_count(), machines.len(), "case {case}");
    }
}

/// The diameter bound holds: no two members of a cluster are farther
/// apart (content distance) than `d`.
#[test]
fn diameter_bound_holds() {
    let mut rng = Rng::new(0xc2);
    for case in 0..48 {
        let machines = population(&mut rng, 10);
        let d = rng.below(6);
        let clustering = ClusterEngine::new(d).cluster(&machines);
        let by_id = |id: &str| machines.iter().find(|m| m.id() == id).unwrap();
        for c in &clustering.clusters {
            for a in &c.members {
                for b in &c.members {
                    let da = by_id(a);
                    let db = by_id(b);
                    assert!(
                        da.diff.content_distance(&db.diff) <= d,
                        "case {case}: {a} and {b} violate diameter {d}"
                    );
                }
            }
        }
    }
}

/// Members of one cluster share parsed diffs and app sets exactly.
#[test]
fn cluster_members_agree_on_parsed_and_apps() {
    let mut rng = Rng::new(0xc3);
    for case in 0..48 {
        let machines = population(&mut rng, 10);
        let d = rng.below(6);
        let clustering = ClusterEngine::new(d).cluster(&machines);
        let by_id = |id: &str| machines.iter().find(|m| m.id() == id).unwrap();
        for c in &clustering.clusters {
            let first = by_id(&c.members[0]);
            for m in &c.members[1..] {
                let other = by_id(m);
                assert_eq!(&first.diff.parsed, &other.diff.parsed, "case {case}");
                assert_eq!(
                    &first.overlapping_apps, &other.overlapping_apps,
                    "case {case}"
                );
            }
        }
    }
}

/// Clustering is invariant under input permutation (same member sets).
#[test]
fn deterministic_under_permutation() {
    let mut rng = Rng::new(0xc4);
    for case in 0..48 {
        let machines = population(&mut rng, 8);
        let d = rng.below(5);
        let a = ClusterEngine::new(d).cluster(&machines);
        let mut reversed = machines.clone();
        reversed.reverse();
        let b = ClusterEngine::new(d).cluster(&reversed);
        let sets = |c: &mirage_cluster::Clustering| -> BTreeSet<Vec<String>> {
            c.clusters.iter().map(|cl| cl.members.clone()).collect()
        };
        assert_eq!(sets(&a), sets(&b), "case {case}");
    }
}

/// Diameter 0 yields clusters of machines with identical diffs.
#[test]
fn zero_diameter_is_equality_grouping() {
    let mut rng = Rng::new(0xc5);
    for case in 0..48 {
        let machines = population(&mut rng, 10);
        let clustering = ClusterEngine::new(0).cluster(&machines);
        let by_id = |id: &str| machines.iter().find(|m| m.id() == id).unwrap();
        for c in &clustering.clusters {
            let first = by_id(&c.members[0]);
            for m in &c.members[1..] {
                let other = by_id(m);
                assert_eq!(&first.diff.content, &other.diff.content, "case {case}");
            }
        }
    }
}

/// With an unbounded diameter, phase 2 never splits an original
/// cluster: cluster count is determined by parsed diffs and app sets
/// alone.
#[test]
fn huge_diameter_collapses_phase2() {
    let mut rng = Rng::new(0xc6);
    for case in 0..48 {
        let machines = population(&mut rng, 10);
        let clustering = ClusterEngine::new(10_000).cluster(&machines);
        let mut keys = BTreeSet::new();
        for m in &machines {
            keys.insert((m.diff.parsed.clone(), m.overlapping_apps.clone()));
        }
        assert_eq!(clustering.len(), keys.len(), "case {case}");
    }
}

/// A permutation of `machines` driven by the seeded generator
/// (Fisher–Yates).
fn shuffled(rng: &mut Rng, machines: &[MachineInfo]) -> Vec<MachineInfo> {
    let mut out = machines.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.below(i + 1);
        out.swap(i, j);
    }
    out
}

/// The fast QT path (interned kernel + incremental merge aggregates +
/// parallel matrix) is bit-identical — same groups, same member order,
/// same group order — to the retained naive reference implementation,
/// across random fleets, diameters 0–8, and permuted input orders.
#[test]
fn qt_fast_path_matches_reference() {
    use mirage_cluster::{qt_cluster_indices, qt_cluster_indices_reference};

    let mut rng = Rng::new(0xd1);
    for case in 0..32 {
        let machines = population(&mut rng, 14);
        for variant in 0..3 {
            let input = if variant == 0 {
                machines.clone()
            } else {
                shuffled(&mut rng, &machines)
            };
            let refs: Vec<&MachineInfo> = input.iter().collect();
            for d in 0..=8usize {
                let fast = qt_cluster_indices(&refs, d);
                let naive = qt_cluster_indices_reference(&refs, d);
                assert_eq!(fast, naive, "case {case} variant {variant} diameter {d}");
            }
        }
    }
}

/// Tie-heavy replicated fleets — what staged deployment clusters for:
/// a few templates, each copied many times, so almost every candidate
/// merge ties at average 0.0 and the canonical tie-break decides. Ids
/// sort differently as strings and as numbers (`m10` < `m2`). Groups
/// equal the reference on both sides of the parallel-matrix threshold,
/// under permutation, and every merge is counted.
#[test]
fn replicated_fleets_match_reference() {
    use std::sync::Arc;

    use mirage_cluster::{qt_cluster_indices_instrumented, qt_cluster_indices_reference};
    use mirage_telemetry::{Registry, Telemetry};

    // `PARALLEL_THRESHOLD` in `qt.rs`.
    const PARALLEL_THRESHOLD: usize = 64;
    let letters = ["u", "v", "w", "x", "y", "z"];
    let mut rng = Rng::new(0xd4);
    let (mut sequential, mut parallel) = (0, 0);
    for case in 0..10 {
        let templates = 2 + rng.below(4);
        let copies = 1 + rng.below(23);
        let contents: Vec<BTreeSet<Item>> = (0..templates)
            .map(|_| {
                (0..rng.below(4))
                    .map(|_| Item::new([letters[rng.below(6)]]))
                    .collect()
            })
            .collect();
        let machines: Vec<MachineInfo> = (0..templates * copies)
            .map(|i| {
                let mut diff = DiffSet::empty(format!("m{i}"));
                diff.content = contents[i % templates].clone();
                MachineInfo::new(diff)
            })
            .collect();
        if machines.len() < PARALLEL_THRESHOLD {
            sequential += 1;
        } else {
            parallel += 1;
        }
        for variant in 0..3 {
            let input = if variant == 0 {
                machines.clone()
            } else {
                shuffled(&mut rng, &machines)
            };
            let refs: Vec<&MachineInfo> = input.iter().collect();
            for d in 0..=4usize {
                let registry = Arc::new(Registry::new(64));
                let telemetry = Telemetry::from_registry(Arc::clone(&registry));
                let fast = qt_cluster_indices_instrumented(&refs, d, &telemetry);
                assert_eq!(
                    fast,
                    qt_cluster_indices_reference(&refs, d),
                    "case {case} variant {variant} diameter {d}"
                );
                let merges = registry
                    .snapshot()
                    .counters
                    .get("cluster.qt_merges")
                    .copied();
                assert_eq!(
                    merges.unwrap_or(0) as usize,
                    refs.len() - fast.len(),
                    "case {case} variant {variant} diameter {d}"
                );
            }
        }
    }
    assert!(
        sequential > 0 && parallel > 0,
        "sizes must cross the parallel threshold: {sequential} below, {parallel} at or above"
    );
}

/// The full engine pipeline built on the fast QT path produces a
/// bit-identical `Clustering` — ids, members, labels, app sets, vendor
/// distances — to the same pipeline built on the reference QT loop.
#[test]
fn engine_matches_reference_pipeline_exactly() {
    use std::collections::BTreeSet as Set;

    use mirage_cluster::phase1::original_clusters;
    use mirage_cluster::qt_cluster_indices_reference;
    use mirage_cluster::split::split_by_app_set;
    use mirage_cluster::{Cluster, ClusterId, Clustering};
    use mirage_fingerprint::ItemSet;

    // Mirrors `ClusterEngine::cluster` with the reference QT loop.
    fn reference_clustering(machines: &[MachineInfo], diameter: usize) -> Clustering {
        let refs: Vec<&MachineInfo> = machines.iter().collect();
        let mut final_groups: Vec<Vec<&MachineInfo>> = Vec::new();
        for original in original_clusters(&refs) {
            for idx_group in qt_cluster_indices_reference(&original, diameter) {
                let sub: Vec<&MachineInfo> = idx_group.into_iter().map(|i| original[i]).collect();
                for split in split_by_app_set(&sub) {
                    final_groups.push(split);
                }
            }
        }
        let clusters = final_groups
            .into_iter()
            .enumerate()
            .map(|(i, group)| {
                let mut members: Vec<String> = group.iter().map(|m| m.id().to_string()).collect();
                members.sort();
                let label: ItemSet = group
                    .iter()
                    .flat_map(|m| m.diff.all_items().into_iter())
                    .collect();
                let app_set: Set<String> = group
                    .first()
                    .map(|m| m.overlapping_apps.clone())
                    .unwrap_or_default();
                let vendor_distance = if group.is_empty() {
                    0.0
                } else {
                    group
                        .iter()
                        .map(|m| m.diff.vendor_distance())
                        .sum::<usize>() as f64
                        / group.len() as f64
                };
                Cluster {
                    id: ClusterId(i),
                    members,
                    label,
                    app_set,
                    vendor_distance,
                }
            })
            .collect();
        Clustering { clusters }
    }

    let mut rng = Rng::new(0xd2);
    for case in 0..24 {
        let machines = population(&mut rng, 12);
        let permuted = shuffled(&mut rng, &machines);
        for d in 0..=6usize {
            for (name, input) in [("input order", &machines), ("permuted", &permuted)] {
                let fast = ClusterEngine::new(d).cluster(input);
                let reference = reference_clustering(input, d);
                assert_eq!(fast, reference, "case {case} {name} diameter {d}");
            }
        }
    }
}

/// Instrumented-vs-plain determinism for clustering (the sim crate's
/// pattern): on a population large enough to engage the parallel
/// distance matrix, the parallel/instrumented engine produces a
/// bit-identical `Clustering` to the plain engine, and the same
/// `cluster.qt_merges` count as the forced-sequential QT path.
#[test]
fn instrumented_parallel_clustering_is_bit_identical() {
    use std::sync::Arc;

    use mirage_cluster::qt::qt_cluster_indices_sequential;
    use mirage_telemetry::{Registry, Telemetry};

    let mut rng = Rng::new(0xd3);
    // One phase-1 group of 96 machines (> the parallel threshold): all
    // parsed diffs empty, content diffs random.
    let machines: Vec<MachineInfo> = (0..96)
        .map(|i| {
            let mut diff = mirage_fingerprint::DiffSet::empty(format!("m{i:03}"));
            let content_letters = ["u", "v", "w", "x", "y", "z"];
            for _ in 0..rng.below(5) {
                diff.content
                    .insert(Item::new([content_letters[rng.below(6)]]));
            }
            MachineInfo::new(diff)
        })
        .collect();

    for d in [0usize, 2, 4] {
        let registry = Arc::new(Registry::new(256));
        let instrumented = ClusterEngine::new(d)
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
            .cluster(&machines);
        let plain = ClusterEngine::new(d).cluster(&machines);
        assert_eq!(
            instrumented, plain,
            "diameter {d} diverged under instrumentation"
        );
        let parallel_snap = registry.snapshot();

        // Forced-sequential QT over the same (single) phase-1 group.
        let refs: Vec<&MachineInfo> = machines.iter().collect();
        let seq_registry = Arc::new(Registry::new(256));
        let seq_groups = qt_cluster_indices_sequential(
            &refs,
            d,
            &Telemetry::from_registry(Arc::clone(&seq_registry)),
        );
        let seq_snap = seq_registry.snapshot();
        assert_eq!(
            parallel_snap.counters.get("cluster.qt_merges"),
            seq_snap.counters.get("cluster.qt_merges"),
            "diameter {d}: merge counts diverged between parallel and sequential"
        );
        assert_eq!(
            parallel_snap.counters.get("cluster.qt_row_rescans"),
            seq_snap.counters.get("cluster.qt_row_rescans"),
            "diameter {d}: row rescans diverged between parallel and sequential"
        );
        assert_eq!(
            parallel_snap.counters.get("cluster.distance_evals"),
            seq_snap.counters.get("cluster.distance_evals"),
            "diameter {d}: distance telemetry diverged"
        );
        // And the sequential groups are the groups the engine labelled.
        let seq_ids: Vec<Vec<String>> = seq_groups
            .iter()
            .map(|g| g.iter().map(|&i| machines[i].id().to_string()).collect())
            .collect();
        let mut engine_ids: Vec<Vec<String>> = instrumented
            .clusters
            .iter()
            .map(|c| c.members.clone())
            .collect();
        engine_ids.sort();
        let mut seq_sorted = seq_ids.clone();
        seq_sorted.sort();
        assert_eq!(engine_ids, seq_sorted, "diameter {d}");
    }
}
