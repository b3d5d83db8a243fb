//! Phase 2: deterministic QT-style diameter-bounded clustering.
//!
//! Content-based fingerprints carry no semantic information, so equality
//! grouping would shatter machines over irrelevant byte differences.
//! Instead, machines within one original cluster are merged greedily:
//! each step performs the merge that minimises the average inter-machine
//! distance of the merged cluster, subject to the merged cluster's
//! *diameter* (maximum pairwise distance) not exceeding the
//! vendor-defined bound `d`. The paper adapts the Quality Threshold (QT)
//! algorithm of Heyer et al. and rejects k-means for its
//! non-determinism; this implementation breaks all ties on a canonical
//! member-id key, making it fully deterministic *and* invariant under
//! input permutation.
//!
//! # Performance
//!
//! The paper concedes phase 2 is quadratic in the size of each original
//! cluster (§3.2.3); at fleet scale the constant factor decides whether
//! that is tolerable. The hot path here is built in three layers:
//!
//! 1. **Interned distances** — every content item is interned to a
//!    `u32` through an [`ItemPool`]; pairwise distances are sorted-merge
//!    counts over integer slices ([`LoweredDiff::distance`]), with no
//!    string comparisons or `BTreeSet` walks.
//! 2. **Parallel distance matrix** — the n(n−1)/2 pairwise distances
//!    (upper triangle only, which is what `cluster.distance_evals`
//!    counts) are filled with `std::thread::scope` over round-robin row
//!    chunks (std-only) once the input is large enough to amortise
//!    thread spawns. The result is bit-identical to the sequential fill.
//! 3. **Incremental merge aggregates, integer tie-break, and a
//!    nearest-partner cache** — instead of recomputing each candidate
//!    merge's (sum, max, pairs) from scratch every greedy iteration
//!    (O(k²·m²)), per-pair aggregates are maintained
//!    Lance–Williams-style: `sum(A∪B,C) = sum(A,C) + sum(B,C)` and
//!    `max(A∪B,C) = max(max(A,C), max(B,C))`. Machines are ranked by id
//!    once and a merge keeps the lower-ranked slot, so the canonical
//!    tie-break key (sorted member ids) of a candidate is just its
//!    sorted slot pair (`tie_key` has the proof) — no id list is ever
//!    built or compared. Each slot caches its nearest partner among the
//!    higher slots; an iteration picks the best of the k cached rows,
//!    does O(k) aggregate updates and O(1) work per row, and rescans
//!    only the rows whose cached partner was merged away *and* got
//!    worse (`cluster.qt_row_rescans`). On fleets of replicated
//!    machines — what staged deployment clusters for — nothing gets
//!    worse (every average is 0), so the whole loop is O(n²).
//!
//! The original naive merge loop survives as
//! [`qt_cluster_indices_reference`]; seeded property tests assert the
//! fast path is bit-identical to it across random populations,
//! diameters, and input permutations.

use mirage_fingerprint::{ItemPool, LoweredDiff};
use mirage_telemetry::Telemetry;

use crate::cluster::MachineInfo;

/// Item comparisons at which the matrix fill fans out over threads;
/// below it the fill stays on one thread. A pair's distance is a merge
/// over both diffs, so a fill compares `(n - 1) ×` the total diff
/// length. Timed on a 2-core host over the dense fleets of `repro
/// clustering-perf` (one item a machine), the threaded fill was slower
/// at 200 machines (126 µs against 52), at 500 (391 against 280) and at
/// 1 000 (1.28–1.35 ms against 1.09–1.14), level within noise at 1 500
/// to 1 750, and faster at 2 000 in four runs of five (3.3–3.5 ms
/// against 4.4–4.7): the crossover is near 1 750 machines, some three
/// million comparisons.
/// The replicated fleets of the paper's MySQL table lower to identical,
/// empty diffs and compare nothing at any size.
const PARALLEL_COMPARISONS: usize = 3 << 20;

/// Clusters `machines` with diameter bound `diameter`.
///
/// Distance is the Manhattan distance over content-based diff items.
/// Returns groups of indexes into `machines`, each sorted, in
/// deterministic order. `diameter = 0` merges only machines with
/// identical content items.
///
/// Ties between candidate merges break on the machine ids, so the
/// grouping does not depend on input order as long as ids are distinct.
/// Machines sharing an id are ordered among themselves by input
/// position: still deterministic, but no longer permutation-invariant,
/// and not comparable with [`qt_cluster_indices_reference`].
pub fn qt_cluster_indices(machines: &[&MachineInfo], diameter: usize) -> Vec<Vec<usize>> {
    qt_cluster_indices_instrumented(machines, diameter, &Telemetry::noop())
}

/// [`qt_cluster_indices`] with instrumentation attached.
///
/// Records the `cluster.distance_evals` counter (pairwise fingerprint
/// distance computations), one `cluster.qt_merges` count per greedy
/// merge iteration, and `cluster.qt_row_rescans`, the rows the
/// nearest-partner cache had to rescan (per merge, its miss rate). The
/// clustering result is identical to the uninstrumented call, and
/// result and counters are identical whether the distance matrix was
/// filled sequentially or in parallel.
pub fn qt_cluster_indices_instrumented(
    machines: &[&MachineInfo],
    diameter: usize,
    telemetry: &Telemetry,
) -> Vec<Vec<usize>> {
    qt_cluster_indices_inner(machines, diameter, telemetry, true)
}

/// [`qt_cluster_indices_instrumented`] with the parallel matrix fill
/// disabled, regardless of population size.
///
/// Exists so tests can assert the parallel and sequential paths produce
/// bit-identical clusterings and telemetry; prefer the auto-selecting
/// entry points elsewhere.
#[doc(hidden)]
pub fn qt_cluster_indices_sequential(
    machines: &[&MachineInfo],
    diameter: usize,
    telemetry: &Telemetry,
) -> Vec<Vec<usize>> {
    qt_cluster_indices_inner(machines, diameter, telemetry, false)
}

fn qt_cluster_indices_inner(
    machines: &[&MachineInfo],
    diameter: usize,
    telemetry: &Telemetry,
    allow_parallel: bool,
) -> Vec<Vec<usize>> {
    let n = machines.len();
    if n == 0 {
        return Vec::new();
    }
    // Slot `s` is the machine of rank `s`; everything below works on
    // slots, which makes the canonical tie-break integer compares.
    let order = canonical_order(machines);

    // Layer 1: lower every content diff onto interned u32 ids.
    let mut pool = ItemPool::new();
    let lowered: Vec<LoweredDiff> = order
        .iter()
        .map(|&i| pool.lower(&machines[i].diff.content))
        .collect();

    // Layer 2: pairwise distances, upper triangle.
    let dist = distance_matrix(&lowered, fill_threads(&lowered, allow_parallel));
    if n > 1 {
        telemetry.counter("cluster.distance_evals", (n * (n - 1) / 2) as u64);
    }

    // Layer 3: greedy QT merging over incremental aggregates.
    let mut groups: Vec<Vec<usize>> = merge_loop(diameter, dist, telemetry)
        .into_iter()
        .map(|slots| {
            let mut group: Vec<usize> = slots.into_iter().map(|s| order[s]).collect();
            group.sort_unstable();
            group
        })
        .collect();
    groups.sort();
    groups
}

/// Input indices in `(id, input index)` order. Distinct ids order
/// exactly as their strings compare; a repeated id falls back to input
/// order, so the order is always strict.
fn canonical_order(machines: &[&MachineInfo]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..machines.len()).collect();
    order.sort_unstable_by_key(|&i| (machines[i].id(), i));
    order
}

/// Row and offset of the unordered slot pair `{x, y}` in an
/// upper-triangle matrix: row `lo` holds `(lo, hi)` at `hi - lo - 1`.
fn pair(x: usize, y: usize) -> (usize, usize) {
    let (lo, hi) = if x < y { (x, y) } else { (y, x) };
    (lo, hi - lo - 1)
}

/// Fills the upper triangle of the distance matrix from lowered diffs:
/// row `i` holds the distances to `i + 1..n` (see [`pair`]).
///
/// That is n·(n−1)/2 kernel calls — the exact number
/// `cluster.distance_evals` reports. With more than one of `threads`
/// ([`fill_threads`]), rows are distributed round-robin over that many
/// scoped threads; round-robin balances the shrinking triangle rows,
/// and the values are identical either way, so the threaded fill cannot
/// change the clustering.
fn distance_matrix(lowered: &[LoweredDiff], threads: usize) -> Vec<Vec<u32>> {
    let n = lowered.len();
    let mut rows: Vec<Vec<u32>> = (0..n).map(|i| vec![0u32; n - i - 1]).collect();
    let fill_row = |i: usize, row: &mut [u32]| {
        for (slot, other) in row.iter_mut().zip(&lowered[i + 1..]) {
            *slot = lowered[i].distance(other) as u32;
        }
    };
    if threads <= 1 {
        for (i, row) in rows.iter_mut().enumerate() {
            fill_row(i, row);
        }
    } else {
        let mut buckets: Vec<Vec<(usize, &mut Vec<u32>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, row) in rows.iter_mut().enumerate() {
            buckets[i % threads].push((i, row));
        }
        crate::par::fan_out(buckets, &|(i, row): (usize, &mut Vec<u32>)| {
            fill_row(i, row)
        });
    }
    rows
}

/// Threads the matrix fill of `lowered` runs on: one below
/// [`PARALLEL_COMPARISONS`] item comparisons, else up to one per core.
fn fill_threads(lowered: &[LoweredDiff], allow_parallel: bool) -> usize {
    let n = lowered.len();
    let comparisons = n.saturating_sub(1) * lowered.iter().map(LoweredDiff::len).sum::<usize>();
    crate::par::worker_count(comparisons, PARALLEL_COMPARISONS, allow_parallel).min(n)
}

/// The canonical tie-break key of the candidate merging two disjoint
/// clusters whose lowest-ranked members have ranks `x` and `y`.
///
/// Keys compare exactly as the merged clusters' sorted member-id lists
/// compare lexicographically (what [`qt_cluster_indices_reference`]
/// materialises). Two distinct candidates over disjoint clusters either
/// share no cluster — then their unions are disjoint and the sorted
/// lists differ at their first element, the smaller rank of each pair —
/// or share one cluster `s` and differ in the other, `p` against `q`
/// with `min(p) < min(q)`: both lists agree on the members of `s`
/// below `min(p)`, then `s ∪ p` continues with `min(p)` while `s ∪ q`
/// continues with something larger (it has no member of rank `min(p)`
/// and cannot end there, `q` lying wholly above), so `s ∪ p` sorts
/// first. Comparing `(smaller, larger)` decides both cases.
///
/// A merge keeps the lower slot, so a cluster's slot *is* its lowest
/// member rank and the key of a slot pair is the pair itself, sorted.
fn tie_key(x: usize, y: usize) -> (usize, usize) {
    (x.min(y), x.max(y))
}

/// A slot's cached nearest partner among the *higher* slots: the
/// candidate minimising `(avg, slot)` — the derived order, fields in
/// declaration order, and for a fixed lower slot the canonical `(avg,
/// tie_key)` order. An infinite `avg` means no feasible partner.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
struct Nearest {
    avg: f64,
    slot: usize,
}

impl Nearest {
    /// The identity of the row minimum: no candidate orders after it.
    const NONE: Nearest = Nearest {
        avg: f64::INFINITY,
        slot: usize::MAX,
    };
}

/// Per-slot and per-slot-pair aggregates of the greedy merge. Slots
/// never move; a merged-away slot just leaves the active list.
struct Aggregates {
    diameter: usize,
    sizes: Vec<usize>,
    intra_sum: Vec<u64>,
    intra_max: Vec<u32>,
    /// Sum / max of member distances across each slot pair, upper
    /// triangle (see [`pair`]).
    cross_sum: Vec<Vec<u64>>,
    cross_max: Vec<Vec<u32>>,
}

impl Aggregates {
    /// Slot `lo`'s candidate `hi` (`lo < hi`): the average pairwise
    /// distance of the merged cluster, or infinity when its diameter
    /// would exceed the bound. Exactly the naive implementation's
    /// arithmetic — sum/pairs in f64 over the merged cluster's full
    /// pair set — so averages (and thus tie structure) are
    /// bit-identical to [`qt_cluster_indices_reference`].
    fn candidate(&self, lo: usize, hi: usize) -> Nearest {
        let off = hi - lo - 1;
        let max_d = self.cross_max[lo][off]
            .max(self.intra_max[lo])
            .max(self.intra_max[hi]);
        let avg = if max_d as usize > self.diameter {
            f64::INFINITY
        } else {
            let sum = self.intra_sum[lo] + self.intra_sum[hi] + self.cross_sum[lo][off];
            let merged = self.sizes[lo] + self.sizes[hi];
            sum as f64 / (merged * (merged - 1) / 2) as f64
        };
        Nearest { avg, slot: hi }
    }

    /// Scans slot `lo`'s row — `above`, the active slots past it — for
    /// its nearest partner.
    fn nearest(&self, lo: usize, above: &[usize]) -> Nearest {
        above
            .iter()
            .map(|&hi| self.candidate(lo, hi))
            .fold(
                Nearest::NONE,
                |best, cand| if cand < best { cand } else { best },
            )
    }

    /// Folds slot `b` into slot `a` (Lance–Williams updates) and frees
    /// `b`'s matrix rows. `active` no longer lists `b`.
    fn merge(&mut self, a: usize, b: usize, active: &[usize]) {
        let (row, off) = pair(a, b);
        self.intra_max[a] = self.intra_max[a]
            .max(self.intra_max[b])
            .max(self.cross_max[row][off]);
        self.intra_sum[a] += self.intra_sum[b] + self.cross_sum[row][off];
        self.sizes[a] += self.sizes[b];
        for &c in active {
            if c == a {
                continue;
            }
            let (from_row, from_off) = pair(c, b);
            let (to_row, to_off) = pair(c, a);
            self.cross_sum[to_row][to_off] += self.cross_sum[from_row][from_off];
            self.cross_max[to_row][to_off] =
                self.cross_max[to_row][to_off].max(self.cross_max[from_row][from_off]);
        }
        self.cross_sum[b] = Vec::new();
        self.cross_max[b] = Vec::new();
    }
}

/// Greedy QT merge loop over incrementally maintained aggregates and a
/// nearest-partner cache; returns the groups as slot lists.
///
/// Every iteration performs the feasible merge minimising `(average,
/// tie_key)`. Each slot caches its nearest partner among the higher
/// slots, so every pair belongs to exactly one row and the global
/// minimum is the best of the k cached rows. Merging `b` into the lower
/// slot `a` changes only the pairs involving `a` or `b`: row `a` is
/// rebuilt; a row below `a` compares its cached partner against the one
/// new `(c, a)` candidate and rescans only if that partner *was* `a` or
/// `b` and the merged candidate got worse; a row between `a` and `b`
/// rescans only if its partner was `b`, whose pairs now belong to row
/// `a`; rows above `b` are untouched. Those lost-partner rescans are
/// counted in `cluster.qt_row_rescans`. One iteration is O(k) plus O(k)
/// per rescanned row, with no allocation.
fn merge_loop(diameter: usize, dist: Vec<Vec<u32>>, telemetry: &Telemetry) -> Vec<Vec<usize>> {
    let n = dist.len();
    let mut members: Vec<Vec<usize>> = (0..n).map(|s| vec![s]).collect();
    let mut agg = Aggregates {
        diameter,
        sizes: vec![1; n],
        intra_sum: vec![0; n],
        intra_max: vec![0; n],
        cross_sum: dist
            .iter()
            .map(|row| row.iter().copied().map(u64::from).collect())
            .collect(),
        cross_max: dist,
    };
    // Ascending throughout: `retain` keeps the order.
    let mut active: Vec<usize> = (0..n).collect();
    let mut nn: Vec<Nearest> = (0..n)
        .map(|lo| agg.nearest(lo, &active[lo + 1..]))
        .collect();
    let mut row_rescans = 0u64;

    loop {
        // Unique (distinct pairs have distinct keys), so the result
        // does not depend on the order the rows are visited in.
        let best = active
            .iter()
            .filter(|&&lo| nn[lo].avg.is_finite())
            .map(|&lo| (nn[lo].avg, tie_key(lo, nn[lo].slot)))
            .reduce(|x, y| if y < x { y } else { x });
        let Some((_, (a, b))) = best else { break };
        telemetry.counter("cluster.qt_merges", 1);

        active.retain(|&c| c != b);
        agg.merge(a, b, &active);
        let members_b = std::mem::take(&mut members[b]);
        members[a].extend(members_b);

        for (i, &c) in active.iter().enumerate() {
            let above = &active[i + 1..];
            if c < a {
                let merged = agg.candidate(c, a);
                let cached = nn[c];
                if cached.slot != a && cached.slot != b {
                    if merged < cached {
                        nn[c] = merged;
                    }
                } else if merged.avg <= cached.avg {
                    // `a` is the lower of the two slots it replaces, so
                    // the row minimum survives unless the average
                    // itself got worse.
                    nn[c] = merged;
                } else {
                    nn[c] = agg.nearest(c, above);
                    row_rescans += 1;
                }
            } else if c == a {
                nn[a] = agg.nearest(a, above);
            } else if c > b {
                break;
            } else if nn[c].slot == b {
                nn[c] = agg.nearest(c, above);
                row_rescans += 1;
            }
        }
    }
    telemetry.counter("cluster.qt_row_rescans", row_rescans);

    active
        .into_iter()
        .map(|s| std::mem::take(&mut members[s]))
        .collect()
}

/// The original naive QT merge loop, retained as the reference
/// implementation the fast path is property-tested against.
///
/// Recomputes every candidate merge's statistics from scratch each
/// iteration (O(k²·m²) per merge) using [`DiffSet::content_distance`]
/// over `BTreeSet<Item>` — slow, but independently simple enough to
/// trust. Seeded property tests assert
/// [`qt_cluster_indices`] is bit-identical to this across random fleets,
/// diameters, and input permutations; do not use it outside tests and
/// benchmarks.
///
/// [`DiffSet::content_distance`]: mirage_fingerprint::DiffSet::content_distance
pub fn qt_cluster_indices_reference(machines: &[&MachineInfo], diameter: usize) -> Vec<Vec<usize>> {
    let n = machines.len();
    let mut dist = vec![vec![0usize; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = machines[i].diff.content_distance(&machines[j].diff);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }

    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    loop {
        // Select the merge minimising (average distance, canonical member
        // ids). The canonical tie-break makes the algorithm invariant
        // under input permutation, not merely deterministic.
        let mut best: Option<(f64, Vec<&str>, usize, usize)> = None;
        for a in 0..clusters.len() {
            for b in (a + 1)..clusters.len() {
                let merged: Vec<usize> = clusters[a]
                    .iter()
                    .chain(clusters[b].iter())
                    .copied()
                    .collect();
                let mut max_d = 0usize;
                let mut sum = 0usize;
                let mut pairs = 0usize;
                for (x, &i) in merged.iter().enumerate() {
                    for &j in &merged[x + 1..] {
                        max_d = max_d.max(dist[i][j]);
                        sum += dist[i][j];
                        pairs += 1;
                    }
                }
                if max_d > diameter {
                    continue;
                }
                let avg = if pairs == 0 {
                    0.0
                } else {
                    sum as f64 / pairs as f64
                };
                let mut key: Vec<&str> = merged.iter().map(|&i| machines[i].id()).collect();
                key.sort_unstable();
                let better = match &best {
                    None => true,
                    Some((b_avg, b_key, _, _)) => avg < *b_avg || (avg == *b_avg && key < *b_key),
                };
                if better {
                    best = Some((avg, key, a, b));
                }
            }
        }
        match best {
            Some((_, _, a, b)) => {
                let merged_b = clusters.remove(b);
                clusters[a].extend(merged_b);
                clusters[a].sort_unstable();
            }
            None => break,
        }
    }
    clusters.sort();
    clusters
}

/// Like [`qt_cluster_indices_instrumented`], returning machine
/// references.
pub(crate) fn qt_cluster_instrumented<'a>(
    machines: &[&'a MachineInfo],
    diameter: usize,
    telemetry: &Telemetry,
) -> Vec<Vec<&'a MachineInfo>> {
    qt_cluster_indices_instrumented(machines, diameter, telemetry)
        .into_iter()
        .map(|group| group.into_iter().map(|i| machines[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_fingerprint::{DiffSet, Item};

    /// A machine whose content diff is the given set of single-segment
    /// items; distance between machines = symmetric difference size.
    fn machine(id: &str, content: &[&str]) -> MachineInfo {
        let mut diff = DiffSet::empty(id);
        diff.content = content.iter().map(|s| Item::new([*s])).collect();
        MachineInfo::new(diff)
    }

    fn qt_cluster<'a>(machines: &[&'a MachineInfo], diameter: usize) -> Vec<Vec<&'a MachineInfo>> {
        qt_cluster_instrumented(machines, diameter, &Telemetry::noop())
    }

    fn ids(groups: &[Vec<&MachineInfo>]) -> Vec<Vec<String>> {
        groups
            .iter()
            .map(|g| g.iter().map(|m| m.id().to_string()).collect())
            .collect()
    }

    #[test]
    fn zero_diameter_merges_only_identical() {
        let a = machine("a", &["x"]);
        let b = machine("b", &["x"]);
        let c = machine("c", &["y"]);
        let groups = qt_cluster(&[&a, &b, &c], 0);
        assert_eq!(ids(&groups), vec![vec!["a", "b"], vec!["c"]]);
    }

    #[test]
    fn diameter_bounds_merging() {
        // a={}, b={x}, c={x,y}: d(a,b)=1, d(b,c)=1, d(a,c)=2.
        let a = machine("a", &[]);
        let b = machine("b", &["x"]);
        let c = machine("c", &["x", "y"]);
        // d=1: merging all three would give diameter 2 → two clusters.
        let groups = qt_cluster(&[&a, &b, &c], 1);
        assert_eq!(groups.len(), 2);
        // d=2: everything merges.
        let groups = qt_cluster(&[&a, &b, &c], 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn closest_pairs_merge_first() {
        // Two tight pairs far apart: {a,b} at distance 0, {c,d} at 2,
        // cross distances large.
        let a = machine("a", &["p"]);
        let b = machine("b", &["p"]);
        let c = machine("c", &["q", "r", "s"]);
        let d = machine("d", &["q", "r", "t"]);
        let groups = qt_cluster(&[&a, &b, &c, &d], 2);
        assert_eq!(ids(&groups), vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn deterministic_regardless_of_tie_structure() {
        // Three mutually equidistant machines (pairwise distance 2).
        let a = machine("a", &["x"]);
        let b = machine("b", &["y"]);
        let c = machine("c", &["z"]);
        let g1 = ids(&qt_cluster(&[&a, &b, &c], 2));
        let g2 = ids(&qt_cluster(&[&a, &b, &c], 2));
        assert_eq!(g1, g2);
        // All merge (diameter 2 allows it).
        assert_eq!(g1.len(), 1);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(qt_cluster(&[], 3).is_empty());
        let a = machine("a", &["x"]);
        let groups = qt_cluster(&[&a], 3);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 1);
    }

    #[test]
    fn large_diameter_merges_everything() {
        let ms: Vec<MachineInfo> = (0..10)
            .map(|i| machine(&format!("m{i}"), &[&format!("item{i}")]))
            .collect();
        let refs: Vec<&MachineInfo> = ms.iter().collect();
        let groups = qt_cluster(&refs, 100);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 10);
    }

    #[test]
    fn all_identical_machines_merge_at_zero_diameter() {
        let ms: Vec<MachineInfo> = (0..6)
            .map(|i| machine(&format!("m{i}"), &["same", "items"]))
            .collect();
        let refs: Vec<&MachineInfo> = ms.iter().collect();
        let groups = qt_cluster_indices(&refs, 0);
        assert_eq!(groups, vec![vec![0, 1, 2, 3, 4, 5]]);
        assert_eq!(groups, qt_cluster_indices_reference(&refs, 0));
    }

    #[test]
    fn empty_diff_sets_cluster_together() {
        let ms: Vec<MachineInfo> = (0..4).map(|i| machine(&format!("m{i}"), &[])).collect();
        let refs: Vec<&MachineInfo> = ms.iter().collect();
        for d in [0usize, 3] {
            assert_eq!(qt_cluster_indices(&refs, d), vec![vec![0, 1, 2, 3]]);
        }
    }

    #[test]
    fn matches_reference_on_handcrafted_fleet() {
        let ms = [
            machine("a", &[]),
            machine("b", &["x"]),
            machine("c", &["x", "y"]),
            machine("d", &["y"]),
            machine("e", &["p", "q"]),
            machine("f", &["p"]),
        ];
        let refs: Vec<&MachineInfo> = ms.iter().collect();
        for d in 0..=4 {
            assert_eq!(
                qt_cluster_indices(&refs, d),
                qt_cluster_indices_reference(&refs, d),
                "diameter {d}"
            );
        }
    }

    /// The threaded fill writes the sequential fill's matrix, at any
    /// thread count, so the threshold moves time and never a cluster.
    #[test]
    fn parallel_threshold_path_matches_sequential() {
        let ms: Vec<MachineInfo> = (0..97)
            .map(|i| {
                machine(
                    &format!("m{i:03}"),
                    &[&format!("g{}", i % 7), &format!("n{}", i % 3)],
                )
            })
            .collect();
        let mut pool = ItemPool::new();
        let lowered: Vec<LoweredDiff> = ms.iter().map(|m| pool.lower(&m.diff.content)).collect();
        let sequential = distance_matrix(&lowered, 1);
        for threads in 2..=5 {
            assert_eq!(distance_matrix(&lowered, threads), sequential, "{threads}");
        }
    }

    #[test]
    fn fill_fans_out_by_comparisons_not_machines() {
        let lowered = |ms: &[MachineInfo]| -> Vec<LoweredDiff> {
            let mut pool = ItemPool::new();
            ms.iter().map(|m| pool.lower(&m.diff.content)).collect()
        };
        // The replicated MySQL shape: many machines, identical empty
        // diffs, nothing to compare.
        let replicas: Vec<MachineInfo> = (0..320)
            .map(|i| machine(&format!("m{i:03}"), &[]))
            .collect();
        assert_eq!(fill_threads(&lowered(&replicas), true), 1);
        // One item a machine: (n - 1) × n comparisons at n machines, so
        // the fill fans out from the first n that reaches the threshold.
        let dense = |n: usize| -> Vec<MachineInfo> {
            (0..n)
                .map(|i| machine(&format!("m{i:04}"), &[&format!("n{i}")]))
                .collect()
        };
        let first = (2..)
            .find(|&n| (n - 1) * n >= PARALLEL_COMPARISONS)
            .unwrap();
        assert_eq!(fill_threads(&lowered(&dense(first - 1)), true), 1);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(
            fill_threads(&lowered(&dense(first)), true),
            cores.min(first)
        );
        assert_eq!(fill_threads(&lowered(&dense(first)), false), 1);
    }

    #[test]
    fn repeated_ids_rank_by_input_order_and_still_partition() {
        let ms = [
            machine("dup", &["x"]),
            machine("a", &["x"]),
            machine("dup", &["x"]),
            machine("dup", &["y"]),
            machine("b", &["y", "z"]),
        ];
        let refs: Vec<&MachineInfo> = ms.iter().collect();
        assert_eq!(canonical_order(&refs), vec![1, 4, 0, 2, 3]);
        for d in 0..=3 {
            let groups = qt_cluster_indices(&refs, d);
            let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4], "diameter {d}");
            assert_eq!(groups, qt_cluster_indices(&refs, d), "diameter {d}");
        }
    }

    /// The tie-break lemma, brute force: over random partitions of up
    /// to 12 ranked machines, any two distinct candidate merges order by
    /// `tie_key` of their clusters' lowest ranks exactly as their
    /// materialised sorted member-id lists (the reference's key) order
    /// lexicographically.
    #[test]
    fn tie_key_orders_like_sorted_union_keys() {
        let mut state = 0x71e_b4ea_u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut compared = 0;
        for trial in 0..300 {
            // Distinct ids whose string order is not their numeric order.
            let n = 3 + below(10);
            let mut numbers: Vec<usize> = (0..40).collect();
            for i in (1..numbers.len()).rev() {
                numbers.swap(i, below(i + 1));
            }
            let ms: Vec<MachineInfo> = numbers[..n]
                .iter()
                .map(|k| machine(&format!("m{k}"), &[]))
                .collect();
            let refs: Vec<&MachineInfo> = ms.iter().collect();
            // `ranked[r]` is the id of rank `r`; clusters hold ranks.
            let ranked: Vec<&str> = canonical_order(&refs)
                .into_iter()
                .map(|i| ms[i].id())
                .collect();

            let labels = 3 + below(n - 2);
            let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); labels];
            for i in 0..n {
                clusters[below(labels)].push(i);
            }
            clusters.retain(|c| !c.is_empty());
            let min_rank: Vec<usize> = clusters.iter().map(|c| *c.iter().min().unwrap()).collect();
            let union_key = |&(a, b): &(usize, usize)| {
                let mut key: Vec<&str> = clusters[a]
                    .iter()
                    .chain(&clusters[b])
                    .map(|&r| ranked[r])
                    .collect();
                key.sort_unstable();
                key
            };
            let pairs: Vec<(usize, usize)> = (0..clusters.len())
                .flat_map(|a| (a + 1..clusters.len()).map(move |b| (a, b)))
                .collect();
            for p in &pairs {
                for q in pairs.iter().filter(|q| *q != p) {
                    assert_eq!(
                        tie_key(min_rank[p.0], min_rank[p.1])
                            .cmp(&tie_key(min_rank[q.0], min_rank[q.1])),
                        union_key(p).cmp(&union_key(q)),
                        "trial {trial}: {p:?} against {q:?} over {clusters:?}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 10_000, "only {compared} comparisons");
    }
}
