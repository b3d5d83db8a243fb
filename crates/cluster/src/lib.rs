//! Machine clustering for staged deployment (paper §3.2.3).
//!
//! Machines are clustered so that members of one cluster are likely to
//! behave identically with respect to an upgrade. The algorithm has two
//! phases plus a post-pass:
//!
//! 1. **Phase 1 (exact)** — machines whose *parser-produced* diff sets
//!    against the vendor are identical form "original clusters". Parsers
//!    give precise semantic information, so equality is the right
//!    grouping.
//! 2. **Phase 2 (QT diameter)** — inside each original cluster, machines
//!    are agglomeratively merged on their *content-based* (Rabin) items
//!    using a deterministic variant of the Quality-Threshold algorithm:
//!    merges minimise average inter-machine Manhattan distance and never
//!    exceed the vendor-defined cluster diameter `d`. (The paper dismisses
//!    k-means for being non-deterministic.)
//! 3. **App-overlap split** — clusters containing machines with different
//!    sets of applications that share environmental resources with the
//!    upgraded application are split, because those applications can be
//!    broken by the upgrade (the PHP/MySQL case).
//!
//! The vendor can apply an [`mirage_fingerprint::ImportanceFilter`] before phase 1 to merge
//! clusters it considers needlessly distinct, and [`metrics`] scores any
//! clustering against ground-truth behaviour with the paper's `C`
//! (unnecessary clusters) and `w` (misplaced machines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod cluster;
pub mod engine;
pub mod incremental;
pub mod metrics;
pub mod par;
pub mod phase1;
pub mod privacy;
pub mod qt;
pub mod split;

pub use cluster::{Cluster, ClusterId, Clustering, MachineInfo};
pub use engine::ClusterEngine;
pub use incremental::recluster_one;
pub use metrics::{ClusterQuality, ClusteringScore};

pub use qt::{qt_cluster_indices, qt_cluster_indices_instrumented, qt_cluster_indices_reference};
