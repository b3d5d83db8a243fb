//! Dense interned identifiers for the deployment/simulation data plane.
//!
//! The paper's evaluation runs deployment protocols over 100 000 (and,
//! for us, 1 000 000) machines. Keying protocol state and simulator
//! events by machine *names* means one `String` allocation per machine
//! per event and `O(log n)` string-comparing map lookups on every state
//! transition. This module provides the interned alternative:
//!
//! * [`MachineId`] — a dense `u32` index into a [`MachineTable`];
//! * [`ProblemId`] — a dense `u16` index into a [`ProblemTable`];
//! * [`MachineSet`] / [`ProblemSet`] — flat bitsets over those ids.
//!
//! Names exist only at the boundaries (plan construction, JSON/snapshot
//! rendering, trace export); the hot loops move `Copy` ids and index
//! flat `Vec`s. Both tables are a [`NameTable`]: names as bytes in one
//! buffer, no allocation per name, its own index while the names arrive
//! in ascending order and hashed once they do not. A fleet's names exist
//! once: a [`MachineTable`] keeps its table behind an `Arc`, so every
//! clone of a plan — and the report repository that adopts the table —
//! reads the same storage. The string-keyed implementations are retained
//! under
//! [`crate::reference`] so equivalence tests can prove the interned data
//! plane bit-identical.

use std::fmt;
use std::sync::Arc;

use mirage_telemetry::names::NameTable;

/// A dense machine identifier: an index into a [`MachineTable`].
///
/// Ids are assigned in interning order, so a table built by walking a
/// plan's clusters front to back gives ids that follow plan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MachineId(pub u32);

impl MachineId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m#{}", self.0)
    }
}

/// A dense problem identifier: an index into a [`ProblemTable`].
///
/// `u16` bounds the table at 65 536 distinct problems — the paper's
/// scenarios use a handful, and a real vendor's open-problem set is
/// orders of magnitude below the limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProblemId(pub u16);

impl ProblemId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProblemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p#{}", self.0)
    }
}

/// Bidirectional machine name ↔ [`MachineId`] interner.
///
/// The names sit behind an `Arc`, so cloning a table — and with it a
/// [`DeployPlan`](crate::DeployPlan) — copies no name: every clone
/// reads the same storage. [`MachineTable::intern`] is copy-on-write:
/// a table that shares its storage takes a private copy of it (three
/// vectors, no per-name work) before it adds a name, and a table that
/// does not — every table while its plan is being built — adds it in
/// place. `==` compares names, short-cut when both sides share storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineTable {
    shared: Arc<NameTable>,
}

impl MachineTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with room for `machines` names of
    /// `name_bytes` bytes in total, so a fleet of known size is interned
    /// without growing anything.
    pub fn with_capacity(machines: usize, name_bytes: usize) -> Self {
        MachineTable {
            shared: Arc::new(NameTable::with_capacity(machines, name_bytes)),
        }
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` machines, or more than 4 GiB of
    /// machine names, are interned.
    pub fn intern(&mut self, name: &str) -> MachineId {
        let id = NameTable::try_intern_shared(&mut self.shared, name);
        MachineId(id.expect("machine table overflow"))
    }

    /// Looks up the id of an already-interned name.
    pub fn id(&self, name: &str) -> Option<MachineId> {
        self.shared.get(name).map(MachineId)
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: MachineId) -> &str {
        self.shared.name(id.0)
    }

    /// Number of interned machines.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// All ids in interning (dense) order.
    pub fn ids(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.shared.len() as u32).map(MachineId)
    }

    /// All names in interning (dense) order.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.shared.names_from(0)
    }

    /// The storage every clone of this table reads: what a report
    /// repository adopts (`mirage_report::Urr::intern_fleet`) to make
    /// its machine refs this table's ids.
    pub fn shared(&self) -> &Arc<NameTable> {
        &self.shared
    }
}

/// Bidirectional problem name ↔ [`ProblemId`] interner.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProblemTable {
    names: NameTable,
}

impl ProblemTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    ///
    /// # Panics
    ///
    /// Panics if more than 65 536 problems are interned.
    pub fn intern(&mut self, name: &str) -> ProblemId {
        let id = self.names.intern(name);
        ProblemId(u16::try_from(id).expect("problem table overflow (max 65536)"))
    }

    /// Looks up the id of an already-interned name.
    pub fn id(&self, name: &str) -> Option<ProblemId> {
        // Every id the table handed out fits: `intern` checked it.
        self.names.get(name).map(|id| ProblemId(id as u16))
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: ProblemId) -> &str {
        self.names.name(u32::from(id.0))
    }

    /// Number of interned problems.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in interning (dense) order.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.names.names_from(0)
    }
}

/// A flat bitset over dense indices (the shared machinery behind
/// [`MachineSet`] and [`ProblemSet`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    fn insert(&mut self, bit: usize) -> bool {
        let word = bit / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit % 64);
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        self.len += 1;
        true
    }

    fn remove(&mut self, bit: usize) -> bool {
        let word = bit / 64;
        if word >= self.words.len() {
            return false;
        }
        let mask = 1u64 << (bit % 64);
        if self.words[word] & mask == 0 {
            return false;
        }
        self.words[word] &= !mask;
        self.len -= 1;
        true
    }

    #[inline]
    fn contains(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }
}

/// A set of [`MachineId`]s as a flat bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineSet(DenseBitSet);

impl MachineSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `id`; returns `true` if it was newly added.
    pub fn insert(&mut self, id: MachineId) -> bool {
        self.0.insert(id.index())
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: MachineId) -> bool {
        self.0.remove(id.index())
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: MachineId) -> bool {
        self.0.contains(id.index())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }
}

/// A set of [`ProblemId`]s as a flat bitset — the cumulative fixed-set
/// handed to [`crate::Protocol::on_release`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProblemSet(DenseBitSet);

impl ProblemSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `id`; returns `true` if it was newly added.
    pub fn insert(&mut self, id: ProblemId) -> bool {
        self.0.insert(id.index())
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: ProblemId) -> bool {
        self.0.contains(id.index())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_table_round_trips() {
        let mut t = MachineTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_eq!(a, MachineId(0));
        assert_eq!(b, MachineId(1));
        // Re-interning is idempotent.
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), "alpha");
        assert_eq!(t.id("beta"), Some(b));
        assert_eq!(t.id("gamma"), None);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(t.names().collect::<Vec<_>>(), vec!["alpha", "beta"]);
    }

    #[test]
    fn problem_table_round_trips() {
        let mut t = ProblemTable::new();
        let p = t.intern("prevalent");
        assert_eq!(p, ProblemId(0));
        assert_eq!(t.intern("prevalent"), p);
        assert_eq!(t.name(p), "prevalent");
        assert_eq!(t.id("rare"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bitsets_insert_and_query() {
        let mut m = MachineSet::new();
        assert!(m.is_empty());
        assert!(m.insert(MachineId(3)));
        assert!(!m.insert(MachineId(3)), "double insert reports false");
        assert!(m.insert(MachineId(200)));
        assert!(m.contains(MachineId(3)));
        assert!(m.contains(MachineId(200)));
        assert!(!m.contains(MachineId(64)));
        assert!(!m.contains(MachineId(100_000)), "beyond allocated words");
        assert_eq!(m.len(), 2);
        assert!(m.remove(MachineId(3)));
        assert!(!m.remove(MachineId(3)), "double remove reports false");
        assert!(
            !m.remove(MachineId(100_000)),
            "remove beyond words is a no-op"
        );
        assert!(!m.contains(MachineId(3)));
        assert_eq!(m.len(), 1);
        assert!(m.insert(MachineId(3)), "re-insert after remove");

        let mut p = ProblemSet::new();
        assert!(p.insert(ProblemId(0)));
        assert!(p.contains(ProblemId(0)));
        assert!(!p.contains(ProblemId(1)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(MachineId(7).to_string(), "m#7");
        assert_eq!(ProblemId(2).to_string(), "p#2");
    }
}
