//! Interned fingerprint items and the lowered distance kernel.
//!
//! Phase-2 clustering computes Manhattan distances between content-based
//! diff sets millions of times per fleet. Doing that over
//! `BTreeSet<Item>` means walking a pointer-chasing tree and comparing
//! hierarchical *strings* on every step. This module lowers that hot
//! path onto integers:
//!
//! * an [`ItemPool`] interns each distinct [`Item`] to a dense `u32` id
//!   (first-seen order, fully deterministic for a fixed call sequence);
//! * a [`LoweredDiff`] is a sorted `Vec<u32>` of interned ids; the
//!   symmetric-difference size of two lowered diffs — identical to
//!   [`DiffSet::content_distance`](crate::DiffSet::content_distance)
//!   over the sets they were lowered from — is a branch-light sorted
//!   merge over two integer slices.
//!
//! Interned ids are only meaningful relative to the pool that produced
//! them; distances may only be taken between diffs lowered by the *same*
//! pool. Ids encode first-seen order, not item order, which is fine
//! because symmetric difference depends on equality alone.

use std::collections::HashMap;

use crate::item::{Item, ItemSet};

/// Interns [`Item`]s to dense `u32` ids.
///
/// # Examples
///
/// ```
/// use mirage_fingerprint::{Item, ItemPool};
/// let mut pool = ItemPool::new();
/// let a = pool.intern(&Item::new(["x"]));
/// let b = pool.intern(&Item::new(["y"]));
/// assert_ne!(a, b);
/// assert_eq!(pool.intern(&Item::new(["x"])), a); // stable
/// assert_eq!(pool.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ItemPool {
    ids: HashMap<Item, u32>,
}

impl ItemPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct items interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if no item has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Interns `item`, returning its id (allocating one on first sight).
    ///
    /// Ids are assigned densely in first-seen order, so a fixed sequence
    /// of `intern` calls always produces the same ids regardless of hash
    /// seeding.
    pub fn intern(&mut self, item: &Item) -> u32 {
        if let Some(&id) = self.ids.get(item) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("more than u32::MAX distinct items");
        self.ids.insert(item.clone(), id);
        id
    }

    /// Lowers an [`ItemSet`] to a [`LoweredDiff`] against this pool.
    ///
    /// The resulting id vector is sorted (numerically), which is the
    /// invariant [`LoweredDiff::distance`] relies on.
    pub fn lower(&mut self, items: &ItemSet) -> LoweredDiff {
        let mut ids: Vec<u32> = items.iter().map(|i| self.intern(i)).collect();
        ids.sort_unstable();
        LoweredDiff { ids }
    }
}

/// A diff set lowered to sorted interned ids (see [`ItemPool::lower`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoweredDiff {
    ids: Vec<u32>,
}

// Nothing asks whether it is empty; `len` is what callers read.
#[allow(clippy::len_without_is_empty)]
impl LoweredDiff {
    /// Number of items: what a [`LoweredDiff::distance`] against it
    /// reads, besides the other operand's.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Size of the symmetric difference with `other` — the Manhattan
    /// distance the phase-2 clustering uses.
    ///
    /// Both operands must come from the same [`ItemPool`]. The loop is a
    /// branch-light sorted merge: each step advances one or both cursors
    /// with arithmetic on comparison results instead of data-dependent
    /// branches, so it pipelines well on dense inputs.
    pub fn distance(&self, other: &LoweredDiff) -> usize {
        let a = &self.ids;
        let b = &other.ids;
        let (mut i, mut j, mut common) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            let x = a[i];
            let y = b[j];
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            common += usize::from(x == y);
        }
        a.len() + b.len() - 2 * common
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::DiffSet;

    fn set(items: &[&str]) -> ItemSet {
        items.iter().map(|s| Item::new([*s])).collect()
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut pool = ItemPool::new();
        let a = pool.intern(&Item::new(["a"]));
        let b = pool.intern(&Item::new(["b"]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(pool.intern(&Item::new(["a"])), 0);
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
    }

    #[test]
    fn lowered_ids_are_sorted() {
        let mut pool = ItemPool::new();
        // Intern in one order, lower a set whose BTree order differs.
        pool.intern(&Item::new(["z"]));
        pool.intern(&Item::new(["a"]));
        let lowered = pool.lower(&set(&["a", "z"]));
        assert_eq!(lowered.ids, [0, 1]);
    }

    #[test]
    fn distance_matches_symmetric_difference() {
        let mut pool = ItemPool::new();
        let cases: &[(&[&str], &[&str], usize)] = &[
            (&[], &[], 0),
            (&["x"], &[], 1),
            (&["x"], &["x"], 0),
            (&["x", "y"], &["y", "z"], 2),
            (&["a", "b", "c"], &["d", "e"], 5),
        ];
        for (a, b, want) in cases {
            let la = pool.lower(&set(a));
            let lb = pool.lower(&set(b));
            assert_eq!(la.distance(&lb), *want, "{a:?} vs {b:?}");
            assert_eq!(lb.distance(&la), *want, "symmetry {a:?} vs {b:?}");
            assert_eq!(la.distance(&la), 0, "identity {a:?}");
        }
    }

    #[test]
    fn distance_agrees_with_diffset_content_distance() {
        let mut da = DiffSet::empty("a");
        da.content = set(&["w", "x", "y"]);
        let mut db = DiffSet::empty("b");
        db.content = set(&["x", "z"]);
        let mut pool = ItemPool::new();
        let la = pool.lower(&da.content);
        let lb = pool.lower(&db.content);
        assert_eq!(la.distance(&lb), da.content_distance(&db));
    }

    #[test]
    fn empty_lowered_diff() {
        let mut pool = ItemPool::new();
        let e = pool.lower(&ItemSet::new());
        assert!(e.ids.is_empty());
        assert_eq!(e.distance(&e), 0);
        let one = pool.lower(&set(&["q"]));
        assert_eq!(e.distance(&one), 1);
    }
}
