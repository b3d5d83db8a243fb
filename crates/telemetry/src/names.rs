//! The name ↔ dense-id table under every interner in the workspace.
//!
//! Machine names, failure signatures and problem names all live in a
//! [`NameTable`]: the deployment plane's machine and problem tables
//! wrap one, the report repository's interners are one. Like
//! [`crate::json`] it is shared plumbing rather than telemetry — this is
//! the one std-only crate every layer already depends on.
//!
//! A table stores no name as an object of its own. The bytes of every
//! name sit back to back in one buffer, a second vector holds where
//! each name ends, and an id is a position in that vector — so interning
//! a name allocates nothing, dropping a table frees three vectors, and
//! cloning one copies three vectors whatever the number of names.
//!
//! Looking a name up needs an index only once the names stop arriving
//! in order. While every name interned so far is greater than the one
//! before it — a fleet listed in sorted order, a synthetic
//! `c{cluster}-m{machine}` fleet — the table is its own index: a new
//! name greater than the last is appended after one comparison, and any
//! other is found by binary search. The first *new* name to arrive out
//! of order builds an open-addressing hash index over `u32` slots, once,
//! and the table is hashed from then on. Which happens depends on the
//! names alone; ids are positions in arrival order either way.
//!
//! The hash is keyed per table ([`RandomState`]): names can come from
//! reporting machines, and nothing observes slot order, so collision
//! resistance costs no determinism.

use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;
use std::sync::Arc;

/// A bidirectional name ↔ dense-`u32` table; ids are assigned in
/// interning order.
///
/// # Examples
///
/// ```
/// use mirage_telemetry::names::NameTable;
/// let mut table = NameTable::default();
/// assert_eq!(table.intern("m1"), 0);
/// assert_eq!(table.intern("m0"), 1);
/// assert_eq!(table.intern("m1"), 0);
/// assert_eq!(table.get("m0"), Some(1));
/// assert_eq!(table.name(1), "m0");
/// assert_eq!(table.names_from(0).collect::<Vec<_>>(), ["m1", "m0"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// Every name's bytes, back to back in id order.
    bytes: String,
    /// `ends[id]` is where name `id` ends in `bytes`; it starts where
    /// name `id - 1` ends.
    ends: Vec<u32>,
    /// The hash index: `id + 1` in an occupied slot, 0 in a free one,
    /// linear probing over a power-of-two length kept at most half
    /// full. Empty while the names ascend.
    slots: Vec<u32>,
    keys: RandomState,
}

/// Two tables are equal when they list the same names under the same
/// ids, whichever way each is indexed.
impl PartialEq for NameTable {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.bytes == other.bytes
    }
}

impl Eq for NameTable {}

impl NameTable {
    /// Creates an empty table with room for `names` names of `bytes`
    /// bytes in total.
    pub fn with_capacity(names: usize, bytes: usize) -> Self {
        NameTable {
            bytes: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
            ..Self::default()
        }
    }

    /// Makes room for `names` more names, so interning them grows (and,
    /// in a hashed table, re-indexes) nothing but the byte buffer. A
    /// hint: names the table already holds only leave the room unused.
    pub fn reserve(&mut self, names: usize) {
        self.ends.reserve(names);
        if !self.ascending() {
            self.index_for(self.len() + names);
        }
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where name `id` lies in `bytes`.
    fn span(&self, id: usize) -> Range<usize> {
        let start = match id {
            0 => 0,
            _ => self.ends[id - 1] as usize,
        };
        start..self.ends[id] as usize
    }

    fn name_bytes(&self, id: usize) -> &[u8] {
        &self.bytes.as_bytes()[self.span(id)]
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: u32) -> &str {
        &self.bytes[self.span(id as usize)]
    }

    /// Names `start..len()` in id order (none if `start >= len()`).
    pub fn names_from(&self, start: usize) -> impl ExactSizeIterator<Item = &str> + '_ {
        (start..self.len()).map(|id| self.name(id as u32))
    }

    /// Whether the table is still its own index: no name has arrived
    /// out of order yet, so the names ascend and no slot exists.
    fn ascending(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `name` sorts after every name of an ascending table.
    fn extends_run(&self, name: &str) -> bool {
        match self.len() {
            0 => true,
            n => self.name_bytes(n - 1) < name.as_bytes(),
        }
    }

    /// Binary search of an ascending table.
    fn search(&self, name: &str) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.name_bytes(mid).cmp(name.as_bytes()) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// Looks up the id of an already-interned name.
    pub fn get(&self, name: &str) -> Option<u32> {
        if !self.ascending() {
            self.probe(name).ok()
        } else if self.extends_run(name) {
            None
        } else {
            self.search(name)
        }
    }

    /// Walks `name`'s probe sequence in a hashed table: its id, or the
    /// free slot it would take.
    fn probe(&self, name: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.keys.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                held => {
                    if self.name_bytes(held as usize - 1) == name.as_bytes() {
                        return Ok(held - 1);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Files `id` (a name no slot holds yet) in the first free slot of
    /// its probe sequence.
    fn file(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = self.keys.hash_one(self.name(id)) as usize & mask;
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id + 1;
    }

    /// Makes the hash index large enough to stay at most half full with
    /// `names` names, (re)filing every name if it has to grow.
    fn index_for(&mut self, names: usize) {
        let wanted = names.max(4).saturating_mul(2).next_power_of_two();
        if wanted <= self.slots.len() {
            return;
        }
        self.slots.clear();
        self.slots.resize(wanted, 0);
        for id in 0..self.len() as u32 {
            self.file(id);
        }
    }

    /// Appends `name` under the next id, or returns `None` (and leaves
    /// the table as it was) if the table is full.
    fn push(&mut self, name: &str) -> Option<u32> {
        // `id + 1` is what a slot stores, so `u32::MAX` is no id.
        let id = u32::try_from(self.len()).ok().filter(|&id| id < u32::MAX)?;
        let end = self.ends.last().copied().unwrap_or(0);
        let end = end.checked_add(u32::try_from(name.len()).ok()?)?;
        self.bytes.push_str(name);
        self.ends.push(end);
        Some(id)
    }

    /// Interns `name`, returning its (possibly pre-existing) id, or
    /// `None` if the table is full: ids and byte offsets are `u32`, so a
    /// table holds at most `u32::MAX` names of 4 GiB in total. For names
    /// from outside the program, where full is an error to report.
    pub fn try_intern(&mut self, name: &str) -> Option<u32> {
        if self.ascending() {
            if self.extends_run(name) {
                return self.push(name);
            }
            if let Some(id) = self.search(name) {
                return Some(id);
            }
            // The run ends here: index what the table holds, sized for
            // what it was told to expect.
            self.index_for(self.ends.capacity().max(self.len() + 1));
        } else {
            // Room for one more first, so the free slot the probe finds
            // is still the one to take.
            self.index_for(self.len() + 1);
        }
        match self.probe(name) {
            Ok(id) => Some(id),
            Err(free) => {
                let id = self.push(name)?;
                self.slots[free] = id + 1;
                Some(id)
            }
        }
    }

    /// [`NameTable::try_intern`] through a handle that may share the
    /// table with others: copy-on-write, and only for a name the table
    /// lacks, so looking up a known name never copies.
    pub fn try_intern_shared(this: &mut Arc<Self>, name: &str) -> Option<u32> {
        if let Some(table) = Arc::get_mut(this) {
            return table.try_intern(name);
        }
        if let Some(id) = this.get(name) {
            return Some(id);
        }
        Arc::make_mut(this).try_intern(name)
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold more than `u32::MAX` names or
    /// more than 4 GiB of name bytes.
    pub fn intern(&mut self, name: &str) -> u32 {
        self.try_intern(name)
            .expect("name table overflow (u32::MAX names or 4 GiB of name bytes)")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// Deterministic xorshift64 generator (the workspace's test idiom).
    struct Rng(u64);

    impl Rng {
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

    /// The obvious table: a list and a sorted map.
    #[derive(Clone, Default)]
    struct Model {
        names: Vec<String>,
        index: BTreeMap<String, u32>,
    }

    impl Model {
        fn intern(&mut self, name: &str) -> u32 {
            if let Some(&id) = self.index.get(name) {
                return id;
            }
            let id = self.names.len() as u32;
            self.names.push(name.to_string());
            self.index.insert(name.to_string(), id);
            id
        }
    }

    /// Names that sort around everything a stream counts out, and around
    /// each other: the empty name, non-ASCII, and prefix pairs.
    const ODD: &[&str] = &["", "a", "a\0", "ab", "n", "n0001\0", "é", "日本語", "🦀"];

    /// What the streams exercised, summed over every case: the property
    /// asserts at the end that none of it was left out.
    #[derive(Default)]
    struct Seen {
        found_while_ascending: usize,
        transitions: usize,
        most_growths: usize,
        clones: usize,
    }

    /// `table` answers every question as `model` does.
    fn assert_agree(table: &NameTable, model: &Model, ctx: &str) {
        assert_eq!(table.len(), model.names.len(), "{ctx}: len");
        assert_eq!(table.is_empty(), model.names.is_empty(), "{ctx}: is_empty");
        for (id, name) in model.names.iter().enumerate() {
            assert_eq!(table.name(id as u32), name, "{ctx}: name({id})");
            assert_eq!(table.get(name), Some(id as u32), "{ctx}: get({name:?})");
        }
        for odd in ODD {
            assert_eq!(
                table.get(odd),
                model.index.get(*odd).copied(),
                "{ctx}: get({odd:?})"
            );
            let absent = format!("{odd}?");
            assert_eq!(table.get(&absent), None, "{ctx}: get({absent:?})");
        }
        for start in [
            0,
            model.names.len() / 2,
            model.names.len(),
            model.names.len() + 1,
        ] {
            let names = table.names_from(start);
            let want = model.names.get(start..).unwrap_or_default();
            assert_eq!(names.len(), want.len(), "{ctx}: names_from({start}).len()");
            assert!(
                names.eq(want.iter().map(String::as_str)),
                "{ctx}: names_from({start})"
            );
        }
    }

    /// Drives `table` and `model` through `steps` interns drawn from
    /// `rng`: while `calm` steps remain, only names that keep an
    /// ascending table ascending (a greater one, or one it holds); after
    /// that, new names out of order as well.
    fn drive(
        table: &mut NameTable,
        model: &mut Model,
        rng: &mut Rng,
        mut calm: usize,
        steps: usize,
        seen: &mut Seen,
        ctx: &str,
    ) {
        let mut growths = 0;
        for step in 0..steps {
            let ctx = format!("{ctx} step {step}");
            let greatest = model.index.keys().next_back().cloned().unwrap_or_default();
            let above = ODD.iter().find(|odd| **odd > greatest.as_str());
            let name = match (rng.below(10), above) {
                // A name the table holds: the last one, or any.
                (0..=2, _) if !model.names.is_empty() => match rng.below(3) {
                    0 => model.names[model.names.len() - 1].clone(),
                    _ => model.names[rng.below(model.names.len())].clone(),
                },
                // A new name out of order: in a gap the counted names
                // left, or below all of them.
                (3..=4, _) if calm == 0 => match rng.below(2) {
                    0 => format!("n{:04}", rng.below(2000)),
                    _ => format!("a{:x}", rng.next()),
                },
                // An odd name: any, or the next one above the run.
                (5, _) if calm == 0 => ODD[rng.below(ODD.len())].to_string(),
                (5..=6, Some(odd)) => odd.to_string(),
                // The next name of an ascending run.
                _ => match greatest
                    .strip_prefix('n')
                    .and_then(|n| n.parse::<usize>().ok())
                {
                    Some(n) => format!("n{:04}", n + 1 + rng.below(3)),
                    None if greatest.as_str() < "n0000" => format!("n{:04}", rng.below(3)),
                    None => format!("{greatest}{}", ["+", "\0+", "z+"][rng.below(3)]),
                },
            };
            calm = calm.saturating_sub(1);

            let (was_ascending, slots) = (table.ascending(), table.slots.len());
            let known = model.index.contains_key(&name);
            let id = table.intern(&name);
            assert_eq!(id, model.intern(&name), "{ctx}: intern({name:?})");
            if was_ascending && known && *name < *greatest {
                assert!(table.ascending(), "{ctx}: finding {name:?} built an index");
                seen.found_while_ascending += 1;
            }
            let sorted = model.names.windows(2).all(|w| w[0] < w[1]);
            assert_eq!(
                table.ascending(),
                sorted,
                "{ctx}: indexed by what the names are"
            );
            if was_ascending && !table.ascending() {
                seen.transitions += 1;
            } else if table.slots.len() != slots {
                growths += 1;
            }
            assert_agree(table, model, &ctx);
        }
        seen.most_growths = seen.most_growths.max(growths);
    }

    /// The model property: random streams of ascending runs, repeats,
    /// out-of-order new names and odd names against a `Vec<String>` +
    /// `BTreeMap`, every accessor compared after every step — through
    /// the ascending → hashed transition, index growths, `reserve`, and
    /// a `clone` that both sides then diverge from.
    #[test]
    fn name_table_matches_the_model() {
        let mut seen = Seen::default();
        for case in 0..240u64 {
            let mut rng = Rng(0x5eed_0023 ^ (case << 20) | 1);
            let ctx = format!("case {case}");
            let mut model = Model::default();
            let mut table = match case % 3 {
                0 => NameTable::default(),
                _ => NameTable::with_capacity(rng.below(64), rng.below(256)),
            };
            assert_agree(&table, &model, &ctx);
            // A third of the cases never leave the ascending run.
            let steps = 40 + rng.below(100);
            let calm = if case % 3 == 2 {
                steps
            } else {
                rng.below(steps)
            };
            drive(
                &mut table, &mut model, &mut rng, calm, steps, &mut seen, &ctx,
            );

            // Equal names are an equal table, however each was sized.
            let mut again = NameTable::default();
            for (i, name) in model.names.iter().enumerate() {
                if i == model.names.len() / 3 {
                    again.reserve(rng.below(300));
                }
                again.intern(name);
            }
            assert_eq!(again, table, "{ctx}: rebuilt");
            assert_agree(&again, &model, &format!("{ctx} rebuilt"));

            // A clone is equal, and each side then goes its own way.
            let (mut clone, mut clone_model) = (table.clone(), model.clone());
            assert_eq!(clone, table, "{ctx}: clone");
            seen.clones += 1;
            for (t, m, side) in [
                (&mut table, &mut model, "original"),
                (&mut clone, &mut clone_model, "clone"),
            ] {
                let ctx = format!("{ctx} {side}");
                let calm = if case % 3 == 2 { 20 } else { 0 };
                let steps = 20 + rng.below(40);
                drive(t, m, &mut rng, calm, steps, &mut seen, &ctx);
            }
            assert_eq!(
                clone == table,
                clone_model.names == model.names,
                "{ctx}: diverged"
            );
        }
        assert!(
            seen.found_while_ascending >= 100,
            "{}",
            seen.found_while_ascending
        );
        assert!(seen.transitions >= 100, "{}", seen.transitions);
        assert!(seen.most_growths >= 2, "{}", seen.most_growths);
        assert_eq!(seen.clones, 240);
    }

    /// 4 GiB of names is more than a test can intern, so the offsets
    /// say it: only `push` is safe to call on a table faked this way.
    #[test]
    fn a_full_table_refuses_a_name_and_keeps_what_it_holds() {
        let mut table = NameTable::default();
        table.intern("m0");
        table.ends[0] = u32::MAX - 1;
        assert_eq!(table.push("m1"), None);
        assert_eq!((table.len(), table.bytes.as_str()), (1, "m0"));
        assert_eq!(table.push("1"), Some(1));
    }
}
