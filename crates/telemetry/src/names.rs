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
//! The same layout is how a table's names travel: [`NameTable::run_from`]
//! hands out a tail of the table as its bytes and their end offsets, and
//! [`NameTable::try_append_run`] takes such a run back, all of it or
//! none — one copy of the bytes while the names ascend, the usual
//! interning from the first one that does not.
//!
//! The hash is keyed per table ([`RandomState`]): names can come from
//! reporting machines, and nothing observes slot order, so collision
//! resistance costs no determinism.

use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;
use std::sync::Arc;

/// Why [`NameTable::try_append_run`] refused a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunRefused {
    /// A name of the run is one the table holds, or one the run lists
    /// twice.
    Repeat,
    /// The run would take the table past `u32::MAX` names or 4 GiB of
    /// name bytes.
    Full,
}

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
///
/// let (bytes, ends) = table.run_from(0);
/// assert_eq!((bytes, ends.collect::<Vec<_>>()), ("m1m0", vec![2, 4]));
/// let mut copy = NameTable::default();
/// assert_eq!(copy.try_append_run("m1m0", &[2, 4]), Ok(()));
/// assert_eq!(copy, table);
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

    /// Names `start..len()` in the table's own layout: their bytes back
    /// to back, and where each ends, counted from the first byte of the
    /// run (none if `start >= len()`). A journal writes a table's new
    /// names with this and reads them back with
    /// [`NameTable::try_append_run`]: one copy each way, and no name
    /// taken apart.
    pub fn run_from(&self, start: usize) -> (&str, impl ExactSizeIterator<Item = u32> + '_) {
        let start = start.min(self.len());
        let base = match start {
            0 => 0,
            _ => self.ends[start - 1],
        };
        let ends = self.ends[start..].iter().map(move |&end| end - base);
        (&self.bytes[base as usize..], ends)
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

    /// Appends a run of new names under the next ids, in order, or
    /// refuses it whole. The run comes in the table's own layout (see
    /// [`NameTable::run_from`]): name `i` is `bytes[ends[i - 1]..ends[i]]`,
    /// the first starting at 0.
    ///
    /// Every name must be new, to the table and within the run: a name
    /// already held would take its old id and shift every id after it.
    /// A refused run leaves **no** name behind — the table lists what it
    /// listed before the call — so a caller that keeps the prefix of a
    /// torn journal keeps a table the journal's earlier records describe.
    /// A run that cannot fit is refused as [`RunRefused::Full`] before
    /// any name is read, whatever else is wrong with it.
    ///
    /// The names the table still ascends through (each greater than the
    /// one before, the first greater than the table's last) are appended
    /// with one copy of their bytes and one comparison each; from the
    /// first that does not, the rest are interned one at a time. The
    /// table is left as interning the names one at a time would leave
    /// it, indexed or not.
    ///
    /// # Panics
    ///
    /// Panics if `ends` does not describe `bytes`: an end that falls
    /// below the one before it or inside a character, or a last end that
    /// is not `bytes.len()`.
    pub fn try_append_run(&mut self, bytes: &str, ends: &[u32]) -> Result<(), RunRefused> {
        let last = ends.last().map_or(0, |&end| end as usize);
        assert_eq!(last, bytes.len(), "a run's last end is its length");
        if ends.is_empty() {
            return Ok(());
        }
        let first = self.len();
        let base = self.ends.last().copied().unwrap_or(0);
        let fits = (u32::try_from(bytes.len()).ok())
            .and_then(|len| base.checked_add(len))
            .is_some()
            // `id + 1` is what a slot stores, so the last id is below
            // `u32::MAX`.
            && first + ends.len() <= u32::MAX as usize;
        if !fits {
            return Err(RunRefused::Full);
        }
        let was_ascending = self.ascending();
        self.reserve(ends.len());
        // How many names extend the ascending run, and where they end.
        let (mut head, mut head_end) = (0, 0);
        if was_ascending {
            // `str` order is byte order, and a `str` slice checks the
            // character boundary its end falls on.
            let mut prev = first.checked_sub(1).map(|id| self.name(id as u32));
            for &end in ends {
                let name = &bytes[head_end..end as usize];
                if prev.is_some_and(|prev| prev >= name) {
                    break;
                }
                (prev, head, head_end) = (Some(name), head + 1, end as usize);
            }
        }
        self.bytes.push_str(&bytes[..head_end]);
        self.ends.extend(ends[..head].iter().map(|&end| base + end));
        let mut start = head_end;
        for (id, &end) in (first..).zip(ends).skip(head) {
            let name = &bytes[start..end as usize];
            start = end as usize;
            if self.try_intern(name) != Some(id as u32) {
                self.truncate(first, was_ascending);
                return Err(RunRefused::Repeat);
            }
        }
        Ok(())
    }

    /// Drops every name from id `len` on: a refused run's undo. A table
    /// that ascended before the run is its own index again. A hashed one
    /// clears the dropped names' slots: names are filed in id order, so
    /// every slot on a kept name's probe sequence held an older name
    /// when it was filed, and no dropped name lies on one.
    fn truncate(&mut self, len: usize, was_ascending: bool) {
        let end = match len {
            0 => 0,
            _ => self.ends[len - 1] as usize,
        };
        self.bytes.truncate(end);
        self.ends.truncate(len);
        if was_ascending {
            self.slots = Vec::new();
        } else {
            // A slot holds `id + 1`.
            (self.slots.iter_mut())
                .filter(|slot| **slot as usize > len)
                .for_each(|slot| *slot = 0);
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
    /// say it: only `push`, and a run refused or empty before any name
    /// is read, are safe on a table faked this way.
    #[test]
    fn a_full_table_refuses_a_name_and_keeps_what_it_holds() {
        let mut table = NameTable::default();
        table.intern("m0");
        table.ends[0] = u32::MAX - 1;
        // A run that does not fit is refused before its names are read,
        // a repeat among them included.
        for (bytes, ends) in [("m1", &[2][..]), ("m0m0", &[2, 4])] {
            assert_eq!(table.try_append_run(bytes, ends), Err(RunRefused::Full));
            assert_eq!((table.len(), table.bytes.as_str()), (1, "m0"));
            assert_eq!(table.ends, [u32::MAX - 1]);
        }
        assert_eq!(table.try_append_run("", &[]), Ok(()));
        assert_eq!(table.push("m1"), None);
        assert_eq!((table.len(), table.bytes.as_str()), (1, "m0"));
        assert_eq!(table.push("1"), Some(1));
    }

    /// `names` in a table's own layout: the bytes, and where each ends.
    fn layout(names: &[String]) -> (String, Vec<u32>) {
        let bytes = names.concat();
        let ends = (names.iter())
            .scan(0, |end, name| {
                *end += name.len() as u32;
                Some(*end)
            })
            .collect();
        (bytes, ends)
    }

    /// The run property: `try_append_run` leaves the table exactly as
    /// interning the same names one at a time does when each of them
    /// takes the next id, and refuses the run with the table untouched
    /// (names, ids, and whether it is hashed) when one of them does not.
    /// Tables ascending and hashed; runs that ascend, fall, repeat a
    /// name the table holds, repeat one of their own, or mix odd names.
    #[test]
    fn a_run_appends_as_interning_it_name_by_name_would() {
        // [accepted onto an ascending table, accepted onto a hashed
        // one, left ascending after accepting, refused for a held name,
        // refused for a repeat within the run]
        let mut seen = [0usize; 5];
        for case in 0..480u64 {
            let mut rng = Rng(0x5eed_0039 ^ (case << 20) | 1);
            let ctx = format!("case {case}");
            let hashed = case % 2 == 1;
            let (mut table, mut model) = (NameTable::default(), Model::default());
            for i in 0..rng.below(40) {
                let name = match hashed {
                    true => format!("n{:04}", rng.below(1000)),
                    false => format!("n{:04}", 3 * i),
                };
                assert_eq!(table.intern(&name), model.intern(&name), "{ctx}");
            }
            let held = model.names.clone();
            let count = rng.below(24);
            let mut names: Vec<String> = match case / 2 % 4 {
                // Above every held name, ascending.
                0 => (0..count)
                    .map(|i| format!("n{:04}", 1000 + 2 * i))
                    .collect(),
                // Ascending, then falling back into the held range.
                1 => (0..count)
                    .map(|i| match i < count / 2 {
                        true => format!("n{:04}", 1000 + i),
                        false => format!("n{:04}", rng.below(1000)),
                    })
                    .collect(),
                // Anywhere, odd names included.
                2 => (0..count)
                    .map(|_| match rng.below(4) {
                        0 => ODD[rng.below(ODD.len())].to_string(),
                        _ => format!("n{:04}", rng.below(2000)),
                    })
                    .collect(),
                // New names, unordered, and distinct.
                _ => (0..count)
                    .map(|i| format!("q{:04}", (i * 7919) % 1009))
                    .collect(),
            };
            // A repeat: a held name, or one of the run's own.
            match rng.below(4) {
                0 if !held.is_empty() => {
                    let at = rng.below(names.len() + 1);
                    names.insert(at, held[rng.below(held.len())].clone());
                }
                1 if !names.is_empty() => {
                    let again = names[rng.below(names.len())].clone();
                    names.insert(rng.below(names.len() + 1), again);
                }
                _ => {}
            }
            let (bytes, ends) = layout(&names);

            let mut one = table.clone();
            let first = held.len();
            let takes_next = (names.iter().enumerate())
                .all(|(i, name)| one.try_intern(name) == Some((first + i) as u32));
            let (before, was_ascending) = (table.clone(), table.ascending());
            let got = table.try_append_run(&bytes, &ends);
            if takes_next {
                assert_eq!(got, Ok(()), "{ctx}: {names:?}");
                for name in &names {
                    model.intern(name);
                }
                assert_eq!(table, one, "{ctx}");
                assert_eq!(table.ascending(), one.ascending(), "{ctx}");
                let (run, run_ends) = table.run_from(first);
                assert_eq!(run, bytes, "{ctx}: run_from");
                assert!(run_ends.eq(ends.iter().copied()), "{ctx}: run_from ends");
                seen[usize::from(!was_ascending)] += usize::from(!names.is_empty());
                seen[2] += usize::from(table.ascending() && names.len() > 1);
            } else {
                let held_repeat = names.iter().any(|name| model.index.contains_key(name));
                assert_eq!(got, Err(RunRefused::Repeat), "{ctx}: {names:?}");
                assert_eq!(table, before, "{ctx}: refused");
                assert_eq!(table.ascending(), was_ascending, "{ctx}: refused");
                seen[if held_repeat { 3 } else { 4 }] += 1;
            }
            assert_agree(&table, &model, &ctx);
        }
        assert!(seen.iter().all(|&n| n >= 30), "{seen:?}");
    }
}
