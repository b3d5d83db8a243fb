//! The in-memory [`UrrStore`] backend.
//!
//! Byte-for-byte the same segment/snapshot model as [`crate::FsStore`]
//! with a `Mutex` over lists of buffers instead of a directory: WAL
//! frames append to an active segment that rotates at the configured
//! size, snapshots accumulate newest-last, and truncation clears the
//! segments. It is infallible, which makes it the natural backend for
//! tests (including the hostile-WAL corpus, via [`MemoryStore::mutate`]
//! and [`MemoryStore::fork`]) and for benchmarking the storage layer
//! without disk noise.
//!
//! Every segment and generation is an `Arc<Vec<u8>>`, and the store
//! moves bytes only where it must. Reading segments or generations
//! hands out the `Arc`s; a generation is kept as the buffer the journal
//! wrote; a [`fork`](MemoryStore::fork) — a crash image — is a list of
//! the same `Arc`s. Only the active segment is ever written again, and
//! it is written through [`Arc::make_mut`], so the first append after a
//! fork copies that one segment and the fork keeps the bytes it saw. A
//! segment is allocated whole when it opens, at the size it rotates at
//! (or the size of the frame that opens it, if larger), and the journal
//! encodes each frame straight into it.

use std::sync::{Arc, Mutex};

use super::{StoreError, UrrStore};

/// Default segment rotation threshold (bytes).
pub(crate) const DEFAULT_SEGMENT_BYTES: usize = 4 << 20;

/// An in-memory WAL-plus-snapshots store.
///
/// `Clone` is shallow: clones share the same underlying segments, so a
/// test can hand one handle to a [`crate::DurableUrr`] and keep another
/// to [`fork`](MemoryStore::fork) a crash image or
/// [`mutate`](MemoryStore::mutate) the bytes.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    segment_bytes: usize,
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default, Clone)]
struct Inner {
    /// WAL segments, oldest first; the last one is the active segment.
    segments: Vec<Arc<Vec<u8>>>,
    /// Snapshot documents, oldest first.
    snapshots: Vec<Arc<Vec<u8>>>,
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryStore {
    /// Creates an empty store with the default segment size.
    pub fn new() -> Self {
        Self::with_segment_bytes(DEFAULT_SEGMENT_BYTES)
    }

    /// Creates an empty store rotating segments at `segment_bytes`.
    pub fn with_segment_bytes(segment_bytes: usize) -> Self {
        MemoryStore {
            segment_bytes: segment_bytes.max(1),
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// The store's current durable contents as a store of their own —
    /// the moral equivalent of pulling the power cord and imaging the
    /// disk. Crash-recovery tests run ingest against one store, `fork`
    /// it at an arbitrary instant, and recover from the fork. The image
    /// shares the store's buffers: nothing later written to either one
    /// reaches the other, and forking copies no byte.
    pub fn fork(&self) -> MemoryStore {
        let inner = self.inner.lock().expect("memory store poisoned");
        MemoryStore {
            segment_bytes: self.segment_bytes,
            inner: Arc::new(Mutex::new(inner.clone())),
        }
    }

    /// Fault-injection hook: hands the raw `(wal segments, snapshots)`
    /// to `f` for arbitrary corruption — truncating records, flipping
    /// checksum bits, duplicating tail frames, zeroing segments. This
    /// exists so the hostile-WAL corpus tests can build every crash
    /// shape the recovery path must survive. A buffer this store shares
    /// with a fork or a reader is copied before `f` sees it, so the
    /// damage stays in this store.
    pub fn mutate(&self, f: impl FnOnce(&mut Vec<Vec<u8>>, &mut Vec<Vec<u8>>)) {
        let mut inner = self.inner.lock().expect("memory store poisoned");
        let own = |list: &mut Vec<Arc<Vec<u8>>>| -> Vec<Vec<u8>> {
            list.drain(..).map(Arc::unwrap_or_clone).collect()
        };
        let (mut segments, mut snapshots) = (own(&mut inner.segments), own(&mut inner.snapshots));
        f(&mut segments, &mut snapshots);
        inner.segments = segments.into_iter().map(Arc::new).collect();
        inner.snapshots = snapshots.into_iter().map(Arc::new).collect();
    }
}

impl UrrStore for MemoryStore {
    fn append_frame_with(
        &self,
        len: usize,
        write: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock().expect("memory store poisoned");
        let rotate = match inner.segments.last() {
            None => true,
            Some(active) => !active.is_empty() && active.len() + len > self.segment_bytes,
        };
        if rotate {
            // A segment is allocated once, at the size it rotates at:
            // growing it by doubling would copy it on the way and leave
            // the outgrown buffers behind as holes in the heap. (A size
            // too large to reserve grows as it is written instead.)
            let mut segment = Vec::new();
            let _ = segment.try_reserve_exact(self.segment_bytes.max(len));
            inner.segments.push(Arc::new(segment));
        }
        let active = inner.segments.last_mut().expect("segment just ensured");
        // A fork or a reader holding the active segment keeps the bytes
        // it has; this store writes on to a copy of its own. The frame
        // is encoded straight into the segment.
        let active = Arc::make_mut(active);
        let at = active.len();
        write(active);
        debug_assert_eq!(active.len() - at, len, "a frame is the size it said");
        // The very first segment of a fresh WAL is creation, not
        // rotation.
        Ok(rotate && inner.segments.len() > 1)
    }

    fn wal_segments(&self) -> Result<Vec<Arc<Vec<u8>>>, StoreError> {
        Ok(self
            .inner
            .lock()
            .expect("memory store poisoned")
            .segments
            .clone())
    }

    fn write_snapshot(&self, snapshot: Vec<u8>) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("memory store poisoned");
        inner.snapshots.push(Arc::new(snapshot));
        // Keep the latest two generations, like the filesystem backend:
        // the previous snapshot is the fallback if the newest is torn.
        while inner.snapshots.len() > 2 {
            inner.snapshots.remove(0);
        }
        Ok(())
    }

    fn snapshots(&self) -> Result<Vec<Arc<Vec<u8>>>, StoreError> {
        let inner = self.inner.lock().expect("memory store poisoned");
        Ok(inner.snapshots.iter().rev().cloned().collect())
    }

    fn truncate_wal(&self) -> Result<(), StoreError> {
        self.inner
            .lock()
            .expect("memory store poisoned")
            .segments
            .clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_bytes(store: &MemoryStore) -> usize {
        store.wal_segments().unwrap().iter().map(|s| s.len()).sum()
    }

    #[test]
    fn appends_accumulate_and_rotate() {
        let store = MemoryStore::with_segment_bytes(10);
        assert!(!store.append_frame(&[1; 6]).unwrap(), "first segment");
        assert!(!store.append_frame(&[2; 4]).unwrap(), "fits exactly");
        assert!(store.append_frame(&[3; 2]).unwrap(), "rotates");
        assert_eq!(store.wal_segments().unwrap().len(), 2);
        assert_eq!(wal_bytes(&store), 12);
        let segs = store.wal_segments().unwrap();
        assert_eq!(segs[0].len(), 10);
        assert_eq!(*segs[1], [3, 3]);
    }

    #[test]
    fn oversized_frame_still_lands_in_one_segment() {
        let store = MemoryStore::with_segment_bytes(4);
        store.append_frame(&[9; 100]).unwrap();
        assert_eq!(store.wal_segments().unwrap().len(), 1);
        assert_eq!(store.wal_segments().unwrap()[0].len(), 100);
    }

    #[test]
    fn snapshots_keep_two_generations_newest_first() {
        let store = MemoryStore::new();
        assert!(store.snapshots().unwrap().is_empty());
        store.write_snapshot(b"one".to_vec()).unwrap();
        store.write_snapshot(b"two".to_vec()).unwrap();
        store.write_snapshot(b"three".to_vec()).unwrap();
        let snaps = store.snapshots().unwrap();
        assert_eq!(
            snaps,
            [Arc::new(b"three".to_vec()), Arc::new(b"two".to_vec())]
        );
    }

    #[test]
    fn truncate_clears_wal_not_snapshots() {
        let store = MemoryStore::new();
        store.append_frame(b"frame").unwrap();
        store.write_snapshot(b"snap".to_vec()).unwrap();
        store.truncate_wal().unwrap();
        assert_eq!(wal_bytes(&store), 0);
        assert_eq!(store.snapshots().unwrap().len(), 1);
    }

    #[test]
    fn fork_is_a_deep_copy() {
        let store = MemoryStore::new();
        store.append_frame(b"before").unwrap();
        let fork = store.fork();
        store.append_frame(b"after").unwrap();
        assert_eq!(wal_bytes(&fork), 6);
        assert_eq!(wal_bytes(&store), 11);
    }

    /// Every byte a store holds: its segments, then its generations.
    fn image(store: &MemoryStore) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let own = |list: Vec<Arc<Vec<u8>>>| list.iter().map(|b| b.to_vec()).collect();
        (
            own(store.wal_segments().unwrap()),
            own(store.snapshots().unwrap()),
        )
    }

    /// A fork is a crash image: it reads the same bytes however the
    /// live store goes on — appends into the segment the two share, a
    /// rotation, a generation, a truncation — and damage done to it
    /// with `mutate` never reaches the live store, nor another fork.
    #[test]
    fn a_fork_is_a_frozen_crash_image() {
        let live = MemoryStore::with_segment_bytes(16);
        live.append_frame(b"frame-1").unwrap();
        live.write_snapshot(b"generation-1".to_vec()).unwrap();
        live.append_frame(b"frame-2").unwrap();
        let fork = live.fork();
        let (frozen, live_before) = (image(&fork), image(&live));
        assert_eq!(frozen, live_before, "a fork starts as the store");
        assert!(!live.append_frame(b"x").unwrap(), "into the shared segment");
        assert!(live.append_frame(b"frame-3").unwrap(), "rotates");
        assert_eq!(image(&fork), frozen, "after appends");
        live.write_snapshot(b"generation-2".to_vec()).unwrap();
        live.write_snapshot(b"generation-3".to_vec()).unwrap();
        assert_eq!(image(&fork), frozen, "after generations");
        live.truncate_wal().unwrap();
        assert_eq!(image(&fork), frozen, "after truncation");

        // A fork the live store has not written since: damage to it
        // stays in it, even where the two still share every buffer.
        let untouched = live.fork();
        let live_now = image(&live);
        let second = live.fork();
        live.append_frame(b"frame-4").unwrap();
        let live_after = image(&live);
        for damaged in [&fork, &untouched] {
            damaged.mutate(|segments, snapshots| {
                for bytes in segments.iter_mut().chain(snapshots.iter_mut()) {
                    bytes.iter_mut().for_each(|b| *b ^= 0xff);
                    bytes.push(0);
                }
                segments.push(b"forged".to_vec());
            });
            assert_ne!(image(damaged), frozen);
        }
        assert_eq!(image(&live), live_after, "live store untouched");
        assert_eq!(image(&second), live_now, "another fork untouched");
        assert_ne!(live_now, live_after);
    }

    #[test]
    fn mutate_reaches_raw_bytes() {
        let store = MemoryStore::new();
        store.append_frame(b"abc").unwrap();
        store.mutate(|segments, snapshots| {
            segments[0][0] ^= 0xff;
            snapshots.push(b"fake".to_vec());
        });
        assert_ne!(store.wal_segments().unwrap()[0][0], b'a');
        assert_eq!(store.snapshots().unwrap().len(), 1);
    }
}
