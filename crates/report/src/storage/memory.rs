//! The in-memory [`UrrStore`] backend.
//!
//! Byte-for-byte the same segment/snapshot model as [`crate::FsStore`]
//! with a `Mutex<Vec<Vec<u8>>>` instead of a directory: WAL frames
//! append to an active segment that rotates at the configured size,
//! snapshots accumulate newest-last, and truncation clears the
//! segments. It is infallible, which makes it the natural backend for
//! tests (including the hostile-WAL corpus, via [`MemoryStore::mutate`]
//! and [`MemoryStore::fork`]) and for benchmarking the storage layer
//! without disk noise.

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
    segments: Vec<Vec<u8>>,
    /// Snapshot documents, oldest first.
    snapshots: Vec<Vec<u8>>,
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

    /// Deep-copies the store's current durable contents — the moral
    /// equivalent of pulling the power cord and imaging the disk.
    /// Crash-recovery tests run ingest against one store, `fork` it at
    /// an arbitrary instant, and recover from the fork.
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
    /// shape the recovery path must survive.
    pub fn mutate(&self, f: impl FnOnce(&mut Vec<Vec<u8>>, &mut Vec<Vec<u8>>)) {
        let mut inner = self.inner.lock().expect("memory store poisoned");
        let inner = &mut *inner;
        f(&mut inner.segments, &mut inner.snapshots);
    }
}

impl UrrStore for MemoryStore {
    fn append_frame(&self, frame: &[u8]) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock().expect("memory store poisoned");
        let rotate = match inner.segments.last() {
            None => true,
            Some(active) => !active.is_empty() && active.len() + frame.len() > self.segment_bytes,
        };
        if rotate {
            inner.segments.push(Vec::new());
        }
        let active = inner.segments.last_mut().expect("segment just ensured");
        active.extend_from_slice(frame);
        // The very first segment of a fresh WAL is creation, not
        // rotation.
        Ok(rotate && inner.segments.len() > 1)
    }

    fn wal_segments(&self) -> Result<Vec<Vec<u8>>, StoreError> {
        Ok(self
            .inner
            .lock()
            .expect("memory store poisoned")
            .segments
            .clone())
    }

    fn write_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("memory store poisoned");
        inner.snapshots.push(snapshot.to_vec());
        // Keep the latest two generations, like the filesystem backend:
        // the previous snapshot is the fallback if the newest is torn.
        while inner.snapshots.len() > 2 {
            inner.snapshots.remove(0);
        }
        Ok(())
    }

    fn snapshots(&self) -> Result<Vec<Vec<u8>>, StoreError> {
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
        store.wal_segments().unwrap().iter().map(Vec::len).sum()
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
        assert_eq!(segs[1], vec![3, 3]);
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
        store.write_snapshot(b"one").unwrap();
        store.write_snapshot(b"two").unwrap();
        store.write_snapshot(b"three").unwrap();
        let snaps = store.snapshots().unwrap();
        assert_eq!(snaps, vec![b"three".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn truncate_clears_wal_not_snapshots() {
        let store = MemoryStore::new();
        store.append_frame(b"frame").unwrap();
        store.write_snapshot(b"snap").unwrap();
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
