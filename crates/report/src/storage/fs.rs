//! The filesystem [`UrrStore`] backend.
//!
//! Directory layout under the store root:
//!
//! ```text
//! <root>/wal/seg-00000001.log      # oldest WAL segment
//! <root>/wal/seg-00000002.log      # … the highest number is active
//! <root>/snapshots/snap-00000007.bin
//! <root>/snapshots/snap-00000008.bin  # newest generation
//! ```
//!
//! WAL frames append to the active segment and rotate to a new file at
//! the configured size. Snapshots are written to a `.tmp` file and
//! atomically renamed into place, then older generations beyond the
//! previous one are pruned — the previous generation is the fallback
//! if a crash tears the newest. Segment and snapshot numbering is
//! monotonic across restarts (re-opening scans the directory).
//!
//! Writes go through the OS page cache without `fsync`; the crash
//! model is process death, not power loss (DESIGN.md §18 discusses the
//! gap). Every I/O error is surfaced as a typed [`StoreError`] naming
//! the failing operation.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use super::memory::DEFAULT_SEGMENT_BYTES;
use super::{StoreError, UrrStore};

/// A directory-backed WAL-plus-snapshots store.
#[derive(Debug)]
pub struct FsStore {
    root: PathBuf,
    segment_bytes: usize,
    state: Mutex<FsState>,
}

#[derive(Debug)]
struct FsState {
    /// Number of the active WAL segment (0 = none yet).
    active_seg: u64,
    /// Bytes already in the active segment.
    active_len: usize,
    /// Highest snapshot generation written or found.
    snapshot_gen: u64,
}

impl FsStore {
    /// Opens (creating if necessary) a store rooted at `root` with the
    /// default segment size.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_segment_bytes(root, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens (creating if necessary) a store rooted at `root`, rotating
    /// WAL segments at `segment_bytes`.
    pub fn open_with_segment_bytes(
        root: impl Into<PathBuf>,
        segment_bytes: usize,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        let wal_dir = root.join("wal");
        let snap_dir = root.join("snapshots");
        fs::create_dir_all(&wal_dir).map_err(|e| StoreError::io("create wal dir", e))?;
        fs::create_dir_all(&snap_dir).map_err(|e| StoreError::io("create snapshot dir", e))?;
        let mut active_seg = 0;
        let mut active_len = 0;
        for (n, path) in numbered_files(&wal_dir, "seg-", ".log")? {
            if n > active_seg {
                active_seg = n;
                active_len = fs::metadata(&path)
                    .map_err(|e| StoreError::io("stat wal segment", e))?
                    .len() as usize;
            }
        }
        let snapshot_gen = numbered_files(&snap_dir, "snap-", ".bin")?
            .into_iter()
            .map(|(n, _)| n)
            .max()
            .unwrap_or(0);
        Ok(FsStore {
            root,
            segment_bytes: segment_bytes.max(1),
            state: Mutex::new(FsState {
                active_seg,
                active_len,
                snapshot_gen,
            }),
        })
    }

    fn seg_path(&self, n: u64) -> PathBuf {
        self.root.join("wal").join(format!("seg-{n:08}.log"))
    }

    fn snap_path(&self, n: u64) -> PathBuf {
        self.root.join("snapshots").join(format!("snap-{n:08}.bin"))
    }
}

/// Lists `<prefix><number><suffix>` files in `dir`, sorted by number.
fn numbered_files(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read store dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read store dir entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
        else {
            continue;
        };
        let Ok(n) = stem.parse::<u64>() else { continue };
        out.push((n, entry.path()));
    }
    out.sort_unstable_by_key(|(n, _)| *n);
    Ok(out)
}

impl UrrStore for FsStore {
    fn append_frame_with(
        &self,
        len: usize,
        write: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<bool, StoreError> {
        let mut frame = Vec::with_capacity(len);
        write(&mut frame);
        debug_assert_eq!(frame.len(), len, "a frame is the size it said");
        let mut state = self.state.lock().expect("fs store poisoned");
        let rotate = state.active_seg == 0
            || (state.active_len > 0 && state.active_len + frame.len() > self.segment_bytes);
        let was_fresh = state.active_seg == 0;
        if rotate {
            state.active_seg += 1;
            state.active_len = 0;
        }
        let path = self.seg_path(state.active_seg);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io("open wal segment", e))?;
        file.write_all(&frame)
            .map_err(|e| StoreError::io("append wal frame", e))?;
        state.active_len += frame.len();
        Ok(rotate && !was_fresh)
    }

    fn wal_segments(&self) -> Result<Vec<Arc<Vec<u8>>>, StoreError> {
        let _state = self.state.lock().expect("fs store poisoned");
        let mut out = Vec::new();
        for (_, path) in numbered_files(&self.root.join("wal"), "seg-", ".log")? {
            let bytes = fs::read(&path).map_err(|e| StoreError::io("read wal segment", e))?;
            out.push(Arc::new(bytes));
        }
        Ok(out)
    }

    fn write_snapshot(&self, snapshot: Vec<u8>) -> Result<(), StoreError> {
        let mut state = self.state.lock().expect("fs store poisoned");
        let gen = state.snapshot_gen + 1;
        let tmp = self.snap_path(gen).with_extension("tmp");
        let fin = self.snap_path(gen);
        fs::write(&tmp, &snapshot).map_err(|e| StoreError::io("write snapshot tmp", e))?;
        fs::rename(&tmp, &fin).map_err(|e| StoreError::io("rename snapshot", e))?;
        state.snapshot_gen = gen;
        // Prune generations older than the previous one (the fallback).
        for (n, path) in numbered_files(&self.root.join("snapshots"), "snap-", ".bin")? {
            if n + 1 < gen {
                fs::remove_file(&path).map_err(|e| StoreError::io("prune snapshot", e))?;
            }
        }
        Ok(())
    }

    fn snapshots(&self) -> Result<Vec<Arc<Vec<u8>>>, StoreError> {
        let _state = self.state.lock().expect("fs store poisoned");
        let mut files = numbered_files(&self.root.join("snapshots"), "snap-", ".bin")?;
        files.reverse(); // newest first
        let mut out = Vec::with_capacity(files.len());
        for (_, path) in files {
            let bytes = fs::read(&path).map_err(|e| StoreError::io("read snapshot", e))?;
            out.push(Arc::new(bytes));
        }
        Ok(out)
    }

    fn truncate_wal(&self) -> Result<(), StoreError> {
        let mut state = self.state.lock().expect("fs store poisoned");
        for (_, path) in numbered_files(&self.root.join("wal"), "seg-", ".log")? {
            fs::remove_file(&path).map_err(|e| StoreError::io("truncate wal", e))?;
        }
        // Numbering stays monotonic; the next append opens a new file.
        state.active_seg += 1;
        state.active_len = 0;
        let path = self.seg_path(state.active_seg);
        fs::write(&path, []).map_err(|e| StoreError::io("start wal segment", e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("mirage-fsstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn append_read_roundtrip_with_rotation() {
        let root = temp_root("rot");
        let store = FsStore::open_with_segment_bytes(&root, 8).unwrap();
        assert!(!store.append_frame(&[1; 6]).unwrap());
        assert!(store.append_frame(&[2; 6]).unwrap(), "rotates");
        let segs = store.wal_segments().unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(*segs[0], [1; 6]);
        assert_eq!(*segs[1], [2; 6]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_resumes_numbering_and_active_length() {
        let root = temp_root("reopen");
        {
            let store = FsStore::open_with_segment_bytes(&root, 100).unwrap();
            store.append_frame(b"abcd").unwrap();
            store.write_snapshot(b"snap1".to_vec()).unwrap();
        }
        let store = FsStore::open_with_segment_bytes(&root, 100).unwrap();
        store.append_frame(b"ef").unwrap();
        let segs = store.wal_segments().unwrap();
        assert_eq!(segs.len(), 1, "appended to the same active segment");
        assert_eq!(*segs[0], b"abcdef");
        store.write_snapshot(b"snap2".to_vec()).unwrap();
        let snaps = store.snapshots().unwrap();
        assert_eq!(snaps, [shared(b"snap2"), shared(b"snap1")]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_pruning_keeps_two_generations() {
        let root = temp_root("prune");
        let store = FsStore::open(&root).unwrap();
        store.write_snapshot(b"g1".to_vec()).unwrap();
        store.write_snapshot(b"g2".to_vec()).unwrap();
        store.write_snapshot(b"g3".to_vec()).unwrap();
        assert_eq!(store.snapshots().unwrap(), [shared(b"g3"), shared(b"g2")]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncate_clears_segments_and_restarts() {
        let root = temp_root("trunc");
        let store = FsStore::open(&root).unwrap();
        store.append_frame(b"old").unwrap();
        store.truncate_wal().unwrap();
        let segs = store.wal_segments().unwrap();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].is_empty(), "fresh empty active segment");
        store.append_frame(b"new").unwrap();
        assert_eq!(store.wal_segments().unwrap(), [shared(b"new")]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn foreign_files_are_ignored() {
        let root = temp_root("foreign");
        let store = FsStore::open(&root).unwrap();
        fs::write(root.join("wal").join("README"), b"not a segment").unwrap();
        fs::write(root.join("wal").join("seg-notanum.log"), b"junk").unwrap();
        store.append_frame(b"real").unwrap();
        assert_eq!(store.wal_segments().unwrap(), [shared(b"real")]);
        fs::remove_dir_all(&root).unwrap();
    }
}
