//! A copy-on-write in-memory filesystem.
//!
//! Files are immutable once inserted and stored behind [`Arc`]s. A file
//! installed from a package is the repository's own allocation, shared
//! by every machine that installed it; a snapshot (a clone) copies one pointer per
//! entry, and replacing or removing an entry on one side never shows on
//! the other. The path map itself is owned per filesystem: a sandbox
//! always writes, so sharing the map would only move the copy to its
//! first insert. This is the property Mirage's validation sandbox
//! relies on, mirroring the paper's copy-on-write User-Mode Linux boot.

use std::collections::BTreeMap;
use std::sync::Arc;

use mirage_fingerprint::ResourceData;

use crate::file::File;

/// An in-memory filesystem with copy-on-write snapshots.
///
/// A clone is the snapshot: it shares file storage with the original,
/// and inserting into or removing from either side afterwards does not
/// affect the other. Two filesystems are equal when they hold the same paths with equal
/// contents, whether or not the files are one allocation; hashing reads
/// contents too.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FileSystem {
    files: BTreeMap<String, Arc<File>>,
}

// Nothing asks whether it is empty; `len` is what callers read.
#[allow(clippy::len_without_is_empty)]
impl FileSystem {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a file. Returns the previous file, if any.
    ///
    /// Takes a [`File`] or an already shared `Arc<File>`; the latter is
    /// stored as is, not copied.
    pub fn insert(&mut self, file: impl Into<Arc<File>>) -> Option<Arc<File>> {
        let file = file.into();
        self.files.insert(file.path.clone(), file)
    }

    /// Removes a file by path.
    pub fn remove(&mut self, path: &str) -> Option<Arc<File>> {
        self.files.remove(path)
    }

    /// Looks up a file by path.
    pub fn get(&self, path: &str) -> Option<&File> {
        self.files.get(path).map(Arc::as_ref)
    }

    /// Returns `true` if `path` exists.
    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Iterates over files in path order.
    pub fn iter(&self) -> impl Iterator<Item = &File> {
        self.files.values().map(Arc::as_ref)
    }

    /// Returns all paths in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Renders the files at `paths` into parser-facing resource views.
    ///
    /// Missing paths are skipped: the caller (the heuristic) may list
    /// resources that a particular machine does not have, which is itself
    /// a difference the fingerprint comparison must surface — absence is
    /// encoded by the item simply not being produced.
    pub fn resources(&self, paths: impl IntoIterator<Item = impl AsRef<str>>) -> Vec<ResourceData> {
        paths
            .into_iter()
            .filter_map(|p| self.get(p.as_ref()).map(File::to_resource))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::FileContent;

    fn textfile(path: &str, text: &str) -> File {
        File::new(
            path,
            mirage_fingerprint::ResourceKind::Text,
            FileContent::Text(vec![text.to_string()]),
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut fs = FileSystem::new();
        assert_eq!(fs.len(), 0);
        fs.insert(textfile("/a", "1"));
        assert!(fs.contains("/a"));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs.get("/a").unwrap().path, "/a");
        assert!(fs.remove("/a").is_some());
        assert!(fs.get("/a").is_none());
        assert!(fs.remove("/a").is_none());
    }

    #[test]
    fn snapshot_isolation() {
        let mut base = FileSystem::new();
        base.insert(textfile("/etc/x", "orig"));
        base.insert(textfile("/etc/y", "orig"));
        let mut snap = base.clone();
        snap.insert(textfile("/etc/x", "changed"));
        snap.remove("/etc/y");
        snap.insert(textfile("/etc/z", "new"));
        // Base unchanged.
        assert_eq!(
            base.get("/etc/x").unwrap().content,
            FileContent::Text(vec!["orig".into()])
        );
        assert!(base.contains("/etc/y"));
        assert!(!base.contains("/etc/z"));
        // Snapshot sees its own changes.
        assert_eq!(
            snap.get("/etc/x").unwrap().content,
            FileContent::Text(vec!["changed".into()])
        );
        assert!(!snap.contains("/etc/y"));
    }

    /// A shared file is stored as is, and replacing or removing it in one
    /// filesystem never shows through another holder of the same `Arc`.
    #[test]
    fn shared_files_are_not_copied_and_never_written_through() {
        let shared = Arc::new(textfile("/etc/x", "orig"));
        let (mut a, mut b) = (FileSystem::new(), FileSystem::new());
        assert!(a.insert(Arc::clone(&shared)).is_none());
        assert!(b.insert(Arc::clone(&shared)).is_none());
        assert!(std::ptr::eq(a.get("/etc/x").unwrap(), &*shared));
        assert!(std::ptr::eq(b.get("/etc/x").unwrap(), &*shared));
        assert_eq!(Arc::strong_count(&shared), 3);

        let previous = a.insert(textfile("/etc/x", "changed")).unwrap();
        assert!(Arc::ptr_eq(&previous, &shared));
        assert!(Arc::ptr_eq(&b.remove("/etc/x").unwrap(), &shared));
        assert_eq!(shared.content, FileContent::Text(vec!["orig".into()]));
        assert_eq!(
            a.get("/etc/x").unwrap().content,
            FileContent::Text(vec!["changed".into()])
        );
        assert!(!b.contains("/etc/x"));
    }

    #[test]
    fn resources_skip_missing_paths() {
        let mut fs = FileSystem::new();
        fs.insert(textfile("/a", "1"));
        let res = fs.resources(["/a", "/missing"]);
        assert_eq!(res.len(), 1);
    }
}
