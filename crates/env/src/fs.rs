//! A copy-on-write in-memory filesystem.
//!
//! Files are immutable once inserted and stored behind [`Arc`]s. A file
//! installed from a package is the repository's own allocation, shared
//! by every machine that installed it; a snapshot clones one pointer per
//! entry, and replacing or removing an entry on one side never shows on
//! the other. The path map itself is owned per filesystem: a sandbox
//! always writes, so sharing the map would only move the copy to its
//! first insert. This is the property Mirage's validation sandbox
//! relies on, mirroring the paper's copy-on-write User-Mode Linux boot.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use mirage_fingerprint::{Glob, ResourceData};

use crate::file::File;

/// An in-memory filesystem with copy-on-write snapshots.
#[derive(Debug, Clone, Default)]
pub struct FileSystem {
    files: BTreeMap<String, Arc<File>>,
}

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

    /// Returns `true` if the filesystem has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over files in path order.
    pub fn iter(&self) -> impl Iterator<Item = &File> {
        self.files.values().map(Arc::as_ref)
    }

    /// Returns all paths in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Returns the files whose paths match `glob`, in path order.
    pub fn matching(&self, glob: &Glob) -> Vec<&File> {
        self.iter().filter(|f| glob.matches(&f.path)).collect()
    }

    /// Takes a copy-on-write snapshot.
    ///
    /// The snapshot shares file storage with the base; inserting into or
    /// removing from either side afterwards does not affect the other.
    pub fn snapshot(&self) -> FileSystem {
        FileSystem {
            files: self.files.clone(),
        }
    }

    /// Returns the set of paths whose presence or contents differ between
    /// `self` and `other`.
    ///
    /// Used by the validation subsystem to answer "which files did this
    /// upgrade change?".
    pub fn changed_paths(&self, other: &FileSystem) -> BTreeSet<String> {
        let mut changed = BTreeSet::new();
        for (path, file) in &self.files {
            match other.files.get(path) {
                None => {
                    changed.insert(path.clone());
                }
                Some(o) => {
                    // Arc pointer equality is a cheap fast path; fall back
                    // to structural comparison.
                    if !Arc::ptr_eq(file, o) && **file != **o {
                        changed.insert(path.clone());
                    }
                }
            }
        }
        for path in other.files.keys() {
            if !self.files.contains_key(path) {
                changed.insert(path.clone());
            }
        }
        changed
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

    /// Renders every file into a resource view (vendor reference machines).
    pub fn all_resources(&self) -> Vec<ResourceData> {
        self.iter().map(File::to_resource).collect()
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
        assert!(fs.is_empty());
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
        let mut snap = base.snapshot();
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
    fn changed_paths_detects_all_kinds_of_change() {
        let mut a = FileSystem::new();
        a.insert(textfile("/same", "s"));
        a.insert(textfile("/modified", "v1"));
        a.insert(textfile("/only-a", "x"));
        let mut b = a.snapshot();
        b.insert(textfile("/modified", "v2"));
        b.remove("/only-a");
        b.insert(textfile("/only-b", "y"));
        let changed = a.changed_paths(&b);
        assert_eq!(
            changed.into_iter().collect::<Vec<_>>(),
            vec!["/modified", "/only-a", "/only-b"]
        );
        // Reflexive: no changes against self.
        assert!(a.changed_paths(&a).is_empty());
    }

    #[test]
    fn glob_matching() {
        let mut fs = FileSystem::new();
        fs.insert(textfile("/var/log/a.log", ""));
        fs.insert(textfile("/var/lib/db", ""));
        fs.insert(textfile("/etc/x", ""));
        let hits = fs.matching(&Glob::new("/var/**"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn resources_skip_missing_paths() {
        let mut fs = FileSystem::new();
        fs.insert(textfile("/a", "1"));
        let res = fs.resources(["/a", "/missing"]);
        assert_eq!(res.len(), 1);
        assert_eq!(fs.all_resources().len(), 1);
    }
}
