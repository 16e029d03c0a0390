//! JSON persistence and merging of suite runs.
//!
//! The paper's database grew by donation: "Many of the results included in
//! the database were donated by users." [`ResultsDb`] is the same idea —
//! a set of [`SuiteRun`]s keyed by system name, storable as a JSON file,
//! mergeable with other sets. It is the shape the paper's table
//! renderers want; the ordered history of runs lives in the results store
//! (see [`crate::store`]).

use crate::schema::SuiteRun;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// A collection of suite runs keyed by system name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultsDb {
    runs: BTreeMap<String, SuiteRun>,
}

impl ResultsDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces the run for `name`. Returns the displaced run.
    pub fn insert(&mut self, name: impl Into<String>, run: SuiteRun) -> Option<SuiteRun> {
        self.runs.insert(name.into(), run)
    }

    /// The run for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&SuiteRun> {
        self.runs.get(name)
    }

    /// All (name, run) pairs, name-ordered.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SuiteRun)> {
        self.runs.iter()
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if no runs are stored.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Merges `other` in; on name collisions `other`'s runs win (newer
    /// donations replace older).
    pub fn merge(&mut self, other: ResultsDb) {
        for (name, run) in other.runs {
            self.runs.insert(name, run);
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schema types always serialize")
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the database to a file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a database from a file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SyscallRow;

    fn run_with_syscall(us: f64) -> SuiteRun {
        SuiteRun {
            syscall: Some(SyscallRow {
                system: "host".into(),
                syscall_us: us,
            }),
            ..Default::default()
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut db = ResultsDb::new();
        assert!(db.is_empty());
        db.insert("host", run_with_syscall(1.0));
        assert_eq!(db.len(), 1);
        assert!(db.get("host").unwrap().syscall.is_some());
        assert!(db.get("missing").is_none());
    }

    #[test]
    fn json_round_trip() {
        let mut db = ResultsDb::new();
        db.insert("a", run_with_syscall(1.5));
        db.insert("b", SuiteRun::default());
        let back = ResultsDb::from_json(&db.to_json()).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn merge_prefers_newer() {
        let mut old = ResultsDb::new();
        old.insert("host", run_with_syscall(9.0));
        let mut new = ResultsDb::new();
        new.insert("host", run_with_syscall(1.0));
        new.insert("other", SuiteRun::default());
        old.merge(new);
        assert_eq!(old.len(), 2);
        assert_eq!(
            old.get("host")
                .unwrap()
                .syscall
                .as_ref()
                .unwrap()
                .syscall_us,
            1.0
        );
    }

    #[test]
    fn save_load_file_round_trip() {
        let path = std::env::temp_dir().join(format!("lmb-db-{}.json", std::process::id()));
        let mut db = ResultsDb::new();
        db.insert("host", run_with_syscall(2.0));
        db.save(&path).unwrap();
        let back = ResultsDb::load(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_file_is_invalid_data() {
        let path = std::env::temp_dir().join(format!("lmb-db-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{not json").unwrap();
        let err = ResultsDb::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut db = ResultsDb::new();
        db.insert("zeta", SuiteRun::default());
        db.insert("alpha", SuiteRun::default());
        let names: Vec<&String> = db.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
