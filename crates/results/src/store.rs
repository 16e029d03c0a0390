//! The results store interface and the schema version it persists.
//!
//! [`ReportStore`] is an append-only time series per host fingerprint —
//! the paper's "database grew by donation" model, but ordered, so history
//! is never silently replaced. Its one implementation is the segment
//! store in `lmb_core::service`, which backs both the results daemon and
//! `suite --baseline`. [`load_entry`] reads any single results file.
//!
//! # Schema versioning policy
//!
//! [`SCHEMA_VERSION`] is the single definition of the current on-disk and
//! on-wire schema version, stamped into every serialized [`Baseline`],
//! [`RunReport`](crate::RunReport) and [`SuiteRun`](crate::SuiteRun).
//! Deserialization is tolerant in the established style of
//! `rusage.contended` and `provenance.clamped_samples`: a missing
//! `schema_version` reads as version 1 (every file written before the
//! field existed), and unknown *fields* are ignored, so version bumps are
//! additive. Loaded entries keep the version they were written with.

use crate::baseline::Baseline;
use crate::runreport::RunReport;
use std::io;
use std::path::Path;

/// The schema version stamped into everything this crate serializes.
///
/// * **v1** — implicit: files written before the field existed.
/// * **v2** — `schema_version` made explicit; [`Baseline`] may carry the
///   optional `run` table payload next to its `report`.
pub const SCHEMA_VERSION: u32 = 2;

/// What a missing `schema_version` reads as: files written before the
/// field existed are version 1. The `#[serde(default = ...)]` of every
/// versioned type.
pub(crate) fn legacy_schema_version() -> u32 {
    1
}

/// An append-only time series of results, sharded by host fingerprint.
///
/// Entries within one fingerprint are ordered by `(unix_seconds, arrival)`
/// — capture time first, insertion order as the tiebreak — so two stores
/// fed the same entries in the same per-shard order answer every query
/// identically, which is what the results daemon's determinism guarantee
/// rests on.
pub trait ReportStore {
    /// Appends one entry to its fingerprint's series and returns the
    /// series length after the append (the entry's 1-based shard
    /// sequence number).
    fn append(&mut self, entry: Baseline) -> io::Result<u64>;

    /// All entries for `fingerprint`, oldest first, lent from the
    /// store's own series; an unknown fingerprint has none.
    fn history(&self, fingerprint: &str) -> io::Result<&[Baseline]>;

    /// The newest entry for `fingerprint`, or `None` when the store holds
    /// nothing comparable. Unreadable files are skipped with a warning
    /// when the store opens, never fatal: a corrupt baseline must read as
    /// "no baseline", not as "no regression".
    fn latest(&self, fingerprint: &str) -> io::Result<Option<Baseline>> {
        Ok(self.history(fingerprint)?.last().cloned())
    }
}

/// Reads one results file, whatever its era: a stored [`Baseline`]
/// envelope, or a bare [`RunReport`] artifact (`--report-json` output),
/// normalized to an envelope with empty identity fields. This is the one
/// entry point for "load whatever the user pointed us at" — the CLI's
/// `diff` and the daemon's `report push` both go through it.
pub fn load_entry(path: &Path) -> io::Result<Baseline> {
    let text = std::fs::read_to_string(path)?;
    if let Ok(baseline) = Baseline::from_json(&text) {
        return Ok(baseline);
    }
    match RunReport::from_json(&text) {
        Ok(report) => Ok(Baseline {
            schema_version: SCHEMA_VERSION,
            fingerprint: String::new(),
            host: String::new(),
            unix_seconds: 0,
            report,
            run: None,
        }),
        Err(e) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: neither a baseline nor a run report: {e}",
                path.display()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::fingerprint;
    use crate::runreport::{BenchRecord, BenchStatus};

    fn report(bench: &str) -> RunReport {
        RunReport {
            records: vec![BenchRecord {
                name: bench.into(),
                produces: "Table 7".into(),
                status: BenchStatus::Ok,
                attempts: 1,
                wall_ms: 1.0,
                exclusive: false,
                provenance: None,
                rusage: None,
                counters: None,
                metrics: Vec::new(),
                span: None,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn load_entry_accepts_both_envelope_and_bare_report() {
        let dir = std::env::temp_dir().join(format!("lmbench-store-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fp = fingerprint(&["hostA"]);
        let envelope = Baseline::now(&fp, "hostA", report("lat_syscall"));
        let env_path = dir.join("envelope.json");
        std::fs::write(&env_path, envelope.to_json()).unwrap();
        let loaded = load_entry(&env_path).unwrap();
        assert_eq!(loaded, envelope);

        let bare_path = dir.join("bare.json");
        std::fs::write(&bare_path, report("bw_mem").to_json()).unwrap();
        let loaded = load_entry(&bare_path).unwrap();
        assert_eq!(loaded.fingerprint, "");
        assert_eq!(loaded.schema_version, SCHEMA_VERSION);
        assert_eq!(loaded.report.records[0].name, "bw_mem");

        let bad_path = dir.join("bad.json");
        std::fs::write(&bad_path, "{not json").unwrap();
        let err = load_entry(&bad_path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
