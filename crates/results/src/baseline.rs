//! Archived reference runs for noise-aware regression gating.
//!
//! A baseline is a full [`RunReport`] — values *and* their recorded noise
//! bands — keyed by a host fingerprint, so `suite --baseline check` can
//! refuse to compare a laptop against a build server. This module keeps
//! the envelope type and the host [`fingerprint`]; the CLI stores
//! baselines in the same segment store as the results daemon, under
//! `.lmbench/baselines/` by default (see [`crate::store`]).

use crate::runreport::RunReport;
use crate::schema::SuiteRun;
use crate::store::SCHEMA_VERSION;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{SystemTime, UNIX_EPOCH};

/// A stored reference run: the unit every [`ReportStore`](crate::store::ReportStore)
/// appends, and the envelope the results daemon ships over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Schema version this entry was written with (see
    /// [`crate::store::SCHEMA_VERSION`]); files that predate the field
    /// read as version 1.
    #[serde(default = "crate::store::legacy_schema_version")]
    pub schema_version: u32,
    /// Host fingerprint (see [`fingerprint`]); comparisons across
    /// fingerprints are refused by callers, not silently wrong.
    pub fingerprint: String,
    /// Human-readable host name, for report headers.
    pub host: String,
    /// Capture time, seconds since the Unix epoch.
    pub unix_seconds: u64,
    /// The archived run, noise bands included.
    pub report: RunReport,
    /// The table payload (paper rows) the run produced, when the donor
    /// shipped one — this is what lets the results daemon regenerate
    /// paper tables from any stored entry. Absent in v1 files, and left
    /// off the wire when absent so plain baselines stay byte-minimal.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub run: Option<SuiteRun>,
}

impl Baseline {
    /// Wraps a report captured now on the described host.
    #[must_use]
    pub fn now(fingerprint: &str, host: &str, report: RunReport) -> Baseline {
        let unix_seconds = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Baseline {
            schema_version: SCHEMA_VERSION,
            fingerprint: fingerprint.to_string(),
            host: host.to_string(),
            unix_seconds,
            report,
            run: None,
        }
    }

    /// Attaches the table payload the run produced, so the entry can
    /// regenerate paper tables wherever it is stored.
    #[must_use]
    pub fn with_run(mut self, run: SuiteRun) -> Baseline {
        self.run = Some(run);
        self
    }

    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline types always serialize")
    }

    /// Parses [`Baseline::to_json`] output back.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes without whitespace, for one-entry-per-line segment files.
    pub fn to_json_compact(&self) -> String {
        serde_json::to_string(self).expect("baseline types always serialize")
    }
}

/// A stable, filename-safe digest of the identity strings that make two
/// runs comparable (host name, CPU model, memory size, ...). Differing
/// inputs give differing fingerprints with overwhelming probability;
/// equal inputs always agree across runs of the same binary.
#[must_use]
pub fn fingerprint(parts: &[&str]) -> String {
    let mut hasher = DefaultHasher::new();
    for part in parts {
        part.hash(&mut hasher);
        0xffu8.hash(&mut hasher); // separator: ["ab","c"] != ["a","bc"]
    }
    // A short human hint from the first part keeps filenames greppable.
    let hint: String = parts
        .first()
        .unwrap_or(&"host")
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .take(12)
        .collect::<String>()
        .to_ascii_lowercase();
    let hint = if hint.is_empty() { "host".into() } else { hint };
    format!("{hint}-{:016x}", hasher.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runreport::{BenchRecord, BenchStatus};
    use crate::schema::SyscallRow;
    use serde::Value;

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
    fn fingerprint_is_stable_and_input_sensitive() {
        let a = fingerprint(&["myhost", "x86_64", "Linux 6.1"]);
        assert_eq!(a, fingerprint(&["myhost", "x86_64", "Linux 6.1"]));
        assert_ne!(a, fingerprint(&["myhost", "x86_64", "Linux 6.2"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert!(a.starts_with("myhost-"), "{a}");
        assert!(
            a.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
            "filename-unsafe fingerprint {a}"
        );
    }

    #[test]
    fn v1_envelope_without_schema_version_reads_as_v1() {
        // Files written before the field existed must keep loading.
        let fp = fingerprint(&["hostA"]);
        let json = Baseline::now(&fp, "hostA", report("lat_syscall")).to_json();
        let mut value: Value = serde_json::from_str(&json).unwrap();
        value.set("schema_version", Value::Null);
        let loaded =
            Baseline::from_json(&serde_json::to_string(&value).unwrap()).expect("tolerant");
        assert_eq!(loaded.schema_version, 1);
        assert_eq!(loaded.run, None);
        // Re-serializing preserves the version it was loaded with.
        let again = Baseline::from_json(&loaded.to_json()).expect("reparse");
        assert_eq!(again.schema_version, 1);
    }

    #[test]
    fn run_payload_roundtrips_and_stays_optional() {
        let fp = fingerprint(&["hostA"]);
        let plain = Baseline::now(&fp, "hostA", report("lat_syscall"));
        assert!(
            !plain.to_json().contains("\"run\""),
            "absent payload is not serialized"
        );
        let with_run = plain.clone().with_run(SuiteRun {
            syscall: Some(SyscallRow {
                system: "hostA".into(),
                syscall_us: 4.2,
            }),
            ..Default::default()
        });
        assert_eq!(with_run.schema_version, SCHEMA_VERSION);
        let back = Baseline::from_json(&with_run.to_json()).expect("roundtrip");
        assert_eq!(back, with_run);
        assert_eq!(back.run.unwrap().syscall.unwrap().syscall_us, 4.2);
    }
}
