//! The results store over the directory layout `suite --baseline` wrote
//! before it shared the daemon's segment store: one pretty-printed
//! `Baseline` per `{fingerprint}-{unix_seconds}[-n].json` file, `-n`
//! counting same-second saves. Opening such a directory imports it once.

use lmbench::core::service::SegmentStore;
use lmbench::core::ServiceConfig;
use lmbench::results::{fingerprint, Baseline, ReportStore, RunReport};
use lmbench::trace::{EventKind, MemorySink, Trace};
use std::path::{Path, PathBuf};

const FIXTURE_FP: &str = "fleet-host-00ab54cd12ef3401";

fn fixture() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v1-baseline.json"
    );
    std::fs::read_to_string(path).expect("fixture readable")
}

fn open(dir: &Path) -> SegmentStore {
    let defaults = ServiceConfig::default();
    SegmentStore::open(dir, defaults.batch_size, defaults.compact_threshold).expect("store opens")
}

/// Opens the store with a trace attached; returns it and the paths its
/// store warnings named.
fn open_traced(dir: &Path) -> (SegmentStore, Vec<String>) {
    let sink = MemorySink::shared();
    let trace = Trace::new(vec![Box::new(sink.clone())]);
    let ctx = trace.enter();
    let store = open(dir);
    drop(ctx);
    let warned = sink
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::StoreWarning { path, .. } => Some(path),
            _ => None,
        })
        .collect();
    (store, warned)
}

fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn hosts(store: &SegmentStore, fp: &str) -> Vec<String> {
    let history = store.history(fp).unwrap();
    history.iter().map(|b| b.host.clone()).collect()
}

#[test]
fn a_directory_of_envelopes_is_imported_once_in_save_order() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("lmbench-store-import-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The older store's exact layout: `to_json()` under its file names.
    let fixture_file = dir.join(format!("{FIXTURE_FP}-820454400.json"));
    std::fs::write(&fixture_file, fixture()).unwrap();
    let fp = fingerprint(&["hostA"]);
    let save = |host: &str, seconds: u64, suffix: &str| {
        let mut b = Baseline::now(&fp, host, RunReport::default());
        b.unix_seconds = seconds;
        std::fs::write(
            dir.join(format!("{fp}-{seconds}{suffix}.json")),
            b.to_json(),
        )
        .unwrap();
    };
    save("older", 999, "");
    // Eleven saves in one second: the numeric suffix, not the file
    // name, orders them (`-1` and `-10` sort before the unsuffixed name).
    save("save-0", 1000, "");
    for n in 1..=10 {
        save(&format!("save-{n}"), 1000, &format!("-{n}"));
    }
    let torn = format!("{fp}-1001.json");
    std::fs::write(dir.join(&torn), "{\"fingerprint\": \"torn").unwrap();
    std::fs::write(dir.join("notes.txt"), "not ours").unwrap();

    let (store, warned) = open_traced(&dir);
    let want_hosts: Vec<String> = std::iter::once("older".to_string())
        .chain((0..=10).map(|n| format!("save-{n}")))
        .collect();
    assert_eq!(hosts(&store, &fp), want_hosts);
    assert_eq!(store.latest(&fp).unwrap().unwrap().host, "save-10");
    let imported = store.history(FIXTURE_FP).unwrap();
    assert_eq!(imported.len(), 1);
    assert_eq!(imported[0].schema_version, 1, "a v1 entry stays v1");
    assert_eq!(imported[0], Baseline::from_json(&fixture()).unwrap());
    assert_eq!(warned.len(), 1, "{warned:?}");
    assert!(warned[0].ends_with(&torn), "{warned:?}");
    let left: Vec<String> = names(&dir)
        .into_iter()
        .filter(|n| !n.ends_with(".seg.jsonl"))
        .collect();
    assert_eq!(left, [torn.clone(), "notes.txt".to_string()]);
    let series = store.history(&fp).unwrap().to_vec();
    drop(store);

    let reopened = open(&dir);
    assert_eq!(reopened.history(&fp).unwrap(), series.as_slice());
    assert_eq!(reopened.len(), 13);
    drop(reopened);

    // An envelope whose import was sealed before a crash kept its removal
    // from happening: it is removed again, not imported twice.
    std::fs::write(&fixture_file, fixture()).unwrap();
    let again = open(&dir);
    assert_eq!(again.len(), 13);
    assert_eq!(again.history(FIXTURE_FP).unwrap().len(), 1);
    assert!(!fixture_file.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
