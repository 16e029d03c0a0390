//! Results database, the embedded paper dataset, table rendering and ASCII
//! plots.
//!
//! "lmbench includes a database of results that is useful for comparison
//! purposes. ... All of the tables in this paper were produced from the
//! database included in lmbench" (§3.5). This crate plays that role for
//! lmbench-rs:
//!
//! * [`schema`] — typed rows for every table in the paper, serializable so
//!   suite runs can be stored and merged.
//! * [`dataset`] — the paper's own numbers (Tables 1–17), transcribed, so
//!   every table can be regenerated and a freshly measured host can be
//!   appended as one more row.
//! * [`table`] — the paper's table conventions: "All of the tables are
//!   sorted, from best to worst. ... The sorted column's heading will be in
//!   bold" (§4.1).
//! * [`plot`] — terminal line plots for Figures 1 and 2.
//! * [`db`] — JSON persistence and merging of result sets.
//! * [`baseline`] / [`diff`] — archived reference runs keyed by host
//!   fingerprint, and the noise-aware differ that judges run-over-run
//!   deltas against each measurement's own recorded CV band (§3.4).
//!
//! Transcription note: the available source scan interleaves some table
//! cells (notably Tables 2, 3, 5, 6, 7, 10 and 16). Row membership and
//! value magnitudes are faithful; a few intra-row column assignments are
//! best-effort reconstructions and are marked in `dataset.rs`.

pub mod baseline;
pub mod compare;
pub mod dataset;
pub mod db;
pub mod diff;
pub mod patch;
pub mod plot;
pub mod ratesweep;
pub mod runreport;
pub mod scaling;
pub mod schema;
pub mod store;
pub mod summary;
pub mod table;

pub use baseline::{fingerprint, Baseline};
pub use compare::{compare_rows, Better, Comparison};
pub use db::ResultsDb;
pub use diff::{DiffClass, DiffRow, ReportDiff, SignificanceRule};
pub use patch::{SuiteField, TablePatch};
pub use plot::{AsciiPlot, Series};
pub use ratesweep::{render_side_by_side, RatePoint, RateSweep};
pub use runreport::{
    BenchRecord, BenchStatus, CounterDelta, HarnessMetrics, MetricValue, Provenance, ResourceUsage,
    RunReport, SimProvenance,
};
pub use scaling::{GeneratorSample, ScalePoint, ScalingCurve};
pub use schema::*;
pub use store::{load_entry, ReportStore, SCHEMA_VERSION};
pub use summary::{db_summary, host_summary};
pub use table::{Align, SortOrder, Table};
