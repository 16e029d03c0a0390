//! The fleet-scale results service.
//!
//! lmbench's paper measures one machine at a time; a fleet runs the suite
//! on hundreds and needs the results in one place. This module dogfoods
//! the repo's own substrates into that service: the wire protocol is
//! lmb-rpc (the XDR/record-marking/dispatch stack Tables 12–13 measure),
//! the query engine is lmb-results' noise-aware differ, and the audit log
//! is lmb-trace JSONL.
//!
//! - [`proto`] — the five procedures (push / diff / history / table /
//!   stats) and their request/reply bodies, JSON carried in one XDR
//!   string.
//! - [`SegmentStore`] — fingerprint-sharded, append-only time series with
//!   batched segment files and compaction; the one results store, behind
//!   both the daemon and `suite --baseline`.
//! - [`ResultsService`] — the daemon: an [`lmb_rpc::RpcServer`] with the
//!   store behind it.
//! - [`ReportClient`] — the fleet side: push and query with bounded
//!   retry/backoff.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod store;

pub use client::ReportClient;
pub use daemon::{install_shutdown_handler, ResultsService, ServiceConfig};
pub use store::SegmentStore;
