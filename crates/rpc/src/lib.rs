//! A from-scratch Sun-RPC-style substrate (paper §6.7, Tables 12–13).
//!
//! The paper measures TCP and UDP latency twice: raw, and through Sun's RPC
//! layer — and finds "the RPC layer frequently adds hundreds of microseconds
//! of additional latency. ... There is no justification for the extra cost;
//! it is simply an expensive implementation." To reproduce that experiment
//! without the proprietary library, this crate implements the same layering
//! from scratch:
//!
//! * [`xdr`] — External Data Representation (RFC 4506 subset): big-endian,
//!   4-byte-aligned primitive and opaque encodings.
//! * [`message`] — the RPC call/reply message envelope (RFC 1057 shape:
//!   xid, program, version, procedure, null auth).
//! * [`record`] — TCP record marking (fragment length + last-fragment bit).
//! * [`registry`] — an in-process port-mapper: programs register, clients
//!   look the port up before connecting (the paper's connect benchmark
//!   includes exactly this step).
//! * [`server`]/[`client`] — dispatch loop and caller over real TCP and UDP
//!   loopback sockets.
//!
//! The cost the paper attributes to RPC — envelope marshalling, XDR
//! discipline, record framing, dispatch indirection — is therefore incurred
//! genuinely, not simulated.

pub mod client;
pub mod message;
pub mod record;
pub mod registry;
pub mod server;
pub mod xdr;

pub use client::{CallError, RpcClient};
pub use message::{Body, CallBody, MsgType, ReplyBody, RpcFault, RpcMessage, RPC_VERSION};
pub use record::{read_record, read_record_limited, write_record, MAX_FRAGMENT};
pub use registry::{Protocol, Registry};
pub use server::{Procedure, RpcMetrics, RpcServer, ServerOptions};
pub use xdr::{XdrDecoder, XdrEncoder, XdrError};

/// The echo program used by the latency benchmarks.
pub const ECHO_PROGRAM: u32 = 0x2000_0001;
/// Version of the echo program.
pub const ECHO_VERSION: u32 = 1;
/// Echo procedure number (0 is the conventional NULL proc).
pub const ECHO_PROC: u32 = 1;

/// The results-service program served by `lmbench serve`.
pub const RESULTS_PROGRAM: u32 = 0x2000_0002;
/// Version of the results program (the RPC interface version; the
/// payload schema is versioned separately by `lmb-results`).
pub const RESULTS_VERSION: u32 = 1;
/// Ingest one pushed run report.
pub const RESULTS_PROC_PUSH: u32 = 1;
/// Latest-vs-previous regression diff for one host fingerprint.
pub const RESULTS_PROC_DIFF: u32 = 2;
/// Metric history for a (fingerprint, bench, metric) triple.
pub const RESULTS_PROC_HISTORY: u32 = 3;
/// Regenerated paper tables from a stored run.
pub const RESULTS_PROC_TABLE: u32 = 4;
/// Operational statistics snapshot of the serving daemon.
pub const RESULTS_PROC_STATS: u32 = 5;
