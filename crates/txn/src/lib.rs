//! `txn` — a Storm-style transactional dataplane over the RDMA testbed,
//! plus the multi-tenant service layer that shares it.
//!
//! The paper's §IV case studies each hand-roll their own remote-memory
//! access discipline. This crate composes the `remem` primitives into one
//! transactional layer — every record carries an inline lock word and
//! version, and every protocol step is a single one-sided verb — then
//! multiplexes N tenants over M pooled QPs above it:
//!
//! * [`table`] — the remote record layout: `[lock][version][value]` at a
//!   fixed stride, lock words always 8-byte aligned (the E002 invariant).
//! * [`protocol`] — the transaction state machine: optimistic
//!   version-validated reads, CAS-lock writes, single-verb commit
//!   (unlock + version bump in one 16-byte write), capped-exponential
//!   retry with per-cause abort accounting. One verb per step, so
//!   concurrent transactions interleave at verb granularity and real
//!   contention emerges from the engine's event order.
//! * [`service`] — the multi-tenant layer: a QP pool of slots with
//!   private staging windows, per-tenant in-flight quotas, FIFO or
//!   deficit-round-robin scheduling over estimated verb cost, and
//!   per-tenant latency/abort telemetry with determinism digests.
//! * [`workload`] — the four case-study apps as request profiles of the
//!   one service, with a shared-hot-set conflict geometry.
//! * [`harness`] — pod wiring that shards cleanly (connection-disjoint
//!   two-machine pods, the traffic-engine convention).
//! * [`programs`] — analyzable verb programs of the txn access patterns
//!   for `verbcheck` (clean under E002/E005 by construction).
//!
//! Everything is deterministic under the seeded `SimRng`: request
//! streams, backoff jitter, scheduling, and therefore commit/abort
//! accounting are byte-identical across serial and `--shards N` runs.

pub mod harness;
pub mod programs;
pub mod protocol;
pub mod service;
pub mod table;
pub mod workload;

pub use harness::{build_pod, PodSetup};
pub use programs::verb_program;
pub use protocol::{
    staging_window, AbortCause, Advance, Concurrency, RetryPolicy, TxnMachine, TxnRequest,
    TxnStats, TxnWrite, WriteOp,
};
pub use service::{staging_bytes, Scheduler, ServiceConfig, TenantSpec, TenantStats, TxnService};
pub use table::{RecId, RecordState, TxnTable, VALUE_OFF, VERSION_OFF};
pub use workload::{gen_request, ConflictGeometry, TxnProfile};
