//! # remem — the paper's remote-memory optimization guidelines as a library
//!
//! "Thinking More about RDMA Memory Semantics" (CLUSTER 2021) distils five
//! local-memory optimization families that carry over to one-sided RDMA.
//! This crate is the reusable form of those guidelines:
//!
//! * [`vectorio`] — the three batching strategies of §III-A (`SP`,
//!   `Doorbell`, `SGL`) behind one entry point, with CPU-cost accounting.
//! * [`consolidation`] — the §III-C remote burst buffer: absorb θ small
//!   writes per aligned block, flush once (plus lease timeouts).
//! * [`lock`] — §III-E remote spinlocks over RDMA CAS, with exponential
//!   backoff, plus the two-sided RPC baseline.
//! * [`sequencer`] — remote fetch-and-add sequencers (and RPC baseline);
//!   `next_n` doubles as the distributed log's space reservation.
//!
//! The §III-D proxy socket and the §IV-B multi-version insert are not
//! separate types here: `apps::hashtable` reproduces them in place (its
//! front-end's proxy route and the `HtVariant::VersionedFaa` ablation).
//!
//! Everything runs against the simulated [`cluster::Testbed`]; swap in a
//! real ibverbs transport by reimplementing that layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consolidation;
pub mod lock;
pub mod sequencer;
pub mod vectorio;

pub use consolidation::{ConsolidationBuffer, ConsolidationStats};
pub use lock::{Acquired, Backoff, RemoteSpinlock, RpcLock};
pub use sequencer::{RemoteSequencer, RpcSequencer, Ticket};
pub use vectorio::{batched_write, BatchOutcome, RemoteDst, Strategy};
