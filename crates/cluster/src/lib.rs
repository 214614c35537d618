//! # cluster — the simulated 8-machine RDMA testbed
//!
//! Composes the `memmodel` host model and the `rnicsim` device model into
//! a cluster: machines with registered (real-byte) memory, RC connections
//! between NIC ports, full verb pipelines with NUMA-crossing penalties,
//! two-sided RPC with server CPU involvement, and a deterministic
//! closed-loop client runtime.
//!
//! ## Example: one small write, paper-calibrated latency
//!
//! ```
//! use cluster::{ClusterConfig, Endpoint, Testbed};
//! use rnicsim::{Sge, WorkRequest, RKey};
//! use simcore::SimTime;
//!
//! let mut tb = Testbed::new(ClusterConfig::two_machines());
//! let src = tb.register(0, 1, 4096);
//! let dst = tb.register(1, 1, 4096);
//! let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
//!
//! // First op is cold (QP-context and MTT cache misses) — warm up, then
//! // measure, the way the paper's averaged runs do.
//! let warm = tb.post_one(
//!     SimTime::ZERO,
//!     conn,
//!     WorkRequest::write(1, Sge::new(src, 0, 8), RKey(dst.0 as u64), 0),
//! );
//! let cqe = tb.post_one(
//!     warm.at,
//!     conn,
//!     WorkRequest::write(2, Sge::new(src, 0, 8), RKey(dst.0 as u64), 0),
//! );
//! // Fig 1: small RDMA Write completes in ~1.16 us.
//! assert!(((cqe.at - warm.at).as_us() - 1.16).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod memory;
pub mod oracle;
pub mod replay;
pub mod shard;
pub mod testbed;

pub use config::{ClusterConfig, NumaPenalties, RpcConfig};
pub use engine::{run_clients, Client, ClosedLoop, Step};
pub use memory::{MemoryPool, Region, CHUNK_BYTES};
pub use oracle::{DmaSpan, OracleState, Race};
pub use replay::{replay_program, ReplayOutcome};
pub use shard::{run_clients_sharded, Pinned};
pub use testbed::{ConnId, Endpoint, Machine, Testbed, Transport, UD_GRH_BYTES};
