//! # rnicsim — the RDMA NIC device model
//!
//! Simulates the microarchitectural resources of a Mellanox ConnectX-3
//! style RNIC that the paper's observations hinge on:
//!
//! * requester/responder **execution units** with finite service rates
//!   (packet throttling: latency flat, throughput capped for small
//!   payloads — Fig 1),
//! * the on-device **SRAM metadata caches** for memory translations (MTT)
//!   and QP contexts (sequential/random asymmetry — Fig 6; connection
//!   scalability collapse — §II-B2),
//! * the **PCIe attachment**: MMIO doorbells, posted/non-posted DMA, and
//!   the scatter/gather engine (Doorbell vs. SGL vs. SP — §III-A),
//! * the slow **atomic unit** (2.2–2.5 MOPS — §III-E).
//!
//! End-to-end verb paths are composed from these pieces by the `cluster`
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod device;
pub mod mtt;
pub mod types;

pub use config::{DeviceCaps, RnicConfig, PROFILES};
pub use device::{Port, Rnic};
pub use mtt::MttCache;
pub use types::{
    Completion, CqeStatus, InlineSgl, MrId, QpNum, RKey, Sge, VerbKind, WorkRequest, WrId,
    INLINE_SGES,
};
