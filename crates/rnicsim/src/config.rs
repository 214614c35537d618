//! Calibrated constants for the RNIC device model.
//!
//! Defaults model the paper's Mellanox ConnectX-3 dual-port 40 Gbps HCA
//! (MT27500) behind PCIe 3.0 x8, attached to socket 1 of each node, with
//! an InfiniScale-IV switch between nodes. Anchor points from the paper:
//!
//! * Fig 1: small RDMA Write latency 1.16 µs / Read 2.00 µs; throughput
//!   plateaus ≈ 4.7 / 4.2 MOPS (execution-unit bound); latency climbs
//!   steeply past 2 KB (link + PCIe serialization).
//! * §III-E: RDMA Atomics achieve only 2.2–2.5 MOPS per port.
//! * §II-B2: on-device SRAM is megabyte-scale and caches the address
//!   translation table (MTT) and QP contexts; Fig 6(d) shows the seq/rand
//!   gap vanishing when the registered region is ≤ 4 MB, which pins the
//!   effective MTT cache at ~1024 × 4 KB pages.

use simcore::{ps_per_byte_gbps, SimTime};

/// All tunables of one simulated RNIC (plus its PCIe attachment).
#[derive(Clone, Debug)]
pub struct RnicConfig {
    /// Physical ports (ConnectX-3 dual port ⇒ 2). Each port is bound to
    /// one NUMA socket by the host configuration.
    pub ports: usize,
    /// Requester execution units per port (WQE processing pipelines).
    pub exec_units: usize,
    /// Requester service time per outbound Write WQE (⇒ 4.7 MOPS plateau).
    pub write_service: SimTime,
    /// Requester service time per outbound Read WQE (⇒ 4.2 MOPS plateau).
    pub read_service: SimTime,
    /// Responder service time per inbound packet — inbound processing is
    /// cheaper than outbound (in-bound Write beats out-bound Read, §IV-C).
    pub recv_service: SimTime,
    /// Service time of the (single) atomic execution unit per CAS/FAA
    /// (⇒ ~2.35 MOPS, inside the paper's 2.2–2.5 range).
    pub atomic_service: SimTime,

    // ---- PCIe / CPU-NIC interface (§II-B3) ----
    /// One CPU-generated MMIO doorbell write.
    pub mmio_cost: SimTime,
    /// Extra cost to fetch each additional WQE of a doorbell batch (they
    /// stream over PCIe as one burst after a single doorbell).
    pub doorbell_wqe_fetch: SimTime,
    /// Per-SGE setup cost on the scatter/gather DMA engine.
    pub sge_gather_cost: SimTime,
    /// DMA gather engines per port working the SGLs.
    pub gather_engines: usize,
    /// PCIe serialization (effective ~6.4 GB/s for PCIe 3.0 x8).
    pub pcie_ps_per_byte: u64,
    /// Full PCIe non-posted read round trip (responder fetching payload
    /// for an RDMA Read, or MTT/QPC fills from host DRAM).
    pub pcie_read_rtt: SimTime,

    // ---- fixed pipeline latencies (calibrated to Fig 1) ----
    /// Requester-side ACK/response handling.
    pub ack_fixed: SimTime,
    /// CQE DMA plus the polling CPU noticing it.
    pub cqe_cost: SimTime,

    // ---- network ----
    /// Link rate in Gbit/s (40 Gbps InfiniBand QDR ⇒ 200 ps/byte).
    pub link_gbps: u64,
    /// One-way fixed network latency (propagation + switch hop).
    pub wire_fixed: SimTime,
    /// Per-packet wire overhead bytes (headers, CRC) added to payload.
    pub header_bytes: u64,
    /// Path MTU: larger payloads are segmented into MTU-sized packets,
    /// each paying header overhead.
    pub mtu_bytes: u64,

    // ---- on-device SRAM metadata caches (§II-B2) ----
    /// MTT cache capacity in page-translation entries (1024 × 4 KB = 4 MB
    /// of coverage, matching Fig 6(d)'s knee). At most 65,535: the cache
    /// indexes its entries with `u16` to keep each at 16 B of host heap.
    pub mtt_cache_entries: usize,
    /// Registered-memory page size.
    pub page_bytes: u64,
    /// Total extra latency of one MTT miss (translation fetched from host
    /// DRAM over PCIe).
    pub mtt_miss_penalty: SimTime,
    /// The part of `mtt_miss_penalty` that stalls the processing pipeline
    /// (occupies the unit); the remainder overlaps with later packets.
    /// This is what caps random-access throughput in Fig 6.
    pub mtt_miss_occupancy: SimTime,
    /// QP-context cache capacity in QPs, at most 65,535 (the same `u16`
    /// cap as `mtt_cache_entries`).
    pub qpc_cache_entries: usize,
    /// Penalty for a QP-context miss (context reload from host memory).
    pub qpc_miss_penalty: SimTime,

    /// Maximum SGEs allowed in one work request.
    pub max_sge: usize,
    /// Send-queue depth in WQEs. A run of unsignaled WRs at least this
    /// long wedges the queue: entries are only reclaimed when a *later
    /// signaled* completion is generated, so an all-unsignaled queue never
    /// drains (`verbcheck` rule E003).
    pub sq_depth: usize,
    /// Completion-queue depth in CQEs. More signaled completions than this
    /// between polls overflows the CQ on real hardware (`verbcheck` rule
    /// E004).
    pub cq_depth: usize,
    /// Fixed cost of registering a memory region (syscall, key
    /// allocation, NIC command) — Frey & Alonso's "hidden cost of RDMA"
    /// [17 in the paper].
    pub reg_base: SimTime,
    /// Per-page registration cost (pinning + MTT entry installation).
    pub reg_per_page: SimTime,
    /// Payloads up to this size may be *inlined* into the WQE: the CPU
    /// copies the bytes into the send queue and the NIC skips the payload
    /// gather DMA (Herd-style). 0 disables inlining — the default, because
    /// the paper's ConnectX-3 numbers we calibrate against were measured
    /// without it; see `repro ablate-inline` for what it buys.
    pub inline_max: u64,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            ports: 2,
            exec_units: 1,
            write_service: SimTime::from_ps(212_766), // 4.70 MOPS
            read_service: SimTime::from_ps(238_095),  // 4.20 MOPS
            recv_service: SimTime::from_ns(110),
            atomic_service: SimTime::from_ps(425_532), // 2.35 MOPS

            mmio_cost: SimTime::from_ns(100),
            doorbell_wqe_fetch: SimTime::from_ns(30),
            sge_gather_cost: SimTime::from_ns(60),
            gather_engines: 2,
            pcie_ps_per_byte: 156, // ≈ 6.4 GB/s effective
            pcie_read_rtt: SimTime::from_ns(840),

            ack_fixed: SimTime::from_ns(120),
            cqe_cost: SimTime::from_ns(50),

            link_gbps: 40,
            wire_fixed: SimTime::from_ns(250),
            header_bytes: 30, // LRH+BTH+RETH+ICRC/VCRC
            mtu_bytes: 2048,

            mtt_cache_entries: 1024,
            page_bytes: 4096,
            mtt_miss_penalty: SimTime::from_ns(450),
            mtt_miss_occupancy: SimTime::from_ns(300),
            qpc_cache_entries: 256,
            qpc_miss_penalty: SimTime::from_ns(400),

            max_sge: 32,
            sq_depth: 128,
            cq_depth: 256,
            reg_base: SimTime::from_us(2),
            reg_per_page: SimTime::from_ns(210),
            inline_max: 0,
        }
    }
}

/// The device limits that both the simulator *and* static analysis
/// (`verbcheck`) enforce. Deriving them from one [`RnicConfig`] via
/// [`RnicConfig::caps`] is what keeps the two from drifting: there is no
/// second copy of `max_sge` or the queue depths anywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceCaps {
    /// Maximum SGEs per work request.
    pub max_sge: usize,
    /// Send-queue depth in WQEs.
    pub sq_depth: usize,
    /// Completion-queue depth in CQEs.
    pub cq_depth: usize,
    /// MTT cache capacity in page-translation entries.
    pub mtt_cache_entries: usize,
    /// Registered-memory page size in bytes.
    pub page_bytes: u64,
}

impl DeviceCaps {
    /// Memory span (bytes) the MTT cache can translate without misses —
    /// random access over a larger region thrashes the cache (§III-B).
    pub fn mtt_coverage_bytes(&self) -> u64 {
        self.mtt_cache_entries as u64 * self.page_bytes
    }

    /// The paper's device: ConnectX-3, the geometry every default is
    /// calibrated against (4 MB MTT coverage, 32-SGE WQEs).
    pub const fn connectx3() -> Self {
        DeviceCaps {
            max_sge: 32,
            sq_depth: 128,
            cq_depth: 256,
            mtt_cache_entries: 1024,
            page_bytes: 4096,
        }
    }

    /// A ConnectX-5/6-like generation: larger on-device SRAM (64 MB MTT
    /// coverage), deeper queues, 64-SGE WQEs.
    pub const fn connectx5() -> Self {
        DeviceCaps {
            max_sge: 64,
            sq_depth: 256,
            cq_depth: 1024,
            mtt_cache_entries: 16384,
            page_bytes: 4096,
        }
    }

    /// A BlueField-2-like DPU: DPU-class SRAM (256 MB MTT coverage) and
    /// very deep queues for on-card proxy workloads.
    ///
    /// Like every profile this is static lint geometry for `verbcheck`;
    /// no simulated `Rnic` is built from it. Its 65,536 MTT entries are
    /// one above the 65,535 a simulated NIC's cache can hold.
    pub const fn bluefield2() -> Self {
        DeviceCaps {
            max_sge: 64,
            sq_depth: 512,
            cq_depth: 4096,
            mtt_cache_entries: 65536,
            page_bytes: 4096,
        }
    }

    /// Built-in profile by name, for `repro --lint --caps <profile>`.
    pub fn profile(name: &str) -> Option<Self> {
        PROFILES.iter().find(|(n, _)| *n == name).map(|(_, c)| *c)
    }
}

/// The built-in device zoo, in sweep order (oldest first). Every profile
/// is at least as capable as the ConnectX-3 baseline, so a program with
/// no errors on the default geometry has none on any profile.
pub const PROFILES: &[(&str, DeviceCaps)] = &[
    ("connectx3", DeviceCaps::connectx3()),
    ("connectx5", DeviceCaps::connectx5()),
    ("bluefield2", DeviceCaps::bluefield2()),
];

impl Default for DeviceCaps {
    fn default() -> Self {
        RnicConfig::default().caps()
    }
}

impl RnicConfig {
    /// The device capability summary shared with static analysis.
    pub fn caps(&self) -> DeviceCaps {
        DeviceCaps {
            max_sge: self.max_sge,
            sq_depth: self.sq_depth,
            cq_depth: self.cq_depth,
            mtt_cache_entries: self.mtt_cache_entries,
            page_bytes: self.page_bytes,
        }
    }

    /// Link serialization rate in ps/byte.
    pub fn link_ps_per_byte(&self) -> u64 {
        ps_per_byte_gbps(self.link_gbps)
    }

    /// Wire bytes for a payload: payload plus per-MTU-segment headers.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        // Verb payloads mostly fit one MTU, which needs no division.
        let segments = if payload <= self.mtu_bytes { 1 } else { payload.div_ceil(self.mtu_bytes) };
        payload + segments * self.header_bytes
    }

    /// Memory span (bytes) that the MTT cache can translate without misses.
    pub fn mtt_coverage_bytes(&self) -> u64 {
        self.mtt_cache_entries as u64 * self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rates_match_paper_plateaus() {
        let c = RnicConfig::default();
        let write_mops = 1000.0 / c.write_service.as_ns();
        let read_mops = 1000.0 / c.read_service.as_ns();
        let atomic_mops = 1000.0 / c.atomic_service.as_ns();
        assert!((write_mops - 4.7).abs() < 0.01, "{write_mops}");
        assert!((read_mops - 4.2).abs() < 0.01, "{read_mops}");
        assert!((2.2..=2.5).contains(&atomic_mops), "{atomic_mops}");
    }

    #[test]
    fn mtt_coverage_is_4mb() {
        // Fig 6(d): no seq/rand asymmetry while the region fits in 4 MB.
        assert_eq!(RnicConfig::default().mtt_coverage_bytes(), 4 << 20);
    }

    #[test]
    fn wire_bytes_segments_by_mtu() {
        let c = RnicConfig::default();
        assert_eq!(c.wire_bytes(0), 30);
        assert_eq!(c.wire_bytes(64), 94);
        assert_eq!(c.wire_bytes(2048), 2078);
        // 8 KB = 4 MTU segments, each with its own headers.
        assert_eq!(c.wire_bytes(8192), 8192 + 4 * 30);
    }

    #[test]
    fn link_rate_is_200ps_per_byte() {
        assert_eq!(RnicConfig::default().link_ps_per_byte(), 200);
    }

    #[test]
    fn caps_mirror_the_config() {
        let c = RnicConfig {
            max_sge: 7,
            sq_depth: 11,
            cq_depth: 13,
            mtt_cache_entries: 17,
            page_bytes: 8192,
            ..Default::default()
        };
        let caps = c.caps();
        assert_eq!(caps.max_sge, 7);
        assert_eq!(caps.sq_depth, 11);
        assert_eq!(caps.cq_depth, 13);
        assert_eq!(caps.mtt_coverage_bytes(), 17 * 8192);
        assert_eq!(caps.mtt_coverage_bytes(), c.mtt_coverage_bytes());
    }

    #[test]
    fn default_caps_match_default_config() {
        assert_eq!(DeviceCaps::default(), RnicConfig::default().caps());
    }

    #[test]
    fn connectx3_profile_is_the_calibrated_default() {
        // The zoo's baseline *is* the device the simulator models; if a
        // default drifts, this catches the split-brain.
        assert_eq!(DeviceCaps::connectx3(), DeviceCaps::default());
    }

    #[test]
    fn profiles_are_monotonically_capable() {
        // Each later generation must dominate the baseline in every
        // capability, so the `--caps sweep` can never *introduce* errors.
        let base = DeviceCaps::connectx3();
        for (name, caps) in PROFILES {
            assert!(caps.max_sge >= base.max_sge, "{name}");
            assert!(caps.sq_depth >= base.sq_depth, "{name}");
            assert!(caps.cq_depth >= base.cq_depth, "{name}");
            assert!(caps.mtt_coverage_bytes() >= base.mtt_coverage_bytes(), "{name}");
        }
        assert_eq!(DeviceCaps::profile("connectx5"), Some(DeviceCaps::connectx5()));
        assert_eq!(DeviceCaps::profile("nope"), None);
    }
}
