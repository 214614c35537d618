//! The RNIC device: ports, execution units, DMA engines, metadata caches.
//!
//! `Rnic` owns the *contended* hardware state; the end-to-end verb paths
//! (which thread a work request through two NICs and the fabric) live in
//! the `cluster` crate. Methods here hand out `(start, end)` occupancy
//! intervals on the device's resources, so callers compose pipelines by
//! chaining the returned times.
//!
//! Every booking carries the NIC's *horizon*: the highest instant its
//! driver has promised that no later request will be ready before (see
//! [`Rnic::raise_horizon`]). The resource calendars may collapse the
//! history before it, which no later booking can reach, so they stay
//! small.

use crate::config::RnicConfig;
use crate::mtt::MttCache;
use crate::types::QpNum;
use simcore::{BandwidthLink, KServer, LruSet, SimTime};

/// Per-port contended resources.
pub struct Port {
    /// Requester WQE pipelines (the 4.7 MOPS bottleneck).
    pub exec: KServer,
    /// Responder pipeline for inbound packets.
    pub recv: KServer,
    /// Atomic execution unit (2.35 MOPS; serializes all atomics).
    pub atomic: KServer,
    /// Scatter/gather DMA engines.
    pub gather: KServer,
    /// Outbound link serialization.
    pub link_tx: BandwidthLink,
    /// Inbound link: where incast contention (many senders, one receiver
    /// port) serializes.
    pub link_rx: BandwidthLink,
    /// PCIe lane toward host memory (payload DMA).
    pub pcie: BandwidthLink,
}

/// One simulated RNIC (all ports plus shared SRAM metadata caches).
pub struct Rnic {
    cfg: RnicConfig,
    ports: Vec<Port>,
    /// Translation cache, shared by all ports (it is one SRAM).
    pub mtt: MttCache,
    /// QP-context cache, shared by all ports.
    pub qpc: LruSet,
    /// Port binding per QP, indexed by `QpNum` (QP numbers are dense).
    qp_port: Vec<u32>,
    /// The highest horizon this NIC's calendars have been pruned to.
    horizon: SimTime,
}

impl Rnic {
    /// Build a NIC from a config.
    pub fn new(cfg: RnicConfig) -> Self {
        let ports = (0..cfg.ports)
            .map(|_| Port {
                exec: KServer::new(cfg.exec_units),
                recv: KServer::new(1),
                atomic: KServer::new(1),
                gather: KServer::new(cfg.gather_engines),
                link_tx: BandwidthLink::new(cfg.link_ps_per_byte(), SimTime::ZERO),
                link_rx: BandwidthLink::new(cfg.link_ps_per_byte(), SimTime::ZERO),
                pcie: BandwidthLink::new(cfg.pcie_ps_per_byte, SimTime::ZERO),
            })
            .collect();
        let mtt = MttCache::new(cfg.mtt_cache_entries, cfg.page_bytes);
        let qpc = LruSet::new(cfg.qpc_cache_entries);
        Rnic { cfg, ports, mtt, qpc, qp_port: Vec::new(), horizon: SimTime::ZERO }
    }

    /// Promise that no later request on this NIC is ready before
    /// `horizon`; the promise only ever tightens. Returns the NIC's
    /// horizon, the highest promised so far: a request issued below it
    /// may find the history it needed already collapsed.
    pub fn raise_horizon(&mut self, horizon: SimTime) -> SimTime {
        self.horizon = self.horizon.max(horizon);
        self.horizon
    }

    /// The configuration this NIC was built with.
    pub fn cfg(&self) -> &RnicConfig {
        &self.cfg
    }

    /// Inspect a port's resources (utilization diagnostics).
    pub fn port(&self, port: usize) -> &Port {
        &self.ports[port]
    }

    /// Create a queue pair bound to `port`. Port binding is what ties a
    /// connection to a NUMA socket (§II-B4).
    pub fn create_qp(&mut self, port: usize) -> QpNum {
        assert!(port < self.ports.len(), "no such port");
        let qpn = QpNum(self.qp_port.len() as u32);
        self.qp_port.push(port as u32);
        qpn
    }

    /// Port a QP is bound to.
    pub fn qp_port(&self, qpn: QpNum) -> usize {
        self.qp_port[qpn.0 as usize] as usize
    }

    /// Number of QPs created on this NIC.
    pub fn qp_count(&self) -> usize {
        self.qp_port.len()
    }

    /// Touch the QP context in SRAM; returns the reload penalty (zero on
    /// hit). With many live connections this is what collapses throughput
    /// (§II-B2).
    pub fn qpc_touch(&mut self, qpn: QpNum) -> SimTime {
        if self.qpc.access(qpn.0 as u64) {
            SimTime::ZERO
        } else {
            self.cfg.qpc_miss_penalty
        }
    }

    /// CPU rings the doorbell: one MMIO regardless of how many WQEs were
    /// queued (the doorbell-batching optimization's whole point).
    pub fn doorbell(&self, now: SimTime) -> SimTime {
        now + self.cfg.mmio_cost
    }

    /// Occupy a requester execution unit for one WQE. `extra` covers
    /// stalls charged to the pipeline (MTT miss fills, QPC reloads,
    /// doorbell-batch WQE fetch). Returns `(start, end)`.
    pub fn exec_wqe(
        &mut self,
        port: usize,
        ready: SimTime,
        service: SimTime,
        extra: SimTime,
    ) -> (SimTime, SimTime) {
        self.ports[port].exec.acquire(self.horizon, ready, service + extra)
    }

    /// Gather `sges` scattered buffers totalling `bytes` from host memory
    /// via the scatter/gather DMA engine. Returns completion time.
    pub fn gather_dma(&mut self, port: usize, ready: SimTime, sges: usize, bytes: u64) -> SimTime {
        let setup = self.cfg.sge_gather_cost * sges as u64;
        let p = &mut self.ports[port];
        let (_, engine_done) = p.gather.acquire(self.horizon, ready, setup);
        let (_, arrival) = p.pcie.transfer(self.horizon, engine_done, bytes);
        arrival
    }

    /// Serialize `payload` onto the wire; returns when the last byte has
    /// left the port (the fabric adds propagation/switch latency).
    pub fn wire_out(&mut self, port: usize, ready: SimTime, payload: u64) -> SimTime {
        let bytes = self.cfg.wire_bytes(payload);
        let (_, done) = self.ports[port].link_tx.transfer(self.horizon, ready, bytes);
        done
    }

    /// Deliver a packet whose last byte *left the sender* at `depart` to
    /// this port's inbound link. Cut-through model: when uncontended, the
    /// packet arrives exactly `wire_fixed` after it departed; under incast
    /// the inbound link re-serializes competing packets.
    pub fn deliver(&mut self, port: usize, depart: SimTime, payload: u64) -> SimTime {
        let bytes = self.cfg.wire_bytes(payload);
        let ser = SimTime::from_ps(bytes * self.cfg.link_ps_per_byte());
        // The sender finished serializing at `depart`; the head of the
        // packet entered the fabric `ser` earlier and reaches this port
        // `wire_fixed` later.
        let head = (depart + self.cfg.wire_fixed).saturating_sub(ser);
        let (_, drained) = self.ports[port].link_rx.transfer(self.horizon, head, bytes);
        drained
    }

    /// Occupy the responder pipeline for one inbound packet.
    pub fn recv_packet(
        &mut self,
        port: usize,
        ready: SimTime,
        extra: SimTime,
    ) -> (SimTime, SimTime) {
        self.ports[port].recv.acquire(self.horizon, ready, self.cfg.recv_service + extra)
    }

    /// Occupy the atomic unit for one CAS/FAA.
    pub fn atomic_exec(&mut self, port: usize, ready: SimTime) -> (SimTime, SimTime) {
        self.ports[port].atomic.acquire(self.horizon, ready, self.cfg.atomic_service)
    }

    /// Posted DMA write toward host memory (landing an inbound payload).
    pub fn dma_write(&mut self, port: usize, ready: SimTime, bytes: u64) -> SimTime {
        let (_, done) = self.ports[port].pcie.transfer(self.horizon, ready, bytes);
        done
    }

    /// Non-posted DMA read from host memory (responder fetching RDMA Read
    /// payload): full PCIe round trip plus serialization.
    pub fn dma_read(&mut self, port: usize, ready: SimTime, bytes: u64) -> SimTime {
        let (_, drained) = self.ports[port].pcie.transfer(self.horizon, ready, bytes);
        drained + self.cfg.pcie_read_rtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MrId;

    fn nic() -> Rnic {
        Rnic::new(RnicConfig::default())
    }

    #[test]
    fn qp_creation_and_port_binding() {
        let mut n = nic();
        let a = n.create_qp(0);
        let b = n.create_qp(1);
        assert_ne!(a, b);
        assert_eq!(n.qp_port(a), 0);
        assert_eq!(n.qp_port(b), 1);
        assert_eq!(n.qp_count(), 2);
    }

    #[test]
    fn exec_unit_sustains_4_7_mops() {
        let mut n = nic();
        let svc = n.cfg().write_service;
        let mut last = SimTime::ZERO;
        for _ in 0..4700 {
            let (_, end) = n.exec_wqe(0, SimTime::ZERO, svc, SimTime::ZERO);
            last = end;
        }
        // 4700 ops at 4.7 MOPS is 1 ms.
        let mops = 4700.0 / last.as_us();
        assert!((mops - 4.7).abs() < 0.01, "{mops}");
    }

    #[test]
    fn atomic_unit_sustains_about_2_35_mops() {
        let mut n = nic();
        let mut last = SimTime::ZERO;
        for _ in 0..2350 {
            let (_, end) = n.atomic_exec(0, SimTime::ZERO);
            last = end;
        }
        let mops = 2350.0 / last.as_us();
        assert!((2.2..=2.5).contains(&mops), "{mops}");
    }

    #[test]
    fn ports_are_independent() {
        let mut n = nic();
        let svc = n.cfg().write_service;
        n.exec_wqe(0, SimTime::ZERO, svc, SimTime::ZERO);
        // Port 1's exec unit is still free at time zero.
        let (start, _) = n.exec_wqe(1, SimTime::ZERO, svc, SimTime::ZERO);
        assert_eq!(start, SimTime::ZERO);
    }

    #[test]
    fn qpc_miss_penalty_applies_once_within_capacity() {
        let mut n = nic();
        let q = n.create_qp(0);
        assert_eq!(n.qpc_touch(q), n.cfg().qpc_miss_penalty);
        assert_eq!(n.qpc_touch(q), SimTime::ZERO);
    }

    #[test]
    fn qpc_thrashes_beyond_capacity() {
        let mut n = nic();
        let qps: Vec<_> = (0..512).map(|_| n.create_qp(0)).collect();
        // Cycle through 2x the cache capacity: every touch misses.
        let mut penalties = 0;
        for _ in 0..2 {
            for &q in &qps {
                if n.qpc_touch(q) > SimTime::ZERO {
                    penalties += 1;
                }
            }
        }
        assert_eq!(penalties, 1024);
    }

    #[test]
    fn mtt_touch_counts_misses() {
        let mut n = nic();
        assert_eq!(n.mtt.access(MrId(3), 0, 64), 1);
        assert_eq!(n.mtt.access(MrId(3), 0, 64), 0);
        assert_eq!(n.mtt.access(MrId(3), 0, 64 * 1024), 15); // 16 pages, 1 warm
    }

    #[test]
    fn gather_dma_charges_setup_per_sge_and_bytes_once() {
        let mut n = nic();
        let t1 = n.gather_dma(0, SimTime::ZERO, 1, 64);
        // Fresh NIC for an independent measurement.
        let mut n2 = nic();
        let t16 = n2.gather_dma(0, SimTime::ZERO, 16, 64);
        let delta = t16 - t1;
        assert_eq!(delta, n.cfg().sge_gather_cost * 15);
    }

    #[test]
    fn dma_read_pays_round_trip() {
        let mut n = nic();
        let posted = n.dma_write(0, SimTime::ZERO, 4096);
        let mut n2 = nic();
        let nonposted = n2.dma_read(0, SimTime::ZERO, 4096);
        assert_eq!(nonposted - posted, n.cfg().pcie_read_rtt);
    }

    #[test]
    fn wire_out_includes_headers() {
        let mut n = nic();
        let done = n.wire_out(0, SimTime::ZERO, 64);
        assert_eq!(done.as_ps(), (64 + 30) * 200);
    }
}
