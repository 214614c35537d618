//! The simulated testbed: machines, connections, and end-to-end verbs.
//!
//! `Testbed::post` threads each work request through the full hardware
//! pipeline — doorbell MMIO, requester execution unit, scatter/gather DMA,
//! link serialization, switch, inbound link, responder pipeline, MTT/QPC
//! cache touches, PCIe DMA, ACK/response, CQE — charging every contended
//! resource along the way and applying the *data effect* to the simulated
//! memory. One `post` call with several WRs is a **doorbell batch** (one
//! MMIO); one WR with several SGEs is an **SGL** operation.

use crate::config::ClusterConfig;
use crate::memory::MemoryPool;
use crate::oracle::{OracleState, Race};
use rnicsim::{Completion, CqeStatus, MrId, QpNum, Rnic, VerbKind, WorkRequest};
use simcore::{KServer, SimTime};

/// One side of a connection: which machine, which NIC port, and which
/// socket the issuing (or serving) core runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// Machine index.
    pub machine: usize,
    /// NIC port index on that machine (bound to socket `port % sockets`).
    pub port: usize,
    /// Socket of the CPU core driving this endpoint.
    pub core_socket: usize,
}

impl Endpoint {
    /// An endpoint whose core sits on the same socket as its port — the
    /// NUMA-optimal placement.
    pub fn affine(machine: usize, port: usize) -> Self {
        Endpoint { machine, port, core_socket: port }
    }
}

/// Handle to an established connection (a queue pair on each side).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId(pub u32);

/// RDMA transport service type (§II-A). All three support channel
/// semantics; memory semantics narrow with reliability:
///
/// | verb | RC | UC | UD |
/// |---|---|---|---|
/// | Send | ✓ | ✓ | ✓ |
/// | Write | ✓ | ✓ | — |
/// | Read / Atomics | ✓ | — | — |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Transport {
    /// Reliable Connection: hardware ACKs; the CQE means remote delivery.
    #[default]
    Rc,
    /// Unreliable Connection: no ACK protocol — the CQE means the local
    /// NIC finished sending; Writes are supported, Reads/Atomics are not.
    Uc,
    /// Unreliable Datagram: connectionless Sends with a 40-byte GRH. One
    /// server-side QP serves every peer, sidestepping QP-context-cache
    /// pressure (the FaSST/\[26\] argument the paper cites in §III-E).
    Ud,
}

/// Extra wire bytes of the Global Routing Header on UD packets.
pub const UD_GRH_BYTES: u64 = 40;

#[derive(Clone)]
struct Connection {
    client: Endpoint,
    client_qpn: QpNum,
    server: Endpoint,
    server_qpn: QpNum,
    transport: Transport,
}

/// One machine: its NIC, its registered memory, and an RPC-serving CPU.
pub struct Machine {
    /// The machine's RNIC.
    pub rnic: Rnic,
    /// The machine's registered memory.
    pub mem: MemoryPool,
    rpc_cpu: KServer,
    /// Shared UD service QP per port (created lazily).
    ud_qp: Vec<Option<QpNum>>,
    /// Dynamic race oracle over this machine's memory (fed in checked
    /// mode; see [`Testbed::take_races`]).
    pub(crate) oracle: OracleState,
}

impl Machine {
    /// The machine's dynamic race oracle (populated in checked mode).
    pub fn oracle(&self) -> &OracleState {
        &self.oracle
    }
}

/// The whole simulated cluster.
pub struct Testbed {
    /// Configuration the testbed was built from.
    pub cfg: ClusterConfig,
    machines: Vec<Machine>,
    conns: Vec<Connection>,
    /// Reused CQE buffer backing `post_one`/`post_one_ref` — one
    /// allocation for the testbed's lifetime, not one per verb.
    cqe_scratch: Vec<Completion>,
    /// Reused gather/scatter staging buffer for data effects.
    data_scratch: Vec<u8>,
    /// When set, the race oracle records every one-sided verb's DMA span
    /// (see [`Testbed::set_checked`]).
    checked: bool,
    /// While pinned clients run (`crate::shard`), the connected
    /// component of every machine; empty otherwise. Verbs touching a
    /// machine outside the component being stepped panic: components
    /// close over every connection, so such a post is a client escaping
    /// its component, not a simulation event.
    component: Vec<u32>,
    /// The component being stepped while `component` is set.
    stepping: u32,
    /// While the engine drives clients, the time of the event it is
    /// stepping: no later post in that drive is issued before it, so
    /// every NIC a post touches may forget the calendar history before
    /// it. Zero outside a drive, which promises nothing.
    horizon: SimTime,
    /// Posts issued below the horizon of a NIC they touched, whose
    /// calendars may already have forgotten history those posts needed.
    /// The engine asserts this stays zero (see `engine::drive_steps`).
    below_horizon: u64,
}

impl Testbed {
    /// Build a cluster of `cfg.machines` identical machines.
    pub fn new(cfg: ClusterConfig) -> Self {
        let machines = (0..cfg.machines).map(|_| blank_machine(&cfg)).collect();
        Testbed {
            cfg,
            machines,
            conns: Vec::new(),
            cqe_scratch: Vec::new(),
            data_scratch: Vec::new(),
            checked: false,
            component: Vec::new(),
            stepping: 0,
            horizon: SimTime::ZERO,
            below_horizon: 0,
        }
    }

    /// Immutable access to a machine.
    pub fn machine(&self, m: usize) -> &Machine {
        &self.machines[m]
    }

    /// Mutable access to a machine.
    pub fn machine_mut(&mut self, m: usize) -> &mut Machine {
        &mut self.machines[m]
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Register a backed region on machine `m`, socket `socket`.
    pub fn register(&mut self, m: usize, socket: usize, len: u64) -> MrId {
        self.machines[m].mem.register(socket, len)
    }

    /// Register an unbacked (timed-only) region.
    pub fn register_unbacked(&mut self, m: usize, socket: usize, len: u64) -> MrId {
        self.machines[m].mem.register_unbacked(socket, len)
    }

    /// Register a backed region *on the clock*: pages are pinned and MTT
    /// entries installed, which costs real time (Frey & Alonso's hidden
    /// cost — registration on the IO path dwarfs the transfer itself).
    /// Returns the region and when it became usable.
    pub fn register_timed(
        &mut self,
        now: SimTime,
        m: usize,
        socket: usize,
        len: u64,
    ) -> (MrId, SimTime) {
        let mr = self.machines[m].mem.register(socket, len);
        let pages = len.div_ceil(self.cfg.rnic.page_bytes).max(1);
        let done = now + self.cfg.rnic.reg_base + self.cfg.rnic.reg_per_page * pages;
        // The driver warms the NIC's translations as it installs them.
        self.machines[m].rnic.mtt.warm(mr, 0, len);
        (mr, done)
    }

    /// Deregister on the clock (unpinning is roughly half of pinning).
    pub fn deregister_timed(&mut self, now: SimTime, m: usize, mr: MrId) -> SimTime {
        let len = self.machines[m].mem.region(mr).map_or(0, |r| r.len);
        assert!(self.machines[m].mem.deregister(mr), "unknown MR");
        let pages = len.div_ceil(self.cfg.rnic.page_bytes).max(1);
        now + self.cfg.rnic.reg_base / 2 + self.cfg.rnic.reg_per_page * pages / 2
    }

    /// Establish an RC connection between two endpoints on *different*
    /// machines. Each side gets a QP bound to its port.
    pub fn connect(&mut self, client: Endpoint, server: Endpoint) -> ConnId {
        self.connect_with(client, server, Transport::Rc)
    }

    /// Establish a connection with an explicit transport. UD "connections"
    /// are address handles: the server side shares one datagram QP per
    /// port across all peers.
    pub fn connect_with(
        &mut self,
        client: Endpoint,
        server: Endpoint,
        transport: Transport,
    ) -> ConnId {
        assert_ne!(client.machine, server.machine, "loopback RDMA is not modelled");
        let client_qpn = self.machines[client.machine].rnic.create_qp(client.port);
        let server_qpn = match transport {
            Transport::Ud => {
                let m = &mut self.machines[server.machine];
                match m.ud_qp[server.port] {
                    Some(qpn) => qpn,
                    None => {
                        let qpn = m.rnic.create_qp(server.port);
                        m.ud_qp[server.port] = Some(qpn);
                        qpn
                    }
                }
            }
            _ => self.machines[server.machine].rnic.create_qp(server.port),
        };
        let id = ConnId(self.conns.len() as u32);
        self.conns.push(Connection { client, client_qpn, server, server_qpn, transport });
        id
    }

    /// The transport of a connection.
    pub fn transport_of(&self, conn: ConnId) -> Transport {
        self.conns[conn.0 as usize].transport
    }

    /// The client endpoint of a connection.
    pub fn client_of(&self, conn: ConnId) -> Endpoint {
        self.conns[conn.0 as usize].client
    }

    /// The server endpoint of a connection.
    pub fn server_of(&self, conn: ConnId) -> Endpoint {
        self.conns[conn.0 as usize].server
    }

    /// Enable or disable *checked mode*: when on, the runtime race
    /// oracle records the DMA span of every one-sided verb (see
    /// [`Testbed::take_races`]). Malformed verbs need no extra check:
    /// out-of-bounds and misaligned posts complete with an error CQE in
    /// either mode.
    pub fn set_checked(&mut self, on: bool) {
        self.checked = on;
    }

    /// Post a doorbell batch of work requests on `conn` at time `now`
    /// (client → server direction). Returns a completion per *signaled*
    /// WR, in posting order. Data effects are applied to simulated memory.
    ///
    /// Hot paths should prefer [`Testbed::post_into`] (reused output
    /// buffer) or [`Testbed::post_one_ref`] (no output buffer at all).
    pub fn post(&mut self, now: SimTime, conn: ConnId, wrs: &[WorkRequest]) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.post_into(now, conn, wrs, &mut completions);
        completions
    }

    /// Like [`Testbed::post`], but appends completions to a caller-owned
    /// buffer — the post→complete path performs no heap allocation for
    /// SGLs of ≤ [`rnicsim::INLINE_SGES`] entries.
    pub fn post_into(
        &mut self,
        now: SimTime,
        conn: ConnId,
        wrs: &[WorkRequest],
        completions: &mut Vec<Completion>,
    ) {
        assert!(!wrs.is_empty(), "empty doorbell batch");
        simcore::opcount::add(wrs.len() as u64);
        let checked = self.checked;
        let c = &self.conns[conn.0 as usize];
        let (client, server) = (c.client, c.server);
        self.guard(conn, client.machine, server.machine);
        let (client_qpn, server_qpn) = (c.client_qpn, c.server_qpn);
        let transport = c.transport;
        for wr in wrs {
            match (transport, &wr.kind) {
                (Transport::Rc, _) => {}
                (Transport::Uc, VerbKind::Write | VerbKind::Send) => {}
                (Transport::Ud, VerbKind::Send) => {}
                (t, k) => panic!("verb {k:?} is not supported on {t:?} (§II-A)"),
            }
        }
        let mut data = std::mem::take(&mut self.data_scratch);
        let cfg = &self.cfg;
        let client_port_socket = cfg.port_socket(client.port);
        let server_port_socket = cfg.port_socket(server.port);

        let (cm, sm) = pair_of(&mut self.machines, client.machine, server.machine);
        let mark = cm.rnic.raise_horizon(self.horizon).max(sm.rnic.raise_horizon(self.horizon));
        self.below_horizon += u64::from(now < mark);

        // One doorbell MMIO for the whole batch; crossing QPI to reach the
        // NIC costs extra.
        let mut t_door = cm.rnic.doorbell(now);
        if client.core_socket != client_port_socket {
            t_door += cfg.numa.mmio_cross;
        }

        for (i, wr) in wrs.iter().enumerate() {
            assert!(wr.sgl.len() <= cfg.rnic.max_sge, "SGL exceeds max_sge");
            // Subsequent WQEs of a doorbell batch stream over PCIe. An
            // inlined payload costs the CPU an extra copy into the WQE.
            let mut wqe_ready = t_door + cfg.rnic.doorbell_wqe_fetch * i as u64;
            if wr.payload_bytes() <= cfg.rnic.inline_max
                && wr.sgl.len() == 1
                && matches!(wr.kind, VerbKind::Write | VerbKind::Send)
            {
                wqe_ready += cfg.host.memcpy_cost(wr.payload_bytes() as usize);
            }

            // Validate before spending hardware time on data movement.
            if let Some(status) = validate(cm, sm, wr) {
                if wr.signaled {
                    completions.push(Completion {
                        wr_id: wr.wr_id,
                        status,
                        at: wqe_ready + cfg.rnic.cqe_cost,
                        old_value: 0,
                    });
                }
                continue;
            }

            let payload = wr.payload_bytes();

            // Requester pipeline: QPC reloads and MTT-miss fills stall the
            // WQE (occupancy); the rest of each miss's latency overlaps
            // with later WQEs and is added after the pipeline stage.
            let mut misses = 0u64;
            for sge in &wr.sgl {
                misses += cm.rnic.mtt.access(sge.mr, sge.offset, sge.len);
            }
            let stall = cm.rnic.qpc_touch(client_qpn) + cfg.rnic.mtt_miss_occupancy * misses;
            let miss_lat = (cfg.rnic.mtt_miss_penalty - cfg.rnic.mtt_miss_occupancy) * misses;
            let service = match wr.kind {
                VerbKind::Read => cfg.rnic.read_service,
                _ => cfg.rnic.write_service,
            };
            let (_, exec_end) = cm.rnic.exec_wqe(client.port, wqe_ready, service, stall);
            let exec_done = exec_end + miss_lat;

            // Responder-side stalls: QPC plus remote translation plus the
            // pipeline share of a QPI crossing.
            let mut r_stall = sm.rnic.qpc_touch(server_qpn);
            let mut r_miss_lat = SimTime::ZERO;
            let remote_region_socket = wr.remote.map(|(rkey, off)| {
                let mr = MrId(rkey.0 as u32);
                let r_misses = sm.rnic.mtt.access(mr, off, payload);
                r_stall += cfg.rnic.mtt_miss_occupancy * r_misses;
                r_miss_lat = (cfg.rnic.mtt_miss_penalty - cfg.rnic.mtt_miss_occupancy) * r_misses;
                sm.mem.region(mr).expect("validated").socket
            });
            if remote_region_socket.is_some_and(|s| s != server_port_socket) {
                r_stall += cfg.numa.remote_cross_occupancy;
            }

            let (done, old_value) = match &wr.kind {
                VerbKind::Write | VerbKind::Send => {
                    // Gather payload from host memory (SGL-aware) — unless
                    // it is small enough to have been inlined in the WQE,
                    // in which case the CPU already paid the copy and the
                    // NIC skips the DMA round.
                    let inlined = payload <= cfg.rnic.inline_max && wr.sgl.len() == 1;
                    let mut gather = if inlined {
                        exec_done
                    } else {
                        cm.rnic.gather_dma(client.port, exec_done, wr.sgl.len(), payload)
                    };
                    if !inlined
                        && wr.sgl.iter().any(|s| {
                            cm.mem.region(s.mr).expect("validated").socket != client_port_socket
                        })
                    {
                        gather += cfg.numa.local_buffer_cross;
                    }
                    // UD datagrams carry a 40-byte GRH on the wire.
                    let wire_payload = match transport {
                        Transport::Ud => payload + UD_GRH_BYTES,
                        _ => payload,
                    };
                    let depart = cm.rnic.wire_out(client.port, gather, wire_payload);
                    let arrive = sm.rnic.deliver(server.port, depart, wire_payload);
                    let (_, rx_end) = sm.rnic.recv_packet(server.port, arrive, r_stall);
                    let rx_done = rx_end + r_miss_lat;
                    let mut placed = sm.rnic.dma_write(server.port, rx_done, payload);
                    if remote_region_socket.is_some_and(|s| s != server_port_socket) {
                        placed += cfg.numa.remote_write_cross;
                    }
                    // Data effect (Send carries no remote address).
                    if let (VerbKind::Write, Some((rkey, off))) = (&wr.kind, wr.remote) {
                        write_effect(cm, sm, wr, MrId(rkey.0 as u32), off, &mut data);
                    }
                    match transport {
                        // RC: the ACK round trip defines completion.
                        Transport::Rc => {
                            let ack_depart = sm.rnic.wire_out(server.port, rx_done.max(placed), 0);
                            let ack_arrive = cm.rnic.deliver(client.port, ack_depart, 0);
                            (ack_arrive + cfg.rnic.ack_fixed, 0)
                        }
                        // UC/UD: no ACK protocol — the CQE fires when the
                        // local NIC has pushed the last byte out.
                        Transport::Uc | Transport::Ud => (depart, 0),
                    }
                }
                VerbKind::Read => {
                    // Small request packet out.
                    let depart = cm.rnic.wire_out(client.port, exec_done, 0);
                    let arrive = sm.rnic.deliver(server.port, depart, 0);
                    let (_, rx_end) = sm.rnic.recv_packet(server.port, arrive, r_stall);
                    let rx_done = rx_end + r_miss_lat;
                    // Responder fetches payload: non-posted PCIe read.
                    let mut fetched = sm.rnic.dma_read(server.port, rx_done, payload);
                    if remote_region_socket.is_some_and(|s| s != server_port_socket) {
                        fetched += cfg.numa.remote_read_cross;
                    }
                    let resp_depart = sm.rnic.wire_out(server.port, fetched, payload);
                    let resp_arrive = cm.rnic.deliver(client.port, resp_depart, payload);
                    // Requester scatters the payload into the local SGL.
                    let mut landed =
                        cm.rnic.dma_write(client.port, resp_arrive + cfg.rnic.ack_fixed, payload);
                    if wr.sgl.iter().any(|s| {
                        cm.mem.region(s.mr).expect("validated").socket != client_port_socket
                    }) {
                        landed += cfg.numa.local_buffer_cross;
                    }
                    // Data effect.
                    if let Some((rkey, off)) = wr.remote {
                        read_effect(cm, sm, wr, MrId(rkey.0 as u32), off, &mut data);
                    }
                    (landed, 0)
                }
                VerbKind::CompareSwap { expected, desired } => {
                    let (rkey, off) = wr.remote.expect("validated");
                    let mr = MrId(rkey.0 as u32);
                    let depart = cm.rnic.wire_out(client.port, exec_done, 0);
                    let arrive = sm.rnic.deliver(server.port, depart, 0);
                    let (_, rx_end) = sm.rnic.recv_packet(server.port, arrive, r_stall);
                    let rx_done = rx_end + r_miss_lat;
                    let (_, atomic_done) = sm.rnic.atomic_exec(server.port, rx_done);
                    let old = sm.mem.load_u64(mr, off);
                    if old == *expected {
                        sm.mem.store_u64(mr, off, *desired);
                    }
                    let resp_depart = sm.rnic.wire_out(server.port, atomic_done, 8);
                    let resp_arrive = cm.rnic.deliver(client.port, resp_depart, 8);
                    (resp_arrive + cfg.rnic.ack_fixed, old)
                }
                VerbKind::FetchAdd { delta } => {
                    let (rkey, off) = wr.remote.expect("validated");
                    let mr = MrId(rkey.0 as u32);
                    let depart = cm.rnic.wire_out(client.port, exec_done, 0);
                    let arrive = sm.rnic.deliver(server.port, depart, 0);
                    let (_, rx_end) = sm.rnic.recv_packet(server.port, arrive, r_stall);
                    let rx_done = rx_end + r_miss_lat;
                    let (_, atomic_done) = sm.rnic.atomic_exec(server.port, rx_done);
                    let old = sm.mem.load_u64(mr, off);
                    sm.mem.store_u64(mr, off, old.wrapping_add(*delta));
                    let resp_depart = sm.rnic.wire_out(server.port, atomic_done, 8);
                    let resp_arrive = cm.rnic.deliver(client.port, resp_depart, 8);
                    (resp_arrive + cfg.rnic.ack_fixed, old)
                }
            };

            // Dynamic race oracle (checked mode): record the one-sided
            // DMA span on the target machine, in flight until `done` —
            // Sends land through the channel (a posted Recv), not a
            // caller-named byte range, so only memory verbs participate.
            if checked && !matches!(wr.kind, VerbKind::Send) {
                if let Some((rkey, off)) = wr.remote {
                    sm.oracle.record(
                        server.machine,
                        conn.0,
                        wr.wr_id,
                        MrId(rkey.0 as u32),
                        off,
                        off + payload.max(1),
                        !matches!(wr.kind, VerbKind::Read),
                        now,
                        done,
                    );
                }
            }

            if wr.signaled {
                let mut cqe_at = done + cfg.rnic.cqe_cost;
                if client.core_socket != client_port_socket {
                    cqe_at += cfg.numa.cqe_cross;
                }
                completions.push(Completion {
                    wr_id: wr.wr_id,
                    status: CqeStatus::Success,
                    at: cqe_at,
                    old_value,
                });
            }
        }
        self.data_scratch = data;
    }

    /// Convenience: post one signaled WR and return its completion.
    pub fn post_one(&mut self, now: SimTime, conn: ConnId, wr: WorkRequest) -> Completion {
        let mut wr = wr;
        wr.signaled = true;
        self.post_one_ref(now, conn, &wr)
    }

    /// Post one already-signaled WR by reference — lets hot loops reuse a
    /// template request without moving or cloning it. The internal CQE
    /// buffer is reused across calls, so nothing allocates.
    pub fn post_one_ref(&mut self, now: SimTime, conn: ConnId, wr: &WorkRequest) -> Completion {
        assert!(wr.signaled, "post_one_ref requires a signaled WR");
        let mut cqes = std::mem::take(&mut self.cqe_scratch);
        cqes.clear();
        self.post_into(now, conn, std::slice::from_ref(wr), &mut cqes);
        let cqe = cqes[0];
        self.cqe_scratch = cqes;
        cqe
    }

    /// Post a doorbell batch and return the completion train through the
    /// testbed's reused CQE buffer — the batched counterpart of
    /// [`Testbed::post_one_ref`]: one coalesced completion slice per
    /// doorbell, no allocation per batch. The slice is valid until the
    /// next post through this testbed.
    pub fn post_scratch(
        &mut self,
        now: SimTime,
        conn: ConnId,
        wrs: &[WorkRequest],
    ) -> &[Completion] {
        let mut cqes = std::mem::take(&mut self.cqe_scratch);
        cqes.clear();
        self.post_into(now, conn, wrs, &mut cqes);
        self.cqe_scratch = cqes;
        &self.cqe_scratch
    }

    /// A two-sided RPC round trip (channel semantics, Send/Recv): the
    /// request occupies the server's CPU — the cost one-sided verbs avoid.
    /// Returns when the reply is visible to the client.
    pub fn rpc_call(
        &mut self,
        now: SimTime,
        conn: ConnId,
        req_bytes: u64,
        resp_bytes: u64,
        handler_cost: SimTime,
    ) -> SimTime {
        simcore::opcount::add(1);
        let c = &self.conns[conn.0 as usize];
        let (client, server) = (c.client, c.server);
        self.guard(conn, client.machine, server.machine);
        let grh = match c.transport {
            Transport::Ud => UD_GRH_BYTES,
            _ => 0,
        };
        let cfg = &self.cfg;
        let (cm, sm) = pair_of(&mut self.machines, client.machine, server.machine);
        let server_horizon = sm.rnic.raise_horizon(self.horizon);
        let mark = cm.rnic.raise_horizon(self.horizon).max(server_horizon);
        self.below_horizon += u64::from(now < mark);

        // Request: client → server (like a Send landing in a recv buffer).
        let t_door = cm.rnic.doorbell(now);
        let (_, exec_done) =
            cm.rnic.exec_wqe(client.port, t_door, cfg.rnic.write_service, SimTime::ZERO);
        let gather = cm.rnic.gather_dma(client.port, exec_done, 1, req_bytes);
        let depart = cm.rnic.wire_out(client.port, gather, req_bytes + grh);
        let arrive = sm.rnic.deliver(server.port, depart, req_bytes + grh);
        let (_, rx_done) = sm.rnic.recv_packet(server.port, arrive, SimTime::ZERO);
        let placed = sm.rnic.dma_write(server.port, rx_done, req_bytes);

        // Server CPU: poll, dispatch, run the handler, post the reply.
        let ready = placed + cfg.rpc.poll_delay;
        let (_, served) =
            sm.rpc_cpu.acquire(server_horizon, ready, cfg.rpc.dispatch_cost + handler_cost);

        // Reply: server → client.
        let r_door = sm.rnic.doorbell(served);
        let (_, r_exec) =
            sm.rnic.exec_wqe(server.port, r_door, cfg.rnic.write_service, SimTime::ZERO);
        let r_gather = sm.rnic.gather_dma(server.port, r_exec, 1, resp_bytes);
        let r_depart = sm.rnic.wire_out(server.port, r_gather, resp_bytes + grh);
        let r_arrive = cm.rnic.deliver(client.port, r_depart, resp_bytes + grh);
        let (_, r_rx) = cm.rnic.recv_packet(client.port, r_arrive, SimTime::ZERO);
        let r_placed = cm.rnic.dma_write(client.port, r_rx, resp_bytes);
        r_placed + cfg.rnic.cqe_cost
    }

    /// Number of established connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Carve this testbed into `shards` sub-testbeds for threaded
    /// component runs: shard `s` takes ownership (by move) of every
    /// machine with `owner[m] == s` and gets a fresh *husk* machine in
    /// every other slot, so machine indices — and therefore `ConnId`s
    /// and `Endpoint`s — keep their global meaning inside each shard.
    /// The husks are never touched: owners must keep whole components
    /// together, so the component guard panics on any verb reaching a
    /// foreign machine. Pair with [`Testbed::absorb_shards`] to move the
    /// state back.
    pub(crate) fn split_shards(&mut self, owner: &[usize], shards: usize) -> Vec<Testbed> {
        assert_eq!(owner.len(), self.machines.len());
        (0..shards)
            .map(|s| Testbed {
                cfg: self.cfg.clone(),
                machines: self
                    .machines
                    .iter_mut()
                    .enumerate()
                    .map(|(m, slot)| {
                        if owner[m] == s {
                            std::mem::replace(slot, husk_machine(&self.cfg))
                        } else {
                            husk_machine(&self.cfg)
                        }
                    })
                    .collect(),
                conns: self.conns.clone(),
                cqe_scratch: Vec::new(),
                data_scratch: Vec::new(),
                checked: self.checked,
                component: self.component.clone(),
                stepping: self.stepping,
                horizon: SimTime::ZERO,
                below_horizon: 0,
            })
            .collect()
    }

    /// Confine verbs to one connected component at a time: `component`
    /// holds every machine's component id (empty lifts the guard), and
    /// [`Testbed::set_stepping`] names the component allowed to post.
    pub(crate) fn guard_components(&mut self, component: Vec<u32>) {
        self.component = component;
    }

    /// The component whose clients are being stepped.
    pub(crate) fn set_stepping(&mut self, component: u32) {
        self.stepping = component;
    }

    /// Publish the engine's horizon: no later post is issued before it
    /// (`SimTime::ZERO` outside a drive).
    pub(crate) fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// How many posts were issued below the horizon of a NIC they touched.
    pub(crate) fn posts_below_horizon(&self) -> u64 {
        self.below_horizon
    }

    /// Panic unless both endpoints of `conn` lie in the component being
    /// stepped (no-op when no guard is set).
    #[inline]
    fn guard(&self, conn: ConnId, a: usize, b: usize) {
        if !self.component.is_empty() {
            assert!(
                self.component[a] == self.stepping && self.component[b] == self.stepping,
                "conn {} reaches outside component {} being stepped",
                conn.0,
                self.stepping
            );
        }
    }

    /// Reclaim machine state moved out by [`Testbed::split_shards`]. The
    /// fold is by owned slot, so the result is independent of the order
    /// shard workers finished in.
    pub(crate) fn absorb_shards(&mut self, mut shards: Vec<Testbed>, owner: &[usize]) {
        for (m, &s) in owner.iter().enumerate() {
            std::mem::swap(&mut self.machines[m], &mut shards[s].machines[m]);
        }
    }

    /// Drain the dynamic race oracle: every pair of one-sided DMA spans
    /// that actually overlapped — in bytes *and* in simulated time —
    /// while checked mode was on, canonically sorted and deduplicated.
    /// Oracle state lives inside each [`Machine`] and migrates with it
    /// across shard splits, so sharded runs report identical races.
    pub fn take_races(&mut self) -> Vec<Race> {
        let mut races: Vec<Race> =
            self.machines.iter_mut().flat_map(|m| m.oracle.take_races()).collect();
        races.sort();
        races.dedup();
        races
    }
}

/// A freshly initialized machine.
fn blank_machine(cfg: &ClusterConfig) -> Machine {
    Machine {
        rnic: Rnic::new(cfg.rnic.clone()),
        mem: MemoryPool::new(),
        rpc_cpu: KServer::new(cfg.rpc.server_threads),
        ud_qp: vec![None; cfg.rnic.ports],
        oracle: OracleState::default(),
    }
}

/// A placeholder machine filling foreign (and vacated) slots around a
/// shard split. Husks only exist to keep machine indices global; the
/// component guard panics before any verb can reach one, so they carry
/// no ports.
fn husk_machine(cfg: &ClusterConfig) -> Machine {
    let rnic = rnicsim::RnicConfig { ports: 0, ..cfg.rnic.clone() };
    Machine {
        rnic: Rnic::new(rnic),
        mem: MemoryPool::new(),
        rpc_cpu: KServer::new(1),
        ud_qp: Vec::new(),
        oracle: OracleState::default(),
    }
}

/// Disjoint mutable borrows of two machines — a free function (rather
/// than a method) so `post_into` can hold `&self.cfg` alongside it.
fn pair_of(machines: &mut [Machine], a: usize, b: usize) -> (&mut Machine, &mut Machine) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = machines.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = machines.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

fn validate(cm: &Machine, sm: &Machine, wr: &WorkRequest) -> Option<CqeStatus> {
    for sge in &wr.sgl {
        if !cm.mem.check(sge.mr, sge.offset, sge.len) {
            return Some(CqeStatus::LocalProtectionError);
        }
    }
    match wr.kind {
        VerbKind::Send => None,
        _ => match wr.remote {
            Some((rkey, off)) => {
                let mr = MrId(rkey.0 as u32);
                let len = wr.payload_bytes();
                if !sm.mem.check(mr, off, len) {
                    return Some(CqeStatus::RemoteAccessError);
                }
                if wr.kind.is_atomic() {
                    // Real RNICs fault CAS/FAA on targets that are not
                    // aligned 8-byte words (§III-E) — enforce it in the
                    // dynamic path too, not just in verbcheck.
                    if off % 8 != 0 {
                        return Some(CqeStatus::MisalignedAtomic);
                    }
                    if !sm.mem.region(mr).expect("checked").is_backed() {
                        return Some(CqeStatus::RemoteAccessError);
                    }
                }
                None
            }
            None => Some(CqeStatus::RemoteAccessError),
        },
    }
}

/// Data effect of a Write: move each local SGE straight into the remote
/// span. Every SGE view is a borrowed single-chunk slice in the common
/// case (`scratch` is only touched when an SGE straddles a chunk seam),
/// and the destination writes go through
/// [`MemoryPool::write`]/[`MemoryPool::write_zeros`] so sparse-page
/// materialization (including zero-write elision) follows the same rules
/// as gathering the whole payload and writing it once — byte-identical
/// *and* residency-identical (the test module holds that reference). An
/// unbacked destination discards the write, so the gather is skipped
/// entirely; an unbacked source SGE contributes zeros.
fn write_effect(
    cm: &Machine,
    sm: &mut Machine,
    wr: &WorkRequest,
    dst_mr: MrId,
    dst_off: u64,
    scratch: &mut Vec<u8>,
) {
    if !sm.mem.region(dst_mr).expect("validated").is_backed() {
        return;
    }
    let mut cursor = 0u64;
    for sge in &wr.sgl {
        match cm.mem.read_view(sge.mr, sge.offset, sge.len, scratch) {
            Some(src) => sm.mem.write(dst_mr, dst_off + cursor, src),
            None => sm.mem.write_zeros(dst_mr, dst_off + cursor, sge.len),
        }
        cursor += sge.len;
    }
}

/// Data effect of a Read: scatter the remote span straight into the local
/// SGL (`scratch` is only touched when the span straddles a chunk seam).
/// An unbacked remote source reads as zeros; unbacked local SGEs discard
/// their share; destination writes share the sparse materialization rules
/// with staging the span and scattering it, so both are byte- and
/// residency-identical.
fn read_effect(
    cm: &mut Machine,
    sm: &Machine,
    wr: &WorkRequest,
    src_mr: MrId,
    src_off: u64,
    scratch: &mut Vec<u8>,
) {
    match sm.mem.read_view(src_mr, src_off, wr.payload_bytes(), scratch) {
        Some(src) => {
            let mut cursor = 0usize;
            for sge in &wr.sgl {
                cm.mem.write(sge.mr, sge.offset, &src[cursor..cursor + sge.len as usize]);
                cursor += sge.len as usize;
            }
        }
        None => {
            for sge in &wr.sgl {
                cm.mem.write_zeros(sge.mr, sge.offset, sge.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::CHUNK_BYTES;
    use rnicsim::{RKey, Sge, VerbKind, WorkRequest, WrId};

    fn setup() -> (Testbed, MrId, MrId, ConnId) {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 20);
        let dst = tb.register(1, 1, 1 << 20);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        (tb, src, dst, conn)
    }

    fn rkey(mr: MrId) -> RKey {
        RKey(mr.0 as u64)
    }

    #[test]
    fn write_moves_real_bytes() {
        let (mut tb, src, dst, conn) = setup();
        tb.machine_mut(0).mem.write(src, 100, b"payload!");
        let cqe = tb.post_one(
            SimTime::ZERO,
            conn,
            WorkRequest::write(1, Sge::new(src, 100, 8), rkey(dst), 5000),
        );
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(tb.machine(1).mem.read(dst, 5000, 8), b"payload!");
    }

    #[test]
    fn read_moves_real_bytes_back() {
        let (mut tb, src, dst, conn) = setup();
        tb.machine_mut(1).mem.write(dst, 40, b"remote");
        let cqe = tb.post_one(
            SimTime::ZERO,
            conn,
            WorkRequest::read(1, Sge::new(src, 0, 6), rkey(dst), 40),
        );
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(tb.machine(0).mem.read(src, 0, 6), b"remote");
    }

    #[test]
    fn sgl_write_gathers_scattered_buffers() {
        let (mut tb, src, dst, conn) = setup();
        tb.machine_mut(0).mem.write(src, 0, b"AB");
        tb.machine_mut(0).mem.write(src, 512, b"CD");
        tb.machine_mut(0).mem.write(src, 1024, b"EF");
        let wr = WorkRequest {
            wr_id: WrId(1),
            kind: VerbKind::Write,
            sgl: [Sge::new(src, 0, 2), Sge::new(src, 512, 2), Sge::new(src, 1024, 2)].into(),
            remote: Some((rkey(dst), 0)),
            signaled: true,
        };
        let cqe = tb.post_one(SimTime::ZERO, conn, wr);
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(tb.machine(1).mem.read(dst, 0, 6), b"ABCDEF");
    }

    #[test]
    fn cas_succeeds_only_on_expected_value() {
        let (mut tb, src, dst, conn) = setup();
        tb.machine_mut(1).mem.store_u64(dst, 0, 7);
        let mk = |wr_id, expected, desired| WorkRequest {
            wr_id: WrId(wr_id),
            kind: VerbKind::CompareSwap { expected, desired },
            sgl: Sge::new(src, 0, 8).into(),
            remote: Some((rkey(dst), 0)),
            signaled: true,
        };
        // Mismatch: no swap, old value returned.
        let c1 = tb.post_one(SimTime::ZERO, conn, mk(1, 9, 42));
        assert_eq!(c1.old_value, 7);
        assert_eq!(tb.machine(1).mem.load_u64(dst, 0), 7);
        // Match: swap happens.
        let c2 = tb.post_one(c1.at, conn, mk(2, 7, 42));
        assert_eq!(c2.old_value, 7);
        assert_eq!(tb.machine(1).mem.load_u64(dst, 0), 42);
    }

    #[test]
    fn faa_accumulates_and_returns_old() {
        let (mut tb, src, dst, conn) = setup();
        let mut t = SimTime::ZERO;
        for i in 0..5u64 {
            let wr = WorkRequest {
                wr_id: WrId(i),
                kind: VerbKind::FetchAdd { delta: 3 },
                sgl: Sge::new(src, 0, 8).into(),
                remote: Some((rkey(dst), 64)),
                signaled: true,
            };
            let c = tb.post_one(t, conn, wr);
            assert_eq!(c.old_value, i * 3);
            t = c.at;
        }
        assert_eq!(tb.machine(1).mem.load_u64(dst, 64), 15);
    }

    #[test]
    fn out_of_bounds_remote_yields_error_cqe_and_no_write() {
        let (mut tb, src, dst, conn) = setup();
        let cqe = tb.post_one(
            SimTime::ZERO,
            conn,
            WorkRequest::write(1, Sge::new(src, 0, 64), rkey(dst), (1 << 20) - 10),
        );
        assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
    }

    #[test]
    fn bad_local_sge_yields_protection_error() {
        let (mut tb, _src, dst, conn) = setup();
        let cqe = tb.post_one(
            SimTime::ZERO,
            conn,
            WorkRequest::write(1, Sge::new(MrId(404), 0, 8), rkey(dst), 0),
        );
        assert_eq!(cqe.status, CqeStatus::LocalProtectionError);
    }

    #[test]
    fn misaligned_atomic_yields_its_own_error_cqe() {
        let (mut tb, src, dst, conn) = setup();
        tb.machine_mut(1).mem.store_u64(dst, 0, 55);
        let mk = |wr_id, off| WorkRequest {
            wr_id: WrId(wr_id),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(src, 0, 8).into(),
            remote: Some((rkey(dst), off)),
            signaled: true,
        };
        // Offsets 1..7 all fault; the target word is untouched.
        for off in 1..8u64 {
            let cqe = tb.post_one(SimTime::ZERO, conn, mk(off, off));
            assert_eq!(cqe.status, CqeStatus::MisalignedAtomic, "offset {off}");
        }
        assert_eq!(tb.machine(1).mem.load_u64(dst, 0), 55);
        // Aligned offsets succeed.
        let ok = tb.post_one(SimTime::ZERO, conn, mk(99, 0));
        assert_eq!(ok.status, CqeStatus::Success);
        assert_eq!(tb.machine(1).mem.load_u64(dst, 0), 56);
    }

    #[test]
    fn checked_mode_accepts_clean_batches() {
        let (mut tb, src, dst, conn) = setup();
        tb.set_checked(true);
        let cqe = tb.post_one(
            SimTime::ZERO,
            conn,
            WorkRequest::write(1, Sge::new(src, 0, 64), rkey(dst), 0),
        );
        assert_eq!(cqe.status, CqeStatus::Success);
    }

    #[test]
    fn checked_mode_completes_out_of_bounds_posts_with_an_error() {
        let (mut tb, src, dst, conn) = setup();
        tb.set_checked(true);
        let cqe = tb.post_one(
            SimTime::ZERO,
            conn,
            WorkRequest::write(1, Sge::new(src, 0, 64), rkey(dst), (1 << 20) - 10),
        );
        assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
        assert!(tb.take_races().is_empty());
    }

    #[test]
    fn atomic_on_unbacked_region_is_rejected() {
        let (mut tb, src, _dst, conn) = setup();
        let big = tb.register_unbacked(1, 0, 1 << 30);
        let wr = WorkRequest {
            wr_id: WrId(1),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(src, 0, 8).into(),
            remote: Some((rkey(big), 0)),
            signaled: true,
        };
        assert_eq!(tb.post_one(SimTime::ZERO, conn, wr).status, CqeStatus::RemoteAccessError);
    }

    #[test]
    fn doorbell_batch_pays_one_mmio() {
        // A 2-WR doorbell batch completes sooner than two serialized
        // single posts but later than one op.
        let (mut tb, src, dst, conn) = setup();
        let mk = |id, off| WorkRequest::write(id, Sge::new(src, 0, 32), rkey(dst), off);
        // Warm caches.
        let warm = tb.post_one(SimTime::ZERO, conn, mk(0, 0));
        let t0 = warm.at;
        let cqes = tb.post(t0, conn, &[mk(1, 0), mk(2, 64)]);
        assert_eq!(cqes.len(), 2);
        let batch_span = cqes[1].at - t0;
        // Fresh but warmed testbed for the serialized comparison.
        let (mut tb2, src2, dst2, conn2) = setup();
        let mk2 = |id, off| WorkRequest::write(id, Sge::new(src2, 0, 32), rkey(dst2), off);
        let warm2 = tb2.post_one(SimTime::ZERO, conn2, mk2(0, 0));
        let c1 = tb2.post_one(warm2.at, conn2, mk2(1, 0));
        let c2 = tb2.post_one(c1.at, conn2, mk2(2, 64));
        let serial_span = c2.at - warm2.at;
        let single_span = c1.at - warm2.at;
        assert!(batch_span < serial_span, "{batch_span} !< {serial_span}");
        assert!(batch_span > single_span, "{batch_span} !> {single_span}");
    }

    #[test]
    fn numa_misplacement_costs_latency() {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src_good = tb.register(0, 1, 4096);
        let dst_good = tb.register(1, 1, 4096);
        let src_bad = tb.register(0, 0, 4096);
        let dst_bad = tb.register(1, 0, 4096);
        // Port 1 on both sides; good endpoints have cores on socket 1.
        let good = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let bad = tb.connect(
            Endpoint { machine: 0, port: 1, core_socket: 0 },
            Endpoint { machine: 1, port: 1, core_socket: 0 },
        );
        let warm_g = tb.post_one(
            SimTime::ZERO,
            good,
            WorkRequest::write(0, Sge::new(src_good, 0, 8), rkey(dst_good), 0),
        );
        let g = tb.post_one(
            warm_g.at,
            good,
            WorkRequest::write(1, Sge::new(src_good, 0, 8), rkey(dst_good), 0),
        );
        let lat_good = g.at - warm_g.at;
        let warm_b = tb.post_one(
            g.at,
            bad,
            WorkRequest::write(2, Sge::new(src_bad, 0, 8), rkey(dst_bad), 0),
        );
        let b = tb.post_one(
            warm_b.at,
            bad,
            WorkRequest::write(3, Sge::new(src_bad, 0, 8), rkey(dst_bad), 0),
        );
        let lat_bad = b.at - warm_b.at;
        let extra = lat_bad.as_ns() / lat_good.as_ns() - 1.0;
        // Worst placement costs ~50 % extra on a small write (§III-D).
        assert!((0.3..=0.7).contains(&extra), "extra {extra}");
    }

    #[test]
    fn rpc_is_slower_than_one_sided_write() {
        let (mut tb, src, dst, conn) = setup();
        let warm = tb.post_one(
            SimTime::ZERO,
            conn,
            WorkRequest::write(0, Sge::new(src, 0, 32), rkey(dst), 0),
        );
        let w =
            tb.post_one(warm.at, conn, WorkRequest::write(1, Sge::new(src, 0, 32), rkey(dst), 0));
        let one_sided = w.at - warm.at;
        let t0 = w.at;
        let done = tb.rpc_call(t0, conn, 32, 32, SimTime::from_ns(100));
        let rpc = done - t0;
        assert!(rpc > one_sided * 2, "rpc {rpc} vs one-sided {one_sided}");
    }

    #[test]
    fn unsignaled_wrs_produce_no_cqe() {
        let (mut tb, src, dst, conn) = setup();
        let mut a = WorkRequest::write(1, Sge::new(src, 0, 8), rkey(dst), 0);
        a.signaled = false;
        let b = WorkRequest::write(2, Sge::new(src, 0, 8), rkey(dst), 64);
        let cqes = tb.post(SimTime::ZERO, conn, &[a, b]);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wr_id, WrId(2));
    }

    #[test]
    fn incast_serializes_on_receiver_inbound_link() {
        // Three senders blast 8 KB writes at one receiver port: the third
        // sender's packet must queue behind the others on the inbound link.
        let mut tb = Testbed::new(ClusterConfig { machines: 4, ..Default::default() });
        let dst = tb.register(3, 1, 1 << 20);
        let mut lasts = Vec::new();
        for m in 0..3 {
            let src = tb.register(m, 1, 1 << 20);
            let conn = tb.connect(Endpoint::affine(m, 1), Endpoint::affine(3, 1));
            let c = tb.post_one(
                SimTime::ZERO,
                conn,
                WorkRequest::write(m as u64, Sge::new(src, 0, 8192), rkey(dst), 0),
            );
            lasts.push(c.at);
        }
        // 8 KB serializes for ~1.65 us on the inbound link; completions
        // must be spread by at least one serialization each.
        let spread = lasts[2] - lasts[0];
        assert!(spread > SimTime::from_us(2), "spread {spread}");
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_connections_are_rejected() {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        tb.connect(Endpoint::affine(0, 0), Endpoint::affine(0, 1));
    }

    /// One mixed workload (writes, reads, SGL gathers, atomics, doorbell
    /// trains, backed and unbacked regions, two interleaved connections)
    /// folded into one FNV digest: the CQE train, both memory images, and
    /// every NIC's MTT/QPC hit/miss counters. The constant is the digest
    /// the bulk data-effect pipeline and the staged gather/scatter
    /// pipeline both produced, so any change in timing, data effects or
    /// cache accounting moves it.
    #[test]
    fn mixed_workload_matches_pinned_digest() {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 20);
        let dst = tb.register(1, 1, 1 << 20);
        let ubk = tb.register_unbacked(1, 1, 1 << 20);
        let c1 = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let c2 = tb.connect(Endpoint::affine(0, 0), Endpoint::affine(1, 0));
        for i in 0..64u64 {
            tb.machine_mut(0).mem.store_u64(src, i * 8, i.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let mut cqes = Vec::new();
        let mut t = SimTime::ZERO;
        for round in 0..50u64 {
            let conn = if round % 3 == 0 { c2 } else { c1 };
            let off = (round * 96) % 4000;
            let wrs = [
                WorkRequest {
                    signaled: false,
                    ..WorkRequest::write(round * 10, Sge::new(src, off, 32), rkey(dst), off)
                },
                WorkRequest::write(round * 10 + 1, Sge::new(src, off, 64), rkey(ubk), off),
                WorkRequest {
                    wr_id: WrId(round * 10 + 2),
                    kind: VerbKind::Write,
                    sgl: [Sge::new(src, 0, 16), Sge::new(src, 512, 16)].into(),
                    remote: Some((rkey(dst), 8192 + off)),
                    signaled: true,
                },
                WorkRequest::read(round * 10 + 3, Sge::new(src, 4096 + off, 48), rkey(dst), off),
                WorkRequest::read(round * 10 + 4, Sge::new(src, 8192, 16), rkey(ubk), off),
                WorkRequest {
                    wr_id: WrId(round * 10 + 5),
                    kind: VerbKind::FetchAdd { delta: round },
                    sgl: Sge::new(src, 16384, 8).into(),
                    remote: Some((rkey(dst), 32768)),
                    signaled: true,
                },
            ];
            let batch = tb.post(t, conn, &wrs);
            t = batch.last().expect("signaled tail").at;
            cqes.extend(batch);
        }
        let mut h = FNV_BASIS;
        for c in &cqes {
            fnv(&mut h, &c.wr_id.0.to_le_bytes());
            fnv(&mut h, &[c.status as u8]);
            fnv(&mut h, &c.at.as_ps().to_le_bytes());
            fnv(&mut h, &c.old_value.to_le_bytes());
        }
        fnv(&mut h, &tb.machine(0).mem.read(src, 0, 1 << 20));
        fnv(&mut h, &tb.machine(1).mem.read(dst, 0, 1 << 20));
        for m in 0..2 {
            let nic = &tb.machine(m).rnic;
            for (hits, misses) in [nic.mtt.stats(), nic.qpc.stats()] {
                fnv(&mut h, &hits.to_le_bytes());
                fnv(&mut h, &misses.to_le_bytes());
            }
        }
        assert_eq!(h, 0x91a0_73c8_b159_af83, "mixed workload digest moved: {h:#018x}");
    }

    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Reference Write gather: stage the whole local SGL in one buffer
    /// (the caller then writes it with one [`MemoryPool::write`]).
    fn gather_bytes_into(m: &Machine, wr: &WorkRequest, out: &mut Vec<u8>) {
        out.reserve(wr.payload_bytes() as usize);
        for sge in &wr.sgl {
            m.mem.read_into(sge.mr, sge.offset, sge.len, out);
        }
    }

    /// Reference Read scatter: spread a staged payload over the local SGL.
    fn scatter_bytes(m: &mut Machine, wr: &WorkRequest, data: &[u8]) {
        let mut cursor = 0usize;
        for sge in &wr.sgl {
            let end = cursor + sge.len as usize;
            m.mem.write(sge.mr, sge.offset, &data[cursor..end]);
            cursor = end;
        }
    }

    /// Lengths of the differential's regions, registered in this order on
    /// every machine: backed and not a chunk multiple, backed, unbacked.
    const DIFF_REGIONS: [u64; 3] = [4 * CHUNK_BYTES + 1000, 4 * CHUNK_BYTES, 4 * CHUNK_BYTES];
    const DIFF_UNBACKED: MrId = MrId(2);

    /// A client/server machine pair with the differential's regions and a
    /// little seeded non-zero content; everything else is unmaterialized.
    fn diff_pair() -> (Machine, Machine) {
        let cfg = ClusterConfig::two_machines();
        let mut pair = (blank_machine(&cfg), blank_machine(&cfg));
        for m in [&mut pair.0, &mut pair.1] {
            for (i, &len) in DIFF_REGIONS.iter().enumerate() {
                let mr = if MrId(i as u32) == DIFF_UNBACKED {
                    m.mem.register_unbacked(0, len)
                } else {
                    m.mem.register(0, len)
                };
                assert_eq!(mr, MrId(i as u32));
            }
            m.mem.write(MrId(0), CHUNK_BYTES - 100, &[0xA5; 300]);
            m.mem.write(MrId(1), 2 * CHUNK_BYTES + 7, &[0x3C; 64]);
        }
        pair
    }

    /// An in-bounds offset for `len` bytes of a `region_len` region: half
    /// the time the span starts or ends on, one byte before, or one byte
    /// after a chunk seam.
    fn diff_offset(rng: &mut simcore::SimRng, region_len: u64, len: u64) -> u64 {
        let fallback = rng.gen_range(region_len - len + 1);
        if rng.gen_bool(0.5) {
            let seam = CHUNK_BYTES * (1 + rng.gen_range(region_len / CHUNK_BYTES - 1));
            let at = (seam + rng.gen_range(3)).checked_sub(1);
            let off = if rng.gen_bool(0.5) { at } else { at.and_then(|e| e.checked_sub(len)) };
            if let Some(off) = off.filter(|&o| o + len <= region_len) {
                return off;
            }
        }
        fallback
    }

    /// Every region's residency and, when `full`, its resident digest and
    /// bytes. Residency is cheap, so it is checked after every step.
    fn assert_same_memory(a: &MemoryPool, b: &MemoryPool, full: bool, step: u64) {
        assert_eq!(a.resident_bytes(), b.resident_bytes(), "step {step}: pool residency");
        for (mr, r) in a.iter() {
            let other = b.region(mr).expect("same regions");
            assert_eq!(r.resident_bytes(), other.resident_bytes(), "step {step}: {mr:?} residency");
            if full {
                assert_eq!(a.resident_digest(mr), b.resident_digest(mr), "step {step}: {mr:?}");
                assert!(a.read(mr, 0, r.len) == b.read(mr, 0, r.len), "step {step}: {mr:?} bytes");
            }
        }
    }

    /// `write_effect`/`read_effect` against the staged reference
    /// (`gather_bytes_into` + `MemoryPool::write`, `read_into` +
    /// `scatter_bytes`) on two identically built machine pairs: the span
    /// each step lands on and every region's residency must agree after
    /// every step, and every region's bytes and resident digest at
    /// regular checkpoints and at the end. The seeded mix covers 1-4
    /// SGEs, spans on and ±1 of chunk seams, a region whose length is not
    /// a chunk multiple, unbacked sources and destinations, and all-zero
    /// payloads landing on unmaterialized chunks (which must stay elided).
    #[test]
    fn data_effects_match_staged_reference() {
        let (mut fast_c, mut fast_s) = diff_pair();
        let (mut ref_c, mut ref_s) = diff_pair();
        let mut rng = simcore::SimRng::new(0xDA7A);
        let (mut scratch, mut staged) = (Vec::new(), Vec::new());
        // Zero payloads onto never-written chunks stay elided: a gather of
        // never-written and unbacked bytes written into region 1's chunk
        // 3, then that chunk read back into a later span of the client's
        // region 1 chunk 3.
        let (dst, off, span) = (MrId(1), 3 * CHUNK_BYTES, CHUNK_BYTES / 16);
        let zero_write = WorkRequest {
            sgl: [Sge::new(dst, off, span / 2), Sge::new(DIFF_UNBACKED, 0, span / 2)].into(),
            ..WorkRequest::write(0, Sge::new(dst, off, 0), rkey(dst), off)
        };
        let zero_read = WorkRequest::read(1, Sge::new(dst, off + span, span), rkey(dst), off);
        let before = (fast_c.mem.resident_bytes(), fast_s.mem.resident_bytes());
        write_effect(&fast_c, &mut fast_s, &zero_write, dst, off, &mut scratch);
        read_effect(&mut fast_c, &fast_s, &zero_read, dst, off, &mut scratch);
        let after = (fast_c.mem.resident_bytes(), fast_s.mem.resident_bytes());
        assert_eq!(after, before, "zero payloads materialized chunks");

        let (mut seams, mut unbacked_src, mut unbacked_dst, mut zero_backed) = (0, 0, 0, 0);
        for step in 0..2_000u64 {
            if rng.gen_bool(0.1) {
                // Poke fresh bytes (sometimes zeros) into one backed span
                // on both pairs, so later effects overwrite live data.
                let client = rng.gen_bool(0.5);
                let mr = MrId(rng.gen_range(2) as u32);
                let len = 1 + rng.gen_range(300);
                let off = diff_offset(&mut rng, DIFF_REGIONS[mr.0 as usize], len);
                let fill = if rng.gen_bool(0.3) { 0 } else { 1 + rng.gen_range(255) as u8 };
                let bytes = vec![fill; len as usize];
                for m in [(&mut fast_c, &mut fast_s), (&mut ref_c, &mut ref_s)] {
                    let m = if client { m.0 } else { m.1 };
                    m.mem.write(mr, off, &bytes);
                }
                continue;
            }
            let mut sgl = Vec::new();
            for _ in 0..1 + rng.gen_range(4) {
                let mr = MrId(rng.gen_range(3) as u32);
                let len = if rng.gen_bool(0.15) {
                    CHUNK_BYTES / 2 + rng.gen_range(CHUNK_BYTES / 2)
                } else {
                    1 + rng.gen_range(200)
                };
                let off = diff_offset(&mut rng, DIFF_REGIONS[mr.0 as usize], len);
                unbacked_src += u32::from(mr == DIFF_UNBACKED);
                sgl.push(Sge::new(mr, off, len));
            }
            let payload: u64 = sgl.iter().map(|s| s.len).sum();
            let remote = MrId(rng.gen_range(3) as u32);
            let roff = diff_offset(&mut rng, DIFF_REGIONS[remote.0 as usize], payload);
            unbacked_dst += u32::from(remote == DIFF_UNBACKED);
            seams += u32::from(
                sgl.iter().any(|s| s.offset / CHUNK_BYTES != (s.offset + s.len - 1) / CHUNK_BYTES)
                    || roff / CHUNK_BYTES != (roff + payload - 1) / CHUNK_BYTES,
            );
            let write = rng.gen_bool(0.5);
            let wr = WorkRequest {
                wr_id: WrId(step),
                kind: if write { VerbKind::Write } else { VerbKind::Read },
                sgl: sgl.into(),
                remote: Some((rkey(remote), roff)),
                signaled: true,
            };
            let resident_before = fast_c.mem.resident_bytes() + fast_s.mem.resident_bytes();
            staged.clear();
            if write {
                write_effect(&fast_c, &mut fast_s, &wr, remote, roff, &mut scratch);
                gather_bytes_into(&ref_c, &wr, &mut staged);
                ref_s.mem.write(remote, roff, &staged);
            } else {
                read_effect(&mut fast_c, &fast_s, &wr, remote, roff, &mut scratch);
                ref_s.mem.read_into(remote, roff, payload, &mut staged);
                scatter_bytes(&mut ref_c, &wr, &staged);
            }
            let backed_dst = if write {
                remote != DIFF_UNBACKED
            } else {
                wr.sgl.iter().any(|g| g.mr != DIFF_UNBACKED)
            };
            if backed_dst
                && staged.iter().all(|&b| b == 0)
                && resident_before == fast_c.mem.resident_bytes() + fast_s.mem.resident_bytes()
            {
                zero_backed += 1;
            }
            let landed = |c: &Machine, s: &Machine| -> Vec<Vec<u8>> {
                if write {
                    vec![s.mem.read(remote, roff, payload)]
                } else {
                    wr.sgl.iter().map(|g| c.mem.read(g.mr, g.offset, g.len)).collect()
                }
            };
            assert!(landed(&fast_c, &fast_s) == landed(&ref_c, &ref_s), "step {step}: bytes");
            let full = step.is_multiple_of(100);
            assert_same_memory(&fast_c.mem, &ref_c.mem, full, step);
            assert_same_memory(&fast_s.mem, &ref_s.mem, full, step);
        }
        assert_same_memory(&fast_c.mem, &ref_c.mem, true, u64::MAX);
        assert_same_memory(&fast_s.mem, &ref_s.mem, true, u64::MAX);
        // The seeded mix really exercised every case it claims to.
        for (what, n) in [
            ("seam crossings", seams),
            ("unbacked sources", unbacked_src),
            ("unbacked destinations", unbacked_dst),
            ("zero payloads on backed destinations", zero_backed),
        ] {
            assert!(n > 100, "only {n} {what}");
        }
    }
}

#[cfg(test)]
mod transport_tests {
    use super::*;
    use rnicsim::{RKey, Sge, WorkRequest};

    fn setup(transport: Transport) -> (Testbed, MrId, MrId, ConnId) {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 16);
        let dst = tb.register(1, 1, 1 << 16);
        let conn = tb.connect_with(Endpoint::affine(0, 1), Endpoint::affine(1, 1), transport);
        (tb, src, dst, conn)
    }

    #[test]
    fn uc_write_completes_before_rc_write() {
        // UC's CQE fires at local send completion — no ACK round trip.
        let (mut tb_rc, src, dst, rc) = setup(Transport::Rc);
        let warm = tb_rc.post_one(
            SimTime::ZERO,
            rc,
            WorkRequest::write(0, Sge::new(src, 0, 32), RKey(dst.0 as u64), 0),
        );
        let c = tb_rc.post_one(
            warm.at,
            rc,
            WorkRequest::write(1, Sge::new(src, 0, 32), RKey(dst.0 as u64), 0),
        );
        let rc_lat = c.at - warm.at;
        let (mut tb_uc, src, dst, uc) = setup(Transport::Uc);
        let warm = tb_uc.post_one(
            SimTime::ZERO,
            uc,
            WorkRequest::write(0, Sge::new(src, 0, 32), RKey(dst.0 as u64), 0),
        );
        let c = tb_uc.post_one(
            warm.at,
            uc,
            WorkRequest::write(1, Sge::new(src, 0, 32), RKey(dst.0 as u64), 0),
        );
        let uc_lat = c.at - warm.at;
        assert!(uc_lat < rc_lat.scale(60, 100), "uc {uc_lat} vs rc {rc_lat}");
        // The bytes still land.
        assert_eq!(tb_uc.machine(1).mem.read(dst, 0, 4), tb_uc.machine(0).mem.read(src, 0, 4));
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn uc_rejects_reads() {
        let (mut tb, src, dst, uc) = setup(Transport::Uc);
        tb.post_one(
            SimTime::ZERO,
            uc,
            WorkRequest::read(0, Sge::new(src, 0, 8), RKey(dst.0 as u64), 0),
        );
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn ud_rejects_writes() {
        let (mut tb, src, dst, ud) = setup(Transport::Ud);
        tb.post_one(
            SimTime::ZERO,
            ud,
            WorkRequest::write(0, Sge::new(src, 0, 8), RKey(dst.0 as u64), 0),
        );
    }

    #[test]
    fn ud_peers_share_one_server_qp() {
        let mut tb = Testbed::new(ClusterConfig { machines: 4, ..Default::default() });
        let before = tb.machine(3).rnic.qp_count();
        for m in 0..3 {
            for _ in 0..10 {
                tb.connect_with(Endpoint::affine(m, 1), Endpoint::affine(3, 1), Transport::Ud);
            }
        }
        // 30 peers, exactly one new server-side QP.
        assert_eq!(tb.machine(3).rnic.qp_count(), before + 1);
        // RC would have created 30.
        for m in 0..3 {
            tb.connect(Endpoint::affine(m, 1), Endpoint::affine(3, 1));
        }
        assert_eq!(tb.machine(3).rnic.qp_count(), before + 1 + 3);
    }

    #[test]
    fn ud_send_pays_the_grh() {
        // Identical sends over RC vs UD: the UD one serializes 40 extra
        // bytes. Compare server-side arrival via rpc round trips.
        let (mut tb_rc, _s1, _d1, rc) = setup(Transport::Rc);
        let rc_reply = tb_rc.rpc_call(SimTime::ZERO, rc, 1024, 1024, SimTime::ZERO);
        let (mut tb_ud, _s2, _d2, ud) = setup(Transport::Ud);
        let ud_reply = tb_ud.rpc_call(SimTime::ZERO, ud, 1024, 1024, SimTime::ZERO);
        let delta = ud_reply - rc_reply;
        // Two GRHs (request + reply) at 200 ps/byte = 16 ns on the wire,
        // plus the same again on the inbound links.
        assert!(delta > SimTime::from_ns(10), "delta {delta}");
        assert!(delta < SimTime::from_ns(80), "delta {delta}");
    }

    #[test]
    fn transport_is_recorded() {
        let (tb, _, _, conn) = setup(Transport::Ud);
        assert_eq!(tb.transport_of(conn), Transport::Ud);
    }
}
