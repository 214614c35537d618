//! Pod builder for transactional clusters.
//!
//! Follows the traffic-engine topology convention: a cluster is `pods`
//! independent two-machine pods — service clients on machine `2p`, the
//! table server on `2p+1`. Connections never leave a pod, so each pod is
//! one connected component, `cluster::run_clients_sharded` deals whole
//! pods to shards, and `--shards N` runs are byte-identical to serial
//! ones.

use crate::service::staging_bytes;
use crate::table::TxnTable;
use cluster::{ConnId, Endpoint, Testbed};
use rnicsim::MrId;

/// One pod's wiring: the table it serves and the QP pool reaching it.
#[derive(Clone, Debug)]
pub struct PodSetup {
    /// Client (service) machine index.
    pub client: usize,
    /// Server (table) machine index.
    pub server: usize,
    /// The record table on the server.
    pub table: TxnTable,
    /// QP-pool connections, port-striped across the client's sockets.
    pub conns: Vec<ConnId>,
    /// Client staging region, one window per connection slot.
    pub staging: MrId,
}

/// Wire one pod: register the table on `server`, a staging region sized
/// for `qps` slots on `client`, and connect the QP pool. Registered
/// memory starts zeroed, so every record begins unlocked at version 0
/// with a zero counter — the serial reference model's origin.
pub fn build_pod(
    tb: &mut Testbed,
    client: usize,
    server: usize,
    qps: usize,
    cap_reads: usize,
    records: u64,
    value_len: u64,
) -> PodSetup {
    assert!(qps >= 1, "need at least one QP");
    let probe = TxnTable::new(MrId(0), 0, records, value_len);
    let mr = tb.register(server, 0, probe.footprint().max(64));
    let table = TxnTable::new(mr, 0, records, value_len);
    let staging = tb.register(client, 0, staging_bytes(qps, cap_reads, table.stride()).max(64));
    // NUMA-affine pool: every QP sits on the socket owning the staging and
    // table regions, so no slot's DMA crosses QPI (the W204 rule).
    let conns = (0..qps)
        .map(|_| tb.connect(Endpoint::affine(client, 0), Endpoint::affine(server, 0)))
        .collect();
    PodSetup { client, server, table, conns, staging }
}
