//! Remote synchronization primitives (§III-E): spinlocks over RDMA CAS
//! (with and without exponential backoff), the remote sequencer over FAA,
//! and the sequencer's space reservation, next to their two-sided RPC
//! baselines.
//!
//! ```text
//! cargo run --release --example remote_locks
//! ```

use rdma_memsem::net::{ClusterConfig, Endpoint, Testbed};
use rdma_memsem::nic::{RKey, Sge};
use rdma_memsem::opt::{RemoteSequencer, RemoteSpinlock, RpcLock, RpcSequencer};
use rdma_memsem::sim::{SimRng, SimTime};

fn main() {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let scratch = tb.register(0, 1, 4096);
    let server = tb.register(1, 1, 4096);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let rkey = RKey(server.0 as u64);
    let mut rng = SimRng::new(7);

    // --- remote spinlock -------------------------------------------------
    let lock = RemoteSpinlock::with_backoff(rkey, 0);
    let acq = lock.lock(&mut tb, conn, SimTime::ZERO, Sge::new(scratch, 0, 8), &mut rng);
    println!("remote spinlock acquired in {} ({} CAS)", acq.at, acq.attempts);
    let rel = lock.unlock(&mut tb, conn, acq.at, Sge::new(scratch, 8, 8));
    println!("released (one-sided write of 0) at {rel}");

    // --- remote sequencer --------------------------------------------------
    let seq = RemoteSequencer { rkey, offset: 64 };
    let mut t = rel;
    print!("remote sequencer tickets:");
    for expect in 0..5 {
        let ticket = seq.next(&mut tb, conn, t, Sge::new(scratch, 0, 8));
        print!(" {}", ticket.value);
        assert_eq!(ticket.value, expect);
        t = ticket.at;
    }
    println!(
        "   (~{:.2} MOPS sustained; atomic unit caps at ~2.35)",
        1.0 / ((t - rel).as_us() / 5.0)
    );

    // --- the space-reservation idiom of the distributed log ---------------
    let tk = seq.next_n(&mut tb, conn, t, Sge::new(scratch, 0, 8), 4096);
    println!("reserved 4 KB of log space at offset {} with one FAA", tk.value);
    assert_eq!(tk.value, 5);
    t = tk.at;

    // --- RPC baselines ------------------------------------------------------
    let rpc_lock = RpcLock::new();
    let a = rpc_lock.lock(&mut tb, conn, t);
    let b = rpc_lock.unlock(&mut tb, conn, a.at);
    println!("RPC lock cycle: {} (the server CPU is on the critical path)", b - t);
    let rpc_seq = RpcSequencer::new();
    let p = rpc_seq.next(&mut tb, conn, b);
    println!("RPC sequencer ticket {} in {}", p.value, p.at - b);

    println!("\nrun `repro fig10` for the full contention curves (1-16 threads).");
}
