//! Property-style tests for the optimization library, driven by the
//! deterministic [`SimRng`] (fixed seeds; no external framework needed).

use cluster::{ClusterConfig, ConnId, Endpoint, Testbed};
use remem::{batched_write, Backoff, ConsolidationBuffer, RemoteDst, RemoteSequencer, Strategy};
use rnicsim::{MrId, RKey, Sge};
use simcore::{SimRng, SimTime};

fn setup() -> (Testbed, MrId, MrId, MrId, ConnId) {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 18);
    let staging = tb.register(0, 1, 1 << 18);
    let dst = tb.register(1, 1, 1 << 18);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    (tb, src, staging, dst, conn)
}

/// Every strategy moves identical bytes for arbitrary batch shapes.
#[test]
fn strategies_agree_on_data() {
    let mut meta = SimRng::new(0x2101);
    for _ in 0..16 {
        let lens: Vec<u64> = (0..1 + meta.gen_range(11)).map(|_| 1 + meta.gen_range(127)).collect();
        let seed = meta.next_u64();
        let mut images = Vec::new();
        for strategy in Strategy::ALL {
            let (mut tb, src, staging, dst, conn) = setup();
            let mut rng = SimRng::new(seed);
            let mut bufs = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                let off = i as u64 * 512 + rng.gen_range(64);
                let fill: Vec<u8> = (0..len).map(|b| (b as u8) ^ (i as u8) ^ 0x5A).collect();
                tb.machine_mut(0).mem.write(src, off, &fill);
                bufs.push(Sge::new(src, off, len));
            }
            let total: u64 = lens.iter().sum();
            batched_write(
                &mut tb,
                SimTime::ZERO,
                conn,
                strategy,
                &bufs,
                Some(staging),
                &RemoteDst::Contiguous(RKey(dst.0 as u64), 1000),
            );
            images.push(tb.machine(1).mem.read(dst, 1000, total));
        }
        assert_eq!(&images[0], &images[1]);
        assert_eq!(&images[1], &images[2]);
    }
}

/// Consolidation: exactly one threshold flush per θ same-block writes, and
/// the remote block equals the shadow after any flush.
#[test]
fn consolidation_counts_flushes() {
    let mut rng = SimRng::new(0x2102);
    for _ in 0..32 {
        let theta = 1 + rng.gen_range(11) as usize;
        let writes = 1 + rng.gen_range(59) as usize;
        let (mut tb, _src, shadow, dst, conn) = setup();
        let mut buf = ConsolidationBuffer::new(
            conn,
            shadow,
            RKey(dst.0 as u64),
            1024,
            theta,
            SimTime::from_ms(100),
        );
        let mut t = SimTime::ZERO;
        for i in 0..writes {
            if let Some(done) = buf.write(&mut tb, t, (i as u64 % 16) * 32, &[i as u8; 32]) {
                t = done;
            } else {
                t += SimTime::from_ns(10);
            }
        }
        let stats = buf.stats();
        assert_eq!(stats.absorbed, writes as u64);
        assert_eq!(stats.threshold_flushes, (writes / theta) as u64);
        assert_eq!(buf.dirty_blocks(), usize::from(!writes.is_multiple_of(theta)));
    }
}

/// Sequencer tickets partition the number line: next_n ranges are
/// disjoint, contiguous, and ordered.
#[test]
fn sequencer_ranges_tile() {
    let mut rng = SimRng::new(0x2103);
    for _ in 0..24 {
        let sizes: Vec<u64> = (0..1 + rng.gen_range(39)).map(|_| 1 + rng.gen_range(4999)).collect();
        let (mut tb, src, _staging, dst, conn) = setup();
        let seq = RemoteSequencer { rkey: RKey(dst.0 as u64), offset: 0 };
        let mut t = SimTime::ZERO;
        let mut expect = 0u64;
        for &n in &sizes {
            let ticket = seq.next_n(&mut tb, conn, t, Sge::new(src, 0, 8), n);
            assert_eq!(ticket.value, expect);
            expect += n;
            t = ticket.at;
        }
        assert_eq!(tb.machine(1).mem.load_u64(MrId(0), 0), expect);
    }
}

/// Backoff delays are bounded by max + jitter and non-decreasing in
/// attempt (up to the cap).
#[test]
fn backoff_bounded() {
    let mut meta = SimRng::new(0x2105);
    for _ in 0..64 {
        let base_ns = 1 + meta.gen_range(9_999);
        let cap_us = 1 + meta.gen_range(99);
        let attempt = meta.gen_range(40) as u32;
        let b = Backoff { base: SimTime::from_ns(base_ns), max: SimTime::from_us(cap_us) };
        let mut rng = SimRng::new(meta.next_u64());
        let d = b.delay(attempt, &mut rng);
        let cap = SimTime::from_us(cap_us);
        assert!(d <= cap + cap / 4, "delay {} over cap {}", d, cap);
        assert!(d >= b.base.min(cap));
    }
}
