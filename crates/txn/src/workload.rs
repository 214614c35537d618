//! Txn-backed request profiles for the four case-study apps.
//!
//! Each profile maps one case-study app onto the transactional table —
//! the apps become *clients of the one service* instead of hand-rolling
//! their own remote access discipline:
//!
//! * **hashtable** — point ops: half read-modify-write (insert/update as
//!   a counter bump), half read-only (search).
//! * **shuffle** — blind puts: each arrival overwrites a record with a
//!   fresh payload (no read set; the lock alone orders writers).
//! * **join** — read-only multi-probes: two records per transaction,
//!   validated as one consistent snapshot.
//! * **dlog** — shared-tail append: every transaction bumps the same hot
//!   record's counter — maximal write conflict by construction.
//!
//! # Conflict geometry
//!
//! The table is split into a shared **hot set** (the first `hot` records)
//! and per-tenant private partitions of the remainder. Each op targets
//! the hot set with probability `conflict` — the conflict-rate knob of
//! the contention sweeps. Dlog ignores the knob: its whole point is the
//! shared tail.

use crate::protocol::{TxnRequest, TxnWrite, WriteOp};
use crate::table::RecId;
use simcore::SimRng;

/// Which case-study app shape a tenant issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnProfile {
    /// 50/50 point RMW / point read.
    Hashtable,
    /// Blind single-record puts.
    Shuffle,
    /// Two-record read-only snapshots.
    Join,
    /// Shared-tail counter bumps.
    Dlog,
}

impl TxnProfile {
    /// All four profiles, in canonical order.
    pub fn all() -> [TxnProfile; 4] {
        [TxnProfile::Hashtable, TxnProfile::Shuffle, TxnProfile::Join, TxnProfile::Dlog]
    }

    /// Stable lowercase name (used in experiment ids and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            TxnProfile::Hashtable => "hashtable",
            TxnProfile::Shuffle => "shuffle",
            TxnProfile::Join => "join",
            TxnProfile::Dlog => "dlog",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<TxnProfile> {
        Self::all().into_iter().find(|p| p.name() == s)
    }

    /// Largest read set any request of this profile carries.
    pub fn cap_reads(&self) -> usize {
        match self {
            TxnProfile::Join => 2,
            _ => 1,
        }
    }
}

/// The conflict geometry of one table shared by N tenants.
#[derive(Clone, Copy, Debug)]
pub struct ConflictGeometry {
    /// Total records in the table.
    pub records: u64,
    /// Shared hot records (the first `hot` of the table).
    pub hot: u64,
    /// Probability an op targets the hot set instead of the tenant's
    /// private partition.
    pub conflict: f64,
    /// Tenant count (sizes the private partitions).
    pub tenants: usize,
}

impl ConflictGeometry {
    /// Draw a target record for `tenant`.
    pub fn pick(&self, tenant: usize, rng: &mut SimRng) -> RecId {
        debug_assert!(tenant < self.tenants);
        debug_assert!(self.hot < self.records);
        if self.conflict > 0.0 && rng.gen_bool(self.conflict) {
            rng.gen_range(self.hot.max(1))
        } else {
            // Tenant-private slice of the cold records.
            let cold = self.records - self.hot;
            let per = (cold / self.tenants as u64).max(1);
            let base = self.hot + tenant as u64 * per;
            let span = per.min(self.records - base);
            base + rng.gen_range(span.max(1))
        }
    }
}

/// Draw one request of `profile` shape for `tenant`.
pub fn gen_request(
    profile: TxnProfile,
    geo: &ConflictGeometry,
    tenant: usize,
    rng: &mut SimRng,
) -> TxnRequest {
    match profile {
        TxnProfile::Hashtable => {
            let rec = geo.pick(tenant, rng);
            if rng.gen_bool(0.5) {
                TxnRequest::rmw(rec, 1)
            } else {
                TxnRequest::read_only(&[rec])
            }
        }
        TxnProfile::Shuffle => {
            let rec = geo.pick(tenant, rng);
            let seed = rng.gen_range(u64::MAX);
            TxnRequest::new(&[], &[TxnWrite { rec, op: WriteOp::Put(seed) }])
        }
        TxnProfile::Join => {
            let a = geo.pick(tenant, rng);
            let mut b = geo.pick(tenant, rng);
            if b == a {
                b = (a + 1) % geo.records;
            }
            TxnRequest::read_only(&[a, b])
        }
        TxnProfile::Dlog => {
            // The shared tail: always record 0, always a bump.
            TxnRequest::rmw(0, 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_partitions_are_disjoint() {
        let geo = ConflictGeometry { records: 1024, hot: 16, conflict: 0.0, tenants: 4 };
        let mut rng = SimRng::new(7);
        for t in 0..4 {
            let per = (1024 - 16) / 4;
            let lo = 16 + t as u64 * per;
            for _ in 0..200 {
                let r = geo.pick(t, &mut rng);
                assert!(
                    r >= lo && r < lo + per,
                    "tenant {t} drew {r} outside [{lo}, {})",
                    lo + per
                );
            }
        }
    }

    #[test]
    fn full_conflict_stays_hot() {
        let geo = ConflictGeometry { records: 1024, hot: 8, conflict: 1.0, tenants: 2 };
        let mut rng = SimRng::new(8);
        for _ in 0..200 {
            assert!(geo.pick(1, &mut rng) < 8);
        }
    }

    #[test]
    fn profiles_shape_requests() {
        let geo = ConflictGeometry { records: 256, hot: 8, conflict: 0.2, tenants: 2 };
        let mut rng = SimRng::new(9);
        let dlog = gen_request(TxnProfile::Dlog, &geo, 0, &mut rng);
        assert_eq!(dlog.reads(), &[0]);
        assert_eq!(dlog.writes().len(), 1);
        let join = gen_request(TxnProfile::Join, &geo, 0, &mut rng);
        assert_eq!(join.reads().len(), 2);
        assert!(join.writes().is_empty());
        let shuffle = gen_request(TxnProfile::Shuffle, &geo, 1, &mut rng);
        assert!(shuffle.reads().is_empty());
        assert_eq!(shuffle.writes().len(), 1);
    }
}
