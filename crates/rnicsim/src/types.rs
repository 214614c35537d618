//! Verb-level types: work requests, scatter/gather entries, completions.
//!
//! These mirror the `ibverbs` structures the paper's benchmarks are
//! written against, reduced to what the cost model and the simulated
//! memory system need.

use simcore::SimTime;

/// Queue pair number, unique per machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpNum(pub u32);

/// Memory region id, unique per machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrId(pub u32);

/// Remote protection key handed out at registration; needed by one-sided
/// verbs to touch a remote MR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RKey(pub u64);

/// Caller-chosen work-request identifier, echoed in the completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WrId(pub u64);

/// One scatter/gather element: a span inside a registered region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sge {
    /// Source (or destination) memory region.
    pub mr: MrId,
    /// Byte offset inside the region.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Sge {
    /// Convenience constructor.
    pub fn new(mr: MrId, offset: u64, len: u64) -> Self {
        Sge { mr, offset, len }
    }
}

/// SGEs a work request carries without heap allocation. Real WQEs embed
/// a handful of SGEs inline for the same reason; longer lists spill.
pub const INLINE_SGES: usize = 4;

/// A scatter/gather list that stores up to [`INLINE_SGES`] entries
/// inline. The post→complete path never heap-allocates for the short
/// SGLs that dominate every benchmark; longer lists fall back to a `Vec`
/// transparently.
#[derive(Clone, Debug, Default)]
pub struct InlineSgl {
    inline: [Sge; INLINE_SGES],
    len: u8,
    /// Non-empty iff the list spilled; then it holds *all* entries and
    /// the inline array is ignored.
    spill: Vec<Sge>,
}

impl InlineSgl {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry, spilling to the heap past [`INLINE_SGES`].
    pub fn push(&mut self, sge: Sge) {
        if !self.spill.is_empty() {
            self.spill.push(sge);
        } else if (self.len as usize) < INLINE_SGES {
            self.inline[self.len as usize] = sge;
            self.len += 1;
        } else {
            self.spill.reserve(INLINE_SGES + 1);
            self.spill.extend_from_slice(&self.inline[..self.len as usize]);
            self.spill.push(sge);
        }
    }

    /// The entries as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[Sge] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Whether the list overflowed onto the heap. Short lists (≤
    /// [`INLINE_SGES`] entries) never do — the zero-allocation invariant
    /// the bench hot paths rely on.
    pub fn spilled(&self) -> bool {
        !self.spill.is_empty()
    }
}

impl std::ops::Deref for InlineSgl {
    type Target = [Sge];
    fn deref(&self) -> &[Sge] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a InlineSgl {
    type Item = &'a Sge;
    type IntoIter = std::slice::Iter<'a, Sge>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for InlineSgl {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for InlineSgl {}

impl From<Sge> for InlineSgl {
    fn from(sge: Sge) -> Self {
        InlineSgl::from(std::slice::from_ref(&sge))
    }
}

impl From<&[Sge]> for InlineSgl {
    fn from(sges: &[Sge]) -> Self {
        if sges.len() > INLINE_SGES {
            return InlineSgl { inline: Default::default(), len: 0, spill: sges.to_vec() };
        }
        let mut inline = [Sge::default(); INLINE_SGES];
        inline[..sges.len()].copy_from_slice(sges);
        InlineSgl { inline, len: sges.len() as u8, spill: Vec::new() }
    }
}

impl<const N: usize> From<[Sge; N]> for InlineSgl {
    fn from(sges: [Sge; N]) -> Self {
        InlineSgl::from(&sges[..])
    }
}

impl From<Vec<Sge>> for InlineSgl {
    fn from(sges: Vec<Sge>) -> Self {
        if sges.len() > INLINE_SGES {
            // Keep the existing allocation as the spill storage.
            InlineSgl { inline: Default::default(), len: 0, spill: sges }
        } else {
            InlineSgl::from(&sges[..])
        }
    }
}

impl FromIterator<Sge> for InlineSgl {
    fn from_iter<I: IntoIterator<Item = Sge>>(iter: I) -> Self {
        let mut s = InlineSgl::new();
        for sge in iter {
            s.push(sge);
        }
        s
    }
}

/// The one-sided and two-sided operations the paper exercises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerbKind {
    /// One-sided write of the local SGL to contiguous remote memory.
    Write,
    /// One-sided read of contiguous remote memory into the local SGL.
    Read,
    /// 8-byte compare-and-swap at a remote address.
    CompareSwap {
        /// Value the remote location must hold for the swap to happen.
        expected: u64,
        /// Value written on success.
        desired: u64,
    },
    /// 8-byte fetch-and-add at a remote address.
    FetchAdd {
        /// Addend.
        delta: u64,
    },
    /// Two-sided send (channel semantics; pairs with a posted recv).
    Send,
}

impl VerbKind {
    /// Whether this verb is a memory-semantic (one-sided) operation.
    pub fn is_one_sided(&self) -> bool {
        !matches!(self, VerbKind::Send)
    }

    /// Whether this verb is an RDMA atomic.
    pub fn is_atomic(&self) -> bool {
        matches!(self, VerbKind::CompareSwap { .. } | VerbKind::FetchAdd { .. })
    }
}

/// A work request as posted to a send queue.
#[derive(Clone, Debug)]
pub struct WorkRequest {
    /// Caller-chosen id, echoed in the CQE.
    pub wr_id: WrId,
    /// Operation.
    pub kind: VerbKind,
    /// Local scatter/gather list (source for Write/Send, destination for
    /// Read, result buffer for atomics). Up to [`INLINE_SGES`] entries
    /// live inline in the request — no heap allocation.
    pub sgl: InlineSgl,
    /// Remote target: region and offset (ignored for Send).
    pub remote: Option<(RKey, u64)>,
    /// Whether a CQE should be generated (selective signaling).
    pub signaled: bool,
}

impl WorkRequest {
    /// Total payload bytes across the SGL.
    pub fn payload_bytes(&self) -> u64 {
        match &self.kind {
            // Atomics always move exactly 8 bytes.
            VerbKind::CompareSwap { .. } | VerbKind::FetchAdd { .. } => 8,
            _ => self.sgl.iter().map(|s| s.len).sum(),
        }
    }

    /// Shorthand for a single-SGE signaled write.
    pub fn write(wr_id: u64, local: Sge, rkey: RKey, remote_offset: u64) -> Self {
        WorkRequest {
            wr_id: WrId(wr_id),
            kind: VerbKind::Write,
            sgl: local.into(),
            remote: Some((rkey, remote_offset)),
            signaled: true,
        }
    }

    /// Shorthand for a single-SGE signaled read.
    pub fn read(wr_id: u64, local: Sge, rkey: RKey, remote_offset: u64) -> Self {
        WorkRequest {
            wr_id: WrId(wr_id),
            kind: VerbKind::Read,
            sgl: local.into(),
            remote: Some((rkey, remote_offset)),
            signaled: true,
        }
    }
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeStatus {
    /// Operation completed.
    Success,
    /// Remote access fault (bad rkey / out of bounds).
    RemoteAccessError,
    /// Local SGL fault.
    LocalProtectionError,
    /// Atomic target not 8-byte aligned. Real RNICs fault misaligned
    /// CAS/FAA; the simulator refuses them too so that programs passing
    /// in simulation cannot corrupt on hardware (§III-E).
    MisalignedAtomic,
}

/// A completion queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Echo of the work request id.
    pub wr_id: WrId,
    /// Completion status.
    pub status: CqeStatus,
    /// Virtual time at which the CQE became visible to the poller.
    pub at: SimTime,
    /// For atomics: the value the remote location held *before* the
    /// operation (RDMA atomics always return the original value).
    pub old_value: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_bytes_sums_sgl() {
        let wr = WorkRequest {
            wr_id: WrId(1),
            kind: VerbKind::Write,
            sgl: [Sge::new(MrId(0), 0, 32), Sge::new(MrId(0), 100, 32)].into(),
            remote: Some((RKey(9), 0)),
            signaled: true,
        };
        assert_eq!(wr.payload_bytes(), 64);
    }

    #[test]
    fn atomics_are_8_bytes_regardless_of_sgl() {
        let wr = WorkRequest {
            wr_id: WrId(1),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(MrId(0), 0, 8).into(),
            remote: Some((RKey(9), 0)),
            signaled: true,
        };
        assert_eq!(wr.payload_bytes(), 8);
        assert!(wr.kind.is_atomic());
        assert!(wr.kind.is_one_sided());
    }

    #[test]
    fn send_is_two_sided() {
        assert!(!VerbKind::Send.is_one_sided());
        assert!(!VerbKind::Send.is_atomic());
        assert!(VerbKind::Write.is_one_sided());
    }

    #[test]
    fn shorthand_constructors() {
        let w = WorkRequest::write(7, Sge::new(MrId(1), 0, 64), RKey(3), 128);
        assert_eq!(w.wr_id, WrId(7));
        assert_eq!(w.kind, VerbKind::Write);
        assert_eq!(w.remote, Some((RKey(3), 128)));
        let r = WorkRequest::read(8, Sge::new(MrId(1), 0, 64), RKey(3), 0);
        assert_eq!(r.kind, VerbKind::Read);
    }

    #[test]
    fn inline_sgl_stays_on_stack_up_to_four_entries() {
        let mut sgl = InlineSgl::new();
        for i in 0..INLINE_SGES {
            sgl.push(Sge::new(MrId(0), i as u64 * 8, 8));
            assert!(!sgl.spilled(), "{} entries must not heap-allocate", i + 1);
        }
        assert_eq!(sgl.len(), INLINE_SGES);
        // The fifth entry spills — and keeps every entry, in order.
        sgl.push(Sge::new(MrId(0), 999, 8));
        assert!(sgl.spilled());
        assert_eq!(sgl.len(), INLINE_SGES + 1);
        let offsets: Vec<u64> = sgl.iter().map(|s| s.offset).collect();
        assert_eq!(offsets, vec![0, 8, 16, 24, 999]);
    }

    #[test]
    fn push_at_exactly_inline_sges_fills_without_spilling() {
        // The boundary itself: the INLINE_SGES-th push lands in the last
        // inline slot, not the heap.
        let mut sgl = InlineSgl::new();
        for i in 0..INLINE_SGES {
            sgl.push(Sge::new(MrId(0), i as u64 * 16, 16));
        }
        assert_eq!(sgl.len(), INLINE_SGES);
        assert!(!sgl.spilled());
        assert_eq!(sgl.as_slice().last().unwrap().offset, (INLINE_SGES as u64 - 1) * 16);
    }

    #[test]
    fn clone_then_push_of_a_spilled_list_keeps_both_independent() {
        let mut sgl: InlineSgl =
            (0..INLINE_SGES as u64 + 1).map(|i| Sge::new(MrId(1), i * 8, 8)).collect();
        assert!(sgl.spilled());
        let mut cloned = sgl.clone();
        assert!(cloned.spilled());
        assert_eq!(cloned.as_slice(), sgl.as_slice());
        // Pushing to the clone must not affect the original (and vice
        // versa): the spill Vec is deep-cloned, not shared.
        cloned.push(Sge::new(MrId(1), 777, 8));
        assert_eq!(cloned.len(), INLINE_SGES + 2);
        assert_eq!(sgl.len(), INLINE_SGES + 1);
        sgl.push(Sge::new(MrId(1), 888, 8));
        assert_eq!(cloned.as_slice().last().unwrap().offset, 777);
        assert_eq!(sgl.as_slice().last().unwrap().offset, 888);
    }

    #[test]
    fn payload_bytes_is_continuous_across_the_spill() {
        // Summing must not change when the SGL crosses from inline to
        // spilled storage: entry i has length i+1, so after n pushes the
        // payload is n(n+1)/2.
        let mut wr = WorkRequest {
            wr_id: WrId(1),
            kind: VerbKind::Write,
            sgl: InlineSgl::new(),
            remote: Some((RKey(0), 0)),
            signaled: true,
        };
        for i in 0..(INLINE_SGES as u64 + 3) {
            wr.sgl.push(Sge::new(MrId(0), i * 64, i + 1));
            let n = i + 1;
            assert_eq!(wr.payload_bytes(), n * (n + 1) / 2, "after {n} pushes");
        }
        assert!(wr.sgl.spilled());
    }

    #[test]
    fn inline_sgl_conversions_agree() {
        let a = Sge::new(MrId(1), 0, 16);
        let b = Sge::new(MrId(1), 16, 16);
        let from_one = InlineSgl::from(a);
        assert_eq!(from_one.as_slice(), &[a]);
        assert!(!from_one.spilled());
        let from_arr = InlineSgl::from([a, b]);
        let from_slice = InlineSgl::from(&[a, b][..]);
        let from_vec = InlineSgl::from(vec![a, b]);
        let from_iter: InlineSgl = [a, b].into_iter().collect();
        assert_eq!(from_arr, from_slice);
        assert_eq!(from_arr, from_vec);
        assert_eq!(from_arr, from_iter);
        assert!(!from_vec.spilled(), "short Vec converts back to inline storage");
        let long: Vec<Sge> = (0..6).map(|i| Sge::new(MrId(2), i * 8, 8)).collect();
        let spilled = InlineSgl::from(long.clone());
        assert!(spilled.spilled());
        assert_eq!(spilled.as_slice(), &long[..]);
    }
}
