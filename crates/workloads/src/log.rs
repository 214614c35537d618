//! Transaction records for the distributed log (§IV-E).
//!
//! Each transaction engine appends fixed-format records to a global log:
//! `[engine u32 | seq u32 | len u32 | crc u32 | body]`. The header makes
//! records self-describing so a recovery scan can verify the log is an
//! append-only, gap-free, totally ordered sequence.

/// Header size in bytes.
pub const HEADER_BYTES: usize = 16;

/// One transaction record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Producing transaction engine.
    pub engine: u32,
    /// Per-engine sequence number.
    pub seq: u32,
    /// Record body.
    pub body: Vec<u8>,
}

impl Record {
    /// A record with a deterministic body derived from (engine, seq).
    pub fn synthetic(engine: u32, seq: u32, body_len: usize) -> Record {
        let mut body = Vec::with_capacity(body_len);
        let seed =
            ((engine as u64) << 32 | seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
        while body.len() < body_len {
            body.extend_from_slice(&seed);
        }
        body.truncate(body_len);
        Record { engine, seq, body }
    }

    /// Total encoded size.
    pub fn encoded_len(&self) -> u64 {
        (HEADER_BYTES + self.body.len()) as u64
    }

    /// Serialize with header + checksum. The CRC covers the first 12
    /// header bytes *and* the body, so an all-zero slot (unwritten log
    /// space) never validates — `crc32` of 12 zero bytes is nonzero.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&self.engine.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        let mut covered = out.clone();
        covered.extend_from_slice(&self.body);
        out.extend_from_slice(&crc32(&covered).to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse a record at the head of `bytes`; returns the record and the
    /// bytes consumed, or `None` if the header/CRC is invalid (torn or
    /// unwritten space).
    pub fn decode(bytes: &[u8]) -> Option<(Record, usize)> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let engine = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
        let seq = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
        let len = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
        if bytes.len() < HEADER_BYTES + len {
            return None;
        }
        let body = &bytes[HEADER_BYTES..HEADER_BYTES + len];
        let mut covered = bytes[..12].to_vec();
        covered.extend_from_slice(body);
        if crc32(&covered) != crc {
            return None;
        }
        Some((Record { engine, seq, body: body.to_vec() }, HEADER_BYTES + len))
    }
}

/// Scan a log prefix: yields records in log order until the first
/// invalid slot. Lazy, so a verifier can count records without holding
/// them; callers that need the records `collect` them.
pub fn scan(log: &[u8]) -> impl Iterator<Item = Record> + '_ {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        // An all-zero slot fails the header-covering CRC, so unwritten
        // space terminates the scan naturally, as does the log's end.
        let (rec, used) = Record::decode(&log[off..])?;
        off += used;
        Some(rec)
    })
}

/// Small table-free CRC-32 (IEEE), enough to catch torn writes.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let r = Record::synthetic(3, 17, 48);
        let bytes = r.encode();
        assert_eq!(bytes.len() as u64, r.encoded_len());
        let (back, used) = Record::decode(&bytes).expect("valid");
        assert_eq!(back, r);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn corruption_is_detected() {
        let r = Record::synthetic(1, 2, 32);
        let mut bytes = r.encode();
        bytes[HEADER_BYTES + 5] ^= 0xFF;
        assert!(Record::decode(&bytes).is_none());
    }

    #[test]
    fn truncated_records_are_rejected() {
        let r = Record::synthetic(1, 2, 32);
        let bytes = r.encode();
        assert!(Record::decode(&bytes[..10]).is_none());
        assert!(Record::decode(&bytes[..HEADER_BYTES + 10]).is_none());
    }

    #[test]
    fn scan_recovers_a_packed_log() {
        let mut log = Vec::new();
        for seq in 0..10 {
            log.extend_from_slice(&Record::synthetic(2, seq, 24).encode());
        }
        log.extend_from_slice(&[0u8; 256]); // unwritten tail
        let recs: Vec<Record> = scan(&log).collect();
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().enumerate().all(|(i, r)| r.seq == i as u32));
    }

    #[test]
    fn zeroed_space_never_decodes() {
        // scan() relies on this to stop at unwritten log space.
        assert!(Record::decode(&[0u8; 64]).is_none());
        assert_ne!(crc32(&[0u8; 12]), 0);
    }

    #[test]
    fn synthetic_bodies_are_deterministic() {
        assert_eq!(Record::synthetic(1, 1, 64), Record::synthetic(1, 1, 64));
        assert_ne!(Record::synthetic(1, 2, 64), Record::synthetic(1, 1, 64));
    }
}
