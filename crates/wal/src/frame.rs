//! WAL frame layout and torn-tail-aware scanning.
//!
//! Each record travels in one self-checking frame:
//!
//! ```text
//! | len: u32 | lsn: u64 | kind: u8 | payload: len bytes | crc: u32 |
//! ```
//!
//! `len` is the payload length, `lsn` the frame's log sequence number
//! (strictly consecutive from 0), and `crc` a CRC32 over everything before
//! it (`len..payload`). A frame is accepted only if it is wholly present,
//! its CRC matches, and its LSN is the expected next one — anything else
//! marks the beginning of the *torn tail*: bytes a crash left behind that
//! recovery discards. Because frames are scanned strictly left-to-right and
//! the commit record is always the last frame of its transaction, a valid
//! prefix of the log is exactly a sequence of whole committed transactions
//! plus possibly one unfinished (uncommitted) transaction, which recovery
//! also discards.

use crate::record::WalRecord;
use iq_storage::crc32;

/// Fixed overhead of a frame around its payload: `len` + `lsn` + `kind`
/// before, CRC32 after.
pub const FRAME_OVERHEAD: usize = 4 + 8 + 1 + 4;

/// Encodes `record` with sequence number `lsn` into a frame, appending to
/// `out`.
pub fn encode_frame(out: &mut Vec<u8>, lsn: u64, record: &WalRecord) {
    let payload = record.encode_payload();
    let start = out.len();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.push(record.kind());
    out.extend_from_slice(&payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A frame successfully decoded during a scan.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The frame's log sequence number.
    pub lsn: u64,
    /// Byte offset of the frame's first byte in the log.
    pub offset: u64,
    /// The decoded record.
    pub record: WalRecord,
}

/// One committed transaction recovered from the log.
#[derive(Clone, Debug, PartialEq)]
pub struct CommittedTxn {
    /// The transaction number from its commit frame.
    pub txn: u64,
    /// The transaction's records, in log order, excluding the commit frame.
    pub records: Vec<WalRecord>,
}

/// The result of scanning a log image.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Whole committed transactions, in commit order.
    pub txns: Vec<CommittedTxn>,
    /// Frames that follow the last commit (an unfinished transaction).
    /// Recovery discards these, but reports them.
    pub uncommitted: Vec<Frame>,
    /// Byte length of the valid frame prefix (committed + uncommitted
    /// whole frames). The log should be truncated here on recovery.
    pub valid_len: u64,
    /// Byte length of the *committed* prefix — truncating here drops the
    /// unfinished transaction along with the torn tail.
    pub committed_len: u64,
    /// Bytes past `valid_len`: a torn frame or trailing garbage.
    pub torn_bytes: u64,
    /// Why the scan stopped before the end of the log, if it did.
    pub stop_reason: Option<String>,
    /// Total whole frames accepted (committed and uncommitted).
    pub frames: u64,
    /// LSN the next appended frame must carry.
    pub next_lsn: u64,
    /// Transaction number the next commit must carry.
    pub next_txn: u64,
    /// Highest checkpoint generation seen in a committed transaction.
    pub last_checkpoint_generation: Option<u64>,
}

/// Scans a log image, separating whole committed transactions from an
/// unfinished transaction and a torn tail. Never fails: corruption simply
/// shortens the valid prefix.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    let mut pos: usize = 0;
    let mut pending: Vec<Frame> = Vec::new();
    let mut expected_lsn: u64 = 0;

    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < FRAME_OVERHEAD {
            out.stop_reason = Some(format!(
                "short frame header at offset {pos}: {remaining} byte(s) left"
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if remaining < FRAME_OVERHEAD + len {
            out.stop_reason = Some(format!(
                "torn frame at offset {pos}: header claims {len}-byte payload, {} byte(s) left",
                remaining - FRAME_OVERHEAD
            ));
            break;
        }
        let body_end = pos + FRAME_OVERHEAD - 4 + len;
        let stored_crc = u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().unwrap());
        let computed = crc32(&bytes[pos..body_end]);
        if stored_crc != computed {
            out.stop_reason = Some(format!(
                "checksum mismatch at offset {pos}: stored {stored_crc:#010x}, computed {computed:#010x}"
            ));
            break;
        }
        let lsn = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        if lsn != expected_lsn {
            out.stop_reason = Some(format!(
                "lsn discontinuity at offset {pos}: found {lsn}, expected {expected_lsn}"
            ));
            break;
        }
        let kind = bytes[pos + 12];
        let record = match WalRecord::decode_payload(kind, &bytes[pos + 13..body_end]) {
            Ok(r) => r,
            Err(e) => {
                out.stop_reason = Some(format!("undecodable frame at offset {pos}: {e}"));
                break;
            }
        };

        out.frames += 1;
        expected_lsn = lsn + 1;
        let frame_end = (body_end + 4) as u64;

        if let WalRecord::Commit { txn } = record {
            out.txns.push(CommittedTxn {
                txn,
                records: pending.drain(..).map(|f| f.record).collect(),
            });
            out.next_txn = txn + 1;
            out.committed_len = frame_end;
            if let Some(g) = out
                .txns
                .last()
                .unwrap()
                .records
                .iter()
                .find_map(|r| match r {
                    WalRecord::Checkpoint { generation } => Some(*generation),
                    _ => None,
                })
            {
                out.last_checkpoint_generation = Some(g);
            }
        } else {
            pending.push(Frame {
                lsn,
                offset: pos as u64,
                record,
            });
        }
        pos = body_end + 4;
    }

    out.valid_len = pos as u64;
    out.torn_bytes = (bytes.len() - pos) as u64;
    out.next_lsn = expected_lsn;
    out.uncommitted = pending;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Level;

    fn txn_bytes(lsn0: u64, txn: u64, recs: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut lsn = lsn0;
        for r in recs {
            encode_frame(&mut out, lsn, r);
            lsn += 1;
        }
        encode_frame(&mut out, lsn, &WalRecord::Commit { txn });
        out
    }

    fn sample_txn(lsn0: u64, txn: u64) -> Vec<u8> {
        txn_bytes(
            lsn0,
            txn,
            &[
                WalRecord::Insert {
                    id: txn,
                    point: vec![1.0, 2.0],
                },
                WalRecord::PageWrite {
                    level: Level::Quant,
                    block: txn,
                    bytes: vec![txn as u8; 16],
                },
            ],
        )
    }

    #[test]
    fn crc_covers_len_through_payload() {
        // A page image large enough to reach the folded CRC path.
        let record = WalRecord::PageWrite {
            level: Level::Quant,
            block: 7,
            bytes: (0..8188u32).map(|i| (i * 31 + 5) as u8).collect(),
        };
        let mut frame = vec![0xEEu8; 3]; // bytes of an earlier frame
        encode_frame(&mut frame, 42, &record);
        let frame = &frame[3..];
        let crc_at = frame.len() - 4;
        let stored = u32::from_le_bytes(frame[crc_at..].try_into().unwrap());
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len + FRAME_OVERHEAD, frame.len());
        assert_eq!(stored, crc32(&frame[..crc_at]));
        // The length prefix is covered, not just `lsn | kind | payload`.
        assert_ne!(stored, crc32(&frame[4..crc_at]));
    }

    #[test]
    fn scan_recovers_committed_txns() {
        let mut log = sample_txn(0, 0);
        log.extend(sample_txn(3, 1));
        let s = scan(&log);
        assert_eq!(s.txns.len(), 2);
        assert_eq!(s.frames, 6);
        assert_eq!(s.valid_len, log.len() as u64);
        assert_eq!(s.committed_len, log.len() as u64);
        assert_eq!(s.torn_bytes, 0);
        assert_eq!(s.next_lsn, 6);
        assert_eq!(s.next_txn, 2);
        assert!(s.stop_reason.is_none());
        assert_eq!(s.txns[1].txn, 1);
        assert_eq!(s.txns[1].records.len(), 2);
    }

    #[test]
    fn torn_tail_at_every_byte_is_discarded_cleanly() {
        let mut log = sample_txn(0, 0);
        let committed = log.len();
        log.extend(sample_txn(3, 1));
        for cut in committed..log.len() {
            let s = scan(&log[..cut]);
            assert_eq!(s.txns.len(), 1, "cut at {cut}");
            assert_eq!(s.committed_len, committed as u64, "cut at {cut}");
            // Whatever survives past the committed prefix is either whole
            // uncommitted frames or reported torn bytes — never a txn.
            assert_eq!(
                s.valid_len + s.torn_bytes,
                cut as u64,
                "cut at {cut}: accounting must cover every byte"
            );
        }
    }

    #[test]
    fn bit_flip_anywhere_stops_the_scan_at_or_before_the_flip() {
        let mut log = sample_txn(0, 0);
        log.extend(sample_txn(3, 1));
        let clean = scan(&log);
        assert_eq!(clean.txns.len(), 2);
        for i in 0..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 0x40;
            let s = scan(&bad);
            // The flip may land in txn 0 or txn 1; either way nothing at or
            // after the flipped frame is trusted.
            assert!(s.txns.len() < 2 || s.valid_len == log.len() as u64);
            assert!(
                s.valid_len <= log.len() as u64,
                "flip at {i} must not extend the log"
            );
            if s.txns.len() == 2 {
                panic!("flip at byte {i} went undetected");
            }
        }
    }

    #[test]
    fn uncommitted_trailing_txn_is_reported_not_replayed() {
        let mut log = sample_txn(0, 0);
        encode_frame(
            &mut log,
            3,
            &WalRecord::Delete {
                id: 9,
                point: vec![0.0],
            },
        );
        let s = scan(&log);
        assert_eq!(s.txns.len(), 1);
        assert_eq!(s.uncommitted.len(), 1);
        assert_eq!(s.valid_len, log.len() as u64);
        assert!(s.committed_len < s.valid_len);
    }

    #[test]
    fn lsn_gap_is_a_torn_tail() {
        let mut log = sample_txn(0, 0);
        // Next frame skips an lsn.
        encode_frame(&mut log, 5, &WalRecord::Commit { txn: 1 });
        let s = scan(&log);
        assert_eq!(s.txns.len(), 1);
        assert!(s.stop_reason.unwrap().contains("lsn discontinuity"));
    }

    #[test]
    fn checkpoint_generation_is_tracked() {
        let mut log = txn_bytes(0, 0, &[WalRecord::Checkpoint { generation: 4 }]);
        log.extend(sample_txn(2, 1));
        let s = scan(&log);
        assert_eq!(s.last_checkpoint_generation, Some(4));
    }

    #[test]
    fn empty_log_scans_clean() {
        let s = scan(&[]);
        assert_eq!(s.txns.len(), 0);
        assert_eq!(s.valid_len, 0);
        assert_eq!(s.next_lsn, 0);
        assert!(s.stop_reason.is_none());
    }
}
