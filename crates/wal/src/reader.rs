//! Byte-level WAL reader: one parser for the `[len: u32 LE][frame]` on-disk
//! format. [`crate::segment::SegmentReader`] is its caller, so every
//! consumer of segment bytes finds a torn tail identically.
//!
//! A *torn tail* is whatever trails the last intact record: a partial length
//! prefix, a frame cut short by the crash, or a frame whose bytes no longer
//! decode. [`LogReader::scan`] never fails — it returns the clean prefix plus
//! a description of the tail, and the caller decides whether a tail is an
//! expected crash artifact (recovery) or worth a finding (the linter).

use crate::record::LogRecord;
use obr_storage::Lsn;

/// Why the scan stopped before the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than four bytes remained: a partial length prefix.
    TruncatedLength,
    /// The length prefix promises more bytes than the input holds.
    TruncatedFrame,
    /// The frame bytes are complete but do not decode to a record.
    Undecodable,
}

/// The tail that follows the last intact record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the intact prefix ends (= where the tail starts).
    pub offset: u64,
    /// How the tail is broken.
    pub reason: TornReason,
}

/// Result of scanning a byte image of a WAL file.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Encoded frames of the intact prefix, in order.
    pub frames: Vec<Vec<u8>>,
    /// Decoded records of the intact prefix; `records[i]` has LSN
    /// `first_lsn + i` for whatever base LSN the caller assigns.
    pub records: Vec<LogRecord>,
    /// The torn tail, when the input does not end exactly at a record
    /// boundary.
    pub torn: Option<TornTail>,
    /// Byte length of the intact prefix (where a repairing caller should
    /// truncate the file).
    pub good_end: u64,
}

/// Stateless parser for the WAL's on-disk byte format.
pub struct LogReader;

impl LogReader {
    /// Scan `bytes`, returning every intact `[len][frame]` record and a
    /// description of any torn tail. Never panics and never fails: arbitrary
    /// byte truncation (or trailing garbage) yields a clean prefix.
    pub fn scan(bytes: &[u8]) -> ScanOutcome {
        let mut frames = Vec::new();
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut torn = None;
        loop {
            if pos == bytes.len() {
                break;
            }
            if pos + 4 > bytes.len() {
                torn = Some(TornTail {
                    offset: pos as u64,
                    reason: TornReason::TruncatedLength,
                });
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if pos + 4 + len > bytes.len() {
                torn = Some(TornTail {
                    offset: pos as u64,
                    reason: TornReason::TruncatedFrame,
                });
                break;
            }
            let frame = &bytes[pos + 4..pos + 4 + len];
            let Ok(rec) = LogRecord::decode(frame) else {
                torn = Some(TornTail {
                    offset: pos as u64,
                    reason: TornReason::Undecodable,
                });
                break;
            };
            frames.push(frame.to_vec());
            records.push(rec);
            pos += 4 + len;
        }
        ScanOutcome {
            good_end: if let Some(t) = &torn {
                t.offset
            } else {
                pos as u64
            },
            frames,
            records,
            torn,
        }
    }

    /// Encode `frames` back into the on-disk byte format. The inverse of
    /// [`Self::scan`] over an un-torn input.
    pub fn encode_frames<'a>(frames: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in frames {
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(frame);
        }
        out
    }

    /// The LSN of the last intact record when the first frame carries
    /// `first_lsn` (convenience for callers reasoning about prefixes).
    pub fn last_lsn(outcome: &ScanOutcome, first_lsn: Lsn) -> Lsn {
        if outcome.records.is_empty() {
            Lsn(first_lsn.0.saturating_sub(1))
        } else {
            Lsn(first_lsn.0 + outcome.records.len() as u64 - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxnId;

    fn sample_frames(n: u64) -> Vec<Vec<u8>> {
        (1..=n)
            .map(|i| LogRecord::TxnBegin { txn: TxnId(i) }.encode())
            .collect()
    }

    #[test]
    fn round_trips_clean_input() {
        let frames = sample_frames(5);
        let bytes = LogReader::encode_frames(frames.iter().map(Vec::as_slice));
        let out = LogReader::scan(&bytes);
        assert_eq!(out.frames, frames);
        assert_eq!(out.records.len(), 5);
        assert!(out.torn.is_none());
        assert_eq!(out.good_end, bytes.len() as u64);
    }

    #[test]
    fn every_byte_truncation_yields_a_clean_prefix() {
        let frames = sample_frames(4);
        let bytes = LogReader::encode_frames(frames.iter().map(Vec::as_slice));
        for cut in 0..bytes.len() {
            let out = LogReader::scan(&bytes[..cut]);
            // The intact prefix must match the original frames exactly.
            assert_eq!(out.frames, frames[..out.frames.len()].to_vec());
            // Either the cut landed on a boundary, or the tail is described.
            if out.torn.is_none() {
                assert_eq!(out.good_end, cut as u64);
            } else {
                assert!(out.good_end <= cut as u64);
            }
        }
    }

    #[test]
    fn garbage_tail_is_undecodable() {
        let frames = sample_frames(2);
        let mut bytes = LogReader::encode_frames(frames.iter().map(Vec::as_slice));
        // Append a well-framed but meaningless record.
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF]);
        let out = LogReader::scan(&bytes);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.torn.map(|t| t.reason), Some(TornReason::Undecodable));
    }

    #[test]
    fn last_lsn_tracks_prefix_length() {
        let frames = sample_frames(3);
        let bytes = LogReader::encode_frames(frames.iter().map(Vec::as_slice));
        let out = LogReader::scan(&bytes);
        assert_eq!(LogReader::last_lsn(&out, Lsn(1)), Lsn(3));
        let empty = LogReader::scan(&[]);
        assert_eq!(LogReader::last_lsn(&empty, Lsn(1)), Lsn(0));
    }
}
