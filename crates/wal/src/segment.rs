//! Segment naming and directory layout for the segmented WAL.
//!
//! A segmented log is a directory of files `wal-<first-lsn>.seg`, each
//! holding a contiguous run of `[len: u32 LE][frame]` records (parsed by
//! [`crate::reader`]). The file name carries the LSN of its first record, zero-padded so
//! lexicographic order equals LSN order. Exactly one segment — the one with
//! the highest first-LSN — is *active* (still being appended to); every
//! other segment is *sealed* and immutable.
//!
//! Invariants the layout maintains:
//!
//! * **Contiguity** — segment `k+1`'s first LSN equals segment `k`'s first
//!   LSN plus the number of records segment `k` holds. A gap means a
//!   recycle deleted a segment out of order (oldest-first deletion makes
//!   that impossible short of external interference) and is reported as
//!   corruption, never silently skipped.
//! * **Sealed segments end clean** — a seal happens only after the batch
//!   that crossed the size threshold is fully written and fsynced, so a
//!   torn record inside a sealed segment is a checker error, not a crash
//!   artifact. Torn-tail truncation applies to the active segment only.
//! * **Recycling is a suffix operation on the directory** — segments are
//!   deleted oldest-first, so a crash mid-recycle leaves a contiguous run
//!   of survivors.
//!
//! [`SegmentReader`] checks them for every reader of segment bytes — the
//! log's reopen, the WAL linter, a replica — each deciding what to do with
//! a [`SegmentFault`].

use std::fmt;
use std::path::{Path, PathBuf};

use obr_storage::Lsn;

use crate::reader::{LogReader, ScanOutcome, TornTail};
use crate::record::LogRecord;

/// File-name prefix of every segment file.
pub const SEGMENT_PREFIX: &str = "wal-";
/// File-name extension of every segment file.
pub const SEGMENT_EXT: &str = "seg";
/// Zero-padded width of the first-LSN component (u64 decimal maximum).
const LSN_WIDTH: usize = 20;

/// The file name of the segment whose first record has `first_lsn`.
pub fn segment_file_name(first_lsn: Lsn) -> String {
    format!("{SEGMENT_PREFIX}{:0LSN_WIDTH$}.{SEGMENT_EXT}", first_lsn.0)
}

/// Parse a segment file name back to its first LSN. Returns `None` for
/// anything that is not a well-formed segment name.
pub fn parse_segment_name(name: &str) -> Option<Lsn> {
    let stem = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if stem.len() != LSN_WIDTH || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse::<u64>().ok().map(Lsn)
}

/// List the segment files in `dir`, sorted by first LSN. Non-segment
/// files are ignored. Returns an empty vec for an empty (or absent) dir.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(Lsn, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(lsn) = parse_segment_name(name) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_by_key(|(lsn, _)| *lsn);
    Ok(out)
}

/// Best-effort fsync of a directory so freshly created/deleted segment
/// files survive a crash. Ignored on platforms where directories cannot
/// be opened for sync.
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// One entry of a [`crate::LogManager`] segment catalog: the shippable
/// description of a segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// LSN of the segment's first record.
    pub first_lsn: Lsn,
    /// LSN of the segment's last *durable* record (`first_lsn - 1` when the
    /// segment holds none, i.e. a freshly created active segment).
    pub end_lsn: Lsn,
    /// Path of the backing file.
    pub path: PathBuf,
    /// True for immutable (shippable) segments; false for the one active
    /// segment still receiving appends.
    pub sealed: bool,
}

/// A segment that breaks one of the layout invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFault {
    /// The segment starts at `found`, not at `expected` (one past the
    /// previous segment's last record): a segment was lost or misnamed.
    Gap {
        /// Where the segment should start.
        expected: Lsn,
        /// Where it does.
        found: Lsn,
    },
    /// The segment ends mid-frame after the record at `last_intact`. On a
    /// sealed segment this is corruption (seals follow a completed fsync);
    /// on the active one it is the write a crash interrupted.
    Torn {
        /// Whether the segment is sealed.
        sealed: bool,
        /// LSN of the last intact record.
        last_intact: Lsn,
        /// Where and how the segment tears.
        tail: TornTail,
    },
    /// The sealed segment starting at this LSN holds no complete record.
    EmptySealed(Lsn),
}

impl fmt::Display for SegmentFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentFault::Gap { expected, found } => write!(
                f,
                "WAL segment gap: a segment starts at LSN {found}, not at LSN {expected}"
            ),
            SegmentFault::Torn {
                sealed,
                last_intact,
                tail,
            } => write!(
                f,
                "{} WAL segment is torn ({:?}) at byte {} after LSN {last_intact}",
                if *sealed { "sealed" } else { "active" },
                tail.reason,
                tail.offset
            ),
            SegmentFault::EmptySealed(first) => write!(f, "sealed segment at LSN {first} is empty"),
        }
    }
}

/// Reads a run of segments in LSN order: parses each with
/// [`LogReader::scan`], numbers its records, and reports every layout
/// invariant it breaks as a [`SegmentFault`], carrying on from where each
/// segment actually ends. What to do about a fault is the caller's business.
#[derive(Debug, Default)]
pub struct SegmentReader {
    /// First LSN the next segment must carry; `None` before the first.
    next: Option<Lsn>,
}

impl SegmentReader {
    /// Read the next segment: it starts at `first_lsn`, holds `bytes`, and
    /// is `sealed` unless it is the active segment.
    pub fn read(&mut self, first_lsn: Lsn, sealed: bool, bytes: &[u8]) -> SegmentRead {
        let scan = LogReader::scan(bytes);
        let last_intact = LogReader::last_lsn(&scan, first_lsn);
        let mut faults = Vec::new();
        if let Some(expected) = self.next.filter(|&e| e != first_lsn) {
            let found = first_lsn;
            faults.push(SegmentFault::Gap { expected, found });
        }
        if let Some(tail) = scan.torn {
            faults.push(SegmentFault::Torn {
                sealed,
                last_intact,
                tail,
            });
        }
        if sealed && scan.records.is_empty() {
            faults.push(SegmentFault::EmptySealed(first_lsn));
        }
        self.next = Some(last_intact.next());
        SegmentRead {
            first_lsn,
            scan,
            faults,
        }
    }
}

/// One segment as [`SegmentReader::read`] saw it.
#[derive(Debug)]
pub struct SegmentRead {
    /// LSN of the segment's first record.
    pub first_lsn: Lsn,
    /// The intact prefix.
    pub scan: ScanOutcome,
    /// Every invariant the segment breaks, in the order checked.
    pub faults: Vec<SegmentFault>,
}

impl SegmentRead {
    /// The first fault that is corruption: anything but a torn active tail.
    pub fn corruption(&self) -> Option<&SegmentFault> {
        self.faults
            .iter()
            .find(|f| !matches!(f, SegmentFault::Torn { sealed: false, .. }))
    }

    /// The intact records, each paired with its LSN.
    pub fn into_records(self) -> impl Iterator<Item = (Lsn, LogRecord)> {
        let lsns = (self.first_lsn.0..).map(Lsn);
        lsns.zip(self.scan.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sort_numerically() {
        let names: Vec<String> = [1u64, 9, 10, 150, u64::MAX]
            .iter()
            .map(|&n| segment_file_name(Lsn(n)))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names, "lexicographic order must equal LSN order");
        for (i, &n) in [1u64, 9, 10, 150, u64::MAX].iter().enumerate() {
            assert_eq!(parse_segment_name(&names[i]), Some(Lsn(n)));
        }
    }

    #[test]
    fn parse_rejects_foreign_names() {
        assert_eq!(parse_segment_name("wal.log"), None);
        assert_eq!(parse_segment_name("wal-12.seg"), None, "unpadded");
        assert_eq!(parse_segment_name("wal-0000000000000000000x.seg"), None);
        assert_eq!(parse_segment_name("seg-00000000000000000001.wal"), None);
    }

    #[test]
    fn list_skips_non_segments_and_sorts() {
        let dir = std::env::temp_dir().join(format!("obr-seg-list-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for lsn in [30u64, 1, 7] {
            std::fs::write(dir.join(segment_file_name(Lsn(lsn))), b"").unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();
        let got = list_segments(&dir).unwrap();
        let lsns: Vec<u64> = got.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lsns, vec![1, 7, 30]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_of_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("obr-seg-definitely-missing");
        assert!(list_segments(&dir).unwrap().is_empty());
    }

    fn bytes(lsns: std::ops::Range<u64>) -> Vec<u8> {
        let frames: Vec<Vec<u8>> = lsns
            .map(|t| {
                LogRecord::TxnCommit {
                    txn: crate::TxnId(t),
                }
                .encode()
            })
            .collect();
        LogReader::encode_frames(frames.iter().map(Vec::as_slice))
    }

    #[test]
    fn reader_numbers_records_and_types_every_fault() {
        let mut reader = SegmentReader::default();
        let seg = reader.read(Lsn(1), true, &bytes(1..4));
        assert!(seg.faults.is_empty());
        let lsns: Vec<u64> = seg.into_records().map(|(l, _)| l.0).collect();
        assert_eq!(lsns, vec![1, 2, 3]);

        // Starts past LSN 4: a gap; torn and sealed: corruption.
        let mut torn = bytes(6..9);
        torn.truncate(torn.len() - 2);
        let seg = reader.read(Lsn(6), true, &torn);
        assert_eq!(
            seg.faults[0],
            SegmentFault::Gap {
                expected: Lsn(4),
                found: Lsn(6)
            }
        );
        assert!(matches!(
            seg.faults[1],
            SegmentFault::Torn {
                sealed: true,
                last_intact: Lsn(7),
                ..
            }
        ));
        assert_eq!(seg.corruption(), Some(&seg.faults[0]));

        // Resynchronized on LSN 8; an empty sealed segment there.
        let seg = reader.read(Lsn(8), true, &[]);
        assert_eq!(seg.faults, vec![SegmentFault::EmptySealed(Lsn(8))]);

        // A torn active tail is the only fault that is not corruption.
        let mut tail = bytes(8..10);
        tail.truncate(tail.len() - 2);
        let seg = reader.read(Lsn(8), false, &tail);
        assert_eq!(seg.faults.len(), 1);
        assert_eq!(seg.corruption(), None);
        assert_eq!(seg.into_records().count(), 1);
    }
}
