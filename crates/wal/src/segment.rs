//! Segment naming and directory layout for the segmented WAL.
//!
//! A segmented log is a directory of files `wal-<first-lsn>.seg`, each
//! holding a contiguous run of `[len: u32 LE][frame]` records (parsed by
//! [`crate::reader`]). The file name carries the LSN of its first record, zero-padded so
//! lexicographic order equals LSN order. Exactly one segment — the one with
//! the highest first-LSN — is *active* (still being appended to); every
//! other segment is *sealed* and immutable.
//!
//! Invariants the layout maintains (and [`crate::LogManager::open_dir`]
//! verifies on reopen):
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

use std::path::{Path, PathBuf};

use obr_storage::Lsn;

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
}
