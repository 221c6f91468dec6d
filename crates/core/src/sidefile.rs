//! The side file of §7.2: a small system table that catches base-page
//! changes made by user transactions while pass 3 is copying the upper
//! levels of the tree.
//!
//! Each entry records one `(low_key -> leaf)` mapping change. Appends and
//! removals are logged (as record operations on the reserved side-file
//! "page"), so recovery can rebuild the table; per §7.3, entries for keys
//! past the most recent stable key are dropped at recovery because the
//! reorganizer will re-read those base pages anyway.

use obr_sync::atomic::{AtomicU64, Ordering};
use std::collections::BTreeMap;
use std::sync::Arc;

use obr_sync::Mutex;

use obr_storage::{Lsn, PageId, StorageError, StorageResult};
use obr_wal::{LogManager, LogRecord, TxnId};

/// The reserved "page" id under which side-file operations are logged.
pub const SIDE_FILE_PAGE: PageId = PageId(u32::MAX - 1);

/// One side-file operation on a base-page entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SideOp {
    /// Add or repoint the entry `key -> leaf`.
    Upsert(PageId),
    /// Remove the entry for `key`.
    Remove,
}

/// A recorded side-file entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SideEntry {
    /// The base-entry low key affected.
    pub key: u64,
    /// What happened to it.
    pub op: SideOp,
}

impl SideEntry {
    /// Encode for the log record value field.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(13);
        v.extend_from_slice(&self.key.to_le_bytes());
        match self.op {
            SideOp::Upsert(p) => {
                v.push(1);
                v.extend_from_slice(&p.0.to_le_bytes());
            }
            SideOp::Remove => v.push(0),
        }
        v
    }

    /// Decode from a log record value field.
    pub fn decode(bytes: &[u8]) -> StorageResult<SideEntry> {
        if bytes.len() < 9 {
            return Err(StorageError::Corrupt("short side entry".into()));
        }
        let key = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let op = match bytes[8] {
            0 => SideOp::Remove,
            1 => {
                if bytes.len() < 13 {
                    return Err(StorageError::Corrupt("short side upsert".into()));
                }
                SideOp::Upsert(PageId(u32::from_le_bytes(bytes[9..13].try_into().unwrap())))
            }
            t => return Err(StorageError::Corrupt(format!("bad side op tag {t}"))),
        };
        Ok(SideEntry { key, op })
    }
}

/// The side file: an ordered queue of [`SideEntry`]s keyed by append
/// sequence number. Appends while pass 3 runs; drained during catch-up and
/// the switch.
pub struct SideFile {
    log: Arc<LogManager>,
    seq: AtomicU64,
    entries: Mutex<BTreeMap<u64, SideEntry>>,
    /// Current queue depth with its high-watermark: the backlog pass-3
    /// catch-up must drain. Registered as `side_file_depth`.
    depth: obr_obs::Gauge,
    /// Entries ever appended. Registered as `side_file_appends`.
    appends: obr_obs::Counter,
}

impl SideFile {
    /// A fresh, empty side file.
    pub fn new(log: Arc<LogManager>) -> SideFile {
        SideFile {
            log,
            seq: AtomicU64::new(1),
            entries: Mutex::named(BTreeMap::new(), "side.entries"),
            depth: obr_obs::Gauge::new(),
            appends: obr_obs::Counter::new(),
        }
    }

    /// Publish this side file's depth gauge and append counter into `reg`
    /// under the canonical `side_file_*` names.
    pub fn register_metrics(&self, reg: &obr_obs::Registry) {
        reg.register_gauge("side_file_depth", &self.depth);
        reg.register_counter("side_file_appends", &self.appends);
    }

    /// Append an entry; the insertion is logged (like any table insert).
    pub fn append(&self, txn: TxnId, entry: SideEntry) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.log.append(&LogRecord::TxnInsert {
            txn,
            page: SIDE_FILE_PAGE,
            key: seq,
            value: entry.encode(),
            prev_lsn: Lsn::ZERO,
        });
        let depth = {
            let mut g = self.entries.lock();
            g.insert(seq, entry);
            g.len()
        };
        self.appends.inc();
        self.depth.set(depth as u64);
        seq
    }

    /// Pop the oldest entry (catch-up application); the removal is logged.
    pub fn pop_front(&self, txn: TxnId) -> Option<(u64, SideEntry)> {
        let mut g = self.entries.lock();
        let (&seq, &entry) = g.iter().next()?;
        g.remove(&seq);
        let depth = g.len();
        drop(g);
        self.depth.set(depth as u64);
        self.log.append(&LogRecord::TxnDelete {
            txn,
            page: SIDE_FILE_PAGE,
            key: seq,
            old_value: entry.encode(),
            prev_lsn: Lsn::ZERO,
        });
        Some((seq, entry))
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries ever appended (E7 metric).
    pub fn appended_total(&self) -> u64 {
        self.appends.get()
    }

    /// Recovery: re-install an entry replayed from the log.
    pub fn restore(&self, seq: u64, entry: SideEntry) {
        let mut g = self.entries.lock();
        g.insert(seq, entry);
        self.depth.set(g.len() as u64);
        let next = self.seq.load(Ordering::Relaxed).max(seq + 1);
        self.seq.store(next, Ordering::Relaxed);
    }

    /// Recovery: drop a replayed entry (its removal was logged).
    pub fn unrestore(&self, seq: u64) {
        let mut g = self.entries.lock();
        g.remove(&seq);
        self.depth.set(g.len() as u64);
    }

    /// §7.3: at recovery, entries for keys after the most recent stable key
    /// are dropped — the reorganizer will re-read those base pages. Returns
    /// how many were dropped.
    pub fn trim_after(&self, stable_key: u64) -> usize {
        let mut g = self.entries.lock();
        let before = g.len();
        g.retain(|_, e| e.key < stable_key);
        self.depth.set(g.len() as u64);
        before - g.len()
    }

    /// Snapshot for diagnostics.
    pub fn snapshot(&self) -> Vec<(u64, SideEntry)> {
        self.entries.lock().iter().map(|(&s, &e)| (s, e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf() -> SideFile {
        SideFile::new(Arc::new(LogManager::new()))
    }

    #[test]
    fn entry_codec_round_trip() {
        for e in [
            SideEntry {
                key: 42,
                op: SideOp::Upsert(PageId(7)),
            },
            SideEntry {
                key: 0,
                op: SideOp::Remove,
            },
        ] {
            assert_eq!(SideEntry::decode(&e.encode()).unwrap(), e);
        }
        assert!(SideEntry::decode(&[1, 2]).is_err());
        assert!(SideEntry::decode([0; 9][..].to_vec().as_slice()).is_ok());
    }

    #[test]
    fn fifo_order_preserved() {
        let f = sf();
        for k in [5u64, 1, 9] {
            f.append(
                TxnId(1),
                SideEntry {
                    key: k,
                    op: SideOp::Remove,
                },
            );
        }
        let keys: Vec<u64> =
            std::iter::from_fn(|| f.pop_front(TxnId(1)).map(|(_, e)| e.key)).collect();
        assert_eq!(keys, vec![5, 1, 9]); // append order, not key order
        assert!(f.is_empty());
        assert_eq!(f.appended_total(), 3);
    }

    #[test]
    fn append_and_pop_are_logged() {
        let log = Arc::new(LogManager::new());
        let f = SideFile::new(Arc::clone(&log));
        f.append(
            TxnId(3),
            SideEntry {
                key: 1,
                op: SideOp::Upsert(PageId(2)),
            },
        );
        f.pop_front(TxnId(3)).unwrap();
        let recs = log.records_from(Lsn(1)).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0].1, LogRecord::TxnInsert { page, .. } if page == SIDE_FILE_PAGE));
        assert!(matches!(recs[1].1, LogRecord::TxnDelete { page, .. } if page == SIDE_FILE_PAGE));
    }

    #[test]
    fn trim_after_stable_key() {
        let f = sf();
        for k in [10u64, 20, 30] {
            f.append(
                TxnId(1),
                SideEntry {
                    key: k,
                    op: SideOp::Remove,
                },
            );
        }
        // Stable key 20: entries for keys >= 20 will be re-read; drop them.
        assert_eq!(f.trim_after(20), 2);
        assert_eq!(f.len(), 1);
        assert_eq!(f.snapshot()[0].1.key, 10);
    }

    #[test]
    fn restore_respects_sequence() {
        let f = sf();
        f.restore(
            5,
            SideEntry {
                key: 9,
                op: SideOp::Remove,
            },
        );
        // Future appends must come after the restored sequence.
        let seq = f.append(
            TxnId(1),
            SideEntry {
                key: 10,
                op: SideOp::Remove,
            },
        );
        assert!(seq > 5);
        f.unrestore(5);
        assert_eq!(f.len(), 1);
    }
}
