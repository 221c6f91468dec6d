//! One-call health snapshot of the whole engine — what an operator (or the
//! reorganization daemon) looks at to decide whether the tree needs help.

use std::fmt;

use obr_btree::TreeStats;
use obr_lock::LockStats;
use obr_obs::Snapshot;
use obr_storage::DiskStats;
use obr_wal::LogStats;

use crate::db::Database;
use crate::error::CoreResult;

/// Aggregated snapshot across every subsystem.
#[derive(Debug, Clone)]
pub struct DatabaseStats {
    /// Tree shape.
    pub tree: TreeStats,
    /// Lock manager counters.
    pub locks: LockStats,
    /// Log volume counters.
    pub log: LogStats,
    /// Disk I/O counters.
    pub disk: DiskStats,
    /// Buffer pool residency.
    pub pool_resident: usize,
    /// Buffer pool capacity.
    pub pool_capacity: usize,
    /// Buffer pool shard count (frame-table concurrency).
    pub pool_shards: usize,
    /// The metrics registry at collection time (the `log:` line's
    /// durability counters are read from here).
    pub metrics: Snapshot,
    /// Free pages available.
    pub free_pages: usize,
    /// Queued side-file entries (non-zero only during pass 3).
    pub side_file_len: usize,
    /// Whether an internal-page reorganization is running (§7.2 bit).
    pub reorg_bit: bool,
}

impl DatabaseStats {
    /// Fraction of key-adjacent leaf pairs that are physically non-adjacent.
    pub fn disorder_fraction(&self) -> f64 {
        if self.tree.leaf_pages < 2 {
            0.0
        } else {
            self.tree.leaf_discontinuities() as f64 / (self.tree.leaf_pages - 1) as f64
        }
    }
}

impl fmt::Display for DatabaseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tree:   {} records | {} leaves @ fill {:.2} | {} internal | height {}",
            self.tree.records,
            self.tree.leaf_pages,
            self.tree.avg_leaf_fill,
            self.tree.internal_pages,
            self.tree.height
        )?;
        writeln!(
            f,
            "layout: {} discontinuities ({:.0}% disorder) | scan seek {}",
            self.tree.leaf_discontinuities(),
            self.disorder_fraction() * 100.0,
            self.tree.scan_seek_distance()
        )?;
        writeln!(
            f,
            "space:  {} free pages | pool {}/{} frames in {} shards",
            self.free_pages, self.pool_resident, self.pool_capacity, self.pool_shards
        )?;
        writeln!(
            f,
            "log:    {} records, {} bytes ({} reorg bytes) | {} flushes -> {} batches, {} fsyncs",
            self.log.records,
            self.log.bytes,
            self.log.reorg_bytes,
            self.metrics.counter("wal_flush_calls"),
            self.metrics.counter("wal_batches"),
            self.metrics.counter("wal_syncs")
        )?;
        writeln!(
            f,
            "disk:   {} reads, {} writes, seek {}",
            self.disk.reads, self.disk.writes, self.disk.seek_distance
        )?;
        write!(
            f,
            "locks:  {} grants, {} waited, {} forgone (RX), {} deadlocks{}",
            self.locks.immediate_grants,
            self.locks.waited_grants,
            self.locks.forgone,
            self.locks.deadlocks,
            if self.reorg_bit {
                format!(" | PASS 3 RUNNING, side file: {}", self.side_file_len)
            } else {
                String::new()
            }
        )
    }
}

impl Database {
    /// Collect a [`DatabaseStats`] snapshot.
    pub fn stats(&self) -> CoreResult<DatabaseStats> {
        Ok(DatabaseStats {
            tree: self.tree().stats()?,
            locks: self.locks().stats(),
            log: self.log().stats(),
            disk: self.disk().stats(),
            pool_resident: self.pool().resident(),
            pool_capacity: self.pool().capacity(),
            pool_shards: self.pool().shard_count(),
            metrics: self.metrics().snapshot(),
            free_pages: self.fsm().free_count(),
            side_file_len: self.side_file().len(),
            reorg_bit: self.tree().reorg_bit()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_btree::SidePointerMode;
    use obr_storage::{DiskManager, InMemoryDisk};
    use std::sync::Arc;

    #[test]
    fn snapshot_renders_every_section() {
        let disk = Arc::new(InMemoryDisk::new(1024));
        let db =
            Database::create(disk as Arc<dyn DiskManager>, 1024, SidePointerMode::TwoWay).unwrap();
        let records: Vec<(u64, Vec<u8>)> = (0..500u64).map(|k| (k, vec![1; 32])).collect();
        db.tree().bulk_load(&records, 0.5, 0.9).unwrap();
        let s = db.stats().unwrap();
        assert_eq!(s.tree.records, 500);
        assert!(s.free_pages > 0);
        let text = s.to_string();
        for needle in ["tree:", "layout:", "space:", "log:", "disk:", "locks:"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        assert!(!text.contains("PASS 3"));
    }

    #[test]
    fn disorder_fraction_bounds() {
        let disk = Arc::new(InMemoryDisk::new(256));
        let db =
            Database::create(disk as Arc<dyn DiskManager>, 256, SidePointerMode::TwoWay).unwrap();
        let s = db.stats().unwrap();
        assert_eq!(s.disorder_fraction(), 0.0); // single empty leaf
    }
}
