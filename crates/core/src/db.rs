//! The assembled database engine: one handle bundling every substrate the
//! paper assumes — disk, buffer pool with careful writing, WAL, lock
//! manager, free-space map, reorganization state table, side file, and the
//! primary B+-tree.

use obr_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obr_btree::{BTree, SidePointerMode};
use obr_lock::{LockManager, OwnerId};
use obr_obs::{Registry, Snapshot, Tracer};
use obr_storage::{BufferPool, DiskManager, FreeSpaceMap, PageId, WalFlush};
use obr_wal::{CheckpointData, LogManager, LogRecord, ReorgStateTable, TxnId};

use crate::error::CoreResult;
use crate::metrics::CoreMetrics;
use crate::sidefile::SideFile;

/// Sentinel for "no pass-3 read position" (reorganization idle).
pub const CK_IDLE: u64 = u64::MAX;

/// Sizing knobs for the engine and its network frontend. [`Default`] is
/// the tuned configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Pages reserved at the front of the disk for meta/internal pages.
    pub internal_region_pages: u32,
    /// Seal threshold for durable WAL segments: once the active segment
    /// file reaches this many bytes it is sealed (becomes immutable and
    /// shippable) and a new one is started. Only durable databases use
    /// it. Small values (a few KiB) force frequent seals for tests.
    pub wal_segment_bytes: u64,
    /// Network frontend: maximum concurrent client sessions the server
    /// admits; a connection past the limit is answered `BUSY` at handshake
    /// time and closed (see [`crate::admission::AdmissionGate`]).
    pub max_sessions: usize,
    /// Network frontend: bounded in-flight request queue — how many
    /// data-plane requests may execute concurrently across all sessions.
    /// Requests past the limit are shed with a typed `BUSY`, never queued
    /// unboundedly. Zero sheds everything (administrative drain).
    pub admission_queue: usize,
}

/// Default WAL segment seal threshold (4 MiB).
pub const DEFAULT_WAL_SEGMENT_BYTES: u64 = 4 << 20;

/// Default concurrent-session ceiling for the network frontend.
pub const DEFAULT_MAX_SESSIONS: usize = 64;

/// Default in-flight request ceiling for the network frontend.
pub const DEFAULT_ADMISSION_QUEUE: usize = 128;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            internal_region_pages: 0,
            wal_segment_bytes: DEFAULT_WAL_SEGMENT_BYTES,
            max_sessions: DEFAULT_MAX_SESSIONS,
            admission_queue: DEFAULT_ADMISSION_QUEUE,
        }
    }
}

/// The database.
pub struct Database {
    disk: Arc<dyn DiskManager>,
    pool: Arc<BufferPool>,
    fsm: Arc<FreeSpaceMap>,
    log: Arc<LogManager>,
    locks: Arc<LockManager>,
    reorg_table: Arc<ReorgStateTable>,
    side_file: Arc<SideFile>,
    tree: Arc<BTree>,
    next_txn: AtomicU64,
    next_owner: AtomicU64,
    /// `Get_Current()` of §7.2: the low mark of the base page pass 3 is
    /// currently reading; [`CK_IDLE`] when no internal reorganization runs.
    ck: AtomicU64,
    /// Transactions with at least one log record and no commit/abort yet:
    /// id -> (LSN of the first record, LSN of the most recent one). A
    /// transaction that has written nothing is not in the log and not here.
    active_txns:
        obr_sync::Mutex<std::collections::HashMap<TxnId, (obr_storage::Lsn, obr_storage::Lsn)>>,
    /// Per-database metrics directory: every subsystem publishes its live
    /// counter handles here at assembly time.
    metrics: Arc<Registry>,
    /// Per-database trace sink for reorganization/recovery events.
    tracer: Arc<Tracer>,
    /// Engine-level counters (reorg units, recovery, daemon, tree gauges).
    core_metrics: CoreMetrics,
}

impl Database {
    /// Final assembly shared by every construction path: build the
    /// per-database observability registry and tracer, create the
    /// subsystems that don't vary between paths, and have each subsystem
    /// publish its live metric handles into the registry.
    fn assemble(
        disk: Arc<dyn DiskManager>,
        pool: Arc<BufferPool>,
        fsm: Arc<FreeSpaceMap>,
        log: Arc<LogManager>,
        tree: Arc<BTree>,
    ) -> Arc<Database> {
        let metrics = Arc::new(Registry::new());
        let locks = Arc::new(LockManager::new());
        let side_file = Arc::new(SideFile::new(Arc::clone(&log)));
        let core_metrics = CoreMetrics::default();
        pool.register_metrics(&metrics);
        log.register_metrics(&metrics);
        locks.register_metrics(&metrics);
        side_file.register_metrics(&metrics);
        core_metrics.register(&metrics);
        Arc::new(Database {
            disk,
            pool,
            fsm,
            locks,
            reorg_table: Arc::new(ReorgStateTable::new()),
            side_file,
            log,
            tree,
            next_txn: AtomicU64::new(1),
            next_owner: AtomicU64::new(1_000_000),
            ck: AtomicU64::new(CK_IDLE),
            active_txns: obr_sync::Mutex::named(std::collections::HashMap::new(), "db.active_txns"),
            metrics,
            tracer: Arc::new(Tracer::new()),
            core_metrics,
        })
    }

    /// Create a fresh database over `disk` with a buffer pool of
    /// `pool_frames` frames and a brand-new (empty) tree. `side` names the
    /// leaf chain's layout, which is always [`SidePointerMode::TwoWay`];
    /// every constructor takes it for the same reason.
    pub fn create(
        disk: Arc<dyn DiskManager>,
        pool_frames: usize,
        side: SidePointerMode,
    ) -> CoreResult<Arc<Database>> {
        Self::create_with_regions(disk, pool_frames, side, 0)
    }

    /// Like [`Self::create`], but reserving the first
    /// `internal_region_pages` pages for meta/internal pages (§6 of the
    /// paper assumes leaves and internal pages live in different parts of
    /// the disk; this makes pass 2 able to pack leaves perfectly).
    pub fn create_with_regions(
        disk: Arc<dyn DiskManager>,
        pool_frames: usize,
        side: SidePointerMode,
        internal_region_pages: u32,
    ) -> CoreResult<Arc<Database>> {
        Self::create_with_config(
            disk,
            pool_frames,
            side,
            EngineConfig {
                internal_region_pages,
                ..EngineConfig::default()
            },
        )
    }

    /// Like [`Self::create`], with explicit [`EngineConfig`] knobs (region
    /// split; the log is memory-only).
    pub fn create_with_config(
        disk: Arc<dyn DiskManager>,
        pool_frames: usize,
        side: SidePointerMode,
        cfg: EngineConfig,
    ) -> CoreResult<Arc<Database>> {
        Self::create_with_log(disk, Arc::new(LogManager::new()), pool_frames, side, cfg)
    }

    /// Create a fully durable database: pages in `<dir>/pages.db`, WAL as
    /// a segmented log under `<dir>/wal/`. Use [`crate::recovery::recover`]
    /// after [`Self::open_durable`] to restart from the files.
    pub fn create_durable(
        dir: &std::path::Path,
        pages: u32,
        pool_frames: usize,
        side: SidePointerMode,
    ) -> CoreResult<Arc<Database>> {
        Self::create_durable_with_config(dir, pages, pool_frames, side, EngineConfig::default())
    }

    /// Like [`Self::create_durable`], with explicit [`EngineConfig`] knobs.
    pub fn create_durable_with_config(
        dir: &std::path::Path,
        pages: u32,
        pool_frames: usize,
        side: SidePointerMode,
        cfg: EngineConfig,
    ) -> CoreResult<Arc<Database>> {
        std::fs::create_dir_all(dir).map_err(obr_storage::StorageError::Io)?;
        let disk: Arc<dyn DiskManager> =
            Arc::new(obr_storage::FileDisk::open(&dir.join("pages.db"), pages)?);
        let log = Arc::new(LogManager::open_dir(
            &dir.join("wal"),
            cfg.wal_segment_bytes,
        )?);
        Self::create_with_log(disk, log, pool_frames, side, cfg)
    }

    /// Assemble a fresh database over an already-opened disk and log. The
    /// crash checker uses this to pair a journaling page disk with a real
    /// segmented WAL.
    pub fn create_with_log(
        disk: Arc<dyn DiskManager>,
        log: Arc<LogManager>,
        pool_frames: usize,
        side: SidePointerMode,
        cfg: EngineConfig,
    ) -> CoreResult<Arc<Database>> {
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), pool_frames));
        let fsm = Arc::new(FreeSpaceMap::new_all_free(disk.num_pages()));
        fsm.set_leaf_boundary(PageId(cfg.internal_region_pages));
        pool.set_wal(Arc::clone(&log) as Arc<dyn WalFlush>);
        let SidePointerMode::TwoWay = side; // the only layout
        let tree = Arc::new(BTree::create(
            Arc::clone(&pool),
            Arc::clone(&fsm),
            Arc::clone(&log),
        )?);
        Ok(Self::assemble(disk, pool, fsm, log, tree))
    }

    /// Reopen a durable database from its directory (run
    /// [`crate::recovery::recover`] on the result before use). The WAL is
    /// the segment directory `<dir>/wal/`.
    pub fn open_durable(
        dir: &std::path::Path,
        pool_frames: usize,
        side: SidePointerMode,
    ) -> CoreResult<Arc<Database>> {
        Self::open_durable_with_config(dir, pool_frames, side, &EngineConfig::default())
    }

    /// Like [`Self::open_durable`], with explicit [`EngineConfig`] knobs
    /// (the WAL seal threshold applies from this open on).
    ///
    /// A directory written before the WAL was segmented holds a single
    /// `wal.log` and no `wal/`. It is refused: opening it as a segment
    /// directory would create an empty `wal/` and recover the populated
    /// `pages.db` against an empty log.
    pub fn open_durable_with_config(
        dir: &std::path::Path,
        pool_frames: usize,
        side: SidePointerMode,
        cfg: &EngineConfig,
    ) -> CoreResult<Arc<Database>> {
        let wal_dir = dir.join("wal");
        let old_log = dir.join("wal.log");
        if !wal_dir.is_dir() && old_log.exists() {
            return Err(obr_storage::StorageError::Corrupt(format!(
                "{} is a single-file WAL, which this version cannot read, and {} is missing",
                old_log.display(),
                wal_dir.display()
            ))
            .into());
        }
        let disk = Arc::new(obr_storage::FileDisk::open(&dir.join("pages.db"), 1)?);
        let log = Arc::new(LogManager::open_dir(&wal_dir, cfg.wal_segment_bytes)?);
        Self::reopen(disk as Arc<dyn DiskManager>, log, pool_frames, side)
    }

    /// Reassemble a database over an existing disk + log (used by
    /// recovery). The tree is opened at the conventional meta page 0; the
    /// free-space map starts all-allocated and is rebuilt by recovery.
    pub fn reopen(
        disk: Arc<dyn DiskManager>,
        log: Arc<LogManager>,
        pool_frames: usize,
        side: SidePointerMode,
    ) -> CoreResult<Arc<Database>> {
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), pool_frames));
        let fsm = Arc::new(FreeSpaceMap::new_all_allocated(disk.num_pages()));
        pool.set_wal(Arc::clone(&log) as Arc<dyn WalFlush>);
        let SidePointerMode::TwoWay = side; // the only layout
        let tree = Arc::new(BTree::open(
            Arc::clone(&pool),
            Arc::clone(&fsm),
            Arc::clone(&log),
            PageId(0),
        )?);
        Ok(Self::assemble(disk, pool, fsm, log, tree))
    }

    /// The per-database metrics registry. Subsystem counters are live: a
    /// [`Registry::snapshot`] at any moment reads the same atomics the hot
    /// paths update. Prefer [`Self::metrics_snapshot`], which also
    /// refreshes the tree-shape gauges.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// The per-database trace sink. Attach a JSONL writer with
    /// [`Tracer::attach_file`] to stream reorganization events.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Engine-level counters (crate-internal write access).
    pub(crate) fn core_metrics(&self) -> &CoreMetrics {
        &self.core_metrics
    }

    /// Snapshot every registered metric, after refreshing the tree-shape
    /// gauges (`tree_*`) from a fresh [`obr_btree::TreeStats`] walk.
    pub fn metrics_snapshot(&self) -> CoreResult<Snapshot> {
        let t = self.tree.stats()?;
        self.core_metrics.publish_tree(&t);
        Ok(self.metrics.snapshot())
    }

    /// The primary B+-tree.
    pub fn tree(&self) -> &Arc<BTree> {
        &self.tree
    }

    /// The disk.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The free-space map.
    pub fn fsm(&self) -> &Arc<FreeSpaceMap> {
        &self.fsm
    }

    /// The write-ahead log.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The reorganization state table (§5).
    pub fn reorg_table(&self) -> &Arc<ReorgStateTable> {
        &self.reorg_table
    }

    /// The side file (§7.2).
    pub fn side_file(&self) -> &Arc<SideFile> {
        &self.side_file
    }

    /// Allocate a fresh transaction id. Nothing is logged and nothing is
    /// registered: a transaction exists, for the log, the checkpoint's
    /// active list, the low-water mark and recovery alike, from its first
    /// update record ([`Self::note_txn_lsn`]). One that only reads never
    /// does.
    pub fn begin_txn(&self) -> TxnId {
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Record a transaction's newest LSN (its undo chain head). The first
    /// call for `txn` registers it active, with `lsn` as its first record.
    pub fn note_txn_lsn(&self, txn: TxnId, lsn: obr_storage::Lsn) {
        let mut g = self.active_txns.lock();
        let e = g.entry(txn).or_insert((lsn, lsn));
        e.1 = lsn;
    }

    /// Most recent LSN of an active transaction.
    pub fn txn_lsn(&self, txn: TxnId) -> obr_storage::Lsn {
        self.active_txns
            .lock()
            .get(&txn)
            .map(|(_, recent)| *recent)
            .unwrap_or(obr_storage::Lsn::ZERO)
    }

    /// Mark a transaction finished (committed or fully rolled back). A no-op
    /// for one that never logged a record.
    pub fn end_txn(&self, txn: TxnId) {
        self.active_txns.lock().remove(&txn);
    }

    /// A fresh lock-owner id (readers, the reorganizer, gate tokens).
    pub fn new_owner(&self) -> OwnerId {
        OwnerId(self.next_owner.fetch_add(1, Ordering::Relaxed))
    }

    /// §7.2 `Get_Current()`: the low mark of the base page currently being
    /// read by pass 3 ([`CK_IDLE`] when idle).
    pub fn get_current(&self) -> u64 {
        self.ck.load(Ordering::Acquire)
    }

    /// Set the pass-3 current key (reorganizer only).
    pub fn set_current(&self, ck: u64) {
        self.ck.store(ck, Ordering::Release);
    }

    /// Write a **sharp** checkpoint: every dirty page is flushed first (so
    /// redo never needs records that precede the checkpoint), then a
    /// checkpoint record carrying the reorganization state table and the
    /// active-transaction list is forced to the log. The list holds the
    /// transactions that have logged a record and not yet ended, each with
    /// its most recent LSN — recovery's loser candidates. Open readers are
    /// not in it: they have nothing to undo.
    ///
    /// A flush or log I/O failure is returned, not panicked: checkpoints
    /// are retried by the daemon, and a transient error must not take the
    /// engine down (the previous checkpoint simply stays the recovery
    /// anchor).
    pub fn checkpoint(&self) -> CoreResult<obr_storage::Lsn> {
        self.pool.flush_all()?;
        let active: Vec<(TxnId, obr_storage::Lsn)> = self
            .active_txns
            .lock()
            .iter()
            .map(|(t, (_, recent))| (*t, *recent))
            .collect();
        let rec = LogRecord::Checkpoint {
            data: CheckpointData {
                reorg: self.reorg_table.snapshot(),
                active_txns: active,
            },
        };
        Ok(self.log.append_force(&rec)?)
    }

    /// §5: the log low-water mark — "the lowest LSN that must be kept
    /// available for recovery": the minimum of the last checkpoint, the
    /// oldest active transaction's *first record* (where its undo chain
    /// ends), and the in-flight reorganization unit's BEGIN. A transaction
    /// that has only read has no record, so it does not hold the mark back.
    pub fn log_low_water_mark(&self) -> obr_storage::Lsn {
        use obr_storage::Lsn;
        let ckpt = self
            .log
            .last_checkpoint()
            .ok()
            .flatten()
            .map(|(lsn, _)| lsn)
            .unwrap_or(Lsn(1));
        let oldest_txn = self
            .active_txns
            .lock()
            .values()
            .map(|(first, _)| *first)
            .min()
            .unwrap_or(Lsn(u64::MAX));
        let reorg = self.reorg_table.begin_lsn().unwrap_or(Lsn(u64::MAX));
        ckpt.min(oldest_txn).min(reorg)
    }

    /// Drop log records below the low-water mark. A sharp checkpoint is
    /// written first so redo never needs the dropped prefix; for a
    /// segmented WAL the freed prefix is then reclaimed on disk by
    /// recycling every sealed segment below the (boundary-rounded) mark.
    /// Returns the number of records discarded.
    pub fn truncate_log(&self) -> CoreResult<usize> {
        self.checkpoint()?; // sharp: flushes every dirty page first
        let before = self.log.len();
        self.log.truncate_before(self.log_low_water_mark());
        self.log.recycle_segments()?;
        Ok(before - self.log.len())
    }

    /// Simulate a crash: the OS flushed the dirty pages selected by `keep`
    /// (closed under careful-writing prerequisites); everything volatile —
    /// buffer pool, unforced log tail, lock tables, reorganization table —
    /// is lost. The disk and the durable log survive.
    pub fn crash(&self, keep: impl FnMut(PageId) -> bool) -> CoreResult<usize> {
        self.pool.simulate_crash(keep)?;
        let lost = self.log.simulate_crash();
        Ok(lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_storage::{InMemoryDisk, Lsn};

    fn db() -> Arc<Database> {
        let disk = Arc::new(InMemoryDisk::new(256));
        Database::create(disk, 256, SidePointerMode::TwoWay).unwrap()
    }

    #[test]
    fn create_yields_working_tree() {
        let d = db();
        let txn = d.begin_txn();
        d.tree().insert(txn, Lsn::ZERO, 1, b"x").unwrap();
        assert_eq!(d.tree().search(1).unwrap().unwrap(), b"x");
    }

    #[test]
    fn txn_bookkeeping() {
        let d = db();
        let t1 = d.begin_txn();
        let t2 = d.begin_txn();
        assert_ne!(t1, t2);
        d.note_txn_lsn(t1, Lsn(9));
        assert_eq!(d.txn_lsn(t1), Lsn(9));
        d.end_txn(t1);
        assert_eq!(d.txn_lsn(t1), Lsn::ZERO);
    }

    #[test]
    fn owner_ids_are_unique() {
        let d = db();
        assert_ne!(d.new_owner(), d.new_owner());
    }

    #[test]
    fn get_current_defaults_to_idle() {
        let d = db();
        assert_eq!(d.get_current(), CK_IDLE);
        d.set_current(42);
        assert_eq!(d.get_current(), 42);
    }

    #[test]
    fn checkpoint_is_durable() {
        let d = db();
        let lsn = d.checkpoint().unwrap();
        assert!(d.log().durable_lsn() >= lsn);
        let (_, rec) = d.log().last_checkpoint().unwrap().unwrap();
        assert!(matches!(rec, LogRecord::Checkpoint { .. }));
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("obr-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn reopen_honours_wal_segment_bytes() {
        let dir = scratch("segbytes");
        let cfg = EngineConfig {
            wal_segment_bytes: 2048,
            ..EngineConfig::default()
        };
        drop(
            Database::create_durable_with_config(
                &dir,
                64,
                64,
                SidePointerMode::TwoWay,
                cfg.clone(),
            )
            .unwrap(),
        );
        let d =
            Database::open_durable_with_config(&dir, 64, SidePointerMode::TwoWay, &cfg).unwrap();
        for i in 0..6 {
            d.log().append(&LogRecord::TxnInsert {
                txn: TxnId(i + 1),
                page: PageId(1),
                key: i,
                value: vec![7; 512],
                prev_lsn: Lsn::ZERO,
            });
        }
        d.log().flush_all().unwrap();
        assert!(d.metrics().snapshot().counter("wal_segment_seals") >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_file_wal_directory_is_refused_not_emptied() {
        let dir = scratch("oldwal");
        drop(Database::create_durable(&dir, 64, 64, SidePointerMode::TwoWay).unwrap());
        std::fs::remove_dir_all(dir.join("wal")).unwrap();
        std::fs::write(dir.join("wal.log"), [1u8; 64]).unwrap();
        let Err(err) = Database::open_durable(&dir, 64, SidePointerMode::TwoWay) else {
            panic!("a directory holding only wal.log must be refused");
        };
        assert!(
            matches!(
                err,
                crate::error::CoreError::Storage(obr_storage::StorageError::Corrupt(_))
            ),
            "unexpected: {err}"
        );
        assert!(err.to_string().contains("wal.log"), "unexpected: {err}");
        assert!(!dir.join("wal").exists(), "refusal must not create wal/");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_loses_unflushed_work() {
        let d = db();
        let txn = d.begin_txn();
        d.tree().insert(txn, Lsn::ZERO, 7, b"v").unwrap();
        // Nothing flushed: the page update and log tail are volatile.
        let lost = d.crash(|_| false).unwrap();
        assert!(lost > 0);
    }
}
