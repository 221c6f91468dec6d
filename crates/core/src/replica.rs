//! A log-shipping read replica.
//!
//! Replication is recovery, literally. Every source of shipped log — a
//! segment directory, segment bytes off the wire (PROTOCOL.md §7), a live
//! [`LogManager`] — is read by the [`SegmentReader`] `open_dir` uses and
//! applied by the replay loop restart recovery runs ([`crate::recovery`]),
//! kept across calls and never finished with undo. Checkpoint, pass-3 and
//! tree-switch records are applied like any other: after a
//! [`obr_wal::LogRecord::Pass3Switch`], reads run against the new tree.
//!
//! At [`Replica::applied_lsn`] the replica holds the primary's *physical*
//! state at that LSN: a transaction in flight at the shipping horizon
//! appears as it would to the primary's recovery before undo. Quiesced, a
//! replica and the primary's restart recovery reach the same reachable
//! pages with the same page LSNs, byte for byte but for one header field:
//! redo of a MOVE into a reused leaf keeps the leaf's earlier low mark
//! where the primary set a fresh one (the record does not carry it; both
//! are valid lower bounds). `tests/replica.rs` checks this for every feed.
//!
//! A torn active tail is the primary's in-flight write: its intact prefix
//! is applied. Every other [`SegmentFault`](obr_wal::SegmentFault), and a
//! source that starts past `applied + 1`, is refused with
//! [`CoreError::Recovery`]. The last is a replica that fell behind the
//! primary's recycling; re-seed it from a snapshot (see
//! [`Replica::set_applied_floor`]).

use std::path::Path;
use std::sync::Arc;

use obr_obs::{Counter, Gauge};
use obr_storage::{DiskManager, InMemoryDisk, Lsn};
use obr_sync::Mutex;
use obr_wal::{segment, LogManager, LogRecord, SegmentReader};

use crate::db::Database;
use crate::error::{CoreError, CoreResult};
use crate::recovery::Replay;

/// Live handles registered into the replica database's own registry.
#[derive(Debug, Default)]
struct ReplicaMetrics {
    applied_lsn: Gauge,
    records_applied: Counter,
    segments_ingested: Counter,
    lag: Gauge,
}

/// A read-only database following a primary by applying its WAL.
pub struct Replica {
    db: Arc<Database>,
    /// The replay state, kept across calls; its mutex serializes appliers
    /// (records must apply in LSN order).
    replay: Mutex<Replay>,
    metrics: ReplicaMetrics,
}

impl Replica {
    /// Create a replica with its own in-memory disk and buffer pool, shaped
    /// like the primary (`pages` must match the primary's creation
    /// parameter so physical redo lands on identical page layouts).
    pub fn new(pages: u32, pool_frames: usize) -> CoreResult<Replica> {
        let disk = Arc::new(InMemoryDisk::new(pages));
        let db = Database::create(
            disk as Arc<dyn DiskManager>,
            pool_frames,
            obr_btree::SidePointerMode::TwoWay,
        )?;
        Ok(Self::over(db))
    }

    /// Wrap an already-assembled database (e.g. one reopened from a
    /// snapshot of the primary's page file) as the replica's apply target.
    /// Shipping starts from the snapshot's state; call
    /// [`Self::set_applied_floor`] with the snapshot's checkpoint LSN so
    /// already-materialized records are skipped.
    pub fn over(db: Arc<Database>) -> Replica {
        let metrics = ReplicaMetrics::default();
        let reg = db.metrics();
        reg.register_gauge("replica_applied_lsn", &metrics.applied_lsn);
        reg.register_counter("replica_records_applied", &metrics.records_applied);
        reg.register_counter("replica_segments_ingested", &metrics.segments_ingested);
        reg.register_gauge("replica_lag", &metrics.lag);
        Replica {
            db,
            replay: Mutex::named(Replay::default(), "replica.replay"),
            metrics,
        }
    }

    /// The replica's database. Reads are fine; writing to it forks the
    /// replica from the primary's history.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Highest LSN applied so far.
    pub fn applied_lsn(&self) -> Lsn {
        self.replay.lock().applied
    }

    /// Checkpoint records the replica has applied past.
    pub fn checkpoints_seen(&self) -> u64 {
        self.replay.lock().checkpoints
    }

    /// Tree-switch records followed (each one moved reads to a new tree).
    pub fn switches_seen(&self) -> u64 {
        self.replay.lock().switches
    }

    /// Declare that state up to `lsn` is already materialized (snapshot
    /// bootstrap): records at or below it are skipped, not re-applied.
    pub fn set_applied_floor(&self, lsn: Lsn) {
        let mut replay = self.replay.lock();
        if lsn > replay.applied {
            replay.applied = lsn;
            self.metrics.applied_lsn.set(lsn.0);
        }
    }

    /// Feed `records`, from a source whose first available record is
    /// `start`, to the replay loop.
    fn feed(
        &self,
        start: Lsn,
        records: impl IntoIterator<Item = (Lsn, LogRecord)>,
    ) -> CoreResult<u64> {
        let mut replay = self.replay.lock();
        let fed = replay.feed(&self.db, start, records)? as u64;
        self.metrics.applied_lsn.set(replay.applied.0);
        self.metrics.records_applied.add(fed);
        Ok(fed)
    }

    /// Read one segment through `reader`, refuse it on corruption, and
    /// feed its intact records up to `upto`.
    fn ingest(
        &self,
        reader: &mut SegmentReader,
        first_lsn: Lsn,
        sealed: bool,
        bytes: &[u8],
        upto: Lsn,
    ) -> CoreResult<u64> {
        if first_lsn > upto {
            // Starts past the durable LSN the primary reported (it sealed
            // in between): nothing in it may be applied yet, so it says
            // nothing about a gap.
            return Ok(0);
        }
        let seg = reader.read(first_lsn, sealed, bytes);
        if let Some(fault) = seg.corruption() {
            return Err(CoreError::Recovery(format!("refusing to apply: {fault}")));
        }
        let fed = self.feed(
            first_lsn,
            seg.into_records().take_while(|(lsn, _)| *lsn <= upto),
        )?;
        if sealed && fed > 0 {
            self.metrics.segments_ingested.inc();
        }
        Ok(fed)
    }

    /// Ingest a segment shipped as raw bytes — the network transport path
    /// (the wire carries `(first_lsn, sealed, bytes)` frames; see
    /// PROTOCOL.md §7). Returns the number of records applied (0 when the
    /// whole segment was already applied).
    ///
    /// A torn **active** segment (`sealed = false`) is the primary's
    /// in-flight write: its intact prefix is applied. `apply_upto` caps
    /// application at the primary's durable LSN so records that were
    /// written but not yet fsynced on the primary are not replayed ahead
    /// of durability.
    pub fn ingest_segment_bytes(
        &self,
        first_lsn: Lsn,
        bytes: &[u8],
        sealed: bool,
        apply_upto: Option<Lsn>,
    ) -> CoreResult<u64> {
        let upto = apply_upto.unwrap_or(Lsn(u64::MAX));
        self.ingest(
            &mut SegmentReader::default(),
            first_lsn,
            sealed,
            bytes,
            upto,
        )
    }

    /// Ingest every segment under the primary's WAL directory: sealed
    /// segments whole, then the active segment's intact prefix. This is
    /// the out-of-process catch-up path; a live in-process replica uses
    /// [`Self::sync_from`] for the tail instead.
    pub fn ingest_dir(&self, wal_dir: &Path) -> CoreResult<u64> {
        let segments = segment::list_segments(wal_dir).map_err(obr_storage::StorageError::Io)?;
        let last = segments.len().saturating_sub(1);
        let mut reader = SegmentReader::default();
        let mut total = 0;
        for (i, (first_lsn, path)) in segments.iter().enumerate() {
            let bytes = std::fs::read(path).map_err(obr_storage::StorageError::Io)?;
            total += self.ingest(&mut reader, *first_lsn, i != last, &bytes, Lsn(u64::MAX))?;
        }
        Ok(total)
    }

    /// Tail-stream from a live primary's log: apply every durable record
    /// past the applied LSN.
    pub fn sync_from(&self, log: &LogManager) -> CoreResult<u64> {
        let durable = log.durable_lsn();
        let start = log.first_lsn();
        let records = log.records_from(self.applied_lsn().next())?;
        let fed = self.feed(
            start,
            records.into_iter().take_while(|(lsn, _)| *lsn <= durable),
        )?;
        self.lag(log);
        Ok(fed)
    }

    /// How many durable records the replica is behind `log`.
    pub fn lag(&self, log: &LogManager) -> u64 {
        let lag = log.durable_lsn().0.saturating_sub(self.applied_lsn().0);
        self.metrics.lag.set(lag);
        lag
    }

    /// Point lookup against the replica's current tree.
    pub fn get(&self, key: u64) -> CoreResult<Option<Vec<u8>>> {
        Ok(self.db.tree().search(key)?)
    }

    /// Range scan `[lo, hi]` against the replica's current tree.
    pub fn scan(&self, lo: u64, hi: u64) -> CoreResult<Vec<(u64, Vec<u8>)>> {
        Ok(self.db.tree().range_scan(lo, hi)?)
    }

    /// Every record in the replica's current tree.
    pub fn scan_all(&self) -> CoreResult<Vec<(u64, Vec<u8>)>> {
        Ok(self.db.tree().collect_all()?)
    }
}
