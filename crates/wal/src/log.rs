//! The log manager: an append-only sequence of encoded records with a
//! durability watermark, made durable by **group commit**.
//!
//! Records live in memory as encoded frames; [`LogManager::flush_to`] moves
//! the durability watermark forward (the buffer pool calls it through the
//! [`obr_storage::WalFlush`] hook before writing any dirty page), and
//! [`LogManager::simulate_crash`] discards every record past the watermark —
//! the volatile tail a power failure would lose.
//!
//! # Group commit
//!
//! Appending and forcing are split across different locks so neither ever
//! waits on the other's I/O:
//!
//! * **append** takes the short `mem` critical section (assign an LSN, push
//!   the encoded frame) and returns — it never blocks on a concurrent
//!   fsync. Its counters (`wal_appends`, `wal_append_bytes`) are atomics
//!   bumped outside that section.
//! * **flush_to** registers its target LSN and elects one caller the
//!   *flusher* (a flag guarded by the `dur` mutex). The flusher writes and
//!   fsyncs one batch covering *every* target registered so far, publishes
//!   the new watermark, and wakes the waiters parked on the condvar. A
//!   waiter whose LSN the batch covered returns without touching the file:
//!   K concurrent committers cost at most K — and typically ~2 — fsyncs.
//!
//! No lock is ever held across `write`+`fsync` except the `io` mutex, which
//! only the elected flusher (or an exclusive maintenance operation such as
//! [`LogManager::recycle_segments`]) touches.
//!
//! # Segmented durability
//!
//! A durable log opened with [`LogManager::open_dir`] is a directory of
//! fixed-size-threshold segment files (see [`crate::segment`]). The flusher
//! appends to the *active* segment; when a batch pushes it past the size
//! threshold the segment is *sealed* (a new active file is created —
//! sealed files are never written again)
//! and becomes shippable to a replica. [`LogManager::truncate_before`]
//! rounds the low-water mark down to a segment boundary, and
//! [`LogManager::recycle_segments`] deletes — oldest first — every sealed
//! segment that lies wholly below it, which is how the paper's §5
//! checkpoint low-water mark turns into a bounded on-disk footprint.
//! Torn-tail truncation applies only to the active segment on reopen; a
//! torn record inside a sealed segment is corruption.
//!
//! Every count the log keeps lives in [`LogManager::register_metrics`]'s
//! `wal_*` handles; experiment E6 reads its log volume as the
//! `wal_append_bytes` delta.

use obr_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use obr_obs::{Counter, Gauge, Histogram, Registry};
use obr_sync::{Condvar, Mutex};

use obr_storage::{Lsn, StorageError, StorageResult, WalFlush};

use crate::reader::LogReader;
use crate::record::{LogRecord, TAG_CHECKPOINT};
use crate::segment::{self, SegmentMeta, SegmentReader};

/// The in-memory log: what `append` touches. Its critical sections are a
/// vector push and an LSN bump — never I/O.
struct LogMem {
    /// Encoded frames; frame `i` has LSN `first_lsn + i`.
    frames: Vec<Vec<u8>>,
    /// LSN of `frames[0]` (moves up when the log is truncated).
    first_lsn: Lsn,
    /// Next LSN to assign.
    next_lsn: Lsn,
}

/// Flusher election state. `flushing` is the baton: exactly one thread at a
/// time runs the write+fsync path; `requested` accumulates the highest LSN
/// any committer has asked to be made durable.
struct DurControl {
    flushing: bool,
    requested: Lsn,
}

/// One immutable, fully-fsynced segment file (shippable to a replica).
struct SealedSegment {
    /// LSN of the segment's first record.
    first_lsn: Lsn,
    /// LSN of the segment's last record (inclusive).
    end_lsn: Lsn,
    /// Backing file path.
    path: PathBuf,
    /// On-disk byte size (frames + length prefixes).
    bytes: u64,
}

/// The backing file. Only the elected flusher (or an exclusive maintenance
/// path holding the flusher baton) locks this, so the lock is uncontended —
/// it exists to keep `File` mutation safe, not to serialize committers.
struct IoState {
    /// The active segment file, when the log is durable. Frames below
    /// `file_next` have been appended and fsynced.
    file: Option<File>,
    /// Next LSN whose frame still needs writing.
    file_next: Lsn,
    /// Segment directory; `None` for memory-only logs (which never seal
    /// or recycle).
    dir: Option<PathBuf>,
    /// Seal threshold: once the active segment reaches this many bytes,
    /// the batch that crossed the line seals it.
    seg_bytes: u64,
    /// First LSN of the active segment.
    active_first: Lsn,
    /// Bytes written to the active segment so far — the known-good offset
    /// flush errors roll the file back to.
    active_bytes: u64,
    /// Sealed segments, ascending by `first_lsn`.
    sealed: Vec<SealedSegment>,
}

/// The write-ahead log.
///
/// ```
/// use obr_wal::{LogManager, LogRecord, TxnId};
///
/// let log = LogManager::new();
/// let l1 = log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
/// log.append(&LogRecord::TxnCommit { txn: TxnId(1) }); // volatile tail
/// log.flush_to(l1).unwrap();
/// // A crash loses everything past the durability watermark.
/// assert_eq!(log.simulate_crash(), 1);
/// assert_eq!(log.read(l1).unwrap(), Some(LogRecord::TxnBegin { txn: TxnId(1) }));
/// ```
pub struct LogManager {
    mem: Mutex<LogMem>,
    dur: Mutex<DurControl>,
    dur_cv: Condvar,
    io: Mutex<IoState>,
    /// Highest durable LSN — readable without any lock.
    durable: AtomicU64,
    /// Set when a flush I/O failure left the backing file in a state a
    /// retry cannot safely build on (see [`Self::poison`]). Once set,
    /// every durability call fails; appends stay available so aborts can
    /// still be recorded in memory.
    poisoned: AtomicBool,
    metrics: WalMetrics,
}

/// Per-manager metric handles: the durability-path counters, the
/// append-path counters and the durable-watermark lag gauge.
/// [`LogManager::register_metrics`] publishes these same handles into a
/// database's [`Registry`].
#[derive(Debug, Default)]
struct WalMetrics {
    flush_calls: Counter,
    syncs: Counter,
    batches: Counter,
    group_waits: Counter,
    appends: Counter,
    append_bytes: Counter,
    batch_records: Histogram,
    durable_lag: Gauge,
    /// Live segment files (sealed + active); 0 for memory-only logs.
    segments: Gauge,
    /// Segments sealed since open.
    seals: Counter,
    /// Sealed segments deleted by recycling since open.
    recycled: Counter,
}

impl Default for LogManager {
    fn default() -> Self {
        Self::new()
    }
}

/// Test-only sabotage switch (model builds only): when
/// `OBR_BUG_EARLY_WATERMARK=1`, the elected flusher publishes the durable
/// watermark *before* writing and fsyncing the batch. This exists solely
/// so the interleaving explorer can prove it catches torn-watermark
/// ordering bugs; it is never set outside `obr-race`'s teeth tests.
#[cfg(obr_model)]
fn sabotage_early_watermark() -> bool {
    std::env::var_os("OBR_BUG_EARLY_WATERMARK").is_some_and(|v| v == "1")
}

impl LogManager {
    /// A memory-only log (the zero-segment case): no file, no directory.
    fn assemble(mem: LogMem, durable: Lsn) -> LogManager {
        let io = IoState {
            file: None,
            file_next: Lsn(durable.0 + 1),
            dir: None,
            seg_bytes: u64::MAX,
            active_first: Lsn(1),
            active_bytes: 0,
            sealed: Vec::new(),
        };
        Self::assemble_io(mem, io, durable)
    }

    fn assemble_io(mem: LogMem, io: IoState, durable: Lsn) -> LogManager {
        let log = LogManager {
            mem: Mutex::named(mem, "wal.mem"),
            dur: Mutex::named(
                DurControl {
                    flushing: false,
                    requested: durable,
                },
                "wal.dur",
            ),
            dur_cv: Condvar::new(),
            io: Mutex::named(io, "wal.io"),
            durable: AtomicU64::new(durable.0),
            poisoned: AtomicBool::new(false),
            metrics: WalMetrics::default(),
        };
        {
            let io = log.io.lock();
            if io.dir.is_some() {
                log.metrics.segments.set(io.sealed.len() as u64 + 1);
            }
        }
        log
    }

    /// Publish this log's counters into `reg` under the canonical `wal_*`
    /// names (see DESIGN.md "Observability"). The registry adopts the live
    /// handles, so snapshots read the same atomics the hot paths update;
    /// `wal_batches_per_fsync` is derived by consumers as
    /// `wal_batches / wal_syncs`.
    pub fn register_metrics(&self, reg: &Registry) {
        reg.register_counter("wal_flush_calls", &self.metrics.flush_calls);
        reg.register_counter("wal_syncs", &self.metrics.syncs);
        reg.register_counter("wal_batches", &self.metrics.batches);
        reg.register_counter("wal_group_waits", &self.metrics.group_waits);
        reg.register_counter("wal_appends", &self.metrics.appends);
        reg.register_counter("wal_append_bytes", &self.metrics.append_bytes);
        reg.register_histogram("wal_batch_records", &self.metrics.batch_records);
        reg.register_gauge("wal_durable_lag", &self.metrics.durable_lag);
        reg.register_gauge("wal_segments", &self.metrics.segments);
        reg.register_counter("wal_segment_seals", &self.metrics.seals);
        reg.register_counter("wal_segments_recycled", &self.metrics.recycled);
    }

    /// Create an empty memory-only log. LSNs start at 1; [`Lsn::ZERO`]
    /// means "none".
    pub fn new() -> LogManager {
        Self::assemble(
            LogMem {
                frames: Vec::new(),
                first_lsn: Lsn(1),
                next_lsn: Lsn(1),
            },
            Lsn::ZERO,
        )
    }

    /// Open (or create) a segmented durable log in directory `dir` with a
    /// seal threshold of `seg_bytes` bytes per segment. Existing frames are
    /// read back (they are all durable); appends reach the active segment
    /// on [`Self::flush_to`]. Each segment file is a sequence of
    /// `[len: u32 LE][frame bytes]` records.
    ///
    /// Reopen reads the directory through [`SegmentReader`]: every
    /// [`SegmentFault`](crate::SegmentFault) but one is
    /// [`StorageError::Corrupt`] — a gap in the LSN run, a torn or empty
    /// sealed segment — and the one crash artifact, a torn tail on the
    /// active (last) segment, is truncated away.
    pub fn open_dir(dir: &Path, seg_bytes: u64) -> StorageResult<LogManager> {
        std::fs::create_dir_all(dir)?;
        let seg_bytes = seg_bytes.max(1);
        let mut listed = segment::list_segments(dir)?;
        if listed.is_empty() {
            let path = dir.join(segment::segment_file_name(Lsn(1)));
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            segment::sync_dir(dir);
            listed.push((Lsn(1), path));
        }
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut sealed = Vec::new();
        let first_lsn = listed[0].0;
        let last = listed.len() - 1;
        let mut reader = SegmentReader::default();
        for (i, (seg_first, path)) in listed.into_iter().enumerate() {
            let seg = reader.read(seg_first, i != last, &std::fs::read(&path)?);
            if let Some(fault) = seg.corruption() {
                return Err(StorageError::Corrupt(format!(
                    "{fault} ({})",
                    path.display()
                )));
            }
            sealed.push(SealedSegment {
                first_lsn: seg_first,
                end_lsn: LogReader::last_lsn(&seg.scan, seg_first),
                path,
                bytes: seg.scan.good_end,
            });
            frames.extend(seg.scan.frames);
        }
        // The last segment is the active one: truncate the torn tail a
        // crash left on it.
        let active = sealed.pop().expect("at least one segment exists");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(false)
            .open(&active.path)?;
        file.set_len(active.bytes)?;
        file.seek(SeekFrom::End(0))?;
        let durable = active.end_lsn;
        Ok(Self::assemble_io(
            LogMem {
                next_lsn: Lsn(durable.0 + 1),
                frames,
                first_lsn,
            },
            IoState {
                file: Some(file),
                file_next: Lsn(durable.0 + 1),
                dir: Some(dir.to_path_buf()),
                seg_bytes,
                active_first: active.first_lsn,
                active_bytes: active.bytes,
                sealed,
            },
            durable,
        ))
    }

    /// Mark the log failed: every subsequent durability call
    /// ([`Self::flush_to`], [`Self::flush_all`], [`Self::append_force`])
    /// returns an error without touching the file, and the durable
    /// watermark never moves again. The manager poisons itself when a
    /// flush I/O failure leaves the active file in a state no retry can
    /// safely build on (a partial write it could not roll back, or a
    /// failed fsync — which the kernel may have answered by dropping dirty
    /// pages, so re-fsyncing can claim durability that does not exist).
    /// Public so fault-injection tests can force the failure path.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// True once [`Self::poison`] has run (directly or via an
    /// unrecoverable flush failure).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn poisoned_err() -> StorageError {
        StorageError::Io(std::io::Error::other(
            "WAL poisoned: an earlier flush failure left the log file in an \
             unknown state; no further flushes are possible",
        ))
    }

    /// Append a record; returns its LSN. Not yet durable. The critical
    /// section is memory-only: appends never wait behind an fsync.
    // protocol: wal-append
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let bytes = rec.encode();
        self.metrics.appends.inc();
        self.metrics.append_bytes.add(bytes.len() as u64);
        let mut g = self.mem.lock();
        let lsn = g.next_lsn;
        g.next_lsn = lsn.next();
        g.frames.push(bytes);
        drop(g);
        // Un-flushed tail behind the durable watermark; the peak is the
        // worst backlog an fsync ever had to cover.
        self.metrics
            .durable_lag
            .set(lsn.0.saturating_sub(self.durable.load(Ordering::Acquire)));
        lsn
    }

    /// Append and immediately force to the durability watermark.
    // protocol: wal-append
    pub fn append_force(&self, rec: &LogRecord) -> StorageResult<Lsn> {
        let lsn = self.append(rec);
        self.flush_to(lsn)?;
        Ok(lsn)
    }

    /// Make the log durable through `lsn`. Concurrent callers are batched:
    /// one of them writes and fsyncs a single run covering every pending
    /// target, the rest park until `durable_lsn >= lsn`.
    ///
    /// On an I/O error the watermark does not move, the flusher baton is
    /// released (waking any parked committers, who will re-elect and
    /// retry — each either succeeds or surfaces its own error), and the
    /// error is returned so the caller can decide whether the operation
    /// that needed durability may proceed. Before the baton is released a
    /// failed write rolls the active file back to its last known-good
    /// offset, so the retry re-appends the same frames from a clean record
    /// boundary rather than duplicating them after partial bytes; when
    /// that rollback is impossible (or the fsync itself failed) the log is
    /// [poisoned](Self::poison) and every later flush fails fast.
    pub fn flush_to(&self, lsn: Lsn) -> StorageResult<()> {
        let cap = {
            let g = self.mem.lock();
            Lsn(g.next_lsn.0 - 1)
        };
        let target = lsn.min(cap);
        if target == Lsn::ZERO || self.durable.load(Ordering::Acquire) >= target.0 {
            return Ok(());
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(Self::poisoned_err());
        }
        self.metrics.flush_calls.inc();
        let mut d = self.dur.lock();
        if d.requested < target {
            d.requested = target;
        }
        loop {
            if self.durable.load(Ordering::Acquire) >= target.0 {
                // A batch in flight when we arrived already covered us.
                return Ok(());
            }
            if !d.flushing {
                break;
            }
            self.metrics.group_waits.inc();
            self.dur_cv.wait(&mut d);
        }
        // Elected flusher: take the baton, write one batch covering every
        // target registered so far, with no lock held across the I/O that
        // an append or another committer's registration would need.
        d.flushing = true;
        let batch = d.requested;
        drop(d);
        #[cfg(obr_model)]
        if sabotage_early_watermark() {
            // Injected ordering bug (teeth test only): publish the
            // durable watermark BEFORE the data hits the file. Readers
            // observing `durable_lsn` between the store and the fsync see
            // a watermark covering bytes that do not exist yet.
            self.durable.fetch_max(batch.0, Ordering::AcqRel);
        }
        let result = self.write_batch(batch);
        if let Ok(batch) = result {
            self.durable.fetch_max(batch.0, Ordering::AcqRel);
        }
        let mut d = self.dur.lock();
        d.flushing = false;
        self.dur_cv.notify_all();
        drop(d);
        result.map(|_| ())
    }

    /// True when every LSN at or below the published durable watermark has
    /// actually been written to the log file (`durable < file_next`).
    /// Invariant readers (and the model explorer) use this to detect a
    /// torn watermark publication; memory-backed logs trivially satisfy
    /// it.
    pub fn durable_is_written(&self) -> bool {
        let io = self.io.lock();
        if io.file.is_none() {
            return true;
        }
        self.durable.load(Ordering::Acquire) < io.file_next.0
    }

    /// Write and fsync frames `(file_next..=batch]`, returning the LSN the
    /// log is now durable through. Caller must hold the flusher baton.
    /// Locks are taken one at a time: `io` to learn the file position, `mem`
    /// (briefly) to copy out the frames, `io` again for the write+fsync —
    /// the append path stays runnable throughout. An I/O failure leaves
    /// `file_next` (and therefore the durable watermark) unmoved.
    fn write_batch(&self, batch: Lsn) -> StorageResult<Lsn> {
        let (has_file, file_next) = {
            let io = self.io.lock();
            (io.file.is_some(), io.file_next)
        };
        let (buf, batch) = {
            let m = self.mem.lock();
            // Re-clamp: a concurrent crash simulation may have shrunk the
            // log since the target was registered.
            let batch = batch.min(Lsn(m.next_lsn.0 - 1));
            let mut buf = Vec::new();
            if has_file && batch >= file_next {
                let lo = (file_next.0 - m.first_lsn.0) as usize;
                let hi = (batch.0 + 1 - m.first_lsn.0) as usize;
                for frame in &m.frames[lo..hi] {
                    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                    buf.extend_from_slice(frame);
                }
            }
            (buf, batch)
        };
        if !buf.is_empty() {
            let mut io = self.io.lock();
            self.write_to_active(&mut io, &buf, batch)?;
        }
        self.metrics.batches.inc();
        self.metrics.durable_lag.set(0);
        Ok(batch)
    }

    /// Append `buf` (frames through `batch`) to the active file, fsync it,
    /// and seal the active segment if the write pushed it past the size
    /// threshold. Caller holds the `io` lock and the flusher baton.
    fn write_to_active(&self, io: &mut IoState, buf: &[u8], batch: Lsn) -> StorageResult<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(Self::poisoned_err());
        }
        let file_next = io.file_next;
        // The last offset known to be fully written AND fsynced: a failed
        // write must roll the file back here, or a retry from the unchanged
        // `file_next` would append duplicate frames after the partial bytes
        // — and LSNs are positional, so a reopen would misnumber everything
        // past them.
        let good_len = io.active_bytes;
        let file = io
            .file
            .as_mut()
            .ok_or_else(|| StorageError::Corrupt("write_to_active on memory-only log".into()))?;
        if let Err(e) = file.write_all(buf) {
            // An unknown prefix of `buf` is in the file and the cursor sits
            // somewhere inside it. Restore the known-good length and
            // position so the documented retry path (re-elected flusher,
            // same `file_next`) starts from a clean record boundary. If the
            // restore itself fails the file state is unknowable: poison.
            if file.set_len(good_len).is_err() || file.seek(SeekFrom::Start(good_len)).is_err() {
                self.poison();
            }
            return Err(e.into());
        }
        if let Err(e) = file.sync_data() {
            // A failed fsync may have dropped dirty pages while marking
            // them clean, so a retried fsync can report success without the
            // bytes being durable. No retry is safe after this: poison.
            self.poison();
            return Err(e.into());
        }
        let covered = batch.0 + 1 - file_next.0;
        io.file_next = Lsn(batch.0 + 1);
        io.active_bytes += buf.len() as u64;
        self.metrics.syncs.inc();
        self.metrics.batch_records.record(covered);
        if io.active_bytes >= io.seg_bytes {
            self.seal_active(io)?;
        }
        Ok(())
    }

    /// Seal the active segment: record it as immutable and open a fresh
    /// active file named after the next LSN to be written. Called with the
    /// `io` lock held, only after the crossing batch is fully fsynced — a
    /// sealed segment therefore always ends at a record boundary.
    fn seal_active(&self, io: &mut IoState) -> StorageResult<()> {
        let dir = io
            .dir
            .clone()
            .ok_or_else(|| StorageError::Corrupt("seal on non-segmented log".into()))?;
        let end_lsn = Lsn(io.file_next.0 - 1);
        if end_lsn < io.active_first {
            return Ok(()); // nothing written yet; nothing to seal
        }
        let new_path = dir.join(segment::segment_file_name(io.file_next));
        let new_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&new_path)?;
        new_file.sync_data()?;
        // Persist the directory entry so a crash right after the seal
        // still finds the (empty) new active segment. If the entry is
        // lost anyway, reopen simply treats the sealed file as active
        // again — it ends at a record boundary, so nothing is torn.
        segment::sync_dir(&dir);
        io.sealed.push(SealedSegment {
            first_lsn: io.active_first,
            end_lsn,
            path: dir.join(segment::segment_file_name(io.active_first)),
            bytes: io.active_bytes,
        });
        io.file = Some(new_file);
        io.active_first = io.file_next;
        io.active_bytes = 0;
        self.metrics.seals.inc();
        self.metrics.segments.set(io.sealed.len() as u64 + 1);
        Ok(())
    }

    /// Make the whole log durable.
    pub fn flush_all(&self) -> StorageResult<()> {
        let target = {
            let g = self.mem.lock();
            Lsn(g.next_lsn.0 - 1)
        };
        self.flush_to(target)
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable.load(Ordering::Acquire))
    }

    /// LSN that the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.mem.lock().next_lsn
    }

    /// Read the record at `lsn`, if it exists (and survives truncation).
    pub fn read(&self, lsn: Lsn) -> StorageResult<Option<LogRecord>> {
        let g = self.mem.lock();
        if lsn < g.first_lsn || lsn >= g.next_lsn || lsn == Lsn::ZERO {
            return Ok(None);
        }
        let idx = (lsn.0 - g.first_lsn.0) as usize;
        Ok(Some(LogRecord::decode(&g.frames[idx])?))
    }

    /// Decode all records with LSN in `[from, next_lsn)`, paired with their
    /// LSNs. Used by the recovery redo scan.
    pub fn records_from(&self, from: Lsn) -> StorageResult<Vec<(Lsn, LogRecord)>> {
        let g = self.mem.lock();
        let start = from.max(g.first_lsn);
        let skip = ((start.0 - g.first_lsn.0) as usize).min(g.frames.len());
        g.frames[skip..]
            .iter()
            .zip(start.0..)
            .map(|(frame, lsn)| Ok((Lsn(lsn), LogRecord::decode(frame)?)))
            .collect()
    }

    /// A snapshot of the retained encoded frames: `(first_lsn, frames)`,
    /// where frame `i` has LSN `first_lsn + i`. This is the watermark-free
    /// raw material crash enumeration works from (serialize with
    /// [`crate::reader::LogReader::encode_frames`] to get the on-disk byte
    /// image).
    pub fn frames_snapshot(&self) -> (Lsn, Vec<Vec<u8>>) {
        let g = self.mem.lock();
        (g.first_lsn, g.frames.clone())
    }

    /// Build a fresh, memory-only log containing exactly the records with
    /// LSN in `[first_lsn, upto]`, all of them durable — the log a crash at
    /// watermark `upto` leaves behind. The source log is not modified, so an
    /// enumerator can carve every prefix out of one recorded run.
    pub fn clone_prefix(&self, upto: Lsn) -> LogManager {
        let g = self.mem.lock();
        let keep = (upto.0 + 1).saturating_sub(g.first_lsn.0) as usize;
        let frames: Vec<Vec<u8>> = g.frames.iter().take(keep).cloned().collect();
        let first_lsn = g.first_lsn;
        drop(g);
        let durable = Lsn(first_lsn.0 + frames.len() as u64 - 1);
        Self::assemble(
            LogMem {
                next_lsn: Lsn(durable.0 + 1),
                frames,
                first_lsn,
            },
            durable,
        )
    }

    /// LSN of the most recent checkpoint record at or below the durable
    /// watermark, if any.
    pub fn last_checkpoint(&self) -> StorageResult<Option<(Lsn, LogRecord)>> {
        let durable = self.durable_lsn();
        let g = self.mem.lock();
        let durable_len =
            ((durable.0 + 1).saturating_sub(g.first_lsn.0) as usize).min(g.frames.len());
        let Some(i) = g.frames[..durable_len]
            .iter()
            .rposition(|frame| frame.first() == Some(&TAG_CHECKPOINT))
        else {
            return Ok(None);
        };
        Ok(Some((
            Lsn(g.first_lsn.0 + i as u64),
            LogRecord::decode(&g.frames[i])?,
        )))
    }

    /// Drop all records strictly below `lsn` (the low-water mark, §5).
    ///
    /// A memory-only log drops exactly `[first_lsn, lsn)`. A segmented log
    /// rounds `lsn` *down* to the nearest segment boundary, so the
    /// retained frames always mirror the retained files; the boundary
    /// segments themselves are reclaimed by [`Self::recycle_segments`].
    ///
    /// Readers are safe across truncation: [`Self::records_from`] and
    /// [`Self::read`] take the same `mem` lock, so each call sees an
    /// atomic snapshot, and a tail-reader can detect a truncation that
    /// passed its cursor by re-checking [`Self::first_lsn`] (pinned by the
    /// `wal_truncate_vs_tail` obr-race scenario).
    pub fn truncate_before(&self, lsn: Lsn) {
        // Lock order mem -> io (check/lockorder.toml).
        let mut g = self.mem.lock();
        let lsn = {
            let io = self.io.lock();
            if io.dir.is_some() {
                // Round down to a segment boundary: the largest segment
                // first-LSN (sealed or active) at or below the mark.
                let mut bound = g.first_lsn;
                for s in &io.sealed {
                    if s.first_lsn <= lsn {
                        bound = bound.max(s.first_lsn);
                    }
                }
                if io.active_first <= lsn {
                    bound = bound.max(io.active_first);
                }
                bound
            } else {
                lsn
            }
        };
        if lsn <= g.first_lsn {
            return;
        }
        let keep_from = (lsn.0 - g.first_lsn.0) as usize;
        if keep_from >= g.frames.len() {
            g.frames.clear();
            g.first_lsn = g.next_lsn;
        } else {
            g.frames.drain(..keep_from);
            g.first_lsn = lsn;
        }
    }

    /// Delete — oldest first — every sealed segment whose records all lie
    /// below the current `first_lsn` (i.e. below the last
    /// [`Self::truncate_before`] mark, rounded to a boundary). Returns how
    /// many segment files were recycled. No-op for memory-only logs.
    ///
    /// Oldest-first deletion means a crash part-way through leaves a
    /// contiguous suffix of segments, which reopens cleanly; a gap would
    /// be corruption.
    pub fn recycle_segments(&self) -> StorageResult<usize> {
        // Exclusive with any in-flight flush (which may be sealing).
        self.acquire_flusher();
        let result = (|| {
            let first = self.mem.lock().first_lsn;
            let mut io = self.io.lock();
            if io.dir.is_none() {
                return Ok(0);
            }
            let mut recycled = 0usize;
            while let Some(seg) = io.sealed.first() {
                if seg.end_lsn.0 >= first.0 {
                    break;
                }
                std::fs::remove_file(&seg.path)?;
                io.sealed.remove(0);
                recycled += 1;
            }
            if recycled > 0 {
                if let Some(dir) = io.dir.clone() {
                    segment::sync_dir(&dir);
                }
                self.metrics.recycled.add(recycled as u64);
                self.metrics.segments.set(io.sealed.len() as u64 + 1);
            }
            Ok(recycled)
        })();
        self.release_flusher();
        result
    }

    /// Wait for any in-flight group-commit batch to finish, then hold the
    /// flusher baton for an exclusive maintenance operation.
    fn acquire_flusher(&self) {
        let mut d = self.dur.lock();
        while d.flushing {
            self.dur_cv.wait(&mut d);
        }
        d.flushing = true;
    }

    fn release_flusher(&self) {
        let mut d = self.dur.lock();
        d.flushing = false;
        self.dur_cv.notify_all();
    }

    /// Simulate a crash: the volatile tail past the durability watermark is
    /// lost. Returns how many records were discarded.
    pub fn simulate_crash(&self) -> usize {
        // Exclusive with any in-flight flush so the batch/requested state
        // cannot straddle the truncation.
        self.acquire_flusher();
        let dropped = {
            let mut g = self.mem.lock();
            let durable = self.durable_lsn().max(Lsn(g.first_lsn.0 - 1));
            let keep = (durable.0 + 1 - g.first_lsn.0) as usize;
            let dropped = g.frames.len().saturating_sub(keep);
            g.frames.truncate(keep);
            g.next_lsn = Lsn(durable.0 + 1);
            dropped
        };
        {
            let mut d = self.dur.lock();
            d.requested = self.durable_lsn();
        }
        self.release_flusher();
        dropped
    }

    /// Number of records currently retained (post-truncation).
    pub fn len(&self) -> usize {
        self.mem.lock().frames.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// LSN of the oldest retained record (`next_lsn` when none are). A
    /// tail-reader compares this against its cursor to detect a truncation
    /// that raced past it.
    pub fn first_lsn(&self) -> Lsn {
        self.mem.lock().first_lsn
    }

    /// True when this log is a segment directory (opened via
    /// [`Self::open_dir`]).
    pub fn is_segmented(&self) -> bool {
        self.io.lock().dir.is_some()
    }

    /// The current segment files, ascending by first LSN: every sealed
    /// (immutable, shippable) segment followed by the active one. Empty
    /// for memory-only logs. The active entry's `end_lsn` reflects only
    /// what has been *written to the file*, i.e. the durable tail a
    /// shipping reader may rely on.
    pub fn segment_catalog(&self) -> Vec<SegmentMeta> {
        let io = self.io.lock();
        let Some(dir) = io.dir.as_ref() else {
            return Vec::new();
        };
        let mut out: Vec<SegmentMeta> = io
            .sealed
            .iter()
            .map(|s| SegmentMeta {
                first_lsn: s.first_lsn,
                end_lsn: s.end_lsn,
                path: s.path.clone(),
                sealed: true,
            })
            .collect();
        out.push(SegmentMeta {
            first_lsn: io.active_first,
            end_lsn: Lsn(io.file_next.0 - 1),
            path: dir.join(segment::segment_file_name(io.active_first)),
            sealed: false,
        });
        out
    }

    /// Total bytes the log currently occupies on disk (sealed segments
    /// plus the active one). Zero for memory-only logs.
    pub fn on_disk_bytes(&self) -> u64 {
        let io = self.io.lock();
        io.sealed.iter().map(|s| s.bytes).sum::<u64>() + io.active_bytes
    }
}

impl WalFlush for LogManager {
    fn flush_to(&self, lsn: Lsn) -> StorageResult<()> {
        LogManager::flush_to(self, lsn)
    }
}

impl obr_storage::DurabilityWitness for LogManager {
    fn durability_mark(&self) -> Lsn {
        self.durable_lsn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CheckpointData, TxnId};

    fn begin(n: u64) -> LogRecord {
        LogRecord::TxnBegin { txn: TxnId(n) }
    }

    #[test]
    fn append_assigns_sequential_lsns_from_one() {
        let log = LogManager::new();
        assert_eq!(log.append(&begin(1)), Lsn(1));
        assert_eq!(log.append(&begin(2)), Lsn(2));
        assert_eq!(log.next_lsn(), Lsn(3));
    }

    #[test]
    fn read_round_trips() {
        let log = LogManager::new();
        let lsn = log.append(&begin(9));
        assert_eq!(log.read(lsn).unwrap(), Some(begin(9)));
        assert_eq!(log.read(Lsn(99)).unwrap(), None);
        assert_eq!(log.read(Lsn::ZERO).unwrap(), None);
    }

    #[test]
    fn crash_loses_unflushed_tail() {
        let log = LogManager::new();
        log.append(&begin(1));
        let l2 = log.append(&begin(2));
        log.append(&begin(3));
        log.flush_to(l2).unwrap();
        let dropped = log.simulate_crash();
        assert_eq!(dropped, 1);
        assert_eq!(log.read(Lsn(3)).unwrap(), None);
        assert_eq!(log.read(l2).unwrap(), Some(begin(2)));
        // New appends reuse the freed LSN space.
        assert_eq!(log.append(&begin(4)), Lsn(3));
    }

    #[test]
    fn append_force_is_durable() {
        let log = LogManager::new();
        let lsn = log.append_force(&begin(1)).unwrap();
        assert_eq!(log.durable_lsn(), lsn);
        assert_eq!(log.simulate_crash(), 0);
    }

    #[test]
    fn flush_to_never_goes_backwards_or_past_end() {
        let log = LogManager::new();
        let l1 = log.append(&begin(1));
        log.flush_to(Lsn(50)).unwrap(); // clamped to the last real record
        assert_eq!(log.durable_lsn(), l1);
        log.flush_to(Lsn::ZERO).unwrap();
        assert_eq!(log.durable_lsn(), l1);
    }

    #[test]
    fn flush_to_does_not_overshoot_its_target() {
        // Group commit batches *requested* targets — it must not silently
        // drag unrequested tail records across the durability line.
        let log = LogManager::new();
        log.append(&begin(1));
        let l2 = log.append(&begin(2));
        log.append(&begin(3)); // appended, never requested durable
        log.flush_to(l2).unwrap();
        assert_eq!(log.durable_lsn(), l2);
        assert_eq!(log.simulate_crash(), 1);
    }

    #[test]
    fn poisoned_log_fails_new_flushes_but_keeps_durable_prefix() {
        let log = LogManager::new();
        let l1 = log.append(&begin(1));
        log.flush_to(l1).unwrap();
        log.poison();
        assert!(log.is_poisoned());
        let l2 = log.append(&begin(2));
        let err = log.flush_to(l2).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "unexpected: {err}");
        assert_eq!(log.durable_lsn(), l1, "watermark must not move");
        // Already-durable targets still answer Ok; appends stay available.
        log.flush_to(l1).unwrap();
        assert!(log.append_force(&begin(3)).is_err());
    }

    #[test]
    fn records_from_returns_suffix() {
        let log = LogManager::new();
        for i in 1..=5 {
            log.append(&begin(i));
        }
        let recs = log.records_from(Lsn(3)).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].0, Lsn(3));
        assert_eq!(recs[0].1, begin(3));
    }

    #[test]
    fn last_checkpoint_found_below_durable_watermark() {
        let log = LogManager::new();
        log.append(&begin(1));
        let ckpt = LogRecord::Checkpoint {
            data: CheckpointData::default(),
        };
        let cl = log.append(&ckpt);
        log.append(&begin(2));
        // Not durable yet: invisible.
        log.flush_to(Lsn(1)).unwrap();
        assert!(log.last_checkpoint().unwrap().is_none());
        log.flush_to(cl).unwrap();
        let (lsn, rec) = log.last_checkpoint().unwrap().unwrap();
        assert_eq!(lsn, cl);
        assert_eq!(rec, ckpt);
    }

    #[test]
    fn last_checkpoint_finds_checkpoints_and_no_other_kind() {
        use crate::record::{MovePayload, Pass3State, ReorgKind, UnitId};
        use obr_storage::{PageId, PAGE_SIZE};
        let (t, p, u) = (TxnId(3), PageId(4), UnitId(5));
        let image = || Box::new([17u8; PAGE_SIZE]);
        let others = vec![
            begin(1),
            LogRecord::TxnCommit { txn: t },
            LogRecord::TxnAbort { txn: t },
            LogRecord::TxnInsert {
                txn: t,
                page: p,
                key: 17,
                value: vec![17],
                prev_lsn: Lsn(17),
            },
            LogRecord::TxnDelete {
                txn: t,
                page: p,
                key: 17,
                old_value: vec![17],
                prev_lsn: Lsn(17),
            },
            LogRecord::TxnUpdate {
                txn: t,
                page: p,
                key: 17,
                old_value: vec![17],
                new_value: vec![17],
                prev_lsn: Lsn(17),
            },
            LogRecord::Clr {
                txn: t,
                page: p,
                reinsert: true,
                key: 17,
                value: vec![17],
                undo_next: Lsn(17),
            },
            LogRecord::Smo {
                images: vec![(p, image())],
                new_anchor: Some((p, 17)),
            },
            LogRecord::ReorgBegin {
                unit: u,
                kind: ReorgKind::Compact,
                base_pages: vec![p],
                leaf_pages: vec![p],
            },
            LogRecord::ReorgMove {
                unit: u,
                org: p,
                dest: p,
                payload: MovePayload::Keys(vec![17]),
                prev_lsn: Lsn(17),
            },
            LogRecord::ReorgSwap {
                unit: u,
                page_a: p,
                page_b: p,
                image_a_old: image(),
                prev_lsn: Lsn(17),
            },
            LogRecord::ReorgModify {
                unit: u,
                base_page: p,
                old_entries: vec![(17, p)],
                new_entries: vec![(17, p)],
                prev_lsn: Lsn(17),
            },
            LogRecord::ReorgSidePtr {
                unit: u,
                page: p,
                old_left: p,
                old_right: p,
                new_left: p,
                new_right: p,
                prev_lsn: Lsn(17),
            },
            LogRecord::ReorgEnd {
                unit: u,
                largest_key: 17,
            },
            LogRecord::Pass3Stable {
                state: Pass3State {
                    stable_key: 17,
                    new_root: p,
                },
            },
            LogRecord::Pass3Switch {
                old_root: p,
                new_root: p,
                new_height: 17,
            },
        ];
        let log = LogManager::new();
        for rec in &others {
            log.append(rec);
        }
        log.flush_all().unwrap();
        assert!(log.last_checkpoint().unwrap().is_none(), "no other kind");
        let ckpt = LogRecord::Checkpoint {
            data: CheckpointData::default(),
        };
        let cl = log.append_force(&ckpt).unwrap();
        log.append_force(&others[0]).unwrap();
        assert_eq!(log.last_checkpoint().unwrap(), Some((cl, ckpt)));
    }

    #[test]
    fn truncation_honours_low_water_mark() {
        let log = LogManager::new();
        for i in 1..=5 {
            log.append(&begin(i));
        }
        log.flush_all().unwrap();
        log.truncate_before(Lsn(4));
        assert_eq!(log.len(), 2);
        assert_eq!(log.read(Lsn(3)).unwrap(), None);
        assert_eq!(log.read(Lsn(4)).unwrap(), Some(begin(4)));
        // records_from still works over the truncated log.
        let recs = log.records_from(Lsn(1)).unwrap();
        assert_eq!(recs.first().unwrap().0, Lsn(4));
    }

    #[test]
    fn sync_stats_count_batches_and_elided_flushes() {
        use crate::record::{MovePayload, UnitId};
        use obr_storage::PageId;
        let log = LogManager::new();
        let l1 = log.append(&begin(1));
        log.flush_to(l1).unwrap();
        log.flush_to(l1).unwrap(); // already durable: no new batch
        let mv = LogRecord::ReorgMove {
            unit: UnitId(1),
            org: PageId(1),
            dest: PageId(2),
            payload: MovePayload::Keys(vec![1, 2, 3]),
            prev_lsn: Lsn::ZERO,
        };
        log.append(&mv); // appended, never forced
        let reg = Registry::new();
        log.register_metrics(&reg);
        let s = reg.snapshot();
        assert_eq!(s.counter("wal_flush_calls"), 1);
        assert_eq!(s.counter("wal_batches"), 1);
        assert_eq!(s.counter("wal_syncs"), 0, "memory-only log never fsyncs");
        assert_eq!(s.counter("wal_appends"), 2);
        assert_eq!(
            s.counter("wal_append_bytes"),
            (begin(1).encode().len() + mv.encode().len()) as u64
        );
    }

    static SEG_TEST_DIRS: obr_sync::atomic::AtomicU64 = obr_sync::atomic::AtomicU64::new(0);

    fn seg_dir(tag: &str) -> std::path::PathBuf {
        // relaxed: test-directory name uniqueness counter only.
        let n = SEG_TEST_DIRS.fetch_add(1, obr_sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("obr-seg-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn segmented_log_seals_at_threshold_and_survives_reopen() {
        let dir = seg_dir("seal");
        {
            let log = LogManager::open_dir(&dir, 64).unwrap();
            for i in 1..=20 {
                log.append_force(&begin(i)).unwrap();
            }
            let cat = log.segment_catalog();
            assert!(cat.len() >= 2, "20 forced records must cross one seal");
            assert!(cat[..cat.len() - 1].iter().all(|s| s.sealed));
            assert!(!cat.last().unwrap().sealed);
            // Catalog is contiguous.
            for w in cat.windows(2) {
                assert_eq!(w[1].first_lsn, Lsn(w[0].end_lsn.0 + 1));
            }
            assert_eq!(log.metrics.syncs.get(), 20);
        }
        let log = LogManager::open_dir(&dir, 64).unwrap();
        assert_eq!(log.len(), 20);
        assert_eq!(log.durable_lsn(), Lsn(20));
        for i in 1..=20u64 {
            assert_eq!(log.read(Lsn(i)).unwrap(), Some(begin(i)));
        }
        // Appends continue from the recovered position.
        assert_eq!(log.append(&begin(21)), Lsn(21));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_truncate_rounds_down_and_recycle_deletes_files() {
        let dir = seg_dir("recycle");
        let log = LogManager::open_dir(&dir, 48).unwrap();
        for i in 1..=24 {
            log.append_force(&begin(i)).unwrap();
        }
        let cat = log.segment_catalog();
        assert!(cat.len() >= 3, "need several segments to recycle");
        // Ask to truncate in the middle of some segment: the drop must
        // round DOWN to that segment's first LSN, never past the mark.
        let mid_seg = &cat[cat.len() / 2];
        let mark = Lsn(mid_seg.first_lsn.0 + 1);
        log.truncate_before(mark);
        assert_eq!(log.first_lsn(), mid_seg.first_lsn, "rounded to boundary");
        assert!(log.read(mid_seg.first_lsn).unwrap().is_some());
        let files_before = crate::segment::list_segments(&dir).unwrap().len();
        let recycled = log.recycle_segments().unwrap();
        assert!(recycled > 0, "sealed prefix below the mark must be deleted");
        let files_after = crate::segment::list_segments(&dir).unwrap().len();
        assert_eq!(files_before - files_after, recycled);
        drop(log);
        // Reopen: the surviving suffix is contiguous and complete.
        let log = LogManager::open_dir(&dir, 48).unwrap();
        assert_eq!(log.first_lsn(), mid_seg.first_lsn);
        assert_eq!(log.durable_lsn(), Lsn(24));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_open_rejects_gap() {
        let dir = seg_dir("gap");
        {
            let log = LogManager::open_dir(&dir, 48).unwrap();
            for i in 1..=24 {
                log.append_force(&begin(i)).unwrap();
            }
            assert!(log.segment_catalog().len() >= 3);
        }
        // Delete a middle segment: survivors are no longer contiguous.
        let segs = crate::segment::list_segments(&dir).unwrap();
        std::fs::remove_file(&segs[1].1).unwrap();
        let Err(err) = LogManager::open_dir(&dir, 48) else {
            panic!("a segment gap must be rejected");
        };
        assert!(
            err.to_string().contains("gap"),
            "want a segment-gap corruption error, got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_sealed_segment_is_corruption_torn_active_is_truncated() {
        let dir = seg_dir("torn");
        let mut total = 24u64;
        {
            let log = LogManager::open_dir(&dir, 48).unwrap();
            for i in 1..=total {
                log.append_force(&begin(i)).unwrap();
            }
            // Make sure the active segment holds at least one record (the
            // last append may itself have sealed, leaving it empty).
            while log.segment_catalog().last().unwrap().end_lsn
                < log.segment_catalog().last().unwrap().first_lsn
            {
                total += 1;
                log.append_force(&begin(total)).unwrap();
            }
        }
        let segs = crate::segment::list_segments(&dir).unwrap();
        assert!(segs.len() >= 3);
        // Chop the ACTIVE (last) segment: an expected crash artifact —
        // reopen truncates the torn tail and loses only the last record.
        let (active_first, active_path) = segs.last().unwrap();
        let pre = std::fs::metadata(active_path).unwrap().len();
        assert!(pre > 3, "active segment must hold at least one record");
        std::fs::OpenOptions::new()
            .write(true)
            .open(active_path)
            .unwrap()
            .set_len(pre - 3)
            .unwrap();
        {
            let log = LogManager::open_dir(&dir, 48).unwrap();
            assert!(log.durable_lsn() < Lsn(total));
            assert!(log.durable_lsn() >= Lsn(active_first.0 - 1));
        }
        // Chop a SEALED segment: corruption, not a crash artifact.
        let segs = crate::segment::list_segments(&dir).unwrap();
        let sealed_path = &segs[0].1;
        let pre = std::fs::metadata(sealed_path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(sealed_path)
            .unwrap()
            .set_len(pre - 3)
            .unwrap();
        let Err(err) = LogManager::open_dir(&dir, 48) else {
            panic!("a torn sealed segment must be rejected");
        };
        assert!(
            err.to_string().contains("sealed"),
            "want a sealed-torn corruption error, got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_during_seal_reopens_either_way() {
        let dir = seg_dir("midseal");
        {
            let log = LogManager::open_dir(&dir, 48).unwrap();
            for i in 1..=12 {
                log.append_force(&begin(i)).unwrap();
            }
            assert!(log.segment_catalog().len() >= 2);
        }
        // Case A: the crash happened after the seal created the new empty
        // active file — reopen adopts it (empty active is fine).
        {
            let log = LogManager::open_dir(&dir, 48).unwrap();
            assert_eq!(log.durable_lsn(), Lsn(12));
        }
        // Case B: the directory entry for the new active file was lost in
        // the crash — the previously sealed file becomes active again. It
        // ends at a record boundary, so nothing is torn.
        let segs = crate::segment::list_segments(&dir).unwrap();
        if std::fs::metadata(&segs.last().unwrap().1).unwrap().len() == 0 {
            std::fs::remove_file(&segs.last().unwrap().1).unwrap();
        }
        let log = LogManager::open_dir(&dir, 48).unwrap();
        assert_eq!(log.durable_lsn(), Lsn(12));
        assert_eq!(log.append(&begin(13)), Lsn(13));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_error_releases_baton_and_surfaces() {
        let dir = seg_dir("ioerr");
        let log = LogManager::open_dir(&dir, 1 << 20).unwrap();
        log.append_force(&begin(1)).unwrap();
        // Destroy the backing directory out from under the log: the next
        // seal-free append flush still writes into the (unlinked) active
        // file handle, so force an error by sealing into a missing dir.
        std::fs::remove_dir_all(&dir).unwrap();
        let l2 = log.append(&begin(2));
        // Writing to an unlinked file succeeds on POSIX; the point of this
        // test is the *protocol*: an error (if any) must not wedge the
        // flusher baton. Simulate the worst case by a recycle on a missing
        // dir after truncation, then prove flush_to still works.
        log.truncate_before(Lsn(2));
        let _ = log.recycle_segments();
        log.flush_to(l2).unwrap();
        assert_eq!(log.durable_lsn(), l2);
    }

    #[test]
    fn concurrent_appends_get_unique_lsns() {
        let log = std::sync::Arc::new(LogManager::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| log.append(&begin(i)).0)
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800);
    }
}
