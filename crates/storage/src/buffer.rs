//! Sharded buffer pool with WAL coupling and *careful writing* \[LT95\].
//!
//! Two ordering rules make the paper's logging economies safe (§5):
//!
//! 1. **WAL**: before a dirty page is written, the log is flushed up to that
//!    page's LSN (via the [`WalFlush`] hook).
//! 2. **Careful writing**: a page may carry *write-order dependencies* — it
//!    cannot reach disk before its prerequisite pages are durable. The
//!    reorganizer uses this so a compaction destination is durable before the
//!    source page image may be overwritten/deallocated, which is what lets
//!    MOVE log records carry only keys instead of full record bodies.
//!
//! A cycle in the dependency graph is reported as an error: the paper notes
//! that a *swap* of two pages cannot be protected by careful writing (each
//! page would have to reach disk before the other), which is exactly why a
//! swap must log at least one full page image.
//!
//! # Sharding
//!
//! The frame table is split into a power-of-two number of *shards*, each
//! owning its slice of the frame map and of the write-dependency table.
//! A page id selects its shard by low bits, so consecutive pages land on
//! different shards and pins/lookups on different pages almost never
//! contend. The pool-wide frame budget is a single atomic counter:
//! admission reserves a slot before reading the page, eviction releases it,
//! and no operation ever takes more than one shard lock at a time (the
//! global-LRU victim scan visits shards sequentially). [`BufferPool::flush_all`]
//! sweeps shard by shard, snapshotting each shard's residents atomically
//! under that shard's lock in sorted page order — every page resident when
//! its shard is visited is flushed, with no gap between snapshot and sweep
//! for pages to slip through unrecorded.
//!
//! [`BufferPool::simulate_crash`] models a power failure: a caller-chosen
//! subset of dirty pages (closed under prerequisites, flushed prerequisite
//! first) reaches disk, all volatile state is dropped, the disk and the log
//! survive.

use obr_sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use obr_obs::{Counter, Gauge, Registry};
use obr_sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::disk::DiskManager;
use crate::error::{StorageError, StorageResult};
use crate::page::{Lsn, Page, PageId};

/// Hook the buffer pool uses to enforce write-ahead logging.
pub trait WalFlush: Send + Sync {
    /// Make the log durable up to and including `lsn`. An error means the
    /// log could NOT be made durable; the caller must not write the
    /// dependent page.
    fn flush_to(&self, lsn: Lsn) -> StorageResult<()>;
}

/// Upper bound on the shard count (beyond ~64 the shard array itself stops
/// paying for its footprint).
pub const MAX_POOL_SHARDS: usize = 64;

struct Frame {
    id: PageId,
    data: RwLock<Page>,
    pin: AtomicU32,
    dirty: AtomicBool,
    /// Set when the frame is retired: by discard and crash after it left
    /// its shard's table ([`Frame::retire`]), by eviction under the write
    /// latch just before it does. A flusher that
    /// cloned the frame's `Arc` out of the table before removal re-checks
    /// this under the data latch and skips the disk write: without it,
    /// the stale flush could land *after* the page id was reallocated and
    /// rewritten, clobbering the new page's image on disk (the flaky
    /// lost-write of ROADMAP item 5, caught by the
    /// `pool_discard_vs_stale_flush` scenario).
    dead: AtomicBool,
    last_used: AtomicU64,
}

impl Frame {
    /// Retire a frame that has just been removed from its shard table:
    /// publish `dead`, then cycle the data latch. The latch cycle is the
    /// barrier that makes retirement safe against in-flight flushers — a
    /// flusher holds the read latch across its dead-check and disk write,
    /// so by the time the write latch is granted here, every flusher that
    /// saw `dead == false` has already finished writing (i.e. before the
    /// caller returns and the page id can be reused), and every later
    /// flusher sees `dead == true` and skips. Sound only when nobody can
    /// fetch the page again until the caller returns — true for a discard
    /// (the caller owns the id) and a crash, not for an eviction, which
    /// therefore runs its barrier before the removal (`drop_clean_frame`).
    fn retire(&self) {
        if sabotage_stale_frame_flush() {
            return; // model-only: reintroduce the pre-fix behaviour whole
        }
        self.dead.store(true, Ordering::Release);
        drop(self.data.write());
    }
}

/// Test-only sabotage switch (model builds only): when
/// `OBR_BUG_STALE_FRAME_FLUSH=1`, frame retirement is a no-op and
/// `write_frame` skips the dead-frame check — the complete pre-fix
/// behaviour — so the interleaving explorer can prove the
/// `pool_discard_vs_stale_flush` scenario catches the stale write of a
/// retired frame. Never set outside `obr-race`'s teeth tests.
#[cfg(obr_model)]
fn sabotage_stale_frame_flush() -> bool {
    std::env::var_os("OBR_BUG_STALE_FRAME_FLUSH").is_some_and(|v| v == "1")
}

#[cfg(not(obr_model))]
fn sabotage_stale_frame_flush() -> bool {
    false
}

/// One shard: a slice of the frame table plus the write-order dependencies
/// whose *dependent* page hashes here. Lock ordering: a thread holds at most
/// one shard's `frames` lock at a time, and never a `frames` lock while
/// taking another shard's `deps` lock.
struct Shard {
    frames: Mutex<HashMap<PageId, Arc<Frame>>>,
    /// dependent -> prerequisite pages that must be durable first.
    deps: Mutex<HashMap<PageId, HashSet<PageId>>>,
}

/// Pool-level metric handles; published into a database's registry by
/// [`BufferPool::register_metrics`].
#[derive(Debug, Default)]
struct PoolMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    flushes: Counter,
    resident: Gauge,
}

/// A pinned page. Dropping the guard unpins the frame. `write()` marks the
/// frame dirty; these read/write guards are the *latches* of §4.1.3.
pub struct FrameGuard {
    frame: Arc<Frame>,
}

impl std::fmt::Debug for FrameGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameGuard")
            .field("id", &self.frame.id)
            .finish()
    }
}

impl FrameGuard {
    /// Page id of the pinned frame.
    pub fn id(&self) -> PageId {
        self.frame.id
    }

    /// Shared latch on the page contents.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.frame.data.read()
    }

    /// Exclusive latch; marks the frame dirty.
    ///
    /// The dirty bit is set *after* the latch is held. Setting it before
    /// opened a lost-write window (found by the `obr-race` interleaving
    /// explorer, scenario `pool_eviction_vs_flush`): a flusher could see
    /// the early dirty bit, win the data latch, write the *old* image,
    /// and clear the bit — leaving this guard's subsequent modification
    /// in a clean-marked frame that eviction then dropped without
    /// write-back. With the store under the latch, any flusher that
    /// clears the bit has already copied out every modification made
    /// before it, and any modification made after it re-dirties the
    /// frame.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        let guard = self.frame.data.write();
        self.frame.dirty.store(true, Ordering::Release);
        guard
    }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The buffer pool.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    capacity: usize,
    shards: Box<[Shard]>,
    shard_mask: usize,
    /// Frames currently resident across all shards; admission reserves a
    /// slot here *before* inserting, so the budget is never exceeded.
    resident: AtomicUsize,
    wal: RwLock<Option<Arc<dyn WalFlush>>>,
    clock: AtomicU64,
    metrics: PoolMetrics,
}

/// Default shard count: the machine's parallelism rounded up to a power of
/// two, clamped to `[8, MAX_POOL_SHARDS]` — empty shards cost a few dozen
/// bytes, so even small machines get enough shards that unrelated pages
/// rarely share a lock.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .clamp(8, MAX_POOL_SHARDS)
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`, sharded for the
    /// machine's parallelism.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> BufferPool {
        let shards = default_shards();
        Self::with_shards(disk, capacity, shards)
    }

    /// Create a pool with an explicit shard count (rounded up to a power of
    /// two, clamped to [`MAX_POOL_SHARDS`]). Interleaving scenarios and
    /// stress tests pick small counts so that unrelated pages share a shard
    /// lock.
    pub fn with_shards(disk: Arc<dyn DiskManager>, capacity: usize, shards: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        let n = shards.next_power_of_two().min(MAX_POOL_SHARDS);
        let shards: Box<[Shard]> = (0..n)
            .map(|_| Shard {
                frames: Mutex::named(HashMap::new(), "pool.shard.frames"),
                deps: Mutex::named(HashMap::new(), "pool.shard.deps"),
            })
            .collect();
        BufferPool {
            disk,
            capacity,
            shard_mask: n - 1,
            shards,
            resident: AtomicUsize::new(0),
            wal: RwLock::named(None, "pool.wal_hook"),
            clock: AtomicU64::new(0),
            metrics: PoolMetrics::default(),
        }
    }

    /// Publish this pool's counters into `reg` under the canonical `pool_*`
    /// names (see DESIGN.md "Observability"). They are pool-wide: no count
    /// is kept per shard.
    pub fn register_metrics(&self, reg: &Registry) {
        reg.register_counter("pool_hits", &self.metrics.hits);
        reg.register_counter("pool_misses", &self.metrics.misses);
        reg.register_counter("pool_evictions", &self.metrics.evictions);
        reg.register_counter("pool_flushes", &self.metrics.flushes);
        reg.register_gauge("pool_resident", &self.metrics.resident);
    }

    /// Shard owning `id`. Low bits: consecutive page ids round-robin across
    /// shards, which spreads both sequential scans and hot neighbours.
    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[id.0 as usize & self.shard_mask]
    }

    /// Number of shards the frame table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Install the WAL flush hook (set once the log manager exists).
    pub fn set_wal(&self, wal: Arc<dyn WalFlush>) {
        *self.wal.write() = Some(wal);
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Acquire)
    }

    /// Configured capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total page flushes performed by this pool.
    pub fn flush_count(&self) -> u64 {
        self.metrics.flushes.get()
    }

    fn touch(&self, frame: &Frame) {
        // relaxed: the clock is only a monotonic recency source and
        // last_used an eviction hint; a stale read picks a slightly
        // worse victim, never an incorrect one.
        frame.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Pin `id`, reading it from disk on a miss.
    pub fn fetch(&self, id: PageId) -> StorageResult<FrameGuard> {
        self.fetch_inner(id, true)
    }

    /// Pin `id` as a brand-new page: no disk read is issued, the frame starts
    /// as an all-zero page marked dirty. Use right after allocating `id`.
    pub fn fetch_new(&self, id: PageId) -> StorageResult<FrameGuard> {
        self.fetch_inner(id, false)
    }

    fn fetch_inner(&self, id: PageId, read_from_disk: bool) -> StorageResult<FrameGuard> {
        let shard = self.shard(id);
        loop {
            {
                let frames = shard.frames.lock();
                if let Some(frame) = frames.get(&id) {
                    frame.pin.fetch_add(1, Ordering::AcqRel);
                    self.touch(frame);
                    self.metrics.hits.inc();
                    return Ok(FrameGuard {
                        frame: Arc::clone(frame),
                    });
                }
            }
            // Miss: reserve a slot in the global budget before doing I/O so
            // concurrent admissions can never overshoot the capacity.
            if self
                .resident
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < self.capacity).then_some(n + 1)
                })
                .is_ok()
            {
                break;
            }
            // Pool at capacity: evict outside the shard lock, then retry.
            self.evict_one()?;
        }
        // Slot reserved: read (or zero-init) outside any shard lock.
        let page = if read_from_disk {
            match self.disk.read_page(id) {
                Ok(p) => p,
                Err(e) => {
                    self.resident.fetch_sub(1, Ordering::AcqRel);
                    return Err(e);
                }
            }
        } else {
            Page::new()
        };
        let mut frames = shard.frames.lock();
        // Another thread may have inserted meanwhile: give the slot back.
        if let Some(frame) = frames.get(&id) {
            self.resident.fetch_sub(1, Ordering::AcqRel);
            frame.pin.fetch_add(1, Ordering::AcqRel);
            self.touch(frame);
            self.metrics.hits.inc();
            return Ok(FrameGuard {
                frame: Arc::clone(frame),
            });
        }
        let frame = Arc::new(Frame {
            id,
            data: RwLock::named(page, "pool.frame.data"),
            pin: AtomicU32::new(1),
            dirty: AtomicBool::new(!read_from_disk),
            dead: AtomicBool::new(false),
            // relaxed: clock tick is a recency hint (see touch()).
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        self.touch(&frame);
        frames.insert(id, Arc::clone(&frame));
        self.metrics.misses.inc();
        self.metrics.resident.set(self.resident() as u64);
        Ok(FrameGuard { frame })
    }

    /// Pick the globally least-recently-used unpinned frame and retire it.
    /// Shard locks are taken one at a time: the scan is advisory (a frame may
    /// be pinned between selection and removal), so removal re-checks under
    /// the victim's data latch and shard lock.
    fn evict_one(&self) -> StorageResult<()> {
        if self.resident.load(Ordering::Acquire) < self.capacity {
            return Ok(());
        }
        let mut victim: Option<(u64, PageId)> = None;
        for shard in self.shards.iter() {
            let frames = shard.frames.lock();
            for f in frames.values() {
                if f.pin.load(Ordering::Acquire) == 0 {
                    // relaxed: recency hint read under the shard frames
                    // lock; staleness only affects victim quality.
                    let lu = f.last_used.load(Ordering::Relaxed);
                    if victim.is_none_or(|(best, _)| lu < best) {
                        victim = Some((lu, f.id));
                    }
                }
            }
        }
        let Some((_, victim)) = victim else {
            return Err(StorageError::PoolExhausted);
        };
        self.flush_page(victim)?;
        if self.drop_clean_frame(victim) {
            self.metrics.evictions.inc();
            self.metrics.resident.set(self.resident() as u64);
        }
        Ok(())
    }

    /// Drop `id`'s frame from the pool if it is still unpinned and clean;
    /// says whether it did.
    ///
    /// The frame's write latch is taken *before* it leaves the table. A
    /// flusher that cloned the frame out of the table holds the read latch
    /// across its dead-check and its disk write, so once the write latch is
    /// granted none is mid-write, and `dead`, set under it, turns away the
    /// ones still to come. Retiring after the removal instead — as
    /// `discard` may, because its caller owns the page id — left a window:
    /// any thread could fetch the page into a new frame, modify it and have
    /// that flushed while an old flusher's write of the previous image was
    /// still in flight, to land on top of it (the "lost its last write"
    /// flake of `pool_churn_under_eviction_and_flush`).
    fn drop_clean_frame(&self, id: PageId) -> bool {
        let shard = self.shard(id);
        // Bound first, so the frames guard is gone before the data latch
        // is requested (pool.shard.frames -> pool.frame.data is not a
        // vetted nesting; the reverse, used below, is).
        let candidate = shard.frames.lock().get(&id).cloned();
        let Some(f) = candidate else {
            return false;
        };
        if f.pin.load(Ordering::Acquire) != 0 {
            return false;
        }
        let latch = f.data.write();
        let dropped = {
            let mut frames = shard.frames.lock();
            let droppable = frames.get(&id).is_some_and(|cur| {
                Arc::ptr_eq(cur, &f)
                    && f.pin.load(Ordering::Acquire) == 0
                    && !f.dirty.load(Ordering::Acquire)
            });
            if droppable {
                f.dead.store(true, Ordering::Release);
                frames.remove(&id);
            }
            droppable
        };
        drop(latch);
        if dropped {
            self.resident.fetch_sub(1, Ordering::AcqRel);
        }
        dropped
    }

    /// Record that `dependent` may not reach disk before `prerequisite` is
    /// durable (careful writing).
    pub fn add_write_dependency(&self, dependent: PageId, prerequisite: PageId) {
        if dependent == prerequisite {
            return;
        }
        self.shard(dependent)
            .deps
            .lock()
            .entry(dependent)
            .or_default()
            .insert(prerequisite);
    }

    /// Number of outstanding write-order dependencies (diagnostics).
    pub fn pending_dependencies(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.deps.lock().values().map(HashSet::len).sum::<usize>())
            .sum()
    }

    /// Flush `id` (and, first, its transitive prerequisites). A no-op for
    /// clean or non-resident pages, except that their prerequisites are still
    /// honoured before the entry is cleared.
    pub fn flush_page(&self, id: PageId) -> StorageResult<()> {
        let mut visiting = HashSet::new();
        self.flush_rec(id, &mut visiting)
    }

    /// Flush a batch of pages (each with its prerequisites). Duplicates and
    /// already-clean pages are cheap no-ops; unlike [`Self::flush_all`] the
    /// disk is *not* fsynced — callers sequence their own sync barrier.
    ///
    /// Returns the ids that were **not resident** when visited — either
    /// already evicted (and therefore durable) or never fetched at all.
    /// Callers that must distinguish "already on disk" from "never dirtied"
    /// can cross-check the returned set against what they expect to have
    /// touched; a silent skip is no longer observable as a successful flush.
    pub fn flush_pages(&self, ids: &[PageId]) -> StorageResult<Vec<PageId>> {
        let mut skipped = Vec::new();
        for &id in ids {
            if !self.is_resident(id) {
                skipped.push(id);
            }
            self.flush_page(id)?;
        }
        Ok(skipped)
    }

    /// True when `id` currently occupies a pool frame.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.shard(id).frames.lock().contains_key(&id)
    }

    fn flush_rec(&self, id: PageId, visiting: &mut HashSet<PageId>) -> StorageResult<()> {
        if !visiting.insert(id) {
            return Err(StorageError::Corrupt(format!(
                "write-ordering cycle through page {id}; a swap must log a full page image instead"
            )));
        }
        let prereqs: Vec<PageId> = self
            .shard(id)
            .deps
            .lock()
            .get(&id)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for p in prereqs {
            self.flush_rec(p, visiting)?;
        }
        self.write_frame(id)?;
        self.shard(id).deps.lock().remove(&id);
        visiting.remove(&id);
        Ok(())
    }

    fn write_frame(&self, id: PageId) -> StorageResult<()> {
        let frame = {
            let frames = self.shard(id).frames.lock();
            match frames.get(&id) {
                Some(f) => Arc::clone(f),
                None => return Ok(()),
            }
        };
        if !frame.dirty.load(Ordering::Acquire) {
            return Ok(());
        }
        let page = frame.data.read();
        // Re-check liveness under the read latch: discard/eviction set
        // `dead` after removing the frame from the table and then cycle
        // the write latch (Frame::retire), so either this flush finishes
        // before the retirer returns, or `dead` is visible here and the
        // stale image never reaches disk.
        if frame.dead.load(Ordering::Acquire) && !sabotage_stale_frame_flush() {
            return Ok(());
        }
        if let Some(wal) = self.wal.read().clone() {
            wal.flush_to(page.lsn())?;
        }
        self.disk.write_page(id, &page)?;
        frame.dirty.store(false, Ordering::Release);
        self.metrics.flushes.inc();
        Ok(())
    }

    /// Flush every dirty page, honouring dependencies, then fsync the disk.
    ///
    /// The sweep is *atomic per shard and deterministic*: each shard's
    /// resident set is snapshotted in one critical section under that
    /// shard's lock and flushed in ascending page order, shard 0 first.
    /// Every page resident when its shard is visited is flushed — the old
    /// single global snapshot let pages inserted mid-flush slip through
    /// silently. Pages inserted into an *already-swept* shard during the
    /// sweep were dirtied after this call began; WAL redo covers them.
    pub fn flush_all(&self) -> StorageResult<()> {
        for shard in self.shards.iter() {
            let mut ids: Vec<PageId> = shard.frames.lock().keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                self.flush_page(id)?;
            }
        }
        self.disk.sync()?;
        Ok(())
    }

    /// True when the page is resident and dirty.
    pub fn is_dirty(&self, id: PageId) -> bool {
        self.shard(id)
            .frames
            .lock()
            .get(&id)
            .map(|f| f.dirty.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// A copy of the resident page `id` without pinning, faulting, or
    /// touching the LRU state — `None` when not resident. This is how
    /// observers (fsck over a live pool) read through the pool without
    /// perturbing it.
    pub fn peek(&self, id: PageId) -> Option<Page> {
        let frame = {
            let frames = self.shard(id).frames.lock();
            frames.get(&id).map(Arc::clone)
        };
        frame.map(|f| f.data.read().clone())
    }

    /// Page ids of every resident frame, in ascending order. Iterates the
    /// shards one lock at a time (the set is a snapshot, not a fence).
    pub fn resident_ids(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.frames.lock().keys().copied());
        }
        out.sort_unstable();
        out
    }

    /// Simulate a crash: flush the dirty pages selected by `keep` — closed
    /// under write-order prerequisites — then drop all volatile state.
    /// Returns the pages that made it to disk.
    ///
    /// The closure receives each dirty page id; returning `true` means the OS
    /// happened to write that page out before power was lost. Prerequisites
    /// of every written page are written too (careful writing guarantees the
    /// buffer manager never schedules them in the other order).
    pub fn simulate_crash(
        &self,
        mut keep: impl FnMut(PageId) -> bool,
    ) -> StorageResult<Vec<PageId>> {
        let mut dirty: Vec<PageId> = Vec::new();
        for shard in self.shards.iter() {
            let frames = shard.frames.lock();
            dirty.extend(
                frames
                    .values()
                    .filter(|f| f.dirty.load(Ordering::Acquire))
                    .map(|f| f.id),
            );
        }
        dirty.sort_unstable();
        let mut chosen: HashSet<PageId> = dirty.iter().copied().filter(|&id| keep(id)).collect();
        // Close under prerequisites.
        loop {
            let mut added = Vec::new();
            for &id in &chosen {
                let deps = self.shard(id).deps.lock();
                if let Some(pres) = deps.get(&id) {
                    for &p in pres {
                        if !chosen.contains(&p) {
                            added.push(p);
                        }
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            chosen.extend(added);
        }
        let mut flushed = Vec::new();
        for &id in &chosen {
            // flush_page writes prerequisites first; entries already clean
            // are skipped inside write_frame.
            self.flush_page(id)?;
            flushed.push(id);
        }
        for shard in self.shards.iter() {
            let drained: Vec<Arc<Frame>> = shard.frames.lock().drain().map(|(_, f)| f).collect();
            for f in drained {
                f.retire();
            }
            shard.deps.lock().clear();
        }
        self.resident.store(0, Ordering::Release);
        flushed.sort();
        Ok(flushed)
    }

    /// Flush everything and drop all unpinned frames: makes the next reads
    /// cold (used by experiments to measure real scan I/O).
    pub fn evict_all(&self) -> StorageResult<()> {
        self.flush_all()?;
        // Pinned frames stay, and so do frames re-dirtied since the flush
        // above — dropping those would silently lose the write (their
        // writer has already released its guard, so nothing would flush
        // them again).
        for id in self.resident_ids() {
            self.drop_clean_frame(id);
        }
        Ok(())
    }

    /// Drop a page from the pool without writing it (used after
    /// deallocation: the image is dead).
    pub fn discard(&self, id: PageId) {
        let shard = self.shard(id);
        // Bind the removal first: an `if let` on the chained expression
        // would keep the frames guard alive across retire()'s data-latch
        // barrier (edition-2021 scrutinee temporaries), nesting
        // pool.shard.frames -> pool.frame.data, which is not vetted.
        let removed = shard.frames.lock().remove(&id);
        if let Some(f) = removed {
            // Retire before returning: once this call returns, the caller
            // may deallocate and the id may be reallocated — any flusher
            // still holding the old frame must be done (or fenced off by
            // the dead bit) first.
            f.retire();
            self.resident.fetch_sub(1, Ordering::AcqRel);
        }
        shard.deps.lock().remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use crate::page::PageType;

    fn pool(pages: u32, cap: usize) -> (Arc<InMemoryDisk>, BufferPool) {
        let disk = Arc::new(InMemoryDisk::new(pages));
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, cap);
        (disk, pool)
    }

    #[test]
    fn fetch_reads_through_and_caches() {
        let (disk, pool) = pool(4, 4);
        {
            let g = pool.fetch(PageId(1)).unwrap();
            g.write().set_low_mark(99);
        }
        // Second fetch must hit the cache: no extra disk read.
        let before = disk.stats().reads;
        let g = pool.fetch(PageId(1)).unwrap();
        assert_eq!(g.read().low_mark(), 99);
        assert_eq!(disk.stats().reads, before);
    }

    #[test]
    fn fetch_new_skips_disk_read() {
        let (disk, pool) = pool(4, 4);
        let g = pool.fetch_new(PageId(2)).unwrap();
        assert_eq!(disk.stats().reads, 0);
        assert!(pool.is_dirty(PageId(2)));
        drop(g);
    }

    #[test]
    fn flush_writes_dirty_page_to_disk() {
        let (disk, pool) = pool(4, 4);
        {
            let g = pool.fetch(PageId(0)).unwrap();
            g.write().format(PageType::Leaf, 0);
        }
        pool.flush_page(PageId(0)).unwrap();
        assert!(!pool.is_dirty(PageId(0)));
        assert_eq!(
            disk.read_page(PageId(0)).unwrap().page_type(),
            Some(PageType::Leaf)
        );
    }

    #[test]
    fn flush_pages_reports_non_resident_ids() {
        let (disk, pool) = pool(8, 4);
        {
            let g = pool.fetch(PageId(1)).unwrap();
            g.write().format(PageType::Leaf, 0);
        }
        {
            let g = pool.fetch(PageId(2)).unwrap();
            g.write().format(PageType::Leaf, 0);
        }
        // Page 5 was never fetched; pages 1 and 2 are resident and dirty.
        let skipped = pool
            .flush_pages(&[PageId(1), PageId(5), PageId(2)])
            .unwrap();
        assert_eq!(skipped, vec![PageId(5)]);
        assert!(!pool.is_dirty(PageId(1)));
        assert_eq!(disk.stats().writes, 2);
        // A resident-but-clean page flushes as a no-op and is NOT skipped:
        // it is durable, not unknown.
        let skipped = pool.flush_pages(&[PageId(1)]).unwrap();
        assert!(skipped.is_empty());
        assert_eq!(disk.stats().writes, 2);
    }

    #[test]
    fn eviction_respects_pins_and_capacity() {
        let (_disk, pool) = pool(8, 2);
        let g0 = pool.fetch(PageId(0)).unwrap();
        {
            let _g1 = pool.fetch(PageId(1)).unwrap();
        } // unpinned
        let _g2 = pool.fetch(PageId(2)).unwrap(); // forces eviction of 1
        assert!(pool.resident() <= 2);
        drop(g0);
    }

    #[test]
    fn all_pinned_pool_is_exhausted() {
        let (_disk, pool) = pool(8, 2);
        let _g0 = pool.fetch(PageId(0)).unwrap();
        let _g1 = pool.fetch(PageId(1)).unwrap();
        match pool.fetch(PageId(2)) {
            Err(StorageError::PoolExhausted) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let disk = Arc::new(InMemoryDisk::new(8));
        let pool = BufferPool::with_shards(Arc::clone(&disk) as Arc<dyn DiskManager>, 8, 3);
        assert_eq!(pool.shard_count(), 4);
        let pool = BufferPool::with_shards(Arc::clone(&disk) as Arc<dyn DiskManager>, 8, 1);
        assert_eq!(pool.shard_count(), 1);
        let pool = BufferPool::with_shards(disk as Arc<dyn DiskManager>, 8, 1 << 20);
        assert_eq!(pool.shard_count(), MAX_POOL_SHARDS);
    }

    #[test]
    fn capacity_holds_across_shards() {
        // Capacity is a pool-wide budget, not per shard: 16 distinct pages
        // through a 4-frame pool must never leave more than 4 resident.
        let (_disk, pool) = pool(32, 4);
        for i in 0..16u32 {
            let g = pool.fetch(PageId(i)).unwrap();
            drop(g);
            assert!(pool.resident() <= 4, "resident {} > 4", pool.resident());
        }
    }

    #[test]
    fn peek_sees_resident_dirty_copy_without_faulting() {
        let (disk, pool) = pool(8, 8);
        assert!(pool.peek(PageId(3)).is_none());
        {
            let g = pool.fetch(PageId(3)).unwrap();
            g.write().set_low_mark(77);
        }
        let reads = disk.stats().reads;
        let p = pool.peek(PageId(3)).unwrap();
        assert_eq!(p.low_mark(), 77);
        assert_eq!(disk.stats().reads, reads, "peek must not touch the disk");
        // Still dirty: peek is an observer, not a flush.
        assert!(pool.is_dirty(PageId(3)));
    }

    #[test]
    fn resident_ids_iterates_all_shards_sorted() {
        let (_disk, pool) = pool(64, 64);
        for i in [9u32, 1, 30, 4, 17] {
            let _ = pool.fetch(PageId(i)).unwrap();
        }
        let ids: Vec<u32> = pool.resident_ids().iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![1, 4, 9, 17, 30]);
    }

    #[test]
    fn careful_writing_flushes_prerequisite_first() {
        let (disk, pool) = pool(8, 8);
        {
            let dest = pool.fetch(PageId(3)).unwrap();
            dest.write().set_low_mark(1);
            let org = pool.fetch(PageId(5)).unwrap();
            org.write().set_low_mark(2);
        }
        // org(5) may not reach disk before dest(3).
        pool.add_write_dependency(PageId(5), PageId(3));
        pool.flush_page(PageId(5)).unwrap();
        // Both must now be durable, and writes ordered dest-then-org.
        assert_eq!(disk.read_page(PageId(3)).unwrap().low_mark(), 1);
        assert_eq!(disk.read_page(PageId(5)).unwrap().low_mark(), 2);
        assert_eq!(pool.pending_dependencies(), 0);
    }

    #[test]
    fn dependency_cycle_is_reported_as_swap_hazard() {
        let (_disk, pool) = pool(8, 8);
        {
            let a = pool.fetch(PageId(1)).unwrap();
            a.write().set_low_mark(1);
            let b = pool.fetch(PageId(2)).unwrap();
            b.write().set_low_mark(2);
        }
        pool.add_write_dependency(PageId(1), PageId(2));
        pool.add_write_dependency(PageId(2), PageId(1));
        let err = pool.flush_page(PageId(1)).unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn crash_keeps_disk_but_drops_volatile_state() {
        let (disk, pool) = pool(8, 8);
        {
            let g = pool.fetch(PageId(0)).unwrap();
            g.write().set_low_mark(42);
        }
        // Lose everything: nothing reaches disk.
        let flushed = pool.simulate_crash(|_| false).unwrap();
        assert!(flushed.is_empty());
        assert_eq!(pool.resident(), 0);
        assert_eq!(disk.read_page(PageId(0)).unwrap().low_mark(), 0);
    }

    #[test]
    fn crash_closure_includes_prerequisites() {
        let (disk, pool) = pool(8, 8);
        {
            let dest = pool.fetch(PageId(3)).unwrap();
            dest.write().set_low_mark(7);
            let org = pool.fetch(PageId(5)).unwrap();
            org.write().set_low_mark(8);
        }
        pool.add_write_dependency(PageId(5), PageId(3));
        // "OS flushed page 5" — careful writing implies 3 went first.
        let flushed = pool.simulate_crash(|id| id == PageId(5)).unwrap();
        assert_eq!(flushed, vec![PageId(3), PageId(5)]);
        assert_eq!(disk.read_page(PageId(3)).unwrap().low_mark(), 7);
        assert_eq!(disk.read_page(PageId(5)).unwrap().low_mark(), 8);
    }

    #[test]
    fn wal_hook_called_before_page_write() {
        use obr_sync::atomic::AtomicU64;
        struct Probe {
            max_flushed: AtomicU64,
        }
        impl WalFlush for Probe {
            fn flush_to(&self, lsn: Lsn) -> StorageResult<()> {
                self.max_flushed.fetch_max(lsn.0, Ordering::SeqCst);
                Ok(())
            }
        }
        let (_disk, pool) = pool(4, 4);
        let probe = Arc::new(Probe {
            max_flushed: AtomicU64::new(0),
        });
        pool.set_wal(Arc::clone(&probe) as Arc<dyn WalFlush>);
        {
            let g = pool.fetch(PageId(0)).unwrap();
            g.write().set_lsn(Lsn(31));
        }
        pool.flush_page(PageId(0)).unwrap();
        assert_eq!(probe.max_flushed.load(Ordering::SeqCst), 31);
    }

    #[test]
    fn evict_all_keeps_frames_redirtied_mid_flush() {
        // A frame re-dirtied between evict_all's flush sweep and its
        // retain pass must survive: dropping it would lose the write (no
        // guard is outstanding, so nothing would ever flush it again).
        // Re-dirty deterministically through the WAL hook: page 16 shares
        // shard 0 with page 0 (16 shards) and flushes second, and its
        // hook invocation re-dirties the already-flushed page 0.
        struct RedirtyOnFlush {
            pool: std::sync::Weak<BufferPool>,
        }
        impl WalFlush for RedirtyOnFlush {
            fn flush_to(&self, lsn: Lsn) -> StorageResult<()> {
                if lsn == Lsn(0) {
                    return Ok(()); // page 0's own flush
                }
                if let Some(pool) = self.pool.upgrade() {
                    let g = pool.fetch(PageId(0)).unwrap();
                    g.write().set_low_mark(4242);
                }
                Ok(())
            }
        }
        let disk = Arc::new(InMemoryDisk::new(32));
        let pool = Arc::new(BufferPool::with_shards(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            32,
            16,
        ));
        let hook = Arc::new(RedirtyOnFlush {
            pool: Arc::downgrade(&pool),
        });
        pool.set_wal(Arc::clone(&hook) as Arc<dyn WalFlush>);
        {
            let g = pool.fetch(PageId(0)).unwrap();
            g.write().set_low_mark(1);
        }
        {
            let g = pool.fetch(PageId(16)).unwrap();
            g.write().set_lsn(Lsn(7)); // non-zero: fires the re-dirty hook
        }
        pool.evict_all().unwrap();
        assert!(pool.is_resident(PageId(0)), "re-dirtied frame was dropped");
        assert!(pool.is_dirty(PageId(0)));
        assert!(!pool.is_resident(PageId(16)), "clean frame must be evicted");
        pool.flush_all().unwrap();
        assert_eq!(
            disk.read_page(PageId(0)).unwrap().low_mark(),
            4242,
            "mid-evict write was lost"
        );
    }

    #[test]
    fn discard_fences_off_a_stale_flusher() {
        // A flusher that cloned the frame's Arc before a discard must not
        // write the dead image after the id is reallocated. Single-threaded
        // analogue: discard retires the frame, so a write_frame racing it
        // sees the dead bit (the full interleaving space is explored by
        // the `pool_discard_vs_stale_flush` obr-race scenario).
        let (disk, pool) = pool(4, 4);
        {
            let g = pool.fetch(PageId(1)).unwrap();
            g.write().set_low_mark(13);
        }
        pool.discard(PageId(1));
        // Reallocate the id with fresh content and make it durable.
        {
            let g = pool.fetch_new(PageId(1)).unwrap();
            g.write().set_low_mark(99);
        }
        pool.flush_page(PageId(1)).unwrap();
        assert_eq!(disk.read_page(PageId(1)).unwrap().low_mark(), 99);
    }

    #[test]
    fn discard_drops_dirty_page_silently() {
        let (disk, pool) = pool(4, 4);
        {
            let g = pool.fetch(PageId(1)).unwrap();
            g.write().set_low_mark(9);
        }
        pool.discard(PageId(1));
        pool.flush_all().unwrap();
        assert_eq!(disk.read_page(PageId(1)).unwrap().low_mark(), 0);
    }

    #[test]
    fn flush_all_sweeps_every_shard() {
        // Dirty a page in (what is almost certainly) every shard; one
        // flush_all must clean all of them — the per-shard snapshot cannot
        // skip a shard or a page.
        let (disk, pool) = pool(256, 256);
        for i in 0..128u32 {
            let g = pool.fetch(PageId(i)).unwrap();
            g.write().set_low_mark(u64::from(i) + 1);
        }
        pool.flush_all().unwrap();
        for i in 0..128u32 {
            assert!(!pool.is_dirty(PageId(i)), "page {i} still dirty");
            assert_eq!(
                disk.read_page(PageId(i)).unwrap().low_mark(),
                u64::from(i) + 1
            );
        }
    }

    #[test]
    fn flush_all_catches_pages_inserted_while_earlier_shards_flush() {
        // Regression for the flush_all TOCTOU: with the old single global
        // snapshot, a page inserted after the snapshot was silently skipped
        // even though it was resident long before flush_all returned. The
        // per-shard sweep snapshots each shard when it is visited, so a page
        // inserted into a *later* shard while earlier shards flush is still
        // caught. Simulate the interleaving deterministically through the
        // WAL hook, which runs mid-sweep for every dirty page.
        struct InsertOnFlush {
            pool: std::sync::Weak<BufferPool>,
            fired: AtomicBool,
        }
        impl WalFlush for InsertOnFlush {
            fn flush_to(&self, _lsn: Lsn) -> StorageResult<()> {
                if self.fired.swap(true, Ordering::SeqCst) {
                    return Ok(());
                }
                if let Some(pool) = self.pool.upgrade() {
                    // Highest page id: lands in the last-visited slot of its
                    // shard's sorted order — after the sweep position.
                    let g = pool.fetch(PageId(255)).unwrap();
                    g.write().set_low_mark(4242);
                }
                Ok(())
            }
        }
        let disk = Arc::new(InMemoryDisk::new(256));
        // Explicit shard count: page 0 -> shard 0, page 255 -> shard 15,
        // regardless of the machine the test runs on.
        let pool = Arc::new(BufferPool::with_shards(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            256,
            16,
        ));
        let hook = Arc::new(InsertOnFlush {
            pool: Arc::downgrade(&pool),
            fired: AtomicBool::new(false),
        });
        pool.set_wal(Arc::clone(&hook) as Arc<dyn WalFlush>);
        {
            // Page 0 lives in shard 0 and triggers the hook during the sweep.
            let g = pool.fetch(PageId(0)).unwrap();
            g.write().set_low_mark(1);
        }
        pool.flush_all().unwrap();
        // Page 255's shard is visited after page 0's flush fired the hook,
        // so the mid-flush insert must have been flushed too.
        assert!(!pool.is_dirty(PageId(255)), "mid-flush insert was skipped");
        assert_eq!(disk.read_page(PageId(255)).unwrap().low_mark(), 4242);
    }

    #[test]
    fn concurrent_fetch_same_page_is_safe() {
        let (_disk, pool) = pool(16, 16);
        let pool = Arc::new(pool);
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let g = pool.fetch(PageId((i % 16) as u32)).unwrap();
                        if t % 2 == 0 {
                            g.write().set_low_mark(i);
                        } else {
                            let _ = g.read().low_mark();
                        }
                    }
                });
            }
        });
        assert!(pool.resident() <= 16);
    }

    #[test]
    fn concurrent_misses_respect_capacity() {
        // 8 threads fetching disjoint pages through a tiny pool: the
        // reservation counter must keep residency at/below capacity at every
        // instant, and nothing deadlocks.
        let (_disk, pool) = pool(512, 8);
        let pool = Arc::new(pool);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..100u32 {
                        let id = PageId(t * 64 + (i % 64));
                        let g = pool.fetch(id).unwrap();
                        g.write().set_low_mark(u64::from(i));
                        drop(g);
                        assert!(pool.resident() <= 8);
                    }
                });
            }
        });
        assert!(pool.resident() <= 8);
        pool.flush_all().unwrap();
    }
}
