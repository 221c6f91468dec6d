//! The eight scripted concurrency scenarios the explorer replays.
//!
//! Each scenario is a plain `fn()` executed as thread 0 of a controlled
//! run (see `obr_sync::model::run_controlled`); it spawns its worker
//! threads through the `obr_sync::thread` facade so every lock, atomic,
//! and condvar operation becomes a scheduling decision. Scenario bodies
//! carry their own correctness assertions — a schedule that violates one
//! surfaces as `RunResult::Panic` with the failing seed attached by the
//! explorer.
//!
//! Determinism rules for scenario bodies: no wall-clock reads, no OS
//! randomness, explicit shard counts (`BufferPool::with_shards`), and any
//! file paths derived from a process-local counter.

use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use obr_btree::BTree;
use obr_core::{SideEntry, SideFile, SideOp};
use obr_lock::{LockError, LockManager, LockMode, OwnerId, ResourceId};
use obr_storage::{BufferPool, DiskManager, FreeSpaceMap, InMemoryDisk, Lsn, PageId};
use obr_sync::thread;
use obr_wal::{LogManager, LogRecord, TxnId};

/// A named scenario body the explorer can run under any chooser.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable scenario name (used in CLI filters and reports).
    pub name: &'static str,
    /// One-line description for the coverage report.
    pub about: &'static str,
    /// The body executed as thread 0 of each controlled run.
    pub run: fn(),
}

/// All eight scenarios, in canonical order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "wal_group_commit",
            about: "group-commit baton handoff with 3 committers on one log",
            run: wal_group_commit,
        },
        Scenario {
            name: "wal_watermark_file",
            about: "durable-watermark publication vs. invariant readers (file-backed)",
            run: wal_watermark_file,
        },
        Scenario {
            name: "wal_truncate_vs_tail",
            about: "checkpoint truncation + segment recycle racing tail readers",
            run: wal_truncate_vs_tail,
        },
        Scenario {
            name: "pool_eviction_vs_flush",
            about: "shard eviction under memory pressure racing flush_pages",
            run: pool_eviction_vs_flush,
        },
        Scenario {
            name: "pool_discard_vs_stale_flush",
            about: "flush racing discard-and-reallocate of the same page id",
            run: pool_discard_vs_stale_flush,
        },
        Scenario {
            name: "sidefile_append_vs_drain",
            about: "side-file append racing the pass-3 catch-up drain",
            run: sidefile_append_vs_drain,
        },
        Scenario {
            name: "lock_retry_vs_undo",
            about: "reorganizer deadlock-retry against a transaction's undo path",
            run: lock_retry_vs_undo,
        },
        Scenario {
            name: "smo_neighbour_vs_flush",
            about: "leaf split re-linking its right neighbour racing a flush of that neighbour",
            run: smo_neighbour_vs_flush,
        },
    ]
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

fn rec(txn: u64, key: u64) -> LogRecord {
    LogRecord::TxnInsert {
        txn: TxnId(txn),
        page: PageId(1),
        key,
        value: vec![0xAB; 8],
        prev_lsn: obr_storage::Lsn::ZERO,
    }
}

/// Scenario 1: K committers append and force concurrently; exactly the
/// group-commit baton protocol of `LogManager::flush_to`. Asserts every
/// committer's target is durable when its flush returns and that the
/// final watermark covers everything appended.
fn wal_group_commit() {
    let log = Arc::new(LogManager::new());
    let handles: Vec<_> = (0..3u64)
        .map(|t| {
            let log = Arc::clone(&log);
            thread::spawn(move || {
                let mut last = obr_storage::Lsn::ZERO;
                for i in 0..2u64 {
                    last = log.append(&rec(t, t * 10 + i));
                }
                log.flush_to(last).expect("flush_to");
                let durable = log.durable_lsn();
                assert!(
                    durable >= last,
                    "committer {t}: flush_to({last:?}) returned with durable={durable:?}"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        log.durable_lsn(),
        obr_storage::Lsn(6),
        "all 6 records durable"
    );
    assert!(log.durable_is_written());
}

static FILE_SCENARIO_RUNS: AtomicU64 = AtomicU64::new(0);

/// Scenario 2: a writer appends and flushes a file-backed log while a
/// reader repeatedly checks the torn-watermark invariant: every LSN at or
/// below the published durable watermark must already be on disk. The
/// clean build holds this in every interleaving; the sabotage build
/// (`OBR_BUG_EARLY_WATERMARK=1`, model cfg only) publishes the watermark
/// before the write and some schedule catches it — that is the explorer's
/// teeth test.
fn wal_watermark_file() {
    // relaxed: run-local file-name uniqueness counter; deliberately a raw
    // std atomic so it is invisible to the model scheduler (it must not
    // add scheduling decisions or vary between schedules).
    let n = FILE_SCENARIO_RUNS.fetch_add(1, StdOrdering::Relaxed);
    let dir = std::env::temp_dir().join(format!("obr-race-wal-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Never seals: the schedule space is the baton protocol alone.
    let log = Arc::new(LogManager::open_dir(&dir, u64::MAX).expect("open file-backed log"));
    let writer = {
        let log = Arc::clone(&log);
        thread::spawn(move || {
            let a = log.append(&rec(1, 1));
            log.flush_to(a).expect("flush_to");
            let b = log.append(&rec(1, 2));
            log.flush_to(b).expect("flush_to");
        })
    };
    let reader = {
        let log = Arc::clone(&log);
        thread::spawn(move || {
            for _ in 0..4 {
                assert!(
                    log.durable_is_written(),
                    "durable watermark published before the batch reached the file"
                );
                thread::yield_now();
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    assert!(log.durable_is_written());
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

static TRUNC_SCENARIO_RUNS: AtomicU64 = AtomicU64::new(0);

/// Scenario 3: checkpoint truncation racing tail readers on a segmented
/// file-backed log. A writer appends and forces records (sealing tiny
/// segments as it goes) while a truncator repeatedly advances the
/// low-water mark ([`LogManager::truncate_before`]) and recycles sealed
/// segment files, and a reader snapshots the tail with
/// [`LogManager::records_from`]. Asserts the race documented on
/// `truncate_before`: every reader snapshot is atomic (contiguous LSNs,
/// no half-truncated view), `first_lsn` only moves forward, and the
/// surviving segment catalog stays contiguous — a crash mid-recycle must
/// never be able to leave a gap.
fn wal_truncate_vs_tail() {
    // relaxed: run-local file-name uniqueness counter; deliberately a raw
    // std atomic so it is invisible to the model scheduler (it must not
    // add scheduling decisions or vary between schedules).
    let n = TRUNC_SCENARIO_RUNS.fetch_add(1, StdOrdering::Relaxed);
    let dir = std::env::temp_dir().join(format!("obr-race-waltrunc-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 64-byte seal threshold: nearly every forced batch seals a segment,
    // so recycling has files to delete while the writer is mid-stream.
    let log = Arc::new(LogManager::open_dir(&dir, 64).expect("open segmented log"));
    let writer = {
        let log = Arc::clone(&log);
        thread::spawn(move || {
            for i in 0..5u64 {
                let lsn = log.append(&rec(1, i));
                log.flush_to(lsn).expect("flush_to");
            }
        })
    };
    let truncator = {
        let log = Arc::clone(&log);
        thread::spawn(move || {
            for _ in 0..2 {
                // A real checkpoint truncates at its low-water mark; any
                // durable LSN is a legal mark for the race's purposes.
                log.truncate_before(log.durable_lsn());
                log.recycle_segments().expect("recycle_segments");
                thread::yield_now();
            }
        })
    };
    let reader = {
        let log = Arc::clone(&log);
        thread::spawn(move || {
            let mut floor = obr_storage::Lsn::ZERO;
            for _ in 0..4 {
                let first = log.first_lsn();
                assert!(
                    first >= floor,
                    "first_lsn moved backwards: {first:?} after {floor:?}"
                );
                floor = first;
                let recs = log.records_from(obr_storage::Lsn(1)).expect("records_from");
                if let Some((lo, _)) = recs.first() {
                    assert!(
                        *lo >= floor,
                        "tail snapshot starts at {lo:?}, below first_lsn {floor:?}"
                    );
                    for (i, (lsn, _)) in recs.iter().enumerate() {
                        assert_eq!(
                            lsn.0,
                            lo.0 + i as u64,
                            "gap in a tail snapshot: truncation tore records_from"
                        );
                    }
                }
                thread::yield_now();
            }
        })
    };
    writer.join().unwrap();
    truncator.join().unwrap();
    reader.join().unwrap();

    // Quiesced: one more truncate+recycle, then the survivors must line up.
    log.truncate_before(log.durable_lsn());
    log.recycle_segments().expect("final recycle");
    assert_eq!(
        log.durable_lsn(),
        obr_storage::Lsn(5),
        "all 5 records durable"
    );
    let recs = log
        .records_from(obr_storage::Lsn(1))
        .expect("final records_from");
    assert_eq!(
        recs.first().map(|(l, _)| *l),
        Some(log.first_lsn()),
        "retained tail must start exactly at first_lsn"
    );
    assert_eq!(
        recs.last().map(|(l, _)| *l),
        Some(log.durable_lsn()),
        "retained tail must reach the durable watermark"
    );
    let cat = log.segment_catalog();
    assert_eq!(
        cat.first().map(|s| s.first_lsn),
        Some(log.first_lsn()),
        "oldest surviving segment must start at first_lsn (no over- or \
         under-recycle)"
    );
    for w in cat.windows(2) {
        assert_eq!(
            w[1].first_lsn.0,
            w[0].end_lsn.0 + 1,
            "segment catalog gap after concurrent recycle"
        );
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario 4: a tiny pool (capacity 2, 2 shards) forces evictions while
/// a second thread flushes pages by id. Asserts residency never exceeds
/// capacity and that every written page's first byte reaches the disk
/// image after the final flush. A WAL is attached so every write-back
/// exercises the production WAL-before-data hook (and its lock nesting:
/// frame latch → wal hook → log internals).
///
/// This scenario caught a real lost-write window: `FrameGuard::write`
/// used to set the dirty bit *before* taking the data latch, so a
/// flusher could write the old image and clear the bit, after which the
/// guarded modification sat in a clean-marked frame that eviction
/// dropped without write-back.
fn pool_eviction_vs_flush() {
    let disk = Arc::new(InMemoryDisk::new(8));
    let pool = Arc::new(BufferPool::with_shards(disk.clone(), 2, 2));
    let log = Arc::new(LogManager::new());
    pool.set_wal(Arc::clone(&log) as Arc<dyn obr_storage::WalFlush>);
    let writer = {
        let pool = Arc::clone(&pool);
        let log = Arc::clone(&log);
        thread::spawn(move || {
            for p in 0..4u32 {
                let lsn = log.append(&rec(9, u64::from(p)));
                let g = pool.fetch_new(PageId(p)).expect("fetch_new");
                {
                    let mut pg = g.write();
                    pg.body_mut()[0] = 0x40 + p as u8;
                    // A real LSN makes every write-back enforce the
                    // WAL-before-data rule through the hook.
                    pg.set_lsn(lsn);
                }
                drop(g);
                assert!(
                    pool.resident() <= 2,
                    "resident {} > capacity",
                    pool.resident()
                );
            }
        })
    };
    let flusher = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            for _ in 0..2 {
                pool.flush_pages(&[PageId(0), PageId(1), PageId(2), PageId(3)])
                    .expect("flush_pages");
            }
        })
    };
    writer.join().unwrap();
    flusher.join().unwrap();
    pool.flush_all().expect("flush_all");
    for p in 0..4u32 {
        let img = disk.read_page(PageId(p)).expect("read back");
        assert_eq!(
            img.body()[0],
            0x40 + p as u8,
            "page {p} lost its write across eviction/flush"
        );
    }
}

/// Scenario 5: a flusher races a discard-and-reallocate of the same page
/// id (the reorganizer's deallocate-then-reuse shape, ROADMAP item 5).
/// The flusher clones the frame's `Arc` out of the shard table; if the
/// discard and the reallocation complete while the flusher is suspended
/// before its disk write, the stale write lands *after* the new image
/// and clobbers it. The fix is the frame dead bit + retire barrier in
/// `BufferPool::discard`/`write_frame`; the model-only sabotage switch
/// `OBR_BUG_STALE_FRAME_FLUSH=1` disables the dead check so the teeth
/// test can prove this scenario still catches the original bug.
fn pool_discard_vs_stale_flush() {
    let disk = Arc::new(InMemoryDisk::new(8));
    let pool = Arc::new(BufferPool::with_shards(disk.clone(), 4, 2));
    // The doomed image of page 1.
    {
        let g = pool.fetch_new(PageId(1)).expect("fetch_new");
        g.write().body_mut()[0] = 0x0D;
    }
    let flusher = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            pool.flush_page(PageId(1)).expect("stale flush");
        })
    };
    let realloc = {
        let disk = Arc::clone(&disk);
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            // Deallocate the page. Once discard returns, the pool has no
            // claim on the id: the next owner's fresh image goes straight
            // to disk (the minimal model of reallocate-and-make-durable —
            // few scheduling decisions, so random sweeps actually reach
            // the stale-write window when the fix is sabotaged away).
            pool.discard(PageId(1));
            let mut img = obr_storage::Page::new();
            img.body_mut()[0] = 0x11;
            disk.write_page(PageId(1), &img).expect("new owner's image");
        })
    };
    flusher.join().unwrap();
    realloc.join().unwrap();
    let img = disk.read_page(PageId(1)).expect("read back");
    assert_eq!(
        img.body()[0],
        0x11,
        "stale flush of a discarded frame clobbered the reallocated page"
    );
}

/// Scenario 6: one thread appends side-file entries (reorganizer pass 2)
/// while another drains them front-to-back (pass-3 catch-up). Asserts
/// the drain sees every appended entry exactly once, in order.
fn sidefile_append_vs_drain() {
    let log = Arc::new(LogManager::new());
    let side = Arc::new(SideFile::new(Arc::clone(&log)));
    let done = Arc::new(obr_sync::atomic::AtomicBool::new(false));
    let appender = {
        let side = Arc::clone(&side);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for k in 0..4u64 {
                side.append(
                    TxnId(7),
                    SideEntry {
                        key: k,
                        op: SideOp::Upsert(PageId(2)),
                    },
                );
            }
            done.store(true, obr_sync::atomic::Ordering::Release);
        })
    };
    let drainer = {
        let side = Arc::clone(&side);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut drained = Vec::new();
            loop {
                if let Some((seq, entry)) = side.pop_front(TxnId(8)) {
                    drained.push((seq, entry.key));
                } else if done.load(obr_sync::atomic::Ordering::Acquire) && side.is_empty() {
                    break;
                } else {
                    thread::yield_now();
                }
            }
            drained
        })
    };
    appender.join().unwrap();
    let drained = drainer.join().unwrap();
    assert_eq!(drained.len(), 4, "drain must see every appended entry");
    let keys: Vec<u64> = drained.iter().map(|(_, k)| *k).collect();
    assert_eq!(
        keys,
        vec![0, 1, 2, 3],
        "catch-up must apply in append order"
    );
    assert!(side.is_empty());
    // 4 inserts + 4 deletes hit the log.
    assert_eq!(log.len(), 8, "every append and drain is logged");
}

/// Scenario 7: the reorganizer daemon's deadlock-retry protocol against a
/// transaction acquiring the same two pages in the opposite order (the
/// undo path's reverse traversal). The reorganizer is the registered —
/// and therefore preferred — deadlock victim: it must be the one that
/// backs off, and both sides must finish with the lock table empty.
fn lock_retry_vs_undo() {
    let m = Arc::new(LockManager::new());
    let reorg = OwnerId(100);
    let txn = OwnerId(1);
    m.register_reorganizer(reorg);
    let reorg_h = {
        let m = Arc::clone(&m);
        thread::spawn(move || {
            let mut retries = 0u32;
            loop {
                match m
                    .lock(reorg, ResourceId::Page(1), LockMode::RX)
                    .and_then(|()| m.lock(reorg, ResourceId::Page(2), LockMode::RX))
                {
                    Ok(()) => break,
                    Err(
                        LockError::Deadlock
                        | LockError::Timeout
                        | LockError::WouldBlock
                        | LockError::ConflictsWithReorg,
                    ) => {
                        // Daemon protocol: drop everything and retry.
                        m.release_all(reorg);
                        retries += 1;
                        assert!(retries < 32, "reorganizer retried forever");
                        thread::yield_now();
                    }
                    Err(e) => panic!("unexpected lock error: {e:?}"),
                }
            }
            m.release_all(reorg);
            retries
        })
    };
    let txn_h = {
        let m = Arc::clone(&m);
        thread::spawn(move || {
            let mut retries = 0u32;
            loop {
                match m
                    .lock(txn, ResourceId::Page(2), LockMode::X)
                    .and_then(|()| m.lock(txn, ResourceId::Page(1), LockMode::X))
                {
                    Ok(()) => break,
                    Err(
                        LockError::Deadlock
                        | LockError::Timeout
                        | LockError::WouldBlock
                        | LockError::ConflictsWithReorg,
                    ) => {
                        m.release_all(txn);
                        retries += 1;
                        assert!(retries < 32, "transaction retried forever");
                        thread::yield_now();
                    }
                    Err(e) => panic!("unexpected lock error: {e:?}"),
                }
            }
            // Undo complete: roll back releases in reverse order.
            m.unlock(txn, ResourceId::Page(1));
            m.unlock(txn, ResourceId::Page(2));
            retries
        })
    };
    reorg_h.join().unwrap();
    txn_h.join().unwrap();
    assert!(m.held_resources(reorg).is_empty());
    assert!(m.held_resources(txn).is_empty());
    assert!(
        m.validate_invariants().is_empty(),
        "lock table invariants violated after retry storm"
    );
}

/// Scenario 8: a leaf split re-links its right neighbour's back pointer
/// (§4.3) while another thread flushes that neighbour. WAL-before-data
/// (§5.1) covers side pointers too: the split must keep the neighbour
/// latched until it carries the `Smo` record's LSN, so a flush that writes
/// the new back pointer first forces the log through the record. A split
/// that releases the neighbour before stamping it lets the flush write the
/// page under its old LSN, ahead of the record.
fn smo_neighbour_vs_flush() {
    let disk = Arc::new(InMemoryDisk::new(8));
    let pool = Arc::new(BufferPool::with_shards(disk.clone(), 8, 2));
    let log = Arc::new(LogManager::new());
    pool.set_wal(Arc::clone(&log) as Arc<dyn obr_storage::WalFlush>);
    let fsm = Arc::new(FreeSpaceMap::new_all_free(8));
    let tree = BTree::create(Arc::clone(&pool), fsm, Arc::clone(&log)).expect("create");
    // Two full leaves, loaded straight to disk: the left one must split,
    // and its new sibling goes between it and its right neighbour.
    let records: Vec<(u64, Vec<u8>)> = (0..8u64).map(|k| (k * 10, vec![k as u8; 900])).collect();
    tree.bulk_load(&records, 1.0, 1.0).expect("bulk_load");
    let leaves = tree.leaves_in_key_order().expect("leaves");
    let [left, neighbour] = leaves[..] else {
        panic!("expected two leaves, got {leaves:?}");
    };
    let splitter = thread::spawn(move || {
        tree.insert(TxnId(1), Lsn::ZERO, 5, &[0xEE; 900])
            .expect("insert");
    });
    let flusher = {
        let (pool, log) = (Arc::clone(&pool), Arc::clone(&log));
        thread::spawn(move || {
            // Flush while the split is at work: it dirties the neighbour
            // when it write-latches it to re-link the back pointer.
            while !pool.is_dirty(neighbour) {
                thread::yield_now();
            }
            pool.flush_page(neighbour).expect("flush_page");
            let on_disk = disk.read_page(neighbour).expect("read back");
            (on_disk.left_sibling(), log.durable_lsn())
        })
    };
    splitter.join().unwrap();
    let (back_pointer, durable) = flusher.join().unwrap();
    let split_lsn = log
        .records_from(Lsn::ZERO)
        .expect("records")
        .into_iter()
        .find_map(|(lsn, rec)| match rec {
            LogRecord::Smo { images, .. } if images.iter().any(|(p, _)| *p == neighbour) => {
                Some(lsn)
            }
            _ => None,
        })
        .expect("the split logged its right neighbour");
    if back_pointer != left {
        assert!(
            durable >= split_lsn,
            "neighbour {neighbour} reached disk with the split's back pointer \
             {back_pointer} while the log was durable only through {durable:?}, \
             before the split's record {split_lsn:?}"
        );
    }
}
