//! Cross-crate integration tests through the public umbrella API.

use std::sync::Arc;

use obr::btree::SidePointerMode;
use obr::core::{recover, Database, FailPoint, FailSite, ReorgConfig, ReorgTrigger, Reorganizer};
use obr::storage::{DiskManager, InMemoryDisk};
use obr::txn::Session;

fn fresh(pages: u32) -> (Arc<InMemoryDisk>, Arc<Database>) {
    let disk = Arc::new(InMemoryDisk::new(pages));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        pages as usize,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    (disk, db)
}

#[test]
fn lifecycle_insert_degrade_reorganize_query() {
    let (_disk, db) = fresh(16_384);
    let s = Session::new(Arc::clone(&db));
    for k in 0..5000u64 {
        s.insert(k, &k.to_be_bytes()).unwrap();
    }
    for k in 0..5000u64 {
        if k % 4 != 0 {
            s.delete(k).unwrap();
        }
    }
    let before = db.tree().stats().unwrap();
    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
        .run()
        .unwrap();
    let after = db.tree().stats().unwrap();
    assert!(after.leaf_pages < before.leaf_pages);
    assert!(after.avg_leaf_fill > before.avg_leaf_fill * 2.0);
    // Every surviving record is still reachable.
    for k in (0..5000u64).step_by(4) {
        assert_eq!(s.read(k).unwrap().unwrap(), k.to_be_bytes());
    }
    assert_eq!(s.read(1).unwrap(), None);
    db.tree().validate().unwrap();
}

#[test]
fn scans_agree_with_point_reads_after_reorg() {
    let (_disk, db) = fresh(8192);
    let s = Session::new(Arc::clone(&db));
    for k in 0..2000u64 {
        s.insert(k * 5, &k.to_le_bytes()).unwrap();
    }
    for k in 0..2000u64 {
        if k % 2 == 0 {
            s.delete(k * 5).unwrap();
        }
    }
    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
        .run()
        .unwrap();
    let scan = s.scan(0, 10_000).unwrap();
    for (k, v) in &scan {
        assert_eq!(s.read(*k).unwrap().as_deref(), Some(v.as_slice()));
    }
    assert_eq!(
        scan.len(),
        (0..2000).filter(|k| k % 2 == 1 && k * 5 <= 10_000).count()
    );
}

#[test]
fn pass3_crash_resumes_from_stable_key() {
    let (disk, db) = fresh(32_768);
    // Tall, wide tree so pass 3 takes several stable points.
    let records: Vec<(u64, Vec<u8>)> = (0..12_000u64).map(|k| (k, vec![3u8; 64])).collect();
    db.tree().bulk_load(&records, 0.9, 0.05).unwrap();
    let before = db.tree().stats().unwrap();
    assert!(before.height >= 2);
    db.checkpoint().unwrap();
    let expected = db.tree().collect_all().unwrap();

    // Crash after the second stable point.
    let cfg = ReorgConfig {
        swap_pass: false,
        stable_interval: 3,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&db), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::Pass3AfterStable, 1));
    let err = reorg.pass3_shrink().unwrap_err();
    assert!(err.to_string().contains("injected crash"));
    let mut flip = false;
    db.crash(|_| {
        flip = !flip;
        flip
    })
    .unwrap();

    let db2 = Database::reopen(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        Arc::clone(db.log()),
        32_768,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let report = recover(&db2).unwrap();
    let resume = report
        .pass3_resume
        .expect("pass 3 was in flight: recovery must report the restart state");
    assert!(resume.new_root.is_valid());
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);

    // Resume pass 3 from the stable key and finish the switch.
    let reorg2 = Reorganizer::new(Arc::clone(&db2), cfg);
    reorg2.pass3_resume(resume).unwrap();
    let after = db2.tree().stats().unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
    assert!(
        after.height < before.height,
        "resumed pass 3 must still shrink the tree ({} -> {})",
        before.height,
        after.height
    );
}

#[test]
fn crash_between_passes_preserves_everything() {
    let (disk, db) = fresh(16_384);
    let records: Vec<(u64, Vec<u8>)> = (0..4000u64).map(|k| (k, vec![1u8; 64])).collect();
    db.tree().bulk_load(&records, 0.3, 0.9).unwrap();
    db.checkpoint().unwrap();
    let expected = db.tree().collect_all().unwrap();
    let cfg = ReorgConfig {
        swap_pass: false,
        shrink_pass: false,
        ..ReorgConfig::default()
    };
    Reorganizer::new(Arc::clone(&db), cfg)
        .pass1_compact()
        .unwrap();
    // Crash with NOTHING extra flushed (the log is volatile past the last
    // force); recovery must replay the whole pass from the log.
    db.log().flush_all().unwrap();
    db.crash(|_| false).unwrap();
    let db2 = Database::reopen(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        Arc::clone(db.log()),
        16_384,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    recover(&db2).unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
}

#[test]
fn aborted_transactions_never_survive_recovery() {
    let (disk, db) = fresh(4096);
    let s = Session::new(Arc::clone(&db));
    for k in 0..100u64 {
        s.insert(k, b"committed").unwrap();
    }
    db.checkpoint().unwrap();
    // An in-flight transaction dies with the crash.
    let mut t = s.begin();
    t.insert(1000, b"uncommitted").unwrap();
    t.delete(5).unwrap();
    db.log().flush_all().unwrap(); // even if its records reached the durable log
    std::mem::forget(t); // crash before commit
    db.crash(|_| true).unwrap();
    let db2 = Database::reopen(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        Arc::clone(db.log()),
        4096,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let report = recover(&db2).unwrap();
    assert!(report.losers_undone >= 1);
    let s2 = Session::new(Arc::clone(&db2));
    assert_eq!(s2.read(1000).unwrap(), None, "loser insert rolled back");
    assert_eq!(
        s2.read(5).unwrap().unwrap(),
        b"committed",
        "loser delete rolled back"
    );
}

#[test]
fn file_disk_round_trip() {
    use obr::storage::FileDisk;
    let dir = std::env::temp_dir().join(format!("obr-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.db");
    {
        let disk = Arc::new(FileDisk::open(&path, 2048).unwrap());
        let db =
            Database::create(disk as Arc<dyn DiskManager>, 2048, SidePointerMode::TwoWay).unwrap();
        let s = Session::new(Arc::clone(&db));
        for k in 0..500u64 {
            s.insert(k, &k.to_le_bytes()).unwrap();
        }
        Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
            .run()
            .unwrap();
        db.pool().flush_all().unwrap();
    }
    // Reopen the file: the tree is durable.
    {
        let disk = Arc::new(FileDisk::open(&path, 2048).unwrap());
        let pool = Arc::new(obr::storage::BufferPool::new(
            disk as Arc<dyn DiskManager>,
            2048,
        ));
        let fsm = Arc::new(obr::storage::FreeSpaceMap::new_all_allocated(2048));
        let log = Arc::new(obr::wal::LogManager::new());
        let tree = obr::btree::BTree::open(pool, fsm, log, obr::storage::PageId(0)).unwrap();
        assert_eq!(tree.validate().unwrap(), 500);
        assert_eq!(tree.search(123).unwrap().unwrap(), 123u64.to_le_bytes());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baseline_and_ours_produce_identical_data() {
    use obr::baseline::{TandemConfig, TandemReorganizer};
    let mk = || {
        let (_d, db) = fresh(8192);
        let records: Vec<(u64, Vec<u8>)> = (0..3000u64).map(|k| (k, vec![2u8; 64])).collect();
        db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
        db
    };
    let ours = mk();
    let theirs = mk();
    Reorganizer::new(Arc::clone(&ours), ReorgConfig::default())
        .run()
        .unwrap();
    TandemReorganizer::new(Arc::clone(&theirs), TandemConfig::default())
        .run()
        .unwrap();
    assert_eq!(
        ours.tree().collect_all().unwrap(),
        theirs.tree().collect_all().unwrap()
    );
    ours.tree().validate().unwrap();
    theirs.tree().validate().unwrap();
}

#[test]
fn full_reorganization_races_live_transactions() {
    use obr::core::ReorgTrigger;
    use obr::txn::{run_workload, KeyDist, WorkloadConfig};
    use obr_sync::atomic::AtomicBool;
    use std::time::Duration;

    let disk = Arc::new(InMemoryDisk::new(32_768));
    let db = Database::create_with_regions(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        32_768,
        SidePointerMode::TwoWay,
        1024,
    )
    .unwrap();
    // A sparse, tall tree (low node fill) so every pass has work.
    let records: Vec<(u64, Vec<u8>)> = (0..6000u64).map(|k| (k * 4, vec![6u8; 64])).collect();
    db.tree().bulk_load(&records, 0.3, 0.1).unwrap();

    let stop = AtomicBool::new(false);
    let decision = std::thread::scope(|s| {
        let dbr = Arc::clone(&db);
        let h = s.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let r = Reorganizer::new(dbr, ReorgConfig::default());
            r.run_if_needed(ReorgTrigger::default()).unwrap()
        });
        let wl = WorkloadConfig {
            readers: 2,
            updaters: 2,
            key_space: 30_000,
            duration: Duration::from_millis(700),
            dist: KeyDist::Uniform,
            ..WorkloadConfig::default()
        };
        let report = run_workload(&db, &wl, &stop);
        assert!(report.total_ops() > 0);
        h.join().unwrap()
    });
    assert!(decision.compacted, "{decision:?}");
    assert!(decision.shrunk, "{decision:?}");
    db.tree().validate().unwrap();
    // Every originally loaded key that was not deleted by the workload is
    // still present with its value; scan/point agreement holds.
    let s = Session::new(Arc::clone(&db));
    let scan = s.scan(0, u64::MAX).unwrap();
    for (k, v) in scan.iter().take(500) {
        assert_eq!(s.read(*k).unwrap().as_deref(), Some(v.as_slice()));
    }
}

#[test]
fn pass3_crash_during_catchup_resumes_after_build_finished() {
    use obr::core::STABLE_ALL_READ;
    let disk = Arc::new(InMemoryDisk::new(32_768));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        32_768,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..8000u64).map(|k| (k, vec![8u8; 64])).collect();
    db.tree().bulk_load(&records, 0.9, 0.1).unwrap();
    let before = db.tree().stats().unwrap();
    db.checkpoint().unwrap();
    let expected = db.tree().collect_all().unwrap();
    // Crash after the build finished but before the switch.
    let cfg = ReorgConfig {
        swap_pass: false,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&db), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::Pass3BeforeSwitch, 0));
    let _ = reorg.pass3_shrink().unwrap_err();
    db.crash(|p| p.0 % 2 == 0).unwrap();
    let db2 = Database::reopen(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        Arc::clone(db.log()),
        32_768,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let report = recover(&db2).unwrap();
    let resume = report.pass3_resume.expect("pass 3 in flight");
    assert_eq!(
        resume.stable_key, STABLE_ALL_READ,
        "the final stable record marks the build complete"
    );
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
    // Resume goes straight to catch-up + switch.
    Reorganizer::new(Arc::clone(&db2), cfg)
        .pass3_resume(resume)
        .unwrap();
    let after = db2.tree().stats().unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
    assert!(after.height < before.height);
}

#[test]
fn durable_database_restarts_from_files() {
    let dir = std::env::temp_dir().join(format!("obr-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let expected;
    {
        // Process 1: create, load, reorganize with a mid-unit "power cut"
        // (process exits without flushing anything further).
        let db = Database::create_durable(&dir, 8192, 256, SidePointerMode::TwoWay).unwrap();
        let s = Session::new(Arc::clone(&db));
        for k in 0..1500u64 {
            s.insert(k, &k.to_le_bytes()).unwrap();
        }
        for k in 0..1500u64 {
            if k % 3 != 0 {
                s.delete(k).unwrap();
            }
        }
        db.checkpoint().unwrap();
        expected = db.tree().collect_all().unwrap();
        let cfg = ReorgConfig {
            swap_pass: false,
            shrink_pass: false,
            ..ReorgConfig::default()
        };
        let reorg = Reorganizer::new(Arc::clone(&db), cfg)
            .with_fail_point(FailPoint::new(FailSite::AfterFirstMove, 1));
        let _ = reorg.pass1_compact().unwrap_err();
        db.log().flush_all().unwrap(); // the WAL contract: the log is durable
                                       // Drop everything without flushing pages: the "process" dies here.
    }
    {
        // Process 2: restart purely from the files on disk.
        let db = Database::open_durable(&dir, 256, SidePointerMode::TwoWay).unwrap();
        let report = recover(&db).unwrap();
        assert_eq!(report.forward_units_completed, 1);
        db.tree().validate().unwrap();
        assert_eq!(db.tree().collect_all().unwrap(), expected);
        // Finish the job and make it durable.
        Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
            .run()
            .unwrap();
        db.pool().flush_all().unwrap();
        db.log().flush_all().unwrap();
    }
    {
        // Process 3: clean restart sees the reorganized tree.
        let db = Database::open_durable(&dir, 256, SidePointerMode::TwoWay).unwrap();
        recover(&db).unwrap();
        db.tree().validate().unwrap();
        assert_eq!(db.tree().collect_all().unwrap(), expected);
        assert!(db.tree().stats().unwrap().avg_leaf_fill > 0.7);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Long-running soak: a bigger tree, several full churn/reorganize/crash
/// cycles. Run explicitly with `cargo test -- --ignored soak`.
#[test]
#[ignore = "soak test; run explicitly"]
fn soak_churn_reorganize_crash_cycles() {
    let disk = Arc::new(InMemoryDisk::new(131_072));
    let mut db = Database::create_with_regions(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        131_072,
        SidePointerMode::TwoWay,
        4096,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..40_000u64).map(|k| (k * 2, vec![9u8; 64])).collect();
    db.tree().bulk_load(&records, 0.9, 0.5).unwrap();
    let mut rng: u64 = 0x50A1C;
    for cycle in 0..5u64 {
        let s = Session::new(Arc::clone(&db));
        // Churn.
        for i in 0..8_000u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let k = rng % 120_000;
            if i % 3 == 0 {
                let _ = s.insert(k, &k.to_le_bytes());
            } else {
                let _ = s.delete(k);
            }
        }
        db.checkpoint().unwrap();
        let expected = db.tree().collect_all().unwrap();
        // Reorganize with a crash in the middle of pass 1.
        let cfg = ReorgConfig::default();
        let reorg = Reorganizer::new(Arc::clone(&db), cfg.clone())
            .with_fail_point(FailPoint::new(FailSite::AfterFirstMove, 3 + cycle));
        match reorg.run() {
            Ok(_) => {}
            Err(_) => {
                db.crash(|p| p.0 % 2 == cycle as u32 % 2).unwrap();
                let db2 = Database::reopen(
                    Arc::clone(&disk) as Arc<dyn DiskManager>,
                    Arc::clone(db.log()),
                    131_072,
                    SidePointerMode::TwoWay,
                )
                .unwrap();
                let report = recover(&db2).unwrap();
                if let Some(state) = report.pass3_resume {
                    Reorganizer::new(Arc::clone(&db2), cfg.clone())
                        .pass3_resume(state)
                        .unwrap();
                }
                Reorganizer::new(Arc::clone(&db2), cfg).run().unwrap();
                db = db2;
            }
        }
        db.tree().validate().unwrap();
        assert_eq!(db.tree().collect_all().unwrap(), expected, "cycle {cycle}");
        let stats = db.tree().stats().unwrap();
        assert!(
            stats.avg_leaf_fill > 0.6,
            "cycle {cycle}: {}",
            stats.avg_leaf_fill
        );
        // Log hygiene between cycles.
        db.truncate_log().unwrap();
    }
}

// ---- moved from crates/core (needs the txn layer) ----

fn edge_db(pages: u32) -> Arc<Database> {
    let disk = Arc::new(InMemoryDisk::new(pages));
    Database::create(
        disk as Arc<dyn DiskManager>,
        pages as usize,
        SidePointerMode::TwoWay,
    )
    .unwrap()
}

#[test]
fn repeated_reorganizations_converge_and_stay_converged() {
    use obr::txn::Session;
    let d = edge_db(16_384);
    let s = Session::new(Arc::clone(&d));
    for k in 0..4000u64 {
        s.insert(k, &k.to_le_bytes()).unwrap();
    }
    for k in 0..4000u64 {
        if k % 5 != 0 {
            s.delete(k).unwrap();
        }
    }
    // Three back-to-back full runs: the first does the work, the rest are
    // no-ops under the trigger.
    let mut acted = 0;
    for _ in 0..3 {
        let r = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
        let decision = r.run_if_needed(ReorgTrigger::default()).unwrap();
        if decision.compacted || decision.swapped || decision.shrunk {
            acted += 1;
        }
    }
    assert_eq!(acted, 1, "only the first run should find work");
    d.tree().validate().unwrap();
    assert_eq!(d.tree().stats().unwrap().records, 800);
}

#[test]
fn concurrent_partitioned_writers_with_reorganizer() {
    use obr::txn::{Session, TxnError};
    use std::collections::BTreeMap;
    // Each writer owns a disjoint key partition and keeps a private model;
    // the reorganizer runs across all partitions concurrently. At the end,
    // the union of the models must equal the tree exactly.
    let d = edge_db(32_768);
    let s0 = Session::new(Arc::clone(&d));
    for k in 0..8_000u64 {
        s0.insert(k, &k.to_be_bytes()).unwrap();
    }
    const WRITERS: u64 = 4;
    const SPAN: u64 = 2_000;
    let models: Vec<BTreeMap<u64, Vec<u8>>> = std::thread::scope(|scope| {
        let reorg_db = Arc::clone(&d);
        let rh = scope.spawn(move || {
            let cfg = ReorgConfig::default();
            for _ in 0..2 {
                let r = Reorganizer::new(Arc::clone(&reorg_db), cfg.clone());
                r.run().unwrap();
            }
        });
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let db = Arc::clone(&d);
            handles.push(scope.spawn(move || {
                let session = Session::new(db);
                let base = w * SPAN;
                let mut model: BTreeMap<u64, Vec<u8>> = (base..base + SPAN)
                    .map(|k| (k, k.to_be_bytes().to_vec()))
                    .collect();
                let mut rng = 0xFACE ^ w;
                for _ in 0..1_500 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let k = base + rng % SPAN;
                    if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(k) {
                        let v = rng.to_le_bytes().to_vec();
                        match session.insert(k, &v) {
                            Ok(()) => {
                                slot.insert(v);
                            }
                            Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {}
                            Err(e) => panic!("insert: {e}"),
                        }
                    } else {
                        match session.delete(k) {
                            Ok(_) => {
                                model.remove(&k);
                            }
                            Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {}
                            Err(e) => panic!("delete: {e}"),
                        }
                    }
                }
                model
            }));
        }
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        rh.join().unwrap();
        models
    });
    d.tree().validate().unwrap();
    let mut want: Vec<(u64, Vec<u8>)> = models.into_iter().flat_map(|m| m.into_iter()).collect();
    want.sort();
    assert_eq!(d.tree().collect_all().unwrap(), want);
}
