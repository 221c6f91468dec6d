//! End-to-end tests of the three-pass reorganization and forward recovery.

use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_core::{
    recover, Database, FailPoint, FailSite, LogStrategy, PlacementPolicy, ReorgConfig, Reorganizer,
};
use obr_storage::{DiskManager, InMemoryDisk, Lsn};

fn val(k: u64, len: usize) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    v.resize(len, 0x5A);
    v
}

/// Build a database whose tree is bulk-loaded sparse (fill `f1`).
fn sparse_db(pages: u32, n: u64, f1: f64) -> (Arc<InMemoryDisk>, Arc<Database>) {
    let disk = Arc::new(InMemoryDisk::new(pages));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        pages as usize,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..n).map(|k| (k * 3, val(k * 3, 64))).collect();
    db.tree().bulk_load(&records, f1, 0.9).unwrap();
    (disk, db)
}

fn cfg(swap: bool, shrink: bool) -> ReorgConfig {
    ReorgConfig {
        swap_pass: swap,
        shrink_pass: shrink,
        ..ReorgConfig::default()
    }
}

#[test]
fn pass1_compacts_without_losing_records() {
    let (_disk, db) = sparse_db(4096, 3000, 0.25);
    let before = db.tree().stats().unwrap();
    let expected = db.tree().collect_all().unwrap();
    assert!(before.avg_leaf_fill < 0.35);

    let reorg = Reorganizer::new(Arc::clone(&db), cfg(false, false));
    reorg.pass1_compact().unwrap();

    let after = db.tree().stats().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
    db.tree().validate().unwrap();
    assert!(
        after.avg_leaf_fill > 0.7,
        "fill {} should approach f2=0.9",
        after.avg_leaf_fill
    );
    assert!(
        after.leaf_pages < before.leaf_pages / 2,
        "leaves {} -> {}",
        before.leaf_pages,
        after.leaf_pages
    );
    let stats = reorg.stats();
    assert!(stats.units > 0);
    assert!(stats.pages_freed > 0);
}

#[test]
fn pass2_makes_leaves_contiguous() {
    let (_disk, db) = sparse_db(4096, 3000, 0.25);
    let reorg = Reorganizer::new(Arc::clone(&db), cfg(true, false));
    reorg.pass1_compact().unwrap();
    reorg.pass2_swap_move().unwrap();
    let stats = db.tree().stats().unwrap();
    db.tree().validate().unwrap();
    assert_eq!(
        stats.leaf_discontinuities(),
        0,
        "leaves must be physically contiguous in key order: {:?}",
        stats.leaves_in_key_order
    );
    assert_eq!(
        stats.scan_seek_distance(),
        stats.leaf_pages as u64 - 1,
        "a full scan should seek exactly one page per step"
    );
}

#[test]
fn full_three_pass_run_shrinks_the_tree() {
    // Low node fill at load time -> tall tree; reorganization should shrink.
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..6000u64).map(|k| (k, val(k, 64))).collect();
    db.tree().bulk_load(&records, 0.2, 0.05).unwrap();
    let before = db.tree().stats().unwrap();
    let gen_before = db.tree().generation().unwrap();
    let expected = db.tree().collect_all().unwrap();

    let reorg = Reorganizer::new(Arc::clone(&db), cfg(true, true));
    reorg.run().unwrap();

    let after = db.tree().stats().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
    db.tree().validate().unwrap();
    assert!(
        after.height < before.height,
        "height {} -> {} should shrink",
        before.height,
        after.height
    );
    assert!(after.internal_pages < before.internal_pages);
    assert_eq!(db.tree().generation().unwrap(), gen_before + 1);
    assert!(!db.tree().reorg_bit().unwrap());
    // Point lookups still work through the new tree.
    assert_eq!(db.tree().search(4242).unwrap().unwrap(), val(4242, 64));
}

#[test]
fn forward_recovery_completes_interrupted_unit() {
    let (disk, db) = sparse_db(4096, 2000, 0.25);
    let expected = db.tree().collect_all().unwrap();
    db.checkpoint().unwrap();

    // Crash mid-unit: after the first MOVE of the 3rd unit.
    let reorg = Reorganizer::new(Arc::clone(&db), cfg(false, false))
        .with_fail_point(FailPoint::new(FailSite::AfterFirstMove, 2));
    let err = reorg.pass1_compact().unwrap_err();
    assert!(err.to_string().contains("injected crash"));

    // Power failure: half the dirty pages happen to be on disk.
    let mut flip = false;
    db.crash(|_| {
        flip = !flip;
        flip
    })
    .unwrap();

    // Recover on a fresh engine over the surviving disk + log.
    let db2 = Database::reopen(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        Arc::clone(db.log()),
        4096,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let report = recover(&db2).unwrap();
    assert_eq!(
        report.forward_units_completed, 1,
        "the interrupted unit must be finished forward, not rolled back"
    );
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);

    // And the reorganization can continue from LK to completion.
    let reorg2 = Reorganizer::new(Arc::clone(&db2), cfg(false, false));
    reorg2.pass1_compact().unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
    assert!(db2.tree().stats().unwrap().avg_leaf_fill > 0.7);
}

#[test]
fn recovery_with_nothing_flushed_replays_all_work() {
    let (disk, db) = sparse_db(2048, 800, 0.3);
    let expected = db.tree().collect_all().unwrap();
    // Force the log (WAL) but flush no pages at all.
    let reorg = Reorganizer::new(Arc::clone(&db), cfg(false, false));
    reorg.pass1_compact().unwrap();
    db.log().flush_all().unwrap();
    db.crash(|_| false).unwrap();

    let db2 = Database::reopen(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        Arc::clone(db.log()),
        2048,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    recover(&db2).unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
}

#[test]
fn keys_only_logging_is_much_smaller_than_full_records() {
    // Log bytes pass 1 appends under `strategy`: the `wal_append_bytes`
    // delta across the pass.
    let pass1_log_bytes = |strategy: LogStrategy| {
        let (_d, db) = sparse_db(4096, 2000, 0.25);
        let appended = || db.metrics().snapshot().counter("wal_append_bytes");
        let before = appended();
        let mut c = cfg(false, false);
        c.log_strategy = strategy;
        Reorganizer::new(Arc::clone(&db), c)
            .pass1_compact()
            .unwrap();
        appended() - before
    };
    let b1 = pass1_log_bytes(LogStrategy::KeysOnly);
    let b2 = pass1_log_bytes(LogStrategy::FullRecords);
    assert!(
        b2 > b1 * 3,
        "full-record logging ({b2} B) should dwarf keys-only ({b1} B)"
    );
}

#[test]
fn heuristic_placement_reduces_pass2_swaps() {
    let run = |placement: PlacementPolicy| -> (u64, u64) {
        let (_d, db) = sparse_db(8192, 3000, 0.25);
        let mut c = cfg(true, false);
        c.placement = placement;
        let reorg = Reorganizer::new(Arc::clone(&db), c);
        reorg.pass1_compact().unwrap();
        reorg.pass2_swap_move().unwrap();
        db.tree().validate().unwrap();
        let s = reorg.stats();
        (s.swaps, s.moves)
    };
    let (swaps_h, _) = run(PlacementPolicy::Heuristic);
    let (swaps_r, _) = run(PlacementPolicy::Random(42));
    assert!(
        swaps_h <= swaps_r,
        "heuristic should not need more swaps ({swaps_h}) than random ({swaps_r})"
    );
}

#[test]
fn reorganization_preserves_data_under_concurrent_record_ops() {
    use obr_wal::TxnId;
    let (_disk, db) = sparse_db(8192, 3000, 0.3);
    let reorg = Reorganizer::new(Arc::clone(&db), cfg(true, false));
    let db2 = Arc::clone(&db);
    std::thread::scope(|s| {
        let h = s.spawn(move || {
            // Bare record ops race the reorganizer through the SMO epoch.
            for i in 0..500u64 {
                let k = 1_000_000 + i;
                db2.tree()
                    .insert(TxnId(99), Lsn::ZERO, k, &val(k, 32))
                    .unwrap();
                if i % 3 == 0 {
                    db2.tree().delete(TxnId(99), Lsn::ZERO, k).unwrap();
                }
            }
        });
        reorg.pass1_compact().unwrap();
        reorg.pass2_swap_move().unwrap();
        h.join().unwrap();
    });
    db.tree().validate().unwrap();
    // 500 inserted, every third deleted.
    let survivors = (0..500u64).filter(|i| i % 3 != 0).count() as u64;
    let scan = db.tree().range_scan(1_000_000, 2_000_000).unwrap();
    assert_eq!(scan.len() as u64, survivors);
}
