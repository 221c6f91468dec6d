//! Degenerate and boundary inputs for the reorganizer, plus a concurrent
//! partitioned-model stress test.

use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_core::{Database, ReorgConfig, Reorganizer};
use obr_storage::{DiskManager, InMemoryDisk};

fn db(pages: u32) -> Arc<Database> {
    let disk = Arc::new(InMemoryDisk::new(pages));
    Database::create(
        disk as Arc<dyn DiskManager>,
        pages as usize,
        SidePointerMode::TwoWay,
    )
    .unwrap()
}

#[test]
fn reorganizing_an_empty_tree_is_a_noop() {
    let d = db(256);
    let r = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    r.run().unwrap();
    assert_eq!(d.tree().validate().unwrap(), 0);
    assert_eq!(r.stats().units, 0);
}

#[test]
fn reorganizing_a_single_leaf_tree_is_a_noop() {
    let d = db(256);
    use obr_txn_like::*;
    mod obr_txn_like {
        pub use obr_storage::Lsn;
        pub use obr_wal::TxnId;
    }
    for k in 0..10u64 {
        d.tree().insert(TxnId(1), Lsn::ZERO, k, &[1; 16]).unwrap();
    }
    let r = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    r.run().unwrap();
    assert_eq!(d.tree().validate().unwrap(), 10);
    assert_eq!(r.stats().units, 0);
}

#[test]
fn already_compact_tree_produces_no_units() {
    let d = db(4096);
    let records: Vec<(u64, Vec<u8>)> = (0..3000u64).map(|k| (k, vec![2; 64])).collect();
    d.tree().bulk_load(&records, 0.9, 0.9).unwrap();
    let before = d.tree().stats().unwrap();
    let r = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    r.pass1_compact().unwrap();
    r.pass2_swap_move().unwrap();
    let after = d.tree().stats().unwrap();
    assert_eq!(before.leaves_in_key_order, after.leaves_in_key_order);
    assert_eq!(r.stats().units, 0, "{:?}", r.stats());
    d.tree().validate().unwrap();
}

#[test]
fn pass2_alone_orders_an_uncompacted_tree() {
    use obr_storage::Lsn;
    use obr_wal::TxnId;
    // §6 two-region layout: perfect ordering is only guaranteed when no
    // internal page can sit inside the leaf region.
    let disk = Arc::new(InMemoryDisk::new(8192));
    let d = Database::create_with_regions(
        disk as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    // Interleaved inserts produce scattered leaves without any compaction.
    let records: Vec<(u64, Vec<u8>)> = (0..1000u64).map(|k| (k * 2, vec![3; 64])).collect();
    d.tree().bulk_load(&records, 0.85, 0.9).unwrap();
    for k in 0..1000u64 {
        d.tree()
            .insert(TxnId(1), Lsn::ZERO, k * 2 + 1, &[4; 64])
            .unwrap();
    }
    let before = d.tree().stats().unwrap();
    assert!(before.leaf_discontinuities() > 0);
    let misplaced = (512u32..)
        .zip(&before.leaves_in_key_order)
        .filter(|&(target, &leaf)| leaf.0 != target)
        .count() as u64;
    let expected = d.tree().collect_all().unwrap();
    let log_bytes = || d.metrics().snapshot().counter("wal_append_bytes");
    let (bytes_before, disk_before) = (log_bytes(), d.disk().stats());
    let r = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    r.pass2_swap_move().unwrap();
    // Page writes until every page pass 2 dirtied is on disk, counted
    // before `validate`, which latches every page for writing. The swaps
    // this replaced took 83.
    d.pool().flush_all().unwrap();
    let writes = d.disk().stats().since(&disk_before).writes;
    let after = d.tree().stats().unwrap();
    assert_eq!(after.leaf_discontinuities(), 0);
    assert_eq!(d.tree().collect_all().unwrap(), expected);
    d.tree().validate().unwrap();
    // Every leaf's target is held by another leaf, so pass 2 runs chains,
    // and at least one is a cycle that needs a park. Each misplaced leaf
    // moves once, plus one move per park, and every unit logs keys only.
    let s = r.stats();
    assert!(s.swaps >= 1, "no park ran: {s:?}");
    assert_eq!(s.units, s.moves, "{s:?}");
    assert!(
        s.moves <= misplaced + s.swaps,
        "{misplaced} misplaced: {s:?}"
    );
    let pass2_bytes = log_bytes() - bytes_before;
    assert!(pass2_bytes <= 34_200, "pass 2 logged {pass2_bytes} bytes");
    assert!(writes <= 83, "pass 2 wrote {writes} pages");
}
