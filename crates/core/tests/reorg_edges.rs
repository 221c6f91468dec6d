//! Degenerate and boundary inputs for the reorganizer, plus a concurrent
//! partitioned-model stress test.

use std::sync::Arc;

use obr_btree::{LeafView, SidePointerMode};
use obr_core::{Database, ReorgConfig, ReorgDecision, ReorgStats, ReorgTrigger, Reorganizer};
use obr_storage::{DiskManager, InMemoryDisk, Lsn, PageId};
use obr_wal::TxnId;

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

/// Pass 2's shortest kept run (`KEEP_RUN` in reorg.rs).
const KEEP_RUN: usize = 8;

/// Maximal runs of key-adjacent leaves on consecutive pages.
fn runs(leaves: &[PageId]) -> Vec<&[PageId]> {
    leaves.chunk_by(|a, b| b.0 == a.0 + 1).collect()
}

fn keys_of(d: &Database, leaf: PageId) -> Vec<u64> {
    let g = d.pool().fetch(leaf).unwrap();
    let page = g.read();
    LeafView::of(&page).keys()
}

#[test]
fn pass2_keeps_long_runs_and_places_the_leaves_between() {
    let disk = Arc::new(InMemoryDisk::new(8192));
    let d = Database::create_with_regions(
        disk as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2200u64).map(|k| (k * 2, vec![5; 64])).collect();
    d.tree().bulk_load(&records, 0.85, 0.9).unwrap();
    let loaded = d.tree().stats().unwrap().leaves_in_key_order;
    assert_eq!(runs(&loaded).len(), 1, "{loaded:?}");
    // Split leaves 15, 31 and the last one with odd keys: the new leaves
    // land past the loaded ones. Then empty leaves 16, 17, 32 and 33, whose
    // pages come free right after the first two long runs.
    let last = loaded.len() - 1;
    for pos in [15, 31, last] {
        for k in keys_of(&d, loaded[pos]) {
            d.tree()
                .insert(TxnId(1), Lsn::ZERO, k + 1, &[6; 64])
                .unwrap();
        }
    }
    for pos in [16, 17, 32, 33] {
        for k in keys_of(&d, loaded[pos]) {
            d.tree().delete(TxnId(1), Lsn::ZERO, k).unwrap();
        }
    }
    let before = d.tree().stats().unwrap().leaves_in_key_order;
    let before_runs = runs(&before);
    eprintln!("layout before pass 2: {before_runs:?}");
    let kept: Vec<PageId> = before_runs
        .iter()
        .filter(|r| r.len() >= KEEP_RUN)
        .flat_map(|r| r.iter().copied())
        .collect();
    let kept_runs = before_runs.iter().filter(|r| r.len() >= KEEP_RUN).count();
    let short = before.len() - kept.len();
    assert_eq!(kept_runs, 3, "{before_runs:?}");
    assert!(short >= 3, "{before_runs:?}");
    let kept_keys: Vec<Vec<u64>> = kept.iter().map(|&p| keys_of(&d, p)).collect();
    let expected = d.tree().collect_all().unwrap();

    let r = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    r.pass2_swap_move().unwrap();
    d.tree().validate().unwrap();
    assert_eq!(d.tree().collect_all().unwrap(), expected);
    let after = d.tree().stats().unwrap().leaves_in_key_order;
    eprintln!("layout after pass 2: {:?}", runs(&after));
    // Every leaf of a kept run is where it was, holding what it held.
    for (p, keys) in kept.iter().zip(&kept_keys) {
        assert!(after.contains(p), "kept leaf {p} moved: {after:?}");
        assert_eq!(&keys_of(&d, *p), keys, "kept leaf {p} changed");
    }
    // Only the short-run leaves moved, each once, plus one move per park.
    let s = r.stats();
    assert!(s.moves > 0, "{s:?}");
    assert!(s.units <= short as u64 + s.swaps, "{short} short: {s:?}");
    assert!(
        runs(&after).len() <= 2 * kept_runs + 1,
        "{:?}",
        runs(&after)
    );
    // The result does not trigger pass 2 again.
    let again = Reorganizer::new(Arc::clone(&d), ReorgConfig::default())
        .run_if_needed(ReorgTrigger::default())
        .unwrap();
    assert!(!again.swapped, "{again:?}");
}

#[test]
fn stats_count_only_what_happened_since_the_reorganizer_was_built() {
    let disk = Arc::new(InMemoryDisk::new(8192));
    let d = Database::create_with_regions(
        disk as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    // Odd-key inserts split the loaded leaves onto scattered pages. Deletes
    // then leave the keys below 2000 sparse (pass 1 compacts them) and the
    // rest at about 0.6 fill (pass 2 only moves them).
    let records: Vec<(u64, Vec<u8>)> = (0..3000u64).map(|k| (k * 2, vec![7; 64])).collect();
    d.tree().bulk_load(&records, 0.85, 0.9).unwrap();
    for k in 0..3000u64 {
        d.tree()
            .insert(TxnId(1), Lsn::ZERO, k * 2 + 1, &[8; 64])
            .unwrap();
    }
    for k in (0..6000u64).filter(|&k| k % 4 == 1 || (k < 2000 && k % 8 != 0)) {
        d.tree().delete(TxnId(1), Lsn::ZERO, k).unwrap();
    }

    let expected = d.tree().collect_all().unwrap();
    let before = d.metrics().snapshot();
    let first = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    first.run().unwrap();
    let after = d.metrics().snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let s = first.stats();
    assert!(
        s.copy_switch_units + s.inplace_units > 0 && s.moves > 0,
        "{s:?}"
    );
    assert_eq!(s.units, delta("reorg_units_completed"), "{s:?}");
    assert_eq!(s.moves, delta("reorg_pass2_moves"), "{s:?}");
    assert_eq!(s.records_moved, delta("reorg_records_moved"), "{s:?}");

    // A second reorganizer over the now-compact, ordered tree moves nothing
    // in pass 2, finds no pass called for, and counts none of what the
    // first one did.
    let second = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    second.pass2_swap_move().unwrap();
    let decision = second.run_if_needed(ReorgTrigger::default()).unwrap();
    assert_eq!(decision, ReorgDecision::default());
    assert_eq!(second.stats(), ReorgStats::default());
    assert_eq!(first.stats(), s);
    d.tree().validate().unwrap();
    assert_eq!(d.tree().collect_all().unwrap(), expected);
}

#[test]
fn pass2_leaves_pass1_restart_key_alone() {
    // §5: LK is pass 1's restart position in key order. A pass-2 move that
    // set it would make the next pass 1 resume after the largest key pass 2
    // moved and skip the tree below it.
    let disk = Arc::new(InMemoryDisk::new(8192));
    let d = Database::create_with_regions(
        disk as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    // Odd-key inserts split the loaded leaves onto scattered pages, so pass
    // 2 has moves to make; deletes then bring the fill to about 0.21.
    let records: Vec<(u64, Vec<u8>)> = (0..1000u64).map(|k| (k * 2, vec![9; 64])).collect();
    d.tree().bulk_load(&records, 0.85, 0.9).unwrap();
    for k in 0..1000u64 {
        d.tree()
            .insert(TxnId(1), Lsn::ZERO, k * 2 + 1, &[9; 64])
            .unwrap();
    }
    for k in (0..2000u64).filter(|k| k % 8 >= 2) {
        d.tree().delete(TxnId(1), Lsn::ZERO, k).unwrap();
    }
    let fill = d.tree().stats().unwrap().avg_leaf_fill;
    assert!((0.17..0.25).contains(&fill), "fill {fill}");
    let expected = d.tree().collect_all().unwrap();
    let r = Reorganizer::new(Arc::clone(&d), ReorgConfig::default());
    r.pass2_swap_move().unwrap();
    let moved = r.stats();
    assert!(moved.moves > 0, "pass 2 found nothing to move: {moved:?}");
    assert_eq!(d.reorg_table().lk(), None, "pass 2 set LK");
    let fill_before = d.tree().stats().unwrap().avg_leaf_fill;
    r.pass1_compact().unwrap();
    let s = r.stats();
    assert!(
        s.units > moved.units,
        "pass 1 after pass 2 ran no unit: {s:?}"
    );
    let fill_after = d.tree().stats().unwrap().avg_leaf_fill;
    assert!(
        fill_after > fill_before,
        "pass 1 left the fill at {fill_before} -> {fill_after}"
    );
    r.run().unwrap();
    assert_eq!(d.reorg_table().lk(), None, "run() left LK set");
    d.tree().validate().unwrap();
    assert_eq!(d.tree().collect_all().unwrap(), expected);
}
