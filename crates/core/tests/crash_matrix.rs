//! Crash-injection matrix: every unit fail site × both logging strategies ×
//! several flush behaviours, plus forward recovery of pass 2's move chains
//! and parks, and recovery idempotence. Every scenario must end with the
//! exact pre-reorganization data and a structurally valid tree.

use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_core::{
    recover, CoreError, Database, FailPoint, FailSite, LogStrategy, PlacementPolicy,
    RecoveryReport, ReorgConfig, Reorganizer,
};
use obr_obs::TraceKind;
use obr_storage::{DiskManager, InMemoryDisk, Lsn, PageId};
use obr_wal::{LogRecord, ReorgKind};

fn val(k: u64) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    v.resize(64, 0x77);
    v
}

struct Scenario {
    disk: Arc<InMemoryDisk>,
    db: Arc<Database>,
    expected: Vec<(u64, Vec<u8>)>,
}

fn setup() -> Scenario {
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
    db.checkpoint().unwrap();
    let expected = db.tree().collect_all().unwrap();
    Scenario { disk, db, expected }
}

/// A fresh engine over the scenario's disk and the log of `crashed`.
fn reopen(sc: &Scenario, crashed: &Database) -> Arc<Database> {
    Database::reopen(
        Arc::clone(&sc.disk) as Arc<dyn DiskManager>,
        Arc::clone(crashed.log()),
        8192,
        SidePointerMode::TwoWay,
    )
    .unwrap()
}

/// Crash with the given flush behaviour, recover on a fresh engine, check
/// the data, and return the recovered database with recovery's report.
fn crash_and_recover(
    sc: &Scenario,
    mut keep: impl FnMut(PageId) -> bool,
) -> (Arc<Database>, RecoveryReport) {
    sc.db.crash(&mut keep).unwrap();
    let db2 = reopen(sc, &sc.db);
    let report = recover(&db2).unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
    (db2, report)
}

/// Kind and leaf-page count of the newest unit BEGIN on the log.
fn last_unit_begun(db: &Database) -> (ReorgKind, usize) {
    let records = db.log().records_from(Lsn(1)).unwrap();
    records
        .into_iter()
        .rev()
        .find_map(|(_, r)| match r {
            LogRecord::ReorgBegin {
                kind, leaf_pages, ..
            } => Some((kind, leaf_pages.len())),
            _ => None,
        })
        .expect("a unit began")
}

fn run_site(site: FailSite, nth: u64, strategy: LogStrategy, keep_mod: u64) {
    let sc = setup();
    let cfg = ReorgConfig {
        swap_pass: false,
        shrink_pass: false,
        log_strategy: strategy,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
        .with_fail_point(FailPoint::new(site, nth));
    match reorg.pass1_compact() {
        Err(CoreError::InjectedCrash(_)) => {}
        other => panic!("expected injected crash at {site:?}, got {other:?}"),
    }
    let mut i = 0u64;
    let (db2, _) = crash_and_recover(&sc, |_| {
        i += 1;
        keep_mod != 0 && i.is_multiple_of(keep_mod)
    });
    // The reorganization completes from LK.
    Reorganizer::new(Arc::clone(&db2), cfg)
        .pass1_compact()
        .unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
    assert!(db2.tree().stats().unwrap().avg_leaf_fill > 0.7);
}

#[test]
fn crash_after_begin_keys_only() {
    run_site(FailSite::AfterUnitBegin, 1, LogStrategy::KeysOnly, 2);
}

#[test]
fn crash_after_first_move_keys_only_nothing_flushed() {
    run_site(FailSite::AfterFirstMove, 0, LogStrategy::KeysOnly, 0);
}

#[test]
fn crash_after_first_move_keys_only_partial_flush() {
    run_site(FailSite::AfterFirstMove, 3, LogStrategy::KeysOnly, 2);
}

#[test]
fn crash_before_modify_keys_only() {
    run_site(FailSite::BeforeModify, 2, LogStrategy::KeysOnly, 3);
}

#[test]
fn crash_before_end_keys_only() {
    run_site(FailSite::BeforeEnd, 1, LogStrategy::KeysOnly, 2);
}

#[test]
fn crash_after_first_move_full_records() {
    run_site(FailSite::AfterFirstMove, 2, LogStrategy::FullRecords, 2);
}

#[test]
fn crash_before_modify_full_records() {
    run_site(FailSite::BeforeModify, 1, LogStrategy::FullRecords, 5);
}

/// Crash pass 2's unit number `nth` at `site` with `cfg`, check that it
/// was a one-leaf Move unit, recover forward, and let pass 2 finish.
fn crash_pass2_unit(sc: &Scenario, cfg: ReorgConfig, site: FailSite, nth: u64) -> Arc<Database> {
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
        .with_fail_point(FailPoint::new(site, nth));
    match reorg.pass2_swap_move() {
        Err(CoreError::InjectedCrash(_)) => {}
        other => panic!("expected a crash inside pass 2 at {site:?}, got {other:?}"),
    }
    // A Move unit lists its one source and the target.
    assert_eq!(last_unit_begun(&sc.db), (ReorgKind::Move, 2));
    let mut i = 0u64;
    let (db2, report) = crash_and_recover(sc, |_| {
        i += 1;
        i.is_multiple_of(2)
    });
    assert_eq!(report.forward_units_completed, 1, "{report:?}");
    let reorg2 = Reorganizer::new(Arc::clone(&db2), cfg);
    reorg2.pass2_swap_move().unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
    db2
}

#[test]
fn crash_during_pass2_move_is_forward_completed() {
    // After a random-placement pass 1, every pass-2 unit is a one-leaf Move
    // unit, which reaches the same fail sites as pass 1's copy-and-switch.
    let cfg = ReorgConfig {
        shrink_pass: false,
        placement: PlacementPolicy::Random(7),
        ..ReorgConfig::default()
    };
    for site in [FailSite::AfterFirstMove, FailSite::BeforeModify] {
        let sc = setup();
        Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
            .pass1_compact()
            .unwrap();
        crash_pass2_unit(&sc, cfg.clone(), site, 0);
    }
}

/// Interleaved inserts into a two-region tree (leaf region from page 512)
/// scatter its leaves over pages that all hold leaves, so pass 2 has to
/// run chains of moves, some of them cycles that start with a park.
fn interleaved() -> Scenario {
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create_with_regions(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..1000u64).map(|k| (k * 2, val(k))).collect();
    db.tree().bulk_load(&records, 0.85, 0.9).unwrap();
    let txn = db.begin_txn();
    let mut prev = Lsn::ZERO;
    for k in 0..1000u64 {
        prev = db.tree().insert(txn, prev, k * 2 + 1, &val(k)).unwrap();
    }
    db.note_txn_lsn(txn, prev);
    db.log()
        .append_force(&LogRecord::TxnCommit { txn })
        .unwrap();
    db.end_txn(txn);
    db.checkpoint().unwrap();
    let expected = db.tree().collect_all().unwrap();
    Scenario { disk, db, expected }
}

#[test]
fn crash_during_pass2_chain_is_forward_completed() {
    let cfg = ReorgConfig {
        shrink_pass: false,
        ..ReorgConfig::default()
    };
    // A clean run names the units: a park moves its leaf past the leaf
    // region, a chain unit moves one into it.
    let clean = interleaved();
    let region_end = 512 + clean.db.tree().stats().unwrap().leaf_pages as u64;
    Reorganizer::new(Arc::clone(&clean.db), cfg.clone())
        .pass2_swap_move()
        .unwrap();
    let dests: Vec<u64> = clean
        .db
        .tracer()
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::UnitBegin && e.pass == 2)
        .map(|e| e.a)
        .collect();
    let first_chain_unit = dests.iter().position(|&d| d < region_end).unwrap();
    let first_park = dests.iter().position(|&d| d >= region_end).unwrap();
    for nth in [first_chain_unit, first_park] {
        for site in [
            FailSite::AfterFirstMove,
            FailSite::BeforeModify,
            FailSite::BeforeEnd,
        ] {
            let db2 = crash_pass2_unit(&interleaved(), cfg.clone(), site, nth as u64);
            let after = db2.tree().stats().unwrap();
            assert_eq!(after.leaf_discontinuities(), 0, "{site:?} in unit {nth}");
        }
    }
}

#[test]
fn crash_in_a_pass2_only_run_leaves_pass1_restart_key_alone() {
    use obr_core::ReorgTrigger;
    // `run_if_needed` (the daemon's and REORG's path) runs pass 2 without
    // pass 1 when the fill is high enough. Recovery rebuilds LK from the
    // ENDs; a pass-2 END must not hand pass 1 a restart key, or the next
    // pass 1 skips the tree below the largest key pass 2 moved.
    let cfg = ReorgConfig {
        shrink_pass: false,
        ..ReorgConfig::default()
    };
    let trigger = ReorgTrigger {
        shrink: false,
        ..ReorgTrigger::default()
    };
    let clean = interleaved();
    let d = Reorganizer::new(Arc::clone(&clean.db), cfg.clone())
        .run_if_needed(trigger)
        .unwrap();
    assert!(!d.compacted && d.swapped, "{d:?}");
    let units = clean
        .db
        .tracer()
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::UnitBegin && e.pass == 2)
        .count() as u64;
    assert!(units > 1, "pass 2 ran {units} units");
    // Crash the last unit, which holds the largest keys pass 2 moves.
    for site in [FailSite::BeforeModify, FailSite::BeforeEnd] {
        let sc = interleaved();
        let fill_before = sc.db.tree().stats().unwrap().avg_leaf_fill;
        let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
            .with_fail_point(FailPoint::new(site, units - 1));
        match reorg.run_if_needed(trigger) {
            Err(CoreError::InjectedCrash(_)) => {}
            other => panic!("expected a crash inside pass 2 at {site:?}, got {other:?}"),
        }
        let mut i = 0u64;
        let (db2, report) = crash_and_recover(&sc, |_| {
            i += 1;
            i.is_multiple_of(2)
        });
        assert_eq!(report.forward_units_completed, 1, "{report:?}");
        assert_eq!(db2.reorg_table().lk().unwrap_or(0), 0, "{site:?}");
        Reorganizer::new(Arc::clone(&db2), cfg.clone())
            .pass1_compact()
            .unwrap();
        db2.tree().validate().unwrap();
        assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
        let fill_after = db2.tree().stats().unwrap().avg_leaf_fill;
        assert!(
            fill_after > 0.7,
            "{site:?}: pass 1 left the fill at {fill_before} -> {fill_after}"
        );
    }
}

#[test]
fn recovery_is_idempotent() {
    let sc = setup();
    let cfg = ReorgConfig {
        swap_pass: false,
        shrink_pass: false,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg)
        .with_fail_point(FailPoint::new(FailSite::BeforeModify, 1));
    let _ = reorg.pass1_compact().unwrap_err();
    sc.db.crash(|p| p.0 % 3 == 0).unwrap();
    let db2 = reopen(&sc, &sc.db);
    let r1 = recover(&db2).unwrap();
    assert_eq!(r1.forward_units_completed, 1);
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
    // A second crash immediately after recovery (nothing new flushed)
    // must recover to the same state: redo + forward recovery are
    // idempotent.
    db2.log().flush_all().unwrap();
    db2.crash(|_| false).unwrap();
    let db3 = reopen(&sc, &db2);
    let r2 = recover(&db3).unwrap();
    // The unit was already closed by the first recovery's END record.
    assert_eq!(r2.forward_units_completed, 0);
    db3.tree().validate().unwrap();
    assert_eq!(db3.tree().collect_all().unwrap(), sc.expected);
}

#[test]
fn double_crash_within_one_unit() {
    // Crash, recover (forward-completes the unit), start reorganizing
    // again, crash again in a later unit, recover again.
    let sc = setup();
    let cfg = ReorgConfig {
        swap_pass: false,
        shrink_pass: false,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::AfterFirstMove, 1));
    let _ = reorg.pass1_compact().unwrap_err();
    let (db2, _) = crash_and_recover(&sc, |p| p.0 % 2 == 0);
    let reorg2 = Reorganizer::new(Arc::clone(&db2), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::BeforeEnd, 2));
    let _ = reorg2.pass1_compact().unwrap_err();
    db2.crash(|p| p.0 % 2 == 1).unwrap();
    let db3 = reopen(&sc, &db2);
    recover(&db3).unwrap();
    db3.tree().validate().unwrap();
    assert_eq!(db3.tree().collect_all().unwrap(), sc.expected);
    Reorganizer::new(Arc::clone(&db3), cfg)
        .pass1_compact()
        .unwrap();
    assert_eq!(db3.tree().collect_all().unwrap(), sc.expected);
    assert!(db3.tree().stats().unwrap().avg_leaf_fill > 0.7);
}

#[test]
fn two_region_layout_packs_leaves_perfectly() {
    // §6: with leaves and internal pages in separate disk regions, pass 2
    // never meets an internal page in the leaf region and achieves perfect
    // physical key order.
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create_with_regions(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    // Churn: load, split-heavy inserts, random deletes.
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k * 2, val(k))).collect();
    db.tree().bulk_load(&records, 0.85, 0.9).unwrap();
    for k in 0..2000u64 {
        db.tree()
            .insert(
                obr_wal::TxnId(1),
                obr_storage::Lsn::ZERO,
                k * 2 + 1,
                &val(k),
            )
            .unwrap();
    }
    let mut rng = 0x2222u64;
    for k in 0..4000u64 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        if !rng.is_multiple_of(4) {
            let _ = db
                .tree()
                .delete(obr_wal::TxnId(1), obr_storage::Lsn::ZERO, k);
        }
    }
    let expected = db.tree().collect_all().unwrap();
    let reorg = Reorganizer::new(
        Arc::clone(&db),
        ReorgConfig {
            shrink_pass: false,
            ..ReorgConfig::default()
        },
    );
    reorg.pass1_compact().unwrap();
    reorg.pass2_swap_move().unwrap();
    db.tree().validate().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
    let stats = db.tree().stats().unwrap();
    assert_eq!(
        stats.leaf_discontinuities(),
        0,
        "regions + pass 2 must yield perfect contiguity: {:?}",
        stats.leaves_in_key_order
    );
    // Every leaf sits in the leaf region; every internal page below it.
    for l in &stats.leaves_in_key_order {
        assert!(l.0 >= 512, "leaf {l} in the internal region");
    }
    assert_eq!(reorg.stats().skipped_placements, 0);
}

#[test]
fn log_truncation_respects_the_low_water_mark() {
    use obr_txn_free::run_committed_ops;
    mod obr_txn_free {
        use super::*;
        pub fn run_committed_ops(db: &Arc<Database>, n: u64) {
            for k in 0..n {
                let txn = db.begin_txn();
                let lsn = db
                    .tree()
                    .insert(txn, obr_storage::Lsn::ZERO, 100_000 + k, &val(k))
                    .unwrap();
                db.note_txn_lsn(txn, lsn);
                db.log()
                    .append_force(&obr_wal::LogRecord::TxnCommit { txn })
                    .unwrap();
                db.end_txn(txn);
            }
        }
    }
    let sc = setup();
    run_committed_ops(&sc.db, 200);
    let before = sc.db.log().len();
    let dropped = sc.db.truncate_log().unwrap();
    assert!(dropped > 0, "quiescent truncation should drop the prefix");
    assert!(sc.db.log().len() < before);
    // Crash right after truncation: recovery still works from the
    // checkpoint the truncation wrote.
    sc.db.log().flush_all().unwrap();
    sc.db.crash(|_| false).unwrap();
    let db2 = reopen(&sc, &sc.db);
    recover(&db2).unwrap();
    db2.tree().validate().unwrap();
    let mut expected = sc.expected.clone();
    expected.extend((0..200u64).map(|k| (100_000 + k, val(k))));
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
}

#[test]
fn active_transaction_pins_the_low_water_mark() {
    let sc = setup();
    let txn = sc.db.begin_txn();
    let first_lsn = sc
        .db
        .tree()
        .insert(txn, obr_storage::Lsn::ZERO, 999_999, &val(1))
        .unwrap();
    sc.db.note_txn_lsn(txn, first_lsn);
    // Lots of unrelated committed work + a checkpoint cannot advance the
    // mark past the open transaction's first record.
    for k in 0..50u64 {
        let t2 = sc.db.begin_txn();
        let l = sc
            .db
            .tree()
            .insert(t2, obr_storage::Lsn::ZERO, 200_000 + k, &val(k))
            .unwrap();
        sc.db.note_txn_lsn(t2, l);
        sc.db
            .log()
            .append_force(&obr_wal::LogRecord::TxnCommit { txn: t2 })
            .unwrap();
        sc.db.end_txn(t2);
    }
    sc.db.checkpoint().unwrap();
    // The open transaction's undo chain ends at its first update record;
    // the mark stays there while the transaction lives.
    let mark_while_open = sc.db.log_low_water_mark();
    assert_eq!(mark_while_open, first_lsn);
    sc.db.end_txn(txn);
    sc.db.checkpoint().unwrap();
    assert!(sc.db.log_low_water_mark() > mark_while_open);
}

#[test]
fn open_reader_does_not_pin_the_log() {
    let sc = setup();
    // A transaction that has begun and read, and stays open.
    let reader = sc.db.begin_txn();
    sc.db.tree().search(7).unwrap();
    let appended_at_begin = sc.db.log().next_lsn();
    for k in 0..50u64 {
        let t = sc.db.begin_txn();
        let l = sc
            .db
            .tree()
            .insert(t, obr_storage::Lsn::ZERO, 200_000 + k, &val(k))
            .unwrap();
        sc.db.note_txn_lsn(t, l);
        sc.db
            .log()
            .append_force(&obr_wal::LogRecord::TxnCommit { txn: t })
            .unwrap();
        sc.db.end_txn(t);
    }
    // It has no log record, so nothing of it needs keeping: truncation
    // drops everything below the checkpoint it writes.
    let dropped = sc.db.truncate_log().unwrap();
    assert!(dropped >= 100, "dropped {dropped} records");
    let (ckpt, _) = sc.db.log().last_checkpoint().unwrap().unwrap();
    assert_eq!(sc.db.log_low_water_mark(), ckpt);
    assert!(sc.db.log().first_lsn() > appended_at_begin);
    sc.db.end_txn(reader);
}

#[test]
fn loser_whose_first_record_is_an_update_is_undone() {
    let sc = setup();
    let loser = sc.db.begin_txn();
    let mut prev = obr_storage::Lsn::ZERO;
    for k in 0..5u64 {
        prev = sc
            .db
            .tree()
            .insert(loser, prev, 300_000 + k, &val(k))
            .unwrap();
        sc.db.note_txn_lsn(loser, prev);
    }
    let (last, _) = sc.db.tree().delete(loser, prev, 10).unwrap();
    sc.db.note_txn_lsn(loser, last);
    // The crash keeps every dirty page: the loser's changes are on disk and
    // only the undo pass can take them out again.
    sc.db.log().flush_all().unwrap();
    sc.db.crash(|_| true).unwrap();
    let db2 = reopen(&sc, &sc.db);
    let report = recover(&db2).unwrap();
    assert_eq!(report.losers_undone, 1);
    assert_eq!(report.clrs_written, 6);
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
}

#[test]
fn committed_update_whose_leaf_was_lost_is_redone() {
    let sc = setup();
    let txn = sc.db.begin_txn();
    let (lsn, old) = sc
        .db
        .tree()
        .update(txn, obr_storage::Lsn::ZERO, 10, b"updated")
        .unwrap();
    assert_eq!(old, val(10));
    sc.db.note_txn_lsn(txn, lsn);
    sc.db
        .log()
        .append_force(&obr_wal::LogRecord::TxnCommit { txn })
        .unwrap();
    sc.db.end_txn(txn);
    // No dirty page reaches disk: only redo of the update brings it back.
    sc.db.crash(|_| false).unwrap();
    let db2 = reopen(&sc, &sc.db);
    let report = recover(&db2).unwrap();
    assert!(report.redo_applied >= 1);
    assert_eq!(report.losers_undone, 0);
    db2.tree().validate().unwrap();
    let mut expected = sc.expected.clone();
    expected[10].1 = b"updated".to_vec();
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
}

#[test]
fn loser_update_that_reached_disk_is_undone() {
    let sc = setup();
    let loser = sc.db.begin_txn();
    let (lsn, _) = sc
        .db
        .tree()
        .update(loser, obr_storage::Lsn::ZERO, 10, b"uncommitted")
        .unwrap();
    sc.db.note_txn_lsn(loser, lsn);
    sc.db.log().flush_all().unwrap();
    sc.db.crash(|_| true).unwrap();
    let db2 = reopen(&sc, &sc.db);
    let report = recover(&db2).unwrap();
    assert_eq!((report.losers_undone, report.clrs_written), (1, 1));
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
}

#[test]
fn update_that_grows_into_a_split_aborts_to_the_old_value() {
    let sc = setup();
    let tree = sc.db.tree();
    let leaves = tree.stats().unwrap().leaf_pages;
    let txn = sc.db.begin_txn();
    // A quarter-full leaf has no room for 3 500 bytes more.
    let big = vec![0x99; 3500];
    let (lsn, old) = tree.update(txn, obr_storage::Lsn::ZERO, 10, &big).unwrap();
    sc.db.note_txn_lsn(txn, lsn);
    assert!(
        tree.stats().unwrap().leaf_pages > leaves,
        "the update split"
    );
    assert_eq!(tree.search(10).unwrap(), Some(big));
    // Abort as `Txn::rollback` does: compensate, then the abort record.
    tree.undo_update(txn, 10, &old, obr_storage::Lsn::ZERO)
        .unwrap();
    sc.db.log().append(&obr_wal::LogRecord::TxnAbort { txn });
    sc.db.end_txn(txn);
    tree.validate().unwrap();
    assert_eq!(tree.collect_all().unwrap(), sc.expected);
    // Split, update, CLR and abort replay to the same records.
    sc.db.log().flush_all().unwrap();
    crash_and_recover(&sc, |_| false);
}

#[test]
fn trigger_skips_healthy_trees_and_fixes_sick_ones() {
    use obr_core::ReorgTrigger;
    // A healthy tree: nothing should run.
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.9, 0.9).unwrap();
    let r = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    let d = r.run_if_needed(ReorgTrigger::default()).unwrap();
    assert!(!d.compacted && !d.swapped && !d.shrunk, "{d:?}");
    // A sparse tree: compaction (at least) must run.
    let sc = setup();
    let r2 = Reorganizer::new(Arc::clone(&sc.db), ReorgConfig::default());
    let d2 = r2.run_if_needed(ReorgTrigger::default()).unwrap();
    assert!(d2.compacted, "{d2:?}");
    sc.db.tree().validate().unwrap();
    assert_eq!(sc.db.tree().collect_all().unwrap(), sc.expected);
    assert!(sc.db.tree().stats().unwrap().avg_leaf_fill > 0.7);
}
