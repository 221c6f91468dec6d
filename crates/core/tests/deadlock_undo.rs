//! §5.2: "work must be undone if the reorganizer has already moved records
//! and gets into a deadlock situation." These tests engineer exactly that,
//! for a pass-1 compaction and for a pass-2 move — a user holds an S lock
//! on the unit's base page (so the reorganizer's
//! R→X upgrade must wait *after* its MOVEs were applied), then the user
//! requests the tree lock in X, closing a cycle. The reorganizer is always
//! the victim: it must undo the unit with compensating MOVE records, give
//! up its locks, and succeed on retry.

use std::sync::Arc;
use std::time::Duration;

use obr_btree::SidePointerMode;
use obr_core::{Database, PlacementPolicy, ReorgConfig, Reorganizer};
use obr_lock::{LockMode, ResourceId};
use obr_obs::TraceKind;
use obr_storage::{DiskManager, InMemoryDisk};

fn val(k: u64) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    v.resize(64, 0x99);
    v
}

#[test]
fn reorganizer_undoes_moved_records_when_victimized() {
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..1500u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
    let expected = db.tree().collect_all().unwrap();
    let first_base = db.tree().base_pages().unwrap()[0];
    let gen = db.tree().generation().unwrap();

    // The user reads the base page (S is compatible with the reorganizer's
    // R, so the unit proceeds all the way through its MOVEs).
    let user = db.new_owner();
    db.locks()
        .lock(user, ResourceId::Page(first_base.0), LockMode::S)
        .unwrap();

    let reorg = Reorganizer::new(
        Arc::clone(&db),
        ReorgConfig {
            swap_pass: false,
            shrink_pass: false,
            ..ReorgConfig::default()
        },
    );
    std::thread::scope(|s| {
        let handle = s.spawn(|| reorg.pass1_compact());
        // Give the first unit time to move its records and block on the
        // base-page X upgrade (our S lock holds it back).
        std::thread::sleep(Duration::from_millis(150));
        // Close the cycle: the user now wants the tree lock in X, which the
        // reorganizer holds in IX. Deadlock; the reorganizer is the victim.
        let locks = Arc::clone(db.locks());
        let user_wait = s.spawn(move || locks.lock(user, ResourceId::Tree(gen), LockMode::X));
        // Once the reorganizer has been victimized (and undone its unit),
        // its released IX lets the user's X through.
        user_wait.join().unwrap().unwrap();
        // Let the reorganizer retry against our still-held locks once or
        // twice, then get out of the way entirely.
        std::thread::sleep(Duration::from_millis(50));
        db.locks().release_all(user);
        handle.join().unwrap().unwrap();
    });

    let stats = reorg.stats();
    assert!(
        stats.units_undone >= 1,
        "the victimized unit must be undone via compensating moves: {stats:?}"
    );
    assert!(
        stats.deadlock_retries >= 1,
        "the reorganizer must have retried after the deadlock: {stats:?}"
    );
    // And the reorganization still completed correctly afterwards.
    db.tree().validate().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
    assert!(db.tree().stats().unwrap().avg_leaf_fill > 0.7);
}

#[test]
fn reorganizer_undoes_a_pass2_move_when_victimized() {
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create_with_regions(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
    let expected = db.tree().collect_all().unwrap();
    // With two regions pass 2 starts filling at the leaf region's first
    // page. Pass 1's first copy-and-switch emptied and freed it, so pass
    // 2's first unit moves the first leaf back there.
    let reorg = Reorganizer::new(
        Arc::clone(&db),
        ReorgConfig {
            placement: PlacementPolicy::FirstFree,
            shrink_pass: false,
            ..ReorgConfig::default()
        },
    );
    reorg.pass1_compact().unwrap();
    let after_pass1 = reorg.stats();
    let gen = db.tree().generation().unwrap();

    // The user reads every base page, so whichever leaf pass 2 moves first,
    // its unit blocks on the R→X upgrade after its MOVE.
    let user = db.new_owner();
    for base in db.tree().base_pages().unwrap() {
        db.locks()
            .lock(user, ResourceId::Page(base.0), LockMode::S)
            .unwrap();
    }
    std::thread::scope(|s| {
        let handle = s.spawn(|| reorg.pass2_swap_move());
        std::thread::sleep(Duration::from_millis(150));
        let locks = Arc::clone(db.locks());
        let user_wait = s.spawn(move || locks.lock(user, ResourceId::Tree(gen), LockMode::X));
        user_wait.join().unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        db.locks().release_all(user);
        handle.join().unwrap().unwrap();
    });

    let stats = reorg.stats();
    assert_eq!(after_pass1.units_undone, 0, "{after_pass1:?}");
    // Every unit pass 2 undid had moved its leaf first, so its undo is a
    // compensating move (§5.2).
    let events = db.tracer().events();
    let undone: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::UnitUndo && e.pass == 2)
        .map(|e| e.unit)
        .collect();
    assert!(!undone.is_empty(), "{stats:?}");
    for unit in undone {
        assert!(
            events
                .iter()
                .any(|e| e.kind == TraceKind::UnitMove && e.unit == unit),
            "undone unit {unit} is not a move"
        );
    }
    assert!(
        stats.units_undone >= 1,
        "the victimized move must be undone via compensating moves: {stats:?}"
    );
    assert!(
        stats.deadlock_retries > after_pass1.deadlock_retries,
        "pass 2 must have retried after the deadlock: {stats:?}"
    );
    db.tree().validate().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
}
