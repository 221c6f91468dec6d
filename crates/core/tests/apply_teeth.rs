//! Teeth for the debug-build shadow check of `obr_btree::apply`: every
//! logged page change is replayed through the record's apply on a copy of
//! the before-images and compared with the live pages byte for byte.
//! `OBR_BUG_OLD_MOVE_DEST=1` restores the MOVE destination handling that
//! came before one apply per record: the live unit formats a new-place
//! destination itself and logs a MOVE that does not say so, which a
//! replay cannot repeat. The check must catch that; with the switch off,
//! the same run is clean.
//!
//! This file holds one test: the switch is process-wide.
#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_core::{Database, PlacementPolicy, ReorgConfig, Reorganizer};
use obr_storage::{DiskManager, InMemoryDisk, Lsn};
use obr_wal::TxnId;

/// A sparse bulk-loaded tree whose first leaf lost its smallest keys, so
/// its base entry key is below its first record, compacted new-place.
fn compact_new_place() -> Arc<Database> {
    let disk = Arc::new(InMemoryDisk::new(2048));
    let db = Database::create(disk as Arc<dyn DiskManager>, 2048, SidePointerMode::TwoWay).unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..400).map(|k| (k, vec![7; 64])).collect();
    db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
    for k in 0..3 {
        db.tree().delete(TxnId(1), Lsn::ZERO, k).unwrap();
    }
    let cfg = ReorgConfig {
        placement: PlacementPolicy::FirstFree,
        ..ReorgConfig::default()
    };
    Reorganizer::new(Arc::clone(&db), cfg)
        .pass1_compact()
        .unwrap();
    db
}

#[test]
fn shadow_check_catches_the_old_move_dest_handling() {
    std::env::set_var("OBR_BUG_OLD_MOVE_DEST", "1");
    let sabotaged = catch_unwind(AssertUnwindSafe(compact_new_place));
    std::env::remove_var("OBR_BUG_OLD_MOVE_DEST");
    let message = match sabotaged {
        Ok(_) => panic!("the shadow check missed the old MOVE destination handling"),
        Err(e) => e.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(
        message.starts_with("apply ") && message.contains("ReorgMove"),
        "the check names the diverging MOVE: {message}"
    );

    let db = compact_new_place();
    assert_eq!(db.tree().validate().unwrap(), 397);
}
