//! Targeted tests for pass-3 machinery: the incremental upper-level builder
//! and the new-tree editor that applies side-file entries (including the
//! split and free-at-empty cascade paths a busy catch-up would hit).

use std::sync::Arc;

use obr_btree::builder::UpperBuilder;
use obr_btree::SidePointerMode;
use obr_core::{Database, NewTreeEditor, ReorgConfig, Reorganizer, SideEntry, SideOp};
use obr_storage::{DiskManager, InMemoryDisk, Lsn};
use obr_wal::TxnId;

fn val(k: u64) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    v.resize(64, 0x11);
    v
}

/// Build a database plus a freshly built (unanchored) copy of its upper
/// levels, like pass 3 does right before catch-up.
fn setup(node_fill: f64) -> (Arc<Database>, obr_btree::builder::BuiltTree) {
    let disk = Arc::new(InMemoryDisk::new(16_384));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        16_384,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..3000u64).map(|k| (k * 2, val(k))).collect();
    db.tree().bulk_load(&records, 0.9, 0.5).unwrap();
    // Read the base pages left to right, exactly like the pass-3 loop.
    let mut builder = UpperBuilder::new(
        Arc::clone(db.tree().pool()),
        Arc::clone(db.tree().fsm()),
        0,
        node_fill,
    );
    for base in db.tree().base_pages().unwrap() {
        for (k, leaf) in db.tree().base_entries(base).unwrap() {
            builder.push(k, leaf).unwrap();
        }
    }
    let built = builder.finish().unwrap();
    (db, built)
}

/// Anchor the new tree and fully validate it.
fn anchor_and_validate(db: &Arc<Database>, root: obr_storage::PageId, height: u8) -> u64 {
    db.tree().set_anchor(root, height, Lsn::ZERO).unwrap();
    db.tree().validate().unwrap()
}

#[test]
fn rebuilt_upper_levels_reach_every_leaf() {
    let (db, built) = setup(0.9);
    let expected = db.tree().collect_all().unwrap();
    let n = anchor_and_validate(&db, built.root, built.height);
    assert_eq!(n as usize, expected.len());
    assert_eq!(db.tree().collect_all().unwrap(), expected);
}

#[test]
fn editor_upserts_split_full_base_pages_and_grow_the_root() {
    // Tiny node fill: every new-tree page holds 2 entries, so a handful of
    // upserts forces base splits and root growth inside the editor.
    let (db, built) = setup(0.0);
    let before_height = built.height;
    let mut editor = NewTreeEditor::new(&db, built.root, built.height, 0.0);
    // Simulate concurrent leaf splits behind the frontier: create real new
    // leaves by splitting the old tree, then feed the same entries the
    // side file would carry.
    let mut new_entries = Vec::new();
    for k in 0..40u64 {
        let key = k * 2 + 1; // odd keys split existing full leaves
        db.tree()
            .insert(TxnId(1), Lsn::ZERO, key, &val(key))
            .unwrap();
        // Find where the key landed in the *old* tree.
        let leaf = db.tree().leaf_for(key).unwrap();
        let path = db.tree().path_for(key).unwrap();
        let base = path[path.len() - 2];
        let entry = db
            .tree()
            .base_entries(base)
            .unwrap()
            .into_iter()
            .find(|(_, c)| *c == leaf)
            .unwrap();
        new_entries.push(entry);
    }
    new_entries.sort();
    new_entries.dedup();
    for (k, leaf) in new_entries {
        editor
            .apply(SideEntry {
                key: k,
                op: SideOp::Upsert(leaf),
            })
            .unwrap();
    }
    assert!(
        editor.height >= before_height,
        "2-entry pages must have split upward"
    );
    let expected = db.tree().collect_all().unwrap();
    anchor_and_validate(&db, editor.root, editor.height);
    assert_eq!(db.tree().collect_all().unwrap(), expected);
}

#[test]
fn editor_removals_cascade_empty_pages_away() {
    let (db, built) = setup(0.0); // 2 entries per new-tree page
    let expected_before = db.tree().collect_all().unwrap();
    let mut editor = NewTreeEditor::new(&db, built.root, built.height, 0.0);
    // Delete whole leaves from the old tree (free-at-empty) and feed the
    // removals through the editor, like the side file would.
    let bases = db.tree().base_pages().unwrap();
    let doomed: Vec<(u64, obr_storage::PageId)> = db
        .tree()
        .base_entries(bases[0])
        .unwrap()
        .into_iter()
        .take(3)
        .collect();
    let mut removed_keys = Vec::new();
    for (entry_key, leaf) in doomed {
        let keys = {
            let g = db.tree().pool().fetch(leaf).unwrap();
            let page = g.read();
            obr_btree::LeafView::of(&page).keys()
        };
        for k in keys {
            db.tree().delete(TxnId(1), Lsn::ZERO, k).unwrap();
            removed_keys.push(k);
        }
        editor
            .apply(SideEntry {
                key: entry_key,
                op: SideOp::Remove,
            })
            .unwrap();
    }
    let expected: Vec<(u64, Vec<u8>)> = expected_before
        .into_iter()
        .filter(|(k, _)| !removed_keys.contains(k))
        .collect();
    anchor_and_validate(&db, editor.root, editor.height);
    assert_eq!(db.tree().collect_all().unwrap(), expected);
}

#[test]
fn builder_resume_equals_uninterrupted_build() {
    // Build half the entries, "crash", resume from the durable spine, push
    // the rest: the result must route every key exactly like a one-shot
    // build.
    let disk = Arc::new(InMemoryDisk::new(16_384));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        16_384,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..4000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.9, 0.3).unwrap();
    let mut entries = Vec::new();
    for base in db.tree().base_pages().unwrap() {
        entries.extend(db.tree().base_entries(base).unwrap());
    }
    assert!(entries.len() > 20);
    let half = entries.len() / 2;

    let pool = Arc::clone(db.tree().pool());
    let fsm = Arc::clone(db.tree().fsm());
    let mut b1 = UpperBuilder::new(Arc::clone(&pool), Arc::clone(&fsm), 0, 0.1);
    for (k, leaf) in &entries[..half] {
        b1.push(*k, *leaf).unwrap();
    }
    // "Stable point": flush everything the builder touched, remember its
    // top page, drop the builder (the crash).
    for p in b1.take_touched() {
        db.pool().flush_page(p).unwrap();
    }
    let top = b1.top_page().unwrap();
    drop(b1);
    // Resume from the durable spine.
    let mut b2 = UpperBuilder::resume(Arc::clone(&pool), Arc::clone(&fsm), 0, 0.1, top).unwrap();
    assert_eq!(b2.last_key(), Some(entries[half - 1].0));
    for (k, leaf) in &entries[half..] {
        b2.push(*k, *leaf).unwrap();
    }
    let built = b2.finish().unwrap();
    let n = anchor_and_validate(&db, built.root, built.height);
    assert_eq!(n, 4000);
}

#[test]
fn pass3_rebuilds_an_upper_level_larger_than_the_pool() {
    // The finished build is logged as one record of every new upper page;
    // it must not need all of them pinned at once.
    let frames = 32;
    let disk = Arc::new(InMemoryDisk::new(4096));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        frames,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..3000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.1, 0.9).unwrap();
    let expected = db.tree().collect_all().unwrap();
    let cfg = ReorgConfig {
        node_fill: 0.01,
        ..ReorgConfig::default()
    };
    let r = Reorganizer::new(Arc::clone(&db), cfg);
    r.pass3_shrink().unwrap();
    let internal = db.tree().stats().unwrap().internal_pages;
    assert!(internal > frames, "{internal} new upper pages");
    db.tree().validate().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
}
