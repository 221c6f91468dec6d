//! Quickstart: build a database, degrade the tree with churn, reorganize it
//! on-line, and watch the physical shape recover.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use obr::btree::SidePointerMode;
use obr::core::{Database, ReorgConfig, Reorganizer};
use obr::storage::InMemoryDisk;
use obr::txn::Session;

fn main() {
    // 1. A database over a 16k-page disk.
    let disk = Arc::new(InMemoryDisk::new(16_384));
    let db = Database::create(disk, 16_384, SidePointerMode::TwoWay).expect("create");
    let session = Session::new(Arc::clone(&db));

    // 2. Load a table, then churn it: inserts split pages, deletes leave
    //    them sparse — the free-at-empty policy never merges.
    println!("loading 20,000 records...");
    for k in 0..20_000u64 {
        session.insert(k, &k.to_be_bytes()).expect("insert");
    }
    println!("churning (delete 2 of every 3)...");
    for k in 0..20_000u64 {
        if k % 3 != 0 {
            session.delete(k).expect("delete");
        }
    }
    let before = db.tree().stats().expect("stats");
    println!(
        "degraded:    {:4} leaves, fill {:.2}, height {}",
        before.leaf_pages, before.avg_leaf_fill, before.height
    );

    // 3. Reorganize on-line: compact, order, shrink.
    let reorg = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    let stats = reorg.run().expect("reorganize");
    let after = db.tree().stats().expect("stats");
    println!(
        "reorganized: {:4} leaves, fill {:.2}, height {}",
        after.leaf_pages, after.avg_leaf_fill, after.height
    );
    println!(
        "units: {} ({} in-place, {} copy-switch), pass-2: {} moves ({} parks), freed {} pages",
        stats.units,
        stats.inplace_units,
        stats.copy_switch_units,
        stats.moves,
        stats.swaps,
        stats.pages_freed
    );

    // 4. The data is untouched.
    assert_eq!(
        session.read(0).expect("read").expect("present"),
        0u64.to_be_bytes()
    );
    assert_eq!(session.read(1).expect("read"), None); // deleted
    let count = db.tree().validate().expect("validate");
    println!("validated: {count} records, tree invariants hold");
}
