//! The §4.1.2 reader protocol against a reorganizer that is really running.
//!
//! A reorganization unit moves records out of its source leaves in one
//! structure modification and fixes the base page in a later one. Between
//! the two, the base page still routes keys to emptied leaves, and what
//! keeps a foreground operation out of that window is the RX lock on the
//! unit's leaves — provided the operation holds its own lock on the leaf
//! the key *now* lives in, and a scan does not walk leaves while records
//! move between them. These tests hold the engine to both.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obr::btree::{LeafRef, SidePointerMode};
use obr::core::{CoreError, Database, ReorgConfig, Reorganizer};
use obr::lock::{LockMode, OwnerId, ResourceId};
use obr::storage::{DiskManager, InMemoryDisk, Lsn, PageId};
use obr::txn::{Session, TxnError, TxnResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn val(k: u64, version: u64) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    v.extend_from_slice(&version.to_le_bytes());
    v.resize(48, 0x5A);
    v
}

/// A database whose tree holds every even key below `2 * n`, bulk-loaded
/// at `fill`.
fn loaded(n: u64, fill: f64) -> Arc<Database> {
    let disk = Arc::new(InMemoryDisk::new(4096));
    let db = Database::create(disk as Arc<dyn DiskManager>, 4096, SidePointerMode::TwoWay)
        .expect("create database");
    let records: Vec<(u64, Vec<u8>)> = (0..n).map(|i| (2 * i, val(2 * i, 0))).collect();
    db.tree().bulk_load(&records, fill, 0.9).expect("bulk load");
    db
}

fn last_key_of(db: &Database, leaf: PageId) -> u64 {
    let g = db.pool().fetch(leaf).expect("fetch leaf");
    let page = g.read();
    LeafRef::new(&page).last_key().expect("leaf holds records")
}

/// A structure modification re-routes the key between the reader's descent
/// and its leaf-lock grant. The reader must notice, and end up holding its
/// lock on the leaf the key lives in now: a lock on the old page keeps no
/// reorganization unit away from the record it is about to read.
#[test]
fn leaf_lock_granted_on_a_stale_path_is_taken_again_on_the_real_leaf() {
    let db = loaded(2_000, 0.9);
    let (tree, locks) = (db.tree(), db.locks());
    let path = tree.path_for(2_000).expect("descent");
    let (base, old_leaf) = (path[path.len() - 2], path[path.len() - 1]);
    // The leaf's last key goes to the new right sibling when the leaf
    // splits down the middle.
    let key = last_key_of(&db, old_leaf);

    // Park the reader between its descent and its locks: it queues for S
    // on the base page behind this X.
    let blocker = db.new_owner();
    locks
        .lock(blocker, ResourceId::Page(base.0), LockMode::X)
        .expect("blocker X");
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut txn = Session::new(Arc::clone(&db)).begin();
            let value = txn.get(key).expect("get");
            let owner = OwnerId(txn.id().0);
            let home = tree.leaf_for(key).expect("descent");
            let held = locks.held_mode(owner, ResourceId::Page(home.0));
            txn.commit().expect("commit");
            (value, home, held)
        });
        while locks.waiting(ResourceId::Page(base.0)).is_empty() {
            std::thread::yield_now();
        }
        // Fill the leaf through the tree's own interface (no page locks,
        // as a transaction that held its locks already would) until it
        // splits and `key` moves.
        let writer = db.begin_txn();
        let mut prev = Lsn::ZERO;
        let mut odd = key - 1;
        while tree.leaf_for(key).expect("descent") == old_leaf {
            prev = tree
                .insert(writer, prev, odd, &val(odd, 0))
                .expect("insert");
            odd -= 2;
        }
        locks.unlock(blocker, ResourceId::Page(base.0));

        let (value, home, held) = reader.join().expect("reader panicked");
        assert_eq!(value, Some(val(key, 0)));
        assert_ne!(home, old_leaf, "the split was meant to move the key");
        assert_eq!(
            held,
            Some(LockMode::IS),
            "after get({key}) the transaction holds no lock on leaf {home}, where the key lives"
        );
    });
}

/// Stops the reorganizer loop when the foreground leaves its block, also by
/// a failed assertion: the scope would otherwise wait for it for ever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Run `op` until it is not refused: the reorganizer is the preferred
/// deadlock victim, but a foreground transaction can still be one.
fn settled<T>(mut op: impl FnMut() -> TxnResult<T>) -> T {
    loop {
        match op() {
            Ok(v) => return v,
            Err(TxnError::Deadlock | TxnError::Timeout) => {}
            Err(e) => panic!("foreground operation failed: {e}"),
        }
    }
}

/// A reorganizer loops over a tree that one session keeps churning, for a
/// few seconds; every answer the session gets is compared with a model.
/// Deletes keep the leaves sparse and inserts split them out of order, so
/// all three passes always have work, and the session's reads, scans and
/// updates keep landing next to the unit in flight. A read routed into an
/// emptied source leaf answers `None` or `key not found`; a scan that walks
/// leaves while records move between them drops or repeats rows.
#[test]
fn reads_scans_and_updates_racing_the_reorganizer_match_the_model() {
    const KEYS: u64 = 8_192;
    const BUDGET: Duration = Duration::from_secs(3);
    let db = loaded(KEYS / 2, 0.3);
    let mut model: BTreeMap<u64, u64> = (0..KEYS / 2).map(|i| (2 * i, 0)).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reorganizer = s.spawn(|| {
            let mut runs = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let r = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
                match r.run() {
                    // Giving up on a unit after repeated deadlocks is the
                    // documented outcome of contention, not a wrong answer.
                    Ok(_) | Err(CoreError::TooManyRetries(_)) => runs += 1,
                    Err(e) => panic!("reorganizer failed: {e}"),
                }
            }
            runs
        });
        let stop_reorganizer = StopOnDrop(&stop);
        let session = Session::new(Arc::clone(&db));
        // The seed fixes the operations; the scheduler decides how they
        // interleave with the reorganizer.
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        let deadline = Instant::now() + BUDGET;
        let mut ops = 0u64;
        while Instant::now() < deadline {
            ops += 1;
            let key = rng.gen_range(0..KEYS);
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let got = settled(|| session.read(key));
                    let want = model.get(&key).map(|v| val(key, *v));
                    assert_eq!(got, want, "op {ops}: get({key})");
                }
                4..=5 => {
                    let hi = key + 128;
                    let got = settled(|| session.scan(key, hi));
                    let want: Vec<(u64, Vec<u8>)> = model
                        .range(key..=hi)
                        .map(|(k, v)| (*k, val(*k, *v)))
                        .collect();
                    assert_eq!(got, want, "op {ops}: scan({key}, {hi})");
                }
                6..=7 => match model.get(&key).copied() {
                    // Overwrite: delete + insert in one transaction.
                    Some(v) => {
                        settled(|| {
                            let mut t = session.begin();
                            match t.update(key, &val(key, v + 1)) {
                                Ok(_) => t.commit(),
                                Err(e) => t.abort().and(Err(e)),
                            }
                        });
                        model.insert(key, v + 1);
                    }
                    None => {
                        settled(|| session.insert(key, &val(key, 0)));
                        model.insert(key, 0);
                    }
                },
                _ => {
                    if model.remove(&key).is_some() {
                        settled(|| session.delete(key));
                    }
                }
            }
        }
        drop(stop_reorganizer);
        let runs = reorganizer.join().expect("reorganizer panicked");
        assert!(runs > 0, "the reorganizer never completed a run");
    });
    let rows = db.tree().collect_all().expect("collect");
    let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, val(*k, *v))).collect();
    assert_eq!(rows, want, "final contents");
    db.tree().validate().expect("tree invariants");
}
