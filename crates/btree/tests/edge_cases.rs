//! Edge-case tests for the tree: giant records (single-record leaves and
//! the left-sibling split plan), side-pointer upkeep, and update paths.

use std::sync::Arc;

use obr_btree::leaf::MAX_VALUE;
use obr_btree::{BTree, BTreeError};
use obr_storage::{BufferPool, DiskManager, FreeSpaceMap, InMemoryDisk, Lsn};
use obr_wal::{LogManager, TxnId};

fn tree(pages: u32) -> BTree {
    let disk = Arc::new(InMemoryDisk::new(pages));
    let pool = Arc::new(BufferPool::new(
        disk as Arc<dyn DiskManager>,
        pages as usize,
    ));
    let fsm = Arc::new(FreeSpaceMap::new_all_free(pages));
    let log = Arc::new(LogManager::new());
    BTree::create(pool, fsm, log).unwrap()
}

#[test]
fn giant_records_one_per_leaf() {
    let t = tree(256);
    let big = vec![0xEE; MAX_VALUE];
    // Ascending giant inserts: every leaf holds exactly one record, every
    // split takes the "new empty sibling on the right" plan.
    for k in 0..20u64 {
        t.insert(TxnId(1), Lsn::ZERO, k, &big).unwrap();
    }
    assert_eq!(t.validate().unwrap(), 20);
    let s = t.stats().unwrap();
    assert_eq!(s.leaf_pages, 20);
    for k in 0..20u64 {
        assert_eq!(t.search(k).unwrap().unwrap().len(), MAX_VALUE);
    }
}

#[test]
fn giant_records_descending_exercise_left_split_plan() {
    let t = tree(256);
    let big = vec![0xDD; MAX_VALUE];
    // Descending giant inserts force the single-record leaf to split with
    // the incoming key *below* the resident record (Plan::Left).
    for k in (0..20u64).rev() {
        t.insert(TxnId(1), Lsn::ZERO, k, &big).unwrap();
    }
    assert_eq!(t.validate().unwrap(), 20);
    for k in 0..20u64 {
        assert!(t.search(k).unwrap().is_some(), "key {k} lost");
    }
    // Range scans over the chain agree.
    let scan = t.range_scan(0, 19).unwrap();
    assert_eq!(scan.len(), 20);
}

#[test]
fn giant_records_random_order() {
    let t = tree(512);
    let big = vec![0xCC; MAX_VALUE - 7];
    let mut keys: Vec<u64> = (0..40).map(|i| (i * 2654435761u64) % 1000).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut shuffled = keys.clone();
    // Deterministic shuffle.
    let mut rng = 0x5EED_u64;
    for i in (1..shuffled.len()).rev() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        shuffled.swap(i, (rng as usize) % (i + 1));
    }
    for &k in &shuffled {
        t.insert(TxnId(1), Lsn::ZERO, k, &big).unwrap();
    }
    assert_eq!(t.validate().unwrap() as usize, keys.len());
    let got: Vec<u64> = t.collect_all().unwrap().iter().map(|(k, _)| *k).collect();
    assert_eq!(got, keys);
}

#[test]
fn oversized_record_is_rejected_cleanly() {
    let t = tree(64);
    let too_big = vec![0; MAX_VALUE + 1];
    assert!(matches!(
        t.insert(TxnId(1), Lsn::ZERO, 1, &too_big),
        Err(BTreeError::RecordTooLarge(_))
    ));
    // The tree is untouched.
    assert_eq!(t.validate().unwrap(), 0);
}

#[test]
fn interleaved_insert_delete_churn_stays_valid() {
    let t = tree(1024);
    let mut live = std::collections::BTreeSet::new();
    let mut rng = 0xABCD_u64;
    for round in 0..3000u64 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = rng % 700;
        if live.contains(&k) {
            t.delete(TxnId(1), Lsn::ZERO, k).unwrap();
            live.remove(&k);
        } else {
            t.insert(TxnId(1), Lsn::ZERO, k, &k.to_le_bytes()).unwrap();
            live.insert(k);
        }
        if round % 500 == 0 {
            assert_eq!(t.validate().unwrap() as usize, live.len());
        }
    }
    let got: Vec<u64> = t.collect_all().unwrap().iter().map(|(k, _)| *k).collect();
    let want: Vec<u64> = live.iter().copied().collect();
    assert_eq!(got, want);
}

#[test]
fn bulk_load_then_point_updates_round_trip() {
    let t = tree(1024);
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, vec![0u8; 32])).collect();
    t.bulk_load(&records, 0.8, 0.8).unwrap();
    // Delete + reinsert with a different value ("update").
    for k in (0..2000u64).step_by(13) {
        t.delete(TxnId(2), Lsn::ZERO, k).unwrap();
        t.insert(TxnId(2), Lsn::ZERO, k, &[9u8; 48]).unwrap();
    }
    t.validate().unwrap();
    assert_eq!(t.search(13).unwrap().unwrap(), vec![9u8; 48]);
    assert_eq!(t.search(14).unwrap().unwrap(), vec![0u8; 32]);
}

#[test]
fn delete_to_empty_then_refill() {
    let t = tree(256);
    for k in 0..500u64 {
        t.insert(TxnId(1), Lsn::ZERO, k, &[3u8; 64]).unwrap();
    }
    for k in 0..500u64 {
        t.delete(TxnId(1), Lsn::ZERO, k).unwrap();
    }
    assert_eq!(t.validate().unwrap(), 0);
    // The tree is reusable after being emptied.
    for k in 1000..1500u64 {
        t.insert(TxnId(1), Lsn::ZERO, k, &[4u8; 64]).unwrap();
    }
    assert_eq!(t.validate().unwrap(), 500);
    assert_eq!(t.search(1250).unwrap().unwrap(), vec![4u8; 64]);
}

#[test]
fn small_buffer_pool_forces_eviction_mid_operation() {
    // A pool with far fewer frames than pages: every operation churns the
    // cache; correctness must not depend on residency.
    let disk = Arc::new(InMemoryDisk::new(2048));
    let pool = Arc::new(BufferPool::new(disk as Arc<dyn DiskManager>, 24));
    let fsm = Arc::new(FreeSpaceMap::new_all_free(2048));
    let log = Arc::new(LogManager::new());
    let t = BTree::create(pool, fsm, log).unwrap();
    for k in 0..1500u64 {
        t.insert(TxnId(1), Lsn::ZERO, k, &[5u8; 64]).unwrap();
    }
    assert_eq!(t.validate().unwrap(), 1500);
    for k in (0..1500u64).step_by(3) {
        t.delete(TxnId(1), Lsn::ZERO, k).unwrap();
    }
    assert_eq!(t.validate().unwrap(), 1000);
}
