//! Property-based whole-system tests: random operation sequences,
//! interleaved with reorganization passes and crash/recovery cycles, checked
//! against a `BTreeMap` model.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use obr::btree::SidePointerMode;
use obr::core::{recover, Database, ReorgConfig, Reorganizer};
use obr::storage::{DiskManager, InMemoryDisk};
use obr::txn::Session;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, Vec<u8>),
    Delete(u64),
    Read(u64),
    Scan(u64, u64),
    Pass1,
    Pass2,
    Pass3,
    CrashRecover(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u64..500, prop::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        6 => (0u64..500).prop_map(Op::Delete),
        4 => (0u64..500).prop_map(Op::Read),
        2 => (0u64..500, 0u64..200).prop_map(|(lo, d)| Op::Scan(lo, lo + d)),
        1 => Just(Op::Pass1),
        1 => Just(Op::Pass2),
        1 => Just(Op::Pass3),
        1 => any::<bool>().prop_map(Op::CrashRecover),
    ]
}

fn check_against_model(db: &Arc<Database>, model: &BTreeMap<u64, Vec<u8>>) {
    let got = db.tree().collect_all().unwrap();
    let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    assert_eq!(got, want, "tree contents diverged from model");
    db.tree().validate().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a whole database lifetime
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_system_matches_model(ops in prop::collection::vec(op_strategy(), 1..120),
                                 seed in any::<u64>()) {
        let disk = Arc::new(InMemoryDisk::new(8192));
        let mut db = Database::create(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            8192,
            SidePointerMode::TwoWay,
        )
        .unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut rng = seed | 1;
        let cfg = ReorgConfig { swap_pass: false, shrink_pass: false, ..ReorgConfig::default() };
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let s = Session::new(Arc::clone(&db));
                    match s.insert(k, &v) {
                        Ok(()) => { prop_assert!(model.insert(k, v).is_none()); }
                        Err(obr::txn::TxnError::KeyExists(_)) => {
                            prop_assert!(model.contains_key(&k));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("insert: {e}"))),
                    }
                }
                Op::Delete(k) => {
                    let s = Session::new(Arc::clone(&db));
                    match s.delete(k) {
                        Ok(old) => { prop_assert_eq!(model.remove(&k), Some(old)); }
                        Err(obr::txn::TxnError::KeyNotFound(_)) => {
                            prop_assert!(!model.contains_key(&k));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                    }
                }
                Op::Read(k) => {
                    let s = Session::new(Arc::clone(&db));
                    prop_assert_eq!(s.read(k).unwrap(), model.get(&k).cloned());
                }
                Op::Scan(lo, hi) => {
                    let s = Session::new(Arc::clone(&db));
                    let got = s.scan(lo, hi).unwrap();
                    let want: Vec<(u64, Vec<u8>)> = model
                        .range(lo..=hi)
                        .map(|(k, v)| (*k, v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::Pass1 => {
                    Reorganizer::new(Arc::clone(&db), cfg.clone())
                        .pass1_compact()
                        .unwrap();
                    check_against_model(&db, &model);
                }
                Op::Pass2 => {
                    let r = Reorganizer::new(Arc::clone(&db), cfg.clone());
                    r.pass1_compact().unwrap();
                    r.pass2_swap_move().unwrap();
                    check_against_model(&db, &model);
                }
                Op::Pass3 => {
                    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
                        .pass3_shrink()
                        .unwrap();
                    check_against_model(&db, &model);
                }
                Op::CrashRecover(flush_first) => {
                    if flush_first {
                        db.pool().flush_all().unwrap();
                    }
                    db.log().flush_all().unwrap();
                    // A committed-state crash: every session op committed
                    // (and forced the log), so the model must survive.
                    db.crash(|_| {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng % 3 == 0
                    })
                    .unwrap();
                    let db2 = Database::reopen(
                        Arc::clone(&disk) as Arc<dyn DiskManager>,
                        Arc::clone(db.log()),
                        8192,
                        SidePointerMode::TwoWay,
                    )
                    .unwrap();
                    recover(&db2).unwrap();
                    db = db2;
                    check_against_model(&db, &model);
                }
            }
        }
        check_against_model(&db, &model);
    }

    /// Random insert/delete/reorganize interleavings leave a structure the
    /// static checker certifies: `fsck_db` must report zero findings after
    /// every pass and at the end of the lifetime.
    #[test]
    fn prop_fsck_clean_after_reorg(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let disk = Arc::new(InMemoryDisk::new(8192));
        let db = Database::create(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            8192,
            SidePointerMode::TwoWay,
        )
        .unwrap();
        let cfg = ReorgConfig { swap_pass: false, shrink_pass: false, ..ReorgConfig::default() };
        let fsck_clean = |when: &str| {
            let r = obr::check::fsck_db(&db, &obr::check::FsckOptions::default());
            if r.report.is_clean() {
                Ok(())
            } else {
                Err(TestCaseError::fail(format!("fsck {when}: {}", r.report)))
            }
        };
        for op in ops {
            let s = Session::new(Arc::clone(&db));
            match op {
                Op::Insert(k, v) => { let _ = s.insert(k, &v); }
                Op::Delete(k) => { let _ = s.delete(k); }
                Op::Read(k) => { let _ = s.read(k); }
                Op::Scan(lo, hi) => { let _ = s.scan(lo, hi); }
                Op::Pass1 => {
                    Reorganizer::new(Arc::clone(&db), cfg.clone()).pass1_compact().unwrap();
                    fsck_clean("after pass 1")?;
                }
                Op::Pass2 => {
                    let r = Reorganizer::new(Arc::clone(&db), cfg.clone());
                    r.pass1_compact().unwrap();
                    r.pass2_swap_move().unwrap();
                    fsck_clean("after pass 2")?;
                }
                Op::Pass3 => {
                    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
                        .pass3_shrink()
                        .unwrap();
                    fsck_clean("after pass 3")?;
                }
                // Crash cycles are covered by prop_system_matches_model;
                // here the database stays live so the pool is the source
                // of truth for the fsck walk.
                Op::CrashRecover(_) => {}
            }
        }
        fsck_clean("at end of lifetime")?;
    }

    /// The WAL reader round-trips torn logs: truncating an encoded log at
    /// an *arbitrary byte* must never panic, must yield exactly the records
    /// of some whole-frame prefix, and re-scanning the reported clean
    /// prefix must reproduce those records with no torn tail left.
    #[test]
    fn prop_log_reader_survives_arbitrary_truncation(
        ops in prop::collection::vec((any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)), 1..40),
        cut_permille in 0u64..=1000,
    ) {
        use obr::wal::{LogManager, LogRecord, LogReader, TxnId};

        let log = LogManager::new();
        for (i, (key, value)) in ops.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            log.append(&LogRecord::TxnInsert {
                txn,
                page: obr::storage::PageId(1),
                key: *key,
                value: value.clone(),
                prev_lsn: obr::storage::Lsn::ZERO,
            });
            log.append(&LogRecord::TxnCommit { txn });
        }
        let (first_lsn, frames) = log.frames_snapshot();
        let bytes = LogReader::encode_frames(frames.iter().map(Vec::as_slice));
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;

        let out = LogReader::scan(&bytes[..cut]);
        // The intact records are a whole-frame prefix of what was written.
        prop_assert!(out.records.len() <= frames.len());
        prop_assert!(out.good_end as usize <= cut);
        for (frame, got) in frames.iter().zip(out.frames.iter()) {
            prop_assert_eq!(frame, got);
        }
        if cut == bytes.len() {
            prop_assert!(out.torn.is_none());
            prop_assert_eq!(out.records.len(), frames.len());
        }
        // The clean prefix must re-scan with nothing torn and the same
        // records — the fixpoint recovery relies on.
        let clean = LogReader::scan(&bytes[..out.good_end as usize]);
        prop_assert!(clean.torn.is_none());
        prop_assert_eq!(clean.records.len(), out.records.len());
        prop_assert_eq!(
            LogReader::last_lsn(&clean, first_lsn),
            LogReader::last_lsn(&out, first_lsn)
        );
    }

    /// The segmented WAL is observationally the memory-only log plus the
    /// byte-level reader: the same append/force pattern is driven into a
    /// segment directory and into `LogManager::new()` (the zero-segment
    /// case), then checked at every split point segmentation introduces:
    ///
    /// 1. fully flushed — identical LSNs, records, checkpoints, and the
    ///    segment files concatenate byte-for-byte to
    ///    `LogReader::encode_frames` of the retained frames;
    /// 2. torn tail — a crash cut at an arbitrary byte of the active
    ///    segment reopens to exactly the record boundary `LogReader::scan`
    ///    finds in the log image cut at the same global offset;
    /// 3. truncate + recycle — after `truncate_before` at an arbitrary LSN,
    ///    the segmented log (whole-file recycling, rounded down to a
    ///    segment boundary) retains a superset of what the memory-only log
    ///    (exact truncation) retains, agreeing record-for-record past the
    ///    truncation point, both live and across a reopen.
    #[test]
    fn prop_segmented_log_matches_memory_and_scan_oracles(
        ops in prop::collection::vec(
            (0u64..1000, prop::collection::vec(any::<u8>(), 0..48), any::<bool>(), 0u8..16),
            1..50),
        seg_bytes in 48u64..512,
        cut_permille in 0u64..=1000,
        trunc_permille in 0u64..=1000,
    ) {
        use obr::storage::{Lsn, PageId};
        use obr::wal::{segment, CheckpointData, LogManager, LogReader, LogRecord, TxnId};

        static DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // relaxed: scratch-directory name uniqueness counter only.
        let n = DIRS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("obr-prop-seg-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        let dir_path = root.join("wal");
        let mem = LogManager::new();
        let seg = LogManager::open_dir(&dir_path, seg_bytes).unwrap();

        for (i, (key, value, force, kind)) in ops.iter().enumerate() {
            let record = if *kind == 0 {
                LogRecord::Checkpoint { data: CheckpointData::default() }
            } else {
                LogRecord::TxnInsert {
                    txn: TxnId(i as u64 + 1),
                    page: PageId(1),
                    key: *key,
                    value: value.clone(),
                    prev_lsn: Lsn::ZERO,
                }
            };
            let a = mem.append(&record);
            let b = seg.append(&record);
            prop_assert_eq!(a, b, "append must assign the same LSN in both logs");
            if *force {
                mem.flush_to(a).unwrap();
                seg.flush_to(b).unwrap();
                prop_assert_eq!(mem.durable_lsn(), seg.durable_lsn());
            }
        }
        mem.flush_all().unwrap();
        seg.flush_all().unwrap();

        // 1) Fully flushed: observationally identical.
        prop_assert_eq!(mem.durable_lsn(), seg.durable_lsn());
        let all_records = mem.records_from(Lsn(1)).unwrap();
        prop_assert_eq!(&all_records, &seg.records_from(Lsn(1)).unwrap());
        prop_assert_eq!(
            mem.last_checkpoint().unwrap(),
            seg.last_checkpoint().unwrap()
        );
        let (first_lsn, frames) = mem.frames_snapshot();
        let image = LogReader::encode_frames(frames.iter().map(Vec::as_slice));
        let segments = segment::list_segments(&dir_path).unwrap();
        let mut cat_bytes = Vec::new();
        for (_, p) in &segments {
            cat_bytes.extend(std::fs::read(p).unwrap());
        }
        prop_assert_eq!(
            &image,
            &cat_bytes,
            "segment files must concatenate to the encoded frame image"
        );

        // 2) Torn tail: a byte cut inside the active segment reopens to the
        // boundary the byte-level reader finds in the image cut at the same
        // global offset.
        let (_, active_path) = segments.last().unwrap();
        let active_bytes = std::fs::read(active_path).unwrap();
        let sealed_total = cat_bytes.len() - active_bytes.len();
        let cut = active_bytes.len() * cut_permille as usize / 1000;
        let torn_image = LogReader::scan(&image[..sealed_total + cut]);
        let expect = LogReader::last_lsn(&torn_image, first_lsn);
        let torn_dir = root.join("torn-wal");
        std::fs::create_dir_all(&torn_dir).unwrap();
        for (_, p) in &segments {
            std::fs::copy(p, torn_dir.join(p.file_name().unwrap())).unwrap();
        }
        std::fs::write(
            torn_dir.join(active_path.file_name().unwrap()),
            &active_bytes[..cut],
        )
        .unwrap();
        {
            let b = LogManager::open_dir(&torn_dir, seg_bytes).unwrap();
            prop_assert_eq!(
                b.durable_lsn(),
                expect,
                "torn reopen must land on the scanned record boundary"
            );
            prop_assert_eq!(
                &all_records[..expect.0 as usize],
                &b.records_from(Lsn(1)).unwrap()[..]
            );
        }

        // 3) Truncate + recycle vs. exact in-memory truncation.
        let end = mem.durable_lsn().0;
        let t = Lsn(1 + (end - 1) * trunc_permille / 1000);
        mem.truncate_before(t);
        seg.truncate_before(t);
        seg.recycle_segments().unwrap();
        prop_assert_eq!(mem.first_lsn(), t, "memory-only truncation is exact");
        prop_assert!(
            seg.first_lsn() <= t,
            "segmented truncation rounds down to a boundary, never past the mark"
        );
        let tail = mem.records_from(t).unwrap();
        prop_assert_eq!(
            &tail,
            &seg.records_from(t).unwrap(),
            "both logs must agree on every record past the truncation point"
        );
        let live_first = seg.first_lsn();
        drop(seg);

        // Reopen from disk: segment names carry the true LSNs, so the
        // recycled directory comes back with the same labels and tail.
        let seg2 = LogManager::open_dir(&dir_path, seg_bytes).unwrap();
        prop_assert_eq!(seg2.first_lsn(), live_first);
        prop_assert_eq!(seg2.durable_lsn(), Lsn(end));
        prop_assert_eq!(&tail, &seg2.records_from(t).unwrap());
        drop(seg2);
        std::fs::remove_dir_all(&root).ok();
    }
}
