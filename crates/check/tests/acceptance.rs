//! End-to-end acceptance tests for the checkers: a healthy database passes
//! every check, and seeded corruption (flipped sibling pointer, reordered
//! key, torn or spliced log) is caught with a finding naming the damaged
//! page or LSN.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_check::{fsck_file, lint_wal_dir, lint_wal_file, FsckOptions, WalLintOptions};
use obr_core::{Database, ReorgConfig, Reorganizer};
use obr_storage::{InMemoryDisk, PageType, PAGE_SIZE};
use obr_txn::Session;

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("obr-check-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Build a durable database, load it, punch deletion holes, reorganize,
/// flush, and drop it — leaving `pages.db` and `wal/` behind.
fn build_reorganized_db(dir: &Path) {
    let db = Database::create_durable(dir, 2048, 512, SidePointerMode::TwoWay).unwrap();
    let session = Session::new(Arc::clone(&db));
    for k in 0..600u64 {
        session.insert(k, &[0xab; 24]).unwrap();
    }
    // Delete most of each neighbourhood so Pass 1 has sparseness to harvest.
    for k in 0..600u64 {
        if k % 4 != 0 {
            session.delete(k).unwrap();
        }
    }
    let reorg = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    reorg.run().unwrap();
    db.checkpoint().unwrap();
    db.pool().flush_all().unwrap();
}

#[test]
fn healthy_database_passes_all_checks() {
    let scratch = Scratch::new("healthy");
    build_reorganized_db(scratch.path());

    let fsck = fsck_file(&scratch.path().join("pages.db"), &FsckOptions::default()).unwrap();
    assert!(fsck.report.is_clean(), "{}", fsck.report);
    assert!(fsck.stats.leaf_pages > 0, "expected a populated tree");

    let wal = lint_wal_dir(&scratch.path().join("wal"), &WalLintOptions::default()).unwrap();
    assert!(wal.is_clean(), "{wal}");
}

#[test]
fn live_database_check_is_clean() {
    let disk = Arc::new(InMemoryDisk::new(2048));
    let db = Database::create(disk, 512, SidePointerMode::TwoWay).unwrap();
    let session = Session::new(Arc::clone(&db));
    for k in 0..400u64 {
        session.insert(k, &[0x5a; 16]).unwrap();
    }
    for k in 0..400u64 {
        if k % 3 != 0 {
            session.delete(k).unwrap();
        }
    }
    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
        .run()
        .unwrap();
    let report = obr_check::check_database(&db);
    assert!(report.is_clean(), "{report}");
}

/// Find the page indices of all leaf pages in a raw page file.
fn leaf_pages(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len() / PAGE_SIZE)
        .filter(|&i| {
            let page: &[u8; PAGE_SIZE] = bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]
                .try_into()
                .unwrap();
            let p = obr_storage::Page::from_bytes(page);
            p.page_type() == Some(PageType::Leaf) && p.slot_count() > 0
        })
        .collect()
}

#[test]
fn flipped_sibling_pointer_is_caught_in_the_file() {
    let scratch = Scratch::new("sibling");
    build_reorganized_db(scratch.path());
    let pages_db = scratch.path().join("pages.db");
    let mut bytes = fs::read(&pages_db).unwrap();

    let leaves = leaf_pages(&bytes);
    assert!(leaves.len() >= 2, "need two leaves to corrupt a chain");
    // The right-sibling field lives in the page header; point the first
    // leaf's right sibling at itself.
    let victim = leaves[0];
    edit_page(&mut bytes, victim, |p| {
        p.set_right_sibling(obr_storage::PageId(victim as u32))
    });
    fs::write(&pages_db, &bytes).unwrap();

    let fsck = fsck_file(&pages_db, &FsckOptions::default()).unwrap();
    assert!(!fsck.report.is_clean(), "corruption went unnoticed");
    assert!(
        fsck.report
            .findings
            .iter()
            .any(|f| f.page == Some(obr_storage::PageId(victim as u32))
                || f.detail.contains(&format!("{victim}"))),
        "no finding names page {victim}: {}",
        fsck.report
    );
}

#[test]
fn out_of_order_key_is_caught_in_the_file() {
    let scratch = Scratch::new("keyorder");
    build_reorganized_db(scratch.path());
    let pages_db = scratch.path().join("pages.db");
    let mut bytes = fs::read(&pages_db).unwrap();

    let leaves = leaf_pages(&bytes);
    let victim = *leaves
        .iter()
        .find(|&&i| {
            let page: &[u8; PAGE_SIZE] = bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]
                .try_into()
                .unwrap();
            obr_storage::Page::from_bytes(page).slot_count() >= 2
        })
        .expect("need a leaf with two records");
    // Leaf records are laid out [key: u64 LE][len: u32][value] back to
    // back from the body start; overwrite the first key with u64::MAX so
    // it sorts after every successor.
    let body = victim * PAGE_SIZE + obr_storage::HEADER_SIZE;
    bytes[body..body + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    fs::write(&pages_db, &bytes).unwrap();

    let fsck = fsck_file(&pages_db, &FsckOptions::default()).unwrap();
    assert!(!fsck.report.is_clean(), "corruption went unnoticed");
    assert!(
        fsck.report
            .findings
            .iter()
            .any(|f| f.page == Some(obr_storage::PageId(victim as u32))),
        "no finding names page {victim}: {}",
        fsck.report
    );
}

/// Rewrite page `i` of a raw page file through `edit`.
fn edit_page(bytes: &mut [u8], i: usize, edit: impl FnOnce(&mut obr_storage::Page)) {
    let range = i * PAGE_SIZE..(i + 1) * PAGE_SIZE;
    let mut page = obr_storage::Page::from_bytes(bytes[range.clone()].try_into().unwrap());
    edit(&mut page);
    bytes[range].copy_from_slice(page.bytes());
}

fn page_at(bytes: &[u8], i: usize) -> obr_storage::Page {
    obr_storage::Page::from_bytes(
        bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]
            .try_into()
            .unwrap(),
    )
}

/// A reorganized database's page file, with a leaf holding two records
/// and the root internal page picked out for damage.
fn damage_targets(scratch: &Scratch) -> (PathBuf, Vec<u8>, usize, usize) {
    build_reorganized_db(scratch.path());
    let pages_db = scratch.path().join("pages.db");
    let bytes = fs::read(&pages_db).unwrap();
    let leaf = *leaf_pages(&bytes)
        .iter()
        .find(|&&i| page_at(&bytes, i).slot_count() >= 2)
        .expect("need a leaf with two records");
    let meta = (0..bytes.len() / PAGE_SIZE)
        .map(|i| page_at(&bytes, i))
        .find(|p| p.page_type() == Some(PageType::Meta))
        .expect("the file holds a meta page");
    let root = obr_btree::MetaView::of(&meta).unwrap().root().0 as usize;
    assert_eq!(page_at(&bytes, root).page_type(), Some(PageType::Internal));
    (pages_db, bytes, leaf, root)
}

/// fsck names `leaf-invalid` on `leaf` and `node-invalid` on `root`.
fn assert_both_invalid(pages_db: &Path, leaf: usize, root: usize) {
    let fsck = fsck_file(pages_db, &FsckOptions::default()).unwrap();
    for (code, victim) in [("leaf-invalid", leaf), ("node-invalid", root)] {
        let page = Some(obr_storage::PageId(victim as u32));
        assert!(
            fsck.report
                .findings
                .iter()
                .any(|f| f.code == code && f.page == page),
            "no {code} finding names page {victim}: {}",
            fsck.report
        );
    }
}

/// fsck's per-page self-checks fire on header damage: a leaf whose slot
/// count no longer matches its records (`leaf-invalid`) and an internal
/// page whose free pointer no longer ends its entries (`node-invalid`).
#[test]
fn header_damage_is_caught_by_the_per_page_checks() {
    let scratch = Scratch::new("header");
    let (pages_db, mut bytes, leaf, root) = damage_targets(&scratch);
    // One record fewer than the body holds; a free pointer one byte past
    // the last entry.
    edit_page(&mut bytes, leaf, |p| p.set_slot_count(p.slot_count() - 1));
    edit_page(&mut bytes, root, |p| p.set_free_ptr(p.free_ptr() + 1));
    fs::write(&pages_db, &bytes).unwrap();
    assert_both_invalid(&pages_db, leaf, root);
}

/// Counts that point past the page are reported by the same checks,
/// without a panic: a leaf slot count of 65 535 would walk records off
/// the end of the page, and an internal count one past `NODE_CAPACITY`
/// would read entries beyond it.
#[test]
fn out_of_page_counts_are_reported_not_panicked() {
    let scratch = Scratch::new("counts");
    let (pages_db, mut bytes, leaf, root) = damage_targets(&scratch);
    edit_page(&mut bytes, leaf, |p| p.set_slot_count(u16::MAX));
    edit_page(&mut bytes, root, |p| {
        p.set_slot_count(obr_btree::node::NODE_CAPACITY as u16 + 1)
    });
    fs::write(&pages_db, &bytes).unwrap();
    assert_both_invalid(&pages_db, leaf, root);
}

/// The active (highest-first-LSN) segment of a segmented WAL directory.
fn active_segment(dir: &Path) -> PathBuf {
    obr_wal::segment::list_segments(&dir.join("wal"))
        .unwrap()
        .pop()
        .expect("the database leaves at least one segment")
        .1
}

/// Split a serialized log into `[len][frame]` chunks (offset, frame bytes).
fn frames(bytes: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if off + 4 + len > bytes.len() {
            break;
        }
        out.push((off, bytes[off..off + 4 + len].to_vec()));
        off += 4 + len;
    }
    out
}

#[test]
fn truncated_wal_is_caught_naming_the_tear() {
    let scratch = Scratch::new("torn");
    build_reorganized_db(scratch.path());
    let seg = active_segment(scratch.path());
    let first_lsn =
        obr_wal::segment::parse_segment_name(seg.file_name().unwrap().to_str().unwrap()).unwrap();
    let bytes = fs::read(&seg).unwrap();
    let parsed = frames(&bytes);
    assert!(parsed.len() > 2, "log too short to truncate meaningfully");
    // Cut inside the last frame: keep its header plus one payload byte.
    let (last_off, _) = parsed[parsed.len() - 1];
    fs::write(&seg, &bytes[..last_off + 5]).unwrap();

    // Dir mode: the tear is in the active segment, so it lints as a
    // crash-shaped torn frame naming the last intact LSN.
    let last_intact = obr_storage::Lsn(first_lsn.0 + parsed.len() as u64 - 2);
    let report = lint_wal_dir(&scratch.path().join("wal"), &WalLintOptions::default()).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "torn-frame" && f.lsn == Some(last_intact)),
        "no torn-frame finding naming LSN {last_intact}: {report}"
    );

    // File mode still works on a bare segment file.
    let file_report = lint_wal_file(&seg, &WalLintOptions::default()).unwrap();
    assert!(
        file_report.findings.iter().any(|f| f.code == "torn-frame"),
        "{file_report}"
    );
}

#[test]
fn reordered_wal_is_caught_naming_the_lsn() {
    let scratch = Scratch::new("reorder");
    build_reorganized_db(scratch.path());
    let wal_log = active_segment(scratch.path());
    let first_lsn =
        obr_wal::segment::parse_segment_name(wal_log.file_name().unwrap().to_str().unwrap())
            .unwrap();
    let bytes = fs::read(&wal_log).unwrap();
    let parsed = frames(&bytes);

    // Swap two adjacent frames inside a reorganization unit's chain.
    let is_chained = |frame: &[u8]| {
        matches!(
            obr_wal::LogRecord::decode(&frame[4..]),
            Ok(obr_wal::LogRecord::ReorgMove { .. }
                | obr_wal::LogRecord::ReorgModify { .. }
                | obr_wal::LogRecord::ReorgSidePtr { .. })
        )
    };
    let i = (0..parsed.len() - 1)
        .find(|&i| is_chained(&parsed[i].1) && is_chained(&parsed[i + 1].1))
        .expect("reorganization left no adjacent chained records");

    let mut spliced = Vec::with_capacity(bytes.len());
    for (j, (_, frame)) in parsed.iter().enumerate() {
        let src = if j == i {
            &parsed[i + 1].1
        } else if j == i + 1 {
            &parsed[i].1
        } else {
            frame
        };
        spliced.extend_from_slice(src);
    }
    fs::write(&wal_log, &spliced).unwrap();

    let report = lint_wal_dir(&scratch.path().join("wal"), &WalLintOptions::default()).unwrap();
    let lsn = obr_storage::Lsn(first_lsn.0 + i as u64);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "broken-prev-chain" && f.lsn == Some(lsn)),
        "no broken-prev-chain finding naming LSN {lsn}: {report}"
    );
}

/// A real rollback lints clean; the same log with one update's `prev_lsn`
/// cut to zero — the undo chain now skips every earlier update of that
/// transaction — is caught naming the record.
#[test]
fn cut_undo_chain_is_caught_naming_the_lsn() {
    use obr_wal::LogRecord;
    let scratch = Scratch::new("undo-chain");
    {
        let db =
            Database::create_durable(scratch.path(), 256, 64, SidePointerMode::TwoWay).unwrap();
        let session = Session::new(Arc::clone(&db));
        session.insert(1, b"kept").unwrap();
        let mut t = session.begin();
        t.insert(2, b"a").unwrap();
        t.insert(3, b"b").unwrap();
        t.delete(1).unwrap();
        t.abort().unwrap();
        assert_eq!(
            session.read(1).unwrap().as_deref(),
            Some(b"kept".as_slice())
        );
        db.log().flush_all().unwrap();
    }
    let wal = scratch.path().join("wal");
    let clean = lint_wal_dir(&wal, &WalLintOptions::default()).unwrap();
    assert!(clean.is_clean(), "{clean}");

    let seg = active_segment(scratch.path());
    let bytes = fs::read(&seg).unwrap();
    let parsed = frames(&bytes);
    // The aborted transaction's third update is the first record whose
    // `prev_lsn` names an update that itself has a predecessor.
    let (i, cut) = parsed
        .iter()
        .enumerate()
        .find_map(|(i, (_, frame))| match LogRecord::decode(&frame[4..]) {
            Ok(LogRecord::TxnDelete {
                txn,
                page,
                key,
                old_value,
                ..
            }) => Some((
                i,
                LogRecord::TxnDelete {
                    txn,
                    page,
                    key,
                    old_value,
                    prev_lsn: obr_storage::Lsn::ZERO,
                },
            )),
            _ => None,
        })
        .expect("the aborted transaction logged a delete");
    let mut sabotaged = Vec::with_capacity(bytes.len());
    for (j, (_, frame)) in parsed.iter().enumerate() {
        if j == i {
            let payload = cut.encode();
            sabotaged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            sabotaged.extend_from_slice(&payload);
        } else {
            sabotaged.extend_from_slice(frame);
        }
    }
    fs::write(&seg, &sabotaged).unwrap();

    let report = lint_wal_dir(&wal, &WalLintOptions::default()).unwrap();
    let lsn = obr_storage::Lsn(i as u64 + 1);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "txn-broken-undo-chain" && f.lsn == Some(lsn)),
        "no txn-broken-undo-chain finding naming LSN {lsn}: {report}"
    );
}

/// A log that holds what the raw log API can still produce (a commit for a
/// transaction with no other record) next to a committed writer and an
/// unfinished one recovers — the unfinished writer is undone, the
/// committed one kept — and lints without a finding.
#[test]
fn log_with_a_bare_commit_recovers_and_lints_clean() {
    use obr_check::lint_log;
    use obr_storage::{DiskManager, Lsn};
    use obr_wal::{LogRecord, TxnId};
    let disk = Arc::new(InMemoryDisk::new(256));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        256,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let (tree, log) = (db.tree(), db.log());
    // Ids far from the ones `begin_txn` hands out.
    let (winner, loser, reader) = (TxnId(9_001), TxnId(9_002), TxnId(9_004));
    let l = tree.insert(winner, Lsn::ZERO, 10, b"kept").unwrap();
    tree.insert(winner, l, 11, b"kept too").unwrap();
    log.append(&LogRecord::TxnCommit { txn: winner });
    tree.insert(loser, Lsn::ZERO, 20, b"undone").unwrap();
    log.append(&LogRecord::TxnCommit { txn: reader });
    log.flush_all().unwrap();
    db.crash(|_| true).unwrap();

    let db2 = Database::reopen(
        disk as Arc<dyn DiskManager>,
        Arc::clone(db.log()),
        256,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let report = obr_core::recover(&db2).unwrap();
    assert_eq!(report.losers_undone, 1, "the unfinished writer");
    assert_eq!(report.clrs_written, 1);
    assert_eq!(
        db2.tree().search(10).unwrap().as_deref(),
        Some(b"kept".as_slice())
    );
    assert_eq!(db2.tree().search(20).unwrap(), None);
    let lint = lint_log(db2.log(), &WalLintOptions::default());
    assert!(lint.findings.is_empty(), "{lint}");
}
