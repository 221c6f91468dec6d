//! Log-shipping replica: sealed-segment ingest, tail streaming, and
//! following the primary through checkpoints and a live pass-3 tree
//! switch. The acceptance shape: after shipping, the replica's scan is
//! byte-identical to the primary's committed snapshot, and every way of
//! feeding a replica agrees with the primary's own recovery.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_core::{recover, Database, EngineConfig, ReorgConfig, Reorganizer, Replica};
use obr_server::client::{Client, NetReplica};
use obr_server::server::{Server, ServerConfig};
use obr_storage::{DiskManager, FileDisk, Lsn, PageId, PAGE_SIZE};
use obr_txn::Session;

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("obr-replica-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const PAGES: u32 = 4096;
const FRAMES: usize = 1024;

/// A durable primary with a tiny segment threshold so workloads seal
/// several segments, paired with a same-geometry replica.
fn primary_and_replica(tag: &str) -> (Scratch, Arc<Database>, Replica) {
    let scratch = Scratch::new(tag);
    let db = Database::create_durable_with_config(
        scratch.path(),
        PAGES,
        FRAMES,
        SidePointerMode::TwoWay,
        EngineConfig {
            wal_segment_bytes: 2048,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let replica = Replica::new(PAGES, FRAMES, SidePointerMode::TwoWay).unwrap();
    (scratch, db, replica)
}

/// Every page reachable from `db`'s tree, with its LSN and its bytes less
/// the low mark. Redo of a MOVE into a reused leaf keeps the low mark the
/// page had before, where the primary set a fresh one (the record does not
/// carry it), so that header field alone may differ.
fn reachable_pages(db: &Database) -> BTreeMap<PageId, (Lsn, Box<[u8; PAGE_SIZE]>)> {
    let mut out = BTreeMap::new();
    for p in db.tree().reachable_pages().unwrap() {
        let g = db.pool().fetch(p).unwrap();
        let mut page = g.read().clone();
        page.set_low_mark(u64::MAX);
        out.insert(p, (page.lsn(), Box::new(*page.bytes())));
    }
    out
}

/// The divergence oracle: one history — churn with a rollback, a full
/// reorganization ending in a tree switch, a checkpoint that recycles the
/// log below it, more churn — fed to a replica three ways (the live log,
/// SHIP over loopback, a page-file snapshot plus the segment files), and
/// replayed by the primary's own restart from a copy of its files. All four
/// must land on the same LSN, the same records, and the same reachable
/// pages, LSN for LSN and byte for byte but for the low mark.
#[test]
fn every_feed_and_restart_recovery_replay_to_the_same_pages() {
    let (scratch, db, via_sync) = primary_and_replica("oracle");
    let cfg = EngineConfig {
        wal_segment_bytes: 2048,
        ..EngineConfig::default()
    };
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::from_engine("127.0.0.1:0", &cfg),
    )
    .unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let via_net = NetReplica::bootstrap(&mut client, FRAMES).unwrap();
    let follow = |client: &mut Client| {
        db.log().flush_all().unwrap();
        via_sync.sync_from(db.log()).unwrap();
        via_net.sync(client).unwrap();
    };

    let session = Session::new(Arc::clone(&db));
    for k in 0..1200u64 {
        session.insert(k, &[k as u8; 40]).unwrap();
    }
    for k in (0..1200u64).filter(|k| k % 4 != 0) {
        session.delete(k).unwrap();
    }
    let mut t = session.begin();
    for k in (0..1200u64).step_by(8) {
        t.update(k, &[0xEE; 40]).unwrap();
    }
    t.commit().unwrap();
    let mut t = session.begin();
    t.insert(5000, b"rolled back").unwrap();
    t.update(4, b"rolled back").unwrap();
    t.abort().unwrap();
    follow(&mut client);

    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
        .run()
        .unwrap();
    follow(&mut client);
    assert!(via_sync.switches_seen() >= 1, "pass 3 must switch trees");

    // The checkpoint flushes every page, so the page file is a snapshot as
    // of it; the segments below the low-water mark are recycled.
    db.truncate_log().unwrap();
    let first = db.log().first_lsn();
    assert!(first > Lsn(1), "truncation must recycle a segment");
    let snapshot = scratch.path().join("snapshot.db");
    std::fs::copy(scratch.path().join("pages.db"), &snapshot).unwrap();
    for k in 2000..2300u64 {
        session.insert(k, &[0x5A; 40]).unwrap();
    }
    follow(&mut client);
    client.bye().unwrap();
    server.stop_abrupt();

    // From the files alone: the snapshot, its floor, the surviving segments.
    let wal = scratch.path().join("wal");
    let disk = Arc::new(FileDisk::open(&snapshot, 1).unwrap());
    let via_dir = Replica::over(
        Database::reopen(
            disk as Arc<dyn DiskManager>,
            Arc::new(obr_wal::LogManager::new()),
            FRAMES,
            SidePointerMode::TwoWay,
        )
        .unwrap(),
    );
    via_dir.set_applied_floor(Lsn(first.0 - 1));
    via_dir.ingest_dir(&wal).unwrap();

    // The primary's own restart, from a copy of its files.
    let copy = scratch.path().join("copy");
    std::fs::create_dir_all(copy.join("wal")).unwrap();
    std::fs::copy(scratch.path().join("pages.db"), copy.join("pages.db")).unwrap();
    for (_, seg) in obr_wal::segment::list_segments(&wal).unwrap() {
        std::fs::copy(&seg, copy.join("wal").join(seg.file_name().unwrap())).unwrap();
    }
    let recovered = Database::open_durable(&copy, FRAMES, SidePointerMode::TwoWay).unwrap();
    let report = recover(&recovered).unwrap();
    assert_eq!(
        (report.losers_undone, report.forward_units_completed),
        (0, 0),
        "a quiesced primary leaves nothing to finish"
    );

    let records = db.tree().collect_all().unwrap();
    assert_eq!(recovered.tree().collect_all().unwrap(), records);
    let pages = reachable_pages(&recovered);
    for (name, replica) in [
        ("sync_from", &via_sync),
        ("NetReplica", via_net.replica()),
        ("ingest_dir", &via_dir),
    ] {
        assert_eq!(replica.applied_lsn(), db.log().durable_lsn(), "{name}");
        assert_eq!(replica.scan_all().unwrap(), records, "{name}");
        let got = reachable_pages(replica.database());
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            pages.keys().collect::<Vec<_>>(),
            "{name}: reachable page set"
        );
        for (p, (lsn, bytes)) in &got {
            let (want_lsn, want_bytes) = &pages[p];
            assert_eq!(lsn, want_lsn, "{name}: LSN of page {p}");
            assert!(bytes == want_bytes, "{name}: bytes of page {p}");
        }
    }
}

#[test]
fn replica_follows_sealed_segments_and_tail() {
    let (scratch, db, replica) = primary_and_replica("basic");
    let session = Session::new(Arc::clone(&db));
    for k in 0..300u64 {
        session.insert(k, &[0x21; 48]).unwrap();
        // Reads leave no trace in the log the replica follows.
        assert!(session.read(k).unwrap().is_some());
    }
    db.log().flush_all().unwrap();
    let records = db.log().records_from(obr_storage::Lsn(1)).unwrap();
    let txn_records = records
        .iter()
        .filter(|(_, r)| !matches!(r, obr_wal::LogRecord::Smo { .. }))
        .count();
    assert_eq!(txn_records, 2 * 300, "an insert and a commit each");
    assert!(
        db.log().segment_catalog().len() >= 2,
        "workload must seal at least one segment, got {:?}",
        db.log().segment_catalog().len()
    );

    // Out-of-process path: ship the files.
    let shipped = replica.ingest_dir(&scratch.path().join("wal")).unwrap();
    assert!(shipped > 0);
    // In-process path: stream whatever the files missed.
    replica.sync_from(db.log()).unwrap();
    assert_eq!(replica.lag(db.log()), 0);
    assert_eq!(replica.applied_lsn(), db.log().durable_lsn());

    assert_eq!(
        replica.scan_all().unwrap(),
        db.tree().collect_all().unwrap()
    );
    assert_eq!(replica.get(123).unwrap(), Some(vec![0x21; 48]));
    assert_eq!(replica.get(300).unwrap(), None);
    assert_eq!(replica.scan(10, 20).unwrap().len(), 11);

    let snap = replica.database().metrics().snapshot();
    assert_eq!(snap.gauge("replica_applied_lsn"), replica.applied_lsn().0);
    assert!(snap.counter("replica_records_applied") >= shipped);
    assert!(snap.counter("replica_segments_ingested") >= 1);
}

#[test]
fn replica_follows_a_live_pass3_switch() {
    let (_scratch, db, replica) = primary_and_replica("switch");
    let session = Session::new(Arc::clone(&db));
    for k in 0..800u64 {
        session.insert(k, &[0x37; 40]).unwrap();
    }
    // Punch holes so every pass has work, and checkpoint mid-history so the
    // replica crosses a checkpoint record too.
    for k in 0..800u64 {
        if k % 4 != 0 {
            session.delete(k).unwrap();
        }
    }
    db.checkpoint().unwrap();
    let reorg = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    reorg.run().unwrap();
    db.log().flush_all().unwrap();

    replica.sync_from(db.log()).unwrap();
    assert_eq!(replica.lag(db.log()), 0);
    assert!(
        replica.switches_seen() >= 1,
        "the reorganization must have switched trees"
    );
    assert!(replica.checkpoints_seen() >= 1);
    // The replica's reads run against the *new* tree, matching the primary.
    assert_eq!(
        replica.scan_all().unwrap(),
        db.tree().collect_all().unwrap()
    );
    replica.database().tree().validate().unwrap();

    // More writes after the switch keep shipping cleanly.
    for k in 1000..1100u64 {
        session.insert(k, &[0x55; 32]).unwrap();
    }
    db.log().flush_all().unwrap();
    replica.sync_from(db.log()).unwrap();
    assert_eq!(
        replica.scan_all().unwrap(),
        db.tree().collect_all().unwrap()
    );
}

#[test]
fn replica_that_missed_recycled_segments_reports_it() {
    let (_scratch, db, replica) = primary_and_replica("behind");
    let session = Session::new(Arc::clone(&db));
    for k in 0..300u64 {
        session.insert(k, &[0x44; 48]).unwrap();
    }
    // Checkpoint + truncate: sealed segments below the low-water mark are
    // recycled before the replica ever saw them.
    db.truncate_log().unwrap();
    assert!(
        db.log().first_lsn().0 > 1,
        "truncation must have dropped a segment for this test to bite"
    );
    let err = replica.sync_from(db.log()).unwrap_err();
    assert!(
        err.to_string().contains("re-seed"),
        "unexpected error: {err}"
    );
}

#[test]
fn fresh_replica_rejects_recycled_history_without_a_floor() {
    let (scratch, db, replica) = primary_and_replica("floorless");
    let session = Session::new(Arc::clone(&db));
    for k in 0..300u64 {
        session.insert(k, &[0x44; 48]).unwrap();
    }
    // Recycle sealed segments below the checkpoint low-water mark, so the
    // surviving WAL directory starts mid-history.
    db.truncate_log().unwrap();
    assert!(
        db.log().first_lsn().0 > 1,
        "truncation must have dropped a segment for this test to bite"
    );
    // A blank replica (applied == ZERO, no declared floor) must refuse to
    // apply from mid-history instead of silently diverging.
    let err = replica.ingest_dir(&scratch.path().join("wal")).unwrap_err();
    assert!(
        err.to_string().contains("set_applied_floor"),
        "unexpected error: {err}"
    );
    // Declaring the snapshot floor (what `obr-cli replica` does after
    // copying the page file) unblocks ingestion.
    let first = obr_wal::segment::list_segments(&scratch.path().join("wal")).unwrap()[0].0;
    replica.set_applied_floor(obr_storage::Lsn(first.0.saturating_sub(1)));
    replica.ingest_dir(&scratch.path().join("wal")).unwrap();
}

#[test]
fn sealed_segment_ingest_rejects_torn_files() {
    let (scratch, db, replica) = primary_and_replica("torn");
    let session = Session::new(Arc::clone(&db));
    for k in 0..300u64 {
        session.insert(k, &[0x66; 48]).unwrap();
    }
    db.log().flush_all().unwrap();
    let segments = obr_wal::segment::list_segments(&scratch.path().join("wal")).unwrap();
    assert!(segments.len() >= 2);
    // Chop the first sealed segment mid-record and ship it.
    let (_, sealed) = &segments[0];
    let bytes = std::fs::read(sealed).unwrap();
    std::fs::write(sealed, &bytes[..bytes.len() - 3]).unwrap();
    let err = replica.ingest_dir(&scratch.path().join("wal")).unwrap_err();
    assert!(err.to_string().contains("torn"), "unexpected error: {err}");
}
