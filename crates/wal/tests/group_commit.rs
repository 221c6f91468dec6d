//! Group commit under real concurrency: K committers racing `flush_to` on a
//! file-backed log must each observe their own durability, while the
//! flusher-baton batching keeps the fsync count at or below K (and, when the
//! scheduler cooperates, well below it).

use std::sync::{Arc, Barrier};

use obr_obs::Registry;
use obr_wal::{LogManager, LogRecord, TxnId};

/// A fresh durable log that never seals, with its counters published into
/// a local registry so the tests can diff snapshots.
fn temp_wal(tag: &str) -> (std::path::PathBuf, Arc<LogManager>, Registry) {
    let dir = std::env::temp_dir().join(format!("obr-wal-gc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = Arc::new(LogManager::open_dir(&dir, u64::MAX).unwrap());
    let reg = Registry::new();
    log.register_metrics(&reg);
    (dir, log, reg)
}

/// K concurrent committers: every waiter sees `durable_lsn >= its lsn`, and
/// the whole storm costs between 1 and K fsyncs.
#[test]
fn concurrent_committers_batch_into_at_most_k_fsyncs() {
    const K: u64 = 8;
    const COMMITS_PER_THREAD: u64 = 10;
    let (dir, log, reg) = temp_wal("batch");
    let before = reg.snapshot();
    let barrier = Barrier::new(K as usize);
    std::thread::scope(|s| {
        for t in 0..K {
            let log = Arc::clone(&log);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..COMMITS_PER_THREAD {
                    let lsn = log.append(&LogRecord::TxnCommit {
                        txn: TxnId(t * COMMITS_PER_THREAD + i + 1),
                    });
                    log.flush_to(lsn).unwrap();
                    assert!(
                        log.durable_lsn() >= lsn,
                        "thread {t} commit {i}: durable {} < requested {lsn}",
                        log.durable_lsn()
                    );
                }
            });
        }
    });
    let after = reg.snapshot();
    let flush_calls = after.counter("wal_flush_calls") - before.counter("wal_flush_calls");
    let syncs = after.counter("wal_syncs") - before.counter("wal_syncs");
    // A committer whose lsn was already covered by someone else's batch
    // returns without touching the disk, so flush_calls <= total commits.
    assert!(flush_calls <= K * COMMITS_PER_THREAD);
    assert!(syncs >= 1, "someone must have hit the disk");
    assert!(
        syncs <= K * COMMITS_PER_THREAD,
        "group commit can never fsync more than once per commit: {syncs} > {}",
        K * COMMITS_PER_THREAD
    );
    // Nothing is lost: a crash now replays every record.
    assert_eq!(log.simulate_crash(), 0);
    let _ = std::fs::remove_dir_all(dir);
}

/// One storm of K committers released at once on a single barrier tick:
/// fsyncs stay <= K even in the worst case where nobody overlaps.
#[test]
fn single_wave_of_committers_never_exceeds_k_fsyncs() {
    const K: u64 = 8;
    let (dir, log, reg) = temp_wal("wave");
    let before = reg.snapshot();
    let barrier = Barrier::new(K as usize);
    std::thread::scope(|s| {
        for t in 0..K {
            let log = Arc::clone(&log);
            let barrier = &barrier;
            s.spawn(move || {
                let lsn = log.append(&LogRecord::TxnCommit { txn: TxnId(t + 1) });
                barrier.wait();
                log.flush_to(lsn).unwrap();
                assert!(log.durable_lsn() >= lsn);
            });
        }
    });
    let after = reg.snapshot();
    assert!(after.counter("wal_flush_calls") - before.counter("wal_flush_calls") <= K);
    let syncs = after.counter("wal_syncs") - before.counter("wal_syncs");
    assert!(
        (1..=K).contains(&syncs),
        "got {syncs} fsyncs for {K} commits"
    );
    let _ = std::fs::remove_dir_all(dir);
}
