//! Scripted workloads behind the `obr-cli stats --workload` and
//! `obr-cli trace` surfaces.
//!
//! Two shapes live here:
//!
//! * [`mixed_reorg_workload`] — a durable database under a concurrent
//!   update workload *while* the reorganizer runs passes 1 and 3. Exists to
//!   light up the observability counters that only concurrency can produce:
//!   forgone requests against held RX locks (`lock_forgone_rx`), side-file
//!   backlog during the pass-3 rebuild (`side_file_depth` peak), and WAL
//!   group-commit batching (`wal_batches` / `wal_syncs`).
//! * [`scripted_reorg_trace`] — a fully deterministic single-threaded
//!   three-pass reorganization whose trace-event stream is stable across
//!   runs; the golden trace-schema test and `obr-cli trace` both use it.
//!
//! Both drive the engine in-process. Their wire-level counterpart is the
//! scenario suite of [`obr::server::scenario`](obr_server::scenario)
//! (`obr-cli scenario`), which runs the same shapes of work — churn,
//! sparsification, reorg-under-load, crash-restart — through a real TCP
//! server and concurrent network clients instead of direct sessions.

use obr_sync::atomic::AtomicBool;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use obr_btree::SidePointerMode;
use obr_core::{CoreResult, Database, ReorgConfig, Reorganizer};
use obr_obs::TraceEvent;
use obr_storage::{DiskManager, InMemoryDisk};
use obr_txn::{run_workload, Session, WorkloadConfig};

/// Rounds of [`mixed_reorg_workload`] before giving up on the target
/// counters (each round is under a second; one round usually suffices).
const MAX_MIXED_ROUNDS: u64 = 6;

/// Create a durable database under `dir` and run a mixed update workload
/// concurrently with reorganization passes 1 and 3, repeating (up to
/// `MAX_MIXED_ROUNDS` rounds) until the concurrency-only metrics are all
/// nonzero: `lock_forgone_rx`, the `side_file_depth` peak, and `wal_syncs`.
/// Returns the database so the caller can snapshot or keep using it.
pub fn mixed_reorg_workload(dir: &Path) -> CoreResult<Arc<Database>> {
    let n: u64 = 6_000;
    let db = Database::create_durable(dir, 16_384, 1_024, SidePointerMode::TwoWay)?;
    // Full leaves — concurrent inserts split them behind pass 3's read
    // frontier, feeding the side file — under a thin upper level so pass 3
    // has a real rebuild to do (the §7 / E7 recipe).
    let records: Vec<(u64, Vec<u8>)> = (0..n).map(|k| (k * 2, vec![0x5a; 64])).collect();
    db.tree().bulk_load(&records, 0.9, 0.04)?;
    let session = Session::new(Arc::clone(&db));
    for round in 0..MAX_MIXED_ROUNDS {
        let wl = WorkloadConfig {
            readers: 1,
            updaters: 4,
            key_space: n * 2,
            scan_fraction: 0.0,
            seed: 11 + round,
            ..WorkloadConfig::default()
        };
        // Phase A: pass 3 races the updaters over the full leaves. A
        // dedicated splitter inserts ascending odd keys into the (full)
        // low-key leaves once the read frontier has passed them; those
        // splits are exactly the base-page changes the side file catches.
        let wl_a = WorkloadConfig {
            duration: Duration::from_millis(800),
            ..wl.clone()
        };
        let stop = AtomicBool::new(false);
        let split_stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let dbr = Arc::clone(&db);
            let reorg_stop = &split_stop;
            let reorg = s.spawn(move || {
                // Let the updaters warm up so pass 3 truly overlaps them,
                // then keep re-running it for the rest of the phase: each
                // run is a fresh side-file window, and a run lost to a
                // deadlock give-up (part of the scenario, not a failure)
                // just means the next one starts sooner.
                std::thread::sleep(Duration::from_millis(250));
                while !reorg_stop.load(obr_sync::atomic::Ordering::Relaxed) {
                    let cfg = ReorgConfig {
                        stable_interval: 1,
                        ..ReorgConfig::default()
                    };
                    let _ = Reorganizer::new(Arc::clone(&dbr), cfg).pass3_shrink();
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
            let dbs = Arc::clone(&db);
            let split_stop = &split_stop;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                let splitter = Session::new(dbs);
                // Oscillate the lowest-key band between overfull and empty:
                // insert epochs split leaves, delete epochs free them at
                // empty. The read frontier passes this band as soon as
                // pass 3 starts, so every later split/free is a base-entry
                // change behind it — exactly what the side file catches.
                let mut insert_epoch = true;
                'epochs: loop {
                    for k in 0..1_024u64 {
                        if split_stop.load(obr_sync::atomic::Ordering::Relaxed) {
                            break 'epochs;
                        }
                        if insert_epoch {
                            let _ = splitter.insert(k, &[0x33; 64]);
                        } else {
                            let _ = splitter.delete(k);
                        }
                    }
                    insert_epoch = !insert_epoch;
                }
            });
            run_workload(&db, &wl_a, &stop);
            split_stop.store(true, obr_sync::atomic::Ordering::Relaxed);
            reorg.join().expect("pass3 thread");
        });
        // Phase B: sparsify the leaves, then compact them (pass 1) under
        // hot-key updaters; their X requests hit the units' RX locks and
        // are forgone (Table 1). Pass 1 re-runs a few times because the
        // updaters' own deletes keep re-sparsifying leaves.
        for k in 0..n {
            if k % 4 != round % 4 {
                let _ = session.delete(k * 2);
            }
        }
        let wl_b = WorkloadConfig {
            updaters: 6,
            duration: Duration::from_millis(600),
            ..wl
        };
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let dbr = Arc::clone(&db);
            let reorg = s.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                let r = Reorganizer::new(dbr, ReorgConfig::default());
                for _ in 0..6 {
                    let _ = r.pass1_compact();
                    std::thread::sleep(Duration::from_millis(30));
                }
            });
            run_workload(&db, &wl_b, &stop);
            reorg.join().expect("pass1 thread");
        });
        let snap = db.metrics_snapshot()?;
        if snap.counter("lock_forgone_rx") > 0
            && snap.gauge_peak("side_file_depth") > 0
            && snap.counter("wal_syncs") > 0
        {
            break;
        }
    }
    db.checkpoint()?;
    Ok(db)
}

/// A deterministic three-pass reorganization on an in-memory database:
/// sparse bulk load, then `Reorganizer::run` single-threaded. The returned
/// trace is byte-stable across runs (modulo `seq`/`us`, which
/// [`TraceEvent::to_json_stable`] omits), making it suitable as a golden
/// fixture.
pub fn scripted_reorg_trace() -> CoreResult<(Arc<Database>, Vec<TraceEvent>)> {
    let disk = Arc::new(InMemoryDisk::new(4_096));
    let db = Database::create(disk as Arc<dyn DiskManager>, 4_096, SidePointerMode::TwoWay)?;
    let records: Vec<(u64, Vec<u8>)> = (0..1_200u64).map(|k| (k * 2, vec![0x42; 48])).collect();
    // Sparse leaves give pass 1 work; the thin upper level gives pass 3 a
    // level to shrink. In-place-only placement leaves the compacted pages
    // scattered, so pass 2 has moves to trace; stable_interval 1
    // puts a pass-3 stable point after every base page.
    db.tree().bulk_load(&records, 0.25, 0.5)?;
    let cfg = ReorgConfig {
        placement: obr_core::PlacementPolicy::InPlaceOnly,
        stable_interval: 1,
        ..ReorgConfig::default()
    };
    Reorganizer::new(Arc::clone(&db), cfg).run()?;
    let events = db.tracer().events();
    Ok((db, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_reorg_trace_is_deterministic() {
        let stable = |events: Vec<TraceEvent>| -> Vec<String> {
            events.iter().map(|e| e.to_json_stable()).collect()
        };
        let (_, a) = scripted_reorg_trace().unwrap();
        let (_, b) = scripted_reorg_trace().unwrap();
        assert!(!a.is_empty());
        assert_eq!(stable(a), stable(b));
    }
}
