//! The eight experiments E1–E8 (see DESIGN.md for the paper mapping).
//! Each function runs self-contained and returns a printable report.

use obr_sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obr_baseline::{TandemConfig, TandemReorganizer};
use obr_btree::SidePointerMode;
use obr_core::{
    recover, Database, FailPoint, FailSite, LogStrategy, PlacementPolicy, ReorgConfig, Reorganizer,
};
use obr_lock::LockManager;
use obr_storage::{DiskManager, InMemoryDisk};
use obr_txn::{degrade, run_workload, KeyDist, Session, WorkloadConfig};

use crate::harness::{
    churned_database, churned_database_with_latency, cold_scan_cost, f, sparse_database, table,
    value_for, Row,
};

/// Scale knob: 1 = quick (seconds); larger values grow data sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub u64);

impl Scale {
    fn n(&self, base: u64) -> u64 {
        base * self.0
    }
}

fn default_cfg() -> ReorgConfig {
    ReorgConfig::default()
}

// ---------------------------------------------------------------------
// E1 — Table 1: the lock compatibility matrix and the special behaviours.
// ---------------------------------------------------------------------

/// E1: print the realized lock matrix and verify the two special
/// behaviours (RX => forgo; RS => unconditional instant duration).
pub fn e1_lock_matrix(_scale: Scale) -> String {
    use obr_lock::{LockError, LockMode, OwnerId, ResourceId};
    let mut out = String::new();
    out.push_str("\n== E1: lock compatibility (paper Table 1) ==\n");
    out.push_str(&LockManager::compatibility_table());
    // Behaviour demos.
    let m = LockManager::new();
    let page = ResourceId::Page(1);
    let base = ResourceId::Page(2);
    m.lock(OwnerId(9), page, LockMode::RX).unwrap();
    let forgone = matches!(
        m.lock(OwnerId(1), page, LockMode::S),
        Err(LockError::ConflictsWithReorg)
    );
    m.lock(OwnerId(9), base, LockMode::R).unwrap();
    let m2 = Arc::new(m);
    let m3 = Arc::clone(&m2);
    let h = std::thread::spawn(move || m3.lock_instant(OwnerId(1), base, LockMode::RS));
    std::thread::sleep(Duration::from_millis(30));
    let rs_waited = !h.is_finished();
    m2.unlock(OwnerId(9), base);
    let rs_granted = h.join().unwrap().is_ok();
    let nothing_held = m2.held_mode(OwnerId(1), base).is_none();
    out.push_str(&format!(
        "\nRX conflict action is 'forgo' (no queueing) ............ {}\n\
         RS blocks while the reorganizer holds R ................. {}\n\
         RS returns success once grantable ....................... {}\n\
         RS is instant duration (nothing actually held) .......... {}\n",
        forgone, rs_waited, rs_granted, nothing_held
    ));
    out
}

// ---------------------------------------------------------------------
// E2 — Figures 1 & 2: the three passes, measured.
// ---------------------------------------------------------------------

/// E2: fill factor, page counts, height, and full-scan cost after each
/// pass, for several initial fill factors.
pub fn e2_three_passes(scale: Scale) -> String {
    let mut rows: Vec<Row> = Vec::new();
    for f1 in [0.2, 0.35, 0.5] {
        let n = scale.n(4000);
        let (disk, db) = churned_database(32_768, n, f1, 64, 0xBEEF ^ (f1 * 100.0) as u64);
        let snap = |label: &str| -> Row {
            let s = db.tree().stats().unwrap();
            // Cold full-range scan cost under the disk model. The seek
            // column is the leaf-chain seek distance (the quantity pass 2
            // minimizes), excluding the fixed descent into the leaf region.
            let (reads, _total_seek) = cold_scan_cost(&disk, &db);
            vec![
                format!("{f1:.2}"),
                label.to_string(),
                s.leaf_pages.to_string(),
                s.internal_pages.to_string(),
                s.height.to_string(),
                f(s.avg_leaf_fill),
                s.leaf_discontinuities().to_string(),
                s.scan_seek_distance().to_string(),
                reads.to_string(),
            ]
        };
        rows.push(snap("initial"));
        let reorg = Reorganizer::new(Arc::clone(&db), default_cfg());
        reorg.pass1_compact().unwrap();
        rows.push(snap("pass1"));
        reorg.pass2_swap_move().unwrap();
        rows.push(snap("pass2"));
        reorg.pass3_shrink().unwrap();
        rows.push(snap("pass3"));
        db.tree().validate().unwrap();
    }
    table(
        "E2: three passes (Figures 1-2), f2 = 0.90",
        &[
            "f1", "pass", "leaves", "internal", "height", "fill", "disorder", "seek", "scan_io",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// E3 — §6.1: the placement heuristic vs naive policies.
// ---------------------------------------------------------------------

/// E3: pass-2 parks and moves under each placement policy, across
/// sparseness levels. The paper: "our algorithm can greatly reduce the
/// number of swaps needed at the second pass"; here a swap's work is moves,
/// plus a park for each cycle of occupied targets.
pub fn e3_placement(scale: Scale) -> String {
    let mut rows: Vec<Row> = Vec::new();
    for f1 in [0.15, 0.25, 0.4] {
        for (name, policy) in [
            ("heuristic", PlacementPolicy::Heuristic),
            ("first-free", PlacementPolicy::FirstFree),
            ("random", PlacementPolicy::Random(42)),
            ("in-place", PlacementPolicy::InPlaceOnly),
        ] {
            let n = scale.n(3000);
            let (_disk, db) = churned_database(32_768, n, f1, 64, 0xA11CE);
            let cfg = ReorgConfig {
                placement: policy,
                shrink_pass: false,
                ..default_cfg()
            };
            let reorg = Reorganizer::new(Arc::clone(&db), cfg);
            reorg.pass1_compact().unwrap();
            reorg.pass2_swap_move().unwrap();
            db.tree().validate().unwrap();
            let s = reorg.stats();
            let st = db.tree().stats().unwrap();
            rows.push(vec![
                format!("{f1:.2}"),
                name.to_string(),
                s.copy_switch_units.to_string(),
                s.inplace_units.to_string(),
                s.swaps.to_string(),
                s.moves.to_string(),
                st.leaf_discontinuities().to_string(),
            ]);
        }
    }
    table(
        "E3: Find-Free-Space policy vs pass-2 units (§6.1)",
        &[
            "f1",
            "policy",
            "copy-switch",
            "in-place",
            "parks",
            "moves",
            "disorder",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// E4 — §8: concurrency vs the Tandem whole-file-lock baseline.
// ---------------------------------------------------------------------

/// E4: reader/updater throughput while reorganization runs — ours vs the
/// \[Smi90\] baseline vs a no-reorganization control.
pub fn e4_concurrency(scale: Scale) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let n = scale.n(3000);
    for threads in [2usize, 4, 8] {
        for system in ["control", "salzberg-zou", "tandem"] {
            // Per-I/O latency gives lock hold times their realistic I/O
            // component; without it, in-memory speed hides the cost of the
            // baseline's whole-file lock.
            let (_disk, db) =
                churned_database_with_latency(65_536, n, 0.25, 64, 0xE4, Duration::from_micros(50));
            let wl = WorkloadConfig {
                readers: threads / 2,
                updaters: threads - threads / 2,
                // Wide keyspace: keep user-vs-user record conflicts rare so
                // the blocking measured is the reorganizer's.
                key_space: n * 8,
                duration: Duration::from_millis(600),
                dist: KeyDist::Uniform,
                scan_fraction: 0.02,
                ..WorkloadConfig::default()
            };
            let stop = AtomicBool::new(false);
            let before = db.metrics().snapshot();
            let (report, reorg_elapsed) = std::thread::scope(|s| {
                let dbr = Arc::clone(&db);
                let reorg_handle = match system {
                    "salzberg-zou" => Some(s.spawn(move || {
                        let t0 = Instant::now();
                        let cfg = ReorgConfig {
                            shrink_pass: false,
                            ..default_cfg()
                        };
                        let r = Reorganizer::new(dbr, cfg);
                        r.pass1_compact().unwrap();
                        r.pass2_swap_move().unwrap();
                        t0.elapsed()
                    })),
                    "tandem" => Some(s.spawn(move || {
                        let t0 = Instant::now();
                        let t = TandemReorganizer::new(dbr, TandemConfig::default());
                        t.run().unwrap();
                        t0.elapsed()
                    })),
                    _ => None,
                };
                let report = run_workload(&db, &wl, &stop);
                let reorg_elapsed = reorg_handle
                    .map(|h| h.join().expect("reorg thread"))
                    .unwrap_or_default();
                (report, reorg_elapsed)
            });
            db.tree().validate().unwrap();
            let after = db.metrics().snapshot();
            let delta = |name: &str| after.counter(name) - before.counter(name);
            rows.push(vec![
                threads.to_string(),
                system.to_string(),
                format!("{:.0}", report.throughput()),
                format!("{:?}", report.read_latency.percentile(0.99)),
                format!("{:?}", report.update_latency.max()),
                // Every §4.1.2 RS fallback starts with exactly one forgone
                // request: RX is only ever held on leaves.
                delta("lock_forgone_rx").to_string(),
                delta("lock_grants_waited").to_string(),
                format!("{:.1}ms", delta("lock_wait_ns_total") as f64 / 1e6),
                if reorg_elapsed == Duration::default() {
                    "-".into()
                } else {
                    format!("{reorg_elapsed:.1?}")
                },
            ]);
        }
    }
    table(
        "E4: throughput under concurrent reorganization (§8 vs [Smi90])",
        &[
            "threads",
            "system",
            "ops/s",
            "p99_read",
            "max_upd",
            "forgone_rx",
            "lock_waits",
            "blocked",
            "reorg_time",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// E5 — §5.1: forward recovery vs rollback.
// ---------------------------------------------------------------------

/// E5: crash the reorganizer mid-unit `k` times; forward recovery keeps the
/// moved records and finishes the unit, then the run resumes from LK.
pub fn e5_forward_recovery(scale: Scale) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let n = scale.n(2500);
    for crashes in [1u64, 2, 4] {
        // --- Ours: forward recovery. ---
        let t0 = Instant::now();
        let disk = Arc::new(InMemoryDisk::new(32_768));
        let mut db = Database::create(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            32_768,
            SidePointerMode::TwoWay,
        )
        .unwrap();
        let records: Vec<(u64, Vec<u8>)> = (0..n).map(|k| (k, value_for(k, 64))).collect();
        db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
        let expected = db.tree().collect_all().unwrap();
        db.checkpoint().expect("checkpoint");
        let mut preserved = 0u64;
        let mut forward_units = 0usize;
        for c in 0..crashes {
            let cfg = ReorgConfig {
                swap_pass: false,
                shrink_pass: false,
                ..default_cfg()
            };
            let reorg = Reorganizer::new(Arc::clone(&db), cfg)
                .with_fail_point(FailPoint::new(FailSite::AfterFirstMove, 2 + c));
            match reorg.pass1_compact() {
                Err(_) => {
                    // Partial flush, then power failure.
                    let mut flip = c % 2 == 0;
                    db.crash(|_| {
                        flip = !flip;
                        flip
                    })
                    .unwrap();
                    let log = Arc::clone(db.log());
                    db = Database::reopen(
                        Arc::clone(&disk) as Arc<dyn DiskManager>,
                        log,
                        32_768,
                        SidePointerMode::TwoWay,
                    )
                    .unwrap();
                    let rep = recover(&db).unwrap();
                    preserved += rep.records_preserved;
                    forward_units += rep.forward_units_completed;
                }
                Ok(()) => break,
            }
        }
        // Finish the reorganization.
        let cfg = ReorgConfig {
            swap_pass: false,
            shrink_pass: false,
            ..default_cfg()
        };
        Reorganizer::new(Arc::clone(&db), cfg)
            .pass1_compact()
            .unwrap();
        assert_eq!(db.tree().collect_all().unwrap(), expected);
        db.tree().validate().unwrap();
        let ours = t0.elapsed();
        let fill_ours = db.tree().stats().unwrap().avg_leaf_fill;
        rows.push(vec![
            crashes.to_string(),
            "forward (ours)".into(),
            format!("{ours:.1?}"),
            forward_units.to_string(),
            preserved.to_string(),
            f(fill_ours),
        ]);
        // --- Baseline: rollback-style (in-flight work lost, restart scan). ---
        let t0 = Instant::now();
        let (_disk2, db2) = sparse_database(32_768, n, 0.25, 64);
        db2.checkpoint().expect("checkpoint");
        for c in 0..crashes {
            let t = TandemReorganizer::new(
                Arc::clone(&db2),
                TandemConfig {
                    ordering_phase: false,
                    ..TandemConfig::default()
                },
            );
            // Crash after some transactions: abandon mid-run; the in-flight
            // operation's work is rolled back (never logged).
            let db3 = Arc::clone(&db2);
            std::thread::scope(|s| {
                let stopper = s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(5 + c * 3));
                    t.stop.store(true, obr_sync::atomic::Ordering::Relaxed);
                });
                t.run_merges().unwrap();
                stopper.join().unwrap();
            });
            let _ = db3;
        }
        let t = TandemReorganizer::new(
            Arc::clone(&db2),
            TandemConfig {
                ordering_phase: false,
                ..TandemConfig::default()
            },
        );
        t.run_merges().unwrap();
        db2.tree().validate().unwrap();
        let theirs = t0.elapsed();
        let fill_theirs = db2.tree().stats().unwrap().avg_leaf_fill;
        rows.push(vec![
            crashes.to_string(),
            "rollback [Smi90]".into(),
            format!("{theirs:.1?}"),
            "0".into(),
            "0".into(),
            f(fill_theirs),
        ]);
    }
    table(
        "E5: crashes during reorganization (§5.1 Forward Recovery)",
        &[
            "crashes",
            "recovery",
            "total_time",
            "fwd_units",
            "records_kept",
            "final_fill",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// E6 — §5: log volume under the three logging strategies.
// ---------------------------------------------------------------------

/// E6: reorganization log bytes — keys-only (careful writing) vs full
/// records vs \[Smi90\] page images.
pub fn e6_log_volume(scale: Scale) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let n = scale.n(3000);
    for (name, strategy) in [
        ("keys-only", Some(LogStrategy::KeysOnly)),
        ("full-records", Some(LogStrategy::FullRecords)),
        ("page-image [Smi90]", None),
    ] {
        let (_disk, db) = sparse_database(32_768, n, 0.25, 64);
        let bytes_before = db.metrics().snapshot().counter("wal_append_bytes");
        let moved = match strategy {
            Some(ls) => {
                let cfg = ReorgConfig {
                    log_strategy: ls,
                    shrink_pass: false,
                    ..default_cfg()
                };
                let r = Reorganizer::new(Arc::clone(&db), cfg);
                r.pass1_compact().unwrap();
                r.pass2_swap_move().unwrap();
                r.stats().records_moved
            }
            None => {
                let t = TandemReorganizer::new(Arc::clone(&db), TandemConfig::default());
                t.run().unwrap();
                t.stats().records_moved
            }
        };
        let bytes = db.metrics().snapshot().counter("wal_append_bytes") - bytes_before;
        db.tree().validate().unwrap();
        rows.push(vec![
            name.to_string(),
            moved.to_string(),
            bytes.to_string(),
            f(bytes as f64 / moved.max(1) as f64),
        ]);
    }
    table(
        "E6: reorganization log volume (§5 careful writing)",
        &["strategy", "records_moved", "log_bytes", "bytes/record"],
        &rows,
    )
}

// ---------------------------------------------------------------------
// E7 — §7: availability during internal-page reorganization.
// ---------------------------------------------------------------------

/// E7: pass 3 under a live update workload: side-file traffic, stable
/// points, and updater throughput with/without the rebuild running.
pub fn e7_pass3_availability(scale: Scale) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let n = scale.n(12_000);
    for with_reorg in [false, true] {
        let disk = Arc::new(InMemoryDisk::with_latency(
            65_536,
            Duration::from_micros(10),
        ));
        let db = Database::create(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            65_536,
            SidePointerMode::TwoWay,
        )
        .unwrap();
        let records: Vec<(u64, Vec<u8>)> = (0..n).map(|k| (k * 2, value_for(k, 64))).collect();
        // Full leaves so concurrent inserts split behind the read frontier
        // (feeding the side file); low node fill so pass 3 has real work.
        db.tree().bulk_load(&records, 0.9, 0.04).unwrap();
        let wl = WorkloadConfig {
            readers: 1,
            updaters: 4,
            key_space: n * 2,
            duration: Duration::from_millis(900),
            scan_fraction: 0.0,
            ..WorkloadConfig::default()
        };
        let stop = AtomicBool::new(false);
        let (report, p3) = std::thread::scope(|s| {
            let dbr = Arc::clone(&db);
            let handle = with_reorg.then(|| {
                s.spawn(move || {
                    // Let the workload warm up so pass 3 truly overlaps it.
                    std::thread::sleep(Duration::from_millis(250));
                    let cfg = ReorgConfig {
                        stable_interval: 3,
                        ..default_cfg()
                    };
                    let r = Reorganizer::new(dbr, cfg);
                    let t0 = Instant::now();
                    r.pass3_shrink().unwrap();
                    (r.stats(), t0.elapsed())
                })
            });
            let report = run_workload(&db, &wl, &stop);
            let p3 = handle.map(|h| h.join().expect("pass3 thread"));
            (report, p3)
        });
        db.tree().validate().unwrap();
        let (stats, elapsed) = match p3 {
            Some((s, e)) => (Some(s), Some(e)),
            None => (None, None),
        };
        rows.push(vec![
            if with_reorg {
                "pass3 running"
            } else {
                "control"
            }
            .into(),
            format!("{:.0}", report.throughput()),
            format!("{:?}", report.update_latency.percentile(0.99)),
            stats
                .map(|s| s.base_pages_read.to_string())
                .unwrap_or_else(|| "-".into()),
            stats
                .map(|s| s.stable_points.to_string())
                .unwrap_or_else(|| "-".into()),
            stats
                .map(|_| db.side_file().appended_total().to_string())
                .unwrap_or_else(|| "-".into()),
            stats
                .map(|s| s.side_entries_applied.to_string())
                .unwrap_or_else(|| "-".into()),
            elapsed
                .map(|e| format!("{e:.1?}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table(
        "E7: availability during pass 3 (§7): side file + switch",
        &[
            "run",
            "ops/s",
            "p99_upd",
            "bases_read",
            "stable_pts",
            "side_appended",
            "side_applied",
            "pass3_time",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// E8 — §2 motivation: free-at-empty degradation.
// ---------------------------------------------------------------------

/// E8: utilization decay under mixed insert/delete churn — why on-line
/// reorganization is needed at all.
pub fn e8_degradation(scale: Scale) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let n = scale.n(3000);
    let disk = Arc::new(InMemoryDisk::new(65_536));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        65_536,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    degrade(&db, n, 64, 0.0, 1); // initial full load
    let session = Session::new(Arc::clone(&db));
    let mut rng: u64 = 0x1234_5678;
    let mut next_key = n;
    for round in 0..=5u32 {
        let s = db.tree().stats().unwrap();
        let (reads, seek) = cold_scan_cost(&disk, &db);
        rows.push(vec![
            round.to_string(),
            s.records.to_string(),
            s.leaf_pages.to_string(),
            f(s.avg_leaf_fill),
            s.leaf_discontinuities().to_string(),
            f(reads as f64 * 1000.0 / s.records.max(1) as f64),
            seek.to_string(),
        ]);
        if round == 5 {
            break;
        }
        // One churn round: delete 40% of surviving keys, insert 25% new
        // (net shrink, like an aging table with free-at-empty).
        let keys: Vec<u64> = db
            .tree()
            .collect_all()
            .unwrap()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if rng % 100 < 40 {
                let _ = session.delete(k);
            }
        }
        for _ in 0..(n / 4) {
            let _ = session.insert(next_key, &value_for(next_key, 64));
            next_key += 1;
        }
    }
    db.tree().validate().unwrap();
    table(
        "E8: free-at-empty degradation under churn (§2, [JS93])",
        &[
            "round",
            "records",
            "leaves",
            "fill",
            "disorder",
            "reads/1k-recs",
            "seek",
        ],
        &rows,
    )
}

/// Run every experiment in order.
pub fn run_all(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&e1_lock_matrix(scale));
    out.push_str(&e2_three_passes(scale));
    out.push_str(&e3_placement(scale));
    out.push_str(&e4_concurrency(scale));
    out.push_str(&e5_forward_recovery(scale));
    out.push_str(&e6_log_volume(scale));
    out.push_str(&e7_pass3_availability(scale));
    out.push_str(&e8_degradation(scale));
    out
}
