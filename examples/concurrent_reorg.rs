//! Live reorganization under a mixed read/write workload: the paper's
//! headline scenario. Readers and updaters keep running; the ones that hit
//! an RX-locked leaf take the §4.1.2 instant-RS fallback and retry.
//!
//! ```text
//! cargo run --example concurrent_reorg
//! ```

use obr_sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use obr::btree::SidePointerMode;
use obr::core::{Database, ReorgConfig, Reorganizer};
use obr::storage::InMemoryDisk;
use obr::txn::{degrade, run_workload, KeyDist, WorkloadConfig};

fn main() {
    let disk = Arc::new(InMemoryDisk::with_latency(
        32_768,
        Duration::from_micros(20),
    ));
    let db = Database::create(disk, 32_768, SidePointerMode::TwoWay).expect("create");
    println!("loading and degrading 10,000 records...");
    degrade(&db, 10_000, 64, 0.6, 42);
    let before = db.tree().stats().expect("stats");
    println!(
        "before: {} leaves at fill {:.2}",
        before.leaf_pages, before.avg_leaf_fill
    );

    let wl = WorkloadConfig {
        readers: 2,
        updaters: 2,
        key_space: 20_000,
        duration: Duration::from_millis(800),
        dist: KeyDist::Uniform,
        ..WorkloadConfig::default()
    };
    let stop = AtomicBool::new(false);
    let forgone = || db.metrics().snapshot().counter("lock_forgone_rx");
    let forgone_before = forgone();
    let (report, reorg_stats) = std::thread::scope(|s| {
        let dbr = Arc::clone(&db);
        let h = s.spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let cfg = ReorgConfig {
                shrink_pass: false,
                ..ReorgConfig::default()
            };
            let r = Reorganizer::new(dbr, cfg);
            r.pass1_compact().expect("pass 1");
            r.pass2_swap_move().expect("pass 2");
            r.stats()
        });
        let report = run_workload(&db, &wl, &stop);
        (report, h.join().expect("reorg thread"))
    });

    let after = db.tree().stats().expect("stats");
    println!(
        "after:  {} leaves at fill {:.2} ({} units, {} records moved)",
        after.leaf_pages, after.avg_leaf_fill, reorg_stats.units, reorg_stats.records_moved
    );
    println!(
        "workload during reorganization: {:.0} ops/s  \
         (reads {}, scans {}, inserts {}, deletes {})",
        report.throughput(),
        report.reads,
        report.scans,
        report.inserts,
        report.deletes
    );
    println!(
        "protocol events: {} RS fallbacks (blocked by RX), {} restarts, \
         p99 read {:?}",
        forgone() - forgone_before,
        report.restarts,
        report.read_latency.percentile(0.99)
    );
    db.tree().validate().expect("tree stays consistent");
    println!("tree validated under concurrency");
}
