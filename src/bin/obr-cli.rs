//! Interactive shell over a durable obr database.
//!
//! ```text
//! obr-cli <dir> [--pages N] [--segment-bytes B]
//! obr-cli check <dir> [--tree] [--locks] [--wal] [--all] [--live]
//! obr-cli check --crash [--budget N] [--seed S] [--segment-bytes B] [--report PATH]
//! obr-cli check --lint [--root DIR]
//! obr-cli check --protocol [--root DIR] [--report PATH]
//! obr-cli stats <dir> [--json]
//! obr-cli stats --workload [--json] [--keep DIR]
//! obr-cli trace [--out PATH]
//! obr-cli replica <dir> [--json]
//! obr-cli serve <dir> [--addr A] [--pages N] [--segment-bytes B]
//!                     [--max-sessions N] [--queue N]
//! obr-cli client <addr> <op> [args...]
//! obr-cli scenario <name>|all [--dir DIR] [--clients N] [--scale F]
//!                             [--out PATH] [--snapshots DIR]
//! ```
//!
//! Shell commands: `put K V`, `get K`, `del K`, `scan LO HI`, `stats`,
//! `reorg`, `reorg auto`, `checkpoint`, `truncate-log`, `help`, `quit`.
//! Data is durable across runs (pages + WAL live under `<dir>`; recovery
//! runs on startup).
//!
//! `check` has four modes, all sharing one exit-code contract (0 = clean
//! or warnings only, 1 = at least one error-severity finding, 2 = usage or
//! I/O problem before any checking ran):
//!
//! | mode              | what it checks                                     |
//! |-------------------|----------------------------------------------------|
//! | `check <dir>`     | files under `<dir>` without opening the database:  |
//! |                   | tree fsck over `pages.db` (`--tree`), WAL linter   |
//! |                   | over the segment dir `wal/` (`--wal`),             |
//! |                   | lock-protocol model checker (`--locks`, needs no   |
//! |                   | files); default `--all`                            |
//! | `check <dir> --live` | opens and recovers the database, then walks the |
//! |                   | live sharded buffer pool (non-perturbing)          |
//! | `check --crash`   | exhaustive crash-consistency checker over scripted |
//! |                   | workloads; `--budget N --seed S` picks a           |
//! |                   | deterministic sample for CI, `--segment-bytes B`   |
//! |                   | sets the segmented-WAL scenario's seal threshold   |
//! | `check --lint`    | concurrency source lint over the workspace tree at |
//! |                   | `--root DIR` (default `.`): unjustified            |
//! |                   | `Ordering::Relaxed`, raw `std::sync`/`parking_lot` |
//! |                   | imports bypassing the `obr-sync` facade, lock      |
//! |                   | calls inside `unsafe`, undocumented `unsafe`, and  |
//! |                   | staleness of the lint whitelist itself             |
//! | `check --protocol` | interprocedural protocol checker over the engine  |
//! |                   | sources at `--root DIR` (default `.`): builds a    |
//! |                   | whole-workspace call graph and proves              |
//! |                   | WAL-before-data on every static mutation path,     |
//! |                   | latch-acquisition orders against the vetted        |
//! |                   | `check/lockorder.toml` manifest, and               |
//! |                   | Release/Acquire pairing of atomic publication;     |
//! |                   | `--report PATH` writes the full report to a file   |
//!
//! `stats` prints the metrics registry — every counter, gauge (with its
//! peak) and histogram documented in DESIGN.md "Observability" — either as
//! an aligned table or, with `--json`, one JSON object. `stats <dir>`
//! opens and recovers the durable database under `<dir>` first (so the
//! recovery and tree-shape metrics reflect that database); `stats
//! --workload` instead runs the scripted mixed workload of
//! [`obr::workloads::mixed_reorg_workload`] — reorganization passes racing
//! live updaters — in a temporary directory (kept only with `--keep DIR`)
//! and reports the metrics it produced.
//!
//! `trace` runs the deterministic scripted reorganization of
//! [`obr::workloads::scripted_reorg_trace`] and emits its structured trace
//! as JSON Lines — one event per line, schema documented in DESIGN.md — to
//! stdout or to `--out PATH`.
//!
//! `serve <dir>` opens (or creates) the durable database under `<dir>`
//! and serves it over TCP with the length-prefixed wire protocol of
//! PROTOCOL.md — per-connection sessions, admission control
//! (`--max-sessions` / `--queue`), and WAL segment shipping for network
//! replicas. The bound address is printed on startup (`--addr` defaults
//! to `127.0.0.1:4140`; port 0 picks a free port). Typing `quit` (or
//! closing stdin) drains sessions, checkpoints, and exits.
//!
//! `client <addr> <op>` runs one wire-protocol operation against a
//! running server and prints the result: `ping`, `get K`, `put K V`,
//! `del K`, `scan LO HI [LIMIT]`, `stats`, `checkpoint`,
//! `reorg [--force]`, `info`. It is a smoke-test and scripting tool, not
//! a shell; the exit code is 0 on success, 1 on a server-reported error.
//!
//! `scenario <name>|all` runs the scripted end-to-end scenario suite of
//! [`obr::server::scenario`] — each scenario boots a real server, drives
//! it with concurrent wire clients, and ends with a full integrity check
//! (`bulk-load`, `steady-churn`, `delete-epoch`, `reorg-under-load`,
//! `crash-restart`). `--out` writes the machine-readable reports,
//! `--snapshots DIR` keeps one metrics snapshot per phase (the CI
//! artifacts), and the exit code is 1 if any scenario fails its check.
//!
//! `replica <dir>` bootstraps a log-shipping read replica from the durable
//! files of the primary database under `<dir>` (never modifying them) and
//! catches it up by ingesting every WAL segment, then prints the shipping
//! progress — applied LSN, records/segments applied, checkpoints and tree
//! switches followed, keys visible — as a table or (`--json`) one JSON
//! object; CI uploads the JSON as the replica-lag artifact. When creating
//! a database, the shell's `--segment-bytes B` sets the WAL seal
//! threshold, so a small value forces the workload to seal segments for
//! the replica to ship.

use std::io::{BufRead, Write};
use std::sync::Arc;

use obr::btree::SidePointerMode;
use obr::core::{recover, Database, ReorgConfig, ReorgTrigger, Reorganizer};
use obr::txn::{Session, TxnError};

/// `obr-cli check <dir> [--tree] [--locks] [--wal] [--all] [--live]`,
/// `obr-cli check --crash [--budget N] [--seed S] [--segment-bytes B]
/// [--report PATH]`, `obr-cli check --lint [--root DIR]`, or
/// `obr-cli check --protocol [--root DIR] [--report PATH]`.
///
/// Selecting no family is the same as `--all`. With `--live` the database is
/// opened and recovered first, and the tree fsck walks the live sharded
/// buffer pool (via the non-perturbing [`obr::check::PoolSource`]) instead
/// of the raw page file — this is what a post-stress-run health check uses.
/// `--crash` needs no `<dir>`: it enumerates crash states of its own
/// scripted workloads (exhaustive by default; `--budget`/`--seed` pick a
/// deterministic sample; `--segment-bytes` sets the segmented-WAL
/// scenario's seal threshold) and optionally writes the full report to
/// `--report PATH`. `--lint` also needs no `<dir>`: it walks the `.rs`
/// sources under `--root DIR` (default the current directory) with the
/// concurrency source lint of [`obr::check::lint_sources`] and validates
/// the `Relaxed`-whitelist with [`obr::check::check_whitelist`].
/// `--protocol` likewise needs no `<dir>`: it runs the interprocedural
/// protocol checker of [`obr::check::check_protocol`] over the engine
/// sources and the lock-order manifest under `--root DIR` (default the
/// current directory). Never exits through the shell path: the process
/// status is the check result, non-zero only for error-severity findings.
fn run_check(args: &[String]) -> ! {
    const USAGE: &str = "usage: obr-cli check <dir> [--tree] [--locks] [--wal] [--all] [--live]\n\
                         \x20      obr-cli check --crash [--budget N] [--seed S] \
                         [--segment-bytes B] [--report PATH]\n\
                         \x20      obr-cli check --lint [--root DIR]\n\
                         \x20      obr-cli check --protocol [--root DIR] [--report PATH]";
    let mut dir: Option<std::path::PathBuf> = None;
    let (mut tree, mut locks, mut wal, mut live, mut crash) = (false, false, false, false, false);
    let mut lint = false;
    let mut protocol = false;
    let mut root: Option<std::path::PathBuf> = None;
    let mut budget: Option<usize> = None;
    let mut seed: u64 = 1;
    let mut segment_bytes: Option<u64> = None;
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tree" => tree = true,
            "--locks" => locks = true,
            "--wal" => wal = true,
            "--live" => live = true,
            "--crash" => crash = true,
            "--lint" => lint = true,
            "--protocol" => protocol = true,
            "--root" => match it.next() {
                Some(p) => root = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--all" => {
                tree = true;
                locks = true;
                wal = true;
            }
            "--budget" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => budget = Some(n),
                None => {
                    eprintln!("--budget needs a number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed needs a number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--segment-bytes" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => segment_bytes = Some(n),
                None => {
                    eprintln!("--segment-bytes needs a number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--report" => match it.next() {
                Some(p) => report_path = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--report needs a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with("--") && dir.is_none() => {
                dir = Some(std::path::PathBuf::from(other));
            }
            other => {
                eprintln!("unknown check argument {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if lint {
        let root = root.unwrap_or_else(|| std::path::PathBuf::from("."));
        if !root.is_dir() {
            eprintln!("--root {} is not a directory", root.display());
            std::process::exit(2);
        }
        println!("== concurrency source lint: {}", root.display());
        let mut report = obr::check::lint_sources(&root);
        report.merge(obr::check::check_whitelist(&root));
        print!("{report}");
        exit_with(&report);
    }
    if protocol {
        let root = root.unwrap_or_else(|| std::path::PathBuf::from("."));
        if !root.is_dir() {
            eprintln!("--root {} is not a directory", root.display());
            std::process::exit(2);
        }
        println!("== interprocedural protocol check: {}", root.display());
        let report = match obr::check::check_protocol(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot scan {}: {e}", root.display());
                std::process::exit(2);
            }
        };
        print!("{report}");
        if let Some(path) = report_path {
            if let Err(e) = std::fs::write(&path, format!("{report}")) {
                eprintln!("cannot write report to {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("report written to {}", path.display());
        }
        exit_with(&report);
    }
    if crash {
        println!("== crash-consistency check");
        let mut opts = obr::check::CrashCheckOptions {
            budget,
            seed,
            ..obr::check::CrashCheckOptions::default()
        };
        if let Some(b) = segment_bytes {
            opts.segment_bytes = b;
        }
        let out = obr::check::run_crash_check(&opts);
        print!("{}", out.report);
        println!(
            "coverage: {}/{} crash states, {} torn tails, {} segment states, \
             {} forward completions, {} pass-3 resumes",
            out.stats.states_checked,
            out.stats.crash_states,
            out.stats.torn_tails_checked,
            out.stats.segment_states_checked,
            out.stats.forward_units_completed,
            out.stats.pass3_resumes
        );
        if let Some(path) = report_path {
            let body = format!("{}{:#?}\n", out.report, out.stats);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write report to {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("report written to {}", path.display());
        }
        exit_with(&out.report);
    }
    if !(tree || locks || wal) {
        tree = true;
        locks = true;
        wal = true;
    }
    // The lock checker is self-contained; the other two need <dir>.
    if (tree || wal || live) && dir.is_none() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    if live {
        let dir = dir.as_ref().unwrap();
        println!("== live check: {}", dir.display());
        let db = match Database::open_durable(dir, 1024, SidePointerMode::TwoWay) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot open {}: {e}", dir.display());
                std::process::exit(2);
            }
        };
        if let Err(e) = recover(&db) {
            eprintln!("recovery failed: {e}");
            std::process::exit(2);
        }
        println!(
            "pool: {} shards, {}/{} frames resident",
            db.pool().shard_count(),
            db.pool().resident(),
            db.pool().capacity()
        );
        let report = obr::check::check_database(&db);
        print!("{report}");
        exit_with(&report);
    }

    let mut report = obr::check::Report::new();
    if tree {
        let path = dir.as_ref().unwrap().join("pages.db");
        println!("== tree fsck: {}", path.display());
        match obr::check::fsck_file(&path, &obr::check::FsckOptions::default()) {
            Ok(result) => report.merge(result.report),
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if wal {
        let path = dir.as_ref().unwrap().join("wal");
        if !path.is_dir() {
            eprintln!("no WAL segment directory at {}", path.display());
            std::process::exit(2);
        }
        println!("== wal lint: {}", path.display());
        match obr::check::lint_wal_dir(&path, &obr::check::WalLintOptions::default()) {
            Ok(r) => report.merge(r),
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if locks {
        println!("== lock-protocol model check");
        report.merge(obr::check::check_lock_protocol());
    }
    print!("{report}");
    exit_with(&report);
}

/// Exit policy shared by every check mode: warnings are advisory, only
/// error-severity findings fail the process.
fn exit_with(report: &obr::check::Report) -> ! {
    if report.has_errors() {
        println!(
            "FAILED: {} findings ({} errors)",
            report.findings.len(),
            report.error_count()
        );
        std::process::exit(1);
    }
    if report.is_clean() {
        println!("OK");
    } else {
        println!(
            "OK with {} warning finding(s); none are errors",
            report.findings.len()
        );
    }
    std::process::exit(0);
}

/// `obr-cli stats <dir> [--json]` or
/// `obr-cli stats --workload [--json] [--keep DIR]`.
///
/// Prints the full metrics-registry snapshot of a database: for `<dir>`,
/// the durable database there (opened and recovered first); for
/// `--workload`, a scratch database that just ran the scripted mixed
/// workload (reorganization under concurrent updaters), which exercises
/// the counters only concurrency can produce — forgone RX conflicts,
/// side-file backlog, WAL group-commit batching.
fn run_stats(args: &[String]) -> ! {
    const USAGE: &str = "usage: obr-cli stats <dir> [--json]\n\
                         \x20      obr-cli stats --workload [--json] [--keep DIR]";
    let mut dir: Option<std::path::PathBuf> = None;
    let (mut json, mut workload) = (false, false);
    let mut keep: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--workload" => workload = true,
            "--keep" => match it.next() {
                Some(p) => keep = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--keep needs a directory\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with("--") && dir.is_none() => {
                dir = Some(std::path::PathBuf::from(other));
            }
            other => {
                eprintln!("unknown stats argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (db, scratch) = if workload {
        let scratch = keep.is_none().then(|| {
            std::env::temp_dir().join(format!("obr-stats-workload-{}", std::process::id()))
        });
        let target = keep.clone().or_else(|| scratch.clone()).unwrap();
        if !json {
            println!("running scripted mixed workload in {}", target.display());
        }
        match obr::workloads::mixed_reorg_workload(&target) {
            Ok(db) => (db, scratch),
            Err(e) => {
                eprintln!("workload failed: {e}");
                std::process::exit(2);
            }
        }
    } else {
        let Some(dir) = dir else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        let db = match Database::open_durable(&dir, 1024, SidePointerMode::TwoWay) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot open {}: {e}", dir.display());
                std::process::exit(2);
            }
        };
        if let Err(e) = recover(&db) {
            eprintln!("recovery failed: {e}");
            std::process::exit(2);
        }
        (db, None)
    };
    let snap = match db.metrics_snapshot() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot snapshot metrics: {e}");
            std::process::exit(2);
        }
    };
    if json {
        println!("{}", snap.to_json());
    } else {
        print!("{snap}");
    }
    drop(db);
    if let Some(scratch) = scratch {
        let _ = std::fs::remove_dir_all(scratch);
    }
    std::process::exit(0);
}

/// `obr-cli trace [--out PATH]`: run the deterministic scripted
/// reorganization and emit its structured trace as JSON Lines (schema in
/// DESIGN.md "Observability") to stdout or `PATH`.
fn run_trace(args: &[String]) -> ! {
    const USAGE: &str = "usage: obr-cli trace [--out PATH]";
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--out needs a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown trace argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (_db, events) = match obr::workloads::scripted_reorg_trace() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scripted reorganization failed: {e}");
            std::process::exit(2);
        }
    };
    let mut body = String::new();
    for e in &events {
        body.push_str(&e.to_json());
        body.push('\n');
    }
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &body) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("{} events written to {}", events.len(), path.display());
        }
        None => print!("{body}"),
    }
    std::process::exit(0);
}

/// `obr-cli replica <dir> [--json]`: catch a log-shipping read replica up
/// from the primary's durable files, offline.
///
/// The replica bootstraps from a scratch copy of the primary's page file
/// (its last flushed state), declares everything below the oldest
/// surviving WAL segment already materialized, then ingests every segment
/// under `<dir>/wal/` — sealed segments whole, the active segment's intact
/// prefix — through the same page-LSN-gated redo recovery uses. Nothing
/// under `<dir>` is modified. Prints the shipping progress (applied LSN,
/// records/segments applied, checkpoints and tree switches followed, keys
/// visible); `--json` emits the same as one JSON object, which CI uploads
/// as the replica-lag artifact. Exits 2 when the catch-up fails — e.g. a
/// torn sealed segment, or a shipping gap that requires re-seeding.
fn run_replica(args: &[String]) -> ! {
    const USAGE: &str = "usage: obr-cli replica <dir> [--json]";
    let mut dir: Option<std::path::PathBuf> = None;
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            other if !other.starts_with("--") && dir.is_none() => {
                dir = Some(std::path::PathBuf::from(other));
            }
            other => {
                eprintln!("unknown replica argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let wal_dir = dir.join("wal");
    let scratch = std::env::temp_dir().join(format!("obr-replica-{}", std::process::id()));
    let outcome = (|| -> Result<(), Box<dyn std::error::Error>> {
        std::fs::create_dir_all(&scratch)?;
        std::fs::copy(dir.join("pages.db"), scratch.join("pages.db"))?;
        let disk = Arc::new(obr::storage::FileDisk::open(&scratch.join("pages.db"), 1)?);
        let db = Database::reopen(
            disk as Arc<dyn obr::storage::DiskManager>,
            Arc::new(obr::wal::LogManager::new()),
            1024,
            SidePointerMode::TwoWay,
        )?;
        let replica = obr::core::Replica::over(db);
        // The snapshot already holds everything below the oldest surviving
        // segment (the primary checkpointed before recycling it).
        if let Some((first, _)) = obr::wal::segment::list_segments(&wal_dir)?.first() {
            replica.set_applied_floor(obr::storage::Lsn(first.0.saturating_sub(1)));
        }
        let applied = replica.ingest_dir(&wal_dir)?;
        let keys = replica.scan_all()?.len();
        let snap = replica.database().metrics_snapshot()?;
        let segments = snap.counter("replica_segments_ingested");
        let lag = snap.gauge("replica_lag");
        if json {
            println!(
                "{{\"applied_lsn\":{},\"records_applied\":{applied},\
                 \"segments_ingested\":{},\"checkpoints_seen\":{},\
                 \"tree_switches\":{},\"keys\":{keys},\"replica_lag\":{}}}",
                replica.applied_lsn().0,
                segments,
                replica.checkpoints_seen(),
                replica.switches_seen(),
                lag,
            );
        } else {
            println!("replica caught up from {}", wal_dir.display());
            println!("  applied LSN        {}", replica.applied_lsn());
            println!("  records applied    {applied}");
            println!("  segments ingested  {segments}");
            println!("  checkpoints seen   {}", replica.checkpoints_seen());
            println!("  tree switches      {}", replica.switches_seen());
            println!("  keys visible       {keys}");
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("replica catch-up failed: {e}");
            std::process::exit(2);
        }
    }
}

/// `obr-cli serve <dir> [--addr A] [--pages N] [--segment-bytes B]
/// [--max-sessions N] [--queue N]`: serve the durable database under
/// `<dir>` over TCP until `quit` is typed or stdin closes.
///
/// An existing database is opened and recovered; a missing one is
/// created with `--pages` pages. The admission knobs mirror
/// [`obr::core::EngineConfig`]: `--max-sessions` bounds concurrent
/// connections past the handshake, `--queue` bounds in-flight data-plane
/// requests; excess load is answered with a typed `BUSY` error, never
/// queued unboundedly (PROTOCOL.md §6). Shutdown drains in-flight
/// sessions, takes a final checkpoint, and exits 0.
fn run_serve(args: &[String]) -> ! {
    const USAGE: &str = "usage: obr-cli serve <dir> [--addr A] [--pages N] \
                         [--segment-bytes B] [--max-sessions N] [--queue N]";
    let mut dir: Option<std::path::PathBuf> = None;
    let mut addr = String::from("127.0.0.1:4140");
    let mut pages = 16_384u32;
    let mut cfg = obr::core::EngineConfig::default();
    fn num(it: &mut std::slice::Iter<'_, String>, name: &str, usage: &str) -> u64 {
        match it.next().and_then(|s| s.parse().ok()) {
            Some(n) => n,
            None => {
                eprintln!("{name} needs a number\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("--addr needs an address\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--pages" => pages = num(&mut it, "--pages", USAGE) as u32,
            "--segment-bytes" => cfg.wal_segment_bytes = num(&mut it, "--segment-bytes", USAGE),
            "--max-sessions" => cfg.max_sessions = num(&mut it, "--max-sessions", USAGE) as usize,
            "--queue" => cfg.admission_queue = num(&mut it, "--queue", USAGE) as usize,
            other if !other.starts_with("--") && dir.is_none() => {
                dir = Some(std::path::PathBuf::from(other));
            }
            other => {
                eprintln!("unknown serve argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let db = if dir.join("pages.db").exists() {
        let db = Database::open_durable_with_config(&dir, 1024, SidePointerMode::TwoWay, &cfg)
            .expect("open database");
        let report = recover(&db).expect("recovery");
        println!(
            "recovered: {} records redone, {} units forward-completed",
            report.redo_applied, report.forward_units_completed
        );
        db
    } else {
        println!("creating new database in {} ({pages} pages)", dir.display());
        Database::create_durable_with_config(
            &dir,
            pages,
            1024,
            SidePointerMode::TwoWay,
            cfg.clone(),
        )
        .expect("create database")
    };
    let server = obr::server::Server::start(
        Arc::clone(&db),
        obr::server::ServerConfig::from_engine(&addr, &cfg),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    println!(
        "serving {} on {} ({} sessions, queue {}); type quit to stop",
        dir.display(),
        server.local_addr(),
        cfg.max_sessions,
        cfg.admission_queue
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        match line.trim() {
            "quit" | "exit" => break,
            "" => {}
            other => println!("unknown command {other:?}; type quit to stop"),
        }
    }
    println!("draining sessions...");
    match server.shutdown() {
        Ok(()) => {
            println!("bye");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("shutdown checkpoint failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `obr-cli client <addr> <op> [args...]`: one wire-protocol operation
/// against a running `obr-cli serve` instance.
fn run_client(args: &[String]) -> ! {
    const USAGE: &str = "usage: obr-cli client <addr> <op> [args...]\n\
                         \x20  ops: ping | get K | put K V | del K | scan LO HI [LIMIT]\n\
                         \x20       stats | checkpoint | reorg [--force] | info";
    let Some((addr, op)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mut client = obr::server::Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(2);
    });
    let key = |s: &String| -> u64 {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad key {s:?}\n{USAGE}");
            std::process::exit(2);
        })
    };
    let strs: Vec<&str> = op.iter().map(String::as_str).collect();
    let outcome: Result<(), obr::server::ClientError> = match strs.as_slice() {
        ["ping"] => client.ping().map(|()| println!("pong")),
        ["get", k] => client.get(key(&k.to_string())).map(|v| match v {
            Some(v) => println!("{}", String::from_utf8_lossy(&v)),
            None => println!("(nil)"),
        }),
        ["put", k, v] => client
            .put(key(&k.to_string()), v.as_bytes())
            .map(|()| println!("ok")),
        ["del", k] => client
            .delete(key(&k.to_string()))
            .map(|v| println!("deleted {}", String::from_utf8_lossy(&v))),
        ["scan", lo, hi] | ["scan", lo, hi, _] => {
            let limit = strs
                .get(3)
                .and_then(|s| s.parse().ok())
                .unwrap_or(obr::server::proto::DEFAULT_SCAN_LIMIT);
            client
                .scan(key(&lo.to_string()), key(&hi.to_string()), limit)
                .map(|(rows, truncated)| {
                    for (k, v) in &rows {
                        println!("{k} = {}", String::from_utf8_lossy(v));
                    }
                    println!(
                        "({} rows{})",
                        rows.len(),
                        if truncated { ", truncated" } else { "" }
                    );
                })
        }
        ["stats"] => client.stats().map(|json| println!("{json}")),
        ["checkpoint"] => client.checkpoint().map(|()| println!("ok")),
        ["reorg"] | ["reorg", "--force"] => {
            client
                .reorg(strs.get(1) == Some(&"--force"))
                .map(|(compacted, swapped, shrunk)| {
                    println!("compacted={compacted} swapped={swapped} shrunk={shrunk}");
                })
        }
        ["info"] => client.db_info().map(|info| {
            println!(
                "pages={} side_mode={:?} first_lsn={} durable_lsn={}",
                info.pages, info.side_mode, info.first_lsn.0, info.durable_lsn.0
            );
        }),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match outcome {
        Ok(()) => {
            let _ = client.bye();
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `obr-cli scenario <name>|all [--dir DIR] [--clients N] [--scale F]
/// [--out PATH] [--snapshots DIR]`: run the scripted end-to-end scenario
/// suite against a real server over loopback TCP.
fn run_scenarios(args: &[String]) -> ! {
    const USAGE: &str = "usage: obr-cli scenario <name>|all [--dir DIR] [--clients N] \
                         [--scale F] [--out PATH] [--snapshots DIR]";
    let mut which: Option<String> = None;
    let mut opts = obr::server::ScenarioOptions::default();
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => match it.next() {
                Some(p) => opts.dir = std::path::PathBuf::from(p),
                None => {
                    eprintln!("--dir needs a directory\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--clients" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => opts.clients = n,
                None => {
                    eprintln!("--clients needs a number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--scale" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) => opts.scale = f,
                None => {
                    eprintln!("--scale needs a number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--out needs a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--snapshots" => match it.next() {
                Some(p) => opts.snapshots_dir = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--snapshots needs a directory\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with("--") && which.is_none() => {
                which = Some(other.to_string());
            }
            other => {
                eprintln!("unknown scenario argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(which) = which else {
        eprintln!(
            "{USAGE}\n  scenarios: {}",
            obr::server::SCENARIOS.join(", ")
        );
        std::process::exit(2);
    };
    let names: Vec<&str> = if which == "all" {
        obr::server::SCENARIOS.to_vec()
    } else if obr::server::SCENARIOS.contains(&which.as_str()) {
        vec![which.as_str()]
    } else {
        eprintln!(
            "unknown scenario {which:?}; known: {} (or `all`)",
            obr::server::SCENARIOS.join(", ")
        );
        std::process::exit(2);
    };
    let mut reports = Vec::new();
    let mut failed = false;
    for name in names {
        println!("== scenario: {name}");
        match obr::server::run_scenario(name, &opts) {
            Ok(report) => {
                for p in &report.phases {
                    println!("  {:<16} {:>7} ops, {} errors", p.name, p.ops, p.errors);
                }
                println!(
                    "  {} ({} ops total): {}",
                    name,
                    report.total_ops(),
                    if report.check_clean {
                        "check clean"
                    } else {
                        failed = true;
                        "CHECK DIRTY"
                    }
                );
                if !report.check_clean {
                    println!("  {}", report.check_summary);
                }
                reports.push(report);
            }
            Err(e) => {
                println!("  FAILED: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = out {
        let mut body = String::from("[\n");
        for (i, r) in reports.iter().enumerate() {
            body.push_str(&r.to_json());
            body.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
        }
        body.push_str("]\n");
        if let Err(e) = std::fs::write(&path, &body) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("reports written to {}", path.display());
    }
    std::process::exit(i32::from(failed));
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("check") {
        run_check(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("stats") {
        run_stats(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("trace") {
        run_trace(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("replica") {
        run_replica(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("serve") {
        run_serve(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("client") {
        run_client(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("scenario") {
        run_scenarios(&raw[1..]);
    }
    let mut args = raw.into_iter();
    let Some(dir) = args.next() else {
        eprintln!("usage: obr-cli <dir> [--pages N]  |  obr-cli check <dir> [--all]");
        std::process::exit(2);
    };
    let mut pages = 16_384u32;
    let mut cfg = obr::core::EngineConfig::default();
    while let Some(a) = args.next() {
        if a == "--pages" {
            pages = args.next().and_then(|s| s.parse().ok()).unwrap_or(16_384);
        } else if a == "--segment-bytes" {
            if let Some(b) = args.next().and_then(|s| s.parse().ok()) {
                cfg.wal_segment_bytes = b;
            }
        }
    }
    let dir = std::path::PathBuf::from(dir);
    let db = if dir.join("pages.db").exists() {
        let db = Database::open_durable_with_config(&dir, 1024, SidePointerMode::TwoWay, &cfg)
            .expect("open database");
        let report = recover(&db).expect("recovery");
        println!(
            "recovered: {} records redone, {} units forward-completed",
            report.redo_applied, report.forward_units_completed
        );
        db
    } else {
        println!("creating new database in {} ({pages} pages)", dir.display());
        Database::create_durable_with_config(&dir, pages, 1024, SidePointerMode::TwoWay, cfg)
            .expect("create database")
    };
    let session = Session::new(Arc::clone(&db));
    let stdin = std::io::stdin();
    print!("obr> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["quit"] | ["exit"] => break,
            ["help"] => {
                println!(
                    "put K V | get K | del K | scan LO HI | stats | reorg | \
                     reorg auto | checkpoint | truncate-log | quit"
                );
            }
            ["put", k, v] => match k.parse::<u64>() {
                Ok(key) => match session.put(key, v.as_bytes()) {
                    Ok(None) => println!("ok"),
                    Ok(Some(_)) => println!("updated"),
                    Err(e) => println!("error: {e}"),
                },
                Err(_) => println!("bad key"),
            },
            ["get", k] => match k.parse::<u64>() {
                Ok(key) => match session.read(key) {
                    Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                    Ok(None) => println!("(nil)"),
                    Err(e) => println!("error: {e}"),
                },
                Err(_) => println!("bad key"),
            },
            ["del", k] => match k.parse::<u64>() {
                Ok(key) => match session.delete(key) {
                    Ok(_) => println!("ok"),
                    Err(TxnError::KeyNotFound(_)) => println!("(nil)"),
                    Err(e) => println!("error: {e}"),
                },
                Err(_) => println!("bad key"),
            },
            ["scan", lo, hi] => match (lo.parse::<u64>(), hi.parse::<u64>()) {
                (Ok(lo), Ok(hi)) => match session.scan(lo, hi) {
                    Ok(rows) => {
                        for (k, v) in rows.iter().take(50) {
                            println!("{k} = {}", String::from_utf8_lossy(v));
                        }
                        if rows.len() > 50 {
                            println!("... {} more rows", rows.len() - 50);
                        }
                        println!("({} rows)", rows.len());
                    }
                    Err(e) => println!("error: {e}"),
                },
                _ => println!("bad range"),
            },
            ["stats"] => match db.stats() {
                Ok(s) => println!("{s}"),
                Err(e) => println!("error: {e}"),
            },
            ["reorg"] => {
                let r = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
                match r.run() {
                    Ok(st) => println!(
                        "reorganized: {} units, {} pass-2 moves ({} parks), {} pages freed",
                        st.units, st.moves, st.swaps, st.pages_freed
                    ),
                    Err(e) => println!("error: {e}"),
                }
            }
            ["reorg", "auto"] => {
                let r = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
                match r.run_if_needed(ReorgTrigger::default()) {
                    Ok(d) => println!(
                        "compacted={} swapped={} shrunk={}",
                        d.compacted, d.swapped, d.shrunk
                    ),
                    Err(e) => println!("error: {e}"),
                }
            }
            ["checkpoint"] => match db.checkpoint() {
                Ok(lsn) => println!("checkpoint at LSN {lsn}"),
                Err(e) => println!("error: {e}"),
            },
            ["truncate-log"] => match db.truncate_log() {
                Ok(n) => println!("dropped {n} log records"),
                Err(e) => println!("error: {e}"),
            },
            other => println!("unknown command {other:?}; try help"),
        }
        print!("obr> ");
        std::io::stdout().flush().ok();
    }
    // Leave the files consistent for the next run.
    if let Err(e) = db.checkpoint() {
        println!("final checkpoint failed: {e}");
    }
    println!("bye");
}
