//! The scripted scenario suite: end-to-end stories driven through the
//! network frontend, each phase emitting a metrics snapshot (via the
//! `STATS` opcode, so observability itself is exercised over the wire)
//! and every scenario ending with a full on-disk integrity check.
//!
//! Five scenarios (see [`SCENARIOS`]):
//!
//! * `bulk-load` — concurrent clients load disjoint key ranges, then
//!   verify by scanning.
//! * `steady-churn` — a mixed put/get/delete workload at steady state.
//! * `delete-epoch` — an epoch of deletes sparsifies the tree, then one
//!   `REORG` call heals it; the phase snapshots show the fill recover.
//! * `reorg-under-load` — the background [`ReorgDaemon`] runs while
//!   clients churn: the paper's headline claim, over the wire.
//! * `crash-restart` — clients commit acknowledged work, the process
//!   "crashes" (buffer pool and in-flight log lost), the database is
//!   reopened and recovered, the server restarts, and every acknowledged
//!   key is verified present.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obr_btree::SidePointerMode;
use obr_core::{
    recover, DaemonOptions, Database, EngineConfig, ReorgConfig, ReorgDaemon, ReorgTrigger,
};

use crate::client::{Client, ClientError, ClientResult};
use crate::proto::ErrorCode;
use crate::server::{Server, ServerConfig};

/// Every scenario name [`run_scenario`] accepts, in suite order.
pub const SCENARIOS: &[&str] = &[
    "bulk-load",
    "steady-churn",
    "delete-epoch",
    "reorg-under-load",
    "crash-restart",
];

/// Scenario knobs. [`Default`] is the smoke-sized suite CI runs; raise
/// `scale` for a longer soak.
#[derive(Clone, Debug)]
pub struct ScenarioOptions {
    /// Working directory for the durable database (one subdirectory per
    /// scenario is created inside it).
    pub dir: PathBuf,
    /// Concurrent client connections driving the workload phases.
    pub clients: usize,
    /// Workload multiplier: operations per client per phase is
    /// `250 * scale` (minimum 50).
    pub scale: f64,
    /// Pages for each scenario's database.
    pub pages: u32,
    /// When set, each phase's metrics snapshot is also written to
    /// `<dir>/<scenario>.<phase>.json`.
    pub snapshots_dir: Option<PathBuf>,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            dir: std::env::temp_dir().join("obr-scenarios"),
            clients: 4,
            scale: 1.0,
            pages: 4096,
            snapshots_dir: None,
        }
    }
}

impl ScenarioOptions {
    fn ops_per_client(&self) -> u64 {
        ((250.0 * self.scale) as u64).max(50)
    }
}

/// One phase's outcome.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (stable identifier, e.g. `churn`).
    pub name: String,
    /// Successful client operations in the phase.
    pub ops: u64,
    /// Operations that ultimately failed (after retries).
    pub errors: u64,
    /// Metrics snapshot (JSON) taken through `STATS` at phase end.
    pub snapshot_json: String,
}

/// A full scenario's outcome.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Phases, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Post-run `check_database` verdict.
    pub check_clean: bool,
    /// Human-readable check summary.
    pub check_summary: String,
}

impl ScenarioReport {
    /// Total successful operations across phases.
    pub fn total_ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }

    /// Hand-rolled JSON (no serde in this workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"scenario\": \"{}\",\n", self.scenario));
        out.push_str(&format!("  \"check_clean\": {},\n", self.check_clean));
        out.push_str(&format!(
            "  \"check_summary\": \"{}\",\n",
            self.check_summary.replace('"', "'")
        ));
        out.push_str(&format!("  \"total_ops\": {},\n", self.total_ops()));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"ops\": {}, \"errors\": {}, \"metrics\": {}}}{}\n",
                p.name,
                p.ops,
                p.errors,
                p.snapshot_json,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Run one scenario by name. Returns `Err` for an unknown name or an
/// infrastructure failure; workload-level failures (a check that comes
/// back dirty, a missing key after recovery) are reported the same way so
/// callers can treat any `Err` as a failed scenario.
pub fn run_scenario(name: &str, opts: &ScenarioOptions) -> Result<ScenarioReport, String> {
    let dir = opts.dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    match name {
        "bulk-load" => bulk_load(&dir, opts),
        "steady-churn" => steady_churn(&dir, opts),
        "delete-epoch" => delete_epoch(&dir, opts),
        "reorg-under-load" => reorg_under_load(&dir, opts),
        "crash-restart" => crash_restart(&dir, opts),
        other => Err(format!(
            "unknown scenario {other:?}; known: {}",
            SCENARIOS.join(", ")
        )),
    }
}

// --- shared machinery ------------------------------------------------------

struct Rig {
    db: Arc<Database>,
    server: Server,
    addr: String,
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        // Small segments so every scenario exercises sealing + shipping.
        wal_segment_bytes: 64 << 10,
        ..EngineConfig::default()
    }
}

fn start_rig(dir: &std::path::Path, opts: &ScenarioOptions) -> Result<Rig, String> {
    let cfg = engine_config();
    let db = Database::create_durable_with_config(
        dir,
        opts.pages,
        opts.pages as usize,
        SidePointerMode::TwoWay,
        cfg.clone(),
    )
    .map_err(|e| format!("create database: {e}"))?;
    start_server(db, &cfg)
}

fn start_server(db: Arc<Database>, cfg: &EngineConfig) -> Result<Rig, String> {
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::from_engine("127.0.0.1:0", cfg),
    )
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.local_addr().to_string();
    Ok(Rig { db, server, addr })
}

/// Retry transient outcomes (BUSY shed, deadlock victim, lock timeout)
/// with a short backoff; anything else is final.
fn with_retry<T>(mut f: impl FnMut() -> ClientResult<T>) -> ClientResult<T> {
    let mut attempts = 0u32;
    loop {
        match f() {
            Err(e)
                if attempts < 1000
                    && matches!(
                        e.code(),
                        Some(ErrorCode::Busy | ErrorCode::Deadlock | ErrorCode::Timeout)
                    ) =>
            {
                attempts += 1;
                std::thread::sleep(Duration::from_micros(200 * u64::from(attempts.min(10))));
            }
            r => return r,
        }
    }
}

fn snapshot(addr: &str) -> Result<String, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats client: {e}"))?;
    let json = with_retry(|| c.stats()).map_err(|e| format!("stats: {e}"))?;
    let _ = c.bye();
    Ok(json)
}

fn finish_phase(
    report: &mut ScenarioReport,
    opts: &ScenarioOptions,
    addr: &str,
    name: &str,
    ops: u64,
    errors: u64,
) -> Result<(), String> {
    let snap = snapshot(addr)?;
    if let Some(d) = &opts.snapshots_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
        let path = d.join(format!("{}.{}.json", report.scenario, name));
        std::fs::write(&path, &snap).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    report.phases.push(PhaseReport {
        name: name.to_string(),
        ops,
        errors,
        snapshot_json: snap,
    });
    Ok(())
}

/// Fan `per_client` iterations of `work(client_index, iteration, client)`
/// across `opts.clients` connections; returns `(ok, errors)`.
fn fan_out(
    addr: &str,
    opts: &ScenarioOptions,
    per_client: u64,
    work: impl Fn(usize, u64, &mut Client) -> ClientResult<()> + Sync,
) -> Result<(u64, u64), String> {
    let results = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..opts.clients {
            let work = &work;
            handles.push(s.spawn(move || -> Result<(u64, u64), String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("client {c} connect: {e}"))?;
                let mut ok = 0u64;
                let mut errors = 0u64;
                for i in 0..per_client {
                    match with_retry(|| work(c, i, &mut client)) {
                        Ok(()) => ok += 1,
                        Err(_) => errors += 1,
                    }
                }
                let _ = client.bye();
                Ok((ok, errors))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut ok = 0u64;
    let mut errors = 0u64;
    for r in results {
        let (o, e) = r?;
        ok += o;
        errors += e;
    }
    Ok((ok, errors))
}

fn run_check(db: &Arc<Database>, report: &mut ScenarioReport) -> Result<(), String> {
    let check = obr_check::check_database(db);
    report.check_clean = check.is_clean();
    report.check_summary = if check.is_clean() {
        "clean".into()
    } else {
        check.to_string().replace('\n', "; ")
    };
    if !report.check_clean {
        return Err(format!(
            "post-run integrity check failed for {}: {}",
            report.scenario, report.check_summary
        ));
    }
    Ok(())
}

fn shutdown_and_check(rig: Rig, report: &mut ScenarioReport) -> Result<(), String> {
    rig.server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    run_check(&rig.db, report)
}

fn key_for(client: usize, i: u64) -> u64 {
    client as u64 * 1_000_000 + i
}

// --- scenarios -------------------------------------------------------------

fn bulk_load(dir: &std::path::Path, opts: &ScenarioOptions) -> Result<ScenarioReport, String> {
    let rig = start_rig(dir, opts)?;
    let mut report = ScenarioReport {
        scenario: "bulk-load".into(),
        phases: Vec::new(),
        check_clean: false,
        check_summary: String::new(),
    };
    let n = opts.ops_per_client();
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        client.put(key_for(c, i), format!("bulk-{c}-{i}").as_bytes())
    })?;
    finish_phase(&mut report, opts, &rig.addr, "load", ops, errors)?;

    // Verify by scanning each client's range over the wire.
    let (vops, verrors) = fan_out(&rig.addr, opts, 1, |c, _i, client| {
        let lo = key_for(c, 0);
        let hi = key_for(c, n - 1);
        let (rows, _) = client.scan(lo, hi, n as u32 + 1)?;
        if rows.len() as u64 != n {
            return Err(ClientError::Replica(format!(
                "client {c}: expected {n} rows, scanned {}",
                rows.len()
            )));
        }
        Ok(())
    })?;
    finish_phase(&mut report, opts, &rig.addr, "verify", vops, verrors)?;
    if verrors > 0 {
        return Err("bulk-load verification failed".into());
    }
    shutdown_and_check(rig, &mut report)?;
    Ok(report)
}

fn steady_churn(dir: &std::path::Path, opts: &ScenarioOptions) -> Result<ScenarioReport, String> {
    let rig = start_rig(dir, opts)?;
    let mut report = ScenarioReport {
        scenario: "steady-churn".into(),
        phases: Vec::new(),
        check_clean: false,
        check_summary: String::new(),
    };
    let n = opts.ops_per_client();
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        client.put(key_for(c, i), b"seed")
    })?;
    finish_phase(&mut report, opts, &rig.addr, "seed", ops, errors)?;

    // Mixed workload over the seeded keys: 50% reads, 30% overwrites,
    // 20% delete+reinsert.
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        let k = key_for(c, i % n);
        match i % 10 {
            0..=4 => client.get(k).map(|_| ()),
            5..=7 => client.put(k, format!("churn-{i}").as_bytes()),
            _ => {
                match client.delete(k) {
                    Ok(_) => {}
                    Err(e) if e.code() == Some(ErrorCode::KeyNotFound) => {}
                    Err(e) => return Err(e),
                }
                client.put(k, b"back")
            }
        }
    })?;
    finish_phase(&mut report, opts, &rig.addr, "churn", ops, errors)?;
    shutdown_and_check(rig, &mut report)?;
    Ok(report)
}

fn delete_epoch(dir: &std::path::Path, opts: &ScenarioOptions) -> Result<ScenarioReport, String> {
    let rig = start_rig(dir, opts)?;
    let mut report = ScenarioReport {
        scenario: "delete-epoch".into(),
        phases: Vec::new(),
        check_clean: false,
        check_summary: String::new(),
    };
    // Dense load with chunky values so the tree grows real leaves.
    let n = opts.ops_per_client().max(200);
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        client.put(key_for(c, i), &[0x5a; 120])
    })?;
    finish_phase(&mut report, opts, &rig.addr, "load", ops, errors)?;

    // The delete epoch: drop 3 of every 4 keys, sparsifying every leaf —
    // the population profile the paper's reorganizer exists for.
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        if i % 4 == 0 {
            return Ok(());
        }
        client.delete(key_for(c, i)).map(|_| ())
    })?;
    finish_phase(&mut report, opts, &rig.addr, "delete-epoch", ops, errors)?;

    // Heal over the wire and prove the admin opcode drives real passes.
    let mut admin = Client::connect(&rig.addr).map_err(|e| format!("admin: {e}"))?;
    let (compacted, _sw, _sh) =
        with_retry(|| admin.reorg(false)).map_err(|e| format!("reorg: {e}"))?;
    let _ = admin.bye();
    if !compacted {
        return Err("delete-epoch: the sparse tree did not trigger compaction".into());
    }
    finish_phase(&mut report, opts, &rig.addr, "reorg", 1, 0)?;

    // Survivors must still be readable.
    let (vops, verrors) = fan_out(&rig.addr, opts, n.div_ceil(4), |c, i, client| {
        let k = key_for(c, i * 4);
        match client.get(k)? {
            Some(_) => Ok(()),
            None => Err(ClientError::Replica(format!("survivor {k} missing"))),
        }
    })?;
    finish_phase(&mut report, opts, &rig.addr, "verify", vops, verrors)?;
    if verrors > 0 {
        return Err("delete-epoch: survivors missing after reorganization".into());
    }
    shutdown_and_check(rig, &mut report)?;
    Ok(report)
}

fn reorg_under_load(
    dir: &std::path::Path,
    opts: &ScenarioOptions,
) -> Result<ScenarioReport, String> {
    let rig = start_rig(dir, opts)?;
    let mut report = ScenarioReport {
        scenario: "reorg-under-load".into(),
        phases: Vec::new(),
        check_clean: false,
        check_summary: String::new(),
    };
    let n = opts.ops_per_client().max(200);
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        client.put(key_for(c, i), &[0x33; 120])
    })?;
    finish_phase(&mut report, opts, &rig.addr, "load", ops, errors)?;

    // Sparsify so the daemon has work the moment it starts.
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        if i % 4 == 0 {
            return Ok(());
        }
        client.delete(key_for(c, i)).map(|_| ())
    })?;
    finish_phase(&mut report, opts, &rig.addr, "sparsify", ops, errors)?;

    // Clients churn while the background reorganizer heals the tree: the
    // paper's on-line claim, with admission control and the §4.1.2/§4.1.3
    // protocols all in the path.
    let daemon = ReorgDaemon::spawn_with_options(
        Arc::clone(&rig.db),
        ReorgConfig::default(),
        ReorgTrigger::default(),
        Duration::from_millis(25),
        DaemonOptions {
            wal_budget_bytes: None,
        },
    );
    // One round can end inside the daemon's first sleep on a fast machine,
    // so rounds repeat until it has acted once, for at most about 10 s.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut ops, mut errors) = (0, 0);
    loop {
        let (o, e) = fan_out(&rig.addr, opts, n, |c, i, client| {
            let k = key_for(c, i % n);
            match i % 3 {
                0 => client.get(k).map(|_| ()),
                1 => client.put(k, b"under-reorg"),
                _ => client.scan(k, k + 16, 32).map(|_| ()),
            }
        })?;
        ops += o;
        errors += e;
        if !daemon.decisions().is_empty() || Instant::now() >= deadline {
            break;
        }
    }
    let decisions = daemon.stop().map_err(|e| format!("daemon: {e}"))?;
    if decisions.is_empty() {
        return Err("reorg-under-load: the daemon never found work on a sparsified tree".into());
    }
    finish_phase(
        &mut report,
        opts,
        &rig.addr,
        "churn-under-reorg",
        ops,
        errors,
    )?;
    shutdown_and_check(rig, &mut report)?;
    Ok(report)
}

fn crash_restart(dir: &std::path::Path, opts: &ScenarioOptions) -> Result<ScenarioReport, String> {
    let cfg = engine_config();
    let rig = start_rig(dir, opts)?;
    let mut report = ScenarioReport {
        scenario: "crash-restart".into(),
        phases: Vec::new(),
        check_clean: false,
        check_summary: String::new(),
    };
    // Every acknowledged PUT rides a forced commit record, so acknowledged
    // means durable: collect exactly what the crash must preserve.
    let n = opts.ops_per_client();
    let (ops, errors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        client.put(key_for(c, i), format!("durable-{c}-{i}").as_bytes())
    })?;
    finish_phase(&mut report, opts, &rig.addr, "churn", ops, errors)?;
    if errors > 0 {
        return Err("crash-restart: seeding failed".into());
    }

    // Crash mid-scenario: stop the frontend abruptly (no final
    // checkpoint), lose every cached page and all non-durable log bytes.
    let Rig { db, server, .. } = rig;
    server.stop_abrupt();
    db.crash(|_| false).map_err(|e| format!("crash: {e}"))?;
    drop(db);

    // Restart: reopen, recover (redo from the last checkpoint, undo
    // losers), and bring the frontend back on a fresh port.
    let db = Database::open_durable(dir, opts.pages as usize, SidePointerMode::TwoWay)
        .map_err(|e| format!("reopen: {e}"))?;
    recover(&db).map_err(|e| format!("recover: {e}"))?;
    let rig = start_server(db, &cfg)?;

    // Every acknowledged key must still be there, with the right value.
    let (vops, verrors) = fan_out(&rig.addr, opts, n, |c, i, client| {
        let k = key_for(c, i);
        match client.get(k)? {
            Some(v) if v == format!("durable-{c}-{i}").as_bytes() => Ok(()),
            Some(_) => Err(ClientError::Replica(format!("key {k}: wrong value"))),
            None => Err(ClientError::Replica(format!(
                "key {k}: acknowledged commit lost by crash"
            ))),
        }
    })?;
    finish_phase(
        &mut report,
        opts,
        &rig.addr,
        "verify-after-recovery",
        vops,
        verrors,
    )?;
    if verrors > 0 {
        return Err("crash-restart: acknowledged commits lost".into());
    }
    shutdown_and_check(rig, &mut report)?;
    Ok(report)
}
