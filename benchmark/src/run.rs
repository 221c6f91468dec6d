//! One repetition of one workload, start to finish:
//!
//! 1. set-up (timed): create the database, bulk load, churn, checkpoint,
//!    server and client;
//! 2. warm-up, then the timed phase: the seeded operation stream, every
//!    answer checked against the model;
//! 3. crash: an uncommitted loser transaction, optionally a reorganizer
//!    killed mid-unit, then a simulated power failure that keeps a seeded
//!    half of the dirty pages and drops the unforced log tail;
//! 4. restart (timed): reopen + `recover`; then a checkpoint, so that
//!    `write_amp` covers everything the timed phase caused to be written;
//! 5. verification and end-state probes on the recovered database: a cold
//!    full scan compared with the model, fsck, space;
//! 6. a full reorganization (timed) unless the timed phase already ran
//!    one, and the verification again.
//!
//! Every repetition of a run gets the same seed and therefore the same
//! inputs, so single-threaded counts repeat exactly however many
//! repetitions fit into the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obr_btree::SidePointerMode;
use obr_check::{fsck_db, lint_log, FsckOptions, WalLintOptions};
use obr_core::{
    recover, CoreError, Database, EngineConfig, FailPoint, FailSite, ReorgConfig, ReorgStats,
    Reorganizer,
};
use obr_obs::Snapshot;
use obr_server::client::Client;
use obr_server::server::{Server, ServerConfig};
use obr_storage::{DiskManager, DiskStats, InMemoryDisk};
use obr_txn::{Session, Txn, TxnResult};

use crate::fg::{Fail, Foreground, Out};
use crate::gen::{value_for, Gen, Model, Op, Rng, RECORD_BYTES, SCAN_ROWS};
use crate::spec::{Entry, Workload, CHURN_FILL, LOSER_INSERTS};
use crate::trace::Trace;

const PAGE_BYTES: f64 = 4096.0;
/// Attempts after which a refused operation ends the run instead of
/// spinning.
const MAX_ATTEMPTS: u32 = 1_000;

/// What one repetition measured. `scalars` holds one value per metric
/// that is a single number per repetition; latencies stay raw.
#[derive(Default)]
pub struct RepOut {
    /// [`CALIB_REF_NS`] over this repetition's calibration time: what its
    /// times are multiplied by before they are reported.
    pub scale: f64,
    pub scalars: BTreeMap<&'static str, f64>,
    /// Nanoseconds per completed operation, indexed by [`Kind`].
    pub samples: [Vec<u64>; 3],
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with the model, plus checker findings.
    pub mismatches: u64,
    /// The first few disagreements, for the operator.
    pub notes: Vec<String>,
}

impl RepOut {
    fn set(&mut self, name: &'static str, v: f64) {
        self.scalars.insert(name, v);
    }

    fn mismatch(&mut self, note: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// What the calibration kernel takes on the reference host. Times are
/// reported as if every repetition had run at that speed; see the README
/// ("Noise guard") for the measurements behind this.
pub const CALIB_REF_NS: f64 = 25e6;

/// A fixed 2^24-step xorshift kernel: the same work every time, so its
/// duration shows host drift next to the numbers it accompanies.
pub fn calibrate() -> u64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..1u32 << 24 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Where pages and log live. The default is RAM through the engine's own
/// `InMemoryDisk` and memory-only `LogManager`: the benchmark may write
/// only inside its checkout, and there every commit would pay a device
/// fsync whose latency on this host moves by 2x between minutes. The
/// engine still issues every force it would issue on a disk; they are
/// reported as an exact count (`fsyncs_per_op`), never as latency.
pub enum Backend {
    Ram,
    /// Durable files under this directory (`--dir`), one fsync per commit.
    Dir(PathBuf),
}

impl Backend {
    fn create(&self, w: &Workload, cfg: EngineConfig) -> Result<Arc<Database>, CoreError> {
        let side = SidePointerMode::TwoWay;
        match self {
            Backend::Ram => {
                let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(w.disk_pages));
                Database::create_with_config(disk, w.pool_frames, side, cfg)
            }
            Backend::Dir(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                Database::create_durable_with_config(dir, w.disk_pages, w.pool_frames, side, cfg)
            }
        }
    }

    /// Reassemble the crashed `db` from what survived: the files, or the
    /// RAM disk and the forced prefix of the RAM log.
    fn restart(&self, db: Arc<Database>, w: &Workload) -> Result<Arc<Database>, CoreError> {
        let side = SidePointerMode::TwoWay;
        match self {
            Backend::Ram => {
                let (disk, log) = (Arc::clone(db.disk()), Arc::clone(db.log()));
                drop(db);
                Database::reopen(disk, log, w.pool_frames, side)
            }
            Backend::Dir(dir) => {
                drop(db);
                Database::open_durable(dir, w.pool_frames, side)
            }
        }
    }
}

struct Rig {
    db: Arc<Database>,
    server: Option<Server>,
    client: Option<Client>,
}

/// Step 1. Inputs are generated first, outside the timed section.
fn setup(
    w: &Workload,
    seed: u64,
    backend: &Backend,
    model: &mut Model,
) -> Result<(Rig, f64), String> {
    let records: Vec<(u64, Vec<u8>)> = (0..w.loaded)
        .map(|i| (2 * i, value_for(2 * i, 1).to_vec()))
        .collect();
    for (k, _) in &records {
        model.put(*k, 1);
    }
    let cfg = EngineConfig::default();
    let t = Instant::now();
    let db = backend
        .create(w, cfg.clone())
        .map_err(|e| err("create database", e))?;
    db.tree()
        .bulk_load(&records, w.load_fill, 0.9)
        .map_err(|e| err("bulk load", e))?;
    if w.churn {
        churn(&db, w, seed, model)?;
    }
    db.checkpoint().map_err(|e| err("checkpoint", e))?;
    let (server, client) = match w.entry {
        Entry::Session => (None, None),
        Entry::Wire => {
            let server = Server::start(
                Arc::clone(&db),
                ServerConfig::from_engine("127.0.0.1:0", &cfg),
            )
            .map_err(|e| err("start server", e))?;
            let client =
                Client::connect(&server.local_addr().to_string()).map_err(|e| err("connect", e))?;
            (Some(server), Some(client))
        }
    };
    let setup_s = t.elapsed().as_secs_f64();
    Ok((Rig { db, server, client }, setup_s))
}

/// Insert every odd key, then delete a seeded subset of all keys until the
/// leaves average [`CHURN_FILL`].
fn churn(db: &Arc<Database>, w: &Workload, seed: u64, model: &mut Model) -> Result<(), String> {
    let s = Session::new(Arc::clone(db));
    batched(&s, 0..w.loaded, |t, i| {
        let k = 2 * i + 1;
        model.put(k, 1);
        t.insert(k, &value_for(k, 1))
    })?;
    let fill = db
        .tree()
        .stats()
        .map_err(|e| err("tree stats", e))?
        .avg_leaf_fill;
    let keep_permille = (1000.0 * CHURN_FILL / fill) as u64;
    let mut rng = Rng::new(seed ^ 0xC0FF_EE00);
    batched(&s, 0..2 * w.loaded, |t, k| {
        if rng.below(1000) < keep_permille {
            return Ok(());
        }
        model.delete(k);
        t.delete(k).map(|_| ())
    })
}

/// Apply `each` to every key, 1000 to a transaction: set-up is not the
/// place to pay one log force per record.
fn batched(
    s: &Session,
    keys: std::ops::Range<u64>,
    mut each: impl FnMut(&mut Txn, u64) -> TxnResult<()>,
) -> Result<(), String> {
    let mut keys = keys.peekable();
    while keys.peek().is_some() {
        let mut t = s.begin();
        for k in keys.by_ref().take(1000) {
            each(&mut t, k).map_err(|e| err("churn", e))?;
        }
        t.commit().map_err(|e| err("churn commit", e))?;
    }
    Ok(())
}

/// Does `out` agree with the model's answer to `op`?
fn answer_matches(op: &Op, out: &Out, model: &Model) -> bool {
    match (op, out) {
        (Op::Get { key }, Out::Value(v)) => {
            v.as_deref() == model.expected(*key).as_ref().map(|e| &e[..])
        }
        (Op::Scan { lo, hi }, Out::Rows { rows, truncated }) => {
            // The wire caps a scan at SCAN_ROWS rows and says so; a
            // session returns the whole range.
            let mut want = model.range(*lo, *hi);
            rows.iter().all(|(k, v)| {
                want.next()
                    .is_some_and(|(wk, wv)| *k == wk && v[..] == value_for(wk, wv)[..])
            }) && match truncated {
                true => rows.len() as u64 == SCAN_ROWS,
                false => want.next().is_none(),
            }
        }
        (Op::Put { .. } | Op::Delete { .. }, Out::Done) => true,
        _ => false,
    }
}

#[derive(Default)]
struct PhaseCounts {
    ops: u64,
    user_bytes: u64,
    /// Operations that completed while `sampling()` held, and the time the
    /// last of them completed at: what latency and throughput rest on.
    sampled_ops: u64,
    sampled_s: f64,
}

/// Run `ops` operations of the stream; every answer is checked, every
/// acknowledged write enters the model. With `sampling` absent this is
/// the warm-up: nothing is counted. Otherwise every attempt is counted,
/// and an operation's latency is kept if `sampling()` holds as it ends.
fn run_ops(
    fg: &mut Foreground<'_>,
    gen: &mut Gen,
    model: &mut Model,
    out: &mut RepOut,
    ops: u64,
    sampling: Option<&dyn Fn() -> bool>,
) -> Result<PhaseCounts, String> {
    let mut counts = PhaseCounts::default();
    let started = Instant::now();
    while counts.ops < ops {
        let op = gen.next(model);
        let mut attempts = 0;
        let mut refused = 0;
        let (answer, nanos) = loop {
            attempts += 1;
            let t = Instant::now();
            let r = fg.exec(&op);
            let nanos = t.elapsed().as_nanos() as u64;
            match r {
                Ok(answer) => break (answer, nanos),
                Err(Fail::Retry) if attempts < MAX_ATTEMPTS => refused += 1,
                Err(Fail::Retry) => return Err(format!("{op:?} refused {MAX_ATTEMPTS} times")),
                Err(Fail::Fatal(e)) => return Err(e),
            }
        };
        if !answer_matches(&op, &answer, model) {
            out.mismatch(format!("{op:?} answered wrongly"));
        }
        match op {
            Op::Put { key, version, .. } => {
                model.put(key, version);
                counts.user_bytes += RECORD_BYTES;
            }
            Op::Delete { key } => {
                model.delete(key);
                counts.user_bytes += 8;
            }
            _ => {}
        }
        counts.ops += 1;
        let Some(live) = sampling else { continue };
        out.attempted += attempts as u64;
        out.failed += refused;
        if live() {
            out.samples[op.kind() as usize].push(nanos);
            counts.sampled_ops += 1;
            counts.sampled_s = started.elapsed().as_secs_f64();
        }
    }
    Ok(counts)
}

struct ReorgOut {
    total_s: f64,
    pass_s: [f64; 3],
    stats: ReorgStats,
    log_bytes: f64,
    syncs: f64,
    side_peak: f64,
}

/// `Reorganizer::run()`; when tracing, the three passes it is made of are
/// called and timed one by one instead.
fn reorganize(db: &Arc<Database>, trace_passes: bool) -> Result<ReorgOut, CoreError> {
    let before = db.metrics().snapshot();
    let r = Reorganizer::new(Arc::clone(db), ReorgConfig::default());
    let t = Instant::now();
    let mut pass_s = [0.0; 3];
    if trace_passes {
        let passes: [&dyn Fn() -> Result<(), CoreError>; 3] =
            [&|| r.pass1_compact(), &|| r.pass2_swap_move(), &|| {
                r.pass3_shrink()
            }];
        for (slot, pass) in pass_s.iter_mut().zip(passes) {
            let t = Instant::now();
            pass()?;
            *slot = t.elapsed().as_secs_f64();
        }
    } else {
        r.run()?;
    }
    let total_s = t.elapsed().as_secs_f64();
    let after = db.metrics().snapshot();
    Ok(ReorgOut {
        total_s,
        pass_s,
        stats: r.stats(),
        log_bytes: delta(&before, &after, "wal_append_bytes"),
        syncs: delta(&before, &after, "wal_batches"),
        side_peak: after.gauge_peak("side_file_depth") as f64,
    })
}

fn record_reorg(out: &mut RepOut, r: &ReorgOut) {
    let s = &r.stats;
    out.set("reorg_s", r.total_s);
    out.set("reorg.pass1_s", r.pass_s[0]);
    out.set("reorg.pass2_s", r.pass_s[1]);
    out.set("reorg.pass3_s", r.pass_s[2]);
    out.set("reorg.units", s.units as f64);
    out.set("reorg.units_copy_switch", s.copy_switch_units as f64);
    out.set("reorg.units_inplace", s.inplace_units as f64);
    out.set("reorg.swaps", s.swaps as f64);
    out.set("reorg.moves", s.moves as f64);
    out.set("reorg.records_moved", s.records_moved as f64);
    out.set("reorg.pages_freed", s.pages_freed as f64);
    out.set("reorg.deadlock_retries", s.deadlock_retries as f64);
    out.set("reorg.units_undone", s.units_undone as f64);
    out.set("reorg.side_entries_applied", s.side_entries_applied as f64);
    out.set("reorg.side_file_peak", r.side_peak);
    out.set("reorg.log_bytes", r.log_bytes);
    out.set("reorg.syncs", r.syncs);
    out.set(
        "reorg.us_per_record_moved",
        r.total_s * 1e6 / (s.records_moved.max(1)) as f64,
    );
}

fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    (after.counter(name) - before.counter(name)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer counters over the timed phase.
fn record_counts(out: &mut RepOut, a: &Snapshot, b: &Snapshot, da: &DiskStats, db_: &DiskStats) {
    let d = |name| delta(a, b, name);
    out.set("admission.shed", d("server_requests_shed"));
    out.set("lock.grants_waited", d("lock_grants_waited"));
    out.set("lock.wait_ns_total", d("lock_wait_ns_total"));
    out.set("lock.forgone_rx", d("lock_forgone_rx"));
    out.set("lock.rs_instant_grants", d("lock_rs_instant_grants"));
    out.set("lock.deadlocks", d("lock_deadlocks"));
    let (hits, misses) = (d("pool_hits"), d("pool_misses"));
    out.set("buffer.hit_ratio", ratio(hits, hits + misses));
    out.set("buffer.evictions", d("pool_evictions"));
    out.set("buffer.flushes", d("pool_flushes"));
    let disk = db_.since(da);
    out.set("disk.reads", disk.reads as f64);
    out.set("disk.writes", disk.writes as f64);
    out.set("disk.syncs", disk.syncs as f64);
    out.set("wal.appends", d("wal_appends"));
    out.set("wal.append_bytes", d("wal_append_bytes"));
    // Forces of the log: one fsync each when the log is a file.
    out.set("wal.syncs", d("wal_batches"));
    out.set(
        "wal.records_per_batch",
        ratio(d("wal_appends"), d("wal_batches")),
    );
    out.set("wal.group_waits", d("wal_group_waits"));
    out.set("wal.segments_peak", b.gauge_peak("wal_segments") as f64);
}

/// Steps 5 and 6's check: a full scan must equal the model, and fsck (and
/// the log linter, when asked) must be clean. Returns the pages the scan
/// read from disk and their summed seek distance.
fn verify(db: &Database, model: &Model, lint: bool, out: &mut RepOut) -> Result<DiskStats, String> {
    db.pool().evict_all().map_err(|e| err("evict_all", e))?;
    let before = db.disk().stats();
    let rows = db
        .tree()
        .range_scan(0, u64::MAX)
        .map_err(|e| err("full scan", e))?;
    let cold = db.disk().stats().since(&before);
    let mut want = model.range(0, u64::MAX);
    for (k, v) in &rows {
        match want.next() {
            Some((wk, wv)) if *k == wk && v[..] == value_for(wk, wv)[..] => {}
            Some((wk, _)) if *k == wk => out.mismatch(format!("key {k}: stale or foreign value")),
            Some((wk, _)) if wk < *k => out.mismatch(format!("key {wk}: acknowledged write lost")),
            _ => out.mismatch(format!("key {k}: present but never acknowledged")),
        }
    }
    if let Some((wk, _)) = want.next() {
        out.mismatch(format!("key {wk}: acknowledged write lost"));
    }
    if rows.len() as u64 != model.live() {
        out.mismatch(format!(
            "scan returned {} records, model holds {}",
            rows.len(),
            model.live()
        ));
    }
    let mut report = fsck_db(db, &FsckOptions::default()).report;
    if lint {
        report.merge(lint_log(db.log(), &WalLintOptions::default()));
    }
    for f in report
        .findings
        .iter()
        .filter(|f| f.severity == obr_check::Severity::Error)
    {
        out.mismatch(f.to_string());
    }
    Ok(cold)
}

fn seeded_half(seed: u64, page: u32) -> bool {
    Rng::new(seed ^ ((page as u64) << 20)).next() & 1 == 1
}

/// One repetition. `sabotage` drops one key from the model before the
/// final check, to prove the check can fail. `pinned` is the CPU the
/// calling thread is confined to, if it is: a concurrent reorganizer then
/// runs on the others.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    backend: &Backend,
    trace: Option<&mut Trace>,
    sabotage: bool,
    pinned: Option<usize>,
) -> Result<RepOut, String> {
    let mut out = RepOut::default();
    let traced = trace.is_some();
    let mut model = Model::new(w.key_space());

    let (Rig { db, server, client }, setup_s) = setup(w, seed, backend, &mut model)?;
    out.set("setup_s", setup_s);

    // Step 2: warm-up and the timed phase.
    let mut gen = Gen::new(seed, w.mix, w.loaded, w.churn);
    let mut fg = Foreground::new(Arc::clone(&db), client, trace, w.reorg_under_load);
    run_ops(&mut fg, &mut gen, &mut model, &mut out, w.warm_ops, None)?;
    let calib_before = calibrate() as f64;

    let (snap0, disk0) = (db.metrics().snapshot(), db.disk().stats());
    let counts = if w.reorg_under_load {
        // The foreground runs its fixed stream, so that counts repeat;
        // latency and throughput rest on the part of it that completed
        // while the reorganizer was live.
        let done = AtomicBool::new(false);
        let (counts, reorg) = std::thread::scope(|sc| {
            let h = sc.spawn(|| {
                if let Some(cpu) = pinned {
                    crate::pin::pin_away_from(cpu);
                }
                let r = reorganize(&db, traced);
                done.store(true, Ordering::SeqCst);
                r
            });
            let live = || !done.load(Ordering::SeqCst);
            let counts = run_ops(&mut fg, &mut gen, &mut model, &mut out, w.ops, Some(&live));
            (counts, h.join().expect("reorganizer thread panicked"))
        });
        record_reorg(
            &mut out,
            &reorg.map_err(|e| err("reorganize under load", e))?,
        );
        counts?
    } else {
        run_ops(
            &mut fg,
            &mut gen,
            &mut model,
            &mut out,
            w.ops,
            Some(&|| true),
        )?
    };
    let (snap1, disk1) = (db.metrics().snapshot(), db.disk().stats());
    record_counts(&mut out, &snap0, &snap1, &disk0, &disk1);
    out.set("wal.on_disk_bytes", db.log().on_disk_bytes() as f64);
    out.set("server.busy_retries", fg.busy_retries as f64);
    out.set("txn.restarts", fg.restarts as f64);
    out.set(
        "ops_per_s",
        ratio(counts.sampled_ops as f64, counts.sampled_s),
    );
    // A batch is one write-and-force of the log; on files, one fsync.
    out.set(
        "fsyncs_per_op",
        ratio(delta(&snap0, &snap1, "wal_batches"), counts.ops as f64),
    );

    // Pool fetches a point lookup costs, counted over lookups alone.
    let mut rng = Rng::new(seed ^ 0x5EA2_C400);
    let before = db.metrics().snapshot();
    for _ in 0..1_000 {
        let key = 2 * rng.below(w.loaded);
        std::hint::black_box(db.tree().search(key).map_err(|e| err("search", e))?);
    }
    let after = db.metrics().snapshot();
    out.set(
        "btree.fetches_per_search",
        (delta(&before, &after, "pool_hits") + delta(&before, &after, "pool_misses")) / 1_000.0,
    );
    fg.micro_probes()?;

    // Step 3: crash.
    if let Some(c) = fg.into_client() {
        let _ = c.bye();
    }
    if let Some(server) = server {
        server.stop_abrupt();
    }
    {
        // Never committed, never aborted: recovery must undo it. Dropping
        // the handle releases its locks so the reorganizer below cannot
        // queue behind a transaction that will never finish.
        let session = Session::new(Arc::clone(&db));
        let mut loser = session.begin();
        for i in 0..LOSER_INSERTS {
            let k = w.loser_base() + i;
            loser
                .insert(k, &value_for(k, 1))
                .map_err(|e| err("loser insert", e))?;
        }
    }
    if let Some(nth) = w.fail_point {
        let r = Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
            .with_fail_point(FailPoint::new(FailSite::BeforeModify, nth));
        match r.run() {
            Err(CoreError::InjectedCrash(_)) => {}
            Ok(_) => {
                return Err(format!(
                    "fail point {nth} never fired: the tree has too few units"
                ))
            }
            Err(e) => return Err(err("reorganizer before crash", e)),
        }
    }
    db.crash(|p| seeded_half(seed, p.0))
        .map_err(|e| err("crash", e))?;
    // Everything written since the timed phase began, the crash-time page
    // flushes included.
    let mut written = delta(&snap0, &db.metrics().snapshot(), "wal_append_bytes")
        + db.disk().stats().since(&disk0).writes as f64 * PAGE_BYTES;

    // Step 4: restart, then make the database clean again. No checkpoint
    // ran since set-up, so recovery redoes the whole timed phase.
    let t = Instant::now();
    let db = backend.restart(db, w).map_err(|e| err("reopen", e))?;
    let open_s = t.elapsed().as_secs_f64();
    let (snap2, disk2) = (db.metrics().snapshot(), db.disk().stats());
    let report = recover(&db).map_err(|e| err("recover", e))?;
    let recovery_s = t.elapsed().as_secs_f64();
    out.set("recovery_s", recovery_s);
    out.set("recovery.open_s", open_s);
    out.set("recovery.recover_s", recovery_s - open_s);
    out.set("recovery.redo_applied", report.redo_applied as f64);
    out.set("recovery.losers_undone", report.losers_undone as f64);
    out.set(
        "recovery.forward_units",
        report.forward_units_completed as f64,
    );
    out.set("recovery.clrs_written", report.clrs_written as f64);
    if w.fail_point.is_some() && report.forward_units_completed == 0 {
        out.mismatch("the interrupted unit was not finished forward".into());
    }
    for i in 0..LOSER_INSERTS {
        let k = w.loser_base() + i;
        if db.tree().search(k).map_err(|e| err("search", e))?.is_some() {
            out.mismatch(format!("loser key {k} survived recovery"));
        }
    }
    let t = Instant::now();
    db.checkpoint().map_err(|e| err("checkpoint", e))?;
    out.set("db.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
    // write_amp: log bytes and page writes from the start of the timed
    // phase until the restarted database is clean, per user byte written.
    written += delta(&snap2, &db.metrics().snapshot(), "wal_append_bytes")
        + db.disk().stats().since(&disk2).writes as f64 * PAGE_BYTES;
    out.set("write_amp", ratio(written, counts.user_bytes as f64));

    // Step 5: verify, and probe the state the workload left behind.
    if sabotage {
        let victim = model
            .range(0, u64::MAX)
            .next()
            .expect("model is not empty")
            .0;
        model.delete(victim);
    }
    let t = Instant::now();
    let cold = verify(&db, &model, w.fail_point.is_some(), &mut out)?;
    let mut verify_s = t.elapsed().as_secs_f64();
    let shape = db.tree().stats().map_err(|e| err("tree stats", e))?;
    let pages = db
        .tree()
        .reachable_pages()
        .map_err(|e| err("reachable pages", e))?
        .len();
    let live_bytes = (model.live() * RECORD_BYTES) as f64;
    out.set("space_amp", ratio(pages as f64 * PAGE_BYTES, live_bytes));
    out.set(
        "scan_reads_per_krecord",
        ratio(cold.reads as f64 * 1e3, model.live() as f64),
    );
    out.set(
        "disk.scan_seek_per_read",
        ratio(cold.seek_distance as f64, cold.reads as f64),
    );
    out.set("btree.height", shape.height as f64);
    out.set("btree.leaf_pages", shape.leaf_pages as f64);
    out.set("btree.fill_permille", (shape.avg_leaf_fill * 1e3).round());
    out.set("btree.discontinuities", shape.leaf_discontinuities() as f64);

    // Step 6: the reorganization this tree would get next.
    if !w.reorg_under_load {
        let reorg = reorganize(&db, traced).map_err(|e| err("reorganize", e))?;
        record_reorg(&mut out, &reorg);
        let t = Instant::now();
        verify(&db, &model, false, &mut out)?;
        verify_s += t.elapsed().as_secs_f64();
    }
    out.set("check.verify_s", verify_s);
    out.set("check.findings", out.mismatches as f64);
    out.set(
        "success_ratio",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
    );
    out.set(
        "bench.fail_ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out.set("bench.threads", w.busy_threads() as f64);
    let calib = (calib_before + calibrate() as f64) / 2.0;
    out.set("bench.calib_ns", calib);
    out.scale = CALIB_REF_NS / calib;
    Ok(out)
}
