//! Exhaustive crash-consistency checker: enumerate every WAL prefix a
//! crash could leave behind and prove Forward Recovery (§5.1) completes.
//!
//! # What is enumerated
//!
//! A scripted, single-threaded workload (inserts/deletes plus the pass-1/2/3
//! reorganization passes) runs against a [`JournalDisk`], which stamps every
//! completed page write with the WAL durability watermark at the moment of
//! the write. Because the engine issues page writes synchronously and only
//! after forcing the log up to the page's LSN, the valid crash states are
//! exactly the pairs
//!
//! > (journal prefix `j`, record prefix `k`)  with  `mark(j) <= k <= mark(j+1)`
//!
//! — the disk as of some write boundary, combined with any log length the
//! watermark passed through before the next write. That includes every
//! record boundary (group-commit watermark jumps contribute the
//! intermediate `k` values with the disk held fixed) and every
//! point in the careful-writing write order of §5.1.
//!
//! For each state the checker materializes a fresh disk from the journal,
//! clones the exact log prefix, runs the real [`recover`] path, and asserts
//! the **Forward Recovery contract**:
//!
//! - recovery itself succeeds (no state is unrecoverable),
//! - every interrupted reorganization unit is driven forward to its END —
//!   never rolled back past logged progress,
//! - the recovered tree passes fsck, and the WAL linter finds no errors,
//! - the key set equals the *oracle*: the last committed logical snapshot
//!   at or below the crash point (losers undone, nothing lost, nothing
//!   duplicated),
//! - when pass 3 was in flight, the reported restart state resumes to a
//!   successful switch, side-file catch-up converges, and the switched
//!   tree again passes fsck and matches the oracle (root switch is
//!   all-or-nothing).
//!
//! Torn tails are covered separately: sampled byte-level truncations of the
//! log image are written as the single active segment of a scratch
//! directory and reopened through [`LogManager::open_dir`], asserting the
//! file path resolves every torn tail to the record boundary below it —
//! which the boundary enumeration already verified.
//!
//! # Segmented-WAL coverage
//!
//! A third scenario runs its workload against a real file-backed
//! *segmented* log ([`LogManager::open_dir`]) with a small seal threshold,
//! recycling sealed segments before journaling begins and sealing at least
//! one more inside the journaled window — so every enumerated crash state
//! of that scenario straddles seal and recycle boundaries. On top of the
//! state enumeration, a file-level pass mutates copies of the segment
//! directory into each crash artifact the layout permits (a torn active
//! tail, an empty next segment left by a crash mid-seal, a partial oldest-
//! first recycle) and each corruption it must reject (a missing middle
//! segment, a torn *sealed* segment), asserting [`LogManager::open_dir`]
//! resolves the former to the exact record boundary and refuses the
//! latter.
//!
//! # The oracle
//!
//! The workload is single-threaded and every session operation forces the
//! log through its commit LSN, so the logical contents at any record prefix
//! `k` are the model snapshot taken right after the last operation whose
//! commit LSN is `<= k`. Reorganization never changes logical contents, so
//! the same oracle applies inside reorganization passes.
//!
//! Exhaustive mode visits every state; `budget`/`seed` deterministically
//! sample a fixed-size subset for CI.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_core::{
    recover, Database, EngineConfig, FailPoint, FailSite, RecoveryReport, ReorgConfig, Reorganizer,
};
use obr_storage::{DiskManager, DurabilityWitness, InMemoryDisk, JournalDisk, Lsn};
use obr_txn::Session;
use obr_wal::{segment, LogManager, LogReader};

use crate::fsck::{fsck_db, FsckOptions};
use crate::report::Report;
use crate::wal_lint::{lint_log, WalLintOptions};

/// Name this checker stamps on findings.
const CHECKER: &str = "crashcheck";

/// Options for [`run_crash_check`].
#[derive(Clone, Debug)]
pub struct CrashCheckOptions {
    /// Maximum number of crash states to verify; `None` = exhaustive.
    pub budget: Option<usize>,
    /// Seed for deterministic budget sampling (ignored in exhaustive mode
    /// except for torn-tail cut selection).
    pub seed: u64,
    /// Byte-level torn-tail truncations to verify per scenario.
    pub torn_tail_samples: usize,
    /// Directory for torn-tail scratch files; defaults to a per-process
    /// directory under the system temp dir.
    pub scratch_dir: Option<PathBuf>,
    /// Seal threshold for the segmented-WAL scenario, in bytes. Small
    /// enough by default that the scripted workload recycles segments
    /// before journaling and seals at least one more inside the journaled
    /// window.
    pub segment_bytes: u64,
}

impl Default for CrashCheckOptions {
    fn default() -> Self {
        CrashCheckOptions {
            budget: None,
            seed: 1,
            torn_tail_samples: 48,
            scratch_dir: None,
            segment_bytes: 1024,
        }
    }
}

/// Counters describing what the enumeration covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashCheckStats {
    /// Scripted workloads enumerated.
    pub scenarios: usize,
    /// WAL record boundaries across all scenarios.
    pub record_boundaries: u64,
    /// Total enumerable (disk prefix, log prefix) crash states.
    pub crash_states: u64,
    /// Crash states actually verified (== `crash_states` when exhaustive).
    pub states_checked: u64,
    /// Byte-level torn-tail truncations verified through the file path.
    pub torn_tails_checked: u64,
    /// Reorganization units recovery completed forward, summed over states.
    pub forward_units_completed: u64,
    /// States where recovery reported pass-3 in flight and the checker
    /// resumed it to a successful switch.
    pub pass3_resumes: u64,
    /// Side-file entries recovery restored, summed over states.
    pub side_entries_restored: u64,
    /// File-level segment-directory crash artifacts verified through
    /// [`LogManager::open_dir`] (torn active tails, mid-seal crashes,
    /// partial recycles, and the corruptions it must reject).
    pub segment_states_checked: u64,
}

/// The outcome of a crash-consistency run: findings plus coverage counters.
#[derive(Debug)]
pub struct CrashCheckOutcome {
    /// Findings; any [`crate::Severity::Error`] finding is a violated
    /// Forward Recovery contract.
    pub report: Report,
    /// Coverage counters.
    pub stats: CrashCheckStats,
}

/// One scripted workload, journaled and ready for enumeration.
struct Scenario {
    name: &'static str,
    journal: Arc<JournalDisk>,
    /// The workload's full log (prefixes are cloned per state).
    log: Arc<LogManager>,
    /// Reorg configuration the workload used (resume must match it).
    cfg: ReorgConfig,
    /// Durable watermark when journaling began.
    base_mark: Lsn,
    /// Durable watermark at workload end.
    end_mark: Lsn,
    /// `(commit LSN, logical snapshot)` in commit order; the first entry is
    /// the state at `base_mark`.
    oracle: Vec<(u64, BTreeMap<u64, Vec<u8>>)>,
    /// Pool frames to reopen crashed states with.
    frames: usize,
    /// Segment directory of a file-backed segmented log (the segmented-WAL
    /// scenario); `None` for in-memory-log scenarios.
    wal_dir: Option<PathBuf>,
}

/// One enumerable crash state of one scenario.
#[derive(Clone, Copy, Debug)]
struct CrashState {
    scenario: usize,
    /// Journal prefix length (disk state).
    disk_prefix: usize,
    /// Log record prefix (highest LSN the crash preserved).
    log_prefix: u64,
}

fn val(k: u64) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    v.resize(48, 0x5b);
    v
}

/// xorshift64*: tiny deterministic PRNG for sampling (no clock, no OS rng).
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Prng {
        Prng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Run the crash-consistency checker over the bundled scripted workloads.
pub fn run_crash_check(opts: &CrashCheckOptions) -> CrashCheckOutcome {
    let mut report = Report::new();
    let mut stats = CrashCheckStats::default();

    let scenarios = match build_scenarios(opts) {
        Ok(s) => s,
        Err(e) => {
            report.error(
                CHECKER,
                "workload-failed",
                None,
                None,
                format!("scripted workload failed before enumeration: {e}"),
            );
            return CrashCheckOutcome { report, stats };
        }
    };
    stats.scenarios = scenarios.len();

    // --- Enumerate every crash state of every scenario. ---
    let mut states: Vec<CrashState> = Vec::new();
    for (idx, sc) in scenarios.iter().enumerate() {
        stats.record_boundaries += sc.end_mark.0 - sc.base_mark.0 + 1;
        states.extend(enumerate_states(idx, sc));
    }
    stats.crash_states = states.len() as u64;

    // --- Budget sampling: deterministic for a fixed (budget, seed). ---
    if let Some(budget) = opts.budget {
        if budget < states.len() {
            let mut rng = Prng::new(opts.seed);
            // Partial Fisher-Yates: the first `budget` slots are a uniform
            // sample of the full state list.
            for i in 0..budget {
                let j = i + rng.below(states.len() - i);
                states.swap(i, j);
            }
            states.truncate(budget);
            states.sort_by_key(|s| (s.scenario, s.disk_prefix, s.log_prefix));
            report.note(format!(
                "budget sampling: verifying {} of {} crash states (seed {})",
                states.len(),
                stats.crash_states,
                opts.seed
            ));
        }
    }

    // --- Verify each state against the Forward Recovery contract. ---
    // A panic inside recovery or a tree walk on a corrupt state is itself a
    // violation, not a checker crash: catch it and report the state.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for st in &states {
        let sc = &scenarios[st.scenario];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            verify_state(sc, *st, &mut report, &mut stats)
        }));
        if let Err(p) = outcome {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic payload".into());
            report.error(
                CHECKER,
                "panic-during-verification",
                None,
                Some(Lsn(st.log_prefix)),
                format!("{} verification panicked: {msg}", ctx(sc, *st)),
            );
        }
        stats.states_checked += 1;
    }
    std::panic::set_hook(quiet);

    // --- Torn tails through the real file path. ---
    let scratch = opts.scratch_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("obr-crashcheck-{}", std::process::id()))
    });
    for sc in &scenarios {
        verify_torn_tails(sc, opts, &scratch, &mut report, &mut stats);
    }

    // --- Segment-directory crash artifacts through the real reopen path. ---
    for sc in &scenarios {
        verify_segment_states(sc, opts, &scratch, &mut report, &mut stats);
    }
    std::fs::remove_dir_all(&scratch).ok();
    for sc in &scenarios {
        if let Some(dir) = sc.wal_dir.as_ref().and_then(|d| d.parent()) {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    for sc in &scenarios {
        report.note(format!(
            "scenario {}: journal {} events, log LSNs {}..={}, {} oracle snapshots",
            sc.name,
            sc.journal.journal_len(),
            sc.base_mark,
            sc.end_mark,
            sc.oracle.len()
        ));
    }
    report.note(format!(
        "verified {}/{} crash states, {} torn tails, {} segment states; \
         {} forward unit completions, {} pass-3 resumes, {} side entries restored",
        stats.states_checked,
        stats.crash_states,
        stats.torn_tails_checked,
        stats.segment_states_checked,
        stats.forward_units_completed,
        stats.pass3_resumes,
        stats.side_entries_restored
    ));

    CrashCheckOutcome { report, stats }
}

/// Build the scripted workloads. Each returns with its journal holding the
/// complete write history and its oracle the committed snapshots.
fn build_scenarios(opts: &CrashCheckOptions) -> Result<Vec<Scenario>, Box<dyn std::error::Error>> {
    Ok(vec![
        scenario_full_reorg()?,
        scenario_pass3_interrupted()?,
        scenario_segmented_wal(opts)?,
    ])
}

/// Common setup: a sparse bulk-loaded tree over a journaling disk, with the
/// journal started right after a checkpoint made the base state durable.
type Setup = (Arc<JournalDisk>, Arc<Database>, BTreeMap<u64, Vec<u8>>);

fn setup(
    pages: u32,
    keys: u64,
    key_stride: u64,
    fill: f64,
    node_fill: f64,
) -> Result<Setup, Box<dyn std::error::Error>> {
    let inner = Arc::new(InMemoryDisk::new(pages));
    let journal = Arc::new(JournalDisk::new(inner as Arc<dyn DiskManager>));
    let db = Database::create(
        Arc::clone(&journal) as Arc<dyn DiskManager>,
        pages as usize,
        SidePointerMode::TwoWay,
    )?;
    journal.set_witness(Arc::clone(db.log()) as Arc<dyn DurabilityWitness>);
    let records: Vec<(u64, Vec<u8>)> = (0..keys).map(|k| (k * key_stride, val(k))).collect();
    db.tree().bulk_load(&records, fill, node_fill)?;
    db.checkpoint()?;
    db.pool().flush_all()?;
    db.log().flush_all()?;
    journal.begin_journal()?;
    let model: BTreeMap<u64, Vec<u8>> = records.into_iter().collect();
    Ok((journal, db, model))
}

/// Apply one session op, mirror it in the model, and snapshot the oracle at
/// the op's commit LSN (the op forced the log through it).
fn op_insert(
    s: &Session,
    model: &mut BTreeMap<u64, Vec<u8>>,
    oracle: &mut Vec<(u64, BTreeMap<u64, Vec<u8>>)>,
    key: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    if model.contains_key(&key) {
        return Ok(());
    }
    let v = val(key ^ 0xBEEF);
    s.insert(key, &v)?;
    model.insert(key, v);
    oracle.push((s.db().log().durable_lsn().0, model.clone()));
    Ok(())
}

fn op_delete(
    s: &Session,
    model: &mut BTreeMap<u64, Vec<u8>>,
    oracle: &mut Vec<(u64, BTreeMap<u64, Vec<u8>>)>,
    key: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    if model.remove(&key).is_none() {
        return Ok(());
    }
    s.delete(key)?;
    oracle.push((s.db().log().durable_lsn().0, model.clone()));
    Ok(())
}

/// Scenario 1: session churn, then a complete pass-1/2/3 reorganization,
/// then more churn. Covers unit crashes in every pass, the pass-3 stable
/// records, the switch record, and post-switch operation.
fn scenario_full_reorg() -> Result<Scenario, Box<dyn std::error::Error>> {
    let (journal, db, mut model) = setup(2048, 320, 3, 0.3, 0.5)?;
    let base_mark = db.log().durable_lsn();
    let mut oracle = vec![(base_mark.0, model.clone())];

    let s = Session::new(Arc::clone(&db));
    // Clustered inserts split a leaf; spread inserts and deletes churn the
    // fill factors pass 1 will compact.
    for k in 0..14u64 {
        // Dense non-resident keys between the stride-3 bulk keys: 91, 92,
        // 94, 95, ... — enough in one key range to split a leaf.
        op_insert(&s, &mut model, &mut oracle, 90 + (k / 2) * 3 + 1 + k % 2)?;
    }
    for k in 0..10u64 {
        op_insert(&s, &mut model, &mut oracle, k * 93 + 1)?;
    }
    for k in 0..12u64 {
        op_delete(&s, &mut model, &mut oracle, k * 27)?;
    }

    let cfg = ReorgConfig {
        stable_interval: 3,
        ..ReorgConfig::default()
    };
    Reorganizer::new(Arc::clone(&db), cfg.clone()).run()?;

    for k in 0..8u64 {
        op_insert(&s, &mut model, &mut oracle, 600 + k)?;
    }
    for k in 0..4u64 {
        op_delete(&s, &mut model, &mut oracle, 90 + k)?;
    }

    db.pool().flush_all()?;
    db.log().flush_all()?;
    let end_mark = db.log().durable_lsn();
    Ok(Scenario {
        name: "full-reorg",
        journal,
        log: Arc::clone(db.log()),
        cfg,
        base_mark,
        end_mark,
        oracle,
        frames: 2048,
        wal_dir: None,
    })
}

/// Scenario 2: pass 3 is interrupted right after a stable point (the
/// observer and CK frontier stay live), then session operations behind the
/// frontier populate the side file — leaf splits and a free-at-empty run.
/// Every trailing crash state recovers with pass 3 in flight, and the
/// checker resumes it through side-file catch-up to the switch.
fn scenario_pass3_interrupted() -> Result<Scenario, Box<dyn std::error::Error>> {
    let (journal, db, mut model) = setup(2048, 600, 2, 0.25, 0.05)?;
    let base_mark = db.log().durable_lsn();
    let mut oracle = vec![(base_mark.0, model.clone())];

    let cfg = ReorgConfig {
        swap_pass: false,
        stable_interval: 1,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&db), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::Pass3AfterStable, 1));
    match reorg.pass3_shrink() {
        Err(obr_core::CoreError::InjectedCrash(_)) => {}
        other => return Err(format!("expected injected pass-3 crash, got {other:?}").into()),
    }

    // Ops behind the read frontier: the §7.2 observer must mirror them into
    // the side file for catch-up to replay into the new tree.
    let s = Session::new(Arc::clone(&db));
    for k in 0..12u64 {
        op_insert(&s, &mut model, &mut oracle, k * 2 + 1)?;
    }
    for k in 50..70u64 {
        op_delete(&s, &mut model, &mut oracle, k * 2)?;
    }

    db.pool().flush_all()?;
    db.log().flush_all()?;
    let end_mark = db.log().durable_lsn();
    Ok(Scenario {
        name: "pass3-interrupted",
        journal,
        log: Arc::clone(db.log()),
        cfg,
        base_mark,
        end_mark,
        oracle,
        frames: 2048,
        wal_dir: None,
    })
}

/// Scenario 3: the same churn-reorg-churn shape as scenario 1, but against
/// a real file-backed **segmented** log with a small seal threshold. Before
/// journaling begins the workload seals several segments and runs
/// [`Database::truncate_log`], recycling everything below the checkpoint —
/// so the journaled window starts on a log whose first LSN is far from 1,
/// and the reorganization inside the window seals at least one more
/// segment. Every enumerated crash state of this scenario therefore
/// exercises recovery over seal and recycle boundaries.
///
/// The window itself must not truncate: [`LogManager::clone_prefix`] of the
/// final log cannot reproduce records an in-window truncation dropped, so a
/// mid-window recycle would make earlier crash states unmaterializable.
fn scenario_segmented_wal(
    opts: &CrashCheckOptions,
) -> Result<Scenario, Box<dyn std::error::Error>> {
    // The check crate sits outside the engine's sync facade (it *checks*
    // the engine), so raw std atomics are fine here.
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEG_SCENARIO_DIRS: AtomicU64 = AtomicU64::new(0);
    // relaxed: scratch-directory name uniqueness counter only.
    let n = SEG_SCENARIO_DIRS.fetch_add(1, Ordering::Relaxed);
    let root =
        std::env::temp_dir().join(format!("obr-crashcheck-segwal-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let wal_dir = root.join("wal");

    let pages = 1536u32;
    let inner = Arc::new(InMemoryDisk::new(pages));
    let journal = Arc::new(JournalDisk::new(inner as Arc<dyn DiskManager>));
    let log = Arc::new(LogManager::open_dir(&wal_dir, opts.segment_bytes)?);
    let db = Database::create_with_log(
        Arc::clone(&journal) as Arc<dyn DiskManager>,
        Arc::clone(&log),
        pages as usize,
        SidePointerMode::TwoWay,
        EngineConfig::default(),
    )?;
    journal.set_witness(Arc::clone(db.log()) as Arc<dyn DurabilityWitness>);
    let records: Vec<(u64, Vec<u8>)> = (0..220u64).map(|k| (k * 3, val(k))).collect();
    db.tree().bulk_load(&records, 0.3, 0.5)?;
    let mut model: BTreeMap<u64, Vec<u8>> = records.into_iter().collect();

    // Pre-journal churn: enough log volume to seal several segments, then a
    // checkpoint-truncate that recycles them. The crash states enumerated
    // below all live on the *survivor* of that recycle.
    let s = Session::new(Arc::clone(&db));
    let mut scratch_oracle = Vec::new();
    for k in 0..48u64 {
        op_insert(&s, &mut model, &mut scratch_oracle, 700 + k)?;
    }
    let sealed_pre_truncate = sealed_count(db.log());
    if sealed_pre_truncate == 0 {
        return Err(format!(
            "segmented scenario sealed no segments before truncation \
             (segment_bytes {} too large for the workload)",
            opts.segment_bytes
        )
        .into());
    }
    db.truncate_log()?;
    let first_seg = segment::list_segments(&wal_dir)?
        .first()
        .map(|(lsn, _)| *lsn)
        .unwrap_or(Lsn(1));
    if db.log().first_lsn() <= Lsn(1) || first_seg <= Lsn(1) {
        return Err("segmented scenario did not recycle any segment files; \
                    lower segment_bytes"
            .into());
    }
    db.pool().flush_all()?;
    db.log().flush_all()?;
    journal.begin_journal()?;
    let base_mark = db.log().durable_lsn();
    let mut oracle = vec![(base_mark.0, model.clone())];
    let sealed_at_base = sealed_count(db.log());

    // Journaled window: churn, a full reorganization, more churn — with at
    // least one seal inside it so crash states straddle a seal boundary.
    for k in 0..10u64 {
        op_insert(&s, &mut model, &mut oracle, 90 + (k / 2) * 3 + 1 + k % 2)?;
    }
    for k in 0..6u64 {
        op_delete(&s, &mut model, &mut oracle, k * 27)?;
    }
    let cfg = ReorgConfig {
        stable_interval: 3,
        ..ReorgConfig::default()
    };
    Reorganizer::new(Arc::clone(&db), cfg.clone()).run()?;
    for k in 0..6u64 {
        op_insert(&s, &mut model, &mut oracle, 800 + k)?;
    }

    db.pool().flush_all()?;
    db.log().flush_all()?;
    if sealed_count(db.log()) <= sealed_at_base {
        return Err("segmented scenario sealed no segment inside the \
                    journaled window; lower segment_bytes"
            .into());
    }
    let end_mark = db.log().durable_lsn();
    Ok(Scenario {
        name: "segmented-wal",
        journal,
        log: Arc::clone(db.log()),
        cfg,
        base_mark,
        end_mark,
        oracle,
        frames: pages as usize,
        wal_dir: Some(wal_dir),
    })
}

/// Sealed (immutable) segments currently in a log's catalog.
fn sealed_count(log: &LogManager) -> usize {
    log.segment_catalog().iter().filter(|s| s.sealed).count()
}

/// List every valid (disk prefix, log prefix) pair of a scenario. Journal
/// positions where the disk did not change (sync events) are folded into
/// the preceding disk version.
fn enumerate_states(idx: usize, sc: &Scenario) -> Vec<CrashState> {
    // (journal prefix, durable mark at that point) for each distinct disk
    // version, in order.
    let mut versions: Vec<(usize, u64)> = vec![(0, sc.base_mark.0)];
    let mut last_mark = sc.base_mark.0;
    for ev in sc.journal.events() {
        if ev.mark.0 > 0 {
            last_mark = last_mark.max(ev.mark.0);
        }
        // Writes and grows change the disk; syncs do not.
        if !ev.is_sync {
            versions.push((ev.index + 1, last_mark));
        }
    }
    let mut states = Vec::new();
    for (vi, &(j, mark)) in versions.iter().enumerate() {
        // The log may reach any length between this disk version's mark and
        // the next version's mark (or the workload end) before the next
        // write lands.
        let hi = versions
            .get(vi + 1)
            .map(|&(_, m)| m)
            .unwrap_or(sc.end_mark.0);
        for k in mark..=hi {
            states.push(CrashState {
                scenario: idx,
                disk_prefix: j,
                log_prefix: k,
            });
        }
    }
    states
}

/// The oracle snapshot in force at log prefix `k`.
fn expected_at(sc: &Scenario, k: u64) -> &BTreeMap<u64, Vec<u8>> {
    let pos = sc.oracle.partition_point(|(lsn, _)| *lsn <= k);
    &sc.oracle[pos.saturating_sub(1)].1
}

/// Context string naming a state in findings.
fn ctx(sc: &Scenario, st: CrashState) -> String {
    format!(
        "[scenario {}, disk prefix {}, log prefix {}]",
        sc.name, st.disk_prefix, st.log_prefix
    )
}

/// Materialize one crash state, run real recovery, and assert the Forward
/// Recovery contract.
fn verify_state(sc: &Scenario, st: CrashState, report: &mut Report, stats: &mut CrashCheckStats) {
    let c = ctx(sc, st);
    let disk = match sc.journal.materialize(st.disk_prefix) {
        Ok(d) => d,
        Err(e) => {
            report.error(
                CHECKER,
                "checker-error",
                None,
                None,
                format!("{c} materialize: {e}"),
            );
            return;
        }
    };
    let log = Arc::new(sc.log.clone_prefix(Lsn(st.log_prefix)));
    // Every reachable crash log must lint clean *before* recovery touches
    // it: no broken unit chains, no careful-writing violations, nothing
    // uncompletable. (Post-recovery logs are not linted — forward
    // completion legitimately logs full-record MOVEs, which the linter's
    // live-traffic model rejects.)
    let lint = lint_log(&log, &WalLintOptions::default());
    if lint.has_errors() {
        for f in lint
            .findings
            .iter()
            .filter(|f| f.severity == crate::Severity::Error)
        {
            report.error(
                CHECKER,
                "crash-prefix-wal-error",
                f.page,
                f.lsn,
                format!("{c} {f}"),
            );
        }
    }
    let db = match Database::reopen(
        disk as Arc<dyn DiskManager>,
        Arc::clone(&log),
        sc.frames,
        SidePointerMode::TwoWay,
    ) {
        Ok(db) => db,
        Err(e) => {
            report.error(
                CHECKER,
                "reopen-failed",
                None,
                Some(Lsn(st.log_prefix)),
                format!("{c} crashed state does not reopen: {e}"),
            );
            return;
        }
    };
    let rec: RecoveryReport = match recover(&db) {
        Ok(r) => r,
        Err(e) => {
            report.error(
                CHECKER,
                "recovery-failed",
                None,
                Some(Lsn(st.log_prefix)),
                format!("{c} recovery failed: {e}"),
            );
            return;
        }
    };
    stats.forward_units_completed += rec.forward_units_completed as u64;
    stats.side_entries_restored += rec.side_entries_restored as u64;

    check_tree(sc, st, &db, "after recovery", report);

    // Pass 3 in flight: the restart state must resume to a successful
    // switch, with side-file catch-up converging.
    if let Some(state) = rec.pass3_resume {
        match Reorganizer::new(Arc::clone(&db), sc.cfg.clone()).pass3_resume(state) {
            Ok(()) => {
                stats.pass3_resumes += 1;
                check_tree(sc, st, &db, "after pass-3 resume", report);
            }
            Err(e) => {
                report.error(
                    CHECKER,
                    "resume-failed",
                    None,
                    Some(Lsn(st.log_prefix)),
                    format!("{c} pass-3 resume failed: {e}"),
                );
            }
        }
    }
}

/// Structural fsck + oracle comparison for a recovered (or resumed) tree.
fn check_tree(sc: &Scenario, st: CrashState, db: &Arc<Database>, when: &str, report: &mut Report) {
    let c = ctx(sc, st);
    let fr = fsck_db(db, &FsckOptions::default());
    if fr.report.has_errors() {
        for f in fr
            .report
            .findings
            .iter()
            .filter(|f| f.severity == crate::Severity::Error)
        {
            report.error(
                CHECKER,
                "fsck-after-recovery",
                f.page,
                f.lsn,
                format!("{c} {when}: {f}"),
            );
        }
    }
    let got = match db.tree().collect_all() {
        Ok(g) => g,
        Err(e) => {
            report.error(
                CHECKER,
                "scan-failed",
                None,
                Some(Lsn(st.log_prefix)),
                format!("{c} {when}: full scan failed: {e}"),
            );
            return;
        }
    };
    let want = expected_at(sc, st.log_prefix);
    if got.len() != want.len() || !got.iter().all(|(k, v)| want.get(k) == Some(v)) {
        let got_keys: std::collections::BTreeSet<u64> = got.iter().map(|(k, _)| *k).collect();
        let want_keys: std::collections::BTreeSet<u64> = want.keys().copied().collect();
        let lost: Vec<u64> = want_keys.difference(&got_keys).take(8).copied().collect();
        let extra: Vec<u64> = got_keys.difference(&want_keys).take(8).copied().collect();
        report.error(
            CHECKER,
            "state-divergence",
            None,
            Some(Lsn(st.log_prefix)),
            format!(
                "{c} {when}: tree has {} records, oracle expects {}; \
                 lost keys (first 8): {lost:?}, unexpected keys (first 8): {extra:?}",
                got.len(),
                want.len()
            ),
        );
    }
}

/// Verify sampled byte-level torn tails: the log image cut at an arbitrary
/// byte, written as the single active segment `wal-<first_lsn>.seg`, must
/// reopen to exactly the record boundary below the cut, which the boundary
/// enumeration has already proven recoverable.
fn verify_torn_tails(
    sc: &Scenario,
    opts: &CrashCheckOptions,
    scratch: &std::path::Path,
    report: &mut Report,
    stats: &mut CrashCheckStats,
) {
    if opts.torn_tail_samples == 0 {
        return;
    }
    let dir = scratch.join(format!("torn-{}", sc.name));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.error(
            CHECKER,
            "checker-error",
            None,
            None,
            format!("cannot create scratch dir {}: {e}", dir.display()),
        );
        return;
    }
    let (first_lsn, frames) = sc.log.frames_snapshot();
    let bytes = LogReader::encode_frames(frames.iter().map(Vec::as_slice));
    if bytes.is_empty() {
        return;
    }
    let mut rng = Prng::new(opts.seed ^ 0x70_72_6e);
    let path = dir.join(segment::segment_file_name(first_lsn));
    for _ in 0..opts.torn_tail_samples {
        let cut = rng.below(bytes.len() + 1);
        let expect = LogReader::last_lsn(&LogReader::scan(&bytes[..cut]), first_lsn);
        if let Err(e) = std::fs::write(&path, &bytes[..cut]) {
            report.error(
                CHECKER,
                "checker-error",
                None,
                None,
                format!("cannot write scratch file: {e}"),
            );
            return;
        }
        match LogManager::open_dir(&dir, opts.segment_bytes) {
            Ok(log) => {
                let got = log.durable_lsn();
                if got != expect {
                    report.error(
                        CHECKER,
                        "torn-tail-divergence",
                        None,
                        Some(expect),
                        format!(
                            "[scenario {}] WAL truncated at byte {cut}: open_dir \
                             recovered through LSN {got}, scan says the clean \
                             prefix ends at LSN {expect}",
                            sc.name
                        ),
                    );
                }
            }
            Err(e) => {
                report.error(
                    CHECKER,
                    "torn-tail-divergence",
                    None,
                    Some(expect),
                    format!(
                        "[scenario {}] WAL truncated at byte {cut} fails to open: {e}",
                        sc.name
                    ),
                );
            }
        }
        stats.torn_tails_checked += 1;
    }
}

/// Verify the segment-directory crash artifacts of a segmented-WAL
/// scenario through the real [`LogManager::open_dir`] reopen path:
///
/// * sampled byte cuts of the **active** segment resolve to the record
///   boundary below the cut (torn-tail truncation),
/// * an empty next-named segment left by a crash **mid-seal** is adopted
///   as the new active segment with nothing lost,
/// * a **partial recycle** (oldest sealed segment already deleted) opens
///   with an advanced first LSN,
/// * a **missing middle** segment and a **torn sealed** segment are
///   rejected as corruption, never silently skipped or truncated.
fn verify_segment_states(
    sc: &Scenario,
    opts: &CrashCheckOptions,
    scratch: &std::path::Path,
    report: &mut Report,
    stats: &mut CrashCheckStats,
) {
    if sc.wal_dir.is_none() {
        return;
    }
    if let Err(e) = verify_segment_states_inner(sc, opts, scratch, report, stats) {
        report.error(
            CHECKER,
            "checker-error",
            None,
            None,
            format!("[scenario {}] segment-state verification: {e}", sc.name),
        );
    }
}

fn verify_segment_states_inner(
    sc: &Scenario,
    opts: &CrashCheckOptions,
    scratch: &std::path::Path,
    report: &mut Report,
    stats: &mut CrashCheckStats,
) -> Result<(), Box<dyn std::error::Error>> {
    let wal_dir = sc.wal_dir.as_ref().expect("caller checked");
    let segs = segment::list_segments(wal_dir)?;
    if segs.len() < 3 {
        return Err(format!(
            "expected >= 3 segment files (2 sealed + active), found {}",
            segs.len()
        )
        .into());
    }
    let seg_bytes = opts.segment_bytes;
    let dir_first = segs[0].0;
    // Copy the segment directory into a scratch subdirectory we can mutate.
    let fresh = |tag: &str| -> std::io::Result<PathBuf> {
        let dst = scratch.join(format!("segstate-{}-{tag}", sc.name));
        std::fs::remove_dir_all(&dst).ok();
        std::fs::create_dir_all(&dst)?;
        for (_, path) in &segs {
            let name = path.file_name().expect("segment files have names");
            std::fs::copy(path, dst.join(name))?;
        }
        Ok(dst)
    };

    // --- Torn active tail: every byte cut resolves to the boundary. ---
    let (active_first, active_path) = segs.last().expect("len checked");
    let active_name = active_path.file_name().expect("segment files have names");
    let active_bytes = std::fs::read(active_path)?;
    let mut rng = Prng::new(opts.seed ^ 0x5e_67);
    let samples = opts.torn_tail_samples.clamp(1, 16);
    for _ in 0..samples {
        let cut = rng.below(active_bytes.len() + 1);
        let dir = fresh("torn-active")?;
        std::fs::write(dir.join(active_name), &active_bytes[..cut])?;
        let expect =
            Lsn(active_first.0 - 1 + LogReader::scan(&active_bytes[..cut]).frames.len() as u64);
        match LogManager::open_dir(&dir, seg_bytes) {
            Ok(log) => {
                if log.durable_lsn() != expect || log.first_lsn() != dir_first {
                    report.error(
                        CHECKER,
                        "segment-state-divergence",
                        None,
                        Some(expect),
                        format!(
                            "[scenario {}] active segment cut at byte {cut}: open_dir \
                             recovered LSNs {}..={}, expected {dir_first}..={expect}",
                            sc.name,
                            log.first_lsn(),
                            log.durable_lsn()
                        ),
                    );
                }
            }
            Err(e) => {
                report.error(
                    CHECKER,
                    "segment-state-divergence",
                    None,
                    Some(expect),
                    format!(
                        "[scenario {}] active segment cut at byte {cut} fails to \
                         open: {e}",
                        sc.name
                    ),
                );
            }
        }
        stats.segment_states_checked += 1;
    }

    // --- Crash mid-seal: the empty next segment file already exists. ---
    // A seal creates the next file before any bookkeeping; the prior
    // active segment (flushed whole) becomes sealed, the empty file
    // becomes active, and no record moves.
    if !active_bytes.is_empty() {
        let dir = fresh("mid-seal")?;
        let next = Lsn(sc.end_mark.0 + 1);
        std::fs::write(dir.join(segment::segment_file_name(next)), b"")?;
        match LogManager::open_dir(&dir, seg_bytes) {
            Ok(log) => {
                if log.durable_lsn() != sc.end_mark || log.first_lsn() != dir_first {
                    report.error(
                        CHECKER,
                        "segment-state-divergence",
                        None,
                        Some(sc.end_mark),
                        format!(
                            "[scenario {}] crash mid-seal: open_dir recovered LSNs \
                             {}..={}, expected {dir_first}..={}",
                            sc.name,
                            log.first_lsn(),
                            log.durable_lsn(),
                            sc.end_mark
                        ),
                    );
                }
            }
            Err(e) => {
                report.error(
                    CHECKER,
                    "segment-state-divergence",
                    None,
                    Some(sc.end_mark),
                    format!("[scenario {}] crash mid-seal fails to open: {e}", sc.name),
                );
            }
        }
        stats.segment_states_checked += 1;
    }

    // --- Partial recycle: oldest sealed segment already deleted. ---
    {
        let dir = fresh("partial-recycle")?;
        let name = segs[0].1.file_name().expect("segment files have names");
        std::fs::remove_file(dir.join(name))?;
        match LogManager::open_dir(&dir, seg_bytes) {
            Ok(log) => {
                if log.first_lsn() != segs[1].0 || log.durable_lsn() != sc.end_mark {
                    report.error(
                        CHECKER,
                        "segment-state-divergence",
                        None,
                        Some(segs[1].0),
                        format!(
                            "[scenario {}] partial recycle: open_dir recovered LSNs \
                             {}..={}, expected {}..={}",
                            sc.name,
                            log.first_lsn(),
                            log.durable_lsn(),
                            segs[1].0,
                            sc.end_mark
                        ),
                    );
                }
            }
            Err(e) => {
                report.error(
                    CHECKER,
                    "segment-state-divergence",
                    None,
                    Some(segs[1].0),
                    format!("[scenario {}] partial recycle fails to open: {e}", sc.name),
                );
            }
        }
        stats.segment_states_checked += 1;
    }

    // --- Missing middle segment: must be rejected, never skipped. ---
    {
        let dir = fresh("middle-gap")?;
        let name = segs[1].1.file_name().expect("segment files have names");
        std::fs::remove_file(dir.join(name))?;
        if let Ok(log) = LogManager::open_dir(&dir, seg_bytes) {
            report.error(
                CHECKER,
                "segment-corruption-undetected",
                None,
                Some(segs[1].0),
                format!(
                    "[scenario {}] open_dir silently skipped a missing middle \
                     segment and recovered LSNs {}..={}",
                    sc.name,
                    log.first_lsn(),
                    log.durable_lsn()
                ),
            );
        }
        stats.segment_states_checked += 1;
    }

    // --- Torn sealed segment: must be rejected, never truncated. ---
    {
        let dir = fresh("torn-sealed")?;
        let name = segs[0].1.file_name().expect("segment files have names");
        let bytes = std::fs::read(&segs[0].1)?;
        if bytes.len() > 3 {
            std::fs::write(dir.join(name), &bytes[..bytes.len() - 3])?;
            if let Ok(log) = LogManager::open_dir(&dir, seg_bytes) {
                report.error(
                    CHECKER,
                    "segment-corruption-undetected",
                    None,
                    Some(segs[0].0),
                    format!(
                        "[scenario {}] open_dir silently truncated a torn sealed \
                         segment and recovered LSNs {}..={}",
                        sc.name,
                        log.first_lsn(),
                        log.durable_lsn()
                    ),
                );
            }
            stats.segment_states_checked += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The segmented scenario's log starts past LSN 1 (its prefix was
    /// recycled), and its torn tails still go through the one open path.
    #[test]
    fn segmented_scenario_contributes_torn_tails() {
        let opts = CrashCheckOptions {
            torn_tail_samples: 12,
            ..CrashCheckOptions::default()
        };
        let sc = scenario_segmented_wal(&opts).unwrap();
        assert!(sc.log.first_lsn() > Lsn(1), "scenario must have recycled");
        let scratch =
            std::env::temp_dir().join(format!("obr-crashcheck-unit-{}", std::process::id()));
        let mut report = Report::new();
        let mut stats = CrashCheckStats::default();
        verify_torn_tails(&sc, &opts, &scratch, &mut report, &mut stats);
        assert_eq!(stats.torn_tails_checked, 12);
        assert!(!report.has_errors(), "{report}");
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(sc.wal_dir.as_ref().unwrap().parent().unwrap()).ok();
    }
}
