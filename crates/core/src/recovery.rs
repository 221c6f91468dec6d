//! Crash recovery: ARIES-style redo and transaction undo, plus the paper's
//! **Forward Recovery** (§5.1) and pass-3 resumption (§7.3).
//!
//! Redo starts at the last (sharp) checkpoint. For each record it applies
//! `obr_btree::apply::apply` to every page the record names whose LSN is
//! behind the record, then stamps that LSN. That apply is the one the
//! record's writer called when it logged the record, so redo repeats the
//! writer's page change byte for byte. The same replay loop feeds a
//! replica.
//!
//! A transaction is in the log from its first update record to its commit
//! or abort record, and nowhere else: there is no begin record, and one
//! that only read never appears. The loser candidates are the checkpoint's
//! active list (transactions with an update and no end, each with its most
//! recent LSN) plus every transaction whose update or CLR the redo scan
//! meets. A commit or abort record takes its transaction out again; one
//! naming an id the scan never saw takes out nothing. Each loser left is
//! undone by [`roll_back`], the walk an aborting transaction also uses:
//! down its `prev_lsn` chain from the newest record to zero, one CLR per
//! change.
//!
//! An interrupted reorganization unit is *not* rolled back. Its BEGIN
//! record names the pages involved, and redo has replayed its MOVEs. The
//! remaining moves, the base-page MODIFY and the side-pointer repairs are
//! then logged and applied forward, exactly as the live unit writes them,
//! and a fresh END closes the unit: "the reorganization unit will be able
//! to finish the work instead of rolling back and wasting the work that
//! has already been done."
//!
//! If pass 3 was in flight, the newest `Pass3Stable` record (after any
//! switch) yields the restart state. The side file is rebuilt by
//! *reconciliation* rather than log replay: the base tree's level-1
//! mappings below the stable frontier are diffed against the partially
//! built new tree's, and one entry is appended per difference — exactly
//! the catch-up work that remains (§7.3). The free-space map rebuild then
//! reclaims new-tree pages allocated after the last force-write.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use obr_btree::apply::{apply, roles};
use obr_btree::{LeafView, NodeView};
use obr_storage::{Lsn, PageId, PageType};
use obr_wal::{LogRecord, MovePayload, Pass3State, ReorgKind, TxnId, UnitId};

use crate::db::Database;
use crate::error::{CoreError, CoreResult};
use crate::pass3::Pass3Observer;
use crate::reorg::{last_key_of, log_and_apply, modify_base, set_siblings};
use crate::sidefile::{SideEntry, SideOp, SIDE_FILE_PAGE};

/// What recovery did — the E5 metrics.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Log records scanned in the redo pass.
    pub redo_scanned: usize,
    /// Page actions actually re-applied (page LSN was behind).
    pub redo_applied: usize,
    /// Loser transactions rolled back.
    pub losers_undone: usize,
    /// Compensation records written during undo.
    pub clrs_written: usize,
    /// Incomplete reorganization units finished forward (§5.1).
    pub forward_units_completed: usize,
    /// Records already moved by interrupted units and *kept* — the work a
    /// rollback-based scheme (\[Smi90\]) would have thrown away.
    pub records_preserved: u64,
    /// Pass-3 restart state, when an internal reorganization was in flight.
    pub pass3_resume: Option<Pass3State>,
    /// Side-file entries rebuilt by reconciling the recovered trees.
    pub side_entries_restored: usize,
    /// Pages reclaimed by the free-space-map rebuild.
    pub pages_reclaimed: usize,
}

#[derive(Debug)]
struct UnitInfo {
    unit: UnitId,
    kind: ReorgKind,
    base_pages: Vec<PageId>,
    leaf_pages: Vec<PageId>,
    /// LSN of the unit's BEGIN record.
    begin: Lsn,
}

/// Test-only sabotage switch: when `OBR_BUG_SKIP_SIDE_RESTORE=1`, recovery
/// skips rebuilding the side file instead of reconciling it. This exists
/// solely so the crash-consistency checker can prove it catches the
/// resulting Forward Recovery violations (lost catch-up after a pass-3
/// crash); it is never set outside the checker's own teeth tests.
fn skip_side_restore() -> bool {
    std::env::var_os("OBR_BUG_SKIP_SIDE_RESTORE").is_some_and(|v| v == "1")
}

/// The one replay loop, shared by restart recovery and [`crate::Replica`]:
/// applies records in LSN order through [`redo_one`], refuses a gap, and
/// keeps the analysis recovery's finish steps need.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Highest LSN applied or declared materialized; the next record must
    /// be `applied + 1`.
    pub(crate) applied: Lsn,
    /// Records whose redo changed a page.
    pub(crate) redone: usize,
    /// Checkpoint records met.
    pub(crate) checkpoints: u64,
    /// Pass-3 tree switches met.
    pub(crate) switches: u64,
    /// Transactions with an update and no end, with their newest LSN.
    losers: HashMap<TxnId, Lsn>,
    /// Reorganization units begun and not ended.
    open_units: HashMap<UnitId, UnitInfo>,
    /// The newest pass-3 stable state since the last switch.
    latest_stable: Option<Pass3State>,
}

impl Replay {
    /// The gap rule: the next record a source offers may not be past
    /// `applied + 1`.
    fn check_next(&self, next: Lsn) -> CoreResult<()> {
        if next.0 <= self.applied.0 + 1 {
            return Ok(());
        }
        Err(CoreError::Recovery(format!(
            "replication gap: the next record available is LSN {next} but only \
             LSNs through {} are applied, so the history between was recycled \
             or lost; re-seed from a snapshot of the primary and declare its \
             LSN with set_applied_floor before shipping again",
            self.applied
        )))
    }

    /// Apply `records`, in LSN order, from a source whose first record is
    /// `start`, skipping any at or below the applied LSN. Returns how many
    /// were applied.
    pub(crate) fn feed(
        &mut self,
        db: &Arc<Database>,
        start: Lsn,
        records: impl IntoIterator<Item = (Lsn, LogRecord)>,
    ) -> CoreResult<usize> {
        self.check_next(start)?;
        let mut fed = 0;
        for (lsn, rec) in records {
            if lsn <= self.applied {
                continue;
            }
            self.check_next(lsn)?;
            self.analyse(db, lsn, &rec);
            if redo_one(db, lsn, &rec)? {
                self.redone += 1;
            }
            self.applied = lsn;
            fed += 1;
        }
        Ok(fed)
    }

    /// Fold one record into the analysis state.
    fn analyse(&mut self, db: &Arc<Database>, lsn: Lsn, rec: &LogRecord) {
        match rec {
            LogRecord::TxnCommit { txn } | LogRecord::TxnAbort { txn } => {
                self.losers.remove(txn);
            }
            // Side-file records (page == SIDE_FILE_PAGE) are not replayed:
            // a crash can separate an SMO record from the side entry logged
            // just after it, so the log alone under- or over-states the
            // catch-up work. The side file is instead rebuilt from the
            // recovered trees themselves (see [`rebuild_side_file`]).
            LogRecord::TxnInsert { txn, page, .. } | LogRecord::TxnDelete { txn, page, .. }
                if *page != SIDE_FILE_PAGE =>
            {
                self.losers.insert(*txn, lsn);
            }
            LogRecord::TxnUpdate { txn, .. } | LogRecord::Clr { txn, .. } => {
                self.losers.insert(*txn, lsn);
            }
            LogRecord::ReorgBegin {
                unit,
                kind,
                base_pages,
                leaf_pages,
            } => {
                // Thread the reorg state table along the scan so that any
                // records forward recovery appends continue the unit's
                // prev-LSN chain instead of restarting it at zero.
                db.reorg_table().begin_unit(lsn);
                self.open_units.insert(
                    *unit,
                    UnitInfo {
                        unit: *unit,
                        kind: *kind,
                        base_pages: base_pages.clone(),
                        leaf_pages: leaf_pages.clone(),
                        begin: lsn,
                    },
                );
            }
            LogRecord::ReorgMove { .. }
            | LogRecord::ReorgModify { .. }
            | LogRecord::ReorgSidePtr { .. } => {
                db.reorg_table().advance(lsn);
            }
            LogRecord::ReorgEnd { unit, largest_key } => {
                self.open_units.remove(unit);
                db.reorg_table().finish_unit(*largest_key);
            }
            LogRecord::Pass3Stable { state } => {
                self.latest_stable = Some(*state);
            }
            LogRecord::Pass3Switch { .. } => {
                self.switches += 1;
                self.latest_stable = None;
            }
            LogRecord::Checkpoint { data } => {
                self.checkpoints += 1;
                db.reorg_table().restore(data.reorg);
            }
            _ => {}
        }
    }
}

/// Run full recovery over a freshly [`Database::reopen`]ed engine.
pub fn recover(db: &Arc<Database>) -> CoreResult<RecoveryReport> {
    let mut report = RecoveryReport::default();
    db.core_metrics().recovery_runs.inc();
    db.tracer()
        .emit(obr_obs::TraceKind::RecoveryBegin, 0, 0, 0, 0, 0);
    let log = Arc::clone(db.log());
    // --- Redo start: the last durable (sharp) checkpoint, which is the
    // first record replayed. Everything below it is materialized. ---
    let ckpt = log.last_checkpoint()?;
    let start = ckpt
        .as_ref()
        .map_or(Lsn(1), |(lsn, _)| *lsn)
        .max(log.first_lsn());
    let mut replay = Replay {
        applied: Lsn(start.0 - 1),
        ..Replay::default()
    };
    if let Some((_, LogRecord::Checkpoint { data })) = &ckpt {
        replay.losers.extend(data.active_txns.iter().copied());
    }
    report.redo_scanned = replay.feed(db, start, log.records_from(start)?)?;
    report.redo_applied = replay.redone;
    // --- Undo losers (logical, with CLRs). ---
    let mut loser_list: Vec<(TxnId, Lsn)> = replay.losers.into_iter().collect();
    loser_list.sort();
    for (txn, last) in loser_list {
        report.clrs_written += roll_back(db, txn, last)?;
        report.losers_undone += 1;
    }
    // --- Forward recovery (§5.1). ---
    let mut units: Vec<UnitInfo> = replay.open_units.into_values().collect();
    units.sort_by_key(|u| u.unit);
    for info in units {
        complete_unit(db, &info, &mut report)?;
    }
    // --- Pass-3 restart state (§7.3). ---
    if replay.switches == 0 {
        if let Some(state) = replay.latest_stable {
            rebuild_side_file(db, &state, &mut report)?;
            // Keep capturing base-mapping changes between recovery and the
            // resume call, exactly as a running pass 3 would.
            db.set_current(state.stable_key);
            db.tree()
                .set_observer(Arc::new(Pass3Observer::new(Arc::clone(db))));
            report.pass3_resume = Some(state);
        }
    }
    // --- Free-space map rebuild from reachability. ---
    let mut reachable: HashSet<PageId> = db.tree().reachable_pages()?.into_iter().collect();
    if let Some(state) = report.pass3_resume.filter(|s| s.new_root.is_valid()) {
        // The partial new tree shares its leaves with the old one.
        reachable.extend(upper_levels(db, state.new_root)?.0);
    }
    let fsm = db.fsm();
    for p in (0..fsm.num_pages())
        .map(PageId)
        .filter(|p| !reachable.contains(p))
    {
        fsm.free(p);
        report.pages_reclaimed += 1;
    }
    let cm = db.core_metrics();
    cm.recovery_redo_applied.add(report.redo_applied as u64);
    cm.recovery_losers_undone.add(report.losers_undone as u64);
    cm.recovery_clrs_written.add(report.clrs_written as u64);
    cm.recovery_forward_units
        .add(report.forward_units_completed as u64);
    db.tracer().emit(
        obr_obs::TraceKind::RecoveryEnd,
        0,
        0,
        0,
        report.redo_applied as u64,
        report.forward_units_completed as u64,
    );
    Ok(report)
}

/// Rebuild the side file for a pass-3 resume (§7.3) by *reconciliation*:
/// diff the base tree's level-1 `(low key -> leaf)` mappings below the
/// stable frontier against the partially built new tree's, and append one
/// side entry per difference.
///
/// Replaying the logged side-file records instead would be wrong twice
/// over. A crash can cut the log between an SMO record and the side entry
/// the pass-3 observer appended just after it, so the durable mapping
/// change has no durable side entry (and the converse ordering merely
/// flips the failure: a durable side entry for a mapping change that never
/// happened). And undoing a loser during recovery itself changes base
/// mappings — e.g. re-inserting a key whose leaf was freed-at-empty —
/// after every logged entry was written. The recovered trees are the
/// ground truth; their difference is exactly the catch-up that remains.
fn rebuild_side_file(
    db: &Arc<Database>,
    state: &Pass3State,
    report: &mut RecoveryReport,
) -> CoreResult<()> {
    if skip_side_restore() {
        return Ok(());
    }
    // Entries at or past the frontier live on base pages the resumed read
    // loop will re-read; only the already-read span needs catch-up. (With
    // `STABLE_ALL_READ` the frontier covers every key.)
    let frontier = state.stable_key;
    let (root, _) = db.tree().anchor()?;
    let base = upper_levels(db, root)?.1;
    let new = if state.new_root.is_valid() {
        upper_levels(db, state.new_root)?.1
    } else {
        BTreeMap::new()
    };
    let mut append = |key, op| {
        db.side_file().append(TxnId::SYSTEM, SideEntry { key, op });
        report.side_entries_restored += 1;
    };
    for (&k, &c) in base.range(..frontier) {
        if new.get(&k) != Some(&c) {
            append(k, SideOp::Upsert(c));
        }
    }
    for &k in new.range(..frontier).map(|(k, _)| k) {
        if !base.contains_key(&k) {
            append(k, SideOp::Remove);
        }
    }
    Ok(())
}

/// The internal pages reachable from `root`, in depth-first order, and
/// the `(low key -> leaf)` entries of the level-1 ones among them.
pub(crate) fn upper_levels(
    db: &Database,
    root: PageId,
) -> CoreResult<(Vec<PageId>, BTreeMap<u64, PageId>)> {
    let (mut pages, mut entries) = (Vec::new(), BTreeMap::new());
    let mut stack = vec![root];
    while let Some(p) = stack.pop() {
        let g = db.pool().fetch(p)?;
        let page = g.read();
        if page.page_type() != Some(PageType::Internal) || pages.contains(&p) {
            continue;
        }
        pages.push(p);
        if page.level() == 1 {
            entries.extend(NodeView::of(&page).entries());
        } else {
            stack.extend(NodeView::of(&page).children());
        }
    }
    Ok((pages, entries))
}

/// Redo one log record: apply it, through the one [`apply`] of its
/// kind, to each page it names whose LSN is behind the record, and stamp
/// those pages with its LSN. Returns true when a page changed. Its one
/// caller is [`Replay::feed`], the loop restart recovery and a replica
/// share.
// protocol: no-wal redo replays mutations from already-durable log records; re-appending them would double-log
fn redo_one(db: &Arc<Database>, lsn: Lsn, rec: &LogRecord) -> CoreResult<bool> {
    let meta = db.tree().meta_id();
    // Most records name one page: redo it without collecting guards. A
    // side-file record names none that redo changes (see `Replay::analyse`).
    let (mut single, mut n) = (None, 0);
    for id in roles(rec, meta).filter(|&p| p != SIDE_FILE_PAGE) {
        (single, n) = (Some(id), n + 1);
    }
    if n == 0 {
        return Ok(false);
    }
    if let (1, Some(id)) = (n, single) {
        let g = db.pool().fetch(id)?;
        let behind = g.read().lsn() < lsn;
        if behind {
            let mut page = g.write();
            apply(rec, &mut [Some(&mut *page)])?;
            page.set_lsn(lsn);
        }
        return Ok(behind);
    }
    let guards = roles(rec, meta)
        .map(|p| db.pool().fetch(p))
        .collect::<Result<Vec<_>, _>>()?;
    // Write-latch (and so dirty) only the pages that are behind.
    let mut behind: Vec<_> = guards
        .iter()
        .map(|g| {
            let behind = g.read().lsn() < lsn;
            behind.then(|| g.write())
        })
        .collect();
    apply(rec, &mut behind)?;
    for page in behind.iter_mut().flatten() {
        page.set_lsn(lsn);
    }
    Ok(behind.iter().any(Option::is_some))
}

/// Roll back `txn` by walking its prev-LSN chain from `last` down to zero,
/// which is what its first update record carries, writing one CLR per
/// change undone; then log its abort. Returns the number of CLRs written.
/// Shared by a transaction that aborts and by restart recovery's loser
/// undo.
pub fn roll_back(db: &Database, txn: TxnId, last: Lsn) -> CoreResult<usize> {
    let tree = db.tree();
    let mut clrs = 0;
    let mut cur = last;
    while cur != Lsn::ZERO {
        let Some(rec) = db.log().read(cur)? else {
            break;
        };
        cur = match rec {
            LogRecord::TxnInsert {
                txn: t,
                page,
                key,
                prev_lsn,
                ..
            } if t == txn => {
                if page != SIDE_FILE_PAGE {
                    tree.undo_insert(txn, key, prev_lsn)?;
                    clrs += 1;
                }
                prev_lsn
            }
            LogRecord::TxnDelete {
                txn: t,
                page,
                key,
                old_value,
                prev_lsn,
            } if t == txn => {
                if page != SIDE_FILE_PAGE {
                    tree.undo_delete(txn, key, &old_value, prev_lsn)?;
                    clrs += 1;
                }
                prev_lsn
            }
            LogRecord::TxnUpdate {
                txn: t,
                key,
                old_value,
                prev_lsn,
                ..
            } if t == txn => {
                tree.undo_update(txn, key, &old_value, prev_lsn)?;
                clrs += 1;
                prev_lsn
            }
            LogRecord::Clr {
                txn: t, undo_next, ..
            } if t == txn => undo_next,
            // An old log's begin record, or anything that is not this
            // transaction's: the chain ends here.
            _ => break,
        };
    }
    db.log().append(&LogRecord::TxnAbort { txn });
    Ok(clrs)
}

/// Forward-complete one interrupted reorganization unit (§5.1): move what
/// the sources still hold into the destination, MODIFY the base, repair
/// the side-pointer chain, and END the unit. Each step logs its record and
/// applies it exactly as the live unit does, so the unit ends in the pages
/// it would have left had it not crashed.
fn complete_unit(
    db: &Arc<Database>,
    info: &UnitInfo,
    report: &mut RecoveryReport,
) -> CoreResult<()> {
    let tree = db.tree();
    let pool = db.pool();
    let dest = if info.kind == ReorgKind::Move {
        *info.leaf_pages.last().expect("move unit lists dest")
    } else {
        info.leaf_pages[0]
    };
    let sources: Vec<PageId> = info
        .leaf_pages
        .iter()
        .copied()
        .filter(|&p| p != dest)
        .collect();
    let smo = tree.smo_guard();
    // A Move unit whose dest holds none of its records logged no MOVE: the
    // first forward MOVE formats dest, under the low mark the live unit
    // gives it, the base's entry key for the first source.
    let dest_lsn = pool.fetch(dest)?.read().lsn();
    let mut fresh_dest = None;
    if info.kind == ReorgKind::Move && dest_lsn < info.begin {
        let bg = pool.fetch(info.base_pages[0])?;
        let entry_key = NodeView::of(&bg.read()).low_key_of(info.leaf_pages[0]);
        fresh_dest = Some(entry_key.unwrap_or(0));
    } else {
        // Count work already durable: records that reached dest.
        let dg = pool.fetch(dest)?;
        report.records_preserved += LeafView::of(&dg.read()).count() as u64;
    }
    // Finish outstanding moves.
    for org in sources.iter().copied() {
        let og = pool.fetch(org)?;
        let records = {
            let opage = og.read();
            if opage.page_type() != Some(PageType::Leaf) {
                continue;
            }
            LeafView::of(&opage).records()
        };
        if records.is_empty() && fresh_dest.is_none() {
            continue;
        }
        let dg = pool.fetch(dest)?;
        log_and_apply(db, &mut [&mut og.write(), &mut dg.write()], |prev_lsn| {
            LogRecord::ReorgMove {
                unit: info.unit,
                org,
                dest,
                payload: MovePayload::Records(records),
                fresh_dest: fresh_dest.take(),
                prev_lsn,
            }
        })?;
    }
    // Only pass 1 advances LK (§5). A pass-2 unit moves one leaf, so its
    // BEGIN lists one source and the target; pass 1 moves at least two.
    let largest_key = if info.kind == ReorgKind::Move && info.leaf_pages.len() == 2 {
        db.reorg_table().lk().unwrap_or(0)
    } else {
        last_key_of(db, dest)?
    };
    // Finish the MODIFY on each base page. One whose entries name no source
    // has it durable already, or is not the unit's base.
    for &base in &info.base_pages {
        let bg = pool.fetch(base)?;
        let mut bpage = bg.write();
        if bpage.page_type() == Some(PageType::Internal) {
            modify_base(db, info.unit, base, &mut bpage, &sources, dest)?;
        }
    }
    drop(smo);
    // Side-pointer chain repair: recompute the whole chain (recovery-time
    // only; simple and always correct).
    repair_side_chain(db, info.unit)?;
    db.log().append(&LogRecord::ReorgEnd {
        unit: info.unit,
        largest_key,
    });
    db.reorg_table().finish_unit(largest_key);
    report.forward_units_completed += 1;
    Ok(())
}

/// Rebuild the leaf side-pointer chain from the in-order walk, logging a
/// SIDEPTR record for every page whose links change.
fn repair_side_chain(db: &Arc<Database>, unit: UnitId) -> CoreResult<()> {
    let leaves = db.tree().leaves_in_key_order()?;
    for (i, &leaf) in leaves.iter().enumerate() {
        let want_left = if i == 0 {
            PageId::INVALID
        } else {
            leaves[i - 1]
        };
        let want_right = leaves.get(i + 1).copied().unwrap_or(PageId::INVALID);
        set_siblings(db, unit, leaf, |_, _| (want_left, want_right))?;
    }
    Ok(())
}
