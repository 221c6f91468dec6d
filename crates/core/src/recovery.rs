//! Crash recovery: ARIES-style redo and transaction undo, plus the paper's
//! **Forward Recovery** (§5.1) and pass-3 resumption (§7.3).
//!
//! Redo starts at the last (sharp) checkpoint and replays every logged
//! action whose page LSN shows it never reached disk. Loser transactions
//! are rolled back logically with compensation records.
//!
//! A transaction is in the log from its first update record to its commit
//! or abort record, and nowhere else: there is no begin record, and one
//! that only read never appears. Loser analysis follows from that. The
//! candidates are the checkpoint's active list — transactions that had
//! logged an update and not ended when it was taken, each with its most
//! recent LSN — plus every transaction whose update or CLR the redo scan
//! meets; a commit or abort record takes its transaction out again, and one
//! naming an id the scan never saw (a reader that committed through the raw
//! log API) takes out nothing. What is left is undone by walking each
//! loser's `prev_lsn` chain from its newest record until the chain reaches
//! zero at its first one. Logs written before this rule hold `TxnBegin`
//! records; the scan still reads them, as a transaction with nothing to
//! undo yet.
//!
//! An interrupted
//! reorganization unit, however, is *not* rolled back: its BEGIN record
//! names the pages involved, the already-logged MOVEs are redone, and the
//! remaining moves / base-page MODIFY / side-pointer repairs are performed
//! forward before a fresh END record closes the unit — "the reorganization
//! unit will be able to finish the work instead of rolling back and wasting
//! the work that has already been done."
//!
//! If pass 3 was in flight, the newest `Pass3Stable` record (after any
//! switch) yields the restart state. The side file is rebuilt by
//! *reconciliation* rather than log replay: the base tree's level-1
//! mappings below the stable frontier are diffed against the partially
//! built new tree's, and one entry is appended per difference — exactly
//! the catch-up work that remains (§7.3). The free-space map rebuild then
//! reclaims new-tree pages allocated after the last force-write.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use obr_btree::{LeafRef, LeafView, NodeRef, NodeView};
use obr_storage::{Lsn, PageId, PageType};
use obr_wal::{LogRecord, MovePayload, Pass3State, ReorgKind, TxnId, UnitId};

use crate::db::Database;
use crate::error::{CoreError, CoreResult};
use crate::pass3::Pass3Observer;
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
    swap_logged: bool,
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
            // Old logs only: a begun transaction with nothing to undo yet.
            LogRecord::TxnBegin { txn } => {
                self.losers.insert(*txn, Lsn::ZERO);
            }
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
                        swap_logged: false,
                    },
                );
            }
            LogRecord::ReorgMove { .. }
            | LogRecord::ReorgModify { .. }
            | LogRecord::ReorgSidePtr { .. } => {
                db.reorg_table().advance(lsn);
            }
            LogRecord::ReorgSwap { unit, .. } => {
                db.reorg_table().advance(lsn);
                if let Some(u) = self.open_units.get_mut(unit) {
                    u.swap_logged = true;
                }
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
        undo_txn(db, txn, last, &mut report)?;
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
    if let Some(state) = &report.pass3_resume {
        if state.new_root.is_valid() {
            collect_new_tree_pages(db, state.new_root, &mut reachable)?;
        }
    }
    let fsm = db.fsm();
    let total = fsm.num_pages();
    for i in 0..total {
        let p = PageId(i);
        if !reachable.contains(&p) {
            fsm.free(p);
            report.pages_reclaimed += 1;
        }
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
    let base = level1_entries(db, root)?;
    let new = if state.new_root.is_valid() {
        level1_entries(db, state.new_root)?
    } else {
        std::collections::BTreeMap::new()
    };
    for (k, c) in base.range(..frontier) {
        if new.get(k) != Some(c) {
            db.side_file().append(
                TxnId::SYSTEM,
                SideEntry {
                    key: *k,
                    op: SideOp::Upsert(*c),
                },
            );
            report.side_entries_restored += 1;
        }
    }
    for k in new.range(..frontier).map(|(k, _)| *k) {
        if !base.contains_key(&k) {
            db.side_file().append(
                TxnId::SYSTEM,
                SideEntry {
                    key: k,
                    op: SideOp::Remove,
                },
            );
            report.side_entries_restored += 1;
        }
    }
    Ok(())
}

/// Collect the `(low key -> leaf)` entries of every level-1 internal page
/// reachable from `root`.
fn level1_entries(
    db: &Arc<Database>,
    root: PageId,
) -> CoreResult<std::collections::BTreeMap<u64, PageId>> {
    let mut out = std::collections::BTreeMap::new();
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(p) = stack.pop() {
        if !seen.insert(p) {
            continue;
        }
        let g = db.pool().fetch(p)?;
        let page = g.read();
        if page.page_type() != Some(PageType::Internal) {
            continue;
        }
        if page.level() == 1 {
            for (k, c) in NodeRef::new(&page).entries() {
                out.insert(k, c);
            }
        } else {
            stack.extend(NodeRef::new(&page).children());
        }
    }
    Ok(out)
}

fn collect_new_tree_pages(
    db: &Arc<Database>,
    root: PageId,
    out: &mut HashSet<PageId>,
) -> CoreResult<()> {
    // The partial new tree shares its leaves with the old tree; collect the
    // internal pages reachable from its (stable) root.
    let mut stack = vec![root];
    while let Some(p) = stack.pop() {
        if !out.insert(p) {
            continue;
        }
        let g = db.pool().fetch(p)?;
        let page = g.read();
        if page.page_type() != Some(PageType::Internal) || page.level() <= 1 {
            continue;
        }
        stack.extend(NodeRef::new(&page).children());
    }
    Ok(())
}

/// Apply one log record's redo action. Returns true when something changed.
///
/// Page-LSN gated, so replaying a record twice is harmless. Its one caller
/// is [`Replay::feed`], the loop restart recovery and a replica share.
// protocol: no-wal redo replays mutations from already-durable log records; re-appending them would double-log
fn redo_one(db: &Arc<Database>, lsn: Lsn, rec: &LogRecord) -> CoreResult<bool> {
    let pool = db.pool();
    let behind = |p: PageId| -> CoreResult<bool> {
        let g = pool.fetch(p)?;
        let page = g.read();
        Ok(page.lsn() < lsn)
    };
    match rec {
        LogRecord::TxnInsert {
            page, key, value, ..
        } if *page != SIDE_FILE_PAGE && behind(*page)? => {
            let g = pool.fetch(*page)?;
            let mut pg = g.write();
            if pg.page_type() == Some(PageType::Leaf) {
                LeafView::new(&mut pg).upsert(*key, value)?;
            }
            pg.set_lsn(lsn);
            return Ok(true);
        }
        LogRecord::TxnDelete { page, key, .. } if *page != SIDE_FILE_PAGE && behind(*page)? => {
            let g = pool.fetch(*page)?;
            let mut pg = g.write();
            if pg.page_type() == Some(PageType::Leaf) {
                LeafView::new(&mut pg).remove(*key);
            }
            pg.set_lsn(lsn);
            return Ok(true);
        }
        LogRecord::TxnUpdate {
            page,
            key,
            new_value,
            ..
        } if behind(*page)? => {
            let g = pool.fetch(*page)?;
            let mut pg = g.write();
            if pg.page_type() == Some(PageType::Leaf) {
                LeafView::new(&mut pg).upsert(*key, new_value)?;
            }
            pg.set_lsn(lsn);
            return Ok(true);
        }
        LogRecord::Clr {
            page,
            reinsert,
            key,
            value,
            ..
        } if behind(*page)? => {
            let g = pool.fetch(*page)?;
            let mut pg = g.write();
            if pg.page_type() == Some(PageType::Leaf) {
                if *reinsert {
                    LeafView::new(&mut pg).upsert(*key, value)?;
                } else {
                    LeafView::new(&mut pg).remove(*key);
                }
            }
            pg.set_lsn(lsn);
            return Ok(true);
        }
        LogRecord::Smo { images, new_anchor } => {
            let mut any = false;
            for (p, image) in images {
                if behind(*p)? {
                    let g = pool.fetch(*p)?;
                    let mut pg = g.write();
                    pg.bytes_mut().copy_from_slice(&image[..]);
                    pg.set_lsn(lsn);
                    any = true;
                }
            }
            if let Some((root, height)) = new_anchor {
                if behind(db.tree().meta_id())? {
                    db.tree().set_anchor(*root, *height, lsn)?;
                    any = true;
                }
            }
            return Ok(any);
        }
        LogRecord::ReorgMove {
            org, dest, payload, ..
        } => {
            return redo_move(db, lsn, *org, *dest, payload);
        }
        LogRecord::ReorgSwap {
            page_a,
            page_b,
            image_a_old,
            ..
        } => {
            return redo_swap(db, lsn, *page_a, *page_b, image_a_old);
        }
        LogRecord::ReorgModify {
            base_page,
            old_entries,
            new_entries,
            ..
        } if behind(*base_page)? => {
            let g = pool.fetch(*base_page)?;
            let mut pg = g.write();
            if pg.page_type() == Some(PageType::Internal) {
                let mut node = NodeView::new(&mut pg);
                for (k, _) in old_entries {
                    node.remove_entry(*k);
                }
                for (k, c) in new_entries {
                    if node.set_child(*k, *c).is_err() {
                        node.insert_entry(*k, *c)?;
                    }
                }
            }
            pg.set_lsn(lsn);
            return Ok(true);
        }
        LogRecord::ReorgSidePtr {
            page,
            new_left,
            new_right,
            ..
        } if behind(*page)? => {
            let g = pool.fetch(*page)?;
            let mut pg = g.write();
            pg.set_left_sibling(*new_left);
            pg.set_right_sibling(*new_right);
            pg.set_lsn(lsn);
            return Ok(true);
        }
        LogRecord::Pass3Switch {
            new_root,
            new_height,
            ..
        } => {
            let meta = db.tree().meta_id();
            if behind(meta)? {
                let old_gen = db.tree().generation()?;
                db.tree().set_anchor(*new_root, *new_height, lsn)?;
                db.tree().set_generation(old_gen + 1)?;
                db.tree().set_reorg_bit(false)?;
                return Ok(true);
            }
        }
        _ => {}
    }
    Ok(false)
}

/// Redo a MOVE: capture values (from the log or, under careful writing,
/// from the still-intact source page), install them in the destination,
/// then remove them from the source.
fn redo_move(
    db: &Arc<Database>,
    lsn: Lsn,
    org: PageId,
    dest: PageId,
    payload: &MovePayload,
) -> CoreResult<bool> {
    let pool = db.pool();
    let (need_org, need_dest) = {
        let og = pool.fetch(org)?;
        let dg = pool.fetch(dest)?;
        let o = og.read();
        let d = dg.read();
        (o.lsn() < lsn, d.lsn() < lsn)
    };
    if !need_org && !need_dest {
        return Ok(false);
    }
    let records: Vec<(u64, Vec<u8>)> = if need_dest {
        match payload {
            MovePayload::Records(rs) => rs.clone(),
            MovePayload::Keys(ks) => {
                // Careful writing guarantees org still holds the bodies.
                if !need_org {
                    return Err(CoreError::Recovery(format!(
                        "careful-writing violation: dest {dest} not durable but org {org} already cleaned"
                    )));
                }
                let og = pool.fetch(org)?;
                let opage = og.read();
                if opage.page_type() != Some(PageType::Leaf) {
                    return Err(CoreError::Recovery(format!(
                        "careful-writing violation: org {org} overwritten before dest {dest} durable"
                    )));
                }
                let leaf = LeafRef::new(&opage);
                let mut rs = Vec::with_capacity(ks.len());
                for k in ks {
                    let v = leaf.get(*k).ok_or_else(|| {
                        CoreError::Recovery(format!(
                            "careful-writing violation: key {k} missing from org {org}"
                        ))
                    })?;
                    rs.push((*k, v));
                }
                rs
            }
        }
    } else {
        Vec::new()
    };
    if need_dest {
        let dg = pool.fetch(dest)?;
        let mut dpage = dg.write();
        if dpage.page_type() != Some(PageType::Leaf) {
            // Crash before the new-place destination was initialized.
            let mut leaf = LeafView::init(&mut dpage);
            if let Some((k, _)) = records.first() {
                leaf.page_mut().set_low_mark(*k);
            }
        }
        let mut leaf = LeafView::new(&mut dpage);
        for (k, v) in &records {
            leaf.upsert(*k, v)?;
        }
        dpage.set_lsn(lsn);
    }
    if need_org {
        let keys = payload.keys();
        let og = pool.fetch(org)?;
        let mut opage = og.write();
        if opage.page_type() == Some(PageType::Leaf) {
            let mut leaf = LeafView::new(&mut opage);
            for k in keys {
                leaf.remove(k);
            }
        }
        opage.set_lsn(lsn);
    }
    Ok(true)
}

/// Redo a swap from its one logged image (§5): `b`'s new content is the
/// logged old image of `a`; `a`'s new content is `b`'s old content, still
/// present because careful writing forbids flushing `b` before `a`.
fn redo_swap(
    db: &Arc<Database>,
    lsn: Lsn,
    a: PageId,
    b: PageId,
    image_a_old: &[u8; obr_storage::PAGE_SIZE],
) -> CoreResult<bool> {
    let pool = db.pool();
    let ag = pool.fetch(a)?;
    let bg = pool.fetch(b)?;
    let mut apage = ag.write();
    let mut bpage = bg.write();
    let need_a = apage.lsn() < lsn;
    let need_b = bpage.lsn() < lsn;
    if !need_a && !need_b {
        return Ok(false);
    }
    if need_a && !need_b {
        return Err(CoreError::Recovery(format!(
            "careful-writing violation: swap target {b} durable before {a}"
        )));
    }
    let remap = |p: PageId| {
        if p == a {
            b
        } else if p == b {
            a
        } else {
            p
        }
    };
    if need_a {
        // b still holds its pre-swap content.
        let b_old = *bpage.bytes();
        apage.bytes_mut().copy_from_slice(&b_old);
        let (l, r) = (apage.left_sibling(), apage.right_sibling());
        apage.set_left_sibling(remap(l));
        apage.set_right_sibling(remap(r));
        apage.set_lsn(lsn);
    }
    if need_b {
        bpage.bytes_mut().copy_from_slice(image_a_old);
        let (l, r) = (bpage.left_sibling(), bpage.right_sibling());
        bpage.set_left_sibling(remap(l));
        bpage.set_right_sibling(remap(r));
        bpage.set_lsn(lsn);
    }
    Ok(true)
}

/// Roll back one loser transaction by walking its prev-LSN chain from
/// `last` down to zero, which is what its first update record carries.
fn undo_txn(
    db: &Arc<Database>,
    txn: TxnId,
    last: Lsn,
    report: &mut RecoveryReport,
) -> CoreResult<()> {
    let tree = db.tree();
    let log = db.log();
    let mut cur = last;
    while cur != Lsn::ZERO {
        let Some(rec) = log.read(cur)? else { break };
        match rec {
            LogRecord::TxnInsert {
                txn: t,
                page,
                key,
                prev_lsn,
                ..
            } if t == txn => {
                if page != SIDE_FILE_PAGE {
                    tree.undo_insert(txn, key, prev_lsn)?;
                    report.clrs_written += 1;
                }
                cur = prev_lsn;
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
                    report.clrs_written += 1;
                }
                cur = prev_lsn;
            }
            LogRecord::TxnUpdate {
                txn: t,
                key,
                old_value,
                prev_lsn,
                ..
            } if t == txn => {
                tree.undo_update(txn, key, &old_value, prev_lsn)?;
                report.clrs_written += 1;
                cur = prev_lsn;
            }
            LogRecord::Clr {
                txn: t, undo_next, ..
            } if t == txn => {
                cur = undo_next;
            }
            // An old log's begin record, or anything that is not this
            // transaction's: the chain ends here.
            _ => break,
        }
    }
    log.append(&LogRecord::TxnAbort { txn });
    report.losers_undone += 1;
    Ok(())
}

/// Forward-complete one interrupted reorganization unit (§5.1).
fn complete_unit(
    db: &Arc<Database>,
    info: &UnitInfo,
    report: &mut RecoveryReport,
) -> CoreResult<()> {
    let tree = db.tree();
    let pool = db.pool();
    let mut largest_key = 0u64;
    match info.kind {
        ReorgKind::Compact | ReorgKind::Move => {
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
            let _g = tree.smo_guard();
            // Count work already durable: records that reached dest.
            {
                let dg = pool.fetch(dest)?;
                let dpage = dg.read();
                if dpage.page_type() == Some(PageType::Leaf) {
                    report.records_preserved += LeafRef::new(&dpage).count() as u64;
                }
            }
            // Finish outstanding moves.
            for org in sources.iter().copied() {
                let records = {
                    let og = pool.fetch(org)?;
                    let opage = og.read();
                    if opage.page_type() != Some(PageType::Leaf) {
                        continue;
                    }
                    LeafRef::new(&opage).records()
                };
                if records.is_empty() {
                    continue;
                }
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgMove {
                    unit: info.unit,
                    org,
                    dest,
                    payload: MovePayload::Records(records.clone()),
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                {
                    let dg = pool.fetch(dest)?;
                    let mut dpage = dg.write();
                    if dpage.page_type() != Some(PageType::Leaf) {
                        let mut leaf = LeafView::init(&mut dpage);
                        leaf.page_mut().set_low_mark(records[0].0);
                    }
                    let mut leaf = LeafView::new(&mut dpage);
                    for (k, v) in &records {
                        leaf.upsert(*k, v)?;
                    }
                    dpage.set_lsn(lsn);
                }
                {
                    let og = pool.fetch(org)?;
                    let mut opage = og.write();
                    LeafView::new(&mut opage).take_all();
                    opage.set_lsn(lsn);
                }
            }
            {
                let dg = pool.fetch(dest)?;
                let dpage = dg.read();
                if dpage.page_type() == Some(PageType::Leaf) {
                    if let Some(k) = LeafRef::new(&dpage).last_key() {
                        largest_key = k;
                    }
                }
            }
            // Finish the MODIFY on each base page.
            for &base in &info.base_pages {
                let bg = pool.fetch(base)?;
                let mut bpage = bg.write();
                if bpage.page_type() != Some(PageType::Internal) {
                    continue;
                }
                let entries = NodeRef::new(&bpage).entries();
                let stale: Vec<(u64, PageId)> = entries
                    .iter()
                    .copied()
                    .filter(|(_, c)| sources.contains(c))
                    .collect();
                let has_dest = entries.iter().any(|(_, c)| *c == dest);
                if stale.is_empty() && has_dest {
                    continue; // MODIFY already durable
                }
                let Some(entry_key) = stale.iter().map(|(k, _)| *k).min() else {
                    continue; // nothing stale and no dest: not our base
                };
                let new_entries = if has_dest {
                    Vec::new()
                } else {
                    vec![(entry_key, dest)]
                };
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgModify {
                    unit: info.unit,
                    base_page: base,
                    old_entries: stale.clone(),
                    new_entries: new_entries.clone(),
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                let mut node = NodeView::new(&mut bpage);
                for (k, _) in &stale {
                    node.remove_entry(*k);
                }
                for (k, c) in &new_entries {
                    if node.set_child(*k, *c).is_err() {
                        node.insert_entry(*k, *c)?;
                    }
                }
                bpage.set_lsn(lsn);
            }
        }
        ReorgKind::Swap => {
            let (a, b) = (info.leaf_pages[0], info.leaf_pages[1]);
            let _g = tree.smo_guard();
            if info.swap_logged {
                // Contents exchanged (redone); ensure both parents route
                // correctly by their current first keys.
                for leaf in [a, b] {
                    let key = {
                        let g = pool.fetch(leaf)?;
                        let page = g.read();
                        if page.page_type() != Some(PageType::Leaf) {
                            continue;
                        }
                        let r = LeafRef::new(&page);
                        largest_key = largest_key.max(r.last_key().unwrap_or(0));
                        match r.first_key() {
                            Some(k) => k,
                            None => continue,
                        }
                    };
                    let path = tree.path_for_locked(key)?;
                    if path.len() < 2 {
                        continue;
                    }
                    let base = path[path.len() - 2];
                    let routed = *path.last().expect("non-empty");
                    if routed != leaf {
                        let bg = pool.fetch(base)?;
                        let mut bpage = bg.write();
                        let entry = NodeRef::new(&bpage).entry_for(key);
                        if let Some((k, old_child)) = entry {
                            let prev = db.reorg_table().recent_lsn();
                            let lsn = db.log().append(&LogRecord::ReorgModify {
                                unit: info.unit,
                                base_page: base,
                                old_entries: vec![(k, old_child)],
                                new_entries: vec![(k, leaf)],
                                prev_lsn: prev,
                            });
                            db.reorg_table().advance(lsn);
                            NodeView::new(&mut bpage)
                                .set_child(k, leaf)
                                .map_err(CoreError::Storage)?;
                            bpage.set_lsn(lsn);
                        }
                    }
                }
            }
            // If the swap image was never logged, nothing moved: close the
            // unit with no effect.
        }
    }
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
    let tree = db.tree();
    if tree.side_mode() == obr_btree::SidePointerMode::None {
        return Ok(());
    }
    let two_way = tree.side_mode() == obr_btree::SidePointerMode::TwoWay;
    let leaves = tree.leaves_in_key_order()?;
    let pool = db.pool();
    for (i, &leaf) in leaves.iter().enumerate() {
        let want_right = if i + 1 == leaves.len() {
            PageId::INVALID
        } else {
            leaves[i + 1]
        };
        let g = pool.fetch(leaf)?;
        let mut page = g.write();
        if page.page_type() != Some(PageType::Leaf) {
            continue;
        }
        let old = (page.left_sibling(), page.right_sibling());
        let want_left = if !two_way {
            old.0
        } else if i == 0 {
            PageId::INVALID
        } else {
            leaves[i - 1]
        };
        if old != (want_left, want_right) {
            let prev = db.reorg_table().recent_lsn();
            let lsn = db.log().append(&LogRecord::ReorgSidePtr {
                unit,
                page: leaf,
                old_left: old.0,
                old_right: old.1,
                new_left: want_left,
                new_right: want_right,
                prev_lsn: prev,
            });
            db.reorg_table().advance(lsn);
            page.set_left_sibling(want_left);
            page.set_right_sibling(want_right);
            page.set_lsn(lsn);
        }
    }
    Ok(())
}
