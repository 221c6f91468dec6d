//! WAL linter: read-only structural replay of a log file.
//!
//! The linter parses a log without truncating or repairing it (unlike
//! [`obr_wal::LogManager`]'s open path, which trims torn tails) and checks
//! the write-ahead-logging discipline of §5:
//!
//! - **Careful writing** — under [`MovePayload::Keys`] logging, a MOVE may
//!   carry keys only; a [`MovePayload::Records`] payload is flagged unless
//!   it is the compensating reverse of an earlier MOVE in the same unit
//!   (the §5.2 undo path legitimately logs full records, because the
//!   source page has already been emptied).
//! - **Unit chaining** — every chained record (MOVE/MODIFY/SIDEPTR)
//!   must name the open unit and carry `prev_lsn` equal to the unit's most
//!   recent LSN (the BEGIN's LSN for the first). A mismatch means the log
//!   was reordered or spliced.
//! - **Completability** — at end of log, an open unit whose chain is
//!   intact is a crash-shaped tail (warning: recovery will finish it); an
//!   open unit with a broken chain can neither be completed forward nor
//!   was it finished (error).
//! - **Checkpoint ordering** — a checkpoint's reorg-table snapshot must
//!   reference LSNs of reorg records that precede the checkpoint, with
//!   `begin_lsn <= recent_lsn < checkpoint LSN`.
//! - **Transaction undo chains** — a transaction is in the log from its
//!   first update record to its commit or abort; there is no begin record,
//!   and one that wrote nothing leaves at most a bare commit/abort, which is
//!   counted, not flagged. What recovery relies on is the `prev_lsn` chain
//!   it walks to roll a loser back: every update record must point at the
//!   transaction's previous one (zero for the first), and every CLR's
//!   `undo_next` at the predecessor of the record it compensates. A chain
//!   that skips a record would leave that update in place after an abort.
//!   ([`TxnId::SYSTEM`] is exempt: system actions are never rolled back.)
//! - **Pass-3 progress** — `stable_key` never regresses within one build
//!   of the new tree (it resets at the switch).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use obr_storage::{Lsn, PageId};
use obr_wal::{
    LogManager, LogRecord, MovePayload, SegmentFault, SegmentReader, TornReason, TxnId, UnitId,
};

use crate::report::Report;

/// Name this checker stamps on findings.
const CHECKER: &str = "wal";

/// Linter configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalLintOptions {
    /// Accept full-record MOVE payloads unconditionally (the
    /// `LogStrategy::FullRecords` configuration, where careful writing is
    /// not enforced and E6 measures the logging overhead).
    pub allow_full_records: bool,
}

/// The in-flight reorganization unit while scanning.
struct OpenUnit {
    unit: UnitId,
    begin_lsn: Lsn,
    recent_lsn: Lsn,
    chain_broken: bool,
    /// `(org, dest)` of forward MOVEs seen so far, for undo detection.
    moves: Vec<(PageId, PageId)>,
    /// Chained work records (MOVE/MODIFY/SIDEPTR) attributed to the
    /// unit, for empty-unit detection at END.
    work: u64,
}

/// A user transaction with update records and no commit/abort yet.
#[derive(Default)]
struct OpenTxn {
    /// `(lsn, prev_lsn)` of its update records not yet compensated, oldest
    /// first: the undo chain as recovery would walk it, back to front.
    updates: Vec<(Lsn, Lsn)>,
    /// A CLR was seen: the transaction is rolling back and may not update.
    rolling_back: bool,
}

/// Scan state for [`lint_records`].
struct Linter<'a> {
    opts: &'a WalLintOptions,
    report: Report,
    open: Option<OpenUnit>,
    /// LSNs at which reorg-unit records (BEGIN/chained/END) were seen.
    reorg_lsns: BTreeSet<Lsn>,
    /// First LSN of the scanned log: a `prev_lsn` below it points into a
    /// truncated prefix and cannot be checked.
    first_lsn: Lsn,
    /// User transactions with update records and no end record yet.
    txns: BTreeMap<TxnId, OpenTxn>,
    /// Commit/abort records of transactions with no update record in view
    /// (read-only commits written through the raw log API, or the tail of
    /// a transaction whose updates were truncated away).
    bare_ends: u64,
    finished_units: u64,
    checkpoints: u64,
    stable_key: Option<u64>,
    records: u64,
}

impl<'a> Linter<'a> {
    fn new(opts: &'a WalLintOptions, first_lsn: Lsn) -> Linter<'a> {
        Linter {
            opts,
            report: Report::new(),
            open: None,
            reorg_lsns: BTreeSet::new(),
            first_lsn,
            txns: BTreeMap::new(),
            bare_ends: 0,
            finished_units: 0,
            checkpoints: 0,
            stable_key: None,
            records: 0,
        }
    }

    /// Check a chained record's `unit`/`prev_lsn` against the open unit and
    /// advance the chain. Returns `false` when the record is orphaned.
    fn chain(&mut self, lsn: Lsn, unit: UnitId, prev_lsn: Lsn, what: &str) -> bool {
        let Some(open) = self.open.as_mut() else {
            self.report.error(
                CHECKER,
                "orphan-unit-record",
                None,
                Some(lsn),
                format!(
                    "{what} for unit {} with no open unit (missing BEGIN)",
                    unit.0
                ),
            );
            return false;
        };
        if open.unit != unit {
            self.report.error(
                CHECKER,
                "unit-mismatch",
                None,
                Some(lsn),
                format!(
                    "{what} names unit {} but unit {} is open",
                    unit.0, open.unit.0
                ),
            );
            open.chain_broken = true;
            return false;
        }
        if prev_lsn != open.recent_lsn {
            self.report.error(
                CHECKER,
                "broken-prev-chain",
                None,
                Some(lsn),
                format!(
                    "{what} has prev_lsn={} but the unit's most recent LSN is {} \
                     (reordered or spliced log?)",
                    prev_lsn, open.recent_lsn
                ),
            );
            open.chain_broken = true;
        }
        open.recent_lsn = lsn;
        open.work += 1;
        true
    }

    fn record(&mut self, lsn: Lsn, rec: &LogRecord) {
        self.records += 1;
        match rec {
            LogRecord::ReorgBegin { unit, .. } => {
                self.reorg_lsns.insert(lsn);
                if let Some(open) = &self.open {
                    self.report.error(
                        CHECKER,
                        "overlapping-units",
                        None,
                        Some(lsn),
                        format!(
                            "unit {} begins while unit {} (begun at LSN {}) is \
                             still open — units are serial by construction",
                            unit.0, open.unit.0, open.begin_lsn
                        ),
                    );
                }
                self.open = Some(OpenUnit {
                    unit: *unit,
                    begin_lsn: lsn,
                    recent_lsn: lsn,
                    chain_broken: false,
                    moves: Vec::new(),
                    work: 0,
                });
            }
            LogRecord::ReorgMove {
                unit,
                org,
                dest,
                payload,
                prev_lsn,
                ..
            } => {
                self.reorg_lsns.insert(lsn);
                let in_unit = self.chain(lsn, *unit, *prev_lsn, "MOVE");
                if let MovePayload::Records(_) = payload {
                    // A full-record payload is only legal as the §5.2
                    // compensating move, which reverses an earlier
                    // (org, dest) pair of the same unit.
                    let is_undo = in_unit
                        && self
                            .open
                            .as_ref()
                            .is_some_and(|o| o.moves.contains(&(*dest, *org)));
                    if !is_undo && !self.opts.allow_full_records {
                        self.report.error(
                            CHECKER,
                            "careful-writing-violation",
                            Some(*org),
                            Some(lsn),
                            format!(
                                "MOVE {org} -> {dest} logs full records; under \
                                 careful writing a forward MOVE carries keys only"
                            ),
                        );
                    }
                }
                if in_unit {
                    if let Some(open) = self.open.as_mut() {
                        open.moves.push((*org, *dest));
                    }
                }
            }
            LogRecord::ReorgModify { unit, prev_lsn, .. } => {
                self.reorg_lsns.insert(lsn);
                self.chain(lsn, *unit, *prev_lsn, "MODIFY");
            }
            LogRecord::ReorgSidePtr { unit, prev_lsn, .. } => {
                self.reorg_lsns.insert(lsn);
                self.chain(lsn, *unit, *prev_lsn, "SIDEPTR");
            }
            LogRecord::ReorgEnd { unit, .. } => {
                self.reorg_lsns.insert(lsn);
                match self.open.take() {
                    None => self.report.error(
                        CHECKER,
                        "orphan-end",
                        None,
                        Some(lsn),
                        format!("END for unit {} with no open unit", unit.0),
                    ),
                    Some(open) if open.unit != *unit => {
                        self.report.error(
                            CHECKER,
                            "unit-mismatch",
                            None,
                            Some(lsn),
                            format!("END names unit {} but unit {} is open", unit.0, open.unit.0),
                        );
                    }
                    Some(open) => {
                        if open.work == 0 {
                            // Recovery legitimately closes a unit that had
                            // logged no work after a crash right past BEGIN,
                            // so an empty unit is suspicious but not fatal.
                            self.report.warning(
                                CHECKER,
                                "empty-unit",
                                None,
                                Some(lsn),
                                format!(
                                    "unit {} (begun at LSN {}) ends with no \
                                     MOVE/MODIFY/SIDEPTR records",
                                    open.unit.0, open.begin_lsn
                                ),
                            );
                        }
                        self.finished_units += 1;
                    }
                }
            }
            LogRecord::Checkpoint { data } => {
                self.checkpoints += 1;
                let snap = &data.reorg;
                if let Some(recent) = snap.recent_lsn {
                    if recent >= lsn {
                        self.report.error(
                            CHECKER,
                            "checkpoint-order",
                            None,
                            Some(lsn),
                            format!(
                                "checkpoint snapshot references recent_lsn={recent} \
                                 at or after the checkpoint itself"
                            ),
                        );
                    } else if !self.reorg_lsns.contains(&recent) {
                        self.report.error(
                            CHECKER,
                            "checkpoint-dangling-lsn",
                            None,
                            Some(lsn),
                            format!(
                                "checkpoint snapshot references recent_lsn={recent}, \
                                 which is not the LSN of any reorg record seen so far"
                            ),
                        );
                    }
                }
                if let Some(begin) = snap.begin_lsn {
                    if begin >= lsn || !self.reorg_lsns.contains(&begin) {
                        self.report.error(
                            CHECKER,
                            "checkpoint-dangling-lsn",
                            None,
                            Some(lsn),
                            format!(
                                "checkpoint snapshot references begin_lsn={begin}, \
                                 which is not a preceding reorg-record LSN"
                            ),
                        );
                    }
                    if let Some(recent) = snap.recent_lsn {
                        if begin > recent {
                            self.report.error(
                                CHECKER,
                                "checkpoint-order",
                                None,
                                Some(lsn),
                                format!(
                                    "checkpoint snapshot has begin_lsn={begin} > \
                                     recent_lsn={recent}"
                                ),
                            );
                        }
                    }
                }
            }
            LogRecord::Pass3Stable { state } => {
                if let Some(prev) = self.stable_key {
                    if state.stable_key < prev {
                        self.report.error(
                            CHECKER,
                            "stable-key-regression",
                            None,
                            Some(lsn),
                            format!(
                                "Pass-3 stable key regressed from {prev} to {}",
                                state.stable_key
                            ),
                        );
                    }
                }
                self.stable_key = Some(state.stable_key);
            }
            LogRecord::Pass3Switch { .. } => {
                // A switch completes the build; a later Pass 3 starts over.
                self.stable_key = None;
            }
            LogRecord::TxnCommit { txn } | LogRecord::TxnAbort { txn } => {
                if *txn != TxnId::SYSTEM && self.txns.remove(txn).is_none() {
                    self.bare_ends += 1;
                }
            }
            LogRecord::TxnInsert { txn, prev_lsn, .. }
            | LogRecord::TxnDelete { txn, prev_lsn, .. }
            | LogRecord::TxnUpdate { txn, prev_lsn, .. } => {
                self.txn_update(lsn, *txn, *prev_lsn);
            }
            LogRecord::Clr { txn, undo_next, .. } => self.txn_clr(lsn, *txn, *undo_next),
            LogRecord::Smo { .. } => {}
        }
    }

    /// An update record extends its transaction's undo chain: `prev_lsn`
    /// must be the transaction's previous update (zero for the first).
    fn txn_update(&mut self, lsn: Lsn, txn: TxnId, prev_lsn: Lsn) {
        if txn == TxnId::SYSTEM {
            return;
        }
        let first_lsn = self.first_lsn;
        let t = self.txns.entry(txn).or_default();
        let expected = match t.updates.last() {
            Some((head, _)) => *head,
            // First record in view: the chain starts here, or continues
            // from a record the truncated prefix held.
            None if prev_lsn < first_lsn => prev_lsn,
            None => Lsn::ZERO,
        };
        if prev_lsn != expected || t.rolling_back {
            let why = if t.rolling_back {
                "follows the transaction's own rollback".to_string()
            } else {
                format!(
                    "has prev_lsn={prev_lsn} but the transaction's previous update is at LSN {expected}"
                )
            };
            self.report.error(
                CHECKER,
                "txn-broken-undo-chain",
                None,
                Some(lsn),
                format!(
                    "update record of transaction {} {why}: a rollback walking \
                     the chain would skip earlier updates",
                    txn.0
                ),
            );
        }
        t.updates.push((lsn, prev_lsn));
    }

    /// A CLR compensates the newest update not yet compensated and must
    /// hand the rollback on to that update's predecessor.
    fn txn_clr(&mut self, lsn: Lsn, txn: TxnId, undo_next: Lsn) {
        // No update of this transaction in view: the rollback that follows
        // a commit whose force failed, or a truncated prefix.
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        t.rolling_back = true;
        let complaint = match t.updates.pop() {
            Some((_, prev)) if prev == undo_next => return,
            Some((target, prev)) => {
                format!("compensates the update at LSN {target}, whose predecessor is {prev}")
            }
            // The rollback reached records the truncated prefix held.
            None if self.first_lsn > Lsn(1) => return,
            None => "has no update left to compensate".to_string(),
        };
        self.report.error(
            CHECKER,
            "txn-broken-undo-chain",
            None,
            Some(lsn),
            format!(
                "CLR of transaction {} has undo_next={undo_next} but {complaint}",
                txn.0
            ),
        );
    }

    fn finish(mut self, last_lsn: Option<Lsn>) -> Report {
        if let Some(open) = self.open.take() {
            if open.chain_broken {
                self.report.error(
                    CHECKER,
                    "unit-uncompletable",
                    None,
                    Some(open.begin_lsn),
                    format!(
                        "unit {} (begun at LSN {}) was never finished and its \
                         chain is broken: it can neither be completed forward \
                         nor rolled back from the log",
                        open.unit.0, open.begin_lsn
                    ),
                );
            } else {
                self.report.warning(
                    CHECKER,
                    "unit-open-at-eof",
                    None,
                    Some(open.recent_lsn),
                    format!(
                        "unit {} (begun at LSN {}) is open at end of log — \
                         crash-shaped tail; recovery will undo it",
                        open.unit.0, open.begin_lsn
                    ),
                );
            }
        }
        self.report.note(format!(
            "scanned {} records (last LSN {}), {} finished reorg units, {} checkpoints, \
             {} transactions open at end of log, {} bare commit/abort records",
            self.records,
            last_lsn.map_or_else(|| "-".into(), |l| l.to_string()),
            self.finished_units,
            self.checkpoints,
            self.txns.len(),
            self.bare_ends,
        ));
        self.report
    }
}

/// Lint an already-decoded record sequence.
pub fn lint_records(records: &[(Lsn, LogRecord)], opts: &WalLintOptions) -> Report {
    let first = records.first().map_or(Lsn(1), |(lsn, _)| *lsn);
    let mut linter = Linter::new(opts, first);
    let mut last: Option<Lsn> = None;
    for (lsn, rec) in records {
        if let Some(prev) = last {
            if *lsn <= prev {
                linter.report.error(
                    CHECKER,
                    "lsn-not-monotonic",
                    None,
                    Some(*lsn),
                    format!("LSN {lsn} follows LSN {prev}"),
                );
            }
        }
        last = Some(*lsn);
        linter.record(*lsn, rec);
    }
    linter.finish(last)
}

/// Lint a live [`LogManager`]'s full record history.
pub fn lint_log(log: &LogManager, opts: &WalLintOptions) -> Report {
    match log.records_from(Lsn(1)) {
        Ok(records) => lint_records(&records, opts),
        Err(e) => {
            let mut report = Report::new();
            report.error(
                CHECKER,
                "log-unreadable",
                None,
                None,
                format!("cannot read log records: {e}"),
            );
            report
        }
    }
}

/// The finding code and LSN a segment fault is reported under.
fn finding(fault: &SegmentFault) -> (&'static str, Lsn) {
    match *fault {
        SegmentFault::Gap { expected, .. } => ("segment-gap", expected),
        SegmentFault::EmptySealed(first) => ("empty-sealed-segment", first),
        SegmentFault::Torn {
            sealed,
            last_intact,
            tail,
        } => match (sealed, tail.reason) {
            (true, _) => ("torn-sealed-segment", last_intact),
            (false, TornReason::Undecodable) => ("undecodable-frame", last_intact),
            (false, _) => ("torn-frame", last_intact),
        },
    }
}

/// Lint segment files in LSN order, all sealed but the last: each fault is
/// an error, and the intact records are linted as one stream.
fn lint_segments(segments: &[(Lsn, PathBuf)], opts: &WalLintOptions) -> std::io::Result<Report> {
    let mut report = Report::new();
    let mut records = Vec::new();
    let mut reader = SegmentReader::default();
    for (i, (first_lsn, path)) in segments.iter().enumerate() {
        let sealed = i + 1 < segments.len();
        let seg = reader.read(*first_lsn, sealed, &std::fs::read(path)?);
        for fault in &seg.faults {
            let (code, lsn) = finding(fault);
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            report.error(CHECKER, code, None, Some(lsn), format!("{fault} ({name})"));
        }
        records.extend(seg.into_records());
    }
    report.merge(lint_records(&records, opts));
    Ok(report)
}

/// Lint one segment file on disk, read as an active segment, without
/// repairing it.
///
/// The reader is [`LogManager`]'s, so the linter and recovery agree on
/// where the clean prefix ends; but where the open path truncates a torn
/// tail, the linter reports it, naming the last intact LSN.
pub fn lint_wal_file(path: &Path, opts: &WalLintOptions) -> std::io::Result<Report> {
    // A segment's name carries its first LSN; any other file is taken to
    // start the log. The chain rules compare `prev_lsn` fields with record
    // LSNs, so a later segment numbered from 1 would fail them all.
    let first = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(obr_wal::segment::parse_segment_name)
        .unwrap_or(Lsn(1));
    lint_segments(&[(first, path.to_path_buf())], opts)
}

/// Lint a segmented WAL directory (`wal-<first-LSN>.seg` files) without
/// repairing it.
///
/// Every [`SegmentFault`] is a finding: a gap in first-LSN naming, a torn
/// or empty **sealed** segment, a torn active tail. The concatenated record
/// stream is then linted exactly like a single file.
pub fn lint_wal_dir(dir: &Path, opts: &WalLintOptions) -> std::io::Result<Report> {
    let segments = obr_wal::segment::list_segments(dir)?;
    if segments.is_empty() {
        let mut report = Report::new();
        report.error(
            CHECKER,
            "no-segments",
            None,
            None,
            format!("{} contains no WAL segments", dir.display()),
        );
        return Ok(report);
    }
    let mut report = lint_segments(&segments, opts)?;
    let (_, active) = segments.last().expect("checked non-empty");
    let name = active.file_name().unwrap_or_default().to_string_lossy();
    report.note(format!(
        "{} segments, active segment {name}",
        segments.len()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_wal::ReorgKind;

    fn begin(unit: u64) -> LogRecord {
        LogRecord::ReorgBegin {
            unit: UnitId(unit),
            kind: ReorgKind::Compact,
            base_pages: vec![PageId(1)],
            leaf_pages: vec![PageId(10), PageId(11)],
        }
    }

    fn mv(unit: u64, org: u32, dest: u32, prev: u64) -> LogRecord {
        LogRecord::ReorgMove {
            unit: UnitId(unit),
            org: PageId(org),
            dest: PageId(dest),
            payload: MovePayload::Keys(vec![1, 2, 3]),
            fresh_dest: None,
            prev_lsn: Lsn(prev),
        }
    }

    fn end(unit: u64) -> LogRecord {
        LogRecord::ReorgEnd {
            unit: UnitId(unit),
            largest_key: 3,
        }
    }

    fn seq(records: Vec<LogRecord>) -> Vec<(Lsn, LogRecord)> {
        records
            .into_iter()
            .enumerate()
            .map(|(i, r)| (Lsn(i as u64 + 1), r))
            .collect()
    }

    #[test]
    fn well_formed_unit_is_clean() {
        let r = lint_records(
            &seq(vec![begin(1), mv(1, 10, 20, 1), mv(1, 11, 20, 2), end(1)]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn empty_unit_warns_but_is_not_fatal() {
        // BEGIN immediately followed by END: no MOVE/SIDEPTR in between.
        // Recovery forward-completes such units, so this is a warning.
        let r = lint_records(&seq(vec![begin(1), end(1)]), &WalLintOptions::default());
        assert!(
            r.findings.iter().any(|f| f.code == "empty-unit"),
            "expected an empty-unit warning: {r}"
        );
        assert_eq!(r.error_count(), 0, "{r}");
    }

    #[test]
    fn reordered_log_breaks_the_chain() {
        // Swap the two MOVEs: the first now claims prev_lsn=2 at LSN 2.
        let r = lint_records(
            &seq(vec![begin(1), mv(1, 11, 20, 2), mv(1, 10, 20, 1), end(1)]),
            &WalLintOptions::default(),
        );
        assert!(
            r.findings.iter().any(|f| f.code == "broken-prev-chain"),
            "{r}"
        );
    }

    #[test]
    fn full_records_forward_move_is_a_violation() {
        let recs = seq(vec![
            begin(1),
            LogRecord::ReorgMove {
                unit: UnitId(1),
                org: PageId(10),
                dest: PageId(20),
                payload: MovePayload::Records(vec![(1, vec![0xaa])]),
                fresh_dest: None,
                prev_lsn: Lsn(1),
            },
            end(1),
        ]);
        let r = lint_records(&recs, &WalLintOptions::default());
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "careful-writing-violation"),
            "{r}"
        );
        let relaxed = lint_records(
            &recs,
            &WalLintOptions {
                allow_full_records: true,
            },
        );
        assert!(relaxed.is_clean(), "{relaxed}");
    }

    #[test]
    fn compensating_reverse_move_is_legal() {
        // Forward MOVE 10 -> 20 with keys, then the §5.2 undo: a full-record
        // MOVE 20 -> 10, then END with LK untouched.
        let r = lint_records(
            &seq(vec![
                begin(1),
                mv(1, 10, 20, 1),
                LogRecord::ReorgMove {
                    unit: UnitId(1),
                    org: PageId(20),
                    dest: PageId(10),
                    payload: MovePayload::Records(vec![(1, vec![0xaa])]),
                    fresh_dest: None,
                    prev_lsn: Lsn(2),
                },
                end(1),
            ]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn open_unit_at_eof_is_crash_shaped() {
        let r = lint_records(
            &seq(vec![begin(1), mv(1, 10, 20, 1)]),
            &WalLintOptions::default(),
        );
        assert!(
            r.findings.iter().any(|f| f.code == "unit-open-at-eof"),
            "{r}"
        );
        assert_eq!(r.error_count(), 0, "{r}");
    }

    fn ins(txn: u64, key: u64, prev: u64) -> LogRecord {
        LogRecord::TxnInsert {
            txn: TxnId(txn),
            page: PageId(10),
            key,
            value: vec![1],
            prev_lsn: Lsn(prev),
        }
    }

    fn clr(txn: u64, key: u64, undo_next: u64) -> LogRecord {
        LogRecord::Clr {
            txn: TxnId(txn),
            page: PageId(10),
            reinsert: false,
            key,
            value: Vec::new(),
            undo_next: Lsn(undo_next),
        }
    }

    fn has(r: &Report, code: &str, lsn: u64) -> bool {
        r.findings
            .iter()
            .any(|f| f.code == code && f.lsn == Some(Lsn(lsn)))
    }

    #[test]
    fn transactions_without_begin_records_are_clean() {
        let r = lint_records(
            &seq(vec![
                // A writer: first record is an update, chained, committed.
                ins(1, 5, 0),
                ins(1, 6, 1),
                LogRecord::TxnCommit { txn: TxnId(1) },
                // A reader written through the raw log API: bare commit.
                LogRecord::TxnCommit { txn: TxnId(2) },
                // One update, committed; a reader's bare abort.
                ins(3, 7, 0),
                LogRecord::TxnCommit { txn: TxnId(3) },
                LogRecord::TxnAbort { txn: TxnId(4) },
                // A rollback: CLRs walk the chain back to zero.
                ins(5, 8, 0),
                ins(5, 9, 8),
                clr(5, 9, 8),
                clr(5, 8, 0),
                LogRecord::TxnAbort { txn: TxnId(5) },
                // A loser: open at end of log.
                ins(6, 1, 0),
            ]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.findings.len(), 0, "not even a warning: {r}");
    }

    #[test]
    fn update_that_skips_its_predecessor_breaks_the_undo_chain() {
        // The third update points at the first: undo would skip the second.
        let r = lint_records(
            &seq(vec![ins(1, 5, 0), ins(1, 6, 1), ins(1, 7, 1)]),
            &WalLintOptions::default(),
        );
        assert!(has(&r, "txn-broken-undo-chain", 3), "{r}");
        // So does a chain restarted at zero mid-transaction.
        let r = lint_records(
            &seq(vec![ins(1, 5, 0), ins(1, 6, 0)]),
            &WalLintOptions::default(),
        );
        assert!(has(&r, "txn-broken-undo-chain", 2), "{r}");
        // And a first record pointing into the visible log at nothing of
        // its own.
        let r = lint_records(
            &seq(vec![ins(1, 5, 0), ins(2, 6, 1)]),
            &WalLintOptions::default(),
        );
        assert!(has(&r, "txn-broken-undo-chain", 2), "{r}");
    }

    #[test]
    fn in_place_update_with_a_cut_chain_breaks_the_undo_chain() {
        let upd = |prev: u64| LogRecord::TxnUpdate {
            txn: TxnId(1),
            page: PageId(10),
            key: 5,
            old_value: vec![1],
            new_value: vec![2],
            prev_lsn: Lsn(prev),
        };
        // Chained and rolled back by a re-inserting CLR: clean.
        let r = lint_records(
            &seq(vec![
                ins(1, 6, 0),
                upd(1),
                LogRecord::Clr {
                    txn: TxnId(1),
                    page: PageId(10),
                    reinsert: true,
                    key: 5,
                    value: vec![1],
                    undo_next: Lsn(1),
                },
                clr(1, 6, 0),
                LogRecord::TxnAbort { txn: TxnId(1) },
            ]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
        // Its `prev_lsn` cut to zero: undo would never reach the insert.
        let r = lint_records(&seq(vec![ins(1, 6, 0), upd(0)]), &WalLintOptions::default());
        assert!(has(&r, "txn-broken-undo-chain", 2), "{r}");
    }

    #[test]
    fn clr_that_skips_an_update_breaks_the_undo_chain() {
        // The first CLR compensates LSN 2 but hands on to zero: the update
        // at LSN 1 would stay in place after the abort.
        let r = lint_records(
            &seq(vec![
                ins(1, 5, 0),
                ins(1, 6, 1),
                clr(1, 6, 0),
                LogRecord::TxnAbort { txn: TxnId(1) },
            ]),
            &WalLintOptions::default(),
        );
        assert!(has(&r, "txn-broken-undo-chain", 3), "{r}");
        // One CLR too many, and an update after the rollback began.
        let r = lint_records(
            &seq(vec![ins(1, 5, 0), clr(1, 5, 0), clr(1, 5, 0), ins(1, 6, 1)]),
            &WalLintOptions::default(),
        );
        assert!(has(&r, "txn-broken-undo-chain", 3), "{r}");
        assert!(has(&r, "txn-broken-undo-chain", 4), "{r}");
    }

    #[test]
    fn chains_reaching_into_a_truncated_prefix_are_accepted() {
        // The log starts at LSN 100: transaction 1's first visible update
        // continues a chain from LSN 40, and its rollback runs past the
        // visible records; transaction 2's commit has no update in view.
        let records: Vec<(Lsn, LogRecord)> = vec![
            ins(1, 5, 40),
            ins(1, 6, 100),
            LogRecord::TxnCommit { txn: TxnId(2) },
            clr(1, 6, 100),
            clr(1, 5, 40),
            clr(1, 4, 0),
            LogRecord::TxnAbort { txn: TxnId(1) },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, r)| (Lsn(100 + i as u64), r))
        .collect();
        let r = lint_records(&records, &WalLintOptions::default());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn rollback_after_a_failed_commit_force_is_clean() {
        // `Txn::commit` appended the commit record, the force failed, and
        // the rollback's CLRs and abort landed after it.
        let r = lint_records(
            &seq(vec![
                ins(1, 5, 0),
                LogRecord::TxnCommit { txn: TxnId(1) },
                clr(1, 5, 0),
                LogRecord::TxnAbort { txn: TxnId(1) },
            ]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn checkpoint_must_reference_seen_lsns() {
        use obr_wal::{CheckpointData, ReorgTableSnapshot};
        // LSN 4 is a transaction's insert, not a reorg record, so a snapshot naming it
        // dangles even though it precedes the checkpoint.
        let r = lint_records(
            &seq(vec![
                begin(1),
                mv(1, 10, 20, 1),
                end(1),
                ins(7, 1, 0),
                LogRecord::Checkpoint {
                    data: CheckpointData {
                        reorg: ReorgTableSnapshot {
                            lk: Some(3),
                            begin_lsn: None,
                            recent_lsn: Some(Lsn(4)),
                        },
                        active_txns: vec![(TxnId(7), Lsn(4))],
                    },
                },
            ]),
            &WalLintOptions::default(),
        );
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "checkpoint-dangling-lsn"),
            "{r}"
        );
    }
}
