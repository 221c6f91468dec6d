//! The reorganization state table (§5 of the paper).
//!
//! "We keep an in-memory table to record the minimum LSN of the current
//! reorganization unit. (...) We keep the most recent LSN of the unit. We
//! also record the largest key (LK) of the last finished reorganization unit
//! processed. (...) It should be very small. It will be copied to the log
//! checkpoint record."
//!
//! Because reorganization runs as one process, the table has one, two, or
//! three live values at any time — that invariant is preserved here and
//! observable via [`ReorgStateTable::snapshot`].

use obr_sync::Mutex;

use obr_storage::Lsn;

use crate::record::{LogRecord, ReorgTableSnapshot};
use crate::LogManager;

/// The (tiny) system table driving reorganization restart.
#[derive(Debug, Default)]
pub struct ReorgStateTable {
    inner: Mutex<ReorgTableSnapshot>,
}

impl ReorgStateTable {
    /// An empty table: no finished unit, no in-flight unit.
    pub fn new() -> ReorgStateTable {
        ReorgStateTable::default()
    }

    /// Record that a new unit started; `begin_lsn` is its BEGIN record.
    pub fn begin_unit(&self, begin_lsn: Lsn) {
        let mut g = self.inner.lock();
        debug_assert!(
            g.begin_lsn.is_none(),
            "at most one reorganization unit may be in flight"
        );
        g.begin_lsn = Some(begin_lsn);
        g.recent_lsn = Some(begin_lsn);
    }

    /// Record the most recent LSN written by the in-flight unit, returning
    /// the previous one (used as the `prev_lsn` field of the next record).
    pub fn advance(&self, lsn: Lsn) -> Lsn {
        let mut g = self.inner.lock();
        let prev = g.recent_lsn.unwrap_or(Lsn::ZERO);
        g.recent_lsn = Some(lsn);
        prev
    }

    /// The `prev_lsn` the next unit record should carry.
    pub fn recent_lsn(&self) -> Lsn {
        self.inner.lock().recent_lsn.unwrap_or(Lsn::ZERO)
    }

    /// Append one record of the in-flight unit to `log`: `record` receives
    /// the `prev_lsn` it must carry, and the unit's chain advances to the
    /// new record. Returns its LSN and the record, for the caller to apply.
    pub fn append_to_unit(
        &self,
        log: &LogManager,
        record: impl FnOnce(Lsn) -> LogRecord,
    ) -> (Lsn, LogRecord) {
        let rec = record(self.recent_lsn());
        let lsn = log.append(&rec);
        self.advance(lsn);
        (lsn, rec)
    }

    /// The unit finished; its entry is deleted and LK advances.
    pub fn finish_unit(&self, largest_key: u64) {
        let mut g = self.inner.lock();
        g.begin_lsn = None;
        g.recent_lsn = None;
        g.lk = Some(match g.lk {
            Some(old) => old.max(largest_key),
            None => largest_key,
        });
    }

    /// The unit's entry is deleted without advancing LK: the unit was
    /// undone (deadlock victim), or it was a pass-2 move, which has no
    /// place in pass 1's key-order restart.
    pub fn abandon_unit(&self) {
        let mut g = self.inner.lock();
        g.begin_lsn = None;
        g.recent_lsn = None;
    }

    /// Largest key of the last finished unit — where to restart (§5).
    pub fn lk(&self) -> Option<u64> {
        self.inner.lock().lk
    }

    /// The reorganization completed: clear LK so the *next* reorganization
    /// starts from the beginning (the table only carries restart state for
    /// an incomplete run).
    pub fn clear_lk(&self) {
        self.inner.lock().lk = None;
    }

    /// BEGIN LSN of the in-flight unit, if any. Together with the
    /// transaction low-water mark this bounds the log that must be retained.
    pub fn begin_lsn(&self) -> Option<Lsn> {
        self.inner.lock().begin_lsn
    }

    /// True when a unit is in flight.
    pub fn unit_in_flight(&self) -> bool {
        self.inner.lock().begin_lsn.is_some()
    }

    /// Copy for a checkpoint record.
    pub fn snapshot(&self) -> ReorgTableSnapshot {
        *self.inner.lock()
    }

    /// Restore from a checkpoint (recovery).
    pub fn restore(&self, snap: ReorgTableSnapshot) {
        *self.inner.lock() = snap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_of_one_unit() {
        let t = ReorgStateTable::new();
        assert!(!t.unit_in_flight());
        assert_eq!(t.lk(), None);

        t.begin_unit(Lsn(5));
        assert!(t.unit_in_flight());
        assert_eq!(t.begin_lsn(), Some(Lsn(5)));
        assert_eq!(t.recent_lsn(), Lsn(5));

        // Writing the next record: prev = 5, recent becomes 6.
        assert_eq!(t.advance(Lsn(6)), Lsn(5));
        assert_eq!(t.advance(Lsn(9)), Lsn(6));

        t.finish_unit(42);
        assert!(!t.unit_in_flight());
        assert_eq!(t.lk(), Some(42));
        assert_eq!(t.recent_lsn(), Lsn::ZERO);
    }

    #[test]
    fn append_to_unit_threads_the_prev_lsn_chain() {
        use crate::record::{ReorgKind, UnitId};
        let log = LogManager::new();
        let t = ReorgStateTable::new();
        let unit = UnitId(1);
        let begin = log.append(&LogRecord::ReorgBegin {
            unit,
            kind: ReorgKind::Move,
            base_pages: Vec::new(),
            leaf_pages: Vec::new(),
        });
        t.begin_unit(begin);
        let modify = |prev_lsn| LogRecord::ReorgModify {
            unit,
            base_page: obr_storage::PageId(1),
            old_entries: Vec::new(),
            new_entries: Vec::new(),
            prev_lsn,
        };
        let (first, _) = t.append_to_unit(&log, modify);
        let (second, _) = t.append_to_unit(&log, modify);
        assert_eq!(t.recent_lsn(), second);
        let prev = |lsn| log.read(lsn).unwrap().unwrap().prev_lsn();
        assert_eq!(prev(first), Some(begin));
        assert_eq!(prev(second), Some(first));
    }

    #[test]
    fn clear_lk_resets_restart_position() {
        let t = ReorgStateTable::new();
        t.begin_unit(Lsn(1));
        t.finish_unit(99);
        assert_eq!(t.lk(), Some(99));
        t.clear_lk();
        assert_eq!(t.lk(), None);
    }

    #[test]
    fn lk_is_monotone() {
        let t = ReorgStateTable::new();
        t.begin_unit(Lsn(1));
        t.finish_unit(50);
        t.begin_unit(Lsn(2));
        t.finish_unit(30); // out-of-order finish must not regress LK
        assert_eq!(t.lk(), Some(50));
    }

    #[test]
    fn abandon_clears_unit_without_advancing_lk() {
        let t = ReorgStateTable::new();
        t.begin_unit(Lsn(1));
        t.finish_unit(10);
        t.begin_unit(Lsn(2));
        t.abandon_unit();
        assert!(!t.unit_in_flight());
        assert_eq!(t.lk(), Some(10));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let t = ReorgStateTable::new();
        t.begin_unit(Lsn(3));
        t.advance(Lsn(4));
        let snap = t.snapshot();
        let t2 = ReorgStateTable::new();
        t2.restore(snap);
        assert_eq!(t2.begin_lsn(), Some(Lsn(3)));
        assert_eq!(t2.recent_lsn(), Lsn(4));
        assert_eq!(t2.snapshot(), snap);
    }

    #[test]
    #[should_panic(expected = "at most one")]
    #[cfg(debug_assertions)]
    fn double_begin_panics_in_debug() {
        let t = ReorgStateTable::new();
        t.begin_unit(Lsn(1));
        t.begin_unit(Lsn(2));
    }
}
