//! Engine-level metric handles: reorganization, recovery, daemon and tree
//! shape, published into the per-database [`Registry`].
//!
//! The lock manager, buffer pool, WAL and side file each own their handles
//! and register them directly; what remains — everything the reorganizer,
//! the recovery driver and the daemon count — lives here, owned by the
//! [`crate::Database`] so it accumulates across reorganizer instances
//! (each daemon cycle constructs a fresh `Reorganizer`). A
//! [`crate::ReorgStats`] is no tally of its own: it is these counters minus
//! their values when the reorganizer was built.

use obr_obs::{Counter, Gauge, Registry};

use crate::ReorgStats;

/// Database-lifetime counters and gauges for the reorganization machinery.
/// Field-per-metric: the hot paths clone nothing and format nothing.
#[derive(Debug, Default)]
pub(crate) struct CoreMetrics {
    // Reorganization units (paper §5, Figure 2).
    pub units_started: Counter,
    pub units_completed: Counter,
    pub units_undone: Counter,
    pub units_inplace: Counter,
    pub units_copy_switch: Counter,
    pub deadlock_retries: Counter,
    pub records_moved: Counter,
    pub pages_freed: Counter,
    // Pass 2 (§6.2) and pass 3 (§7).
    pub pass2_parks: Counter,
    pub pass2_moves: Counter,
    /// Placements given up after repeated deadlocks or with no page to
    /// park on.
    pub pass2_skipped: Counter,
    pub base_pages_read: Counter,
    pub stable_points: Counter,
    pub side_entries_applied: Counter,
    // Restart recovery (§5.1, §7.3).
    pub recovery_runs: Counter,
    pub recovery_redo_applied: Counter,
    pub recovery_losers_undone: Counter,
    pub recovery_clrs_written: Counter,
    pub recovery_forward_units: Counter,
    pub recovery_pass3_resumes: Counter,
    // Reorg daemon.
    pub daemon_cycles: Counter,
    pub daemon_runs: Counter,
    /// Cycles that failed and were retried instead of killing the thread.
    pub daemon_errors: Counter,
    /// WAL truncations (checkpoint + segment recycle) the daemon drove.
    pub daemon_truncations: Counter,
    // Tree shape, refreshed by `Database::metrics_snapshot` / `stats`.
    pub tree_records: Gauge,
    pub tree_leaf_pages: Gauge,
    pub tree_internal_pages: Gauge,
    pub tree_height: Gauge,
    pub tree_fill_permille: Gauge,
    pub tree_discontinuities: Gauge,
}

impl CoreMetrics {
    /// Publish every handle into `reg` under its canonical name (the full
    /// inventory is documented in DESIGN.md "Observability").
    pub(crate) fn register(&self, reg: &Registry) {
        reg.register_counter("reorg_units_started", &self.units_started);
        reg.register_counter("reorg_units_completed", &self.units_completed);
        reg.register_counter("reorg_units_undone", &self.units_undone);
        reg.register_counter("reorg_units_inplace", &self.units_inplace);
        reg.register_counter("reorg_units_copy_switch", &self.units_copy_switch);
        reg.register_counter("reorg_deadlock_retries", &self.deadlock_retries);
        reg.register_counter("reorg_records_moved", &self.records_moved);
        reg.register_counter("reorg_pages_freed", &self.pages_freed);
        reg.register_counter("reorg_pass2_parks", &self.pass2_parks);
        reg.register_counter("reorg_pass2_moves", &self.pass2_moves);
        reg.register_counter("reorg_pass2_skipped", &self.pass2_skipped);
        reg.register_counter("reorg_base_pages_read", &self.base_pages_read);
        reg.register_counter("reorg_stable_points", &self.stable_points);
        reg.register_counter("reorg_side_entries_applied", &self.side_entries_applied);
        reg.register_counter("recovery_runs", &self.recovery_runs);
        reg.register_counter("recovery_redo_applied", &self.recovery_redo_applied);
        reg.register_counter("recovery_losers_undone", &self.recovery_losers_undone);
        reg.register_counter("recovery_clrs_written", &self.recovery_clrs_written);
        reg.register_counter("recovery_forward_units", &self.recovery_forward_units);
        reg.register_counter("recovery_pass3_resumes", &self.recovery_pass3_resumes);
        reg.register_counter("reorg_daemon_cycles", &self.daemon_cycles);
        reg.register_counter("reorg_daemon_runs", &self.daemon_runs);
        reg.register_counter("reorg_daemon_errors", &self.daemon_errors);
        reg.register_counter("reorg_daemon_truncations", &self.daemon_truncations);
        reg.register_gauge("tree_records", &self.tree_records);
        reg.register_gauge("tree_leaf_pages", &self.tree_leaf_pages);
        reg.register_gauge("tree_internal_pages", &self.tree_internal_pages);
        reg.register_gauge("tree_height", &self.tree_height);
        reg.register_gauge("tree_fill_permille", &self.tree_fill_permille);
        reg.register_gauge("tree_discontinuities", &self.tree_discontinuities);
    }

    /// The reorganizer counters as a [`ReorgStats`], each minus `base`'s
    /// field.
    pub(crate) fn reorg_stats_since(&self, base: &ReorgStats) -> ReorgStats {
        ReorgStats {
            units: self.units_completed.get() - base.units,
            inplace_units: self.units_inplace.get() - base.inplace_units,
            copy_switch_units: self.units_copy_switch.get() - base.copy_switch_units,
            swaps: self.pass2_parks.get() - base.swaps,
            moves: self.pass2_moves.get() - base.moves,
            records_moved: self.records_moved.get() - base.records_moved,
            pages_freed: self.pages_freed.get() - base.pages_freed,
            deadlock_retries: self.deadlock_retries.get() - base.deadlock_retries,
            units_undone: self.units_undone.get() - base.units_undone,
            base_pages_read: self.base_pages_read.get() - base.base_pages_read,
            stable_points: self.stable_points.get() - base.stable_points,
            side_entries_applied: self.side_entries_applied.get() - base.side_entries_applied,
            skipped_placements: self.pass2_skipped.get() - base.skipped_placements,
        }
    }

    /// Refresh the tree-shape gauges from a fresh [`obr_btree::TreeStats`].
    pub(crate) fn publish_tree(&self, t: &obr_btree::TreeStats) {
        self.tree_records.set(t.records);
        self.tree_leaf_pages.set(t.leaf_pages as u64);
        self.tree_internal_pages.set(t.internal_pages as u64);
        self.tree_height.set(t.height as u64);
        self.tree_fill_permille
            .set((t.avg_leaf_fill * 1000.0) as u64);
        self.tree_discontinuities
            .set(t.leaf_discontinuities() as u64);
    }
}
