//! Observability for the obr engine: a lock-free metrics registry and a
//! structured trace-event sink.
//!
//! The paper's subject is *on-line* reorganization — pass 1/2/3 run
//! concurrently with user transactions, forgoing conflicting RX lock
//! requests (Table 1) and catching up through the side file (§7.2).  None
//! of that is visible from the outside without instrumentation, so this
//! crate provides the two primitives every subsystem hangs its numbers on:
//!
//! * [`Registry`] — a named directory of [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s.  Handles are `Arc`-backed atomics: recording is a
//!   single relaxed RMW with no lock, and [`Registry::snapshot`] reads the
//!   same atomics without stopping writers.  Registries are per-`Database`
//!   (never process-global) so parallel tests and multi-database processes
//!   do not share counts.
//! * [`Tracer`] — a bounded ring buffer of [`TraceEvent`]s with an
//!   optional JSONL writer.  Events are span-style enter/exit markers
//!   carrying the reorg unit id, pass number and base-page id, which is
//!   exactly the vocabulary of the paper's Figure 1 (pass structure) and
//!   Figure 2 (a compaction unit).
//!
//! Subsystems own their handles (the handle *is* the source of truth — the
//! legacy `Stats` structs are views over the same atomics) and publish
//! them into the database's registry under the canonical names listed in
//! DESIGN.md's "Observability" chapter.
//!
//! The `noop` cargo feature compiles histogram records and trace emission
//! to no-ops so the cost of the default (instrumented) build can be
//! measured; see EXPERIMENTS.md. Counters and gauges count in every build.
//!
//! ```
//! use obr_obs::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("pool_hits");
//! hits.add(3);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("pool_hits"), 3);
//! ```

mod metrics;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricValue, Registry, Snapshot};
pub use trace::{TraceEvent, TraceKind, Tracer};

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters and gauges count in every build; `noop` leaves histograms
    /// and the tracer's ring empty.
    #[test]
    fn noop_gates_only_histograms_and_traces() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.gauge("g").inc();
        let h = reg.histogram("h");
        h.record(5);
        let t = Tracer::new();
        t.emit(TraceKind::UnitBegin, 1, 1, 1, 0, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 2);
        assert_eq!((snap.gauge("g"), snap.gauge_peak("g")), (1, 1));
        let recorded = usize::from(cfg!(not(feature = "noop")));
        assert_eq!(h.count(), recorded as u64);
        assert_eq!(t.events().len(), recorded);
    }
}
