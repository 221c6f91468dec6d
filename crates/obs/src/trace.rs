//! Structured trace events for watching a reorganization happen.
//!
//! A [`Tracer`] collects [`TraceEvent`]s into a bounded ring buffer and,
//! when attached, streams them as JSON Lines to a writer.  Events are
//! span-style: `pass_enter`/`pass_exit` bracket each of the paper's three
//! passes, `unit_begin`..`unit_end` bracket one reorganization unit
//! (Figure 2), and point events mark the interesting moments in between —
//! record moves, pass-3 stable points, side-file traffic and
//! the final tree switch.
//!
//! Every event carries the same fixed field set (`unit`, `pass`, `page`,
//! `a`, `b`); fields an event does not use are zero.  The per-kind meaning
//! of `a`/`b` is documented on [`TraceKind`] and in DESIGN.md's
//! "Observability" chapter, which also walks a full three-pass example.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring-buffer capacity (events), chosen to hold a full scripted
/// reorganization with room to spare.
const DEFAULT_RING_CAP: usize = 4096;

/// What happened. The wire name (JSONL `"event"` field) is the snake_case
/// form returned by [`TraceKind::as_str`].
///
/// Unless noted, `unit` is the reorganization unit id (0 when not inside a
/// unit), `pass` is the paper's pass number 1–3 (0 when not pass-scoped)
/// and `page` is the base page the event concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A reorganization pass starts. `pass` = 1, 2 or 3.
    PassEnter,
    /// A reorganization pass finished. `a` = units/steps completed in it.
    PassExit,
    /// A unit begins. `page` = base page, `a` = destination page
    /// (0 for in-place compaction), `b` = number of source leaves.
    UnitBegin,
    /// Records moved within a unit. `page` = source leaf, `a` =
    /// destination leaf, `b` = records moved.
    UnitMove,
    /// In-place modification of a leaf within a unit (`page`).
    UnitModify,
    /// A unit committed (its END record is on the log). `a` = largest key
    /// handled, i.e. the restart frontier LK of §5.
    UnitEnd,
    /// A unit was rolled back (deadlock victim etc.).
    UnitUndo,
    /// Pass 3 logged a stable point (§7.3). `a` = stable key.
    Pass3Stable,
    /// An entry entered the side file (§7.2). `page` = leaf concerned,
    /// `a` = key, `b` = side-file depth after the append.
    SideEnqueue,
    /// Pass-3 catch-up drained side-file entries. `a` = entries applied
    /// this drain round, `b` = side-file depth after the drain.
    SideDrain,
    /// Pass 3 switched the tree to the rebuilt upper levels. `page` = new
    /// root, `a` = new tree generation.
    TreeSwitch,
    /// Restart recovery began.
    RecoveryBegin,
    /// Restart recovery finished. `a` = redo records applied, `b` =
    /// interrupted units completed forward.
    RecoveryEnd,
    /// The reorg daemon woke up and evaluated its trigger.
    DaemonCycle,
    /// The daemon decided to run. `a` = bitmask of the decision:
    /// 1 = compacted, 2 = swapped, 4 = shrunk.
    DaemonRun,
    /// A daemon cycle failed and will be retried next interval (the
    /// thread survives). `a` = consecutive failures so far.
    DaemonError,
    /// The network frontend admitted a client session. `a` = live
    /// sessions after the admit.
    SessionOpen,
    /// A client session ended (disconnect, protocol error, or drain).
    /// `a` = live sessions after the close, `b` = requests it served.
    SessionClose,
    /// Admission control shed work with a `BUSY` answer. `a` = 0 for a
    /// refused session, 1 for a refused request.
    ServerShed,
    /// The server entered shutdown: the listener stopped accepting and
    /// live sessions are draining. `a` = sessions still live.
    ServerDrain,
}

impl TraceKind {
    /// The snake_case wire name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::PassEnter => "pass_enter",
            TraceKind::PassExit => "pass_exit",
            TraceKind::UnitBegin => "unit_begin",
            TraceKind::UnitMove => "unit_move",
            TraceKind::UnitModify => "unit_modify",
            TraceKind::UnitEnd => "unit_end",
            TraceKind::UnitUndo => "unit_undo",
            TraceKind::Pass3Stable => "pass3_stable",
            TraceKind::SideEnqueue => "side_enqueue",
            TraceKind::SideDrain => "side_drain",
            TraceKind::TreeSwitch => "tree_switch",
            TraceKind::RecoveryBegin => "recovery_begin",
            TraceKind::RecoveryEnd => "recovery_end",
            TraceKind::DaemonCycle => "daemon_cycle",
            TraceKind::DaemonRun => "daemon_run",
            TraceKind::DaemonError => "daemon_error",
            TraceKind::SessionOpen => "session_open",
            TraceKind::SessionClose => "session_close",
            TraceKind::ServerShed => "server_shed",
            TraceKind::ServerDrain => "server_drain",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One trace event. The schema is fixed so JSONL consumers never need
/// per-kind parsing: `{"seq":N,"us":N,"event":"...","unit":N,"pass":N,
/// "page":N,"a":N,"b":N}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number, unique per tracer.
    pub seq: u64,
    /// Microseconds since the tracer was created. Timing-dependent; the
    /// golden test compares [`TraceEvent::to_json_stable`], which omits it.
    pub us: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Reorganization unit id, 0 outside a unit.
    pub unit: u64,
    /// Pass number 1–3, 0 when not pass-scoped.
    pub pass: u8,
    /// Base page id the event concerns, 0 when none.
    pub page: u64,
    /// Kind-specific operand; see [`TraceKind`].
    pub a: u64,
    /// Kind-specific operand; see [`TraceKind`].
    pub b: u64,
}

impl TraceEvent {
    /// Full JSONL rendering, including the `us` timestamp.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"us\":{},{}}}",
            self.seq,
            self.us,
            self.json_tail()
        )
    }

    /// Deterministic rendering: the full schema minus `seq` and `us`, the
    /// two fields that depend on run timing or on how many events preceded
    /// this one. The trace-schema golden test compares these.
    pub fn to_json_stable(&self) -> String {
        format!("{{{}}}", self.json_tail())
    }

    fn json_tail(&self) -> String {
        format!(
            "\"event\":\"{}\",\"unit\":{},\"pass\":{},\"page\":{},\"a\":{},\"b\":{}",
            self.kind.as_str(),
            self.unit,
            self.pass,
            self.page,
            self.a,
            self.b
        )
    }
}

struct TracerInner {
    ring: VecDeque<TraceEvent>,
    cap: usize,
    writer: Option<Box<dyn Write + Send>>,
}

/// Ring-buffered trace sink with an optional JSONL writer.
///
/// Emission takes one short mutex (the emitting paths — unit boundaries,
/// pass boundaries, side-file traffic — are orders of magnitude rarer than
/// metric updates). The ring keeps the most recent events for in-process
/// inspection; an attached writer additionally receives every event as one
/// JSON line.
pub struct Tracer {
    seq: AtomicU64,
    epoch: Instant,
    inner: Mutex<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAP)
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("seq", &self.seq.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Create a tracer whose ring holds the default number of events.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a tracer whose ring holds at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            inner: Mutex::new(TracerInner {
                ring: VecDeque::with_capacity(cap.min(DEFAULT_RING_CAP)),
                cap: cap.max(1),
                writer: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stream every future event as a JSON line to the file at `path`
    /// (truncating it). Replaces any previously attached writer.
    pub fn attach_file(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.lock().writer = Some(Box::new(std::io::BufWriter::new(file)));
        Ok(())
    }

    /// Stream every future event to an arbitrary writer (tests use an
    /// in-memory buffer). Replaces any previously attached writer.
    pub fn attach_writer(&self, w: Box<dyn Write + Send>) {
        self.lock().writer = Some(w);
    }

    /// Flush and drop the attached writer, if any.
    pub fn detach_writer(&self) {
        let mut inner = self.lock();
        if let Some(mut w) = inner.writer.take() {
            let _ = w.flush();
        }
    }

    /// Flush the attached writer without detaching it.
    pub fn flush(&self) {
        if let Some(w) = self.lock().writer.as_mut() {
            let _ = w.flush();
        }
    }

    /// Record one event. Fields an event kind does not use are passed as
    /// zero; see [`TraceKind`] for the per-kind meaning of `a` and `b`.
    pub fn emit(&self, kind: TraceKind, unit: u64, pass: u8, page: u64, a: u64, b: u64) {
        if cfg!(feature = "noop") {
            return;
        }
        let ev = TraceEvent {
            seq: self.seq.fetch_add(1, Relaxed),
            us: self.epoch.elapsed().as_micros() as u64,
            kind,
            unit,
            pass,
            page,
            a,
            b,
        };
        let mut inner = self.lock();
        if inner.ring.len() == inner.cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(ev);
        if let Some(w) = inner.writer.as_mut() {
            let _ = writeln!(w, "{}", ev.to_json());
        }
    }

    /// Total events emitted so far (including any that fell off the ring).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Relaxed)
    }

    /// Copy of the ring contents, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().ring.iter().copied().collect()
    }

    /// Empty the ring (the attached writer, if any, is unaffected).
    pub fn clear(&self) {
        self.lock().ring.clear();
    }
}

// Every test here emits, which `noop` compiles out.
#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    #[test]
    fn ring_keeps_most_recent_events() {
        let t = Tracer::with_capacity(3);
        for i in 0..5 {
            t.emit(TraceKind::UnitBegin, i, 1, 10 + i, 0, 0);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].unit, 2);
        assert_eq!(evs[2].unit, 4);
        assert_eq!(t.emitted(), 5);
    }

    /// A shared Vec the test can read back after the tracer wrote to it.
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_writer_receives_schema_lines() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let t = Tracer::new();
        t.attach_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        t.emit(TraceKind::Pass3Stable, 7, 3, 42, 1000, 0);
        t.detach_writer();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let line = out.lines().next().unwrap();
        assert!(line.starts_with("{\"seq\":0,\"us\":"), "{line}");
        assert!(
            line.ends_with(
                "\"event\":\"pass3_stable\",\"unit\":7,\"pass\":3,\"page\":42,\"a\":1000,\"b\":0}"
            ),
            "{line}"
        );
    }

    #[test]
    fn stable_json_omits_seq_and_us() {
        let t = Tracer::new();
        t.emit(TraceKind::TreeSwitch, 0, 3, 9, 2, 0);
        let ev = t.events()[0];
        assert_eq!(
            ev.to_json_stable(),
            "{\"event\":\"tree_switch\",\"unit\":0,\"pass\":3,\"page\":9,\"a\":2,\"b\":0}"
        );
    }
}
