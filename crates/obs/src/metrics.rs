//! Lock-free metric primitives and the registry that names them.
//!
//! Three shapes cover everything the engine reports:
//!
//! * [`Counter`] — monotonic `AtomicU64`; grants, appends, evictions.
//! * [`Gauge`] — instantaneous level plus a high-watermark `peak` (the
//!   side-file depth drains back to zero after pass-3 catch-up, so the
//!   peak is what a post-run snapshot can still show).
//! * [`Histogram`] — fixed power-of-two buckets; no allocation on the
//!   record path, good enough for "how long did lock waits take".
//!
//! All handles are cheap clones of an `Arc`; recording is a relaxed
//! atomic RMW.  The [`Registry`] is only a *directory*: registration takes
//! a short mutex (cold path), while [`Registry::snapshot`] reads the live
//! atomics without blocking any writer.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets. Bucket `i > 0` counts values
/// whose bit length is `i`, i.e. `v` in `[2^(i-1), 2^i)`; bucket 0 counts
/// zeros. 64 buckets cover the whole `u64` range.
const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying atomic, so a subsystem can keep one copy
/// on its hot path while the registry holds another for snapshots.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Create an unregistered counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous level with a high-watermark.
///
/// `set`/`inc`/`dec` update the level; every raise also folds into `peak`
/// via `fetch_max`, so the largest level ever held survives after the
/// level itself drains back down (e.g. the side-file depth after pass-3
/// catch-up).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeInner>);

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// Create an unregistered gauge at level zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level to `v` (and raise the peak if `v` exceeds it).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Relaxed);
        self.0.peak.fetch_max(v, Relaxed);
    }

    /// Raise the level by one and fold the new level into the peak.
    #[inline]
    pub fn inc(&self) {
        let now = self.0.value.fetch_add(1, Relaxed) + 1;
        self.0.peak.fetch_max(now, Relaxed);
    }

    /// Lower the level by one (saturating at zero).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .value
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.value.load(Relaxed)
    }

    /// Highest level ever held.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.0.peak.load(Relaxed)
    }
}

/// A fixed-bucket power-of-two histogram.
///
/// Recording classifies the value by bit length into one of 64 buckets —
/// one relaxed `fetch_add` each for the bucket, the total count and the
/// running sum; no allocation, no lock.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistInner>);

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistInner {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Create an unregistered, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        if cfg!(feature = "noop") {
            return;
        }
        let idx = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.0.buckets[idx.min(HIST_BUCKETS - 1)].fetch_add(1, Relaxed);
        self.0.count.fetch_add(1, Relaxed);
        self.0.sum.fetch_add(v, Relaxed);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Sum of all observations.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Relaxed)
    }

    /// The non-empty buckets as `(bit_length, count)` pairs; bucket `i`
    /// holds values in `[2^(i-1), 2^i)` (bucket 0 holds zeros).
    pub fn nonzero_buckets(&self) -> Vec<(u8, u64)> {
        (0..HIST_BUCKETS)
            .filter_map(|i| {
                let n = self.0.buckets[i].load(Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect()
    }
}

/// A registered metric: one of the three handle shapes.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named directory of metric handles.
///
/// Registration (get-or-create, or adopting a subsystem's existing handle
/// under a canonical name) takes a short mutex; recording never touches
/// the registry at all — callers hold their own handle clones.  One
/// registry belongs to one `Database`; nothing here is process-global.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Publish an existing counter handle under `name` (last wins). This is
    /// how a subsystem keeps its hot-path handle as the single source of
    /// truth while the registry snapshots the same atomic.
    pub fn register_counter(&self, name: &str, c: &Counter) {
        self.lock()
            .insert(name.to_string(), Metric::Counter(c.clone()));
    }

    /// Publish an existing gauge handle under `name` (last wins).
    pub fn register_gauge(&self, name: &str, g: &Gauge) {
        self.lock()
            .insert(name.to_string(), Metric::Gauge(g.clone()));
    }

    /// Publish an existing histogram handle under `name` (last wins).
    pub fn register_histogram(&self, name: &str, h: &Histogram) {
        self.lock()
            .insert(name.to_string(), Metric::Histogram(h.clone()));
    }

    /// Read every registered metric into an owned [`Snapshot`].
    ///
    /// Holds the directory mutex only to walk the name map; each value is a
    /// relaxed atomic load, so writers are never blocked and an individual
    /// metric never tears (the snapshot as a whole is *not* a consistent
    /// cut across metrics — it does not need to be).
    pub fn snapshot(&self) -> Snapshot {
        let m = self.lock();
        let values = m
            .iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge {
                        value: g.get(),
                        peak: g.peak(),
                    },
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.nonzero_buckets(),
                    },
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { values }
    }
}

/// The observed value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic counter's current value.
    Counter(u64),
    /// A gauge's current level and high-watermark.
    Gauge {
        /// Instantaneous level.
        value: u64,
        /// Highest level ever held.
        peak: u64,
    },
    /// A histogram's totals and non-empty buckets.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// `(bit_length, count)` pairs for non-empty buckets.
        buckets: Vec<(u8, u64)>,
    },
}

/// An owned, point-in-time reading of a [`Registry`].
///
/// Renders as an aligned human table via `Display` and as a single JSON
/// object via [`Snapshot::to_json`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    values: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Look up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// Counter value by name, `0` if absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge level by name, `0` if absent or not a gauge.
    pub fn gauge(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge { value, .. }) => *value,
            _ => 0,
        }
    }

    /// Gauge high-watermark by name, `0` if absent or not a gauge.
    pub fn gauge_peak(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge { peak, .. }) => *peak,
            _ => 0,
        }
    }

    /// Iterate `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Render as one JSON object. Counters are plain numbers; gauges are
    /// `{"value":v,"peak":p}`; histograms are
    /// `{"count":c,"sum":s,"buckets":[[bit,count],...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":"));
            match v {
                MetricValue::Counter(n) => out.push_str(&n.to_string()),
                MetricValue::Gauge { value, peak } => {
                    out.push_str(&format!("{{\"value\":{value},\"peak\":{peak}}}"));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let b: Vec<String> = buckets
                        .iter()
                        .map(|(bit, n)| format!("[{bit},{n}]"))
                        .collect();
                    out.push_str(&format!(
                        "{{\"count\":{count},\"sum\":{sum},\"buckets\":[{}]}}",
                        b.join(",")
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.values.keys().map(String::len).max().unwrap_or(0);
        for (name, v) in &self.values {
            match v {
                MetricValue::Counter(n) => writeln!(f, "{name:width$}  {n}")?,
                MetricValue::Gauge { value, peak } => {
                    writeln!(f, "{name:width$}  {value} (peak {peak})")?;
                }
                MetricValue::Histogram { count, sum, .. } => {
                    let mean = if *count > 0 { sum / count } else { 0 };
                    writeln!(f, "{name:width$}  n={count} sum={sum} mean={mean}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_peak_through_drain() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        g.dec();
        g.dec();
        g.dec(); // saturates
        assert_eq!(g.get(), 0);
        assert_eq!(g.peak(), 3);
        g.set(2);
        assert_eq!(g.peak(), 3);
        g.set(9);
        assert_eq!(g.peak(), 9);
    }

    // Records a histogram, which `noop` compiles out.
    #[cfg(not(feature = "noop"))]
    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn registry_get_or_create_returns_same_atomic() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("x"), 2);
    }

    #[test]
    fn register_adopts_existing_handle() {
        let reg = Registry::new();
        let c = Counter::new();
        c.add(7);
        reg.register_counter("adopted", &c);
        c.inc();
        assert_eq!(reg.snapshot().counter("adopted"), 8);
    }

    /// Satellite requirement: concurrent increments sum exactly.
    #[test]
    fn concurrent_increments_sum_exactly() {
        let reg = Registry::new();
        let c = reg.counter("n");
        const THREADS: usize = 8;
        const PER: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..PER {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("n"), THREADS as u64 * PER);
    }

    /// Satellite requirement: a snapshot taken during updates never tears —
    /// a counter that only ever holds even values (adds of 2) must never be
    /// observed odd, and snapshots must be monotone.
    #[test]
    fn snapshot_during_update_never_tears() {
        let reg = std::sync::Arc::new(Registry::new());
        let c = reg.counter("even");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Relaxed) {
                    c.add(2);
                }
            });
            let mut last = 0u64;
            for _ in 0..20_000 {
                let v = reg.snapshot().counter("even");
                assert_eq!(v % 2, 0, "torn read: {v}");
                assert!(v >= last, "snapshot went backwards: {last} -> {v}");
                last = v;
            }
            stop.store(true, Relaxed);
        });
    }

    // Records a histogram, which `noop` compiles out.
    #[cfg(not(feature = "noop"))]
    #[test]
    fn json_and_display_render_all_shapes() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(5);
        reg.histogram("h").record(2);
        let snap = reg.snapshot();
        assert_eq!(
            snap.to_json(),
            "{\"c\":3,\"g\":{\"value\":5,\"peak\":5},\
             \"h\":{\"count\":1,\"sum\":2,\"buckets\":[[2,1]]}}"
        );
        let text = snap.to_string();
        assert!(text.contains("c  3"), "{text}");
        assert!(text.contains("5 (peak 5)"), "{text}");
    }
}
