//! Workload generation for the experiments: key distributions, a
//! degradation driver (E8: how free-at-empty trees become sparse), and a
//! multi-threaded open-loop driver measuring throughput and blocked time
//! while reorganization runs (E4).

use obr_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use obr_core::Database;

use crate::session::{Session, TxnError};

/// Key distribution for generated operations.
#[derive(Clone, Copy, Debug)]
pub enum KeyDist {
    /// Uniform over the key space.
    Uniform,
    /// Zipf-like skew with the given exponent (approximated by inversion).
    Zipf(f64),
}

impl KeyDist {
    fn sample(&self, rng: &mut StdRng, space: u64) -> u64 {
        match self {
            KeyDist::Uniform => rng.gen_range(0..space),
            KeyDist::Zipf(theta) => {
                // Bounded Pareto inversion: cheap, reproducible skew.
                let u: f64 = rng.gen_range(0.0f64..1.0);
                let n = space as f64;
                let x = n * (1.0 - u).powf(*theta);
                (n - 1.0 - x.min(n - 1.0)) as u64
            }
        }
    }
}

/// Latency histogram over power-of-two nanosecond buckets.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            count: 0,
            total_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&mut self, d: Duration) {
        let n = d.as_nanos() as u64;
        let b = (64 - n.max(1).leading_zeros() as usize).min(63);
        self.buckets[b] += 1;
        self.count += 1;
        self.total_nanos += n;
        self.max_nanos = self.max_nanos.max(n);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        match self.total_nanos.checked_div(self.count) {
            Some(m) => Duration::from_nanos(m),
            None => Duration::ZERO,
        }
    }

    /// Approximate percentile (upper bucket bound).
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let want = ((self.count as f64) * p).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= want {
                // Upper bucket bound, clamped to the true maximum.
                return Duration::from_nanos((1u64 << i).min(self.max_nanos));
            }
        }
        Duration::from_nanos(self.max_nanos)
    }

    /// Largest sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }
}

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Reader threads (point reads + occasional scans).
    pub readers: usize,
    /// Updater threads (insert/delete mix).
    pub updaters: usize,
    /// Keys are drawn from `[0, key_space)`.
    pub key_space: u64,
    /// Value size for inserts.
    pub value_len: usize,
    /// Key distribution.
    pub dist: KeyDist,
    /// Run until this duration elapses.
    pub duration: Duration,
    /// RNG seed (each thread derives its own).
    pub seed: u64,
    /// Fraction of reader ops that are range scans (of ~100 keys).
    pub scan_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            readers: 4,
            updaters: 2,
            key_space: 100_000,
            value_len: 64,
            dist: KeyDist::Uniform,
            duration: Duration::from_millis(500),
            seed: 7,
            scan_fraction: 0.05,
        }
    }
}

/// Aggregated results of a workload run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// Point reads completed.
    pub reads: u64,
    /// Range scans completed.
    pub scans: u64,
    /// Inserts committed.
    pub inserts: u64,
    /// Deletes committed.
    pub deletes: u64,
    /// Transactions restarted after deadlock/timeout.
    pub restarts: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Latency of read operations.
    pub read_latency: LatencyHistogram,
    /// Latency of update operations.
    pub update_latency: LatencyHistogram,
}

impl WorkloadReport {
    /// Total committed operations.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.scans + self.inserts + self.deletes
    }

    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Run a mixed workload against `db` until `cfg.duration` elapses (or
/// `stop` is raised early). Returns aggregated counters and latencies.
pub fn run_workload(db: &Arc<Database>, cfg: &WorkloadConfig, stop: &AtomicBool) -> WorkloadReport {
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut report = WorkloadReport::default();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..cfg.readers {
            let db = Arc::clone(db);
            let cfg = cfg.clone();
            handles.push(s.spawn(move || {
                reader_thread(db, &cfg, cfg.seed ^ (t as u64) << 8, deadline, stop)
            }));
        }
        for t in 0..cfg.updaters {
            let db = Arc::clone(db);
            let cfg = cfg.clone();
            handles.push(s.spawn(move || {
                updater_thread(
                    db,
                    &cfg,
                    cfg.seed ^ 0xDEAD ^ ((t as u64) << 8),
                    deadline,
                    stop,
                )
            }));
        }
        for h in handles {
            let partial = h.join().expect("workload thread panicked");
            report.reads += partial.reads;
            report.scans += partial.scans;
            report.inserts += partial.inserts;
            report.deletes += partial.deletes;
            report.restarts += partial.restarts;
            report.read_latency.merge(&partial.read_latency);
            report.update_latency.merge(&partial.update_latency);
        }
    });
    report.elapsed = start.elapsed();
    report
}

fn reader_thread(
    db: Arc<Database>,
    cfg: &WorkloadConfig,
    seed: u64,
    deadline: Instant,
    stop: &AtomicBool,
) -> WorkloadReport {
    let session = Session::new(db);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rep = WorkloadReport::default();
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        let key = cfg.dist.sample(&mut rng, cfg.key_space);
        let t0 = Instant::now();
        let mut txn = session.begin();
        let outcome = if rng.gen_bool(cfg.scan_fraction) {
            txn.scan(key, key + 100).map(|_| true)
        } else {
            txn.get(key).map(|_| false)
        };
        match outcome {
            Ok(was_scan) => {
                let _ = txn.commit();
                rep.read_latency.record(t0.elapsed());
                if was_scan {
                    rep.scans += 1;
                } else {
                    rep.reads += 1;
                }
            }
            Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {
                let _ = txn.abort();
                rep.restarts += 1;
            }
            Err(e) => panic!("reader failed: {e}"),
        }
    }
    rep
}

fn updater_thread(
    db: Arc<Database>,
    cfg: &WorkloadConfig,
    seed: u64,
    deadline: Instant,
    stop: &AtomicBool,
) -> WorkloadReport {
    let session = Session::new(db);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rep = WorkloadReport::default();
    let value = vec![0xA5u8; cfg.value_len];
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        let key = cfg.dist.sample(&mut rng, cfg.key_space);
        let insert = rng.gen_bool(0.5);
        let t0 = Instant::now();
        let mut txn = session.begin();
        let outcome = if insert {
            match txn.insert(key, &value) {
                Ok(()) => Ok(true),
                Err(TxnError::KeyExists(_)) => Ok(true), // busy key: fine
                Err(e) => Err(e),
            }
        } else {
            match txn.delete(key) {
                Ok(_) => Ok(false),
                Err(TxnError::KeyNotFound(_)) => Ok(false),
                Err(e) => Err(e),
            }
        };
        match outcome {
            Ok(was_insert) => {
                let _ = txn.commit();
                rep.update_latency.record(t0.elapsed());
                if was_insert {
                    rep.inserts += 1;
                } else {
                    rep.deletes += 1;
                }
            }
            Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {
                let _ = txn.abort();
                rep.restarts += 1;
            }
            Err(e) => panic!("updater failed: {e}"),
        }
    }
    rep
}

/// E8 degradation driver: load `n` sequential records at full pages, then
/// randomly delete `delete_fraction` of them — the free-at-empty policy
/// leaves the surviving records scattered over sparse pages.
pub fn degrade(db: &Arc<Database>, n: u64, value_len: usize, delete_fraction: f64, seed: u64) {
    let session = Session::new(Arc::clone(db));
    let records: Vec<(u64, Vec<u8>)> = (0..n)
        .map(|k| {
            let mut v = k.to_le_bytes().to_vec();
            v.resize(value_len, 0x33);
            (k, v)
        })
        .collect();
    db.tree()
        .bulk_load(&records, 0.95, 0.95)
        .expect("bulk load");
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..n {
        if rng.gen_bool(delete_fraction) {
            let _ = session.delete(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_btree::SidePointerMode;
    use obr_storage::{DiskManager, InMemoryDisk};

    fn db(pages: u32) -> Arc<Database> {
        let disk = Arc::new(InMemoryDisk::new(pages));
        Database::create(
            disk as Arc<dyn DiskManager>,
            pages as usize,
            SidePointerMode::TwoWay,
        )
        .unwrap()
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = LatencyHistogram::default();
        for i in 1..=1000u64 {
            h.record(Duration::from_nanos(i * 100));
        }
        assert_eq!(h.count(), 1000);
        assert!(h.percentile(0.5) <= h.percentile(0.99));
        assert!(h.percentile(0.99) <= h.max());
        assert!(h.mean() > Duration::ZERO);
    }

    #[test]
    fn key_dists_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for dist in [KeyDist::Uniform, KeyDist::Zipf(1.5)] {
            for _ in 0..1000 {
                assert!(dist.sample(&mut rng, 500) < 500);
            }
        }
    }

    #[test]
    fn zipf_is_skewed_toward_high_keys() {
        // The bounded-Pareto inversion puts 0.1^(1/theta) of the mass in the
        // top decile: ~31.6% for theta = 2, vs 10% for uniform.
        let mut rng = StdRng::seed_from_u64(2);
        let dist = KeyDist::Zipf(2.0);
        let top_zipf: usize = (0..5000)
            .filter(|_| dist.sample(&mut rng, 1000) >= 900)
            .count();
        let uni = KeyDist::Uniform;
        let top_uni: usize = (0..5000)
            .filter(|_| uni.sample(&mut rng, 1000) >= 900)
            .count();
        assert!(
            top_zipf > top_uni * 2,
            "zipf(2.0) should concentrate: {top_zipf} vs uniform {top_uni} in top decile"
        );
    }

    #[test]
    fn degrade_produces_sparse_tree() {
        let d = db(4096);
        degrade(&d, 3000, 64, 0.7, 11);
        let stats = d.tree().stats().unwrap();
        assert!(
            stats.avg_leaf_fill < 0.5,
            "fill {} should be sparse",
            stats.avg_leaf_fill
        );
        d.tree().validate().unwrap();
    }

    #[test]
    fn workload_runs_and_counts() {
        let d = db(8192);
        degrade(&d, 2000, 64, 0.3, 3);
        let cfg = WorkloadConfig {
            readers: 2,
            updaters: 2,
            key_space: 3000,
            duration: Duration::from_millis(200),
            ..WorkloadConfig::default()
        };
        let stop = AtomicBool::new(false);
        let rep = run_workload(&d, &cfg, &stop);
        assert!(rep.total_ops() > 0);
        assert!(rep.throughput() > 0.0);
        d.tree().validate().unwrap();
    }
}
