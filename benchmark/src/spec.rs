//! What the benchmark runs and what it reports: the five workloads and
//! the metric tables. `BENCHMARK.json` at the repository root names the
//! same workloads and metrics; `selfcheck` holds the two together.

use crate::gen::Mix;

/// Where the foreground enters the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Entry {
    /// One TCP client against `obr-server` (client thread + its server
    /// session thread).
    Wire,
    /// An in-process `Session` on the calling thread.
    Session,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub entry: Entry,
    /// Even keys bulk-loaded at set-up.
    pub loaded: u64,
    pub load_fill: f64,
    /// Set-up also inserts every odd key, then deletes a seeded subset of
    /// all keys until the leaves average [`CHURN_FILL`].
    pub churn: bool,
    pub pool_frames: usize,
    pub disk_pages: u32,
    pub mix: Mix,
    /// Timed operations per repetition.
    pub ops: u64,
    pub warm_ops: u64,
    /// The reorganizer runs on its own thread during the timed phase.
    /// `ops` is sized to outlast it; only operations that complete while
    /// it is live count towards latency and throughput.
    pub reorg_under_load: bool,
    /// Crash a reorganizer at its n-th `BeforeModify` site before the
    /// simulated power failure, so recovery has a unit to finish forward.
    pub fail_point: Option<u64>,
}

/// Average leaf fill the churned tree is deleted down to.
pub const CHURN_FILL: f64 = 0.30;
/// Inserts of the transaction left open at the crash.
pub const LOSER_INSERTS: u64 = 100;

impl Workload {
    /// Threads that are busy at once; the benchmark refuses to run with
    /// fewer hardware threads than this.
    pub fn busy_threads(&self) -> usize {
        if self.entry == Entry::Wire || self.reorg_under_load {
            2
        } else {
            1
        }
    }

    /// Keys the model must cover: loaded evens, fresh odds, the scan
    /// overhang, and the loser transaction's keys above them all.
    pub fn key_space(&self) -> u64 {
        self.loser_base() + LOSER_INSERTS
    }

    pub fn loser_base(&self) -> u64 {
        2 * self.loaded + 2 * crate::gen::SCAN_ROWS
    }

    /// The same workload at a twentieth of the size, for tests and the
    /// `--smoke` self-check.
    pub fn smoke(&self) -> Workload {
        Workload {
            loaded: self.loaded / 20,
            pool_frames: (self.pool_frames / 20).max(64),
            disk_pages: self.disk_pages / 4,
            ops: self.ops / 20,
            warm_ops: self.warm_ops / 20,
            fail_point: self.fail_point.map(|n| n / 20),
            ..self.clone()
        }
    }
}

const fn mix(get: u8, write: u8, scan: u8, fresh: u8, delete: u8) -> Mix {
    Mix {
        get,
        write,
        scan,
        fresh_of_writes: fresh,
        delete_of_writes: delete,
    }
}

pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "wire-read",
            why: "Read-mostly over TCP on a tree that fits the pool: server, admission, txn, lock and btree descent work; wal, eviction and reorg should idle, yet every read commit forces the log",
            entry: Entry::Wire,
            loaded: 200_000,
            load_fill: 0.9,
            churn: false,
            pool_frames: 16_384,
            disk_pages: 8_192,
            mix: mix(87, 3, 10, 0, 0),
            ops: 40_000,
            warm_ops: 2_000,
            reorg_under_load: false,
            fail_point: None,
        },
        Workload {
            name: "wire-write",
            why: "Autocommit PUTs over TCP, half fresh keys that split leaves and half overwrites: wal append and force, btree insert and split, buffer dirtying; the same layers as wire-read used the other way",
            entry: Entry::Wire,
            loaded: 200_000,
            load_fill: 0.9,
            churn: false,
            pool_frames: 16_384,
            disk_pages: 8_192,
            mix: mix(3, 94, 3, 50, 0),
            ops: 40_000,
            warm_ops: 2_000,
            reorg_under_load: false,
            fail_point: None,
        },
        Workload {
            name: "inproc-evict",
            why: "In-process sessions on a tree nine times the pool: buffer eviction, disk reads and WAL-before-data flushes of dirty victims work; the server is bypassed",
            entry: Entry::Session,
            loaded: 200_000,
            load_fill: 0.9,
            churn: false,
            pool_frames: 512,
            disk_pages: 8_192,
            mix: mix(77, 20, 3, 0, 0),
            ops: 100_000,
            warm_ops: 5_000,
            reorg_under_load: false,
            fail_point: None,
        },
        Workload {
            name: "reorg-under-load",
            why: "The paper's claim: all three passes reorganize a churned 0.30-fill tree while a session reads and updates it; reorg time, foreground tail under RX/R locks and the side file, fill and scan cost after",
            entry: Entry::Session,
            loaded: 100_000,
            load_fill: 0.85,
            churn: true,
            pool_frames: 16_384,
            disk_pages: 8_192,
            mix: mix(72, 20, 8, 0, 0),
            ops: 24_000,
            warm_ops: 500,
            reorg_under_load: true,
            fail_point: None,
        },
        Workload {
            name: "crash-recover",
            why: "Durability and Forward Recovery: autocommit writes with no checkpoint, an open loser transaction, a reorganizer killed mid-unit, half the dirty pages and the log tail lost, then a timed restart",
            entry: Entry::Session,
            loaded: 100_000,
            load_fill: 0.45,
            churn: false,
            pool_frames: 16_384,
            disk_pages: 8_192,
            mix: mix(3, 94, 3, 50, 25),
            ops: 100_000,
            warm_ops: 2_000,
            reorg_under_load: false,
            fail_point: Some(200),
        },
    ]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the database sees; printed by an untraced run. Every one
/// is defined, and never zero, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    hi("ops_per_s", "1/s"),
    lo("get_p50_us", "us"),
    lo("get_tail_us", "us"),
    lo("put_p50_us", "us"),
    lo("put_tail_us", "us"),
    lo("scan_p50_us", "us"),
    lo("scan_tail_us", "us"),
    hi("success_ratio", "ratio"),
    lo("fsyncs_per_op", "1/op"),
    lo("write_amp", "ratio"),
    lo("space_amp", "ratio"),
    lo("scan_reads_per_krecord", "pages"),
    lo("reorg_s", "s"),
    lo("recovery_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Single-layer numbers; printed by a traced run. The layer is the part
/// of the name before the dot and is a crate or module of the engine.
pub const PER_LAYER: &[MetricDef] = &[
    lo("server.codec_req_ns", "ns"),
    lo("server.codec_resp_ns", "ns"),
    lo("server.ping_rtt_us", "us"),
    lo("server.get_self_us", "us"),
    lo("server.put_self_us", "us"),
    lo("server.busy_retries", "count"),
    lo("admission.request_ns", "ns"),
    lo("admission.shed", "count"),
    lo("txn.read_us", "us"),
    lo("txn.insert_us", "us"),
    lo("txn.scan32_us", "us"),
    lo("txn.empty_commit_us", "us"),
    lo("txn.self_us", "us"),
    lo("txn.restarts", "count"),
    lo("lock.pair_ns", "ns"),
    lo("lock.grants_waited", "count"),
    lo("lock.wait_ns_total", "ns"),
    lo("lock.forgone_rx", "count"),
    lo("lock.rs_instant_grants", "count"),
    lo("lock.deadlocks", "count"),
    lo("btree.search_ns", "ns"),
    lo("btree.insert_ns", "ns"),
    lo("btree.scan32_ns", "ns"),
    lo("btree.fetches_per_search", "count"),
    lo("btree.height", "count"),
    lo("btree.leaf_pages", "count"),
    hi("btree.fill_permille", "permille"),
    lo("btree.discontinuities", "count"),
    lo("buffer.fetch_hit_ns", "ns"),
    lo("buffer.fetch_miss_us", "us"),
    hi("buffer.hit_ratio", "ratio"),
    lo("buffer.evictions", "count"),
    lo("buffer.flushes", "count"),
    lo("disk.reads", "count"),
    lo("disk.writes", "count"),
    lo("disk.syncs", "count"),
    lo("disk.scan_seek_per_read", "pages"),
    lo("wal.append_ns", "ns"),
    lo("wal.force_us", "us"),
    lo("wal.appends", "count"),
    lo("wal.append_bytes", "bytes"),
    lo("wal.syncs", "count"),
    hi("wal.records_per_batch", "count"),
    lo("wal.group_waits", "count"),
    lo("wal.segments_peak", "count"),
    lo("wal.on_disk_bytes", "bytes"),
    lo("reorg.pass1_s", "s"),
    lo("reorg.pass2_s", "s"),
    lo("reorg.pass3_s", "s"),
    lo("reorg.units", "count"),
    lo("reorg.units_copy_switch", "count"),
    lo("reorg.units_inplace", "count"),
    lo("reorg.swaps", "count"),
    lo("reorg.moves", "count"),
    lo("reorg.records_moved", "count"),
    hi("reorg.pages_freed", "count"),
    lo("reorg.deadlock_retries", "count"),
    lo("reorg.units_undone", "count"),
    lo("reorg.side_entries_applied", "count"),
    lo("reorg.side_file_peak", "count"),
    lo("reorg.log_bytes", "bytes"),
    lo("reorg.syncs", "count"),
    lo("reorg.us_per_record_moved", "us"),
    lo("recovery.open_s", "s"),
    lo("recovery.recover_s", "s"),
    lo("recovery.redo_applied", "count"),
    lo("recovery.losers_undone", "count"),
    lo("recovery.forward_units", "count"),
    lo("recovery.clrs_written", "count"),
    lo("db.checkpoint_ms", "ms"),
    lo("check.verify_s", "s"),
    lo("check.findings", "count"),
    lo("bench.calib_ns", "ns"),
    hi("bench.trace_overhead", "ratio"),
    lo("bench.get_budget_ratio", "ratio"),
    lo("bench.fail_ratio", "ratio"),
    lo("bench.threads", "count"),
];
