//! Turn repetitions (and, for a traced run, spans) into the named metrics,
//! and print them.

use std::collections::BTreeMap;

use crate::gen::Kind;
use crate::run::RepOut;
use crate::spec::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{band_mean, highest_supported, median, percentile};
use crate::trace::Trace;

/// One reported number: the value, and how many samples (for a
/// percentile) or repetitions (for a median) stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

pub type Metrics = BTreeMap<&'static str, Value>;

/// A repetition's value at the reference host's speed: times shrink or
/// stretch by the repetition's scale, rates the other way, counts stay.
fn at_reference_speed(unit: &str, v: f64, scale: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => v * scale,
        "1/s" => v / scale,
        _ => v,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

fn median_of(reps: &[RepOut], name: &str) -> Value {
    // The calibration time itself is the one time reported as measured.
    let unit = match name {
        "bench.calib_ns" => "",
        _ => unit_of(name),
    };
    let v: Vec<f64> = reps
        .iter()
        .filter_map(|r| Some(at_reference_speed(unit, *r.scalars.get(name)?, r.scale)))
        .collect();
    Value {
        value: median(&v),
        n: v.len(),
    }
}

/// `VmHWM` of this process in MiB; zero where `/proc` is not mounted.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run: each is the median over
/// repetitions of the per-repetition value. A latency statistic is taken
/// within each repetition first (`p50`: the median; `tail`: the mean of the
/// p99–p99.9 band, see `stats::band_mean`); `n` then counts the samples of
/// all repetitions.
pub fn end_to_end(reps: &[RepOut]) -> Metrics {
    let mut m = Metrics::new();
    for (kind, p50, tail) in [
        (Kind::Get, "get_p50_us", "get_tail_us"),
        (Kind::Put, "put_p50_us", "put_tail_us"),
        (Kind::Scan, "scan_p50_us", "scan_tail_us"),
    ] {
        let mut n = 0;
        let (mut p50s, mut tails) = (Vec::new(), Vec::new());
        for r in reps {
            let mut v = r.samples[kind as usize].clone();
            v.sort_unstable();
            n += v.len();
            p50s.push(percentile(&v, 0.50) as f64 * r.scale / 1e3);
            tails.push(band_mean(&v, 0.99, 0.999) * r.scale / 1e3);
        }
        for (name, per_rep) in [(p50, p50s), (tail, tails)] {
            let value = median(&per_rep);
            m.insert(name, Value { value, n });
        }
    }
    for def in END_TO_END {
        if def.name == "peak_rss_mb" {
            m.insert(
                def.name,
                Value {
                    value: peak_rss_mb(),
                    n: 1,
                },
            );
        } else if !m.contains_key(def.name) {
            m.insert(def.name, median_of(reps, def.name));
        }
    }
    m
}

fn med_ns(samples: &[u64]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// The per-layer metrics of a traced run. `reps[0]` ran untraced and
/// supplies every count, so that the probes of the traced repetitions do
/// not leak into them; times are medians of the spans the traced
/// repetitions recorded. A layer's self time is the median of its span
/// minus the median sum of its children one depth down.
pub fn per_layer(reps: &[RepOut], trace: &Trace) -> Metrics {
    let untraced = &reps[..1];
    let traced = &reps[1..];
    let span = |name: &str| med_ns(trace.durations(name));
    let n_of = |name: &str| trace.durations(name).len();
    // Whichever span is outermost for a GET on this workload.
    let top_get = if n_of("wire.get") > 0 {
        "wire.get"
    } else {
        "txn.read"
    };
    let txn_self = (span("txn.read") - span("engine.get>")).max(0.0);
    let server_get_self = (span("wire.get") - span("txn.read")).max(0.0);
    let budget = server_get_self
        + txn_self
        + ["db", "lock", "btree", "wal"]
            .iter()
            .map(|layer| span(&format!("engine.get>{layer}")))
            .sum::<f64>();
    let wal_force: Vec<u64> = ["engine.get>wal", "engine.put>wal", "engine.scan>wal"]
        .iter()
        .flat_map(|key| trace.durations(key).iter().copied())
        .collect();

    let mut m = Metrics::new();
    for def in PER_LAYER {
        let timed = |ns: f64, per: f64, spans: &str| Value {
            value: ns / per,
            n: n_of(spans),
        };
        let v = match def.name {
            "server.get_self_us" => timed(server_get_self, 1e3, "wire.get"),
            "server.put_self_us" => timed(
                (span("wire.put") - span("txn.put")).max(0.0),
                1e3,
                "wire.put",
            ),
            "txn.self_us" => timed(txn_self, 1e3, "engine.get>"),
            "wal.force_us" => Value {
                value: med_ns(&wal_force) / 1e3,
                n: wal_force.len(),
            },
            "reorg.pass1_s" | "reorg.pass2_s" | "reorg.pass3_s" => median_of(traced, def.name),
            "bench.calib_ns" => median_of(reps, def.name),
            // The same GET with its child spans recorded and without.
            "bench.trace_overhead" => match n_of("engine.get") {
                0 => Value { value: 1.0, n: 0 },
                n => Value {
                    value: span("engine.get") / span("txn.read").max(1.0),
                    n,
                },
            },
            "bench.get_budget_ratio" => timed(budget / span(top_get).max(1.0), 1.0, top_get),
            name => match SPAN_MEDIANS.iter().find(|(metric, _)| *metric == name) {
                Some((_, spans)) => {
                    let per = if def.unit == "us" { 1e3 } else { 1.0 };
                    timed(span(spans), per, spans)
                }
                None => median_of(untraced, def.name),
            },
        };
        m.insert(def.name, v);
    }
    m
}

/// Per-layer metrics that are the median duration of one span name.
const SPAN_MEDIANS: &[(&str, &str)] = &[
    ("server.codec_req_ns", "server.codec_req"),
    ("server.codec_resp_ns", "server.codec_resp"),
    ("server.ping_rtt_us", "server.ping"),
    ("admission.request_ns", "admission.request"),
    ("txn.read_us", "txn.read"),
    ("txn.insert_us", "txn.put"),
    ("txn.scan32_us", "txn.scan"),
    ("txn.empty_commit_us", "txn.empty_commit"),
    ("lock.pair_ns", "lock.pair"),
    ("btree.search_ns", "btree.search"),
    ("btree.insert_ns", "btree.insert"),
    ("btree.scan32_ns", "btree.range_scan"),
    ("buffer.fetch_hit_ns", "buffer.fetch_hit"),
    ("buffer.fetch_miss_us", "buffer.fetch_miss"),
    ("wal.append_ns", "wal.append"),
];

/// The highest percentile a repetition's samples of each latency class
/// support, for the operator.
pub fn supported_percentiles(reps: &[RepOut]) -> String {
    [(Kind::Get, "get"), (Kind::Put, "put"), (Kind::Scan, "scan")]
        .iter()
        .map(|(kind, name)| {
            let n = reps
                .iter()
                .map(|r| r.samples[*kind as usize].len())
                .min()
                .unwrap_or(0);
            match highest_supported(n) {
                Some(p) => format!("{name}: n>={n} per repetition, up to p{}", p * 100.0),
                None => format!("{name}: n>={n} per repetition, too few for any percentile"),
            }
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// One line per metric: name, value, unit, and the sample count.
pub fn print_table(defs: &[MetricDef], metrics: &Metrics) {
    for def in defs {
        let v = metrics[def.name];
        println!(
            "{:<28} {:>16.6} {:<9} n={}",
            def.name, v.value, def.unit, v.n
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The one JSON object the driver reads, on one line.
pub fn result_json(
    defs: &[MetricDef],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(metrics[d.name].value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
