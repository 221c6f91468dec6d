//! Every workload end to end at `--smoke` scale: seconds in total, so
//! `cargo test --manifest-path benchmark/Cargo.toml` stays a quick gate.

use std::collections::BTreeMap;

use crate::report::{end_to_end, per_layer, result_json};
use crate::run::{run_rep, Backend, RepOut};
use crate::selfcheck::check_result_line;
use crate::spec::{workloads, Workload, END_TO_END, PER_LAYER};
use crate::trace::Trace;
use crate::{check_parallelism, parse_args};

fn smoke(name: &str) -> Workload {
    workloads()
        .iter()
        .find(|w| w.name == name)
        .expect("workload exists")
        .smoke()
}

fn untraced(w: &Workload, seed: u64) -> RepOut {
    run_rep(w, seed, &Backend::Ram, None, false, None).expect("repetition runs")
}

#[test]
fn every_workload_verifies_and_prints_every_end_to_end_metric_once() {
    for w in workloads() {
        let rep = untraced(&w.smoke(), 11);
        assert_eq!(rep.mismatches, 0, "{}: {:?}", w.name, rep.notes);
        assert_eq!(rep.failed, 0, "{}", w.name);
        let metrics = end_to_end(std::slice::from_ref(&rep));
        let line = result_json(END_TO_END, &metrics, true, rep.attempted, rep.failed);
        check_result_line(&line, END_TO_END).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for def in END_TO_END {
            // A bound is a share of the metric, so none may be zero.
            assert!(
                metrics[def.name].value > 0.0,
                "{}: {} is zero",
                w.name,
                def.name
            );
        }
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric_once() {
    for w in workloads() {
        let w = w.smoke();
        let mut trace = Trace::new();
        let first = untraced(&w, 5);
        let second = run_rep(&w, 5, &Backend::Ram, Some(&mut trace), false, None).expect("traced");
        assert!(!trace.spans.is_empty());
        trace.close_rep(second.scale);
        assert_eq!(second.mismatches, 0, "{}: {:?}", w.name, second.notes);
        let metrics = per_layer(&[first, second], &trace);
        let line = result_json(PER_LAYER, &metrics, true, 1, 0);
        check_result_line(&line, PER_LAYER).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(metrics["bench.trace_overhead"].value > 0.0);
    }
}

#[test]
fn traced_gets_are_accounted_for_by_their_layers() {
    // Entering at depth 2 spells out what a Session does; if the spelled
    // out sequence drifted from the engine's own, the budget would not
    // close. Smoke-sized samples are few, so the tolerance is wide; the
    // full-size figure is in the README.
    let w = smoke("wire-read");
    let mut trace = Trace::new();
    let first = untraced(&w, 9);
    let second = run_rep(&w, 9, &Backend::Ram, Some(&mut trace), false, None).expect("traced");
    trace.close_rep(second.scale);
    let ratio = per_layer(&[first, second], &trace)["bench.get_budget_ratio"].value;
    assert!((0.6..1.4).contains(&ratio), "GET budget ratio {ratio}");
}

/// The counts that must repeat exactly under one seed.
fn exact_counts(rep: &RepOut) -> BTreeMap<&'static str, f64> {
    rep.scalars
        .iter()
        .filter(|(name, _)| {
            matches!(
                **name,
                "fsyncs_per_op" | "write_amp" | "space_amp" | "scan_reads_per_krecord"
            ) || (name.starts_with("recovery.") && !name.ends_with("_s"))
        })
        .map(|(k, v)| (*k, *v))
        .collect()
}

#[test]
fn one_seed_gives_the_same_counts_twice_and_another_seed_other_counts() {
    for name in ["wire-read", "wire-write", "inproc-evict", "crash-recover"] {
        let w = smoke(name);
        let (a, b) = (untraced(&w, 21), untraced(&w, 21));
        assert_eq!(exact_counts(&a), exact_counts(&b), "{name}");
        assert_eq!(exact_counts(&a).len(), 8, "{name}: {:?}", exact_counts(&a));
    }
    let w = smoke("wire-write");
    assert_ne!(
        exact_counts(&untraced(&w, 21)),
        exact_counts(&untraced(&w, 22))
    );
}

#[test]
fn a_key_dropped_from_the_model_fails_verification() {
    let w = smoke("crash-recover");
    let rep = run_rep(&w, 3, &Backend::Ram, None, true, None).expect("repetition runs");
    assert!(rep.mismatches > 0);
    assert!(
        rep.notes.iter().any(|n| n.contains("never acknowledged")),
        "{:?}",
        rep.notes
    );
}

#[test]
fn files_on_disk_give_the_same_counts_as_ram() {
    let w = smoke("crash-recover");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".test_data")
        .join(format!("{}", std::process::id()));
    let on_files = run_rep(&w, 4, &Backend::Dir(dir.clone()), None, false, None).expect("durable");
    let _ = std::fs::remove_dir_all(dir.parent().expect("has a parent"));
    assert_eq!(on_files.mismatches, 0, "{:?}", on_files.notes);
    assert!(on_files.scalars["wal.on_disk_bytes"] > 0.0);
    assert_eq!(exact_counts(&on_files), exact_counts(&untraced(&w, 4)));
}

#[test]
fn more_busy_threads_than_hardware_threads_is_refused() {
    let two = smoke("reorg-under-load");
    assert_eq!(two.busy_threads(), 2);
    assert!(check_parallelism(&two, 1).is_err());
    assert!(check_parallelism(&two, 2).is_ok());
    assert!(check_parallelism(&smoke("crash-recover"), 1).is_ok());
}

#[test]
fn the_drivers_command_line_parses() {
    let argv: Vec<String> = "--workload wire-read --seed 7 --seconds 3 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let a = parse_args(&argv).expect("parses");
    assert_eq!(a.workload.as_deref(), Some("wire-read"));
    assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    assert!(parse_args(&["--trace".into(), "yes".into()]).is_err());
    assert!(parse_args(&["--bogus".into()]).is_err());
}
