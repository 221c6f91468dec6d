//! The repository benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! obr-benchmark --workload W --seed S --seconds N --trace 0|1
//!               [--smoke] [--dir D] [--sabotage]
//! ```
//!
//! Standard output ends with one JSON object per workload run:
//! `{"correct", "attempted", "failed", "metrics"}`. The metrics are the
//! end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`. The exit status is nonzero when an answer or a checker
//! disagreed, when more than 1 % of attempts failed, or when the workload
//! needs more busy threads than the machine has.

mod fg;
mod gen;
mod pin;
mod report;
mod run;
mod selfcheck;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use crate::run::{run_rep, Backend, RepOut};
use crate::spec::{workloads, Workload, END_TO_END, PER_LAYER};
use crate::trace::Trace;

/// Repetitions an untraced run makes at least, so that `setup_s` and every
/// per-repetition value is a median of several.
const MIN_REPS: usize = 3;
/// Where a traced run leaves `trace-<workload>.json`, relative to the
/// working directory (the checkout, when the driver runs the benchmark).
const OUT_DIR: &str = ".bench_out";
/// Share of attempts that may fail before the run itself fails.
const MAX_FAIL_RATIO: f64 = 0.01;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sabotage: bool,
    /// `--dir`: keep durable databases here instead of in RAM.
    dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        sabotage: false,
        dir: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--dir" => a.dir = Some(PathBuf::from(value("a path")?)),
            "--smoke" => a.smoke = true,
            "--sabotage" => a.sabotage = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// Refuse, rather than warn, when the workload would time-slice: its
/// numbers would not mean what their names say.
fn check_parallelism(w: &Workload, available: usize) -> Result<(), String> {
    if w.busy_threads() > available {
        return Err(format!(
            "{} keeps {} threads busy but only {available} hardware threads are available",
            w.name,
            w.busy_threads()
        ));
    }
    Ok(())
}

/// File-system type of the mount that holds `dir`, from `/proc/mounts`.
/// Every commit fsyncs, so the numbers are this device's.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, ty)| ty)
}

/// Run one workload; the result line, and whether the run passed.
fn run_workload(w: &Workload, a: &Args) -> Result<(String, bool), String> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    check_parallelism(w, hw)?;
    let w = if a.smoke { w.smoke() } else { w.clone() };
    // Checked above against the whole machine; only now narrow this
    // thread, and the threads it spawns, to one CPU (see `pin`).
    let pinned = pin::pin_to_current_cpu();
    if let Some(dir) = &a.dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    println!(
        "# {} seed={} seconds={} trace={} smoke={} hw_threads={hw} busy_threads={} pinned_cpu={pinned:?} backend={}",
        w.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        a.smoke,
        w.busy_threads(),
        a.dir.as_deref().map_or("ram".into(), fs_type),
    );
    println!("# why: {}", w.why);

    let (min_reps, seconds) = match (a.smoke, a.trace) {
        (true, false) => (1, 0.0),
        (true, true) => (2, 0.0),
        (false, false) => (MIN_REPS, a.seconds),
        // One untraced repetition for the counts, then traced ones.
        (false, true) => (2, a.seconds),
    };
    let mut trace = Trace::new();
    let mut reps: Vec<RepOut> = Vec::new();
    let started = Instant::now();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let backend = match &a.dir {
            None => Backend::Ram,
            Some(dir) => Backend::Dir(dir.join(format!("{}-{}", std::process::id(), reps.len()))),
        };
        let tracing = a.trace && !reps.is_empty();
        let first_traced = tracing && reps.len() == 1;
        let rep = run_rep(
            &w,
            a.seed,
            &backend,
            tracing.then_some(&mut trace),
            a.sabotage,
            pinned,
        );
        if let Backend::Dir(dir) = &backend {
            let _ = std::fs::remove_dir_all(dir);
        }
        let rep = rep?;
        if first_traced {
            // Repetitions are identical, so one of them is the whole story.
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            let path = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name));
            trace
                .write_json(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "# {} spans of the first traced repetition in {}",
                trace.spans.len(),
                path.display()
            );
        }
        if tracing {
            trace.close_rep(rep.scale);
        }
        reps.push(rep);
    }

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mismatches: u64 = reps.iter().map(|r| r.mismatches).sum();
    for note in reps.iter().flat_map(|r| &r.notes).take(8) {
        println!("# MISMATCH {note}");
    }
    let (defs, metrics) = if a.trace {
        (PER_LAYER, report::per_layer(&reps, &trace))
    } else {
        (END_TO_END, report::end_to_end(&reps))
    };
    println!(
        "# repetitions={} {}",
        reps.len(),
        report::supported_percentiles(&reps)
    );
    for r in &reps {
        println!(
            "# rep as measured: calib_ns={:.0} ops_per_s={:.0} setup_s={:.4} scale={:.4}",
            r.scalars["bench.calib_ns"], r.scalars["ops_per_s"], r.scalars["setup_s"], r.scale
        );
    }
    report::print_table(defs, &metrics);
    let correct = mismatches == 0;
    let line = report::result_json(defs, &metrics, correct, attempted.max(1), failed);
    selfcheck::check_result_line(&line, defs)?;
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    if fail_ratio > MAX_FAIL_RATIO {
        println!("# FAILED {failed} of {attempted} attempts");
    }
    Ok((line, correct && fail_ratio <= MAX_FAIL_RATIO))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = selfcheck::check_contract(selfcheck::BENCHMARK_JSON) {
        eprintln!("error: BENCHMARK.json and this program disagree: {e}");
        return ExitCode::from(2);
    }
    let all = workloads();
    let Some(name) = &args.workload else {
        // Every workload in a process of its own: each pins itself and
        // reports its own peak memory.
        let exe = std::env::current_exe().expect("own path");
        let ok = all.iter().fold(true, |ok, w| {
            let status = std::process::Command::new(&exe)
                .args(&argv)
                .args(["--workload", w.name])
                .status();
            ok & status.is_ok_and(|s| s.success())
        });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    };
    let Some(w) = all.iter().find(|w| w.name == name) else {
        eprintln!("error: no workload '{name}'");
        return ExitCode::from(2);
    };
    let ok = match run_workload(w, &args) {
        Ok((line, ok)) => {
            println!("{line}");
            ok
        }
        Err(e) => {
            eprintln!("error: {}: {e}", w.name);
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
