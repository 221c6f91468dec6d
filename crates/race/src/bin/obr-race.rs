//! `obr-race` — deterministic interleaving explorer CLI.
//!
//! Runs the eight scripted concurrency scenarios under the model
//! scheduler, sweeping seeded-random schedules and (optionally) a
//! bounded exhaustive enumeration with DPOR-lite pruning, then checks
//! the observed lock-acquisition-order edges against the committed
//! manifest. Requires a model build:
//!
//! ```text
//! RUSTFLAGS="--cfg obr_model" cargo run -p obr-race -- [OPTIONS]
//! ```
//!
//! Options:
//!
//! - `--scenario NAME` — run one scenario instead of all eight
//! - `--seeds N` — random schedules per scenario (default 2500)
//! - `--seed-base S` — first seed of the sweep (default 1)
//! - `--exhaustive N` — additionally run up to N exhaustive
//!   (DPOR-pruned) schedules per scenario (default 0 = off)
//! - `--max-steps N` — per-run scheduling-decision budget
//! - `--min-distinct N` — fail unless the sweep covered at least N
//!   distinct schedules in total
//! - `--lockorder PATH` — diff observed lock-order edges against the
//!   manifest at PATH
//! - `--report PATH` — write the coverage report to PATH as well as
//!   stdout
//! - `--print-edges` — print every observed `(held -> acquired)` edge
//!   (the raw material for the manifest)
//! - `--replay-seed S` — replay one seed (requires `--scenario`) and
//!   dump its full trace
//! - `--list` — list scenarios and exit
//!
//! Exit codes: `0` clean; `1` a schedule failed (assertion, deadlock, or
//! panic — the failing seed/choices are printed); `2` distinct-schedule
//! coverage fell short of `--min-distinct`; `3` lock-order diff found
//! violations; `64` usage error; `65` not a model build.

use std::process::ExitCode;

/// Parsed command line; field meanings mirror the option list above.
struct Options {
    scenario: Option<String>,
    seeds: u64,
    seed_base: u64,
    exhaustive: u64,
    max_steps: usize,
    min_distinct: Option<u64>,
    lockorder: Option<String>,
    report: Option<String>,
    print_edges: bool,
    replay_seed: Option<u64>,
    list: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scenario: None,
            seeds: 2500,
            seed_base: 1,
            exhaustive: 0,
            max_steps: 20_000,
            min_distinct: None,
            lockorder: None,
            report: None,
            print_edges: false,
            replay_seed: None,
            list: false,
        }
    }
}

fn usage() {
    eprintln!(
        "usage: obr-race [--scenario NAME] [--seeds N] [--seed-base S] \
         [--exhaustive N] [--max-steps N] [--min-distinct N] \
         [--lockorder PATH] [--report PATH] [--print-edges] \
         [--replay-seed S] [--list]"
    );
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => o.scenario = Some(value("--scenario")?),
            "--seeds" => o.seeds = parse_num(&value("--seeds")?)?,
            "--seed-base" => o.seed_base = parse_num(&value("--seed-base")?)?,
            "--exhaustive" => o.exhaustive = parse_num(&value("--exhaustive")?)?,
            "--max-steps" => o.max_steps = parse_num(&value("--max-steps")?)? as usize,
            "--min-distinct" => o.min_distinct = Some(parse_num(&value("--min-distinct")?)?),
            "--lockorder" => o.lockorder = Some(value("--lockorder")?),
            "--report" => o.report = Some(value("--report")?),
            "--print-edges" => o.print_edges = true,
            "--replay-seed" => o.replay_seed = Some(parse_num(&value("--replay-seed")?)?),
            "--list" => o.list = true,
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("obr-race: {e}");
            usage();
            return ExitCode::from(64);
        }
    };
    run(opts)
}

#[cfg(not(obr_model))]
fn run(_opts: Options) -> ExitCode {
    eprintln!(
        "obr-race: this is not a model build; the deterministic scheduler \
         is compiled out.\nRebuild with: RUSTFLAGS=\"--cfg obr_model\" \
         cargo run -p obr-race -- ..."
    );
    ExitCode::from(65)
}

#[cfg(obr_model)]
fn run(opts: Options) -> ExitCode {
    model::run(opts)
}

#[cfg(obr_model)]
mod model {
    use super::Options;
    use obr_race::explore::{self, ExploreStats, Repro};
    use obr_race::scenarios::{self, Scenario};
    use std::collections::BTreeSet;
    use std::fmt::Write as _;
    use std::process::ExitCode;

    pub fn run(opts: Options) -> ExitCode {
        if opts.list {
            for s in scenarios::all() {
                println!("{:<28} {}", s.name, s.about);
            }
            return ExitCode::SUCCESS;
        }
        let chosen: Vec<Scenario> = match &opts.scenario {
            Some(name) => match scenarios::by_name(name) {
                Some(s) => vec![s],
                None => {
                    eprintln!("obr-race: unknown scenario {name:?} (try --list)");
                    return ExitCode::from(64);
                }
            },
            None => scenarios::all(),
        };

        if let Some(seed) = opts.replay_seed {
            return replay_one(&opts, &chosen, seed);
        }

        let mut out = String::new();
        let mut total = ExploreStats::default();
        let _ = writeln!(
            out,
            "obr-race sweep: seeds {}..{} per scenario, exhaustive budget {}, max steps {}",
            opts.seed_base,
            opts.seed_base + opts.seeds,
            opts.exhaustive,
            opts.max_steps,
        );
        for s in &chosen {
            let mut stats = explore::run_random(*s, opts.seed_base, opts.seeds, opts.max_steps);
            if stats.failure.is_none() && opts.exhaustive > 0 {
                let ex = explore::run_exhaustive(*s, opts.exhaustive, opts.max_steps);
                stats.merge(&ex);
            }
            let _ = writeln!(
                out,
                "{:<28} runs={:<6} distinct={:<6} pruned={:<6} step-limited={} \
                 edges={} avg-steps={}",
                s.name,
                stats.runs,
                stats.distinct.len(),
                stats.pruned,
                stats.step_limited,
                stats.edges.len(),
                stats.total_steps.checked_div(stats.runs).unwrap_or(0),
            );
            total.merge(&stats);
        }
        let _ = writeln!(
            out,
            "total: {} runs, {} distinct schedules, {} pruned branches",
            total.runs,
            total.distinct.len(),
            total.pruned,
        );

        let mut code = ExitCode::SUCCESS;

        if let Some(f) = &total.failure {
            let _ = writeln!(out, "FAILURE in scenario {}: {:?}", f.scenario, f.result);
            match &f.repro {
                Repro::Seed(s) => {
                    let _ = writeln!(
                        out,
                        "reproduce: obr-race --scenario {} --replay-seed {s}",
                        f.scenario
                    );
                }
                Repro::Choices(c) => {
                    let _ = writeln!(
                        out,
                        "reproduce: PrefixChooser over choices {c:?} (schedule hash {:#018x})",
                        f.schedule_hash
                    );
                }
            }
            code = ExitCode::from(1);
        }

        if opts.print_edges {
            let _ = writeln!(out, "observed lock-order edges (held -> acquired):");
            for (a, b) in &total.edges {
                let _ = writeln!(out, "  {a} -> {b}");
            }
        }

        if let Some(path) = &opts.lockorder {
            let observed: BTreeSet<(String, String)> = total
                .edges
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect();
            let report = obr_check::check_lock_order_file(std::path::Path::new(path), &observed);
            let _ = writeln!(out, "lock-order diff vs {path}:");
            let _ = write!(out, "{report}");
            if !report.is_clean() && code == ExitCode::SUCCESS {
                code = ExitCode::from(3);
            }
        }

        if let Some(min) = opts.min_distinct {
            if (total.distinct.len() as u64) < min && total.failure.is_none() {
                let _ = writeln!(
                    out,
                    "COVERAGE SHORTFALL: {} distinct schedules < required {min}",
                    total.distinct.len()
                );
                if code == ExitCode::SUCCESS {
                    code = ExitCode::from(2);
                }
            }
        }

        print!("{out}");
        if let Some(path) = &opts.report {
            if let Err(e) = std::fs::write(path, &out) {
                eprintln!("obr-race: cannot write report {path}: {e}");
            }
        }
        code
    }

    fn replay_one(opts: &Options, chosen: &[Scenario], seed: u64) -> ExitCode {
        if chosen.len() != 1 {
            eprintln!("obr-race: --replay-seed needs --scenario");
            return ExitCode::from(64);
        }
        let s = chosen[0];
        let report = explore::replay(s, &Repro::Seed(seed), opts.max_steps);
        println!(
            "replay {} seed {seed}: {:?} in {} steps (schedule hash {:#018x})",
            s.name, report.result, report.steps, report.schedule_hash
        );
        for ev in &report.trace {
            println!("  {ev:?}");
        }
        if report.result.is_complete() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}
