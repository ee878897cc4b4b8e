//! The repository's benchmark: four workloads driven at fixed, paced
//! rates through the public client API, measured from outside.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line is the result
//! benchmark run   [--seed N] [--seconds S]                  every workload, end-to-end metrics
//! benchmark trace [--seed N] [--seconds S]                  every workload, per-layer metrics
//! benchmark aa    [--sets K] [--seed N] [--seconds S] [--out FILE]
//! benchmark manifest                                        BENCHMARK.json from the catalog
//! ```

mod aa;
mod audit;
pub mod catalog;
pub mod json;
mod load;
mod pace;
mod probe;
mod replay;
mod rng;
mod run;
mod spans;
mod stats;
mod sys;
mod system;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use crate::catalog::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::json::Json;
use crate::run::{RunArgs, RunResult};
use crate::system::{Spec, SPECS};

/// A run whose measured phase was not at the offered rate (a stall of the
/// host: this is a few cores of a shared machine) is not reported but made
/// again, in a process of its own so that CPU time and peak memory are
/// that attempt's alone: at most `ATTEMPTS` in all, and only while they
/// can all end within `TIME_LIMIT`.
const ATTEMPTS: u64 = 3;
const TIME_LIMIT: Duration = Duration::from_secs(150);

/// Options shared by every subcommand.
pub(crate) struct Options {
    pub workload: Option<&'static Spec>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Tenth-size preload, one set-up, and a run that misses its rate is
    /// still correct: for tests of the plumbing, not for numbers.
    pub smoke: bool,
    /// Runs per set of `aa`.
    pub sets: usize,
    /// Where `aa` writes its result.
    pub out: Option<PathBuf>,
    /// Where runs keep their WAL directories and span files.
    pub work_dir: PathBuf,
    /// Which attempt at this run the process is, and how long it and the
    /// attempts after it may take; set by the attempt before.
    attempt: u64,
    time_left: Duration,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        sets: 5,
        out: None,
        // Inside the checkout that built this binary.
        work_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work")),
        attempt: 1,
        time_left: TIME_LIMIT,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = Some(Spec::by_name(name).ok_or_else(|| {
                    let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {name:?}; one of {names:?}")
                })?);
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => {
                opts.seconds = number(value()?)?;
                if !(1..=60).contains(&opts.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                opts.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--sets" => opts.sets = number(value()?)?.max(2) as usize,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--work-dir" => opts.work_dir = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            "--attempt" => opts.attempt = number(value()?)?,
            "--time-left-ms" => opts.time_left = Duration::from_millis(number(value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn metrics_json(values: &[(&'static str, f64)], unit_of: impl Fn(&str) -> &'static str) -> Json {
    Json::obj(values.iter().map(|&(name, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }))
}

/// Prints one run for a reader, then the result line the driver parses.
fn report(spec: &Spec, opts: &Options, result: &RunResult) {
    println!(
        "{} seed={} seconds={} trace={}",
        spec.name, opts.seed, opts.seconds, opts.traced as u8
    );
    for note in &result.notes {
        println!("  note: {note}");
    }
    let metrics = if opts.traced {
        // Every catalogued per-layer metric is reported; a layer this
        // workload does not exercise reads 0.
        let values: Vec<(&'static str, f64)> = PER_LAYER
            .iter()
            .map(|def| {
                let value = result.per_layer.iter().find(|(n, _)| *n == def.name);
                (def.name, value.map_or(0.0, |&(_, v)| v))
            })
            .collect();
        for (name, value) in &values {
            println!("  {name:<44} {value:>14.3} {}", unit_of_layer(name));
        }
        metrics_json(&values, unit_of_layer)
    } else {
        for (name, value) in &result.end_to_end {
            println!("  {name:<44} {value:>14.4} {}", unit_of_e2e(name));
        }
        metrics_json(&result.end_to_end, unit_of_e2e)
    };
    println!(
        "  attempted={} failed={} correct={}",
        result.attempted, result.failed, result.correct
    );
    let line = Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_line());
}

fn unit_of_e2e(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(def, _)| def.name == name)
        .map_or("", |(def, _)| def.unit)
}

fn unit_of_layer(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|def| def.name == name)
        .map_or("", |def| def.unit)
}

/// One run of one workload, reported; or, if its measured phase was
/// invalid, handed on to a next attempt whose report stands for it.
fn one_run(
    spec: &'static Spec,
    opts: &Options,
    args: &[String],
    started: Instant,
) -> Result<bool, String> {
    let result = run::run(&RunArgs {
        spec,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        smoke: opts.smoke,
        work_dir: opts.work_dir.clone(),
        started,
    })?;
    // The next attempt may take half as long again as this one did.
    let took = started.elapsed();
    let time_left = opts.time_left.saturating_sub(took);
    match &result.invalid {
        Some(why) if !opts.smoke && opts.attempt < ATTEMPTS && took * 3 / 2 < time_left => {
            println!(
                "  note: attempt {} discarded and made again: {why}",
                opts.attempt
            );
            // Later flags override earlier ones; the child writes to this
            // process's standard output, its result line last.
            // It inherits this thread's CPUs: give it back all of them.
            let (harness, system) = system::cpu_split();
            sys::run_on(&[harness, system].concat());
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let status = Command::new(exe)
                .args(args)
                .args(["--attempt", &(opts.attempt + 1).to_string()])
                .args(["--time-left-ms", &time_left.as_millis().to_string()])
                .status()
                .map_err(|e| format!("starting the next attempt: {e}"))?;
            Ok(status.success())
        }
        _ => {
            report(spec, opts, &result);
            Ok(true)
        }
    }
}

/// The command line; `main` is only this.
pub fn cli_main() -> ExitCode {
    let started = Instant::now();
    sys::cap_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "aa" | "manifest")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let opts = match parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "manifest" => {
            print!("{}", catalog::manifest().to_pretty());
            Ok(true)
        }
        "run" => aa::run_all(&opts, false),
        "trace" => aa::run_all(&opts, true),
        "aa" => aa::run_aa(&opts),
        _ => match opts.workload {
            None => Err("--workload is required".to_string()),
            Some(spec) => one_run(spec, &opts, rest, started),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
