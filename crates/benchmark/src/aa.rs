//! Subcommands that run every workload, each run a child process of this
//! binary so that CPU time and peak memory belong to one run alone.

use std::process::Command;

use crate::catalog::{Better, END_TO_END};
use crate::json::Json;
use crate::stats::{median_f64, quartiles};
use crate::sys;
use crate::system::{Spec, SPECS};
use crate::Options;

/// One child run's result line.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn child(spec: &Spec, opts: &Options, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&opts.work_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} run failed ({}): {}",
            spec.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    for line in stdout.lines().filter(|l| l.starts_with("  note:")) {
        println!("{line}");
    }
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let field = |name: &str| {
        json.get(name)
            .ok_or_else(|| format!("result line lacks {name}"))
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(ChildRun {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// `benchmark run` and `benchmark trace`: one run of every workload.
pub fn run_all(opts: &Options, traced: bool) -> Result<bool, String> {
    let mut all_correct = true;
    for spec in opts.workload.map_or(SPECS.iter().collect(), |s| vec![s]) {
        let run = child(spec, opts, opts.seed, traced)?;
        println!(
            "{}  attempted={} failed={} correct={}",
            spec.name, run.attempted, run.failed, run.correct
        );
        for (name, value, unit) in &run.metrics {
            println!("  {name:<44} {value:>14.4} {unit}");
        }
        all_correct &= run.correct;
    }
    Ok(all_correct)
}

/// `benchmark aa`: two interleaved sets of runs of this same build. Each
/// metric's two medians must agree within its bound, or a bound that
/// tight would reject an unchanged program.
pub fn run_aa(opts: &Options) -> Result<bool, String> {
    let specs: Vec<&Spec> = opts.workload.map_or(SPECS.iter().collect(), |s| vec![s]);
    let mut breaches = 0;
    let mut workloads_json = Vec::new();
    for spec in specs {
        // values[set][metric] = one value per valid run
        let mut values = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        let mut invalid = 0;
        for i in 0..opts.sets * 2 {
            // A B A B …, every run on a seed of its own.
            let run = child(spec, opts, opts.seed + i as u64, false)?;
            if !run.correct {
                invalid += 1;
                continue;
            }
            for (m, (def, _)) in END_TO_END.iter().enumerate() {
                let value = run.metrics.iter().find(|(n, _, _)| n == def.name);
                values[i % 2][m].push(value.map_or(f64::NAN, |(_, v, _)| *v));
            }
        }
        println!(
            "{}  ({} runs per set, {invalid} invalid and left out)",
            spec.name, opts.sets
        );
        println!(
            "  {:<20} {:>12} {:>12} {:>7} {:>7} {:>7} {:>6}",
            "metric", "first", "second", "gap", "spread", "bound", ""
        );
        let mut metrics_json = Vec::new();
        for (m, (def, bound)) in END_TO_END.iter().enumerate() {
            let [first, second] = &mut values;
            let (a, b) = (median_f64(&mut first[m]), median_f64(&mut second[m]));
            // How much worse the second set reads than the first.
            let gap = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let mut both: Vec<f64> = first[m].iter().chain(&second[m]).copied().collect();
            let (q1, q3) = quartiles(&mut both);
            let spread = (q3 - q1) / median_f64(&mut both);
            let breach = gap.abs() > *bound || (def.name != "setup_s" && spread > *bound);
            breaches += breach as usize;
            println!(
                "  {:<20} {a:>12.4} {b:>12.4} {:>6.1}% {:>6.1}% {:>6.1}% {:>6}",
                def.name,
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                if breach { "BREACH" } else { "" }
            );
            metrics_json.push(Json::obj([
                ("name", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("first_median", Json::Num(a)),
                ("second_median", Json::Num(b)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("gap", Json::Num(gap)),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(*bound)),
                ("breach", Json::Bool(breach)),
                (
                    "first",
                    Json::Arr(first[m].iter().map(|&v| Json::Num(v)).collect()),
                ),
                (
                    "second",
                    Json::Arr(second[m].iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]));
        }
        workloads_json.push(Json::obj([
            ("workload", Json::str(spec.name)),
            ("invalid_runs", Json::Num(invalid as f64)),
            ("metrics", Json::Arr(metrics_json)),
        ]));
    }
    if let Some(path) = &opts.out {
        let mut fields: Vec<(&str, Json)> = sys::machine_info(&opts.work_dir)
            .into_iter()
            .map(|(k, v)| (k, Json::Str(v)))
            .collect();
        fields.push(("first_seed", Json::Num(opts.seed as f64)));
        fields.push(("seconds", Json::Num(opts.seconds as f64)));
        fields.push(("runs_per_set", Json::Num(opts.sets as f64)));
        fields.push(("breaches", Json::Num(breaches as f64)));
        fields.push(("workloads", Json::Arr(workloads_json)));
        std::fs::write(path, Json::obj(fields).to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{breaches} breaches");
    Ok(breaches == 0)
}
