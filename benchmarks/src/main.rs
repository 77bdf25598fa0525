//! Command line of the perf ledger; `benchmarks/run.sh` builds and calls it.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run in this
//!   process: every metric by name, a `detail` line, and the result object
//!   as the last line of standard output.
//! * without `--trace` — the full ledger: each workload (or the one named)
//!   runs timed and traced, **each in its own child process** so peak RSS
//!   and allocator state are clean, and one results file is written.
//! * `--compare A B` — compares two sets of results files (each a file
//!   or a comma-separated list of files, one per run); exit 1 on a
//!   regression.

use serde_json::Value;
use stayaway_benchmarks::harness::{run_timed, run_traced, Plan};
use stayaway_benchmarks::report;
use stayaway_benchmarks::spec::{is_workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--results-dir DIR] | --compare A.json[,A2.json...] B.json[,...]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    results_dir: PathBuf,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: None,
        out: None,
        results_dir: PathBuf::from("benchmarks/results"),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !is_workload(name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown workload `{name}` (expected one of {})",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {seconds}"
                    ));
                }
                args.seconds = seconds;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--results-dir" => args.results_dir = PathBuf::from(value()?),
            "--compare" => {
                let mut set = || Ok::<_, String>(value()?.split(',').map(PathBuf::from).collect());
                args.compare = Some((set()?, set()?));
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err(format!("--trace needs --workload\n{USAGE}"));
    }
    Ok(args)
}

/// One run in this process. Returns whether the run was correct.
fn run_single(name: &str, traced: bool, args: &Args) -> Result<bool, String> {
    println!(
        "workload {name}  seed {}  trace {}",
        args.seed,
        u8::from(traced)
    );
    if traced {
        let plan = Plan::traced(args.seconds);
        let report = run_traced(name, args.seed, plan, Some(&args.results_dir))?;
        print!("{}", report::metric_lines(PER_LAYER, &report.metrics));
        println!(
            "  {} rounds, {} spans in the fastest traced pass, {:.4} of its wall accounted for",
            report.rounds, report.spans, report.accounted
        );
        report
            .failures
            .iter()
            .for_each(|f| println!("FAILED CHECK: {f}"));
        println!("detail {}", report::traced_detail(&report).to_json());
        println!(
            "{}",
            report::result_line(
                report.correct,
                report.attempted,
                report.failed,
                PER_LAYER,
                &report.metrics
            )
        );
        Ok(report.correct)
    } else {
        let report = run_timed(name, args.seed, Plan::timed(args.seconds))?;
        print!("{}", report::metric_lines(END_TO_END, &report.metrics));
        for (unit, rate) in &report.derived {
            println!("  {unit:<34} {rate:>16.6} 1/s (derived)");
        }
        println!(
            "  {} of {} periods failed; {} passes of {} segments, whole passes took \
             {:.3} s at best, {:.3} s in the median",
            report.failed,
            report.attempted,
            report.shape.0,
            report.shape.1,
            report.pass_work.min,
            report.pass_work.median,
        );
        report
            .failures
            .iter()
            .for_each(|f| println!("FAILED CHECK: {f}"));
        println!("detail {}", report::timed_detail(&report).to_json());
        println!(
            "{}",
            report::result_line(
                report.correct,
                report.attempted,
                report.failed,
                END_TO_END,
                &report.metrics
            )
        );
        Ok(report.correct)
    }
}

/// Runs this binary again for one workload and one mode, echoes what it
/// printed, and returns its result object and detail object.
fn run_child(name: &str, traced: bool, args: &Args) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--results-dir")
        .arg(&args.results_dir)
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let parse = |line: Option<&str>, what: &str| {
        line.ok_or_else(|| format!("{name}: child printed no {what}"))
            .and_then(|l| serde_json::from_str::<Value>(l).map_err(|e| format!("{name}: {e}")))
    };
    let result = parse(lines.pop(), "result line")?;
    let detail = parse(
        lines.pop().and_then(|l| l.strip_prefix("detail ")),
        "detail line",
    )?;
    lines.iter().for_each(|l| println!("{l}"));
    if !output.status.success() {
        println!("{name}: child exited with {}", output.status);
    }
    Ok((result, detail))
}

/// The full ledger: every selected workload timed and traced in child
/// processes, one results file. Returns whether every run was correct.
fn run_ledger(args: &Args) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != *name) {
            continue;
        }
        let (timed_result, timed_detail) = run_child(name, false, args)?;
        let (traced_result, traced_detail) = run_child(name, true, args)?;
        let entry = report::workload_entry(
            name,
            (&timed_result, &timed_detail),
            (&traced_result, &traced_detail),
        )?;
        all_correct &= entry.get("correct") == Some(&Value::Bool(true));
        entries.push(entry);
    }
    let out = args.out.clone().unwrap_or_else(|| {
        args.results_dir
            .join(format!("results-seed{}.json", args.seed))
    });
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = report::results_file(args.seed, args.seconds, entries);
    std::fs::write(&out, file.to_json_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}

/// Reads one set of results files, one per run.
fn read_results(paths: &[PathBuf]) -> Result<Vec<Value>, String> {
    let read = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    paths.iter().map(read).collect()
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if let Some((a, b)) = &args.compare {
        let (text, regressed) = report::compare(&read_results(a)?, &read_results(b)?)?;
        print!("{text}");
        return Ok(!regressed);
    }
    match (&args.workload, args.trace) {
        (Some(name), Some(traced)) => run_single(name, traced, &args),
        _ => run_ledger(&args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
