//! `urbench`: the repository's one benchmark.
//!
//! ```text
//! urbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! urbench all [--seed <n>] [--seconds <s>] [--runs <k>]
//! urbench trace-summary <workload>
//! urbench --smoke
//! ```
//!
//! The first form is one run of one workload and ends with one JSON
//! line (`correct`, `attempted`, `failed`, `metrics`): the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `all` runs every workload in a child process of its own and writes
//! `results.json` for `compare.py`. See `README.md`.

mod measure;
mod run;
mod trace;
mod workloads;

use run::{Limit, Metric, Outcome, RunOpts, SETUP_REPS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::{Breakdown, Layer, LAYERS};
use urel_server::{json, Json};
use workloads::{Spec, SPECS};

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 1;

/// Where trace files, `results.json` and disk-store scratch go.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("urbench")
}

/// Make the engine's configuration the same everywhere: no `RELALG_*`
/// knob survives, one worker (two are slower than one on two cores, so
/// more would measure the scheduler), and the disk store's scratch
/// files land under `out` and not in the system's temporary directory.
/// Must run before any thread starts and before the engine reads its
/// defaults.
fn scrub_env(out: &Path) -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RELALG_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("RELALG_THREADS", "1");
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let tmp = tmp.canonicalize().map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", tmp);
    Ok(())
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<32} {value:>16.4} {unit}");
}

/// One run of one workload; the last line printed is the result.
fn single(spec: &Spec, opts: &RunOpts) -> Result<(), String> {
    let outcome = run::run(spec, opts)?;
    let metrics = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    if let Some((name, _, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a number"));
    }
    println!("{}: {}", spec.name, spec.why);
    println!(
        "{} seed {} nproc {}: {} untraced cycles sampled, {} statements attempted, {} failed",
        spec.name,
        opts.seed,
        nproc(),
        outcome.cycles,
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in metrics {
        print_metric(name, *value, unit);
    }
    for note in &outcome.notes {
        eprintln!("FAILED: {note}");
    }
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"cycles\":{},\"answers_digest\":\"{:016x}\"}}",
        spec.name, opts.seed, opts.trace, outcome.cycles, outcome.answers_digest
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    );
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A child's last two stdout lines: the detail line and the result.
fn child_run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", spec.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines.next().ok_or("child printed no detail line")?;
    Ok((json::parse(detail)?, json::parse(result)?))
}

fn json_number(v: &Json) -> f64 {
    match v {
        Json::Int(i) => *i as f64,
        Json::Num(n) => *n,
        _ => f64::NAN,
    }
}

/// Every workload, each run in a child of its own so that `peak_rss_mb`
/// is that workload's. The first seed also gets a traced run.
fn all(seed: u64, seconds: f64, runs: u64) -> Result<bool, String> {
    let out = out_dir();
    println!(
        "urbench all: commit {} | {} | nproc {} | seeds {}..{} | {} s per run | {} set-ups per run",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        nproc(),
        seed,
        seed + runs - 1,
        seconds,
        SETUP_REPS
    );
    let mut ok = true;
    let mut records: Vec<String> = Vec::new();
    let first_seed = seed;
    for seed in first_seed..first_seed + runs {
        let mut plain_digest = None;
        for spec in &SPECS {
            for trace in [false, true] {
                if trace && seed != first_seed {
                    continue;
                }
                let (detail, result) = child_run(spec, seed, seconds, trace)?;
                let correct = result.get("correct").is_some_and(Json::is_true);
                let digest = detail
                    .get("answers_digest")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                let cycles = detail.get("cycles").and_then(Json::as_i64).unwrap_or(0);
                println!(
                    "\n{} seed {seed}{}: {cycles} cycles sampled, answers_digest {digest}, {}",
                    spec.name,
                    if trace { " (traced)" } else { "" },
                    if correct {
                        "answers correct"
                    } else {
                        "ANSWERS WRONG"
                    }
                );
                ok &= correct;
                let mut values = Vec::new();
                if let Some(Json::Obj(metrics)) = result.get("metrics") {
                    for (name, m) in metrics {
                        let value = m.get("value").map_or(f64::NAN, json_number);
                        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                        print_metric(name, value, unit);
                        values.push(format!("\"{name}\":{value}"));
                    }
                }
                let int = |k: &str| result.get(k).and_then(Json::as_i64).unwrap_or(0);
                let (attempted, failed) = (int("attempted"), int("failed"));
                if !trace {
                    let frac = failed as f64 / attempted.max(1) as f64;
                    print_metric("failed_frac", frac, "ratio");
                    values.push(format!("\"failed_frac\":{frac}"));
                    // Same data, same texts: the storage mode may not show.
                    match spec.name {
                        "tpch_s1_plain" => plain_digest = Some(digest.clone()),
                        "tpch_s1_disk" if plain_digest.as_ref() != Some(&digest) => {
                            println!("  ANSWERS WRONG: digest differs from tpch_s1_plain's");
                            ok = false;
                        }
                        _ => {}
                    }
                }
                records.push(format!(
                    "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"correct\":{correct},\
                     \"attempted\":{attempted},\"failed\":{failed},\"cycles\":{cycles},\
                     \"answers_digest\":\"{digest}\",\"metrics\":{{{}}}}}",
                    spec.name,
                    values.join(",")
                ));
            }
        }
    }
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let path = out.join("results.json");
    std::fs::write(
        &path,
        format!("{{\"runs\":[\n{}\n]}}\n", records.join(",\n")),
    )
    .map_err(|e| e.to_string())?;
    println!("\nwrote {}", path.display());
    Ok(ok)
}

/// Share of traced cycle time that must sit inside calls into the
/// program for the trace to count as complete.
const MIN_COVERAGE: f64 = 0.95;

/// Per-layer self time and counts of a written trace; fails when the
/// layers do not add up to the cycle.
fn trace_summary(workload: &str) -> Result<bool, String> {
    let path = out_dir().join(format!("{workload}.trace.jsonl"));
    let log = trace::read_jsonl(&path)?;
    let b = Breakdown::of(&log.spans, Layer::Cycle);
    if b.root_ns.is_empty() {
        return Err(format!("{}: no cycle span", path.display()));
    }
    println!(
        "{workload}: {} traced cycles, median {:.1} us",
        b.root_ns.len(),
        b.root_median_us()
    );
    println!("  {:<28} {:>14} {:>8}", "layer", "self us/cycle", "share");
    for (layer, name) in LAYERS {
        if b.share(layer) > 0.0 {
            println!(
                "  {name:<28} {:>14.1} {:>7.1}%",
                b.median_us(layer),
                100.0 * b.share(layer)
            );
        }
    }
    let tcp = Breakdown::of(&log.spans, Layer::TcpCycle);
    if !tcp.root_ns.is_empty() {
        println!(
            "  {} traced TCP cycles, median {:.1} us; in round trips {:.1}%",
            tcp.root_ns.len(),
            tcp.root_median_us(),
            100.0 * tcp.share(Layer::Roundtrip)
        );
    }
    println!("  counts per traced cycle:");
    for (name, value, unit) in run::layer_metrics(&log) {
        if !name.ends_with("_us") {
            print_metric(name, value, unit);
        }
    }
    let coverage = b.coverage();
    println!(
        "  layer self times cover {:.1}% of the traced cycle time (at least {:.0}% required)",
        100.0 * coverage,
        100.0 * MIN_COVERAGE
    );
    Ok(coverage >= MIN_COVERAGE)
}

/// Every workload and every answer check at s = 0.01, three cycles,
/// traced; quick enough for a debug build. Times nothing worth keeping.
fn smoke(out: &Path) -> Result<Vec<Outcome>, String> {
    SPECS
        .iter()
        .map(|spec| {
            let opts = RunOpts {
                seed: DEFAULT_SEED,
                limit: Limit::Cycles(3),
                trace: true,
                setup_reps: 1,
                scale: Some(0.01),
                out_dir: out.to_path_buf(),
            };
            let outcome = run::run(spec, &opts)?;
            match outcome.notes.first() {
                Some(note) => Err(format!("{}: {note}", spec.name)),
                None => Ok(outcome),
            }
        })
        .collect()
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        let number = |s: &String| {
            s.parse::<f64>()
                .map_err(|_| format!("{arg}: `{s}` is not a number"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?.clone()),
            "--seed" => a.seed = number(value("a number")?)? as u64,
            "--seconds" => a.seconds = number(value("a number")?)?,
            "--trace" => a.trace = number(value("0 or 1")?)? != 0.0,
            "--runs" => a.runs = (number(value("a number")?)? as u64).max(1),
            "--smoke" => a.smoke = true,
            "all" | "trace-summary" if a.command.is_none() => a.command = Some(arg.clone()),
            name if a.command.as_deref() == Some("trace-summary") && a.workload.is_none() => {
                a.workload = Some(name.to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let out = out_dir();
    scrub_env(&out)?;
    if args.smoke {
        let outcomes = smoke(&out)?;
        println!(
            "smoke: {} workloads, every answer check passed",
            outcomes.len()
        );
        return Ok(true);
    }
    let workload = || {
        let name = args.workload.as_deref().ok_or("which workload?")?;
        workloads::spec(name).ok_or(format!("unknown workload `{name}`"))
    };
    if args.command.as_deref() == Some("trace-summary") {
        return trace_summary(workload()?.name);
    }
    if cfg!(debug_assertions) {
        return Err(
            "this is a debug build: its numbers are not worth recording \
                    (use benchmark/run.sh, or --smoke to check answers only)"
                .into(),
        );
    }
    if args.command.as_deref() == Some("all") {
        return all(args.seed, args.seconds, args.runs);
    }
    let opts = RunOpts {
        seed: args.seed,
        limit: Limit::Seconds(args.seconds),
        trace: args.trace,
        setup_reps: SETUP_REPS,
        scale: None,
        out_dir: out,
    };
    // A wrong answer is reported in the result line, not the exit code:
    // whoever reads `correct` decides.
    single(workload()?, &opts).map(|()| true)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("urbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps the five workloads compiling and their answer checks live:
    /// TCP equals in-process, the replay equals the untraced path, the
    /// disk store equals plain storage and the builder API.
    #[test]
    fn smoke_runs_every_workload_with_every_answer_check() {
        let out = std::env::temp_dir().join(format!("urbench-smoke-{}", std::process::id()));
        let outcomes = smoke(&out).unwrap();
        assert_eq!(outcomes.len(), SPECS.len());
        for (spec, o) in SPECS.iter().zip(&outcomes) {
            assert!(o.failed == 0 && o.attempted > 0, "{}", spec.name);
            assert_eq!(o.end_to_end.len(), 5, "{}", spec.name);
            // The written trace reads back to the same per-layer numbers.
            let path = out.join(format!("{}.trace.jsonl", spec.name));
            let log = trace::read_jsonl(&path).unwrap();
            let reread = run::layer_metrics(&log);
            assert_eq!(reread[..], o.per_layer[..reread.len()], "{}", spec.name);
        }
        // BENCHMARK.json names exactly what a run prints.
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let spec = json::parse(&spec.unwrap()).unwrap();
        let names = |key: &str| match spec.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect::<Vec<_>>(),
            other => panic!("{key}: {other:?}"),
        };
        let printed =
            |metrics: &[Metric]| metrics.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), printed(&outcomes[0].end_to_end));
        assert_eq!(names("per_layer"), printed(&outcomes[0].per_layer));
        assert_eq!(names("workloads"), SPECS.map(|s| s.name.to_string()));
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_i64),
            Some(DEFAULT_SECONDS as i64)
        );
        let by_name = |n: &str| &outcomes[SPECS.iter().position(|s| s.name == n).unwrap()];
        assert_eq!(
            by_name("tpch_s1_plain").answers_digest,
            by_name("tpch_s1_disk").answers_digest
        );
        let pages = |o: &Outcome| {
            o.per_layer
                .iter()
                .find(|m| m.0 == "storage.pages_read")
                .unwrap()
                .1
        };
        assert!(pages(by_name("tpch_s1_disk")) > 0.0);
        assert_eq!(pages(by_name("tpch_s1_plain")), 0.0);
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn arguments_parse_in_the_drivers_order() {
        let argv: Vec<String> = "--workload tpch_s1_disk --seed 7 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("tpch_s1_disk"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&["--seconds".to_string(), "0".to_string()]).is_err());
        assert!(parse_args(&["--frobnicate".to_string()]).is_err());
        let a = parse_args(&["trace-summary".to_string(), "uncertain_s01".to_string()]).unwrap();
        assert_eq!(a.workload.as_deref(), Some("uncertain_s01"));
    }
}
