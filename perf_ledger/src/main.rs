//! **perf_ledger** — the repository's one repeatable benchmark: five
//! workloads, the end-to-end metrics `BENCHMARK.json` lists, and a
//! per-layer cost ledger. See `README.md` in the package directory.
//!
//! ```text
//! perf_ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!             [--smoke] [--trace-out FILE]        one run; result line last
//! perf_ledger --repeat N [--seed N] [--seconds S] [--out FILE]   A/A set, seeds N..
//! perf_ledger compare <base.json> <change.json>   parent vs change
//! ```

mod adapter;
mod clock;
mod compare;
mod inputs;
mod json;
mod loadgen;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use compare::ResultSet;
use json::Json;
use run::{run, RunArgs, RunOutput};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::SPECS;

/// Default seed (the repository's experiment seed) and run length.
const DEFAULT_SEED: u64 = 2017;
const DEFAULT_SECONDS: f64 = 20.0;

/// Reply digests of the traced run pinned for (workload, seed). A seed
/// without a pin is measured and verified in every other way; its digest
/// is printed so it can be pinned.
const PINNED_DIGESTS: &str = include_str!("../digests.json");

fn pinned_digest(workload: &str, seed: u64) -> Option<String> {
    json::parse(PINNED_DIGESTS)
        .ok()?
        .get(workload)?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_owned)
}

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "compare" => {
                let base = value(&mut it, "compare")?;
                let change = value(&mut it, "compare")?;
                cli.compare = Some((base.into(), change.into()));
            }
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                cli.seed = Some(
                    value(&mut it, arg)?
                        .parse()
                        .map_err(|_| "--seed takes an unsigned integer")?,
                );
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => cli.smoke = true,
            "--trace-out" => cli.trace_out = Some(value(&mut it, arg)?.into()),
            "--repeat" => {
                let n: usize = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--repeat takes a count")?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat must be between 1 and 100".into());
                }
                cli.repeat = Some(n);
            }
            "--out" => cli.out = Some(value(&mut it, arg)?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(output: &RunOutput) -> String {
    Json::obj([
        ("correct", Json::Bool(output.correct)),
        ("attempted", Json::Num(output.attempted as f64)),
        ("failed", Json::Num(output.failed as f64)),
        ("metrics", json::metrics_object(&output.metrics)),
    ])
    .render()
}

fn run_one(cli: &Cli, workload: &str) -> Result<RunOutput, String> {
    let spec = workloads::spec(workload).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    Ok(run(&RunArgs {
        spec,
        seed,
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: cli.trace,
        smoke: cli.smoke,
        trace_out: cli.trace_out.clone(),
        // A smoke run is a different (smaller) system: no pin applies.
        pinned_digest: if cli.smoke {
            None
        } else {
            pinned_digest(workload, seed)
        },
    }))
}

/// A/A mode: every workload `rounds` times untraced, round `i` on seed
/// `--seed + i` (the spread then includes what the inputs contribute, as
/// in the benchmark's acceptance rule), then once traced for the
/// diagnostics `compare` gates. Each run is its own process so peak
/// memory and allocator state start fresh. Prints the spread table.
fn repeat(cli: &Cli, rounds: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut set = ResultSet::default();
    let mut all_correct = true;
    let first_seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let mut run_child = |workload: &str, seed: u64, trace: &str| -> Result<(), String> {
        let mut command = Command::new(&exe);
        command.args(["--workload", workload, "--trace", trace]);
        command.args(["--seed", &seed.to_string()]);
        command.args([
            "--seconds",
            &cli.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
        ]);
        if cli.smoke {
            command.arg("--smoke");
        }
        let output = command
            .stderr(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{workload} printed no result"))?;
        let parsed = json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
        all_correct &=
            output.status.success() && parsed.get("correct").and_then(Json::as_bool) == Some(true);
        set.add_run(workload, &parsed)
    };
    for round in 0..rounds {
        for spec in &SPECS {
            eprintln!("round {}/{rounds}: {}", round + 1, spec.name);
            run_child(spec.name, first_seed.wrapping_add(round as u64), "0")?;
        }
    }
    for spec in &SPECS {
        eprintln!("traced: {}", spec.name);
        run_child(spec.name, first_seed, "1")?;
    }
    let (table, steady) = compare::summarise(&set);
    println!("{table}");
    if !steady {
        println!("WIDE marks a spread above a third of the metric's bound.");
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, set.to_json().render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

/// Reads a result set, or wraps a single run's result line as a set of
/// one (its workload is not in the line, so those compare as `run`).
fn read_set(path: &PathBuf) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(text.lines().last().unwrap_or(""))
        .or_else(|_| json::parse(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("values").is_some() {
        ResultSet::from_json(&doc)
    } else {
        let mut set = ResultSet::default();
        set.add_run("run", &doc)?;
        Ok(set)
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let cli = parse_cli(args)?;
    if let Some((base, change)) = &cli.compare {
        let (table, regressed) = compare::compare(&read_set(base)?, &read_set(change)?);
        println!("{table}");
        return Ok(!regressed);
    }
    if let Some(rounds) = cli.repeat {
        return repeat(&cli, rounds);
    }
    let workload = cli
        .workload
        .as_deref()
        .ok_or("give --workload <name>, --repeat <n>, or compare <base> <change>")?;
    let output = run_one(&cli, workload)?;
    eprintln!("{}", output.report);
    if let Some(digest) = &output.digest {
        eprintln!("reply digest: {digest}");
    }
    println!("{}", result_line(&output));
    Ok(output.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn cli_parses_the_driver_invocation_and_rejects_nonsense() {
        let cli = parse_cli(&args(&[
            "--workload",
            "proxy_echo",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("proxy_echo"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(10.0), true)
        );
        assert!(parse_cli(&args(&["--trace", "2"])).is_err());
        assert!(parse_cli(&args(&["--seed"])).is_err());
        assert!(parse_cli(&args(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&args(&["--frobnicate"])).is_err());
        assert!(parse_cli(&args(&["--repeat", "0"])).is_err());
        let cli = parse_cli(&args(&["compare", "a.json", "b.json"])).unwrap();
        assert_eq!(cli.compare, Some(("a.json".into(), "b.json".into())));
        assert!(real_main(&args(&["--workload", "nope", "--smoke"])).is_err());
    }

    #[test]
    fn pinned_digests_parse_and_cover_the_default_seed() {
        assert!(json::parse(PINNED_DIGESTS).is_ok());
        for spec in &SPECS {
            assert!(
                pinned_digest(spec.name, DEFAULT_SEED).is_some(),
                "{} has no pinned digest for the default seed",
                spec.name
            );
        }
        assert_eq!(pinned_digest("proxy_echo", 1), None);
    }

    /// Workspace profiles do not reach this package; its release profile
    /// must repeat the workspace's, or the benchmark would measure a
    /// product compiled differently from the shipped one.
    #[test]
    fn release_profile_repeats_the_workspace_one() {
        let table = |manifest: &str| -> Vec<String> {
            std::fs::read_to_string(manifest)
                .unwrap()
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned)
                .collect()
        };
        let own = table(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let workspace = table(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!own.is_empty(), "no [profile.release] table");
        assert_eq!(own, workspace);
    }

    /// Runs `--smoke` in-process for all five workloads, untraced and
    /// traced, so `cargo test` exercises the whole benchmark: set-up,
    /// the correctness gate, both loops, the traced pass, the rungs and
    /// every probe. Nothing here asserts a timing.
    #[test]
    fn smoke_runs_every_workload_and_prints_every_listed_metric() {
        for spec in &SPECS {
            for trace in [false, true] {
                let cli = Cli {
                    smoke: true,
                    trace,
                    seed: Some(5),
                    ..Cli::default()
                };
                let output = run_one(&cli, spec.name).unwrap();
                assert!(
                    output.correct,
                    "{} trace={trace}: {}",
                    spec.name, output.report
                );
                assert_eq!(output.failed, 0);
                assert!(output.attempted >= 50, "{}", output.attempted);
                let line = json::parse(&result_line(&output)).unwrap();
                let keys: Vec<&str> = line
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                if trace {
                    assert_eq!(output.digest.as_ref().map(String::len), Some(64));
                    assert!(output.report.contains("ledger:"));
                    assert!(output.metrics.len() >= 70, "{}", output.metrics.len());
                } else {
                    let names: Vec<&str> = output.metrics.keys().map(String::as_str).collect();
                    let mut listed: Vec<&str> =
                        compare::END_TO_END.iter().map(|m| m.name).collect();
                    listed.sort_unstable();
                    assert_eq!(names, listed);
                    for metric in &compare::END_TO_END {
                        assert_eq!(output.metrics[metric.name].1, metric.unit);
                    }
                }
            }
        }
    }
}
