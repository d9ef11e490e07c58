//! The repo's one benchmark: four workloads, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release -p aiql-bench --bin benchmark -- --workload <name> \
//!     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--aa] [--quick]
//! ```
//!
//! One run builds a workload's inputs from `--seed`, measures for
//! `--seconds`, checks every answer, prints each metric by name with unit
//! and sample count, and ends its standard output with one JSON object:
//! the end-to-end metrics, or with `--trace 1` the per-layer ones. See
//! `README.md` beside this file for the workloads and the metric glossary.

mod golden;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Def, Report, END_TO_END, PER_LAYER};
use workload::{Kind, Params, DEFAULT_SEED};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    params: Params,
    /// Run twice from scratch and compare the end-to-end metrics.
    aa: bool,
}

const USAGE: &str = "usage: benchmark --workload <investigate|hunt|serve_under_ingest|bulk_load> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--aa] [--quick]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let (mut trace, mut aa, mut quick) = (false, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                kind = Some(Kind::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => aa = true,
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // Build outputs, and so this run's files, live under the target
    // directory, which is inside the checkout and ignored by git.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    Ok(Args {
        params: Params {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            quick,
            scratch: target.join("benchmark"),
        },
        aa,
    })
}

fn print_report(report: &Report) {
    println!("# provenance");
    for (key, value) in &report.provenance {
        println!("{key:<22} {value}");
    }
    println!("# metrics");
    for (name, m) in &report.metrics {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        let tail = m
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{} {v:.4}", p * 100.0));
        println!("{name:<40} {:>16.4} {unit:<6} n={}{tail}", m.value, m.n);
    }
    println!(
        "# answers: {} checked, {} failed",
        report.attempted, report.failed
    );
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    // In the form of a `golden.rs` table, for when results change on purpose.
    println!("# result digests");
    for (id, digest) in &report.digests {
        println!("    (\"{id}\", 0x{digest:016x}),");
    }
}

/// The closing line: the declared metrics of this kind of run. A layer
/// the workload bypasses reads 0; an end-to-end metric must be measured.
fn result_line(report: &Report, defs: &[Def], require: bool) -> Result<String, String> {
    let mut metrics = String::new();
    for d in defs {
        let value = match report.metrics.get(d.name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(_) => return Err(format!("{} is not a finite number", d.name)),
            None if require => return Err(format!("{} was not measured", d.name)),
            None => 0.0,
        };
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed
    ))
}

/// The value of metric `name` in a result line.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// Runs this program again with `argv` — a run from scratch needs a process
/// of its own: the allocator's state and the resident-set high-water mark
/// outlive a run — and returns the result line it ends with.
fn run_child(argv: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(argv)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let line = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success() && line.starts_with('{'))
        .then_some(line)
        .ok_or(format!("run failed: {}", out.status))
}

/// Two runs of the same code must agree on every end-to-end metric within
/// its bound. Returns the metrics that do not.
fn aa_disagreements(first: &str, second: &str) -> Vec<String> {
    let mut out = Vec::new();
    println!("# A/A");
    for d in END_TO_END {
        let (Some(a), Some(b)) = (value_in(first, d.name), value_in(second, d.name)) else {
            out.push(format!("{}: not measured", d.name));
            continue;
        };
        let differs = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
        let verdict = if differs <= d.bound { "ok" } else { "DIFFERS" };
        let second = match (b > a, d.better == "lower") {
            _ if a == b => "same",
            (true, true) | (false, false) => "worse",
            _ => "better",
        };
        println!(
            "{:<28} {a:>14.4} {b:>14.4} {:<5} second {second} by {differs:.4} (bound {}) {verdict}",
            d.name, d.unit, d.bound
        );
        if differs > d.bound {
            out.push(d.name.to_string());
        }
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.params.scratch) {
        eprintln!("cannot create {}: {e}", args.params.scratch.display());
        return ExitCode::from(2);
    }
    if args.aa {
        // End-to-end metrics come from untraced runs.
        let p = &args.params;
        let mut child = vec![
            "--workload".to_string(),
            p.kind.name().to_string(),
            "--seed".to_string(),
            p.seed.to_string(),
            "--seconds".to_string(),
            p.seconds.to_string(),
        ];
        if p.quick {
            child.push("--quick".to_string());
        }
        let differing = match (run_child(&child), run_child(&child)) {
            (Ok(first), Ok(second)) => aa_disagreements(&first, &second),
            (Err(e), _) | (_, Err(e)) => vec![e],
        };
        if differing.is_empty() {
            return ExitCode::SUCCESS;
        }
        eprintln!("A/A: runs disagree on {}", differing.join(", "));
        return ExitCode::FAILURE;
    }
    let report = workload::run(&args.params);
    print_report(&report);
    let (defs, require) = if args.params.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, !args.params.quick)
    };
    match result_line(&report, defs, require) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let a = args(&["--workload", "hunt", "--trace", "0", "--seed", "9"]).unwrap();
        assert!(!a.params.trace);
        assert_eq!(a.params.seed, 9);
        assert!(
            args(&["--workload", "hunt", "--trace", "1"])
                .unwrap()
                .params
                .trace
        );
        assert!(args(&["--workload", "hunt", "--trace"]).is_err());
        assert!(args(&["--workload", "hunt", "--trace", "yes"]).is_err());
        let a = args(&["--workload", "bulk_load", "--seconds", "3", "--aa"]).unwrap();
        assert!(a.aa && !a.params.trace && a.params.seconds == 3.0);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "hunt", "--seconds", "0"]).is_err());
    }

    /// `"name": "<x>"` values of the objects in one array of `BENCHMARK.json`.
    fn declared<'a>(json: &'a str, array: &str) -> Vec<(&'a str, &'a str)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|object| {
                let field = |key: &str| {
                    let at = object.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &object[at + key.len() + 2..];
                    let rest = rest.trim_start_matches([':', ' ']);
                    rest.trim_start_matches('"')
                        .split(['"', ',', '}'])
                        .next()
                        .unwrap()
                        .trim()
                };
                (field("name"), object)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_runner_prints() {
        let json = include_str!("../../../../../BENCHMARK.json");
        for (array, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = declared(json, array);
            let names: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
            let printed: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, printed, "{array}");
            for (d, (_, object)) in defs.iter().zip(&declared) {
                assert!(
                    d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                        && d.name.len() <= 64,
                    "{}",
                    d.name
                );
                assert!(
                    object.contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "{}",
                    d.name
                );
                assert!(
                    object.contains(&format!("\"better\": \"{}\"", d.better)),
                    "{}",
                    d.name
                );
                if array == "end_to_end" {
                    assert!(
                        object.contains(&format!("\"bound\": {}", d.bound)),
                        "{}: bound",
                        d.name
                    );
                    assert!(d.bound > 0.0 && d.bound <= 0.25);
                }
            }
        }
        let workloads = declared(json, "workloads");
        let names: Vec<&str> = workloads.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, Kind::ALL.map(Kind::name));
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn result_line_has_every_declared_metric_and_refuses_gaps() {
        let mut report = Report {
            attempted: 5,
            ..Report::default()
        };
        assert!(result_line(&report, END_TO_END, true).is_err());
        for d in END_TO_END {
            report.set(d.name, 1.5, 1);
        }
        let line = result_line(&report, END_TO_END, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // A bypassed layer reads 0 in the traced run's line.
        let line = result_line(&report, PER_LAYER, false).unwrap();
        assert!(line.contains("\"lang.parse_us\": {\"value\": 0, \"unit\": \"us\"}"));
        report.failed = 1;
        assert!(result_line(&report, END_TO_END, true)
            .unwrap()
            .starts_with("{\"correct\": false"));
        report.set("pass_ms", f64::NAN, 1);
        assert!(result_line(&report, END_TO_END, true).is_err());
    }

    #[test]
    fn aa_flags_only_metrics_beyond_their_bound() {
        let (mut a, mut b) = (Report::default(), Report::default());
        a.attempted = 1;
        b.attempted = 1;
        for d in END_TO_END {
            a.set(d.name, 100.0, 1);
            b.set(d.name, 100.0 * (1.0 + d.bound * 0.9), 1);
        }
        let line = |r: &Report| result_line(r, END_TO_END, true).unwrap();
        assert_eq!(value_in(&line(&a), "pass_ms"), Some(100.0));
        assert_eq!(value_in(&line(&b), "nope"), None);
        assert!(aa_disagreements(&line(&a), &line(&b)).is_empty());
        b.set("pass_ms", 100.0 * 1.5, 1);
        assert_eq!(
            aa_disagreements(&line(&a), &line(&b)),
            vec!["pass_ms".to_string()]
        );
    }
}
