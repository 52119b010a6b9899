//! `airbench`: the station benchmark of record.
//!
//! ```text
//! airbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <file>]
//! airbench --compare <runs of set A...> -- <runs of set B...>
//! ```
//!
//! A run drives the station's public API through one workload for
//! `--seconds`, checks every output, prints each metric by name and unit,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). It exits 1 when a check fails and 2 on bad arguments. README.md
//! describes the workloads, the metrics and the span file.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod layers;
mod run;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Metric, Options, Report};
use workload::Workload;

/// The benchmark's own directory, where its output files go.
const HOME: &str = env!("CARGO_MANIFEST_DIR");

const USAGE: &str =
    "usage: airbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <file>]
       airbench --compare <runs of set A...> -- <runs of set B...>
workloads: dense-drain, wide-wire, churn-faults, journaled";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: bad value {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed: u64 = seed.ok_or("--seed is required")?;
    let out = Path::new(HOME).join("out");
    let spans = trace.then(|| {
        spans.unwrap_or_else(|| out.join(format!("spans-{}-{seed}.jsonl", workload.name())))
    });
    Ok(Options {
        workload,
        spec: workload.spec(),
        seed,
        seconds,
        trace,
        spans,
        state_dir: out.join(format!("state-{}-{}", workload.name(), std::process::id())),
        corrupt_wire_at: None,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line: numbers as measured, with all their digits.
fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

fn bench(opts: &Options) -> ExitCode {
    let report = run::run(opts);
    println!(
        "airbench workload={} seed={} seconds={} trace={} rounds={} traced_rounds={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        report.rounds,
        report.traced_rounds
    );
    print_metrics("end-to-end", &report.e2e);
    if opts.trace {
        print_metrics("per-layer", &report.per_layer);
    }
    let ratio = if report.attempted == 0 {
        0.0
    } else {
        report.failed as f64 / report.attempted as f64
    };
    println!(
        "failed_ratio {ratio} ({} failed of {} attempted)",
        report.failed, report.attempted
    );
    if let Some(ex) = &report.exact {
        println!(
            "counts per round: subscribed {} delivered {} waiting {} late_in_valid {} decode_errors {} mismatches {} resumes {}",
            ex.subscribed,
            ex.stats.delivered,
            ex.stats.waiting,
            ex.late_in_valid,
            ex.decode_errors,
            ex.mismatches,
            ex.resumes
        );
    }
    if opts.spec.journal.is_some() {
        println!("state directory: {}", opts.state_dir.display());
    }
    if let Some((path, n)) = &report.spans_written {
        println!("spans: {n} record(s) in {}", path.display());
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    let metrics = if opts.trace {
        &report.per_layer
    } else {
        &report.e2e
    };
    println!("{}", result_line(&report, metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let rest = &args[1..];
        let Some(split) = rest.iter().position(|a| a == "--") else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let bench_json = Path::new(HOME).join("..").join("BENCHMARK.json");
        return match compare::compare(&rest[..split], &rest[split + 1..], &bench_json) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("airbench --compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args) {
        Ok(opts) => bench(&opts),
        Err(e) => {
            eprintln!("airbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
