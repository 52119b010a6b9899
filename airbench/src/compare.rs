//! `airbench --compare <set A files> -- <set B files>`: compares two sets
//! of saved runs, workload by workload and metric by metric, against the
//! bounds in `BENCHMARK.json`.
//!
//! Each file is the standard output of one untraced run. A verdict is
//! *regressed* when B's median is worse than A's by more than the bound,
//! and *unresolved* when either set's spread (quartile distance over the
//! median) exceeds the bound, unless every run of B beats, or loses to,
//! every run of A. The exact metrics must be identical wherever the two
//! sets share a seed.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::run::EXACT_METRICS;
use crate::stats::{median, quartiles};
use crate::workload::Workload;

/// One saved run.
#[derive(Debug)]
struct Saved {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

/// An end-to-end metric's regression rule.
#[derive(Debug)]
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_saved(path: &str) -> Result<Saved, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let header = text
        .lines()
        .find(|l| l.starts_with("airbench workload="))
        .ok_or_else(|| format!("{path}: no `airbench workload=` header line"))?;
    let field = |key: &str| {
        header
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key))
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: header lacks {key}"))
    };
    let workload = field("workload=")?;
    let seed = field("seed=")?
        .parse()
        .map_err(|e| format!("{path}: seed: {e}"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty"))?;
    let result = Json::parse(last).map_err(|e| format!("{path}: result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{path}: the run failed its checks"));
    }
    let Some(Json::Obj(members)) = result.get("metrics") else {
        return Err(format!("{path}: result line has no metrics"));
    };
    let metrics = members
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
        .collect();
    Ok(Saved {
        workload,
        seed,
        metrics,
    })
}

fn read_rules(bench: &Path) -> Result<Vec<Rule>, String> {
    let text = fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
    doc.get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Rule {
                name: m.get("name")?.str()?.to_string(),
                lower_is_better: m.get("better")?.str()? == "lower",
                bound: m.get("bound")?.num()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "an end_to_end entry lacks name, better or bound".to_string())
}

/// Quartile distance over the median; infinite when it cannot be told.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        Some([q1, _, q3]) if q1 == q3 => 0.0,
        _ => f64::INFINITY,
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = if a == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY.copysign(b - a)
        }
    } else {
        (b - a) / a.abs()
    };
    if lower_is_better {
        change
    } else {
        -change
    }
}

fn verdict(a: &[f64], b: &[f64], rule: &Rule) -> &'static str {
    let better = |x: f64, y: f64| {
        if rule.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let worse = worsening(median(a), median(b), rule.lower_is_better);
    if spread(a).max(spread(b)) > rule.bound {
        if all_b_better {
            "improved"
        } else if all_b_worse {
            "regressed"
        } else {
            "unresolved"
        }
    } else if worse > rule.bound {
        "regressed"
    } else if -worse > spread(a) && all_b_better {
        "improved"
    } else {
        "within"
    }
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!(
            "{q2:.6} [{q1:.6}, {q3:.6}] spread {:.2}%",
            100.0 * spread(values)
        ),
        None => format!("{:.6} (one run)", median(values)),
    }
}

/// Prints the comparison; returns whether nothing regressed, nothing was
/// unresolved and every shared seed kept its exact metrics.
pub fn compare(set_a: &[String], set_b: &[String], bench: &Path) -> Result<bool, String> {
    let rules = read_rules(bench)?;
    let a = set_a
        .iter()
        .map(|p| read_saved(p))
        .collect::<Result<Vec<_>, _>>()?;
    let b = set_b
        .iter()
        .map(|p| read_saved(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut ok = true;
    for workload in Workload::ALL.map(Workload::name) {
        let runs_a: Vec<&Saved> = a.iter().filter(|s| s.workload == workload).collect();
        let runs_b: Vec<&Saved> = b.iter().filter(|s| s.workload == workload).collect();
        if runs_a.is_empty() && runs_b.is_empty() {
            continue;
        }
        println!(
            "{workload}: A has {} run(s), B has {}",
            runs_a.len(),
            runs_b.len()
        );
        if runs_a.is_empty() || runs_b.is_empty() {
            println!("  unresolved: one set has no runs of this workload");
            ok = false;
            continue;
        }
        for rule in &rules {
            let values = |runs: &[&Saved]| -> Option<Vec<f64>> {
                runs.iter()
                    .map(|s| s.metrics.get(&rule.name).copied())
                    .collect()
            };
            let (Some(va), Some(vb)) = (values(&runs_a), values(&runs_b)) else {
                println!("  {:<16} missing from some runs", rule.name);
                ok = false;
                continue;
            };
            let v = verdict(&va, &vb, rule);
            ok &= !matches!(v, "regressed" | "unresolved");
            println!(
                "  {:<16} A {}  B {}  worse by {:+.2}% (bound {:.0}%)  {v}",
                rule.name,
                describe(&va),
                describe(&vb),
                100.0 * worsening(median(&va), median(&vb), rule.lower_is_better),
                100.0 * rule.bound,
            );
        }
        let mut shared = 0;
        for ra in &runs_a {
            for rb in runs_b.iter().filter(|rb| rb.seed == ra.seed) {
                shared += 1;
                for name in EXACT_METRICS {
                    let (x, y) = (ra.metrics.get(name), rb.metrics.get(name));
                    if x != y {
                        ok = false;
                        println!("  {name} differs on seed {}: {x:?} vs {y:?}", ra.seed);
                    }
                }
            }
        }
        println!("  exact metrics compared on {shared} run pair(s) sharing a seed");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, &rule(true, 0.1)), "within");
        let slower = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &slower, &rule(true, 0.1)), "regressed");
        assert_eq!(verdict(&a, &slower, &rule(false, 0.1)), "improved");
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &noisy, &rule(true, 0.1)), "unresolved");
    }
}
