//! # airsched-bench
//!
//! The reproduction harness: one binary per table/figure of the paper plus
//! the planner and serving-path measurements.
//!
//! | Target | Reproduces |
//! |---|---|
//! | `fig3_distributions` | Figure 3 — the four group-size distributions |
//! | `fig4_parameters` | Figure 4 — the experiment parameter table |
//! | `fig5` | Figure 5(a–d) — AvgD vs channels for PAMAD / m-PB / OPT |
//! | `fig5_ci` | Figure 5 with mean ± 95% CI over independent seeds |
//! | `table_onefifth` | §5's "1/5 of the minimum channels" observation |
//! | `ablation_objective` | Eq. 2-literal vs §4.1-normalized objective |
//! | `ablation_opt` | structured vs full-exhaustive OPT gap |
//! | `opt_perf` | OPT search cost vs channel count |
//! | `planner_perf` | planner/measurement perf baseline → `BENCH_planner.json` |
//! | `station_perf` | observability and tracing tax on the serving loop → `BENCH_station.json` |
//! | `drop_vs_pamad` | §4 Solution 1 (drop pages) vs PAMAD, with on-demand congestion |
//! | `fairness` | per-group normalized delay and Jain index (design-rationale ablation) |
//! | `hybrid_split` | push/pull transceiver budget split (extension) |
//! | `zipf_access` | access-skew-aware objective (extension) |
//! | `sensitivity` | robustness to h, n, c, seed (extension) |
//! | `multiget` | composite requests on one tuner (extension) |
//! | `ablation_placement` | even-spread vs packed/random placement |
//! | `placement_stats` | Algorithm 4's ideal-window claim, measured |
//! | `flash_crowd` | bursty vs Poisson arrivals on the pull queue |
//! | `report_all` | the whole reproduction as one markdown report |
//!
//! Run e.g. `cargo run --release -p airsched-bench --bin fig5 -- --dist all`.
//! Every binary accepts `--requests`, `--seed` and prints deterministic
//! output for fixed seeds.
//!
//! The [`seed`] module keeps a replica of the seed station's serving loop:
//! the oracle the optimized station is checked against.

use airsched_analysis::experiment::ExperimentConfig;
use airsched_workload::distributions::GroupSizeDistribution;
use airsched_workload::spec::WorkloadSpec;

pub mod seed;

/// Parses the common `--key value` options shared by the figure binaries.
///
/// Returns `(config, dists, extra)` where `extra` holds the raw pairs for
/// binary-specific options.
///
/// # Panics
///
/// Panics with a usage message on malformed options (these are internal
/// harness binaries; a parse failure is an operator error).
#[must_use]
pub fn parse_common_args() -> (
    ExperimentConfig,
    Vec<GroupSizeDistribution>,
    Vec<(String, String)>,
) {
    let mut config = ExperimentConfig::paper_defaults();
    let mut spec = WorkloadSpec::paper_defaults();
    let mut dists = vec![];
    let mut extra = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(key) = args.next() {
        let key = key
            .strip_prefix("--")
            .unwrap_or_else(|| panic!("expected --key, got '{key}'"))
            .to_string();
        let value = args
            .next()
            .unwrap_or_else(|| panic!("--{key} needs a value"));
        match key.as_str() {
            "dist" => {
                if value == "all" {
                    dists = GroupSizeDistribution::ALL.to_vec();
                } else {
                    dists.push(
                        GroupSizeDistribution::parse(&value)
                            .unwrap_or_else(|| panic!("unknown distribution '{value}'")),
                    );
                }
            }
            "requests" => config.requests = value.parse().expect("--requests: integer"),
            "seed" => config.seed = value.parse().expect("--seed: integer"),
            "n" => spec = spec.total_pages(value.parse().expect("--n: integer")),
            "groups" => spec = spec.groups(value.parse().expect("--groups: integer")),
            "t1" => spec = spec.base_time(value.parse().expect("--t1: integer")),
            "ratio" => spec = spec.time_ratio(value.parse().expect("--ratio: integer")),
            _ => extra.push((key, value)),
        }
    }
    if dists.is_empty() {
        dists = GroupSizeDistribution::ALL.to_vec();
    }
    config.spec = spec;
    (config, dists, extra)
}

/// Looks up a binary-specific option from `extra`, parsed, with a default.
///
/// # Panics
///
/// Panics if the value does not parse.
#[must_use]
pub fn extra_num<T: std::str::FromStr>(extra: &[(String, String)], key: &str, default: T) -> T {
    extra
        .iter()
        .find(|(k, _)| k == key)
        .map_or(default, |(_, v)| {
            v.parse().unwrap_or_else(|_| panic!("--{key}: bad value"))
        })
}

/// Whether a binary-specific boolean option (`--key true/1/yes`) was passed.
#[must_use]
pub fn extra_flag(extra: &[(String, String)], key: &str) -> bool {
    extra
        .iter()
        .any(|(k, v)| k == key && (v == "true" || v == "1" || v == "yes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_num_parses_with_default() {
        let extra = vec![("step".to_string(), "3".to_string())];
        assert_eq!(extra_num(&extra, "step", 1u32), 3);
        assert_eq!(extra_num(&extra, "missing", 7u32), 7);
    }

    #[test]
    fn extra_flag_detects_truthy() {
        let extra = vec![
            ("csv".to_string(), "true".to_string()),
            ("x".to_string(), "no".to_string()),
        ];
        assert!(extra_flag(&extra, "csv"));
        assert!(!extra_flag(&extra, "x"));
        assert!(!extra_flag(&extra, "absent"));
    }

    #[test]
    #[should_panic(expected = "bad value")]
    fn extra_num_panics_on_garbage() {
        let extra = vec![("step".to_string(), "zz".to_string())];
        let _: u32 = extra_num(&extra, "step", 1u32);
    }
}
