//! Experiment orchestration: the paper's §5 evaluation as reusable sweeps.
//!
//! [`ExperimentConfig`] embeds the Figure 4 parameter table;
//! [`sweep_channels`] produces one Figure 5 sub-figure (average delay vs.
//! channel count for PAMAD, m-PB and OPT under one group-size
//! distribution); [`one_fifth_summary`] quantifies the §5 claim that 1/5 of
//! the minimum channels already brings the delay close to zero.

use airsched_core::bound::minimum_channels;
use airsched_core::delay::Weighting;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::{mpb, opt, pamad, ScheduleError};
use airsched_lint::{lint, LintConfig, LintInput, Severity};
use airsched_sim::access::measure;
use airsched_workload::distributions::GroupSizeDistribution;
use airsched_workload::requests::{AccessPattern, NormalizedRequest, RequestGenerator};
use airsched_workload::spec::WorkloadSpec;

/// Everything needed to run one evaluation, mirroring the paper's Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Workload structure (n, h, t_1, c, distribution).
    pub spec: WorkloadSpec,
    /// Requests per measured point (paper: 3000).
    pub requests: usize,
    /// Master seed; every point derives its own deterministic stream.
    pub seed: u64,
    /// Objective weighting used by PAMAD and OPT.
    pub weighting: Weighting,
    /// How clients pick pages (paper: uniform).
    pub access: AccessPattern,
}

impl ExperimentConfig {
    /// The paper's defaults: `n = 1000`, `h = 8`, `t = 4 .. 512`,
    /// 3000 requests, uniform access.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            spec: WorkloadSpec::paper_defaults(),
            requests: 3000,
            seed: 42,
            weighting: Weighting::PaperEq2,
            access: AccessPattern::Uniform,
        }
    }

    /// Replaces the group-size distribution.
    #[must_use]
    pub fn with_distribution(mut self, dist: GroupSizeDistribution) -> Self {
        self.spec = self.spec.distribution(dist);
        self
    }

    /// Builds the ladder for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates ladder validation errors.
    pub fn ladder(&self) -> Result<GroupLadder, ScheduleError> {
        self.spec.build()
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Lint diagnostic counts for one program, as embedded in sweep results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LintCounts {
    /// Deny-level diagnostics.
    pub deny: usize,
    /// Warn-level diagnostics.
    pub warn: usize,
}

impl LintCounts {
    /// Whether the program produced no diagnostics at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deny == 0 && self.warn == 0
    }
}

impl core::fmt::Display for LintCounts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            f.write_str("clean")
        } else {
            write!(f, "{}D/{}W", self.deny, self.warn)
        }
    }
}

/// Lint verdicts for the three programs measured at one sweep point,
/// under [`LintConfig::structural`] — below the minimum channel count the
/// programs legitimately miss deadlines, but they must always stay
/// structurally sound (every page on the air, no duplicated columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointLint {
    /// Counts for the PAMAD program.
    pub pamad: LintCounts,
    /// Counts for the m-PB program.
    pub mpb: LintCounts,
    /// Counts for the OPT program.
    pub opt: LintCounts,
}

impl PointLint {
    /// Whether all three programs lint clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.pamad.is_clean() && self.mpb.is_clean() && self.opt.is_clean()
    }
}

/// Runs the structural rule set over one program.
fn lint_counts(program: &BroadcastProgram, ladder: &GroupLadder) -> LintCounts {
    let report = lint(
        &LintInput::for_program(program, ladder),
        &LintConfig::structural(),
    );
    LintCounts {
        deny: report.count_at(Severity::Deny),
        warn: report.count_at(Severity::Warn),
    }
}

/// Measured average delay of the three §5 contenders at one channel count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Channels supplied to the schedulers.
    pub channels: u32,
    /// Measured AvgD of PAMAD, in slots.
    pub pamad: f64,
    /// Measured AvgD of m-PB, in slots.
    pub mpb: f64,
    /// Measured AvgD of OPT, in slots.
    pub opt: f64,
    /// Candidate frequency vectors the OPT search evaluated at this point.
    pub opt_evaluated: u64,
    /// Subtrees the OPT search pruned (counted once per cut).
    pub opt_pruned: u64,
    /// Structural lint verdicts for the three measured programs.
    pub lint: PointLint,
    /// Whether a fully valid schedule exists at this channel count: by
    /// Theorem 3.1, exactly when it reaches
    /// [`ChannelSweep::min_channels`]. The tests cross-check this column
    /// against the difference-constraint solver's verdict.
    pub feasible: bool,
}

/// One Figure 5 sub-figure: a full channel sweep under one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSweep {
    /// The distribution evaluated.
    pub distribution: GroupSizeDistribution,
    /// Theorem 3.1 minimum for the workload (the sweep's right edge).
    pub min_channels: u32,
    /// Measured points, ascending in channel count.
    pub points: Vec<SweepPoint>,
}

impl ChannelSweep {
    /// The point measured at `channels`, if it was part of the sweep.
    #[must_use]
    pub fn at(&self, channels: u32) -> Option<&SweepPoint> {
        self.points.iter().find(|p| p.channels == channels)
    }
}

/// Measures one program against a normalized request stream.
fn avg_delay_of(
    program: &BroadcastProgram,
    ladder: &GroupLadder,
    normalized: &[NormalizedRequest],
) -> f64 {
    let requests: Vec<_> = normalized
        .iter()
        .map(|nr| nr.materialize(program.cycle_len()))
        .collect();
    let (summary, _misses) = measure(program, ladder, &requests);
    summary.avg_delay()
}

/// Runs one Figure 5 sub-figure: PAMAD vs m-PB vs OPT over `channels`.
///
/// Every point uses the same page-choice stream (derived from
/// `config.seed`) materialized onto each program's own cycle, so the three
/// algorithms see identical client behaviour.
///
/// # Errors
///
/// Propagates scheduling errors (only `NoChannels` is reachable, if the
/// iterator yields 0).
pub fn sweep_channels(
    config: &ExperimentConfig,
    channels: impl IntoIterator<Item = u32>,
) -> Result<ChannelSweep, ScheduleError> {
    let ladder = config.ladder()?;
    let min = minimum_channels(&ladder);
    let mut gen = RequestGenerator::new(&ladder, config.access, config.seed);
    let normalized = gen.take_normalized(config.requests);

    let mut points = Vec::new();
    for n in channels {
        let pamad_program = pamad::schedule_with(&ladder, n, config.weighting)?.into_program();
        let mpb_program = mpb::schedule(&ladder, n)?.into_program();
        let opt_search = opt::search_r_structured(&ladder, n, config.weighting);
        let opt_program = opt_search.place(&ladder, n)?.into_program();
        points.push(SweepPoint {
            channels: n,
            pamad: avg_delay_of(&pamad_program, &ladder, &normalized),
            mpb: avg_delay_of(&mpb_program, &ladder, &normalized),
            opt: avg_delay_of(&opt_program, &ladder, &normalized),
            opt_evaluated: opt_search.evaluated(),
            opt_pruned: opt_search.pruned(),
            lint: PointLint {
                pamad: lint_counts(&pamad_program, &ladder),
                mpb: lint_counts(&mpb_program, &ladder),
                opt: lint_counts(&opt_program, &ladder),
            },
            feasible: n >= min,
        });
    }
    points.sort_by_key(|p| p.channels);
    Ok(ChannelSweep {
        distribution: config.spec.current_distribution(),
        min_channels: min,
        points,
    })
}

/// Exports a sweep's OPT search costs to an observability handle: one
/// `ReplanTiming` event per point, `stage: "opt"`, with the channel count
/// in the slot field (a sweep has no slot clock) and zero duration (the
/// cost counters are deterministic; wall time is not re-measured here).
pub fn record_sweep_timings(sweep: &ChannelSweep, obs: &airsched_obs::Obs) {
    for point in &sweep.points {
        obs.record(airsched_obs::events::Event::ReplanTiming {
            stage: "opt".to_string(),
            slot: u64::from(point.channels),
            evals: point.opt_evaluated,
            pruned: point.opt_pruned,
            duration_us: 0,
        });
    }
}

/// The default Figure 5 x-axis: every channel count from 1 to the minimum.
///
/// # Errors
///
/// Propagates workload construction errors.
pub fn full_range(config: &ExperimentConfig) -> Result<Vec<u32>, ScheduleError> {
    let ladder = config.ladder()?;
    Ok((1..=minimum_channels(&ladder)).collect())
}

/// A sweep point aggregated over several independent request seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedPoint {
    /// Channels supplied to the schedulers.
    pub channels: u32,
    /// AvgD statistics of PAMAD over the seeds.
    pub pamad: crate::stats::OnlineStats,
    /// AvgD statistics of m-PB over the seeds.
    pub mpb: crate::stats::OnlineStats,
    /// AvgD statistics of OPT over the seeds.
    pub opt: crate::stats::OnlineStats,
}

/// Runs [`sweep_channels`] once per seed and aggregates each point's AvgD
/// into mean/CI statistics — the honest error bars the paper's single-run
/// curves lack.
///
/// Programs depend only on the workload (not the seed), so each is built
/// once per channel count; only the request stream varies across seeds.
///
/// # Errors
///
/// Propagates scheduling errors; `seeds` must be non-empty.
pub fn replicated_sweep(
    config: &ExperimentConfig,
    channels: impl IntoIterator<Item = u32> + Clone,
    seeds: &[u64],
) -> Result<Vec<ReplicatedPoint>, ScheduleError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut acc: Vec<ReplicatedPoint> = Vec::new();
    for &seed in seeds {
        let config = ExperimentConfig {
            seed,
            ..config.clone()
        };
        let sweep = sweep_channels(&config, channels.clone())?;
        if acc.is_empty() {
            acc = sweep
                .points
                .iter()
                .map(|p| ReplicatedPoint {
                    channels: p.channels,
                    pamad: crate::stats::OnlineStats::new(),
                    mpb: crate::stats::OnlineStats::new(),
                    opt: crate::stats::OnlineStats::new(),
                })
                .collect();
        }
        for (slot, p) in acc.iter_mut().zip(&sweep.points) {
            debug_assert_eq!(slot.channels, p.channels);
            slot.pamad.push(p.pamad);
            slot.mpb.push(p.mpb);
            slot.opt.push(p.opt);
        }
    }
    Ok(acc)
}

/// Finds the smallest channel count whose PAMAD program meets an average
/// delay budget (in slots), by binary search over `1 ..= N_min`.
///
/// AvgD is measured with the config's request stream; it is monotone
/// non-increasing in the channel count up to sampling/placement noise, so
/// the binary search may be off by a channel in flat regions — callers
/// planning capacity should treat the result as the operating point to
/// verify, not a proof.
///
/// Returns `Ok(None)` if even `N_min` channels miss the budget (only
/// possible for budgets below PAMAD's placement noise floor; SUSC at
/// `N_min` always achieves zero).
///
/// # Errors
///
/// Propagates workload/scheduling errors.
///
/// # Examples
///
/// ```
/// use airsched_analysis::experiment::{channels_for_delay_budget, ExperimentConfig};
/// use airsched_workload::distributions::GroupSizeDistribution;
/// use airsched_workload::spec::WorkloadSpec;
///
/// let config = ExperimentConfig {
///     spec: WorkloadSpec::new(60, 4, 4, 2)
///         .distribution(GroupSizeDistribution::Uniform),
///     requests: 1000,
///     ..ExperimentConfig::paper_defaults()
/// };
/// let n = channels_for_delay_budget(&config, 5.0)?.unwrap();
/// assert!(n >= 1);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
pub fn channels_for_delay_budget(
    config: &ExperimentConfig,
    budget: f64,
) -> Result<Option<u32>, ScheduleError> {
    assert!(budget >= 0.0 && budget.is_finite(), "budget must be finite");
    let ladder = config.ladder()?;
    let min = minimum_channels(&ladder);
    let mut gen = RequestGenerator::new(&ladder, config.access, config.seed);
    let normalized = gen.take_normalized(config.requests);

    let avgd = |n: u32| -> Result<f64, ScheduleError> {
        let program = pamad::schedule_with(&ladder, n, config.weighting)?.into_program();
        Ok(avg_delay_of(&program, &ladder, &normalized))
    };

    if avgd(min)? > budget {
        return Ok(None);
    }
    let (mut lo, mut hi) = (1u32, min);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if avgd(mid)? <= budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(Some(lo))
}

/// The §5 "one fifth" observation, quantified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneFifthSummary {
    /// The distribution evaluated.
    pub distribution: GroupSizeDistribution,
    /// Theorem 3.1 minimum channels.
    pub min_channels: u32,
    /// `ceil(min / 5)`.
    pub one_fifth: u32,
    /// PAMAD AvgD with a single channel (the worst case).
    pub avgd_at_1: f64,
    /// PAMAD AvgD at one fifth of the minimum.
    pub avgd_at_fifth: f64,
    /// PAMAD AvgD at the minimum (should be ~0).
    pub avgd_at_min: f64,
}

/// Evaluates PAMAD at 1, `ceil(min/5)`, and `min` channels.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn one_fifth_summary(config: &ExperimentConfig) -> Result<OneFifthSummary, ScheduleError> {
    let ladder = config.ladder()?;
    let min = minimum_channels(&ladder);
    let fifth = min.div_ceil(5).max(1);
    let mut gen = RequestGenerator::new(&ladder, config.access, config.seed);
    let normalized = gen.take_normalized(config.requests);

    let run = |n: u32| -> Result<f64, ScheduleError> {
        let program = pamad::schedule_with(&ladder, n, config.weighting)?.into_program();
        Ok(avg_delay_of(&program, &ladder, &normalized))
    };
    Ok(OneFifthSummary {
        distribution: config.spec.current_distribution(),
        min_channels: min,
        one_fifth: fifth,
        avgd_at_1: run(1)?,
        avgd_at_fifth: run(fifth)?,
        avgd_at_min: run(min)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down config so tests stay fast (full paper scale is
    /// exercised by the bench binaries and integration tests).
    fn small_config(dist: GroupSizeDistribution) -> ExperimentConfig {
        ExperimentConfig {
            spec: WorkloadSpec::new(60, 4, 4, 2).distribution(dist),
            requests: 1500,
            seed: 7,
            weighting: Weighting::PaperEq2,
            access: AccessPattern::Uniform,
        }
    }

    #[test]
    fn paper_defaults_match_figure4() {
        let config = ExperimentConfig::paper_defaults();
        assert_eq!(config.requests, 3000);
        let ladder = config.ladder().unwrap();
        assert_eq!(ladder.total_pages(), 1000);
        assert_eq!(ladder.group_count(), 8);
        assert_eq!(ladder.times(), &[4, 8, 16, 32, 64, 128, 256, 512]);
    }

    #[test]
    fn sweep_points_are_sorted_and_complete() {
        let config = small_config(GroupSizeDistribution::Uniform);
        let sweep = sweep_channels(&config, [3u32, 1, 2]).unwrap();
        let ns: Vec<u32> = sweep.points.iter().map(|p| p.channels).collect();
        assert_eq!(ns, vec![1, 2, 3]);
        assert!(sweep.at(2).is_some());
        assert!(sweep.at(9).is_none());
    }

    #[test]
    fn delay_declines_with_channels_and_vanishes_at_minimum() {
        let config = small_config(GroupSizeDistribution::Uniform);
        let min = minimum_channels(&config.ladder().unwrap());
        let sweep = sweep_channels(&config, 1..=min).unwrap();
        let first = &sweep.points[0];
        let last = sweep.points.last().unwrap();
        assert!(first.pamad > last.pamad);
        // At the minimum, PAMAD's even-spread placement is near-zero (the
        // greedy spread can leave a marginally late gap; SUSC is the exact
        // scheduler in this regime and is covered elsewhere).
        assert!(last.pamad < 0.1, "AvgD at minimum: {}", last.pamad);
        assert!(last.opt < 0.1, "OPT AvgD at minimum: {}", last.opt);
    }

    #[test]
    fn pamad_tracks_opt_and_beats_mpb_overall() {
        for dist in [
            GroupSizeDistribution::LSkewed,
            GroupSizeDistribution::Normal,
        ] {
            let config = small_config(dist);
            let min = minimum_channels(&config.ladder().unwrap());
            let sweep = sweep_channels(&config, 1..=min).unwrap();
            let sum_pamad: f64 = sweep.points.iter().map(|p| p.pamad).sum();
            let sum_mpb: f64 = sweep.points.iter().map(|p| p.mpb).sum();
            let sum_opt: f64 = sweep.points.iter().map(|p| p.opt).sum();
            assert!(
                sum_pamad <= sum_mpb * 1.02 + 1e-9,
                "{dist}: PAMAD {sum_pamad} vs m-PB {sum_mpb}"
            );
            assert!(
                sum_pamad <= sum_opt * 1.35 + 0.5,
                "{dist}: PAMAD {sum_pamad} should track OPT {sum_opt}"
            );
        }
    }

    #[test]
    fn one_fifth_summary_shows_steep_decline() {
        let config = small_config(GroupSizeDistribution::Normal);
        let s = one_fifth_summary(&config).unwrap();
        assert!(s.one_fifth >= 1 && s.one_fifth <= s.min_channels);
        assert!(s.avgd_at_1 >= s.avgd_at_fifth);
        assert!(s.avgd_at_fifth >= s.avgd_at_min - 1e-9);
        assert!(s.avgd_at_min.abs() < 1e-9);
    }

    #[test]
    fn sweep_points_embed_structural_lint_verdicts() {
        // Every measured program — even deep below the minimum channel
        // count — must stay structurally sound under the lint gate's
        // best-effort rule set.
        let config = small_config(GroupSizeDistribution::Uniform);
        let min = minimum_channels(&config.ladder().unwrap());
        let sweep = sweep_channels(&config, 1..=min).unwrap();
        for p in &sweep.points {
            assert!(p.lint.is_clean(), "channels {}: {:?}", p.channels, p.lint);
        }
        assert_eq!(LintCounts::default().to_string(), "clean");
        assert_eq!(LintCounts { deny: 1, warn: 2 }.to_string(), "1D/2W");
    }

    #[test]
    fn solver_feasibility_flips_exactly_at_the_minimum() {
        // The difference-constraint solver independently certifies the
        // sweep's Theorem 3.1 column: every point below the minimum is
        // infeasible, the minimum itself (and above) feasible.
        let config = small_config(GroupSizeDistribution::Uniform);
        let ladder = config.ladder().unwrap();
        let min = minimum_channels(&ladder);
        let sweep = sweep_channels(&config, 1..=min + 1).unwrap();
        for p in &sweep.points {
            let solved = airsched_solve::check_ladder(&ladder, p.channels)
                .unwrap()
                .is_feasible();
            assert_eq!(
                p.feasible, solved,
                "channels {}: sweep column vs solver verdict",
                p.channels
            );
            assert_eq!(
                p.feasible,
                p.channels >= min,
                "channels {} vs minimum {min}",
                p.channels
            );
        }
    }

    #[test]
    fn full_range_spans_one_to_minimum() {
        let config = small_config(GroupSizeDistribution::Uniform);
        let range = full_range(&config).unwrap();
        let min = minimum_channels(&config.ladder().unwrap());
        assert_eq!(range.first(), Some(&1));
        assert_eq!(range.last(), Some(&min));
    }

    #[test]
    fn sweeps_are_deterministic() {
        let config = small_config(GroupSizeDistribution::SSkewed);
        let a = sweep_channels(&config, [1u32, 2]).unwrap();
        let b = sweep_channels(&config, [1u32, 2]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn delay_budget_planner_finds_operating_point() {
        let config = small_config(GroupSizeDistribution::Uniform);
        let ladder = config.ladder().unwrap();
        let min = minimum_channels(&ladder);
        // A generous budget needs few channels; a strict one needs more.
        let loose = channels_for_delay_budget(&config, 50.0).unwrap().unwrap();
        let strict = channels_for_delay_budget(&config, 0.5).unwrap().unwrap();
        assert!(loose <= strict, "loose {loose} vs strict {strict}");
        assert!(strict <= min);
        // The returned point actually meets the budget.
        let sweep = sweep_channels(&config, [strict]).unwrap();
        assert!(sweep.points[0].pamad <= 0.5 + 1e-9);
        // An infinite budget is satisfied by one channel.
        assert_eq!(
            channels_for_delay_budget(&config, f64::MAX).unwrap(),
            Some(1)
        );
    }

    #[test]
    fn impossible_budget_returns_none_or_minimum() {
        let config = small_config(GroupSizeDistribution::Uniform);
        // A zero budget may be unreachable for PAMAD (placement noise);
        // either answer is acceptable, but it must not panic and any
        // returned point must be within the minimum.
        if let Some(n) = channels_for_delay_budget(&config, 0.0).unwrap() {
            let min = minimum_channels(&config.ladder().unwrap());
            assert!(n <= min);
        }
    }

    #[test]
    fn replicated_sweep_aggregates_seeds() {
        let config = small_config(GroupSizeDistribution::Uniform);
        let points = replicated_sweep(&config, [1u32, 2], &[1, 2, 3]).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.pamad.count(), 3);
            assert_eq!(p.mpb.count(), 3);
            assert_eq!(p.opt.count(), 3);
            // Sampling noise exists but stays modest relative to the mean.
            if p.pamad.mean() > 1.0 {
                assert!(p.pamad.ci95_halfwidth() < p.pamad.mean());
            }
        }
        // More channels -> lower mean delay.
        assert!(points[0].pamad.mean() > points[1].pamad.mean());
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn replicated_sweep_needs_seeds() {
        let config = small_config(GroupSizeDistribution::Uniform);
        let _ = replicated_sweep(&config, [1u32], &[]);
    }

    #[test]
    fn with_distribution_changes_spec() {
        let config =
            ExperimentConfig::paper_defaults().with_distribution(GroupSizeDistribution::LSkewed);
        assert_eq!(
            config.spec.current_distribution(),
            GroupSizeDistribution::LSkewed
        );
    }
}
