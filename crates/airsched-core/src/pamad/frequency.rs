//! Algorithm 3: `PAMAD_Calculate_Frequency` — the stage-wise search for the
//! broadcast frequencies `S_1 .. S_h`.
//!
//! Stage `i` (for `i = 2 .. h`, paper numbering) assumes the relative
//! frequencies `r_1 .. r_{i-2}` chosen by earlier stages are final, and
//! searches the single unknown `r_{i-1}` — how many times the first `i-1`
//! groups' sub-program repeats per appearance of group `G_i` — for the value
//! minimizing the stage objective `D'_i` (Equation 2 over the first `i`
//! groups). The final frequencies are `S_i = prod_{j>=i} r_j`, `S_h = 1`.
//!
//! The search range for `r_{i-1}` is the paper's
//! `1 ..= ceil((N*t_i - P_i) / F_{i-1})`, where `F_{i-1}` is the number of
//! slot instances the first `i-1` groups occupy per repetition; beyond that
//! bound the earlier groups would already fit inside `t_i` with room to
//! spare, so larger `r` cannot reduce delay.
//!
//! The stage loop is incremental (DESIGN.md §7): the fixed-ratio suffix
//! products `R_j = prod_{k=j}^{g-2} r_k` are computed once per stage
//! (`O(g)`), and the trial frequency vector is updated in place per `r`
//! (`freqs[j] = r * R_j`), so a candidate evaluation costs `O(g)` instead
//! of the seed's `O(g²)` rebuild. Each stage's trace keeps at most
//! [`DEFAULT_TRACE_WINDOW`] candidates — the stage bound can reach
//! [`MAX_STAGE_RANGE`] (`1 << 20`), and pre-allocating a `Candidate` per
//! trial would reserve ~16 MiB per stage on degenerate ladders.

use crate::delay::{group_objective, Weighting};
use crate::group::GroupLadder;
use crate::types::GroupId;

/// Hard cap on any single stage's search range; the analytic bound is far
/// smaller for every realistic workload, so hitting this indicates a
/// degenerate configuration rather than a meaningful optimum.
pub const MAX_STAGE_RANGE: u64 = 1 << 20;

/// Candidates each [`StageTrace`] retains, in ascending `r`. Large enough
/// to keep every realistic stage's full trace (the paper workloads'
/// bounds are in the tens), small enough that a degenerate
/// `MAX_STAGE_RANGE` stage holds ~64 KiB, not ~16 MiB. Retention is
/// diagnostic only: the chosen ratio, the best objective and the
/// evaluated count are always recorded.
pub const DEFAULT_TRACE_WINDOW: usize = 4096;

/// Two stage objectives within this distance are considered tied; the
/// tie-break (closeness to the group-time ratio) then applies.
const TIE_EPS: f64 = 1e-12;

/// One candidate evaluated during a stage search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The trial value of `r_{i-1}`.
    pub r: u64,
    /// The stage objective `D'_i` at this trial.
    pub objective: f64,
}

/// Diagnostic record of one stage of Algorithm 3.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    /// The group `G_i` being added at this stage.
    pub group: GroupId,
    /// The retained `(r, D'_i)` pairs, in ascending `r`: the first
    /// [`DEFAULT_TRACE_WINDOW`] (see [`StageTrace::evaluated`] for the
    /// true sweep size).
    pub candidates: Vec<Candidate>,
    /// Total candidates evaluated at this stage (>= `candidates.len()`).
    pub evaluated: u64,
    /// The chosen `r_{i-1}^opt` (the minimizer; among ties, the candidate
    /// closest to the group-time ratio `t_i / t_{i-1}`).
    pub chosen: u64,
    /// The minimal stage objective.
    pub best_objective: f64,
}

/// The output of Algorithm 3: per-group frequencies plus the search trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyPlan {
    freqs: Vec<u64>,
    ratios: Vec<u64>,
    stages: Vec<StageTrace>,
    weighting: Weighting,
    n_real: u32,
}

impl FrequencyPlan {
    /// The broadcast frequencies `S_1 .. S_h` (one per ladder group,
    /// non-increasing, with `S_h = 1`).
    #[must_use]
    pub fn frequencies(&self) -> &[u64] {
        &self.freqs
    }

    /// The stage ratios `r_1 .. r_{h-1}` (empty for a single-group ladder).
    #[must_use]
    pub fn ratios(&self) -> &[u64] {
        &self.ratios
    }

    /// Per-stage search diagnostics, in stage order (`G_2 .. G_h`).
    #[must_use]
    pub fn stages(&self) -> &[StageTrace] {
        &self.stages
    }

    /// The objective weighting the search minimized.
    #[must_use]
    pub fn weighting(&self) -> Weighting {
        self.weighting
    }

    /// The channel count the plan was derived for.
    #[must_use]
    pub fn n_real(&self) -> u32 {
        self.n_real
    }

    /// The final objective value `D'_h` of the chosen frequencies (0 when
    /// the ladder has a single group).
    #[must_use]
    pub fn final_objective(&self) -> f64 {
        self.stages.last().map_or(0.0, |s| s.best_objective)
    }
}

/// Runs Algorithm 3 for `ladder` on `n_real` channels, each stage's trace
/// retaining at most [`DEFAULT_TRACE_WINDOW`] candidates.
///
/// Works for any positive `n_real`; with sufficient channels every stage
/// finds a zero-delay `r` and the result reproduces the SUSC frequencies.
///
/// # Panics
///
/// Panics if `n_real == 0`.
///
/// # Examples
///
/// ```
/// use airsched_core::delay::Weighting;
/// use airsched_core::group::GroupLadder;
/// use airsched_core::pamad::derive_frequencies;
///
/// // Paper Figure 2: three channels for a four-channel workload.
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
/// let plan = derive_frequencies(&ladder, 3, Weighting::PaperEq2);
/// assert_eq!(plan.frequencies(), &[4, 2, 1]);
/// assert_eq!(plan.ratios(), &[2, 2]);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
#[must_use]
pub fn derive_frequencies(
    ladder: &GroupLadder,
    n_real: u32,
    weighting: Weighting,
) -> FrequencyPlan {
    assert!(n_real > 0, "n_real must be non-zero");
    let h = ladder.group_count();
    let times = ladder.times();
    let pages = ladder.page_counts();

    let mut ratios: Vec<u64> = Vec::with_capacity(h.saturating_sub(1));
    let mut stages: Vec<StageTrace> = Vec::with_capacity(h.saturating_sub(1));
    // Trial frequency vector, updated in place across stages and trials.
    let mut freqs: Vec<u64> = Vec::with_capacity(h);
    // suffix[j] = prod_{k=j}^{g-2} r_k, the fixed-ratio product group j's
    // frequency is scaled by; recomputed once per stage, O(g).
    let mut suffix: Vec<u64> = Vec::with_capacity(h);

    // Stage for group index g (0-based; paper's i = g + 1), g = 1 .. h-1.
    for g in 1..h {
        suffix.clear();
        suffix.resize(g, 1u64);
        for j in (0..g.saturating_sub(1)).rev() {
            suffix[j] = suffix[j + 1].saturating_mul(ratios[j]);
        }
        // F_{i-1}: slot instances of groups 0..g per repetition.
        let mut f_prev: u64 = 0;
        for j in 0..g {
            f_prev = f_prev.saturating_add(suffix[j].saturating_mul(pages[j]));
        }
        debug_assert!(f_prev > 0, "earlier groups always hold pages");

        // Paper's stage bound: ceil((N * t_i - P_i) / F_{i-1}), at least 1.
        let numer = u64::from(n_real)
            .saturating_mul(times[g])
            .saturating_sub(pages[g]);
        let upper = numer.div_ceil(f_prev).clamp(1, MAX_STAGE_RANGE);

        // Tie-break target: the time ratio c_i = t_i / t_{i-1}. The paper
        // does not specify tie handling (its example has unique minimizers);
        // preferring the minimizer closest to c_i makes the greedy reproduce
        // SUSC's frequencies whenever channels are sufficient, where several
        // r values tie at zero delay but only ratio-proportional prefixes
        // stay zero-delay through later stages.
        let c_i = times[g] / times[g - 1];

        let retain = (upper as usize).min(DEFAULT_TRACE_WINDOW);
        let mut candidates = Vec::with_capacity(retain);
        let mut best: Option<Candidate> = None;
        freqs.clear();
        freqs.resize(g + 1, 1u64);
        for r in 1..=upper {
            // Prefix frequencies: groups 0..g get r * suffix[j], group g
            // stays 1 — an O(g) in-place refresh per trial.
            for j in 0..g {
                freqs[j] = suffix[j].saturating_mul(r);
            }
            let objective = group_objective(&times[..=g], &pages[..=g], &freqs, n_real, weighting);
            let cand = Candidate { r, objective };
            if candidates.len() < retain {
                candidates.push(cand);
            }
            let better = match best {
                None => true,
                Some(b) => {
                    if objective < b.objective - TIE_EPS {
                        true
                    } else if objective <= b.objective + TIE_EPS {
                        // Tie: prefer the candidate closest to c_i; on equal
                        // distance, the smaller r (fewer slot instances).
                        let dist = |x: u64| x.abs_diff(c_i);
                        dist(r) < dist(b.r)
                    } else {
                        false
                    }
                }
            };
            if better {
                best = Some(cand);
            }
        }
        let best = best.expect("range is never empty");
        ratios.push(best.r); // ratios[k] = r_{k+1} in paper numbering
        stages.push(StageTrace {
            group: GroupId::new(u32::try_from(g).expect("group index fits in u32")),
            candidates,
            evaluated: upper,
            chosen: best.r,
            best_objective: best.objective,
        });
    }

    // S_i = prod_{j=i}^{h-1} r_j (paper), 0-based: S[i] = prod ratios[i..].
    let mut freqs = vec![1u64; h];
    for i in (0..h.saturating_sub(1)).rev() {
        freqs[i] = freqs[i + 1].saturating_mul(ratios[i]);
    }

    FrequencyPlan {
        freqs,
        ratios,
        stages,
        weighting,
        n_real,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn paper_figure2_frequencies() {
        let plan = derive_frequencies(&fig2_ladder(), 3, Weighting::PaperEq2);
        assert_eq!(plan.ratios(), &[2, 2]);
        assert_eq!(plan.frequencies(), &[4, 2, 1]);
        assert_eq!(plan.n_real(), 3);
        assert_eq!(plan.weighting(), Weighting::PaperEq2);
    }

    #[test]
    fn paper_figure2_stage_traces_match_walkthrough() {
        let plan = derive_frequencies(&fig2_ladder(), 3, Weighting::PaperEq2);
        let stages = plan.stages();
        assert_eq!(stages.len(), 2);

        // Stage for G2: candidates r1 = 1, 2, 3 (paper bound ceil(7/3) = 3).
        let s2 = &stages[0];
        assert_eq!(s2.group, GroupId::new(1));
        assert_eq!(s2.candidates.len(), 3);
        assert_eq!(s2.evaluated, 3);
        assert!((s2.candidates[0].objective - 0.125).abs() < 1e-9);
        assert_eq!(s2.candidates[1].objective, 0.0);
        assert_eq!(s2.chosen, 2);
        assert_eq!(s2.best_objective, 0.0);

        // Stage for G3: candidates r2 = 1, 2 (paper bound ceil(21/11) = 2).
        let s3 = &stages[1];
        assert_eq!(s3.group, GroupId::new(2));
        assert_eq!(s3.candidates.len(), 2);
        assert_eq!(s3.evaluated, 2);
        assert!((s3.candidates[0].objective - 0.15476190476).abs() < 1e-9);
        assert!((s3.candidates[1].objective - 0.04166666667).abs() < 1e-8);
        assert_eq!(s3.chosen, 2);
        assert!((plan.final_objective() - 0.04166666667).abs() < 1e-8);
    }

    #[test]
    fn single_group_is_trivial() {
        let ladder = GroupLadder::new(vec![(4, 10)]).unwrap();
        let plan = derive_frequencies(&ladder, 2, Weighting::PaperEq2);
        assert_eq!(plan.frequencies(), &[1]);
        assert!(plan.ratios().is_empty());
        assert!(plan.stages().is_empty());
        assert_eq!(plan.final_objective(), 0.0);
    }

    #[test]
    fn sufficient_channels_recover_susc_frequencies() {
        // With >= the Theorem 3.1 minimum, the optimal r at every stage is
        // the time ratio c, reproducing SUSC's t_h/t_i frequencies.
        let ladder = fig2_ladder(); // minimum is 4
        let plan = derive_frequencies(&ladder, 4, Weighting::PaperEq2);
        assert_eq!(plan.frequencies(), &[4, 2, 1]);
        assert_eq!(plan.final_objective(), 0.0);
    }

    #[test]
    fn frequencies_are_non_increasing_with_unit_tail() {
        let ladder = GroupLadder::geometric(4, 2, &[50, 40, 30, 20, 10]).unwrap();
        for n in [1u32, 2, 3, 5, 8] {
            let plan = derive_frequencies(&ladder, n, Weighting::PaperEq2);
            let f = plan.frequencies();
            assert_eq!(*f.last().unwrap(), 1);
            for w in f.windows(2) {
                assert!(w[0] >= w[1], "frequencies must be non-increasing: {f:?}");
            }
        }
    }

    #[test]
    fn tighter_channels_never_increase_frequencies_wildly() {
        // Sanity: with a single channel the plan still exists and every
        // group is broadcast at least once.
        let ladder = GroupLadder::geometric(2, 2, &[10, 10, 10]).unwrap();
        let plan = derive_frequencies(&ladder, 1, Weighting::PaperEq2);
        assert!(plan.frequencies().iter().all(|&s| s >= 1));
    }

    #[test]
    fn normalized_weighting_also_produces_a_plan() {
        let plan = derive_frequencies(&fig2_ladder(), 3, Weighting::Normalized);
        assert_eq!(plan.frequencies().len(), 3);
        assert_eq!(*plan.frequencies().last().unwrap(), 1);
    }

    /// Regression for the pre-allocation hazard: a degenerate ladder whose
    /// stage bound hits [`MAX_STAGE_RANGE`] must not materialize a
    /// `Candidate` per trial, while a realistic ladder keeps every one.
    #[test]
    fn degenerate_ladder_keeps_trace_bounded() {
        // One page due every slot followed by one due in ~2M slots: the
        // second stage's bound N*t_2 - P_2 / F_1 saturates the clamp.
        let ladder = GroupLadder::new(vec![(1, 1), (1 << 21, 1)]).unwrap();
        let plan = derive_frequencies(&ladder, 1, Weighting::PaperEq2);
        let stage = &plan.stages()[0];
        assert_eq!(stage.evaluated, MAX_STAGE_RANGE);
        assert!(stage.candidates.len() <= DEFAULT_TRACE_WINDOW);
        assert_eq!(*plan.frequencies().last().unwrap(), 1);
        // A realistic ladder's stages fit the window whole.
        let ladder = GroupLadder::geometric(2, 2, &[10, 20, 15, 8]).unwrap();
        let plan = derive_frequencies(&ladder, 5, Weighting::PaperEq2);
        assert!(plan
            .stages()
            .iter()
            .all(|s| s.candidates.len() as u64 == s.evaluated));
    }

    #[test]
    #[should_panic(expected = "n_real")]
    fn zero_channels_panics() {
        let _ = derive_frequencies(&fig2_ladder(), 0, Weighting::PaperEq2);
    }
}
