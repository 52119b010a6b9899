//! Kenyon–Schabanel–Young-style PTAS baseline for frequency selection.
//!
//! KSY's *Polynomial-time approximation scheme for data broadcast*
//! restricts broadcast frequencies to a `(1 + eps)`-geometric grid: the
//! per-group delay terms of the paper's Equation 2 objective scale by at
//! most `(1 + eps)` when a frequency moves one grid step, so the grid
//! always contains a vector within `(1 + eps)` of the continuous optimum
//! while shrinking the search space from `prod_i F_i` to
//! `prod_i log_{1+eps} F_i` candidates.
//!
//! This module implements that rounding idea as a *measured baseline*
//! next to the exact searches in [`airsched_core::opt`]: it seeds from
//! PAMAD's closed-form frequencies (the paper's analytic near-optimum)
//! and sweeps *global* `(1 + eps)`-grid rescalings of that seed — the
//! optimum frequency vector mostly shares the seed's ratios and differs
//! in overall scale, the axis the closed form fixes conservatively —
//! refining each rescaled base with a per-group local grid window. All
//! candidates are scored under the same
//! [`airsched_core::delay::group_objective`] the exact OPT search
//! minimizes. The seed itself is always a candidate, so the result is
//! never worse than PAMAD; `planner_perf` and CI record the measured ratio
//! against OPT rather than trusting the analytical guarantee.

use std::collections::HashSet;

use airsched_core::delay::{group_objective, Weighting};
use airsched_core::error::ScheduleError;
use airsched_core::group::GroupLadder;
use airsched_core::opt::OptConfig;
use airsched_core::pamad::{self, Placement};

/// Cap on enumerated frequency vectors; the per-group window shrinks
/// until the product fits (at worst collapsing to the seed alone).
const MAX_CANDIDATES: u128 = 200_000;

/// The PTAS result: grid frequencies and their objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct PtasOutcome {
    freqs: Vec<u64>,
    objective: f64,
    epsilon: f64,
    evaluated: u64,
}

impl PtasOutcome {
    /// The chosen frequencies `S_1 .. S_h`, one per ladder group.
    #[must_use]
    pub fn frequencies(&self) -> &[u64] {
        &self.freqs
    }

    /// The Equation 2 objective of the chosen frequencies.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The grid parameter the search ran with.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of frequency vectors evaluated.
    #[must_use]
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Measured approximation ratio against a reference objective
    /// (usually [`airsched_core::opt::search_r_structured`]'s). A zero
    /// reference compares degenerately: 1 if this result is also zero,
    /// infinity otherwise.
    #[must_use]
    pub fn ratio_vs(&self, reference_objective: f64) -> f64 {
        if reference_objective <= 0.0 {
            if self.objective <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.objective / reference_objective
        }
    }

    /// Materializes the program for the chosen frequencies (Algorithm 4
    /// placement, shared with PAMAD/OPT).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoChannels`] if `n_real == 0`.
    pub fn place(&self, ladder: &GroupLadder, n_real: u32) -> Result<Placement, ScheduleError> {
        pamad::place_frequencies(ladder, &self.freqs, n_real)
    }
}

/// Runs the grid search for `ladder` on `n_real` channels.
///
/// # Panics
///
/// Panics if `n_real == 0` or `epsilon <= 0`.
#[must_use]
pub fn approximate(
    ladder: &GroupLadder,
    n_real: u32,
    epsilon: f64,
    weighting: Weighting,
) -> PtasOutcome {
    assert!(n_real > 0, "n_real must be non-zero");
    assert!(epsilon > 0.0, "epsilon must be positive");
    let seed = pamad::derive_frequencies(ladder, n_real, weighting)
        .frequencies()
        .to_vec();
    let times = ladder.times();
    let pages = ladder.page_counts();
    let cycle = ladder.max_time();
    // Same per-group ceiling the exhaustive search uses, so measured
    // ratios compare like with like.
    let factor = OptConfig::default().max_freq_factor;
    let caps: Vec<u64> = times.iter().map(|&t| (factor * cycle / t).max(1)).collect();
    let bases = scaled_bases(&seed, &caps, epsilon);
    let mut window = 2u32;
    let mut candidates = candidate_sets(&bases, &caps, epsilon, window);
    while window > 0 && total_product(&candidates) > MAX_CANDIDATES {
        window -= 1;
        candidates = candidate_sets(&bases, &caps, epsilon, window);
    }

    let mut best_freqs = seed.clone();
    let mut best = group_objective(times, pages, &seed, n_real, weighting);
    let mut evaluated = 1u64;
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    seen.insert(seed);
    for sets in &candidates {
        let mut cursor = vec![0usize; sets.len()];
        'odometer: loop {
            let freqs: Vec<u64> = cursor.iter().zip(sets).map(|(&i, c)| c[i]).collect();
            if seen.insert(freqs.clone()) {
                let objective = group_objective(times, pages, &freqs, n_real, weighting);
                evaluated += 1;
                if objective < best {
                    best = objective;
                    best_freqs = freqs;
                }
            }
            for pos in 0..cursor.len() {
                cursor[pos] += 1;
                if cursor[pos] < sets[pos].len() {
                    continue 'odometer;
                }
                cursor[pos] = 0;
            }
            break;
        }
    }
    PtasOutcome {
        freqs: best_freqs,
        objective: best,
        epsilon,
        evaluated,
    }
}

/// Global `(1 + eps)`-grid rescalings of the seed, clamped to the
/// per-group caps: downward until the all-ones floor, upward until every
/// group saturates its cap. Consecutive duplicates are collapsed; order
/// is ascending scale so the search is deterministic.
fn scaled_bases(seed: &[u64], caps: &[u64], epsilon: f64) -> Vec<Vec<u64>> {
    let rescale = |j: i32| -> Vec<u64> {
        let s = (1.0 + epsilon).powi(j);
        seed.iter()
            .zip(caps)
            .map(|(&v, &cap)| (((v as f64) * s).round() as u64).clamp(1, cap))
            .collect()
    };
    let mut down: Vec<Vec<u64>> = Vec::new();
    let mut j = -1i32;
    while j > -256 {
        let base = rescale(j);
        let floored = base.iter().all(|&b| b == 1);
        if down.last() != Some(&base) {
            down.push(base.clone());
        }
        if floored {
            break;
        }
        j -= 1;
    }
    down.reverse();
    let mut bases = down;
    let mut j = 0i32;
    while j < 256 {
        let base = rescale(j);
        let saturated = base.iter().zip(caps).all(|(b, c)| b == c);
        if bases.last() != Some(&base) {
            bases.push(base.clone());
        }
        if saturated {
            break;
        }
        j += 1;
    }
    bases
}

/// Per-base, per-group candidate sets: the `(1 + eps)`-grid points within
/// `window` steps of the base frequency, clamped to the per-group caps so
/// the search space stays inside the exact search's, the base itself
/// always included.
fn candidate_sets(
    bases: &[Vec<u64>],
    caps: &[u64],
    epsilon: f64,
    window: u32,
) -> Vec<Vec<Vec<u64>>> {
    bases
        .iter()
        .map(|base| {
            base.iter()
                .zip(caps)
                .map(|(&s, &cap)| {
                    let mut set = vec![s];
                    let scale =
                        (1.0 + epsilon).powi(i32::try_from(window).expect("window fits i32"));
                    let lo = ((s as f64) / scale).floor().max(1.0) as u64;
                    let hi = (((s as f64) * scale).ceil() as u64).min(cap);
                    // Walk the absolute grid {round((1+eps)^k)} across [lo, hi].
                    let mut k = 0i32;
                    loop {
                        let g = (1.0 + epsilon).powi(k);
                        if g > hi as f64 + 0.5 {
                            break;
                        }
                        let rounded = g.round().max(1.0) as u64;
                        if rounded >= lo && rounded <= hi && !set.contains(&rounded) {
                            set.push(rounded);
                        }
                        k += 1;
                    }
                    set.sort_unstable();
                    set
                })
                .collect()
        })
        .collect()
}

fn total_product(candidates: &[Vec<Vec<u64>>]) -> u128 {
    candidates
        .iter()
        .map(|sets| {
            sets.iter()
                .map(|c| c.len() as u128)
                .try_fold(1u128, u128::checked_mul)
                .unwrap_or(u128::MAX)
        })
        .try_fold(0u128, u128::checked_add)
        .unwrap_or(u128::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::bound::minimum_channels;
    use airsched_core::opt;

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn ptas_between_full_optimum_and_pamad() {
        let ladder = fig2_ladder();
        for n in 1..=3u32 {
            let full = opt::search_full_bnb(&ladder, n, opt::OptConfig::default());
            let pamad = pamad::derive_frequencies(&ladder, n, Weighting::PaperEq2);
            let pamad_obj = group_objective(
                ladder.times(),
                ladder.page_counts(),
                pamad.frequencies(),
                n,
                Weighting::PaperEq2,
            );
            let ptas = approximate(&ladder, n, 0.1, Weighting::PaperEq2);
            // The seed is a candidate, so PAMAD is an upper bound; the
            // exhaustive optimum is a true lower bound. (The r-structured
            // OPT is *not* a lower bound: its ratio structure excludes
            // grid vectors, and the PTAS does beat it on some ladders.)
            assert!(
                ptas.objective() <= pamad_obj + 1e-9,
                "n={n}: ptas {} vs pamad {pamad_obj}",
                ptas.objective()
            );
            assert!(
                ptas.objective() + 1e-9 >= full.objective(),
                "n={n}: ptas {} below exhaustive optimum {}",
                ptas.objective(),
                full.objective()
            );
        }
    }

    #[test]
    fn measured_ratio_vs_exhaustive_opt_is_within_epsilon_below_minimum() {
        let ladder = fig2_ladder();
        let n = minimum_channels(&ladder) - 1;
        let full = opt::search_full_bnb(&ladder, n, opt::OptConfig::default());
        let ptas = approximate(&ladder, n, 0.1, Weighting::PaperEq2);
        // Below the minimum the optimum is a rescaled seed ([7, 4, 2]
        // vs PAMAD's [4, 2, 1] here); the global scale sweep must reach
        // it to within the grid's (1 + eps) rounding loss.
        let ratio = ptas.ratio_vs(full.objective());
        assert!((1.0 - 1e-9..=1.1 + 1e-9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn placement_materializes() {
        let ladder = fig2_ladder();
        let ptas = approximate(&ladder, 2, 0.25, Weighting::PaperEq2);
        let placement = ptas.place(&ladder, 2).unwrap();
        assert!(placement.program().occupied_slots() > 0);
    }

    #[test]
    fn zero_reference_ratio_degenerates_gracefully() {
        let ladder = fig2_ladder();
        let ptas = approximate(&ladder, 2, 0.1, Weighting::PaperEq2);
        assert!(ptas.evaluated() >= 1);
        assert!(ptas.frequencies().iter().all(|&f| f >= 1));
        if ptas.objective() > 0.0 {
            assert_eq!(ptas.ratio_vs(0.0), f64::INFINITY);
        }
    }
}
