//! OPT — the optimal-frequency baseline (§5).
//!
//! The paper compares PAMAD against "an optimal (OPT) algorithm which
//! exhaustively searches for a set of optimal broadcast frequencies that
//! incurs the minimum delay", noting its search time is "unacceptably
//! high". Two search modes are provided:
//!
//! * [`search_full`] — true exhaustive enumeration of every frequency
//!   vector `(S_1 .. S_h)` within per-group caps. Exponential; guarded by an
//!   enumeration limit and intended for small ladders (tests, worked
//!   examples, cross-checks). [`search_full_bnb`] covers the same space
//!   with branch-and-bound pruning.
//! * [`search_r_structured`] — joint enumeration of the *ratio* vectors
//!   `(r_1 .. r_{h-1})` that PAMAD searches greedily, i.e. the harmonic
//!   family `S_i = prod_{j >= i} r_j`. This is a global optimum over the
//!   same structured space PAMAD draws from (PAMAD fixes each `r` stage by
//!   stage; this mode revisits all combinations jointly), and is cheap
//!   enough for the paper's Figure 5 workloads. It is the default OPT used
//!   by the benchmark harness; DESIGN.md records the substitution.
//!
//! Both modes minimize the same analytic objective as PAMAD
//! ([`crate::delay::group_objective`]), then materialize the program with
//! Algorithm 4 so the comparison isolates the frequency choice.
//!
//! ## Performance engineering (DESIGN.md §7)
//!
//! The searches are built to run "as fast as the hardware allows":
//!
//! * **Admissible pruning.** Both DFS modes carry an admissible lower
//!   bound on every subtree's objective; a subtree whose bound cannot beat
//!   the incumbent is cut *before* it is enumerated. The bound never
//!   overestimates, so the found optimum — and, because ties are broken by
//!   enumeration order, the exact frequency vector — is bit-identical to
//!   the unpruned search ([`search_r_structured_unpruned`] is retained as
//!   the reference).
//! * **Incremental prefix products.** The slot count `F_j` of a ratio
//!   prefix obeys `F_{j+1} = r_j * F_j + P_{j+1}`, so extending a prefix is
//!   `O(1)` instead of the `O(h^2)` per-node vector rebuild the seed
//!   implementation paid.

use crate::delay::{group_objective, Weighting};
use crate::error::ScheduleError;
use crate::group::GroupLadder;
use crate::pamad::{place_frequencies, Placement};

/// Tuning knobs for the exhaustive searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptConfig {
    /// Per-group frequency cap multiplier for [`search_full`]: group `i` is
    /// searched over `1 ..= factor * t_h / t_i`.
    pub max_freq_factor: u64,
    /// Abort [`search_full`] if the candidate count exceeds this.
    pub enumeration_limit: u128,
    /// Objective weighting to minimize.
    pub weighting: Weighting,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            max_freq_factor: 2,
            enumeration_limit: 1 << 24,
            weighting: Weighting::PaperEq2,
        }
    }
}

/// The outcome of an OPT search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResult {
    freqs: Vec<u64>,
    objective: f64,
    evaluated: u64,
    pruned: u64,
}

impl OptResult {
    /// The minimizing frequency vector `S_1 .. S_h`.
    #[must_use]
    pub fn frequencies(&self) -> &[u64] {
        &self.freqs
    }

    /// The minimal analytic objective `D'`.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of candidate vectors evaluated.
    #[must_use]
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Number of subtrees cut by the admissible lower bound before being
    /// enumerated (zero for the unpruned reference search).
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Materializes the program for the found frequencies (Algorithm 4).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoChannels`] if `n_real == 0`.
    pub fn place(&self, ladder: &GroupLadder, n_real: u32) -> Result<Placement, ScheduleError> {
        place_frequencies(ladder, &self.freqs, n_real)
    }
}

/// Joint search over ratio vectors `(r_1 .. r_{h-1})`, `S_i = prod r_{j>=i}`,
/// with admissible subtree pruning.
///
/// Each `r_j` ranges over `1 ..= ceil((N*t_{j+1} - P_{j+1}) / sum_{k<=j} P_k)`
/// (Algorithm 3's stage bound evaluated at its loosest, i.e. with all
/// earlier ratios at 1), clamped to at least 1. Subtrees whose lower bound
/// cannot improve on the incumbent are skipped; the result is bit-identical
/// to [`search_r_structured_unpruned`] while [`OptResult::evaluated`] is
/// strictly smaller whenever anything prunes.
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
/// use airsched_core::opt;
///
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
/// let best = opt::search_r_structured(&ladder, 3, Weighting::PaperEq2);
/// assert_eq!(best.frequencies(), &[4, 2, 1]); // PAMAD is optimal here
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
#[must_use]
pub fn search_r_structured(ladder: &GroupLadder, n_real: u32, weighting: Weighting) -> OptResult {
    r_structured_impl(ladder, n_real, weighting, true)
}

/// The unpruned reference for [`search_r_structured`]: enumerates every
/// ratio vector in the dynamic-bound space without the lower-bound cut.
///
/// Kept so benchmarks (`planner_perf`) and tests can demonstrate that the
/// pruned search returns bit-identical frequencies and objective while
/// evaluating strictly fewer candidates.
///
/// # Panics
///
/// Panics if `n_real == 0`.
#[must_use]
pub fn search_r_structured_unpruned(
    ladder: &GroupLadder,
    n_real: u32,
    weighting: Weighting,
) -> OptResult {
    r_structured_impl(ladder, n_real, weighting, false)
}

fn r_structured_impl(
    ladder: &GroupLadder,
    n_real: u32,
    weighting: Weighting,
    prune: bool,
) -> OptResult {
    assert!(n_real > 0, "n_real must be non-zero");
    let h = ladder.group_count();
    let pages = ladder.page_counts();
    let bound_weights = bound_weights(pages, weighting);
    let mut search = RSearch {
        times: ladder.times(),
        pages,
        n_real,
        weighting,
        prune,
        bound_weights: bound_weights.as_deref(),
        ratios: vec![1u64; h - 1],
        best: None,
        evaluated: 0,
        pruned: 0,
    };
    // The root prefix is group 0 alone: F_0 = P_0. A single-group ladder is
    // already a leaf, evaluated once at frequency 1.
    search.descend(0, pages[0]);
    let best = search
        .best
        .expect("every ratio prefix leads to at least one leaf");
    OptResult {
        freqs: best.freqs,
        objective: best.objective,
        evaluated: search.evaluated,
        pruned: search.pruned,
    }
}

/// Algorithm 3's stage bound `ceil((N*t_next - P_next) / F_prev)`, at least 1.
fn ratio_bound(n_real: u32, t_next: u64, p_next: u64, f_prev: u64) -> u64 {
    let numer = u64::from(n_real)
        .saturating_mul(t_next)
        .saturating_sub(p_next);
    numer.div_ceil(f_prev.max(1)).max(1)
}

/// Per-group weights the admissible bound charges late groups with, for the
/// normalized weightings (`None` for the paper-literal objective, which
/// derives its weight from the frequency vector itself).
fn bound_weights(pages: &[u64], weighting: Weighting) -> Option<Vec<f64>> {
    let n_pages: u64 = pages.iter().sum();
    match weighting {
        Weighting::PaperEq2 => None,
        Weighting::Normalized => Some(pages.iter().map(|&p| p as f64 / n_pages as f64).collect()),
        Weighting::ZipfAccess { theta } => Some(crate::delay::zipf_group_masses_for_bound(
            pages, n_pages, theta,
        )),
    }
}

/// The best leaf a search has seen.
struct RBest {
    freqs: Vec<u64>,
    objective: f64,
}

/// DFS over ratio vectors with *dynamic* Algorithm-3 stage bounds: the
/// range of `r_j` depends on the ratios already fixed at positions `< j`
/// (`ceil((N*t_{j+1} - P_{j+1}) / F_j)`, where `F_j` counts the slot
/// instances the first `j+1` groups occupy per repetition). Larger earlier
/// ratios therefore tighten later ranges, keeping the tree far smaller than
/// the static cross-product while covering the same meaningful space.
///
/// The prefix slot count is maintained incrementally
/// (`F_{j+1} = r_j * F_j + P_{j+1}`), so extending a candidate costs `O(1)`
/// and a leaf evaluation `O(h)` — the seed implementation re-derived every
/// prefix product from scratch, `O(h^2)` per node.
struct RSearch<'a> {
    times: &'a [u64],
    pages: &'a [u64],
    n_real: u32,
    weighting: Weighting,
    prune: bool,
    /// Fixed per-group weights for the bound (normalized weightings only).
    bound_weights: Option<&'a [f64]>,
    ratios: Vec<u64>,
    best: Option<RBest>,
    evaluated: u64,
    pruned: u64,
}

impl RSearch<'_> {
    /// Admissible lower bound with ratio positions `0 .. j1` fixed, i.e.
    /// groups `0 ..= j1` in fixed relative frequency, where `f` is the slot
    /// count `F_{j1} = sum_{k <= j1} q_k P_k` of that prefix
    /// (`q_k = prod ratios[k .. j1]`).
    ///
    /// Any completion multiplies every fixed group's frequency by the same
    /// future product `M >= 1` and adds at least one appearance of each
    /// remaining group, so the spacing `F / S_i` of fixed group `i` is at
    /// least `f / q_i`. Every objective term is non-decreasing in that
    /// spacing wherever it is positive (see DESIGN.md §7 for the algebra),
    /// so evaluating the fixed groups at their spacing floor and crediting
    /// the remaining groups zero never overestimates.
    fn lower_bound(&self, j1: usize, f: u64) -> f64 {
        let f_f = f as f64;
        let nr = f64::from(self.n_real);
        let mut lb = 0.0;
        let mut q = 1.0f64; // prod ratios[i .. j1], built from i = j1 down
        for i in (0..=j1).rev() {
            let x_lb = f_f / q; // spacing floor F / S_i
            let t = self.times[i] as f64;
            match self.bound_weights {
                None => {
                    // PaperEq2: term >= (P_i / x) * (x/N - t)^2 / 2, which
                    // is non-decreasing in x wherever x/N > t.
                    let a = x_lb / nr - t;
                    if a > 0.0 {
                        lb += (self.pages[i] as f64 / x_lb) * a * a / 2.0;
                    }
                }
                Some(weights) => {
                    // Normalized / Zipf: gap = t_major / S_i >= x / N and
                    // (g-t)^2 / 2g is non-decreasing in g for g > t.
                    let gap = x_lb / nr;
                    if gap > t {
                        lb += weights[i] * (gap - t) * (gap - t) / (2.0 * gap);
                    }
                }
            }
            if i > 0 {
                q *= self.ratios[i - 1] as f64;
            }
        }
        lb
    }

    /// Returns `true` (and tallies) when the subtree rooted at the prefix
    /// `ratios[0 .. j1]` with slot count `f` cannot strictly improve on the
    /// incumbent. Ties keep the earlier enumeration, so `>=` is exact.
    fn try_prune(&mut self, j1: usize, f: u64) -> bool {
        if !self.prune {
            return false;
        }
        match &self.best {
            Some(best) if self.lower_bound(j1, f) >= best.objective => {
                self.pruned += 1;
                true
            }
            _ => false,
        }
    }

    /// Continues the DFS with ratio positions `0 .. j` fixed and prefix slot
    /// count `f_prev = F_j` covering groups `0 ..= j`.
    fn descend(&mut self, j: usize, f_prev: u64) {
        let h = self.times.len();
        if j == h - 1 {
            let mut freqs = vec![1u64; h];
            for i in (0..h - 1).rev() {
                freqs[i] = freqs[i + 1].saturating_mul(self.ratios[i]);
            }
            let obj = group_objective(self.times, self.pages, &freqs, self.n_real, self.weighting);
            self.evaluated += 1;
            // Strict improvement: ties keep the earlier (lexicographically
            // smaller in ratio order, hence first-enumerated) vector.
            let improves = match &self.best {
                None => true,
                Some(best) => obj < best.objective,
            };
            if improves {
                self.best = Some(RBest {
                    freqs,
                    objective: obj,
                });
            }
            return;
        }
        let bound = ratio_bound(self.n_real, self.times[j + 1], self.pages[j + 1], f_prev);
        for r in 1..=bound {
            self.ratios[j] = r;
            let f_child = r.saturating_mul(f_prev).saturating_add(self.pages[j + 1]);
            if self.try_prune(j + 1, f_child) {
                continue;
            }
            self.descend(j + 1, f_child);
        }
        self.ratios[j] = 1;
    }
}

/// True exhaustive enumeration of all frequency vectors within caps.
///
/// Group `i` is searched over `1 ..= config.max_freq_factor * t_h / t_i`.
///
/// # Errors
///
/// Returns [`ScheduleError::SearchSpaceTooLarge`] if the candidate count
/// exceeds `config.enumeration_limit`.
///
/// # Panics
///
/// Panics if `n_real == 0`.
pub fn search_full(
    ladder: &GroupLadder,
    n_real: u32,
    config: OptConfig,
) -> Result<OptResult, ScheduleError> {
    assert!(n_real > 0, "n_real must be non-zero");
    let h = ladder.group_count();
    let times = ladder.times();
    let pages = ladder.page_counts();
    let th = ladder.max_time();

    let caps: Vec<u64> = times
        .iter()
        .map(|&t| (config.max_freq_factor * (th / t)).max(1))
        .collect();
    let candidates: u128 = caps.iter().map(|&c| u128::from(c)).product();
    if candidates > config.enumeration_limit {
        return Err(ScheduleError::SearchSpaceTooLarge {
            candidates,
            limit: config.enumeration_limit,
        });
    }

    let mut best_freqs = Vec::new();
    let mut best_obj = f64::INFINITY;
    let mut evaluated = 0u64;
    let mut freqs = vec![1u64; h];

    loop {
        let obj = group_objective(times, pages, &freqs, n_real, config.weighting);
        evaluated += 1;
        // Prefer lower objective; among equal objectives, fewer total slot
        // instances (a shorter cycle).
        if best_freqs.is_empty()
            || obj < best_obj
            || (obj == best_obj
                && total_instances(&freqs, pages) < total_instances(&best_freqs, pages))
        {
            best_obj = obj;
            best_freqs = freqs.clone();
        }

        let mut pos = 0;
        loop {
            if pos == h {
                return Ok(OptResult {
                    freqs: best_freqs,
                    objective: best_obj,
                    evaluated,
                    pruned: 0,
                });
            }
            if freqs[pos] < caps[pos] {
                freqs[pos] += 1;
                break;
            }
            freqs[pos] = 1;
            pos += 1;
        }
    }
}

fn total_instances(freqs: &[u64], pages: &[u64]) -> u64 {
    freqs.iter().zip(pages).map(|(&s, &p)| s * p).sum()
}

/// Branch-and-bound exhaustive search over the full frequency space.
///
/// Covers the same space as [`search_full`] (per-group caps
/// `1 ..= factor * t_h / t_i`) but prunes with an *admissible* lower
/// bound, so it finds the same optimum while visiting a small fraction of
/// the tree — extending true exhaustive search to ladders where plain
/// enumeration explodes.
///
/// **The bound.** Once `S_1 .. S_j` are fixed, the final slot count is at
/// least `F_lb = sum_{i<=j} S_i P_i + sum_{k>j} P_k` (every remaining
/// group airs at least once). For a *fixed* `S_i`, each delay term is
/// non-decreasing in `F` wherever it is positive (it has the form
/// `(F/c - t)^2 / F` up to the ceiling on `t_major`, whose derivative is
/// `(F/c - t)(F/c + t)/F^2 >= 0`), so evaluating the fixed groups' terms
/// at `F_lb` and crediting the remaining groups zero never overestimates.
/// The search starts from [`search_r_structured`]'s solution as the
/// incumbent, which makes the bound bite immediately.
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
/// use airsched_core::opt::{search_full, search_full_bnb, OptConfig};
///
/// let ladder = GroupLadder::new(vec![(2, 4), (4, 6), (8, 2)])?;
/// let config = OptConfig::default();
/// let plain = search_full(&ladder, 2, config)?;
/// let bnb = search_full_bnb(&ladder, 2, config);
/// assert_eq!(bnb.objective(), plain.objective());
/// assert!(bnb.evaluated() <= plain.evaluated());
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
#[must_use]
pub fn search_full_bnb(ladder: &GroupLadder, n_real: u32, config: OptConfig) -> OptResult {
    assert!(n_real > 0, "n_real must be non-zero");
    let h = ladder.group_count();
    let times = ladder.times();
    let pages = ladder.page_counts();
    let th = ladder.max_time();

    let caps: Vec<u64> = times
        .iter()
        .map(|&t| (config.max_freq_factor * (th / t)).max(1))
        .collect();
    // Suffix page sums: remaining_pages[j] = sum of P_k for k >= j.
    let mut remaining_pages = vec![0u64; h + 1];
    for j in (0..h).rev() {
        remaining_pages[j] = remaining_pages[j + 1] + pages[j];
    }
    let n_pages: u64 = pages.iter().sum();
    let zipf_masses = match config.weighting {
        Weighting::ZipfAccess { theta } => Some(crate::delay::zipf_group_masses_for_bound(
            pages, n_pages, theta,
        )),
        _ => None,
    };

    // Incumbent: the structured optimum (always within the cap space as
    // long as its frequencies respect the caps; clamp defensively).
    let seed = search_r_structured(ladder, n_real, config.weighting);
    let seed_freqs: Vec<u64> = seed
        .frequencies()
        .iter()
        .zip(&caps)
        .map(|(&s, &cap)| s.min(cap))
        .collect();
    let mut bnb = Bnb {
        times,
        pages,
        caps: &caps,
        remaining_pages: &remaining_pages,
        n_real,
        weighting: config.weighting,
        zipf_masses: zipf_masses.as_deref(),
        n_pages,
        freqs: vec![1u64; h],
        best: BnbBest {
            objective: group_objective(times, pages, &seed_freqs, n_real, config.weighting),
            instances: total_instances(&seed_freqs, pages),
            freqs: seed_freqs,
        },
        evaluated: 0,
        pruned: 0,
    };
    bnb.dfs(0, 0);

    OptResult {
        freqs: bnb.best.freqs,
        objective: bnb.best.objective,
        evaluated: bnb.evaluated + seed.evaluated(),
        pruned: bnb.pruned,
    }
}

/// The best candidate the B&B has seen, with its tie-break key.
struct BnbBest {
    freqs: Vec<u64>,
    objective: f64,
    instances: u64,
}

struct Bnb<'a> {
    times: &'a [u64],
    pages: &'a [u64],
    caps: &'a [u64],
    remaining_pages: &'a [u64],
    n_real: u32,
    weighting: Weighting,
    /// Zipf masses hoisted out of the per-node bound (computed once).
    zipf_masses: Option<&'a [f64]>,
    n_pages: u64,
    freqs: Vec<u64>,
    best: BnbBest,
    evaluated: u64,
    pruned: u64,
}

impl Bnb<'_> {
    /// Admissible lower bound with groups `0..j` fixed, whose slot
    /// instances sum to `fixed_slots`.
    fn lower_bound(&self, j: usize, fixed_slots: u64) -> f64 {
        let f_lb = fixed_slots + self.remaining_pages[j];
        let tm_lb = f_lb.div_ceil(u64::from(self.n_real));
        let (f_f, tm, nr) = (f_lb as f64, tm_lb as f64, f64::from(self.n_real));
        let mut lb = 0.0;
        for i in 0..j {
            let (t, p, s) = (
                self.times[i] as f64,
                self.pages[i] as f64,
                self.freqs[i] as f64,
            );
            match self.weighting {
                Weighting::PaperEq2 => {
                    let a = f_f / (nr * s) - t;
                    let b = tm / s - t;
                    if a > 0.0 && b > 0.0 {
                        lb += (s * p / f_f) * a * b / 2.0;
                    }
                }
                Weighting::Normalized | Weighting::ZipfAccess { .. } => {
                    let weight = match self.zipf_masses {
                        Some(m) => m[i],
                        None => p / self.n_pages as f64,
                    };
                    let gap = tm / s;
                    if gap > t {
                        lb += weight * (gap - t) * (gap - t) / (2.0 * gap);
                    }
                }
            }
        }
        lb
    }

    /// Offers a fully assigned frequency vector to the incumbent under the
    /// replacement rule: lower objective, then fewer slot instances.
    fn offer_leaf(&mut self) {
        let obj = group_objective(
            self.times,
            self.pages,
            &self.freqs,
            self.n_real,
            self.weighting,
        );
        self.evaluated += 1;
        let instances = total_instances(&self.freqs, self.pages);
        if obj < self.best.objective
            || (obj == self.best.objective && instances < self.best.instances)
        {
            self.best = BnbBest {
                freqs: self.freqs.clone(),
                objective: obj,
                instances,
            };
        }
    }

    /// DFS over positions `j..` with groups `0..j` fixed at `fixed_slots`
    /// slot instances.
    fn dfs(&mut self, j: usize, fixed_slots: u64) {
        if j == self.freqs.len() {
            self.offer_leaf();
            return;
        }
        for s in 1..=self.caps[j] {
            self.freqs[j] = s;
            let child_slots = fixed_slots + s * self.pages[j];
            if self.lower_bound(j + 1, child_slots) > self.best.objective {
                // Terms only grow with larger later F; larger s at this
                // position only raises F further, but terms of *later*
                // siblings may differ — prune this subtree only.
                self.pruned += 1;
                continue;
            }
            self.dfs(j + 1, child_slots);
        }
        self.freqs[j] = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pamad;

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn r_structured_matches_paper_example() {
        let best = search_r_structured(&fig2_ladder(), 3, Weighting::PaperEq2);
        assert_eq!(best.frequencies(), &[4, 2, 1]);
        assert!((best.objective() - 0.04166666667).abs() < 1e-8);
        assert!(best.evaluated() >= 1);
    }

    #[test]
    fn pruned_matches_unpruned_reference() {
        let ladders = [
            fig2_ladder(),
            GroupLadder::geometric(2, 2, &[10, 20, 15]).unwrap(),
            GroupLadder::geometric(4, 2, &[5, 50, 20, 10]).unwrap(),
            GroupLadder::geometric(2, 3, &[7, 3, 9]).unwrap(),
        ];
        for ladder in &ladders {
            for n in 1..=5u32 {
                for weighting in [
                    Weighting::PaperEq2,
                    Weighting::Normalized,
                    Weighting::ZipfAccess { theta: 0.9 },
                ] {
                    let reference = search_r_structured_unpruned(ladder, n, weighting);
                    let pruned = search_r_structured(ladder, n, weighting);
                    assert_eq!(
                        pruned.frequencies(),
                        reference.frequencies(),
                        "n={n} {weighting:?}"
                    );
                    assert_eq!(pruned.objective(), reference.objective());
                    assert!(pruned.evaluated() <= reference.evaluated());
                    assert_eq!(reference.pruned(), 0);
                }
            }
        }
    }

    #[test]
    fn pruning_reduces_evaluations() {
        // The ratio space only opens up as N approaches N_min (tight stage
        // bounds keep it trivial at small N) — prune where there is a tree.
        let ladder = GroupLadder::geometric(2, 2, &[10, 20, 15, 8]).unwrap();
        let n = crate::bound::minimum_channels(&ladder);
        let reference = search_r_structured_unpruned(&ladder, n, Weighting::PaperEq2);
        let pruned = search_r_structured(&ladder, n, Weighting::PaperEq2);
        assert!(
            pruned.evaluated() < reference.evaluated(),
            "pruned {} vs reference {} evaluations",
            pruned.evaluated(),
            reference.evaluated()
        );
        assert!(pruned.pruned() > 0);
    }

    #[test]
    fn pamad_never_beats_opt_on_the_objective() {
        let ladders = [
            GroupLadder::geometric(2, 2, &[10, 20, 15]).unwrap(),
            GroupLadder::geometric(4, 2, &[5, 50, 20, 10]).unwrap(),
            GroupLadder::geometric(2, 3, &[7, 3, 9]).unwrap(),
        ];
        for ladder in &ladders {
            for n in 1..=4u32 {
                let opt = search_r_structured(ladder, n, Weighting::PaperEq2);
                let plan = pamad::derive_frequencies(ladder, n, Weighting::PaperEq2);
                let pamad_obj = group_objective(
                    ladder.times(),
                    ladder.page_counts(),
                    plan.frequencies(),
                    n,
                    Weighting::PaperEq2,
                );
                assert!(
                    opt.objective() <= pamad_obj + 1e-12,
                    "OPT {:?} ({}) must not lose to PAMAD {:?} ({})",
                    opt.frequencies(),
                    opt.objective(),
                    plan.frequencies(),
                    pamad_obj
                );
            }
        }
    }

    #[test]
    fn full_search_is_at_least_as_good_as_structured() {
        let ladder = GroupLadder::new(vec![(2, 4), (4, 6)]).unwrap();
        for n in 1..=3u32 {
            let full = search_full(&ladder, n, OptConfig::default()).unwrap();
            let structured = search_r_structured(&ladder, n, Weighting::PaperEq2);
            assert!(
                full.objective() <= structured.objective() + 1e-12,
                "n={n}: full {} vs structured {}",
                full.objective(),
                structured.objective()
            );
        }
    }

    #[test]
    fn full_search_respects_enumeration_limit() {
        let ladder = GroupLadder::geometric(2, 2, &[1; 10]).unwrap();
        let config = OptConfig {
            enumeration_limit: 100,
            ..OptConfig::default()
        };
        assert!(matches!(
            search_full(&ladder, 1, config),
            Err(ScheduleError::SearchSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn sufficient_channels_find_zero_objective() {
        let best = search_r_structured(&fig2_ladder(), 4, Weighting::PaperEq2);
        assert_eq!(best.objective(), 0.0);
    }

    #[test]
    fn result_places_into_a_program() {
        let best = search_r_structured(&fig2_ladder(), 3, Weighting::PaperEq2);
        let placement = best.place(&fig2_ladder(), 3).unwrap();
        assert_eq!(placement.program().cycle_len(), 9);
    }

    #[test]
    fn single_group_trivial() {
        let ladder = GroupLadder::new(vec![(4, 9)]).unwrap();
        let best = search_r_structured(&ladder, 2, Weighting::PaperEq2);
        assert_eq!(best.frequencies(), &[1]);
        assert_eq!(best.evaluated(), 1);
    }

    #[test]
    fn normalized_weighting_supported() {
        let best = search_r_structured(&fig2_ladder(), 2, Weighting::Normalized);
        assert_eq!(best.frequencies().len(), 3);
    }

    #[test]
    fn bnb_matches_plain_full_search() {
        let ladders = [
            GroupLadder::new(vec![(2, 4), (4, 6)]).unwrap(),
            fig2_ladder(),
            GroupLadder::new(vec![(2, 8), (4, 4), (8, 6), (16, 2)]).unwrap(),
        ];
        for ladder in &ladders {
            for n in 1..=3u32 {
                for weighting in [Weighting::PaperEq2, Weighting::Normalized] {
                    let config = OptConfig {
                        weighting,
                        ..OptConfig::default()
                    };
                    let plain = search_full(ladder, n, config).unwrap();
                    let bnb = search_full_bnb(ladder, n, config);
                    assert!(
                        (plain.objective() - bnb.objective()).abs() < 1e-12,
                        "n={n} {weighting:?}: plain {} vs bnb {}",
                        plain.objective(),
                        bnb.objective()
                    );
                }
            }
        }
    }

    #[test]
    fn bnb_prunes_substantially() {
        // A ladder whose plain cap space is large.
        let ladder = GroupLadder::geometric(2, 2, &[6, 8, 10, 4, 2]).unwrap();
        let config = OptConfig {
            enumeration_limit: 1 << 26,
            ..OptConfig::default()
        };
        let plain = search_full(&ladder, 3, config).unwrap();
        let bnb = search_full_bnb(&ladder, 3, config);
        assert!((plain.objective() - bnb.objective()).abs() < 1e-12);
        assert!(
            bnb.evaluated() * 4 < plain.evaluated(),
            "bnb {} vs plain {} evaluations",
            bnb.evaluated(),
            plain.evaluated()
        );
        assert!(bnb.pruned() > 0);
    }

    #[test]
    fn bnb_handles_zipf_weighting() {
        let ladder = fig2_ladder();
        let config = OptConfig {
            weighting: Weighting::ZipfAccess { theta: 0.9 },
            ..OptConfig::default()
        };
        let plain = search_full(&ladder, 2, config).unwrap();
        let bnb = search_full_bnb(&ladder, 2, config);
        assert!((plain.objective() - bnb.objective()).abs() < 1e-12);
    }

    #[test]
    fn bnb_beyond_plain_search_feasibility() {
        // Plain full search would need > 2^26 candidates here; the B&B
        // still terminates and never does worse than the structured seed.
        let ladder = GroupLadder::geometric(2, 2, &[10, 12, 14, 10, 8, 6]).unwrap();
        let n = 4;
        let config = OptConfig {
            enumeration_limit: 1 << 20,
            ..OptConfig::default()
        };
        assert!(search_full(&ladder, n, config).is_err());
        let structured = search_r_structured(&ladder, n, Weighting::PaperEq2);
        let bnb = search_full_bnb(&ladder, n, config);
        assert!(bnb.objective() <= structured.objective() + 1e-12);
    }
}
