//! Analytic average-delay models (§4.1 and Equation 2).
//!
//! Two related quantities are provided:
//!
//! * **Program delay** — given a concrete [`BroadcastProgram`], the exact
//!   expected delay beyond the expected time for a client arriving uniformly
//!   at random in the cycle (§4.1's per-page derivation, applied to the real
//!   inter-appearance gaps rather than an idealized even spread).
//! * **Group objective `D'`** — Equation 2's closed form over a *frequency
//!   vector*, used by PAMAD's stage-wise search and by the OPT baseline
//!   before any program is materialized.
//!
//! ## Equation 2, literal vs. normalized
//!
//! §4.1 derives the per-gap delay as `P(delayed) * E[delay | delayed]
//! = ((g - t)/g) * ((g - t)/2)` for a gap `g > t`. Equation 2, as printed,
//! instead multiplies two *unnormalized* gap-overshoot estimates:
//! `(F/(N*S_i) - t_i) * ((t_major/S_i - t_i)/2)` — the first factor is not
//! divided by the gap. We verified the literal form against the paper's
//! worked example (Figure 2: `D'_2 = 0.12`, `D'_3 = 0.15 / 0.04`), which it
//! reproduces exactly (0.125, 0.155, 0.0417), while the normalized form does
//! not (0.083 for the first). [`Weighting::PaperEq2`] is therefore the
//! default used by PAMAD; [`Weighting::Normalized`] is provided as an
//! ablation (see `airsched-bench`'s `ablation_objective`).

use crate::group::GroupLadder;
use crate::program::BroadcastProgram;
use crate::types::PageId;

/// Which analytic objective a frequency search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Weighting {
    /// Equation 2 exactly as printed in the paper: access probability
    /// `S_i*P_i / F` and unnormalized overshoot product. Verified against
    /// the paper's worked example.
    #[default]
    PaperEq2,
    /// §4.1-faithful variant: uniform access probability `P_i / n` and
    /// per-gap delay `(g - t)^2 / (2g)`.
    Normalized,
    /// Access-skew-aware extension (ours, beyond the paper): §4.1's
    /// normalized per-gap delay weighted by each group's *Zipf* access
    /// mass, where page ids are popularity ranks (page 0 hottest) — the
    /// distribution (`airsched-workload`'s Zipf request generator) draws
    /// from. `theta = 0` coincides with [`Weighting::Normalized`].
    ZipfAccess {
        /// The Zipf exponent (non-negative, finite).
        theta: f64,
    },
}

/// The exact expected delay of one page under a concrete program, for a
/// client arriving uniformly at random (continuous) over the cycle.
///
/// For each cyclic gap `g` between consecutive appearances the delayed
/// region contributes `(g - t)^2 / (2 * cycle)`; gaps within the expected
/// time contribute nothing. Returns `None` for a page the ladder does not
/// know or the program never broadcasts (an infinite delay is not
/// representable; callers should treat it as a validity failure).
///
/// # Examples
///
/// ```
/// use airsched_core::delay::expected_page_delay;
/// use airsched_core::group::GroupLadder;
/// use airsched_core::program::BroadcastProgram;
/// use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
///
/// // One page with t = 2 broadcast once in a 6-slot cycle:
/// // a single gap of 6, delay = (6-2)^2 / (2*6) = 16/12.
/// let ladder = GroupLadder::new(vec![(2, 1)])?;
/// let mut p = BroadcastProgram::new(1, 6);
/// p.place(GridPos::new(ChannelId::new(0), SlotIndex::new(0)), PageId::new(0)).unwrap();
/// let d = expected_page_delay(&p, &ladder, PageId::new(0)).unwrap();
/// assert!((d - 16.0 / 12.0).abs() < 1e-12);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
#[must_use]
pub fn expected_page_delay(
    program: &BroadcastProgram,
    ladder: &GroupLadder,
    page: PageId,
) -> Option<f64> {
    let t = ladder.expected_time_of(page)?.slots() as f64;
    if program.frequency(page) == 0 {
        return None;
    }
    let cycle = program.cycle_len() as f64;
    let mut total = 0.0;
    for g in program.cyclic_gaps(page) {
        let g = g as f64;
        if g > t {
            total += (g - t) * (g - t) / (2.0 * cycle);
        }
    }
    Some(total)
}

/// The program-wide expected delay `D` with uniform access probability
/// `1/n` over the ladder's pages (§4.1's outer sum).
///
/// Returns `None` if any ladder page is never broadcast.
#[must_use]
pub fn expected_program_delay(program: &BroadcastProgram, ladder: &GroupLadder) -> Option<f64> {
    let n = ladder.total_pages() as f64;
    let mut total = 0.0;
    for (page, _) in ladder.pages() {
        total += expected_page_delay(program, ladder, page)?;
    }
    Some(total / n)
}

/// Equation 2: the average group delay `D'` of broadcasting groups with
/// page counts `pages`, expected times `times`, and per-group frequencies
/// `freqs`, on `n_real` channels.
///
/// All three slices must have equal, non-zero length and `freqs` must be
/// strictly positive; `n_real` must be non-zero.
///
/// The group contributes zero when its spacing fits the expected time (the
/// paper's `max(..., 0)` clamp — applied per factor, so two negative factors
/// do not yield a spurious positive delay).
///
/// # Panics
///
/// Panics if the slices disagree in length, are empty, contain a zero
/// frequency, or `n_real == 0`.
///
/// # Examples
///
/// ```
/// use airsched_core::delay::{group_objective, Weighting};
///
/// // Paper Figure 2, Step 2, r1 = 1: groups (t, P) = (2,3), (4,5),
/// // frequencies (1, 1) on 3 channels -> D' = 0.125 (printed as 0.12).
/// let d = group_objective(&[2, 4], &[3, 5], &[1, 1], 3, Weighting::PaperEq2);
/// assert!((d - 0.125).abs() < 1e-9);
/// ```
#[must_use]
pub fn group_objective(
    times: &[u64],
    pages: &[u64],
    freqs: &[u64],
    n_real: u32,
    weighting: Weighting,
) -> f64 {
    assert!(
        !times.is_empty() && times.len() == pages.len() && times.len() == freqs.len(),
        "times, pages and freqs must be non-empty and of equal length"
    );
    assert!(n_real > 0, "n_real must be non-zero");
    assert!(
        freqs.iter().all(|&s| s > 0),
        "frequencies must be strictly positive"
    );

    // F = total slot instances; t_major = ceil(F / N^real), in exact
    // integer arithmetic to avoid float edge cases at the ceiling.
    let f_slots: u64 = freqs
        .iter()
        .zip(pages)
        .map(|(&s, &p)| s.checked_mul(p).expect("slot count must not overflow"))
        .sum();
    let t_major = f_slots.div_ceil(u64::from(n_real));
    let n_real = f64::from(n_real);
    let f_f = f_slots as f64;
    let tm = t_major as f64;
    let n_pages: u64 = pages.iter().sum();

    // Per-group Zipf access masses, if requested (page ids are popularity
    // ranks, group-major, so group i covers ranks [offset, offset + P_i)).
    let zipf_masses = match weighting {
        Weighting::ZipfAccess { theta } => Some(zipf_group_masses(pages, n_pages, theta)),
        _ => None,
    };

    let mut total = 0.0;
    for (i, ((&t, &p), &s)) in times.iter().zip(pages).zip(freqs).enumerate() {
        let t = t as f64;
        let s_f = s as f64;
        let p_f = p as f64;
        match weighting {
            Weighting::PaperEq2 => {
                let weight = s_f * p_f / f_f;
                let a = f_f / (n_real * s_f) - t;
                let b = tm / s_f - t;
                if a > 0.0 && b > 0.0 {
                    total += weight * a * b / 2.0;
                }
            }
            Weighting::Normalized | Weighting::ZipfAccess { .. } => {
                let weight = match &zipf_masses {
                    Some(masses) => masses[i],
                    None => p_f / n_pages as f64,
                };
                let gap = tm / s_f;
                if gap > t {
                    total += weight * (gap - t) * (gap - t) / (2.0 * gap);
                }
            }
        }
    }
    total
}

/// Crate-internal re-export of the Zipf masses for the branch-and-bound
/// OPT's lower bound (same computation as the objective uses).
pub(crate) fn zipf_group_masses_for_bound(pages: &[u64], n_pages: u64, theta: f64) -> Vec<f64> {
    zipf_group_masses(pages, n_pages, theta)
}

/// The Zipf access mass of each group: `sum over the group's popularity
/// ranks k of (1/k^theta) / H_n(theta)`, ranks being 1-based, group-major.
fn zipf_group_masses(pages: &[u64], n_pages: u64, theta: f64) -> Vec<f64> {
    assert!(
        theta >= 0.0 && theta.is_finite(),
        "zipf theta must be finite and non-negative"
    );
    let mut harmonic = 0.0;
    for k in 1..=n_pages {
        harmonic += 1.0 / (k as f64).powf(theta);
    }
    let mut masses = Vec::with_capacity(pages.len());
    let mut rank = 1u64;
    for &p in pages {
        let mut mass = 0.0;
        for _ in 0..p {
            mass += 1.0 / (rank as f64).powf(theta);
            rank += 1;
        }
        masses.push(mass / harmonic);
    }
    masses
}

/// The major-cycle length implied by a frequency vector:
/// `ceil(sum S_i * P_i / n_real)` (Equation 8).
///
/// # Panics
///
/// Panics if slices disagree in length or `n_real == 0`.
#[must_use]
pub fn major_cycle(pages: &[u64], freqs: &[u64], n_real: u32) -> u64 {
    assert_eq!(pages.len(), freqs.len(), "pages/freqs length mismatch");
    assert!(n_real > 0, "n_real must be non-zero");
    let f_slots: u64 = freqs
        .iter()
        .zip(pages)
        .map(|(&s, &p)| s.checked_mul(p).expect("slot count must not overflow"))
        .sum();
    f_slots.div_ceil(u64::from(n_real))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ChannelId, GridPos, SlotIndex};

    fn pos(ch: u32, slot: u64) -> GridPos {
        GridPos::new(ChannelId::new(ch), SlotIndex::new(slot))
    }

    // ---- Golden tests against the paper's Figure 2 walk-through ----

    #[test]
    fn paper_step2_r1_equals_1_gives_0_125() {
        let d = group_objective(&[2, 4], &[3, 5], &[1, 1], 3, Weighting::PaperEq2);
        assert!((d - 0.125).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn paper_step2_r1_equals_2_gives_zero() {
        let d = group_objective(&[2, 4], &[3, 5], &[2, 1], 3, Weighting::PaperEq2);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn paper_step3_r2_equals_1_gives_0_155() {
        // R = (r1*r2, r2, 1) = (2, 1, 1).
        let d = group_objective(&[2, 4, 8], &[3, 5, 3], &[2, 1, 1], 3, Weighting::PaperEq2);
        assert!((d - 0.15476190476).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn paper_step3_r2_equals_2_gives_0_0417() {
        // R = (4, 2, 1).
        let d = group_objective(&[2, 4, 8], &[3, 5, 3], &[4, 2, 1], 3, Weighting::PaperEq2);
        assert!((d - 0.04166666667).abs() < 1e-8, "got {d}");
    }

    // ---- Clamp semantics ----

    #[test]
    fn two_negative_factors_do_not_create_delay() {
        // Sufficient bandwidth: spacing well within t for both groups.
        let d = group_objective(&[4, 8], &[1, 1], &[2, 1], 4, Weighting::PaperEq2);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn normalized_weighting_differs_from_paper_eq2() {
        let lit = group_objective(&[2, 4], &[3, 5], &[1, 1], 3, Weighting::PaperEq2);
        let norm = group_objective(&[2, 4], &[3, 5], &[1, 1], 3, Weighting::Normalized);
        assert!(lit > norm, "literal {lit} should exceed normalized {norm}");
        // Normalized: gap = ceil(8/3)=3 for both groups; G1: (3-2)^2/(2*3)
        // weighted 3/8; G2 within time.
        assert!((norm - (3.0 / 8.0) * (1.0 / 6.0)).abs() < 1e-12);
    }

    // ---- Program-level model ----

    #[test]
    fn evenly_spread_program_matches_gap_formula() {
        // Page with t=2 at columns 0 and 5 of a 10-cycle: gaps 5 and 5.
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let mut p = BroadcastProgram::new(1, 10);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        p.place(pos(0, 5), PageId::new(0)).unwrap();
        let d = expected_page_delay(&p, &ladder, PageId::new(0)).unwrap();
        // 2 * (5-2)^2 / (2*10) = 0.9
        assert!((d - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gaps_within_expected_time_cost_nothing() {
        let ladder = GroupLadder::new(vec![(4, 1)]).unwrap();
        let mut p = BroadcastProgram::new(1, 8);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        p.place(pos(0, 4), PageId::new(0)).unwrap();
        assert_eq!(expected_page_delay(&p, &ladder, PageId::new(0)), Some(0.0));
    }

    #[test]
    fn uneven_gaps_cost_more_than_even_ones() {
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let mut even = BroadcastProgram::new(1, 12);
        even.place(pos(0, 0), PageId::new(0)).unwrap();
        even.place(pos(0, 6), PageId::new(0)).unwrap();
        let mut uneven = BroadcastProgram::new(1, 12);
        uneven.place(pos(0, 0), PageId::new(0)).unwrap();
        uneven.place(pos(0, 2), PageId::new(0)).unwrap();
        let de = expected_page_delay(&even, &ladder, PageId::new(0)).unwrap();
        let du = expected_page_delay(&uneven, &ladder, PageId::new(0)).unwrap();
        assert!(du > de, "uneven {du} should exceed even {de}");
    }

    #[test]
    fn missing_page_yields_none() {
        let ladder = GroupLadder::new(vec![(2, 2)]).unwrap();
        let mut p = BroadcastProgram::new(1, 4);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        assert!(expected_page_delay(&p, &ladder, PageId::new(1)).is_none());
        assert!(expected_program_delay(&p, &ladder).is_none());
        // Page not in the ladder at all:
        assert!(expected_page_delay(&p, &ladder, PageId::new(9)).is_none());
    }

    #[test]
    fn program_delay_averages_pages_uniformly() {
        // Two pages, t=2 each, in a 6-cycle; one broadcast twice (gaps 3,3),
        // one once (gap 6).
        let ladder = GroupLadder::new(vec![(2, 2)]).unwrap();
        let mut p = BroadcastProgram::new(1, 6);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        p.place(pos(0, 3), PageId::new(0)).unwrap();
        p.place(pos(0, 1), PageId::new(1)).unwrap();
        let d0 = 2.0 * 1.0 / 12.0; // two gaps of 3: (3-2)^2/(2*6) each
        let d1 = 16.0 / 12.0; // one gap of 6
        let d = expected_program_delay(&p, &ladder).unwrap();
        assert!((d - (d0 + d1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_theta_zero_matches_normalized() {
        let d_norm = group_objective(&[2, 4], &[3, 5], &[1, 1], 3, Weighting::Normalized);
        let d_zipf = group_objective(
            &[2, 4],
            &[3, 5],
            &[1, 1],
            3,
            Weighting::ZipfAccess { theta: 0.0 },
        );
        assert!((d_norm - d_zipf).abs() < 1e-12);
    }

    #[test]
    fn zipf_weighting_emphasizes_early_groups() {
        // Group 1 holds the hottest ranks; its delay should dominate more
        // as theta grows. Construct a case where only group 1 is late.
        let times = [2u64, 4];
        let pages = [3u64, 5];
        let freqs = [1u64, 2]; // group 1 underserved relative to group 2
        let flat = group_objective(&times, &pages, &freqs, 2, Weighting::Normalized);
        let skew = group_objective(
            &times,
            &pages,
            &freqs,
            2,
            Weighting::ZipfAccess { theta: 1.5 },
        );
        // With theta = 1.5 the first 3 ranks hold most of the mass, so the
        // late group-1 term weighs more than under uniform access.
        assert!(skew > flat, "skew {skew} vs flat {flat}");
    }

    #[test]
    fn zipf_masses_sum_to_one() {
        let masses = super::zipf_group_masses(&[3, 5, 2], 10, 0.9);
        let sum: f64 = masses.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{masses:?}");
        assert!(masses[0] > masses[2]);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn negative_theta_panics() {
        let _ = group_objective(&[2], &[3], &[1], 1, Weighting::ZipfAccess { theta: -1.0 });
    }

    #[test]
    fn major_cycle_matches_equation_8() {
        // Figure 2: S = (4,2,1), P = (3,5,3), N = 3 -> ceil(25/3) = 9.
        assert_eq!(major_cycle(&[3, 5, 3], &[4, 2, 1], 3), 9);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        let _ = group_objective(&[2, 4], &[3], &[1, 1], 3, Weighting::PaperEq2);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_frequency_panics() {
        let _ = group_objective(&[2], &[3], &[0], 3, Weighting::PaperEq2);
    }

    #[test]
    #[should_panic(expected = "n_real")]
    fn zero_channels_panics() {
        let _ = group_objective(&[2], &[3], &[1], 0, Weighting::PaperEq2);
    }
}
