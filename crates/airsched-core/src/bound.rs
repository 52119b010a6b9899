//! Theorem 3.1: the minimum number of channels for a *valid* broadcast
//! program.
//!
//! A valid program delivers every page of group `G_i` within `t_i` slots of
//! any tune-in instant, which forces page `p` of `G_i` to consume at least
//! `1/t_i` of one channel's bandwidth. Summing over all pages gives the
//! bound `N >= sum_i P_i / t_i`, i.e. `N = ceil(sum_i P_i / t_i)` channels
//! suffice — and [`crate::susc`] constructs a valid program at exactly this
//! bound, so it is tight.
//!
//! Note on the paper's typesetting: equation (1) reads `sum_i ceil(P_i/t_i)`
//! but the worked example computes `ceil(2/2 + 3/4) = 2`, a single ceiling
//! over the sum. The single-ceiling bound is the correct tight one (see
//! `tests/` property tests exercising SUSC at the bound); the per-group
//! variant is also provided for comparison.

use crate::error::ScheduleError;
use crate::group::GroupLadder;

/// The tight minimum number of channels: `ceil(sum_i P_i / t_i)`.
///
/// This is the value the paper's worked example computes, and the bound at
/// which [`crate::susc::schedule`] always succeeds.
///
/// # Examples
///
/// ```
/// use airsched_core::bound::minimum_channels;
/// use airsched_core::group::GroupLadder;
///
/// // Paper §3.1 example: P = (2, 3), t = (2, 4) => ceil(1.75) = 2.
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// assert_eq!(minimum_channels(&ladder), 2);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
#[must_use]
pub fn minimum_channels(ladder: &GroupLadder) -> u32 {
    // Exact rational arithmetic over the common denominator t_h (every t_i
    // divides t_h), avoiding floating-point rounding at the ceiling edge.
    let th = ladder.max_time();
    let mut numerator: u128 = 0;
    for (t, p) in ladder.times().iter().zip(ladder.page_counts()) {
        // P_i / t_i == P_i * (t_h / t_i) / t_h; t_i | t_h by ladder invariant.
        numerator += u128::from(*p) * u128::from(th / t);
    }
    let n = numerator.div_ceil(u128::from(th));
    u32::try_from(n).expect("minimum channel count fits in u32")
}

/// The paper's typeset formula: `sum_i ceil(P_i / t_i)`.
///
/// Always greater than or equal to [`minimum_channels`]; strictly greater
/// whenever two or more groups have fractional `P_i / t_i` parts that pack
/// into fewer shared channels.
///
/// # Examples
///
/// ```
/// use airsched_core::bound::{minimum_channels, minimum_channels_per_group};
/// use airsched_core::group::GroupLadder;
///
/// let ladder = GroupLadder::new(vec![(2, 1), (4, 1)])?;
/// assert_eq!(minimum_channels(&ladder), 1);          // ceil(0.75)
/// assert_eq!(minimum_channels_per_group(&ladder), 2); // ceil(0.5)+ceil(0.25)
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
#[must_use]
pub fn minimum_channels_per_group(ladder: &GroupLadder) -> u32 {
    let n: u64 = ladder
        .times()
        .iter()
        .zip(ladder.page_counts())
        .map(|(t, p)| p.div_ceil(*t))
        .sum();
    u32::try_from(n).expect("minimum channel count fits in u32")
}

/// Theorem 3.1 for a raw catalogue: the minimum channels for `times`,
/// one entry per page, with **no** ladder structure assumed —
/// `ceil(sum_k 1 / t_k)` in exact rational arithmetic.
///
/// This is the decision rule of the fault-tolerant station's degradation
/// ladder: while surviving channels stay at or above this bound a valid
/// SUSC rebuild exists; below it the station must fall back to PAMAD
/// best-effort.
///
/// Pages that share an expected time form one term, so the times are
/// counted per distinct value, by linear search, and folded by
/// [`minimum_channels_for_groups`]. The cost is pages × distinct times;
/// a station's catalogue has at most as many distinct times as its cycle
/// has divisors, a handful in practice, so nothing is copied or sorted
/// per page.
///
/// An empty catalogue needs zero channels.
///
/// # Errors
///
/// * [`ScheduleError::InvalidFrequencies`] if any time is zero.
/// * [`ScheduleError::WorkloadTooLarge`] if the exact running fraction
///   overflows 128-bit arithmetic (astronomically many co-prime times).
///
/// # Examples
///
/// ```
/// use airsched_core::bound::minimum_channels_for_times;
///
/// // Two pages at t=2 and three at t=4: 1 + 0.75 -> 2 channels.
/// assert_eq!(minimum_channels_for_times(&[2, 2, 4, 4, 4])?, 2);
/// // Times need not be harmonic.
/// assert_eq!(minimum_channels_for_times(&[3, 8])?, 1);
/// assert_eq!(minimum_channels_for_times(&[])?, 0);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
pub fn minimum_channels_for_times(times: &[u64]) -> Result<u32, ScheduleError> {
    let mut groups: Vec<(u64, u64)> = Vec::new();
    for &t in times {
        match groups.iter_mut().find(|g| g.0 == t) {
            Some(group) => group.1 += 1,
            None => groups.push((t, 1)),
        }
    }
    minimum_channels_for_groups(&groups)
}

/// Theorem 3.1 over `(expected time, page count)` pairs, in any order and
/// with repeated times allowed: `ceil(sum P / t)` in exact rational
/// arithmetic, folded in ascending time order so that the result (and
/// any overflow) does not depend on how the pairs were listed. Pairs
/// with no pages add nothing.
///
/// # Errors
///
/// As [`minimum_channels_for_times`]: a zero time with pages, or an
/// overflowing fraction.
///
/// # Examples
///
/// ```
/// use airsched_core::bound::minimum_channels_for_groups;
///
/// // The paper's example, P = (2, 3) at t = (2, 4).
/// assert_eq!(minimum_channels_for_groups(&[(4, 3), (2, 2)])?, 2);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
pub fn minimum_channels_for_groups(groups: &[(u64, u64)]) -> Result<u32, ScheduleError> {
    let mut sorted: Vec<(u64, u64)> = groups.iter().copied().filter(|g| g.1 > 0).collect();
    sorted.sort_unstable();
    if sorted.first().is_some_and(|g| g.0 == 0) {
        return Err(ScheduleError::InvalidFrequencies {
            reason: "expected times must be positive",
        });
    }
    // Running sum num/den, reduced by gcd after every distinct time so the
    // denominator stays the lcm of the distinct times seen so far.
    let mut num: u128 = 0;
    let mut den: u128 = 1;
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        let t = u128::from(run[0].0);
        let count: u128 = run.iter().map(|g| u128::from(g.1)).sum();
        let g = gcd(den, t);
        let scale = t / g;
        num = num
            .checked_mul(scale)
            .and_then(|n| n.checked_add(count.checked_mul(den / g)?))
            .ok_or(ScheduleError::WorkloadTooLarge {
                reason: "channel-demand fraction overflows 128 bits",
            })?;
        den = den
            .checked_mul(scale)
            .ok_or(ScheduleError::WorkloadTooLarge {
                reason: "channel-demand denominator overflows 128 bits",
            })?;
        let g = gcd(num, den);
        num /= g;
        den /= g;
    }
    let n = num.div_ceil(den);
    u32::try_from(n).map_err(|_| ScheduleError::WorkloadTooLarge {
        reason: "minimum channel count exceeds u32",
    })
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// The exact channel *demand* `sum_i P_i / t_i` as a float, useful for
/// reporting how oversubscribed an insufficient-channel system is.
#[must_use]
pub fn channel_demand(ladder: &GroupLadder) -> f64 {
    ladder
        .times()
        .iter()
        .zip(ladder.page_counts())
        .map(|(t, p)| *p as f64 / *t as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The per-page fold the grouped sum replaced, kept as its reference:
    /// one `1/t` term (two gcds) per page, in input order.
    fn per_page_reference(times: &[u64]) -> Result<u32, ScheduleError> {
        let mut num: u128 = 0;
        let mut den: u128 = 1;
        for &t in times {
            if t == 0 {
                return Err(ScheduleError::InvalidFrequencies {
                    reason: "expected times must be positive",
                });
            }
            let t = u128::from(t);
            let g = gcd(den, t);
            let scale = t / g;
            num = num
                .checked_mul(scale)
                .and_then(|n| n.checked_add(den / g))
                .ok_or(ScheduleError::WorkloadTooLarge {
                    reason: "channel-demand fraction overflows 128 bits",
                })?;
            den = den
                .checked_mul(scale)
                .ok_or(ScheduleError::WorkloadTooLarge {
                    reason: "channel-demand denominator overflows 128 bits",
                })?;
            let g = gcd(num, den);
            num /= g;
            den /= g;
        }
        u32::try_from(num.div_ceil(den)).map_err(|_| ScheduleError::WorkloadTooLarge {
            reason: "minimum channel count exceeds u32",
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Summing per distinct time gives the per-page result and error
        /// on catalogues in any order, harmonic or not, with or without
        /// zero times mixed in.
        #[test]
        fn catalogue_bound_matches_the_per_page_reference(
            groups in prop::collection::vec((1u64..=48, 1usize..=40), 0..8),
            zeros in prop::collection::vec(any::<u64>(), 0..3),
            keys in prop::collection::vec(any::<u64>(), 320),
        ) {
            let mut times: Vec<u64> = groups
                .iter()
                .flat_map(|&(t, count)| std::iter::repeat_n(t, count))
                .collect();
            times.extend(std::iter::repeat_n(0, zeros.len()));
            // Shuffle by sorting on random keys.
            let mut keyed: Vec<(u64, u64)> = times.into_iter().zip(keys).map(|(t, k)| (k, t)).collect();
            keyed.sort_unstable();
            let shuffled: Vec<u64> = keyed.into_iter().map(|(_, t)| t).collect();
            prop_assert_eq!(
                minimum_channels_for_times(&shuffled),
                per_page_reference(&shuffled)
            );
        }
    }

    #[test]
    fn paper_example_needs_two_channels() {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        assert_eq!(minimum_channels(&ladder), 2);
        assert_eq!(minimum_channels_per_group(&ladder), 2);
    }

    #[test]
    fn figure2_example_needs_four_channels() {
        // P = (3, 5, 3), t = (2, 4, 8): 1.5 + 1.25 + 0.375 = 3.125 -> 4.
        let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap();
        assert_eq!(minimum_channels(&ladder), 4);
    }

    #[test]
    fn single_ceiling_is_tighter_than_per_group() {
        let ladder = GroupLadder::new(vec![(2, 1), (4, 1)]).unwrap();
        assert_eq!(minimum_channels(&ladder), 1);
        assert_eq!(minimum_channels_per_group(&ladder), 2);
    }

    #[test]
    fn per_group_never_below_tight_bound() {
        let cases = [
            vec![(2, 3), (4, 5), (8, 3)],
            vec![(1, 1)],
            vec![(4, 100), (8, 200), (16, 50)],
            vec![(3, 7), (6, 1), (12, 1), (24, 9)],
        ];
        for groups in cases {
            let ladder = GroupLadder::new(groups).unwrap();
            assert!(minimum_channels_per_group(&ladder) >= minimum_channels(&ladder));
        }
    }

    #[test]
    fn exact_division_has_no_ceiling_slack() {
        // 4/2 + 8/4 = 4 exactly.
        let ladder = GroupLadder::new(vec![(2, 4), (4, 8)]).unwrap();
        assert_eq!(minimum_channels(&ladder), 4);
        assert!((channel_demand(&ladder) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn demand_matches_bound_ceiling() {
        let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap();
        let demand = channel_demand(&ladder);
        assert!((demand - 3.125).abs() < 1e-12);
        assert_eq!(minimum_channels(&ladder), demand.ceil() as u32);
    }

    #[test]
    fn paper_default_workload_bound() {
        // h=8, t=4..512, 125 pages per group.
        let ladder = GroupLadder::geometric(4, 2, &[125; 8]).unwrap();
        // demand = 125 * (1/4 + 1/8 + ... + 1/512) = 125 * (2/4 - 1/512)*... compute:
        let expect: f64 = [4u64, 8, 16, 32, 64, 128, 256, 512]
            .iter()
            .map(|&t| 125.0 / t as f64)
            .sum();
        assert_eq!(minimum_channels(&ladder), expect.ceil() as u32);
        // Sanity: about 62.3 -> 63 channels.
        assert_eq!(minimum_channels(&ladder), 63);
    }

    #[test]
    fn large_counts_do_not_overflow() {
        let ladder = GroupLadder::new(vec![(1, 4_000_000)]).unwrap();
        assert_eq!(minimum_channels(&ladder), 4_000_000);
    }

    #[test]
    fn catalogue_bound_matches_ladder_bound_on_ladder_times() {
        let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap();
        let mut times = Vec::new();
        for (t, p) in ladder.times().iter().zip(ladder.page_counts()) {
            times.extend(std::iter::repeat_n(*t, *p as usize));
        }
        assert_eq!(
            minimum_channels_for_times(&times).unwrap(),
            minimum_channels(&ladder)
        );
    }

    #[test]
    fn catalogue_bound_handles_non_harmonic_times() {
        // 1/3 + 1/5 + 1/7 = 71/105 -> 1 channel.
        assert_eq!(minimum_channels_for_times(&[3, 5, 7]).unwrap(), 1);
        // 1/2 + 1/3 + 1/4 = 13/12 -> 2 channels.
        assert_eq!(minimum_channels_for_times(&[2, 3, 4]).unwrap(), 2);
        // Exact integer sums have no ceiling slack: 4 * (1/4) = 1.
        assert_eq!(minimum_channels_for_times(&[4, 4, 4, 4]).unwrap(), 1);
    }

    #[test]
    fn catalogue_bound_edge_cases() {
        assert_eq!(minimum_channels_for_times(&[]).unwrap(), 0);
        assert_eq!(minimum_channels_for_times(&[1]).unwrap(), 1);
        assert!(minimum_channels_for_times(&[2, 0]).is_err());
        // Many t=1 pages: demand is the page count itself.
        assert_eq!(minimum_channels_for_times(&[1; 1000]).unwrap(), 1000);
    }
}
