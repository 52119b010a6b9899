//! Closed-form access measurement — the fast path used by the figure
//! harness.
//!
//! A client tuning in at the start of slot `a` receives page `p` at the end
//! of the first slot at or after `a` carrying `p` on any channel; the *wait*
//! is that whole-slot count and the *delay* is `max(wait - t_i, 0)`. With a
//! valid program (every cyclic gap at most `t_i`) the worst-case wait is
//! exactly `t_i`, so delays are zero — matching §3's guarantee.

use airsched_core::group::GroupLadder;
use airsched_core::program::{cyclic_gaps_over, BroadcastProgram};
use airsched_workload::requests::Request;

use crate::metrics::{DelayAccumulator, DelaySummary};

/// The outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Raw wait from tune-in to full reception, in slots.
    pub wait: u64,
    /// Wait beyond the page's expected time, in slots.
    pub delay: u64,
}

/// Resolves one request against `program`.
///
/// Returns `None` if the page is never broadcast or unknown to the ladder.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::susc;
/// use airsched_core::types::PageId;
/// use airsched_sim::access::access_one;
/// use airsched_workload::requests::Request;
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// let access = access_one(
///     &program,
///     &ladder,
///     Request { page: PageId::new(0), arrival: 1 },
/// ).unwrap();
/// assert!(access.wait <= 2);
/// assert_eq!(access.delay, 0); // valid program: never late
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn access_one(
    program: &BroadcastProgram,
    ladder: &GroupLadder,
    request: Request,
) -> Option<Access> {
    let t = ladder.expected_time_of(request.page)?.slots();
    let wait = program.wait_from(request.page, request.arrival)?;
    Some(Access {
        wait,
        delay: wait.saturating_sub(t),
    })
}

/// How a request batch accounts for requests that cannot be served by
/// broadcast. Both kinds count toward the total miss tally returned by
/// [`measure`]; they differ in what lands in the delay accumulator:
///
/// * **Known page, never broadcast** — the ladder knows the page's group
///   and expected time, so the miss is *also* recorded as a penalty sample
///   of one full cycle of delay (`wait = t_i + cycle`, `delay = cycle`): a
///   pessimistic but finite stand-in for "switched to the on-demand
///   channel". Dropping a page therefore visibly degrades AvgD and hit
///   rate.
/// * **Unknown page** — the ladder has no group or expected time to
///   synthesize a penalty from, so the request is counted as a miss and
///   excluded from the delay statistics entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissStats {
    /// Requests for pages the ladder does not contain (not recorded in the
    /// delay summary).
    pub unknown_page: u64,
    /// Requests for ladder pages the program never airs (recorded with the
    /// cycle-length penalty).
    pub never_broadcast: u64,
}

impl MissStats {
    /// Total missed requests, both kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.unknown_page + self.never_broadcast
    }
}

/// Measures a request batch, producing the AvgD summary the paper reports
/// plus the split miss statistics (see [`MissStats`] for the two miss kinds
/// and what each records). [`measure`] is this with the misses totalled.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::pamad;
/// use airsched_sim::access::measure_split;
/// use airsched_workload::requests::{AccessPattern, RequestGenerator};
///
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
/// let program = pamad::schedule(&ladder, 3)?.into_program();
/// let mut gen = RequestGenerator::new(&ladder, AccessPattern::Uniform, 42);
/// let requests = gen.take(3000, program.cycle_len());
/// let (summary, misses) = measure_split(&program, &ladder, &requests);
/// assert_eq!(misses.total(), 0);
/// assert_eq!(summary.requests(), 3000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn measure_split(
    program: &BroadcastProgram,
    ladder: &GroupLadder,
    requests: &[Request],
) -> (DelaySummary, MissStats) {
    let mut acc = DelayAccumulator::new();
    let mut misses = MissStats::default();
    for &req in requests {
        let Some(group) = ladder.group_of(req.page) else {
            misses.unknown_page += 1;
            continue;
        };
        match access_one(program, ladder, req) {
            Some(a) => acc.record(group, a.wait, a.delay),
            None => {
                misses.never_broadcast += 1;
                let t = ladder.time_of(group).slots();
                acc.record(group, t + program.cycle_len(), program.cycle_len());
            }
        }
    }
    (acc.finish(), misses)
}

/// Measures a request batch, producing the AvgD summary the paper reports
/// and the total miss count (see [`measure_split`] for the split count and
/// [`MissStats`] for what each miss kind records).
///
/// With PAMAD/m-PB/SUSC programs every page airs, so the miss count is zero.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::pamad;
/// use airsched_sim::access::measure;
/// use airsched_workload::requests::{AccessPattern, RequestGenerator};
///
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
/// let program = pamad::schedule(&ladder, 3)?.into_program();
/// let mut gen = RequestGenerator::new(&ladder, AccessPattern::Uniform, 42);
/// let requests = gen.take(3000, program.cycle_len());
/// let (summary, misses) = measure(&program, &ladder, &requests);
/// assert_eq!(misses, 0);
/// assert_eq!(summary.requests(), 3000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn measure(
    program: &BroadcastProgram,
    ladder: &GroupLadder,
    requests: &[Request],
) -> (DelaySummary, u64) {
    let (summary, misses) = measure_split(program, ladder, requests);
    (summary, misses.total())
}

/// Exact AvgD over *all* `(page, arrival)` combinations — the discrete
/// expectation rather than a sampled estimate — in closed form over the
/// program's occurrence gaps.
///
/// Across one cyclic gap of `g` slots ending at an occurrence, the `g`
/// arrivals inside the gap wait exactly `1, 2, .., g` slots (one each), so
/// with expected time `t` the summed delay over the gap is the triangular
/// tail `Σ_{w=t+1..g} (w - t) = (g-t)(g-t+1)/2` when `g > t` and zero
/// otherwise. Summing over a page's gaps covers all `cycle` arrivals, so
/// the whole expectation costs `O(total occurrences)` instead of the
/// `O(pages × cycle)` per-arrival scan (retained as
/// [`reference::exact_avg_delay_scan`]); both accumulate the same integer
/// total, so they agree *bit-for-bit*.
///
/// Returns `None` if any ladder page is never broadcast.
#[must_use]
pub fn exact_avg_delay(program: &BroadcastProgram, ladder: &GroupLadder) -> Option<f64> {
    let cycle = program.cycle_len();
    let mut total: u128 = 0;
    let mut count: u128 = 0;
    for (page, group) in ladder.pages() {
        let cols = program.occurrence_columns(page);
        if cols.is_empty() {
            return None;
        }
        let t = ladder.time_of(group).slots();
        for g in cyclic_gaps_over(cols, cycle) {
            if g > t {
                let d = u128::from(g - t);
                total += d * (d + 1) / 2;
            }
        }
        count += u128::from(cycle);
    }
    Some(total as f64 / count as f64)
}

/// Brute-force references kept for cross-validation: the proptest corpus
/// in `tests/cross_algorithms.rs` asserts the closed-form paths equal these
/// exactly.
pub mod reference {
    use super::{BroadcastProgram, GroupLadder};

    /// The seed implementation of [`super::exact_avg_delay`]: a per-arrival
    /// scan costing `O(pages × cycle)` binary searches.
    #[must_use]
    pub fn exact_avg_delay_scan(program: &BroadcastProgram, ladder: &GroupLadder) -> Option<f64> {
        let cycle = program.cycle_len();
        let mut total: u128 = 0;
        let mut count: u128 = 0;
        for (page, group) in ladder.pages() {
            let t = ladder.time_of(group).slots();
            for arrival in 0..cycle {
                let wait = program.wait_from(page, arrival)?;
                total += u128::from(wait.saturating_sub(t));
                count += 1;
            }
        }
        Some(total as f64 / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::types::PageId;
    use airsched_core::{mpb, pamad, susc};
    use airsched_workload::requests::{AccessPattern, RequestGenerator};

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn valid_program_has_zero_avgd() {
        let ladder = fig2_ladder();
        let program = susc::schedule(&ladder, 4).unwrap();
        let mut gen = RequestGenerator::new(&ladder, AccessPattern::Uniform, 1);
        let requests = gen.take(3000, program.cycle_len());
        let (summary, misses) = measure(&program, &ladder, &requests);
        assert_eq!(misses, 0);
        assert_eq!(summary.avg_delay(), 0.0);
        assert_eq!(summary.hit_rate(), 1.0);
        assert_eq!(exact_avg_delay(&program, &ladder), Some(0.0));
    }

    #[test]
    fn insufficient_channels_show_delay() {
        let ladder = fig2_ladder();
        let program = pamad::schedule(&ladder, 1).unwrap().into_program();
        let (summary, _) = measure(
            &program,
            &ladder,
            &RequestGenerator::new(&ladder, AccessPattern::Uniform, 2)
                .take(3000, program.cycle_len()),
        );
        assert!(summary.avg_delay() > 0.0);
        assert!(summary.hit_rate() < 1.0);
    }

    #[test]
    fn sampled_avgd_approximates_exact() {
        let ladder = fig2_ladder();
        let program = pamad::schedule(&ladder, 2).unwrap().into_program();
        let exact = exact_avg_delay(&program, &ladder).unwrap();
        let (summary, _) = measure(
            &program,
            &ladder,
            &RequestGenerator::new(&ladder, AccessPattern::Uniform, 3)
                .take(60_000, program.cycle_len()),
        );
        assert!(
            (summary.avg_delay() - exact).abs() < 0.15,
            "sampled {} vs exact {exact}",
            summary.avg_delay()
        );
    }

    #[test]
    fn pamad_beats_mpb_on_measured_avgd_for_skewed_load() {
        let ladder = GroupLadder::geometric(2, 2, &[40, 10, 6, 4]).unwrap();
        for n in 1..=3u32 {
            let p_pamad = pamad::schedule(&ladder, n).unwrap().into_program();
            let p_mpb = mpb::schedule(&ladder, n).unwrap().into_program();
            let d_pamad = exact_avg_delay(&p_pamad, &ladder).unwrap();
            let d_mpb = exact_avg_delay(&p_mpb, &ladder).unwrap();
            assert!(
                d_pamad <= d_mpb + 1e-9,
                "n={n}: PAMAD {d_pamad} vs m-PB {d_mpb}"
            );
        }
    }

    #[test]
    fn access_one_wait_and_delay() {
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let mut program = airsched_core::program::BroadcastProgram::new(1, 6);
        program
            .place(
                airsched_core::types::GridPos::new(
                    airsched_core::types::ChannelId::new(0),
                    airsched_core::types::SlotIndex::new(3),
                ),
                PageId::new(0),
            )
            .unwrap();
        // Arrival 0: received end of slot 3 -> wait 4, delay 2.
        let a = access_one(
            &program,
            &ladder,
            Request {
                page: PageId::new(0),
                arrival: 0,
            },
        )
        .unwrap();
        assert_eq!(a.wait, 4);
        assert_eq!(a.delay, 2);
        // Arrival 3: wait 1, delay 0.
        let a = access_one(
            &program,
            &ladder,
            Request {
                page: PageId::new(0),
                arrival: 3,
            },
        )
        .unwrap();
        assert_eq!(a.wait, 1);
        assert_eq!(a.delay, 0);
        assert_eq!(program.wait_from(PageId::new(0), 3), Some(1));
    }

    #[test]
    fn missing_page_counts_as_miss_with_penalty() {
        let ladder = GroupLadder::new(vec![(2, 2)]).unwrap();
        // Only page 0 is ever broadcast.
        let mut program = airsched_core::program::BroadcastProgram::new(1, 4);
        program
            .place(
                airsched_core::types::GridPos::new(
                    airsched_core::types::ChannelId::new(0),
                    airsched_core::types::SlotIndex::new(0),
                ),
                PageId::new(0),
            )
            .unwrap();
        let requests = [
            Request {
                page: PageId::new(1),
                arrival: 0,
            },
            Request {
                page: PageId::new(99), // not in the ladder at all
                arrival: 0,
            },
        ];
        let (summary, misses) = measure(&program, &ladder, &requests);
        assert_eq!(misses, 2);
        // The in-ladder miss was recorded with the cycle-length penalty.
        assert_eq!(summary.requests(), 1);
        assert_eq!(summary.max_delay(), 4);

        // The split accounting separates the two miss kinds: the unknown
        // page is counted but not recorded, the never-broadcast page is
        // counted *and* recorded with the penalty sample.
        let (split_summary, stats) = measure_split(&program, &ladder, &requests);
        assert_eq!(stats.unknown_page, 1);
        assert_eq!(stats.never_broadcast, 1);
        assert_eq!(stats.total(), 2);
        assert_eq!(split_summary, summary);
    }

    #[test]
    fn closed_form_exact_delay_matches_scan() {
        let ladders = [
            fig2_ladder(),
            GroupLadder::geometric(2, 2, &[40, 10, 6, 4]).unwrap(),
        ];
        for ladder in &ladders {
            for n in 1..=4u32 {
                let program = pamad::schedule(ladder, n).unwrap().into_program();
                let fast = exact_avg_delay(&program, ladder);
                let slow = reference::exact_avg_delay_scan(&program, ladder);
                // Bit-identical, not approximately equal: both divide the
                // same integer total by the same count.
                assert_eq!(fast, slow, "n={n}");
            }
        }
        // Never-broadcast page: both paths report None.
        let ladder = GroupLadder::new(vec![(2, 2)]).unwrap();
        let mut p = airsched_core::program::BroadcastProgram::new(1, 2);
        p.place(
            airsched_core::types::GridPos::new(
                airsched_core::types::ChannelId::new(0),
                airsched_core::types::SlotIndex::new(0),
            ),
            PageId::new(0),
        )
        .unwrap();
        assert_eq!(exact_avg_delay(&p, &ladder), None);
        assert_eq!(reference::exact_avg_delay_scan(&p, &ladder), None);
    }
}
