//! SUSC — Scheduling Under Sufficient Channels (§3.2, Algorithms 1 and 2).
//!
//! Given at least the minimum number of channels (Theorem 3.1), SUSC builds
//! a *valid* program of cycle length `t_h`:
//!
//! 1. take pages in ascending expected-time order (group order);
//! 2. for each page, find the first free slot `(x, y)` scanning channel by
//!    channel within columns `0 .. t_i` (`GetAvailableSlot`);
//! 3. replicate the page at `(x, y + k*t_i)` for
//!    `k = 0 .. t_h/t_i - 1` (Theorem 3.3: all appearances share a channel
//!    and are exactly `t_i` apart).
//!
//! The placement is the online scheduler's first-fit
//! ([`crate::dynamic`]): the first `(x, y)` whose whole periodic family is
//! free, resuming each period's search where the last one stopped — §3.2's
//! remark that the search "need not be always starting from the first
//! slot of every channel". It lands exactly where the paper's cell scan
//! does, because of the residue-class argument behind Theorem 3.2:
//!
//! **Why placement cannot fail.** When a page of time `t` is placed, every
//! page already on the grid has a time `t'` dividing `t`, and a stride-`t'`
//! family fills a whole residue class mod `t'` — a union of residue
//! classes mod `t`. So each channel's free set is a union of residue
//! classes mod `t`: the first free cell below column `t` starts a free
//! family, and a channel's free-cell count is a multiple of `t_h / t`. If
//! no channel could take the page, every channel's free count would be
//! zero, so all `N * t_h` cells would be full before the last page — which
//! `N >= ceil(sum P_i/t_i)` rules out. The implementation still returns
//! [`ScheduleError::PlacementFailed`] rather than panicking if the
//! invariant were ever broken.

use crate::bound::minimum_channels;
use crate::dynamic;
use crate::error::ScheduleError;
use crate::group::GroupLadder;
use crate::program::BroadcastProgram;

/// Builds a valid broadcast program on `channels` channels.
///
/// The cycle length is `t_h` (the largest expected time). Channels beyond
/// the minimum are left empty.
///
/// # Errors
///
/// * [`ScheduleError::NoChannels`] if `channels == 0`.
/// * [`ScheduleError::InsufficientChannels`] if `channels` is below
///   Theorem 3.1's bound — use [`crate::pamad`] in that regime.
/// * [`ScheduleError::PlacementFailed`] if the internal invariant of
///   Theorem 3.2 were violated (never expected to occur).
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::{susc, validity};
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// assert_eq!(program.cycle_len(), 4);
/// assert!(validity::check(&program, &ladder).is_valid());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule(ladder: &GroupLadder, channels: u32) -> Result<BroadcastProgram, ScheduleError> {
    if channels == 0 {
        return Err(ScheduleError::NoChannels);
    }
    let required = minimum_channels(ladder);
    if channels < required {
        return Err(ScheduleError::InsufficientChannels {
            supplied: channels,
            required,
        });
    }

    // Groups are stored in ascending expected-time order already, and pages
    // within a group are interchangeable (paper: "their order is
    // unimportant").
    let pages = ladder.groups().flat_map(|info| {
        let t = info.expected_time.slots();
        info.page_ids().map(move |page| (page, t))
    });
    Ok(dynamic::first_fit(channels, ladder.max_time(), pages)?.0)
}

/// Convenience: computes the Theorem 3.1 minimum and schedules at exactly
/// that channel count.
///
/// # Errors
///
/// Propagates [`schedule`]'s errors (only [`ScheduleError::PlacementFailed`]
/// is reachable, and only if an internal invariant breaks).
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::susc;
///
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
/// let (program, channels) = susc::schedule_minimum(&ladder)?;
/// assert_eq!(channels, 4);
/// assert_eq!(program.channels(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_minimum(ladder: &GroupLadder) -> Result<(BroadcastProgram, u32), ScheduleError> {
    let n = minimum_channels(ladder);
    let program = schedule(ladder, n)?;
    Ok((program, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageId;
    use crate::validity;

    #[test]
    fn schedules_paper_bound_example() {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        let program = schedule(&ladder, 2).unwrap();
        let report = validity::check(&program, &ladder);
        assert!(report.is_valid(), "{report}");
        // Fully valid with exactly the minimum: one channel must fail.
        assert!(matches!(
            schedule(&ladder, 1),
            Err(ScheduleError::InsufficientChannels {
                supplied: 1,
                required: 2
            })
        ));
    }

    #[test]
    fn zero_channels_is_an_error() {
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        assert_eq!(schedule(&ladder, 0), Err(ScheduleError::NoChannels));
    }

    #[test]
    fn figure2_workload_at_minimum_four_channels() {
        let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap();
        let (program, n) = schedule_minimum(&ladder).unwrap();
        assert_eq!(n, 4);
        assert_eq!(program.cycle_len(), 8);
        assert!(validity::check(&program, &ladder).is_valid());
    }

    #[test]
    fn frequencies_match_theorem_3_3() {
        let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap();
        let (program, _) = schedule_minimum(&ladder).unwrap();
        for (page, group) in ladder.pages() {
            let expected_freq = ladder.max_time() / ladder.time_of(group).slots();
            assert_eq!(program.frequency(page), expected_freq, "page {page}");
            // All appearances of one page stay on a single channel and are
            // exactly t_i apart (Theorem 3.3).
            let occ: Vec<_> = program.occurrences(page).collect();
            let ch = occ[0].channel;
            assert!(occ.iter().all(|p| p.channel == ch));
            let t = ladder.time_of(group).slots();
            for w in occ.windows(2) {
                assert_eq!(w[1].slot.index() - w[0].slot.index(), t);
            }
        }
    }

    #[test]
    fn extra_channels_stay_partly_empty() {
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let program = schedule(&ladder, 3).unwrap();
        assert!(validity::check(&program, &ladder).is_valid());
        assert_eq!(program.occupied_slots(), 1); // one page, once per 2-cycle... t_h = 2, freq 1
        assert_eq!(program.channels(), 3);
    }

    #[test]
    fn single_group_packs_rows() {
        // 5 pages, t = 2 -> demand 2.5 -> 3 channels; cycle 2.
        let ladder = GroupLadder::new(vec![(2, 5)]).unwrap();
        let (program, n) = schedule_minimum(&ladder).unwrap();
        assert_eq!(n, 3);
        assert!(validity::check(&program, &ladder).is_valid());
        // Every page appears once in the 2-slot cycle.
        for (page, _) in ladder.pages() {
            assert_eq!(program.frequency(page), 1);
        }
    }

    #[test]
    fn tight_full_utilization_case() {
        // P = (3, 2), t = (2, 4): demand = 1.5 + 0.5 = 2 channels, 8 cells,
        // needed instances = 3*2 + 2*1 = 8 -> zero slack.
        let ladder = GroupLadder::new(vec![(2, 3), (4, 2)]).unwrap();
        let (program, n) = schedule_minimum(&ladder).unwrap();
        assert_eq!(n, 2);
        assert_eq!(program.occupied_slots(), program.capacity());
        assert!(validity::check(&program, &ladder).is_valid());
    }

    #[test]
    fn first_pages_fill_lowest_channels_first() {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        let program = schedule(&ladder, 2).unwrap();
        // Page 0 (first of G1) lands at (ch0, slot0) and repeats at slot 2.
        let occ: Vec<_> = program.occurrences(PageId::new(0)).collect();
        assert_eq!(occ[0].channel.index(), 0);
        assert_eq!(occ[0].slot.index(), 0);
        assert_eq!(occ[1].slot.index(), 2);
    }

    #[test]
    fn deep_ladder_schedules_validly() {
        let ladder = GroupLadder::geometric(2, 2, &[4, 6, 9, 5, 3]).unwrap();
        let (program, _) = schedule_minimum(&ladder).unwrap();
        assert!(validity::check(&program, &ladder).is_valid());
    }

    #[test]
    fn non_uniform_divisible_ladder_schedules_validly() {
        // times 2, 4, 12 (ratios 2 then 3) — divisibility is enough.
        let ladder = GroupLadder::new(vec![(2, 3), (4, 2), (12, 7)]).unwrap();
        let (program, _) = schedule_minimum(&ladder).unwrap();
        assert!(validity::check(&program, &ladder).is_valid());
    }
}
