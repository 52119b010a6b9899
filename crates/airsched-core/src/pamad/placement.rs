//! Algorithm 4's placement stage: spread each page's `S_i` appearances
//! evenly over the major cycle.
//!
//! The `k`-th appearance (1-based in the paper) of a frequency-`S` page
//! targets the column window
//! `[ceil(t_major/S * (k-1)) + 1, ceil(t_major/S * k)]` (paper, 1-based),
//! i.e. 0-based `[ceil(t_major*(k-1)/S), ceil(t_major*k/S))`. Within the
//! window, columns are scanned in order and channels top-to-bottom, taking
//! the first free cell.
//!
//! The paper asserts a free cell always exists inside the window because
//! the cycle was sized to hold all instances. Total capacity is indeed
//! sufficient, but an individual window can fill up when many groups share
//! it; in that case this implementation falls back to scanning forward
//! (cyclically) from the window end and records the event in
//! [`PlacementStats`], so the deviation from the idealized spread is
//! observable rather than silent.

use crate::delay::major_cycle;
use crate::error::ScheduleError;
use crate::group::GroupLadder;
use crate::program::BroadcastProgram;
use crate::types::{ChannelId, GridPos, PageId, SlotIndex};

/// Placement diagnostics for one Algorithm 4 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementStats {
    /// Appearances placed inside their ideal window.
    pub in_window: u64,
    /// Appearances that overflowed their window and were placed in the
    /// nearest later free column not yet holding the page.
    pub displaced: u64,
    /// Appearances placed in a column that already holds the page on
    /// another channel. They consume a cell without adding a logical
    /// occurrence — this only happens when a page's frequency approaches
    /// the cycle length under heavy contention, and is reported so callers
    /// can observe the wasted bandwidth.
    pub duplicated: u64,
    /// Appearances with no free cell anywhere. Unreachable by construction:
    /// Equation 8 sizes the cycle so `sum S_i * P_i <= N * t_major`.
    pub dropped: u64,
}

impl PlacementStats {
    /// Total appearances attempted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.in_window + self.displaced + self.duplicated + self.dropped
    }
}

/// The result of placing a frequency vector into a program grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    program: BroadcastProgram,
    stats: PlacementStats,
    freqs: Vec<u64>,
}

impl Placement {
    /// The materialized broadcast program.
    #[must_use]
    pub fn program(&self) -> &BroadcastProgram {
        &self.program
    }

    /// Consumes the placement, returning the program.
    #[must_use]
    pub fn into_program(self) -> BroadcastProgram {
        self.program
    }

    /// Placement diagnostics.
    #[must_use]
    pub fn stats(&self) -> PlacementStats {
        self.stats
    }

    /// The per-group frequencies that were placed.
    #[must_use]
    pub fn frequencies(&self) -> &[u64] {
        &self.freqs
    }
}

/// Runs Algorithm 4: builds the broadcast program for `ladder` with
/// per-group frequencies `freqs` on `n_real` channels.
///
/// Groups are processed in descending frequency order (stable on ladder
/// order), exactly as the paper sorts pages.
///
/// # Errors
///
/// * [`ScheduleError::NoChannels`] if `n_real == 0`.
/// * [`ScheduleError::InvalidFrequencies`] if `freqs` has the wrong arity
///   or any zero entry.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::pamad::place_frequencies;
///
/// // Paper Figure 2: S = (4, 2, 1) on 3 channels -> 9-slot cycle.
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
/// let placement = place_frequencies(&ladder, &[4, 2, 1], 3)?;
/// assert_eq!(placement.program().cycle_len(), 9);
/// assert_eq!(placement.program().occupied_slots(), 25);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn place_frequencies(
    ladder: &GroupLadder,
    freqs: &[u64],
    n_real: u32,
) -> Result<Placement, ScheduleError> {
    if n_real == 0 {
        return Err(ScheduleError::NoChannels);
    }
    if freqs.len() != ladder.group_count() {
        return Err(ScheduleError::InvalidFrequencies {
            reason: "frequency vector arity differs from the group count",
        });
    }
    if freqs.contains(&0) {
        return Err(ScheduleError::InvalidFrequencies {
            reason: "every group must be broadcast at least once",
        });
    }

    let t_major = major_cycle(ladder.page_counts(), freqs, n_real);
    let mut program = BroadcastProgram::new(n_real, t_major);
    let mut stats = PlacementStats::default();

    // Paper: "Sort all data pages in descending order according to their
    // broadcast frequency". Stable sort keeps ladder order among ties.
    let mut order: Vec<usize> = (0..ladder.group_count()).collect();
    order.sort_by_key(|&g| core::cmp::Reverse(freqs[g]));

    let infos: Vec<_> = ladder.groups().collect();
    for &g in &order {
        let s = freqs[g];
        for page in infos[g].page_ids() {
            for k in 0..s {
                place_one(&mut program, page, k, s, t_major, n_real, &mut stats);
            }
        }
    }

    Ok(Placement {
        program,
        stats,
        freqs: freqs.to_vec(),
    })
}

/// Places the `k`-th (0-based) of `s` appearances of `page`.
fn place_one(
    program: &mut BroadcastProgram,
    page: PageId,
    k: u64,
    s: u64,
    t_major: u64,
    n_real: u32,
    stats: &mut PlacementStats,
) {
    // 0-based window [start, end).
    let start = (t_major * k).div_ceil(s);
    let end = (t_major * (k + 1)).div_ceil(s).min(t_major);

    // Pass 1: the ideal window.
    for col in start..end {
        if try_column(program, page, col, n_real) {
            stats.in_window += 1;
            return;
        }
    }
    // Pass 2 (fallback): scan forward cyclically from the window end.
    for off in 0..t_major {
        let col = (end + off) % t_major;
        if try_column(program, page, col, n_real) {
            stats.displaced += 1;
            return;
        }
    }
    // Pass 3 (last resort): every free column already holds the page; take
    // any free cell so capacity accounting stays exact. Adds no logical
    // occurrence.
    for col in 0..t_major {
        for ch in 0..n_real {
            let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(col));
            if program.is_free(pos) {
                program
                    .place(pos, page)
                    .expect("cell was checked to be free");
                stats.duplicated += 1;
                return;
            }
        }
    }
    stats.dropped += 1;
}

/// Tries to place `page` somewhere in column `col`; skips the column if the
/// page already appears there (a duplicate in one column adds no logical
/// occurrence and would waste a cell).
fn try_column(program: &mut BroadcastProgram, page: PageId, col: u64, n_real: u32) -> bool {
    if program.occurrence_columns(page).binary_search(&col).is_ok() {
        return false;
    }
    for ch in 0..n_real {
        let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(col));
        if program.is_free(pos) {
            program
                .place(pos, page)
                .expect("cell was checked to be free");
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::expected_program_delay;
    use crate::validity;

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn figure2_cycle_and_occupancy() {
        let placement = place_frequencies(&fig2_ladder(), &[4, 2, 1], 3).unwrap();
        let program = placement.program();
        assert_eq!(program.cycle_len(), 9);
        assert_eq!(program.channels(), 3);
        // 4*3 + 2*5 + 1*3 = 25 instances, but same-column duplicates are
        // impossible here so every instance occupies a distinct cell.
        assert_eq!(placement.stats().total(), 25);
        assert_eq!(placement.stats().dropped, 0);
        assert_eq!(program.occupied_slots(), 25);
        // Every page appears exactly its frequency.
        for (page, group) in fig2_ladder().pages() {
            let s = [4u64, 2, 1][group.index() as usize];
            assert_eq!(program.frequency(page), s, "page {page}");
        }
    }

    #[test]
    fn appearances_are_roughly_evenly_spread() {
        let placement = place_frequencies(&fig2_ladder(), &[4, 2, 1], 3).unwrap();
        let program = placement.program();
        // Frequency-4 pages in a 9-slot cycle: gaps should all be 2 or 3
        // when placement stays in-window.
        for (page, group) in fig2_ladder().pages() {
            if group.index() == 0 {
                for gap in program.cyclic_gaps(page) {
                    assert!((2..=4).contains(&gap), "page {page} gap {gap}");
                }
            }
        }
    }

    #[test]
    fn sufficient_channel_frequencies_yield_valid_program() {
        // With 4 channels (the minimum) and SUSC frequencies, Algorithm 4
        // must produce a *valid* program: cycle = ceil(25/4)... wait, with
        // S = (4,2,1) the instance count is 25 and cycle is ceil(25/4) = 7 < 8.
        // A shorter-than-t_h cycle only tightens gaps, so validity holds.
        let ladder = fig2_ladder();
        let placement = place_frequencies(&ladder, &[4, 2, 1], 4).unwrap();
        let report = validity::check(placement.program(), &ladder);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let ladder = fig2_ladder();
        assert!(matches!(
            place_frequencies(&ladder, &[4, 2, 1], 0),
            Err(ScheduleError::NoChannels)
        ));
        assert!(matches!(
            place_frequencies(&ladder, &[4, 2], 3),
            Err(ScheduleError::InvalidFrequencies { .. })
        ));
        assert!(matches!(
            place_frequencies(&ladder, &[4, 0, 1], 3),
            Err(ScheduleError::InvalidFrequencies { .. })
        ));
    }

    #[test]
    fn single_channel_everything_still_places() {
        let ladder = fig2_ladder();
        let placement = place_frequencies(&ladder, &[1, 1, 1], 1).unwrap();
        assert_eq!(placement.program().cycle_len(), 11);
        assert_eq!(placement.stats().dropped, 0);
        for (page, _) in ladder.pages() {
            assert_eq!(placement.program().frequency(page), 1);
        }
    }

    #[test]
    fn higher_frequencies_reduce_measured_delay() {
        let ladder = fig2_ladder();
        let low = place_frequencies(&ladder, &[1, 1, 1], 3).unwrap();
        let high = place_frequencies(&ladder, &[4, 2, 1], 3).unwrap();
        let d_low = expected_program_delay(low.program(), &ladder).unwrap();
        let d_high = expected_program_delay(high.program(), &ladder).unwrap();
        assert!(
            d_high < d_low,
            "PAMAD frequencies ({d_high}) should beat flat ({d_low})"
        );
    }

    #[test]
    fn no_duplicate_page_within_a_column() {
        // Force heavy contention: 2 channels, high frequencies.
        let ladder = GroupLadder::new(vec![(2, 4), (4, 4)]).unwrap();
        let placement = place_frequencies(&ladder, &[3, 2], 2).unwrap();
        let program = placement.program();
        for (page, _) in ladder.pages() {
            let cols = program.occurrence_columns(page);
            let cells = program.occurrences(page).count();
            assert_eq!(cols.len(), cells, "page {page} duplicated in a column");
        }
    }

    #[test]
    fn stats_account_for_every_instance() {
        let ladder = GroupLadder::geometric(2, 2, &[5, 7, 4, 2]).unwrap();
        let freqs = [6u64, 3, 2, 1];
        let placement = place_frequencies(&ladder, &freqs, 2).unwrap();
        let want: u64 = freqs
            .iter()
            .zip(ladder.page_counts())
            .map(|(s, p)| s * p)
            .sum();
        assert_eq!(placement.stats().total(), want);
        assert_eq!(placement.frequencies(), &freqs);
    }
}
