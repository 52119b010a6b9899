//! Deliberate corruption of broadcast programs, for tests and chaos drills.
//!
//! Every helper here *rebuilds* a fresh grid of the same dimensions from
//! the source, filtering or augmenting occurrences along the way. Each helper manufactures one specific failure shape and names
//! the `airsched-lint` rule it provokes, which makes them natural
//! generators for "the analyzer must catch this" and "the station's swap
//! gate must refuse this" tests.
//!
//! | Helper | Failure shape | Primary rule |
//! |---|---|---|
//! | [`drop_page`] | a page vanishes from the air | `AP03` never-broadcast |
//! | [`thin_to_first_occurrence`] | all repeats removed | `AP01` expected-time-gap |
//! | [`delay_first_appearance`] | first column's occurrences removed | `AP02` first-appearance-late |
//! | [`duplicate_in_column`] | a parallel same-column copy | `AP05` duplicate-in-column |
//!
//! The helpers are total and deterministic; they never panic on any input
//! program (a victim page with nothing to remove simply yields an
//! equivalent rebuild).

use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};

/// Rebuilds `source` cell by cell, keeping only the cells `keep` approves.
///
/// The predicate sees every occupied cell as `(position, page)`. This is
/// the primitive under every targeted helper; use it directly for bespoke
/// corruption shapes.
#[must_use]
pub fn rebuild_filtered(
    source: &BroadcastProgram,
    mut keep: impl FnMut(GridPos, PageId) -> bool,
) -> BroadcastProgram {
    let mut out = BroadcastProgram::new(source.channels(), source.cycle_len());
    for channel in 0..source.channels() {
        for slot in 0..source.cycle_len() {
            let pos = GridPos::new(ChannelId::new(channel), SlotIndex::new(slot));
            if let Some(page) = source.page_at(pos) {
                if keep(pos, page) {
                    out.place(pos, page)
                        .expect("rebuild places into a fresh grid");
                }
            }
        }
    }
    out
}

/// Removes every occurrence of `victim`: the page is still in the
/// catalogue but never on the air (`AP03`).
#[must_use]
pub fn drop_page(source: &BroadcastProgram, victim: PageId) -> BroadcastProgram {
    rebuild_filtered(source, |_, page| page != victim)
}

/// `victim`'s earliest occurrence: the lowest channel at its first
/// column, or `None` for a page never broadcast.
fn earliest_cell(source: &BroadcastProgram, victim: PageId) -> Option<GridPos> {
    let &first = source.occurrence_columns(victim).first()?;
    source
        .occurrences(victim)
        .find(|pos| pos.slot.index() == first)
}

/// Keeps only `victim`'s earliest occurrence, wiping its repeats. The
/// single survivor leaves a full-cycle gap (`AP01`), with the frequency
/// deficit (`AP06`) as the cause-level companion.
#[must_use]
pub fn thin_to_first_occurrence(source: &BroadcastProgram, victim: PageId) -> BroadcastProgram {
    let first = earliest_cell(source, victim);
    rebuild_filtered(source, |pos, page| page != victim || Some(pos) == first)
}

/// Removes `victim` from its first column, on every channel that airs
/// it there, so its first appearance slides one period later — past the
/// expected time (`AP02`). The doubled gap (`AP01`) and the frequency
/// deficit (`AP06`) ride along as companions.
#[must_use]
pub fn delay_first_appearance(source: &BroadcastProgram, victim: PageId) -> BroadcastProgram {
    let first = source.occurrence_columns(victim).first().copied();
    rebuild_filtered(source, |pos, page| {
        page != victim || Some(pos.slot.index()) != first
    })
}

/// Places a second copy of `victim` on a free channel inside a column it
/// already occupies — wasted parallel capacity (`AP05`). Returns `None`
/// when no free cell shares a column with the victim (e.g. a fully packed
/// single-channel grid).
#[must_use]
pub fn duplicate_in_column(source: &BroadcastProgram, victim: PageId) -> Option<BroadcastProgram> {
    let spot = source.occurrence_columns(victim).iter().find_map(|&col| {
        (0..source.channels())
            .map(|ch| GridPos::new(ChannelId::new(ch), SlotIndex::new(col)))
            .find(|&pos| source.is_free(pos))
    })?;
    let mut out = rebuild_filtered(source, |_, _| true);
    out.place(spot, victim)
        .expect("spot was free in the source grid");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::group::GroupLadder;
    use airsched_core::susc;

    fn clean() -> (GroupLadder, BroadcastProgram) {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3), (8, 2)]).unwrap();
        let program = susc::schedule(&ladder, 3).unwrap();
        (ladder, program)
    }

    #[test]
    fn rebuild_with_keep_all_is_identity() {
        let (_, program) = clean();
        let copy = rebuild_filtered(&program, |_, _| true);
        assert_eq!(copy.channels(), program.channels());
        assert_eq!(copy.cycle_len(), program.cycle_len());
        for channel in 0..program.channels() {
            for slot in 0..program.cycle_len() {
                let pos = GridPos::new(ChannelId::new(channel), SlotIndex::new(slot));
                assert_eq!(copy.page_at(pos), program.page_at(pos));
            }
        }
    }

    #[test]
    fn drop_page_removes_every_occurrence() {
        let (_, program) = clean();
        let victim = PageId::new(0);
        assert!(!program.occurrence_columns(victim).is_empty());
        let broken = drop_page(&program, victim);
        assert!(broken.occurrence_columns(victim).is_empty());
        assert_eq!(
            broken.occupied_slots(),
            program.occupied_slots() - program.frequency(victim)
        );
    }

    #[test]
    fn thin_and_delay_keep_exactly_one_end() {
        let (_, program) = clean();
        let victim = PageId::new(0);
        let cells: Vec<GridPos> = program.occurrences(victim).collect();
        assert!(cells.len() >= 2, "test page needs repeats");

        let thinned = thin_to_first_occurrence(&program, victim);
        assert!(thinned.occurrences(victim).eq(cells[..1].iter().copied()));

        let delayed = delay_first_appearance(&program, victim);
        assert!(delayed.occurrences(victim).eq(cells[1..].iter().copied()));
    }

    #[test]
    fn earliest_occurrence_is_the_first_column_on_any_channel() {
        // Row-major, (ch 0, col 5) comes first; in time, (ch 1, col 1) does.
        let cell = |ch, slot| GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
        let victim = PageId::new(0);
        let mut program = BroadcastProgram::new(2, 8);
        program.place(cell(0, 5), victim).unwrap();
        program.place(cell(1, 1), victim).unwrap();

        let thinned = thin_to_first_occurrence(&program, victim);
        assert!(thinned.occurrences(victim).eq([cell(1, 1)]));

        // The first appearance slides from column 1 to column 5.
        let delayed = delay_first_appearance(&program, victim);
        assert!(delayed.occurrences(victim).eq([cell(0, 5)]));
        assert_eq!(delayed.occurrence_columns(victim), &[5]);
    }

    #[test]
    fn delay_clears_the_first_column_on_every_channel() {
        // Doubled in its first column: removing one copy would leave the
        // first appearance at column 1.
        let cell = |ch, slot| GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
        let victim = PageId::new(0);
        let mut program = BroadcastProgram::new(2, 8);
        for (ch, slot) in [(0, 1), (1, 1), (0, 5)] {
            program.place(cell(ch, slot), victim).unwrap();
        }
        let delayed = delay_first_appearance(&program, victim);
        assert!(delayed.occurrences(victim).eq([cell(0, 5)]));
        assert_eq!(delayed.occurrence_columns(victim), &[5]);
    }

    #[test]
    fn duplicate_adds_one_parallel_copy() {
        let (ladder, _) = clean();
        // A spare channel guarantees a free cell in every column.
        let program = susc::schedule(&ladder, 4).unwrap();
        let victim = PageId::new(0);
        let doubled = duplicate_in_column(&program, victim).expect("spare channel has room");
        assert_eq!(
            doubled.occurrences(victim).count(),
            program.occurrences(victim).count() + 1
        );
        // A parallel copy is one *logical* occurrence: the column set — and
        // hence the frequency — must not change.
        assert_eq!(doubled.frequency(victim), program.frequency(victim));
        assert_eq!(
            doubled.occurrence_columns(victim),
            program.occurrence_columns(victim),
            "the copy lands in an existing column"
        );
    }
}
