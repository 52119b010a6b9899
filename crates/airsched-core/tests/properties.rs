//! Property-based tests for the core scheduling invariants.
//!
//! These exercise the claims the paper proves (Theorems 3.1–3.3) and the
//! structural invariants of PAMAD/m-PB/OPT on randomized group ladders.

use proptest::prelude::*;

use airsched_core::bound::{
    channel_demand, minimum_channels, minimum_channels_for_times, minimum_channels_per_group,
};
use std::collections::BTreeMap;

use airsched_core::delay::{expected_program_delay, group_objective, major_cycle, Weighting};
use airsched_core::dynamic::{BaseTrust, OnlineScheduler};
use airsched_core::error::ScheduleError;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex, PAGE_ID_LIMIT};
use airsched_core::{mpb, opt, pamad, susc, validity};

/// A random harmonic ladder: 1-5 groups, base time 1-6, ratio 2-4,
/// 1-40 pages per group.
fn arb_ladder() -> impl Strategy<Value = GroupLadder> {
    (1u64..=6, 2u64..=4, prop::collection::vec(1u64..=40, 1..=5)).prop_map(|(t1, c, counts)| {
        GroupLadder::geometric(t1, c, &counts).expect("generated ladder is valid")
    })
}

/// A random *divisible but possibly non-uniform* ladder.
fn arb_divisible_ladder() -> impl Strategy<Value = GroupLadder> {
    (
        1u64..=4,
        prop::collection::vec((2u64..=3, 1u64..=25), 1..=4),
    )
        .prop_map(|(t1, steps)| {
            let mut t = t1;
            let mut groups = Vec::with_capacity(steps.len());
            for (c, p) in steps {
                groups.push((t, p));
                t *= c;
            }
            GroupLadder::new(groups).expect("generated ladder is valid")
        })
}

/// One call on an [`OnlineScheduler`].
#[derive(Debug, Clone)]
enum Op {
    Add(PageId, u64),
    Remove(PageId),
    Rebuild,
    RebuildWith(Vec<(PageId, u64)>),
    RebuildOnChannels(u32),
}

/// Cycle of the first-fit grids; every expected time is a power of two
/// dividing it.
const FIT_CYCLE: u64 = 16;

fn arb_page_time() -> impl Strategy<Value = (PageId, u64)> {
    (0u32..40, 0u32..=4).prop_map(|(p, e)| (PageId::new(p), 1u64 << e))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_page_time().prop_map(|(p, t)| Op::Add(p, t)),
        arb_page_time().prop_map(|(p, t)| Op::Add(p, t)),
        arb_page_time().prop_map(|(p, t)| Op::Add(p, t)),
        (0u32..40).prop_map(|p| Op::Remove(PageId::new(p))),
        Just(Op::Rebuild),
        prop::collection::vec(arb_page_time(), 0..3).prop_map(Op::RebuildWith),
        (1u32..=4).prop_map(Op::RebuildOnChannels),
    ]
}

/// One step of the catalogue-table model test.
#[derive(Debug, Clone)]
enum CatalogueOp {
    Fit(Op),
    /// A snapshot taken and restored in place of the scheduler.
    Snapshot,
    /// The `k`-th live page expired and re-published with time `t`.
    Retime(usize, u64),
    /// A publish of the id `PAGE_ID_LIMIT + k`, which must be refused.
    Oversized(u32, u64),
}

fn arb_catalogue_op() -> impl Strategy<Value = CatalogueOp> {
    prop_oneof![
        arb_op().prop_map(CatalogueOp::Fit),
        arb_op().prop_map(CatalogueOp::Fit),
        arb_op().prop_map(CatalogueOp::Fit),
        Just(CatalogueOp::Snapshot),
        (0usize..40, 0u32..=4).prop_map(|(k, e)| CatalogueOp::Retime(k, 1 << e)),
        (any::<u32>(), 0u32..=4).prop_map(|(k, e)| CatalogueOp::Oversized(k, 1 << e)),
    ]
}

/// The first-fit reference: every search scans from `(0, 0)`.
#[derive(Debug, Clone)]
struct NaiveFirstFit {
    channels: u32,
    grid: Vec<Option<PageId>>,
    pages: BTreeMap<PageId, u64>,
}

impl NaiveFirstFit {
    fn new(channels: u32) -> Self {
        let cells = channels as usize * FIT_CYCLE as usize;
        Self {
            channels,
            grid: vec![None; cells],
            pages: BTreeMap::new(),
        }
    }

    fn add(&mut self, page: PageId, t: u64) -> bool {
        if self.pages.contains_key(&page) {
            return false;
        }
        let (cycle, t) = (FIT_CYCLE as usize, t as usize);
        for ch in 0..self.channels as usize {
            for y in 0..t {
                let family = (y..cycle).step_by(t).map(|s| ch * cycle + s);
                if family.clone().all(|i| self.grid[i].is_none()) {
                    family.for_each(|i| self.grid[i] = Some(page));
                    self.pages.insert(page, t as u64);
                    return true;
                }
            }
        }
        false
    }

    fn remove(&mut self, page: PageId) -> bool {
        let live = self.pages.remove(&page).is_some();
        self.grid
            .iter_mut()
            .filter(|c| **c == Some(page))
            .for_each(|c| *c = None);
        live
    }

    fn rebuild(&mut self, channels: u32, pending: &[(PageId, u64)]) -> bool {
        let mut order: Vec<(PageId, u64)> = self.pages.iter().map(|(&p, &t)| (p, t)).collect();
        order.extend_from_slice(pending);
        order.sort_by_key(|&(p, t)| (t, p));
        let mut fresh = Self::new(channels);
        let fits = order.into_iter().all(|(p, t)| fresh.add(p, t));
        if fits {
            *self = fresh;
        }
        fits
    }
}

/// One change under a relocated plan: a live channel lost or a down one
/// restored (each by its rank), a page published, the k-th live page
/// expired, or the k-th live page re-published under another time.
#[derive(Debug, Clone)]
enum Move {
    Lose(usize),
    Restore(usize),
    Publish(PageId, u64),
    Expire(usize),
    Retime(usize, u64),
}

/// Cycle of the relocation grids: its divisors mix factors 2 and 3, so
/// catalogues are divisible but not always harmonic.
const RELOCATE_CYCLE: u64 = 24;
const RELOCATE_TIMES: [u64; 6] = [2, 3, 4, 6, 8, 24];

fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![
        (0usize..8).prop_map(Move::Lose),
        (0usize..8).prop_map(Move::Restore),
        (0u32..30, 0usize..6).prop_map(|(p, i)| Move::Publish(PageId::new(p), RELOCATE_TIMES[i])),
        (0usize..40).prop_map(Move::Expire),
        (0usize..40, 0usize..6).prop_map(|(k, i)| Move::Retime(k, RELOCATE_TIMES[i])),
    ]
}

/// Checks `program` as the station's gate would, on its grid: every
/// live page airs as one periodic family of its expected time, so every
/// gap is at most that time, and nothing else airs. The occurrence
/// tables must be exactly what the grid holds.
fn assert_valid_for(program: &BroadcastProgram, sched: &OnlineScheduler) {
    let grid =
        BroadcastProgram::from_cells(program.channels(), program.cycle_len(), program.cells())
            .expect("a well-formed grid");
    prop_assert_eq!(program.occupied_slots(), grid.occupied_slots());
    prop_assert_eq!(
        program.pages().collect::<Vec<_>>(),
        grid.pages().collect::<Vec<_>>()
    );
    for page in grid.pages() {
        prop_assert!(
            program.occurrences(page).eq(grid.occurrences(page)),
            "{}",
            page
        );
        prop_assert_eq!(
            program.occurrence_columns(page),
            grid.occurrence_columns(page),
            "{}",
            page
        );
    }
    let catalogue = sched.pages();
    for page in grid.pages() {
        prop_assert!(catalogue.contains(page), "{} airs but is not live", page);
    }
    for (page, t) in catalogue.iter() {
        prop_assert_eq!(grid.frequency(page) * t, grid.cycle_len(), "{}", page);
        prop_assert!(
            grid.cyclic_gaps(page).all(|g| g <= t),
            "{} gap above {}",
            page,
            t
        );
        prop_assert_eq!(grid.occurrences(page).count() as u64, grid.frequency(page));
    }
}

/// The paper's SUSC taken literally (§3.2, Algorithms 1 and 2): pages in
/// group order, each at the first free cell `(x, y)` with `y < t_i`
/// (`GetAvailableSlot`), then replicated every `t_i` slots. `None` where
/// the scan finds no cell or a replica lands on a taken one. Kept here as
/// the reference the library's first-fit SUSC must reproduce cell for
/// cell.
fn paper_susc(ladder: &GroupLadder, channels: u32) -> Option<BroadcastProgram> {
    let cycle = ladder.max_time();
    let mut program = BroadcastProgram::new(channels, cycle);
    for info in ladder.groups() {
        let t = info.expected_time.slots();
        for page in info.page_ids() {
            let (x, y) = get_available_slot(&program, t)?;
            for k in 0..cycle / t {
                let pos = GridPos::new(ChannelId::new(x), SlotIndex::new(y + k * t));
                program.place(pos, page).ok()?;
            }
        }
    }
    Some(program)
}

/// Algorithm 2, `GetAvailableSlot`: the first free `(channel, column)` with
/// `column < t`, scanning columns within each channel before moving to the
/// next channel.
fn get_available_slot(program: &BroadcastProgram, t: u64) -> Option<(u32, u64)> {
    (0..program.channels()).find_map(|x| {
        (0..t.min(program.cycle_len()))
            .find(|&y| program.is_free(GridPos::new(ChannelId::new(x), SlotIndex::new(y))))
            .map(|y| (x, y))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 3.1 + Theorem 3.2: SUSC succeeds at exactly the tight bound
    /// and the result is a valid program.
    #[test]
    fn susc_is_valid_at_the_tight_minimum(ladder in arb_ladder()) {
        let n = minimum_channels(&ladder);
        let program = susc::schedule(&ladder, n).expect("SUSC at the bound");
        let report = validity::check(&program, &ladder);
        prop_assert!(report.is_valid(), "{report}\n{}", program.render_grid());
        // And a valid program has zero expected delay.
        let d = expected_program_delay(&program, &ladder).unwrap();
        prop_assert_eq!(d, 0.0);
    }

    /// Converse of Theorem 3.1: one channel below the bound, the demand
    /// provably exceeds capacity (the bound really is necessary).
    #[test]
    fn below_the_bound_demand_exceeds_capacity(ladder in arb_ladder()) {
        let n = minimum_channels(&ladder);
        prop_assume!(n > 1);
        // Required bandwidth share strictly exceeds n - 1 channels.
        prop_assert!(channel_demand(&ladder) > f64::from(n - 1));
    }

    /// The per-group (typeset) bound never undercuts the tight bound.
    #[test]
    fn per_group_bound_dominates(ladder in arb_ladder()) {
        prop_assert!(minimum_channels_per_group(&ladder) >= minimum_channels(&ladder));
        // And the tight bound brackets the (float) demand: n-1 < demand <= n.
        let n = f64::from(minimum_channels(&ladder));
        let demand = channel_demand(&ladder);
        prop_assert!(demand <= n + 1e-6 && demand > n - 1.0 - 1e-6);
    }

    /// Theorem 3.3 under SUSC: every page's appearances sit on one channel,
    /// exactly t_i apart, starting within the first t_i columns.
    #[test]
    fn susc_appearance_structure(ladder in arb_ladder()) {
        let (program, _) = susc::schedule_minimum(&ladder).unwrap();
        for (page, group) in ladder.pages() {
            let t = ladder.time_of(group).slots();
            let occ: Vec<GridPos> = program.occurrences(page).collect();
            prop_assert!(!occ.is_empty());
            prop_assert!(occ[0].slot.index() < t);
            let ch = occ[0].channel;
            for w in occ.windows(2) {
                prop_assert_eq!(w[0].channel, ch);
                prop_assert_eq!(w[1].slot.index() - w[0].slot.index(), t);
            }
            prop_assert_eq!(occ.len() as u64, ladder.max_time() / t);
        }
    }

    /// The library's SUSC — the online first-fit over the ladder's pages —
    /// lays out every geometric and every divisible ladder exactly as the
    /// paper's cell scan does, at the minimum and with up to two spare
    /// channels.
    #[test]
    fn susc_matches_the_paper_scan(
        geometric in arb_ladder(),
        divisible in arb_divisible_ladder(),
        extra in 0u32..=2,
    ) {
        for ladder in [&geometric, &divisible] {
            let n = minimum_channels(ladder) + extra;
            let reference = paper_susc(ladder, n).expect("the paper's scan places every page");
            prop_assert_eq!(susc::schedule(ladder, n), Ok(reference), "{} on {}", ladder, n);
        }
    }

    /// The online scheduler's resumed first-fit lands every page exactly
    /// where a scan from `(0, 0)` would, through any mix of additions,
    /// removals and rebuilds, and its program stays valid for the live
    /// pages after every step, refusals included. After every step the
    /// repack probe `program_on_channels(n)` must also equal what
    /// `rebuild_on_channels(n)` installs on a clone and what the reference
    /// repack lays out, for every `n` up to one past the current
    /// channels, refusals included.
    #[test]
    fn online_first_fit_is_exact(
        channels in 1u32..=4,
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut sched = OnlineScheduler::new(channels, FIT_CYCLE).expect("valid dimensions");
        let mut naive = NaiveFirstFit::new(channels);
        for op in ops {
            let (got, want) = match &op {
                Op::Add(p, t) => (sched.add_page(*p, *t).is_ok(), naive.add(*p, *t)),
                Op::Remove(p) => (sched.remove_page(*p).is_ok(), naive.remove(*p)),
                Op::Rebuild => (sched.rebuild().is_ok(), naive.rebuild(naive.channels, &[])),
                Op::RebuildWith(pending) => (
                    sched.rebuild_with(pending).is_ok(),
                    naive.rebuild(naive.channels, pending),
                ),
                Op::RebuildOnChannels(n) => {
                    (sched.rebuild_on_channels(*n).is_ok(), naive.rebuild(*n, &[]))
                }
            };
            prop_assert_eq!(got, want, "{:?}", op);
            // The invariant the station's gate trusts of the full plan.
            assert_valid_for(sched.program(), &sched);
            let snap = sched.snapshot();
            prop_assert_eq!(snap.channels, naive.channels, "{:?}", op);
            prop_assert_eq!(&snap.grid, &naive.grid, "{:?}", op);
            for n in 1..=snap.channels + 1 {
                let probe = sched.program_on_channels(n);
                let mut rebuilt = sched.clone();
                let installed = rebuilt.rebuild_on_channels(n);
                let mut reference = naive.clone();
                let fits = reference.rebuild(n, &[]);
                prop_assert_eq!(probe.is_ok(), fits, "{:?} onto {}", op, n);
                prop_assert_eq!(installed.is_ok(), fits, "{:?} onto {}", op, n);
                match probe {
                    Ok(program) => {
                        prop_assert_eq!(&program, rebuilt.program(), "{:?} onto {}", op, n);
                        prop_assert_eq!(&rebuilt.snapshot().grid, &reference.grid);
                    }
                    Err(err) => {
                        prop_assert_eq!(Err(err), installed, "{:?} onto {}", op, n);
                        prop_assert_eq!(&rebuilt, &sched, "a refused rebuild changed state");
                    }
                }
            }
        }
    }

    /// Relocation under random channel loss and restore, publish and
    /// expire — one change or several between relocations — either
    /// refuses with `PlacementFailed` or returns a program valid for the
    /// live catalogue in which every page that survived the changes (all
    /// cells on kept rows, still one family of its current expected
    /// time) keeps its exact cells, moved to its row's new index, and
    /// only the pages left without a place were placed. A refusal is
    /// followed by a fresh pack, as the station does.
    #[test]
    fn relocation_keeps_survivors_and_places_only_the_missing(
        channels in 2u32..=5,
        pages in prop::collection::vec(0usize..6, 1..30),
        moves in prop::collection::vec((arb_move(), any::<bool>()), 1..24),
    ) {
        let mut sched = OnlineScheduler::new(channels, RELOCATE_CYCLE).expect("valid dimensions");
        for (id, &i) in (0u32..).zip(&pages) {
            // Tight pages may not fit; the catalogue is what was admitted.
            let _ = sched.add_page(PageId::new(id), RELOCATE_TIMES[i]);
        }
        let mut up = vec![true; channels as usize];
        // The plan on the air, whose rows fill the live channels of
        // `plan_up` in order.
        let mut plan = Some(sched.program().clone());
        let mut plan_up = up.clone();
        for (mv, relocate_now) in moves {
            match &mv {
                Move::Lose(k) => {
                    let live: Vec<usize> = (0..up.len()).filter(|&c| up[c]).collect();
                    if live.len() > 1 {
                        up[live[k % live.len()]] = false;
                    }
                }
                Move::Restore(k) => {
                    let down: Vec<usize> = (0..up.len()).filter(|&c| !up[c]).collect();
                    if !down.is_empty() {
                        up[down[k % down.len()]] = true;
                    }
                }
                Move::Publish(page, t) => {
                    if sched.add_page(*page, *t).is_err() {
                        let _ = sched.rebuild_with(&[(*page, *t)]);
                    }
                }
                Move::Expire(k) => {
                    let live: Vec<PageId> = sched.pages().iter().map(|(p, _)| p).collect();
                    if !live.is_empty() {
                        sched.remove_page(live[k % live.len()]).expect("live page");
                    }
                }
                Move::Retime(k, t) => {
                    let live: Vec<PageId> = sched.pages().iter().map(|(p, _)| p).collect();
                    if !live.is_empty() {
                        let page = live[k % live.len()];
                        sched.remove_page(page).expect("live page");
                        if sched.add_page(page, *t).is_err() {
                            let _ = sched.rebuild_with(&[(page, *t)]);
                        }
                    }
                }
            }
            if !relocate_now {
                continue;
            }
            let n_up = u32::try_from(up.iter().filter(|&&u| u).count()).unwrap();
            let Some(base) = plan.take() else {
                plan = sched.program_on_channels(n_up).ok();
                plan_up.clone_from(&up);
                continue;
            };
            // Row i of the candidate is the row its channel aired before.
            let mut rank = 0u32;
            let mut rows = Vec::new();
            for (&was, &is) in plan_up.iter().zip(&up) {
                let aired = was.then(|| { rank += 1; rank - 1 });
                if is {
                    rows.push(aired);
                }
            }
            plan_up.clone_from(&up);
            match sched.relocate(&base, &rows, BaseTrust::Unchecked) {
                Err(err) => {
                    prop_assert!(
                        matches!(err, airsched_core::error::ScheduleError::PlacementFailed { .. }),
                        "{:?}: {:?}", mv, err
                    );
                    plan = sched.program_on_channels(n_up).ok();
                }
                Ok(program) => {
                    prop_assert_eq!(program.channels(), n_up);
                    assert_valid_for(&program, &sched);
                    let cycle = RELOCATE_CYCLE;
                    for (page, t) in sched.pages().iter() {
                        let cells: Vec<GridPos> = base.occurrences(page).collect();
                        let kept: Option<Vec<GridPos>> = cells
                            .iter()
                            .map(|c| {
                                let row = rows.iter().position(|&r| r == Some(c.channel.index()))?;
                                Some(GridPos::new(ChannelId::new(u32::try_from(row).unwrap()), c.slot))
                            })
                            .collect();
                        let family = !cells.is_empty()
                            && cells.len() as u64 * t == cycle
                            && cells.iter().all(|c| c.slot.index() % t == cells[0].slot.index() % t);
                        if let (Some(kept), true) = (kept, family) {
                            prop_assert!(
                                program.occurrences(page).eq(kept),
                                "{:?}: survivor {} moved", mv, page
                            );
                        }
                    }
                    plan = Some(program);
                }
            }
        }
    }

    /// A relocation from the scheduler's own program, with or without a
    /// restored empty row, matches a literal cell-scan model: the kept
    /// rows verbatim, the lost rows' pages wiped, and each of them placed
    /// tightest first (ascending id within a time) on the first row
    /// whose family at its old offset is free, else on the first free
    /// `(row, offset)` of a scan from `(0, 0)`. So a moved page keeps its
    /// `occurrence_columns` whenever some candidate row has that family
    /// free when its turn comes.
    #[test]
    fn relocation_keeps_a_moved_pages_columns_when_a_row_has_them_free(
        channels in 2u32..=5,
        pages in prop::collection::vec(0usize..6, 1..40),
        expire in prop::collection::vec(any::<bool>(), 40),
        lose in 1u8..31,
        restored in any::<bool>(),
    ) {
        let cycle = RELOCATE_CYCLE;
        let mut sched = OnlineScheduler::new(channels, cycle).expect("valid dimensions");
        for (id, &i) in (0u32..).zip(&pages) {
            let _ = sched.add_page(PageId::new(id), RELOCATE_TIMES[i]);
        }
        // Expiries fragment the grid, so some families are taken.
        let live: Vec<PageId> = sched.pages().iter().map(|(p, _)| p).collect();
        for (page, _) in live.iter().zip(&expire).filter(|&(_, &e)| e) {
            sched.remove_page(*page).expect("live page");
        }
        let base = sched.program().clone();
        let mut rows: Vec<Option<u32>> = (0..channels).filter(|&ch| lose >> ch & 1 == 0).map(Some).collect();
        if restored {
            rows.push(None);
        }
        prop_assume!(!rows.is_empty());
        let n = rows.len();
        let width = cycle as usize;
        // The model grid: kept rows verbatim, a restored row empty.
        let mut grid: Vec<Vec<Option<PageId>>> = rows
            .iter()
            .map(|r| match r {
                Some(r) => base.row_cells(*r).to_vec(),
                None => vec![None; width],
            })
            .collect();
        let mut moved: Vec<(u64, PageId, u64)> = Vec::new();
        for ch in (0..channels).filter(|ch| !rows.contains(&Some(*ch))) {
            for (col, cell) in (0u64..).zip(base.row_cells(ch)) {
                if let Some(page) = *cell {
                    let t = sched.pages().get(page).expect("only live pages air");
                    if !moved.iter().any(|m| m.1 == page) {
                        moved.push((t, page, col % t));
                    }
                }
            }
        }
        moved.sort_unstable();
        let free = |grid: &[Vec<Option<PageId>>], ch: usize, y: u64, t: u64| {
            (y..cycle).step_by(t as usize).all(|c| grid[ch][c as usize].is_none())
        };
        let mut kept_columns = Vec::new();
        let mut placed = true;
        for &(t, page, y) in &moved {
            let at = (0..n).find(|&ch| free(&grid, ch, y, t)).map(|ch| (ch, y));
            if at.is_some() {
                kept_columns.push(page);
            }
            let at = at.or_else(|| (0..n).find_map(|ch| (0..t).find(|&y| free(&grid, ch, y, t)).map(|y| (ch, y))));
            let Some((ch, y)) = at else {
                placed = false;
                break;
            };
            for c in (y..cycle).step_by(t as usize) {
                grid[ch][c as usize] = Some(page);
            }
        }
        match sched.relocate(&base, &rows, BaseTrust::Certified { edited: None }) {
            Ok(program) => {
                prop_assert!(placed, "the model found no room");
                assert_valid_for(&program, &sched);
                let cells: Vec<Option<PageId>> = grid.concat();
                prop_assert_eq!(program.cells(), &cells[..]);
                for page in kept_columns {
                    prop_assert_eq!(program.occurrence_columns(page), base.occurrence_columns(page));
                }
            }
            Err(err) => {
                prop_assert!(!placed, "the model placed every page: {:?}", err);
                prop_assert!(matches!(err, ScheduleError::PlacementFailed { .. }));
            }
        }
    }

    /// The invariant the dropped-row walk relies on, checked before the
    /// station relies on it: every program `relocate` accepts, and every
    /// fresh `program_on_channels`, airs each live page as one whole
    /// periodic family of its expected time (`cycle / t` cells, one per
    /// column, `t` apart) and airs nothing else. Each plan here is
    /// derived from the last with one change between them, as the
    /// station's swaps are, so each is a certified base for the next
    /// with the edited page named; and the certified walk, which looks
    /// only at the dropped rows' pages and the edited page, returns
    /// exactly what the full walk returns.
    #[test]
    fn certified_relocations_keep_every_live_page_one_whole_family(
        channels in 2u32..=5,
        pages in prop::collection::vec(0usize..6, 1..30),
        moves in prop::collection::vec(arb_move(), 1..24),
    ) {
        let cycle = RELOCATE_CYCLE;
        let mut sched = OnlineScheduler::new(channels, cycle).expect("valid dimensions");
        for (id, &i) in (0u32..).zip(&pages) {
            let _ = sched.add_page(PageId::new(id), RELOCATE_TIMES[i]);
        }
        let whole = |program: &BroadcastProgram, sched: &OnlineScheduler| {
            for page in program.pages() {
                prop_assert!(sched.pages().contains(page), "{} airs but is not live", page);
            }
            for (page, t) in sched.pages().iter() {
                let cols = program.occurrence_columns(page);
                prop_assert_eq!(cols.len() as u64 * t, cycle, "{}", page);
                prop_assert!(cols.iter().zip(0u64..).all(|(&c, k)| c == cols[0] + k * t), "{}", page);
                prop_assert_eq!(program.occurrences(page).count(), cols.len(), "{}", page);
            }
        };
        let mut up = vec![true; channels as usize];
        // The plan on the air (None: the full plan, the scheduler's own)
        // and the channels whose rows it holds, in order.
        let mut plan: Option<BroadcastProgram> = None;
        let mut plan_up = up.clone();
        for mv in &moves {
            let mut edited = None;
            match mv {
                Move::Lose(k) => {
                    let live: Vec<usize> = (0..up.len()).filter(|&c| up[c]).collect();
                    if live.len() > 1 {
                        up[live[k % live.len()]] = false;
                    }
                }
                Move::Restore(k) => {
                    let down: Vec<usize> = (0..up.len()).filter(|&c| !up[c]).collect();
                    if !down.is_empty() {
                        up[down[k % down.len()]] = true;
                    }
                }
                Move::Publish(page, t) => {
                    let fits = sched.add_page(*page, *t).is_ok() || sched.rebuild_with(&[(*page, *t)]).is_ok();
                    edited = fits.then_some(*page);
                }
                Move::Expire(k) | Move::Retime(k, _) => {
                    let live: Vec<PageId> = sched.pages().iter().map(|(p, _)| p).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let page = live[k % live.len()];
                    sched.remove_page(page).expect("live page");
                    if let Move::Retime(_, t) = mv {
                        if sched.add_page(page, *t).is_err() {
                            let _ = sched.rebuild_with(&[(page, *t)]);
                        }
                    }
                    edited = Some(page);
                }
            }
            whole(sched.program(), &sched);
            let n_up = u32::try_from(up.iter().filter(|&&u| u).count()).unwrap();
            if n_up == channels {
                plan = None;
                plan_up.clone_from(&up);
                continue;
            }
            let base = plan.clone().unwrap_or_else(|| sched.program().clone());
            let mut rank = 0u32;
            let mut rows = Vec::new();
            for (&was, &is) in plan_up.iter().zip(&up) {
                let aired = was.then(|| { rank += 1; rank - 1 });
                if is {
                    rows.push(aired);
                }
            }
            // The full plan is the scheduler's own: no edit to name.
            let edited = if plan.is_some() { edited } else { None };
            plan_up.clone_from(&up);
            let certified = sched.relocate(&base, &rows, BaseTrust::Certified { edited });
            let unchecked = sched.relocate(&base, &rows, BaseTrust::Unchecked);
            prop_assert_eq!(&certified, &unchecked, "{:?}", mv);
            plan = match certified {
                Ok(program) => Some(program),
                Err(_) => sched.program_on_channels(n_up).ok(),
            };
            match &plan {
                Some(program) => whole(program, &sched),
                // Below Theorem 3.1's minimum: start over from the full
                // plan once every channel is back.
                None => {
                    up = vec![true; channels as usize];
                    plan_up.clone_from(&up);
                }
            }
        }
    }

    /// The scheduler's page-indexed catalogue table reads exactly like a
    /// `BTreeMap` kept beside it, through random additions, removals,
    /// rebuilds, snapshot round trips, pages expired and re-published
    /// with another time, and refused ids at or above the limit: the
    /// same pages in id order, length, expected times, Theorem 3.1
    /// minimum and snapshot pages, and a scheduler equal to
    /// its own snapshot's restoration (so trailing expired ids do not
    /// count).
    #[test]
    fn catalogue_table_matches_a_map_model(
        channels in 1u32..=4,
        ops in prop::collection::vec(arb_catalogue_op(), 1..60),
    ) {
        let mut sched = OnlineScheduler::new(channels, FIT_CYCLE).expect("valid dimensions");
        let mut model: BTreeMap<PageId, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                CatalogueOp::Fit(Op::Add(p, t)) => {
                    if sched.add_page(*p, *t).is_ok() {
                        model.insert(*p, *t);
                    }
                }
                CatalogueOp::Fit(Op::Remove(p)) => {
                    prop_assert_eq!(sched.remove_page(*p).is_ok(), model.remove(p).is_some());
                }
                CatalogueOp::Fit(Op::Rebuild) => {
                    let _ = sched.rebuild();
                }
                CatalogueOp::Fit(Op::RebuildWith(pending)) => {
                    if sched.rebuild_with(pending).is_ok() {
                        model.extend(pending.iter().copied());
                    }
                }
                CatalogueOp::Fit(Op::RebuildOnChannels(n)) => {
                    let _ = sched.rebuild_on_channels(*n);
                }
                CatalogueOp::Snapshot => {
                    sched = OnlineScheduler::from_snapshot(&sched.snapshot()).expect("round trip");
                }
                CatalogueOp::Retime(k, t) => {
                    let Some((&page, _)) = model.iter().nth(k % model.len().max(1)) else {
                        continue;
                    };
                    sched.remove_page(page).expect("live page");
                    model.remove(&page);
                    if sched.add_page(page, *t).is_ok() || sched.rebuild_with(&[(page, *t)]).is_ok() {
                        model.insert(page, *t);
                    }
                }
                CatalogueOp::Oversized(k, t) => {
                    let page = PageId::new(PAGE_ID_LIMIT.saturating_add(*k));
                    let before = sched.clone();
                    let too_large = |r: Result<(), ScheduleError>| {
                        matches!(r, Err(ScheduleError::WorkloadTooLarge { .. }))
                    };
                    prop_assert!(too_large(sched.add_page(page, *t)));
                    prop_assert!(too_large(sched.rebuild_with(&[(page, *t)])));
                    let mut snap = sched.snapshot();
                    snap.pages.push((page, *t));
                    prop_assert!(too_large(OnlineScheduler::from_snapshot(&snap).map(|_| ())));
                    prop_assert_eq!(&sched, &before);
                }
            }
            let catalogue = sched.pages();
            let pairs: Vec<(PageId, u64)> = model.iter().map(|(&p, &t)| (p, t)).collect();
            prop_assert_eq!(catalogue.iter().collect::<Vec<_>>(), pairs.clone(), "{:?}", op);
            prop_assert_eq!(catalogue.len(), model.len());
            prop_assert_eq!(catalogue.is_empty(), model.is_empty());
            for id in 0..45 {
                let page = PageId::new(id);
                prop_assert_eq!(catalogue.get(page), model.get(&page).copied(), "{}", page);
                prop_assert_eq!(catalogue.contains(page), model.contains_key(&page));
            }
            let times: Vec<u64> = model.values().copied().collect();
            prop_assert_eq!(catalogue.minimum_channels(), minimum_channels_for_times(&times));
            prop_assert_eq!(&sched.snapshot().pages, &pairs);
            let restored = OnlineScheduler::from_snapshot(&sched.snapshot()).expect("round trip");
            prop_assert_eq!(&restored, &sched, "{:?}", op);
        }
    }

    /// SUSC with surplus channels is still valid.
    #[test]
    fn susc_with_surplus_channels(ladder in arb_ladder(), extra in 1u32..4) {
        let n = minimum_channels(&ladder) + extra;
        let program = susc::schedule(&ladder, n).unwrap();
        prop_assert!(validity::check(&program, &ladder).is_valid());
    }

    /// Divisibility (not a constant ratio) is sufficient for SUSC validity.
    #[test]
    fn susc_on_divisible_ladders(ladder in arb_divisible_ladder()) {
        let (program, _) = susc::schedule_minimum(&ladder).unwrap();
        prop_assert!(validity::check(&program, &ladder).is_valid());
    }

    /// PAMAD always airs every page at least once, never drops an instance,
    /// and its frequencies are non-increasing with a unit tail.
    #[test]
    fn pamad_total_coverage(ladder in arb_ladder(), n in 1u32..6) {
        let outcome = pamad::schedule(&ladder, n).unwrap();
        prop_assert_eq!(outcome.placement_stats().dropped, 0);
        let freqs = outcome.plan().frequencies();
        prop_assert_eq!(*freqs.last().unwrap(), 1);
        for w in freqs.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        for (page, _) in ladder.pages() {
            prop_assert!(outcome.program().frequency(page) >= 1);
        }
    }

    /// PAMAD's program materializes exactly the planned instance count
    /// (frequencies sum * pages), with no same-column duplicates.
    #[test]
    fn pamad_instance_accounting(ladder in arb_ladder(), n in 1u32..6) {
        let outcome = pamad::schedule(&ladder, n).unwrap();
        let planned: u64 = outcome
            .plan()
            .frequencies()
            .iter()
            .zip(ladder.page_counts())
            .map(|(s, p)| s * p)
            .sum();
        prop_assert_eq!(outcome.placement_stats().total(), planned);
        prop_assert_eq!(outcome.program().occupied_slots(), planned);
        let stats = outcome.placement_stats();
        let mut logical = 0u64;
        let mut cells = 0u64;
        for (page, _) in ladder.pages() {
            logical += outcome.program().occurrence_columns(page).len() as u64;
            cells += outcome.program().occurrences(page).count() as u64;
        }
        prop_assert_eq!(cells, planned);
        prop_assert_eq!(cells - logical, stats.duplicated);
    }

    /// With sufficient channels PAMAD's plan achieves a zero analytic
    /// objective (it reproduces the SUSC regime).
    #[test]
    fn pamad_zero_objective_when_sufficient(ladder in arb_ladder()) {
        let n = minimum_channels(&ladder);
        let plan = pamad::derive_frequencies(&ladder, n, Weighting::PaperEq2);
        prop_assert!(plan.final_objective().abs() < 1e-12);
    }

    /// The jointly-searched OPT never loses to the stage-greedy PAMAD on
    /// the shared analytic objective.
    #[test]
    fn opt_dominates_pamad_objective(ladder in arb_ladder(), n in 1u32..6) {
        let best = opt::search_r_structured(&ladder, n, Weighting::PaperEq2);
        let plan = pamad::derive_frequencies(&ladder, n, Weighting::PaperEq2);
        let pamad_obj = group_objective(
            ladder.times(),
            ladder.page_counts(),
            plan.frequencies(),
            n,
            Weighting::PaperEq2,
        );
        prop_assert!(best.objective() <= pamad_obj + 1e-9);
    }

    /// m-PB never drops instances and its cycle matches Equation 8.
    #[test]
    fn mpb_cycle_matches_equation8(ladder in arb_ladder(), n in 1u32..6) {
        let placement = mpb::schedule(&ladder, n).unwrap();
        prop_assert_eq!(placement.stats().dropped, 0);
        let expect = major_cycle(ladder.page_counts(), &mpb::frequencies(&ladder), n);
        prop_assert_eq!(placement.program().cycle_len(), expect);
    }

    /// The analytic program delay is always finite and non-negative, and
    /// zero exactly when validity holds.
    #[test]
    fn program_delay_consistent_with_validity(ladder in arb_ladder(), n in 1u32..6) {
        let outcome = pamad::schedule(&ladder, n).unwrap();
        let d = expected_program_delay(outcome.program(), &ladder).unwrap();
        prop_assert!(d.is_finite() && d >= 0.0);
        let valid = validity::check(outcome.program(), &ladder).is_valid();
        if valid {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    /// Cyclic gaps of every page sum to the cycle length (program invariant).
    #[test]
    fn gaps_partition_the_cycle(ladder in arb_ladder(), n in 1u32..6) {
        let outcome = pamad::schedule(&ladder, n).unwrap();
        for (page, _) in ladder.pages() {
            let gaps = outcome.program().cyclic_gaps(page);
            prop_assert_eq!(
                gaps.sum::<u64>(),
                outcome.program().cycle_len()
            );
        }
    }
}
