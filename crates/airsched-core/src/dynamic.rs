//! Online (incremental) scheduling: keep a valid program while pages come
//! and go.
//!
//! A real broadcast server does not rebuild its program from scratch every
//! time an item is published or expires. [`OnlineScheduler`] maintains a
//! SUSC-structured program (fixed cycle `t_h`, every page periodic with
//! period `t_i` on a single channel) under `add_page` / `remove_page`,
//! preserving the validity invariant at every step.
//!
//! Additions can fail with [`ScheduleError::PlacementFailed`] even when
//! spare capacity exists, because removals fragment the periodic slot
//! structure; [`OnlineScheduler::rebuild`] compacts the program (a fresh
//! SUSC pass over the live pages). This mirrors the classic
//! allocate/fragment/compact lifecycle of any slotted resource manager.
//!
//! # Linear first-fit
//!
//! `add_page` places a page at the first `(channel, offset)` whose whole
//! periodic family is free, scanning channel-major from `(0, 0)`. Scanning
//! from `(0, 0)` every time makes a rebuild quadratic in the grid, so the
//! scheduler keeps one *resume point* per expected time: the `(channel,
//! offset)` where the last search for that period stopped. Between
//! removals cells only fill, so every family before the resume point is
//! still not free and the search lands exactly where a scan from `(0, 0)`
//! would — the paper's §3.2 remark that the search "need not be always
//! starting from the first slot of every channel", made exact for an
//! online grid. `remove_page` frees cells, so it forgets every resume
//! point; a rebuild starts a fresh grid without any.
//!
//! A repack ([`OnlineScheduler::program_on_channels`] and the rebuilds)
//! runs the same first-fit straight into a fresh [`BroadcastProgram`],
//! so it costs the cells it places: no scratch scheduler, no page map.
//! [`crate::susc::schedule`] is that same pass over a ladder's pages, so
//! this first-fit is the one SUSC placement in the library.
//!
//! # Relocation
//!
//! [`OnlineScheduler::relocate`] derives a program from one already on
//! the air instead of packing afresh: it keeps the rows the caller names
//! verbatim, drops every page that lost a cell with a dropped row, is no
//! longer live, or whose frequency × expected time is not the cycle, and
//! places only the live pages left without a place — tightest first.
//! Each goes back on its old columns, on the first row where that
//! periodic family is free, and only a page whose family is taken on
//! every row falls back to the same resumed first-fit. A lost channel
//! then moves the pages of its own row and no others, every surviving
//! page keeps its exact cells, and a moved page keeps its airing
//! instants whenever some row has room for them.
//!
//! # The catalogue table
//!
//! The live pages are one page-indexed table of expected times (0 = not
//! live) plus the number of live pages per distinct time, both kept up
//! to date by every edit. A replan reads them in place
//! ([`OnlineScheduler::pages`]): liveness is an index, and Theorem 3.1's
//! minimum is a fold over the handful of per-time counts.

use crate::bound::minimum_channels_for_groups;
use crate::error::{ScheduleError, PAGE_ID_TOO_LARGE};
use crate::program::BroadcastProgram;
use crate::types::{PageId, PAGE_ID_LIMIT};

/// An incrementally maintained, always-valid broadcast program.
///
/// # Examples
///
/// ```
/// use airsched_core::dynamic::OnlineScheduler;
/// use airsched_core::types::PageId;
///
/// // 2 channels, 8-slot cycle (the largest supported expected time).
/// let mut sched = OnlineScheduler::new(2, 8)?;
/// sched.add_page(PageId::new(0), 2)?; // broadcast every 2 slots
/// sched.add_page(PageId::new(1), 4)?;
/// assert_eq!(sched.program().frequency(PageId::new(0)), 4);
/// sched.remove_page(PageId::new(0))?;
/// assert_eq!(sched.program().frequency(PageId::new(0)), 0);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineScheduler {
    program: BroadcastProgram,
    /// The live catalogue.
    catalogue: CatalogueTable,
    /// Where the last first-fit search for each period stopped.
    fit: FirstFit,
}

/// The live pages: each page's expected time at its id's index, 0 for a
/// page that is not live, with no trailing zeros (so two tables of the
/// same catalogue are equal), and the live pages per distinct expected
/// time, ascending by time, without empty entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CatalogueTable {
    times: Vec<u64>,
    groups: Vec<(u64, u64)>,
}

impl CatalogueTable {
    #[inline]
    fn view(&self) -> Catalogue<'_> {
        Catalogue {
            times: &self.times,
            groups: &self.groups,
        }
    }

    /// Records `page` as live with expected time `t > 0`; the page must
    /// not be live and its id must be below [`PAGE_ID_LIMIT`].
    fn insert(&mut self, page: PageId, t: u64) {
        let p = page.index() as usize;
        if p >= self.times.len() {
            self.times.resize(p + 1, 0);
        }
        debug_assert_eq!(self.times[p], 0, "{page} is already live");
        self.times[p] = t;
        match self.groups.binary_search_by_key(&t, |g| g.0) {
            Ok(at) => self.groups[at].1 += 1,
            Err(at) => self.groups.insert(at, (t, 1)),
        }
    }

    /// Forgets `page`, returning its expected time, or `None` when it was
    /// not live.
    fn remove(&mut self, page: PageId) -> Option<u64> {
        let slot = self.times.get_mut(page.index() as usize)?;
        let t = std::mem::take(slot);
        if t == 0 {
            return None;
        }
        let at = self
            .groups
            .binary_search_by_key(&t, |g| g.0)
            .expect("a live page's time has a group");
        self.groups[at].1 -= 1;
        if self.groups[at].1 == 0 {
            self.groups.remove(at);
        }
        while self.times.last() == Some(&0) {
            self.times.pop();
        }
        Some(t)
    }
}

/// The live catalogue of an [`OnlineScheduler`], read in place: every
/// live page with its expected time, in ascending id order, and Theorem
/// 3.1's minimum from the page count of each distinct time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Catalogue<'a> {
    times: &'a [u64],
    groups: &'a [(u64, u64)],
}

impl<'a> Catalogue<'a> {
    /// The live pages and their expected times, ascending by page id.
    pub fn iter(self) -> impl Iterator<Item = (PageId, u64)> + 'a {
        (0u32..)
            .zip(self.times)
            .filter(|&(_, &t)| t > 0)
            .map(|(p, &t)| (PageId::new(p), t))
    }

    /// Number of live pages.
    #[must_use]
    pub fn len(self) -> usize {
        let n: u64 = self.groups.iter().map(|g| g.1).sum();
        usize::try_from(n).expect("live pages fit in memory")
    }

    /// The live pages per distinct expected time: `(time, pages)`,
    /// ascending by time, with no empty entries.
    #[must_use]
    pub fn groups(self) -> &'a [(u64, u64)] {
        self.groups
    }

    /// Whether no page is live.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.groups.is_empty()
    }

    /// `page`'s expected time, or `None` when it is not live. Inlined
    /// across crates: a station reads it at every subscribe and drain.
    #[inline]
    #[must_use]
    pub fn get(self, page: PageId) -> Option<u64> {
        self.times
            .get(page.index() as usize)
            .copied()
            .filter(|&t| t > 0)
    }

    /// Whether `page` is live.
    #[inline]
    #[must_use]
    pub fn contains(self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// Theorem 3.1's minimum channel count for the live pages, folded
    /// from the per-time counts by [`minimum_channels_for_groups`].
    ///
    /// # Errors
    ///
    /// As [`minimum_channels_for_groups`]: an overflowing fraction.
    pub fn minimum_channels(self) -> Result<u32, ScheduleError> {
        minimum_channels_for_groups(self.groups)
    }
}

/// What [`OnlineScheduler::relocate`] may assume of the program it
/// starts from, and so which pages it looks at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseTrust {
    /// The base airs every page live when it was certified as one whole
    /// periodic family of its expected time, and the catalogue has
    /// changed since at most at `edited`. The scheduler's own program is
    /// one with no edit, and so is a `Reduced` plan that passed the
    /// station's gate since the last catalogue edit. Only the pages on
    /// the dropped rows and `edited` are looked at.
    Certified {
        /// The one page whose catalogue entry may differ from the base.
        edited: Option<PageId>,
    },
    /// Nothing is assumed: every base page and every live page is looked
    /// at.
    Unchecked,
}

/// First-fit resume points, one per expected time: where the last search
/// for that period stopped (see the module docs). A cache, valid only
/// until the next removal. A catalogue has a handful of distinct times,
/// so a linear scan of a small vector beats any map.
#[derive(Debug, Clone, Default)]
pub(crate) struct FirstFit {
    resume: Vec<(u64, (u32, u64))>,
}

impl FirstFit {
    /// Places `page` on the first `(channel, offset)` whose whole periodic
    /// family of period `expected` is free, resuming where the last search
    /// for this period stopped. `false` when no family is free.
    fn place(&mut self, program: &mut BroadcastProgram, page: PageId, expected: u64) -> bool {
        let channels = program.channels();
        let at = match self.resume.iter().position(|&(t, _)| t == expected) {
            Some(at) => at,
            None => {
                self.resume.push((expected, (0, 0)));
                self.resume.len() - 1
            }
        };
        let (first_ch, first_y) = self.resume[at].1;
        let found = (first_ch..channels).find_map(|ch| {
            let from = if ch == first_ch { first_y } else { 0 };
            program
                .first_free_family(ch, from, expected)
                .map(|y| (ch, y))
        });
        self.resume[at].1 = found.unwrap_or((channels, 0));
        if let Some((ch, y)) = found {
            program.place_family(ch, y, expected, page);
        }
        found.is_some()
    }
}

/// Packs `pages`, in the order given, onto a fresh `channels x cycle`
/// grid, each on the first free periodic family of its expected time —
/// SUSC's placement (§3.2, Algorithms 1 and 2). Returns the program and
/// the first-fit state the placement left behind.
///
/// `cycle` must be positive. Callers order the pages tightest expected
/// time first; that order is why placement cannot fail at or above
/// Theorem 3.1's bound (see [`crate::susc`]).
pub(crate) fn first_fit(
    channels: u32,
    cycle: u64,
    pages: impl IntoIterator<Item = (PageId, u64)>,
) -> Result<(BroadcastProgram, FirstFit), ScheduleError> {
    if channels == 0 {
        return Err(ScheduleError::NoChannels);
    }
    let mut program = BroadcastProgram::new(channels, cycle);
    let mut fit = FirstFit::default();
    for (page, t) in pages {
        check_expected(cycle, t)?;
        if program.frequency(page) > 0 {
            return Err(already_scheduled());
        }
        if !fit.place(&mut program, page, t) {
            return Err(ScheduleError::PlacementFailed { page });
        }
    }
    Ok((program, fit))
}

/// Rejects a page id the dense per-page tables must not be sized for.
fn check_id(page: PageId) -> Result<(), ScheduleError> {
    if page.index() >= PAGE_ID_LIMIT {
        return Err(PAGE_ID_TOO_LARGE);
    }
    Ok(())
}

/// Rejects an expected time that cannot be placed periodically in `cycle`.
fn check_expected(cycle: u64, expected: u64) -> Result<(), ScheduleError> {
    if expected == 0 || !cycle.is_multiple_of(expected) {
        return Err(ScheduleError::InvalidFrequencies {
            reason: "expected time must divide the cycle length",
        });
    }
    Ok(())
}

fn already_scheduled() -> ScheduleError {
    ScheduleError::InvalidFrequencies {
        reason: "page id is already scheduled",
    }
}

/// Equality is the grid and the live pages; the resume points are a
/// cache that never changes where a page lands.
impl PartialEq for OnlineScheduler {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program && self.catalogue == other.catalogue
    }
}

impl OnlineScheduler {
    /// Creates an empty scheduler with `channels` channels and a cycle of
    /// `max_time` slots (the largest expected time it will accept).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoChannels`] if `channels == 0`, or
    /// [`ScheduleError::InvalidFrequencies`] if `max_time == 0`.
    pub fn new(channels: u32, max_time: u64) -> Result<Self, ScheduleError> {
        if channels == 0 {
            return Err(ScheduleError::NoChannels);
        }
        if max_time == 0 {
            return Err(ScheduleError::InvalidFrequencies {
                reason: "cycle length must be positive",
            });
        }
        Ok(Self {
            program: BroadcastProgram::new(channels, max_time),
            catalogue: CatalogueTable::default(),
            fit: FirstFit::default(),
        })
    }

    /// The current program (always valid for the live pages).
    #[must_use]
    pub fn program(&self) -> &BroadcastProgram {
        &self.program
    }

    /// The live pages and their expected times, read in place.
    #[must_use]
    pub fn pages(&self) -> Catalogue<'_> {
        self.catalogue.view()
    }

    /// Fraction of grid cells in use.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.program.utilization()
    }

    /// Adds `page` with expected time `expected`, placing it periodically
    /// (every `expected` slots on one channel, SUSC-style).
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidFrequencies`] if `expected` is zero, does
    ///   not divide the cycle, or the page id is already live.
    /// * [`ScheduleError::WorkloadTooLarge`] if the page id is at or above
    ///   [`PAGE_ID_LIMIT`].
    /// * [`ScheduleError::PlacementFailed`] if no periodic slot family is
    ///   free — retry after [`OnlineScheduler::rebuild`], or treat as
    ///   capacity exhaustion if that also fails.
    pub fn add_page(&mut self, page: PageId, expected: u64) -> Result<(), ScheduleError> {
        check_id(page)?;
        check_expected(self.program.cycle_len(), expected)?;
        if self.pages().contains(page) {
            return Err(already_scheduled());
        }
        if !self.fit.place(&mut self.program, page, expected) {
            return Err(ScheduleError::PlacementFailed { page });
        }
        self.catalogue.insert(page, expected);
        Ok(())
    }

    /// Removes `page`, freeing its slots.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidFrequencies`] if the page is not
    /// live.
    pub fn remove_page(&mut self, page: PageId) -> Result<(), ScheduleError> {
        if self.catalogue.remove(page).is_none() {
            return Err(ScheduleError::InvalidFrequencies {
                reason: "page is not scheduled",
            });
        }
        self.program.clear_page(page);
        // Freed cells can open families before any resume point.
        self.fit = FirstFit::default();
        Ok(())
    }

    /// Compacts the program: re-places every live page from scratch
    /// (tightest expected times first, as SUSC does). Restores the
    /// placement guarantees after fragmentation from removals.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::PlacementFailed`] if even a fresh pass
    /// cannot fit the live pages (true capacity exhaustion).
    pub fn rebuild(&mut self) -> Result<(), ScheduleError> {
        self.rebuild_with(&[])
    }

    /// Compacts the program while admitting `pending` new pages in the
    /// same pass, so tight-deadline newcomers are ordered correctly among
    /// the survivors (SUSC's validity argument needs tightest-first
    /// insertion — a plain [`OnlineScheduler::rebuild`] followed by
    /// [`OnlineScheduler::add_page`] of a *tighter* page can still fail).
    ///
    /// On failure the scheduler is left unchanged.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidFrequencies`] if a pending page is
    ///   malformed (zero/non-dividing time, or a duplicate id).
    /// * [`ScheduleError::WorkloadTooLarge`] if a pending page id is at or
    ///   above [`PAGE_ID_LIMIT`].
    /// * [`ScheduleError::PlacementFailed`] on true capacity exhaustion.
    pub fn rebuild_with(&mut self, pending: &[(PageId, u64)]) -> Result<(), ScheduleError> {
        for &(page, _) in pending {
            check_id(page)?;
        }
        self.rebuild_onto(self.program.channels(), pending)
    }

    /// Re-packs the live pages onto a *different* channel count — the SUSC
    /// rung of the fault-tolerance ladder. Shrinking to the surviving
    /// channels succeeds exactly when the survivors still satisfy
    /// Theorem 3.1 for the live catalogue (plus packing granularity);
    /// growing back on recovery always succeeds.
    ///
    /// On failure the scheduler is left unchanged, so callers can probe
    /// ("would the live set fit on `n` channels?") and fall back to PAMAD
    /// ([`crate::degrade::replan`]) when the answer is no.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::NoChannels`] if `channels == 0`.
    /// * [`ScheduleError::PlacementFailed`] if the live pages do not fit.
    pub fn rebuild_on_channels(&mut self, channels: u32) -> Result<(), ScheduleError> {
        self.rebuild_onto(channels, &[])
    }

    /// The program [`OnlineScheduler::rebuild_on_channels`] would install,
    /// leaving this scheduler untouched — the ladder's repack probe.
    ///
    /// # Errors
    ///
    /// As [`OnlineScheduler::rebuild_on_channels`].
    pub fn program_on_channels(&self, channels: u32) -> Result<BroadcastProgram, ScheduleError> {
        Ok(self.pack(channels, &[])?.0)
    }

    /// The live pages placed on `rows.len()` channels starting from
    /// `base`, a valid program already on the air: row `i` of the result
    /// is `base` row `rows[i]`, or an empty row for `None` (a restored
    /// channel). A page keeps its exact cells unless it lost a cell with
    /// a dropped row, is no longer live, or its frequency × expected
    /// time is not the cycle; every other live page is placed, tightest
    /// expected time first, ascending id within a time. This scheduler
    /// is untouched.
    ///
    /// A page to place keeps its airing columns when it can: its offset
    /// `y` is its first column in `base` when its base columns are the
    /// family `y, y + t, …` of its expected time `t`, else its first
    /// column in this scheduler's own program (a page published or
    /// retimed since `base` was derived). It goes on the first row whose
    /// family `y, y + t, …` is wholly free, and first-fits only when no
    /// row has it. A client receives from any channel, so a page that
    /// keeps its columns airs at exactly the instants it did: a client
    /// who tuned in before the swap still gets it within `t` (DESIGN §6).
    ///
    /// A page that keeps its columns only changes rows: its column run
    /// and cell count are carried over from `base` as they are, and only
    /// its cells are cleared and written. The pages that leave the table
    /// are the dropped ones and those that are placed afresh.
    ///
    /// `trust` says which pages may have to move. With
    /// [`BaseTrust::Certified`] they are the pages met by one scan of the
    /// dropped rows, plus the edited page: a certified base airs every
    /// live page as one whole periodic family on its rows, so no other
    /// page can have lost its place. With [`BaseTrust::Unchecked`] every
    /// base page is walked, its liveness read from the catalogue table
    /// by index. A kept page is trusted to be one periodic family
    /// because `base` is valid: with every gap at most `t` and `cycle /
    /// t` occurrences, the gaps are all exactly `t`. The station's
    /// pre-swap gate lints every candidate, relocated or not.
    ///
    /// The ladder's cheap rung: a channel loss moves only the lost row's
    /// pages, and a catalogue edit places only the new page. A
    /// [`ScheduleError::PlacementFailed`] asks for a fresh
    /// [`OnlineScheduler::program_on_channels`] instead.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::NoChannels`] if `rows` is empty.
    /// * [`ScheduleError::InvalidFrequencies`] if `base`'s cycle differs
    ///   from this scheduler's, or the kept rows are out of range or do
    ///   not strictly ascend.
    /// * [`ScheduleError::PlacementFailed`] if a page left without a place
    ///   finds no free periodic family.
    pub fn relocate(
        &self,
        base: &BroadcastProgram,
        rows: &[Option<u32>],
        trust: BaseTrust,
    ) -> Result<BroadcastProgram, ScheduleError> {
        if rows.is_empty() {
            return Err(ScheduleError::NoChannels);
        }
        let cycle = self.program.cycle_len();
        if base.cycle_len() != cycle {
            return Err(ScheduleError::InvalidFrequencies {
                reason: "relocation base has a different cycle",
            });
        }
        let mut kept = vec![false; base.channels() as usize];
        let mut last = None;
        for &from in rows.iter().flatten() {
            if from >= base.channels() || last.is_some_and(|l| from <= l) {
                return Err(ScheduleError::InvalidFrequencies {
                    reason: "kept rows must be in range and strictly ascend",
                });
            }
            kept[from as usize] = true;
            last = Some(from);
        }
        // One scan of the dropped rows counts the cells each page loses
        // with them.
        let catalogue = self.pages();
        let mut lost = vec![0u32; self.catalogue.times.len()];
        let width = usize::try_from(cycle).expect("a row is no longer than the grid");
        for (row, _) in base.cells().chunks(width).zip(&kept).filter(|&(_, &k)| !k) {
            for &page in row.iter().flatten() {
                let p = page.index() as usize;
                if lost.len() <= p {
                    lost.resize(p + 1, 0);
                }
                lost[p] += 1;
            }
        }
        let lost_by = |page: PageId| lost.get(page.index() as usize).copied().unwrap_or(0);
        // The pages that may lose their place, in id order: under a
        // certified base those the scan met and the edited page, else
        // every base page and every live page.
        let looked: Vec<PageId> = match trust {
            BaseTrust::Certified { edited } => {
                let mut met: Vec<PageId> = (0u32..)
                    .zip(&lost)
                    .filter(|&(_, &n)| n > 0)
                    .map(|(p, _)| PageId::new(p))
                    .collect();
                if let Some(edited) = edited {
                    if let Err(at) = met.binary_search(&edited) {
                        met.insert(at, edited);
                    }
                }
                met
            }
            BaseTrust::Unchecked => {
                let mut on_air = base.pages().peekable();
                let mut live = catalogue.iter().map(|(p, _)| p).peekable();
                std::iter::from_fn(|| {
                    let next = match (on_air.peek(), live.peek()) {
                        (Some(&a), Some(&b)) => a.min(b),
                        (a, b) => *a.or(b)?,
                    };
                    on_air.next_if_eq(&next);
                    live.next_if_eq(&next);
                    Some(next)
                })
                .collect()
            }
        };
        // A base page keeps its place when it is live, whole (frequency
        // × t is the cycle) and lost no cell. A live page without a
        // place is missing. One whose base cells are a whole family of
        // its time keeps its table entry, to move rows at the same
        // columns; every other base page leaves the table. Every such
        // page's cells come off the kept rows.
        let (mut cut, mut stranded, mut emptied, mut missing) = (vec![], vec![], vec![], vec![]);
        let mut room = 0;
        for page in looked {
            let t = catalogue.get(page);
            let (frequency, cells, lost) =
                (base.frequency(page), base.cell_count(page), lost_by(page));
            if frequency > 0 && lost == 0 && t.is_some_and(|t| frequency * t == cycle) {
                continue;
            }
            let offset = t.and_then(|t| base.family_offset(page, t));
            let keep = offset.is_some() && u64::from(cells) == frequency;
            match (keep, lost < cells) {
                (true, true) => emptied.push(page),
                (false, true) => {
                    cut.push(page);
                    stranded.push(page);
                }
                (false, false) if frequency > 0 => cut.push(page),
                _ => {}
            }
            if let Some(t) = t {
                room += cycle / t;
                missing.push((page, t, offset, keep));
            }
        }
        let room = usize::try_from(room).expect("the catalogue's cells fit in memory");
        let mut program = base.with_rows(rows, &cut, &stranded, room);
        for page in emptied {
            program.clear_cells(page);
        }
        // Tightest first, ascending id within a time: one pass per
        // distinct time over the id-ordered list. Cells only fill from
        // here on, so one fresh set of resume points finds exactly what
        // a scan from (0, 0) would.
        let mut fit = FirstFit::default();
        for &(time, _) in catalogue.groups() {
            for &(page, t, offset, keep) in missing.iter().filter(|m| m.1 == time) {
                let own = || self.program.occurrence_columns(page).first().copied();
                let free = offset.or_else(own).filter(|&y| y < t).and_then(|y| {
                    let ch = (0..program.channels()).find(|&ch| program.family_is_free(ch, y, t));
                    ch.map(|ch| (ch, y))
                });
                match free {
                    Some((ch, y)) if keep => program.refill_family(ch, y, t, page),
                    Some((ch, y)) => program.place_family(ch, y, t, page),
                    None => {
                        // A kept entry whose family is taken on every row
                        // leaves the table; the page first-fits afresh.
                        program.clear_page(page);
                        if !fit.place(&mut program, page, t) {
                            return Err(ScheduleError::PlacementFailed { page });
                        }
                    }
                }
            }
        }
        Ok(program)
    }

    /// Captures the scheduler's exact state — the grid cell by cell plus
    /// the live-page map — for checkpointing.
    ///
    /// The grid itself is serialized (rather than the page list) because
    /// placement is insertion-order dependent: re-adding the same pages in
    /// a different order can produce a different (equally valid) layout,
    /// which would break the bit-identical replay contract.
    #[must_use]
    pub fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            channels: self.program.channels(),
            cycle: self.program.cycle_len(),
            grid: self.program.cells().to_vec(),
            pages: self.pages().iter().collect(),
        }
    }

    /// Rebuilds a scheduler from a snapshot taken by [`Self::snapshot`],
    /// reproducing the exact same grid.
    ///
    /// # Errors
    ///
    /// * As [`BroadcastProgram::from_cells`]: malformed or oversized
    ///   dimensions, or a grid whose length does not match them (a
    ///   corrupt snapshot).
    /// * [`ScheduleError::WorkloadTooLarge`] if a page id is at or above
    ///   [`PAGE_ID_LIMIT`].
    /// * [`ScheduleError::InvalidFrequencies`] if a page's expected time
    ///   is zero or does not divide the cycle, a page id repeats, or the
    ///   grid breaks the invariant every edit keeps: a live page whose
    ///   frequency × expected time is not the cycle or with a cyclic gap
    ///   above its expected time, or a cell naming a page that is not
    ///   live.
    pub fn from_snapshot(snapshot: &SchedulerSnapshot) -> Result<Self, ScheduleError> {
        let program =
            BroadcastProgram::from_cells(snapshot.channels, snapshot.cycle, &snapshot.grid)?;
        let mut catalogue = CatalogueTable::default();
        for &(page, t) in &snapshot.pages {
            check_id(page)?;
            check_expected(snapshot.cycle, t)?;
            if catalogue.view().contains(page) {
                return Err(already_scheduled());
            }
            catalogue.insert(page, t);
        }
        // The invariant every other edit keeps: each live page airs as
        // one periodic family of its expected time, and nothing else airs.
        let view = catalogue.view();
        if program.pages().any(|page| !view.contains(page)) {
            return Err(ScheduleError::InvalidFrequencies {
                reason: "snapshot grid airs a page that is not live",
            });
        }
        let whole = |(page, t): (PageId, u64)| {
            program.frequency(page) * t == snapshot.cycle
                && program.cyclic_gaps(page).all(|g| g <= t)
        };
        if !view.iter().all(whole) {
            return Err(ScheduleError::InvalidFrequencies {
                reason: "snapshot grid does not air a live page every expected time",
            });
        }
        Ok(Self {
            program,
            catalogue,
            fit: FirstFit::default(),
        })
    }

    /// Installs a fresh packing of the live pages plus `pending`; on
    /// failure `self` is untouched.
    fn rebuild_onto(
        &mut self,
        channels: u32,
        pending: &[(PageId, u64)],
    ) -> Result<(), ScheduleError> {
        (self.program, self.fit) = self.pack(channels, pending)?;
        for &(page, t) in pending {
            self.catalogue.insert(page, t);
        }
        Ok(())
    }

    /// A fresh program holding the live pages plus `pending` on
    /// `channels`, placed tightest-first as SUSC does, with the first-fit
    /// state the placement left behind.
    fn pack(
        &self,
        channels: u32,
        pending: &[(PageId, u64)],
    ) -> Result<(BroadcastProgram, FirstFit), ScheduleError> {
        let mut order: Vec<(PageId, u64)> = self.pages().iter().collect();
        order.extend_from_slice(pending);
        order.sort_unstable_by_key(|&(p, t)| (t, p));
        first_fit(channels, self.program.cycle_len(), order)
    }
}

/// The full state of an [`OnlineScheduler`], cell-exact, as captured by
/// [`OnlineScheduler::snapshot`] for the crash-recovery checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Channel count of the grid.
    pub channels: u32,
    /// Cycle length of the grid.
    pub cycle: u64,
    /// Every grid cell in channel-major order (`ch * cycle + slot`).
    pub grid: Vec<Option<PageId>>,
    /// The live pages and their expected times, sorted by page id.
    pub pages: Vec<(PageId, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupLadder;
    use crate::validity;

    /// Checks the invariant against a synthesized ladder for the live set.
    fn assert_valid(sched: &OnlineScheduler) {
        for (page, t) in sched.pages().iter() {
            let gaps: Vec<u64> = sched.program().cyclic_gaps(page).collect();
            assert!(!gaps.is_empty(), "{page} missing");
            assert!(gaps.iter().all(|&g| g <= t), "{page} (t={t}) gaps {gaps:?}");
        }
    }

    #[test]
    fn add_and_remove_preserve_validity() {
        let mut sched = OnlineScheduler::new(2, 8).unwrap();
        sched.add_page(PageId::new(0), 2).unwrap();
        sched.add_page(PageId::new(1), 4).unwrap();
        sched.add_page(PageId::new(2), 8).unwrap();
        assert_valid(&sched);
        sched.remove_page(PageId::new(1)).unwrap();
        assert_valid(&sched);
        assert_eq!(sched.program().frequency(PageId::new(1)), 0);
        sched.add_page(PageId::new(3), 4).unwrap();
        assert_valid(&sched);
    }

    #[test]
    fn fills_to_capacity_then_fails() {
        // 1 channel, cycle 4: capacity for exactly two t=2 pages.
        let mut sched = OnlineScheduler::new(1, 4).unwrap();
        sched.add_page(PageId::new(0), 2).unwrap();
        sched.add_page(PageId::new(1), 2).unwrap();
        assert_eq!(sched.utilization(), 1.0);
        assert!(matches!(
            sched.add_page(PageId::new(2), 2),
            Err(ScheduleError::PlacementFailed { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut sched = OnlineScheduler::new(1, 8).unwrap();
        assert!(sched.add_page(PageId::new(0), 3).is_err()); // 3 does not divide 8
        assert!(sched.add_page(PageId::new(0), 0).is_err());
        sched.add_page(PageId::new(0), 8).unwrap();
        assert!(sched.add_page(PageId::new(0), 4).is_err()); // duplicate id
        assert!(sched.remove_page(PageId::new(9)).is_err());
        assert!(OnlineScheduler::new(0, 8).is_err());
        assert!(OnlineScheduler::new(1, 0).is_err());
    }

    #[test]
    fn page_ids_at_the_limit_are_refused() {
        let mut sched = OnlineScheduler::new(1, 8).unwrap();
        for id in [PAGE_ID_LIMIT, u32::MAX] {
            let page = PageId::new(id);
            assert_eq!(sched.add_page(page, 8), Err(PAGE_ID_TOO_LARGE));
            assert_eq!(sched.rebuild_with(&[(page, 8)]), Err(PAGE_ID_TOO_LARGE));
            let mut cells = vec![None; 8];
            cells[3] = Some(page);
            assert_eq!(
                BroadcastProgram::from_cells(1, 8, &cells),
                Err(PAGE_ID_TOO_LARGE)
            );
        }
        assert!(sched.pages().is_empty());
    }

    #[test]
    fn relocation_keeps_rows_and_places_only_the_missing() {
        // Four t=4 pages fill channel 0, four more channel 1.
        let mut sched = OnlineScheduler::new(3, 8).unwrap();
        for p in 0..8 {
            sched.add_page(PageId::new(p), 4).unwrap();
        }
        let base = sched.program().clone();
        // Channel 0 is lost: channel 1 becomes row 0 verbatim, and the
        // lost row's pages land on channel 2, now row 1.
        let certified = BaseTrust::Certified { edited: None };
        let moved = sched
            .relocate(&base, &[Some(1), Some(2)], certified)
            .unwrap();
        let cols = 8;
        assert_eq!(&moved.cells()[..cols], &base.cells()[cols..2 * cols]);
        assert_eq!(&moved.cells()[cols..], &base.cells()[..cols]);
        // A restored channel gets an empty row, where a new page goes on
        // its column in the scheduler's own program (column 1, freed by
        // the expired page 5); an expired page is cleared.
        sched.remove_page(PageId::new(5)).unwrap();
        sched.add_page(PageId::new(9), 8).unwrap();
        assert_eq!(sched.program().occurrence_columns(PageId::new(9)), [1]);
        let grown = sched
            .relocate(&moved, &[None, Some(0), Some(1)], BaseTrust::Unchecked)
            .unwrap();
        let mut restored = vec![None; cols];
        restored[1] = Some(PageId::new(9));
        assert_eq!(&grown.cells()[..cols], &restored[..]);
        assert_eq!(grown.frequency(PageId::new(5)), 0);
        assert_eq!(grown.frequency(PageId::new(9)), 1);
        for p in [0, 1, 2, 3, 4, 6, 7] {
            let page = PageId::new(p);
            let was: Vec<u64> = moved.occurrences(page).map(|c| c.slot.index()).collect();
            let now: Vec<u64> = grown.occurrences(page).map(|c| c.slot.index()).collect();
            assert_eq!(now, was, "{page}");
        }
        // No room: the caller packs afresh.
        assert!(matches!(
            sched.relocate(&base, &[Some(0)], certified),
            Err(ScheduleError::PlacementFailed { .. })
        ));
        assert!(sched
            .relocate(&base, &[Some(1), Some(0)], certified)
            .is_err());
        assert!(sched.relocate(&base, &[Some(3)], certified).is_err());
        assert_eq!(
            sched.relocate(&base, &[], certified),
            Err(ScheduleError::NoChannels)
        );
    }

    #[test]
    fn fragmentation_then_rebuild() {
        // 1 channel, cycle 4. Fill with t=4 pages at offsets 0..3, remove
        // two non-adjacent ones, then a t=2 page needs offsets {y, y+2}
        // free simultaneously.
        let mut sched = OnlineScheduler::new(1, 4).unwrap();
        for i in 0..4 {
            sched.add_page(PageId::new(i), 4).unwrap();
        }
        sched.remove_page(PageId::new(0)).unwrap(); // frees slot 0
        sched.remove_page(PageId::new(3)).unwrap(); // frees slot 3
                                                    // Slots 0 and 3 are free but a t=2 page needs {0,2} or {1,3}.
        assert!(matches!(
            sched.add_page(PageId::new(9), 2),
            Err(ScheduleError::PlacementFailed { .. })
        ));
        // Compacting *with* the newcomer orders it tightest-first and fits.
        sched.rebuild_with(&[(PageId::new(9), 2)]).unwrap();
        assert_eq!(sched.program().frequency(PageId::new(9)), 2);
        assert_valid(&sched);
    }

    #[test]
    fn rebuild_with_rolls_back_on_overflow() {
        let mut sched = OnlineScheduler::new(1, 4).unwrap();
        sched.add_page(PageId::new(0), 2).unwrap();
        sched.add_page(PageId::new(1), 2).unwrap();
        let before = sched.clone();
        // No room for a third t=2 page even after compaction.
        assert!(sched.rebuild_with(&[(PageId::new(2), 2)]).is_err());
        assert_eq!(sched, before);
    }

    #[test]
    fn rebuild_failure_rolls_back() {
        let mut sched = OnlineScheduler::new(1, 4).unwrap();
        sched.add_page(PageId::new(0), 2).unwrap();
        sched.add_page(PageId::new(1), 2).unwrap();
        let before = sched.clone();
        // Rebuild of a full, feasible layout succeeds and is equivalent.
        sched.rebuild().unwrap();
        assert_eq!(sched.pages(), before.pages());
        assert_valid(&sched);
    }

    #[test]
    fn rebuild_on_channels_shrinks_and_grows() {
        // Live set: 2 pages at t=2, 2 at t=4 -> demand 1.5, minimum 2.
        let mut sched = OnlineScheduler::new(3, 8).unwrap();
        sched.add_page(PageId::new(0), 2).unwrap();
        sched.add_page(PageId::new(1), 2).unwrap();
        sched.add_page(PageId::new(2), 4).unwrap();
        sched.add_page(PageId::new(3), 4).unwrap();

        // Shrink to the minimum: still valid.
        sched.rebuild_on_channels(2).unwrap();
        assert_eq!(sched.program().channels(), 2);
        assert_valid(&sched);

        // Below the minimum: refused, state unchanged.
        let before = sched.clone();
        assert!(matches!(
            sched.rebuild_on_channels(1),
            Err(ScheduleError::PlacementFailed { .. })
        ));
        assert_eq!(sched, before);

        // Grow back: always fits.
        sched.rebuild_on_channels(3).unwrap();
        assert_eq!(sched.program().channels(), 3);
        assert_valid(&sched);

        assert!(matches!(
            sched.rebuild_on_channels(0),
            Err(ScheduleError::NoChannels)
        ));
    }

    #[test]
    fn snapshot_round_trips_the_exact_grid() {
        let mut sched = OnlineScheduler::new(2, 8).unwrap();
        sched.add_page(PageId::new(0), 2).unwrap();
        sched.add_page(PageId::new(1), 4).unwrap();
        sched.add_page(PageId::new(2), 8).unwrap();
        // Fragment the layout so insertion order would matter.
        sched.remove_page(PageId::new(1)).unwrap();
        sched.add_page(PageId::new(3), 8).unwrap();
        let snap = sched.snapshot();
        let restored = OnlineScheduler::from_snapshot(&snap).unwrap();
        assert_eq!(restored, sched);
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let sched = OnlineScheduler::new(1, 4).unwrap();
        let mut snap = sched.snapshot();
        snap.grid.pop();
        assert!(OnlineScheduler::from_snapshot(&snap).is_err());
        let mut snap = sched.snapshot();
        snap.channels = 0;
        assert!(OnlineScheduler::from_snapshot(&snap).is_err());
        let mut snap = sched.snapshot();
        snap.cycle = 0;
        snap.grid.clear();
        assert!(OnlineScheduler::from_snapshot(&snap).is_err());
        // Grids that break the invariant: page 0 (t = 4) airs at slots 0
        // and 4 of 8.
        let mut sched = OnlineScheduler::new(1, 8).unwrap();
        sched.add_page(PageId::new(0), 4).unwrap();
        assert_eq!(sched.program().occurrence_columns(PageId::new(0)), [0, 4]);
        let forgeries: [fn(&mut SchedulerSnapshot); 3] = [
            // A live page that lost a cell: one occurrence, a gap of 8.
            |snap| snap.grid[4] = None,
            // Both cells, but one slot apart: gaps 1 and 7.
            |snap| snap.grid.swap(4, 1),
            // A cell naming a page that is not live.
            |snap| snap.grid[1] = Some(PageId::new(1)),
        ];
        for forge in forgeries {
            let mut snap = sched.snapshot();
            forge(&mut snap);
            assert!(matches!(
                OnlineScheduler::from_snapshot(&snap),
                Err(ScheduleError::InvalidFrequencies { .. })
            ));
        }
    }

    #[test]
    fn overflowing_snapshot_dimensions_are_an_error() {
        // 2 x 2^63 cells wraps to 0 in a 64-bit product, which an empty
        // grid would match.
        let snap = SchedulerSnapshot {
            channels: 2,
            cycle: 1 << 63,
            grid: Vec::new(),
            pages: Vec::new(),
        };
        assert!(matches!(
            OnlineScheduler::from_snapshot(&snap),
            Err(ScheduleError::WorkloadTooLarge { .. })
        ));
    }

    #[test]
    fn matches_susc_for_a_full_ladder() {
        // Adding a whole ladder page-by-page (tightest first) reproduces a
        // valid SUSC-style program at the minimum channel count.
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        let mut sched = OnlineScheduler::new(2, ladder.max_time()).unwrap();
        for (page, group) in ladder.pages() {
            sched.add_page(page, ladder.time_of(group).slots()).unwrap();
        }
        let report = validity::check(sched.program(), &ladder);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn interleaved_workload_stays_valid() {
        let mut sched = OnlineScheduler::new(3, 16).unwrap();
        let mut next_id = 0u32;
        // Add/remove churn.
        for round in 0..6 {
            for &t in &[2u64, 4, 8, 16] {
                let page = PageId::new(next_id);
                next_id += 1;
                if sched.add_page(page, t).is_err() {
                    let _ = sched.rebuild();
                    let _ = sched.add_page(page, t);
                }
            }
            if round % 2 == 0 && !sched.pages().is_empty() {
                let (victim, _) = sched.pages().iter().next().unwrap();
                sched.remove_page(victim).unwrap();
            }
            assert_valid(&sched);
        }
    }
}
