//! The broadcast program `B`: an `N x t_major` grid of page slots that the
//! server transmits cyclically, one column per time slot, all channels in
//! parallel.
//!
//! Semantics used throughout the crate:
//!
//! * The program repeats forever with period [`BroadcastProgram::cycle_len`].
//! * A client that wants page `p` and tunes in at (continuous or discrete)
//!   time `a` receives `p` at the end of the first slot at or after `a` whose
//!   column contains `p` **on any channel** — clients are assumed to know the
//!   schedule (via an index channel) and tune to the right channel.

use core::fmt;

use crate::error::{ScheduleError, PAGE_ID_TOO_LARGE};
use crate::types::{ChannelId, GridPos, PageId, SlotIndex, PAGE_ID_LIMIT};

use rows::Rows;

/// The first absolute slot `s >= from` congruent to one of the sorted cycle
/// columns `cols`, or `None` when `cols` is empty. The kernel behind
/// [`BroadcastProgram::next_broadcast`] and [`BroadcastProgram::wait_from`].
#[must_use]
pub fn next_in_columns(cols: &[u64], cycle: u64, from: u64) -> Option<u64> {
    if cols.is_empty() {
        return None;
    }
    let a = from % cycle;
    let idx = cols.partition_point(|&c| c < a);
    if idx < cols.len() {
        Some(from + (cols[idx] - a))
    } else {
        Some(from + (cycle - a) + cols[0])
    }
}

/// The cyclic inter-occurrence gaps over sorted columns `cols` (including the
/// wrap-around gap), summing to `cycle`. Empty when `cols` is empty.
pub fn cyclic_gaps_over(cols: &[u64], cycle: u64) -> impl Iterator<Item = u64> + '_ {
    let n = cols.len();
    (0..n).map(move |i| {
        if i + 1 < n {
            cols[i + 1] - cols[i]
        } else {
            cycle - cols[n - 1] + cols[0]
        }
    })
}

/// A rectangular, cyclic broadcast schedule.
///
/// # Examples
///
/// ```
/// use airsched_core::program::BroadcastProgram;
/// use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
///
/// let mut program = BroadcastProgram::new(2, 4);
/// let pos = GridPos::new(ChannelId::new(0), SlotIndex::new(1));
/// program.place(pos, PageId::new(7))?;
/// assert_eq!(program.page_at(pos), Some(PageId::new(7)));
/// assert_eq!(program.occupied_slots(), 1);
/// # Ok::<(), airsched_core::program::SlotOccupied>(())
/// ```
#[derive(Debug, Clone)]
pub struct BroadcastProgram {
    channels: u32,
    cycle_len: u64,
    /// The cells, row-major (`cells()[channel * cycle_len + slot]`), and
    /// one version per row.
    rows: Rows,
    /// Columns (deduplicated, sorted) in which each page appears, keyed
    /// densely by `PageId::index()` — page ids are dense by construction
    /// ([`crate::group::GroupLadder`] numbers them contiguously from 0), so
    /// a direct table beats a map on every lookup the hot paths make
    /// (`occurrence_columns`, `wait_from`, validity sweeps). A never-placed
    /// page has an empty span.
    columns: SpanArena<u64>,
    /// How many cells hold each page (same dense keying): its column
    /// count, plus one for every extra channel it airs on in a column.
    /// The cells themselves are read off the grid at the page's columns.
    cell_counts: Vec<u32>,
}

/// Equality is the dimensions and the grid: the column table and the
/// cell counts are functions of the grid, and the arena layout depends
/// on placement order, so comparing them would add cost and no
/// information. Row versions are not compared either: two programs
/// built apart have distinct versions for equal rows.
impl PartialEq for BroadcastProgram {
    fn eq(&self, other: &Self) -> bool {
        self.channels == other.channels
            && self.cycle_len == other.cycle_len
            && self.rows.cells() == other.rows.cells()
    }
}

/// The grid's cells and a version per row. A row's cells change only
/// through [`Rows::write`], which gives the row a fresh version drawn
/// from one process-wide counter, and a copy keeps the versions of the
/// rows it copies. So two rows with equal versions, in one program or
/// in two, hold equal cells, and the rows that differ between a program
/// and one derived from it are found by one comparison per row
/// (DESIGN §8.5).
mod rows {
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::types::PageId;

    /// The next row version no row has held. Starts at 1, so 0 is never
    /// a row's version.
    static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

    /// A version no row has held. `Relaxed`: the counter publishes no
    /// other data, and uniqueness needs only the atomic increment.
    fn fresh_version() -> u64 {
        NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
    }

    #[derive(Debug, Clone)]
    pub(super) struct Rows {
        width: usize,
        cells: Vec<Option<PageId>>,
        versions: Vec<u64>,
    }

    impl Rows {
        /// `rows` empty rows of `width` cells.
        pub(super) fn new(rows: usize, width: usize) -> Self {
            Self {
                width,
                cells: vec![None; rows * width],
                versions: (0..rows).map(|_| fresh_version()).collect(),
            }
        }

        pub(super) fn cells(&self) -> &[Option<PageId>] {
            &self.cells
        }

        pub(super) fn row(&self, ch: usize) -> &[Option<PageId>] {
            &self.cells[ch * self.width..(ch + 1) * self.width]
        }

        pub(super) fn version(&self, ch: usize) -> u64 {
            self.versions[ch]
        }

        /// Row `ch` to write, under a fresh version: the one way to
        /// change cells.
        pub(super) fn write(&mut self, ch: usize) -> &mut [Option<PageId>] {
            self.versions[ch] = fresh_version();
            &mut self.cells[ch * self.width..(ch + 1) * self.width]
        }

        /// Row `i` is this grid's row `from[i]`, version and all, or a
        /// new empty row for `None`.
        pub(super) fn select(&self, from: &[Option<u32>]) -> Self {
            let mut cells = Vec::with_capacity(from.len() * self.width);
            let mut versions = Vec::with_capacity(from.len());
            for &from in from {
                match from {
                    Some(from) => {
                        cells.extend_from_slice(self.row(from as usize));
                        versions.push(self.versions[from as usize]);
                    }
                    None => {
                        cells.resize(cells.len() + self.width, None);
                        versions.push(fresh_version());
                    }
                }
            }
            Self {
                width: self.width,
                cells,
                versions,
            }
        }

        /// Frees `page`'s cells, looking only at its columns `cols`:
        /// only the rows that held it are written.
        pub(super) fn clear(&mut self, cols: &[u64], page: PageId) {
            for ch in 0..self.versions.len() {
                let row = self.row(ch);
                if cols.iter().any(|&col| row[col as usize] == Some(page)) {
                    let row = self.write(ch);
                    for &col in cols {
                        if row[col as usize] == Some(page) {
                            row[col as usize] = None;
                        }
                    }
                }
            }
        }
    }
}

impl Eq for BroadcastProgram {}

/// One page's run inside a [`SpanArena`]: `len` live entries at `off`,
/// in a reservation of `cap` entries (`cap == 0`: no reservation).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    off: u32,
    len: u32,
    cap: u32,
}

/// Per-page sorted runs of `T` in one entry vector: the discipline of the
/// station's waiting set (DESIGN §12.1) applied to the program's column
/// table (DESIGN §8.5).
///
/// A run that ends at the arena tail grows in place by exactly what it
/// gains, so a page placed in one go (a SUSC family) takes no slack. A
/// full run elsewhere relocates to the tail with twice its reservation,
/// stranding the old one. Freed and stranded entries are reclaimed by a
/// compaction once the arena exceeds twice the reserved total, so the
/// arena stays within twice what its runs reserve.
#[derive(Debug, Clone)]
struct SpanArena<T> {
    items: Vec<T>,
    spans: Vec<Span>,
    /// Sum of every span's `cap`.
    reserved: usize,
}

fn arena_offset(n: usize) -> u32 {
    u32::try_from(n).expect("program column arena fits in u32 offsets")
}

impl<T: Copy + Ord> SpanArena<T> {
    fn new() -> Self {
        Self {
            items: Vec::new(),
            spans: Vec::new(),
            reserved: 0,
        }
    }

    fn get(&self, key: usize) -> &[T] {
        self.spans.get(key).map_or(&[], |s| {
            &self.items[s.off as usize..s.off as usize + s.len as usize]
        })
    }

    /// Inserts `value` into `key`'s sorted run; `false` (and no change)
    /// when the run already holds it.
    fn insert(&mut self, key: usize, value: T) -> bool {
        if self.spans.len() <= key {
            self.spans.resize(key + 1, Span::default());
        }
        let s = self.spans[key];
        let (off, len, cap) = (s.off as usize, s.len as usize, s.cap as usize);
        let run = &self.items[off..off + len];
        let at = if run.last().is_none_or(|&last| last < value) {
            len
        } else {
            match run.binary_search(&value) {
                Ok(_) => return false,
                Err(at) => at,
            }
        };
        if len < cap {
            self.items.copy_within(off + at..off + len, off + at + 1);
            self.items[off + at] = value;
            self.spans[key].len += 1;
        } else if cap == 0 || off + cap == self.items.len() {
            // A new run, or one ending at the tail: grow by exactly one.
            let off = if cap == 0 { self.items.len() } else { off };
            self.items.insert(off + at, value);
            self.spans[key] = Span {
                off: arena_offset(off),
                len: s.len + 1,
                cap: s.cap + 1,
            };
            self.reserved += 1;
        } else {
            // Relocate to the tail with double the reservation; the old
            // one is stranded until the next compaction.
            let tail = self.items.len();
            self.items.extend_from_within(off..off + at);
            self.items.push(value);
            self.items.extend_from_within(off + at..off + len);
            self.items.resize(tail + 2 * cap, value);
            self.spans[key] = Span {
                off: arena_offset(tail),
                len: s.len + 1,
                cap: 2 * s.cap,
            };
            self.reserved += cap;
            self.compact_if_sparse();
        }
        true
    }

    /// Gives the empty run at `key` exactly the ascending `values`, sized
    /// once at the arena tail. A non-empty run falls back to insertion.
    fn append_run(&mut self, key: usize, values: impl ExactSizeIterator<Item = T>) {
        if self.get(key).is_empty() {
            // An empty run holds no reservation (`release` returns it).
            debug_assert_eq!(self.spans.get(key).map_or(0, |s| s.cap), 0);
            if self.spans.len() <= key {
                self.spans.resize(key + 1, Span::default());
            }
            let n = values.len();
            let off = self.items.len();
            self.items.extend(values);
            self.spans[key] = Span {
                off: arena_offset(off),
                len: arena_offset(n),
                cap: arena_offset(n),
            };
            self.reserved += n;
        } else {
            for v in values {
                self.insert(key, v);
            }
        }
    }

    /// Empties `key`'s run and gives back its reservation. A reservation
    /// at the arena tail is truncated away, and trailing empty spans are
    /// trimmed.
    fn release(&mut self, key: usize) {
        let Some(s) = self.spans.get_mut(key) else {
            return;
        };
        let (off, cap) = (s.off as usize, s.cap as usize);
        *s = Span::default();
        self.reserved -= cap;
        if cap > 0 && off + cap == self.items.len() {
            self.items.truncate(off);
        }
        while self.spans.last().is_some_and(|s| s.cap == 0) {
            self.spans.pop();
        }
        self.compact_if_sparse();
    }

    /// A copy without the runs of `dropped` (distinct keys), with room
    /// for `room` more entries. The entry vector is copied whole, so the
    /// dropped runs stay behind as stranded entries until a compaction
    /// reclaims them.
    fn copy_without(&self, dropped: &[usize], room: usize) -> Self {
        let mut items = Vec::with_capacity(self.items.len() + room);
        items.extend_from_slice(&self.items);
        let mut copy = Self {
            items,
            spans: self.spans.clone(),
            reserved: self.reserved,
        };
        for &key in dropped {
            copy.reserved -= copy.spans[key].cap as usize;
            copy.spans[key] = Span::default();
        }
        while copy.spans.last().is_some_and(|s| s.cap == 0) {
            copy.spans.pop();
        }
        copy.compact_if_sparse();
        // A compaction packs the vector to its live entries.
        copy.items.reserve(room);
        copy
    }

    /// Packs every run tightly (`cap = len`) once stranded entries
    /// outnumber reserved ones.
    fn compact_if_sparse(&mut self) {
        if self.items.len() <= 2 * self.reserved {
            return;
        }
        let mut items = Vec::with_capacity(self.spans.iter().map(|s| s.len as usize).sum());
        for s in self.spans.iter_mut().filter(|s| s.cap > 0) {
            let off = s.off as usize;
            let new_off = arena_offset(items.len());
            items.extend_from_slice(&self.items[off..off + s.len as usize]);
            *s = Span {
                off: new_off,
                len: s.len,
                cap: s.len,
            };
        }
        self.reserved = items.len();
        self.items = items;
    }
}

/// Error returned by [`BroadcastProgram::place`] when the slot is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOccupied {
    /// The contested position.
    pub pos: GridPos,
    /// The page already occupying it.
    pub existing: PageId,
}

impl fmt::Display for SlotOccupied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {} already holds {}", self.pos, self.existing)
    }
}

impl std::error::Error for SlotOccupied {}

impl BroadcastProgram {
    /// Creates an empty program with `channels` rows and `cycle_len` columns.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `cycle_len == 0`, or if the grid size
    /// would overflow `usize`.
    #[must_use]
    pub fn new(channels: u32, cycle_len: u64) -> Self {
        assert!(channels > 0, "a program needs at least one channel");
        assert!(cycle_len > 0, "a program needs at least one slot");
        u64::from(channels)
            .checked_mul(cycle_len)
            .and_then(|c| usize::try_from(c).ok())
            .expect("program grid must fit in memory");
        Self {
            channels,
            cycle_len,
            rows: Rows::new(channels as usize, cycle_len as usize),
            columns: SpanArena::new(),
            cell_counts: Vec::new(),
        }
    }

    /// A program holding exactly `cells`, a channel-major grid image
    /// (`cells[ch * cycle_len + slot]`) as [`BroadcastProgram::cells`]
    /// returns it — the inverse of that accessor, for restoring a
    /// checkpointed grid.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::NoChannels`] if `channels == 0`.
    /// * [`ScheduleError::InvalidFrequencies`] if `cycle_len == 0` or
    ///   `cells.len() != channels * cycle_len`.
    /// * [`ScheduleError::WorkloadTooLarge`] if `channels * cycle_len`
    ///   overflows, or a cell holds a page id at or above
    ///   [`PAGE_ID_LIMIT`].
    ///
    /// # Examples
    ///
    /// ```
    /// use airsched_core::program::BroadcastProgram;
    /// use airsched_core::types::PageId;
    ///
    /// let cells = [Some(PageId::new(0)), None, None, Some(PageId::new(1))];
    /// let program = BroadcastProgram::from_cells(2, 2, &cells)?;
    /// assert_eq!(program.cells(), &cells);
    /// assert!(BroadcastProgram::from_cells(2, 1 << 63, &[]).is_err());
    /// # Ok::<(), airsched_core::error::ScheduleError>(())
    /// ```
    pub fn from_cells(
        channels: u32,
        cycle_len: u64,
        cells: &[Option<PageId>],
    ) -> Result<Self, ScheduleError> {
        if channels == 0 {
            return Err(ScheduleError::NoChannels);
        }
        if cycle_len == 0 {
            return Err(ScheduleError::InvalidFrequencies {
                reason: "cycle length must be positive",
            });
        }
        let len =
            u64::from(channels)
                .checked_mul(cycle_len)
                .ok_or(ScheduleError::WorkloadTooLarge {
                    reason: "grid dimensions overflow",
                })?;
        if u64::try_from(cells.len()) != Ok(len) {
            return Err(ScheduleError::InvalidFrequencies {
                reason: "grid length does not match its dimensions",
            });
        }
        if cells.iter().flatten().any(|p| p.index() >= PAGE_ID_LIMIT) {
            return Err(PAGE_ID_TOO_LARGE);
        }
        let mut program = Self::new(channels, cycle_len);
        let cols = usize::try_from(cycle_len).expect("a row is no longer than the grid");
        for (ch, row) in cells.chunks(cols).enumerate() {
            program.rows.write(ch).copy_from_slice(row);
            for (slot, page) in (0..).zip(row) {
                if let Some(page) = *page {
                    let p = page.index() as usize;
                    program.columns.insert(p, slot);
                    program.count_cells(p, 1);
                }
            }
        }
        Ok(program)
    }

    /// The whole grid, channel-major: `cells()[ch * cycle_len + slot]` is
    /// the page at `(ch, slot)`.
    #[must_use]
    pub fn cells(&self) -> &[Option<PageId>] {
        self.rows.cells()
    }

    /// Channel `ch`'s row: `row_cells(ch)[slot]` is the page at `(ch,
    /// slot)`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn row_cells(&self, ch: u32) -> &[Option<PageId>] {
        self.rows.row(self.row_index(ch))
    }

    /// Channel `ch`'s row version. Every write to a row gives it a
    /// version no row has held before, and a copied row (a clone, or a
    /// row kept by a re-shape) keeps its version, so two rows with equal
    /// versions hold equal cells — whichever programs they belong to.
    /// Versions are never 0 and are not part of equality or of any
    /// serialised form.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use airsched_core::program::BroadcastProgram;
    /// use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
    ///
    /// let mut program = BroadcastProgram::new(2, 4);
    /// let copy = program.clone();
    /// program.place(GridPos::new(ChannelId::new(1), SlotIndex::new(0)), PageId::new(3))?;
    /// assert_eq!(program.row_version(0), copy.row_version(0));
    /// assert_ne!(program.row_version(1), copy.row_version(1));
    /// # Ok::<(), airsched_core::program::SlotOccupied>(())
    /// ```
    #[must_use]
    pub fn row_version(&self, ch: u32) -> u64 {
        self.rows.version(self.row_index(ch))
    }

    /// Number of channels (rows).
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Cycle length in slots (columns).
    #[must_use]
    pub fn cycle_len(&self) -> u64 {
        self.cycle_len
    }

    /// Total number of grid cells.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        u64::from(self.channels) * self.cycle_len
    }

    /// Number of filled cells: the per-page cell counts summed, so
    /// `O(pages)`.
    #[must_use]
    pub fn occupied_slots(&self) -> u64 {
        self.cell_counts.iter().map(|&n| u64::from(n)).sum()
    }

    /// Fraction of cells filled, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.occupied_slots() as f64 / self.capacity() as f64
    }

    /// The row and column of `pos`.
    fn cell_index(&self, pos: GridPos) -> (usize, usize) {
        assert!(
            pos.channel.index() < self.channels,
            "channel {} out of range (have {})",
            pos.channel,
            self.channels
        );
        assert!(
            pos.slot.index() < self.cycle_len,
            "slot {} out of range (cycle is {})",
            pos.slot,
            self.cycle_len
        );
        (pos.channel.index() as usize, pos.slot.index() as usize)
    }

    /// The page at `pos`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[must_use]
    pub fn page_at(&self, pos: GridPos) -> Option<PageId> {
        let (ch, slot) = self.cell_index(pos);
        self.rows.row(ch)[slot]
    }

    /// Whether the cell at `pos` is free.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[must_use]
    pub fn is_free(&self, pos: GridPos) -> bool {
        self.page_at(pos).is_none()
    }

    /// Places `page` at `pos`.
    ///
    /// # Errors
    ///
    /// Returns [`SlotOccupied`] if the cell already holds a page (programs
    /// are write-once by design; schedulers never overwrite).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn place(&mut self, pos: GridPos, page: PageId) -> Result<(), SlotOccupied> {
        let (ch, slot) = self.cell_index(pos);
        if let Some(existing) = self.rows.row(ch)[slot] {
            return Err(SlotOccupied { pos, existing });
        }
        self.rows.write(ch)[slot] = Some(page);
        let p = page.index() as usize;
        // Same column on another channel is one logical occurrence.
        self.columns.insert(p, pos.slot.index());
        self.count_cells(p, 1);
        Ok(())
    }

    /// How many cells hold `page`.
    pub(crate) fn cell_count(&self, page: PageId) -> u32 {
        self.cell_counts
            .get(page.index() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Adds `n` cells to page `p`'s count.
    fn count_cells(&mut self, p: usize, n: u32) {
        if self.cell_counts.len() <= p {
            self.cell_counts.resize(p + 1, 0);
        }
        self.cell_counts[p] += n;
    }

    /// The first offset `y` in `from..t` whose periodic family `y, y + t,
    /// y + 2t, …` on channel `ch` is wholly free, or `None`. `t` must
    /// divide the cycle. The row is scanned for the next free cell before
    /// a family is checked, so a run of taken offsets costs one pass over
    /// contiguous cells.
    pub(crate) fn first_free_family(&self, ch: u32, from: u64, t: u64) -> Option<u64> {
        let row = self.row_cells(ch);
        let t = usize::try_from(t).expect("a period is no longer than the row");
        let mut y = usize::try_from(from).expect("an offset is within the row");
        while y < t {
            y += row[y..t].iter().position(Option::is_none)?;
            if row[y..].iter().step_by(t).all(Option::is_none) {
                return Some(y as u64);
            }
            y += 1;
        }
        None
    }

    /// Places `page` on the periodic family `y, y + t, …` of channel `ch`
    /// — the SUSC placement — sizing the page's column span once. The
    /// family must be free ([`BroadcastProgram::first_free_family`]).
    pub(crate) fn place_family(&mut self, ch: u32, y: u64, t: u64, page: PageId) {
        let row = self.rows.write(self.row_index(ch));
        let mut placed = 0;
        for cell in row[y as usize..].iter_mut().step_by(t as usize) {
            debug_assert!(cell.is_none(), "family was checked to be free");
            *cell = Some(page);
            placed += 1;
        }
        let p = page.index() as usize;
        self.columns
            .append_run(p, (0..placed).map(move |k| y + k as u64 * t));
        self.count_cells(p, u32::try_from(placed).expect("a family fits in a row"));
    }

    /// Whether the periodic family `y, y + t, y + 2t, …` of channel `ch`
    /// is wholly free. `t` must divide the cycle and `y < t`.
    pub(crate) fn family_is_free(&self, ch: u32, y: u64, t: u64) -> bool {
        let row = self.row_cells(ch);
        row[y as usize..]
            .iter()
            .step_by(t as usize)
            .all(Option::is_none)
    }

    /// `page`'s columns when they are exactly the periodic family `y, y +
    /// t, …` of some `y < t`: that `y`, or `None`.
    pub(crate) fn family_offset(&self, page: PageId, t: u64) -> Option<u64> {
        let cols = self.occurrence_columns(page);
        let y = *cols.first()?;
        let whole = cols.len() as u64 * t == self.cycle_len
            && y < t
            && cols.windows(2).all(|w| w[1] - w[0] == t);
        whole.then_some(y)
    }

    /// Writes `page` back onto the free family `y, y + t, …` of channel
    /// `ch` after [`BroadcastProgram::clear_cells`] or a re-shape took its
    /// cells: its column run already is that family and its cell count
    /// the family's size, so only the row is written. A page that moves
    /// rows at the same columns costs the cells it moves.
    pub(crate) fn refill_family(&mut self, ch: u32, y: u64, t: u64, page: PageId) {
        debug_assert_eq!(self.family_offset(page, t), Some(y));
        debug_assert_eq!(
            self.cell_count(page) as usize,
            self.occurrence_columns(page).len()
        );
        let row = self.rows.write(self.row_index(ch));
        for cell in row[y as usize..].iter_mut().step_by(t as usize) {
            debug_assert!(cell.is_none(), "family was checked to be free");
            *cell = Some(page);
        }
    }

    /// Frees every cell holding `page` and keeps its column run and cell
    /// count, for a [`BroadcastProgram::refill_family`] at the same
    /// columns to follow. Only the rows that held the page are written.
    pub(crate) fn clear_cells(&mut self, page: PageId) {
        self.rows
            .clear(self.columns.get(page.index() as usize), page);
    }

    /// This program re-shaped to `from.len()` channels and cut down to
    /// the pages not in `dropped`: row `i` is this program's row
    /// `from[i]`, or an empty row for `None`, without the cells of the
    /// dropped pages. Only the `stranded` ones are looked for on the kept
    /// rows; the other dropped pages had cells on dropped rows alone. A
    /// kept row keeps its version unless it loses a dropped page's cell.
    /// The column table does not depend on rows, so it is copied whole,
    /// with the dropped runs left stranded (a compaction reclaims them
    /// once they outnumber the live entries) and room for `room` more
    /// columns. A page that only changes rows is not dropped: it keeps
    /// its column run and cell count, the caller takes its cells off the
    /// kept rows with [`BroadcastProgram::clear_cells`] and writes them
    /// back with [`BroadcastProgram::refill_family`], and so it costs the
    /// cells it moves.
    ///
    /// The kept rows must be in range and distinct; `dropped` must hold
    /// distinct placed pages, every page with a cell on a row that is not
    /// kept among them, and `stranded` every dropped page with a cell on
    /// a kept row (the relocating scheduler ensures all of this).
    pub(crate) fn with_rows(
        &self,
        from: &[Option<u32>],
        dropped: &[PageId],
        stranded: &[PageId],
        room: usize,
    ) -> Self {
        for &row in from.iter().flatten() {
            self.row_index(row);
        }
        let mut rows = self.rows.select(from);
        for &page in stranded {
            rows.clear(self.occurrence_columns(page), page);
        }
        let mut cell_counts = self.cell_counts.clone();
        for &page in dropped {
            cell_counts[page.index() as usize] = 0;
        }
        let dropped: Vec<usize> = dropped.iter().map(|p| p.index() as usize).collect();
        Self {
            channels: u32::try_from(from.len()).expect("row count fits in u32"),
            cycle_len: self.cycle_len,
            rows,
            columns: self.columns.copy_without(&dropped, room),
            cell_counts,
        }
    }

    /// Channel `ch`'s row index, checked.
    fn row_index(&self, ch: u32) -> usize {
        assert!(ch < self.channels, "channel {ch} out of range");
        ch as usize
    }

    /// Frees every cell holding `page`, at the cost of the page's columns
    /// times the channels. Only the rows that held the page are written,
    /// so every other row keeps its version. The online scheduler's
    /// removal takes a page off this way; [`BroadcastProgram::place`]
    /// never overwrites a cell.
    ///
    /// # Examples
    ///
    /// ```
    /// use airsched_core::program::BroadcastProgram;
    /// use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
    ///
    /// let at = |ch, slot| GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
    /// let mut program = BroadcastProgram::new(2, 4);
    /// program.place(at(0, 0), PageId::new(2))?;
    /// program.place(at(0, 2), PageId::new(2))?;
    /// program.place(at(1, 1), PageId::new(5))?;
    /// let other_row = program.row_version(1);
    /// program.clear_page(PageId::new(2));
    /// assert!(program.occurrence_columns(PageId::new(2)).is_empty());
    /// assert_eq!(program.row_version(1), other_row);
    /// # Ok::<(), airsched_core::program::SlotOccupied>(())
    /// ```
    pub fn clear_page(&mut self, page: PageId) {
        let p = page.index() as usize;
        self.rows.clear(self.columns.get(p), page);
        if let Some(count) = self.cell_counts.get_mut(p) {
            *count = 0;
        }
        self.columns.release(p);
    }

    /// The sorted, deduplicated columns in which `page` appears (a page
    /// appearing on two channels in the same column counts once — a client
    /// only needs one of them).
    #[must_use]
    pub fn occurrence_columns(&self, page: PageId) -> &[u64] {
        self.columns.get(page.index() as usize)
    }

    /// All `(channel, slot)` cells holding `page`, row-major: each row
    /// read at the page's columns, so a walk costs the channels times the
    /// page's frequency. Empty for a page never broadcast.
    ///
    /// # Examples
    ///
    /// ```
    /// use airsched_core::program::BroadcastProgram;
    /// use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
    ///
    /// let cell = |ch, slot| GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
    /// let mut program = BroadcastProgram::new(2, 4);
    /// program.place(cell(1, 0), PageId::new(7))?;
    /// program.place(cell(0, 2), PageId::new(7))?;
    /// let cells: Vec<GridPos> = program.occurrences(PageId::new(7)).collect();
    /// assert_eq!(cells, [cell(0, 2), cell(1, 0)]);
    /// # Ok::<(), airsched_core::program::SlotOccupied>(())
    /// ```
    pub fn occurrences(&self, page: PageId) -> impl Iterator<Item = GridPos> + '_ {
        let cols = self.occurrence_columns(page);
        let width = self.cycle_len as usize;
        (0..self.channels)
            .zip(self.cells().chunks(width))
            .flat_map(move |(ch, row)| {
                cols.iter()
                    .filter(move |&&col| row[col as usize] == Some(page))
                    .map(move |&col| GridPos::new(ChannelId::new(ch), SlotIndex::new(col)))
            })
    }

    /// Every distinct page that appears at least once, in ascending id order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.columns
            .spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.len > 0)
            .map(|(i, _)| PageId::new(u32::try_from(i).expect("dense table index fits in u32")))
    }

    /// Every page that airs more than once in some column (on several
    /// channels), in ascending id order: its cell count exceeds its
    /// column count. One walk of the cell counts and the column span
    /// lengths side by side.
    pub fn pages_doubled_in_a_column(&self) -> impl Iterator<Item = PageId> + '_ {
        let columns = self.columns.spans.iter().map(|s| s.len);
        let columns = columns.chain(std::iter::repeat(0));
        (0u32..)
            .zip(self.cell_counts.iter().zip(columns))
            .filter(|&(_, (&cells, columns))| cells > columns)
            .map(|(p, _)| PageId::new(p))
    }

    /// Number of logical occurrences (distinct columns) of `page`.
    #[must_use]
    pub fn frequency(&self, page: PageId) -> u64 {
        self.occurrence_columns(page).len() as u64
    }

    /// The first slot `s >= from` whose column carries `page` (the page is
    /// fully received at the end of that slot), or `None` if the page is
    /// never broadcast. `O(log f_p)` via binary search.
    ///
    /// # Examples
    ///
    /// ```
    /// use airsched_core::program::BroadcastProgram;
    /// use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
    ///
    /// let mut program = BroadcastProgram::new(1, 4);
    /// program.place(GridPos::new(ChannelId::new(0), SlotIndex::new(2)), PageId::new(0))?;
    /// assert_eq!(program.next_broadcast(PageId::new(0), 0), Some(2));
    /// assert_eq!(program.next_broadcast(PageId::new(0), 3), Some(6)); // wraps
    /// # Ok::<(), airsched_core::program::SlotOccupied>(())
    /// ```
    #[must_use]
    pub fn next_broadcast(&self, page: PageId, from: u64) -> Option<u64> {
        next_in_columns(self.occurrence_columns(page), self.cycle_len, from)
    }

    /// The wait, in whole slots, from a tune-in at the *start* of slot
    /// `arrival` (taken modulo the cycle) until `page` has been fully
    /// received, or `None` if the page is never broadcast.
    ///
    /// A client arriving at the start of the very slot that carries its page
    /// waits 1 slot (the page must finish transmitting).
    ///
    /// # Examples
    ///
    /// ```
    /// use airsched_core::program::BroadcastProgram;
    /// use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
    ///
    /// let mut p = BroadcastProgram::new(1, 4);
    /// p.place(GridPos::new(ChannelId::new(0), SlotIndex::new(2)), PageId::new(0)).unwrap();
    /// assert_eq!(p.wait_from(PageId::new(0), 0), Some(3)); // slots 0,1,2
    /// assert_eq!(p.wait_from(PageId::new(0), 2), Some(1));
    /// assert_eq!(p.wait_from(PageId::new(0), 3), Some(4)); // wraps around
    /// assert_eq!(p.wait_from(PageId::new(9), 0), None);
    /// ```
    #[must_use]
    pub fn wait_from(&self, page: PageId, arrival: u64) -> Option<u64> {
        self.next_broadcast(page, arrival).map(|s| s - arrival + 1)
    }

    /// The cyclic gaps, in slots, between consecutive logical occurrences of
    /// `page`, including the wrap-around gap from the last occurrence back to
    /// the first. Yields nothing for a page never broadcast, and one
    /// whole-cycle gap for a page broadcast once.
    ///
    /// The gaps always sum to the cycle length. Allocation-free — this is
    /// what [`crate::validity::check`] and the closed-form exact-delay path
    /// iterate per page.
    pub fn cyclic_gaps(&self, page: PageId) -> impl Iterator<Item = u64> + '_ {
        cyclic_gaps_over(self.occurrence_columns(page), self.cycle_len)
    }

    /// Renders the grid as an ASCII table, one row per channel. Intended for
    /// small programs (examples, debugging); columns are page ids or `.` for
    /// empty cells.
    #[must_use]
    pub fn render_grid(&self) -> String {
        let mut out = String::new();
        let width = self
            .pages()
            .last()
            .map_or(1, |p| p.index().to_string().len())
            .max(1);
        for (ch, row) in self.cells().chunks(self.cycle_len as usize).enumerate() {
            out.push_str(&format!("ch{ch}: "));
            for cell in row {
                match cell {
                    Some(p) => out.push_str(&format!("{:>width$} ", p.index())),
                    None => out.push_str(&format!("{:>width$} ", ".")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for BroadcastProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program[{} channels x {} slots, {}/{} filled]",
            self.channels,
            self.cycle_len,
            self.occupied_slots(),
            self.capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    use crate::dynamic::{BaseTrust, OnlineScheduler};

    fn pos(ch: u32, slot: u64) -> GridPos {
        GridPos::new(ChannelId::new(ch), SlotIndex::new(slot))
    }

    #[test]
    fn new_program_is_empty() {
        let p = BroadcastProgram::new(3, 5);
        assert_eq!(p.channels(), 3);
        assert_eq!(p.cycle_len(), 5);
        assert_eq!(p.capacity(), 15);
        assert_eq!(p.occupied_slots(), 0);
        assert_eq!(p.utilization(), 0.0);
        assert!(p.pages().next().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = BroadcastProgram::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_cycle_panics() {
        let _ = BroadcastProgram::new(1, 0);
    }

    #[test]
    fn place_and_read_back() {
        let mut p = BroadcastProgram::new(2, 4);
        p.place(pos(1, 3), PageId::new(9)).unwrap();
        assert_eq!(p.page_at(pos(1, 3)), Some(PageId::new(9)));
        assert!(p.is_free(pos(0, 0)));
        assert!(!p.is_free(pos(1, 3)));
        assert_eq!(p.occupied_slots(), 1);
    }

    #[test]
    fn double_place_is_rejected() {
        let mut p = BroadcastProgram::new(1, 2);
        p.place(pos(0, 0), PageId::new(1)).unwrap();
        let err = p.place(pos(0, 0), PageId::new(2)).unwrap_err();
        assert_eq!(err.existing, PageId::new(1));
        assert_eq!(err.pos, pos(0, 0));
        assert!(err.to_string().contains("already holds"));
        // The failed placement did not change the grid.
        assert_eq!(p.page_at(pos(0, 0)), Some(PageId::new(1)));
        assert_eq!(p.occupied_slots(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        let p = BroadcastProgram::new(1, 2);
        let _ = p.page_at(pos(0, 2));
    }

    #[test]
    fn occurrence_columns_dedup_same_column_across_channels() {
        let mut p = BroadcastProgram::new(2, 4);
        p.place(pos(0, 1), PageId::new(5)).unwrap();
        p.place(pos(1, 1), PageId::new(5)).unwrap();
        p.place(pos(0, 3), PageId::new(5)).unwrap();
        assert_eq!(p.occurrence_columns(PageId::new(5)), &[1, 3]);
        assert_eq!(p.frequency(PageId::new(5)), 2);
        assert_eq!(p.occurrences(PageId::new(5)).count(), 3);
    }

    #[test]
    fn occurrence_columns_stay_sorted_regardless_of_insert_order() {
        let mut p = BroadcastProgram::new(1, 8);
        for slot in [5, 1, 7, 3] {
            p.place(pos(0, slot), PageId::new(0)).unwrap();
        }
        assert_eq!(p.occurrence_columns(PageId::new(0)), &[1, 3, 5, 7]);
    }

    #[test]
    fn wait_from_basic_and_wraparound() {
        let mut p = BroadcastProgram::new(1, 6);
        p.place(pos(0, 2), PageId::new(0)).unwrap();
        p.place(pos(0, 5), PageId::new(0)).unwrap();
        assert_eq!(p.wait_from(PageId::new(0), 0), Some(3));
        assert_eq!(p.wait_from(PageId::new(0), 2), Some(1));
        assert_eq!(p.wait_from(PageId::new(0), 3), Some(3));
        assert_eq!(p.wait_from(PageId::new(0), 5), Some(1));
        // Arrival beyond the cycle wraps.
        assert_eq!(p.wait_from(PageId::new(0), 6), Some(3));
        assert_eq!(p.wait_from(PageId::new(0), 14), Some(1));
    }

    #[test]
    fn wait_from_missing_page_is_none() {
        let p = BroadcastProgram::new(1, 4);
        assert_eq!(p.wait_from(PageId::new(0), 0), None);
    }

    #[test]
    fn cyclic_gaps_sum_to_cycle() {
        let mut p = BroadcastProgram::new(1, 10);
        for slot in [0, 3, 4, 9] {
            p.place(pos(0, slot), PageId::new(1)).unwrap();
        }
        let gaps: Vec<u64> = p.cyclic_gaps(PageId::new(1)).collect();
        assert_eq!(gaps, vec![3, 1, 5, 1]);
        assert_eq!(gaps.iter().sum::<u64>(), 10);
    }

    #[test]
    fn cyclic_gaps_single_occurrence_is_whole_cycle() {
        let mut p = BroadcastProgram::new(1, 7);
        p.place(pos(0, 4), PageId::new(2)).unwrap();
        assert!(p.cyclic_gaps(PageId::new(2)).eq([7]));
    }

    #[test]
    fn cyclic_gaps_absent_page_is_empty() {
        let p = BroadcastProgram::new(1, 7);
        assert_eq!(p.cyclic_gaps(PageId::new(0)).count(), 0);
    }

    #[test]
    fn gap_iterator_matches_collected_gaps() {
        let mut p = BroadcastProgram::new(2, 12);
        for slot in [0, 3, 4, 9] {
            p.place(pos(0, slot), PageId::new(1)).unwrap();
        }
        p.place(pos(1, 7), PageId::new(3)).unwrap();
        for page in [PageId::new(1), PageId::new(3), PageId::new(2)] {
            // Consecutive column differences, then the wrap-around gap.
            let cols = p.occurrence_columns(page);
            let wrap = cols.first().map(|&first| 12 - cols[cols.len() - 1] + first);
            let by_hand: Vec<u64> = cols.windows(2).map(|w| w[1] - w[0]).chain(wrap).collect();
            assert!(p.cyclic_gaps(page).eq(by_hand));
        }
        assert_eq!(p.cyclic_gaps(PageId::new(1)).sum::<u64>(), 12);
    }

    #[test]
    fn pages_iterates_sparse_dense_table_in_order() {
        // Non-contiguous page ids leave empty dense-table entries that must
        // not surface as pages.
        let mut p = BroadcastProgram::new(1, 8);
        p.place(pos(0, 0), PageId::new(6)).unwrap();
        p.place(pos(0, 1), PageId::new(2)).unwrap();
        let pages: Vec<PageId> = p.pages().collect();
        assert_eq!(pages, vec![PageId::new(2), PageId::new(6)]);
        assert!(p.occurrence_columns(PageId::new(4)).is_empty());
        assert!(p.occurrences(PageId::new(99)).next().is_none());
    }

    #[test]
    fn render_grid_shows_pages_and_holes() {
        let mut p = BroadcastProgram::new(2, 3);
        p.place(pos(0, 0), PageId::new(1)).unwrap();
        p.place(pos(1, 2), PageId::new(2)).unwrap();
        let s = p.render_grid();
        assert!(s.contains("ch0: 1 . ."));
        assert!(s.contains("ch1: . . 2"));
    }

    #[test]
    fn display_summarizes() {
        let mut p = BroadcastProgram::new(2, 3);
        p.place(pos(0, 0), PageId::new(1)).unwrap();
        assert_eq!(p.to_string(), "program[2 channels x 3 slots, 1/6 filled]");
    }

    #[test]
    fn equality_is_placement_order_independent() {
        // Same final grid, different placement orders (including a page
        // spanning channels placed high-channel-first).
        let mut a = BroadcastProgram::new(2, 3);
        a.place(pos(1, 0), PageId::new(7)).unwrap();
        a.place(pos(0, 2), PageId::new(7)).unwrap();
        a.place(pos(0, 0), PageId::new(1)).unwrap();
        let mut b = BroadcastProgram::new(2, 3);
        b.place(pos(0, 0), PageId::new(1)).unwrap();
        b.place(pos(0, 2), PageId::new(7)).unwrap();
        b.place(pos(1, 0), PageId::new(7)).unwrap();
        assert_eq!(a, b);
        assert!(a
            .occurrences(PageId::new(7))
            .eq(b.occurrences(PageId::new(7))));
        // Occurrences are row-major regardless of placement order.
        assert!(a.occurrences(PageId::new(7)).eq([pos(0, 2), pos(1, 0)]));
    }

    #[test]
    fn next_broadcast_lands_on_or_after_from() {
        let mut p = BroadcastProgram::new(1, 6);
        p.place(pos(0, 2), PageId::new(0)).unwrap();
        p.place(pos(0, 5), PageId::new(0)).unwrap();
        assert_eq!(p.next_broadcast(PageId::new(0), 0), Some(2));
        assert_eq!(p.next_broadcast(PageId::new(0), 2), Some(2));
        assert_eq!(p.next_broadcast(PageId::new(0), 3), Some(5));
        assert_eq!(p.next_broadcast(PageId::new(0), 6), Some(8));
        // Arrivals many cycles out still land on the right column.
        assert_eq!(p.next_broadcast(PageId::new(0), 601), Some(602));
        // Unknown (out-of-table) pages are simply never broadcast.
        assert_eq!(p.next_broadcast(PageId::new(99), 5), None);
    }

    #[test]
    fn from_cells_round_trips_and_checks_dimensions() {
        let mut p = BroadcastProgram::new(2, 3);
        p.place(pos(0, 1), PageId::new(4)).unwrap();
        p.place(pos(1, 0), PageId::new(4)).unwrap();
        p.place(pos(1, 2), PageId::new(0)).unwrap();
        let back = BroadcastProgram::from_cells(2, 3, p.cells()).unwrap();
        assert_eq!(back, p);
        assert!(back
            .occurrences(PageId::new(4))
            .eq(p.occurrences(PageId::new(4))));
        assert_eq!(back.occupied_slots(), 3);
        let err = |channels, cycle, cells: &[Option<PageId>]| {
            BroadcastProgram::from_cells(channels, cycle, cells).unwrap_err()
        };
        assert_eq!(err(0, 3, &[]), ScheduleError::NoChannels);
        assert!(matches!(
            err(2, 0, &[]),
            ScheduleError::InvalidFrequencies { .. }
        ));
        assert!(matches!(
            err(2, 3, &p.cells()[1..]),
            ScheduleError::InvalidFrequencies { .. }
        ));
        assert!(matches!(
            err(2, 1 << 63, &[]),
            ScheduleError::WorkloadTooLarge { .. }
        ));
    }

    #[test]
    fn utilization_tracks_fill() {
        let mut p = BroadcastProgram::new(1, 4);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        p.place(pos(0, 1), PageId::new(1)).unwrap();
        assert!((p.utilization() - 0.5).abs() < 1e-12);
    }

    /// The arena bound: every table holds at most twice what its spans
    /// reserve, and `reserved` is the sum of the reservations.
    fn assert_arena_bound<T: Copy + Ord>(arena: &SpanArena<T>) {
        let reserved: usize = arena.spans.iter().map(|s| s.cap as usize).sum();
        assert_eq!(arena.reserved, reserved);
        assert!(
            arena.items.len() <= 2 * reserved,
            "arena {} > 2 x {reserved}",
            arena.items.len()
        );
        for s in &arena.spans {
            assert!(s.len <= s.cap);
            assert!(s.off as usize + s.cap as usize <= arena.items.len());
        }
    }

    /// Pages of the model-checked programs: few, so placements collide.
    const MODEL_PAGES: u32 = 6;

    #[derive(Debug, Clone)]
    enum TableOp {
        Place(u32, u64, u32),
        Family(u32, u64, u32),
        Clear(u32),
        Clone,
        /// `with_rows`: one new row per layout entry, `true` taking the
        /// next old row in the keep mask (ascending) and `false` an empty
        /// row; placed pages in the drop mask are dropped too.
        Rows(Vec<bool>, u8, u8),
        /// [`OnlineScheduler::relocate`] onto the same row layout, over a
        /// catalogue of every model page at expected time 4.
        Relocate(Vec<bool>, u8),
    }

    /// The rows a [`TableOp::Rows`] or [`TableOp::Relocate`] layout
    /// keeps, from the old row count and the keep mask.
    fn layout_rows(layout: &[bool], keep: u8, channels: u32) -> Vec<Option<u32>> {
        let mut kept = (0..channels).filter(|&ch| keep >> ch & 1 == 1);
        layout
            .iter()
            .map(|&take| if take { kept.next() } else { None })
            .collect()
    }

    /// Records every row of `program` under its version, failing when a
    /// version seen before now holds other cells.
    fn check_versions(
        seen: &mut std::collections::HashMap<u64, Vec<Option<PageId>>>,
        program: &BroadcastProgram,
    ) {
        for ch in 0..program.channels() {
            let row = program.row_cells(ch);
            let first = seen
                .entry(program.row_version(ch))
                .or_insert_with(|| row.to_vec());
            assert_eq!(&first[..], row, "row {ch} kept its version but changed");
        }
    }

    fn arb_table_op() -> impl Strategy<Value = TableOp> {
        prop_oneof![
            (0u32..4, 0u64..16, 0..MODEL_PAGES).prop_map(|(c, s, p)| TableOp::Place(c, s, p)),
            (0u32..4, 0u64..16, 0..MODEL_PAGES).prop_map(|(c, s, p)| TableOp::Place(c, s, p)),
            (0u32..4, 0u64..16, 0..MODEL_PAGES).prop_map(|(c, y, p)| TableOp::Family(c, y, p)),
            (0..MODEL_PAGES).prop_map(TableOp::Clear),
            Just(TableOp::Clone),
            (
                prop::collection::vec(any::<bool>(), 1..=4),
                any::<u8>(),
                any::<u8>()
            )
                .prop_map(|(layout, keep, drop)| TableOp::Rows(layout, keep, drop)),
            (prop::collection::vec(any::<bool>(), 1..=4), any::<u8>())
                .prop_map(|(layout, keep)| TableOp::Relocate(layout, keep)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The column table and the cell counts answer exactly what
        /// per-page cell vectors would, through any mix of single
        /// placements, SUSC family placements, page clears,
        /// clones, re-shapes to other rows and relocations. Across every
        /// program the ops produce (the originals of clones, and the
        /// re-shapes and relocations), two rows with equal versions hold
        /// equal cells.
        #[test]
        fn program_tables_match_a_plain_model(
            ops in prop::collection::vec(arb_table_op(), 1..80),
        ) {
            let mut program = BroadcastProgram::new(3, 16);
            // The model: one cell list per page, sorted row-major below.
            let mut model: Vec<Vec<GridPos>> = vec![Vec::new(); MODEL_PAGES as usize];
            // Every row version seen so far, with the cells it first held;
            // the programs it came from stay alive in `history`.
            let mut seen = std::collections::HashMap::new();
            let mut history = Vec::new();
            let mut catalogue = OnlineScheduler::new(2, 16).unwrap();
            for p in 0..MODEL_PAGES {
                catalogue.add_page(PageId::new(p), 4).unwrap();
            }
            check_versions(&mut seen, &program);
            for op in &ops {
                let channels = program.channels();
                match op {
                    &TableOp::Place(ch, slot, p) => {
                        let at = pos(ch % channels, slot);
                        let placed = program.place(at, PageId::new(p)).is_ok();
                        let free = model.iter().all(|cells| !cells.contains(&at));
                        prop_assert_eq!(placed, free);
                        if free {
                            model[p as usize].push(at);
                        }
                    }
                    &TableOp::Family(ch, y, p) => {
                        // Period 4 on the 16-slot cycle: offsets 0..4.
                        let (ch, t, y) = (ch % channels, 4, y % 4);
                        let family: Vec<GridPos> = (0..4).map(|k| pos(ch, y + k * t)).collect();
                        let free = family
                            .iter()
                            .all(|c| model.iter().all(|cells| !cells.contains(c)));
                        prop_assert_eq!(program.first_free_family(ch, y, t) == Some(y), free);
                        if free {
                            program.place_family(ch, y, t, PageId::new(p));
                            model[p as usize].extend(family);
                        }
                    }
                    &TableOp::Clear(p) => {
                        program.clear_page(PageId::new(p));
                        model[p as usize].clear();
                    }
                    TableOp::Clone => {
                        let copy = program.clone();
                        prop_assert_eq!(&copy, &program);
                        history.push(std::mem::replace(&mut program, copy));
                    }
                    TableOp::Relocate(layout, keep) => {
                        let rows = layout_rows(layout, *keep, channels);
                        if let Ok(moved) = catalogue.relocate(&program, &rows, BaseTrust::Unchecked) {
                            // The relocated grid is the model from here on.
                            for cells in &mut model {
                                cells.clear();
                            }
                            for (i, cell) in moved.cells().iter().enumerate() {
                                if let Some(p) = cell {
                                    let at = pos((i / 16) as u32, (i % 16) as u64);
                                    model[p.index() as usize].push(at);
                                }
                            }
                            history.push(std::mem::replace(&mut program, moved));
                        }
                    }
                    TableOp::Rows(layout, keep, drop) => {
                        let rows = layout_rows(layout, *keep, channels);
                        let new_row = |ch: u32| {
                            let row = rows.iter().position(|&r| r == Some(ch))?;
                            Some(u32::try_from(row).unwrap())
                        };
                        let dropped: Vec<PageId> = (0..MODEL_PAGES)
                            .filter(|&p| {
                                let cells = &model[p as usize];
                                let lost = cells.iter().any(|c| new_row(c.channel.index()).is_none());
                                lost || (drop >> p & 1 == 1 && !cells.is_empty())
                            })
                            .map(PageId::new)
                            .collect();
                        let reshaped = program.with_rows(&rows, &dropped, &dropped, 4);
                        history.push(std::mem::replace(&mut program, reshaped));
                        for (p, cells) in (0u32..).zip(model.iter_mut()) {
                            if dropped.contains(&PageId::new(p)) {
                                cells.clear();
                            }
                            for c in cells.iter_mut() {
                                let row = new_row(c.channel.index()).expect("dropped above");
                                *c = pos(row, c.slot.index());
                            }
                        }
                    }
                }
                check_versions(&mut seen, &program);
                assert_arena_bound(&program.columns);
                let mut fresh = BroadcastProgram::new(program.channels(), 16);
                let mut occupied = 0;
                let mut doubled = Vec::new();
                for (p, cells) in model.iter_mut().enumerate() {
                    cells.sort_unstable();
                    let page = PageId::new(p as u32);
                    let mut cols: Vec<u64> = cells.iter().map(|c| c.slot.index()).collect();
                    cols.sort_unstable();
                    cols.dedup();
                    prop_assert!(program.occurrences(page).eq(cells.iter().copied()));
                    prop_assert_eq!(program.occurrence_columns(page), &cols[..]);
                    prop_assert_eq!(program.frequency(page), cols.len() as u64);
                    prop_assert!(program
                        .cyclic_gaps(page)
                        .eq(cyclic_gaps_over(&cols, 16)));
                    for from in [0, 5, 15, 16, 37] {
                        prop_assert_eq!(
                            program.next_broadcast(page, from),
                            next_in_columns(&cols, 16, from)
                        );
                    }
                    for &c in cells.iter() {
                        fresh.place(c, page).unwrap();
                    }
                    occupied += cells.len() as u64;
                    if cells.len() > cols.len() {
                        doubled.push(page);
                    }
                }
                let pages: Vec<PageId> = (0..MODEL_PAGES)
                    .filter(|&p| !model[p as usize].is_empty())
                    .map(PageId::new)
                    .collect();
                prop_assert_eq!(program.pages().collect::<Vec<_>>(), pages);
                prop_assert_eq!(program.pages_doubled_in_a_column().collect::<Vec<_>>(), doubled);
                prop_assert_eq!(program.occupied_slots(), occupied);
                prop_assert_eq!(&program, &fresh);
            }
        }
    }

    /// The churn shape a publish/expire station produces: pages arrive
    /// with ever-rising ids and the oldest expire, so freed spans never
    /// come back. The column arena must reclaim them and stay within
    /// twice the live cells.
    #[test]
    fn program_arena_stays_under_twice_the_live_capacity() {
        let times = [4u64, 8, 16, 32, 64];
        let mut sched = OnlineScheduler::new(2, 64).unwrap();
        let mut live = std::collections::VecDeque::new();
        let mut peak = 0;
        for id in 0..5_000u32 {
            let t = times[id as usize % times.len()];
            // Expire the oldest pages until the newcomer fits.
            while sched.add_page(PageId::new(id), t).is_err() {
                let oldest = live.pop_front().expect("an empty grid fits any page");
                sched.remove_page(oldest).unwrap();
            }
            live.push_back(PageId::new(id));
            if id % 7 == 0 {
                let oldest = live.pop_front().unwrap();
                sched.remove_page(oldest).unwrap();
            }
            let program = sched.program();
            assert_arena_bound(&program.columns);
            // Family placement leaves no slack, and each family sits on
            // one channel, so a page has as many columns as cells: the
            // reservations are the live cells, and the arena is bounded
            // by the grid it indexes.
            let occupied = program.occupied_slots() as usize;
            assert_eq!(program.columns.reserved, occupied);
            assert!(program.columns.items.len() <= 2 * occupied.max(1));
            peak = peak.max(program.columns.items.len());
        }
        assert!(
            peak <= 2 * 128,
            "arena peaked at {peak} entries for a 128-cell grid"
        );
    }
}
