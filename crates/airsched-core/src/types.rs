//! Fundamental identifier and quantity newtypes shared across the crate.
//!
//! Slots and times are discrete: one *slot* is the time it takes to broadcast
//! one page on one channel. All cyclic arithmetic on broadcast programs is
//! performed in these units.

use core::fmt;

/// Identifier of a broadcast data page.
///
/// Pages are dense, zero-based indices into a workload. The scheduler never
/// interprets the id beyond equality, so callers are free to map these onto
/// real item keys.
///
/// # Examples
///
/// ```
/// use airsched_core::types::PageId;
///
/// let p = PageId::new(7);
/// assert_eq!(p.index(), 7);
/// assert_eq!(p.to_string(), "p7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u32);

/// The bound every admitted page id stays below, and the cell budget of a
/// parsed program grid.
///
/// Page ids index dense per-page tables (the program's occurrence
/// arenas, the station's waiting set), so one id near `u32::MAX` would
/// size each table at ~4G entries. Every path that admits an id —
/// [`crate::dynamic::OnlineScheduler::add_page`] and
/// [`crate::dynamic::OnlineScheduler::rebuild_with`],
/// [`crate::program::BroadcastProgram::from_cells`] (checkpoint
/// restores) and [`crate::textio::parse_program`] — refuses ids at or
/// above it with an error.
pub const PAGE_ID_LIMIT: u32 = 1 << 24;

impl PageId {
    /// Creates a page id from its dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index backing this id.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PageId {
    fn from(index: u32) -> Self {
        Self(index)
    }
}

impl From<PageId> for u32 {
    fn from(id: PageId) -> Self {
        id.0
    }
}

/// Identifier of an expected-time group `G_i`.
///
/// Groups are zero-based in the API (the paper numbers them from 1);
/// [`GroupId::paper_index`] recovers the 1-based paper numbering for display.
///
/// # Examples
///
/// ```
/// use airsched_core::types::GroupId;
///
/// let g = GroupId::new(0);
/// assert_eq!(g.paper_index(), 1);
/// assert_eq!(g.to_string(), "G1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(u32);

impl GroupId {
    /// Creates a group id from its zero-based index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the zero-based index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the 1-based index used by the paper (`G_1 .. G_h`).
    #[must_use]
    pub const fn paper_index(self) -> u32 {
        self.0 + 1
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.paper_index())
    }
}

impl From<u32> for GroupId {
    fn from(index: u32) -> Self {
        Self(index)
    }
}

/// A zero-based broadcast channel number (a *row* of the program grid).
///
/// # Examples
///
/// ```
/// use airsched_core::types::ChannelId;
///
/// assert_eq!(ChannelId::new(2).to_string(), "ch2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(u32);

impl ChannelId {
    /// Creates a channel id from its zero-based index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the zero-based index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl From<u32> for ChannelId {
    fn from(index: u32) -> Self {
        Self(index)
    }
}

/// A zero-based time-slot index within a broadcast cycle (a *column* of the
/// program grid).
///
/// The paper indexes slots from 1; the API is zero-based throughout and
/// documents paper formulas in 1-based terms where they are quoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotIndex(u64);

impl SlotIndex {
    /// Creates a slot index.
    #[must_use]
    pub const fn new(index: u64) -> Self {
        Self(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SlotIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for SlotIndex {
    fn from(index: u64) -> Self {
        Self(index)
    }
}

/// An *expected time* `t_i`: the maximum number of slots a client is willing
/// to wait for a page of the group, measured from its tune-in instant.
///
/// Expected times are strictly positive.
///
/// # Examples
///
/// ```
/// use airsched_core::types::ExpectedTime;
///
/// let t = ExpectedTime::new(8).unwrap();
/// assert_eq!(t.slots(), 8);
/// assert!(ExpectedTime::new(0).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExpectedTime(u64);

impl ExpectedTime {
    /// Creates an expected time of `slots` slots, or `None` if `slots == 0`.
    #[must_use]
    pub const fn new(slots: u64) -> Option<Self> {
        if slots == 0 {
            None
        } else {
            Some(Self(slots))
        }
    }

    /// Creates an expected time without the zero check.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    #[must_use]
    pub const fn from_slots(slots: u64) -> Self {
        assert!(slots > 0, "expected time must be positive");
        Self(slots)
    }

    /// Returns the duration in slots.
    #[must_use]
    pub const fn slots(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ExpectedTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} slots", self.0)
    }
}

/// A position in the broadcast grid: `(channel, slot)`.
///
/// Mirrors the paper's `(x, y)` pair returned by `GetAvailableSlot`, with
/// zero-based indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridPos {
    /// The channel (row).
    pub channel: ChannelId,
    /// The slot within the cycle (column).
    pub slot: SlotIndex,
}

impl GridPos {
    /// Creates a grid position.
    #[must_use]
    pub const fn new(channel: ChannelId, slot: SlotIndex) -> Self {
        Self { channel, slot }
    }
}

impl fmt::Display for GridPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.channel, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_round_trips() {
        let p = PageId::new(42);
        assert_eq!(u32::from(p), 42);
        assert_eq!(PageId::from(42u32), p);
        assert_eq!(format!("{p}"), "p42");
    }

    #[test]
    fn group_id_paper_index_is_one_based() {
        assert_eq!(GroupId::new(0).paper_index(), 1);
        assert_eq!(GroupId::new(7).paper_index(), 8);
        assert_eq!(GroupId::new(3).to_string(), "G4");
    }

    #[test]
    fn expected_time_rejects_zero() {
        assert!(ExpectedTime::new(0).is_none());
        assert_eq!(ExpectedTime::new(4).unwrap().slots(), 4);
    }

    #[test]
    #[should_panic(expected = "expected time must be positive")]
    fn expected_time_from_slots_panics_on_zero() {
        let _ = ExpectedTime::from_slots(0);
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(ExpectedTime::from_slots(2) < ExpectedTime::from_slots(4));
        assert!(SlotIndex::new(1) < SlotIndex::new(2));
        assert!(ChannelId::new(0) < ChannelId::new(1));
    }

    #[test]
    fn grid_pos_display() {
        let pos = GridPos::new(ChannelId::new(1), SlotIndex::new(5));
        assert_eq!(pos.to_string(), "(ch1, t5)");
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PageId>();
        assert_send_sync::<GroupId>();
        assert_send_sync::<ChannelId>();
        assert_send_sync::<SlotIndex>();
        assert_send_sync::<ExpectedTime>();
        assert_send_sync::<GridPos>();
    }
}
