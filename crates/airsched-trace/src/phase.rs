//! The slot-pipeline phase taxonomy.
//!
//! A slot's wall time is split into a fixed, ordered set of phases.  The
//! first five are measured inside `Station::tick_into`; the rest are
//! recorded by the surrounding layers (broadcaster, recovery store) via
//! [`crate::Trace::record_phase`], so a single slot's span tree can mix
//! producers without the station knowing about them.

/// One stage of the per-slot pipeline.
///
/// The discriminant order is the canonical display/export order; it also
/// indexes the per-phase histogram arrays, so it must stay dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Pending fault events, channel up/down transitions, replans.
    Faults = 0,
    /// On-air column materialization plus stall/corruption health scan.
    Air = 1,
    /// Waiting-set drain of the slot's on-air pages.
    Drain = 2,
    /// Per-delivery deadline batch: wait histogram + miss events.
    Deadline = 3,
    /// Metrics-mirror flush (`record_batch` + registry stores).
    Sync = 4,
    /// Frame/template encode of the on-air column.
    Encode = 5,
    /// Handing the encoded frame to the air interface.
    Transmit = 6,
    /// Journal append(s) for the slot.
    Journal = 7,
    /// Checkpoint write (only on checkpoint slots).
    Checkpoint = 8,
}

/// Number of distinct phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// Every phase in canonical order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Faults,
        Phase::Air,
        Phase::Drain,
        Phase::Deadline,
        Phase::Sync,
        Phase::Encode,
        Phase::Transmit,
        Phase::Journal,
        Phase::Checkpoint,
    ];

    /// Stable lowercase name, used for trace-event span names and
    /// dashboard rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Faults => "faults",
            Phase::Air => "air",
            Phase::Drain => "drain",
            Phase::Deadline => "deadline",
            Phase::Sync => "sync",
            Phase::Encode => "encode",
            Phase::Transmit => "transmit",
            Phase::Journal => "journal",
            Phase::Checkpoint => "checkpoint",
        }
    }

    /// Dense index into per-phase arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, ph) in Phase::ALL.iter().enumerate() {
            assert_eq!(ph.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }
}
