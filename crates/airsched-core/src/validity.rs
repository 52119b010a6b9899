//! Validity checking for broadcast programs (§3.1).
//!
//! A program is *valid* for a ladder when every page `p_{i,j}`:
//!
//! 1. appears at least once within the first `t_i` slots of the cycle
//!    (paper condition 1: "broadcast at least once between time 1 and
//!    `t_i`"), and
//! 2. has every cyclic inter-appearance gap at most `t_i` slots (paper
//!    condition 2, extended to the wrap-around gap so that the guarantee
//!    holds for clients tuning in at any point of any cycle).
//!
//! Condition 2 over cyclic gaps implies condition 1, but both are reported
//! separately because they are the paper's stated definition and each gives
//! a different diagnostic.

use core::fmt;

use crate::group::GroupLadder;
use crate::program::{cyclic_gaps_over, BroadcastProgram};
use crate::types::PageId;

/// One way a program can fail validity for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The page never appears in the program at all.
    NeverBroadcast {
        /// The missing page.
        page: PageId,
    },
    /// The page's first appearance is later than its expected time
    /// (paper condition 1; columns are 0-based, so a first appearance in
    /// column `t_i` or later is too late).
    FirstTooLate {
        /// The offending page.
        page: PageId,
        /// Column of the first appearance (0-based).
        first_column: u64,
        /// The page's expected time, in slots.
        limit: u64,
    },
    /// A cyclic gap between consecutive appearances exceeds the expected
    /// time (paper condition 2).
    GapTooLarge {
        /// The offending page.
        page: PageId,
        /// The oversized gap, in slots.
        gap: u64,
        /// The page's expected time, in slots.
        limit: u64,
    },
}

impl Violation {
    /// The page this violation concerns.
    #[must_use]
    pub fn page(&self) -> PageId {
        match self {
            Self::NeverBroadcast { page }
            | Self::FirstTooLate { page, .. }
            | Self::GapTooLarge { page, .. } => *page,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NeverBroadcast { page } => write!(f, "{page} is never broadcast"),
            Self::FirstTooLate {
                page,
                first_column,
                limit,
            } => write!(
                f,
                "{page} first appears in column {first_column}, past its \
                 expected time of {limit} slots"
            ),
            Self::GapTooLarge { page, gap, limit } => write!(
                f,
                "{page} has a {gap}-slot gap, above its expected time of \
                 {limit} slots"
            ),
        }
    }
}

/// The outcome of checking one program against one ladder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidityReport {
    violations: Vec<Violation>,
    /// Worst gap overshoot seen, in slots (0 when valid).
    worst_overshoot: u64,
}

impl ValidityReport {
    /// `true` when the program satisfies both validity conditions for every
    /// page of the ladder.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found, page-major in ladder order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The largest amount, in slots, by which any gap exceeds its page's
    /// expected time. Zero for a valid program.
    #[must_use]
    pub fn worst_overshoot(&self) -> u64 {
        self.worst_overshoot
    }
}

impl fmt::Display for ValidityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "valid broadcast program")
        } else {
            write!(
                f,
                "invalid broadcast program: {} violation(s), worst overshoot \
                 {} slot(s)",
                self.violations.len(),
                self.worst_overshoot
            )
        }
    }
}

/// Checks `program` against `ladder` and reports every violation.
/// Validity depends only on each page's occurrence columns.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::susc;
/// use airsched_core::validity::check;
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// assert!(check(&program, &ladder).is_valid());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn check(program: &BroadcastProgram, ladder: &GroupLadder) -> ValidityReport {
    let cycle = program.cycle_len();
    let mut report = ValidityReport::default();
    for (page, group) in ladder.pages() {
        let limit = ladder.time_of(group).slots();
        let cols = program.occurrence_columns(page);
        if cols.is_empty() {
            report.violations.push(Violation::NeverBroadcast { page });
            continue;
        }
        // Condition 1: first appearance within the first t_i columns
        // (0-based column index must be < t_i).
        if cols[0] >= limit {
            report.violations.push(Violation::FirstTooLate {
                page,
                first_column: cols[0],
                limit,
            });
        }
        // Condition 2: every cyclic gap at most t_i. The iterator walks the
        // occurrence columns directly, so the sweep allocates nothing per
        // page.
        for gap in cyclic_gaps_over(cols, cycle) {
            if gap > limit {
                report
                    .violations
                    .push(Violation::GapTooLarge { page, gap, limit });
                report.worst_overshoot = report.worst_overshoot.max(gap - limit);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ChannelId, GridPos, SlotIndex};

    fn pos(ch: u32, slot: u64) -> GridPos {
        GridPos::new(ChannelId::new(ch), SlotIndex::new(slot))
    }

    /// One page, t=2, broadcast every other slot of a 4-slot cycle: valid.
    #[test]
    fn accepts_valid_single_page_program() {
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let mut p = BroadcastProgram::new(1, 2);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        let report = check(&p, &ladder);
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.to_string(), "valid broadcast program");
    }

    #[test]
    fn flags_missing_page() {
        let ladder = GroupLadder::new(vec![(2, 2)]).unwrap();
        let mut p = BroadcastProgram::new(1, 2);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        let report = check(&p, &ladder);
        assert!(!report.is_valid());
        assert_eq!(
            report.violations(),
            &[Violation::NeverBroadcast {
                page: PageId::new(1)
            }]
        );
    }

    #[test]
    fn flags_late_first_appearance_and_wrap_gap() {
        // t = 2 but the page first appears in column 3 of a 6-slot cycle.
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let mut p = BroadcastProgram::new(1, 6);
        p.place(pos(0, 3), PageId::new(0)).unwrap();
        p.place(pos(0, 5), PageId::new(0)).unwrap();
        let report = check(&p, &ladder);
        assert!(!report.is_valid());
        let kinds: Vec<_> = report.violations().to_vec();
        assert!(kinds.iter().any(|v| matches!(
            v,
            Violation::FirstTooLate {
                first_column: 3,
                limit: 2,
                ..
            }
        )));
        // Wrap-around gap 5 -> 3 is 4 slots > 2.
        assert!(kinds.iter().any(|v| matches!(
            v,
            Violation::GapTooLarge {
                gap: 4,
                limit: 2,
                ..
            }
        )));
        assert_eq!(report.worst_overshoot(), 2);
    }

    #[test]
    fn flags_interior_gap() {
        // t = 2, occurrences at columns 0 and 3 of a 4-cycle: gap 3 > 2.
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let mut p = BroadcastProgram::new(1, 4);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        p.place(pos(0, 3), PageId::new(0)).unwrap();
        let report = check(&p, &ladder);
        assert_eq!(
            report.violations(),
            &[Violation::GapTooLarge {
                page: PageId::new(0),
                gap: 3,
                limit: 2
            }]
        );
        assert_eq!(report.worst_overshoot(), 1);
    }

    #[test]
    fn single_occurrence_with_long_cycle_violates() {
        let ladder = GroupLadder::new(vec![(4, 1)]).unwrap();
        let mut p = BroadcastProgram::new(1, 10);
        p.place(pos(0, 0), PageId::new(0)).unwrap();
        let report = check(&p, &ladder);
        // Whole-cycle gap of 10 > 4.
        assert!(matches!(
            report.violations()[0],
            Violation::GapTooLarge {
                gap: 10,
                limit: 4,
                ..
            }
        ));
    }

    #[test]
    fn multi_channel_same_column_counts_once_but_satisfies() {
        let ladder = GroupLadder::new(vec![(2, 1)]).unwrap();
        let mut p = BroadcastProgram::new(2, 2);
        p.place(pos(0, 1), PageId::new(0)).unwrap();
        p.place(pos(1, 1), PageId::new(0)).unwrap();
        // occurrences at column 1 only; cyclic gap = 2 <= 2; first col 1 < 2.
        assert!(check(&p, &ladder).is_valid());
    }

    #[test]
    fn violation_accessors_and_display() {
        let v = Violation::GapTooLarge {
            page: PageId::new(3),
            gap: 9,
            limit: 4,
        };
        assert_eq!(v.page(), PageId::new(3));
        assert!(v.to_string().contains("9-slot gap"));
        let v = Violation::NeverBroadcast {
            page: PageId::new(1),
        };
        assert!(v.to_string().contains("never broadcast"));
    }

    #[test]
    fn report_display_counts_violations() {
        let ladder = GroupLadder::new(vec![(2, 2)]).unwrap();
        let p = BroadcastProgram::new(1, 2);
        let report = check(&p, &ladder);
        assert!(report.to_string().contains("2 violation(s)"));
    }
}
