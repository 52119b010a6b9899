//! Program quality reports: everything an operator wants to know about a
//! broadcast program at a glance.
//!
//! [`analyze`] condenses a program + workload pair into per-group spacing
//! statistics, utilization, validity and the analytic expected delay — the
//! numbers the CLI's `inspect` command prints and dashboards would export.

use core::fmt;

use crate::delay::expected_page_delay;
use crate::group::GroupLadder;
use crate::program::BroadcastProgram;
use crate::types::GroupId;
use crate::validity::{self, ValidityReport};

/// Spacing and delay statistics for one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupReport {
    /// The group.
    pub group: GroupId,
    /// Expected time `t_i`, in slots.
    pub expected_time: u64,
    /// Pages of the group present in the program.
    pub pages_present: u64,
    /// Smallest cyclic gap over the group's pages (0 if none present).
    pub min_gap: u64,
    /// Largest cyclic gap over the group's pages.
    pub max_gap: u64,
    /// Mean cyclic gap over the group's pages.
    pub mean_gap: f64,
    /// Mean analytic expected delay over the group's pages, in slots.
    pub mean_delay: f64,
}

impl GroupReport {
    /// Whether every page of the group meets its deadline from any
    /// tune-in instant.
    #[must_use]
    pub fn meets_deadline(&self) -> bool {
        self.pages_present > 0 && self.max_gap <= self.expected_time
    }
}

/// The full analysis of a program against a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// Channels and cycle dimensions plus fill level, in `[0, 1]`.
    pub utilization: f64,
    /// Grid capacity in cells.
    pub capacity: u64,
    /// Validity against the ladder.
    pub validity: ValidityReport,
    /// Analytic expected program delay (uniform access), `None` if some
    /// page never airs.
    pub expected_delay: Option<f64>,
    /// Per-group statistics, in ladder order.
    pub groups: Vec<GroupReport>,
}

impl fmt::Display for ProgramReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "utilization {:.1}% of {} cells; {}",
            self.utilization * 100.0,
            self.capacity,
            self.validity
        )?;
        match self.expected_delay {
            Some(d) => writeln!(f, "analytic expected delay: {d:.4} slots")?,
            None => writeln!(f, "analytic expected delay: undefined (missing pages)")?,
        }
        for g in &self.groups {
            writeln!(
                f,
                "  {} (t={}): {} page(s), gaps {}..{} (mean {:.2}), mean \
                 delay {:.3}{}",
                g.group,
                g.expected_time,
                g.pages_present,
                g.min_gap,
                g.max_gap,
                g.mean_gap,
                g.mean_delay,
                if g.meets_deadline() { "" } else { "  [late]" },
            )?;
        }
        Ok(())
    }
}

/// Analyzes `program` against `ladder`.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::report::analyze;
/// use airsched_core::susc;
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// let report = analyze(&program, &ladder);
/// assert!(report.validity.is_valid());
/// assert_eq!(report.expected_delay, Some(0.0));
/// assert!(report.groups.iter().all(|g| g.meets_deadline()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn analyze(program: &BroadcastProgram, ladder: &GroupLadder) -> ProgramReport {
    let mut groups = Vec::with_capacity(ladder.group_count());
    for info in ladder.groups() {
        let mut min_gap = u64::MAX;
        let mut max_gap = 0u64;
        let mut gap_sum = 0u64;
        let mut gap_count = 0u64;
        let mut delay_sum = 0.0;
        let mut present = 0u64;
        for page in info.page_ids() {
            if program.frequency(page) == 0 {
                continue;
            }
            present += 1;
            for g in program.cyclic_gaps(page) {
                min_gap = min_gap.min(g);
                max_gap = max_gap.max(g);
                gap_sum += g;
                gap_count += 1;
            }
            delay_sum += expected_page_delay(program, ladder, page).unwrap_or(0.0);
        }
        groups.push(GroupReport {
            group: info.id,
            expected_time: info.expected_time.slots(),
            pages_present: present,
            min_gap: if present == 0 { 0 } else { min_gap },
            max_gap,
            mean_gap: if gap_count == 0 {
                0.0
            } else {
                gap_sum as f64 / gap_count as f64
            },
            mean_delay: if present == 0 {
                0.0
            } else {
                delay_sum / present as f64
            },
        });
    }
    ProgramReport {
        utilization: program.utilization(),
        capacity: program.capacity(),
        validity: validity::check(program, ladder),
        expected_delay: crate::delay::expected_program_delay(program, ladder),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pamad, susc};

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn susc_report_is_clean() {
        let ladder = fig2_ladder();
        let program = susc::schedule(&ladder, 4).unwrap();
        let report = analyze(&program, &ladder);
        assert!(report.validity.is_valid());
        assert_eq!(report.expected_delay, Some(0.0));
        for g in &report.groups {
            assert!(g.meets_deadline(), "{g:?}");
            assert!(g.max_gap <= g.expected_time);
            assert_eq!(g.pages_present, ladder.pages_of(g.group));
        }
        let text = report.to_string();
        assert!(text.contains("valid broadcast program"));
        assert!(!text.contains("[late]"));
    }

    #[test]
    fn starved_pamad_report_flags_late_groups() {
        let ladder = fig2_ladder();
        let program = pamad::schedule(&ladder, 1).unwrap().into_program();
        let report = analyze(&program, &ladder);
        assert!(!report.validity.is_valid());
        assert!(report.expected_delay.unwrap() > 0.0);
        assert!(report.groups.iter().any(|g| !g.meets_deadline()));
        assert!(report.to_string().contains("[late]"));
    }

    #[test]
    fn gap_statistics_are_consistent() {
        let ladder = fig2_ladder();
        let program = pamad::schedule(&ladder, 3).unwrap().into_program();
        let report = analyze(&program, &ladder);
        for g in &report.groups {
            assert!(g.min_gap <= g.max_gap);
            assert!(g.mean_gap >= g.min_gap as f64 - 1e-9);
            assert!(g.mean_gap <= g.max_gap as f64 + 1e-9);
        }
    }

    #[test]
    fn missing_pages_leave_delay_undefined() {
        let ladder = GroupLadder::new(vec![(2, 2)]).unwrap();
        let mut program = BroadcastProgram::new(1, 2);
        program
            .place(
                crate::types::GridPos::new(
                    crate::types::ChannelId::new(0),
                    crate::types::SlotIndex::new(0),
                ),
                crate::types::PageId::new(0),
            )
            .unwrap();
        let report = analyze(&program, &ladder);
        assert_eq!(report.expected_delay, None);
        assert_eq!(report.groups[0].pages_present, 1);
        assert!(report.to_string().contains("undefined"));
    }
}
