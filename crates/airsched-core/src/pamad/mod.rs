//! PAMAD — Progressively Approaching Minimum Average Delay (§4).
//!
//! The paper's scheduler for the *insufficient-channel* regime
//! (`N_real < N_min`). Instead of dropping pages (which would push their
//! readers onto the congested on-demand channel), PAMAD lowers per-group
//! broadcast frequencies so every page still airs, spreading the unavoidable
//! delay evenly:
//!
//! 1. [`derive_frequencies`] (Algorithm 3) picks frequencies `S_1 .. S_h`
//!    stage by stage, minimizing the analytic average group delay `D'`
//!    (Equation 2) at each stage;
//! 2. [`place_frequencies`] (Algorithm 4) spreads each page's `S_i`
//!    appearances evenly over the major cycle
//!    `t_major = ceil(sum S_i P_i / N_real)`.
//!
//! [`schedule`] runs both and returns the combined outcome. PAMAD is total:
//! it also works with sufficient channels (where it reproduces SUSC's
//! frequencies and a valid program), but [`crate::susc`] is the right tool
//! there.

mod frequency;
mod placement;

pub use frequency::{
    derive_frequencies, Candidate, FrequencyPlan, StageTrace, DEFAULT_TRACE_WINDOW, MAX_STAGE_RANGE,
};
pub use placement::{place_frequencies, Placement, PlacementStats};

use crate::delay::Weighting;
use crate::error::ScheduleError;
use crate::group::GroupLadder;
use crate::program::BroadcastProgram;

/// The complete result of a PAMAD run.
#[derive(Debug, Clone, PartialEq)]
pub struct PamadOutcome {
    plan: FrequencyPlan,
    placement: Placement,
}

impl PamadOutcome {
    /// The frequency plan chosen by Algorithm 3.
    #[must_use]
    pub fn plan(&self) -> &FrequencyPlan {
        &self.plan
    }

    /// The placed broadcast program.
    #[must_use]
    pub fn program(&self) -> &BroadcastProgram {
        self.placement.program()
    }

    /// Placement diagnostics from Algorithm 4.
    #[must_use]
    pub fn placement_stats(&self) -> PlacementStats {
        self.placement.stats()
    }

    /// Consumes the outcome, returning the program.
    #[must_use]
    pub fn into_program(self) -> BroadcastProgram {
        self.placement.into_program()
    }
}

/// Runs the full PAMAD pipeline with the paper-literal Equation 2 objective.
///
/// # Errors
///
/// Returns [`ScheduleError::NoChannels`] if `n_real == 0`. (Frequency
/// derivation itself cannot fail; placement errors other than the channel
/// check are unreachable because the plan's arity always matches.)
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::pamad;
///
/// // Figure 2: the 4-channel workload scheduled on 3 channels.
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
/// let outcome = pamad::schedule(&ladder, 3)?;
/// assert_eq!(outcome.plan().frequencies(), &[4, 2, 1]);
/// assert_eq!(outcome.program().cycle_len(), 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule(ladder: &GroupLadder, n_real: u32) -> Result<PamadOutcome, ScheduleError> {
    schedule_with(ladder, n_real, Weighting::PaperEq2)
}

/// [`schedule`] with an explicit objective weighting (for ablations).
///
/// # Errors
///
/// As [`schedule`].
pub fn schedule_with(
    ladder: &GroupLadder,
    n_real: u32,
    weighting: Weighting,
) -> Result<PamadOutcome, ScheduleError> {
    if n_real == 0 {
        return Err(ScheduleError::NoChannels);
    }
    let plan = derive_frequencies(ladder, n_real, weighting);
    let placement = place_frequencies(ladder, plan.frequencies(), n_real)?;
    Ok(PamadOutcome { plan, placement })
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
    fn paper_worked_example_end_to_end() {
        let outcome = schedule(&fig2_ladder(), 3).unwrap();
        assert_eq!(outcome.plan().frequencies(), &[4, 2, 1]);
        assert_eq!(outcome.plan().ratios(), &[2, 2]);
        let program = outcome.program();
        assert_eq!(program.cycle_len(), 9);
        assert_eq!(program.channels(), 3);
        assert_eq!(program.occupied_slots(), 25);
        // The measured average delay of the materialized program is small
        // (the analytic objective was 0.0417 under idealized spreading).
        let d = expected_program_delay(program, &fig2_ladder()).unwrap();
        assert!(d < 0.5, "measured delay {d} unexpectedly large");
    }

    #[test]
    fn sufficient_channels_produce_a_valid_program() {
        let ladder = fig2_ladder();
        let outcome = schedule(&ladder, 4).unwrap();
        // Frequencies match SUSC's t_h/t_i.
        assert_eq!(outcome.plan().frequencies(), &[4, 2, 1]);
        let report = validity::check(outcome.program(), &ladder);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn more_channels_never_hurt_measured_delay() {
        let ladder = GroupLadder::geometric(4, 2, &[20, 30, 25, 25]).unwrap();
        let mut last = f64::INFINITY;
        for n in 1..=6u32 {
            let outcome = schedule(&ladder, n).unwrap();
            let d = expected_program_delay(outcome.program(), &ladder).unwrap();
            assert!(
                d <= last + 1e-6,
                "delay should not grow with channels: {n} channels -> {d}, prev {last}"
            );
            last = d;
        }
    }

    #[test]
    fn zero_channels_error() {
        assert!(matches!(
            schedule(&fig2_ladder(), 0),
            Err(ScheduleError::NoChannels)
        ));
    }

    #[test]
    fn every_page_airs_even_on_one_channel() {
        let ladder = GroupLadder::geometric(2, 2, &[10, 20, 15]).unwrap();
        let outcome = schedule(&ladder, 1).unwrap();
        for (page, _) in ladder.pages() {
            assert!(
                outcome.program().frequency(page) >= 1,
                "page {page} must air at least once"
            );
        }
        assert_eq!(outcome.placement_stats().dropped, 0);
    }

    #[test]
    fn into_program_matches_program() {
        let outcome = schedule(&fig2_ladder(), 3).unwrap();
        let cloned = outcome.program().clone();
        assert_eq!(outcome.into_program(), cloned);
    }
}
