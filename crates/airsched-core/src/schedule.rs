//! Top-level scheduling facade: picks SUSC or PAMAD by channel budget.
//!
//! This is the entry point a broadcast server would use: give it the
//! workload and the channels you actually have, and it applies the paper's
//! decision rule — SUSC when `N_real >= N_min` (every deadline met), PAMAD
//! otherwise (delay minimized and spread evenly).

use crate::bound::minimum_channels;
use crate::error::ScheduleError;
use crate::group::GroupLadder;
use crate::pamad;
use crate::program::BroadcastProgram;
use crate::susc;

/// Which algorithm the facade selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sufficient channels: SUSC, every expected time met.
    Susc,
    /// Insufficient channels: PAMAD, delay minimized.
    Pamad,
}

impl core::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Susc => write!(f, "SUSC"),
            Self::Pamad => write!(f, "PAMAD"),
        }
    }
}

/// The outcome of [`build_program`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    program: BroadcastProgram,
    algorithm: Algorithm,
    minimum_channels: u32,
    frequencies: Vec<u64>,
}

impl ScheduleOutcome {
    /// The produced broadcast program.
    #[must_use]
    pub fn program(&self) -> &BroadcastProgram {
        &self.program
    }

    /// Consumes the outcome, returning the program.
    #[must_use]
    pub fn into_program(self) -> BroadcastProgram {
        self.program
    }

    /// Which algorithm ran.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Theorem 3.1's minimum channel count for the workload.
    #[must_use]
    pub fn minimum_channels(&self) -> u32 {
        self.minimum_channels
    }

    /// Per-group broadcast frequencies used (`t_h/t_i` under SUSC, the
    /// Algorithm 3 plan under PAMAD).
    #[must_use]
    pub fn frequencies(&self) -> &[u64] {
        &self.frequencies
    }

    /// Whether every expected time is guaranteed (SUSC regime).
    #[must_use]
    pub fn meets_all_deadlines(&self) -> bool {
        self.algorithm == Algorithm::Susc
    }
}

/// Schedules `ladder` on `n_real` channels, selecting the right algorithm.
///
/// # Errors
///
/// Returns [`ScheduleError::NoChannels`] if `n_real == 0`; internal
/// placement failures propagate as [`ScheduleError::PlacementFailed`]
/// (not expected to occur).
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::schedule::{build_program, Algorithm};
///
/// let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?; // needs 4
/// let plenty = build_program(&ladder, 5)?;
/// assert_eq!(plenty.algorithm(), Algorithm::Susc);
/// let scarce = build_program(&ladder, 3)?;
/// assert_eq!(scarce.algorithm(), Algorithm::Pamad);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
pub fn build_program(ladder: &GroupLadder, n_real: u32) -> Result<ScheduleOutcome, ScheduleError> {
    if n_real == 0 {
        return Err(ScheduleError::NoChannels);
    }
    let min = minimum_channels(ladder);
    if n_real >= min {
        let program = susc::schedule(ladder, n_real)?;
        let frequencies = ladder
            .times()
            .iter()
            .map(|&t| ladder.max_time() / t)
            .collect();
        Ok(ScheduleOutcome {
            program,
            algorithm: Algorithm::Susc,
            minimum_channels: min,
            frequencies,
        })
    } else {
        let outcome = pamad::schedule(ladder, n_real)?;
        let frequencies = outcome.plan().frequencies().to_vec();
        Ok(ScheduleOutcome {
            program: outcome.into_program(),
            algorithm: Algorithm::Pamad,
            minimum_channels: min,
            frequencies,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity;

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn selects_susc_at_and_above_minimum() {
        for n in 4..=6u32 {
            let outcome = build_program(&fig2_ladder(), n).unwrap();
            assert_eq!(outcome.algorithm(), Algorithm::Susc);
            assert!(outcome.meets_all_deadlines());
            assert!(validity::check(outcome.program(), &fig2_ladder()).is_valid());
        }
    }

    #[test]
    fn selects_pamad_below_minimum() {
        for n in 1..=3u32 {
            let outcome = build_program(&fig2_ladder(), n).unwrap();
            assert_eq!(outcome.algorithm(), Algorithm::Pamad);
            assert!(!outcome.meets_all_deadlines());
            assert_eq!(outcome.minimum_channels(), 4);
        }
    }

    #[test]
    fn frequencies_reported_for_both_regimes() {
        let susc = build_program(&fig2_ladder(), 4).unwrap();
        assert_eq!(susc.frequencies(), &[4, 2, 1]);
        let pamad = build_program(&fig2_ladder(), 3).unwrap();
        assert_eq!(pamad.frequencies(), &[4, 2, 1]); // Fig. 2 coincidence
    }

    #[test]
    fn zero_channels_error() {
        assert!(matches!(
            build_program(&fig2_ladder(), 0),
            Err(ScheduleError::NoChannels)
        ));
    }

    #[test]
    fn algorithm_display() {
        assert_eq!(Algorithm::Susc.to_string(), "SUSC");
        assert_eq!(Algorithm::Pamad.to_string(), "PAMAD");
    }

    #[test]
    fn into_program_returns_same_grid() {
        let outcome = build_program(&fig2_ladder(), 3).unwrap();
        let snapshot = outcome.program().clone();
        assert_eq!(outcome.into_program(), snapshot);
    }
}
