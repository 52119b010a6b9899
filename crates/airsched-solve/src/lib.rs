//! Semantic feasibility analysis for broadcast schedules, in the style of
//! clock-zone (DBM) timed-automata checking.
//!
//! Where `airsched-lint` pattern-matches programs against eleven
//! syntactic rules, this crate *proves* things. The paper's validity
//! condition — every tune-in instant meets every expected time — is
//! encoded as a system of difference constraints `u - v <= c` over
//! per-page occurrence columns (the `encode` module documents the exact
//! edges, including the sorted-token chain that turns the one-page-per-cell
//! capacity bound into difference form). Bellman–Ford-style negative-cycle
//! detection over the constraint graph then yields, for every question,
//! an artifact a third party can check without trusting the solver:
//!
//! * **`Feasible`** carries a concrete witness schedule: the SUSC program
//!   ([`airsched_core::susc::schedule`]) at the certified budget, which
//!   passes [`airsched_core::validity::check`] and the strict lint set;
//! * **`Infeasible`** carries a [`Certificate`]: the exact negative cycle,
//!   as a list of constraint edges whose bounds telescope below zero.
//!   [`Certificate::replay`] (or a dozen lines of python over the JSON
//!   rendering) re-adds the cycle and confirms the refutation.
//!
//! On group ladders the oracle is exact: divisibility (`t_i | t_{i+1}`)
//! makes Theorem 3.1's bound tight, and the capacity chain's negative
//! cycle appears exactly when the budget is below that bound. (General
//! pinwheel feasibility is NP-hard; this crate never claims exactness
//! beyond the divisible structure [`GroupLadder`] enforces.) On concrete
//! programs the observed-mode verdict matches `validity::check` exactly
//! for arbitrary per-page deadlines.
//!
//! The crate also hosts the Kenyon–Schabanel–Young-style PTAS baseline
//! ([`mod@crate::ptas`]) so approximation quality can be measured against
//! the exact OPT search.

pub mod certificate;
mod encode;
mod graph;
pub mod ptas;
pub mod render;

use airsched_core::bound::{minimum_channels, minimum_channels_for_times};
use airsched_core::error::ScheduleError;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::susc;
use airsched_core::types::PageId;

pub use certificate::{CertEdge, Certificate, ConstraintKind, ReplayError, Subject, VarName};

/// The solver's answer: a proof either way.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A valid schedule exists; here is one.
    Feasible(Box<BroadcastProgram>),
    /// No valid schedule exists; here is the negative cycle proving it.
    Infeasible(Box<Certificate>),
}

impl Verdict {
    /// Whether the verdict is feasible.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        matches!(self, Self::Feasible(_))
    }

    /// The witness schedule, when feasible.
    #[must_use]
    pub fn witness(&self) -> Option<&BroadcastProgram> {
        match self {
            Self::Feasible(program) => Some(program),
            Self::Infeasible(_) => None,
        }
    }

    /// The infeasibility certificate, when infeasible.
    #[must_use]
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            Self::Feasible(_) => None,
            Self::Infeasible(cert) => Some(cert),
        }
    }
}

/// Decides whether any valid program for `ladder` fits `channels`
/// channels, returning a witness schedule or a negative-cycle
/// certificate.
///
/// The verdict is the constraint system's alone. On a divisible ladder a
/// budget without a negative cycle is at least Theorem 3.1's bound, where
/// SUSC's tightest-first placement provably succeeds (the residue-class
/// argument in [`airsched_core::susc`]), so the witness is
/// [`susc::schedule`]'s program: every page aired exactly `T / t_p` times,
/// `t_p` apart, first inside its window.
///
/// # Errors
///
/// Returns [`ScheduleError::WorkloadTooLarge`] when the constraint
/// system would exceed the solver's size budget, and passes on
/// [`susc::schedule`]'s error should the witness fail to place (which
/// the argument above rules out).
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::validity;
///
/// // Paper §3.1: P = (2, 3), t = (2, 4) needs ceil(1.75) = 2 channels.
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let yes = airsched_solve::check_ladder(&ladder, 2)?;
/// assert!(validity::check(yes.witness().unwrap(), &ladder).is_valid());
/// let no = airsched_solve::check_ladder(&ladder, 1)?;
/// assert!(no.certificate().unwrap().replay().unwrap() < 0);
/// # Ok::<(), airsched_core::error::ScheduleError>(())
/// ```
pub fn check_ladder(ladder: &GroupLadder, channels: u32) -> Result<Verdict, ScheduleError> {
    if let Some(edges) = encode::ladder_system(ladder, channels)?.negative_cycle() {
        return Ok(Verdict::Infeasible(Box::new(Certificate::new(
            ladder_subject(ladder, channels),
            edges,
        ))));
    }
    Ok(Verdict::Feasible(Box::new(susc::schedule(
        ladder, channels,
    )?)))
}

/// Checks a concrete `program` against the `ladder` it was scheduled
/// from. The verdict agrees exactly with
/// [`airsched_core::validity::check`]: `Feasible` iff the report is
/// valid, with the (cloned) program itself as the witness.
#[must_use]
pub fn check_program(program: &BroadcastProgram, ladder: &GroupLadder) -> Verdict {
    let deadlines: Vec<(PageId, u64)> = ladder
        .pages()
        .map(|(page, group)| (page, ladder.time_of(group).slots()))
        .collect();
    check_observed(program, &deadlines)
}

/// Checks a concrete `program` against raw per-page deadlines, as the
/// station's plan-swap gate sees them (no ladder structure assumed).
#[must_use]
pub fn check_observed(program: &BroadcastProgram, deadlines: &[(PageId, u64)]) -> Verdict {
    let graph = encode::observed_system(program, deadlines);
    if let Some(edges) = graph.negative_cycle() {
        let subject = Subject::Program {
            channels: program.channels(),
            cycle: program.cycle_len(),
            pages: deadlines.len() as u64,
        };
        return Verdict::Infeasible(Box::new(Certificate::new(subject, edges)));
    }
    Verdict::Feasible(Box::new(program.clone()))
}

/// Synthesizes a valid program for `ladder` on `channels` channels.
///
/// This is the convenience form of [`check_ladder`] for callers that
/// only want the schedule; the certificate is folded into an error.
/// The ladder is packed as given: unlike the paper's pipeline, which
/// rounds a catalogue onto a geometric ladder ([`airsched_core::rearrange`])
/// before SUSC, irregular (divisibility-only) ladders keep their true
/// expected times and often fit fewer channels.
///
/// # Errors
///
/// [`ScheduleError::InsufficientChannels`] below the feasible minimum,
/// or [`ScheduleError::WorkloadTooLarge`] when the system exceeds the
/// solver's size budget.
pub fn synthesize(ladder: &GroupLadder, channels: u32) -> Result<BroadcastProgram, ScheduleError> {
    match check_ladder(ladder, channels)? {
        Verdict::Feasible(program) => Ok(*program),
        Verdict::Infeasible(_) => Err(ScheduleError::InsufficientChannels {
            supplied: channels,
            required: minimum_channels(ladder),
        }),
    }
}

/// The smallest channel budget the solver finds feasible, by doubling
/// then binary search over [`check_ladder`]'s verdict (no appeal to
/// Theorem 3.1's formula — this is the independent oracle the bound is
/// cross-checked against).
///
/// # Errors
///
/// Returns [`ScheduleError::WorkloadTooLarge`] when the constraint
/// system exceeds the solver's size budget.
pub fn minimal_feasible_channels(ladder: &GroupLadder) -> Result<u32, ScheduleError> {
    let infeasible = |n: u32| -> Result<bool, ScheduleError> {
        Ok(encode::ladder_system(ladder, n)?.negative_cycle().is_some())
    };
    let mut hi = 1u32;
    while infeasible(hi)? {
        hi = hi.checked_mul(2).ok_or(ScheduleError::WorkloadTooLarge {
            reason: "no feasible channel budget below u32::MAX",
        })?;
    }
    let mut lo = hi / 2; // 0, or the last budget probed infeasible.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if infeasible(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(hi)
}

/// One cross-check of the three independent Theorem 3.1 readings:
/// the solver's search, the ladder bound, and the raw-catalogue bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossCheck {
    /// [`minimal_feasible_channels`]: the solver's answer.
    pub solver: u32,
    /// [`airsched_core::bound::minimum_channels`]: the ladder formula.
    pub bound: u32,
    /// [`airsched_core::bound::minimum_channels_for_times`] over the
    /// expanded per-page times: the catalogue formula.
    pub catalogue: u32,
}

impl CrossCheck {
    /// Whether all three answers agree.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.solver == self.bound && self.bound == self.catalogue
    }
}

/// Computes all three Theorem 3.1 readings for `ladder`.
///
/// # Errors
///
/// Propagates solver size limits and catalogue-bound overflow as
/// [`ScheduleError`].
pub fn cross_check_minimum(ladder: &GroupLadder) -> Result<CrossCheck, ScheduleError> {
    let mut times = Vec::with_capacity(ladder.total_pages() as usize);
    for (_, group) in ladder.pages() {
        times.push(ladder.time_of(group).slots());
    }
    Ok(CrossCheck {
        solver: minimal_feasible_channels(ladder)?,
        bound: minimum_channels(ladder),
        catalogue: minimum_channels_for_times(&times)?,
    })
}

fn ladder_subject(ladder: &GroupLadder, channels: u32) -> Subject {
    Subject::Ladder {
        times: ladder.times().to_vec(),
        counts: ladder.page_counts().to_vec(),
        cycle: ladder.max_time(),
        channels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::{pamad, validity};
    use airsched_lint::{lint, LintConfig, LintInput};

    fn paper_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap()
    }

    #[test]
    fn feasible_witness_is_valid_and_lint_clean() {
        let ladder = paper_ladder();
        let verdict = check_ladder(&ladder, 2).unwrap();
        let witness = verdict.witness().expect("2 channels suffice");
        assert!(validity::check(witness, &ladder).is_valid());
        let report = lint(
            &LintInput::for_program(witness, &ladder),
            &LintConfig::default(),
        );
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn infeasible_certificate_replays() {
        let ladder = paper_ladder();
        let verdict = check_ladder(&ladder, 1).unwrap();
        let cert = verdict.certificate().expect("1 channel is too few");
        let sum = cert.replay().expect("certificate must replay");
        assert!(sum < 0);
        assert!(!verdict.is_feasible());
    }

    #[test]
    fn program_verdicts_match_validity_check() {
        let ladder = paper_ladder();
        let good = susc::schedule(&ladder, 2).unwrap();
        assert!(check_program(&good, &ladder).is_feasible());
        // PAMAD below the minimum misses deadlines; both oracles say so.
        let bad = pamad::schedule(&ladder, 1).unwrap().into_program();
        let report = validity::check(&bad, &ladder);
        let verdict = check_program(&bad, &ladder);
        assert_eq!(report.is_valid(), verdict.is_feasible());
        if let Some(cert) = verdict.certificate() {
            assert!(cert.replay().is_ok());
            assert!(cert.edges().iter().any(|e| e.kind.is_observation()));
        }
    }

    #[test]
    fn synthesize_reports_insufficient_channels() {
        let ladder = paper_ladder();
        assert!(synthesize(&ladder, 2).is_ok());
        assert!(matches!(
            synthesize(&ladder, 1),
            Err(ScheduleError::InsufficientChannels {
                supplied: 1,
                required: 2
            })
        ));
    }

    #[test]
    fn geometric_ladder_synthesizes_valid_at_minimum() {
        let ladder = paper_ladder();
        let program = synthesize(&ladder, minimum_channels(&ladder)).unwrap();
        let report = validity::check(&program, &ladder);
        assert!(report.is_valid(), "{report:?}");
    }

    #[test]
    fn irregular_ladder_synthesizes_valid_at_minimum() {
        // 2 | 4 | 12 but no uniform ratio: rearrangement would round 12
        // down to 8 and waste bandwidth; the witness packs it as-is.
        let ladder = GroupLadder::new(vec![(2, 1), (4, 2), (12, 6)]).unwrap();
        assert!(ladder.uniform_ratio().is_none());
        let min = minimum_channels(&ladder);
        let program = synthesize(&ladder, min).unwrap();
        assert!(validity::check(&program, &ladder).is_valid());
        assert_eq!(program.channels(), min);
    }

    #[test]
    fn synthesized_airings_are_exactly_canonical() {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3), (8, 5)]).unwrap();
        let program = synthesize(&ladder, minimum_channels(&ladder)).unwrap();
        for (page, group) in ladder.pages() {
            let t = ladder.time_of(group).slots();
            assert_eq!(
                program.frequency(page),
                ladder.max_time() / t,
                "page {page:?}"
            );
        }
    }

    #[test]
    fn extra_channels_are_tolerated() {
        let ladder = GroupLadder::new(vec![(2, 1), (4, 1)]).unwrap();
        let program = synthesize(&ladder, minimum_channels(&ladder) + 3).unwrap();
        assert!(validity::check(&program, &ladder).is_valid());
    }

    #[test]
    fn minimal_channels_agree_with_both_bounds() {
        for groups in [
            vec![(2, 2), (4, 3)],
            vec![(2, 1), (4, 2), (12, 6)],
            vec![(3, 7)],
            vec![(2, 5), (6, 1), (12, 4), (24, 8)],
        ] {
            let ladder = GroupLadder::new(groups).unwrap();
            let check = cross_check_minimum(&ladder).unwrap();
            assert!(check.agrees(), "{check:?} on {ladder:?}");
        }
    }

    #[test]
    fn empty_deadline_set_is_trivially_feasible() {
        let program = BroadcastProgram::new(1, 4);
        assert!(check_observed(&program, &[]).is_feasible());
    }
}
