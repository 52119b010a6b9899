//! The solver-vs-analyzer oracle: on any program — pristine or
//! deliberately mutilated — the difference-constraint solver's verdict
//! must agree *exactly* with `airsched_core::validity::check` and with
//! the deadline half of the lint rule set, and every `Infeasible`
//! verdict must carry a certificate that replays under an independent
//! checker implemented here (not the solver's own `Certificate::replay`).

use airsched_core::bound::minimum_channels;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::PageId;
use airsched_core::{susc, validity};
use airsched_lint::{lint, LintConfig, LintInput, RuleId, Severity};
use airsched_sim::mutilate;
use airsched_solve::{check_ladder, check_program, minimal_feasible_channels, Certificate};

use proptest::prelude::*;

fn arb_ladder() -> impl Strategy<Value = GroupLadder> {
    (1u64..=4, 2u64..=3, prop::collection::vec(1u64..=12, 2..=4))
        .prop_map(|(t1, c, counts)| GroupLadder::geometric(t1, c, &counts).unwrap())
}

/// Replays a certificate from scratch: walks the public edge list,
/// checks that consecutive edges chain (each edge's minuend is the next
/// edge's subtrahend, cyclically), and that the bounds telescope to a
/// negative sum. Deliberately re-implemented here — sharing none of the
/// solver's code — so a bug in `Certificate::replay` cannot vouch for
/// itself.
fn independent_replay(cert: &Certificate) -> Result<i64, String> {
    let edges = cert.edges();
    if edges.is_empty() {
        return Err("empty certificate".into());
    }
    let mut sum: i64 = 0;
    for (i, edge) in edges.iter().enumerate() {
        let next = &edges[(i + 1) % edges.len()];
        // Chaining by *name*: the variables' display strings are the
        // cross-tool identity (the JSON renderer and CI's python
        // replayer use the same strings).
        if edge.minuend.display() != next.subtrahend.display() {
            return Err(format!(
                "edge {i} ends at {} but edge {} starts at {}",
                edge.minuend.display(),
                (i + 1) % edges.len(),
                next.subtrahend.display()
            ));
        }
        sum = sum.checked_add(edge.bound).ok_or("bound sum overflow")?;
    }
    if sum >= 0 {
        return Err(format!("bounds telescope to {sum} >= 0"));
    }
    Ok(sum)
}

/// Whether the full lint rule set denies the program for a *deadline*
/// reason — the half of the analyzer whose semantics the solver
/// re-derives (structural rules like AP05 have no feasibility content).
fn lint_denies_deadlines(program: &BroadcastProgram, ladder: &GroupLadder) -> bool {
    let report = lint(
        &LintInput::for_program(program, ladder),
        &LintConfig::default(),
    );
    report.diagnostics().iter().any(|d| {
        d.severity == Severity::Deny
            && matches!(
                d.rule,
                RuleId::ExpectedTimeGap
                    | RuleId::FirstAppearanceLate
                    | RuleId::NeverBroadcast
                    | RuleId::ChannelsBelowMinimum
            )
    })
}

/// Asserts the three-way agreement on one program, independently
/// replaying the certificate when the verdict is infeasible.
fn assert_verdicts_agree(program: &BroadcastProgram, ladder: &GroupLadder, context: &str) {
    let verdict = check_program(program, ladder);
    let valid = validity::check(program, ladder).is_valid();
    assert_eq!(
        verdict.is_feasible(),
        valid,
        "{context}: solver {} but validity {valid}",
        verdict.is_feasible(),
    );
    let lint_deny = lint_denies_deadlines(program, ladder);
    assert_eq!(
        verdict.is_feasible(),
        !lint_deny,
        "{context}: solver {} but lint deadline-deny {lint_deny}",
        verdict.is_feasible(),
    );
    if let Some(cert) = verdict.certificate() {
        let sum =
            independent_replay(cert).unwrap_or_else(|e| panic!("{context}: replay failed: {e}"));
        assert!(sum < 0, "{context}: replayed sum {sum} not negative");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 3.1's closed form and the solver's binary search over
    /// actual negative-cycle probes find the same minimum on any ladder.
    #[test]
    fn solver_minimum_matches_theorem_bound(ladder in arb_ladder()) {
        let solver_min = minimal_feasible_channels(&ladder).unwrap();
        prop_assert_eq!(solver_min, minimum_channels(&ladder));
    }

    /// Ladder-mode verdicts flip from infeasible (with a replayable
    /// certificate) to feasible (with a validity-clean witness) exactly
    /// at the minimum, and the witness is the SUSC program at that
    /// budget.
    #[test]
    fn ladder_verdicts_bracket_the_minimum(ladder in arb_ladder()) {
        let min = minimum_channels(&ladder);
        for n in min.saturating_sub(2)..=min + 1 {
            let verdict = check_ladder(&ladder, n).unwrap();
            prop_assert_eq!(verdict.is_feasible(), n >= min, "n = {}", n);
            match (verdict.witness(), verdict.certificate()) {
                (Some(witness), None) => {
                    prop_assert!(validity::check(witness, &ladder).is_valid());
                    prop_assert_eq!(witness, &susc::schedule(&ladder, n).unwrap());
                }
                (None, Some(cert)) => {
                    prop_assert!(independent_replay(cert).unwrap() < 0);
                }
                _ => prop_assert!(false, "verdict is neither witness nor certificate"),
            }
        }
    }

    /// A pristine SUSC program at the minimum passes all three judges.
    #[test]
    fn pristine_programs_agree_feasible(ladder in arb_ladder()) {
        let min = minimum_channels(&ladder);
        let program = susc::schedule(&ladder, min).unwrap();
        assert_verdicts_agree(&program, &ladder, "pristine");
        prop_assert!(check_program(&program, &ladder).is_feasible());
    }

    /// Every mutilation helper's output gets the same verdict from the
    /// solver, `validity::check`, and the lint deadline rules — and
    /// every infeasibility certificate replays independently.
    #[test]
    fn mutilated_programs_agree_exactly(
        ladder in arb_ladder(),
        victim_seed in 0u64..1000,
    ) {
        let min = minimum_channels(&ladder);
        let program = susc::schedule(&ladder, min).unwrap();
        let victim = PageId::new(
            u32::try_from(victim_seed % ladder.total_pages()).unwrap(),
        );
        let mutations: Vec<(&str, BroadcastProgram)> = vec![
            ("drop_page", mutilate::drop_page(&program, victim)),
            (
                "thin_to_first_occurrence",
                mutilate::thin_to_first_occurrence(&program, victim),
            ),
            (
                "delay_first_appearance",
                mutilate::delay_first_appearance(&program, victim),
            ),
        ];
        for (name, mutated) in &mutations {
            assert_verdicts_agree(mutated, &ladder, name);
        }
        // Duplication wastes capacity but breaks no deadline: all three
        // judges must keep calling the program feasible.
        if let Some(duplicated) = mutilate::duplicate_in_column(&program, victim) {
            assert_verdicts_agree(&duplicated, &ladder, "duplicate_in_column");
            prop_assert!(check_program(&duplicated, &ladder).is_feasible());
        }
    }
}

/// The irregular-ladder regime (divisibility without a uniform ratio):
/// the same exact agreement holds where the geometric rearrangement
/// machinery does not apply.
#[test]
fn irregular_ladder_verdicts_agree() {
    let ladder = GroupLadder::new(vec![(2, 1), (4, 2), (12, 6)]).unwrap();
    assert!(ladder.uniform_ratio().is_none());
    let min = minimum_channels(&ladder);
    assert_eq!(minimal_feasible_channels(&ladder).unwrap(), min);
    for n in 1..=min + 1 {
        let verdict = check_ladder(&ladder, n).unwrap();
        assert_eq!(verdict.is_feasible(), n >= min, "n = {n}");
        if let Some(cert) = verdict.certificate() {
            assert!(independent_replay(cert).unwrap() < 0);
        }
        if let Some(witness) = verdict.witness() {
            assert!(validity::check(witness, &ladder).is_valid());
            assert_eq!(witness, &susc::schedule(&ladder, n).unwrap());
            let report = lint(
                &LintInput::for_program(witness, &ladder),
                &LintConfig::default(),
            );
            // The only acceptable finding is the ladder-shape warning —
            // irregular ladders are non-geometric by construction; the
            // *program* must draw no diagnostics at all.
            assert!(
                report
                    .diagnostics()
                    .iter()
                    .all(|d| d.rule == RuleId::NonGeometricLadder),
                "{report}"
            );
        }
    }
}
