//! Cross-algorithm and cross-crate consistency checks.

use airsched_core::bound::minimum_channels;
use airsched_core::delay::{expected_program_delay, Weighting};
use airsched_core::dynamic::OnlineScheduler;
use airsched_core::group::GroupLadder;
use airsched_core::{mpb, opt, pamad, susc, validity};
use airsched_sim::access::{exact_avg_delay, reference};
use airsched_sim::sim::{SimConfig, Simulation};
use airsched_workload::requests::{AccessPattern, RequestGenerator};

use proptest::prelude::*;

fn arb_ladder() -> impl Strategy<Value = GroupLadder> {
    (1u64..=4, 2u64..=3, prop::collection::vec(1u64..=25, 2..=5))
        .prop_map(|(t1, c, counts)| GroupLadder::geometric(t1, c, &counts).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The continuous analytic model and the exact discrete expectation
    /// agree closely on any PAMAD program (they differ only by sub-slot
    /// integration granularity).
    #[test]
    fn analytic_and_discrete_delay_agree(ladder in arb_ladder(), n in 1u32..5) {
        let program = pamad::schedule(&ladder, n).unwrap().into_program();
        let analytic = expected_program_delay(&program, &ladder).unwrap();
        let discrete = exact_avg_delay(&program, &ladder).unwrap();
        // Discrete waits round up to whole slots; the continuous model can
        // differ by at most one slot.
        prop_assert!(
            (analytic - discrete).abs() <= 1.0,
            "analytic {analytic} vs discrete {discrete}"
        );
    }

    /// At the minimum channel count SUSC is exactly zero-delay; PAMAD's
    /// even-spread placement stays small *relative to the workload's
    /// deadlines* (its Equation 8 cycle can be shorter than t_h and 100%
    /// full, so it cannot guarantee validity there — which is exactly why
    /// the paper, and our facade, use SUSC in the sufficient regime).
    #[test]
    fn susc_and_pamad_agree_at_minimum(ladder in arb_ladder()) {
        let min = minimum_channels(&ladder);
        let susc_program = susc::schedule(&ladder, min).unwrap();
        prop_assert_eq!(exact_avg_delay(&susc_program, &ladder), Some(0.0));
        let pamad_program = pamad::schedule(&ladder, min).unwrap().into_program();
        let d = exact_avg_delay(&pamad_program, &ladder).unwrap();
        let mean_t: f64 = ladder
            .times()
            .iter()
            .zip(ladder.page_counts())
            .map(|(&t, &p)| (t * p) as f64)
            .sum::<f64>()
            / ladder.total_pages() as f64;
        prop_assert!(
            d <= mean_t,
            "PAMAD at minimum: AvgD {d} vs mean expected time {mean_t}"
        );
    }

    /// The facade's SUSC region and PAMAD region partition the channel
    /// axis, and the boundary program is valid.
    #[test]
    fn facade_partitions_channel_axis(ladder in arb_ladder()) {
        let min = minimum_channels(&ladder);
        if min > 1 {
            let below = airsched_core::build_program(&ladder, min - 1).unwrap();
            prop_assert_eq!(below.algorithm(), airsched_core::Algorithm::Pamad);
        }
        let at = airsched_core::build_program(&ladder, min).unwrap();
        prop_assert_eq!(at.algorithm(), airsched_core::Algorithm::Susc);
        prop_assert!(validity::check(at.program(), &ladder).is_valid());
    }

    /// OPT's placed program never measures much worse than PAMAD's (they
    /// share the placement; only frequencies differ, and OPT's minimize the
    /// shared objective).
    #[test]
    fn opt_program_tracks_pamad_measured(ladder in arb_ladder(), n in 1u32..5) {
        let pamad_program = pamad::schedule(&ladder, n).unwrap().into_program();
        let opt_program = opt::search_r_structured(&ladder, n, Weighting::PaperEq2)
            .place(&ladder, n)
            .unwrap()
            .into_program();
        let d_pamad = exact_avg_delay(&pamad_program, &ladder).unwrap();
        let d_opt = exact_avg_delay(&opt_program, &ladder).unwrap();
        // Measured delay of OPT's frequencies should not be wildly above
        // PAMAD's. The analytic objective and the measured value diverge
        // through Algorithm 4 placement artifacts, so allow a couple of
        // slots of absolute slack on top of the relative band (both values
        // are typically a small fraction of the expected times).
        prop_assert!(
            d_opt <= d_pamad * 1.5 + 2.5,
            "OPT measured {d_opt} vs PAMAD {d_pamad}"
        );
    }

    /// Closed-form exact AvgD equals the brute-force per-arrival scan
    /// *bit-for-bit* on arbitrary valid programs — both accumulate the same
    /// integer delay total, so the f64 quotients are identical, not merely
    /// close.
    #[test]
    fn closed_form_exact_delay_matches_scan_on_programs(
        ladder in arb_ladder(),
        n in 1u32..5,
    ) {
        let program = pamad::schedule(&ladder, n).unwrap().into_program();
        prop_assert_eq!(
            exact_avg_delay(&program, &ladder),
            reference::exact_avg_delay_scan(&program, &ladder)
        );
    }

    /// Same equality on arbitrary *hand-mutilated* programs: random subsets
    /// of a page's occurrences (including dropping pages entirely, where
    /// both paths must return None) exercise invalid gap structures the
    /// schedulers never produce.
    #[test]
    fn closed_form_exact_delay_matches_scan_on_invalid_programs(
        ladder in arb_ladder(),
        keep_mask in prop::collection::vec(0u8..4, 1..64),
        drop_page in any::<bool>(),
    ) {
        use airsched_core::program::BroadcastProgram;
        use airsched_core::types::{ChannelId, GridPos, SlotIndex};

        // Rebuild a single-channel program keeping a pseudo-random subset of
        // each page's SUSC occurrences (kept ≡ keep_mask says so), possibly
        // dropping the last page entirely.
        let min = minimum_channels(&ladder);
        let source = susc::schedule(&ladder, min).unwrap();
        let cycle = source.cycle_len();
        let mut program = BroadcastProgram::new(1, cycle);
        let last_page = ladder.pages().last().unwrap().0;
        let mut placed_any = false;
        let mut dropped = false;
        for (idx, (page, _)) in ladder.pages().enumerate() {
            if drop_page && page == last_page && placed_any {
                dropped = true;
                continue;
            }
            let cols = source.occurrence_columns(page);
            for (k, &col) in cols.iter().enumerate() {
                let keep = keep_mask[(idx + k) % keep_mask.len()] != 0;
                // Always keep the first occurrence so the page stays
                // broadcast (unless deliberately dropped above).
                if !keep && k > 0 {
                    continue;
                }
                let pos = GridPos::new(ChannelId::new(0), SlotIndex::new(col));
                if program.page_at(pos).is_none() {
                    program.place(pos, page).unwrap();
                    placed_any = true;
                }
            }
        }
        let fast = exact_avg_delay(&program, &ladder);
        let slow = reference::exact_avg_delay_scan(&program, &ladder);
        prop_assert_eq!(fast, slow);
        if dropped {
            // A never-broadcast ladder page makes both paths bail.
            prop_assert_eq!(fast, None);
        }
    }

    /// Robustness: the station's failover rung is a SUSC re-pack of the
    /// live catalogue onto the survivors. For any ladder and any
    /// surviving-channel count at or above the Theorem 3.1 minimum, the
    /// rebuild must succeed and the resulting program must still pass the
    /// validity checker.
    #[test]
    fn failover_rebuild_stays_valid_above_minimum(ladder in arb_ladder(), extra in 1u32..4) {
        let min = minimum_channels(&ladder);
        let configured = min + extra;
        let catalogue: Vec<_> = ladder
            .pages()
            .map(|(page, group)| (page, ladder.time_of(group).slots()))
            .collect();
        let mut sched = OnlineScheduler::new(configured, ladder.max_time()).unwrap();
        sched.rebuild_with(&catalogue).unwrap();
        for survivors in min..configured {
            let mut probe = sched.clone();
            prop_assert!(
                probe.rebuild_on_channels(survivors).is_ok(),
                "re-pack onto {survivors} of {configured} channels (minimum {min}) failed"
            );
            let report = validity::check(probe.program(), &ladder);
            prop_assert!(
                report.is_valid(),
                "re-packed program invalid on {survivors} survivors: {:?}",
                report.violations()
            );
            // Climbing back to the full complement restores validity too.
            prop_assert!(probe.rebuild_on_channels(configured).is_ok());
            prop_assert!(validity::check(probe.program(), &ladder).is_valid());
        }
    }
}

/// The DES and the closed-form path agree when patience is unlimited:
/// every request is served by broadcast with the same waits.
#[test]
fn des_matches_access_path_with_infinite_patience() {
    let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap();
    let program = pamad::schedule(&ladder, 2).unwrap().into_program();
    let mut gen = RequestGenerator::new(&ladder, AccessPattern::Uniform, 3);
    let requests = gen.take(2000, program.cycle_len());

    let (summary, _) = airsched_sim::access::measure(&program, &ladder, &requests);

    let config = SimConfig {
        patience_factor: 1e6, // effectively infinite
        ..SimConfig::default()
    };
    let report = Simulation::new(&program, &ladder, config).run(&requests);
    assert_eq!(report.abandoned, 0);
    assert_eq!(report.broadcast.requests(), 2000);
    assert!((report.broadcast.avg_delay() - summary.avg_delay()).abs() < 1e-12);
    assert!((report.broadcast.avg_wait() - summary.avg_wait()).abs() < 1e-12);
}

/// m-PB and SUSC coincide when channels are sufficient: same frequencies,
/// both valid.
#[test]
fn mpb_matches_susc_frequencies_when_sufficient() {
    let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap();
    let min = minimum_channels(&ladder);
    let mpb_placement = mpb::schedule(&ladder, min).unwrap();
    assert!(validity::check(mpb_placement.program(), &ladder).is_valid());
    let susc_freqs: Vec<u64> = ladder
        .times()
        .iter()
        .map(|&t| ladder.max_time() / t)
        .collect();
    assert_eq!(mpb::frequencies(&ladder), susc_freqs);
}

/// Determinism across the whole stack: identical seeds produce identical
/// sweeps, reports, and programs.
#[test]
fn whole_stack_is_deterministic() {
    use airsched_analysis::experiment::{sweep_channels, ExperimentConfig};
    use airsched_workload::distributions::GroupSizeDistribution;
    use airsched_workload::spec::WorkloadSpec;

    let config = ExperimentConfig {
        spec: WorkloadSpec::new(80, 4, 2, 2).distribution(GroupSizeDistribution::Normal),
        requests: 500,
        ..ExperimentConfig::paper_defaults()
    };
    let a = sweep_channels(&config, [1u32, 3, 5]).unwrap();
    let b = sweep_channels(&config, [1u32, 3, 5]).unwrap();
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// Lint-vs-scheduler contracts: every program our schedulers emit in their
// supported regime must pass the static analyzer, and targeted mutilations
// must fire exactly the rule they were built to provoke.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SUSC in the sufficient regime (Theorem 3.1 and above) is lint-clean
    /// under the *default* strict config: no gaps, no late first
    /// appearances, no deficits — the analyzer agrees with the theorem.
    #[test]
    fn susc_programs_are_lint_clean(ladder in arb_ladder(), extra in 0u32..3) {
        use airsched_lint::{lint, LintConfig, LintInput};
        let program = susc::schedule(&ladder, minimum_channels(&ladder) + extra).unwrap();
        let report = lint(&LintInput::for_program(&program, &ladder), &LintConfig::default());
        prop_assert!(report.is_clean(), "SUSC should lint clean:\n{report}");
    }

    /// PAMAD at any channel count passes the *structural* config — the one
    /// the station's swap gate applies to best-effort candidates. Deadline
    /// rules are allowed there (PAMAD's Eq. 8 cycle can be shorter than
    /// t_h, so deadline misses are by design), but structural integrity
    /// (missing pages, duplicated columns, absurd times) must hold.
    #[test]
    fn pamad_programs_are_structurally_clean(ladder in arb_ladder(), n in 1u32..6) {
        use airsched_lint::{lint, LintConfig, LintInput};
        let program = pamad::schedule(&ladder, n).unwrap().into_program();
        let report = lint(&LintInput::for_program(&program, &ladder), &LintConfig::structural());
        prop_assert!(report.is_clean(), "PAMAD should pass the structural gate:\n{report}");
    }

    /// Each `mutilate` corruptor fires its primary rule on an otherwise
    /// clean SUSC program, and nothing fires beyond the documented
    /// cause/symptom companions (AP02's late appearance implies AP01's
    /// doubled gap; removing occurrences implies AP06's deficit; an
    /// oversized gap can push a group's delay factor over AL04's stretch
    /// threshold).
    #[test]
    fn mutilations_fire_their_documented_rules(ladder in arb_ladder()) {
        use airsched_core::program::BroadcastProgram;
        use airsched_lint::{lint, LintConfig, LintInput, RuleId};
        use airsched_sim::mutilate;

        let clean = susc::schedule(&ladder, minimum_channels(&ladder)).unwrap();
        // A group-1 page repeats every t1 < cycle slots, so every
        // corruptor below has occurrences to remove.
        let victim = ladder.pages().next().unwrap().0;
        prop_assert!(clean.occurrence_columns(victim).len() >= 2);

        let cases: [(BroadcastProgram, RuleId, &[RuleId]); 3] = [
            (
                mutilate::drop_page(&clean, victim),
                RuleId::NeverBroadcast,
                &[],
            ),
            (
                mutilate::thin_to_first_occurrence(&clean, victim),
                RuleId::ExpectedTimeGap,
                &[RuleId::FrequencyDeficit, RuleId::StretchExceeded],
            ),
            (
                mutilate::delay_first_appearance(&clean, victim),
                RuleId::FirstAppearanceLate,
                &[
                    RuleId::ExpectedTimeGap,
                    RuleId::FrequencyDeficit,
                    RuleId::StretchExceeded,
                ],
            ),
        ];
        for (program, expected, companions) in cases {
            let report = lint(&LintInput::for_program(&program, &ladder), &LintConfig::default());
            prop_assert!(
                report.fired(expected),
                "{} should fire:\n{report}",
                expected.code()
            );
            prop_assert!(report.has_deny(), "mutilations must not pass the gate");
            for rule in report.rules_fired() {
                prop_assert!(
                    rule == expected || companions.contains(&rule),
                    "unexpected companion {} for {}:\n{report}",
                    rule.code(),
                    expected.code()
                );
            }
        }
    }

    /// The duplicate-copy corruptor is surgical: with a spare channel to
    /// host the parallel copy, AP05 fires and *only* AP05 — the program
    /// stays otherwise valid, which is exactly why the waste needs a lint
    /// rule rather than the validity checker.
    #[test]
    fn duplicate_mutilation_fires_only_ap05(ladder in arb_ladder()) {
        use airsched_lint::{lint, LintConfig, LintInput, RuleId};
        use airsched_sim::mutilate;

        let clean = susc::schedule(&ladder, minimum_channels(&ladder) + 1).unwrap();
        let victim = ladder.pages().next().unwrap().0;
        let doubled = mutilate::duplicate_in_column(&clean, victim)
            .expect("a spare channel always leaves a free cell in the victim's columns");
        prop_assert!(validity::check(&doubled, &ladder).is_valid());
        let report = lint(&LintInput::for_program(&doubled, &ladder), &LintConfig::default());
        prop_assert_eq!(report.rules_fired(), vec![RuleId::DuplicateInColumn], "{}", report);
        prop_assert!(!report.has_deny(), "AP05 warns; it alone must not block a swap");
    }
}
