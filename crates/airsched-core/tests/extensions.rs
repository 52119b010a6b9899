//! Property-based tests for the extension modules: dropping, dynamic
//! scheduling, and text serialization.

use proptest::prelude::*;

use airsched_core::bound::minimum_channels;
use airsched_core::dropping::{map_page, program_in_original_ids, schedule_with_drops, DropPolicy};
use airsched_core::dynamic::OnlineScheduler;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::textio::{parse_ladder, parse_program, write_ladder, write_program};
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
use airsched_core::{pamad, validity};

fn arb_ladder() -> impl Strategy<Value = GroupLadder> {
    (1u64..=5, 2u64..=3, prop::collection::vec(1u64..=30, 1..=5))
        .prop_map(|(t1, c, counts)| GroupLadder::geometric(t1, c, &counts).unwrap())
}

fn arb_policy() -> impl Strategy<Value = DropPolicy> {
    prop_oneof![
        Just(DropPolicy::TightestFirst),
        Just(DropPolicy::MostRelaxedFirst),
        Just(DropPolicy::Proportional),
    ]
}

/// An arbitrary sparse program (not necessarily valid for any ladder).
fn arb_program() -> impl Strategy<Value = BroadcastProgram> {
    (1u32..4, 1u64..16).prop_flat_map(|(channels, cycle)| {
        let cells = (channels as usize) * (cycle as usize);
        prop::collection::vec(prop::option::of(0u32..50), cells).prop_map(move |layout| {
            let mut p = BroadcastProgram::new(channels, cycle);
            for (idx, page) in layout.into_iter().enumerate() {
                if let Some(page) = page {
                    let ch = idx as u64 / cycle;
                    let slot = idx as u64 % cycle;
                    p.place(
                        GridPos::new(
                            ChannelId::new(u32::try_from(ch).unwrap()),
                            SlotIndex::new(slot),
                        ),
                        PageId::new(page),
                    )
                    .expect("cells visited once");
                }
            }
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any program round-trips through the text format losslessly.
    #[test]
    fn program_text_round_trip(program in arb_program()) {
        let text = write_program(&program);
        let back = parse_program(&text).expect("own output parses");
        prop_assert_eq!(back, program);
    }

    /// Any ladder round-trips through the text format losslessly.
    #[test]
    fn ladder_text_round_trip(ladder in arb_ladder()) {
        let text = write_ladder(&ladder);
        let back = parse_ladder(&text).expect("own output parses");
        prop_assert_eq!(back, ladder);
    }

    /// Dropping always yields a workload that fits, a valid program over
    /// the survivors, and exact page conservation — under every policy.
    #[test]
    fn dropping_invariants(
        ladder in arb_ladder(),
        policy in arb_policy(),
        n in 1u32..5,
    ) {
        match schedule_with_drops(&ladder, n, policy) {
            Ok(outcome) => {
                prop_assert!(minimum_channels(outcome.kept_ladder()) <= n);
                prop_assert!(
                    validity::check(outcome.program(), outcome.kept_ladder()).is_valid()
                );
                prop_assert_eq!(
                    outcome.kept_ladder().total_pages() + outcome.dropped().len() as u64,
                    ladder.total_pages()
                );
                // Every original page either maps to a kept id or was dropped.
                let mut kept_seen = std::collections::BTreeSet::new();
                for (page, _) in ladder.pages() {
                    match map_page(&ladder, &outcome, page) {
                        Some(kept) => {
                            prop_assert!(kept_seen.insert(kept), "duplicate mapping");
                            prop_assert_eq!(
                                outcome.kept_ladder().expected_time_of(kept),
                                ladder.expected_time_of(page)
                            );
                        }
                        None => {
                            prop_assert!(outcome.dropped().contains(&page));
                        }
                    }
                }
                prop_assert_eq!(
                    kept_seen.len() as u64,
                    outcome.kept_ladder().total_pages()
                );
            }
            Err(_) => {
                // Only legitimate when even one page per... the only error
                // cases are NoChannels (n >= 1 here) and EmptyLadder.
                // EmptyLadder means a single surviving page would still not
                // fit: demand of the cheapest page exceeds the budget.
                let cheapest = ladder
                    .times()
                    .last()
                    .map(|&t| 1.0 / t as f64)
                    .unwrap();
                prop_assert!(
                    cheapest > f64::from(n) || ladder.total_pages() == 0,
                    "drop failed although a page could fit"
                );
            }
        }
    }

    /// The relabeled drop program serves survivors exactly as the kept
    /// program does.
    #[test]
    fn drop_relabeling_preserves_waits(ladder in arb_ladder(), n in 1u32..4) {
        if let Ok(outcome) = schedule_with_drops(&ladder, n, DropPolicy::TightestFirst) {
            let relabeled = program_in_original_ids(&ladder, &outcome);
            for (page, _) in ladder.pages() {
                match map_page(&ladder, &outcome, page) {
                    Some(kept) => {
                        for arrival in [0u64, 1, relabeled.cycle_len() / 2] {
                            prop_assert_eq!(
                                relabeled.wait_from(page, arrival),
                                outcome.program().wait_from(kept, arrival)
                            );
                        }
                    }
                    None => prop_assert_eq!(relabeled.wait_from(page, 0), None),
                }
            }
        }
    }

    /// Online add/remove churn never breaks per-page validity, and
    /// `rebuild_with` admits any workload that fits Theorem 3.1.
    #[test]
    fn online_scheduler_churn(
        ladder in arb_ladder(),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let n = minimum_channels(&ladder);
        let mut sched = OnlineScheduler::new(n, ladder.max_time()).unwrap();
        // Admit the whole ladder (tightest-first order = ladder order).
        for (page, group) in ladder.pages() {
            sched
                .add_page(page, ladder.time_of(group).slots())
                .expect("fits at the Theorem 3.1 minimum");
        }
        // Random removals.
        for idx in &removals {
            if sched.pages().is_empty() {
                break;
            }
            let keys: Vec<PageId> = sched.pages().iter().map(|(p, _)| p).collect();
            let victim = keys[idx.index(keys.len())];
            sched.remove_page(victim).unwrap();
        }
        // Validity of the survivors.
        for (page, t) in sched.pages().iter() {
            let gaps: Vec<u64> = sched.program().cyclic_gaps(page).collect();
            prop_assert!(!gaps.is_empty());
            prop_assert!(gaps.iter().all(|&g| g <= t), "page {} gaps {:?}", page, gaps);
        }
        // A full compaction still succeeds.
        sched.rebuild().expect("compaction of a feasible set succeeds");
    }

    /// PAMAD's placement written to text and parsed back measures
    /// identically (serialization does not disturb occurrence structure).
    #[test]
    fn pamad_program_survives_serialization(ladder in arb_ladder(), n in 1u32..4) {
        let program = pamad::schedule(&ladder, n).unwrap().into_program();
        let back = parse_program(&write_program(&program)).unwrap();
        for (page, _) in ladder.pages() {
            prop_assert_eq!(
                back.occurrence_columns(page),
                program.occurrence_columns(page)
            );
        }
    }
}
