//! Property tests for the zero-allocation serving path.
//!
//! Two families of properties pin the fast paths to their slow, obviously
//! correct counterparts:
//!
//! * [`Occurrences::next_broadcast`] through an [`OccurrenceIndex`] (and
//!   its amortized cursor) must be **bit-identical** to a naive forward
//!   column scan — on scheduler-produced valid programs and on arbitrary
//!   hand-mutilated grids the schedulers would never emit;
//! * [`Station::tick_into`] driving one reused [`TickBuf`] must produce
//!   exactly the same outcome stream, deliveries, events and statistics
//!   as the allocating [`Station::tick`] and the retained seed-shaped
//!   [`Station::tick_reference`], across randomized chaos fault scripts.

use airsched_core::group::GroupLadder;
use airsched_core::program::{BroadcastProgram, Occurrences};
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
use airsched_core::{pamad, susc};
use airsched_server::{FaultEvent, FaultPlan, Station, TickBuf};

use proptest::prelude::*;

/// The page universe for mutilated grids: small enough that pages collide
/// across channels, pages with zero occurrences stay common, and the
/// dense index's never-broadcast path gets exercised.
const PAGE_UNIVERSE: u32 = 7;

/// First slot `s >= from` whose column carries `page`, by scanning every
/// cell of every column forward — the obviously correct reference.
fn naive_next_broadcast(program: &BroadcastProgram, page: PageId, from: u64) -> Option<u64> {
    let cycle = program.cycle_len();
    (from..from + cycle).find(|&s| {
        let column = SlotIndex::new(s % cycle);
        (0..program.channels())
            .any(|ch| program.page_at(GridPos::new(ChannelId::new(ch), column)) == Some(page))
    })
}

fn arb_ladder() -> impl Strategy<Value = GroupLadder> {
    (1u64..=4, 2u64..=3, prop::collection::vec(1u64..=20, 2..=4))
        .prop_map(|(t1, c, counts)| GroupLadder::geometric(t1, c, &counts).unwrap())
}

/// An arbitrary grid the schedulers would never produce: random placements
/// (first write wins per cell), so occurrence structures include bunched
/// columns, absent pages and single-occurrence pages.
fn arb_mutilated_program() -> impl Strategy<Value = BroadcastProgram> {
    (
        1u32..=3,
        4u64..=16,
        prop::collection::vec((0u64..48, 0u32..PAGE_UNIVERSE), 0..=24),
    )
        .prop_map(|(channels, cycle, placements)| {
            let mut program = BroadcastProgram::new(channels, cycle);
            for (cell, page) in placements {
                let ch = ChannelId::new(u32::try_from(cell % u64::from(channels)).unwrap());
                let col = SlotIndex::new((cell / u64::from(channels)) % cycle);
                // Occupied cells keep their first page: collisions are part
                // of the mutilation, not a failure.
                let _ = program.place(GridPos::new(ch, col), PageId::new(page));
            }
            program
        })
}

/// One randomized chaos configuration for the station lockstep.
#[derive(Debug, Clone)]
struct Chaos {
    seed: u64,
    outage: f64,
    recovery: f64,
    stalls: f64,
    corruption: f64,
    script: Vec<(u64, u32, bool)>,
    churn: u64,
}

fn arb_chaos() -> impl Strategy<Value = Chaos> {
    (
        any::<u64>(),
        0.0..0.1f64,
        0.05..0.4f64,
        0.0..0.15f64,
        0.0..0.15f64,
        prop::collection::vec((0u64..240, 0u32..4, any::<bool>()), 0..=6),
        1u64..=5,
    )
        .prop_map(
            |(seed, outage, recovery, stalls, corruption, script, churn)| Chaos {
                seed,
                outage,
                recovery,
                stalls,
                corruption,
                script,
                churn,
            },
        )
}

/// Four channels, 16-slot cycle, harmonic catalogue (as the chaos
/// integration tests use) so every rung of the ladder is reachable.
fn chaos_station(chaos: &Chaos) -> Station {
    let script = chaos
        .script
        .iter()
        .map(|&(at, ch, down)| {
            let channel = ChannelId::new(ch);
            if down {
                FaultEvent::Down { at, channel }
            } else {
                FaultEvent::Up { at, channel }
            }
        })
        .collect();
    let plan = FaultPlan::seeded(chaos.seed)
        .with_script(script)
        .with_outage(chaos.outage)
        .with_recovery(chaos.recovery)
        .with_stalls(chaos.stalls)
        .with_corruption(chaos.corruption);
    let mut station = Station::with_faults(4, 16, &plan).unwrap();
    for (p, t) in [(0, 2), (1, 4), (2, 8), (3, 16), (4, 4), (5, 8)] {
        station.publish(PageId::new(p), t).unwrap();
    }
    station
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On scheduler-produced valid programs (both SUSC and PAMAD), the
    /// index answers `next_broadcast` bit-identically to the naive
    /// forward scan, for every page at every phase of the cycle.
    #[test]
    fn index_matches_naive_scan_on_valid_programs(
        ladder in arb_ladder(),
        extra in 0u32..3,
        use_susc in any::<bool>(),
    ) {
        let n = airsched_core::bound::minimum_channels(&ladder) + extra;
        let program = if use_susc {
            susc::schedule(&ladder, n).unwrap()
        } else {
            pamad::schedule(&ladder, n).unwrap().into_program()
        };
        let index = program.occurrence_index();
        prop_assert_eq!(index.cycle_len(), program.cycle_len());
        let cycle = program.cycle_len();
        for p in 0..u32::try_from(ladder.total_pages()).unwrap() {
            let page = PageId::new(p);
            for from in (0..cycle).chain([cycle, 3 * cycle + 1]) {
                prop_assert_eq!(
                    index.next_broadcast(page, from),
                    naive_next_broadcast(&program, page, from),
                    "page {} from {}", p, from
                );
            }
        }
    }

    /// Same bit-identity on mutilated grids: arbitrary occurrence
    /// structures, absent pages, and queries far past the first cycle.
    /// The program's own trait impl, the prebuilt index and the
    /// amortized cursor must all agree with the scan.
    #[test]
    fn index_matches_naive_scan_on_mutilated_programs(
        program in arb_mutilated_program(),
        phase in 0u64..64,
    ) {
        let index = program.occurrence_index();
        let cycle = program.cycle_len();
        for p in 0..PAGE_UNIVERSE {
            let page = PageId::new(p);
            let mut cursor = index.cursor(page);
            prop_assert_eq!(
                cursor.is_some(),
                !index.occurrence_columns(page).is_empty()
            );
            for step in 0..2 * cycle {
                let from = phase + step;
                let naive = naive_next_broadcast(&program, page, from);
                prop_assert_eq!(
                    Occurrences::next_broadcast(&program, page, from),
                    naive,
                    "program trait: page {} from {}", p, from
                );
                prop_assert_eq!(
                    index.next_broadcast(page, from),
                    naive,
                    "index: page {} from {}", p, from
                );
                if let Some(cursor) = cursor.as_mut() {
                    // The cursor consumes a monotone query stream.
                    prop_assert_eq!(
                        Some(cursor.next_after(from)),
                        naive,
                        "cursor: page {} from {}", p, from
                    );
                }
            }
        }
    }

    /// One `TickBuf` reused across an entire chaos run yields exactly the
    /// slot outcomes of the allocating `tick` and of the retained seed
    /// reference — deliveries, events, modes and final statistics all
    /// included. Subscription churn keeps waiting lists hot so delivery
    /// batching, capacity reuse and the dense expected-time cache are all
    /// on the line.
    #[test]
    fn tick_into_matches_tick_under_chaos(chaos in arb_chaos()) {
        let mut fresh = chaos_station(&chaos);
        let mut reused = chaos_station(&chaos);
        let mut seed_shaped = chaos_station(&chaos);
        let mut buf = TickBuf::new();
        for t in 0..260u64 {
            if t % chaos.churn == 0 {
                let page = PageId::new(u32::try_from(t % 6).unwrap());
                let a = fresh.subscribe(page).unwrap();
                let b = reused.subscribe(page).unwrap();
                let c = seed_shaped.subscribe(page).unwrap();
                prop_assert_eq!(a, b);
                prop_assert_eq!(a, c);
            }
            let want = fresh.tick();
            reused.tick_into(&mut buf);
            prop_assert_eq!(&buf.to_outcome(), &want, "slot {}", t);
            prop_assert_eq!(&seed_shaped.tick_reference(), &want, "slot {}", t);
        }
        prop_assert_eq!(fresh.stats(), reused.stats());
        prop_assert_eq!(fresh.stats(), seed_shaped.stats());
        prop_assert_eq!(fresh.mode(), reused.mode());
        prop_assert_eq!(fresh.mode(), seed_shaped.mode());
    }
}
