//! Property tests for the zero-allocation serving path.
//!
//! Two families of properties pin the fast paths to their slow, obviously
//! correct counterparts:
//!
//! * [`BroadcastProgram::next_broadcast`] over the program's flat column
//!   arena must be **bit-identical** to a naive forward grid scan — on
//!   scheduler-produced valid programs and on arbitrary hand-mutilated
//!   grids the schedulers would never emit;
//! * [`Station::tick_into`] driving one reused [`TickBuf`] must produce
//!   exactly the same outcome stream, deliveries, events and statistics
//!   as the allocating [`Station::tick`] and the seed station replica
//!   [`SeedStation`] — which shares no serving code with the station —
//!   across randomized chaos fault scripts, and every slot's
//!   [`SlotBroadcaster`] bytes must equal the fresh encoder's.

use airsched_bench::seed::SeedStation;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
use airsched_core::{pamad, susc};
use airsched_proto::transmitter::{encode_slot_into, FixedPayloads};
use airsched_server::{FaultEvent, FaultPlan, Mode, ModeTally, SlotBroadcaster, Station, TickBuf};
use bytes::{Bytes, BytesMut};

use proptest::prelude::*;

/// The page universe for mutilated grids: small enough that pages collide
/// across channels, pages with zero occurrences stay common, and the
/// dense column table's never-broadcast path gets exercised.
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

/// Harmonic catalogue (as the chaos integration tests use) on four
/// channels and a 16-slot cycle, so every rung of the ladder is reachable.
const CATALOGUE: [(u32, u64); 6] = [(0, 2), (1, 4), (2, 8), (3, 16), (4, 4), (5, 8)];

/// The ladder's modes in [`airsched_server::StationStats::mode_tallies`]
/// order.
const MODES: [Mode; 4] = [Mode::Valid, Mode::Repacked, Mode::BestEffort, Mode::Offline];

fn chaos_plan(chaos: &Chaos) -> FaultPlan {
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
    FaultPlan::seeded(chaos.seed)
        .with_script(script)
        .with_outage(chaos.outage)
        .with_recovery(chaos.recovery)
        .with_stalls(chaos.stalls)
        .with_corruption(chaos.corruption)
}

fn chaos_station(chaos: &Chaos) -> Station {
    let mut station = Station::with_faults(4, 16, &chaos_plan(chaos)).unwrap();
    for (p, t) in CATALOGUE {
        station.publish(PageId::new(p), t).unwrap();
    }
    station
}

fn chaos_replica(chaos: &Chaos) -> SeedStation {
    let catalogue: Vec<(PageId, u64)> = CATALOGUE
        .iter()
        .map(|&(p, t)| (PageId::new(p), t))
        .collect();
    SeedStation::new(4, 16, &catalogue, Some(&chaos_plan(chaos)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On scheduler-produced valid programs (both SUSC and PAMAD), the
    /// program's column arena answers `next_broadcast` bit-identically to
    /// the naive forward scan, for every page at every phase of the cycle.
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
        let cycle = program.cycle_len();
        for p in 0..u32::try_from(ladder.total_pages()).unwrap() {
            let page = PageId::new(p);
            for from in (0..cycle).chain([cycle, 3 * cycle + 1]) {
                prop_assert_eq!(
                    program.next_broadcast(page, from),
                    naive_next_broadcast(&program, page, from),
                    "page {} from {}", p, from
                );
            }
        }
    }

    /// Same bit-identity on mutilated grids: arbitrary occurrence
    /// structures, absent pages, and queries far past the first cycle.
    /// The program's `next_broadcast` and `wait_from` must both agree
    /// with the scan.
    #[test]
    fn index_matches_naive_scan_on_mutilated_programs(
        program in arb_mutilated_program(),
        phase in 0u64..64,
    ) {
        let cycle = program.cycle_len();
        for p in 0..PAGE_UNIVERSE {
            let page = PageId::new(p);
            for step in 0..2 * cycle {
                let from = phase + step;
                let naive = naive_next_broadcast(&program, page, from);
                prop_assert_eq!(
                    program.next_broadcast(page, from),
                    naive,
                    "next broadcast: page {} from {}", p, from
                );
                prop_assert_eq!(
                    program.wait_from(page, from),
                    naive.map(|s| s - from + 1),
                    "wait: page {} from {}", p, from
                );
            }
        }
    }

    /// One `TickBuf` reused across an entire chaos run yields exactly the
    /// slot outcomes of the allocating `tick` and of the seed replica —
    /// deliveries, events, modes and final statistics all included.
    /// Subscription churn keeps waiting lists hot so delivery batching,
    /// capacity reuse and the dense expected-time cache are all on the
    /// line. The replica keeps nine of the station's stats; per-mode
    /// tallies and mode changes are derived from its outcome stream.
    /// Every slot is also encoded through a [`SlotBroadcaster`], whose
    /// template-patched bytes must equal the fresh encoder's over the
    /// same column with no column ever off the cached plan
    /// (`fresh_fallbacks` 0), while outages and recoveries swap the plan
    /// under its cache.
    #[test]
    fn tick_into_matches_tick_under_chaos(chaos in arb_chaos()) {
        let mut fresh = chaos_station(&chaos);
        let mut reused = chaos_station(&chaos);
        let mut replica = chaos_replica(&chaos);
        let mut buf = TickBuf::new();
        let payloads = FixedPayloads::new(Bytes::from_static(b"page body"));
        let mut tx = SlotBroadcaster::new(payloads.clone());
        let mut fresh_src = payloads;
        let mut wire = BytesMut::new();
        let mut fresh_wire = BytesMut::new();
        let mut tallies = [ModeTally::default(); 4];
        let mut mode = Mode::Valid;
        let mut mode_changes = 0u64;
        let mut last_mode_change_slot = None;
        for t in 0..260u64 {
            if t % chaos.churn == 0 {
                let page = PageId::new(u32::try_from(t % 6).unwrap());
                let a = fresh.subscribe(page).unwrap();
                let b = reused.subscribe(page).unwrap();
                prop_assert_eq!(a, b);
                prop_assert_eq!(a.raw(), replica.subscribe(page));
            }
            let want = fresh.tick();
            reused.tick_into(&mut buf);
            prop_assert_eq!(&buf.to_outcome(), &want, "slot {}", t);

            wire.clear();
            tx.encode_slot(&reused, buf.on_air(), buf.time(), &mut wire).unwrap();
            fresh_wire.clear();
            encode_slot_into(buf.on_air(), buf.time(), &mut fresh_src, &mut fresh_wire)
                .unwrap();
            prop_assert_eq!(&wire[..], &fresh_wire[..], "wire bytes at slot {}", t);

            let seed = replica.tick();
            prop_assert_eq!(want.mode, seed.mode, "mode at slot {}", t);
            prop_assert_eq!(&want.on_air, &seed.on_air, "on_air at slot {}", t);
            prop_assert_eq!(&want.corrupted, &seed.corrupted, "corrupted at slot {}", t);
            prop_assert_eq!(&want.events, &seed.events, "events at slot {}", t);
            let got: Vec<_> = want
                .deliveries
                .iter()
                .map(|d| (d.client.raw(), d.page, d.wait, d.within_deadline))
                .collect();
            let seed_got: Vec<_> = seed
                .deliveries
                .iter()
                .map(|d| (d.client, d.page, d.wait, d.within_deadline))
                .collect();
            prop_assert_eq!(got, seed_got, "deliveries at slot {}", t);

            if seed.mode != mode {
                mode = seed.mode;
                mode_changes += 1;
                last_mode_change_slot = Some(t);
            }
            let tally = &mut tallies[MODES.iter().position(|&m| m == seed.mode).unwrap()];
            tally.delivered += seed.deliveries.len() as u64;
            tally.on_time += seed.deliveries.iter().filter(|d| d.within_deadline).count() as u64;
        }
        let stats = fresh.stats();
        prop_assert_eq!(stats, reused.stats());
        prop_assert_eq!(fresh.mode(), reused.mode());
        prop_assert_eq!(fresh.mode(), mode);
        prop_assert_eq!(
            (stats.delivered, stats.on_time, stats.total_wait, stats.waiting),
            (replica.delivered, replica.on_time, replica.total_wait, replica.waiting_count)
        );
        prop_assert_eq!(
            (stats.failovers, stats.repacks, stats.recoveries),
            (replica.failovers, replica.repacks, replica.recoveries)
        );
        prop_assert_eq!(
            (stats.degraded_slots, stats.slots_elapsed),
            (replica.degraded_slots, replica.slots_elapsed)
        );
        prop_assert_eq!(stats.mode_tallies(), tallies);
        prop_assert_eq!(stats.mode_changes, mode_changes);
        prop_assert_eq!(stats.last_mode_change_slot, last_mode_change_slot);
        prop_assert_eq!(tx.fresh_fallbacks(), 0);
    }
}
