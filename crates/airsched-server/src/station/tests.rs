//! Unit tests of the station: serving, the degradation ladder and its
//! gate, observability, and snapshot/restore.

use super::*;
use crate::faults::FaultEvent;
use airsched_core::dynamic::BaseTrust;
use airsched_lint::{LintConfig, LintInput};
use airsched_obs::events::{Event as ObsEvent, HealthTransition};
use airsched_obs::Obs;
use airsched_trace::{Phase, Trace};

fn station_with_catalogue() -> Station {
    let mut s = Station::new(2, 8).unwrap();
    s.publish(PageId::new(0), 2).unwrap();
    s.publish(PageId::new(1), 4).unwrap();
    s.publish(PageId::new(2), 8).unwrap();
    s
}

#[test]
fn subscribers_are_served_within_deadline() {
    let mut s = station_with_catalogue();
    // Subscribe to everything at various instants; every delivery must
    // be on time because the schedule is valid.
    let mut pending = Vec::new();
    for round in 0..16u64 {
        let page = PageId::new(u32::try_from(round % 3).unwrap());
        pending.push((s.subscribe(page).unwrap(), page));
        let tick = s.tick();
        for d in &tick.deliveries {
            assert!(d.within_deadline, "{d:?}");
        }
    }
    // Drain the rest.
    s.run(16);
    assert_eq!(s.stats().waiting, 0);
    assert_eq!(s.stats().on_time, s.stats().delivered);
    assert!(s.stats().mean_wait() >= 1.0);
    assert_eq!(s.stats().on_time_rate(), 1.0);
}

/// The paper's promise across a fail swap and a restore swap: channel
/// 0's row is full of `t = 4` pages, one per offset. Losing it moves
/// them onto rows that have their families free at the same columns,
/// and the restore puts them back where the full plan has them, so a
/// client who subscribed before either swap still gets its page within
/// `t`.
#[test]
fn a_full_row_keeps_its_columns_across_a_fail_and_a_restore() {
    let mut s = Station::new(4, 16).unwrap();
    // Pages 0-3 fill row 0 at offsets 0-3; pages 4 (t = 8) and 5
    // (t = 16) take columns 0, 8 and 1 of row 1, so pages 0 and 1 cannot
    // go to row 1 at their columns and pages 2 and 3 can.
    for (p, t) in [(0, 4), (1, 4), (2, 4), (3, 4), (4, 8), (5, 16)] {
        s.publish(PageId::new(p), t).unwrap();
    }
    let moved: Vec<PageId> = (0..4).map(PageId::new).collect();
    let full = s.on_air_program().unwrap().clone();
    assert!(full
        .row_cells(0)
        .iter()
        .all(|c| c.is_some_and(|p| moved.contains(&p))));
    let mut deliveries = 0;
    let columns_held = |s: &Station| {
        let program = s.on_air_program().unwrap();
        for &page in &moved {
            assert_eq!(
                program.occurrence_columns(page),
                full.occurrence_columns(page),
                "{page} in {:?}",
                s.mode()
            );
        }
    };
    for slot in 0..40 {
        if slot == 5 {
            assert_eq!(s.fail_channel(ChannelId::new(0)), Mode::Repacked);
            columns_held(&s);
        }
        if slot == 19 {
            assert_eq!(s.restore_channel(ChannelId::new(0)), Mode::Valid);
            columns_held(&s);
        }
        if slot < 30 {
            for &page in &moved {
                s.subscribe(page).unwrap();
            }
        }
        for d in s.tick().deliveries {
            assert!(d.within_deadline, "slot {slot}: {d:?}");
            deliveries += 1;
        }
    }
    assert_eq!(deliveries, 30 * moved.len());
    assert_eq!(s.stats().waiting, 0);
}

#[test]
fn unknown_page_subscription_is_rejected() {
    let mut s = station_with_catalogue();
    let err = s.subscribe(PageId::new(9)).unwrap_err();
    assert!(matches!(err, StationError::UnknownPage { .. }));
    assert!(err.to_string().contains("not in the catalogue"));
}

#[test]
fn publish_duplicate_and_bad_times_error() {
    let mut s = station_with_catalogue();
    assert!(matches!(
        s.publish(PageId::new(0), 4),
        Err(StationError::Schedule(_))
    ));
    assert!(s.publish(PageId::new(9), 3).is_err()); // 3 does not divide 8
    assert!(s.publish(PageId::new(9), 0).is_err());
}

#[test]
fn expire_stops_transmission() {
    let mut s = station_with_catalogue();
    s.expire(PageId::new(0)).unwrap();
    assert!(s.expire(PageId::new(0)).is_err());
    for _ in 0..16 {
        let tick = s.tick();
        assert!(
            !tick.on_air.contains(&Some(PageId::new(0))),
            "expired page still on air"
        );
    }
}

#[test]
fn capacity_exhaustion_reports() {
    let mut s = Station::new(1, 2).unwrap();
    s.publish(PageId::new(0), 2).unwrap();
    s.publish(PageId::new(1), 2).unwrap();
    let err = s.publish(PageId::new(2), 2).unwrap_err();
    assert!(matches!(err, StationError::CapacityExhausted { .. }));
    assert!(err.to_string().contains("channel budget"));
}

#[test]
fn publish_compacts_through_fragmentation() {
    // Same scenario as the OnlineScheduler fragmentation test, but via
    // the station's publish, which must self-heal.
    let mut s = Station::new(1, 4).unwrap();
    for i in 0..4 {
        s.publish(PageId::new(i), 4).unwrap();
    }
    s.expire(PageId::new(0)).unwrap();
    s.expire(PageId::new(3)).unwrap();
    s.publish(PageId::new(9), 2).unwrap(); // needs compaction
    assert_eq!(s.catalogue().len(), 3);
}

#[test]
fn clock_and_stats_advance() {
    let mut s = station_with_catalogue();
    assert_eq!(s.now(), 0);
    s.run(10);
    assert_eq!(s.now(), 10);
    assert_eq!(s.stats().slots_elapsed, 10);
}

#[test]
fn delivery_wait_is_exact() {
    let mut s = Station::new(1, 4).unwrap();
    s.publish(PageId::new(0), 4).unwrap(); // airs at slot 0 of each cycle
                                           // Let one full cycle pass, subscribe at t=4 (the page's slot).
    s.run(4);
    let client = s.subscribe(PageId::new(0)).unwrap();
    let tick = s.tick();
    assert_eq!(tick.deliveries.len(), 1);
    let d = tick.deliveries[0];
    assert_eq!(d.client, client);
    assert_eq!(d.wait, 1);
    assert!(d.within_deadline);
}

#[test]
fn multiple_waiters_served_together() {
    let mut s = Station::new(1, 4).unwrap();
    s.publish(PageId::new(0), 4).unwrap();
    s.run(1); // move past the page's slot
    let a = s.subscribe(PageId::new(0)).unwrap();
    let b = s.subscribe(PageId::new(0)).unwrap();
    assert_ne!(a, b);
    let deliveries = s.run(4);
    assert_eq!(deliveries.len(), 2);
    assert!(deliveries.iter().all(|d| d.page == PageId::new(0)));
}

#[test]
fn client_id_display() {
    let mut s = station_with_catalogue();
    let c = s.subscribe(PageId::new(0)).unwrap();
    assert_eq!(c.to_string(), "client0");
}

// --- fault tolerance ---

/// A 3-channel catalogue whose Theorem 3.1 minimum is 2: demand is
/// 1/2 + 1/2 + 1/4 + 1/8 = 1.375.
fn resilient_station() -> Station {
    let mut s = Station::new(3, 8).unwrap();
    s.publish(PageId::new(0), 2).unwrap();
    s.publish(PageId::new(1), 2).unwrap();
    s.publish(PageId::new(2), 4).unwrap();
    s.publish(PageId::new(3), 8).unwrap();
    s
}

#[test]
fn ladder_walks_down_and_back_up() {
    let mut s = resilient_station();
    assert_eq!(s.mode(), Mode::Valid);
    // 2 survivors >= minimum 2: a valid re-pack.
    assert_eq!(s.fail_channel(ChannelId::new(2)), Mode::Repacked);
    assert!(s.mode().is_valid());
    // 1 survivor < 2: PAMAD best-effort.
    assert_eq!(s.fail_channel(ChannelId::new(1)), Mode::BestEffort);
    assert!(!s.mode().is_valid());
    // 0 survivors: off the air.
    assert_eq!(s.fail_channel(ChannelId::new(0)), Mode::Offline);
    assert!(s.tick().on_air.iter().all(Option::is_none));
    // Climb back up the same rungs.
    assert_eq!(s.restore_channel(ChannelId::new(0)), Mode::BestEffort);
    assert_eq!(s.restore_channel(ChannelId::new(1)), Mode::Repacked);
    assert_eq!(s.restore_channel(ChannelId::new(2)), Mode::Valid);
    let stats = s.stats();
    assert_eq!(stats.failovers, 2); // entered best-effort going down AND up
    assert_eq!(stats.repacks, 2); // down-walk and up-walk
    assert_eq!(stats.recoveries, 1);
    assert!(stats.degraded_slots >= 1);
}

#[test]
fn repacked_mode_keeps_deadlines_and_subscriptions() {
    let mut s = resilient_station();
    let client = s.subscribe(PageId::new(2)).unwrap();
    assert_eq!(s.fail_channel(ChannelId::new(2)), Mode::Repacked);
    // Down channel airs nothing; survivors meet every deadline.
    let mut served = false;
    for _ in 0..8 {
        let tick = s.tick();
        assert_eq!(tick.mode, Mode::Repacked);
        assert_eq!(tick.on_air[2], None);
        for d in &tick.deliveries {
            assert!(d.within_deadline, "{d:?}");
            served |= d.client == client;
        }
    }
    assert!(served, "subscription lost across the re-pack");
    assert_eq!(s.stats().per_mode(Mode::Repacked).on_time_rate(), 1.0);
}

#[test]
fn best_effort_mode_keeps_every_page_on_air() {
    let mut s = resilient_station();
    s.fail_channel(ChannelId::new(2));
    s.fail_channel(ChannelId::new(1));
    assert_eq!(s.mode(), Mode::BestEffort);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..32 {
        let tick = s.tick();
        assert_eq!(tick.mode, Mode::BestEffort);
        // Only channel 0 survives.
        assert_eq!(tick.on_air[1], None);
        assert_eq!(tick.on_air[2], None);
        seen.extend(tick.on_air[0]);
    }
    // PAMAD keeps the whole catalogue broadcasting on the survivor.
    assert_eq!(seen.len(), 4, "pages vanished in best-effort: {seen:?}");
}

#[test]
fn corrupt_frames_do_not_deliver() {
    let plan = FaultPlan::scripted(vec![FaultEvent::Corrupt {
        at: 0,
        channel: ChannelId::new(0),
    }]);
    let mut s = Station::with_faults(1, 4, &plan).unwrap();
    s.publish(PageId::new(0), 4).unwrap(); // airs at slots 0, 4, 8...
    let client = s.subscribe(PageId::new(0)).unwrap();
    let tick = s.tick();
    assert_eq!(tick.on_air[0], Some(PageId::new(0)));
    assert_eq!(tick.corrupted, vec![true]);
    assert!(tick.deliveries.is_empty(), "corrupt frame delivered");
    // The client is served by the next intact occurrence — late.
    let deliveries = s.run(4);
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].client, client);
    assert_eq!(deliveries[0].wait, 5);
    assert!(!deliveries[0].within_deadline);
}

#[test]
fn stalled_slot_airs_nothing() {
    let plan = FaultPlan::scripted(vec![FaultEvent::Stall {
        at: 0,
        channel: ChannelId::new(0),
    }]);
    let mut s = Station::with_faults(1, 4, &plan).unwrap();
    s.publish(PageId::new(0), 4).unwrap();
    let tick = s.tick();
    assert_eq!(tick.on_air, vec![None]);
    assert_eq!(tick.corrupted, vec![false]);
    // Next cycle transmits normally.
    s.run(3);
    let tick = s.tick();
    assert_eq!(tick.on_air, vec![Some(PageId::new(0))]);
}

#[test]
fn injector_outages_surface_as_events_and_modes() {
    let plan = FaultPlan::scripted(vec![
        FaultEvent::Down {
            at: 2,
            channel: ChannelId::new(2),
        },
        FaultEvent::Up {
            at: 6,
            channel: ChannelId::new(2),
        },
    ]);
    let mut s = Station::with_faults(3, 8, &plan).unwrap();
    s.publish(PageId::new(0), 2).unwrap();
    s.publish(PageId::new(1), 2).unwrap();
    s.publish(PageId::new(2), 4).unwrap();
    s.publish(PageId::new(3), 8).unwrap();
    assert_eq!(s.tick().mode, Mode::Valid);
    assert_eq!(s.tick().mode, Mode::Valid);
    let tick = s.tick(); // slot 2: outage applies before transmission
    assert_eq!(tick.mode, Mode::Repacked);
    assert_eq!(
        tick.events,
        vec![ChannelEvent::Down {
            channel: ChannelId::new(2),
            at: 2
        }]
    );
    s.tick();
    s.tick();
    s.tick();
    let tick = s.tick(); // slot 6: recovery
    assert_eq!(tick.mode, Mode::Valid);
    assert_eq!(
        tick.events,
        vec![ChannelEvent::Up {
            channel: ChannelId::new(2),
            at: 6
        }]
    );
    assert_eq!(s.stats().recoveries, 1);
}

#[test]
fn health_monitor_flags_a_noisy_channel() {
    let plan = FaultPlan::seeded(3).with_corruption(1.0);
    let mut s = Station::with_faults(1, 4, &plan).unwrap();
    s.set_health_thresholds(HealthThresholds {
        window: 4,
        error_permille: 500,
        stall_permille: 500,
    });
    s.publish(PageId::new(0), 1).unwrap(); // airs every slot
    let mut degraded_events = 0;
    for _ in 0..8 {
        let tick = s.tick();
        degraded_events += tick
            .events
            .iter()
            .filter(|e| matches!(e, ChannelEvent::Degraded { .. }))
            .count();
    }
    assert_eq!(degraded_events, 1, "exactly one degraded transition");
    assert!(s.health().is_degraded(ChannelId::new(0)));
}

#[test]
fn per_mode_tallies_attribute_deliveries() {
    let mut s = resilient_station();
    s.subscribe(PageId::new(0)).unwrap();
    s.run(2); // served in valid mode
    s.fail_channel(ChannelId::new(2));
    s.fail_channel(ChannelId::new(1));
    s.subscribe(PageId::new(0)).unwrap();
    s.run(16); // served in best-effort mode
    let stats = s.stats();
    assert_eq!(stats.per_mode(Mode::Valid).delivered, 1);
    assert!(stats.per_mode(Mode::BestEffort).delivered >= 1);
    assert_eq!(
        stats.delivered,
        stats.per_mode(Mode::Valid).delivered
            + stats.per_mode(Mode::Repacked).delivered
            + stats.per_mode(Mode::BestEffort).delivered
    );
    assert_eq!(stats.per_mode(Mode::Offline).delivered, 0);
}

#[test]
fn equal_seeds_give_identical_tick_streams() {
    let plan = FaultPlan::seeded(99)
        .with_outage(0.05)
        .with_recovery(0.25)
        .with_stalls(0.02)
        .with_corruption(0.1);
    let build = || {
        let mut s = Station::with_faults(3, 8, &plan).unwrap();
        s.publish(PageId::new(0), 2).unwrap();
        s.publish(PageId::new(1), 4).unwrap();
        s.publish(PageId::new(2), 8).unwrap();
        s.subscribe(PageId::new(0)).unwrap();
        s.subscribe(PageId::new(2)).unwrap();
        s
    };
    let mut a = build();
    let mut b = build();
    for t in 0..400 {
        assert_eq!(a.tick(), b.tick(), "streams diverged at slot {t}");
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn run_with_streams_the_same_deliveries_as_run() {
    let build = || {
        let mut s = station_with_catalogue();
        s.subscribe(PageId::new(0)).unwrap();
        s.subscribe(PageId::new(1)).unwrap();
        s.subscribe(PageId::new(2)).unwrap();
        s
    };
    let mut collected = Vec::new();
    build().run_with(16, |d| collected.push(*d));
    assert_eq!(collected, build().run(16));
    assert_eq!(collected.len(), 3);
}

#[test]
fn expire_clears_the_dense_catalogue_cache() {
    let mut s = station_with_catalogue();
    s.subscribe(PageId::new(2)).unwrap();
    s.expire(PageId::new(2)).unwrap();
    // New subscriptions are rejected while the page is unpublished...
    assert!(matches!(
        s.subscribe(PageId::new(2)),
        Err(StationError::UnknownPage { .. })
    ));
    s.run(16);
    assert_eq!(s.stats().waiting, 1, "waiter lost with the expiry");
    // ...and the in-flight waiter is served once it is re-published.
    s.publish(PageId::new(2), 8).unwrap();
    let deliveries = s.run(8);
    assert!(deliveries.iter().any(|d| d.page == PageId::new(2)));
    assert_eq!(s.stats().waiting, 0);
}

#[test]
fn policy_can_disable_rungs() {
    let mut s = resilient_station();
    s.set_degradation_policy(DegradationPolicy {
        repack: false,
        best_effort: true,
    });
    // Without the re-pack rung, any loss goes straight to best-effort.
    assert_eq!(s.fail_channel(ChannelId::new(2)), Mode::BestEffort);
    s.set_degradation_policy(DegradationPolicy {
        repack: true,
        best_effort: false,
    });
    assert_eq!(s.mode(), Mode::Repacked);
    // Without best-effort, dropping below the minimum goes offline.
    assert_eq!(s.fail_channel(ChannelId::new(1)), Mode::Offline);
    assert!(s.degradation_policy().repack);
}

// --- the pre-swap lint gate ---

/// A corruptor that drops every occurrence of page 3 from the
/// candidate: the gate must catch the now-missing page (AP03).
fn drop_page3(program: &BroadcastProgram) -> BroadcastProgram {
    let mut out = BroadcastProgram::new(program.channels(), program.cycle_len());
    for ch in 0..program.channels() {
        for slot in 0..program.cycle_len() {
            let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
            if let Some(page) = program.page_at(pos) {
                if page != PageId::new(3) {
                    out.place(pos, page).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn lint_gate_refuses_corrupted_replans_and_keeps_serving() {
    let mut s = resilient_station();
    s.set_plan_corruptor(Some(drop_page3));
    // Both the re-pack and the best-effort candidates come out of the
    // corrupted pipeline missing page 3; the gate refuses both, so the
    // previous (full) plan stays on the air and the mode is unchanged.
    assert_eq!(s.fail_channel(ChannelId::new(2)), Mode::Valid);
    assert_eq!(s.stats().plan_rejections, 2);
    assert_eq!(s.stats().failovers, 0);
    assert_eq!(s.stats().repacks, 0);
    // The survivors keep transmitting the vetted plan; the down
    // channel airs nothing.
    let mut aired = 0usize;
    for _ in 0..8 {
        let tick = s.tick();
        assert_eq!(tick.on_air[2], None);
        aired += tick.on_air[..2].iter().flatten().count();
    }
    assert!(aired > 0, "previous program stopped serving");
    // Removing the corruptor and re-failing the ladder installs a
    // clean re-pack again.
    s.set_plan_corruptor(None);
    s.restore_channel(ChannelId::new(2));
    assert_eq!(s.fail_channel(ChannelId::new(2)), Mode::Repacked);
    assert_eq!(s.stats().plan_rejections, 2, "clean candidate rejected");
}

#[test]
fn deep_verify_certifies_clean_repacks_and_refuses_corrupted_ones() {
    let mut s = resilient_station();
    s.set_deep_verify(true);
    assert!(s.deep_verify());
    // A clean re-pack passes both the lint gate and the solver: the
    // swap happens and no solve rejection is recorded.
    assert_eq!(s.fail_channel(ChannelId::new(2)), Mode::Repacked);
    assert_eq!(s.stats().solve_rejections, 0);
    assert_eq!(s.stats().plan_rejections, 0);
    s.restore_channel(ChannelId::new(2));
    // A corrupted candidate is refused by the lint gate *and* by the
    // solver — the two verdicts must agree, and both tallies move.
    s.set_plan_corruptor(Some(drop_page3));
    assert_ne!(s.fail_channel(ChannelId::new(2)), Mode::Repacked);
    assert_eq!(s.stats().solve_rejections, 1, "solver must refuse too");
    assert!(s.stats().plan_rejections >= 1);
}

#[test]
fn propose_plan_is_the_gates_dry_run() {
    use airsched_lint::rules::RuleId;
    let s = resilient_station();
    let own = s.scheduler.program().clone();
    assert!(s.propose_plan(&own, &LintConfig::default()).is_clean());
    let corrupted = drop_page3(&own);
    let report = s.propose_plan(&corrupted, &LintConfig::default());
    assert!(report.has_deny(), "{report}");
    assert!(report.fired(RuleId::NeverBroadcast), "{report}");
}

#[test]
fn publish_refuses_ids_at_the_page_id_limit() {
    use airsched_core::types::PAGE_ID_LIMIT;
    let mut s = station_with_catalogue();
    let epoch = s.plan_epoch();
    for id in [PAGE_ID_LIMIT, u32::MAX] {
        assert!(matches!(
            s.publish(PageId::new(id), 4),
            Err(StationError::Schedule(
                ScheduleError::WorkloadTooLarge { .. }
            ))
        ));
    }
    assert_eq!(s.catalogue().len(), 3);
    assert_eq!(s.plan_epoch(), epoch, "a refused publish changes no plan");
}

/// Every `(channel, column)` a page airs on, physical channels.
fn airings(cells: &PlanCells, page: PageId) -> Vec<(u32, u64)> {
    let cols = usize::try_from(cells.cycle_len).unwrap();
    (0u32..)
        .zip(cells.cells.chunks(cols))
        .flat_map(|(ch, row)| {
            (0u64..)
                .zip(row)
                .filter(move |&(_, &p)| p == Some(page))
                .map(move |(col, _)| (ch, col))
        })
        .collect()
}

#[test]
fn a_channel_loss_moves_only_the_lost_channels_pages() {
    // Eight t=4 pages fill channels 0 and 1 of four (Theorem 3.1 needs 2).
    let mut s = Station::new(4, 8).unwrap();
    for p in 0..8 {
        s.publish(PageId::new(p), 4).unwrap();
    }
    let before = s.plan_cells();
    assert_eq!(s.fail_channel(ChannelId::new(1)), Mode::Repacked);
    let after = s.plan_cells();
    for p in 0..8 {
        let page = PageId::new(p);
        let was = airings(&before, page);
        if was.iter().all(|&(ch, _)| ch != 1) {
            assert_eq!(airings(&after, page), was, "{page} moved");
        } else {
            assert!(airings(&after, page).iter().all(|&(ch, _)| ch != 1));
        }
    }
    // A restore that leaves the station degraded moves nothing: the
    // restored channel starts empty.
    s.fail_channel(ChannelId::new(3));
    let degraded = s.plan_cells();
    assert_eq!(s.restore_channel(ChannelId::new(3)), Mode::Repacked);
    assert_eq!(s.plan_cells(), degraded);
    // An expire under the degraded plan clears only the expired page, and
    // a publish places only the new one.
    s.expire(PageId::new(0)).unwrap();
    s.publish(PageId::new(9), 8).unwrap();
    let edited = s.plan_cells();
    for p in 1..8 {
        let page = PageId::new(p);
        assert_eq!(airings(&edited, page), airings(&degraded, page), "{page}");
    }
    assert!(airings(&edited, PageId::new(0)).is_empty());
    assert_eq!(airings(&edited, PageId::new(9)).len(), 1);
}

#[test]
fn a_refused_swap_moves_the_old_rows_onto_the_new_live_set() {
    // Eight t=4 pages need 2 of 4 channels (Theorem 3.1).
    let mut s = Station::new(4, 8).unwrap();
    for p in 0..8 {
        s.publish(PageId::new(p), 4).unwrap();
    }
    s.fail_channel(ChannelId::new(1));
    assert_eq!(s.fail_channel(ChannelId::new(2)), Mode::Repacked);
    let before = s.plan_cells();
    let epoch = s.plan_epoch();
    // Both candidates come out missing page 3, so the gate refuses them
    // and the two-row plan keeps airing, its rows now filling channels
    // 0 and 1 of the live set {0, 1, 3}.
    s.set_plan_corruptor(Some(drop_page3));
    assert_eq!(s.restore_channel(ChannelId::new(1)), Mode::Repacked);
    assert_eq!(s.stats().plan_rejections, 2);
    assert_eq!(s.stats().repacks, 1);
    assert!(
        s.plan_epoch() > epoch,
        "a refused swap still moves the rows"
    );
    let cells = s.plan_cells();
    let cols = usize::try_from(cells.cycle_len).unwrap();
    let row = |grid: &PlanCells, ch: usize| grid.cells[ch * cols..(ch + 1) * cols].to_vec();
    assert_eq!(row(&cells, 0), row(&before, 0));
    assert_eq!(
        row(&cells, 1),
        row(&before, 3),
        "row 1 moved onto channel 1"
    );
    assert!(row(&cells, 3).iter().all(Option::is_none));
    for _ in 0..cells.cycle_len {
        let tick = s.tick();
        let col = usize::try_from(tick.time % cells.cycle_len).unwrap();
        let column: Vec<_> = (0..4).map(|ch| cells.cells[ch * cols + col]).collect();
        assert_eq!(tick.on_air, column, "slot {}", tick.time);
        assert_eq!(tick.mode, Mode::Repacked);
    }
}

thread_local! {
    /// Which filled cell [`corrupt_one_cell`] and [`rewrite_one_cell`]
    /// rewrite (taken modulo the filled count), and whether they empty it
    /// or give it another page.
    pub(crate) static CORRUPTION: std::cell::Cell<(usize, bool)> = const { std::cell::Cell::new((0, false)) };
}

/// A corruptor that rewrites one filled cell as [`CORRUPTION`] says: its
/// page loses one occurrence of an exact periodic family, so the
/// candidate misses a deadline.
fn corrupt_one_cell(program: &BroadcastProgram) -> BroadcastProgram {
    let (k, emptied) = CORRUPTION.get();
    let mut cells = program.cells().to_vec();
    let filled: Vec<usize> = (0..cells.len()).filter(|&i| cells[i].is_some()).collect();
    let at = filled[k % filled.len()];
    cells[at] = if emptied {
        None
    } else {
        cells[at].map(|p| PageId::new(p.index() ^ 1))
    };
    BroadcastProgram::from_cells(program.channels(), program.cycle_len(), &cells).unwrap()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The gate refuses every single-cell corruption of a relocated
    /// candidate, whether the base is the full plan (first loss) or a
    /// relocated one (second loss), while the same loss uncorrupted is
    /// accepted as a relocation.
    #[test]
    fn the_gate_refuses_every_single_cell_corruption_of_a_relocation(
        counts in proptest::collection::vec(1u64..=6, 1..=3),
        lost in proptest::collection::vec(0u32..8, 2),
        cell in 0usize..4096,
        emptied in proptest::prelude::any::<bool>(),
        second in proptest::prelude::any::<bool>(),
    ) {
        let ladder = airsched_core::group::GroupLadder::geometric(2, 2, &counts).unwrap();
        let channels = airsched_core::bound::minimum_channels(&ladder) + 2;
        let build = || {
            let mut s = Station::new(channels, ladder.max_time()).unwrap();
            s.set_degradation_policy(DegradationPolicy { repack: true, best_effort: false });
            for (page, group) in ladder.pages() {
                s.publish(page, ladder.time_of(group).slots()).unwrap();
            }
            s
        };
        let first = ChannelId::new(lost[0] % channels);
        let next = ChannelId::new((lost[0] + 1 + lost[1] % (channels - 1)) % channels);
        CORRUPTION.set((cell, emptied));
        for corrupted in [false, true] {
            let mut s = build();
            let obs = Obs::new();
            s.attach_obs(&obs);
            let hook = |s: &mut Station, on: bool| {
                s.set_plan_corruptor((corrupted && on).then_some(corrupt_one_cell as PlanCorruptor));
            };
            hook(&mut s, !second);
            let mode_first = s.fail_channel(first);
            hook(&mut s, second);
            let mode = s.fail_channel(next);
            let stages: Vec<String> = obs
                .recent_events(64)
                .into_iter()
                .filter_map(|e| match e {
                    ObsEvent::ReplanTiming { stage, .. } => Some(stage),
                    _ => None,
                })
                .collect();
            proptest::prop_assert_eq!(stages, vec!["relocate".to_string(); 2]);
            proptest::prop_assert_eq!(s.stats().plan_rejections, u64::from(corrupted));
            // A refusal keeps the last vetted plan and its mode.
            let refused_first = corrupted && !second;
            proptest::prop_assert_eq!(
                mode_first,
                if refused_first { Mode::Valid } else { Mode::Repacked }
            );
            proptest::prop_assert_eq!(mode, Mode::Repacked);
        }
    }
}

#[test]
fn publish_and_expire_refresh_a_degraded_plan() {
    let mut s = Station::new(2, 8).unwrap();
    s.publish(PageId::new(0), 4).unwrap();
    s.publish(PageId::new(1), 8).unwrap();
    // One survivor still meets the minimum (1/4 + 1/8 < 1).
    assert_eq!(s.fail_channel(ChannelId::new(1)), Mode::Repacked);
    // Raising demand past one channel must drop to best-effort.
    s.publish(PageId::new(2), 2).unwrap();
    s.publish(PageId::new(3), 2).unwrap();
    s.publish(PageId::new(4), 4).unwrap();
    assert_eq!(s.mode(), Mode::BestEffort);
    // Shedding the load climbs back to a valid re-pack.
    s.expire(PageId::new(2)).unwrap();
    s.expire(PageId::new(3)).unwrap();
    assert_eq!(s.mode(), Mode::Repacked);
    // The new page is on the degraded plan's air.
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..8 {
        seen.extend(s.tick().on_air[0]);
    }
    assert!(seen.contains(&PageId::new(4)));
}

// --- observability ---

#[test]
fn attached_obs_changes_nothing_and_mirrors_stats() {
    let plan = FaultPlan::seeded(41)
        .with_outage(0.05)
        .with_recovery(0.2)
        .with_stalls(0.02)
        .with_corruption(0.1);
    let build = || {
        let mut s = Station::with_faults(3, 8, &plan).unwrap();
        s.publish(PageId::new(0), 2).unwrap();
        s.publish(PageId::new(1), 2).unwrap();
        s.publish(PageId::new(2), 4).unwrap();
        s.publish(PageId::new(3), 8).unwrap();
        s
    };
    let mut plain = build();
    let mut observed = build();
    let obs = Obs::with_recorder_capacity(4096);
    observed.attach_obs(&obs);
    let mut a = TickBuf::new();
    let mut b = TickBuf::new();
    for t in 0..400u64 {
        if t % 4 == 0 {
            let page = PageId::new(u32::try_from(t % 4).unwrap());
            assert_eq!(
                plain.subscribe(page).unwrap(),
                observed.subscribe(page).unwrap()
            );
        }
        plain.tick_into(&mut a);
        observed.tick_into(&mut b);
        assert_eq!(a.to_outcome(), b.to_outcome(), "obs changed slot {t}");
    }
    // Bit-identical serving, identical stats.
    assert_eq!(plain.stats(), observed.stats());
    // Every counter family mirrors its stats twin exactly.
    let stats = observed.stats();
    let snap = obs.snapshot();
    assert_eq!(
        snap.scalar_total("airsched_station_delivered_total"),
        stats.delivered
    );
    assert_eq!(
        snap.scalar_total("airsched_station_on_time_total"),
        stats.on_time
    );
    assert_eq!(
        snap.scalar_total("airsched_station_deadline_miss_total"),
        stats.delivered - stats.on_time
    );
    assert_eq!(
        snap.scalar_total("airsched_station_slots_total"),
        stats.slots_elapsed
    );
    assert_eq!(
        snap.scalar_total("airsched_station_degraded_slots_total"),
        stats.degraded_slots
    );
    assert_eq!(
        snap.scalar_total("airsched_station_mode_changes_total"),
        stats.mode_changes
    );
    assert_eq!(
        snap.scalar_total("airsched_station_plan_rejections_total"),
        stats.plan_rejections
    );
    assert_eq!(
        snap.scalar_total("airsched_station_plan_warnings_total"),
        stats.plan_warnings
    );
    // The wait histogram saw every delivery, and its sum is the total
    // wait (both exact regardless of bucketing).
    assert_eq!(
        snap.scalar_total("airsched_station_wait_slots"),
        stats.delivered
    );
    // The event stream agrees with the counters: one ModeChange event
    // per stats.mode_changes, each consecutive pair chained
    // (from == previous to), and the last one matching the live mode.
    let changes: Vec<(String, String, u64)> = obs
        .recent_events(4096)
        .into_iter()
        .filter_map(|e| match e {
            ObsEvent::ModeChange { from, to, slot, .. } => Some((from, to, slot)),
            _ => None,
        })
        .collect();
    assert_eq!(changes.len() as u64, stats.mode_changes);
    for pair in changes.windows(2) {
        assert_eq!(pair[0].1, pair[1].0, "mode-change chain broken");
    }
    if let Some(last) = changes.last() {
        assert_eq!(last.1, observed.mode().name());
        assert_eq!(Some(last.2), stats.last_mode_change_slot);
    }
}

#[test]
fn mode_change_stats_track_transitions_without_obs() {
    let mut s = resilient_station();
    assert_eq!(s.stats().mode_changes, 0);
    assert_eq!(s.stats().last_mode_change_slot, None);
    s.fail_channel(ChannelId::new(2));
    s.run(5);
    s.fail_channel(ChannelId::new(1));
    let stats = s.stats();
    assert_eq!(stats.mode_changes, 2);
    assert_eq!(stats.last_mode_change_slot, Some(5));
    assert_eq!(
        stats.mode_changes,
        stats.failovers + stats.repacks + stats.recoveries
    );
}

#[test]
fn entering_best_effort_captures_a_causal_postmortem() {
    let mut s = resilient_station();
    let obs = Obs::new();
    s.attach_obs(&obs);
    // The rare-path series are exact after every mutator, before any
    // tick has run.
    let exact = |s: &Station, downs: u64| {
        let reg = obs.registry();
        let stats = s.stats();
        assert_eq!(
            reg.counter("airsched_station_mode_changes_total", &[])
                .get(),
            stats.mode_changes
        );
        assert_eq!(
            reg.gauge("airsched_station_mode", &[]).get(),
            s.mode().index() as u64
        );
        assert_eq!(
            reg.counter(
                "airsched_health_transitions_total",
                &[("transition", "down")]
            )
            .get(),
            downs
        );
        assert_eq!(
            reg.counter("airsched_station_plan_rejections_total", &[])
                .get(),
            stats.plan_rejections
        );
    };
    s.fail_channel(ChannelId::new(2));
    exact(&s, 1);
    s.fail_channel(ChannelId::new(1)); // drops onto best-effort
    exact(&s, 2);
    let dumps = obs.take_postmortems();
    assert_eq!(dumps.len(), 1);
    let pm = &dumps[0];
    assert_eq!(pm.trigger, "best-effort");
    assert!(!pm.events.is_empty());
    // The triggering ModeChange is last; the causal Down transitions
    // precede it.
    let last = pm.events.last().unwrap();
    assert!(
        matches!(last, ObsEvent::ModeChange { to, .. } if to == "best-effort"),
        "{last:?}"
    );
    let downs = pm
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                ObsEvent::ChannelHealth {
                    transition: HealthTransition::Down,
                    ..
                }
            )
        })
        .count();
    assert_eq!(downs, 2, "causal channel losses missing from the dump");
}

#[test]
fn gate_refusals_record_rule_ids() {
    let mut s = resilient_station();
    let obs = Obs::new();
    s.attach_obs(&obs);
    s.set_plan_corruptor(Some(drop_page3));
    // Both the re-pack and the best-effort candidates are refused
    // (page 3 vanished: AP03 denies under both configs).
    s.fail_channel(ChannelId::new(2));
    let refusals: Vec<Vec<String>> = obs
        .recent_events(64)
        .into_iter()
        .filter_map(|e| match e {
            ObsEvent::PlanRejected { rule_ids, .. } => Some(rule_ids),
            _ => None,
        })
        .collect();
    assert_eq!(refusals.len(), 2);
    for ids in &refusals {
        assert!(ids.contains(&"AP03".to_string()), "{ids:?}");
    }
    // Replan timings were recorded for both attempted stages: the full
    // plan relocated onto the survivors, then PAMAD.
    let stages: Vec<String> = obs
        .recent_events(64)
        .into_iter()
        .filter_map(|e| match e {
            ObsEvent::ReplanTiming { stage, evals, .. } => {
                assert!(evals > 0, "zero-cost replan recorded");
                Some(stage)
            }
            _ => None,
        })
        .collect();
    assert_eq!(stages, vec!["relocate".to_string(), "pamad".to_string()]);
}

#[test]
fn snapshot_restores_a_bit_identical_twin_mid_chaos() {
    let plan = FaultPlan::seeded(99)
        .with_outage(0.05)
        .with_recovery(0.25)
        .with_stalls(0.02)
        .with_corruption(0.1)
        .with_script(vec![FaultEvent::Down {
            at: 30,
            channel: ChannelId::new(1),
        }]);
    let mut original = Station::with_faults(3, 8, &plan).unwrap();
    original.publish(PageId::new(0), 2).unwrap();
    original.publish(PageId::new(1), 4).unwrap();
    original.publish(PageId::new(2), 8).unwrap();
    // Drive it into the interesting regime: mid-chaos, clients
    // waiting, health windows partially filled.
    for t in 0..150u64 {
        if t % 4 == 0 {
            original
                .subscribe(PageId::new(u32::try_from(t % 3).unwrap()))
                .unwrap();
        }
        original.tick();
    }
    let snap = original.snapshot();
    // The continuation must stay bit-identical, including fresh
    // subscriptions on both sides.
    let mut restored = Station::from_snapshot(&snap, Some(&plan)).unwrap();
    assert_eq!(restored.stats(), original.stats());
    assert_eq!(restored.mode(), original.mode());
    assert_eq!(restored.now(), original.now());
    for t in 150..400u64 {
        if t % 4 == 0 {
            let page = PageId::new(u32::try_from(t % 3).unwrap());
            assert_eq!(
                original.subscribe(page).unwrap(),
                restored.subscribe(page).unwrap()
            );
        }
        assert_eq!(original.tick(), restored.tick(), "diverged at slot {t}");
    }
    assert_eq!(original.stats(), restored.stats());
}

#[test]
fn snapshot_restore_rejects_inconsistencies() {
    let plan = FaultPlan::seeded(7).with_outage(0.1).with_recovery(0.2);
    let mut s = Station::with_faults(2, 8, &plan).unwrap();
    s.publish(PageId::new(0), 2).unwrap();
    s.publish(PageId::new(1), 4).unwrap();
    s.run(20);
    s.subscribe(PageId::new(0)).unwrap();
    s.subscribe(PageId::new(1)).unwrap();
    let snap = s.snapshot();
    assert!(Station::from_snapshot(&snap, Some(&plan)).is_ok());
    // Injector state without the plan that explains it.
    let err = Station::from_snapshot(&snap, None).unwrap_err();
    assert!(matches!(err, StationError::CorruptSnapshot { .. }));
    assert!(err.to_string().contains("cannot restore station snapshot"));
    let forgeries: [fn(&mut StationSnapshot); 7] = [
        // Injector channel count out of step with the station's.
        |bad| bad.injector.as_mut().unwrap().up.push(true),
        // An injector mask that disagrees with the station's.
        |bad| {
            let up = &mut bad.injector.as_mut().unwrap().up;
            up[0] = !up[0];
        },
        // Expected times that say live page 1 is not live.
        |bad| bad.expected[1] = None,
        // A waiting count below the waiters carried.
        |bad| bad.stats.waiting -= 1,
        // A waiter that subscribed after the snapshot's time.
        |bad| bad.waiting[0][0].1 = bad.time + 1,
        // A waiter on a page id past every published one.
        |bad| {
            bad.waiting.resize(bad.expected.len() + 1, Vec::new());
            bad.waiting.last_mut().unwrap().push((99, 0));
            bad.stats.waiting += 1;
        },
        // A degraded-plan grid that lies about its dimensions.
        |bad| {
            bad.active = ActivePlanSnapshot::Reduced(ProgramSnapshot {
                channels: 2,
                cycle: 8,
                grid: vec![None; 3],
            });
        },
    ];
    for (i, forge) in forgeries.into_iter().enumerate() {
        let mut bad = snap.clone();
        forge(&mut bad);
        assert!(
            matches!(
                Station::from_snapshot(&bad, Some(&plan)),
                Err(StationError::CorruptSnapshot { .. })
            ),
            "forgery {i} restored"
        );
    }
}

#[test]
fn a_channel_mask_of_the_wrong_length_is_corrupt() {
    let mut s = Station::new(2, 8).unwrap();
    s.publish(PageId::new(0), 2).unwrap();
    let snap = s.snapshot();
    for len in [0, 1, 3] {
        let mut bad = snap.clone();
        bad.channel_up = vec![true; len];
        assert!(
            matches!(
                Station::from_snapshot(&bad, None),
                Err(StationError::CorruptSnapshot { .. })
            ),
            "a {len}-channel mask restored"
        );
    }
}

#[test]
fn overflowing_program_snapshot_dimensions_are_corrupt() {
    // 2 x 2^63 cells wraps to 0 in a 64-bit product, which an empty grid
    // would match.
    let hostile = ProgramSnapshot {
        channels: 2,
        cycle: 1 << 63,
        grid: Vec::new(),
    };
    assert!(matches!(
        hostile.rebuild(),
        Err(StationError::CorruptSnapshot { .. })
    ));
}

fn every_slot_trace() -> Trace {
    Trace::new(airsched_trace::TraceConfig {
        sample_every: 1,
        ring_capacity: 16,
        slo: airsched_trace::SloConfig::default(),
    })
}

#[test]
fn trace_samples_span_trees() {
    // Demand 1.5 channels keeps both transmitters busy, so the drain
    // sees >= 2 requests per slot.
    let mut s = Station::new(2, 8).unwrap();
    s.publish(PageId::new(0), 2).unwrap();
    s.publish(PageId::new(1), 2).unwrap();
    s.publish(PageId::new(2), 4).unwrap();
    s.publish(PageId::new(3), 4).unwrap();
    let trace = every_slot_trace();
    s.attach_trace(&trace);
    assert!(s.trace().is_some());
    for t in 0..32u64 {
        let page = PageId::new(u32::try_from(t % 4).unwrap());
        s.subscribe(page).unwrap();
        s.tick();
    }
    let snap = trace.snapshot();
    assert_eq!(snap.slots, 32, "SLO tracker must see every tick");
    assert_eq!(snap.sampled, 32, "sample_every=1 captures every slot");
    for phase in [
        Phase::Faults,
        Phase::Air,
        Phase::Drain,
        Phase::Deadline,
        Phase::Sync,
    ] {
        assert!(
            snap.phases
                .iter()
                .any(|p| p.phase == phase && p.count == 32),
            "phase {} missing from snapshot",
            phase.name()
        );
    }
    let doc = trace.render_chrome(false);
    for name in ["\"slot\"", "\"drain\""] {
        assert!(doc.contains(name), "chrome doc missing {name}: {doc}");
    }
}

#[test]
fn unsampled_ticks_still_track_slo() {
    let mut s = station_with_catalogue();
    let trace = Trace::new(airsched_trace::TraceConfig {
        sample_every: 0,
        ring_capacity: 16,
        slo: airsched_trace::SloConfig::default(),
    });
    s.attach_trace(&trace);
    s.subscribe(PageId::new(0)).unwrap();
    s.run(16);
    let snap = trace.snapshot();
    assert_eq!(snap.slots, 16);
    assert_eq!(snap.sampled, 0, "sampling off must capture nothing");
    assert!(snap.phases.is_empty());
    assert_eq!(snap.slo_burns, 0);
    assert_eq!(snap.fast_hit_milli, 1000, "valid schedule serves on time");
}

#[test]
fn tracing_does_not_change_the_output_stream() {
    let mut plain = station_with_catalogue();
    let mut traced = station_with_catalogue();
    let trace = every_slot_trace();
    traced.attach_trace(&trace);
    for t in 0..100u64 {
        if t % 3 == 0 {
            let page = PageId::new(u32::try_from(t % 3).unwrap());
            assert_eq!(
                plain.subscribe(page).unwrap(),
                traced.subscribe(page).unwrap()
            );
        }
        assert_eq!(plain.tick(), traced.tick(), "diverged at slot {t}");
    }
    assert_eq!(plain.stats(), traced.stats());
}

#[test]
fn slo_burn_fires_on_late_deliveries_and_captures_postmortem() {
    let mut s = station_with_catalogue();
    let obs = Obs::new();
    s.attach_obs(&obs);
    let trace = every_slot_trace();
    s.attach_trace(&trace);
    // Park a crowd on the fastest page, then black out both channels
    // long enough to fill the fast SLO window and blow the deadline.
    for _ in 0..8 {
        s.subscribe(PageId::new(0)).unwrap();
    }
    s.fail_channel(ChannelId::new(0));
    s.fail_channel(ChannelId::new(1));
    s.run(80);
    assert_eq!(trace.snapshot().slo_burns, 0, "idle slots are not misses");
    // Restoration serves the crowd far past its deadline: the slot's
    // deliveries all miss, the fast and slow windows both burn, and
    // the alert lands in the flight recorder with a postmortem.
    s.restore_channel(ChannelId::new(0));
    s.restore_channel(ChannelId::new(1));
    s.run(8);
    let snap = trace.snapshot();
    assert!(snap.slo_burns >= 1, "burn alert must fire: {snap:?}");
    let events = obs.recent_events(256);
    let burn = events
        .iter()
        .find(|e| matches!(e, ObsEvent::SloBurn { .. }))
        .expect("SloBurn event recorded");
    if let ObsEvent::SloBurn {
        fast_burn_milli,
        threshold_milli,
        ..
    } = burn
    {
        assert!(fast_burn_milli >= threshold_milli);
    }
    // The burn lands ahead of its slot's deadline-miss batch, and the
    // postmortem it cuts ends on the burn itself.
    let at = events.iter().position(|e| e == burn).unwrap();
    assert!(
        matches!(events[at + 1], ObsEvent::DeadlineMiss { slot, .. } if slot == burn.slot()),
        "{events:?}"
    );
    let pms = obs.take_postmortems();
    let pm = pms
        .iter()
        .find(|p| p.trigger == "slo_burn")
        .expect("postmortem captured for the burn");
    assert_eq!(pm.events.last(), Some(burn));
}

/// One pre-swap gate verdict and what it judged: the candidate, the
/// configuration, the scheduler (and so the catalogue) at the time, the
/// report, and whether the gate linted by change set.
#[derive(Debug, Clone)]
pub(crate) struct GateRecord {
    pub(crate) candidate: BroadcastProgram,
    pub(crate) config: LintConfig,
    pub(crate) scheduler: OnlineScheduler,
    pub(crate) report: airsched_lint::LintReport,
    pub(crate) by_change_set: bool,
}

/// A corruptor that clones the candidate and rewrites one filled cell
/// as [`CORRUPTION`] says, through the program's own cell writes: the
/// cell's page is cleared and placed again on its other cells, so only
/// the rows that held it take fresh versions, and a gate by change set
/// must still find the damage.
pub(crate) fn rewrite_one_cell(program: &BroadcastProgram) -> BroadcastProgram {
    let (k, emptied) = CORRUPTION.get();
    let mut out = program.clone();
    let width = usize::try_from(program.cycle_len()).unwrap();
    let filled: Vec<usize> = (0..program.cells().len())
        .filter(|&i| program.cells()[i].is_some())
        .collect();
    if filled.is_empty() {
        return out;
    }
    let at = filled[k % filled.len()];
    let pos = GridPos::new(
        ChannelId::new(u32::try_from(at / width).unwrap()),
        SlotIndex::new((at % width) as u64),
    );
    let page = program.page_at(pos).expect("the cell was filled");
    out.clear_page(page);
    for other in program.occurrences(page).filter(|&other| other != pos) {
        out.place(other, page)
            .expect("the page's cells were just freed");
    }
    if !emptied {
        out.place(pos, PageId::new(page.index() ^ 1))
            .expect("the cell was just freed");
    }
    out
}

/// One step of a random station history: channel failures and
/// restores, publishes and expiries, runs of ticks, and switching the
/// [`rewrite_one_cell`] corruptor on (with its [`CORRUPTION`] choice) or
/// off.
#[derive(Debug, Clone)]
pub(crate) enum ChurnOp {
    Fail(u32),
    Restore(u32),
    Publish(u32, usize),
    Expire(u32),
    Tick(u8),
    Corrupt(Option<(usize, bool)>),
}

/// Page ids the random histories publish and expire.
const CHURN_PAGES: u32 = 24;

pub(crate) fn arb_churn_op() -> impl proptest::strategy::Strategy<Value = ChurnOp> {
    use proptest::prelude::*;
    prop_oneof![
        (0u32..4).prop_map(ChurnOp::Fail),
        (0u32..4).prop_map(ChurnOp::Restore),
        (0..CHURN_PAGES, 0usize..4).prop_map(|(p, t)| ChurnOp::Publish(p, t)),
        (0..CHURN_PAGES).prop_map(ChurnOp::Expire),
        (1u8..6).prop_map(ChurnOp::Tick),
        prop::option::of((any::<usize>(), any::<bool>())).prop_map(ChurnOp::Corrupt),
    ]
}

/// A 4-channel, 16-slot station publishing the even page ids below
/// [`CHURN_PAGES`] at mixed expected times: about two channels' worth, so
/// one or two losses repack and three fall back to best effort.
pub(crate) fn churn_station() -> Station {
    let mut s = Station::new(4, 16).unwrap();
    for p in (0..CHURN_PAGES).step_by(2) {
        s.publish(PageId::new(p), [4, 8, 16, 16][p as usize % 4])
            .unwrap();
    }
    s
}

/// Applies one [`ChurnOp`] (refused publishes and expiries are part of
/// the history; corruptor switches only when `corrupting`) and returns
/// how many slots to tick after it.
pub(crate) fn apply_churn(s: &mut Station, op: &ChurnOp, corrupting: bool) -> u8 {
    match *op {
        ChurnOp::Fail(ch) => {
            s.fail_channel(ChannelId::new(ch));
        }
        ChurnOp::Restore(ch) => {
            s.restore_channel(ChannelId::new(ch));
        }
        ChurnOp::Publish(p, t) => {
            let _ = s.publish(PageId::new(p), [2, 4, 8, 16][t]);
        }
        ChurnOp::Expire(p) => {
            let _ = s.expire(PageId::new(p));
        }
        ChurnOp::Tick(n) => return n,
        ChurnOp::Corrupt(choice) => {
            if corrupting {
                if let Some(choice) = choice {
                    CORRUPTION.set(choice);
                }
                s.set_plan_corruptor(choice.map(|_| rewrite_one_cell as PlanCorruptor));
            }
        }
    }
    1
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

    /// Every pre-swap gate's report, by change set or whole, equals the
    /// full lint of the same candidate against the same catalogue —
    /// diagnostics in order, warnings count and deny codes — through
    /// random failures, restores, publishes and expiries, without a
    /// corruptor and with one switched on and off that rewrites one cell
    /// through the program's own writes.
    #[test]
    fn change_set_gate_matches_the_full_lint(
        ops in proptest::collection::vec(arb_churn_op(), 1..48),
        corrupting in proptest::prelude::any::<bool>(),
    ) {
        let mut s = churn_station();
        for op in &ops {
            for _ in 0..apply_churn(&mut s, op, corrupting) {
                s.tick();
            }
        }
        for record in &s.gate_log {
            let input =
                LintInput::for_live_catalogue(&record.candidate, record.scheduler.pages());
            let want = airsched_lint::lint(&input, &record.config);
            proptest::prop_assert_eq!(&record.report, &want);
            proptest::prop_assert_eq!(
                record.report.count_at(airsched_lint::Severity::Warn),
                want.count_at(airsched_lint::Severity::Warn)
            );
            let deny = |r: &airsched_lint::LintReport| -> Vec<&'static str> {
                r.diagnostics()
                    .iter()
                    .filter(|d| d.severity == airsched_lint::Severity::Deny)
                    .map(|d| d.rule.code())
                    .collect()
            };
            proptest::prop_assert_eq!(deny(&record.report), deny(&want));
        }
    }
}

/// A catalogue edit under a clean relocation is gated by change set, and
/// only the pages it moved are linted again; a corrupted cell on a row
/// the edit did not touch is still caught. The full plan is a certified
/// base too: a fail swap from it is gated by change set, and a corrupted
/// cell on a row it kept is refused with the full lint's deny codes.
#[test]
fn a_catalogue_edit_under_a_clean_relocation_is_gated_by_change_set() {
    let mut s = churn_station();
    assert_eq!(s.fail_channel(ChannelId::new(0)), Mode::Repacked);
    // The first relocation's base is the full plan: by change set.
    assert!(s.gate_log[0].by_change_set && s.gate_log[0].report.is_clean());
    s.expire(PageId::new(2)).unwrap();
    s.publish(PageId::new(3), 16).unwrap();
    let edits = &s.gate_log[1..];
    assert_eq!(edits.len(), 2);
    assert!(edits.iter().all(|r| r.by_change_set && r.report.is_clean()));
    assert_eq!(s.mode(), Mode::Repacked);
    // A corrupted relocation is refused (PAMAD takes over), and the
    // certificate goes with the refusal: the next repack lints whole.
    CORRUPTION.set((0, true));
    s.set_plan_corruptor(Some(rewrite_one_cell as PlanCorruptor));
    let before = s.gate_log.len();
    s.publish(PageId::new(5), 16).unwrap();
    let refused = &s.gate_log[before];
    assert!(
        refused.by_change_set && refused.report.has_deny(),
        "{refused:?}"
    );
    assert_eq!(s.stats().plan_rejections, 1);
    assert_eq!(s.mode(), Mode::BestEffort);
    s.set_plan_corruptor(None);
    s.expire(PageId::new(5)).unwrap();
    let last = s.gate_log.last().unwrap();
    assert!(!last.by_change_set && last.report.is_clean());
    assert_eq!(s.mode(), Mode::Repacked);

    // From the full plan, the first filled cell of the relocation is on
    // its row 0, the full plan's row 1, which the loss of channel 0 kept.
    let mut s = churn_station();
    CORRUPTION.set((0, true));
    s.set_plan_corruptor(Some(rewrite_one_cell as PlanCorruptor));
    s.fail_channel(ChannelId::new(0));
    let refused = &s.gate_log[0];
    let clean = refused
        .scheduler
        .relocate(
            refused.scheduler.program(),
            &[Some(1), Some(2), Some(3)],
            BaseTrust::Certified { edited: None },
        )
        .unwrap();
    let differs = |ch| refused.candidate.row_cells(ch) != clean.row_cells(ch);
    assert_eq!((differs(0), differs(1), differs(2)), (true, false, false));
    let full = airsched_lint::lint(
        &LintInput::for_live_catalogue(&refused.candidate, refused.scheduler.pages()),
        &refused.config,
    );
    let deny = |r: &airsched_lint::LintReport| -> Vec<&'static str> {
        r.diagnostics()
            .iter()
            .filter(|d| d.severity == airsched_lint::Severity::Deny)
            .map(|d| d.rule.code())
            .collect()
    };
    assert!(
        refused.by_change_set && refused.report.has_deny(),
        "{refused:?}"
    );
    assert_eq!(deny(&refused.report), deny(&full));
    assert_eq!(s.stats().plan_rejections, 1);
}
