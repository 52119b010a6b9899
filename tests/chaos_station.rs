//! Chaos-style integration tests for the fault-tolerant broadcast station.
//!
//! A scripted outage storm walks the station down the whole degradation
//! ladder (Valid → Repacked → BestEffort → Offline) and back up, while
//! clients keep subscribing. The tests pin the ladder's contract:
//!
//! * the station claims a *valid* mode (`Valid` or `Repacked`) only while
//!   every delivery whose wait is fully contained in the current plan
//!   epoch meets its deadline;
//! * failover to PAMAD best-effort happens exactly when the survivor
//!   count drops below the catalogue's Theorem 3.1 minimum;
//! * SUSC service (`Mode::Valid`) is restored after recovery, and no
//!   in-flight subscription is lost anywhere along the way;
//! * the fault injector is fully deterministic: equal seeds give equal
//!   `TickOutcome` streams.

use airsched_core::bound::minimum_channels_for_times;
use airsched_core::types::{ChannelId, PageId};
use airsched_obs::events::{Event, HealthTransition};
use airsched_obs::Obs;
use airsched_server::{ChannelEvent, FaultEvent, FaultPlan, Mode, Station};

fn ch(n: u32) -> ChannelId {
    ChannelId::new(n)
}

fn page(n: u32) -> PageId {
    PageId::new(n)
}

/// Four channels, a 16-slot cycle, and a harmonic catalogue whose demand
/// fraction is 1.3125 — so Theorem 3.1 says two survivors still suffice.
const CATALOGUE: [(u32, u64); 6] = [(0, 2), (1, 4), (2, 8), (3, 16), (4, 4), (5, 8)];

fn storm_station(plan: &FaultPlan) -> Station {
    let mut station = Station::with_faults(4, 16, plan).unwrap();
    for (p, t) in CATALOGUE {
        station.publish(page(p), t).unwrap();
    }
    station
}

fn catalogue_minimum(station: &Station) -> u32 {
    let times: Vec<u64> = station.catalogue().iter().map(|(_, t)| t).collect();
    minimum_channels_for_times(&times).unwrap()
}

/// The mode the ladder promises for a given survivor count, for a
/// harmonic catalogue (where the SUSC re-pack always succeeds at or
/// above the minimum).
fn expected_mode(survivors: u32, configured: u32, minimum: u32) -> Mode {
    if survivors == 0 {
        Mode::Offline
    } else if survivors == configured {
        Mode::Valid
    } else if survivors >= minimum {
        Mode::Repacked
    } else {
        Mode::BestEffort
    }
}

/// The full storm: channels die one by one until the station is dark,
/// then recover one by one. Checks mode-vs-survivor agreement on every
/// tick, the valid-mode deadline guarantee for epoch-contained waits,
/// the stats counters, and that every subscription survives.
#[test]
fn scripted_storm_walks_the_ladder_and_keeps_promises() {
    let script = vec![
        FaultEvent::Down {
            at: 20,
            channel: ch(3),
        },
        FaultEvent::Down {
            at: 40,
            channel: ch(2),
        },
        FaultEvent::Down {
            at: 60,
            channel: ch(1),
        },
        FaultEvent::Down {
            at: 80,
            channel: ch(0),
        },
        FaultEvent::Up {
            at: 90,
            channel: ch(0),
        },
        FaultEvent::Up {
            at: 100,
            channel: ch(1),
        },
        FaultEvent::Up {
            at: 120,
            channel: ch(2),
        },
        FaultEvent::Up {
            at: 140,
            channel: ch(3),
        },
    ];
    let mut station = storm_station(&FaultPlan::scripted(script));
    let minimum = catalogue_minimum(&station);
    assert_eq!(
        minimum, 2,
        "harmonic catalogue chosen so two survivors suffice"
    );

    // The plan epoch starts whenever the on-air plan is re-derived — on
    // any channel transition, even one that does not change the mode
    // (e.g. Repacked on 3 survivors -> Repacked on 2). A wait contained
    // in one epoch ran entirely under a single plan.
    let mut epoch_start = 0u64;
    let mut next_page = 0u32;
    let mut subscribed = 0u64;
    let mut delivered = 0u64;
    let mut late_in_valid_epoch = 0u64;
    // The first slot of the current run of Valid or Repacked slots: a
    // wait that began at or after it ran under valid plans only, across
    // any swaps between them.
    let mut valid_since = 0u64;
    let mut late_across_valid_swaps = Vec::new();

    for t in 0..200u64 {
        if t < 180 && t % 3 == 0 {
            station.subscribe(page(next_page % 6)).unwrap();
            next_page += 1;
            subscribed += 1;
        }
        let out = station.tick();
        assert_eq!(out.time, t);
        assert_eq!(out.on_air.len(), 4);

        if out
            .events
            .iter()
            .any(|e| matches!(e, ChannelEvent::Down { .. } | ChannelEvent::Up { .. }))
        {
            epoch_start = t;
        }

        let survivors = station.channels_up();
        assert_eq!(
            out.mode,
            expected_mode(survivors, 4, minimum),
            "slot {t}: {survivors} survivors"
        );

        // Down channels never transmit.
        for (c, slot) in out.on_air.iter().enumerate() {
            if !station.is_channel_up(ch(u32::try_from(c).unwrap())) {
                assert_eq!(*slot, None, "slot {t} channel {c}");
            }
        }

        if !out.mode.is_valid() {
            valid_since = t + 1;
        }
        for d in &out.deliveries {
            delivered += 1;
            let since = t + 1 - d.wait;
            if since >= epoch_start && out.mode.is_valid() && !d.within_deadline {
                late_in_valid_epoch += 1;
            }
            if since >= valid_since && !d.within_deadline {
                late_across_valid_swaps.push((t, d.page, d.wait));
            }
        }
    }

    // The core robustness promise: while the station claimed a valid
    // mode, no wait that ran under a single plan missed its deadline.
    assert_eq!(late_in_valid_epoch, 0);
    // Across swaps between valid plans, one wait is late, and not for
    // want of a free family. The climb out of best-effort packs two
    // survivors afresh (slot 100; there is no SUSC plan to relocate
    // from), which puts page 3 (t = 16) at column 2 where the full plan
    // has it at column 7. Relocating onto three survivors (slot 120)
    // keeps column 2, and the restore to the full plan at slot 140 moves
    // it back to column 7: a client who subscribed at slot 135 waits 17
    // slots. Only a fresh pack that kept the full plan's columns would
    // close this.
    assert_eq!(late_across_valid_swaps, [(151, page(3), 17)]);

    // SUSC restored after the last recovery, nobody left behind.
    assert_eq!(station.mode(), Mode::Valid);
    assert_eq!(station.channels_up(), 4);
    assert_eq!(
        delivered, subscribed,
        "every subscription is eventually served"
    );
    assert_eq!(station.stats().waiting, 0);

    let stats = station.stats();
    // Into BestEffort twice: going down past the minimum, and climbing
    // back up out of Offline.
    assert_eq!(stats.failovers, 2);
    // Into Repacked twice: first channel loss, and the climb back from
    // BestEffort (further losses within the Repacked rung don't count).
    assert_eq!(stats.repacks, 2);
    assert_eq!(stats.recoveries, 1);
    // Slots 20..140 ran in a non-Valid mode.
    assert_eq!(stats.degraded_slots, 120);

    // Per-mode tallies partition the global counters.
    let modes = [Mode::Valid, Mode::Repacked, Mode::BestEffort, Mode::Offline];
    let per_mode_delivered: u64 = modes.iter().map(|&m| stats.per_mode(m).delivered).sum();
    let per_mode_on_time: u64 = modes.iter().map(|&m| stats.per_mode(m).on_time).sum();
    assert_eq!(per_mode_delivered, stats.delivered);
    assert_eq!(per_mode_on_time, stats.on_time);
    assert!(stats.per_mode(Mode::Repacked).delivered > 0);
    assert!(stats.per_mode(Mode::BestEffort).delivered > 0);
}

/// Failover to PAMAD happens *exactly* when the survivors drop below the
/// Theorem 3.1 minimum: one channel above the line stays Repacked, one
/// below goes BestEffort, and recovery steps straight back.
#[test]
fn pamad_failover_triggers_exactly_below_the_minimum() {
    let mut station = storm_station(&FaultPlan::scripted(vec![]));
    let minimum = catalogue_minimum(&station);

    // Walk down manually so each rung is observable between ticks.
    let mut expected = Vec::new();
    for c in (0..4u32).rev() {
        let mode = station.fail_channel(ch(c));
        expected.push((station.channels_up(), mode));
    }
    for (survivors, mode) in expected {
        assert_eq!(
            mode,
            expected_mode(survivors, 4, minimum),
            "{survivors} survivors"
        );
        // The boundary itself: BestEffort if and only if below minimum.
        assert_eq!(
            mode == Mode::BestEffort,
            survivors > 0 && survivors < minimum
        );
    }

    for c in 0..4u32 {
        let mode = station.restore_channel(ch(c));
        assert_eq!(mode, expected_mode(station.channels_up(), 4, minimum));
    }
    assert_eq!(station.mode(), Mode::Valid);
}

/// A subscription made while the station is completely dark is not lost:
/// it is served after recovery, with the outage time counted against its
/// (necessarily missed) deadline.
#[test]
fn subscriptions_survive_a_total_outage() {
    let mut station = storm_station(&FaultPlan::scripted(vec![]));
    for c in 0..4u32 {
        station.fail_channel(ch(c));
    }
    assert_eq!(station.mode(), Mode::Offline);

    let client = station.subscribe(page(0)).unwrap();
    let dark = station.run(30);
    assert!(dark.is_empty(), "a dark station delivers nothing");

    for c in 0..4u32 {
        station.restore_channel(ch(c));
    }
    let after = station.run(16);
    let served = after.iter().find(|d| d.client == client).expect("served");
    assert!(served.wait > 30, "the outage counts toward the wait");
    assert!(!served.within_deadline);
    assert_eq!(station.stats().waiting, 0);
}

/// A seeded random storm (outage-prone but recovery-dominant, with
/// stalls and corruption mixed in) never strands a subscriber: once the
/// faults stop and the channels are restored, the backlog drains within
/// one cycle.
#[test]
fn random_storm_drains_once_faults_stop() {
    let plan = FaultPlan::seeded(0xC4A05)
        .with_outage(0.02)
        .with_recovery(0.25)
        .with_stalls(0.05)
        .with_corruption(0.05);
    let mut station = storm_station(&plan);

    let mut subscribed = 0u64;
    for t in 0..900u64 {
        if t % 5 == 0 {
            station.subscribe(page((t % 6) as u32)).unwrap();
            subscribed += 1;
        }
        let out = station.tick();
        assert_eq!(out.on_air.len(), 4);
        assert_eq!(out.corrupted.len(), 4);
        for (corrupt, slot) in out.corrupted.iter().zip(&out.on_air) {
            if *corrupt {
                assert!(slot.is_some(), "corruption implies a transmission");
            }
        }
    }
    assert!(subscribed > 0);

    // Stop the weather, restore everything, and give the station one
    // full cycle of calm air.
    station.set_fault_plan(&FaultPlan::scripted(vec![]));
    for c in 0..4u32 {
        station.restore_channel(ch(c));
    }
    station.run(16);
    assert_eq!(station.mode(), Mode::Valid);
    assert_eq!(
        station.stats().waiting,
        0,
        "the backlog drains under calm air"
    );
    assert_eq!(station.stats().delivered, subscribed);
}

/// The acceptance criterion for the injector: two stations built from
/// the same seed, catalogue and client schedule produce bit-identical
/// `TickOutcome` streams and statistics.
#[test]
fn equal_seeds_give_identical_chaos_runs() {
    let plan = FaultPlan::seeded(77)
        .with_outage(0.04)
        .with_recovery(0.2)
        .with_stalls(0.08)
        .with_corruption(0.1);
    let mut a = storm_station(&plan);
    let mut b = storm_station(&plan);
    for t in 0..400u64 {
        if t % 7 == 0 {
            a.subscribe(page((t % 6) as u32)).unwrap();
            b.subscribe(page((t % 6) as u32)).unwrap();
        }
        assert_eq!(a.tick(), b.tick(), "slot {t}");
    }
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.mode(), b.mode());
}

/// A corrupted replan pipeline: every candidate the ladder produces has
/// page 0 (the tightest deadline) stripped out before the lint gate.
fn strip_page0(
    program: &airsched_core::program::BroadcastProgram,
) -> airsched_core::program::BroadcastProgram {
    use airsched_core::types::{GridPos, SlotIndex};
    let mut out =
        airsched_core::program::BroadcastProgram::new(program.channels(), program.cycle_len());
    for channel in 0..program.channels() {
        for slot in 0..program.cycle_len() {
            let pos = GridPos::new(ch(channel), SlotIndex::new(slot));
            if let Some(p) = program.page_at(pos) {
                if p != page(0) {
                    out.place(pos, p).unwrap();
                }
            }
        }
    }
    out
}

/// The acceptance scenario for the pre-swap lint gate: an outage forces a
/// replan, the replan pipeline is corrupted (a page vanishes), and the
/// station must refuse the swap and keep serving the previous, vetted
/// program instead of airing the corrupt one.
#[test]
fn corrupted_replan_is_rejected_and_previous_program_keeps_serving() {
    let plan = FaultPlan::scripted(vec![FaultEvent::Down {
        at: 8,
        channel: ch(3),
    }]);
    let mut station = storm_station(&plan);
    station.set_plan_corruptor(Some(strip_page0));

    // Healthy spell: the full plan airs, page 0 included.
    let client = station.subscribe(page(0)).unwrap();
    let outcome = station.run(8);
    assert!(outcome
        .iter()
        .any(|d| d.client == client && d.within_deadline));

    // Slot 8: channel 3 dies. Three survivors meet the minimum, so the
    // ladder proposes a re-pack — which the corruptor mutilates and the
    // gate must refuse; the PAMAD fallback is mutilated and refused too.
    let tick = station.tick();
    assert_eq!(
        tick.events,
        vec![ChannelEvent::Down {
            channel: ch(3),
            at: 8
        }]
    );
    assert_eq!(station.mode(), Mode::Valid, "corrupt plan was installed");
    assert_eq!(station.stats().plan_rejections, 2);
    assert_eq!(station.stats().repacks, 0);
    assert_eq!(station.stats().failovers, 0);

    // The previous program keeps serving: page 0 still airs on the
    // survivors and new subscribers to it are still delivered on time.
    let client = station.subscribe(page(0)).unwrap();
    let mut served = false;
    for _ in 0..4 {
        let tick = station.tick();
        assert_eq!(tick.on_air[3], None, "down channel aired");
        for d in &tick.deliveries {
            if d.client == client {
                assert!(d.within_deadline, "{d:?}");
                served = true;
            }
        }
    }
    assert!(served, "previous program stopped serving page 0");

    // Fixing the pipeline and re-running the ladder installs the re-pack.
    station.set_plan_corruptor(None);
    station.restore_channel(ch(3));
    assert_eq!(station.mode(), Mode::Valid);
    assert_eq!(station.fail_channel(ch(3)), Mode::Repacked);
    assert_eq!(station.stats().plan_rejections, 2, "clean replan refused");
}

/// The storm script shared by the observability tests: the same walk down
/// the ladder and back as `scripted_storm_walks_the_ladder_and_keeps_promises`.
fn storm_script() -> Vec<FaultEvent> {
    let down = [(20, 3), (40, 2), (60, 1), (80, 0)];
    let up = [(90, 0), (100, 1), (120, 2), (140, 3)];
    down.iter()
        .map(|&(at, c)| FaultEvent::Down { at, channel: ch(c) })
        .chain(
            up.iter()
                .map(|&(at, c)| FaultEvent::Up { at, channel: ch(c) }),
        )
        .collect()
}

/// Drives the scripted storm with an `Obs` handle attached and hands back
/// the station and handle for inspection.
fn observed_storm() -> (Station, Obs) {
    let mut station = storm_station(&FaultPlan::scripted(storm_script()));
    let obs = Obs::with_recorder_capacity(4096);
    station.attach_obs(&obs);
    for t in 0..200u64 {
        if t < 180 && t % 3 == 0 {
            station.subscribe(page((t % 6) as u32)).unwrap();
        }
        station.tick();
    }
    (station, obs)
}

/// The flight recorder and metrics registry tell the same story as the
/// station's own statistics, end to end through the full storm: counters
/// mirror stats exactly, and the `ModeChange` event stream is precisely
/// the ladder walk (with `ChannelHealth` events at the scripted slots).
#[test]
fn flight_recorder_mirrors_the_storm() {
    let (station, obs) = observed_storm();
    let stats = station.stats();
    let snap = obs.snapshot();

    for (metric, want) in [
        ("airsched_station_slots_total", stats.slots_elapsed),
        ("airsched_station_delivered_total", stats.delivered),
        ("airsched_station_on_time_total", stats.on_time),
        (
            "airsched_station_deadline_miss_total",
            stats.delivered - stats.on_time,
        ),
        (
            "airsched_station_degraded_slots_total",
            stats.degraded_slots,
        ),
        ("airsched_station_mode_changes_total", stats.mode_changes),
        ("airsched_station_wait_slots", stats.delivered),
    ] {
        assert_eq!(snap.scalar_total(metric), want, "{metric}");
    }

    let events = obs.recent_events(4096);
    let changes: Vec<(String, String, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::ModeChange { from, to, slot, .. } => Some((from.clone(), to.clone(), *slot)),
            _ => None,
        })
        .collect();
    let ladder = [
        ("valid", "repacked", 20),
        ("repacked", "best-effort", 60),
        ("best-effort", "offline", 80),
        ("offline", "best-effort", 90),
        ("best-effort", "repacked", 100),
        ("repacked", "valid", 140),
    ];
    assert_eq!(changes.len(), ladder.len());
    assert_eq!(changes.len() as u64, stats.mode_changes);
    for ((from, to, slot), want) in changes.iter().zip(ladder) {
        assert_eq!(
            (from.as_str(), to.as_str(), *slot),
            want,
            "ladder walk diverges"
        );
    }

    // One ChannelHealth event per scripted transition, at its slot.
    let health: Vec<(u32, u64, HealthTransition)> = events
        .iter()
        .filter_map(|e| match e {
            Event::ChannelHealth {
                ch,
                slot,
                transition,
            } => Some((*ch, *slot, *transition)),
            _ => None,
        })
        .collect();
    let downs = [(3, 20), (2, 40), (1, 60), (0, 80)];
    let ups = [(0, 90), (1, 100), (2, 120), (3, 140)];
    for (c, at) in downs {
        assert!(
            health.contains(&(c, at, HealthTransition::Down)),
            "missing Down for channel {c} at {at}"
        );
    }
    for (c, at) in ups {
        assert!(
            health.contains(&(c, at, HealthTransition::Up)),
            "missing Up for channel {c} at {at}"
        );
    }

    // The Prometheus exposition carries the same numbers: the unlabelled
    // slot counter verbatim, and the per-mode delivered series by label.
    let prom = obs.render_prometheus();
    assert!(prom.contains(&format!(
        "airsched_station_slots_total {}",
        stats.slots_elapsed
    )));
    assert!(prom.contains("airsched_station_delivered_total{mode=\"best-effort\"}"));
}

/// Dropping onto a non-valid rung auto-captures a black-box postmortem
/// whose trailing event window contains the cause: the `ChannelHealth`
/// transition that triggered the drop, then the `ModeChange` itself.
#[test]
fn best_effort_degradation_dumps_a_postmortem() {
    let (_station, obs) = observed_storm();
    let dumps = obs.take_postmortems();

    // BestEffort at 60, Offline at 80, and BestEffort again at 90 while
    // climbing back out — three black-box moments.
    let triggers: Vec<(&str, u64)> = dumps
        .iter()
        .map(|pm| (pm.trigger.as_str(), pm.slot))
        .collect();
    assert_eq!(
        triggers,
        [("best-effort", 60), ("offline", 80), ("best-effort", 90)]
    );

    let first = &dumps[0];
    assert!(!first.events.is_empty(), "postmortem carries history");
    // The last event in the window is the ModeChange that triggered the
    // dump, and the causal ChannelHealth Down precedes it.
    assert!(
        matches!(
            first.events.last(),
            Some(Event::ModeChange { to, slot: 60, .. }) if to == "best-effort"
        ),
        "postmortem ends with its trigger: {:?}",
        first.events.last()
    );
    let cause = first.events.iter().position(|e| {
        matches!(
            e,
            Event::ChannelHealth {
                ch: 1,
                slot: 60,
                transition: HealthTransition::Down
            }
        )
    });
    assert!(
        cause.is_some_and(|i| i < first.events.len() - 1),
        "causal ChannelHealth Down missing from the window"
    );

    // The dumps drain exactly once.
    assert!(obs.take_postmortems().is_empty());
}

/// Attaching observability never perturbs the broadcast: a plain station
/// and an instrumented one driven through the same seeded random storm
/// produce bit-identical `TickOutcome` streams and statistics.
#[test]
fn instrumented_chaos_run_is_bit_identical_to_plain() {
    let plan = FaultPlan::seeded(0x0B5)
        .with_outage(0.03)
        .with_recovery(0.2)
        .with_stalls(0.05)
        .with_corruption(0.08);
    let mut plain = storm_station(&plan);
    let mut observed = storm_station(&plan);
    let obs = Obs::with_recorder_capacity(4096);
    observed.attach_obs(&obs);

    for t in 0..600u64 {
        if t % 5 == 0 {
            let p = page((t % 6) as u32);
            assert_eq!(plain.subscribe(p).unwrap(), observed.subscribe(p).unwrap());
        }
        assert_eq!(plain.tick(), observed.tick(), "obs perturbed slot {t}");
    }
    assert_eq!(plain.stats(), observed.stats());
    assert_eq!(plain.mode(), observed.mode());
    // And the mirror still agrees with the (identical) stats.
    let stats = plain.stats();
    assert!(stats.degraded_slots > 0 && stats.mode_changes > 0);
    let snapshot = obs.snapshot();
    for (name, want) in [
        ("airsched_station_slots_total", stats.slots_elapsed),
        ("airsched_station_delivered_total", stats.delivered),
        ("airsched_station_on_time_total", stats.on_time),
        (
            "airsched_station_degraded_slots_total",
            stats.degraded_slots,
        ),
        ("airsched_station_mode_changes_total", stats.mode_changes),
    ] {
        assert_eq!(snapshot.scalar_total(name), want, "{name}");
    }
}
