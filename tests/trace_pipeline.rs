//! Cross-crate integration tests for the intra-slot tracing pipeline.
//!
//! These pin the three contracts the tracer makes to its consumers:
//!
//! * **Transparency** — attaching a tracer never changes the broadcast:
//!   a traced chaos run produces the same `TickOutcome` stream and
//!   statistics as an untraced twin, slot for slot;
//! * **Determinism** — with normalized timestamps, equal seeds render
//!   byte-identical Chrome trace JSON, for any seed and sampling period
//!   (checked by property);
//! * **Alerting** — a blackout that blows the deadline budget raises an
//!   `SloBurn` flight-recorder event and captures a postmortem, visible
//!   from outside the server crate exactly as `airsched top` sees it.

use airsched_core::types::{ChannelId, PageId};
use airsched_obs::events::Event as ObsEvent;
use airsched_obs::Obs;
use airsched_recover::{RecoverableStation, RecoveryOptions};
use airsched_server::{FaultPlan, Station};
use airsched_trace::{SloConfig, Trace, TraceConfig};
use proptest::prelude::*;

fn ch(n: u32) -> ChannelId {
    ChannelId::new(n)
}

fn page(n: u32) -> PageId {
    PageId::new(n)
}

/// Four channels and a harmonic six-page catalogue — the same storm rig
/// the chaos suite uses, so fault behaviour here matches `chaos_station`.
const CATALOGUE: [(u32, u64); 6] = [(0, 2), (1, 4), (2, 8), (3, 16), (4, 4), (5, 8)];

fn storm_station(plan: &FaultPlan) -> Station {
    let mut station = Station::with_faults(4, 16, plan).unwrap();
    for (p, t) in CATALOGUE {
        station.publish(page(p), t).unwrap();
    }
    station
}

fn seeded_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_outage(0.03)
        .with_recovery(0.2)
        .with_stalls(0.05)
        .with_corruption(0.05)
}

fn tracer(sample_every: u64) -> Trace {
    Trace::new(TraceConfig {
        sample_every,
        ring_capacity: 64,
        slo: SloConfig::default(),
    })
}

/// Drive a seeded chaos run with the given tracer attached and return
/// the normalized Chrome trace.
fn traced_chaos_render(seed: u64, sample_every: u64, slots: u64) -> String {
    let mut station = storm_station(&seeded_plan(seed));
    let trace = tracer(sample_every);
    station.attach_trace(&trace);
    for t in 0..slots {
        if t % 5 == 0 {
            station.subscribe(page((t % 6) as u32)).unwrap();
        }
        station.tick();
    }
    trace.render_chrome(true)
}

/// Transparency: the tracer observes the slot pipeline without bending
/// it. A traced station under a seeded storm stays bit-identical to an
/// untraced twin across outcomes, stats and mode.
#[test]
fn traced_chaos_run_matches_plain_run() {
    let plan = seeded_plan(0x7A8CE);
    let mut plain = storm_station(&plan);
    let mut traced = storm_station(&plan);
    let trace = tracer(1);
    traced.attach_trace(&trace);
    for t in 0..600u64 {
        if t % 5 == 0 {
            assert_eq!(
                plain.subscribe(page((t % 6) as u32)).unwrap(),
                traced.subscribe(page((t % 6) as u32)).unwrap()
            );
        }
        assert_eq!(plain.tick(), traced.tick(), "diverged at slot {t}");
    }
    assert_eq!(plain.stats(), traced.stats());
    assert_eq!(plain.mode(), traced.mode());
    let snap = trace.snapshot();
    assert_eq!(snap.slots, 600);
    assert_eq!(snap.sampled, 600, "sampling 1/1 captures every slot");
}

/// The rendered Chrome trace is structurally sound: every span that
/// opens closes, the pipeline lane is named, and the
/// metadata footer echoes the sampling period.
#[test]
fn chrome_trace_is_well_formed() {
    let doc = traced_chaos_render(42, 4, 256);
    assert!(doc.starts_with("{\"traceEvents\":["), "doc: {doc:.>40}");
    assert!(doc.trim_end().ends_with('}'), "JSON object closes");
    let begins = doc.matches("\"ph\":\"B\"").count();
    let ends = doc.matches("\"ph\":\"E\"").count();
    assert!(begins > 0, "sampled slots produce spans");
    assert_eq!(begins, ends, "every span that opens closes");
    assert!(doc.contains("\"slot-pipeline\""), "pipeline lane is named");
    assert!(doc.contains("\"name\":\"slot\""), "root span present");
    assert!(doc.contains("\"sampleEvery\":4"));
    assert!(doc.contains("\"normalized\":true"));
}

/// Alerting end to end: a full blackout parks a crowd past its
/// deadline; restoration serves them all late, burning both SLO
/// windows. The alert must land in the flight recorder and trip a
/// postmortem capture — the cross-crate view a dashboard relies on.
#[test]
fn slo_burn_alert_reaches_the_flight_recorder() {
    let mut station = Station::new(2, 8).unwrap();
    station.publish(page(0), 2).unwrap();
    station.publish(page(1), 4).unwrap();
    station.publish(page(2), 8).unwrap();
    let obs = Obs::new();
    station.attach_obs(&obs);
    let trace = tracer(1);
    station.attach_trace(&trace);

    for _ in 0..8 {
        station.subscribe(page(0)).unwrap();
    }
    station.fail_channel(ch(0));
    station.fail_channel(ch(1));
    station.run(80);
    assert_eq!(
        trace.snapshot().slo_burns,
        0,
        "a dark station delivers nothing, so nothing misses"
    );

    station.restore_channel(ch(0));
    station.restore_channel(ch(1));
    station.run(8);

    let snap = trace.snapshot();
    assert!(snap.slo_burns >= 1, "burn alert fires: {snap:?}");
    assert!(snap.fast_hit_milli < 1000, "fast window saw the misses");
    let events = obs.recent_events(256);
    let burn = events
        .iter()
        .find(|e| matches!(e, ObsEvent::SloBurn { .. }))
        .expect("SloBurn event in the flight recorder");
    if let ObsEvent::SloBurn {
        fast_burn_milli,
        threshold_milli,
        ..
    } = burn
    {
        assert!(fast_burn_milli >= threshold_milli);
    }
    assert!(
        obs.take_postmortems()
            .iter()
            .any(|p| p.trigger == "slo_burn"),
        "burn captures a postmortem"
    );
}

/// The slot numbers of every root span in a Chrome trace document, in
/// export order.
fn slot_roots(doc: &str) -> Vec<u64> {
    doc.lines()
        .filter(|l| l.contains("\"name\":\"slot\"") && l.contains("\"ph\":\"B\""))
        .map(|l| {
            let at = l
                .find("\"args\":{\"slot\":")
                .expect("root carries its slot")
                + 15;
            l[at..]
                .trim_end_matches(['}', ','])
                .parse()
                .expect("slot number")
        })
        .collect()
}

/// A recoverable station records its `checkpoint` span under the slot
/// it is about to serve, before the station commits that slot's root.
/// The export must still carry every sampled slot's root: the traced
/// recoverable run shows the same slot roots as the plain traced run.
#[test]
fn checkpoint_spans_keep_their_slot_roots() {
    let plan = seeded_plan(7);
    let slots = 200u64;
    let mut plain = storm_station(&plan);
    let plain_trace = tracer(32);
    plain.attach_trace(&plain_trace);
    for t in 0..slots {
        if t % 5 == 0 {
            plain.subscribe(page((t % 6) as u32)).unwrap();
        }
        plain.tick();
    }

    let dir = std::env::temp_dir().join(format!("airsched-trace-ckpt-{}", std::process::id()));
    let options = RecoveryOptions::new().checkpoint_every(64);
    let mut run =
        RecoverableStation::create(&dir, storm_station(&plan), Some(plan.clone()), options)
            .unwrap();
    let run_trace = tracer(32);
    run.attach_trace(&run_trace);
    for t in 0..slots {
        if t % 5 == 0 {
            run.subscribe(page((t % 6) as u32)).unwrap();
        }
        run.tick().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();

    let expected: Vec<u64> = (0..slots).step_by(32).collect();
    assert_eq!(slot_roots(&plain_trace.render_chrome(true)), expected);
    let doc = run_trace.render_chrome(true);
    assert!(
        doc.contains("\"name\":\"checkpoint\""),
        "checkpoint spans exported"
    );
    assert_eq!(slot_roots(&doc), expected, "slot roots lost: {doc}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Determinism by property: for any seed and sampling period, two
    /// identically-driven chaos runs render byte-identical normalized
    /// Chrome traces. This is the contract that makes the checked-in
    /// golden (`tests/golden/trace_slot.json`) meaningful.
    #[test]
    fn normalized_trace_is_seed_deterministic(
        seed in 0u64..1_000_000,
        sample_every in 1u64..=16,
    ) {
        let a = traced_chaos_render(seed, sample_every, 192);
        let b = traced_chaos_render(seed, sample_every, 192);
        prop_assert_eq!(a, b);
    }

    /// Different sampling periods agree on what they saw: the sampled
    /// counter is exactly `ceil(slots / sample_every)` regardless of
    /// the storm raging around the tracer.
    #[test]
    fn sampling_period_is_honoured_under_chaos(
        seed in 0u64..1_000_000,
        sample_every in 1u64..=16,
    ) {
        let mut station = storm_station(&seeded_plan(seed));
        let trace = tracer(sample_every);
        station.attach_trace(&trace);
        let slots = 100u64;
        for t in 0..slots {
            if t % 5 == 0 {
                station.subscribe(page((t % 6) as u32)).unwrap();
            }
            station.tick();
        }
        let snap = trace.snapshot();
        // The snapshot's slot counter rides the SLO mirror, which the
        // station refreshes every 8th slot — at most 7 slots stale.
        prop_assert!(snap.slots <= slots && snap.slots + 8 > slots);
        prop_assert_eq!(snap.sampled, slots.div_ceil(sample_every));
    }
}
