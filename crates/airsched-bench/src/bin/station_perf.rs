//! Serving-path performance: drives faulted and un-faulted stations at
//! 10k/100k/1M subscribers through the allocation-free
//! [`Station::tick_into`] serving loop and one baseline, the seed replica
//! in [`airsched_bench::seed`] (`BTreeMap`-keyed waiting lists, `BTreeMap`
//! subscribe, allocating tick, rebuilt from public APIs). It also
//! times table-driven frame encoding into one reused buffer against
//! per-frame encoding, and measures the observability tax: an
//! instrumented station (metrics registry + flight recorder attached) in
//! lockstep against an identical plain one, with a bit-identical gate and
//! an overhead ratio at the 100k-subscriber acceptance point. A fourth
//! gate kills a journaled, checkpointed station mid-run, recovers it from
//! its state directory, and drives the continuation in lockstep against
//! the never-crashed twin — restore-after-crash must be bit-identical in
//! every `TickOutcome` and the final statistics. A tracing gate runs a
//! phase-traced station at sampling 1/1 (every slot captured) in
//! lockstep against a plain twin, and trace-overhead rows time the
//! serving loop with tracing sampled at 1/32, attached with sampling
//! off, and not attached at all — the enabled taxes are capped at
//! 1.15x and the not-attached (dormant-branch) tax, which doubles as
//! an A/A noise floor, at 1.02x. Emits machine-readable `BENCH_station.json`
//! (ticks/sec, deliveries/sec, bytes encoded/sec, obs and trace
//! overhead) and **exits non-zero** if the optimized path diverges
//! from the seed replica — or the instrumented station from the plain
//! one, the traced station from the plain one, or the recovered station
//! from its twin — in any outcome, delivery or statistic, or if a
//! tracing tax exceeds its ceiling. CI runs it as a correctness gate.
//!
//! On top of the serving loop, the wire side is timed in three shapes —
//! per-frame `Frame::encode` (the seed), streaming `encode_slot_into`
//! into one reused buffer, and the [`FrameTemplateCache`] patch path
//! (pre-encoded wire images, eight slot bytes + an incrementally
//! corrected CRC rewritten per frame) — with a byte-lockstep gate pinning
//! the template stream to the fresh one. *Full-slot* rows then measure
//! what a deployed station does every slot (serve **and** encode), with
//! the templated [`SlotBroadcaster`] against the fresh encoder, per scale,
//! and a template gate drives broadcaster
//! encoding through full chaos — degradations, restores, a mid-run
//! snapshot/restore onto a fresh broadcaster — byte-comparing every slot.
//!
//! Run: `cargo run --release -p airsched-bench --bin station_perf`
//!
//! Options (beyond the common `--seed`): `--channels` (8), `--cycle`
//! (1024), `--pages` (1680), `--slots` (4096, serving-loop slots timed per
//! rep), `--scales` (`10000,100000,1000000`, comma-separated subscriber
//! scales), `--max-subs` (1000000, caps the subscriber matrix), `--reps`
//! (3) and `--out <path>` for the JSON file (default `BENCH_station.json`
//! in the working directory).

use std::time::Instant;

use airsched_bench::seed::SeedStation;
use airsched_bench::{extra_num, parse_common_args};
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::susc;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
use airsched_obs::Obs;
use airsched_proto::template::FrameTemplateCache;
use airsched_proto::transmitter::{encode_slot_into, frames_for_slot, FixedPayloads};
use airsched_server::faults::FaultPlan;
use airsched_server::station::{Station, TickBuf};
use airsched_server::SlotBroadcaster;
use bytes::{Bytes, BytesMut};

/// Constant payload for the encode phases: [`FixedPayloads`] serves it by
/// borrowing append (no allocation per frame), so payload synthesis is
/// negligible next to the encoding being measured.
static PAYLOAD: [u8; 64] = [0x5A; 64];

fn fixed_payloads() -> FixedPayloads {
    FixedPayloads::new(Bytes::from_static(&PAYLOAD))
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

struct Config {
    channels: u32,
    cycle: u64,
    pages: u32,
    slots: u64,
    reps: u32,
    seed: u64,
}

impl Config {
    /// Transient-fault plan for the perf rows: stalls and corruption keep
    /// the injector hot every slot without triggering re-pack storms that
    /// would swamp the tick itself.
    fn perf_plan(&self) -> FaultPlan {
        FaultPlan::seeded(self.seed)
            .with_stalls(0.01)
            .with_corruption(0.02)
    }

    /// Full-chaos plan for the correctness gate: outages and recoveries
    /// walk the degradation ladder on top of the transient faults.
    fn chaos_plan(&self) -> FaultPlan {
        FaultPlan::seeded(self.seed)
            .with_outage(0.002)
            .with_recovery(0.05)
            .with_stalls(0.01)
            .with_corruption(0.02)
    }

    /// A three-band catalogue (expected times cycle/4, cycle/2, cycle
    /// round-robin) sized well inside the channel budget.
    fn catalogue(&self) -> Vec<(PageId, u64)> {
        let bands = [self.cycle / 4, self.cycle / 2, self.cycle];
        (0..self.pages)
            .map(|i| (PageId::new(i), bands[(i % 3) as usize]))
            .collect()
    }
}

/// A station serving [`Config::catalogue`].
fn build_station(cfg: &Config, plan: Option<&FaultPlan>) -> Station {
    let mut s = match plan {
        Some(p) => Station::with_faults(cfg.channels, cfg.cycle, p).expect("station builds"),
        None => Station::new(cfg.channels, cfg.cycle).expect("station builds"),
    };
    for (page, expected) in cfg.catalogue() {
        s.publish(page, expected)
            .expect("catalogue fits the channel budget");
    }
    s
}

/// The seed replica serving the same catalogue.
fn build_seed(cfg: &Config, plan: Option<&FaultPlan>) -> SeedStation {
    SeedStation::new(cfg.channels, cfg.cycle, &cfg.catalogue(), plan)
}

fn page_for(cfg: &Config, k: u64) -> PageId {
    PageId::new(u32::try_from(k % u64::from(cfg.pages)).expect("page index fits"))
}

// ---------------------------------------------------------------------------
// Correctness gates
// ---------------------------------------------------------------------------

/// Drives the optimized station against the seed replica in lockstep,
/// comparing everything the replica can observe (the replica mints its own
/// client ids, so deliveries compare by display name, page, wait and
/// deadline — order included).
fn seed_gate(cfg: &Config, faulted: bool, divergences: &mut Vec<String>) {
    let plan = cfg.chaos_plan();
    let plan = faulted.then_some(&plan);
    let mut fast = build_station(cfg, plan);
    let mut seed = build_seed(cfg, plan);
    let mut buf = TickBuf::new();
    let gate_slots = cfg.slots.min(1024).max(2 * cfg.cycle);
    for t in 0..gate_slots {
        for k in 0..8u64 {
            let page = page_for(cfg, t * 8 + k);
            let a = fast.subscribe(page).expect("page is published");
            let b = seed.subscribe(page);
            assert_eq!(a.to_string(), format!("client{b}"), "client ids drifted");
        }
        fast.tick_into(&mut buf);
        let want = seed.tick();
        let same = buf.mode() == want.mode
            && buf.on_air() == &want.on_air[..]
            && buf.corrupted() == &want.corrupted[..]
            && buf.events() == &want.events[..]
            && buf.deliveries().len() == want.deliveries.len()
            && buf.deliveries().iter().zip(&want.deliveries).all(|(d, w)| {
                d.client.to_string() == format!("client{}", w.client)
                    && d.page == w.page
                    && d.wait == w.wait
                    && d.within_deadline == w.within_deadline
            });
        if !same {
            divergences.push(format!(
                "tick_into diverges from the seed replica at slot {t} \
                 (faulted={faulted})"
            ));
            return;
        }
    }
    let stats = fast.stats();
    let same_stats = stats.delivered == seed.delivered
        && stats.on_time == seed.on_time
        && stats.total_wait == seed.total_wait
        && stats.waiting == seed.waiting_count
        && stats.failovers == seed.failovers
        && stats.repacks == seed.repacks
        && stats.recoveries == seed.recoveries
        && stats.degraded_slots == seed.degraded_slots
        && stats.slots_elapsed == seed.slots_elapsed;
    if !same_stats {
        divergences.push(format!(
            "stats diverge from the seed replica after {gate_slots}-slot lockstep \
             (faulted={faulted})"
        ));
    }
}

/// Drives a plain station and an identical one with observability
/// attached (metrics registry + flight recorder) in lockstep under full
/// chaos. Instrumentation is read-only: every tick outcome and the final
/// statistics must be bit-identical, and the registry counters must
/// mirror the station's own stats exactly.
fn obs_gate(cfg: &Config, faulted: bool, divergences: &mut Vec<String>) {
    let plan = cfg.chaos_plan();
    let plan = faulted.then_some(&plan);
    let mut plain = build_station(cfg, plan);
    let mut instrumented = build_station(cfg, plan);
    let obs = Obs::with_recorder_capacity(4096);
    instrumented.attach_obs(&obs);
    let mut buf_plain = TickBuf::new();
    let mut buf_obs = TickBuf::new();
    let gate_slots = cfg.slots.min(1024).max(2 * cfg.cycle);
    for t in 0..gate_slots {
        for k in 0..8u64 {
            let page = page_for(cfg, t * 8 + k);
            let a = plain.subscribe(page).expect("page is published");
            let b = instrumented.subscribe(page).expect("page is published");
            assert_eq!(a, b, "client ids drifted");
        }
        plain.tick_into(&mut buf_plain);
        instrumented.tick_into(&mut buf_obs);
        if buf_plain.to_outcome() != buf_obs.to_outcome() {
            divergences.push(format!(
                "instrumented station diverges from plain at slot {t} \
                 (faulted={faulted})"
            ));
            return;
        }
    }
    let stats = plain.stats();
    if stats != instrumented.stats() {
        divergences.push(format!(
            "instrumented stats diverge from plain after {gate_slots}-slot lockstep \
             (faulted={faulted})"
        ));
    }
    let snapshot = obs.snapshot();
    let mirrored = [
        ("airsched_station_slots_total", stats.slots_elapsed),
        ("airsched_station_delivered_total", stats.delivered),
        ("airsched_station_on_time_total", stats.on_time),
        (
            "airsched_station_degraded_slots_total",
            stats.degraded_slots,
        ),
        ("airsched_station_mode_changes_total", stats.mode_changes),
    ];
    for (name, want) in mirrored {
        let got = snapshot.scalar_total(name);
        if got != want {
            divergences.push(format!(
                "registry counter {name} = {got} but station stats say {want} \
                 (faulted={faulted})"
            ));
        }
    }
}

/// Drives a plain station and an identical one with phase tracing
/// attached at sampling 1/1 — every slot captures a full span tree, the
/// most invasive setting the tracer has — in lockstep under full chaos.
/// Tracing is observation-only: every tick outcome and the final
/// statistics must be bit-identical.
fn trace_gate(cfg: &Config, faulted: bool, divergences: &mut Vec<String>) {
    let plan = cfg.chaos_plan();
    let plan = faulted.then_some(&plan);
    let mut plain = build_station(cfg, plan);
    let mut traced = build_station(cfg, plan);
    let trace = airsched_trace::Trace::new(airsched_trace::TraceConfig {
        sample_every: 1,
        ring_capacity: 64,
        slo: airsched_trace::SloConfig::default(),
    });
    traced.attach_trace(&trace);
    let mut buf_plain = TickBuf::new();
    let mut buf_trace = TickBuf::new();
    let gate_slots = cfg.slots.min(1024).max(2 * cfg.cycle);
    for t in 0..gate_slots {
        for k in 0..8u64 {
            let page = page_for(cfg, t * 8 + k);
            let a = plain.subscribe(page).expect("page is published");
            let b = traced.subscribe(page).expect("page is published");
            assert_eq!(a, b, "client ids drifted");
        }
        plain.tick_into(&mut buf_plain);
        traced.tick_into(&mut buf_trace);
        if buf_plain.to_outcome() != buf_trace.to_outcome() {
            divergences.push(format!(
                "traced station diverges from plain at slot {t} \
                 (faulted={faulted})"
            ));
            return;
        }
    }
    if plain.stats() != traced.stats() {
        divergences.push(format!(
            "traced stats diverge from plain after {gate_slots}-slot lockstep \
             (faulted={faulted})"
        ));
    }
    let snap = trace.snapshot();
    if snap.sampled != gate_slots {
        divergences.push(format!(
            "trace at sampling 1/1 captured {} of {gate_slots} slots \
             (faulted={faulted})",
            snap.sampled
        ));
    }
}

/// Kills a journaled, checkpointed station mid-run, recovers it from the
/// state directory, and drives the continuation in lockstep against a
/// never-crashed twin: every post-recovery `TickOutcome` and the final
/// statistics must be bit-identical. This is the restore-after-crash
/// gate the `airsched-recover` determinism contract is held to.
fn recovery_gate(cfg: &Config, faulted: bool, divergences: &mut Vec<String>) {
    use airsched_recover::{CrashInjector, RecoverError, RecoverableStation, RecoveryOptions};

    let plan = faulted.then(|| cfg.chaos_plan());
    let gate_slots = cfg.slots.min(1024).max(2 * cfg.cycle);
    // Off the checkpoint cadence on purpose, so recovery exercises both
    // the checkpoint restore and a non-empty journal replay.
    let crash_at = gate_slots / 2 + 3;
    let every = (cfg.cycle / 4).max(8);

    let mut twin = build_station(cfg, plan.as_ref());
    let mut want = Vec::with_capacity(usize::try_from(gate_slots).expect("fits"));
    for t in 0..gate_slots {
        for k in 0..8u64 {
            twin.subscribe(page_for(cfg, t * 8 + k))
                .expect("page is published");
        }
        want.push(twin.tick());
    }

    let dir = std::env::temp_dir().join(format!(
        "airsched-perf-recovery-{}-{faulted}",
        std::process::id()
    ));
    let opts = RecoveryOptions::new()
        .checkpoint_every(every)
        .with_crash(CrashInjector::at_slot(crash_at));
    let doomed = build_station(cfg, plan.as_ref());
    let run = RecoverableStation::create(&dir, doomed, plan, opts);
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            divergences.push(format!(
                "recovery gate: create failed (faulted={faulted}): {e}"
            ));
            return;
        }
    };
    let mut t = 0u64;
    loop {
        for k in 0..8u64 {
            run.subscribe(page_for(cfg, t * 8 + k))
                .expect("page is published");
        }
        match run.tick() {
            Ok(got) => {
                if got != want[usize::try_from(t).expect("fits")] {
                    divergences.push(format!(
                        "journaled station diverges from its twin at slot {t} \
                         before the crash (faulted={faulted})"
                    ));
                    std::fs::remove_dir_all(&dir).ok();
                    return;
                }
                t += 1;
            }
            Err(RecoverError::Crashed { slot }) => {
                assert_eq!(slot, crash_at, "the scripted crash fired off cue");
                break;
            }
            Err(e) => {
                divergences.push(format!(
                    "recovery gate: tick failed (faulted={faulted}): {e}"
                ));
                std::fs::remove_dir_all(&dir).ok();
                return;
            }
        }
    }
    drop(run); // the "process" dies; only the state directory survives

    let resumed =
        RecoverableStation::resume(&dir, RecoveryOptions::new().checkpoint_every(every), None);
    let (mut resumed, report) = match resumed {
        Ok(pair) => pair,
        Err(e) => {
            divergences.push(format!(
                "recovery gate: resume failed (faulted={faulted}): {e}"
            ));
            std::fs::remove_dir_all(&dir).ok();
            return;
        }
    };
    if report.resumed_at != crash_at || resumed.now() != crash_at {
        divergences.push(format!(
            "recovery resumed at slot {} instead of the crash slot {crash_at} \
             (faulted={faulted})",
            resumed.now()
        ));
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    for t in crash_at..gate_slots {
        // The crash fired before ticking `crash_at` but after that slot's
        // subscriptions were journaled — replay already applied them, so
        // only later slots subscribe afresh.
        if t != crash_at {
            for k in 0..8u64 {
                resumed
                    .subscribe(page_for(cfg, t * 8 + k))
                    .expect("page is published");
            }
        }
        match resumed.tick() {
            Ok(got) => {
                if got != want[usize::try_from(t).expect("fits")] {
                    divergences.push(format!(
                        "recovered station diverges from its never-crashed twin at \
                         slot {t} (crash at {crash_at}, faulted={faulted})"
                    ));
                    std::fs::remove_dir_all(&dir).ok();
                    return;
                }
            }
            Err(e) => {
                divergences.push(format!(
                    "recovery gate: post-recovery tick failed \
                     (faulted={faulted}): {e}"
                ));
                std::fs::remove_dir_all(&dir).ok();
                return;
            }
        }
    }
    if resumed.stats() != twin.stats() {
        divergences.push(format!(
            "recovered station's final stats diverge from its never-crashed twin \
             (crash at {crash_at}, faulted={faulted})"
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Drives a chaos station (outages, recoveries, stalls, corruption —
/// the plan swaps under the cache repeatedly) while encoding every slot
/// twice: through the [`SlotBroadcaster`]'s template cache and through
/// the fresh encoder over the same on-air column. Any byte of
/// divergence fails the run. Halfway through, the station is
/// snapshotted and restored onto a *fresh* broadcaster which must
/// rebuild from the recovered plan and keep the stream byte-identical —
/// the template cache's recovery discipline.
fn template_gate(cfg: &Config, faulted: bool, divergences: &mut Vec<String>) {
    let plan = cfg.chaos_plan();
    let plan = faulted.then_some(&plan);
    let mut station = build_station(cfg, plan);
    let mut tx = SlotBroadcaster::new(fixed_payloads());
    let mut fresh_src = fixed_payloads();
    let mut buf = TickBuf::new();
    let mut wire = BytesMut::with_capacity(8 * 1024);
    let mut fresh = BytesMut::with_capacity(8 * 1024);
    let gate_slots = cfg.slots.min(1024).max(2 * cfg.cycle);
    let restore_at = gate_slots / 2 + 1;
    for t in 0..gate_slots {
        if t == restore_at {
            // Crash-recover mid-chaos: the restored twin continues with a
            // fresh broadcaster, exactly as a recovered process must.
            let snapshot = station.snapshot();
            station = match Station::from_snapshot(&snapshot, plan) {
                Ok(s) => s,
                Err(e) => {
                    divergences.push(format!(
                        "template gate: snapshot restore failed at slot {t} \
                         (faulted={faulted}): {e}"
                    ));
                    return;
                }
            };
            tx = SlotBroadcaster::new(fixed_payloads());
        }
        for k in 0..8u64 {
            station
                .subscribe(page_for(cfg, t * 8 + k))
                .expect("page is published");
        }
        station.tick_into(&mut buf);
        wire.clear();
        let written = match tx.encode_slot(&station, buf.on_air(), buf.time(), &mut wire) {
            Ok(n) => n,
            Err(e) => {
                divergences.push(format!(
                    "template gate: slot {t} failed to encode \
                     (faulted={faulted}): {e}"
                ));
                return;
            }
        };
        fresh.clear();
        encode_slot_into(buf.on_air(), buf.time(), &mut fresh_src, &mut fresh)
            .expect("fresh encoding succeeds");
        if written != wire.len() || wire[..] != fresh[..] {
            divergences.push(format!(
                "template-encoded slot {t} diverges from fresh encoding \
                 (faulted={faulted}, restored={})",
                t >= restore_at
            ));
            return;
        }
    }
    if faulted && tx.rebuilds() < 2 {
        divergences.push(format!(
            "template gate ran {gate_slots} chaos slots but rebuilt only {} time(s) — \
             the ladder never exercised invalidation",
            tx.rebuilds()
        ));
    }
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

struct ScaleResult {
    subscribers: u64,
    faulted: bool,
    delivered: u64,
    /// Serving-loop slots per second (subscribe churn + tick, deliveries
    /// consumed) through each implementation.
    opt_tps: f64,
    seed_tps: f64,
    opt_dps: f64,
    seed_dps: f64,
    /// Full broadcast slots per second — serve *and* encode, the work a
    /// deployed station does every slot: `tick_into` plus the templated
    /// [`SlotBroadcaster`].
    full_slot_tps: f64,
    /// The same loop with the fresh encoder instead of templates (the
    /// pre-PR wire shape).
    full_slot_fresh_tps: f64,
}

impl ScaleResult {
    /// The headline ratio: optimized serving loop vs the pre-PR baseline.
    fn speedup_vs_seed(&self) -> f64 {
        self.opt_tps / self.seed_tps
    }

    /// The encode-wall ratio: templated full slots vs fresh-encoded ones.
    fn full_slot_speedup(&self) -> f64 {
        self.full_slot_tps / self.full_slot_fresh_tps
    }
}

/// Times the full serving loop at one subscriber scale: every tick admits
/// `subscribers / slots` new clients (round-robin over the catalogue) and
/// transmits one slot; deliveries stream out as they happen. The optimized
/// loop holds one `TickBuf` and counts deliveries through `tick_into`;
/// the seed loop drives the seed replica, which materializes every
/// delivery into one growing list, as the seed `run()` did.
fn time_scale(
    cfg: &Config,
    faulted: bool,
    scale: u64,
    divergences: &mut Vec<String>,
) -> ScaleResult {
    let plan = cfg.perf_plan();
    let plan = faulted.then_some(&plan);
    let per_tick = scale.div_ceil(cfg.slots).max(1);
    let subscribers = per_tick * cfg.slots;
    let base = build_station(cfg, plan);

    let mut seed_best = f64::INFINITY;
    let mut seed_delivered = 0u64;
    for _ in 0..cfg.reps {
        let mut s = build_seed(cfg, plan);
        let mut all = Vec::new();
        let t0 = Instant::now();
        for t in 0..cfg.slots {
            for k in 0..per_tick {
                s.subscribe(page_for(cfg, t * per_tick + k));
            }
            all.extend(s.tick().deliveries);
        }
        seed_best = seed_best.min(t0.elapsed().as_secs_f64());
        seed_delivered = all.len() as u64;
    }
    // The pre-PR wire shape: serial serve plus fresh per-slot encoding —
    // the full-slot baseline every templated row is judged against.
    let mut fresh_slot_best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let mut s = base.clone();
        let mut src = fixed_payloads();
        let mut buf = TickBuf::new();
        let mut wire = BytesMut::with_capacity(8 * 1024);
        let mut bytes = 0u64;
        let t0 = Instant::now();
        for t in 0..cfg.slots {
            for k in 0..per_tick {
                s.subscribe(page_for(cfg, t * per_tick + k))
                    .expect("page is published");
            }
            s.tick_into(&mut buf);
            wire.clear();
            bytes += encode_slot_into(buf.on_air(), buf.time(), &mut src, &mut wire)
                .expect("frames encode") as u64;
        }
        std::hint::black_box(bytes);
        fresh_slot_best = fresh_slot_best.min(t0.elapsed().as_secs_f64());
    }

    let mut opt_best = f64::INFINITY;
    let mut opt_delivered = 0u64;
    for _ in 0..cfg.reps {
        let mut s = base.clone();
        let mut buf = TickBuf::new();
        let mut count = 0u64;
        let t0 = Instant::now();
        for t in 0..cfg.slots {
            for k in 0..per_tick {
                s.subscribe(page_for(cfg, t * per_tick + k))
                    .expect("page is published");
            }
            s.tick_into(&mut buf);
            count += buf.deliveries().len() as u64;
        }
        opt_best = opt_best.min(t0.elapsed().as_secs_f64());
        opt_delivered = count;
    }
    if opt_delivered != seed_delivered {
        divergences.push(format!(
            "delivery counts diverge at {subscribers} subscribers (faulted={faulted}): \
             optimized {opt_delivered}, seed {seed_delivered}"
        ));
    }

    // Full broadcast slot: same serving loop plus template-patched
    // encoding through the broadcaster.
    let mut slot_best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let mut s = base.clone();
        let mut tx = SlotBroadcaster::new(fixed_payloads());
        let mut buf = TickBuf::new();
        let mut wire = BytesMut::with_capacity(8 * 1024);
        let mut bytes = 0u64;
        // Build the template cache before the clock starts: a deployed
        // station pays that cost at plan-swap time, not per slot. An
        // all-idle column touches no plan cell, so the warmup cannot
        // drift however the plan looks. Mid-run invalidations (the
        // faulted rows' fail/restore) still rebuild inside the timed
        // region — that cost is real.
        let idle_col = vec![None; usize::try_from(cfg.channels).expect("channel count fits")];
        tx.encode_slot(&s, &idle_col, s.now(), &mut wire)
            .expect("warmup slot encodes");
        wire.clear();
        let t0 = Instant::now();
        for t in 0..cfg.slots {
            for k in 0..per_tick {
                s.subscribe(page_for(cfg, t * per_tick + k))
                    .expect("page is published");
            }
            s.tick_into(&mut buf);
            wire.clear();
            bytes += tx
                .encode_slot(&s, buf.on_air(), buf.time(), &mut wire)
                .expect("frames encode") as u64;
        }
        std::hint::black_box(bytes);
        slot_best = slot_best.min(t0.elapsed().as_secs_f64());
    }

    ScaleResult {
        subscribers,
        faulted,
        delivered: opt_delivered,
        opt_tps: cfg.slots as f64 / opt_best,
        seed_tps: cfg.slots as f64 / seed_best,
        opt_dps: opt_delivered as f64 / opt_best,
        seed_dps: seed_delivered as f64 / seed_best,
        full_slot_tps: cfg.slots as f64 / slot_best,
        full_slot_fresh_tps: cfg.slots as f64 / fresh_slot_best,
    }
}

struct ObsOverhead {
    subscribers: u64,
    faulted: bool,
    /// Isolated serving loop: subscribe + `tick_into` only.
    plain_tps: f64,
    instrumented_tps: f64,
    /// Full broadcast slot: serving loop plus frame encoding, the work a
    /// deployed station does every slot.
    plain_slot_tps: f64,
    instrumented_slot_tps: f64,
}

impl ObsOverhead {
    /// How much slower the instrumented serving loop runs in isolation:
    /// plain ticks/sec over instrumented ticks/sec, so 1.02 means a 2%
    /// tax. This charges the whole tax against the nanosecond-scale
    /// serving loop alone — the worst-case framing.
    fn overhead_ratio(&self) -> f64 {
        self.plain_tps / self.instrumented_tps
    }

    /// The same tax charged against the full broadcast slot (serve +
    /// encode) — the deployment-relevant number, since a station that
    /// never encodes frames broadcasts nothing.
    fn slot_overhead_ratio(&self) -> f64 {
        self.plain_slot_tps / self.instrumented_slot_tps
    }
}

/// Times the station at the acceptance operating point with and without
/// observability attached — same subscribe churn, same `tick_into` loop,
/// same fault plan as the perf rows — in two framings: the serving loop
/// alone, and the full broadcast slot (serving loop + `encode_slot_into`
/// of the on-air frames, the per-slot work a deployed station cannot
/// skip). All four variants alternate rep by rep so clock drift and
/// thermal noise hit them alike, and extra reps tighten the best-of
/// estimate (the ratio is a few percent, well under run-to-run noise on
/// a single rep). Each instrumented rep gets a fresh registry and
/// recorder so ring-buffer state never carries across reps.
fn time_obs_overhead(cfg: &Config, faulted: bool, scale: u64) -> ObsOverhead {
    let plan = cfg.perf_plan();
    let plan = faulted.then_some(&plan);
    let per_tick = scale.div_ceil(cfg.slots).max(1);
    let subscribers = per_tick * cfg.slots;
    let base = build_station(cfg, plan);

    let run = |s: &mut Station, encode: bool| {
        let mut buf = TickBuf::new();
        let mut src = fixed_payloads();
        let mut frame_buf = BytesMut::with_capacity(8 * 1024);
        let mut bytes = 0u64;
        let t0 = Instant::now();
        for t in 0..cfg.slots {
            for k in 0..per_tick {
                s.subscribe(page_for(cfg, t * per_tick + k))
                    .expect("page is published");
            }
            s.tick_into(&mut buf);
            if encode {
                bytes += encode_slot_into(buf.on_air(), t, &mut src, &mut frame_buf)
                    .expect("frames encode") as u64;
            }
        }
        std::hint::black_box(bytes);
        t0.elapsed().as_secs_f64()
    };

    let mut plain_best = f64::INFINITY;
    let mut obs_best = f64::INFINITY;
    let mut plain_slot_best = f64::INFINITY;
    let mut obs_slot_best = f64::INFINITY;
    for _ in 0..cfg.reps.max(7) {
        let mut s = base.clone();
        plain_best = plain_best.min(run(&mut s, false));

        let mut s = base.clone();
        let obs = Obs::with_recorder_capacity(4096);
        s.attach_obs(&obs);
        obs_best = obs_best.min(run(&mut s, false));

        let mut s = base.clone();
        plain_slot_best = plain_slot_best.min(run(&mut s, true));

        let mut s = base.clone();
        let obs = Obs::with_recorder_capacity(4096);
        s.attach_obs(&obs);
        obs_slot_best = obs_slot_best.min(run(&mut s, true));
    }

    ObsOverhead {
        subscribers,
        faulted,
        plain_tps: cfg.slots as f64 / plain_best,
        instrumented_tps: cfg.slots as f64 / obs_best,
        plain_slot_tps: cfg.slots as f64 / plain_slot_best,
        instrumented_slot_tps: cfg.slots as f64 / obs_slot_best,
    }
}

struct TraceOverhead {
    subscribers: u64,
    faulted: bool,
    /// Serving-loop ticks/sec with no tracer attached.
    plain_tps: f64,
    /// Tracer attached, sampling 1/`TRACE_SAMPLE_EVERY`: span trees are
    /// captured on sampled slots, the SLO window updates every tick.
    sampled_tps: f64,
    /// Tracer attached with sampling off (`sample_every` 0): the SLO
    /// window still updates every tick, but no slot ever takes a clock
    /// reading. Still an *enabled* mode — the station is paying for
    /// live SLO tracking.
    unsampled_tps: f64,
    /// No tracer attached at all — the `Option` stays `None` and every
    /// instrumentation site reduces to one dormant branch. This is the
    /// disabled state the "~zero cost" claim is about; the ratio also
    /// doubles as an A/A noise floor for the other two.
    disabled_tps: f64,
    /// Median over reps of the per-rep `sampled / plain` time ratio.
    /// Each rep's variants run back to back, so scheduler and frequency
    /// noise — time-correlated on a small VM — cancels within the pair
    /// instead of skewing a quotient of independently-taken extremes.
    sampled_ratio: f64,
    /// Median per-rep `unsampled / plain` time ratio (same pairing).
    unsampled_ratio: f64,
    /// Median per-rep `disabled / plain` time ratio (same pairing).
    disabled_ratio: f64,
}

/// Sampling cadence the `sampled` trace-overhead row runs at.
const TRACE_SAMPLE_EVERY: u64 = 32;

/// Ceiling on the tracing-enabled serving-loop tax (both the sampled
/// and the sampling-off variants); exceeding it fails the run.
const TRACE_ENABLED_CEILING: f64 = 1.15;

/// Ceiling on the not-attached tax — the dormant branch must be free to
/// within measurement noise.
const TRACE_DISABLED_CEILING: f64 = 1.02;

/// Smallest operating point the overhead ceilings are enforced at.
/// Below this the serving loop ticks in a few hundred nanoseconds and
/// the amortized sampled-slot cost legitimately reaches the ceiling, so
/// smaller sweeps report the rows without gating them.
const TRACE_GATE_MIN_SUBS: u64 = 65_536;

/// Times the serving loop at the acceptance operating point with phase
/// tracing in three states against a plain baseline — sampling 1/32,
/// attached with sampling off, and not attached (the disabled A/A
/// variant) — same subscribe churn and fault plan as the perf rows.
/// The variants alternate rep by rep so clock drift hits them alike.
fn time_trace_overhead(cfg: &Config, faulted: bool, scale: u64) -> TraceOverhead {
    let plan = cfg.perf_plan();
    let plan = faulted.then_some(&plan);
    let per_tick = scale.div_ceil(cfg.slots).max(1);
    let subscribers = per_tick * cfg.slots;
    let base = build_station(cfg, plan);

    let run = |s: &mut Station, window: u64| {
        let mut buf = TickBuf::new();
        let t0 = Instant::now();
        for t in 0..window {
            for k in 0..per_tick {
                s.subscribe(page_for(cfg, t * per_tick + k))
                    .expect("page is published");
            }
            s.tick_into(&mut buf);
            std::hint::black_box(buf.deliveries().len());
        }
        t0.elapsed().as_secs_f64()
    };
    let trace_with = |sample_every: u64| {
        airsched_trace::Trace::new(airsched_trace::TraceConfig {
            sample_every,
            ring_capacity: 64,
            slo: airsched_trace::SloConfig::default(),
        })
    };

    // Calibrate the measurement window: the ratio ceilings are tight
    // enough that a sub-millisecond timed region hands the verdict to
    // scheduler noise, so a short slot program (small `--slots`, fast
    // ticks) is repeated — the churn pattern is cyclic in the page
    // catalogue — until one plain pass costs a few milliseconds.
    let mut window = cfg.slots;
    loop {
        let mut s = base.clone();
        let secs = run(&mut s, window);
        if secs >= 0.004 || window >= 1 << 20 {
            break;
        }
        window *= 2;
    }

    let mut plain_times = Vec::new();
    let mut sampled_ratios = Vec::new();
    let mut unsampled_ratios = Vec::new();
    let mut disabled_ratios = Vec::new();
    // Each rep is a few milliseconds, so a deep sweep costs nothing; the
    // ratio ceilings below are tight enough that scheduler noise on a
    // short window would otherwise dominate the measurement. Each rep
    // pairs the traced variants with its own plain run taken moments
    // before, and the gated ratio is the median of those per-rep
    // quotients — time-local pairing cancels the drift a quotient of
    // independently-taken extremes would keep.
    for _ in 0..cfg.reps.max(25) {
        let mut s = base.clone();
        let plain = run(&mut s, window);
        plain_times.push(plain);

        let mut s = base.clone();
        let trace = trace_with(TRACE_SAMPLE_EVERY);
        s.attach_trace(&trace);
        sampled_ratios.push(run(&mut s, window) / plain);

        let mut s = base.clone();
        let trace = trace_with(0);
        s.attach_trace(&trace);
        unsampled_ratios.push(run(&mut s, window) / plain);

        let mut s = base.clone();
        disabled_ratios.push(run(&mut s, window) / plain);
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };

    let plain_secs = median(&mut plain_times);
    let plain_tps = window as f64 / plain_secs;
    let sampled_ratio = median(&mut sampled_ratios);
    let unsampled_ratio = median(&mut unsampled_ratios);
    let disabled_ratio = median(&mut disabled_ratios);
    TraceOverhead {
        subscribers,
        faulted,
        plain_tps,
        sampled_tps: plain_tps / sampled_ratio,
        unsampled_tps: plain_tps / unsampled_ratio,
        disabled_tps: plain_tps / disabled_ratio,
        sampled_ratio,
        unsampled_ratio,
        disabled_ratio,
    }
}

struct EncodeResult {
    slots: u64,
    bytes_per_slot: u64,
    /// Distinct wire images the template cache interned for the program.
    templates: usize,
    opt_bytes_per_sec: f64,
    ref_bytes_per_sec: f64,
    /// The template-patch path: pre-encoded images, eight slot bytes and
    /// an incrementally corrected CRC rewritten per frame.
    template_bytes_per_sec: f64,
}

fn fill_on_air(on_air: &mut [Option<PageId>], program: &BroadcastProgram, t: u64) {
    let column = SlotIndex::new(t % program.cycle_len());
    for (ch, slot) in on_air.iter_mut().enumerate() {
        let channel = ChannelId::new(u32::try_from(ch).expect("channel fits"));
        *slot = program.page_at(GridPos::new(channel, column));
    }
}

/// Times three encode shapes over the same program: the seed's per-frame
/// `Frame::encode` (fresh buffer per frame), one reused-buffer
/// `encode_slot_into` stream, and the [`FrameTemplateCache`] patch path —
/// byte-comparing all three streams over a full cycle before timing.
fn encode_phase(cfg: &Config, divergences: &mut Vec<String>) -> EncodeResult {
    let per = u64::from(cfg.pages / 3);
    let ladder = GroupLadder::new(vec![
        (cfg.cycle / 4, per),
        (cfg.cycle / 2, per),
        (cfg.cycle, per),
    ])
    .expect("ladder builds");
    let program = susc::schedule(&ladder, cfg.channels).expect("schedule fits");
    let n = cfg.channels as usize;
    let encode_slots = cfg.slots.min(2048);
    let mut on_air: Vec<Option<PageId>> = vec![None; n];

    let mut src = fixed_payloads();
    let mut ref_src = fixed_payloads();
    let mut cache =
        FrameTemplateCache::build(&program, &mut fixed_payloads()).expect("templates build");
    let mut buf = BytesMut::with_capacity(8 * 1024);
    let mut patched = BytesMut::with_capacity(8 * 1024);
    let mut expected = Vec::new();
    for t in 0..cfg.cycle {
        fill_on_air(&mut on_air, &program, t);
        buf.clear();
        encode_slot_into(&on_air, t, &mut src, &mut buf).expect("frames encode");
        expected.clear();
        for frame in frames_for_slot(&on_air, t, &mut ref_src) {
            expected.extend_from_slice(&frame.encode());
        }
        if buf[..] != expected[..] {
            divergences.push(format!("encode_slot_into bytes diverge at slot {t}"));
            break;
        }
        patched.clear();
        cache.encode_cycle_slot(t, &mut patched);
        if patched[..] != expected[..] {
            divergences.push(format!("template-patched bytes diverge at slot {t}"));
            break;
        }
    }

    let mut bytes_per_slot = 0u64;
    let mut opt_best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let mut buf = BytesMut::with_capacity(8 * 1024);
        let mut total = 0u64;
        let t0 = Instant::now();
        for t in 0..encode_slots {
            fill_on_air(&mut on_air, &program, t);
            buf.clear();
            total += encode_slot_into(&on_air, t, &mut src, &mut buf).expect("encodes") as u64;
        }
        opt_best = opt_best.min(t0.elapsed().as_secs_f64());
        bytes_per_slot = total / encode_slots;
    }

    let mut ref_best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let mut total = 0u64;
        let t0 = Instant::now();
        for t in 0..encode_slots {
            fill_on_air(&mut on_air, &program, t);
            for frame in frames_for_slot(&on_air, t, &mut ref_src) {
                total += frame.encode().len() as u64;
            }
        }
        ref_best = ref_best.min(t0.elapsed().as_secs_f64());
        let _ = total;
    }

    // The template path needs no on-air column: the cycle *is* the plan,
    // so each slot is a memcpy of cached images plus the slot-byte and
    // CRC patches.
    let mut template_best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let mut buf = BytesMut::with_capacity(8 * 1024);
        let mut total = 0u64;
        let t0 = Instant::now();
        for t in 0..encode_slots {
            buf.clear();
            total += cache.encode_cycle_slot(t, &mut buf) as u64;
        }
        std::hint::black_box(&buf);
        template_best = template_best.min(t0.elapsed().as_secs_f64());
        let _ = total;
    }

    EncodeResult {
        slots: encode_slots,
        bytes_per_slot,
        templates: cache.template_count(),
        opt_bytes_per_sec: (bytes_per_slot * encode_slots) as f64 / opt_best,
        ref_bytes_per_sec: (bytes_per_slot * encode_slots) as f64 / ref_best,
        template_bytes_per_sec: (bytes_per_slot * encode_slots) as f64 / template_best,
    }
}

fn main() {
    let (config, _dists, extra) = parse_common_args();
    let cfg = Config {
        channels: extra_num(&extra, "channels", 8u32),
        cycle: extra_num(&extra, "cycle", 1024u64),
        pages: extra_num(&extra, "pages", 1680u32),
        slots: extra_num(&extra, "slots", 4096u64),
        reps: extra_num(&extra, "reps", 3u32),
        seed: config.seed,
    };
    let max_subs = extra_num(&extra, "max-subs", 1_000_000u64);
    let out_path = extra
        .iter()
        .find(|(k, _)| k == "out")
        .map_or_else(|| "BENCH_station.json".to_string(), |(_, v)| v.clone());

    let mut scales: Vec<u64> = extra
        .iter()
        .find(|(k, _)| k == "scales")
        .map_or("10000,100000,1000000", |(_, v)| v.as_str())
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("--scales: bad value '{s}'"))
        })
        .filter(|&s| s <= max_subs)
        .collect();
    if scales.is_empty() {
        scales.push(max_subs.max(1));
    }
    let mut divergences: Vec<String> = Vec::new();
    println!(
        "station_perf: {} channels, cycle {}, {} pages, {} serving slots, \
         subscriber scales {scales:?}\n",
        cfg.channels, cfg.cycle, cfg.pages, cfg.slots
    );

    let mut results: Vec<ScaleResult> = Vec::new();
    for faulted in [false, true] {
        seed_gate(&cfg, faulted, &mut divergences);
        obs_gate(&cfg, faulted, &mut divergences);
        trace_gate(&cfg, faulted, &mut divergences);
        recovery_gate(&cfg, faulted, &mut divergences);
        template_gate(&cfg, faulted, &mut divergences);
        for &scale in &scales {
            let r = time_scale(&cfg, faulted, scale, &mut divergences);
            println!(
                "{} subscribers ({}): {:.0} ticks/s vs seed {:.0} \
                 ({:.1}x), {:.0} vs {:.0} deliveries/s, {} delivered; \
                 full slot {:.0}/s vs fresh {:.0}/s ({:.1}x)",
                r.subscribers,
                if faulted { "faulted" } else { "clean" },
                r.opt_tps,
                r.seed_tps,
                r.speedup_vs_seed(),
                r.opt_dps,
                r.seed_dps,
                r.delivered,
                r.full_slot_tps,
                r.full_slot_fresh_tps,
                r.full_slot_speedup(),
            );
            results.push(r);
        }
        println!();
    }

    // Observability tax at the acceptance operating point (100k
    // subscribers, or the largest scale allowed by --max-subs).
    let obs_scale = scales
        .iter()
        .copied()
        .filter(|&s| s <= 100_000)
        .max()
        .unwrap_or_else(|| scales[0]);
    let obs_rows: Vec<ObsOverhead> = [false, true]
        .into_iter()
        .map(|faulted| time_obs_overhead(&cfg, faulted, obs_scale))
        .collect();
    for obs in &obs_rows {
        println!(
            "obs overhead at {} subscribers ({}): {:.0} ticks/s instrumented vs {:.0} plain \
             ({:.3}x serving loop alone, {:.3}x full slot with encode)",
            obs.subscribers,
            if obs.faulted { "faulted" } else { "clean" },
            obs.instrumented_tps,
            obs.plain_tps,
            obs.overhead_ratio(),
            obs.slot_overhead_ratio()
        );
    }
    println!();

    // Tracing tax at the same operating point, in both states a deployed
    // station runs in: sampling 1/32 (enabled) and sampling off
    // (attached but dormant). Both are gated.
    let trace_rows: Vec<TraceOverhead> = [false, true]
        .into_iter()
        .map(|faulted| time_trace_overhead(&cfg, faulted, obs_scale))
        .collect();
    for t in &trace_rows {
        println!(
            "trace overhead at {} subscribers ({}): vs {:.0} plain ticks/s — \
             sampled 1/{} {:.3}x, sampling off {:.3}x, not attached {:.3}x",
            t.subscribers,
            if t.faulted { "faulted" } else { "clean" },
            t.plain_tps,
            TRACE_SAMPLE_EVERY,
            t.sampled_ratio,
            t.unsampled_ratio,
            t.disabled_ratio
        );
        // The 1.15x/1.02x ceilings are the acceptance claim at the 100k
        // operating point, where a tick is slow enough that the
        // per-sampled-slot cost amortizes cleanly. A reduced sweep
        // (smoke runs with small --max-subs) still prints and exports
        // the rows, but ticks there are a few hundred nanoseconds and
        // the sampled ratio legitimately rides the ceiling — gating it
        // would turn the smoke job into a coin flip.
        if t.subscribers < TRACE_GATE_MIN_SUBS {
            continue;
        }
        if t.sampled_ratio > TRACE_ENABLED_CEILING {
            divergences.push(format!(
                "tracing at 1/{TRACE_SAMPLE_EVERY} costs {:.3}x at {} subscribers \
                 (faulted={}) — ceiling is {TRACE_ENABLED_CEILING}x",
                t.sampled_ratio, t.subscribers, t.faulted
            ));
        }
        if t.unsampled_ratio > TRACE_ENABLED_CEILING {
            divergences.push(format!(
                "tracing with sampling off costs {:.3}x at {} subscribers \
                 (faulted={}) — ceiling is {TRACE_ENABLED_CEILING}x",
                t.unsampled_ratio, t.subscribers, t.faulted
            ));
        }
        if t.disabled_ratio > TRACE_DISABLED_CEILING {
            divergences.push(format!(
                "tracing not attached costs {:.3}x at {} subscribers \
                 (faulted={}) — ceiling is {TRACE_DISABLED_CEILING}x",
                t.disabled_ratio, t.subscribers, t.faulted
            ));
        }
    }
    println!();

    let encode = encode_phase(&cfg, &mut divergences);
    println!(
        "encode: {:.1} MB/s template-patched vs {:.1} MB/s reused buffer vs \
         {:.1} MB/s per-frame ({:.1}x over fresh), {} bytes/slot, {} templates\n",
        encode.template_bytes_per_sec / 1e6,
        encode.opt_bytes_per_sec / 1e6,
        encode.ref_bytes_per_sec / 1e6,
        encode.template_bytes_per_sec / encode.opt_bytes_per_sec,
        encode.bytes_per_slot,
        encode.templates
    );

    // Headline: the un-faulted serving-loop ratio at the largest scale up
    // to 100k subscribers (the acceptance operating point).
    let headline = results
        .iter()
        .rfind(|r| !r.faulted && r.subscribers <= 110_000)
        .map_or(f64::NAN, ScaleResult::speedup_vs_seed);
    println!("headline serving-loop speedup vs seed: {headline:.1}x");

    let entries = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"subscribers\": {subs}, \"faulted\": {faulted}, ",
                    "\"optimized_ticks_per_sec\": {o_tps}, \"seed_ticks_per_sec\": {s_tps}, ",
                    "\"speedup_vs_seed\": {speed}, ",
                    "\"optimized_deliveries_per_sec\": {o_dps}, ",
                    "\"seed_deliveries_per_sec\": {s_dps}, \"delivered\": {n}, ",
                    "\"full_slot_ticks_per_sec\": {fs_tps}, ",
                    "\"full_slot_fresh_ticks_per_sec\": {fs_fresh}, ",
                    "\"full_slot_speedup\": {fs_x}}}"
                ),
                subs = r.subscribers,
                faulted = r.faulted,
                o_tps = json_f(r.opt_tps),
                s_tps = json_f(r.seed_tps),
                speed = json_f(r.speedup_vs_seed()),
                o_dps = json_f(r.opt_dps),
                s_dps = json_f(r.seed_dps),
                n = r.delivered,
                fs_tps = json_f(r.full_slot_tps),
                fs_fresh = json_f(r.full_slot_fresh_tps),
                fs_x = json_f(r.full_slot_speedup()),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"station_perf\",\n",
            "  \"config\": {{\"channels\": {ch}, \"cycle\": {cy}, \"pages\": {pg}, ",
            "\"serving_slots\": {sl}, \"reps\": {reps}, \"seed\": {seed}}},\n",
            "  \"scales\": [\n{entries}\n  ],\n",
            "  \"encode\": {{\"slots\": {e_n}, \"bytes_per_slot\": {e_b}, ",
            "\"channels\": {e_ch}, \"payload_bytes\": {e_pb}, \"templates\": {e_t}, ",
            "\"optimized_bytes_per_sec\": {e_o}, \"reference_bytes_per_sec\": {e_r}, ",
            "\"template_bytes_per_sec\": {e_tp}, ",
            "\"speedup\": {e_x}, \"template_speedup\": {e_tx}}},\n",
            "  \"obs\": [\n{ob_rows}\n  ],\n",
            "  \"trace\": [\n{tr_rows}\n  ],\n",
            "  \"headline_speedup_vs_seed\": {head},\n",
            "  \"divergences\": {divs}\n",
            "}}\n"
        ),
        ch = cfg.channels,
        cy = cfg.cycle,
        pg = cfg.pages,
        sl = cfg.slots,
        reps = cfg.reps,
        seed = cfg.seed,
        entries = entries,
        e_n = encode.slots,
        e_b = encode.bytes_per_slot,
        e_ch = cfg.channels,
        e_pb = PAYLOAD.len(),
        e_t = encode.templates,
        e_o = json_f(encode.opt_bytes_per_sec),
        e_r = json_f(encode.ref_bytes_per_sec),
        e_tp = json_f(encode.template_bytes_per_sec),
        e_x = json_f(encode.opt_bytes_per_sec / encode.ref_bytes_per_sec),
        e_tx = json_f(encode.template_bytes_per_sec / encode.ref_bytes_per_sec),
        ob_rows = obs_rows
            .iter()
            .map(|o| {
                format!(
                    concat!(
                        "    {{\"subscribers\": {subs}, \"faulted\": {faulted}, ",
                        "\"plain_ticks_per_sec\": {plain}, ",
                        "\"instrumented_ticks_per_sec\": {instr}, ",
                        "\"overhead_ratio\": {ratio}, ",
                        "\"plain_slot_ticks_per_sec\": {plain_s}, ",
                        "\"instrumented_slot_ticks_per_sec\": {instr_s}, ",
                        "\"slot_overhead_ratio\": {ratio_s}}}"
                    ),
                    subs = o.subscribers,
                    faulted = o.faulted,
                    plain = json_f(o.plain_tps),
                    instr = json_f(o.instrumented_tps),
                    ratio = json_f(o.overhead_ratio()),
                    plain_s = json_f(o.plain_slot_tps),
                    instr_s = json_f(o.instrumented_slot_tps),
                    ratio_s = json_f(o.slot_overhead_ratio()),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
        tr_rows = trace_rows
            .iter()
            .map(|t| {
                format!(
                    concat!(
                        "    {{\"subscribers\": {subs}, \"faulted\": {faulted}, ",
                        "\"sample_every\": {every}, ",
                        "\"plain_ticks_per_sec\": {plain}, ",
                        "\"sampled_ticks_per_sec\": {sampled}, ",
                        "\"sampled_overhead_ratio\": {s_ratio}, ",
                        "\"unsampled_ticks_per_sec\": {unsampled}, ",
                        "\"unsampled_overhead_ratio\": {u_ratio}, ",
                        "\"disabled_ticks_per_sec\": {disabled}, ",
                        "\"disabled_overhead_ratio\": {d_ratio}}}"
                    ),
                    subs = t.subscribers,
                    faulted = t.faulted,
                    every = TRACE_SAMPLE_EVERY,
                    plain = json_f(t.plain_tps),
                    sampled = json_f(t.sampled_tps),
                    s_ratio = json_f(t.sampled_ratio),
                    unsampled = json_f(t.unsampled_tps),
                    u_ratio = json_f(t.unsampled_ratio),
                    disabled = json_f(t.disabled_tps),
                    d_ratio = json_f(t.disabled_ratio),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
        head = json_f(headline),
        divs = if divergences.is_empty() {
            "[]".to_string()
        } else {
            format!(
                "[{}]",
                divergences
                    .iter()
                    .map(|d| format!("\"{}\"", d.replace('"', "'")))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        },
    );
    std::fs::write(&out_path, &json).expect("write BENCH_station.json");
    println!("wrote {out_path}");

    if !divergences.is_empty() {
        eprintln!("DIVERGENCE:");
        for d in &divergences {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}
