//! The observability and tracing tax on the serving path: the one
//! measurement no other harness takes. Slot throughput, per-layer slot
//! budgets and Theorem 3.1 validity on the wire belong to `airbench`;
//! the lockstep checks (seed replica, obs, trace, crash recovery,
//! template-vs-fresh bytes) run under `cargo test`.
//!
//! Two row families, each clean and under transient faults, at one
//! operating point (`min(--max-subs, 100_000)` subscribers, eight
//! channels, a 1024-slot cycle, 1680 pages):
//!
//! * `obs` — a station with a metrics registry and flight recorder
//!   attached against an identical plain one, framed two ways: the
//!   serving loop alone (subscribe + `tick_into`), and the full slot a
//!   deployed station runs (serving loop plus [`SlotBroadcaster`]
//!   encoding into a buffer cleared every slot). Reported, not gated.
//! * `trace` — the serving loop with phase tracing sampled at 1/32, and
//!   attached with sampling off, each against a plain station. Both
//!   enabled taxes are capped at 1.15x. A third variant runs the plain
//!   station again and is capped at 1.02x: it is the noise floor the
//!   other two ratios are read against.
//!
//! Emits machine-readable `BENCH_station.json` and **exits non-zero** if
//! a tracing tax exceeds its ceiling at an operating point of at least
//! 65,536 subscribers (smaller smoke runs report without gating).
//!
//! Run: `cargo run --release -p airsched-bench --bin station_perf`
//!
//! Options (beyond the common `--seed`): `--slots` (4096, serving slots
//! timed per rep), `--reps` (3, raised to at least 7 for the obs rows
//! and 25 for the trace rows), `--max-subs` (100000, caps the operating
//! point) and `--out <path>` for the JSON file (default
//! `BENCH_station.json` in the working directory).

use std::time::Instant;

use airsched_bench::{extra_num, parse_common_args};
use airsched_core::types::PageId;
use airsched_obs::Obs;
use airsched_proto::transmitter::FixedPayloads;
use airsched_server::faults::FaultPlan;
use airsched_server::station::{Station, TickBuf};
use airsched_server::SlotBroadcaster;
use bytes::{Bytes, BytesMut};

/// Channels every station in the run serves.
const CHANNELS: u32 = 8;

/// Broadcast cycle length in slots.
const CYCLE: u64 = 1024;

/// Pages in the catalogue.
const PAGES: u32 = 1680;

/// The acceptance operating point; `--max-subs` can only lower it.
const OPERATING_POINT: u64 = 100_000;

/// Constant payload for the encoded slots: [`FixedPayloads`] serves it by
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
    slots: u64,
    reps: u32,
    seed: u64,
}

impl Config {
    /// Transient-fault plan for the faulted rows: stalls and corruption
    /// keep the injector hot every slot without triggering re-pack storms
    /// that would swamp the tick itself.
    fn perf_plan(&self) -> FaultPlan {
        FaultPlan::seeded(self.seed)
            .with_stalls(0.01)
            .with_corruption(0.02)
    }
}

/// A station serving a three-band catalogue (expected times cycle/4,
/// cycle/2, cycle round-robin) sized well inside the channel budget.
fn build_station(plan: Option<&FaultPlan>) -> Station {
    let mut s = match plan {
        Some(p) => Station::with_faults(CHANNELS, CYCLE, p).expect("station builds"),
        None => Station::new(CHANNELS, CYCLE).expect("station builds"),
    };
    let bands = [CYCLE / 4, CYCLE / 2, CYCLE];
    for i in 0..PAGES {
        s.publish(PageId::new(i), bands[(i % 3) as usize])
            .expect("catalogue fits the channel budget");
    }
    s
}

fn page_for(k: u64) -> PageId {
    PageId::new(u32::try_from(k % u64::from(PAGES)).expect("page index fits"))
}

/// A broadcaster for `s` with its template cache already built, so the
/// timed region never pays the first build: a deployed station pays it at
/// plan-swap time, not per slot. An all-idle column touches no plan cell,
/// so the warmup cannot drift however the plan looks.
fn warm_broadcaster(s: &Station, obs: Option<&Obs>) -> SlotBroadcaster<FixedPayloads> {
    let mut tx = SlotBroadcaster::new(fixed_payloads());
    if let Some(obs) = obs {
        tx.attach_obs(obs);
    }
    let idle = [None; CHANNELS as usize];
    tx.encode_slot(s, &idle, s.now(), &mut BytesMut::new())
        .expect("warmup slot encodes");
    tx
}

struct ObsOverhead {
    subscribers: u64,
    faulted: bool,
    /// Isolated serving loop: subscribe + `tick_into` only.
    plain_tps: f64,
    instrumented_tps: f64,
    /// Full broadcast slot: serving loop plus [`SlotBroadcaster`]
    /// encoding, the work a deployed station does every slot.
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

/// Times the station at the operating point with and without
/// observability attached — same subscribe churn, same `tick_into` loop,
/// same fault plan — in two framings: the serving loop alone, and the
/// full broadcast slot (serving loop + [`SlotBroadcaster::encode_slot`]
/// into a buffer cleared every slot, as the CLI's scenario driver and
/// `airbench` encode). The instrumented full slot attaches the registry
/// to the broadcaster too. All four variants alternate rep by rep so
/// clock drift and thermal noise hit them alike, and extra reps tighten
/// the best-of estimate (single-rep windows are a few milliseconds and
/// swing by tens of percent on a shared host). Each instrumented rep
/// gets a fresh registry and recorder so ring-buffer state never
/// carries across reps.
fn time_obs_overhead(cfg: &Config, faulted: bool, scale: u64) -> ObsOverhead {
    let plan = cfg.perf_plan();
    let plan = faulted.then_some(&plan);
    let per_tick = scale.div_ceil(cfg.slots).max(1);
    let subscribers = per_tick * cfg.slots;
    let base = build_station(plan);

    let run = |s: &mut Station, mut tx: Option<SlotBroadcaster<FixedPayloads>>| {
        let mut buf = TickBuf::new();
        let mut wire = BytesMut::with_capacity(8 * 1024);
        let mut bytes = 0u64;
        let t0 = Instant::now();
        for t in 0..cfg.slots {
            for k in 0..per_tick {
                s.subscribe(page_for(t * per_tick + k))
                    .expect("page is published");
            }
            s.tick_into(&mut buf);
            if let Some(tx) = tx.as_mut() {
                wire.clear();
                bytes += tx
                    .encode_slot(s, buf.on_air(), buf.time(), &mut wire)
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
        plain_best = plain_best.min(run(&mut s, None));

        let mut s = base.clone();
        let obs = Obs::with_recorder_capacity(4096);
        s.attach_obs(&obs);
        obs_best = obs_best.min(run(&mut s, None));

        let mut s = base.clone();
        let tx = warm_broadcaster(&s, None);
        plain_slot_best = plain_slot_best.min(run(&mut s, Some(tx)));

        let mut s = base.clone();
        let obs = Obs::with_recorder_capacity(4096);
        s.attach_obs(&obs);
        let tx = warm_broadcaster(&s, Some(&obs));
        obs_slot_best = obs_slot_best.min(run(&mut s, Some(tx)));
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
    /// A second plain run, nothing attached: the same code as
    /// `plain_tps`, so its ratio is an A/A pair. It cannot see the cost
    /// of the dormant not-attached branch (both sides run that branch);
    /// it is the noise floor the sampled and unsampled ratios are read
    /// against.
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

/// Ceiling on the A/A noise-floor ratio (plain against plain): a pair
/// this far apart means the run was too noisy for the enabled ratios to
/// be read at all.
const TRACE_DISABLED_CEILING: f64 = 1.02;

/// Smallest operating point the overhead ceilings are enforced at.
/// Below this the serving loop ticks in a few hundred nanoseconds and
/// the amortized sampled-slot cost legitimately reaches the ceiling, so
/// smaller sweeps report the rows without gating them.
const TRACE_GATE_MIN_SUBS: u64 = 65_536;

/// Times the serving loop at the operating point with phase tracing
/// sampled at 1/32 and attached with sampling off, each against a plain
/// baseline, plus a second plain run as the A/A noise floor — same
/// subscribe churn and fault plan as the obs rows. The variants
/// alternate rep by rep so clock drift hits them alike.
fn time_trace_overhead(cfg: &Config, faulted: bool, scale: u64) -> TraceOverhead {
    let plan = cfg.perf_plan();
    let plan = faulted.then_some(&plan);
    let per_tick = scale.div_ceil(cfg.slots).max(1);
    let subscribers = per_tick * cfg.slots;
    let base = build_station(plan);

    let run = |s: &mut Station, window: u64| {
        let mut buf = TickBuf::new();
        let t0 = Instant::now();
        for t in 0..window {
            for k in 0..per_tick {
                s.subscribe(page_for(t * per_tick + k))
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

fn main() {
    let (config, _dists, extra) = parse_common_args();
    if let Some((key, _)) = extra
        .iter()
        .find(|(k, _)| !["slots", "reps", "max-subs", "out"].contains(&k.as_str()))
    {
        panic!("station_perf: unknown option --{key}");
    }
    let cfg = Config {
        slots: extra_num(&extra, "slots", 4096u64),
        reps: extra_num(&extra, "reps", 3u32),
        seed: config.seed,
    };
    let scale = extra_num(&extra, "max-subs", OPERATING_POINT).min(OPERATING_POINT);
    let out_path = extra
        .iter()
        .find(|(k, _)| k == "out")
        .map_or_else(|| "BENCH_station.json".to_string(), |(_, v)| v.clone());
    println!(
        "station_perf: {CHANNELS} channels, cycle {CYCLE}, {PAGES} pages, {} serving slots, \
         operating point {scale} subscribers\n",
        cfg.slots
    );

    let obs_rows: Vec<ObsOverhead> = [false, true]
        .into_iter()
        .map(|faulted| time_obs_overhead(&cfg, faulted, scale))
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
    // (attached but dormant). Both are gated, as is the A/A noise floor.
    let mut divergences: Vec<String> = Vec::new();
    let trace_rows: Vec<TraceOverhead> = [false, true]
        .into_iter()
        .map(|faulted| time_trace_overhead(&cfg, faulted, scale))
        .collect();
    for t in &trace_rows {
        println!(
            "trace overhead at {} subscribers ({}): vs {:.0} plain ticks/s — \
             sampled 1/{} {:.3}x, sampling off {:.3}x, A/A noise floor {:.3}x",
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
                "plain-vs-plain noise floor is {:.3}x at {} subscribers \
                 (faulted={}) — ceiling is {TRACE_DISABLED_CEILING}x",
                t.disabled_ratio, t.subscribers, t.faulted
            ));
        }
    }
    println!();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"station_perf\",\n",
            "  \"config\": {{\"channels\": {ch}, \"cycle\": {cy}, \"pages\": {pg}, ",
            "\"serving_slots\": {sl}, \"reps\": {reps}, \"seed\": {seed}}},\n",
            "  \"obs\": [\n{ob_rows}\n  ],\n",
            "  \"trace\": [\n{tr_rows}\n  ],\n",
            "  \"divergences\": {divs}\n",
            "}}\n"
        ),
        ch = CHANNELS,
        cy = CYCLE,
        pg = PAGES,
        sl = cfg.slots,
        reps = cfg.reps,
        seed = cfg.seed,
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
