//! One run of one workload: set-up timing, rounds of the slot loop, the
//! built-in checks, and the metrics they produce.
//!
//! A run plays rounds until `--seconds` have passed. Every round builds a
//! fresh station, which is what `setup_s` times, and replays the same
//! pre-drawn trace, so every round must end with the same exact counts; a
//! round that differs fails the run. With tracing on, the
//! rounds alternate untraced and traced, so the end-to-end figures still
//! come from untraced rounds and the two kinds can be compared.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use airsched_core::types::PageId;
use airsched_proto::frame::{Frame, HEADER_LEN};
use airsched_proto::receiver::Receiver;
use airsched_proto::transmitter::FixedPayloads;
use airsched_recover::{RecoverableStation, RecoveryOptions, JOURNAL_FILE};
use airsched_server::faults::FaultPlan;
use airsched_server::{
    Delivery, Mode, SlotBroadcaster, Station, StationStats, TickBuf, TickOutcome,
};
use bytes::{Bytes, BytesMut};

use crate::layers::{Layer, LayerRound, Probe, Tracer, Untraced};
use crate::stats::{median, quantile, quiet};
use crate::workload::{Arrivals, Spec, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its parameters (the workload's own, except in tests).
    pub spec: Spec,
    /// Seed of the arrival trace.
    pub seed: u64,
    /// How long the rounds run; at least one round of each kind runs.
    pub seconds: f64,
    /// Alternate traced rounds with untraced ones.
    pub trace: bool,
    /// Where the traced run writes its span records.
    pub spans: Option<PathBuf>,
    /// State directory of the journaled workload.
    pub state_dir: PathBuf,
    /// Flip one wire byte of the first panel channel in this slot, to
    /// prove the decode check bites.
    pub corrupt_wire_at: Option<u64>,
}

/// Everything a round counts. Every field is fixed by the seed, so all
/// rounds of a run, traced or not, must agree on all of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    /// Operations attempted: subscribes, catalogue edits, ticks, encodes,
    /// frame decodes, checkpoints and resumes.
    pub attempted: u64,
    /// Failed operations, late deliveries in Valid mode included.
    pub failed: u64,
    /// Subscribes the station accepted.
    pub subscribed: u64,
    /// Deliveries later than their page's expected time although the
    /// station stayed in Valid mode for the whole wait and no airing of
    /// the page was stalled, corrupted or moved by a plan change.
    pub late_in_valid: u64,
    /// The station's statistics at the end of the round.
    pub stats: StationStats,
    /// Most clients waiting at once.
    pub waiting_peak: u64,
    /// Slots in which the plan epoch moved.
    pub replan_slots: u64,
    /// Expires plus publishes.
    pub catalog_ops: u64,
    /// Template-cache builds, the set-up warm-up included.
    pub rebuilds: u64,
    /// Slots the broadcaster had to encode from scratch.
    pub fresh_fallbacks: u64,
    /// Bytes put on the wire.
    pub wire_bytes: u64,
    /// Frames the panel decoded.
    pub frames: u64,
    /// Wanted pages the panel received intact.
    pub receptions: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Decoded frames that disagree with what the station put on the air.
    pub mismatches: u64,
    /// Checkpoints the bench requested.
    pub checkpoints: u64,
    /// Bytes those checkpoints wrote.
    pub checkpoint_bytes: u64,
    /// Journal records appended.
    pub journal_records: u64,
    /// Journal size at the end of the round.
    pub journal_bytes: u64,
    /// Simulated crashes resumed from.
    pub resumes: u64,
    /// Journal records the resumes replayed.
    pub replayed: u64,
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics, from untraced rounds.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics, from traced rounds; empty when untraced.
    pub per_layer: Vec<Metric>,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations failed over all rounds.
    pub failed: u64,
    /// Failed checks; the run is correct only when empty and nothing
    /// failed.
    pub problems: Vec<String>,
    /// The first round's counts.
    pub exact: Option<Exact>,
    /// Untraced rounds played.
    pub rounds: usize,
    /// Traced rounds played.
    pub traced_rounds: usize,
    /// Span records written, and where.
    pub spans_written: Option<(PathBuf, usize)>,
}

impl Report {
    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.exact.is_some()
    }
}

/// The end-to-end metrics that are fixed by the seed.
pub const EXACT_METRICS: [&str; 2] = ["on_time_ratio", "avg_wait_slots"];

/// Inputs shared by every round of a run.
struct World<'a> {
    spec: &'a Spec,
    arrivals: &'a Arrivals,
    plan: Option<FaultPlan>,
    payload: Bytes,
    opts: &'a Options,
}

/// The station as the workload drives it.
enum Host {
    Plain {
        station: Station,
        buf: TickBuf,
    },
    Journaled {
        rs: RecoverableStation,
        out: TickOutcome,
    },
}

/// The last tick as the checks see it.
struct View<'a> {
    time: u64,
    mode: Mode,
    on_air: &'a [Option<PageId>],
    corrupted: &'a [bool],
    deliveries: &'a [Delivery],
}

impl Host {
    fn station(&self) -> &Station {
        match self {
            Host::Plain { station, .. } => station,
            Host::Journaled { rs, .. } => rs.station(),
        }
    }

    fn subscribe(&mut self, page: PageId) -> bool {
        match self {
            Host::Plain { station, .. } => station.subscribe(page).is_ok(),
            Host::Journaled { rs, .. } => rs.subscribe(page).is_ok(),
        }
    }

    /// Expires `old` and publishes `new`; returns how many of the two
    /// calls failed.
    fn churn(&mut self, old: PageId, new: PageId, expected: u64) -> u64 {
        let (expired, published) = match self {
            Host::Plain { station, .. } => (
                station.expire(old).is_ok(),
                station.publish(new, expected).is_ok(),
            ),
            Host::Journaled { rs, .. } => {
                (rs.expire(old).is_ok(), rs.publish(new, expected).is_ok())
            }
        };
        u64::from(!expired) + u64::from(!published)
    }

    fn tick(&mut self) -> bool {
        match self {
            Host::Plain { station, buf } => {
                station.tick_into(buf);
                true
            }
            Host::Journaled { rs, out } => rs.tick().map(|o| *out = o).is_ok(),
        }
    }

    fn view(&self) -> View<'_> {
        match self {
            Host::Plain { buf, .. } => View {
                time: buf.time(),
                mode: buf.mode(),
                on_air: buf.on_air(),
                corrupted: buf.corrupted(),
                deliveries: buf.deliveries(),
            },
            Host::Journaled { out, .. } => View {
                time: out.time,
                mode: out.mode,
                on_air: &out.on_air,
                corrupted: &out.corrupted,
                deliveries: &out.deliveries,
            },
        }
    }
}

struct Pipeline {
    host: Host,
    tx: SlotBroadcaster<FixedPayloads>,
}

fn broadcaster(w: &World) -> SlotBroadcaster<FixedPayloads> {
    SlotBroadcaster::new(FixedPayloads::new(w.payload.clone()))
}

/// Builds the station, publishes the catalogue, wraps it for journaling
/// when the workload asks, and warms the template cache by encoding the
/// plan's current column. `setup_s` times exactly this.
fn setup<P: Probe>(w: &World, probe: &mut P) -> Result<Pipeline, String> {
    let spec = w.spec;
    let mut station = match &w.plan {
        Some(plan) => Station::with_faults(spec.channels, spec.cycle, plan),
        None => Station::new(spec.channels, spec.cycle),
    }
    .map_err(|e| format!("station: {e}"))?;
    for i in 0..spec.pages {
        station
            .publish(PageId::new(i), spec.expected_time(i))
            .map_err(|e| format!("publish page {i}: {e}"))?;
    }
    let host = if spec.journal.is_some() {
        let rs = RecoverableStation::create(
            &w.opts.state_dir,
            station,
            w.plan.clone(),
            RecoveryOptions::new(),
        )
        .map_err(|e| format!("journaled station: {e}"))?;
        Host::Journaled {
            rs,
            out: TickBuf::new().into_outcome(),
        }
    } else {
        Host::Plain {
            station,
            buf: TickBuf::new(),
        }
    };
    let mut tx = broadcaster(w);
    let station = host.station();
    let cells = station.plan_cells();
    let cols = usize::try_from(cells.cycle_len).expect("cycle fits in memory");
    let col = usize::try_from(station.now() % cells.cycle_len).expect("column fits in memory");
    let column: Vec<Option<PageId>> = (0..cells.channels as usize)
        .map(|ch| cells.cells[ch * cols + col])
        .collect();
    let mut scratch = BytesMut::new();
    probe
        .span(Layer::Rebuild, || {
            tx.encode_slot(station, &column, station.now(), &mut scratch)
        })
        .map_err(|e| format!("warm-up encode: {e}"))?;
    Ok(Pipeline { host, tx })
}

/// The simulated crash is the caller dropping the station; this resumes
/// it from the state directory and checks that nothing was lost.
fn resume<P: Probe>(
    w: &World,
    probe: &mut P,
    slot: u64,
    before: &StationStats,
    ex: &mut Exact,
) -> Result<Pipeline, String> {
    ex.attempted += 1;
    let (rs, report) = probe
        .span(Layer::Resume, || {
            RecoverableStation::resume(&w.opts.state_dir, RecoveryOptions::new(), None)
        })
        .map_err(|e| format!("resume at slot {slot}: {e}"))?;
    if report.replayed == 0 || rs.now() != slot || rs.stats() != *before {
        return Err(format!(
            "resume at slot {slot} replayed {} record(s) and came back at slot {} with {:?}; \
             the crashed station stood at slot {slot} with {before:?}",
            report.replayed,
            rs.now(),
            rs.stats()
        ));
    }
    ex.resumes += 1;
    ex.replayed += report.replayed;
    // A recovered station gets a fresh broadcaster, whose first slot
    // rebuilds the template cache: that is part of what recovery costs.
    Ok(Pipeline {
        host: Host::Journaled {
            rs,
            out: TickBuf::new().into_outcome(),
        },
        tx: broadcaster(w),
    })
}

/// Length of the frame at the front of `bytes`, read from the payload
/// length field of its header (bytes 20..22, big-endian).
fn frame_len(bytes: &[u8]) -> Option<usize> {
    let field = bytes.get(20..22)?;
    Some(HEADER_LEN + usize::from(u16::from_be_bytes([field[0], field[1]])))
}

/// Offset of channel `ch`'s frame in one encoded slot; frames are laid
/// out in channel order.
fn frame_offset(wire: &[u8], ch: usize) -> Option<usize> {
    let mut off = 0;
    for _ in 0..ch {
        off += frame_len(wire.get(off..)?)?;
    }
    Some(off)
}

#[derive(Debug, Default)]
struct DecodeTally {
    frames: u64,
    receptions: u64,
    errors: u64,
    mismatches: u64,
}

/// Receivers tuned to a few channels. Receiver `r` of `n` wants the pages
/// whose id is `r` mod `n`, and wants each page again once it has it.
struct Panel {
    receivers: Vec<(usize, Receiver)>,
}

impl Panel {
    fn new(spec: &Spec) -> Self {
        let channels = spec.panel_channels();
        let n = channels.len() as u32;
        let receivers = channels
            .into_iter()
            .zip(0u32..)
            .map(|(ch, r)| {
                let wanted = (0..spec.pages).filter(|p| p % n == r).map(PageId::new);
                (ch, Receiver::new(wanted))
            })
            .collect();
        Panel { receivers }
    }

    /// Decodes each receiver's frame of the slot in `wire` and checks it
    /// against what the station put on the air.
    fn decode(&mut self, wire: &[u8], view: &View, payload: &[u8]) -> DecodeTally {
        let mut tally = DecodeTally::default();
        let mut off = 0;
        let mut at = 0;
        for (ch, rx) in &mut self.receivers {
            tally.frames += 1;
            let frame = loop {
                let Some(len) = wire.get(off..).and_then(frame_len) else {
                    break None;
                };
                if at == *ch {
                    break wire.get(off..off + len);
                }
                off += len;
                at += 1;
            };
            let Some(Ok(frame)) = frame.map(Frame::decode) else {
                tally.errors += 1;
                continue;
            };
            let want_payload: &[u8] = if frame.page.is_some() { payload } else { &[] };
            if frame.channel.index() as usize != *ch
                || frame.slot_time != view.time
                || frame.page != view.on_air[*ch]
                || frame.payload[..] != *want_payload
            {
                tally.mismatches += 1;
            }
            if view.corrupted[*ch] {
                rx.consume_corrupt(&frame);
            } else if let Some(got) = rx.consume(&frame) {
                tally.receptions += 1;
                rx.want(got.page);
            }
        }
        tally
    }
}

/// Never unsteady.
const NEVER: u64 = u64::MAX;

/// Marks, at `slot`, every page whose cells differ between two plans.
fn mark_moved(old: &[Option<PageId>], new: &[Option<PageId>], slot: u64, unsteady: &mut [u64]) {
    let mut mark = |page: Option<PageId>| {
        if let Some(at) = page.and_then(|p| unsteady.get_mut(p.index() as usize)) {
            *at = slot;
        }
    };
    if old.len() == new.len() {
        for (&a, &b) in old.iter().zip(new).filter(|(a, b)| a != b) {
            mark(a);
            mark(b);
        }
    } else {
        old.iter().chain(new).for_each(|&p| mark(p));
    }
}

/// Plays one round: a fresh station through the whole trace. Collects the
/// service time of every timed slot in `slot_ns`, and of the timed slots
/// whose plan epoch moved in `replan_ns`; both are reused between rounds.
fn round<P: Probe>(
    w: &World,
    probe: &mut P,
    slot_ns: &mut Vec<u32>,
    replan_ns: &mut Vec<u32>,
) -> Result<(Exact, Times), String> {
    let spec = w.spec;
    slot_ns.clear();
    replan_ns.clear();
    let started = Instant::now();
    let mut pipe = setup(w, probe)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut ex = Exact::default();
    let mut panel = Panel::new(spec);
    // Catalogue index -> live page id; churn replaces the oldest page.
    let mut live: Vec<u32> = (0..spec.pages).collect();
    let mut churns = 0u64;
    // The plan as last seen, and per page the last slot at which one of
    // its airings was stalled, corrupted or moved by a plan change.
    let mut cells = pipe.host.station().plan_cells().cells;
    let mut unsteady = vec![NEVER; spec.pages as usize];
    // Last slot the station spent outside Valid mode.
    let mut degraded = None;
    let mut wire = BytesMut::new();
    let mut crash_at = None;
    let mut prev = Instant::now();
    for s in 0..spec.round_slots {
        if crash_at == Some(s) {
            crash_at = None;
            let before = pipe.host.station().stats();
            if let Host::Journaled { rs, .. } = &pipe.host {
                ex.journal_records += rs.journal_lag();
            }
            ex.rebuilds += pipe.tx.rebuilds();
            ex.fresh_fallbacks += pipe.tx.fresh_fallbacks();
            drop(pipe);
            pipe = resume(w, probe, s, &before, &mut ex)?;
            let resumed = pipe.host.station().plan_cells().cells;
            mark_moved(&cells, &resumed, s, &mut unsteady);
            cells = resumed;
            // The crash and the resume fall between slots.
            prev = Instant::now();
        }
        let timed = s >= spec.warmup_slots;
        probe.slot_begin(s, timed);
        let Pipeline { host, tx } = &mut pipe;
        let epoch = host.station().plan_epoch();

        if spec
            .churn_every
            .is_some_and(|every| s > 0 && s % every == 0)
        {
            let k = usize::try_from(churns % u64::from(spec.pages)).expect("index fits");
            let old = PageId::new(live[k]);
            let new = spec.pages + u32::try_from(churns).expect("churns fit u32");
            let expected = spec.expected_time(k as u32);
            let failed = probe.span(Layer::Catalog, || {
                host.churn(old, PageId::new(new), expected)
            });
            ex.attempted += 2;
            ex.catalog_ops += 2;
            ex.failed += failed;
            live[k] = new;
            unsteady.push(NEVER);
            churns += 1;
        }

        let batch = w.arrivals.slot(s);
        let accepted = probe.span(Layer::Subscribe, || {
            let mut ok = 0u64;
            for &k in batch {
                ok += u64::from(host.subscribe(PageId::new(live[usize::from(k)])));
            }
            ok
        });
        ex.attempted += batch.len() as u64;
        ex.subscribed += accepted;
        ex.failed += batch.len() as u64 - accepted;

        let before = host.station().stats();
        ex.waiting_peak = ex.waiting_peak.max(before.waiting);
        let ticked = probe.span(Layer::Tick, || host.tick());
        ex.attempted += 1;
        ex.failed += u64::from(!ticked);
        let replanned = host.station().plan_epoch() != epoch;
        if replanned {
            probe.tag(Layer::Tick, Layer::ReplanTick);
            ex.replan_slots += 1;
        }
        let after = host.station().stats();
        let view = host.view();
        if view.mode != Mode::Valid {
            degraded = Some(s);
        }
        if replanned {
            let now = host.station().plan_cells().cells;
            mark_moved(&cells, &now, s, &mut unsteady);
            cells = now;
        }
        // Theorem 3.1: a valid program airs every page within its expected
        // time from any instant. A late delivery breaks that promise unless
        // the station left Valid mode, or an airing of the page was stalled,
        // corrupted or moved, while the client waited.
        if view.mode == Mode::Valid
            && after.on_time - before.on_time < after.delivered - before.delivered
        {
            for d in view.deliveries.iter().filter(|d| !d.within_deadline) {
                let since = view.time + 1 - d.wait;
                let excused = |at: u64| at != NEVER && at >= since;
                if !degraded.is_some_and(excused) && !excused(unsteady[d.page.index() as usize]) {
                    ex.late_in_valid += 1;
                    ex.failed += 1;
                }
            }
        }

        wire.clear();
        let rebuilds = tx.rebuilds();
        let station = host.station();
        let encoded = probe.span(Layer::Encode, || {
            tx.encode_slot(station, view.on_air, view.time, &mut wire)
        });
        ex.attempted += 1;
        match encoded {
            Ok(n) if n == wire.len() => ex.wire_bytes += n as u64,
            _ => ex.failed += 1,
        }
        if tx.rebuilds() != rebuilds {
            probe.tag(Layer::Encode, Layer::Rebuild);
        }
        if spec.faults {
            if let Some(cache) = tx.cache() {
                for (ch, &aired) in view.on_air.iter().enumerate() {
                    let planned = cache.page_at(ch as u32, view.time);
                    if let Some(p) = planned.filter(|_| aired != planned || view.corrupted[ch]) {
                        unsteady[p.index() as usize] = view.time;
                    }
                }
            }
        }

        if w.opts.corrupt_wire_at == Some(s) {
            let first = panel.receivers[0].0;
            if let Some(off) = frame_offset(&wire, first) {
                wire[off + 8] ^= 0xFF;
            }
        }
        let tally = probe.span(Layer::Decode, || panel.decode(&wire, &view, &w.payload));
        ex.attempted += tally.frames;
        ex.frames += tally.frames;
        ex.receptions += tally.receptions;
        ex.decode_errors += tally.errors;
        ex.mismatches += tally.mismatches;
        ex.failed += tally.errors + tally.mismatches;

        if let (Some(j), Host::Journaled { rs, .. }) = (spec.journal, &mut *host) {
            if (s + 1) % j.checkpoint_every == 0 {
                ex.journal_records += rs.journal_lag();
                let written = probe.span(Layer::Checkpoint, || rs.checkpoint());
                ex.attempted += 1;
                match written {
                    Ok(bytes) => {
                        ex.checkpoints += 1;
                        ex.checkpoint_bytes += bytes;
                        if ex.checkpoints % j.crash_after_checkpoints == 0 {
                            crash_at = Some(s + 1 + j.crash_delay);
                        }
                    }
                    Err(_) => ex.failed += 1,
                }
            }
        }

        let now = Instant::now();
        probe.slot_end(s, prev, now);
        if timed {
            let ns = u32::try_from(now.duration_since(prev).as_nanos()).unwrap_or(u32::MAX);
            slot_ns.push(ns);
            if replanned {
                replan_ns.push(ns);
            }
        }
        prev = now;
    }

    let stats = pipe.host.station().stats();
    if let Host::Journaled { rs, .. } = &pipe.host {
        ex.journal_records += rs.journal_lag();
        ex.journal_bytes = fs::metadata(w.opts.state_dir.join(JOURNAL_FILE))
            .map_err(|e| format!("journal size: {e}"))?
            .len();
    }
    ex.rebuilds += pipe.tx.rebuilds();
    ex.fresh_fallbacks += pipe.tx.fresh_fallbacks();
    ex.stats = stats;
    if stats.delivered + stats.waiting != ex.subscribed {
        return Err(format!(
            "conservation: {} subscribed but {} delivered + {} waiting",
            ex.subscribed, stats.delivered, stats.waiting
        ));
    }
    let total: f64 = slot_ns.iter().map(|&n| f64::from(n)).sum();
    let times = Times {
        setup_s,
        slots_per_s: slot_ns.len() as f64 / (total / 1e9),
        p50_us: f64::from(quantile(slot_ns, 0.50)) / 1e3,
        p99_us: f64::from(quantile(slot_ns, 0.99)) / 1e3,
        replan_p99_us: f64::from(quantile(replan_ns, 0.99)) / 1e3,
    };
    Ok((ex, times))
}

/// One round's timings.
#[derive(Debug, Clone, Copy)]
struct Times {
    setup_s: f64,
    slots_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    replan_p99_us: f64,
}

/// Peak resident set of this process, MiB, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs the workload and never panics on a failed check: failures land in
/// the report.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_rounds(opts, &mut report) {
        report.problems.push(e);
    }
    if opts.spec.journal.is_some() {
        let _ = fs::remove_dir_all(&opts.state_dir);
    }
    report
}

fn run_rounds(opts: &Options, report: &mut Report) -> Result<(), String> {
    let spec = &opts.spec;
    let arrivals = Arrivals::draw(spec, opts.seed);
    let w = World {
        spec,
        arrivals: &arrivals,
        plan: spec.fault_plan(),
        payload: Bytes::from(vec![0x5A; spec.payload_bytes]),
        opts,
    };

    let mut tracer = opts.trace.then(|| Tracer::new(spec.round_slots));
    let slots = usize::try_from(spec.round_slots).expect("round fits in memory");
    let mut slot_ns = Vec::with_capacity(slots);
    let mut replan_ns = Vec::new();
    let mut plain: Vec<Times> = Vec::new();
    let mut traced: Vec<(Times, LayerRound)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        let exact = match tracer.as_mut() {
            Some(t) if traced.len() < plain.len() => {
                let (exact, times) = round(&w, t, &mut slot_ns, &mut replan_ns)?;
                traced.push((times, t.finish_round()));
                exact
            }
            _ => {
                let (exact, times) = round(&w, &mut Untraced, &mut slot_ns, &mut replan_ns)?;
                plain.push(times);
                exact
            }
        };
        report.attempted += exact.attempted;
        report.failed += exact.failed;
        match &report.exact {
            None => report.exact = Some(exact),
            Some(first) if *first != exact => {
                return Err(format!(
                    "round {} counted differently from round 1 on the same inputs:\n  {exact:?}\n  {first:?}",
                    plain.len() + traced.len()
                ));
            }
            Some(_) => {}
        }
        if Instant::now() >= deadline && (tracer.is_none() || !traced.is_empty()) {
            break;
        }
    }
    report.rounds = plain.len();
    report.traced_rounds = traced.len();
    let ex = report.exact.clone().expect("one round ran");
    let st = ex.stats;
    let m = |name, unit, value| Metric { name, unit, value };
    let over = |rounds: &[Times], f: fn(&Times) -> f64, lower_is_better| {
        quiet(&rounds.iter().map(f).collect::<Vec<_>>(), lower_is_better)
    };
    let slots_per_s = over(&plain, |t| t.slots_per_s, false);
    report.e2e = vec![
        m(
            "setup_s",
            "s",
            median(&plain.iter().map(|t| t.setup_s).collect::<Vec<_>>()),
        ),
        m("slots_per_s", "slots/s", slots_per_s),
        m("slot_p50_us", "us", over(&plain, |t| t.p50_us, true)),
        m("slot_p99_us", "us", over(&plain, |t| t.p99_us, true)),
        m(
            "on_time_ratio",
            "ratio",
            st.on_time as f64 / st.delivered as f64,
        ),
        m(
            "avg_wait_slots",
            "slots",
            st.total_wait as f64 / st.delivered as f64,
        ),
        m("peak_rss_mb", "MiB", peak_rss_mb()?),
    ];

    if let Some(t) = &tracer {
        let timed = spec.round_slots - spec.warmup_slots;
        let timed_subscribes: usize = (spec.warmup_slots..spec.round_slots)
            .map(|s| arrivals.slot(s).len())
            .sum();
        let timed_frames = timed * u64::from(spec.panel);
        let layer = |f: &dyn Fn(&LayerRound) -> f64| {
            quiet(&traced.iter().map(|(_, l)| f(l)).collect::<Vec<_>>(), true)
        };
        let p50 = |l: Layer| layer(&|r| r.p50[l as usize]);
        let p99 = |l: Layer| layer(&|r| r.p99[l as usize]);
        let per = |l: Layer, n: f64| layer(&|r| r.sum[l as usize] / n);
        let traced_rounds: Vec<Times> = traced.iter().map(|(t, _)| *t).collect();
        let traced_sps = over(&traced_rounds, |t| t.slots_per_s, false);
        let count = |v: u64| v as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.per_layer = vec![
            m(
                "station.subscribe_ns",
                "ns",
                per(Layer::Subscribe, timed_subscribes as f64),
            ),
            m("station.tick_ns_p50", "ns", p50(Layer::Tick)),
            m("station.tick_ns_p99", "ns", p99(Layer::Tick)),
            m(
                "station.deliveries_per_slot",
                "count",
                ratio(st.delivered, spec.round_slots),
            ),
            m("station.waiting_peak", "count", count(ex.waiting_peak)),
            m("station.catalog_ns_p50", "ns", p50(Layer::Catalog)),
            m("station.replan_tick_ns_p50", "ns", p50(Layer::ReplanTick)),
            m(
                "station.replan_slot_p99_us",
                "us",
                over(&plain, |t| t.replan_p99_us, true),
            ),
            m("station.mode_changes", "count", count(st.mode_changes)),
            m("station.degraded_slots", "count", count(st.degraded_slots)),
            m(
                "station.plan_rejections",
                "count",
                count(st.plan_rejections),
            ),
            m("transmit.encode_ns_p50", "ns", p50(Layer::Encode)),
            m("transmit.encode_ns_p99", "ns", p99(Layer::Encode)),
            m(
                "transmit.bytes_per_slot",
                "bytes",
                ratio(ex.wire_bytes, spec.round_slots),
            ),
            m("transmit.rebuilds", "count", count(ex.rebuilds)),
            m("transmit.rebuild_ns_p50", "ns", p50(Layer::Rebuild)),
            m(
                "transmit.fresh_fallbacks",
                "count",
                count(ex.fresh_fallbacks),
            ),
            m(
                "receiver.decode_ns_per_frame",
                "ns",
                per(Layer::Decode, timed_frames as f64),
            ),
            m("receiver.frames", "count", count(ex.frames)),
            m("receiver.receptions", "count", count(ex.receptions)),
            m("receiver.decode_errors", "count", count(ex.decode_errors)),
            m(
                "recover.journal_records",
                "count",
                count(ex.journal_records),
            ),
            m("recover.journal_bytes", "bytes", count(ex.journal_bytes)),
            m("recover.checkpoint_ns_p50", "ns", p50(Layer::Checkpoint)),
            m(
                "recover.checkpoint_bytes",
                "bytes",
                ratio(ex.checkpoint_bytes, ex.checkpoints),
            ),
            m("recover.resume_ns_p50", "ns", p50(Layer::Resume)),
            m("recover.replayed_records", "count", count(ex.replayed)),
            m(
                "bench.self_ns_per_slot",
                "ns",
                layer(&|r| r.self_ns_per_slot),
            ),
            m("bench.trace_overhead", "ratio", slots_per_s / traced_sps),
        ];
        if let Some(path) = &opts.spans {
            let n = t
                .write_spans(path)
                .map_err(|e| format!("span file {}: {e}", path.display()))?;
            report.spans_written = Some((path.clone(), n));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// `workload` cut to about 2k slots, with the journal cadence scaled
    /// down so a crash and a resume still happen.
    fn small(workload: Workload, seed: u64, tag: &str) -> Options {
        let mut spec = workload.spec();
        spec.round_slots = 2048;
        spec.warmup_slots = 256;
        if let Some(j) = spec.journal.as_mut() {
            j.checkpoint_every = 256;
            j.crash_after_checkpoints = 2;
            j.crash_delay = 128;
        }
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        Options {
            workload,
            spec,
            seed,
            seconds: 0.0,
            trace: false,
            spans: None,
            state_dir: out.join(format!("test-{tag}-{}", std::process::id())),
            corrupt_wire_at: None,
        }
    }

    #[test]
    fn every_workload_passes_its_checks_traced_and_untraced() {
        for workload in Workload::ALL {
            let mut opts = small(workload, 3, workload.name());
            opts.trace = true;
            let report = run(&opts);
            assert!(
                report.correct(),
                "{}: {:?}",
                workload.name(),
                report.problems
            );
            assert_eq!((report.rounds, report.traced_rounds), (1, 1));
            assert_eq!(report.e2e.len(), 7);
            assert_eq!(report.per_layer.len(), 29);
            let ex = report.exact.expect("a round ran");
            assert!(ex.stats.delivered > 0 && ex.frames > 0, "{ex:?}");
            if workload == Workload::Journaled {
                assert!(ex.resumes > 0 && ex.replayed > 0, "{ex:?}");
            }
            if workload == Workload::ChurnFaults {
                assert!(ex.catalog_ops > 0 && ex.stats.mode_changes > 0, "{ex:?}");
            }
        }
    }

    #[test]
    fn a_seed_fixes_the_counts_and_another_seed_changes_the_trace() {
        let spec = small(Workload::ChurnFaults, 0, "").spec;
        assert_eq!(Arrivals::draw(&spec, 7), Arrivals::draw(&spec, 7));
        assert_ne!(Arrivals::draw(&spec, 7), Arrivals::draw(&spec, 8));
        let first = run(&small(Workload::ChurnFaults, 7, "seed-a"));
        let again = run(&small(Workload::ChurnFaults, 7, "seed-b"));
        assert!(first.correct() && again.correct());
        assert_eq!(first.exact, again.exact);
        for name in EXACT_METRICS {
            let value = |r: &Report| r.e2e.iter().find(|m| m.name == name).map(|m| m.value);
            assert_eq!(value(&first), value(&again), "{name}");
        }
    }

    #[test]
    fn a_corrupted_wire_byte_fails_the_run() {
        let mut opts = small(Workload::WideWire, 5, "corrupt");
        opts.corrupt_wire_at = Some(100);
        let report = run(&opts);
        let ex = report.exact.as_ref().expect("the round completes");
        assert_eq!((ex.decode_errors, report.failed), (1, 1));
        assert!(!report.correct());
    }

    #[test]
    fn frames_are_found_by_channel() {
        let frames = [
            Frame::idle(airsched_core::types::ChannelId::new(0), 9),
            Frame::data(
                airsched_core::types::ChannelId::new(1),
                9,
                PageId::new(4),
                Bytes::from_static(b"abc"),
            ),
            Frame::idle(airsched_core::types::ChannelId::new(2), 9),
        ];
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode().to_vec()).collect();
        assert_eq!(frame_offset(&wire, 1), Some(HEADER_LEN));
        assert_eq!(frame_offset(&wire, 2), Some(2 * HEADER_LEN + 3));
        assert_eq!(frame_offset(&wire[..10], 1), None);
    }
}
