//! The observer seam: everything the station does for metrics, flight
//! recorder events and intra-slot spans, and the only station module
//! besides its unit tests that names an `airsched_obs` or
//! `airsched_trace` type.
//!
//! Serving and ladder code never call into instrumentation. They note
//! what happened into a [`Record`] the station reuses across calls:
//! channel-health transitions, replan stage costs, gate verdicts, mode
//! changes, frame faults, the slot's [`DrainDelta`] and, on sampled
//! slots only, the phase boundary instants. The optional [`Observer`]
//! consumes that record once per public call — at the end of
//! [`Station::tick_into`] and at the end of every mutator that can
//! re-plan — and the record is cleared for the next call, keeping its
//! capacity.
//!
//! # Event order
//!
//! The observer replays the notes in the order they were taken, so the
//! flight recorder sees exactly the sequence the serving code produced:
//! a channel loss before the replan timings and gate refusals it caused,
//! those before their `ModeChange`, and a postmortem cut right after the
//! `ModeChange` that enters best-effort or offline service. A tick then
//! appends, in this order, its SLO burn (with its postmortem), its
//! deadline-miss batch, and its span tree.

use std::time::Instant;

use airsched_core::dynamic::Catalogue;
use airsched_obs::events::{Event as ObsEvent, HealthTransition};
use airsched_obs::metrics::{Counter, Gauge, Histogram};
use airsched_obs::Obs;
use airsched_trace::{Phase, SloTracker, SlotTrace, SpanKind, SpanRec, Trace};

use crate::health::ChannelEvent;
use crate::waiting::{DrainDelta, WaitingSet};

use super::{Mode, Station, StationStats, TickBuf, MODE_NAMES};

/// A replan pipeline stage, as labelled on the replan metrics and
/// `ReplanTiming` events.
#[derive(Debug, Clone, Copy)]
pub(super) enum Stage {
    /// The SUSC re-pack onto the surviving channels.
    Repack,
    /// The PAMAD best-effort plan.
    Pamad,
    /// The deep-verify solver certification.
    Solve,
    /// The relocation of the on-air plan: surviving rows kept, only the
    /// pages left without a place first-fitted.
    Relocate,
}

/// Replan stage names indexed by `Stage as usize`.
const STAGE_NAMES: [&str; 4] = ["repack", "pamad", "solve", "relocate"];

/// Health-transition labels indexed by [`transition_index`].
const TRANSITION_NAMES: [&str; 4] = ["down", "up", "degraded", "healthy"];

fn transition_index(t: HealthTransition) -> usize {
    match t {
        HealthTransition::Down => 0,
        HealthTransition::Up => 1,
        HealthTransition::Degraded => 2,
        HealthTransition::Healthy => 3,
    }
}

/// The pipeline phases of a sampled slot, one per pair of adjacent
/// marks.
const PIPELINE: [Phase; 5] = [
    Phase::Faults,
    Phase::Air,
    Phase::Drain,
    Phase::Deadline,
    Phase::Sync,
];

/// One rare-path happening, in the order the serving code noted it.
#[derive(Debug, Clone, Copy)]
enum Note {
    /// A channel-health transition.
    Health(ChannelEvent),
    /// One replan stage's cost.
    Replan {
        stage: Stage,
        evals: u64,
        /// Wall time, 0 when no observer was attached to clock it.
        duration_us: u64,
    },
    /// A lint-gate verdict: warn-level diagnostics, and how many deny
    /// rule codes (the next ones in [`Record::codes`]) refused it.
    Lint { warnings: u64, denied: usize },
    /// The deep-verify solver refused a re-pack candidate.
    SolveRefused,
    /// A degradation-ladder move and what caused it.
    ModeChange {
        from: Mode,
        to: Mode,
        cause: &'static str,
    },
}

/// What one public call did, for the observer to consume at its end.
///
/// Filled whether or not an observer is attached (the rare-path notes
/// cost a push; phase marks are taken only on sampled slots) and cleared
/// at every consume point, so its vectors reach a high-water mark and
/// steady-state ticks never allocate.
#[derive(Debug, Clone, Default)]
pub(super) struct Record {
    notes: Vec<Note>,
    /// Deny-level rule codes of refused lint verdicts, in note order.
    codes: Vec<&'static str>,
    /// Frames a stall took off the air this slot.
    pub(super) stalled: u64,
    /// Frames that aired corrupted this slot.
    pub(super) corrupt: u64,
    /// The slot's drain result.
    pub(super) delta: DrainDelta,
    /// Whether this slot's span tree is captured.
    sampled: bool,
    /// Phase boundary instants of a sampled slot.
    marks: Vec<Instant>,
}

impl Record {
    /// Notes a channel-health transition.
    pub(super) fn health(&mut self, event: ChannelEvent) {
        self.notes.push(Note::Health(event));
    }

    /// Notes one replan stage's cost; `started` is `Some` only when an
    /// observer is attached.
    pub(super) fn replan(&mut self, stage: Stage, evals: u64, started: Option<Instant>) {
        let duration_us = started.map_or(0, |t| {
            u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
        });
        self.notes.push(Note::Replan {
            stage,
            evals,
            duration_us,
        });
    }

    /// Notes a lint-gate verdict with its deny-level rule codes
    /// (deduplicated, first occurrence first); any code means refusal.
    pub(super) fn lint(&mut self, warnings: u64, denied: impl Iterator<Item = &'static str>) {
        let start = self.codes.len();
        for code in denied {
            if !self.codes[start..].contains(&code) {
                self.codes.push(code);
            }
        }
        self.notes.push(Note::Lint {
            warnings,
            denied: self.codes.len() - start,
        });
    }

    /// Notes a deep-verify refusal.
    pub(super) fn solve_refused(&mut self) {
        self.notes.push(Note::SolveRefused);
    }

    /// Notes a degradation-ladder move.
    pub(super) fn mode_change(&mut self, from: Mode, to: Mode, cause: &'static str) {
        self.notes.push(Note::ModeChange { from, to, cause });
    }

    /// Starts a slot: when `sampled`, takes its first phase mark.
    #[inline]
    pub(super) fn begin_slot(&mut self, sampled: bool) {
        self.sampled = sampled;
        self.mark();
    }

    /// Takes a phase boundary mark on a sampled slot; one dormant branch
    /// otherwise.
    #[inline]
    pub(super) fn mark(&mut self) {
        if self.sampled {
            self.marks.push(Instant::now());
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.notes.clear();
        self.codes.clear();
        self.stalled = 0;
        self.corrupt = 0;
        self.delta = DrainDelta::default();
        self.sampled = false;
        self.marks.clear();
    }
}

/// Pre-registered metric handles and the flight recorder of one observed
/// station.
///
/// The serving-path series are **single-writer mirrors** of
/// [`StationStats`]: the tick loop does no per-delivery atomic
/// read-modify-write at all. Deliveries bump only their wait bucket
/// (one relaxed load + store on the station's own histogram), and the
/// end of each tick re-stores the scalar series straight from the stats
/// the unobserved loop maintains anyway — a handful of plain relaxed
/// stores, no locked instructions. The measured cost is the `obs` rows
/// of `BENCH_station.json` (`station_perf`). Rare-path series (mode
/// changes, plan verdicts, health transitions, replans, fault frames)
/// are `inc`/`add`ed as the record replays, at the end of every call, so
/// they are exact between calls.
#[derive(Debug, Clone)]
struct Metrics {
    handle: Obs,
    slots: Counter,
    delivered: [Counter; 4],
    on_time: [Counter; 4],
    deadline_miss: Counter,
    degraded_slots: Counter,
    mode_changes: Counter,
    plan_rejections: Counter,
    plan_warnings: Counter,
    stalled_frames: Counter,
    corrupt_frames: Counter,
    health_transitions: [Counter; 4],
    replan_runs: [Counter; 4],
    replan_evals: [Counter; 4],
    /// Re-pack candidates the difference-constraint solver rejected
    /// under deep verify.
    solve_rejections: Counter,
    /// Bytes held by the waiting-set arena (outside [`StationStats`]).
    arena_bytes: Gauge,
    waiting: Gauge,
    channels_up: Gauge,
    mode: Gauge,
    wait_hist: Histogram,
    /// Largest delivery wait seen, tracked as a plain local so the hot
    /// loop never needs an atomic `fetch_max`; mirrored into the
    /// histogram's totals at end of tick.
    wait_max: u64,
    /// Stats baseline captured at attach time: the wait histogram only
    /// buckets deliveries made *since* attach, so its totals subtract the
    /// pre-attach history to stay consistent with its buckets.
    base_delivered: u64,
    base_wait: u64,
    /// Reused scratch for the tick's `DeadlineMiss` events, drained into
    /// the recorder under a single lock at end of tick.
    miss_scratch: Vec<ObsEvent>,
}

impl Metrics {
    fn new(obs: &Obs) -> Self {
        let reg = obs.registry();
        Self {
            handle: obs.clone(),
            slots: reg.counter("airsched_station_slots_total", &[]),
            delivered: core::array::from_fn(|i| {
                reg.counter(
                    "airsched_station_delivered_total",
                    &[("mode", MODE_NAMES[i])],
                )
            }),
            on_time: core::array::from_fn(|i| {
                reg.counter("airsched_station_on_time_total", &[("mode", MODE_NAMES[i])])
            }),
            deadline_miss: reg.counter("airsched_station_deadline_miss_total", &[]),
            degraded_slots: reg.counter("airsched_station_degraded_slots_total", &[]),
            mode_changes: reg.counter("airsched_station_mode_changes_total", &[]),
            plan_rejections: reg.counter("airsched_station_plan_rejections_total", &[]),
            plan_warnings: reg.counter("airsched_station_plan_warnings_total", &[]),
            stalled_frames: reg.counter("airsched_station_stalled_frames_total", &[]),
            corrupt_frames: reg.counter("airsched_station_corrupt_frames_total", &[]),
            health_transitions: core::array::from_fn(|i| {
                reg.counter(
                    "airsched_health_transitions_total",
                    &[("transition", TRANSITION_NAMES[i])],
                )
            }),
            replan_runs: core::array::from_fn(|i| {
                reg.counter("airsched_replan_runs_total", &[("stage", STAGE_NAMES[i])])
            }),
            replan_evals: core::array::from_fn(|i| {
                reg.counter("airsched_replan_evals_total", &[("stage", STAGE_NAMES[i])])
            }),
            solve_rejections: reg.counter("airsched_station_solve_rejections_total", &[]),
            arena_bytes: reg.gauge("airsched_waiting_arena_bytes", &[]),
            waiting: reg.gauge("airsched_station_waiting", &[]),
            channels_up: reg.gauge("airsched_station_channels_up", &[]),
            mode: reg.gauge("airsched_station_mode", &[]),
            wait_hist: reg.histogram("airsched_station_wait_slots", &[]),
            wait_max: 0,
            base_delivered: 0,
            base_wait: 0,
            miss_scratch: Vec::new(),
        }
    }

    /// Mirrors every stats-backed scalar series — all plain relaxed
    /// stores. Called at attach so the registry starts exactly on the
    /// station's lifetime stats; the per-tick path uses the narrower
    /// [`Metrics::sync_tick`].
    fn sync_full(&self, stats: &StationStats, channels_up: u64) {
        for (m, tally) in stats.per_mode.iter().enumerate() {
            self.delivered[m].store(tally.delivered);
            self.on_time[m].store(tally.on_time);
        }
        self.mode_changes.store(stats.mode_changes);
        self.plan_rejections.store(stats.plan_rejections);
        self.plan_warnings.store(stats.plan_warnings);
        self.solve_rejections.store(stats.solve_rejections);
        self.sync_tick(stats, 0, channels_up);
    }

    /// End-of-tick mirror: re-stores only the series a tick can move.
    /// Delivery tallies bump only the current mode's series, the rare
    /// counters are `inc`ed as the record replays, and everything else
    /// here is one relaxed store — so the registry equals the stats at
    /// every slot boundary without a single locked instruction.
    fn sync_tick(&self, stats: &StationStats, mode: usize, channels_up: u64) {
        self.slots.store(stats.slots_elapsed);
        let tally = &stats.per_mode[mode];
        self.delivered[mode].store(tally.delivered);
        self.on_time[mode].store(tally.on_time);
        self.deadline_miss.store(stats.delivered - stats.on_time);
        self.degraded_slots.store(stats.degraded_slots);
        self.waiting.set(stats.waiting);
        self.channels_up.set(channels_up);
        self.wait_hist.store_totals(
            stats.delivered - self.base_delivered,
            stats.total_wait - self.base_wait,
            self.wait_max,
        );
    }

    /// Replays a record's notes into the counters and the flight
    /// recorder, in note order. `slot` stamps the events that carry no
    /// slot of their own.
    fn replay(&self, rec: &Record, slot: u64) {
        let mut codes = rec.codes.iter();
        for note in &rec.notes {
            match *note {
                Note::Health(event) => {
                    let (channel, at, transition) = match event {
                        ChannelEvent::Down { channel, at } => (channel, at, HealthTransition::Down),
                        ChannelEvent::Up { channel, at } => (channel, at, HealthTransition::Up),
                        ChannelEvent::Degraded { channel, at, .. } => {
                            (channel, at, HealthTransition::Degraded)
                        }
                        ChannelEvent::Healthy { channel, at } => {
                            (channel, at, HealthTransition::Healthy)
                        }
                    };
                    self.health_transitions[transition_index(transition)].inc();
                    self.handle.record(ObsEvent::ChannelHealth {
                        ch: channel.index(),
                        slot: at,
                        transition,
                    });
                }
                Note::Replan {
                    stage,
                    evals,
                    duration_us,
                } => {
                    self.replan_runs[stage as usize].inc();
                    self.replan_evals[stage as usize].add(evals);
                    self.handle.record(ObsEvent::ReplanTiming {
                        stage: STAGE_NAMES[stage as usize].to_string(),
                        slot,
                        evals,
                        pruned: 0,
                        duration_us,
                    });
                }
                Note::Lint { warnings, denied } => {
                    self.plan_warnings.add(warnings);
                    if denied > 0 {
                        self.plan_rejections.inc();
                        self.handle.record(ObsEvent::PlanRejected {
                            slot,
                            rule_ids: codes.by_ref().take(denied).map(|c| c.to_string()).collect(),
                        });
                    }
                }
                Note::SolveRefused => {
                    self.solve_rejections.inc();
                    // The refusal event names the solver's rule code so a
                    // postmortem distinguishes it from lint refusals.
                    self.handle.record(ObsEvent::PlanRejected {
                        slot,
                        rule_ids: vec![airsched_solve::render::RULE.to_string()],
                    });
                }
                Note::ModeChange { from, to, cause } => {
                    self.mode_changes.inc();
                    self.mode.set(to.index() as u64);
                    self.handle.record(ObsEvent::ModeChange {
                        from: from.name().to_string(),
                        to: to.name().to_string(),
                        slot,
                        cause: cause.to_string(),
                    });
                    // Dropping onto a non-valid rung is the black-box
                    // moment: capture the recent history (the causal
                    // ChannelHealth / PlanRejected events precede the
                    // ModeChange just recorded).
                    if matches!(to, Mode::BestEffort | Mode::Offline) {
                        let _ = self.handle.capture_postmortem(slot, to.name());
                    }
                }
            }
        }
        if rec.stalled > 0 {
            self.stalled_frames.add(rec.stalled);
        }
        if rec.corrupt > 0 {
            self.corrupt_frames.add(rec.corrupt);
        }
    }
}

/// Intra-slot tracing state of one observed station.
///
/// The SLO tracker runs every tick (integer arithmetic plus a handful of
/// relaxed stores), but the clock is read and spans are built **only on
/// sampled slots** — every `sample_every`-th tick per
/// [`airsched_trace::TraceConfig`].
#[derive(Debug, Clone)]
struct Tracer {
    trace: Trace,
    /// Deadline-hit SLO over rolling windows; pushed every tick.
    slo: SloTracker,
}

/// The station's one optional attachment: a flight recorder with its
/// metric mirrors, a tracer, or both. It consumes the station's
/// [`Record`] at the end of every public call.
#[derive(Debug, Clone, Default)]
pub(super) struct Observer {
    metrics: Option<Metrics>,
    tracer: Option<Tracer>,
}

impl Observer {
    /// Whether `slot`'s span tree is captured.
    pub(super) fn sample_due(&self, slot: u64) -> bool {
        self.tracer
            .as_ref()
            .is_some_and(|t| t.trace.sample_due(slot))
    }

    /// The tick's tail after the notes: the SLO window and its burn
    /// alert, the per-delivery wait buckets and deadline-miss batch, the
    /// slot-boundary metric mirror, and the sampled slot's span tree.
    #[inline]
    fn close_slot(
        &mut self,
        rec: &mut Record,
        buf: &TickBuf,
        stats: &StationStats,
        catalogue: Catalogue<'_>,
        waits: &WaitingSet,
        channel_up: &[bool],
    ) {
        let slot = buf.time;
        // A fired burn-rate alert is edge-triggered; with a flight
        // recorder attached it lands there and snapshots a postmortem so
        // the minutes before the burn are preserved.
        if let Some(t) = &mut self.tracer {
            let alert = t.slo.push(rec.delta.delivered, rec.delta.on_time);
            // The dashboard reads at human cadence, so the mirror only
            // refreshes every 8th slot (and instantly on an alert);
            // readers between refreshes see values at most 7 slots old.
            if alert.is_some() || t.slo.slots().is_multiple_of(8) {
                t.trace.mirror_slo(&t.slo);
            }
            if let (Some(a), Some(m)) = (alert, &self.metrics) {
                m.handle.record(ObsEvent::SloBurn {
                    slot,
                    fast_burn_milli: a.fast_burn_milli,
                    slow_burn_milli: a.slow_burn_milli,
                    hit_milli: a.hit_milli,
                    threshold_milli: a.threshold_milli,
                });
                let _ = m.handle.capture_postmortem(slot, "slo_burn");
            }
        }
        // Walk the slot's deliveries in the exact order they were
        // produced: each adds one histogram-bucket bump (a relaxed load +
        // store, no locked instruction), a plain compare for the running
        // max, and — on a miss of a live page — a DeadlineMiss event
        // staged for the batch below.
        if let Some(m) = &mut self.metrics {
            for d in &buf.deliveries {
                m.wait_hist.observe_bucket(d.wait);
                if d.wait > m.wait_max {
                    m.wait_max = d.wait;
                }
                if !d.within_deadline {
                    if let Some(expected) = catalogue.get(d.page) {
                        m.miss_scratch.push(ObsEvent::DeadlineMiss {
                            page: d.page.index(),
                            slot,
                            wait: d.wait,
                            expected,
                        });
                    }
                }
            }
        }
        rec.mark(); // deadline end

        // One recorder lock for the whole miss batch (none when it is
        // empty), then the stats-backed series — plain relaxed stores.
        if let Some(m) = &mut self.metrics {
            m.handle.record_batch(&mut m.miss_scratch);
            let up = channel_up.iter().filter(|&&u| u).count() as u64;
            m.sync_tick(stats, buf.mode.index(), up);
            m.arena_bytes.set(waits.arena_bytes());
        }
        // Sampled slot: close the pipeline, assemble the preorder span
        // tree, and fold it into the tracer — one lock for the whole slot.
        if rec.sampled {
            rec.mark(); // sync end
            let t = self.tracer.as_ref().expect("only a tracer samples");
            let epoch = t.trace.epoch();
            let ns = |i: Instant| i.duration_since(epoch).as_nanos() as u64;
            let marks = &rec.marks;
            let mut spans = Vec::with_capacity(PIPELINE.len() + 1);
            spans.push(SpanRec {
                kind: SpanKind::Slot(slot),
                depth: 0,
                start_ns: ns(marks[0]),
                dur_ns: ns(marks[PIPELINE.len()]) - ns(marks[0]),
            });
            for (i, phase) in PIPELINE.into_iter().enumerate() {
                spans.push(SpanRec {
                    kind: SpanKind::Phase(phase),
                    depth: 1,
                    start_ns: ns(marks[i]),
                    dur_ns: ns(marks[i + 1]) - ns(marks[i]),
                });
            }
            t.trace.commit_slot(SlotTrace { slot, spans });
        }
    }
}

impl Station {
    /// Attaches an observability handle: the station registers its metric
    /// series on `obs`'s registry and starts feeding the flight recorder.
    /// The serving-path series are single-writer mirrors of
    /// [`StationStats`], synced at attach and at every slot boundary, so
    /// they reflect the station's lifetime stats; the wait histogram
    /// buckets deliveries made from attach onward. Entering
    /// [`Mode::BestEffort`] or [`Mode::Offline`] from now on captures a
    /// black-box postmortem on the handle.
    ///
    /// The station must be the series' only writer: attach each station
    /// (and each clone of an instrumented station — clones share the
    /// handle) to its own `Obs`, or their absolute stores will clobber
    /// one another.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let mut metrics = Metrics::new(obs);
        metrics.base_delivered = self.stats.delivered;
        metrics.base_wait = self.stats.total_wait;
        metrics.mode.set(self.mode().index() as u64);
        metrics.sync_full(&self.stats, u64::from(self.channels_up()));
        metrics.arena_bytes.set(self.waits.arena_bytes());
        self.observer.get_or_insert_with(Observer::default).metrics = Some(metrics);
    }

    /// The attached observability handle, if any.
    #[must_use]
    pub fn obs(&self) -> Option<&Obs> {
        self.observer.as_ref()?.metrics.as_ref().map(|m| &m.handle)
    }

    /// Attaches an intra-slot tracing handle: the station starts pushing
    /// its deadline-hit ratio into the SLO tracker every tick and, on
    /// sampled slots (every `sample_every`-th per the trace's config),
    /// captures a full span tree of the tick pipeline into the handle's
    /// ring. Unsampled ticks never read the clock; see the crate docs of
    /// [`airsched_trace`] for the full cost model.
    ///
    /// When both a trace and an [`Obs`] handle are attached, a fired SLO
    /// burn-rate alert additionally records an
    /// [`ObsEvent::SloBurn`](airsched_obs::events::Event::SloBurn) and
    /// captures a postmortem on the obs handle.
    ///
    /// Like [`Station::attach_obs`], the station must be the handle's
    /// only writer.
    pub fn attach_trace(&mut self, trace: &Trace) {
        let tracer = Tracer {
            trace: trace.clone(),
            slo: SloTracker::new(trace.config().slo),
        };
        self.observer.get_or_insert_with(Observer::default).tracer = Some(tracer);
    }

    /// The attached tracing handle, if any.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.observer.as_ref()?.tracer.as_ref().map(|t| &t.trace)
    }

    /// A mutator's consume point: the observer replays the call's notes,
    /// then the record is cleared for the next call.
    pub(super) fn flush(&mut self) {
        if let Some(m) = self.observer.as_ref().and_then(|o| o.metrics.as_ref()) {
            m.replay(&self.record, self.time);
        }
        self.record.clear();
    }

    /// The tick's consume point, called once the clock has advanced:
    /// the observer replays the slot's notes and closes the slot (see
    /// the module docs for the order), then the record is cleared.
    #[inline]
    pub(super) fn flush_tick(&mut self, buf: &TickBuf) {
        if let Some(o) = &mut self.observer {
            if let Some(m) = &o.metrics {
                m.replay(&self.record, buf.time);
            }
            o.close_slot(
                &mut self.record,
                buf,
                &self.stats,
                self.scheduler.pages(),
                &self.waits,
                &self.channel_up,
            );
        }
        self.record.clear();
    }
}
