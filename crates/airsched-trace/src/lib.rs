//! Intra-slot phase tracing, Perfetto export, and SLO burn-rate alerting.
//!
//! The paper's guarantee is per-slot, but `airsched-obs` only sees
//! whole-tick aggregates.  This crate answers *where inside a slot time
//! goes*: a phase profiler over the slot pipeline (drain, deadline batch,
//! encode, transmit, journal, checkpoint), a sampled slot-trace ring
//! exported as Chrome trace-event JSON, and a rolling-window SLO tracker
//! with Prometheus-SRE-style multi-window burn alerting.
//!
//! # Cost model (same discipline as `airsched-obs`)
//!
//! A tick costs a few hundred nanoseconds (the `trace` rows of
//! `BENCH_station.json`, written by `station_perf`, give the plain rate
//! and the tax of each state below), so a pair of `Instant::now` calls
//! per phase would be a measurable tax.  The contract is therefore:
//!
//! - **Detached** (no [`Trace`] handle): instrumentation is a dormant
//!   branch per phase boundary — no clocks, no allocation.
//! - **Attached, unsampled slot**: SLO window arithmetic plus relaxed
//!   atomic mirrors only; still no clocks and no span allocation.
//! - **Attached, sampled slot** (every `sample_every`-th): boundary
//!   clocks are read, a span tree is allocated, and one mutex lock folds
//!   it into the histograms and ring.
//!
//! Phase histograms therefore contain *systematically sampled* slots.
//! This trades statistical coverage for a hard bound on hot-path cost —
//! the `station_perf` `trace` rows measure the residue.
//!
//! # Determinism
//!
//! Everything derived from the simulation (span structure, SLO state,
//! alert slots) is bit-deterministic; wall-clock `ts`/`dur` values are
//! the documented exception, and the exporter's normalized mode removes
//! them (see [`span`]).

pub mod dash;
pub mod phase;
pub mod slo;
pub mod span;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use airsched_obs::hist::LogHistogram;

pub use dash::{render_json, render_text, DashContext, PhaseSnap, TraceSnapshot};
pub use phase::{Phase, PHASE_COUNT};
pub use slo::{SloBurnAlert, SloConfig, SloTracker};
pub use span::{SlotRing, SlotTrace, SpanKind, SpanRec};

/// How many recent sampled durations each phase keeps for sparklines.
const RECENT_CAP: usize = 32;

/// Tracer configuration: sampling period, ring size, SLO targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capture the span tree of every Nth slot (0 disables span capture
    /// entirely; SLO tracking still runs every slot).
    pub sample_every: u64,
    /// How many sampled slot trees the ring retains.
    pub ring_capacity: usize,
    /// SLO targets and burn thresholds.
    pub slo: SloConfig,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 32,
            ring_capacity: 64,
            slo: SloConfig::default(),
        }
    }
}

/// Mutex-guarded tracer state, locked only on sampled slots and reads.
#[derive(Debug)]
struct TraceState {
    phase_hist: Vec<LogHistogram>,
    phase_recent: Vec<VecDeque<u64>>,
    ring: SlotRing,
}

#[derive(Debug)]
struct TraceInner {
    config: TraceConfig,
    epoch: Instant,
    state: Mutex<TraceState>,
    // Relaxed dashboard mirrors, written by the single station writer
    // every tick so `airsched top` can read without taking the lock.
    slots: AtomicU64,
    sampled: AtomicU64,
    // SLO window sums are mirrored raw (delivered / on-time per window);
    // ratios are computed at read time so the per-tick mirror never
    // divides.
    fast_delivered: AtomicU64,
    fast_on_time: AtomicU64,
    slow_delivered: AtomicU64,
    slow_on_time: AtomicU64,
    burns: AtomicU64,
}

/// Shared tracer handle (clone freely; all clones observe one state).
///
/// Like `Obs`, the write side assumes a single station writer per
/// handle; attach a distinct `Trace` to each station.
#[derive(Debug, Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(TraceConfig::default())
    }
}

impl Trace {
    /// Creates a tracer; the creation instant becomes the span epoch.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        let state = TraceState {
            phase_hist: vec![LogHistogram::new(); PHASE_COUNT],
            phase_recent: vec![VecDeque::with_capacity(RECENT_CAP); PHASE_COUNT],
            ring: SlotRing::new(config.ring_capacity),
        };
        Trace {
            inner: Arc::new(TraceInner {
                config,
                epoch: Instant::now(),
                state: Mutex::new(state),
                slots: AtomicU64::new(0),
                sampled: AtomicU64::new(0),
                fast_delivered: AtomicU64::new(0),
                fast_on_time: AtomicU64::new(0),
                slow_delivered: AtomicU64::new(0),
                slow_on_time: AtomicU64::new(0),
                burns: AtomicU64::new(0),
            }),
        }
    }

    /// The configuration this tracer was built with.
    #[must_use]
    pub fn config(&self) -> TraceConfig {
        self.inner.config
    }

    /// Whether `slot`'s span tree should be captured.
    #[must_use]
    pub fn sample_due(&self, slot: u64) -> bool {
        let n = self.inner.config.sample_every;
        n != 0 && slot.is_multiple_of(n)
    }

    /// Nanoseconds elapsed since the tracer's epoch (span timestamps).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// The instant span timestamps are measured from. Instrumented code
    /// that reads its own `Instant`s anchors them here so the offsets
    /// line up with [`Trace::now_ns`].
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// Folds a captured span tree into the phase histograms and the
    /// ring.  One lock per sampled slot.
    pub fn commit_slot(&self, tree: SlotTrace) {
        let mut state = self.lock();
        for span in &tree.spans {
            if let SpanKind::Phase(p) = span.kind {
                Self::note_phase(&mut state, p, span.dur_ns);
            }
        }
        state.ring.push(tree);
        drop(state);
        self.inner.sampled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a single phase duration for `slot` from an out-of-station
    /// producer (broadcaster encode/transmit, journal, checkpoint);
    /// appends a depth-1 span to that slot's tree.
    pub fn record_phase(&self, slot: u64, phase: Phase, start_ns: u64, dur_ns: u64) {
        let mut state = self.lock();
        Self::note_phase(&mut state, phase, dur_ns);
        state.ring.push_span(
            slot,
            SpanRec {
                kind: SpanKind::Phase(phase),
                depth: 1,
                start_ns,
                dur_ns,
            },
        );
    }

    fn note_phase(state: &mut TraceState, phase: Phase, dur_ns: u64) {
        let i = phase.index();
        state.phase_hist[i].record(dur_ns);
        let recent = &mut state.phase_recent[i];
        if recent.len() == RECENT_CAP {
            recent.pop_front();
        }
        recent.push_back(dur_ns);
    }

    /// Mirrors the station-owned [`SloTracker`] into the relaxed
    /// dashboard atomics; called once per tick by the single writer.
    /// Only raw window sums cross here — no ratio is computed, so the
    /// per-tick cost is six relaxed stores.
    pub fn mirror_slo(&self, slo: &SloTracker) {
        let i = &self.inner;
        i.slots.store(slo.slots(), Ordering::Relaxed);
        let (fast_del, fast_on) = slo.fast_sums();
        let (slow_del, slow_on) = slo.slow_sums();
        i.fast_delivered.store(fast_del, Ordering::Relaxed);
        i.fast_on_time.store(fast_on, Ordering::Relaxed);
        i.slow_delivered.store(slow_del, Ordering::Relaxed);
        i.slow_on_time.store(slow_on, Ordering::Relaxed);
        i.burns.store(slo.burns(), Ordering::Relaxed);
    }

    /// Point-in-time copy of everything the tracer knows.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let state = self.lock();
        let phases = Phase::ALL
            .iter()
            .filter_map(|&p| {
                let h = &state.phase_hist[p.index()];
                if h.count() == 0 {
                    return None;
                }
                Some(PhaseSnap {
                    phase: p,
                    count: h.count(),
                    mean_ns: h.mean() as u64,
                    p50_ns: h.quantile(0.5).unwrap_or(0),
                    p95_ns: h.quantile(0.95).unwrap_or(0),
                    max_ns: h.max(),
                    recent: state.phase_recent[p.index()].iter().copied().collect(),
                })
            })
            .collect();
        drop(state);
        let i = &self.inner;
        // Ratios are derived here, on the read side, from the mirrored
        // raw sums — the same integer formulas the tracker uses.
        let hit = |delivered: u64, on_time: u64| {
            if on_time == delivered {
                1000
            } else {
                on_time * 1000 / delivered
            }
        };
        let budget = (1000 - i.config.slo.target_milli.min(1000)).max(1);
        let burn = |hit_milli: u64| (1000 - hit_milli) * 1000 / budget;
        let fast_hit = hit(
            i.fast_delivered.load(Ordering::Relaxed),
            i.fast_on_time.load(Ordering::Relaxed),
        );
        let slow_hit = hit(
            i.slow_delivered.load(Ordering::Relaxed),
            i.slow_on_time.load(Ordering::Relaxed),
        );
        TraceSnapshot {
            slots: i.slots.load(Ordering::Relaxed),
            sampled: i.sampled.load(Ordering::Relaxed),
            sample_every: i.config.sample_every,
            fast_hit_milli: fast_hit,
            slow_hit_milli: slow_hit,
            fast_burn_milli: burn(fast_hit),
            slow_burn_milli: burn(slow_hit),
            slo_burns: i.burns.load(Ordering::Relaxed),
            phases,
        }
    }

    /// Exports the captured ring as Chrome trace-event JSON; `normalize`
    /// replaces wall-clock timestamps with deterministic synthetic ones
    /// (see [`span::render_chrome`]).
    #[must_use]
    pub fn render_chrome(&self, normalize: bool) -> String {
        let state = self.lock();
        let trees: Vec<SlotTrace> = state.ring.iter().cloned().collect();
        drop(state);
        span::render_chrome(&trees, self.inner.config.sample_every, normalize)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(slot: u64, drain_ns: u64) -> SlotTrace {
        let spans = vec![
            SpanRec {
                kind: SpanKind::Slot(slot),
                depth: 0,
                start_ns: 0,
                dur_ns: drain_ns + 100,
            },
            SpanRec {
                kind: SpanKind::Phase(Phase::Drain),
                depth: 1,
                start_ns: 10,
                dur_ns: drain_ns,
            },
        ];
        SlotTrace { slot, spans }
    }

    #[test]
    fn sampling_schedule() {
        let t = Trace::new(TraceConfig {
            sample_every: 8,
            ..TraceConfig::default()
        });
        assert!(t.sample_due(0));
        assert!(!t.sample_due(7));
        assert!(t.sample_due(8));
        let off = Trace::new(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        assert!(!off.sample_due(0));
    }

    #[test]
    fn commit_updates_phase_histograms() {
        let t = Trace::default();
        t.commit_slot(tree(0, 1000));
        t.commit_slot(tree(32, 2000));
        let snap = t.snapshot();
        assert_eq!(snap.sampled, 2);
        let drain = snap
            .phases
            .iter()
            .find(|p| p.phase == Phase::Drain)
            .unwrap();
        assert_eq!(drain.count, 2);
        assert_eq!(drain.max_ns, 2000);
        assert_eq!(drain.recent, vec![1000, 2000]);
    }

    #[test]
    fn record_phase_reaches_ring_and_histogram() {
        let t = Trace::default();
        t.commit_slot(tree(0, 500));
        t.record_phase(0, Phase::Journal, 600, 50);
        t.record_phase(64, Phase::Checkpoint, 700, 90);
        let doc = t.render_chrome(true);
        assert!(doc.contains("\"name\":\"journal\""));
        assert!(doc.contains("\"name\":\"checkpoint\""));
        let snap = t.snapshot();
        assert!(snap.phases.iter().any(|p| p.phase == Phase::Journal));
    }

    #[test]
    fn mirror_slo_feeds_snapshot() {
        let t = Trace::default();
        let mut slo = SloTracker::new(t.config().slo);
        for _ in 0..100 {
            slo.push(10, 9);
        }
        t.mirror_slo(&slo);
        let snap = t.snapshot();
        assert_eq!(snap.slots, 100);
        assert_eq!(snap.fast_hit_milli, 900);
        assert!(snap.fast_burn_milli >= 1000);
    }
}
