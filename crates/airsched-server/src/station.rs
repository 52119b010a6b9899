//! The broadcast station: a live server over an always-valid schedule,
//! hardened against channel failure.
//!
//! [`Station`] glues the pieces of the reproduction into the long-running
//! process a deployment would actually operate:
//!
//! * a catalogue managed through [`Station::publish`] / [`Station::expire`]
//!   (backed by [`airsched_core::dynamic::OnlineScheduler`], so the
//!   schedule stays valid through every change, compacting when needed);
//! * client subscriptions ([`Station::subscribe`]) that are delivered the
//!   moment their page airs;
//! * a slot clock driven by [`Station::tick`], each tick transmitting one
//!   column of the program and returning the deliveries it caused — with
//!   an allocation-free sibling [`Station::tick_into`] that reuses one
//!   [`TickBuf`] across slots, and [`Station::run_with`] streaming
//!   deliveries through a callback for long runs;
//! * live statistics ([`Station::stats`]): waits, deadline hits, backlog,
//!   failovers and per-mode delivery tallies.
//!
//! ## The degradation ladder
//!
//! Transmitters fail. The station reacts by walking a ladder of
//! [`Mode`]s, re-planning the *same* catalogue onto the surviving
//! channels and preserving every in-flight subscription:
//!
//! * **[`Mode::Valid`]** — all channels up; the primary always-valid
//!   program airs.
//! * **[`Mode::Repacked`]** — some channels down, but the survivors still
//!   meet Theorem 3.1's minimum
//!   ([`airsched_core::bound::minimum_channels_for_times`]); the
//!   catalogue is re-packed into a *valid* program on the survivors via
//!   SUSC ([`OnlineScheduler::rebuild_on_channels`]).
//! * **[`Mode::BestEffort`]** — survivors fall below the minimum; no
//!   valid program exists, so the station fails over to PAMAD
//!   ([`airsched_core::degrade::replan`]) and spreads the unavoidable
//!   delay evenly.
//! * **[`Mode::Offline`]** — nothing left to transmit with.
//!
//! Recovery climbs back up the same ladder. Faults arrive either from a
//! deterministic [`FaultInjector`] (attached with
//! [`Station::with_faults`]) or from the manual
//! [`Station::fail_channel`] / [`Station::restore_channel`] API; a
//! [`HealthMonitor`] watches windowed error/stall rates on top and
//! surfaces typed [`ChannelEvent`]s through every tick.
//!
//! ## The pre-swap lint gate
//!
//! Before any replan candidate reaches the air it is linted
//! ([`airsched_lint`]) against the live catalogue: re-pack candidates
//! under the full rule set, best-effort candidates under
//! [`LintConfig::structural`]. A deny-level diagnostic refuses the swap —
//! the previous program keeps serving and
//! [`StationStats::plan_rejections`] records the refusal; warn-level
//! diagnostics are tallied in [`StationStats::plan_warnings`]. Operators
//! can dry-run the same check with [`Station::propose_plan`], and chaos
//! tests corrupt candidates upstream of the gate with
//! [`Station::set_plan_corruptor`]. With [`Station::set_deep_verify`] on,
//! re-pack candidates are additionally certified by the
//! difference-constraint solver ([`airsched_solve::check_observed`]) —
//! an independent derivation of the same deadline semantics whose
//! refusals carry machine-checkable certificates and are tallied in
//! [`StationStats::solve_rejections`].
//!
//! ## Observability
//!
//! [`Station::attach_obs`] hooks an [`airsched_obs::Obs`] handle into the
//! serving loop: per-mode delivery counters, a wait histogram, channel
//! health / mode-change / plan-gate flight-recorder events, and an
//! automatic black-box postmortem whenever the ladder drops onto
//! [`Mode::BestEffort`] or [`Mode::Offline`]. The handle is optional — a
//! station built without one behaves exactly as before, and the hot path
//! pays only relaxed atomic adds when one is attached (see DESIGN.md §10
//! for the metric schema).

use std::collections::BTreeMap;
use std::time::Instant;

use airsched_core::bound::minimum_channels_for_times;
use airsched_core::degrade;
use airsched_core::dynamic::{OnlineScheduler, SchedulerSnapshot};
use airsched_core::error::ScheduleError;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};

use airsched_lint::{lint, LintConfig, LintInput, LintReport, Severity};

use airsched_obs::events::{Event as ObsEvent, HealthTransition};
use airsched_obs::metrics::{Counter, Gauge, Histogram};
use airsched_obs::Obs;

use crate::faults::{FaultInjector, FaultInjectorSnapshot, FaultPlan, SlotFaults};
use crate::health::{
    ChannelEvent, HealthMonitor, HealthSnapshot, HealthThresholds, SlotObservation,
};
use airsched_trace::{Phase, SloTracker, SlotTrace, SpanKind, SpanRec, Trace};

use crate::waiting::{DrainDelta, WaitingSet};

/// A hook that mutates replan candidates before the lint gate sees them —
/// the chaos-engineering analogue of the [`FaultInjector`]: it simulates a
/// corrupted replan pipeline rather than a failed transmitter. A plain
/// function pointer so the station stays `Clone` and `Debug`.
pub type PlanCorruptor = fn(&BroadcastProgram) -> BroadcastProgram;

/// Identifier of a subscribed client, unique within one station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(u64);

impl ClientId {
    /// The raw numeric id. Ids are assigned from a per-station counter
    /// that snapshot/restore preserves, so the recovery journal can
    /// assert that a replayed subscription receives the original id.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value — the waiting-set arenas store
    /// clients as bare `u64` columns.
    pub(crate) const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl core::fmt::Display for ClientId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// One delivery produced by a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Who was served.
    pub client: ClientId,
    /// The page they waited for.
    pub page: PageId,
    /// Whole slots from subscription to full reception.
    pub wait: u64,
    /// Whether the wait stayed within the page's expected time.
    pub within_deadline: bool,
}

/// Where the station currently sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// All channels up; the primary always-valid program is on the air.
    Valid,
    /// Channels lost, but the survivors meet the catalogue's minimum: a
    /// SUSC re-pack keeps the program valid.
    Repacked,
    /// Survivors are below the minimum: PAMAD best-effort, deadlines no
    /// longer guaranteed.
    BestEffort,
    /// No channels up (or no plan possible): nothing transmits.
    Offline,
}

impl Mode {
    /// Whether the station still *guarantees* every expected time (the
    /// valid rungs of the ladder: [`Mode::Valid`] and [`Mode::Repacked`]).
    #[must_use]
    pub fn is_valid(self) -> bool {
        matches!(self, Self::Valid | Self::Repacked)
    }

    /// Stable lowercase name, used in metric labels and event fields.
    #[must_use]
    pub fn name(self) -> &'static str {
        MODE_NAMES[self.index()]
    }

    fn index(self) -> usize {
        match self {
            Self::Valid => 0,
            Self::Repacked => 1,
            Self::BestEffort => 2,
            Self::Offline => 3,
        }
    }
}

/// Mode names indexed by [`Mode::index`].
const MODE_NAMES: [&str; 4] = ["valid", "repacked", "best-effort", "offline"];

impl core::fmt::Display for Mode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rungs of the degradation ladder the station may use.
///
/// Both rungs default to enabled. Disabling `repack` makes any channel
/// loss fail straight over to best-effort; disabling `best_effort` makes
/// an under-minimum station go offline instead of airing a non-valid
/// program (with an empty catalogue this also skips the trivial re-pack,
/// so the station reports offline until channels return).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DegradationPolicy {
    /// Allow the SUSC re-pack rung ([`Mode::Repacked`]).
    pub repack: bool,
    /// Allow the PAMAD rung ([`Mode::BestEffort`]).
    pub best_effort: bool,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self {
            repack: true,
            best_effort: true,
        }
    }
}

/// Deliveries attributed to one [`Mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ModeTally {
    /// Deliveries made while the station was in this mode.
    pub delivered: u64,
    /// Of those, deliveries within the page's expected time.
    pub on_time: u64,
}

impl ModeTally {
    /// Fraction of this mode's deliveries that met their deadline (1.0
    /// when the mode delivered nothing).
    #[must_use]
    pub fn on_time_rate(&self) -> f64 {
        if self.delivered == 0 {
            1.0
        } else {
            self.on_time as f64 / self.delivered as f64
        }
    }
}

/// What one slot of air time did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickOutcome {
    /// The slot that just finished transmitting.
    pub time: u64,
    /// The degradation-ladder mode the slot was transmitted in.
    pub mode: Mode,
    /// Pages on the air this slot, by physical channel (`None` = idle or
    /// down carrier).
    pub on_air: Vec<Option<PageId>>,
    /// Per physical channel: the frame aired but went out corrupted (its
    /// page shows in `on_air` yet nobody could receive it).
    pub corrupted: Vec<bool>,
    /// Clients served this slot.
    pub deliveries: Vec<Delivery>,
    /// Channel health transitions that surfaced this slot.
    pub events: Vec<ChannelEvent>,
}

/// Reusable scratch for [`Station::tick_into`]: every buffer one slot of
/// air time needs, retained across slots so steady-state ticking performs
/// no heap allocation at all.
///
/// Create one with [`TickBuf::default`], hand it to `tick_into` every
/// slot, and read the slot's results through the accessors — or snapshot
/// them as a [`TickOutcome`] with [`TickBuf::to_outcome`] /
/// [`TickBuf::into_outcome`].
#[derive(Debug, Clone)]
pub struct TickBuf {
    time: u64,
    mode: Mode,
    on_air: Vec<Option<PageId>>,
    corrupted: Vec<bool>,
    deliveries: Vec<Delivery>,
    events: Vec<ChannelEvent>,
    /// Scratch for the fault injector's per-slot output.
    faults: SlotFaults,
    /// Whether `faults` was filled this slot (no injector = no faults, and
    /// the tick path skips the per-channel fault flags entirely).
    have_faults: bool,
}

impl Default for TickBuf {
    fn default() -> Self {
        Self {
            time: 0,
            mode: Mode::Valid,
            on_air: Vec::new(),
            corrupted: Vec::new(),
            deliveries: Vec::new(),
            events: Vec::new(),
            faults: SlotFaults::empty(),
            have_faults: false,
        }
    }
}

impl TickBuf {
    /// An empty scratch buffer (same as [`TickBuf::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot the last `tick_into` transmitted.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The degradation-ladder mode that slot aired in.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Pages on the air, by physical channel (`None` = idle or down).
    #[must_use]
    pub fn on_air(&self) -> &[Option<PageId>] {
        &self.on_air
    }

    /// Per physical channel: the frame aired but went out corrupted.
    #[must_use]
    pub fn corrupted(&self) -> &[bool] {
        &self.corrupted
    }

    /// Clients served by the slot.
    #[must_use]
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Channel health transitions that surfaced during the slot.
    #[must_use]
    pub fn events(&self) -> &[ChannelEvent] {
        &self.events
    }

    /// Clones the slot's results into an owned [`TickOutcome`].
    #[must_use]
    pub fn to_outcome(&self) -> TickOutcome {
        TickOutcome {
            time: self.time,
            mode: self.mode,
            on_air: self.on_air.clone(),
            corrupted: self.corrupted.clone(),
            deliveries: self.deliveries.clone(),
            events: self.events.clone(),
        }
    }

    /// Moves the slot's results into an owned [`TickOutcome`].
    #[must_use]
    pub fn into_outcome(self) -> TickOutcome {
        TickOutcome {
            time: self.time,
            mode: self.mode,
            on_air: self.on_air,
            corrupted: self.corrupted,
            deliveries: self.deliveries,
            events: self.events,
        }
    }
}

/// Aggregate station statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StationStats {
    /// Slots ticked so far.
    pub slots_elapsed: u64,
    /// Total deliveries.
    pub delivered: u64,
    /// Deliveries within their page's expected time.
    pub on_time: u64,
    /// Sum of delivery waits (for the mean).
    pub total_wait: u64,
    /// Clients currently waiting.
    pub waiting: u64,
    /// Transitions onto the best-effort (PAMAD) rung.
    pub failovers: u64,
    /// Transitions onto the re-packed (reduced-channel SUSC) rung.
    pub repacks: u64,
    /// Climbs back to [`Mode::Valid`] after a degraded spell.
    pub recoveries: u64,
    /// Slots spent in any mode other than [`Mode::Valid`].
    pub degraded_slots: u64,
    /// Replan candidates the pre-swap lint gate refused to install
    /// (deny-level diagnostics).
    pub plan_rejections: u64,
    /// Warn-level lint diagnostics observed across gated candidates.
    pub plan_warnings: u64,
    /// Re-pack candidates the deep-verify solver gate refused: the
    /// difference-constraint oracle ([`airsched_solve::check_observed`])
    /// produced an infeasibility certificate for the candidate against
    /// the live catalogue. Zero unless [`Station::set_deep_verify`] is
    /// on.
    pub solve_rejections: u64,
    /// Degradation-ladder mode transitions in either direction (the sum
    /// of `failovers + repacks + recoveries + drops to offline`) — the
    /// counter twin of the flight recorder's `ModeChange` event stream,
    /// so the two can be cross-checked.
    pub mode_changes: u64,
    /// Slot of the most recent mode transition, `None` while the station
    /// has never left its initial mode.
    pub last_mode_change_slot: Option<u64>,
    per_mode: [ModeTally; 4],
}

impl StationStats {
    /// Mean wait per delivery, in slots (0 when nothing delivered).
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.delivered as f64
        }
    }

    /// Fraction of deliveries within the expected time (1.0 when none).
    #[must_use]
    pub fn on_time_rate(&self) -> f64 {
        if self.delivered == 0 {
            1.0
        } else {
            self.on_time as f64 / self.delivered as f64
        }
    }

    /// Delivery tally attributed to `mode`.
    #[must_use]
    pub fn per_mode(&self, mode: Mode) -> ModeTally {
        self.per_mode[mode.index()]
    }

    /// All four per-mode tallies, in ladder order (valid, repacked,
    /// best-effort, offline) — the checkpoint encoder's read path.
    #[must_use]
    pub fn mode_tallies(&self) -> [ModeTally; 4] {
        self.per_mode
    }

    /// Replaces the per-mode tallies — the checkpoint decoder's write
    /// path, paired with [`StationStats::mode_tallies`].
    pub fn set_mode_tallies(&mut self, tallies: [ModeTally; 4]) {
        self.per_mode = tallies;
    }
}

/// Errors specific to station operation (scheduling errors pass through
/// as [`ScheduleError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StationError {
    /// The page is not in the catalogue.
    UnknownPage {
        /// The missing page.
        page: PageId,
    },
    /// Admission failed even after compaction: the catalogue no longer
    /// fits the channel budget.
    CapacityExhausted {
        /// The page that could not be admitted.
        page: PageId,
    },
    /// An underlying scheduling error.
    Schedule(ScheduleError),
    /// A [`StationSnapshot`] could not be turned back into a station
    /// (internally inconsistent — a corrupt or truncated checkpoint).
    CorruptSnapshot {
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl core::fmt::Display for StationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownPage { page } => write!(f, "{page} is not in the catalogue"),
            Self::CapacityExhausted { page } => write!(
                f,
                "cannot admit {page}: catalogue exceeds the channel budget"
            ),
            Self::Schedule(e) => write!(f, "{e}"),
            Self::CorruptSnapshot { reason } => {
                write!(f, "cannot restore station snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for StationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for StationError {
    fn from(e: ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

/// The program actually on the air, as chosen by the degradation ladder.
#[derive(Debug, Clone)]
enum ActivePlan {
    /// The primary scheduler's program across all configured channels.
    Full,
    /// A valid SUSC re-pack onto the surviving channels.
    Reduced(BroadcastProgram),
    /// A PAMAD best-effort plan onto the surviving channels.
    BestEffort(BroadcastProgram),
    /// Nothing transmits.
    Offline,
}

/// Replan stage names indexed by the `STAGE_*` constants below.
const STAGE_NAMES: [&str; 3] = ["repack", "pamad", "solve"];
const STAGE_REPACK: usize = 0;
const STAGE_PAMAD: usize = 1;
const STAGE_SOLVE: usize = 2;

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

/// Pre-registered metric handles for one instrumented station.
///
/// The serving-path series are **single-writer mirrors** of
/// [`StationStats`]: the tick loop does no per-delivery atomic
/// read-modify-write at all. Deliveries bump only their wait bucket
/// (one relaxed load + store on the station's own histogram), and the
/// end of each tick re-stores the scalar series straight from the stats
/// the uninstrumented loop maintains anyway — a handful of plain relaxed
/// stores, no locked instructions. This is what keeps the instrumented
/// station within a few percent of the plain one. Rare-path series
/// (mode changes, plan verdicts, health transitions, replans, fault
/// frames) stay `inc`/`add` at their event sites so they are exact even
/// between ticks.
#[derive(Debug, Clone)]
struct StationObs {
    obs: Obs,
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
    replan_runs: [Counter; 3],
    replan_evals: [Counter; 3],
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

impl StationObs {
    fn new(obs: &Obs) -> Self {
        let reg = obs.registry();
        Self {
            obs: obs.clone(),
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
    /// [`StationObs::sync_tick`].
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
    /// counters (`mode_changes`, plan verdicts, health, replans, fault
    /// frames) are `inc`ed at their event sites, and everything else here
    /// is one relaxed store — so the registry equals the stats at every
    /// slot boundary without a single locked instruction in the tick.
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

    /// Mirrors one health [`ChannelEvent`] into the counter and event
    /// streams. Called at the event's creation site, *before* any replan
    /// it triggers, so a postmortem always shows the cause ahead of the
    /// `ModeChange` it led to.
    fn record_channel_event(&self, event: &ChannelEvent) {
        let (channel, at, transition) = match *event {
            ChannelEvent::Down { channel, at } => (channel, at, HealthTransition::Down),
            ChannelEvent::Up { channel, at } => (channel, at, HealthTransition::Up),
            ChannelEvent::Degraded { channel, at, .. } => (channel, at, HealthTransition::Degraded),
            ChannelEvent::Healthy { channel, at } => (channel, at, HealthTransition::Healthy),
        };
        self.health_transitions[transition_index(transition)].inc();
        self.obs.record(ObsEvent::ChannelHealth {
            ch: channel.index(),
            slot: at,
            transition,
        });
    }
}

/// Intra-slot tracing state for one instrumented station.
///
/// Cost discipline mirrors [`StationObs`]: the SLO tracker runs every
/// tick (integer arithmetic plus a handful of relaxed stores), but the
/// clock is read and spans are built **only on sampled slots** — every
/// `sample_every`-th tick per [`airsched_trace::TraceConfig`]. An
/// unsampled tick takes one dormant branch per phase boundary and never
/// calls `Instant::now`.
#[derive(Debug, Clone)]
struct StationTrace {
    trace: Trace,
    /// Deadline-hit SLO over rolling windows; pushed every tick.
    slo: SloTracker,
    /// Boundary timestamps for the current sampled slot. Taken with
    /// `mem::take` at tick start so the borrow of `self` stays free;
    /// empty on unsampled ticks.
    marks: Vec<Instant>,
}

impl StationTrace {
    fn new(trace: &Trace) -> Self {
        Self {
            trace: trace.clone(),
            slo: SloTracker::new(trace.config().slo),
            marks: Vec::with_capacity(8),
        }
    }
}

/// A live broadcast station.
///
/// # Examples
///
/// ```
/// use airsched_core::types::PageId;
/// use airsched_server::station::Station;
///
/// let mut station = Station::new(2, 8)?;
/// station.publish(PageId::new(0), 2)?;
/// station.publish(PageId::new(1), 4)?;
/// let client = station.subscribe(PageId::new(0))?;
///
/// // The page airs every 2 slots, so the client is served within 2 ticks.
/// let mut served = false;
/// for _ in 0..2 {
///     let tick = station.tick();
///     if tick.deliveries.iter().any(|d| d.client == client) {
///         served = true;
///         break;
///     }
/// }
/// assert!(served);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Station {
    scheduler: OnlineScheduler,
    time: u64,
    /// Waiting clients and the catalogue's dense expected-time mirror, in
    /// struct-of-arrays form (see the `waiting` module and
    /// DESIGN.md §12). Spans are emptied in place rather than freed, so
    /// steady-state ticking reuses their capacity.
    waits: WaitingSet,
    /// Bumped whenever the effective on-air grid may change (publish,
    /// expire, any ladder re-evaluation); frame-template caches key
    /// their validity on it. Not snapshotted: a restored station
    /// restarts at 0 with a fresh [`crate::SlotBroadcaster`].
    plan_epoch: u64,
    next_client: u64,
    stats: StationStats,
    /// Physical channel up/down state; length is the configured count.
    channel_up: Vec<bool>,
    injector: Option<FaultInjector>,
    health: HealthMonitor,
    policy: DegradationPolicy,
    mode: Mode,
    active: ActivePlan,
    /// Events produced outside `tick` (manual fail/restore), surfaced on
    /// the next tick.
    pending_events: Vec<ChannelEvent>,
    /// Chaos hook: mutates replan candidates before the lint gate.
    corruptor: Option<PlanCorruptor>,
    /// When on, every re-pack candidate is additionally certified by the
    /// difference-constraint solver (see the pre-swap gate docs above).
    /// Execution configuration, not serving state: never snapshotted.
    deep_verify: bool,
    /// Optional observability wiring; `None` keeps the exact
    /// uninstrumented behavior.
    obs: Option<StationObs>,
    /// Optional intra-slot tracing wiring; `None` skips even the dormant
    /// phase-boundary branches. Execution configuration like
    /// `deep_verify`: never snapshotted.
    trace: Option<StationTrace>,
}

impl Station {
    /// Creates a station with `channels` transmitters and a `cycle`-slot
    /// schedule (the largest expected time it will accept).
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] for a zero channel count or cycle.
    pub fn new(channels: u32, cycle: u64) -> Result<Self, StationError> {
        Ok(Self {
            scheduler: OnlineScheduler::new(channels, cycle)?,
            time: 0,
            waits: WaitingSet::new(),
            plan_epoch: 0,
            next_client: 0,
            stats: StationStats::default(),
            channel_up: vec![true; channels as usize],
            injector: None,
            health: HealthMonitor::new(channels, HealthThresholds::default()),
            policy: DegradationPolicy::default(),
            mode: Mode::Valid,
            active: ActivePlan::Full,
            pending_events: Vec::new(),
            corruptor: None,
            deep_verify: false,
            obs: None,
            trace: None,
        })
    }

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
        let mut wired = StationObs::new(obs);
        wired.base_delivered = self.stats.delivered;
        wired.base_wait = self.stats.total_wait;
        wired.mode.set(self.mode.index() as u64);
        wired.sync_full(&self.stats, u64::from(self.channels_up()));
        wired.arena_bytes.set(self.waits.arena_bytes());
        self.obs = Some(wired);
    }

    /// The attached observability handle, if any.
    #[must_use]
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref().map(|o| &o.obs)
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
        self.trace = Some(StationTrace::new(trace));
    }

    /// The attached tracing handle, if any.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref().map(|t| &t.trace)
    }

    /// Creates a station with a [`FaultPlan`] attached: every tick first
    /// asks the plan's injector what broke this slot.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] for a zero channel count or cycle.
    pub fn with_faults(channels: u32, cycle: u64, plan: &FaultPlan) -> Result<Self, StationError> {
        let mut station = Self::new(channels, cycle)?;
        station.set_fault_plan(plan);
        Ok(station)
    }

    /// Attaches (or replaces) the fault plan mid-run. The injector starts
    /// from the station's *current* channel state.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        let channels = u32::try_from(self.channel_up.len()).expect("channel count fits in u32");
        let mut injector = FaultInjector::new(plan, channels);
        for (ch, &up) in self.channel_up.iter().enumerate() {
            if !up {
                injector.force_down(ChannelId::new(u32::try_from(ch).expect("fits in u32")));
            }
        }
        self.injector = Some(injector);
    }

    /// Replaces the health thresholds, resetting all health windows.
    pub fn set_health_thresholds(&mut self, thresholds: HealthThresholds) {
        let channels = u32::try_from(self.channel_up.len()).expect("channel count fits in u32");
        self.health = HealthMonitor::new(channels, thresholds);
    }

    /// Replaces the degradation policy and immediately re-evaluates the
    /// ladder under it.
    pub fn set_degradation_policy(&mut self, policy: DegradationPolicy) {
        self.policy = policy;
        self.refresh_plan("policy");
    }

    /// The active degradation policy.
    #[must_use]
    pub fn degradation_policy(&self) -> DegradationPolicy {
        self.policy
    }

    /// The current slot clock.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Live statistics.
    #[must_use]
    pub fn stats(&self) -> StationStats {
        self.stats
    }

    /// The current degradation-ladder mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The per-channel health monitor.
    #[must_use]
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// How many channels are currently up.
    #[must_use]
    pub fn channels_up(&self) -> u32 {
        u32::try_from(self.channel_up.iter().filter(|&&u| u).count()).expect("fits in u32")
    }

    /// Whether `channel` is currently up (out-of-range channels are not).
    #[must_use]
    pub fn is_channel_up(&self, channel: ChannelId) -> bool {
        self.channel_up
            .get(channel.index() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The current catalogue: page → expected time.
    #[must_use]
    pub fn catalogue(&self) -> &BTreeMap<PageId, u64> {
        self.scheduler.pages()
    }

    /// Manually fails a channel (e.g. an operator pulling a transmitter),
    /// re-evaluating the degradation ladder. Returns the resulting mode.
    /// A no-op for channels already down or out of range.
    pub fn fail_channel(&mut self, channel: ChannelId) -> Mode {
        let ch = channel.index() as usize;
        if ch < self.channel_up.len() && self.channel_up[ch] {
            self.channel_up[ch] = false;
            if let Some(injector) = &mut self.injector {
                injector.force_down(channel);
            }
            let event = ChannelEvent::Down {
                channel,
                at: self.time,
            };
            if let Some(o) = &self.obs {
                o.record_channel_event(&event);
            }
            self.pending_events.push(event);
            self.refresh_plan("channel_down");
        }
        self.mode
    }

    /// Manually restores a channel, climbing back up the ladder. Returns
    /// the resulting mode. A no-op for channels already up or out of
    /// range.
    pub fn restore_channel(&mut self, channel: ChannelId) -> Mode {
        let ch = channel.index() as usize;
        if ch < self.channel_up.len() && !self.channel_up[ch] {
            self.channel_up[ch] = true;
            if let Some(injector) = &mut self.injector {
                injector.force_up(channel);
            }
            self.health.reset(channel);
            let event = ChannelEvent::Up {
                channel,
                at: self.time,
            };
            if let Some(o) = &self.obs {
                o.record_channel_event(&event);
            }
            self.pending_events.push(event);
            self.refresh_plan("channel_up");
        }
        self.mode
    }

    /// Publishes a page with an expected time, compacting the schedule if
    /// fragmentation blocks direct admission.
    ///
    /// Admission is always judged against the *configured* channel count:
    /// a degraded station keeps accepting everything it could accept
    /// healthy, and the degraded plan is re-derived to include the new
    /// page.
    ///
    /// # Errors
    ///
    /// * [`StationError::CapacityExhausted`] if it does not fit even after
    ///   compaction.
    /// * [`StationError::Schedule`] for malformed inputs (zero or
    ///   non-dividing expected time, duplicate page id).
    pub fn publish(&mut self, page: PageId, expected: u64) -> Result<(), StationError> {
        let result = match self.scheduler.add_page(page, expected) {
            Ok(()) => Ok(()),
            Err(ScheduleError::PlacementFailed { .. }) => self
                .scheduler
                .rebuild_with(&[(page, expected)])
                .map_err(|_| StationError::CapacityExhausted { page }),
            Err(e) => Err(e.into()),
        };
        if result.is_ok() {
            // Pre-sizes the page's waiting span too, so steady-state
            // subscribes hit no resize branch at all.
            self.waits.publish(page.index() as usize, expected);
            // The full program changed even when no ladder move follows.
            self.plan_epoch += 1;
            if !matches!(self.active, ActivePlan::Full) {
                self.refresh_plan("catalogue");
            }
        }
        result
    }

    /// Removes a page from the catalogue. Clients still waiting for it
    /// keep waiting and will only be served if it is re-published.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownPage`] if the page is not live.
    pub fn expire(&mut self, page: PageId) -> Result<(), StationError> {
        self.scheduler
            .remove_page(page)
            .map_err(|_| StationError::UnknownPage { page })?;
        self.waits.expire(page.index() as usize);
        self.plan_epoch += 1;
        if !matches!(self.active, ActivePlan::Full) {
            self.refresh_plan("catalogue");
        }
        Ok(())
    }

    /// Registers a client waiting for `page` from the current instant.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownPage`] for a page not in the
    /// catalogue (a real frontend would route such clients to the
    /// on-demand channel).
    #[inline]
    pub fn subscribe(&mut self, page: PageId) -> Result<ClientId, StationError> {
        let idx = page.index() as usize;
        if !self.waits.subscribe(idx, self.next_client, self.time) {
            return Err(StationError::UnknownPage { page });
        }
        let id = ClientId(self.next_client);
        self.next_client += 1;
        self.stats.waiting += 1;
        Ok(id)
    }

    /// A counter that moves whenever the effective on-air grid may have
    /// changed: publish, expire, manual fail/restore, a policy change,
    /// or any in-tick ladder re-evaluation. [`crate::SlotBroadcaster`]
    /// compares it against the epoch its frame-template cache was built
    /// at and rebuilds on mismatch. Not snapshotted — a restored station
    /// restarts at 0, so bind a fresh broadcaster to each station
    /// instance.
    #[must_use]
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch
    }

    /// Materializes the effective on-air grid: for every physical
    /// channel and every slot-in-cycle column, the page a tick at that
    /// column would put on the air (before per-slot stalls, which idle a
    /// carrier without changing the plan). Down channels are all-`None`
    /// rows, and the reduced rungs' logical rows fill the live channels
    /// in ascending physical order — exactly the mapping
    /// [`Station::tick_into`] applies. This is the input a frame-template
    /// cache is built from; it is stale as soon as
    /// [`Station::plan_epoch`] moves.
    #[must_use]
    pub fn plan_cells(&self) -> PlanCells {
        let configured = self.channel_up.len();
        let channels = u32::try_from(configured).expect("channel count fits in u32");
        match &self.active {
            ActivePlan::Full => {
                let program = self.scheduler.program();
                let cycle_len = program.cycle_len();
                let cols = usize::try_from(cycle_len).expect("cycle fits in usize");
                let mut cells = Vec::with_capacity(configured * cols);
                for (ch, &up) in self.channel_up.iter().enumerate() {
                    let channel = ChannelId::new(u32::try_from(ch).expect("fits in u32"));
                    for col in 0..cycle_len {
                        cells.push(if up {
                            program.page_at(GridPos::new(channel, SlotIndex::new(col)))
                        } else {
                            None
                        });
                    }
                }
                PlanCells {
                    channels,
                    cycle_len,
                    cells,
                }
            }
            ActivePlan::Reduced(program) | ActivePlan::BestEffort(program) => {
                let cycle_len = program.cycle_len();
                let cols = usize::try_from(cycle_len).expect("cycle fits in usize");
                let mut cells = Vec::with_capacity(configured * cols);
                let mut row = 0u32;
                for &up in &self.channel_up {
                    if up && row < program.channels() {
                        for col in 0..cycle_len {
                            cells.push(
                                program.page_at(GridPos::new(
                                    ChannelId::new(row),
                                    SlotIndex::new(col),
                                )),
                            );
                        }
                        row += 1;
                    } else {
                        cells.extend(std::iter::repeat_n(None, cols));
                    }
                }
                PlanCells {
                    channels,
                    cycle_len,
                    cells,
                }
            }
            ActivePlan::Offline => PlanCells {
                channels,
                cycle_len: 1,
                cells: vec![None; configured],
            },
        }
    }

    /// Installs (or removes) the plan-corruptor chaos hook: every replan
    /// candidate passes through it *before* the pre-swap lint gate, so
    /// tests can prove the gate catches a corrupted replan pipeline.
    pub fn set_plan_corruptor(&mut self, corruptor: Option<PlanCorruptor>) {
        self.corruptor = corruptor;
    }

    /// Switches the deep-verify mode of the pre-swap gate: when on, every
    /// re-pack candidate is also handed to the difference-constraint
    /// oracle ([`airsched_solve::check_observed`]), which re-derives the
    /// deadline semantics from first principles and, on refusal, carries
    /// a machine-checkable infeasibility certificate. The solver runs
    /// *alongside* the lint gate (not only after it passes), so
    /// [`StationStats::solve_rejections`] versus
    /// [`StationStats::plan_rejections`] exposes any divergence between
    /// the two verdicts — by construction there should be none. A refusal
    /// by either blocks the swap. Off by default: the lint gate alone is
    /// the production configuration; deep-verify is the
    /// belt-and-suspenders mode for certification runs.
    pub fn set_deep_verify(&mut self, on: bool) {
        self.deep_verify = on;
    }

    /// Whether the deep-verify solver gate is on.
    #[must_use]
    pub fn deep_verify(&self) -> bool {
        self.deep_verify
    }

    /// The deep-verify half of the pre-swap gate: asks the solver for a
    /// feasibility verdict on `candidate` against the live catalogue.
    fn certify_candidate(&mut self, candidate: &BroadcastProgram) -> bool {
        let deadlines: Vec<(PageId, u64)> = self
            .scheduler
            .pages()
            .iter()
            .map(|(&p, &t)| (p, t))
            .collect();
        // The solver's wall time rides the same `ReplanTiming` channel as
        // the repack/pamad stages (clocked only when instrumented).
        let started = self.obs.as_ref().map(|_| Instant::now());
        let verdict = airsched_solve::check_observed(candidate, &deadlines);
        self.record_replan(STAGE_SOLVE, deadlines.len() as u64, started);
        match verdict {
            airsched_solve::Verdict::Feasible(_) => true,
            airsched_solve::Verdict::Infeasible(_) => {
                self.stats.solve_rejections += 1;
                if let Some(o) = &self.obs {
                    o.solve_rejections.inc();
                    // The refusal event names the solver's rule code so a
                    // postmortem distinguishes it from lint refusals.
                    o.obs.record(ObsEvent::PlanRejected {
                        slot: self.time,
                        rule_ids: vec![airsched_solve::render::RULE.to_string()],
                    });
                }
                false
            }
        }
    }

    /// Lints `candidate` against the live catalogue exactly as the
    /// pre-swap gate does, without installing anything — the
    /// operator-facing dry run. The gate itself uses
    /// [`LintConfig::default`] for re-pack candidates (which claim full
    /// validity) and [`LintConfig::structural`] for best-effort
    /// candidates (whose deadline misses are the accepted cost of the
    /// rung).
    #[must_use]
    pub fn propose_plan(&self, candidate: &BroadcastProgram, config: &LintConfig) -> LintReport {
        let catalogue: Vec<(PageId, u64)> = self
            .scheduler
            .pages()
            .iter()
            .map(|(&p, &t)| (p, t))
            .collect();
        lint(&LintInput::for_catalogue(candidate, &catalogue), config)
    }

    /// The pre-swap gate: accepts or refuses one replan candidate,
    /// recording the verdict in [`StationStats`].
    fn gate_candidate(&mut self, candidate: &BroadcastProgram, config: &LintConfig) -> bool {
        let report = self.propose_plan(candidate, config);
        let warnings = report.count_at(Severity::Warn) as u64;
        self.stats.plan_warnings += warnings;
        if let Some(o) = &self.obs {
            o.plan_warnings.add(warnings);
        }
        if report.has_deny() {
            self.stats.plan_rejections += 1;
            if let Some(o) = &self.obs {
                o.plan_rejections.inc();
                // The refusal event carries the deny-level rule codes so a
                // postmortem shows *why* the swap was blocked.
                let mut rule_ids: Vec<String> = Vec::new();
                for d in report.diagnostics() {
                    if d.severity == Severity::Deny {
                        let code = d.rule.code().to_string();
                        if !rule_ids.contains(&code) {
                            rule_ids.push(code);
                        }
                    }
                }
                o.obs.record(ObsEvent::PlanRejected {
                    slot: self.time,
                    rule_ids,
                });
            }
            return false;
        }
        true
    }

    /// Records one replan stage's cost: counters in the registry, a
    /// `ReplanTiming` event (the only event with a wall-clock field, and
    /// the only place wall-clock appears at all) in the recorder. A no-op
    /// when uninstrumented.
    fn record_replan(&self, stage: usize, evals: u64, started: Option<Instant>) {
        if let Some(o) = &self.obs {
            o.replan_runs[stage].inc();
            o.replan_evals[stage].add(evals);
            let duration_us = started.map_or(0, |t| {
                u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
            });
            o.obs.record(ObsEvent::ReplanTiming {
                stage: STAGE_NAMES[stage].to_string(),
                slot: self.time,
                evals,
                pruned: 0,
                duration_us,
            });
        }
    }

    /// Applies the chaos corruptor (if any) to a replan candidate.
    fn maybe_corrupt(&self, candidate: BroadcastProgram) -> BroadcastProgram {
        match self.corruptor {
            Some(corrupt) => corrupt(&candidate),
            None => candidate,
        }
    }

    /// Re-derives the on-air plan and ladder mode from the current
    /// channel state, catalogue and policy. When the lint gate refuses
    /// every replan candidate, the previous plan (and mode) stay in
    /// force — a vetted stale program beats a fresh corrupt one.
    ///
    /// `cause` names what triggered the re-evaluation (`"channel_down"`,
    /// `"channel_up"`, `"fault"`, `"catalogue"`, `"policy"`); it is
    /// carried on the `ModeChange` flight-recorder event.
    fn refresh_plan(&mut self, cause: &'static str) {
        // Even a refused swap can follow a channel_up change, which moves
        // the logical-row → physical-channel mapping: any re-evaluation
        // invalidates cached frame templates. Spurious bumps cost one
        // rebuild, never correctness.
        self.plan_epoch += 1;
        let configured = u32::try_from(self.channel_up.len()).expect("channel count fits in u32");
        let n_up = self.channels_up();
        let decision = if n_up == 0 {
            Some((ActivePlan::Offline, Mode::Offline))
        } else if n_up == configured {
            Some((ActivePlan::Full, Mode::Valid))
        } else {
            self.reduced_plan(n_up)
        };
        let Some((active, mode)) = decision else {
            return;
        };
        self.active = active;
        if mode != self.mode {
            match mode {
                Mode::BestEffort => self.stats.failovers += 1,
                Mode::Repacked => self.stats.repacks += 1,
                Mode::Valid => self.stats.recoveries += 1,
                Mode::Offline => {}
            }
            self.stats.mode_changes += 1;
            self.stats.last_mode_change_slot = Some(self.time);
            let from = self.mode;
            self.mode = mode;
            if let Some(o) = &self.obs {
                o.mode_changes.inc();
                o.mode.set(mode.index() as u64);
                o.obs.record(ObsEvent::ModeChange {
                    from: from.name().to_string(),
                    to: mode.name().to_string(),
                    slot: self.time,
                    cause: cause.to_string(),
                });
                // Dropping onto a non-valid rung is the black-box moment:
                // capture the recent history (the causal ChannelHealth /
                // PlanRejected events precede the ModeChange just
                // recorded).
                if matches!(mode, Mode::BestEffort | Mode::Offline) {
                    let _ = o.obs.capture_postmortem(self.time, mode.name());
                }
            }
        }
    }

    /// The ladder decision for `0 < n_up < configured` survivors: a SUSC
    /// re-pack while the survivors meet the catalogue's Theorem 3.1
    /// minimum, PAMAD best-effort below it. Every candidate passes the
    /// pre-swap lint gate; `None` means a candidate existed but was
    /// refused, so the caller must keep the previous plan on the air.
    fn reduced_plan(&mut self, n_up: u32) -> Option<(ActivePlan, Mode)> {
        let times: Vec<u64> = self.scheduler.pages().values().copied().collect();
        // An overflowing demand fraction cannot possibly be met by any
        // physical channel count; treat it as insufficient.
        let minimum = minimum_channels_for_times(&times).unwrap_or(u32::MAX);
        let mut refused = false;
        if self.policy.repack && n_up >= minimum {
            // The Instant exists only when instrumented: wall-clock stays
            // out of the uninstrumented path (and out of the registry, so
            // metric exposition remains deterministic either way).
            let started = self.obs.as_ref().map(|_| Instant::now());
            let mut probe = self.scheduler.clone();
            if probe.rebuild_on_channels(n_up).is_ok() {
                let candidate = self.maybe_corrupt(probe.program().clone());
                // SUSC places each page once: the sweep size is the
                // catalogue.
                self.record_replan(STAGE_REPACK, times.len() as u64, started);
                // A re-pack claims full validity, so it must survive the
                // complete deadline rule set — and, under deep-verify,
                // the solver's independent certification as well. Both
                // checks always run so their verdicts can be compared.
                let lint_ok = self.gate_candidate(&candidate, &LintConfig::default());
                let solve_ok = !self.deep_verify || self.certify_candidate(&candidate);
                if lint_ok && solve_ok {
                    return Some((ActivePlan::Reduced(candidate), Mode::Repacked));
                }
                refused = true;
            }
            // Sufficient in principle but the packer could not place this
            // particular catalogue (non-harmonic times); fall through.
        }
        if self.policy.best_effort {
            let started = self.obs.as_ref().map(|_| Instant::now());
            let catalogue: Vec<(PageId, u64)> = self
                .scheduler
                .pages()
                .iter()
                .map(|(&p, &t)| (p, t))
                .collect();
            if let Ok(plan) = degrade::replan(&catalogue, n_up) {
                let evals = plan.stage_evaluations();
                let candidate = self.maybe_corrupt(plan.into_program());
                self.record_replan(STAGE_PAMAD, evals, started);
                // Best-effort misses deadlines by design; hold it to the
                // structural rules only.
                if self.gate_candidate(&candidate, &LintConfig::structural()) {
                    return Some((ActivePlan::BestEffort(candidate), Mode::BestEffort));
                }
                refused = true;
            }
        }
        if refused {
            None
        } else {
            Some((ActivePlan::Offline, Mode::Offline))
        }
    }

    /// Transmits one slot: the fault injector (if any) is consulted,
    /// every live channel sends its scheduled page, waiting clients whose
    /// page aired intact are served, and the clock advances.
    ///
    /// A thin wrapper over [`Station::tick_into`]; loops that tick many
    /// slots should hold one [`TickBuf`] and call `tick_into` directly to
    /// skip the per-slot allocations.
    pub fn tick(&mut self) -> TickOutcome {
        let mut buf = TickBuf::default();
        self.tick_into(&mut buf);
        buf.into_outcome()
    }

    /// Allocation-free sibling of [`Station::tick`]: transmits one slot
    /// into `buf`, reusing every buffer it holds. In steady state (no
    /// ladder transition, no health event, no subscription burst growing a
    /// buffer past its high-water mark) this path performs no heap
    /// allocation at all.
    pub fn tick_into(&mut self, buf: &mut TickBuf) {
        buf.events.clear();
        buf.events.append(&mut self.pending_events);
        buf.deliveries.clear();
        let configured = self.channel_up.len();

        // Intra-slot tracing: `trace_epoch` is `Some` only on sampled
        // slots, and only then do the boundary marks below read the
        // clock — an unsampled tick pays one dormant branch per
        // boundary. The scratch vector is taken out of the tracer so the
        // rest of the tick can borrow `self` freely; it is handed back
        // (capacity intact) when the tree is committed.
        let mut trace_marks = Vec::new();
        let trace_epoch = match &mut self.trace {
            Some(t) if t.trace.sample_due(self.time) => {
                trace_marks = std::mem::take(&mut t.marks);
                trace_marks.clear();
                trace_marks.push(Instant::now());
                Some(t.trace.epoch())
            }
            _ => None,
        };

        buf.have_faults = false;
        if let Some(injector) = self.injector.as_mut() {
            injector.sample_into(self.time, &mut buf.faults);
            buf.have_faults = true;
            let mut changed = false;
            for &channel in &buf.faults.went_down {
                let ch = channel.index() as usize;
                if ch < configured && self.channel_up[ch] {
                    self.channel_up[ch] = false;
                    let event = ChannelEvent::Down {
                        channel,
                        at: self.time,
                    };
                    if let Some(o) = &self.obs {
                        o.record_channel_event(&event);
                    }
                    buf.events.push(event);
                    changed = true;
                }
            }
            for &channel in &buf.faults.came_up {
                let ch = channel.index() as usize;
                if ch < configured && !self.channel_up[ch] {
                    self.channel_up[ch] = true;
                    self.health.reset(channel);
                    let event = ChannelEvent::Up {
                        channel,
                        at: self.time,
                    };
                    if let Some(o) = &self.obs {
                        o.record_channel_event(&event);
                    }
                    buf.events.push(event);
                    changed = true;
                }
            }
            if changed {
                self.refresh_plan("fault");
            }
        }
        if trace_epoch.is_some() {
            trace_marks.push(Instant::now()); // faults end
        }

        // One column of the active plan, mapped onto physical channels
        // (the reduced plans' logical rows fill the live channels in
        // ascending physical order).
        buf.on_air.clear();
        buf.on_air.resize(configured, None);
        match &self.active {
            ActivePlan::Full => {
                let program = self.scheduler.program();
                let column = self.time % program.cycle_len();
                for (ch, slot) in buf.on_air.iter_mut().enumerate() {
                    if self.channel_up[ch] {
                        let channel = ChannelId::new(u32::try_from(ch).expect("fits in u32"));
                        *slot = program.page_at(GridPos::new(channel, SlotIndex::new(column)));
                    }
                }
            }
            ActivePlan::Reduced(program) | ActivePlan::BestEffort(program) => {
                let column = self.time % program.cycle_len();
                let mut row = 0u32;
                for (ch, slot) in buf.on_air.iter_mut().enumerate() {
                    if self.channel_up[ch] && row < program.channels() {
                        *slot = program
                            .page_at(GridPos::new(ChannelId::new(row), SlotIndex::new(column)));
                        row += 1;
                    }
                }
            }
            ActivePlan::Offline => {}
        }

        // Apply stalls and corruption, feeding the health monitor one
        // observation per attempted transmission. Without an injector no
        // channel can stall or corrupt, so the flags are never consulted.
        buf.corrupted.clear();
        buf.corrupted.resize(configured, false);
        for ch in 0..configured {
            if !self.channel_up[ch] {
                continue;
            }
            let channel = ChannelId::new(u32::try_from(ch).expect("fits in u32"));
            if buf.have_faults && buf.faults.stalled[ch] {
                if buf.on_air[ch].take().is_some() {
                    if let Some(o) = &self.obs {
                        o.stalled_frames.inc();
                    }
                    if let Some(e) =
                        self.health
                            .record(channel, SlotObservation::Stalled, self.time)
                    {
                        if let Some(o) = &self.obs {
                            o.record_channel_event(&e);
                        }
                        buf.events.push(e);
                    }
                }
            } else if buf.on_air[ch].is_some() {
                let observation = if buf.have_faults && buf.faults.corrupted[ch] {
                    buf.corrupted[ch] = true;
                    if let Some(o) = &self.obs {
                        o.corrupt_frames.inc();
                    }
                    SlotObservation::Corrupt
                } else {
                    SlotObservation::Clean
                };
                if let Some(e) = self.health.record(channel, observation, self.time) {
                    if let Some(o) = &self.obs {
                        o.record_channel_event(&e);
                    }
                    buf.events.push(e);
                }
            }
        }
        if trace_epoch.is_some() {
            trace_marks.push(Instant::now()); // air end
        }

        // Serve waiters from intact frames only; a corrupted frame shows
        // in `on_air` but delivers nothing. The drain kernel batches the
        // deadline verdict and wait sums over each page's contiguous
        // (client, since) columns and reports one `DrainDelta` per page
        // instead of six stat read-modify-writes per waiter; spans are
        // emptied in place so their capacity is reused.
        let mut delta = DrainDelta::default();
        for ch in 0..configured {
            if buf.corrupted[ch] {
                continue;
            }
            let Some(page) = buf.on_air[ch] else { continue };
            delta.merge(self.waits.drain_page(
                page.index() as usize,
                page,
                self.time,
                &mut buf.deliveries,
            ));
        }
        if trace_epoch.is_some() {
            trace_marks.push(Instant::now()); // drain end
        }
        self.stats.delivered += delta.delivered;
        self.stats.on_time += delta.on_time;
        self.stats.total_wait = self.stats.total_wait.wrapping_add(delta.total_wait);
        self.stats.waiting -= delta.delivered;
        let tally = &mut self.stats.per_mode[self.mode.index()];
        tally.delivered += delta.delivered;
        tally.on_time += delta.on_time;
        // The SLO tracker runs every tick — integer window arithmetic
        // plus a handful of relaxed mirror stores, no clock reads. A
        // fired burn-rate alert is edge-triggered; with an obs handle
        // attached it lands in the flight recorder and snapshots a
        // postmortem so the minutes before the burn are preserved.
        if let Some(t) = self.trace.as_mut() {
            let alert = t.slo.push(delta.delivered, delta.on_time);
            // The dashboard reads at human cadence, so the mirror only
            // refreshes every 8th slot (and instantly on an alert);
            // readers between refreshes see values at most 7 slots old.
            if alert.is_some() || t.slo.slots().is_multiple_of(8) {
                t.trace.mirror_slo(&t.slo);
            }
            if let Some(a) = alert {
                if let Some(o) = self.obs.as_mut() {
                    o.obs.record(ObsEvent::SloBurn {
                        slot: self.time,
                        fast_burn_milli: a.fast_burn_milli,
                        slow_burn_milli: a.slow_burn_milli,
                        hit_milli: a.hit_milli,
                        threshold_milli: a.threshold_milli,
                    });
                    let _ = o.obs.capture_postmortem(self.time, "slo_burn");
                }
            }
        }
        // With observability attached, walk the slot's deliveries in the
        // exact order they were produced: each adds one histogram-bucket
        // bump (a relaxed load + store, no locked instruction), a plain
        // compare for the running max, and — on a miss of a live page —
        // a DeadlineMiss event staged for the end-of-tick batch.
        if let Some(o) = self.obs.as_mut() {
            for d in &buf.deliveries {
                o.wait_hist.observe_bucket(d.wait);
                if d.wait > o.wait_max {
                    o.wait_max = d.wait;
                }
                if !d.within_deadline {
                    let expected = self.waits.deadline(d.page.index() as usize);
                    if expected != 0 {
                        o.miss_scratch.push(ObsEvent::DeadlineMiss {
                            page: d.page.index(),
                            slot: self.time,
                            wait: d.wait,
                            expected,
                        });
                    }
                }
            }
        }
        if trace_epoch.is_some() {
            trace_marks.push(Instant::now()); // deadline end
        }

        if self.mode != Mode::Valid {
            self.stats.degraded_slots += 1;
        }

        buf.time = self.time;
        buf.mode = self.mode;
        self.time += 1;
        self.stats.slots_elapsed += 1;
        // Per-delivery bucket bumps happened inline above; the tail only
        // flushes the slot's deadline-miss events (one recorder lock for
        // the whole batch, none when it is empty) and mirrors the
        // stats-backed series — plain relaxed stores only.
        if let Some(o) = self.obs.as_mut() {
            o.obs.record_batch(&mut o.miss_scratch);
            o.sync_tick(
                &self.stats,
                self.mode.index(),
                self.channel_up.iter().filter(|&&u| u).count() as u64,
            );
            o.arena_bytes.set(self.waits.arena_bytes());
        }

        // Sampled slot: close the pipeline, assemble the preorder span
        // tree, and fold it into the tracer — one lock for the whole slot.
        if let Some(epoch) = trace_epoch {
            trace_marks.push(Instant::now()); // sync end
            let ns = |i: Instant| i.duration_since(epoch).as_nanos() as u64;
            let slot = buf.time;
            let mut spans = Vec::with_capacity(6);
            spans.push(SpanRec {
                kind: SpanKind::Slot(slot),
                depth: 0,
                start_ns: ns(trace_marks[0]),
                dur_ns: ns(trace_marks[5]) - ns(trace_marks[0]),
            });
            const PIPELINE: [Phase; 5] = [
                Phase::Faults,
                Phase::Air,
                Phase::Drain,
                Phase::Deadline,
                Phase::Sync,
            ];
            for (i, phase) in PIPELINE.into_iter().enumerate() {
                spans.push(SpanRec {
                    kind: SpanKind::Phase(phase),
                    depth: 1,
                    start_ns: ns(trace_marks[i]),
                    dur_ns: ns(trace_marks[i + 1]) - ns(trace_marks[i]),
                });
            }
            let t = self.trace.as_mut().expect("sampled tick keeps its tracer");
            t.trace.commit_slot(SlotTrace { slot, spans });
            t.marks = trace_marks;
        }
    }

    /// Ticks `slots` times, streaming every delivery through `sink` — the
    /// allocation-free way to drive a long run: one internal [`TickBuf`]
    /// serves the whole loop and no delivery list is ever materialized.
    pub fn run_with<F: FnMut(&Delivery)>(&mut self, slots: u64, mut sink: F) {
        let mut buf = TickBuf::default();
        for _ in 0..slots {
            self.tick_into(&mut buf);
            for delivery in &buf.deliveries {
                sink(delivery);
            }
        }
    }

    /// Ticks `slots` times, returning all deliveries in order.
    pub fn run(&mut self, slots: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.run_with(slots, |d| out.push(*d));
        out
    }

    /// Captures the station's complete serving state as plain data — the
    /// payload of a crash-recovery checkpoint.
    ///
    /// Two things are deliberately *not* captured, because they are not
    /// data: the plan-corruptor chaos hook (a function pointer) and the
    /// observability wiring. A restored station comes up with neither;
    /// callers re-attach them (`set_plan_corruptor`, `attach_obs`) after
    /// [`Station::from_snapshot`]. Neither influences the `TickOutcome`
    /// stream, so the bit-identical replay contract is unaffected.
    #[must_use]
    pub fn snapshot(&self) -> StationSnapshot {
        StationSnapshot {
            scheduler: self.scheduler.snapshot(),
            time: self.time,
            waiting: self.waits.snapshot_waiting(),
            expected: self.waits.snapshot_expected(),
            next_client: self.next_client,
            stats: self.stats,
            channel_up: self.channel_up.clone(),
            injector: self.injector.as_ref().map(FaultInjector::snapshot),
            health: self.health.snapshot(),
            policy: self.policy,
            mode: self.mode,
            active: match &self.active {
                ActivePlan::Full => ActivePlanSnapshot::Full,
                ActivePlan::Reduced(p) => ActivePlanSnapshot::Reduced(ProgramSnapshot::capture(p)),
                ActivePlan::BestEffort(p) => {
                    ActivePlanSnapshot::BestEffort(ProgramSnapshot::capture(p))
                }
                ActivePlan::Offline => ActivePlanSnapshot::Offline,
            },
            pending_events: self.pending_events.clone(),
        }
    }

    /// Rebuilds a station from a snapshot taken by [`Station::snapshot`].
    ///
    /// `fault_plan` must be the plan the snapshotted station was running
    /// under (the snapshot carries only the injector's evolving state;
    /// the script and rates are rebuilt from the plan). Pass `None` for a
    /// station that had no injector.
    ///
    /// The restored station's subsequent [`TickOutcome`] stream — and
    /// every stat — is bit-identical to the snapshotted station's
    /// continuation, provided both see the same post-snapshot inputs.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::CorruptSnapshot`] (or a schedule error) if
    /// the snapshot is internally inconsistent or the fault plan is
    /// missing while the snapshot carries injector state.
    pub fn from_snapshot(
        snapshot: &StationSnapshot,
        fault_plan: Option<&FaultPlan>,
    ) -> Result<Self, StationError> {
        let injector = match (&snapshot.injector, fault_plan) {
            (Some(inj), Some(plan)) => {
                if inj.up.len() != snapshot.channel_up.len() {
                    return Err(StationError::CorruptSnapshot {
                        reason: "injector channel count disagrees with the station's",
                    });
                }
                Some(FaultInjector::from_snapshot(plan, inj))
            }
            (Some(_), None) => {
                return Err(StationError::CorruptSnapshot {
                    reason: "snapshot carries fault-injector state but no fault plan was supplied",
                })
            }
            (None, _) => None,
        };
        let active = match &snapshot.active {
            ActivePlanSnapshot::Full => ActivePlan::Full,
            ActivePlanSnapshot::Reduced(p) => ActivePlan::Reduced(p.rebuild()?),
            ActivePlanSnapshot::BestEffort(p) => ActivePlan::BestEffort(p.rebuild()?),
            ActivePlanSnapshot::Offline => ActivePlan::Offline,
        };
        Ok(Self {
            scheduler: OnlineScheduler::from_snapshot(&snapshot.scheduler)?,
            time: snapshot.time,
            waits: WaitingSet::restore(&snapshot.expected, &snapshot.waiting),
            plan_epoch: 0,
            next_client: snapshot.next_client,
            stats: snapshot.stats,
            channel_up: snapshot.channel_up.clone(),
            injector,
            health: HealthMonitor::from_snapshot(&snapshot.health),
            policy: snapshot.policy,
            mode: snapshot.mode,
            active,
            pending_events: snapshot.pending_events.clone(),
            corruptor: None,
            deep_verify: false,
            obs: None,
            trace: None,
        })
    }
}

/// The effective on-air grid of a station at one instant, as physical
/// cells: `cells[ch * cycle_len + col]` is the page a tick at column
/// `col` (`= time % cycle_len`) would transmit on physical channel `ch`,
/// `None` meaning an idle or down carrier. Produced by
/// [`Station::plan_cells`] and consumed by frame-template caches; valid
/// until [`Station::plan_epoch`] moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCells {
    /// Configured physical channel count (grid rows).
    pub channels: u32,
    /// Grid columns; tick `t` airs column `t % cycle_len`.
    pub cycle_len: u64,
    /// Channel-major cells (`ch * cycle_len + col`).
    pub cells: Vec<Option<PageId>>,
}

/// Cell-exact capture of one [`BroadcastProgram`].
///
/// The degraded rungs' programs are persisted verbatim rather than
/// re-derived on restore: the pre-swap lint gate may refuse a freshly
/// derived candidate (keeping the previous plan on the air), so
/// re-planning is not guaranteed to reproduce the program that was
/// actually transmitting when the checkpoint was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSnapshot {
    /// Channel count of the grid.
    pub channels: u32,
    /// Cycle length of the grid.
    pub cycle: u64,
    /// Every grid cell in channel-major order (`ch * cycle + slot`).
    pub grid: Vec<Option<PageId>>,
}

impl ProgramSnapshot {
    /// Serializes `program` cell by cell.
    #[must_use]
    pub fn capture(program: &BroadcastProgram) -> Self {
        let channels = program.channels();
        let cycle = program.cycle_len();
        let mut grid = Vec::with_capacity((channels as usize) * (cycle as usize));
        for ch in 0..channels {
            for slot in 0..cycle {
                grid.push(program.page_at(GridPos::new(ChannelId::new(ch), SlotIndex::new(slot))));
            }
        }
        Self {
            channels,
            cycle,
            grid,
        }
    }

    /// Reconstructs the exact program.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::CorruptSnapshot`] on malformed dimensions.
    pub fn rebuild(&self) -> Result<BroadcastProgram, StationError> {
        if self.channels == 0 || self.cycle == 0 {
            return Err(StationError::CorruptSnapshot {
                reason: "program snapshot has zero channels or cycle",
            });
        }
        if self.grid.len() != (self.channels as usize) * (self.cycle as usize) {
            return Err(StationError::CorruptSnapshot {
                reason: "program snapshot grid length does not match its dimensions",
            });
        }
        let mut program = BroadcastProgram::new(self.channels, self.cycle);
        let mut cells = self.grid.iter();
        for ch in 0..self.channels {
            for slot in 0..self.cycle {
                if let Some(page) = cells.next().copied().flatten() {
                    program
                        .place(GridPos::new(ChannelId::new(ch), SlotIndex::new(slot)), page)
                        .expect("fresh grid cells are free");
                }
            }
        }
        Ok(program)
    }
}

/// Which rung's program was on the air, with the program itself persisted
/// cell-exactly for the degraded rungs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivePlanSnapshot {
    /// The primary scheduler's program (already captured in
    /// [`StationSnapshot::scheduler`]).
    Full,
    /// A valid SUSC re-pack onto the surviving channels.
    Reduced(ProgramSnapshot),
    /// A PAMAD best-effort plan onto the surviving channels.
    BestEffort(ProgramSnapshot),
    /// Nothing transmits.
    Offline,
}

/// Plain-data capture of a [`Station`]'s complete serving state, produced
/// by [`Station::snapshot`] and consumed by [`Station::from_snapshot`].
/// The crash-recovery checkpoint format (`airsched-recover`) is a binary
/// encoding of exactly this struct.
#[derive(Debug, Clone, PartialEq)]
pub struct StationSnapshot {
    /// The primary scheduler: grid and live catalogue.
    pub scheduler: SchedulerSnapshot,
    /// The slot clock.
    pub time: u64,
    /// Waiting clients per dense page index, as `(client id, since)`.
    pub waiting: Vec<Vec<(u64, u64)>>,
    /// Dense expected-time mirror of the catalogue.
    pub expected: Vec<Option<u64>>,
    /// The next client id to assign.
    pub next_client: u64,
    /// Aggregate statistics.
    pub stats: StationStats,
    /// Physical channel up/down state.
    pub channel_up: Vec<bool>,
    /// The fault injector's evolving state, if one was attached.
    pub injector: Option<FaultInjectorSnapshot>,
    /// Per-channel health windows.
    pub health: HealthSnapshot,
    /// The degradation policy.
    pub policy: DegradationPolicy,
    /// The ladder mode.
    pub mode: Mode,
    /// The plan on the air.
    pub active: ActivePlanSnapshot,
    /// Events produced outside `tick`, not yet surfaced.
    pub pending_events: Vec<ChannelEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;

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
        s.fail_channel(ChannelId::new(2));
        s.fail_channel(ChannelId::new(1)); // drops onto best-effort
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
        // Replan timings were recorded for both attempted stages.
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
        assert_eq!(stages, vec!["repack".to_string(), "pamad".to_string()]);
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
        s.run(20);
        let snap = s.snapshot();
        // Injector state without the plan that explains it.
        let err = Station::from_snapshot(&snap, None).unwrap_err();
        assert!(matches!(err, StationError::CorruptSnapshot { .. }));
        assert!(err.to_string().contains("cannot restore station snapshot"));
        // Injector channel count out of step with the station's.
        let mut bad = snap.clone();
        bad.injector.as_mut().unwrap().up.push(true);
        assert!(matches!(
            Station::from_snapshot(&bad, Some(&plan)),
            Err(StationError::CorruptSnapshot { .. })
        ));
        // A degraded-plan grid that lies about its dimensions.
        let mut bad = snap;
        bad.active = ActivePlanSnapshot::Reduced(ProgramSnapshot {
            channels: 2,
            cycle: 8,
            grid: vec![None; 3],
        });
        assert!(matches!(
            Station::from_snapshot(&bad, Some(&plan)),
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
        let pms = obs.take_postmortems();
        assert!(
            pms.iter().any(|p| p.trigger == "slo_burn"),
            "postmortem captured for the burn"
        );
    }
}
