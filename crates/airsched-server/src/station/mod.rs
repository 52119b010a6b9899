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
//!   meet Theorem 3.1's minimum, folded from the catalogue's per-time
//!   page counts ([`airsched_core::dynamic::Catalogue::minimum_channels`]);
//!   the plan on the air is relocated onto the survivors
//!   ([`OnlineScheduler::relocate`]): every live channel keeps its row,
//!   and only the pages that lost their place are first-fitted. When a
//!   page finds no room, the catalogue is re-packed afresh via SUSC
//!   ([`OnlineScheduler::program_on_channels`]). Either way the result
//!   is a *valid* program.
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
//! surfaces typed [`ChannelEvent`]s through every tick. Every change
//! that may move the on-air grid — a catalogue edit, a channel flip, a
//! policy change — goes through one swap seam: it re-runs the ladder
//! (not for a catalogue edit under the full plan), maps the plan's rows
//! onto the live channels once for every tick to read, and moves
//! [`Station::plan_epoch`]. The mode is a function of the plan.
//!
//! ## The pre-swap lint gate
//!
//! Before any replan candidate reaches the air it is linted
//! ([`airsched_lint`]) against the live catalogue: re-pack candidates
//! under the full rule set, best-effort candidates under
//! [`LintConfig::structural`](airsched_lint::LintConfig::structural). A
//! deny-level diagnostic refuses the swap — the previous program keeps
//! serving and
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
//! [`Station::attach_obs`] hooks a flight-recorder handle into the
//! serving loop: per-mode delivery counters, a wait histogram, channel
//! health / mode-change / plan-gate flight-recorder events, and an
//! automatic black-box postmortem whenever the ladder drops onto
//! [`Mode::BestEffort`] or [`Mode::Offline`]; [`Station::attach_trace`]
//! adds sampled intra-slot span trees and an SLO burn-rate tracker. Both
//! install into one optional observer. Serving and ladder code only note
//! what happened into a per-call record, which the observer consumes once
//! at the end of each tick and each re-planning mutator — so a station
//! without one behaves exactly as before and never reads the clock (see
//! DESIGN.md §10.4 and §15).

mod ladder;
mod observe;
mod snapshot;

use airsched_core::dynamic::{Catalogue, OnlineScheduler};
use airsched_core::error::ScheduleError;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
use airsched_proto::template::PlanRow;

use crate::faults::{FaultInjector, FaultPlan, SlotFaults};
use crate::health::{ChannelEvent, HealthMonitor, HealthThresholds, SlotObservation};
use crate::waiting::{DrainDelta, WaitingSet};

use observe::{Observer, Record};
pub use snapshot::{ActivePlanSnapshot, PlanCells, ProgramSnapshot, StationSnapshot};

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

impl ActivePlan {
    /// The ladder rung this plan is on.
    fn mode(&self) -> Mode {
        match self {
            Self::Full => Mode::Valid,
            Self::Reduced(_) => Mode::Repacked,
            Self::BestEffort(_) => Mode::BestEffort,
            Self::Offline => Mode::Offline,
        }
    }

    /// The channel → row map: which row of this plan each physical
    /// channel airs (`None`: nothing). The full plan airs row `ch` on
    /// channel `ch`; a degraded plan's rows fill the live channels in
    /// ascending order, up to its row count.
    fn channel_rows(&self, channel_up: &[bool]) -> Vec<Option<u32>> {
        let mut ranks = match self {
            Self::Full => None,
            Self::Reduced(program) | Self::BestEffort(program) => Some(0..program.channels()),
            Self::Offline => Some(0..0),
        };
        (0u32..)
            .zip(channel_up)
            .map(|(ch, &up)| match &mut ranks {
                _ if !up => None,
                None => Some(ch),
                Some(ranks) => ranks.next(),
            })
            .collect()
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
    /// Waiting clients in struct-of-arrays form (see the `waiting` module
    /// and DESIGN.md §12); their pages' expected times are the
    /// scheduler's catalogue. Spans are emptied in place rather than
    /// freed, so steady-state ticking reuses their capacity.
    waits: WaitingSet,
    /// Bumped once per call through the swap seam, its only writer;
    /// frame-template caches key their validity on it. Not snapshotted:
    /// a restored station restarts at 0 with a fresh
    /// [`crate::SlotBroadcaster`].
    plan_epoch: u64,
    next_client: u64,
    stats: StationStats,
    /// Physical channel up/down state; length is the configured count.
    /// The only record of it: the fault injector reads it each slot.
    channel_up: Vec<bool>,
    /// [`ActivePlan::channel_rows`] of `active` and `channel_up`,
    /// recomputed only by the swap seam and on restore: while the ladder
    /// runs it still holds the rows aired before the change.
    air_rows: Vec<Option<u32>>,
    injector: Option<FaultInjector>,
    health: HealthMonitor,
    policy: DegradationPolicy,
    /// The plan on the air; the ladder mode is [`ActivePlan::mode`].
    active: ActivePlan,
    /// Events produced outside `tick` (manual fail/restore), surfaced on
    /// the next tick.
    pending_events: Vec<ChannelEvent>,
    /// Chaos hook: mutates replan candidates before the lint gate.
    corruptor: Option<PlanCorruptor>,
    /// Whether the plan on the air is a `Reduced` plan that passed the
    /// full deadline rule set. The next relocation from such a plan is
    /// gated by change set; every swap clears it, and only an installed
    /// SUSC candidate sets it again. The full plan needs no flag: it is
    /// the scheduler's own program, valid for the live pages by the
    /// scheduler's invariant (checked on restore), so a relocation from
    /// it is always gated by change set. Not snapshotted: a resumed
    /// station lints its first relocation from a `Reduced` plan whole.
    certified: bool,
    /// Every gate verdict with what it judged, for the differential
    /// tests against a full lint.
    #[cfg(test)]
    gate_log: Vec<tests::GateRecord>,
    /// When on, every re-pack candidate is additionally certified by the
    /// difference-constraint solver (see the pre-swap gate docs above).
    /// Execution configuration, not serving state: never snapshotted.
    deep_verify: bool,
    /// The optional metrics/recorder/tracer attachment (see the
    /// `observe` module); `None` keeps the exact unobserved behavior.
    /// Execution configuration like `deep_verify`: never snapshotted.
    observer: Option<Observer>,
    /// What the current public call did, noted for the observer and
    /// cleared at the call's end; reused so ticks never allocate.
    record: Record,
}

impl Station {
    /// Creates a station with `channels` transmitters and a `cycle`-slot
    /// schedule (the largest expected time it will accept).
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] for a zero channel count or cycle.
    pub fn new(channels: u32, cycle: u64) -> Result<Self, StationError> {
        Ok(Self::fresh(OnlineScheduler::new(channels, cycle)?))
    }

    /// A station at slot 0 around `scheduler`: every channel up, nobody
    /// waiting, nothing attached.
    fn fresh(scheduler: OnlineScheduler) -> Self {
        let channels = scheduler.program().channels();
        let channel_up = vec![true; channels as usize];
        Self {
            scheduler,
            time: 0,
            waits: WaitingSet::new(),
            plan_epoch: 0,
            next_client: 0,
            stats: StationStats::default(),
            air_rows: ActivePlan::Full.channel_rows(&channel_up),
            channel_up,
            injector: None,
            health: HealthMonitor::new(channels, HealthThresholds::default()),
            policy: DegradationPolicy::default(),
            active: ActivePlan::Full,
            pending_events: Vec::new(),
            corruptor: None,
            certified: false,
            #[cfg(test)]
            gate_log: Vec::new(),
            deep_verify: false,
            observer: None,
            record: Record::default(),
        }
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
        self.injector = Some(FaultInjector::new(plan, channels));
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
        self.replan("policy", None);
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
        self.active.mode()
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

    /// The current catalogue: every live page and its expected time,
    /// ascending by page id.
    #[must_use]
    pub fn catalogue(&self) -> Catalogue<'_> {
        self.scheduler.pages()
    }

    /// Manually fails a channel (e.g. an operator pulling a transmitter),
    /// re-evaluating the degradation ladder. Returns the resulting mode.
    /// A no-op for channels already down or out of range.
    pub fn fail_channel(&mut self, channel: ChannelId) -> Mode {
        if let Some(event) = self.set_channel(channel, false) {
            self.pending_events.push(event);
            self.replan("channel_down", None);
        }
        self.mode()
    }

    /// Manually restores a channel, climbing back up the ladder. Returns
    /// the resulting mode. A no-op for channels already up or out of
    /// range.
    pub fn restore_channel(&mut self, channel: ChannelId) -> Mode {
        if let Some(event) = self.set_channel(channel, true) {
            self.pending_events.push(event);
            self.replan("channel_up", None);
        }
        self.mode()
    }

    /// Marks `channel` up or down and notes the health event, resetting
    /// the health window of a channel that comes back. `None` when the
    /// channel already was in that state or is out of range.
    fn set_channel(&mut self, channel: ChannelId, up: bool) -> Option<ChannelEvent> {
        let state = self.channel_up.get_mut(channel.index() as usize)?;
        if *state == up {
            return None;
        }
        *state = up;
        let at = self.time;
        let event = if up {
            self.health.reset(channel);
            ChannelEvent::Up { channel, at }
        } else {
            ChannelEvent::Down { channel, at }
        };
        self.record.health(event);
        Some(event)
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
            // Pre-sizes the page's waiting span, so steady-state
            // subscribes hit no resize branch at all.
            self.waits.publish(page.index() as usize);
            self.replan("catalogue", Some(page));
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
        self.replan("catalogue", Some(page));
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
        if !self.scheduler.pages().contains(page) {
            return Err(StationError::UnknownPage { page });
        }
        self.waits
            .subscribe(page.index() as usize, self.next_client, self.time);
        let id = ClientId(self.next_client);
        self.next_client += 1;
        self.stats.waiting += 1;
        Ok(id)
    }

    /// A counter that moves whenever the effective on-air grid may have
    /// changed: publish, expire, manual fail/restore, a policy change,
    /// or any in-tick ladder re-evaluation (once per call, at the swap
    /// seam). [`crate::SlotBroadcaster`] compares it against the epoch
    /// its frame-template cache was built at and rebuilds on mismatch.
    /// Not snapshotted — a restored station restarts at 0, so bind a
    /// fresh broadcaster to each station instance.
    #[must_use]
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch
    }

    /// Materializes the effective on-air grid: for every physical
    /// channel and every slot-in-cycle column, the page a tick at that
    /// column would put on the air (before per-slot stalls, which idle a
    /// carrier without changing the plan). Each channel's row is the one
    /// the station's channel → row map assigns it — the map
    /// [`Station::tick_into`] airs from — and a channel with no row is
    /// all-`None`. This is the input a frame-template cache is built
    /// from; it is stale as soon as [`Station::plan_epoch`] moves.
    #[must_use]
    pub fn plan_cells(&self) -> PlanCells {
        let (cycle_len, rows) = self.plan_rows();
        let cols = usize::try_from(cycle_len).expect("cycle fits in usize");
        let channels = u32::try_from(rows.len()).expect("channel count fits in u32");
        let mut cells = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            match row.cells {
                Some(row) => cells.extend_from_slice(row),
                None => cells.extend(std::iter::repeat_n(None, cols)),
            }
        }
        PlanCells {
            channels,
            cycle_len,
            cells,
        }
    }

    /// The effective on-air grid of [`Station::plan_cells`], borrowed
    /// row by row: its cycle length, and for every physical channel the
    /// row it airs with that row's version
    /// ([`BroadcastProgram::row_version`]), or no cells when the channel
    /// airs nothing. Equal versions across two calls mean the channel
    /// airs the same cells, which is how a frame-template cache
    /// ([`FrameTemplateCache::retarget`]) re-reads only the rows a plan
    /// change moved.
    ///
    /// [`FrameTemplateCache::retarget`]: airsched_proto::template::FrameTemplateCache::retarget
    pub fn plan_rows(&self) -> (u64, impl ExactSizeIterator<Item = PlanRow<'_>> + '_) {
        let program = self.on_air_program();
        let cycle_len = program.map_or(1, BroadcastProgram::cycle_len);
        let rows = self
            .air_rows
            .iter()
            .map(move |&row| match program.zip(row) {
                Some((program, row)) => PlanRow {
                    cells: Some(program.row_cells(row)),
                    version: program.row_version(row),
                },
                None => PlanRow {
                    cells: None,
                    version: 0,
                },
            });
        (cycle_len, rows)
    }

    /// The program on the air: the scheduler's own under the full plan,
    /// the degraded rung's otherwise, `None` offline.
    fn on_air_program(&self) -> Option<&BroadcastProgram> {
        match &self.active {
            ActivePlan::Full => Some(self.scheduler.program()),
            ActivePlan::Reduced(program) | ActivePlan::BestEffort(program) => Some(program),
            ActivePlan::Offline => None,
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

    /// A mutator's re-plan: goes through the swap seam, then lets the
    /// observer consume everything the call noted — so rare-path
    /// counters are exact between ticks. `edited` is the page a
    /// catalogue edit changed.
    fn replan(&mut self, cause: &'static str, edited: Option<PageId>) {
        self.swap(cause, edited);
        self.flush();
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

        // Intra-slot tracing: only on slots the attached tracer samples do
        // the phase marks below read the clock — elsewhere each boundary
        // is one dormant branch.
        let sampled = self
            .observer
            .as_ref()
            .is_some_and(|o| o.sample_due(self.time));
        self.record.begin_slot(sampled);

        buf.have_faults = false;
        if let Some(injector) = self.injector.as_mut() {
            injector.sample_into(self.time, &self.channel_up, &mut buf.faults);
            buf.have_faults = true;
            let mut changed = false;
            for (channels, up) in [(&buf.faults.went_down, false), (&buf.faults.came_up, true)] {
                for &channel in channels {
                    if let Some(event) = self.set_channel(channel, up) {
                        buf.events.push(event);
                        changed = true;
                    }
                }
            }
            if changed {
                self.swap("fault", None);
            }
        }
        self.record.mark(); // faults end

        // One column of the plan on the air: each physical channel airs
        // the row the channel → row map assigns it.
        buf.on_air.clear();
        buf.on_air.resize(configured, None);
        if let Some(program) = self.on_air_program() {
            let column = SlotIndex::new(self.time % program.cycle_len());
            for (slot, &row) in buf.on_air.iter_mut().zip(&self.air_rows) {
                *slot =
                    row.and_then(|row| program.page_at(GridPos::new(ChannelId::new(row), column)));
            }
        }

        // Apply stalls and corruption, feeding the health monitor one
        // observation per attempted transmission. Without an injector no
        // channel can stall or corrupt, so the flags are never consulted.
        buf.corrupted.clear();
        buf.corrupted.resize(configured, false);
        // A down channel has no row, so it airs `None` and is skipped.
        for ch in 0..configured {
            let observation = if buf.have_faults && buf.faults.stalled[ch] {
                if buf.on_air[ch].take().is_none() {
                    continue;
                }
                self.record.stalled += 1;
                SlotObservation::Stalled
            } else if buf.on_air[ch].is_some() {
                if buf.have_faults && buf.faults.corrupted[ch] {
                    buf.corrupted[ch] = true;
                    self.record.corrupt += 1;
                    SlotObservation::Corrupt
                } else {
                    SlotObservation::Clean
                }
            } else {
                continue;
            };
            let channel = ChannelId::new(u32::try_from(ch).expect("fits in u32"));
            if let Some(e) = self.health.record(channel, observation, self.time) {
                self.record.health(e);
                buf.events.push(e);
            }
        }
        self.record.mark(); // air end

        // Serve waiters from intact frames only; a corrupted frame shows
        // in `on_air` but delivers nothing. The drain kernel batches the
        // deadline verdict (against the page's expected time in the
        // catalogue, 0 when it is not live) and wait sums over each
        // page's contiguous (client, since) columns and reports one
        // `DrainDelta` per page instead of six stat read-modify-writes
        // per waiter; spans are emptied in place so their capacity is
        // reused.
        let mut delta = DrainDelta::default();
        let catalogue = self.scheduler.pages();
        for ch in 0..configured {
            if buf.corrupted[ch] {
                continue;
            }
            let Some(page) = buf.on_air[ch] else { continue };
            delta.merge(self.waits.drain_page(
                page,
                || catalogue.get(page).unwrap_or(0),
                self.time,
                &mut buf.deliveries,
            ));
        }
        self.record.mark(); // drain end
        self.stats.delivered += delta.delivered;
        self.stats.on_time += delta.on_time;
        self.stats.total_wait = self.stats.total_wait.wrapping_add(delta.total_wait);
        self.stats.waiting -= delta.delivered;
        let mode = self.active.mode();
        let tally = &mut self.stats.per_mode[mode.index()];
        tally.delivered += delta.delivered;
        tally.on_time += delta.on_time;
        self.record.delta = delta;

        if mode != Mode::Valid {
            self.stats.degraded_slots += 1;
        }

        buf.time = self.time;
        buf.mode = mode;
        self.time += 1;
        self.stats.slots_elapsed += 1;
        self.flush_tick(buf);
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
}

#[cfg(test)]
pub(crate) mod tests;
