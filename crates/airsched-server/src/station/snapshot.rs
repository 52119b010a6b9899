//! Snapshot and restore: the station's complete serving state as plain
//! data (the payload of a crash-recovery checkpoint), and the effective
//! on-air grid handed to frame-template caches.

use airsched_core::dynamic::{OnlineScheduler, SchedulerSnapshot};
use airsched_core::error::ScheduleError;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::PageId;

use crate::faults::{FaultInjector, FaultInjectorSnapshot, FaultPlan};
use crate::health::{ChannelEvent, HealthMonitor, HealthSnapshot};
use crate::waiting::WaitingSet;

use super::{ActivePlan, DegradationPolicy, Mode, Station, StationError, StationStats};

impl Station {
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
        // The seed's `expected` vector, as long as the published
        // high-water, which every live page id is below.
        let mut expected = vec![None; self.waits.published_len()];
        for (page, t) in self.catalogue().iter() {
            expected[page.index() as usize] = Some(t);
        }
        StationSnapshot {
            scheduler: self.scheduler.snapshot(),
            time: self.time,
            waiting: self.waits.snapshot_waiting(),
            expected,
            next_client: self.next_client,
            stats: self.stats,
            channel_up: self.channel_up.clone(),
            injector: self.injector.as_ref().map(|i| i.snapshot(&self.channel_up)),
            health: self.health.snapshot(),
            policy: self.policy,
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
    /// The restored station's subsequent
    /// [`TickOutcome`](super::TickOutcome) stream — and every stat — is
    /// bit-identical to the snapshotted station's continuation, provided
    /// both see the same post-snapshot inputs.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::CorruptSnapshot`] (or a schedule error) if
    /// the snapshot is internally inconsistent or the fault plan is
    /// missing while the snapshot carries injector state. The snapshot
    /// stores some facts twice for the format's sake — the expected
    /// times beside the scheduler's catalogue, the injector's channel
    /// mask beside the station's, the waiting count beside the waiters —
    /// and each copy must agree with the one the station keeps. The
    /// scheduler's grid must keep the scheduler's invariant (every live
    /// page one periodic family of its expected time, nothing else
    /// aired), which the pre-swap gate trusts of the full plan.
    pub fn from_snapshot(
        snapshot: &StationSnapshot,
        fault_plan: Option<&FaultPlan>,
    ) -> Result<Self, StationError> {
        let corrupt = |reason| Err(StationError::CorruptSnapshot { reason });
        if snapshot.channel_up.len() != snapshot.scheduler.channels as usize {
            return corrupt("channel mask length disagrees with the scheduler's channel count");
        }
        let waiters = snapshot.waiting.iter().flatten();
        if snapshot.stats.waiting != waiters.clone().count() as u64 {
            return corrupt("waiting count disagrees with the waiters carried");
        }
        if waiters.clone().any(|&(_, since)| since > snapshot.time) {
            return corrupt("a waiter subscribed after the snapshot's time");
        }
        if snapshot.waiting.len() > snapshot.expected.len() {
            return corrupt("waiters carried for a page id past every published one");
        }
        let injector = match (&snapshot.injector, fault_plan) {
            (Some(inj), Some(plan)) => {
                if inj.up != snapshot.channel_up {
                    return corrupt("injector channel mask disagrees with the station's");
                }
                Some(FaultInjector::from_snapshot(plan, inj))
            }
            (Some(_), None) => {
                return corrupt(
                    "snapshot carries fault-injector state but no fault plan was supplied",
                )
            }
            (None, _) => None,
        };
        // A scheduler snapshot that breaks the scheduler's invariant is a
        // corrupt checkpoint: the gate trusts the full plan as valid.
        let scheduler =
            OnlineScheduler::from_snapshot(&snapshot.scheduler).map_err(|e| match e {
                ScheduleError::InvalidFrequencies { reason } => {
                    StationError::CorruptSnapshot { reason }
                }
                e => e.into(),
            })?;
        let listed = (0u32..)
            .zip(&snapshot.expected)
            .filter_map(|(p, e)| e.map(|t| (PageId::new(p), t)));
        if !listed.eq(scheduler.pages().iter()) {
            return corrupt("expected times disagree with the scheduler's catalogue");
        }
        let active = match &snapshot.active {
            ActivePlanSnapshot::Full => ActivePlan::Full,
            ActivePlanSnapshot::Reduced(p) => ActivePlan::Reduced(p.rebuild()?),
            ActivePlanSnapshot::BestEffort(p) => ActivePlan::BestEffort(p.rebuild()?),
            ActivePlanSnapshot::Offline => ActivePlan::Offline,
        };
        // Everything not captured (plan epoch, chaos hook, deep verify,
        // attachments) starts fresh, exactly as in `Station::new`.
        Ok(Self {
            time: snapshot.time,
            waits: WaitingSet::restore(&snapshot.expected, &snapshot.waiting),
            next_client: snapshot.next_client,
            stats: snapshot.stats,
            channel_up: snapshot.channel_up.clone(),
            air_rows: active.channel_rows(&snapshot.channel_up),
            injector,
            health: HealthMonitor::from_snapshot(&snapshot.health),
            policy: snapshot.policy,
            active,
            pending_events: snapshot.pending_events.clone(),
            ..Self::fresh(scheduler)
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
        Self {
            channels: program.channels(),
            cycle: program.cycle_len(),
            grid: program.cells().to_vec(),
        }
    }

    /// Reconstructs the exact program.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::CorruptSnapshot`] on malformed or oversized
    /// dimensions, or a grid whose length does not match them.
    pub fn rebuild(&self) -> Result<BroadcastProgram, StationError> {
        BroadcastProgram::from_cells(self.channels, self.cycle, &self.grid).map_err(|_| {
            StationError::CorruptSnapshot {
                reason: "program snapshot has malformed dimensions or grid length",
            }
        })
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

impl ActivePlanSnapshot {
    /// The ladder mode this plan airs in.
    #[must_use]
    pub fn mode(&self) -> Mode {
        match self {
            Self::Full => Mode::Valid,
            Self::Reduced(_) => Mode::Repacked,
            Self::BestEffort(_) => Mode::BestEffort,
            Self::Offline => Mode::Offline,
        }
    }
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
    /// The catalogue's expected times per dense page index, up to the
    /// highest page id ever published (`None`: not live). Written from
    /// the scheduler's catalogue and checked against it on restore.
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
    /// The plan on the air (the ladder mode is
    /// [`ActivePlanSnapshot::mode`]).
    pub active: ActivePlanSnapshot,
    /// Events produced outside `tick`, not yet surfaced.
    pub pending_events: Vec<ChannelEvent>,
}
