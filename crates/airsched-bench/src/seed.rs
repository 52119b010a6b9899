//! A replica of the seed station's serving loop, kept as an independent
//! oracle for [`airsched_server::Station`].
//!
//! [`SeedStation`] shares no serving code with the station it checks:
//! waiting lists live in a `BTreeMap` keyed by `PageId`, every tick
//! allocates its buffers fresh, and expected times live in a `BTreeMap`
//! of its own, from which Theorem 3.1's minimum is taken per page
//! ([`minimum_channels_for_times`]), not from the scheduler's catalogue
//! table. Only the building blocks below the serving loop (scheduler,
//! fault injector, health monitor, PAMAD replanner) are shared; the
//! relocation of a degraded plan is written here again, with a literal
//! cell scan and plain `place` calls. The `serving_path` property tests
//! drive it in lockstep with the optimized station under randomized
//! chaos. It is deliberately left unoptimized.
//!
//! The replica has no lint gate, deep verify or degradation policy, so it
//! matches a station running with the defaults and no plan corruptor.

use std::collections::BTreeMap;

use airsched_core::bound::minimum_channels_for_times;
use airsched_core::degrade;
use airsched_core::dynamic::OnlineScheduler;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
use airsched_server::faults::{FaultInjector, FaultPlan};
use airsched_server::health::{ChannelEvent, HealthMonitor, HealthThresholds, SlotObservation};
use airsched_server::Mode;

/// The plan on the air: the scheduler's own program, a reduced re-pack,
/// a PAMAD best-effort program, or nothing.
#[derive(Debug)]
enum SeedPlan {
    Full,
    Reduced(BroadcastProgram),
    BestEffort(BroadcastProgram),
    Offline,
}

/// One delivery of a [`SeedStation`] tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedDelivery {
    /// Raw id of the served client, minted by [`SeedStation::subscribe`].
    pub client: u64,
    /// The page that aired.
    pub page: PageId,
    /// Whole slots from subscription to full reception.
    pub wait: u64,
    /// Whether the wait stayed within the page's expected time.
    pub within_deadline: bool,
}

/// What one [`SeedStation`] tick transmitted and served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedOutcome {
    /// Ladder mode the slot was served in.
    pub mode: Mode,
    /// Page on the air per physical channel.
    pub on_air: Vec<Option<PageId>>,
    /// Channels whose frame was corrupted (and so delivered nothing).
    pub corrupted: Vec<bool>,
    /// Deliveries in the order they were made.
    pub deliveries: Vec<SeedDelivery>,
    /// Channel events raised during the slot.
    pub events: Vec<ChannelEvent>,
}

/// The seed station's serving loop, kept as an oracle. See the module
/// docs.
#[derive(Debug)]
pub struct SeedStation {
    scheduler: OnlineScheduler,
    /// Expected time of each published page.
    times: BTreeMap<PageId, u64>,
    time: u64,
    waiting: BTreeMap<PageId, Vec<(u64, u64)>>,
    next_client: u64,
    channel_up: Vec<bool>,
    injector: Option<FaultInjector>,
    health: HealthMonitor,
    mode: Mode,
    active: SeedPlan,
    /// Total deliveries.
    pub delivered: u64,
    /// Deliveries within their page's expected time.
    pub on_time: u64,
    /// Sum of delivery waits.
    pub total_wait: u64,
    /// Clients currently waiting.
    pub waiting_count: u64,
    /// Transitions onto the best-effort rung.
    pub failovers: u64,
    /// Transitions onto the re-packed rung.
    pub repacks: u64,
    /// Climbs back to [`Mode::Valid`].
    pub recoveries: u64,
    /// Slots served in any mode other than [`Mode::Valid`].
    pub degraded_slots: u64,
    /// Slots ticked so far.
    pub slots_elapsed: u64,
}

impl SeedStation {
    /// A station with `channels` transmitters and a `cycle`-slot
    /// schedule, the `(page, expected time)` catalogue published in
    /// order, and `plan`'s fault injector when one is given.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler rejects the dimensions or the catalogue.
    #[must_use]
    pub fn new(
        channels: u32,
        cycle: u64,
        catalogue: &[(PageId, u64)],
        plan: Option<&FaultPlan>,
    ) -> Self {
        let mut scheduler = OnlineScheduler::new(channels, cycle).expect("scheduler builds");
        for &(page, expected) in catalogue {
            scheduler
                .add_page(page, expected)
                .expect("catalogue fits the channel budget");
        }
        Self {
            scheduler,
            times: catalogue.iter().copied().collect(),
            time: 0,
            waiting: BTreeMap::new(),
            next_client: 0,
            channel_up: vec![true; channels as usize],
            injector: plan.map(|p| FaultInjector::new(p, channels)),
            health: HealthMonitor::new(channels, HealthThresholds::default()),
            mode: Mode::Valid,
            active: SeedPlan::Full,
            delivered: 0,
            on_time: 0,
            total_wait: 0,
            waiting_count: 0,
            failovers: 0,
            repacks: 0,
            recoveries: 0,
            degraded_slots: 0,
            slots_elapsed: 0,
        }
    }

    /// Subscribes a new client to `page` and returns its raw id (ids
    /// count up from 0, as the station's do).
    ///
    /// # Panics
    ///
    /// Panics if `page` is not published.
    pub fn subscribe(&mut self, page: PageId) -> u64 {
        assert!(self.times.contains_key(&page), "page is published");
        let id = self.next_client;
        self.next_client += 1;
        self.waiting.entry(page).or_default().push((id, self.time));
        self.waiting_count += 1;
        id
    }

    fn channels_up(&self) -> u32 {
        u32::try_from(self.channel_up.iter().filter(|&&u| u).count()).expect("fits in u32")
    }

    /// Re-derives the plan after the channel mask changed from `before`.
    fn refresh_plan(&mut self, before: &[bool]) {
        let configured = u32::try_from(self.channel_up.len()).expect("fits in u32");
        let n_up = self.channels_up();
        let (active, mode) = if n_up == 0 {
            (SeedPlan::Offline, Mode::Offline)
        } else if n_up == configured {
            (SeedPlan::Full, Mode::Valid)
        } else {
            self.reduced_plan(before, n_up)
        };
        self.active = active;
        if mode != self.mode {
            match mode {
                Mode::BestEffort => self.failovers += 1,
                Mode::Repacked => self.repacks += 1,
                Mode::Valid => self.recoveries += 1,
                Mode::Offline => {}
            }
            self.mode = mode;
        }
    }

    fn reduced_plan(&mut self, before: &[bool], n_up: u32) -> (SeedPlan, Mode) {
        let times: Vec<u64> = self.times.values().copied().collect();
        let minimum = minimum_channels_for_times(&times).unwrap_or(u32::MAX);
        if n_up >= minimum {
            if let Some(program) = self.relocate(before, n_up) {
                return (SeedPlan::Reduced(program), Mode::Repacked);
            }
            let mut probe = self.scheduler.clone();
            if probe.rebuild_on_channels(n_up).is_ok() {
                return (SeedPlan::Reduced(probe.program().clone()), Mode::Repacked);
            }
        }
        let catalogue: Vec<(PageId, u64)> = self.times.iter().map(|(&p, &t)| (p, t)).collect();
        if let Ok(plan) = degrade::replan(&catalogue, n_up) {
            return (SeedPlan::BestEffort(plan.into_program()), Mode::BestEffort);
        }
        (SeedPlan::Offline, Mode::Offline)
    }

    /// The plan on the air moved onto `n_up` live channels: every channel
    /// that stays up keeps the row it aired, cell for cell, and a channel
    /// that comes back starts empty. Pages that lost cells with a row are
    /// wiped, then placed one by one, tightest first. A page goes back on
    /// its old offset when it can: the first column it airs in the plan
    /// on the air if its columns there are exactly `y, y + t, …`, else its
    /// first column in the scheduler's own grid. It takes the first
    /// channel whose cells `y, y + t, …` are all free; failing that, the
    /// first `(channel, offset)` whose cells `offset, offset + t, …` are
    /// all free. `None` when the plan is not a SUSC layout or a page
    /// finds no room.
    fn relocate(&self, before: &[bool], n_up: u32) -> Option<BroadcastProgram> {
        let (base, full) = match &self.active {
            SeedPlan::Full => (self.scheduler.program(), true),
            SeedPlan::Reduced(program) => (program, false),
            SeedPlan::BestEffort(_) | SeedPlan::Offline => return None,
        };
        let cycle = base.cycle_len();
        let mut grid: Vec<Option<PageId>> = Vec::new();
        let mut rank = 0;
        for (ch, &was) in before.iter().enumerate() {
            // The row this channel aired: its own in the full plan, its
            // rank among the live channels in a reduced one.
            let row = if full { ch } else { rank };
            if was {
                rank += 1;
            }
            if !self.channel_up[ch] {
                continue;
            }
            for slot in 0..cycle {
                let cell = if was {
                    let pos = GridPos::new(
                        ChannelId::new(u32::try_from(row).expect("fits in u32")),
                        SlotIndex::new(slot),
                    );
                    base.page_at(pos)
                } else {
                    None
                };
                grid.push(cell);
            }
        }
        // A live page keeps its cells only if all of them survived.
        let mut cells: BTreeMap<PageId, u64> = BTreeMap::new();
        for page in grid.iter().flatten() {
            *cells.entry(*page).or_default() += 1;
        }
        let catalogue = &self.times;
        for cell in &mut grid {
            if let Some(page) = *cell {
                if catalogue
                    .get(&page)
                    .is_none_or(|&t| cells[&page] * t != cycle)
                {
                    *cell = None;
                }
            }
        }
        let mut program = BroadcastProgram::new(n_up, cycle);
        for (i, cell) in grid.iter().enumerate() {
            if let Some(page) = *cell {
                let ch = u32::try_from(i as u64 / cycle).expect("fits in u32");
                let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(i as u64 % cycle));
                program.place(pos, page).expect("cells are distinct");
            }
        }
        let mut missing: Vec<(u64, PageId)> = catalogue
            .iter()
            .filter(|&(page, _)| program.frequency(*page) == 0)
            .map(|(&page, &t)| (t, page))
            .collect();
        missing.sort_unstable();
        // Every column each page airs in, read cell by cell.
        let columns_of = |grid: &BroadcastProgram| {
            let mut columns: BTreeMap<PageId, Vec<u64>> = BTreeMap::new();
            for ch in 0..grid.channels() {
                for slot in 0..cycle {
                    let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
                    if let Some(page) = grid.page_at(pos) {
                        let cols = columns.entry(page).or_default();
                        if !cols.contains(&slot) {
                            cols.push(slot);
                        }
                    }
                }
            }
            for cols in columns.values_mut() {
                cols.sort_unstable();
            }
            columns
        };
        let aired = columns_of(base);
        let own = columns_of(self.scheduler.program());
        for (t, page) in missing {
            let free = |ch: u32, y: u64| {
                (y..cycle).step_by(t as usize).all(|slot| {
                    program.is_free(GridPos::new(ChannelId::new(ch), SlotIndex::new(slot)))
                })
            };
            let family = (0..t).find(|&y| {
                aired
                    .get(&page)
                    .is_some_and(|cols| cols.iter().copied().eq((y..cycle).step_by(t as usize)))
            });
            let old = family.or_else(|| own.get(&page).and_then(|cols| cols.first().copied()));
            let (ch, y) = old
                .filter(|&y| y < t)
                .and_then(|y| (0..n_up).find(|&ch| free(ch, y)).map(|ch| (ch, y)))
                .or_else(|| {
                    (0..n_up).find_map(|ch| (0..t).find(|&y| free(ch, y)).map(|y| (ch, y)))
                })?;
            for slot in (y..cycle).step_by(t as usize) {
                let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
                program.place(pos, page).expect("the family is free");
            }
        }
        Some(program)
    }

    /// Transmits one slot: samples faults, walks the ladder, airs one
    /// column, and serves the waiters of every intact frame.
    pub fn tick(&mut self) -> SeedOutcome {
        let mut events = Vec::new();
        let configured = self.channel_up.len();
        let mut stalled = vec![false; configured];
        let mut corrupt_wanted = vec![false; configured];

        if let Some(injector) = self.injector.as_mut() {
            let faults = injector.sample(self.time, &self.channel_up);
            let before = self.channel_up.clone();
            let mut changed = false;
            for channel in faults.went_down {
                let ch = channel.index() as usize;
                if ch < configured && self.channel_up[ch] {
                    self.channel_up[ch] = false;
                    events.push(ChannelEvent::Down {
                        channel,
                        at: self.time,
                    });
                    changed = true;
                }
            }
            for channel in faults.came_up {
                let ch = channel.index() as usize;
                if ch < configured && !self.channel_up[ch] {
                    self.channel_up[ch] = true;
                    self.health.reset(channel);
                    events.push(ChannelEvent::Up {
                        channel,
                        at: self.time,
                    });
                    changed = true;
                }
            }
            stalled = faults.stalled;
            corrupt_wanted = faults.corrupted;
            if changed {
                self.refresh_plan(&before);
            }
        }

        let mut on_air: Vec<Option<PageId>> = vec![None; configured];
        match &self.active {
            SeedPlan::Full => {
                let program = self.scheduler.program();
                let column = self.time % program.cycle_len();
                for (ch, slot) in on_air.iter_mut().enumerate() {
                    if self.channel_up[ch] {
                        let channel = ChannelId::new(u32::try_from(ch).expect("fits in u32"));
                        *slot = program.page_at(GridPos::new(channel, SlotIndex::new(column)));
                    }
                }
            }
            SeedPlan::Reduced(program) | SeedPlan::BestEffort(program) => {
                let column = self.time % program.cycle_len();
                let mut row = 0u32;
                for (ch, slot) in on_air.iter_mut().enumerate() {
                    if self.channel_up[ch] && row < program.channels() {
                        *slot = program
                            .page_at(GridPos::new(ChannelId::new(row), SlotIndex::new(column)));
                        row += 1;
                    }
                }
            }
            SeedPlan::Offline => {}
        }

        let mut corrupted = vec![false; configured];
        for ch in 0..configured {
            if !self.channel_up[ch] {
                continue;
            }
            let channel = ChannelId::new(u32::try_from(ch).expect("fits in u32"));
            if stalled[ch] {
                if on_air[ch].take().is_some() {
                    if let Some(e) =
                        self.health
                            .record(channel, SlotObservation::Stalled, self.time)
                    {
                        events.push(e);
                    }
                }
            } else if on_air[ch].is_some() {
                let observation = if corrupt_wanted[ch] {
                    corrupted[ch] = true;
                    SlotObservation::Corrupt
                } else {
                    SlotObservation::Clean
                };
                if let Some(e) = self.health.record(channel, observation, self.time) {
                    events.push(e);
                }
            }
        }

        let mut deliveries = Vec::new();
        for ch in 0..configured {
            if corrupted[ch] {
                continue;
            }
            let Some(page) = on_air[ch] else { continue };
            if let Some(waiters) = self.waiting.remove(&page) {
                let expected = self.times.get(&page).copied();
                for (client, since) in waiters {
                    let wait = self.time - since + 1;
                    let within = expected.is_some_and(|t| wait <= t);
                    deliveries.push(SeedDelivery {
                        client,
                        page,
                        wait,
                        within_deadline: within,
                    });
                    self.delivered += 1;
                    self.total_wait += wait;
                    self.waiting_count -= 1;
                    if within {
                        self.on_time += 1;
                    }
                }
            }
        }

        if self.mode != Mode::Valid {
            self.degraded_slots += 1;
        }

        let outcome = SeedOutcome {
            mode: self.mode,
            on_air,
            corrupted,
            deliveries,
            events,
        };
        self.time += 1;
        self.slots_elapsed += 1;
        outcome
    }
}
