//! Deterministic fault injection for the broadcast station.
//!
//! A [`FaultPlan`] describes *what goes wrong*: a scripted list of
//! [`FaultEvent`]s (channel outages and recoveries, one-slot transmitter
//! stalls, corrupted frames) plus optional seed-driven random fault rates.
//! A [`FaultInjector`] executes the plan slot by slot against the
//! station's channel mask, handing the station one [`SlotFaults`] per
//! tick; the station applies the reported transitions to its mask, the
//! only record of which channels are up.
//!
//! Everything here is deterministic: the injector draws a fixed number of
//! random samples per channel per slot (whether or not each sample is
//! used), so two injectors built from the same plan produce byte-identical
//! fault streams — and therefore two identically-driven stations produce
//! identical [`crate::TickOutcome`] streams. That property is what makes
//! chaos tests reproducible.

use airsched_core::types::ChannelId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One scripted fault, pinned to an absolute slot time.
///
/// Events whose channel is out of range for the station are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// The channel's transmitter dies at the start of slot `at`.
    Down {
        /// Slot at which the outage begins.
        at: u64,
        /// The failing channel.
        channel: ChannelId,
    },
    /// The channel's transmitter comes back at the start of slot `at`.
    Up {
        /// Slot at which the recovery happens.
        at: u64,
        /// The recovering channel.
        channel: ChannelId,
    },
    /// The transmitter stalls for exactly slot `at`: nothing is sent, the
    /// carrier goes idle for one slot.
    Stall {
        /// The stalled slot.
        at: u64,
        /// The stalling channel.
        channel: ChannelId,
    },
    /// The frame sent in slot `at` goes out corrupted: receivers see the
    /// transmission but cannot use it.
    Corrupt {
        /// The corrupted slot.
        at: u64,
        /// The corrupting channel.
        channel: ChannelId,
    },
}

impl FaultEvent {
    /// The slot this event fires in.
    #[must_use]
    pub fn at(&self) -> u64 {
        match self {
            Self::Down { at, .. }
            | Self::Up { at, .. }
            | Self::Stall { at, .. }
            | Self::Corrupt { at, .. } => *at,
        }
    }

    /// The channel this event targets.
    #[must_use]
    pub fn channel(&self) -> ChannelId {
        match self {
            Self::Down { channel, .. }
            | Self::Up { channel, .. }
            | Self::Stall { channel, .. }
            | Self::Corrupt { channel, .. } => *channel,
        }
    }
}

/// A reproducible description of the faults to inject into a station.
///
/// Combines a scripted event list (applied at exact slots, always winning
/// over the random phase) with per-slot, per-channel random fault
/// probabilities drawn from a seeded generator.
///
/// # Examples
///
/// ```
/// use airsched_core::types::ChannelId;
/// use airsched_server::faults::{FaultEvent, FaultPlan};
///
/// // Channel 1 dies at slot 10 and recovers at slot 30; on top of that,
/// // 1% of frames are corrupted at random (seed 7).
/// let plan = FaultPlan::seeded(7)
///     .with_corruption(0.01)
///     .with_script(vec![
///         FaultEvent::Down { at: 10, channel: ChannelId::new(1) },
///         FaultEvent::Up { at: 30, channel: ChannelId::new(1) },
///     ]);
/// assert_eq!(plan.script().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    script: Vec<FaultEvent>,
    seed: u64,
    outage: f64,
    recovery: f64,
    stall: f64,
    corruption: f64,
}

fn assert_probability(p: f64, what: &str) {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "{what} must be a probability in [0, 1], got {p}"
    );
}

impl FaultPlan {
    /// A purely scripted plan: no random faults at all.
    #[must_use]
    pub fn scripted(events: Vec<FaultEvent>) -> Self {
        Self::seeded(0).with_script(events)
    }

    /// An empty plan drawing random faults from `seed` (rates default to
    /// zero; set them with the `with_*` builders).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            script: Vec::new(),
            seed,
            outage: 0.0,
            recovery: 0.0,
            stall: 0.0,
            corruption: 0.0,
        }
    }

    /// Replaces the scripted event list.
    #[must_use]
    pub fn with_script(mut self, events: Vec<FaultEvent>) -> Self {
        self.script = events;
        self
    }

    /// Per-slot probability that a live channel fails.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_outage(mut self, p: f64) -> Self {
        assert_probability(p, "outage rate");
        self.outage = p;
        self
    }

    /// Per-slot probability that a dead channel recovers.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_recovery(mut self, p: f64) -> Self {
        assert_probability(p, "recovery rate");
        self.recovery = p;
        self
    }

    /// Per-slot probability that a live channel stalls for one slot.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_stalls(mut self, p: f64) -> Self {
        assert_probability(p, "stall rate");
        self.stall = p;
        self
    }

    /// Per-slot probability that a live channel's frame goes out corrupted.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert_probability(p, "corruption rate");
        self.corruption = p;
        self
    }

    /// The scripted events (in the order they were supplied).
    #[must_use]
    pub fn script(&self) -> &[FaultEvent] {
        &self.script
    }

    /// The random-phase seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-slot outage probability.
    #[must_use]
    pub fn outage(&self) -> f64 {
        self.outage
    }

    /// Per-slot recovery probability.
    #[must_use]
    pub fn recovery(&self) -> f64 {
        self.recovery
    }

    /// Per-slot stall probability.
    #[must_use]
    pub fn stall(&self) -> f64 {
        self.stall
    }

    /// Per-slot corruption probability.
    #[must_use]
    pub fn corruption(&self) -> f64 {
        self.corruption
    }
}

/// The faults affecting one slot, as produced by [`FaultInjector::sample`].
///
/// `stalled` and `corrupted` are indexed by physical channel; transition
/// lists record channels whose up/down state changed *this* slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotFaults {
    /// Channels that failed at the start of this slot.
    pub went_down: Vec<ChannelId>,
    /// Channels that recovered at the start of this slot.
    pub came_up: Vec<ChannelId>,
    /// Per-channel: transmitter stalled for this slot (nothing sent).
    pub stalled: Vec<bool>,
    /// Per-channel: this slot's frame goes out corrupted.
    pub corrupted: Vec<bool>,
}

impl SlotFaults {
    /// An empty fault set sized for zero channels — the starting point for
    /// [`FaultInjector::sample_into`], which resizes it in place.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            went_down: Vec::new(),
            came_up: Vec::new(),
            stalled: Vec::new(),
            corrupted: Vec::new(),
        }
    }

    /// Whether this slot is entirely fault-free.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.went_down.is_empty()
            && self.came_up.is_empty()
            && !self.stalled.iter().any(|&s| s)
            && !self.corrupted.iter().any(|&c| c)
    }
}

impl Default for SlotFaults {
    fn default() -> Self {
        Self::empty()
    }
}

/// Executes a [`FaultPlan`] one slot at a time against the caller's
/// channel mask.
///
/// The injector holds no channel state of its own: each slot it reads the
/// caller's up/down mask and reports the transitions the plan makes from
/// it. The random phase draws exactly four samples per channel per slot
/// (outage, recovery, stall, corruption) regardless of whether each
/// applies, so the random stream never depends on channel state and runs
/// stay reproducible even when scripts and random faults interleave.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    script: Vec<FaultEvent>,
    cursor: usize,
    rng: SmallRng,
    outage: f64,
    recovery: f64,
    stall: f64,
    corruption: f64,
    /// Scratch: the channel state as the current slot evolves it from the
    /// caller's mask, kept on the injector so [`Self::sample_into`]
    /// allocates nothing per call.
    next: Vec<bool>,
}

impl FaultInjector {
    /// Builds an injector for a station with `channels` transmitters.
    #[must_use]
    pub fn new(plan: &FaultPlan, channels: u32) -> Self {
        let mut script = plan.script.clone();
        // Stable: same-slot events keep their scripted order.
        script.sort_by_key(FaultEvent::at);
        Self {
            script,
            cursor: 0,
            rng: SmallRng::seed_from_u64(plan.seed),
            outage: plan.outage,
            recovery: plan.recovery,
            stall: plan.stall,
            corruption: plan.corruption,
            next: Vec::with_capacity(channels as usize),
        }
    }

    /// Captures the injector's evolving state — script cursor and RNG
    /// state — with the caller's channel mask `up`, for checkpointing.
    /// The static parts (script, rates) are rebuilt from the plan on
    /// restore.
    #[must_use]
    pub fn snapshot(&self, up: &[bool]) -> FaultInjectorSnapshot {
        FaultInjectorSnapshot {
            cursor: u64::try_from(self.cursor).expect("cursor fits in u64"),
            rng_state: self.rng.state(),
            up: up.to_vec(),
        }
    }

    /// Rebuilds an injector from its originating plan plus a snapshot
    /// taken by [`Self::snapshot`]. Fed the snapshot's mask, the restored
    /// injector's fault stream is bit-identical to the continuation of
    /// the snapshotted one.
    #[must_use]
    pub fn from_snapshot(plan: &FaultPlan, snapshot: &FaultInjectorSnapshot) -> Self {
        let mut inj = Self::new(plan, u32::try_from(snapshot.up.len()).expect("fits in u32"));
        inj.cursor = usize::try_from(snapshot.cursor).expect("cursor fits in usize");
        inj.rng = SmallRng::seed_from_u64(snapshot.rng_state);
        inj
    }

    /// Produces the faults for slot `time` on channels whose state at the
    /// start of the slot is `up`.
    ///
    /// `time` must advance monotonically across calls for scripted events
    /// to fire (each is applied the first time `sample` sees a slot at or
    /// past its `at`). The caller applies the reported transitions to its
    /// mask before the next call.
    pub fn sample(&mut self, time: u64, up: &[bool]) -> SlotFaults {
        let mut out = SlotFaults::empty();
        self.sample_into(time, up, &mut out);
        out
    }

    /// Allocation-free sibling of [`Self::sample`]: fills `out` in place,
    /// reusing its buffers across slots. Byte-identical to `sample` for the
    /// same injector state and mask — the station's hot tick path relies
    /// on that.
    pub fn sample_into(&mut self, time: u64, up: &[bool], out: &mut SlotFaults) {
        let n = up.len();
        self.next.clear();
        self.next.extend_from_slice(up);
        out.went_down.clear();
        out.came_up.clear();
        out.stalled.clear();
        out.stalled.resize(n, false);
        out.corrupted.clear();
        out.corrupted.resize(n, false);

        // Random phase: a fixed four draws per channel, state-independent.
        for ch in 0..n {
            let outage_draw: f64 = self.rng.gen();
            let recovery_draw: f64 = self.rng.gen();
            let stall_draw: f64 = self.rng.gen();
            let corrupt_draw: f64 = self.rng.gen();
            if self.next[ch] && outage_draw < self.outage {
                self.next[ch] = false;
            } else if !self.next[ch] && recovery_draw < self.recovery {
                self.next[ch] = true;
            }
            out.stalled[ch] = stall_draw < self.stall;
            out.corrupted[ch] = corrupt_draw < self.corruption;
        }

        // Scripted phase: overrides whatever the random phase decided.
        while let Some(event) = self.script.get(self.cursor) {
            if event.at() > time {
                break;
            }
            let ch = event.channel().index() as usize;
            if ch < n {
                match event {
                    FaultEvent::Down { .. } => self.next[ch] = false,
                    FaultEvent::Up { .. } => self.next[ch] = true,
                    FaultEvent::Stall { at, .. } if *at == time => out.stalled[ch] = true,
                    FaultEvent::Corrupt { at, .. } if *at == time => out.corrupted[ch] = true,
                    // A stall/corrupt slot that was skipped over (the
                    // caller jumped past it) has no lasting effect.
                    FaultEvent::Stall { .. } | FaultEvent::Corrupt { .. } => {}
                }
            }
            self.cursor += 1;
        }

        for (ch, &was_up) in up.iter().enumerate() {
            let id = ChannelId::new(u32::try_from(ch).expect("channel fits in u32"));
            match (was_up, self.next[ch]) {
                (true, false) => out.went_down.push(id),
                (false, true) => out.came_up.push(id),
                _ => {}
            }
        }
        // Down channels transmit nothing, so stall/corrupt flags only
        // matter for live ones; mask them for cleanliness.
        for ch in 0..n {
            if !self.next[ch] {
                out.stalled[ch] = false;
                out.corrupted[ch] = false;
            }
        }
    }
}

/// The evolving part of a [`FaultInjector`]'s state, as captured by
/// [`FaultInjector::snapshot`] for the crash-recovery checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjectorSnapshot {
    /// Position in the (sorted) scripted event list.
    pub cursor: u64,
    /// Internal state of the random-phase generator.
    pub rng_state: u64,
    /// The station's channel mask at snapshot time.
    pub up: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(i: u32) -> ChannelId {
        ChannelId::new(i)
    }

    /// An injector driven over a channel mask it is handed, as the
    /// station drives it: each slot's transitions are applied to the mask
    /// before the next slot.
    struct Driven {
        inj: FaultInjector,
        up: Vec<bool>,
    }

    impl Driven {
        fn new(plan: &FaultPlan, channels: u32) -> Self {
            Self {
                inj: FaultInjector::new(plan, channels),
                up: vec![true; channels as usize],
            }
        }

        fn sample(&mut self, time: u64) -> SlotFaults {
            let faults = self.inj.sample(time, &self.up);
            for (channels, up) in [(&faults.went_down, false), (&faults.came_up, true)] {
                for c in channels {
                    self.up[c.index() as usize] = up;
                }
            }
            faults
        }
    }

    #[test]
    fn scripted_outage_and_recovery_fire_on_time() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent::Down {
                at: 2,
                channel: ch(0),
            },
            FaultEvent::Up {
                at: 5,
                channel: ch(0),
            },
        ]);
        let mut inj = Driven::new(&plan, 2);
        assert!(inj.sample(0).is_clean());
        assert!(inj.sample(1).is_clean());
        let f = inj.sample(2);
        assert_eq!(f.went_down, vec![ch(0)]);
        assert_eq!(inj.up, [false, true]);
        assert!(inj.sample(3).is_clean());
        assert!(inj.sample(4).is_clean());
        let f = inj.sample(5);
        assert_eq!(f.came_up, vec![ch(0)]);
        assert_eq!(inj.up, [true, true]);
    }

    #[test]
    fn scripted_stall_and_corrupt_last_one_slot() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent::Stall {
                at: 1,
                channel: ch(0),
            },
            FaultEvent::Corrupt {
                at: 1,
                channel: ch(1),
            },
        ]);
        let mut inj = Driven::new(&plan, 2);
        assert!(inj.sample(0).is_clean());
        let f = inj.sample(1);
        assert_eq!(f.stalled, vec![true, false]);
        assert_eq!(f.corrupted, vec![false, true]);
        assert!(inj.sample(2).is_clean());
    }

    #[test]
    fn same_seed_means_identical_fault_streams() {
        let plan = FaultPlan::seeded(42)
            .with_outage(0.1)
            .with_recovery(0.3)
            .with_stalls(0.05)
            .with_corruption(0.2);
        let mut a = Driven::new(&plan, 4);
        let mut b = Driven::new(&plan, 4);
        for t in 0..500 {
            assert_eq!(a.sample(t), b.sample(t), "diverged at slot {t}");
        }
    }

    #[test]
    fn random_faults_actually_happen_and_recover() {
        let plan = FaultPlan::seeded(7).with_outage(0.2).with_recovery(0.5);
        let mut inj = Driven::new(&plan, 3);
        let mut saw_down = false;
        let mut saw_up = false;
        for t in 0..200 {
            let f = inj.sample(t);
            saw_down |= !f.went_down.is_empty();
            saw_up |= !f.came_up.is_empty();
        }
        assert!(saw_down && saw_up);
    }

    #[test]
    fn out_of_range_scripted_channels_are_ignored() {
        let plan = FaultPlan::scripted(vec![FaultEvent::Down {
            at: 0,
            channel: ch(9),
        }]);
        let mut inj = Driven::new(&plan, 2);
        assert!(inj.sample(0).is_clean());
        assert_eq!(inj.up, [true, true]);
    }

    #[test]
    fn transitions_are_reported_from_the_callers_mask() {
        // A channel the caller holds down (say, failed by hand) is not
        // reported down again, and a scripted `Up` brings it back.
        let plan = FaultPlan::scripted(vec![
            FaultEvent::Down {
                at: 0,
                channel: ch(1),
            },
            FaultEvent::Up {
                at: 1,
                channel: ch(1),
            },
        ]);
        let mut inj = FaultInjector::new(&plan, 2);
        assert!(inj.sample(0, &[true, false]).is_clean());
        assert_eq!(inj.sample(1, &[true, false]).came_up, vec![ch(1)]);
    }

    #[test]
    fn sample_into_reusing_one_buffer_matches_sample() {
        let plan = FaultPlan::seeded(11)
            .with_outage(0.1)
            .with_recovery(0.3)
            .with_stalls(0.05)
            .with_corruption(0.2)
            .with_script(vec![
                FaultEvent::Down {
                    at: 40,
                    channel: ch(2),
                },
                FaultEvent::Up {
                    at: 90,
                    channel: ch(2),
                },
            ]);
        let mut fresh = Driven::new(&plan, 4);
        let mut reused = FaultInjector::new(&plan, 4);
        let mut buf = SlotFaults::default();
        for t in 0..300 {
            reused.sample_into(t, &fresh.up, &mut buf);
            assert_eq!(fresh.sample(t), buf, "diverged at slot {t}");
        }
    }

    #[test]
    fn snapshot_restores_the_exact_fault_stream() {
        let plan = FaultPlan::seeded(23)
            .with_outage(0.1)
            .with_recovery(0.3)
            .with_stalls(0.05)
            .with_corruption(0.2)
            .with_script(vec![
                FaultEvent::Down {
                    at: 150,
                    channel: ch(1),
                },
                FaultEvent::Up {
                    at: 220,
                    channel: ch(1),
                },
            ]);
        let mut reference = Driven::new(&plan, 3);
        for t in 0..100 {
            reference.sample(t);
        }
        let snap = reference.inj.snapshot(&reference.up);
        let mut restored = Driven {
            inj: FaultInjector::from_snapshot(&plan, &snap),
            up: snap.up.clone(),
        };
        for t in 100..300 {
            assert_eq!(reference.sample(t), restored.sample(t), "slot {t}");
        }
        assert_eq!(
            reference.inj.snapshot(&reference.up),
            restored.inj.snapshot(&restored.up)
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_rates_above_one() {
        let _ = FaultPlan::seeded(0).with_outage(1.5);
    }

    #[test]
    fn down_channels_do_not_stall_or_corrupt() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent::Down {
                at: 0,
                channel: ch(0),
            },
            FaultEvent::Stall {
                at: 1,
                channel: ch(0),
            },
            FaultEvent::Corrupt {
                at: 1,
                channel: ch(0),
            },
        ]);
        let mut inj = Driven::new(&plan, 1);
        inj.sample(0);
        let f = inj.sample(1);
        assert_eq!(f.stalled, vec![false]);
        assert_eq!(f.corrupted, vec![false]);
    }
}
