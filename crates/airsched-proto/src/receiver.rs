//! The receiving side: reassembling a client's view from a frame stream.
//!
//! [`Receiver`] consumes frames (one channel's worth or all channels'),
//! tracks slot synchronization, detects gaps after dozing, and surfaces
//! page receptions to the application.
//!
//! Real links corrupt frames. A receiver built with
//! [`Receiver::with_policy`] carries an
//! [`airsched_core::retry::RetryPolicy`] that bounds how long it chases a
//! page through the noise: every corrupt occurrence of a wanted page
//! ([`Receiver::consume_corrupt`]) burns one unit of that page's attempt
//! budget, an exhausted budget abandons the page (the client would fall
//! back to an on-demand channel), and a long enough run of *consecutive*
//! corrupt frames tunes the receiver away from the air entirely for the
//! policy's backoff window. [`Receiver::new`] keeps the legacy
//! behaviour — unlimited patience — via [`RetryPolicy::unlimited`].
//!
//! A receiver keeps one state per page id in a table indexed by the id —
//! not wanted, wanted with some attempts burned, or abandoned, packed in
//! one `u32` — so a frame costs one indexed read of 4 bytes. The table
//! grows only when a page is wanted: frames naming any `u32` page only
//! read it, and an id at or above [`PAGE_ID_LIMIT`] cannot be wanted, so
//! hostile bytes never size it.
//!
//! Receivers can optionally export their counters to an
//! [`airsched_obs::Obs`] handle via [`Receiver::attach_obs`]. All
//! receivers attached to the same handle share one set of
//! `airsched_receiver_*_total` series (the registry dedupes by name), so
//! the exported numbers are fleet aggregates; per-receiver figures remain
//! available through [`Receiver::stats`]. An unattached receiver pays
//! nothing.

use airsched_core::retry::RetryPolicy;
use airsched_core::types::{PageId, PAGE_ID_LIMIT};
use airsched_obs::metrics::Counter;
use airsched_obs::Obs;
use bytes::Bytes;

use crate::frame::Frame;

/// One successfully received page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reception {
    /// The page received.
    pub page: PageId,
    /// The slot it aired in.
    pub slot_time: u64,
    /// Its payload.
    pub payload: Bytes,
}

/// Receiver statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiverStats {
    /// Frames consumed (data + idle + corrupt).
    pub frames: u64,
    /// Data frames carrying a wanted page, received intact.
    pub hits: u64,
    /// Slot-clock gaps observed (frames whose slot_time skipped ahead).
    pub gaps: u64,
    /// Corrupt frames seen (outside backoff windows).
    pub corrupt: u64,
    /// Wanted pages given up on after exhausting their attempt budget.
    pub abandoned: u64,
    /// Tune-aways triggered by runs of consecutive corrupt frames.
    pub tune_aways: u64,
    /// Frames ignored because they arrived inside a backoff window.
    pub ignored: u64,
}

/// Hot-path metric handles mirroring [`ReceiverStats`], one relaxed
/// atomic add per increment. Shared across every receiver attached to the
/// same [`Obs`] handle.
#[derive(Debug, Clone)]
struct ReceiverObs {
    frames: Counter,
    hits: Counter,
    gaps: Counter,
    corrupt: Counter,
    abandoned: Counter,
    tune_aways: Counter,
    ignored: Counter,
}

impl ReceiverObs {
    fn new(obs: &Obs) -> Self {
        let registry = obs.registry();
        Self {
            frames: registry.counter("airsched_receiver_frames_total", &[]),
            hits: registry.counter("airsched_receiver_hits_total", &[]),
            gaps: registry.counter("airsched_receiver_gaps_total", &[]),
            corrupt: registry.counter("airsched_receiver_corrupt_total", &[]),
            abandoned: registry.counter("airsched_receiver_abandoned_total", &[]),
            tune_aways: registry.counter("airsched_receiver_tune_aways_total", &[]),
            ignored: registry.counter("airsched_receiver_ignored_total", &[]),
        }
    }
}

/// A client-side receiver with a set of wanted pages.
///
/// # Examples
///
/// ```
/// use airsched_core::types::{ChannelId, PageId};
/// use airsched_proto::frame::Frame;
/// use airsched_proto::receiver::Receiver;
/// use bytes::Bytes;
///
/// let mut rx = Receiver::new([PageId::new(3)]);
/// let frame = Frame::data(ChannelId::new(0), 5, PageId::new(3), Bytes::from_static(b"hi"));
/// let got = rx.consume(&frame).unwrap();
/// assert_eq!(got.page, PageId::new(3));
/// assert_eq!(rx.wanted().next(), None); // satisfied
/// ```
///
/// Bounded retries over a noisy link:
///
/// ```
/// use airsched_core::retry::RetryPolicy;
/// use airsched_core::types::{ChannelId, PageId};
/// use airsched_proto::frame::Frame;
/// use airsched_proto::receiver::Receiver;
/// use bytes::Bytes;
///
/// let policy = RetryPolicy::new(2)?;
/// let mut rx = Receiver::with_policy([PageId::new(3)], policy);
/// let frame = Frame::data(ChannelId::new(0), 0, PageId::new(3), Bytes::new());
/// assert_eq!(rx.consume_corrupt(&frame), None);           // one attempt left
/// assert_eq!(rx.consume_corrupt(&frame), Some(PageId::new(3))); // abandoned
/// assert_eq!(rx.wanted().next(), None);
/// assert!(rx.abandoned().eq([PageId::new(3)]));
/// # Ok::<(), airsched_core::retry::RetryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Receiver {
    /// The state of each page, indexed by page id; ids past the end are
    /// not wanted.
    pages: Vec<PageState>,
    /// Pages in a wanted state ([`PageState::burned`] is `Some`).
    wanted: usize,
    policy: RetryPolicy,
    /// Length of the current run of consecutive corrupt frames.
    corrupt_run: u32,
    /// While set, frames with `slot_time` below it are ignored.
    backoff_until: Option<u64>,
    last_slot: Option<u64>,
    stats: ReceiverStats,
    obs: Option<ReceiverObs>,
}

/// What a receiver knows about one page, in 4 bytes: two reserved
/// values stand for not wanted ([`PageState::IDLE`]) and abandoned
/// ([`PageState::ABANDONED`]); any smaller value is a wanted page with
/// that many corrupt occurrences burned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageState(u32);

impl PageState {
    /// Not wanted: never asked for, or received.
    const IDLE: Self = Self(u32::MAX);
    /// Given up on after exhausting its attempt budget.
    const ABANDONED: Self = Self(u32::MAX - 1);
    /// The most burned attempts a wanted page records; more saturate
    /// here, below both reserved values.
    const MAX_BURNED: u32 = u32::MAX - 2;

    /// Wanted, with `burned` corrupt occurrences burned (saturating).
    fn wanted(burned: u32) -> Self {
        Self(burned.min(Self::MAX_BURNED))
    }

    /// The attempts burned, or `None` when the page is not wanted.
    fn burned(self) -> Option<u32> {
        (self.0 <= Self::MAX_BURNED).then_some(self.0)
    }
}

impl Receiver {
    /// Creates a receiver wanting the given pages, with unlimited retries
    /// (the legacy behaviour).
    ///
    /// # Panics
    ///
    /// Panics if a page id is at or above [`PAGE_ID_LIMIT`], as
    /// [`Receiver::want`] does.
    pub fn new(wanted: impl IntoIterator<Item = PageId>) -> Self {
        Self::with_policy(wanted, RetryPolicy::unlimited())
    }

    /// Creates a receiver with a bounded [`RetryPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if a page id is at or above [`PAGE_ID_LIMIT`], as
    /// [`Receiver::want`] does.
    pub fn with_policy(wanted: impl IntoIterator<Item = PageId>, policy: RetryPolicy) -> Self {
        let mut rx = Self {
            pages: Vec::new(),
            wanted: 0,
            policy,
            corrupt_run: 0,
            backoff_until: None,
            last_slot: None,
            stats: ReceiverStats::default(),
            obs: None,
        };
        // The table is sized once, to the largest wanted id: growing it
        // want by want leaves a trail of freed blocks on the heap.
        let wanted: Vec<PageId> = wanted.into_iter().collect();
        let len = wanted
            .iter()
            .map(|p| p.index())
            .filter(|&id| id < PAGE_ID_LIMIT)
            .max()
            .map_or(0, |id| id as usize + 1);
        rx.pages.reserve_exact(len);
        for page in wanted {
            rx.want(page);
        }
        rx
    }

    /// Exports this receiver's counters through `obs` as
    /// `airsched_receiver_*_total` series. Counters are shared (summed)
    /// across every receiver attached to the same handle.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = Some(ReceiverObs::new(obs));
    }

    /// Pages still outstanding, in id order.
    pub fn wanted(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages_in(|state| state.burned().is_some())
    }

    /// Pages given up on after exhausting their attempt budget, in id
    /// order.
    pub fn abandoned(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages_in(|state| state == PageState::ABANDONED)
    }

    fn pages_in(&self, keep: fn(PageState) -> bool) -> impl Iterator<Item = PageId> + '_ {
        (0u32..)
            .zip(&self.pages)
            .filter(move |&(_, &state)| keep(state))
            .map(|(id, _)| PageId::new(id))
    }

    /// The state of `page`; ids past the table are not wanted. Only reads:
    /// a frame naming any page never grows the table.
    fn state(&self, page: PageId) -> PageState {
        self.pages
            .get(page.index() as usize)
            .copied()
            .unwrap_or(PageState::IDLE)
    }

    /// Moves `page`, which must be within the table, to `state`, keeping
    /// the count of wanted pages.
    fn set_state(&mut self, page: PageId, state: PageState) {
        let slot = &mut self.pages[page.index() as usize];
        self.wanted -= usize::from(slot.burned().is_some());
        self.wanted += usize::from(state.burned().is_some());
        *slot = state;
    }

    /// The retry policy in force.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Corrupt occurrences burned so far for a still-wanted page.
    #[must_use]
    pub fn attempts_for(&self, page: PageId) -> u32 {
        self.state(page).burned().unwrap_or(0)
    }

    /// Whether the receiver is tuned away from the air at `slot_time`.
    #[must_use]
    pub fn is_backing_off(&self, slot_time: u64) -> bool {
        self.backoff_until.is_some_and(|until| slot_time < until)
    }

    /// Adds a page to the want set (clearing any previous abandonment —
    /// re-wanting a page restarts its budget).
    ///
    /// # Panics
    ///
    /// Panics if the page id is at or above [`PAGE_ID_LIMIT`]: the
    /// receiver's table is indexed by page id, and no station airs such a
    /// page (admission rejects it).
    pub fn want(&mut self, page: PageId) {
        assert!(
            page.index() < PAGE_ID_LIMIT,
            "page {page} exceeds the page id limit of {PAGE_ID_LIMIT}"
        );
        let at = page.index() as usize;
        if at >= self.pages.len() {
            self.pages.resize(at + 1, PageState::IDLE);
        }
        self.set_state(page, PageState::wanted(0));
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Consumes one intact frame; returns a [`Reception`] if it satisfied
    /// a wanted page (which is then removed from the want set).
    ///
    /// Frames arriving inside a tune-away backoff window are ignored —
    /// the client is not listening, so even a wanted page passes it by.
    pub fn consume(&mut self, frame: &Frame) -> Option<Reception> {
        self.stats.frames += 1;
        if let Some(o) = &self.obs {
            o.frames.inc();
        }
        if self.is_backing_off(frame.slot_time) {
            self.stats.ignored += 1;
            if let Some(o) = &self.obs {
                o.ignored.inc();
            }
            return None;
        }
        self.backoff_until = None;
        self.track_slot(frame.slot_time);
        // Any intact frame proves the channel is alive again.
        self.corrupt_run = 0;

        let page = frame.page?;
        if self.state(page).burned().is_some() {
            self.set_state(page, PageState::IDLE);
            self.stats.hits += 1;
            if let Some(o) = &self.obs {
                o.hits.inc();
            }
            Some(Reception {
                page,
                slot_time: frame.slot_time,
                payload: frame.payload.clone(),
            })
        } else {
            None
        }
    }

    /// Consumes one frame that arrived corrupted (its header survived,
    /// its payload did not — the common failure on a bursty link).
    ///
    /// If the frame carried a wanted page, one unit of that page's
    /// attempt budget is burned; returns `Some(page)` when this
    /// corruption exhausted the budget and the page was abandoned. A long
    /// enough run of consecutive corrupt frames triggers the policy's
    /// tune-away: the receiver stops listening for `backoff_slots` slots.
    pub fn consume_corrupt(&mut self, frame: &Frame) -> Option<PageId> {
        self.stats.frames += 1;
        if let Some(o) = &self.obs {
            o.frames.inc();
        }
        if self.is_backing_off(frame.slot_time) {
            self.stats.ignored += 1;
            if let Some(o) = &self.obs {
                o.ignored.inc();
            }
            return None;
        }
        self.backoff_until = None;
        self.track_slot(frame.slot_time);
        self.stats.corrupt += 1;
        if let Some(o) = &self.obs {
            o.corrupt.inc();
        }

        let mut gave_up = None;
        if let Some(page) = frame.page {
            if let Some(burned) = self.state(page).burned() {
                // At most `MAX_BURNED + 1`, so no overflow; the stored
                // count saturates below the reserved values.
                let burned = burned + 1;
                if burned >= self.policy.max_attempts() {
                    self.set_state(page, PageState::ABANDONED);
                    self.stats.abandoned += 1;
                    if let Some(o) = &self.obs {
                        o.abandoned.inc();
                    }
                    gave_up = Some(page);
                } else {
                    self.set_state(page, PageState::wanted(burned));
                }
            }
        }

        self.corrupt_run = self.corrupt_run.saturating_add(1);
        if self.corrupt_run >= self.policy.tune_away_after() {
            self.corrupt_run = 0;
            // Saturating: a "never come back" backoff near u64::MAX must
            // pin to the end of time, not wrap into the past.
            self.backoff_until = Some(
                self.policy
                    .backoff_deadline(frame.slot_time.saturating_add(1)),
            );
            self.stats.tune_aways += 1;
            if let Some(o) = &self.obs {
                o.tune_aways.inc();
            }
        }
        gave_up
    }

    /// Whether every wanted page has been received (abandoned pages no
    /// longer count as wanted — the client has already fallen back to an
    /// on-demand path for them).
    #[must_use]
    pub fn is_satisfied(&self) -> bool {
        self.wanted == 0
    }

    fn track_slot(&mut self, slot_time: u64) {
        if let Some(last) = self.last_slot {
            // Saturating: a frame stamped `u64::MAX` must not overflow the
            // next frame's gap check; nothing can follow it without a gap.
            if slot_time > last.saturating_add(1) {
                self.stats.gaps += 1;
                if let Some(o) = &self.obs {
                    o.gaps.inc();
                }
            }
        }
        self.last_slot = Some(self.last_slot.map_or(slot_time, |l| l.max(slot_time)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::group::GroupLadder;
    use airsched_core::susc;
    use airsched_core::types::ChannelId;
    use bytes::Bytes;

    use crate::transmitter::{DebugPayloads, FrameStream};

    #[test]
    fn receiver_collects_wanted_pages_from_a_stream() {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        let program = susc::schedule(&ladder, 2).unwrap();
        let wanted: Vec<PageId> = ladder.pages().map(|(p, _)| p).collect();
        let mut rx = Receiver::new(wanted.iter().copied());
        let mut receptions = Vec::new();
        for frame in FrameStream::new(&program, DebugPayloads).take(64) {
            if let Some(r) = rx.consume(&frame) {
                receptions.push(r);
            }
            if rx.is_satisfied() {
                break;
            }
        }
        assert!(
            rx.is_satisfied(),
            "missing: {:?}",
            rx.wanted().collect::<Vec<_>>()
        );
        assert_eq!(receptions.len(), wanted.len());
        assert_eq!(rx.stats().hits, wanted.len() as u64);
        // Every page within one cycle: a valid SUSC program airs all pages
        // in the first t_h slots.
        assert!(receptions.iter().all(|r| r.slot_time < program.cycle_len()));
    }

    #[test]
    fn unwanted_pages_are_ignored() {
        let mut rx = Receiver::new([PageId::new(7)]);
        let frame = Frame::data(
            ChannelId::new(0),
            0,
            PageId::new(3),
            Bytes::from_static(b"x"),
        );
        assert!(rx.consume(&frame).is_none());
        assert!(!rx.is_satisfied());
        assert_eq!(rx.stats().hits, 0);
        assert_eq!(rx.stats().frames, 1);
    }

    #[test]
    fn gaps_are_detected_after_dozing() {
        let mut rx = Receiver::new([]);
        rx.consume(&Frame::idle(ChannelId::new(0), 0));
        rx.consume(&Frame::idle(ChannelId::new(0), 1));
        rx.consume(&Frame::idle(ChannelId::new(0), 5)); // dozed 1..5
        assert_eq!(rx.stats().gaps, 1);
        rx.consume(&Frame::idle(ChannelId::new(0), 6));
        assert_eq!(rx.stats().gaps, 1);
    }

    #[test]
    fn want_can_grow_dynamically() {
        let mut rx = Receiver::new([]);
        assert!(rx.is_satisfied());
        rx.want(PageId::new(1));
        assert!(!rx.is_satisfied());
        let frame = Frame::data(
            ChannelId::new(0),
            0,
            PageId::new(1),
            Bytes::from_static(b"y"),
        );
        assert!(rx.consume(&frame).is_some());
        assert!(rx.is_satisfied());
        // Receiving it again is a no-op.
        assert!(rx.consume(&frame).is_none());
    }

    fn data(slot: u64, page: u32) -> Frame {
        Frame::data(ChannelId::new(0), slot, PageId::new(page), Bytes::new())
    }

    #[test]
    fn last_slot_at_u64_max_does_not_overflow_the_gap_check() {
        // Regression: after a frame stamped `u64::MAX`, the next frame's
        // gap check computed `u64::MAX + 1` and panicked in debug builds.
        let mut rx = Receiver::new([]);
        rx.consume(&Frame::idle(ChannelId::new(0), u64::MAX));
        rx.consume(&Frame::idle(ChannelId::new(0), 3));
        rx.consume_corrupt(&data(u64::MAX, 1));
        rx.consume_corrupt(&data(7, 1));
        assert_eq!(rx.stats().frames, 4);
        assert_eq!(rx.stats().gaps, 0);
    }

    #[test]
    fn corrupt_occurrences_burn_the_attempt_budget() {
        let policy = RetryPolicy::new(3).unwrap();
        let mut rx = Receiver::with_policy([PageId::new(1)], policy);
        assert_eq!(rx.consume_corrupt(&data(0, 1)), None);
        assert_eq!(rx.attempts_for(PageId::new(1)), 1);
        assert_eq!(rx.consume_corrupt(&data(2, 1)), None);
        // Corrupt frames for other pages don't touch this budget.
        assert_eq!(rx.consume_corrupt(&data(3, 9)), None);
        assert_eq!(rx.attempts_for(PageId::new(1)), 2);
        // Third corruption exhausts the budget.
        assert_eq!(rx.consume_corrupt(&data(4, 1)), Some(PageId::new(1)));
        assert_eq!(rx.wanted().next(), None);
        assert!(rx.abandoned().eq([PageId::new(1)]));
        assert!(rx.is_satisfied()); // fell back to on-demand
        assert_eq!(rx.stats().abandoned, 1);
        assert_eq!(rx.stats().corrupt, 4);
    }

    #[test]
    fn clean_reception_clears_the_attempt_count() {
        let policy = RetryPolicy::new(2).unwrap();
        let mut rx = Receiver::with_policy([PageId::new(1)], policy);
        rx.consume_corrupt(&data(0, 1));
        assert_eq!(rx.attempts_for(PageId::new(1)), 1);
        assert!(rx.consume(&data(2, 1)).is_some());
        assert_eq!(rx.attempts_for(PageId::new(1)), 0);
        // Re-wanting the page after abandonment restarts its budget.
        rx.consume_corrupt(&data(3, 1)); // not wanted: no budget burned
        rx.want(PageId::new(1));
        assert_eq!(rx.attempts_for(PageId::new(1)), 0);
    }

    #[test]
    fn consecutive_corruption_tunes_the_receiver_away() {
        let policy = RetryPolicy::unlimited().with_tune_away(2, 4).unwrap();
        let mut rx = Receiver::with_policy([PageId::new(1)], policy);
        rx.consume_corrupt(&data(0, 9));
        assert!(!rx.is_backing_off(1));
        rx.consume_corrupt(&data(1, 9)); // second in a row: tune away
        assert_eq!(rx.stats().tune_aways, 1);
        // Backing off through slots 2..=5; even a wanted page passes by.
        assert!(rx.is_backing_off(2));
        assert!(rx.consume(&data(3, 1)).is_none());
        assert_eq!(rx.stats().ignored, 1);
        assert!(!rx.is_satisfied());
        // Listening again from slot 6.
        assert!(!rx.is_backing_off(6));
        assert!(rx.consume(&data(6, 1)).is_some());
        assert!(rx.is_satisfied());
    }

    #[test]
    fn intact_frames_reset_the_corrupt_run() {
        let policy = RetryPolicy::unlimited().with_tune_away(2, 4).unwrap();
        let mut rx = Receiver::with_policy([], policy);
        rx.consume_corrupt(&data(0, 9));
        rx.consume(&Frame::idle(ChannelId::new(0), 1)); // run broken
        rx.consume_corrupt(&data(2, 9));
        assert_eq!(rx.stats().tune_aways, 0);
        rx.consume_corrupt(&data(3, 9));
        assert_eq!(rx.stats().tune_aways, 1);
    }

    #[test]
    fn attached_obs_counters_mirror_stats_exactly() {
        let obs = airsched_obs::Obs::new();
        let policy = RetryPolicy::new(2).unwrap().with_tune_away(3, 4).unwrap();
        let mut rx = Receiver::with_policy([PageId::new(1), PageId::new(2)], policy);
        rx.attach_obs(&obs);
        // Exercise every counter: a hit, a gap, corruption to abandonment,
        // a tune-away, and an ignored in-backoff frame.
        assert!(rx.consume(&data(0, 1)).is_some());
        rx.consume(&Frame::idle(ChannelId::new(0), 5)); // gap
        rx.consume_corrupt(&data(6, 2));
        rx.consume_corrupt(&data(7, 2)); // budget gone: abandoned
        rx.consume_corrupt(&data(8, 9)); // third in a row: tune away
        assert!(rx.consume(&data(9, 9)).is_none()); // ignored (backing off)

        let snapshot = obs.snapshot();
        let stats = rx.stats();
        for (name, want) in [
            ("airsched_receiver_frames_total", stats.frames),
            ("airsched_receiver_hits_total", stats.hits),
            ("airsched_receiver_gaps_total", stats.gaps),
            ("airsched_receiver_corrupt_total", stats.corrupt),
            ("airsched_receiver_abandoned_total", stats.abandoned),
            ("airsched_receiver_tune_aways_total", stats.tune_aways),
            ("airsched_receiver_ignored_total", stats.ignored),
        ] {
            assert!(want > 0, "{name}: test failed to exercise the counter");
            assert_eq!(snapshot.scalar_total(name), want, "{name} diverged");
        }
    }

    #[test]
    fn unattached_receiver_registers_nothing() {
        let obs = airsched_obs::Obs::new();
        let mut rx = Receiver::new([PageId::new(1)]);
        assert!(rx.consume(&data(0, 1)).is_some());
        assert!(obs.snapshot().families.is_empty());
        assert_eq!(rx.stats().hits, 1);
    }

    #[test]
    fn frames_naming_any_page_never_grow_the_table() {
        let policy = RetryPolicy::new(1).unwrap();
        let mut rx = Receiver::with_policy([PageId::new(2)], policy);
        assert_eq!(rx.pages.len(), 3);
        for page in [3, PAGE_ID_LIMIT - 1, PAGE_ID_LIMIT, u32::MAX] {
            assert!(rx.consume(&data(0, page)).is_none());
            assert_eq!(rx.consume_corrupt(&data(1, page)), None);
            assert_eq!(rx.attempts_for(PageId::new(page)), 0);
        }
        assert_eq!(rx.pages.len(), 3);
        assert!(rx.wanted().eq([PageId::new(2)]));
        assert_eq!(rx.stats().frames, 8);
    }

    #[test]
    #[should_panic(expected = "page id limit")]
    fn wanting_a_page_past_the_limit_panics() {
        Receiver::new([]).want(PageId::new(PAGE_ID_LIMIT));
    }

    #[test]
    #[should_panic(expected = "page id limit")]
    fn a_receiver_built_for_a_page_past_the_limit_panics() {
        let _ = Receiver::new([PageId::new(u32::MAX)]);
    }

    #[test]
    fn an_unlimited_count_saturates_below_the_reserved_states() {
        let page = PageId::new(1);
        let mut rx = Receiver::new([page]);
        rx.pages[1] = PageState::wanted(PageState::MAX_BURNED - 2);
        for slot in 0..4 {
            assert_eq!(rx.consume_corrupt(&data(slot, 1)), None);
        }
        assert_eq!(rx.attempts_for(page), PageState::MAX_BURNED);
        assert_eq!(rx.pages[1], PageState::wanted(u32::MAX));
        assert!(rx.wanted().eq([page]));
        assert_eq!(rx.abandoned().next(), None);
        assert!(!rx.is_satisfied());
        assert!(rx.consume(&data(4, 1)).is_some());
        assert_eq!(rx.attempts_for(page), 0);
        assert!(rx.is_satisfied());
        // A budget just below the reserved values still abandons.
        let policy = RetryPolicy::new(PageState::MAX_BURNED + 1).unwrap();
        let mut rx = Receiver::with_policy([page], policy);
        rx.pages[1] = PageState::wanted(PageState::MAX_BURNED - 1);
        assert_eq!(rx.consume_corrupt(&data(0, 1)), None);
        assert_eq!(rx.consume_corrupt(&data(1, 1)), Some(page));
        assert!(rx.abandoned().eq([page]));
        assert_eq!(rx.wanted().next(), None);
        assert!(rx.is_satisfied());
    }

    #[test]
    fn unlimited_policy_never_abandons() {
        let mut rx = Receiver::new([PageId::new(1)]);
        for slot in 0..100 {
            assert_eq!(rx.consume_corrupt(&data(slot, 1)), None);
        }
        assert!(rx.wanted().eq([PageId::new(1)]));
        assert_eq!(rx.abandoned().next(), None);
        assert_eq!(rx.stats().tune_aways, 0);
    }
}
