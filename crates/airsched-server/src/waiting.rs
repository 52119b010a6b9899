//! Struct-of-arrays storage for the station's waiting sets.
//!
//! The seed layout — `Vec<Vec<(ClientId, u64)>>` indexed by dense page id —
//! collapses past ~100k subscribers: every subscription chases a pointer to
//! a separately-allocated per-page `Vec`, and the loads it must wait on
//! (the `Vec` header, the tail line) are scattered across megabytes, so the
//! subscribe loop serializes on cache-miss latency. This module replaces it
//! with:
//!
//! * a dense table of 12-byte [`PageMeta`] records (span offset / length /
//!   capacity) indexed by dense page id — the only per-page metadata the
//!   hot paths touch;
//! * one **span arena** of `(client, since)` records, with each page
//!   owning a contiguous offset range, so a tick's drain walks plain
//!   slices and batches the deadline verdict branch-free.
//!
//! The set holds waiters only. Whether a page is live, and its expected
//! time, is the scheduler's catalogue: the station checks it before a
//! subscribe and hands each drain the page's deadline. A subscription
//! therefore costs one store at the page's span tail and one 12-byte meta
//! update — where the seed paid a pointer chase through the outer `Vec`
//! header and a separately allocated per-page `Vec` before reaching the
//! tail.
//!
//! ## Determinism
//!
//! The arena evolves only through `subscribe`, `publish`, restore, and
//! drains — all driven from the station's single thread.
//! Drains only zero span lengths, and per-page FIFO (arrival) order is
//! the only order that reaches any output, so the layout never shows in
//! a `TickOutcome` or a snapshot (DESIGN.md §12).

use airsched_core::types::PageId;

use crate::station::{ClientId, Delivery};

/// Smallest span capacity handed to a page on publish; doubles on growth.
const MIN_SPAN_CAP: u32 = 8;

/// Per-page record in the meta table. Liveness is not here — it is the
/// scheduler's catalogue; a meta only describes the page's span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageMeta {
    /// Start of the page's span in the arena.
    off: u32,
    /// Waiters currently in the span.
    len: u32,
    /// Records reserved for the span (0 = no span allocated yet).
    cap: u32,
}

/// Stat movement produced by draining one or more pages — merged with
/// plain adds and applied to [`crate::station::StationStats`] once per
/// tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DrainDelta {
    /// Waiters served.
    pub delivered: u64,
    /// Of those, served within their page's expected time.
    pub on_time: u64,
    /// Sum of their waits.
    pub total_wait: u64,
}

impl DrainDelta {
    /// Accumulates another delta (plain `u64` adds: order-independent).
    #[inline]
    pub fn merge(&mut self, other: Self) {
        self.delivered += other.delivered;
        self.on_time += other.on_time;
        self.total_wait = self.total_wait.wrapping_add(other.total_wait);
    }
}

/// The station's waiting clients in struct-of-arrays form: a meta table
/// and a span arena of `(client, since)` records, indexed by dense page
/// id. The meta table is as long as the highest page id ever published,
/// plus one. Spans are reused across drains (`len` drops to 0, `cap`
/// stays), grow by doubling — extending in place when the span sits at
/// the arena tail, relocating otherwise. A relocation strands the old
/// span, but doubling keeps the stranded records below the live
/// capacity, so the arena stays under twice what its spans hold and is
/// never compacted (DESIGN.md §12.1).
///
/// Publicly (through `Station`) it behaves exactly like the seed's
/// `waiting: Vec<Vec<(ClientId, u64)>>`, including snapshot shape:
/// [`WaitingSet::snapshot_waiting`] reproduces that dense vector
/// verbatim, and [`WaitingSet::published_len`] the length of the seed's
/// `expected` vector, so the checkpoint format carries no trace of the
/// arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaitingSet {
    /// Grows at publish, never shrinks — the seed's `expected` length.
    metas: Vec<PageMeta>,
    arena: Vec<(u64, u64)>,
    /// Length the seed's `waiting` vector would have: the largest
    /// subscribed dense index + 1 (or whatever a restore carried).
    /// Reproduced in snapshots so restores round-trip byte-identically.
    dense_len: usize,
}

impl WaitingSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// One past the highest page index ever published (or carried by a
    /// restore): the length of the seed's `expected` vector.
    pub fn published_len(&self) -> usize {
        self.metas.len()
    }

    /// Records a publish: sizes the page's meta (and minimum span) so
    /// steady-state subscribes never resize. An expire needs no record:
    /// waiters stay parked, served only if the page returns.
    pub fn publish(&mut self, idx: usize) {
        self.ensure_page(idx);
    }

    /// Appends one waiter for a live page (the caller checks liveness).
    ///
    /// `publish` already sized the page's meta and minimum span, so the
    /// steady-state path is one store to the span tail and one meta
    /// update — no resize branch and no pointer chase through a per-page
    /// allocation.
    #[inline]
    pub fn subscribe(&mut self, idx: usize, client: u64, since: u64) {
        self.append_direct(idx, client, since);
        if idx >= self.dense_len {
            self.dense_len = idx + 1;
        }
    }

    /// Sizes the page's meta slot and a minimum span so steady-state
    /// subscribes never resize. Called at publish and restore.
    fn ensure_page(&mut self, idx: usize) {
        if self.metas.len() <= idx {
            self.metas.resize(idx + 1, PageMeta::default());
        }
        let m = &mut self.metas[idx];
        if m.cap == 0 {
            m.off = u32::try_from(self.arena.len()).expect("arena offset fits in u32");
            m.cap = MIN_SPAN_CAP;
            let new_len = self.arena.len() + MIN_SPAN_CAP as usize;
            self.arena.resize(new_len, (0, 0));
        }
    }

    /// Appends one waiter to `idx`'s span. Publish pre-sizes metas and
    /// spans, so the resize and growth branches only fire on the restore
    /// path and on spans outgrowing their capacity.
    #[inline]
    fn append_direct(&mut self, idx: usize, client: u64, since: u64) {
        if self.metas.len() <= idx {
            self.metas.resize(idx + 1, PageMeta::default());
        }
        let m = self.metas[idx];
        if m.len == m.cap {
            self.grow_and_append(idx, client, since);
        } else {
            self.arena[(m.off + m.len) as usize] = (client, since);
            self.metas[idx].len = m.len + 1;
        }
    }

    /// Slow path of the scatter: the span is full (or absent). Doubles
    /// the span, extending in place when it already ends at the arena
    /// tail and relocating it there otherwise.
    #[inline(never)]
    fn grow_and_append(&mut self, idx: usize, client: u64, since: u64) {
        let m = self.metas[idx];
        let tail = self.arena.len();
        if m.cap == 0 {
            let off = u32::try_from(tail).expect("arena offset fits in u32");
            self.metas[idx] = PageMeta {
                off,
                len: 1,
                cap: MIN_SPAN_CAP,
            };
            self.arena.resize(tail + MIN_SPAN_CAP as usize, (0, 0));
            self.arena[tail] = (client, since);
            return;
        }
        let new_cap = m.cap * 2;
        if (m.off + m.cap) as usize == tail {
            self.arena.resize(m.off as usize + new_cap as usize, (0, 0));
        } else {
            let off = m.off as usize;
            self.arena.extend_from_within(off..off + m.len as usize);
            self.arena.resize(tail + new_cap as usize, (0, 0));
            self.metas[idx].off = u32::try_from(tail).expect("arena offset fits in u32");
        }
        let grown = self.metas[idx];
        self.arena[(grown.off + grown.len) as usize] = (client, since);
        self.metas[idx].len = grown.len + 1;
        self.metas[idx].cap = new_cap;
    }

    /// Drains `page`'s waiters into `out`: the batched serving kernel.
    /// The verdict against the page's expected time and the wait sums are
    /// computed branch-free over the span slice. `deadline` yields that
    /// time, 0 for a page that is not live, which can never be within
    /// deadline (matching the seed's `expected.is_some_and(..)`); it is
    /// asked only when the page has waiters, so an idle on-air page costs
    /// one meta load.
    pub fn drain_page(
        &mut self,
        page: PageId,
        deadline: impl FnOnce() -> u64,
        now: u64,
        out: &mut Vec<Delivery>,
    ) -> DrainDelta {
        let idx = page.index() as usize;
        let Some(&m) = self.metas.get(idx) else {
            return DrainDelta::default();
        };
        let n = m.len as usize;
        if n == 0 {
            return DrainDelta::default();
        }
        let deadline = deadline();
        let off = m.off as usize;
        let received = now + 1;
        // A waiter is within deadline iff wait = received - since ≤
        // deadline, i.e. since ≥ received - deadline. The 0 sentinel maps
        // to an unreachable threshold.
        let thr = if deadline == 0 {
            u64::MAX
        } else {
            received.saturating_sub(deadline)
        };
        let span = &self.arena[off..off + n];
        let mut on_time = 0u64;
        let mut sum_since = 0u64;
        out.reserve(n);
        for &(client, since) in span {
            let within = since >= thr;
            on_time += u64::from(within);
            sum_since = sum_since.wrapping_add(since);
            out.push(Delivery {
                client: ClientId::from_raw(client),
                page,
                wait: received - since,
                within_deadline: within,
            });
        }
        self.metas[idx].len = 0;
        DrainDelta {
            delivered: n as u64,
            on_time,
            total_wait: (n as u64).wrapping_mul(received).wrapping_sub(sum_since),
        }
    }

    /// Bytes currently held by the arena (arena length × record size;
    /// length rather than capacity so the figure is deterministic across
    /// allocator and std versions).
    #[must_use]
    pub fn arena_bytes(&self) -> u64 {
        (self.arena.len() * std::mem::size_of::<(u64, u64)>()) as u64
    }

    /// The page's span content without draining: the snapshot read path.
    fn peek(&self, idx: usize) -> &[(u64, u64)] {
        match self.metas.get(idx) {
            Some(&m) => &self.arena[m.off as usize..(m.off + m.len) as usize],
            None => &[],
        }
    }

    /// The seed-shaped `waiting` vector for [`crate::StationSnapshot`].
    pub fn snapshot_waiting(&self) -> Vec<Vec<(u64, u64)>> {
        (0..self.dense_len)
            .map(|idx| self.peek(idx).to_vec())
            .collect()
    }

    /// Rebuilds the set from snapshot vectors: the meta table is sized to
    /// `expected.len()` and every live page gets its span. Arena layout is
    /// a deterministic function of the snapshot alone; per-page FIFO order
    /// (the only order that reaches any output) is preserved exactly.
    pub fn restore(expected: &[Option<u64>], waiting: &[Vec<(u64, u64)>]) -> Self {
        let mut set = Self::new();
        set.metas.resize(expected.len(), PageMeta::default());
        for (idx, e) in expected.iter().enumerate() {
            if e.is_some() {
                set.ensure_page(idx);
            }
        }
        for (idx, waiters) in waiting.iter().enumerate() {
            for &(client, since) in waiters {
                set.append_direct(idx, client, since);
            }
        }
        set.dense_len = waiting.len();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// Records reserved by the set's spans: the arena minus stranded space.
    fn live_cap(w: &WaitingSet) -> usize {
        w.metas.iter().map(|m| m.cap as usize).sum()
    }

    fn page(idx: usize) -> PageId {
        PageId::new(u32::try_from(idx).unwrap())
    }

    /// Drains `idx` at slot 0 and returns the served clients' raw ids in
    /// delivery order.
    fn drain_clients(w: &mut WaitingSet, idx: usize) -> Vec<u64> {
        let mut out = Vec::new();
        w.drain_page(page(idx), || 4, 0, &mut out);
        out.iter().map(|d| d.client.raw()).collect()
    }

    #[test]
    fn subscribe_preserves_fifo() {
        let mut w = WaitingSet::new();
        w.publish(5);
        for c in 0..20u64 {
            w.subscribe(5, c, 0);
        }
        assert_eq!(
            drain_clients(&mut w, 5),
            (0..20).collect::<Vec<_>>(),
            "FIFO order lost"
        );
        assert!(
            drain_clients(&mut w, 5).is_empty(),
            "drain did not clear the span"
        );
    }

    #[test]
    fn fifo_survives_repeated_span_growth() {
        let mut w = WaitingSet::new();
        w.publish(0);
        let n = 3 * 4096 + 17;
        for c in 0..n {
            w.subscribe(0, c, 0);
        }
        assert_eq!(drain_clients(&mut w, 0), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn growth_relocation_keeps_other_spans_intact() {
        let mut w = WaitingSet::new();
        // Two adjacent spans: page 1's sits right after page 0's.
        w.publish(0);
        w.publish(1);
        for c in 0..4u64 {
            w.subscribe(0, c, 0);
            w.subscribe(1, 100 + c, 0);
        }
        // Grow page 0 well past its minimum span, forcing relocation
        // around page 1's span.
        for c in 4..300u64 {
            w.subscribe(0, c, 0);
        }
        assert!(w.arena.len() > live_cap(&w), "page 0 never relocated");
        assert_eq!(drain_clients(&mut w, 0), (0..300).collect::<Vec<_>>());
        assert_eq!(drain_clients(&mut w, 1), (100..104).collect::<Vec<_>>());
    }

    #[test]
    fn drained_spans_are_reused_without_growth() {
        let mut w = WaitingSet::new();
        w.publish(0);
        for round in 0..50u64 {
            for c in 0..8u64 {
                w.subscribe(0, round * 8 + c, round);
            }
            let mut out = Vec::new();
            let delta = w.drain_page(PageId::new(0), || 4, round, &mut out);
            assert_eq!(delta.delivered, 8);
            assert_eq!(out.len(), 8);
        }
        // 8 waiters fit the minimum span: the arena never grew.
        assert_eq!(w.arena.len(), MIN_SPAN_CAP as usize);
    }

    #[test]
    fn batched_verdict_matches_the_scalar_rule() {
        let mut w = WaitingSet::new();
        let now = 100u64;
        w.publish(0);
        // Waits 1..=12 straddle the deadline of 7.
        for since in (now + 1 - 12)..=now {
            w.subscribe(0, since, since);
        }
        let mut out = Vec::new();
        let delta = w.drain_page(PageId::new(0), || 7, now, &mut out);
        assert_eq!(delta.delivered, 12);
        let mut expected_on_time = 0;
        let mut expected_wait = 0;
        for d in &out {
            let scalar_wait = now - d.client.raw() + 1; // since == client id here
            assert_eq!(d.wait, scalar_wait);
            assert_eq!(d.within_deadline, scalar_wait <= 7);
            expected_on_time += u64::from(scalar_wait <= 7);
            expected_wait += scalar_wait;
        }
        assert_eq!(delta.on_time, expected_on_time);
        assert_eq!(delta.total_wait, expected_wait);
        assert_eq!(delta.on_time, 7);
    }

    #[test]
    fn expired_pages_park_their_waiters_until_republish() {
        // An expire only leaves the catalogue; the set keeps the page's
        // waiters, a republish keeps them too, and they are served at
        // the next drain.
        let mut w = WaitingSet::new();
        w.publish(0);
        w.subscribe(0, 7, 0);
        w.publish(0);
        let mut out = Vec::new();
        let delta = w.drain_page(PageId::new(0), || 4, 1, &mut out);
        assert_eq!(delta.delivered, 1);
        assert_eq!(out[0].client.raw(), 7);
    }

    #[test]
    fn snapshot_round_trips_through_restore_mid_serving() {
        let mut w = WaitingSet::new();
        let pages = [0usize, 3, 33, 515, 1200];
        for idx in pages {
            w.publish(idx);
        }
        // 1201 published ids, of which page 33 has since expired.
        let mut expected = vec![None; 1201];
        for idx in pages {
            expected[idx] = (idx != 33).then_some(16);
        }
        let mut c = 0u64;
        for round in 0..10u64 {
            for idx in pages {
                w.subscribe(idx, c, round);
                c += 1;
            }
        }
        // Drain one page mid-stream: the snapshot must capture exactly
        // the residual state, parked waiters of page 33 included.
        let mut sink = Vec::new();
        w.drain_page(page(515), || 16, 9, &mut sink);
        w.subscribe(515, 999, 10);
        let waiting = w.snapshot_waiting();
        assert_eq!(waiting.len(), 1201);
        assert_eq!(waiting[33].len(), 10, "parked waiters lost from snapshot");
        assert_eq!(w.published_len(), expected.len());
        let restored = WaitingSet::restore(&expected, &waiting);
        assert_eq!(restored.snapshot_waiting(), waiting);
        assert_eq!(restored.published_len(), expected.len());
    }

    /// Dense page ids the model tests draw from: few enough that spans
    /// sit next to each other and relocate around one another.
    const MODEL_PAGES: usize = 12;

    /// One step of a model-test script.
    #[derive(Debug, Clone)]
    enum Op {
        Publish {
            idx: usize,
            expected: u64,
        },
        Expire {
            idx: usize,
        },
        /// A burst of `count` subscribes at the current slot: bursts are
        /// what push spans past their capacity and make them relocate.
        Subscribe {
            idx: usize,
            count: u64,
        },
        Drain {
            idx: usize,
        },
        /// Moves the slot clock forward.
        Advance {
            slots: u64,
        },
        /// Snapshot → `restore`, replacing the set under test.
        Restore,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let idx = 0..MODEL_PAGES;
        prop_oneof![
            (idx.clone(), 1u64..=32).prop_map(|(idx, expected)| Op::Publish { idx, expected }),
            idx.clone().prop_map(|idx| Op::Expire { idx }),
            // Listed twice so bursts outnumber drains and spans keep
            // growing past their capacity.
            (idx.clone(), 1u64..=160).prop_map(|(idx, count)| Op::Subscribe { idx, count }),
            (idx.clone(), 1u64..=160).prop_map(|(idx, count)| Op::Subscribe { idx, count }),
            idx.prop_map(|idx| Op::Drain { idx }),
            (1u64..=40).prop_map(|slots| Op::Advance { slots }),
            Just(Op::Restore),
        ]
    }

    /// The obviously correct reference: the seed's dense vectors.
    /// `waiting[idx]` holds `(client, since)` in arrival order and is as
    /// long as the largest subscribed index + 1; `deadlines[idx]` is 0
    /// while the page is not live. The model's deadlines stand in for
    /// the station's catalogue: they decide which subscribes reach the
    /// set and which deadline each drain is handed.
    #[derive(Debug, Default)]
    struct Model {
        waiting: Vec<Vec<(u64, u64)>>,
        deadlines: Vec<u64>,
        now: u64,
        next_client: u64,
    }

    impl Model {
        fn deadline(&self, idx: usize) -> u64 {
            self.deadlines.get(idx).copied().unwrap_or(0)
        }

        /// The seed's `expected` vector, as a snapshot carries it.
        fn expected(&self) -> Vec<Option<u64>> {
            self.deadlines
                .iter()
                .map(|&d| (d != 0).then_some(d))
                .collect()
        }

        /// Applies `op` to both the model and `w`, checking every value
        /// the set returns along the way.
        fn apply(&mut self, w: &mut WaitingSet, op: &Op) {
            match *op {
                Op::Publish { idx, expected } => {
                    if self.deadlines.len() <= idx {
                        self.deadlines.resize(idx + 1, 0);
                    }
                    self.deadlines[idx] = expected;
                    w.publish(idx);
                }
                Op::Expire { idx } => {
                    if let Some(d) = self.deadlines.get_mut(idx) {
                        *d = 0;
                    }
                }
                Op::Subscribe { idx, count } => {
                    if self.deadline(idx) == 0 {
                        // The station refuses a page that is not live.
                        return;
                    }
                    for _ in 0..count {
                        let client = self.next_client;
                        self.next_client += 1;
                        w.subscribe(idx, client, self.now);
                        if self.waiting.len() <= idx {
                            self.waiting.resize(idx + 1, Vec::new());
                        }
                        self.waiting[idx].push((client, self.now));
                    }
                }
                Op::Drain { idx } => {
                    let page = page(idx);
                    let deadline = self.deadline(idx);
                    let waiters = self.waiting.get_mut(idx).map(std::mem::take);
                    let mut want = Vec::new();
                    let mut want_delta = DrainDelta::default();
                    for (client, since) in waiters.unwrap_or_default() {
                        let wait = self.now + 1 - since;
                        let within = deadline != 0 && wait <= deadline;
                        want.push(Delivery {
                            client: ClientId::from_raw(client),
                            page,
                            wait,
                            within_deadline: within,
                        });
                        want_delta.delivered += 1;
                        want_delta.on_time += u64::from(within);
                        want_delta.total_wait += wait;
                    }
                    let mut out = vec![Delivery {
                        client: ClientId::from_raw(u64::MAX),
                        page,
                        wait: 0,
                        within_deadline: false,
                    }];
                    let delta = w.drain_page(page, || deadline, self.now, &mut out);
                    // Drains append: the sentinel stays in front.
                    assert_eq!(out.remove(0).client.raw(), u64::MAX);
                    assert_eq!(out, want, "drain of page {idx} at slot {}", self.now);
                    assert_eq!(delta, want_delta, "delta of page {idx}");
                }
                Op::Advance { slots } => self.now += slots,
                Op::Restore => {
                    *w = WaitingSet::restore(&self.expected(), &w.snapshot_waiting());
                }
            }
        }

        /// Checks the set's snapshot vector and published length against
        /// the model.
        fn check(&self, w: &WaitingSet) {
            assert_eq!(w.snapshot_waiting(), self.waiting);
            assert_eq!(w.published_len(), self.deadlines.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random publish / expire / republish / subscribe-burst / drain /
        /// restore scripts against the plain dense-vector model: every
        /// drain returns the model's deliveries in per-page FIFO order
        /// with the model's `DrainDelta`, and after every step the
        /// snapshot vector and the published length equal the model's. Bursts of up to 160
        /// subscribes over 12 neighbouring spans make spans double and
        /// relocate around each other many times per script.
        #[test]
        fn waiting_set_matches_a_plain_model(
            ops in prop::collection::vec(arb_op(), 1..=120),
        ) {
            let mut w = WaitingSet::new();
            let mut model = Model::default();
            for op in &ops {
                model.apply(&mut w, op);
                model.check(&w);
            }
        }
    }

    /// The arena's memory bound, and the reason it is never compacted. A
    /// relocation doubles a span and strands its old capacity, which is
    /// more than everything the span stranded before it, so a page's
    /// stranded records stay below its live capacity and the arena below
    /// twice the summed capacity. Subscribing round-robin across pages
    /// keeps some other span at the tail whenever a span fills, so every
    /// growth relocates; growth that stopped doubling would strand more
    /// than it adds and break the bound within a few growths per page.
    #[test]
    fn arena_stays_under_twice_the_live_capacity() {
        let mut w = WaitingSet::new();
        for idx in 0..MODEL_PAGES {
            w.publish(idx);
        }
        let mut client = 0u64;
        for _ in 0..512 {
            for idx in 0..MODEL_PAGES {
                w.subscribe(idx, client, 0);
                client += 1;
                let live = live_cap(&w);
                assert!(
                    w.arena.len() < 2 * live,
                    "arena {} >= 2 x live {live}",
                    w.arena.len()
                );
            }
        }
        assert!(w.arena.len() > live_cap(&w), "no span ever relocated");

        let before = w.snapshot_waiting();
        let mut served = 0;
        for (idx, span) in before.iter().enumerate() {
            let got = drain_clients(&mut w, idx);
            assert_eq!(got, span.iter().map(|&(c, _)| c).collect::<Vec<_>>());
            served += got.len() as u64;
        }
        assert_eq!(served, client);
    }
}
