//! Partitioned struct-of-arrays storage for the station's waiting sets.
//!
//! The seed layout — `Vec<Vec<(ClientId, u64)>>` indexed by dense page id —
//! collapses past ~100k subscribers: every subscription chases a pointer to
//! a separately-allocated per-page `Vec`, and the loads it must wait on
//! (`expected[idx]`, the `Vec` header, the tail line) are scattered across
//! megabytes, so the subscribe loop serializes on cache-miss latency. This
//! module replaces it with a fixed set of [`SHARD_COUNT`] shards, each
//! holding:
//!
//! * a dense table of 12-byte [`PageMeta`] records (span offset / length /
//!   capacity) — the only per-page metadata the hot paths touch;
//! * one **span arena** of `(client, since)` records, with each page
//!   owning a contiguous offset range, so a tick's drain walks plain
//!   slices and batches the deadline verdict branch-free.
//!
//! A subscription therefore costs one load in a dense deadline table
//! (L1-resident for realistic catalogues), one store at the page's span
//! tail, and one 12-byte meta update — where the seed paid a pointer
//! chase through `expected`, the outer `Vec` header, and a separately
//! allocated per-page `Vec` before reaching the tail.
//!
//! ## Partition function
//!
//! Pages are distributed block-cyclically: [`BLOCK_PAGES`] consecutive
//! dense indices share a shard, then the next block moves to the next
//! shard. [`shard_of`]/[`local_of`] are a pure-arithmetic bijection (all
//! constants are powers of two, so the divisions are shifts), blocks of
//! metas stay cache-line aligned per shard, and any real catalogue
//! spreads evenly across shards.
//!
//! ## Determinism
//!
//! Shard state evolves only through `subscribe`, `publish`, `expire`,
//! restore, and drains — all driven from the station's single thread.
//! Drains only zero span lengths, and per-page FIFO (arrival) order is
//! the only order that reaches any output, so the layout never shows in
//! a `TickOutcome` or a snapshot (DESIGN.md §12).

use airsched_core::types::PageId;

use crate::station::{ClientId, Delivery};

/// Number of shards the waiting set is partitioned into. Fixed: the
/// partition count is a layout constant, never persisted, so the
/// checkpoint format cannot leak it.
const SHARD_COUNT: usize = 16;

/// Consecutive dense page indices that share a shard (one block of metas
/// spans a few cache lines).
const BLOCK_PAGES: usize = 32;

/// Smallest span capacity handed to a page on publish; doubles on growth.
const MIN_SPAN_CAP: u32 = 8;

/// Arena must be at least this large before dead-space compaction is
/// considered (small arenas are cheap to leave fragmented).
const COMPACT_MIN_LEN: usize = 1024;

/// Which shard owns dense page index `idx`.
#[inline]
fn shard_of(idx: usize) -> usize {
    (idx / BLOCK_PAGES) % SHARD_COUNT
}

/// The page's slot inside its owning shard's meta table.
#[inline]
fn local_of(idx: usize) -> usize {
    (idx / (BLOCK_PAGES * SHARD_COUNT)) * BLOCK_PAGES + (idx % BLOCK_PAGES)
}

/// Per-page record in a shard's meta table. Liveness is not here —
/// deadline truth (and the publish/expire state) lives in
/// [`WaitingSet::deadlines`]; a meta only describes the page's span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageMeta {
    /// Start of the page's span in the shard arena.
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

/// One shard: a meta table and a span arena of `(client, since)`
/// records. Spans are reused across drains (`len` drops to 0, `cap`
/// stays), grow by doubling — extending in place when the span sits at
/// the arena tail, relocating otherwise — and the arena compacts once
/// relocations strand more dead capacity than live.
#[derive(Debug, Clone, Default)]
struct WaitShard {
    metas: Vec<PageMeta>,
    arena: Vec<(u64, u64)>,
    /// Arena records stranded by span relocation, reclaimed by `compact`.
    dead: usize,
    /// Lifetime compaction count, summed by [`WaitingSet::compactions`].
    compactions: u64,
}

impl WaitShard {
    /// Sizes the page's meta slot and a minimum span so steady-state
    /// subscribes never resize. Called at publish and restore.
    fn ensure_page(&mut self, local: usize) {
        if self.metas.len() <= local {
            self.metas.resize(local + 1, PageMeta::default());
        }
        let m = &mut self.metas[local];
        if m.cap == 0 {
            m.off = u32::try_from(self.arena.len()).expect("arena offset fits in u32");
            m.cap = MIN_SPAN_CAP;
            let new_len = self.arena.len() + MIN_SPAN_CAP as usize;
            self.arena.resize(new_len, (0, 0));
        }
    }

    /// Appends one waiter to `local`'s span. Publish pre-sizes metas and
    /// spans, so the resize and growth branches only fire on the restore
    /// path and on spans outgrowing their capacity.
    #[inline]
    fn append_direct(&mut self, local: usize, client: u64, since: u64) {
        if self.metas.len() <= local {
            self.metas.resize(local + 1, PageMeta::default());
        }
        let m = self.metas[local];
        if m.len == m.cap {
            self.grow_and_append(local, client, since);
        } else {
            self.arena[(m.off + m.len) as usize] = (client, since);
            self.metas[local].len = m.len + 1;
        }
    }

    /// Slow path of the scatter: the span is full (or absent). Doubles
    /// the span, extending in place when it already ends at the arena
    /// tail and relocating it there otherwise.
    #[inline(never)]
    fn grow_and_append(&mut self, local: usize, client: u64, since: u64) {
        let m = self.metas[local];
        let tail = self.arena.len();
        if m.cap == 0 {
            let off = u32::try_from(tail).expect("arena offset fits in u32");
            self.metas[local] = PageMeta {
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
            self.metas[local].off = u32::try_from(tail).expect("arena offset fits in u32");
            self.dead += m.cap as usize;
        }
        let grown = self.metas[local];
        self.arena[(grown.off + grown.len) as usize] = (client, since);
        self.metas[local].len = grown.len + 1;
        self.metas[local].cap = new_cap;
        if self.dead * 2 > self.arena.len() && self.arena.len() >= COMPACT_MIN_LEN {
            self.compact();
        }
    }

    /// Rebuilds the arena with every span packed in meta order, dropping
    /// all dead capacity. Deterministic: depends only on the current
    /// metas and arena.
    fn compact(&mut self) {
        let live: usize = self.metas.iter().map(|m| m.cap as usize).sum();
        let mut arena = Vec::with_capacity(live);
        for m in &mut self.metas {
            if m.cap == 0 {
                continue;
            }
            let off = m.off as usize;
            let len = m.len as usize;
            m.off = u32::try_from(arena.len()).expect("arena offset fits in u32");
            arena.extend_from_slice(&self.arena[off..off + len]);
            arena.resize(arena.len() + (m.cap - m.len) as usize, (0, 0));
        }
        self.arena = arena;
        self.dead = 0;
        self.compactions += 1;
    }

    /// Drains `local`'s span into `out`: the batched serving kernel.
    /// The deadline verdict and wait
    /// sums are computed branch-free over the span slice; `deadline == 0`
    /// means "not published", which can never be within deadline
    /// (matching the seed's `expected.is_some_and(..)`).
    fn drain_into(
        &mut self,
        local: usize,
        page: PageId,
        deadline: u64,
        now: u64,
        out: &mut Vec<Delivery>,
    ) -> DrainDelta {
        let Some(&m) = self.metas.get(local) else {
            return DrainDelta::default();
        };
        let n = m.len as usize;
        if n == 0 {
            return DrainDelta::default();
        }
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
        self.metas[local].len = 0;
        DrainDelta {
            delivered: n as u64,
            on_time,
            total_wait: (n as u64).wrapping_mul(received).wrapping_sub(sum_since),
        }
    }

    /// Removes and returns `local`'s waiters in FIFO order — the
    /// allocating access path `tick_reference` keeps.
    fn take(&mut self, local: usize) -> Vec<(ClientId, u64)> {
        let Some(&m) = self.metas.get(local) else {
            return Vec::new();
        };
        let off = m.off as usize;
        let n = m.len as usize;
        let out = self.arena[off..off + n]
            .iter()
            .map(|&(c, s)| (ClientId::from_raw(c), s))
            .collect();
        self.metas[local].len = 0;
        out
    }

    /// The page's span content without draining: the snapshot read path,
    /// which must work from `&self`.
    fn peek(&self, local: usize) -> Vec<(u64, u64)> {
        match self.metas.get(local) {
            Some(&m) => self.arena[m.off as usize..(m.off + m.len) as usize].to_vec(),
            None => Vec::new(),
        }
    }
}

/// The station's waiting/expected state in partitioned SoA form.
///
/// Publicly (through `Station`) it behaves exactly like the seed's
/// `waiting: Vec<Vec<(ClientId, u64)>>` + `expected: Vec<Option<u64>>`
/// pair, including snapshot shape: [`WaitingSet::snapshot_waiting`] /
/// [`WaitingSet::snapshot_expected`] reproduce those dense vectors
/// verbatim, so the checkpoint format is unchanged and carries no trace
/// of the partition count.
#[derive(Debug, Clone)]
pub(crate) struct WaitingSet {
    /// `deadlines[idx]` is the page's expected time, 0 when unpublished
    /// (`publish` rejects a 0 expected time, so 0 is a safe sentinel).
    /// Grows at publish, never shrinks — mirroring the seed's
    /// `expected` length semantics. This is the only load on the
    /// subscribe fast path.
    deadlines: Vec<u64>,
    shards: Vec<WaitShard>,
    /// Length the seed's `waiting` vector would have: the largest
    /// subscribed dense index + 1 (or whatever a restore carried).
    /// Reproduced in snapshots so restores round-trip byte-identically.
    dense_len: usize,
}

impl WaitingSet {
    pub fn new() -> Self {
        Self {
            deadlines: Vec::new(),
            shards: vec![WaitShard::default(); SHARD_COUNT],
            dense_len: 0,
        }
    }

    /// The page's expected time, 0 when unpublished.
    #[inline]
    pub fn deadline(&self, idx: usize) -> u64 {
        self.deadlines.get(idx).copied().unwrap_or(0)
    }

    /// Records a publish: sizes the deadline table and the page's meta
    /// (and minimum span) so steady-state subscribes never resize.
    pub fn publish(&mut self, idx: usize, expected: u64) {
        debug_assert!(expected != 0, "publish validates a non-zero expected time");
        if self.deadlines.len() <= idx {
            self.deadlines.resize(idx + 1, 0);
        }
        self.deadlines[idx] = expected;
        self.shards[shard_of(idx)].ensure_page(local_of(idx));
    }

    /// Records an expire: the deadline drops to the 0 sentinel, waiters
    /// stay parked (served only if the page returns).
    pub fn expire(&mut self, idx: usize) {
        if let Some(d) = self.deadlines.get_mut(idx) {
            *d = 0;
        }
    }

    /// Appends one waiter. Returns `false` for an unpublished page.
    ///
    /// `publish` already sized the page's meta and minimum span, so the
    /// steady-state path is one deadline load, one store to the span
    /// tail, and one meta update — no resize branch and no pointer chase
    /// through a per-page allocation.
    #[inline]
    pub fn subscribe(&mut self, idx: usize, client: u64, since: u64) -> bool {
        if self.deadline(idx) == 0 {
            return false;
        }
        self.shards[shard_of(idx)].append_direct(local_of(idx), client, since);
        if idx >= self.dense_len {
            self.dense_len = idx + 1;
        }
        true
    }

    /// Drains one page's waiters into `out`.
    pub fn drain_page(
        &mut self,
        idx: usize,
        page: PageId,
        now: u64,
        out: &mut Vec<Delivery>,
    ) -> DrainDelta {
        let deadline = self.deadline(idx);
        let shard = &mut self.shards[shard_of(idx)];
        shard.drain_into(local_of(idx), page, deadline, now, out)
    }

    /// Total arena compactions across all shards since construction.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.shards.iter().map(|s| s.compactions).sum()
    }

    /// Bytes currently held by the shard arenas (arena length × record
    /// size; length rather than capacity so the figure is deterministic
    /// across allocator and std versions).
    #[must_use]
    pub fn arena_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| (s.arena.len() * std::mem::size_of::<(u64, u64)>()) as u64)
            .sum()
    }

    /// Removes and returns one page's waiters in FIFO order — used by
    /// `tick_reference`, which keeps the seed's allocating shape.
    pub fn take_dense(&mut self, idx: usize) -> Vec<(ClientId, u64)> {
        let shard = &mut self.shards[shard_of(idx)];
        shard.take(local_of(idx))
    }

    /// The seed-shaped `waiting` vector for [`crate::StationSnapshot`].
    pub fn snapshot_waiting(&self) -> Vec<Vec<(u64, u64)>> {
        (0..self.dense_len)
            .map(|idx| self.shards[shard_of(idx)].peek(local_of(idx)))
            .collect()
    }

    /// The seed-shaped `expected` vector for [`crate::StationSnapshot`].
    pub fn snapshot_expected(&self) -> Vec<Option<u64>> {
        self.deadlines
            .iter()
            .map(|&d| if d == 0 { None } else { Some(d) })
            .collect()
    }

    /// Rebuilds the set from snapshot vectors. Arena layout is a
    /// deterministic function of the snapshot alone; per-page FIFO order
    /// (the only order that reaches any output) is preserved exactly.
    pub fn restore(expected: &[Option<u64>], waiting: &[Vec<(u64, u64)>]) -> Self {
        let mut set = Self::new();
        set.deadlines = expected.iter().map(|e| e.unwrap_or(0)).collect();
        for (idx, &d) in set.deadlines.iter().enumerate() {
            if d != 0 {
                set.shards[shard_of(idx)].ensure_page(local_of(idx));
            }
        }
        for (idx, waiters) in waiting.iter().enumerate() {
            let shard = &mut set.shards[shard_of(idx)];
            let local = local_of(idx);
            for &(client, since) in waiters {
                shard.append_direct(local, client, since);
            }
        }
        set.dense_len = waiting.len();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_local_mapping_is_a_bijection() {
        let mut seen = std::collections::BTreeSet::new();
        for idx in 0..10_000 {
            let key = (shard_of(idx), local_of(idx));
            assert!(seen.insert(key), "collision at idx {idx}: {key:?}");
        }
        // Block-cyclic: consecutive indices inside a block share a shard.
        assert_eq!(shard_of(0), shard_of(BLOCK_PAGES - 1));
        assert_ne!(shard_of(0), shard_of(BLOCK_PAGES));
    }

    #[test]
    fn subscribe_requires_publish_and_preserves_fifo() {
        let mut w = WaitingSet::new();
        assert!(!w.subscribe(5, 1, 0), "unpublished page accepted a waiter");
        w.publish(5, 4);
        for c in 0..20u64 {
            assert!(w.subscribe(5, c, c));
        }
        let got = w.take_dense(5);
        let raws: Vec<u64> = got.iter().map(|&(c, _)| c.raw()).collect();
        assert_eq!(raws, (0..20).collect::<Vec<_>>(), "FIFO order lost");
        assert!(w.take_dense(5).is_empty(), "take did not clear the span");
    }

    #[test]
    fn fifo_survives_repeated_span_growth() {
        let mut w = WaitingSet::new();
        w.publish(0, 4);
        let n = 3 * 4096 + 17;
        for c in 0..n {
            assert!(w.subscribe(0, c, 0));
        }
        let raws: Vec<u64> = w.take_dense(0).iter().map(|&(c, _)| c.raw()).collect();
        assert_eq!(raws, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn growth_relocation_keeps_other_spans_intact() {
        let mut w = WaitingSet::new();
        // Two pages in the same shard (same block).
        w.publish(0, 4);
        w.publish(1, 4);
        for c in 0..4u64 {
            assert!(w.subscribe(0, c, 0));
            assert!(w.subscribe(1, 100 + c, 0));
        }
        // Grow page 0 well past its minimum span, forcing relocation
        // around page 1's span.
        for c in 4..300u64 {
            assert!(w.subscribe(0, c, 0));
        }
        let a: Vec<u64> = w.take_dense(0).iter().map(|&(c, _)| c.raw()).collect();
        let b: Vec<u64> = w.take_dense(1).iter().map(|&(c, _)| c.raw()).collect();
        assert_eq!(a, (0..300).collect::<Vec<_>>());
        assert_eq!(b, (100..104).collect::<Vec<_>>());
    }

    #[test]
    fn drained_spans_are_reused_without_growth() {
        let mut w = WaitingSet::new();
        w.publish(0, 4);
        for round in 0..50u64 {
            for c in 0..8u64 {
                assert!(w.subscribe(0, round * 8 + c, round));
            }
            let mut out = Vec::new();
            let delta = w.drain_page(0, PageId::new(0), round, &mut out);
            assert_eq!(delta.delivered, 8);
            assert_eq!(out.len(), 8);
        }
        // 8 waiters fit the minimum span: no relocation ever happened.
        assert_eq!(w.shards[shard_of(0)].dead, 0);
    }

    #[test]
    fn batched_verdict_matches_the_scalar_rule() {
        let mut w = WaitingSet::new();
        let now = 100u64;
        w.publish(0, 7);
        // Waits 1..=12 straddle the deadline of 7.
        for since in (now + 1 - 12)..=now {
            assert!(w.subscribe(0, since, since));
        }
        let mut out = Vec::new();
        let delta = w.drain_page(0, PageId::new(0), now, &mut out);
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
        let mut w = WaitingSet::new();
        w.publish(0, 1000);
        assert!(w.subscribe(0, 7, 0));
        w.expire(0);
        assert!(!w.subscribe(0, 8, 0), "expired page accepted a waiter");
        // The parked waiter survives and is served on republish.
        w.publish(0, 4);
        let mut out = Vec::new();
        let delta = w.drain_page(0, PageId::new(0), 1, &mut out);
        assert_eq!(delta.delivered, 1);
        assert_eq!(out[0].client.raw(), 7);
    }

    #[test]
    fn snapshot_round_trips_through_restore_mid_serving() {
        let mut w = WaitingSet::new();
        for idx in [0usize, 3, 33, 515, 1200] {
            w.publish(idx, 16);
        }
        let mut c = 0u64;
        for round in 0..10u64 {
            for idx in [0usize, 3, 33, 515, 1200] {
                assert!(w.subscribe(idx, c, round));
                c += 1;
            }
        }
        // Drain one page mid-stream, then expire a page with parked
        // waiters: the snapshot must capture exactly the residual state.
        let mut sink = Vec::new();
        w.drain_page(515, PageId::new(515), 9, &mut sink);
        assert!(w.subscribe(515, 999, 10));
        w.expire(33);
        let waiting = w.snapshot_waiting();
        let expected = w.snapshot_expected();
        assert_eq!(waiting.len(), 1201);
        assert_eq!(waiting[33].len(), 10, "parked waiters lost from snapshot");
        let restored = WaitingSet::restore(&expected, &waiting);
        assert_eq!(restored.snapshot_waiting(), waiting);
        assert_eq!(restored.snapshot_expected(), expected);
    }
}
