//! Property tests for the wire format: round-trip fidelity, decoder
//! robustness against arbitrary and corrupted bytes, the receiver against
//! a set-based reference model, and bit-identity of the incremental-CRC
//! template path against full re-encoding.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use airsched_core::program::BroadcastProgram;
use airsched_core::retry::RetryPolicy;
use airsched_core::types::{ChannelId, PageId, PAGE_ID_LIMIT};
use airsched_proto::frame::{decode_stream, Frame, HEADER_LEN};
use airsched_proto::receiver::{Receiver, ReceiverStats, Reception};
use airsched_proto::template::{CyclicPayloads, DeltaTable, FrameTemplateCache, PlanRow};
use airsched_proto::transmitter::encode_slot_into;
use bytes::{Bytes, BytesMut};

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u32..u32::from(u16::MAX),
        any::<u64>(),
        prop::option::of(any::<u32>()),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(channel, slot, page, payload)| match page {
            Some(p) => Frame::data(
                ChannelId::new(channel),
                slot,
                PageId::new(p),
                Bytes::from(payload),
            ),
            None => Frame::idle(ChannelId::new(channel), slot),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every frame round-trips bit-exactly.
    #[test]
    fn frame_round_trip(frame in arb_frame()) {
        let encoded = frame.encode();
        let decoded = Frame::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(decoded, frame);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::decode(&bytes);
        let _ = decode_stream(&bytes);
    }

    /// Any single-bit flip in an encoded frame is detected.
    #[test]
    fn single_bit_flips_are_detected(
        frame in arb_frame(),
        byte_sel in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = frame.encode().to_vec();
        let idx = byte_sel.index(bytes.len());
        bytes[idx] ^= 1 << bit;
        prop_assert!(
            Frame::decode(&bytes).is_err(),
            "flip of bit {} at byte {} went undetected",
            bit,
            idx
        );
    }

    /// Concatenated frames decode back to the same sequence.
    #[test]
    fn stream_round_trip(frames in prop::collection::vec(arb_frame(), 0..8)) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let (decoded, used) = decode_stream(&wire);
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(decoded, frames);
    }

    /// Truncating an encoded frame anywhere strictly inside it is reported
    /// as truncation or checksum failure, never success.
    #[test]
    fn truncation_is_detected(frame in arb_frame(), cut in any::<prop::sample::Index>()) {
        let bytes = frame.encode();
        prop_assume!(bytes.len() > HEADER_LEN || !frame.payload.is_empty() || bytes.len() > 1);
        let cut = cut.index(bytes.len().saturating_sub(1).max(1));
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
    }

    /// No frame sequence panics a receiver under a bounded retry policy,
    /// however hostile its slot clock: slot times at and next to both ends
    /// of `u64` mix with arbitrary ones, intact and corrupt, and every
    /// call counts exactly one frame.
    #[test]
    fn receiver_survives_hostile_slot_times(
        wanted in prop::collection::vec(0u32..8, 0..6),
        attempts in 1u32..4,
        tune_away in 1u32..4,
        backoff in prop_oneof![Just(0u64), 1u64..8, Just(u64::MAX)],
        frames in prop::collection::vec(
            (
                prop_oneof![Just(0u64), Just(1), Just(u64::MAX - 1), Just(u64::MAX), any::<u64>()],
                prop::option::of(0u32..8),
                any::<bool>(),
            ),
            1..48,
        ),
    ) {
        let policy = RetryPolicy::new(attempts)
            .and_then(|p| p.with_tune_away(tune_away, backoff))
            .expect("bounded policy is valid");
        let mut rx = Receiver::with_policy(wanted.into_iter().map(PageId::new), policy);
        for (i, &(slot_time, page, corrupt)) in frames.iter().enumerate() {
            let frame = match page {
                Some(p) => Frame::data(ChannelId::new(0), slot_time, PageId::new(p), Bytes::new()),
                None => Frame::idle(ChannelId::new(0), slot_time),
            };
            if corrupt {
                rx.consume_corrupt(&frame);
            } else {
                rx.consume(&frame);
            }
            prop_assert_eq!(rx.stats().frames, i as u64 + 1);
        }
    }
}

/// The receiver as it was written over ordered sets and maps, kept as the
/// reference the page-indexed [`Receiver`] is checked against. It models
/// the counters, not the metrics export.
#[derive(Debug)]
struct ModelReceiver {
    wanted: BTreeSet<PageId>,
    attempts: BTreeMap<PageId, u32>,
    abandoned: BTreeSet<PageId>,
    policy: RetryPolicy,
    corrupt_run: u32,
    backoff_until: Option<u64>,
    last_slot: Option<u64>,
    stats: ReceiverStats,
}

impl ModelReceiver {
    fn new(wanted: &[u32], policy: RetryPolicy) -> Self {
        Self {
            wanted: wanted.iter().copied().map(PageId::new).collect(),
            attempts: BTreeMap::new(),
            abandoned: BTreeSet::new(),
            policy,
            corrupt_run: 0,
            backoff_until: None,
            last_slot: None,
            stats: ReceiverStats::default(),
        }
    }

    fn attempts_for(&self, page: PageId) -> u32 {
        self.attempts.get(&page).copied().unwrap_or(0)
    }

    fn want(&mut self, page: PageId) {
        self.abandoned.remove(&page);
        self.attempts.remove(&page);
        self.wanted.insert(page);
    }

    /// Counts the frame; `false` when it falls inside a backoff window.
    fn listen(&mut self, slot_time: u64) -> bool {
        self.stats.frames += 1;
        if self.backoff_until.is_some_and(|until| slot_time < until) {
            self.stats.ignored += 1;
            return false;
        }
        self.backoff_until = None;
        if let Some(last) = self.last_slot {
            if slot_time > last.saturating_add(1) {
                self.stats.gaps += 1;
            }
        }
        self.last_slot = Some(self.last_slot.map_or(slot_time, |l| l.max(slot_time)));
        true
    }

    fn consume(&mut self, frame: &Frame) -> Option<Reception> {
        if !self.listen(frame.slot_time) {
            return None;
        }
        self.corrupt_run = 0;
        let page = frame.page?;
        if !self.wanted.remove(&page) {
            return None;
        }
        self.attempts.remove(&page);
        self.stats.hits += 1;
        Some(Reception {
            page,
            slot_time: frame.slot_time,
            payload: frame.payload.clone(),
        })
    }

    fn consume_corrupt(&mut self, frame: &Frame) -> Option<PageId> {
        if !self.listen(frame.slot_time) {
            return None;
        }
        self.stats.corrupt += 1;
        let mut gave_up = None;
        if let Some(page) = frame.page.filter(|p| self.wanted.contains(p)) {
            let burned = self.attempts.entry(page).or_insert(0);
            *burned = burned.saturating_add(1);
            if *burned >= self.policy.max_attempts() {
                self.wanted.remove(&page);
                self.attempts.remove(&page);
                self.abandoned.insert(page);
                self.stats.abandoned += 1;
                gave_up = Some(page);
            }
        }
        self.corrupt_run = self.corrupt_run.saturating_add(1);
        if self.corrupt_run >= self.policy.tune_away_after() {
            self.corrupt_run = 0;
            self.backoff_until = Some(
                self.policy
                    .backoff_deadline(frame.slot_time.saturating_add(1)),
            );
            self.stats.tune_aways += 1;
        }
        gave_up
    }
}

/// One step of a receiver model run.
#[derive(Debug, Clone)]
enum RxOp {
    Want(u32),
    Consume(u64, Option<u32>),
    Corrupt(u64, Option<u32>),
}

/// Page ids a frame may name: a few small ones that receivers want, and
/// hostile ones at and past the id limit.
fn arb_frame_page() -> impl Strategy<Value = Option<u32>> {
    prop::option::of(prop_oneof![
        0u32..8,
        0u32..8,
        Just(PAGE_ID_LIMIT),
        Just(u32::MAX),
        any::<u32>(),
    ])
}

fn arb_rx_op() -> impl Strategy<Value = RxOp> {
    let slot = || {
        prop_oneof![
            Just(0u64),
            Just(1),
            Just(u64::MAX - 1),
            Just(u64::MAX),
            any::<u64>()
        ]
    };
    prop_oneof![
        (0u32..8).prop_map(RxOp::Want),
        (slot(), arb_frame_page()).prop_map(|(t, p)| RxOp::Consume(t, p)),
        (slot(), arb_frame_page()).prop_map(|(t, p)| RxOp::Corrupt(t, p)),
        (slot(), arb_frame_page()).prop_map(|(t, p)| RxOp::Corrupt(t, p)),
    ]
}

/// A bounded policy, or `None` for unlimited patience.
fn arb_policy() -> impl Strategy<Value = RetryPolicy> {
    prop::option::of((
        1u32..4,
        1u32..4,
        prop_oneof![Just(0u64), 1u64..8, Just(u64::MAX)],
    ))
    .prop_map(|bounded| match bounded {
        Some((attempts, tune_away, backoff)) => RetryPolicy::new(attempts)
            .and_then(|p| p.with_tune_away(tune_away, backoff))
            .expect("bounded policy is valid"),
        None => RetryPolicy::unlimited(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The page-indexed receiver agrees with the set-based model after
    /// every step: return values, counters, per-page attempts, the wanted
    /// and abandoned pages in id order, and satisfaction.
    #[test]
    fn receiver_matches_the_set_model(
        wanted in prop::collection::vec(0u32..8, 0..6),
        policy in arb_policy(),
        ops in prop::collection::vec(arb_rx_op(), 1..64),
    ) {
        let mut rx = Receiver::with_policy(wanted.iter().copied().map(PageId::new), policy);
        let mut model = ModelReceiver::new(&wanted, policy);
        let mut seen: BTreeSet<u32> = (0..8).collect();
        for op in &ops {
            let frame = |slot_time: u64, page: Option<u32>| match page {
                Some(p) => Frame::data(ChannelId::new(0), slot_time, PageId::new(p), Bytes::from_static(b"pg")),
                None => Frame::idle(ChannelId::new(0), slot_time),
            };
            match *op {
                RxOp::Want(p) => {
                    rx.want(PageId::new(p));
                    model.want(PageId::new(p));
                }
                RxOp::Consume(t, p) => {
                    seen.extend(p);
                    let f = frame(t, p);
                    prop_assert_eq!(rx.consume(&f), model.consume(&f), "{:?}", op);
                }
                RxOp::Corrupt(t, p) => {
                    seen.extend(p);
                    let f = frame(t, p);
                    prop_assert_eq!(rx.consume_corrupt(&f), model.consume_corrupt(&f), "{:?}", op);
                }
            }
            prop_assert_eq!(rx.stats(), model.stats, "{:?}", op);
            for &p in &seen {
                prop_assert_eq!(rx.attempts_for(PageId::new(p)), model.attempts_for(PageId::new(p)));
            }
            prop_assert_eq!(rx.wanted().collect::<Vec<_>>(), model.wanted.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(rx.abandoned().collect::<Vec<_>>(), model.abandoned.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(rx.is_satisfied(), model.wanted.is_empty());
        }
    }
}

/// Payload per page id, fixed across slots (the template-cache contract),
/// counting the payloads pulled per page.
#[derive(Debug, Default)]
struct MapPayloads {
    bytes: BTreeMap<u32, Vec<u8>>,
    pulls: BTreeMap<u32, u32>,
}

impl CyclicPayloads for MapPayloads {
    fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
        *self.pulls.entry(page.index()).or_default() += 1;
        if let Some(bytes) = self.bytes.get(&page.index()) {
            out.extend_from_slice(bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The incremental-CRC delta operator equals a full recomputation for
    /// arbitrary messages: two messages differing only in the 8 slot bytes
    /// have checksums differing by exactly `delta(xor)`, for any tail.
    #[test]
    fn crc_delta_equals_full_recomputation(
        prefix in prop::collection::vec(any::<u8>(), 8),
        tail in prop::collection::vec(any::<u8>(), 0..1024),
        slot_a in any::<u64>(),
        slot_b in any::<u64>(),
    ) {
        let table = DeltaTable::new(tail.len());
        let message = |slot: u64| {
            let mut m = prefix.clone();
            m.extend_from_slice(&slot.to_be_bytes());
            m.extend_from_slice(&tail);
            m
        };
        let full_a = airsched_proto::crc16(&message(slot_a), b"");
        let full_b = airsched_proto::crc16(&message(slot_b), b"");
        let mut xor = [0u8; 8];
        for (x, (a, b)) in xor
            .iter_mut()
            .zip(slot_a.to_be_bytes().iter().zip(slot_b.to_be_bytes().iter()))
        {
            *x = a ^ b;
        }
        prop_assert_eq!(full_a ^ full_b, table.delta(xor));
    }

    /// Template-patched frames are byte-identical to fresh encoding for
    /// arbitrary grids, payload lengths, slot times, and stall patterns
    /// (stalled cells air idle frames on both paths). Grids wider than 256
    /// channels patch the channel field's high byte too. Some columns put
    /// a page off the cached grid, pages 6..10 among them, which no cell
    /// holds: such a column is still served from templates, and each page
    /// the cache had never seen is pulled exactly once. Then the plan
    /// moves by a few retargets in which each row either keeps its
    /// version and cells or takes new cells under a fresh version: after
    /// each, on-plan and off-plan columns patch to the bytes, template
    /// and delta-table counts and off-plan count of a new cache
    /// retargeted once onto the same rows.
    #[test]
    fn template_patching_matches_fresh_encoding(
        channels in prop_oneof![1u32..4, 256u32..=300],
        cycle_len in 1u64..5,
        cell_seed in prop::collection::vec(prop::option::of(0u32..6), 16),
        payload_lens in prop::collection::vec(0usize..300, 10),
        slot_times in prop::collection::vec(any::<u64>(), 1..5),
        stall_mask in any::<u16>(),
        off_grid in prop::collection::vec((any::<prop::sample::Index>(), 0u32..10), 0..4),
        moves in prop::collection::vec(
            (any::<u16>(), prop::collection::vec(prop::option::of(0u32..8), 7)),
            1..4,
        ),
    ) {
        let n = (channels as usize) * (cycle_len as usize);
        let cells: Vec<Option<PageId>> = (0..n)
            .map(|i| cell_seed[i % cell_seed.len()].map(PageId::new))
            .collect();
        let bytes: BTreeMap<u32, Vec<u8>> = payload_lens
            .iter()
            .enumerate()
            .map(|(page, &len)| {
                (
                    page as u32,
                    (0..len).map(|i| (i as u8) ^ (page as u8).wrapping_mul(37)).collect(),
                )
            })
            .collect();
        let mut payloads = MapPayloads { bytes: bytes.clone(), pulls: BTreeMap::new() };
        let mut fresh_payloads = MapPayloads { bytes, pulls: BTreeMap::new() };
        let program = BroadcastProgram::from_cells(channels, cycle_len, &cells).unwrap();
        let mut cache = FrameTemplateCache::new();
        cache
            .retarget(cycle_len, &program_rows(&program), &mut payloads)
            .expect("grid encodes");
        let built_pulls = std::mem::take(&mut payloads.pulls);
        let mut patched = BytesMut::new();
        let mut fresh = BytesMut::new();
        let mut unseen_on_air = std::collections::BTreeSet::new();
        let mut off_plan = 0;
        for (k, &slot_time) in slot_times.iter().enumerate() {
            let col = (slot_time % cycle_len) as usize;
            let plan = |ch: usize| cells[ch * cycle_len as usize + col];
            let mut on_air: Vec<Option<PageId>> = (0..channels as usize)
                .map(|ch| {
                    if stall_mask & (1 << (ch % 16)) != 0 {
                        None // stalled channel: idle carrier, no rebuild
                    } else {
                        plan(ch)
                    }
                })
                .collect();
            // Every other slot airs the drawn off-grid pages.
            if k % 2 == 1 {
                for (at, page) in &off_grid {
                    on_air[at.index(channels as usize)] = Some(PageId::new(*page));
                }
            }
            if on_air.iter().enumerate().any(|(ch, &page)| page.is_some() && page != plan(ch)) {
                off_plan += 1;
            }
            for page in on_air.iter().flatten() {
                if !cells.contains(&Some(*page)) {
                    unseen_on_air.insert(page.index());
                }
            }
            patched.clear();
            let wrote = cache
                .encode_slot_into(&on_air, slot_time, &mut payloads, &mut patched)
                .expect("every page fits the wire");
            fresh.clear();
            encode_slot_into(&on_air, slot_time, &mut fresh_payloads, &mut fresh)
                .expect("fresh encoding succeeds");
            prop_assert_eq!(wrote, patched.len());
            prop_assert_eq!(&patched[..], &fresh[..], "slot {}", slot_time);
            // Patched CRCs are valid end to end: every frame decodes.
            let (frames, used) = decode_stream(&patched);
            prop_assert_eq!(used, patched.len());
            prop_assert_eq!(frames.len(), channels as usize);
        }
        prop_assert_eq!(cache.off_plan_slots(), off_plan);
        let unseen_pulls: BTreeMap<u32, u32> =
            unseen_on_air.iter().map(|&page| (page, 1)).collect();
        prop_assert_eq!(&payloads.pulls, &unseen_pulls, "pulls after the build");
        for page in cells.iter().flatten() {
            prop_assert_eq!(built_pulls.get(&page.index()), Some(&1));
        }

        // Row by row: a set bit of `keep` keeps the row's version and
        // cells, a clear one writes the row from `pool` under a fresh
        // version.
        let width = cycle_len as usize;
        let mut rows: Vec<(u64, Vec<Option<PageId>>)> = (0..channels)
            .map(|ch| (program.row_version(ch), program.row_cells(ch).to_vec()))
            .collect();
        let mut next_version = rows.iter().map(|r| r.0).max().unwrap_or(0);
        for (step, (keep, pool)) in moves.iter().enumerate() {
            for (ch, row) in rows.iter_mut().enumerate() {
                if keep & (1 << (ch % 16)) == 0 {
                    next_version += 1;
                    let cells = (0..width).map(|col| pool[(ch * width + col + step) % pool.len()]);
                    *row = (next_version, cells.map(|p| p.map(PageId::new)).collect());
                }
            }
            let plan: Vec<PlanRow<'_>> = rows
                .iter()
                .map(|(version, cells)| PlanRow { cells: Some(cells), version: *version })
                .collect();
            cache.retarget(cycle_len, &plan, &mut payloads).expect("rows encode");
            let mut want = FrameTemplateCache::new();
            want.retarget(cycle_len, &plan, &mut fresh_payloads).expect("rows encode");
            let off_plan_before = cache.off_plan_slots();
            for (k, &slot_time) in slot_times.iter().enumerate() {
                let col = (slot_time % cycle_len) as usize;
                let mut on_air: Vec<Option<PageId>> = rows.iter().map(|r| r.1[col]).collect();
                if k % 2 == 0 {
                    for (at, page) in &off_grid {
                        on_air[at.index(channels as usize)] = Some(PageId::new(*page));
                    }
                }
                patched.clear();
                cache
                    .encode_slot_into(&on_air, slot_time, &mut payloads, &mut patched)
                    .expect("every page fits the wire");
                fresh.clear();
                want.encode_slot_into(&on_air, slot_time, &mut fresh_payloads, &mut fresh)
                    .expect("every page fits the wire");
                prop_assert_eq!(&patched[..], &fresh[..], "move {} slot {}", step, slot_time);
                prop_assert_eq!(cache.template_count(), want.template_count());
                prop_assert_eq!(cache.delta_table_count(), want.delta_table_count());
                prop_assert_eq!(
                    cache.off_plan_slots() - off_plan_before,
                    want.off_plan_slots()
                );
            }
        }
    }
}

/// `program`'s rows with their versions, as a station hands them over.
fn program_rows(program: &BroadcastProgram) -> Vec<PlanRow<'_>> {
    (0..program.channels())
        .map(|ch| PlanRow {
            cells: Some(program.row_cells(ch)),
            version: program.row_version(ch),
        })
        .collect()
}
