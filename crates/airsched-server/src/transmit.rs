//! The station's wire side: template-cached slot encoding.
//!
//! [`SlotBroadcaster`] owns a [`FrameTemplateCache`] retargeted onto the
//! station's effective on-air grid ([`Station::plan_rows`]) at every
//! [`Station::plan_epoch`]: in steady state each slot is emitted by
//! memcpy-ing pre-encoded per-page wire images and patching only the
//! channel and `slot_time` bytes plus an incrementally-corrected CRC,
//! instead of re-walking header fields, payload bytes and the full CRC
//! every tick (the "encode wall" — see DESIGN.md §13).
//!
//! Invalidation is epoch-driven, not guessed: every path that can change
//! what a column puts on the air — publish, expire, manual fail/restore,
//! a policy change, any in-tick ladder move — bumps the station's plan
//! epoch, and the broadcaster rebuilds its cache on the next slot, the
//! first slot included. A
//! rebuild retargets the cache in place: it re-reads only the channels
//! whose row version moved and encodes only pages new to the grid. Per
//! slot stalls need no rebuild (a `None` carrier patches the
//! idle template). A column that disagrees with the cached plan anyway (a
//! column computed just before a swap) is served from the same page-keyed
//! templates: a template is a function of its page alone, so the cache
//! first encodes any page of the column it has no template for, and the
//! emitted bytes are *always* exactly what the fresh encoder would
//! produce. There is one encoder, and drift is never answered with a
//! rebuild: the cache already holds the current epoch's plan, and
//! rebuilding at the same epoch reads the same plan again.
//!
//! A broadcaster is bound to one station instance: the epoch is not
//! snapshotted, so after [`Station::from_snapshot`] bind a fresh
//! broadcaster (its first slot rebuilds from the restored plan, keeping
//! recovery byte-identical).

use airsched_core::types::PageId;
use airsched_proto::frame::EncodeError;
use airsched_proto::template::{CyclicPayloads, FrameTemplateCache, PlanRow};
use bytes::BytesMut;

use crate::station::Station;

/// Encodes one slot of air time per call, serving every frame from a
/// plan-epoch-keyed [`FrameTemplateCache`].
///
/// ```
/// use airsched_core::types::PageId;
/// use airsched_proto::transmitter::FixedPayloads;
/// use airsched_server::{SlotBroadcaster, Station, TickBuf};
/// use bytes::{Bytes, BytesMut};
///
/// let mut station = Station::new(2, 8)?;
/// station.publish(PageId::new(0), 2)?;
/// let mut tx = SlotBroadcaster::new(FixedPayloads::new(Bytes::from_static(b"body")));
/// let mut buf = TickBuf::default();
/// let mut wire = BytesMut::new();
/// station.tick_into(&mut buf);
/// let written = tx.encode_slot(&station, buf.on_air(), buf.time(), &mut wire)?;
/// assert_eq!(written, wire.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SlotBroadcaster<P> {
    payloads: P,
    cache: FrameTemplateCache,
    /// The [`Station::plan_epoch`] the cache was retargeted at; `None`
    /// until the first slot.
    built_epoch: Option<u64>,
    rebuilds: u64,
    /// Registry mirrors for `rebuilds` and
    /// [`SlotBroadcaster::fresh_fallbacks`] (single-writer `store` after
    /// each encode), installed by [`SlotBroadcaster::attach_obs`].
    obs_counters: Option<(
        airsched_obs::metrics::Counter,
        airsched_obs::metrics::Counter,
    )>,
}

impl<P> std::fmt::Debug for SlotBroadcaster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotBroadcaster")
            .field("built_epoch", &self.built_epoch)
            .field("rebuilds", &self.rebuilds)
            .field("off_plan_slots", &self.cache.off_plan_slots())
            .finish_non_exhaustive()
    }
}

impl<P: CyclicPayloads> SlotBroadcaster<P> {
    /// Wraps a payload supplier and a cache with no plan; the first
    /// [`SlotBroadcaster::encode_slot`] retargets it.
    pub fn new(payloads: P) -> Self {
        Self {
            payloads,
            cache: FrameTemplateCache::new(),
            built_epoch: None,
            rebuilds: 0,
            obs_counters: None,
        }
    }

    /// Registers the broadcaster's template counters
    /// (`airsched_transmit_template_rebuilds_total`,
    /// `airsched_transmit_fresh_fallbacks_total`) with `obs` and mirrors
    /// them after every encode. Series appear immediately (value 0), so
    /// exposition is stable whether or not a rebuild has happened yet.
    pub fn attach_obs(&mut self, obs: &airsched_obs::Obs) {
        let reg = obs.registry();
        let rebuilds = reg.counter("airsched_transmit_template_rebuilds_total", &[]);
        let fallbacks = reg.counter("airsched_transmit_fresh_fallbacks_total", &[]);
        rebuilds.store(self.rebuilds);
        fallbacks.store(self.fresh_fallbacks());
        self.obs_counters = Some((rebuilds, fallbacks));
    }

    /// Appends one encoded slot — one frame per physical channel, idle
    /// frames for `None` carriers — to `buf`, returning the bytes
    /// written. `on_air` is the tick's post-stall column
    /// ([`crate::TickBuf::on_air`]) and `slot_time` its slot
    /// ([`crate::TickBuf::time`]); the output is byte-identical to
    /// running the fresh encoder over the same column, whether or not the
    /// column agrees with the cached plan.
    ///
    /// # Errors
    ///
    /// Propagates [`EncodeError`] from a cache rebuild or from encoding a
    /// page the column needs (a channel index or payload too wide for the
    /// wire format) with nothing appended for the offending slot.
    pub fn encode_slot(
        &mut self,
        station: &Station,
        on_air: &[Option<PageId>],
        slot_time: u64,
        buf: &mut BytesMut,
    ) -> Result<usize, EncodeError> {
        let result = self.encode_slot_inner(station, on_air, slot_time, buf);
        if let Some((rebuilds, fallbacks)) = &self.obs_counters {
            rebuilds.store(self.rebuilds);
            fallbacks.store(self.fresh_fallbacks());
        }
        result
    }

    fn encode_slot_inner(
        &mut self,
        station: &Station,
        on_air: &[Option<PageId>],
        slot_time: u64,
        buf: &mut BytesMut,
    ) -> Result<usize, EncodeError> {
        if self.built_epoch != Some(station.plan_epoch()) {
            self.rebuild(station)?;
        }
        self.cache
            .encode_slot_into(on_air, slot_time, &mut self.payloads, buf)
    }

    /// Retargets the template cache onto the station's current effective
    /// grid and records the epoch it captured. Only the channels whose
    /// row version moved are re-read, and only pages new to the grid are
    /// encoded.
    fn rebuild(&mut self, station: &Station) -> Result<(), EncodeError> {
        let (cycle_len, rows) = station.plan_rows();
        let rows: Vec<PlanRow<'_>> = rows.collect();
        self.cache.retarget(cycle_len, &rows, &mut self.payloads)?;
        self.built_epoch = Some(station.plan_epoch());
        self.rebuilds += 1;
        Ok(())
    }

    /// How many times the cache was (re)built — 1 after the first slot
    /// of an unchanging plan, +1 per plan change encountered since.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Slots whose column disagreed with the current epoch's cached plan
    /// ([`FrameTemplateCache::off_plan_slots`]); each was served from
    /// page templates, not by a second encoder. The name is the one the metric
    /// (`airsched_transmit_fresh_fallbacks_total`) has always had. Zero in
    /// any steady pipeline.
    #[must_use]
    pub fn fresh_fallbacks(&self) -> u64 {
        self.cache.off_plan_slots()
    }

    /// The live cache, once the first slot has retargeted it.
    #[must_use]
    pub fn cache(&self) -> Option<&FrameTemplateCache> {
        self.built_epoch.map(|_| &self.cache)
    }

    /// The payload supplier.
    pub fn payloads_mut(&mut self) -> &mut P {
        &mut self.payloads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::station::TickBuf;
    use airsched_core::program::BroadcastProgram;
    use airsched_core::types::ChannelId;
    use airsched_proto::transmitter::encode_slot_into;

    /// Per-page deterministic payloads, page-keyed (the template
    /// contract) with distinct lengths so delta tables are exercised.
    #[derive(Debug, Clone, Default)]
    struct PagePayloads;

    impl CyclicPayloads for PagePayloads {
        fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
            let n = (page.index() as usize % 5) * 17 + 3;
            out.extend_from_slice(
                &(0..n)
                    .map(|i| (i as u8) ^ (page.index() as u8).wrapping_mul(73))
                    .collect::<Vec<u8>>(),
            );
        }
    }

    /// [`PagePayloads`] that counts how many payloads it was asked for.
    #[derive(Debug, Default)]
    struct CountedPayloads {
        calls: u64,
    }

    impl CyclicPayloads for CountedPayloads {
        fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
            self.calls += 1;
            PagePayloads.page_payload(page, out);
        }
    }

    fn build_station() -> Station {
        let mut station = Station::new(3, 8).expect("station builds");
        station.publish(PageId::new(0), 2).expect("publishes");
        station.publish(PageId::new(1), 4).expect("publishes");
        station.publish(PageId::new(2), 8).expect("publishes");
        station.publish(PageId::new(3), 8).expect("publishes");
        station
    }

    /// One tick's wire bytes from the fresh encoder, for comparison.
    fn fresh_bytes(on_air: &[Option<PageId>], slot_time: u64) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_slot_into(on_air, slot_time, &mut PagePayloads, &mut buf)
            .expect("fresh encoding succeeds");
        buf
    }

    #[test]
    fn plan_epoch_moves_on_every_invalidation_point() {
        let mut station = build_station();
        let mut last = station.plan_epoch();
        let expect_bump = |station: &Station, what: &str, last: &mut u64| {
            assert!(
                station.plan_epoch() > *last,
                "{what} must bump the plan epoch"
            );
            *last = station.plan_epoch();
        };
        station.publish(PageId::new(4), 8).expect("publishes");
        expect_bump(&station, "publish", &mut last);
        station.expire(PageId::new(4)).expect("expires");
        expect_bump(&station, "expire", &mut last);
        station.fail_channel(ChannelId::new(2));
        expect_bump(&station, "fail_channel", &mut last);
        station.restore_channel(ChannelId::new(2));
        expect_bump(&station, "restore_channel", &mut last);
        station.set_degradation_policy(crate::station::DegradationPolicy::default());
        expect_bump(&station, "set_degradation_policy", &mut last);
        // Plain ticking of an unchanged plan must NOT bump: steady state
        // keeps the cache.
        let mut buf = TickBuf::default();
        station.tick_into(&mut buf);
        assert_eq!(station.plan_epoch(), last, "a quiet tick keeps the epoch");
    }

    #[test]
    fn template_slots_match_fresh_encoding_through_the_ladder() {
        let mut station = build_station();
        let mut tx = SlotBroadcaster::new(CountedPayloads::default());
        let mut buf = TickBuf::default();
        let mut wire = BytesMut::new();
        let mut check = |station: &mut Station, tx: &mut SlotBroadcaster<CountedPayloads>| {
            station.tick_into(&mut buf);
            wire.clear();
            let written = tx
                .encode_slot(station, buf.on_air(), buf.time(), &mut wire)
                .expect("slot encodes");
            assert_eq!(written, wire.len());
            assert_eq!(
                &wire[..],
                &fresh_bytes(buf.on_air(), buf.time())[..],
                "slot {} diverged from the fresh encoder",
                buf.time()
            );
        };
        for _ in 0..16 {
            check(&mut station, &mut tx);
        }
        assert_eq!(tx.rebuilds(), 1, "a steady plan builds once");
        assert_eq!(tx.payloads_mut().calls, 4, "one payload per page");
        // Walk down the ladder (repack, then best-effort) and back up,
        // publishing mid-degradation; every slot must stay byte-exact, and
        // only the published page is ever encoded again.
        station.fail_channel(ChannelId::new(2));
        for _ in 0..8 {
            check(&mut station, &mut tx);
        }
        assert_eq!(tx.payloads_mut().calls, 4, "a repack encodes nothing");
        station.fail_channel(ChannelId::new(1));
        for _ in 0..8 {
            check(&mut station, &mut tx);
        }
        assert_eq!(
            tx.payloads_mut().calls,
            4,
            "a best-effort plan encodes nothing"
        );
        station.publish(PageId::new(9), 8).expect("publishes");
        for _ in 0..8 {
            check(&mut station, &mut tx);
        }
        assert_eq!(
            tx.payloads_mut().calls,
            5,
            "a publish encodes its page once"
        );
        station.restore_channel(ChannelId::new(1));
        station.restore_channel(ChannelId::new(2));
        for _ in 0..8 {
            check(&mut station, &mut tx);
        }
        assert_eq!(tx.payloads_mut().calls, 5, "a restore encodes nothing");
        assert!(tx.rebuilds() > 1, "every ladder move retargeted the cache");
        assert_eq!(
            tx.fresh_fallbacks(),
            0,
            "epoch keying covers every plan change"
        );
    }

    #[test]
    fn restored_station_with_fresh_broadcaster_is_byte_identical() {
        let mut station = build_station();
        let mut tx = SlotBroadcaster::new(PagePayloads);
        let mut buf = TickBuf::default();
        let mut wire = BytesMut::new();
        for _ in 0..5 {
            station.tick_into(&mut buf);
            wire.clear();
            tx.encode_slot(&station, buf.on_air(), buf.time(), &mut wire)
                .expect("slot encodes");
        }
        station.fail_channel(ChannelId::new(0));
        let snapshot = station.snapshot();
        // The survivor continues; the twin restores and binds a fresh
        // broadcaster, as crash recovery must.
        let mut twin = Station::from_snapshot(&snapshot, None).expect("snapshot restores");
        let mut twin_tx = SlotBroadcaster::new(PagePayloads);
        let mut twin_buf = TickBuf::default();
        let mut twin_wire = BytesMut::new();
        for _ in 0..12 {
            station.tick_into(&mut buf);
            wire.clear();
            tx.encode_slot(&station, buf.on_air(), buf.time(), &mut wire)
                .expect("slot encodes");
            twin.tick_into(&mut twin_buf);
            twin_wire.clear();
            twin_tx
                .encode_slot(&twin, twin_buf.on_air(), twin_buf.time(), &mut twin_wire)
                .expect("twin slot encodes");
            assert_eq!(buf.time(), twin_buf.time());
            assert_eq!(
                &wire[..],
                &twin_wire[..],
                "restored slot {} diverged on the wire",
                buf.time()
            );
        }
    }

    #[test]
    fn a_stale_column_is_served_from_page_templates() {
        // Encode a column captured *before* a plan change with the
        // post-change station: the epoch rebuild makes the cache disagree
        // with the stale column, so the broadcaster admits the pages the
        // column lacks a template for — and still emits exactly what the
        // fresh encoder does.
        let mut station = build_station();
        let mut tx = SlotBroadcaster::new(PagePayloads);
        let mut buf = TickBuf::default();
        station.tick_into(&mut buf);
        let stale: Vec<Option<PageId>> = buf.on_air().to_vec();
        let stale_time = buf.time();
        let mut wire = BytesMut::new();
        tx.encode_slot(&station, &stale, stale_time, &mut wire)
            .expect("pre-change slot encodes");
        assert_eq!(tx.rebuilds(), 1);
        station.expire(PageId::new(0)).expect("expires");
        station.publish(PageId::new(7), 2).expect("publishes");
        wire.clear();
        tx.encode_slot(&station, &stale, stale_time, &mut wire)
            .expect("stale column still encodes");
        assert_eq!(&wire[..], &fresh_bytes(&stale, stale_time)[..]);
        // One rebuild for the new epoch, none for the drift itself.
        assert_eq!(tx.rebuilds(), 2);
        assert_eq!(
            tx.fresh_fallbacks(),
            1,
            "a genuinely stale column is counted"
        );
    }

    #[test]
    fn a_refused_stale_column_appends_nothing() {
        /// [`PagePayloads`], except page 9's payload does not fit a frame.
        struct HugeNine;
        impl CyclicPayloads for HugeNine {
            fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
                if page.index() == 9 {
                    out.extend_from_slice(&[0; airsched_proto::frame::MAX_PAYLOAD + 1]);
                } else {
                    PagePayloads.page_payload(page, out);
                }
            }
        }
        let mut station = build_station();
        let mut tx = SlotBroadcaster::new(HugeNine);
        let mut buf = TickBuf::default();
        let mut wire = BytesMut::new();
        station.tick_into(&mut buf);
        tx.encode_slot(&station, buf.on_air(), buf.time(), &mut wire)
            .expect("an on-plan slot encodes");
        // Page 9 is on no plan, so its cell disagrees with the cache.
        wire.clear();
        let err = tx
            .encode_slot(&station, &[None, Some(PageId::new(9)), None], 1, &mut wire)
            .unwrap_err();
        assert!(matches!(err, EncodeError::PayloadTooLarge { .. }));
        assert!(wire.is_empty(), "a refused slot appends nothing");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// A broadcaster that re-reads only the rows whose version moved
        /// emits, at every slot of every epoch, the bytes of a new cache
        /// retargeted once onto [`Station::plan_cells`] at that epoch, holding as
        /// many templates and delta tables and counting the same off-plan
        /// slots — through random failures, restores, publishes and
        /// expiries, without a corruptor and with one switched on and off
        /// that rewrites one cell of a candidate through the program's
        /// own writes.
        #[test]
        fn transmit_row_retarget_matches_a_fresh_cache_at_every_epoch(
            ops in proptest::collection::vec(crate::station::tests::arb_churn_op(), 1..48),
            corrupting in proptest::prelude::any::<bool>(),
        ) {
            use crate::station::tests::{apply_churn, churn_station};
            let mut station = churn_station();
            let mut tx = SlotBroadcaster::new(PagePayloads);
            let mut reference: Option<(u64, FrameTemplateCache)> = None;
            let mut earlier_off_plan = 0;
            let mut buf = TickBuf::default();
            let (mut wire, mut fresh) = (BytesMut::new(), BytesMut::new());
            for op in &ops {
                for _ in 0..apply_churn(&mut station, op, corrupting) {
                    station.tick_into(&mut buf);
                    wire.clear();
                    tx.encode_slot(&station, buf.on_air(), buf.time(), &mut wire)
                        .expect("every page fits the wire");
                    let epoch = station.plan_epoch();
                    if reference.as_ref().is_none_or(|(built, _)| *built != epoch) {
                        earlier_off_plan += reference.map_or(0, |(_, c)| c.off_plan_slots());
                        let plan = station.plan_cells();
                        let program =
                            BroadcastProgram::from_cells(plan.channels, plan.cycle_len, &plan.cells)
                                .expect("the plan is a grid");
                        let rows: Vec<PlanRow<'_>> = (0..program.channels())
                            .map(|ch| PlanRow {
                                cells: Some(program.row_cells(ch)),
                                version: program.row_version(ch),
                            })
                            .collect();
                        let mut cache = FrameTemplateCache::new();
                        cache
                            .retarget(program.cycle_len(), &rows, &mut PagePayloads)
                            .expect("every page fits the wire");
                        reference = Some((epoch, cache));
                    }
                    let (_, want) = reference.as_mut().expect("built above");
                    fresh.clear();
                    want.encode_slot_into(buf.on_air(), buf.time(), &mut PagePayloads, &mut fresh)
                        .expect("every page fits the wire");
                    proptest::prop_assert_eq!(&wire[..], &fresh[..], "slot {}", buf.time());
                    let got = tx.cache().expect("built by the first slot");
                    proptest::prop_assert_eq!(got.template_count(), want.template_count());
                    proptest::prop_assert_eq!(got.delta_table_count(), want.delta_table_count());
                    proptest::prop_assert_eq!(
                        tx.fresh_fallbacks(),
                        earlier_off_plan + want.off_plan_slots()
                    );
                }
            }
        }
    }
}
