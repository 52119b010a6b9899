//! Property tests for the durability decoders against hostile bytes:
//! [`Checkpoint::decode`], journal frame decoding
//! ([`JournalRecord::decode_framed`]) and [`read_journal`] on arbitrary
//! file contents, from the start or from a checkpoint's byte cursor.
//! Each decoder is held to three properties:
//!
//! 1. it never panics, whatever the bytes;
//! 2. it never sizes an allocation from an untrusted length field — a
//!    sequence length must fit in the bytes actually present (the
//!    [`ByteReader::seq_len`] guard). A length field inflated towards
//!    `u32::MAX` would otherwise ask for tens of gigabytes and abort the
//!    test process;
//! 3. any input it accepts re-encodes to exactly the same bytes.
//!
//! Checkpoints and journal records are CRC-framed, so random bytes almost
//! never reach the body parsers. The mutation tests therefore re-frame
//! every mutated body with a correct length and CRC before decoding it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use airsched_core::dynamic::SchedulerSnapshot;
use airsched_core::types::{ChannelId, PageId, PAGE_ID_LIMIT};
use airsched_proto::crc16;
use airsched_recover::codec::ByteReader;
use airsched_recover::{
    read_journal, Checkpoint, JournalRecord, RecoverError, RecoverableStation, RecoveryOptions,
};
use airsched_server::faults::{FaultEvent, FaultPlan};
use airsched_server::station::{ActivePlanSnapshot, Mode, ProgramSnapshot};
use airsched_server::{Station, StationError};

/// Checkpoint header: magic (4), version (2), body length (4).
const HEADER_LEN: usize = 10;

/// A real checkpoint that exercises every section of the format: a fault
/// plan with a script, a degraded plan, parked waiters, health windows
/// and a pending channel event.
fn valid_checkpoint() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let plan = FaultPlan::seeded(12)
            .with_outage(0.05)
            .with_recovery(0.2)
            .with_stalls(0.02)
            .with_corruption(0.08)
            .with_script(vec![FaultEvent::Down {
                at: 10,
                channel: ChannelId::new(0),
            }]);
        let mut s = Station::with_faults(3, 8, &plan).expect("station builds");
        for (page, expected) in [(0, 2), (1, 4), (2, 8), (3, 8)] {
            s.publish(PageId::new(page), expected).expect("publishes");
        }
        for t in 0..40u32 {
            s.subscribe(PageId::new(t % 4)).expect("subscribes");
            s.tick();
        }
        s.subscribe(PageId::new(3)).expect("subscribes");
        s.fail_channel(ChannelId::new(2));
        Checkpoint {
            journal_skip: 17,
            journal_offset: 340,
            snapshot: s.snapshot(),
            fault_plan: Some(plan),
        }
        .encode()
    })
}

/// Wraps `body` in a checkpoint frame with a correct length and CRC, so
/// the body parser — not the frame check — sees the bytes.
fn frame_checkpoint(body: &[u8]) -> Vec<u8> {
    let mut out = valid_checkpoint()[..6].to_vec();
    out.extend_from_slice(&u32::try_from(body.len()).expect("small").to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc16(&out[..HEADER_LEN], body);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Wraps `body` in a journal frame with a correct length and CRC.
fn frame_record(body: &[u8]) -> Vec<u8> {
    let len = u16::try_from(body.len()).expect("small").to_le_bytes();
    let mut out = len.to_vec();
    out.extend_from_slice(body);
    out.extend_from_slice(&crc16(&len, body).to_le_bytes());
    out
}

/// Decodes a checkpoint frame; an accepted one must re-encode exactly.
fn check_checkpoint(bytes: &[u8]) {
    if let Ok(ck) = Checkpoint::decode(bytes) {
        assert_eq!(
            ck.encode(),
            bytes,
            "accepted checkpoint re-encodes differently"
        );
    }
}

/// Decodes a journal frame; an accepted one must re-encode exactly.
fn check_record(bytes: &[u8]) {
    if let Some((record, used)) = JournalRecord::decode_framed(bytes) {
        assert_eq!(
            record.encode_framed(),
            &bytes[..used],
            "accepted record re-encodes differently"
        );
    }
}

/// One in-place edit of a byte string.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// XOR one byte with a non-zero mask.
    Flip(prop::sample::Index, u8),
    /// Overwrite up to four bytes with a little-endian `u32`.
    Overwrite(prop::sample::Index, u32),
    /// Insert one byte.
    Insert(prop::sample::Index, u8),
    /// Delete one byte.
    Delete(prop::sample::Index),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<prop::sample::Index>(), 1u8..=255).prop_map(|(i, m)| Mutation::Flip(i, m)),
        (any::<prop::sample::Index>(), any::<u32>()).prop_map(|(i, v)| Mutation::Overwrite(i, v)),
        (any::<prop::sample::Index>(), any::<u8>()).prop_map(|(i, b)| Mutation::Insert(i, b)),
        any::<prop::sample::Index>().prop_map(Mutation::Delete),
    ]
}

fn mutate(bytes: &mut Vec<u8>, mutation: Mutation) {
    if bytes.is_empty() {
        if let Mutation::Insert(_, b) = mutation {
            bytes.push(b);
        }
        return;
    }
    match mutation {
        Mutation::Flip(i, mask) => {
            let at = i.index(bytes.len());
            bytes[at] ^= mask;
        }
        Mutation::Overwrite(i, v) => {
            let at = i.index(bytes.len());
            overwrite(bytes, at, v);
        }
        Mutation::Insert(i, b) => {
            let at = i.index(bytes.len() + 1);
            bytes.insert(at, b);
        }
        Mutation::Delete(i) => {
            let at = i.index(bytes.len());
            bytes.remove(at);
        }
    }
}

/// Overwrites up to four bytes from `at` with `v`, little endian.
fn overwrite(bytes: &mut [u8], at: usize, v: u32) {
    for (dst, src) in bytes[at..].iter_mut().zip(v.to_le_bytes()) {
        *dst = src;
    }
}

fn mode(byte: u8) -> Mode {
    [Mode::Valid, Mode::Repacked, Mode::BestEffort, Mode::Offline][usize::from(byte % 4)]
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (any::<u32>(), any::<u64>())
            .prop_map(|(page, client)| JournalRecord::Subscribe { page, client }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(page, expected)| JournalRecord::Publish { page, expected }),
        any::<u32>().prop_map(|page| JournalRecord::Expire { page }),
        any::<u32>().prop_map(|channel| JournalRecord::FailChannel { channel }),
        any::<u32>().prop_map(|channel| JournalRecord::RestoreChannel { channel }),
        any::<u64>().prop_map(|slot| JournalRecord::Tick { slot }),
        (any::<u64>(), any::<u8>())
            .prop_map(|(slot, m)| JournalRecord::ModeChange { slot, to: mode(m) }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(slot, delivered, on_time, total_wait)| JournalRecord::DeliveryDrain {
                slot,
                delivered,
                on_time,
                total_wait,
            }
        ),
        (any::<u64>(), any::<u8>()).prop_map(|(slot, m)| JournalRecord::PlanSwap {
            slot,
            mode: mode(m)
        }),
    ]
}

/// A fresh path per call, so proptest cases never share a file.
fn temp_journal() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "airsched-decoder-props-{}-{}.bin",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every 4-byte window of a real checkpoint body, overwritten with a
/// length near `u32::MAX`: whichever windows hold sequence lengths, the
/// guard must refuse them from the bytes present instead of reserving
/// gigabytes, and nothing may panic.
#[test]
fn every_inflated_length_field_is_refused_without_allocating() {
    let valid = valid_checkpoint();
    let body = &valid[HEADER_LEN..valid.len() - 2];
    assert_eq!(frame_checkpoint(body), valid, "re-framing is exact");
    for at in 0..body.len() {
        for huge in [u32::MAX, 0x8000_0000, 0x0100_0000] {
            let mut inflated = body.to_vec();
            overwrite(&mut inflated, at, huge);
            check_checkpoint(&frame_checkpoint(&inflated));
        }
    }
}

/// A CRC-valid checkpoint whose grid claims `2 x 2^63` cells while
/// holding none — for the scheduler and for a degraded plan in turn. The
/// cell count overflows, so `resume` must refuse the checkpoint rather
/// than panic.
#[test]
fn overflowing_grid_dimensions_make_resume_an_error() {
    let valid = Checkpoint::decode(valid_checkpoint()).expect("valid");
    let hostile = ProgramSnapshot {
        channels: 2,
        cycle: 1 << 63,
        grid: Vec::new(),
    };
    let mut on_scheduler = valid.clone();
    on_scheduler.snapshot.scheduler = SchedulerSnapshot {
        channels: hostile.channels,
        cycle: hostile.cycle,
        grid: Vec::new(),
        pages: Vec::new(),
    };
    let mut on_plan = valid;
    on_plan.snapshot.active = ActivePlanSnapshot::Reduced(hostile);
    for ck in [on_scheduler, on_plan] {
        let dir = temp_journal();
        std::fs::create_dir_all(&dir).expect("state dir");
        ck.write_atomic(&dir).expect("writes");
        let resumed = RecoverableStation::resume(&dir, RecoveryOptions::new(), None);
        std::fs::remove_dir_all(&dir).ok();
        assert!(resumed.is_err(), "{:?}", ck.snapshot.active);
    }
}

/// A CRC-valid checkpoint whose channel mask (and the injector's, so the
/// two agree) claims one channel more than the scheduler has. Ticking it
/// would index the full program's grid past its last row, so `resume`
/// must refuse it as an error rather than panic on the first replayed
/// tick.
#[test]
fn a_forged_channel_mask_makes_resume_an_error() {
    let mut ck = Checkpoint::decode(valid_checkpoint()).expect("valid");
    ck.snapshot.channel_up.push(true);
    ck.snapshot
        .injector
        .as_mut()
        .expect("the fixture has an injector")
        .up
        .push(true);
    let dir = temp_journal();
    std::fs::create_dir_all(&dir).expect("state dir");
    ck.write_atomic(&dir).expect("writes");
    let resumed = RecoverableStation::resume(&dir, RecoveryOptions::new(), None);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(resumed, Err(RecoverError::Station(_))),
        "{:?}",
        resumed.err()
    );
}

/// An edit of a decoded checkpoint.
type Forgery = fn(&mut Checkpoint);

/// A state directory holding a real run's checkpoint, edited by `forge`
/// and re-written CRC-valid, followed by 16 journaled ticks. The fault
/// plan has no random faults, so no fault the journal records contradicts
/// a forged mask, and the journal holds no subscribe after the checkpoint:
/// resuming the untouched directory replays without error.
fn forged_state_dir(forge: Forgery) -> PathBuf {
    let plan = FaultPlan::scripted(vec![FaultEvent::Down {
        at: 10,
        channel: ChannelId::new(0),
    }]);
    let mut s = Station::with_faults(3, 8, &plan).expect("station builds");
    for (page, expected) in [(0, 2), (1, 4), (2, 8), (3, 8)] {
        s.publish(PageId::new(page), expected).expect("publishes");
    }
    let dir = temp_journal();
    let mut run =
        RecoverableStation::create(&dir, s, Some(plan), RecoveryOptions::new()).expect("creates");
    for t in 0..40u32 {
        run.subscribe(PageId::new(t % 4)).expect("subscribes");
        run.tick().expect("ticks");
    }
    for page in 0..4 {
        run.subscribe(PageId::new(page)).expect("subscribes");
    }
    run.checkpoint().expect("checkpoints");
    for _ in 0..16 {
        run.tick().expect("ticks");
    }
    drop(run);
    let mut ck = Checkpoint::read(&dir).expect("reads");
    forge(&mut ck);
    ck.write_atomic(&dir).expect("writes");
    dir
}

/// Each fact the checkpoint stores twice — the expected times beside the
/// scheduler's catalogue, the injector's channel mask beside the
/// station's, the waiting count beside the waiters — and each waiter's
/// subscription slot must agree with the station's own, and the
/// scheduler's grid must air every live page. A CRC-valid
/// checkpoint that breaks one of them must make `resume` an error before
/// the journal replay, where the waiting count and a future `since`
/// would underflow on the first drain.
#[test]
fn forged_duplicate_facts_make_resume_an_error() {
    let dir = forged_state_dir(|_| {});
    let resumed = RecoverableStation::resume(&dir, RecoveryOptions::new(), None);
    std::fs::remove_dir_all(&dir).ok();
    let (_, report) = resumed.expect("the untouched directory resumes");
    assert_eq!(
        report.resumed_at,
        40 + 16,
        "the 16 ticks after the checkpoint"
    );
    let forgeries: [(&str, Forgery); 5] = [
        ("expected times list a page that is not live", |ck| {
            ck.snapshot.expected.push(Some(8));
        }),
        ("injector mask disagrees with the station's", |ck| {
            let up = &mut ck.snapshot.injector.as_mut().expect("injector").up;
            up[1] = !up[1];
        }),
        ("waiting count below the waiters carried", |ck| {
            ck.snapshot.stats.waiting = 0;
        }),
        ("a waiter subscribed after the snapshot's time", |ck| {
            let time = ck.snapshot.time;
            for waiters in &mut ck.snapshot.waiting {
                if let Some(w) = waiters.first_mut() {
                    w.1 = time + 1000;
                }
            }
        }),
        ("the scheduler's grid does not air a live page", |ck| {
            let scheduler = &mut ck.snapshot.scheduler;
            let page = scheduler.pages[0].0;
            for cell in &mut scheduler.grid {
                if *cell == Some(page) {
                    *cell = None;
                }
            }
        }),
    ];
    for (what, forge) in forgeries {
        let dir = forged_state_dir(forge);
        let resumed = RecoverableStation::resume(&dir, RecoveryOptions::new(), None);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            matches!(
                resumed,
                Err(RecoverError::Station(StationError::CorruptSnapshot { .. }))
            ),
            "{what}: {:?}",
            resumed.err()
        );
    }
}

/// The checkpoint's mode byte is derived from the plan tag that follows
/// it, so of all 16 (mode byte, tag) pairs in a CRC-valid checkpoint
/// exactly the 4 that agree decode.
#[test]
fn a_mode_byte_that_contradicts_the_plan_is_refused() {
    let valid = Checkpoint::decode(valid_checkpoint()).expect("valid");
    let ActivePlanSnapshot::Reduced(program) = &valid.snapshot.active else {
        panic!("the fixture is degraded: {:?}", valid.snapshot.active);
    };
    let plans = [
        ActivePlanSnapshot::Full,
        ActivePlanSnapshot::Reduced(program.clone()),
        ActivePlanSnapshot::BestEffort(program.clone()),
        ActivePlanSnapshot::Offline,
    ];
    let encode = |active: &ActivePlanSnapshot| {
        let mut ck = valid.clone();
        ck.snapshot.active = active.clone();
        ck.encode()
    };
    // Everything before the mode byte is the same in every encoding, so
    // the first byte where the full and the offline encodings differ is
    // the mode byte, and the tag follows it.
    let (full, offline) = (encode(&plans[0]), encode(&plans[3]));
    let at = full
        .iter()
        .zip(&offline)
        .position(|(a, b)| a != b)
        .expect("differ")
        - HEADER_LEN;
    for (tag, active) in (0u8..).zip(&plans) {
        let bytes = encode(active);
        let body = &bytes[HEADER_LEN..bytes.len() - 2];
        assert_eq!((body[at], body[at + 1]), (tag, tag), "{active:?}");
        for byte in 0..4u8 {
            let mut forged = body.to_vec();
            forged[at] = byte;
            let decoded = Checkpoint::decode(&frame_checkpoint(&forged));
            assert_eq!(
                decoded.is_ok(),
                byte == tag,
                "mode byte {byte} with plan tag {tag}"
            );
            if let Ok(ck) = decoded {
                assert_eq!(ck.snapshot.active.mode(), mode(byte));
            }
        }
    }
}

/// A CRC-valid checkpoint whose grid names a page id at or above
/// `PAGE_ID_LIMIT` — in the scheduler's grid and in a degraded plan's in
/// turn. Restoring either would size the program's dense per-page tables
/// by the id, so `resume` must refuse it as an error.
#[test]
fn forged_page_ids_make_resume_an_error() {
    let valid = Checkpoint::decode(valid_checkpoint()).expect("valid");
    for id in [PAGE_ID_LIMIT, u32::MAX] {
        let mut on_scheduler = valid.clone();
        on_scheduler.snapshot.scheduler.grid[0] = Some(PageId::new(id));
        let mut on_plan = valid.clone();
        let ActivePlanSnapshot::Reduced(plan) = &mut on_plan.snapshot.active else {
            panic!("the fixture is degraded: {:?}", on_plan.snapshot.active);
        };
        plan.grid[0] = Some(PageId::new(id));
        for ck in [on_scheduler, on_plan] {
            let dir = temp_journal();
            std::fs::create_dir_all(&dir).expect("state dir");
            ck.write_atomic(&dir).expect("writes");
            let resumed = RecoverableStation::resume(&dir, RecoveryOptions::new(), None);
            std::fs::remove_dir_all(&dir).ok();
            assert!(resumed.is_err(), "id {id} restored");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The guard itself: a sequence length is only granted when that
    /// many items of the stated minimum width fit in the bytes left.
    #[test]
    fn seq_len_never_promises_more_than_the_bytes_left(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        min_item in 0usize..32,
    ) {
        let mut r = ByteReader::new(&bytes);
        if let Ok(len) = r.seq_len(min_item) {
            prop_assert!(len * min_item.max(1) <= r.remaining());
        }
    }

    /// Arbitrary bytes, raw and wrapped in a valid frame, never panic the
    /// checkpoint decoder, and anything accepted re-encodes exactly.
    #[test]
    fn checkpoint_decode_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_checkpoint(&bytes);
        check_checkpoint(&frame_checkpoint(&bytes));
    }

    /// A real checkpoint body with a handful of flips, overwrites,
    /// insertions and deletions, re-framed so the body parser sees it.
    #[test]
    fn mutated_checkpoints_fail_closed_or_round_trip(
        mutations in prop::collection::vec(arb_mutation(), 1..6),
    ) {
        let valid = valid_checkpoint();
        let mut body = valid[HEADER_LEN..valid.len() - 2].to_vec();
        for m in mutations {
            mutate(&mut body, m);
        }
        check_checkpoint(&frame_checkpoint(&body));
    }

    /// Arbitrary bytes never panic the journal frame decoder; CRC-valid
    /// frames around arbitrary bodies reach the record parser, and every
    /// accepted frame re-encodes exactly.
    #[test]
    fn journal_frames_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        kind in 0u8..10,
        body in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        check_record(&bytes);
        let mut tagged = vec![kind];
        tagged.extend_from_slice(&body);
        check_record(&frame_record(&tagged));
        check_record(&frame_record(&body));
    }

    /// Valid records with mutated bodies, re-framed with a correct CRC.
    #[test]
    fn mutated_journal_records_fail_closed_or_round_trip(
        record in arb_record(),
        mutations in prop::collection::vec(arb_mutation(), 1..4),
    ) {
        let framed = record.encode_framed();
        prop_assert_eq!(
            JournalRecord::decode_framed(&framed),
            Some((record, framed.len()))
        );
        let mut body = framed[2..framed.len() - 2].to_vec();
        for m in mutations {
            mutate(&mut body, m);
        }
        check_record(&frame_record(&body));
    }

    /// `read_journal` over a valid prefix followed by arbitrary garbage:
    /// no panic, the prefix survives, the split between valid and
    /// dropped bytes covers the file, and the valid part re-encodes to
    /// exactly the bytes it was read from.
    #[test]
    fn read_journal_survives_arbitrary_files(
        prefix in prop::collection::vec(arb_record(), 0..6),
        garbage in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut file = Vec::new();
        for r in &prefix {
            file.extend_from_slice(&r.encode_framed());
        }
        let prefix_bytes = file.len();
        file.extend_from_slice(&garbage);
        let path = temp_journal();
        std::fs::write(&path, &file).expect("write journal");
        let out = read_journal(&path, 0).expect("a readable file never errors");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&out.records[..prefix.len()], &prefix[..]);
        prop_assert!(out.valid_bytes as usize >= prefix_bytes);
        prop_assert_eq!(out.valid_bytes + out.dropped_bytes, file.len() as u64);
        let reencoded: Vec<u8> = out.records.iter().flat_map(JournalRecord::encode_framed).collect();
        prop_assert_eq!(&reencoded[..], &file[..out.valid_bytes as usize]);
    }

    /// `encode_framed_into` appends exactly `encode_framed`'s bytes
    /// after whatever the buffer already holds, for every record kind.
    #[test]
    fn framing_into_a_buffer_appends_the_framed_record(
        prefix in prop::collection::vec(any::<u8>(), 0..64),
        record in arb_record(),
    ) {
        let mut buf = prefix.clone();
        record.encode_framed_into(&mut buf);
        let mut expected = prefix;
        expected.extend_from_slice(&record.encode_framed());
        prop_assert_eq!(buf, expected);
    }

    /// Both journal cursors round-trip through the checkpoint frame.
    #[test]
    fn journal_cursors_round_trip(skip in any::<u64>(), offset in any::<u64>()) {
        let mut ck = Checkpoint::decode(valid_checkpoint()).expect("valid");
        ck.journal_skip = skip;
        ck.journal_offset = offset;
        let bytes = ck.encode();
        prop_assert_eq!(Checkpoint::decode(&bytes).expect("round-trips"), ck);
    }

    /// A read from a checkpoint's byte cursor yields exactly the records
    /// after it, whatever garbage sits in the covered prefix or after
    /// the tail, and reports offsets in whole-file terms.
    #[test]
    fn read_journal_from_a_cursor_decodes_only_the_tail(
        covered in prop::collection::vec(any::<u8>(), 0..64),
        tail in prop::collection::vec(arb_record(), 0..6),
        garbage in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut file = covered.clone();
        for r in &tail {
            r.encode_framed_into(&mut file);
        }
        let tail_end = file.len() as u64;
        file.extend_from_slice(&garbage);
        let path = temp_journal();
        std::fs::write(&path, &file).expect("write journal");
        let out = read_journal(&path, covered.len() as u64).expect("cursor inside the file");
        let past_end = read_journal(&path, file.len() as u64 + 1);
        std::fs::remove_file(&path).ok();
        let missing = read_journal(&path, 1);
        prop_assert_eq!(&out.records[..tail.len()], &tail[..]);
        prop_assert!(out.valid_bytes >= tail_end);
        prop_assert_eq!(out.valid_bytes + out.dropped_bytes, file.len() as u64);
        // A cursor past the end of the file, or into a missing file, is
        // corruption, not an empty tail.
        for refused in [past_end, missing] {
            let is_corrupt_journal =
                matches!(refused, Err(RecoverError::Corrupt { what: "journal", .. }));
            prop_assert!(is_corrupt_journal);
        }
    }
}
