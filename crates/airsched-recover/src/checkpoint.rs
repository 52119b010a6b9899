//! The checkpoint: one atomically-replaced file holding the complete
//! station state at a known slot.
//!
//! ## On-disk layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic 0x4153434B ("ASCK"), little endian
//! 4       2     format version (currently 3)
//! 6       4     body length in bytes
//! 10      n     body (see below)
//! 10+n    2     CRC-16/CCITT-FALSE over bytes 0..10+n
//! ```
//!
//! The CRC is the same table-driven CRC-16 the wire frames use
//! ([`airsched_proto::crc16`]), covering header *and* body, so a torn or
//! bit-rotted checkpoint is detected as a unit. The body serializes, in
//! order: the journal cursor — `journal_skip`, how many journal records
//! this checkpoint already covers, and `journal_offset`, the byte length
//! of those records, where recovery seeks to — the full
//! [`StationSnapshot`], and the optional [`FaultPlan`] (script, seed and
//! rates) so a restored station can rebuild its deterministic injector.
//! Version 3 added `journal_offset`; older files are refused as
//! corrupt.
//!
//! ## Atomicity
//!
//! [`Checkpoint::write_atomic`] writes a shadow file
//! (`checkpoint.tmp`), fsyncs it, then renames it over
//! `checkpoint.bin`. A crash mid-write therefore leaves the *previous*
//! checkpoint intact plus a torn shadow that recovery never reads; a
//! crash after the rename leaves the new checkpoint. There is no
//! in-between state, and the CRC catches the filesystem lying about
//! either.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use airsched_core::dynamic::SchedulerSnapshot;
use airsched_core::types::{ChannelId, PageId};
use airsched_proto::crc16;
use airsched_server::faults::{FaultEvent, FaultPlan};
use airsched_server::health::{ChannelEvent, ChannelHealthSnapshot, HealthSnapshot};
use airsched_server::station::{
    ActivePlanSnapshot, DegradationPolicy, Mode, ModeTally, ProgramSnapshot, StationSnapshot,
    StationStats,
};

use crate::codec::{ByteReader, ByteWriter, Reason};
use crate::RecoverError;

/// File name of the live checkpoint inside a state directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// File name of the shadow file a checkpoint is staged in before the
/// atomic rename.
pub const CHECKPOINT_SHADOW: &str = "checkpoint.tmp";

const MAGIC: u32 = 0x4153_434B; // "ASCK"
const VERSION: u16 = 3;
const HEADER_LEN: usize = 10;

fn corrupt(reason: Reason) -> RecoverError {
    RecoverError::Corrupt {
        what: "checkpoint",
        reason,
    }
}

/// A decoded checkpoint: everything needed to rebuild the station as it
/// was at capture time, plus the journal cursor recovery resumes from.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// How many journal records were already applied when this
    /// checkpoint was taken. Recovery skips exactly this many records
    /// and replays the rest — the journal is never truncated by a
    /// checkpoint, so there is no crash window between "new checkpoint"
    /// and "shortened journal".
    pub journal_skip: u64,
    /// Byte length of those `journal_skip` records: recovery seeks here
    /// and decodes only the tail, so its cost is bounded by the
    /// checkpoint cadence rather than by uptime.
    pub journal_offset: u64,
    /// The full station state.
    pub snapshot: StationSnapshot,
    /// The fault plan the station was running under, if any. The plan's
    /// script and rates are immutable inputs, so persisting them beside
    /// the injector's evolving state makes the checkpoint
    /// self-contained.
    pub fault_plan: Option<FaultPlan>,
}

impl Checkpoint {
    /// Encodes the checkpoint into its framed on-disk bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = ByteWriter::new();
        body.u64(self.journal_skip);
        body.u64(self.journal_offset);
        put_station_snapshot(&mut body, &self.snapshot);
        match &self.fault_plan {
            Some(plan) => {
                body.bool(true);
                put_fault_plan(&mut body, plan);
            }
            None => body.bool(false),
        }
        let body = body.into_bytes();

        let mut out = Vec::with_capacity(HEADER_LEN + body.len() + 2);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(body.len())
                .expect("checkpoint body fits in u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&body);
        let crc = crc16(&out[..HEADER_LEN], &body);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a checkpoint from its framed bytes.
    ///
    /// # Errors
    ///
    /// Returns [`RecoverError::Corrupt`] on a bad magic, unknown
    /// version, wrong length, CRC mismatch, or any malformed field —
    /// a torn write can produce any of these and all are fail-closed.
    pub fn decode(bytes: &[u8]) -> Result<Self, RecoverError> {
        if bytes.len() < HEADER_LEN + 2 {
            return Err(corrupt("file shorter than the fixed frame"));
        }
        let mut header = ByteReader::new(&bytes[..HEADER_LEN]);
        if header.u32().expect("header sized above") != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if header.u16().expect("header sized above") != VERSION {
            return Err(corrupt("unknown format version"));
        }
        let body_len = header.u32().expect("header sized above") as usize;
        if bytes.len() != HEADER_LEN + body_len + 2 {
            return Err(corrupt("length field disagrees with the file size"));
        }
        let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
        let stored = u16::from_le_bytes(
            bytes[HEADER_LEN + body_len..]
                .try_into()
                .expect("2 trailing bytes"),
        );
        if crc16(&bytes[..HEADER_LEN], body) != stored {
            return Err(corrupt("CRC mismatch (torn or bit-rotted write)"));
        }

        let mut r = ByteReader::new(body);
        let parsed = (|| -> Result<Self, Reason> {
            let journal_skip = r.u64()?;
            let journal_offset = r.u64()?;
            let snapshot = get_station_snapshot(&mut r)?;
            let fault_plan = if r.bool()? {
                Some(get_fault_plan(&mut r)?)
            } else {
                None
            };
            r.finish()?;
            Ok(Self {
                journal_skip,
                journal_offset,
                snapshot,
                fault_plan,
            })
        })();
        parsed.map_err(corrupt)
    }

    /// Writes the checkpoint into `dir` via shadow file + fsync +
    /// atomic rename, returning the encoded size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the previous checkpoint (if
    /// any) is untouched.
    pub fn write_atomic(&self, dir: &Path) -> io::Result<u64> {
        let bytes = self.encode();
        let shadow = dir.join(CHECKPOINT_SHADOW);
        let live = dir.join(CHECKPOINT_FILE);
        let mut f = fs::File::create(&shadow)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&shadow, &live)?;
        // Persist the rename itself. Directory fsync is best-effort:
        // not every filesystem supports opening a directory for sync.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(bytes.len() as u64)
    }

    /// Reads and decodes the checkpoint in `dir`.
    ///
    /// # Errors
    ///
    /// [`RecoverError::MissingCheckpoint`] if no checkpoint file exists,
    /// I/O errors, or [`RecoverError::Corrupt`] on a bad frame.
    pub fn read(dir: &Path) -> Result<Self, RecoverError> {
        let path = dir.join(CHECKPOINT_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RecoverError::MissingCheckpoint { path });
            }
            Err(e) => return Err(RecoverError::Io(e)),
        };
        Self::decode(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Domain encoders. Each `put_x` has a `get_x` inverse; the pairs are the
// single source of truth for field order.

/// Stable byte for a [`Mode`]; shared with the journal codec.
pub(crate) fn mode_to_u8(mode: Mode) -> u8 {
    match mode {
        Mode::Valid => 0,
        Mode::Repacked => 1,
        Mode::BestEffort => 2,
        Mode::Offline => 3,
    }
}

/// Inverse of [`mode_to_u8`].
pub(crate) fn mode_from_u8(byte: u8) -> Result<Mode, Reason> {
    Ok(match byte {
        0 => Mode::Valid,
        1 => Mode::Repacked,
        2 => Mode::BestEffort,
        3 => Mode::Offline,
        _ => return Err("unknown mode byte"),
    })
}

fn put_opt_page(w: &mut ByteWriter, page: Option<PageId>) {
    match page {
        Some(p) => {
            w.bool(true);
            w.u32(p.index());
        }
        None => w.bool(false),
    }
}

fn get_opt_page(r: &mut ByteReader<'_>) -> Result<Option<PageId>, Reason> {
    Ok(if r.bool()? {
        Some(PageId::new(r.u32()?))
    } else {
        None
    })
}

fn put_scheduler(w: &mut ByteWriter, s: &SchedulerSnapshot) {
    w.u32(s.channels);
    w.u64(s.cycle);
    w.seq_len(s.grid.len());
    for cell in &s.grid {
        put_opt_page(w, *cell);
    }
    w.seq_len(s.pages.len());
    for &(page, expected) in &s.pages {
        w.u32(page.index());
        w.u64(expected);
    }
}

fn get_scheduler(r: &mut ByteReader<'_>) -> Result<SchedulerSnapshot, Reason> {
    let channels = r.u32()?;
    let cycle = r.u64()?;
    let cells = r.seq_len(1)?;
    let mut grid = Vec::with_capacity(cells);
    for _ in 0..cells {
        grid.push(get_opt_page(r)?);
    }
    let n = r.seq_len(12)?;
    let mut pages = Vec::with_capacity(n);
    for _ in 0..n {
        pages.push((PageId::new(r.u32()?), r.u64()?));
    }
    Ok(SchedulerSnapshot {
        channels,
        cycle,
        grid,
        pages,
    })
}

fn put_program(w: &mut ByteWriter, p: &ProgramSnapshot) {
    w.u32(p.channels);
    w.u64(p.cycle);
    w.seq_len(p.grid.len());
    for cell in &p.grid {
        put_opt_page(w, *cell);
    }
}

fn get_program(r: &mut ByteReader<'_>) -> Result<ProgramSnapshot, Reason> {
    let channels = r.u32()?;
    let cycle = r.u64()?;
    let cells = r.seq_len(1)?;
    let mut grid = Vec::with_capacity(cells);
    for _ in 0..cells {
        grid.push(get_opt_page(r)?);
    }
    Ok(ProgramSnapshot {
        channels,
        cycle,
        grid,
    })
}

fn put_stats(w: &mut ByteWriter, s: &StationStats) {
    w.u64(s.slots_elapsed);
    w.u64(s.delivered);
    w.u64(s.on_time);
    w.u64(s.total_wait);
    w.u64(s.waiting);
    w.u64(s.failovers);
    w.u64(s.repacks);
    w.u64(s.recoveries);
    w.u64(s.degraded_slots);
    w.u64(s.plan_rejections);
    w.u64(s.plan_warnings);
    w.u64(s.solve_rejections);
    w.u64(s.mode_changes);
    w.opt_u64(s.last_mode_change_slot);
    for tally in s.mode_tallies() {
        w.u64(tally.delivered);
        w.u64(tally.on_time);
    }
}

// `StationStats` keeps its per-mode tallies private, so the struct must
// be built up field by field around the accessor pair.
#[allow(clippy::field_reassign_with_default)]
fn get_stats(r: &mut ByteReader<'_>) -> Result<StationStats, Reason> {
    let mut s = StationStats::default();
    s.slots_elapsed = r.u64()?;
    s.delivered = r.u64()?;
    s.on_time = r.u64()?;
    s.total_wait = r.u64()?;
    s.waiting = r.u64()?;
    s.failovers = r.u64()?;
    s.repacks = r.u64()?;
    s.recoveries = r.u64()?;
    s.degraded_slots = r.u64()?;
    s.plan_rejections = r.u64()?;
    s.plan_warnings = r.u64()?;
    s.solve_rejections = r.u64()?;
    s.mode_changes = r.u64()?;
    s.last_mode_change_slot = r.opt_u64()?;
    let mut tallies = [ModeTally::default(); 4];
    for tally in &mut tallies {
        tally.delivered = r.u64()?;
        tally.on_time = r.u64()?;
    }
    s.set_mode_tallies(tallies);
    Ok(s)
}

fn put_health(w: &mut ByteWriter, h: &HealthSnapshot) {
    w.u32(h.thresholds.window);
    w.u32(h.thresholds.error_permille);
    w.u32(h.thresholds.stall_permille);
    w.seq_len(h.channels.len());
    for c in &h.channels {
        w.u32(c.samples);
        w.u32(c.errors);
        w.u32(c.stalls);
        w.bool(c.degraded);
    }
}

fn get_health(r: &mut ByteReader<'_>) -> Result<HealthSnapshot, Reason> {
    let thresholds = airsched_server::health::HealthThresholds {
        window: r.u32()?,
        error_permille: r.u32()?,
        stall_permille: r.u32()?,
    };
    let n = r.seq_len(13)?;
    let mut channels = Vec::with_capacity(n);
    for _ in 0..n {
        channels.push(ChannelHealthSnapshot {
            samples: r.u32()?,
            errors: r.u32()?,
            stalls: r.u32()?,
            degraded: r.bool()?,
        });
    }
    Ok(HealthSnapshot {
        thresholds,
        channels,
    })
}

fn put_channel_event(w: &mut ByteWriter, e: &ChannelEvent) {
    match e {
        ChannelEvent::Down { channel, at } => {
            w.u8(0);
            w.u32(channel.index());
            w.u64(*at);
        }
        ChannelEvent::Up { channel, at } => {
            w.u8(1);
            w.u32(channel.index());
            w.u64(*at);
        }
        ChannelEvent::Degraded {
            channel,
            at,
            error_permille,
            stall_permille,
        } => {
            w.u8(2);
            w.u32(channel.index());
            w.u64(*at);
            w.u32(*error_permille);
            w.u32(*stall_permille);
        }
        ChannelEvent::Healthy { channel, at } => {
            w.u8(3);
            w.u32(channel.index());
            w.u64(*at);
        }
    }
}

fn get_channel_event(r: &mut ByteReader<'_>) -> Result<ChannelEvent, Reason> {
    let kind = r.u8()?;
    let channel = ChannelId::new(r.u32()?);
    let at = r.u64()?;
    Ok(match kind {
        0 => ChannelEvent::Down { channel, at },
        1 => ChannelEvent::Up { channel, at },
        2 => ChannelEvent::Degraded {
            channel,
            at,
            error_permille: r.u32()?,
            stall_permille: r.u32()?,
        },
        3 => ChannelEvent::Healthy { channel, at },
        _ => return Err("unknown channel-event kind"),
    })
}

fn put_station_snapshot(w: &mut ByteWriter, s: &StationSnapshot) {
    put_scheduler(w, &s.scheduler);
    w.u64(s.time);
    w.seq_len(s.waiting.len());
    for waiters in &s.waiting {
        w.seq_len(waiters.len());
        for &(client, since) in waiters {
            w.u64(client);
            w.u64(since);
        }
    }
    w.seq_len(s.expected.len());
    for e in &s.expected {
        w.opt_u64(*e);
    }
    w.u64(s.next_client);
    put_stats(w, &s.stats);
    w.seq_len(s.channel_up.len());
    for &up in &s.channel_up {
        w.bool(up);
    }
    match &s.injector {
        Some(inj) => {
            w.bool(true);
            w.u64(inj.cursor);
            w.u64(inj.rng_state);
            w.seq_len(inj.up.len());
            for &up in &inj.up {
                w.bool(up);
            }
        }
        None => w.bool(false),
    }
    put_health(w, &s.health);
    w.bool(s.policy.repack);
    w.bool(s.policy.best_effort);
    // Derived from the plan; the decoder refuses a byte that disagrees.
    w.u8(mode_to_u8(s.active.mode()));
    match &s.active {
        ActivePlanSnapshot::Full => w.u8(0),
        ActivePlanSnapshot::Reduced(p) => {
            w.u8(1);
            put_program(w, p);
        }
        ActivePlanSnapshot::BestEffort(p) => {
            w.u8(2);
            put_program(w, p);
        }
        ActivePlanSnapshot::Offline => w.u8(3),
    }
    w.seq_len(s.pending_events.len());
    for e in &s.pending_events {
        put_channel_event(w, e);
    }
}

fn get_station_snapshot(r: &mut ByteReader<'_>) -> Result<StationSnapshot, Reason> {
    let scheduler = get_scheduler(r)?;
    let time = r.u64()?;
    let pages = r.seq_len(4)?;
    let mut waiting = Vec::with_capacity(pages);
    for _ in 0..pages {
        let n = r.seq_len(16)?;
        let mut waiters = Vec::with_capacity(n);
        for _ in 0..n {
            waiters.push((r.u64()?, r.u64()?));
        }
        waiting.push(waiters);
    }
    let n = r.seq_len(1)?;
    let mut expected = Vec::with_capacity(n);
    for _ in 0..n {
        expected.push(r.opt_u64()?);
    }
    let next_client = r.u64()?;
    let stats = get_stats(r)?;
    let n = r.seq_len(1)?;
    let mut channel_up = Vec::with_capacity(n);
    for _ in 0..n {
        channel_up.push(r.bool()?);
    }
    let injector = if r.bool()? {
        let cursor = r.u64()?;
        let rng_state = r.u64()?;
        let n = r.seq_len(1)?;
        let mut up = Vec::with_capacity(n);
        for _ in 0..n {
            up.push(r.bool()?);
        }
        Some(airsched_server::faults::FaultInjectorSnapshot {
            cursor,
            rng_state,
            up,
        })
    } else {
        None
    };
    let health = get_health(r)?;
    let policy = DegradationPolicy {
        repack: r.bool()?,
        best_effort: r.bool()?,
    };
    let mode = mode_from_u8(r.u8()?)?;
    let active = match r.u8()? {
        0 => ActivePlanSnapshot::Full,
        1 => ActivePlanSnapshot::Reduced(get_program(r)?),
        2 => ActivePlanSnapshot::BestEffort(get_program(r)?),
        3 => ActivePlanSnapshot::Offline,
        _ => return Err("unknown active-plan kind"),
    };
    if mode != active.mode() {
        return Err("mode byte disagrees with the plan on the air");
    }
    let n = r.seq_len(13)?;
    let mut pending_events = Vec::with_capacity(n);
    for _ in 0..n {
        pending_events.push(get_channel_event(r)?);
    }
    Ok(StationSnapshot {
        scheduler,
        time,
        waiting,
        expected,
        next_client,
        stats,
        channel_up,
        injector,
        health,
        policy,
        active,
        pending_events,
    })
}

fn put_fault_plan(w: &mut ByteWriter, plan: &FaultPlan) {
    w.seq_len(plan.script().len());
    for event in plan.script() {
        let (kind, at, channel) = match event {
            FaultEvent::Down { at, channel } => (0u8, *at, *channel),
            FaultEvent::Up { at, channel } => (1, *at, *channel),
            FaultEvent::Stall { at, channel } => (2, *at, *channel),
            FaultEvent::Corrupt { at, channel } => (3, *at, *channel),
        };
        w.u8(kind);
        w.u64(at);
        w.u32(channel.index());
    }
    w.u64(plan.seed());
    w.f64(plan.outage());
    w.f64(plan.recovery());
    w.f64(plan.stall());
    w.f64(plan.corruption());
}

fn get_fault_plan(r: &mut ByteReader<'_>) -> Result<FaultPlan, Reason> {
    let n = r.seq_len(13)?;
    let mut script = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = r.u8()?;
        let at = r.u64()?;
        let channel = ChannelId::new(r.u32()?);
        script.push(match kind {
            0 => FaultEvent::Down { at, channel },
            1 => FaultEvent::Up { at, channel },
            2 => FaultEvent::Stall { at, channel },
            3 => FaultEvent::Corrupt { at, channel },
            _ => return Err("unknown fault-event kind"),
        });
    }
    let seed = r.u64()?;
    let mut rates = [0.0f64; 4];
    for rate in &mut rates {
        let p = r.f64()?;
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err("fault rate outside [0, 1]");
        }
        *rate = p;
    }
    Ok(FaultPlan::seeded(seed)
        .with_script(script)
        .with_outage(rates[0])
        .with_recovery(rates[1])
        .with_stalls(rates[2])
        .with_corruption(rates[3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_server::Station;

    fn checkpointed_station() -> (Checkpoint, FaultPlan) {
        let plan = FaultPlan::seeded(12)
            .with_outage(0.05)
            .with_recovery(0.2)
            .with_stalls(0.02)
            .with_corruption(0.08)
            .with_script(vec![FaultEvent::Down {
                at: 10,
                channel: ChannelId::new(0),
            }]);
        let mut s = Station::with_faults(3, 8, &plan).unwrap();
        s.publish(PageId::new(0), 2).unwrap();
        s.publish(PageId::new(1), 4).unwrap();
        s.publish(PageId::new(2), 8).unwrap();
        s.subscribe(PageId::new(2)).unwrap();
        s.run(60);
        (
            Checkpoint {
                journal_skip: 17,
                journal_offset: 340,
                snapshot: s.snapshot(),
                fault_plan: Some(plan.clone()),
            },
            plan,
        )
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let (ck, _) = checkpointed_station();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (ck, _) = checkpointed_station();
        let bytes = ck.encode();
        // Flip one bit in a spread of positions across the file; the
        // frame must never decode to a *different* checkpoint. (CRC-16
        // detects all single-bit errors.)
        for pos in (0..bytes.len()).step_by(7) {
            let mut tampered = bytes.clone();
            tampered[pos] ^= 0x10;
            assert!(
                Checkpoint::decode(&tampered).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
        // Truncation at any point is detected too.
        for cut in [0, 1, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn an_older_format_version_is_refused_as_corrupt() {
        let (ck, _) = checkpointed_station();
        let mut bytes = ck.encode();
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        let body_end = bytes.len() - 2;
        let crc = crc16(&bytes[..HEADER_LEN], &bytes[HEADER_LEN..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(RecoverError::Corrupt {
                what: "checkpoint",
                reason: "unknown format version"
            })
        ));
    }

    #[test]
    fn atomic_write_survives_a_torn_shadow() {
        let dir = std::env::temp_dir().join(format!(
            "airsched-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let (ck, _) = checkpointed_station();
        let bytes_written = ck.write_atomic(&dir).unwrap();
        assert_eq!(bytes_written, ck.encode().len() as u64);
        // Simulate a crash mid-write of the *next* checkpoint: a torn
        // shadow beside a good live file.
        fs::write(dir.join(CHECKPOINT_SHADOW), &ck.encode()[..20]).unwrap();
        let back = Checkpoint::read(&dir).unwrap();
        assert_eq!(back, ck);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!(
            "airsched-ckpt-missing-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Checkpoint::read(&dir),
            Err(RecoverError::MissingCheckpoint { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
