//! The crash-safe station driver: journaled mutation, periodic
//! checkpoints, scripted crashes, and deterministic replay recovery.
//!
//! [`RecoverableStation`] wraps a [`Station`] and a state directory.
//! Every externally-driven mutation goes through the wrapper, which
//! buffers a journal record for it (subscriptions, catalogue edits and
//! the slot advance itself); the end of each tick commits the slot's
//! records with one write. Every `checkpoint_every` slots — and once at
//! creation — the full station state is checkpointed atomically. After
//! a crash, [`RecoverableStation::resume`] rebuilds the station from the
//! checkpoint plus a replay of the journal tail after its byte cursor;
//! the result's subsequent `TickOutcome` stream is bit-identical to the
//! never-crashed twin's, which the crash-at-every-slot sweep test
//! enforces.
//!
//! Crashes themselves are scripted with [`CrashInjector`] — the same
//! idiom as the deterministic fault injector: the "process death" is a
//! typed [`RecoverError::Crashed`] at an exact slot (or half-way
//! through a checkpoint shadow write), so every recovery scenario is
//! reproducible.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

use airsched_core::types::{ChannelId, PageId};
use airsched_obs::events::Event;
use airsched_obs::metrics::{Counter, Gauge};
use airsched_obs::Obs;
use airsched_server::faults::FaultPlan;
use airsched_server::station::{ClientId, Mode, Station, StationStats, TickOutcome};
use airsched_trace::{Phase, Trace};

use crate::checkpoint::{Checkpoint, CHECKPOINT_SHADOW};
use crate::journal::{read_journal, JournalRecord, JournalWriter, JOURNAL_FILE};
use crate::RecoverError;

/// Where a scripted crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die immediately before ticking this slot: the slot is never
    /// served, and its buffered inputs never reach the journal.
    AtSlot(u64),
    /// Die half-way through writing the `n`-th checkpoint of the
    /// process (1-based; the checkpoint taken at creation is #1),
    /// leaving a torn shadow file and the previous checkpoint intact.
    MidCheckpoint(u64),
}

/// Deterministic, scripted process death — the recovery analogue of the
/// fault injector.
#[derive(Debug, Clone)]
pub struct CrashInjector {
    point: CrashPoint,
    tripped: bool,
}

impl CrashInjector {
    /// Crash immediately before ticking `slot`.
    #[must_use]
    pub fn at_slot(slot: u64) -> Self {
        Self {
            point: CrashPoint::AtSlot(slot),
            tripped: false,
        }
    }

    /// Crash half-way through the `nth` checkpoint write (1-based).
    #[must_use]
    pub fn mid_checkpoint(nth: u64) -> Self {
        Self {
            point: CrashPoint::MidCheckpoint(nth),
            tripped: false,
        }
    }

    /// Whether the scripted crash has fired.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    fn fires_at(&mut self, slot: u64) -> bool {
        if !self.tripped && self.point == CrashPoint::AtSlot(slot) {
            self.tripped = true;
            return true;
        }
        false
    }

    fn tears_checkpoint(&mut self, seq: u64) -> bool {
        if !self.tripped && self.point == CrashPoint::MidCheckpoint(seq) {
            self.tripped = true;
            return true;
        }
        false
    }
}

/// Knobs for [`RecoverableStation::create`] / [`RecoverableStation::resume`].
#[derive(Debug, Default)]
pub struct RecoveryOptions {
    /// Checkpoint automatically every this many slots (`None`: only the
    /// creation checkpoint and explicit [`RecoverableStation::checkpoint`]
    /// calls).
    pub checkpoint_every: Option<u64>,
    /// Scripted crash, if this run should die on cue.
    pub crash: Option<CrashInjector>,
}

impl RecoveryOptions {
    /// All-default options: no automatic checkpoints, no crash.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkpoint every `n` slots.
    #[must_use]
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    /// Arm a scripted crash.
    #[must_use]
    pub fn with_crash(mut self, crash: CrashInjector) -> Self {
        self.crash = Some(crash);
        self
    }
}

/// What a [`RecoverableStation::resume`] did to get the station back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The slot the recovered station resumed at.
    pub resumed_at: u64,
    /// Journal records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Torn/corrupt bytes dropped from the journal tail.
    pub dropped_bytes: u64,
    /// Wall-clock recovery duration in microseconds.
    pub duration_us: u64,
}

/// Replays journal `records` against `station`, cross-checking every
/// assertion record. Returns the number of records replayed.
///
/// # Errors
///
/// [`RecoverError::Divergence`] if the rebuilt station disagrees with
/// anything the original run recorded; [`RecoverError::Station`] if a
/// replayed input is rejected outright.
pub fn replay(station: &mut Station, records: &[JournalRecord]) -> Result<u64, RecoverError> {
    let mut replayed = 0u64;
    for record in records {
        match record {
            JournalRecord::Subscribe { page, client } => {
                let got = station.subscribe(PageId::new(*page))?;
                if got.raw() != *client {
                    return Err(RecoverError::Divergence {
                        slot: station.now(),
                        what: format!(
                            "replayed subscription to page {page} was assigned id {}, the original run recorded {client}",
                            got.raw()
                        ),
                    });
                }
            }
            JournalRecord::Publish { page, expected } => {
                station.publish(PageId::new(*page), *expected)?;
            }
            JournalRecord::Expire { page } => {
                station.expire(PageId::new(*page))?;
            }
            JournalRecord::FailChannel { channel } => {
                station.fail_channel(ChannelId::new(*channel));
            }
            JournalRecord::RestoreChannel { channel } => {
                station.restore_channel(ChannelId::new(*channel));
            }
            JournalRecord::Tick { slot } => {
                if station.now() != *slot {
                    return Err(RecoverError::Divergence {
                        slot: station.now(),
                        what: format!(
                            "journal expects a tick at slot {slot} but the station clock reads {}",
                            station.now()
                        ),
                    });
                }
                station.tick();
            }
            JournalRecord::ModeChange { slot, to } => {
                if station.mode() != *to {
                    return Err(RecoverError::Divergence {
                        slot: *slot,
                        what: format!(
                            "original run entered {:?} here, replay sits in {:?}",
                            to,
                            station.mode()
                        ),
                    });
                }
            }
            JournalRecord::DeliveryDrain {
                slot,
                delivered,
                on_time,
                total_wait,
            } => {
                let s = station.stats();
                if (s.delivered, s.on_time, s.total_wait) != (*delivered, *on_time, *total_wait) {
                    return Err(RecoverError::Divergence {
                        slot: *slot,
                        what: format!(
                            "cumulative deliveries diverged: journal says {delivered}/{on_time} (wait {total_wait}), replay has {}/{} (wait {})",
                            s.delivered, s.on_time, s.total_wait
                        ),
                    });
                }
            }
            JournalRecord::PlanSwap { slot, mode } => {
                if station.mode() != *mode {
                    return Err(RecoverError::Divergence {
                        slot: *slot,
                        what: format!(
                            "plan swap left the original run in {:?}, replay is in {:?}",
                            mode,
                            station.mode()
                        ),
                    });
                }
            }
        }
        replayed += 1;
    }
    Ok(replayed)
}

#[derive(Debug)]
struct ObsHooks {
    obs: Obs,
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    journal_lag: Gauge,
}

impl ObsHooks {
    fn new(obs: &Obs) -> Self {
        Self {
            obs: obs.clone(),
            checkpoints: obs
                .registry()
                .counter("airsched_recover_checkpoints_total", &[]),
            checkpoint_bytes: obs
                .registry()
                .counter("airsched_recover_checkpoint_bytes_total", &[]),
            journal_lag: obs
                .registry()
                .gauge("airsched_recover_journal_lag_records", &[]),
        }
    }
}

/// A [`Station`] whose every mutation is journaled to a state directory
/// and whose state is periodically checkpointed, so a crash loses at
/// most the slot in progress: [`RecoverableStation::resume`] rebuilds a
/// bit-identical continuation from the last completed tick.
///
/// The journal is committed once per slot. The mutators only buffer
/// their records; [`RecoverableStation::tick`] commits the slot's
/// inputs, tick and assertion records with one write. The inputs of an
/// unfinished slot are therefore lost together, never in part, and a
/// completed `tick()` has handed the whole slot to the OS. Fsync still
/// happens only at checkpoints. Dropping the wrapper models process
/// death: it does not flush.
///
/// If a commit fails, the in-memory station is ahead of its journal and
/// the journal writer is poisoned, so every later tick and checkpoint
/// fails too. The only way forward is to drop this value and
/// [`RecoverableStation::resume`] from disk.
#[derive(Debug)]
pub struct RecoverableStation {
    station: Station,
    plan: Option<FaultPlan>,
    dir: PathBuf,
    journal: JournalWriter,
    /// `journal.records()` at the moment of the last checkpoint — the
    /// journal lag is everything after it.
    checkpoint_skip: u64,
    last_checkpoint_slot: u64,
    checkpoint_every: Option<u64>,
    checkpoints_written: u64,
    crash: Option<CrashInjector>,
    obs: Option<ObsHooks>,
}

impl RecoverableStation {
    /// Starts a fresh crash-safe run in `dir`: clears any previous
    /// journal, wraps `station`, and writes the creation checkpoint so
    /// the directory is immediately self-contained. `plan` must be the
    /// fault plan `station` was built with (`None` if faultless) — it is
    /// persisted in every checkpoint.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`RecoverError::Crashed`] if a scripted crash
    /// tears the creation checkpoint.
    pub fn create(
        dir: &Path,
        station: Station,
        plan: Option<FaultPlan>,
        options: RecoveryOptions,
    ) -> Result<Self, RecoverError> {
        fs::create_dir_all(dir)?;
        let journal_path = dir.join(JOURNAL_FILE);
        match fs::remove_file(&journal_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(RecoverError::Io(e)),
        }
        let now = station.now();
        let mut this = Self {
            station,
            plan,
            dir: dir.to_path_buf(),
            journal: JournalWriter::open(&journal_path, 0)?,
            checkpoint_skip: 0,
            last_checkpoint_slot: now,
            checkpoint_every: options.checkpoint_every,
            checkpoints_written: 0,
            crash: options.crash,
            obs: None,
        };
        this.checkpoint()?;
        Ok(this)
    }

    /// Rebuilds the station a previous process left in `dir` and
    /// resumes journaling where the valid journal prefix ends. Only the
    /// journal tail after the checkpoint's byte cursor is read and
    /// decoded.
    ///
    /// If `obs` is given it is attached to the restored station *before*
    /// replay, so the replayed ticks regenerate the flight-recorder
    /// event stream the crash destroyed — the `RecoveryCompleted`
    /// postmortem then contains the causal history (mode changes,
    /// channel health) leading up to the crash.
    ///
    /// # Errors
    ///
    /// Everything [`Checkpoint::read`], [`replay`] and
    /// [`Station::from_snapshot`] can raise, plus I/O failures.
    pub fn resume(
        dir: &Path,
        options: RecoveryOptions,
        obs: Option<&Obs>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let started = Instant::now();
        let ck = Checkpoint::read(dir)?;
        let mut station = Station::from_snapshot(&ck.snapshot, ck.fault_plan.as_ref())?;
        if let Some(obs) = obs {
            station.attach_obs(obs);
        }
        let journal_path = dir.join(JOURNAL_FILE);
        let journal = read_journal(&journal_path, ck.journal_offset)?;
        let replayed = replay(&mut station, &journal.records)?;
        // Drop the torn tail on disk too, or the next append would be
        // stranded behind unreadable bytes.
        if journal.dropped_bytes > 0 {
            let f = OpenOptions::new().write(true).open(&journal_path)?;
            f.set_len(journal.valid_bytes)?;
            f.sync_all()?;
        }
        let duration_us =
            u64::try_from(started.elapsed().as_micros()).expect("recovery takes < 500k years");
        let report = RecoveryReport {
            resumed_at: station.now(),
            replayed,
            dropped_bytes: journal.dropped_bytes,
            duration_us,
        };
        if let Some(obs) = obs {
            obs.record(Event::RecoveryCompleted {
                slot: report.resumed_at,
                replayed,
                dropped_records: u64::from(journal.dropped_bytes > 0),
                duration_us,
            });
            obs.registry()
                .histogram("airsched_recover_recovery_duration_us", &[])
                .observe(duration_us);
            obs.capture_postmortem(report.resumed_at, "recovery");
        }
        let records = ck.journal_skip + replayed;
        let mut this = Self {
            station,
            plan: ck.fault_plan,
            dir: dir.to_path_buf(),
            journal: JournalWriter::open(&journal_path, records)?,
            checkpoint_skip: ck.journal_skip,
            last_checkpoint_slot: ck.snapshot.time,
            checkpoint_every: options.checkpoint_every,
            checkpoints_written: 0,
            crash: options.crash,
            obs: obs.map(ObsHooks::new),
        };
        if let Some(h) = &this.obs {
            h.journal_lag
                .set(this.journal.records() - this.checkpoint_skip);
        }
        // A recovered station should not rely on the pre-crash
        // checkpoint cadence: re-anchor immediately so the blackout
        // window stays bounded from slot one of the new process.
        this.checkpoint()?;
        Ok((this, report))
    }

    /// Attaches observability to the wrapped station and the recovery
    /// machinery.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.station.attach_obs(obs);
        let hooks = ObsHooks::new(obs);
        hooks
            .journal_lag
            .set(self.journal.records() - self.checkpoint_skip);
        self.obs = Some(hooks);
    }

    /// Attaches intra-slot tracing to the wrapped station *and* the
    /// persistence machinery: on sampled slots the station captures its
    /// pipeline phases, and the wrapper appends `journal` spans (the
    /// tick's record appends plus the slot's one commit write, measured
    /// around the station tick) and `checkpoint` spans (checkpoint
    /// writes) to the same slot trees.
    /// Unsampled slots stay clock-free here exactly as in
    /// [`Station::attach_trace`].
    pub fn attach_trace(&mut self, trace: &Trace) {
        self.station.attach_trace(trace);
    }

    /// The wrapped station, read-only. Mutations must go through the
    /// wrapper or they would escape the journal.
    #[must_use]
    pub fn station(&self) -> &Station {
        &self.station
    }

    /// Current station clock.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.station.now()
    }

    /// Current degradation-ladder mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.station.mode()
    }

    /// Current aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> StationStats {
        self.station.stats()
    }

    /// Committed journal records not yet covered by a checkpoint — the
    /// amount of replay a crash right now would cost.
    #[must_use]
    pub fn journal_lag(&self) -> u64 {
        self.journal.records() - self.checkpoint_skip
    }

    /// Journaled [`Station::subscribe`]; the record is buffered until
    /// the slot's tick commits it.
    ///
    /// # Errors
    ///
    /// The station's own rejections.
    pub fn subscribe(&mut self, page: PageId) -> Result<ClientId, RecoverError> {
        let client = self.station.subscribe(page)?;
        self.journal.append(&JournalRecord::Subscribe {
            page: page.index(),
            client: client.raw(),
        });
        Ok(client)
    }

    /// Journaled [`Station::publish`]; the record is buffered until the
    /// slot's tick commits it.
    ///
    /// # Errors
    ///
    /// The station's own rejections.
    pub fn publish(&mut self, page: PageId, expected: u64) -> Result<(), RecoverError> {
        self.station.publish(page, expected)?;
        self.journal.append(&JournalRecord::Publish {
            page: page.index(),
            expected,
        });
        Ok(())
    }

    /// Journaled [`Station::expire`]; the record is buffered until the
    /// slot's tick commits it.
    ///
    /// # Errors
    ///
    /// The station's own rejections.
    pub fn expire(&mut self, page: PageId) -> Result<(), RecoverError> {
        self.station.expire(page)?;
        self.journal
            .append(&JournalRecord::Expire { page: page.index() });
        Ok(())
    }

    /// Journaled [`Station::fail_channel`]; the record is buffered
    /// until the slot's tick commits it.
    pub fn fail_channel(&mut self, channel: ChannelId) -> Mode {
        let mode = self.station.fail_channel(channel);
        self.journal.append(&JournalRecord::FailChannel {
            channel: channel.index(),
        });
        mode
    }

    /// Journaled [`Station::restore_channel`]; the record is buffered
    /// until the slot's tick commits it.
    pub fn restore_channel(&mut self, channel: ChannelId) -> Mode {
        let mode = self.station.restore_channel(channel);
        self.journal.append(&JournalRecord::RestoreChannel {
            channel: channel.index(),
        });
        mode
    }

    /// Journaled [`Station::tick`]: buffers the slot advance, ticks,
    /// buffers the outcome's assertion records, commits the whole slot
    /// with one write, and checkpoints if the cadence is due.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Crashed`] when a scripted crash fires (the
    /// slot's buffered inputs die with the process), or an I/O failure
    /// committing the slot, after which the station is ahead of its
    /// journal (see the type docs).
    pub fn tick(&mut self) -> Result<TickOutcome, RecoverError> {
        let slot = self.station.now();
        if let Some(crash) = &mut self.crash {
            if crash.fires_at(slot) {
                return Err(RecoverError::Crashed { slot });
            }
        }
        // On a sampled slot, clock the journal appends and the commit
        // around the station tick and fold them into the slot's span
        // tree as one `journal` phase. The station commits its tree during
        // `tick()`, so the wrapper's spans merge into the same ring
        // entry. Unsampled slots never read the clock.
        let traced = self.station.trace().filter(|t| t.sample_due(slot)).cloned();
        let journal_from = traced.as_ref().map(Trace::now_ns);
        self.journal.append(&JournalRecord::Tick { slot });
        let mut journal_ns =
            journal_from.map_or(0, |from| traced.as_ref().map_or(0, |t| t.now_ns() - from));
        let before = self.station.mode();
        let outcome = self.station.tick();
        let after = self.station.mode();
        let tail_from = traced.as_ref().map(Trace::now_ns);
        if after != before {
            self.journal
                .append(&JournalRecord::ModeChange { slot, to: after });
            if matches!(after, Mode::Repacked | Mode::BestEffort) {
                self.journal
                    .append(&JournalRecord::PlanSwap { slot, mode: after });
            }
        }
        if !outcome.deliveries.is_empty() {
            let stats = self.station.stats();
            self.journal.append(&JournalRecord::DeliveryDrain {
                slot,
                delivered: stats.delivered,
                on_time: stats.on_time,
                total_wait: stats.total_wait,
            });
        }
        self.journal.commit()?;
        if let Some(t) = &traced {
            journal_ns += tail_from.map_or(0, |from| t.now_ns() - from);
            let start = journal_from.unwrap_or(0);
            t.record_phase(slot, Phase::Journal, start, journal_ns);
        }
        if let Some(h) = &self.obs {
            h.journal_lag
                .set(self.journal.records() - self.checkpoint_skip);
        }
        if let Some(every) = self.checkpoint_every {
            if every > 0 && self.station.now().saturating_sub(self.last_checkpoint_slot) >= every {
                self.checkpoint()?;
            }
        }
        Ok(outcome)
    }

    /// Writes a checkpoint now, committing and fsyncing the journal
    /// first so the cursor it stores is durable. Returns the checkpoint
    /// size in bytes.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Crashed`] when a scripted mid-checkpoint crash
    /// fires (leaving a torn shadow and the previous checkpoint), or an
    /// I/O failure.
    pub fn checkpoint(&mut self) -> Result<u64, RecoverError> {
        // Checkpoints run between slots; when the current slot is
        // sampled the write is clocked and appended to its span tree.
        let traced = self
            .station
            .trace()
            .filter(|t| t.sample_due(self.station.now()))
            .cloned();
        let from = traced.as_ref().map(Trace::now_ns);
        let bytes = self.checkpoint_inner()?;
        if let (Some(t), Some(from)) = (&traced, from) {
            t.record_phase(
                self.station.now(),
                Phase::Checkpoint,
                from,
                t.now_ns() - from,
            );
        }
        Ok(bytes)
    }

    fn checkpoint_inner(&mut self) -> Result<u64, RecoverError> {
        self.journal.commit()?;
        self.checkpoints_written += 1;
        let ck = Checkpoint {
            journal_skip: self.journal.records(),
            journal_offset: self.journal.bytes(),
            snapshot: self.station.snapshot(),
            fault_plan: self.plan.clone(),
        };
        let seq = self.checkpoints_written;
        if let Some(crash) = &mut self.crash {
            if crash.tears_checkpoint(seq) {
                let bytes = ck.encode();
                fs::write(self.dir.join(CHECKPOINT_SHADOW), &bytes[..bytes.len() / 2])?;
                return Err(RecoverError::Crashed {
                    slot: self.station.now(),
                });
            }
        }
        self.journal.sync()?;
        let bytes = ck.write_atomic(&self.dir)?;
        let lag_reset = self.journal.records() - self.checkpoint_skip;
        self.checkpoint_skip = self.journal.records();
        self.last_checkpoint_slot = self.station.now();
        if let Some(h) = &self.obs {
            h.obs.record(Event::CheckpointWritten {
                slot: self.station.now(),
                bytes,
                journal_records: lag_reset,
            });
            h.checkpoints.inc();
            h.checkpoint_bytes.add(bytes);
            h.journal_lag.set(0);
        }
        Ok(bytes)
    }
}
