//! The append-only mutation journal.
//!
//! Every externally-driven mutation between checkpoints — subscriptions,
//! catalogue changes, manual channel failures, and each slot advance —
//! is appended as one CRC-framed record. Replaying the records on top of
//! the last checkpoint reproduces the crashed station bit for bit,
//! because the station's only other input (the fault injector) is
//! deterministic given the state the checkpoint restored.
//!
//! ## Group commit
//!
//! Records are buffered per slot and committed with one `write` at the
//! end of the slot's tick ([`JournalWriter`]). A process crash therefore
//! loses the inputs of an unfinished slot together, never in part; a
//! completed tick has handed the whole slot to the OS. The journal is
//! fsynced only at checkpoints. Batching changes when bytes reach the
//! file, never which bytes: the file is the same concatenation of
//! frames a record-at-a-time writer would leave.
//!
//! ## Record framing
//!
//! ```text
//! [len: u16 LE][body: len bytes][crc: u16 LE]
//! ```
//!
//! where `crc` is CRC-16/CCITT-FALSE ([`airsched_proto::crc16`]) over
//! the length prefix *and* the body, so a record whose length field was
//! torn cannot pass as a shorter valid one. The reader walks frames in
//! order and stops at the first torn or corrupt frame, dropping that
//! tail: the journal recovers to the last valid record rather than
//! refusing the whole file.
//!
//! ## Record kinds
//!
//! *Input* records are replayed by re-invoking the station API
//! (`Subscribe`, `Publish`, `Expire`, `FailChannel`, `RestoreChannel`,
//! `Tick`). *Assertion* records (`ModeChange`, `DeliveryDrain`,
//! `PlanSwap`) carry no new inputs — they are checkpoints-in-miniature
//! that replay cross-checks against the rebuilt station, turning silent
//! divergence into a typed [`RecoverError::Divergence`].

use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use airsched_proto::crc16;
use airsched_server::station::Mode;

use crate::checkpoint::{mode_from_u8, mode_to_u8};
use crate::codec::{ByteReader, ByteWriter, Reason};
use crate::RecoverError;

/// File name of the journal inside a state directory.
pub const JOURNAL_FILE: &str = "journal.bin";

/// One journal record. See the module docs for the input/assertion
/// split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A client subscribed to `page`; the station assigned `client`.
    /// The id doubles as an assertion: replay must assign the same one.
    Subscribe {
        /// Dense page index subscribed to.
        page: u32,
        /// Raw id the original run assigned.
        client: u64,
    },
    /// A page was published with an expected time.
    Publish {
        /// Dense page index published.
        page: u32,
        /// Its expected time in slots.
        expected: u64,
    },
    /// A page was expired from the catalogue.
    Expire {
        /// Dense page index expired.
        page: u32,
    },
    /// An operator failed a channel by hand.
    FailChannel {
        /// Zero-based channel index.
        channel: u32,
    },
    /// An operator restored a channel by hand.
    RestoreChannel {
        /// Zero-based channel index.
        channel: u32,
    },
    /// One slot of air time elapsed. `slot` is the station clock
    /// *before* the tick — replay asserts it, then ticks. This is also
    /// what advances the fault injector's deterministic sample stream.
    Tick {
        /// Station clock before the tick.
        slot: u64,
    },
    /// Assertion: after the tick at `slot`, the station was in `to`.
    ModeChange {
        /// Slot of the transition.
        slot: u64,
        /// The mode entered.
        to: Mode,
    },
    /// Assertion: cumulative delivery counters after the tick at `slot`.
    DeliveryDrain {
        /// Slot the deliveries happened in.
        slot: u64,
        /// Cumulative deliveries.
        delivered: u64,
        /// Cumulative on-time deliveries.
        on_time: u64,
        /// Cumulative wait sum.
        total_wait: u64,
    },
    /// Assertion: a replan installed a new program at `slot`, leaving
    /// the station in `mode`.
    PlanSwap {
        /// Slot of the swap.
        slot: u64,
        /// The mode whose plan went on the air.
        mode: Mode,
    },
}

impl JournalRecord {
    /// Whether this record is a pure cross-check (no new input).
    #[must_use]
    pub fn is_assertion(&self) -> bool {
        matches!(
            self,
            Self::ModeChange { .. } | Self::DeliveryDrain { .. } | Self::PlanSwap { .. }
        )
    }

    fn encode_body(&self, w: &mut ByteWriter) {
        match self {
            Self::Subscribe { page, client } => {
                w.u8(0);
                w.u32(*page);
                w.u64(*client);
            }
            Self::Publish { page, expected } => {
                w.u8(1);
                w.u32(*page);
                w.u64(*expected);
            }
            Self::Expire { page } => {
                w.u8(2);
                w.u32(*page);
            }
            Self::FailChannel { channel } => {
                w.u8(3);
                w.u32(*channel);
            }
            Self::RestoreChannel { channel } => {
                w.u8(4);
                w.u32(*channel);
            }
            Self::Tick { slot } => {
                w.u8(5);
                w.u64(*slot);
            }
            Self::ModeChange { slot, to } => {
                w.u8(6);
                w.u64(*slot);
                w.u8(mode_to_u8(*to));
            }
            Self::DeliveryDrain {
                slot,
                delivered,
                on_time,
                total_wait,
            } => {
                w.u8(7);
                w.u64(*slot);
                w.u64(*delivered);
                w.u64(*on_time);
                w.u64(*total_wait);
            }
            Self::PlanSwap { slot, mode } => {
                w.u8(8);
                w.u64(*slot);
                w.u8(mode_to_u8(*mode));
            }
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, Reason> {
        let mut r = ByteReader::new(body);
        let record = match r.u8()? {
            0 => Self::Subscribe {
                page: r.u32()?,
                client: r.u64()?,
            },
            1 => Self::Publish {
                page: r.u32()?,
                expected: r.u64()?,
            },
            2 => Self::Expire { page: r.u32()? },
            3 => Self::FailChannel { channel: r.u32()? },
            4 => Self::RestoreChannel { channel: r.u32()? },
            5 => Self::Tick { slot: r.u64()? },
            6 => Self::ModeChange {
                slot: r.u64()?,
                to: mode_from_u8(r.u8()?)?,
            },
            7 => Self::DeliveryDrain {
                slot: r.u64()?,
                delivered: r.u64()?,
                on_time: r.u64()?,
                total_wait: r.u64()?,
            },
            8 => Self::PlanSwap {
                slot: r.u64()?,
                mode: mode_from_u8(r.u8()?)?,
            },
            _ => return Err("unknown journal record kind"),
        };
        r.finish()?;
        Ok(record)
    }

    /// Encodes the record as one framed entry (length, body, CRC).
    #[must_use]
    pub fn encode_framed(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_framed_into(&mut out);
        out
    }

    /// Appends the record's framed entry (length, body, CRC) to `out`,
    /// encoding the body in place behind a length placeholder that is
    /// patched once the body is written.
    pub fn encode_framed_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut w = ByteWriter::over(std::mem::take(out));
        w.u16(0);
        self.encode_body(&mut w);
        let mut buf = w.into_bytes();
        let len = u16::try_from(buf.len() - start - 2).expect("journal record bodies are tiny");
        let len_bytes = len.to_le_bytes();
        buf[start..start + 2].copy_from_slice(&len_bytes);
        let crc = crc16(&len_bytes, &buf[start + 2..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        *out = buf;
    }

    /// Decodes the framed entry at the front of `bytes`, returning the
    /// record and the frame's length. `None` when the front is not one
    /// whole, CRC-valid, well-formed frame — a torn or corrupt tail, or a
    /// CRC-valid body of an unknown shape.
    #[must_use]
    pub fn decode_framed(bytes: &[u8]) -> Option<(Self, usize)> {
        let len_bytes: [u8; 2] = bytes.get(..2)?.try_into().ok()?;
        let len = usize::from(u16::from_le_bytes(len_bytes));
        let frame = bytes.get(..len + 4)?;
        let body = &frame[2..2 + len];
        let stored = u16::from_le_bytes([frame[len + 2], frame[len + 3]]);
        if crc16(&len_bytes, body) != stored {
            return None;
        }
        let record = Self::decode_body(body).ok()?;
        Some((record, frame.len()))
    }
}

/// Append handle over a journal file, committed once per slot.
///
/// [`JournalWriter::append`] only encodes the record into a reusable
/// pending buffer; [`JournalWriter::commit`] hands every pending byte
/// to the OS in one `write`, and [`RecoverableStation`] commits once at
/// the end of each tick. The contract this gives a process crash: the
/// records of an unfinished slot are lost together, never in part, and
/// a completed commit has handed the whole slot to the OS.
/// [`JournalWriter::sync`] additionally fsyncs for machine-crash
/// durability and is called at every checkpoint.
///
/// A failed commit poisons the writer: the file may now end in torn
/// bytes that any later record would be stranded behind, so every later
/// commit or sync fails without writing, and the counters stay at the
/// last good commit.
///
/// [`RecoverableStation`]: crate::RecoverableStation
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    pending: Vec<u8>,
    pending_records: u64,
    records: u64,
    bytes: u64,
    poisoned: Option<String>,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it if absent. `existing`
    /// is the count of valid records already in the file (0 for a
    /// fresh journal); the file's length must be exactly their bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn open(path: &Path, existing: u64) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(Self {
            file,
            pending: Vec::new(),
            pending_records: 0,
            records: existing,
            bytes,
            poisoned: None,
        })
    }

    /// Encodes one framed record into the pending buffer. Nothing
    /// reaches the file until the next [`JournalWriter::commit`].
    pub fn append(&mut self, record: &JournalRecord) {
        record.encode_framed_into(&mut self.pending);
        self.pending_records += 1;
    }

    /// Writes every pending record with one `write_all` and clears the
    /// buffer, keeping its capacity.
    ///
    /// # Errors
    ///
    /// Propagates the write's I/O failure and poisons the writer; on a
    /// poisoned writer, an error naming the original failure. Either
    /// way the pending records are discarded and the counters do not
    /// advance.
    pub fn commit(&mut self) -> io::Result<()> {
        let records = std::mem::take(&mut self.pending_records);
        if let Some(cause) = &self.poisoned {
            self.pending.clear();
            return Err(io::Error::other(format!(
                "journal writer is poisoned by an earlier failed write: {cause}"
            )));
        }
        let written = self.file.write_all(&self.pending);
        let len = self.pending.len() as u64;
        self.pending.clear();
        match written {
            Ok(()) => {
                self.records += records;
                self.bytes += len;
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Committed records in the journal (pre-existing + committed).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Committed bytes in the journal — the offset the next commit
    /// writes at.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Commits, then fsyncs the journal.
    ///
    /// # Errors
    ///
    /// Everything [`JournalWriter::commit`] raises, plus the fsync's
    /// I/O failure, which poisons the writer too.
    pub fn sync(&mut self) -> io::Result<()> {
        self.commit()?;
        self.file.sync_all().inspect_err(|e| {
            self.poisoned = Some(e.to_string());
        })
    }
}

/// What reading a journal produced: the valid prefix, plus how much
/// torn/corrupt tail was dropped to get there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReadOutcome {
    /// Every record of the valid prefix from the read's start offset,
    /// in append order.
    pub records: Vec<JournalRecord>,
    /// Byte offset in the file where the valid prefix ends (where an
    /// appender must resume to avoid stranding new records behind
    /// garbage).
    pub valid_bytes: u64,
    /// Bytes dropped after the last valid record (0 for a clean file).
    pub dropped_bytes: u64,
}

/// Reads the journal at `path` from byte offset `from` — 0 for the
/// whole file, a checkpoint's `journal_offset` for the records it does
/// not cover — dropping any torn or corrupt tail. Nothing before `from`
/// is read, so recovery cost is bounded by the tail, not by uptime. A
/// missing file reads as an empty journal — a station that crashed
/// before its first commit.
///
/// # Errors
///
/// [`RecoverError::Corrupt`] if the file (or its absence) is shorter
/// than `from`; other I/O failures propagate.
pub fn read_journal(path: &Path, from: u64) -> Result<JournalReadOutcome, RecoverError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            if file.metadata()?.len() < from {
                return Err(shorter_than_cursor());
            }
            file.seek(SeekFrom::Start(from))?;
            file.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == ErrorKind::NotFound && from == 0 => {}
        Err(e) if e.kind() == ErrorKind::NotFound => return Err(shorter_than_cursor()),
        Err(e) => return Err(RecoverError::Io(e)),
    }
    // Stop at the first torn, corrupt or alien frame: the journal
    // recovers to the last valid record.
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some((record, used)) = JournalRecord::decode_framed(&bytes[pos..]) {
        records.push(record);
        pos += used;
    }
    Ok(JournalReadOutcome {
        records,
        valid_bytes: from + pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
    })
}

fn shorter_than_cursor() -> RecoverError {
    RecoverError::Corrupt {
        what: "journal",
        reason: "journal is shorter than the checkpoint's cursor",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "airsched-journal-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Publish {
                page: 0,
                expected: 4,
            },
            JournalRecord::Subscribe { page: 0, client: 7 },
            JournalRecord::Tick { slot: 41 },
            JournalRecord::ModeChange {
                slot: 41,
                to: Mode::Repacked,
            },
            JournalRecord::DeliveryDrain {
                slot: 41,
                delivered: 3,
                on_time: 2,
                total_wait: 9,
            },
            JournalRecord::PlanSwap {
                slot: 41,
                mode: Mode::BestEffort,
            },
            JournalRecord::FailChannel { channel: 2 },
            JournalRecord::RestoreChannel { channel: 2 },
            JournalRecord::Expire { page: 0 },
        ]
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::open(&path, 0).unwrap();
        for r in sample_records() {
            w.append(&r);
        }
        w.commit().unwrap();
        assert_eq!(w.records(), 9);
        assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
        drop(w);
        let out = read_journal(&path, 0).unwrap();
        assert_eq!(out.records, sample_records());
        assert_eq!(out.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tail_recovers_to_the_last_valid_record() {
        let path = temp_path("corrupt");
        let mut w = JournalWriter::open(&path, 0).unwrap();
        for r in sample_records() {
            w.append(&r);
        }
        w.commit().unwrap();
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        // Flip a bit inside the final record's body.
        let mut tampered = clean.clone();
        let last = tampered.len() - 3;
        tampered[last] ^= 0x40;
        std::fs::write(&path, &tampered).unwrap();
        let out = read_journal(&path, 0).unwrap();
        assert_eq!(out.records, sample_records()[..8].to_vec());
        assert!(out.dropped_bytes > 0);
        // A torn final frame (half-written record) is likewise dropped.
        let torn = &clean[..clean.len() - 2];
        std::fs::write(&path, torn).unwrap();
        let out = read_journal(&path, 0).unwrap();
        assert_eq!(out.records, sample_records()[..8].to_vec());
        assert_eq!(out.valid_bytes + out.dropped_bytes, torn.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_reads_as_empty() {
        let out = read_journal(&temp_path("missing"), 0).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.dropped_bytes, 0);
    }

    #[test]
    fn append_leaves_the_file_untouched_until_commit() {
        let path = temp_path("pending");
        let mut w = JournalWriter::open(&path, 0).unwrap();
        for r in sample_records() {
            w.append(&r);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        }
        assert_eq!((w.records(), w.bytes()), (0, 0));
        w.commit().unwrap();
        let expected: Vec<u8> = sample_records()
            .iter()
            .flat_map(JournalRecord::encode_framed)
            .collect();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!((w.records(), w.bytes()), (9, expected.len() as u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_commit_poisons_the_writer() {
        let mut w = JournalWriter::open(Path::new("/dev/full"), 0).unwrap();
        w.append(&JournalRecord::Tick { slot: 0 });
        let err = w.commit().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert_eq!((w.records(), w.bytes()), (0, 0));
        // Later commits name the first failure instead of writing again.
        w.append(&JournalRecord::Tick { slot: 1 });
        let err = w.commit().unwrap_err();
        assert_ne!(err.kind(), ErrorKind::StorageFull);
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(w.sync().unwrap_err().to_string().contains("poisoned"));
        assert_eq!((w.records(), w.bytes()), (0, 0));
    }
}
