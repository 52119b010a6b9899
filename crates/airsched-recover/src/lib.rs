//! # airsched-recover
//!
//! Crash-safe persistence for the broadcast station: a versioned,
//! CRC-framed **checkpoint** of the complete [`Station`] state, an
//! append-only **journal** of every post-checkpoint mutation, and
//! **deterministic replay recovery** that rebuilds a crashed station
//! whose subsequent `TickOutcome` stream is bit-identical to a
//! never-crashed twin's.
//!
//! The determinism contract that makes replay exact (DESIGN.md §11):
//! the station's evolution is a pure function of its state and its
//! externally-driven inputs. The checkpoint persists the state — the
//! scheduler grid cell-by-cell, the degraded plans verbatim (the lint
//! gate makes re-derivation inadmissible), the fault injector's RNG
//! state and cursor, the health windows, every waiting client — and the
//! journal persists the inputs: subscriptions, catalogue edits, manual
//! channel changes, and each slot advance. Everything else (fault
//! sampling, plan selection, delivery order) re-derives identically.
//!
//! ```
//! use airsched_core::types::PageId;
//! use airsched_recover::{CrashInjector, RecoverError, RecoverableStation, RecoveryOptions};
//! use airsched_server::Station;
//!
//! let dir = std::env::temp_dir().join(format!("airsched-doc-{}", std::process::id()));
//! let mut station = Station::new(2, 8)?;
//! station.publish(PageId::new(0), 4)?;
//! let opts = RecoveryOptions::new()
//!     .checkpoint_every(16)
//!     .with_crash(CrashInjector::at_slot(10));
//! let mut run = RecoverableStation::create(&dir, station, None, opts)?;
//! run.subscribe(PageId::new(0))?;
//! let crash = loop {
//!     match run.tick() {
//!         Ok(_) => {}
//!         Err(RecoverError::Crashed { slot }) => break slot,
//!         Err(e) => return Err(e.into()),
//!     }
//! };
//! assert_eq!(crash, 10);
//! drop(run); // the process is gone; only the state directory remains
//! let (resumed, report) = RecoverableStation::resume(&dir, RecoveryOptions::new(), None)?;
//! assert_eq!(resumed.now(), 10); // not one slot was lost
//! assert_eq!(report.resumed_at, 10);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Station`]: airsched_server::Station

pub mod checkpoint;
pub mod codec;
pub mod journal;
pub mod store;

use std::path::PathBuf;

use airsched_server::StationError;

pub use checkpoint::{Checkpoint, CHECKPOINT_FILE, CHECKPOINT_SHADOW};
pub use journal::{read_journal, JournalReadOutcome, JournalRecord, JournalWriter, JOURNAL_FILE};
pub use store::{
    replay, CrashInjector, CrashPoint, RecoverableStation, RecoveryOptions, RecoveryReport,
};

/// Everything that can go wrong persisting or recovering a station.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoverError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// A frame failed its integrity checks (torn write, bit rot, or an
    /// alien file).
    Corrupt {
        /// Which artifact: `"checkpoint"` or `"journal"`.
        what: &'static str,
        /// The specific check that failed.
        reason: &'static str,
    },
    /// No checkpoint exists, so there is nothing to recover from.
    MissingCheckpoint {
        /// The path that was expected to hold it.
        path: PathBuf,
    },
    /// Replay produced a station that disagrees with what the original
    /// run recorded — the determinism contract was violated.
    Divergence {
        /// Slot the disagreement surfaced at.
        slot: u64,
        /// Human-readable account of the disagreement.
        what: String,
    },
    /// The station itself rejected a replayed input or a restored
    /// snapshot.
    Station(StationError),
    /// A scripted [`CrashInjector`] fired — the simulated process
    /// death.
    Crashed {
        /// The slot the process died at.
        slot: u64,
    },
}

impl core::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "recovery I/O failure: {e}"),
            Self::Corrupt { what, reason } => write!(f, "corrupt {what}: {reason}"),
            Self::MissingCheckpoint { path } => {
                write!(f, "no checkpoint at {}", path.display())
            }
            Self::Divergence { slot, what } => {
                write!(f, "replay diverged at slot {slot}: {what}")
            }
            Self::Station(e) => write!(f, "station rejected recovery input: {e}"),
            Self::Crashed { slot } => write!(f, "scripted crash fired at slot {slot}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Station(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<StationError> for RecoverError {
    fn from(e: StationError) -> Self {
        Self::Station(e)
    }
}
