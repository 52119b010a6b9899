//! # airsched-core
//!
//! Time-constrained wireless data broadcast scheduling — a faithful,
//! production-quality reproduction of *"Time-Constrained Service on Air"*
//! (Chung, Chen, Lee; ICDCS 2005).
//!
//! A broadcast server pushes data pages on `N` parallel channels; clients
//! tune in at arbitrary times and wait for their page. Every page carries an
//! *expected time* — the longest its readers are willing to wait. This crate
//! answers the paper's three questions:
//!
//! 1. **How many channels are needed** so every client, whenever it tunes
//!    in, meets its expected time? — [`bound::minimum_channels`]
//!    (Theorem 3.1).
//! 2. **How to schedule at that minimum** — [`susc`] (Scheduling Under
//!    Sufficient Channels, Algorithms 1–2).
//! 3. **What to do with fewer channels** — [`pamad`] (Progressively
//!    Approaching Minimum Average Delay, Algorithms 3–4), which lowers
//!    per-group broadcast frequencies to spread the unavoidable delay
//!    evenly, plus the evaluation baselines [`mpb`] (modified periodic
//!    broadcast) and [`opt`] (exhaustive frequency search).
//!
//! Supporting machinery: [`group::GroupLadder`] (the `h`-group workload
//! description with harmonic expected times), [`rearrange`] (mapping
//! arbitrary expected times onto a ladder, §2), [`program`] (the cyclic
//! `N x t_major` schedule grid), [`validity`] (the valid-program checker)
//! and [`delay`] (the analytic average-delay models, §4.1 / Equation 2).
//!
//! ## Quickstart
//!
//! ```
//! use airsched_core::group::GroupLadder;
//! use airsched_core::bound::minimum_channels;
//! use airsched_core::schedule::{build_program, Algorithm};
//! use airsched_core::validity;
//!
//! // Three page groups: 3 pages wanted within 2 slots, 5 within 4, 3 within 8.
//! let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
//! assert_eq!(minimum_channels(&ladder), 4);
//!
//! // With 4 channels every deadline is met...
//! let outcome = build_program(&ladder, 4)?;
//! assert_eq!(outcome.algorithm(), Algorithm::Susc);
//! assert!(validity::check(outcome.program(), &ladder).is_valid());
//!
//! // ...with only 3, PAMAD minimizes and spreads the delay.
//! let outcome = build_program(&ladder, 3)?;
//! assert_eq!(outcome.algorithm(), Algorithm::Pamad);
//! assert_eq!(outcome.frequencies(), &[4, 2, 1]);
//! # Ok::<(), airsched_core::error::ScheduleError>(())
//! ```
//!
//! ## Crate map
//!
//! | Module | Paper section |
//! |---|---|
//! | [`types`] | — (identifiers and quantities) |
//! | [`group`] | §2 problem definition |
//! | [`rearrange`] | §2 expected-time rearrangement |
//! | [`bound`] | §3.1 Theorem 3.1 |
//! | [`susc`] | §3.2 Algorithms 1–2 |
//! | [`validity`] | §3.1 valid-program conditions |
//! | [`delay`] | §4.1 delay model, Equation 2 |
//! | [`pamad`] | §4.3–4.4 Algorithms 3–4 |
//! | [`mpb`] | §5 m-PB baseline |
//! | [`opt`] | §5 OPT baseline |
//! | [`schedule`] | regime selection facade |
//! | [`dynamic`] | — (online add/remove over a valid program) |
//! | [`degrade`] | — (catalogue re-planning for channel loss) |
//! | [`retry`] | — (shared bounded-retry / tune-away policy) |

pub mod bound;
pub mod degrade;
pub mod delay;
pub mod dropping;
pub mod dynamic;
pub mod error;
pub mod group;
pub mod items;
pub mod mpb;
pub mod opt;
pub mod pamad;
pub mod program;
pub mod rearrange;
pub mod report;
pub mod retry;
pub mod schedule;
pub mod susc;
pub mod textio;
pub mod types;
pub mod validity;

pub use error::ScheduleError;
pub use group::GroupLadder;
pub use program::BroadcastProgram;
pub use schedule::{build_program, Algorithm, ScheduleOutcome};
