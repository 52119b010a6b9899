//! # airsched-sim
//!
//! Simulation of multi-channel data broadcast systems.
//!
//! Two levels of fidelity:
//!
//! * [`access`] — closed-form per-request access resolution against a
//!   [`airsched_core::program::BroadcastProgram`]: the fast path behind the
//!   paper's AvgD figures ([`access::measure`]) plus an exact discrete
//!   expectation ([`access::exact_avg_delay`]).
//! * [`sim`] — a discrete-event simulation of the *whole* system from the
//!   paper's introduction: clients with bounded patience that abandon the
//!   broadcast and congest the on-demand pull channel ([`ondemand`]) when a
//!   program under-serves them.
//!
//! Shared infrastructure: the deterministic [`event::EventQueue`], the
//! [`metrics::DelaySummary`] statistics, and [`mutilate`] — rebuild-based
//! program corruptors that manufacture the failure shapes `airsched-lint`
//! exists to catch.
//!
//! ```
//! use airsched_core::group::GroupLadder;
//! use airsched_core::pamad;
//! use airsched_sim::access::measure;
//! use airsched_workload::requests::{AccessPattern, RequestGenerator};
//!
//! let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
//! let program = pamad::schedule(&ladder, 3)?.into_program();
//! let mut gen = RequestGenerator::new(&ladder, AccessPattern::Uniform, 42);
//! let requests = gen.take(3000, program.cycle_len());
//! let (summary, _misses) = measure(&program, &ladder, &requests);
//! println!("AvgD = {:.3} slots", summary.avg_delay());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod access;
pub mod energy;
pub mod event;
pub mod lossy;
pub mod metrics;
pub mod multiget;
pub mod mutilate;
pub mod ondemand;
pub mod server;
pub mod sim;
pub mod transition;

pub use access::{access_one, exact_avg_delay, measure, measure_split, Access, MissStats};
pub use energy::{measure_energy, EnergySummary, TuningScheme};
pub use lossy::{measure_lossy, InvalidLoss, LossModel};
pub use metrics::{DelayAccumulator, DelaySummary, GroupDelay};
pub use multiget::{retrieve_fixed_order, retrieve_greedy, MultiAccess, MultiRequest};
pub use server::{BroadcastStream, SlotTransmission};
pub use sim::{SimConfig, SimReport, Simulation};
pub use transition::measure_transition;
