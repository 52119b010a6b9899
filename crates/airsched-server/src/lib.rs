//! # airsched-server
//!
//! A runnable, fault-tolerant time-constrained broadcast station, built
//! from the scheduling machinery of [`airsched_core`]: a live catalogue
//! with publish/expire, client subscriptions delivered the moment their
//! page airs, a slot-by-slot transmission clock, and live statistics. The
//! schedule stays *valid* (every catalogue page within its expected time
//! from any instant) through every change, by way of the online scheduler
//! and automatic compaction.
//!
//! When transmitters fail, the station walks a degradation ladder instead
//! of falling over: it re-packs the catalogue into a still-valid SUSC
//! program while the survivors meet Theorem 3.1's minimum, fails over to
//! PAMAD best-effort below it, and climbs back on recovery — preserving
//! every in-flight subscription. Faults come from a deterministic,
//! seed-driven injector ([`faults`]), and a windowed health monitor
//! ([`health`]) flags noisy channels before they die. Every replan
//! candidate passes a pre-swap lint gate ([`airsched_lint`]) before it
//! reaches the air: a corrupted candidate is refused and the previous
//! program keeps serving.
//!
//! ```
//! use airsched_core::types::PageId;
//! use airsched_server::Station;
//!
//! let mut station = Station::new(2, 8)?;
//! station.publish(PageId::new(0), 2)?;   // must air every 2 slots
//! station.publish(PageId::new(1), 8)?;
//! let client = station.subscribe(PageId::new(1))?;
//! let deliveries = station.run(8);       // one full cycle serves everyone
//! assert!(deliveries.iter().any(|d| d.client == client && d.within_deadline));
//! # Ok::<(), airsched_server::StationError>(())
//! ```
//!
//! Injecting faults is just as direct:
//!
//! ```
//! use airsched_core::types::{ChannelId, PageId};
//! use airsched_server::faults::{FaultEvent, FaultPlan};
//! use airsched_server::{Mode, Station};
//!
//! let plan = FaultPlan::scripted(vec![
//!     FaultEvent::Down { at: 4, channel: ChannelId::new(1) },
//! ]);
//! let mut station = Station::with_faults(2, 8, &plan)?;
//! station.publish(PageId::new(0), 4)?;
//! station.run(4);
//! assert_eq!(station.mode(), Mode::Valid);
//! station.tick();                        // slot 4: the outage lands
//! assert_eq!(station.mode(), Mode::Repacked);
//! # Ok::<(), airsched_server::StationError>(())
//! ```

pub mod faults;
pub mod health;
pub mod station;
pub mod transmit;
mod waiting;

pub use faults::{FaultEvent, FaultInjector, FaultInjectorSnapshot, FaultPlan, SlotFaults};
pub use health::{
    ChannelEvent, ChannelHealthSnapshot, HealthMonitor, HealthSnapshot, HealthThresholds,
    SlotObservation,
};
pub use station::{
    ActivePlanSnapshot, ClientId, DegradationPolicy, Delivery, Mode, ModeTally, PlanCells,
    PlanCorruptor, ProgramSnapshot, Station, StationError, StationSnapshot, StationStats, TickBuf,
    TickOutcome,
};
pub use transmit::SlotBroadcaster;
