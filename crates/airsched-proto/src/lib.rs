//! # airsched-proto
//!
//! The wire format for time-constrained broadcast transmissions: every
//! slot on every channel becomes a checksummed [`frame::Frame`]
//! ([`transmitter::FrameStream`] produces them from a
//! [`airsched_core::program::BroadcastProgram`]; [`receiver::Receiver`]
//! reassembles a client's wanted pages and tracks slot gaps after dozing).
//! Payloads come from one trait, [`template::CyclicPayloads`]: a page's
//! bytes are the same every time it airs, so the fresh encoders and the
//! pre-encoded [`template::FrameTemplateCache`] serve identical frames.
//!
//! ```
//! use airsched_core::group::GroupLadder;
//! use airsched_core::susc;
//! use airsched_core::types::PageId;
//! use airsched_proto::receiver::Receiver;
//! use airsched_proto::transmitter::{DebugPayloads, FrameStream};
//!
//! let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
//! let program = susc::schedule(&ladder, 2)?;
//! let mut rx = Receiver::new([PageId::new(4)]);
//! for frame in FrameStream::new(&program, DebugPayloads).take(16) {
//!     // Over the wire and back.
//!     let decoded = airsched_proto::frame::Frame::decode(&frame.encode())?;
//!     if let Some(reception) = rx.consume(&decoded) {
//!         // A page's payload is a function of the page alone.
//!         assert_eq!(&reception.payload[..], b"p4");
//!         break;
//!     }
//! }
//! assert!(rx.is_satisfied());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod frame;
pub mod receiver;
pub mod template;
pub mod transmitter;

pub use frame::{crc16, decode_stream, DecodeError, EncodeError, Frame};
pub use receiver::{Receiver, ReceiverStats, Reception};
pub use template::{CyclicPayloads, DeltaTable, FrameTemplateCache};
pub use transmitter::{encode_slot_into, DebugPayloads, FixedPayloads, FrameStream};
