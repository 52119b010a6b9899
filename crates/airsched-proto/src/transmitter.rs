//! Turning a broadcast program into a frame stream.
//!
//! [`FrameStream`] walks a [`BroadcastProgram`] slot by slot and emits one
//! [`Frame`] per channel per slot (idle frames included, so receivers stay
//! slot-synchronized); [`encode_slot_into`] puts one live column straight
//! onto the wire. Both pull payloads from a [`CyclicPayloads`]: a page's
//! bytes are the same every time it airs.

use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, PageId, SlotIndex};
use bytes::{Bytes, BytesMut};

use crate::frame::{write_frame, EncodeError, Frame};
use crate::template::CyclicPayloads;

/// Payloads that render each page's name as text (`p12`) — handy for
/// demos and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct DebugPayloads;

impl CyclicPayloads for DebugPayloads {
    fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
        out.extend_from_slice(page.to_string().as_bytes());
    }
}

/// Payloads that serve one fixed byte pattern for every page — the
/// borrowing workhorse for benchmarks and load tests, where payload
/// *content* is irrelevant but payload *cost* must not include the
/// allocator. One instance drives the template cache and a clone the
/// fresh encoder in lockstep gates.
#[derive(Debug, Clone)]
pub struct FixedPayloads {
    data: Bytes,
}

impl FixedPayloads {
    /// Payloads serving `data` for every page.
    #[must_use]
    pub fn new(data: Bytes) -> Self {
        Self { data }
    }

    /// The fixed payload served.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

impl CyclicPayloads for FixedPayloads {
    fn page_payload(&mut self, _page: PageId, out: &mut BytesMut) {
        out.extend_from_slice(&self.data);
    }
}

/// An infinite frame stream over a program.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::susc;
/// use airsched_proto::transmitter::{DebugPayloads, FrameStream};
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// let mut stream = FrameStream::new(&program, DebugPayloads);
/// let first_slot: Vec<_> = stream.by_ref().take(2).collect(); // 2 channels
/// assert!(first_slot.iter().all(|f| f.slot_time == 0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FrameStream<'a, P> {
    program: &'a BroadcastProgram,
    payloads: P,
    time: u64,
    channel: u32,
}

impl<'a, P: CyclicPayloads> FrameStream<'a, P> {
    /// Starts the stream at slot 0, channel 0.
    pub fn new(program: &'a BroadcastProgram, payloads: P) -> Self {
        Self {
            program,
            payloads,
            time: 0,
            channel: 0,
        }
    }
}

impl<P: CyclicPayloads> Iterator for FrameStream<'_, P> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let column = self.time % self.program.cycle_len();
        let channel = ChannelId::new(self.channel);
        let pos = GridPos::new(channel, SlotIndex::new(column));
        let frame = match self.program.page_at(pos) {
            Some(page) => {
                let mut payload = BytesMut::new();
                self.payloads.page_payload(page, &mut payload);
                Frame::data(channel, self.time, page, payload.freeze())
            }
            None => Frame::idle(channel, self.time),
        };
        self.channel += 1;
        if self.channel == self.program.channels() {
            self.channel = 0;
            self.time += 1;
        }
        Some(frame)
    }
}

/// Encodes one slot's per-channel pages (e.g. a live station's
/// `TickOutcome::on_air`) straight onto the wire, appending every frame
/// (idle carriers included) to one reused `buf`. Returns the number of
/// bytes appended. Payloads are rendered in place, with no intermediate
/// [`Frame`] or [`Bytes`], and the bytes equal [`Frame::encode_into`] over
/// the same frames. This is the fresh reference the patched
/// [`crate::template::FrameTemplateCache`] is held bit-identical to.
///
/// # Examples
///
/// ```
/// use airsched_core::types::{ChannelId, PageId};
/// use airsched_proto::frame::Frame;
/// use airsched_proto::transmitter::{encode_slot_into, DebugPayloads};
/// use bytes::{Bytes, BytesMut};
///
/// let on_air = [Some(PageId::new(3)), None];
/// let mut wire = BytesMut::new();
/// encode_slot_into(&on_air, 17, &mut DebugPayloads, &mut wire)?;
/// let data = Frame::data(ChannelId::new(0), 17, PageId::new(3), Bytes::from("p3"));
/// let idle = Frame::idle(ChannelId::new(1), 17);
/// assert_eq!(&wire[..], [&data.encode()[..], &idle.encode()[..]].concat());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`EncodeError`] if a channel index or payload does not fit its
/// wire field; frames encoded before the failure remain in `buf`.
pub fn encode_slot_into<P: CyclicPayloads>(
    on_air: &[Option<PageId>],
    slot_time: u64,
    payloads: &mut P,
    buf: &mut BytesMut,
) -> Result<usize, EncodeError> {
    let start = buf.len();
    for (ch, &page) in on_air.iter().enumerate() {
        let channel = u32::try_from(ch).expect("channel fits in u32");
        write_frame(buf, channel, slot_time, page, |out| {
            if let Some(p) = page {
                payloads.page_payload(p, out);
            }
        })?;
    }
    Ok(buf.len() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::group::GroupLadder;
    use airsched_core::susc;

    fn program() -> BroadcastProgram {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        susc::schedule(&ladder, 2).unwrap()
    }

    #[test]
    fn emits_one_frame_per_channel_per_slot() {
        let p = program();
        let frames: Vec<Frame> = FrameStream::new(&p, DebugPayloads)
            .take((p.channels() as usize) * (p.cycle_len() as usize))
            .collect();
        // Channel-major within each slot, slots ascending.
        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(frame.slot_time, (k as u64) / u64::from(p.channels()));
            assert_eq!(
                u64::from(frame.channel.index()),
                (k as u64) % u64::from(p.channels())
            );
        }
    }

    #[test]
    fn frames_match_the_grid() {
        let p = program();
        for frame in FrameStream::new(&p, DebugPayloads).take(32) {
            let pos = GridPos::new(
                frame.channel,
                SlotIndex::new(frame.slot_time % p.cycle_len()),
            );
            assert_eq!(p.page_at(pos), frame.page);
            if let Some(page) = frame.page {
                assert_eq!(&frame.payload[..], page.to_string().as_bytes());
            } else {
                assert!(frame.payload.is_empty());
            }
        }
    }

    #[test]
    fn encode_slot_into_matches_per_frame_encoding() {
        let on_air = [Some(PageId::new(3)), None, Some(PageId::new(1))];
        let mut buf = BytesMut::with_capacity(512);
        let mut expected = Vec::new();
        for slot_time in [0u64, 1, 3, u64::MAX] {
            buf.clear();
            let written =
                encode_slot_into(&on_air, slot_time, &mut DebugPayloads, &mut buf).unwrap();
            assert_eq!(written, buf.len());
            expected.clear();
            for (ch, &page) in (0u32..).zip(&on_air) {
                let channel = ChannelId::new(ch);
                let frame = match page {
                    Some(p) => Frame::data(channel, slot_time, p, Bytes::from(p.to_string())),
                    None => Frame::idle(channel, slot_time),
                };
                expected.extend_from_slice(&frame.encode());
            }
            assert_eq!(&buf[..], &expected[..], "slot {slot_time}");
        }
    }

    #[test]
    fn encode_slot_into_rejects_oversize_and_keeps_earlier_frames() {
        use crate::frame::MAX_PAYLOAD;
        struct Huge;
        impl CyclicPayloads for Huge {
            fn page_payload(&mut self, _page: PageId, out: &mut BytesMut) {
                out.extend_from_slice(&vec![0u8; MAX_PAYLOAD + 1]);
            }
        }
        let on_air = [None, Some(PageId::new(1))];
        let mut buf = BytesMut::new();
        let err = encode_slot_into(&on_air, 5, &mut Huge, &mut buf).unwrap_err();
        assert!(matches!(err, EncodeError::PayloadTooLarge { .. }));
        // The idle frame on channel 0 was already encoded and survives;
        // the oversize frame was rolled back cleanly.
        let (frames, used) = crate::frame::decode_stream(&buf);
        assert_eq!(used, buf.len());
        assert_eq!(frames.len(), 1);
        assert!(frames[0].is_idle());
    }

    #[test]
    fn encoded_stream_round_trips() {
        let p = program();
        let mut wire = Vec::new();
        let original: Vec<Frame> = FrameStream::new(&p, DebugPayloads).take(24).collect();
        for f in &original {
            wire.extend_from_slice(&f.encode());
        }
        let (decoded, used) = crate::frame::decode_stream(&wire);
        assert_eq!(used, wire.len());
        assert_eq!(decoded, original);
    }
}
