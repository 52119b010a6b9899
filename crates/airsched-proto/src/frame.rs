//! Slot frames: the unit a transmitter puts on the air.
//!
//! One frame carries one page transmission in one slot on one channel.
//! Layout (big-endian, 24-byte header + payload):
//!
//! ```text
//! offset  size  field
//!      0     4  magic        0x41495253 ("AIRS")
//!      4     1  version      1
//!      5     1  flags        bit 0: IDLE (carrier only, no page)
//!      6     2  channel      u16
//!      8     8  slot_time    u64  absolute slot index
//!     16     4  page         u32  page id (0 when IDLE)
//!     20     2  payload_len  u16
//!     22     2  crc          CRC-16/CCITT-FALSE over bytes 0..22 + payload
//!     24     -  payload
//! ```
//!
//! The checksum lets receivers detect corruption (see
//! `airsched-sim::lossy` for what loss does to service quality); the
//! sequence of `slot_time`s lets them detect gaps after dozing.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use airsched_core::types::{ChannelId, PageId, PAGE_ID_LIMIT};

/// Frame magic: `"AIRS"`.
pub const MAGIC: u32 = 0x4149_5253;
/// Current wire version.
pub const VERSION: u8 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 24;
/// Largest payload a frame may carry.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

/// Largest channel index the wire format can carry (the header stores the
/// channel as a `u16`).
pub const MAX_CHANNEL_INDEX: u32 = u16::MAX as u32;

const FLAG_IDLE: u8 = 0b0000_0001;
/// Byte offset of the channel field in a frame header.
pub(crate) const CHANNEL_OFFSET: usize = 6;
/// Byte offset of the `slot_time` field in a frame header.
pub(crate) const SLOT_TIME_OFFSET: usize = 8;
/// Byte offset of the CRC field in a frame header.
pub(crate) const CRC_OFFSET: usize = HEADER_LEN - 2;

/// One slot transmission on one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The channel the frame airs on.
    pub channel: ChannelId,
    /// Absolute slot index.
    pub slot_time: u64,
    /// The page carried, or `None` for an idle carrier slot.
    pub page: Option<PageId>,
    /// Opaque page payload (empty for idle frames).
    pub payload: Bytes,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// Fewer bytes than a header.
    Truncated {
        /// Bytes needed beyond what was supplied.
        missing: usize,
    },
    /// The magic bytes are wrong.
    BadMagic {
        /// The value found.
        found: u32,
    },
    /// Unsupported version.
    BadVersion {
        /// The value found.
        found: u8,
    },
    /// A whole frame was followed by more bytes than it declared.
    TrailingBytes {
        /// Bytes left over after the frame.
        extra: usize,
    },
    /// The checksum does not match (corruption).
    BadChecksum,
    /// An idle frame carried a payload or page id.
    MalformedIdle,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated { missing } => {
                write!(f, "frame truncated: {missing} byte(s) missing")
            }
            Self::BadMagic { found } => write!(f, "bad magic {found:#010x}"),
            Self::BadVersion { found } => write!(f, "unsupported version {found}"),
            Self::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the frame")
            }
            Self::BadChecksum => write!(f, "checksum mismatch"),
            Self::MalformedIdle => write!(f, "idle frame carries data"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a frame failed to encode.
///
/// The constructors ([`Frame::data`], [`Frame::idle`]) reject these states up
/// front, but the fields are public, so the encoder re-validates hand-built
/// frames instead of silently truncating them onto the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncodeError {
    /// The channel index does not fit the header's `u16` field — encoding it
    /// truncated would round-trip to the wrong channel.
    ChannelOutOfRange {
        /// The offending channel.
        channel: ChannelId,
    },
    /// The payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge {
        /// The payload length found.
        len: usize,
    },
    /// A page id at or above [`PAGE_ID_LIMIT`] was offered to the template
    /// cache, whose per-page table it would size at up to ~4G entries.
    PageOutOfRange {
        /// The offending page.
        page: PageId,
    },
}

impl core::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ChannelOutOfRange { channel } => write!(
                f,
                "channel {channel} exceeds the wire limit of {MAX_CHANNEL_INDEX}"
            ),
            Self::PayloadTooLarge { len } => {
                write!(f, "payload of {len} byte(s) exceeds the frame limit")
            }
            Self::PageOutOfRange { page } => {
                write!(
                    f,
                    "page {page} exceeds the page id limit of {PAGE_ID_LIMIT}"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

impl Frame {
    /// A data frame.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] or the channel index
    /// exceeds [`MAX_CHANNEL_INDEX`] — a wider channel id would silently
    /// truncate on the wire and round-trip to the wrong channel.
    #[must_use]
    pub fn data(channel: ChannelId, slot_time: u64, page: PageId, payload: Bytes) -> Self {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "payload exceeds the frame limit"
        );
        assert!(
            channel.index() <= MAX_CHANNEL_INDEX,
            "channel {channel} exceeds the wire limit of {MAX_CHANNEL_INDEX}"
        );
        Self {
            channel,
            slot_time,
            page: Some(page),
            payload,
        }
    }

    /// An idle-carrier frame (keeps receivers slot-synchronized).
    ///
    /// # Panics
    ///
    /// Panics if the channel index exceeds [`MAX_CHANNEL_INDEX`].
    #[must_use]
    pub fn idle(channel: ChannelId, slot_time: u64) -> Self {
        assert!(
            channel.index() <= MAX_CHANNEL_INDEX,
            "channel {channel} exceeds the wire limit of {MAX_CHANNEL_INDEX}"
        );
        Self {
            channel,
            slot_time,
            page: None,
            payload: Bytes::new(),
        }
    }

    /// Whether this is an idle frame.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.page.is_none()
    }

    /// Encodes the frame into a fresh buffer.
    ///
    /// Allocates per call; a transmitter encoding a whole column should use
    /// [`Frame::encode_into`] with one reused buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if the frame fails [`Frame::encode_into`] validation (only
    /// possible for hand-built frames — the constructors reject both states).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut buf).expect("frame is encodable");
        buf.freeze()
    }

    /// Appends the encoded frame to `buf`, returning the number of bytes
    /// written. The buffer is *not* cleared first, so a transmitter can pack
    /// a whole column of frames into one retained allocation and
    /// [`BytesMut::clear`] it between slots.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when the channel index or payload length does
    /// not fit its wire field. On error nothing is appended.
    pub fn encode_into(&self, buf: &mut BytesMut) -> Result<usize, EncodeError> {
        let (channel, payload) = (self.channel.index(), &self.payload);
        write_frame(buf, channel, self.slot_time, self.page, |out| {
            out.extend_from_slice(payload);
        })
    }

    /// Decodes one frame from `bytes` (which must contain exactly one
    /// frame; see [`decode_stream`] for concatenated frames).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for truncation, bad magic/version, checksum
    /// mismatch, malformed idle frames, or bytes left over after the frame.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (frame, used) = Self::decode_prefix(bytes)?;
        if used != bytes.len() {
            return Err(DecodeError::TrailingBytes {
                extra: bytes.len() - used,
            });
        }
        Ok(frame)
    }

    /// Decodes a frame from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// As [`Frame::decode`].
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), DecodeError> {
        if bytes.len() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                missing: HEADER_LEN - bytes.len(),
            });
        }
        let mut header = &bytes[..HEADER_LEN];
        let magic = header.get_u32();
        if magic != MAGIC {
            return Err(DecodeError::BadMagic { found: magic });
        }
        let version = header.get_u8();
        if version != VERSION {
            return Err(DecodeError::BadVersion { found: version });
        }
        let flags = header.get_u8();
        let channel = header.get_u16();
        let slot_time = header.get_u64();
        let page = header.get_u32();
        let payload_len = header.get_u16() as usize;
        let crc_stored = header.get_u16();

        let total = HEADER_LEN + payload_len;
        if bytes.len() < total {
            return Err(DecodeError::Truncated {
                missing: total - bytes.len(),
            });
        }
        let payload = &bytes[HEADER_LEN..total];
        let crc_actual = crc16(&bytes[..CRC_OFFSET], payload);
        if crc_actual != crc_stored {
            return Err(DecodeError::BadChecksum);
        }

        let idle = flags & FLAG_IDLE != 0;
        if idle && (payload_len != 0 || page != 0) {
            return Err(DecodeError::MalformedIdle);
        }
        Ok((
            Self {
                channel: ChannelId::new(u32::from(channel)),
                slot_time,
                page: if idle { None } else { Some(PageId::new(page)) },
                payload: Bytes::copy_from_slice(payload),
            },
            total,
        ))
    }
}

/// Appends one frame to `buf`: the header for `channel`, `slot_time` and
/// `page` (`None`: an idle carrier), then whatever `payload` appends, and
/// last the payload length and the CRC, patched into the header. This is
/// the only code that lays out a header: [`Frame::encode_into`], the fresh
/// [`crate::transmitter::encode_slot_into`] and the template builder all
/// call it. Returns the bytes appended.
///
/// # Errors
///
/// Returns [`EncodeError`] when the channel index or the payload does not
/// fit its wire field; nothing is appended then.
pub(crate) fn write_frame(
    buf: &mut BytesMut,
    channel: u32,
    slot_time: u64,
    page: Option<PageId>,
    payload: impl FnOnce(&mut BytesMut),
) -> Result<usize, EncodeError> {
    let Ok(wire_ch) = u16::try_from(channel) else {
        return Err(EncodeError::ChannelOutOfRange {
            channel: ChannelId::new(channel),
        });
    };
    let at = buf.len();
    buf.put_u32(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(if page.is_none() { FLAG_IDLE } else { 0 });
    buf.put_u16(wire_ch);
    buf.put_u64(slot_time);
    buf.put_u32(page.map_or(0, PageId::index));
    // The payload length and CRC are not known yet: reserve their fields.
    buf.put_u32(0);
    payload(buf);
    let len = buf.len() - at - HEADER_LEN;
    let Ok(wire_len) = u16::try_from(len) else {
        buf.truncate(at);
        return Err(EncodeError::PayloadTooLarge { len });
    };
    let frame = &mut buf[at..];
    frame[CRC_OFFSET - 2..CRC_OFFSET].copy_from_slice(&wire_len.to_be_bytes());
    let crc = crc16(&frame[..CRC_OFFSET], &frame[HEADER_LEN..]);
    frame[CRC_OFFSET..HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
    Ok(buf.len() - at)
}

/// Decodes a buffer of concatenated frames, stopping at the first error.
///
/// Returns the frames decoded and the byte offset where decoding stopped
/// (equals the buffer length on full success).
#[must_use]
pub fn decode_stream(bytes: &[u8]) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < bytes.len() {
        match Frame::decode_prefix(&bytes[offset..]) {
            Ok((frame, used)) => {
                frames.push(frame);
                offset += used;
            }
            Err(_) => break,
        }
    }
    (frames, offset)
}

/// Per-byte lookup table for CRC-16/CCITT-FALSE (polynomial `0x1021`),
/// computed at compile time. Entry `i` is the CRC of the single byte `i`
/// folded through the 8 bitwise steps, so one table hit replaces eight
/// shift/xor rounds. It is row 0 of [`CRC16_SLICES`], and [`crc16`] uses it
/// on its own for the bytes left over after the last 16-byte chunk.
pub(crate) const CRC16_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-16 tables for [`crc16`] (16 × 256 entries, 8 KiB), computed
/// at compile time from [`CRC16_TABLE`]. Row `k` entry `x` is the CRC,
/// from a zero state, of byte `x` followed by `k` zero bytes: `T_0 =
/// CRC16_TABLE` and `T_k[x] = (T_{k-1}[x] << 8) ^ T_0[T_{k-1}[x] >> 8]`,
/// one [`crc16_advance_zero`] step per row.
///
/// These are delta operators of the template path: row `pos` of
/// [`DeltaTable::new(0)`](crate::template::DeltaTable::new) is row
/// `7 - pos` here and row `pos` of `DeltaTable::new(8)` is row `15 - pos`
/// (a byte followed by that many zero bytes), and a unit test pins them
/// equal.
pub(crate) const CRC16_SLICES: [[u16; 256]; 16] = {
    let mut slices = [[0u16; 256]; 16];
    slices[0] = CRC16_TABLE;
    let mut k = 1usize;
    while k < 16 {
        let mut x = 0usize;
        while x < 256 {
            slices[k][x] = crc16_advance_zero(slices[k - 1][x]);
            x += 1;
        }
        k += 1;
    }
    slices
};

/// Bytes each of the two lanes of [`crc16`] folds per block. A multiple of
/// the 16-byte chunk; a frame's 512-byte payload is two whole blocks.
pub(crate) const LANE: usize = 128;

const _: () = assert!(LANE.is_multiple_of(16) && LANE >= 16);

/// The merge operator of the two lanes: the state `x` left by the first
/// lane, advanced over the second lane's `LANE` bytes, is
/// `CRC16_LANE_SHIFT[0][x >> 8] ^ CRC16_LANE_SHIFT[1][x & 0xFF]`. Row 0
/// entry `v` is the CRC, from a zero state, of byte `v` followed by
/// `LANE - 1` zero bytes, row 1 of `v` followed by `LANE - 2`: entries 0
/// and 1 of [`DeltaTable::new(LANE - 8)`](crate::template::DeltaTable::new),
/// which a unit test pins equal.
pub(crate) const CRC16_LANE_SHIFT: [[u16; 256]; 2] = {
    let mut shift = [[0u16; 256]; 2];
    let mut x = 0usize;
    while x < 256 {
        let mut s = CRC16_TABLE[x];
        let mut zeros = 0;
        while zeros < LANE - 2 {
            s = crc16_advance_zero(s);
            zeros += 1;
        }
        shift[1][x] = s;
        shift[0][x] = crc16_advance_zero(s);
        x += 1;
    }
    shift
};

/// CRC-16/CCITT-FALSE (init `0xFFFF`, polynomial `0x1021`, no reflection)
/// over the header prefix followed by the payload.
///
/// Two lanes of slicing-by-16: each block of `2 × LANE` bytes is split in
/// halves that fold independently, 16 bytes at a time through
/// `CRC16_SLICES` (16 × 256 entries, 8 KiB), and merge once through
/// `CRC16_LANE_SHIFT`. The two dependency chains overlap; one chain alone
/// waits on each chunk's lookups before it can start the next. The
/// bitwise original is retained as `crc16_bitwise`, and the golden-vector
/// tests and a proptest over every chunk and block boundary pin the two
/// equal.
///
/// Public so other on-disk formats (the recovery subsystem's checkpoint
/// and journal framing) share the exact same checksum as the wire.
#[must_use]
pub fn crc16(header: &[u8], payload: &[u8]) -> u16 {
    crc16_update(crc16_update(0xFFFF, header), payload)
}

/// Folds `bytes` into the CRC state `crc`: whole two-lane blocks first,
/// then 16-byte chunks, then the remaining bytes one at a time.
///
/// The CRC is linear, so the state after both halves of a block is the
/// first lane's state advanced over `LANE` zero bytes, XORed with the
/// second lane's state from zero.
fn crc16_update(mut crc: u16, bytes: &[u8]) -> u16 {
    let (blocks, rest) = bytes.as_chunks::<{ 2 * LANE }>();
    for block in blocks {
        let (first, second) = block.split_at(LANE);
        let (x, y) = first
            .as_chunks::<16>()
            .0
            .iter()
            .zip(second.as_chunks::<16>().0)
            .fold((crc, 0), |(x, y), (a, b)| (fold16(x, a), fold16(y, b)));
        let [hi, lo] = x.to_be_bytes();
        crc = CRC16_LANE_SHIFT[0][usize::from(hi)] ^ CRC16_LANE_SHIFT[1][usize::from(lo)] ^ y;
    }
    let (chunks, rest) = rest.as_chunks::<16>();
    for chunk in chunks {
        crc = fold16(crc, chunk);
    }
    for &byte in rest {
        crc = (crc << 8) ^ CRC16_TABLE[usize::from((crc >> 8) as u8 ^ byte)];
    }
    crc
}

/// Folds one 16-byte chunk into `crc`. The state enters the chunk as if
/// XORed into its first two bytes with the state reset to zero. From a
/// zero state, byte `j` contributes `CRC16_SLICES[15 - j]` of its value,
/// since `15 - j` bytes follow it, and the sixteen contributions XOR
/// together.
#[inline(always)]
fn fold16(crc: u16, chunk: &[u8; 16]) -> u16 {
    let [hi, lo] = crc.to_be_bytes();
    let mut out =
        CRC16_SLICES[15][usize::from(chunk[0] ^ hi)] ^ CRC16_SLICES[14][usize::from(chunk[1] ^ lo)];
    for (j, &byte) in chunk.iter().enumerate().skip(2) {
        out ^= CRC16_SLICES[15 - j][usize::from(byte)];
    }
    out
}

/// Advances a CRC state by one *zero* input byte: `s → (s << 8) ^
/// T[s >> 8]`. This is the linear part `A` of the per-byte step `s' =
/// A(s) ^ T[b]` (see [`crate::template::DeltaTable`] for why the step
/// decomposes that way); the slice tables and the incremental-CRC delta
/// tables are built by repeated application of it.
#[inline]
pub(crate) const fn crc16_advance_zero(state: u16) -> u16 {
    (state << 8) ^ CRC16_TABLE[(state >> 8) as usize]
}

/// The seed's bit-at-a-time CRC-16/CCITT-FALSE, kept as the reference the
/// sliced [`crc16`] is verified against.
#[cfg(test)]
fn crc16_bitwise(header: &[u8], payload: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in header.iter().chain(payload) {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::data(
            ChannelId::new(2),
            987_654,
            PageId::new(41),
            Bytes::from_static(b"quote:ACME=42.17"),
        )
    }

    #[test]
    fn data_frame_round_trips() {
        let frame = sample();
        let encoded = frame.encode();
        assert_eq!(encoded.len(), HEADER_LEN + 16);
        let decoded = Frame::decode(&encoded).unwrap();
        assert_eq!(decoded, frame);
        assert!(!decoded.is_idle());
    }

    #[test]
    fn idle_frame_round_trips() {
        let frame = Frame::idle(ChannelId::new(0), 7);
        let decoded = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
        assert!(decoded.is_idle());
        assert!(decoded.payload.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode().to_vec();
        for idx in [6, 10, 20, HEADER_LEN + 3] {
            let mut copy = bytes.clone();
            copy[idx] ^= 0x40;
            // Any single-bit flip must be detected — as a checksum
            // mismatch, or as truncation when the flipped bit is in the
            // length field.
            assert!(
                Frame::decode(&copy).is_err(),
                "flip at {idx} went undetected"
            );
        }
        // Flipping magic is reported as magic, not checksum.
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncation_reports_missing_bytes() {
        let encoded = sample().encode();
        let err = Frame::decode(&encoded[..10]).unwrap_err();
        assert_eq!(err, DecodeError::Truncated { missing: 14 });
        let err = Frame::decode(&encoded[..HEADER_LEN + 2]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn version_gate() {
        let mut bytes = sample().encode().to_vec();
        bytes[4] = 9;
        assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::BadVersion { found: 9 })
        );
    }

    #[test]
    fn stream_decoding_stops_at_corruption() {
        let mut buf = Vec::new();
        for k in 0..4u64 {
            buf.extend_from_slice(&Frame::idle(ChannelId::new(0), k).encode());
        }
        let (frames, used) = decode_stream(&buf);
        assert_eq!(frames.len(), 4);
        assert_eq!(used, buf.len());
        // Corrupt the third frame.
        let frame_len = HEADER_LEN;
        buf[2 * frame_len + 9] ^= 1;
        let (frames, used) = decode_stream(&buf);
        assert_eq!(frames.len(), 2);
        assert_eq!(used, 2 * frame_len);
    }

    #[test]
    fn display_messages() {
        assert!(DecodeError::BadChecksum.to_string().contains("checksum"));
        assert!(DecodeError::Truncated { missing: 3 }
            .to_string()
            .contains("3 byte"));
        assert!(DecodeError::BadMagic { found: 0 }
            .to_string()
            .contains("magic"));
        assert_eq!(
            DecodeError::TrailingBytes { extra: 2 }.to_string(),
            "2 trailing byte(s) after the frame"
        );
    }

    #[test]
    fn trailing_bytes_are_not_reported_as_truncation() {
        // Regression: a frame followed by extra bytes used to decode as
        // `Truncated { missing: 0 }` ("0 byte(s) missing").
        let mut bytes = sample().encode().to_vec();
        bytes.extend_from_slice(b"xyz");
        assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::TrailingBytes { extra: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "payload exceeds")]
    fn oversized_payload_panics() {
        let _ = Frame::data(
            ChannelId::new(0),
            0,
            PageId::new(0),
            Bytes::from(vec![0u8; MAX_PAYLOAD + 1]),
        );
    }

    #[test]
    fn crc_is_stable() {
        // Pin the CRC algorithm so the wire format never drifts silently.
        assert_eq!(crc16(b"123456789", b""), 0x29B1); // CCITT-FALSE check value
        assert_eq!(crc16(b"", b"123456789"), 0x29B1);
        assert_eq!(crc16(b"1234", b"56789"), 0x29B1);
    }

    #[test]
    fn crc_golden_vectors_pin_table_against_bitwise() {
        // Known CCITT-FALSE values (init 0xFFFF, poly 0x1021, no reflection).
        let goldens: &[(&[u8], u16)] = &[
            (b"", 0xFFFF),
            (b"\x00", 0xE1F0),
            (b"\xFF", 0xFF00),
            (b"123456789", 0x29B1),
            (b"A", 0xB915),
            (b"AIRS", 0x1D9F),
        ];
        for &(input, expected) in goldens {
            assert_eq!(crc16(input, b""), expected, "table CRC of {input:?}");
            assert_eq!(
                crc16_bitwise(input, b""),
                expected,
                "bitwise CRC of {input:?}"
            );
        }
        // Exhaustive single-byte sweep plus a structured corpus: the table
        // rewrite must match the bitwise original on every split.
        for b in 0u8..=255 {
            assert_eq!(crc16(&[b], b""), crc16_bitwise(&[b], b""), "byte {b:#04x}");
        }
        let corpus: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for split in [0usize, 1, 23, 512, 1024] {
            assert_eq!(
                crc16(&corpus[..split], &corpus[split..]),
                crc16_bitwise(&corpus[..split], &corpus[split..]),
                "split at {split}"
            );
        }
    }

    #[test]
    fn wide_channel_is_rejected_not_truncated() {
        // Regression: the seed encoded channel 65536+ as 65535, which
        // round-tripped to the wrong channel. Hand-built frames (the fields
        // are public) must now fail to encode instead.
        let frame = Frame {
            channel: ChannelId::new(70_000),
            slot_time: 1,
            page: Some(PageId::new(0)),
            payload: Bytes::new(),
        };
        let mut buf = BytesMut::new();
        assert_eq!(
            frame.encode_into(&mut buf),
            Err(EncodeError::ChannelOutOfRange {
                channel: ChannelId::new(70_000)
            })
        );
        // A failed encode appends nothing.
        assert!(buf.is_empty());
        // The boundary channel still encodes and round-trips exactly.
        let edge = Frame::idle(ChannelId::new(MAX_CHANNEL_INDEX), 9);
        let decoded = Frame::decode(&edge.encode()).unwrap();
        assert_eq!(decoded.channel, ChannelId::new(MAX_CHANNEL_INDEX));
        let err = EncodeError::ChannelOutOfRange {
            channel: ChannelId::new(70_000),
        };
        assert!(err.to_string().contains("wire limit"));
    }

    #[test]
    #[should_panic(expected = "wire limit")]
    fn constructor_rejects_wide_channel() {
        let _ = Frame::data(
            ChannelId::new(u32::from(u16::MAX) + 1),
            0,
            PageId::new(0),
            Bytes::new(),
        );
    }

    #[test]
    #[should_panic(expected = "wire limit")]
    fn idle_constructor_rejects_wide_channel() {
        let _ = Frame::idle(ChannelId::new(u32::MAX), 0);
    }

    #[test]
    fn encode_into_reuses_one_buffer_across_a_column() {
        let frames = [
            Frame::data(
                ChannelId::new(0),
                5,
                PageId::new(1),
                Bytes::from_static(b"a"),
            ),
            Frame::idle(ChannelId::new(1), 5),
            Frame::data(
                ChannelId::new(2),
                5,
                PageId::new(3),
                Bytes::from_static(b"bcd"),
            ),
        ];
        let mut buf = BytesMut::with_capacity(256);
        let mut expected = Vec::new();
        let mut written = 0;
        for frame in &frames {
            written += frame.encode_into(&mut buf).unwrap();
            expected.extend_from_slice(&frame.encode());
        }
        assert_eq!(written, buf.len());
        assert_eq!(&buf[..], &expected[..]);
        let (decoded, used) = decode_stream(&buf);
        assert_eq!(used, buf.len());
        assert_eq!(decoded, frames);
        // Clearing retains the allocation for the next slot.
        let cap = buf.capacity();
        buf.clear();
        frames[0].encode_into(&mut buf).unwrap();
        assert_eq!(buf.capacity(), cap);
        assert_eq!(&buf[..], &frames[0].encode()[..]);
    }

    #[test]
    fn encode_into_rejects_oversized_payload() {
        let frame = Frame {
            channel: ChannelId::new(0),
            slot_time: 0,
            page: Some(PageId::new(0)),
            payload: Bytes::from(vec![0u8; MAX_PAYLOAD + 1]),
        };
        let mut buf = BytesMut::new();
        assert_eq!(
            frame.encode_into(&mut buf),
            Err(EncodeError::PayloadTooLarge {
                len: MAX_PAYLOAD + 1
            })
        );
        assert!(buf.is_empty());
    }

    mod robustness {
        use super::*;
        use proptest::prelude::*;

        fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
            prop::collection::vec(any::<u8>(), 0..max)
        }

        /// A valid encoded frame to mutate.
        fn arb_encoded() -> impl Strategy<Value = Vec<u8>> {
            (any::<u16>(), any::<u64>(), any::<u32>(), arb_bytes(48)).prop_map(
                |(ch, slot, page, payload)| {
                    Frame::data(
                        ChannelId::new(u32::from(ch)),
                        slot,
                        PageId::new(page),
                        Bytes::from(payload),
                    )
                    .encode()
                    .to_vec()
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The two-lane kernel equals the bitwise reference for every
            /// split: header lengths 0..=40 and payloads of 0 to 4 whole
            /// merge blocks plus 40 bytes reach every block count and every
            /// chunk remainder on both halves, the frame's 22-byte
            /// checksummed header among them.
            #[test]
            fn sliced_crc_matches_bitwise(
                header in prop::collection::vec(any::<u8>(), 0..=40),
                payload in arb_bytes(8 * LANE + 41),
            ) {
                prop_assert_eq!(crc16(&header, &payload), crc16_bitwise(&header, &payload));
            }

            /// Arbitrary byte soup never panics the decoder, never makes
            /// it hand back more payload than was offered, and anything
            /// it does accept re-encodes to exactly the input.
            #[test]
            fn arbitrary_bytes_never_panic_or_overallocate(bytes in arb_bytes(96)) {
                // A typed error is the other allowed outcome.
                if let Ok(frame) = Frame::decode(&bytes) {
                    prop_assert!(frame.payload.len() <= bytes.len());
                    prop_assert_eq!(&frame.encode()[..], &bytes[..]);
                }
                let (frames, used) = decode_stream(&bytes);
                prop_assert!(used <= bytes.len());
                let total: usize = frames.iter().map(|f| f.payload.len()).sum();
                prop_assert!(total <= bytes.len());
            }

            /// Truncating a valid frame anywhere yields a typed error —
            /// and for cuts at or beyond the header, specifically
            /// `Truncated` (a short length prefix can also surface as a
            /// checksum/framing error, never a panic).
            #[test]
            fn truncated_frames_error_cleanly(encoded in arb_encoded(), cut in any::<usize>()) {
                let cut = cut % encoded.len().max(1);
                let err = Frame::decode(&encoded[..cut]).unwrap_err();
                if cut < HEADER_LEN {
                    prop_assert_eq!(err, DecodeError::Truncated { missing: HEADER_LEN - cut });
                } else {
                    prop_assert!(matches!(err, DecodeError::Truncated { .. }));
                }
            }

            /// A single flipped bit anywhere in a valid frame is always
            /// detected: decode either errors, or (when the flip lands in
            /// the length field and re-frames the buffer) returns a frame
            /// different from a clean re-encode of the original bytes.
            #[test]
            fn bit_flips_never_round_trip_silently(
                encoded in arb_encoded(),
                pos in any::<usize>(),
                bit in 0u8..8,
            ) {
                let original = Frame::decode(&encoded).unwrap();
                let mut tampered = encoded.clone();
                let pos = pos % tampered.len();
                tampered[pos] ^= 1 << bit;
                match Frame::decode(&tampered) {
                    Err(_) => {}
                    Ok(frame) => prop_assert_ne!(frame, original, "flip at byte {} bit {} went undetected", pos, bit),
                }
            }
        }
    }
}
