//! Cyclic frame templates: pre-encoded wire images patched per slot.
//!
//! Broadcast programs are *periodic* — every channel repeats a fixed cycle
//! of pages — so across the whole run a channel's slot differs from the
//! same slot one cycle earlier in exactly one header field: the 8-byte
//! `slot_time`; and a page's frame on one channel differs from its frame
//! on another only in the 2-byte channel field. The fresh encoder still
//! rebuilds the header, copies the payload, and re-scans every byte for
//! the CRC each slot. This module hoists all of that to plan-publish time:
//! [`FrameTemplateCache`] pre-encodes one wire image per page (plus one
//! idle image), and the per-slot work collapses to one `memcpy` of the
//! image plus a channel and `slot_time` patch and an *incremental* CRC
//! fix-up.
//!
//! # Why the CRC can be patched without a re-scan
//!
//! CRC-16/CCITT-FALSE processes a message one byte at a time:
//! `s' = A(s) ^ T[b ^ hi(s)]` where `T` is the byte table and
//! `A(s) = (s << 8) ^ T[hi(s)]` is the state advance for a zero byte.
//! Both `A` and `T` are linear over GF(2) (`T[a ^ b] = T[a] ^ T[b]`, pinned
//! by a test below), which makes the whole CRC an *affine* function of the
//! message: for two equal-length messages `m1`, `m2` the nonlinear parts —
//! the `0xFFFF` init and every byte the messages share — cancel, leaving
//!
//! ```text
//! crc(m1) ^ crc(m2) = L(m1 ^ m2)
//! ```
//!
//! with `L` linear. When the messages differ only in the 8 `slot_time`
//! bytes, `L` collapses to eight 256-entry lookup tables — one per slot
//! byte position, each entry pre-advanced over the `tail_len` bytes that
//! follow the slot field ([`DeltaTable`]). Templates bake `slot_time = 0`,
//! so the XOR of the fields *is* the new slot bytes, and the patched CRC is
//! `base_crc ^ delta(slot_time)` — 8 lookups instead of a full message
//! scan. Templates also bake channel 0; the channel field sits just before
//! the slot field, so its delta is positions 6–7 of the operator over
//! `tail_len + 8`, precomputed per payload length and channel. The result
//! is identical bit-for-bit to re-encoding (the fresh
//! [`crate::transmitter::encode_slot_into`] stays as the reference, and
//! this module's tests, `wire_properties` and `serving_path` compare the
//! two byte-for-byte). Both build a header with the one frame writer in
//! [`crate::frame`].
//!
//! # Invalidation
//!
//! The cache maps the cells of one plan to page templates. It starts
//! with no plan ([`FrameTemplateCache::new`]) and callers retarget it
//! ([`FrameTemplateCache::retarget`]), one [`PlanRow`] per channel, at
//! every change of plan: plan swap/publish, a degradation-ladder repack
//! (channel failure or recovery), or recovery `restore()`. Each row
//! carries its version ([`row_version`]); a retarget
//! re-reads only the rows whose version moved (or that turned idle or
//! stopped being idle), keeps a cell count per page, encodes the pages
//! whose count rises from 0 and drops the templates whose count falls
//! to 0. Stalls need no retarget
//! — a stalled or down channel airs the idle template. A column that
//! disagrees with the cached plan (a page outside its cell, or a
//! different width) is still served from templates: a template is a
//! function of its page alone, so [`FrameTemplateCache::encode_slot_into`]
//! first encodes, through the same admit loop a retarget uses, any page
//! of the column that has none, and counts the slot in
//! [`FrameTemplateCache::off_plan_slots`].
//!
//! [`row_version`]: airsched_core::program::BroadcastProgram::row_version

use airsched_core::types::{ChannelId, PageId, PAGE_ID_LIMIT};
use bytes::BytesMut;

use crate::frame::{
    crc16_advance_zero, write_frame, EncodeError, CHANNEL_OFFSET, CRC16_TABLE, CRC_OFFSET,
    HEADER_LEN, MAX_CHANNEL_INDEX, SLOT_TIME_OFFSET,
};

/// Header bytes after the `slot_time` field that feed the CRC
/// (page id + payload length).
const HEADER_TAIL: usize = CRC_OFFSET - (SLOT_TIME_OFFSET + 8);

/// Supplies the payload bytes for a page: to a template when it is built,
/// and to the fresh encoders ([`crate::transmitter::FrameStream`],
/// [`crate::transmitter::encode_slot_into`]).
///
/// The payload may not depend on the slot time: the same bytes air every
/// time the page's cell comes around in the cycle, which is exactly what
/// makes the template reusable. (This matches the paper's model — a page
/// is one fixed unit of content rebroadcast periodically.)
///
/// The payload must be a pure function of the page for the whole
/// lifetime of the cache it feeds, not just of one plan: a template
/// survives every [`FrameTemplateCache::retarget`] that keeps its page on
/// the grid, so a supplier that changed a page's bytes between plans
/// would see the old bytes keep airing.
pub trait CyclicPayloads {
    /// Appends the payload for `page` to `out`.
    fn page_payload(&mut self, page: PageId, out: &mut BytesMut);
}

/// The linear delta operator `L` for one message shape: maps the XOR of
/// the 8 `slot_time` bytes straight onto the XOR of the checksums, for
/// messages whose slot field is followed by exactly `tail_len` bytes.
///
/// `entry(pos, v)` is the checksum contribution of XOR byte `v` at slot
/// byte position `pos` (0 = most significant). Built from the CRC byte
/// table by repeated zero-byte advances: position 7's entries are
/// `A^tail_len(T[v])`, and each earlier position is one more advance of
/// the next. Linearity of `T` lets the base row be assembled from the 8
/// single-bit columns instead of advancing all 256 entries.
///
/// The two-lane [`crate::frame::crc16`] runs on the same operator: row
/// `pos` of `DeltaTable::new(0)` is the CRC of a byte followed by `7 - pos`
/// zero bytes, which is slice table `7 - pos`, and of `DeltaTable::new(8)`
/// slice table `15 - pos`, together the 16 rows each 16-byte chunk is
/// folded with; rows 0 and 1 of `DeltaTable::new(LANE - 8)` are the table
/// that merges the lanes (a unit test pins all three equal).
#[derive(Debug, Clone)]
pub struct DeltaTable {
    tbl: Box<[[u16; 256]; 8]>,
}

impl DeltaTable {
    /// Builds the delta operator for a slot field followed by `tail_len`
    /// bytes (for a wire frame: 6 header bytes + the payload length).
    #[must_use]
    pub fn new(tail_len: usize) -> Self {
        // Advance each single-bit basis column over the tail once, then
        // expand to all 256 byte values by GF(2) linearity.
        let mut basis = [0u16; 8];
        for (bit, slot) in basis.iter_mut().enumerate() {
            let mut s = CRC16_TABLE[1usize << bit];
            for _ in 0..tail_len {
                s = crc16_advance_zero(s);
            }
            *slot = s;
        }
        let mut tbl = Box::new([[0u16; 256]; 8]);
        for v in 0..256usize {
            let mut d = 0u16;
            for (bit, &contribution) in basis.iter().enumerate() {
                if v & (1 << bit) != 0 {
                    d ^= contribution;
                }
            }
            tbl[7][v] = d;
        }
        for pos in (0..7).rev() {
            for v in 0..256 {
                tbl[pos][v] = crc16_advance_zero(tbl[pos + 1][v]);
            }
        }
        Self { tbl }
    }

    /// The checksum contribution of XOR byte `value` at slot byte
    /// position `pos` (0 = most significant byte of `slot_time`).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 8`.
    #[must_use]
    pub fn entry(&self, pos: usize, value: u8) -> u16 {
        self.tbl[pos][usize::from(value)]
    }

    /// Maps the XOR of the 8 slot bytes onto the XOR of the checksums.
    #[must_use]
    pub fn delta(&self, xor: [u8; 8]) -> u16 {
        let mut d = 0u16;
        for (pos, &b) in xor.iter().enumerate() {
            d ^= self.tbl[pos][usize::from(b)];
        }
        d
    }
}

/// One channel's row of a plan, as [`FrameTemplateCache::retarget`] reads
/// it.
#[derive(Debug, Clone, Copy)]
pub struct PlanRow<'a> {
    /// The row's page per column; `None` when the channel airs nothing.
    pub cells: Option<&'a [Option<PageId>]>,
    /// The row's version: two rows with equal versions hold equal cells,
    /// as [`row_version`] promises. Not read when `cells` is `None`.
    ///
    /// [`row_version`]: airsched_core::program::BroadcastProgram::row_version
    pub version: u64,
}

impl PlanRow<'_> {
    /// What the cache keys the row on: its version, or `None` when the
    /// channel airs nothing. A retarget re-reads a row whose key moved.
    fn key(&self) -> Option<u64> {
        self.cells.map(|_| self.version)
    }
}

/// One pre-encoded wire image, with channel 0 and `slot_time = 0` baked
/// in: `len` bytes at `off` in the cache's image arena.
#[derive(Debug, Clone)]
struct Template {
    off: usize,
    len: u32,
    base_crc: u16,
    /// Index into the cache's [`LengthDeltas`] (one per distinct payload
    /// length).
    table: u32,
}

/// The CRC delta operators for one frame length.
#[derive(Debug, Clone)]
struct LengthDeltas {
    /// Bytes after the slot field: header tail plus payload.
    tail_len: usize,
    /// Patches the slot bytes.
    slot: DeltaTable,
    /// Patch for naming each channel instead of the baked channel 0; sized
    /// to the cache's channel count on every retarget.
    channel: Vec<u16>,
    /// Templates of this length, the idle one included: a table is
    /// dropped when its last template goes.
    users: u32,
}

/// The CRC deltas of naming channels `0..channels` instead of the baked
/// channel 0, for frames whose slot field is followed by `tail_len` bytes.
/// The channel field sits just before the slot field, so it is positions
/// 6–7 of the delta operator over `tail_len + 8`.
fn channel_deltas(tail_len: usize, channels: u32) -> Vec<u16> {
    let table = DeltaTable::new(tail_len + 8);
    (0..channels)
        .map(|ch| {
            let [_, _, hi, lo] = ch.to_be_bytes();
            table.entry(6, hi) ^ table.entry(7, lo)
        })
        .collect()
}

/// Pre-encodes one wire image for `page` (`None`: the idle frame) on
/// channel 0 at `slot_time = 0`, so the XOR against any real frame is the
/// channel and slot bytes themselves. Finds or adds the delta table for
/// the frame's length in `tables`. `img` is scratch, reused across pages
/// so the image grows in one buffer and is copied out once, to the end
/// of `images`.
fn encode_template(
    tables: &mut Vec<LengthDeltas>,
    img: &mut BytesMut,
    images: &mut Vec<u8>,
    page: Option<PageId>,
    payload: impl FnOnce(&mut BytesMut),
) -> Result<Template, EncodeError> {
    img.clear();
    write_frame(img, 0, 0, page, payload)?;
    let tail_len = HEADER_TAIL + img.len() - HEADER_LEN;
    let table = match tables.iter().position(|t| t.tail_len == tail_len) {
        Some(i) => i,
        None => {
            tables.push(LengthDeltas {
                tail_len,
                slot: DeltaTable::new(tail_len),
                channel: Vec::new(),
                users: 0,
            });
            tables.len() - 1
        }
    };
    tables[table].users += 1;
    let off = images.len();
    images.extend_from_slice(img);
    Ok(Template {
        off,
        len: u32::try_from(img.len()).expect("a frame's length fits in u32"),
        base_crc: u16::from_be_bytes([img[CRC_OFFSET], img[CRC_OFFSET + 1]]),
        table: u32::try_from(table).expect("table count fits in u32"),
    })
}

/// Grows the template and count tables, in step, to hold `page`;
/// returns its index.
fn fit_page(templates: &mut Vec<Option<Template>>, counts: &mut Vec<u32>, page: PageId) -> usize {
    let p = page.index() as usize;
    if p >= templates.len() {
        templates.resize_with(p + 1, || None);
        counts.resize(p + 1, 0);
    }
    p
}

/// Pre-encoded wire images for every page of one broadcast plan, emitted
/// per slot by patching the channel and `slot_time` and fixing the CRC
/// incrementally (see the module docs for the argument).
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::susc;
/// use airsched_core::types::PageId;
/// use airsched_proto::template::{CyclicPayloads, FrameTemplateCache, PlanRow};
/// use bytes::BytesMut;
///
/// struct Fixed;
/// impl CyclicPayloads for Fixed {
///     fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
///         out.extend_from_slice(page.to_string().as_bytes());
///     }
/// }
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// let rows: Vec<PlanRow> = (0..program.channels())
///     .map(|ch| PlanRow {
///         cells: Some(program.row_cells(ch)),
///         version: program.row_version(ch),
///     })
///     .collect();
/// let mut cache = FrameTemplateCache::new();
/// cache.retarget(program.cycle_len(), &rows, &mut Fixed)?;
/// let on_air: Vec<_> = (0..program.channels()).map(|ch| cache.page_at(ch, 7)).collect();
/// let mut buf = BytesMut::new();
/// let written = cache.encode_slot_into(&on_air, 7, &mut Fixed, &mut buf)?;
/// assert_eq!(written, buf.len());
/// // Every emitted frame decodes — the patched CRC is valid.
/// let (frames, used) = airsched_proto::decode_stream(&buf);
/// assert_eq!(used, buf.len());
/// assert_eq!(frames.len(), program.channels() as usize);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameTemplateCache {
    channels: u32,
    cycle_len: u64,
    /// Data template per page, indexed densely by `PageId::index()`;
    /// `None` for pages not on the grid.
    templates: Vec<Option<Template>>,
    /// The idle template, shared by every channel.
    idle: Template,
    /// Every template's image, back to back: one block for a plan's
    /// pages rather than one allocation per page.
    images: Vec<u8>,
    /// Bytes of `images` that no template holds any more; the arena is
    /// packed once they outnumber the held ones.
    dead: usize,
    tables: Vec<LengthDeltas>,
    /// The plan's page per cell, channel-major (`ch * cycle_len +
    /// column`): the template lookup and the drift check.
    pages: Vec<Option<PageId>>,
    /// The [`PlanRow`] key each channel's row of `pages` was read from.
    row_keys: Vec<Option<u64>>,
    /// Cells of `pages` per page, indexed like `templates` and as long:
    /// a page has a template exactly while its count is above 0, or
    /// while it is a stray.
    counts: Vec<u32>,
    /// Pages given a template outside a retarget's count (an off-plan
    /// column, or a refused retarget): dropped at the next retarget
    /// unless it counts them.
    stray: Vec<PageId>,
    /// Per-table slot delta for the slot being emitted.
    delta_scratch: Vec<u16>,
    /// Slots whose column disagreed with the cached plan.
    off_plan_slots: u64,
}

impl Default for FrameTemplateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameTemplateCache {
    /// A cache with no plan: only the idle template. The first
    /// [`FrameTemplateCache::retarget`] reads every row.
    #[must_use]
    pub fn new() -> Self {
        let (mut tables, mut images) = (Vec::new(), Vec::new());
        let idle = encode_template(&mut tables, &mut BytesMut::new(), &mut images, None, |_| {})
            .expect("an idle frame always fits");
        Self {
            channels: 0,
            cycle_len: 1,
            templates: Vec::new(),
            idle,
            images,
            dead: 0,
            tables,
            pages: Vec::new(),
            row_keys: Vec::new(),
            counts: Vec::new(),
            stray: Vec::new(),
            delta_scratch: Vec::new(),
            off_plan_slots: 0,
        }
    }

    /// Points the cache at a new plan, one [`PlanRow`] per channel,
    /// reading only the rows that changed: a row whose version (or
    /// idleness) is the one the channel's row was read from is skipped.
    /// The cells of each changed row move the per-page counts. A page
    /// whose count rises from 0 gets a template (its payload pulled
    /// once, unless it still has one), and a page whose count falls to
    /// 0, or that an off-plan column admitted, loses it. No cell of the
    /// cached grid is written before every new template is encoded. A
    /// change of channel count or cycle reads every row. Templates
    /// outlive the plan they were built for, which is why a
    /// [`CyclicPayloads`] must be a pure function of the page.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when a channel index or payload does not
    /// fit its wire field; the cache then stays on its previous plan.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_len` is zero or a row is not `cycle_len` cells
    /// long.
    pub fn retarget<P: CyclicPayloads>(
        &mut self,
        cycle_len: u64,
        rows: &[PlanRow<'_>],
        payloads: &mut P,
    ) -> Result<(), EncodeError> {
        assert!(cycle_len > 0, "a plan cycle has at least one slot");
        let width = usize::try_from(cycle_len).expect("grid fits in memory");
        let channels = u32::try_from(rows.len()).expect("channel count fits in u32");
        let reshape = channels != self.channels || cycle_len != self.cycle_len;
        let changed: Vec<bool> = rows
            .iter()
            .enumerate()
            .map(|(ch, row)| {
                assert!(
                    row.cells.is_none_or(|cells| cells.len() == width),
                    "a row holds cycle_len cells"
                );
                reshape || self.row_keys[ch] != row.key()
            })
            .collect();
        // Count first, writing no cell: each changed cell moves the
        // counts of its old and its new page. A page whose count rises
        // from 0 and that has no template is new to the grid, met once
        // here; a page whose count falls to 0 is a stray, dropped below.
        // A re-shape counts from an empty grid.
        if reshape {
            self.counts.fill(0);
        }
        let mut new = Vec::new();
        let mut refused = None;
        'rows: for (ch, (row, _)) in rows
            .iter()
            .zip(&changed)
            .enumerate()
            .filter(|(_, (_, &changed))| changed)
        {
            let old = self
                .pages
                .get(ch * width..(ch + 1) * width)
                .filter(|_| !reshape);
            for col in 0..width {
                let (to, from) = (row.cells.and_then(|c| c[col]), old.and_then(|c| c[col]));
                if to == from {
                    continue;
                }
                if let Some(page) = from {
                    let count = &mut self.counts[page.index() as usize];
                    *count -= 1;
                    if *count == 0 {
                        self.stray.push(page);
                    }
                }
                if let Some(page) = to {
                    if page.index() >= PAGE_ID_LIMIT {
                        refused = Some(EncodeError::PageOutOfRange { page });
                        break 'rows;
                    }
                    let p = fit_page(&mut self.templates, &mut self.counts, page);
                    self.counts[p] += 1;
                    if self.counts[p] == 1 && self.templates[p].is_none() {
                        new.push(page);
                    }
                }
            }
        }
        // Encode the pages new to the grid before touching a cell, so a
        // refusal leaves the cache on its previous plan, its counts
        // taken again from that plan's cells.
        if let Some(e) = refused.map_or_else(|| self.admit(&new, channels, payloads).err(), Some) {
            self.counts.fill(0);
            for page in self.pages.iter().flatten() {
                self.counts[page.index() as usize] += 1;
            }
            // Templates encoded before the refusal stay, as strays.
            self.stray.extend(new);
            return Err(e);
        }
        let mut grid = if reshape {
            vec![None; rows.len() * width]
        } else {
            std::mem::take(&mut self.pages)
        };
        for ((row, cells), _) in rows
            .iter()
            .zip(grid.chunks_mut(width))
            .zip(&changed)
            .filter(|(_, &changed)| changed)
        {
            match row.cells {
                Some(row) => cells.copy_from_slice(row),
                None => cells.fill(None),
            }
        }
        self.row_keys.clear();
        self.row_keys.extend(rows.iter().map(PlanRow::key));
        self.pages = grid;
        // Every template may have lost its cells in a re-shape; otherwise
        // only the strays and the pages whose count fell to 0 can have.
        let mut emptied = false;
        let every = if reshape { self.templates.len() } else { 0 };
        let mut stray = std::mem::take(&mut self.stray);
        for p in (0..every).chain(stray.iter().map(|page| page.index() as usize)) {
            if self.counts[p] != 0 {
                continue;
            }
            if let Some(template) = self.templates[p].take() {
                let table = &mut self.tables[template.table as usize];
                table.users -= 1;
                emptied |= table.users == 0;
                self.dead += template.len as usize;
            }
        }
        if 2 * self.dead > self.images.len() {
            self.pack_images();
        }
        stray.clear();
        self.stray = stray;
        while matches!(self.templates.last(), Some(None)) {
            self.templates.pop();
            self.counts.pop();
        }
        if emptied {
            self.drop_unused_tables();
        }
        self.channels = channels;
        self.cycle_len = cycle_len;
        Ok(())
    }

    /// The admit loop: encodes a template for every page of `pages` that
    /// has none yet, pulling its payload once, and sizes every delta
    /// table's channel patches for at least `channels` channels. The
    /// image arena grows once, by the number of pages times the first
    /// image's length, rather than by doubling: a first build takes one
    /// block for all its images, which a process building cache after
    /// cache of several megabytes does not page-fault back in each time
    /// (DESIGN §13.3). Templates encoded before a refusal stay: each is
    /// a function of its page alone.
    fn admit<P: CyclicPayloads>(
        &mut self,
        pages: &[PageId],
        channels: u32,
        payloads: &mut P,
    ) -> Result<(), EncodeError> {
        if let Some(top) = channels.checked_sub(1).filter(|&c| c > MAX_CHANNEL_INDEX) {
            return Err(EncodeError::ChannelOutOfRange {
                channel: ChannelId::new(top),
            });
        }
        let mut img = BytesMut::new();
        let mut reserve = pages.len().saturating_sub(1);
        for &page in pages {
            if page.index() >= PAGE_ID_LIMIT {
                return Err(EncodeError::PageOutOfRange { page });
            }
            let p = fit_page(&mut self.templates, &mut self.counts, page);
            if self.templates[p].is_some() {
                continue;
            }
            let template = encode_template(
                &mut self.tables,
                &mut img,
                &mut self.images,
                Some(page),
                |out| payloads.page_payload(page, out),
            )?;
            self.images
                .reserve(std::mem::take(&mut reserve) * template.len as usize);
            self.templates[p] = Some(template);
        }
        for table in &mut self.tables {
            if table.channel.len() < channels as usize {
                table.channel = channel_deltas(table.tail_len, channels);
            }
        }
        Ok(())
    }

    /// Packs the image arena to the images templates hold, the idle one
    /// included.
    fn pack_images(&mut self) {
        let old = std::mem::take(&mut self.images);
        self.images = Vec::with_capacity(old.len() - self.dead);
        for t in self.templates.iter_mut().flatten().chain([&mut self.idle]) {
            let off = self.images.len();
            self.images
                .extend_from_slice(&old[t.off..t.off + t.len as usize]);
            t.off = off;
        }
        self.dead = 0;
    }

    /// Drops the delta tables no template uses any more: payload lengths
    /// that left the grid with their pages.
    fn drop_unused_tables(&mut self) {
        let used: Vec<bool> = self.tables.iter().map(|t| t.users > 0).collect();
        let mut remap = Vec::with_capacity(used.len());
        let mut next = 0u32;
        for &u in &used {
            remap.push(next);
            next += u32::from(u);
        }
        let mut keep = used.iter();
        self.tables
            .retain(|_| *keep.next().expect("one flag per table"));
        for t in self.templates.iter_mut().flatten().chain([&mut self.idle]) {
            t.table = remap[t.table as usize];
        }
    }

    /// Channels of the cached plan.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Cycle length of the cached plan.
    #[must_use]
    pub fn cycle_len(&self) -> u64 {
        self.cycle_len
    }

    /// Wire images held: one per page on the grid (and per page an off-plan
    /// column admitted since the last retarget) plus the idle template.
    #[must_use]
    pub fn template_count(&self) -> usize {
        self.templates.iter().flatten().count() + 1
    }

    /// Distinct delta tables held (one per distinct payload length).
    #[must_use]
    pub fn delta_table_count(&self) -> usize {
        self.tables.len()
    }

    /// Slots whose column disagreed with the cached plan (a page outside
    /// its cell, or a different width). Each was served from templates
    /// once the pages it lacked were admitted, unless one was refused.
    #[must_use]
    pub fn off_plan_slots(&self) -> u64 {
        self.off_plan_slots
    }

    /// The cached plan's page for `channel` at `slot_time`.
    #[must_use]
    pub fn page_at(&self, channel: u32, slot_time: u64) -> Option<PageId> {
        let col = slot_time % self.cycle_len;
        self.pages[self.cell_index(channel as usize, col)]
    }

    fn cell_index(&self, ch: usize, col: u64) -> usize {
        ch * usize::try_from(self.cycle_len).expect("cycle fits in memory")
            + usize::try_from(col).expect("column fits in memory")
    }

    /// Computes each table's slot delta once per slot, shared by every
    /// template of the same payload length in the column.
    fn prepare_slot(&mut self, slot_time: u64) {
        let slot_bytes = slot_time.to_be_bytes();
        self.delta_scratch.clear();
        for table in &self.tables {
            self.delta_scratch.push(table.slot.delta(slot_bytes));
        }
    }

    /// The template a cell airs: its page's, or the idle one.
    fn template_of(&self, page: Option<PageId>) -> &Template {
        page.map_or(&self.idle, |p| {
            self.templates[p.index() as usize]
                .as_ref()
                .expect("every page on the air has a template")
        })
    }

    /// Appends one template's image on channel `ch` with `slot_time` and
    /// the CRC patched.
    fn emit(&self, t: &Template, ch: usize, slot_bytes: [u8; 8], buf: &mut BytesMut) {
        let at = buf.len();
        buf.extend_from_slice(&self.images[t.off..t.off + t.len as usize]);
        let out = &mut buf[at..];
        let wire_ch = u16::try_from(ch).expect("admit bounds the channel count");
        out[CHANNEL_OFFSET..CHANNEL_OFFSET + 2].copy_from_slice(&wire_ch.to_be_bytes());
        out[SLOT_TIME_OFFSET..SLOT_TIME_OFFSET + 8].copy_from_slice(&slot_bytes);
        let table = t.table as usize;
        let crc = t.base_crc ^ self.delta_scratch[table] ^ self.tables[table].channel[ch];
        out[CRC_OFFSET..CRC_OFFSET + 2].copy_from_slice(&crc.to_be_bytes());
    }

    /// Whether every page `on_air` names is the cached plan's page in its
    /// cell. A `None` cell always agrees.
    fn on_plan(&self, on_air: &[Option<PageId>], slot_time: u64) -> bool {
        let col = slot_time % self.cycle_len;
        on_air.len() == self.channels as usize
            && on_air
                .iter()
                .enumerate()
                .all(|(ch, &page)| page.is_none() || self.pages[self.cell_index(ch, col)] == page)
    }

    /// Encodes one live slot (e.g. a station's `TickOutcome::on_air`) by
    /// patching cached templates, appending every frame (idle carriers
    /// included) to `buf`. Returns the bytes appended. Bit-identical to
    /// [`crate::transmitter::encode_slot_into`] over the same payloads.
    ///
    /// A `None` cell airs the idle template whatever the plan holds there
    /// — that is exactly what a stalled or down channel transmits — so
    /// stalls and outages need no retarget. A column that disagrees with
    /// the cached plan is served too: its pages that have no template are
    /// encoded first, pulling each payload once, and the slot is counted
    /// in [`FrameTemplateCache::off_plan_slots`].
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when a page the column needs cannot be
    /// encoded (its payload is too large, or its id is at or above
    /// [`PAGE_ID_LIMIT`]) or the column is wider than the wire's channel
    /// field. The refusal comes before anything is appended.
    pub fn encode_slot_into<P: CyclicPayloads>(
        &mut self,
        on_air: &[Option<PageId>],
        slot_time: u64,
        payloads: &mut P,
        buf: &mut BytesMut,
    ) -> Result<usize, EncodeError> {
        if !self.on_plan(on_air, slot_time) {
            self.off_plan_slots += 1;
            let width = u32::try_from(on_air.len()).expect("channel fits in u32");
            let column: Vec<PageId> = on_air.iter().flatten().copied().collect();
            let result = self.admit(&column, width, payloads);
            // Every page of the column without a cell on the plan is a
            // stray: its template goes at the next retarget.
            for &page in on_air.iter().flatten() {
                if self.counts.get(page.index() as usize) == Some(&0) {
                    self.stray.push(page);
                }
            }
            result?;
        }
        Ok(self.emit_column(on_air, slot_time, buf))
    }

    /// Appends every frame of `on_air`, each page's from its template.
    /// Returns the bytes appended. Kept apart from the generic
    /// [`FrameTemplateCache::encode_slot_into`] so the per-frame loop is
    /// compiled once, in this crate.
    fn emit_column(
        &mut self,
        on_air: &[Option<PageId>],
        slot_time: u64,
        buf: &mut BytesMut,
    ) -> usize {
        self.prepare_slot(slot_time);
        let slot_bytes = slot_time.to_be_bytes();
        let start = buf.len();
        for (ch, &page) in on_air.iter().enumerate() {
            self.emit(self.template_of(page), ch, slot_bytes, buf);
        }
        buf.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{crc16, Frame, CRC16_LANE_SHIFT, CRC16_SLICES, LANE, MAX_PAYLOAD};
    use crate::transmitter::{encode_slot_into, FrameStream};
    use airsched_core::group::GroupLadder;
    use airsched_core::program::BroadcastProgram;
    use airsched_core::susc;
    use airsched_core::types::{GridPos, SlotIndex};

    /// Deterministic per-page payload with per-page lengths (so several
    /// delta tables coexist).
    struct TestPayloads;

    impl CyclicPayloads for TestPayloads {
        fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
            let len = (page.index() as usize * 7) % 41;
            for i in 0..len {
                out.extend_from_slice(&[(page.index() as u8)
                    .wrapping_mul(31)
                    .wrapping_add(i as u8)]);
            }
        }
    }

    fn program() -> BroadcastProgram {
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        susc::schedule(&ladder, 2).unwrap()
    }

    /// `program`'s rows with their versions, as a station hands them over.
    fn rows(program: &BroadcastProgram) -> Vec<PlanRow<'_>> {
        (0..program.channels())
            .map(|ch| PlanRow {
                cells: Some(program.row_cells(ch)),
                version: program.row_version(ch),
            })
            .collect()
    }

    /// Retargets `cache` onto a hand-made channel-major grid: the rows of
    /// a program built from it, each under a fresh version.
    fn retarget_to<P: CyclicPayloads>(
        cache: &mut FrameTemplateCache,
        channels: u32,
        cycle_len: u64,
        cells: &[Option<PageId>],
        payloads: &mut P,
    ) -> Result<(), EncodeError> {
        let program = BroadcastProgram::from_cells(channels, cycle_len, cells).unwrap();
        cache.retarget(cycle_len, &rows(&program), payloads)
    }

    /// A new cache retargeted once onto a hand-made grid.
    fn grid_cache<P: CyclicPayloads>(
        channels: u32,
        cycle_len: u64,
        cells: &[Option<PageId>],
        payloads: &mut P,
    ) -> Result<FrameTemplateCache, EncodeError> {
        let mut cache = FrameTemplateCache::new();
        retarget_to(&mut cache, channels, cycle_len, cells, payloads)?;
        Ok(cache)
    }

    /// A new cache retargeted once onto `program`.
    fn program_cache(program: &BroadcastProgram) -> FrameTemplateCache {
        let mut cache = FrameTemplateCache::new();
        cache
            .retarget(program.cycle_len(), &rows(program), &mut TestPayloads)
            .unwrap();
        cache
    }

    #[test]
    fn crc_byte_table_is_gf2_linear() {
        // The whole delta argument rests on T[a ^ b] == T[a] ^ T[b].
        for a in 0u16..=255 {
            for b in 0u16..=255 {
                assert_eq!(
                    CRC16_TABLE[usize::from(a ^ b)],
                    CRC16_TABLE[usize::from(a)] ^ CRC16_TABLE[usize::from(b)],
                    "a={a:#04x} b={b:#04x}"
                );
            }
        }
    }

    #[test]
    fn delta_matches_crc_difference_of_real_messages() {
        // crc(m1) ^ crc(m2) == delta(slot1 ^ slot2) for messages that
        // differ only in the 8 slot bytes, across several tail lengths.
        let mut rng_state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for tail_len in [0usize, 1, 6, 22, 70, 512] {
            let table = DeltaTable::new(tail_len);
            for _ in 0..8 {
                let prefix: Vec<u8> = (0..SLOT_TIME_OFFSET).map(|_| next() as u8).collect();
                let tail: Vec<u8> = (0..tail_len).map(|_| next() as u8).collect();
                let s1 = next().to_be_bytes();
                let s2 = next().to_be_bytes();
                let msg = |s: [u8; 8]| {
                    let mut m = prefix.clone();
                    m.extend_from_slice(&s);
                    m.extend_from_slice(&tail);
                    m
                };
                let mut xor = [0u8; 8];
                for (x, (a, b)) in xor.iter_mut().zip(s1.iter().zip(s2.iter())) {
                    *x = a ^ b;
                }
                assert_eq!(
                    crc16(&msg(s1), b"") ^ crc16(&msg(s2), b""),
                    table.delta(xor),
                    "tail_len={tail_len}"
                );
            }
        }
    }

    #[test]
    fn delta_table_golden_vectors() {
        // Pinned against an independent implementation, next to the CRC
        // goldens in `frame`. tail_len 6 is an idle frame, 22 a 16-byte
        // payload, 70 a 64-byte payload.
        let t6 = DeltaTable::new(6);
        let t22 = DeltaTable::new(22);
        let t70 = DeltaTable::new(70);
        assert_eq!(DeltaTable::new(0).entry(7, 0x01), 0x1021); // = T[1]
        assert_eq!(t6.entry(0, 0x01), 0x7B61);
        assert_eq!(t6.entry(7, 0x01), 0xB861);
        assert_eq!(t6.entry(7, 0xFF), 0xA571);
        assert_eq!(t6.entry(3, 0xA5), 0xAADE);
        assert_eq!(t6.delta(1u64.to_be_bytes()), 0xB861);
        assert_eq!(t6.delta(0xDEAD_BEEFu64.to_be_bytes()), 0xCA77);
        assert_eq!(t22.entry(0, 0x01), 0x091F);
        assert_eq!(t22.entry(7, 0x01), 0x650B);
        assert_eq!(t22.entry(7, 0xFF), 0x31F8);
        assert_eq!(t22.entry(3, 0xA5), 0xDE36);
        assert_eq!(t22.delta(1u64.to_be_bytes()), 0x650B);
        assert_eq!(t22.delta(0xDEAD_BEEFu64.to_be_bytes()), 0x54B5);
        assert_eq!(t70.entry(0, 0x01), 0x9C98);
        assert_eq!(t70.entry(7, 0x01), 0x8832);
        assert_eq!(t70.entry(7, 0xFF), 0x9671);
        assert_eq!(t70.entry(3, 0xA5), 0xEB24);
        assert_eq!(t70.delta(1u64.to_be_bytes()), 0x8832);
        assert_eq!(t70.delta(0xDEAD_BEEFu64.to_be_bytes()), 0xECFD);
        // The zero XOR never changes a checksum.
        assert_eq!(t6.delta([0; 8]), 0);
        assert_eq!(t70.delta([0; 8]), 0);
    }

    #[test]
    fn zero_tail_operator_is_the_crc_slice_tables() {
        // Row `pos` of the operator over `tail` bytes is a byte followed
        // by `7 - pos + tail` zero bytes: the same operator the two-lane
        // `crc16` folds each 16-byte chunk with (tails 0 and 8) and merges
        // its lanes through (tail `LANE - 8`, rows 0 and 1).
        let (low, high) = (DeltaTable::new(0), DeltaTable::new(8));
        let shift = DeltaTable::new(LANE - 8);
        for v in 0..=255u8 {
            let x = usize::from(v);
            for pos in 0..8 {
                let at = format!("pos {pos} value {v:#04x}");
                assert_eq!(low.entry(pos, v), CRC16_SLICES[7 - pos][x], "{at}");
                assert_eq!(high.entry(pos, v), CRC16_SLICES[15 - pos][x], "{at}");
            }
            for (row, merge) in CRC16_LANE_SHIFT.iter().enumerate() {
                assert_eq!(
                    shift.entry(row, v),
                    merge[x],
                    "merge row {row} value {v:#04x}"
                );
            }
        }
    }

    /// The plan's own column for `slot_time`.
    fn column(p: &BroadcastProgram, slot_time: u64) -> Vec<Option<PageId>> {
        let col = SlotIndex::new(slot_time % p.cycle_len());
        (0..p.channels())
            .map(|ch| p.page_at(GridPos::new(ChannelId::new(ch), col)))
            .collect()
    }

    #[test]
    fn cycle_slots_match_fresh_framestream_encoding() {
        let p = program();
        let mut cache = program_cache(&p);
        let slots = 3 * p.cycle_len();
        let mut stream = FrameStream::new(&p, TestPayloads);
        let mut buf = BytesMut::new();
        for slot_time in 0..slots {
            buf.clear();
            let written = cache
                .encode_slot_into(
                    &column(&p, slot_time),
                    slot_time,
                    &mut TestPayloads,
                    &mut buf,
                )
                .unwrap();
            assert_eq!(written, buf.len());
            let mut expected = Vec::new();
            for _ in 0..p.channels() {
                let frame = stream.next().unwrap();
                assert_eq!(frame.slot_time, slot_time);
                expected.extend_from_slice(&frame.encode());
            }
            assert_eq!(&buf[..], &expected[..], "slot {slot_time}");
        }
        assert_eq!(cache.off_plan_slots(), 0);
    }

    #[test]
    fn live_slots_match_fresh_encoder_including_stalls() {
        let p = program();
        let mut cache = program_cache(&p);
        let mut buf = BytesMut::new();
        let mut fresh = BytesMut::new();
        // Far-future slot times exercise all 8 slot bytes.
        for slot_time in [0u64, 1, 7, 1 << 35, u64::MAX - 1, u64::MAX] {
            let mut on_air = column(&p, slot_time);
            // A stalled channel airs idle regardless of the plan.
            on_air[1] = None;
            buf.clear();
            cache
                .encode_slot_into(&on_air, slot_time, &mut TestPayloads, &mut buf)
                .unwrap();
            fresh.clear();
            encode_slot_into(&on_air, slot_time, &mut TestPayloads, &mut fresh).unwrap();
            assert_eq!(&buf[..], &fresh[..], "slot {slot_time}");
            // Each frame decodes with a valid checksum.
            let (frames, used) = crate::frame::decode_stream(&buf);
            assert_eq!(used, buf.len());
            assert_eq!(frames.len(), p.channels() as usize);
        }
    }

    #[test]
    fn a_column_of_another_width_is_served_from_templates() {
        let p = program();
        let mut cache = program_cache(&p);
        let (a, b) = (Some(PageId::new(1)), Some(PageId::new(40)));
        let mut buf = BytesMut::new();
        let mut fresh = BytesMut::new();
        for on_air in [vec![a, None, b], vec![b], vec![None; 3]] {
            buf.clear();
            cache
                .encode_slot_into(&on_air, 1 << 20, &mut TestPayloads, &mut buf)
                .unwrap();
            fresh.clear();
            encode_slot_into(&on_air, 1 << 20, &mut TestPayloads, &mut fresh).unwrap();
            assert_eq!(&buf[..], &fresh[..], "column {on_air:?}");
        }
        assert_eq!(cache.off_plan_slots(), 3);
        // A narrower or wider column leaves the cached plan as it was.
        assert_eq!(cache.channels(), p.channels());
        // An id beyond the limit would size the page table at ~4G entries:
        // it is refused, and nothing is appended.
        buf.clear();
        let huge = PageId::new(u32::MAX);
        let err = cache
            .encode_slot_into(&[None, Some(huge)], 0, &mut TestPayloads, &mut buf)
            .unwrap_err();
        assert_eq!(err, EncodeError::PageOutOfRange { page: huge });
        assert!(err.to_string().contains("page id limit"));
        assert!(buf.is_empty());
    }

    #[test]
    fn idle_only_column_patches_cleanly() {
        let mut cache = grid_cache(3, 4, &[None; 12], &mut TestPayloads).unwrap();
        let mut buf = BytesMut::new();
        let written = cache
            .encode_slot_into(
                &[None, None, None],
                123_456_789,
                &mut TestPayloads,
                &mut buf,
            )
            .unwrap();
        assert_eq!(written, 3 * HEADER_LEN);
        let (frames, used) = crate::frame::decode_stream(&buf);
        assert_eq!(used, buf.len());
        for (ch, frame) in frames.iter().enumerate() {
            assert!(frame.is_idle());
            assert_eq!(frame.slot_time, 123_456_789);
            assert_eq!(frame.channel, ChannelId::new(u32::try_from(ch).unwrap()));
        }
        assert_eq!(cache.template_count(), 1); // one idle template for all channels
        assert_eq!(cache.delta_table_count(), 1);
    }

    #[test]
    fn templates_are_deduped_across_the_cycle() {
        let p = program();
        let cache = program_cache(&p);
        // One template per page plus one idle template — not one per cell
        // or per channel.
        assert_eq!(cache.template_count(), p.pages().count() + 1);
    }

    #[test]
    fn retarget_encodes_only_new_pages_and_drops_stale_ones() {
        struct Counted(u64);
        impl CyclicPayloads for Counted {
            fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
                self.0 += 1;
                TestPayloads.page_payload(page, out);
            }
        }
        let (a, b, c) = (
            Some(PageId::new(1)),
            Some(PageId::new(2)),
            Some(PageId::new(3)),
        );
        let mut payloads = Counted(0);
        let mut cache = grid_cache(2, 2, &[a, b, None, a], &mut payloads).expect("grid encodes");
        assert_eq!((payloads.0, cache.template_count()), (2, 3));
        // Pages trade channels and the grid narrows: nothing is encoded.
        let moved = [b, None, a, a, None, b];
        retarget_to(&mut cache, 3, 2, &moved, &mut payloads).unwrap();
        assert_eq!((payloads.0, cache.template_count()), (2, 3));
        // A new page is encoded once; a page that left is dropped, and the
        // delta table of its payload length with it.
        let swapped = [c, None, a, c, None, a];
        retarget_to(&mut cache, 3, 2, &swapped, &mut payloads).unwrap();
        assert_eq!((payloads.0, cache.template_count()), (3, 3));
        assert_eq!(cache.delta_table_count(), 3);
        let mut buf = BytesMut::new();
        let mut fresh = BytesMut::new();
        for slot_time in [0u64, 1, 1 << 40] {
            let col = usize::try_from(slot_time % 2).unwrap();
            let on_air: Vec<Option<PageId>> = (0..3).map(|ch| swapped[ch * 2 + col]).collect();
            buf.clear();
            cache
                .encode_slot_into(&on_air, slot_time, &mut payloads, &mut buf)
                .unwrap();
            fresh.clear();
            encode_slot_into(&on_air, slot_time, &mut TestPayloads, &mut fresh).unwrap();
            assert_eq!(&buf[..], &fresh[..], "slot {slot_time}");
        }
        assert_eq!(payloads.0, 3, "an on-plan column pulls nothing");
    }

    #[test]
    fn the_image_arena_is_packed_as_pages_come_and_go() {
        // Each retarget drops one page's image and encodes the next one's,
        // at lengths that differ page by page.
        let page = |p: u32| Some(PageId::new(p));
        let mut cache = grid_cache(1, 2, &[page(0), page(1)], &mut TestPayloads).unwrap();
        let (mut buf, mut fresh) = (BytesMut::new(), BytesMut::new());
        for next in 2u32..64 {
            let cells = [page(next - 1), page(next)];
            retarget_to(&mut cache, 1, 2, &cells, &mut TestPayloads).unwrap();
            let held: usize = cache
                .templates
                .iter()
                .flatten()
                .chain([&cache.idle])
                .map(|t| t.len as usize)
                .sum();
            assert_eq!(cache.images.len(), held + cache.dead);
            assert!(
                cache.dead <= held,
                "packed once dead bytes outnumber held ones"
            );
            for (slot_time, cell) in (2 * u64::from(next)..).zip(cells) {
                buf.clear();
                cache
                    .encode_slot_into(&[cell], slot_time, &mut TestPayloads, &mut buf)
                    .unwrap();
                fresh.clear();
                encode_slot_into(&[cell], slot_time, &mut TestPayloads, &mut fresh).unwrap();
                assert_eq!(&buf[..], &fresh[..], "slot {slot_time}");
            }
        }
        assert_eq!(cache.off_plan_slots(), 0);
    }

    #[test]
    fn refused_retarget_keeps_the_previous_plan() {
        struct HugeFor(u32);
        impl CyclicPayloads for HugeFor {
            fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
                let len = if page.index() == self.0 {
                    MAX_PAYLOAD + 1
                } else {
                    4
                };
                out.extend_from_slice(&vec![7u8; len]);
            }
        }
        let mut payloads = HugeFor(9);
        let cells = [Some(PageId::new(1)), None];
        let mut cache = grid_cache(1, 2, &cells, &mut payloads).unwrap();
        let err =
            retarget_to(&mut cache, 1, 1, &[Some(PageId::new(9))], &mut payloads).unwrap_err();
        assert!(matches!(err, EncodeError::PayloadTooLarge { .. }));
        assert_eq!((cache.cycle_len(), cache.page_at(0, 0)), (2, cells[0]));
        let mut buf = BytesMut::new();
        cache
            .encode_slot_into(&cells[..1], 0, &mut payloads, &mut buf)
            .unwrap();
        let mut fresh = BytesMut::new();
        encode_slot_into(&cells[..1], 0, &mut payloads, &mut fresh).unwrap();
        assert_eq!(&buf[..], &fresh[..]);
    }

    #[test]
    fn wide_channel_and_oversize_payload_are_refused_at_build() {
        struct Huge;
        impl CyclicPayloads for Huge {
            fn page_payload(&mut self, _page: PageId, out: &mut BytesMut) {
                out.extend_from_slice(&vec![0u8; MAX_PAYLOAD + 1]);
            }
        }
        let cells = vec![Some(PageId::new(0))];
        let err = grid_cache(1, 1, &cells, &mut Huge).unwrap_err();
        assert!(matches!(err, EncodeError::PayloadTooLarge { .. }));
        // Channel 65536 cannot be named on the wire; the grid build fails
        // before any emit can truncate it.
        let wide = u64::from(u16::MAX) + 2;
        let cells = vec![None; usize::try_from(wide).unwrap()];
        let err =
            grid_cache(u32::try_from(wide).unwrap(), 1, &cells, &mut TestPayloads).unwrap_err();
        assert!(matches!(err, EncodeError::ChannelOutOfRange { .. }));
    }

    #[test]
    fn patched_frames_equal_fresh_frames_at_max_payload_edge() {
        struct MaxPayload;
        impl CyclicPayloads for MaxPayload {
            fn page_payload(&mut self, page: PageId, out: &mut BytesMut) {
                let byte = page.index() as u8;
                out.extend_from_slice(&vec![byte ^ 0x5A; MAX_PAYLOAD]);
            }
        }
        let cells = vec![Some(PageId::new(1)), Some(PageId::new(2))];
        let mut cache = grid_cache(1, 2, &cells, &mut MaxPayload).unwrap();
        let mut buf = BytesMut::new();
        for slot_time in [1u64, u64::MAX] {
            let col = slot_time % 2;
            let page = cells[usize::try_from(col).unwrap()].unwrap();
            buf.clear();
            cache
                .encode_slot_into(&[Some(page)], slot_time, &mut MaxPayload, &mut buf)
                .unwrap();
            let mut payload = BytesMut::new();
            MaxPayload.page_payload(page, &mut payload);
            let expected =
                Frame::data(ChannelId::new(0), slot_time, page, payload.freeze()).encode();
            assert_eq!(&buf[..], &expected[..], "slot {slot_time}");
        }
    }
}
