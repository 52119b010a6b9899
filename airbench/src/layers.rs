//! Per-layer timing from outside: spans around the benchmark's calls into
//! each module's public functions.
//!
//! The slot loop is generic over [`Probe`]. [`Untraced`] compiles every
//! span down to the bare call, so the untraced loop reads the clock only at
//! slot boundaries. [`Tracer`] reads it around every call, folds each
//! span into its layer's samples on every slot, and keeps full span
//! records for every 1,024th slot of the first traced round.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::quantile;

/// Full span records are kept for slots that are multiples of this.
const DUMP_EVERY: u64 = 1024;

/// A timed layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One slot's batch of `subscribe` calls.
    Subscribe,
    /// One expire plus one publish.
    Catalog,
    /// One `tick` call.
    Tick,
    /// One `SlotBroadcaster::encode_slot` call.
    Encode,
    /// Decoding the panel's frames and feeding its receivers.
    Decode,
    /// One `RecoverableStation::checkpoint` call.
    Checkpoint,
    /// One `RecoverableStation::resume` call, between slots.
    Resume,
    /// An encode that rebuilt the template cache (the set-up warm-up, and
    /// tagged in-loop encodes).
    Rebuild,
    /// A tick in whose slot the plan epoch moved (tagged, not a span).
    ReplanTick,
}

impl Layer {
    /// How many layers there are.
    pub const COUNT: usize = 9;

    /// The span name in the dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Subscribe => "station.subscribe",
            Layer::Catalog => "station.catalog",
            Layer::Tick => "station.tick",
            Layer::Encode => "transmit.encode",
            Layer::Decode => "receiver.decode",
            Layer::Checkpoint => "recover.checkpoint",
            Layer::Resume => "recover.resume",
            Layer::Rebuild => "transmit.rebuild",
            Layer::ReplanTick => "station.replan_tick",
        }
    }

    /// Whether the span is a child of a slot span. The rest happen
    /// between slots (resume, set-up) or re-label a child.
    fn in_slot(self) -> bool {
        !matches!(self, Layer::Resume | Layer::Rebuild | Layer::ReplanTick)
    }
}

/// What the slot loop reports to, generic so the untraced loop pays
/// nothing for it.
pub trait Probe {
    /// A slot starts; `timed` is false during warm-up.
    fn slot_begin(&mut self, slot: u64, timed: bool);
    /// Runs `f` as a span of `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    /// Counts the last `from` span once more as a sample of `to`.
    fn tag(&mut self, from: Layer, to: Layer);
    /// The slot that began at `start` ended at `end`.
    fn slot_end(&mut self, slot: u64, start: Instant, end: Instant);
}

/// The untraced probe: no clock reads, no records.
#[derive(Debug, Default)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn slot_begin(&mut self, _slot: u64, _timed: bool) {}

    #[inline(always)]
    fn span<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn tag(&mut self, _from: Layer, _to: Layer) {}

    #[inline(always)]
    fn slot_end(&mut self, _slot: u64, _start: Instant, _end: Instant) {}
}

/// One full span record of the dump.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    layer: Option<Layer>,
    id: u64,
    parent: Option<u64>,
    slot: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One traced round, reduced to per-layer figures.
#[derive(Debug, Clone, Default)]
pub struct LayerRound {
    /// Median span, ns.
    pub p50: [f64; Layer::COUNT],
    /// 99th-percentile span, ns.
    pub p99: [f64; Layer::COUNT],
    /// Total span time, ns.
    pub sum: [f64; Layer::COUNT],
    /// Slot-span time not covered by child spans, per timed slot, ns.
    pub self_ns_per_slot: f64,
}

/// The traced probe.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    samples: [Vec<u32>; Layer::COUNT],
    last: [u32; Layer::COUNT],
    timed: bool,
    children_ns: u64,
    self_ns: u64,
    self_slots: u64,
    /// Id of the current slot span when the slot is dumped.
    dumped_slot: Option<u64>,
    /// Span records of the first traced round; `None` once it is over.
    dump: Option<Vec<SpanRecord>>,
    kept: Vec<SpanRecord>,
    next_id: u64,
    slot: u64,
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer whose dump buffer holds `slots` slots' worth of spans.
    pub fn new(slots: u64) -> Self {
        let dumped = usize::try_from(slots / DUMP_EVERY + 1).unwrap_or(0);
        Tracer {
            epoch: Instant::now(),
            samples: Default::default(),
            last: [0; Layer::COUNT],
            timed: false,
            children_ns: 0,
            self_ns: 0,
            self_slots: 0,
            dumped_slot: None,
            // Room for a slot span, its children and one resume.
            dump: Some(Vec::with_capacity(dumped * 8)),
            kept: Vec::new(),
            next_id: 0,
            slot: 0,
        }
    }

    fn record(&mut self, layer: Option<Layer>, parent: Option<u64>, start: Instant, end: Instant) {
        if let Some(dump) = self.dump.as_mut() {
            dump.push(SpanRecord {
                layer,
                id: self.next_id,
                parent,
                slot: self.slot,
                start_ns: ns_between(self.epoch, start),
                end_ns: ns_between(self.epoch, end),
            });
            self.next_id += 1;
        }
    }

    /// Reduces the round's samples to per-layer figures and ends the span
    /// dump after the first traced round.
    pub fn finish_round(&mut self) -> LayerRound {
        let mut out = LayerRound::default();
        for (i, samples) in self.samples.iter_mut().enumerate() {
            out.sum[i] = samples.iter().map(|&v| f64::from(v)).sum();
            out.p50[i] = f64::from(quantile(samples, 0.50));
            out.p99[i] = f64::from(quantile(samples, 0.99));
            samples.clear();
        }
        out.self_ns_per_slot = if self.self_slots == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.self_slots as f64
        };
        self.self_ns = 0;
        self.self_slots = 0;
        self.slot = 0;
        if let Some(dump) = self.dump.take() {
            self.kept = dump;
        }
        out
    }

    /// Writes the kept span records as JSON lines: one object per span
    /// with its name, id, parent id, slot, and start and end in ns since
    /// the tracer started.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.kept {
            let parent = r
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"slot\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.layer.map_or("slot", Layer::name),
                r.id,
                parent,
                r.slot,
                r.start_ns,
                r.end_ns
            )?;
        }
        out.flush()?;
        Ok(self.kept.len())
    }
}

impl Probe for Tracer {
    fn slot_begin(&mut self, slot: u64, timed: bool) {
        self.slot = slot;
        self.timed = timed;
        self.children_ns = 0;
        self.dumped_slot = None;
        if self.dump.is_some() && slot.is_multiple_of(DUMP_EVERY) {
            self.dumped_slot = Some(self.next_id);
            self.next_id += 1;
        }
    }

    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let ns = ns_between(start, end);
        let sample = u32::try_from(ns).unwrap_or(u32::MAX);
        self.last[layer as usize] = sample;
        if layer.in_slot() {
            self.children_ns += ns;
            if self.timed {
                self.samples[layer as usize].push(sample);
            }
            if let Some(parent) = self.dumped_slot {
                self.record(Some(layer), Some(parent), start, end);
            }
        } else {
            self.samples[layer as usize].push(sample);
            self.record(Some(layer), None, start, end);
        }
        r
    }

    fn tag(&mut self, from: Layer, to: Layer) {
        if self.timed {
            self.samples[to as usize].push(self.last[from as usize]);
        }
    }

    fn slot_end(&mut self, slot: u64, start: Instant, end: Instant) {
        if self.timed {
            self.self_ns += ns_between(start, end).saturating_sub(self.children_ns);
            self.self_slots += 1;
        }
        if let (Some(id), Some(dump)) = (self.dumped_slot, self.dump.as_mut()) {
            dump.push(SpanRecord {
                layer: None,
                id,
                parent: None,
                slot,
                start_ns: ns_between(self.epoch, start),
                end_ns: ns_between(self.epoch, end),
            });
        }
    }
}
