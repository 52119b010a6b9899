//! Sampled slot span trees and the Chrome trace-event exporter.
//!
//! Every Nth slot (the sampling contract lives in [`crate::TraceConfig`])
//! captures its full span tree as a flat preorder list of [`SpanRec`]s.
//! Trees are kept in a bounded ring ([`SlotRing`]) and exported as Chrome
//! trace-event JSON (`B`/`E` duration pairs) loadable in Perfetto or
//! `chrome://tracing`.
//!
//! # Determinism
//!
//! Span *structure* — names, nesting, thread ids, slot numbers — is a pure
//! function of the simulation and therefore deterministic.  Wall-clock
//! `ts`/`dur` values are the documented exception (like `duration_us` in
//! the flight recorder).  The renderer's *normalized* mode replaces them
//! with synthetic timestamps derived from the global preorder index, which
//! makes the entire document byte-deterministic for golden tests.

use std::collections::VecDeque;

use crate::phase::Phase;

/// What a span represents; the name/thread-id of the exported event is
/// derived from this, so records stay allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole-slot root span (carries the slot number).
    Slot(u64),
    /// One pipeline phase.
    Phase(Phase),
}

impl SpanKind {
    /// The trace-event `name` for this span.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Slot(_) => "slot",
            SpanKind::Phase(p) => p.name(),
        }
    }
}

/// One recorded span: kind plus position in the tree and on the clock.
///
/// `start_ns` is nanoseconds since the owning [`crate::Trace`]'s epoch.
/// `depth` encodes the tree: a span's children are the records that
/// immediately follow it with a strictly greater depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// What this span measures.
    pub kind: SpanKind,
    /// Nesting depth (0 = slot root).
    pub depth: u8,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Measured duration, nanoseconds.
    pub dur_ns: u64,
}

/// The captured span tree for one sampled slot (preorder).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlotTrace {
    /// The slot this tree describes.
    pub slot: u64,
    /// Spans in preorder; see [`SpanRec::depth`] for the tree encoding.
    pub spans: Vec<SpanRec>,
}

/// Bounded ring of the most recent sampled slot traces.
#[derive(Debug, Clone, Default)]
pub struct SlotRing {
    entries: VecDeque<SlotTrace>,
    capacity: usize,
}

impl SlotRing {
    /// Creates an empty ring holding at most `capacity` slots.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlotRing {
            entries: VecDeque::with_capacity(capacity.min(64)),
            capacity: capacity.max(1),
        }
    }

    /// Appends a captured tree, evicting the oldest when full.  A tree
    /// for a slot already at the tail is merged, so late producers —
    /// journal, checkpoint — extend the station's tree.  Every tree
    /// stays preorder with its root first: a rooted tree merging into
    /// spans recorded ahead of it goes in front of them, and they
    /// become children of its root.
    pub fn push(&mut self, mut trace: SlotTrace) {
        if let Some(back) = self.entries.back_mut() {
            if back.slot == trace.slot {
                if trace.spans.first().is_some_and(|s| s.depth == 0) {
                    std::mem::swap(&mut back.spans, &mut trace.spans);
                }
                back.spans.extend(trace.spans);
                return;
            }
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(trace);
    }

    /// Appends a single span to the tree for `slot`, creating the tree
    /// if this slot has none yet (a producer may fire before the station
    /// commits the slot root).
    pub fn push_span(&mut self, slot: u64, span: SpanRec) {
        if let Some(entry) = self.entries.iter_mut().rev().find(|e| e.slot == slot) {
            entry.spans.push(span);
            return;
        }
        self.push(SlotTrace {
            slot,
            spans: vec![span],
        });
    }

    /// Captured trees, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SlotTrace> {
        self.entries.iter()
    }

    /// Number of trees currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no slot has been captured yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Formats a nanosecond offset as microseconds with three decimals
/// (Chrome's `ts`/`dur` unit is microseconds; the fraction keeps full
/// nanosecond precision).
fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Appends one event on the pipeline lane, after a separator (the
/// thread-name metadata event always comes first).
fn push_event(out: &mut String, name: &str, ph: char, ts_ns: u64, args: Option<(&str, u64)>) {
    out.push_str(",\n{\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"cat\":\"airsched\",\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"ts\":");
    out.push_str(&format_us(ts_ns));
    out.push_str(",\"pid\":1,\"tid\":1");
    if let Some((key, value)) = args {
        out.push_str(",\"args\":{\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&value.to_string());
        out.push('}');
    }
    out.push('}');
}

/// Per-span `(start, end)` timestamps for one tree, either wall-clock or
/// normalized from the running preorder `counter` (1 µs per index, spans
/// closing 100 ns before the next index so nesting stays strict).
fn span_times(spans: &[SpanRec], normalize: bool, counter: &mut u64) -> Vec<(u64, u64)> {
    if !normalize {
        return spans
            .iter()
            .map(|s| (s.start_ns, s.start_ns.saturating_add(s.dur_ns)))
            .collect();
    }
    let base = *counter;
    *counter += spans.len() as u64;
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut last = i;
            while last + 1 < spans.len() && spans[last + 1].depth > s.depth {
                last += 1;
            }
            // Deeper spans close a hair earlier so nesting stays strict
            // even when a child's subtree extends to its parent's end.
            (
                (base + i as u64) * 1000,
                (base + last as u64) * 1000 + 900 - 10 * u64::from(s.depth),
            )
        })
        .collect()
}

fn span_args(kind: SpanKind) -> Option<(&'static str, u64)> {
    match kind {
        SpanKind::Slot(slot) => Some(("slot", slot)),
        SpanKind::Phase(_) => None,
    }
}

/// Emits spans `[i..]` at `depth` as balanced `B`/`E` pairs; returns the
/// index one past the emitted subtree run.
fn emit_spans(
    out: &mut String,
    spans: &[SpanRec],
    times: &[(u64, u64)],
    mut i: usize,
    depth: u8,
) -> usize {
    while i < spans.len() && spans[i].depth == depth {
        let span = spans[i];
        push_event(out, span.kind.name(), 'B', times[i].0, span_args(span.kind));
        let next = emit_spans(out, spans, times, i + 1, depth + 1);
        push_event(out, span.kind.name(), 'E', times[i].1, None);
        i = next;
    }
    i
}

/// Renders the captured slot trees as a Chrome trace-event JSON document.
///
/// With `normalize` set, `ts` values are synthesized from the global
/// preorder index (see the module docs), making the output byte-stable
/// across runs — the mode used for golden snapshots.
#[must_use]
pub fn render_chrome(slots: &[SlotTrace], sample_every: u64, normalize: bool) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[\n");

    // Every span runs on one lane, tid 1, named here.
    out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,");
    out.push_str("\"args\":{\"name\":\"slot-pipeline\"}}");

    let mut counter = 0u64;
    for tree in slots {
        let times = span_times(&tree.spans, normalize, &mut counter);
        // A tree normally roots at depth 0, but a slot that only saw
        // out-of-station producers starts at depth 1 — emit from there.
        let base_depth = tree.spans.first().map_or(0, |s| s.depth);
        emit_spans(&mut out, &tree.spans, &times, 0, base_depth);
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"sampleEvery\":");
    out.push_str(&sample_every.to_string());
    out.push_str(",\"normalized\":");
    out.push_str(if normalize { "true" } else { "false" });
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree(slot: u64) -> SlotTrace {
        SlotTrace {
            slot,
            spans: vec![
                SpanRec {
                    kind: SpanKind::Slot(slot),
                    depth: 0,
                    start_ns: 100,
                    dur_ns: 900,
                },
                SpanRec {
                    kind: SpanKind::Phase(Phase::Drain),
                    depth: 1,
                    start_ns: 150,
                    dur_ns: 300,
                },
                SpanRec {
                    kind: SpanKind::Phase(Phase::Deadline),
                    depth: 2,
                    start_ns: 160,
                    dur_ns: 100,
                },
                SpanRec {
                    kind: SpanKind::Phase(Phase::Sync),
                    depth: 1,
                    start_ns: 500,
                    dur_ns: 200,
                },
            ],
        }
    }

    #[test]
    fn ring_bounds_and_merges() {
        let mut ring = SlotRing::new(2);
        ring.push(sample_tree(0));
        ring.push(sample_tree(32));
        ring.push(sample_tree(64));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.iter().next().unwrap().slot, 32);

        // Same-slot push merges instead of evicting.
        let before = ring.iter().last().unwrap().spans.len();
        ring.push(SlotTrace {
            slot: 64,
            spans: vec![SpanRec {
                kind: SpanKind::Phase(Phase::Journal),
                depth: 1,
                start_ns: 800,
                dur_ns: 10,
            }],
        });
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.iter().last().unwrap().spans.len(), before + 1);
    }

    #[test]
    fn push_span_creates_missing_entry() {
        let mut ring = SlotRing::new(4);
        ring.push_span(
            7,
            SpanRec {
                kind: SpanKind::Phase(Phase::Checkpoint),
                depth: 1,
                start_ns: 0,
                dur_ns: 5,
            },
        );
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter().next().unwrap().slot, 7);

        // The station's root lands after the early span, yet leads the
        // tree, so the exporter still opens the slot.
        ring.push(sample_tree(7));
        let spans = &ring.iter().next().unwrap().spans;
        assert_eq!(spans[0].kind, SpanKind::Slot(7));
        assert_eq!(
            spans.last().unwrap().kind,
            SpanKind::Phase(Phase::Checkpoint)
        );
        let doc = render_chrome(&[ring.iter().next().unwrap().clone()], 1, true);
        assert!(doc.contains("\"args\":{\"slot\":7}"), "{doc}");
    }

    #[test]
    fn chrome_events_balance_per_tid() {
        let doc = render_chrome(&[sample_tree(0), sample_tree(32)], 32, false);
        let count = |ph: &str| {
            doc.lines()
                .filter(|l| l.contains(ph) && l.contains("\"tid\":1"))
                .count()
        };
        let b = count("\"ph\":\"B\"");
        assert_eq!(
            b,
            count("\"ph\":\"E\""),
            "unbalanced B/E on the pipeline lane"
        );
        assert_eq!(b, 8, "two trees of four spans each");
        assert!(doc.contains("\"displayTimeUnit\":\"ns\""));
    }

    #[test]
    fn normalized_output_is_input_deterministic() {
        let a = render_chrome(&[sample_tree(0), sample_tree(32)], 32, true);
        let mut other = sample_tree(0);
        for s in &mut other.spans {
            s.start_ns += 12345; // wall-clock noise must not leak through
            s.dur_ns += 99;
        }
        let b = render_chrome(&[other, sample_tree(32)], 32, true);
        assert_eq!(a, b);
        assert!(a.contains("\"ts\":0.000"));
    }

    #[test]
    fn normalized_children_nest_inside_parents() {
        let tree = sample_tree(0);
        let mut counter = 0;
        let times = span_times(&tree.spans, true, &mut counter);
        // Root covers all descendants; a depth-2 child closes before its
        // depth-1 parent.
        assert!(times[0].1 > times[3].1 - 1000);
        assert!(times[2].1 < times[1].1);
        assert!(times[1].1 < times[3].0);
    }

    #[test]
    fn format_us_keeps_ns_precision() {
        assert_eq!(format_us(0), "0.000");
        assert_eq!(format_us(1234), "1.234");
        assert_eq!(format_us(1_000_007), "1000.007");
    }
}
