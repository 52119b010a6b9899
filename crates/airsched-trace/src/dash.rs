//! Snapshot types and renderers for the `airsched top` dashboard.
//!
//! [`TraceSnapshot`] is a point-in-time copy of everything the tracer
//! knows (phase histograms, SLO burn state); pairing it
//! with a [`DashContext`] (station-level counters the tracer does not
//! own) yields either an ANSI text frame or a JSON object for scripting.
//! Rendering is pure — live-refresh escape codes are the caller's job.

use crate::phase::Phase;

/// Distilled per-phase timing statistics for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnap {
    /// Which phase.
    pub phase: Phase,
    /// Sampled observations recorded.
    pub count: u64,
    /// Mean duration in nanoseconds.
    pub mean_ns: u64,
    /// Median duration in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile duration in nanoseconds.
    pub p95_ns: u64,
    /// Maximum duration in nanoseconds.
    pub max_ns: u64,
    /// Most recent sampled durations (oldest first), for sparklines.
    pub recent: Vec<u64>,
}

/// Point-in-time copy of the tracer's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Slots observed (every tick, sampled or not).
    pub slots: u64,
    /// Slots whose span tree was captured.
    pub sampled: u64,
    /// The sampling period (1 = every slot).
    pub sample_every: u64,
    /// Fast-window hit ratio, milli.
    pub fast_hit_milli: u64,
    /// Slow-window hit ratio, milli.
    pub slow_hit_milli: u64,
    /// Fast-window burn rate, milli.
    pub fast_burn_milli: u64,
    /// Slow-window burn rate, milli.
    pub slow_burn_milli: u64,
    /// SLO burn alerts fired so far.
    pub slo_burns: u64,
    /// Per-phase timing stats (only phases with data).
    pub phases: Vec<PhaseSnap>,
}

/// Station-level context the dashboard shows alongside the trace.
#[derive(Debug, Clone, Default)]
pub struct DashContext {
    /// Simulated slots per wall-clock second (0 when unknown).
    pub slots_per_sec: f64,
    /// Current service mode name.
    pub mode: String,
    /// Total deliveries so far.
    pub delivered: u64,
    /// On-time deliveries so far.
    pub on_time: u64,
    /// Pages currently waiting.
    pub waiting: u64,
    /// Recent mode-change lines, oldest first.
    pub mode_tail: Vec<String>,
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders values as a unicode sparkline scaled to the series maximum.
#[must_use]
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| SPARK[((v * 7) / max) as usize])
        .collect()
}

/// Renders a horizontal bar of `width` cells, filled proportionally.
#[must_use]
pub fn bar(value: u64, max: u64, width: usize) -> String {
    let max = max.max(1);
    let filled = ((value.min(max) as usize) * width) / (max as usize);
    let mut s = String::with_capacity(width * 3);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '░' });
    }
    s
}

/// Formats nanoseconds for humans (`870ns`, `12.3µs`, `4.2ms`).
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}.{}µs", ns / 1_000, (ns % 1_000) / 100)
    } else {
        format!("{}.{}ms", ns / 1_000_000, (ns % 1_000_000) / 100_000)
    }
}

fn pct(milli: u64) -> String {
    format!("{}.{}%", milli / 10, milli % 10)
}

fn burn(milli: u64) -> String {
    format!("{}.{}x", milli / 1000, (milli % 1000) / 100)
}

fn paint(s: &str, code: &str, color: bool) -> String {
    if color {
        format!("\x1b[{code}m{s}\x1b[0m")
    } else {
        s.to_string()
    }
}

fn burn_color(milli: u64, threshold: u64) -> &'static str {
    if milli >= threshold {
        "31" // red
    } else if milli >= 1000 {
        "33" // yellow
    } else {
        "32" // green
    }
}

/// Renders one ANSI dashboard frame.  `color` gates escape codes so
/// `--format json`-adjacent plain output stays clean in pipes and tests.
#[must_use]
pub fn render_text(snap: &TraceSnapshot, ctx: &DashContext, color: bool) -> String {
    let mut out = String::with_capacity(2048);
    let title = format!(
        "airsched top — slot {} · mode {} · {:.1} slots/s",
        snap.slots, ctx.mode, ctx.slots_per_sec
    );
    out.push_str(&paint(&title, "1", color));
    out.push('\n');

    let hit = (ctx.on_time * 1000)
        .checked_div(ctx.delivered)
        .unwrap_or(1000);
    out.push_str(&format!(
        "delivered {} · on-time {} ({}) · waiting {}\n",
        ctx.delivered,
        ctx.on_time,
        pct(hit),
        ctx.waiting
    ));

    out.push_str("slo  ");
    out.push_str(&format!(
        "hit fast {} slow {} · burn fast {} {} slow {} {} · burns {}\n",
        pct(snap.fast_hit_milli),
        pct(snap.slow_hit_milli),
        paint(
            &burn(snap.fast_burn_milli),
            burn_color(snap.fast_burn_milli, 2000),
            color
        ),
        bar(snap.fast_burn_milli.min(3000), 3000, 10),
        paint(
            &burn(snap.slow_burn_milli),
            burn_color(snap.slow_burn_milli, 1000),
            color
        ),
        bar(snap.slow_burn_milli.min(3000), 3000, 10),
        snap.slo_burns
    ));

    out.push_str(&format!(
        "phases (sampled 1/{}, {} slots captured)\n",
        snap.sample_every, snap.sampled
    ));
    for p in &snap.phases {
        out.push_str(&format!(
            "  {:<10} p50 {:>8}  p95 {:>8}  max {:>8}  {}\n",
            p.phase.name(),
            fmt_ns(p.p50_ns),
            fmt_ns(p.p95_ns),
            fmt_ns(p.max_ns),
            sparkline(&p.recent)
        ));
    }

    if !ctx.mode_tail.is_empty() {
        out.push_str("mode changes\n");
        for line in &ctx.mode_tail {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the dashboard as a single JSON object with a fixed key order
/// (for `airsched top --once --format json`).
#[must_use]
pub fn render_json(snap: &TraceSnapshot, ctx: &DashContext) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\"slots\":{},\"slots_per_sec\":{:.1},\"mode\":",
        snap.slots, ctx.slots_per_sec
    ));
    push_json_str(&mut out, &ctx.mode);
    out.push_str(&format!(
        ",\"delivered\":{},\"on_time\":{},\"waiting\":{},\"sampled\":{},\"sample_every\":{}",
        ctx.delivered, ctx.on_time, ctx.waiting, snap.sampled, snap.sample_every
    ));
    out.push_str(&format!(
        ",\"slo\":{{\"fast_hit_milli\":{},\"slow_hit_milli\":{},\"fast_burn_milli\":{},\"slow_burn_milli\":{},\"burns\":{}}}",
        snap.fast_hit_milli,
        snap.slow_hit_milli,
        snap.fast_burn_milli,
        snap.slow_burn_milli,
        snap.slo_burns
    ));
    out.push_str(",\"phases\":[");
    for (i, p) in snap.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
            p.phase.name(),
            p.count,
            p.mean_ns,
            p.p50_ns,
            p.p95_ns,
            p.max_ns
        ));
    }
    out.push_str("],\"mode_tail\":[");
    for (i, line) in ctx.mode_tail.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, line);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> TraceSnapshot {
        TraceSnapshot {
            slots: 640,
            sampled: 20,
            sample_every: 32,
            fast_hit_milli: 996,
            slow_hit_milli: 998,
            fast_burn_milli: 80,
            slow_burn_milli: 40,
            slo_burns: 1,
            phases: vec![PhaseSnap {
                phase: Phase::Drain,
                count: 20,
                mean_ns: 1500,
                p50_ns: 1400,
                p95_ns: 2400,
                max_ns: 9000,
                recent: vec![1, 5, 3, 9],
            }],
        }
    }

    fn ctx() -> DashContext {
        DashContext {
            slots_per_sec: 1234.5,
            mode: "Normal".to_string(),
            delivered: 1000,
            on_time: 996,
            waiting: 42,
            mode_tail: vec!["[slot 120] Normal->Degraded cause=fault".to_string()],
        }
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[0, 7, 3, 7]), "▁█▄█");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
    }

    #[test]
    fn bar_fills_proportionally() {
        assert_eq!(bar(0, 10, 4), "░░░░");
        assert_eq!(bar(10, 10, 4), "████");
        assert_eq!(bar(5, 10, 4), "██░░");
        assert_eq!(bar(99, 10, 2), "██", "clamped at max");
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(870), "870ns");
        assert_eq!(fmt_ns(12_345), "12.3µs");
        assert_eq!(fmt_ns(4_250_000), "4.2ms");
    }

    #[test]
    fn text_frame_mentions_everything() {
        let frame = render_text(&snap(), &ctx(), false);
        for needle in [
            "airsched top",
            "mode Normal",
            "slo",
            "burns 1",
            "drain",
            "mode changes",
        ] {
            assert!(frame.contains(needle), "missing {needle} in:\n{frame}");
        }
        assert!(!frame.contains('\x1b'), "no escapes without color");
        assert!(render_text(&snap(), &ctx(), true).contains('\x1b'));
    }

    #[test]
    fn json_frame_has_fixed_shape() {
        let doc = render_json(&snap(), &ctx());
        for needle in [
            "\"slots\":640",
            "\"mode\":\"Normal\"",
            "\"slo\":{\"fast_hit_milli\":996",
            "\"phases\":[{\"name\":\"drain\"",
            "\"mode_tail\":[",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
