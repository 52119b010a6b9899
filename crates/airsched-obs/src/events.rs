//! Typed flight-recorder events and the bounded ring buffer that holds
//! them.
//!
//! Events are **slot-indexed, not wall-clock**: the `slot` field is the
//! broadcast slot at which the event happened, so a seeded run produces
//! the same event stream on every machine. The one exception is
//! [`Event::ReplanTiming`]'s `duration_us`, which is a measured
//! wall-clock duration — it lives only in the event stream (never in the
//! registry), so metric exposition stays byte-for-byte deterministic
//! while replans still report how long they actually took.
//!
//! Every event encodes to exactly one JSON line with fixed key order
//! ([`Event::to_jsonl`]) and parses back ([`Event::parse_jsonl`]); the
//! round-trip is lossless.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// A channel-health state transition, as reported by the station's
/// health monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthTransition {
    /// Channel declared down.
    Down,
    /// Channel recovered to up.
    Up,
    /// Error/stall rate crossed the degradation threshold.
    Degraded,
    /// Rates dropped back below the threshold.
    Healthy,
}

impl HealthTransition {
    /// Stable wire name (used in JSONL and Prometheus labels).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthTransition::Down => "down",
            HealthTransition::Up => "up",
            HealthTransition::Degraded => "degraded",
            HealthTransition::Healthy => "healthy",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "down" => HealthTransition::Down,
            "up" => HealthTransition::Up,
            "degraded" => HealthTransition::Degraded,
            "healthy" => HealthTransition::Healthy,
            _ => return None,
        })
    }
}

/// One flight-recorder event. All ids are raw integers and all mode /
/// cause / stage names are plain strings so this crate depends on
/// nothing above `std`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The station's degradation mode changed.
    ModeChange {
        /// Mode before the change (e.g. `"valid"`).
        from: String,
        /// Mode after the change (e.g. `"best-effort"`).
        to: String,
        /// Slot at which the change took effect.
        slot: u64,
        /// Why (e.g. `"channel_down"`, `"fault"`, `"policy"`).
        cause: String,
    },
    /// The lint gate refused a candidate plan.
    PlanRejected {
        /// Slot at which the candidate was gated.
        slot: u64,
        /// Deny-level rule codes that fired (e.g. `["AP01", "AL04"]`).
        rule_ids: Vec<String>,
    },
    /// A channel's health state changed.
    ChannelHealth {
        /// Channel id.
        ch: u32,
        /// Slot of the transition.
        slot: u64,
        /// Which transition.
        transition: HealthTransition,
    },
    /// A delivery arrived later than the plan's expected wait.
    DeadlineMiss {
        /// Page that was late.
        page: u32,
        /// Slot of the (late) delivery.
        slot: u64,
        /// Observed wait in slots.
        wait: u64,
        /// Expected wait bound in slots.
        expected: u64,
    },
    /// One stage of a replan ran.
    ReplanTiming {
        /// Stage name (`"repack"`, `"relocate"`, `"pamad"`, `"solve"`).
        stage: String,
        /// Slot at which the replan ran.
        slot: u64,
        /// Candidate evaluations performed.
        evals: u64,
        /// Candidates pruned before evaluation.
        pruned: u64,
        /// Measured wall-clock duration in microseconds. The only
        /// non-deterministic field in the event stream.
        duration_us: u64,
    },
    /// A crash-recovery checkpoint reached stable storage.
    CheckpointWritten {
        /// Slot the checkpoint captured (the station clock at capture).
        slot: u64,
        /// Encoded checkpoint size on disk, in bytes.
        bytes: u64,
        /// Journal records made obsolete by this checkpoint (the journal
        /// lag that was just reset to zero).
        journal_records: u64,
    },
    /// A crashed station was rebuilt from checkpoint + journal replay.
    RecoveryCompleted {
        /// Slot the recovered station resumed at.
        slot: u64,
        /// Journal records replayed on top of the checkpoint.
        replayed: u64,
        /// Corrupt or torn records dropped from the journal tail.
        dropped_records: u64,
        /// Measured wall-clock recovery duration in microseconds
        /// (non-deterministic, like `ReplanTiming::duration_us`).
        duration_us: u64,
    },
    /// The SLO tracker's fast and slow burn-rate windows both crossed
    /// their thresholds: error budget is burning unsustainably. Fired
    /// edge-triggered by `airsched-trace` *before* the degradation
    /// ladder reacts, and auto-captures a postmortem. All ratios are in
    /// milli (1000 = 100% / 1x), fully deterministic.
    SloBurn {
        /// Slot at which the alert fired.
        slot: u64,
        /// Fast-window burn rate (milli of budget per budget-period).
        fast_burn_milli: u64,
        /// Slow-window burn rate (milli).
        slow_burn_milli: u64,
        /// Slow-window deadline-hit ratio (milli).
        hit_milli: u64,
        /// The fast-window burn threshold that was crossed (milli).
        threshold_milli: u64,
    },
}

impl Event {
    /// The slot this event is indexed at.
    #[must_use]
    pub fn slot(&self) -> u64 {
        match self {
            Event::ModeChange { slot, .. }
            | Event::PlanRejected { slot, .. }
            | Event::ChannelHealth { slot, .. }
            | Event::DeadlineMiss { slot, .. }
            | Event::ReplanTiming { slot, .. }
            | Event::CheckpointWritten { slot, .. }
            | Event::RecoveryCompleted { slot, .. }
            | Event::SloBurn { slot, .. } => *slot,
        }
    }

    /// Stable event-type name (the JSONL `type` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ModeChange { .. } => "mode_change",
            Event::PlanRejected { .. } => "plan_rejected",
            Event::ChannelHealth { .. } => "channel_health",
            Event::DeadlineMiss { .. } => "deadline_miss",
            Event::ReplanTiming { .. } => "replan_timing",
            Event::CheckpointWritten { .. } => "checkpoint_written",
            Event::RecoveryCompleted { .. } => "recovery_completed",
            Event::SloBurn { .. } => "slo_burn",
        }
    }

    /// Encodes the event as one JSON line (no trailing newline) with
    /// fixed key order, starting with `type` and `slot`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"type\":\"{}\",\"slot\":{}",
            self.kind(),
            self.slot()
        );
        match self {
            Event::ModeChange {
                from, to, cause, ..
            } => {
                push_str_field(&mut out, "from", from);
                push_str_field(&mut out, "to", to);
                push_str_field(&mut out, "cause", cause);
            }
            Event::PlanRejected { rule_ids, .. } => {
                out.push_str(",\"rule_ids\":[");
                for (i, id) in rule_ids.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, id);
                }
                out.push(']');
            }
            Event::ChannelHealth { ch, transition, .. } => {
                let _ = write!(out, ",\"ch\":{ch}");
                push_str_field(&mut out, "transition", transition.as_str());
            }
            Event::DeadlineMiss {
                page,
                wait,
                expected,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"page\":{page},\"wait\":{wait},\"expected\":{expected}"
                );
            }
            Event::ReplanTiming {
                stage,
                evals,
                pruned,
                duration_us,
                ..
            } => {
                push_str_field(&mut out, "stage", stage);
                let _ = write!(
                    out,
                    ",\"evals\":{evals},\"pruned\":{pruned},\"duration_us\":{duration_us}"
                );
            }
            Event::CheckpointWritten {
                bytes,
                journal_records,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"bytes\":{bytes},\"journal_records\":{journal_records}"
                );
            }
            Event::RecoveryCompleted {
                replayed,
                dropped_records,
                duration_us,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"replayed\":{replayed},\"dropped_records\":{dropped_records},\"duration_us\":{duration_us}"
                );
            }
            Event::SloBurn {
                fast_burn_milli,
                slow_burn_milli,
                hit_milli,
                threshold_milli,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"fast_burn_milli\":{fast_burn_milli},\"slow_burn_milli\":{slow_burn_milli},\"hit_milli\":{hit_milli},\"threshold_milli\":{threshold_milli}"
                );
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`Event::to_jsonl`]. Accepts any
    /// key order and ignores unknown keys; returns `None` on malformed
    /// input or a missing required field.
    #[must_use]
    pub fn parse_jsonl(line: &str) -> Option<Event> {
        let fields = parse_object(line.trim())?;
        let str_of = |k: &str| -> Option<&str> {
            fields.iter().find_map(|(key, v)| {
                (key == k).then_some(match v {
                    JsonValue::Str(s) => Some(s.as_str()),
                    _ => None,
                })?
            })
        };
        let num_of = |k: &str| -> Option<u64> {
            fields.iter().find_map(|(key, v)| {
                (key == k).then_some(match v {
                    JsonValue::Num(n) => Some(*n),
                    _ => None,
                })?
            })
        };
        let slot = num_of("slot")?;
        Some(match str_of("type")? {
            "mode_change" => Event::ModeChange {
                from: str_of("from")?.to_string(),
                to: str_of("to")?.to_string(),
                slot,
                cause: str_of("cause")?.to_string(),
            },
            "plan_rejected" => {
                let ids = fields.iter().find_map(|(key, v)| {
                    (key == "rule_ids").then_some(match v {
                        JsonValue::StrArray(a) => Some(a.clone()),
                        _ => None,
                    })?
                })?;
                Event::PlanRejected {
                    slot,
                    rule_ids: ids,
                }
            }
            "channel_health" => Event::ChannelHealth {
                ch: u32::try_from(num_of("ch")?).ok()?,
                slot,
                transition: HealthTransition::parse(str_of("transition")?)?,
            },
            "deadline_miss" => Event::DeadlineMiss {
                page: u32::try_from(num_of("page")?).ok()?,
                slot,
                wait: num_of("wait")?,
                expected: num_of("expected")?,
            },
            "replan_timing" => Event::ReplanTiming {
                stage: str_of("stage")?.to_string(),
                slot,
                evals: num_of("evals")?,
                pruned: num_of("pruned")?,
                duration_us: num_of("duration_us")?,
            },
            "checkpoint_written" => Event::CheckpointWritten {
                slot,
                bytes: num_of("bytes")?,
                journal_records: num_of("journal_records")?,
            },
            "recovery_completed" => Event::RecoveryCompleted {
                slot,
                replayed: num_of("replayed")?,
                dropped_records: num_of("dropped_records")?,
                duration_us: num_of("duration_us")?,
            },
            "slo_burn" => Event::SloBurn {
                slot,
                fast_burn_milli: num_of("fast_burn_milli")?,
                slow_burn_milli: num_of("slow_burn_milli")?,
                hit_milli: num_of("hit_milli")?,
                threshold_milli: num_of("threshold_milli")?,
            },
            _ => return None,
        })
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":");
    push_json_string(out, value);
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

enum JsonValue {
    Str(String),
    Num(u64),
    StrArray(Vec<String>),
}

/// Minimal parser for the flat objects [`Event::to_jsonl`] emits:
/// string, unsigned-integer, and array-of-string values only.
fn parse_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let inner = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        let (key, after_key) = parse_string(rest)?;
        rest = after_key.trim_start().strip_prefix(':')?.trim_start();
        let (value, after_value) = parse_value(rest)?;
        fields.push((key, value));
        rest = after_value.trim_start();
        match rest.strip_prefix(',') {
            Some(next) => rest = next.trim_start(),
            None if rest.is_empty() => break,
            None => return None,
        }
    }
    Some(fields)
}

fn parse_value(input: &str) -> Option<(JsonValue, &str)> {
    if input.starts_with('"') {
        let (s, rest) = parse_string(input)?;
        return Some((JsonValue::Str(s), rest));
    }
    if let Some(mut rest) = input.strip_prefix('[') {
        let mut items = Vec::new();
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(']') {
            return Some((JsonValue::StrArray(items), after));
        }
        loop {
            let (s, after) = parse_string(rest)?;
            items.push(s);
            rest = after.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                return Some((JsonValue::StrArray(items), after));
            }
            rest = rest.strip_prefix(',')?.trim_start();
        }
    }
    let end = input
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(input.len());
    if end == 0 {
        return None;
    }
    let n = input[..end].parse().ok()?;
    Some((JsonValue::Num(n), &input[end..]))
}

fn parse_string(input: &str) -> Option<(String, &str)> {
    let mut chars = input.strip_prefix('"')?.char_indices();
    let body = input.get(1..)?;
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, body.get(i + 1..)?)),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// A postmortem dump: the flight recorder's recent history, captured at
/// the moment the station entered a mode worth investigating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postmortem {
    /// Slot at which the dump was taken.
    pub slot: u64,
    /// Mode that triggered the dump (e.g. `"best-effort"`).
    pub trigger: String,
    /// The recorder's most recent events, oldest first. The triggering
    /// `ModeChange` is the last entry; the causal `ChannelHealth` /
    /// `PlanRejected` events precede it.
    pub events: Vec<Event>,
}

impl Postmortem {
    /// Renders the dump as JSONL, one event per line, preceded by a
    /// `# postmortem` comment line (ignored by JSONL parsers that skip
    /// `#` lines; the CLI prints it verbatim).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "# postmortem trigger={} slot={} events={}\n",
            self.trigger,
            self.slot,
            self.events.len()
        );
        for event in &self.events {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }
}

/// A bounded ring buffer of [`Event`]s: the black box. Push is O(1);
/// when full, the oldest event is dropped.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: VecDeque<Event>,
    capacity: usize,
    recorded: u64,
}

/// Default flight-recorder capacity.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
        }
    }

    /// Records an event, evicting the oldest if full.
    pub fn record(&mut self, event: Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
        self.recorded += 1;
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// The last `n` events, oldest first (fewer if the ring holds fewer).
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring.iter().skip(skip).cloned().collect()
    }

    /// Total events ever recorded, including evicted ones.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Renders the held events as JSONL, one per line, oldest first.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.ring {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::ModeChange {
                from: "valid".into(),
                to: "repacked".into(),
                slot: 41,
                cause: "channel_down".into(),
            },
            Event::PlanRejected {
                slot: 42,
                rule_ids: vec!["AP01".into(), "AL04".into()],
            },
            Event::PlanRejected {
                slot: 43,
                rule_ids: vec![],
            },
            Event::ChannelHealth {
                ch: 3,
                slot: 44,
                transition: HealthTransition::Degraded,
            },
            Event::DeadlineMiss {
                page: 7,
                slot: 45,
                wait: 19,
                expected: 8,
            },
            Event::ReplanTiming {
                stage: "pamad".into(),
                slot: 46,
                evals: 423,
                pruned: 7098,
                duration_us: 1234,
            },
            Event::CheckpointWritten {
                slot: 47,
                bytes: 8192,
                journal_records: 96,
            },
            Event::RecoveryCompleted {
                slot: 48,
                replayed: 96,
                dropped_records: 1,
                duration_us: 541,
            },
            Event::SloBurn {
                slot: 49,
                fast_burn_milli: 14200,
                slow_burn_milli: 2100,
                hit_milli: 895,
                threshold_milli: 2000,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for event in samples() {
            let line = event.to_jsonl();
            let back =
                Event::parse_jsonl(&line).unwrap_or_else(|| panic!("unparseable line: {line}"));
            assert_eq!(back, event, "round-trip diverged for {line}");
        }
    }

    #[test]
    fn jsonl_lines_are_stable() {
        let line = samples()[0].to_jsonl();
        assert_eq!(
            line,
            "{\"type\":\"mode_change\",\"slot\":41,\"from\":\"valid\",\
             \"to\":\"repacked\",\"cause\":\"channel_down\"}"
        );
        let line = samples()[1].to_jsonl();
        assert_eq!(
            line,
            "{\"type\":\"plan_rejected\",\"slot\":42,\"rule_ids\":[\"AP01\",\"AL04\"]}"
        );
    }

    #[test]
    fn parser_accepts_reordered_keys_and_rejects_junk() {
        let reordered =
            "{\"cause\":\"fault\",\"slot\":9,\"to\":\"offline\",\"from\":\"valid\",\"type\":\"mode_change\"}";
        assert_eq!(
            Event::parse_jsonl(reordered),
            Some(Event::ModeChange {
                from: "valid".into(),
                to: "offline".into(),
                slot: 9,
                cause: "fault".into(),
            })
        );
        for junk in [
            "",
            "not json",
            "{\"type\":\"mode_change\"}",
            "{\"type\":\"unknown\",\"slot\":1}",
            "{\"type\":\"deadline_miss\",\"slot\":1,\"page\":2,\"wait\":3}",
        ] {
            assert_eq!(Event::parse_jsonl(junk), None, "accepted junk: {junk}");
        }
    }

    #[test]
    fn string_escapes_survive_the_round_trip() {
        let event = Event::ModeChange {
            from: "va\"l\\id".into(),
            to: "re\npac\tked".into(),
            slot: 1,
            cause: "ctl\u{1}char".into(),
        };
        let line = event.to_jsonl();
        assert_eq!(Event::parse_jsonl(&line), Some(event));
    }

    #[test]
    fn recorder_is_bounded_and_ordered() {
        let mut rec = FlightRecorder::new(3);
        for slot in 0..5u64 {
            rec.record(Event::PlanRejected {
                slot,
                rule_ids: vec![],
            });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 5);
        let slots: Vec<u64> = rec.events().map(Event::slot).collect();
        assert_eq!(slots, vec![2, 3, 4]);
        let recent: Vec<u64> = rec.recent(2).iter().map(Event::slot).collect();
        assert_eq!(recent, vec![3, 4]);
        assert_eq!(rec.recent(10).len(), 3);
    }

    #[test]
    fn recorder_jsonl_parses_line_by_line() {
        let mut rec = FlightRecorder::new(16);
        for event in samples() {
            rec.record(event);
        }
        let dump = rec.to_jsonl();
        let parsed: Vec<Event> = dump
            .lines()
            .map(|l| Event::parse_jsonl(l).expect("line must parse"))
            .collect();
        assert_eq!(parsed, samples());
    }

    #[test]
    fn postmortem_dump_has_header_and_events() {
        let pm = Postmortem {
            slot: 300,
            trigger: "best-effort".into(),
            events: samples(),
        };
        let dump = pm.to_jsonl();
        let mut lines = dump.lines();
        assert_eq!(
            lines.next(),
            Some("# postmortem trigger=best-effort slot=300 events=9")
        );
        assert_eq!(lines.count(), 9);
    }
}
