//! The rule registry and the rule implementations.
//!
//! Rules come in two families. *Program rules* (`AP01`–`AP07`) need a
//! concrete [`BroadcastProgram`] grid; *plan rules* (`AL01`–`AL04`)
//! analyze the plan inputs (expected-time ladder, PAMAD frequencies,
//! per-group delay factors). Each rule has a stable code, a kebab-case
//! name, a default severity, and a one-line summary; [`lint`] runs every
//! rule whose effective severity is warn or deny.
//!
//! Some findings have logically entailed companions, documented per rule:
//! a first appearance past `t_i` implies an oversized wrap-around gap
//! (validity condition 2 subsumes condition 1), and a per-cycle frequency
//! below `ceil(cycle / t_i)` forces an oversized gap by pigeonhole — so
//! `AP02` and `AP06` never fire without `AP01` also firing.

use airsched_core::bound;
use airsched_core::program::{cyclic_gaps_over, BroadcastProgram};
use airsched_core::types::{ChannelId, GridPos, GroupId, PageId, SlotIndex};

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, LintReport, Severity, Span, Witness};
use crate::input::LintInput;

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RuleId {
    /// `AP01`: a cyclic inter-occurrence gap exceeds the page's expected
    /// time (validity condition 2).
    ExpectedTimeGap,
    /// `AP02`: a page's first appearance is later than its expected time
    /// (validity condition 1). Always accompanied by `AP01`.
    FirstAppearanceLate,
    /// `AP03`: a page under deadline never appears in the program.
    NeverBroadcast,
    /// `AP04`: empty grid cells (dead air). Allowed by default — PAMAD
    /// programs legitimately contain holes.
    DeadAir,
    /// `AP05`: the same page occupies one column on several channels; the
    /// duplicates waste capacity without improving any wait.
    DuplicateInColumn,
    /// `AP06`: a page airs fewer than `ceil(cycle / t_i)` times per cycle,
    /// which forces an oversized gap by pigeonhole. Always accompanied by
    /// `AP01`.
    FrequencyDeficit,
    /// `AP07`: the program has fewer channels than the Theorem 3.1 bound
    /// for its deadlines.
    ChannelsBelowMinimum,
    /// `AL01`: the expected-time ladder is not geometric
    /// (`t_{i+1} != c * t_i` for a constant integer `c`).
    NonGeometricLadder,
    /// `AL02`: an expected time is zero or beyond the sanity bound.
    AbsurdExpectedTime,
    /// `AL03`: per-group broadcast frequencies rise as expected times
    /// loosen (`S_i < S_{i+1}`), inverting the PAMAD invariant.
    FrequencyNonMonotone,
    /// `AL04`: a group's worst wait exceeds `max_stretch * t_i`.
    StretchExceeded,
}

impl RuleId {
    /// Every registered rule, program family first.
    pub const ALL: [RuleId; 11] = [
        RuleId::ExpectedTimeGap,
        RuleId::FirstAppearanceLate,
        RuleId::NeverBroadcast,
        RuleId::DeadAir,
        RuleId::DuplicateInColumn,
        RuleId::FrequencyDeficit,
        RuleId::ChannelsBelowMinimum,
        RuleId::NonGeometricLadder,
        RuleId::AbsurdExpectedTime,
        RuleId::FrequencyNonMonotone,
        RuleId::StretchExceeded,
    ];

    /// The stable rule code (`"AP01"`, ..., `"AL04"`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Self::ExpectedTimeGap => "AP01",
            Self::FirstAppearanceLate => "AP02",
            Self::NeverBroadcast => "AP03",
            Self::DeadAir => "AP04",
            Self::DuplicateInColumn => "AP05",
            Self::FrequencyDeficit => "AP06",
            Self::ChannelsBelowMinimum => "AP07",
            Self::NonGeometricLadder => "AL01",
            Self::AbsurdExpectedTime => "AL02",
            Self::FrequencyNonMonotone => "AL03",
            Self::StretchExceeded => "AL04",
        }
    }

    /// The kebab-case rule name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ExpectedTimeGap => "expected-time-gap",
            Self::FirstAppearanceLate => "first-appearance-late",
            Self::NeverBroadcast => "never-broadcast",
            Self::DeadAir => "dead-air",
            Self::DuplicateInColumn => "duplicate-in-column",
            Self::FrequencyDeficit => "frequency-deficit",
            Self::ChannelsBelowMinimum => "channels-below-minimum",
            Self::NonGeometricLadder => "non-geometric-ladder",
            Self::AbsurdExpectedTime => "absurd-expected-time",
            Self::FrequencyNonMonotone => "frequency-non-monotone",
            Self::StretchExceeded => "stretch-exceeded",
        }
    }

    /// The severity the rule carries unless overridden.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            Self::ExpectedTimeGap
            | Self::FirstAppearanceLate
            | Self::NeverBroadcast
            | Self::ChannelsBelowMinimum
            | Self::AbsurdExpectedTime
            | Self::FrequencyNonMonotone => Severity::Deny,
            Self::DuplicateInColumn
            | Self::FrequencyDeficit
            | Self::NonGeometricLadder
            | Self::StretchExceeded => Severity::Warn,
            Self::DeadAir => Severity::Allow,
        }
    }

    /// One-line description for `--list-rules` output and docs.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Self::ExpectedTimeGap => {
                "a cyclic gap between occurrences exceeds the page's expected time"
            }
            Self::FirstAppearanceLate => {
                "a page first appears later than its expected time into the cycle"
            }
            Self::NeverBroadcast => "a page under deadline never appears in the grid",
            Self::DeadAir => "grid cells are left empty",
            Self::DuplicateInColumn => "a page occupies one column on several channels",
            Self::FrequencyDeficit => {
                "a page airs too few times per cycle to possibly meet its deadline"
            }
            Self::ChannelsBelowMinimum => "fewer channels than the Theorem 3.1 minimum",
            Self::NonGeometricLadder => "expected times are not a geometric ladder",
            Self::AbsurdExpectedTime => "an expected time is zero or absurdly large",
            Self::FrequencyNonMonotone => "broadcast frequencies rise as deadlines loosen",
            Self::StretchExceeded => "a group's worst wait exceeds the stretch threshold",
        }
    }

    /// The fix suggestion attached to the rule's diagnostics.
    #[must_use]
    pub fn suggestion(self) -> &'static str {
        match self {
            Self::ExpectedTimeGap => "broadcast the page more evenly or raise its expected time",
            Self::FirstAppearanceLate => "move an occurrence into the first t_i columns",
            Self::NeverBroadcast => "place the page in the grid or drop its deadline",
            Self::DeadAir => "fill the empty cells with extra occurrences of tight pages",
            Self::DuplicateInColumn => "free the duplicate cell for a page that needs it",
            Self::FrequencyDeficit => "give the page at least ceil(cycle/t) occurrences",
            Self::ChannelsBelowMinimum => "add channels or relax expected times (Theorem 3.1)",
            Self::NonGeometricLadder => "round expected times down onto a geometric ladder",
            Self::AbsurdExpectedTime => "use an expected time in the sane range",
            Self::FrequencyNonMonotone => "keep S_1 >= S_2 >= ... >= S_h (tight groups air most)",
            Self::StretchExceeded => "rebalance frequencies or raise the stretch threshold",
        }
    }

    /// Looks a rule up by code (case-insensitive) or kebab-case name.
    #[must_use]
    pub fn lookup(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(s) || r.name() == s)
    }
}

/// Runs every configured rule over `input` and collects the findings.
///
/// The per-page program rules (`AP01`, `AP02`, `AP03`, `AP06`, `AP07`
/// and `AL04`) share one walk over each page's occurrence columns; the
/// grid-wide and plan rules run after it. The report sorts its
/// diagnostics, so the order in which rules emit does not reach it.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::susc;
/// use airsched_lint::{lint, LintConfig, LintInput};
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// assert!(lint(&LintInput::for_program(&program, &ladder), &LintConfig::default()).is_clean());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn lint(input: &LintInput<'_>, config: &LintConfig) -> LintReport {
    let mut out = Sink::new(config);
    if let Some(program) = input.program {
        page_rules(program, input, &mut out);
        dead_air(program, &mut out);
        duplicate_in_column(program, &mut out);
    }
    non_geometric_ladder(input, &mut out);
    absurd_expected_time(input, &mut out);
    frequency_non_monotone(input, &mut out);
    LintReport::new(out.diagnostics)
}

/// Where rules report: the configured severities and the findings so
/// far. Rules ask [`Sink::on`] before building a message, so a rule set
/// to allow costs no formatting.
struct Sink<'c> {
    config: &'c LintConfig,
    diagnostics: Vec<Diagnostic>,
}

impl<'c> Sink<'c> {
    fn new(config: &'c LintConfig) -> Self {
        Self {
            config,
            diagnostics: Vec::new(),
        }
    }

    /// Whether `rule` reports at all (warn or deny).
    fn on(&self, rule: RuleId) -> bool {
        self.config.level(rule) != Severity::Allow
    }

    fn emit(&mut self, rule: RuleId, span: Span, message: String, witness: Witness) {
        let severity = self.config.level(rule);
        if severity != Severity::Allow {
            self.diagnostics.push(Diagnostic {
                rule,
                severity,
                span,
                message,
                witness,
                suggestion: rule.suggestion(),
            });
        }
    }
}

/// The grid cell holding `page`'s occurrence at `column` (lowest channel
/// wins when the page is duplicated across channels in that column).
fn cell_at(program: &BroadcastProgram, page: PageId, column: u64) -> Span {
    program
        .occurrences(page)
        .find(|c| c.slot.index() == column)
        .map_or(Span::Page(page), Span::Cell)
}

/// The deadline rules, from one walk over each page's occurrence
/// columns. The walk yields the page's first column, its occurrence
/// count and its cyclic gaps, and counts the pages of each group:
///
/// * `AP01` — every cyclic gap must be at most the page's expected time.
///   The witness is the tune-in instant right after the occurrence that
///   opens the oversized gap; arriving there, a client waits exactly
///   `gap` slots.
/// * `AP02` — the first appearance must land within the first `t_i`
///   columns.
/// * `AP03` — every page under deadline must appear at least once.
/// * `AP06` — a page with fewer than `ceil(cycle / t_i)` occurrences
///   cannot avoid an oversized gap (the gaps sum to the cycle), so the
///   deficit is reported as the cause-level diagnostic next to `AP01`'s
///   symptoms.
/// * `AP07` — Theorem 3.1: `N >= ceil(sum over pages of 1/t_p)` channels
///   are necessary for any valid program; the sum is taken per group.
/// * `AL04` — per-group delay factor: the worst wait of any page of the
///   group, divided by `t_i`, must stay within `max_stretch`.
///
/// Zero deadlines belong to `AL02`: they count only for `AP03`, and they
/// leave the Theorem 3.1 bound undefined.
fn page_rules(program: &BroadcastProgram, input: &LintInput<'_>, out: &mut Sink<'_>) {
    let cycle = program.cycle_len();
    let gap_on = out.on(RuleId::ExpectedTimeGap);
    let late_on = out.on(RuleId::FirstAppearanceLate);
    let never_on = out.on(RuleId::NeverBroadcast);
    let deficit_on = out.on(RuleId::FrequencyDeficit);
    let groups = input.group_times.len();
    // `ceil(cycle / t)` once per group rather than one division per page.
    let group_required: Vec<u64> = input
        .group_times
        .iter()
        .map(|&t| if t == 0 { 0 } else { cycle.div_ceil(t) })
        .collect();
    let mut group_pages = vec![0u64; groups];
    let mut worst: Vec<Option<(PageId, u64)>> = vec![None; groups];
    let mut zero_limit = false;
    input.for_each_deadline(|d| {
        let idx = d.group.index() as usize;
        if d.limit == 0 {
            zero_limit = true;
        } else if let Some(n) = group_pages.get_mut(idx) {
            *n += 1;
        }
        let cols = program.occurrence_columns(d.page);
        let Some(&first) = cols.first() else {
            if never_on {
                let required = if d.limit == 0 {
                    1
                } else {
                    cycle.div_ceil(d.limit)
                };
                out.emit(
                    RuleId::NeverBroadcast,
                    Span::Page(d.page),
                    format!("{} never appears in the program", d.page),
                    Witness::Frequency {
                        page: d.page,
                        observed: 0,
                        required: required.max(1),
                    },
                );
            }
            return;
        };
        if d.limit == 0 {
            return;
        }
        // The largest gap first: only a page with a gap above its limit
        // walks its gaps again to report them.
        let wrap = cycle - cols[cols.len() - 1] + first;
        let max_gap = cols.windows(2).map(|w| w[1] - w[0]).fold(wrap, u64::max);
        if max_gap > d.limit && gap_on {
            for (i, gap) in cyclic_gaps_over(cols, cycle).enumerate() {
                if gap > d.limit {
                    let start = cols[i];
                    out.emit(
                        RuleId::ExpectedTimeGap,
                        cell_at(program, d.page, start),
                        format!(
                            "{} leaves a {gap}-slot gap after column {start}, above its \
                             expected time of {} slots",
                            d.page, d.limit
                        ),
                        Witness::TuneIn {
                            page: d.page,
                            arrival: (start + 1) % cycle,
                            wait: gap,
                            limit: d.limit,
                        },
                    );
                }
            }
        }
        if first >= d.limit && late_on {
            out.emit(
                RuleId::FirstAppearanceLate,
                cell_at(program, d.page, first),
                format!(
                    "{} first appears in column {first}, past its expected time \
                     of {} slots",
                    d.page, d.limit
                ),
                Witness::TuneIn {
                    page: d.page,
                    arrival: 0,
                    wait: first + 1,
                    limit: d.limit,
                },
            );
        }
        let observed = cols.len() as u64;
        let required = match input.group_times.get(idx) {
            Some(&t) if t == d.limit => group_required[idx],
            _ => cycle.div_ceil(d.limit),
        };
        if observed < required && deficit_on {
            out.emit(
                RuleId::FrequencyDeficit,
                Span::Page(d.page),
                format!(
                    "{} airs {observed} time(s) per {cycle}-slot cycle; at least \
                     {required} occurrences are needed to meet {} slots",
                    d.page, d.limit
                ),
                Witness::Frequency {
                    page: d.page,
                    observed,
                    required,
                },
            );
        }
        if let Some(w) = worst.get_mut(idx) {
            if w.is_none_or(|(_, g)| max_gap > g) {
                *w = Some((d.page, max_gap));
            }
        }
    });
    if out.on(RuleId::ChannelsBelowMinimum) && !input.has_no_deadlines() && !zero_limit {
        // A live catalogue counts its pages per time itself, so a change
        // set still bounds the whole catalogue.
        match input.live_groups() {
            Some(groups) => channels_below_minimum(program, groups, out),
            None => {
                let groups: Vec<(u64, u64)> = input
                    .group_times
                    .iter()
                    .copied()
                    .zip(group_pages.iter().copied())
                    .collect();
                channels_below_minimum(program, &groups, out);
            }
        }
    }
    if out.on(RuleId::StretchExceeded) {
        stretch_exceeded(input, &worst, out);
    }
}

/// `AP07` from the `(time, pages)` counts of each group: [`page_rules`]'
/// walk, or the live catalogue's own.
fn channels_below_minimum(program: &BroadcastProgram, groups: &[(u64, u64)], out: &mut Sink<'_>) {
    let Ok(minimum) = bound::minimum_channels_for_groups(groups) else {
        return;
    };
    let configured = program.channels();
    if configured < minimum {
        out.emit(
            RuleId::ChannelsBelowMinimum,
            Span::Program,
            format!(
                "program has {configured} channel(s); Theorem 3.1 requires at \
                 least {minimum} for these expected times"
            ),
            Witness::Channels {
                configured,
                minimum,
            },
        );
    }
}

/// `AL04` from each group's worst page and wait, as [`page_rules`]' walk
/// found them.
fn stretch_exceeded(input: &LintInput<'_>, worst: &[Option<(PageId, u64)>], out: &mut Sink<'_>) {
    let max_stretch = out.config.max_stretch();
    for (idx, entry) in worst.iter().enumerate() {
        let Some((page, worst_wait)) = *entry else {
            continue;
        };
        let limit = input.group_times[idx];
        #[allow(clippy::cast_precision_loss)]
        let stretch = worst_wait as f64 / limit as f64;
        if stretch > max_stretch {
            let group = GroupId::new(u32::try_from(idx).unwrap_or(u32::MAX));
            out.emit(
                RuleId::StretchExceeded,
                Span::Group(group),
                format!(
                    "group {group} has a delay factor of {stretch:.2} (worst \
                     wait {worst_wait} slots for {page} against t={limit}), \
                     above the threshold {max_stretch:.2}"
                ),
                Witness::Stretch {
                    page,
                    worst_wait,
                    limit,
                },
            );
        }
    }
}

/// `AP04`: flags empty cells. One diagnostic for the whole grid, spanning
/// the first empty cell.
fn dead_air(program: &BroadcastProgram, out: &mut Sink<'_>) {
    if !out.on(RuleId::DeadAir) {
        return;
    }
    let mut empty = 0u64;
    let mut first: Option<GridPos> = None;
    for ch in 0..program.channels() {
        for slot in 0..program.cycle_len() {
            let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
            if program.is_free(pos) {
                empty += 1;
                first.get_or_insert(pos);
            }
        }
    }
    if let Some(pos) = first {
        out.emit(
            RuleId::DeadAir,
            Span::Cell(pos),
            format!("{empty} of {} grid cells are dead air", program.capacity()),
            Witness::DeadAir {
                empty,
                capacity: program.capacity(),
            },
        );
    }
}

/// `AP05`: a page placed on several channels in the same column counts as
/// one logical occurrence; the extras are wasted capacity. Only the pages
/// with more cells than columns are looked at, found by one walk of the
/// program's cell counts and column span lengths.
fn duplicate_in_column(program: &BroadcastProgram, out: &mut Sink<'_>) {
    if !out.on(RuleId::DuplicateInColumn) {
        return;
    }
    for page in program.pages_doubled_in_a_column() {
        let cells: Vec<GridPos> = program.occurrences(page).collect();
        for &column in program.occurrence_columns(page) {
            let in_column: Vec<GridPos> = cells
                .iter()
                .filter(|c| c.slot.index() == column)
                .copied()
                .collect();
            if in_column.len() > 1 {
                out.emit(
                    RuleId::DuplicateInColumn,
                    Span::Cell(in_column[1]),
                    format!(
                        "{page} airs {} times in column {column}; parallel copies \
                         in one column serve no additional client",
                        in_column.len()
                    ),
                    Witness::Cells(in_column),
                );
            }
        }
    }
}

/// `AL01`: the paper's ladder assumption `t_{i+1} = c * t_i` for a constant
/// integer `c >= 2`. Non-ascending steps, non-divisible steps, and
/// divisible-but-varying ratios all fire here.
fn non_geometric_ladder(input: &LintInput<'_>, out: &mut Sink<'_>) {
    let Some(groups) = &input.raw_groups else {
        return;
    };
    if !out.on(RuleId::NonGeometricLadder) {
        return;
    }
    let times: Vec<u64> = groups.iter().map(|&(t, _)| t).collect();
    let mut ratio: Option<u64> = None;
    for i in 1..times.len() {
        let (prev, next) = (times[i - 1], times[i]);
        if prev == 0 || next == 0 {
            continue; // AL02 owns zero times.
        }
        let group = GroupId::new(u32::try_from(i).unwrap_or(u32::MAX));
        let required = prev.saturating_mul(ratio.unwrap_or(2));
        if next <= prev {
            out.emit(
                RuleId::NonGeometricLadder,
                Span::Group(group),
                format!(
                    "expected times must strictly ascend: group {group} has \
                     t={next} after t={prev}"
                ),
                Witness::LadderStep {
                    prev,
                    next,
                    required,
                },
            );
            continue;
        }
        if next % prev != 0 {
            out.emit(
                RuleId::NonGeometricLadder,
                Span::Group(group),
                format!("t={next} is not an integer multiple of the preceding t={prev}"),
                Witness::LadderStep {
                    prev,
                    next,
                    required,
                },
            );
            continue;
        }
        let c = next / prev;
        match ratio {
            None => ratio = Some(c),
            Some(r) if r == c => {}
            Some(r) => out.emit(
                RuleId::NonGeometricLadder,
                Span::Group(group),
                format!(
                    "ladder ratio changes from {r} to {c} at group {group}; the \
                     paper assumes a constant c"
                ),
                Witness::LadderStep {
                    prev,
                    next,
                    required: prev.saturating_mul(r),
                },
            ),
        }
    }
}

/// `AL02`: zero expected times (no client can ever be served in time) and
/// times beyond the configured sanity bound.
fn absurd_expected_time(input: &LintInput<'_>, out: &mut Sink<'_>) {
    if !out.on(RuleId::AbsurdExpectedTime) {
        return;
    }
    let max = out.config.max_expected_time();
    let times: Vec<u64> = input.raw_groups.as_ref().map_or_else(
        || input.group_times.clone(),
        |groups| groups.iter().map(|&(t, _)| t).collect(),
    );
    for (idx, &t) in times.iter().enumerate() {
        let group = GroupId::new(u32::try_from(idx).unwrap_or(u32::MAX));
        if t == 0 {
            out.emit(
                RuleId::AbsurdExpectedTime,
                Span::Group(group),
                format!(
                    "group {group} has a zero expected time; no broadcast can \
                     ever arrive in time"
                ),
                Witness::Value {
                    value: 0,
                    limit: max,
                },
            );
        } else if t > max {
            out.emit(
                RuleId::AbsurdExpectedTime,
                Span::Group(group),
                format!(
                    "group {group} has an expected time of {t} slots, beyond \
                     the sanity bound of {max}"
                ),
                Witness::Value {
                    value: t,
                    limit: max,
                },
            );
        }
    }
}

/// `AL03`: PAMAD's invariant `S_1 >= S_2 >= ... >= S_h` — pages with tight
/// deadlines must air at least as often as looser ones.
fn frequency_non_monotone(input: &LintInput<'_>, out: &mut Sink<'_>) {
    let Some(frequencies) = &input.frequencies else {
        return;
    };
    if !out.on(RuleId::FrequencyNonMonotone) {
        return;
    }
    for i in 1..frequencies.len() {
        let (prev, next) = (frequencies[i - 1], frequencies[i]);
        if next > prev {
            let group = GroupId::new(u32::try_from(i).unwrap_or(u32::MAX));
            out.emit(
                RuleId::FrequencyNonMonotone,
                Span::Group(group),
                format!(
                    "group {group} broadcasts S={next} times per cycle, more \
                     than the tighter preceding group's S={prev}"
                ),
                Witness::Monotonicity { prev, next },
            );
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::dynamic::OnlineScheduler;
    use airsched_core::group::GroupLadder;
    use airsched_core::{pamad, susc};
    use proptest::prelude::*;

    fn pos(ch: u32, slot: u64) -> GridPos {
        GridPos::new(ChannelId::new(ch), SlotIndex::new(slot))
    }

    fn place(program: &mut BroadcastProgram, cells: &[(u32, u64, u32)]) {
        for &(ch, slot, page) in cells {
            program.place(pos(ch, slot), PageId::new(page)).unwrap();
        }
    }

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn susc_output_is_clean() {
        let ladder = fig2_ladder();
        let program = susc::schedule(&ladder, 4).unwrap();
        let report = lint(
            &LintInput::for_program(&program, &ladder),
            &LintConfig::default(),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn pamad_under_shortage_passes_structural_rules() {
        let ladder = fig2_ladder();
        let outcome = pamad::schedule(&ladder, 3).unwrap();
        let frequencies = outcome.plan().frequencies().to_vec();
        let program = outcome.into_program();
        let report = lint(
            &LintInput::for_program(&program, &ladder).with_frequencies(&frequencies),
            &LintConfig::structural(),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn oversized_gap_fires_ap01_alone_with_tune_in_witness() {
        // t=4, cycle 8, occurrences {0, 5}: gaps {5, 3}. Frequency 2 ==
        // ceil(8/4), first appearance at 0, stretch 1.25 — only AP01 fires.
        let mut p = BroadcastProgram::new(1, 8);
        place(&mut p, &[(0, 0, 0), (0, 5, 0)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(4, 1)]),
            &LintConfig::default(),
        );
        assert_eq!(report.rules_fired(), vec![RuleId::ExpectedTimeGap]);
        let d = &report.diagnostics()[0];
        assert_eq!(d.span, Span::Cell(pos(0, 0)));
        assert_eq!(
            d.witness,
            Witness::TuneIn {
                page: PageId::new(0),
                arrival: 1,
                wait: 5,
                limit: 4
            }
        );
        // The witness is honest: wait_from agrees with it.
        assert_eq!(p.wait_from(PageId::new(0), 1), Some(5));
    }

    #[test]
    fn late_first_appearance_fires_ap02_with_its_gap_companion() {
        // t=3, cycle 6, occurrences {3, 5}: first at 3 >= 3 (AP02) and the
        // wrap gap 5->3 is 4 > 3 (AP01). Frequency 2 == ceil(6/3).
        let mut p = BroadcastProgram::new(1, 6);
        place(&mut p, &[(0, 3, 0), (0, 5, 0)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(3, 1)]),
            &LintConfig::default(),
        );
        assert_eq!(
            report.rules_fired(),
            vec![RuleId::ExpectedTimeGap, RuleId::FirstAppearanceLate]
        );
        let ap02 = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == RuleId::FirstAppearanceLate)
            .unwrap();
        assert_eq!(
            ap02.witness,
            Witness::TuneIn {
                page: PageId::new(0),
                arrival: 0,
                wait: 4,
                limit: 3
            }
        );
    }

    #[test]
    fn missing_page_fires_ap03_only() {
        let mut p = BroadcastProgram::new(1, 2);
        place(&mut p, &[(0, 0, 0), (0, 1, 0)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(2, 2)]),
            &LintConfig::default(),
        );
        assert_eq!(report.rules_fired(), vec![RuleId::NeverBroadcast]);
        assert_eq!(report.diagnostics()[0].span, Span::Page(PageId::new(1)));
    }

    #[test]
    fn dead_air_is_allowed_by_default_and_fires_when_warned() {
        let mut p = BroadcastProgram::new(1, 2);
        place(&mut p, &[(0, 0, 0)]);
        let input = LintInput::for_raw_groups(Some(&p), &[(2, 1)]);
        assert!(lint(&input, &LintConfig::default()).is_clean());
        let config = LintConfig::default().with_level(RuleId::DeadAir, Severity::Warn);
        let report = lint(&input, &config);
        assert_eq!(report.rules_fired(), vec![RuleId::DeadAir]);
        assert_eq!(
            report.diagnostics()[0].witness,
            Witness::DeadAir {
                empty: 1,
                capacity: 2
            }
        );
        assert_eq!(report.diagnostics()[0].span, Span::Cell(pos(0, 1)));
    }

    #[test]
    fn duplicate_column_fires_ap05_with_both_cells() {
        let mut p = BroadcastProgram::new(2, 2);
        place(&mut p, &[(0, 0, 0), (1, 0, 0), (0, 1, 1)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(2, 2)]),
            &LintConfig::default(),
        );
        assert_eq!(report.rules_fired(), vec![RuleId::DuplicateInColumn]);
        assert_eq!(
            report.diagnostics()[0].witness,
            Witness::Cells(vec![pos(0, 0), pos(1, 0)])
        );
    }

    #[test]
    fn frequency_deficit_fires_ap06_with_its_gap_companion() {
        // t=4, cycle 12, occurrences {0, 6}: 2 < ceil(12/4) = 3, and both
        // gaps are 6 > 4.
        let mut p = BroadcastProgram::new(1, 12);
        place(&mut p, &[(0, 0, 0), (0, 6, 0)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(4, 1)]),
            &LintConfig::default(),
        );
        assert_eq!(
            report.rules_fired(),
            vec![RuleId::ExpectedTimeGap, RuleId::FrequencyDeficit]
        );
        let ap06 = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == RuleId::FrequencyDeficit)
            .unwrap();
        assert_eq!(
            ap06.witness,
            Witness::Frequency {
                page: PageId::new(0),
                observed: 2,
                required: 3
            }
        );
    }

    #[test]
    fn too_few_channels_fire_ap07() {
        // Two t=2 pages and four t=4 pages need ceil(2/2 + 4/4) = 2 channels.
        let mut p = BroadcastProgram::new(1, 4);
        place(&mut p, &[(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(2, 2), (4, 4)]),
            &LintConfig::default(),
        );
        assert!(report.fired(RuleId::ChannelsBelowMinimum));
        let ap07 = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == RuleId::ChannelsBelowMinimum)
            .unwrap();
        assert_eq!(ap07.span, Span::Program);
        assert_eq!(
            ap07.witness,
            Witness::Channels {
                configured: 1,
                minimum: 2
            }
        );
    }

    #[test]
    fn non_geometric_ladders_fire_al01() {
        // Non-divisible step.
        let report = lint(
            &LintInput::for_plan(&[(2, 1), (3, 1)]),
            &LintConfig::default(),
        );
        assert_eq!(report.rules_fired(), vec![RuleId::NonGeometricLadder]);
        // Divisible but ratio changes 2 -> 3.
        let report = lint(
            &LintInput::for_plan(&[(2, 1), (4, 1), (12, 1)]),
            &LintConfig::default(),
        );
        assert_eq!(report.rules_fired(), vec![RuleId::NonGeometricLadder]);
        assert_eq!(report.diagnostics()[0].span, Span::Group(GroupId::new(2)));
        // Non-ascending.
        let report = lint(
            &LintInput::for_plan(&[(4, 1), (2, 1)]),
            &LintConfig::default(),
        );
        assert!(report.fired(RuleId::NonGeometricLadder));
    }

    #[test]
    fn absurd_expected_times_fire_al02() {
        let report = lint(&LintInput::for_plan(&[(0, 1)]), &LintConfig::default());
        assert_eq!(report.rules_fired(), vec![RuleId::AbsurdExpectedTime]);
        assert!(report.has_deny());
        let config = LintConfig::default().with_max_expected_time(10);
        let report = lint(&LintInput::for_plan(&[(16, 1)]), &config);
        assert_eq!(report.rules_fired(), vec![RuleId::AbsurdExpectedTime]);
        assert_eq!(
            report.diagnostics()[0].witness,
            Witness::Value {
                value: 16,
                limit: 10
            }
        );
    }

    #[test]
    fn rising_frequencies_fire_al03() {
        let input = LintInput::for_plan(&[(2, 1), (4, 1)]).with_frequencies(&[1, 2]);
        let report = lint(&input, &LintConfig::default());
        assert_eq!(report.rules_fired(), vec![RuleId::FrequencyNonMonotone]);
        assert_eq!(
            report.diagnostics()[0].witness,
            Witness::Monotonicity { prev: 1, next: 2 }
        );
        // Monotone frequencies are fine.
        let input = LintInput::for_plan(&[(2, 1), (4, 1)]).with_frequencies(&[2, 1]);
        assert!(lint(&input, &LintConfig::default()).is_clean());
    }

    #[test]
    fn stretch_threshold_fires_al04() {
        // t=2, cycle 8, occurrences {0, 5}: worst gap 5, stretch 2.5 > 2.
        let mut p = BroadcastProgram::new(1, 8);
        place(&mut p, &[(0, 0, 0), (0, 5, 0)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(2, 1)]),
            &LintConfig::default(),
        );
        assert!(report.fired(RuleId::StretchExceeded));
        let al04 = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == RuleId::StretchExceeded)
            .unwrap();
        assert_eq!(
            al04.witness,
            Witness::Stretch {
                page: PageId::new(0),
                worst_wait: 5,
                limit: 2
            }
        );
        // Raising the threshold silences it.
        let config = LintConfig::default().with_max_stretch(3.0);
        let report = lint(&LintInput::for_raw_groups(Some(&p), &[(2, 1)]), &config);
        assert!(!report.fired(RuleId::StretchExceeded));
    }

    #[test]
    fn structural_config_ignores_deadline_rules() {
        // A grid full of deadline violations but structurally sound.
        let mut p = BroadcastProgram::new(1, 8);
        place(&mut p, &[(0, 0, 0), (0, 5, 0)]);
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(2, 1)]),
            &LintConfig::structural(),
        );
        assert!(report.is_clean(), "{report}");
        // But a missing page still denies.
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(2, 2)]),
            &LintConfig::structural(),
        );
        assert!(report.has_deny());
        assert_eq!(report.rules_fired(), vec![RuleId::NeverBroadcast]);
    }

    #[test]
    fn catalogue_input_gates_like_the_station() {
        let mut p = BroadcastProgram::new(1, 4);
        place(&mut p, &[(0, 0, 7), (0, 2, 7), (0, 1, 9), (0, 3, 9)]);
        let catalogue = [(PageId::new(7), 2), (PageId::new(9), 2)];
        let report = lint(
            &reference::for_catalogue(&p, &catalogue),
            &LintConfig::default(),
        );
        assert!(report.is_clean(), "{report}");
        // Catalogue grouping is synthesized, so plan-shape rules stay quiet
        // even for times a GroupLadder would reject.
        let mut p = BroadcastProgram::new(2, 6);
        place(
            &mut p,
            &[(0, 0, 1), (0, 2, 1), (0, 4, 1), (1, 0, 2), (1, 3, 2)],
        );
        let catalogue = [(PageId::new(1), 2), (PageId::new(2), 3)];
        let report = lint(
            &reference::for_catalogue(&p, &catalogue),
            &LintConfig::default(),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn severity_overrides_and_ordering() {
        let mut p = BroadcastProgram::new(1, 8);
        place(&mut p, &[(0, 0, 0), (0, 5, 0)]);
        // Allowing AP01 leaves only the (warn) stretch rule for t=2.
        let config = LintConfig::default()
            .with_level(RuleId::ExpectedTimeGap, Severity::Allow)
            .with_level(RuleId::FrequencyDeficit, Severity::Allow);
        let report = lint(&LintInput::for_raw_groups(Some(&p), &[(2, 1)]), &config);
        assert_eq!(report.rules_fired(), vec![RuleId::StretchExceeded]);
        assert!(!report.has_deny());
        // Deny-level findings sort before warn-level ones.
        let report = lint(
            &LintInput::for_raw_groups(Some(&p), &[(2, 1)]),
            &LintConfig::default(),
        );
        let severities: Vec<Severity> = report.diagnostics().iter().map(|d| d.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted);
    }

    #[test]
    fn rule_lookup_and_registry_are_consistent() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::lookup(rule.code()), Some(rule));
            assert_eq!(RuleId::lookup(&rule.code().to_lowercase()), Some(rule));
            assert_eq!(RuleId::lookup(rule.name()), Some(rule));
            assert!(!rule.summary().is_empty());
            assert!(!rule.suggestion().is_empty());
        }
        assert_eq!(RuleId::lookup("nope"), None);
        // Codes are unique.
        let mut codes: Vec<&str> = RuleId::ALL.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), RuleId::ALL.len());
    }

    /// A random harmonic ladder and a valid program for it: SUSC at or
    /// above the bound, or PAMAD on any channel count.
    fn arb_program() -> impl Strategy<Value = (GroupLadder, BroadcastProgram)> {
        (
            1u64..=4,
            2u64..=3,
            prop::collection::vec(1u64..=6, 1..=4),
            0u32..3,
            any::<bool>(),
        )
            .prop_map(|(t1, c, counts, extra, use_susc)| {
                let ladder = GroupLadder::geometric(t1, c, &counts).unwrap();
                let minimum = airsched_core::bound::minimum_channels(&ladder);
                let program = if use_susc {
                    susc::schedule(&ladder, minimum + extra).unwrap()
                } else {
                    let n = minimum.saturating_sub(1).max(1) + extra;
                    pamad::schedule(&ladder, n).unwrap().into_program()
                };
                (ladder, program)
            })
    }

    /// `program` with one cell rewritten: emptied, or given a page that
    /// may or may not be in the catalogue.
    fn corrupt(program: &BroadcastProgram, cell: usize, page: Option<u32>) -> BroadcastProgram {
        let mut cells = program.cells().to_vec();
        let at = cell % cells.len();
        cells[at] = page.map(PageId::new);
        BroadcastProgram::from_cells(program.channels(), program.cycle_len(), &cells).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-pass lint reports exactly what the per-rule reference
        /// does — same diagnostics, same order, same rendered bytes — on
        /// valid programs with one corrupted cell, for ladder, raw-group
        /// and catalogue inputs under several configurations.
        #[test]
        fn one_pass_lint_matches_the_per_rule_reference(
            built in arb_program(),
            cell in any::<usize>(),
            page in prop::option::of(0u32..32),
            zero_group in any::<bool>(),
            stretch in 1.0f64..2.0,
        ) {
            let (ladder, program) = built;
            let program = corrupt(&program, cell, page);
            let catalogue: Vec<(PageId, u64)> = ladder
                .pages()
                .map(|(p, g)| (p, ladder.time_of(g).slots()))
                .collect();
            let mut raw: Vec<(u64, u64)> = ladder
                .times()
                .iter()
                .copied()
                .zip(ladder.page_counts().iter().copied())
                .collect();
            if zero_group {
                raw.insert(0, (0, 1));
            }
            let inputs = [
                LintInput::for_program(&program, &ladder),
                LintInput::for_raw_groups(Some(&program), &raw),
                reference::for_catalogue(&program, &catalogue),
            ];
            let all_warn = RuleId::ALL
                .into_iter()
                .fold(LintConfig::default(), |c, r| c.with_level(r, Severity::Warn));
            let configs = [
                LintConfig::default(),
                LintConfig::structural(),
                all_warn.with_max_stretch(stretch),
            ];
            for input in &inputs {
                for config in &configs {
                    let got = lint(input, config);
                    let want = reference::lint(input, config);
                    prop_assert_eq!(
                        crate::render::render_text(&got, None),
                        crate::render::render_text(&want, None)
                    );
                    prop_assert_eq!(got, want);
                }
            }
        }

        /// The span-length walk of `AP05`, and the one-pass lint around
        /// it, report exactly what the per-page `AP05` loop and the
        /// per-rule lint do, on catalogues with repeated times and zero
        /// deadlines among them, over programs with injected same-column
        /// duplicates.
        #[test]
        fn catalogue_ranks_and_ap05_match_their_references(
            built in arb_program(),
            times in prop::collection::vec(0usize..6, 1..24),
            reversed in any::<bool>(),
            duplicates in prop::collection::vec((any::<usize>(), 0u32..32), 0..4),
        ) {
            let program = with_column_duplicates(&built.1, &duplicates);
            let mut catalogue: Vec<(PageId, u64)> = (0u32..)
                .zip(&times)
                .map(|(p, &i)| (PageId::new(p), [0, 2, 4, 4, 8, 16][i]))
                .collect();
            if reversed {
                catalogue.reverse();
            }
            let input = reference::for_catalogue(&program, &catalogue);
            let all_warn = RuleId::ALL
                .into_iter()
                .fold(LintConfig::default(), |c, r| c.with_level(r, Severity::Warn));
            for config in [LintConfig::default(), LintConfig::structural(), all_warn] {
                prop_assert_eq!(lint(&input, &config), reference::lint(&input, &config));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A live catalogue read in place lints exactly like its listed
        /// `(page, time)` pairs through the reference input, and a change
        /// set naming every live page (and some that are not) lints like
        /// the whole catalogue.
        #[test]
        fn live_catalogue_lints_like_the_listed_catalogue(
            times in prop::collection::vec(0usize..5, 1..24),
            cell in any::<usize>(),
            page in prop::option::of(0u32..32),
        ) {
            let mut sched = OnlineScheduler::new(3, 16).unwrap();
            for (p, &i) in (0u32..).zip(&times) {
                // Ids with holes; a page that does not fit is skipped.
                let _ = sched.add_page(PageId::new(2 * p), [2, 4, 8, 16, 16][i]);
            }
            let program = corrupt(sched.program(), cell, page);
            let pairs: Vec<(PageId, u64)> = sched.pages().iter().collect();
            let every: Vec<PageId> = (0..2 * times.len() as u32).map(PageId::new).collect();
            let all_warn = RuleId::ALL
                .into_iter()
                .fold(LintConfig::default(), |c, r| c.with_level(r, Severity::Warn));
            for config in [LintConfig::default(), LintConfig::structural(), all_warn] {
                let want = lint(&reference::for_catalogue(&program, &pairs), &config);
                let live = LintInput::for_live_catalogue(&program, sched.pages());
                prop_assert_eq!(&lint(&live, &config), &want);
                let change = LintInput::for_catalogue_change(&program, sched.pages(), &every);
                prop_assert_eq!(&lint(&change, &config), &want);
            }
        }
    }

    /// `program` with each `(cell, page)` written over one cell: the page
    /// some other channel airs in that cell's column, so the column holds
    /// it twice, or `page` when no other channel airs anything there.
    fn with_column_duplicates(
        program: &BroadcastProgram,
        duplicates: &[(usize, u32)],
    ) -> BroadcastProgram {
        let mut cells = program.cells().to_vec();
        let cycle = program.cycle_len() as usize;
        for &(cell, page) in duplicates {
            let at = cell % cells.len();
            let twin = (at % cycle..cells.len())
                .step_by(cycle)
                .filter(|&other| other != at)
                .find_map(|other| cells[other]);
            cells[at] = Some(twin.unwrap_or(PageId::new(page)));
        }
        BroadcastProgram::from_cells(program.channels(), program.cycle_len(), &cells).unwrap()
    }
}
