//! The per-rule lint the one-pass [`super::lint`] replaced, kept in test
//! code as its reference: each deadline rule walks the catalogue on its
//! own, `AP07` bounds the channels from a list of every page's time, and
//! `AP05` looks up every page's spans. A listed-catalogue input, which
//! the library does not have, is kept here too. The other grid-wide
//! rules and the plan rules did not change and are shared.

use airsched_core::bound;
use airsched_core::program::{cyclic_gaps_over, BroadcastProgram};
use airsched_core::types::{GridPos, GroupId, PageId};

use super::{
    absurd_expected_time, dead_air, frequency_non_monotone, non_geometric_ladder, RuleId, Sink,
};
use crate::config::LintConfig;
use crate::diagnostic::{LintReport, Span, Witness};
use crate::input::{Deadlines, LintInput, PageDeadline};

/// Runs every configured rule, one at a time, in registry order.
pub(super) fn lint(input: &LintInput<'_>, config: &LintConfig) -> LintReport {
    let mut out = Sink::new(config);
    for rule in RuleId::ALL {
        if !out.on(rule) {
            continue;
        }
        let mut emit =
            |span: Span, message: String, witness: Witness| out.emit(rule, span, message, witness);
        match rule {
            RuleId::ExpectedTimeGap => expected_time_gap(input, &mut emit),
            RuleId::FirstAppearanceLate => first_appearance_late(input, &mut emit),
            RuleId::NeverBroadcast => never_broadcast(input, &mut emit),
            RuleId::FrequencyDeficit => frequency_deficit(input, &mut emit),
            RuleId::ChannelsBelowMinimum => channels_below_minimum(input, &mut emit),
            RuleId::StretchExceeded => stretch_exceeded(input, config, &mut emit),
            RuleId::DeadAir => {
                if let Some(program) = input.program {
                    dead_air(program, &mut out);
                }
            }
            RuleId::DuplicateInColumn => {
                if let Some(program) = input.program {
                    duplicate_in_column(program, &mut emit);
                }
            }
            RuleId::NonGeometricLadder => non_geometric_ladder(input, &mut out),
            RuleId::AbsurdExpectedTime => absurd_expected_time(input, &mut out),
            RuleId::FrequencyNonMonotone => frequency_non_monotone(input, &mut out),
        }
    }
    LintReport::new(out.diagnostics)
}

type Emit<'e> = dyn FnMut(Span, String, Witness) + 'e;

/// `program` against a listed catalogue of `(page, expected time)`
/// pairs, in the pairs' order: the distinct times gathered by
/// binary-search insertion, and each deadline's group ranked by a
/// partition-point search. The library reads a live catalogue in place
/// ([`LintInput::for_live_catalogue`]); the tests hold it to this.
pub(super) fn for_catalogue<'a>(
    program: &'a BroadcastProgram,
    catalogue: &[(PageId, u64)],
) -> LintInput<'a> {
    let mut times: Vec<u64> = Vec::new();
    for &(_, t) in catalogue {
        if let Err(at) = times.binary_search(&t) {
            times.insert(at, t);
        }
    }
    let deadlines = catalogue
        .iter()
        .map(|&(page, limit)| {
            let rank = times.partition_point(|&t| t < limit);
            PageDeadline {
                page,
                limit,
                group: GroupId::new(u32::try_from(rank).unwrap_or(u32::MAX)),
            }
        })
        .collect();
    LintInput {
        program: Some(program),
        deadlines: Deadlines::Listed(deadlines),
        group_times: times,
        raw_groups: None,
        frequencies: None,
    }
}

/// `AP05` as it was: every page's cells and columns looked up, and the
/// columns of a page with more cells than columns searched.
fn duplicate_in_column(program: &BroadcastProgram, emit: &mut Emit<'_>) {
    for page in program.pages() {
        let cells: Vec<GridPos> = program.occurrences(page).collect();
        if cells.len() == program.occurrence_columns(page).len() {
            continue; // No column holds the page twice.
        }
        for &column in program.occurrence_columns(page) {
            let in_column: Vec<GridPos> = cells
                .iter()
                .filter(|c| c.slot.index() == column)
                .copied()
                .collect();
            if in_column.len() > 1 {
                emit(
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

/// The grid cell holding `page`'s occurrence at `column` (lowest channel
/// wins when the page is duplicated across channels in that column).
fn cell_at(program: &BroadcastProgram, page: PageId, column: u64) -> Span {
    program
        .occurrences(page)
        .find(|c| c.slot.index() == column)
        .map_or(Span::Page(page), Span::Cell)
}

/// `AP01`: every cyclic gap must be at most the page's expected time. The
/// witness is the concrete tune-in instant right after the occurrence that
/// opens the oversized gap; arriving there, a client waits exactly `gap`
/// slots.
fn expected_time_gap(input: &LintInput<'_>, emit: &mut Emit<'_>) {
    let Some(program) = input.program else { return };
    let cycle = program.cycle_len();
    if cycle == 0 {
        return;
    }
    for d in input.deadlines() {
        if d.limit == 0 {
            continue; // AL02 owns zero deadlines.
        }
        let cols = program.occurrence_columns(d.page);
        if cols.is_empty() {
            continue; // AP03 owns missing pages.
        }
        for (i, gap) in cyclic_gaps_over(cols, cycle).enumerate() {
            if gap > d.limit {
                let start = cols[i];
                let arrival = (start + 1) % cycle;
                emit(
                    cell_at(program, d.page, start),
                    format!(
                        "{} leaves a {gap}-slot gap after column {start}, above its \
                         expected time of {} slots",
                        d.page, d.limit
                    ),
                    Witness::TuneIn {
                        page: d.page,
                        arrival,
                        wait: gap,
                        limit: d.limit,
                    },
                );
            }
        }
    }
}

/// `AP02`: the first appearance must land within the first `t_i` columns.
fn first_appearance_late(input: &LintInput<'_>, emit: &mut Emit<'_>) {
    let Some(program) = input.program else { return };
    for d in input.deadlines() {
        if d.limit == 0 {
            continue;
        }
        let cols = program.occurrence_columns(d.page);
        let Some(&first) = cols.first() else { continue };
        if first >= d.limit {
            emit(
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
    }
}

/// `AP03`: every page under deadline must appear at least once.
fn never_broadcast(input: &LintInput<'_>, emit: &mut Emit<'_>) {
    let Some(program) = input.program else { return };
    let cycle = program.cycle_len();
    for d in input.deadlines() {
        if program.occurrence_columns(d.page).is_empty() {
            let required = if d.limit == 0 {
                1
            } else {
                cycle.div_ceil(d.limit)
            };
            emit(
                Span::Page(d.page),
                format!("{} never appears in the program", d.page),
                Witness::Frequency {
                    page: d.page,
                    observed: 0,
                    required: required.max(1),
                },
            );
        }
    }
}

/// `AP06`: a page with fewer than `ceil(cycle / t_i)` occurrences cannot
/// avoid an oversized gap (the gaps sum to the cycle), so the deficit is
/// reported as the cause-level diagnostic next to `AP01`'s symptoms.
fn frequency_deficit(input: &LintInput<'_>, emit: &mut Emit<'_>) {
    let Some(program) = input.program else { return };
    let cycle = program.cycle_len();
    for d in input.deadlines() {
        if d.limit == 0 {
            continue;
        }
        let observed = program.frequency(d.page);
        let required = cycle.div_ceil(d.limit);
        if observed > 0 && observed < required {
            emit(
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
    }
}

/// `AP07`: Theorem 3.1 — `N >= ceil(sum over pages of 1/t_p)` channels are
/// necessary for any valid program.
fn channels_below_minimum(input: &LintInput<'_>, emit: &mut Emit<'_>) {
    let Some(program) = input.program else { return };
    if input.deadlines().is_empty() {
        return;
    }
    let times: Vec<u64> = input.deadlines().iter().map(|d| d.limit).collect();
    if times.contains(&0) {
        return; // AL02 owns zero deadlines; the bound is undefined.
    }
    let Ok(minimum) = bound::minimum_channels_for_times(&times) else {
        return;
    };
    let configured = program.channels();
    if configured < minimum {
        emit(
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

/// `AL04`: per-group delay factor — the worst wait of any page of the
/// group, divided by `t_i`, must stay within `max_stretch`.
fn stretch_exceeded(input: &LintInput<'_>, config: &LintConfig, emit: &mut Emit<'_>) {
    let Some(program) = input.program else { return };
    let cycle = program.cycle_len();
    if cycle == 0 {
        return;
    }
    let max_stretch = config.max_stretch();
    let mut worst: Vec<Option<(PageId, u64)>> = vec![None; input.group_times.len()];
    for d in input.deadlines() {
        let idx = d.group.index() as usize;
        if d.limit == 0 || idx >= worst.len() {
            continue;
        }
        let Some(gap) = cyclic_gaps_over(program.occurrence_columns(d.page), cycle).max() else {
            continue; // AP03 owns missing pages.
        };
        if worst[idx].is_none_or(|(_, w)| gap > w) {
            worst[idx] = Some((d.page, gap));
        }
    }
    for (idx, entry) in worst.iter().enumerate() {
        let Some((page, worst_wait)) = *entry else {
            continue;
        };
        let limit = input.group_times[idx];
        #[allow(clippy::cast_precision_loss)]
        let stretch = worst_wait as f64 / limit as f64;
        if stretch > max_stretch {
            let group = GroupId::new(u32::try_from(idx).unwrap_or(u32::MAX));
            emit(
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
