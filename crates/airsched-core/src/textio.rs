//! Plain-text serialization of broadcast programs and ladders.
//!
//! A broadcast program is operational state a server wants to persist,
//! diff, and ship to transmitters; this module defines a stable,
//! human-readable format for that, with no external serialization
//! dependencies.
//!
//! ```text
//! airsched-program v1
//! channels 3
//! cycle 9
//! grid
//! 0 3 6 0 9 0 3 0 6
//! 1 4 7 1 10 1 4 1 7
//! 2 5 8 2 . 2 5 2 .
//! ```
//!
//! Ladders serialize on one line as `time:count` pairs: `2:3 4:5 8:3`.

use core::fmt;

use crate::error::ScheduleError;
use crate::group::GroupLadder;
use crate::program::BroadcastProgram;
use crate::types::{ChannelId, GridPos, PageId, SlotIndex, PAGE_ID_LIMIT};

/// Magic first line of the program format.
const MAGIC: &str = "airsched-program v1";

/// Error parsing the text formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTextError {
    /// 1-based line of the problem (0 for structural problems).
    pub line: usize,
    /// 1-based column of the problem (0 when only the line is known).
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.column > 0 {
            write!(
                f,
                "line {}, col {}: {}",
                self.line, self.column, self.message
            )
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseTextError {}

fn err(line: usize, message: impl Into<String>) -> ParseTextError {
    ParseTextError {
        line,
        column: 0,
        message: message.into(),
    }
}

fn err_at(line: usize, column: usize, message: impl Into<String>) -> ParseTextError {
    ParseTextError {
        line,
        column,
        message: message.into(),
    }
}

/// Maps grid cells of a parsed program back to `line:column` positions in
/// the source text, so diagnostics on a parsed program can point at the
/// offending cell in the file a human edited.
///
/// Every cell of the grid — including empty `.` cells — is recorded. Lines
/// and columns are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMap {
    cycle: u64,
    /// `(line, column)` per cell, channel-major; `(0, 0)` = unrecorded.
    cells: Vec<(u32, u32)>,
}

impl SourceMap {
    fn new(channels: u32, cycle: u64) -> Self {
        let len = usize::try_from(u64::from(channels) * cycle).expect("grid fits in memory");
        Self {
            cycle,
            cells: vec![(0, 0); len],
        }
    }

    fn record(&mut self, pos: GridPos, line: usize, column: usize) {
        let idx = usize::try_from(u64::from(pos.channel.index()) * self.cycle + pos.slot.index())
            .expect("grid fits in memory");
        self.cells[idx] = (
            u32::try_from(line).unwrap_or(u32::MAX),
            u32::try_from(column).unwrap_or(u32::MAX),
        );
    }

    /// The `(line, column)` of the cell at `pos`, both 1-based, or `None`
    /// if the position is outside the recorded grid.
    #[must_use]
    pub fn location(&self, pos: GridPos) -> Option<(usize, usize)> {
        if pos.slot.index() >= self.cycle {
            return None;
        }
        let idx = usize::try_from(u64::from(pos.channel.index()) * self.cycle + pos.slot.index())
            .ok()
            .filter(|&i| i < self.cells.len())?;
        let (line, col) = self.cells[idx];
        (line > 0).then_some((line as usize, col as usize))
    }
}

/// Splits a line on whitespace, yielding each token with its 1-based
/// starting column (byte offset; the format is ASCII).
fn tokens(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.split_whitespace().map(move |tok| {
        let offset = tok.as_ptr() as usize - line.as_ptr() as usize;
        (offset + 1, tok)
    })
}

/// Serializes a program to the v1 text format.
///
/// # Examples
///
/// ```
/// use airsched_core::group::GroupLadder;
/// use airsched_core::susc;
/// use airsched_core::textio::{parse_program, write_program};
///
/// let ladder = GroupLadder::new(vec![(2, 2), (4, 3)])?;
/// let program = susc::schedule(&ladder, 2)?;
/// let text = write_program(&program);
/// assert_eq!(parse_program(&text)?, program);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn write_program(program: &BroadcastProgram) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("channels {}\n", program.channels()));
    out.push_str(&format!("cycle {}\n", program.cycle_len()));
    out.push_str("grid\n");
    let cols = usize::try_from(program.cycle_len()).expect("a row fits in memory");
    for row in program.cells().chunks(cols) {
        for (slot, cell) in row.iter().enumerate() {
            if slot > 0 {
                out.push(' ');
            }
            match cell {
                Some(p) => out.push_str(&p.index().to_string()),
                None => out.push('.'),
            }
        }
        out.push('\n');
    }
    out
}

/// Parses the v1 text format back into a program.
///
/// # Errors
///
/// Returns [`ParseTextError`] describing the first malformed line.
pub fn parse_program(text: &str) -> Result<BroadcastProgram, ParseTextError> {
    parse_program_with_map(text).map(|(program, _)| program)
}

/// [`parse_program`], additionally returning a [`SourceMap`] from grid
/// cells back to `line:column` positions in `text`.
///
/// # Errors
///
/// Returns [`ParseTextError`] describing the first malformed line; cell-level
/// problems (bad page ids, double-placed slots) carry the cell's column.
pub fn parse_program_with_map(text: &str) -> Result<(BroadcastProgram, SourceMap), ParseTextError> {
    let mut lines = text.lines().enumerate();
    let (_, magic) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if magic.trim() != MAGIC {
        return Err(err(1, format!("expected '{MAGIC}'")));
    }
    let channels = parse_kv(lines.next(), "channels")?;
    let cycle = parse_kv(lines.next(), "cycle")?;
    let channels = u32::try_from(channels).map_err(|_| err(2, "channels out of range"))?;
    if channels == 0 || cycle == 0 {
        return Err(err(2, "channels and cycle must be positive"));
    }
    // Reject absurd header dimensions before allocating the grid: the
    // allocation is `channels * cycle` cells and must not be driven into a
    // capacity-overflow panic (or an OOM) by hostile input.
    const MAX_PARSE_CELLS: u128 = PAGE_ID_LIMIT as u128;
    if u128::from(channels) * u128::from(cycle) > MAX_PARSE_CELLS {
        return Err(err(2, "program dimensions too large"));
    }
    let (grid_line_no, grid) = lines.next().ok_or_else(|| err(0, "missing 'grid'"))?;
    if grid.trim() != "grid" {
        return Err(err(grid_line_no + 1, "expected 'grid'"));
    }

    let mut program = BroadcastProgram::new(channels, cycle);
    let mut map = SourceMap::new(channels, cycle);
    let mut rows = 0u32;
    for (line_no, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        if rows >= channels {
            return Err(err(line_no + 1, "more grid rows than channels"));
        }
        let cells: Vec<(usize, &str)> = tokens(line).collect();
        if cells.len() as u64 != cycle {
            return Err(err(
                line_no + 1,
                format!("expected {cycle} cells, found {}", cells.len()),
            ));
        }
        for (slot, &(column, cell)) in cells.iter().enumerate() {
            let pos = GridPos::new(ChannelId::new(rows), SlotIndex::new(slot as u64));
            map.record(pos, line_no + 1, column);
            if cell == "." {
                continue;
            }
            let page: u32 = cell
                .parse()
                .map_err(|_| err_at(line_no + 1, column, format!("bad page id '{cell}'")))?;
            // Page ids index dense per-page tables; a hostile id like
            // u32::MAX would make the program allocate a table that large.
            if page >= PAGE_ID_LIMIT {
                return Err(err_at(
                    line_no + 1,
                    column,
                    format!("page id '{cell}' too large"),
                ));
            }
            program
                .place(pos, PageId::new(page))
                .map_err(|e| err_at(line_no + 1, column, e.to_string()))?;
        }
        rows += 1;
    }
    if rows != channels {
        return Err(err(
            0,
            format!("expected {channels} grid rows, found {rows}"),
        ));
    }
    Ok((program, map))
}

fn parse_kv(line: Option<(usize, &str)>, key: &str) -> Result<u64, ParseTextError> {
    let (line_no, line) = line.ok_or_else(|| err(0, format!("missing '{key}'")))?;
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some(k), Some(v), None) if k == key => v
            .parse()
            .map_err(|_| err(line_no + 1, format!("bad {key} value '{v}'"))),
        _ => Err(err(line_no + 1, format!("expected '{key} <number>'"))),
    }
}

/// Serializes a ladder as `time:count` pairs (`2:3 4:5 8:3`).
#[must_use]
pub fn write_ladder(ladder: &GroupLadder) -> String {
    ladder
        .times()
        .iter()
        .zip(ladder.page_counts())
        .map(|(t, p)| format!("{t}:{p}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses the `time:count` ladder format.
///
/// # Errors
///
/// Returns [`ParseTextError`] on malformed pairs, or wraps the
/// [`ScheduleError`] if the pairs do not form a valid ladder.
pub fn parse_ladder(text: &str) -> Result<GroupLadder, ParseTextError> {
    let mut groups = Vec::new();
    for (i, pair) in text.split_whitespace().enumerate() {
        let (t, p) = pair
            .split_once(':')
            .ok_or_else(|| err(1, format!("pair {} ('{pair}') is not 'time:count'", i + 1)))?;
        let t: u64 = t
            .parse()
            .map_err(|_| err(1, format!("bad time '{t}' in pair {}", i + 1)))?;
        let p: u64 = p
            .parse()
            .map_err(|_| err(1, format!("bad count '{p}' in pair {}", i + 1)))?;
        groups.push((t, p));
    }
    GroupLadder::new(groups).map_err(|e: ScheduleError| err(1, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pamad, susc};

    fn fig2_ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)]).unwrap()
    }

    #[test]
    fn program_round_trips_susc() {
        let program = susc::schedule(&fig2_ladder(), 4).unwrap();
        let text = write_program(&program);
        assert_eq!(parse_program(&text).unwrap(), program);
    }

    #[test]
    fn program_round_trips_pamad_with_holes() {
        let program = pamad::schedule(&fig2_ladder(), 3).unwrap().into_program();
        let text = write_program(&program);
        assert!(
            text.contains('.'),
            "PAMAD program should have holes:\n{text}"
        );
        assert_eq!(parse_program(&text).unwrap(), program);
    }

    #[test]
    fn rejects_bad_magic() {
        let e = parse_program("nonsense v9\n").unwrap_err();
        assert!(e.to_string().contains("expected"));
    }

    #[test]
    fn rejects_wrong_cell_count() {
        let text = "airsched-program v1\nchannels 1\ncycle 3\ngrid\n1 2\n";
        let e = parse_program(text).unwrap_err();
        assert!(e.message.contains("expected 3 cells"));
        assert_eq!(e.line, 5);
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let text = "airsched-program v1\nchannels 2\ncycle 2\ngrid\n1 2\n";
        assert!(parse_program(text).unwrap_err().message.contains("rows"));
        let text = "airsched-program v1\nchannels 1\ncycle 2\ngrid\n1 2\n3 4\n";
        assert!(parse_program(text).unwrap_err().message.contains("rows"));
    }

    #[test]
    fn rejects_bad_page_and_structure() {
        let text = "airsched-program v1\nchannels 1\ncycle 2\ngrid\n1 x\n";
        assert!(parse_program(text)
            .unwrap_err()
            .message
            .contains("bad page id"));
        assert!(parse_program("").is_err());
        // An id that parses as u32 but would force a multi-gigabyte dense
        // page table is rejected, not allocated.
        let text = "airsched-program v1\nchannels 1\ncycle 2\ngrid\n4294967295 .\n";
        assert!(parse_program(text)
            .unwrap_err()
            .message
            .contains("too large"));
        let text = "airsched-program v1\nchannels 0\ncycle 2\ngrid\n";
        assert!(parse_program(text).is_err());
        let text = "airsched-program v1\nchannels a\ncycle 2\ngrid\n";
        assert!(parse_program(text).is_err());
    }

    #[test]
    fn malformed_headers_carry_line_positions() {
        // Wrong key on the channels line.
        let e = parse_program("airsched-program v1\nchanels 2\ncycle 2\ngrid\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected 'channels <number>'"));
        // Non-numeric cycle value.
        let e = parse_program("airsched-program v1\nchannels 2\ncycle two\ngrid\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bad cycle value 'two'"));
        // Extra token on a header line.
        let e = parse_program("airsched-program v1\nchannels 2 3\ncycle 2\ngrid\n").unwrap_err();
        assert_eq!(e.line, 2);
        // Missing 'grid' marker.
        let e = parse_program("airsched-program v1\nchannels 1\ncycle 1\nnope\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("expected 'grid'"));
    }

    #[test]
    fn ragged_rows_are_rejected_with_positions() {
        // Short row.
        let e = parse_program("airsched-program v1\nchannels 1\ncycle 3\ngrid\n1 2\n").unwrap_err();
        assert_eq!((e.line, e.column), (5, 0));
        assert!(e.message.contains("expected 3 cells, found 2"));
        // Long row.
        let e =
            parse_program("airsched-program v1\nchannels 1\ncycle 2\ngrid\n1 2 3\n").unwrap_err();
        assert!(e.message.contains("expected 2 cells, found 3"));
    }

    #[test]
    fn oversized_dimensions_hit_the_cell_budget_guard() {
        // channels * cycle beyond PAGE_ID_LIMIT (1 << 24) cells must be refused
        // before any allocation happens.
        let text = "airsched-program v1\nchannels 4096\ncycle 4097\ngrid\n";
        let e = parse_program(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.message, "program dimensions too large");
    }

    #[test]
    fn cell_errors_carry_columns() {
        let e =
            parse_program("airsched-program v1\nchannels 1\ncycle 3\ngrid\n7 . x\n").unwrap_err();
        assert_eq!((e.line, e.column), (5, 5));
        assert!(e.to_string().contains("line 5, col 5: bad page id 'x'"));
    }

    #[test]
    fn source_map_locates_cells() {
        let text = "airsched-program v1\nchannels 2\ncycle 3\ngrid\n0 1 2\n3 .  4\n";
        let (program, map) = parse_program_with_map(text).unwrap();
        assert_eq!(program.channels(), 2);
        let pos = |ch, slot| GridPos::new(ChannelId::new(ch), SlotIndex::new(slot));
        assert_eq!(map.location(pos(0, 0)), Some((5, 1)));
        assert_eq!(map.location(pos(0, 2)), Some((5, 5)));
        // Empty cells are recorded too, and extra spacing shifts columns.
        assert_eq!(map.location(pos(1, 1)), Some((6, 3)));
        assert_eq!(map.location(pos(1, 2)), Some((6, 6)));
        // Positions outside the grid are None.
        assert_eq!(map.location(pos(2, 0)), None);
        assert_eq!(map.location(pos(0, 3)), None);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let program = susc::schedule(&fig2_ladder(), 4).unwrap();
        let mut text = write_program(&program);
        text.push('\n');
        assert_eq!(parse_program(&text).unwrap(), program);
    }

    #[test]
    fn ladder_round_trips() {
        let ladder = fig2_ladder();
        let text = write_ladder(&ladder);
        assert_eq!(text, "2:3 4:5 8:3");
        assert_eq!(parse_ladder(&text).unwrap(), ladder);
    }

    #[test]
    fn ladder_parse_errors() {
        assert!(parse_ladder("2-3").is_err());
        assert!(parse_ladder("a:3").is_err());
        assert!(parse_ladder("2:b").is_err());
        assert!(parse_ladder("").is_err()); // empty ladder invalid
        assert!(parse_ladder("2:3 3:1").is_err()); // non-divisible times
    }
}
