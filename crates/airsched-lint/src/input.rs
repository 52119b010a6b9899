//! What the analyzer looks at: a program grid, per-page deadlines, and the
//! plan shape they came from.
//!
//! The three construction paths correspond to the three places the linter
//! is wired in:
//!
//! * [`LintInput::for_program`] — a program plus the [`GroupLadder`] it was
//!   scheduled from (CLI on well-formed inputs, analysis sweeps);
//! * [`LintInput::for_raw_groups`] — unvalidated `(time, count)` pairs,
//!   exactly as a user typed them, so plan rules can flag ladders that
//!   [`GroupLadder::new`] would reject outright (CLI `--groups`);
//! * [`LintInput::for_catalogue`] — per-page `(page, expected_time)`
//!   deadlines as the station's live catalogue keeps them (plan-swap gate).

use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{GroupId, PageId};

/// One page's service obligation: meet `limit` slots from any tune-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageDeadline {
    /// The page.
    pub page: PageId,
    /// Its expected time, in slots.
    pub limit: u64,
    /// The ladder group the page belongs to (synthesized for catalogues).
    pub group: GroupId,
}

/// Everything one lint run analyzes.
#[derive(Debug, Clone)]
pub struct LintInput<'a> {
    pub(crate) program: Option<&'a BroadcastProgram>,
    pub(crate) deadlines: Vec<PageDeadline>,
    /// Expected time per group, indexed by [`PageDeadline::group`].
    pub(crate) group_times: Vec<u64>,
    /// The plan's `(time, count)` pairs in input order, when the input
    /// carries a plan shape worth checking (`None` for catalogues, whose
    /// grouping is synthesized and not a user artifact).
    pub(crate) raw_groups: Option<Vec<(u64, u64)>>,
    /// Per-group broadcast frequencies `S_1..S_h`, when known (PAMAD).
    pub(crate) frequencies: Option<Vec<u64>>,
}

impl<'a> LintInput<'a> {
    /// Lints `program` against the ladder it was scheduled from.
    #[must_use]
    pub fn for_program(program: &'a BroadcastProgram, ladder: &GroupLadder) -> Self {
        let deadlines = ladder
            .pages()
            .map(|(page, group)| PageDeadline {
                page,
                limit: ladder.time_of(group).slots(),
                group,
            })
            .collect();
        Self {
            program: Some(program),
            deadlines,
            group_times: ladder.times().to_vec(),
            raw_groups: Some(
                ladder
                    .times()
                    .iter()
                    .copied()
                    .zip(ladder.page_counts().iter().copied())
                    .collect(),
            ),
            frequencies: None,
        }
    }

    /// Lints an optional program against *unvalidated* `(time, count)`
    /// pairs. Pages are numbered group-major from 0, mirroring
    /// [`GroupLadder`] numbering, but no ladder invariants are assumed —
    /// zero times, non-ascending times, and non-geometric steps become
    /// diagnostics instead of hard errors.
    #[must_use]
    pub fn for_raw_groups(program: Option<&'a BroadcastProgram>, groups: &[(u64, u64)]) -> Self {
        let mut deadlines = Vec::new();
        let mut next: u64 = 0;
        for (idx, &(time, count)) in groups.iter().enumerate() {
            let group = GroupId::new(u32::try_from(idx).unwrap_or(u32::MAX));
            for _ in 0..count {
                let Ok(id) = u32::try_from(next) else { break };
                deadlines.push(PageDeadline {
                    page: PageId::new(id),
                    limit: time,
                    group,
                });
                next += 1;
            }
        }
        Self {
            program,
            deadlines,
            group_times: groups.iter().map(|&(t, _)| t).collect(),
            raw_groups: Some(groups.to_vec()),
            frequencies: None,
        }
    }

    /// Lints `program` against a live catalogue of per-page deadlines, as
    /// the station's plan-swap gate sees them. Groups are synthesized from
    /// the distinct expected times (ascending); plan-shape rules are
    /// skipped because the grouping is not a user artifact.
    #[must_use]
    pub fn for_catalogue(program: &'a BroadcastProgram, catalogue: &[(PageId, u64)]) -> Self {
        // The distinct times, ascending: a catalogue holds a handful, so
        // a linear check per page finds them, and a page's group is the
        // count of distinct times below its own.
        let mut times: Vec<u64> = Vec::new();
        for &(_, t) in catalogue {
            if !times.contains(&t) {
                times.push(t);
            }
        }
        times.sort_unstable();
        let deadlines = catalogue
            .iter()
            .map(|&(page, limit)| {
                let rank = times.iter().filter(|&&t| t < limit).count();
                PageDeadline {
                    page,
                    limit,
                    group: GroupId::new(u32::try_from(rank).unwrap_or(u32::MAX)),
                }
            })
            .collect();
        Self {
            program: Some(program),
            deadlines,
            group_times: times,
            raw_groups: None,
            frequencies: None,
        }
    }

    /// Lints plan inputs alone (no program yet): `(time, count)` pairs.
    #[must_use]
    pub fn for_plan(groups: &[(u64, u64)]) -> Self {
        Self::for_raw_groups(None, groups)
    }

    /// Attaches per-group broadcast frequencies `S_1..S_h` (e.g. a PAMAD
    /// plan), enabling the frequency-monotonicity rule.
    #[must_use]
    pub fn with_frequencies(mut self, frequencies: &[u64]) -> Self {
        self.frequencies = Some(frequencies.to_vec());
        self
    }

    /// The program under analysis, if any.
    #[must_use]
    pub fn program(&self) -> Option<&'a BroadcastProgram> {
        self.program
    }

    /// The per-page deadlines under analysis.
    #[must_use]
    pub fn deadlines(&self) -> &[PageDeadline] {
        &self.deadlines
    }
}
