//! What the analyzer looks at: a program grid, per-page deadlines, and the
//! plan shape they came from.
//!
//! The construction paths correspond to the places the linter is wired
//! in:
//!
//! * [`LintInput::for_program`] — a program plus the [`GroupLadder`] it was
//!   scheduled from (CLI on well-formed inputs, analysis sweeps);
//! * [`LintInput::for_raw_groups`] — unvalidated `(time, count)` pairs,
//!   exactly as a user typed them, so plan rules can flag ladders that
//!   [`GroupLadder::new`] would reject outright (CLI `--groups`);
//! * [`LintInput::for_live_catalogue`] and
//!   [`LintInput::for_catalogue_change`] — a scheduler's live
//!   [`Catalogue`], read in place (the station's plan-swap gate).

use airsched_core::dynamic::Catalogue;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{GroupId, PageId};

/// One page's service obligation: meet `limit` slots from any tune-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageDeadline {
    /// The page.
    pub page: PageId,
    /// Its expected time, in slots.
    pub limit: u64,
    /// The ladder group the page belongs to (synthesized for catalogues).
    pub group: GroupId,
}

/// Where the per-page deadlines come from.
#[derive(Debug, Clone)]
pub(crate) enum Deadlines<'a> {
    /// Every page's deadline, listed.
    Listed(Vec<PageDeadline>),
    /// A live catalogue read in place. With `touched`, the per-page
    /// rules look only at those pages (ascending ids).
    Live {
        catalogue: Catalogue<'a>,
        touched: Option<&'a [PageId]>,
    },
}

/// Everything one lint run analyzes.
#[derive(Debug, Clone)]
pub struct LintInput<'a> {
    pub(crate) program: Option<&'a BroadcastProgram>,
    pub(crate) deadlines: Deadlines<'a>,
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
            deadlines: Deadlines::Listed(deadlines),
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
            deadlines: Deadlines::Listed(deadlines),
            group_times: groups.iter().map(|&(t, _)| t).collect(),
            raw_groups: Some(groups.to_vec()),
            frequencies: None,
        }
    }

    /// Lints `program` against a scheduler's live catalogue of per-page
    /// deadlines, read in place, as the station's plan-swap gate sees
    /// them. Groups are the catalogue's distinct times, ascending, and
    /// Theorem 3.1's bound is taken from its per-time page counts;
    /// plan-shape rules are skipped because the grouping is not a user
    /// artifact.
    #[must_use]
    pub fn for_live_catalogue(program: &'a BroadcastProgram, catalogue: Catalogue<'a>) -> Self {
        Self::live(program, catalogue, None)
    }

    /// As [`LintInput::for_live_catalogue`], with the per-page deadline
    /// rules (`AP01`–`AP03`, `AP06` and `AL04`'s per-page waits) run only
    /// for `touched`, in ascending id order. The grid-wide rules and
    /// Theorem 3.1's bound still cover the whole program.
    ///
    /// The caller vouches for every other catalogue page: it is aired by
    /// `program` with every cyclic gap at most its expected time. Then
    /// none of those pages can raise a per-page finding (`AL04` fires
    /// only above `max_stretch · t`, and a gap within `t` is within that
    /// when `max_stretch >= 1`), and the report equals the full lint's.
    /// The station's pre-swap gate vouches with row versions: the
    /// untouched pages sit on rows unchanged from a base that passed.
    #[must_use]
    pub fn for_catalogue_change(
        program: &'a BroadcastProgram,
        catalogue: Catalogue<'a>,
        touched: &'a [PageId],
    ) -> Self {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        Self::live(program, catalogue, Some(touched))
    }

    fn live(
        program: &'a BroadcastProgram,
        catalogue: Catalogue<'a>,
        touched: Option<&'a [PageId]>,
    ) -> Self {
        Self {
            program: Some(program),
            deadlines: Deadlines::Live { catalogue, touched },
            group_times: catalogue.groups().iter().map(|&(t, _)| t).collect(),
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

    /// The per-page deadlines under analysis, in input order: every
    /// listed or live page, or only the touched ones of a
    /// [`LintInput::for_catalogue_change`] input. The per-rule reference
    /// lint reads them.
    #[cfg(test)]
    pub(crate) fn deadlines(&self) -> Vec<PageDeadline> {
        let mut out = Vec::new();
        self.for_each_deadline(|d| out.push(d));
        out
    }

    /// Calls `visit` with each per-page deadline under analysis, in input
    /// order: every listed or live page, or only the touched ones of a
    /// [`LintInput::for_catalogue_change`] input. The rules' walk.
    pub(crate) fn for_each_deadline(&self, mut visit: impl FnMut(PageDeadline)) {
        match &self.deadlines {
            Deadlines::Listed(list) => list.iter().for_each(|&d| visit(d)),
            Deadlines::Live {
                catalogue,
                touched: None,
            } => catalogue
                .iter()
                .for_each(|(page, t)| visit(self.live_deadline(page, t))),
            Deadlines::Live {
                catalogue,
                touched: Some(pages),
            } => {
                for &page in *pages {
                    if let Some(t) = catalogue.get(page) {
                        visit(self.live_deadline(page, t));
                    }
                }
            }
        }
    }

    /// Whether the input carries no deadline at all (a change set does
    /// not count: this is the whole catalogue).
    pub(crate) fn has_no_deadlines(&self) -> bool {
        match &self.deadlines {
            Deadlines::Listed(list) => list.is_empty(),
            Deadlines::Live { catalogue, .. } => catalogue.is_empty(),
        }
    }

    /// A live page's deadline: its group is its time's rank among the
    /// catalogue's distinct times.
    fn live_deadline(&self, page: PageId, limit: u64) -> PageDeadline {
        let rank = self.group_times.partition_point(|&t| t < limit);
        PageDeadline {
            page,
            limit,
            group: GroupId::new(u32::try_from(rank).unwrap_or(u32::MAX)),
        }
    }

    /// The live catalogue's pages per distinct time, ascending by time,
    /// or `None` for listed deadlines.
    pub(crate) fn live_groups(&self) -> Option<&'a [(u64, u64)]> {
        match &self.deadlines {
            Deadlines::Listed(_) => None,
            Deadlines::Live { catalogue, .. } => Some(catalogue.groups()),
        }
    }
}
