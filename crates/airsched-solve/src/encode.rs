//! Constraint encoders: from scheduling inputs to difference systems.
//!
//! Two encodings share one variable vocabulary (see
//! [`crate::certificate::VarName`]):
//!
//! **Ladder mode** (`ladder + channel budget`, no program): over one cycle
//! `T = t_h`, a valid program must air page `p` of a group with expected
//! time `t` exactly `m = T / t` times (condition 2 forces a gap of at
//! most `t` between consecutive airings, and `m` airings are the fewest
//! that close the cycle; extra airings only tighten the system, so the
//! canonical count is the weakest — i.e. complete — choice). Per page:
//! first appearance `x[p,0] - z <= t-1`, gaps
//! `x[p,k+1] - x[p,k] <= t`, the wraparound `x[p,0] - x[p,m-1] <= t - T`,
//! ordering and range edges. Capacity is not a difference of two page
//! variables, so it is expressed over the *sorted token chain*: the
//! multiset of all `M = sum_p T/t_p` cell placements, sorted by column,
//! gives tokens `s[1] <= ... <= s[M]`; with `N` channels at most `N`
//! tokens share a column, hence `s[j] - s[j+N] <= -1`, and every token
//! lies in `[0, T-1]`. A negative cycle through that chain exists exactly
//! when `M > N * T`, which is exactly Theorem 3.1's
//! `N < ceil(sum_i P_i / t_i)` — so the solver refutes under-budgeted
//! ladders with an explicit pigeonhole cycle of about `T + 2` edges.
//!
//! **Observed mode** (`program + per-page deadlines`): the model edges
//! for the *observed* occurrence counts, plus observation edges pinning
//! each occurrence to the column where the program actually airs it
//! (`x = v` as the pair `x - z <= v`, `z - x <= -v`). A violated deadline
//! then shows up as a short negative cycle mixing one broken model edge
//! with the observations that break it; a page that never airs gets the
//! horizon observation `z - x[p,0] <= -max(T, t)`, which contradicts its
//! first-appearance edge. The verdict provably matches
//! [`airsched_core::validity::check`] on any input: each validity
//! violation induces one of the cycles above, and a valid program is
//! itself a satisfying assignment (set `z = 0`, `x = v`), which rules
//! every negative cycle out.

use airsched_core::error::ScheduleError;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::PageId;

use crate::certificate::{ConstraintKind, VarName};
use crate::graph::{DiffGraph, ORIGIN};

/// Hard cap on capacity-chain tokens (and with them variables/edges), so
/// absurd cycle lengths fail loudly instead of exhausting memory. The
/// paper-scale workload (1000 pages, `t = 4..512`) needs ~32k tokens.
const MAX_TOKENS: u128 = 1 << 20;

/// Saturating `u64 -> i64` for constraint bounds. Expected times beyond
/// `i64::MAX` slots are not representable; they saturate, which only
/// loosens bounds that could never bind at any physical scale.
fn bound(x: u64) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

/// Total capacity tokens `M = sum_p T / t_p` for a ladder.
pub(crate) fn token_count(ladder: &GroupLadder) -> u128 {
    let cycle = ladder.max_time();
    ladder
        .times()
        .iter()
        .zip(ladder.page_counts())
        .map(|(&t, &p)| u128::from(cycle / t) * u128::from(p))
        .sum()
}

/// Builds the ladder-mode system for `ladder` under `channels`.
///
/// # Errors
///
/// Returns [`ScheduleError::WorkloadTooLarge`] when the system would
/// exceed [`MAX_TOKENS`] capacity tokens.
pub(crate) fn ladder_system(
    ladder: &GroupLadder,
    channels: u32,
) -> Result<DiffGraph, ScheduleError> {
    let cycle = ladder.max_time();
    let tokens = token_count(ladder);
    if tokens > MAX_TOKENS {
        return Err(ScheduleError::WorkloadTooLarge {
            reason: "difference-constraint system exceeds the solver's token budget",
        });
    }
    let tokens = u64::try_from(tokens).expect("token count under MAX_TOKENS fits u64");
    let vars = usize::try_from(2 * tokens).expect("variable count fits usize");
    // Per occurrence: gap + order + 2 range edges (~4), plus first/wrap
    // per page; per token: span + start + capacity (~3).
    let mut graph = DiffGraph::with_capacity(vars, vars * 4);

    for (page, group) in ladder.pages() {
        let t = ladder.time_of(group).slots();
        let m = cycle / t;
        let occs: Vec<u32> = (0..m)
            .map(|k| graph.var(VarName::Occurrence { page, occ: k }))
            .collect();
        graph.constrain(
            occs[0],
            ORIGIN,
            bound(t) - 1,
            ConstraintKind::First { limit: t },
        );
        for k in 0..(m as usize) {
            if k + 1 < m as usize {
                graph.constrain(
                    occs[k + 1],
                    occs[k],
                    bound(t),
                    ConstraintKind::Gap { limit: t },
                );
                graph.constrain(occs[k], occs[k + 1], -1, ConstraintKind::Order);
            }
            graph.constrain(ORIGIN, occs[k], 0, ConstraintKind::RangeLo);
            graph.constrain(
                occs[k],
                ORIGIN,
                bound(cycle) - 1,
                ConstraintKind::RangeHi { cycle },
            );
        }
        graph.constrain(
            occs[0],
            occs[m as usize - 1],
            bound(t).saturating_sub(bound(cycle)),
            ConstraintKind::Wrap { limit: t, cycle },
        );
    }

    let tok: Vec<u32> = (1..=tokens)
        .map(|rank| graph.var(VarName::Token { rank }))
        .collect();
    for (j, &s) in tok.iter().enumerate() {
        graph.constrain(
            s,
            ORIGIN,
            bound(cycle) - 1,
            ConstraintKind::TokenSpan { cycle },
        );
        graph.constrain(ORIGIN, s, 0, ConstraintKind::TokenStart);
        let above = j + channels as usize;
        if above < tok.len() || channels == 0 {
            let target = if channels == 0 { s } else { tok[above] };
            graph.constrain(s, target, -1, ConstraintKind::Capacity { channels });
        }
    }

    Ok(graph)
}

/// Builds the observed-mode system for `program` against per-page
/// `deadlines` (`(page, expected_time)` pairs, as the station's catalogue
/// keeps them).
pub(crate) fn observed_system(
    program: &BroadcastProgram,
    deadlines: &[(PageId, u64)],
) -> DiffGraph {
    let cycle = program.cycle_len();
    let mut graph = DiffGraph::new();
    for &(page, t) in deadlines {
        let cols = program.occurrence_columns(page);
        if cols.is_empty() {
            let x = graph.var(VarName::Occurrence { page, occ: 0 });
            graph.constrain(x, ORIGIN, bound(t) - 1, ConstraintKind::First { limit: t });
            let horizon = cycle.max(t);
            graph.constrain(
                ORIGIN,
                x,
                -bound(horizon),
                ConstraintKind::NeverObserved { horizon },
            );
            continue;
        }
        let occs: Vec<u32> = (0..cols.len() as u64)
            .map(|k| graph.var(VarName::Occurrence { page, occ: k }))
            .collect();
        graph.constrain(
            occs[0],
            ORIGIN,
            bound(t) - 1,
            ConstraintKind::First { limit: t },
        );
        for k in 0..cols.len() {
            if k + 1 < cols.len() {
                graph.constrain(
                    occs[k + 1],
                    occs[k],
                    bound(t),
                    ConstraintKind::Gap { limit: t },
                );
            }
            let v = bound(cols[k]);
            graph.constrain(
                occs[k],
                ORIGIN,
                v,
                ConstraintKind::ObservedUpper { column: cols[k] },
            );
            graph.constrain(
                ORIGIN,
                occs[k],
                -v,
                ConstraintKind::ObservedLower { column: cols[k] },
            );
        }
        graph.constrain(
            occs[0],
            occs[cols.len() - 1],
            bound(t).saturating_sub(bound(cycle)),
            ConstraintKind::Wrap { limit: t, cycle },
        );
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::bound::minimum_channels;
    use airsched_core::susc;
    use airsched_core::types::{ChannelId, GridPos, SlotIndex};

    fn ladder() -> GroupLadder {
        GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap()
    }

    #[test]
    fn ladder_system_is_satisfiable_at_the_minimum() {
        let min = minimum_channels(&ladder());
        let graph = ladder_system(&ladder(), min).unwrap();
        assert!(graph.negative_cycle().is_none());
    }

    #[test]
    fn ladder_system_refutes_below_the_minimum() {
        let min = minimum_channels(&ladder());
        let graph = ladder_system(&ladder(), min - 1).unwrap();
        let cycle = graph.negative_cycle().expect("must refute");
        let sum: i64 = cycle.iter().map(|e| e.bound).sum();
        assert!(sum < 0, "cycle sum {sum}");
    }

    #[test]
    fn zero_channels_refute_via_a_self_loop() {
        let graph = ladder_system(&ladder(), 0).unwrap();
        assert!(graph.negative_cycle().is_some());
    }

    #[test]
    fn token_count_matches_theorem_31_numerator() {
        // M / T == sum P_i / t_i: 2/2 + 3/4 = 1.75 -> M = 7 at T = 4.
        assert_eq!(token_count(&ladder()), 7);
    }

    #[test]
    fn observed_system_accepts_a_valid_susc_program() {
        let l = ladder();
        let program = susc::schedule(&l, minimum_channels(&l)).unwrap();
        let deadlines: Vec<(PageId, u64)> =
            l.pages().map(|(p, g)| (p, l.time_of(g).slots())).collect();
        assert!(observed_system(&program, &deadlines)
            .negative_cycle()
            .is_none());
    }

    #[test]
    fn observed_system_refutes_a_gap_violation() {
        // One page, expected time 2, aired only at column 0 of a 4-cycle:
        // the wraparound gap is 4 > 2.
        let mut p = BroadcastProgram::new(1, 4);
        p.place(
            GridPos::new(ChannelId::new(0), SlotIndex::new(0)),
            PageId::new(0),
        )
        .unwrap();
        let g = observed_system(&p, &[(PageId::new(0), 2)]);
        let cycle = g.negative_cycle().expect("wrap violation must refute");
        let sum: i64 = cycle.iter().map(|e| e.bound).sum();
        assert!(sum < 0);
    }

    #[test]
    fn observed_system_refutes_a_missing_page() {
        let p = BroadcastProgram::new(1, 4);
        let g = observed_system(&p, &[(PageId::new(0), 8)]);
        assert!(g.negative_cycle().is_some());
    }

    #[test]
    fn giant_times_saturate_instead_of_overflowing() {
        let mut p = BroadcastProgram::new(1, 4);
        p.place(
            GridPos::new(ChannelId::new(0), SlotIndex::new(0)),
            PageId::new(0),
        )
        .unwrap();
        let g = observed_system(&p, &[(PageId::new(0), u64::MAX)]);
        assert!(g.negative_cycle().is_none());
    }
}
