//! The difference-constraint graph and its negative-cycle solver.
//!
//! Every constraint `u - v <= c` becomes one edge `v -> u` of weight `c`.
//! The system is satisfiable iff the graph has no negative-weight cycle
//! (assign each variable its shortest-path distance from a virtual
//! source); a negative cycle, read back through the constraints that
//! built its edges, is a self-contained refutation — see
//! [`crate::certificate`].
//!
//! The solver is SPFA (queue-driven Bellman–Ford) with parent-edge
//! tracking. The systems built by [`crate::encode`] are unions of short
//! per-page chains and one long capacity chain, all meeting at the
//! origin, so relaxation settles in a near-linear number of edge visits;
//! the classic `len >= |V|` guard still bounds pathological inputs and is
//! what detects cycles. Iteration order is fixed (FIFO queue seeded in
//! variable order, adjacency in insertion order), so the cycle extracted
//! for a given system is deterministic — certificates are stable enough
//! to pin in byte-for-byte goldens.

use std::collections::VecDeque;

use crate::certificate::{CertEdge, ConstraintKind, VarName};

/// One directed edge of the constraint graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// Source vertex (the subtrahend `v` of `u - v <= c`).
    pub src: u32,
    /// Destination vertex (the minuend `u`).
    pub dst: u32,
    /// The bound `c`.
    pub weight: i64,
    /// The constraint this edge encodes.
    pub kind: ConstraintKind,
}

/// A growable difference-constraint system.
#[derive(Debug, Default)]
pub(crate) struct DiffGraph {
    names: Vec<VarName>,
    edges: Vec<Edge>,
}

/// The origin variable `z`, always vertex 0.
pub(crate) const ORIGIN: u32 = 0;

impl DiffGraph {
    /// A fresh system holding only the origin variable.
    pub fn new() -> Self {
        Self {
            names: vec![VarName::Origin],
            edges: Vec::new(),
        }
    }

    /// Pre-sizes the arenas (`vars` excludes the origin).
    pub fn with_capacity(vars: usize, edges: usize) -> Self {
        let mut names = Vec::with_capacity(vars + 1);
        names.push(VarName::Origin);
        Self {
            names,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Allocates a new variable.
    pub fn var(&mut self, name: VarName) -> u32 {
        let id = u32::try_from(self.names.len()).expect("variable count fits in u32");
        self.names.push(name);
        id
    }

    /// Adds the constraint `minuend - subtrahend <= bound`.
    pub fn constrain(&mut self, minuend: u32, subtrahend: u32, bound: i64, kind: ConstraintKind) {
        self.edges.push(Edge {
            src: subtrahend,
            dst: minuend,
            weight: bound,
            kind,
        });
    }

    /// The display name of a variable.
    pub fn name(&self, var: u32) -> VarName {
        self.names[var as usize]
    }

    /// Finds a negative-weight cycle, if one exists, as certificate edges
    /// in traversal order; `None` means the system is satisfiable.
    pub fn negative_cycle(&self) -> Option<Vec<CertEdge>> {
        let n = self.names.len();
        let (first, next) = self.adjacency();
        // Virtual-source initialization: dist 0 everywhere finds any
        // negative cycle regardless of reachability from the origin.
        let mut dist = vec![0i64; n];
        let mut len = vec![0u32; n];
        let mut parent = vec![usize::MAX; n];
        let mut in_queue = vec![true; n];
        let mut queue: VecDeque<u32> = (0..u32::try_from(n).expect("var count fits u32")).collect();
        let limit = u32::try_from(n).expect("var count fits u32");
        while let Some(u) = queue.pop_front() {
            in_queue[u as usize] = false;
            let mut ei = first[u as usize];
            while ei != usize::MAX {
                let e = &self.edges[ei];
                let cand = dist[u as usize].saturating_add(e.weight);
                if cand < dist[e.dst as usize] {
                    dist[e.dst as usize] = cand;
                    parent[e.dst as usize] = ei;
                    len[e.dst as usize] = len[u as usize] + 1;
                    if len[e.dst as usize] >= limit {
                        return Some(self.extract_cycle(&parent, e.dst));
                    }
                    if !in_queue[e.dst as usize] {
                        in_queue[e.dst as usize] = true;
                        queue.push_back(e.dst);
                    }
                }
                ei = next[ei];
            }
        }
        None
    }

    /// Builds per-vertex singly-linked adjacency (insertion order).
    fn adjacency(&self) -> (Vec<usize>, Vec<usize>) {
        let mut first = vec![usize::MAX; self.names.len()];
        let mut next = vec![usize::MAX; self.edges.len()];
        for (i, e) in self.edges.iter().enumerate().rev() {
            next[i] = first[e.src as usize];
            first[e.src as usize] = i;
        }
        (first, next)
    }

    /// Walks the parent-edge chain back from `start` far enough to be
    /// inside the cycle, then collects it in forward traversal order.
    fn extract_cycle(&self, parent: &[usize], start: u32) -> Vec<CertEdge> {
        let mut cur = start;
        for _ in 0..self.names.len() {
            cur = self.edges[parent[cur as usize]].src;
        }
        let anchor = cur;
        let mut cycle = Vec::new();
        loop {
            let ei = parent[cur as usize];
            let e = &self.edges[ei];
            cycle.push(CertEdge {
                minuend: self.name(e.dst),
                subtrahend: self.name(e.src),
                bound: e.weight,
                kind: e.kind,
            });
            cur = e.src;
            if cur == anchor {
                break;
            }
        }
        cycle.reverse();
        cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{Certificate, Subject};

    fn check(cycle: &[CertEdge]) -> i64 {
        let cert = Certificate::new(
            Subject::Program {
                channels: 1,
                cycle: 1,
                pages: 0,
            },
            cycle.to_vec(),
        );
        cert.replay().expect("extracted cycle must replay")
    }

    #[test]
    fn satisfiable_chain_has_no_cycle() {
        let mut g = DiffGraph::new();
        let a = g.var(VarName::Token { rank: 1 });
        let b = g.var(VarName::Token { rank: 2 });
        g.constrain(a, ORIGIN, 5, ConstraintKind::TokenStart);
        g.constrain(b, a, 3, ConstraintKind::TokenStart);
        g.constrain(ORIGIN, b, -2, ConstraintKind::TokenStart);
        assert!(g.negative_cycle().is_none());
    }

    #[test]
    fn two_edge_negative_cycle_is_found_and_replays() {
        let mut g = DiffGraph::new();
        let a = g.var(VarName::Token { rank: 1 });
        g.constrain(a, ORIGIN, 3, ConstraintKind::TokenStart);
        g.constrain(ORIGIN, a, -4, ConstraintKind::TokenStart);
        let cycle = g.negative_cycle().expect("cycle expected");
        assert_eq!(cycle.len(), 2);
        assert_eq!(check(&cycle), -1);
    }

    #[test]
    fn negative_self_loop_is_found() {
        let mut g = DiffGraph::new();
        let a = g.var(VarName::Token { rank: 1 });
        g.constrain(a, a, -2, ConstraintKind::TokenStart);
        let cycle = g.negative_cycle().expect("self-loop expected");
        assert_eq!(cycle.len(), 1);
        assert_eq!(check(&cycle), -2);
    }

    #[test]
    fn long_capacity_style_chain_yields_the_chain_cycle() {
        // 10 tokens, 1 per column, but only 4 columns of room.
        let mut g = DiffGraph::new();
        let toks: Vec<u32> = (1..=10)
            .map(|r| g.var(VarName::Token { rank: r }))
            .collect();
        for &t in &toks {
            g.constrain(t, ORIGIN, 3, ConstraintKind::TokenSpan { cycle: 4 });
            g.constrain(ORIGIN, t, 0, ConstraintKind::TokenStart);
        }
        for w in toks.windows(2) {
            g.constrain(w[0], w[1], -1, ConstraintKind::Capacity { channels: 1 });
        }
        let cycle = g.negative_cycle().expect("overfull chain must cycle");
        assert!(check(&cycle) < 0);
    }

    #[test]
    fn zero_weight_cycle_is_not_reported() {
        let mut g = DiffGraph::new();
        let a = g.var(VarName::Token { rank: 1 });
        g.constrain(a, ORIGIN, 2, ConstraintKind::TokenStart);
        g.constrain(ORIGIN, a, -2, ConstraintKind::TokenStart);
        assert!(g.negative_cycle().is_none());
    }
}
