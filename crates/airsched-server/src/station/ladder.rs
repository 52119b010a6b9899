//! The swap seam, the degradation ladder and its pre-swap gate:
//! re-deriving the on-air plan from channel state, catalogue and policy,
//! and vetting every replan candidate before it reaches the air.
//!
//! What happens here is noted into the station's per-call record (replan
//! stage costs, gate verdicts, mode changes); the observer, if any,
//! consumes it at the end of the public call. The only instrumentation
//! this module performs itself is reading the clock for stage costs, and
//! only when an observer is attached.

use std::time::Instant;

use airsched_core::degrade;
use airsched_core::dynamic::BaseTrust;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::PageId;
use airsched_lint::{lint, LintConfig, LintInput, LintReport, Severity};

use super::observe::Stage;
use super::{ActivePlan, Mode, Station};

/// The pages a relocated `candidate` may air differently from `base`,
/// ascending. Candidate row `i` was derived from base row `from[i]`, or
/// is a new row for `None`. A row whose version is its base row's holds
/// the same cells and is skipped; any other row is compared cell by
/// cell, and the pages of the cells that differ (on either side) are
/// touched, as are every page of a new row or of a base row the
/// candidate dropped, and the `edited` page. Every other page airs
/// exactly the cells it aired in `base`. A bit per page id collects the
/// pages in order.
fn touched_pages(
    base: &BroadcastProgram,
    candidate: &BroadcastProgram,
    from: &[Option<u32>],
    edited: Option<PageId>,
) -> Vec<PageId> {
    let mut bits: Vec<u64> = Vec::new();
    let mut mark = |page: PageId| {
        let p = page.index() as usize;
        if bits.len() <= p / 64 {
            bits.resize(p / 64 + 1, 0);
        }
        bits[p / 64] |= 1 << (p % 64);
    };
    let mut kept = vec![false; base.channels() as usize];
    for (ch, &src) in (0u32..).zip(from) {
        let row = candidate.row_cells(ch);
        let Some(src) = src else {
            row.iter().flatten().for_each(|&page| mark(page));
            continue;
        };
        kept[src as usize] = true;
        if candidate.row_version(ch) != base.row_version(src) {
            for (&new, &old) in row.iter().zip(base.row_cells(src)) {
                if new != old {
                    new.into_iter().chain(old).for_each(&mut mark);
                }
            }
        }
    }
    for (ch, _) in (0u32..).zip(&kept).filter(|&(_, &k)| !k) {
        base.row_cells(ch)
            .iter()
            .flatten()
            .for_each(|&page| mark(page));
    }
    edited.into_iter().for_each(mark);
    (0u32..)
        .zip(bits)
        .flat_map(|(w, word)| {
            (0..64u32)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| PageId::new(w * 64 + b))
        })
        .collect()
}

impl Station {
    /// The deep-verify half of the pre-swap gate: asks the solver for a
    /// feasibility verdict on `candidate` against the live catalogue.
    fn certify_candidate(&mut self, candidate: &BroadcastProgram) -> bool {
        // The solver's wall time is noted like the repack/pamad stages
        // (clocked only when observed).
        let started = self.observer.is_some().then(Instant::now);
        let deadlines: Vec<(PageId, u64)> = self.scheduler.pages().iter().collect();
        let verdict = airsched_solve::check_observed(candidate, &deadlines);
        self.record
            .replan(Stage::Solve, deadlines.len() as u64, started);
        match verdict {
            airsched_solve::Verdict::Feasible(_) => true,
            airsched_solve::Verdict::Infeasible(_) => {
                self.stats.solve_rejections += 1;
                self.record.solve_refused();
                false
            }
        }
    }

    /// Lints `candidate` against the live catalogue exactly as the
    /// pre-swap gate does, without installing anything — the
    /// operator-facing dry run. The gate itself uses
    /// [`LintConfig::default`] for re-pack candidates (which claim full
    /// validity) and [`LintConfig::structural`] for best-effort
    /// candidates (whose deadline misses are the accepted cost of the
    /// rung).
    #[must_use]
    pub fn propose_plan(&self, candidate: &BroadcastProgram, config: &LintConfig) -> LintReport {
        lint(
            &LintInput::for_live_catalogue(candidate, self.scheduler.pages()),
            config,
        )
    }

    /// The pre-swap gate: accepts or refuses one replan candidate against
    /// the live catalogue, recording the verdict in
    /// [`super::StationStats`]. With `touched`, the per-page deadline
    /// rules run only for those pages, which the caller vouches for
    /// ([`LintInput::for_catalogue_change`]); the report is the full
    /// lint's either way. Returns whether the candidate passed.
    fn gate_candidate(
        &mut self,
        candidate: &BroadcastProgram,
        config: &LintConfig,
        touched: Option<&[PageId]>,
    ) -> bool {
        let catalogue = self.scheduler.pages();
        let input = match touched {
            Some(touched) => LintInput::for_catalogue_change(candidate, catalogue, touched),
            None => LintInput::for_live_catalogue(candidate, catalogue),
        };
        let report = lint(&input, config);
        #[cfg(test)]
        self.gate_log.push(super::tests::GateRecord {
            candidate: candidate.clone(),
            config: config.clone(),
            scheduler: self.scheduler.clone(),
            report: report.clone(),
            by_change_set: touched.is_some(),
        });
        let warnings = report.count_at(Severity::Warn) as u64;
        self.stats.plan_warnings += warnings;
        let refused = report.has_deny();
        if refused {
            self.stats.plan_rejections += 1;
        }
        // The verdict carries the deny-level rule codes so a postmortem
        // shows *why* the swap was blocked.
        self.record.lint(
            warnings,
            report
                .diagnostics()
                .iter()
                .filter(|d| d.severity == Severity::Deny)
                .map(|d| d.rule.code()),
        );
        !refused
    }

    /// Applies the chaos corruptor (if any) to a replan candidate.
    fn maybe_corrupt(&self, candidate: BroadcastProgram) -> BroadcastProgram {
        match self.corruptor {
            Some(corrupt) => corrupt(&candidate),
            None => candidate,
        }
    }

    /// The swap seam: every change that may move the on-air grid ends
    /// here, the only place `plan_epoch` moves (once per call). A
    /// catalogue edit under the full plan re-derives nothing; any other
    /// change re-derives the plan from the channel state, catalogue and
    /// policy, then maps its rows onto the live channels. If the lint
    /// gate refuses every candidate, the previous plan and mode stay in
    /// force — a vetted stale program beats a fresh corrupt one — but its
    /// rows still move onto the live channels.
    ///
    /// `cause` names what triggered the call (`"channel_down"`,
    /// `"channel_up"`, `"fault"`, `"catalogue"`, `"policy"`); it is
    /// carried on the `ModeChange` flight-recorder event. `edited` is the
    /// page a catalogue edit changed.
    pub(super) fn swap(&mut self, cause: &'static str, edited: Option<PageId>) {
        self.plan_epoch += 1;
        if cause == "catalogue" && matches!(self.active, ActivePlan::Full) {
            return;
        }
        // `certified` holds for the plan on the air until this swap;
        // only a SUSC plan the ladder installs sets it again.
        let certified = std::mem::take(&mut self.certified);
        let configured = u32::try_from(self.channel_up.len()).expect("channel count fits in u32");
        let n_up = self.channels_up();
        let decision = if n_up == 0 {
            Some(ActivePlan::Offline)
        } else if n_up == configured {
            Some(ActivePlan::Full)
        } else {
            self.reduced_plan(n_up, certified, edited)
        };
        if let Some(active) = decision {
            let (from, to) = (self.active.mode(), active.mode());
            self.active = active;
            if to != from {
                match to {
                    Mode::BestEffort => self.stats.failovers += 1,
                    Mode::Repacked => self.stats.repacks += 1,
                    Mode::Valid => self.stats.recoveries += 1,
                    Mode::Offline => {}
                }
                self.stats.mode_changes += 1;
                self.stats.last_mode_change_slot = Some(self.time);
                self.record.mode_change(from, to, cause);
            }
        }
        self.air_rows = self.active.channel_rows(&self.channel_up);
    }

    /// The rows a relocation keeps, one per live channel: the row the
    /// channel → row map gave the channel before this change, or `None`
    /// (an empty row) for a channel that was down.
    fn relocation_rows(&self) -> Vec<Option<u32>> {
        self.air_rows
            .iter()
            .zip(&self.channel_up)
            .filter_map(|(&row, &up)| up.then_some(row))
            .collect()
    }

    /// The on-air plan relocated onto `rows`
    /// ([`airsched_core::dynamic::OnlineScheduler::relocate`]). `None`
    /// when the plan on the air is not a valid SUSC layout to start from
    /// (best-effort or offline), or when a page finds no room. The full
    /// plan, and a `Reduced` plan when `certified`, is a certified base
    /// whose catalogue changed at most at `edited`, so only the dropped
    /// rows' pages and `edited` are looked at.
    fn relocated(
        &self,
        rows: &[Option<u32>],
        certified: bool,
        edited: Option<PageId>,
    ) -> Option<BroadcastProgram> {
        let (base, certified) = match &self.active {
            ActivePlan::Full => (self.scheduler.program(), true),
            ActivePlan::Reduced(program) => (program, certified),
            ActivePlan::BestEffort(_) | ActivePlan::Offline => return None,
        };
        let trust = if certified {
            BaseTrust::Certified { edited }
        } else {
            BaseTrust::Unchecked
        };
        self.scheduler.relocate(base, rows, trust).ok()
    }

    /// The ladder decision for `0 < n_up < configured` survivors: a valid
    /// SUSC plan while the survivors meet the catalogue's Theorem 3.1
    /// minimum — the on-air plan relocated, or a fresh pack when that
    /// fails — and PAMAD best-effort below it. Every candidate passes the
    /// pre-swap lint gate; `None` means a candidate existed but was
    /// refused, so the caller must keep the previous plan on the air.
    ///
    /// A relocation from a certified base is gated by change set, with
    /// `edited` touched too. The full plan is always a certified base:
    /// it is the scheduler's own program, which airs every live page as
    /// one periodic family of its expected time (the SUSC invariant,
    /// checked on restore). A `Reduced` plan is one when `certified`
    /// says it passed its gate (the station's `certified` field). An
    /// accepted relocation or pack is certified in turn (DESIGN §9.1).
    fn reduced_plan(
        &mut self,
        n_up: u32,
        certified: bool,
        edited: Option<PageId>,
    ) -> Option<ActivePlan> {
        let catalogue_len = self.scheduler.pages().len() as u64;
        // Theorem 3.1 from the scheduler's per-time page counts. An
        // overflowing demand fraction cannot possibly be met by any
        // physical channel count; treat it as insufficient.
        let minimum = self
            .scheduler
            .pages()
            .minimum_channels()
            .unwrap_or(u32::MAX);
        let mut refused = false;
        if self.policy.repack && n_up >= minimum {
            // The Instant exists only when observed: wall-clock stays
            // out of the unobserved path (and out of the registry, so
            // metric exposition remains deterministic either way).
            let started = self.observer.is_some().then(Instant::now);
            let rows = self.relocation_rows();
            let packed = match self.relocated(&rows, certified, edited) {
                Some(program) => Some((program, Stage::Relocate)),
                // Fragmentation, or no valid base: pack afresh.
                None => self
                    .scheduler
                    .program_on_channels(n_up)
                    .ok()
                    .map(|program| (program, Stage::Repack)),
            };
            if let Some((program, stage)) = packed {
                let candidate = self.maybe_corrupt(program);
                // Both walk the catalogue once: the sweep size is the
                // catalogue.
                self.record.replan(stage, catalogue_len, started);
                // A SUSC plan claims full validity, so it must survive the
                // complete deadline rule set — and, under deep-verify,
                // the solver's independent certification as well. Both
                // checks always run so their verdicts can be compared.
                // A relocation from a certified base re-checks only the
                // pages it may have moved (DESIGN §9.1).
                let config = LintConfig::default();
                let base = match (&self.active, certified) {
                    (ActivePlan::Full, _) => Some(self.scheduler.program()),
                    (ActivePlan::Reduced(base), true) => Some(base),
                    _ => None,
                };
                let touched = base
                    .filter(|base| {
                        matches!(stage, Stage::Relocate)
                            && config.max_stretch() >= 1.0
                            && candidate.channels() as usize == rows.len()
                            && candidate.cycle_len() == base.cycle_len()
                    })
                    .map(|base| touched_pages(base, &candidate, &rows, edited));
                let lint_ok = self.gate_candidate(&candidate, &config, touched.as_deref());
                let solve_ok = !self.deep_verify || self.certify_candidate(&candidate);
                if lint_ok && solve_ok {
                    self.certified = true;
                    return Some(ActivePlan::Reduced(candidate));
                }
                refused = true;
            }
            // Sufficient in principle but the packer could not place this
            // particular catalogue (non-harmonic times); fall through.
        }
        if self.policy.best_effort {
            let started = self.observer.is_some().then(Instant::now);
            let catalogue: Vec<(PageId, u64)> = self.scheduler.pages().iter().collect();
            if let Ok(plan) = degrade::replan(&catalogue, n_up) {
                let evals = plan.stage_evaluations();
                let candidate = self.maybe_corrupt(plan.into_program());
                self.record.replan(Stage::Pamad, evals, started);
                // Best-effort misses deadlines by design; hold it to the
                // structural rules only.
                if self.gate_candidate(&candidate, &LintConfig::structural(), None) {
                    return Some(ActivePlan::BestEffort(candidate));
                }
                refused = true;
            }
        }
        if refused {
            None
        } else {
            Some(ActivePlan::Offline)
        }
    }
}
