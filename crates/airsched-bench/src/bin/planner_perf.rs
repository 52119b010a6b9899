//! Planner & measurement performance baseline: times the pruned OPT
//! searches, the incremental PAMAD stage loop, the closed-form exact AvgD,
//! request measurement, the validity sweep and the difference-constraint
//! solver at Figure-5 scale, and emits machine-readable
//! `BENCH_planner.json` so later PRs have a trajectory to beat.
//!
//! Run: `cargo run --release -p airsched-bench --bin planner_perf`
//!
//! Options (beyond the common `--dist/--n/--groups/--t1/--ratio/--requests/
//! --seed`): `--epsilon <e>` for the PTAS and `--out <path>` for the JSON
//! file (default `BENCH_planner.json` in the working directory).
//!
//! The binary **exits non-zero** if any optimized path diverges from its
//! reference (pruned vs unpruned OPT, B&B vs plain full search,
//! closed-form vs scanned AvgD, solver vs validity, PTAS beyond its
//! epsilon band) — CI runs it as a correctness gate.

use std::time::Instant;

use airsched_bench::{extra_num, parse_common_args};
use airsched_core::bound::minimum_channels;
use airsched_core::delay::Weighting;
use airsched_core::group::GroupLadder;
use airsched_core::{opt, pamad, validity};
use airsched_sim::access;
use airsched_workload::requests::{AccessPattern, RequestGenerator};

/// Wall time of `f` in microseconds, best of `reps` runs (the searches are
/// deterministic, so min-of-k isolates scheduler noise).
fn time_us<T>(reps: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    (out.expect("reps >= 1"), best)
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let (config, dists, extra) = parse_common_args();
    let config = config.with_distribution(dists[0]);
    let ladder = config.ladder().expect("workload builds");
    let out_path = extra
        .iter()
        .find(|(k, _)| k == "out")
        .map_or_else(|| "BENCH_planner.json".to_string(), |(_, v)| v.clone());

    let n_min = minimum_channels(&ladder);
    let mut divergences: Vec<String> = Vec::new();
    println!(
        "planner_perf on {} ({} pages, {} groups, t1={}, t_h={}) — N_min = {n_min}\n",
        dists[0],
        ladder.total_pages(),
        ladder.group_count(),
        ladder.times()[0],
        ladder.max_time()
    );

    // --- OPT r-structured at N = N_min (the Figure-5 operating point). ---
    let (unpruned, unpruned_us) = time_us(3, || {
        opt::search_r_structured_unpruned(&ladder, n_min, Weighting::PaperEq2)
    });
    let (serial, serial_us) = time_us(3, || {
        opt::search_r_structured(&ladder, n_min, Weighting::PaperEq2)
    });
    let opt_identical = serial.frequencies() == unpruned.frequencies()
        && serial.objective() == unpruned.objective();
    if !opt_identical {
        divergences.push("opt_r_structured: pruned diverges from unpruned reference".into());
    }
    if serial.evaluated() >= unpruned.evaluated() {
        divergences.push(format!(
            "opt_r_structured: pruning did not reduce evaluations ({} vs {})",
            serial.evaluated(),
            unpruned.evaluated()
        ));
    }
    // Headline: the seed paid the unpruned cost; the planner pays the
    // pruned one.
    let opt_speedup = unpruned_us / serial_us;
    println!("OPT r-structured @ N={n_min}:");
    println!(
        "  unpruned serial  {unpruned_us:>10.1} µs  evaluated {}",
        unpruned.evaluated()
    );
    println!(
        "  pruned serial    {serial_us:>10.1} µs  evaluated {} (cut {})  speedup vs seed: {opt_speedup:.1}x\n",
        serial.evaluated(),
        serial.pruned()
    );

    // --- Full branch-and-bound on a reduced ladder (its cap space at full
    // paper scale is astronomically larger than the structured space). ---
    let bnb_ladder = GroupLadder::geometric(2, 2, &[6, 8, 10, 4, 2]).expect("static ladder");
    let bnb_n = minimum_channels(&bnb_ladder);
    let bnb_config = opt::OptConfig::default();
    let (bnb, bnb_us) = time_us(3, || opt::search_full_bnb(&bnb_ladder, bnb_n, bnb_config));
    let plain = opt::search_full(&bnb_ladder, bnb_n, bnb_config).expect("reduced ladder fits");
    // Objectives only: ties may settle on different vectors. Same
    // tolerance as `bnb_matches_plain_full_search`.
    let bnb_matches = (bnb.objective() - plain.objective()).abs() < 1e-12;
    if !bnb_matches {
        divergences.push(format!(
            "bnb: objective {} != plain full search {}",
            bnb.objective(),
            plain.objective()
        ));
    }
    println!(
        "B&B (reduced ladder, N={bnb_n}): {bnb_us:.1} µs, evaluated {} (cut {}) vs plain {}\n",
        bnb.evaluated(),
        bnb.pruned(),
        plain.evaluated()
    );

    // --- PAMAD stage loop (incremental, windowed trace). ---
    let (plan, pamad_us) = time_us(5, || {
        pamad::derive_frequencies(&ladder, n_min, Weighting::PaperEq2)
    });
    let stage_evaluated: u64 = plan.stages().iter().map(|s| s.evaluated).sum();
    println!("PAMAD derive_frequencies @ N={n_min}: {pamad_us:.1} µs, {stage_evaluated} stage candidates\n");

    // --- Exact AvgD: closed form vs per-arrival scan, on a program with
    // real delays (half the minimum channels). ---
    let meas_n = (n_min / 2).max(1);
    let program = pamad::schedule(&ladder, meas_n)
        .expect("schedule builds")
        .into_program();
    let (fast, fast_us) = time_us(3, || access::exact_avg_delay(&program, &ladder));
    let (slow, slow_us) = time_us(1, || {
        access::reference::exact_avg_delay_scan(&program, &ladder)
    });
    if fast != slow {
        divergences.push(format!(
            "exact_avg_delay: closed form {fast:?} != scan {slow:?}"
        ));
    }
    println!(
        "exact AvgD @ N={meas_n} (cycle {}): closed form {fast_us:.1} µs vs scan {slow_us:.1} µs ({:.0}x)\n",
        program.cycle_len(),
        slow_us / fast_us
    );

    // --- Measurement of a sampled request batch. ---
    let requests = RequestGenerator::new(&ladder, AccessPattern::Uniform, config.seed)
        .take(config.requests, program.cycle_len());
    let (_, meas_us) = time_us(3, || access::measure(&program, &ladder, &requests));
    println!("measure {} requests: {meas_us:.1} µs\n", requests.len());

    // --- Validity sweep (allocation-free gap iterator). ---
    let (report, validity_us) = time_us(5, || validity::check(&program, &ladder));
    println!(
        "validity sweep: {validity_us:.1} µs ({})\n",
        if report.is_valid() {
            "valid"
        } else {
            "invalid"
        }
    );

    // --- Difference-constraint solver: feasibility check, synthesis, and
    // the KSY PTAS baseline, each gated against its reference. ---
    let epsilon = extra_num(&extra, "epsilon", 0.1f64);
    let (check_verdict, solve_check_us) = time_us(3, || {
        airsched_solve::check_ladder(&ladder, n_min).expect("paper ladder encodes")
    });
    if !check_verdict.is_feasible() {
        divergences.push(format!("solve: N_min = {n_min} certified infeasible"));
    }
    if n_min > 1 {
        match airsched_solve::check_ladder(&ladder, n_min - 1).expect("paper ladder encodes") {
            airsched_solve::Verdict::Infeasible(cert) => {
                if cert.replay().is_err() {
                    divergences.push("solve: certificate below N_min fails replay".into());
                }
            }
            airsched_solve::Verdict::Feasible(_) => {
                divergences.push(format!("solve: N_min - 1 = {} feasible", n_min - 1));
            }
        }
    }
    let (synth_program, solve_synth_us) = time_us(3, || {
        airsched_solve::synthesize(&ladder, n_min).expect("feasible at the minimum")
    });
    if !validity::check(&synth_program, &ladder).is_valid() {
        divergences.push("solve: synthesized program fails validity::check".into());
    }
    // Solver-vs-validity cross-check on the measured (below-minimum)
    // program: the two verdicts must be identical.
    let program_verdict = airsched_solve::check_program(&program, &ladder);
    if program_verdict.is_feasible() != report.is_valid() {
        divergences.push(format!(
            "solve: check_program {} but validity::check {}",
            program_verdict.is_feasible(),
            report.is_valid()
        ));
    }
    println!(
        "solve: check @ N={n_min} {solve_check_us:.1} µs ({}), synth {solve_synth_us:.1} µs ({} slots)",
        if check_verdict.is_feasible() {
            "feasible"
        } else {
            "infeasible"
        },
        synth_program.occupied_slots()
    );

    // PTAS at the measurement point (real delays): its objective must stay
    // within (1 + epsilon) of the r-structured OPT's, the paper's
    // reference. (The seed tracks that optimum closely, so the grid search
    // never drifts above the epsilon band.)
    let opt_meas = opt::search_r_structured(&ladder, meas_n, Weighting::PaperEq2);
    let (ptas_out, ptas_us) = time_us(1, || {
        airsched_solve::ptas::approximate(&ladder, meas_n, epsilon, Weighting::PaperEq2)
    });
    let ptas_ratio = ptas_out.ratio_vs(opt_meas.objective());
    if !ptas_ratio.is_finite() || ptas_ratio > 1.0 + epsilon + 1e-9 {
        divergences.push(format!(
            "ptas: ratio vs r-structured OPT at N={meas_n} is {ptas_ratio} (epsilon {epsilon})"
        ));
    }
    println!(
        "solve: PTAS @ N={meas_n} eps={epsilon}: {ptas_us:.1} µs, {} candidates, ratio vs OPT {ptas_ratio:.4}\n",
        ptas_out.evaluated()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"planner_perf\",\n",
            "  \"workload\": {{\"dist\": \"{dist}\", \"pages\": {pages}, \"groups\": {groups}, ",
            "\"t1\": {t1}, \"t_h\": {th}, \"n_min\": {n_min}}},\n",
            "  \"opt_r_structured\": {{\"unpruned_serial_us\": {o_u}, \"pruned_serial_us\": {o_s}, ",
            "\"evaluated_unpruned\": {e_u}, \"evaluated_pruned\": {e_p}, ",
            "\"pruned_subtrees\": {cut}, \"speedup_vs_unpruned_serial\": {o_x}, \"identical\": {o_id}}},\n",
            "  \"bnb\": {{\"serial_us\": {b_s}, \"evaluated\": {b_e}, \"evaluated_plain\": {b_pe}, ",
            "\"pruned_subtrees\": {b_c}, \"matches_plain\": {b_ok}}},\n",
            "  \"pamad\": {{\"derive_us\": {p_us}, \"stage_candidates\": {p_e}}},\n",
            "  \"exact_avg_delay\": {{\"closed_form_us\": {d_f}, \"scan_us\": {d_s}, ",
            "\"speedup\": {d_x}, \"identical\": {d_id}}},\n",
            "  \"measure\": {{\"requests\": {m_n}, \"serial_us\": {m_s}}},\n",
            "  \"validity\": {{\"check_us\": {v_us}, \"valid\": {v_ok}}},\n",
            "  \"solve\": {{\"check_us\": {s_c}, \"synth_us\": {s_s}, \"ptas_us\": {s_p}, ",
            "\"ptas_epsilon\": {s_eps}, \"ptas_evaluated\": {s_ev}, \"ptas_ratio_vs_opt\": {s_r}, ",
            "\"feasible_at_min\": {s_ok}, \"verdicts_agree\": {s_ag}}},\n",
            "  \"divergences\": {divs}\n",
            "}}\n"
        ),
        dist = dists[0],
        pages = ladder.total_pages(),
        groups = ladder.group_count(),
        t1 = ladder.times()[0],
        th = ladder.max_time(),
        n_min = n_min,
        o_u = json_f(unpruned_us),
        o_s = json_f(serial_us),
        e_u = unpruned.evaluated(),
        e_p = serial.evaluated(),
        cut = serial.pruned(),
        o_x = json_f(opt_speedup),
        o_id = opt_identical,
        b_s = json_f(bnb_us),
        b_e = bnb.evaluated(),
        b_pe = plain.evaluated(),
        b_c = bnb.pruned(),
        b_ok = bnb_matches,
        p_us = json_f(pamad_us),
        p_e = stage_evaluated,
        d_f = json_f(fast_us),
        d_s = json_f(slow_us),
        d_x = json_f(slow_us / fast_us),
        d_id = fast == slow,
        m_n = requests.len(),
        m_s = json_f(meas_us),
        v_us = json_f(validity_us),
        v_ok = report.is_valid(),
        s_c = json_f(solve_check_us),
        s_s = json_f(solve_synth_us),
        s_p = json_f(ptas_us),
        s_eps = json_f(epsilon),
        s_ev = ptas_out.evaluated(),
        s_r = json_f(ptas_ratio),
        s_ok = check_verdict.is_feasible(),
        s_ag = program_verdict.is_feasible() == report.is_valid(),
        divs = if divergences.is_empty() {
            "[]".to_string()
        } else {
            format!(
                "[{}]",
                divergences
                    .iter()
                    .map(|d| format!("\"{}\"", d.replace('"', "'")))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        },
    );
    std::fs::write(&out_path, &json).expect("write BENCH_planner.json");
    println!("wrote {out_path}");

    if !divergences.is_empty() {
        eprintln!("DIVERGENCE:");
        for d in &divergences {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}
