//! The CLI subcommands. Each returns its output as a `String` so the
//! commands are unit-testable without capturing stdout.

use airsched_analysis::experiment::{one_fifth_summary, sweep_channels, ExperimentConfig};
use airsched_analysis::report::{one_fifth_table, sweep_headline, sweep_table};
use airsched_core::bound::{channel_demand, minimum_channels, minimum_channels_per_group};
use airsched_core::rearrange::Rearrangement;
use airsched_core::schedule::build_program;
use airsched_core::validity;
use airsched_sim::access::measure;
use airsched_sim::sim::{SimConfig, Simulation};
use airsched_workload::distributions::GroupSizeDistribution;
use airsched_workload::requests::{AccessPattern, RequestGenerator};
use airsched_workload::spec::WorkloadSpec;

use crate::args::{ArgError, Args};
use crate::workload_args::ladder_from_args;

/// Usage text shown for `--help` / unknown commands.
pub const USAGE: &str = "\
airsched - time-constrained data broadcast scheduling (ICDCS 2005 reproduction)

USAGE: airsched <command> [options]

COMMANDS:
  bound      minimum channels for a workload (Theorem 3.1)
  schedule   build a broadcast program (SUSC or PAMAD by channel budget)
  simulate   measure average delay of a program with synthetic clients
  sweep      Figure-5 style channel sweep: PAMAD vs m-PB vs OPT
  onefifth   quantify the \"1/5 of minimum channels\" observation
  rearrange  round arbitrary expected times onto a geometric ladder
  drop       the drop-pages baseline (paper §4, solution 1)
  energy     tuning-energy vs latency under (1,m) air indexing
  inspect    validate a saved program file against a workload
  lint       static analysis of a program/plan: rule-based diagnostics
  solve      difference-constraint feasibility: certify a budget/program
             or synthesize a schedule, with infeasibility certificates
  trace      print the transmission stream slot by slot
  plan       smallest channel count meeting an average-delay budget
  items      schedule variable-length items (LENxTIME specs)
  run        drive a live station under (optional) fault injection, with
             flight-recorder observability attached
  obs        same scenario as run, printing the metrics snapshot table
  top        same scenario as run, rendered as a live dashboard: phase
             timings, SLO burn gauges, mode changes
  checkpoint inspect the checkpoint + journal a crash-safe run left behind
  restore    recover a crashed run from its state directory and finish it

WORKLOAD OPTIONS:
  --times 2,4,8 --counts 3,5,3   explicit groups, or
  --n 1000 --groups 8 --t1 4 --ratio 2 --dist uniform|normal|lskew|sskew
  (sweep/onefifth iterate over *generated* workloads and accept only the
   second form)

COMMAND OPTIONS:
  schedule:  --channels N [--grid] [--save FILE]
  simulate:  --channels N [--requests 3000] [--seed 42] [--zipf THETA]
             [--des] (full discrete-event run with impatience/on-demand)
             [--trace FILE] (replay a recorded trace instead of generating)
             [--save-trace FILE] (record the generated requests)
  sweep:     [--requests 3000] [--seed 42] [--csv] [--step K] [--max N]
             [--events-out FILE] (OPT search costs as ReplanTiming events)
  rearrange: --raw-times 2,3,4,6,9 [--ratio 2]
  drop:      --channels N [--policy tightest|relaxed|proportional]
  energy:    --channels N [--segments M] [--requests 3000] [--seed 42]
  inspect:   --file FILE
  lint:      [--file FILE] [--times 2,4,8 --counts 3,5,3]
             [--frequencies 4,2,1] [--format text|json] [--structural]
             [--allow RULES] [--warn RULES] [--deny RULES]
             [--max-stretch 2.0] [--max-expected-time N] [--list-rules]
             (deny-level findings exit 1; rules by code 'AP01' or name)
  solve:     check --times T --counts C (--channels N | --file FILE)
             synth --times T --counts C --channels N [--save FILE]
             [--format text|json] (an infeasible verdict prints the
             negative-cycle certificate and exits 1)
  trace:     --channels N [--slots 20] [--from 0]
  plan:      --budget SLOTS [--requests 3000] [--seed 42]
  items:     --specs 3x8,1x2,2x5 [--ratio 2] [--channels N]
  run/obs:   [--channels 4] [--cycle 16] [--slots 600] [--seed 805381]
             [--times 2,4,8,16,4,8] (catalogue expected times, pages 0..k)
             [--subscribe-every 5] (0 disables subscriptions)
             [--chaos] (storm preset: outages, stalls, corruption, blackout)
             [--outage P] [--recovery P] [--stall P] [--corruption P]
             [--metrics-out FILE] (Prometheus text exposition)
             [--events-out FILE]  (flight-recorder events as JSONL)
             [--trace-out FILE] (sampled slots as Chrome trace-event JSON,
             loadable in Perfetto / chrome://tracing)
             [--trace-sample N] (capture every Nth slot; default 32)
             [--trace-norm] (deterministic synthetic timestamps in the
             trace file, for golden diffs)
  top:       run's scenario options, plus [--once] (single frame at the
             end instead of a live screen) [--format text|json]
             [--refresh SLOTS] (slots per frame, default 64)
             [--color] (ANSI colors; live frames always colorize)
  run only:  [--state-dir DIR] (run crash-safe: journal every mutation and
             checkpoint the full station state into DIR)
             [--checkpoint-every N] (auto-checkpoint cadence in slots;
             0 = only the creation and final checkpoints)
             [--crash-at SLOT] (scripted process death, for recovery drills)
  checkpoint: --state-dir DIR
  restore:   --state-dir DIR (plus the original run's scenario options, so
             the continuation follows the same subscription schedule)
";

/// A command's text output plus whether the process should exit nonzero
/// even though the command itself ran to completion (e.g. `lint` found
/// deny-level diagnostics).
#[derive(Debug, Clone)]
pub struct CmdOutput {
    /// The text to print to stdout.
    pub text: String,
    /// When true the process exits with a failure status after printing.
    pub fail: bool,
}

impl CmdOutput {
    fn ok(text: String) -> Self {
        Self { text, fail: false }
    }
}

/// Dispatches a parsed command line; returns the text to print plus the
/// desired exit disposition.
///
/// # Errors
///
/// Returns [`ArgError`] with a user-facing message on any failure.
pub fn run_full(args: &Args) -> Result<CmdOutput, ArgError> {
    // Only `solve` takes an action word; a stray positional anywhere
    // else stays the parse-time error it always was.
    if let Some(action) = args.action() {
        if args.command() != Some("solve") {
            return Err(ArgError(format!(
                "unexpected positional argument '{action}' (options are --key value)"
            )));
        }
    }
    match args.command() {
        Some("lint") => cmd_lint(args),
        Some("solve") => cmd_solve(args),
        _ => run_plain(args).map(CmdOutput::ok),
    }
}

fn run_plain(args: &Args) -> Result<String, ArgError> {
    match args.command() {
        Some("bound") => cmd_bound(args),
        Some("schedule") => cmd_schedule(args),
        Some("simulate") => cmd_simulate(args),
        Some("sweep") => cmd_sweep(args),
        Some("onefifth") => cmd_onefifth(args),
        Some("rearrange") => cmd_rearrange(args),
        Some("drop") => cmd_drop(args),
        Some("energy") => cmd_energy(args),
        Some("inspect") => cmd_inspect(args),
        Some("trace") => cmd_trace(args),
        Some("plan") => cmd_plan(args),
        Some("items") => cmd_items(args),
        Some("run") => cmd_run(args),
        Some("obs") => cmd_obs(args),
        Some("top") => cmd_top(args),
        Some("checkpoint") => cmd_checkpoint(args),
        Some("restore") => cmd_restore(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some("lint" | "solve") => unreachable!("dispatched by run_full"),
        Some(other) => Err(ArgError(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

fn cmd_bound(args: &Args) -> Result<String, ArgError> {
    let ladder = ladder_from_args(args)?;
    let tight = minimum_channels(&ladder);
    let per_group = minimum_channels_per_group(&ladder);
    Ok(format!(
        "workload: {ladder}\n\
         channel demand (sum P_i/t_i): {:.4}\n\
         minimum channels (Theorem 3.1, tight): {tight}\n\
         per-group variant (sum of ceilings):   {per_group}\n",
        channel_demand(&ladder)
    ))
}

fn cmd_schedule(args: &Args) -> Result<String, ArgError> {
    let ladder = ladder_from_args(args)?;
    let channels: u32 = args.require_num("channels")?;
    let outcome = build_program(&ladder, channels).map_err(|e| ArgError(e.to_string()))?;
    let report = validity::check(outcome.program(), &ladder);
    let mut out = format!(
        "workload: {ladder}\n\
         algorithm: {} (minimum channels: {})\n\
         program: {}\n\
         frequencies: {:?}\n\
         validity: {report}\n",
        outcome.algorithm(),
        outcome.minimum_channels(),
        outcome.program(),
        outcome.frequencies(),
    );
    if args.flag("grid") {
        out.push_str(&outcome.program().render_grid());
    }
    if let Some(path) = args.get("save") {
        let text = airsched_core::textio::write_program(outcome.program());
        std::fs::write(path, text).map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
        out.push_str(&format!("saved program to {path}\n"));
    }
    Ok(out)
}

fn cmd_drop(args: &Args) -> Result<String, ArgError> {
    use airsched_core::dropping::{schedule_with_drops, DropPolicy};
    let ladder = ladder_from_args(args)?;
    let channels: u32 = args.require_num("channels")?;
    let policy = match args.get("policy").unwrap_or("tightest") {
        "tightest" => DropPolicy::TightestFirst,
        "relaxed" => DropPolicy::MostRelaxedFirst,
        "proportional" => DropPolicy::Proportional,
        other => {
            return Err(ArgError(format!(
                "unknown drop policy '{other}' (tightest, relaxed, proportional)"
            )))
        }
    };
    let outcome =
        schedule_with_drops(&ladder, channels, policy).map_err(|e| ArgError(e.to_string()))?;
    let report = validity::check(outcome.program(), outcome.kept_ladder());
    Ok(format!(
        "workload: {ladder}\n\
         policy: {policy:?}\n\
         dropped {} of {} pages ({:.1}%)\n\
         kept workload: {}\n\
         program: {}\n\
         validity over kept pages: {report}\n",
        outcome.dropped().len(),
        ladder.total_pages(),
        outcome.drop_rate(&ladder) * 100.0,
        outcome.kept_ladder(),
        outcome.program(),
    ))
}

fn cmd_energy(args: &Args) -> Result<String, ArgError> {
    use airsched_sim::energy::{measure_energy, TuningScheme};
    let ladder = ladder_from_args(args)?;
    let channels: u32 = args.require_num("channels")?;
    let segments: u32 = args.num("segments", 4)?;
    let requests: usize = args.num("requests", 3000)?;
    let seed: u64 = args.num("seed", 42)?;
    let outcome = build_program(&ladder, channels).map_err(|e| ArgError(e.to_string()))?;
    let program = outcome.program();
    let reqs = RequestGenerator::new(&ladder, AccessPattern::Uniform, seed)
        .take(requests, program.cycle_len());

    let mut out = format!("algorithm: {}, program: {}\n", outcome.algorithm(), program);
    for (name, scheme) in [
        ("continuous listening".to_string(), TuningScheme::Continuous),
        (
            format!("(1,{segments}) indexing"),
            TuningScheme::Indexed { segments },
        ),
    ] {
        let (summary, skipped) = measure_energy(program, &ladder, &reqs, scheme);
        out.push_str(&format!(
            "{name}: mean active {:.2} slots, doze ratio {:.1}%, avg wait \
             {:.2}, AvgD {:.3}, skipped {skipped}\n",
            summary.mean_active_slots,
            summary.doze_ratio * 100.0,
            summary.delays.avg_wait(),
            summary.delays.avg_delay(),
        ));
    }
    Ok(out)
}

fn cmd_inspect(args: &Args) -> Result<String, ArgError> {
    let path = args
        .get("file")
        .ok_or_else(|| ArgError("missing required option --file".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read '{path}': {e}")))?;
    let program =
        airsched_core::textio::parse_program(&text).map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!("program: {program}\n");
    // With a workload given, run the full quality analysis.
    if args.get("times").is_some() || args.get("counts").is_some() {
        let ladder = ladder_from_args(args)?;
        let report = airsched_core::report::analyze(&program, &ladder);
        out.push_str(&format!("workload: {ladder}\n{report}"));
    }
    if args.flag("grid") {
        out.push_str(&program.render_grid());
    }
    Ok(out)
}

fn cmd_lint(args: &Args) -> Result<CmdOutput, ArgError> {
    use airsched_lint::render::{render_json, render_text, SourceInfo};
    use airsched_lint::{lint, LintConfig, LintInput, RuleId, Severity};

    if args.flag("list-rules") {
        let mut out = format!("{:<6} {:<26} {:<7} summary\n", "rule", "name", "default");
        for rule in RuleId::ALL {
            out.push_str(&format!(
                "{:<6} {:<26} {:<7} {}\n",
                rule.code(),
                rule.name(),
                rule.default_severity().name(),
                rule.summary()
            ));
        }
        return Ok(CmdOutput::ok(out));
    }

    // Severity configuration: preset, thresholds, per-rule overrides.
    let mut config = if args.flag("structural") {
        LintConfig::structural()
    } else {
        LintConfig::default()
    };
    if let Some(raw) = args.get("max-stretch") {
        let v: f64 = raw
            .parse()
            .map_err(|_| ArgError(format!("--max-stretch: cannot parse '{raw}'")))?;
        config = config.with_max_stretch(v);
    }
    if let Some(raw) = args.get("max-expected-time") {
        let v: u64 = raw
            .parse()
            .map_err(|_| ArgError(format!("--max-expected-time: cannot parse '{raw}'")))?;
        config = config.with_max_expected_time(v);
    }
    for (key, severity) in [
        ("allow", Severity::Allow),
        ("warn", Severity::Warn),
        ("deny", Severity::Deny),
    ] {
        if let Some(list) = args.get(key) {
            for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let rule = RuleId::lookup(name).ok_or_else(|| {
                    ArgError(format!("--{key}: unknown rule '{name}' (try --list-rules)"))
                })?;
                config.set_level(rule, severity);
            }
        }
    }

    // Inputs: a saved program file and/or raw --times/--counts groups.
    // The groups are deliberately *not* run through GroupLadder: the whole
    // point is diagnosing plans the ladder constructor would reject.
    let groups: Option<Vec<(u64, u64)>> = match (args.num_list("times")?, args.num_list("counts")?)
    {
        (Some(t), Some(c)) => {
            if t.len() != c.len() {
                return Err(ArgError(
                    "--times and --counts must have the same length".into(),
                ));
            }
            Some(t.into_iter().zip(c).collect())
        }
        (None, None) => None,
        _ => {
            return Err(ArgError(
                "--times and --counts must be given together".into(),
            ))
        }
    };
    let parsed = match args.get("file") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read '{path}': {e}")))?;
            let (program, map) = airsched_core::textio::parse_program_with_map(&text)
                .map_err(|e| ArgError(format!("{path}: {e}")))?;
            Some((path, program, map))
        }
        None => None,
    };
    let mut input = match (&parsed, &groups) {
        (Some((_, program, _)), Some(groups)) => LintInput::for_raw_groups(Some(program), groups),
        (Some((_, program, _)), None) => LintInput::for_raw_groups(Some(program), &[]),
        (None, Some(groups)) => LintInput::for_plan(groups),
        (None, None) => {
            return Err(ArgError(
                "lint needs --file and/or --times/--counts (see --help)".into(),
            ))
        }
    };
    if let Some(freqs) = args.num_list("frequencies")? {
        input = input.with_frequencies(&freqs);
    }

    let report = lint(&input, &config);
    let text = match args.get("format").unwrap_or("text") {
        "json" => render_json(&report),
        "text" => {
            let source = parsed
                .as_ref()
                .map(|(path, _, map)| SourceInfo { name: path, map });
            render_text(&report, source)
        }
        other => return Err(ArgError(format!("unknown format '{other}' (text, json)"))),
    };
    Ok(CmdOutput {
        text,
        fail: report.has_deny(),
    })
}

fn cmd_solve(args: &Args) -> Result<CmdOutput, ArgError> {
    use airsched_solve::{check_ladder, check_program, render, Verdict};

    let format = args.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(ArgError(format!("unknown format '{format}' (text, json)")));
    }
    let ladder = ladder_from_args(args)?;
    let action = args.action().unwrap_or("check");
    let verdict = match action {
        "check" => match args.get("file") {
            // A saved program: certify it against the workload's
            // deadlines (observed mode).
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ArgError(format!("cannot read '{path}': {e}")))?;
                let program = airsched_core::textio::parse_program(&text)
                    .map_err(|e| ArgError(format!("{path}: {e}")))?;
                check_program(&program, &ladder)
            }
            // No program: pure ladder feasibility at a channel budget.
            None => {
                let channels: u32 = args.require_num("channels")?;
                check_ladder(&ladder, channels).map_err(|e| ArgError(e.to_string()))?
            }
        },
        "synth" => {
            let channels: u32 = args.require_num("channels")?;
            check_ladder(&ladder, channels).map_err(|e| ArgError(e.to_string()))?
        }
        other => {
            return Err(ArgError(format!(
                "unknown solve action '{other}' (check, synth)"
            )))
        }
    };
    match verdict {
        Verdict::Feasible(witness) => {
            let mut text = match format {
                "json" => format!(
                    "{{\"verdict\": \"feasible\", \"channels\": {}, \"cycle\": {}, \
                     \"occupied_slots\": {}}}\n",
                    witness.channels(),
                    witness.cycle_len(),
                    witness.occupied_slots()
                ),
                _ => format!(
                    "feasible: a valid schedule exists on {} channel(s) (witness: {witness})\n",
                    witness.channels()
                ),
            };
            if action == "synth" {
                let rendered = airsched_core::textio::write_program(&witness);
                match args.get("save") {
                    Some(path) => {
                        std::fs::write(path, &rendered)
                            .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
                        text.push_str(&format!("saved program to {path}\n"));
                    }
                    None => text.push_str(&rendered),
                }
            }
            Ok(CmdOutput::ok(text))
        }
        Verdict::Infeasible(cert) => {
            let text = match format {
                "json" => render::render_json(&cert),
                _ => render::render_text(&cert),
            };
            // Like `lint`: a refusal prints the certificate and exits
            // nonzero.
            Ok(CmdOutput { text, fail: true })
        }
    }
}

fn cmd_simulate(args: &Args) -> Result<String, ArgError> {
    let ladder = ladder_from_args(args)?;
    let channels: u32 = args.require_num("channels")?;
    let requests: usize = args.num("requests", 3000)?;
    let seed: u64 = args.num("seed", 42)?;
    let access = match args.get("zipf") {
        None => AccessPattern::Uniform,
        Some(theta) => AccessPattern::Zipf {
            theta: theta
                .parse()
                .map_err(|_| ArgError(format!("--zipf: cannot parse '{theta}'")))?,
        },
    };
    let outcome = build_program(&ladder, channels).map_err(|e| ArgError(e.to_string()))?;
    let program = outcome.program();

    // Request stream: replay a trace file, or generate (and maybe record).
    let reqs = match args.get("trace") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read '{path}': {e}")))?;
            airsched_workload::trace::parse_trace(&text).map_err(|e| ArgError(e.to_string()))?
        }
        None => {
            let mut gen = RequestGenerator::new(&ladder, access, seed);
            let horizon = if args.flag("des") {
                program.cycle_len().max(1) * 20
            } else {
                program.cycle_len()
            };
            gen.take(requests, horizon)
        }
    };
    if let Some(path) = args.get("save-trace") {
        std::fs::write(path, airsched_workload::trace::write_trace(&reqs))
            .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
    }

    if args.flag("des") {
        let sim = Simulation::new(program, &ladder, SimConfig::default());
        let report = sim.run(&reqs);
        Ok(format!(
            "algorithm: {}\nprogram: {}\n{report}\n",
            outcome.algorithm(),
            program
        ))
    } else {
        let (summary, misses) = measure(program, &ladder, &reqs);
        Ok(format!(
            "algorithm: {}\nprogram: {}\n{summary}\nmisses: {misses}\n",
            outcome.algorithm(),
            program
        ))
    }
}

fn experiment_config(args: &Args) -> Result<ExperimentConfig, ArgError> {
    if args.get("times").is_some() || args.get("counts").is_some() {
        return Err(ArgError(
            "this command sweeps *generated* workloads; describe one with \
             --n/--groups/--t1/--ratio/--dist instead of --times/--counts"
                .into(),
        ));
    }
    let dist_name = args.get("dist").unwrap_or("uniform");
    let dist = GroupSizeDistribution::parse(dist_name)
        .ok_or_else(|| ArgError(format!("unknown distribution '{dist_name}'")))?;
    Ok(ExperimentConfig {
        spec: WorkloadSpec::new(
            args.num("n", 1000u64)?,
            args.num("groups", 8usize)?,
            args.num("t1", 4u64)?,
            args.num("ratio", 2u64)?,
        )
        .distribution(dist),
        requests: args.num("requests", 3000usize)?,
        seed: args.num("seed", 42u64)?,
        ..ExperimentConfig::paper_defaults()
    })
}

fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    let config = experiment_config(args)?;
    let ladder = config.ladder().map_err(|e| ArgError(e.to_string()))?;
    let min = minimum_channels(&ladder);
    let max: u32 = args.num("max", min)?;
    let step: u32 = args.num("step", 1)?;
    if step == 0 {
        return Err(ArgError("--step must be positive".into()));
    }
    let channels: Vec<u32> = (1..=max.min(min)).step_by(step as usize).collect();
    let sweep = sweep_channels(&config, channels).map_err(|e| ArgError(e.to_string()))?;
    let table = sweep_table(&sweep);
    let mut out = format!("{}\n", sweep_headline(&sweep));
    out.push_str(&if args.flag("csv") {
        table.render_csv()
    } else {
        table.render()
    });
    // Each point's OPT search cost, exported as ReplanTiming events.
    if args.get("events-out").is_some() {
        let obs = airsched_obs::Obs::new();
        airsched_analysis::experiment::record_sweep_timings(&sweep, &obs);
        write_obs_outputs(args, &obs, &mut out)?;
    }
    Ok(out)
}

fn cmd_onefifth(args: &Args) -> Result<String, ArgError> {
    let mut rows = Vec::new();
    for dist in GroupSizeDistribution::ALL {
        let config = experiment_config(args)?.with_distribution(dist);
        rows.push(one_fifth_summary(&config).map_err(|e| ArgError(e.to_string()))?);
    }
    Ok(one_fifth_table(&rows).render())
}

fn cmd_rearrange(args: &Args) -> Result<String, ArgError> {
    let raw = args
        .num_list("raw-times")?
        .ok_or_else(|| ArgError("missing required option --raw-times".into()))?;
    let ratio: u64 = args.num("ratio", 2)?;
    let r = Rearrangement::with_ratio(&raw, ratio).map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!(
        "ladder: {}\nrelative bandwidth slack: {:.4}\n",
        r.ladder(),
        r.relative_slack()
    );
    for a in r.assignments() {
        out.push_str(&format!(
            "  t={} -> t'={} (page {})\n",
            a.original_time, a.assigned_time, a.page
        ));
    }
    Ok(out)
}

fn cmd_trace(args: &Args) -> Result<String, ArgError> {
    use airsched_sim::server::BroadcastStream;
    let ladder = ladder_from_args(args)?;
    let channels: u32 = args.require_num("channels")?;
    let slots: u64 = args.num("slots", 20)?;
    let from: u64 = args.num("from", 0)?;
    let outcome = build_program(&ladder, channels).map_err(|e| ArgError(e.to_string()))?;
    let program = outcome.program();
    let mut out = format!(
        "algorithm: {}, cycle {} slots, tracing t={from}..{}\n",
        outcome.algorithm(),
        program.cycle_len(),
        from + slots
    );
    for slot in BroadcastStream::starting_at(program, from).take(slots as usize) {
        out.push_str(&format!("t{:>4} |", slot.time));
        for page in &slot.pages {
            match page {
                Some(p) => out.push_str(&format!(" {:>4}", p.index())),
                None => out.push_str("    ."),
            }
        }
        out.push('\n');
    }
    Ok(out)
}

fn cmd_plan(args: &Args) -> Result<String, ArgError> {
    use airsched_analysis::experiment::channels_for_delay_budget;
    use airsched_core::bound::minimum_channels;
    let budget: f64 = args.require_num("budget")?;
    if !(budget.is_finite() && budget >= 0.0) {
        return Err(ArgError("--budget must be a non-negative number".into()));
    }
    let config = experiment_config(args)?;
    let ladder = config.ladder().map_err(|e| ArgError(e.to_string()))?;
    let min = minimum_channels(&ladder);
    match channels_for_delay_budget(&config, budget).map_err(|e| ArgError(e.to_string()))? {
        Some(n) => Ok(format!(
            "workload: {ladder}\n\
             minimum channels for zero delay: {min}\n\
             smallest channel count with AvgD <= {budget} slots: {n}\n"
        )),
        None => Ok(format!(
            "workload: {ladder}\n\
             minimum channels for zero delay: {min}\n\
             no channel count up to {min} meets AvgD <= {budget} slots \
             (budget below PAMAD's placement noise floor; SUSC at {min} \
             achieves exactly zero)\n"
        )),
    }
}

fn cmd_items(args: &Args) -> Result<String, ArgError> {
    use airsched_core::bound::minimum_channels;
    use airsched_core::items::{ItemCatalogue, ItemId, ItemSpec};
    let specs_raw = args
        .get("specs")
        .ok_or_else(|| ArgError("missing required option --specs (e.g. 3x8,1x2)".into()))?;
    let mut specs = Vec::new();
    for part in specs_raw.split(',') {
        let (len, t) = part
            .trim()
            .split_once(['x', 'X'])
            .ok_or_else(|| ArgError(format!("'{part}' is not LENxTIME")))?;
        specs.push(ItemSpec {
            length: len
                .parse()
                .map_err(|_| ArgError(format!("bad length '{len}'")))?,
            expected_time: t
                .parse()
                .map_err(|_| ArgError(format!("bad expected time '{t}'")))?,
        });
    }
    let ratio: u64 = args.num("ratio", 2)?;
    let catalogue = ItemCatalogue::build(&specs, ratio).map_err(|e| ArgError(e.to_string()))?;
    let min = minimum_channels(catalogue.ladder());
    let channels: u32 = args.num("channels", min)?;
    let outcome =
        build_program(catalogue.ladder(), channels).map_err(|e| ArgError(e.to_string()))?;

    let mut out = format!(
        "catalogue: {} item(s) -> {} unit pages\n\
         ladder: {}\n\
         minimum channels: {min}; scheduling on {channels} -> {}\n",
        catalogue.len(),
        catalogue.ladder().total_pages(),
        catalogue.ladder(),
        outcome.algorithm(),
    );
    for idx in 0..catalogue.len() {
        let item = ItemId::new(u32::try_from(idx).expect("catalogue fits in u32"));
        let spec = catalogue.spec(item);
        out.push_str(&format!(
            "  {item}: {} slot(s), t={}, parts {:?}, worst-case assembly \
             {} slots\n",
            spec.length,
            spec.expected_time,
            catalogue
                .pages_of(item)
                .iter()
                .map(|p| p.index())
                .collect::<Vec<_>>(),
            catalogue.worst_case_assembly(item),
        ));
    }
    Ok(out)
}

/// The run/obs scenario distilled from the command line: station shape,
/// fault plan, and the deterministic subscription schedule. `restore`
/// rebuilds the same schedule from the same options, so a recovered
/// continuation follows the exact inputs the never-crashed twin would.
struct Scenario {
    channels: u32,
    cycle: u64,
    slots: u64,
    subscribe_every: u64,
    times: Vec<u64>,
    plan: airsched_server::FaultPlan,
}

fn scenario_from_args(args: &Args) -> Result<Scenario, ArgError> {
    use airsched_core::types::ChannelId;
    use airsched_server::{FaultEvent, FaultPlan};

    let channels: u32 = args.num("channels", 4)?;
    let cycle: u64 = args.num("cycle", 16)?;
    let slots: u64 = args.num("slots", 600)?;
    let seed: u64 = args.num("seed", 0xC4A05)?;
    let subscribe_every: u64 = args.num("subscribe-every", 5)?;
    let times = args
        .num_list("times")?
        .unwrap_or_else(|| vec![2, 4, 8, 16, 4, 8]);
    if times.is_empty() {
        return Err(ArgError("--times must name at least one page".into()));
    }

    let chaos = args.flag("chaos");
    let pick = |key: &str, preset: f64| args.num(key, if chaos { preset } else { 0.0 });
    let mut plan = FaultPlan::seeded(seed)
        .with_outage(pick("outage", 0.01)?)
        .with_recovery(pick("recovery", 0.15)?)
        .with_stalls(pick("stall", 0.03)?)
        .with_corruption(pick("corruption", 0.05)?);
    if chaos {
        // The example storm's scripted mid-run blackout: every transmitter
        // down at once, then staggered recoveries.
        let at = slots / 2;
        let script: Vec<FaultEvent> = (0..channels)
            .map(|c| FaultEvent::Down {
                at,
                channel: ChannelId::new(c),
            })
            .chain((0..channels).map(|c| FaultEvent::Up {
                at: at + 20 + 10 * u64::from(c),
                channel: ChannelId::new(c),
            }))
            .collect();
        plan = plan.with_script(script);
    }
    Ok(Scenario {
        channels,
        cycle,
        slots,
        subscribe_every,
        times,
        plan,
    })
}

impl Scenario {
    /// Builds the station with the fault plan armed and the catalogue
    /// published.
    fn station(&self) -> Result<airsched_server::Station, ArgError> {
        use airsched_core::types::PageId;
        let mut station =
            airsched_server::Station::with_faults(self.channels, self.cycle, &self.plan)
                .map_err(|e| ArgError(e.to_string()))?;
        for (i, &t) in self.times.iter().enumerate() {
            let page = PageId::new(u32::try_from(i).expect("catalogue fits in u32"));
            station
                .publish(page, t)
                .map_err(|e| ArgError(e.to_string()))?;
        }
        Ok(station)
    }

    /// The page slot `t` subscribes to, if any — the deterministic
    /// schedule `run`, `obs`, and a post-`restore` continuation all
    /// follow.
    fn sub_page(&self, t: u64) -> Option<airsched_core::types::PageId> {
        if self.subscribe_every == 0 || !t.is_multiple_of(self.subscribe_every) {
            return None;
        }
        let pages = self.times.len() as u64;
        Some(airsched_core::types::PageId::new(
            u32::try_from(t / self.subscribe_every % pages).expect("< pages"),
        ))
    }

    /// The mode-transition log line emitted when a tick changes mode.
    fn mode_line(
        &self,
        t: u64,
        from: airsched_server::Mode,
        to: airsched_server::Mode,
        up: u32,
    ) -> String {
        format!(
            "slot {t:>5}: {from} -> {to} ({up}/{channels} transmitters up)\n",
            channels = self.channels,
        )
    }
}

/// The `final mode ...` summary shared by `run` and `restore`, so a
/// recovered continuation can be diffed line-for-line against a clean
/// run's ending.
fn stats_line(mode: airsched_server::Mode, stats: &airsched_server::StationStats) -> String {
    format!(
        "final mode {mode}: {delivered} deliveries ({rate:.1}% on time), \
         {waiting} waiting, {changes} mode changes, {degraded} of {slots} \
         slots degraded\n",
        delivered = stats.delivered,
        rate = stats.on_time_rate() * 100.0,
        waiting = stats.waiting,
        changes = stats.mode_changes,
        degraded = stats.degraded_slots,
        slots = stats.slots_elapsed,
    )
}

/// Builds the tracer the trace-capable verbs share when any `--trace-*`
/// option asks for one (`top` always builds its own).
fn trace_from_args(args: &Args) -> Result<Option<airsched_trace::Trace>, ArgError> {
    let wanted = args.get("trace-out").is_some()
        || args.get("trace-sample").is_some()
        || args.flag("trace-norm");
    if !wanted {
        return Ok(None);
    }
    Ok(Some(trace_with_sample(args.num("trace-sample", 32)?)))
}

fn trace_with_sample(sample_every: u64) -> airsched_trace::Trace {
    airsched_trace::Trace::new(airsched_trace::TraceConfig {
        sample_every,
        ring_capacity: 64,
        slo: airsched_trace::SloConfig::default(),
    })
}

/// One scenario slot, shared by `run`/`obs`/`top`: the optional
/// subscription, the station tick, and the slot's wire encode + send
/// through the template-cached broadcaster. On trace-sampled slots the
/// encode and transmit are clocked and appended to the slot's span tree.
struct ScenarioDriver {
    sc: Scenario,
    station: airsched_server::Station,
    tx: airsched_server::SlotBroadcaster<airsched_proto::FixedPayloads>,
    wire: bytes::BytesMut,
    tx_bytes: airsched_obs::metrics::Counter,
    log: String,
    mode: airsched_server::Mode,
}

impl ScenarioDriver {
    fn new(
        args: &Args,
        obs: &airsched_obs::Obs,
        trace: Option<airsched_trace::Trace>,
    ) -> Result<Self, ArgError> {
        let sc = scenario_from_args(args)?;
        let mut station = sc.station()?;
        station.attach_obs(obs);
        if let Some(t) = &trace {
            station.attach_trace(t);
        }
        let mut tx = airsched_server::SlotBroadcaster::new(airsched_proto::FixedPayloads::new(
            bytes::Bytes::from_static(b"airsched page payload"),
        ));
        tx.attach_obs(obs);
        let mode = station.mode();
        Ok(Self {
            sc,
            station,
            tx,
            wire: bytes::BytesMut::with_capacity(4096),
            tx_bytes: obs.registry().counter("airsched_transmit_bytes_total", &[]),
            log: String::new(),
            mode,
        })
    }

    fn slot(&mut self, t: u64) -> Result<(), ArgError> {
        use airsched_trace::Phase;
        if let Some(page) = self.sc.sub_page(t) {
            self.station
                .subscribe(page)
                .map_err(|e| ArgError(e.to_string()))?;
        }
        let out = self.station.tick();
        if out.mode != self.mode {
            let line = self
                .sc
                .mode_line(t, self.mode, out.mode, self.station.channels_up());
            self.log.push_str(&line);
            self.mode = out.mode;
        }
        // Encode the slot onto the wire through the template cache, then
        // "send" it (account the bytes). Clocked only on sampled slots.
        let sampled = self
            .station
            .trace()
            .filter(|tr| tr.sample_due(out.time))
            .cloned();
        self.wire.clear();
        let enc_from = sampled.as_ref().map(airsched_trace::Trace::now_ns);
        let written = self
            .tx
            .encode_slot(&self.station, &out.on_air, out.time, &mut self.wire)
            .map_err(|e| ArgError(e.to_string()))?;
        if let (Some(tr), Some(from)) = (&sampled, enc_from) {
            tr.record_phase(out.time, Phase::Encode, from, tr.now_ns() - from);
        }
        let send_from = sampled.as_ref().map(airsched_trace::Trace::now_ns);
        self.tx_bytes.add(written as u64);
        if let (Some(tr), Some(from)) = (&sampled, send_from) {
            tr.record_phase(out.time, Phase::Transmit, from, tr.now_ns() - from);
        }
        Ok(())
    }
}

/// Shared scenario driver for `run` and `obs`: a live station with a
/// flight recorder (and, when requested, a tracer) attached, ridden
/// through `--slots` slots of (optionally faulty) air time. Returns the
/// observability handle, the tracer (if any), the finished station, and
/// the mode-transition log.
fn run_station_scenario(
    args: &Args,
) -> Result<
    (
        airsched_obs::Obs,
        Option<airsched_trace::Trace>,
        airsched_server::Station,
        String,
    ),
    ArgError,
> {
    let obs = airsched_obs::Obs::with_recorder_capacity(8192);
    let mut driver = ScenarioDriver::new(args, &obs, trace_from_args(args)?)?;
    for t in 0..driver.sc.slots {
        driver.slot(t)?;
    }
    Ok((
        obs,
        driver.station.trace().cloned(),
        driver.station,
        driver.log,
    ))
}

/// Handles `--metrics-out` / `--events-out` for the obs-capable verbs.
fn write_obs_outputs(
    args: &Args,
    obs: &airsched_obs::Obs,
    out: &mut String,
) -> Result<(), ArgError> {
    if let Some(path) = args.get("metrics-out") {
        std::fs::write(path, obs.render_prometheus())
            .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
        out.push_str(&format!("wrote metrics to {path}\n"));
    }
    if let Some(path) = args.get("events-out") {
        std::fs::write(path, obs.events_jsonl())
            .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
        out.push_str(&format!("wrote events to {path}\n"));
    }
    Ok(())
}

/// Handles `--trace-out` for the trace-capable verbs: the captured ring
/// as Chrome trace-event JSON (`--trace-norm` swaps wall-clock stamps
/// for deterministic synthetic ones).
fn write_trace_output(
    args: &Args,
    trace: Option<&airsched_trace::Trace>,
    out: &mut String,
) -> Result<(), ArgError> {
    let Some(path) = args.get("trace-out") else {
        return Ok(());
    };
    let Some(trace) = trace else {
        return Ok(());
    };
    std::fs::write(path, trace.render_chrome(args.flag("trace-norm")))
        .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
    out.push_str(&format!("wrote trace to {path}\n"));
    Ok(())
}

fn cmd_run(args: &Args) -> Result<String, ArgError> {
    if args.get("state-dir").is_some() {
        return cmd_run_recoverable(args);
    }
    let (obs, trace, station, log) = run_station_scenario(args)?;
    let mut out = log;
    out.push_str(&stats_line(station.mode(), &station.stats()));
    // Black-box dumps: every capture taken on entry into best-effort or
    // offline service during the run.
    for pm in obs.take_postmortems() {
        out.push('\n');
        out.push_str(&pm.to_jsonl());
    }
    write_obs_outputs(args, &obs, &mut out)?;
    write_trace_output(args, trace.as_ref(), &mut out)?;
    Ok(out)
}

/// `run --state-dir DIR`: the same scenario as plain `run`, but every
/// mutation is journaled and the station state checkpointed, so the run
/// survives process death (scriptable with `--crash-at` for drills).
fn cmd_run_recoverable(args: &Args) -> Result<String, ArgError> {
    use airsched_recover::{CrashInjector, RecoverError, RecoverableStation, RecoveryOptions};

    let sc = scenario_from_args(args)?;
    let dir = std::path::PathBuf::from(args.get("state-dir").expect("caller checked"));
    let every: u64 = args.num("checkpoint-every", 0)?;
    let mut opts = RecoveryOptions::new();
    if every > 0 {
        opts = opts.checkpoint_every(every);
    }
    if args.get("crash-at").is_some() {
        opts = opts.with_crash(CrashInjector::at_slot(args.require_num("crash-at")?));
    }

    let obs = airsched_obs::Obs::with_recorder_capacity(8192);
    let mut run = RecoverableStation::create(&dir, sc.station()?, Some(sc.plan.clone()), opts)
        .map_err(|e| ArgError(e.to_string()))?;
    run.attach_obs(&obs);
    let trace = trace_from_args(args)?;
    if let Some(t) = &trace {
        run.attach_trace(t);
    }

    let mut out = String::new();
    let mut mode = run.mode();
    for t in 0..sc.slots {
        if let Some(page) = sc.sub_page(t) {
            run.subscribe(page).map_err(|e| ArgError(e.to_string()))?;
        }
        match run.tick() {
            Ok(o) => {
                if o.mode != mode {
                    out.push_str(&sc.mode_line(t, mode, o.mode, run.station().channels_up()));
                    mode = o.mode;
                }
            }
            Err(RecoverError::Crashed { slot }) => {
                out.push_str(&format!(
                    "scripted crash fired at slot {slot}; state preserved in {dir}\n\
                     (resume with: airsched restore --state-dir {dir})\n",
                    dir = dir.display(),
                ));
                write_obs_outputs(args, &obs, &mut out)?;
                write_trace_output(args, trace.as_ref(), &mut out)?;
                return Ok(out);
            }
            Err(e) => return Err(ArgError(e.to_string())),
        }
    }
    // Park the directory current so `checkpoint` describes the final
    // state and a later `restore` resumes instantly.
    run.checkpoint().map_err(|e| ArgError(e.to_string()))?;
    out.push_str(&format!(
        "state directory {} is current through slot {}\n",
        dir.display(),
        run.now(),
    ));
    out.push_str(&stats_line(run.mode(), &run.stats()));
    for pm in obs.take_postmortems() {
        out.push('\n');
        out.push_str(&pm.to_jsonl());
    }
    write_obs_outputs(args, &obs, &mut out)?;
    write_trace_output(args, trace.as_ref(), &mut out)?;
    Ok(out)
}

/// `checkpoint --state-dir DIR`: decode and describe the checkpoint and
/// journal a crash-safe run left behind, without touching either.
fn cmd_checkpoint(args: &Args) -> Result<String, ArgError> {
    use airsched_recover::{read_journal, Checkpoint, JOURNAL_FILE};

    let dir = std::path::PathBuf::from(
        args.get("state-dir")
            .ok_or_else(|| ArgError("checkpoint requires --state-dir DIR".into()))?,
    );
    let ck = Checkpoint::read(&dir).map_err(|e| ArgError(e.to_string()))?;
    let journal = read_journal(&dir.join(JOURNAL_FILE), 0).map_err(|e| ArgError(e.to_string()))?;
    let records = u64::try_from(journal.records.len()).expect("record count fits in u64");
    let snap = &ck.snapshot;
    let waiting: usize = snap.waiting.iter().map(Vec::len).sum();
    let up = snap.channel_up.iter().filter(|&&u| u).count();
    let mut out = format!("state directory {}:\n", dir.display());
    out.push_str(&format!(
        "  checkpoint: slot {time}, mode {mode}, {up}/{channels} transmitters up\n\
         \x20 catalogue: {pages} page(s); {waiting} waiting client(s)\n\
         \x20 stats: {delivered} deliveries, {changes} mode changes over {slots} slots\n",
        time = snap.time,
        mode = snap.active.mode(),
        channels = snap.channel_up.len(),
        pages = snap.expected.len(),
        delivered = snap.stats.delivered,
        changes = snap.stats.mode_changes,
        slots = snap.stats.slots_elapsed,
    ));
    out.push_str(&format!(
        "  journal: {records} valid record(s), cursor at record {cursor} / byte {offset} (lag {lag}), \
         {dropped} corrupt tail byte(s)\n",
        cursor = ck.journal_skip,
        offset = ck.journal_offset,
        lag = records.saturating_sub(ck.journal_skip),
        dropped = journal.dropped_bytes,
    ));
    out.push_str(&format!(
        "  fault plan persisted: {}\n",
        if ck.fault_plan.is_some() { "yes" } else { "no" },
    ));
    Ok(out)
}

/// `restore --state-dir DIR`: rebuild the station a crashed run left
/// behind (checkpoint + journal replay), then finish the scenario so the
/// ending can be diffed against a never-crashed run's.
fn cmd_restore(args: &Args) -> Result<String, ArgError> {
    use airsched_recover::{RecoverableStation, RecoveryOptions};

    let sc = scenario_from_args(args)?;
    let dir = std::path::PathBuf::from(
        args.get("state-dir")
            .ok_or_else(|| ArgError("restore requires --state-dir DIR".into()))?,
    );
    let every: u64 = args.num("checkpoint-every", 0)?;
    let mut opts = RecoveryOptions::new();
    if every > 0 {
        opts = opts.checkpoint_every(every);
    }

    let obs = airsched_obs::Obs::with_recorder_capacity(8192);
    let (mut run, report) =
        RecoverableStation::resume(&dir, opts, Some(&obs)).map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!(
        "recovered station at slot {at}: replayed {replayed} journal record(s) in {us} us{dropped}\n",
        at = report.resumed_at,
        replayed = report.replayed,
        us = report.duration_us,
        dropped = if report.dropped_bytes > 0 {
            format!(", dropped {} corrupt tail byte(s)", report.dropped_bytes)
        } else {
            String::new()
        },
    );

    let resumed_at = report.resumed_at;
    let mut mode = run.mode();
    // A crash loses the unfinished slot's inputs with it, so the
    // continuation re-issues the resumed slot's subscription too.
    for t in resumed_at..sc.slots {
        if let Some(page) = sc.sub_page(t) {
            run.subscribe(page).map_err(|e| ArgError(e.to_string()))?;
        }
        let o = run.tick().map_err(|e| ArgError(e.to_string()))?;
        if o.mode != mode {
            out.push_str(&sc.mode_line(t, mode, o.mode, run.station().channels_up()));
            mode = o.mode;
        }
    }
    if run.now() > resumed_at {
        run.checkpoint().map_err(|e| ArgError(e.to_string()))?;
    }
    out.push_str(&stats_line(run.mode(), &run.stats()));
    for pm in obs.take_postmortems() {
        out.push('\n');
        out.push_str(&pm.to_jsonl());
    }
    write_obs_outputs(args, &obs, &mut out)?;
    Ok(out)
}

fn cmd_obs(args: &Args) -> Result<String, ArgError> {
    let (obs, trace, _station, _log) = run_station_scenario(args)?;
    let mut out = obs.snapshot().render_table();
    write_obs_outputs(args, &obs, &mut out)?;
    write_trace_output(args, trace.as_ref(), &mut out)?;
    Ok(out)
}

/// `top`: the run scenario rendered as a dashboard. Live mode repaints
/// an ANSI frame every `--refresh` slots; `--once` runs the whole
/// scenario first and prints a single frame (`--format json` for
/// scripting). Sampling defaults denser than `run` (every 8th slot) so
/// the sparklines move.
fn cmd_top(args: &Args) -> Result<String, ArgError> {
    use std::io::Write as _;

    let obs = airsched_obs::Obs::with_recorder_capacity(8192);
    let trace = trace_with_sample(args.num("trace-sample", 8)?);
    let mut driver = ScenarioDriver::new(args, &obs, Some(trace.clone()))?;
    let once = args.flag("once");
    let json = match args.get("format").unwrap_or("text") {
        "json" => true,
        "text" => false,
        other => return Err(ArgError(format!("--format: unknown format '{other}'"))),
    };
    let refresh: u64 = args.num("refresh", 64)?;
    let refresh = refresh.max(1);

    let started = std::time::Instant::now();
    let mut last_frame = started;
    let mut last_slot = 0u64;
    for t in 0..driver.sc.slots {
        driver.slot(t)?;
        let live_frame_due = !once && (t + 1).is_multiple_of(refresh);
        if live_frame_due {
            let now = std::time::Instant::now();
            let dt = now.duration_since(last_frame).as_secs_f64();
            let slots_per_sec = if dt > 0.0 {
                (t + 1 - last_slot) as f64 / dt
            } else {
                0.0
            };
            last_frame = now;
            last_slot = t + 1;
            let frame = top_frame(&driver, &trace, slots_per_sec, json, true);
            let mut stdout = std::io::stdout().lock();
            // Clear + home, then the frame: plain ANSI, no terminal deps.
            let _ = write!(stdout, "\x1b[2J\x1b[H{frame}");
            let _ = stdout.flush();
        }
    }
    let dt = started.elapsed().as_secs_f64();
    let slots_per_sec = if dt > 0.0 {
        driver.sc.slots as f64 / dt
    } else {
        0.0
    };
    Ok(top_frame(
        &driver,
        &trace,
        slots_per_sec,
        json,
        args.flag("color"),
    ))
}

/// Renders one `top` frame from the driver's current state.
fn top_frame(
    driver: &ScenarioDriver,
    trace: &airsched_trace::Trace,
    slots_per_sec: f64,
    json: bool,
    color: bool,
) -> String {
    let stats = driver.station.stats();
    let snap = trace.snapshot();
    let ctx = airsched_trace::DashContext {
        slots_per_sec,
        mode: driver.station.mode().to_string(),
        delivered: stats.delivered,
        on_time: stats.on_time,
        waiting: stats.waiting,
        mode_tail: {
            let lines: Vec<&str> = driver.log.lines().collect();
            let skip = lines.len().saturating_sub(5);
            lines[skip..].iter().map(ToString::to_string).collect()
        },
    };
    if json {
        airsched_trace::render_json(&snap, &ctx)
    } else {
        airsched_trace::render_text(&snap, &ctx, color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(parts: &[&str]) -> Result<String, ArgError> {
        run_full_line(parts).map(|out| out.text)
    }

    fn run_full_line(parts: &[&str]) -> Result<CmdOutput, ArgError> {
        run_full(&Args::parse(parts.iter().map(ToString::to_string)).unwrap())
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_line(&[]).unwrap().contains("USAGE"));
        assert!(run_line(&["help"]).unwrap().contains("USAGE"));
        assert!(run_line(&["frobnicate"]).is_err());
    }

    #[test]
    fn bound_on_paper_example() {
        let out = run_line(&["bound", "--times", "2,4", "--counts", "2,3"]).unwrap();
        assert!(out.contains("tight): 2"), "{out}");
        assert!(out.contains("1.7500"), "{out}");
    }

    #[test]
    fn schedule_selects_algorithms() {
        let susc = run_line(&[
            "schedule",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "4",
            "--grid",
        ])
        .unwrap();
        assert!(susc.contains("SUSC"), "{susc}");
        assert!(susc.contains("valid broadcast program"), "{susc}");
        assert!(susc.contains("ch0:"), "{susc}");

        let pamad = run_line(&[
            "schedule",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "3",
        ])
        .unwrap();
        assert!(pamad.contains("PAMAD"), "{pamad}");
        assert!(pamad.contains("[4, 2, 1]"), "{pamad}");
    }

    #[test]
    fn schedule_requires_channels() {
        assert!(run_line(&["schedule", "--times", "2", "--counts", "1"]).is_err());
    }

    #[test]
    fn simulate_reports_avgd() {
        let out = run_line(&[
            "simulate",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "3",
            "--requests",
            "500",
        ])
        .unwrap();
        assert!(out.contains("AvgD"), "{out}");
        assert!(out.contains("500 requests"), "{out}");
    }

    #[test]
    fn simulate_des_mode() {
        let out = run_line(&[
            "simulate",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "2",
            "--requests",
            "300",
            "--des",
        ])
        .unwrap();
        assert!(out.contains("on-demand"), "{out}");
        assert!(out.contains("mean total latency"), "{out}");
    }

    #[test]
    fn sweep_small_workload() {
        let out = run_line(&[
            "sweep",
            "--n",
            "40",
            "--groups",
            "3",
            "--t1",
            "2",
            "--requests",
            "400",
        ])
        .unwrap();
        assert!(out.contains("PAMAD"), "{out}");
        assert!(out.contains("Figure 5"), "{out}");
        let csv = run_line(&[
            "sweep",
            "--n",
            "40",
            "--groups",
            "3",
            "--t1",
            "2",
            "--requests",
            "400",
            "--csv",
        ])
        .unwrap();
        assert!(csv.contains("channels,PAMAD,m-PB,OPT"), "{csv}");
    }

    #[test]
    fn sweep_rejects_explicit_group_lists() {
        // --times/--counts would be silently ignored; make it an error.
        let err = run_line(&[
            "sweep",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--requests",
            "100",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("generated"), "{err}");
        let err = run_line(&["onefifth", "--counts", "3,5,3"]).unwrap_err();
        assert!(err.to_string().contains("generated"), "{err}");
    }

    #[test]
    fn sweep_rejects_zero_step() {
        assert!(
            run_line(&["sweep", "--n", "40", "--groups", "3", "--t1", "2", "--step", "0"]).is_err()
        );
    }

    #[test]
    fn rearrange_paper_example() {
        let out = run_line(&["rearrange", "--raw-times", "2,3,4,6,9"]).unwrap();
        assert!(out.contains("t=3 -> t'=2"), "{out}");
        assert!(out.contains("t=9 -> t'=8"), "{out}");
    }

    #[test]
    fn rearrange_requires_times() {
        assert!(run_line(&["rearrange"]).is_err());
    }

    #[test]
    fn drop_command_reports_drops() {
        let out = run_line(&[
            "drop",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "3",
        ])
        .unwrap();
        assert!(out.contains("dropped"), "{out}");
        assert!(out.contains("valid broadcast program"), "{out}");
        let out = run_line(&[
            "drop",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "3",
            "--policy",
            "relaxed",
        ])
        .unwrap();
        assert!(out.contains("MostRelaxedFirst"), "{out}");
        assert!(run_line(&[
            "drop",
            "--times",
            "2",
            "--counts",
            "1",
            "--channels",
            "1",
            "--policy",
            "bogus",
        ])
        .is_err());
    }

    #[test]
    fn energy_command_compares_schemes() {
        let out = run_line(&[
            "energy",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "4",
            "--requests",
            "400",
            "--segments",
            "3",
        ])
        .unwrap();
        assert!(out.contains("continuous listening"), "{out}");
        assert!(out.contains("(1,3) indexing"), "{out}");
    }

    #[test]
    fn schedule_save_and_inspect_round_trip() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("program.txt");
        let path_str = path.to_str().unwrap();
        let out = run_line(&[
            "schedule",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "4",
            "--save",
            path_str,
        ])
        .unwrap();
        assert!(out.contains("saved program"), "{out}");
        let out = run_line(&[
            "inspect", "--file", path_str, "--times", "2,4,8", "--counts", "3,5,3",
        ])
        .unwrap();
        assert!(out.contains("valid broadcast program"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn items_command_schedules_catalogue() {
        let out = run_line(&["items", "--specs", "3x8,1x2,2x5"]).unwrap();
        assert!(out.contains("3 item(s)"), "{out}");
        assert!(out.contains("item0"), "{out}");
        assert!(out.contains("worst-case assembly"), "{out}");
        assert!(run_line(&["items", "--specs", "3-8"]).is_err());
        assert!(run_line(&["items", "--specs", "axb"]).is_err());
        assert!(run_line(&["items"]).is_err());
    }

    #[test]
    fn plan_finds_operating_point() {
        let out = run_line(&[
            "plan",
            "--n",
            "60",
            "--groups",
            "4",
            "--t1",
            "4",
            "--budget",
            "5",
            "--requests",
            "500",
        ])
        .unwrap();
        assert!(out.contains("smallest channel count"), "{out}");
        assert!(run_line(&["plan", "--budget", "nan-ish"]).is_err());
        assert!(run_line(&["plan"]).is_err());
    }

    #[test]
    fn simulate_trace_record_and_replay() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.trace");
        let path_str = path.to_str().unwrap();
        let recorded = run_line(&[
            "simulate",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "3",
            "--requests",
            "200",
            "--save-trace",
            path_str,
        ])
        .unwrap();
        let replayed = run_line(&[
            "simulate",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "3",
            "--trace",
            path_str,
        ])
        .unwrap();
        // Identical requests -> identical measurement.
        assert_eq!(recorded, replayed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_prints_slots() {
        let out = run_line(&[
            "trace",
            "--times",
            "2,4",
            "--counts",
            "2,3",
            "--channels",
            "2",
            "--slots",
            "6",
            "--from",
            "2",
        ])
        .unwrap();
        assert!(out.contains("t   2 |"), "{out}");
        assert!(out.contains("t   7 |"), "{out}");
        assert_eq!(out.lines().count(), 7, "{out}");
    }

    #[test]
    fn inspect_missing_file_errors() {
        assert!(run_line(&["inspect", "--file", "/nonexistent/x.txt"]).is_err());
        assert!(run_line(&["inspect"]).is_err());
    }

    #[test]
    fn lint_clean_program_passes() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lint-clean.txt");
        let path_str = path.to_str().unwrap();
        run_line(&[
            "schedule",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "4",
            "--save",
            path_str,
        ])
        .unwrap();
        let out = run_full_line(&[
            "lint", "--file", path_str, "--times", "2,4,8", "--counts", "3,5,3",
        ])
        .unwrap();
        assert!(!out.fail, "{}", out.text);
        assert!(out.text.contains("lint clean"), "{}", out.text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_check_feasible_and_infeasible_budgets() {
        let ok = run_full_line(&[
            "solve",
            "check",
            "--times",
            "2,4",
            "--counts",
            "2,3",
            "--channels",
            "2",
        ])
        .unwrap();
        assert!(!ok.fail, "{}", ok.text);
        assert!(ok.text.contains("feasible"), "{}", ok.text);

        let refused = run_full_line(&[
            "solve",
            "check",
            "--times",
            "2,4",
            "--counts",
            "2,3",
            "--channels",
            "1",
        ])
        .unwrap();
        assert!(refused.fail, "{}", refused.text);
        assert!(
            refused.text.contains("deny[SV01/negative-cycle]"),
            "{}",
            refused.text
        );

        let json = run_full_line(&[
            "solve",
            "check",
            "--times",
            "2,4",
            "--counts",
            "2,3",
            "--channels",
            "1",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(json.fail);
        assert!(
            json.text.contains("\"verdict\": \"infeasible\""),
            "{}",
            json.text
        );
    }

    #[test]
    fn solve_synth_round_trips_through_inspect_and_lint() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solve-synth.txt");
        let path_str = path.to_str().unwrap();
        let out = run_full_line(&[
            "solve",
            "synth",
            "--times",
            "2,4,8",
            "--counts",
            "3,5,3",
            "--channels",
            "4",
            "--save",
            path_str,
        ])
        .unwrap();
        assert!(!out.fail, "{}", out.text);
        assert!(out.text.contains("saved program"), "{}", out.text);
        // The synthesized witness is lint-clean under the full rule set
        // and certifies against its own ladder.
        let linted = run_full_line(&[
            "lint", "--file", path_str, "--times", "2,4,8", "--counts", "3,5,3",
        ])
        .unwrap();
        assert!(!linted.fail, "{}", linted.text);
        let checked = run_full_line(&[
            "solve", "check", "--file", path_str, "--times", "2,4,8", "--counts", "3,5,3",
        ])
        .unwrap();
        assert!(!checked.fail, "{}", checked.text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_rejects_unknown_action_and_stray_positionals_elsewhere() {
        assert!(run_full_line(&[
            "solve",
            "prove",
            "--times",
            "2",
            "--counts",
            "1",
            "--channels",
            "1"
        ])
        .is_err());
        assert!(run_full_line(&["bound", "check", "--times", "2", "--counts", "1"]).is_err());
    }

    #[test]
    fn lint_broken_file_fails_with_rule_id() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lint-broken.txt");
        let path_str = path.to_str().unwrap();
        std::fs::write(
            &path,
            "airsched-program v1\nchannels 1\ncycle 8\ngrid\n0 . . . . 0 . .\n",
        )
        .unwrap();
        let out =
            run_full_line(&["lint", "--file", path_str, "--times", "4", "--counts", "1"]).unwrap();
        assert!(out.fail, "{}", out.text);
        assert!(
            out.text.contains("deny[AP01/expected-time-gap]"),
            "{}",
            out.text
        );
        // Text spans point back into the source file.
        assert!(
            out.text.contains(&format!("{path_str}:5:1")),
            "{}",
            out.text
        );

        let json = run_full_line(&[
            "lint", "--file", path_str, "--times", "4", "--counts", "1", "--format", "json",
        ])
        .unwrap();
        assert!(json.fail);
        assert!(json.text.contains("\"rule_id\": \"AP01\""), "{}", json.text);

        // Allowing the rule (and its AP06 companion) turns the run clean.
        let allowed = run_full_line(&[
            "lint",
            "--file",
            path_str,
            "--times",
            "4",
            "--counts",
            "1",
            "--allow",
            "AP01,AP06",
        ])
        .unwrap();
        assert!(!allowed.fail, "{}", allowed.text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_plan_only_checks_ladder_shape() {
        // Non-geometric ladder warns but does not fail the run.
        let out = run_full_line(&["lint", "--times", "2,3", "--counts", "1,1"]).unwrap();
        assert!(!out.fail, "{}", out.text);
        assert!(
            out.text.contains("warn[AL01/non-geometric-ladder]"),
            "{}",
            out.text
        );
        // A zero expected time is a deny.
        let out = run_full_line(&["lint", "--times", "0", "--counts", "1"]).unwrap();
        assert!(out.fail, "{}", out.text);
        assert!(out.text.contains("AL02"), "{}", out.text);
        // Rising PAMAD frequencies are flagged.
        let out = run_full_line(&[
            "lint",
            "--times",
            "2,4",
            "--counts",
            "1,1",
            "--frequencies",
            "1,2",
        ])
        .unwrap();
        assert!(out.fail, "{}", out.text);
        assert!(out.text.contains("AL03"), "{}", out.text);
    }

    #[test]
    fn lint_rule_listing_and_option_errors() {
        let out = run_full_line(&["lint", "--list-rules"]).unwrap();
        assert!(!out.fail);
        assert!(out.text.contains("AP01"), "{}", out.text);
        assert!(out.text.contains("AL04"), "{}", out.text);
        assert!(out.text.contains("expected-time-gap"), "{}", out.text);

        assert!(run_full_line(&["lint"]).is_err());
        assert!(run_full_line(&["lint", "--times", "2"]).is_err());
        assert!(run_full_line(&["lint", "--times", "2,4", "--counts", "1"]).is_err());
        let err = run_full_line(&["lint", "--times", "2", "--counts", "1", "--deny", "AP99"])
            .unwrap_err();
        assert!(err.to_string().contains("unknown rule"), "{err}");
        assert!(
            run_full_line(&["lint", "--times", "2", "--counts", "1", "--format", "xml",]).is_err()
        );
    }

    #[test]
    fn lint_structural_preset_relaxes_deadline_rules() {
        // 2,3 is non-geometric: default warns, structural stays clean.
        let out =
            run_full_line(&["lint", "--times", "2,3", "--counts", "1,1", "--structural"]).unwrap();
        assert!(!out.fail, "{}", out.text);
        assert!(out.text.contains("lint clean"), "{}", out.text);
    }

    #[test]
    fn run_chaos_reports_mode_changes_and_postmortems() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("run.prom");
        let events = dir.join("run.jsonl");
        let out = run_line(&[
            "run",
            "--chaos",
            "--slots",
            "400",
            "--seed",
            "805381",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("final mode"), "{out}");
        assert!(out.contains("mode changes"), "{out}");
        // The scripted mid-run blackout guarantees a postmortem dump.
        assert!(out.contains("# postmortem trigger="), "{out}");
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("airsched_station_slots_total 400"), "{prom}");
        assert!(
            prom.contains("airsched_station_mode_changes_total"),
            "{prom}"
        );
        let jsonl = std::fs::read_to_string(&events).unwrap();
        for line in jsonl.lines() {
            assert!(
                airsched_obs::events::Event::parse_jsonl(line).is_some(),
                "unparsable event line: {line}"
            );
        }
        assert!(jsonl.contains("\"type\":\"mode_change\""), "{jsonl}");
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&events).ok();
    }

    /// Masks the one documented source of nondeterminism in the event
    /// dump: `duration_us` is wall-clock replan time, everything else is
    /// slot-indexed.
    fn mask_durations(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut rest = text;
        while let Some(at) = rest.find("\"duration_us\":") {
            let tail = at + "\"duration_us\":".len();
            out.push_str(&rest[..tail]);
            out.push('N');
            rest = rest[tail..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let line = &["run", "--chaos", "--slots", "300", "--seed", "7"];
        assert_eq!(
            mask_durations(&run_line(line).unwrap()),
            mask_durations(&run_line(line).unwrap())
        );
    }

    #[test]
    fn obs_renders_snapshot_table() {
        let out = run_line(&["obs", "--slots", "100"]).unwrap();
        assert!(out.contains("airsched_station_slots_total"), "{out}");
        assert!(out.contains("airsched_station_wait_slots"), "{out}");
        assert!(out.contains("p95="), "{out}");
    }

    #[test]
    fn top_once_renders_json_frame() {
        let out = run_line(&[
            "top",
            "--once",
            "--format",
            "json",
            "--slots",
            "64",
            "--trace-sample",
            "4",
        ])
        .unwrap();
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"slo\":{"), "{out}");
        assert!(out.contains("\"phases\":["), "{out}");
        assert!(out.contains("\"slots\":64"), "{out}");
        assert!(out.contains("\"sample_every\":4"), "{out}");
    }

    #[test]
    fn top_once_renders_text_frame() {
        let out = run_line(&["top", "--once", "--slots", "32"]).unwrap();
        assert!(out.contains("airsched top"), "{out}");
        assert!(out.contains("slo"), "{out}");
        // Plain frame: no ANSI colour without --color.
        assert!(!out.contains('\x1b'), "{out}");
    }

    #[test]
    fn top_rejects_unknown_format() {
        assert!(run_line(&["top", "--once", "--format", "xml", "--slots", "8"]).is_err());
    }

    #[test]
    fn run_writes_chrome_trace() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run_trace.json");
        let out = run_line(&[
            "run",
            "--chaos",
            "--slots",
            "200",
            "--seed",
            "11",
            "--trace-out",
            trace.to_str().unwrap(),
            "--trace-sample",
            "8",
        ])
        .unwrap();
        assert!(out.contains("wrote trace"), "{out}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"name\":\"slot\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn normalized_trace_is_deterministic_per_seed() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("trace_a.json");
        let b = dir.join("trace_b.json");
        for path in [&a, &b] {
            run_line(&[
                "run",
                "--chaos",
                "--slots",
                "200",
                "--seed",
                "11",
                "--trace-out",
                path.to_str().unwrap(),
                "--trace-sample",
                "8",
                "--trace-norm",
            ])
            .unwrap();
        }
        let left = std::fs::read_to_string(&a).unwrap();
        let right = std::fs::read_to_string(&b).unwrap();
        assert_eq!(left, right, "normalized traces must be byte-identical");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn normalized_trace_matches_checked_in_golden() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace_golden.json");
        run_line(&[
            "run",
            "--chaos",
            "--slots",
            "200",
            "--seed",
            "11",
            "--trace-out",
            out.to_str().unwrap(),
            "--trace-sample",
            "32",
            "--trace-norm",
        ])
        .unwrap();
        let fresh = std::fs::read_to_string(&out).unwrap();
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/trace_slot.json"
        ))
        .unwrap();
        assert_eq!(
            fresh, golden,
            "normalized trace drifted from tests/golden/trace_slot.json; \
             regenerate it with the command in this test if the change is intended"
        );
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn run_rejects_empty_catalogue() {
        // An empty --times list cannot be expressed (`--times` with no
        // value parses as a flag), so the check triggers via a fault-free
        // station erroring on zero channels instead.
        assert!(run_line(&["run", "--channels", "0"]).is_err());
    }

    #[test]
    fn sweep_exports_opt_search_costs() {
        let dir = std::env::temp_dir().join("airsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("sweep.jsonl");
        let out = run_line(&[
            "sweep",
            "--n",
            "40",
            "--groups",
            "3",
            "--t1",
            "2",
            "--requests",
            "200",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote events"), "{out}");
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(jsonl.contains("\"stage\":\"opt\""), "{jsonl}");
        for line in jsonl.lines() {
            let event = airsched_obs::events::Event::parse_jsonl(line).unwrap();
            match event {
                airsched_obs::events::Event::ReplanTiming { stage, evals, .. } => {
                    assert_eq!(stage, "opt");
                    assert!(evals > 0, "OPT search must evaluate candidates");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        std::fs::remove_file(&events).ok();
    }

    #[test]
    fn run_crash_restore_matches_a_clean_run() {
        let dir = std::env::temp_dir().join(format!("airsched-cli-crash-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap();
        let scenario = &[
            "--channels",
            "3",
            "--cycle",
            "8",
            "--slots",
            "80",
            "--chaos",
            "--times",
            "2,4,8,8",
        ];
        let with = |verb: &str, extra: &[&str]| {
            let mut parts = vec![verb];
            parts.extend_from_slice(scenario);
            parts.extend_from_slice(extra);
            run_line(&parts)
        };

        // Ground truth: the never-crashed twin's ending.
        let clean = with("run", &[]).unwrap();
        let clean_final = clean
            .lines()
            .find(|l| l.starts_with("final mode"))
            .unwrap()
            .to_string();

        // Crash-safe run killed on cue at a subscription slot (35 % 5 == 0),
        // so restore must also prove it does not double-apply that slot's
        // already-journaled subscription.
        let crashed = with(
            "run",
            &[
                "--state-dir",
                dir_s,
                "--checkpoint-every",
                "16",
                "--crash-at",
                "35",
            ],
        )
        .unwrap();
        assert!(
            crashed.contains("scripted crash fired at slot 35"),
            "{crashed}"
        );

        let desc = with("checkpoint", &["--state-dir", dir_s]).unwrap();
        assert!(desc.contains("checkpoint: slot 32"), "{desc}");
        assert!(desc.contains("fault plan persisted: yes"), "{desc}");

        let restored = with("restore", &["--state-dir", dir_s]).unwrap();
        assert!(
            restored.contains("recovered station at slot 35"),
            "{restored}"
        );
        let restored_final = restored
            .lines()
            .find(|l| l.starts_with("final mode"))
            .unwrap();
        assert_eq!(
            restored_final, clean_final,
            "the recovered continuation must end exactly where the clean run does"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_recoverable_completes_and_parks_a_current_checkpoint() {
        let dir = std::env::temp_dir().join(format!("airsched-cli-park-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap();
        let out = run_line(&[
            "run",
            "--slots",
            "40",
            "--state-dir",
            dir_s,
            "--checkpoint-every",
            "10",
        ])
        .unwrap();
        assert!(
            out.contains("state directory") && out.contains("current through slot 40"),
            "{out}"
        );
        // A restore from a parked directory replays nothing and has
        // nothing left to run.
        let restored = run_line(&["restore", "--slots", "40", "--state-dir", dir_s]).unwrap();
        assert!(
            restored.contains("recovered station at slot 40: replayed 0"),
            "{restored}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_and_restore_demand_a_state_dir() {
        assert!(run_line(&["checkpoint"])
            .unwrap_err()
            .to_string()
            .contains("--state-dir"));
        assert!(run_line(&["restore"])
            .unwrap_err()
            .to_string()
            .contains("--state-dir"));
        let missing = std::env::temp_dir().join("airsched-cli-nonexistent-state");
        let err = run_line(&["restore", "--state-dir", missing.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("no checkpoint"), "{err}");
    }

    #[test]
    fn onefifth_small() {
        let out = run_line(&[
            "onefifth",
            "--n",
            "60",
            "--groups",
            "4",
            "--t1",
            "2",
            "--requests",
            "300",
        ])
        .unwrap();
        assert!(out.contains("AvgD@N/5"), "{out}");
        // Four distribution rows + header + rule.
        assert_eq!(out.lines().count(), 6, "{out}");
    }
}
