//! Crash-recovery integration suite: kill the station at every slot (and
//! half-way through a checkpoint write), restore it, and require the
//! recovered continuation — every `TickOutcome` and the final stats — to
//! be bit-identical to a twin that never crashed.

use std::fs;
use std::path::PathBuf;

use airsched_core::types::{ChannelId, PageId};
use airsched_obs::events::Event;
use airsched_obs::Obs;
use airsched_recover::{
    read_journal, Checkpoint, CrashInjector, JournalRecord, RecoverError, RecoverableStation,
    RecoveryOptions, CHECKPOINT_FILE, CHECKPOINT_SHADOW, JOURNAL_FILE,
};
use airsched_server::faults::{FaultEvent, FaultPlan};
use airsched_server::{Mode, Station, StationStats, TickOutcome};

const CHANNELS: u32 = 3;
const CYCLE: u64 = 8;
const SLOTS: u64 = 96;
/// The paper-example flavour of catalogue: a small ladder of expected
/// times on a few pages.
const TIMES: [(u32, u64); 4] = [(0, 2), (1, 4), (2, 8), (3, 8)];

/// A catalogue on a channel count, served under [`plan`]'s faults.
#[derive(Debug, Clone, Copy)]
struct History {
    channels: u32,
    times: &'static [(u32, u64)],
}

/// The twin history every test replays and both goldens pin. Its
/// catalogue sums to exactly 1 channel (Theorem 3.1), so any survivor
/// count repacks and it never airs a best-effort plan.
const TWIN: History = History {
    channels: CHANNELS,
    times: &TIMES,
};

/// A catalogue whose Theorem 3.1 minimum (1/2 + 1/2 + 1/4 + 1/4 = 1.5,
/// so 2 channels) exceeds the one channel the scripted outage leaves:
/// from slot 24 it airs a best-effort (PAMAD) plan.
const BEST_EFFORT: History = History {
    channels: 2,
    times: &[(0, 2), (1, 2), (2, 4), (3, 4)],
};

impl History {
    fn station(self) -> Station {
        let mut s = Station::with_faults(self.channels, CYCLE, &plan()).expect("station builds");
        for &(page, expected) in self.times {
            s.publish(PageId::new(page), expected).expect("publishes");
        }
        s
    }

    /// Drives an uninterrupted station through all `SLOTS`, returning
    /// every outcome and the final stats — the ground truth every
    /// crashed-and-recovered run must match exactly.
    fn outcomes(self) -> (Vec<TickOutcome>, StationStats) {
        let mut s = self.station();
        let mut out = Vec::with_capacity(usize::try_from(SLOTS).expect("small"));
        for t in 0..SLOTS {
            if let Some(p) = sub_page(t) {
                s.subscribe(p).expect("subscribes");
            }
            out.push(s.tick());
        }
        (out, s.stats())
    }
}

fn plan() -> FaultPlan {
    FaultPlan::seeded(0xC4A5)
        .with_outage(0.04)
        .with_recovery(0.2)
        .with_stalls(0.02)
        .with_corruption(0.06)
        .with_script(vec![
            FaultEvent::Down {
                at: 24,
                channel: ChannelId::new(0),
            },
            FaultEvent::Up {
                at: 48,
                channel: ChannelId::new(0),
            },
        ])
}

fn fresh_station() -> Station {
    TWIN.station()
}

/// The deterministic subscription schedule both twins follow.
fn sub_page(t: u64) -> Option<PageId> {
    t.is_multiple_of(3)
        .then(|| PageId::new(u32::try_from(t % 4).expect("small")))
}

fn twin_outcomes() -> (Vec<TickOutcome>, StationStats) {
    TWIN.outcomes()
}

fn state_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("airsched-crashsweep-{tag}-{}", std::process::id()))
}

/// Runs a recoverable station until its scripted crash fires, returning
/// the crash slot.
fn run_until_crash(run: &mut RecoverableStation) -> u64 {
    let mut t = run.now();
    loop {
        if let Some(p) = sub_page(t) {
            run.subscribe(p).expect("subscribes");
        }
        match run.tick() {
            Ok(_) => t = run.now(),
            Err(RecoverError::Crashed { slot }) => return slot,
            Err(e) => panic!("unexpected recovery error: {e}"),
        }
    }
}

/// Drives the twin's whole history through a crash-free recoverable
/// station (checkpoint every 8 slots) and returns its state directory.
fn journaled_twin_history(tag: &str) -> PathBuf {
    let dir = state_dir(tag);
    let opts = RecoveryOptions::new().checkpoint_every(8);
    let mut run = RecoverableStation::create(&dir, fresh_station(), Some(plan()), opts)
        .expect("create succeeds");
    for t in 0..SLOTS {
        if let Some(p) = sub_page(t) {
            run.subscribe(p).expect("subscribes");
        }
        run.tick().expect("ticks");
    }
    dir
}

/// The journal of the twin history is pinned byte for byte in
/// `tests/golden/journal_history.bin`, the concatenation of each record's
/// own `encode_framed` frame — what the per-record journal writer that
/// preceded group commit wrote: how records are batched into writes must
/// never change what lands on disk.
#[test]
fn journal_bytes_match_the_pinned_golden() {
    let dir = journaled_twin_history("golden");
    let got = fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
    let golden = include_bytes!("golden/journal_history.bin");
    assert!(
        got == golden,
        "journal drifted from tests/golden/journal_history.bin ({} bytes, golden {})",
        got.len(),
        golden.len()
    );
    fs::remove_dir_all(&dir).ok();
}

/// The twin history's checkpoint files in the order they were written:
/// the one `create` writes, then one every 8 slots.
fn twin_checkpoints() -> Vec<Vec<u8>> {
    let dir = state_dir("checkpoints");
    let opts = RecoveryOptions::new().checkpoint_every(8);
    let mut run = RecoverableStation::create(&dir, fresh_station(), Some(plan()), opts)
        .expect("create succeeds");
    let read = || fs::read(dir.join(CHECKPOINT_FILE)).expect("checkpoint exists");
    let mut files = vec![read()];
    for t in 0..SLOTS {
        if let Some(p) = sub_page(t) {
            run.subscribe(p).expect("subscribes");
        }
        run.tick().expect("ticks");
        let file = read();
        if files.last() != Some(&file) {
            files.push(file);
        }
    }
    fs::remove_dir_all(&dir).ok();
    files
}

/// Every checkpoint of the twin history is pinned byte for byte in
/// `tests/golden/checkpoint_history.bin`, the files concatenated in the
/// order they were written. The history airs the full plan, relocated
/// plans and no plan at all, so each of those plan encodings (and the
/// mode byte derived from it) is pinned.
#[test]
fn checkpoint_bytes_match_the_pinned_golden() {
    let files = twin_checkpoints();
    assert_eq!(files.len(), 13, "one checkpoint at create, one per 8 slots");
    let got = files.concat();
    let golden = include_bytes!("golden/checkpoint_history.bin");
    assert!(
        got == golden,
        "checkpoints drifted from tests/golden/checkpoint_history.bin ({} bytes, golden {})",
        got.len(),
        golden.len()
    );
    let modes: Vec<Mode> = files
        .iter()
        .map(|f| {
            Checkpoint::decode(f)
                .expect("decodes")
                .snapshot
                .active
                .mode()
        })
        .collect();
    for mode in [Mode::Valid, Mode::Repacked, Mode::Offline] {
        assert!(modes.contains(&mode), "{mode} missing from {modes:?}");
    }
}

/// Crashes `history` at every slot and requires each resumed
/// continuation to match the never-crashed run. Returns the modes of the
/// checkpoints the resumes started from and of the outcomes some crash
/// follows (every slot before the last crash).
fn crash_sweep(history: History) -> (Vec<Mode>, Vec<Mode>) {
    let (twin, twin_stats) = history.outcomes();
    let mut checkpoint_modes = Vec::new();
    for crash_at in 1..SLOTS {
        let dir = state_dir(&format!("{}ch-slot{crash_at}", history.channels));
        let opts = RecoveryOptions::new()
            .checkpoint_every(8)
            .with_crash(CrashInjector::at_slot(crash_at));
        let mut run = RecoverableStation::create(&dir, history.station(), Some(plan()), opts)
            .expect("create succeeds");
        let crashed = run_until_crash(&mut run);
        assert_eq!(crashed, crash_at);
        drop(run); // the "process" dies; only the state directory survives
        let checkpoint = fs::read(dir.join(CHECKPOINT_FILE)).expect("checkpoint exists");
        let checkpoint = Checkpoint::decode(&checkpoint).expect("checkpoint decodes");
        checkpoint_modes.push(checkpoint.snapshot.active.mode());

        let (mut resumed, report) =
            RecoverableStation::resume(&dir, RecoveryOptions::new().checkpoint_every(8), None)
                .unwrap_or_else(|e| panic!("crash at {crash_at}: resume failed: {e}"));
        assert_eq!(resumed.now(), crash_at, "recovery lost or invented slots");
        assert_eq!(report.resumed_at, crash_at);

        for t in crash_at..SLOTS {
            // The crash fired *before* ticking `crash_at`, so that slot's
            // buffered subscription died with the process: the
            // continuation issues it again.
            if let Some(p) = sub_page(t) {
                resumed.subscribe(p).expect("subscribes");
            }
            let got = resumed.tick().expect("post-recovery ticks");
            assert_eq!(
                got,
                twin[usize::try_from(t).expect("small")],
                "crash at {crash_at}: outcome diverged at slot {t}"
            );
        }
        assert_eq!(
            resumed.stats(),
            twin_stats,
            "crash at {crash_at}: final stats diverged"
        );
        fs::remove_dir_all(&dir).ok();
    }
    let pre_crash_modes = twin[..twin.len() - 1].iter().map(|o| o.mode).collect();
    (checkpoint_modes, pre_crash_modes)
}

/// The sweep runs over the twin history and over [`BEST_EFFORT`], so a
/// crash and resume cross a best-effort plan and its checkpoint encoding.
#[test]
fn crash_at_every_slot_recovers_bit_identically() {
    crash_sweep(TWIN);
    let (checkpoint_modes, pre_crash_modes) = crash_sweep(BEST_EFFORT);
    assert!(
        checkpoint_modes.contains(&Mode::BestEffort),
        "no resume started from a best-effort checkpoint: {checkpoint_modes:?}"
    );
    assert!(
        pre_crash_modes.contains(&Mode::BestEffort),
        "no crash followed a best-effort slot"
    );
}

/// The persisted state is a pure function of the serving history: two
/// independent runs of the same history, crashed at the same slot, leave
/// byte-identical checkpoint and journal files — the waiting-set arena
/// layout and its growth history never reach the disk — and the crashed
/// state resumes bit-identical to the never-crashed twin.
#[test]
fn state_files_are_a_function_of_the_serving_history_alone() {
    let (twin, twin_stats) = twin_outcomes();
    // Off the 8-slot checkpoint cadence so recovery replays a non-empty
    // journal tail on top of the slot-40 checkpoint.
    let crash_at = 43;
    let doomed_run = |tag: &str| {
        let dir = state_dir(&format!("rerun-{tag}"));
        let opts = RecoveryOptions::new()
            .checkpoint_every(8)
            .with_crash(CrashInjector::at_slot(crash_at));
        let mut run = RecoverableStation::create(&dir, fresh_station(), Some(plan()), opts)
            .expect("create succeeds");
        assert_eq!(run_until_crash(&mut run), crash_at);
        drop(run); // the "process" dies; only the state directory survives
        dir
    };
    let first_dir = doomed_run("first");
    let second_dir = doomed_run("second");

    for file in [CHECKPOINT_FILE, JOURNAL_FILE] {
        assert_eq!(
            fs::read(first_dir.join(file)).expect("first state file"),
            fs::read(second_dir.join(file)).expect("second state file"),
            "{file} differs between two runs of the same history"
        );
    }

    let (mut resumed, report) = RecoverableStation::resume(
        &second_dir,
        RecoveryOptions::new().checkpoint_every(8),
        None,
    )
    .expect("resume succeeds");
    assert_eq!(report.resumed_at, crash_at);
    for t in crash_at..SLOTS {
        // As in the crash sweep: slot `crash_at`'s subscription was lost
        // with the unfinished slot, so the continuation issues it again.
        if let Some(p) = sub_page(t) {
            resumed.subscribe(p).expect("subscribes");
        }
        let got = resumed.tick().expect("post-recovery ticks");
        assert_eq!(
            got,
            twin[usize::try_from(t).expect("small")],
            "recovery diverged from the never-crashed twin at slot {t}"
        );
    }
    assert_eq!(resumed.stats(), twin_stats);
    fs::remove_dir_all(&first_dir).ok();
    fs::remove_dir_all(&second_dir).ok();
}

/// The journal is committed once per slot, so a crash between a slot's
/// subscriptions and its tick loses all of them together: the state
/// directory is exactly as the previous tick left it, and the resumed
/// continuation, re-issuing that slot's inputs, matches the twin.
#[test]
fn crash_between_subscribe_and_tick_loses_the_whole_slot() {
    let (twin, twin_stats) = twin_outcomes();
    let crash_at = 43;
    let dir = state_dir("unfinished");
    let opts = RecoveryOptions::new()
        .checkpoint_every(8)
        .with_crash(CrashInjector::at_slot(crash_at));
    let mut run =
        RecoverableStation::create(&dir, fresh_station(), Some(plan()), opts).expect("create");
    for t in 0..crash_at {
        if let Some(p) = sub_page(t) {
            run.subscribe(p).expect("subscribes");
        }
        run.tick().expect("ticks");
    }
    let stats_before = run.stats();
    let journal_before = fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
    for page in 0..4 {
        run.subscribe(PageId::new(page)).expect("subscribes");
    }
    assert!(matches!(
        run.tick(),
        Err(RecoverError::Crashed { slot }) if slot == crash_at
    ));
    drop(run); // the "process" dies with the slot's inputs still buffered

    let journal = fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
    assert_eq!(journal, journal_before, "the unfinished slot reached disk");
    let records = read_journal(&dir.join(JOURNAL_FILE), 0)
        .expect("journal reads")
        .records;
    let last_tick = records
        .iter()
        .rev()
        .find_map(|r| match r {
            JournalRecord::Tick { slot } => Some(*slot),
            _ => None,
        })
        .expect("the journal holds ticks");
    assert_eq!(last_tick, crash_at - 1);
    assert!(
        !matches!(records.last(), Some(JournalRecord::Subscribe { .. })),
        "the journal must end with the previous slot's records"
    );

    let (mut resumed, report) =
        RecoverableStation::resume(&dir, RecoveryOptions::new().checkpoint_every(8), None)
            .expect("resume succeeds");
    assert_eq!(report.resumed_at, crash_at);
    assert_eq!(resumed.stats(), stats_before);
    for t in crash_at..SLOTS {
        if let Some(p) = sub_page(t) {
            resumed.subscribe(p).expect("subscribes");
        }
        let got = resumed.tick().expect("post-recovery ticks");
        assert_eq!(
            got,
            twin[usize::try_from(t).expect("small")],
            "outcome diverged at slot {t}"
        );
    }
    assert_eq!(resumed.stats(), twin_stats);
    fs::remove_dir_all(&dir).ok();
}

/// Resume seeks to the checkpoint's byte cursor and never reads the
/// records the checkpoint already covers, so bit rot inside that prefix
/// does not block recovery.
#[test]
fn corruption_inside_the_checkpointed_prefix_does_not_block_recovery() {
    let (twin, twin_stats) = twin_outcomes();
    let crash_at = 43;
    let dir = state_dir("prefix");
    let opts = RecoveryOptions::new()
        .checkpoint_every(8)
        .with_crash(CrashInjector::at_slot(crash_at));
    let mut run =
        RecoverableStation::create(&dir, fresh_station(), Some(plan()), opts).expect("create");
    assert_eq!(run_until_crash(&mut run), crash_at);
    drop(run);

    let ck = Checkpoint::read(&dir).expect("checkpoint reads");
    assert!(ck.journal_offset > 0);
    let journal_path = dir.join(JOURNAL_FILE);
    let mut bytes = fs::read(&journal_path).expect("journal exists");
    bytes[2] ^= 0x40; // inside the first record's body
    fs::write(&journal_path, &bytes).expect("rewrite");
    let whole = read_journal(&journal_path, 0).expect("journal reads");
    assert!(
        (whole.records.len() as u64) < ck.journal_skip,
        "a read from the start stops at the flipped byte"
    );

    let (mut resumed, report) =
        RecoverableStation::resume(&dir, RecoveryOptions::new().checkpoint_every(8), None)
            .expect("prefix corruption must not refuse recovery");
    assert_eq!(report.resumed_at, crash_at);
    assert_eq!(report.dropped_bytes, 0);
    for t in crash_at..SLOTS {
        if let Some(p) = sub_page(t) {
            resumed.subscribe(p).expect("subscribes");
        }
        let got = resumed.tick().expect("post-recovery ticks");
        assert_eq!(
            got,
            twin[usize::try_from(t).expect("small")],
            "outcome diverged at slot {t}"
        );
    }
    assert_eq!(resumed.stats(), twin_stats);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_checkpoint_write_recovers_from_the_previous_checkpoint() {
    let (twin, twin_stats) = twin_outcomes();
    let dir = state_dir("midckpt");
    // Checkpoint #1 is the creation one; #2 lands at slot 8; #3 at slot
    // 16 is torn half-way through its shadow write.
    let opts = RecoveryOptions::new()
        .checkpoint_every(8)
        .with_crash(CrashInjector::mid_checkpoint(3));
    let mut run =
        RecoverableStation::create(&dir, fresh_station(), Some(plan()), opts).expect("create");
    let crashed = run_until_crash(&mut run);
    assert_eq!(crashed, 16);
    drop(run);
    assert!(
        dir.join(CHECKPOINT_SHADOW).exists(),
        "the torn shadow should be left on disk"
    );

    let (mut resumed, report) =
        RecoverableStation::resume(&dir, RecoveryOptions::new().checkpoint_every(8), None)
            .expect("resume survives a torn shadow");
    // Unlike an inter-slot crash, the tick that triggered the torn
    // checkpoint had already completed, so nothing is lost at all.
    assert_eq!(resumed.now(), 16);
    assert!(
        report.replayed > 0,
        "the slot-8 checkpoint plus journal replay should carry slots 8..16"
    );
    for t in 16..SLOTS {
        if let Some(p) = sub_page(t) {
            resumed.subscribe(p).expect("subscribes");
        }
        let got = resumed.tick().expect("post-recovery ticks");
        assert_eq!(
            got,
            twin[usize::try_from(t).expect("small")],
            "outcome diverged at slot {t}"
        );
    }
    assert_eq!(resumed.stats(), twin_stats);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_journal_tail_recovers_to_the_last_valid_record() {
    let dir = state_dir("tail");
    let mut run =
        RecoverableStation::create(&dir, fresh_station(), Some(plan()), RecoveryOptions::new())
            .expect("create");
    for t in 0..20 {
        if let Some(p) = sub_page(t) {
            run.subscribe(p).expect("subscribes");
        }
        run.tick().expect("ticks");
    }
    drop(run);

    // Bit-rot the journal's final bytes on disk.
    let journal_path = dir.join(JOURNAL_FILE);
    let mut bytes = fs::read(&journal_path).expect("journal exists");
    let n = bytes.len();
    for b in &mut bytes[n - 6..] {
        *b ^= 0xFF;
    }
    fs::write(&journal_path, &bytes).expect("rewrite");

    let (resumed, report) = RecoverableStation::resume(&dir, RecoveryOptions::new(), None)
        .expect("a corrupt tail must not refuse recovery");
    assert!(report.dropped_bytes > 0, "the clobbered tail was dropped");
    // Only the final record (or two, if the clobber straddled a frame
    // boundary) can be lost.
    assert!(
        resumed.now() >= 18 && resumed.now() <= 20,
        "{}",
        resumed.now()
    );
    drop(resumed);

    // Resume truncated the garbage and re-anchored with a fresh
    // checkpoint, so a second recovery is clean.
    let (second, report2) =
        RecoverableStation::resume(&dir, RecoveryOptions::new(), None).expect("second resume");
    assert_eq!(report2.dropped_bytes, 0);
    assert_eq!(
        report2.replayed, 0,
        "the re-anchor checkpoint covers everything"
    );
    assert!(second.now() >= 18);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_postmortem_carries_the_pre_crash_causal_history() {
    let dir = state_dir("postmortem");
    // The scripted blackout at slot 24 precedes the crash at slot 30, so
    // the mode change and channel-health transitions it caused are part
    // of the history the crash destroyed.
    let opts = RecoveryOptions::new()
        .checkpoint_every(16)
        .with_crash(CrashInjector::at_slot(30));
    let mut run =
        RecoverableStation::create(&dir, fresh_station(), Some(plan()), opts).expect("create");
    let crashed = run_until_crash(&mut run);
    assert_eq!(crashed, 30);
    drop(run);

    let obs = Obs::new();
    let (_resumed, report) =
        RecoverableStation::resume(&dir, RecoveryOptions::new(), Some(&obs)).expect("resume");
    assert!(report.replayed > 0);

    // The replayed ticks regenerated the flight-recorder stream, so the
    // recovery postmortem shows what led up to the crash.
    let pms = obs.take_postmortems();
    let pm = pms
        .iter()
        .find(|p| p.trigger == "recovery")
        .expect("a recovery postmortem was captured");
    assert_eq!(pm.slot, 30);
    assert!(
        pm.events
            .iter()
            .any(|e| matches!(e, Event::ModeChange { .. })),
        "the pre-crash mode change is part of the causal history"
    );
    assert!(
        pm.events
            .iter()
            .any(|e| matches!(e, Event::ChannelHealth { .. })),
        "the pre-crash channel loss is part of the causal history"
    );
    assert!(
        pm.events
            .iter()
            .any(|e| matches!(e, Event::RecoveryCompleted { .. })),
        "the recovery itself closes the postmortem"
    );
    let prom = obs.render_prometheus();
    assert!(prom.contains("airsched_recover_recovery_duration_us"));
    assert!(prom.contains("airsched_recover_checkpoints_total"));
    fs::remove_dir_all(&dir).ok();
}
