//! End-to-end tests of the compiled `airsched` binary: real process, real
//! argv, real exit codes.

use std::process::Command;

fn airsched(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_airsched"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = airsched(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("COMMANDS"));
}

#[test]
fn no_args_prints_usage() {
    let out = airsched(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_stderr() {
    let out = airsched(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

#[test]
fn bound_pipeline() {
    let out = airsched(&["bound", "--times", "2,4", "--counts", "2,3"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("tight): 2"), "{text}");
}

#[test]
fn schedule_grid_renders() {
    let out = airsched(&[
        "schedule",
        "--times",
        "2,4,8",
        "--counts",
        "3,5,3",
        "--channels",
        "3",
        "--grid",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("PAMAD"), "{text}");
    assert!(text.contains("ch0:"), "{text}");
}

#[test]
fn bad_option_value_fails_cleanly() {
    let out = airsched(&["schedule", "--channels", "not-a-number"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot parse"), "{err}");
}

#[test]
fn save_and_inspect_round_trip_via_processes() {
    let dir = std::env::temp_dir().join("airsched-cli-process-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.txt");
    let path_str = path.to_str().unwrap();

    let out = airsched(&[
        "schedule",
        "--times",
        "2,4",
        "--counts",
        "2,3",
        "--channels",
        "2",
        "--save",
        path_str,
    ]);
    assert!(out.status.success());
    assert!(path.exists());

    let out = airsched(&[
        "inspect", "--file", path_str, "--times", "2,4", "--counts", "2,3",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("valid broadcast program"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_smoke() {
    let out = airsched(&[
        "simulate",
        "--times",
        "2,4,8",
        "--counts",
        "3,5,3",
        "--channels",
        "2",
        "--requests",
        "300",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("AvgD"));
}

/// Replaces every `"duration_us":<digits>` with `"duration_us":0` — the
/// flight recorder's one wall-clock field.
fn zero_durations(text: &str) -> String {
    let key = "\"duration_us\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let tail = at + key.len();
        out.push_str(&rest[..tail]);
        out.push('0');
        rest = rest[tail..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Pins the flight recorder's event order: the chaos scenario's event
/// stream, durations zeroed, must equal the checked-in golden byte for
/// byte. Regenerate with `airsched run --chaos --slots 300 --seed 7
/// --events-out ev.jsonl` and `sed -E 's/"duration_us":[0-9]+/"duration_us":0/'
/// ev.jsonl > tests/golden/obs_chaos_events.jsonl`.
#[test]
fn chaos_event_stream_matches_golden() {
    let dir = std::env::temp_dir().join("airsched-cli-process-events");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let out = airsched(&[
        "run",
        "--chaos",
        "--slots",
        "300",
        "--seed",
        "7",
        "--events-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let fresh = zero_durations(&std::fs::read_to_string(&path).unwrap());
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/obs_chaos_events.jsonl"
    ))
    .unwrap();
    assert_eq!(
        fresh, golden,
        "event stream drifted from tests/golden/obs_chaos_events.jsonl"
    );
    std::fs::remove_file(&path).ok();
}
