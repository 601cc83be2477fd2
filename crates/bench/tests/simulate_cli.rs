//! The `simulate` binary on malformed trace files and out-of-range flags:
//! each must end in exit code 1 with a message naming the problem, never in
//! a panic.

use std::path::PathBuf;
use std::process::Command;

/// Writes `csv` to a fresh file in the system temp directory.
fn trace_file(name: &str, csv: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "rtrm-simulate-cli-{}-{name}.csv",
        std::process::id()
    ));
    std::fs::write(&path, csv).expect("write trace file");
    path
}

/// Runs `simulate` with `args` and returns its exit code and stderr.
fn run(args: &[&std::ffi::OsStr]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("run simulate");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Runs `simulate --trace <csv>` and returns its exit code and stderr.
fn simulate(name: &str, csv: &str) -> (Option<i32>, String) {
    let path = trace_file(name, csv);
    let result = run(&["--trace".as_ref(), path.as_os_str()]);
    let _ = std::fs::remove_file(&path);
    result
}

/// Runs `simulate` on a short generated trace with `flags` appended.
fn simulate_with(flags: &[&str]) -> (Option<i32>, String) {
    let mut args = vec!["--length", "20", "--predictor", "oracle"];
    args.extend_from_slice(flags);
    let args: Vec<&std::ffi::OsStr> = args.iter().map(|a| a.as_ref()).collect();
    run(&args)
}

#[test]
fn unknown_task_type_exits_with_a_message() {
    // The generated catalog has 100 types, so type 100 is one past its end.
    let (code, stderr) = simulate(
        "type",
        "id,arrival,task_type,deadline\n0,0.0,3,50.0\n1,1.0,100,50.0\n",
    );
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("request 1 has task_type 100"),
        "stderr: {stderr}"
    );
}

#[test]
fn negative_arrival_exits_with_a_message() {
    let (code, stderr) = simulate("arrival", "id,arrival,task_type,deadline\n0,-5.0,0,50.0\n");
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
    assert!(stderr.contains("non-negative"), "stderr: {stderr}");
}

#[test]
fn non_positive_deadline_exits_with_a_message() {
    let (code, stderr) = simulate("deadline", "id,arrival,task_type,deadline\n0,0.0,0,0.0\n");
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("positive"), "stderr: {stderr}");
}

#[test]
fn valid_trace_file_still_runs() {
    let (code, stderr) = simulate(
        "valid",
        "id,arrival,task_type,deadline\n0,0.0,3,50.0\n1,1.0,99,50.0\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn out_of_range_flags_exit_with_a_message() {
    for (flags, message) in [
        (
            &["--overhead", "-1"][..],
            "--overhead must be finite and non-negative, got -1",
        ),
        (
            &["--overhead", "nan"],
            "--overhead must be finite and non-negative, got NaN",
        ),
        (
            &["--accuracy-type", "2"],
            "--accuracy-type must be in [0, 1], got 2",
        ),
        (
            &["--accuracy-arrival", "2"],
            "--accuracy-arrival must be in [0, 1], got 2",
        ),
        (
            &["--accuracy-arrival", "-1"],
            "--accuracy-arrival must be in [0, 1], got -1",
        ),
        (&["--length", "0"], "--length must be at least 1, got 0"),
    ] {
        let (code, stderr) = simulate_with(flags);
        assert_eq!(code, Some(1), "{flags:?}: stderr: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: stderr: {stderr}");
    }
}

#[test]
fn in_range_flags_still_run() {
    let (code, stderr) = simulate_with(&[
        "--accuracy-type",
        "0.5",
        "--accuracy-arrival",
        "0",
        "--overhead",
        "0.1",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
