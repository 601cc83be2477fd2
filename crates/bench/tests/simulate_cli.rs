//! The `simulate` binary on malformed trace files: each must end in exit
//! code 1 with a message naming the problem, never in a panic.

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

/// Runs `simulate --trace <csv>` and returns its exit code and stderr.
fn simulate(name: &str, csv: &str) -> (Option<i32>, String) {
    let path = trace_file(name, csv);
    let output = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--trace")
        .arg(&path)
        .output()
        .expect("run simulate");
    let _ = std::fs::remove_file(&path);
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
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
