//! Chaos suite for cooperative sweeps: real child **worker processes** are
//! killed (`std::process::abort`, no unwinding, no `Drop` cleanup) at every
//! step of the claim/execute/publish/merge protocol, and the surviving
//! worker must still complete the grid with a canonical checkpoint
//! byte-identical — modulo the wall-clock `elapsed_ms` — to a sequential
//! single-process run of the same spec and seed.
//!
//! The mechanism: this test binary re-invokes itself
//! (`std::env::current_exe()`) filtered to [`chaos_child_entry`], which
//! turns into a cooperative sweep worker when `RTRM_CHAOS_OWNER` is set.
//! The kill schedule travels in `RTRM_FAILPOINTS` (parsed by
//! `rtrm_testkit::arm_from_env`), arming an `abort` action at one of:
//!
//! * `sweep::claim` key 0 — mid-claim, right after winning `create_new`
//!   and before the heartbeat write (an empty claim file, recovered via the
//!   mtime fallback);
//! * `batch::trace` — mid-cell, inside the warm pool's trace execution;
//! * `sweep::part_publish` key 1 — mid-shard-publish, between the temp
//!   write and the atomic rename (the shard must not be torn);
//! * `sweep::merge` keys 0/1 — mid-merge, before the canonical publish and
//!   after it but before shard/claim cleanup.
//!
//! Every test holds a global lock: all schedules share one sweep name and
//! one `results/` directory.

use std::fs;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use rtrm_bench::coop::{fresh_cleanup, CoopConfig};
use rtrm_bench::sweep::{run_sweep, GridWorkload, PredictorSpec, SweepOptions, SweepSpec};
use rtrm_bench::{Group, Policy, Scale};

/// All schedules share the `test_chaos_coop` sweep name, so the suite
/// serializes.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const SWEEP_NAME: &str = "test_chaos_coop";

/// Staleness threshold for every chaos run: short enough that orphaned
/// claims are taken over in ~1 s instead of the production 30 s.
const STALE_SECS: u64 = 1;

/// The 4-cell grid every chaos schedule runs (2 groups × 2 predictors,
/// tiny traces so a full run takes milliseconds per cell).
fn chaos_spec() -> SweepSpec {
    SweepSpec {
        name: SWEEP_NAME,
        scale: Scale {
            traces: 2,
            trace_len: 20,
            seed: 23,
        },
        workload: GridWorkload::Paper {
            groups: vec![Group::Vt, Group::Lt],
        },
        policies: vec![Policy::Heuristic],
        predictors: vec![PredictorSpec::off(), PredictorSpec::perfect()],
    }
}

fn coop_options(owner: &str) -> SweepOptions {
    SweepOptions {
        quiet: true,
        lease_stale_secs: STALE_SECS,
        coop: Some(CoopConfig {
            owner: owner.to_string(),
            batch: 1,
        }),
        ..SweepOptions::default()
    }
}

/// Worker entry point, activated by `RTRM_CHAOS_OWNER`. In a normal test
/// run the variable is unset and this is a no-op. As a child process it
/// arms the kill schedule from `RTRM_FAILPOINTS` and runs one cooperative
/// worker to completion; an armed abort kills the process mid-protocol
/// (nonzero exit), an unarmed child exits 0 after the merge.
#[test]
fn chaos_child_entry() {
    let Ok(owner) = std::env::var("RTRM_CHAOS_OWNER") else {
        return;
    };
    let _armed = rtrm_testkit::arm_from_env();
    run_sweep(&chaos_spec(), &coop_options(&owner)).expect("cooperative worker completes");
}

/// Kills the child on drop so a panicking parent never leaks a live worker
/// into the rest of the build (the ci.sh timeout wrapper is the backstop,
/// not the cleanup path).
struct ChildGuard(Option<Child>);

impl ChildGuard {
    /// Waits for the worker and returns its exit status with everything it
    /// wrote to stderr, so a failed worker can say why.
    fn wait(mut self) -> (ExitStatus, String) {
        let child = self.0.take().expect("child present");
        let output = child.wait_with_output().expect("wait on chaos child");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status, stderr)
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns this same test binary as a cooperative worker process with the
/// given owner id and kill schedule (`""` = run to completion). Its stderr
/// is piped for [`ChildGuard::wait`]; `--nocapture` sends a panic's message
/// there instead of into the test harness's captured stdout.
fn spawn_worker(owner: &str, failpoints: &str) -> ChildGuard {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.arg("chaos_child_entry")
        .arg("--exact")
        .arg("--nocapture")
        .env("RTRM_CHAOS_OWNER", owner)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if failpoints.is_empty() {
        cmd.env_remove("RTRM_FAILPOINTS");
    } else {
        cmd.env("RTRM_FAILPOINTS", failpoints);
    }
    ChildGuard(Some(cmd.spawn().expect("spawn chaos worker")))
}

/// Zeroes `elapsed_ms` so deterministic checkpoints compare byte-equal
/// (cell order needs no normalization: both engines emit grid order).
fn normalize_checkpoint(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        match line.find("\"elapsed_ms\": ") {
            Some(pos) => {
                let prefix = &line[..pos + "\"elapsed_ms\": ".len()];
                let suffix = if line.ends_with("},") { "0}," } else { "0}" };
                out.push_str(prefix);
                out.push_str(suffix);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Runs the sequential single-process reference once and returns its
/// normalized checkpoint, leaving `results/` wiped for the chaos run.
fn sequential_reference() -> String {
    fresh_cleanup(SWEEP_NAME);
    let outcome = run_sweep(
        &chaos_spec(),
        &SweepOptions {
            fresh: true,
            quiet: true,
            ..SweepOptions::default()
        },
    )
    .expect("sequential reference runs");
    let text = fs::read_to_string(&outcome.checkpoint_path).expect("read reference checkpoint");
    let _ = fs::remove_file(&outcome.csv_path);
    fresh_cleanup(SWEEP_NAME);
    normalize_checkpoint(&text)
}

/// One kill schedule: a victim worker armed with `failpoints` races a
/// surviving in-process worker. The victim must die (nonzero exit), the
/// survivor must finish the grid, and the merged canonical checkpoint must
/// equal the sequential reference byte-for-byte (modulo `elapsed_ms`).
fn run_schedule(failpoints: &str) {
    let reference = sequential_reference();

    let victim = spawn_worker("victim", failpoints);
    // Let the victim engage the protocol (claim, execute, die) before the
    // survivor starts sweeping cells out from under it.
    std::thread::sleep(Duration::from_millis(200));
    let outcome =
        run_sweep(&chaos_spec(), &coop_options("survivor")).expect("surviving worker completes");

    let (status, stderr) = victim.wait();
    assert!(
        !status.success(),
        "the victim must have been killed by its armed abort ({failpoints}), got {status}; \
         stderr:\n{stderr}"
    );

    assert_eq!(outcome.cells.len(), 4, "survivor sees the full grid");
    let merged = fs::read_to_string(&outcome.checkpoint_path).expect("read merged checkpoint");
    assert_eq!(
        normalize_checkpoint(&merged),
        reference,
        "schedule '{failpoints}': merged checkpoint diverged from the sequential run"
    );

    let _ = fs::remove_file(&outcome.csv_path);
    fresh_cleanup(SWEEP_NAME);
}

#[test]
fn worker_killed_mid_claim_is_taken_over() {
    let _serial = lock();
    // Key 0: right after winning `create_new`, before the heartbeat write —
    // the orphaned claim file is empty and only its mtime marks it dead.
    run_schedule("sweep::claim=abort@1#0");
}

#[test]
fn worker_killed_mid_cell_is_taken_over() {
    let _serial = lock();
    run_schedule("batch::trace=abort@1");
}

#[test]
fn worker_killed_mid_shard_publish_loses_no_published_cells() {
    let _serial = lock();
    // Key 1: between the shard temp-file write and the atomic rename — the
    // live shard must be untorn and the unpublished cell re-executed.
    run_schedule("sweep::part_publish=abort@1#1");
}

#[test]
fn worker_killed_mid_merge_before_publish() {
    let _serial = lock();
    run_schedule("sweep::merge=abort@1#0");
}

#[test]
fn worker_killed_mid_merge_after_publish_before_cleanup() {
    let _serial = lock();
    run_schedule("sweep::merge=abort@1#1");
}

/// The acceptance-criteria fan-out: 4 real worker processes, no kill
/// schedule, all merging concurrently. Every worker must exit 0 and the
/// canonical checkpoint must match the sequential reference, with no
/// shard or claim debris left behind.
#[test]
fn four_process_cooperative_run_matches_sequential() {
    let _serial = lock();
    let reference = sequential_reference();

    let workers: Vec<ChildGuard> = (0..4)
        .map(|i| spawn_worker(&format!("proc{i}"), ""))
        .collect();
    for (i, worker) in workers.into_iter().enumerate() {
        let (status, stderr) = worker.wait();
        assert!(
            status.success(),
            "worker proc{i} failed: {status}; stderr:\n{stderr}"
        );
    }

    // A late in-process worker finds everything covered, executes nothing,
    // and re-merges idempotently — handing us the canonical paths.
    let outcome =
        run_sweep(&chaos_spec(), &coop_options("verifier")).expect("post-hoc verifier completes");
    assert_eq!(
        outcome.resumed, 4,
        "the 4 worker processes did all the work; the verifier resumed everything"
    );
    let merged = fs::read_to_string(&outcome.checkpoint_path).expect("merged exists");
    assert_eq!(
        normalize_checkpoint(&merged),
        reference,
        "4-process merged checkpoint diverged from the sequential run"
    );
    let dir = outcome.checkpoint_path.parent().expect("results dir");
    assert!(
        !dir.join(format!("{SWEEP_NAME}.sweep.claims")).exists(),
        "claims directory cleaned up"
    );
    for entry in fs::read_dir(dir).expect("list results") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            !(name.starts_with(&format!("{SWEEP_NAME}.sweep.")) && name.ends_with(".part.json")),
            "shard {name} left behind"
        );
    }

    let _ = fs::remove_file(&outcome.csv_path);
    fresh_cleanup(SWEEP_NAME);
}
