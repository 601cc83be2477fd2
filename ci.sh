#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the tier-1 verify from ROADMAP.md.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc gate: cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests (hard 600 s timeout)"
# This step runs chaos_coop too, which spawns real child worker processes,
# so it gets the same guard as the chaos step below. Building first keeps
# compile time out of the bound; the run itself takes about 70 s on a
# 2-vCPU machine.
cargo test -q --workspace --no-run
timeout 600 cargo test -q --workspace

echo "==> differential suites: incremental EDF timeline + phantom fast path + unified event queue + warm-pool sweep"
cargo test -q -p rtrm-sched --test incremental
cargo test -q -p rtrm-core --test phantom_fastpath
cargo test -q -p rtrm-core --test prune_differential
cargo test -q -p rtrm-core --test warmstart_differential
cargo test -q -p rtrm-core --test presolve_differential
cargo test -q -p rtrm-sim --test phantom_differential
cargo test -q -p rtrm-sim --test unified_queue
cargo test -q -p rtrm-bench --test sweep_differential

echo "==> horizon: confidence gate properties + theta-endpoint differentials"
cargo test -q -p rtrm-core --test horizon_gate
cargo test -q -p rtrm-sim --test horizon_differential

echo "==> service: sharded-vs-sequential differential + overload degradation + histogram merge"
cargo test -q -p rtrm-service --test service_differential
cargo test -q -p rtrm-service --test overload
cargo test -q -p rtrm-service --test histogram_merge

echo "==> fault injection: anytime MILP ladder + batch quarantine + sweep persistence"
cargo test -q -p rtrm-sim --test anytime_milp
cargo test -q -p rtrm-sim --test fault_injection
cargo test -q -p rtrm-bench --test fault_injection

echo "==> chaos: cooperative sweep workers killed mid-protocol (hard 300 s timeout)"
# The suite spawns real child worker processes; the timeout turns a hung
# orphan into a build failure instead of a wedged CI run.
timeout 300 cargo test -q -p rtrm-bench --test chaos_coop

echo "==> BENCH_*.json schema sanity"
cargo test -q -p rtrm-bench --test bench_json_schema

echo "==> perfbench: the benchmark's own tests (a separate cargo workspace)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench: one-second runs of both workloads (no deadline miss, stable digests, no degraded decision)"
# A short run still performs the benchmark's correctness checks; a failed
# check exits non-zero and fails the gate.
for workload in batch-paper-exact stream-paper-lt; do
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0
done

echo "CI OK"
