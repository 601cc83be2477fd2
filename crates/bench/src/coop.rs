//! Cooperative sweep execution: N processes share one grid.
//!
//! The single-process engine in [`crate::sweep`] holds one exclusive lease
//! for the whole run, so a second process can only queue behind it or steal
//! after a crash — it can never *help*. This module replaces that whole-run
//! lease with a **per-cell claim protocol** over the shared `results/`
//! directory, so any number of workers (same machine or shared filesystem)
//! cooperatively finish one grid:
//!
//! 1. **Claim** — a worker claims a batch of pending cells by atomically
//!    creating one claim file per cell under
//!    `results/<name>.sweep.claims/` (`create_new`, so exactly one worker
//!    wins each cell). Claim files carry `owner`/`heartbeat` lines in the
//!    same format as the exclusive lease and are refreshed between cells.
//! 2. **Execute + publish** — completed cells are appended to the worker's
//!    private **partial checkpoint shard**
//!    `results/<name>.sweep.<owner>.part.json` (the canonical checkpoint
//!    document plus an `"owner"` header field), published atomically via
//!    temp-file + rename after every cell, exactly like the single-process
//!    checkpoint.
//! 3. **Merge** — when the grid is covered (canonical checkpoint ∪ shards),
//!    whichever workers get there fold every shard into the canonical
//!    `results/<name>.sweep.json` and write the CSV. Merging is idempotent
//!    and concurrent-safe: inputs are read-only, the publish is an atomic
//!    rename, and every merger derives the same document.
//!
//! ## Robustness contract
//!
//! * **Crashed workers** — a claim whose heartbeat is older than
//!   [`crate::sweep::SweepOptions::lease_stale_secs`] (mtime stands in when
//!   the owner died between create and first write) marks a dead owner. A
//!   contender confirms staleness with a bounded-backoff re-read, then
//!   removes the claim and races the recreate; exactly one contender wins.
//!   The dead worker's *published* cells survive in its shard; only the cell
//!   it was holding is re-executed.
//! * **Stalled workers** — heartbeats are refreshed between cells, never
//!   mid-cell, so a worker stuck inside a cell longer than the staleness
//!   threshold loses its claim and the remaining workers finish the grid
//!   instead of deadlocking. Both workers may then complete the same cell —
//!   which is safe, because…
//! * **Duplicates must agree** — per-cell seeds ([`crate::sweep::cell_seed`])
//!   are derived from the master seed and cell key alone, so re-execution is
//!   deterministic and at-least-once semantics are sound. The merge asserts
//!   duplicate completions are bit-identical on the deterministic fields
//!   ([`CellMetrics::deterministic_eq`]); a mismatch means a corrupted shard
//!   or workers running different builds, and fails hard with
//!   [`SweepError::ShardConflict`] rather than silently picking one.
//!
//! Cooperative and exclusive modes must not be mixed on one sweep name: a
//! cooperative worker refuses to start while a live exclusive lease exists
//! (and vice versa the exclusive path knows nothing of claim files). Fail
//! points `sweep::claim`, `sweep::part_publish`, and `sweep::merge`
//! (see [`rtrm_testkit`]) let the chaos suite kill real worker processes at
//! every protocol step.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::sweep::{
    cell_seed, checkpoint_doc, epoch_secs, expand_jobs, lease_is_stale, load_checkpoint,
    spec_trace_len, write_doc_atomic, write_sweep_csv, CellExecutor, CellMetrics, CellResult,
    Loaded, SweepError, SweepOptions, SweepOutcome, SweepSpec,
};

/// How long a contender waits before re-reading a stale-looking claim to
/// confirm the owner is really gone (bounded backoff before takeover).
const TAKEOVER_CONFIRM: Duration = Duration::from_millis(25);

/// Poll interval while waiting for cells claimed by live peers.
const CLAIM_POLL: Duration = Duration::from_millis(50);

/// Cells claimed per acquisition round by default. Batching amortizes the
/// directory scan; claims are still one file per cell and heartbeats are
/// refreshed between cells, so a crash mid-batch forfeits at most the batch.
pub const DEFAULT_CLAIM_BATCH: usize = 4;

/// Process-unique suffix so two cooperative workers in one process get
/// distinct auto-generated owner ids.
static OWNER_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Configuration of one cooperative worker (opt-in via
/// [`SweepOptions::coop`]).
#[derive(Debug, Clone)]
pub struct CoopConfig {
    /// This worker's owner id, used in claim files and the shard file name
    /// (`<name>.sweep.<owner>.part.json`). Must be unique among concurrent
    /// workers and filesystem-safe (`[A-Za-z0-9._-]`); empty means derive
    /// one from the process id.
    pub owner: String,
    /// Cells claimed per acquisition round (min 1).
    pub batch: usize,
}

impl Default for CoopConfig {
    fn default() -> Self {
        CoopConfig {
            owner: String::new(),
            batch: DEFAULT_CLAIM_BATCH,
        }
    }
}

impl CoopConfig {
    /// A config with an explicit owner id and the default batch size.
    pub fn with_owner(owner: impl Into<String>) -> Self {
        CoopConfig {
            owner: owner.into(),
            ..CoopConfig::default()
        }
    }

    /// Whether `owner` is safe to embed in claim and shard file names.
    pub fn owner_is_valid(owner: &str) -> bool {
        !owner.is_empty()
            && owner
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    }
}

/// One sweep cell's record as read back from a shard or the canonical
/// checkpoint during merge.
struct MergedCell {
    /// Owner that produced the record (`""` for the canonical checkpoint).
    owner: String,
    metrics: CellMetrics,
}

/// Runs one cooperative worker to completion: claims and executes pending
/// cells, publishes its shard after every cell, waits out (or takes over
/// from) peers, and merges once the grid is covered. Called by
/// [`crate::sweep::run_sweep`] when [`SweepOptions::coop`] is set.
pub(crate) fn run_cooperative(
    spec: &SweepSpec,
    options: &SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    let cfg = options.coop.as_ref().expect("coop config present");
    let owner = if cfg.owner.is_empty() {
        format!(
            "w{}-{}",
            std::process::id(),
            OWNER_COUNTER.fetch_add(1, Ordering::Relaxed)
        )
    } else {
        cfg.owner.clone()
    };
    assert!(
        CoopConfig::owner_is_valid(&owner),
        "owner id '{owner}' is not filesystem-safe"
    );
    let batch = cfg.batch.max(1);
    let stale_secs = options.lease_stale_secs;

    let dir = crate::results_dir_for_charts();
    fs::create_dir_all(&dir).map_err(|source| SweepError::Io {
        path: dir.clone(),
        source,
    })?;

    // Refuse to interleave with an exclusive single-process run: its lease
    // means it believes it owns the canonical checkpoint outright.
    let lock_path = dir.join(format!("{}.sweep.lock", spec.name));
    if let Ok(holder) = fs::read_to_string(&lock_path) {
        if !lease_is_stale(&lock_path, &holder, stale_secs) {
            return Err(SweepError::LeaseHeld {
                path: lock_path,
                owner: crate::sweep::lease_owner(&holder)
                    .unwrap_or("unknown")
                    .to_string(),
            });
        }
    }

    let canonical = dir.join(format!("{}.sweep.json", spec.name));
    let shard_path = dir.join(format!("{}.sweep.{owner}.part.json", spec.name));
    let claims_dir = dir.join(format!("{}.sweep.claims", spec.name));
    fs::create_dir_all(&claims_dir).map_err(|source| SweepError::Io {
        path: claims_dir.clone(),
        source,
    })?;

    // `--fresh` in cooperative mode is a coordinator-only action: it wipes
    // the canonical checkpoint, every shard, and every claim, so it must run
    // before any worker starts (the `--local-workers` parent does this
    // before spawning).
    if options.fresh {
        fresh_cleanup(spec.name);
    }

    let trace_len = spec_trace_len(spec);
    let jobs = expand_jobs(spec);
    let mut executor: Option<CellExecutor<'_>> = None;

    // Cells this worker executed (keeps the per-trace reports) and the shard
    // content in execution order.
    let mut local: BTreeMap<String, CellResult> = BTreeMap::new();
    let mut shard_cells: Vec<CellResult> = Vec::new();

    loop {
        let done = read_completed(&dir, &canonical, spec, trace_len)?;
        let mut held: Vec<Claim> = Vec::new();
        let mut claimed_jobs = Vec::new();
        let mut blocked = false;
        for job in &jobs {
            if claimed_jobs.len() >= batch {
                break;
            }
            let key = job.key();
            if local.contains_key(&key) || done.contains_key(&key) {
                continue;
            }
            match Claim::try_acquire(&claims_dir, &key, &owner, stale_secs) {
                Ok(Some(claim)) => {
                    held.push(claim);
                    claimed_jobs.push(job);
                }
                Ok(None) => blocked = true,
                // Transient claim I/O (e.g. the directory is being cleaned
                // up by a finished merger): treat as contention, retry.
                Err(_) => blocked = true,
            }
        }

        if claimed_jobs.is_empty() {
            let covered = jobs
                .iter()
                .all(|j| local.contains_key(&j.key()) || done.contains_key(&j.key()));
            if covered {
                break;
            }
            if !blocked {
                // Between reading `done` and scanning claims the world
                // changed (a peer merged and cleaned up); rescan.
                continue;
            }
            // Pending cells are held by live peers: wait for them to finish
            // or for their heartbeats to go stale, then rescan.
            std::thread::sleep(CLAIM_POLL);
            continue;
        }

        let exec = executor.get_or_insert_with(|| CellExecutor::new(spec));
        for job in claimed_jobs {
            for claim in &held {
                claim.refresh();
            }
            let key = job.key();
            let cell = exec.execute(job);
            if !options.quiet {
                println!(
                    "sweep {} [{owner}]: cell {key}: rejection {:.2}%, energy {:.1}, {:.0} ms",
                    spec.name,
                    cell.metrics.mean_rejection_percent,
                    cell.metrics.mean_energy,
                    cell.metrics.elapsed_ms
                );
            }
            shard_cells.push(cell.clone());
            local.insert(key, cell);
            let doc = checkpoint_doc(spec, trace_len, &shard_cells, Some(&owner));
            write_doc_atomic(&shard_path, &doc, spec.name, "sweep::part_publish")?;
        }
        for claim in held {
            claim.release();
        }
    }

    merge(spec, options, &dir, &canonical, &claims_dir, &local)
}

/// Folds the canonical checkpoint and every shard into the canonical
/// `results/<name>.sweep.json`, asserting duplicate completions agree
/// ([`CellMetrics::deterministic_eq`]), then writes the CSV and cleans up
/// shards and claims. Concurrent mergers are safe: they derive the same
/// document from the same inputs and the publish is an atomic rename.
fn merge(
    spec: &SweepSpec,
    options: &SweepOptions,
    dir: &Path,
    canonical: &Path,
    claims_dir: &Path,
    local: &BTreeMap<String, CellResult>,
) -> Result<SweepOutcome, SweepError> {
    let trace_len = spec_trace_len(spec);
    let jobs = expand_jobs(spec);

    let mut merged: BTreeMap<String, MergedCell> = BTreeMap::new();
    let mut fold = |owner: &str, cells: BTreeMap<String, CellMetrics>| -> Result<(), SweepError> {
        for (key, metrics) in cells {
            match merged.get(&key) {
                None => {
                    merged.insert(
                        key,
                        MergedCell {
                            owner: owner.to_string(),
                            metrics,
                        },
                    );
                }
                Some(existing) => {
                    if !existing.metrics.deterministic_eq(&metrics) {
                        return Err(SweepError::ShardConflict {
                            key,
                            a: display_owner(&existing.owner),
                            b: display_owner(owner),
                        });
                    }
                    // Equal duplicates keep the first record; owners are
                    // folded in sorted order (canonical first), so every
                    // merger picks the same one.
                }
            }
        }
        Ok(())
    };

    // Shards are read before the canonical checkpoint: a concurrent merger
    // publishes the canonical before it removes the shards, so the cells of
    // a shard that vanished under this read are in the canonical read next.
    // In the other order a shard removed between the two reads loses its
    // cells. Folding stays canonical first.
    let mut shards = list_shards(dir, spec.name);
    shards.sort();
    let shard_texts: Vec<(&PathBuf, String)> = shards
        .iter()
        .filter_map(|shard| Some((shard, fs::read_to_string(shard).ok()?)))
        .collect();
    if let Ok(text) = fs::read_to_string(canonical) {
        match load_checkpoint(&text, spec, trace_len) {
            Loaded::Cells(cells) => fold("", cells)?,
            // Stale configuration or torn canonical file: the shards are the
            // source of truth; the canonical will be republished below.
            Loaded::HeaderMismatch | Loaded::Corrupt => {}
        }
    }
    for (shard, text) in &shard_texts {
        match load_checkpoint(text, spec, trace_len) {
            Loaded::Cells(cells) => fold(&shard_owner(shard, spec.name), cells)?,
            Loaded::HeaderMismatch => {}
            Loaded::Corrupt => eprintln!(
                "sweep {}: ignoring unreadable shard {} (its cells will have \
                 been recomputed)",
                spec.name,
                shard.display()
            ),
        }
    }

    // Cells are emitted in grid expansion order — the same order the
    // single-process engine writes — so the merged checkpoint is comparable
    // byte-for-byte (modulo `elapsed_ms`) with a sequential run.
    let mut cells = Vec::with_capacity(jobs.len());
    let mut resumed = 0;
    for job in &jobs {
        let key = job.key();
        let record = merged.get(&key).unwrap_or_else(|| {
            panic!("merge reached with cell {key} missing — completion check is wrong")
        });
        match local.get(&key) {
            // Locally executed and chosen record agrees (asserted above):
            // keep the local copy, which still carries per-trace reports.
            Some(cell) if cell.metrics.deterministic_eq(&record.metrics) => {
                cells.push(cell.clone());
            }
            _ => {
                resumed += 1;
                cells.push(CellResult {
                    workload: job.workload.clone(),
                    policy: job.policy.name().to_string(),
                    predictor: job.predictor.label.to_string(),
                    metrics: record.metrics.clone(),
                    reports: None,
                });
            }
        }
    }

    if !options.quiet {
        println!(
            "sweep {}: merging {} shard(s) into {}",
            spec.name,
            shards.len(),
            canonical.display()
        );
    }
    rtrm_testkit::maybe_die("sweep::merge", 0);
    let doc = checkpoint_doc(spec, trace_len, &cells, None);
    write_doc_atomic(canonical, &doc, spec.name, "sweep::publish")?;
    rtrm_testkit::maybe_die("sweep::merge", 1);

    // Cleanup is best effort and safe to race: the canonical checkpoint now
    // holds every cell, so a straggler republishing its shard only creates
    // a duplicate the next merge reconciles by equality.
    remove_shard_files(dir, spec.name);
    if let Ok(entries) = fs::read_dir(claims_dir) {
        for entry in entries.flatten() {
            let _ = fs::remove_file(entry.path());
        }
    }
    let _ = fs::remove_dir(claims_dir);

    let csv_path = write_sweep_csv(spec, &cells, dir)?;
    Ok(SweepOutcome {
        name: spec.name,
        cells,
        resumed,
        checkpoint_path: canonical.to_path_buf(),
        csv_path,
        corrupt_backup: None,
    })
}

/// Removes every artifact of the named sweep a fresh cooperative run must
/// not see: the canonical checkpoint, all shards, and all claims. This is a
/// *coordinator-only* action — run it before any worker starts (a worker
/// wiping mid-run would destroy its peers' progress); the `--local-workers`
/// parent calls it before spawning.
pub fn fresh_cleanup(name: &str) {
    let dir = crate::results_dir_for_charts();
    let _ = fs::remove_file(dir.join(format!("{name}.sweep.json")));
    let _ = fs::remove_file(dir.join(format!("{name}.sweep.json.tmp")));
    remove_shard_files(&dir, name);
    let claims_dir = dir.join(format!("{name}.sweep.claims"));
    if let Ok(entries) = fs::read_dir(&claims_dir) {
        for entry in entries.flatten() {
            let _ = fs::remove_file(entry.path());
        }
    }
    let _ = fs::remove_dir(&claims_dir);
}

/// Removes every shard of `name` plus the `.part.json.tmp` temp files a
/// worker killed mid-publish leaves behind.
fn remove_shard_files(dir: &Path, name: &str) {
    let prefix = format!("{name}.sweep.");
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let file_name = entry.file_name();
            let Some(file_name) = file_name.to_str() else {
                continue;
            };
            if file_name.starts_with(&prefix)
                && (file_name.ends_with(".part.json") || file_name.ends_with(".part.json.tmp"))
            {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Every completed cell visible right now: canonical checkpoint ∪ shards.
/// Unreadable or mismatched files contribute nothing (their cells are simply
/// recomputed) — this view only gates *skipping* work, never correctness.
/// Shards are read first, for the reason [`merge`] gives.
fn read_completed(
    dir: &Path,
    canonical: &Path,
    spec: &SweepSpec,
    trace_len: usize,
) -> Result<BTreeMap<String, CellMetrics>, SweepError> {
    let mut done = BTreeMap::new();
    for shard in list_shards(dir, spec.name) {
        if let Ok(text) = fs::read_to_string(&shard) {
            if let Loaded::Cells(cells) = load_checkpoint(&text, spec, trace_len) {
                done.extend(cells);
            }
        }
    }
    if let Ok(text) = fs::read_to_string(canonical) {
        if let Loaded::Cells(cells) = load_checkpoint(&text, spec, trace_len) {
            done.extend(cells);
        }
    }
    Ok(done)
}

/// All shard files of `name` under `dir` (`<name>.sweep.<owner>.part.json`).
fn list_shards(dir: &Path, name: &str) -> Vec<PathBuf> {
    let prefix = format!("{name}.sweep.");
    let mut shards = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let file_name = entry.file_name();
            let Some(file_name) = file_name.to_str() else {
                continue;
            };
            if file_name.starts_with(&prefix) && file_name.ends_with(".part.json") {
                shards.push(entry.path());
            }
        }
    }
    shards
}

/// Extracts the owner id from a shard file name
/// (`<name>.sweep.<owner>.part.json`).
fn shard_owner(shard: &Path, name: &str) -> String {
    shard
        .file_name()
        .and_then(|f| f.to_str())
        .and_then(|f| f.strip_prefix(&format!("{name}.sweep.")))
        .and_then(|f| f.strip_suffix(".part.json"))
        .unwrap_or("unknown")
        .to_string()
}

fn display_owner(owner: &str) -> String {
    if owner.is_empty() {
        "canonical".to_string()
    } else {
        owner.to_string()
    }
}

/// A held per-cell claim file. Removed on [`Claim::release`] and
/// best-effort on drop, so a worker that *panics* (rather than dies) frees
/// its cells immediately instead of waiting out the staleness threshold.
#[derive(Debug)]
struct Claim {
    path: PathBuf,
    owner: String,
    key: String,
    released: bool,
}

impl Claim {
    /// Tries to claim `key`. `Ok(None)` means a live peer holds it (or we
    /// lost the takeover race) — skip the cell and move on.
    ///
    /// Takeover of a stale claim is deliberately two-phase: read, pause
    /// [`TAKEOVER_CONFIRM`], re-read, and only steal if the content is
    /// unchanged *and* still stale — so a claim refreshed between our reads
    /// (the owner was merely slow) is left alone.
    fn try_acquire(
        claims_dir: &Path,
        key: &str,
        owner: &str,
        stale_secs: u64,
    ) -> io::Result<Option<Claim>> {
        let path = claims_dir.join(claim_file_name(key));
        let mut takeovers = 0;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Death here (mid-claim) leaves an empty claim file whose
                    // mtime stands in for the heartbeat.
                    rtrm_testkit::maybe_die("sweep::claim", 0);
                    let _ = write!(
                        file,
                        "owner {owner}\nheartbeat {}\nkey {key}\n",
                        epoch_secs()
                    );
                    rtrm_testkit::maybe_die("sweep::claim", 1);
                    return Ok(Some(Claim {
                        path,
                        owner: owner.to_string(),
                        key: key.to_string(),
                        released: false,
                    }));
                }
                Err(err) if err.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path).unwrap_or_default();
                    if !lease_is_stale(&path, &holder, stale_secs) || takeovers >= 1 {
                        return Ok(None);
                    }
                    std::thread::sleep(TAKEOVER_CONFIRM);
                    let confirm = fs::read_to_string(&path).unwrap_or_default();
                    if confirm != holder || !lease_is_stale(&path, &confirm, stale_secs) {
                        return Ok(None);
                    }
                    // Confirmed dead: remove and race the recreate (exactly
                    // one contender wins `create_new`; losers see
                    // AlreadyExists with fresh content next round).
                    let _ = fs::remove_file(&path);
                    takeovers += 1;
                }
                Err(source) => return Err(source),
            }
        }
    }

    /// Refreshes the heartbeat (best effort — a failure only risks a
    /// takeover and a duplicated cell, never wrong results).
    fn refresh(&self) {
        let _ = fs::write(
            &self.path,
            format!(
                "owner {}\nheartbeat {}\nkey {}\n",
                self.owner,
                epoch_secs(),
                self.key
            ),
        );
    }

    /// Releases the claim once the cell is safely in the published shard.
    fn release(mut self) {
        self.released = true;
        let _ = fs::remove_file(&self.path);
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if !self.released {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Filesystem-safe claim file name for a cell key. Keys contain `/`
/// (`workload/policy/predictor`); unsafe characters are flattened and a
/// key hash is appended so distinct keys can never collide.
fn claim_file_name(key: &str) -> String {
    let flat: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '@') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{flat}-{:016x}.claim", cell_seed(0, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_file_names_are_distinct_and_safe() {
        let a = claim_file_name("VT/heuristic/off");
        let b = claim_file_name("VT/heuristic/perfect");
        let c = claim_file_name("VT_heuristic/off");
        assert_ne!(a, b);
        // Flattening alone would collide; the key hash keeps them apart.
        assert_ne!(a, c);
        for name in [&a, &b, &c] {
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || matches!(ch, '.' | '_' | '-' | '@')));
        }
    }

    #[test]
    fn owner_validation() {
        assert!(CoopConfig::owner_is_valid("w1"));
        assert!(CoopConfig::owner_is_valid("host-3.worker_2"));
        assert!(!CoopConfig::owner_is_valid(""));
        assert!(!CoopConfig::owner_is_valid("a/b"));
        assert!(!CoopConfig::owner_is_valid("a b"));
    }

    #[test]
    fn dead_claim_is_taken_over_after_confirm() {
        let dir = std::env::temp_dir().join(format!("rtrm-coop-claim-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        // A live claim (fresh heartbeat) is respected.
        let key = "VT/heuristic/off";
        let path = dir.join(claim_file_name(key));
        fs::write(
            &path,
            format!("owner peer\nheartbeat {}\nkey {key}\n", epoch_secs()),
        )
        .unwrap();
        assert!(Claim::try_acquire(&dir, key, "me", 30).unwrap().is_none());

        // A stale heartbeat (2 s old under a 1 s threshold) is confirmed and
        // stolen — in milliseconds, no 30 s wall-clock sleep.
        fs::write(
            &path,
            format!("owner peer\nheartbeat {}\nkey {key}\n", epoch_secs() - 2),
        )
        .unwrap();
        let claim = Claim::try_acquire(&dir, key, "me", 1)
            .unwrap()
            .expect("stale claim taken over");
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.contains("owner me"));
        claim.release();
        assert!(!path.exists());

        // A claim refreshed during the confirm pause is left alone.
        fs::write(
            &path,
            format!("owner peer\nheartbeat {}\nkey {key}\n", epoch_secs() - 2),
        )
        .unwrap();
        let racer = {
            let path = path.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                let _ = fs::write(
                    &path,
                    format!("owner peer\nheartbeat {}\nkey {key}\n", epoch_secs()),
                );
            })
        };
        let result = Claim::try_acquire(&dir, key, "me", 1).unwrap();
        racer.join().unwrap();
        assert!(result.is_none(), "refreshed claim must not be stolen");

        let _ = fs::remove_dir_all(&dir);
    }
}
