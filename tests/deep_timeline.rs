//! Deep-queue differential for the incremental EDF timeline.
//!
//! The managers' queues stay shallow, so the suites that drive them never
//! take an `EdfTimeline` deep. This one does: deterministic push/undo
//! sequences climb to depth 512 and back on a CPU and on a GPU, and after
//! every step the retained job list must match a model stack and the
//! incremental verdict must equal a from-scratch engine run over the same
//! jobs (and, on a subsample of steps, the scan-based reference oracle).
//!
//! Every push is also probed on a clone with `try_push`: its answer must be
//! the push's verdict, a failed probe must leave the clone's jobs, length,
//! future flag and verdict as they were, and a kept probe must leave them
//! as the push did. Every other kept probe then *replaces* the timeline,
//! so the rest of the episode — later probes, verdicts and undos — runs on
//! the state `try_push` built, at its recorded row indices.
//!
//! Every time lies on a 1/8 lattice, so all sums are exact and the verdicts
//! must agree bit for bit. Dense jobs take one of four deadlines, so
//! `(deadline, push order)` ties occur at every depth and every insert and remove lands
//! inside a run of equal deadlines. Each step also probes a job sized to
//! the queue's exact slack or one just past it, so a timeline that keeps a
//! wrong execution time anywhere soon flips a verdict. Both episodes carry
//! up to three future releases at a time — one to three phantoms behind
//! half the probes, and one committed now and then on the descent — each
//! due soon after its release and keyed ahead of every dense job: on the
//! GPU one dispatches at the first completion after its release, so the
//! order of the first run of equal deadlines, and the other future jobs,
//! decide whether it fits. The GPU episode also holds a pinned job at the
//! bottom of the stack, and must never run the engine for a verdict.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtrm::platform::{ResourceKind, Time};
use rtrm::sched::{is_schedulable_with, reference, EdfScratch, EdfTimeline, JobKey, PlannedJob};

const MAX_DEPTH: usize = 512;
const LATTICE: f64 = 0.125;
/// The dense jobs' only deadlines. At depth 512 and a mean exec near
/// one, each level keeps some slack, so most commits succeed and the queue
/// reaches full depth.
const LEVELS: [f64; 4] = [160.0, 320.0, 480.0, 640.0];
/// Every how many checks the O(n²) reference oracle joins the engine.
const REFERENCE_EVERY: usize = 96;
/// The most future releases the queue holds at a time.
const MAX_FUTURE: usize = 3;

struct Episode {
    kind: ResourceKind,
    now: Time,
    timeline: EdfTimeline,
    /// The pushed jobs in push order: what `jobs()` must return.
    model: Vec<PlannedJob>,
    scratch: EdfScratch,
    rng: StdRng,
    next_key: u64,
    checks: usize,
    /// Probes `try_push` kept; the odd ones replace the timeline.
    kept_probes: usize,
}

impl Episode {
    fn new(kind: ResourceKind, seed: u64) -> Self {
        let now = Time::new(4.0);
        Episode {
            kind,
            now,
            timeline: EdfTimeline::new(kind, now),
            model: Vec::new(),
            scratch: EdfScratch::new(),
            rng: StdRng::seed_from_u64(seed),
            next_key: 0,
            checks: 0,
            kept_probes: 0,
        }
    }

    fn lattice(&mut self, steps: std::ops::RangeInclusive<u32>) -> f64 {
        f64::from(self.rng.gen_range(steps)) * LATTICE
    }

    fn job(&mut self, release: f64, exec: f64, deadline: f64) -> PlannedJob {
        self.next_key += 1;
        PlannedJob::new(
            JobKey(self.next_key),
            Time::new(release),
            Time::new(exec),
            Time::new(deadline),
        )
    }

    /// A job ready at `now` (released at it or before it).
    fn dense_job(&mut self) -> PlannedJob {
        let release = if self.rng.gen_bool(0.5) {
            0.0
        } else {
            self.now.value()
        };
        let exec = self.lattice(1..=16);
        let deadline = LEVELS[self.rng.gen_range(0..LEVELS.len())];
        self.job(release, exec, deadline)
    }

    fn futures(&self) -> usize {
        self.model
            .iter()
            .filter(|j| !j.release.released_by(self.now))
            .count()
    }

    fn has_future(&self) -> bool {
        self.futures() > 0
    }

    /// Asserts the timeline against the model after a step that returned
    /// `verdict`.
    fn check(&mut self, verdict: bool) {
        assert_eq!(
            self.timeline.jobs(),
            &self.model[..],
            "jobs() left the model"
        );
        assert_eq!(self.timeline.has_future(), self.has_future());
        let engine = is_schedulable_with(self.kind, self.now, &self.model, &mut self.scratch);
        assert_eq!(
            verdict,
            engine,
            "{:?} timeline disagrees with the engine at depth {} (check {})",
            self.kind,
            self.model.len(),
            self.checks
        );
        if self.checks.is_multiple_of(REFERENCE_EVERY) {
            assert_eq!(
                engine,
                reference::is_schedulable(self.kind, self.now, &self.model),
                "engine disagrees with the reference oracle at depth {}",
                self.model.len()
            );
        }
        self.checks += 1;
    }

    fn push(&mut self, job: PlannedJob) -> bool {
        let mut probed = self.timeline.clone();
        let kept = probed.try_push(job);
        let verdict = self.timeline.push(job).is_feasible();
        assert_eq!(
            kept,
            verdict,
            "{:?} try_push disagrees with push at depth {}",
            self.kind,
            self.model.len()
        );
        if kept {
            assert_eq!(probed.jobs(), self.timeline.jobs());
            assert_eq!(probed.len(), self.timeline.len());
            assert_eq!(probed.has_future(), self.timeline.has_future());
            assert_eq!(probed.feasible(), verdict);
            self.kept_probes += 1;
            if self.kept_probes % 2 == 1 {
                self.timeline = probed;
            }
        } else {
            assert_eq!(probed.jobs(), &self.model[..], "a failed probe kept a job");
            assert_eq!(probed.len(), self.model.len());
            assert_eq!(probed.has_future(), self.has_future());
            let before = is_schedulable_with(self.kind, self.now, &self.model, &mut self.scratch);
            assert_eq!(
                probed.feasible(),
                before,
                "a failed probe changed the verdict at depth {}",
                self.model.len()
            );
        }
        self.model.push(job);
        self.check(verdict);
        verdict
    }

    fn undo(&mut self) {
        let popped = self.timeline.undo();
        assert_eq!(Some(popped), self.model.pop(), "undo popped the wrong job");
        let verdict = self.timeline.feasible();
        self.check(verdict);
    }

    /// Pushes `job` and keeps it only if the queue stays feasible, as the
    /// managers commit placements.
    fn commit(&mut self, job: PlannedJob) {
        if !self.push(job) {
            self.undo();
        }
    }

    /// The largest exec a dense job with deadline `LEVELS[level]` can add
    /// to the current queue under the dense-prefix criterion: the least
    /// slack over that level and every later one. Exact on dense CPU
    /// queues; a near-boundary guess on the others, which the engine still
    /// judges.
    fn slack(&self, level: usize) -> f64 {
        let mut base = self.now.value();
        let mut demand = [0.0; LEVELS.len()];
        for job in &self.model {
            if job.pinned {
                base += job.exec.value();
                continue;
            }
            for (at, &d) in LEVELS.iter().enumerate() {
                if job.deadline.value() <= d {
                    demand[at] += job.exec.value();
                }
            }
        }
        (level..LEVELS.len())
            .map(|at| LEVELS[at] - base - demand[at])
            .fold(f64::INFINITY, f64::min)
    }

    /// Probes a dense job at the exact slack of a random level, or a
    /// lattice step past it, and retracts it. Half the time the probe goes
    /// in behind one to three phantoms (as many as [`MAX_FUTURE`] leaves
    /// room for), as the managers probe a candidate behind predicted
    /// phantoms and an arrival delayed by prediction overhead.
    fn probe_boundary(&mut self) {
        let room = MAX_FUTURE - self.futures();
        let phantoms = if self.rng.gen_bool(0.5) {
            self.rng.gen_range(1..=MAX_FUTURE).min(room)
        } else {
            0
        };
        for _ in 0..phantoms {
            let job = self.future_job();
            self.push(job);
        }
        let level = self.rng.gen_range(0..LEVELS.len());
        let past = if self.rng.gen_bool(0.5) { LATTICE } else { 0.0 };
        let exec = self.slack(level).max(LATTICE) + past;
        let job = self.job(self.now.value(), exec, LEVELS[level]);
        self.push(job);
        for _ in 0..=phantoms {
            self.undo();
        }
    }

    /// A job released up to 32 after `now`, due at most 4 after it could
    /// finish: earlier than any level, so it is keyed first.
    fn future_job(&mut self) -> PlannedJob {
        let release = self.now.value() + self.lattice(1..=256);
        let exec = self.lattice(1..=16);
        let deadline = release + exec + self.lattice(0..=32);
        self.job(release, exec, deadline)
    }

    /// One step of a climb (`up`) or a descent: commit or retract a job —
    /// on the descent now and then a future release — then probe the
    /// boundary.
    fn step(&mut self, up: bool) {
        let grow = self.rng.gen_bool(if up { 0.9 } else { 0.1 });
        if grow {
            let job = if !up && self.futures() < MAX_FUTURE && self.rng.gen_bool(0.3) {
                self.future_job()
            } else {
                self.dense_job()
            };
            self.commit(job);
        } else if self.model.last().is_some_and(|j| !j.pinned) {
            self.undo();
        }
        self.probe_boundary();
    }
}

/// Climbs to [`MAX_DEPTH`] and descends back to the bottom of the stack,
/// then retracts whatever is left.
fn drive(kind: ResourceKind, pinned: bool, seed: u64) {
    let mut episode = Episode::new(kind, seed);
    if pinned {
        let mut running = episode.job(0.0, 2.0, 1_000.0);
        running.pinned = true;
        assert!(episode.push(running));
    }
    while episode.model.len() < MAX_DEPTH {
        episode.step(true);
    }
    while episode.model.len() > usize::from(pinned) {
        episode.step(false);
    }
    while !episode.model.is_empty() {
        episode.undo();
    }
    assert!(episode.timeline.is_empty());
    assert_eq!(
        episode.timeline.engine_verdicts(),
        0,
        "{kind:?}: future releases never run the engine"
    );
}

#[test]
fn cpu_timeline_matches_the_engine_to_depth_512() {
    drive(ResourceKind::Cpu, false, 11);
}

#[test]
fn gpu_timeline_with_a_pinned_job_matches_the_engine_to_depth_512() {
    drive(ResourceKind::Gpu, true, 12);
}
