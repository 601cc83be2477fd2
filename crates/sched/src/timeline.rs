//! Incremental EDF admission: a persistent per-resource timeline.
//!
//! The managers' inner loops (the heuristic's regret-ordered placement
//! attempts, the exact solver's branch-and-bound, the fallback ladder over
//! phantom counts) probe feasibility thousands of times per activation, and
//! consecutive probes differ by a single job. Re-simulating the whole queue —
//! even with the event-driven engine — costs an O(n log n) run with heap
//! traffic per probe. [`EdfTimeline`] instead *retains* the queue between
//! probes, already sorted: [`EdfTimeline::try_push`] judges one job with one
//! linear scan and keeps it only if it fits, and [`EdfTimeline::undo`]
//! removes it again.
//!
//! # How the incremental verdict works
//!
//! The common case by far is a *dense* queue: every job is released at (or
//! before) the activation instant `now`. Under EDF — preemptive or not — a
//! dense queue executes back-to-back in `(deadline, input order)` order, with
//! the pinned job (if any) dispatched first. Writing `E_u` for the sum of
//! execution times of jobs ordered at-or-before job `u` and `B` for the
//! pinned job's execution time, job `u` finishes at `now + B + E_u`, so the
//! queue is feasible iff
//!
//! ```text
//! min over u of (deadline_u - E_u)  >=  now + B - TIME_EPSILON
//! ```
//!
//! The timeline keeps the jobs in one array sorted by `(deadline, push
//! order)`, and works in three steps:
//!
//! * **Probe first.** A new job's push order is the largest yet, so its
//!   slot is behind every row whose deadline is not later than its own.
//!   [`EdfTimeline::try_push`] runs the verdict before it moves anything:
//!   one left-to-right scan accumulating `E_u` with the job merged in at
//!   that slot, stopping at the first gap below the bound. It adds the same
//!   floats in the same order as a scan of the array with the job inserted,
//!   so the verdict is the same bit for bit. A failed probe leaves the
//!   timeline untouched.
//! * **Commit at the found index.** A job that fits is inserted at the slot
//!   the scan passed, and the slot is recorded with it.
//! * **Undo by recorded index.** Undo is strict LIFO, so when
//!   [`EdfTimeline::undo`] retracts a job its row still sits at the
//!   recorded slot: it is removed there, with no search.
//!
//! Each step is O(n) with small constants. The queues the managers probe
//! are shallow (tens of jobs per resource), where a contiguous scan beats a
//! balanced tree's O(log n) pointer chasing; a balanced tree wins back only
//! on queues of several hundred jobs on one resource (the measured
//! crossover lies between 128 and 512). The scan also makes every verdict
//! a function of the queue's content alone: `E_u` is always summed in key
//! order, whatever the push history. Probes the scan cannot answer alone —
//! a pinned job, a future release, a non-preemptable queue that holds one,
//! oracle mode — insert first, read [`EdfTimeline::feasible`] and undo on a
//! failed verdict.
//!
//! # Future releases and the pinned prefix: the demand sweep
//!
//! Queues containing a *future-released* job (a predicted phantom, or an
//! arrival delayed by prediction overhead) gain idle gaps, so one prefix
//! bound no longer suffices. On a *preemptable* resource, though, EDF is
//! optimal, and single-processor feasibility is exactly the processor-demand
//! criterion: for every interval `[s, d]` with `s` an (effective) release
//! instant and `d` a deadline, the total execution of jobs released at or
//! after `s` with deadlines at or before `d` must fit in `d - s`. A pinned
//! job is a blocking prefix of length `B` that every other job waits for,
//! so the effective release of job `u` is `max(release_u, now + B)`, and
//! only two kinds of interval start matter — `now + B` (every dense job's
//! effective release) and each future release past it — so the verdict
//! decomposes into the dense-prefix argument *per release segment*:
//!
//! ```text
//! for every segment s in {now + B} ∪ {future releases after now + B}:
//!     min over u with release_u >= s of (deadline_u - E_u^(s))  >=  s
//! ```
//!
//! where `E_u^(s)` sums execution over jobs released at-or-after `s`, taken
//! in `(deadline, push order)`. The `now + B` segment covers *all* unpinned
//! jobs (future releases included), so it is the scan of the main array.
//! Later segments contain only future jobs;
//! [`EdfTimeline::demand_feasible`] answers them by sweeping the
//! release-ordered future set from the latest release down, splicing each
//! segment's jobs into a second, scratch array sorted the same way and
//! scanning it per segment. With `k` future jobs a verdict costs
//! O(n + k²) — O(n) for the single-phantom queue that dominates the
//! managers' fallback ladder.
//!
//! The sweep is the exact verdict on preemptable queues and on dense queues
//! of either kind, on exact (dyadic) times. It sums execution times where
//! the engine advances a clock, so on arbitrary floats the two can round to
//! opposite sides of a deadline's ε tolerance when the deadline lies within
//! a few ulps of it. *Non-preemptable* resources with future releases
//! additionally suffer scheduling anomalies (delaying one dispatch can
//! repair another), so the sweep only bounds them.
//!
//! # Future releases on a non-preemptable queue: the release-merge walk
//!
//! The queues the managers' fallback ladder probes on a GPU hold a few
//! future jobs among the dense ones: a phantom, a phantom plus an arrival
//! delayed by prediction overhead, or the phantoms of a multi-step
//! lookahead. The engine's non-preemptive run dispatches the pinned job
//! first and then, at each completion, the released job with the least
//! `(deadline, push order)` key; when none is ready it idles to the
//! earliest release. [`EdfTimeline::feasible`] replays exactly that as one
//! walk of the sorted array. Dense rows are always ready, so the next job
//! is the cursor's next row unless a future row the cursor passed before
//! its release has been released since: passed rows wait in a short list
//! in key order, and the first released one runs ahead of the cursor. When
//! only waiting rows are left and none is released, the clock jumps to
//! their earliest release. Every step advances time with the engine's own
//! arithmetic and `meets`/`released_by` checks, so the verdict is the
//! engine's on every float, with no engine run: O(n) for one future
//! release, plus O(k) per dispatch while rows wait. Only oracle mode runs
//! the event-driven engine.
//!
//! The sweep still bounds every non-preemptable queue from one side: a
//! work-conserving non-preemptive schedule is also a preemptive one, so a
//! queue the sweep rejects is one the engine rejects too, and adding jobs
//! only lowers the gaps — a search may cut a subtree as soon as the sweep
//! fails on a partial queue. What the sweep cannot see is blocking: a dense
//! job that starts before a lone future release and runs past that job's
//! latest start. [`EdfTimeline::blocked_for_good`] reports it once no
//! extension within a caller-supplied headroom can move the blocker past
//! the release. [`EdfTimeline::first_dispatch_blocked`] reports the
//! blocking that extensions cannot move at all: when the future job is not
//! released by `now + B`, some dense job takes the first dispatch, and the
//! shortest one a caller can still add bounds how soon the future job
//! starts.
//!
//! The differential property suite in `tests/incremental.rs` asserts that
//! every push/undo sequence agrees on the verdict with a from-scratch
//! [`is_schedulable_with`] over the same jobs and with the scan-based
//! [`crate::reference`] oracle; the workspace's `tests/deep_timeline.rs`
//! does the same to depth 512, with deadline ties at every position.

use std::ops::ControlFlow;

use rtrm_platform::{ResourceKind, Time, TIME_EPSILON};

use crate::edf::run_to_completion;
use crate::{is_schedulable_with, EdfScratch, PlannedJob};

/// Verdict of an [`EdfTimeline::push`]: is the queue (including the job just
/// pushed) schedulable on this resource?
#[must_use = "a feasibility verdict that is not inspected hides an admission failure"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// Every job in the queue meets its deadline.
    Feasible,
    /// At least one job misses its deadline.
    Infeasible,
}

impl Feasibility {
    /// Returns `true` for [`Feasibility::Feasible`].
    #[must_use]
    pub fn is_feasible(self) -> bool {
        matches!(self, Feasibility::Feasible)
    }
}

impl From<bool> for Feasibility {
    fn from(feasible: bool) -> Self {
        if feasible {
            Feasibility::Feasible
        } else {
            Feasibility::Infeasible
        }
    }
}

/// Where a pushed job went, so [`EdfTimeline::undo`] can unwind it. The
/// array slots stay valid because undo is strict LIFO: every row inserted
/// after a job is removed before it.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Dense job: lives at this index of the deadline-sorted array.
    Dense(u32),
    /// The pinned job (held outside the array; it dispatches first).
    Pinned,
    /// Released after `now` (beyond [`TIME_EPSILON`]): lives at this index
    /// of the deadline-sorted array *and* on the release stack, so verdicts
    /// can run the demand-criterion sweep per release segment (and, on
    /// non-preemptable resources, the release-merge walk).
    Future(u32),
}

/// A persistent single-resource EDF timeline with incremental admission:
/// a probe costs one scan over the retained queue, and a kept job one shift.
///
/// Place jobs that must fit with [`try_push`](EdfTimeline::try_push), push
/// them unconditionally with [`push`](EdfTimeline::push) or
/// [`insert`](EdfTimeline::insert), retract the most recent one with
/// [`undo`](EdfTimeline::undo) (strict stack discipline), and read the
/// current verdict with [`feasible`](EdfTimeline::feasible). The semantics
/// are those of [`is_schedulable_with`] over [`jobs`](EdfTimeline::jobs):
/// preemptive EDF on CPUs, work-conserving non-preemptive EDF on GPUs,
/// pinned job first.
///
/// # Examples
///
/// ```
/// use rtrm_platform::{ResourceKind, Time};
/// use rtrm_sched::{EdfTimeline, JobKey, PlannedJob};
///
/// let now = Time::ZERO;
/// let mut timeline = EdfTimeline::new(ResourceKind::Cpu, now);
/// let a = PlannedJob::new(JobKey(0), now, Time::new(3.0), Time::new(5.0));
/// let b = PlannedJob::new(JobKey(1), now, Time::new(4.0), Time::new(6.0));
///
/// assert!(timeline.try_push(a));
/// // `b` cannot fit behind `a`'s three units of work: 3 + 4 > 6. The
/// // failed probe leaves the timeline as it was.
/// assert!(!timeline.try_push(b));
/// assert_eq!(timeline.len(), 1);
/// assert!(timeline.feasible());
/// let popped = timeline.undo(); // retract `a`
/// assert_eq!(popped.key, JobKey(0));
/// assert!(timeline.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EdfTimeline {
    kind: ResourceKind,
    start: Time,
    /// When set, every verdict runs the from-scratch engine instead of
    /// reading the sorted array — the pre-incremental baseline, kept
    /// callable for benchmarks and differential tests.
    oracle: bool,
    /// All pushed jobs, in push order (= the engine's input order, which
    /// breaks deadline ties).
    jobs: Vec<PlannedJob>,
    /// Per-job placement bookkeeping, parallel to `jobs`.
    slots: Vec<Slot>,
    /// Every unpinned job, sorted by `(deadline, push order)`.
    by_deadline: DeadlineOrder,
    /// Index into `jobs` of the pinned job, if one was pushed.
    pinned: Option<usize>,
    /// Indices (into `jobs`) of future-released jobs, in push order. Undo is
    /// strict LIFO over all pushes, so this behaves as a stack too.
    future_stack: Vec<u32>,
    /// Scratch over future-released jobs: `future_stack` sorted by
    /// descending release for the per-segment sweep of
    /// [`EdfTimeline::demand_feasible`], and the release-merge walk's
    /// waiting rows.
    seg_order: Vec<u32>,
    /// Scratch array sorted by `(deadline, push order)`, rebuilt over the
    /// future jobs during the per-segment sweep.
    seg_by_deadline: DeadlineOrder,
    /// Jobs that miss their deadline even running alone from their release:
    /// the engine's per-job necessary condition, kept as a count so push and
    /// undo maintain it in O(1).
    overruns: u32,
    /// Verdicts answered by the from-scratch engine (oracle mode) since
    /// construction. Cumulative across [`reset`](EdfTimeline::reset);
    /// diagnostics only.
    engine_verdicts: u64,
    scratch: EdfScratch,
}

impl EdfTimeline {
    /// Creates an empty timeline for a resource of `kind` whose queue starts
    /// executing at `now`.
    #[must_use]
    pub fn new(kind: ResourceKind, now: Time) -> Self {
        EdfTimeline {
            kind,
            start: now,
            oracle: false,
            jobs: Vec::new(),
            slots: Vec::new(),
            by_deadline: DeadlineOrder::default(),
            pinned: None,
            future_stack: Vec::new(),
            seg_order: Vec::new(),
            seg_by_deadline: DeadlineOrder::default(),
            overruns: 0,
            engine_verdicts: 0,
            scratch: EdfScratch::new(),
        }
    }

    /// Empties the timeline for reuse, keeping its allocations warm.
    pub fn reset(&mut self, kind: ResourceKind, now: Time) {
        self.kind = kind;
        self.start = now;
        self.jobs.clear();
        self.slots.clear();
        self.by_deadline.rows.clear();
        self.pinned = None;
        self.future_stack.clear();
        self.overruns = 0;
    }

    /// Switches between incremental verdicts (default) and a from-scratch
    /// engine run per verdict. Both modes agree on every verdict; the
    /// oracle mode exists as an in-binary baseline for benchmarks and tests.
    pub fn set_oracle(&mut self, oracle: bool) {
        self.oracle = oracle;
    }

    /// The resource kind this timeline schedules for.
    #[must_use]
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// The instant the queue starts executing.
    #[must_use]
    pub fn now(&self) -> Time {
        self.start
    }

    /// The jobs currently on the timeline, in push order.
    #[must_use]
    pub fn jobs(&self) -> &[PlannedJob] {
        &self.jobs
    }

    /// Number of jobs on the timeline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if no jobs have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Splices `job` into the timeline and returns whether the whole queue
    /// (including `job`) is schedulable. O(n) for dense queues: a binary
    /// search, a shift and one scan.
    ///
    /// The verdict is [`#[must_use]`](Feasibility): an uninspected push is an
    /// admission decision nobody checked. An infeasible push still retains
    /// the job — retract it with [`undo`](EdfTimeline::undo). A caller that
    /// keeps the job only if it fits wants
    /// [`try_push`](EdfTimeline::try_push), which probes before it moves
    /// anything.
    ///
    /// # Panics
    ///
    /// Panics if `job.exec` is negative or non-finite, if `job` is pinned on
    /// a preemptable resource, or if a pinned job is already present.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtrm_platform::{ResourceKind, Time};
    /// use rtrm_sched::{EdfTimeline, JobKey, PlannedJob};
    ///
    /// let mut timeline = EdfTimeline::new(ResourceKind::Cpu, Time::ZERO);
    /// let job = PlannedJob::new(JobKey(7), Time::ZERO, Time::new(2.0), Time::new(2.0));
    /// assert!(timeline.push(job).is_feasible(), "an exact fit is feasible");
    /// ```
    pub fn push(&mut self, job: PlannedJob) -> Feasibility {
        self.insert(job);
        Feasibility::from(self.feasible())
    }

    /// Splices `job` into the timeline without computing a verdict — the
    /// commit half of [`push`](EdfTimeline::push), for callers that have
    /// already probed the placement. O(n): a binary search and a shift.
    ///
    /// # Panics
    ///
    /// As [`push`](EdfTimeline::push).
    pub fn insert(&mut self, job: PlannedJob) {
        assert_exec(&job);
        let seq = self.jobs.len() as u32;
        let slot = if job.pinned {
            assert!(
                self.kind == ResourceKind::Gpu,
                "pinning applies only to non-preemptable resources"
            );
            assert!(
                self.pinned.is_none(),
                "at most one job may be pinned per resource"
            );
            self.pinned = Some(self.jobs.len());
            Slot::Pinned
        } else {
            // `(deadline, push order)` keys make ties deterministic and
            // identical to the engine's input-order tie-break. A future
            // release joins the array too — the `now + B` segment of the
            // demand criterion spans every unpinned job, and the
            // release-merge walk reads it in key order — and its index is
            // stacked for the per-segment sweep.
            let future = !job.release.released_by(self.start);
            let at = self.by_deadline.insert_newest(Row::new(&job, seq, future));
            if future {
                self.future_stack.push(seq);
                Slot::Future(at)
            } else {
                Slot::Dense(at)
            }
        };
        self.overruns += u32::from(self.overruns_alone(&job));
        self.jobs.push(job);
        self.slots.push(slot);
    }

    /// Places `job` if the whole queue stays schedulable with it and
    /// returns whether it did: the verdict, bit for bit, of
    /// [`push`](EdfTimeline::push) followed by [`undo`](EdfTimeline::undo)
    /// when it fails.
    ///
    /// An unpinned job released by `now`, on a queue whose exact verdict is
    /// the demand scan (a preemptable queue, or one with no future
    /// release), is probed before anything moves: one scan of the sorted
    /// array with `job` merged in at its slot. A failed probe leaves the
    /// timeline untouched; a kept job is inserted at the slot the scan
    /// found. Every other probe — a pinned job, a future release, a
    /// non-preemptable queue holding one, oracle mode — pushes, reads
    /// [`feasible`](EdfTimeline::feasible) and undoes on a failed verdict.
    ///
    /// # Panics
    ///
    /// As [`push`](EdfTimeline::push).
    ///
    /// # Examples
    ///
    /// ```
    /// use rtrm_platform::{ResourceKind, Time};
    /// use rtrm_sched::{EdfTimeline, JobKey, PlannedJob};
    ///
    /// let now = Time::ZERO;
    /// let mut timeline = EdfTimeline::new(ResourceKind::Gpu, now);
    /// let held = PlannedJob::new(JobKey(0), now, Time::new(4.0), Time::new(9.0));
    /// let probe = PlannedJob::new(JobKey(1), now, Time::new(6.0), Time::new(7.0));
    /// assert!(timeline.try_push(held));
    /// assert!(!timeline.try_push(probe), "4 + 6 > 7");
    /// assert_eq!(timeline.jobs(), &[held], "a failed probe keeps nothing");
    /// ```
    #[must_use = "an unchecked placement attempt hides an admission failure"]
    pub fn try_push(&mut self, job: PlannedJob) -> bool {
        let scan_decides = !self.oracle
            && !job.pinned
            && job.release.released_by(self.start)
            && (self.kind.is_preemptable() || self.future_stack.is_empty());
        if !scan_decides {
            if self.push(job).is_feasible() {
                return true;
            }
            let _ = self.undo();
            return false;
        }
        assert_exec(&job);
        // The verdict `push` would read, in `demand_feasible`'s terms: `job`
        // joins only the `now + B` segment, the main array's scan, so the
        // later segments are those of the queue without it.
        if self.overruns > 0 || self.overruns_alone(&job) {
            return false;
        }
        let row = Row::new(&job, self.jobs.len() as u32, false);
        let Some(at) = self.by_deadline.probe(&row, self.base() - TIME_EPSILON) else {
            return false;
        };
        if !self.segments_hold() {
            return false;
        }
        self.by_deadline.rows.insert(at as usize, row);
        self.jobs.push(job);
        self.slots.push(Slot::Dense(at));
        true
    }

    /// The engine's fast necessary condition, failed: `job` cannot finish by
    /// its deadline even if it starts at its own release (the raw release —
    /// the pinned job's and one within [`TIME_EPSILON`] after `now`
    /// included, although dispatch ignores both).
    fn overruns_alone(&self, job: &PlannedJob) -> bool {
        !(job.release.max(self.start) + job.exec).meets(job.deadline)
    }

    /// Removes the most recently pushed job (strict LIFO) and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the timeline is empty.
    ///
    /// # Examples
    ///
    /// Backtracking over a placement attempt — push, observe the verdict,
    /// retract, and the earlier queue state is intact:
    ///
    /// ```
    /// use rtrm_platform::{ResourceKind, Time};
    /// use rtrm_sched::{EdfTimeline, JobKey, PlannedJob};
    ///
    /// let now = Time::ZERO;
    /// let mut timeline = EdfTimeline::new(ResourceKind::Gpu, now);
    /// let held = PlannedJob::new(JobKey(0), now, Time::new(4.0), Time::new(9.0));
    /// let probe = PlannedJob::new(JobKey(1), now, Time::new(6.0), Time::new(7.0));
    /// assert!(timeline.push(held).is_feasible());
    /// assert!(!timeline.push(probe).is_feasible(), "4 + 6 > 7");
    /// assert_eq!(timeline.undo().key, JobKey(1));
    /// assert!(timeline.feasible(), "the remaining queue is feasible again");
    /// assert_eq!(timeline.jobs().len(), 1);
    /// ```
    #[must_use = "the retracted job is the caller's to re-place or drop"]
    pub fn undo(&mut self) -> PlannedJob {
        let job = self.jobs.pop().expect("undo on an empty timeline");
        self.overruns -= u32::from(self.overruns_alone(&job));
        let seq = self.jobs.len() as u32;
        match self.slots.pop().expect("slots parallel jobs") {
            Slot::Dense(at) => self.by_deadline.remove_at(at, seq),
            Slot::Pinned => self.pinned = None,
            Slot::Future(at) => {
                self.by_deadline.remove_at(at, seq);
                let idx = self
                    .future_stack
                    .pop()
                    .expect("future stack parallels future slots");
                debug_assert_eq!(idx as usize, self.jobs.len(), "undo is strict LIFO");
            }
        }
        job
    }

    /// Returns `true` if every job on the timeline meets its deadline —
    /// the verdict of [`is_schedulable_with`] over
    /// [`jobs`](EdfTimeline::jobs) (on exact dyadic times where the demand
    /// sweep answers; see the module docs).
    ///
    /// Preemptable and dense queues read the demand sweep; a
    /// non-preemptable queue holding future releases replays the engine's
    /// run as one release-merge walk of the sorted array. Only oracle mode
    /// runs the engine.
    #[must_use]
    pub fn feasible(&mut self) -> bool {
        if self.oracle {
            self.engine_verdicts += 1;
            is_schedulable_with(self.kind, self.start, &self.jobs, &mut self.scratch)
        } else if self.kind.is_preemptable() || self.future_stack.is_empty() {
            self.demand_feasible()
        } else {
            self.walk_feasible()
        }
    }

    /// The engine's verdict on a non-preemptable queue holding future
    /// releases, without running the engine.
    ///
    /// The engine dispatches the pinned job first and then, at each
    /// completion, the released job with the least `(deadline, push order)`
    /// key. Dense rows are ready from `now`, so that job is the cursor's
    /// next row of the sorted array unless a future row the cursor passed
    /// before its release is released by now: passed rows wait in
    /// `seg_order`, in key order, and the first released one runs ahead of
    /// the cursor. When only waiting rows are left and none is released,
    /// the engine idles to their earliest release. Every dispatch uses the
    /// engine's own arithmetic and `meets`/`released_by` checks, so the
    /// verdict is the engine's on every float.
    fn walk_feasible(&mut self) -> bool {
        if self.overruns > 0 {
            return false;
        }
        let EdfTimeline {
            start,
            jobs,
            by_deadline,
            pinned,
            seg_order: waiting,
            ..
        } = self;
        let mut now = start.value();
        if let Some(i) = *pinned {
            let job = &jobs[i];
            if let ControlFlow::Break(verdict) = dispatch(&mut now, job.exec, job.deadline) {
                return verdict;
            }
        }
        let released = |seq: u32, now: f64| jobs[seq as usize].release.released_by(Time::new(now));
        waiting.clear();
        let mut rows = by_deadline.rows.iter();
        loop {
            // A passed row released by now is keyed before the cursor's.
            let waited = waiting.iter().position(|&seq| released(seq, now));
            let (exec, deadline) = if let Some(at) = waited {
                let job = &jobs[waiting.remove(at) as usize];
                (job.exec, job.deadline)
            } else if let Some(row) = rows.next() {
                if row.future && !released(row.seq, now) {
                    waiting.push(row.seq);
                    continue;
                }
                (Time::new(row.exec), Time::new(row.deadline))
            } else if let Some(release) =
                waiting.iter().map(|&seq| jobs[seq as usize].release).min()
            {
                // Only unreleased waiting rows are left: idle to the first.
                now = release.value();
                continue;
            } else {
                return true;
            };
            if let ControlFlow::Break(verdict) = dispatch(&mut now, exec, deadline) {
                return verdict;
            }
        }
    }

    /// Returns `true` if any job on the timeline is released after `now`
    /// (beyond [`TIME_EPSILON`]). O(1); the managers' defer logic keys on
    /// this instead of rescanning the queue.
    #[must_use]
    pub fn has_future(&self) -> bool {
        !self.future_stack.is_empty()
    }

    /// Number of verdicts answered by the from-scratch engine instead of
    /// the sorted arrays, since construction: 0 outside oracle mode.
    /// Diagnostics: tests assert that managers' probes stay off the engine.
    #[must_use]
    pub fn engine_verdicts(&self) -> u64 {
        self.engine_verdicts
    }

    /// Processor-demand verdict scanned off the sorted arrays (see the module
    /// docs), with the pinned job as a blocking prefix of length `B`: every
    /// job must fit between its own release and deadline, and every release
    /// segment, starting at `now + B` or at a future release after it, must
    /// fit.
    ///
    /// On preemptable queues, and on dense queues of either kind, this *is*
    /// the verdict of [`is_schedulable_with`] on exact (dyadic) times; on
    /// arbitrary floats the two may round apart when a deadline lies within
    /// a few ulps of its ε boundary. On a non-preemptable queue
    /// with future releases it is a necessary condition: every
    /// work-conserving non-preemptive schedule is also a preemptive one, so
    /// whenever the engine accepts a queue this holds on it and on every
    /// subset of its jobs. Adding a job only shrinks the gaps, so once this
    /// fails no later push makes it hold again. It scans the arrays in oracle
    /// mode too, and never runs the engine.
    #[must_use]
    pub fn demand_feasible(&mut self) -> bool {
        self.overruns == 0
            && self.by_deadline.gaps_hold(self.base() - TIME_EPSILON)
            && self.segments_hold()
    }

    /// `now + B`: the instant the unpinned jobs can start, behind the pinned
    /// job's execution `B` (zero without one).
    fn base(&self) -> f64 {
        match self.pinned {
            Some(i) => self.start + self.jobs[i].exec,
            None => self.start,
        }
        .value()
    }

    /// The demand criterion's segments that begin at a future release past
    /// `now + B` (see [`demand_feasible`](EdfTimeline::demand_feasible)):
    /// `true` when the queue holds no future release.
    fn segments_hold(&mut self) -> bool {
        if self.future_stack.is_empty() {
            return true;
        }
        // A non-preemptive dispatch at a completion instant (the pinned
        // job's included) takes every job released within TIME_EPSILON of
        // it, so there a segment may begin that much before its release.
        // Preemptable segments begin at the release, keeping the verdict
        // exact.
        let early = if self.kind.is_preemptable() {
            0.0
        } else {
            TIME_EPSILON
        };
        // Destructure for disjoint borrows: the sort comparator reads `jobs`
        // while the sweep mutates `seg_by_deadline`.
        let EdfTimeline {
            jobs,
            future_stack,
            seg_order,
            seg_by_deadline,
            ..
        } = self;
        seg_order.clear();
        seg_order.extend_from_slice(future_stack);
        seg_order
            .sort_unstable_by(|&a, &b| jobs[b as usize].release.cmp(&jobs[a as usize].release));
        seg_by_deadline.rows.clear();
        for &idx in seg_order.iter() {
            let job = &jobs[idx as usize];
            seg_by_deadline.insert(Row::new(job, idx, true));
            // Checking after every insertion (not once per distinct release)
            // is equivalent: a partial release group only reports larger gaps
            // than the full group, whose own check still runs. A segment
            // starting at or before `now + B` is implied by the main scan,
            // which spans a superset of its jobs.
            if !seg_by_deadline.gaps_hold(job.release.value() - early - TIME_EPSILON) {
                return false;
            }
        }
        true
    }

    /// Returns `true` if a non-preemptable queue holding exactly one
    /// future-released job `F` misses a deadline however later placements
    /// extend it, given `headroom(d)`: the most work those placements can
    /// still put ahead of a dense job with deadline `d` (a pinned job
    /// counts against every deadline). `headroom` must be non-decreasing in
    /// `d`; it is called with non-decreasing deadlines.
    ///
    /// Dense jobs never wait: until `F` is released the resource runs them
    /// back to back in `(deadline, push order)` from `now + B`, so dense job
    /// `h` starts at `σ_h = now + B + E_h` (`E_h` the dense work ordered
    /// before it) and moves later only by added work with a deadline no
    /// later than `d_h`. If even `σ_h + headroom(d_h)` leaves `F`
    /// unreleased, `h` starts before `F` in every extension, and `F`
    /// finishes no earlier than `σ_h + e_h + e_F`; past `d_F` (beyond
    /// [`TIME_EPSILON`]) that is a miss no extension repairs. The walk stops
    /// at the first dense job whose `σ_h + headroom(d_h)` releases `F`
    /// (later ones do too). Both tests use the engine's own predicates
    /// (`released_by`, `meets`), so on exact dyadic times the verdict sits
    /// on the engine's side of every ε boundary.
    ///
    /// Reads only the sorted array: no engine run, and the same answer in
    /// oracle mode. `false` on preemptable queues and on queues with zero
    /// or several future releases.
    #[must_use]
    pub fn blocked_for_good(&self, mut headroom: impl FnMut(Time) -> Time) -> bool {
        let &[future] = self.future_stack.as_slice() else {
            return false;
        };
        if self.kind.is_preemptable() {
            return false;
        }
        let f = self.jobs[future as usize];
        let mut start = self.base();
        let blocked = self.by_deadline.rows.iter().try_for_each(|row| {
            if row.seq == future {
                return ControlFlow::Continue(());
            }
            let deadline = Time::new(row.deadline);
            let latest = Time::new(start) + headroom(deadline);
            if f.release.released_by(latest) {
                return ControlFlow::Break(false);
            }
            if !Time::new(start + row.exec + f.exec.value()).meets(f.deadline) {
                return ControlFlow::Break(true);
            }
            start += row.exec;
            ControlFlow::Continue(())
        });
        matches!(blocked, ControlFlow::Break(true))
    }

    /// Returns `true` if a non-preemptable queue holding exactly one
    /// future-released job `F` and a dense job misses `F`'s deadline however
    /// later placements extend it, given `shortest(d)`: the shortest exec
    /// any of those placements can add as a dense job with a deadline no
    /// later than `d`.
    ///
    /// When `F` is not released by `now + B`, the engine's first dispatch
    /// after the pinned job is a dense job: the first dense row, or one
    /// placed later with an earlier-or-equal deadline. `F` then finishes no
    /// earlier than `now + B + min(e_first, shortest(d_first)) + e_F`, and
    /// past `d_F` (beyond [`TIME_EPSILON`]) that misses in every extension.
    ///
    /// `pin` is the exec of a pinned job a later placement may still push
    /// (the job running on this resource, not yet placed). The queue is
    /// then blocked only if it fails both without that job, as above, and
    /// with it: `B` grows by `pin` for the test, and the main demand scan
    /// behind it (floor `now + B + pin − ε`) must hold, since pushes only
    /// shrink its gaps. The tests use the engine's own arithmetic and
    /// predicates, so on exact dyadic times the verdict sits on the
    /// engine's side of every ε boundary.
    ///
    /// Reads only the sorted array: no engine run, and the same answer in
    /// oracle mode. `false` on preemptable queues and on queues with zero
    /// or several future releases or no dense job.
    #[must_use]
    pub fn first_dispatch_blocked(
        &self,
        pin: Option<Time>,
        shortest: impl FnOnce(Time) -> Time,
    ) -> bool {
        let &[future] = self.future_stack.as_slice() else {
            return false;
        };
        if self.kind.is_preemptable() {
            return false;
        }
        debug_assert!(
            pin.is_none() || self.pinned.is_none(),
            "at most one job may be pinned per resource"
        );
        let f = &self.jobs[future as usize];
        let base = self.base();
        // Released by `now + B`, `F` may take the first dispatch itself.
        if f.release.released_by(Time::new(base)) {
            return false;
        }
        let Some(first) = self.by_deadline.rows.iter().find(|row| !row.future) else {
            return false;
        };
        let misses =
            |base: f64, exec: f64| !Time::new(base + exec + f.exec.value()).meets(f.deadline);
        // A shorter first dispatch only starts `F` earlier.
        if !misses(base, first.exec) {
            return false;
        }
        let exec = first.exec.min(shortest(Time::new(first.deadline)).value());
        misses(base, exec)
            && pin.is_none_or(|pin| {
                let base = base + pin.value();
                !self.by_deadline.gaps_hold(base - TIME_EPSILON)
                    || (!f.release.released_by(Time::new(base)) && misses(base, exec))
            })
    }
}

/// Checks the invariant every pushed job's execution time keeps.
fn assert_exec(job: &PlannedJob) {
    assert!(
        job.exec >= Time::ZERO && job.exec.is_finite(),
        "job exec must be finite and non-negative"
    );
}

/// Runs one job non-preemptively from `*now` to completion, as the engine
/// dispatches it: `Break(false)` when it finishes past its deadline,
/// `Break(true)` when rounding leaves it unfinished (the engine then ends
/// its run accepting).
fn dispatch(now: &mut f64, exec: Time, deadline: Time) -> ControlFlow<bool> {
    if !run_to_completion(now, exec.value()) {
        return ControlFlow::Break(true);
    }
    if !Time::new(*now).meets(deadline) {
        return ControlFlow::Break(false);
    }
    ControlFlow::Continue(())
}

/// Jobs as `(deadline, seq, exec)` rows kept sorted by `(deadline, seq)` —
/// the order EDF runs a dense queue in. `seq` is the push order (an index
/// into [`EdfTimeline::jobs`]), so ties break exactly as the engine's input
/// order does.
#[derive(Debug, Clone, Default)]
struct DeadlineOrder {
    rows: Vec<Row>,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    deadline: f64,
    exec: f64,
    /// `deadline` as an integer that orders as `f64::total_cmp` does, so the
    /// row order matches the engine's heap order bit for bit.
    key: i64,
    seq: u32,
    /// Released after `now`: the release-merge walk checks its release.
    future: bool,
}

impl Row {
    fn new(job: &PlannedJob, seq: u32, future: bool) -> Self {
        let deadline = job.deadline.value();
        // `total_cmp`'s own mapping: flip the magnitude bits of negatives.
        let bits = deadline.to_bits() as i64;
        Row {
            deadline,
            exec: job.exec.value(),
            key: bits ^ (((bits >> 63) as u64) >> 1) as i64,
            seq,
            future,
        }
    }

    /// Adds the row's exec to the prefix sum `E_u` and returns whether its
    /// gap `deadline_u - E_u` reaches `floor`.
    fn gap_holds(&self, prefix: &mut f64, floor: f64) -> bool {
        *prefix += self.exec;
        self.deadline - *prefix >= floor
    }
}

impl DeadlineOrder {
    /// Inserts `row` at its `(deadline, seq)` position. The segment sweep
    /// inserts in release order, so its `seq`s arrive in any order.
    fn insert(&mut self, row: Row) {
        let at = self
            .rows
            .partition_point(|other| (other.key, other.seq) < (row.key, row.seq));
        self.rows.insert(at, row);
    }

    /// Inserts `row`, the newest (its `seq` exceeds every other's), behind
    /// every row whose deadline is not later than its own, and returns the
    /// index.
    fn insert_newest(&mut self, row: Row) -> u32 {
        let at = self.rows.partition_point(|other| other.key <= row.key);
        self.rows.insert(at, row);
        at as u32
    }

    /// Removes the row `seq` from index `at`, where it was inserted.
    fn remove_at(&mut self, at: u32, seq: u32) {
        let row = self.rows.remove(at as usize);
        debug_assert_eq!(row.seq, seq, "undo is strict LIFO");
    }

    /// Returns `true` if `deadline_u - E_u >= floor` for every row `u`, with
    /// `E_u` the exec prefix sum through `u` in row order.
    fn gaps_hold(&self, floor: f64) -> bool {
        let mut prefix = 0.0;
        self.rows
            .iter()
            .all(|row| row.gap_holds(&mut prefix, floor))
    }

    /// [`gaps_hold`](DeadlineOrder::gaps_hold) over the rows with `new`
    /// merged in where [`insert_newest`](DeadlineOrder::insert_newest)
    /// would put it, without moving a row: the same floats summed in the
    /// same order. Returns that index when every gap holds.
    fn probe(&self, new: &Row, floor: f64) -> Option<u32> {
        let mut prefix = 0.0;
        let mut at = 0;
        while let Some(row) = self.rows.get(at).filter(|row| row.key <= new.key) {
            if !row.gap_holds(&mut prefix, floor) {
                return None;
            }
            at += 1;
        }
        let holds = new.gap_holds(&mut prefix, floor)
            && self.rows[at..]
                .iter()
                .all(|row| row.gap_holds(&mut prefix, floor));
        holds.then_some(at as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_schedulable, JobKey};

    fn j(key: u64, release: f64, exec: f64, deadline: f64) -> PlannedJob {
        PlannedJob::new(
            JobKey(key),
            Time::new(release),
            Time::new(exec),
            Time::new(deadline),
        )
    }

    const T0: Time = Time::ZERO;

    #[test]
    fn dense_cpu_matches_engine() {
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        let jobs = [j(0, 0.0, 4.0, 100.0), j(1, 0.0, 2.0, 5.0)];
        for job in jobs {
            assert!(tl.push(job).is_feasible());
        }
        assert!(is_schedulable(ResourceKind::Cpu, T0, &jobs));
        // Tighten: a third job that overflows job 0's slack.
        let c = j(2, 0.0, 95.0, 100.0);
        assert!(!tl.push(c).is_feasible());
        assert!(!is_schedulable(
            ResourceKind::Cpu,
            T0,
            &[jobs[0], jobs[1], c]
        ));
        let _ = tl.undo();
        assert!(tl.feasible());
    }

    #[test]
    fn pinned_job_occupies_the_head() {
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        let mut running = j(0, 0.0, 4.0, 100.0);
        running.pinned = true;
        assert!(tl.push(running).is_feasible());
        // An urgent job cannot jump the pinned one: 4 + 1 > 2.
        assert!(!tl.push(j(1, 0.0, 1.0, 2.0)).is_feasible());
        let _ = tl.undo();
        assert!(tl.push(j(2, 0.0, 1.0, 5.0)).is_feasible());
    }

    #[test]
    fn future_release_on_cpu_stays_incremental() {
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        assert!(tl.push(j(0, 0.0, 10.0, 30.0)).is_feasible());
        // Released at 3 with deadline 6: preempts and fits (segment sweep).
        assert!(tl.push(j(1, 3.0, 2.0, 6.0)).is_feasible());
        assert!(tl.has_future());
        // Same but deadline 4: 3 + 2 > 4, infeasible.
        let _ = tl.undo();
        assert!(!tl.push(j(2, 3.0, 2.0, 4.0)).is_feasible());
        let _ = tl.undo();
        // Back to a dense queue: the array and the future stack restored.
        assert!(!tl.has_future());
        assert!(tl.feasible());
        assert_eq!(tl.len(), 1);
        assert_eq!(
            tl.engine_verdicts(),
            0,
            "preemptable future releases must never route through the engine"
        );
    }

    #[test]
    fn future_releases_on_gpu_stay_off_the_engine() {
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        assert!(tl.push(j(0, 0.0, 10.0, 30.0)).is_feasible());
        // Non-preemptable: the future job waits for the running one, so a
        // release at 3 with deadline 6 cannot fit behind 10 units of work.
        assert!(!tl.push(j(1, 3.0, 2.0, 6.0)).is_feasible());
        assert!(!is_schedulable(ResourceKind::Gpu, T0, tl.jobs()));
        let _ = tl.undo();
        assert!(tl.feasible());
        // Released at 3 with deadline 13, it runs [10, 12) after the blocker;
        // a second future job waits behind both (12 + 2 > 13.5).
        assert!(tl.push(j(2, 3.0, 2.0, 13.0)).is_feasible());
        assert!(!tl.push(j(3, 4.0, 2.0, 13.5)).is_feasible());
        assert!(!is_schedulable(ResourceKind::Gpu, T0, tl.jobs()));
        let _ = tl.undo();
        assert!(tl.feasible());
        assert_eq!(
            tl.engine_verdicts(),
            0,
            "future releases on a GPU are answered by the release-merge walk"
        );
    }

    #[test]
    fn demand_bound_is_necessary_on_gpu_and_never_runs_the_engine() {
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        tl.insert(j(0, 0.0, 10.0, 30.0));
        // Preemptively a release at 3 with deadline 6 fits (it runs [3, 5));
        // non-preemptively it waits behind 10 units of work.
        tl.insert(j(1, 3.0, 2.0, 6.0));
        assert!(tl.demand_feasible(), "preemption could schedule it");
        assert_eq!(
            tl.engine_verdicts(),
            0,
            "insert and the bound read the sorted arrays"
        );
        assert!(!tl.feasible(), "the walk replays the non-preemptive run");
        let _ = tl.undo();
        // Infeasible even preemptively: 3 + 2 > 4.5.
        tl.insert(j(2, 3.0, 2.0, 4.5));
        assert!(!tl.demand_feasible());
    }

    #[test]
    fn pinned_job_is_a_blocking_prefix() {
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        let mut running = j(0, 0.0, 4.0, 100.0);
        running.pinned = true;
        tl.insert(running);
        // Released at 2 but dispatched at 4: 4 + 1 <= 6.
        tl.insert(j(1, 2.0, 1.0, 6.0));
        assert!(tl.demand_feasible());
        assert!(tl.feasible());
        let _ = tl.undo();
        // 2 + 3 <= 6.5, but 4 + 3 > 6.5.
        tl.insert(j(2, 2.0, 3.0, 6.5));
        assert!(!tl.demand_feasible());
        assert!(!tl.feasible());
    }

    #[test]
    fn bound_holds_before_the_pinned_job_joins() {
        // A search may place the running GPU job after the phantoms it
        // blocks. Both releases fall within epsilon after the pinned job's
        // completion at 4, so the engine dispatches them at 4 and the later
        // deadline holds by 0.25 epsilon; the bound on the prefix without
        // the pinned job must not reject what the full queue achieves.
        let release = 4.0 + TIME_EPSILON / 2.0;
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        tl.insert(j(1, release, 1.0, 6.0 - 0.75 * TIME_EPSILON));
        tl.insert(j(2, release, 1.0, 5.5));
        assert!(tl.demand_feasible());
        let mut running = j(0, 0.0, 4.0, 100.0);
        running.pinned = true;
        tl.insert(running);
        assert!(tl.demand_feasible());
        assert!(is_schedulable(ResourceKind::Gpu, T0, tl.jobs()));
    }

    #[test]
    fn blocking_is_final_only_when_headroom_cannot_pass_the_release() {
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        tl.insert(j(0, 0.0, 10.0, 30.0));
        // Released at 3 with latest start 4: the dense job dispatched at 0
        // runs until 10.
        tl.insert(j(1, 3.0, 2.0, 6.0));
        assert!(tl.blocked_for_good(|_| Time::ZERO));
        assert!(!tl.feasible());
        // Three units added ahead of the blocker would start it at 3, after
        // the phantom is released, and the phantom would dispatch first.
        assert!(!tl.blocked_for_good(|_| Time::new(3.0)));
        let mut repaired = tl.jobs().to_vec();
        repaired.push(j(2, 0.0, 3.0, 29.0));
        assert!(is_schedulable(ResourceKind::Gpu, T0, &repaired));
        // Work that can only land behind the blocker leaves it blocked.
        assert!(tl.blocked_for_good(|d| if d.value() >= 31.0 {
            Time::new(3.0)
        } else {
            Time::ZERO
        }));
        assert_eq!(
            tl.engine_verdicts(),
            0,
            "the feasible() call above walks the sorted array"
        );
    }

    #[test]
    fn first_dispatch_blocks_only_when_no_first_job_leaves_room() {
        // Released at 2 with latest start 3: the dense job dispatched at 0
        // runs until 4.
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        tl.insert(j(0, 0.0, 4.0, 20.0));
        tl.insert(j(1, 2.0, 2.0, 5.0));
        assert!(tl.first_dispatch_blocked(None, |_| Time::infinity()));
        assert!(!tl.feasible());
        // A job due by 20 placed later could take the first dispatch: 3.5
        // units still start the future job too late, 2.5 do not.
        assert!(tl.first_dispatch_blocked(None, |_| Time::new(3.5)));
        assert!(!tl.first_dispatch_blocked(None, |d| if d.value() >= 20.0 {
            Time::new(2.5)
        } else {
            Time::infinity()
        }));
        let mut repaired = tl.jobs().to_vec();
        repaired.push(j(2, 0.0, 2.5, 19.0));
        assert!(is_schedulable(ResourceKind::Gpu, T0, &repaired));
        // A pinned job of 2 units still to come releases the future job at
        // its completion, which then dispatches first.
        assert!(!tl.first_dispatch_blocked(Some(Time::new(2.0)), |_| Time::infinity()));
        let mut running = j(3, 0.0, 2.0, 30.0);
        running.pinned = true;
        let mut repaired = tl.jobs().to_vec();
        repaired.push(running);
        assert!(is_schedulable(ResourceKind::Gpu, T0, &repaired));
        // One of 1.5 does not.
        assert!(tl.first_dispatch_blocked(Some(Time::new(1.5)), |_| Time::infinity()));
        assert_eq!(tl.engine_verdicts(), 0);
    }

    #[test]
    fn first_dispatch_scans_demand_behind_a_pinned_job_to_come() {
        // Without the pinned job the dense job dispatches at 0 and the
        // future job (released at 0.5, due at 2.5) finishes at 3 at best.
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        tl.insert(j(0, 0.0, 2.0, 4.0 - 0.5 * TIME_EPSILON));
        tl.insert(j(1, 0.5, 1.0, 2.5));
        assert!(tl.first_dispatch_blocked(None, |_| Time::infinity()));
        // With one unit pinned first, the future job runs [1, 2) and the
        // dense one [2, 4], within epsilon of its deadline: the demand scan
        // behind the pinned job holds on its ε boundary.
        assert!(!tl.first_dispatch_blocked(Some(Time::new(1.0)), |_| Time::infinity()));
        let mut running = j(2, 0.0, 1.0, 30.0);
        running.pinned = true;
        let mut extended = tl.jobs().to_vec();
        extended.push(running);
        assert!(is_schedulable(ResourceKind::Gpu, T0, &extended));
        // Due at 3.5 instead, the dense job misses behind both.
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        tl.insert(j(0, 0.0, 2.0, 3.5));
        tl.insert(j(1, 0.5, 1.0, 2.5));
        assert!(tl.first_dispatch_blocked(Some(Time::new(1.0)), |_| Time::infinity()));
        extended = tl.jobs().to_vec();
        extended.push(running);
        assert!(!is_schedulable(ResourceKind::Gpu, T0, &extended));
    }

    #[test]
    fn release_within_epsilon_keeps_the_engines_per_job_check() {
        // Dispatch treats a release within epsilon of `now` as ready at
        // `now`, but the engine's per-job condition uses the raw release:
        // release + exec = 2 + 0.5 epsilon overruns deadline + epsilon =
        // 2 + 0.25 epsilon.
        let job = j(0, TIME_EPSILON / 2.0, 2.0, 2.0 - 0.75 * TIME_EPSILON);
        assert!(!is_schedulable(ResourceKind::Cpu, T0, &[job]));
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        assert!(!tl.push(job).is_feasible());
        assert!(!tl.has_future());
        let _ = tl.undo();
        assert!(tl.feasible(), "undo clears the overrun");
    }

    #[test]
    fn epsilon_release_counts_as_dense() {
        // A release within TIME_EPSILON of `now` is "ready" to the engine;
        // the timeline must classify it identically (no future stack entry).
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        assert!(tl.push(j(0, TIME_EPSILON / 2.0, 2.0, 5.0)).is_feasible());
        assert!(!tl.has_future());
        assert_eq!(tl.engine_verdicts(), 0);
    }

    #[test]
    fn push_undo_probe_leaves_timeline_unchanged() {
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        let _ = tl.push(j(0, 0.0, 3.0, 50.0));
        let before = tl.jobs().to_vec();
        assert!(tl.push(j(1, 0.0, 3.0, 10.0)).is_feasible());
        let _ = tl.undo();
        assert!(!tl.push(j(2, 0.0, 3.0, 2.0)).is_feasible());
        let _ = tl.undo();
        assert_eq!(tl.jobs(), &before[..]);
    }

    #[test]
    fn failed_try_push_moves_nothing() {
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        let a = j(0, 0.0, 4.0, 6.5);
        assert!(tl.try_push(a));
        // 4 + 5 > 8: fails at its own slot, behind `a`.
        assert!(!tl.try_push(j(1, 0.0, 5.0, 8.0)));
        // Fits alone (3 <= 3) but `a` then finishes at 7 > 6.5.
        assert!(!tl.try_push(j(2, 0.0, 3.0, 3.0)));
        assert_eq!(tl.jobs(), &[a]);
        assert!(tl.feasible());
        assert_eq!(tl.undo(), a);
        assert!(tl.is_empty());
    }

    #[test]
    fn try_push_goes_behind_equal_deadlines() {
        // On a GPU the order inside a run of equal deadlines decides when a
        // future release dispatches: `a` then `b` completes at 3 and 4, so
        // `f` (released at 0.5) starts at 3 and misses 2.5; `b` first would
        // start it at 1.
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        assert!(tl.try_push(j(0, 0.0, 3.0, 10.0)));
        assert!(tl.try_push(j(1, 0.0, 1.0, 10.0)));
        let f = j(2, 0.5, 1.0, 2.5);
        assert!(!is_schedulable(
            ResourceKind::Gpu,
            T0,
            &[tl.jobs(), &[f]].concat()
        ));
        assert!(!tl.try_push(f));
        assert_eq!(tl.len(), 2);
        assert!(!tl.has_future());
    }

    #[test]
    fn try_push_on_cpu_keeps_the_future_segments() {
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        // The future job needs [3, 5] to itself.
        assert!(tl.try_push(j(0, 3.0, 2.0, 5.0)));
        assert!(tl.has_future());
        // 4 units due at 9 fit around it; 5 more due at 7 do not.
        assert!(tl.try_push(j(1, 0.0, 4.0, 9.0)));
        assert!(!tl.try_push(j(2, 0.0, 5.0, 7.0)));
        assert!(tl.feasible());
        assert_eq!(tl.undo().key, JobKey(1));
        assert_eq!(tl.undo().key, JobKey(0));
        assert!(!tl.has_future());
        assert_eq!(tl.engine_verdicts(), 0);
    }

    #[test]
    fn oracle_mode_agrees() {
        let mut incremental = EdfTimeline::new(ResourceKind::Cpu, T0);
        let mut oracle = EdfTimeline::new(ResourceKind::Cpu, T0);
        oracle.set_oracle(true);
        for job in [
            j(0, 0.0, 2.0, 9.0),
            j(1, 0.0, 3.0, 4.0),
            j(2, 0.0, 3.5, 9.0),
        ] {
            assert_eq!(
                incremental.push(job).is_feasible(),
                oracle.push(job).is_feasible()
            );
        }
    }

    #[test]
    #[should_panic(expected = "undo on an empty timeline")]
    fn undo_empty_panics() {
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        let _ = tl.undo();
    }

    #[test]
    #[should_panic(expected = "at most one job may be pinned")]
    fn second_pinned_rejected() {
        let mut tl = EdfTimeline::new(ResourceKind::Gpu, T0);
        let mut a = j(0, 0.0, 1.0, 5.0);
        a.pinned = true;
        let mut b = j(1, 0.0, 1.0, 5.0);
        b.pinned = true;
        let _ = tl.push(a);
        let _ = tl.push(b);
    }

    #[test]
    fn interleaved_push_undo_tracks_sorted_state() {
        // Regression shape: remove from the middle of the deadline order.
        let mut tl = EdfTimeline::new(ResourceKind::Cpu, T0);
        let _ = tl.push(j(0, 0.0, 1.0, 10.0));
        let _ = tl.push(j(1, 0.0, 1.0, 5.0));
        let _ = tl.push(j(2, 0.0, 1.0, 7.5));
        let popped = tl.undo();
        assert_eq!(popped.key, JobKey(2));
        // 1 + 4.5 > 5: the new job overflows the slack before its deadline.
        assert!(!tl.push(j(3, 0.0, 4.5, 5.0)).is_feasible());
        let _ = tl.undo();
        assert!(tl.feasible());
    }
}
