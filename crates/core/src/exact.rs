//! The exact optimizer: branch & bound over task→resource assignments.
//!
//! The paper formulates exact optimization as a MILP (Sec 4.2) whose
//! schedule is fully EDF-determined once the mapping is fixed. Enumerating
//! mappings with exact EDF-timeline feasibility therefore searches the same
//! space and finds the same optimum, at a fraction of the cost for the small
//! activation sizes this problem has (|S̄| tasks, N resources). The MILP
//! encoding itself lives in [`crate::MilpRm`] and is cross-validated against
//! this optimizer.
//!
//! Pruning: candidates are tried cheapest-energy first; a node is cut when
//! its accumulated energy plus the sum of every unassigned task's cheapest
//! candidate can no longer beat the incumbent. A placement is cut when its
//! resource queue fails [`PlanBuilder::try_place_or_defer`]: the exact
//! verdict on preemptable and dense queues, and the timeline's
//! processor-demand bound ([`rtrm_sched::EdfTimeline::demand_feasible`]) on
//! a GPU queue holding a future release — on the paper platform, almost
//! always the phantom. That bound is necessary for the engine's verdict and
//! only tightens as jobs are added, so a cut subtree holds no feasible leaf.
//! The exact verdict on such queues is postponed to the leaves
//! ([`PlanBuilder::all_schedulable`]), because non-preemptive feasibility
//! with a future release is not monotone; on a one-phantom rung the leaf
//! verdict is the timeline's treap walk, not an engine run.
//!
//! Blocking cut: on a rung whose job set holds exactly one future release
//! `F`, a per-depth [`Lookahead`] records, keyed by deadline, the most work
//! the still-unassigned jobs can put ahead of a dense GPU job, and every
//! placement — on a CPU too, since it shrinks that headroom — asks
//! [`PlanBuilder::blocked`] whether the non-preemptable queue holding `F`
//! misses a deadline however the rest are placed
//! ([`rtrm_sched::EdfTimeline::blocked_for_good`]). Dense jobs never wait,
//! so a job's start moves later only by still-unassigned work with an
//! earlier-or-equal deadline; a blocker that starts before `F`'s release
//! even after all of it, and runs past `F`'s latest start, blocks every
//! leaf below. Keying the headroom by deadline lets the cut fire high in
//! the tree. Rungs with several future releases keep the demand bound
//! alone.

use std::time::{Duration, Instant};

use rtrm_platform::{Energy, PlatformIndex, Time};

use crate::activation::{Activation, Decision, PlanBuilder, ResourceManager, TimelinePool};
use crate::cost::{candidates, Candidate};
use crate::driver::{decide_with_fallback_tracked, Attempt, Plan};
use crate::heuristic::HeuristicRm;
use crate::prune::CandidateTable;
use crate::view::JobView;

/// Exact energy-optimal mapping via branch & bound (the paper's "MILP"
/// series, run without the hypothetical solver overhead).
#[derive(Debug, Clone)]
pub struct ExactRm {
    /// Maximum branch & bound nodes per activation. When exhausted, the best
    /// plan found so far (if any) is used — an "anytime" cut-off that keeps
    /// worst-case activations bounded. A warm-started rung whose injected
    /// incumbent was never replaced reruns cold on exhaustion, so the
    /// anytime result is the cold search's either way (at up to twice the
    /// node spend, which the reported [`Decision::nodes`] includes). The
    /// default is high enough that the paper-scale experiments in this
    /// repository never hit it.
    pub node_budget: u64,
    /// Offer "abort and re-queue on the same GPU" (see
    /// [`candidates`](crate::candidates)). Enabled by default; Fig 1's
    /// scenario analysis requires it.
    pub gpu_restart_in_place: bool,
    /// Answer every exact feasibility probe with a memoized from-scratch
    /// engine run instead of the incremental timeline (the demand bound on
    /// GPU queues with a future release reads the timeline in both modes).
    /// Verdicts (and hence plans) are identical; this is the pre-incremental
    /// baseline, kept for benchmarks and differential tests.
    pub oracle_feasibility: bool,
    /// Anytime wall-clock budget in seconds *per fallback rung*. `None`
    /// (the default) never reads the clock, so results stay bit-identical
    /// run to run. With a budget, expiry keeps the best incumbent found so
    /// far; with no incumbent the activation degrades down the fallback
    /// ladder to the paper's heuristic as a floor.
    pub wall_clock_budget: Option<f64>,
    /// Rebuild, filter, and sort every job's candidate list per rung
    /// instead of filtering the shared pre-sorted
    /// [`CandidateTable`] rows. Decisions are identical; this is the
    /// pre-pruning baseline, kept for benchmarks and differential tests.
    pub unpruned_candidates: bool,
    /// Seed every rung's branch & bound with the heuristic's plan as a
    /// starting incumbent (enabled by default). The injected incumbent
    /// prunes with the *exact* bound — no tolerance slack — and an equally
    /// good search-discovered leaf replaces it, so decisions are
    /// bit-identical to a cold search (`warmstart_differential.rs`); only
    /// the node count shrinks. If a binding [`node_budget`] cuts the search
    /// while the incumbent is still injected, the rung reruns cold and
    /// returns the cold anytime result — the seed never surfaces as the
    /// answer and admission never degrades below the cold baseline.
    /// Disable for the cold A/B baseline.
    ///
    /// The seed is the pruned heuristic's plan for the rung
    /// (`HeuristicRm::solve_with_table`). It scans a second, restart-free
    /// [`CandidateTable`] that the decide builds once with the parameters of
    /// [`HeuristicRm`]'s own decide and recycles in the [`TimelinePool`],
    /// and it plans in the decide's own pool, so its feasibility probes
    /// count in [`TimelinePool::engine_verdicts`]. The heuristic floor is
    /// planned the same way. Only the [`unpruned_candidates`] reference
    /// path seeds from the legacy unpruned heuristic on a fresh pool.
    ///
    /// [`node_budget`]: ExactRm::node_budget
    /// [`unpruned_candidates`]: ExactRm::unpruned_candidates
    pub warm_start: bool,
    /// Drop candidates dominated within their (resource, pinned) group —
    /// strictly cheaper energy at no more execution time — before the
    /// search (enabled by default). A dominated candidate is in no optimal
    /// plan and the branching order is keyed on the pre-drop rows, so
    /// decisions are identical. Disable for the unpresolved A/B baseline.
    pub presolve: bool,
}

impl Default for ExactRm {
    fn default() -> Self {
        ExactRm {
            node_budget: 20_000_000,
            gpu_restart_in_place: true,
            oracle_feasibility: false,
            wall_clock_budget: None,
            unpruned_candidates: false,
            warm_start: true,
            presolve: true,
        }
    }
}

impl ExactRm {
    /// Creates the exact optimizer with default limits.
    #[must_use]
    pub fn new() -> Self {
        ExactRm::default()
    }

    /// Creates an optimizer with an explicit node budget.
    #[must_use]
    pub fn with_node_budget(node_budget: u64) -> Self {
        ExactRm {
            node_budget,
            ..ExactRm::default()
        }
    }

    /// Creates an optimizer with an anytime wall-clock budget per rung (see
    /// [`ExactRm::wall_clock_budget`]).
    #[must_use]
    pub fn with_wall_clock(secs: f64) -> Self {
        ExactRm {
            wall_clock_budget: Some(secs),
            ..ExactRm::default()
        }
    }

    /// Materializes every job's deadline-filtered candidate list from the
    /// shared pre-sorted [`CandidateTable`] (filter-after-stable-sort equals
    /// the legacy sort-after-filter). The deadline bound `t_left` does not
    /// depend on the fallback rung, so this runs *once per decide* and each
    /// rung slices the prefix of `n_real + k` rows.
    fn rung_rows(
        &self,
        activation: &Activation<'_>,
        table: &mut CandidateTable,
        index: Option<&PlatformIndex>,
    ) -> Vec<Vec<Candidate>> {
        let now = activation.now;
        let (jobs, rows) = table.parts();
        (0..jobs.len())
            .map(|j| {
                let tleft = jobs[j].time_left(now);
                let mut cs = Vec::with_capacity(rows.row_len(j, index));
                rows.filtered_into(j, tleft, index, &mut cs);
                cs
            })
            .collect()
    }

    /// The pre-pruning rung solve: rebuilds, filters, and sorts every
    /// candidate list per rung, and seeds from the unpruned heuristic on a
    /// fresh pool. Kept verbatim as the differential/bench baseline.
    fn solve_unpruned(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        pool: &mut TimelinePool,
    ) -> Attempt {
        let jobs: Vec<JobView> = activation
            .jobs_with_phantoms(num_phantoms)
            .copied()
            .collect();
        let n_real = activation.active.len() + 1;

        // Candidate lists, filtered by the per-task deadline bound
        // (constraint (2)) and sorted cheapest first for pruning.
        let mut cand: Vec<Vec<Candidate>> = jobs
            .iter()
            .map(|j| {
                let tleft = j.time_left(activation.now);
                let mut cs: Vec<Candidate> = candidates(
                    j,
                    activation.platform,
                    activation.catalog,
                    self.gpu_restart_in_place,
                )
                .into_iter()
                .filter(|c| c.exec <= tleft)
                .collect();
                cs.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
                cs
            })
            .collect();
        if cand.iter().any(Vec::is_empty) {
            return Attempt::default();
        }
        // Branch-order keys are taken before the dominance drop so the
        // presolved and unpresolved searches walk the same tree shape.
        let keys = order_keys(&cand);
        if self.presolve {
            drop_dominated_rows(&mut cand, activation.platform.len());
        }
        let seed = if self.warm_start {
            let mut warm_pool = TimelinePool::new();
            warm_pool.set_oracle(self.oracle_feasibility);
            HeuristicRm::new()
                .solve_unpruned_with_chosen(activation, num_phantoms, &mut warm_pool)
                .map(|(_, chosen)| chosen.into_iter().map(Some).collect())
        } else {
            None
        };
        self.branch_and_bound(
            activation,
            num_phantoms,
            n_real,
            &jobs,
            &cand,
            &keys,
            seed,
            pool,
        )
    }

    /// The shared search: branching order, suffix minima, DFS, and plan
    /// extraction — identical for both candidate sources. `keys` carries the
    /// per-job (candidate count, energy spread) branching keys, measured on
    /// the pre-dominance rows so presolved and unpresolved runs agree.
    /// `seed` is the heuristic's job-indexed plan for this rung, the warm
    /// start's injected incumbent (`None` runs cold).
    #[allow(clippy::too_many_arguments)]
    fn branch_and_bound(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        n_real: usize,
        jobs: &[JobView],
        cand: &[Vec<Candidate>],
        keys: &[(usize, Energy)],
        seed: Option<Vec<Option<Candidate>>>,
        pool: &mut TimelinePool,
    ) -> Attempt {
        // Branching order, pseudocost-lite: most constrained task first
        // (fewest candidates), then largest energy spread (its assignment
        // moves the bound the most), then tightest deadline; the stable sort
        // pins remaining ties to job order so decisions stay deterministic.
        // `order[pos]` is the job index at depth pos.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            keys[a]
                .0
                .cmp(&keys[b].0)
                .then(keys[b].1.cmp(&keys[a].1))
                .then(jobs[a].deadline.cmp(&jobs[b].deadline))
        });

        // Lower bound: cheapest candidate of every job still unassigned at
        // or below a depth.
        let mut suffix_min = vec![Energy::ZERO; jobs.len() + 1];
        for pos in (0..jobs.len()).rev() {
            suffix_min[pos] = suffix_min[pos + 1] + cand[order[pos]][0].energy;
        }

        // Blocking cut: the per-depth look-ahead, built in the pool's
        // reused buffers (empty unless exactly one job is released later).
        let mut lookahead = std::mem::take(&mut pool.lookahead);
        lookahead.rebuild(activation, jobs, cand, &order);

        // Warm start: the seed is the incumbent. Its cost is re-summed in
        // `order` position order — the same left-to-right fold the DFS uses
        // — so when the search reaches the same leaf it computes the same
        // float, and the `<=` replacement below fires.
        let mut warm: Option<(Energy, Vec<Option<Candidate>>)> = seed.map(|chosen| {
            debug_assert_eq!(chosen.len(), jobs.len(), "the seed plans this rung");
            let mut cost = Energy::ZERO;
            for &j in &order {
                cost += chosen[j].expect("the seed maps every job").energy;
            }
            (cost, chosen)
        });

        // Nodes spent by a warm run that fell through to the cold rerun,
        // carried into the reported count so the extra spend is visible.
        let mut rerun_nodes: u64 = 0;
        let (nodes, best, timed_out) = loop {
            let injected = warm.is_some();
            let mut search = Search {
                jobs,
                cand,
                order: &order,
                suffix_min: &suffix_min,
                lookahead: &lookahead,
                plan: PlanBuilder::new(activation, &mut *pool),
                chosen: vec![None; jobs.len()],
                best: warm.take(),
                injected,
                nodes: 0,
                budget: self.node_budget,
                deadline: self
                    .wall_clock_budget
                    .map(|secs| Instant::now() + Duration::from_secs_f64(secs.clamp(0.0, 1e9))),
                timed_out: false,
            };
            search.dfs(0, Energy::ZERO);
            // The injected incumbent never leaves the search: it only ever
            // prunes. Whenever it survives un-replaced — the tree was
            // exhausted without a leaf matching it (a float-fold corner in
            // the bound test) or the node budget cut the search off first —
            // rerun cold, so the rung returns exactly what a cold search
            // would: under a binding budget that is the cold anytime
            // incumbent (admission must not turn into rejection just
            // because the seed was good), and no plan only when even a cold
            // search finds none. The rerun keeps the full node budget
            // (shrinking it would change the cold result); the warm run's
            // nodes are added to the reported count so the up-to-2× spend
            // stays visible. Wall-clock expiry is the one exception — a
            // rerun would double the rung's latency — so it reports no plan
            // with `timed_out` set and the ladder degrades to its
            // heuristic floor.
            if search.injected {
                if search.timed_out {
                    search.best = None;
                } else {
                    rerun_nodes = search.nodes;
                    continue;
                }
            }
            break (rerun_nodes + search.nodes, search.best, search.timed_out);
        };
        pool.lookahead = lookahead;
        let Some((objective, chosen)) = best else {
            return Attempt {
                plan: None,
                timed_out,
            };
        };
        // Rebuild the winning plan to derive the reservation gates.
        let start_gates = if num_phantoms > 0 {
            let mut plan = PlanBuilder::new(activation, pool);
            for (job, c) in jobs.iter().zip(&chosen) {
                plan.place(job, &c.expect("complete assignment"));
            }
            let keys: Vec<_> = activation.predicted[..num_phantoms]
                .iter()
                .map(|p| p.key)
                .collect();
            plan.reservation_gates(&keys)
        } else {
            Vec::new()
        };
        Attempt {
            plan: Some(Plan {
                placements: jobs[..n_real]
                    .iter()
                    .enumerate()
                    .map(|(j, view)| (view.key, chosen[j].expect("complete assignment")))
                    .collect(),
                objective,
                nodes,
                start_gates,
            }),
            timed_out,
        }
    }
}

/// Per-job branching keys: (candidate count, energy spread between the most
/// and least expensive candidate). Rows are `(energy, resource)`-sorted, so
/// the spread is `last − first`. Measured on the pre-dominance rows so the
/// branching order does not depend on whether presolve ran.
fn order_keys(rows: &[Vec<Candidate>]) -> Vec<(usize, Energy)> {
    rows.iter()
        .map(|row| {
            let spread = match (row.first(), row.last()) {
                (Some(first), Some(last)) => last.energy - first.energy,
                _ => Energy::ZERO,
            };
            (row.len(), spread)
        })
        .collect()
}

/// Drops every candidate dominated *within* its (resource, pinned) group:
/// `B` goes iff some `A` on the same resource with the same pinned flag has
/// strictly smaller energy and no larger execution time — any plan using `B`
/// swaps to `A` and strictly improves, so `B` is in no optimal plan and no
/// equal-cost optimum either (the energy inequality is strict). Cross-
/// resource dominance stays advisory (DESIGN.md §8): dropping across
/// resources would need the EDF feasibility swap argument, which only holds
/// on the same queue. Pinned and unpinned candidates never dominate each
/// other — pinned entries sort to the head of the EDF order, so the swap
/// argument breaks across the flag.
///
/// Rows are energy-sorted ascending, so dominators precede their victims;
/// runs of equal energy are folded into the frontier only after the whole
/// run is judged, keeping the energy comparison strict.
fn drop_dominated_rows(rows: &mut [Vec<Candidate>], num_resources: usize) {
    let mut frontier: Vec<Option<Time>> = vec![None; num_resources * 2];
    let mut dropped: Vec<bool> = Vec::new();
    for row in rows.iter_mut() {
        frontier.iter_mut().for_each(|slot| *slot = None);
        dropped.clear();
        dropped.resize(row.len(), false);
        let mut any = false;
        let mut i = 0;
        while i < row.len() {
            let mut j = i;
            while j < row.len() && row[j].energy == row[i].energy {
                j += 1;
            }
            for k in i..j {
                let slot = row[k].resource.index() * 2 + usize::from(row[k].pinned);
                if frontier[slot].is_some_and(|exec| exec <= row[k].exec) {
                    dropped[k] = true;
                    any = true;
                }
            }
            for c in &row[i..j] {
                let slot = c.resource.index() * 2 + usize::from(c.pinned);
                let exec = c.exec;
                frontier[slot] = Some(frontier[slot].map_or(exec, |e| e.min(exec)));
            }
            i = j;
        }
        if any {
            let mut k = 0;
            row.retain(|_| {
                let drop = dropped[k];
                k += 1;
                !drop
            });
        }
    }
}

/// The blocking cut's look-ahead for a rung whose job set holds exactly one
/// future release `F`: per search depth, `headroom(d)`, the most work the
/// jobs still unassigned there can put ahead of a dense job with deadline
/// `d` on a non-preemptable queue (see
/// [`EdfTimeline::blocked_for_good`](rtrm_sched::EdfTimeline::blocked_for_good)).
///
/// An unassigned job `u` adds its largest non-preemptable candidate exec:
/// a pinned "stay" candidate runs first, so it counts against every
/// deadline; an unpinned one joins the EDF order, so it counts only against
/// deadlines at or after `d_u`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lookahead {
    /// Index of `F` in the rung's jobs; `None` disables the cut.
    future: Option<usize>,
    /// Per depth: pinned exec of the unassigned jobs.
    base: Vec<Time>,
    /// Per depth `p`, `steps[offsets[p]..offsets[p + 1]]`: the unassigned
    /// jobs' unpinned exec beyond their pinned one, as `(deadline,
    /// cumulative exec)` in deadline order.
    offsets: Vec<usize>,
    steps: Vec<(Time, Time)>,
    /// Per job: (pinned exec, unpinned exec beyond it, search depth).
    per_job: Vec<(Time, Time, usize)>,
    /// Job indices in deadline order.
    by_deadline: Vec<usize>,
}

impl Lookahead {
    /// Rebuilds the table for one rung (`order[pos]` is the job at depth
    /// `pos`); leaves the cut disabled unless exactly one job is released
    /// after `now`.
    fn rebuild(
        &mut self,
        activation: &Activation<'_>,
        jobs: &[JobView],
        cand: &[Vec<Candidate>],
        order: &[usize],
    ) {
        self.future = None;
        let mut later = (0..jobs.len()).filter(|&j| !jobs[j].release.released_by(activation.now));
        let (Some(future), None) = (later.next(), later.next()) else {
            return;
        };
        self.per_job.clear();
        let platform = activation.platform;
        self.per_job.extend(cand.iter().map(|row| {
            let (mut pinned, mut free) = (Time::ZERO, Time::ZERO);
            for c in row {
                if platform.resource(c.resource).kind().is_preemptable() {
                    continue;
                }
                if c.pinned {
                    pinned = pinned.max(c.exec);
                } else {
                    free = free.max(c.exec);
                }
            }
            (pinned, (free - pinned).max(Time::ZERO), 0)
        }));
        for (pos, &j) in order.iter().enumerate() {
            self.per_job[j].2 = pos;
        }
        self.by_deadline.clear();
        self.by_deadline.extend(0..jobs.len());
        self.by_deadline.sort_unstable_by_key(|&j| jobs[j].deadline);
        self.base.clear();
        self.offsets.clear();
        self.steps.clear();
        for depth in 0..=jobs.len() {
            self.offsets.push(self.steps.len());
            let mut base = Time::ZERO;
            let mut cumulative = Time::ZERO;
            for &j in &self.by_deadline {
                let (pinned, extra, pos) = self.per_job[j];
                if pos < depth {
                    continue;
                }
                base += pinned;
                if extra > Time::ZERO {
                    cumulative += extra;
                    self.steps.push((jobs[j].deadline, cumulative));
                }
            }
            self.base.push(base);
        }
        self.offsets.push(self.steps.len());
        self.future = Some(future);
    }

    /// `headroom(d)` at search depth `depth`, for non-decreasing `d`.
    fn headroom(&self, depth: usize) -> impl FnMut(Time) -> Time + '_ {
        let steps = &self.steps[self.offsets[depth]..self.offsets[depth + 1]];
        let base = self.base[depth];
        let mut reached = 0;
        move |deadline| {
            while reached < steps.len() && steps[reached].0 <= deadline {
                reached += 1;
            }
            base + reached.checked_sub(1).map_or(Time::ZERO, |i| steps[i].1)
        }
    }
}

struct Search<'a, 'b> {
    jobs: &'a [JobView],
    cand: &'a [Vec<Candidate>],
    order: &'a [usize],
    suffix_min: &'a [Energy],
    lookahead: &'a Lookahead,
    plan: PlanBuilder<'b>,
    chosen: Vec<Option<Candidate>>,
    best: Option<(Energy, Vec<Option<Candidate>>)>,
    /// `best` holds a warm-start incumbent the search did not discover
    /// itself. While set, pruning uses the strict bound (`>` instead of
    /// `>=`) so an equally good subtree is never cut, and an equally good
    /// leaf replaces the incumbent — after which the cold rules resume.
    injected: bool,
    nodes: u64,
    budget: u64,
    deadline: Option<Instant>,
    timed_out: bool,
}

impl Search<'_, '_> {
    /// The blocking cut, after a placement that leaves `depth` jobs
    /// assigned: whether the non-preemptable queue holding the rung's one
    /// future release misses a deadline however the rest are placed. Any
    /// placement can trigger it — one on a CPU shrinks the headroom too.
    fn blocked(&self, depth: usize) -> bool {
        let Some(future) = self.lookahead.future else {
            return false;
        };
        let Some(placed) = self.chosen[future] else {
            return false;
        };
        self.plan
            .blocked(placed.resource, self.lookahead.headroom(depth))
    }

    fn dfs(&mut self, pos: usize, cost: Energy) {
        if self.timed_out || self.nodes >= self.budget {
            return;
        }
        // Amortize the clock read: no syscall unless a budget is set, and
        // then only once every 1024 nodes.
        if self.nodes & 0x3ff == 0 && self.deadline.is_some_and(|at| Instant::now() >= at) {
            self.timed_out = true;
            return;
        }
        if pos == self.order.len() {
            // Queues whose exact verdict was deferred (future releases on
            // non-preemptable resources, cut only by the demand bound) are
            // validated here, on the complete plan.
            let accept = self.plan.all_schedulable()
                && match self.best.as_ref() {
                    None => true,
                    // A leaf matching the injected incumbent's cost replaces
                    // it: the incumbent becomes search-discovered state.
                    Some((b, _)) if self.injected => cost <= *b,
                    Some((b, _)) => cost < *b,
                };
            if accept {
                self.best = Some((cost, self.chosen.clone()));
                self.injected = false;
            }
            return;
        }
        let j = self.order[pos];
        for ci in 0..self.cand[j].len() {
            let c = self.cand[j][ci];
            // Candidates are energy-sorted: once the bound fails it fails
            // for every later candidate of this job. Against an injected
            // incumbent the test is strict (`>`): its cost is feasible but
            // unproven, and cutting an equally cheap subtree could hide a
            // leaf the cold search would have returned.
            let bound = cost + c.energy + self.suffix_min[pos + 1];
            let prune = match self.best.as_ref() {
                None => false,
                Some((b, _)) if self.injected => bound > *b,
                Some((b, _)) => bound >= *b,
            };
            if prune {
                break;
            }
            self.nodes += 1;
            if self.plan.try_place_or_defer(&self.jobs[j], &c) {
                self.chosen[j] = Some(c);
                if !self.blocked(pos + 1) {
                    self.dfs(pos + 1, cost + c.energy);
                }
                self.chosen[j] = None;
                self.plan.unplace_last(c.resource);
                if self.timed_out {
                    return;
                }
            }
        }
    }
}

impl ResourceManager for ExactRm {
    fn name(&self) -> &str {
        "milp"
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        // The fallback ladder's rungs share the timelines and the
        // engine-fallback memo through the pool.
        let mut pool = TimelinePool::new();
        self.decide_with_pool(activation, &mut pool)
    }

    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        pool.set_oracle(self.oracle_feasibility);
        // Heuristic floor: only consulted when every branch & bound rung
        // failed and at least one failure was a wall-clock expiry. The
        // ladder lends it the pool the rungs plan in.
        let heuristic = HeuristicRm::new();
        if self.unpruned_candidates {
            return decide_with_fallback_tracked(
                activation,
                pool,
                |pool, act, k| self.solve_unpruned(act, k, pool),
                |pool, act| heuristic.solve_unpruned(act, 0, pool),
            );
        }
        // Candidate rows built once per decide and shared across all rungs:
        // rung `k` slices the prefix of `n_real + k` deadline-filtered rows.
        // The seed table is the pruned heuristic's own (restart-free), from
        // which every rung's warm seed and the floor are planned.
        let mut table = pool.take_table();
        let mut seeds = pool.take_seed_table();
        let index = pool.take_index();
        table.rebuild(activation, true, self.gpu_restart_in_place, index.as_ref());
        seeds.rebuild(activation, true, false, index.as_ref());
        let mut cand_all = self.rung_rows(activation, &mut table, index.as_ref());
        // Branch-order keys are taken before the dominance drop so the
        // presolved and unpresolved searches walk the same tree shape.
        let keys_all = order_keys(&cand_all);
        if self.presolve {
            drop_dominated_rows(&mut cand_all, activation.platform.len());
        }
        let n_real = activation.active.len() + 1;
        let decision = decide_with_fallback_tracked(
            activation,
            &mut (&mut *pool, &mut seeds),
            |(pool, seeds), act, k| {
                let n_jobs = n_real + k;
                let cand = &cand_all[..n_jobs];
                if cand.iter().any(Vec::is_empty) {
                    return Attempt::default();
                }
                let seed = if self.warm_start {
                    heuristic
                        .solve_with_table(act, k, seeds, index.as_ref(), pool)
                        .map(|(_, chosen)| chosen)
                } else {
                    None
                };
                self.branch_and_bound(
                    act,
                    k,
                    n_real,
                    &table.jobs()[..n_jobs],
                    cand,
                    &keys_all[..n_jobs],
                    seed,
                    pool,
                )
            },
            |(pool, seeds), act| {
                heuristic
                    .solve_with_table(act, 0, seeds, index.as_ref(), pool)
                    .map(|(plan, _)| plan)
            },
        );
        pool.restore_table(table);
        pool.restore_seed_table(seeds);
        pool.restore_index(index);
        decision
    }

    fn set_wall_clock(&mut self, budget: Option<f64>) {
        self.wall_clock_budget = budget;
    }
}
