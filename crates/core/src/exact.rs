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
//! candidate can no longer beat the incumbent. That sum ignores that the
//! GPU, the cheapest resource for nearly every type, fits only a few of the
//! jobs, so a second, Lagrangian bound prices non-preemptable time
//! ([`GpuPrice`]): for one deadline level `d*` and one multiplier `λ ≥ 0`,
//! every non-preemptable candidate of a job due by `d*` costs `λ·exec`
//! extra, and `λ·G·(d* − now + ε)` is credited back, `G` being the number
//! of non-preemptable resources. Jobs due by `d*` all run inside
//! `[now, d* + ε]`, so their non-preemptable work fits in that credit and
//! the bound holds for every `λ ≥ 0`; `λ` and `d*` only decide how tight it
//! is. They are chosen once per rung by a breakpoint sweep (the fractional
//! knapsack of which jobs due by `d*` get GPU time), lazily, once the
//! search holds an incumbent and has spent more nodes than the rung has
//! jobs. The candidate order is not the charged order, so a priced cut
//! skips one candidate rather than the rest of the row.
//!
//! A placement is cut when its resource queue fails
//! [`PlanBuilder::try_place_or_defer`]: the exact
//! verdict on preemptable and dense queues, and the timeline's
//! processor-demand bound ([`rtrm_sched::EdfTimeline::demand_feasible`]) on
//! a GPU queue holding a future release — on the paper platform, almost
//! always the phantom. That bound is necessary for the engine's verdict and
//! only tightens as jobs are added, so a cut subtree holds no feasible leaf.
//! The exact verdict on such queues is postponed to the leaves
//! ([`PlanBuilder::all_schedulable`]), because non-preemptive feasibility
//! with a future release is not monotone; on a one-phantom rung the leaf
//! verdict is the timeline's in-order walk, not an engine run.
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

use rtrm_platform::{Energy, Platform, PlatformIndex, Time, TIME_EPSILON};

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
        // The rows are this rung's own, so are the capacity bound's lines.
        pool.price.lines.clear();
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
        // Capacity bound: built lazily by the search, once per rung (a cold
        // rerun keeps what the warm run built).
        let mut price = std::mem::take(&mut pool.price);
        price.built = false;
        price.active = false;

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
                now: activation.now,
                platform: activation.platform,
                jobs,
                cand,
                order: &order,
                suffix_min: &suffix_min,
                lookahead: &lookahead,
                price: &mut price,
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
        pool.price = price;
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

/// Relative float margin of the capacity bound, taken of its energy
/// terms' magnitude plus `λ·G` times the absolute times it reads (`d*`,
/// `now`). Sums of a few dozen such terms round by less than `1e-14` of
/// their magnitude; the margin is a hundred times that.
const PRICE_MARGIN: f64 = 1e-12;

/// One job's selection tuple for choosing the capacity bound's multiplier:
/// its cheapest preemptable energy and its cheapest non-preemptable
/// `(energy, exec)` line, infinite where the job has no such candidate.
#[derive(Debug, Clone, Copy)]
struct Line {
    cpu: Energy,
    gpu: Energy,
    gpu_exec: Time,
}

/// The capacity bound of one rung: a Lagrangian price `λ` on the
/// non-preemptable time of the jobs due by one deadline level `d*`.
///
/// On every feasible leaf, the jobs due by `d*` that run on one of the
/// platform's `G` non-preemptable resources start at or after `now` and
/// finish by `d* + ε`, so their execs sum to at most `G·(d* − now + ε)`.
/// Charging each such candidate `λ·exec` and crediting that capacity back
/// leaves a lower bound on every feasible leaf's energy for any `λ ≥ 0`:
/// `cost + Σ_unassigned min_c (e_c + charge_c) + charged − credit`, where
/// `charged` sums the charges of the path's own choices.
#[derive(Debug, Clone, Default)]
pub(crate) struct GpuPrice {
    /// Per job of the decide, its selection tuple; a prefix cache that the
    /// decide clears and the rungs' builds extend.
    lines: Vec<Line>,
    /// Per resource of the decide's platform: non-preemptable.
    gpu: Vec<bool>,
    /// `G`: how many of them there are.
    gpus: usize,
    /// The bound was built for this rung (whether or not it prices).
    built: bool,
    /// The bound prices (`λ > 0`); otherwise it equals the plain one.
    active: bool,
    /// `λ`, energy per unit of non-preemptable time.
    lambda: Energy,
    /// Per job: due by `d*`.
    due: Vec<bool>,
    /// `λ·G·(d* − now + ε)`.
    capacity: Energy,
    /// The float margin subtracted from every priced bound.
    margin: Energy,
    /// Per depth: `Σ min_c (e_c + charge_c)` over the jobs at or below it.
    suffix: Vec<Energy>,
    /// Per depth: the charges of the current path's choices above it.
    charged: Vec<Energy>,
    /// Sweep scratch: job indices in deadline order, and `(savings per
    /// unit of GPU time, GPU exec, savings)` in decreasing ratio.
    by_deadline: Vec<usize>,
    items: Vec<(f64, f64, f64)>,
}

impl GpuPrice {
    /// The extra charge of placing job `j` on candidate `c`.
    fn charge(&self, j: usize, c: &Candidate) -> Energy {
        if self.due[j] && self.gpu[c.resource.index()] {
            self.lambda * c.exec.value()
        } else {
            Energy::ZERO
        }
    }

    /// The priced bound at depth `pos` for a candidate of energy `energy`
    /// and charge `charge`, after a path of energy `cost`: never above the
    /// energy of a feasible leaf below.
    fn bound(&self, cost: Energy, energy: Energy, pos: usize, charge: Energy) -> Energy {
        cost + energy + self.suffix[pos + 1]
            - (self.capacity - self.charged[pos] - charge)
            - self.margin
    }

    /// Records the charge of the choice made at depth `pos`.
    fn descend(&mut self, pos: usize, charge: Energy) {
        self.charged[pos + 1] = self.charged[pos] + charge;
    }

    /// Builds the bound for one rung at search depth `pos`: chooses `d*`
    /// and `λ`, fills the charged suffix, and recomputes the charges along
    /// the current path (`chosen` at `order[..pos]`).
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        now: Time,
        platform: &Platform,
        jobs: &[JobView],
        cand: &[Vec<Candidate>],
        order: &[usize],
        chosen: &[Option<Candidate>],
        pos: usize,
    ) {
        self.built = true;
        self.active = false;
        // The decide's first build also reads its platform's GPUs.
        if self.lines.is_empty() {
            self.gpu.clear();
            self.gpu
                .extend(platform.resources().map(|r| !r.kind().is_preemptable()));
            self.gpus = self.gpu.iter().filter(|&&g| g).count();
        }
        for row in cand.iter().skip(self.lines.len()) {
            let mut line = Line {
                cpu: Energy::infinity(),
                gpu: Energy::infinity(),
                gpu_exec: Time::ZERO,
            };
            // Rows are energy-sorted: the first line of each kind is its
            // cheapest.
            for c in row {
                if !self.gpu[c.resource.index()] {
                    line.cpu = line.cpu.min(c.energy);
                } else if c.energy < line.gpu {
                    line.gpu = c.energy;
                    line.gpu_exec = c.exec;
                }
                if line.cpu.is_finite() && line.gpu.is_finite() {
                    break;
                }
            }
            self.lines.push(line);
        }
        let Some((lambda, level)) = self.choose(now, jobs) else {
            return;
        };
        let n = jobs.len();
        self.lambda = lambda;
        self.due.clear();
        self.due
            .extend(jobs.iter().map(|job| job.deadline <= level));
        self.suffix.clear();
        self.suffix.resize(n + 1, Energy::ZERO);
        for p in (0..n).rev() {
            let j = order[p];
            // Charges are non-negative and the row is energy-sorted, so no
            // candidate past the first costlier than the minimum so far
            // can lower it.
            let mut cheapest = Energy::infinity();
            for c in &cand[j] {
                if c.energy >= cheapest {
                    break;
                }
                cheapest = cheapest.min(c.energy + self.charge(j, c));
            }
            self.suffix[p] = self.suffix[p + 1] + cheapest;
        }
        let gpus = self.gpus as f64;
        self.capacity = lambda * (gpus * (level - now + Time::new(TIME_EPSILON)).value());
        self.margin = (self.suffix[0]
            + lambda * (gpus * (level.value().abs() + now.value().abs())))
            * PRICE_MARGIN;
        self.charged.clear();
        self.charged.resize(n + 1, Energy::ZERO);
        for (p, &j) in order[..pos].iter().enumerate() {
            let c = chosen[j].expect("the path above the build is chosen");
            self.charged[p + 1] = self.charged[p] + self.charge(j, &c);
        }
        self.active = true;
    }

    /// The breakpoint sweep: over the rung's deadline levels `d`, the `λ`
    /// that maximizes the selection tuples' Lagrangian gain over the plain
    /// bound. Jobs with only non-preemptable lines take capacity first;
    /// the rest are the fractional knapsack's items, valued at what the GPU
    /// saves them, and the maximizing `λ` is the savings ratio of the item
    /// that overflows the capacity. Returns `(λ, d)` of the largest
    /// positive gain, `None` when no level gains.
    ///
    /// A level that adds no job with GPU lines only has more room for the
    /// same items, so its gain is no larger and it is skipped, as is one
    /// whose items all fit.
    fn choose(&mut self, now: Time, jobs: &[JobView]) -> Option<(Energy, Time)> {
        self.by_deadline.clear();
        self.by_deadline.extend(0..jobs.len());
        self.by_deadline.sort_unstable_by_key(|&j| jobs[j].deadline);
        self.items.clear();
        let gpus = self.gpus as f64;
        let (mut mandatory, mut total, mut savings) = (0.0, 0.0, 0.0);
        let mut best: Option<(f64, f64, Time)> = None;
        let mut i = 0;
        while i < self.by_deadline.len() {
            let level = jobs[self.by_deadline[i]].deadline;
            let mut grew = false;
            while i < self.by_deadline.len() && jobs[self.by_deadline[i]].deadline == level {
                let line = self.lines[self.by_deadline[i]];
                i += 1;
                let exec = line.gpu_exec.value();
                if !line.gpu.is_finite() || exec <= 0.0 {
                    continue;
                }
                if !line.cpu.is_finite() {
                    mandatory += exec;
                    grew = true;
                } else if line.gpu < line.cpu {
                    let saving = (line.cpu - line.gpu).value();
                    let ratio = saving / exec;
                    let at = self.items.partition_point(|item| item.0 >= ratio);
                    self.items.insert(at, (ratio, exec, saving));
                    total += exec;
                    savings += saving;
                    grew = true;
                }
            }
            let room = (level.value() - now.value() + TIME_EPSILON) * gpus - mandatory;
            if !grew || room < 0.0 || total <= room {
                continue;
            }
            let (mut used, mut rest) = (0.0, savings);
            for &(ratio, exec, saving) in &self.items {
                if used + exec > room {
                    let gain = rest - ratio * (room - used);
                    if best.is_none_or(|(top, _, _)| gain > top) {
                        best = Some((gain, ratio, level));
                    }
                    break;
                }
                used += exec;
                rest -= saving;
            }
        }
        best.map(|(_, lambda, level)| (Energy::new(lambda), level))
    }
}

struct Search<'a, 'b> {
    now: Time,
    platform: &'a Platform,
    jobs: &'a [JobView],
    cand: &'a [Vec<Candidate>],
    order: &'a [usize],
    suffix_min: &'a [Energy],
    lookahead: &'a Lookahead,
    price: &'a mut GpuPrice,
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
    /// Whether a lower bound cuts against the incumbent: strictly above an
    /// injected one (its cost is feasible but unproven, and cutting an
    /// equally cheap subtree could hide a leaf the cold search would have
    /// returned), at or above a search-discovered one.
    fn cuts(&self, bound: Energy) -> bool {
        match self.best.as_ref() {
            None => false,
            Some((b, _)) if self.injected => bound > *b,
            Some((b, _)) => bound >= *b,
        }
    }

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
        // The capacity bound pays for its build only on searches that go
        // on past their first dive with an incumbent to cut against.
        if !self.price.built && self.best.is_some() && self.nodes > self.order.len() as u64 {
            self.price.build(
                self.now,
                self.platform,
                self.jobs,
                self.cand,
                self.order,
                &self.chosen,
                pos,
            );
        }
        let j = self.order[pos];
        for ci in 0..self.cand[j].len() {
            let c = self.cand[j][ci];
            // Candidates are energy-sorted: once the bound fails it fails
            // for every later candidate of this job.
            if self.cuts(cost + c.energy + self.suffix_min[pos + 1]) {
                break;
            }
            // The priced bound is not monotone along the row: a later
            // candidate may carry no charge.
            let mut charge = Energy::ZERO;
            if self.price.active {
                charge = self.price.charge(j, &c);
                if self.cuts(self.price.bound(cost, c.energy, pos, charge)) {
                    continue;
                }
            }
            self.nodes += 1;
            if self.plan.try_place_or_defer(&self.jobs[j], &c) {
                self.chosen[j] = Some(c);
                if !self.blocked(pos + 1) {
                    if self.price.active {
                        self.price.descend(pos, charge);
                    }
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
        // Every rung's rows are a prefix of `cand_all`, so the capacity
        // bound's per-job lines are taken once per decide.
        pool.price.lines.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Placement;
    use proptest::prelude::*;
    use rtrm_platform::{ResourceKind, TaskCatalog, TaskType, TaskTypeId};
    use rtrm_sched::JobKey;

    /// Deadline offsets around the 1/8 lattice: on it, within epsilon
    /// before it (a queue that fills `d − now` still meets it), a full
    /// epsilon before it (a queue that fills `d − now + ε`, the capacity
    /// itself, meets it or not by a rounding), and just after it.
    const DEADLINE_EPS: [f64; 4] = [
        0.0,
        -0.75 * TIME_EPSILON,
        -TIME_EPSILON,
        0.25 * TIME_EPSILON,
    ];

    fn lattice(steps: std::ops::Range<u32>) -> impl Strategy<Value = f64> {
        steps.prop_map(|i| f64::from(i) * 0.125)
    }

    /// One job: its CPU `(exec, energy)` (`None`: GPU only), its GPU
    /// `(exec, energy)`, and its deadline offset from its release with an
    /// epsilon index.
    type JobSpec = (Option<(f64, f64)>, (f64, f64), f64, usize);

    /// GPU lines mostly cheaper than CPU ones, and relative deadlines a
    /// lattice slack after the GPU exec, so the GPU is contended.
    fn job_spec() -> impl Strategy<Value = JobSpec> {
        (
            (0u8..5, lattice(4..33), lattice(8..49)),
            (lattice(1..17), lattice(1..17)),
            lattice(0..25),
            0usize..DEADLINE_EPS.len(),
        )
            .prop_map(|((kind, exec, energy), gpu, slack, eps)| {
                // One job in five runs on the GPU only.
                (
                    (kind > 0).then_some((exec, energy)),
                    gpu,
                    gpu.0 + slack,
                    eps,
                )
            })
    }

    /// Jobs contending for one GPU: the first may be running there
    /// (`fraction` eighths of its work left), and a phantom may be released
    /// on the 1/8 lattice after `now`.
    #[derive(Debug, Clone)]
    struct PriceCase {
        cpus: usize,
        now: f64,
        jobs: Vec<JobSpec>,
        running: Option<u32>,
        phantom: Option<(f64, JobSpec)>,
        keys: Vec<u32>,
    }

    fn price_case() -> impl Strategy<Value = PriceCase> {
        (
            1usize..3,
            lattice(0..17),
            prop::collection::vec(job_spec(), 2..6),
            prop::option::of(1u32..9),
            prop::option::of((lattice(1..25), job_spec())),
            prop::collection::vec(0u32..1000, 6),
        )
            .prop_map(|(cpus, now, jobs, running, phantom, keys)| PriceCase {
                cpus,
                now,
                jobs,
                running,
                phantom,
                keys,
            })
    }

    /// The case's platform (its CPUs, then one GPU), one task type per job,
    /// and the jobs, phantom last.
    fn world(case: &PriceCase) -> (Platform, TaskCatalog, Vec<JobView>) {
        let mut b = Platform::builder();
        b.cpus(case.cpus).gpu("g");
        let platform = b.build();
        let gpu = platform.ids_of_kind(ResourceKind::Gpu).next().unwrap();
        let specs: Vec<(f64, JobSpec)> = case
            .jobs
            .iter()
            .map(|&spec| (case.now, spec))
            .chain(
                case.phantom
                    .map(|(release, spec)| (case.now + release, spec)),
            )
            .collect();
        let catalog = TaskCatalog::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(_, (cpu, (gpu_exec, gpu_energy), _, _)))| {
                    let mut ty = TaskType::builder(i, &platform);
                    ty.profile(gpu, Time::new(gpu_exec), Energy::new(gpu_energy))
                        .uniform_migration(Time::new(0.125), Energy::new(0.125));
                    if let Some((exec, energy)) = cpu {
                        for id in platform.ids_of_kind(ResourceKind::Cpu) {
                            ty.profile(id, Time::new(exec), Energy::new(energy));
                        }
                    }
                    ty.build()
                })
                .collect(),
        );
        let jobs = specs
            .iter()
            .enumerate()
            .map(|(i, &(release, (_, _, deadline, eps)))| {
                let mut job = JobView::fresh(
                    JobKey(i as u64),
                    TaskTypeId::new(i),
                    Time::new(release),
                    Time::new(release + deadline + DEADLINE_EPS[eps]),
                );
                if i == 0 {
                    job.placement = case
                        .running
                        .map(|left| Placement::new(gpu, f64::from(left) / 8.0, true));
                }
                job
            })
            .collect();
        (platform, catalog, jobs)
    }

    /// An exhaustive walk of one rung's tree in the search's branch order.
    struct Walk<'a> {
        activation: &'a Activation<'a>,
        jobs: &'a [JobView],
        cand: &'a [Vec<Candidate>],
        order: &'a [usize],
        price: GpuPrice,
        chosen: Vec<Option<Candidate>>,
        pool: TimelinePool,
    }

    impl Walk<'_> {
        /// The cheapest feasible leaf below depth `pos` after a path of
        /// energy `cost` (the search's own left fold), asserting at every
        /// candidate that the priced bound stays at or below the cheapest
        /// feasible leaf under it.
        fn below(&mut self, pos: usize, cost: Energy) -> Result<Option<Energy>, TestCaseError> {
            if pos == self.order.len() {
                let mut plan = PlanBuilder::new(self.activation, &mut self.pool);
                for (job, c) in self.jobs.iter().zip(&self.chosen) {
                    plan.place(job, &c.unwrap());
                }
                return Ok(plan.all_schedulable().then_some(cost));
            }
            // A build here (the search's lazy build) recomputes the path's
            // charges; they match what the descents recorded.
            let descended = self.price.charged[pos];
            self.price.build(
                self.activation.now,
                self.activation.platform,
                self.jobs,
                self.cand,
                self.order,
                &self.chosen,
                pos,
            );
            prop_assert_eq!(self.price.charged[pos], descended);
            let j = self.order[pos];
            let mut best: Option<Energy> = None;
            for ci in 0..self.cand[j].len() {
                let c = self.cand[j][ci];
                let charge = self.price.charge(j, &c);
                let bound = self.price.bound(cost, c.energy, pos, charge);
                self.chosen[j] = Some(c);
                self.price.descend(pos, charge);
                let leaf = self.below(pos + 1, cost + c.energy)?;
                self.chosen[j] = None;
                if let Some(leaf) = leaf {
                    prop_assert!(
                        bound <= leaf,
                        "priced bound {:?} above the subtree's optimum {:?} at depth {} \
                         (λ {:?}, capacity {:?})",
                        bound,
                        leaf,
                        pos,
                        self.price.lambda,
                        self.price.capacity
                    );
                    best = Some(best.map_or(leaf, |b| b.min(leaf)));
                }
            }
            Ok(best)
        }
    }

    /// Walks `jobs` exhaustively under the bound built at the root with
    /// the branch order `keys`. When the bound prices, returns the optimum
    /// and the root bound (no path, no charge).
    fn walk_case(
        activation: &Activation<'_>,
        jobs: &[JobView],
        keys: &[u32],
    ) -> Result<Option<(Option<Energy>, Energy)>, TestCaseError> {
        let cand: Vec<Vec<Candidate>> = jobs
            .iter()
            .map(|job| {
                let mut row: Vec<Candidate> =
                    candidates(job, activation.platform, activation.catalog, true)
                        .into_iter()
                        .filter(|c| c.exec <= job.time_left(activation.now))
                        .collect();
                row.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
                row
            })
            .collect();
        if cand.iter().any(Vec::is_empty) {
            return Ok(None);
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&j| (keys[j % keys.len()], j));
        let mut walk = Walk {
            activation,
            jobs,
            cand: &cand,
            order: &order,
            price: GpuPrice::default(),
            chosen: vec![None; jobs.len()],
            pool: TimelinePool::new(),
        };
        walk.price.build(
            activation.now,
            activation.platform,
            jobs,
            &cand,
            &order,
            &walk.chosen,
            0,
        );
        if !walk.price.active {
            return Ok(None);
        }
        let root = walk.price.suffix[0] - walk.price.capacity - walk.price.margin;
        Ok(Some((walk.below(0, Energy::ZERO)?, root)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The capacity bound never exceeds the cheapest feasible leaf below
        /// any node: on 2–6 jobs contending for one GPU, some GPU-only, the
        /// first possibly running there (pinned), a phantom released on the
        /// 1/8 lattice, and deadlines within epsilon of lattice points.
        #[test]
        fn gpu_price_bound_is_sound(case in price_case()) {
            let (platform, catalog, jobs) = world(&case);
            let n_real = case.jobs.len();
            let activation = Activation {
                now: Time::new(case.now),
                platform: &platform,
                catalog: &catalog,
                active: &jobs[..n_real - 1],
                arriving: jobs[n_real - 1],
                predicted: &jobs[n_real..],
            };
            walk_case(&activation, &jobs, &case.keys)?;
        }
    }

    /// Three jobs due by `2 − 0.75ε` that each save 2 on the GPU, which
    /// fits two of them (the second finishes at 2, within epsilon): the
    /// bound prices at 2 per unit of GPU time and reaches the optimum, 5,
    /// to within `2ε`.
    #[test]
    fn gpu_price_reaches_the_optimum_on_a_tight_case() {
        let case = PriceCase {
            cpus: 1,
            now: 0.0,
            jobs: vec![(Some((1.875, 3.0)), (1.0, 1.0), 2.0, 1); 3],
            running: None,
            phantom: None,
            keys: vec![0, 1, 2],
        };
        let (platform, catalog, jobs) = world(&case);
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &jobs[..2],
            arriving: jobs[2],
            predicted: &[],
        };
        let (optimum, root) = walk_case(&activation, &jobs, &case.keys)
            .unwrap()
            .expect("the bound prices");
        let five = Energy::new(5.0);
        assert_eq!(optimum, Some(five));
        assert!(root <= five && five - root < Energy::new(2.0 * TIME_EPSILON));
    }
}
