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
//! with a future release is not monotone; on every rung the leaf verdict
//! is the timeline's release-merge walk, not an engine run.
//!
//! Blocking cut: on a rung whose job set holds exactly one future release
//! `F`, a per-depth [`Lookahead`] records what the still-unassigned jobs
//! can change on the non-preemptable queue holding `F`, and every
//! placement — on a CPU too, since it shrinks what they can change — reads
//! that queue ([`PlanBuilder::timeline`]) and asks two questions, each
//! answered for every leaf below:
//!
//! * *Blocking* ([`rtrm_sched::EdfTimeline::blocked_for_good`]): dense jobs
//!   never wait, so a job's start moves later only by still-unassigned
//!   work with an earlier-or-equal deadline; a blocker that starts before
//!   `F`'s release even after all of it (the headroom, keyed by deadline),
//!   and runs past `F`'s latest start, blocks every leaf below.
//! * *First dispatch* ([`rtrm_sched::EdfTimeline::first_dispatch_blocked`]):
//!   when `F` is not released by `now + B` (`B` the pinned job's exec),
//!   the GPU's first dispatch after the pinned job is a dense job — the
//!   queue's first dense row or an unassigned job due no later — so `F`
//!   starts no earlier than `now + B` plus the shorter of the two. The
//!   look-ahead keeps, per depth, the running minimum in deadline order of
//!   the unassigned jobs' shortest unpinned non-preemptable exec. The job
//!   running on `F`'s GPU is branched last (its stay and restart
//!   candidates make it the least constrained), so while it is unassigned
//!   `B` is not final: the cut fires only when the queue fails both with
//!   it elsewhere (today's `B`, its restarts in the minimum) and with it
//!   pinned first (`B` grown by its pinned exec, which also floors the
//!   demand scan). That pinned exec is read for `F`'s resource alone; the
//!   headroom's sum over every GPU would overstate it.
//!
//! The headroom's keying by deadline lets the first cut fire high in the
//! tree; the second needs only `F` and one dense job on the queue, and
//! proves most failing phantom rungs infeasible within a few levels of the
//! root. Both remove subtrees without a feasible leaf only, so an
//! unbudgeted search returns the same plan; a budgeted one reaches more
//! plans before its budget. Rungs with several future releases keep the
//! demand bound alone.
//!
//! Warm seeds: a rung's search starts cold and, the first time it has
//! spent more nodes than the rung has jobs, plans the regret heuristic's
//! plan once and injects it as an incumbent that only prunes
//! ([`ExactRm::warm_start`]). The seed scans the decide's one
//! [`CandidateTable`], the rows the search reads, and plans in the
//! [`TimelinePool`]'s second timeline set while the search holds the first.
//! The search's rows, branch keys, presolve scratch and per-rung buffers
//! are refilled in the pool's `ExactBuffers` on every decide.

use std::time::{Duration, Instant};

use rtrm_platform::{Energy, Platform, PlatformIndex, ResourceId, Time, TIME_EPSILON};

use crate::activation::{
    Activation, Decision, PlanBuilder, ResourceManager, TimelinePool, TimelineSet,
};
use crate::cost::{candidates, Candidate};
use crate::driver::{decide_with_fallback_tracked, Attempt, Plan};
use crate::heuristic::HeuristicRm;
use crate::prune::{CandidateTable, RowSink};
use crate::view::JobView;

/// Exact energy-optimal mapping via branch & bound (the paper's "MILP"
/// series, run without the hypothetical solver overhead).
#[derive(Debug, Clone)]
pub struct ExactRm {
    /// Maximum branch & bound nodes per activation. When exhausted, the best
    /// plan found so far (if any) is used — an "anytime" cut-off that keeps
    /// worst-case activations bounded. A rung whose injected seed (see
    /// [`warm_start`](ExactRm::warm_start)) was never replaced reruns cold
    /// on exhaustion, so the anytime result is then the cold search's (at
    /// up to twice the node spend, which the reported [`Decision::nodes`]
    /// includes). The default is high enough that the paper-scale
    /// experiments in this repository never hit it.
    pub node_budget: u64,
    /// Offer "abort and re-queue on the same GPU" (see
    /// [`candidates`](crate::candidates)). Enabled by default; Fig 1's
    /// scenario analysis requires it.
    pub gpu_restart_in_place: bool,
    /// Answer every exact feasibility probe with a from-scratch engine run
    /// instead of the incremental timeline (the demand bound on GPU queues
    /// with a future release reads the timeline in both modes).
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
    /// Seed each rung's branch & bound with the heuristic's plan as an
    /// incumbent, on demand (enabled by default). A rung's search starts
    /// cold; the first time it has spent more nodes than the rung has jobs
    /// (it outlived its first descent, the point at which the capacity
    /// bound is built too), it plans the seed once and injects it when it
    /// is cheaper than the incumbent so far. Searches that settle within
    /// their first descent, and rungs cut near the root, plan none.
    ///
    /// The injected incumbent prunes with the *exact* bound — no tolerance
    /// slack — and an equally good search-discovered leaf replaces it, so
    /// decisions are bit-identical to a cold search
    /// (`warmstart_differential.rs`); only the node count shrinks. If the
    /// seed survives un-replaced — a binding [`node_budget`] cut the search
    /// first, or float rounding of the strict bound cut the seed's own
    /// path — the rung reruns cold and returns the cold result: the seed
    /// never surfaces as the answer and admission never degrades below the
    /// cold baseline. Disable for the cold A/B baseline.
    ///
    /// The seed is the pruned heuristic's plan for the rung. It scans the
    /// decide's own [`CandidateTable`] — the search's rows — skipping each
    /// job's restarts in place and weighing penalties with the table's
    /// restart-free prefix maximum, so it equals the plan [`HeuristicRm`]'s
    /// own decide would make. It plans in the [`TimelinePool`]'s second
    /// timeline set, which the search's own builder leaves free, so its
    /// feasibility probes count in [`TimelinePool::engine_verdicts`] and
    /// the seeds in [`TimelinePool::seeds_planned`]. The heuristic floor
    /// scans the same table. Only the [`unpruned_candidates`] reference
    /// path seeds from the legacy unpruned heuristic on a fresh pool,
    /// through the same trigger.
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

    /// The pre-pruning rung solve: rebuilds, filters, and sorts every
    /// candidate list per rung, and seeds from the unpruned heuristic on a
    /// fresh pool. Kept verbatim as the differential/bench baseline; its
    /// seed is asked for on demand as the pruned path's is.
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
        let TimelinePool {
            plans,
            seeds_planned,
            exact,
            ..
        } = pool;
        // The rows are this rung's own, so are the capacity bound's lines.
        exact.rung.price.lines.clear();
        let oracle = self.oracle_feasibility;
        let mut seed = || {
            *seeds_planned += 1;
            let mut warm_pool = TimelinePool::new();
            warm_pool.set_oracle(oracle);
            HeuristicRm::new()
                .solve_unpruned_with_chosen(activation, num_phantoms, &mut warm_pool)
                .map(|(_, chosen)| chosen.into_iter().map(Some).collect())
        };
        self.branch_and_bound(
            activation,
            num_phantoms,
            n_real,
            &jobs,
            &cand,
            &keys,
            self.warm_start.then_some(&mut seed as &mut Seeder<'_>),
            plans,
            &mut exact.rung,
        )
    }

    /// The shared search: branching order, suffix minima, DFS, and plan
    /// extraction — identical for both candidate sources. `keys` carries the
    /// per-job (candidate count, energy spread) branching keys, measured on
    /// the pre-dominance rows so presolved and unpresolved runs agree.
    /// `seeder` plans the heuristic's job-indexed plan for this rung, the
    /// warm start's injected incumbent, when the search asks for it (`None`
    /// runs cold).
    #[allow(clippy::too_many_arguments)]
    fn branch_and_bound(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        n_real: usize,
        jobs: &[JobView],
        cand: &[Vec<Candidate>],
        keys: &[(usize, Energy)],
        seeder: Option<&mut Seeder<'_>>,
        plans: &mut TimelineSet,
        rung: &mut RungBuffers,
    ) -> Attempt {
        let RungBuffers {
            order,
            suffix_min,
            chosen,
            lookahead,
            price,
        } = rung;
        // Branching order, pseudocost-lite: most constrained task first
        // (fewest candidates), then largest energy spread (its assignment
        // moves the bound the most), then tightest deadline; the stable sort
        // pins remaining ties to job order so decisions stay deterministic.
        // `order[pos]` is the job index at depth pos.
        order.clear();
        order.extend(0..jobs.len());
        order.sort_by(|&a, &b| {
            keys[a]
                .0
                .cmp(&keys[b].0)
                .then(keys[b].1.cmp(&keys[a].1))
                .then(jobs[a].deadline.cmp(&jobs[b].deadline))
        });

        // Lower bound: cheapest candidate of every job still unassigned at
        // or below a depth.
        suffix_min.clear();
        suffix_min.resize(jobs.len() + 1, Energy::ZERO);
        for pos in (0..jobs.len()).rev() {
            suffix_min[pos] = suffix_min[pos + 1] + cand[order[pos]][0].energy;
        }

        // Blocking cut: the per-depth look-ahead (empty unless exactly one
        // job is released later).
        lookahead.rebuild(activation, jobs, cand, order);
        // Capacity bound: built lazily by the search, once per rung (a cold
        // rerun keeps what the warm run built).
        price.built = false;
        price.active = false;

        // The seed is asked for by the first run only: a cold rerun has none.
        let mut seeder = seeder;
        // Nodes spent by a warm run that fell through to the cold rerun,
        // carried into the reported count so the extra spend is visible.
        let mut rerun_nodes: u64 = 0;
        let (nodes, best, timed_out) = loop {
            chosen.clear();
            chosen.resize(jobs.len(), None);
            let mut search = Search {
                now: activation.now,
                platform: activation.platform,
                jobs,
                cand,
                order,
                suffix_min,
                lookahead,
                price: &mut *price,
                plan: PlanBuilder::in_set(activation, &mut *plans),
                chosen: &mut chosen[..],
                best: None,
                injected: false,
                seeder: seeder.take(),
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
        let Some((objective, chosen)) = best else {
            return Attempt {
                plan: None,
                timed_out,
            };
        };
        // Rebuild the winning plan to derive the reservation gates.
        let start_gates = if num_phantoms > 0 {
            let mut plan = PlanBuilder::in_set(activation, plans);
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

/// Plans the heuristic seed of the rung being searched, when the search
/// asks for it: the job-indexed chosen candidates, or `None` when the
/// heuristic cannot map the rung.
type Seeder<'s> = dyn FnMut() -> Option<Vec<Option<Candidate>>> + 's;

/// The exact search's buffers, recycled across decides by the
/// [`TimelinePool`]: the decide's candidate rows and branch keys, the
/// presolve's scratch, and one rung's search state.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactBuffers {
    /// Per job of the decide, its deadline-filtered, `(energy,
    /// resource)`-sorted and presolved row; rung `k` reads the prefix of
    /// `n_real + k`. Rows past the decide's jobs are left over, emptied on
    /// reuse.
    rows: Vec<Vec<Candidate>>,
    /// Per job of the decide, its branch keys, taken before the presolve.
    keys: Vec<(usize, Energy)>,
    presolve: Presolve,
    rung: RungBuffers,
}

impl ExactBuffers {
    /// Refills the rows and branch keys from the decide's `table`: every
    /// job's deadline-filtered candidates in the table's pre-sorted order
    /// (filter-after-stable-sort equals the legacy sort-after-filter). The
    /// deadline bound `t_left` does not depend on the fallback rung, so this
    /// runs *once per decide* and each rung slices a prefix.
    fn fill(
        &mut self,
        activation: &Activation<'_>,
        table: &CandidateTable,
        index: Option<&PlatformIndex>,
        presolve: bool,
    ) {
        let (jobs, access) = table.uncounted();
        if self.rows.len() < jobs.len() {
            self.rows.resize_with(jobs.len(), Vec::new);
        }
        self.keys.clear();
        for (j, row) in self.rows[..jobs.len()].iter_mut().enumerate() {
            let fill = Fill {
                presolve: presolve.then_some(&mut self.presolve),
                row,
                num_resources: activation.platform.len(),
            };
            let key = access.filtered(j, jobs[j].time_left(activation.now), index, fill);
            self.keys.push(key);
        }
        // Every rung's rows are a prefix of these, so the capacity bound's
        // per-job lines are taken once per decide.
        self.rung.price.lines.clear();
    }
}

/// One rung's search state: branch order, suffix minima, the path's
/// choices, and the cuts' and bounds' tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct RungBuffers {
    order: Vec<usize>,
    suffix_min: Vec<Energy>,
    chosen: Vec<Option<Candidate>>,
    lookahead: Lookahead,
    price: GpuPrice,
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
/// run is judged, keeping the energy comparison strict. The reference path's
/// form of [`Fill`], which applies the same rule while it copies.
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

/// The dominance presolve's scratch: it is applied to the decide's rows
/// while [`Fill`] copies them out of the candidate table, one pass per row.
#[derive(Debug, Clone, Default)]
struct Presolve {
    /// Per (resource, pinned) group: the row that last wrote the slot, and
    /// the least exec among the row's strictly cheaper candidates there.
    frontier: Vec<(u64, Time)>,
    /// Rows filled so far; a slot is empty unless stamped with this one.
    stamp: u64,
}

/// Refills one search row from the table (see [`RowSink`]): with
/// `presolve`, less the candidates [`drop_dominated_rows`] drops. Its
/// output is the row's branching keys, (candidate count, energy spread),
/// measured before the drop so the branching order does not depend on the
/// presolve.
struct Fill<'a> {
    presolve: Option<&'a mut Presolve>,
    row: &'a mut Vec<Candidate>,
    num_resources: usize,
}

impl RowSink for Fill<'_> {
    type Out = (usize, Energy);

    fn take(self, filtered: impl Iterator<Item = Candidate>) -> (usize, Energy) {
        let Fill {
            presolve,
            row,
            num_resources,
        } = self;
        row.clear();
        let Some(presolve) = presolve else {
            row.extend(filtered);
            return match (row.first(), row.last()) {
                (Some(first), Some(last)) => (row.len(), last.energy - first.energy),
                _ => (0, Energy::ZERO),
            };
        };
        let Presolve { frontier, stamp } = presolve;
        if frontier.len() < num_resources * 2 {
            frontier.resize(num_resources * 2, (0, Time::ZERO));
        }
        *stamp += 1;
        let slot = |c: &Candidate| c.resource.index() * 2 + usize::from(c.pinned);
        // `row[run..]`: the kept candidates of the current equal-energy run.
        // A dropped one has a frontier entry at or below its exec already,
        // so only kept ones can lower the frontier.
        let mut run = 0;
        let (mut count, mut first, mut last) = (0, Energy::ZERO, Energy::ZERO);
        for c in filtered {
            if count == 0 {
                first = c.energy;
            } else if c.energy != last {
                // Rows are energy-sorted: a new energy closes the run, whose
                // candidates join the frontier of strictly cheaper ones.
                for kept in &row[run..] {
                    let entry = &mut frontier[slot(kept)];
                    if entry.0 != *stamp || kept.exec < entry.1 {
                        *entry = (*stamp, kept.exec);
                    }
                }
                run = row.len();
            }
            count += 1;
            last = c.energy;
            let (written, exec) = frontier[slot(&c)];
            if written != *stamp || exec > c.exec {
                row.push(c);
            }
        }
        (count, last - first)
    }
}

/// The blocking cuts' look-ahead for a rung whose job set holds exactly one
/// future release `F`: per search depth, what the jobs still unassigned
/// there can change on the non-preemptable queue holding `F`.
///
/// * `headroom(d)`: the most work they can put ahead of a dense job with
///   deadline `d` (see
///   [`EdfTimeline::blocked_for_good`](rtrm_sched::EdfTimeline::blocked_for_good)).
///   A job adds its largest non-preemptable candidate exec: a pinned "stay"
///   candidate runs first, so it counts against every deadline; an unpinned
///   one joins the EDF order, so it counts only against deadlines at or
///   after its own.
/// * `shortest(d)`: the shortest unpinned non-preemptable exec among them
///   with a deadline no later than `d`, `F` excluded — the shortest job that
///   can take the first dispatch from a dense row due at `d` (see
///   [`EdfTimeline::first_dispatch_blocked`](rtrm_sched::EdfTimeline::first_dispatch_blocked)).
/// * `pin(r, depth)`: the pinned exec on resource `r` of the job running
///   there, while it is unassigned. It is keyed by resource because it
///   moves the start of `r`'s queue only: a sum over every GPU's running
///   job, sound as headroom, would overstate it.
///
/// The cuts are asked only below `F`'s placement, so the per-depth series
/// above it are left empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lookahead {
    /// Index of `F` in the rung's jobs; `None` disables the cuts.
    future: Option<usize>,
    /// Per depth: pinned exec of the unassigned jobs.
    base: Vec<Time>,
    /// Per depth `p`, `steps[offsets[p]..offsets[p + 1]]`: the unassigned
    /// jobs' unpinned exec beyond their pinned one, as `(deadline,
    /// cumulative exec)` in deadline order.
    offsets: Vec<usize>,
    steps: Vec<(Time, Time)>,
    /// Per depth `p`, `shortest[shortest_offsets[p]..shortest_offsets[p +
    /// 1]]`: the running minimum of the unassigned jobs' shortest unpinned
    /// exec in deadline order, as `(deadline, minimum)` at each drop.
    shortest_offsets: Vec<usize>,
    shortest: Vec<(Time, Time)>,
    /// The rung's pinned candidates: (resource, exec, search depth).
    pins: Vec<(ResourceId, Time, usize)>,
    /// Per job: search depth.
    pos: Vec<usize>,
    /// Job indices in deadline order.
    by_deadline: Vec<usize>,
    /// The jobs other than `F` with a non-preemptable candidate, in
    /// deadline order.
    looks: Vec<JobLook>,
    /// Per resource of the platform: non-preemptable.
    gpu: Vec<bool>,
}

/// One job's non-preemptable candidates, as the look-ahead reads them.
#[derive(Debug, Clone, Copy)]
struct JobLook {
    deadline: Time,
    /// Pinned exec (zero without a pinned candidate).
    pinned: Time,
    /// Largest unpinned exec beyond `pinned`.
    extra: Time,
    /// Shortest unpinned exec (infinite without one).
    shortest: Time,
    /// Search depth.
    pos: usize,
}

impl Lookahead {
    /// Rebuilds the table for one rung (`order[pos]` is the job at depth
    /// `pos`); leaves the cuts disabled unless exactly one job is released
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
        self.gpu.clear();
        self.gpu.extend(
            activation
                .platform
                .resources()
                .map(|r| !r.kind().is_preemptable()),
        );
        self.pos.clear();
        self.pos.resize(jobs.len(), 0);
        for (pos, &j) in order.iter().enumerate() {
            self.pos[j] = pos;
        }
        self.by_deadline.clear();
        self.by_deadline.extend(0..jobs.len());
        self.by_deadline.sort_unstable_by_key(|&j| jobs[j].deadline);
        // The cuts are asked only below `F`'s placement, where `F` is
        // assigned, and a job without a non-preemptable candidate adds
        // nothing.
        self.pins.clear();
        self.looks.clear();
        for &j in &self.by_deadline {
            if j == future {
                continue;
            }
            let (mut pinned, mut free, mut shortest) = (Time::ZERO, Time::ZERO, Time::infinity());
            for c in &cand[j] {
                if !self.gpu[c.resource.index()] {
                    continue;
                }
                if c.pinned {
                    pinned = pinned.max(c.exec);
                    self.pins.push((c.resource, c.exec, self.pos[j]));
                } else {
                    free = free.max(c.exec);
                    shortest = shortest.min(c.exec);
                }
            }
            if pinned > Time::ZERO || shortest.is_finite() {
                self.looks.push(JobLook {
                    deadline: jobs[j].deadline,
                    pinned,
                    extra: (free - pinned).max(Time::ZERO),
                    shortest,
                    pos: self.pos[j],
                });
            }
        }
        let asked = self.pos[future] + 1;
        self.base.clear();
        self.offsets.clear();
        self.steps.clear();
        self.shortest_offsets.clear();
        self.shortest.clear();
        for depth in 0..=jobs.len() {
            self.offsets.push(self.steps.len());
            self.shortest_offsets.push(self.shortest.len());
            let mut base = Time::ZERO;
            let mut cumulative = Time::ZERO;
            let mut least = Time::infinity();
            let looks = if depth < asked {
                &[][..]
            } else {
                &self.looks[..]
            };
            for look in looks {
                if look.pos < depth {
                    continue;
                }
                base += look.pinned;
                if look.extra > Time::ZERO {
                    cumulative += look.extra;
                    self.steps.push((look.deadline, cumulative));
                }
                if look.shortest < least {
                    least = look.shortest;
                    self.shortest.push((look.deadline, least));
                }
            }
            self.base.push(base);
        }
        self.offsets.push(self.steps.len());
        self.shortest_offsets.push(self.shortest.len());
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

    /// `shortest(d)` at search depth `depth`: infinite when no unassigned
    /// job due by `d` has an unpinned non-preemptable candidate.
    fn shortest(&self, depth: usize) -> impl FnOnce(Time) -> Time + '_ {
        let drops = &self.shortest[self.shortest_offsets[depth]..self.shortest_offsets[depth + 1]];
        move |deadline| {
            let reached = drops.partition_point(|&(due, _)| due <= deadline);
            reached
                .checked_sub(1)
                .map_or(Time::infinity(), |i| drops[i].1)
        }
    }

    /// The pinned exec on `resource` of a job unassigned at `depth`.
    fn pin(&self, resource: ResourceId, depth: usize) -> Option<Time> {
        self.pins
            .iter()
            .find(|&&(r, _, pos)| r == resource && pos >= depth)
            .map(|&(_, exec, _)| exec)
    }

    /// The blocking cuts, after placements that leave `depth` jobs assigned
    /// (`chosen` at `order[..depth]`): whether the non-preemptable queue
    /// holding `F` misses a deadline however the rest are placed, by a
    /// dense job that runs past `F`'s latest start or by a first dispatch
    /// that leaves `F` too little time. Any placement can trigger them —
    /// one on a CPU shrinks what the rest can change too.
    fn blocks(&self, plan: &PlanBuilder<'_>, chosen: &[Option<Candidate>], depth: usize) -> bool {
        let Some(future) = self.future else {
            return false;
        };
        let Some(placed) = chosen[future] else {
            return false;
        };
        let Some(timeline) = plan.timeline(placed.resource) else {
            return false;
        };
        timeline.first_dispatch_blocked(self.pin(placed.resource, depth), self.shortest(depth))
            || timeline.blocked_for_good(self.headroom(depth))
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

struct Search<'a, 'b, 's> {
    now: Time,
    platform: &'a Platform,
    jobs: &'a [JobView],
    cand: &'a [Vec<Candidate>],
    order: &'a [usize],
    suffix_min: &'a [Energy],
    lookahead: &'a Lookahead,
    price: &'a mut GpuPrice,
    plan: PlanBuilder<'b>,
    chosen: &'a mut [Option<Candidate>],
    best: Option<(Energy, Vec<Option<Candidate>>)>,
    /// `best` holds a warm-start incumbent the search did not discover
    /// itself. While set, pruning uses the strict bound (`>` instead of
    /// `>=`) so an equally good subtree is never cut, and an equally good
    /// leaf replaces the incumbent — after which the cold rules resume.
    injected: bool,
    /// The rung's heuristic seed, planned the first time the search
    /// outlives its first descent.
    seeder: Option<&'a mut Seeder<'s>>,
    nodes: u64,
    budget: u64,
    deadline: Option<Instant>,
    timed_out: bool,
}

impl Search<'_, '_, '_> {
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
                self.best = Some((cost, self.chosen.to_vec()));
                self.injected = false;
            }
            return;
        }
        // Past its first descent (more nodes than jobs), the search asks
        // for the rung's heuristic seed, once, and injects it when it beats
        // the incumbent so far. Its cost is re-summed in `order` position
        // order — the same left-to-right fold the DFS uses — so when the
        // search reaches the same leaf it computes the same float, and the
        // `<=` replacement fires. An equally cheap seed stays out: the
        // search-discovered incumbent is the one a cold search keeps.
        let outlived = self.nodes > self.order.len() as u64;
        if outlived {
            if let Some(seed) = self.seeder.take().and_then(|seeder| seeder()) {
                let cost = self.order.iter().fold(Energy::ZERO, |cost, &j| {
                    cost + seed[j].expect("the seed maps every job").energy
                });
                if self.best.as_ref().is_none_or(|(best, _)| cost < *best) {
                    self.best = Some((cost, seed));
                    self.injected = true;
                }
            }
        }
        // The capacity bound pays for its build only on searches that go
        // on past their first dive with an incumbent to cut against.
        if !self.price.built && self.best.is_some() && outlived {
            self.price.build(
                self.now,
                self.platform,
                self.jobs,
                self.cand,
                self.order,
                self.chosen,
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
                if !self.lookahead.blocks(&self.plan, self.chosen, pos + 1) {
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
        // The fallback ladder's rungs share the timelines through the pool.
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
        // One candidate table per decide, shared across all rungs: rung `k`
        // slices the prefix of `n_real + k` deadline-filtered rows, and the
        // seeds and the floor scan the same table, skipping its restarts
        // in place.
        let mut table = pool.take_table();
        let index = pool.take_index();
        table.rebuild(activation, true, self.gpu_restart_in_place, index.as_ref());
        pool.exact
            .fill(activation, &table, index.as_ref(), self.presolve);
        let n_real = activation.active.len() + 1;
        let decision = decide_with_fallback_tracked(
            activation,
            pool,
            |pool, act, k| {
                let n_jobs = n_real + k;
                let TimelinePool {
                    plans,
                    seeds,
                    seeds_planned,
                    exact,
                    ..
                } = pool;
                let cand = &exact.rows[..n_jobs];
                if cand.iter().any(Vec::is_empty) {
                    return Attempt::default();
                }
                // The seed plans in the pool's second timeline set: the
                // search holds the first when it asks.
                let mut seed = || {
                    *seeds_planned += 1;
                    heuristic.seed(act, k, &table, index.as_ref(), seeds)
                };
                self.branch_and_bound(
                    act,
                    k,
                    n_real,
                    &table.jobs()[..n_jobs],
                    cand,
                    &exact.keys[..n_jobs],
                    self.warm_start.then_some(&mut seed as &mut Seeder<'_>),
                    plans,
                    &mut exact.rung,
                )
            },
            |pool, act| heuristic.floor(act, &table, index.as_ref(), pool),
        );
        pool.restore_table(table);
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
    use rtrm_sched::{JobKey, PlannedJob};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `Fill` keeps exactly the candidates `drop_dominated_rows` keeps
        /// and returns `order_keys`' keys, on sorted rows with energy ties,
        /// shared resources, both pinned flags and equal execs.
        #[test]
        fn fill_matches_the_reference_presolve(
            rows in prop::collection::vec(
                prop::collection::vec((0usize..3, any::<bool>(), 0u32..5, 0u32..5), 0..10),
                1..5,
            ),
        ) {
            let rows: Vec<Vec<Candidate>> = rows
                .into_iter()
                .map(|row| {
                    let mut row: Vec<Candidate> = row
                        .into_iter()
                        .map(|(r, pinned, energy, exec)| Candidate {
                            resource: ResourceId::new(r),
                            exec: Time::new(f64::from(exec)),
                            energy: Energy::new(f64::from(energy)),
                            pinned,
                            restart: false,
                            speed: 1.0,
                        })
                        .collect();
                    row.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
                    row
                })
                .collect();
            let keys = order_keys(&rows);
            let mut presolved = rows.clone();
            drop_dominated_rows(&mut presolved, 3);
            let mut presolve = Presolve::default();
            for (j, source) in rows.iter().enumerate() {
                for (on, want) in [(true, &presolved[j]), (false, source)] {
                    let mut row = Vec::new();
                    let fill = Fill {
                        presolve: on.then_some(&mut presolve),
                        row: &mut row,
                        num_resources: 3,
                    };
                    prop_assert_eq!(fill.take(source.iter().copied()), keys[j]);
                    prop_assert_eq!(&row, want);
                }
            }
        }
    }

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

    /// Deadline offsets of the first-dispatch cases: on the 1/8 lattice, a
    /// full epsilon before it, and a quarter epsilon after it.
    const DISPATCH_EPS: [f64; 3] = [0.0, -TIME_EPSILON, 0.25 * TIME_EPSILON];

    /// One job of a first-dispatch case: its GPU exec (on every GPU), its
    /// CPU exec (`None`: GPU only), its deadline's slack past `now` plus
    /// the GPU exec, and an epsilon index.
    type DispatchJob = (f64, Option<f64>, f64, usize);

    fn dispatch_job() -> impl Strategy<Value = DispatchJob> {
        (
            lattice(1..33),
            prop::option::of(lattice(1..49)),
            lattice(0..33),
            0usize..DISPATCH_EPS.len(),
        )
    }

    /// A non-preemptable queue holding one future release `F` on the first
    /// of one or two GPUs, some of the rung placed and the rest not.
    #[derive(Debug, Clone)]
    struct DispatchCase {
        gpus: usize,
        now: f64,
        /// `F`: release after `now`, exec, deadline slack past release plus
        /// exec, epsilon index.
        future: (f64, f64, f64, usize),
        /// Dense jobs placed on `F`'s GPU.
        queued: Vec<DispatchJob>,
        /// The job running on `F`'s GPU, with eighths of its work left:
        /// placed there (pinned) or still unassigned.
        running: Option<(DispatchJob, u32, bool)>,
        /// An unassigned job running on the second GPU.
        elsewhere: Option<(DispatchJob, u32)>,
        /// Unassigned dense jobs, free to take any GPU or the CPU.
        rest: Vec<DispatchJob>,
        /// Push-order keys of the placed jobs.
        keys: Vec<u32>,
    }

    fn dispatch_case() -> impl Strategy<Value = DispatchCase> {
        (
            1usize..3,
            lattice(0..17),
            (
                lattice(1..25),
                lattice(1..17),
                lattice(0..17),
                0usize..DISPATCH_EPS.len(),
            ),
            prop::collection::vec(dispatch_job(), 0..4),
            prop::option::of((dispatch_job(), 1u32..9, any::<bool>())),
            prop::option::of((dispatch_job(), 1u32..9)),
            prop::collection::vec(dispatch_job(), 0..5),
            prop::collection::vec(0u32..1000, 5),
        )
            .prop_map(
                |(gpus, now, future, queued, running, elsewhere, rest, keys)| DispatchCase {
                    gpus,
                    now,
                    future,
                    queued,
                    running,
                    elsewhere: elsewhere.filter(|_| gpus == 2),
                    rest,
                    keys,
                },
            )
    }

    /// The case's platform (one CPU, then its GPUs), one task type per job,
    /// the jobs (`F` last), and the placed jobs in push order.
    fn dispatch_world(case: &DispatchCase) -> (Platform, TaskCatalog, Vec<JobView>, Vec<usize>) {
        let mut b = Platform::builder();
        b.cpus(1);
        for g in 0..case.gpus {
            b.gpu(format!("g{g}"));
        }
        let platform = b.build();
        let gpus: Vec<ResourceId> = platform.ids_of_kind(ResourceKind::Gpu).collect();
        let now = case.now;
        // (spec, running on this GPU with this many eighths left, placed).
        type Placed = (DispatchJob, Option<(ResourceId, u32)>, bool);
        let mut specs: Vec<Placed> = Vec::new();
        specs.extend(case.queued.iter().map(|&spec| (spec, None, true)));
        if let Some((spec, left, placed)) = case.running {
            specs.push((spec, Some((gpus[0], left)), placed));
        }
        if let Some((spec, left)) = case.elsewhere {
            specs.push((spec, Some((gpus[1], left)), false));
        }
        specs.extend(case.rest.iter().map(|&spec| (spec, None, false)));
        let (release, exec, slack, eps) = case.future;
        let future: DispatchJob = (exec, None, slack + release, eps);
        specs.push((future, None, true));
        let catalog = TaskCatalog::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &((gpu_exec, cpu_exec, _, _), _, _))| {
                    let mut ty = TaskType::builder(i, &platform);
                    ty.uniform_migration(Time::new(0.125), Energy::new(0.125));
                    for &g in &gpus {
                        ty.profile(g, Time::new(gpu_exec), Energy::new(1.0));
                    }
                    if let Some(exec) = cpu_exec {
                        for id in platform.ids_of_kind(ResourceKind::Cpu) {
                            ty.profile(id, Time::new(exec), Energy::new(2.0));
                        }
                    }
                    ty.build()
                })
                .collect(),
        );
        let n = specs.len();
        let jobs: Vec<JobView> = specs
            .iter()
            .enumerate()
            .map(|(i, &((gpu_exec, _, slack, eps), running, _))| {
                let release = if i + 1 == n { now + release } else { now };
                let mut job = JobView::fresh(
                    JobKey(i as u64),
                    TaskTypeId::new(i),
                    Time::new(release),
                    Time::new(now + gpu_exec + slack + DISPATCH_EPS[eps]),
                );
                job.placement =
                    running.map(|(gpu, left)| Placement::new(gpu, f64::from(left) / 8.0, true));
                job
            })
            .collect();
        let mut placed: Vec<usize> = (0..n).filter(|&i| specs[i].2).collect();
        placed.sort_by_key(|&i| (case.keys[i % case.keys.len()], i));
        (platform, catalog, jobs, placed)
    }

    /// Checks one case: the look-ahead's `shortest` and `pin` series match
    /// their definitions at every depth, and whenever the blocking cuts
    /// fire, no extension of `F`'s queue by the unassigned jobs' candidates
    /// is schedulable. Returns whether the first-dispatch test fired.
    fn check_dispatch(case: &DispatchCase) -> Result<bool, TestCaseError> {
        let (platform, catalog, jobs, placed) = dispatch_world(case);
        let n = jobs.len();
        let future = n - 1;
        if n < 2 {
            return Ok(false);
        }
        let now = Time::new(case.now);
        let activation = Activation {
            now,
            platform: &platform,
            catalog: &catalog,
            active: &jobs[..n - 2],
            arriving: jobs[n - 2],
            predicted: &jobs[n - 1..],
        };
        let cand: Vec<Vec<Candidate>> = jobs
            .iter()
            .map(|job| {
                let mut row: Vec<Candidate> = candidates(job, &platform, &catalog, true)
                    .into_iter()
                    .filter(|c| c.exec <= job.time_left(now))
                    .collect();
                row.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
                row
            })
            .collect();
        if cand.iter().any(Vec::is_empty) {
            return Ok(false);
        }
        let gpu0 = platform.ids_of_kind(ResourceKind::Gpu).next().unwrap();
        // Placed jobs take `F`'s GPU, the running one by its pinned
        // candidate, the others by their unpinned one.
        let mut chosen: Vec<Option<Candidate>> = vec![None; n];
        for &j in &placed {
            let pinned = jobs[j].placement.is_some();
            let Some(&c) = cand[j]
                .iter()
                .find(|c| c.resource == gpu0 && c.pinned == pinned)
            else {
                return Ok(false);
            };
            chosen[j] = Some(c);
        }
        let order: Vec<usize> = placed
            .iter()
            .copied()
            .chain((0..n).filter(|j| chosen[*j].is_none()))
            .collect();
        let depth = placed.len();

        let mut lookahead = Lookahead::default();
        lookahead.rebuild(&activation, &jobs, &cand, &order);
        prop_assert_eq!(lookahead.future, Some(future));
        let mut pos = vec![0; n];
        for (p, &j) in order.iter().enumerate() {
            pos[j] = p;
        }
        let gpu = |c: &Candidate| !platform.resource(c.resource).kind().is_preemptable();
        // The cuts are asked only once `F` is placed.
        for at in pos[future] + 1..=n {
            let shortest = |due: Time| {
                (0..n)
                    .filter(|&j| pos[j] >= at && j != future && jobs[j].deadline <= due)
                    .flat_map(|j| cand[j].iter().filter(|c| gpu(c) && !c.pinned))
                    .map(|c| c.exec)
                    .min()
                    .unwrap_or(Time::infinity())
            };
            for due in jobs
                .iter()
                .map(|job| job.deadline)
                .chain([Time::infinity()])
            {
                prop_assert_eq!(lookahead.shortest(at)(due), shortest(due));
            }
            for r in platform.ids_of_kind(ResourceKind::Gpu) {
                let pin = (0..n)
                    .filter(|&j| pos[j] >= at)
                    .flat_map(|j| cand[j].iter().filter(|c| c.pinned && c.resource == r))
                    .map(|c| c.exec)
                    .next();
                prop_assert_eq!(lookahead.pin(r, at), pin);
            }
        }

        let mut pool = TimelinePool::new();
        let mut plan = PlanBuilder::new(&activation, &mut pool);
        for &j in &placed {
            plan.place(&jobs[j], &chosen[j].unwrap());
        }
        let first_dispatch = plan.timeline(gpu0).is_some_and(|timeline| {
            timeline.first_dispatch_blocked(lookahead.pin(gpu0, depth), lookahead.shortest(depth))
        });
        if !lookahead.blocks(&plan, &chosen, depth) {
            return Ok(false);
        }
        let queue: Vec<PlannedJob> = placed
            .iter()
            .map(|&j| plan.planned_job(&jobs[j], &chosen[j].unwrap()))
            .collect();
        // Every extension of `F`'s queue: each unassigned job joins it by
        // one of its candidates there, or stays off it.
        let unassigned = &order[depth..];
        let choices: Vec<Vec<Option<PlannedJob>>> = unassigned
            .iter()
            .map(|&j| {
                let mut ways: Vec<Option<PlannedJob>> = cand[j]
                    .iter()
                    .filter(|c| c.resource == gpu0)
                    .map(|c| Some(plan.planned_job(&jobs[j], c)))
                    .collect();
                if cand[j].iter().any(|c| c.resource != gpu0) {
                    ways.push(None);
                }
                ways
            })
            .collect();
        let mut scratch = rtrm_sched::EdfScratch::new();
        let mut pick = vec![0usize; unassigned.len()];
        let mut extended = Vec::new();
        loop {
            extended.clear();
            extended.extend_from_slice(&queue);
            extended.extend(choices.iter().zip(&pick).filter_map(|(ways, &i)| ways[i]));
            prop_assert!(
                !rtrm_sched::is_schedulable_with(ResourceKind::Gpu, now, &extended, &mut scratch),
                "blocked (first dispatch {}), yet the engine accepts {:?}",
                first_dispatch,
                extended
            );
            let Some(u) = (0..pick.len()).find(|&u| pick[u] + 1 < choices[u].len()) else {
                break;
            };
            pick[u] += 1;
            pick[..u].iter_mut().for_each(|i| *i = 0);
        }
        Ok(first_dispatch)
    }

    /// The first-dispatch cut is sound on exact dyadic times straddling the
    /// epsilon boundaries: on a GPU queue holding one future release, a
    /// placed pinned job or an unassigned running job (pinned and restart
    /// candidates), a running job on a second GPU, and up to four
    /// unassigned jobs free to take a GPU or the CPU, a fired cut leaves no
    /// schedulable extension; its look-ahead series match their
    /// definitions. The test must fire on a share of the cases.
    #[test]
    fn first_dispatch_cut_is_sound() {
        let (mut seen, mut fired) = (0u32, 0u32);
        proptest::test_runner::execute(
            &ProptestConfig::with_cases(8192),
            "first_dispatch_cut_is_sound",
            &dispatch_case(),
            |case| {
                seen += 1;
                fired += u32::from(check_dispatch(&case)?);
                Ok(())
            },
        );
        assert!(
            fired * 20 >= seen,
            "the first-dispatch test fired on {fired} of {seen} cases"
        );
    }
}
