//! The paper's MILP formulation (Sec 4.2), encoded through the `rtrm-milp`
//! solver.
//!
//! Once a mapping is fixed, the schedule on every resource is EDF-determined
//! (Sec 4.1), so the formulation is over binary placement variables plus
//! auxiliary disjunction binaries:
//!
//! * **(1)** every task takes exactly one placement;
//! * **(2)** only placements with `cpm_{j,i} ≤ t_left_j` exist (filtered out
//!   of the variable set);
//! * **(3)** per resource, deadline-ordered prefix sums of the chosen
//!   execution demands respect each task's `t_left` (big-M–guarded by the
//!   task's own placement variable — the paper writes the constraint
//!   unconditionally, which over-constrains; the big-M guard is the intended
//!   reading);
//! * **(4)–(7)** the predicted task `τ_p` either waits for the earlier-
//!   deadline work to finish or preempts later-deadline work on a CPU; the
//!   wait-vs-preempt disjunction and the per-task "finished before `s_p`"
//!   disjunctions are big-M encodings. Instead of the paper's explicit chunk
//!   variables (8)–(14) we encode the EDF fact that a preempted task's
//!   completion is delayed by exactly `cp_p` — equivalent for a single
//!   future release and far fewer variables;
//! * on a GPU the predicted task never preempts (Sec 4.2): it is planned
//!   after all work mapped there, the literal reading of (4)/(5).
//!
//! A task already running on a non-preemptable resource contributes its
//! "stay" placement at the head of that resource's order (it physically
//! occupies it).
//!
//! Divergence from the timeline-exact [`ExactRm`](crate::ExactRm), by
//! design: (a) a delayed release of the *arriving* task (prediction
//! overhead, Sec 5.5) is modelled by its shrunken `t_left` only, and (b) the
//! GPU treatment of the predicted task is the paper's conservative
//! last-position rule rather than non-preemptive EDF insertion. Without a
//! predicted task and without overhead the two optimizers agree exactly
//! (asserted by cross-validation tests).

use rtrm_milp::{Model, Sense, SolveError, SolveOptions, Termination, VarId};
use rtrm_platform::{Energy, ResourceKind, Time};

use crate::activation::{Activation, Decision, PlanBuilder, ResourceManager, TimelinePool};
use crate::cost::{candidates, Candidate};
use crate::driver::{decide_with_fallback_tracked, Attempt, Plan};
use crate::heuristic::HeuristicRm;
use crate::view::JobView;

/// Resource manager that solves the paper's Sec 4.2 MILP with the bundled
/// simplex/branch & bound solver.
#[derive(Debug, Clone)]
pub struct MilpRm {
    /// Solver limits per activation. `options.presolve` also gates the
    /// encoding-level dominance drop. Every rung's solve starts cold; the
    /// heuristic floor runs the pruned heuristic in the decide's
    /// [`TimelinePool`].
    pub options: SolveOptions,
    /// Offer "abort and re-queue on the same GPU" placements (see
    /// [`candidates`](crate::candidates)).
    pub gpu_restart_in_place: bool,
}

impl Default for MilpRm {
    fn default() -> Self {
        MilpRm {
            options: SolveOptions::default(),
            gpu_restart_in_place: true,
        }
    }
}

/// Dominance presolve on the MILP's candidate rows: drops every candidate
/// `B` for which some `A` of the same job on the same (resource, pinned)
/// group has strictly smaller energy and no larger execution time. Any
/// assignment using `B` swaps to `A`, stays feasible in every row of the
/// encoding (the swap only shrinks the guarded prefix sums — `A` and `B`
/// share the job, hence the deadline, hence their EDF slot), and strictly
/// improves the objective, so `B` appears in no *integer* optimum and in no
/// equal-cost integer optimum either.
///
/// The swap argument covers integral solutions only: the LP **relaxation**
/// can place fractional mass on a dominated column (its larger exec can
/// help satisfy the big-M `≥` rows), so removing the column can change
/// relaxation optima and with them the branch & bound path — and among
/// equal-cost integer optima (common on symmetric platforms) a different
/// path can in principle surface a different assignment. Unlike
/// [`ExactRm`](crate::ExactRm), which keys its branch order on the
/// pre-drop rows, `MilpRm` has no structural tie-break invariance here:
/// that presolved and unpresolved *decisions* agree is validated by the
/// sampled `presolve_differential.rs` proptest, not proven.
///
/// Mirrors `exact.rs`'s `drop_dominated_rows`, which requires energy-sorted
/// rows; the MILP rows keep emission order (it is the variable order), so
/// this judges a sorted index view and drops in place, preserving the
/// survivors' original order.
fn drop_dominated_unsorted(rows: &mut [Vec<Candidate>], num_resources: usize) {
    let mut frontier: Vec<Option<Time>> = vec![None; num_resources * 2];
    let mut idx: Vec<usize> = Vec::new();
    let mut dropped: Vec<bool> = Vec::new();
    for row in rows.iter_mut() {
        frontier.iter_mut().for_each(|slot| *slot = None);
        idx.clear();
        idx.extend(0..row.len());
        idx.sort_by(|&a, &b| row[a].energy.cmp(&row[b].energy));
        dropped.clear();
        dropped.resize(row.len(), false);
        let mut any = false;
        // Runs of equal energy are judged against the frontier before being
        // folded into it, keeping the energy comparison strict.
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j < idx.len() && row[idx[j]].energy == row[idx[i]].energy {
                j += 1;
            }
            for &k in &idx[i..j] {
                let slot = row[k].resource.index() * 2 + usize::from(row[k].pinned);
                if frontier[slot].is_some_and(|exec| exec <= row[k].exec) {
                    dropped[k] = true;
                    any = true;
                }
            }
            for &k in &idx[i..j] {
                let slot = row[k].resource.index() * 2 + usize::from(row[k].pinned);
                let exec = row[k].exec;
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

impl MilpRm {
    /// Creates the MILP-backed manager with default solver limits.
    #[must_use]
    pub fn new() -> Self {
        MilpRm::default()
    }

    /// Creates a manager whose solver runs anytime under `max_wall_clock_secs`
    /// of wall-clock budget *per fallback rung*: on expiry the best incumbent
    /// is used, and when no incumbent exists the activation degrades down the
    /// ladder (k phantoms, k−1, …, none) to the paper's heuristic as a floor —
    /// an arriving task is never dropped because the solver ran long.
    #[must_use]
    pub fn with_wall_clock(max_wall_clock_secs: f64) -> Self {
        MilpRm {
            options: SolveOptions::with_wall_clock(max_wall_clock_secs),
            ..MilpRm::default()
        }
    }

    /// Candidate variables per job (constraint (2) filters infeasible
    /// placements away). Emission order is preserved: it is the MILP's
    /// variable order, which tie-broken optima depend on.
    fn collect(&self, activation: &Activation<'_>, j: &JobView) -> Vec<Candidate> {
        let tleft = j.time_left(activation.now);
        candidates(
            j,
            activation.platform,
            activation.catalog,
            self.gpu_restart_in_place,
        )
        .into_iter()
        .filter(|c| c.exec <= tleft)
        .collect()
    }

    /// One rung of the fallback ladder. The candidate rows are built once
    /// per decide and shared across all rungs (the deadline filter depends
    /// on the activation, not the rung): previously `candidates()` was
    /// recomputed from scratch for every rung even though every rung plans
    /// the same real jobs. The reservation gates are replayed in `pool`.
    fn solve(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        real_jobs: &[JobView],
        real_cands: &[Vec<Candidate>],
        pred_cands: &[Candidate],
        pool: &mut TimelinePool,
    ) -> Attempt {
        // The paper's formulation models a single predicted task; with a
        // longer lookahead this encoding honours the nearest phantom only
        // (documented divergence — use ExactRm for full multi-step plans).
        let predicted = if num_phantoms > 0 {
            activation.predicted.first()
        } else {
            None
        };

        let now = activation.now;
        let tleft = |j: &JobView| j.time_left(now);

        // On the no-phantom rung the predicted row must not exist at all —
        // it would otherwise leak into the big-M magnitude below.
        let pred_cands: &[Candidate] = if predicted.is_some() { pred_cands } else { &[] };

        if real_cands.iter().any(Vec::is_empty) {
            return Attempt::default();
        }
        if predicted.is_some() && pred_cands.is_empty() {
            return Attempt::default();
        }

        let mut model = Model::new(Sense::Minimize);
        let real_vars: Vec<Vec<VarId>> = real_cands
            .iter()
            .map(|cs| cs.iter().map(|c| model.binary(c.energy.value())).collect())
            .collect();
        let pred_vars: Vec<VarId> = pred_cands
            .iter()
            .map(|c| model.binary(c.energy.value()))
            .collect();

        // (1): each task takes exactly one placement.
        for vars in &real_vars {
            let terms: Vec<_> = vars.iter().map(|v| (*v, 1.0)).collect();
            model.add_eq(&terms, 1.0);
        }
        if !pred_vars.is_empty() {
            let terms: Vec<_> = pred_vars.iter().map(|v| (*v, 1.0)).collect();
            model.add_eq(&terms, 1.0);
        }

        // Big-M: larger than any reachable time quantity in the plan. The
        // predicted-task disjunctions below are expressed in activation-
        // relative time (Δ = s_p − t and t_left_p = d_p − t), so the horizon
        // must be the activation-relative window `d_j − t` — NOT the
        // release-relative `time_left` used for candidate filtering, which
        // for a far-future phantom can be much smaller than Δ and would make
        // the z-disjunction infeasible for both branch values.
        let big_m = {
            let work: f64 = real_cands
                .iter()
                .flatten()
                .chain(pred_cands.iter())
                .map(|c| c.exec.value())
                .sum();
            let horizon: f64 = real_jobs
                .iter()
                .chain(predicted)
                .map(|j| (j.deadline - now).value().max(0.0))
                .fold(0.0, f64::max);
            2.0 * (work + horizon) + 1.0
        };

        // Entries on one resource: (job idx, deadline, exec, var, pinned).
        struct Entry {
            job: usize,
            deadline: Time,
            exec: f64,
            var: VarId,
            pinned: bool,
        }

        // Group every candidate by resource in ONE pass over the rows.
        // Scanning job-major preserves the (job, candidate) order inside
        // each group that the old per-resource rescan produced, so the
        // emitted model is identical; the rescan was O(resources ×
        // candidates) and dominated encode time at hundreds of resources.
        let mut groups: Vec<Vec<Entry>> =
            (0..activation.platform.len()).map(|_| Vec::new()).collect();
        for (j, (cs, vars)) in real_cands.iter().zip(&real_vars).enumerate() {
            for (c, v) in cs.iter().zip(vars) {
                groups[c.resource.index()].push(Entry {
                    job: j,
                    deadline: real_jobs[j].deadline,
                    exec: c.exec.value(),
                    var: *v,
                    pinned: c.pinned,
                });
            }
        }

        // Per-resource structures. A resource with no candidate entries and
        // no predicted placement emits no rows at all (its EDF block is
        // empty), which the loops below realise structurally.
        for resource in activation.platform.ids() {
            // Sorted pinned-first then by absolute deadline, the EDF
            // dispatch order of Sec 4.1.
            let mut entries = std::mem::take(&mut groups[resource.index()]);
            entries.sort_by(|a, b| {
                b.pinned
                    .cmp(&a.pinned)
                    .then(a.deadline.cmp(&b.deadline))
                    .then(a.job.cmp(&b.job))
            });

            // (3): prefix-sum deadline constraints, guarded by the entry's
            // own placement variable.
            for (rank, e) in entries.iter().enumerate() {
                let mut terms: Vec<(VarId, f64)> =
                    entries[..=rank].iter().map(|p| (p.var, p.exec)).collect();
                let t_left_j = tleft(&real_jobs[e.job]).value();
                terms.push((e.var, big_m));
                model.add_le(&terms, t_left_j + big_m);
            }

            // Predicted-task interference on this resource.
            let Some(p) = predicted else { continue };
            let Some((p_cand, p_var)) = pred_cands
                .iter()
                .zip(&pred_vars)
                .find(|(c, _)| c.resource == resource)
            else {
                continue;
            };
            let cp_p = p_cand.exec.value();
            // The paper's t_left_p = s_p + d_p − t is measured from the
            // activation instant, unlike the release-relative bound used for
            // candidate filtering.
            let tleft_p = (p.deadline - now).value();
            let delta = (p.release - now).value().max(0.0); // s_p − t
            let kind = activation.platform.resource(resource).kind();

            match kind {
                ResourceKind::Gpu => {
                    // No preemption on a GPU: τ_p starts at max(s_p, q_i)
                    // where q_i is when *all* work mapped here finishes —
                    // the literal reading of (4)/(5).
                    let mut terms: Vec<(VarId, f64)> =
                        entries.iter().map(|e| (e.var, e.exec)).collect();
                    terms.push((*p_var, big_m));
                    model.add_le(&terms, tleft_p - cp_p + big_m);
                    if delta + cp_p > tleft_p {
                        // (5) violated outright: τ_p cannot go here.
                        model.add_le(&[(*p_var, 1.0)], 0.0);
                    }
                }
                ResourceKind::Cpu => {
                    // Split by the predicted deadline: SL1 (≤ d_p) is never
                    // preempted; SL2 (> d_p) may be delayed by cp_p.
                    let dp = p.deadline;
                    let sl1: Vec<&Entry> = entries.iter().filter(|e| e.deadline <= dp).collect();
                    let sl2: Vec<&Entry> = entries.iter().filter(|e| e.deadline > dp).collect();

                    // q = time after `now` when SL1 work on i completes.
                    let q_terms: Vec<(VarId, f64)> = sl1.iter().map(|e| (e.var, e.exec)).collect();

                    // z = 1 ⇔ q ≥ Δ (τ_p waits and starts at q).
                    let z = model.binary(0.0);
                    // q ≥ Δ − M(1−z)  ⇔  −q − Mz ≤ −Δ − M·0 ... encode:
                    let mut ge_terms: Vec<(VarId, f64)> = q_terms.clone();
                    ge_terms.push((z, -big_m));
                    model.add_ge(&ge_terms, delta - big_m);
                    // q ≤ Δ + M·z
                    let mut le_terms: Vec<(VarId, f64)> = q_terms.clone();
                    le_terms.push((z, -big_m));
                    model.add_le(&le_terms, delta);

                    // (4): wait case (z = 1): q + cp_p ≤ t_left_p.
                    let mut t4: Vec<(VarId, f64)> = q_terms.clone();
                    t4.push((*p_var, big_m));
                    t4.push((z, big_m));
                    model.add_le(&t4, tleft_p - cp_p + 2.0 * big_m);
                    // (5): arrival bound (exact when z = 0, implied when
                    // z = 1): Δ + cp_p ≤ t_left_p.
                    if delta + cp_p > tleft_p {
                        model.add_le(&[(*p_var, 1.0)], 0.0);
                    }

                    // SL2 completion constraints.
                    for (rank2, e) in sl2.iter().enumerate() {
                        let t_left_j = tleft(&real_jobs[e.job]).value();
                        // pf_e = q + Σ_{SL2 prefix} x·exec  (time after now).
                        let mut pf: Vec<(VarId, f64)> = q_terms.clone();
                        pf.extend(sl2[..=rank2].iter().map(|p2| (p2.var, p2.exec)));

                        // Wait case (z = 1): the whole SL2 tail is pushed by
                        // cp_p when τ_p is here (eq. (7)).
                        let mut t7 = pf.clone();
                        t7.push((*p_var, cp_p + big_m));
                        t7.push((e.var, big_m));
                        t7.push((z, big_m));
                        model.add_le(&t7, t_left_j + 3.0 * big_m);

                        // Preempt case (z = 0): either e finishes before s_p
                        // (w = 1, pf ≤ Δ) or it is delayed by cp_p (w = 0).
                        let w = model.binary(0.0);
                        let mut before: Vec<(VarId, f64)> = pf.clone();
                        before.push((w, big_m));
                        before.push((*p_var, big_m));
                        model.add_le(&before, delta + 2.0 * big_m);
                        let mut delayed = pf.clone();
                        delayed.push((*p_var, cp_p + big_m));
                        delayed.push((e.var, big_m));
                        delayed.push((w, -big_m));
                        delayed.push((z, -big_m));
                        model.add_le(&delayed, t_left_j + 2.0 * big_m);
                    }
                }
            }
        }

        let solution = match model.solve_with(&self.options) {
            Ok(solution) => solution,
            // Wall-clock expiry with no incumbent: this rung failed *because
            // of time*, which the ladder must know to engage its floor.
            Err(SolveError::TimedOut) => {
                return Attempt {
                    plan: None,
                    timed_out: true,
                }
            }
            Err(_) => return Attempt::default(),
        };
        let timed_out = solution.termination() == Termination::TimedOut;

        let placements: Vec<_> = real_jobs
            .iter()
            .zip(real_cands.iter().zip(&real_vars))
            .map(|(job, (cs, vars))| {
                let (c, _) = cs
                    .iter()
                    .zip(vars)
                    .find(|(_, v)| solution.value(**v) > 0.5)
                    .expect("constraint (1) forces one placement");
                (job.key, *c)
            })
            .collect();
        let start_gates = match predicted {
            Some(p) => {
                let p_choice = pred_cands
                    .iter()
                    .zip(&pred_vars)
                    .find(|(_, v)| solution.value(**v) > 0.5)
                    .map(|(c, _)| *c)
                    .expect("constraint (1) forces one placement");
                let mut plan = PlanBuilder::new(activation, pool);
                for (job, c) in real_jobs.iter().zip(placements.iter().map(|(_, c)| c)) {
                    plan.place(job, c);
                }
                plan.place(p, &p_choice);
                plan.reservation_gates(&[p.key])
            }
            None => Vec::new(),
        };
        Attempt {
            plan: Some(Plan {
                placements,
                objective: Energy::new(solution.objective()),
                nodes: solution.nodes_explored(),
                start_gates,
            }),
            timed_out,
        }
    }
}

impl ResourceManager for MilpRm {
    fn name(&self) -> &str {
        "milp-encoded"
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        let mut pool = TimelinePool::new();
        self.decide_with_pool(activation, &mut pool)
    }

    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        // No oracle mode: the floor and the gate replays probe incrementally.
        pool.set_oracle(false);
        // Candidate rows are rung-independent (the deadline filter uses the
        // activation's `t_left`, not the rung), so build them once and share
        // them across the whole fallback ladder.
        let real_jobs: Vec<JobView> = activation.jobs_without_prediction().copied().collect();
        let mut real_cands: Vec<Vec<Candidate>> = real_jobs
            .iter()
            .map(|j| self.collect(activation, j))
            .collect();
        // Presolve: drop dominated placements before they become variables.
        // Real rows only — the predicted row's interference constraints bind
        // the *first* candidate per resource (the find-first in `solve`), so
        // dropping a predicted candidate could promote a previously slack
        // variable into the bound position and change the verdict.
        if self.options.presolve {
            drop_dominated_unsorted(&mut real_cands, activation.platform.len());
        }
        let pred_cands: Vec<Candidate> = activation
            .predicted
            .first()
            .map(|p| self.collect(activation, p))
            .unwrap_or_default();

        decide_with_fallback_tracked(
            activation,
            pool,
            |pool, act, k| self.solve(act, k, &real_jobs, &real_cands, &pred_cands, pool),
            // Heuristic floor: only consulted when every MILP rung failed and
            // at least one of those failures was a wall-clock expiry. It plans
            // as `HeuristicRm` decides, over the pool's table and index,
            // rebuilt here since nothing else in this manager reads them.
            |pool, act| {
                let mut table = pool.take_table();
                let index = pool.take_index();
                table.rebuild(act, true, false, index.as_ref());
                let plan = HeuristicRm::new().floor(act, &table, index.as_ref(), pool);
                pool.restore_table(table);
                pool.restore_index(index);
                plan
            },
        )
    }

    fn set_wall_clock(&mut self, budget: Option<f64>) {
        self.options.max_wall_clock_secs = budget.unwrap_or(f64::INFINITY);
    }
}
