//! The paper's fast mapping heuristic (Algorithm 1, Sec 4.3).
//!
//! Resources are knapsacks whose capacity is the planning window K̄ in
//! available processing time; tasks are items weighing `cpm_{j,i}`. The
//! desirability of placing task j on resource i is
//! `f_{j,i} = ep_{j,i} + em_{j,k,i} + M·(cpm_{j,i} > t_left_j)`. Tasks are
//! mapped in order of maximum *regret* (difference between their best and
//! second-best desirability); each task goes to its most desirable resource
//! that passes the EDF `IsSchedulable` test, falling back to the next best
//! until none remain.

use rtrm_platform::{Energy, PlatformIndex, ResourceId, Time};

use crate::activation::{Activation, Decision, PlanBuilder, ResourceManager, TimelinePool};
use crate::cost::{candidates, Candidate};
use crate::driver::{decide_with_fallback, Plan};
use crate::prune::{CandidateTable, RowAccess};
use crate::view::JobView;

/// The penalty weight `M` that makes deadline-infeasible placements
/// undesirable (Algorithm 1, line 6), derived from the largest candidate
/// energy of this activation. `M = 2·max_energy + 1` guarantees that every
/// penalized desirability (`>= M`) strictly exceeds every unpenalized one
/// (`<= max_energy < M`), so regret comparisons across tasks are never
/// distorted — a fixed constant would invert them as soon as per-job
/// energies approached it.
///
/// This is the legacy per-rung computation; the pruned path reads the same
/// value from [`CandidateTable::penalty_weight`]'s prefix maxima (pinned
/// equal by `prefix_penalty_weight_matches_per_rung_flatten` below).
pub(crate) fn penalty_weight(cand: &[Vec<Candidate>]) -> f64 {
    let max_energy = cand
        .iter()
        .flatten()
        .map(|c| c.energy.value())
        .fold(0.0, f64::max);
    2.0 * max_energy + 1.0
}

/// One capacity-feasible hit of a ranked scan: the candidate's
/// desirability and what decides whether it still fits.
#[derive(Debug, Clone, Copy)]
struct Hit {
    des: f64,
    resource: ResourceId,
    exec: Time,
}

impl Hit {
    /// Whether the scan would still take this candidate: the negation of
    /// its `exec > capacity` skip test.
    fn fits(&self, capacity: &[Time]) -> bool {
        self.exec <= capacity[self.resource.index()]
    }
}

/// The first two capacity-feasible candidates of job `j`'s ranked scan
/// (the best and second-best desirability, Algorithm 1 lines 8–23), or
/// `None` when no candidate fits.
fn first_two_hits(
    rows: &mut RowAccess<'_>,
    j: usize,
    tleft: Time,
    index: Option<&PlatformIndex>,
    capacity: &[Time],
    big_m: f64,
) -> Option<(Hit, Option<Hit>)> {
    let mut scan = rows.ranked(j, tleft, index);
    let mut first: Option<Hit> = None;
    while let Some((c, penalized)) = scan.next() {
        if c.exec > capacity[c.resource.index()] {
            continue;
        }
        let hit = Hit {
            des: c.energy.value() + if penalized { big_m } else { 0.0 },
            resource: c.resource,
            exec: c.exec,
        };
        match first {
            None => first = Some(hit),
            Some(first) => return Some((first, Some(hit))),
        }
    }
    first.map(|first| (first, None))
}

/// The knapsack-based mapping heuristic of Algorithm 1.
///
/// # Examples
///
/// See the crate-level example in [`rtrm_core`](crate); `HeuristicRm` is a
/// drop-in [`ResourceManager`].
#[derive(Debug, Clone, Default)]
pub struct HeuristicRm {
    /// Disable the max-regret task ordering (lines 8–23) and map tasks in
    /// input order instead. Only useful for ablation studies; the paper's
    /// algorithm uses regret ordering.
    pub disable_regret_ordering: bool,
    /// Answer every feasibility probe with a from-scratch engine run
    /// instead of the incremental timeline. Verdicts (and hence decisions)
    /// are identical; this is the pre-incremental baseline, kept for
    /// benchmarks and differential tests.
    pub oracle_feasibility: bool,
    /// Rebuild, re-filter, and re-sort every job's candidate list per rung
    /// and per mapping iteration instead of scanning the shared
    /// [`CandidateTable`]. Decisions are identical; this is the pre-pruning
    /// baseline, kept for benchmarks and differential tests (mirroring
    /// `oracle_feasibility`).
    pub unpruned_candidates: bool,
}

impl HeuristicRm {
    /// Creates the heuristic as described in the paper.
    #[must_use]
    pub fn new() -> Self {
        HeuristicRm::default()
    }

    /// Ablation variant: tasks are mapped in arrival order instead of
    /// max-regret order.
    #[must_use]
    pub fn without_regret_ordering() -> Self {
        HeuristicRm {
            disable_regret_ordering: true,
            ..HeuristicRm::default()
        }
    }

    /// One rung of the pruned solve: scans the shared [`CandidateTable`]
    /// instead of building per-rung candidate lists. Decision-identical to
    /// [`solve_unpruned`](HeuristicRm::solve_unpruned) by construction:
    /// per-iteration capacity filters commute with the row's stable
    /// `(energy, resource)` sort, and the ranked scan's two-pass partition
    /// *is* the desirability order (see `prune` module docs).
    ///
    /// Besides the plan it hands back the job-indexed chosen-candidate
    /// vector it mapped with — *including* the phantom rows that
    /// [`Plan::placements`] omits, every entry `Some`. The exact managers
    /// seed their searches from it: re-summing the chosen energies in the
    /// search's own branching order reproduces the exact leaf cost the
    /// search would compute for this assignment, which the bit-identity
    /// protocol of the injected incumbent relies on. The table must be
    /// built `sorted` and restart-free (`gpu_restart_in_place = false`).
    pub(crate) fn solve_with_table(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        table: &mut CandidateTable,
        index: Option<&PlatformIndex>,
        pool: &mut TimelinePool,
    ) -> Option<(Plan, Vec<Option<Candidate>>)> {
        let n_real = activation.active.len() + 1;
        let n_jobs = n_real + num_phantoms;
        let now = activation.now;
        let big_m = table.penalty_weight(n_jobs);
        let (jobs_all, mut rows) = table.parts();
        let jobs = &jobs_all[..n_jobs];

        // K̄: every resource starts with the full window as capacity (same
        // per-rung window as the unpruned path).
        let window = jobs
            .iter()
            .map(|j| j.deadline - now)
            .max()
            .unwrap_or(Time::ZERO);
        let mut capacity = vec![window; activation.platform.len()];

        let mut plan = PlanBuilder::new(activation, pool);
        let mut chosen: Vec<Option<Candidate>> = vec![None; n_jobs];
        let mut unmapped: Vec<usize> = (0..n_jobs).collect();
        let mut iterations: u64 = 0;
        // Per job, the first two capacity-feasible hits of its last ranked
        // scan. Capacities only shrink, so a skipped candidate stays skipped:
        // while both hits still fit, a rescan would return exactly them.
        let mut hits: Vec<Option<(Hit, Option<Hit>)>> = vec![None; n_jobs];

        while !unmapped.is_empty() {
            // Select the task with the maximum regret d* (lines 8–23):
            // regret needs only the best and second-best capacity-feasible
            // desirabilities, i.e. the first two hits of a ranked scan.
            let mut selected: Option<usize> = None;
            let mut best_regret = f64::NEG_INFINITY;
            for &j in &unmapped {
                let (first, second) = match hits[j] {
                    Some((first, second))
                        if first.fits(&capacity) && second.is_none_or(|h| h.fits(&capacity)) =>
                    {
                        (first, second)
                    }
                    _ => {
                        let tleft = jobs[j].time_left(now);
                        let Some(pair) =
                            first_two_hits(&mut rows, j, tleft, index, &capacity, big_m)
                        else {
                            return None; // line 22: F_j empty, no solution
                        };
                        hits[j] = Some(pair);
                        pair
                    }
                };
                let regret = second.map_or(f64::INFINITY, |h| h.des - first.des);
                if regret > best_regret {
                    best_regret = regret;
                    selected = Some(j);
                }
                if self.disable_regret_ordering {
                    break; // ablation: take the first unmapped task
                }
            }
            let j_star = selected.expect("unmapped is non-empty");

            // Map to the most desirable schedulable resource (lines 24–34);
            // capacities are unchanged since selection, so this scan yields
            // exactly the candidate sequence selection ranked.
            let tleft = jobs[j_star].time_left(now);
            let mut placed = false;
            let mut scan = rows.ranked(j_star, tleft, index);
            while let Some((c, _)) = scan.next() {
                if c.exec > capacity[c.resource.index()] {
                    continue;
                }
                iterations += 1;
                if plan.try_place(&jobs[j_star], &c) {
                    capacity[c.resource.index()] -= c.exec;
                    chosen[j_star] = Some(c);
                    placed = true;
                    break;
                }
            }
            if !placed {
                return None; // lines 31–32: no more resources
            }
            unmapped.retain(|&j| j != j_star);
        }

        debug_assert!(plan.all_schedulable());
        let objective: Energy = chosen.iter().flatten().map(|c| c.energy).sum();
        let start_gates = if num_phantoms > 0 {
            let keys: Vec<_> = activation.predicted[..num_phantoms]
                .iter()
                .map(|p| p.key)
                .collect();
            plan.reservation_gates(&keys)
        } else {
            Vec::new()
        };
        let plan = Plan {
            placements: jobs[..n_real]
                .iter()
                .zip(&chosen)
                .map(|(j, c)| (j.key, c.expect("all jobs mapped")))
                .collect(),
            objective,
            nodes: iterations,
            start_gates,
        };
        Some((plan, chosen))
    }

    /// The pre-pruning rung solve: rebuilds every candidate list per rung
    /// and re-filters/sorts per mapping iteration. Kept verbatim as the
    /// differential/bench baseline: only the `unpruned_candidates` paths of
    /// this manager and of [`ExactRm`](crate::ExactRm) call it.
    pub(crate) fn solve_unpruned(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        pool: &mut TimelinePool,
    ) -> Option<Plan> {
        self.solve_unpruned_with_chosen(activation, num_phantoms, pool)
            .map(|(plan, _)| plan)
    }

    /// [`solve_unpruned`](HeuristicRm::solve_unpruned) plus the full
    /// job-indexed chosen-candidate vector, the legacy counterpart of
    /// [`solve_with_table`](HeuristicRm::solve_with_table)'s. Only the
    /// `unpruned_candidates` reference path of [`ExactRm`](crate::ExactRm)
    /// seeds from it.
    pub(crate) fn solve_unpruned_with_chosen(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        pool: &mut TimelinePool,
    ) -> Option<(Plan, Vec<Candidate>)> {
        let jobs: Vec<JobView> = activation
            .jobs_with_phantoms(num_phantoms)
            .copied()
            .collect();
        let n_real = activation.active.len() + 1;

        // Desirability table: one candidate per (job, resource) — the
        // dominant "stay" option for a GPU-running job (see cost module).
        let cand: Vec<Vec<Candidate>> = jobs
            .iter()
            .map(|j| candidates(j, activation.platform, activation.catalog, false))
            .collect();
        let big_m = penalty_weight(&cand);
        let desirability = |job: &JobView, c: &Candidate| -> f64 {
            let tleft = job.time_left(activation.now);
            c.energy.value() + if c.exec > tleft { big_m } else { 0.0 }
        };

        // K̄: every resource starts with the full window as capacity. The
        // paper's t_left is measured from the activation instant
        // (`s_j + d_j − t`), so a future-released phantom's work counts
        // against the span up to its absolute deadline, not just the span
        // after its release.
        let window = jobs
            .iter()
            .map(|j| j.deadline - activation.now)
            .max()
            .unwrap_or(Time::ZERO);
        let mut capacity = vec![window; activation.platform.len()];

        let mut plan = PlanBuilder::new(activation, pool);
        let mut chosen: Vec<Option<Candidate>> = vec![None; jobs.len()];
        let mut unmapped: Vec<usize> = (0..jobs.len()).collect();
        let mut iterations: u64 = 0;

        while !unmapped.is_empty() {
            // F_j: resources whose remaining capacity admits the task. A
            // task whose F_j is empty can never be mapped later (capacities
            // only shrink), so the algorithm has no solution.
            let feasible = |j: usize| -> Vec<Candidate> {
                cand[j]
                    .iter()
                    .filter(|c| c.exec <= capacity[c.resource.index()])
                    .copied()
                    .collect()
            };

            // Select the task with the maximum regret d* (lines 8–23).
            let mut selected: Option<(usize, Vec<Candidate>)> = None;
            let mut best_regret = f64::NEG_INFINITY;
            for &j in &unmapped {
                let mut fj = feasible(j);
                if fj.is_empty() {
                    return None; // line 22: no solution
                }
                fj.sort_by(|a, b| {
                    desirability(&jobs[j], a)
                        .total_cmp(&desirability(&jobs[j], b))
                        .then(a.resource.cmp(&b.resource))
                });
                let regret = if fj.len() == 1 {
                    f64::INFINITY
                } else {
                    desirability(&jobs[j], &fj[1]) - desirability(&jobs[j], &fj[0])
                };
                if regret > best_regret {
                    best_regret = regret;
                    selected = Some((j, fj));
                }
                if self.disable_regret_ordering {
                    break; // ablation: take the first unmapped task
                }
            }
            let (j_star, mut options) = selected.expect("unmapped is non-empty");

            // Map to the most desirable schedulable resource (lines 24–34).
            let mut placed = false;
            while !options.is_empty() {
                iterations += 1;
                let c = options.remove(0);
                if plan.try_place(&jobs[j_star], &c) {
                    capacity[c.resource.index()] -= c.exec;
                    chosen[j_star] = Some(c);
                    placed = true;
                    break;
                }
            }
            if !placed {
                return None; // lines 31–32: no more resources
            }
            unmapped.retain(|&j| j != j_star);
        }

        debug_assert!(plan.all_schedulable());
        let objective: Energy = chosen.iter().flatten().map(|c| c.energy).sum();
        let start_gates = if num_phantoms > 0 {
            let keys: Vec<_> = activation.predicted[..num_phantoms]
                .iter()
                .map(|p| p.key)
                .collect();
            plan.reservation_gates(&keys)
        } else {
            Vec::new()
        };
        let full: Vec<Candidate> = chosen.iter().map(|c| c.expect("all jobs mapped")).collect();
        Some((
            Plan {
                placements: jobs[..n_real]
                    .iter()
                    .zip(&full)
                    .map(|(j, c)| (j.key, *c))
                    .collect(),
                objective,
                nodes: iterations,
                start_gates,
            },
            full,
        ))
    }
}

impl ResourceManager for HeuristicRm {
    fn name(&self) -> &str {
        if self.disable_regret_ordering {
            "heuristic-noregret"
        } else {
            "heuristic"
        }
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
        if self.unpruned_candidates {
            return decide_with_fallback(activation, |act, k| self.solve_unpruned(act, k, pool));
        }
        // Build the candidate table once — all rungs of the fallback ladder
        // share it (rung k reads the prefix of n_real + k rows). Table and
        // index are moved out of the pool so the rung closure can borrow the
        // pool's timelines independently.
        let mut table = pool.take_table();
        let index = pool.take_index();
        table.rebuild(activation, true, false, index.as_ref());
        let decision = decide_with_fallback(activation, |act, k| {
            self.solve_with_table(act, k, &mut table, index.as_ref(), pool)
                .map(|(plan, _)| plan)
        });
        pool.restore_table(table);
        pool.restore_index(index);
        decision
    }
}

/// Re-exported for the ablation benchmark: the resource a fresh job would
/// most desire (minimum energy), ignoring schedulability.
#[must_use]
pub fn most_desirable_resource(job: &JobView, activation: &Activation<'_>) -> Option<ResourceId> {
    candidates(job, activation.platform, activation.catalog, false)
        .into_iter()
        .min_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)))
        .map(|c| c.resource)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Placement;
    use rtrm_platform::{Platform, PlatformIndex, TaskCatalog, TaskType, TaskTypeId};
    use rtrm_sched::JobKey;

    /// DVFS CPU + plain CPU + GPU, two types with very different energies so
    /// the per-rung maximum actually moves as phantoms join the rung.
    fn world() -> (Platform, TaskCatalog) {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("c0", &[0.5, 1.0, 2.0]).cpus(1).gpu("g");
        let platform = b.build();
        let ids: Vec<_> = platform.ids().collect();
        let small = TaskType::builder(0, &platform)
            .profile(ids[0], Time::new(8.0), Energy::new(4.0))
            .profile(ids[1], Time::new(6.0), Energy::new(5.0))
            .profile(ids[2], Time::new(5.0), Energy::new(2.0))
            .uniform_migration(Time::new(1.0), Energy::new(0.5))
            .build();
        let big = TaskType::builder(1, &platform)
            .profile(ids[0], Time::new(10.0), Energy::new(30.0))
            .profile(ids[1], Time::new(9.0), Energy::new(40.0))
            .uniform_migration(Time::new(1.0), Energy::new(0.5))
            .build();
        (platform, TaskCatalog::new(vec![small, big]))
    }

    /// S2 pin: the table's prefix-maximum penalty weight equals the legacy
    /// per-rung full-table flatten for *every* rung of the ladder — with a
    /// placed active job (owned row) and phantoms of a high-energy type that
    /// raise the maximum only on the deeper rungs.
    #[test]
    fn prefix_penalty_weight_matches_per_rung_flatten() {
        let (platform, catalog) = world();
        let ids: Vec<_> = platform.ids().collect();
        let mut active = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(25.0));
        active.placement = Some(Placement::new(ids[1], 0.6, true));
        let active = [active];
        let arriving = JobView::fresh(JobKey(1), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        let predicted = [
            JobView::fresh(
                JobKey(2),
                TaskTypeId::new(1),
                Time::new(4.0),
                Time::new(30.0),
            ),
            JobView::fresh(
                JobKey(3),
                TaskTypeId::new(1),
                Time::new(8.0),
                Time::new(40.0),
            ),
        ];
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &predicted,
        };
        let n_real = activation.active.len() + 1;

        for (index, label) in [
            (None, "owned rows"),
            (
                Some(PlatformIndex::build(&platform, &catalog)),
                "indexed rows",
            ),
        ] {
            let mut table = CandidateTable::new();
            table.rebuild(&activation, true, false, index.as_ref());
            for k in 0..=predicted.len() {
                let legacy: Vec<Vec<Candidate>> = activation
                    .jobs_with_phantoms(k)
                    .map(|j| candidates(j, &platform, &catalog, false))
                    .collect();
                assert_eq!(
                    table.penalty_weight(n_real + k),
                    penalty_weight(&legacy),
                    "{label}, rung with {k} phantoms"
                );
            }
        }
    }

    /// The pruned default and the `unpruned_candidates` baseline agree on a
    /// multi-phantom activation (the proptest suite covers this at scale;
    /// this is the fast in-crate smoke check).
    #[test]
    fn pruned_and_unpruned_decide_identically_here() {
        let (platform, catalog) = world();
        let arriving = JobView::fresh(JobKey(1), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        let predicted = [JobView::fresh(
            JobKey(2),
            TaskTypeId::new(1),
            Time::new(4.0),
            Time::new(30.0),
        )];
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &[],
            arriving,
            predicted: &predicted,
        };
        let mut pruned_rm = HeuristicRm::new();
        let pruned = pruned_rm.decide(&activation);
        let mut unpruned_rm = HeuristicRm {
            unpruned_candidates: true,
            ..HeuristicRm::default()
        };
        let unpruned = unpruned_rm.decide(&activation);
        assert_eq!(pruned, unpruned);
        assert!(pruned.admitted);

        // The chosen vectors the exact managers seed from agree on every
        // rung, phantom rows included, with and without an index.
        let heuristic = HeuristicRm::new();
        for index in [None, Some(PlatformIndex::build(&platform, &catalog))] {
            let mut table = CandidateTable::new();
            table.rebuild(&activation, true, false, index.as_ref());
            let mut pool = TimelinePool::new();
            for k in 0..=predicted.len() {
                let (_, pruned) = heuristic
                    .solve_with_table(&activation, k, &mut table, index.as_ref(), &mut pool)
                    .expect("the pruned solve maps every job");
                let (_, unpruned) = heuristic
                    .solve_unpruned_with_chosen(&activation, k, &mut TimelinePool::new())
                    .expect("the unpruned solve maps every job");
                let unpruned: Vec<_> = unpruned.into_iter().map(Some).collect();
                assert_eq!(pruned, unpruned, "rung {k}, index {}", index.is_some());
            }
        }
    }
}
