//! Depth-first branch & bound over the LP relaxation.

use crate::model::{Model, Sense, Solution, SolveError, Termination, VarKind};
use crate::simplex::{solve_lp, Deadline, LpOutcome};
use crate::SolveOptions;

/// Solves `model` to proven optimality (or reports why it could not).
///
/// The search is *anytime* along three axes — node budget, simplex pivot
/// budget, and the wall-clock deadline of
/// [`SolveOptions::max_wall_clock_secs`]: when any of them cuts the search
/// short, the best incumbent found so far is returned with the matching
/// [`Termination`] label, and only a cut-off with no incumbent at all is an
/// error. The `milp::stall` fail point (keyed by the node count) forces the
/// deadline check to fire deterministically in fault-injection tests.
pub(crate) fn solve(model: &Model, options: &SolveOptions) -> Result<Solution, SolveError> {
    let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();

    // Presolve: a singleton equality row `a·x = b` forces `x = b/a`; tighten
    // the root bounds so the simplex drops the column from every tableau (a
    // variable with equal bounds is substituted out before phase 1). The row
    // itself stays in the model and reduces to a redundant constant, which
    // phase 1 absorbs.
    if options.presolve {
        for c in &model.constraints {
            if c.cmp != crate::model::Cmp::Eq || c.terms.len() != 1 {
                continue;
            }
            let (var, coeff) = c.terms[0];
            if coeff == 0.0 {
                if c.rhs != 0.0 {
                    return Err(SolveError::Infeasible);
                }
                continue;
            }
            let j = var.index();
            let mut v = c.rhs / coeff;
            if model.vars[j].kind == VarKind::Integer {
                if (v - v.round()).abs() > options.integrality_tolerance {
                    return Err(SolveError::Infeasible);
                }
                v = v.round();
            }
            if v < lower[j] || v > upper[j] {
                return Err(SolveError::Infeasible);
            }
            lower[j] = v;
            upper[j] = v;
        }
    }

    // Internally compare in "minimize" direction.
    let dir = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let deadline = Deadline::new(options.max_wall_clock_secs);
    let mut best: Option<(f64, Vec<f64>)> = None; // (dir·objective, values)

    let mut nodes: u64 = 0;
    let mut stack = vec![(lower, upper)];
    let mut hit_node_limit = false;
    let mut hit_iteration_limit = false;
    let mut iteration_limit_hits: u64 = 0;
    let mut hit_time_limit = false;

    while let Some((lb, ub)) = stack.pop() {
        if rtrm_testkit::triggered("milp::stall", nodes) || deadline.expired() {
            hit_time_limit = true;
            break;
        }
        if nodes >= options.max_nodes {
            hit_node_limit = true;
            break;
        }
        nodes += 1;

        // The `milp::pivot_limit` fail point (keyed by the node count)
        // simulates a child LP exhausting its pivot budget, so tests can pin
        // that such paths never report `Termination::Optimal`.
        let outcome = if rtrm_testkit::triggered("milp::pivot_limit", nodes) {
            LpOutcome::IterationLimit
        } else {
            solve_lp(model, &lb, &ub, options.max_simplex_iterations, &deadline)
        };
        let (objective, values) = match outcome {
            LpOutcome::Optimal { objective, values } => (objective, values),
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                // An unbounded relaxation at the root means the MILP is
                // unbounded or infeasible; we report unbounded, matching LP
                // solver convention. Deeper nodes inherit the root bounds,
                // so this can only trigger at the root.
                return Err(SolveError::Unbounded);
            }
            LpOutcome::IterationLimit => {
                hit_iteration_limit = true;
                iteration_limit_hits += 1;
                continue;
            }
            LpOutcome::TimedOut => {
                hit_time_limit = true;
                break;
            }
        };

        // Bound: prune nodes that cannot beat the incumbent.
        if let Some((best_obj, _)) = &best {
            if dir * objective >= *best_obj - options.objective_tolerance {
                continue;
            }
        }

        // Pick the branching variable, pseudocost-lite: the fractional
        // integer variable with the largest objective impact (|coefficient|)
        // branches first, so both children move the bound the most.
        // Tie-break most-fractional (closest to x.5), then lowest index, so
        // the choice — and with it the whole tree — is deterministic.
        let mut branch_var: Option<(usize, f64, f64)> = None; // (j, |coeff|, dist)
        for (j, var) in model.vars.iter().enumerate() {
            if var.kind != VarKind::Integer {
                continue;
            }
            let x = values[j];
            if (x - x.round()).abs() <= options.integrality_tolerance {
                continue;
            }
            let dist_to_half = (x - x.floor() - 0.5).abs();
            let score = var.objective.abs();
            let better = match &branch_var {
                None => true,
                Some((_, s, d)) => score > *s || (score == *s && dist_to_half < *d),
            };
            if better {
                branch_var = Some((j, score, dist_to_half));
            }
        }

        match branch_var {
            None => {
                // Integral: candidate incumbent. Snap integers exactly.
                let mut snapped = values;
                for (j, var) in model.vars.iter().enumerate() {
                    if var.kind == VarKind::Integer {
                        snapped[j] = snapped[j].round();
                    }
                }
                let key = dir * model.objective_at(&snapped);
                if best.as_ref().is_none_or(|(b, _)| key < *b) {
                    best = Some((key, snapped));
                }
            }
            Some((j, _, _)) => {
                let x = values[j];
                let floor = x.floor();
                let mut up_lb = lb.clone();
                let up_ub = ub.clone();
                up_lb[j] = floor + 1.0;
                let down_lb = lb;
                let mut down_ub = ub;
                down_ub[j] = floor;
                let up = (up_lb, up_ub);
                let down = (down_lb, down_ub);
                // Explore the side closer to the fractional value first.
                if x - floor > 0.5 {
                    stack.push(down);
                    stack.push(up);
                } else {
                    stack.push(up);
                    stack.push(down);
                }
            }
        }
    }

    match best {
        Some((_, values)) => {
            let objective = model.objective_at(&values);
            let termination = if hit_time_limit {
                Termination::TimedOut
            } else if hit_node_limit {
                Termination::NodeLimit
            } else if hit_iteration_limit {
                Termination::IterationLimit
            } else {
                Termination::Optimal
            };
            Ok(Solution {
                values,
                objective,
                nodes,
                termination,
                iteration_limit_hits,
            })
        }
        None if hit_time_limit => Err(SolveError::TimedOut),
        None if hit_node_limit => Err(SolveError::NodeLimit),
        None if hit_iteration_limit => Err(SolveError::IterationLimit),
        None => Err(SolveError::Infeasible),
    }
}
