//! Branching and presolve regression tests: both children of a branch are
//! eventually explored when no budget binds (the push order only affects
//! *which* is explored first), a child LP hitting its pivot budget or a
//! binding node budget is surfaced honestly (never `Termination::Optimal`
//! short of the optimum), and the singleton-equality presolve preserves
//! solutions.

use std::sync::Mutex;

use rtrm_milp::{Model, Sense, Solution, SolveError, SolveOptions, Termination};

/// Fail points are process-global; every test in this binary that solves a
/// model takes this lock so an armed `milp::pivot_limit` cannot leak into a
/// concurrently running test.
static SERIAL: Mutex<()> = Mutex::new(());

/// A small knapsack-flavoured MILP with a known optimum and enough binaries
/// that branch & bound explores a non-trivial tree.
fn knapsack_with_vars(n: usize) -> (Model, Vec<rtrm_milp::VarId>) {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n).map(|i| m.binary(1.0 + (i % 7) as f64)).collect();
    for w in 0..3 {
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 + ((i + w) % 5) as f64))
            .collect();
        m.add_le(&terms, 2.0 * n as f64 / 3.0);
    }
    (m, vars)
}

fn knapsack(n: usize) -> Model {
    knapsack_with_vars(n).0
}

/// Brute-forces the knapsack optimum over all 2^n binary points.
fn brute_force(n: usize) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for mask in 0..(1u32 << n) {
        let point: Vec<f64> = (0..n).map(|i| f64::from(mask >> i & 1)).collect();
        let m = knapsack(n);
        if m.is_feasible_point(&point, 1e-9) {
            best = best.max(m.objective_at(&point));
        }
    }
    best
}

#[test]
fn no_subtree_is_dropped_regardless_of_push_order() {
    let _serial = SERIAL.lock().unwrap();
    // If either child of any branch were abandoned, some instance in this
    // family would miss its brute-force optimum.
    for n in 4..=10 {
        let m = knapsack(n);
        let sol = m.solve().expect("knapsack is feasible");
        assert_eq!(sol.termination(), Termination::Optimal, "n={n}");
        assert_eq!(sol.objective(), brute_force(n), "n={n}");
    }
}

#[test]
fn optimum_in_second_explored_child_fractional_above_half() {
    let _serial = SERIAL.lock().unwrap();
    // Root LP: x = 0.6, y = 1 (frac > 0.5 → up child x≥1 explored first and
    // is infeasible). The optimum x=0, y=1 lives in the down child, explored
    // second — it must still be found.
    let mut m = Model::new(Sense::Maximize);
    let x = m.binary(10.0);
    let y = m.continuous(0.0, 1.0, 1.0);
    m.add_le(&[(x, 10.0), (y, 1.0)], 7.0);
    let sol = m.solve().expect("feasible");
    assert_eq!(sol.termination(), Termination::Optimal);
    assert_eq!(sol.value(x), 0.0);
    assert!((sol.objective() - 1.0).abs() < 1e-9);
}

#[test]
fn optimum_in_second_explored_child_fractional_below_half() {
    let _serial = SERIAL.lock().unwrap();
    // Root LP: x ≈ 0.46 (frac ≤ 0.5 → down child x=0 explored first, giving
    // an incumbent of cost 4). The optimum x=1, y=0.7 of cost 2.4 lives in
    // the up child, explored second — it must still be found.
    let mut m = Model::new(Sense::Minimize);
    let x = m.binary(1.0);
    let y = m.continuous(0.0, 4.0, 2.0);
    m.add_ge(&[(x, 4.0), (y, 1.0)], 2.0);
    m.add_le(&[(x, 1.0), (y, -1.0)], 0.3);
    let sol = m.solve().expect("feasible");
    assert_eq!(sol.termination(), Termination::Optimal);
    assert_eq!(sol.value(x), 1.0);
    assert!((sol.objective() - 2.4).abs() < 1e-9);
}

#[test]
fn pivot_limit_mid_search_is_never_reported_optimal() {
    let _serial = SERIAL.lock().unwrap();
    let m = knapsack(12);
    let reference = m.solve().expect("feasible");
    assert_eq!(reference.iteration_limit_hits(), 0);
    // Abandon one child subtree mid-search: the result may be the optimum by
    // luck, but it must never be *labelled* optimal, and the hit must be
    // visible to degradation accounting. Every key holds an incumbent,
    // 11..=14 included.
    for key in [5, 10, 11, 12, 13, 14, 20] {
        let _fp = rtrm_testkit::arm_with(
            "milp::pivot_limit",
            rtrm_testkit::Action::Trigger,
            Some(key),
            None,
        );
        let sol = m.solve().expect("an incumbent exists before the hit");
        assert_ne!(sol.termination(), Termination::Optimal, "key={key}");
        assert_eq!(sol.termination(), Termination::IterationLimit, "key={key}");
        assert_eq!(sol.iteration_limit_hits(), 1, "key={key}");
        assert!(m.is_feasible_point(sol.values(), 1e-6), "key={key}");
        assert!(sol.objective() <= reference.objective() + 1e-9);
    }
}

#[test]
fn pivot_limit_at_the_root_fails_with_iteration_limit() {
    let _serial = SERIAL.lock().unwrap();
    let m = knapsack(12);
    // Node 1 is the root: its subtree is the whole search, so abandoning it
    // leaves no incumbent at all.
    let _fp = rtrm_testkit::arm_with(
        "milp::pivot_limit",
        rtrm_testkit::Action::Trigger,
        Some(1),
        None,
    );
    let err = m
        .solve()
        .expect_err("no incumbent without the root subtree");
    assert_eq!(err, SolveError::IterationLimit);
}

#[test]
fn node_budget_cut_is_never_reported_optimal() {
    let _serial = SERIAL.lock().unwrap();
    // A binding node budget either leaves no incumbent (`Err(NodeLimit)`)
    // or returns a feasible one labelled `NodeLimit`; `Optimal` appears only
    // once the budget covers the whole search, and a larger budget never
    // returns a worse incumbent. n=14 at 18..=25 cuts the search after its
    // first incumbent, so every budget there must return one.
    for (n, budgets) in [(12, vec![1, 3, 8, 20, 60, 200]), (14, (18..=25).collect())] {
        let m = knapsack(n);
        let optimum = m.solve().expect("feasible");
        let mut previous = f64::NEG_INFINITY;
        for max_nodes in budgets {
            let context = format!("n={n} max_nodes={max_nodes}");
            match m.solve_with(&SolveOptions {
                max_nodes,
                ..SolveOptions::default()
            }) {
                Err(err) => {
                    assert_eq!(err, SolveError::NodeLimit, "{context}");
                    assert_ne!(n, 14, "{context}: no incumbent");
                    assert_eq!(previous, f64::NEG_INFINITY, "{context}: incumbent lost");
                }
                Ok(sol) => {
                    assert!(m.is_feasible_point(sol.values(), 1e-6), "{context}");
                    match sol.termination() {
                        Termination::Optimal => assert_eq!(sol, optimum, "{context}"),
                        other => assert_eq!(other, Termination::NodeLimit, "{context}"),
                    }
                    // Maximize sense: the incumbent never gets worse.
                    assert!(sol.objective() >= previous, "{context}: incumbent worsened");
                    previous = sol.objective();
                }
            }
        }
    }
}

fn solve_presolve(m: &Model, presolve: bool) -> Result<Solution, SolveError> {
    m.solve_with(&SolveOptions {
        presolve,
        ..SolveOptions::default()
    })
}

#[test]
fn singleton_equality_fixing_preserves_the_solution() {
    let _serial = SERIAL.lock().unwrap();
    let (mut m, vars) = knapsack_with_vars(10);
    // Pin two variables by singleton equality rows (indices 1 → 1, 4 → 0).
    m.add_eq(&[(vars[1], 1.0)], 1.0);
    m.add_eq(&[(vars[4], 2.0)], 0.0);
    let with = solve_presolve(&m, true).expect("feasible");
    let without = solve_presolve(&m, false).expect("feasible");
    assert_eq!(with.values(), without.values());
    assert_eq!(with.objective(), without.objective());
    assert_eq!(with.value(vars[1]), 1.0);
    assert_eq!(with.value(vars[4]), 0.0);
}

#[test]
fn contradictory_singleton_rows_are_infeasible_both_ways() {
    let _serial = SERIAL.lock().unwrap();
    for presolve in [true, false] {
        // Binary fixed to a non-integral value.
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary(1.0);
        m.add_eq(&[(x, 2.0)], 1.0); // x = 0.5
        assert_eq!(
            solve_presolve(&m, presolve).expect_err("x=0.5 is not integral"),
            SolveError::Infeasible,
            "presolve={presolve}"
        );

        // Value outside the variable's bounds.
        let mut m = Model::new(Sense::Minimize);
        let y = m.continuous(0.0, 1.0, 1.0);
        m.add_eq(&[(y, 1.0)], 3.0);
        assert_eq!(
            solve_presolve(&m, presolve).expect_err("y=3 exceeds its bound"),
            SolveError::Infeasible,
            "presolve={presolve}"
        );

        // Two singleton rows that disagree.
        let mut m = Model::new(Sense::Minimize);
        let z = m.continuous(0.0, 5.0, 1.0);
        m.add_eq(&[(z, 1.0)], 2.0);
        m.add_eq(&[(z, 1.0)], 3.0);
        assert_eq!(
            solve_presolve(&m, presolve).expect_err("z cannot be 2 and 3"),
            SolveError::Infeasible,
            "presolve={presolve}"
        );
    }
}
