//! # rtrm-milp
//!
//! A small, self-contained mixed-integer linear programming solver: a dense
//! two-phase primal simplex for LP relaxations and depth-first branch & bound
//! for integrality. It exists so that the exact resource manager of
//! *Niknafs et al., DAC 2019* can be expressed as the paper writes it
//! (Sec 4.2) without an external solver, and it is cross-validated against a
//! combinatorial branch & bound in `rtrm-core`.
//!
//! Problem sizes in this workspace are tens of variables and constraints;
//! the implementation favours robustness (Bland's anti-cycling fallback,
//! explicit tolerances) over large-scale performance.
//!
//! # Examples
//!
//! An assignment problem with binaries:
//!
//! ```
//! use rtrm_milp::{Model, Sense};
//!
//! // Assign 2 tasks to 2 machines, cost matrix [[4, 2], [3, 5]].
//! let mut m = Model::new(Sense::Minimize);
//! let x: Vec<Vec<_>> = (0..2)
//!     .map(|t| (0..2).map(|r| m.binary([[4.0, 2.0], [3.0, 5.0]][t][r])).collect())
//!     .collect();
//! for t in 0..2 {
//!     m.add_eq(&[(x[t][0], 1.0), (x[t][1], 1.0)], 1.0); // each task placed once
//! }
//! for r in 0..2 {
//!     m.add_le(&[(x[0][r], 1.0), (x[1][r], 1.0)], 1.0); // each machine ≤ 1 task
//! }
//! let sol = m.solve()?;
//! assert_eq!(sol.objective(), 5.0); // task 0 → machine 1, task 1 → machine 0
//! # Ok::<(), rtrm_milp::SolveError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch;
mod model;
mod simplex;

pub use model::{Cmp, Model, Sense, Solution, SolveError, Termination, VarId, VarKind, Variable};

use serde::{Deserialize, Serialize};

/// Tuning knobs for [`Model::solve_with`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Maximum branch & bound nodes before giving up with
    /// [`SolveError::NodeLimit`].
    pub max_nodes: u64,
    /// Simplex pivot budget shared across one node's LP solve.
    pub max_simplex_iterations: usize,
    /// A value within this distance of an integer counts as integral.
    pub integrality_tolerance: f64,
    /// Nodes whose relaxation cannot improve the incumbent by more than this
    /// are pruned.
    pub objective_tolerance: f64,
    /// Wall-clock budget in seconds for the whole solve (branch & bound and
    /// the simplex iterations inside each node). `f64::INFINITY` (the
    /// default) disables the deadline entirely — no clock is ever read. On
    /// expiry the best incumbent is returned labelled
    /// [`Termination::TimedOut`]; with no incumbent the solve fails with
    /// [`SolveError::TimedOut`]. This is the *anytime* knob: a runtime
    /// resource manager sets it to its per-decision latency budget.
    pub max_wall_clock_secs: f64,
    /// Fix variables forced by singleton equality rows (`a·x = b` with a
    /// single term) before the search starts, removing their columns from
    /// every simplex tableau. Defaults to `true`; disable to A/B the
    /// reduction.
    #[serde(default = "default_presolve")]
    pub presolve: bool,
}

fn default_presolve() -> bool {
    true
}

impl SolveOptions {
    /// Default options with an explicit wall-clock budget in seconds.
    #[must_use]
    pub fn with_wall_clock(secs: f64) -> Self {
        SolveOptions {
            max_wall_clock_secs: secs,
            ..SolveOptions::default()
        }
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_nodes: 1_000_000,
            max_simplex_iterations: 50_000,
            integrality_tolerance: 1e-6,
            objective_tolerance: 1e-9,
            max_wall_clock_secs: f64::INFINITY,
            presolve: default_presolve(),
        }
    }
}
