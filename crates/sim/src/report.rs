//! Per-trace simulation reports and aggregation across trace batches.

use serde::{Deserialize, Serialize};

use rtrm_platform::{Energy, RequestId, ResourceId, Time};

/// Why a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskOutcome {
    /// Rejected at admission.
    Rejected,
    /// Admitted and completed by its deadline.
    Completed,
}

/// Per-request record, collected when
/// [`SimConfig::record_task_log`](crate::SimConfig::record_task_log) is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The request this record belongs to.
    pub request: RequestId,
    /// What happened to it.
    pub outcome: TaskOutcome,
    /// Resources the task was placed on, in order (re-placements append;
    /// empty for rejected tasks).
    pub placements: Vec<ResourceId>,
    /// Completion time (None for rejected tasks).
    pub finished: Option<Time>,
    /// Times the task was aborted and restarted from scratch.
    pub restarts: u32,
}

/// Outcome of simulating one trace under one resource-management policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Requests in the trace.
    pub requests: usize,
    /// Requests admitted by the manager.
    pub accepted: usize,
    /// Requests rejected (the paper's headline metric, as a percentage).
    pub rejected: usize,
    /// Admitted tasks that completed (equals `accepted` once the trace is
    /// drained).
    pub completed: usize,
    /// Admitted tasks that missed their deadline. The admission test
    /// guarantees zero; any other value indicates a simulator/manager bug
    /// and is asserted against in tests.
    pub deadline_misses: usize,
    /// Total energy consumed: execution energy of all (partially) executed
    /// work, migration overheads, and energy wasted in GPU aborts.
    pub energy: Energy,
    /// Of [`energy`](SimReport::energy): migration overhead lumps (`em`).
    pub migration_energy: Energy,
    /// Of [`energy`](SimReport::energy): work consumed by tasks that were
    /// later aborted and restarted from scratch (GPU aborts) — pure waste.
    pub wasted_energy: Energy,
    /// Activations whose chosen plan honoured the predicted task.
    pub used_prediction: usize,
    /// Sum of [`Decision::nodes`](rtrm_core::Decision::nodes) over all
    /// activations: the search effort of each admitting rung only, not the
    /// nodes of fallback-ladder rungs that failed before it or of
    /// rejections.
    pub rm_nodes: u64,
    /// Fallback-ladder rungs whose solver hit its wall-clock budget, summed
    /// over all activations (0 unless the manager runs with an anytime
    /// budget).
    pub solver_timeouts: u64,
    /// Activations whose plan was *degraded*: taken from a ladder rung below
    /// one that timed out, or from the heuristic floor after every rung
    /// timed out or failed.
    pub degraded_activations: usize,
    /// Completion time of the last task.
    pub makespan: Time,
    /// Per-request records (empty unless
    /// [`SimConfig::record_task_log`](crate::SimConfig::record_task_log) is
    /// set).
    pub task_log: Vec<TaskRecord>,
    /// Busy time per resource (platform order) over the whole run —
    /// `busy / makespan` is the utilization that explains who the
    /// bottleneck is.
    pub busy_time: Vec<Time>,
}

impl SimReport {
    /// Utilization of one resource: busy time over the makespan (0 when
    /// nothing ran).
    ///
    /// # Panics
    ///
    /// Panics if `resource` is out of range for the simulated platform.
    #[must_use]
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        if self.makespan <= Time::ZERO {
            return 0.0;
        }
        self.busy_time[resource.index()] / self.makespan
    }

    /// Rejected requests as a percentage of all requests.
    #[must_use]
    pub fn rejection_percent(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            100.0 * self.rejected as f64 / self.requests as f64
        }
    }

    /// Accepted requests as a percentage of all requests.
    #[must_use]
    pub fn acceptance_percent(&self) -> f64 {
        100.0 - self.rejection_percent()
    }
}

/// Mean rejection percentage over a batch of reports.
#[must_use]
pub fn mean_rejection_percent(reports: &[SimReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports
        .iter()
        .map(SimReport::rejection_percent)
        .sum::<f64>()
        / reports.len() as f64
}

/// Mean total energy over a batch of reports.
#[must_use]
pub fn mean_energy(reports: &[SimReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(|r| r.energy.value()).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(requests: usize, rejected: usize, energy: f64) -> SimReport {
        SimReport {
            requests,
            accepted: requests - rejected,
            rejected,
            completed: requests - rejected,
            deadline_misses: 0,
            energy: Energy::new(energy),
            migration_energy: Energy::ZERO,
            wasted_energy: Energy::ZERO,
            used_prediction: 0,
            rm_nodes: 0,
            solver_timeouts: 0,
            degraded_activations: 0,
            makespan: Time::ZERO,
            task_log: Vec::new(),
            busy_time: Vec::new(),
        }
    }

    #[test]
    fn percentages() {
        let r = report(200, 50, 1.0);
        assert_eq!(r.rejection_percent(), 25.0);
        assert_eq!(r.acceptance_percent(), 75.0);
    }

    #[test]
    fn aggregation() {
        let batch = [report(100, 10, 2.0), report(100, 30, 4.0)];
        assert_eq!(mean_rejection_percent(&batch), 20.0);
        assert_eq!(mean_energy(&batch), 3.0);
        assert_eq!(mean_rejection_percent(&[]), 0.0);
    }

    #[test]
    fn empty_trace_is_zero_percent() {
        let r = report(0, 0, 0.0);
        assert_eq!(r.rejection_percent(), 0.0);
    }
}
