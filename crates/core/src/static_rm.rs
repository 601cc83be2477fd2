//! A quasi-static baseline manager.
//!
//! The paper's related-work section contrasts its fully adaptive manager
//! with design-time approaches (quasi-static mappings prepared off-line,
//! e.g. Singh'16, Massari'14, Goens'17): each task type gets a fixed
//! placement computed once, and the runtime only performs admission. This
//! baseline makes that comparison concrete:
//!
//! * every task type is assigned its energy-cheapest executable resource at
//!   construction ("design time");
//! * at an arrival the manager appends the task to its type's resource if
//!   the EDF test passes there — active tasks are never migrated, never
//!   aborted, never re-ordered across resources;
//! * optionally (`spill`), placement may fall back to the next-cheapest
//!   resources when the static one is full — a common quasi-static
//!   refinement.
//!
//! Prediction is ignored: a static mapping cannot react to it (the
//! decision is the same with or without the phantom).

use rtrm_platform::{Energy, ResourceId, TaskCatalog};

use crate::activation::{
    Activation, Assignment, Decision, PlanBuilder, ResourceManager, TimelinePool,
};
use crate::cost::candidates;

/// Design-time (quasi-static) mapping baseline.
///
/// # Examples
///
/// ```
/// use rtrm_core::{StaticRm, ResourceManager};
/// use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType, Time};
///
/// let platform = Platform::builder().cpus(1).gpu("g").build();
/// let ids: Vec<_> = platform.ids().collect();
/// let ty = TaskType::builder(0, &platform)
///     .profile(ids[0], Time::new(4.0), Energy::new(4.0))
///     .profile(ids[1], Time::new(2.0), Energy::new(1.0))
///     .build();
/// let catalog = TaskCatalog::new(vec![ty]);
/// let rm = StaticRm::new(&catalog);
/// assert_eq!(rm.name(), "static");
/// ```
#[derive(Debug, Clone)]
pub struct StaticRm {
    /// Energy-sorted placement preference per task type, computed at
    /// construction.
    preference: Vec<Vec<ResourceId>>,
    /// Allow falling back to the next-cheapest resource when the static one
    /// cannot schedule the task.
    pub spill: bool,
}

impl StaticRm {
    /// Builds the design-time mapping: each type's resources sorted by
    /// full-execution energy.
    #[must_use]
    pub fn new(catalog: &TaskCatalog) -> Self {
        let preference = catalog
            .iter()
            .map(|ty| {
                let mut rs: Vec<(ResourceId, Energy)> = ty
                    .executable_resources()
                    .map(|r| (r, ty.energy(r).expect("executable resource has a profile")))
                    .collect();
                rs.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
                rs.into_iter().map(|(r, _)| r).collect()
            })
            .collect();
        StaticRm {
            preference,
            spill: false,
        }
    }

    /// Variant that may spill to the next-cheapest resources when the
    /// statically chosen one is full.
    #[must_use]
    pub fn with_spill(catalog: &TaskCatalog) -> Self {
        StaticRm {
            spill: true,
            ..StaticRm::new(catalog)
        }
    }
}

impl ResourceManager for StaticRm {
    fn name(&self) -> &str {
        if self.spill {
            "static-spill"
        } else {
            "static"
        }
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        // Rebuild the fixed plan: every active task stays exactly where it
        // is; only the arriving task is placed.
        let mut pool = TimelinePool::new();
        let mut plan = PlanBuilder::new(activation, &mut pool);
        let mut assignments = Vec::with_capacity(activation.active.len() + 1);
        let mut objective = Energy::ZERO;
        for job in activation.active {
            let placement = job.placement.expect("active jobs are placed");
            let stay = candidates(job, activation.platform, activation.catalog, false)
                .into_iter()
                .find(|c| c.resource == placement.resource && !c.restart)
                .expect("staying in place is always a candidate");
            plan.place(job, &stay);
            objective += stay.energy;
            assignments.push(Assignment {
                key: job.key,
                resource: stay.resource,
                restart: false,
                speed: stay.speed,
            });
        }

        let job = &activation.arriving;
        let prefs = &self.preference[job.task_type.index()];
        let options = if self.spill { prefs.len() } else { 1 };
        for &resource in prefs.iter().take(options) {
            // Cheapest schedulable placement at this resource (with DVFS,
            // several speed levels exist; try energy-ascending).
            let mut at_resource: Vec<_> =
                candidates(job, activation.platform, activation.catalog, false)
                    .into_iter()
                    .filter(|c| c.resource == resource)
                    .collect();
            at_resource.sort_by_key(|a| a.energy);
            // `try_place` keeps the first placement that fits.
            let Some(c) = at_resource
                .into_iter()
                .find(|c| c.exec <= job.time_left(activation.now) && plan.try_place(job, c))
            else {
                continue;
            };
            assignments.push(Assignment {
                key: job.key,
                resource,
                restart: false,
                speed: c.speed,
            });
            return Decision {
                admitted: true,
                assignments,
                objective: objective + c.energy,
                used_prediction: false,
                nodes: 1,
                start_gates: Vec::new(),
                solver_timeouts: 0,
                degraded: false,
            };
        }
        Decision::reject()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{JobView, Placement};
    use rtrm_platform::{Platform, TaskType, TaskTypeId, Time};
    use rtrm_sched::JobKey;

    fn world() -> (Platform, TaskCatalog) {
        let platform = Platform::builder().cpus(1).gpu("g").build();
        let ids: Vec<_> = platform.ids().collect();
        let ty = TaskType::builder(0, &platform)
            .profile(ids[0], Time::new(4.0), Energy::new(4.0))
            .profile(ids[1], Time::new(2.0), Energy::new(1.0))
            .build();
        (platform, TaskCatalog::new(vec![ty]))
    }

    fn fresh(key: u64, release: f64, deadline: f64) -> JobView {
        JobView::fresh(
            JobKey(key),
            TaskTypeId::new(0),
            Time::new(release),
            Time::new(deadline),
        )
    }

    #[test]
    fn maps_to_design_time_resource() {
        let (platform, catalog) = world();
        let mut rm = StaticRm::new(&catalog);
        let d = rm.decide(&Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &[],
            arriving: fresh(0, 0.0, 10.0),
            predicted: &[],
        });
        assert!(d.admitted);
        assert_eq!(
            d.assignments[0].resource,
            ResourceId::new(1),
            "GPU is cheapest"
        );
    }

    #[test]
    fn no_spill_rejects_when_static_resource_full() {
        let (platform, catalog) = world();
        // Two active tasks keep the GPU busy until t=4 (one running, one
        // queued ahead by deadline); an arrival finishes there at t=6.
        let mut running = fresh(0, 0.0, 10.0);
        running.placement = Some(Placement {
            resource: ResourceId::new(1),
            remaining_fraction: 1.0,
            started: true,
            speed: 1.0,
        });
        // The queued task's deadline (4.9) is earlier than the arriving
        // task's, so EDF cannot slot the arrival ahead of it.
        let mut queued = fresh(1, 0.0, 4.9);
        queued.placement = Some(Placement {
            resource: ResourceId::new(1),
            remaining_fraction: 1.0,
            started: false,
            speed: 1.0,
        });
        let active = [running, queued];
        // Deadline 3: infeasible everywhere (GPU finish 6, CPU finish 4).
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving: fresh(2, 0.0, 3.0),
            predicted: &[],
        };
        let mut strict = StaticRm::new(&catalog);
        let mut spill = StaticRm::with_spill(&catalog);
        assert!(!strict.decide(&activation).admitted);
        assert!(!spill.decide(&activation).admitted);
        // Deadline 5: GPU still infeasible (finish 6) but the CPU works.
        let relaxed = Activation {
            arriving: fresh(3, 0.0, 5.0),
            ..activation
        };
        assert!(!strict.decide(&relaxed).admitted, "no spill, no admission");
        let d = spill.decide(&relaxed);
        assert!(d.admitted);
        assert_eq!(
            d.assignments.last().unwrap().resource,
            ResourceId::new(0),
            "spilled to the CPU"
        );
    }

    #[test]
    fn never_migrates_active_tasks() {
        let (platform, catalog) = world();
        let mut active = fresh(0, 0.0, 30.0);
        active.placement = Some(Placement {
            resource: ResourceId::new(0), // parked on the CPU
            remaining_fraction: 0.5,
            started: true,
            speed: 1.0,
        });
        let mut rm = StaticRm::with_spill(&catalog);
        let d = rm.decide(&Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &[active],
            arriving: fresh(1, 0.0, 10.0),
            predicted: &[],
        });
        assert!(d.admitted);
        let a0 = d.assignments.iter().find(|a| a.key == JobKey(0)).unwrap();
        assert_eq!(a0.resource, ResourceId::new(0), "active task stays put");
    }

    #[test]
    fn ignores_prediction() {
        let (platform, catalog) = world();
        let phantom = fresh(9, 1.0, 3.0);
        let mut rm = StaticRm::new(&catalog);
        let d = rm.decide(&Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &[],
            arriving: fresh(0, 0.0, 10.0),
            predicted: std::slice::from_ref(&phantom),
        });
        assert!(d.admitted);
        assert!(!d.used_prediction);
    }
}
