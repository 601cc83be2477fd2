//! Verdict-safe candidate pruning: the per-activation candidate table.
//!
//! At paper scale the managers can afford to rebuild every job's candidate
//! list from scratch for every rung of the phantom-fallback ladder — and the
//! heuristic even re-filters, re-clones, and re-sorts those lists once per
//! mapping iteration. At hundreds of resources that work dominates the
//! decide path. [`CandidateTable`] removes it without changing a single
//! decision:
//!
//! * **one build per decide** — rows for *all* jobs (active, arriving, every
//!   phantom) are materialized once and shared across all fallback rungs
//!   (rung `k` reads the prefix of `n_real + k` rows);
//! * **index-backed rows** — a fresh job's candidates are a pure function of
//!   its task type, so when a [`PlatformIndex`] is installed the row is
//!   *borrowed* from it instead of being recomputed (the index stores the
//!   same `(resource, speed)` placements, pre-sorted in the managers'
//!   candidate order);
//! * **sorted once** — owned rows are stable-sorted by `(energy, resource)`
//!   at build time; per-rung deadline filters and per-iteration capacity
//!   filters commute with a stable sort, so filtering *while scanning the
//!   pre-sorted row* reproduces the legacy scan order exactly;
//! * **partitioned desirability scans** — the heuristic's desirability order
//!   (energy plus a penalty `M` for deadline-infeasible placements) is the
//!   stable partition `[unpenalized | penalized]` of the `(energy,
//!   resource)`-sorted row, so [`RankedScan`] yields it in two passes with
//!   no per-iteration sort and no allocation;
//! * **prefix maxima** — the penalty weight `M = 2·max_energy + 1` of rung
//!   `k` needs the maximum candidate energy over that rung's jobs, which is
//!   [`CandidateTable::penalty_weight`]'s O(1) prefix-maximum read instead
//!   of a per-rung table flatten;
//! * **one table for both searches** — a table built with GPU restarts in
//!   place (the exact search's rows) also serves the heuristic: ranked scans
//!   skip a job's in-place restart candidates, and the prefix maxima leave
//!   them out, so the heuristic reads exactly the restart-free rows it
//!   would have built (filtering commutes with the stable sort).
//!
//! The shortlist prefix of an index row is what a ranked scan touches in the
//! common case; continuing past it (because every shortlisted placement was
//! capacity- or deadline-infeasible) is the *widen-on-infeasibility*
//! fallback, counted in [`PruneStats::widened`]. Widening is a seamless
//! cursor continuation over the same sorted row, which is why verdicts (and
//! whole decisions) never change — see `DESIGN.md` §8 for the dominance
//! argument, including why a hard cross-resource Pareto filter must stay
//! advisory.

use rtrm_platform::{PlatformIndex, ResourceId, TaskTypeId, Time, DEFAULT_SHORTLIST};

use crate::activation::Activation;
use crate::cost::{candidates_into, Candidate};
use crate::view::JobView;

/// Counters describing how the pruned decide path behaved, cumulative over
/// the lifetime of the owning [`TimelinePool`](crate::TimelinePool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidate tables rebuilt (one per pruned decide).
    pub rebuilds: u64,
    /// Job rows borrowed from the installed
    /// [`PlatformIndex`] (fresh jobs).
    pub indexed_rows: u64,
    /// Job rows materialized through [`candidates`](crate::candidates)
    /// (placed jobs, or no index installed).
    pub owned_rows: u64,
    /// Ranked scans performed that widened past the shortlist prefix
    /// because every shortlisted placement was capacity- or
    /// deadline-infeasible. It counts scans, not jobs: the heuristic
    /// reuses a job's first two hits while they still fit instead of
    /// rescanning, and a reused pair adds nothing here.
    pub widened: u64,
}

/// How one job's candidate row is stored.
#[derive(Debug, Clone, Copy)]
enum RowKind {
    /// `arena[start..start + len]`. `in_place` is the GPU the job runs on
    /// when the row holds restarts in place there, which ranked scans skip.
    Owned {
        start: usize,
        len: usize,
        in_place: Option<ResourceId>,
    },
    /// Borrowed from the [`PlatformIndex`] the table was built with.
    Indexed { ty: TaskTypeId },
}

/// The candidate rows of one activation, built once per decide and shared
/// across every rung of the phantom-fallback ladder.
///
/// Tables are recycled: a [`TimelinePool`](crate::TimelinePool) keeps one
/// and the managers [`rebuild`](CandidateTable::rebuild) it in place, so the
/// steady-state decide path performs no candidate allocations at all.
#[derive(Debug, Clone, Default)]
pub struct CandidateTable {
    /// All jobs of the activation: active, arriving, then every phantom —
    /// rung `k` of the ladder reads the prefix of `n_real + k` entries.
    jobs: Vec<JobView>,
    rows: Vec<RowKind>,
    /// Backing storage for every owned row.
    arena: Vec<Candidate>,
    /// `prefix_max[i]`: largest candidate energy over `jobs[..=i]`, restarts
    /// in place left out, so each rung's penalty weight is an O(1) read that
    /// matches the legacy per-rung flatten of the restart-free table bit for
    /// bit.
    prefix_max: Vec<f64>,
    shortlist: usize,
    stats: PruneStats,
}

impl CandidateTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        CandidateTable::default()
    }

    /// Rebuilds the table in place for one activation.
    ///
    /// With `sorted`, owned rows are stable-sorted by `(energy, resource)` —
    /// the candidate order of [`HeuristicRm`](crate::HeuristicRm) and
    /// [`ExactRm`](crate::ExactRm); without it they keep
    /// [`candidates`](crate::candidates) emission order (the MILP encoding's
    /// variable order). Index-backed rows are only used when `sorted` (the
    /// index pre-sorts the same order) and the job is fresh; placed jobs
    /// always materialize through the cost model, which is the only place
    /// migration and abort costs exist. With `gpu_restart_in_place` the
    /// rows also hold the restarts in place of
    /// [`candidates`](crate::candidates); ranked scans and
    /// [`penalty_weight`](CandidateTable::penalty_weight) leave them out.
    pub fn rebuild(
        &mut self,
        activation: &Activation<'_>,
        sorted: bool,
        gpu_restart_in_place: bool,
        index: Option<&PlatformIndex>,
    ) {
        self.jobs.clear();
        self.rows.clear();
        self.arena.clear();
        self.prefix_max.clear();
        self.jobs.extend(activation.jobs_with_prediction().copied());
        self.shortlist = index.map_or(DEFAULT_SHORTLIST, PlatformIndex::shortlist_len);
        self.stats.rebuilds += 1;

        let mut running_max = 0.0f64;
        for job in &self.jobs {
            let indexed = sorted
                && job.placement.is_none()
                && index.is_some_and(|ix| ix.matches(activation.platform, activation.catalog));
            let row_max = if indexed {
                self.rows.push(RowKind::Indexed { ty: job.task_type });
                self.stats.indexed_rows += 1;
                // Index rows are energy-ascending: the maximum is the tail.
                index
                    .expect("indexed implies index")
                    .row(job.task_type)
                    .last()
                    .map_or(0.0, |p| p.energy.value())
            } else {
                let start = self.arena.len();
                candidates_into(
                    job,
                    activation.platform,
                    activation.catalog,
                    gpu_restart_in_place,
                    &mut self.arena,
                );
                let row = &mut self.arena[start..];
                if sorted {
                    // Stable over emission order: exactly the comparator the
                    // managers sorted per-rung lists with.
                    row.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
                }
                let in_place = job
                    .placement
                    .map(|p| p.resource)
                    .filter(|_| gpu_restart_in_place);
                let len = row.len();
                self.rows.push(RowKind::Owned {
                    start,
                    len,
                    in_place,
                });
                self.stats.owned_rows += 1;
                row.iter()
                    .filter(|c| !restarts_in_place(c, in_place))
                    .map(|c| c.energy.value())
                    .fold(0.0, f64::max)
            };
            running_max = running_max.max(row_max);
            self.prefix_max.push(running_max);
        }
    }

    /// All jobs of the activation (rung `k` is the prefix of
    /// `n_real + k` entries).
    #[must_use]
    pub fn jobs(&self) -> &[JobView] {
        &self.jobs
    }

    /// The penalty weight `M = 2·max_energy + 1` for a rung planning the
    /// first `n_jobs` jobs — identical to the legacy per-rung computation
    /// over the rung's restart-free candidate table, as an O(1)
    /// prefix-maximum read.
    ///
    /// # Panics
    ///
    /// Panics if `n_jobs` is zero or exceeds the table's job count.
    #[must_use]
    pub fn penalty_weight(&self, n_jobs: usize) -> f64 {
        2.0 * self.prefix_max[n_jobs - 1] + 1.0
    }

    /// Cumulative behaviour counters.
    #[must_use]
    pub fn stats(&self) -> PruneStats {
        self.stats
    }

    /// Splits the table into the job list and a row accessor, so a solver
    /// can hold job views and scan rows at the same time. Ranked scans
    /// count their widenings in [`stats`](CandidateTable::stats).
    pub(crate) fn parts(&mut self) -> (&[JobView], RowAccess<'_>) {
        let CandidateTable {
            jobs,
            rows,
            arena,
            stats,
            shortlist,
            ..
        } = self;
        (
            jobs,
            RowAccess {
                rows,
                arena,
                stats: Some(stats),
                shortlist: *shortlist,
            },
        )
    }

    /// Like [`parts`](CandidateTable::parts), over a shared table and with
    /// scans that count nowhere: the exact managers' seeds and floors scan
    /// the rows their search reads without touching the decide's counters.
    pub(crate) fn uncounted(&self) -> (&[JobView], RowAccess<'_>) {
        (
            &self.jobs,
            RowAccess {
                rows: &self.rows,
                arena: &self.arena,
                stats: None,
                shortlist: self.shortlist,
            },
        )
    }
}

/// Whether `c` restarts its job in place on `in_place`, the GPU it runs on.
fn restarts_in_place(c: &Candidate, in_place: Option<ResourceId>) -> bool {
    c.restart && in_place == Some(c.resource)
}

/// Scanning access to the rows of a [`CandidateTable`].
#[derive(Debug)]
pub(crate) struct RowAccess<'a> {
    rows: &'a [RowKind],
    arena: &'a [Candidate],
    stats: Option<&'a mut PruneStats>,
    shortlist: usize,
}

/// Consumes one row's candidates from [`RowAccess::filtered`].
pub(crate) trait RowSink {
    /// What the sink makes of the row.
    type Out;
    /// Takes the row.
    fn take(self, row: impl Iterator<Item = Candidate>) -> Self::Out;
}

/// One resolved row: either the arena slice or the borrowed index row.
#[derive(Debug, Clone, Copy)]
enum RowSlice<'a> {
    Owned(&'a [Candidate]),
    Indexed(&'a [rtrm_platform::RankedPlacement]),
}

impl RowSlice<'_> {
    fn len(&self) -> usize {
        match self {
            RowSlice::Owned(s) => s.len(),
            RowSlice::Indexed(s) => s.len(),
        }
    }

    fn get(&self, i: usize) -> Candidate {
        match self {
            RowSlice::Owned(s) => s[i],
            RowSlice::Indexed(s) => {
                let p = s[i];
                Candidate {
                    resource: p.resource,
                    exec: p.wcet,
                    energy: p.energy,
                    pinned: false,
                    restart: false,
                    speed: p.speed,
                }
            }
        }
    }
}

impl<'a> RowAccess<'a> {
    fn resolve<'s>(&'s self, j: usize, index: Option<&'s PlatformIndex>) -> RowSlice<'s> {
        match self.rows[j] {
            RowKind::Owned { start, len, .. } => RowSlice::Owned(&self.arena[start..start + len]),
            RowKind::Indexed { ty } => RowSlice::Indexed(
                index
                    .expect("table built with an index must be scanned with it")
                    .row(ty),
            ),
        }
    }

    /// Hands job `j`'s deadline-feasible candidates (`exec <= tleft`), in
    /// stored order, to `sink` — the exact search's rows, read once per
    /// decide. Each storage kind gets its own monomorphic sweep.
    pub(crate) fn filtered<S: RowSink>(
        &self,
        j: usize,
        tleft: Time,
        index: Option<&PlatformIndex>,
        sink: S,
    ) -> S::Out {
        match self.resolve(j, index) {
            RowSlice::Owned(s) => sink.take(s.iter().copied().filter(|c| c.exec <= tleft)),
            RowSlice::Indexed(s) => {
                sink.take(s.iter().filter(|p| p.wcet <= tleft).map(|p| Candidate {
                    resource: p.resource,
                    exec: p.wcet,
                    energy: p.energy,
                    pinned: false,
                    restart: false,
                    speed: p.speed,
                }))
            }
        }
    }

    /// Scans job `j`'s row in the heuristic's desirability order: all
    /// deadline-feasible (`exec <= tleft`) candidates by `(energy,
    /// resource)`, then the penalized remainder in the same order, restarts
    /// in place skipped. Requires a `sorted` table.
    pub(crate) fn ranked<'s>(
        &'s mut self,
        j: usize,
        tleft: Time,
        index: Option<&'s PlatformIndex>,
    ) -> RankedScan<'s> {
        let RowAccess {
            rows,
            arena,
            stats,
            shortlist,
        } = self;
        let (row, in_place) = match rows[j] {
            RowKind::Owned {
                start,
                len,
                in_place,
            } => (RowSlice::Owned(&arena[start..start + len]), in_place),
            RowKind::Indexed { ty } => (
                RowSlice::Indexed(
                    index
                        .expect("table built with an index must be scanned with it")
                        .row(ty),
                ),
                None,
            ),
        };
        RankedScan {
            row,
            in_place,
            stats: stats.as_deref_mut(),
            shortlist: *shortlist,
            tleft,
            pos: 0,
            pass: 0,
            penalized_seen: false,
            widened: false,
        }
    }
}

/// A desirability-ordered scan over one row (see [`RowAccess::ranked`]):
/// two passes over the `(energy, resource)`-sorted row, unpenalized
/// candidates first — the stable partition that *is* the legacy sort order,
/// without sorting anything per iteration.
#[derive(Debug)]
pub(crate) struct RankedScan<'a> {
    row: RowSlice<'a>,
    /// The GPU whose restarts in place the scan skips.
    in_place: Option<ResourceId>,
    stats: Option<&'a mut PruneStats>,
    shortlist: usize,
    tleft: Time,
    pos: usize,
    pass: u8,
    penalized_seen: bool,
    widened: bool,
}

impl RankedScan<'_> {
    /// The next candidate in desirability order, with its penalty flag
    /// (`true` when `exec > tleft`, i.e. desirability carries `+M`).
    pub(crate) fn next(&mut self) -> Option<(Candidate, bool)> {
        loop {
            if self.pos >= self.row.len() {
                if self.pass == 0 && self.penalized_seen {
                    self.pass = 1;
                    self.pos = 0;
                    continue;
                }
                return None;
            }
            let rank = self.pos;
            self.pos += 1;
            let c = self.row.get(rank);
            if restarts_in_place(&c, self.in_place) {
                continue;
            }
            let penalized = c.exec > self.tleft;
            self.penalized_seen |= penalized;
            if penalized == (self.pass == 1) {
                if !self.widened && rank >= self.shortlist {
                    self.widened = true;
                    if let Some(stats) = self.stats.as_deref_mut() {
                        stats.widened += 1;
                    }
                }
                return Some((c, penalized));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType};
    use rtrm_sched::JobKey;

    /// Collects a row.
    struct Collect;

    impl RowSink for Collect {
        type Out = Vec<Candidate>;
        fn take(self, row: impl Iterator<Item = Candidate>) -> Vec<Candidate> {
            row.collect()
        }
    }

    /// Counts a row.
    struct Count;

    impl RowSink for Count {
        type Out = usize;
        fn take(self, row: impl Iterator<Item = Candidate>) -> usize {
            row.count()
        }
    }

    fn world() -> (Platform, TaskCatalog) {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("c0", &[0.5, 1.0]).cpus(1).gpu("g");
        let platform = b.build();
        let ids: Vec<_> = platform.ids().collect();
        let ty = TaskType::builder(0, &platform)
            .profile(ids[0], Time::new(8.0), Energy::new(4.0))
            .profile(ids[1], Time::new(6.0), Energy::new(5.0))
            .profile(ids[2], Time::new(5.0), Energy::new(2.0))
            .build();
        (platform, TaskCatalog::new(vec![ty]))
    }

    fn activation<'a>(
        platform: &'a Platform,
        catalog: &'a TaskCatalog,
        arriving: &'a JobView,
        predicted: &'a [JobView],
    ) -> Activation<'a> {
        Activation {
            now: Time::ZERO,
            platform,
            catalog,
            active: &[],
            arriving: *arriving,
            predicted,
        }
    }

    #[test]
    fn indexed_and_owned_rows_scan_identically() {
        let (platform, catalog) = world();
        let arriving = JobView::fresh(
            JobKey(0),
            rtrm_platform::TaskTypeId::new(0),
            Time::ZERO,
            Time::new(12.0),
        );
        let act = activation(&platform, &catalog, &arriving, &[]);
        let index = PlatformIndex::build(&platform, &catalog);

        let mut owned = CandidateTable::new();
        owned.rebuild(&act, true, false, None);
        let mut indexed = CandidateTable::new();
        indexed.rebuild(&act, true, false, Some(&index));
        assert_eq!(owned.stats().owned_rows, 1);
        assert_eq!(indexed.stats().indexed_rows, 1);

        let (_, rows_o) = owned.uncounted();
        let (_, rows_i) = indexed.uncounted();
        let forever = Time::new(f64::INFINITY);
        let a = rows_o.filtered(0, forever, None, Collect);
        let b = rows_i.filtered(0, forever, Some(&index), Collect);
        assert_eq!(a, b);
        assert_eq!(
            owned.penalty_weight(1),
            indexed.penalty_weight(1),
            "prefix maxima agree between storage kinds"
        );
    }

    #[test]
    fn ranked_scan_partitions_by_deadline_feasibility() {
        let (platform, catalog) = world();
        // tleft = 7: c0@0.5 (exec 16) and c0@1.0 (exec 8) are penalized;
        // cpu1 (6) and gpu (5) are not.
        let arriving = JobView::fresh(
            JobKey(0),
            rtrm_platform::TaskTypeId::new(0),
            Time::ZERO,
            Time::new(7.0),
        );
        let act = activation(&platform, &catalog, &arriving, &[]);
        let mut table = CandidateTable::new();
        table.rebuild(&act, true, false, None);
        let (jobs, mut rows) = table.parts();
        let tleft = jobs[0].time_left(Time::ZERO);
        let mut scan = rows.ranked(0, tleft, None);
        let mut order = Vec::new();
        while let Some((c, penalized)) = scan.next() {
            order.push((c.energy.value(), penalized));
        }
        // Unpenalized energy-ascending, then penalized energy-ascending —
        // the legacy (desirability, resource) sort order.
        assert_eq!(
            order,
            vec![(2.0, false), (5.0, false), (1.0, true), (4.0, true)]
        );
    }

    /// A job running on the GPU: the table built with restarts in place
    /// holds its restart there, yet its ranked scans and its penalty
    /// weight equal the restart-free table's.
    #[test]
    fn ranked_scans_skip_restarts_in_place() {
        let (platform, catalog) = world();
        let ids: Vec<_> = platform.ids().collect();
        let mut running = JobView::fresh(
            JobKey(0),
            rtrm_platform::TaskTypeId::new(0),
            Time::ZERO,
            Time::new(30.0),
        );
        running.placement = Some(crate::view::Placement::new(ids[2], 0.5, true));
        let active = [running];
        let act = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving: JobView::fresh(
                JobKey(1),
                rtrm_platform::TaskTypeId::new(0),
                Time::ZERO,
                Time::new(9.0),
            ),
            predicted: &[],
        };
        let mut with = CandidateTable::new();
        with.rebuild(&act, true, true, None);
        let mut without = CandidateTable::new();
        without.rebuild(&act, true, false, None);
        let forever = Time::new(f64::INFINITY);
        let len = |table: &CandidateTable| {
            let (_, rows) = table.uncounted();
            rows.filtered(0, forever, None, Count)
        };
        assert_eq!(len(&with), len(&without) + 1, "one restart in place");
        for tleft in [forever, Time::new(5.5)] {
            let scan = |table: &CandidateTable| {
                let (_, mut rows) = table.uncounted();
                let mut scan = rows.ranked(0, tleft, None);
                std::iter::from_fn(|| scan.next()).collect::<Vec<_>>()
            };
            assert_eq!(scan(&with), scan(&without), "tleft {tleft:?}");
        }
        assert_eq!(with.penalty_weight(2), without.penalty_weight(2));
    }

    #[test]
    fn ranked_scan_counts_widening_past_the_shortlist() {
        let (platform, catalog) = world();
        let index = PlatformIndex::with_shortlist(&platform, &catalog, 2);
        let arriving = JobView::fresh(
            JobKey(0),
            rtrm_platform::TaskTypeId::new(0),
            Time::ZERO,
            Time::new(30.0),
        );
        let act = activation(&platform, &catalog, &arriving, &[]);
        let mut table = CandidateTable::new();
        table.rebuild(&act, true, false, Some(&index));
        {
            let (_, mut rows) = table.parts();
            let mut scan = rows.ranked(0, Time::new(30.0), Some(&index));
            scan.next();
            scan.next();
        }
        assert_eq!(table.stats().widened, 0, "stopped inside the shortlist");
        {
            let (_, mut rows) = table.parts();
            let mut scan = rows.ranked(0, Time::new(30.0), Some(&index));
            while scan.next().is_some() {}
        }
        assert_eq!(table.stats().widened, 1, "exhausting the row widens once");
    }
}
