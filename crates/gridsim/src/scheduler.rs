//! The grid-level scheduling algorithm (paper §V.A).
//!
//! Two stages, exactly as described:
//!
//! 1. **Matchmaking filters** — drop resources that are offline, lack a
//!    compatible platform, memory, MPI capability, or a software
//!    dependency; and (when runtime estimates are available) drop *unstable*
//!    resources for jobs whose speed-scaled estimate exceeds the n-hour
//!    cutoff (n = 10 in production).
//! 2. **Ranking** — among the survivors, balance load corrected for
//!    measured resource speed: pick the resource with the least expected
//!    contention per unit of effective throughput.

use crate::job::JobSpec;
use crate::mds::ResourceState;
use crate::platform::{compatible, Platform};
use crate::resource::{ResourceId, ResourceSpec};
use serde::{Deserialize, Serialize};
use simkit::SimDuration;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Tunable scheduler behaviour (the paper's production values are the
/// defaults; the ablation experiments flip the booleans).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerPolicy {
    /// Whether a-priori runtime estimates are used for stability routing
    /// (the paper's headline contribution; `false` reproduces the pre-ML
    /// system).
    pub use_runtime_estimates: bool,
    /// Jobs estimated longer than this (after speed scaling) do not go to
    /// unstable resources. Paper: n = 10 hours.
    pub unstable_cutoff: SimDuration,
    /// Whether ranking and the cutoff use measured resource speeds
    /// (`false` reproduces the paper's naive algorithm, which "does not take
    /// into account resource speed").
    pub use_speed_scaling: bool,
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy {
            use_runtime_estimates: true,
            unstable_cutoff: SimDuration::from_hours(10),
            use_speed_scaling: true,
        }
    }
}

/// Everything the scheduler knows about one online resource at decision
/// time: static spec + latest MDS state + calibrated speed.
#[derive(Debug, Clone)]
pub struct ResourceView {
    /// Resource id.
    pub id: ResourceId,
    /// Human-readable name.
    pub name: String,
    /// Platforms advertised.
    pub platforms: Vec<Platform>,
    /// Memory per slot.
    pub memory_per_slot: u64,
    /// MPI capability.
    pub mpi_capable: bool,
    /// Advertised software.
    pub software: Vec<String>,
    /// Stability classification.
    pub stable: bool,
    /// Calibrated speed factor (1.0 = reference computer).
    pub measured_speed: f64,
    /// Latest dynamic state from MDS.
    pub state: ResourceState,
    /// Estimated seconds to stage the job's inputs here, filled by the grid
    /// when data-aware scheduling ([`crate::DataPolicy::Aware`]) is enabled;
    /// `None` keeps the original data-blind behaviour.
    pub stage_in_seconds: Option<f64>,
}

impl ResourceView {
    /// Assemble a view from a spec, its latest MDS state, and the
    /// calibrated speed.
    pub fn new(
        id: ResourceId,
        spec: &ResourceSpec,
        state: ResourceState,
        measured_speed: f64,
    ) -> ResourceView {
        ResourceView {
            id,
            name: spec.name.clone(),
            platforms: spec.platforms.clone(),
            memory_per_slot: spec.memory_per_slot,
            mpi_capable: spec.mpi_capable,
            software: spec.software.clone(),
            stable: spec.stable,
            measured_speed,
            state,
            stage_in_seconds: None,
        }
    }
}

/// Why the matchmaker rejected a resource (for tracing and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// No common platform.
    Platform,
    /// Not enough memory per slot.
    Memory,
    /// Job needs MPI, resource lacks it.
    Mpi,
    /// Missing software dependency.
    Software,
    /// Estimated runtime exceeds the unstable-resource cutoff.
    Stability,
}

impl RejectReason {
    /// Every reason, in filter order; `reason as usize` indexes this array
    /// (and [`DecisionTally::rejects`]).
    pub const ALL: [RejectReason; 5] = [
        RejectReason::Platform,
        RejectReason::Memory,
        RejectReason::Mpi,
        RejectReason::Software,
        RejectReason::Stability,
    ];

    /// Stable lowercase label, used as a metrics-key suffix
    /// (`scheduler.reject.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Platform => "platform",
            RejectReason::Memory => "memory",
            RejectReason::Mpi => "mpi",
            RejectReason::Software => "software",
            RejectReason::Stability => "stability",
        }
    }
}

/// Check all matchmaking filters for one resource. `Ok(())` = eligible.
pub fn matches(
    job: &JobSpec,
    view: &ResourceView,
    policy: &SchedulerPolicy,
) -> Result<(), RejectReason> {
    if !compatible(&job.platforms, &view.platforms) {
        return Err(RejectReason::Platform);
    }
    if job.min_memory_bytes > view.memory_per_slot {
        return Err(RejectReason::Memory);
    }
    if job.needs_mpi && !view.mpi_capable {
        return Err(RejectReason::Mpi);
    }
    if job.slots_required > 1 && (!view.mpi_capable || view.state.total_slots < job.slots_required)
    {
        return Err(RejectReason::Mpi);
    }
    if !job.software_deps.iter().all(|d| view.software.contains(d)) {
        return Err(RejectReason::Software);
    }
    if !view.stable && policy.use_runtime_estimates {
        let speed = if policy.use_speed_scaling {
            view.measured_speed
        } else {
            1.0
        };
        if let Some(secs) = job.assumed_seconds_at(speed) {
            // Data-aware scheduling: the slot is held from dispatch, so the
            // stage-in delay counts against the same stability budget.
            let total = secs + view.stage_in_seconds.unwrap_or(0.0);
            if total > policy.unstable_cutoff.as_secs_f64() {
                return Err(RejectReason::Stability);
            }
        }
        // No estimate available: the pre-ML system had no basis to refuse,
        // so the job is (optimistically) allowed through.
    }
    Ok(())
}

/// One hour of stage-in delay costs as much as one full unit of contention
/// in [`score`]; the divisor converts the estimate into score units.
const STAGE_IN_RANK_SECONDS: f64 = 3600.0;

/// Ranking score: expected contention per unit effective throughput; lower
/// is better. "The scheduler attempts to keep jobs from backing up on any
/// single resource", corrected for resource speed (§V.A). When the grid
/// runs data-aware ([`ResourceView::stage_in_seconds`] is filled), the
/// estimated stage-in delay is added so warm caches and fast links win ties
/// and slow cold paths lose them.
pub fn score(view: &ResourceView, policy: &SchedulerPolicy) -> f64 {
    let speed = if policy.use_speed_scaling {
        view.measured_speed
    } else {
        1.0
    };
    let busy = (view.state.total_slots - view.state.free_slots) as f64;
    let pending = busy + view.state.queued_jobs as f64;
    let contention = (pending + 1.0) / (view.state.total_slots.max(1) as f64 * speed);
    contention + view.stage_in_seconds.unwrap_or(0.0) / STAGE_IN_RANK_SECONDS
}

/// The ranking order every matchmaker uses on eligible views, each keyed
/// `(score, measured speed, id)`: lower score first, then higher speed, then
/// lower id. Ids are unique, so the order is total.
pub fn rank_order(a: (f64, f64, ResourceId), b: (f64, f64, ResourceId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap()
        .then(b.1.partial_cmp(&a.1).unwrap())
        .then(a.2.cmp(&b.2))
}

fn rank_key(view: &ResourceView, policy: &SchedulerPolicy) -> (f64, f64, ResourceId) {
    (score(view, policy), view.measured_speed, view.id)
}

/// Full scheduling decision: filter, then rank by [`rank_order`].
pub fn choose_resource(
    job: &JobSpec,
    views: &[ResourceView],
    policy: &SchedulerPolicy,
) -> Option<ResourceId> {
    views
        .iter()
        .filter(|v| matches(job, v, policy).is_ok())
        .min_by(|a, b| rank_order(rank_key(a, policy), rank_key(b, policy)))
        .map(|v| v.id)
}

/// What one walk of the matchmaker saw, counted while it ranks: enough for
/// telemetry's `scheduler.decision` event and `scheduler.reject.*`
/// counters without a per-candidate record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecisionTally {
    /// The winning resource, if any candidate was eligible.
    pub chosen: Option<ResourceId>,
    /// Candidates walked: online, not blacklisted, not excluded.
    pub candidates: usize,
    /// Candidates that passed every matchmaking filter.
    pub eligible: usize,
    /// Rejected candidates per reason, indexed by `reason as usize`.
    pub rejects: [u64; RejectReason::ALL.len()],
    /// The stage-in estimate the ranker saw for the winner (`None` when the
    /// grid is data-blind or nothing was chosen).
    pub chosen_stage_in: Option<f64>,
}

/// The grid's matchmaker. Walks the resource ids `ids` over the id-indexed
/// view table `views` (`None` = offline or blacklisted), skipping ids in
/// `excluded`. Each walked view gets its stage-in estimate from `stage_in`
/// when the grid is data-aware, is filtered by [`matches()`], and competes
/// under [`rank_order`].
///
/// `ids` may be any superset of the eligible resources: the grid passes a
/// [`crate::index::DispatchIndex`] capability class, or every id when
/// telemetry wants a reject reason for each candidate. Resources outside
/// the class always fail [`matches()`], so both choose the same resource.
pub fn choose_in_table(
    job: &JobSpec,
    ids: &[usize],
    views: &mut [Option<ResourceView>],
    excluded: Option<&HashSet<usize>>,
    stage_in: Option<impl Fn(usize) -> f64>,
    policy: &SchedulerPolicy,
) -> DecisionTally {
    let mut tally = DecisionTally::default();
    let mut best: Option<(f64, f64, ResourceId)> = None;
    for &r in ids {
        if excluded.is_some_and(|ex| ex.contains(&r)) {
            continue;
        }
        let Some(v) = views[r].as_mut() else {
            continue;
        };
        if let Some(estimate) = &stage_in {
            v.stage_in_seconds = Some(estimate(r));
        }
        tally.candidates += 1;
        if let Err(reason) = matches(job, v, policy) {
            tally.rejects[reason as usize] += 1;
            continue;
        }
        tally.eligible += 1;
        let key = rank_key(v, policy);
        if best.is_none_or(|b| rank_order(key, b).is_lt()) {
            best = Some(key);
            tally.chosen_stage_in = v.stage_in_seconds;
        }
    }
    tally.chosen = best.map(|(_, _, id)| id);
    tally
}

/// One candidate's fate in an explained scheduling decision: the rank inputs
/// the scheduler saw (load, speed, stability) plus either its score or the
/// matchmaking filter that rejected it.
#[derive(Debug, Clone, Serialize)]
pub struct CandidateDecision {
    /// Resource id.
    pub id: ResourceId,
    /// Human-readable name.
    pub name: String,
    /// True iff the candidate survived all matchmaking filters.
    pub eligible: bool,
    /// The filter that rejected it (`None` when eligible).
    pub reject: Option<RejectReason>,
    /// Ranking score (lower is better; `None` when rejected).
    pub score: Option<f64>,
    /// Load proxy from the candidate's MDS state.
    pub load: f64,
    /// Calibrated speed factor.
    pub speed: f64,
    /// Stability classification at decision time.
    pub stable: bool,
    /// Estimated stage-in seconds the ranker saw (`None` when the grid is
    /// data-blind).
    pub stage_in_seconds: Option<f64>,
}

/// A full matchmaking + ranking decision with per-candidate reasoning, for
/// telemetry (`scheduler.decision` events) and offline debugging.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleDecision {
    /// The winning resource, if any candidate was eligible.
    pub chosen: Option<ResourceId>,
    /// Every candidate considered, in view order.
    pub candidates: Vec<CandidateDecision>,
}

/// Like [`choose_resource`], but records why each candidate was kept or
/// rejected. Uses the identical filter, score, and tie-break, so
/// `choose_resource_explained(..).chosen == choose_resource(..)` always.
pub fn choose_resource_explained(
    job: &JobSpec,
    views: &[ResourceView],
    policy: &SchedulerPolicy,
) -> ScheduleDecision {
    let candidates: Vec<CandidateDecision> = views
        .iter()
        .map(|v| {
            let reject = matches(job, v, policy).err();
            let eligible = reject.is_none();
            CandidateDecision {
                id: v.id,
                name: v.name.clone(),
                eligible,
                reject,
                score: eligible.then(|| score(v, policy)),
                load: v.state.load(),
                speed: v.measured_speed,
                stable: v.stable,
                stage_in_seconds: v.stage_in_seconds,
            }
        })
        .collect();
    ScheduleDecision {
        chosen: choose_resource(job, views, policy),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn idle_state(slots: usize) -> ResourceState {
        ResourceState {
            free_slots: slots,
            total_slots: slots,
            queued_jobs: 0,
        }
    }

    fn cluster_view(id: usize, slots: usize, speed: f64) -> ResourceView {
        let spec = ResourceSpec::cluster(&format!("c{id}"), ResourceKind::PbsCluster, slots, speed);
        ResourceView::new(ResourceId(id), &spec, idle_state(slots), speed)
    }

    fn condor_view(id: usize, slots: usize, speed: f64) -> ResourceView {
        let spec = ResourceSpec::condor_pool(&format!("p{id}"), slots, speed, 8.0);
        ResourceView::new(ResourceId(id), &spec, idle_state(slots), speed)
    }

    #[test]
    fn platform_filter() {
        let mut job = JobSpec::simple(1, 100.0);
        job.platforms = vec![Platform::MAC_PPC];
        let v = cluster_view(0, 8, 1.0); // Linux x64 only
        assert_eq!(
            matches(&job, &v, &SchedulerPolicy::default()),
            Err(RejectReason::Platform)
        );
    }

    #[test]
    fn memory_filter() {
        let mut job = JobSpec::simple(1, 100.0);
        job.min_memory_bytes = 64 << 30;
        let v = cluster_view(0, 8, 1.0);
        assert_eq!(
            matches(&job, &v, &SchedulerPolicy::default()),
            Err(RejectReason::Memory)
        );
    }

    #[test]
    fn mpi_and_software_filters() {
        let mut job = JobSpec::simple(1, 100.0);
        job.needs_mpi = true;
        let condor = condor_view(0, 8, 1.0);
        assert_eq!(
            matches(&job, &condor, &SchedulerPolicy::default()),
            Err(RejectReason::Mpi)
        );
        let mut job2 = JobSpec::simple(2, 100.0);
        job2.software_deps = vec!["java".into()];
        assert_eq!(
            matches(&job2, &condor, &SchedulerPolicy::default()),
            Err(RejectReason::Software)
        );
        let cluster = cluster_view(1, 8, 1.0);
        assert!(matches(&job2, &cluster, &SchedulerPolicy::default()).is_ok());
    }

    #[test]
    fn stability_cutoff_blocks_long_jobs_on_unstable_resources() {
        let policy = SchedulerPolicy::default(); // 10h cutoff
        let condor = condor_view(0, 8, 1.0);
        let long = JobSpec::simple(1, 100.0).with_estimate(11.0 * 3600.0);
        assert_eq!(
            matches(&long, &condor, &policy),
            Err(RejectReason::Stability)
        );
        let short = JobSpec::simple(2, 100.0).with_estimate(9.0 * 3600.0);
        assert!(matches(&short, &condor, &policy).is_ok());
        // Stable resources take anything.
        let cluster = cluster_view(1, 8, 1.0);
        assert!(matches(&long, &cluster, &policy).is_ok());
    }

    #[test]
    fn speed_scaling_affects_cutoff() {
        let policy = SchedulerPolicy::default();
        // 15 reference-hours on a speed-2.0 pool = 7.5h < 10h cutoff.
        let fast_condor = condor_view(0, 8, 2.0);
        let job = JobSpec::simple(1, 100.0).with_estimate(15.0 * 3600.0);
        assert!(matches(&job, &fast_condor, &policy).is_ok());
        // Without speed scaling the same job is rejected.
        let unscaled = SchedulerPolicy {
            use_speed_scaling: false,
            ..policy
        };
        assert_eq!(
            matches(&job, &fast_condor, &unscaled),
            Err(RejectReason::Stability)
        );
    }

    #[test]
    fn without_estimates_long_jobs_pass_the_stability_filter() {
        // The pre-ML ablation: no estimate, so nothing blocks a 100-hour job
        // from landing on a Condor pool.
        let policy = SchedulerPolicy {
            use_runtime_estimates: false,
            ..Default::default()
        };
        let condor = condor_view(0, 8, 1.0);
        let long = JobSpec::simple(1, 100.0 * 3600.0);
        assert!(matches(&long, &condor, &policy).is_ok());
    }

    #[test]
    fn ranking_prefers_idle_fast_resources() {
        let policy = SchedulerPolicy::default();
        let slow = cluster_view(0, 8, 0.5);
        let fast = cluster_view(1, 8, 2.0);
        let job = JobSpec::simple(1, 100.0).with_estimate(100.0);
        assert_eq!(
            choose_resource(&job, &[slow, fast], &policy),
            Some(ResourceId(1))
        );
    }

    #[test]
    fn ranking_spreads_away_from_loaded_resources() {
        let policy = SchedulerPolicy::default();
        let mut busy = cluster_view(0, 8, 1.0);
        busy.state = ResourceState {
            free_slots: 0,
            total_slots: 8,
            queued_jobs: 20,
        };
        let idle = cluster_view(1, 8, 1.0);
        let job = JobSpec::simple(1, 100.0);
        assert_eq!(
            choose_resource(&job, &[busy, idle], &policy),
            Some(ResourceId(1))
        );
    }

    #[test]
    fn naive_ranking_ignores_speed() {
        let policy = SchedulerPolicy {
            use_speed_scaling: false,
            ..Default::default()
        };
        let slow = cluster_view(0, 8, 0.25);
        let fast = cluster_view(1, 8, 4.0);
        // Equal load and slots: naive scoring ties; tie-break still prefers
        // the faster one (id-stable), but give slow a tiny load edge and the
        // naive scheduler now picks the *slow* resource.
        let mut fast2 = fast.clone();
        fast2.state.queued_jobs = 1;
        let job = JobSpec::simple(1, 100.0);
        assert_eq!(
            choose_resource(&job, &[slow.clone(), fast2.clone()], &policy),
            Some(ResourceId(0))
        );
        // With speed scaling on, the fast resource wins despite the queue.
        let smart = SchedulerPolicy::default();
        assert_eq!(
            choose_resource(&job, &[slow, fast2], &smart),
            Some(ResourceId(1))
        );
    }

    #[test]
    fn rank_order_breaks_score_ties_by_speed_then_id() {
        let id = ResourceId;
        assert!(rank_order((0.5, 1.0, id(3)), (0.6, 9.0, id(0))).is_lt());
        assert!(rank_order((0.5, 2.0, id(3)), (0.5, 1.0, id(0))).is_lt());
        assert!(rank_order((0.5, 1.0, id(0)), (0.5, 1.0, id(3))).is_lt());
        // Naive scoring ignores speed, so equal loads tie on score and the
        // faster resource wins even from the higher id.
        let naive = SchedulerPolicy {
            use_speed_scaling: false,
            ..Default::default()
        };
        let views = [cluster_view(0, 8, 0.5), cluster_view(1, 8, 2.0)];
        let job = JobSpec::simple(1, 100.0);
        assert_eq!(choose_resource(&job, &views, &naive), Some(ResourceId(1)));
    }

    #[test]
    fn no_eligible_resource_returns_none() {
        let policy = SchedulerPolicy::default();
        let mut job = JobSpec::simple(1, 100.0);
        job.needs_mpi = true;
        let condor = condor_view(0, 8, 1.0);
        assert_eq!(choose_resource(&job, &[condor], &policy), None);
    }

    #[test]
    fn explained_decision_agrees_with_choose_resource() {
        // Exercise mixed eligibility: a loaded cluster, a fast cluster, an
        // unstable condor pool with a long job, and an MPI-incapable pool.
        let policy = SchedulerPolicy::default();
        let mut busy = cluster_view(0, 8, 1.0);
        busy.state = ResourceState {
            free_slots: 2,
            total_slots: 8,
            queued_jobs: 5,
        };
        let views = vec![
            busy,
            cluster_view(1, 8, 2.0),
            condor_view(2, 16, 1.0),
            condor_view(3, 4, 0.5),
        ];
        let jobs = vec![
            JobSpec::simple(1, 100.0).with_estimate(100.0),
            JobSpec::simple(2, 100.0).with_estimate(20.0 * 3600.0),
            JobSpec::simple(3, 100.0),
        ];
        for job in &jobs {
            let explained = choose_resource_explained(job, &views, &policy);
            assert_eq!(explained.chosen, choose_resource(job, &views, &policy));
            assert_eq!(explained.candidates.len(), views.len());
            for c in &explained.candidates {
                assert_eq!(c.eligible, c.reject.is_none());
                assert_eq!(c.eligible, c.score.is_some());
            }
        }
        // The long-estimate job must show a Stability reject on the pools.
        let long = choose_resource_explained(&jobs[1], &views, &policy);
        assert_eq!(long.candidates[2].reject, Some(RejectReason::Stability));
    }

    #[test]
    fn explained_decision_agrees_when_every_candidate_is_rejected() {
        // Regression: with zero survivors the explained path must still
        // agree with the plain path (both None) and enumerate a concrete
        // reject reason for every candidate.
        let policy = SchedulerPolicy::default();
        let mut job = JobSpec::simple(1, 100.0);
        job.needs_mpi = true;
        job.software_deps = vec!["fortran-2003".into()];
        job.min_memory_bytes = 1 << 40;
        let views = vec![
            cluster_view(0, 8, 1.0),
            condor_view(1, 16, 1.0),
            condor_view(2, 4, 0.5),
        ];
        let explained = choose_resource_explained(&job, &views, &policy);
        assert_eq!(explained.chosen, None);
        assert_eq!(explained.chosen, choose_resource(&job, &views, &policy));
        assert_eq!(explained.candidates.len(), views.len());
        for c in &explained.candidates {
            assert!(!c.eligible);
            assert!(c.reject.is_some(), "rejected candidates carry a reason");
            assert_eq!(c.score, None);
        }
    }

    #[test]
    fn software_and_mpi_rejections_are_reported_distinctly() {
        // A Condor pool fails an MPI job on Mpi and a java job on Software:
        // the two filters must not collapse into one reason.
        let policy = SchedulerPolicy::default();
        let condor = condor_view(0, 8, 1.0);
        let mut mpi_job = JobSpec::simple(1, 100.0);
        mpi_job.needs_mpi = true;
        let mut sw_job = JobSpec::simple(2, 100.0);
        sw_job.software_deps = vec!["java".into()];
        let views = vec![condor];
        let mpi_decision = choose_resource_explained(&mpi_job, &views, &policy);
        let sw_decision = choose_resource_explained(&sw_job, &views, &policy);
        assert_eq!(mpi_decision.candidates[0].reject, Some(RejectReason::Mpi));
        assert_eq!(
            sw_decision.candidates[0].reject,
            Some(RejectReason::Software)
        );
        assert_ne!(
            mpi_decision.candidates[0].reject,
            sw_decision.candidates[0].reject
        );
        assert_ne!(RejectReason::Mpi.label(), RejectReason::Software.label());
    }

    #[test]
    fn stage_in_estimates_steer_ranking_when_present() {
        let policy = SchedulerPolicy::default();
        // Two identical idle clusters: ties break by id without data, but a
        // warm cache (zero stage-in) beats a cold one.
        let mut cold = cluster_view(0, 8, 1.0);
        let mut warm = cluster_view(1, 8, 1.0);
        let job = JobSpec::simple(1, 100.0);
        assert_eq!(
            choose_resource(&job, &[cold.clone(), warm.clone()], &policy),
            Some(ResourceId(0)),
            "data-blind: tie-break by lower id"
        );
        cold.stage_in_seconds = Some(600.0);
        warm.stage_in_seconds = Some(0.0);
        assert_eq!(
            choose_resource(&job, &[cold.clone(), warm.clone()], &policy),
            Some(ResourceId(1)),
            "data-aware: the warm cache wins"
        );
        let explained = choose_resource_explained(&job, &[cold, warm], &policy);
        assert_eq!(explained.chosen, Some(ResourceId(1)));
        assert_eq!(explained.candidates[0].stage_in_seconds, Some(600.0));
        assert_eq!(explained.candidates[1].stage_in_seconds, Some(0.0));
    }

    #[test]
    fn stage_in_counts_against_the_stability_cutoff() {
        let policy = SchedulerPolicy::default(); // 10h cutoff
        let mut condor = condor_view(0, 8, 1.0);
        let job = JobSpec::simple(1, 100.0).with_estimate(9.5 * 3600.0);
        assert!(matches(&job, &condor, &policy).is_ok());
        // A one-hour stage-in pushes the 9.5h job past the 10h budget.
        condor.stage_in_seconds = Some(3600.0);
        assert_eq!(
            matches(&job, &condor, &policy),
            Err(RejectReason::Stability)
        );
        // Stable resources have no cutoff to exceed.
        let mut cluster = cluster_view(1, 8, 1.0);
        cluster.stage_in_seconds = Some(3600.0);
        assert!(matches(&job, &cluster, &policy).is_ok());
    }
}
