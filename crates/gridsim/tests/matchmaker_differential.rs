//! Function-level differential test for the grid's one matchmaker.
//!
//! `choose_in_table` — the walk `Grid::schedule_pass` runs over either a
//! feeder-index capability class or, with telemetry on, every resource —
//! is compared against the reference full scan, `choose_resource_explained`,
//! on random resources, MDS views, exclusions, stage-in estimates and jobs.
//! The chosen resource, the eligible and candidate counts, the reject
//! histogram and the winner's stage-in estimate must all agree.

use gridsim::index::DispatchIndex;
use gridsim::job::JobSpec;
use gridsim::mds::ResourceState;
use gridsim::platform::Platform;
use gridsim::resource::{ResourceId, ResourceKind, ResourceSpec};
use gridsim::scheduler::{
    choose_in_table, choose_resource_explained, DecisionTally, RejectReason, ResourceView,
    SchedulerPolicy,
};
use proptest::prelude::*;
use rand::RngCore;
use simkit::{SimDuration, SimRng};
use std::collections::HashSet;

const SOFTWARE: [&str; 4] = ["java", "mpi", "gromacs", "beast"];
const PLATFORMS: [Platform; 5] = [
    Platform::LINUX_X64,
    Platform::LINUX_X86,
    Platform::WINDOWS_X64,
    Platform::MAC_X64,
    Platform::MAC_PPC,
];
/// Few distinct speeds and slot counts, so score and speed ties happen and
/// every step of the tie-break is exercised.
const SPEEDS: [f64; 3] = [0.5, 1.0, 2.0];

fn pick(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn subset<T: Clone>(rng: &mut SimRng, items: &[T]) -> Vec<T> {
    items.iter().filter(|_| rng.chance(0.5)).cloned().collect()
}

fn random_resource(rng: &mut SimRng, i: usize) -> ResourceSpec {
    let speed = SPEEDS[pick(rng, SPEEDS.len())];
    let slots = 1 + pick(rng, 8);
    let mut spec = if rng.chance(0.5) {
        ResourceSpec::cluster(&format!("c{i}"), ResourceKind::PbsCluster, slots, speed)
    } else {
        ResourceSpec::condor_pool(&format!("p{i}"), slots, speed, 6.0)
    };
    if rng.chance(0.3) {
        spec.platforms = subset(rng, &PLATFORMS);
    }
    spec.memory_per_slot = [1u64, 2, 4, 8][pick(rng, 4)] << 30;
    spec.software = subset(rng, &SOFTWARE)
        .into_iter()
        .map(String::from)
        .collect();
    spec
}

/// An id-indexed view table: `None` for offline or blacklisted resources,
/// random MDS load, and (as the recovery layer does for suspects) some
/// stable resources downgraded to unstable.
fn random_views(rng: &mut SimRng, specs: &[ResourceSpec]) -> Vec<Option<ResourceView>> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            if rng.chance(0.15) {
                return None;
            }
            // MDS reports the live slot count, which may sit below the spec.
            let total_slots = pick(rng, spec.slots + 1);
            let state = ResourceState {
                free_slots: pick(rng, total_slots + 1),
                total_slots,
                queued_jobs: pick(rng, 3),
            };
            let mut view = ResourceView::new(ResourceId(i), spec, state, spec.speed);
            if rng.chance(0.1) {
                view.stable = false;
            }
            Some(view)
        })
        .collect()
}

fn random_job(rng: &mut SimRng, id: u64) -> JobSpec {
    let secs = [0.5, 4.0, 9.5, 12.0, 30.0][pick(rng, 5)] * 3600.0;
    let mut job = JobSpec::simple(id, secs);
    if rng.chance(0.7) {
        job = job.with_estimate(secs);
    }
    if rng.chance(0.25) {
        job = job.mpi(1 + pick(rng, 6));
    }
    if rng.chance(0.3) {
        job.platforms = subset(rng, &PLATFORMS);
    }
    job.min_memory_bytes = [256u64 << 20, 2 << 30, 6 << 30][pick(rng, 3)];
    job.software_deps = subset(rng, &SOFTWARE)
        .into_iter()
        .map(String::from)
        .collect();
    if rng.chance(0.05) {
        job.software_deps.push("no-such-package".into());
    }
    job
}

/// The tally the reference full scan implies, over the candidates the grid
/// would hand it: online, non-excluded views with stage-in filled.
fn reference(
    job: &JobSpec,
    views: &[Option<ResourceView>],
    excluded: &HashSet<usize>,
    stage_in: Option<&[f64]>,
    policy: &SchedulerPolicy,
) -> DecisionTally {
    let candidates: Vec<ResourceView> = views
        .iter()
        .flatten()
        .filter(|v| !excluded.contains(&v.id.0))
        .map(|v| ResourceView {
            stage_in_seconds: stage_in.map(|s| s[v.id.0]),
            ..v.clone()
        })
        .collect();
    let decision = choose_resource_explained(job, &candidates, policy);
    let mut tally = DecisionTally {
        chosen: decision.chosen,
        candidates: decision.candidates.len(),
        ..DecisionTally::default()
    };
    for c in &decision.candidates {
        match c.reject {
            Some(reason) => tally.rejects[reason as usize] += 1,
            None => tally.eligible += 1,
        }
    }
    tally.chosen_stage_in = decision
        .chosen
        .and_then(|id| decision.candidates.iter().find(|c| c.id == id))
        .and_then(|c| c.stage_in_seconds);
    tally
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn indexed_walk_agrees_with_the_reference_full_scan(
        seed in 0u64..1_000_000,
        n_resources in 1usize..24,
        n_jobs in 1u64..40,
        aware in 0u64..2,
    ) {
        let mut rng = SimRng::new(seed);
        let specs: Vec<ResourceSpec> =
            (0..n_resources).map(|i| random_resource(&mut rng, i)).collect();
        let policy = SchedulerPolicy {
            use_runtime_estimates: rng.chance(0.8),
            unstable_cutoff: SimDuration::from_hours(10),
            use_speed_scaling: rng.chance(0.8),
        };
        let mut index = DispatchIndex::new(&specs);
        let every_id: Vec<usize> = (0..n_resources).collect();
        for id in 0..n_jobs {
            let job = random_job(&mut rng, id);
            let views = random_views(&mut rng, &specs);
            let excluded: HashSet<usize> =
                (0..n_resources).filter(|_| rng.chance(0.15)).collect();
            let stage_in: Option<Vec<f64>> = (aware == 1).then(|| {
                (0..n_resources).map(|_| [0.0, 600.0, 3600.0][pick(&mut rng, 3)]).collect()
            });
            let estimate = |r: usize| stage_in.as_ref().map(|s| s[r]).unwrap_or(0.0);
            let want = reference(&job, &views, &excluded, stage_in.as_deref(), &policy);

            // Widened walk (telemetry on): every field of the tally agrees.
            let mut table = views.clone();
            let widened = choose_in_table(
                &job,
                &every_id,
                &mut table,
                Some(&excluded),
                stage_in.is_some().then_some(estimate),
                &policy,
            );
            prop_assert_eq!(widened, want);

            // Capability-class walk (telemetry off): same winner and
            // winner's stage-in, over a sound subset of the candidates.
            let mut table = views.clone();
            let class = index.eligible(&job).to_vec();
            let indexed = choose_in_table(
                &job,
                &class,
                &mut table,
                Some(&excluded),
                stage_in.is_some().then_some(estimate),
                &policy,
            );
            prop_assert_eq!(indexed.chosen, want.chosen);
            prop_assert_eq!(indexed.chosen_stage_in, want.chosen_stage_in);
            prop_assert_eq!(indexed.eligible, want.eligible);
            prop_assert!(indexed.candidates <= want.candidates);
        }
    }
}

#[test]
fn every_reject_reason_is_tallied() {
    // One resource per reason, plus the MDS-dependent MPI case: an
    // MPI-capable cluster whose reported slot count is below the gang size
    // fails on `Mpi` before the software check.
    let policy = SchedulerPolicy::default();
    let mut job = JobSpec::simple(1, 3600.0)
        .with_estimate(20.0 * 3600.0)
        .mpi(4);
    job.software_deps = vec!["beast".into()];
    job.platforms = vec![Platform::LINUX_X64];
    job.min_memory_bytes = 3 << 30;
    let mut ppc = ResourceSpec::cluster("ppc", ResourceKind::PbsCluster, 8, 1.0);
    ppc.platforms = vec![Platform::MAC_PPC];
    let small =
        ResourceSpec::cluster("small", ResourceKind::PbsCluster, 8, 1.0).with_memory(1 << 30);
    let condor = ResourceSpec::condor_pool("condor", 8, 1.0, 6.0).with_memory(4 << 30);
    let shrunk = ResourceSpec::cluster("shrunk", ResourceKind::PbsCluster, 8, 1.0);
    let bare = ResourceSpec::cluster("bare", ResourceKind::PbsCluster, 8, 1.0);
    let mut unstable = ResourceSpec::cluster("unstable", ResourceKind::PbsCluster, 8, 1.0);
    unstable.software.push("beast".into());
    unstable.stable = false;
    let mut good = ResourceSpec::cluster("good", ResourceKind::PbsCluster, 8, 1.0);
    good.software.push("beast".into());
    let specs = [ppc, small, condor, shrunk, bare, unstable, good];
    let mut views: Vec<Option<ResourceView>> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let state = ResourceState {
                free_slots: s.slots,
                total_slots: s.slots,
                queued_jobs: 0,
            };
            Some(ResourceView::new(ResourceId(i), s, state, s.speed))
        })
        .collect();
    views[3].as_mut().unwrap().state.total_slots = 2;
    let every_id: Vec<usize> = (0..specs.len()).collect();
    let tally = choose_in_table(
        &job,
        &every_id,
        &mut views,
        None,
        None::<fn(usize) -> f64>,
        &policy,
    );
    let count = |r: RejectReason| tally.rejects[r as usize];
    assert_eq!(tally.chosen, Some(ResourceId(6)));
    assert_eq!((tally.candidates, tally.eligible), (7, 1));
    assert_eq!(count(RejectReason::Platform), 1);
    assert_eq!(count(RejectReason::Memory), 1);
    assert_eq!(
        count(RejectReason::Mpi),
        2,
        "condor lacks MPI; shrunk lacks slots"
    );
    assert_eq!(count(RejectReason::Software), 1);
    assert_eq!(count(RejectReason::Stability), 1);
}
