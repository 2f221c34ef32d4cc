//! Pinned trajectories of the grid's one matchmaker, plus restore lockstep.
//!
//! Until the feeder index became the only matchmaker, every scenario here
//! stepped an indexed grid in lockstep with a grid forced onto the pre-index
//! full scan and compared full snapshot bytes. That full scan is gone from
//! production code; the pins below carry its behaviour forward. Each pin is
//! the FNV-1a 64 hash of `Grid::to_snapshot()` (world + calendar + clock +
//! event counter) after `MID` events and after the scenario's event budget,
//! captured at commit `dc42112` from grids switched onto the full scan (the
//! `Grid` setter that did so was removed with it) by running these same
//! scenario builders. Telemetry-on grids used the full scan unconditionally
//! at that commit, so the telemetry variants pin the explained decisions
//! (every reject reason is exercised) that the widened indexed walk now
//! produces. The proptest that used to sample ten random cases is an
//! explicit table of the cases it drew.
//!
//! The function-level oracle — the walk against the reference full scan,
//! `choose_resource_explained` — lives in
//! `crates/gridsim/tests/matchmaker_differential.rs`.

use gridsim::boinc::BoincConfig;
use gridsim::data::{DataConfig, ObjectRef};
use gridsim::fault::random_faults;
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use gridsim::platform::Platform;
use gridsim::recovery::RecoveryPolicy;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::TelemetryConfig;
use rand::RngCore;
use simkit::{SimDuration, SimRng, Snapshot};

/// Events run before the mid-run pin.
const MID: usize = 1_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Run `grid` for up to `max_events` events and check its snapshot hash
/// after [`MID`] events and at the end against `(mid, final)`.
fn assert_pins(grid: &mut Grid, max_events: usize, pins: (u64, u64), label: &str) {
    for step in 0..max_events {
        if step == MID {
            let mid = fnv1a(grid.to_snapshot().as_bytes());
            assert_eq!(
                mid, pins.0,
                "{label}: mid-run snapshot drifted ({mid:#018x})"
            );
        }
        if !grid.step() {
            assert!(step >= MID, "{label}: drained before the mid-run pin");
            break;
        }
    }
    let fin = fnv1a(grid.to_snapshot().as_bytes());
    assert_eq!(fin, pins.1, "{label}: final snapshot drifted ({fin:#018x})");
}
/// A grid with every resource flavour: stable clusters (MPI, software),
/// a preemptable Condor pool, and a BOINC volunteer pool.
fn mixed_config(seed: u64) -> GridConfig {
    let mut sge = ResourceSpec::cluster("sge", ResourceKind::SgeCluster, 6, 0.9);
    sge.software = vec!["java".into(), "mpi".into(), "gromacs".into()];
    GridConfig {
        resources: vec![
            ResourceSpec::cluster("pbs", ResourceKind::PbsCluster, 8, 1.2),
            sge,
            ResourceSpec::condor_pool("condor", 16, 1.1, 6.0),
        ],
        boinc: Some(BoincConfig {
            num_clients: 25,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

/// A requirement-diverse workload: serial jobs, MPI gangs, software
/// dependencies (including one no resource advertises), restrictive
/// platform lists, and large-memory jobs.
fn mixed_workload(seed: u64, n: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed ^ 0xD15B);
    (0..n)
        .map(|id| {
            let secs = rng.range_f64(0.2, 4.0) * 3600.0;
            let mut job = JobSpec::simple(id, secs).with_estimate(secs * rng.range_f64(0.8, 1.2));
            match id % 7 {
                1 => job = job.mpi(4),
                2 => job.software_deps = vec!["gromacs".into()],
                3 => job.platforms = vec![Platform::LINUX_X64],
                4 => job.min_memory_bytes = 3 << 30,
                5 => job.software_deps = vec!["no-such-package".into()],
                6 => job.checkpointable = true,
                _ => {}
            }
            job
        })
        .collect()
}

/// [`mixed_workload`] plus one job per reject reason the mixed workload
/// never hits: a Windows-only job (`Platform` on the clusters), a 20-hour
/// estimate (`Stability` on the volunteer pools) and a 7-slot gang (`Mpi`
/// on the 6-slot SGE cluster, from its MDS slot count).
fn telemetry_workload(seed: u64, n: u64) -> Vec<JobSpec> {
    let mut jobs = mixed_workload(seed, n);
    let mut windows = JobSpec::simple(n, 2.0 * 3600.0).with_estimate(2.0 * 3600.0);
    windows.platforms = vec![Platform::WINDOWS_X64];
    jobs.push(windows);
    jobs.push(JobSpec::simple(n + 1, 20.0 * 3600.0).with_estimate(20.0 * 3600.0));
    jobs.push(JobSpec::simple(n + 2, 3600.0).with_estimate(3600.0).mpi(7));
    jobs
}

fn data_aware_config(seed: u64, telemetry: bool) -> GridConfig {
    GridConfig {
        data: Some(DataConfig::default()),
        telemetry: telemetry.then(TelemetryConfig::default),
        ..mixed_config(seed)
    }
}

/// Every job reads one of five shared 40 MB alignments.
fn with_inputs(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    jobs.into_iter()
        .map(|j| {
            let name = format!("aln-{}", j.id.0 % 5);
            j.with_input(ObjectRef::named(&name, 40 << 20))
        })
        .collect()
}

#[test]
fn indexed_and_legacy_grids_are_byte_identical_in_lockstep() {
    let mut grid = Grid::new(mixed_config(11));
    grid.submit(mixed_workload(11, 35));
    assert_pins(
        &mut grid,
        50_000,
        (0xaefc_9b6a_1638_c692, 0xc298_6bb5_5f57_b286),
        "mixed",
    );
}

#[test]
fn paths_agree_with_data_aware_stage_in_ranking() {
    let mut grid = Grid::new(data_aware_config(23, false));
    grid.submit(with_inputs(mixed_workload(23, 30)));
    assert_pins(
        &mut grid,
        50_000,
        (0x7714_69c2_9a0c_3261, 0x54b9_8d1e_8e65_a398),
        "data-aware",
    );
}

/// The observed grid explains every decision; its `scheduler.reject.*`
/// counters must cover all five filters.
fn assert_every_reject_reason_counted(grid: &Grid) {
    let metrics = grid.world().telemetry().expect("telemetry on").metrics();
    for reason in gridsim::scheduler::RejectReason::ALL {
        let key = format!("scheduler.reject.{}", reason.label());
        assert!(metrics.counter(&key) > 0, "{key} never counted");
    }
}

#[test]
fn observed_grid_is_byte_identical_to_full_scan() {
    let mut grid = Grid::new(GridConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..mixed_config(11)
    });
    grid.submit(telemetry_workload(11, 35));
    assert_pins(
        &mut grid,
        50_000,
        (0x1a5e_eee9_01b6_c9ce, 0xc744_9136_4f2c_627f),
        "observed mixed",
    );
    assert_every_reject_reason_counted(&grid);
}

#[test]
fn observed_paths_agree_with_data_aware_stage_in_ranking() {
    let mut grid = Grid::new(data_aware_config(23, true));
    grid.submit(with_inputs(telemetry_workload(23, 30)));
    assert_pins(
        &mut grid,
        50_000,
        (0xdd30_be19_8155_df09, 0x622b_2c83_7c71_2289),
        "observed data-aware",
    );
    assert_every_reject_reason_counted(&grid);
}

#[test]
fn paths_agree_under_fault_timelines_with_recovery() {
    let pins = [
        (3u64, 0x386a_1e10_552f_e787_u64, 0xcce9_eb48_e429_5c52_u64),
        (91, 0x56e0_ada6_a80d_ee54, 0xb913_ab0c_fe83_3890),
        (4242, 0xe19c_2d90_0f38_0fa7, 0x8e4d_99d5_4d23_b87c),
    ];
    for (seed, mid, fin) in pins {
        let mut grid = Grid::new(GridConfig {
            recovery: Some(RecoveryPolicy::default()),
            max_local_retries: 2,
            ..mixed_config(seed)
        });
        // E12-style chaos: outages, silent MDS partitions, stragglers, …
        // against the service resources.
        let mut frng = SimRng::new(seed ^ 0xFA17);
        grid.inject_faults(random_faults(
            &mut frng,
            &[0, 1, 2],
            SimDuration::from_hours(48),
            12,
        ));
        grid.submit(mixed_workload(seed, 30));
        assert_pins(
            &mut grid,
            200_000,
            (mid, fin),
            &format!("faults seed {seed}"),
        );
    }
}

/// Step two grids in lockstep, comparing full snapshot bytes every `stride`
/// events and at the end.
fn assert_lockstep_identical(a: &mut Grid, b: &mut Grid, stride: usize, max_events: usize) {
    for step in 0..max_events {
        let pa = a.step();
        let pb = b.step();
        assert_eq!(pa, pb, "calendars drained at different event counts");
        if !pa {
            break;
        }
        if step % stride == 0 {
            assert_eq!(a.now(), b.now(), "clocks diverged at step {step}");
            assert_eq!(
                a.to_snapshot(),
                b.to_snapshot(),
                "snapshot bytes diverged at step {step} (t = {:?})",
                a.now()
            );
        }
    }
    assert_eq!(a.to_snapshot(), b.to_snapshot(), "final snapshots diverged");
}

#[test]
fn restored_snapshot_resumes_identically_on_either_path() {
    // Checkpoint mid-flight and restore: the restored grid rebuilds its
    // derived index from the snapshot's resource list, while the
    // uninterrupted grid keeps the one it grew incrementally. Both must
    // replay bit-identical histories, and the restored future must match
    // what the full-scan grid did from the same checkpoint.
    let mut uninterrupted = Grid::new(mixed_config(47));
    uninterrupted.submit(mixed_workload(47, 35));
    for _ in 0..2_000 {
        assert!(
            uninterrupted.step(),
            "workload drained before the checkpoint"
        );
    }
    let snap = uninterrupted.to_snapshot();
    assert_eq!(
        fnv1a(snap.as_bytes()),
        0xaf13_22c1_a399_4700,
        "checkpoint drifted"
    );
    let mut restored = Grid::from_snapshot(&snap).expect("snapshot restores");
    // The derived index must not leak into snapshot bytes.
    assert_eq!(restored.to_snapshot(), snap, "restore must be byte-stable");
    assert_pins(
        &mut Grid::from_snapshot(&snap).expect("snapshot restores"),
        200_000,
        (0xebd3_ac25_6728_3660, 0xa031_17ba_21c3_1fad),
        "restored",
    );
    assert_lockstep_identical(&mut uninterrupted, &mut restored, 500, 200_000);
}

/// A random resource mix (1–3 clusters, one Condor pool, optional BOINC
/// pool and recovery) with an optional random fault timeline.
fn random_mix_grid(seed: u64, n_jobs: u64, n_faults: usize, flags: u64) -> Grid {
    let (with_boinc, with_recovery) = (flags & 1 != 0, flags & 2 != 0);
    let mut rng = SimRng::new(seed);
    let n_clusters = 1 + (rng.next_u64() % 3) as usize;
    let mut resources = Vec::new();
    for i in 0..n_clusters {
        let kind = if i % 2 == 0 {
            ResourceKind::PbsCluster
        } else {
            ResourceKind::SgeCluster
        };
        let mut spec = ResourceSpec::cluster(
            &format!("c{i}"),
            kind,
            2 + (rng.next_u64() % 12) as usize,
            rng.range_f64(0.6, 1.8),
        );
        if rng.next_u64().is_multiple_of(2) {
            spec.software.push("gromacs".into());
        }
        resources.push(spec);
    }
    resources.push(ResourceSpec::condor_pool(
        "pool",
        4 + (rng.next_u64() % 16) as usize,
        rng.range_f64(0.7, 1.5),
        rng.range_f64(3.0, 12.0),
    ));
    let fault_targets: Vec<usize> = (0..resources.len()).collect();
    let mut grid = Grid::new(GridConfig {
        resources,
        boinc: with_boinc.then(|| BoincConfig {
            num_clients: 5 + (seed % 20) as usize,
            ..Default::default()
        }),
        recovery: with_recovery.then(RecoveryPolicy::default),
        seed,
        ..Default::default()
    });
    if n_faults > 0 {
        let mut frng = SimRng::new(seed ^ 0xFA17);
        grid.inject_faults(random_faults(
            &mut frng,
            &fault_targets,
            SimDuration::from_hours(36),
            n_faults,
        ));
    }
    grid.submit(mixed_workload(seed, n_jobs));
    grid
}

#[test]
fn random_mixes_and_faults_keep_paths_identical() {
    // (seed, n_jobs, n_faults, flags, mid pin, final pin): the ten cases
    // the former proptest drew (flags bit 0 = BOINC pool, bit 1 = recovery).
    let cases = [
        (
            8775u64,
            27u64,
            3usize,
            3u64,
            0x2208_be41_34cb_95b7_u64,
            0xcf19_75c5_75b4_f45b_u64,
        ),
        (9196, 16, 9, 1, 0xecdd_9186_2067_dc7a, 0x8fbb_4175_299b_7d69),
        (4535, 12, 0, 1, 0x6a72_ccb5_7429_0ce3, 0x4947_bc36_8743_57f1),
        (4027, 11, 0, 0, 0xb0c1_a76a_7e4f_032e, 0xe4f8_cbb3_5504_9a0c),
        (2541, 20, 0, 3, 0x5ec7_aba7_a985_78a0, 0x177a_3d40_526a_b4ac),
        (7644, 19, 9, 1, 0xf140_4d6a_665c_af4a, 0xa84d_137b_87f0_5ef6),
        (8651, 13, 5, 0, 0x8682_2509_c433_7f72, 0x57bc_29ab_f24d_86fb),
        (9876, 19, 1, 0, 0x1297_ecd6_261a_8118, 0x1183_ebf2_2459_84fd),
        (7134, 25, 2, 2, 0x09dd_27e6_74f4_f319, 0xc092_0bc8_94e1_7f81),
        (5873, 24, 2, 2, 0x33fb_ad37_aab6_5440, 0xa5bd_444f_3e7d_7905),
    ];
    for (seed, n_jobs, n_faults, flags, mid, fin) in cases {
        let mut grid = random_mix_grid(seed, n_jobs, n_faults, flags);
        let label = format!("case ({seed}, {n_jobs}, {n_faults}, {flags})");
        assert_pins(&mut grid, 150_000, (mid, fin), &label);
    }
}
