//! `service_ckpt`: the checkpointed service on the federated grid.
//!
//! `standard_grid` (four institutions' PBS/SGE/Condor) plus a 2,000-host
//! BOINC pool, with the full `TelemetryConfig::observability` pack.
//! Campaign-shaped batches of E17-shaped jobs arrive by `submit_at` below
//! capacity. The benchmark drives a `GridService` one simulated hour at a
//! time — `grid_mut().run_until(next hour)` then `snapshot_now()` — until
//! every job completed. Checkpoint encode and write, telemetry spans,
//! series and SLO, and the telemetry-forced explained-decision scan all
//! sit on this path. The service runs a fixed number of times, each from
//! a fresh start on its own checkpoint path; every repeat simulates the
//! same hours, and each hour's `run_until` and checkpoint times are
//! averaged over the repeats. One operation is one checkpoint pause.

use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Pass};
use gridsim::boinc::BoincConfig;
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use gridsim::TelemetryConfig;
use lattice::service::{GridService, ResumeOutcome, ServiceConfig};
use simkit::{SimDuration, SimRng, SimTime, Snapshot};
use std::path::Path;

/// Volunteers beside the service-grid resources.
const HOSTS: usize = 2_000;
/// Jobs per campaign batch; a batch arrives every quarter hour.
const BATCH: usize = 100;
const BATCHES_PER_HOUR: u64 = 4;
/// Simulated hours over which the batches arrive.
const ARRIVAL_HOURS: u64 = 24;
/// Host seconds of one service run, set-ups included, on a 2-core x86-64
/// box in its slow spells; `--seconds` over this is the repeat count, so a
/// run takes about `--seconds` at most.
const RUN_S: f64 = 5.5;
/// Extra set-ups during each service run.
const SETUPS_PER_RUN: usize = 4;
/// Hours the grid may run past the last arrival before the run counts as
/// stuck.
const DRAIN_HOURS: u64 = 30 * 24;

/// Event kinds this grid produces on every seed. The clusters absorb
/// nearly all arrivals, so volunteer assignments, completions and
/// deadlines are too rare to time (none at all on some seeds).
const SERVICE_KINDS: [&str; 5] = [
    "boinc_flip",
    "schedule_tick",
    "submit",
    "lrm_job_done",
    "provider_report",
];

fn config(seed: u64, telemetry: bool) -> GridConfig {
    let mut config = lattice::system::standard_grid(seed);
    config.boinc = Some(BoincConfig {
        num_clients: HOSTS,
        ..Default::default()
    });
    if telemetry {
        config.telemetry = Some(TelemetryConfig::observability(SimDuration::from_hours(1)));
    }
    config
}

fn build(seed: u64, arrival_hours: u64, telemetry: bool) -> Grid {
    let mut grid = Grid::new(config(seed, telemetry));
    let mut rng = SimRng::new(seed).fork("service-arrivals");
    let mut id = 0u64;
    for batch in 0..arrival_hours * BATCHES_PER_HOUR {
        let at = SimTime::from_secs(batch * 3600 / BATCHES_PER_HOUR);
        for _ in 0..BATCH {
            let secs = rng.range_f64(900.0, 3600.0);
            grid.submit_at(JobSpec::simple(id, secs).with_estimate(secs), at);
            id += 1;
        }
    }
    grid
}

fn done(grid: &Grid) -> bool {
    grid.world().jobs_submitted() == grid.submissions_expected() && grid.world().all_done()
}

fn remove_snapshots(dir: &Path) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("[service_ckpt] could not remove {}: {e}", dir.display());
        }
    }
}

/// One service run: a fresh service on a new grid, stepped hour by hour
/// with a checkpoint after each hour until every job completed.
struct ServiceRun {
    /// Host seconds of each hour's `run_until` and of its checkpoint.
    hour_s: Vec<f64>,
    checkpoint_s: Vec<f64>,
    /// Simulated events of each hour.
    hour_events: Vec<u64>,
    /// Checkpoint writes that failed.
    failed_writes: Vec<String>,
    /// Digest of the final report, and the jobs that completed.
    digest: u64,
    completed: usize,
}

fn run_service(
    ctx: &Ctx,
    out: &mut Outcome,
    tr: &mut Tracer,
    path: &Path,
    mid_path: Option<&Path>,
    extra_setups: &[usize],
    spare: &Path,
) -> (ServiceRun, GridService) {
    let mut svc = setup(ctx, out, tr, path);
    if tr.is_on() {
        svc.grid_mut().enable_profiling();
    }
    let mut run = ServiceRun {
        hour_s: Vec::new(),
        checkpoint_s: Vec::new(),
        hour_events: Vec::new(),
        failed_writes: Vec::new(),
        digest: 0,
        completed: 0,
    };
    for hour in 1..=ARRIVAL_HOURS + DRAIN_HOURS {
        if extra_setups.contains(&(hour as usize)) {
            setup(ctx, out, tr, spare);
        }
        let before = svc.grid().events_processed();
        tr.enter("bench", "service_hour", hour);
        let (_, secs) = tr.timed("gridsim", "run_until", hour, || {
            svc.grid_mut().run_until(SimTime::from_hours(hour))
        });
        run.hour_s.push(secs);
        run.hour_events.push(svc.grid().events_processed() - before);
        let (written, secs) = tr.timed("lattice", "snapshot_now", hour, || svc.snapshot_now());
        tr.exit();
        run.checkpoint_s.push(secs);
        if let Err(e) = written {
            run.failed_writes.push(format!("checkpoint at hour {hour}: {e}"));
        }
        if let Some(mid) = mid_path.filter(|_| hour == ARRIVAL_HOURS / 2) {
            if let Err(e) = std::fs::copy(path, mid) {
                run.failed_writes.push(format!("keep the mid-run checkpoint: {e}"));
            }
        }
        if done(svc.grid()) {
            break;
        }
    }
    let report = svc.grid().report();
    run.digest = stats::report_digest(&report);
    run.completed = report.completed;
    (run, svc)
}

/// A set-up builds the grid, submits every arrival and starts a fresh
/// service on it, checkpointing to `path`.
fn setup(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer, path: &Path) -> GridService {
    let (svc, secs) = tr.timed("lattice", "service_start", 0, || {
        GridService::start(ServiceConfig::new(path), || build(ctx.seed, ARRIVAL_HOURS, true))
    });
    out.setup_s.push(secs);
    let svc = svc.expect("a fresh service starts");
    assert_eq!(
        svc.resume_outcome(),
        ResumeOutcome::Fresh,
        "set-ups start from an empty checkpoint path"
    );
    svc
}

pub fn run(ctx: &Ctx, pass: Pass, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx
        .out_dir
        .join(format!("service_ckpt-{}-{}", ctx.seed, std::process::id()));
    remove_snapshots(&dir);
    let mid_path = dir.join("mid.snapshot");
    let spare = dir.join("spare.snapshot");

    let repeats = pass.fill(ctx.seconds, RUN_S, 3);
    // Extra set-ups start a service on a path no checkpoint is ever
    // written to, and drop it.
    let extra_setups = pass.extra_setups(ARRIVAL_HOURS as usize, SETUPS_PER_RUN);
    // Only the first repeat's service is kept, for the report, the restart
    // check and the layer metrics.
    let mut svc = None;
    let runs: Vec<ServiceRun> = (0..repeats)
        .map(|r| {
            let (run, s) = run_service(
                ctx,
                &mut out,
                tr,
                &dir.join(format!("grid-{r}.snapshot")),
                (r == 0).then_some(mid_path.as_path()),
                &extra_setups,
                &spare,
            );
            svc.get_or_insert(s);
            run
        })
        .collect();
    let svc = svc.expect("the service runs at least once");
    let first = &runs[0];
    let total_jobs = svc.grid().submissions_expected();
    let report = svc.grid().report();
    out.digest = first.digest;
    for run in &runs {
        for e in &run.failed_writes {
            out.check(false, e);
        }
        out.attempted += (total_jobs + run.checkpoint_s.len()) as u64;
        out.failed += (total_jobs - run.completed) as u64;
    }
    for run in &runs[1..] {
        out.check(
            run.hour_events == first.hour_events && run.digest == out.digest,
            "service repeats of one seed simulate the same hours",
        );
    }
    out.check(
        report.completed == total_jobs,
        format!("all {total_jobs} jobs complete ({} did)", report.completed),
    );
    let same_hours = runs.iter().all(|r| r.hour_events == first.hour_events);
    let mean = |f: fn(&ServiceRun) -> &Vec<f64>| {
        if same_hours {
            stats::mean_repeat(&runs.iter().map(|r| f(r).clone()).collect::<Vec<_>>())
        } else {
            f(first).clone()
        }
    };
    let hour_s = mean(|r| &r.hour_s);
    out.op_s = mean(|r| &r.checkpoint_s);
    let events: u64 = first.hour_events.iter().sum();
    let run_s: f64 = hour_s.iter().sum();
    out.throughput = events as f64 / run_s;
    out.timed_s = run_s + out.op_s.iter().sum::<f64>();
    let last_hour = first.hour_s.len() as u64;
    let path = dir.join("grid-0.snapshot");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

    // A service restarted from the mid-run checkpoint must reach the same
    // report as the uninterrupted run.
    match GridService::start(ServiceConfig::new(&mid_path), || {
        panic!("the mid-run checkpoint must restore")
    }) {
        Ok(mut restored) => {
            let resumed_at = restored.grid().now();
            let mut hour = resumed_at.as_micros() / SimTime::from_hours(1).as_micros();
            while hour < last_hour {
                hour += 1;
                restored.grid_mut().run_until(SimTime::from_hours(hour));
            }
            out.check(
                restored.resume_outcome() == ResumeOutcome::Resumed
                    && stats::report_digest(&restored.grid().report()) == out.digest,
                "the service restored from the mid-run checkpoint reaches the same report",
            );
        }
        Err(e) => out.check(false, format!("restore the mid-run checkpoint: {e}")),
    }

    let makespan_h = report.makespan_seconds.unwrap_or(f64::NAN) / 3600.0;
    out.note(format!(
        "service_ckpt: {total_jobs} jobs over {ARRIVAL_HOURS} arrival hours, {events} events, \
         {} checkpoints, last {bytes} bytes, {repeats} repeats, sim makespan {makespan_h:.3} h, \
         sim wasted CPU {:.4}%",
        out.op_s.len(),
        stats::wasted_cpu_pct(&report)
    ));

    if tr.is_on() {
        layer_metrics(ctx, &mut out, &svc, &path, ARRIVAL_HOURS, tr);
        out.layer(
            "gridsim.service.useful_dispatch_ratio",
            stats::useful_dispatch_ratio(&report),
            "ratio",
        );
        out.layer(
            "gridsim.service.useful_cpu_ratio",
            stats::useful_cpu_ratio(&report),
            "ratio",
        );
        out.layer("gridsim.service.sim_makespan_h", makespan_h, "h");
        out.layer(
            "gridsim.service.sim_wasted_cpu_pct",
            stats::wasted_cpu_pct(&report),
            "%",
        );
        out.layer(
            "lattice.service.snapshot_now_ms",
            1e3 * median(&out.op_s),
            "ms",
        );
        let ev_s = out.throughput;
        // The same grid and arrivals with telemetry off, same hourly steps.
        let mut plain = build(ctx.seed, ARRIVAL_HOURS, false);
        let (_, plain_s) = tr.timed("gridsim", "run_until_plain", 0, || {
            for hour in 1..=last_hour {
                plain.run_until(SimTime::from_hours(hour));
            }
        });
        let plain_events = plain.events_processed();
        out.layer(
            "gridsim.telemetry.observed_ratio",
            ev_s / (plain_events as f64 / plain_s),
            "ratio",
        );
        out.check(
            stats::report_digest(&plain.report()) == out.digest,
            "telemetry does not change the simulated outcome",
        );
    }
    drop(svc);
    remove_snapshots(&dir);
    out
}

/// Snapshot codec, restart and per-event-kind costs of the traced pass.
fn layer_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    svc: &GridService,
    path: &Path,
    arrival_hours: u64,
    tr: &mut Tracer,
) {
    let profile = svc
        .grid()
        .profile_report()
        .expect("profiling is on when traced");
    for kind in SERVICE_KINDS {
        let k = profile.kinds.iter().find(|k| k.kind == kind);
        out.layer(
            format!("gridsim.service.event.{kind}.self_s"),
            k.map_or(0.0, |k| k.seconds),
            "s",
        );
        out.layer(
            format!("gridsim.service.event.{kind}.count"),
            k.map_or(0, |k| k.events) as f64,
            "count",
        );
    }

    // Codec throughput on a mid-run state (half the arrivals in flight).
    let mut grid = build(ctx.seed, arrival_hours, true);
    grid.run_until(SimTime::from_hours(arrival_hours / 2));
    let (text, enc_s) = tr.timed("simkit", "snapshot_encode", 0, || grid.to_snapshot());
    let (decoded, dec_s) = tr.timed("simkit", "snapshot_decode", 0, || {
        Grid::from_snapshot(&text)
    });
    let mb = text.len() as f64 / (1024.0 * 1024.0);
    out.check(decoded.is_ok(), "a mid-run grid snapshot decodes");
    out.layer("simkit.snapshot.encode_mb_per_s", mb / enc_s, "MiB/s");
    out.layer("simkit.snapshot.decode_mb_per_s", mb / dec_s, "MiB/s");
    out.layer("simkit.snapshot.bytes", text.len() as f64, "bytes");

    // Restart from the last checkpoint file.
    let starts: Vec<f64> = (0..3)
        .map(|_| {
            let (restored, secs) = tr.timed("lattice", "service_restart", 0, || {
                GridService::start(ServiceConfig::new(path), || {
                    panic!("the last checkpoint must restore")
                })
            });
            out.check(
                matches!(
                    restored.map(|s| s.resume_outcome()),
                    Ok(ResumeOutcome::Resumed)
                ),
                "the last checkpoint restores",
            );
            secs
        })
        .collect();
    out.layer("lattice.service.start_s", median(&starts), "s");
}
