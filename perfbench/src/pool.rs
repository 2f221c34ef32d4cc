//! `pool_23k`: the paper's 23,192-host BOINC pool with E17's workunit shape.
//!
//! Every workunit is submitted at t = 0 with a 900–3600 s estimate, ten per
//! volunteer, and the grid runs on the indexed matchmaker with telemetry
//! off and no checkpoints. The dispatch core does nearly all the work.
//! The pool is driven one simulated hour at a time until every workunit
//! completed, and built and run again a fixed number of times. One
//! operation is one such run: its host seconds inside `Grid::run_until`.
//! (Per-hour costs are bimodal,
//! cheap dispatch hours then expensive near-empty ones, so a median over
//! hours or blocks of hours flips between the two with the seed.)

use crate::stats;
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Pass};
use gridsim::boinc::BoincConfig;
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use simkit::{SimRng, SimTime};

/// The paper's volunteer pool size.
pub const HOSTS: usize = 23_192;
/// E17's workunits per volunteer.
const WU_PER_HOST: usize = 10;
/// Host seconds of one pool run on a 2-core x86-64 box in its slow
/// spells; `--seconds` over this is the repeat count, so a run takes about
/// `--seconds` at most.
const RUN_S: f64 = 4.5;
/// E17's simulation cutoff.
const MAX_HOURS: u64 = 120 * 24;

/// Event kinds a BOINC-only pool produces (service-grid LRM kinds never
/// fire here; `service_ckpt` reports those).
const POOL_KINDS: [&str; 7] = [
    "boinc_assign",
    "boinc_flip",
    "boinc_deadline",
    "boinc_client_done",
    "schedule_tick",
    "submit",
    "provider_report",
];

fn config(hosts: usize, seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![],
        boinc: Some(BoincConfig {
            num_clients: hosts,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

fn workunits(n: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed).fork("pool-workunits");
    (0..n)
        .map(|i| {
            let secs = rng.range_f64(900.0, 3600.0);
            JobSpec::simple(i as u64, secs).with_estimate(secs)
        })
        .collect()
}

/// A pool of `hosts` volunteers with E17's workunits submitted.
fn build(hosts: usize, seed: u64) -> Grid {
    let mut grid = Grid::new(config(hosts, seed));
    grid.submit(workunits(hosts * WU_PER_HOST, seed));
    grid
}

/// One pool built, run to completion and summarised. It keeps a summary
/// rather than the report, so repeats do not each hold 232k job records.
pub struct PoolRun {
    pub setup_s: f64,
    /// Host seconds inside `Grid::run_until`.
    pub run_s: f64,
    /// Simulated events of each hour's `run_until`.
    pub hour_events: Vec<u64>,
    pub events: u64,
    pub workunits: usize,
    pub completed: usize,
    pub digest: u64,
    pub makespan_h: f64,
    pub wasted_cpu_pct: f64,
    pub useful_dispatch_ratio: f64,
    pub useful_cpu_ratio: f64,
    pub profile: Option<simkit::profile::ProfileReport>,
}

/// Build a pool of `hosts` volunteers, submit E17's workunits and run it
/// hour by hour until every workunit completed. With the tracer on, the
/// grid's per-event-kind profiler runs too and each hour is a span.
pub fn run_pool(hosts: usize, seed: u64, tr: &mut Tracer) -> PoolRun {
    let n = hosts * WU_PER_HOST;
    let (mut grid, setup_s) = tr.timed("gridsim", "build_and_submit", 0, || build(hosts, seed));
    if tr.is_on() {
        grid.enable_profiling();
    }
    let events_before = grid.events_processed();
    let (mut run_s, mut hour_events) = (0.0, Vec::new());
    for hour in 1..=MAX_HOURS {
        let before = grid.events_processed();
        let (_, secs) = tr.timed("gridsim", "run_until", hour, || {
            grid.run_until(SimTime::from_hours(hour))
        });
        run_s += secs;
        hour_events.push(grid.events_processed() - before);
        let world = grid.world();
        if world.jobs_submitted() == n && world.all_done() {
            break;
        }
    }
    let report = grid.report();
    PoolRun {
        setup_s,
        run_s,
        hour_events,
        events: grid.events_processed() - events_before,
        workunits: n,
        completed: report.completed,
        digest: stats::report_digest(&report),
        makespan_h: report.makespan_seconds.unwrap_or(f64::NAN) / 3600.0,
        wasted_cpu_pct: stats::wasted_cpu_pct(&report),
        useful_dispatch_ratio: stats::useful_dispatch_ratio(&report),
        useful_cpu_ratio: stats::useful_cpu_ratio(&report),
        profile: grid.profile_report(),
    }
}

pub fn run(ctx: &Ctx, pass: Pass, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let repeats = pass.fill(ctx.seconds, RUN_S, 3);
    let runs: Vec<PoolRun> = (0..repeats)
        .map(|r| {
            // Extra set-ups between the runs: build and submit, then drop.
            if r > 0 && pass == Pass::Measure {
                let (_, secs) = tr.timed("gridsim", "build_and_submit", 0, || {
                    build(HOSTS, ctx.seed)
                });
                out.setup_s.push(secs);
            }
            run_pool(HOSTS, ctx.seed, tr)
        })
        .collect();
    for r in &runs {
        out.setup_s.push(r.setup_s);
        out.attempted += r.workunits as u64;
        out.failed += (r.workunits - r.completed) as u64;
    }
    let first = &runs[0];
    out.op_s = runs.iter().map(|r| r.run_s).collect();
    out.timed_s = out.op_s.iter().sum::<f64>() / runs.len() as f64;
    // Simulated events per host second inside run_until.
    out.throughput = first.events as f64 / out.timed_s;

    for r in &runs[1..] {
        out.check(
            r.digest == first.digest && r.hour_events == first.hour_events,
            "pool repeats of one seed simulate the same events",
        );
    }
    out.digest = first.digest;
    out.check(
        first.completed == first.workunits,
        format!(
            "all {} workunits complete ({} did)",
            first.workunits, first.completed
        ),
    );
    out.note(format!(
        "pool_23k: {HOSTS} hosts, {} workunits, {} events in {} hours, {} repeats, \
         sim makespan {:.3} h, sim wasted CPU {:.4}%",
        first.workunits,
        first.events,
        first.hour_events.len(),
        runs.len(),
        first.makespan_h,
        first.wasted_cpu_pct
    ));

    if tr.is_on() {
        let profile = first.profile.as_ref().expect("profiling is on when traced");
        for kind in POOL_KINDS {
            let k = profile.kinds.iter().find(|k| k.kind == kind);
            out.layer(
                format!("gridsim.event.{kind}.self_s"),
                k.map_or(0.0, |k| k.seconds),
                "s",
            );
            out.layer(
                format!("gridsim.event.{kind}.count"),
                k.map_or(0, |k| k.events) as f64,
                "count",
            );
        }
        out.layer("gridsim.loop.run_until_s", first.run_s, "s");
        out.layer(
            "gridsim.loop.outside_handlers_s",
            first.run_s - profile.handling_seconds,
            "s",
        );
        out.layers.extend(falloff_metrics(HOSTS, first));
        out.layer(
            "gridsim.useful_dispatch_ratio",
            first.useful_dispatch_ratio,
            "ratio",
        );
        out.layer("gridsim.useful_cpu_ratio", first.useful_cpu_ratio, "ratio");
        out.layer("gridsim.sim_makespan_h", first.makespan_h, "h");
        out.layer("gridsim.sim_wasted_cpu_pct", first.wasted_cpu_pct, "%");
    }
    out
}

/// Host nanoseconds per simulated event, by event kind and outside the
/// handlers, for one profiled pool run: the E17 falloff attribution.
pub fn falloff_metrics(hosts: usize, run: &PoolRun) -> Vec<(String, f64, &'static str)> {
    let profile = run.profile.as_ref().expect("falloff runs are profiled");
    let per_event = |secs: f64| 1e9 * secs / run.events as f64;
    let mut m = Vec::new();
    for kind in POOL_KINDS {
        let k = profile.kinds.iter().find(|k| k.kind == kind);
        m.push((
            format!("gridsim.falloff.h{hosts}.{kind}.ns_per_event"),
            k.map_or(0.0, |k| 1e9 * k.seconds / k.events.max(1) as f64),
            "ns",
        ));
    }
    m.push((
        format!("gridsim.falloff.h{hosts}.outside_ns_per_event"),
        per_event(run.run_s - profile.handling_seconds),
        "ns",
    ));
    m.push((
        format!("gridsim.falloff.h{hosts}.total_ns_per_event"),
        per_event(run.run_s),
        "ns",
    ));
    m
}
