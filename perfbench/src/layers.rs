//! Layer probes of the traced run: each times one public call of one layer
//! from outside, on fixed inputs, as the median over batches of calls.

use crate::stats::median;
use crate::trace::Tracer;
use gridsim::index::DispatchIndex;
use gridsim::job::JobSpec;
use gridsim::mds::{Mds, ResourceState};
use gridsim::resource::ResourceId;
use gridsim::scheduler::{
    choose_resource, choose_resource_explained, ResourceView, SchedulerPolicy,
};
use phylo::likelihood::LikelihoodEngine;
use phylo::models::aminoacid::AaModel;
use phylo::models::codon::CodonModel;
use phylo::models::nucleotide::NucModel;
use phylo::models::{SiteRates, SubstModel};
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use simkit::spans::SpanLog;
use simkit::{Calendar, SimRng, SimTime};
use std::hint::black_box;
use std::time::Instant;

type Metric = (String, f64, &'static str);

/// Seconds per call: the median over `batches` of a batch's time divided
/// by its `calls`.
fn per_call(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|b| {
            let started = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            started.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&times)
}

pub fn probes(seed: u64, tr: &mut Tracer) -> Vec<Metric> {
    let mut m = Vec::new();
    tr.enter("simkit", "probe_calendar", 0);
    m.push((
        "simkit.calendar.push_pop_ns".into(),
        1e9 * calendar(seed),
        "ns",
    ));
    tr.exit();
    tr.enter("gridsim", "probe_dispatch", 0);
    m.extend(dispatch(seed));
    tr.exit();
    tr.enter("simkit", "probe_spans", 0);
    m.push(("simkit.spans.push_ns_full".into(), 1e9 * spans_full(), "ns"));
    tr.exit();
    tr.enter("phylo", "probe_kernel", 0);
    m.extend(kernel());
    tr.exit();
    m
}

/// One `pop` plus one `schedule` with 10⁶ events pending (the hold model).
fn calendar(seed: u64) -> f64 {
    const PENDING: u64 = 1_000_000;
    let mut rng = SimRng::new(seed).fork("calendar-probe");
    let mut cal: Calendar<u64> = Calendar::new();
    for i in 0..PENDING {
        cal.schedule(SimTime::from_micros(rng.range_u64(0, 3_600_000_000)), i);
    }
    let deltas: Vec<u64> = (0..1024).map(|_| rng.range_u64(1, 7_200_000_000)).collect();
    per_call(20, 50_000, |i| {
        let (t, e) = cal.pop().expect("the calendar stays full");
        cal.schedule(SimTime::from_micros(t.as_micros() + deltas[i % 1024]), e);
    })
}

/// Matchmaking and MDS on the standard grid's service resources.
fn dispatch(seed: u64) -> Vec<Metric> {
    let resources = lattice::system::standard_grid(seed).resources;
    let mut rng = SimRng::new(seed).fork("dispatch-probe");
    let jobs: Vec<JobSpec> = (0..64)
        .map(|i| {
            let secs = rng.range_f64(900.0, 72_000.0);
            let mut job = JobSpec::simple(i, secs).with_estimate(secs);
            job.min_memory_bytes = [256u64 << 20, 2 << 30, 8 << 30, 12 << 30][i as usize % 4];
            if i % 7 == 0 {
                job = job.mpi(4);
            }
            job
        })
        .collect();
    let views: Vec<ResourceView> = resources
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let state = ResourceState {
                free_slots: spec.slots * (i % 3) / 3,
                total_slots: spec.slots,
                queued_jobs: i * 5,
            };
            ResourceView::new(ResourceId(i), spec, state, spec.speed)
        })
        .collect();
    let policy = SchedulerPolicy::default();
    let mut index = DispatchIndex::new(&resources);
    let eligible = per_call(20, 20_000, |i| {
        black_box(index.eligible(&jobs[i % jobs.len()]).len());
    });
    let choose = per_call(20, 20_000, |i| {
        black_box(choose_resource(&jobs[i % jobs.len()], &views, &policy));
    });
    let explained = per_call(20, 5_000, |i| {
        black_box(choose_resource_explained(&jobs[i % jobs.len()], &views, &policy).chosen);
    });
    let mut mds = Mds::with_default_lifetime();
    let report = per_call(20, 50_000, |i| {
        let state = ResourceState {
            free_slots: i % 17,
            total_slots: 64,
            queued_jobs: i % 5,
        };
        mds.report(ResourceId(i % 9), state, SimTime::from_secs(i as u64));
    });
    vec![
        ("gridsim.index.eligible_us".into(), 1e6 * eligible, "us"),
        ("gridsim.scheduler.choose_us".into(), 1e6 * choose, "us"),
        (
            "gridsim.scheduler.choose_explained_us".into(),
            1e6 * explained,
            "us",
        ),
        ("gridsim.mds.report_ns".into(), 1e9 * report, "ns"),
    ]
}

/// One span pushed into a full 4096-span log (the telemetry capacity).
fn spans_full() -> f64 {
    let mut log = SpanLog::new(4096);
    let record = |log: &mut SpanLog, i: usize| {
        let t = SimTime::from_secs(i as u64);
        log.record(t, t, "attempt", "job", i as u64, None, &[]);
    };
    for i in 0..4096 {
        record(&mut log, i);
    }
    per_call(20, 1_000, |i| record(&mut log, 4096 + i))
}

fn engine_probe<M: SubstModel>(
    name: &str,
    model: &M,
    taxa: usize,
    sites: usize,
    rates: SiteRates,
    seed: u64,
) -> (Metric, u64, f64) {
    let mut rng = SimRng::new(seed);
    let tree = Tree::random_topology(taxa, &mut rng);
    let alignment = Simulator::new(model, SiteRates::uniform()).simulate(&tree, sites, &mut rng);
    let engine = LikelihoodEngine::new(&alignment, model, rates);
    let work = engine.evaluate(&tree).work;
    let secs = per_call(15, 20, |_| {
        black_box(engine.evaluate(black_box(&tree)).log_likelihood);
    });
    (
        (
            format!("phylo.likelihood.evaluate_us.{name}"),
            1e6 * secs,
            "us",
        ),
        work,
        secs,
    )
}

/// The likelihood kernel on the three data types, and the P-matrix.
fn kernel() -> Vec<Metric> {
    let nuc = NucModel::gtr([1.0, 2.0, 1.0, 1.0, 2.0, 1.0], [0.3, 0.2, 0.2, 0.3]);
    let aa = AaModel::empirical();
    let codon = CodonModel::goldman_yang(2.0, 0.3);
    let probes = [
        engine_probe("nuc_gtr_g4", &nuc, 16, 500, SiteRates::gamma(4, 0.5), 1),
        engine_probe("aa", &aa, 12, 200, SiteRates::uniform(), 2),
        engine_probe("codon", &codon, 8, 60, SiteRates::uniform(), 3),
    ];
    let cells: f64 = probes.iter().map(|p| p.1 as f64).sum();
    let secs: f64 = probes.iter().map(|p| p.2).sum();
    let mut m: Vec<Metric> = probes.into_iter().map(|p| p.0).collect();
    m.push((
        "phylo.likelihood.cells_per_s".into(),
        cells / secs,
        "cells/s",
    ));

    // P-matrix of the 61-state codon model: a memoised branch length, then
    // lengths never seen before.
    black_box(codon.transition_matrix(0.1));
    let hit = per_call(15, 200, |_| {
        black_box(codon.transition_matrix(black_box(0.1)));
    });
    let miss = per_call(15, 50, |i| {
        black_box(codon.transition_matrix(0.2 + i as f64 * 1e-6));
    });
    m.push(("phylo.pmatrix_us.hit".into(), 1e6 * hit, "us"));
    m.push(("phylo.pmatrix_us.miss".into(), 1e6 * miss, "us"));
    m
}
