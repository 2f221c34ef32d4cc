//! `portal_stream`: one researcher submitting campaigns through the portal.
//!
//! A closed loop with one client: each submission waits for the previous
//! one to finish. A submission is a corpus job posted as a bootstrap
//! campaign of up to 2000 replicates. It is validated, run through
//! `run_campaign` on the observed standard grid with two real probes and
//! bundling, its status page is rendered, and the §VI.E refit
//! (`OnlineEstimator::observe`) rebuilds the paper's 10⁴-tree forest over
//! the committed 150-job corpus plus every submission seen so far. As in
//! `garli_mix`, the job list comes from a fixed stream and the seed drives
//! every stochastic stream of the campaigns. One operation is one
//! submission. The stream runs several times, each from a fresh set-up,
//! and each call of a submission is timed as its mean over the repeats.

use crate::stats::{self, median, Fnv};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Pass};
use garli::config::GarliConfig;
use lattice::bundling::BundlingPolicy;
use lattice::estimator::RuntimeEstimator;
use lattice::online::OnlineEstimator;
use lattice::pipeline::{run_campaign, CampaignOptions};
use lattice::training::{sample_job, to_dataset, Scale, TrainingJob};
use phylo::alignment::Alignment;
use portal::notify::Outbox;
use portal::submission::Submission;
use portal::users::User;
use simkit::{SimRng, SimTime};

/// The committed training corpus the paper-scale forest is fitted on.
pub const CORPUS: &str = "bench_results/corpus_full_150_2011.json";
/// The paper's forest size.
const TREES: usize = RuntimeEstimator::PAPER_NUM_TREES;
/// Real GARLI probes per campaign; the other replicates are sampled.
const PROBES: usize = 2;
/// E8's scale from reference seconds to simulated grid seconds.
const RUNTIME_SCALE: f64 = 1000.0;
/// Stream the job list is drawn from.
const DRAW_SEED: u64 = 2011;
/// Submissions in one pass over the stream.
const SUBMISSIONS: usize = 6;
/// Host seconds of one pass, set-up included, on a 2-core x86-64 box in
/// its slow spells; `--seconds` over this is the repeat count, so a run
/// takes about `--seconds` at most.
const STREAM_S: f64 = 12.5;

pub fn load_corpus() -> Vec<TrainingJob> {
    let text = std::fs::read_to_string(CORPUS)
        .unwrap_or_else(|e| panic!("read {CORPUS} (run from the repository root): {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {CORPUS}: {e}"))
}

/// The submissions: corpus-sampler jobs turned into bootstrap campaigns.
fn submissions(n: usize) -> Vec<(GarliConfig, Alignment)> {
    let mut rng = SimRng::new(DRAW_SEED).fork("portal_stream");
    (0..n)
        .map(|_| {
            let (mut config, alignment) = sample_job(Scale::Full, &mut rng);
            config.bootstrap_replicates = rng.range_u64(100, 2001) as usize;
            (config, alignment)
        })
        .collect()
}

/// Host seconds of one submission's calls into each layer.
#[derive(Clone, Copy)]
struct Timings {
    validation: f64,
    run_campaign: f64,
    render: f64,
    observe: f64,
}

/// What one pass over the submissions simulated and how long each took.
struct Stream {
    timings: Vec<Timings>,
    digest: u64,
    eta_err: Vec<f64>,
    makespan_h: Vec<f64>,
    wasted: Vec<f64>,
}

pub fn run(ctx: &Ctx, pass: Pass, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // The same stream runs several times from a fresh set-up; every repeat
    // computes the same submissions, so each call is timed as its mean.
    let repeats = pass.fill(ctx.seconds, STREAM_S, 2);
    let list = submissions(SUBMISSIONS);
    let streams: Vec<Stream> = (0..repeats)
        .map(|r| {
            // An extra set-up between the streams, dropped unused.
            if r > 0 && pass == Pass::Measure {
                setup(ctx, &mut out, tr);
            }
            stream(ctx, &list, &mut out, tr, r == 0)
        })
        .collect();
    let first = &streams[0];
    for s in &streams[1..] {
        out.check(
            s.digest == first.digest,
            "stream repeats of one seed simulate the same campaigns",
        );
    }
    out.digest = first.digest;
    let mean = |f: fn(&Timings) -> f64| {
        stats::mean_repeat(
            &streams
                .iter()
                .map(|s| s.timings.iter().map(f).collect())
                .collect::<Vec<_>>(),
        )
    };
    let (validation_s, run_campaign_s, render_s, observe_s) = (
        mean(|t| t.validation),
        mean(|t| t.run_campaign),
        mean(|t| t.render),
        mean(|t| t.observe),
    );
    out.op_s = (0..validation_s.len())
        .map(|i| validation_s[i] + run_campaign_s[i] + render_s[i] + observe_s[i])
        .collect();
    out.timed_s = out.op_s.iter().sum();
    out.throughput = out.op_s.len() as f64 / out.timed_s;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.note(format!(
        "portal_stream: {} submissions x {repeats} repeats, sim makespan mean {:.3} h, \
         ETA error median {:.2}%, sim wasted CPU mean {:.4}%",
        out.op_s.len(),
        mean(&first.makespan_h),
        median(&first.eta_err),
        mean(&first.wasted)
    ));
    if tr.is_on() {
        out.layer(
            "lattice.pipeline.run_campaign_s",
            median(&run_campaign_s),
            "s",
        );
        out.layer("lattice.online.observe_s", median(&observe_s), "s");
        out.layer("portal.validation_ms", 1e3 * median(&validation_s), "ms");
        out.layer("portal.status_render_ms", 1e3 * median(&render_s), "ms");
        out.layer("lattice.eta_error_pct", median(&first.eta_err), "%");
        out.layer(
            "lattice.campaign.sim_makespan_h",
            mean(&first.makespan_h),
            "h",
        );
        out.layer(
            "lattice.campaign.sim_wasted_cpu_pct",
            mean(&first.wasted),
            "%",
        );
    }
    out
}

/// A set-up loads the corpus and fits the paper-scale forest on it.
fn setup(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) -> (OnlineEstimator, Vec<TrainingJob>, f64) {
    tr.enter("bench", "setup", 0);
    let started = std::time::Instant::now();
    let corpus = load_corpus();
    let dataset = to_dataset(&corpus);
    let (estimator, fit_s) = tr.timed("forest", "fit", 0, || {
        RuntimeEstimator::train_on_dataset(dataset, TREES, ctx.seed ^ 0xE57)
    });
    let online = OnlineEstimator::new(estimator, TREES, ctx.seed ^ 0x0A11);
    out.setup_s.push(started.elapsed().as_secs_f64());
    tr.exit();
    (online, corpus, fit_s)
}

/// One closed-loop pass over the submissions from a fresh set-up.
fn stream(
    ctx: &Ctx,
    list: &[(GarliConfig, Alignment)],
    out: &mut Outcome,
    tr: &mut Tracer,
    first: bool,
) -> Stream {
    let (mut online, corpus, fit_s) = setup(ctx, out, tr);
    if first && tr.is_on() {
        out.layer("forest.fit_s", fit_s, "s");
        let per_call: Vec<f64> = corpus
            .iter()
            .take(32)
            .map(|job| {
                tr.timed("forest", "predict", 0, || {
                    online.predict_seconds(&job.features)
                })
                .1
            })
            .collect();
        out.layer("forest.predict_us", 1e6 * median(&per_call), "us");
    }

    let mut outbox = Outbox::new();
    let mut digest = Fnv::default();
    let mut s = Stream {
        timings: Vec::new(),
        digest: 0,
        eta_err: Vec::new(),
        makespan_h: Vec::new(),
        wasted: Vec::new(),
    };
    for (i, (config, alignment)) in list.iter().cloned().enumerate() {
        let op = i as u64;
        let replicates = config.bootstrap_replicates;
        let user = User::guest("researcher@example.edu").expect("valid address");
        let mut submission = Submission::new(op + 1, user, config, alignment);
        let options = CampaignOptions {
            grid: lattice::system::observed_grid(ctx.seed ^ (op << 16)),
            probe_replicates: PROBES,
            bundling: Some(BundlingPolicy::default()),
            sim_deadline: SimTime::from_days(60),
            seed: ctx.seed ^ (op << 32),
            runtime_scale: RUNTIME_SCALE,
            ..Default::default()
        };
        out.attempted += 1;
        tr.enter("bench", "submission", op);
        let (valid, validation) = tr.timed("portal", "validation", op, || {
            submission.run_validation(&mut outbox).is_ok()
        });
        let (result, run_campaign) = tr.timed("lattice", "run_campaign", op, || {
            run_campaign(
                &mut submission,
                Some(online.estimator()),
                &options,
                &mut outbox,
            )
        });
        let Ok(result) = result.map_err(|e| eprintln!("[portal_stream] submission {op}: {e}"))
        else {
            tr.exit();
            out.failed += 1;
            continue;
        };
        let telemetry = result
            .telemetry
            .as_ref()
            .expect("the observed grid records telemetry");
        let (page, render) = tr.timed("portal", "status_render", op, || {
            portal::status::render_text(telemetry)
        });
        let features = result.features;
        let probe_mean = result.probe_mean_seconds;
        let ((), observe) = tr.timed("lattice", "observe", op, || {
            online.observe(features, probe_mean)
        });
        tr.exit();
        s.timings.push(Timings {
            validation,
            run_campaign,
            render,
            observe,
        });

        let report = &result.report;
        out.check(valid, format!("submission {op} validates"));
        out.check(
            report.completed == report.total_jobs
                && report.total_jobs == result.grid_jobs
                && submission.completed_replicates() == replicates,
            format!(
                "submission {op}: {}/{} grid jobs and {}/{replicates} replicates complete",
                report.completed,
                result.grid_jobs,
                submission.completed_replicates()
            ),
        );
        out.check(
            !page.is_empty(),
            format!("submission {op} renders a status page"),
        );
        let makespan = report.makespan_seconds.unwrap_or(f64::NAN);
        s.eta_err
            .push(100.0 * (result.eta_seconds - makespan).abs() / makespan);
        s.makespan_h.push(makespan / 3600.0);
        s.wasted.push(stats::wasted_cpu_pct(report));
        digest
            .u64(stats::report_digest(report))
            .f64(result.predicted_seconds.unwrap_or(-1.0))
            .f64(result.probe_mean_seconds)
            .f64(result.eta_seconds)
            .u64(result.bundle_size as u64);
        if first {
            out.note(format!(
                "portal_stream submission {op}: {replicates} replicates -> {} grid jobs, \
                 host_s={:.4}, sim makespan {:.3} h, ETA {:.3} h",
                result.grid_jobs,
                validation + run_campaign + render + observe,
                makespan / 3600.0,
                result.eta_seconds / 3600.0
            ));
        }
    }
    out.check(
        online.observations() == s.timings.len(),
        "every submission refit the forest",
    );
    s.digest = digest.finish();
    s
}
