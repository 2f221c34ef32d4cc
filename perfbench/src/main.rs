//! The Lattice stack benchmark: four workloads, end to end and per layer.
//!
//! ```text
//! perfbench --workload <pool_23k|garli_mix|portal_stream|service_ckpt>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports its end-to-end
//! metrics. `--trace 1` reports the per-layer metrics instead: it runs the
//! workload untraced and traced to price the tracing itself, then runs
//! every workload traced and the layer probes, so each traced run carries
//! every layer's numbers. The last line of standard output is one JSON
//! object; a failed output check makes it `"correct": false` and the exit
//! code 1. See README.md.

mod garli_mix;
mod layers;
mod pool;
mod portal_stream;
mod service_ckpt;
mod stats;
mod trace;

use stats::{median, peak_rss_mb};
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["pool_23k", "garli_mix", "portal_stream", "service_ckpt"];

pub struct Ctx {
    pub seed: u64,
    /// Planned length of the timed section; sizes each workload.
    pub seconds: f64,
    /// Where traces and checkpoint files go, resolved at run time.
    pub out_dir: PathBuf,
}

/// How a workload is run: measured (several set-ups, and its work
/// repeated to fill `--seconds`) or once for the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Measure,
    Trace,
}

impl Pass {
    /// How many times to repeat something the measured pass repeats `n`
    /// times; the trace does it once.
    pub fn repeats(self, n: usize) -> usize {
        match self {
            Pass::Measure => n,
            Pass::Trace => 1,
        }
    }

    /// Repeats of work that takes up to `nominal_s` host seconds, enough to
    /// fill `seconds`, and at least `min`. The count follows from the
    /// arguments alone, so every run with the same `--seconds` takes its
    /// minimum over the same number of repeats.
    pub fn fill(self, seconds: f64, nominal_s: f64, min: usize) -> usize {
        self.repeats(((seconds / nominal_s).round() as usize).max(min))
    }

    /// Operation indices, among `ops`, before which a measured pass sets
    /// up again. `setup_s` is the median of the first set-up and these:
    /// host speed on a shared machine swings within seconds, so set-ups
    /// spread over the run are what make their median a run-level number.
    pub fn extra_setups(self, ops: usize, setups: usize) -> Vec<usize> {
        let k = self.repeats(setups);
        (1..k).map(|j| j * ops / k).collect()
    }
}

type Metric = (String, f64, &'static str);

/// What one pass of a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each operation.
    pub op_s: Vec<f64>,
    /// Work per host second, in the workload's own unit of work.
    pub throughput: f64,
    /// Host seconds of the timed section, for the tracing overhead.
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-64 of the simulated outputs.
    pub digest: u64,
    /// Per-layer metrics, filled by traced passes.
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Count an output check; a failure is reported and counted.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[check] FAILED: {what}");
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    /// A line of run detail, on standard error.
    pub fn note(&self, line: String) {
        eprintln!("{line}");
    }
}

fn run_workload(name: &str, ctx: &Ctx, pass: Pass, tr: &mut Tracer) -> Outcome {
    match name {
        "pool_23k" => pool::run(ctx, pass, tr),
        "garli_mix" => garli_mix::run(ctx, pass, tr),
        "portal_stream" => portal_stream::run(ctx, pass, tr),
        "service_ckpt" => service_ckpt::run(ctx, pass, tr),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(15.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// `PERFBENCH_OUT`, or `.perfbench-out` under the directory the benchmark
/// runs from.
fn out_dir() -> PathBuf {
    match std::env::var_os("PERFBENCH_OUT") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::current_dir()
            .expect("the current directory is readable")
            .join(".perfbench-out"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&ctx.out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", ctx.out_dir.display()));
    let (attempted, failed, metrics) = if args.trace {
        traced(&args.workload, &ctx)
    } else {
        measured(&args.workload, &ctx)
    };
    let correct = emit(attempted, failed, &metrics);
    std::process::exit(if correct { 0 } else { 1 });
}

/// The untraced run: end-to-end metrics only.
fn measured(workload: &str, ctx: &Ctx) -> (u64, u64, Vec<Metric>) {
    let o = run_workload(workload, ctx, Pass::Measure, &mut Tracer::off());
    let (tail, pct) = stats::tail(&o.op_s);
    println!(
        "workload {workload}, seed {}: digest {:016x}",
        ctx.seed, o.digest
    );
    println!(
        "op_s_tail is p{pct:.1} of {} operations; setup_s is the median of {} set-ups",
        o.op_s.len(),
        o.setup_s.len()
    );
    let metrics = vec![
        ("setup_s".to_string(), median(&o.setup_s), "s"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
        ("throughput_per_s".to_string(), o.throughput, "1/s"),
        ("op_s_p50".to_string(), median(&o.op_s), "s"),
        ("op_s_tail".to_string(), tail, "s"),
    ];
    (o.attempted, o.failed, metrics)
}

/// The traced run: per-layer metrics from every workload, the layer probes
/// and the E17 falloff arm, plus the selected workload's tracing overhead.
fn traced(workload: &str, ctx: &Ctx) -> (u64, u64, Vec<Metric>) {
    let untraced = run_workload(workload, ctx, Pass::Trace, &mut Tracer::off());
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut tr = Tracer::on();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut traced_s = f64::NAN;
    for name in WORKLOADS {
        tr.enter("bench", "workload", 0);
        let mut o = run_workload(name, ctx, Pass::Trace, &mut tr);
        tr.exit();
        if name == workload {
            traced_s = o.timed_s;
            o.check(
                o.digest == untraced.digest,
                format!("tracing leaves {name}'s simulated outputs unchanged"),
            );
            println!(
                "workload {workload}, seed {}: digest {:016x}",
                ctx.seed, o.digest
            );
        }
        attempted += o.attempted;
        failed += o.failed;
        metrics.append(&mut o.layers);
    }

    // The E17 falloff: the same pool shape at 10k hosts, profiled.
    tr.enter("bench", "falloff", 0);
    let small = pool::run_pool(10_000, ctx.seed, &mut tr);
    tr.exit();
    attempted += small.workunits as u64;
    failed += (small.workunits - small.completed) as u64;
    metrics.extend(pool::falloff_metrics(10_000, &small));

    metrics.extend(layers::probes(ctx.seed, &mut tr));
    metrics.push(("bench.untraced_s".into(), untraced.timed_s, "s"));
    metrics.push(("bench.traced_s".into(), traced_s, "s"));
    metrics.push((
        "bench.trace_overhead_ratio".into(),
        traced_s / untraced.timed_s,
        "ratio",
    ));

    let path = ctx
        .out_dir
        .join(format!("trace-{workload}-seed{}.json", ctx.seed));
    attempted += 1;
    match tr.write(&path) {
        Ok(()) => eprintln!("[trace] {}", path.display()),
        Err(e) => {
            eprintln!("[trace] could not write {}: {e}", path.display());
            failed += 1;
        }
    }
    eprintln!("[trace] self time by span:");
    for (name, t) in tr.totals() {
        eprintln!(
            "  {name:<32} {:>8} spans {:>10.4} s total {:>10.4} s self",
            t.count, t.total_s, t.self_s
        );
    }
    (attempted, failed, metrics)
}

/// Print every metric by name and unit, then the result line. Returns
/// whether the run is correct.
fn emit(attempted: u64, failed: u64, metrics: &[Metric]) -> bool {
    let mut names = std::collections::BTreeSet::new();
    let mut correct = failed == 0;
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(names.insert(name.as_str()), "metric {name} reported twice");
        println!("{name} = {value} {unit}");
        let shown = if value.is_finite() {
            format!("{value:?}")
        } else {
            eprintln!("[check] FAILED: {name} is {value}");
            correct = false;
            "null".to_string()
        };
        if i > 0 {
            json.push_str(", ");
        }
        write!(
            json,
            "\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        attempted.max(1),
        failed
    );
    correct
}
