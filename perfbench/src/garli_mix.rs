//! `garli_mix`: real GARLI replicates, one at a time on one thread.
//!
//! The jobs are the paper's training population: draws of
//! `lattice::training::sample_job(Scale::Full, ..)` over the corpus
//! library (nucleotide 8–64 taxa, amino acid, codon; none/Γ/Γ+I). Job
//! sizes span three orders of magnitude and a replicate's generation count
//! follows its search stream, so a job list or search streams redrawn per
//! seed would make the per-replicate median a property of the draw (35%
//! spread across seeds) rather than of the code. The job list and every
//! replicate's search stream are therefore fixed, which also lets each
//! replicate's `work` cells and best lnL be pinned for every seed; the seed
//! sets the order the replicates run in. The list is run a fixed number
//! of passes, `--seconds` over the nominal pass length. No grid runs.
//!
//! Each replicate runs to termination on `run_replicate`'s search stream,
//! through `Search::run_with` so that every generation is timed. Every
//! pass computes the same steps (set-up, each generation, wrap-up), and
//! each step's host time is averaged over the passes. One operation is
//! one slice of the job mix: the mix is cut
//! into 24 slices, each holding the same share of every replicate's steps
//! (slice `b` the `b`-th twenty-fourth of each), timed as host seconds per
//! 10⁹ likelihood cells. Every slice weights the jobs about as the mix
//! does, so the slices' median and tail measure the kernel and GA across
//! the mix, and every seed times the same slices. A replicate (3 ms to 5 s,
//! 15 per pass) or a generation is too unequal an operation: their
//! medians fall on small jobs, whose allocation costs swing most with the
//! host's load (over ten seeds the median generation took 1.5–2.6 ms
//! while the throughput moved by a quarter), and blocks of consecutive
//! steps fall into modes by data type, so their p75 flipped between modes
//! from seed to seed.

use crate::stats::{self, median, Fnv};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Pass};
use garli::config::GarliConfig;
use garli::model::{build_model, build_rates};
use garli::search::{Search, SearchResult};
use lattice::training::{sample_job, Scale};
use phylo::alignment::Alignment;
use phylo::likelihood::LikelihoodEngine;
use simkit::SimRng;
use std::time::Instant;

/// Stream the job list and the replicates' search streams are drawn from
/// (the committed corpus's seed).
const DRAW_SEED: u64 = 2011;

/// Replicates in the job list; one pass over it takes about ten seconds
/// on a 2-core x86-64 box.
const JOBS: usize = 15;

/// Pinned `work` cells and best lnL per job: the kernel's work counter is
/// the simulator's ground-truth job cost and must not change.
const PINS: &str = include_str!("../pins/garli_mix.txt");

/// Relative tolerance on a replicate's best lnL.
const LNL_RTOL: f64 = 1e-12;

/// Host seconds of one pass over the job list on a 2-core x86-64 box in
/// its slow spells; `--seconds` over this is the pass count, so a run
/// takes about `--seconds` at most.
const PASS_S: f64 = 11.5;

/// Slices the job mix is cut into; one operation is one slice.
const SLICES: usize = 24;

/// Set-ups per measured run, spread over its replicates.
const SETUPS: usize = 15;

/// Host seconds per 10⁹ cells of each slice of the job mix, from every
/// replicate's step times and cells: slice `b` holds the `b`-th of
/// [`SLICES`] equal shares of every replicate's steps, so each slice
/// weights the jobs as the whole mix does and ran spread over the pass.
fn slice_costs(secs: &[Vec<f64>], cells: &[Vec<u64>]) -> Vec<f64> {
    (0..SLICES)
        .map(|b| {
            let (mut s, mut c) = (0.0, 0u64);
            for (t, w) in secs.iter().zip(cells) {
                let n = t.len();
                for k in b * n / SLICES..(b + 1) * n / SLICES {
                    s += t[k];
                    c += w[k];
                }
            }
            1e9 * s / c as f64
        })
        .collect()
}

/// The job list: `n` draws of the corpus sampler from a fixed stream.
pub fn jobs(n: usize) -> Vec<(GarliConfig, Alignment)> {
    let mut rng = SimRng::new(DRAW_SEED).fork("garli_mix");
    (0..n).map(|_| sample_job(Scale::Full, &mut rng)).collect()
}

fn pin(job: usize) -> Option<(u64, f64)> {
    PINS.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f[0].parse() == Ok(job))
        .map(|f| {
            (
                f[1].parse().expect("pinned cells are integers"),
                f[2].parse().expect("pinned lnL is a float"),
            )
        })
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// lnL of the best tree under the final parameters, recomputed through a
/// fresh likelihood engine: an independent path to the reported score.
fn recomputed_lnl(config: &GarliConfig, alignment: &Alignment, r: &SearchResult) -> f64 {
    let model = build_model(config, &r.final_params, alignment);
    let rates = build_rates(config, &r.final_params);
    LikelihoodEngine::new(alignment, &model, rates)
        .evaluate(&r.best_tree)
        .log_likelihood
}

/// Check one pass's replicates against their pins and an independent
/// recompute, and return the digest, cells and generations of the pass.
fn check_pass(
    list: &[(GarliConfig, Alignment)],
    results: &[Option<(SearchResult, f64)>],
    out: &mut Outcome,
    first: bool,
) -> (u64, u64, u64) {
    let (mut cells_total, mut generations) = (0u64, 0u64);
    let mut digest = Fnv::default();
    for (i, ((config, alignment), r)) in list.iter().zip(results).enumerate() {
        let (result, secs) = r.as_ref().expect("every replicate ran");
        let cells = result.work.cells();
        cells_total += cells;
        generations += result.generations;
        digest
            .u64(cells)
            .f64(result.best_log_likelihood)
            .u64(result.generations);
        if first {
            out.note(format!(
                "garli_mix replicate {i}: {:?} {} taxa, cells={cells} lnL={:?} generations={} host_s={secs:.4}",
                config.data_type,
                alignment.num_taxa(),
                result.best_log_likelihood,
                result.generations
            ));
        }
        if let Some((pin_cells, pin_lnl)) = pin(i) {
            out.check(
                cells == pin_cells && rel_diff(result.best_log_likelihood, pin_lnl) <= LNL_RTOL,
                format!(
                    "replicate {i} matches its pin: cells {cells} vs {pin_cells}, lnL {:?} vs {pin_lnl:?}",
                    result.best_log_likelihood
                ),
            );
        }
        let again = recomputed_lnl(config, alignment, result);
        out.check(
            rel_diff(result.best_log_likelihood, again) <= LNL_RTOL,
            format!(
                "replicate {i} best lnL {:?} recomputes to {again:?}",
                result.best_log_likelihood
            ),
        );
    }
    (digest.finish(), cells_total, generations)
}

pub fn run(ctx: &Ctx, pass: Pass, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let n = JOBS;
    // The corpus library's alignments are simulated once per process, on
    // first use; set-up times exclude that one-off.
    lattice::training::dataset_library(Scale::Full);
    let setup = |out: &mut Outcome, tr: &mut Tracer| {
        let (jobs, secs) = tr.timed("lattice", "prepare_jobs", 0, || {
            let jobs = jobs(n);
            for (config, alignment) in &jobs {
                Search::new(config.clone(), alignment).expect("sampled jobs validate");
            }
            jobs
        });
        out.setup_s.push(secs);
        jobs
    };
    let list = setup(&mut out, tr);
    let passes = pass.fill(ctx.seconds, PASS_S, 2);
    let extra_setups = pass.extra_setups(passes * n, SETUPS);

    let root = SimRng::new(DRAW_SEED).fork("garli_mix-replicates");
    let mut generation_s = Vec::new();
    // Host seconds of each replicate's steps, per pass: the first step
    // holds validation, the starting tree and the initial population, the
    // others one whole generation each, the last the wrap-up.
    let mut steps: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n];
    let mut step_cells: Vec<Vec<u64>> = vec![Vec::new(); n];
    let (mut cells_total, mut generations) = (0u64, 0u64);
    for p in 0..passes {
        let mut order: Vec<usize> = (0..n).collect();
        SimRng::new(ctx.seed)
            .fork_idx("order", p as u64)
            .shuffle(&mut order);
        let mut results = vec![None; n];
        for (k, &i) in order.iter().enumerate() {
            if extra_setups.contains(&(p * n + k)) {
                setup(&mut out, tr);
            }
            let (config, alignment) = &list[i];
            tr.enter("garli", "replicate", i as u64);
            let started = Instant::now();
            // One stamp per generation with the cells done so far.
            let mut stamps = vec![(started, 0u64)];
            let result = Search::new(config.clone(), alignment)
                .expect("sampled jobs validate")
                .run_with(
                    &mut root.fork_idx("replicate", i as u64),
                    |p| stamps.push((Instant::now(), p.work_cells)),
                    |_| {},
                );
            let ended = Instant::now();
            stamps.push((ended, result.work.cells()));
            steps[i].push(
                stamps
                    .windows(2)
                    .map(|w| (w[1].0 - w[0].0).as_secs_f64())
                    .collect(),
            );
            step_cells[i] = stamps.windows(2).map(|w| w[1].1 - w[0].1).collect();
            // Whole generations: from one progress callback to the next.
            let whole = result.generations.saturating_sub(1) as usize;
            for w in stamps.windows(2).skip(1).take(whole) {
                generation_s.push((w[1].0 - w[0].0).as_secs_f64());
                tr.record("garli", "generation", i as u64, w[0].0, w[1].0);
            }
            tr.exit();
            out.attempted += 1;
            results[i] = Some((result, (ended - started).as_secs_f64()));
        }
        let (digest, cells, gens) = check_pass(&list, &results, &mut out, p == 0);
        if p == 0 {
            out.digest = digest;
        } else {
            out.check(
                digest == out.digest,
                "every pass over the job list computes the same replicates",
            );
        }
        cells_total += cells;
        generations += gens;
    }
    let mean: Vec<Vec<f64>> = steps.iter().map(|r| stats::mean_repeat(r)).collect();
    out.op_s = slice_costs(&mean, &step_cells);
    let host_s: f64 = mean.iter().flatten().sum();
    out.timed_s = host_s;
    out.throughput = (cells_total / passes as u64) as f64 / host_s;
    out.note(format!(
        "garli_mix: {n} replicates x {passes} passes, {} cells per pass, \
         sim reference hours per pass {:.6}",
        cells_total / passes as u64,
        (cells_total / passes as u64) as f64 / garli::work::REFERENCE_CELLS_PER_SEC / 3600.0
    ));
    if tr.is_on() {
        out.layer("garli.generation_ms_p50", 1e3 * median(&generation_s), "ms");
        out.layer("garli.cells", cells_total as f64, "count");
        out.layer("garli.generations", generations as f64, "count");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slice_takes_the_same_share_of_every_replicate() {
        // One replicate with a step per slice at 1 s per 10⁹ cells, one
        // with two steps per slice at 3 s per 10⁹ cells: every slice
        // costs the mix's weighted mean.
        let secs = vec![vec![1.0; SLICES], vec![3.0; 2 * SLICES]];
        let cells = vec![vec![1_000_000_000; SLICES], vec![1_000_000_000; 2 * SLICES]];
        let costs = slice_costs(&secs, &cells);
        assert_eq!(costs.len(), SLICES);
        assert!(costs.iter().all(|&c| (c - 7.0 / 3.0).abs() < 1e-12));
    }
}
