//! Differential test of partials reuse: one [`Partials`] workspace driven
//! through random GA-like edit sequences must give, at every step, exactly
//! the log-likelihood bits and work count of a fresh full evaluation.

use phylo::alphabet::State;
use phylo::likelihood::{evaluate_patterns, Partials};
use phylo::models::aminoacid::AaModel;
use phylo::models::codon::CodonModel;
use phylo::models::nucleotide::NucModel;
use phylo::models::{SiteRates, SubstModel};
use phylo::patterns::PatternSet;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use proptest::prelude::*;
use simkit::SimRng;

/// The rate mixtures a search can use: none, Γ4, Γ4 + invariant sites.
fn rates(kind: u8, alpha: f64, pinv: f64) -> SiteRates {
    match kind {
        0 => SiteRates::uniform(),
        1 => SiteRates::gamma(4, alpha),
        _ => SiteRates::gamma_inv(4, alpha, pinv),
    }
}

/// Compressed patterns of an alignment simulated on `tree`, with about
/// one tip state in ten turned into a gap and one in ten made ambiguous.
fn patterns<M: SubstModel>(model: &M, tree: &Tree, sites: usize, rng: &mut SimRng) -> PatternSet {
    let aln = Simulator::new(model, SiteRates::gamma(4, 0.5)).simulate(tree, sites, rng);
    let compressed = PatternSet::compress(&aln);
    let ns = model.num_states();
    let rows = (0..compressed.num_patterns())
        .map(|p| {
            (0..tree.num_taxa())
                .map(|t| {
                    let s = compressed.state(p, t);
                    match rng.index(10) {
                        0 => State::missing(model.data_type()),
                        1 => State(s.0 | 1 << rng.index(ns)),
                        _ => s,
                    }
                })
                .collect()
        })
        .collect();
    PatternSet::from_parts(rows, compressed.weights().to_vec())
}

/// One random GA mutation of the topology or a branch length.
fn mutate(tree: &mut Tree, rng: &mut SimRng) {
    match rng.index(4) {
        0 => {
            let inner = tree.internal_edge_nodes();
            if !inner.is_empty() {
                let v = *rng.choose(&inner);
                tree.nni(v, rng.index(2));
            }
        }
        1 => {
            let edges = tree.edge_nodes();
            let (prune, graft) = (*rng.choose(&edges), *rng.choose(&edges));
            tree.spr(prune, graft);
        }
        2 => {}
        _ => {
            let edges = tree.edge_nodes();
            let v = *rng.choose(&edges);
            let bl = tree.branch_length(v) * rng.range_f64(0.5, 2.0);
            tree.set_branch_length(v, bl);
        }
    }
}

/// Score `tree` on the reused workspace and on a fresh one; they must agree
/// bit for bit.
fn assert_same<M: SubstModel>(
    ws: &mut Partials,
    pats: &PatternSet,
    model: &M,
    rates: &SiteRates,
    tree: &Tree,
) {
    let reused = ws.evaluate(pats, model, rates, tree);
    let fresh = evaluate_patterns(pats, model, rates, tree);
    assert_eq!(
        reused.log_likelihood.to_bits(),
        fresh.log_likelihood.to_bits(),
        "lnL {} vs fresh {}",
        reused.log_likelihood,
        fresh.log_likelihood
    );
    assert_eq!(reused.work, fresh.work);
}

/// Breed offspring from two alternating parents, as the GA does, changing
/// the model now and then (which resets the workspace).
fn drive<M: SubstModel>(
    build: impl Fn(f64) -> M,
    taxa: usize,
    sites: usize,
    rate_kind: u8,
    steps: usize,
    seed: u64,
) {
    let mut rng = SimRng::new(seed);
    let mut model = build(2.0);
    let mut site_rates = rates(rate_kind, 0.5, 0.2);
    let truth = Tree::random_topology(taxa, &mut rng);
    let pats = patterns(&model, &truth, sites, &mut rng);
    let mut parents = [truth.clone(), Tree::random_topology(taxa, &mut rng)];
    let mut ws = Partials::new();
    for step in 0..steps {
        let which = step % 2;
        let mut child = parents[which].clone();
        mutate(&mut child, &mut rng);
        if rng.index(8) == 0 {
            model = build(rng.range_f64(0.5, 5.0));
            site_rates = rates(rate_kind, rng.range_f64(0.2, 2.0), rng.range_f64(0.05, 0.5));
            ws.reset();
        }
        assert_same(&mut ws, &pats, &model, &site_rates, &child);
        // Re-scoring the identical tree reuses every node.
        if rng.index(4) == 0 {
            assert_same(&mut ws, &pats, &model, &site_rates, &child);
        }
        if rng.index(2) == 0 {
            parents[which] = child;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nucleotide_reuse_is_exact(
        seed in 0u64..1_000_000,
        taxa in 2usize..24,
        rate_kind in 0u8..3,
    ) {
        let freqs = [0.3, 0.2, 0.2, 0.3];
        drive(|k| NucModel::gtr([1.0, k, 0.6, 1.2, k, 1.0], freqs), taxa, 150, rate_kind, 30, seed);
    }

    #[test]
    fn amino_acid_reuse_is_exact(
        seed in 0u64..1_000_000,
        taxa in 3usize..10,
        rate_kind in 0u8..3,
    ) {
        let pick = |k: f64| if k < 2.0 { AaModel::poisson() } else { AaModel::empirical() };
        drive(pick, taxa, 60, rate_kind, 16, seed);
    }

    #[test]
    fn codon_reuse_is_exact(
        seed in 0u64..1_000_000,
        taxa in 3usize..7,
        rate_kind in 0u8..3,
    ) {
        drive(|k| CodonModel::goldman_yang(k, 0.4), taxa, 20, rate_kind, 10, seed);
    }
}

/// A 60-taxon caterpillar with long branches underflows without rescaling;
/// reuse must carry each node's scale factors along with its partials.
#[test]
fn rescaled_caterpillar_reuse_is_exact() {
    let mut rng = SimRng::new(15);
    let model = NucModel::jc69();
    let site_rates = SiteRates::gamma_inv(4, 0.5, 0.2);
    let mut tree = Tree::caterpillar(60, 0.4);
    let pats = patterns(&model, &tree, 50, &mut rng);
    let mut ws = Partials::new();
    for _ in 0..40 {
        assert_same(&mut ws, &pats, &model, &site_rates, &tree);
        mutate(&mut tree, &mut rng);
    }
    let lnl = ws
        .evaluate(&pats, &model, &site_rates, &tree)
        .log_likelihood;
    assert!(lnl.is_finite() && lnl < -100.0, "{lnl}");
}
