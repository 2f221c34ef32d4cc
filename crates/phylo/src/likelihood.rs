//! Felsenstein-pruning likelihood evaluation.
//!
//! The engine computes the log-likelihood of an alignment on a tree under a
//! [`SubstModel`] and a [`SiteRates`] mixture, with per-pattern numerical
//! scaling so thousand-taxon trees do not underflow.
//!
//! ## Work accounting
//!
//! Every evaluation also counts the *likelihood cells* it touched (the inner
//! products `Σ_j P_ij · L_j`). This deterministic work measure is what the
//! grid simulator uses as ground-truth job cost: it scales exactly like GARLI
//! wall time — linear in site patterns, taxa, and rate categories, quadratic
//! in state count (4 / 20 / 61 for the three data types) — which is what
//! makes the paper's nine job parameters *predictive* of runtime in the
//! first place.

use crate::alignment::Alignment;
use crate::alphabet::State;
use crate::models::{SiteRates, SubstModel};
use crate::patterns::PatternSet;
use crate::tree::Tree;

/// A likelihood evaluator bound to one alignment, model, and rate mixture.
pub struct LikelihoodEngine<'a, M: SubstModel> {
    patterns: PatternSet,
    model: &'a M,
    rates: SiteRates,
}

/// Result of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Log-likelihood (`-inf` if the data has probability zero).
    pub log_likelihood: f64,
    /// Likelihood cells computed (deterministic work measure).
    pub work: u64,
}

impl<'a, M: SubstModel> LikelihoodEngine<'a, M> {
    /// Bind an engine to `alignment` (compressed to patterns internally).
    ///
    /// # Panics
    /// Panics if the alignment's data type differs from the model's.
    pub fn new(alignment: &Alignment, model: &'a M, rates: SiteRates) -> Self {
        assert_eq!(
            alignment.data_type(),
            model.data_type(),
            "alignment/model data type mismatch"
        );
        let patterns = PatternSet::compress(alignment);
        LikelihoodEngine {
            patterns,
            model,
            rates,
        }
    }

    /// Build from an existing pattern set (bootstrap replicates reuse the
    /// compressed patterns with new weights).
    pub fn from_patterns(patterns: PatternSet, model: &'a M, rates: SiteRates) -> Self {
        LikelihoodEngine {
            patterns,
            model,
            rates,
        }
    }

    /// The compressed pattern set.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The rate mixture.
    pub fn rates(&self) -> &SiteRates {
        &self.rates
    }

    /// Log-likelihood of `tree`.
    pub fn log_likelihood(&self, tree: &Tree) -> f64 {
        self.evaluate(tree).log_likelihood
    }

    /// Log-likelihood plus work counter.
    ///
    /// # Panics
    /// Panics if the tree's taxon count does not match the alignment.
    pub fn evaluate(&self, tree: &Tree) -> Evaluation {
        evaluate_patterns(&self.patterns, self.model, &self.rates, tree)
    }
}

/// Log-likelihood of `tree` for a pattern set under `model` and `rates` —
/// the free-function form used by search loops that mutate model parameters
/// between evaluations.
///
/// This is a full evaluation: it runs the [`Partials`] kernel on a fresh
/// workspace, so nothing is reused from earlier calls.
///
/// # Panics
/// Panics if the tree's taxon count does not match the pattern set.
pub fn evaluate_patterns<M: SubstModel>(
    patterns: &PatternSet,
    model: &M,
    rates: &SiteRates,
    tree: &Tree,
) -> Evaluation {
    Partials::new().evaluate(patterns, model, rates, tree)
}

/// Patterns whose largest partial falls below this are rescaled.
const RESCALE_BELOW: f64 = 1e-30;

/// "No buffer" in the slot and parent tables.
const NONE: usize = usize::MAX;

/// One child of a buffered node: a tip, or another buffer as it stood after
/// its `generation`-th overwrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ChildRef {
    Taxon(usize),
    Buffer { id: usize, generation: u64 },
}

/// What a buffer was computed from: both children with the bits of their
/// branch lengths, in sorted order (the child product commutes exactly, so
/// the order the tree lists them in does not change the partials).
type Key = [(ChildRef, u64); 2];

/// The partials of one internal node.
#[derive(Debug, Default)]
struct Buffer {
    /// Conditional likelihoods, laid out `[category][pattern][state]`.
    clv: Vec<f64>,
    /// `(pattern, ln factor)` for every pattern this node rescaled.
    scale: Vec<(usize, f64)>,
    /// Likelihood cells computing this node took.
    cells: u64,
    /// What `clv` holds; `None` when it holds nothing reusable.
    key: Option<Key>,
    /// Bumped on every overwrite, so keys naming this buffer go stale.
    generation: u64,
}

/// A reusable workspace for Felsenstein pruning: one partials buffer per
/// internal node of the last tree it scored.
///
/// Each buffer is keyed exactly by its two children (a taxon, or a buffer
/// and that buffer's overwrite count) and their branch-length bits. An
/// evaluation reuses every internal node whose children are tips or reused
/// nodes and whose key matches a buffer, and recomputes only the others
/// into the buffers left over. A GA offspring that differs from the
/// previously scored tree by one mutation therefore recomputes about one
/// path to the root.
///
/// Reuse never changes a result. Every partial is computed by the same
/// operations in the same order as on a fresh workspace, so the
/// log-likelihood is bit-identical, and a reused node adds the cells it
/// took to compute to `work`, so the count equals a full evaluation's.
///
/// Stored partials are only valid for the pattern set, model and rates
/// they were computed under: call [`Partials::reset`] whenever any of
/// those change.
#[derive(Debug, Default)]
pub struct Partials {
    /// `[states, categories, patterns]` the buffers are sized for.
    shape: [usize; 3],
    buffers: Vec<Buffer>,
    /// Buffer of each taxon's parent in the last scored tree.
    taxon_parent: Vec<usize>,
    /// Buffer of each buffer's parent in the last scored tree.
    buffer_parent: Vec<usize>,
    /// Buffers taken by the tree being scored.
    claimed: Vec<bool>,
    /// Buffer of each tree node (internal nodes only).
    slot: Vec<usize>,
    /// Internal nodes in postorder.
    order: Vec<usize>,
    stack: Vec<(usize, bool)>,
    /// One tip's states across patterns.
    tips: Vec<State>,
    /// One branch's transition matrices, `ncat × ns²`.
    pmats: Vec<f64>,
    /// Scratch for transposing one matrix.
    pmat: Vec<f64>,
    /// Per-pattern sum of log scale factors.
    logscale: Vec<f64>,
}

impl Partials {
    /// An empty workspace; buffers are allocated on first use.
    pub fn new() -> Partials {
        Partials::default()
    }

    /// Forget every stored partial (keeping the allocations). Required
    /// whenever the pattern set, model or rates change.
    pub fn reset(&mut self) {
        for b in &mut self.buffers {
            b.key = None;
        }
    }

    /// Log-likelihood of `tree` plus the work counter, reusing whatever
    /// partials the last tree scored on this workspace shares with it.
    ///
    /// # Panics
    /// Panics if the tree's taxon count does not match the pattern set.
    pub fn evaluate<M: SubstModel>(
        &mut self,
        patterns: &PatternSet,
        model: &M,
        rates: &SiteRates,
        tree: &Tree,
    ) -> Evaluation {
        assert_eq!(
            tree.num_taxa(),
            patterns.num_taxa(),
            "tree/alignment taxon count mismatch"
        );
        let ns = model.num_states();
        let npat = patterns.num_patterns();
        self.fit([ns, rates.num_categories(), npat], tree);
        self.postorder(tree);
        self.claim_reusable(tree);
        self.compute_rest(patterns, model, rates, tree);

        // Log scale factors, summed per pattern in postorder.
        self.logscale.clear();
        self.logscale.resize(npat, 0.0);
        let mut work: u64 = 0;
        for &node in &self.order {
            let buf = &self.buffers[self.slot[node]];
            for &(p, ln) in &buf.scale {
                self.logscale[p] += ln;
            }
            work += buf.cells;
        }
        self.record_parents(tree);
        self.root_likelihood(patterns, model, rates, tree, work)
    }

    /// Size the tables for `tree` and the buffers for `shape`, dropping
    /// every stored partial if either changed.
    fn fit(&mut self, shape: [usize; 3], tree: &Tree) {
        let internal = tree.num_nodes() - tree.num_taxa();
        if self.shape != shape
            || self.buffers.len() != internal
            || self.taxon_parent.len() != tree.num_taxa()
        {
            self.shape = shape;
            self.buffers.resize_with(internal, Buffer::default);
            self.reset();
            self.taxon_parent.clear();
            self.taxon_parent.resize(tree.num_taxa(), NONE);
            self.buffer_parent.clear();
            self.buffer_parent.resize(internal, NONE);
            self.claimed.resize(internal, false);
        }
        self.claimed.fill(false);
        self.slot.clear();
        self.slot.resize(tree.num_nodes(), NONE);
        let [ns, ncat, _] = shape;
        self.pmats.resize(ncat * ns * ns, 0.0);
        self.pmat.resize(ns * ns, 0.0);
    }

    /// Internal nodes in the order [`Tree::postorder`] lists them.
    fn postorder(&mut self, tree: &Tree) {
        tree.postorder_into(&mut self.order, &mut self.stack);
        self.order.retain(|&node| !tree.is_leaf(node));
    }

    /// A child's part of its parent's key, if the child is a tip or an
    /// already-slotted node.
    fn child_ref(&self, tree: &Tree, child: usize) -> Option<(ChildRef, u64)> {
        let r = match tree.node(child).taxon {
            Some(t) => ChildRef::Taxon(t),
            None => {
                let id = self.slot[child];
                if id == NONE {
                    return None;
                }
                ChildRef::Buffer {
                    id,
                    generation: self.buffers[id].generation,
                }
            }
        };
        Some((r, tree.branch_length(child).to_bits()))
    }

    fn key(&self, tree: &Tree, node: usize) -> Option<Key> {
        let [a, b] = binary_children(tree, node);
        let (a, b) = (self.child_ref(tree, a)?, self.child_ref(tree, b)?);
        Some(if a <= b { [a, b] } else { [b, a] })
    }

    /// Give every node whose subtree is unchanged since it was stored the
    /// buffer holding it. Such a node's children are tips or reused nodes,
    /// so its stored parent in the last tree is the only candidate.
    fn claim_reusable(&mut self, tree: &Tree) {
        for i in 0..self.order.len() {
            let node = self.order[i];
            let Some(key) = self.key(tree, node) else {
                continue;
            };
            let candidate = match key[0].0 {
                ChildRef::Taxon(t) => self.taxon_parent[t],
                ChildRef::Buffer { id, .. } => self.buffer_parent[id],
            };
            if candidate != NONE
                && !self.claimed[candidate]
                && self.buffers[candidate].key == Some(key)
            {
                self.claimed[candidate] = true;
                self.slot[node] = candidate;
            }
        }
    }

    /// Recompute, in postorder, every node left without a buffer, each into
    /// the lowest buffer still free.
    fn compute_rest<M: SubstModel>(
        &mut self,
        patterns: &PatternSet,
        model: &M,
        rates: &SiteRates,
        tree: &Tree,
    ) {
        let [ns, ncat, npat] = self.shape;
        let mut free = 0;
        for i in 0..self.order.len() {
            let node = self.order[i];
            if self.slot[node] != NONE {
                continue;
            }
            while self.claimed[free] {
                free += 1;
            }
            // Keyless until rewritten, so a panic midway leaves nothing to
            // falsely reuse.
            self.buffers[free].key = None;
            let mut clv = std::mem::take(&mut self.buffers[free].clv);
            clv.resize(ncat * npat * ns, 0.0);
            let mut cells = 0;
            for (n, child) in binary_children(tree, node).into_iter().enumerate() {
                let first = n == 0;
                let t = tree.branch_length(child);
                match tree.node(child).taxon {
                    Some(taxon) => {
                        self.tips.clear();
                        self.tips
                            .extend((0..npat).map(|p| patterns.state(p, taxon)));
                        load_pmats(model, rates, t, ns, &mut self.pmats, Some(&mut self.pmat));
                        cells += if first {
                            tip_child::<true>(&mut clv, &self.pmats, &self.tips, ns)
                        } else {
                            tip_child::<false>(&mut clv, &self.pmats, &self.tips, ns)
                        };
                    }
                    None => {
                        load_pmats(model, rates, t, ns, &mut self.pmats, None);
                        let cp = &self.buffers[self.slot[child]].clv;
                        cells += if first {
                            inner_child::<true>(&mut clv, &self.pmats, cp, ns, npat)
                        } else {
                            inner_child::<false>(&mut clv, &self.pmats, cp, ns, npat)
                        };
                    }
                }
            }
            let key = self.key(tree, node).expect("children are slotted first");
            self.claimed[free] = true;
            self.slot[node] = free;
            let buf = &mut self.buffers[free];
            rescale(&mut clv, &mut buf.scale, ns, npat);
            buf.clv = clv;
            buf.cells = cells;
            buf.key = Some(key);
            buf.generation += 1;
        }
    }

    /// Remember each tip's and each buffer's parent in the tree just
    /// scored: the lookup for the next evaluation's reuse.
    fn record_parents(&mut self, tree: &Tree) {
        for &node in &self.order {
            let slot = self.slot[node];
            for child in binary_children(tree, node) {
                match tree.node(child).taxon {
                    Some(t) => self.taxon_parent[t] = slot,
                    None => self.buffer_parent[self.slot[child]] = slot,
                }
            }
        }
        let top = tree.node(tree.root()).children[0];
        if !tree.is_leaf(top) {
            self.buffer_parent[self.slot[top]] = NONE;
        }
    }

    /// Combine the root leaf with its single child's partials across the
    /// rate mixture; `work` is the internal nodes' cells.
    fn root_likelihood<M: SubstModel>(
        &mut self,
        patterns: &PatternSet,
        model: &M,
        rates: &SiteRates,
        tree: &Tree,
        mut work: u64,
    ) -> Evaluation {
        let [ns, _, npat] = self.shape;
        let root = tree.root();
        let root_taxon = tree.node(root).taxon.expect("root is a leaf");
        let child = tree.node(root).children[0];
        load_pmats(
            model,
            rates,
            tree.branch_length(child),
            ns,
            &mut self.pmats,
            None,
        );
        let freqs = model.frequencies();
        let states = full_mask(ns);
        let child_taxon = tree.node(child).taxon;
        let cp: &[f64] = match child_taxon {
            Some(_) => &[],
            None => &self.buffers[self.slot[child]].clv,
        };

        let mut lnl = 0.0f64;
        for (p, &ls) in self.logscale.iter().enumerate() {
            let root_state = patterns.state(p, root_taxon).0 & states;
            let child_state = child_taxon.map(|t| patterns.state(p, t).0 & states);
            let mut site_like = 0.0f64;
            for (k, (pm, &(_, wk))) in self
                .pmats
                .chunks_exact(ns * ns)
                .zip(rates.categories())
                .enumerate()
            {
                let mut cat_like = 0.0f64;
                for i in bits(root_state) {
                    let row = &pm[i * ns..(i + 1) * ns];
                    // Σ_j P_ij · child_j
                    let inner = match child_state {
                        Some(cs) => bits(cs).fold(0.0, |s, j| s + row[j]),
                        None => {
                            let base = (k * npat + p) * ns;
                            dot(row, &cp[base..base + ns])
                        }
                    };
                    work += ns as u64;
                    cat_like += freqs[i] * inner;
                }
                site_like += wk * cat_like;
            }
            if site_like <= 0.0 {
                return Evaluation {
                    log_likelihood: f64::NEG_INFINITY,
                    work,
                };
            }
            lnl += patterns.weights()[p] * (site_like.ln() + ls);
        }
        Evaluation {
            log_likelihood: lnl,
            work,
        }
    }
}

/// The two children of an internal node.
fn binary_children(tree: &Tree, node: usize) -> [usize; 2] {
    match tree.node(node).children[..] {
        [a, b] => [a, b],
        _ => panic!("internal node {node} is not binary"),
    }
}

/// Bit mask of the first `ns` states.
fn full_mask(ns: usize) -> u64 {
    if ns >= 64 {
        u64::MAX
    } else {
        (1u64 << ns) - 1
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// `Σ_j a_j b_j`, summed left to right from zero.
#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |s, (&x, &y)| s + x * y)
}

/// The first child of a node writes its factor; the second multiplies in.
#[inline(always)]
fn put<const FIRST: bool>(out: &mut f64, factor: f64) {
    if FIRST {
        *out = factor;
    } else {
        *out *= factor;
    }
}

/// One branch's transition matrix per rate category into `out`, row-major,
/// or transposed through `scratch` when given (a tip then reads the column
/// of its state contiguously).
fn load_pmats<M: SubstModel>(
    model: &M,
    rates: &SiteRates,
    t: f64,
    ns: usize,
    out: &mut [f64],
    scratch: Option<&mut Vec<f64>>,
) {
    let mats = out.chunks_exact_mut(ns * ns).zip(rates.categories());
    match scratch {
        None => {
            for (pm, &(r, _)) in mats {
                model.transition_matrix_into(t * r, pm);
            }
        }
        Some(tmp) => {
            for (pt, &(r, _)) in mats {
                model.transition_matrix_into(t * r, tmp);
                for (i, row) in tmp.chunks_exact(ns).enumerate() {
                    for (j, &x) in row.iter().enumerate() {
                        pt[j * ns + i] = x;
                    }
                }
            }
        }
    }
}

/// Fold a tip child into `clv` through its transposed matrices `pts`.
/// A resolved tip collapses `Σ_j P_ij · L_j` to one column of P; an
/// ambiguous one sums the allowed columns. Returns cells computed.
fn tip_child<const FIRST: bool>(clv: &mut [f64], pts: &[f64], tips: &[State], ns: usize) -> u64 {
    let states = full_mask(ns);
    let mut cells = 0;
    for (cat, pt) in clv
        .chunks_exact_mut(tips.len() * ns)
        .zip(pts.chunks_exact(ns * ns))
    {
        for (out, &tip) in cat.chunks_exact_mut(ns).zip(tips) {
            match tip.index() {
                Some(j) => {
                    for (o, &x) in out.iter_mut().zip(&pt[j * ns..(j + 1) * ns]) {
                        put::<FIRST>(o, x);
                    }
                    cells += ns;
                }
                None => {
                    for (i, o) in out.iter_mut().enumerate() {
                        let s = bits(tip.0 & states).fold(0.0, |s, j| s + pt[j * ns + i]);
                        put::<FIRST>(o, s);
                    }
                    cells += ns * ns;
                }
            }
        }
    }
    cells as u64
}

/// Fold an internal child with partials `cp` into `clv` through its
/// row-major matrices `pms`. Returns cells computed.
fn inner_child<const FIRST: bool>(
    clv: &mut [f64],
    pms: &[f64],
    cp: &[f64],
    ns: usize,
    npat: usize,
) -> u64 {
    let cat_len = npat * ns;
    for ((cat, child), pm) in clv
        .chunks_exact_mut(cat_len)
        .zip(cp.chunks_exact(cat_len))
        .zip(pms.chunks_exact(ns * ns))
    {
        if let Ok(pm) = <&[f64; 16]>::try_from(pm) {
            // Nucleotides: the 4×4 matrix stays in registers.
            for (out, c) in cat.chunks_exact_mut(4).zip(child.chunks_exact(4)) {
                let (c0, c1, c2, c3) = (c[0], c[1], c[2], c[3]);
                for (i, o) in out.iter_mut().enumerate() {
                    let r = &pm[4 * i..4 * i + 4];
                    put::<FIRST>(o, 0.0 + r[0] * c0 + r[1] * c1 + r[2] * c2 + r[3] * c3);
                }
            }
        } else {
            for (out, c) in cat.chunks_exact_mut(ns).zip(child.chunks_exact(ns)) {
                for (o, row) in out.iter_mut().zip(pm.chunks_exact(ns)) {
                    put::<FIRST>(o, dot(row, c));
                }
            }
        }
    }
    (clv.len() * ns) as u64
}

/// Rescale every pattern whose largest partial (across categories and
/// states) underflows toward zero, recording `(pattern, ln factor)`.
fn rescale(clv: &mut [f64], scale: &mut Vec<(usize, f64)>, ns: usize, npat: usize) {
    scale.clear();
    let cat_len = npat * ns;
    for p in 0..npat {
        let rows = (p * ns..clv.len()).step_by(cat_len);
        let mut maxv = 0.0f64;
        for base in rows.clone() {
            for &x in &clv[base..base + ns] {
                maxv = maxv.max(x);
            }
        }
        if maxv > 0.0 && maxv < RESCALE_BELOW {
            let inv = 1.0 / maxv;
            for base in rows {
                for x in &mut clv[base..base + ns] {
                    *x *= inv;
                }
            }
            scale.push((p, maxv.ln()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::DataType;
    use crate::models::aminoacid::AaModel;
    use crate::models::codon::CodonModel;
    use crate::models::nucleotide::NucModel;
    use crate::sequence::Sequence;

    fn two_taxon_tree(t1: f64, t2: f64) -> Tree {
        let mut tree = Tree::caterpillar(2, 0.0);
        let leaf1 = tree.leaf_node(1);
        tree.set_branch_length(leaf1, t1 + t2);
        tree
    }

    fn nuc_aln(rows: &[(&str, &str)]) -> Alignment {
        Alignment::new(
            rows.iter()
                .map(|(n, s)| Sequence::from_text(*n, DataType::Nucleotide, s).unwrap())
                .collect(),
        )
        .unwrap()
    }

    /// Two-taxon JC69 likelihood has a closed form:
    /// match sites:    L = 0.25 · (0.25 + 0.75 e^{-4t/3})
    /// mismatch sites: L = 0.25 · (0.25 − 0.25 e^{-4t/3})
    #[test]
    fn two_taxon_jc_closed_form() {
        let t = 0.35;
        let tree = two_taxon_tree(t, 0.0);
        let aln = nuc_aln(&[("a", "AAC"), ("b", "AGC")]); // 2 matches, 1 mismatch
        let model = NucModel::jc69();
        let engine = LikelihoodEngine::new(&aln, &model, SiteRates::uniform());
        let lnl = engine.log_likelihood(&tree);
        let e = (-4.0 * t / 3.0f64).exp();
        let match_l = 0.25 * (0.25 + 0.75 * e);
        let mismatch_l = 0.25 * (0.25 - 0.25 * e);
        let expected = 2.0 * match_l.ln() + mismatch_l.ln();
        assert!((lnl - expected).abs() < 1e-10, "{lnl} vs {expected}");
    }

    /// The pulley principle: only the path length between the two taxa
    /// matters, not how it is split.
    #[test]
    fn two_taxon_path_length_invariance() {
        let aln = nuc_aln(&[("a", "ACGTAC"), ("b", "ACGTAA")]);
        let model = NucModel::hky85(2.0, [0.3, 0.2, 0.2, 0.3]);
        let e1 = LikelihoodEngine::new(&aln, &model, SiteRates::uniform());
        let l1 = e1.log_likelihood(&two_taxon_tree(0.3, 0.0));
        let l2 = e1.log_likelihood(&two_taxon_tree(0.1, 0.2));
        assert!((l1 - l2).abs() < 1e-10);
    }

    #[test]
    fn all_missing_column_contributes_zero() {
        let model = NucModel::jc69();
        let with_gap = nuc_aln(&[("a", "AC-"), ("b", "AG-")]);
        let without = nuc_aln(&[("a", "AC"), ("b", "AG")]);
        let tree = two_taxon_tree(0.2, 0.0);
        let lg =
            LikelihoodEngine::new(&with_gap, &model, SiteRates::uniform()).log_likelihood(&tree);
        let lw =
            LikelihoodEngine::new(&without, &model, SiteRates::uniform()).log_likelihood(&tree);
        assert!((lg - lw).abs() < 1e-10, "all-gap column must have L = 1");
    }

    #[test]
    fn gamma_one_category_equals_uniform() {
        let mut rng = simkit::SimRng::new(12);
        let tree = Tree::random_topology(6, &mut rng);
        let model = NucModel::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 100, &mut rng);
        let lu = LikelihoodEngine::new(&aln, &model, SiteRates::uniform()).log_likelihood(&tree);
        let lg =
            LikelihoodEngine::new(&aln, &model, SiteRates::gamma(1, 0.5)).log_likelihood(&tree);
        assert!((lu - lg).abs() < 1e-10);
    }

    #[test]
    fn rate_heterogeneity_changes_likelihood() {
        let aln = nuc_aln(&[("a", "ACGTACGTAC"), ("b", "ACGAACGAAC")]);
        let model = NucModel::jc69();
        let tree = two_taxon_tree(0.3, 0.0);
        let lu = LikelihoodEngine::new(&aln, &model, SiteRates::uniform()).log_likelihood(&tree);
        let lg =
            LikelihoodEngine::new(&aln, &model, SiteRates::gamma(4, 0.3)).log_likelihood(&tree);
        assert!(
            (lu - lg).abs() > 1e-6,
            "Γ(α=0.3) should move the likelihood"
        );
    }

    #[test]
    fn work_scales_with_rate_categories() {
        let mut rng = simkit::SimRng::new(13);
        let tree = Tree::random_topology(8, &mut rng);
        let model = NucModel::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 300, &mut rng);
        let e1 = LikelihoodEngine::new(&aln, &model, SiteRates::uniform()).evaluate(&tree);
        let e4 = LikelihoodEngine::new(&aln, &model, SiteRates::gamma(4, 0.5)).evaluate(&tree);
        let ratio = e4.work as f64 / e1.work as f64;
        assert!(
            (ratio - 4.0).abs() < 0.2,
            "work ratio {ratio}, expected ≈ 4"
        );
    }

    #[test]
    fn work_scales_quadratically_with_states() {
        // Same taxa/sites; amino acid (20 states) vs nucleotide (4 states):
        // internal-edge work ratio approaches (20/4)² = 25 (leaf edges are
        // linear in states, so the overall ratio sits between 5 and 25).
        let mut rng = simkit::SimRng::new(14);
        let tree = Tree::random_topology(10, &mut rng);
        let nuc = NucModel::jc69();
        let aa = AaModel::poisson();
        let aln_n = crate::simulate::Simulator::new(&nuc, SiteRates::uniform())
            .simulate(&tree, 100, &mut rng);
        let aln_a = crate::simulate::Simulator::new(&aa, SiteRates::uniform())
            .simulate(&tree, 100, &mut rng);
        let wn = LikelihoodEngine::new(&aln_n, &nuc, SiteRates::uniform())
            .evaluate(&tree)
            .work;
        let wa = LikelihoodEngine::new(&aln_a, &aa, SiteRates::uniform())
            .evaluate(&tree)
            .work;
        // Pattern counts differ between the two simulated alignments; compare
        // per-pattern work.
        let pn = PatternSet::compress(&aln_n).num_patterns() as f64;
        let pa = PatternSet::compress(&aln_a).num_patterns() as f64;
        let ratio = (wa as f64 / pa) / (wn as f64 / pn);
        assert!(
            ratio > 5.0,
            "20-state work should dwarf 4-state: ratio {ratio}"
        );
    }

    /// Invariant-sites mixture has a closed form on two taxa: the rate-0
    /// category contributes π_i only to match sites (P(0) = I), the other
    /// category is plain JC at the scaled rate.
    #[test]
    fn invariant_sites_closed_form() {
        let pinv = 0.3;
        let t = 0.4;
        let tree = two_taxon_tree(t, 0.0);
        let aln = nuc_aln(&[("a", "AG"), ("b", "AC")]); // one match, one mismatch
        let model = NucModel::jc69();
        let engine = LikelihoodEngine::new(&aln, &model, SiteRates::invariant(pinv));
        let lnl = engine.log_likelihood(&tree);
        let e = (-4.0 * (t / (1.0 - pinv)) / 3.0f64).exp();
        let match_l = pinv * 0.25 + (1.0 - pinv) * 0.25 * (0.25 + 0.75 * e);
        let mismatch_l = (1.0 - pinv) * 0.25 * (0.25 - 0.25 * e);
        let expected = match_l.ln() + mismatch_l.ln();
        assert!((lnl - expected).abs() < 1e-10, "{lnl} vs {expected}");
    }

    #[test]
    fn work_counter_is_deterministic_across_calls() {
        let mut rng = simkit::SimRng::new(16);
        let tree = Tree::random_topology(9, &mut rng);
        let model = NucModel::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 120, &mut rng);
        let engine = LikelihoodEngine::new(&aln, &model, SiteRates::gamma(4, 0.7));
        let a = engine.evaluate(&tree);
        let b = engine.evaluate(&tree);
        assert_eq!(a.work, b.work);
        assert_eq!(a.log_likelihood, b.log_likelihood);
    }

    #[test]
    fn codon_engine_runs() {
        let aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Codon, "ATGGCTAAAGCT").unwrap(),
            Sequence::from_text("b", DataType::Codon, "ATGGCGAAAGCT").unwrap(),
        ])
        .unwrap();
        let model = CodonModel::goldman_yang(2.0, 0.5);
        let engine = LikelihoodEngine::new(&aln, &model, SiteRates::uniform());
        let lnl = engine.log_likelihood(&two_taxon_tree(0.1, 0.0));
        assert!(lnl.is_finite() && lnl < 0.0);
    }

    #[test]
    fn deep_tree_does_not_underflow() {
        // Long caterpillar with sizeable branch lengths: raw likelihoods
        // underflow f64 without scaling.
        let mut rng = simkit::SimRng::new(15);
        let tree = Tree::caterpillar(60, 0.4);
        let model = NucModel::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 50, &mut rng);
        let lnl = LikelihoodEngine::new(&aln, &model, SiteRates::uniform()).log_likelihood(&tree);
        assert!(lnl.is_finite(), "scaling must prevent underflow, got {lnl}");
        assert!(lnl < -100.0);
    }

    #[test]
    fn reused_partials_carry_their_scale_factors() {
        let mut rng = simkit::SimRng::new(15);
        let mut tree = Tree::caterpillar(60, 0.4);
        let model = NucModel::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 50, &mut rng);
        let patterns = PatternSet::compress(&aln);
        let rates = SiteRates::gamma(4, 0.5);
        let mut ws = Partials::new();
        ws.evaluate(&patterns, &model, &rates, &tree);
        assert!(
            ws.buffers.iter().any(|b| !b.scale.is_empty()),
            "the caterpillar must rescale"
        );
        // Taxon 1 hangs off the root's child: changing its branch leaves
        // every deeper, rescaled node reusable.
        let leaf = tree.leaf_node(1);
        tree.set_branch_length(leaf, 0.3);
        let generations: Vec<u64> = ws.buffers.iter().map(|b| b.generation).collect();
        let reused = ws.evaluate(&patterns, &model, &rates, &tree);
        let recomputed = ws
            .buffers
            .iter()
            .zip(&generations)
            .filter(|(b, &g)| b.generation != g)
            .count();
        assert_eq!(recomputed, 1, "only the leaf's parent is recomputed");
        let fresh = evaluate_patterns(&patterns, &model, &rates, &tree);
        assert_eq!(
            reused.log_likelihood.to_bits(),
            fresh.log_likelihood.to_bits()
        );
        assert_eq!(reused.work, fresh.work);
    }

    #[test]
    #[should_panic(expected = "taxon count mismatch")]
    fn mismatched_tree_rejected() {
        let aln = nuc_aln(&[("a", "AC"), ("b", "AC")]);
        let model = NucModel::jc69();
        let engine = LikelihoodEngine::new(&aln, &model, SiteRates::uniform());
        let tree = Tree::caterpillar(3, 0.1);
        let _ = engine.log_likelihood(&tree);
    }
}
