//! Newick tree serialization and parsing.
//!
//! Output uses the conventional *unrooted* form: the root leaf (taxon 0) and
//! the two subtrees of its child are written as a trifurcation, e.g.
//! `(t0:0.1,(t1:0.2,t2:0.3):0.05,t3:0.4);`. The parser accepts that form and
//! ordinary rooted binary Newick, suppressing a degree-2 root if present.

use crate::tree::Tree;
use std::fmt::Write as _;

/// Serialize `tree` to a Newick string, naming leaves with `names[taxon]`.
///
/// # Panics
/// Panics if `names` has fewer entries than taxa.
pub fn to_newick(tree: &Tree, names: &[&str]) -> String {
    assert!(names.len() >= tree.num_taxa(), "not enough taxon names");
    let root = tree.root();
    let child = tree.node(root).children[0];
    let mut out = String::new();
    out.push('(');
    // The root leaf carries the child's branch length in the trifurcation.
    write!(out, "{}:{}", names[0], fmt_bl(tree.branch_length(child))).unwrap();
    if tree.node(child).taxon.is_some() {
        // Two-taxon tree: (t0:bl,t1:0);
        write!(out, ",{}:0", names[tree.node(child).taxon.unwrap()]).unwrap();
    } else {
        for &gc in &tree.node(child).children {
            out.push(',');
            write_subtree(tree, gc, names, &mut out);
        }
    }
    out.push_str(");");
    out
}

fn fmt_bl(bl: f64) -> String {
    format!("{bl}")
}

fn write_subtree(tree: &Tree, node: usize, names: &[&str], out: &mut String) {
    match tree.node(node).taxon {
        Some(t) => {
            write!(out, "{}:{}", names[t], fmt_bl(tree.branch_length(node))).unwrap();
        }
        None => {
            out.push('(');
            let children = &tree.node(node).children;
            for (i, &c) in children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_subtree(tree, c, names, out);
            }
            out.push(')');
            write!(out, ":{}", fmt_bl(tree.branch_length(node))).unwrap();
        }
    }
}

/// Newick parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum NewickError {
    /// Syntax problem at a byte offset.
    Syntax {
        /// Byte offset of the problem.
        position: usize,
        /// What went wrong.
        message: String,
    },
    /// A leaf label not present in the supplied taxon list.
    UnknownTaxon {
        /// The unrecognized label.
        name: String,
    },
    /// Taxon list and tree disagree (missing or duplicated taxa).
    TaxonMismatch {
        /// Details.
        message: String,
    },
    /// The tree is not binary (after root normalization).
    NotBinary,
    /// A branch length that is negative or not finite (including the sum
    /// of the two root edges a rooted tree merges into one).
    InvalidBranchLength {
        /// The offending length.
        length: f64,
    },
}

impl std::fmt::Display for NewickError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NewickError::Syntax { position, message } => {
                write!(f, "newick syntax error at byte {position}: {message}")
            }
            NewickError::UnknownTaxon { name } => write!(f, "unknown taxon {name:?}"),
            NewickError::TaxonMismatch { message } => write!(f, "taxon mismatch: {message}"),
            NewickError::NotBinary => write!(f, "tree is not binary"),
            NewickError::InvalidBranchLength { length } => {
                write!(f, "invalid branch length {length}")
            }
        }
    }
}

impl std::error::Error for NewickError {}

/// Parsed intermediate node.
enum PNode {
    Leaf { name: String, bl: f64 },
    Internal { children: Vec<PNode>, bl: f64 },
}

/// Parse a Newick string into a [`Tree`], mapping leaf labels through
/// `taxon_names` (taxon index = position in the slice).
///
/// Accepts a trifurcating root (unrooted convention) or a bifurcating root
/// (rooted convention; the root is suppressed). All other nodes must be
/// binary.
pub fn parse_newick(newick: &str, taxon_names: &[&str]) -> Result<Tree, NewickError> {
    let bytes = newick.trim().as_bytes();
    let mut pos = 0usize;
    let root = parse_node(bytes, &mut pos)?;
    // Allow optional trailing semicolon.
    skip_ws(bytes, &mut pos);
    if pos < bytes.len() && bytes[pos] == b';' {
        pos += 1;
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(NewickError::Syntax {
            position: pos,
            message: "trailing characters".into(),
        });
    }

    // Flatten into an edge list over vertex ids: leaves get taxon ids.
    let n = taxon_names.len();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut next_internal = n;
    let mut seen = vec![false; n];

    // Normalize the root into a degree-3 internal vertex:
    // - trifurcation: it IS the central vertex;
    // - bifurcation: suppress (merge its two edges into one).
    let top_children = match root {
        PNode::Internal { children, .. } => children,
        PNode::Leaf { .. } => {
            return Err(NewickError::Syntax {
                position: 0,
                message: "tree must have internal structure".into(),
            })
        }
    };
    match top_children.len() {
        3 => {
            let center = next_internal;
            next_internal += 1;
            for ch in top_children {
                attach(
                    ch,
                    center,
                    &mut edges,
                    &mut next_internal,
                    taxon_names,
                    &mut seen,
                )?;
            }
        }
        2 => {
            let mut it = top_children.into_iter();
            let a = it.next().unwrap();
            let b = it.next().unwrap();
            let (bla, blb) = (pnode_bl(&a), pnode_bl(&b));
            let va = attach_free(a, &mut edges, &mut next_internal, taxon_names, &mut seen)?;
            let vb = attach_free(b, &mut edges, &mut next_internal, taxon_names, &mut seen)?;
            edges.push((va, vb, bla + blb));
        }
        k => {
            return Err(NewickError::Syntax {
                position: 0,
                message: format!("root must have 2 or 3 children, found {k}"),
            })
        }
    }

    if !seen.iter().all(|&s| s) {
        let missing: Vec<&str> = seen
            .iter()
            .enumerate()
            .filter(|(_, s)| !**s)
            .map(|(i, _)| taxon_names[i])
            .collect();
        return Err(NewickError::TaxonMismatch {
            message: format!("taxa absent from tree: {missing:?}"),
        });
    }
    if let Some(&(_, _, length)) = edges.iter().find(|e| !(e.2.is_finite() && e.2 >= 0.0)) {
        return Err(NewickError::InvalidBranchLength { length });
    }
    Ok(Tree::from_edges(n, &edges))
}

fn pnode_bl(p: &PNode) -> f64 {
    match p {
        PNode::Leaf { bl, .. } | PNode::Internal { bl, .. } => *bl,
    }
}

/// Attach subtree `p` under vertex `parent` (edge weight = p's branch).
fn attach(
    p: PNode,
    parent: usize,
    edges: &mut Vec<(usize, usize, f64)>,
    next_internal: &mut usize,
    taxon_names: &[&str],
    seen: &mut [bool],
) -> Result<(), NewickError> {
    let bl = pnode_bl(&p);
    let v = attach_free(p, edges, next_internal, taxon_names, seen)?;
    edges.push((parent, v, bl));
    Ok(())
}

/// Materialize subtree `p` and return its vertex id (no parent edge).
fn attach_free(
    p: PNode,
    edges: &mut Vec<(usize, usize, f64)>,
    next_internal: &mut usize,
    taxon_names: &[&str],
    seen: &mut [bool],
) -> Result<usize, NewickError> {
    match p {
        PNode::Leaf { name, .. } => {
            let t = taxon_names
                .iter()
                .position(|n| *n == name)
                .ok_or(NewickError::UnknownTaxon { name: name.clone() })?;
            if seen[t] {
                return Err(NewickError::TaxonMismatch {
                    message: format!("taxon {name:?} appears twice"),
                });
            }
            seen[t] = true;
            Ok(t)
        }
        PNode::Internal { children, .. } => {
            if children.len() != 2 {
                return Err(NewickError::NotBinary);
            }
            let v = *next_internal;
            *next_internal += 1;
            for ch in children {
                attach(ch, v, edges, next_internal, taxon_names, seen)?;
            }
            Ok(v)
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_node(bytes: &[u8], pos: &mut usize) -> Result<PNode, NewickError> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == b'(' {
        *pos += 1;
        let mut children = Vec::new();
        loop {
            children.push(parse_node(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => {
                    *pos += 1;
                }
                Some(b')') => {
                    *pos += 1;
                    break;
                }
                _ => {
                    return Err(NewickError::Syntax {
                        position: *pos,
                        message: "expected ',' or ')'".into(),
                    })
                }
            }
        }
        // Optional internal label (ignored) and branch length.
        let _label = parse_label(bytes, pos);
        let bl = parse_branch_length(bytes, pos)?;
        Ok(PNode::Internal { children, bl })
    } else {
        let name = parse_label(bytes, pos);
        if name.is_empty() {
            return Err(NewickError::Syntax {
                position: *pos,
                message: "expected leaf label or '('".into(),
            });
        }
        let bl = parse_branch_length(bytes, pos)?;
        Ok(PNode::Leaf { name, bl })
    }
}

fn parse_label(bytes: &[u8], pos: &mut usize) -> String {
    skip_ws(bytes, pos);
    let start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'(' | b')' | b',' | b':' | b';' => break,
            c if c.is_ascii_whitespace() => break,
            _ => *pos += 1,
        }
    }
    String::from_utf8_lossy(&bytes[start..*pos]).into_owned()
}

fn parse_branch_length(bytes: &[u8], pos: &mut usize) -> Result<f64, NewickError> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == b':' {
        *pos += 1;
        skip_ws(bytes, pos);
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
        text.parse::<f64>().map_err(|_| NewickError::Syntax {
            position: start,
            message: format!("bad branch length {text:?}"),
        })
    } else {
        Ok(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimRng;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    #[test]
    fn roundtrip_random_trees() {
        let mut rng = SimRng::new(41);
        for n in [4usize, 5, 8, 15] {
            let t = crate::tree::Tree::random_topology(n, &mut rng);
            let nm = names(n);
            let refs: Vec<&str> = nm.iter().map(|s| s.as_str()).collect();
            let nwk = to_newick(&t, &refs);
            let back = parse_newick(&nwk, &refs).unwrap();
            assert!(t.same_topology(&back), "n={n}: {nwk}");
            assert!((t.tree_length() - back.tree_length()).abs() < 1e-9);
        }
    }

    #[test]
    fn parses_rooted_binary_form() {
        let nm = ["t0", "t1", "t2", "t3"];
        let t = parse_newick("((t0:0.1,t1:0.2):0.05,(t2:0.3,t3:0.4):0.05);", &nm).unwrap();
        assert_eq!(t.num_taxa(), 4);
        // Root suppression merges the two 0.05 edges.
        assert!((t.tree_length() - (0.1 + 0.2 + 0.3 + 0.4 + 0.1)).abs() < 1e-9);
        assert_eq!(t.splits().len(), 1);
    }

    #[test]
    fn parses_trifurcating_form() {
        let nm = ["a", "b", "c"];
        let t = parse_newick("(a:0.1,b:0.2,c:0.3);", &nm).unwrap();
        assert_eq!(t.num_taxa(), 3);
        assert!((t.tree_length() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn unknown_taxon_error() {
        let err = parse_newick("(a:1,b:1,zz:1);", &["a", "b", "c"]).unwrap_err();
        assert_eq!(err, NewickError::UnknownTaxon { name: "zz".into() });
    }

    #[test]
    fn duplicate_taxon_error() {
        let err = parse_newick("(a:1,a:1,b:1);", &["a", "b"]).unwrap_err();
        assert!(matches!(err, NewickError::TaxonMismatch { .. }));
    }

    #[test]
    fn missing_taxon_error() {
        let err = parse_newick("(a:1,b:1,c:1);", &["a", "b", "c", "d"]).unwrap_err();
        assert!(matches!(err, NewickError::TaxonMismatch { .. }));
    }

    #[test]
    fn syntax_errors_report_position() {
        let err = parse_newick("(a:1,b:1", &["a", "b"]).unwrap_err();
        assert!(matches!(err, NewickError::Syntax { .. }));
    }

    #[test]
    fn non_binary_internal_rejected() {
        let err =
            parse_newick("((a:1,b:1,c:1):1,d:1,e:1);", &["a", "b", "c", "d", "e"]).unwrap_err();
        assert_eq!(err, NewickError::NotBinary);
    }

    #[test]
    fn missing_branch_lengths_default_to_zero() {
        let t = parse_newick("(a,b,c);", &["a", "b", "c"]).unwrap();
        assert_eq!(t.tree_length(), 0.0);
    }

    #[test]
    fn invalid_branch_lengths_are_typed_errors() {
        let nm = ["a", "b", "c"];
        for (nwk, bad) in [
            ("(a:1e999,b:0.1,c:0.1);", f64::INFINITY),
            ("(a:-0.5,b:0.1,c:0.1);", -0.5),
            // Each length is finite; the merged root edge is not.
            ("((a:1,b:1):1e308,c:1e308);", f64::INFINITY),
        ] {
            match parse_newick(nwk, &nm) {
                Err(NewickError::InvalidBranchLength { length }) => {
                    assert_eq!(length, bad, "{nwk}")
                }
                other => panic!("{nwk}: expected InvalidBranchLength, got {other:?}"),
            }
        }
    }

    #[test]
    fn scientific_notation_branch_lengths() {
        let t = parse_newick("(a:1e-2,b:2E-2,c:3e-2);", &["a", "b", "c"]).unwrap();
        assert!((t.tree_length() - 0.06).abs() < 1e-12);
    }
}
