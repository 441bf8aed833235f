//! Plain-text graph I/O: whitespace-separated edge lists and DOT export.
//!
//! The edge-list dialect matches the common SNAP/memetracker format the
//! paper's datasets ship in: one `source target` pair per line, `#`
//! comments, blank lines ignored. Node ids may be sparse; they are
//! compacted to a dense range in first-appearance order.

use crate::{DiGraph, GraphError, NodeId};
use std::collections::HashMap;

/// Bytes of offending input an error message quotes before cutting it
/// short.
const QUOTE_LIMIT: usize = 64;

/// Quote untrusted `text` for an error message: `{text:?}` when it is
/// at most 64 bytes, else its first bytes up to that limit (cut at a
/// char boundary), `…` and its full length in bytes — so a
/// malformed multi-megabyte line is never echoed back whole.
pub fn quote_input(text: &str) -> String {
    if text.len() <= QUOTE_LIMIT {
        return format!("{text:?}");
    }
    let mut end = QUOTE_LIMIT;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{:?}… ({} bytes)", &text[..end], text.len())
}

/// Parse an edge list. Returns the graph and the original labels in
/// dense-id order (`labels[v.index()]` is the textual id of node `v`).
pub fn from_edge_list(text: &str) -> Result<(DiGraph, Vec<String>), GraphError> {
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut labels: Vec<String> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (u, v) = match (parts.next(), parts.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    reason: format!("expected `source target`, got {}", quote_input(line)),
                })
            }
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno + 1,
                reason: format!("trailing tokens after edge in {}", quote_input(line)),
            });
        }
        let intern = |tok: &str, ids: &mut HashMap<String, NodeId>, labels: &mut Vec<String>| {
            if let Some(&id) = ids.get(tok) {
                id
            } else {
                let id = NodeId::new(labels.len());
                labels.push(tok.to_owned());
                ids.insert(tok.to_owned(), id);
                id
            }
        };
        let ui = intern(u, &mut ids, &mut labels);
        let vi = intern(v, &mut ids, &mut labels);
        if ui == vi {
            return Err(GraphError::Parse {
                line: lineno + 1,
                reason: format!("self-loop on {}", quote_input(u)),
            });
        }
        edges.push((ui, vi));
    }
    let mut g = DiGraph::with_nodes(labels.len());
    for (u, v) in edges {
        g.add_edge(u, v);
    }
    Ok((g, labels))
}

/// Serialize as an edge list (dense numeric ids, one edge per line).
pub fn to_edge_list(g: &DiGraph) -> String {
    let mut out = String::with_capacity(g.edge_count() * 8);
    out.push_str(&format!(
        "# nodes {} edges {}\n",
        g.node_count(),
        g.edge_count()
    ));
    for (u, v) in g.edges() {
        out.push_str(&format!("{} {}\n", u.index(), v.index()));
    }
    out
}

/// DOT export; nodes in `highlight` are drawn filled (used to visualize
/// a chosen filter set).
pub fn to_dot(g: &DiGraph, name: &str, highlight: &[NodeId]) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph {name} {{\n"));
    for v in highlight {
        out.push_str(&format!(
            "  {} [style=filled, fillcolor=lightblue];\n",
            v.index()
        ));
    }
    for (u, v) in g.edges() {
        out.push_str(&format!("  {} -> {};\n", u.index(), v.index()));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_edge_list() {
        let text = "# a comment\nalice bob\nbob carol\n\nalice carol\n";
        let (g, labels) = from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(labels, vec!["alice", "bob", "carol"]);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(matches!(
            from_edge_list("just_one_token\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_edge_list("a b c\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_edge_list("a a\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn parse_errors_quote_a_bounded_excerpt() {
        let long = "x".repeat(1 << 20);
        for text in [
            long.clone(),
            format!("a b\n{long}"),
            format!("a b {long}"),
            format!("{long} {long}\n"),
        ] {
            let e = from_edge_list(&text).unwrap_err().to_string();
            assert!(e.len() <= 256, "{} bytes: {e}", e.len());
            assert!(e.contains("… ("), "{e}");
        }
        // Short offending text is still quoted in full.
        let e = from_edge_list("a b\njust_one_token\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            GraphError::Parse {
                line: 2,
                reason: "expected `source target`, got \"just_one_token\"".into(),
            }
            .to_string()
        );
    }

    #[test]
    fn quoted_excerpts_cut_at_a_char_boundary() {
        let fits = "é".repeat(QUOTE_LIMIT / 2);
        assert_eq!(quote_input(&fits), format!("{fits:?}"));
        // Byte 64 falls inside the 32nd `é`, so the cut backs off to 63.
        let text = format!("a{}", "é".repeat(40));
        let kept = format!("a{}", "é".repeat(31));
        assert_eq!(quote_input(&text), format!("{kept:?}… (81 bytes)"));
    }

    #[test]
    fn roundtrip_through_edge_list() {
        let g = DiGraph::from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let (g2, labels) = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g2.node_count(), 4);
        // Parsing renumbers by first appearance; map back via labels.
        let mut e1: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        let mut e2: Vec<(usize, usize)> = g2
            .edges()
            .map(|(u, v)| {
                (
                    labels[u.index()].parse().unwrap(),
                    labels[v.index()].parse().unwrap(),
                )
            })
            .collect();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
    }

    #[test]
    fn dot_contains_edges_and_highlights() {
        let g = DiGraph::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let dot = to_dot(&g, "g", &[NodeId::new(1)]);
        assert!(dot.contains("digraph g {"));
        assert!(dot.contains("0 -> 1;"));
        assert!(dot.contains("1 [style=filled"));
    }
}
