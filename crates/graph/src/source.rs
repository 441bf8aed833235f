//! Sources and sinks.

use crate::{Csr, NodeId};

/// Nodes with in-degree zero.
pub fn sources(g: &Csr) -> Vec<NodeId> {
    g.nodes().filter(|&v| g.in_degree(v) == 0).collect()
}

/// Nodes with out-degree zero.
pub fn sinks(g: &Csr) -> Vec<NodeId> {
    g.nodes().filter(|&v| g.out_degree(v) == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    #[test]
    fn sources_and_sinks() {
        let g = DiGraph::from_pairs(5, [(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        let csr = Csr::from_digraph(&g);
        assert_eq!(sources(&csr), vec![NodeId::new(0), NodeId::new(1)]);
        assert_eq!(sinks(&csr), vec![NodeId::new(3), NodeId::new(4)]);
    }
}
