//! Undirected simple graphs.

use serde::{Deserialize, Serialize};

/// An undirected simple graph over nodes `0..n`.
///
/// Invariants (enforced by all constructors): neighbor lists are sorted,
/// deduplicated, self-loop-free, and symmetric (`j ∈ adj[i] ⇔ i ∈ adj[j]`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// An edgeless graph shaped like `self`: same node count, each
    /// adjacency list pre-reserving this graph's degree. A scratch built
    /// this way can hold any subgraph of `self` (edge dropout, matchings)
    /// without ever growing an allocation.
    pub fn empty_like(&self) -> Self {
        Self {
            n: self.n,
            adj: self
                .adj
                .iter()
                .map(|a| Vec::with_capacity(a.len()))
                .collect(),
        }
    }

    /// Removes every edge while keeping each adjacency list's capacity,
    /// so per-round graph regeneration can reuse one allocation
    /// steady-state (the scheduled-topology hot path).
    pub fn clear_edges(&mut self) {
        for adj in &mut self.adj {
            adj.clear();
        }
    }

    /// Builds a graph from an edge list (duplicates and self-loops are
    /// rejected).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Self::empty(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Adds the undirected edge `(a, b)`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        assert!(
            (a as usize) < self.n && (b as usize) < self.n,
            "edge endpoint out of range"
        );
        assert_ne!(a, b, "self-loops are not allowed");
        let insert = |adj: &mut Vec<u32>, v: u32| match adj.binary_search(&v) {
            // lint:allow(no_panic, "documented Panics contract: a duplicate edge is a caller bug in graph construction")
            Ok(_) => panic!("duplicate edge ({v})"),
            Err(pos) => adj.insert(pos, v),
        };
        insert(&mut self.adj[a as usize], b);
        insert(&mut self.adj[b as usize], a);
    }

    /// Removes the undirected edge `(a, b)`.
    ///
    /// # Panics
    /// Panics if the edge does not exist.
    pub fn remove_edge(&mut self, a: u32, b: u32) {
        let remove = |adj: &mut Vec<u32>, v: u32| match adj.binary_search(&v) {
            Ok(pos) => {
                adj.remove(pos);
            }
            // lint:allow(no_panic, "documented Panics contract: removing a missing edge is a caller bug")
            Err(_) => panic!("edge ({v}) not present"),
        };
        remove(&mut self.adj[a as usize], b);
        remove(&mut self.adj[b as usize], a);
    }

    /// Ring topology: node `i` connects to `i±1 (mod n)`.
    ///
    /// # Panics
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least 3 nodes");
        let mut g = Self::empty(n);
        for i in 0..n {
            let j = (i + 1) % n;
            g.add_edge(i as u32, j as u32);
        }
        g
    }

    /// Fully-connected topology (the all-reduce communication pattern).
    pub fn complete(n: usize) -> Self {
        let mut g = Self::empty(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(i as u32, j as u32);
            }
        }
        g
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sorted neighbors of `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adj[i]
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// True if edge `(a, b)` exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&(b as u32)).is_ok()
    }

    /// True if every node has degree `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.adj.iter().all(|a| a.len() == d)
    }

    /// Minimum and maximum degree; `(0, 0)` for the empty graph.
    pub fn degree_range(&self) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for a in &self.adj {
            lo = lo.min(a.len());
            hi = hi.max(a.len());
        }
        if self.n == 0 {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// BFS connectivity check.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(0usize);
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.n
    }

    /// Checks all representation invariants: exactly `n` adjacency lists,
    /// each strictly ascending, in range and self-loop-free, and symmetric.
    /// A deserialized graph bypasses the constructors; configs check theirs
    /// with this.
    pub fn validate(&self) -> Result<(), String> {
        if self.adj.len() != self.n {
            return Err(format!("{} lists for {} nodes", self.adj.len(), self.n));
        }
        for (i, neigh) in self.adj.iter().enumerate() {
            if !neigh.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("node {i}: neighbors not strictly sorted"));
            }
            for &j in neigh {
                if j as usize >= self.n {
                    return Err(format!("node {i}: neighbor {j} out of range"));
                }
                if j as usize == i {
                    return Err(format!("node {i}: self-loop"));
                }
                if !self.has_edge(j as usize, i) {
                    return Err(format!("edge ({i}, {j}) not symmetric"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_properties() {
        let g = Graph::ring(6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.is_regular(2));
        assert!(g.is_connected());
        g.validate().unwrap();
    }

    #[test]
    fn complete_properties() {
        let g = Graph::complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.is_regular(4));
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph_is_disconnected_when_multi_node() {
        let g = Graph::empty(3);
        assert!(!g.is_connected());
    }

    #[test]
    fn single_node_graph_is_connected() {
        let g = Graph::empty(1);
        assert!(g.is_connected());
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let _ = Graph::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        let _ = Graph::from_edges(3, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn validate_rejects_malformed_deserialized_graphs() {
        let parse = |json: &str| serde_json::from_str::<Graph>(json).unwrap();
        assert!(parse(r#"{"n":3,"adj":[[1,2],[0,2],[0,1]]}"#)
            .validate()
            .is_ok());
        for bad in [
            r#"{"n":3,"adj":[]}"#,                // missing lists
            r#"{"n":3,"adj":[[1,2],[2],[0,1]]}"#, // 1 drops 0
            r#"{"n":3,"adj":[[2,1],[0],[0]]}"#,   // unsorted
            r#"{"n":3,"adj":[[1,3],[0],[]]}"#,    // out of range
            r#"{"n":3,"adj":[[0,1],[0],[]]}"#,    // self-loop
        ] {
            assert!(parse(bad).validate().is_err(), "{bad}");
        }
    }

    #[test]
    fn degree_range_reports_extremes() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree_range(), (1, 3));
    }
}
