//! The weighted conflict graph over program variables.
//!
//! Section 3.1 of the paper builds a complete undirected graph whose vertices are the
//! program's array variables and whose edge weights quantify the number of *potential
//! conflicts* incurred when two variables share a column. The column-assignment step then
//! colors this graph. [`ConflictGraph`] stores the vertices (with their sizes and access
//! counts, needed for splitting and scratchpad decisions) and a sparse map of non-zero edge
//! weights; zero-weight edges are implicit and are exactly the edges the paper deletes
//! before coloring.

use ccache_trace::VarId;
use std::collections::BTreeMap;

/// A vertex of the conflict graph: one assignable unit (a variable or a split piece of one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vertex {
    /// The underlying program variable.
    pub var: VarId,
    /// Human-readable name (for reports).
    pub name: String,
    /// Size in bytes of the unit.
    pub size: u64,
    /// Total number of accesses attributed to the unit.
    pub accesses: u64,
}

/// Undirected weighted graph over assignable units.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictGraph {
    vertices: Vec<Vertex>,
    /// Sparse non-zero edge weights keyed by (min index, max index).
    edges: BTreeMap<(usize, usize), u64>,
}

impl ConflictGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ConflictGraph::default()
    }

    /// Adds a vertex and returns its index.
    pub fn add_vertex(&mut self, vertex: Vertex) -> usize {
        self.vertices.push(vertex);
        self.vertices.len() - 1
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of non-zero-weight edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Returns the vertex at `index`.
    pub fn vertex(&self, index: usize) -> Option<&Vertex> {
        self.vertices.get(index)
    }

    /// Iterates over the vertices in index order.
    pub fn vertices(&self) -> impl Iterator<Item = (usize, &Vertex)> {
        self.vertices.iter().enumerate()
    }

    /// Finds the index of the (first) vertex for a variable.
    pub fn index_of(&self, var: VarId) -> Option<usize> {
        self.vertices.iter().position(|v| v.var == var)
    }

    /// Sets the weight of the undirected edge `(a, b)`. A weight of zero removes the edge.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn set_weight(&mut self, a: usize, b: usize, weight: u64) {
        assert!(a != b, "self-loops are not allowed");
        assert!(a < self.vertices.len() && b < self.vertices.len());
        let key = (a.min(b), a.max(b));
        if weight == 0 {
            self.edges.remove(&key);
        } else {
            self.edges.insert(key, weight);
        }
    }

    /// Adds `weight` to the edge `(a, b)`.
    pub fn add_weight(&mut self, a: usize, b: usize, weight: u64) {
        if weight == 0 || a == b {
            return;
        }
        let key = (a.min(b), a.max(b));
        *self.edges.entry(key).or_insert(0) += weight;
    }

    /// Returns the weight of edge `(a, b)` (zero if absent).
    pub fn weight(&self, a: usize, b: usize) -> u64 {
        if a == b {
            return 0;
        }
        let key = (a.min(b), a.max(b));
        self.edges.get(&key).copied().unwrap_or(0)
    }

    /// Iterates over non-zero edges as `(a, b, weight)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.edges.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// The neighbors of `v` joined by non-zero edges.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        self.edges
            .keys()
            .filter_map(|&(a, b)| {
                if a == v {
                    Some(b)
                } else if b == v {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Degree of `v` counting only non-zero edges.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> u64 {
        self.edges.values().sum()
    }

    /// Returns the minimum-weight non-zero edge as `(a, b, weight)`, breaking ties by the
    /// smallest vertex pair, or `None` if the graph has no edges. This is the edge the
    /// paper's merging heuristic collapses when the graph is not `k`-colorable.
    pub fn min_weight_edge(&self) -> Option<(usize, usize, u64)> {
        self.edges
            .iter()
            .min_by_key(|(&(a, b), &w)| (w, a, b))
            .map(|(&(a, b), &w)| (a, b, w))
    }

    /// Evaluates the paper's cost function `W` for an assignment of vertices to columns:
    /// the sum of weights of edges whose endpoints share a column. `assignment[i]` is the
    /// column of vertex `i`.
    pub fn assignment_cost(&self, assignment: &[usize]) -> u64 {
        self.edges
            .iter()
            .filter(|(&(a, b), _)| assignment[a] == assignment[b])
            .map(|(_, &w)| w)
            .sum()
    }

    /// Returns a new graph in which vertices `a` and `b` are merged (the paper's heuristic
    /// step), together with a mapping from old vertex indices to new ones.
    ///
    /// The merged vertex keeps `a`'s variable identity, sums the sizes and access counts,
    /// and for every other vertex `x` the new edge weight is `w(a,x) + w(b,x)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn merged(&self, a: usize, b: usize) -> (ConflictGraph, Vec<usize>) {
        assert!(a != b && a < self.vertex_count() && b < self.vertex_count());
        let (keep, drop) = (a.min(b), a.max(b));
        let mut mapping = Vec::with_capacity(self.vertex_count());
        let mut new_vertices = Vec::with_capacity(self.vertex_count() - 1);
        for (i, v) in self.vertices.iter().enumerate() {
            if i == drop {
                mapping.push(usize::MAX); // patched below
                continue;
            }
            mapping.push(new_vertices.len());
            let mut nv = v.clone();
            if i == keep {
                let dropped = &self.vertices[drop];
                nv.size += dropped.size;
                nv.accesses += dropped.accesses;
                nv.name = format!("{}+{}", nv.name, dropped.name);
            }
            new_vertices.push(nv);
        }
        mapping[drop] = mapping[keep];

        let mut g = ConflictGraph {
            vertices: new_vertices,
            edges: BTreeMap::new(),
        };
        for (&(x, y), &w) in &self.edges {
            let nx = mapping[x];
            let ny = mapping[y];
            if nx != ny {
                g.add_weight(nx, ny, w);
            }
        }
        (g, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32, size: u64, accesses: u64) -> Vertex {
        Vertex {
            var: VarId(i),
            name: format!("v{i}"),
            size,
            accesses,
        }
    }

    fn triangle() -> ConflictGraph {
        let mut g = ConflictGraph::new();
        g.add_vertex(v(0, 100, 10));
        g.add_vertex(v(1, 200, 20));
        g.add_vertex(v(2, 300, 30));
        g.set_weight(0, 1, 5);
        g.set_weight(1, 2, 3);
        g.set_weight(0, 2, 7);
        g
    }

    #[test]
    fn vertices_and_edges_accessors() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.weight(0, 1), 5);
        assert_eq!(g.weight(1, 0), 5);
        assert_eq!(g.weight(0, 0), 0);
        assert_eq!(g.total_weight(), 15);
        assert_eq!(g.index_of(VarId(2)), Some(2));
        assert_eq!(g.vertex(1).unwrap().size, 200);
        assert_eq!(g.vertices().count(), 3);
    }

    #[test]
    fn zero_weight_edges_are_deleted() {
        let mut g = triangle();
        g.set_weight(0, 1, 0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.weight(0, 1), 0);
        assert_eq!(g.neighbors(0), vec![2]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn add_weight_accumulates() {
        let mut g = triangle();
        g.add_weight(0, 1, 5);
        assert_eq!(g.weight(0, 1), 10);
        g.add_weight(0, 1, 0); // no-op
        assert_eq!(g.weight(0, 1), 10);
    }

    #[test]
    fn min_weight_edge_finds_smallest() {
        let g = triangle();
        assert_eq!(g.min_weight_edge(), Some((1, 2, 3)));
        let empty = ConflictGraph::new();
        assert_eq!(empty.min_weight_edge(), None);
    }

    #[test]
    fn assignment_cost_counts_same_column_pairs() {
        let g = triangle();
        // all in different columns: W = 0
        assert_eq!(g.assignment_cost(&[0, 1, 2]), 0);
        // 0 and 1 share: W = 5
        assert_eq!(g.assignment_cost(&[0, 0, 1]), 5);
        // all share: W = 15
        assert_eq!(g.assignment_cost(&[2, 2, 2]), 15);
    }

    #[test]
    fn merged_combines_vertices_and_sums_parallel_edges() {
        let g = triangle();
        let (m, mapping) = g.merged(1, 2);
        assert_eq!(m.vertex_count(), 2);
        assert_eq!(mapping, vec![0, 1, 1]);
        // merged vertex keeps weights to 0 summed: 5 + 7 = 12
        assert_eq!(m.weight(0, 1), 12);
        let merged_vertex = m.vertex(1).unwrap();
        assert_eq!(merged_vertex.size, 500);
        assert_eq!(merged_vertex.accesses, 50);
        assert!(merged_vertex.name.contains('+'));
    }

    #[test]
    fn merged_drops_internal_edge() {
        let mut g = ConflictGraph::new();
        g.add_vertex(v(0, 1, 1));
        g.add_vertex(v(1, 1, 1));
        g.set_weight(0, 1, 9);
        let (m, _) = g.merged(0, 1);
        assert_eq!(m.vertex_count(), 1);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.total_weight(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut g = triangle();
        g.set_weight(1, 1, 4);
    }
}
