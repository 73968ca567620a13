//! Column assignment: the paper's Section 3.1.2 algorithm.
//!
//! Given the conflict graph (zero-weight edges already absent), try an exact minimum
//! coloring. If it needs at most `k` colors, assign each color to a column — the cost `W`
//! is zero and the solution is optimal. Otherwise repeatedly merge the vertices joined by
//! the minimum-weight edge, stopping as soon as `k` colors suffice; merged vertices share
//! a column. Each round only decides `k`-colorability: a clique larger than `k` proves
//! the answer is no without coloring, and the merges happen in place.
//!
//! Variables can also be *forced* into designated scratchpad columns (Section 3.1.3): they
//! are removed from the coloring problem and the remaining variables are colored over the
//! columns that are left.

use crate::coloring;
use crate::error::LayoutError;
use crate::graph::{ConflictGraph, Vertex};
use ccache_trace::VarId;
use std::collections::{BTreeMap, BTreeSet};

/// Options controlling column assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutOptions {
    /// Total number of columns `k` in the cache.
    pub columns: usize,
    /// Size `S` of one column in bytes (informational; used by reports).
    pub column_bytes: u64,
    /// Variables pre-assigned ("forced") to specific columns, typically to emulate
    /// scratchpad memory for predictability-critical data.
    pub forced: Vec<(VarId, usize)>,
    /// Maximum number of search nodes for the exact colorer before falling back to the
    /// greedy colorer.
    pub search_budget: u64,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            columns: 4,
            column_bytes: 512,
            forced: Vec::new(),
            search_budget: coloring::DEFAULT_SEARCH_BUDGET,
        }
    }
}

impl LayoutOptions {
    /// Creates options for a cache with `columns` columns of `column_bytes` bytes each.
    pub fn new(columns: usize, column_bytes: u64) -> Self {
        LayoutOptions {
            columns,
            column_bytes,
            ..LayoutOptions::default()
        }
    }

    /// Forces `var` into `column`, removing it from the coloring problem.
    pub fn force(mut self, var: VarId, column: usize) -> Self {
        self.forced.push((var, column));
        self
    }
}

/// The result of column assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnAssignment {
    /// Number of columns in the target cache.
    pub columns: usize,
    /// Column of every graph vertex (same indexing as the input graph).
    pub vertex_columns: Vec<usize>,
    /// Columns used by each program variable (a variable split into units may span
    /// several columns).
    pub var_columns: BTreeMap<VarId, Vec<usize>>,
    /// The paper's cost `W`: total weight of edges whose endpoints share a column.
    pub cost: u64,
    /// `true` if the result came from an exact coloring with no merging (guaranteed
    /// minimum-cost, `W == 0`).
    pub optimal: bool,
    /// Number of merge iterations the heuristic performed.
    pub merges: usize,
}

impl ColumnAssignment {
    /// Returns the column of graph vertex `index`.
    pub fn column_of_vertex(&self, index: usize) -> Option<usize> {
        self.vertex_columns.get(index).copied()
    }

    /// Returns the columns used by variable `var` (empty if the variable was not assigned).
    pub fn columns_of(&self, var: VarId) -> &[usize] {
        self.var_columns.get(&var).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns every variable assigned (exclusively or not) to `column`.
    pub fn vars_in_column(&self, column: usize) -> Vec<VarId> {
        self.var_columns
            .iter()
            .filter(|(_, cols)| cols.contains(&column))
            .map(|(v, _)| *v)
            .collect()
    }
}

/// Runs the paper's column-assignment algorithm on a conflict graph.
///
/// # Errors
///
/// Returns [`LayoutError::NoColumns`] when `options.columns` is zero,
/// [`LayoutError::ForcedColumnOutOfRange`] for invalid forced assignments, and
/// [`LayoutError::TooManyReserved`] when forcing leaves no column for the remaining
/// variables while some remain to be colored.
pub fn assign_columns(
    graph: &ConflictGraph,
    options: &LayoutOptions,
) -> Result<ColumnAssignment, LayoutError> {
    if options.columns == 0 {
        return Err(LayoutError::NoColumns);
    }
    // Validate forced assignments.
    for &(var, col) in &options.forced {
        if col >= options.columns {
            return Err(LayoutError::ForcedColumnOutOfRange {
                var,
                column: col,
                columns: options.columns,
            });
        }
        if graph.index_of(var).is_none() {
            return Err(LayoutError::UnknownVariable { var });
        }
    }

    let forced_map: BTreeMap<VarId, usize> = options.forced.iter().copied().collect();
    let reserved_columns: Vec<usize> = {
        let mut v: Vec<usize> = forced_map.values().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let available_columns: Vec<usize> = (0..options.columns)
        .filter(|c| !reserved_columns.contains(c))
        .collect();

    // Partition the vertices into forced and free.
    let mut forced_vertices: BTreeMap<usize, usize> = BTreeMap::new(); // vertex -> column
    let mut free_vertices: Vec<usize> = Vec::new();
    for (idx, vertex) in graph.vertices() {
        if let Some(&col) = forced_map.get(&vertex.var) {
            forced_vertices.insert(idx, col);
        } else {
            free_vertices.push(idx);
        }
    }
    if !free_vertices.is_empty() && available_columns.is_empty() {
        return Err(LayoutError::TooManyReserved {
            reserved: reserved_columns.len(),
            columns: options.columns,
        });
    }
    let k = available_columns.len();

    // The sub-graph over the free vertices (keeping only nonzero edges).
    let mut sub_of = vec![None; graph.vertex_count()];
    for (i, &idx) in free_vertices.iter().enumerate() {
        sub_of[idx] = Some(i);
    }
    let mut current = MergeGraph::new(free_vertices.len());
    for (a, b, w) in graph.edges() {
        if let (Some(i), Some(j)) = (sub_of[a], sub_of[b]) {
            current.add_edge(i, j, w);
        }
    }

    // The merging loop of Section 3.1.2: merge the minimum-weight edge until k colors
    // suffice. A clique larger than k settles a round without coloring; otherwise the
    // round colors exactly, as `minimum_coloring` would, up to k colors. `vertex_of`
    // maps sub-graph vertices to the vertex they were merged into.
    let mut vertex_of: Vec<usize> = (0..free_vertices.len()).collect();
    let mut merges = 0usize;
    let mut optimal = true;
    let (survivors, coloring) = loop {
        if !current.clique_exceeds(k) {
            let compact =
                current.compacted(|v| graph.vertex(free_vertices[v]).expect("index valid").clone());
            match coloring::coloring_within(&compact, k, options.search_budget) {
                Ok(Some((_, coloring))) => break (current.alive, coloring),
                Ok(None) => {}
                Err(LayoutError::SearchBudgetExceeded { .. }) => {
                    // graph too large for the exact colorer — fall back to greedy
                    optimal = false;
                    let greedy = coloring::greedy_coloring(&compact);
                    if coloring::color_count(&greedy) <= k {
                        break (current.alive, greedy);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // not k-colorable: merge the minimum-weight edge and retry
        optimal = false;
        let (keep, drop) = current
            .min_weight_edge()
            .expect("a graph needing more colors than k has at least one edge");
        current.merge(keep, drop);
        for slot in vertex_of.iter_mut().filter(|slot| **slot == drop) {
            *slot = keep;
        }
        merges += 1;
    };

    // Map colors to real column numbers. If the fallback greedy coloring still uses more
    // than k colors, wrap around (an approximation; counted in the cost).
    let color_to_column = |color: usize| -> usize {
        if k == 0 {
            reserved_columns.first().copied().unwrap_or(0)
        } else {
            available_columns[color % k]
        }
    };

    let mut vertex_columns = vec![0usize; graph.vertex_count()];
    for (&idx, &col) in &forced_vertices {
        vertex_columns[idx] = col;
    }
    for (&full_idx, &vertex) in free_vertices.iter().zip(&vertex_of) {
        let position = survivors
            .binary_search(&vertex)
            .expect("merge targets survive");
        vertex_columns[full_idx] = color_to_column(coloring[position]);
    }

    let mut var_columns: BTreeMap<VarId, Vec<usize>> = BTreeMap::new();
    for (idx, vertex) in graph.vertices() {
        let entry = var_columns.entry(vertex.var).or_default();
        let col = vertex_columns[idx];
        if !entry.contains(&col) {
            entry.push(col);
        }
    }
    for cols in var_columns.values_mut() {
        cols.sort_unstable();
    }

    let cost = graph.assignment_cost(&vertex_columns);
    Ok(ColumnAssignment {
        columns: options.columns,
        vertex_columns,
        var_columns,
        cost,
        optimal: optimal && cost == 0,
        merges,
    })
}

/// The free sub-graph of [`assign_columns`], merged in place: vertices keep their
/// sub-graph indices, a merged-away vertex leaves `alive`, and the vertex it merges into
/// absorbs its edge weights. Dropping vertices keeps the survivors' relative order, so
/// every tie-break on indices picks what [`ConflictGraph::merged`] would.
struct MergeGraph {
    /// Neighbors and edge weights of every vertex (empty once merged away).
    adj: Vec<BTreeMap<usize, u64>>,
    /// The surviving vertices, in index order.
    alive: Vec<usize>,
    /// The edges as `(weight, a, b)` with `a < b`, kept in step with `adj`: the first is
    /// the minimum-weight edge, ties broken on the smallest pair.
    edges: BTreeSet<(u64, usize, usize)>,
}

impl MergeGraph {
    fn new(vertices: usize) -> Self {
        MergeGraph {
            adj: vec![BTreeMap::new(); vertices],
            alive: (0..vertices).collect(),
            edges: BTreeSet::new(),
        }
    }

    fn add_edge(&mut self, a: usize, b: usize, weight: u64) {
        self.adj[a].insert(b, weight);
        self.adj[b].insert(a, weight);
        self.edges.insert((weight, a.min(b), a.max(b)));
    }

    /// Whether the greedy clique bound exceeds `k`, which proves the graph needs more
    /// than `k` colors.
    fn clique_exceeds(&self, k: usize) -> bool {
        coloring::greedy_clique(&self.alive, self.adj.len(), k, |v| {
            self.adj[v].keys().copied()
        }) > k
    }

    /// The minimum-weight edge `(a, b)`, `a < b`, breaking ties on the smallest pair as
    /// [`ConflictGraph::min_weight_edge`] does.
    fn min_weight_edge(&self) -> Option<(usize, usize)> {
        self.edges.first().map(|&(_, a, b)| (a, b))
    }

    /// Merges `drop` into `keep`: for every other vertex `x` the weight of `(keep, x)`
    /// becomes `w(keep, x) + w(drop, x)`, and the edge between the two disappears.
    fn merge(&mut self, keep: usize, drop: usize) {
        for (x, weight) in std::mem::take(&mut self.adj[drop]) {
            self.adj[x].remove(&drop);
            self.edges.remove(&(weight, drop.min(x), drop.max(x)));
            if x == keep {
                continue;
            }
            let merged = self.adj[keep].entry(x).or_insert(0);
            self.edges.remove(&(*merged, keep.min(x), keep.max(x)));
            *merged += weight;
            let merged = *merged;
            self.adj[x].insert(keep, merged);
            self.edges.insert((merged, keep.min(x), keep.max(x)));
        }
        if let Ok(i) = self.alive.binary_search(&drop) {
            self.alive.remove(i);
        }
    }

    /// The surviving vertices as a [`ConflictGraph`], in index order. Coloring reads
    /// only the edges; `vertex` supplies each survivor's payload.
    fn compacted(&self, vertex: impl Fn(usize) -> Vertex) -> ConflictGraph {
        let mut graph = ConflictGraph::new();
        let mut position = vec![0; self.adj.len()];
        for (i, &v) in self.alive.iter().enumerate() {
            position[v] = i;
            graph.add_vertex(vertex(v));
        }
        for &a in &self.alive {
            for (&b, &weight) in self.adj[a].range(a + 1..) {
                graph.set_weight(position[a], position[b], weight);
            }
        }
        graph
    }
}

/// Checks that a raw per-vertex column list is a legal assignment for `graph` under
/// `options`: one column per vertex, every column in `0..options.columns`, and every
/// forced variable on its designated column.
///
/// This is the validation half of the search-subsystem contract: optimizers mutate raw
/// column vectors and call this (or [`assignment_from_vertex_columns`]) to reject
/// out-of-space candidates before paying for a replay.
///
/// # Errors
///
/// Returns [`LayoutError::NoColumns`], [`LayoutError::VertexCountMismatch`],
/// [`LayoutError::VertexColumnOutOfRange`], [`LayoutError::UnknownVariable`] or
/// [`LayoutError::ForcedPlacementViolated`] naming the first violation found.
pub fn validate_vertex_columns(
    graph: &ConflictGraph,
    options: &LayoutOptions,
    vertex_columns: &[usize],
) -> Result<(), LayoutError> {
    if options.columns == 0 {
        return Err(LayoutError::NoColumns);
    }
    if vertex_columns.len() != graph.vertex_count() {
        return Err(LayoutError::VertexCountMismatch {
            expected: graph.vertex_count(),
            got: vertex_columns.len(),
        });
    }
    for (vertex, &column) in vertex_columns.iter().enumerate() {
        if column >= options.columns {
            return Err(LayoutError::VertexColumnOutOfRange {
                vertex,
                column,
                columns: options.columns,
            });
        }
    }
    for &(var, col) in &options.forced {
        if col >= options.columns {
            return Err(LayoutError::ForcedColumnOutOfRange {
                var,
                column: col,
                columns: options.columns,
            });
        }
        let mut found = false;
        for (idx, vertex) in graph.vertices() {
            if vertex.var == var {
                found = true;
                if vertex_columns[idx] != col {
                    return Err(LayoutError::ForcedPlacementViolated {
                        var,
                        expected: col,
                        got: vertex_columns[idx],
                    });
                }
            }
        }
        if !found {
            return Err(LayoutError::UnknownVariable { var });
        }
    }
    Ok(())
}

/// Builds a [`ColumnAssignment`] from a raw per-vertex column list, validating it first.
///
/// The cost `W` is recomputed from the graph, so the result compares directly with the
/// output of [`assign_columns`]: a search that finds a lower-`W` vector than the heuristic
/// can quantify the improvement. `optimal` is set only when the cost is zero (a zero-cost
/// assignment is minimum by definition); `merges` is always zero because no merging
/// happened.
///
/// # Errors
///
/// Propagates the validation errors of [`validate_vertex_columns`].
pub fn assignment_from_vertex_columns(
    graph: &ConflictGraph,
    options: &LayoutOptions,
    vertex_columns: &[usize],
) -> Result<ColumnAssignment, LayoutError> {
    validate_vertex_columns(graph, options, vertex_columns)?;
    let mut var_columns: BTreeMap<VarId, Vec<usize>> = BTreeMap::new();
    for (idx, vertex) in graph.vertices() {
        let entry = var_columns.entry(vertex.var).or_default();
        let col = vertex_columns[idx];
        if !entry.contains(&col) {
            entry.push(col);
        }
    }
    for cols in var_columns.values_mut() {
        cols.sort_unstable();
    }
    let cost = graph.assignment_cost(vertex_columns);
    Ok(ColumnAssignment {
        columns: options.columns,
        vertex_columns: vertex_columns.to_vec(),
        var_columns,
        cost,
        optimal: cost == 0,
        merges: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertex(i: u32, size: u64, accesses: u64) -> Vertex {
        Vertex {
            var: VarId(i),
            name: format!("v{i}"),
            size,
            accesses,
        }
    }

    /// A graph of 3 mutually conflicting variables plus one isolated variable.
    fn sample_graph() -> ConflictGraph {
        let mut g = ConflictGraph::new();
        for i in 0..4 {
            g.add_vertex(vertex(i, 256, 100));
        }
        g.set_weight(0, 1, 10);
        g.set_weight(0, 2, 20);
        g.set_weight(1, 2, 30);
        g
    }

    #[test]
    fn colorable_graph_gets_zero_cost() {
        let g = sample_graph();
        let a = assign_columns(&g, &LayoutOptions::new(4, 512)).unwrap();
        assert_eq!(a.cost, 0);
        assert!(a.optimal);
        assert_eq!(a.merges, 0);
        // conflicting variables in distinct columns
        assert_ne!(a.vertex_columns[0], a.vertex_columns[1]);
        assert_ne!(a.vertex_columns[0], a.vertex_columns[2]);
        assert_ne!(a.vertex_columns[1], a.vertex_columns[2]);
        assert_eq!(a.columns, 4);
        assert_eq!(a.columns_of(VarId(0)).len(), 1);
    }

    #[test]
    fn merging_kicks_in_when_not_colorable() {
        // triangle but only 2 columns: must merge the lightest edge (0-1, weight 10)
        let g = sample_graph();
        let a = assign_columns(&g, &LayoutOptions::new(2, 512)).unwrap();
        assert!(a.merges >= 1);
        assert!(!a.optimal);
        // the minimum achievable cost is 10 (vertices 0 and 1 share)
        assert_eq!(a.cost, 10);
        assert_eq!(a.vertex_columns[0], a.vertex_columns[1]);
        assert_ne!(a.vertex_columns[0], a.vertex_columns[2]);
    }

    #[test]
    fn single_column_merges_everything() {
        let g = sample_graph();
        let a = assign_columns(&g, &LayoutOptions::new(1, 512)).unwrap();
        assert!(a.vertex_columns.iter().all(|&c| c == 0));
        assert_eq!(a.cost, 60);
    }

    #[test]
    fn forced_variables_keep_their_column() {
        let g = sample_graph();
        let opts = LayoutOptions::new(4, 512).force(VarId(3), 0);
        let a = assign_columns(&g, &opts).unwrap();
        assert_eq!(a.vertex_columns[3], 0);
        // the other variables avoid the reserved column
        for i in 0..3 {
            assert_ne!(a.vertex_columns[i], 0);
        }
        assert_eq!(a.cost, 0);
        assert_eq!(a.vars_in_column(0), vec![VarId(3)]);
    }

    #[test]
    fn forcing_everything_leaves_free_set_empty() {
        let mut g = ConflictGraph::new();
        g.add_vertex(vertex(0, 64, 10));
        g.add_vertex(vertex(1, 64, 10));
        let opts = LayoutOptions::new(2, 512)
            .force(VarId(0), 0)
            .force(VarId(1), 1);
        let a = assign_columns(&g, &opts).unwrap();
        assert_eq!(a.vertex_columns, vec![0, 1]);
        assert_eq!(a.cost, 0);
    }

    #[test]
    fn errors_are_reported() {
        let g = sample_graph();
        assert!(matches!(
            assign_columns(&g, &LayoutOptions::new(0, 512)),
            Err(LayoutError::NoColumns)
        ));
        assert!(matches!(
            assign_columns(&g, &LayoutOptions::new(4, 512).force(VarId(0), 9)),
            Err(LayoutError::ForcedColumnOutOfRange { .. })
        ));
        assert!(matches!(
            assign_columns(&g, &LayoutOptions::new(4, 512).force(VarId(9), 1)),
            Err(LayoutError::UnknownVariable { .. })
        ));
        // forcing all columns as scratchpad while other variables remain
        let opts = LayoutOptions::new(1, 512).force(VarId(3), 0);
        assert!(matches!(
            assign_columns(&g, &opts),
            Err(LayoutError::TooManyReserved { .. })
        ));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = ConflictGraph::new();
        let a = assign_columns(&g, &LayoutOptions::default()).unwrap();
        assert!(a.vertex_columns.is_empty());
        assert_eq!(a.cost, 0);
        assert!(a.optimal);
    }

    #[test]
    fn raw_vertex_columns_round_trip_through_validation() {
        let g = sample_graph();
        let opts = LayoutOptions::new(4, 512);
        let heuristic = assign_columns(&g, &opts).unwrap();
        let rebuilt = assignment_from_vertex_columns(&g, &opts, &heuristic.vertex_columns).unwrap();
        assert_eq!(rebuilt.vertex_columns, heuristic.vertex_columns);
        assert_eq!(rebuilt.var_columns, heuristic.var_columns);
        assert_eq!(rebuilt.cost, heuristic.cost);
    }

    #[test]
    fn raw_vertex_columns_are_validated() {
        let g = sample_graph();
        let opts = LayoutOptions::new(4, 512);
        assert!(matches!(
            validate_vertex_columns(&g, &opts, &[0, 1]),
            Err(LayoutError::VertexCountMismatch {
                expected: 4,
                got: 2
            })
        ));
        assert!(matches!(
            validate_vertex_columns(&g, &opts, &[0, 1, 2, 9]),
            Err(LayoutError::VertexColumnOutOfRange {
                vertex: 3,
                column: 9,
                ..
            })
        ));
        let forced = LayoutOptions::new(4, 512).force(VarId(3), 2);
        assert!(matches!(
            validate_vertex_columns(&g, &forced, &[0, 1, 2, 3]),
            Err(LayoutError::ForcedPlacementViolated {
                var: VarId(3),
                expected: 2,
                got: 3
            })
        ));
        validate_vertex_columns(&g, &forced, &[0, 1, 3, 2]).unwrap();
        assert!(matches!(
            validate_vertex_columns(&g, &LayoutOptions::new(0, 512), &[]),
            Err(LayoutError::NoColumns)
        ));
        let unknown = LayoutOptions::new(4, 512).force(VarId(9), 0);
        assert!(matches!(
            validate_vertex_columns(&g, &unknown, &[0, 1, 2, 3]),
            Err(LayoutError::UnknownVariable { var: VarId(9) })
        ));
    }

    #[test]
    fn decoded_assignments_recompute_cost() {
        let g = sample_graph();
        let opts = LayoutOptions::new(2, 512);
        // vertices 0 and 1 share column 0: cost is their edge weight, 10
        let a = assignment_from_vertex_columns(&g, &opts, &[0, 0, 1, 1]).unwrap();
        assert_eq!(a.cost, 10);
        assert!(!a.optimal);
        assert_eq!(a.merges, 0);
    }

    #[test]
    fn heavily_conflicting_variable_gets_own_column() {
        // v0 conflicts heavily with everyone; with 2 columns the lighter pair shares.
        let mut g = ConflictGraph::new();
        for i in 0..3 {
            g.add_vertex(vertex(i, 128, 50));
        }
        g.set_weight(0, 1, 1000);
        g.set_weight(0, 2, 1000);
        g.set_weight(1, 2, 1);
        let a = assign_columns(&g, &LayoutOptions::new(2, 512)).unwrap();
        assert_eq!(a.cost, 1);
        assert_ne!(a.vertex_columns[0], a.vertex_columns[1]);
        assert_ne!(a.vertex_columns[0], a.vertex_columns[2]);
        assert_eq!(a.vertex_columns[1], a.vertex_columns[2]);
    }
}
