//! Graph coloring for column assignment.
//!
//! The paper colors the conflict graph after deleting its zero-weight edges: if the graph is
//! `k`-colorable (with `k` the number of columns) the assignment has cost `W = 0`. The exact
//! colorer here plays the role of Coudert's exact algorithm cited by the paper: a DSATUR-
//! ordered branch-and-bound search with a greedy-clique lower bound, which colors the small
//! conflict graphs of embedded kernels quickly. A greedy DSATUR colorer is provided both as
//! the upper bound for the exact search and as a fallback for graphs that exceed the search
//! budget.
//!
//! Both colorers pick vertices from a queue ordered by (saturation, degree, index) and
//! update saturations as neighbors change color, so a greedy coloring costs
//! O((n + E) log n) for `n` vertices and `E` edges.

use crate::error::LayoutError;
use crate::graph::ConflictGraph;
use std::collections::{BTreeSet, HashMap};

/// Adjacency over the non-zero-weight edges of a conflict graph.
fn adjacency(graph: &ConflictGraph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); graph.vertex_count()];
    for (a, b, _w) in graph.edges() {
        adj[a].push(b);
        adj[b].push(a);
    }
    adj
}

/// DSATUR bookkeeping shared by the greedy and the exact colorer. Each vertex's
/// saturation (the number of distinct colors among its colored neighbors) is kept up to
/// date as vertices are colored and uncolored, and the uncolored vertices wait in a set
/// ordered by (saturation, degree, index). Its last entry is the vertex a scan with
/// `max_by_key` over (saturation, degree) in index order would pick: that scan keeps the
/// *last* maximum, the one with the highest index.
struct Dsatur<'a> {
    adj: &'a [Vec<usize>],
    colors: Vec<Option<usize>>,
    /// How many neighbors of a vertex hold a color, for every pair with at least one.
    holders: HashMap<(usize, usize), usize>,
    saturation: Vec<usize>,
    uncolored: BTreeSet<(usize, usize, usize)>,
    /// Picks plus saturation updates (one per neighbor visited on a color change).
    steps: u64,
}

impl<'a> Dsatur<'a> {
    fn new(adj: &'a [Vec<usize>]) -> Self {
        Dsatur {
            adj,
            colors: vec![None; adj.len()],
            holders: HashMap::new(),
            saturation: vec![0; adj.len()],
            uncolored: (0..adj.len()).map(|v| (0, adj[v].len(), v)).collect(),
            steps: 0,
        }
    }

    /// The uncolored vertex to color next, or `None` when every vertex is colored.
    fn pick(&mut self) -> Option<usize> {
        let &(_, _, v) = self.uncolored.last()?;
        self.steps += 1;
        Some(v)
    }

    /// Whether no neighbor of `v` holds color `c`.
    fn is_free(&self, v: usize, c: usize) -> bool {
        !self.holders.contains_key(&(v, c))
    }

    fn color(&mut self, v: usize, c: usize) {
        self.uncolored
            .remove(&(self.saturation[v], self.adj[v].len(), v));
        self.colors[v] = Some(c);
        let adj = self.adj;
        for &u in &adj[v] {
            self.steps += 1;
            let holders = self.holders.entry((u, c)).or_insert(0);
            *holders += 1;
            if *holders == 1 {
                self.saturate(u, self.saturation[u] + 1);
            }
        }
    }

    /// Undoes the latest [`Dsatur::color`] of `v`.
    fn uncolor(&mut self, v: usize) {
        let c = self.colors[v]
            .take()
            .expect("only colored vertices are uncolored");
        let adj = self.adj;
        for &u in &adj[v] {
            self.steps += 1;
            let holders = self.holders.get_mut(&(u, c)).expect("v holds c");
            *holders -= 1;
            if *holders == 0 {
                self.holders.remove(&(u, c));
                self.saturate(u, self.saturation[u] - 1);
            }
        }
        self.uncolored.insert((self.saturation[v], adj[v].len(), v));
    }

    fn saturate(&mut self, u: usize, saturation: usize) {
        let degree = self.adj[u].len();
        if self.uncolored.remove(&(self.saturation[u], degree, u)) {
            self.uncolored.insert((saturation, degree, u));
        }
        self.saturation[u] = saturation;
    }

    fn coloring(self) -> Vec<usize> {
        self.colors.into_iter().map(|c| c.unwrap_or(0)).collect()
    }
}

/// Greedy DSATUR coloring: repeatedly colors the uncolored vertex with the highest
/// saturation (number of distinct neighbor colors), breaking ties by degree, then by the
/// highest index, with the lowest color no neighbor holds. Returns the color of every
/// vertex; colors are `0..n_colors`.
pub fn greedy_coloring(graph: &ConflictGraph) -> Vec<usize> {
    greedy(&adjacency(graph), &mut 0)
}

/// [`greedy_coloring`] over an adjacency, adding its picks and saturation updates to
/// `steps`: O((n + E) log n) for `n` vertices and `E` edges.
pub(crate) fn greedy(adj: &[Vec<usize>], steps: &mut u64) -> Vec<usize> {
    let mut dsatur = Dsatur::new(adj);
    while let Some(v) = dsatur.pick() {
        let c = (0..)
            .find(|&c| dsatur.is_free(v, c))
            .expect("some color is free");
        dsatur.color(v, c);
    }
    *steps += dsatur.steps;
    dsatur.coloring()
}

/// Number of colors used by a coloring.
pub fn color_count(coloring: &[usize]) -> usize {
    coloring.iter().copied().max().map_or(0, |m| m + 1)
}

/// Returns `true` if `coloring` assigns different colors to the endpoints of every
/// non-zero-weight edge.
pub fn is_proper(graph: &ConflictGraph, coloring: &[usize]) -> bool {
    graph.edges().all(|(a, b, _)| coloring[a] != coloring[b])
}

/// Greedy maximum-clique heuristic, used as a lower bound for the exact search.
pub fn clique_lower_bound(graph: &ConflictGraph) -> usize {
    clique_bound(&adjacency(graph))
}

fn clique_bound(adj: &[Vec<usize>]) -> usize {
    let vertices: Vec<usize> = (0..adj.len()).collect();
    greedy_clique(&vertices, adj.len(), usize::MAX, |v| adj[v].iter().copied())
}

/// The greedy clique bound over `vertices` (in index order, each below `slots`): grows a
/// clique from each of the 16 highest-degree vertices, scanning every vertex in degree
/// order (a stable sort, so ties keep index order) and keeping each one adjacent to all
/// members so far. A vertex is adjacent to all members exactly when it neighbours as
/// many of them as there are, so counting costs O(n + Σ deg) per start vertex.
///
/// Returns the size of the first clique that grows past `cap` as soon as it does, so a
/// caller asking only "more than `cap`?" stops early; otherwise the largest clique.
pub(crate) fn greedy_clique<N, I>(
    vertices: &[usize],
    slots: usize,
    cap: usize,
    neighbors: N,
) -> usize
where
    N: Fn(usize) -> I,
    I: ExactSizeIterator<Item = usize>,
{
    if vertices.is_empty() {
        return 0;
    }
    let mut order = vertices.to_vec();
    order.sort_by_key(|&v| std::cmp::Reverse(neighbors(v).len()));
    // links[v]: how many clique members v neighbours (a member neighbours size - 1)
    let mut links = vec![0usize; slots];
    let mut best = 1;
    for &start in order.iter().take(16) {
        links.fill(0);
        let mut size = 0;
        for &cand in std::iter::once(&start).chain(&order) {
            if links[cand] != size {
                continue;
            }
            size += 1;
            for u in neighbors(cand) {
                links[u] += 1;
            }
            if size > cap {
                return size;
            }
        }
        best = best.max(size);
    }
    best
}

/// Default number of backtracking nodes the exact colorer may expand before giving up.
pub const DEFAULT_SEARCH_BUDGET: u64 = 2_000_000;

/// Tries to color the graph with at most `k` colors exactly (backtracking with DSATUR
/// ordering). Returns `Ok(Some(coloring))` on success, `Ok(None)` if the graph is provably
/// not `k`-colorable, and an error if the search budget is exhausted.
pub fn k_colorable(
    graph: &ConflictGraph,
    k: usize,
    budget: u64,
) -> Result<Option<Vec<usize>>, LayoutError> {
    search(&adjacency(graph), k, budget, &mut 0)
}

/// [`k_colorable`] over an adjacency, adding its picks and saturation updates to `steps`.
///
/// Each search node picks the next vertex as the greedy colorer does and tries the colors
/// no neighbor holds, up to one past the largest in use (higher ones only relabel);
/// backtracking uncolors, which restores every saturation. The stack holds one frame per
/// colored vertex, and the largest color in use travels with the frames.
fn search(
    adj: &[Vec<usize>],
    k: usize,
    budget: u64,
    steps: &mut u64,
) -> Result<Option<Vec<usize>>, LayoutError> {
    let n = adj.len();
    if n == 0 {
        return Ok(Some(Vec::new()));
    }
    if k == 0 {
        return Ok(None);
    }
    /// A search node: its vertex, the next color to try, and one past the largest color
    /// in use when it was entered.
    struct Frame {
        v: usize,
        next: usize,
        in_use: usize,
    }
    let mut dsatur = Dsatur::new(adj);
    let mut stack: Vec<Frame> = Vec::new();
    let mut nodes: u64 = 0;
    let mut in_use = 0;
    let colored = 'enter: loop {
        nodes += 1;
        if nodes > budget {
            *steps += dsatur.steps;
            return Err(LayoutError::SearchBudgetExceeded { vertices: n });
        }
        let Some(v) = dsatur.pick() else {
            break true; // everything colored
        };
        stack.push(Frame { v, next: 0, in_use });
        while let Some(top) = stack.last_mut() {
            let limit = k.min(top.in_use + 1);
            if let Some(c) = (top.next..limit).find(|&c| dsatur.is_free(top.v, c)) {
                top.next = c + 1;
                in_use = top.in_use.max(c + 1);
                dsatur.color(top.v, c);
                continue 'enter;
            }
            // no color left for this vertex: back up and recolor the one before it
            stack.pop();
            if let Some(parent) = stack.last() {
                dsatur.uncolor(parent.v);
            }
        }
        break false;
    };
    *steps += dsatur.steps;
    Ok(colored.then(|| dsatur.coloring()))
}

/// Computes a minimum coloring exactly (within `budget` search nodes): returns the
/// chromatic number and one optimal coloring.
///
/// # Errors
///
/// Returns [`LayoutError::SearchBudgetExceeded`] if the search budget is exhausted; callers
/// fall back to [`greedy_coloring`].
pub fn minimum_coloring(
    graph: &ConflictGraph,
    budget: u64,
) -> Result<(usize, Vec<usize>), LayoutError> {
    let coloring = coloring_within(&adjacency(graph), usize::MAX, budget, &mut 0)?;
    Ok(coloring.expect("every graph has a coloring"))
}

/// The decision form of [`minimum_coloring`], over an adjacency: the same color count
/// and coloring when the graph needs at most `k` colors, `Ok(None)` when it needs more.
/// A clique bound above `k` decides without coloring, and no search asks for more than
/// `k` colors. The colorers' picks and saturation updates are added to `steps`.
///
/// # Errors
///
/// Returns [`LayoutError::SearchBudgetExceeded`] when a search for at most `k` colors
/// exhausts the budget; [`minimum_coloring`] runs that same search first and fails too.
pub(crate) fn coloring_within(
    adj: &[Vec<usize>],
    k: usize,
    budget: u64,
    steps: &mut u64,
) -> Result<Option<(usize, Vec<usize>)>, LayoutError> {
    if adj.is_empty() {
        return Ok(Some((0, Vec::new())));
    }
    let lower = clique_bound(adj);
    if lower > k {
        return Ok(None);
    }
    let greedy = greedy(adj, steps);
    let upper = color_count(&greedy);
    // try to beat the greedy bound from the clique bound upwards
    for colors in lower.max(1)..upper.min(k.saturating_add(1)) {
        if let Some(coloring) = search(adj, colors, budget, steps)? {
            return Ok(Some((colors, coloring)));
        }
    }
    Ok((upper <= k).then_some((upper, greedy)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Vertex;
    use ccache_trace::VarId;

    fn vertex(i: u32) -> Vertex {
        Vertex {
            var: VarId(i),
            name: format!("v{i}"),
            size: 64,
            accesses: 1,
        }
    }

    fn complete_graph(n: usize) -> ConflictGraph {
        let mut g = ConflictGraph::new();
        for i in 0..n {
            g.add_vertex(vertex(i as u32));
        }
        for i in 0..n {
            for j in i + 1..n {
                g.set_weight(i, j, 1);
            }
        }
        g
    }

    fn cycle_graph(n: usize) -> ConflictGraph {
        let mut g = ConflictGraph::new();
        for i in 0..n {
            g.add_vertex(vertex(i as u32));
        }
        for i in 0..n {
            g.set_weight(i, (i + 1) % n, 1);
        }
        g
    }

    #[test]
    fn greedy_produces_proper_colorings() {
        for g in [complete_graph(5), cycle_graph(5), cycle_graph(6)] {
            let c = greedy_coloring(&g);
            assert!(is_proper(&g, &c));
        }
    }

    #[test]
    fn exact_chromatic_number_of_known_graphs() {
        // K5 needs 5 colors
        let (k, c) = minimum_coloring(&complete_graph(5), DEFAULT_SEARCH_BUDGET).unwrap();
        assert_eq!(k, 5);
        assert!(is_proper(&complete_graph(5), &c));
        // odd cycle needs 3, even cycle needs 2
        let (k, _) = minimum_coloring(&cycle_graph(7), DEFAULT_SEARCH_BUDGET).unwrap();
        assert_eq!(k, 3);
        let (k, _) = minimum_coloring(&cycle_graph(8), DEFAULT_SEARCH_BUDGET).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn k_colorable_decisions() {
        let g = complete_graph(4);
        assert!(k_colorable(&g, 3, DEFAULT_SEARCH_BUDGET).unwrap().is_none());
        let c = k_colorable(&g, 4, DEFAULT_SEARCH_BUDGET).unwrap().unwrap();
        assert!(is_proper(&g, &c));
        assert!(color_count(&c) <= 4);
        assert!(k_colorable(&g, 0, DEFAULT_SEARCH_BUDGET).unwrap().is_none());
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = ConflictGraph::new();
        assert_eq!(minimum_coloring(&empty, 100).unwrap().0, 0);
        let mut g = ConflictGraph::new();
        g.add_vertex(vertex(0));
        g.add_vertex(vertex(1));
        let (k, c) = minimum_coloring(&g, 100).unwrap();
        assert_eq!(k, 1);
        assert_eq!(c, vec![0, 0]);
        assert_eq!(clique_lower_bound(&g), 1);
        assert_eq!(clique_lower_bound(&empty), 0);
    }

    #[test]
    fn clique_bound_matches_on_complete_graphs() {
        assert_eq!(clique_lower_bound(&complete_graph(6)), 6);
        assert!(clique_lower_bound(&cycle_graph(5)) >= 2);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = complete_graph(12);
        // a budget of 1 node cannot even color the first vertex tree
        let err = k_colorable(&g, 11, 1).unwrap_err();
        assert!(matches!(err, LayoutError::SearchBudgetExceeded { .. }));
    }

    #[test]
    fn color_count_counts_distinct() {
        assert_eq!(color_count(&[]), 0);
        assert_eq!(color_count(&[0, 0, 0]), 1);
        assert_eq!(color_count(&[0, 2, 1]), 3);
    }
}
