//! Graph coloring for column assignment.
//!
//! The paper colors the conflict graph after deleting its zero-weight edges: if the graph is
//! `k`-colorable (with `k` the number of columns) the assignment has cost `W = 0`. The exact
//! colorer here plays the role of Coudert's exact algorithm cited by the paper: a DSATUR-
//! ordered branch-and-bound search with a greedy-clique lower bound, which colors the small
//! conflict graphs of embedded kernels quickly. A greedy DSATUR colorer is provided both as
//! the upper bound for the exact search and as a fallback for graphs that exceed the search
//! budget.

use crate::error::LayoutError;
use crate::graph::ConflictGraph;

/// Adjacency over the non-zero-weight edges of a conflict graph.
fn adjacency(graph: &ConflictGraph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); graph.vertex_count()];
    for (a, b, _w) in graph.edges() {
        adj[a].push(b);
        adj[b].push(a);
    }
    adj
}

/// Greedy DSATUR coloring: repeatedly colors the uncolored vertex with the highest
/// saturation (number of distinct neighbor colors), breaking ties by degree. Returns the
/// color of every vertex; colors are `0..n_colors`.
pub fn greedy_coloring(graph: &ConflictGraph) -> Vec<usize> {
    let n = graph.vertex_count();
    let adj = adjacency(graph);
    let mut colors: Vec<Option<usize>> = vec![None; n];
    for _ in 0..n {
        // pick uncolored vertex with max saturation, then max degree
        let pick = (0..n)
            .filter(|&v| colors[v].is_none())
            .max_by_key(|&v| {
                let mut neigh_colors: Vec<usize> =
                    adj[v].iter().filter_map(|&u| colors[u]).collect();
                neigh_colors.sort_unstable();
                neigh_colors.dedup();
                (neigh_colors.len(), adj[v].len())
            })
            .expect("there is an uncolored vertex");
        let used: Vec<usize> = adj[pick].iter().filter_map(|&u| colors[u]).collect();
        let mut c = 0;
        while used.contains(&c) {
            c += 1;
        }
        colors[pick] = Some(c);
    }
    colors.into_iter().map(|c| c.unwrap_or(0)).collect()
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
    let adj = adjacency(graph);
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
    let n = graph.vertex_count();
    if n == 0 {
        return Ok(Some(Vec::new()));
    }
    if k == 0 {
        return Ok(None);
    }
    let adj = adjacency(graph);
    let mut colors: Vec<Option<usize>> = vec![None; n];
    let mut nodes: u64 = 0;

    fn solve(
        adj: &[Vec<usize>],
        colors: &mut Vec<Option<usize>>,
        k: usize,
        nodes: &mut u64,
        budget: u64,
    ) -> Result<bool, LayoutError> {
        *nodes += 1;
        if *nodes > budget {
            return Err(LayoutError::SearchBudgetExceeded {
                vertices: colors.len(),
            });
        }
        // pick the uncolored vertex with maximum saturation (fail-first)
        let next = (0..colors.len())
            .filter(|&v| colors[v].is_none())
            .max_by_key(|&v| {
                let mut nc: Vec<usize> = adj[v].iter().filter_map(|&u| colors[u]).collect();
                nc.sort_unstable();
                nc.dedup();
                (nc.len(), adj[v].len())
            });
        let Some(v) = next else {
            return Ok(true); // everything colored
        };
        let used: Vec<usize> = adj[v].iter().filter_map(|&u| colors[u]).collect();
        // limit symmetric branches: only try colors up to (max used so far + 1)
        let max_used = colors.iter().flatten().copied().max().map_or(0, |m| m + 1);
        for c in 0..k.min(max_used + 1) {
            if used.contains(&c) {
                continue;
            }
            colors[v] = Some(c);
            if solve(adj, colors, k, nodes, budget)? {
                return Ok(true);
            }
            colors[v] = None;
        }
        Ok(false)
    }

    match solve(&adj, &mut colors, k, &mut nodes, budget)? {
        true => Ok(Some(colors.into_iter().map(|c| c.unwrap()).collect())),
        false => Ok(None),
    }
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
    Ok(coloring_within(graph, usize::MAX, budget)?.expect("every graph has a coloring"))
}

/// The decision form of [`minimum_coloring`]: the same color count and coloring when it
/// needs at most `k` colors, `Ok(None)` when the graph needs more. A clique bound above
/// `k` decides without coloring, and no search asks for more than `k` colors.
///
/// # Errors
///
/// Returns [`LayoutError::SearchBudgetExceeded`] when a search for at most `k` colors
/// exhausts the budget; [`minimum_coloring`] runs that same search first and fails too.
pub(crate) fn coloring_within(
    graph: &ConflictGraph,
    k: usize,
    budget: u64,
) -> Result<Option<(usize, Vec<usize>)>, LayoutError> {
    if graph.is_empty() {
        return Ok(Some((0, Vec::new())));
    }
    let lower = clique_lower_bound(graph);
    if lower > k {
        return Ok(None);
    }
    let greedy = greedy_coloring(graph);
    let upper = color_count(&greedy);
    // try to beat the greedy bound from the clique bound upwards
    for colors in lower.max(1)..upper.min(k.saturating_add(1)) {
        if let Some(coloring) = k_colorable(graph, colors, budget)? {
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
