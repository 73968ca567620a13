//! Property-based tests of the layout algorithms' invariants.

use ccache_layout::coloring::{
    self, greedy_coloring, is_proper, k_colorable, DEFAULT_SEARCH_BUDGET,
};
use ccache_layout::weights::{conflict_graph_from_trace, UnitMap, WeightOptions};
use ccache_layout::{
    assign_columns, ColumnAssignment, ConflictGraph, LayoutError, LayoutOptions, Vertex,
};
use ccache_trace::{AccessKind, MemAccess, SymbolTable, Trace, TraceRecorder, VarId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Adjacency over the non-zero-weight edges of a conflict graph.
fn adjacency(graph: &ConflictGraph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); graph.vertex_count()];
    for (a, b, _w) in graph.edges() {
        adj[a].push(b);
        adj[b].push(a);
    }
    adj
}

/// The reference clique bound: each candidate is tested against every clique member.
fn reference_clique_lower_bound(graph: &ConflictGraph) -> usize {
    let n = graph.vertex_count();
    if n == 0 {
        return 0;
    }
    let adj = adjacency(graph);
    let mut best = 1;
    // grow a clique greedily from each vertex, highest degree first
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(adj[v].len()));
    for &start in order.iter().take(16) {
        let mut clique = vec![start];
        for &cand in &order {
            if clique.contains(&cand) {
                continue;
            }
            if clique.iter().all(|&c| adj[cand].contains(&c)) {
                clique.push(cand);
            }
        }
        best = best.max(clique.len());
    }
    best
}

/// The reference minimum coloring: greedy, then exact searches from the clique bound up.
fn reference_minimum_coloring(
    graph: &ConflictGraph,
    budget: u64,
) -> Result<(usize, Vec<usize>), LayoutError> {
    let n = graph.vertex_count();
    if n == 0 {
        return Ok((0, Vec::new()));
    }
    let greedy = coloring::greedy_coloring(graph);
    let upper = coloring::color_count(&greedy);
    let lower = reference_clique_lower_bound(graph);
    let mut best = greedy;
    let mut best_k = upper;
    // try to beat the greedy bound from the clique bound upwards
    let mut k = lower.max(1);
    while k < best_k {
        match coloring::k_colorable(graph, k, budget)? {
            Some(coloring) => {
                best = coloring;
                best_k = k;
                break;
            }
            None => k += 1,
        }
    }
    Ok((best_k, best))
}

/// The reference merge loop: every round computes a minimum coloring (greedy, clique
/// bound, exact searches) and rebuilds the merged graph with `ConflictGraph::merged`.
/// `assign_columns` must return exactly what this returns.
fn reference_assign_columns(
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

    // Build the sub-graph over the free vertices (keeping only nonzero edges).
    let mut sub = ConflictGraph::new();
    let mut sub_to_full = Vec::with_capacity(free_vertices.len());
    for &idx in &free_vertices {
        sub.add_vertex(graph.vertex(idx).expect("index valid").clone());
        sub_to_full.push(idx);
    }
    for (i, &fi) in sub_to_full.iter().enumerate() {
        for (j, &fj) in sub_to_full.iter().enumerate().skip(i + 1) {
            let w = graph.weight(fi, fj);
            if w > 0 {
                sub.set_weight(i, j, w);
            }
        }
    }

    // The merging loop of Section 3.1.2: color exactly, merge the minimum-weight edge
    // until at most k colors are needed. `vertex_of` maps original sub-graph vertices to
    // vertices of the current (merged) graph.
    let mut current = sub.clone();
    let mut vertex_of: Vec<usize> = (0..sub.vertex_count()).collect();
    let mut merges = 0usize;
    let mut optimal = true;
    let coloring = loop {
        if current.vertex_count() == 0 {
            break Vec::new();
        }
        let result = reference_minimum_coloring(&current, options.search_budget);
        let (colors_needed, coloring) = match result {
            Ok(pair) => pair,
            Err(LayoutError::SearchBudgetExceeded { .. }) => {
                // graph too large for the exact colorer — fall back to greedy
                optimal = false;
                let c = coloring::greedy_coloring(&current);
                (coloring::color_count(&c), c)
            }
            Err(e) => return Err(e),
        };
        if colors_needed <= k {
            break coloring;
        }
        // not k-colorable: merge the minimum-weight edge and retry
        optimal = false;
        let (a, b, _w) = current
            .min_weight_edge()
            .expect("a graph needing more colors than k has at least one edge");
        let (merged, mapping) = current.merged(a, b);
        for slot in vertex_of.iter_mut() {
            *slot = mapping[*slot];
        }
        current = merged;
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
    for (sub_idx, &full_idx) in sub_to_full.iter().enumerate() {
        let color = coloring.get(vertex_of[sub_idx]).copied().unwrap_or(0);
        vertex_columns[full_idx] = color_to_column(color);
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

/// A graph on `n` vertices whose pair weights, in row order, are `weights` (0: no edge).
fn graph_with_weights(n: usize, weights: &[u64]) -> ConflictGraph {
    let mut g = ConflictGraph::new();
    for i in 0..n {
        g.add_vertex(Vertex {
            var: VarId(i as u32),
            name: format!("v{i}"),
            size: 32 * (i as u64 + 1),
            accesses: 5,
        });
    }
    let mut k = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            if weights[k] > 0 {
                g.set_weight(i, j, weights[k]);
            }
            k += 1;
        }
    }
    g
}

fn arbitrary_graph(max_vertices: usize) -> impl Strategy<Value = ConflictGraph> {
    (2usize..max_vertices).prop_flat_map(|n| {
        prop::collection::vec(0u64..100, n * (n - 1) / 2)
            .prop_map(move |weights| graph_with_weights(n, &weights))
    })
}

/// Graphs on 1–30 vertices of any edge density from 0 to 100 %, weighted 1–6 so that
/// equal weights, and so tie-breaks, are common.
fn tie_heavy_graph() -> impl Strategy<Value = ConflictGraph> {
    (1usize..=30, 0u64..=100).prop_flat_map(|(n, density)| {
        prop::collection::vec((0u64..100, 1u64..=6), n * (n - 1) / 2).prop_map(move |pairs| {
            let weights: Vec<u64> = pairs
                .iter()
                .map(|&(draw, weight)| if draw < density { weight } else { 0 })
                .collect();
            graph_with_weights(n, &weights)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging the minimum-weight edge reduces the vertex count by one, preserves total
    /// weight minus the merged edge, and keeps the assignment-cost function consistent.
    #[test]
    fn merge_preserves_weight_accounting(graph in arbitrary_graph(9)) {
        if let Some((a, b, w)) = graph.min_weight_edge() {
            let (merged, mapping) = graph.merged(a, b);
            prop_assert_eq!(merged.vertex_count(), graph.vertex_count() - 1);
            prop_assert_eq!(mapping.len(), graph.vertex_count());
            prop_assert_eq!(mapping[a], mapping[b]);
            prop_assert_eq!(merged.total_weight(), graph.total_weight() - w);
        }
    }

    /// `k_colorable` decisions are monotone in `k`: if a graph is k-colorable it is also
    /// (k+1)-colorable.
    #[test]
    fn colorability_is_monotone(graph in arbitrary_graph(8), k in 1usize..5) {
        let small = k_colorable(&graph, k, DEFAULT_SEARCH_BUDGET).unwrap();
        let big = k_colorable(&graph, k + 1, DEFAULT_SEARCH_BUDGET).unwrap();
        if small.is_some() {
            prop_assert!(big.is_some());
        }
        if let Some(c) = small {
            prop_assert!(is_proper(&graph, &c));
        }
    }

    /// Forced variables always end up in their forced column and never raise the cost of
    /// the remaining assignment above the cost of ignoring them entirely plus their edges.
    #[test]
    fn forced_assignments_are_respected(graph in arbitrary_graph(7), forced_col in 0usize..4) {
        let forced_var = VarId(0);
        let opts = LayoutOptions::new(4, 512).force(forced_var, forced_col);
        let a = assign_columns(&graph, &opts).unwrap();
        let idx = graph.index_of(forced_var).unwrap();
        prop_assert_eq!(a.vertex_columns[idx], forced_col);
        prop_assert!(a.columns_of(forced_var).contains(&forced_col));
    }

    /// The greedy coloring of the unit-level conflict graph built from a random trace is
    /// proper, and every unit resolves back to a region of the symbol table.
    #[test]
    fn trace_to_graph_pipeline_is_consistent(
        var_sizes in prop::collection::vec(64u64..1500, 2..6),
        ops in prop::collection::vec((0usize..6, 0u64..64), 10..300),
    ) {
        let mut rec = TraceRecorder::new();
        let vars: Vec<VarId> = var_sizes
            .iter()
            .enumerate()
            .map(|(i, s)| rec.allocate(&format!("v{i}"), *s, 8))
            .collect();
        for (v, off) in &ops {
            let var = vars[v % vars.len()];
            rec.record(var, off % var_sizes[v % vars.len()], 4, AccessKind::Read);
        }
        let (trace, symbols) = rec.finish();
        let opts = WeightOptions { column_bytes: 512, split_large_variables: true, min_accesses: 1 };
        let (graph, units) = conflict_graph_from_trace(&trace, &symbols, &opts);
        prop_assert_eq!(graph.vertex_count(), units.len());
        // every unit's (var, offset) resolves back to itself
        for (i, unit) in units.iter().enumerate() {
            prop_assert_eq!(units.resolve(unit.var, unit.offset), Some(i));
            prop_assert!(unit.size <= 512 || !opts.split_large_variables);
        }
        let coloring = greedy_coloring(&graph);
        prop_assert!(is_proper(&graph, &coloring));
    }

    /// Conflict graphs account for every access that resolves to a variable, whether
    /// annotated or found by address, and drop the ones outside every region. Every
    /// weight is symmetric and at most the smaller endpoint's access count, as
    /// `MIN(n^j_i, n^i_j)` must be.
    #[test]
    fn conflict_graphs_account_for_every_access(
        ops in prop::collection::vec((0usize..7, 0u64..32, any::<bool>()), 1..400),
    ) {
        let mut rec = TraceRecorder::new();
        let vars: Vec<VarId> = (0..5).map(|i| rec.allocate(&format!("v{i}"), 256, 8)).collect();
        let (_, symbols) = rec.finish();
        let mut trace = Trace::new();
        let mut resolved = 0u64;
        for (v, off, w) in &ops {
            let (addr, var) = match *v {
                // annotated events
                v @ 0..=4 => (symbols.region(vars[v]).unwrap().base + off * 8, Some(vars[v])),
                // an unannotated event inside a region, found by address
                5 => (symbols.region(vars[*off as usize % 5]).unwrap().base + off * 8, None),
                // an unannotated event outside every region
                _ => (0xdead_0000 + off * 8, None),
            };
            let ev = if *w { MemAccess::write(addr, 8) } else { MemAccess::read(addr, 8) };
            let ev = match var {
                Some(var) => ev.with_var(var),
                None => ev,
            };
            resolved += u64::from(ev.var.or_else(|| symbols.resolve(addr)).is_some());
            trace.push(ev);
        }
        for split in [false, true] {
            let opts = WeightOptions { column_bytes: 64, split_large_variables: split, min_accesses: 1 };
            let (graph, _) = conflict_graph_from_trace(&trace, &symbols, &opts);
            let total: u64 = graph.vertices().map(|(_, v)| v.accesses).sum();
            prop_assert_eq!(total, resolved);
            for a in 0..graph.vertex_count() {
                for b in 0..graph.vertex_count() {
                    if a == b { continue; }
                    let w = graph.weight(a, b);
                    prop_assert_eq!(w, graph.weight(b, a));
                    let ca = graph.vertex(a).unwrap().accesses;
                    let cb = graph.vertex(b).unwrap().accesses;
                    prop_assert!(w <= ca.min(cb));
                }
            }
        }
    }

    /// Resolving a unit by arithmetic agrees with scanning every unit, for every offset
    /// inside and just past each variable, for offsets at the top of the address space
    /// and for variables the map does not know.
    #[test]
    fn unit_resolution_matches_a_linear_scan(
        sizes in prop::collection::vec(1u64..3000, 1..6),
        column in 16u64..1024,
        split in any::<bool>(),
    ) {
        let mut symbols = SymbolTable::new();
        for (i, s) in sizes.iter().enumerate() {
            symbols.allocate(&format!("v{i}"), *s, 8).unwrap();
        }
        let opts = WeightOptions { column_bytes: column, split_large_variables: split, min_accesses: 1 };
        let units = UnitMap::from_symbols(&symbols, &opts);
        let scan = |var: VarId, offset: u64| {
            units
                .iter()
                .position(|u| u.var == var && offset >= u.offset && offset < u.offset + u.size)
        };
        for (i, size) in sizes.iter().enumerate() {
            let var = VarId(i as u32);
            let offsets = (0..size + 2 * column).chain([u64::MAX - 1, u64::MAX]);
            for offset in offsets {
                prop_assert_eq!(units.resolve(var, offset), scan(var, offset), "{:?}+{}", var, offset);
            }
        }
        let unknown = VarId(sizes.len() as u32);
        prop_assert_eq!(units.resolve(unknown, 0), None);
    }

    /// Unit maps partition each variable exactly: unit sizes sum to the variable size and
    /// offsets tile the variable without gaps or overlap.
    #[test]
    fn unit_maps_tile_variables(sizes in prop::collection::vec(1u64..5000, 1..8), column in 64u64..1024) {
        let mut symbols = SymbolTable::new();
        for (i, s) in sizes.iter().enumerate() {
            symbols.allocate(&format!("v{i}"), *s, 8).unwrap();
        }
        let opts = WeightOptions { column_bytes: column, split_large_variables: true, min_accesses: 1 };
        let units = UnitMap::from_symbols(&symbols, &opts);
        for region in symbols.iter() {
            let mut parts: Vec<_> = units
                .iter()
                .filter(|u| u.var == region.id)
                .collect();
            parts.sort_by_key(|u| u.offset);
            let total: u64 = parts.iter().map(|u| u.size).sum();
            prop_assert_eq!(total, region.size);
            let mut expected_offset = 0;
            for p in parts {
                prop_assert_eq!(p.offset, expected_offset);
                expected_offset += p.size;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The counting clique bound and the decision-based minimum coloring equal their
    /// references, on graphs past 16 vertices too, where the start vertices are a choice.
    #[test]
    fn clique_bound_and_minimum_coloring_match_their_references(
        graph in tie_heavy_graph(),
        wide in arbitrary_graph(60),
        budget in 0usize..5,
    ) {
        let budget = [1, 3, 10, 100, DEFAULT_SEARCH_BUDGET][budget];
        for g in [&graph, &wide] {
            prop_assert_eq!(coloring::clique_lower_bound(g), reference_clique_lower_bound(g));
        }
        prop_assert_eq!(
            coloring::minimum_coloring(&graph, budget),
            reference_minimum_coloring(&graph, budget)
        );
    }

    /// The in-place, decide-only merge loop returns exactly what the reference loop
    /// returns — columns, cost, merge count and optimality — including when small search
    /// budgets force the greedy fallback and when a forced vertex reserves a column.
    #[test]
    fn assign_columns_matches_the_reference_merge_loop(
        graph in tie_heavy_graph(),
        columns in 1usize..=6,
        budget in 0usize..5,
        forced in (any::<bool>(), 0usize..30, 0usize..6),
    ) {
        let mut options = LayoutOptions::new(columns, 512);
        options.search_budget = [1, 3, 10, 100, DEFAULT_SEARCH_BUDGET][budget];
        if let (true, vertex, column) = forced {
            let var = VarId((vertex % graph.vertex_count()) as u32);
            options = options.force(var, column % columns);
        }
        prop_assert_eq!(
            assign_columns(&graph, &options),
            reference_assign_columns(&graph, &options)
        );
    }
}
