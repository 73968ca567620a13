//! Property-based tests of the layout algorithms' invariants.

use ccache_layout::coloring::{
    self, greedy_coloring, is_proper, k_colorable, DEFAULT_SEARCH_BUDGET,
};
use ccache_layout::weights::{
    conflict_graph_from_trace, LayoutUnit, TraceProfile, UnitMap, WeightOptions,
};
use ccache_layout::{
    assign_columns, ColumnAssignment, ConflictGraph, LayoutError, LayoutOptions, Vertex,
};
use ccache_trace::{AccessKind, Interval, MemAccess, SymbolTable, Trace, TraceRecorder, VarId};
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

/// The reference greedy DSATUR: every pick rescans all uncolored vertices and collects
/// their neighbors' colors again, keeping the *last* maximum of (saturation, degree).
fn reference_greedy_coloring(graph: &ConflictGraph) -> Vec<usize> {
    let n = graph.vertex_count();
    let adj = adjacency(graph);
    let mut colors: Vec<Option<usize>> = vec![None; n];
    for _ in 0..n {
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

/// The reference exact search: recursive, picking by a rescan at every node and scanning
/// every vertex for the largest color in use. Returns the result and the nodes expanded.
fn reference_k_colorable(
    graph: &ConflictGraph,
    k: usize,
    budget: u64,
) -> (Result<Option<Vec<usize>>, LayoutError>, u64) {
    let n = graph.vertex_count();
    if n == 0 {
        return (Ok(Some(Vec::new())), 0);
    }
    if k == 0 {
        return (Ok(None), 0);
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
        let next = (0..colors.len())
            .filter(|&v| colors[v].is_none())
            .max_by_key(|&v| {
                let mut nc: Vec<usize> = adj[v].iter().filter_map(|&u| colors[u]).collect();
                nc.sort_unstable();
                nc.dedup();
                (nc.len(), adj[v].len())
            });
        let Some(v) = next else {
            return Ok(true);
        };
        let used: Vec<usize> = adj[v].iter().filter_map(|&u| colors[u]).collect();
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

    let result = match solve(&adj, &mut colors, k, &mut nodes, budget) {
        Ok(true) => Ok(Some(colors.into_iter().map(|c| c.unwrap()).collect())),
        Ok(false) => Ok(None),
        Err(e) => Err(e),
    };
    (result, nodes)
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
    let greedy = reference_greedy_coloring(graph);
    let upper = coloring::color_count(&greedy);
    let lower = reference_clique_lower_bound(graph);
    let mut best = greedy;
    let mut best_k = upper;
    // try to beat the greedy bound from the clique bound upwards
    let mut k = lower.max(1);
    while k < best_k {
        match reference_k_colorable(graph, k, budget).0? {
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
/// `assign_columns` must return exactly what this returns, apart from its count of the
/// colorers' steps, which this leaves at 0.
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
                let c = reference_greedy_coloring(&current);
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
        colour_steps: 0,
    })
}

/// The reference conflict-graph builder: resolves every reference to its unit at the
/// requested column size (a linear scan for its region, then `offset / size` from the
/// variable's first unit), grows one position list per unit, and tests every pair of
/// units for overlapping lifetimes.
fn reference_conflict_graph(
    trace: &Trace,
    symbols: &SymbolTable,
    options: &WeightOptions,
) -> (ConflictGraph, UnitMap) {
    struct Profile {
        accesses: u64,
        lifetime: Option<Interval>,
        positions: Vec<u64>,
    }
    impl Profile {
        fn accesses_in(&self, interval: &Interval) -> u64 {
            let lo = self.positions.partition_point(|&p| p < interval.first);
            let hi = self.positions.partition_point(|&p| p <= interval.last);
            (hi - lo) as u64
        }
    }
    let unit_map = UnitMap::from_symbols(symbols, options).expect("within the unit limit");
    let units: Vec<LayoutUnit> = unit_map.iter().cloned().collect();
    let resolve = |var: VarId, offset: u64| -> Option<usize> {
        let first = units.partition_point(|u| u.var < var);
        let piece = offset.checked_div(units.get(first)?.size)?;
        let index = first.checked_add(usize::try_from(piece).ok()?)?;
        let unit = units.get(index)?;
        (unit.var == var && offset >= unit.offset && offset < unit.offset + unit.size)
            .then_some(index)
    };
    let mut profiles: Vec<Profile> = (0..units.len())
        .map(|_| Profile {
            accesses: 0,
            lifetime: None,
            positions: Vec::new(),
        })
        .collect();
    for (pos, ev) in trace.iter().enumerate() {
        let var = ev
            .var
            .or_else(|| symbols.iter().find(|r| r.contains(ev.addr)).map(|r| r.id));
        let Some(var) = var else { continue };
        let Some(region) = symbols.region(var) else {
            continue;
        };
        let offset = ev.addr.saturating_sub(region.base);
        if let Some(idx) = resolve(var, offset.min(region.size.saturating_sub(1))) {
            let profile = &mut profiles[idx];
            let pos = pos as u64;
            profile.accesses += 1;
            profile.positions.push(pos);
            profile.lifetime = Some(match profile.lifetime {
                None => Interval::point(pos),
                Some(iv) => iv.extended_to(pos),
            });
        }
    }
    let mut graph = ConflictGraph::new();
    for (i, unit) in units.iter().enumerate() {
        graph.add_vertex(Vertex {
            var: unit.var,
            name: unit.name.clone(),
            size: unit.size,
            accesses: profiles[i].accesses,
        });
    }
    for i in 0..units.len() {
        for j in (i + 1)..units.len() {
            let (pi, pj) = (&profiles[i], &profiles[j]);
            if pi.accesses < options.min_accesses || pj.accesses < options.min_accesses {
                continue;
            }
            let (Some(li), Some(lj)) = (pi.lifetime, pj.lifetime) else {
                continue;
            };
            let Some(delta) = li.intersection(&lj) else {
                continue;
            };
            let w = pi.accesses_in(&delta).min(pj.accesses_in(&delta));
            if w > 0 {
                graph.set_weight(i, j, w);
            }
        }
    }
    (graph, unit_map)
}

/// A symbol table from `(explicit, slot, size)` draws: an explicit region is inserted at
/// `slot × 64` (refused when it overlaps, so bases arrive out of order and collide),
/// anything else is allocated past every region with an alignment of `1 << (slot % 4)`.
fn random_symbols(draws: &[(bool, u64, u64)]) -> SymbolTable {
    let mut symbols = SymbolTable::with_base(0x2000);
    for (i, &(explicit, slot, size)) in draws.iter().enumerate() {
        let name = format!("v{i}");
        if explicit {
            let _ = symbols.insert_at(&name, slot * 64, size);
        } else {
            symbols.allocate(&name, size, 1 << (slot % 4)).unwrap();
        }
    }
    symbols
}

/// A trace over `symbols` from `(kind, pick, offset)` draws: kind 0–1 records the picked
/// variable's id (with an address up to 16 bytes before its region or past its end), kind
/// 2 leaves the id out so the address resolves, kind 3 records an id with no region, and
/// kind 4 is an address outside every region.
fn random_trace(symbols: &SymbolTable, draws: &[(u8, usize, u64)]) -> Trace {
    let regions: Vec<_> = symbols.iter().collect();
    let mut trace = Trace::new();
    for &(kind, pick, offset) in draws {
        let region = regions[pick % regions.len()];
        let addr = (region.base + offset % (region.size + 32)).saturating_sub(16);
        let ev = MemAccess::read(addr, 4);
        trace.push(match kind {
            0 | 1 => ev.with_var(region.id),
            2 => ev,
            3 => ev.with_var(VarId(regions.len() as u32 + (pick % 3) as u32)),
            _ => MemAccess::write(0xdead_0000 + offset, 4),
        });
    }
    trace
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
    /// proper, and no unit is larger than a column when variables are split.
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
        for unit in units.iter() {
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

    /// Unit maps partition each variable exactly: unit sizes sum to the variable size and
    /// offsets tile the variable without gaps or overlap.
    #[test]
    fn unit_maps_tile_variables(sizes in prop::collection::vec(1u64..5000, 1..8), column in 64u64..1024) {
        let mut symbols = SymbolTable::new();
        for (i, s) in sizes.iter().enumerate() {
            symbols.allocate(&format!("v{i}"), *s, 8).unwrap();
        }
        let opts = WeightOptions { column_bytes: column, split_large_variables: true, min_accesses: 1 };
        let units = UnitMap::from_symbols(&symbols, &opts).unwrap();
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
        let assignment = assign_columns(&graph, &options)
            .map(|a| ColumnAssignment { colour_steps: 0, ..a });
        prop_assert_eq!(assignment, reference_assign_columns(&graph, &options));
    }

    /// The queue-driven colorers pick, color and search exactly as the scanning ones:
    /// equal greedy colorings, equal exact results under every budget, and equal node
    /// counts, pinned by the smallest budget that completes each search.
    #[test]
    fn colorers_match_the_scanning_references(
        graph in tie_heavy_graph(),
        wide in arbitrary_graph(40),
        k in 1usize..=6,
        budget in 0usize..5,
    ) {
        let budget = [1, 3, 10, 100, DEFAULT_SEARCH_BUDGET][budget];
        for g in [&graph, &wide] {
            prop_assert_eq!(greedy_coloring(g), reference_greedy_coloring(g));
            prop_assert_eq!(k_colorable(g, k, budget), reference_k_colorable(g, k, budget).0);
            if let (Ok(_), nodes) = reference_k_colorable(g, k, 20_000) {
                prop_assert!(k_colorable(g, k, nodes).is_ok());
                prop_assert!(k_colorable(g, k, nodes - 1).is_err(), "more than {} nodes", nodes - 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// One profile gives, at its own column size and at every multiple 2^j of it, exactly
    /// the graph and units the per-size reference builds from the whole trace. The inputs
    /// mix recorded and missing variable ids, ids without a region, addresses before or
    /// past their region, split and unsplit variables and access thresholds.
    #[test]
    fn profiles_derive_the_graphs_the_reference_builds(
        vars in prop::collection::vec((any::<bool>(), 0u64..96, 1u64..700), 1..10),
        refs in prop::collection::vec((0u8..5, 0usize..10, 0u64..800), 0..300),
        column_log2 in 3u32..8,
        split in any::<bool>(),
        min_accesses in 0u64..4,
    ) {
        let symbols = random_symbols(&vars);
        let trace = random_trace(&symbols, &refs);
        let profiled = WeightOptions {
            column_bytes: 1 << column_log2,
            split_large_variables: split,
            min_accesses,
        };
        let profile = TraceProfile::new(&trace, &symbols, &profiled).unwrap();
        for column_bytes in [1 << column_log2, 2 << column_log2, 4 << column_log2, 16 << column_log2, 0] {
            let options = WeightOptions { column_bytes, ..profiled };
            prop_assert_eq!(
                profile.conflict_graph(column_bytes).unwrap(),
                reference_conflict_graph(&trace, &symbols, &options),
                "{}-byte columns from {}", column_bytes, profiled.column_bytes
            );
        }
    }

    /// The public builder gives the reference's graph at column sizes that are not powers
    /// of two, and at 0.
    #[test]
    fn the_public_builder_matches_the_reference_at_any_column_size(
        vars in prop::collection::vec((any::<bool>(), 0u64..96, 1u64..700), 1..10),
        refs in prop::collection::vec((0u8..5, 0usize..10, 0u64..800), 0..300),
        column in 0usize..6,
        split in any::<bool>(),
        min_accesses in 0u64..4,
    ) {
        let symbols = random_symbols(&vars);
        let trace = random_trace(&symbols, &refs);
        let column_bytes = [0, 7, 24, 40, 100, 333][column];
        let options = WeightOptions { column_bytes, split_large_variables: split, min_accesses };
        prop_assert_eq!(
            conflict_graph_from_trace(&trace, &symbols, &options),
            reference_conflict_graph(&trace, &symbols, &options)
        );
    }
}
