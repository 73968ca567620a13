//! Profile-based conflict-graph construction (Section 3.1.1, first method).
//!
//! The program is run on a representative data set to obtain a sequence of variable
//! accesses (a [`Trace`] recorded by `ccache-workloads`). From it we derive per-unit access
//! counts and lifetimes, and weight each pair of units by the number of accesses that
//! *potentially conflict* when the two share a column: `w(v_i, v_j) = MIN(n^j_i, n^i_j)`
//! computed over the intersection of their lifetimes.
//!
//! Step 1 of the algorithm also requires that a variable larger than a column be split into
//! column-sized sub-arrays (otherwise it cannot behave as scratchpad because its own
//! elements would evict each other). [`UnitMap`] performs that split, producing the
//! *assignable units* that become graph vertices.

use crate::graph::{ConflictGraph, Vertex};
use ccache_trace::{Interval, SymbolTable, Trace, VarId};

/// One assignable unit: a whole variable, or one column-sized piece of a large variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutUnit {
    /// The program variable this unit belongs to.
    pub var: VarId,
    /// Piece index within the variable (0 for unsplit variables).
    pub part: usize,
    /// Byte offset of the unit within the variable.
    pub offset: u64,
    /// Size of the unit in bytes.
    pub size: u64,
    /// Name of the unit (`var` or `var[k]` for split pieces).
    pub name: String,
}

/// Options controlling unit construction and weight computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightOptions {
    /// Size `S` of one cache column in bytes; variables larger than this are split when
    /// `split_large_variables` is set.
    pub column_bytes: u64,
    /// Whether to split variables larger than a column into column-sized pieces.
    pub split_large_variables: bool,
    /// Units with fewer accesses than this are still included but contribute no edges
    /// (treated as "not heavily accessed" in Step 1).
    pub min_accesses: u64,
}

impl Default for WeightOptions {
    fn default() -> Self {
        WeightOptions {
            column_bytes: 512,
            split_large_variables: true,
            min_accesses: 1,
        }
    }
}

/// The set of assignable units derived from a symbol table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitMap {
    units: Vec<LayoutUnit>,
}

impl UnitMap {
    /// Builds units for every variable in the symbol table, splitting variables larger
    /// than `options.column_bytes` when requested.
    pub fn from_symbols(symbols: &SymbolTable, options: &WeightOptions) -> Self {
        let mut units = Vec::new();
        for region in symbols.iter() {
            let split = options.split_large_variables
                && options.column_bytes > 0
                && region.size > options.column_bytes;
            if !split {
                units.push(LayoutUnit {
                    var: region.id,
                    part: 0,
                    offset: 0,
                    size: region.size,
                    name: region.name.clone(),
                });
                continue;
            }
            let mut part = 0usize;
            let mut offset = 0u64;
            while offset < region.size {
                let size = options.column_bytes.min(region.size - offset);
                units.push(LayoutUnit {
                    var: region.id,
                    part,
                    offset,
                    size,
                    name: format!("{}[{}]", region.name, part),
                });
                offset += size;
                part += 1;
            }
        }
        UnitMap { units }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Returns `true` if there are no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Returns the unit at `index`.
    pub fn unit(&self, index: usize) -> Option<&LayoutUnit> {
        self.units.get(index)
    }

    /// Iterates over the units in index order (the same order as graph vertices).
    pub fn iter(&self) -> impl Iterator<Item = &LayoutUnit> {
        self.units.iter()
    }

    /// Finds the unit containing byte `offset` of variable `var`.
    ///
    /// Units follow the symbol table, whose variable ids ascend, and a variable's units
    /// are consecutive pieces from offset 0, all the size of the first but the last. So
    /// the unit is found by arithmetic: the variable's first unit plus `offset` divided
    /// by that first unit's size.
    pub fn resolve(&self, var: VarId, offset: u64) -> Option<usize> {
        let first = self.units.partition_point(|u| u.var < var);
        let piece = offset.checked_div(self.units.get(first)?.size)?;
        let index = first.checked_add(usize::try_from(piece).ok()?)?;
        let unit = self.units.get(index)?;
        (unit.var == var && offset >= unit.offset && offset < unit.offset + unit.size)
            .then_some(index)
    }

    /// All unit indices belonging to a variable.
    pub fn units_of(&self, var: VarId) -> Vec<usize> {
        self.units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.var == var)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-unit profile gathered while scanning the trace.
#[derive(Debug, Clone)]
struct UnitProfile {
    accesses: u64,
    lifetime: Option<Interval>,
    positions: Vec<u64>,
}

impl UnitProfile {
    fn new() -> Self {
        UnitProfile {
            accesses: 0,
            lifetime: None,
            positions: Vec::new(),
        }
    }

    fn record(&mut self, pos: u64) {
        self.accesses += 1;
        self.positions.push(pos);
        self.lifetime = Some(match self.lifetime {
            None => Interval::point(pos),
            Some(iv) => iv.extended_to(pos),
        });
    }

    fn accesses_in(&self, interval: &Interval) -> u64 {
        let lo = self.positions.partition_point(|&p| p < interval.first);
        let hi = self.positions.partition_point(|&p| p <= interval.last);
        (hi - lo) as u64
    }
}

/// Builds the conflict graph from a recorded trace, splitting large variables into units.
///
/// Returns the graph together with the [`UnitMap`] describing what each vertex is.
pub fn conflict_graph_from_trace(
    trace: &Trace,
    symbols: &SymbolTable,
    options: &WeightOptions,
) -> (ConflictGraph, UnitMap) {
    let unit_map = UnitMap::from_symbols(symbols, options);
    let mut profiles: Vec<UnitProfile> = (0..unit_map.len()).map(|_| UnitProfile::new()).collect();

    for (pos, ev) in trace.iter().enumerate() {
        let var = ev.var.or_else(|| symbols.resolve(ev.addr));
        let Some(var) = var else { continue };
        let Some(region) = symbols.region(var) else {
            continue;
        };
        let offset = ev.addr.saturating_sub(region.base);
        if let Some(idx) = unit_map.resolve(var, offset.min(region.size.saturating_sub(1))) {
            profiles[idx].record(pos as u64);
        }
    }

    let mut graph = ConflictGraph::new();
    for (i, unit) in unit_map.iter().enumerate() {
        graph.add_vertex(Vertex {
            var: unit.var,
            name: unit.name.clone(),
            size: unit.size,
            accesses: profiles[i].accesses,
        });
    }
    for i in 0..unit_map.len() {
        for j in (i + 1)..unit_map.len() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::{AccessKind, TraceRecorder};

    #[test]
    fn unit_map_splits_large_variables() {
        let mut st = SymbolTable::new();
        st.allocate("small", 100, 8).unwrap();
        st.allocate("big", 1200, 8).unwrap();
        let opts = WeightOptions {
            column_bytes: 512,
            ..WeightOptions::default()
        };
        let um = UnitMap::from_symbols(&st, &opts);
        // small stays whole; big splits into 512 + 512 + 176
        assert_eq!(um.len(), 4);
        assert_eq!(um.unit(0).unwrap().name, "small");
        assert_eq!(um.unit(1).unwrap().name, "big[0]");
        assert_eq!(um.unit(3).unwrap().size, 176);
        assert_eq!(um.units_of(VarId(1)), vec![1, 2, 3]);
        assert_eq!(um.resolve(VarId(1), 600), Some(2));
        assert_eq!(um.resolve(VarId(1), 100), Some(1));
        assert_eq!(um.resolve(VarId(0), 50), Some(0));
        assert_eq!(um.resolve(VarId(7), 0), None);
    }

    #[test]
    fn splitting_can_be_disabled() {
        let mut st = SymbolTable::new();
        st.allocate("big", 4096, 8).unwrap();
        let opts = WeightOptions {
            column_bytes: 512,
            split_large_variables: false,
            min_accesses: 1,
        };
        let um = UnitMap::from_symbols(&st, &opts);
        assert_eq!(um.len(), 1);
        assert_eq!(um.unit(0).unwrap().size, 4096);
    }

    #[test]
    fn disjoint_lifetimes_produce_no_edge() {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 64, 8);
        let b = rec.allocate("b", 64, 8);
        for i in 0..8u64 {
            rec.record(a, i * 8, 8, AccessKind::Read);
        }
        for i in 0..8u64 {
            rec.record(b, i * 8, 8, AccessKind::Read);
        }
        let (trace, symbols) = rec.finish();
        let (g, um) = conflict_graph_from_trace(&trace, &symbols, &WeightOptions::default());
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(um.len(), 2);
        assert_eq!(g.vertex(0).unwrap().accesses, 8);
    }

    #[test]
    fn interleaved_accesses_produce_min_weight_edge() {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 64, 8);
        let b = rec.allocate("b", 64, 8);
        // a: 10 accesses, b: 4 accesses, fully interleaved
        for i in 0..10u64 {
            rec.record(a, (i % 8) * 8, 8, AccessKind::Read);
            if i < 4 {
                rec.record(b, (i % 8) * 8, 8, AccessKind::Write);
            }
        }
        let (trace, symbols) = rec.finish();
        let (g, _) = conflict_graph_from_trace(&trace, &symbols, &WeightOptions::default());
        assert_eq!(g.edge_count(), 1);
        // the weight is MIN(accesses of a in delta, accesses of b in delta); b's lifetime
        // is [1, 7] and a makes 3 accesses inside it, so the weight is 3.
        let w = g.weight(0, 1);
        assert_eq!(w, 3);
    }

    #[test]
    fn split_units_of_one_variable_conflict_with_each_other() {
        let mut rec = TraceRecorder::new();
        // 1 KiB array scanned repeatedly: its two 512-byte halves are both live throughout
        let big = rec.allocate("big", 1024, 8);
        for _pass in 0..3 {
            for i in 0..128u64 {
                rec.record(big, i * 8, 8, AccessKind::Read);
            }
        }
        let (trace, symbols) = rec.finish();
        let (g, um) = conflict_graph_from_trace(&trace, &symbols, &WeightOptions::default());
        assert_eq!(um.len(), 2);
        assert!(g.weight(0, 1) > 0);
    }

    #[test]
    fn min_accesses_threshold_suppresses_edges() {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 64, 8);
        let b = rec.allocate("b", 64, 8);
        rec.record(a, 0, 8, AccessKind::Read);
        rec.record(b, 0, 8, AccessKind::Read);
        rec.record(a, 8, 8, AccessKind::Read);
        let (trace, symbols) = rec.finish();
        let opts = WeightOptions {
            min_accesses: 3,
            ..WeightOptions::default()
        };
        let (g, _) = conflict_graph_from_trace(&trace, &symbols, &opts);
        assert_eq!(g.edge_count(), 0);
    }
}
