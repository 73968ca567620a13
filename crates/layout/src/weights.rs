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
//!
//! A [`TraceProfile`] reads the trace once, at one column size, and derives the graph at
//! that size or at any multiple of it: at a fixed capacity column sizes are powers of two,
//! so each coarser unit is a run of whole finer units.

use crate::error::LayoutError;
use crate::graph::{ConflictGraph, Vertex};
use ccache_trace::{MemAccess, SymbolTable, Trace, VarId};
use std::ops::Range;

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

/// Most units one layout may have. Each unit becomes a graph vertex, a gene of every
/// tuner genome and a mapping region. Every corpus workload fits at every column size
/// `ccache tune` accepts at 2 KiB; the most is `triad`'s 2,048 at 32-byte columns.
pub const MAX_LAYOUT_UNITS: u64 = 16_384;

/// Most pairs of units with overlapping lifetimes one conflict graph may weigh. Every
/// weighed pair may become an edge, so this bounds the sweep's work and the graph's size.
/// The corpus needs at most 443,850 (`gzip` at 32-byte columns, 257,952 edges).
pub const MAX_LAYOUT_PAIRS: u64 = 1 << 20;

/// Most references one profile may hold: trace positions are stored as `u32`.
pub const MAX_LAYOUT_REFERENCES: u64 = u32::MAX as u64;

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

impl WeightOptions {
    /// How many units a variable of `size` bytes becomes: column-sized pieces when it is
    /// split, else one.
    fn pieces(&self, size: u64) -> u64 {
        if self.split_large_variables && self.column_bytes > 0 && size > self.column_bytes {
            size.div_ceil(self.column_bytes)
        } else {
            1
        }
    }

    /// How many units [`UnitMap::from_symbols`] makes of `symbols`, counted from the
    /// region sizes without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::LimitExceeded`] past [`MAX_LAYOUT_UNITS`].
    pub fn unit_count(&self, symbols: &SymbolTable) -> Result<usize, LayoutError> {
        let count = symbols
            .iter()
            .map(|region| self.pieces(region.size))
            .fold(0, u64::saturating_add);
        within(count, MAX_LAYOUT_UNITS, "units", "MAX_LAYOUT_UNITS").map(|n| n as usize)
    }
}

/// `count` if it is at most `max`, else the refusal naming `what` was counted and `limit`.
fn within(
    count: u64,
    max: u64,
    what: &'static str,
    limit: &'static str,
) -> Result<u64, LayoutError> {
    if count > max {
        return Err(LayoutError::LimitExceeded {
            what,
            count,
            limit,
            max,
        });
    }
    Ok(count)
}

/// The set of assignable units derived from a symbol table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitMap {
    units: Vec<LayoutUnit>,
}

impl UnitMap {
    /// Builds units for every variable in the symbol table, splitting variables larger
    /// than `options.column_bytes` when requested.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::LimitExceeded`] when the split would make more than
    /// [`MAX_LAYOUT_UNITS`] units ([`WeightOptions::unit_count`]), before any is allocated.
    pub fn from_symbols(
        symbols: &SymbolTable,
        options: &WeightOptions,
    ) -> Result<Self, LayoutError> {
        let mut units = Vec::with_capacity(options.unit_count(symbols)?);
        for region in symbols.iter() {
            if options.pieces(region.size) == 1 {
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
        Ok(UnitMap { units })
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
}

/// Where one variable's units start, and how an access offset picks among them.
#[derive(Debug, Clone, Copy)]
struct VarSlot {
    /// Index of the variable's first unit.
    first: usize,
    /// The variable's base address.
    base: u64,
    /// The largest offset an access is clamped to: the last byte of a split variable, and
    /// 0 for a variable kept whole, whose accesses all land on its one unit.
    last: u64,
}

/// The accesses of every unit of a trace at one column size: each reference is resolved
/// once, to its unit at that size, and the graph at that size or any coarser one is
/// derived from the result ([`TraceProfile::conflict_graph`]).
#[derive(Debug, Clone)]
pub struct TraceProfile<'a> {
    symbols: &'a SymbolTable,
    options: WeightOptions,
    units: UnitMap,
    /// The trace positions of each unit's accesses, ascending.
    positions: Vec<Vec<u32>>,
}

impl<'a> TraceProfile<'a> {
    /// Profiles `trace` at `options.column_bytes`. An access counts for its recorded
    /// variable, else for the region its address lies in; its offset from the variable's
    /// base is clamped into the variable, and picks the unit by a shift (by a division for
    /// a column size that is not a power of two).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::LimitExceeded`] for a trace of more than
    /// [`MAX_LAYOUT_REFERENCES`] references or a split into more than [`MAX_LAYOUT_UNITS`]
    /// units, before allocating anything per reference or per unit.
    pub fn new(
        trace: &Trace,
        symbols: &'a SymbolTable,
        options: &WeightOptions,
    ) -> Result<Self, LayoutError> {
        Self::placed(trace, symbols, options, |event| MemAccess {
            var: event.var.or_else(|| symbols.resolve(event.addr)),
            ..*event
        })
    }

    /// Profiles `trace` with each event read through `place`, which gives the event's
    /// address and variable in the memory map `symbols` describes: a relocated trace,
    /// read without making a copy of it. An event `place` leaves without a variable
    /// counts for no unit. [`TraceProfile::new`] is the identity placement, which finds
    /// the variable of an unannotated event by its address.
    ///
    /// # Errors
    ///
    /// As [`TraceProfile::new`].
    pub fn placed(
        trace: &Trace,
        symbols: &'a SymbolTable,
        options: &WeightOptions,
        place: impl Fn(&MemAccess) -> MemAccess,
    ) -> Result<Self, LayoutError> {
        within(
            trace.len() as u64,
            MAX_LAYOUT_REFERENCES,
            "trace references",
            "MAX_LAYOUT_REFERENCES",
        )?;
        let units = UnitMap::from_symbols(symbols, options)?;
        let mut first = 0;
        let slots: Vec<VarSlot> = symbols
            .iter()
            .map(|region| {
                let pieces = options.pieces(region.size);
                let slot = VarSlot {
                    first,
                    base: region.base,
                    last: if pieces > 1 { region.size - 1 } else { 0 },
                };
                first += pieces as usize;
                slot
            })
            .collect();
        let column = options.column_bytes;
        let positions = if column.is_power_of_two() {
            let shift = column.trailing_zeros();
            unit_positions(trace, place, &slots, units.len(), |offset| offset >> shift)
        } else {
            // a size of 0 splits nothing, so every clamped offset is 0
            unit_positions(trace, place, &slots, units.len(), |offset| {
                offset.checked_div(column).unwrap_or(0)
            })
        };
        Ok(TraceProfile {
            symbols,
            options: *options,
            units,
            positions,
        })
    }

    /// The conflict graph and its units at `column_bytes`, derived from the profile.
    ///
    /// A unit at `column_bytes` is a run of whole profiled units: all of a variable's when
    /// it stays whole, else those whose offsets lie in its piece. Its access count is the
    /// sum of theirs, its lifetime runs from their earliest access to their latest, and
    /// its accesses inside an interval are the sum of theirs there. Units with a lifetime
    /// and at least `min_accesses` accesses are swept in order of first access, and each
    /// is weighed only against the later ones whose lifetime starts before its own ends.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::LimitExceeded`] for a split into more than
    /// [`MAX_LAYOUT_UNITS`] units, or when more than [`MAX_LAYOUT_PAIRS`] pairs of units
    /// have overlapping lifetimes; the pairs are counted before any is weighed.
    ///
    /// # Panics
    ///
    /// Panics unless the profiled units nest in the requested ones: `column_bytes` is the
    /// profiled size, 0, or a multiple of it, or the profile does not split variables.
    pub fn conflict_graph(
        &self,
        column_bytes: u64,
    ) -> Result<(ConflictGraph, UnitMap), LayoutError> {
        let profiled = self.options.column_bytes;
        assert!(
            !self.options.split_large_variables
                || column_bytes == 0
                || column_bytes.is_multiple_of(profiled),
            "units profiled at {profiled} bytes do not nest in {column_bytes}-byte units"
        );
        let options = WeightOptions {
            column_bytes,
            ..self.options
        };
        let units = UnitMap::from_symbols(self.symbols, &options)?;

        // The profiled units of each unit: both maps list each variable's units by offset.
        let mut next = 0;
        let pieces: Vec<Range<usize>> = units
            .iter()
            .map(|unit| {
                let start = next;
                while self.units.unit(next).is_some_and(|piece| {
                    piece.var == unit.var && piece.offset < unit.offset + unit.size
                }) {
                    next += 1;
                }
                start..next
            })
            .collect();

        let mut graph = ConflictGraph::new();
        // (first access, unit, last access) of every unit that takes part in edges
        let mut live: Vec<(u32, usize, u32)> = Vec::new();
        for (index, (unit, range)) in units.iter().zip(&pieces).enumerate() {
            let lists = &self.positions[range.clone()];
            let accesses: u64 = lists.iter().map(|list| list.len() as u64).sum();
            graph.add_vertex(Vertex {
                var: unit.var,
                name: unit.name.clone(),
                size: unit.size,
                accesses,
            });
            let first = lists.iter().filter_map(|list| list.first()).min();
            let last = lists.iter().filter_map(|list| list.last()).max();
            if let (Some(&first), Some(&last)) = (first, last) {
                if accesses >= self.options.min_accesses {
                    live.push((first, index, last));
                }
            }
        }

        // Sorted by first access, the units whose lifetime overlaps `live[i]`'s and starts
        // no earlier are `live[i + 1..ends[i]]`.
        live.sort_unstable();
        let ends: Vec<usize> = live
            .iter()
            .map(|&(_, _, last)| live.partition_point(|&(first, _, _)| first <= last))
            .collect();
        let pairs = ends
            .iter()
            .enumerate()
            .map(|(i, &end)| (end - i - 1) as u64);
        within(
            pairs.sum(),
            MAX_LAYOUT_PAIRS,
            "overlapping unit pairs",
            "MAX_LAYOUT_PAIRS",
        )?;
        let accesses_in = |unit: usize, first: u32, last: u32| -> u64 {
            self.positions[pieces[unit].clone()]
                .iter()
                .map(|list| {
                    let lo = list.partition_point(|&p| p < first);
                    let hi = list.partition_point(|&p| p <= last);
                    (hi - lo) as u64
                })
                .sum()
        };
        for (i, &(_, a, a_last)) in live.iter().enumerate() {
            for &(b_first, b, b_last) in &live[i + 1..ends[i]] {
                // the lifetimes' intersection
                let last = a_last.min(b_last);
                let w = accesses_in(a, b_first, last).min(accesses_in(b, b_first, last));
                if w > 0 {
                    graph.set_weight(a, b, w);
                }
            }
        }
        Ok((graph, units))
    }
}

/// The positions of the accesses of each of `units` units, each event read through
/// `place` and found through `slots`, with `piece` mapping a clamped offset to the piece
/// it lies in. A counting pass sizes each unit's list exactly before the second pass
/// fills it.
fn unit_positions(
    trace: &Trace,
    place: impl Fn(&MemAccess) -> MemAccess,
    slots: &[VarSlot],
    units: usize,
    piece: impl Fn(u64) -> u64,
) -> Vec<Vec<u32>> {
    let unit_of = |ev: &MemAccess| {
        let ev = place(ev);
        let slot = slots.get(ev.var?.index())?;
        let offset = ev.addr.saturating_sub(slot.base).min(slot.last);
        Some(slot.first + piece(offset) as usize)
    };
    let mut counts = vec![0usize; units];
    for unit in trace.iter().filter_map(unit_of) {
        counts[unit] += 1;
    }
    let mut positions: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (position, ev) in trace.iter().enumerate() {
        if let Some(unit) = unit_of(ev) {
            positions[unit].push(position as u32);
        }
    }
    positions
}

/// Builds the conflict graph from a recorded trace, splitting large variables into units:
/// a [`TraceProfile`] at `options.column_bytes`, and the graph derived from it.
///
/// Returns the graph together with the [`UnitMap`] describing what each vertex is.
///
/// # Panics
///
/// Panics when the input is past a layout limit ([`MAX_LAYOUT_UNITS`],
/// [`MAX_LAYOUT_PAIRS`], [`MAX_LAYOUT_REFERENCES`]); [`TraceProfile`] refuses it with an
/// error instead.
pub fn conflict_graph_from_trace(
    trace: &Trace,
    symbols: &SymbolTable,
    options: &WeightOptions,
) -> (ConflictGraph, UnitMap) {
    TraceProfile::new(trace, symbols, options)
        .and_then(|profile| profile.conflict_graph(options.column_bytes))
        .unwrap_or_else(|e| panic!("{e}"))
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
        let um = UnitMap::from_symbols(&st, &opts).unwrap();
        // small stays whole; big splits into 512 + 512 + 176
        assert_eq!(um.len(), 4);
        assert_eq!(um.unit(0).unwrap().name, "small");
        assert_eq!(um.unit(1).unwrap().name, "big[0]");
        assert_eq!(um.unit(3).unwrap().size, 176);
        assert!(um.iter().skip(1).all(|unit| unit.var == VarId(1)));
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
        let um = UnitMap::from_symbols(&st, &opts).unwrap();
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

    #[test]
    fn coarser_graphs_derive_from_a_finer_profile() {
        let mut rec = TraceRecorder::new();
        let big = rec.allocate("big", 2048, 8);
        let small = rec.allocate("small", 64, 8);
        for pass in 0..3u64 {
            for i in 0..64u64 {
                rec.record(big, (i * 32 + pass * 8) % 2048, 8, AccessKind::Read);
                rec.record(small, (i % 8) * 8, 8, AccessKind::Write);
            }
        }
        let (trace, symbols) = rec.finish();
        let fine = WeightOptions {
            column_bytes: 256,
            ..WeightOptions::default()
        };
        let profile = TraceProfile::new(&trace, &symbols, &fine).unwrap();
        for column_bytes in [256, 512, 1024, 2048, 4096, 0] {
            let options = WeightOptions {
                column_bytes,
                ..fine
            };
            let derived = profile.conflict_graph(column_bytes).unwrap();
            let direct = TraceProfile::new(&trace, &symbols, &options)
                .unwrap()
                .conflict_graph(column_bytes)
                .unwrap();
            assert_eq!(derived, direct, "{column_bytes}-byte columns");
        }
        let (graph, units) = profile.conflict_graph(1024).unwrap();
        assert_eq!(units.len(), 3);
        assert_eq!(graph.vertex(0).unwrap().accesses, 96);
        assert!(graph.weight(0, 2) > 0 && graph.weight(0, 1) > 0);
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn units_that_do_not_nest_are_not_derived() {
        let mut st = SymbolTable::new();
        st.allocate("big", 4096, 8).unwrap();
        let profile = TraceProfile::new(&Trace::new(), &st, &WeightOptions::default()).unwrap();
        let _ = profile.conflict_graph(768);
    }

    #[test]
    fn limits_refuse_before_allocating() {
        let mut st = SymbolTable::new();
        st.allocate("huge", (MAX_LAYOUT_UNITS + 1) * 32, 8).unwrap();
        let opts = WeightOptions {
            column_bytes: 32,
            ..WeightOptions::default()
        };
        let err = TraceProfile::new(&Trace::new(), &st, &opts).unwrap_err();
        assert_eq!(
            err,
            LayoutError::LimitExceeded {
                what: "units",
                count: MAX_LAYOUT_UNITS + 1,
                limit: "MAX_LAYOUT_UNITS",
                max: MAX_LAYOUT_UNITS,
            }
        );
        // the same variable kept whole is one unit
        let whole = WeightOptions {
            split_large_variables: false,
            ..opts
        };
        assert_eq!(UnitMap::from_symbols(&st, &whole).unwrap().len(), 1);

        // 1,500 variables all live across the whole trace: 1,124,250 overlapping pairs
        let mut rec = TraceRecorder::new();
        let vars: Vec<VarId> = (0..1500)
            .map(|i| rec.allocate(&format!("v{i}"), 8, 8))
            .collect();
        for _pass in 0..2 {
            for &v in &vars {
                rec.record(v, 0, 8, AccessKind::Read);
            }
        }
        let (trace, symbols) = rec.finish();
        let err = TraceProfile::new(&trace, &symbols, &WeightOptions::default())
            .unwrap()
            .conflict_graph(512)
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::LimitExceeded {
                count: 1_124_250,
                limit: "MAX_LAYOUT_PAIRS",
                ..
            }
        ));
    }
}
