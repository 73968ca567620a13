//! Address placement: moving program variables for column-cache experiments.
//!
//! The column-cache mapping granularity is a page, and scratchpad emulation needs the
//! region mapped to a column to cover each cache set exactly once per allotted way. Both
//! requirements are placement (link-time address assignment) concerns, so this module
//! gives a recorded workload a new memory map: variables selected for scratchpad are
//! packed contiguously in a column-aligned block, every other variable starts on its own
//! page. A [`Placement`] maps each event to its placed address as the layout profile and
//! the replay read it, preserving each variable's internal layout, so the reference
//! stream is unchanged except for the base address of every variable.

use crate::engine::{take_front, RefSource};
use ccache_trace::{MemAccess, SymbolTable, VarId};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// A plan mapping each variable to a new base address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementPlan {
    targets: BTreeMap<VarId, u64>,
}

impl PlacementPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        PlacementPlan::default()
    }

    /// Places `var` at `base`.
    pub fn place(&mut self, var: VarId, base: u64) {
        self.targets.insert(var, base);
    }

    /// The planned base address of `var`, if any.
    pub fn target(&self, var: VarId) -> Option<u64> {
        self.targets.get(&var).copied()
    }
}

/// Builds a placement where the variables in `scratchpad_vars` are packed contiguously
/// (in the given order) into a block starting at `scratchpad_base`, and every other
/// variable of `symbols` starts on a fresh `page_size`-aligned address beginning at
/// `general_base`.
pub fn pack_scratchpad_first(
    symbols: &SymbolTable,
    scratchpad_vars: &[VarId],
    scratchpad_base: u64,
    general_base: u64,
    page_size: u64,
) -> PlacementPlan {
    let mut plan = PlacementPlan::new();
    let mut cursor = scratchpad_base;
    for &v in scratchpad_vars {
        if let Some(region) = symbols.region(v) {
            plan.place(v, cursor);
            cursor += region.size;
        }
    }
    let mut general = general_base.max(align_up(cursor, page_size));
    for region in symbols.iter() {
        if scratchpad_vars.contains(&region.id) {
            continue;
        }
        plan.place(region.id, general);
        general = align_up(general + region.size, page_size);
    }
    plan
}

/// Builds a placement where every variable starts on its own `page_size`-aligned address,
/// in symbol-table order, starting at `base`.
pub fn page_aligned(symbols: &SymbolTable, base: u64, page_size: u64) -> PlacementPlan {
    let mut plan = PlacementPlan::new();
    let mut cursor = align_up(base, page_size);
    for region in symbols.iter() {
        plan.place(region.id, cursor);
        cursor = align_up(cursor + region.size, page_size);
    }
    plan
}

/// A placement plan applied to a symbol table, as an address map: the placed symbol
/// table, and the shift that moves each variable from its recorded base to its planned
/// one. The layout profile ([`Placement::place`]) and the replay ([`Placement::events`])
/// read a workload's own events through it; the map itself is O(variables), whatever the
/// length of the trace.
#[derive(Debug, Clone)]
pub struct Placement<'s> {
    recorded: &'s SymbolTable,
    placed: SymbolTable,
    /// The planned base minus the recorded base of each variable, modulo 2^64, indexed
    /// by [`VarId`].
    shifts: Vec<u64>,
}

impl<'s> Placement<'s> {
    /// Applies `plan` to `symbols`. Variables without a planned target keep their
    /// addresses; the placed table keeps every id, name and size.
    ///
    /// # Panics
    ///
    /// Panics if the plan places two variables over each other.
    pub fn new(symbols: &'s SymbolTable, plan: &PlacementPlan) -> Self {
        let mut placed = SymbolTable::with_base(0);
        let mut shifts = Vec::with_capacity(symbols.len());
        for region in symbols.iter() {
            let base = plan.target(region.id).unwrap_or(region.base);
            // ids are handed out in insertion order, so iterating in allocation order
            // keeps every variable's id
            placed
                .insert_at(&region.name, base, region.size)
                .expect("plan produced overlapping regions");
            shifts.push(base.wrapping_sub(region.base));
        }
        Placement {
            recorded: symbols,
            placed,
            shifts,
        }
    }

    /// The symbol table at the planned bases.
    pub fn symbols(&self) -> &SymbolTable {
        &self.placed
    }

    /// `event` in the placed memory map, with the variable that holds it there. An event
    /// of a variable — annotated, or found by address in the recorded table — moves by
    /// that variable's shift. Any other event keeps its address, and takes the placed
    /// variable whose region holds that address, if one does.
    #[inline]
    pub fn place(&self, event: &MemAccess) -> MemAccess {
        let var = event.var.or_else(|| self.recorded.resolve(event.addr));
        match var.and_then(|v| Some((v, *self.shifts.get(v.index())?))) {
            Some((var, shift)) => MemAccess {
                addr: event.addr.wrapping_add(shift),
                var: Some(var),
                ..*event
            },
            None => MemAccess {
                var: event.var.or_else(|| self.placed.resolve(event.addr)),
                ..*event
            },
        }
    }

    /// A replay source of `events` at their placed addresses.
    pub fn events<'t>(&'t self, events: &'t [MemAccess]) -> PlacedEvents<'t> {
        PlacedEvents {
            events,
            placement: self,
        }
    }
}

/// In-memory events replayed at their placed addresses ([`Placement::events`]): each
/// batch is staged from the workload's own events, one [`Placement::place`] per event.
#[derive(Debug, Clone)]
pub struct PlacedEvents<'t> {
    events: &'t [MemAccess],
    placement: &'t Placement<'t>,
}

impl RefSource for PlacedEvents<'_> {
    type Error = Infallible;

    fn next_batch<'a>(
        &'a mut self,
        staging: &'a mut Vec<(u64, bool)>,
        max: usize,
    ) -> Result<&'a [(u64, bool)], Infallible> {
        let events = take_front(&mut self.events, max);
        let placement = self.placement;
        staging.extend(
            events
                .iter()
                .map(|ev| (placement.place(ev).addr, ev.is_write())),
        );
        Ok(staging)
    }
}

fn align_up(value: u64, align: u64) -> u64 {
    if align <= 1 {
        return value;
    }
    value.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::{AccessKind, Trace, TraceRecorder};

    fn sample() -> (Trace, SymbolTable, VarId, VarId, VarId) {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 100, 8);
        let b = rec.allocate("b", 300, 8);
        let c = rec.allocate("c", 50, 8);
        for i in 0..10u64 {
            rec.record(a, i * 8, 8, AccessKind::Read);
            rec.record(b, i * 16, 8, AccessKind::Write);
            rec.record(c, i * 4, 4, AccessKind::Read);
        }
        let (t, s) = rec.finish();
        (t, s, a, b, c)
    }

    #[test]
    fn page_aligned_places_every_variable_on_a_page() {
        let (_, symbols, ..) = sample();
        let plan = page_aligned(&symbols, 0x10000, 1024);
        for region in symbols.iter() {
            assert_eq!(plan.target(region.id).unwrap() % 1024, 0);
        }
        // no overlap and increasing addresses
        let bases: Vec<u64> = symbols.iter().map(|r| plan.target(r.id).unwrap()).collect();
        assert!(bases.windows(2).all(|w| w[1] >= w[0] + 1024));
    }

    #[test]
    fn scratchpad_vars_are_packed_contiguously() {
        let (_, symbols, a, _b, c) = sample();
        let plan = pack_scratchpad_first(&symbols, &[c, a], 0x8000, 0x2_0000, 1024);
        assert_eq!(plan.target(c), Some(0x8000));
        assert_eq!(plan.target(a), Some(0x8000 + 50));
        // the non-scratchpad variable is page aligned and out of the scratchpad block
        let b_base = plan.target(VarId(1)).unwrap();
        assert_eq!(b_base % 1024, 0);
        assert!(b_base >= 0x2_0000);
    }

    #[test]
    fn placed_events_keep_their_offsets() {
        let (trace, symbols, a, ..) = sample();
        let plan = page_aligned(&symbols, 0x40_0000, 4096);
        let placement = Placement::new(&symbols, &plan);
        let old_base = symbols.region(a).unwrap().base;
        let new_base = placement.symbols().region(a).unwrap().base;
        assert_eq!(new_base, 0x40_0000);
        for old in &trace {
            let new = placement.place(old);
            assert_eq!(old.kind, new.kind);
            assert_eq!(old.var, new.var);
            if old.var == Some(a) {
                assert_eq!(old.addr - old_base, new.addr - new_base);
            }
        }
        // the placed symbol table resolves the placed addresses
        assert_eq!(placement.symbols().resolve(new_base + 8), Some(a));
    }

    #[test]
    fn variables_without_target_keep_addresses() {
        let (trace, symbols, a, b, _c) = sample();
        let mut plan = PlacementPlan::new();
        plan.place(a, 0x70_0000);
        assert_eq!(plan.target(b), None);
        let placement = Placement::new(&symbols, &plan);
        assert_eq!(
            placement.symbols().region(b).unwrap().base,
            symbols.region(b).unwrap().base
        );
        for event in trace.iter().filter(|e| e.var == Some(b)) {
            assert_eq!(placement.place(event), *event);
        }
    }

    #[test]
    fn unannotated_events_move_with_the_variable_that_holds_them() {
        let (_, symbols, a, ..) = sample();
        let plan = page_aligned(&symbols, 0x40_0000, 4096);
        let placement = Placement::new(&symbols, &plan);
        let recorded = symbols.region(a).unwrap().base;
        // found by address in the recorded table: moved and annotated
        let held = placement.place(&MemAccess::write(recorded + 16, 4));
        assert_eq!((held.addr, held.var), (0x40_0000 + 16, Some(a)));
        // held by no recorded variable: the address stays, and the placed table names
        // the variable now there
        let unheld = placement.place(&MemAccess::read(0x40_0000 + 24, 4));
        assert_eq!((unheld.addr, unheld.var), (0x40_0000 + 24, Some(a)));
        let nowhere = MemAccess::read(0x7f_0000, 4);
        assert_eq!(placement.place(&nowhere), nowhere);
        // an id the table does not know keeps the event as it is
        let unknown = MemAccess::read(recorded, 4).with_var(VarId(9));
        assert_eq!(placement.place(&unknown), unknown);
    }

    #[test]
    fn placed_events_stage_placed_addresses() {
        let (trace, symbols, ..) = sample();
        let plan = page_aligned(&symbols, 0x40_0000, 4096);
        let placement = Placement::new(&symbols, &plan);
        let mut source = placement.events(trace.as_slice());
        let mut staged = Vec::new();
        loop {
            let mut staging = Vec::new();
            let Ok(batch) = source.next_batch(&mut staging, 7);
            if batch.is_empty() {
                break;
            }
            assert!(batch.len() <= 7);
            staged.extend_from_slice(batch);
        }
        let expected: Vec<(u64, bool)> = trace
            .iter()
            .map(|e| (placement.place(e).addr, e.is_write()))
            .collect();
        assert_eq!(staged, expected);
    }

    #[test]
    fn align_up_behaviour() {
        assert_eq!(align_up(10, 0), 10);
        assert_eq!(align_up(10, 1), 10);
        assert_eq!(align_up(10, 8), 16);
        assert_eq!(align_up(16, 8), 16);
        assert_eq!(align_up(1, 1000), 1000);
    }
}
