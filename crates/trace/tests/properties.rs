//! Property-based tests of the trace substrate.

use ccache_trace::synth::{interleave, pseudo_random, read_modify_write, sequential_scan};
use ccache_trace::{binfmt, textfmt, Interval, MemAccess, SymbolTable, Trace, ADDRESS_LIMIT};
use ccache_trace::{TraceError, VarId, VariableRegion};
use proptest::prelude::*;

/// The symbol table's lookups as linear scans: `insert_at` checks every region for an
/// overlap and `resolve` returns the first region containing the address.
#[derive(Default)]
struct LinearTable {
    regions: Vec<VariableRegion>,
}

impl LinearTable {
    fn insert_at(&mut self, name: &str, base: u64, size: u64) -> Result<VarId, TraceError> {
        let candidate = VariableRegion {
            id: VarId(self.regions.len() as u32),
            name: name.to_owned(),
            base,
            size,
        };
        if let Some(existing) = self.regions.iter().find(|r| r.overlaps(&candidate)) {
            return Err(TraceError::OverlappingRegion {
                name: name.into(),
                existing: existing.name.clone(),
            });
        }
        self.regions.push(candidate);
        Ok(VarId(self.regions.len() as u32 - 1))
    }

    /// Records the region the table under test allocated, after checking it overlaps none.
    fn push_allocated(&mut self, table: &SymbolTable, id: VarId) -> Option<VariableRegion> {
        let region = table.region(id)?.clone();
        assert!(
            self.regions.iter().all(|r| !r.overlaps(&region)),
            "{region} overlaps"
        );
        self.regions.push(region.clone());
        Some(region)
    }

    fn resolve(&self, addr: u64) -> Option<VarId> {
        self.regions.iter().find(|r| r.contains(addr)).map(|r| r.id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trace concatenation is associative in length and preserves event order.
    #[test]
    fn concat_preserves_length_and_order(
        lens in prop::collection::vec(0u64..64, 1..6)
    ) {
        let traces: Vec<Trace> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| sequential_scan(i as u64 * 0x1000, n * 8, 8, 4, 1, None))
            .collect();
        let combined = Trace::concat(traces.iter());
        let expected: usize = traces.iter().map(|t| t.len()).sum();
        prop_assert_eq!(combined.len(), expected);
        let mut offset = 0;
        for t in &traces {
            for (i, e) in t.iter().enumerate() {
                prop_assert_eq!(combined.get(offset + i), Some(e));
            }
            offset += t.len();
        }
    }

    /// The footprint in lines never exceeds the number of events and shrinks (or stays
    /// equal) when the line size grows.
    #[test]
    fn footprint_is_monotone_in_line_size(count in 1usize..300) {
        let t = pseudo_random(0, 64 * 1024, 4, count, 3, None);
        let f32b = t.footprint_lines(32);
        let f64b = t.footprint_lines(64);
        let f128b = t.footprint_lines(128);
        prop_assert!(f32b <= t.len());
        prop_assert!(f64b <= f32b);
        prop_assert!(f128b <= f64b);
        prop_assert!(f128b >= 1);
    }

    /// Interleaving preserves per-source order and total length for any burst size.
    #[test]
    fn interleave_is_a_fair_merge(burst in 1usize..16, n1 in 0u64..50, n2 in 0u64..50) {
        let t1 = sequential_scan(0x1000, n1 * 8, 8, 4, 1, None);
        let t2 = read_modify_write(0x2000, n2 * 8, 8, 8, 1, None);
        let merged = interleave(&[t1.clone(), t2.clone()], burst);
        prop_assert_eq!(merged.len(), t1.len() + t2.len());
        let from_t1: Vec<u64> = merged.iter().filter(|e| e.addr < 0x2000).map(|e| e.addr).collect();
        let expected: Vec<u64> = t1.iter().map(|e| e.addr).collect();
        prop_assert_eq!(from_t1, expected);
    }

    /// Symbol tables never hand out overlapping regions and always resolve an address to
    /// the variable that owns it.
    #[test]
    fn symbol_tables_are_consistent(sizes in prop::collection::vec(1u64..4096, 1..10)) {
        let mut st = SymbolTable::new();
        let ids: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| st.allocate(&format!("v{i}"), *s, 8).unwrap())
            .collect();
        let regions: Vec<_> = st.iter().cloned().collect();
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b));
            }
        }
        for (id, size) in ids.iter().zip(&sizes) {
            let r = st.region(*id).unwrap();
            prop_assert_eq!(st.resolve(r.base), Some(*id));
            prop_assert_eq!(st.resolve(r.base + size - 1), Some(*id));
        }
    }

    /// Indexed lookups equal the linear scans they replaced, over allocations and explicit
    /// inserts in any address order, overlapping ones included: the same ids, the same
    /// overlap errors naming the same (lowest-id) region, and the same resolution of every
    /// region's first, last and neighbouring addresses.
    #[test]
    fn symbol_table_lookups_match_a_linear_scan(
        ops in prop::collection::vec((any::<bool>(), 0u64..64, 1u64..96, 0u32..4), 1..40),
    ) {
        let mut table = SymbolTable::with_base(0x800);
        let mut reference = LinearTable::default();
        for (i, &(explicit, slot, size, align)) in ops.iter().enumerate() {
            let name = format!("v{i}");
            if explicit {
                let base = slot * 32;
                prop_assert_eq!(table.insert_at(&name, base, size), reference.insert_at(&name, base, size));
            } else {
                let id = table.allocate(&name, size, 1 << align).unwrap();
                prop_assert_eq!(table.region(id).cloned(), reference.push_allocated(&table, id));
            }
        }
        let mut probes: Vec<u64> = vec![0, u64::MAX];
        for r in table.iter() {
            probes.extend([r.base.saturating_sub(1), r.base, r.end() - 1, r.end()]);
        }
        for addr in probes {
            prop_assert_eq!(table.resolve(addr), reference.resolve(addr), "address {:#x}", addr);
        }
    }

    /// The binary format round-trips any event stream inside the address space exactly
    /// (modulo the variable annotations it deliberately drops), whatever mix of kinds,
    /// sizes and address jumps the trace contains.
    #[test]
    fn binary_format_round_trips_arbitrary_traces(
        ops in prop::collection::vec(
            (0u64..ADDRESS_LIMIT - 4096, 1u32..4096, any::<bool>()),
            0..500,
        )
    ) {
        let trace: Trace = ops
            .iter()
            .map(|&(addr, size, w)| if w {
                MemAccess::write(addr, size)
            } else {
                MemAccess::read(addr, size)
            })
            .collect();
        let mut bytes = Vec::new();
        binfmt::write_trace(&trace, &mut bytes).unwrap();
        let back = binfmt::read_trace(&bytes[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The text format round-trips the same streams (addresses here are what real
    /// programs produce; the text grammar caps sizes at u32 like `MemAccess`).
    #[test]
    fn text_format_round_trips_arbitrary_traces(
        ops in prop::collection::vec(
            (0u64..ADDRESS_LIMIT - 4096, 1u32..4096, any::<bool>()),
            0..200,
        )
    ) {
        let trace: Trace = ops
            .iter()
            .map(|&(addr, size, w)| if w {
                MemAccess::write(addr, size)
            } else {
                MemAccess::read(addr, size)
            })
            .collect();
        let bytes = textfmt::write_trace(&trace, Vec::new()).unwrap();
        let back = textfmt::read_trace(&bytes[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Interval hull and intersection are consistent: the intersection (when it exists) is
    /// contained in the hull, and the hull length is at least both input lengths.
    #[test]
    fn interval_hull_contains_intersection(a in 0u64..500, b in 0u64..500, c in 0u64..500, d in 0u64..500) {
        let i1 = Interval::new(a.min(b), a.max(b)).unwrap();
        let i2 = Interval::new(c.min(d), c.max(d)).unwrap();
        let hull = i1.hull(&i2);
        prop_assert!(hull.len() >= i1.len());
        prop_assert!(hull.len() >= i2.len());
        if let Some(x) = i1.intersection(&i2) {
            prop_assert!(x.first >= hull.first && x.last <= hull.last);
            prop_assert!(x.len() <= i1.len().min(i2.len()));
        }
    }
}
