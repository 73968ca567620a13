//! The joint search space: cache geometries × column assignments, and the genome
//! operations (membership, mutation, crossover) strategies search it with.
//!
//! A **genome** is a geometry index plus one column per conflict-graph vertex of that
//! geometry. Geometry choices are materialised up front: for each candidate column count
//! the space builds the unit split (column-sized pieces of large variables), the conflict
//! graph over those units, and the paper's heuristic assignment — the seed every search
//! starts from, which is what guarantees a search never reports a result worse than the
//! heuristic — once, and every geometry with that column count shares it.
//!
//! Every operation is deterministic for a given RNG stream, and every generated genome is
//! valid by construction: columns in range and forced placements respected.
//! [`SearchSpace::is_valid`] checks membership through
//! [`ccache_layout::validate_vertex_columns`], and the evaluator re-validates every
//! candidate when it builds its assignment.

use crate::error::OptError;
use ccache_core::runner::assign_columns_in;
use ccache_layout::{
    ColumnAssignment, ConflictGraph, LayoutError, LayoutOptions, TraceProfile, UnitMap,
    WeightOptions,
};
use ccache_sim::{CacheConfig, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace, VarId};
use rand::{rngs::StdRng, Rng};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

/// The geometry knobs a search may vary. Every combination is validated against the
/// template's capacity; combinations the hardware model rejects are silently skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometrySearch {
    /// Candidate column (way) counts. Empty means "template only".
    pub columns: Vec<usize>,
    /// Candidate line sizes in bytes. Empty means "template only".
    pub line_sizes: Vec<u64>,
    /// Candidate TLB entry counts. Empty means "template only".
    pub tlb_entries: Vec<usize>,
}

impl GeometrySearch {
    /// No geometry search: only the template configuration is used, and the search
    /// optimizes column assignments alone.
    pub fn fixed() -> Self {
        GeometrySearch {
            columns: Vec::new(),
            line_sizes: Vec::new(),
            tlb_entries: Vec::new(),
        }
    }

    /// The default joint search: column counts 2/4/8, line sizes 16/32/64 and TLB sizes
    /// 16/64 around the template (invalid combinations are dropped per template).
    pub fn standard() -> Self {
        GeometrySearch {
            columns: vec![2, 4, 8],
            line_sizes: vec![16, 32, 64],
            tlb_entries: vec![16, 64],
        }
    }
}

/// One fully materialised geometry: the validated configuration plus everything needed to
/// express and score assignments under it.
#[derive(Debug, Clone)]
pub struct GeometryChoice {
    /// The validated system configuration.
    pub config: SystemConfig,
    /// The layout of the configuration's column count. At the search's fixed capacity the
    /// column count fixes the column size, so geometries that differ only in line size or
    /// TLB entries share one.
    pub layout: Arc<ColumnLayout>,
}

/// The layout of one column count: the units, the graph and the heuristic seed every
/// geometry with that count searches from.
#[derive(Debug)]
pub struct ColumnLayout {
    /// Column-sized units of the workload's variables.
    pub units: UnitMap,
    /// The conflict graph over those units.
    pub graph: ConflictGraph,
    /// Assignment options (column count, column size, forced placements).
    pub options: LayoutOptions,
    /// The paper's heuristic assignment — the search seed.
    pub heuristic: ColumnAssignment,
    /// Vertices a search may move (everything not covered by a forced placement).
    pub free_vertices: Vec<usize>,
}

/// A candidate solution: a geometry and one column per graph vertex of that geometry.
///
/// Genomes are ordered by geometry, then column by column. Strategies break fitness ties
/// on this order, so results never depend on visit order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Genome {
    /// Index into [`SearchSpace::geometries`].
    pub geometry: usize,
    /// Column of every conflict-graph vertex (same indexing as the geometry's graph).
    pub columns: Vec<usize>,
}

/// The materialised search space over one workload.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Every valid geometry, template first.
    pub geometries: Vec<GeometryChoice>,
    /// The workload's symbol table (shared by all geometries).
    pub symbols: SymbolTable,
}

impl SearchSpace {
    /// Builds the space for a workload: the template geometry plus every valid
    /// combination from `search`, each with its unit split, conflict graph and heuristic
    /// assignment. `forced` pins variables to columns in every geometry (combinations
    /// whose column count cannot honour a forced placement, or whose forced placements
    /// reserve every column, are skipped).
    ///
    /// The trace is profiled once, at the smallest column size of the valid geometries;
    /// every column count's graph is derived from that profile, since at a fixed capacity
    /// each larger column size is a power-of-two multiple of it. The heuristic assignments
    /// report into `registry` as every column assignment does
    /// ([`assign_columns_in`]).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::EmptySpace`] if no geometry survives validation, and
    /// propagates layout errors from profiling and heuristic seeding, such as an input past
    /// a layout limit.
    pub fn build(
        trace: &Trace,
        symbols: &SymbolTable,
        template: SystemConfig,
        search: &GeometrySearch,
        forced: &[(VarId, usize)],
        registry: &Registry,
    ) -> Result<SearchSpace, OptError> {
        template.validate()?;
        let capacity = template.cache.capacity_bytes();

        // Enumerate candidate (columns, line, tlb) triples, template first, deduped.
        let columns_list = non_empty_or(&search.columns, template.cache.columns());
        let lines_list = non_empty_or(&search.line_sizes, template.cache.line_size());
        let tlb_list = non_empty_or(&search.tlb_entries, template.tlb_entries);
        let mut triples = vec![(
            template.cache.columns(),
            template.cache.line_size(),
            template.tlb_entries,
        )];
        for &c in &columns_list {
            for &l in &lines_list {
                for &t in &tlb_list {
                    if !triples.contains(&(c, l, t)) {
                        triples.push((c, l, t));
                    }
                }
            }
        }
        let mut configs = Vec::new();
        for (columns, line, tlb) in triples {
            let Ok(cache) = CacheConfig::builder()
                .capacity_bytes(capacity)
                .columns(columns)
                .line_size(line)
                .replacement(template.cache.replacement())
                .build()
            else {
                continue;
            };
            let config = SystemConfig {
                cache,
                tlb_entries: tlb,
                ..template
            };
            if config.validate().is_err() || forced.iter().any(|&(_, col)| col >= columns) {
                continue;
            }
            configs.push(config);
        }
        let Some(finest) = configs.iter().map(|c| c.cache.column_bytes()).min() else {
            return Err(OptError::EmptySpace {
                reason: format!(
                    "no (columns, line, tlb) combination is valid for a {capacity}-byte cache"
                ),
            });
        };
        let profile = TraceProfile::new(
            trace,
            symbols,
            &WeightOptions {
                column_bytes: finest,
                ..WeightOptions::default()
            },
        )?;

        // The unit split, conflict graph and heuristic seed depend only on the column
        // count (capacity is fixed, so column_bytes is determined by it): one per count,
        // or none when the forced placements reserve all of its columns.
        let mut layouts: BTreeMap<usize, Option<Arc<ColumnLayout>>> = BTreeMap::new();
        let mut reserved = None;
        let mut geometries = Vec::new();
        for config in configs {
            let columns = config.cache.columns();
            let layout = match layouts.entry(columns) {
                Entry::Occupied(layout) => layout.into_mut(),
                Entry::Vacant(slot) => {
                    let column_bytes = config.cache.column_bytes();
                    let (graph, units) = profile.conflict_graph(column_bytes)?;
                    let options = LayoutOptions {
                        columns,
                        column_bytes,
                        forced: forced.to_vec(),
                        ..LayoutOptions::default()
                    };
                    slot.insert(match assign_columns_in(&graph, &options, registry) {
                        Ok(heuristic) => {
                            let forced_vars: Vec<VarId> =
                                options.forced.iter().map(|&(v, _)| v).collect();
                            let free_vertices: Vec<usize> = graph
                                .vertices()
                                .filter(|(_, vertex)| !forced_vars.contains(&vertex.var))
                                .map(|(idx, _)| idx)
                                .collect();
                            Some(Arc::new(ColumnLayout {
                                units,
                                graph,
                                options,
                                heuristic,
                                free_vertices,
                            }))
                        }
                        Err(e @ LayoutError::TooManyReserved { .. }) => {
                            reserved = Some(e);
                            None
                        }
                        Err(e) => return Err(e.into()),
                    })
                }
            };
            let Some(layout) = layout else {
                continue;
            };
            geometries.push(GeometryChoice {
                config,
                layout: Arc::clone(layout),
            });
        }
        if geometries.is_empty() {
            return Err(reserved.expect("a geometry was valid").into());
        }
        Ok(SearchSpace {
            geometries,
            symbols: symbols.clone(),
        })
    }

    /// The heuristic-seeded genome of geometry `g` — the candidate every strategy starts
    /// from for that geometry.
    pub fn seeded(&self, g: usize) -> Genome {
        Genome {
            geometry: g,
            columns: self.geometries[g].layout.heuristic.vertex_columns.clone(),
        }
    }

    /// `true` if the genome is a member of this space (valid geometry, columns and
    /// forced placements).
    pub fn is_valid(&self, genome: &Genome) -> bool {
        self.geometries.get(genome.geometry).is_some_and(|geo| {
            let layout = &geo.layout;
            ccache_layout::validate_vertex_columns(&layout.graph, &layout.options, &genome.columns)
                .is_ok()
        })
    }

    /// A uniformly random genome: random geometry, every free vertex on a random column,
    /// forced vertices pinned.
    pub fn random(&self, rng: &mut StdRng) -> Genome {
        let geometry = rng.random_range(0..self.geometries.len());
        let layout = &self.geometries[geometry].layout;
        let mut columns = layout.heuristic.vertex_columns.clone();
        for &v in &layout.free_vertices {
            columns[v] = rng.random_range(0..layout.options.columns);
        }
        Genome { geometry, columns }
    }

    /// Mutates a genome: occasionally jumps to another geometry (re-seeding from that
    /// geometry's heuristic), then re-rolls one or two free vertices. Forced placements
    /// are never touched, so every output is valid.
    pub fn mutate(&self, genome: &Genome, rng: &mut StdRng) -> Genome {
        let mut out = genome.clone();
        if self.geometries.len() > 1 && rng.random_bool(0.15) {
            let mut g = rng.random_range(0..self.geometries.len() - 1);
            if g >= out.geometry {
                g += 1;
            }
            out = self.seeded(g);
        }
        let layout = &self.geometries[out.geometry].layout;
        if layout.free_vertices.is_empty() {
            return out;
        }
        let flips = 1 + rng.random_range(0..2usize);
        for _ in 0..flips {
            let v = layout.free_vertices[rng.random_range(0..layout.free_vertices.len())];
            out.columns[v] = rng.random_range(0..layout.options.columns);
        }
        out
    }

    /// Uniform crossover. Parents under the same geometry mix per-vertex; parents under
    /// different geometries cannot exchange genes (their vertex sets differ), so one of
    /// them is passed through unchanged.
    pub fn crossover(&self, a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
        if a.geometry != b.geometry {
            return if rng.random_bool(0.5) {
                a.clone()
            } else {
                b.clone()
            };
        }
        let columns = a
            .columns
            .iter()
            .zip(&b.columns)
            .map(|(&ca, &cb)| if rng.random_bool(0.5) { ca } else { cb })
            .collect();
        Genome {
            geometry: a.geometry,
            columns,
        }
    }

    /// The number of distinct genomes, or `None` when it overflows `u128` (practically:
    /// "too many to enumerate"). Sum over geometries of `columns ^ free_vertices`.
    pub fn cardinality(&self) -> Option<u128> {
        let mut total: u128 = 0;
        for geo in &self.geometries {
            let mut n: u128 = 1;
            for _ in 0..geo.layout.free_vertices.len() {
                n = n.checked_mul(geo.layout.options.columns as u128)?;
            }
            total = total.checked_add(n)?;
        }
        Some(total)
    }

    /// Enumerates up to `limit` genomes in a fixed deterministic order: per geometry, the
    /// heuristic seed first, then odometer order over the free vertices.
    pub fn enumerate(&self, limit: usize) -> Vec<Genome> {
        let mut out = Vec::new();
        for (g, geo) in self.geometries.iter().enumerate() {
            if out.len() >= limit {
                break;
            }
            let layout = &geo.layout;
            let seed = self.seeded(g);
            out.push(seed.clone());
            let k = layout.free_vertices.len();
            let c = layout.options.columns;
            let mut odometer = vec![0usize; k];
            'odometer: loop {
                if out.len() >= limit {
                    break;
                }
                let mut columns = layout.heuristic.vertex_columns.clone();
                for (slot, &v) in odometer.iter().zip(&layout.free_vertices) {
                    columns[v] = *slot;
                }
                if columns != seed.columns {
                    out.push(Genome {
                        geometry: g,
                        columns,
                    });
                }
                // advance the odometer; k == 0 has exactly one (empty) combination
                if k == 0 {
                    break;
                }
                for digit in odometer.iter_mut() {
                    *digit += 1;
                    if *digit < c {
                        continue 'odometer;
                    }
                    *digit = 0;
                }
                break;
            }
        }
        out
    }
}

fn non_empty_or<T: Copy>(list: &[T], fallback: T) -> Vec<T> {
    if list.is_empty() {
        vec![fallback]
    } else {
        list.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::{AccessKind, TraceRecorder};
    use rand::SeedableRng;

    fn workload() -> (Trace, SymbolTable) {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 256, 8);
        let b = rec.allocate("b", 256, 8);
        let c = rec.allocate("c", 1024, 8);
        for i in 0..64u64 {
            rec.record(a, (i % 32) * 8, 8, AccessKind::Read);
            rec.record(b, (i % 32) * 8, 8, AccessKind::Write);
            rec.record(c, (i * 16) % 1024, 8, AccessKind::Read);
        }
        rec.finish()
    }

    fn template() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn fixed_search_yields_exactly_the_template() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        assert_eq!(space.geometries.len(), 1);
        assert_eq!(space.geometries[0].config, template());
        assert!(space.is_valid(&space.seeded(0)));
    }

    #[test]
    fn standard_search_keeps_only_valid_geometries() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::standard(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        assert!(space.geometries.len() > 1);
        for geo in &space.geometries {
            assert!(geo.config.validate().is_ok());
            assert_eq!(geo.config.cache.capacity_bytes(), 2048);
            assert_eq!(geo.layout.graph.vertex_count(), geo.layout.units.len());
        }
        // the template is always geometry 0
        assert_eq!(space.geometries[0].config, template());
    }

    #[test]
    fn random_mutate_crossover_stay_in_space() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::standard(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut genome = space.random(&mut rng);
        for _ in 0..200 {
            assert!(space.is_valid(&genome));
            let other = space.random(&mut rng);
            genome = space.crossover(&space.mutate(&genome, &mut rng), &other, &mut rng);
        }
    }

    #[test]
    fn forced_placements_survive_every_operation() {
        let (t, s) = workload();
        let forced = [(VarId(0), 1usize)];
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &forced,
            &Registry::new(),
        )
        .unwrap();
        let geo = &space.geometries[0].layout;
        // vertex of variable a is pinned to column 1 and absent from free_vertices
        let pinned: Vec<usize> = geo
            .graph
            .vertices()
            .filter(|(_, v)| v.var == VarId(0))
            .map(|(i, _)| i)
            .collect();
        assert!(!pinned.is_empty());
        for &p in &pinned {
            assert!(!geo.free_vertices.contains(&p));
            assert_eq!(geo.heuristic.vertex_columns[p], 1);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut genome = space.seeded(0);
        for _ in 0..100 {
            genome = space.mutate(&genome, &mut rng);
            for &p in &pinned {
                assert_eq!(genome.columns[p], 1);
            }
        }
    }

    #[test]
    fn is_valid_rejects_genomes_outside_the_space() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let seed = space.seeded(0);
        let unknown_geometry = Genome {
            geometry: space.geometries.len(),
            ..seed.clone()
        };
        assert!(!space.is_valid(&unknown_geometry));
        let mut wrong_length = seed.clone();
        wrong_length.columns.push(0);
        assert!(!space.is_valid(&wrong_length));
        let mut out_of_range = seed;
        out_of_range.columns[0] = 200;
        assert!(!space.is_valid(&out_of_range));
    }

    #[test]
    fn enumerate_covers_small_spaces_without_duplicates() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let n = space.cardinality().unwrap();
        let mut genomes = space.enumerate(usize::MAX);
        assert_eq!(genomes.len() as u128, n);
        genomes.sort();
        genomes.dedup();
        assert_eq!(genomes.len() as u128, n);
        // a limit truncates deterministically
        let some = space.enumerate(5);
        assert_eq!(some.len(), 5);
        assert_eq!(some[0], space.seeded(0));
    }
}
