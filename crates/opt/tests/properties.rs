//! Property-based tests of the search subsystem's invariants.
//!
//! The contracts under test (satellite requirements of the search-subsystem PR):
//!
//! * every genome produced by `random`, `mutate` or `crossover` is valid — columns in
//!   range, forced placements respected;
//! * genomes order exactly as their former byte encoding did, which is the order fitness
//!   ties break on;
//! * a fixed seed produces an identical best result (and convergence log) with
//!   thread-parallel evaluation on and off;
//! * the evaluator's fitness — from the per-column model or an engine replay — equals a
//!   hand-built engine replay of every candidate's mapping.

use ccache_core::{CacheMapping, ReplayEngine};
use ccache_layout::assignment_from_vertex_columns;
use ccache_opt::{
    tune_observed, Evaluator, Fitness, Genome, GeometrySearch, ProgressLog, SearchSpace,
    StrategyKind, TuneRequest,
};
use ccache_sim::backend::BackendKind;
use ccache_sim::{CacheConfig, LatencyConfig, ReplacementPolicy, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{AccessKind, MemAccess, SymbolTable, Trace, TraceRecorder, VarId};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds a random small workload: `vars` variables with varied sizes, `events` accesses
/// round-robining with a drifting stride.
fn workload(vars: usize, events: u64) -> (Trace, SymbolTable) {
    let mut rec = TraceRecorder::new();
    let ids: Vec<VarId> = (0..vars)
        .map(|i| rec.allocate(&format!("v{i}"), 64 * (i as u64 % 5 + 1), 8))
        .collect();
    for e in 0..events {
        let var = ids[(e as usize) % ids.len()];
        let size = 64 * ((e as usize % ids.len()) as u64 % 5 + 1);
        rec.record(var, (e * 24) % size, 8, AccessKind::Read);
    }
    rec.finish()
}

fn template() -> SystemConfig {
    SystemConfig {
        page_size: 256,
        ..SystemConfig::default()
    }
}

fn space(vars: usize, events: u64, joint: bool, forced: &[(VarId, usize)]) -> SearchSpace {
    let (t, s) = workload(vars, events);
    let search = if joint {
        GeometrySearch::standard()
    } else {
        GeometrySearch::fixed()
    };
    SearchSpace::build(&t, &s, template(), &search, forced, &Registry::new()).expect("space builds")
}

/// The byte encoding of a genome: the geometry as a little-endian `u16`, then one byte
/// per vertex column. The evaluator keys its cache with these bytes, and fitness ties
/// broke on their order before genomes derived theirs.
fn ref_encode(genome: &Genome) -> Vec<u8> {
    let mut key = (genome.geometry as u16).to_le_bytes().to_vec();
    key.extend(genome.columns.iter().map(|&c| c as u8));
    key
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mutation and crossover are closed over the valid-genome set from any seeded
    /// starting point.
    #[test]
    fn genome_operations_stay_valid(
        seed in 0u64..1_000_000,
        vars in 2usize..7,
        joint in any::<bool>(),
    ) {
        let space = space(vars, 200, joint, &[]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genome = space.random(&mut rng);
        for step in 0..60 {
            prop_assert!(space.is_valid(&genome), "invalid genome at step {}", step);
            let partner = space.random(&mut rng);
            prop_assert!(space.is_valid(&partner));
            genome = match step % 3 {
                0 => space.mutate(&genome, &mut rng),
                1 => space.crossover(&genome, &partner, &mut rng),
                _ => space.crossover(&space.mutate(&partner, &mut rng), &genome, &mut rng),
            };
        }
    }

    /// Forced placements survive arbitrary chains of genome operations in every geometry.
    #[test]
    fn forced_placements_are_never_moved(seed in 0u64..1_000_000, col in 0usize..2) {
        let forced = [(VarId(0), col)];
        let space = space(4, 160, true, &forced);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genome = space.random(&mut rng);
        for _ in 0..40 {
            let geo = &space.geometries[genome.geometry];
            for (idx, vertex) in geo.layout.graph.vertices() {
                if vertex.var == VarId(0) {
                    prop_assert_eq!(genome.columns[idx], col);
                }
            }
            genome = space.mutate(&genome, &mut rng);
        }
    }

    /// Fitness ties break on the genomes' derived order, which must equal the order of
    /// the byte encoding the tuner used to compare (`ref_encode`): for random pairs from
    /// a standard geometry search, with and without a forced placement, the two orders
    /// agree and genomes are equal exactly when their encodings are.
    #[test]
    fn genome_order_equals_the_byte_encoding_order(
        seed in 0u64..1_000_000,
        vars in 2usize..7,
        forced in any::<bool>(),
    ) {
        let forced: &[(VarId, usize)] = if forced { &[(VarId(0), 1)] } else { &[] };
        let space = space(vars, 200, true, forced);
        prop_assert!(space.geometries.len() > 1);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let a = space.random(&mut rng);
            let b = match rng.random_range(0..3) {
                0 => a.clone(),
                1 => space.mutate(&a, &mut rng),
                _ => space.random(&mut rng),
            };
            prop_assert_eq!(a.cmp(&b), ref_encode(&a).cmp(&ref_encode(&b)));
            prop_assert_eq!(a == b, ref_encode(&a) == ref_encode(&b));
        }
    }

    /// For any seed and strategy, parallel and serial evaluation produce identical
    /// winners, identical replay counts and an identical convergence log.
    #[test]
    fn fixed_seed_matches_across_parallel_and_serial(
        seed in 0u64..1_000_000,
        kind_idx in 0usize..3,
    ) {
        let kind = StrategyKind::ALL[kind_idx];
        let (t, s) = workload(5, 240);
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[], &Registry::new())
            .expect("space builds");

        let run = |serial: bool| {
            let registry = Registry::new();
            let mut eval = Evaluator::new(&space, &t, 30, serial, &registry);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut log = ProgressLog::new(&registry, None);
            let best = kind.search(&space, &mut eval, &mut rng, &mut log).unwrap();
            (best, eval.replays(), log.into_points())
        };
        let (best_par, replays_par, log_par) = run(false);
        let (best_ser, replays_ser, log_ser) = run(true);
        prop_assert_eq!(best_par.genome, best_ser.genome);
        prop_assert_eq!(best_par.fitness.key(), best_ser.fitness.key());
        prop_assert_eq!(replays_par, replays_ser);
        prop_assert_eq!(log_par, log_ser);
    }
}

/// A random workload for the model check: 1–6 variables of 8 B–1 KiB, and 200–1,200
/// accesses that mix reads and writes. One more variable is swept in order, a read and
/// then a write of each element, so runs of one line end in a write.
fn mixed_workload(rng: &mut StdRng) -> (Trace, SymbolTable) {
    let mut rec = TraceRecorder::new();
    let vars: Vec<(VarId, u64)> = (0..rng.random_range(1..=6usize))
        .map(|i| {
            let size = 8 * rng.random_range(1..=128u64);
            (rec.allocate(&format!("v{i}"), size, 8), size)
        })
        .collect();
    let swept_size = 8 * rng.random_range(1..=128u64);
    let swept = rec.allocate("swept", swept_size, 8);
    let mut next = 0;
    let writes = f64::from(rng.random_range(1..6u32)) / 10.0;
    for _ in 0..rng.random_range(200..=1200) {
        if rng.random_bool(0.2) {
            for _ in 0..rng.random_range(1..=8) {
                rec.record(swept, next, 8, AccessKind::Read);
                rec.record(swept, next, 8, AccessKind::Write);
                next = (next + 8) % swept_size;
            }
            continue;
        }
        let (var, size) = vars[rng.random_range(0..vars.len())];
        let kind = if rng.random_bool(writes) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        rec.record(var, 8 * rng.random_range(0..size / 8), 8, kind);
    }
    rec.finish()
}

/// A random valid template: capacity 256 B–8 KiB, 1–16 columns, 8–64 B lines, pages of
/// one line to 4 KiB, 1–128 TLB entries, any replacement policy and nonzero penalties.
fn random_template(rng: &mut StdRng) -> SystemConfig {
    loop {
        let line = 8u64 << rng.random_range(0..4u32);
        let Ok(cache) = CacheConfig::builder()
            .capacity_bytes(256 << rng.random_range(0..6u32))
            .columns(1 << rng.random_range(0..5u32))
            .line_size(line)
            .replacement(ReplacementPolicy::ALL[rng.random_range(0..5usize)])
            .build()
        else {
            continue;
        };
        let latency = LatencyConfig {
            hit_latency: rng.random_range(1..4),
            miss_penalty: rng.random_range(5..40),
            writeback_penalty: rng.random_range(1..30),
            scratchpad_latency: 1,
            uncached_latency: rng.random_range(1..50),
            tlb_miss_penalty: rng.random_range(1..25),
            compute_cycles_per_instruction: rng.random_range(1..3),
            instructions_per_reference: rng.random_range(1..4),
        };
        let config = SystemConfig {
            cache,
            latency,
            page_size: line << rng.random_range(0..=(4096 / line).trailing_zeros()),
            tlb_entries: rng.random_range(1..=128),
        };
        if config.validate().is_ok() {
            return config;
        }
    }
}

/// A random template with a search of two column counts and two line sizes, `c`, `2c`,
/// `l` and `2l`, that are valid in all four combinations. So one evaluator scores at
/// least two line sizes per column count, two column counts per line size, and two splits
/// with the same set count: `(c, 2l)` and `(2c, l)`.
fn random_search(rng: &mut StdRng) -> (SystemConfig, GeometrySearch) {
    loop {
        let template = random_template(rng);
        let columns = 1usize << rng.random_range(0..4u32);
        let line = 8u64 << rng.random_range(0..3u32);
        let capacity = template.cache.capacity_bytes();
        if 2 * line > template.page_size || capacity < 4 * columns as u64 * line {
            continue;
        }
        let search = GeometrySearch {
            columns: vec![columns, 2 * columns],
            line_sizes: vec![line, 2 * line],
            tlb_entries: vec![rng.random_range(1..=128)],
        };
        return (template, search);
    }
}

/// `trace` with a read or write outside every variable after roughly one reference in 40,
/// and always after the last one, so the result never lies wholly inside the variables.
fn with_strays(trace: &Trace, rng: &mut StdRng) -> Trace {
    fn stray(rng: &mut StdRng) -> MemAccess {
        let addr = 0x4000_0000 + 8 * rng.random_range(0..4096u64);
        if rng.random_bool(0.5) {
            MemAccess::write(addr, 8)
        } else {
            MemAccess::read(addr, 8)
        }
    }
    let mut out = Trace::new();
    for ev in trace {
        out.push(*ev);
        if rng.random_bool(0.025) {
            out.push(stray(rng));
        }
    }
    out.push(stray(rng));
    out
}

/// The fitness of a fresh column-cache engine replaying `trace` under `genome`'s mapping.
fn hand_built_replay(space: &SearchSpace, genome: &Genome, trace: &Trace) -> Fitness {
    let geo = &space.geometries[genome.geometry];
    let layout = &geo.layout;
    let assignment =
        assignment_from_vertex_columns(&layout.graph, &layout.options, &genome.columns)
            .expect("in-space genome");
    let mapping = CacheMapping::from_assignment(&assignment, &layout.units, &space.symbols, &[]);
    let mut engine = ReplayEngine::new(BackendKind::ColumnCache, geo.config).expect("valid");
    engine.set_telemetry(&Registry::new());
    engine.apply(&mapping).expect("valid mapping");
    Fitness::from_run(&engine.replay("hand-built", trace))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-column model checks the simulator, and the simulator checks the model: for
    /// random workloads, geometries, replacement policies and latencies, every in-space
    /// genome's evaluator fitness equals a hand-built engine replay of its mapping. Every
    /// reference of the workload lies in a variable, so the model scores each candidate;
    /// with stray references outside every variable added, the engine does. Each
    /// evaluator scores several line sizes and column counts, so the model's run streams
    /// of every split are used side by side.
    #[test]
    fn evaluator_fitness_equals_a_hand_built_engine_replay(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (trace, symbols) = mixed_workload(&mut rng);
        let (template, search) = random_search(&mut rng);
        let space = SearchSpace::build(&trace, &symbols, template, &search, &[], &Registry::new())
            .expect("space builds");
        let mut genomes: Vec<Genome> = (0..space.geometries.len()).map(|g| space.seeded(g)).collect();
        genomes.extend((0..6).map(|_| space.random(&mut rng)));
        let strays = with_strays(&trace, &mut rng);

        for (trace, modelled) in [(&trace, true), (&strays, false)] {
            let registry = Registry::new();
            let serial = rng.random_bool(0.5);
            let mut eval = Evaluator::new(&space, trace, genomes.len(), serial, &registry);
            let scores = eval.evaluate_batch(&genomes).expect("in-space genomes");
            for (genome, score) in genomes.iter().zip(scores) {
                let expected = hand_built_replay(&space, genome, trace);
                prop_assert_eq!(score, Some(expected), "{:?} under {:?}", genome, template);
            }
            let evaluations = registry.counter_value("opt.evaluations");
            let by_model = registry.counter_value("opt.model.evaluations");
            let replays = registry.counter_value("engine.replays");
            prop_assert!(evaluations > 0);
            if modelled {
                prop_assert_eq!((by_model, replays), (evaluations, 0));
            } else {
                prop_assert_eq!((by_model, replays), (0, evaluations));
            }
        }
    }
}

/// The end-to-end determinism contract at the `tune` level: identical JSON byte-for-byte
/// across repeated runs and across the parallel/serial switch, and the best never loses
/// to the heuristic.
#[test]
fn tune_is_deterministic_and_never_worse_than_heuristic() {
    let (t, s) = workload(6, 400);
    for strategy in StrategyKind::ALL {
        let request = TuneRequest {
            template: template(),
            geometry: GeometrySearch::standard(),
            strategy,
            budget: 40,
            seed: 1234,
            ..TuneRequest::default()
        };
        let tune =
            |request: &TuneRequest| tune_observed(&t, &s, request, &Registry::new(), None).unwrap();
        let a = tune(&request);
        let b = tune(&request);
        let serial = tune(&TuneRequest {
            serial: true,
            ..request
        });
        use ccache_json::ToJson;
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        assert_eq!(a.to_json().pretty(), serial.to_json().pretty());
        assert!(a.best.fitness.key() <= a.heuristic.fitness.key());
    }
}
