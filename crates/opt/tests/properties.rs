//! Property-based tests of the search subsystem's invariants.
//!
//! The contracts under test (satellite requirements of the search-subsystem PR):
//!
//! * every genome produced by `random`, `mutate` or `crossover` is valid — columns in
//!   range, forced placements respected;
//! * `decode(encode(g)) == g` for every genome the space can produce;
//! * a fixed seed produces an identical best result (and convergence log) with
//!   thread-parallel evaluation on and off.

use ccache_opt::{
    tune_observed, Evaluator, GeometrySearch, ProgressLog, SearchSpace, StrategyKind, TuneRequest,
};
use ccache_sim::SystemConfig;
use ccache_telemetry::Registry;
use ccache_trace::{AccessKind, SymbolTable, Trace, TraceRecorder, VarId};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

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
    SearchSpace::build(&t, &s, template(), &search, forced).expect("space builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mutation and crossover are closed over the valid-genome set, and encoding round
    /// trips exactly, from any seeded starting point.
    #[test]
    fn genome_operations_stay_valid_and_round_trip(
        seed in 0u64..1_000_000,
        vars in 2usize..7,
        joint in any::<bool>(),
    ) {
        let space = space(vars, 200, joint, &[]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genome = space.random(&mut rng);
        for step in 0..60 {
            prop_assert!(space.is_valid(&genome), "invalid genome at step {}", step);
            prop_assert_eq!(space.decode(&genome.encode()).as_ref(), Some(&genome));
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
            for (idx, vertex) in geo.graph.vertices() {
                if vertex.var == VarId(0) {
                    prop_assert_eq!(genome.columns[idx], col);
                }
            }
            genome = space.mutate(&genome, &mut rng);
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
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[])
            .expect("space builds");

        let run = |serial: bool| {
            let mut eval = Evaluator::new(&space, t.clone(), 30, serial);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut log = ProgressLog::new();
            let best = kind.build().search(&space, &mut eval, &mut rng, &mut log).unwrap();
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
