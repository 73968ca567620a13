//! Acceptance tests for the `ccache-opt` search subsystem on the paper's workloads.
//!
//! The contract: `ccache tune` with a fixed seed is fully deterministic (identical JSON
//! across runs and across parallel and serial evaluation) and finds an assignment whose
//! replayed miss rate on the Fig-4 combined trace is better than or equal to the paper's
//! heuristic `assign_columns` layout, with the improvement visible in the convergence
//! table.

use ccache_json::ToJson;
use ccache_opt::{tune_observed, GeometrySearch, OptError, StrategyKind, TuneOutcome, TuneRequest};
use ccache_sim::{CacheConfig, LatencyConfig, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace};
use ccache_workloads::corpus;

fn tune(
    trace: &Trace,
    symbols: &SymbolTable,
    request: &TuneRequest,
) -> Result<TuneOutcome, OptError> {
    tune_observed(trace, symbols, request, &Registry::new(), None)
}

fn fig4_template() -> SystemConfig {
    SystemConfig {
        cache: CacheConfig::default(), // 2 KiB, 4 columns, 32-byte lines — the paper's
        latency: LatencyConfig::default(),
        page_size: 128,
        tlb_entries: 64,
    }
}

fn request(strategy: StrategyKind) -> TuneRequest {
    TuneRequest {
        template: fig4_template(),
        geometry: GeometrySearch::standard(),
        strategy,
        budget: 48,
        seed: 42,
        ..TuneRequest::default()
    }
}

#[test]
fn tuned_fig4_combined_beats_or_matches_the_heuristic_layout() {
    let run = corpus("mpeg-combined", true).expect("fig4 combined workload");
    for strategy in StrategyKind::ALL {
        let outcome = tune(&run.trace, &run.symbols, &request(strategy)).unwrap();
        assert!(
            outcome.best.fitness.miss_rate <= outcome.heuristic.fitness.miss_rate,
            "{strategy}: tuned miss rate {} exceeds heuristic {}",
            outcome.best.fitness.miss_rate,
            outcome.heuristic.fitness.miss_rate
        );
        assert!(outcome.improvement_vs_heuristic() >= 0.0);
        // the convergence table records the improvement: its last row is the best
        let last = outcome.convergence.last().expect("non-empty convergence");
        assert_eq!(last.best.misses, outcome.best.fitness.misses);
        assert!(outcome.replays <= outcome.budget);
    }
}

#[test]
fn fig4_combined_tune_json_is_identical_across_runs_and_schedules() {
    let run = corpus("mpeg-combined", true).expect("fig4 combined workload");
    let req = request(StrategyKind::Evolutionary);
    let first = tune(&run.trace, &run.symbols, &req).unwrap();
    let second = tune(&run.trace, &run.symbols, &req).unwrap();
    let serial = tune(
        &run.trace,
        &run.symbols,
        &TuneRequest {
            serial: true,
            ..req
        },
    )
    .unwrap();
    let a = first.to_json().pretty();
    assert_eq!(a, second.to_json().pretty(), "re-run changed the artefact");
    assert_eq!(a, serial.to_json().pretty(), "parallel schedule leaked in");
}

#[test]
fn evolutionary_search_strictly_improves_on_the_heuristic_here() {
    // Not guaranteed in general — but on the quick Fig-4 combined trace the joint
    // geometry+assignment search has real headroom, and losing it would mean the
    // search subsystem regressed. (The determinism tests above make this stable.)
    let run = corpus("mpeg-combined", true).expect("fig4 combined workload");
    let outcome = tune(
        &run.trace,
        &run.symbols,
        &request(StrategyKind::Evolutionary),
    )
    .unwrap();
    assert!(
        outcome.best.fitness.misses < outcome.heuristic.fitness.misses,
        "expected a strict improvement: best {} vs heuristic {}",
        outcome.best.fitness.misses,
        outcome.heuristic.fitness.misses
    );
}
