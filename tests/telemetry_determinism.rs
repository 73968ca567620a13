//! Telemetry determinism: an observed tuning search must produce byte-identical
//! deterministic snapshots (`Registry::snapshot_deterministic`, i.e. the full
//! snapshot minus the quarantined `timing` block) across identical runs, and its
//! counters must reconcile with one another, and so must the figure experiments'
//! replay counters with their artefacts. This is the contract that makes metrics
//! diffable in CI: any snapshot change signals a behaviour change, never host noise.
//! (The serve-session half of the same contract lives in `ccache-serve`'s telemetry
//! suite, next to the server it exercises.)

use ccache_json::ToJson;
use column_caching::opt::{tune_observed, TuneRequest};
use column_caching::telemetry::Registry;

#[test]
fn observed_tuning_reports_identical_metrics_across_runs() {
    let workload = column_caching::workloads::corpus("fir", true).expect("corpus");
    let run = || {
        let registry = Registry::new();
        let request = TuneRequest {
            budget: 8,
            ..TuneRequest::default()
        };
        let outcome = tune_observed(
            &workload.trace,
            &workload.symbols,
            &request,
            &registry,
            None,
        )
        .expect("tune");
        (
            outcome.to_json().pretty(),
            registry.snapshot_deterministic().pretty(),
            registry,
        )
    };
    let (outcome_a, snapshot_a, registry) = run();
    let (outcome_b, snapshot_b, _) = run();
    assert_eq!(outcome_a, outcome_b, "tuning itself is deterministic");
    assert_eq!(
        snapshot_a, snapshot_b,
        "and so is everything its telemetry reports (modulo timing)"
    );
    assert!(snapshot_a.contains("opt.generations"));
    assert!(snapshot_a.contains("opt.evaluations"));
    assert!(snapshot_a.contains("opt.best.misses"));

    // The counters reconcile: every fitness evaluation is exactly one fitness-cache
    // miss (a cached candidate is never replayed again) and one engine replay, plus one
    // replay for the baseline reference point the tuner scores outside its budget, and
    // every engine replay covers the whole trace.
    let evaluations = registry.counter_value("opt.evaluations");
    assert!(evaluations > 0);
    assert_eq!(
        evaluations,
        registry.counter_value("opt.fitness_cache.misses")
    );
    let replays = registry.counter_value("engine.replays");
    assert_eq!(replays, evaluations + 1);
    assert_eq!(
        registry.counter_value("engine.references"),
        replays * workload.trace.len() as u64
    );
}

/// The figure experiments count every replay in the execution's own registry: one
/// engine replay per partition point, per dynamic phase and per multitask point, each
/// over exactly the references its outcome reports.
#[test]
fn figure_experiments_count_every_replay_in_their_registry() {
    use column_caching::exp::exec::JobOutcome;
    use column_caching::exp::presets::{fig4_spec, fig5_spec};
    use column_caching::exp::scale::Scale;
    use column_caching::Session;

    for spec in [fig4_spec("all"), fig5_spec(Scale::Quick.quanta())] {
        let registry = Registry::new();
        let session = Session::builder()
            .quick(true)
            .telemetry(registry.clone())
            .build()
            .expect("session");
        let artefact = session.run_spec(&spec).expect("figure preset runs");
        let (mut replays, mut references) = (0u64, 0u64);
        for outcome in &artefact.outcomes {
            let (n, refs) = match outcome {
                JobOutcome::Partition { point, .. } => (1, point.result.references),
                JobOutcome::Dynamic { run, .. } => (
                    run.phases.len() as u64,
                    run.phases.iter().map(|p| p.result.references).sum(),
                ),
                JobOutcome::Multitask { run, .. } => {
                    (1, run.jobs.iter().map(|j| j.references).sum())
                }
                other => panic!("unexpected outcome '{}' in {}", other.label(), spec.name),
            };
            replays += n;
            references += refs;
        }
        assert!(replays > 0);
        assert_eq!(
            registry.counter_value("engine.replays"),
            replays,
            "{}",
            spec.name
        );
        assert_eq!(
            registry.counter_value("engine.references"),
            references,
            "{}",
            spec.name
        );
    }
}

/// The layout layer reports into the execution's registry: one `layout.assign` span and
/// one `layout.assignments` count per column assignment, and `layout.merges` sums the
/// merges the artefact reports for each heuristic mapping.
#[test]
fn layout_assignments_and_merges_are_counted_in_their_registry() {
    use column_caching::exp::exec::JobOutcome;
    use column_caching::exp::presets::fig4_spec;
    use column_caching::Session;

    let session_with = |registry: &Registry| {
        Session::builder()
            .quick(true)
            .telemetry(registry.clone())
            .build()
            .expect("session")
    };

    let registry = Registry::new();
    let spec = column_caching::exp::ExperimentSpec::parse_str(
        r#"{"name": "heuristic", "replay": [{"workloads": ["fir", "mpeg-idct", "gzip"],
            "policies": ["heuristic"]}]}"#,
    )
    .expect("heuristic spec parses");
    let artefact = session_with(&registry)
        .run_spec(&spec)
        .expect("heuristic spec runs");
    let merges: usize = artefact
        .outcomes
        .iter()
        .map(|outcome| match outcome {
            JobOutcome::Replay {
                layout: Some(layout),
                ..
            } => layout.merges,
            other => panic!("unexpected outcome '{}'", other.label()),
        })
        .sum();
    assert!(merges > 0, "some heuristic layout merges");
    assert_eq!(registry.counter_value("layout.merges"), merges as u64);
    assert_eq!(
        registry.counter_value("layout.assignments"),
        artefact.outcomes.len() as u64
    );
    assert_eq!(
        registry.span("layout.assign").count(),
        artefact.outcomes.len() as u64
    );

    // Figure 4 assigns columns at every partition point that keeps a cache column and
    // once per phase of the dynamically remapped run.
    let registry = Registry::new();
    let artefact = session_with(&registry)
        .run_spec(&fig4_spec("all"))
        .expect("fig4 runs");
    let mut assignments = 0u64;
    for outcome in &artefact.outcomes {
        assignments += match outcome {
            JobOutcome::Partition { point, .. } => u64::from(point.cache_columns > 0),
            JobOutcome::Dynamic { run, .. } => run.phases.len() as u64,
            other => panic!("unexpected outcome '{}'", other.label()),
        };
    }
    assert!(assignments > 0);
    assert_eq!(registry.counter_value("layout.assignments"), assignments);
}
