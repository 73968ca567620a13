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
    // miss (a cached candidate is never scored again) and either one model evaluation
    // or one engine replay, plus one replay for the baseline reference point the tuner
    // scores outside its budget, and every engine replay covers the whole trace.
    let evaluations = registry.counter_value("opt.evaluations");
    assert!(evaluations > 0);
    assert_eq!(
        evaluations,
        registry.counter_value("opt.fitness_cache.misses")
    );
    let replays = registry.counter_value("engine.replays");
    assert_eq!(
        replays + registry.counter_value("opt.model.evaluations"),
        evaluations + 1
    );
    assert_eq!(
        registry.counter_value("engine.references"),
        replays * workload.trace.len() as u64
    );
}

/// The quick `mpeg-combined` tune (`ccache tune --quick`) tints every referenced page
/// to one column in every candidate, so the per-column model scores them all and the
/// engine replays only the baseline reference point: a silent fallback to the engine
/// shows here. The model walks each split's run heads, so the references it walked
/// repeat exactly between runs and stay below one whole trace per candidate.
#[test]
fn the_model_scores_every_candidate_of_the_quick_tune() {
    use column_caching::sim::SystemConfig;

    let workload = column_caching::workloads::corpus("mpeg-combined", true).expect("corpus");
    let run = || {
        let registry = Registry::new();
        let request = TuneRequest {
            template: SystemConfig {
                page_size: 128,
                ..SystemConfig::default()
            },
            budget: 48,
            ..TuneRequest::default()
        };
        tune_observed(
            &workload.trace,
            &workload.symbols,
            &request,
            &registry,
            None,
        )
        .expect("tune");
        registry
    };
    let registry = run();
    let evaluations = registry.counter_value("opt.evaluations");
    assert_eq!(evaluations, 48);
    assert_eq!(registry.counter_value("opt.model.evaluations"), evaluations);
    assert_eq!(registry.counter_value("engine.replays"), 1);
    // The search space seeds each column count (2, 4 and 8) with the paper's heuristic,
    // and those assignments report into the tune's registry like any other.
    assert_eq!(registry.counter_value("layout.assignments"), 3);
    assert_eq!(registry.span("layout.assign").count(), 3);
    assert!(registry.counter_value("layout.colour_steps") > 0);

    let walked = registry.counter_value("opt.model.references");
    assert_eq!(
        walked,
        run().counter_value("opt.model.references"),
        "the references the model walks repeat exactly"
    );
    assert!(walked > 0);
    assert!(
        walked < evaluations * workload.trace.len() as u64,
        "{walked} references walked for {evaluations} candidates of {} references",
        workload.trace.len()
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

/// The simulator's slow-path counters — lookups past a stale way hint in the cache
/// (`engine.cache.scans`) and past a stale slot hint in the TLB (`engine.tlb.scans`) —
/// repeat exactly between runs, never exceed the references replayed, and leave the
/// artefact byte-identical to a run that reports into no private registry.
#[test]
fn slow_path_counters_repeat_and_stay_within_the_references() {
    use column_caching::exp::presets::fig5_spec;
    use column_caching::exp::scale::Scale;
    use column_caching::Session;

    let spec = fig5_spec(Scale::Quick.quanta());
    let run = |registry: Option<&Registry>| {
        let mut builder = Session::builder().quick(true);
        if let Some(registry) = registry {
            builder = builder.telemetry(registry.clone());
        }
        let session = builder.build().expect("session");
        session.run_spec_bytes(&spec).expect("fig5 runs").1
    };
    let counters = |registry: &Registry| {
        [
            "engine.cache.scans",
            "engine.tlb.scans",
            "engine.tlb.misses",
        ]
        .map(|name| registry.counter_value(name))
    };

    let (a, b) = (Registry::new(), Registry::new());
    let artefact = run(Some(&a));
    assert_eq!(run(Some(&b)), artefact);
    assert_eq!(run(None), artefact);
    assert_eq!(counters(&a), counters(&b));

    let [cache_scans, tlb_scans, tlb_misses] = counters(&a);
    let references = a.counter_value("engine.references");
    assert!(
        0 < cache_scans && cache_scans <= references,
        "{cache_scans} of {references}"
    );
    // Every TLB miss scans before it fills.
    assert!(
        tlb_misses <= tlb_scans && tlb_scans <= references,
        "{tlb_scans} of {references}"
    );
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
