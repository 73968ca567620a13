//! The `Session` facade: one typed front door to the whole stack.
//!
//! Before this module, driving the workspace as a library meant reaching into five
//! crates: build a `SystemConfig` from `ccache-sim`, a `ReplayEngine` from
//! `ccache-core`, look workloads up in `ccache-workloads`, compile specs with
//! `ccache-exp` and tune with `ccache-opt`. A [`Session`] packages that wiring behind a
//! builder:
//!
//! ```
//! use column_caching::Session;
//!
//! let session = Session::builder().quick(true).observe(512).build()?;
//! let replayed = session.replay_corpus("fir")?;
//! let series = replayed.series.expect("observation was requested");
//! assert_eq!(series.total_references(), replayed.result.references);
//! # Ok::<(), column_caching::SessionError>(())
//! ```
//!
//! The configured observation window is honoured by every replay the session runs —
//! including full experiment specs ([`Session::run_spec`]), where it surfaces as the
//! artefact's `time_series` blocks. The `ccache` CLI commands are thin clients of this
//! type.

use ccache_core::observe::{ReplayObserver, SeriesRecorder, TimeSeries};
use ccache_core::runner::CacheMapping;
use ccache_core::{CoreError, ReplayEngine, RunResult};
use ccache_exp::exec::{ExecOptions, ObserveOptions};
use ccache_exp::spec::unknown_workload;
use ccache_exp::{Artefact, ExpError, ExperimentSpec, GeometrySpec, Plan};
use ccache_json::{Json, ToJson};
use ccache_opt::{OptError, TuneOutcome, TuneProgress, TuneRequest};
use ccache_sim::backend::BackendKind;
use ccache_sim::{SimError, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace};

/// Errors surfaced by the [`Session`] facade: either a bad request (unknown backend or
/// workload name) or a wrapped error from one of the underlying crates.
#[derive(Debug)]
pub enum SessionError {
    /// A name failed to resolve or a request was malformed.
    BadRequest(String),
    /// A simulator configuration was invalid.
    Sim(SimError),
    /// A replay or experiment failed in the core layer.
    Core(CoreError),
    /// The experiment layer rejected a spec or failed a job.
    Exp(ExpError),
    /// The autotuner failed.
    Opt(OptError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::BadRequest(msg) => write!(f, "{msg}"),
            SessionError::Sim(e) => write!(f, "{e}"),
            SessionError::Core(e) => write!(f, "{e}"),
            SessionError::Exp(e) => write!(f, "{e}"),
            SessionError::Opt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::BadRequest(_) => None,
            SessionError::Sim(e) => Some(e),
            SessionError::Core(e) => Some(e),
            SessionError::Exp(e) => Some(e),
            SessionError::Opt(e) => Some(e),
        }
    }
}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> Self {
        SessionError::Core(e)
    }
}

impl From<ExpError> for SessionError {
    fn from(e: ExpError) -> Self {
        SessionError::Exp(e)
    }
}

impl From<OptError> for SessionError {
    fn from(e: OptError) -> Self {
        SessionError::Opt(e)
    }
}

/// A replay's outcome through a session: the statistics plus — when the session
/// observes — the windowed time series.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// The replay statistics (identical with observation on or off).
    pub result: RunResult,
    /// The windowed series, when the session was built with [`SessionBuilder::observe`].
    pub series: Option<TimeSeries>,
}

/// Configures and validates a [`Session`].
///
/// Defaults: the paper's Figure 4 geometry ([`GeometrySpec::default`]), the
/// column-cache backend, full-scale workloads, no observation.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    geometry: GeometrySpec,
    backend: String,
    quick: bool,
    observe: Option<u64>,
    telemetry: Option<Registry>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            geometry: GeometrySpec::default(),
            backend: "column-cache".to_owned(),
            quick: false,
            observe: None,
            telemetry: None,
        }
    }
}

impl SessionBuilder {
    /// Starts a builder with the defaults above.
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Sets the cache geometry (capacity, columns, line, page, TLB, replacement,
    /// latency preset).
    pub fn geometry(mut self, geometry: GeometrySpec) -> Self {
        self.geometry = geometry;
        self
    }

    /// Selects the backend the session replays on, by any spelling
    /// [`BackendKind::parse`] accepts. Validated at [`SessionBuilder::build`].
    pub fn backend(mut self, name: impl Into<String>) -> Self {
        self.backend = name.into();
        self
    }

    /// Builds workloads at the reduced quick scale (smoke tests).
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Attaches a windowed observer to every replay the session runs: one
    /// [`WindowSample`](ccache_core::observe::WindowSample) per `window` references.
    pub fn observe(mut self, window: u64) -> Self {
        self.observe = Some(window.max(1));
        self
    }

    /// Routes the session's telemetry (engine, tuner and executor metrics) into
    /// `registry` instead of the process-wide [`Registry::global`]. Telemetry never
    /// changes results, artefact bytes or [`Session::spec_key`].
    pub fn telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Validates the configuration and produces the session.
    ///
    /// # Errors
    ///
    /// Fails for invalid geometries and for unknown backend names (the message lists the
    /// accepted names, [`BackendKind::expected_single`]).
    pub fn build(self) -> Result<Session, SessionError> {
        let config = self.geometry.system_config()?;
        let backend = BackendKind::parse(&self.backend).ok_or_else(|| {
            SessionError::BadRequest(format!(
                "unknown backend '{}' (expected {})",
                self.backend,
                BackendKind::expected_single()
            ))
        })?;
        Ok(Session {
            geometry: self.geometry,
            config,
            backend,
            quick: self.quick,
            observe: self.observe,
            telemetry: self.telemetry.unwrap_or_else(Registry::global),
        })
    }
}

/// A configured driving session: the library's single entry point for replays,
/// experiment specs and tuning runs. Build one with [`Session::builder`].
#[derive(Debug, Clone)]
pub struct Session {
    geometry: GeometrySpec,
    config: SystemConfig,
    backend: BackendKind,
    quick: bool,
    observe: Option<u64>,
    telemetry: Registry,
}

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The cache geometry the session replays under.
    pub fn geometry(&self) -> &GeometrySpec {
        &self.geometry
    }

    /// The validated simulator configuration derived from the geometry.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The canonical name of the session's backend.
    pub fn backend(&self) -> &str {
        self.backend.canonical_name()
    }

    /// Whether workloads are built at the reduced quick scale.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The telemetry registry the session reports into (the process-wide global unless
    /// [`SessionBuilder::telemetry`] installed a private one).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// A fresh [`ReplayEngine`] over the session's backend and geometry, reporting into
    /// the session's registry.
    fn engine(&self) -> Result<ReplayEngine, SessionError> {
        let mut engine = ReplayEngine::new(self.backend, self.config)?;
        engine.set_telemetry(&self.telemetry);
        Ok(engine)
    }

    /// Replays a trace on a freshly built backend with no mapping programmed.
    ///
    /// # Errors
    ///
    /// Fails if the backend cannot be built.
    pub fn replay(&self, name: &str, trace: &Trace) -> Result<Replayed, SessionError> {
        self.replay_mapped(name, trace, &CacheMapping::new())
    }

    /// Replays a trace with a cache mapping programmed first — the paper's programming
    /// model in one call: partition, replay, read statistics (and, when observing, the
    /// windowed series).
    ///
    /// # Errors
    ///
    /// Fails if the backend cannot be built or the mapping is invalid for it.
    pub fn replay_mapped(
        &self,
        name: &str,
        trace: &Trace,
        mapping: &CacheMapping,
    ) -> Result<Replayed, SessionError> {
        let mut engine = self.engine()?;
        engine.apply(mapping)?;
        let mut recorder = self.observe.map(SeriesRecorder::new);
        let observe = recorder.as_mut().map(SeriesRecorder::as_observer);
        let Ok(result) = engine.replay_from(name, trace.as_slice(), observe);
        Ok(Replayed {
            result,
            series: recorder.map(SeriesRecorder::into_series),
        })
    }

    /// Replays a trace with a caller-provided streaming observer (the session's own
    /// observation setting is ignored for this call).
    ///
    /// # Errors
    ///
    /// Fails if the backend cannot be built.
    pub fn replay_with(
        &self,
        name: &str,
        trace: &Trace,
        window: u64,
        observer: &mut dyn ReplayObserver,
    ) -> Result<RunResult, SessionError> {
        let mut engine = self.engine()?;
        let Ok(result) = engine.replay_from(name, trace.as_slice(), Some((window, observer)));
        Ok(result)
    }

    /// Runs a named corpus workload (at the session's scale) and replays its trace.
    ///
    /// # Errors
    ///
    /// Fails for unknown corpus names; the message lists the accepted ones.
    pub fn replay_corpus(&self, name: &str) -> Result<Replayed, SessionError> {
        let run = ccache_workloads::corpus(name, self.quick)
            .ok_or_else(|| SessionError::BadRequest(unknown_workload(name)))?;
        self.replay(&run.name, &run.trace)
    }

    /// Runs a full experiment spec through the plan → execute → package pipeline,
    /// honouring the session's scale and observation settings.
    ///
    /// # Errors
    ///
    /// Propagates planning and execution failures.
    pub fn run_spec(&self, spec: &ExperimentSpec) -> Result<Artefact, SessionError> {
        self.run_plan(spec, ccache_exp::plan(spec))
    }

    /// As [`Session::run_spec`], executing an already-computed plan of `spec` — for
    /// callers that inspect or report plan statistics first (e.g. `ccache run`'s
    /// stderr narration) without paying for a second grid expansion.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn run_plan(&self, spec: &ExperimentSpec, plan: Plan) -> Result<Artefact, SessionError> {
        let outcomes = ccache_exp::execute(&plan, &self.exec_options())?;
        Ok(Artefact::new(spec.clone(), self.quick, plan, outcomes))
    }

    /// The canonical memo key for running `spec` on this session.
    ///
    /// The key is a compact JSON document combining the session knobs that change
    /// artefact bytes (`quick` scale and observation window; telemetry routing is
    /// deliberately excluded because it never changes bytes) with the spec's canonical
    /// JSON form and the
    /// planner's deduplicated per-job canonical keys ([`JobUnit::key`](
    /// ccache_exp::JobUnit::key)). Whenever two `(session, spec)` pairs agree on
    /// `spec_key`, [`Session::run_spec`] produces byte-identical artefact text for
    /// both — the contract the `ccache-serve` content-addressed result store is
    /// built on.
    pub fn spec_key(&self, spec: &ExperimentSpec) -> String {
        let plan = ccache_exp::plan(spec);
        Json::obj([
            ("quick", self.quick.to_json()),
            ("observe", self.observe.to_json()),
            ("spec", spec.to_json()),
            (
                "jobs",
                Json::arr(plan.jobs.iter().map(|job| Json::Str(job.key()))),
            ),
        ])
        .compact()
    }

    /// Runs `spec` and returns `(spec_key, artefact_bytes)`: the canonical memo key
    /// ([`Session::spec_key`]) and the pretty-rendered artefact JSON — the exact
    /// bytes `ccache serve` memoizes and replies with. The serve stress tests use
    /// this as their single-threaded oracle.
    ///
    /// # Errors
    ///
    /// Propagates planning and execution failures.
    pub fn run_spec_bytes(&self, spec: &ExperimentSpec) -> Result<(String, String), SessionError> {
        let key = self.spec_key(spec);
        let artefact = self.run_spec(spec)?;
        Ok((key, artefact.to_json().pretty()))
    }

    /// The execution options the session's settings compile to.
    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            quick: self.quick,
            observe: self.observe.map(|window| ObserveOptions { window }),
            telemetry: Some(self.telemetry.clone()),
        }
    }

    /// Tunes cache geometry and column assignments for a workload trace
    /// (see [`ccache_opt::tune_observed`]). The request is taken as-is — its own `template`
    /// geometry drives the search, not the session's; pass `*session.config()` as the
    /// template to tune under the session's geometry.
    ///
    /// # Errors
    ///
    /// Propagates search failures.
    pub fn tune(
        &self,
        trace: &Trace,
        symbols: &SymbolTable,
        request: &TuneRequest,
    ) -> Result<TuneOutcome, SessionError> {
        Ok(ccache_opt::tune_observed(
            trace,
            symbols,
            request,
            &self.telemetry,
            None,
        )?)
    }

    /// As [`Session::tune`], additionally streaming each completed generation to
    /// `progress` as it happens — the convergence log on the returned outcome is
    /// unchanged, and observation never steers the search.
    ///
    /// # Errors
    ///
    /// Propagates search failures.
    pub fn tune_with_progress(
        &self,
        trace: &Trace,
        symbols: &SymbolTable,
        request: &TuneRequest,
        progress: &mut dyn TuneProgress,
    ) -> Result<TuneOutcome, SessionError> {
        Ok(ccache_opt::tune_observed(
            trace,
            symbols,
            request,
            &self.telemetry,
            Some(progress),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_session_replays_a_corpus_workload() {
        let session = Session::builder().quick(true).build().unwrap();
        assert_eq!(session.backend(), "column-cache");
        let replayed = session.replay_corpus("fir").unwrap();
        assert!(replayed.result.references > 0);
        assert!(replayed.series.is_none());
    }

    #[test]
    fn observed_sessions_attach_series_everywhere() {
        let plain = Session::builder().quick(true).build().unwrap();
        let observing = Session::builder().quick(true).observe(256).build().unwrap();
        let a = plain.replay_corpus("fir").unwrap();
        let b = observing.replay_corpus("fir").unwrap();
        assert_eq!(a.result, b.result, "observation must not change statistics");
        let series = b.series.unwrap();
        assert_eq!(series.window, 256);
        assert_eq!(series.total_references(), a.result.references);
    }

    #[test]
    fn unknown_names_fail_with_derived_expected_lists() {
        let err = Session::builder()
            .backend("victim-cache")
            .build()
            .err()
            .unwrap();
        assert_eq!(
            err.to_string(),
            "unknown backend 'victim-cache' (expected column, set-assoc or ideal)"
        );
        let session = Session::builder().quick(true).build().unwrap();
        let err = session.replay_corpus("nope").err().unwrap();
        assert!(err.to_string().contains("unknown workload 'nope'"));
    }

    #[test]
    fn backends_are_replayable_by_any_spelling() {
        for name in ["ideal", "ideal-scratchpad"] {
            let session = Session::builder()
                .quick(true)
                .backend(name)
                .build()
                .unwrap();
            assert_eq!(session.backend(), "ideal-scratchpad");
            // the ideal scratchpad never misses
            assert_eq!(session.replay_corpus("fir").unwrap().result.misses, 0);
        }
    }

    #[test]
    fn tune_searches_under_the_request_template() {
        use ccache_opt::{GeometrySearch, StrategyKind};
        let geometry = ccache_exp::GeometrySpec {
            capacity: 4096,
            columns: 8,
            ..ccache_exp::GeometrySpec::default()
        };
        let session = Session::builder()
            .quick(true)
            .geometry(geometry)
            .build()
            .unwrap();
        let request = ccache_opt::TuneRequest {
            template: *session.config(),
            geometry: GeometrySearch::fixed(),
            strategy: StrategyKind::HillClimb,
            budget: 4,
            ..ccache_opt::TuneRequest::default()
        };
        let run = ccache_workloads::corpus("fir", session.quick()).unwrap();
        let outcome = session.tune(&run.trace, &run.symbols, &request).unwrap();
        // the request's template, here the session's geometry, drove the search
        assert_eq!(outcome.best_config.capacity_bytes, 4096);
        assert_eq!(outcome.best_config.columns, 8);
    }

    #[test]
    fn spec_keys_address_byte_identical_artefacts() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "k", "replay": [{"workloads": ["fir"], "policies": ["shared"]}]}"#,
        )
        .unwrap();
        let (k1, b1) = Session::builder()
            .quick(true)
            .build()
            .unwrap()
            .run_spec_bytes(&spec)
            .unwrap();
        let (k2, b2) = Session::builder()
            .quick(true)
            .build()
            .unwrap()
            .run_spec_bytes(&spec)
            .unwrap();
        assert_eq!(k1, k2, "equal sessions must agree on the memo key");
        assert_eq!(b1, b2, "equal keys must address byte-identical artefacts");
        // Knobs that change artefact bytes must change the key too.
        let observing = Session::builder().quick(true).observe(256).build().unwrap();
        assert_ne!(observing.spec_key(&spec), k1);
        let full = Session::builder().quick(false).build().unwrap();
        assert_ne!(full.spec_key(&spec), k1);
    }

    #[test]
    fn sessions_run_experiment_specs_with_observation() {
        let spec = r#"{"name": "t", "replay": [{"workloads": ["fir"],
                       "policies": ["shared", "heuristic"], "label": "policy"}]}"#;
        let plain = Session::builder().quick(true).build().unwrap();
        let observing = Session::builder().quick(true).observe(512).build().unwrap();
        let spec = ExperimentSpec::parse_str(spec).unwrap();
        let a = plain.run_spec(&spec).unwrap();
        let b = observing.run_spec(&spec).unwrap();
        assert_eq!(a.outcomes.len(), 2);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            let (
                ccache_exp::JobOutcome::Replay {
                    result: rx,
                    series: sx,
                    ..
                },
                ccache_exp::JobOutcome::Replay {
                    result: ry,
                    series: sy,
                    ..
                },
            ) = (x, y)
            else {
                panic!("expected replay outcomes");
            };
            assert_eq!(rx, ry);
            assert!(sx.is_none());
            let series = sy.as_ref().unwrap();
            assert_eq!(series.total_references(), ry.references);
        }
    }
}
