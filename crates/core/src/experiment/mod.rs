//! The unified experiment harness behind the `f2` runner.
//!
//! The paper's integrative claim is that all five Flagship 2 thrusts share
//! one evaluation methodology — common workloads, KPIs and design-space
//! sweeps. This module is that methodology as code: every reproduced table
//! and figure (E1–E13) implements the [`Experiment`] trait, registers itself
//! in a [`Registry`], and runs under a single [`ExperimentCtx`] that owns
//! the seeded RNG, the thread budget, the quick/full fidelity knob and a
//! structured sink for tables, notes and numeric KPIs.
//!
//! The KPI stream is what makes the harness *instrumentable*: every
//! experiment returns an [`ExperimentReport`] whose [`Kpi`] records are
//! serialisable ([`ToJson`]), diffable against golden snapshots
//! ([`golden`]), and uniform across thrusts.
//!
//! ```
//! use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport};
//!
//! struct Demo;
//! impl Experiment for Demo {
//!     fn name(&self) -> &'static str { "demo" }
//!     fn summary(&self) -> &'static str { "two times two" }
//!     fn tags(&self) -> &'static [&'static str] { &["smoke"] }
//!     fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
//!         ctx.kpi("product", 2.0 * 2.0);
//!         Ok(ctx.report(self.name()))
//!     }
//! }
//!
//! let mut ctx = ExperimentCtx::quiet_scenario(&Default::default());
//! let report = Demo.run(&mut ctx).unwrap();
//! assert_eq!(report.kpis[0].value, 4.0);
//! ```

pub mod catalog;
pub mod golden;
pub mod render;

use crate::json::{Json, ToJson};
use crate::rng::ChaCha8Rng;
use crate::scenario::{ParamValue, Scenario};
use crate::{CoreError, Result};
use std::fmt::Display;

/// Default relative tolerance applied to a [`Kpi`] when the experiment does
/// not specify one. Loose enough to absorb cross-platform libm differences,
/// tight enough that any modelling change trips the golden gate.
pub const DEFAULT_KPI_TOL: f64 = 1e-6;

/// One named scalar result of an experiment, with the relative tolerance the
/// golden comparator applies when diffing it against a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Kpi {
    /// Stable KPI identifier, unique within its experiment
    /// (e.g. `"bert/gflops"`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Relative tolerance for snapshot comparison (see [`golden::compare`]).
    pub tol: f64,
}

crate::impl_to_json!(Kpi { name, value, tol });

/// The uniform result of running one experiment: its name plus the ordered
/// KPI stream it emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Name of the experiment that produced the report.
    pub experiment: String,
    /// KPIs in emission order.
    pub kpis: Vec<Kpi>,
}

crate::impl_to_json!(ExperimentReport { experiment, kpis });

impl ExperimentReport {
    /// Looks up a KPI value by name.
    pub fn kpi(&self, name: &str) -> Option<f64> {
        self.kpis.iter().find(|k| k.name == name).map(|k| k.value)
    }

    /// Reconstructs a report from the JSON emitted by
    /// [`ToJson::to_json`] on a report (the `f2 run --json` line format).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(doc: &Json) -> std::result::Result<Self, String> {
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("missing `experiment` member")?
            .to_string();
        let kpis = doc
            .get("kpis")
            .and_then(Json::as_array)
            .ok_or("missing `kpis` array")?
            .iter()
            .map(|k| {
                Ok(Kpi {
                    name: k
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("KPI missing `name`")?
                        .to_string(),
                    value: k
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or("KPI missing `value`")?,
                    tol: k
                        .get("tol")
                        .and_then(Json::as_f64)
                        .unwrap_or(DEFAULT_KPI_TOL),
                })
            })
            .collect::<std::result::Result<Vec<_>, String>>()?;
        Ok(Self { experiment, kpis })
    }
}

/// Where the human-readable output of an [`ExperimentCtx`] goes.
enum Output {
    /// Print to stdout as the experiment runs (the runner default).
    Stdout,
    /// Accumulate into a buffer (tests, quiet CI comparisons).
    Buffer(String),
}

/// Execution context handed to every experiment: the single owner of
/// randomness, parallelism, fidelity and output.
///
/// Experiments must derive all randomness via [`ExperimentCtx::rng_for`],
/// run sweeps through the shared executor pool ([`ExperimentCtx::exec`]
/// returns a [`crate::exec::Pool`] — `ctx.exec().map(items, f)`), honour
/// [`ExperimentCtx::quick`] by shrinking problem sizes (not skipping
/// claims), and report results through the sink methods
/// ([`ExperimentCtx::section`] / [`ExperimentCtx::table`] /
/// [`ExperimentCtx::note`] / [`ExperimentCtx::kpi`]) instead of `println!`.
///
/// The pool is resolved **once**, when the context is built — experiments
/// never re-read `F2_THREADS` per parallel call, and every sweep in a run
/// shares one scheduling policy.
pub struct ExperimentCtx {
    scenario: Scenario,
    pool: crate::exec::Pool,
    output: Output,
    kpis: Vec<Kpi>,
    records: Vec<(String, Json)>,
    /// Open trace span for the current section (auto-closed when the next
    /// section starts or the report is drained).
    section_span: Option<crate::trace::SpanGuard>,
}

impl ExperimentCtx {
    /// A context for the given scenario that prints tables and notes to
    /// stdout as they are emitted, on a one-thread executor pool (widen it
    /// with [`ExperimentCtx::with_threads`]).
    pub fn from_scenario(scenario: &Scenario) -> Self {
        Self {
            scenario: scenario.clone(),
            pool: crate::exec::Pool::new(1),
            output: Output::Stdout,
            kpis: Vec::new(),
            records: Vec::new(),
            section_span: None,
        }
    }

    /// A scenario context that buffers human-readable output instead of
    /// printing it (retrieve it with [`ExperimentCtx::rendered`]).
    pub fn quiet_scenario(scenario: &Scenario) -> Self {
        let mut ctx = Self::from_scenario(scenario);
        ctx.output = Output::Buffer(String::new());
        ctx
    }

    /// Resizes the executor pool to `threads` workers. Reports are
    /// bit-identical at any worker count, so this changes only how fast
    /// the run completes, never what it reports.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = crate::exec::Pool::with_min_chunk(threads, self.pool.min_chunk());
        self
    }

    /// The scenario this context runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The global experiment seed.
    pub fn seed(&self) -> u64 {
        self.scenario.seed
    }

    /// True when the run should trade fidelity for speed (CI smoke runs,
    /// golden snapshot tests). Quick mode must preserve every claim shape —
    /// only problem sizes shrink.
    pub fn quick(&self) -> bool {
        self.scenario.fidelity.is_quick()
    }

    /// Reads an integer-valued scenario param, falling back to `default`
    /// when the scenario does not override it. Experiments must pass the
    /// exact value they previously hard-coded as the default so the
    /// default scenario stays bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the scenario sets the param to a string or to a number
    /// that is not a non-negative integer representable in 53 bits — an
    /// override that silently truncated would corrupt the sweep.
    pub fn param_u64(&self, name: &str, default: u64) -> u64 {
        match self.scenario.param(name) {
            None => default,
            Some(ParamValue::Num(v))
                if v.is_finite() && *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) =>
            {
                *v as u64
            }
            Some(other) => panic!("param `{name}` must be a non-negative integer, got {other:?}"),
        }
    }

    /// Reads a numeric scenario param, falling back to `default`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario sets the param to a string.
    pub fn param_f64(&self, name: &str, default: f64) -> f64 {
        match self.scenario.param(name) {
            None => default,
            Some(ParamValue::Num(v)) => *v,
            Some(other) => panic!("param `{name}` must be a number, got {other:?}"),
        }
    }

    /// Reads a string scenario param, falling back to `default`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario sets the param to a number.
    pub fn param_str(&self, name: &str, default: &str) -> String {
        match self.scenario.param(name) {
            None => default.to_string(),
            Some(ParamValue::Str(s)) => s.clone(),
            Some(other) => panic!("param `{name}` must be a string, got {other:?}"),
        }
    }

    /// The worker-thread budget of the shared executor pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Derives the deterministic RNG stream for `label`, scoped to the run's
    /// seed. Same seed + same label = bit-identical stream.
    pub fn rng_for(&self, label: &str) -> ChaCha8Rng {
        crate::rng::rng_for(self.scenario.seed, label)
    }

    /// The run's shared work-stealing executor ([`crate::exec::Pool`]),
    /// resolved once at context construction. Use it for every parallel
    /// region: `ctx.exec().map(items, f)` for ordered data-parallel maps,
    /// `for_each` for side-effecting loops, `scope` for indexed task
    /// fan-out — all with bit-identical, input-ordered results at any
    /// worker count.
    pub fn exec(&self) -> &crate::exec::Pool {
        &self.pool
    }

    fn emit(&mut self, text: &str) {
        match &mut self.output {
            Output::Stdout => println!("{text}"),
            Output::Buffer(buf) => {
                buf.push_str(text);
                buf.push('\n');
            }
        }
    }

    /// Emits a section heading. Under a live [`crate::trace`] session the
    /// section is also wrapped in a `section:<title>` span, closed when the
    /// next section starts (or at [`ExperimentCtx::report`]).
    pub fn section(&mut self, title: &str) {
        self.section_span = None; // close the previous section's span first
        let text = render::section_heading(title);
        self.emit(&text);
        self.section_span = Some(crate::trace::span(&format!("section:{title}")));
    }

    /// Opens a trace span named `label`; it closes when the returned guard
    /// drops. A no-op unless a [`crate::trace`] session is live. Use around
    /// an experiment's dominant phases (sweep, simulate, decode, evaluate).
    pub fn span(&self, label: &str) -> crate::trace::SpanGuard {
        crate::trace::span(label)
    }

    /// Increments the named trace counter by one (no-op when tracing is
    /// off). See [`ExperimentCtx::counter_add`] for arbitrary deltas.
    pub fn counter(&self, name: &str) {
        crate::trace::counter(name, 1);
    }

    /// Adds `delta` to the named trace counter (no-op when tracing is off).
    pub fn counter_add(&self, name: &str, delta: u64) {
        crate::trace::counter(name, delta);
    }

    /// Emits an aligned ASCII table.
    ///
    /// # Panics
    ///
    /// Panics if a row's arity differs from the header's.
    pub fn table<S: Display>(&mut self, headers: &[&str], rows: &[Vec<S>]) {
        let text = render::table_string(headers, rows);
        self.emit(text.trim_end_matches('\n'));
    }

    /// Emits a free-form note line.
    pub fn note(&mut self, text: &str) {
        self.emit(text);
    }

    /// Records a KPI with the default tolerance ([`DEFAULT_KPI_TOL`]).
    ///
    /// # Panics
    ///
    /// Panics if the KPI name repeats within the run or the value is not
    /// finite — golden snapshots need unique names and diffable numbers.
    pub fn kpi(&mut self, name: &str, value: f64) {
        self.kpi_tol(name, value, DEFAULT_KPI_TOL);
    }

    /// Records a KPI with an explicit relative tolerance for the golden
    /// comparator (use for KPIs with legitimate run-to-run slack).
    ///
    /// # Panics
    ///
    /// See [`ExperimentCtx::kpi`].
    pub fn kpi_tol(&mut self, name: &str, value: f64, tol: f64) {
        assert!(
            self.kpis.iter().all(|k| k.name != name),
            "duplicate KPI `{name}`"
        );
        assert!(
            value.is_finite(),
            "KPI `{name}` must be finite, got {value}"
        );
        assert!(tol >= 0.0, "KPI `{name}` tolerance must be non-negative");
        self.kpis.push(Kpi {
            name: name.to_string(),
            value,
            tol,
        });
    }

    /// Attaches a labelled structured record (any [`ToJson`] report type) to
    /// the run; the runner emits these as JSON lines in `--json` mode.
    pub fn record(&mut self, label: &str, value: &impl ToJson) {
        self.records.push((label.to_string(), value.to_json()));
    }

    /// Labelled structured records attached so far.
    pub fn records(&self) -> &[(String, Json)] {
        &self.records
    }

    /// The buffered human-readable output (empty for stdout contexts).
    pub fn rendered(&self) -> &str {
        match &self.output {
            Output::Stdout => "",
            Output::Buffer(buf) => buf,
        }
    }

    /// Drains the collected KPIs into the experiment's report. Call exactly
    /// once, at the end of [`Experiment::run`].
    pub fn report(&mut self, experiment: &str) -> ExperimentReport {
        self.section_span = None; // close the trailing section's span
        ExperimentReport {
            experiment: experiment.to_string(),
            kpis: std::mem::take(&mut self.kpis),
        }
    }
}

/// The value kind of one declared experiment param.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Non-negative integer (read via [`ExperimentCtx::param_u64`]).
    U64,
    /// Finite number (read via [`ExperimentCtx::param_f64`]).
    F64,
    /// String (read via [`ExperimentCtx::param_str`]).
    Str,
}

impl ParamKind {
    /// The lowercase name used in `f2 list --json` and docs.
    pub fn label(self) -> &'static str {
        match self {
            ParamKind::U64 => "u64",
            ParamKind::F64 => "f64",
            ParamKind::Str => "str",
        }
    }
}

/// One tunable dimension an experiment declares: the contract between
/// `ctx.param_*` reads inside [`Experiment::run`] and the scenario params
/// the runner, server and campaign expander accept for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Param name as read by `ctx.param_*`.
    pub name: &'static str,
    /// Expected value kind.
    pub kind: ParamKind,
    /// One-line description, including the quick/full defaults.
    pub help: &'static str,
}

impl ParamSpec {
    /// A `u64` param spec.
    pub const fn u64(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            kind: ParamKind::U64,
            help,
        }
    }

    /// An `f64` param spec.
    pub const fn f64(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            kind: ParamKind::F64,
            help,
        }
    }

    /// A string param spec.
    pub const fn str(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            kind: ParamKind::Str,
            help,
        }
    }
}

/// One reproduced experiment (a table or figure of the paper, or a
/// registered auxiliary suite such as the kernel micro-benches).
pub trait Experiment: Sync + Send {
    /// Stable identifier used by `f2 run <name>` and the golden snapshot
    /// file name.
    fn name(&self) -> &'static str;

    /// One-line description shown by `f2 list`.
    fn summary(&self) -> &'static str;

    /// Selector tags (`f2 run <tag>` runs every experiment carrying it).
    /// Conventionally the thrust (`"imc"`, `"scf"`, …) plus the paper
    /// experiment id (`"e4"`).
    fn tags(&self) -> &'static [&'static str];

    /// The tunable dimensions this experiment reads via `ctx.param_*`.
    /// Scenario params outside this list are rejected by the runner and
    /// the server before the experiment runs. Default: no params.
    fn params(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Runs the experiment against `ctx` and returns its KPI report
    /// (normally `Ok(ctx.report(self.name()))`).
    ///
    /// # Errors
    ///
    /// Returns an error if the experiment's model rejects its own
    /// configuration — a bug, surfaced loudly by the runner.
    fn run(&self, ctx: &mut ExperimentCtx) -> Result<ExperimentReport>;
}

/// The experiment inventory: what `f2 list` prints and `f2 run` selects
/// from.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one experiment.
    ///
    /// # Panics
    ///
    /// Panics if the name collides with an already-registered experiment —
    /// names are the snapshot/selector namespace and must be unique.
    pub fn register(&mut self, experiment: Box<dyn Experiment>) {
        assert!(
            self.entries.iter().all(|e| e.name() != experiment.name()),
            "duplicate experiment `{}`",
            experiment.name()
        );
        self.entries.push(experiment);
    }

    /// Adds a batch of experiments (a thrust crate's `experiments()`).
    ///
    /// # Panics
    ///
    /// Panics on any duplicate name.
    pub fn extend(&mut self, experiments: Vec<Box<dyn Experiment>>) {
        for e in experiments {
            self.register(e);
        }
    }

    /// All registered experiments in registration order.
    pub fn entries(&self) -> &[Box<dyn Experiment>] {
        &self.entries
    }

    /// Looks up an experiment by exact name.
    pub fn find(&self, name: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.name() == name)
            .map(|e| e.as_ref())
    }

    /// Resolves a selector to experiments: `"all"`, an exact name, or a tag
    /// (in that priority order).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the selector matches
    /// nothing.
    pub fn select(&self, selector: &str) -> Result<Vec<&dyn Experiment>> {
        if selector == "all" {
            return Ok(self.entries.iter().map(|e| e.as_ref()).collect());
        }
        if let Some(e) = self.find(selector) {
            return Ok(vec![e]);
        }
        let tagged: Vec<&dyn Experiment> = self
            .entries
            .iter()
            .filter(|e| e.tags().contains(&selector))
            .map(|e| e.as_ref())
            .collect();
        if tagged.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "selector".to_string(),
                reason: format!("`{selector}` matches no experiment name or tag"),
            });
        }
        Ok(tagged)
    }

    /// The sorted union of every registered tag.
    pub fn tags(&self) -> Vec<&'static str> {
        let mut tags: Vec<&'static str> = self
            .entries
            .iter()
            .flat_map(|e| e.tags().iter().copied())
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Fidelity;

    struct Dummy {
        name: &'static str,
        tags: &'static [&'static str],
    }

    impl Experiment for Dummy {
        fn name(&self) -> &'static str {
            self.name
        }
        fn summary(&self) -> &'static str {
            "dummy"
        }
        fn tags(&self) -> &'static [&'static str] {
            self.tags
        }
        fn run(&self, ctx: &mut ExperimentCtx) -> Result<ExperimentReport> {
            ctx.kpi("answer", 42.0);
            ctx.note("ran");
            Ok(ctx.report(self.name()))
        }
    }

    fn two_entry_registry() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(Dummy {
            name: "a",
            tags: &["x", "shared"],
        }));
        r.register(Box::new(Dummy {
            name: "b",
            tags: &["y", "shared"],
        }));
        r
    }

    #[test]
    fn ctx_collects_kpis_and_output() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::new(7, Fidelity::Full));
        ctx.section("demo");
        ctx.table(&["k", "v"], &[vec!["a".to_string(), "1".to_string()]]);
        ctx.note("done");
        ctx.kpi("x", 1.5);
        ctx.kpi_tol("y", 2.0, 0.1);
        let report = ctx.report("t");
        assert_eq!(report.kpi("x"), Some(1.5));
        assert_eq!(report.kpis[1].tol, 0.1);
        assert!(ctx.rendered().contains("=== demo ==="));
        assert!(ctx.rendered().contains("done"));
    }

    #[test]
    #[should_panic(expected = "duplicate KPI")]
    fn duplicate_kpi_rejected() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        ctx.kpi("x", 1.0);
        ctx.kpi("x", 2.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_kpi_rejected() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        ctx.kpi("x", f64::NAN);
    }

    #[test]
    fn ctx_rng_is_deterministic() {
        use crate::rng::Rng;
        let ctx = ExperimentCtx::quiet_scenario(&Scenario::new(11, Fidelity::Full));
        let a: u64 = ctx.rng_for("stream").gen();
        let b: u64 = ctx.rng_for("stream").gen();
        let c: u64 = ctx.rng_for("other").gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ctx_exec_pool_matches_sequential() {
        let ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        assert_eq!(ctx.threads(), 1, "scenario contexts start on one thread");
        let ctx = ctx.with_threads(3);
        assert_eq!(ctx.exec().threads(), 3);
        assert_eq!(ctx.threads(), 3);
        let items: Vec<u64> = (0..17).collect();
        assert_eq!(
            ctx.exec().map(&items, |&x| x * x),
            items.iter().map(|&x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ctx_reads_scenario_params_with_defaults() {
        let scenario = Scenario::new(3, Fidelity::Quick)
            .with_param("cells", ParamValue::Num(800.0))
            .with_param("scale", ParamValue::Num(0.5))
            .with_param("pattern", ParamValue::Str("diag".into()));
        let ctx = ExperimentCtx::quiet_scenario(&scenario);
        assert_eq!(ctx.seed(), 3);
        assert!(ctx.quick());
        assert_eq!(ctx.scenario(), &scenario);
        assert_eq!(ctx.param_u64("cells", 500), 800);
        assert_eq!(ctx.param_u64("absent", 500), 500);
        assert_eq!(ctx.param_f64("scale", 1.0), 0.5);
        assert_eq!(ctx.param_f64("absent", 1.0), 1.0);
        assert_eq!(ctx.param_str("pattern", "dense"), "diag");
        assert_eq!(ctx.param_str("absent", "dense"), "dense");
    }

    #[test]
    #[should_panic(expected = "must be a non-negative integer")]
    fn fractional_u64_param_rejected() {
        let s = Scenario::default().with_param("n", ParamValue::Num(1.5));
        let _ = ExperimentCtx::quiet_scenario(&s).param_u64("n", 1);
    }

    #[test]
    #[should_panic(expected = "must be a number")]
    fn string_for_f64_param_rejected() {
        let s = Scenario::default().with_param("x", ParamValue::Str("nope".into()));
        let _ = ExperimentCtx::quiet_scenario(&s).param_f64("x", 1.0);
    }

    #[test]
    #[should_panic(expected = "must be a string")]
    fn number_for_str_param_rejected() {
        let s = Scenario::default().with_param("x", ParamValue::Num(1.0));
        let _ = ExperimentCtx::quiet_scenario(&s).param_str("x", "dense");
    }

    #[test]
    fn param_specs_describe_their_kind() {
        let spec = ParamSpec::u64("cells", "crossbar cells (quick 500, full 2000)");
        assert_eq!(spec.kind.label(), "u64");
        assert_eq!(ParamSpec::f64("s", "h").kind, ParamKind::F64);
        assert_eq!(ParamSpec::str("p", "h").kind, ParamKind::Str);
        // The trait default declares no params.
        assert!(Dummy {
            name: "a",
            tags: &[]
        }
        .params()
        .is_empty());
    }

    #[test]
    fn registry_select_by_name_tag_all() {
        let r = two_entry_registry();
        assert_eq!(r.select("a").unwrap().len(), 1);
        assert_eq!(r.select("shared").unwrap().len(), 2);
        assert_eq!(r.select("all").unwrap().len(), 2);
        assert!(r.select("nope").is_err());
        assert_eq!(r.tags(), vec!["shared", "x", "y"]);
    }

    #[test]
    #[should_panic(expected = "duplicate experiment")]
    fn registry_rejects_duplicate_names() {
        let mut r = two_entry_registry();
        r.register(Box::new(Dummy {
            name: "a",
            tags: &[],
        }));
    }

    #[test]
    fn ctx_sections_and_spans_are_traced() {
        let session = crate::trace::session();
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        ctx.section("alpha");
        {
            let _inner = ctx.span("inner");
        }
        ctx.section("beta"); // closes section:alpha
        ctx.counter("demo.events");
        ctx.counter_add("demo.events", 2);
        let _ = ctx.report("t"); // closes section:beta
        let report = session.finish();
        assert_eq!(report.span_count("section:alpha"), 1);
        assert_eq!(report.span_count("section:beta"), 1);
        assert_eq!(report.span_count("inner"), 1);
        assert_eq!(report.counter("demo.events"), 3);
        let alpha = report
            .spans
            .iter()
            .find(|s| s.name == "section:alpha")
            .unwrap();
        let inner = report.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(alpha.id));
    }

    #[test]
    fn report_json_round_trip() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        ctx.kpi("alpha", 0.25);
        ctx.kpi_tol("beta", -3.0, 0.05);
        let report = ctx.report("rt");
        let doc = Json::parse(&report.to_json().encode()).expect("well-formed");
        let back = ExperimentReport::from_json(&doc).expect("parses");
        assert_eq!(back, report);
    }
}
