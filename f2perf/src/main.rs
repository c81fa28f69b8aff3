//! `f2perf` — the end-to-end benchmark of the flagship2 stack.
//!
//! ```text
//! f2perf --workload <paper_suite|campaign_sweep|serve_mixed> --seed <n>
//!        --seconds <s> --trace <0|1> [--inject-fault]
//! ```
//!
//! Run it from the repository root (it reads `tests/golden` and writes its
//! temporary files under `.f2perf_tmp/`). With `--trace 0` it times the
//! workload with tracing off and reports the end-to-end metrics; with
//! `--trace 1` it runs every workload's layer probes and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--inject-fault`
//! corrupts a share of the observed results before they are checked, to
//! show that the checks count them as failures. See `README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod paper;
mod serve;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use f2_core::json::{Json, ToJson};
use f2_core::rng::Rng;
use stats::Metrics;

/// Set-ups per run; `setup_s` is their median. Each timed run is split
/// into this many segments, each a fresh set-up followed by its share of
/// the timed ops, so the set-ups sample the same stretch of time as the
/// ops do.
pub const SETUPS: usize = 9;

/// The benchmark's workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSuite,
    CampaignSweep,
    ServeMixed,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper_suite", Workload::PaperSuite),
    ("campaign_sweep", Workload::CampaignSweep),
    ("serve_mixed", Workload::ServeMixed),
];

/// The end-to-end metrics, with their units, in reporting order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// What every workload needs from the command line.
pub struct Ctx {
    /// The workload seed; every generated input derives from it.
    pub seed: u64,
    /// Corrupt a share of the observed results before checking them.
    pub inject: bool,
    /// A private directory for the workload's files, removed at exit.
    pub dir: PathBuf,
}

impl Ctx {
    /// A 53-bit seed derived from the workload seed (53 bits keep it a
    /// plain JSON number in scenario documents).
    pub fn derive(&self, label: &str) -> u64 {
        f2_core::rng::rng_for(self.seed, label).gen_u64() >> 11
    }

    /// Whether op `i` gets a corrupted result under `--inject-fault`.
    pub fn corrupt(&self, i: usize) -> bool {
        self.inject && i % 5 == 1
    }
}

/// Op counts and correctness of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose request failed or whose output was wrong.
    pub failed: u64,
    /// Failed set-up or whole-run checks (not ops).
    pub run_failures: u64,
    /// The first few problems, for the log.
    notes: Vec<String>,
}

impl Checks {
    fn note(&mut self, problem: String) {
        if self.notes.len() < 8 {
            self.notes.push(problem);
        }
    }

    /// Counts one op and its check.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.note(e);
        }
    }

    /// Records a set-up or whole-run check.
    pub fn run(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.run_failures += 1;
            self.note(e);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.run_failures == 0
    }
}

/// The result of a timed (untraced) workload run.
pub struct Timed {
    /// Seconds per set-up, [`SETUPS`] of them.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, milliseconds.
    pub op_ms: Vec<f64>,
    /// Units of useful work one op completes (experiments, scenarios or
    /// hit requests).
    pub work_per_op: f64,
    /// The timed window, seconds: the sum of the segments, set-ups
    /// excluded.
    pub window_s: f64,
}

/// A duration in (fractional) milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn end_to_end(t: &Timed) -> Result<Metrics, String> {
    let tail = stats::tail(&t.op_ms).ok_or_else(|| {
        format!(
            "{} timed op(s) is too few for a tail percentile; raise --seconds",
            t.op_ms.len()
        )
    })?;
    eprintln!(
        "f2perf: {} ops in {:.3} s; op_ms.tail is p{:.2} of {} samples",
        t.op_ms.len(),
        t.window_s,
        tail.pct,
        tail.samples
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", stats::percentile(&t.op_ms, 10.0 * d as f64)))
        .collect();
    eprintln!(
        "f2perf: op_ms deciles {}; setup_s {:.3?}",
        deciles.join(" "),
        t.setup_s
    );
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&t.setup_s), "s");
    m.put(
        "ops_per_s",
        t.work_per_op * t.op_ms.len() as f64 / t.window_s,
        "1/s",
    );
    m.put("op_ms.p50", stats::median(&t.op_ms), "ms");
    m.put("op_ms.tail", tail.value, "ms");
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(m)
}

/// Every per-layer metric a traced run reports, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all = paper::per_layer();
    all.extend(sweep::per_layer());
    all.extend(serve::per_layer());
    all
}

/// The traced run: every workload's layer probes, the named workload
/// taking half of the time and the other two a quarter each.
fn traced(
    primary: Workload,
    ctx: &Ctx,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    for (_, w) in WORKLOADS {
        let share = if w == primary { 0.5 } else { 0.25 };
        let budget = seconds * share;
        match w {
            Workload::PaperSuite => paper::traced(ctx, budget, checks, &mut m)?,
            Workload::CampaignSweep => sweep::traced(ctx, budget, checks, &mut m)?,
            Workload::ServeMixed => serve::traced(ctx, budget, checks, &mut m)?,
        }
    }
    // Every traced run reports exactly the declared metrics, in order.
    let want = per_layer();
    if !m.layout().eq(want.iter().map(|(n, u)| (n.as_str(), *u))) {
        return Err(format!(
            "per-layer metrics out of sync with the declared list: reported {:?}",
            m.layout().collect::<Vec<_>>()
        ));
    }
    Ok(m)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: bool,
}

const USAGE: &str = "usage: f2perf --workload <paper_suite|campaign_sweep|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--inject-fault]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut inject) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--inject-fault" {
            inject = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|(n, _)| *n == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?.1);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(|| format!("bad --seconds `{value}`"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        inject,
    })
}

/// Removes the workload's private directory when the run ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared by concurrent runs; remove it only if empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<(Checks, Metrics), String> {
    let name = WORKLOADS
        .iter()
        .find(|(_, w)| *w == args.workload)
        .map(|(n, _)| *n)
        .expect("every workload is named");
    let dir = PathBuf::from(".f2perf_tmp").join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let _guard = DirGuard(dir.clone());
    let ctx = Ctx {
        seed: args.seed,
        inject: args.inject,
        dir,
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(args.workload, &ctx, args.seconds, &mut checks)?
    } else {
        let timed = match args.workload {
            Workload::PaperSuite => paper::timed(&ctx, args.seconds, started, &mut checks)?,
            Workload::CampaignSweep => sweep::timed(&ctx, args.seconds, started, &mut checks)?,
            Workload::ServeMixed => serve::timed(&ctx, args.seconds, started, &mut checks)?,
        };
        end_to_end(&timed)?
    };
    Ok((checks, metrics))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("f2perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (checks, metrics) = match run(&args, started) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("f2perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &checks.notes {
        eprintln!("f2perf: check failed: {note}");
    }
    let result = Json::Obj(vec![
        ("correct".to_string(), checks.correct().to_json()),
        ("attempted".to_string(), checks.attempted.to_json()),
        ("failed".to_string(), checks.failed.to_json()),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    println!("{}", result.encode());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads `BENCHMARK.json` declares. `serve_mixed` runs by hand
    /// only: its hit latency did not hold steady from run to run (see
    /// `README.md`); its layer probes still run in every traced run.
    const DECLARED: [&str; 2] = ["paper_suite", "campaign_sweep"];

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string member")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, DECLARED);
        assert!(DECLARED
            .iter()
            .all(|d| WORKLOADS.iter().any(|(n, _)| n == d)));
    }

    #[test]
    fn every_metric_name_uses_the_charset() {
        for (name, _) in END_TO_END {
            assert!(stats::valid_name(name), "{name}");
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for (name, _) in &layers {
            assert!(stats::valid_name(name), "{name}");
        }
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv(
            "--workload serve_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.inject),
            (7, 10.0, true, false)
        );
        assert!(parse_args(argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(argv(
            "--workload paper_suite --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(argv(
            "--workload paper_suite --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(argv("--workload paper_suite --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn derived_seeds_fit_json_numbers() {
        let ctx = Ctx {
            seed: u64::MAX,
            inject: false,
            dir: PathBuf::new(),
        };
        assert!(ctx.derive("x") < 1 << 53);
        assert_eq!(ctx.derive("x"), ctx.derive("x"));
        assert_ne!(ctx.derive("x"), ctx.derive("y"));
    }
}
