//! Implementation of the `f2` command-line runner.
//!
//! One binary drives every experiment in the registry:
//!
//! ```text
//! f2 list [--json]                 # inventory: names, tags, summaries, params
//! f2 run <name|tag|all> [flags]    # run a selection
//! f2 check [--golden <dir>]        # compare `--json` lines on stdin to snapshots
//! f2 campaign <manifest.json>      # expand a manifest and sweep scenarios
//! ```
//!
//! `run` builds a [`Scenario`] — the first-class run configuration of
//! seed, fidelity and per-experiment params — from its flags: `--quick`
//! (reduced problem sizes, the fidelity the golden snapshots pin),
//! `--seed N`, `--param key=value` (a tunable dimension the selected
//! experiments declare; repeatable) and `--scenario <file.json>` (replace
//! the whole scenario with a JSON document; later flags still override
//! its members). `--threads N` sizes the executor pool, which changes
//! only the run time, never a report. Output flags: `--json`
//! (machine-readable lines instead of tables), `--trace <out.json>`
//! (Chrome/Perfetto trace of the run) and `--metrics` (trace summary
//! appended to the output). `F2_TRACE` switches `--trace` on
//! (`F2_TRACE=1` writes `f2-trace.json`, any other truthy value is used
//! as the output path).
//!
//! `check` closes the CI loop as a plain UNIX pipe, and `check-trace`
//! validates a trace file the same way CI does:
//!
//! ```text
//! f2 run all --quick --json | f2 check
//! f2 run all --quick --trace /tmp/trace.json
//! f2 check-trace /tmp/trace.json --require-experiments
//! ```

use std::io::BufRead;
use std::path::PathBuf;

use f2_core::experiment::{golden, ExperimentCtx, ExperimentReport, Registry};
use f2_core::json::{Json, ToJson};
use f2_core::scenario::{Fidelity, ParamValue, Scenario};

/// Environment variable enabling `--trace` without a flag: truthy values
/// switch tracing on; anything that is not `1`/`true` is the output path.
pub const TRACE_ENV: &str = "F2_TRACE";

/// Resolves [`TRACE_ENV`] to a trace output path, honouring the workspace
/// truthiness rule (empty, `0` and `false` mean off).
fn trace_env_path() -> Option<PathBuf> {
    let raw = std::env::var(TRACE_ENV).ok()?;
    if !golden::env_flag_enabled(&raw) {
        return None;
    }
    let trimmed = raw.trim();
    if trimmed.eq_ignore_ascii_case("1") || trimmed.eq_ignore_ascii_case("true") {
        Some(PathBuf::from("f2-trace.json"))
    } else {
        Some(PathBuf::from(trimmed))
    }
}

/// Options of the `run` subcommand.
pub struct RunOptions {
    /// Experiment name, tag, or `all`.
    pub selector: String,
    /// Emit machine-readable JSON lines instead of human-readable tables.
    pub json: bool,
    /// The complete run configuration: seed, fidelity, params.
    pub scenario: Scenario,
    /// Worker threads of the executor pool.
    pub threads: usize,
    /// Write a Chrome trace-event JSON of the run to this path.
    pub trace: Option<PathBuf>,
    /// Append the human-readable trace summary to the run output.
    pub metrics: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            selector: "all".to_string(),
            json: false,
            scenario: Scenario::new(f2_core::rng::DEFAULT_SEED, Fidelity::Full),
            threads: f2_core::exec::num_threads(),
            trace: trace_env_path(),
            metrics: false,
        }
    }
}

/// Options of the `bench` subcommand.
pub struct BenchOptions {
    /// Reduced problem sizes (the configuration committed baselines and the
    /// CI smoke use).
    pub quick: bool,
    /// Measured samples per benchmark.
    pub samples: usize,
    /// Substring filter on `group/function` labels.
    pub filter: Option<String>,
    /// Worker threads for the pool-based kernels.
    pub threads: usize,
    /// Write the `f2-bench-v1` JSON report to this path.
    pub out: Option<PathBuf>,
    /// Write a Chrome trace-event JSON of the run (one `bench:<label>`
    /// span per kernel) to this path.
    pub trace: Option<PathBuf>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            quick: false,
            samples: f2_core::benchkit::samples_from_env(),
            filter: None,
            threads: f2_core::exec::num_threads(),
            out: None,
            trace: trace_env_path(),
        }
    }
}

/// A parsed `f2` invocation.
pub enum Command {
    /// `f2 list [--json]`
    List {
        /// Emit the inventory as one JSON document.
        json: bool,
    },
    /// `f2 run <selector> [flags]`
    Run(RunOptions),
    /// `f2 check [--golden <dir>]`
    Check {
        /// Snapshot directory (defaults to the repo's `tests/golden`).
        golden_dir: PathBuf,
    },
    /// `f2 check-trace <file> [--require-experiments] [--require-workers]
    /// [--require-scf-bb]`
    CheckTrace {
        /// Trace file written by `run --trace`.
        path: PathBuf,
        /// Demand one `experiment:<name>` span per registered experiment.
        require_experiments: bool,
        /// Demand per-worker executor spans (`exec:worker`).
        require_workers: bool,
        /// Demand the ISS block-cache counters (`scf.bb.*`).
        require_scf_bb: bool,
    },
    /// `f2 bench [flags]`
    Bench(BenchOptions),
    /// `f2 check-bench <baseline.json> [--current <file>] [--max-regress <pct>]
    /// [--min-speedup <label=factor>]...`
    CheckBench {
        /// Committed baseline report (`f2 bench --out`).
        baseline: PathBuf,
        /// Current report to compare; omitted = run the suite now with the
        /// baseline's own quick/samples/threads configuration.
        current: Option<PathBuf>,
        /// Allowed p10 slowdown per kernel, in percent.
        max_regress: f64,
        /// Labels that must have *improved*: current p10 must be at most
        /// baseline p10 divided by the factor.
        min_speedups: Vec<(String, f64)>,
    },
    /// `f2 serve [--addr HOST:PORT] [--threads N] [--shards N]
    /// [--port-file PATH]`
    Serve(f2_core::serve::ServeConfig),
    /// `f2 loadgen [flags]`
    Loadgen(crate::loadgen::LoadgenOptions),
    /// `f2 campaign <manifest.json> [flags]`
    Campaign(crate::campaign::CampaignOptions),
    /// `f2 check-log <file.jsonl>`
    CheckLog {
        /// Access log written by `serve --log`, or `/debug/recent`
        /// records re-emitted one-per-line (`loadgen --recent`).
        path: PathBuf,
    },
}

/// The repo-local default snapshot directory, resolved at compile time.
fn default_golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
Usage: f2 <command>

Commands:
  list [--json]                      list every registered experiment
  run <name|tag|all> [flags]         run a selection of experiments
      --quick                        reduced problem sizes (snapshot fidelity)
      --json                         machine-readable JSON lines
      --threads <N>                  worker threads for sweeps
      --seed <N>                     root seed (default 0xF1A65817)
      --param <key=value>            set a tunable dimension the selected
                                     experiments declare (repeatable; see
                                     `f2 list --json`)
      --scenario <file.json>         load the whole scenario from a JSON
                                     document (later flags still override)
      --trace <out.json>             write a Chrome/Perfetto trace of the run
                                     (or set F2_TRACE=<path>)
      --metrics                      append the trace summary (hot spans,
                                     counters, quantiles) to the output
  check [--golden <dir>]             verify `run --json` lines piped on stdin
                                     against the golden KPI snapshots
  check-trace <file> [flags]         validate a trace written by `run --trace`
      --require-experiments          demand one span per registered experiment
      --require-workers              demand per-worker executor spans
      --require-scf-bb               demand the ISS block-cache counters
                                     (scf.bb.hits/misses/invalidations and
                                     the scf.bb.block_len histogram)
  bench [flags]                      run the curated hot-kernel suite
      --quick                        smaller sizes (baseline/CI configuration)
      --samples <N>                  measured samples per benchmark
                                     (or set F2_BENCH_SAMPLES)
      --filter <substr>              only labels containing the substring
      --threads <N>                  worker threads for pool-based kernels
      --out <report.json>            write the f2-bench-v1 JSON report
      --trace <out.json>             write a Chrome/Perfetto trace (one
                                     bench:<label> span per kernel)
  check-bench <baseline.json> [flags]  compare against a committed baseline
      --current <report.json>        compare this report instead of running
                                     the suite now
      --max-regress <pct>            allowed p10 slowdown per kernel
                                     (default 50)
      --min-speedup <label=factor>   demand the label improved: current p10
                                     at most baseline/factor (repeatable)
  serve [flags]                      run the batched experiment service
      --addr <host:port>             bind address (default 127.0.0.1:0,
                                     port 0 = ephemeral)
      --threads <N>                  worker threads of the batch pool
      --shards <N>                   result-cache shard count (default 16)
      --port-file <path>             write the bound host:port here
      --log <file.jsonl>             append one f2-serve-log-v1 record per
                                     /run request (access/event log)
  campaign <manifest.json> [flags]   expand a scenario manifest and sweep it
      --out <report.json>            merged f2-campaign-v1 output path
                                     (default <manifest>.out.json)
      --checkpoint <file.jsonl>      per-scenario checkpoint journal
                                     (default <manifest>.checkpoint.jsonl)
      --resume                       reuse finished scenarios from the
                                     checkpoint instead of recomputing
      --threads <N>                  pool workers sweeping the campaign
      --golden <dist.json>           check the merged KPI distributions
                                     against this golden (F2_BLESS=1 writes)
      --progress <file.jsonl>        append f2-campaign-progress-v1
                                     heartbeats (done/total, throughput, ETA)
  loadgen [flags]                    drive a running server and report
                                     throughput/latency
      --addr <host:port>             server address (required in practice)
      --rps <N>                      target request rate (default 50)
      --duration <S>                 timed window in seconds (default 2)
      --connections <N>              concurrent connections (default 4)
      --mix <health|cached|sweep>    request profile (default sweep)
      --warmup <N>                   untimed cache-priming rounds
      --wait <S>                     wait for /healthz before the run
      --out <report.json>            write the f2-loadgen-v1 JSON report
      --expect-all-hits              fail on any cache miss
      --shutdown                     POST /shutdown instead of load
      --recent <file.jsonl>          after the run, scrape /debug/recent and
                                     write its records one per line
  check-log <file.jsonl>             validate an access log written by
                                     `serve --log` (one f2-serve-log-v1
                                     record per line)
";

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable description of the first problem.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing command")?;
    match cmd.as_str() {
        "list" => {
            let mut json = false;
            for a in it {
                match a.as_str() {
                    "--json" => json = true,
                    other => return Err(format!("unknown `list` flag {other}")),
                }
            }
            Ok(Command::List { json })
        }
        "run" => {
            let mut opts = RunOptions::default();
            let mut selector = None;
            // Flags apply in order, so `--scenario base.json --seed 9`
            // loads the file and then overrides its seed.
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => opts.scenario.fidelity = Fidelity::Quick,
                    "--json" => opts.json = true,
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        opts.threads = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid thread count {v}"))?;
                    }
                    "--seed" => {
                        let v = it.next().ok_or("--seed needs a value")?;
                        opts.scenario.seed =
                            v.parse::<u64>().map_err(|_| format!("invalid seed {v}"))?;
                    }
                    "--param" => {
                        let v = it.next().ok_or("--param needs key=value")?;
                        let (key, raw) = v
                            .split_once('=')
                            .filter(|(k, _)| !k.is_empty())
                            .ok_or_else(|| format!("invalid --param {v}; expected key=value"))?;
                        opts.scenario.set_param(key, ParamValue::parse(raw));
                    }
                    "--scenario" => {
                        let path = it.next().ok_or("--scenario needs a JSON file path")?;
                        let text = std::fs::read_to_string(path)
                            .map_err(|e| format!("cannot read scenario {path}: {e}"))?;
                        let doc = Json::parse(&text)
                            .map_err(|e| format!("scenario {path}: malformed JSON: {e}"))?;
                        opts.scenario = Scenario::from_json(&doc)
                            .map_err(|e| format!("scenario {path}: {e}"))?;
                    }
                    "--trace" => {
                        opts.trace = Some(PathBuf::from(
                            it.next().ok_or("--trace needs an output path")?,
                        ));
                    }
                    "--metrics" => opts.metrics = true,
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown `run` flag {flag}"));
                    }
                    name => {
                        if selector.replace(name.to_string()).is_some() {
                            return Err("multiple selectors; pass one name, tag or `all`".into());
                        }
                    }
                }
            }
            opts.selector = selector.ok_or("missing selector: a name, tag or `all`")?;
            Ok(Command::Run(opts))
        }
        "check" => {
            let mut golden_dir = default_golden_dir();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--golden" => {
                        golden_dir = PathBuf::from(it.next().ok_or("--golden needs a value")?);
                    }
                    other => return Err(format!("unknown `check` flag {other}")),
                }
            }
            Ok(Command::Check { golden_dir })
        }
        "check-trace" => {
            let mut path = None;
            let mut require_experiments = false;
            let mut require_workers = false;
            let mut require_scf_bb = false;
            for a in it {
                match a.as_str() {
                    "--require-experiments" => require_experiments = true,
                    "--require-workers" => require_workers = true,
                    "--require-scf-bb" => require_scf_bb = true,
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown `check-trace` flag {flag}"));
                    }
                    file => {
                        if path.replace(PathBuf::from(file)).is_some() {
                            return Err("multiple trace files; pass exactly one".into());
                        }
                    }
                }
            }
            Ok(Command::CheckTrace {
                path: path.ok_or("missing trace file: pass the `run --trace` output")?,
                require_experiments,
                require_workers,
                require_scf_bb,
            })
        }
        "bench" => {
            let mut opts = BenchOptions::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => opts.quick = true,
                    "--samples" => {
                        let v = it.next().ok_or("--samples needs a value")?;
                        opts.samples = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid sample count {v}"))?;
                    }
                    "--filter" => {
                        opts.filter = Some(it.next().ok_or("--filter needs a value")?.to_string());
                    }
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        opts.threads = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid thread count {v}"))?;
                    }
                    "--out" => {
                        opts.out = Some(PathBuf::from(
                            it.next().ok_or("--out needs an output path")?,
                        ));
                    }
                    "--trace" => {
                        opts.trace = Some(PathBuf::from(
                            it.next().ok_or("--trace needs an output path")?,
                        ));
                    }
                    other => return Err(format!("unknown `bench` flag {other}")),
                }
            }
            Ok(Command::Bench(opts))
        }
        "check-bench" => {
            let mut baseline = None;
            let mut current = None;
            let mut max_regress = 50.0f64;
            let mut min_speedups = Vec::new();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--current" => {
                        current = Some(PathBuf::from(
                            it.next().ok_or("--current needs a report path")?,
                        ));
                    }
                    "--max-regress" => {
                        let v = it.next().ok_or("--max-regress needs a percentage")?;
                        max_regress = v
                            .parse::<f64>()
                            .ok()
                            .filter(|p| p.is_finite() && *p >= 0.0)
                            .ok_or_else(|| format!("invalid regression bound {v}"))?;
                    }
                    "--min-speedup" => {
                        let v = it.next().ok_or("--min-speedup needs <label=factor>")?;
                        let (label, factor) = v
                            .split_once('=')
                            .ok_or_else(|| format!("--min-speedup {v}: expected label=factor"))?;
                        let factor = factor
                            .parse::<f64>()
                            .ok()
                            .filter(|f| f.is_finite() && *f >= 1.0)
                            .ok_or_else(|| format!("invalid speedup factor {factor}"))?;
                        min_speedups.push((label.to_string(), factor));
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown `check-bench` flag {flag}"));
                    }
                    file => {
                        if baseline.replace(PathBuf::from(file)).is_some() {
                            return Err("multiple baselines; pass exactly one".into());
                        }
                    }
                }
            }
            Ok(Command::CheckBench {
                baseline: baseline.ok_or("missing baseline: pass a `bench --out` report")?,
                current,
                max_regress,
                min_speedups,
            })
        }
        "serve" => {
            let mut cfg = f2_core::serve::ServeConfig::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        cfg.addr = it.next().ok_or("--addr needs host:port")?.to_string();
                    }
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        cfg.threads = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid thread count {v}"))?;
                    }
                    "--shards" => {
                        let v = it.next().ok_or("--shards needs a value")?;
                        cfg.shards = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid shard count {v}"))?;
                    }
                    "--port-file" => {
                        cfg.port_file =
                            Some(PathBuf::from(it.next().ok_or("--port-file needs a path")?));
                    }
                    "--log" => {
                        cfg.log = Some(PathBuf::from(it.next().ok_or("--log needs a path")?));
                    }
                    other => return Err(format!("unknown `serve` flag {other}")),
                }
            }
            Ok(Command::Serve(cfg))
        }
        "loadgen" => {
            let mut opts = crate::loadgen::LoadgenOptions::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        opts.addr = it.next().ok_or("--addr needs host:port")?.to_string();
                    }
                    "--rps" => {
                        let v = it.next().ok_or("--rps needs a value")?;
                        opts.rps = v
                            .parse::<f64>()
                            .ok()
                            .filter(|r| r.is_finite() && *r > 0.0)
                            .ok_or_else(|| format!("invalid request rate {v}"))?;
                    }
                    "--duration" => {
                        let v = it.next().ok_or("--duration needs seconds")?;
                        opts.duration_s = v
                            .parse::<f64>()
                            .ok()
                            .filter(|d| d.is_finite() && *d > 0.0)
                            .ok_or_else(|| format!("invalid duration {v}"))?;
                    }
                    "--connections" => {
                        let v = it.next().ok_or("--connections needs a value")?;
                        opts.connections = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid connection count {v}"))?;
                    }
                    "--mix" => {
                        opts.mix = crate::loadgen::Mix::parse(
                            it.next().ok_or("--mix needs a profile name")?,
                        )?;
                    }
                    "--warmup" => {
                        let v = it.next().ok_or("--warmup needs a round count")?;
                        opts.warmup = v
                            .parse::<usize>()
                            .map_err(|_| format!("invalid warmup rounds {v}"))?;
                    }
                    "--wait" => {
                        let v = it.next().ok_or("--wait needs seconds")?;
                        opts.wait_s = v
                            .parse::<f64>()
                            .ok()
                            .filter(|w| w.is_finite() && *w >= 0.0)
                            .ok_or_else(|| format!("invalid wait {v}"))?;
                    }
                    "--out" => {
                        opts.out = Some(PathBuf::from(
                            it.next().ok_or("--out needs an output path")?,
                        ));
                    }
                    "--expect-all-hits" => opts.expect_all_hits = true,
                    "--shutdown" => opts.shutdown = true,
                    "--recent" => {
                        opts.recent = Some(PathBuf::from(
                            it.next().ok_or("--recent needs an output path")?,
                        ));
                    }
                    other => return Err(format!("unknown `loadgen` flag {other}")),
                }
            }
            Ok(Command::Loadgen(opts))
        }
        "campaign" => {
            let mut manifest = None;
            let mut opts = crate::campaign::CampaignOptions::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => {
                        opts.out = Some(PathBuf::from(
                            it.next().ok_or("--out needs an output path")?,
                        ));
                    }
                    "--checkpoint" => {
                        opts.checkpoint =
                            Some(PathBuf::from(it.next().ok_or("--checkpoint needs a path")?));
                    }
                    "--resume" => opts.resume = true,
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        opts.threads = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid thread count {v}"))?;
                    }
                    "--golden" => {
                        opts.golden = Some(PathBuf::from(
                            it.next().ok_or("--golden needs a dist-golden path")?,
                        ));
                    }
                    "--progress" => {
                        opts.progress =
                            Some(PathBuf::from(it.next().ok_or("--progress needs a path")?));
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown `campaign` flag {flag}"));
                    }
                    file => {
                        if manifest.replace(PathBuf::from(file)).is_some() {
                            return Err("multiple manifests; pass exactly one".into());
                        }
                    }
                }
            }
            opts.manifest = manifest.ok_or("missing manifest: pass a campaign JSON file")?;
            Ok(Command::Campaign(opts))
        }
        "check-log" => {
            let mut path = None;
            for a in it {
                match a.as_str() {
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown `check-log` flag {flag}"));
                    }
                    file => {
                        if path.replace(PathBuf::from(file)).is_some() {
                            return Err("multiple log files; pass exactly one".into());
                        }
                    }
                }
            }
            Ok(Command::CheckLog {
                path: path.ok_or("missing log file: pass the `serve --log` output")?,
            })
        }
        "--help" | "-h" | "help" => Err(USAGE.to_string()),
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
}

/// Prints the experiment inventory.
pub fn list(registry: &Registry, json: bool) {
    if json {
        let entries: Vec<Json> = registry
            .entries()
            .iter()
            .map(|e| {
                let params: Vec<Json> = e
                    .params()
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".to_string(), p.name.to_json()),
                            ("kind".to_string(), p.kind.label().to_json()),
                            ("help".to_string(), p.help.to_json()),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".to_string(), e.name().to_json()),
                    ("summary".to_string(), e.summary().to_json()),
                    (
                        "tags".to_string(),
                        Json::Arr(e.tags().iter().map(|t| t.to_json()).collect()),
                    ),
                    ("params".to_string(), Json::Arr(params)),
                ])
            })
            .collect();
        println!("{}", Json::Arr(entries));
        return;
    }
    let rows: Vec<Vec<String>> = registry
        .entries()
        .iter()
        .map(|e| {
            vec![
                e.name().to_string(),
                e.tags().join(","),
                e.summary().to_string(),
            ]
        })
        .collect();
    crate::print_table(&["Experiment", "Tags", "Summary"], &rows);
    println!("\nRun one with `f2 run <name>`, a group with `f2 run <tag>`, or everything");
    println!("with `f2 run all`. Tags: {}", registry.tags().join(", "));
}

/// Runs the selected experiments; returns the process exit code.
///
/// In `--json` mode each experiment contributes its structured records
/// (`{"label": ..., "data": ...}` lines) followed by one report line
/// (`{"experiment": ..., "kpis": [...]}`).
///
/// With `--trace`/`--metrics` a [`f2_core::trace`] session wraps the whole
/// run: each experiment gets an `experiment:<name>` span (sections and
/// executor workers nest underneath), the Chrome trace goes to the
/// `--trace` path, and `--metrics` appends the summary — to stdout in
/// human mode, to stderr in `--json` mode so report pipes stay clean.
pub fn run(registry: &Registry, opts: &RunOptions) -> u8 {
    let selected = match registry.select(&opts.selector) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("f2 run: {e}");
            eprintln!("known selectors: all, an experiment name, or one of the tags");
            eprintln!("from `f2 list`");
            return 2;
        }
    };
    // Every scenario param must be a dimension at least one selected
    // experiment declares — a typo'd `--param` would otherwise run the
    // defaults silently.
    for (key, _) in opts.scenario.params() {
        let declared = selected
            .iter()
            .any(|e| e.params().iter().any(|p| p.name == key));
        if !declared {
            eprintln!(
                "f2 run: no selected experiment declares param `{key}`; \
                 see `f2 list --json`"
            );
            return 2;
        }
    }
    let session = (opts.trace.is_some() || opts.metrics).then(f2_core::trace::session);
    let mut failures = 0;
    for exp in selected {
        let _span = f2_core::trace::span(&format!("experiment:{}", exp.name()));
        let ctx = if opts.json {
            ExperimentCtx::quiet_scenario(&opts.scenario)
        } else {
            println!("\n##### {} — {}", exp.name(), exp.summary());
            ExperimentCtx::from_scenario(&opts.scenario)
        };
        let mut ctx = ctx.with_threads(opts.threads);
        match exp.run(&mut ctx) {
            Ok(report) => {
                if opts.json {
                    for (label, data) in ctx.records() {
                        let doc = Json::Obj(vec![
                            ("label".to_string(), label.to_json()),
                            ("data".to_string(), data.clone()),
                        ]);
                        println!("{doc}");
                    }
                    println!("{}", report.to_json());
                }
            }
            Err(e) => {
                eprintln!("f2 run: experiment {} failed: {e}", exp.name());
                // Invalid scenario params are a usage error, not an
                // experiment failure — surface them as exit 2 immediately,
                // matching the bad-selector and undeclared-param paths.
                if matches!(e, f2_core::CoreError::InvalidParameter { .. }) {
                    return 2;
                }
                failures += 1;
            }
        }
    }
    if let Some(session) = session {
        let trace_report = session.finish();
        if opts.metrics {
            let summary = trace_report.summary();
            if opts.json {
                eprintln!("{summary}");
            } else {
                println!("{summary}");
            }
        }
        if let Some(path) = &opts.trace {
            match std::fs::write(path, trace_report.to_chrome_json().encode()) {
                Ok(()) => eprintln!(
                    "f2 run: wrote {} span(s) to {} (open in Perfetto or chrome://tracing)",
                    trace_report.spans.len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("f2 run: cannot write trace to {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }
    u8::from(failures > 0)
}

/// Validates a Chrome trace-event file written by `run --trace`: the JSON
/// must parse, `traceEvents` must contain at least one complete
/// (`"ph":"X"`) span, and every span must carry `name`/`ts`/`dur`/`tid`.
/// `require_experiments` additionally demands one `experiment:<name>` span
/// per registry entry; `require_workers` demands `exec:worker` spans plus at
/// least one `exec.chunk_imbalance` gauge event. Every `exec.chunk_imbalance`
/// gauge present must carry a finite value (non-finite values encode as JSON
/// `null`). `require_scf_bb` demands the ISS block-cache series: the
/// `scf.bb.hits`/`scf.bb.misses`/`scf.bb.invalidations` counters and the
/// `scf.bb.block_len` histogram summary, all exported as `"ph":"C"` events.
/// Returns the process exit code (0 valid, 1 invalid, 2 unreadable).
pub fn check_trace(
    registry: &Registry,
    path: &std::path::Path,
    require_experiments: bool,
    require_workers: bool,
    require_scf_bb: bool,
) -> u8 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("f2 check-trace: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("f2 check-trace: {}: malformed JSON: {e}", path.display());
            return 1;
        }
    };
    let Some(events) = doc.get("traceEvents").and_then(Json::as_array) else {
        eprintln!(
            "f2 check-trace: {}: missing `traceEvents` array",
            path.display()
        );
        return 1;
    };
    let mut failures = Vec::new();
    let mut span_names = Vec::new();
    let mut counter_names = Vec::new();
    let mut imbalance_events = 0usize;
    for (i, event) in events.iter().enumerate() {
        let ph = event.get("ph").and_then(Json::as_str);
        let name = event.get("name").and_then(Json::as_str);
        if ph == Some("C") {
            if let Some(n) = name {
                counter_names.push(n.to_string());
            }
        }
        // Non-finite gauge values encode as JSON `null` and would silently
        // poison downstream trace viewers — reject them here.
        if ph == Some("C") && name == Some("exec.chunk_imbalance") {
            imbalance_events += 1;
            match event
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
            {
                Some(v) if v.is_finite() => {}
                _ => failures.push(format!(
                    "event {i}: `exec.chunk_imbalance` value missing or non-finite"
                )),
            }
        }
        if ph != Some("X") {
            continue;
        }
        let well_formed = name.is_some()
            && event.get("ts").and_then(Json::as_f64).is_some()
            && event.get("dur").and_then(Json::as_f64).is_some()
            && event.get("tid").and_then(Json::as_f64).is_some();
        match name {
            Some(n) if well_formed => span_names.push(n.to_string()),
            _ => failures.push(format!("event {i}: span event missing name/ts/dur/tid")),
        }
    }
    if span_names.is_empty() {
        failures.push("no complete (\"ph\":\"X\") span events".to_string());
    }
    if require_experiments {
        for exp in registry.entries() {
            let want = format!("experiment:{}", exp.name());
            if !span_names.iter().any(|n| n == &want) {
                failures.push(format!("missing span `{want}`"));
            }
        }
    }
    if require_workers {
        if !span_names.iter().any(|n| n == "exec:worker") {
            failures.push("missing per-worker executor spans (`exec:worker`)".to_string());
        }
        if imbalance_events == 0 {
            failures.push("missing `exec.chunk_imbalance` gauge events".to_string());
        }
    }
    if require_scf_bb {
        for want in [
            "scf.bb.hits",
            "scf.bb.misses",
            "scf.bb.invalidations",
            "scf.bb.block_len",
        ] {
            if !counter_names.iter().any(|n| n == want) {
                failures.push(format!("missing ISS block-cache series `{want}`"));
            }
        }
    }
    for f in &failures {
        eprintln!("f2 check-trace: {}: {f}", path.display());
    }
    if failures.is_empty() {
        eprintln!(
            "f2 check-trace: {}: {} span(s) across {} event(s), well-formed",
            path.display(),
            span_names.len(),
            events.len()
        );
        0
    } else {
        1
    }
}

/// One well-formedness problem with a single access-log record, or `None`
/// when the record is valid. Factored out of [`check_log`] so each rule
/// reads as one early return.
fn check_log_record(doc: &Json) -> Option<String> {
    if doc.get("schema").and_then(Json::as_str) != Some(f2_core::serve::LOG_SCHEMA) {
        return Some(format!("schema is not {:?}", f2_core::serve::LOG_SCHEMA));
    }
    match doc.get("trace_id").and_then(Json::as_str) {
        Some(id) if !id.is_empty() => {}
        _ => return Some("missing or empty `trace_id`".to_string()),
    }
    // Experiment/scenario may legitimately be empty (a request rejected
    // before the body resolved), but they must be present as strings and
    // agree: a resolved experiment always has its 16-hex scenario hash.
    let experiment = doc.get("experiment").and_then(Json::as_str);
    let scenario = doc.get("scenario").and_then(Json::as_str);
    let (Some(experiment), Some(scenario)) = (experiment, scenario) else {
        return Some("missing `experiment`/`scenario` strings".to_string());
    };
    if !experiment.is_empty()
        && (scenario.len() != 16 || !scenario.bytes().all(|b| b.is_ascii_hexdigit()))
    {
        return Some(format!("scenario {scenario:?} is not a 16-hex-digit hash"));
    }
    match doc.get("cache") {
        Some(Json::Null) => {}
        Some(j) if matches!(j.as_str(), Some("hit" | "miss")) => {}
        _ => return Some("`cache` must be \"hit\", \"miss\" or null".to_string()),
    }
    match doc.get("status").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (100.0..=599.0).contains(&s) => {}
        _ => return Some("`status` is not an HTTP status code".to_string()),
    }
    for key in ["queue_ms", "run_ms", "total_ms"] {
        match doc.get(key).and_then(Json::as_f64) {
            Some(v) if v.is_finite() && v >= 0.0 => {}
            _ => return Some(format!("`{key}` missing or not a non-negative number")),
        }
    }
    None
}

/// Validates a JSONL access log written by `serve --log` (or
/// `/debug/recent` records re-emitted one per line by `loadgen --recent`):
/// every non-empty line must parse as one `f2-serve-log-v1` object with a
/// non-empty trace id, a `hit`/`miss`/`null` cache outcome, an HTTP status
/// code and finite non-negative latencies, and the file must hold at least
/// one record. Returns the process exit code (0 valid, 1 invalid,
/// 2 unreadable).
pub fn check_log(path: &std::path::Path) -> u8 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("f2 check-log: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let mut records = 0usize;
    let mut failures = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let doc = match Json::parse(line) {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("line {lineno}: malformed JSON: {e}"));
                continue;
            }
        };
        records += 1;
        if let Some(problem) = check_log_record(&doc) {
            failures.push(format!("line {lineno}: {problem}"));
        }
    }
    if records == 0 && failures.is_empty() {
        failures.push("no records: the log is empty".to_string());
    }
    for f in &failures {
        eprintln!("f2 check-log: {}: {f}", path.display());
    }
    if failures.is_empty() {
        eprintln!(
            "f2 check-log: {}: {records} record(s), well-formed",
            path.display()
        );
        0
    } else {
        1
    }
}

/// Verifies `run --json` report lines against the golden snapshots.
///
/// Reads `input` line by line, ignores anything that is not a JSON
/// experiment report (table text, notes, record lines), and compares each
/// report against `golden_dir/<experiment>.json` with the per-KPI relative
/// tolerances stored in the snapshot. Returns the process exit code: `0`
/// when at least one report was seen and every one matched.
pub fn check(input: &mut dyn BufRead, golden_dir: &std::path::Path) -> u8 {
    let mut reports = 0usize;
    let mut failures = Vec::new();
    for line in input.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("f2 check: stdin: {e}");
                return 2;
            }
        };
        let Ok(doc) = Json::parse(&line) else {
            continue;
        };
        if doc.get("experiment").is_none() || doc.get("kpis").is_none() {
            continue;
        }
        let actual = match ExperimentReport::from_json(&doc) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("malformed report line: {e}"));
                continue;
            }
        };
        reports += 1;
        let path = golden::snapshot_path(golden_dir, &actual.experiment);
        match golden::load(&path) {
            Ok(expected) => {
                for diff in golden::compare(&expected, &actual) {
                    failures.push(format!("{}: {diff}", actual.experiment));
                }
            }
            Err(e) => failures.push(format!(
                "{}: no golden snapshot ({e}); run the golden test with F2_BLESS=1",
                actual.experiment
            )),
        }
    }
    if reports == 0 {
        eprintln!("f2 check: no report lines on stdin; pipe `f2 run <sel> --json` in");
        return 2;
    }
    for f in &failures {
        eprintln!("f2 check: {f}");
    }
    if failures.is_empty() {
        eprintln!("f2 check: {reports} report(s) matched the golden snapshots");
        0
    } else {
        eprintln!(
            "f2 check: {} failure(s) across {reports} report(s)",
            failures.len()
        );
        1
    }
}

/// Runs the curated hot-kernel suite (see [`crate::suite`]); returns the
/// process exit code. The human-readable table always goes to stdout; the
/// machine-readable `f2-bench-v1` report is written only via `--out`, and
/// `--trace` wraps the run in a [`f2_core::trace`] session so every kernel
/// gets a `bench:<label>` span.
pub fn bench(opts: &BenchOptions) -> u8 {
    let session = opts.trace.is_some().then(f2_core::trace::session);
    let cfg = crate::suite::SuiteConfig {
        quick: opts.quick,
        samples: opts.samples,
        filter: opts.filter.clone(),
        threads: opts.threads,
    };
    let harness = crate::suite::run_suite(&cfg);
    harness.finish();
    let mut failures = 0;
    if harness.results().is_empty() {
        eprintln!("f2 bench: no benchmark matched the filter");
        failures += 1;
    } else if let Some(out) = &opts.out {
        let doc = crate::suite::suite_json(&harness, &cfg);
        match std::fs::write(out, format!("{}\n", doc.encode())) {
            Ok(()) => eprintln!(
                "f2 bench: wrote {} record(s) to {}",
                harness.results().len(),
                out.display()
            ),
            Err(e) => {
                eprintln!("f2 bench: cannot write report to {}: {e}", out.display());
                failures += 1;
            }
        }
    }
    if let Some(session) = session {
        let trace_report = session.finish();
        if let Some(path) = &opts.trace {
            match std::fs::write(path, trace_report.to_chrome_json().encode()) {
                Ok(()) => eprintln!(
                    "f2 bench: wrote {} span(s) to {}",
                    trace_report.spans.len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("f2 bench: cannot write trace to {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }
    u8::from(failures > 0)
}

/// A parsed `f2-bench-v1` report: run configuration plus per-label p10
/// nanoseconds, in file order.
struct BenchDoc {
    quick: bool,
    samples: usize,
    threads: usize,
    p10_ns: Vec<(String, f64)>,
}

/// Loads and validates a bench report; the error carries the exit code
/// (2 unreadable, 1 malformed) and the message to print.
fn load_bench_doc(path: &std::path::Path) -> Result<BenchDoc, (u8, String)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| (2, format!("cannot read {}: {e}", path.display())))?;
    let doc =
        Json::parse(&text).map_err(|e| (1, format!("{}: malformed JSON: {e}", path.display())))?;
    if doc.get("schema").and_then(Json::as_str) != Some(crate::suite::SCHEMA) {
        return Err((
            1,
            format!(
                "{}: not a `{}` document",
                path.display(),
                crate::suite::SCHEMA
            ),
        ));
    }
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| (1, format!("{}: missing `records` array", path.display())))?;
    let mut p10_ns = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        let label = r
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| (1, format!("{}: record {i} missing `label`", path.display())))?;
        let p10 = r
            .get("p10_ns")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| {
                (
                    1,
                    format!("{}: record {i} missing a finite `p10_ns`", path.display()),
                )
            })?;
        p10_ns.push((label.to_string(), p10));
    }
    Ok(BenchDoc {
        quick: doc.get("quick").and_then(Json::as_bool).unwrap_or(false),
        samples: doc
            .get("samples")
            .and_then(Json::as_f64)
            .map_or_else(f2_core::benchkit::samples_from_env, |v| v as usize),
        threads: doc
            .get("threads")
            .and_then(Json::as_f64)
            .map_or_else(f2_core::exec::num_threads, |v| v as usize),
        p10_ns,
    })
}

/// Compares two reports label by label on p10; returns the failure
/// messages. A baseline label missing from `current` is a failure (the
/// kernel silently vanished from the suite); extra current labels are fine
/// (new kernels need a blessed baseline first).
fn compare_bench(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    max_regress: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (label, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(l, _)| l == label) else {
            failures.push(format!("{label}: missing from the current run"));
            continue;
        };
        let allowed = base * (1.0 + max_regress / 100.0);
        if *cur > allowed {
            failures.push(format!(
                "{label}: p10 {:.0} ns vs baseline {:.0} ns (+{:.1}%, allowed +{max_regress:.1}%)",
                cur,
                base,
                (cur / base - 1.0) * 100.0
            ));
        }
    }
    failures
}

/// Verifies the current suite timings against a committed baseline report.
///
/// Compares p10 per label — the outlier-robust statistic `benchkit`
/// records exactly for this purpose — and fails any kernel more than
/// `max_regress` percent slower. Without `--current` the suite runs
/// in-process using the baseline's own quick/samples/threads
/// configuration. Wall-clock numbers are machine-dependent, so baselines
/// only mean something on the machine that produced them; CI regenerates
/// its own current run and uses a generous bound.
///
/// `min_speedups` inverts the check for selected labels: each named kernel
/// must have *improved*, with current p10 at most baseline p10 divided by
/// the factor. This is how a PR proves a claimed optimisation landed — the
/// gate compares against the *previous* baseline before it is re-blessed.
/// Returns the process exit code (0 ok, 1 regressed/malformed,
/// 2 unreadable).
pub fn check_bench(
    baseline: &std::path::Path,
    current: Option<&std::path::Path>,
    max_regress: f64,
    min_speedups: &[(String, f64)],
) -> u8 {
    let base = match load_bench_doc(baseline) {
        Ok(d) => d,
        Err((code, msg)) => {
            eprintln!("f2 check-bench: {msg}");
            return code;
        }
    };
    let cur_p10 = match current {
        Some(path) => match load_bench_doc(path) {
            Ok(d) => d.p10_ns,
            Err((code, msg)) => {
                eprintln!("f2 check-bench: {msg}");
                return code;
            }
        },
        None => {
            eprintln!(
                "f2 check-bench: no --current report; running the suite \
                 (quick={}, samples={}, threads={})",
                base.quick, base.samples, base.threads
            );
            let cfg = crate::suite::SuiteConfig {
                quick: base.quick,
                samples: base.samples,
                filter: None,
                threads: base.threads,
            };
            let harness = crate::suite::run_suite(&cfg);
            harness
                .results()
                .iter()
                .map(|r| (r.label.clone(), r.p10.as_nanos() as f64))
                .collect()
        }
    };
    let mut failures = compare_bench(&base.p10_ns, &cur_p10, max_regress);
    for (label, factor) in min_speedups {
        let base_p10 = base.p10_ns.iter().find(|(l, _)| l == label);
        let cur = cur_p10.iter().find(|(l, _)| l == label);
        match (base_p10, cur) {
            (Some((_, b)), Some((_, c))) if *c * factor <= *b => {}
            (Some((_, b)), Some((_, c))) => failures.push(format!(
                "{label}: p10 {c:.0} ns is only {:.2}x faster than baseline \
                 {b:.0} ns (required {factor:.2}x)",
                b / c
            )),
            _ => failures.push(format!(
                "{label}: --min-speedup label absent from baseline or current"
            )),
        }
    }
    for f in &failures {
        eprintln!("f2 check-bench: {f}");
    }
    if failures.is_empty() {
        eprintln!(
            "f2 check-bench: {} kernel(s) within +{max_regress:.1}% of {}",
            base.p10_ns.len(),
            baseline.display()
        );
        0
    } else {
        eprintln!(
            "f2 check-bench: {} regression(s) across {} kernel(s)",
            failures.len(),
            base.p10_ns.len()
        );
        1
    }
}

/// Runs the batched experiment service until a `POST /shutdown` arrives;
/// returns the process exit code (0 clean shutdown, 1 a server thread
/// panicked, 2 the bind failed).
pub fn serve(registry: Registry, config: f2_core::serve::ServeConfig) -> u8 {
    let addr = config.addr.clone();
    match f2_core::serve::start(registry, config) {
        Ok(handle) => match handle.wait() {
            Ok(()) => {
                eprintln!("f2 serve: shut down cleanly");
                0
            }
            Err(e) => {
                eprintln!("f2 serve: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("f2 serve: cannot start on {addr}: {e}");
            2
        }
    }
}

/// Full CLI entry point used by `src/bin/f2.rs`. Takes the registry by
/// value because `serve` moves it into the server's worker threads.
pub fn main_with(registry: Registry, args: &[String]) -> u8 {
    match parse_args(args) {
        Ok(Command::List { json }) => {
            list(&registry, json);
            0
        }
        Ok(Command::Run(opts)) => run(&registry, &opts),
        Ok(Command::Check { golden_dir }) => {
            let stdin = std::io::stdin();
            let mut lock = stdin.lock();
            check(&mut lock, &golden_dir)
        }
        Ok(Command::CheckTrace {
            path,
            require_experiments,
            require_workers,
            require_scf_bb,
        }) => check_trace(
            &registry,
            &path,
            require_experiments,
            require_workers,
            require_scf_bb,
        ),
        Ok(Command::Bench(opts)) => bench(&opts),
        Ok(Command::CheckBench {
            baseline,
            current,
            max_regress,
            min_speedups,
        }) => check_bench(&baseline, current.as_deref(), max_regress, &min_speedups),
        Ok(Command::Serve(config)) => serve(registry, config),
        Ok(Command::Loadgen(opts)) => crate::loadgen::run(&opts),
        Ok(Command::Campaign(opts)) => crate::campaign::run(&registry, &opts),
        Ok(Command::CheckLog { path }) => check_log(&path),
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::experiment::Experiment;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_flags() {
        let Command::Run(opts) = parse_args(&args(&[
            "run",
            "imc",
            "--quick",
            "--json",
            "--threads",
            "3",
            "--seed",
            "7",
            "--param",
            "cells=800",
            "--param",
            "mode=dense",
            "--trace",
            "/tmp/t.json",
            "--metrics",
        ]))
        .expect("parses") else {
            panic!("expected run");
        };
        assert_eq!(opts.selector, "imc");
        assert!(opts.json && opts.metrics);
        assert_eq!(opts.scenario.fidelity, Fidelity::Quick);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.scenario.seed, 7);
        assert_eq!(opts.scenario.param("cells"), Some(&ParamValue::Num(800.0)));
        assert_eq!(
            opts.scenario.param("mode"),
            Some(&ParamValue::Str("dense".to_string()))
        );
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/t.json")));
    }

    #[test]
    fn run_scenario_file_loads_and_later_flags_override() {
        let path = std::env::temp_dir().join("f2-runner-scenario-test.json");
        std::fs::write(
            &path,
            r#"{"seed":11,"fidelity":"quick","params":{"cells":640}}"#,
        )
        .expect("writable tmp");
        let path_s = path.to_string_lossy().to_string();
        let Command::Run(opts) = parse_args(&args(&[
            "run",
            "imc",
            "--scenario",
            &path_s,
            "--seed",
            "12",
        ]))
        .expect("parses") else {
            panic!("expected run");
        };
        assert_eq!(opts.scenario.seed, 12, "later --seed overrides the file");
        assert_eq!(opts.scenario.fidelity, Fidelity::Quick);
        assert_eq!(opts.scenario.param("cells"), Some(&ParamValue::Num(640.0)));
        // Flag order matters the other way round too: the file replaces
        // everything set before it.
        let Command::Run(opts) = parse_args(&args(&[
            "run",
            "imc",
            "--seed",
            "12",
            "--scenario",
            &path_s,
        ]))
        .expect("parses") else {
            panic!("expected run");
        };
        assert_eq!(opts.scenario.seed, 11);
        assert!(parse_args(&args(&["run", "imc", "--scenario", "/no/such/file.json"])).is_err());
        assert!(parse_args(&args(&["run", "imc", "--param", "noequals"])).is_err());
        assert!(parse_args(&args(&["run", "imc", "--param", "=3"])).is_err());
        // Inputs that change no report are not scenario members: a
        // scenario file naming `threads` or a fidelity scale is rejected
        // (exit 2 through `main_with`).
        for bad in [r#"{"threads":1}"#, r#"{"fidelity":{"scale":8}}"#] {
            std::fs::write(&path, bad).expect("writable tmp");
            let err = parse_args(&args(&["run", "imc", "--scenario", &path_s]))
                .err()
                .expect(bad);
            assert!(
                err.contains("unknown scenario member") || err.contains("fidelity must be"),
                "{bad}: {err}"
            );
            let registry = Registry::new();
            assert_eq!(
                main_with(registry, &args(&["run", "imc", "--scenario", &path_s])),
                2,
                "{bad}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&["run"])).is_err());
        assert!(parse_args(&args(&["run", "a", "b"])).is_err());
        assert!(parse_args(&args(&["run", "a", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a", "--trace"])).is_err());
        assert!(parse_args(&args(&["check-trace"])).is_err());
        assert!(parse_args(&args(&["check-trace", "a.json", "b.json"])).is_err());
        assert!(parse_args(&args(&["check-trace", "a.json", "--nope"])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
    }

    #[test]
    fn parses_check_trace() {
        let Command::CheckTrace {
            path,
            require_experiments,
            require_workers,
            require_scf_bb,
        } = parse_args(&args(&[
            "check-trace",
            "/tmp/t.json",
            "--require-experiments",
            "--require-scf-bb",
        ]))
        .expect("parses")
        else {
            panic!("expected check-trace");
        };
        assert_eq!(path, PathBuf::from("/tmp/t.json"));
        assert!(require_experiments);
        assert!(!require_workers);
        assert!(require_scf_bb);
    }

    #[test]
    fn parses_list_and_check() {
        assert!(matches!(
            parse_args(&args(&["list", "--json"])),
            Ok(Command::List { json: true })
        ));
        let Command::Check { golden_dir } =
            parse_args(&args(&["check", "--golden", "/tmp/g"])).expect("parses")
        else {
            panic!("expected check");
        };
        assert_eq!(golden_dir, PathBuf::from("/tmp/g"));
    }

    #[test]
    fn check_ignores_non_report_lines_and_flags_missing_snapshots() {
        let dir = std::env::temp_dir().join("f2-check-test-missing");
        let input = b"plain text\n{\"label\":\"x\",\"data\":1}\n\
            {\"experiment\":\"ghost\",\"kpis\":[]}\n";
        let code = check(&mut &input[..], &dir);
        assert_eq!(code, 1, "missing snapshot must fail the check");
    }

    #[test]
    fn check_requires_at_least_one_report() {
        let dir = std::env::temp_dir().join("f2-check-test-empty");
        let code = check(&mut &b"no json here\n"[..], &dir);
        assert_eq!(code, 2);
    }

    /// Minimal experiment exercising sections and a parallel sweep, so a
    /// traced run produces section and `exec:worker` spans.
    struct TracedDemo;

    impl Experiment for TracedDemo {
        fn name(&self) -> &'static str {
            "traced_demo"
        }
        fn summary(&self) -> &'static str {
            "runner trace test fixture"
        }
        fn tags(&self) -> &'static [&'static str] {
            &["demo"]
        }
        fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
            ctx.section("sweep");
            let items: Vec<u64> = (0..16).collect();
            let out = ctx.exec().map(&items, |&x| x * x);
            ctx.counter_add("demo.points", out.len() as u64);
            ctx.kpi("sum", out.iter().sum::<u64>() as f64);
            Ok(ctx.report(self.name()))
        }
    }

    #[test]
    fn run_writes_a_validatable_trace() {
        let mut registry = Registry::new();
        registry.register(Box::new(TracedDemo));
        let path = std::env::temp_dir().join("f2-runner-trace-test.json");
        let opts = RunOptions {
            selector: "all".to_string(),
            json: true,
            scenario: Scenario::new(1, Fidelity::Quick),
            threads: 2,
            trace: Some(path.clone()),
            metrics: false,
        };
        assert_eq!(run(&registry, &opts), 0);
        // The CI validation path accepts it, including the strict flags.
        assert_eq!(check_trace(&registry, &path, true, true, false), 0);
        let text = std::fs::read_to_string(&path).expect("trace written");
        let doc = Json::parse(&text).expect("well-formed");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"experiment:traced_demo"));
        assert!(names.contains(&"section:sweep"));
        assert!(names.contains(&"exec:worker"));
        // The ctx counter made it into the exported counter events.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("C")
                && e.get("name").and_then(Json::as_str) == Some("demo.points")
        }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_maps_invalid_scenario_params_to_exit_2() {
        struct Picky;
        impl Experiment for Picky {
            fn name(&self) -> &'static str {
                "picky"
            }
            fn summary(&self) -> &'static str {
                "invalid-param exit-code fixture"
            }
            fn tags(&self) -> &'static [&'static str] {
                &["demo"]
            }
            fn params(&self) -> Vec<f2_core::experiment::ParamSpec> {
                vec![f2_core::experiment::ParamSpec::u64("n", "must be positive")]
            }
            fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
                if ctx.param_u64("n", 1) == 0 {
                    return Err(f2_core::CoreError::InvalidParameter {
                        name: "n".to_string(),
                        reason: "must be positive".to_string(),
                    });
                }
                Ok(ctx.report(self.name()))
            }
        }
        let mut registry = Registry::new();
        registry.register(Box::new(Picky));
        let opts = |n| RunOptions {
            selector: "all".to_string(),
            json: true,
            scenario: Scenario::new(1, Fidelity::Quick).with_param("n", ParamValue::Num(n)),
            threads: 1,
            trace: None,
            metrics: false,
        };
        assert_eq!(run(&registry, &opts(1.0)), 0);
        assert_eq!(
            run(&registry, &opts(0.0)),
            2,
            "invalid scenario param must be a usage error"
        );
    }

    #[test]
    fn run_rejects_params_no_selected_experiment_declares() {
        let mut registry = Registry::new();
        registry.register(Box::new(TracedDemo));
        let opts = RunOptions {
            selector: "all".to_string(),
            json: true,
            scenario: Scenario::new(1, Fidelity::Quick)
                .with_param("no_such_knob", ParamValue::Num(3.0)),
            threads: 1,
            trace: None,
            metrics: false,
        };
        assert_eq!(
            run(&registry, &opts),
            2,
            "undeclared param is a usage error"
        );
    }

    #[test]
    fn parses_campaign_flags() {
        let Command::Campaign(opts) = parse_args(&args(&[
            "campaign",
            "manifest.json",
            "--out",
            "/tmp/c.json",
            "--checkpoint",
            "/tmp/c.jsonl",
            "--resume",
            "--threads",
            "4",
            "--golden",
            "/tmp/d.json",
            "--progress",
            "/tmp/p.jsonl",
        ]))
        .expect("parses") else {
            panic!("expected campaign");
        };
        assert_eq!(opts.manifest, PathBuf::from("manifest.json"));
        assert_eq!(opts.out, Some(PathBuf::from("/tmp/c.json")));
        assert_eq!(opts.checkpoint, Some(PathBuf::from("/tmp/c.jsonl")));
        assert!(opts.resume);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.golden, Some(PathBuf::from("/tmp/d.json")));
        assert_eq!(opts.progress, Some(PathBuf::from("/tmp/p.jsonl")));
        assert!(parse_args(&args(&["campaign"])).is_err());
        assert!(parse_args(&args(&["campaign", "a.json", "b.json"])).is_err());
        assert!(parse_args(&args(&["campaign", "a.json", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["campaign", "a.json", "--nope"])).is_err());
    }

    #[test]
    fn check_trace_rejects_missing_malformed_and_empty() {
        let registry = Registry::new();
        let dir = std::env::temp_dir();
        let missing = dir.join("f2-check-trace-missing.json");
        let _ = std::fs::remove_file(&missing);
        assert_eq!(check_trace(&registry, &missing, false, false, false), 2);
        let bad = dir.join("f2-check-trace-bad.json");
        std::fs::write(&bad, "{not json").expect("writable tmp");
        assert_eq!(check_trace(&registry, &bad, false, false, false), 1);
        let empty = dir.join("f2-check-trace-empty.json");
        std::fs::write(&empty, "{\"traceEvents\":[]}").expect("writable tmp");
        assert_eq!(check_trace(&registry, &empty, false, false, false), 1);
        let _ = std::fs::remove_file(&bad);
        let _ = std::fs::remove_file(&empty);
    }

    #[test]
    fn check_trace_enforces_required_spans() {
        let mut registry = Registry::new();
        registry.register(Box::new(TracedDemo));
        let path = std::env::temp_dir().join("f2-check-trace-partial.json");
        // A well-formed trace with one unrelated span: fine standalone,
        // rejected under either strict flag.
        std::fs::write(
            &path,
            "{\"traceEvents\":[{\"name\":\"other\",\"ph\":\"X\",\
             \"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1}]}",
        )
        .expect("writable tmp");
        assert_eq!(check_trace(&registry, &path, false, false, false), 0);
        assert_eq!(check_trace(&registry, &path, true, false, false), 1);
        assert_eq!(check_trace(&registry, &path, false, true, false), 1);
        assert_eq!(check_trace(&registry, &path, false, false, true), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_trace_rejects_non_finite_imbalance_gauges() {
        let registry = Registry::new();
        let path = std::env::temp_dir().join("f2-check-trace-nan-gauge.json");
        // A NaN gauge encodes as JSON `null`; even without the strict flags
        // the validator must flag it.
        std::fs::write(
            &path,
            "{\"traceEvents\":[{\"name\":\"other\",\"ph\":\"X\",\
             \"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1},\
             {\"name\":\"exec.chunk_imbalance\",\"ph\":\"C\",\"ts\":0,\
             \"pid\":1,\"tid\":1,\"args\":{\"value\":null}}]}",
        )
        .expect("writable tmp");
        assert_eq!(check_trace(&registry, &path, false, false, false), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_trace_enforces_scf_bb_series() {
        let registry = Registry::new();
        let dir = std::env::temp_dir();
        let path = dir.join("f2-check-trace-scf-bb.json");
        std::fs::write(
            &path,
            "{\"traceEvents\":[{\"name\":\"other\",\"ph\":\"X\",\
             \"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1},\
             {\"name\":\"scf.bb.hits\",\"ph\":\"C\",\"ts\":1,\"pid\":1,\
             \"tid\":0,\"args\":{\"value\":7}},\
             {\"name\":\"scf.bb.misses\",\"ph\":\"C\",\"ts\":1,\"pid\":1,\
             \"tid\":0,\"args\":{\"value\":3}},\
             {\"name\":\"scf.bb.invalidations\",\"ph\":\"C\",\"ts\":1,\
             \"pid\":1,\"tid\":0,\"args\":{\"value\":0}},\
             {\"name\":\"scf.bb.block_len\",\"ph\":\"C\",\"ts\":1,\"pid\":1,\
             \"tid\":0,\"args\":{\"count\":3,\"p50\":4,\"p90\":6,\"p99\":6,\
             \"max\":6}}]}",
        )
        .expect("writable tmp");
        assert_eq!(check_trace(&registry, &path, false, false, true), 0);
        // Dropping any one series fails the strict flag: rewrite without
        // the histogram summary.
        std::fs::write(
            &path,
            "{\"traceEvents\":[{\"name\":\"other\",\"ph\":\"X\",\
             \"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1},\
             {\"name\":\"scf.bb.hits\",\"ph\":\"C\",\"ts\":1,\"pid\":1,\
             \"tid\":0,\"args\":{\"value\":7}},\
             {\"name\":\"scf.bb.misses\",\"ph\":\"C\",\"ts\":1,\"pid\":1,\
             \"tid\":0,\"args\":{\"value\":3}},\
             {\"name\":\"scf.bb.invalidations\",\"ph\":\"C\",\"ts\":1,\
             \"pid\":1,\"tid\":0,\"args\":{\"value\":0}}]}",
        )
        .expect("writable tmp");
        assert_eq!(check_trace(&registry, &path, false, false, true), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parses_check_log() {
        let Command::CheckLog { path } =
            parse_args(&args(&["check-log", "serve.jsonl"])).expect("parses")
        else {
            panic!("expected check-log");
        };
        assert_eq!(path, PathBuf::from("serve.jsonl"));
        assert!(parse_args(&args(&["check-log"])).is_err());
        assert!(parse_args(&args(&["check-log", "a", "b"])).is_err());
        assert!(parse_args(&args(&["check-log", "a", "--nope"])).is_err());
    }

    /// One well-formed access-log line with the given members spliced in.
    fn log_line(trace_id: &str, cache: &str, status: u64) -> String {
        format!(
            "{{\"schema\":\"f2-serve-log-v1\",\"trace_id\":\"{trace_id}\",\
             \"experiment\":\"echo_seed\",\
             \"scenario\":\"00000000deadbeef\",\"cache\":{cache},\
             \"status\":{status},\"queue_ms\":0.4,\"run_ms\":1.5,\
             \"total_ms\":2.1}}"
        )
    }

    #[test]
    fn check_log_accepts_a_well_formed_access_log() {
        let path = std::env::temp_dir().join("f2-check-log-ok.jsonl");
        let lines = [
            log_line("f2-0000000000000001", "\"miss\"", 200),
            log_line("client-id.7", "\"hit\"", 200),
            log_line("f2-0000000000000002", "null", 500),
            // Parse errors leave experiment/scenario empty — still valid.
            "{\"schema\":\"f2-serve-log-v1\",\"trace_id\":\"t\",\
             \"experiment\":\"\",\"scenario\":\"\",\"cache\":null,\
             \"status\":400,\"queue_ms\":0,\"run_ms\":0,\"total_ms\":0.1}"
                .to_string(),
        ];
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("writable tmp");
        assert_eq!(check_log(&path), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_log_rejects_missing_malformed_and_empty() {
        let dir = std::env::temp_dir();
        let missing = dir.join("f2-check-log-missing.jsonl");
        let _ = std::fs::remove_file(&missing);
        assert_eq!(check_log(&missing), 2);
        let empty = dir.join("f2-check-log-empty.jsonl");
        std::fs::write(&empty, "\n\n").expect("writable tmp");
        assert_eq!(check_log(&empty), 1, "a log with zero records is invalid");
        let bad = dir.join("f2-check-log-bad.jsonl");
        std::fs::write(
            &bad,
            format!("{}\n{{not json\n", log_line("t", "null", 200)),
        )
        .expect("writable tmp");
        assert_eq!(check_log(&bad), 1);
        let _ = std::fs::remove_file(&empty);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn check_log_rejects_ill_formed_records() {
        let cases: &[(&str, String)] = &[
            (
                "wrong-schema",
                log_line("t", "null", 200).replace("log-v1", "log-v9"),
            ),
            ("empty-trace-id", log_line("", "null", 200)),
            ("bad-cache", log_line("t", "\"maybe\"", 200)),
            ("bad-status", log_line("t", "null", 42)),
            (
                "fractional-status",
                log_line("t", "null", 200).replace(":200,", ":200.5,"),
            ),
            (
                "negative-latency",
                log_line("t", "null", 200).replace("\"run_ms\":1.5", "\"run_ms\":-1.5"),
            ),
            (
                "short-scenario-hash",
                log_line("t", "null", 200).replace("00000000deadbeef", "beef"),
            ),
        ];
        for (label, line) in cases {
            let path = std::env::temp_dir().join(format!("f2-check-log-{label}.jsonl"));
            std::fs::write(&path, format!("{line}\n")).expect("writable tmp");
            assert_eq!(check_log(&path), 1, "{label} must be rejected");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn parses_bench_flags() {
        let Command::Bench(opts) = parse_args(&args(&[
            "bench",
            "--quick",
            "--samples",
            "5",
            "--filter",
            "imc/",
            "--threads",
            "2",
            "--out",
            "/tmp/b.json",
            "--trace",
            "/tmp/bt.json",
        ]))
        .expect("parses") else {
            panic!("expected bench");
        };
        assert!(opts.quick);
        assert_eq!(opts.samples, 5);
        assert_eq!(opts.filter.as_deref(), Some("imc/"));
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.out, Some(PathBuf::from("/tmp/b.json")));
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/bt.json")));
        assert!(parse_args(&args(&["bench", "--samples", "0"])).is_err());
        assert!(parse_args(&args(&["bench", "positional"])).is_err());
    }

    #[test]
    fn parses_check_bench() {
        let Command::CheckBench {
            baseline,
            current,
            max_regress,
            min_speedups,
        } = parse_args(&args(&["check-bench", "BENCH.json"])).expect("parses")
        else {
            panic!("expected check-bench");
        };
        assert_eq!(baseline, PathBuf::from("BENCH.json"));
        assert_eq!(current, None);
        assert_eq!(max_regress, 50.0);
        assert!(min_speedups.is_empty());
        let Command::CheckBench {
            max_regress,
            min_speedups,
            ..
        } = parse_args(&args(&[
            "check-bench",
            "b.json",
            "--current",
            "c.json",
            "--max-regress",
            "25",
            "--min-speedup",
            "scf/cpu_run=5",
            "--min-speedup",
            "scf/multicore_step=2.5",
        ]))
        .expect("parses")
        else {
            panic!("expected check-bench");
        };
        assert_eq!(max_regress, 25.0);
        assert_eq!(
            min_speedups,
            vec![
                ("scf/cpu_run".to_string(), 5.0),
                ("scf/multicore_step".to_string(), 2.5)
            ]
        );
        assert!(parse_args(&args(&["check-bench"])).is_err());
        assert!(parse_args(&args(&["check-bench", "a", "b"])).is_err());
        assert!(parse_args(&args(&["check-bench", "a", "--max-regress", "-5"])).is_err());
        assert!(parse_args(&args(&["check-bench", "a", "--min-speedup", "x"])).is_err());
        assert!(parse_args(&args(&["check-bench", "a", "--min-speedup", "x=0.5"])).is_err());
    }

    fn bench_doc(records: &[(&str, u64)]) -> String {
        let recs: Vec<String> = records
            .iter()
            .map(|(l, p10)| {
                format!(
                    "{{\"label\":\"{l}\",\"min_ns\":{p10},\"p10_ns\":{p10},\
                     \"median_ns\":{p10},\"mean_ns\":{p10},\"iters_per_sample\":1}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"f2-bench-v1\",\"threads\":1,\"quick\":true,\
             \"samples\":3,\"records\":[{}]}}",
            recs.join(",")
        )
    }

    #[test]
    fn check_bench_flags_a_synthetic_regression() {
        let dir = std::env::temp_dir();
        let base = dir.join("f2-check-bench-base.json");
        let fast = dir.join("f2-check-bench-fast.json");
        let slow = dir.join("f2-check-bench-slow.json");
        std::fs::write(&base, bench_doc(&[("g/a", 100), ("g/b", 200)])).expect("writable tmp");
        std::fs::write(&fast, bench_doc(&[("g/a", 110), ("g/b", 150)])).expect("writable tmp");
        std::fs::write(&slow, bench_doc(&[("g/a", 400), ("g/b", 200)])).expect("writable tmp");
        assert_eq!(check_bench(&base, Some(&fast), 50.0, &[]), 0);
        assert_eq!(check_bench(&base, Some(&slow), 50.0, &[]), 1);
        // A tighter bound turns the mild slowdown into a failure too.
        assert_eq!(check_bench(&base, Some(&fast), 5.0, &[]), 1);
        for p in [&base, &fast, &slow] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn check_bench_min_speedup_demands_an_improvement() {
        let dir = std::env::temp_dir();
        let base = dir.join("f2-check-bench-ms-base.json");
        let cur = dir.join("f2-check-bench-ms-cur.json");
        std::fs::write(&base, bench_doc(&[("g/a", 1000), ("g/b", 1000)])).expect("writable tmp");
        // g/a sped up 5x, g/b only 2x.
        std::fs::write(&cur, bench_doc(&[("g/a", 200), ("g/b", 500)])).expect("writable tmp");
        let ms = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|(l, f)| (l.to_string(), *f)).collect()
        };
        assert_eq!(
            check_bench(&base, Some(&cur), 50.0, &ms(&[("g/a", 5.0)])),
            0
        );
        assert_eq!(
            check_bench(&base, Some(&cur), 50.0, &ms(&[("g/a", 5.0), ("g/b", 2.0)])),
            0
        );
        assert_eq!(
            check_bench(&base, Some(&cur), 50.0, &ms(&[("g/b", 5.0)])),
            1,
            "2x when 5x is demanded must fail"
        );
        assert_eq!(
            check_bench(&base, Some(&cur), 50.0, &ms(&[("g/ghost", 2.0)])),
            1,
            "a --min-speedup label absent from the reports must fail"
        );
        for p in [&base, &cur] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn check_bench_fails_on_vanished_kernels_and_bad_files() {
        let dir = std::env::temp_dir();
        let base = dir.join("f2-check-bench-base2.json");
        let partial = dir.join("f2-check-bench-partial.json");
        std::fs::write(&base, bench_doc(&[("g/a", 100), ("g/b", 200)])).expect("writable tmp");
        std::fs::write(&partial, bench_doc(&[("g/a", 100)])).expect("writable tmp");
        assert_eq!(
            check_bench(&base, Some(&partial), 50.0, &[]),
            1,
            "baseline kernel missing from current must fail"
        );
        // Extra current kernels are fine.
        assert_eq!(check_bench(&partial, Some(&base), 50.0, &[]), 0);
        let missing = dir.join("f2-check-bench-missing.json");
        let _ = std::fs::remove_file(&missing);
        assert_eq!(check_bench(&missing, Some(&base), 50.0, &[]), 2);
        let bad = dir.join("f2-check-bench-bad.json");
        std::fs::write(&bad, "{not json").expect("writable tmp");
        assert_eq!(check_bench(&bad, Some(&base), 50.0, &[]), 1);
        let wrong = dir.join("f2-check-bench-wrong-schema.json");
        std::fs::write(&wrong, "{\"schema\":\"other\",\"records\":[]}").expect("writable tmp");
        assert_eq!(check_bench(&wrong, Some(&base), 50.0, &[]), 1);
        for p in [&base, &partial, &bad, &wrong] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn compare_bench_reports_percentages() {
        let base = vec![("g/a".to_string(), 100.0)];
        let cur = vec![("g/a".to_string(), 300.0)];
        let failures = compare_bench(&base, &cur, 50.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("+200.0%"), "{}", failures[0]);
    }

    #[test]
    fn bench_subcommand_writes_a_checkable_report() {
        let dir = std::env::temp_dir();
        let out = dir.join("f2-bench-report-test.json");
        let trace = dir.join("f2-bench-trace-test.json");
        let opts = BenchOptions {
            quick: true,
            samples: 3,
            filter: Some("dna/channel".to_string()),
            threads: 1,
            out: Some(out.clone()),
            trace: Some(trace.clone()),
        };
        assert_eq!(bench(&opts), 0);
        // The report round-trips through check-bench against itself.
        assert_eq!(check_bench(&out, Some(&out), 50.0, &[]), 0);
        // The trace holds the kernel's bench span and passes validation.
        let registry = Registry::new();
        assert_eq!(check_trace(&registry, &trace, false, false, false), 0);
        let text = std::fs::read_to_string(&trace).expect("trace written");
        assert!(text.contains("bench:dna/channel"));
        // An all-excluding filter is an error.
        let none = BenchOptions {
            filter: Some("no-such-kernel".to_string()),
            out: None,
            trace: None,
            ..opts
        };
        assert_eq!(bench(&none), 1);
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn parses_serve_flags() {
        let Command::Serve(cfg) = parse_args(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:9000",
            "--threads",
            "4",
            "--shards",
            "8",
            "--port-file",
            "/tmp/p.txt",
            "--log",
            "/tmp/s.jsonl",
        ]))
        .expect("parses") else {
            panic!("expected serve");
        };
        assert_eq!(cfg.addr, "127.0.0.1:9000");
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.port_file, Some(PathBuf::from("/tmp/p.txt")));
        assert_eq!(cfg.log, Some(PathBuf::from("/tmp/s.jsonl")));
        // Defaults: ephemeral loopback port, standard shard count.
        let Command::Serve(cfg) = parse_args(&args(&["serve"])).expect("parses") else {
            panic!("expected serve");
        };
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.shards, f2_core::serve::cache::SHARDS);
        assert!(parse_args(&args(&["serve", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--shards", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "positional"])).is_err());
    }

    #[test]
    fn parses_loadgen_flags() {
        let Command::Loadgen(opts) = parse_args(&args(&[
            "loadgen",
            "--addr",
            "127.0.0.1:9000",
            "--rps",
            "80",
            "--duration",
            "1.5",
            "--connections",
            "2",
            "--mix",
            "cached",
            "--warmup",
            "1",
            "--wait",
            "10",
            "--out",
            "/tmp/l.json",
            "--expect-all-hits",
            "--recent",
            "/tmp/r.jsonl",
        ]))
        .expect("parses") else {
            panic!("expected loadgen");
        };
        assert_eq!(opts.addr, "127.0.0.1:9000");
        assert_eq!(opts.rps, 80.0);
        assert_eq!(opts.duration_s, 1.5);
        assert_eq!(opts.connections, 2);
        assert_eq!(opts.mix, crate::loadgen::Mix::Cached);
        assert_eq!(opts.warmup, 1);
        assert_eq!(opts.wait_s, 10.0);
        assert_eq!(opts.out, Some(PathBuf::from("/tmp/l.json")));
        assert!(opts.expect_all_hits);
        assert_eq!(opts.recent, Some(PathBuf::from("/tmp/r.jsonl")));
        assert!(!opts.shutdown);
        let Command::Loadgen(opts) = parse_args(&args(&["loadgen", "--shutdown"])).expect("parses")
        else {
            panic!("expected loadgen");
        };
        assert!(opts.shutdown);
        assert!(parse_args(&args(&["loadgen", "--rps", "0"])).is_err());
        assert!(parse_args(&args(&["loadgen", "--rps", "-3"])).is_err());
        assert!(parse_args(&args(&["loadgen", "--duration", "nope"])).is_err());
        assert!(parse_args(&args(&["loadgen", "--mix", "chaos"])).is_err());
        assert!(parse_args(&args(&["loadgen", "--wait", "-1"])).is_err());
    }

    #[test]
    fn check_passes_against_a_matching_snapshot() {
        use f2_core::experiment::{Kpi, DEFAULT_KPI_TOL};
        let dir = std::env::temp_dir().join("f2-check-test-match");
        let report = ExperimentReport {
            experiment: "demo".to_string(),
            kpis: vec![Kpi {
                name: "x".to_string(),
                value: 2.0,
                tol: DEFAULT_KPI_TOL,
            }],
        };
        golden::save(&golden::snapshot_path(&dir, "demo"), &report).expect("writable tmp");
        let line = format!("{}\n", report.to_json());
        let code = check(&mut line.as_bytes(), &dir);
        assert_eq!(code, 0);
    }
}
