//! `f2 loadgen` — the load-generation client for `f2 serve`.
//!
//! Replays a named request mix against a running server at a target rate
//! and reports service-level numbers: completed/failed requests, cache
//! hit/miss split (from the server's `X-F2-Cache` header), response-body
//! consistency, per-status-code counts, throughput and latency
//! percentiles. Every `POST /run` carries a deterministic
//! `X-F2-Trace-Id` and the client asserts the server echoes it back —
//! an end-to-end check of the serve observability path under load. The
//! CI serve smoke is built on the exit code: any failed request, any
//! body that differs from an earlier response to the identical request,
//! any un-echoed trace id, or a cache miss under `--expect-all-hits`
//! fails the run. `--recent <file.jsonl>` scrapes the server's
//! `/debug/recent` flight recorder after the run and re-emits its
//! records one per line, ready for `f2 check-log`.
//!
//! All throughput/latency numbers are wall-clock and machine-dependent —
//! they are service diagnostics, **never** golden KPIs (the same rule as
//! the `f2 bench` suite).

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use f2_core::json::{Json, ToJson};
use f2_core::serve::http::{self, Response};

/// Identifies the JSON layout of a loadgen report.
pub const SCHEMA: &str = "f2-loadgen-v1";

/// Most requests one run will send, whatever `--rps`/`--duration` ask for.
pub const MAX_REQUESTS: usize = 100_000;

/// The request profile a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `GET /healthz` only — pure front-end overhead.
    Health,
    /// One identical `POST /run` repeated — the 100%-cache-hit path once
    /// warmed, and the body-identity check.
    Cached,
    /// `POST /run` over two cheap catalog experiments × five seeds (ten
    /// distinct keys) — exercises batching and the sharded cache.
    Sweep,
}

impl Mix {
    /// Parses the `--mix` argument.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the valid profiles.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "health" => Ok(Mix::Health),
            "cached" => Ok(Mix::Cached),
            "sweep" => Ok(Mix::Sweep),
            other => Err(format!(
                "unknown mix {other:?}; expected health, cached or sweep"
            )),
        }
    }

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Health => "health",
            Mix::Cached => "cached",
            Mix::Sweep => "sweep",
        }
    }

    /// Number of distinct requests in the profile (the warmup replays each
    /// of them once per warmup round).
    fn distinct(self) -> usize {
        match self {
            Mix::Health | Mix::Cached => 1,
            Mix::Sweep => 10,
        }
    }

    /// The `i`-th request of the profile: method, path and body.
    fn request(self, i: usize) -> (&'static str, &'static str, String) {
        match self {
            Mix::Health => ("GET", "/healthz", String::new()),
            Mix::Cached => (
                "POST",
                "/run",
                r#"{"experiment":"fig1_landscape","scenario":{"seed":0,"fidelity":"quick"}}"#
                    .to_string(),
            ),
            Mix::Sweep => {
                const EXPERIMENTS: [&str; 2] = ["fig1_landscape", "fig7_riscv_sota"];
                let combo = i % 10;
                let body = format!(
                    r#"{{"experiment":"{}","scenario":{{"seed":{},"fidelity":"quick"}}}}"#,
                    EXPERIMENTS[combo / 5],
                    combo % 5
                );
                ("POST", "/run", body)
            }
        }
    }
}

/// Options of the `loadgen` subcommand.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Target request rate across all connections.
    pub rps: f64,
    /// Length of the timed window, in seconds (with `rps`, this sizes the
    /// request count; the run ends when every request has completed).
    pub duration_s: f64,
    /// Concurrent client connections.
    pub connections: usize,
    /// The request profile.
    pub mix: Mix,
    /// Untimed warmup rounds: each round sends every distinct request of
    /// the mix once (one round primes the cache completely).
    pub warmup: usize,
    /// Wait up to this many seconds for `/healthz` to answer before the
    /// run (0 = the server must already be up).
    pub wait_s: f64,
    /// Write the `f2-loadgen-v1` JSON report to this path.
    pub out: Option<PathBuf>,
    /// Fail the run if any timed request misses the cache.
    pub expect_all_hits: bool,
    /// Do not generate load: `POST /shutdown` and exit.
    pub shutdown: bool,
    /// After the run, scrape `GET /debug/recent` and write its records
    /// one per line here (`f2 check-log` input).
    pub recent: Option<PathBuf>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8032".to_string(),
            rps: 50.0,
            duration_s: 2.0,
            connections: 4,
            mix: Mix::Sweep,
            warmup: 0,
            wait_s: 0.0,
            out: None,
            expect_all_hits: false,
            shutdown: false,
            recent: None,
        }
    }
}

/// The deterministic trace id stamped on the `i`-th timed `/run` request.
/// The `lg-` prefix keeps client-minted ids visually distinct from the
/// server's `f2-` ones in logs and flight-recorder dumps.
pub fn trace_id(i: usize) -> String {
    format!("lg-{i:08x}")
}

/// The merged outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted inside the timed window.
    pub sent: u64,
    /// Requests that completed with HTTP 200.
    pub completed: u64,
    /// Requests that errored at the transport level or returned non-200.
    pub failed: u64,
    /// Timed responses carrying `X-F2-Cache: hit`.
    pub cache_hits: u64,
    /// Timed responses carrying `X-F2-Cache: miss`.
    pub cache_misses: u64,
    /// Responses whose body differed from an earlier response to the
    /// byte-identical request — must always be zero.
    pub body_mismatches: u64,
    /// Completed requests per wall-clock second of the timed window.
    pub throughput_rps: f64,
    /// Latency percentiles over completed requests, in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, in milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, in milliseconds.
    pub p99_ms: f64,
    /// Slowest completed request, in milliseconds.
    pub max_ms: f64,
    /// Mean latency over completed requests, in milliseconds.
    pub mean_ms: f64,
    /// Responses per HTTP status code (transport errors are not counted
    /// here — they never produced a status line).
    pub status_counts: BTreeMap<u16, u64>,
    /// `/run` responses whose `X-F2-Trace-Id` did not echo the id the
    /// client sent — must always be zero.
    pub echo_mismatches: u64,
}

impl LoadReport {
    /// Serialises the report (plus the run configuration) as the
    /// `f2-loadgen-v1` document.
    pub fn to_json(&self, opts: &LoadgenOptions) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), SCHEMA.to_json()),
            ("addr".to_string(), opts.addr.as_str().to_json()),
            ("mix".to_string(), opts.mix.name().to_json()),
            ("rps_target".to_string(), Json::Num(opts.rps)),
            ("duration_s".to_string(), Json::Num(opts.duration_s)),
            ("connections".to_string(), opts.connections.to_json()),
            ("sent".to_string(), self.sent.to_json()),
            ("completed".to_string(), self.completed.to_json()),
            ("failed".to_string(), self.failed.to_json()),
            ("cache_hits".to_string(), self.cache_hits.to_json()),
            ("cache_misses".to_string(), self.cache_misses.to_json()),
            (
                "body_mismatches".to_string(),
                self.body_mismatches.to_json(),
            ),
            ("throughput_rps".to_string(), Json::Num(self.throughput_rps)),
            ("p50_ms".to_string(), Json::Num(self.p50_ms)),
            ("p90_ms".to_string(), Json::Num(self.p90_ms)),
            ("p99_ms".to_string(), Json::Num(self.p99_ms)),
            ("max_ms".to_string(), Json::Num(self.max_ms)),
            ("mean_ms".to_string(), Json::Num(self.mean_ms)),
            (
                "status_counts".to_string(),
                Json::Obj(
                    self.status_counts
                        .iter()
                        .map(|(code, n)| (code.to_string(), n.to_json()))
                        .collect(),
                ),
            ),
            (
                "echo_mismatches".to_string(),
                self.echo_mismatches.to_json(),
            ),
        ])
    }
}

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    host: String,
}

impl Client {
    fn connect(addr: &str, timeout: Duration) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            reader: BufReader::new(stream),
            host: addr.to_string(),
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        self.request_with_headers(method, path, &[], body)
    }

    fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Response, String> {
        http::write_request_with_headers(
            self.reader.get_mut(),
            method,
            path,
            &self.host,
            headers,
            body,
        )
        .map_err(|e| format!("write failed: {e}"))?;
        http::parse_response(&mut self.reader).map_err(|e| format!("read failed: {e}"))
    }
}

/// Deterministic FNV-1a over a response body — the body-identity check.
fn body_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Polls `GET /healthz` on fresh connections until it answers 200 or the
/// deadline passes.
///
/// # Errors
///
/// Returns a description of the last failure when the deadline passes.
pub fn wait_for_healthz(addr: &str, wait_s: f64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(wait_s.max(0.0));
    let mut last;
    loop {
        match Client::connect(addr, Duration::from_secs(2))
            .and_then(|mut c| c.request("GET", "/healthz", b""))
        {
            Ok(resp) if resp.status == 200 => return Ok(()),
            Ok(resp) => last = format!("/healthz answered {}", resp.status),
            Err(e) => last = e,
        }
        if Instant::now() >= deadline {
            return Err(format!("server at {addr} not healthy: {last}"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// What one worker thread measured.
#[derive(Default)]
struct WorkerOutcome {
    sent: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    latencies_ns: Vec<u64>,
    /// `(request index, body hash)` per completed request, merged into the
    /// global identity check after the join.
    bodies: Vec<(usize, u64)>,
    status_counts: BTreeMap<u16, u64>,
    echo_mismatches: u64,
}

/// Replays the worker's slice of the schedule. `interval` paces the
/// *global* request sequence; worker `w` owns indices `w, w+C, w+2C, …`.
fn worker(
    opts: &LoadgenOptions,
    start: Instant,
    interval: Duration,
    indices: &[usize],
) -> WorkerOutcome {
    let mut out = WorkerOutcome::default();
    let timeout = Duration::from_secs(10);
    let mut client = Client::connect(&opts.addr, timeout).ok();
    for &i in indices {
        let target = start + interval * (i as u32);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let (method, path, body) = opts.mix.request(i);
        out.sent += 1;
        if client.is_none() {
            client = Client::connect(&opts.addr, timeout).ok();
        }
        let Some(c) = client.as_mut() else {
            out.failed += 1;
            continue;
        };
        // Only /run participates in trace-id propagation; the server
        // does not echo ids on /healthz.
        let traced = path == "/run";
        let id = trace_id(i);
        let sent_at = Instant::now();
        let result = if traced {
            c.request_with_headers(
                method,
                path,
                &[(f2_core::serve::TRACE_HEADER, id.as_str())],
                body.as_bytes(),
            )
        } else {
            c.request(method, path, body.as_bytes())
        };
        match result {
            Ok(resp) => {
                *out.status_counts.entry(resp.status).or_insert(0) += 1;
                if traced && resp.header("x-f2-trace-id") != Some(id.as_str()) {
                    out.echo_mismatches += 1;
                }
                if resp.status == 200 {
                    out.completed += 1;
                    out.latencies_ns.push(sent_at.elapsed().as_nanos() as u64);
                    match resp.header("x-f2-cache") {
                        Some("hit") => out.cache_hits += 1,
                        Some("miss") => out.cache_misses += 1,
                        _ => {}
                    }
                    out.bodies
                        .push((i % opts.mix.distinct(), body_hash(&resp.body)));
                } else {
                    out.failed += 1;
                }
            }
            Err(_) => {
                out.failed += 1;
                // The connection is in an unknown state; reconnect.
                client = None;
            }
        }
    }
    out
}

fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((q / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1.0e6
}

/// Runs the timed load and merges the outcome.
///
/// # Errors
///
/// Returns a message when the server is unreachable before any load is
/// generated (exit code 2 territory); per-request failures are counted in
/// the report instead.
pub fn execute(opts: &LoadgenOptions) -> Result<LoadReport, String> {
    if opts.wait_s > 0.0 {
        wait_for_healthz(&opts.addr, opts.wait_s)?;
    } else {
        // Fail fast with a usage-style error when nothing listens there.
        Client::connect(&opts.addr, Duration::from_secs(2))?;
    }
    // Untimed warmup: prime the cache with every distinct request.
    for round in 0..opts.warmup {
        let mut client = Client::connect(&opts.addr, Duration::from_secs(30))?;
        for i in 0..opts.mix.distinct() {
            let (method, path, body) = opts.mix.request(i);
            let resp = client
                .request(method, path, body.as_bytes())
                .map_err(|e| format!("warmup round {round}: {e}"))?;
            if resp.status != 200 {
                return Err(format!(
                    "warmup round {round}: request {i} answered {}",
                    resp.status
                ));
            }
        }
    }

    let total = ((opts.rps * opts.duration_s).ceil() as usize).clamp(1, MAX_REQUESTS);
    let connections = opts.connections.max(1).min(total);
    let interval = Duration::from_secs_f64(1.0 / opts.rps.max(1e-3));
    let start = Instant::now();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|w| {
                let indices: Vec<usize> = (w..total).step_by(connections).collect();
                scope.spawn(move || worker(opts, start, interval, &indices))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut report = LoadReport::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut canonical: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for out in outcomes {
        report.sent += out.sent;
        report.completed += out.completed;
        report.failed += out.failed;
        report.cache_hits += out.cache_hits;
        report.cache_misses += out.cache_misses;
        report.echo_mismatches += out.echo_mismatches;
        for (code, n) in out.status_counts {
            *report.status_counts.entry(code).or_insert(0) += n;
        }
        latencies.extend(out.latencies_ns);
        for (req, hash) in out.bodies {
            let first = canonical.entry(req).or_insert(hash);
            if *first != hash {
                report.body_mismatches += 1;
            }
        }
    }
    latencies.sort_unstable();
    report.throughput_rps = report.completed as f64 / elapsed.as_secs_f64().max(1e-9);
    report.p50_ms = percentile(&latencies, 50.0);
    report.p90_ms = percentile(&latencies, 90.0);
    report.p99_ms = percentile(&latencies, 99.0);
    report.max_ms = latencies.last().map_or(0.0, |&ns| ns as f64 / 1.0e6);
    report.mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 / 1.0e6
    };
    Ok(report)
}

/// Scrapes `GET /debug/recent` and renders its records as JSONL, one
/// flight-recorder record per line (the shape `f2 check-log` validates).
///
/// # Errors
///
/// Returns a description when the endpoint is unreachable, answers
/// non-200, or serves a document without records.
pub fn fetch_recent(addr: &str) -> Result<String, String> {
    let mut client = Client::connect(addr, Duration::from_secs(5))?;
    let resp = client.request("GET", "/debug/recent", b"")?;
    if resp.status != 200 {
        return Err(format!("/debug/recent answered {}", resp.status));
    }
    let text = std::str::from_utf8(&resp.body)
        .map_err(|_| "/debug/recent body is not UTF-8".to_string())?;
    let doc =
        Json::parse(text).map_err(|e| format!("/debug/recent body is malformed JSON: {e}"))?;
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or("/debug/recent has no `records` array")?;
    if records.is_empty() {
        return Err("/debug/recent holds no records — did any /run land?".to_string());
    }
    let mut out = String::new();
    for record in records {
        out.push_str(&record.encode());
        out.push('\n');
    }
    Ok(out)
}

/// Fetches the flight recorder into `path` as JSONL.
fn dump_recent(addr: &str, path: &Path) -> Result<usize, String> {
    let lines = fetch_recent(addr)?;
    let count = lines.lines().count();
    std::fs::write(path, lines).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(count)
}

/// Full `f2 loadgen` entry point; prints the summary and returns the
/// process exit code (0 clean, 1 degraded service, 2 unreachable/usage).
pub fn run(opts: &LoadgenOptions) -> u8 {
    if opts.shutdown {
        return match Client::connect(&opts.addr, Duration::from_secs(5))
            .and_then(|mut c| c.request("POST", "/shutdown", b""))
        {
            Ok(resp) if resp.status == 200 => {
                eprintln!("f2 loadgen: server at {} is shutting down", opts.addr);
                0
            }
            Ok(resp) => {
                eprintln!("f2 loadgen: /shutdown answered {}", resp.status);
                1
            }
            Err(e) => {
                eprintln!("f2 loadgen: {e}");
                2
            }
        };
    }
    let report = match execute(opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("f2 loadgen: {e}");
            return 2;
        }
    };
    println!(
        "loadgen {}: {} sent, {} completed, {} failed, {} hit / {} miss, {} mismatch(es)",
        opts.mix.name(),
        report.sent,
        report.completed,
        report.failed,
        report.cache_hits,
        report.cache_misses,
        report.body_mismatches
    );
    println!(
        "  throughput {:.1} req/s; latency p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, \
         max {:.3} ms (machine-dependent, never a KPI)",
        report.throughput_rps, report.p50_ms, report.p90_ms, report.p99_ms, report.max_ms
    );
    let mut failures = 0u32;
    if report.completed == 0 {
        eprintln!("f2 loadgen: no request completed");
        failures += 1;
    }
    if report.failed > 0 {
        eprintln!("f2 loadgen: {} request(s) failed", report.failed);
        failures += 1;
    }
    if report.body_mismatches > 0 {
        eprintln!(
            "f2 loadgen: {} response body/bodies differed for identical requests",
            report.body_mismatches
        );
        failures += 1;
    }
    if opts.expect_all_hits && report.cache_misses > 0 {
        eprintln!(
            "f2 loadgen: expected a fully warmed cache, saw {} miss(es)",
            report.cache_misses
        );
        failures += 1;
    }
    if report.echo_mismatches > 0 {
        eprintln!(
            "f2 loadgen: {} /run response(s) did not echo the client's X-F2-Trace-Id",
            report.echo_mismatches
        );
        failures += 1;
    }
    if let Some(path) = &opts.recent {
        match dump_recent(&opts.addr, path) {
            Ok(n) => eprintln!(
                "f2 loadgen: wrote {n} flight-recorder record(s) to {}",
                path.display()
            ),
            Err(e) => {
                eprintln!("f2 loadgen: {e}");
                failures += 1;
            }
        }
    }
    if let Some(out) = &opts.out {
        match std::fs::write(out, format!("{}\n", report.to_json(opts).encode())) {
            Ok(()) => eprintln!("f2 loadgen: wrote report to {}", out.display()),
            Err(e) => {
                eprintln!("f2 loadgen: cannot write report to {}: {e}", out.display());
                failures += 1;
            }
        }
    }
    u8::from(failures > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_enumerates() {
        assert_eq!(Mix::parse("health").expect("valid"), Mix::Health);
        assert_eq!(Mix::parse("cached").expect("valid"), Mix::Cached);
        assert_eq!(Mix::parse("sweep").expect("valid"), Mix::Sweep);
        assert!(Mix::parse("nope").is_err());
        assert_eq!(Mix::Sweep.distinct(), 10);
        // The sweep cycles through ten distinct request bodies.
        let bodies: std::collections::HashSet<String> =
            (0..20).map(|i| Mix::Sweep.request(i).2).collect();
        assert_eq!(bodies.len(), 10);
        // The cached mix always issues the identical request.
        assert_eq!(Mix::Cached.request(0), Mix::Cached.request(7));
    }

    #[test]
    fn percentiles_and_hashes_are_stable() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert!((percentile(&ns, 50.0) - 51.0).abs() < 2.0);
        assert!((percentile(&ns, 99.0) - 99.0).abs() < 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(body_hash(b"abc"), body_hash(b"abc"));
        assert_ne!(body_hash(b"abc"), body_hash(b"abd"));
    }

    #[test]
    fn unreachable_server_is_a_hard_error() {
        // A port from the ephemeral range with nothing bound to it.
        let opts = LoadgenOptions {
            addr: "127.0.0.1:1".to_string(),
            ..LoadgenOptions::default()
        };
        assert!(execute(&opts).is_err());
        assert_eq!(run(&opts), 2);
    }

    #[test]
    fn report_serialises_the_schema() {
        let report = LoadReport {
            sent: 10,
            completed: 10,
            throughput_rps: 123.4,
            status_counts: [(200, 9), (503, 1)].into_iter().collect(),
            ..LoadReport::default()
        };
        let doc = report.to_json(&LoadgenOptions::default());
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("completed").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("mix").and_then(Json::as_str), Some("sweep"));
        let counts = doc.get("status_counts").expect("status counts");
        assert_eq!(counts.get("200").and_then(Json::as_f64), Some(9.0));
        assert_eq!(counts.get("503").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("echo_mismatches").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn trace_ids_are_deterministic_and_server_valid() {
        assert_eq!(trace_id(0), "lg-00000000");
        assert_eq!(trace_id(0xBEEF), "lg-0000beef");
        assert_ne!(trace_id(1), trace_id(2));
        assert!(f2_core::serve::valid_trace_id(&trace_id(usize::MAX)));
    }
}
