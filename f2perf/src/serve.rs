//! `serve_mixed`: hits under miss load on an in-process `f2 serve`.
//!
//! The load generator holds two keep-alive connections, one thread each:
//! a hit stream (the ops: a closed loop with a think time over warmed
//! cheap scenarios) and a miss stream (background load: a closed loop of
//! never-seen `dna_pipeline` quick scenarios, one in flight, no think
//! time), so the server's single dispatcher is always busy.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use f2_core::experiment::{ExperimentCtx, Registry};
use f2_core::json::Json;
use f2_core::scenario::Scenario;
use f2_core::serve::{self, http, ServeConfig, ServerHandle, TRACE_HEADER};

use crate::stats::{median, percentile, Metrics};
use crate::{Checks, Ctx, Timed, SETUPS};

/// Threads, and keep-alive connections, of the load generator.
pub const LOAD_THREADS: usize = 2;

/// Think time of the hit stream between a reply and its next request.
const THINK: Duration = Duration::from_millis(10);

/// Least share of the timed window with a miss in flight for the run to
/// count: below it, hits were not measured under miss load.
pub const MIN_BUSY_PCT: f64 = 90.0;

/// Warmed scenarios the hit stream cycles through.
const HIT_KEYS: usize = 8;

/// The cheap experiments the hit keys are drawn from.
const HIT_EXPERIMENTS: [&str; 4] = [
    "fig1_landscape",
    "fig7_riscv_sota",
    "table1_fpga",
    "storage_io",
];

/// The miss stream's experiment.
const MISS_EXPERIMENT: &str = "dna_pipeline";

/// Every this many misses, one is recomputed in-process after the run.
const RECHECK_EVERY: usize = 64;

/// The per-layer metrics the traced segment reports.
pub fn per_layer() -> Vec<(String, &'static str)> {
    [
        ("exp.dna_pipeline.quick_ms", "ms"),
        ("serve.queue_ms.p50", "ms"),
        ("serve.queue_ms.p99", "ms"),
        ("serve.busy_pct", "%"),
        ("serve.miss_ms.p50", "ms"),
        ("serve.miss_ms.p99", "ms"),
        ("serve.run_ms.p50", "ms"),
        ("serve.wire_ms.p50", "ms"),
        ("serve.cache_entries", "count"),
        ("serve.batch_size.p50", "count"),
        ("serve.queue_depth.p99", "count"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect()
}

/// The load generator must not use more threads or connections than the
/// machine has cores, or it would compete with the server it measures.
fn check_load_plan(nproc: usize) -> Result<(), String> {
    if LOAD_THREADS > nproc {
        return Err(format!(
            "serve_mixed needs {LOAD_THREADS} load threads and connections, more than the {nproc} core(s) here"
        ));
    }
    Ok(())
}

/// Fails a run whose miss stream left the dispatcher idle for too long.
fn check_busy(busy_pct: f64) -> Result<(), String> {
    if busy_pct < MIN_BUSY_PCT {
        return Err(format!(
            "a miss was in flight for only {busy_pct:.1}% of the window (need {MIN_BUSY_PCT}%)"
        ));
    }
    Ok(())
}

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    host: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(stream),
            host: addr.to_string(),
        })
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        trace_id: &str,
        body: &[u8],
    ) -> Result<http::Response, String> {
        http::write_request_with_headers(
            self.reader.get_mut(),
            method,
            path,
            &self.host,
            &[(TRACE_HEADER, trace_id)],
            body,
        )
        .map_err(|e| format!("{method} {path}: {e}"))?;
        http::parse_response(&mut self.reader).map_err(|e| format!("{method} {path}: {e}"))
    }
}

/// A quick scenario at `seed`, as its JSON text.
fn quick(seed: u64) -> String {
    format!(r#"{{"seed":{seed},"fidelity":"quick"}}"#)
}

fn run_body(experiment: &str, scenario: &str) -> String {
    format!(r#"{{"experiment":"{experiment}","scenario":{scenario}}}"#)
}

/// Checks a `/run` response's status and cache outcome.
fn expect(resp: &http::Response, cache: &str) -> Result<(), String> {
    let got = resp.header("X-F2-Cache").unwrap_or("none");
    if resp.status != 200 || got != cache {
        return Err(format!(
            "expected 200 {cache}, got {} {got}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    Ok(())
}

/// The `report` member of a `/run` body, re-encoded.
fn report_of(body: &[u8]) -> Result<String, String> {
    let doc = Json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("/run body: {e}"))?;
    doc.get("report")
        .map(Json::encode)
        .ok_or_else(|| "/run body has no `report` member".to_string())
}

/// The report an in-process `Experiment::run` gives, encoded as `/run`
/// encodes it, with the run's time in milliseconds.
fn in_process(
    registry: &Registry,
    experiment: &str,
    scenario: &str,
) -> Result<(String, f64), String> {
    let exp = registry
        .find(experiment)
        .ok_or_else(|| format!("experiment `{experiment}` is not registered"))?;
    let doc = Json::parse(scenario).map_err(|e| e.to_string())?;
    let scenario = Scenario::from_json(&doc)?;
    let t = Instant::now();
    let mut ctx = ExperimentCtx::quiet_scenario(&scenario);
    let report = exp
        .run(&mut ctx)
        .map_err(|e| format!("{experiment}: {e}"))?;
    let took = crate::ms(t.elapsed());
    Ok((f2_core::json::ToJson::to_json(&report).encode(), took))
}

/// Recomputes a served body in-process; returns the in-process run time.
fn recheck(
    registry: &Registry,
    experiment: &str,
    scenario: &str,
    body: &[u8],
) -> Result<f64, String> {
    let (want, took) = in_process(registry, experiment, scenario)?;
    if report_of(body)? != want {
        return Err(format!(
            "{experiment} {scenario}: served report differs from an in-process run"
        ));
    }
    Ok(took)
}

/// A warmed hit key.
struct Key {
    body: String,
    warmed: Vec<u8>,
}

/// A running server with its warmed keys.
struct Server {
    handle: ServerHandle,
    registry: Registry,
    keys: Vec<Key>,
}

/// Set-up: start the server, warm and check every hit key, and send a
/// few warm-up misses.
fn start(ctx: &Ctx, log: Option<PathBuf>, checks: &mut Checks) -> Result<Server, String> {
    check_load_plan(std::thread::available_parallelism().map_or(1, |n| n.get()))?;
    let config = ServeConfig {
        threads: 1,
        log,
        ..ServeConfig::default()
    };
    let handle = serve::start(flagship2::experiments::registry(), config)
        .map_err(|e| format!("serve: {e}"))?;
    let registry = flagship2::experiments::registry();
    let mut client = Client::connect(handle.addr())?;
    let mut keys = Vec::with_capacity(HIT_KEYS);
    for i in 0..HIT_KEYS {
        let experiment = HIT_EXPERIMENTS[i % HIT_EXPERIMENTS.len()];
        let scenario = quick(ctx.derive(&format!("serve_mixed/hit/{i}")));
        let body = run_body(experiment, &scenario);
        let warm = client.request("POST", "/run", &format!("w-{i}"), body.as_bytes())?;
        checks.run(
            expect(&warm, "miss")
                .and_then(|()| recheck(&registry, experiment, &scenario, &warm.body).map(drop)),
        );
        let again = client.request("POST", "/run", &format!("w-{i}-again"), body.as_bytes())?;
        checks.run(expect(&again, "hit").and_then(|()| same_body(&again.body, &warm.body)));
        keys.push(Key {
            body,
            warmed: warm.body,
        });
    }
    for j in 0..2 {
        let scenario = quick(ctx.derive(&format!("serve_mixed/warm/{j}")));
        let resp = client.request(
            "POST",
            "/run",
            &format!("w-m{j}"),
            run_body(MISS_EXPERIMENT, &scenario).as_bytes(),
        )?;
        checks.run(expect(&resp, "miss"));
    }
    Ok(Server {
        handle,
        registry,
        keys,
    })
}

fn same_body(got: &[u8], warmed: &[u8]) -> Result<(), String> {
    if got != warmed {
        return Err("hit body differs from its warmed body".to_string());
    }
    Ok(())
}

/// One hit op.
struct Hit {
    trace_id: String,
    ms: f64,
}

/// One miss request.
struct Miss {
    trace_id: String,
    scenario: String,
    sent: Instant,
    done: Instant,
    outcome: Result<(), String>,
    /// Kept for the in-process recheck (every [`RECHECK_EVERY`]th miss).
    body: Option<Vec<u8>>,
}

/// What the timed window observed.
struct Window {
    hits: Vec<Hit>,
    misses: Vec<Miss>,
    /// Window length, start to the last hit's completion, seconds.
    seconds: f64,
    busy_pct: f64,
    /// In-process run times of the rechecked misses, milliseconds.
    recheck_ms: Vec<f64>,
}

/// Runs both streams for `seconds`, then rechecks a sample of misses and
/// counts every hit and miss as an op.
fn window(server: &Server, ctx: &Ctx, seconds: f64, checks: &mut Checks) -> Result<Window, String> {
    let addr = server.handle.addr();
    let (mut hit_client, mut miss_client) = (Client::connect(addr)?, Client::connect(addr)?);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (hit_ops, misses) = std::thread::scope(|s| {
        let miss_stream = s.spawn(|| {
            let mut misses = Vec::new();
            while Instant::now() < deadline {
                let i = misses.len();
                let scenario = quick(ctx.derive(&format!("serve_mixed/miss/{i}")));
                let trace_id = format!("m-{i}");
                let sent = Instant::now();
                let resp = miss_client.request(
                    "POST",
                    "/run",
                    &trace_id,
                    run_body(MISS_EXPERIMENT, &scenario).as_bytes(),
                );
                let done = Instant::now();
                let (outcome, body) = match resp {
                    Ok(r) => (
                        expect(&r, "miss"),
                        (i % RECHECK_EVERY == 0).then_some(r.body),
                    ),
                    Err(e) => (Err(e), None),
                };
                misses.push(Miss {
                    trace_id,
                    scenario,
                    sent,
                    done,
                    outcome,
                    body,
                });
            }
            misses
        });
        let hit_stream = s.spawn(|| {
            let mut hits = Vec::new();
            while Instant::now() < deadline {
                let i = hits.len();
                let key = &server.keys[i % server.keys.len()];
                let trace_id = format!("h-{i}");
                let t = Instant::now();
                let resp = hit_client.request("POST", "/run", &trace_id, key.body.as_bytes());
                let done = Instant::now();
                let outcome = resp.and_then(|mut r| {
                    if ctx.corrupt(i) {
                        r.body.push(b' ');
                    }
                    expect(&r, "hit").and_then(|()| same_body(&r.body, &key.warmed))
                });
                hits.push((
                    Hit {
                        trace_id,
                        ms: crate::ms(done - t),
                    },
                    done,
                    outcome,
                ));
                std::thread::sleep(THINK);
            }
            hits
        });
        let hits = hit_stream.join();
        let misses = miss_stream.join();
        (hits, misses)
    });
    let hit_ops = hit_ops.map_err(|_| "hit stream panicked".to_string())?;
    let mut misses = misses.map_err(|_| "miss stream panicked".to_string())?;
    drop((hit_client, miss_client));
    let end = hit_ops.last().map_or(start, |(_, done, _)| *done);
    let seconds = (end - start).as_secs_f64();
    let in_flight: f64 = misses
        .iter()
        .map(|m| (m.done.min(end).saturating_duration_since(m.sent.max(start))).as_secs_f64())
        .sum();
    let busy_pct = if seconds > 0.0 {
        100.0 * in_flight / seconds
    } else {
        0.0
    };
    checks.run(check_busy(busy_pct));
    let mut recheck_ms = Vec::new();
    for m in &mut misses {
        if let (Ok(()), Some(body)) = (&m.outcome, &m.body) {
            match recheck(&server.registry, MISS_EXPERIMENT, &m.scenario, body) {
                Ok(took) => recheck_ms.push(took),
                Err(e) => m.outcome = Err(e),
            }
        }
    }
    let mut hits = Vec::with_capacity(hit_ops.len());
    for (hit, _, outcome) in hit_ops {
        checks.op(outcome);
        hits.push(hit);
    }
    for m in &mut misses {
        checks.op(std::mem::replace(&mut m.outcome, Ok(())));
    }
    Ok(Window {
        hits,
        misses,
        seconds,
        busy_pct,
        recheck_ms,
    })
}

/// The timed run: [`SETUPS`] segments, each a set-up (server start,
/// warmed and checked keys, warm-up misses) followed by its share of the
/// timed window on that server.
pub fn timed(
    ctx: &Ctx,
    seconds: f64,
    started: Instant,
    checks: &mut Checks,
) -> Result<Timed, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut op_ms, mut window_s) = (Vec::new(), 0.0);
    for k in 0..SETUPS {
        let t0 = if k == 0 { started } else { Instant::now() };
        let server = start(ctx, None, checks)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let w = window(&server, ctx, seconds / SETUPS as f64, checks)?;
        server.handle.join()?;
        op_ms.extend(w.hits.iter().map(|h| h.ms));
        window_s += w.seconds;
    }
    Ok(Timed {
        setup_s,
        op_ms,
        work_per_op: 1.0,
        window_s,
    })
}

/// Reads a number at `path` (member names) in a JSON document.
fn number(doc: &Json, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("/metrics has no number at {}", path.join(".")))
}

/// The traced segment: a timed window with the access log on, then
/// `/metrics` and the log attribute each hit and miss to server layers.
pub fn traced(ctx: &Ctx, budget: f64, checks: &mut Checks, m: &mut Metrics) -> Result<(), String> {
    let start_t = Instant::now();
    let log = ctx.dir.join("access.jsonl");
    let server = start(ctx, Some(log.clone()), checks)?;
    let remaining = (budget - start_t.elapsed().as_secs_f64()).max(1.0);
    let w = window(&server, ctx, remaining, checks)?;
    let metrics =
        Client::connect(server.handle.addr())?.request("GET", "/metrics", "metrics", b"")?;
    server.handle.join()?;
    let doc = Json::parse(&String::from_utf8_lossy(&metrics.body))
        .map_err(|e| format!("/metrics: {e}"))?;

    let text = std::fs::read_to_string(&log).map_err(|e| format!("access log: {e}"))?;
    let mut records: HashMap<String, Json> = HashMap::new();
    for line in text.lines() {
        let rec = Json::parse(line).map_err(|e| format!("access log line: {e}"))?;
        if let Some(id) = rec
            .get("trace_id")
            .and_then(Json::as_str)
            .map(str::to_string)
        {
            records.insert(id, rec);
        }
    }
    let field = |id: &str, name: &str| {
        records
            .get(id)
            .and_then(|r| r.get(name))
            .and_then(Json::as_f64)
    };
    let (mut queue, mut wire, mut run) = (Vec::new(), Vec::new(), Vec::new());
    for h in &w.hits {
        if let (Some(q), Some(total)) = (
            field(&h.trace_id, "queue_ms"),
            field(&h.trace_id, "total_ms"),
        ) {
            queue.push(q);
            wire.push(h.ms - total);
        }
    }
    for miss in &w.misses {
        if let Some(r) = field(&miss.trace_id, "run_ms") {
            run.push(r);
        }
    }
    let miss_ms: Vec<f64> = w
        .misses
        .iter()
        .map(|x| crate::ms(x.done - x.sent))
        .collect();
    if queue.is_empty() || run.is_empty() || w.recheck_ms.is_empty() {
        return Err("serve_mixed: the access log holds no timed hit or miss".to_string());
    }
    m.put("exp.dna_pipeline.quick_ms", median(&w.recheck_ms), "ms");
    m.put("serve.queue_ms.p50", median(&queue), "ms");
    m.put("serve.queue_ms.p99", percentile(&queue, 99.0), "ms");
    m.put("serve.busy_pct", w.busy_pct, "%");
    m.put("serve.miss_ms.p50", median(&miss_ms), "ms");
    m.put("serve.miss_ms.p99", percentile(&miss_ms, 99.0), "ms");
    m.put("serve.run_ms.p50", median(&run), "ms");
    m.put("serve.wire_ms.p50", median(&wire), "ms");
    m.put(
        "serve.cache_entries",
        number(&doc, &["cache", "entries"])?,
        "count",
    );
    m.put(
        "serve.batch_size.p50",
        number(&doc, &["batch", "size_hist", "p50"])?,
        "count",
    );
    m.put(
        "serve.queue_depth.p99",
        number(&doc, &["queue", "depth_hist", "p99"])?,
        "count",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_guard_fails_runs_below_ninety_percent() {
        assert!(check_busy(89.9).is_err());
        assert!(check_busy(0.0).is_err());
        assert!(check_busy(90.0).is_ok());
        assert!(check_busy(99.7).is_ok());
    }

    #[test]
    fn load_generator_fits_the_machine() {
        assert!(check_load_plan(1).is_err());
        assert!(check_load_plan(LOAD_THREADS).is_ok());
        // The window spawns exactly one thread per connection.
        assert_eq!(LOAD_THREADS, 2);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        if nproc >= LOAD_THREADS {
            assert!(check_load_plan(nproc).is_ok());
        }
    }

    #[test]
    fn run_bodies_use_the_scenario_form() {
        let body = run_body("dna_pipeline", &quick(5));
        let doc = Json::parse(&body).expect("JSON");
        let Json::Obj(members) = &doc else {
            panic!("object")
        };
        let names: Vec<&str> = members.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["experiment", "scenario"]);
        let scenario = Scenario::from_json(doc.get("scenario").expect("scenario")).expect("valid");
        assert_eq!(scenario.seed, 5);
        assert!(scenario.fidelity.is_quick());
    }

    #[test]
    fn a_served_hit_matches_an_in_process_run_and_a_wrong_one_does_not() {
        let ctx = Ctx {
            seed: 3,
            inject: false,
            dir: PathBuf::new(),
        };
        let mut checks = Checks::default();
        let server = start(&ctx, None, &mut checks).expect("server starts");
        assert_eq!(checks.run_failures, 0, "{checks:?}");
        let key = &server.keys[0];
        let mut client = Client::connect(server.handle.addr()).expect("connect");
        let resp = client
            .request("POST", "/run", "t-1", key.body.as_bytes())
            .expect("reply");
        assert!(expect(&resp, "hit").is_ok());
        assert!(same_body(&resp.body, &key.warmed).is_ok());
        let mut wrong = resp.body.clone();
        wrong.push(b' ');
        assert!(same_body(&wrong, &key.warmed).is_err());
        assert!(expect(&resp, "miss").is_err());
        drop(client);
        server.handle.join().expect("clean shutdown");
    }
}
