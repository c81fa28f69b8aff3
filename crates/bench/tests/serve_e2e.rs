//! End-to-end test of the serving stack over the real registry: a live
//! `f2 serve` instance on an ephemeral loopback port, driven through raw
//! HTTP and through the `loadgen` client, down to clean shutdown.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

use f2_bench::loadgen::{self, LoadgenOptions, Mix};
use f2_core::json::Json;
use f2_core::serve::{self, http};

fn start_server() -> serve::ServerHandle {
    serve::start(
        flagship2::experiments::registry(),
        serve::ServeConfig {
            threads: 2,
            shards: 8,
            read_timeout: Duration::from_secs(10),
            ..serve::ServeConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port")
}

fn roundtrip(addr: std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> http::Response {
    let stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("socket option");
    let mut client = BufReader::new(stream);
    http::write_request(client.get_mut(), method, path, "e2e", body).expect("request sent");
    http::parse_response(&mut client).expect("response parses")
}

fn parse_body(resp: &http::Response) -> Json {
    Json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("well-formed body")
}

#[test]
fn serve_answers_the_full_protocol_over_the_real_registry() {
    let server = start_server();
    let addr = server.addr();

    // /healthz and /experiments reflect the real registry.
    let health = parse_body(&roundtrip(addr, "GET", "/healthz", b""));
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let listed = parse_body(&roundtrip(addr, "GET", "/experiments", b""));
    let names: Vec<&str> = listed
        .as_array()
        .expect("array")
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"fig1_landscape"));
    assert!(names.contains(&"fig7_riscv_sota"));

    // Unknown names and malformed bodies earn clean 4xx responses.
    assert_eq!(
        roundtrip(
            addr,
            "POST",
            "/run",
            br#"{"experiment":"nope","scenario":{}}"#
        )
        .status,
        404
    );
    assert_eq!(roundtrip(addr, "POST", "/run", b"{broken").status, 400);
    assert_eq!(roundtrip(addr, "GET", "/nope", b"").status, 404);

    // A real experiment computes once, then replays bit-identically.
    let body = br#"{"experiment":"fig1_landscape","scenario":{"seed":0,"fidelity":"quick"}}"#;
    let first = roundtrip(addr, "POST", "/run", body);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-f2-cache"), Some("miss"));
    let report = parse_body(&first);
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some(serve::RUN_SCHEMA)
    );
    assert!(report
        .get("report")
        .and_then(|r| r.get("kpis"))
        .and_then(Json::as_array)
        .is_some_and(|kpis| !kpis.is_empty()));
    let second = roundtrip(addr, "POST", "/run", body);
    assert_eq!(second.header("x-f2-cache"), Some("hit"));
    assert_eq!(
        second.body, first.body,
        "cached replay must be bit-identical"
    );

    // /metrics accounts for the traffic so far.
    let metrics = parse_body(&roundtrip(addr, "GET", "/metrics", b""));
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some(serve::METRICS_SCHEMA)
    );
    let cache = metrics.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));

    server.join().expect("clean join");
}

#[test]
fn loadgen_cached_burst_is_all_hits_after_one_warmup_round() {
    let server = start_server();
    let opts = LoadgenOptions {
        addr: server.addr().to_string(),
        rps: 200.0,
        duration_s: 0.25,
        connections: 4,
        mix: Mix::Cached,
        warmup: 1,
        wait_s: 5.0,
        out: None,
        expect_all_hits: true,
        shutdown: false,
        recent: None,
    };
    let report = loadgen::execute(&opts).expect("server reachable");
    assert!(report.completed > 0, "burst must complete requests");
    assert_eq!(report.failed, 0, "no request may fail");
    assert_eq!(report.body_mismatches, 0, "bodies must be bit-identical");
    assert_eq!(
        report.cache_misses, 0,
        "one warmup round must fully prime the cached mix"
    );
    assert_eq!(report.cache_hits, report.completed);
    assert!(report.throughput_rps > 0.0);
    assert_eq!(
        report.echo_mismatches, 0,
        "every /run must echo the client's trace id"
    );
    assert_eq!(
        report.status_counts.get(&200).copied(),
        Some(report.completed),
        "every response was a 200 and every 200 was counted"
    );
    assert_eq!(loadgen::run(&opts), 0, "exit code agrees with the report");
    server.join().expect("clean join");
}

#[test]
fn loadgen_sweep_exercises_distinct_keys_then_shutdown_stops_the_server() {
    let server = start_server();
    let addr = server.addr().to_string();
    let report = loadgen::execute(&LoadgenOptions {
        addr: addr.clone(),
        rps: 100.0,
        duration_s: 0.3,
        connections: 3,
        mix: Mix::Sweep,
        warmup: 0,
        wait_s: 5.0,
        out: None,
        expect_all_hits: false,
        shutdown: false,
        recent: None,
    })
    .expect("server reachable");
    assert!(report.completed > 0);
    assert_eq!(report.failed, 0);
    assert_eq!(report.body_mismatches, 0);
    assert_eq!(report.echo_mismatches, 0);
    // Ten distinct keys were computed at most once each; everything else
    // came from the cache.
    assert!(report.cache_misses <= 10);

    // The flight recorder replays the traffic in the access-log record
    // shape — dumped as JSONL, it passes `f2 check-log`.
    let recent = loadgen::fetch_recent(&addr).expect("flight recorder answers");
    assert!(recent.lines().count() > 0);
    for line in recent.lines() {
        let record = Json::parse(line).expect("record is one JSON object");
        assert_eq!(
            record.get("schema").and_then(Json::as_str),
            Some(serve::LOG_SCHEMA)
        );
        let id = record
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("trace id");
        assert!(id.starts_with("lg-"), "loadgen stamped every /run: {id}");
    }
    let dump = std::env::temp_dir().join("f2-serve-e2e-recent.jsonl");
    std::fs::write(&dump, &recent).expect("writable tmp");
    assert_eq!(f2_bench::runner::check_log(&dump), 0);
    let _ = std::fs::remove_file(&dump);

    // The --shutdown path stops the daemon; wait() observes it without
    // initiating anything itself.
    assert_eq!(
        loadgen::run(&LoadgenOptions {
            addr,
            shutdown: true,
            ..LoadgenOptions::default()
        }),
        0
    );
    server.wait().expect("clean daemon-side join");
}
