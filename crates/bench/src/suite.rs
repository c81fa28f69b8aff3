//! The curated hot-kernel suite behind `f2 bench` / `f2 check-bench`.
//!
//! One kernel per hot path the experiments actually spend their time in:
//! the IMC crossbar and MLP forward pass, the RV32IM ISS, the multicore
//! cluster step loop and the BF16 tensor-core GEMM, SPARTA's event-driven
//! simulator, the ASAP-seeded list scheduler and the SpGEMM cost models,
//! exact vs foveated (HTCONV) 2x upscaling, the DNA storage channel and
//! the three edit-distance kernels, and the parallel Pareto sweep — plus
//! two service-level benchmarks (`serve/*`) that drive a live in-process
//! `f2 serve` daemon over loopback TCP. Labels are stable `group/function`
//! strings — they are the keys `f2 check-bench` joins baseline and
//! current runs on, so renaming one is a breaking change to every
//! committed `BENCH_*.json`.
//!
//! All numbers are wall-clock and machine-dependent: they are **never**
//! KPIs and never appear in golden snapshots. The JSON report exists solely
//! so `f2 check-bench` can flag order-of-magnitude regressions on the same
//! machine (CI compares with a generous `--max-regress` for that reason).

use f2_approx::htconv::{htconv_upscale2x, FoveaSpec};
use f2_approx::image::Image;
use f2_approx::tconv::{bicubic_kernel, tconv_upscale2x};
use f2_core::benchkit::Harness;
use f2_core::bf16::Bf16;
use f2_core::energy::EnergyLedger;
use f2_core::exec::Pool;
use f2_core::json::{Json, ToJson};
use f2_core::pareto::{DesignSpace, Direction};
use f2_core::rng::{rng_for, Rng};
use f2_core::serve::{self, http};
use f2_core::tensor::Matrix;
use f2_core::workload::graph::rmat;

use f2_core::workload::sparse::{generate, SparseMatrix, SparsityPattern};
use f2_dna::channel::ChannelModel;
use f2_dna::levenshtein::{levenshtein_banded, levenshtein_dp, levenshtein_myers};
use f2_dna::sequence::{DnaBase, DnaSequence};
use f2_hls::ir::dot_product_kernel;
use f2_hls::schedule::{list_schedule, OpLatency, ResourceBudget};
use f2_hls::sparta::{run as sparta_run, CacheConfig, Kernel, SpartaConfig, WorkloadBuilder};
use f2_hls::spdataflow::{spgemm_cost, Dataflow, Policy, SpConfig};
use f2_imc::crossbar::{Adc, Crossbar, MvmScratch};
use f2_imc::device::DeviceModel;
use f2_imc::eval::{make_train_test, train_mlp};
use f2_imc::program::ProgramVerify;
use f2_scf::cpu::Cpu;
use f2_scf::isa::asm;
use f2_scf::memory::FlatMemory;
use f2_scf::multicore::{vector_add_program, MulticoreCluster, MulticoreConfig};
use f2_scf::tensor_core::{TensorCore, TensorCoreConfig};

/// Identifies the JSON layout of a bench report.
pub const SCHEMA: &str = "f2-bench-v1";

/// How a suite run is sized and recorded.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Smaller problem sizes (the CI smoke configuration; committed
    /// baselines are generated with this on).
    pub quick: bool,
    /// Measured samples per benchmark.
    pub samples: usize,
    /// Substring filter on `group/function` labels.
    pub filter: Option<String>,
    /// Worker threads for the kernels that take a [`Pool`].
    pub threads: usize,
}

/// Runs the full suite and returns the harness holding the records.
pub fn run_suite(cfg: &SuiteConfig) -> Harness {
    let mut h = Harness::new();
    h.set_samples(cfg.samples);
    h.set_filter(cfg.filter.clone());
    bench_imc(&mut h, cfg.quick);
    bench_scf(&mut h, cfg.quick);
    bench_hls(&mut h, cfg.quick);
    bench_approx(&mut h, cfg.quick);
    bench_dna(&mut h, cfg.quick);
    bench_core(&mut h, cfg.quick, cfg.threads);
    bench_serve(&mut h, cfg);
    h
}

/// Serialises a finished suite run to the `f2-bench-v1` document
/// `check-bench` consumes.
pub fn suite_json(h: &Harness, cfg: &SuiteConfig) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), SCHEMA.to_json()),
        ("threads".to_string(), cfg.threads.to_json()),
        ("quick".to_string(), cfg.quick.to_json()),
        ("samples".to_string(), cfg.samples.to_json()),
        (
            "records".to_string(),
            Json::Arr(h.results().iter().map(ToJson::to_json).collect()),
        ),
    ])
}

fn random_strand(len: usize, rng: &mut impl Rng) -> DnaSequence {
    DnaSequence::from_bases((0..len).map(|_| DnaBase::from_bits(rng.gen())).collect())
}

/// IMC: bit-serial crossbar MVM and the MLP forward pass (accuracy loop).
fn bench_imc(h: &mut Harness, quick: bool) {
    let mut group = h.group("imc");
    let (dim, bits) = if quick { (32, 4) } else { (64, 8) };
    let weights = Matrix::from_fn(dim, dim, |r, c| ((r * 7 + c) % 19) as f64 / 9.0 - 1.0);
    let mut rng = rng_for(51, "bench-imc-program");
    let xbar = Crossbar::program(
        DeviceModel::rram(),
        &weights,
        &ProgramVerify::default(),
        &mut rng,
    )
    .expect("valid weights");
    let x: Vec<f64> = (0..dim).map(|i| (i as f64 / dim as f64) - 0.5).collect();
    group.bench_function("mvm_bit_serial", |bch| {
        let adc = Adc::new(8);
        let mut rng = rng_for(51, "bench-imc-mvm");
        let mut scratch = MvmScratch::new();
        bch.iter(|| {
            let mut ledger = EnergyLedger::new();
            xbar.mvm_bit_serial_with(&x, 1.0, bits, &adc, &mut rng, &mut ledger, &mut scratch)
                .expect("valid geometry")
        })
    });

    let (classes, feat, hidden) = if quick { (4, 12, 16) } else { (6, 16, 24) };
    let (train, test) = make_train_test(classes, feat, 40, 50, 0.25, 7);
    let mlp = train_mlp(&train, hidden, 10, 0.05, 9);
    group.bench_function("eval_forward", |bch| bch.iter(|| mlp.accuracy(&test)));
}

/// SCF: the single-hart ISS run loop, the lockstep multicore step loop
/// and the compute unit's BF16 tensor-core GEMM.
fn bench_scf(h: &mut Harness, quick: bool) {
    let mut group = h.group("scf");
    let iterations = if quick { 500 } else { 2000 };
    let program = [
        asm::addi(1, 0, 0),
        asm::addi(2, 0, iterations),
        asm::add(1, 1, 2),
        asm::addi(2, 2, -1),
        asm::bne(2, 0, -8),
        asm::ecall(),
    ];
    let mut mem = FlatMemory::with_program(0, &program);
    group.bench_function("cpu_run", |bch| {
        bch.iter(|| {
            let mut cpu = Cpu::new(0);
            cpu.run(&mut mem, 1_000_000).expect("program halts")
        })
    });

    let (cores, n) = if quick { (4, 128) } else { (8, 256) };
    let cluster_cfg = MulticoreConfig {
        cores,
        ..MulticoreConfig::snitch_like()
    };
    let vadd = vector_add_program(n as u32);
    group.bench_function("multicore_step", |bch| {
        bch.iter(|| {
            let mut cluster = MulticoreCluster::spmd(cluster_cfg, &vadd).expect("valid config");
            for i in 0..n {
                cluster
                    .tcdm_mut()
                    .write_word(i, i as u32)
                    .expect("in range");
                cluster
                    .tcdm_mut()
                    .write_word(n + i, 2 * i as u32)
                    .expect("in range");
            }
            cluster.run().expect("program halts")
        })
    });

    let dim = if quick { 32 } else { 64 };
    let tc = TensorCore::new(TensorCoreConfig::prototype()).expect("valid config");
    let a: Vec<Bf16> = (0..dim * dim)
        .map(|i| Bf16::from_f32(i as f32 / (dim * dim) as f32))
        .collect();
    group.bench_function("bf16_gemm", |bch| {
        bch.iter(|| tc.gemm(&a, &a, dim, dim, dim).expect("valid dims"))
    });
}

/// Approx: exact transposed-convolution 2x upscaling vs the foveated
/// HTCONV variant (30% fovea) on the same image.
fn bench_approx(h: &mut Harness, quick: bool) {
    let mut group = h.group("approx");
    let side = if quick { 32 } else { 64 };
    let lr = Image::synthetic(side, side, 3);
    let kernel = bicubic_kernel();
    let fovea = FoveaSpec::centered_fraction(side, side, 0.3);
    group.bench_function("tconv_upscale2x", |bch| {
        bch.iter(|| tconv_upscale2x(&lr, &kernel))
    });
    group.bench_function("htconv_upscale2x", |bch| {
        bch.iter(|| htconv_upscale2x(&lr, &kernel, &fovea))
    });
}

/// HLS: SPARTA's event-driven simulator and ASAP-seeded list scheduling
/// (internally ASAP + ALAP mobility + the ready-list scan).
fn bench_hls(h: &mut Harness, quick: bool) {
    let mut group = h.group("hls");
    let graph = rmat(if quick { 7 } else { 8 }, 8, 5);
    let wl = WorkloadBuilder::new(&SparseMatrix::from_csr_graph(&graph))
        .kernel(Kernel::Spmv)
        .build();
    let cfg = SpartaConfig {
        accelerators: 4,
        contexts_per_accel: 8,
        mem_channels: 4,
        mem_latency: 100,
        noc_hop_latency: 2,
        context_switch_penalty: 1,
        cache: Some(CacheConfig::small()),
    };
    group.bench_function("sparta_spmv", |bch| {
        bch.iter(|| sparta_run(&wl, &cfg).expect("valid config"))
    });

    let dfg = dot_product_kernel(if quick { 64 } else { 256 });
    let lat = OpLatency::default();
    let budget = ResourceBudget::new(4, 4, 2);
    group.bench_function("schedule_asap", |bch| {
        bch.iter(|| list_schedule(&dfg, &lat, &budget).expect("feasible"))
    });

    // SpGEMM analytical cost models on a mixed-sparsity (power-law) matrix:
    // the cheapest fixed dataflow's symbolic pass, then the adaptive DP.
    let rows = if quick { 256 } else { 1024 };
    let m = generate(SparsityPattern::PowerLaw, rows, rows, 8, 5).expect("valid spec");
    let sp_cfg = SpConfig {
        tile_rows: 8,
        buffer_words: 512,
        ..SpConfig::default()
    };
    group.bench_function("spgemm_inner", |bch| {
        bch.iter(|| {
            spgemm_cost(&m, &m, Policy::Fixed(Dataflow::Inner), &sp_cfg).expect("valid config")
        })
    });
    group.bench_function("spgemm_adaptive", |bch| {
        bch.iter(|| spgemm_cost(&m, &m, Policy::Adaptive, &sp_cfg).expect("valid config"))
    });
}

/// DNA: the substitution/indel/dropout channel over a strand pool, and
/// the exact, banded (k = 16) and Myers bit-parallel edit distances on
/// one 150 bp read pair.
fn bench_dna(h: &mut Harness, quick: bool) {
    let mut group = h.group("dna");
    let strands_n = if quick { 20 } else { 100 };
    let mut rng = rng_for(52, "bench-dna-strands");
    let strands: Vec<DnaSequence> = (0..strands_n)
        .map(|_| random_strand(150, &mut rng))
        .collect();
    let model = ChannelModel::typical();
    group.bench_function("channel", |bch| {
        let mut rng = rng_for(52, "bench-dna-channel");
        bch.iter(|| model.sequence_pool(&strands, &mut rng))
    });

    let (a, b) = (&strands[0], &strands[1]);
    group.bench_function("levenshtein_dp", |bch| bch.iter(|| levenshtein_dp(a, b)));
    group.bench_function("levenshtein_banded_k16", |bch| {
        bch.iter(|| levenshtein_banded(a, b, 16))
    });
    group.bench_function("levenshtein_myers", |bch| {
        bch.iter(|| levenshtein_myers(a, b))
    });
}

/// Core: the work-stealing parallel Pareto sweep over a synthetic
/// design space (evaluator cost dominated by the per-point math).
fn bench_core(h: &mut Harness, quick: bool, threads: usize) {
    let mut group = h.group("core");
    let per_axis = if quick { 6 } else { 10 };
    let space = DesignSpace::new()
        .axis("pe", (1..=per_axis).map(|v| v as f64))
        .axis("buf_kb", (1..=per_axis).map(|v| (v * 16) as f64))
        .axis("freq_mhz", (1..=per_axis).map(|v| (v * 100) as f64));
    let dirs = [Direction::Maximize, Direction::Minimize];
    let pool = Pool::new(threads.max(1));
    group.bench_function("pareto_sweep", |bch| {
        bch.iter(|| {
            space.sweep_with(&dirs, &pool, |p| {
                let (pe, buf, freq) = (p["pe"], p["buf_kb"], p["freq_mhz"]);
                let mut perf = 0.0;
                for k in 1..=64 {
                    perf += (pe * freq / (buf + k as f64)).sqrt();
                }
                vec![perf, pe * buf * freq]
            })
        })
    });
}

/// Serve: end-to-end service-level numbers over a live in-process server
/// (loopback TCP, real HTTP parsing, batching dispatcher, sharded cache).
/// The cache is primed first, so both benchmarks measure the *service*
/// path — parse, route, cache lookup, response write — not the experiment.
///
/// `p99_latency` times one cached `POST /run` round-trip per iteration
/// (the statistic gated in CI is benchkit's outlier-robust p10 of those
/// round-trips; the label names the service-level quantity it stands in
/// for). `throughput` times a burst of [`BURST`] keep-alive requests, so
/// its per-iteration cost is the inverse of sustained request throughput.
fn bench_serve(h: &mut Harness, cfg: &SuiteConfig) {
    /// Requests per `serve/throughput` iteration.
    const BURST: usize = 32;
    /// The identical cached request both benchmarks replay.
    const BODY: &[u8] =
        br#"{"experiment":"fig1_landscape","scenario":{"seed":0,"fidelity":"quick"}}"#;
    let wants = |label: &str| {
        cfg.filter
            .as_deref()
            .is_none_or(|needle| label.contains(needle))
    };
    // Don't boot a server when the filter excludes both serve labels.
    if !wants("serve/p99_latency") && !wants("serve/throughput") {
        return;
    }
    let server = serve::start(
        flagship2::experiments::registry(),
        serve::ServeConfig {
            threads: 2,
            shards: 8,
            ..serve::ServeConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port");
    let addr = server.addr();
    let connect = || {
        let stream = std::net::TcpStream::connect(addr).expect("server is listening");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("socket option");
        let _ = stream.set_nodelay(true);
        std::io::BufReader::new(stream)
    };
    let post_run = |client: &mut std::io::BufReader<std::net::TcpStream>| {
        http::write_request(client.get_mut(), "POST", "/run", "bench", BODY)
            .expect("request written");
        let resp = http::parse_response(client).expect("response parses");
        assert_eq!(resp.status, 200, "serve bench request failed");
        resp
    };
    // Prime the cache (and check trace-id propagation end-to-end on the
    // way): every measured request below is a pure hit, and the measured
    // iterations stay header-free so the workload matches the committed
    // baselines byte for byte.
    {
        let mut client = connect();
        http::write_request_with_headers(
            client.get_mut(),
            "POST",
            "/run",
            "bench",
            &[(serve::TRACE_HEADER, "bench-prime")],
            BODY,
        )
        .expect("request written");
        let resp = http::parse_response(&mut client).expect("response parses");
        assert_eq!(resp.status, 200, "serve bench priming failed");
        assert_eq!(
            resp.header("x-f2-trace-id"),
            Some("bench-prime"),
            "serve must echo the client's trace id"
        );
    }

    let mut group = h.group("serve");
    group.bench_function("p99_latency", |bch| {
        let mut client = connect();
        bch.iter(|| post_run(&mut client));
    });
    group.bench_function("throughput", |bch| {
        let mut client = connect();
        bch.iter(|| {
            for _ in 0..BURST {
                post_run(&mut client);
            }
        });
    });
    drop(group);
    server.shutdown();
    server.join().expect("server joins cleanly after the bench");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stable labels, in registration order.
    pub const EXPECTED_LABELS: [&str; 18] = [
        "imc/mvm_bit_serial",
        "imc/eval_forward",
        "scf/cpu_run",
        "scf/multicore_step",
        "scf/bf16_gemm",
        "hls/sparta_spmv",
        "hls/schedule_asap",
        "hls/spgemm_inner",
        "hls/spgemm_adaptive",
        "approx/tconv_upscale2x",
        "approx/htconv_upscale2x",
        "dna/channel",
        "dna/levenshtein_dp",
        "dna/levenshtein_banded_k16",
        "dna/levenshtein_myers",
        "core/pareto_sweep",
        "serve/p99_latency",
        "serve/throughput",
    ];

    #[test]
    fn suite_registers_the_stable_labels() {
        let cfg = SuiteConfig {
            quick: true,
            samples: 3,
            filter: None,
            threads: 2,
        };
        let h = run_suite(&cfg);
        let labels: Vec<&str> = h.results().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, EXPECTED_LABELS);
    }

    #[test]
    fn suite_json_document_shape() {
        let cfg = SuiteConfig {
            quick: true,
            samples: 3,
            filter: Some("dna/channel".to_string()),
            threads: 1,
        };
        let h = run_suite(&cfg);
        let doc = suite_json(&h, &cfg);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("threads").and_then(Json::as_f64), Some(1.0));
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .expect("records array");
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].get("label").and_then(Json::as_str),
            Some("dna/channel")
        );
        assert!(records[0].get("p10_ns").and_then(Json::as_f64).is_some());
    }
}
