//! `paper_suite`: a closed loop of full-fidelity passes over the 15 paper
//! experiments, one thread, as `f2 run <name>` runs each of them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use f2_core::experiment::{golden, Experiment, ExperimentCtx, ExperimentReport, Registry};
use f2_core::json::Json;
use f2_core::scenario::Scenario;
use f2_core::trace::{self, TraceReport};

use crate::stats::{median, slug, Metrics};
use crate::{Checks, Ctx, Timed, SETUPS};

/// The paper experiments, named explicitly (never through `all`).
pub const EXPERIMENTS: [&str; 15] = [
    "fig1_landscape",
    "fig7_riscv_sota",
    "sparta_speedup",
    "hls/spdataflow",
    "imc_accuracy",
    "imc_energy",
    "htconv_quality",
    "table1_fpga",
    "dna_throughput",
    "dna_pipeline",
    "hetero_pipeline",
    "storage_io",
    "cu_transformer",
    "tcdm_banking",
    "scf_scaling",
];

/// Seeds the timed passes cycle through.
const SEEDS: usize = 4;

/// Where the golden KPI snapshots live, relative to the repository root.
const GOLDEN_DIR: &str = "tests/golden";

/// Span layers reported as `span.<layer>.self_ms`: `experiment` (the
/// benchmark's own `experiment:<name>` span around each run), `section`
/// (every `section:<title>` span), the phase spans the experiments open,
/// the executor's inline maps, and `other` (any span not listed here).
const SPANS: [&str; 37] = [
    "experiment",
    "section",
    "catalog:fig1_landscape",
    "catalog:fig7_riscv_sota",
    "sparta:spmv_sweep",
    "sparta:bfs_sweep",
    "sparta:latency_ablation",
    "spdataflow:spgemm",
    "spdataflow:spmv",
    "spdataflow:pareto",
    "imc:programming",
    "imc:accuracy",
    "imc:mvm_energy",
    "imc:adc_ablation",
    "imc:analog_accumulation",
    "imc:input_mode_ablation",
    "imc:dimc_band",
    "htconv:layer_quality",
    "htconv:model_level",
    "htconv:end_to_end",
    "table1:assemble",
    "dna:software_kernels",
    "dna:accelerator_model",
    "dna:roundtrip_profiles",
    "dna:substitution_sweep",
    "hetero:training_profile",
    "hetero:inference_profile",
    "storage:training_ladder",
    "storage:inference_ladder",
    "cu:transformer_blocks",
    "cu:ablations",
    "tcdm:banks_sweep",
    "tcdm:core_scaling",
    "scf:scaling_hbm410",
    "scf:scaling_hbm820",
    "exec:inline",
    "other",
];

/// Model counters a pass emits, reported as `count.<name>`.
const COUNTERS: [&str; 6] = [
    "dna.distance_calls",
    "scf.bb.hits",
    "scf.bb.misses",
    "scf.bb.invalidations",
    "hetero.pipeline_runs",
    "pareto.sweep_parallel.points",
];

/// The per-layer metrics the traced segment reports.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = EXPERIMENTS
        .iter()
        .map(|e| (format!("exp.{}.ms", slug(e)), "ms"))
        .collect();
    m.push(("exp.cover_pct".to_string(), "%"));
    m.push(("trace.overhead_pct".to_string(), "%"));
    m.extend(
        SPANS
            .iter()
            .map(|s| (format!("span.{}.self_ms", slug(s)), "ms")),
    );
    m.extend(COUNTERS.iter().map(|c| (format!("count.{c}"), "count")));
    m
}

fn scenario(json: &str) -> Scenario {
    let doc = Json::parse(json).expect("scenario literal is JSON");
    Scenario::from_json(&doc).expect("scenario literal is a scenario")
}

/// A full-fidelity, one-thread scenario at `seed`.
fn full(seed: u64) -> Scenario {
    scenario(&format!(r#"{{"seed":{seed},"fidelity":"full"}}"#))
}

fn resolve(registry: &Registry) -> Result<Vec<&dyn Experiment>, String> {
    EXPERIMENTS
        .iter()
        .map(|name| {
            registry
                .find(name)
                .ok_or_else(|| format!("experiment `{name}` is not registered"))
        })
        .collect()
}

/// One pass: every experiment once on `scenario`, its human-readable
/// output rendered into a buffer. Returns each report with its run time
/// in milliseconds. `spans` wraps each run in an `experiment:<name>` span.
fn pass(
    exps: &[&dyn Experiment],
    scenario: &Scenario,
    spans: bool,
) -> Result<Vec<(ExperimentReport, f64)>, String> {
    exps.iter()
        .map(|e| {
            let _span = spans.then(|| trace::span(&format!("experiment:{}", e.name())));
            let t = Instant::now();
            let mut ctx = ExperimentCtx::quiet_scenario(scenario);
            let report = e
                .run(&mut ctx)
                .map_err(|err| format!("{} failed: {err}", e.name()))?;
            black_box(ctx.rendered());
            Ok((report, crate::ms(t.elapsed())))
        })
        .collect()
}

/// Every KPI of a pass, bit for bit.
type Fingerprint = Vec<(String, u64)>;

fn fingerprint(reports: &[(ExperimentReport, f64)]) -> Fingerprint {
    reports
        .iter()
        .flat_map(|(r, _)| {
            r.kpis
                .iter()
                .map(move |k| (format!("{}/{}", r.experiment, k.name), k.value.to_bits()))
        })
        .collect()
}

/// Checks a pass against the first pass of the same seed, which becomes
/// the reference. `corrupt` flips a bit of the observed KPIs first.
fn check_repeat(
    reference: &mut Option<Fingerprint>,
    mut got: Fingerprint,
    corrupt: bool,
) -> Result<(), String> {
    let Some(want) = reference else {
        *reference = Some(got);
        return Ok(());
    };
    if corrupt {
        if let Some(first) = got.first_mut() {
            first.1 ^= 1;
        }
    }
    match want.iter().zip(&got).find(|(w, g)| w != g) {
        None if want.len() == got.len() => Ok(()),
        None => Err(format!(
            "pass emitted {} KPIs, reference {}",
            got.len(),
            want.len()
        )),
        Some((w, g)) => Err(format!(
            "KPI {} is {} on a repeat of its seed, {} before",
            g.0,
            f64::from_bits(g.1),
            f64::from_bits(w.1)
        )),
    }
}

/// The set-up check: a quick pass at the default seed matches the golden
/// snapshots.
fn golden_check(exps: &[&dyn Experiment]) -> Result<(), String> {
    let reports = pass(exps, &scenario(r#"{"fidelity":"quick"}"#), false)?;
    let mut diffs = Vec::new();
    for (report, _) in &reports {
        let path = golden::snapshot_path(Path::new(GOLDEN_DIR), &report.experiment);
        let want = golden::load(&path)?;
        diffs.extend(
            golden::compare(&want, report)
                .into_iter()
                .map(|d| format!("{}: {d}", report.experiment)),
        );
    }
    match diffs.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} golden mismatch(es), first: {first}",
            diffs.len()
        )),
    }
}

/// The timed closed loop: [`SETUPS`] segments, each a set-up (registry,
/// golden check, warm-up pass) followed by its share of the timed passes.
pub fn timed(
    ctx: &Ctx,
    seconds: f64,
    started: Instant,
    checks: &mut Checks,
) -> Result<Timed, String> {
    let scenarios: Vec<Scenario> = (0..SEEDS)
        .map(|j| full(ctx.derive(&format!("paper_suite/{j}"))))
        .collect();
    let mut references: Vec<Option<Fingerprint>> = vec![None; SEEDS];
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut op_ms, mut window_s) = (Vec::new(), 0.0);
    for k in 0..SETUPS {
        let t0 = if k == 0 { started } else { Instant::now() };
        let registry = flagship2::experiments::registry();
        let exps = resolve(&registry)?;
        checks.run(golden_check(&exps));
        let warm = pass(&exps, &scenarios[0], false)?;
        checks.run(check_repeat(&mut references[0], fingerprint(&warm), false));
        setup_s.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds / SETUPS as f64 {
            let i = op_ms.len();
            let j = i % SEEDS;
            let t = Instant::now();
            let out = pass(&exps, &scenarios[j], false);
            op_ms.push(crate::ms(t.elapsed()));
            checks.op(out.and_then(|reports| {
                check_repeat(&mut references[j], fingerprint(&reports), ctx.corrupt(i))
            }));
        }
        window_s += start.elapsed().as_secs_f64();
    }
    Ok(Timed {
        setup_s,
        op_ms,
        work_per_op: EXPERIMENTS.len() as f64,
        window_s,
    })
}

/// Self time per span layer (see [`SPANS`]), milliseconds; spans outside
/// the list are reported on stderr once and folded into `other`.
fn span_self_ms(report: &TraceReport, unlisted: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &report.spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_insert(0.0) += s.dur_us;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = SPANS.iter().map(|s| (*s, 0.0)).collect();
    for s in &report.spans {
        let own = (s.dur_us - children.get(&s.id).copied().unwrap_or(0.0)).max(0.0) / 1e3;
        let layer = s
            .name
            .split_once(':')
            .map_or(s.name.as_str(), |(head, _)| head);
        let key = if matches!(layer, "section" | "experiment") {
            layer
        } else {
            s.name.as_str()
        };
        let slot = match SPANS.iter().find(|l| **l == key) {
            Some(l) => l,
            None => {
                if !unlisted.iter().any(|u| u == key) {
                    unlisted.push(key.to_string());
                }
                &"other"
            }
        };
        *out.get_mut(slot).expect("every layer has a slot") += own;
    }
    out
}

/// The traced segment: one counting pass at the default seed, then
/// untraced and traced passes in turn until `budget` seconds have elapsed.
pub fn traced(ctx: &Ctx, budget: f64, checks: &mut Checks, m: &mut Metrics) -> Result<(), String> {
    let start = Instant::now();
    let registry = flagship2::experiments::registry();
    let exps = resolve(&registry)?;
    let scenarios: Vec<Scenario> = (0..SEEDS)
        .map(|j| full(ctx.derive(&format!("paper_suite/{j}"))))
        .collect();
    let mut references: Vec<Option<Fingerprint>> = vec![None; SEEDS];

    // Counters from one pass at a fixed seed, so they repeat exactly.
    let session = trace::session();
    pass(&exps, &full(f2_core::rng::DEFAULT_SEED), true)?;
    let counted = session.finish();

    let mut exp_ms: Vec<Vec<f64>> = vec![Vec::new(); EXPERIMENTS.len()];
    let (mut cover, mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut unlisted = Vec::new();
    let mut i = 0;
    while i < 6 || start.elapsed().as_secs_f64() < budget {
        let j = (i / 2) % SEEDS;
        let tracing = i % 2 == 1;
        let session = tracing.then(trace::session);
        let t = Instant::now();
        let out = pass(&exps, &scenarios[j], tracing);
        let wall = crate::ms(t.elapsed());
        let report = session.map(|s| s.finish());
        if let Ok(reports) = &out {
            if let Some(report) = &report {
                traced_ms.push(wall);
                for (layer, v) in span_self_ms(report, &mut unlisted) {
                    spans.entry(layer).or_default().push(v);
                }
            } else {
                plain_ms.push(wall);
                cover.push(100.0 * reports.iter().map(|(_, t)| t).sum::<f64>() / wall);
                for (slot, (_, t)) in exp_ms.iter_mut().zip(reports) {
                    slot.push(*t);
                }
            }
        }
        checks.op(out.and_then(|reports| {
            check_repeat(&mut references[j], fingerprint(&reports), ctx.corrupt(i))
        }));
        i += 1;
    }
    if !unlisted.is_empty() {
        eprintln!("f2perf: spans outside the declared layers (counted as `other`): {unlisted:?}");
    }
    if plain_ms.is_empty() || traced_ms.is_empty() {
        return Err("paper_suite: every traced-segment pass failed".to_string());
    }
    for (name, times) in EXPERIMENTS.iter().zip(&exp_ms) {
        m.put(&format!("exp.{}.ms", slug(name)), median(times), "ms");
    }
    m.put("exp.cover_pct", median(&cover), "%");
    m.put(
        "trace.overhead_pct",
        100.0 * (median(&traced_ms) / median(&plain_ms) - 1.0),
        "%",
    );
    for layer in SPANS {
        let v = spans.get(layer).map_or(0.0, |v| median(v));
        m.put(&format!("span.{}.self_ms", slug(layer)), v, "ms");
    }
    for c in COUNTERS {
        m.put(&format!("count.{c}"), counted.counter(c) as f64, "count");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_must_be_bit_identical() {
        let fp = |v: f64| vec![("e/k".to_string(), v.to_bits())];
        let mut reference = None;
        assert!(check_repeat(&mut reference, fp(1.5), false).is_ok());
        assert!(check_repeat(&mut reference, fp(1.5), false).is_ok());
        assert!(check_repeat(&mut reference, fp(1.5 + 1e-15), false).is_err());
        assert!(check_repeat(&mut reference, fp(1.5), true).is_err());
        assert!(check_repeat(&mut reference, vec![], false).is_err());
    }

    #[test]
    fn every_paper_experiment_is_registered() {
        let registry = flagship2::experiments::registry();
        assert_eq!(resolve(&registry).expect("all registered").len(), 15);
    }
}
