//! This thrust's registry entries for the unified `f2` runner.

use std::time::Instant;

use f2_core::experiment::render::fmt;
use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport, ParamSpec};
use f2_core::kpi::GigabytesPerSecond;
use f2_core::workload::transformer::{bert_base_block, tiny_block, TransformerConfig};

use crate::cluster::{ComputeUnit, CuConfig};
use crate::fabric::scaling_sweep;
use crate::multicore::{
    sweep_configs, vector_add_program, MulticoreCluster, MulticoreConfig, MulticoreReport,
};
use crate::power::CuPowerModel;

/// E12 / Fig. 9 — the prototype Compute Unit on BFloat16 transformer blocks.
///
/// Reproduces "up to 150 GFLOPS and 1.5 TFLOPS/W at 460 MHz, 0.55 V" plus
/// the per-phase cycle breakdown and ablations over core count, elementwise
/// engine, and supply voltage. The CU model is analytic, so quick and full
/// fidelity coincide.
pub struct CuTransformer;

impl CuTransformer {
    fn block_table(
        &self,
        ctx: &mut ExperimentCtx,
        cu: &ComputeUnit,
        blocks: &[(&str, &str, TransformerConfig)],
    ) {
        let mut rows = Vec::new();
        for (name, slug, block) in blocks {
            let r = cu.run_transformer_block(block);
            ctx.kpi(&format!("blocks/{slug}_gflops"), r.achieved.value());
            ctx.kpi(
                &format!("blocks/{slug}_tflops_per_watt"),
                r.efficiency.value() / 1000.0,
            );
            rows.push(vec![
                name.to_string(),
                r.flops.to_string(),
                r.cycles.gemm.to_string(),
                (r.cycles.softmax + r.cycles.layernorm).to_string(),
                fmt(r.achieved.value(), 1),
                fmt(r.power.value() * 1000.0, 1),
                fmt(r.efficiency.value() / 1000.0, 2),
                fmt(r.gemm_utilization * 100.0, 1),
            ]);
        }
        ctx.table(
            &[
                "Block",
                "FLOPs",
                "GEMM cyc",
                "Elementwise cyc",
                "GFLOPS",
                "Power mW",
                "TFLOPS/W",
                "Array util %",
            ],
            &rows,
        );
    }
}

impl Experiment for CuTransformer {
    fn name(&self) -> &'static str {
        "cu_transformer"
    }

    fn summary(&self) -> &'static str {
        "E12 / Fig. 9: prototype CU KPIs on BF16 transformer blocks"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e12", "scf", "figure"]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        let cu = ComputeUnit::prototype();
        ctx.note(&format!(
            "Prototype CU: {} cores + {}x{} bf16 tensor array, {} KiB TCDM,",
            cu.config().cores,
            cu.config().tensor.rows,
            cu.config().tensor.cols,
            cu.config().tcdm_kib
        ));
        ctx.note(&format!(
            "GF12 @ {:.0} MHz / {:.2} V, area {} mm2; ISS-calibrated scalar loop: {:.1} cyc/elem",
            cu.power_model().clock.value(),
            cu.power_model().vdd,
            cu.power_model().area.value(),
            cu.loop_cycles_per_element()
        ));

        ctx.section("Fig. 9 KPIs on transformer blocks");
        let blocks_phase = ctx.span("cu:transformer_blocks");
        self.block_table(
            ctx,
            &cu,
            &[
                ("BERT-base (n=128)", "bert_base", bert_base_block()),
                ("tiny (n=64,d=128)", "tiny", tiny_block()),
                (
                    "long-seq (n=512,d=768)",
                    "long_seq",
                    TransformerConfig::new(768, 12, 512, 3072).expect("valid config"),
                ),
            ],
        );
        ctx.note("\nPublished: up to 150 GFLOPS, 1.5 TFLOPS/W on transformer blocks.");

        drop(blocks_phase);
        ctx.section("Ablation: core count (elementwise scaling)");
        let _phase = ctx.span("cu:ablations");
        let mut rows = Vec::new();
        for cores in [2usize, 4, 8, 16] {
            let cfg = CuConfig {
                cores,
                ..CuConfig::prototype()
            };
            let cu = ComputeUnit::new(cfg, CuPowerModel::gf12_prototype()).expect("valid config");
            let r = cu.run_transformer_block(&bert_base_block());
            ctx.kpi(&format!("cores/{cores}_gflops"), r.achieved.value());
            rows.push(vec![
                cores.to_string(),
                (r.cycles.softmax + r.cycles.layernorm).to_string(),
                fmt(r.achieved.value(), 1),
                fmt(r.efficiency.value() / 1000.0, 2),
            ]);
        }
        ctx.table(&["Cores", "Elementwise cyc", "GFLOPS", "TFLOPS/W"], &rows);

        ctx.section("Ablation: elementwise engine — scalar cores vs Spatz vector unit");
        let long = TransformerConfig::new(768, 12, 512, 3072).expect("valid config");
        let mut rows = Vec::new();
        for (label, slug, cfg) in [
            ("8 scalar cores", "scalar", CuConfig::prototype()),
            (
                "Spatz 8-lane vector unit",
                "vector",
                CuConfig::prototype_with_vector(),
            ),
        ] {
            let cu = ComputeUnit::new(cfg, CuPowerModel::gf12_prototype()).expect("valid config");
            let r = cu.run_transformer_block(&long);
            ctx.kpi(&format!("engine/{slug}_gflops"), r.achieved.value());
            rows.push(vec![
                label.to_string(),
                (r.cycles.softmax + r.cycles.layernorm).to_string(),
                fmt(r.achieved.value(), 1),
                fmt(r.efficiency.value() / 1000.0, 2),
            ]);
        }
        ctx.table(&["Engine", "Elementwise cyc", "GFLOPS", "TFLOPS/W"], &rows);

        ctx.section("Ablation: supply voltage (CV^2 scaling)");
        let mut rows = Vec::new();
        for vdd in [0.55, 0.65, 0.8] {
            let cu = ComputeUnit::new(
                CuConfig::prototype(),
                CuPowerModel::gf12_prototype().at_voltage(vdd),
            )
            .expect("valid config");
            let r = cu.run_transformer_block(&bert_base_block());
            ctx.kpi(
                &format!("vdd/{}_tflops_per_watt", (vdd * 100.0) as u32),
                r.efficiency.value() / 1000.0,
            );
            rows.push(vec![
                fmt(vdd, 2),
                fmt(r.power.value() * 1000.0, 1),
                fmt(r.efficiency.value() / 1000.0, 2),
            ]);
        }
        ctx.table(&["Vdd", "Power mW", "TFLOPS/W"], &rows);
        Ok(ctx.report(self.name()))
    }
}

/// E12 ablation — TCDM banking sensitivity, execution-driven.
///
/// Eight Snitch-like ISS cores run an SPMD vector kernel against the shared
/// L1 while the bank count sweeps, exposing the conflict-rate knee that
/// sizes the interleaving. The per-configuration simulations are
/// independent, so the sweep runs on the context's worker pool and the
/// experiment cross-checks it against a sequential sweep (bit-identical
/// reports); the host-side speedup is wall-clock and therefore reported as
/// a note, never a KPI.
pub struct TcdmBanking;

impl TcdmBanking {
    fn vector_len(ctx: &ExperimentCtx) -> u32 {
        ctx.param_u64("vector_len", if ctx.quick() { 256 } else { 512 }) as u32
    }

    fn preload_n(n: u32) -> impl Fn(&mut MulticoreCluster) + Sync {
        move |cluster: &mut MulticoreCluster| {
            for i in 0..n as usize {
                cluster
                    .tcdm_mut()
                    .write_word(i, i as u32)
                    .expect("in range");
                cluster
                    .tcdm_mut()
                    .write_word(n as usize + i, 7 * i as u32)
                    .expect("in range");
            }
        }
    }

    fn run_sequential(
        configs: &[MulticoreConfig],
        program: &[u32],
        preload: &(impl Fn(&mut MulticoreCluster) + Sync),
    ) -> Vec<MulticoreReport> {
        configs
            .iter()
            .map(|cfg| {
                let mut cluster = MulticoreCluster::spmd(*cfg, program).expect("valid config");
                preload(&mut cluster);
                cluster.run().expect("programs halt")
            })
            .collect()
    }
}

impl Experiment for TcdmBanking {
    fn name(&self) -> &'static str {
        "tcdm_banking"
    }

    fn summary(&self) -> &'static str {
        "E12 ablation: execution-driven TCDM banking and core-count sweep"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e12", "scf", "iss"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::u64(
                "vector_len",
                "SPMD vector-add elements (quick 256, full 512)",
            ),
            ParamSpec::u64("cores", "ISS cores in the banking sweep (default 8)"),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        let n = Self::vector_len(ctx);
        let cores = ctx.param_u64("cores", 8) as usize;
        let program = vector_add_program(n);
        let preload = Self::preload_n(n);

        ctx.section(&format!(
            "{cores}-core SPMD vector-add ({n} elements): TCDM banks vs conflicts"
        ));
        let bank_counts: &[usize] = if ctx.quick() {
            &[1, 4, 16, 64]
        } else {
            &[1, 2, 4, 8, 16, 32, 64]
        };
        let configs: Vec<MulticoreConfig> = bank_counts
            .iter()
            .map(|&banks| MulticoreConfig {
                cores,
                tcdm_banks: banks,
                tcdm_words_per_bank: 4096 / banks,
                max_cycles: 50_000_000,
            })
            .collect();

        let banks_phase = ctx.span("tcdm:banks_sweep");
        let t_seq = Instant::now();
        let sequential = Self::run_sequential(&configs, &program, &preload);
        let t_seq = t_seq.elapsed();

        let t_par = Instant::now();
        let reports =
            sweep_configs(ctx.exec(), &configs, &program, &preload).expect("programs halt");
        let t_par = t_par.elapsed();
        drop(banks_phase);

        assert_eq!(
            reports, sequential,
            "parallel sweep must be bit-identical to the sequential sweep"
        );

        let mut rows = Vec::new();
        for (cfg, report) in configs.iter().zip(&reports) {
            ctx.kpi(
                &format!("banking/banks_{}_cycles", cfg.tcdm_banks),
                report.cycles as f64,
            );
            ctx.kpi(
                &format!("banking/banks_{}_conflict_rate", cfg.tcdm_banks),
                report.conflict_rate(),
            );
            ctx.record(&format!("tcdm_banking/banks_{}", cfg.tcdm_banks), report);
            rows.push(vec![
                cfg.tcdm_banks.to_string(),
                report.cycles.to_string(),
                report.tcdm_accesses.to_string(),
                report.conflict_stalls.to_string(),
                fmt(report.conflict_rate(), 3),
            ]);
        }
        ctx.table(
            &[
                "Banks",
                "Cycles",
                "TCDM accesses",
                "Conflict stalls",
                "Stalls/access",
            ],
            &rows,
        );
        ctx.note("\nShape check: conflicts collapse once banks >= 2x cores — the");
        ctx.note("interleaving rule Snitch-class clusters (and the Fig. 9 CU) follow.");
        ctx.note(&format!(
            "\nHost sweep: sequential {:.1} ms, parallel {:.1} ms on {} workers \
             ({:.2}x, identical reports).",
            t_seq.as_secs_f64() * 1e3,
            t_par.as_secs_f64() * 1e3,
            ctx.threads(),
            t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
        ));

        ctx.section("Core-count scaling at 32 banks (execution-driven)");
        let _phase = ctx.span("tcdm:core_scaling");
        let core_counts: &[usize] = if ctx.quick() {
            &[1, 2, 8]
        } else {
            &[1, 2, 4, 8, 16]
        };
        let scaling: Vec<MulticoreConfig> = core_counts
            .iter()
            .map(|&cores| MulticoreConfig {
                cores,
                tcdm_banks: 32,
                tcdm_words_per_bank: 128,
                max_cycles: 50_000_000,
            })
            .collect();
        let reports = sweep_configs(ctx.exec(), &scaling, &program, |_| {}).expect("programs halt");
        let base = reports[0].cycles;
        let mut rows = Vec::new();
        for (cfg, report) in scaling.iter().zip(&reports) {
            ctx.kpi(
                &format!("scaling/cores_{}_speedup", cfg.cores),
                base as f64 / report.cycles as f64,
            );
            ctx.record(&format!("tcdm_banking/cores_{}", cfg.cores), report);
            rows.push(vec![
                cfg.cores.to_string(),
                report.cycles.to_string(),
                fmt(base as f64 / report.cycles as f64, 2),
            ]);
        }
        ctx.table(&["Cores", "Cycles", "Speedup"], &rows);
        Ok(ctx.report(self.name()))
    }
}

/// E13 / Fig. 8 — Scalable Compute Fabric sizing study.
///
/// Reproduces the fabric-scaling behaviour the SCF template is designed
/// around: near-linear throughput growth with CU count until the shared
/// HBM (or NoC bisection) saturates, and entry into the >1 W power regime
/// the paper targets.
pub struct ScfScaling;

impl Experiment for ScfScaling {
    fn name(&self) -> &'static str {
        "scf_scaling"
    }

    fn summary(&self) -> &'static str {
        "E13 / Fig. 8: SCF throughput scaling until HBM saturation"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e13", "scf", "figure"]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        let block = bert_base_block();
        let counts: &[usize] = if ctx.quick() {
            &[1, 4, 16, 64, 256, 1024]
        } else {
            &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        };

        for (label, slug, hbm) in [
            ("single HBM2E stack (410 GB/s)", "hbm410", 410.0),
            ("dual stack (820 GB/s)", "hbm820", 820.0),
        ] {
            ctx.section(&format!("Throughput scaling, {label}"));
            let _phase = ctx.span(&format!("scf:scaling_{slug}"));
            let reports =
                scaling_sweep(counts, &block, GigabytesPerSecond::new(hbm)).expect("valid sweep");
            let mut knee = None;
            let rows: Vec<Vec<String>> = reports
                .iter()
                .map(|r| {
                    if r.hbm_bound && knee.is_none() {
                        knee = Some(r.cu_count);
                    }
                    vec![
                        r.cu_count.to_string(),
                        fmt(r.achieved.value() / 1000.0, 2),
                        fmt(r.blocks_per_second, 0),
                        fmt(r.power.value(), 2),
                        fmt(r.scaling_efficiency * 100.0, 0),
                        if r.hbm_bound { "memory" } else { "compute" }.to_string(),
                    ]
                })
                .collect();
            ctx.table(
                &[
                    "CUs",
                    "TFLOPS",
                    "Blocks/s",
                    "Power W",
                    "Scaling %",
                    "Bound by",
                ],
                &rows,
            );
            let last = reports.last().expect("non-empty sweep");
            ctx.kpi(
                &format!("{slug}/max_tflops"),
                last.achieved.value() / 1000.0,
            );
            ctx.kpi(
                &format!("{slug}/knee_cu_count"),
                knee.unwrap_or(last.cu_count) as f64,
            );
        }
        ctx.note("\nShape check: linear scaling until HBM saturates; doubling HBM");
        ctx.note("moves the knee out; fabric power crosses 1 W within a handful of");
        ctx.note("CUs — the >1W HPC-inference regime of Fig. 7/8.");
        Ok(ctx.report(self.name()))
    }
}

/// This crate's experiments, for registry assembly.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(CuTransformer),
        Box::new(TcdmBanking),
        Box::new(ScfScaling),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::scenario::Scenario;

    #[test]
    fn cu_transformer_hits_published_regime() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        let report = CuTransformer.run(&mut ctx).expect("runs");
        let gflops = report.kpi("blocks/bert_base_gflops").expect("kpi");
        assert!(
            gflops > 100.0 && gflops <= 160.0,
            "published 'up to 150 GFLOPS' regime (got {gflops})"
        );
    }

    #[test]
    fn tcdm_banking_conflicts_collapse_with_banks() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default()).with_threads(2);
        let report = TcdmBanking.run(&mut ctx).expect("runs");
        let few = report.kpi("banking/banks_1_conflict_rate").expect("kpi");
        let many = report.kpi("banking/banks_64_conflict_rate").expect("kpi");
        assert!(few > many, "conflict rate must fall as banks grow");
    }

    #[test]
    fn scf_scaling_knee_moves_with_hbm() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        let report = ScfScaling.run(&mut ctx).expect("runs");
        let single = report.kpi("hbm410/knee_cu_count").expect("kpi");
        let dual = report.kpi("hbm820/knee_cu_count").expect("kpi");
        assert!(dual >= single, "doubling HBM moves the knee out");
    }
}
