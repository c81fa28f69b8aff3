//! This thrust's registry entries for the unified `f2` runner.

use f2_core::experiment::render::fmt;
use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport, ParamSpec};

use crate::device::ComputeDevice;
use crate::pipeline::{run_inference, run_training, PipelineReport, PipelineSpec, Stage};
use crate::storage::StorageDevice;

fn stage_row(report: &PipelineReport) -> Vec<String> {
    let t = |s| fmt(report.stage_time(s) * 1e3, 1);
    vec![
        report.device.clone(),
        t(Stage::Load),
        t(Stage::Preprocess),
        t(Stage::Transfer),
        t(Stage::Compute),
        t(Stage::Postprocess),
        fmt(report.total_time * 1e3, 1),
        format!("{:?}", report.bottleneck()),
    ]
}

fn kpi_slug(device: &str) -> String {
    device
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// E7 / §VI — benchmarking campaign on the medical-image-segmentation DL
/// pipeline across CPU / GPU / FPGA.
///
/// Reproduces the profiling tables: per-stage times, bottleneck
/// identification, and the platform trade-off (GPU fastest training, FPGA
/// best inference energy). The analytic pipeline model is deterministic, so
/// all timings here are modelled, not wall-clock, and safe to pin as KPIs.
pub struct HeteroPipeline;

impl Experiment for HeteroPipeline {
    fn name(&self) -> &'static str {
        "hetero_pipeline"
    }

    fn summary(&self) -> &'static str {
        "E7 / §VI: CPU/GPU/FPGA profile of the segmentation DL pipeline"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e7", "hetero"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::u64(
            "num_samples",
            "campaign samples through the pipeline (default: segmentation spec)",
        )]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        let mut spec = PipelineSpec::segmentation_default();
        spec.num_samples = ctx.param_u64("num_samples", spec.num_samples);
        let nvme = StorageDevice::nvme_ssd();
        ctx.note(&format!(
            "Workload: {} ({} MACs/sample), {} samples of {:.1} KB",
            spec.model.name(),
            spec.model.total_macs(),
            spec.num_samples,
            spec.sample_bytes / 1e3
        ));

        ctx.section("Training epoch profile per device (ms, NVMe storage)");
        let training_phase = ctx.span("hetero:training_profile");
        // Device profiles are independent analytic models with very
        // different costs — run the campaign on the shared executor pool.
        let trainers: Vec<ComputeDevice> = ComputeDevice::campaign()
            .into_iter()
            .filter(|d| d.trains)
            .collect();
        let reports = ctx.exec().map(&trainers, |d| run_training(&spec, d, &nvme));
        let mut rows = Vec::new();
        for r in &reports {
            ctx.counter("hetero.pipeline_runs");
            ctx.kpi(
                &format!("training/{}_epoch_ms", kpi_slug(&r.device)),
                r.total_time * 1e3,
            );
            rows.push(stage_row(r));
        }
        ctx.table(
            &[
                "Device",
                "Load",
                "Preproc",
                "Xfer",
                "Compute",
                "Postproc",
                "Total",
                "Bottleneck",
            ],
            &rows,
        );

        drop(training_phase);
        ctx.section("Inference profile per device (ms for the campaign, NVMe)");
        let _phase = ctx.span("hetero:inference_profile");
        let devices = ComputeDevice::campaign();
        let reports = ctx.exec().map(&devices, |d| run_inference(&spec, d, &nvme));
        let mut rows = Vec::new();
        for r in &reports {
            ctx.counter("hetero.pipeline_runs");
            ctx.kpi(
                &format!("inference/{}_samples_per_s", kpi_slug(&r.device)),
                r.throughput,
            );
            ctx.kpi(
                &format!("inference/{}_energy_j", kpi_slug(&r.device)),
                r.energy.value(),
            );
            let mut row = stage_row(r);
            row.push(fmt(r.throughput, 0));
            row.push(fmt(r.energy.value(), 1));
            rows.push(row);
        }
        ctx.table(
            &[
                "Device",
                "Load",
                "Preproc",
                "Xfer",
                "Compute",
                "Postproc",
                "Total",
                "Bottleneck",
                "Samples/s",
                "Energy J",
            ],
            &rows,
        );
        ctx.note("\nShape check: GPU wins training time; FPGA wins inference energy;");
        ctx.note("fast accelerators expose the I/O path as the bottleneck (§VI).");
        Ok(ctx.report(self.name()))
    }
}

/// E8 / §VI — I/O-path optimisation with computational storage, persistent
/// memory and low-latency SSDs.
///
/// Reproduces: "a training time reduction of up to 10% and inference
/// throughput improvement of up to 10%" from the computational-storage
/// path, plus the wider storage ladder.
pub struct StorageIo;

impl Experiment for StorageIo {
    fn name(&self) -> &'static str {
        "storage_io"
    }

    fn summary(&self) -> &'static str {
        "E8 / §VI: storage ladder and the computational-storage ~10% claims"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e8", "hetero", "storage"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::u64(
            "num_samples",
            "samples through the I/O path (default: segmentation spec)",
        )]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        let mut spec = PipelineSpec::segmentation_default();
        spec.num_samples = ctx.param_u64("num_samples", spec.num_samples);
        let gpu = ComputeDevice::datacenter_gpu();
        let fpga = ComputeDevice::fpga_card();
        let base_train = run_training(&spec, &gpu, &StorageDevice::nvme_ssd());
        let base_infer = run_inference(&spec, &fpga, &StorageDevice::nvme_ssd());

        ctx.section("GPU training epoch vs storage device");
        let training_phase = ctx.span("storage:training_ladder");
        let mut rows = Vec::new();
        for s in StorageDevice::io_path_candidates() {
            let r = run_training(&spec, &gpu, &s);
            let gain_pct = (1.0 - r.total_time / base_train.total_time) * 100.0;
            ctx.kpi(
                &format!("training/{}_gain_pct", kpi_slug(&s.name)),
                gain_pct,
            );
            rows.push(vec![
                s.name.clone(),
                fmt(r.total_time * 1e3, 1),
                fmt(gain_pct, 1),
            ]);
        }
        ctx.table(&["Storage", "Epoch ms", "vs NVMe %"], &rows);

        drop(training_phase);
        ctx.section("FPGA inference throughput vs storage device");
        let _phase = ctx.span("storage:inference_ladder");
        let mut rows = Vec::new();
        for s in StorageDevice::io_path_candidates() {
            let r = run_inference(&spec, &fpga, &s);
            let gain_pct = (r.throughput / base_infer.throughput - 1.0) * 100.0;
            ctx.kpi(
                &format!("inference/{}_gain_pct", kpi_slug(&s.name)),
                gain_pct,
            );
            rows.push(vec![s.name.clone(), fmt(r.throughput, 0), fmt(gain_pct, 1)]);
        }
        ctx.table(&["Storage", "Samples/s", "vs NVMe %"], &rows);
        ctx.note("\nShape check: computational storage buys ~10% on both paths —");
        ctx.note("the §VI 'up to 10%' claims.");
        Ok(ctx.report(self.name()))
    }
}

/// This crate's experiments, for registry assembly.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![Box::new(HeteroPipeline), Box::new(StorageIo)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::scenario::Scenario;

    #[test]
    fn hetero_pipeline_emits_device_kpis() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        let report = HeteroPipeline.run(&mut ctx).expect("runs");
        assert!(!report.kpis.is_empty());
        assert!(report
            .kpis
            .iter()
            .any(|k| k.name.starts_with("inference/") && k.name.ends_with("_energy_j")));
    }

    #[test]
    fn storage_io_reproduces_ten_percent_claims() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        let report = StorageIo.run(&mut ctx).expect("runs");
        // The §VI "up to 10%" claims are about computational storage
        // specifically (PMem sits much higher on the ladder).
        for path in ["training", "inference"] {
            let gain = report
                .kpi(&format!("{path}/computational_ssd_gain_pct"))
                .expect("kpi");
            assert!(
                gain > 2.0 && gain < 15.0,
                "computational storage {path} gain in the ~10% band (got {gain})"
            );
        }
    }
}
