//! `campaign_sweep`: a closed loop of campaign sweeps on a 2-thread pool.
//! One op is a fresh `f2_bench::campaign::run` of a generated manifest of
//! cheap `storage_io` scenarios, then a `--resume` of its finished journal.

use std::path::{Path, PathBuf};
use std::time::Instant;

use f2_bench::campaign::{self, CampaignItem, CampaignOptions};
use f2_core::experiment::{ExperimentCtx, Registry};
use f2_core::trace;

use crate::stats::{median, Metrics};
use crate::{Checks, Ctx, Timed, SETUPS};

/// Scenarios per manifest.
pub const SCENARIOS: usize = 4000;

/// Pool workers of the timed sweeps.
const THREADS: usize = 2;

/// The per-layer metrics the traced segment reports.
pub fn per_layer() -> Vec<(String, &'static str)> {
    [
        ("campaign.expand_ms", "ms"),
        ("campaign.exp_ms", "ms"),
        ("campaign.engine_ms", "ms"),
        ("campaign.resume_ms", "ms"),
        ("campaign.journal_bytes", "bytes"),
        ("campaign.out_bytes", "bytes"),
        ("campaign.scale_2t", "x"),
        ("count.exec.steal.items", "count"),
        ("count.exec.steal.chunks", "count"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect()
}

/// The manifest for `seed`: the shape of `tests/campaign/large.json`.
fn manifest(seed: u64) -> String {
    format!(
        r#"{{"schema":"f2-campaign-manifest-v1","seed":{seed},"base":{{"fidelity":"quick"}},"specs":[{{"experiment":"storage_io","random":{{"count":{SCENARIOS},"dims":{{"num_samples":{{"min":16,"max":64,"int":true}}}}}}}}]}}"#
    )
}

/// One campaign's files.
struct Files {
    manifest: PathBuf,
    journal: PathBuf,
    fresh_out: PathBuf,
    resume_out: PathBuf,
}

impl Files {
    fn new(dir: &Path, text: &str) -> Result<Self, String> {
        let files = Self {
            manifest: dir.join("manifest.json"),
            journal: dir.join("journal.jsonl"),
            fresh_out: dir.join("fresh.json"),
            resume_out: dir.join("resume.json"),
        };
        std::fs::write(&files.manifest, text)
            .map_err(|e| format!("cannot write {}: {e}", files.manifest.display()))?;
        Ok(files)
    }

    fn options(&self, resume: bool, threads: usize) -> CampaignOptions {
        CampaignOptions {
            manifest: self.manifest.clone(),
            out: Some(
                if resume {
                    &self.resume_out
                } else {
                    &self.fresh_out
                }
                .clone(),
            ),
            checkpoint: Some(self.journal.clone()),
            resume,
            threads,
            golden: None,
            progress: None,
        }
    }
}

/// Timings of one op: the fresh sweep and the resume, milliseconds.
struct Op {
    sweep_ms: f64,
    resume_ms: f64,
}

/// Runs one op and checks it: both steps exit 0, every scenario
/// completed, and the resumed output is byte-identical to the fresh one.
/// `corrupt` alters the observed fresh output first.
fn op(
    registry: &Registry,
    files: &Files,
    threads: usize,
    corrupt: bool,
) -> (Op, Result<(), String>) {
    let t0 = Instant::now();
    let fresh = campaign::run(registry, &files.options(false, threads));
    let t1 = Instant::now();
    let resumed = campaign::run(registry, &files.options(true, threads));
    let timing = Op {
        sweep_ms: crate::ms(t1 - t0),
        resume_ms: crate::ms(t1.elapsed()),
    };
    (timing, check(files, fresh, resumed, corrupt))
}

fn check(files: &Files, fresh: u8, resumed: u8, corrupt: bool) -> Result<(), String> {
    if fresh != 0 || resumed != 0 {
        return Err(format!(
            "campaign exit codes {fresh} (fresh), {resumed} (resume)"
        ));
    }
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display()));
    let mut fresh_out = read(&files.fresh_out)?;
    if corrupt {
        fresh_out.push(b' ');
    }
    if fresh_out != read(&files.resume_out)? {
        return Err("resumed output differs from the fresh sweep's".to_string());
    }
    let done = format!(r#""scenarios":{SCENARIOS},"completed":{SCENARIOS},"#);
    if !String::from_utf8_lossy(&fresh_out).contains(&done) {
        return Err(format!("sweep did not complete all {SCENARIOS} scenarios"));
    }
    Ok(())
}

/// The timed closed loop: [`SETUPS`] segments, each a set-up (registry,
/// manifest, warm-up op) followed by its share of the timed ops.
pub fn timed(
    ctx: &Ctx,
    seconds: f64,
    started: Instant,
    checks: &mut Checks,
) -> Result<Timed, String> {
    let text = manifest(ctx.derive("campaign_sweep"));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut op_ms, mut window_s) = (Vec::new(), 0.0);
    for k in 0..SETUPS {
        let t0 = if k == 0 { started } else { Instant::now() };
        let registry = flagship2::experiments::registry();
        let files = Files::new(&ctx.dir, &text)?;
        let (_, warm) = op(&registry, &files, THREADS, false);
        checks.run(warm);
        setup_s.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds / SETUPS as f64 {
            let (t, outcome) = op(&registry, &files, THREADS, ctx.corrupt(op_ms.len()));
            op_ms.push(t.sweep_ms + t.resume_ms);
            checks.op(outcome);
        }
        window_s += start.elapsed().as_secs_f64();
    }
    Ok(Timed {
        setup_s,
        op_ms,
        work_per_op: SCENARIOS as f64,
        window_s,
    })
}

/// Σ `Experiment::run` over the items, one thread, milliseconds: the
/// experiment share of a sweep.
fn replay_ms(registry: &Registry, items: &[CampaignItem]) -> Result<f64, String> {
    let t = Instant::now();
    for item in items {
        let exp = registry
            .find(&item.experiment)
            .ok_or_else(|| format!("experiment `{}` is not registered", item.experiment))?;
        let mut ctx = ExperimentCtx::quiet_scenario(&item.scenario);
        std::hint::black_box(exp.run(&mut ctx).map_err(|e| e.to_string())?);
    }
    Ok(crate::ms(t.elapsed()))
}

/// The traced segment: one traced sweep for the executor counters, then
/// rounds of {expand, replay, 2-thread op, 1-thread op} until `budget`
/// seconds have elapsed.
pub fn traced(ctx: &Ctx, budget: f64, checks: &mut Checks, m: &mut Metrics) -> Result<(), String> {
    let start = Instant::now();
    let registry = flagship2::experiments::registry();
    let text = manifest(ctx.derive("campaign_sweep"));
    let files = Files::new(&ctx.dir, &text)?;

    let session = trace::session();
    let (_, outcome) = op(&registry, &files, THREADS, false);
    let counted = session.finish();
    checks.op(outcome);

    let (mut expand, mut replay, mut sweep2, mut sweep1, mut resume) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut round = 0;
    while round < 3 || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let items = campaign::expand_manifest(&text, &registry)?;
        expand.push(crate::ms(t.elapsed()));
        replay.push(replay_ms(&registry, &items)?);
        for threads in [THREADS, 1] {
            let (t, outcome) = op(&registry, &files, threads, ctx.corrupt(round));
            if outcome.is_ok() {
                if threads == 1 {
                    &mut sweep1
                } else {
                    &mut sweep2
                }
                .push(t.sweep_ms);
                resume.push(t.resume_ms);
            }
            checks.op(outcome);
        }
        round += 1;
    }
    if sweep1.is_empty() || sweep2.is_empty() {
        return Err("campaign_sweep: every traced-segment op failed".to_string());
    }
    let size = |p: &Path| std::fs::metadata(p).map(|md| md.len() as f64);
    let journal = size(&files.journal).map_err(|e| format!("journal: {e}"))?;
    let out = size(&files.fresh_out).map_err(|e| format!("output: {e}"))?;
    let (expand, replay, sweep2) = (median(&expand), median(&replay), median(&sweep2));
    m.put("campaign.expand_ms", expand, "ms");
    m.put("campaign.exp_ms", replay, "ms");
    m.put("campaign.engine_ms", sweep2 - expand - replay, "ms");
    m.put("campaign.resume_ms", median(&resume), "ms");
    m.put("campaign.journal_bytes", journal, "bytes");
    m.put("campaign.out_bytes", out, "bytes");
    m.put("campaign.scale_2t", median(&sweep1) / sweep2, "x");
    for c in ["exec.steal.items", "exec.steal.chunks"] {
        m.put(&format!("count.{c}"), counted.counter(c) as f64, "count");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_expands_to_the_requested_scenarios() {
        let registry = flagship2::experiments::registry();
        let items = campaign::expand_manifest(&manifest(42), &registry).expect("valid manifest");
        assert_eq!(items.len(), SCENARIOS);
        assert!(items.iter().all(|i| i.experiment == "storage_io"));
        assert!(items.iter().all(|i| i.scenario.fidelity.is_quick()));
        assert_ne!(manifest(1), manifest(2));
    }
}
