//! `zoo-profile`: every model of the zoo at batch 8 on `a100`, predicted
//! mode, driven through the public stage functions on one thread.
//!
//! A cold profile builds the graph, runs the five stages and encodes the
//! report; a warm profile re-runs metrics, assembly and encoding on the
//! prefix the cold one prepared (the reuse serve's stage cache and batch
//! sweeps rely on). The latency samples are whole passes: the 20 cold
//! profiles of a pass, and its 20 warm ones. No HTTP, queue, store or fleet
//! code runs here.

use crate::spans::Tracer;
use crate::{corrupt, digest, ms_since, Outcome, RunArgs, Usage};
use proof_core::{
    profile_model, stage_assemble, stage_builtin_profile, stage_compile, stage_map, stage_metrics,
    BuiltinProfileArtifact, CompiledArtifact, MappingArtifact, MetricMode,
};
use proof_hw::{Platform, PlatformId};
use proof_ir::DType;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};
use std::time::Instant;

const BATCH: u64 = 8;
/// Set-ups per run (each one untimed warm-up pass over the models).
const SETUPS: usize = 5;
/// Passes per second of `--seconds` (see [`RunArgs::units`]).
pub const PASSES_PER_SECOND: f64 = 7.0;
#[cfg(test)]
/// Cold and warm latency samples one pass adds.
pub const SAMPLES_PER_PASS: [u64; 2] = [1, 1];

struct Zoo {
    platform: Platform,
    flavor: BackendFlavor,
    cfg: SessionConfig,
}

/// The mode-independent artifacts a cold profile leaves for the warm one.
struct Prefix {
    compiled: CompiledArtifact,
    profile: BuiltinProfileArtifact,
    mapping: MappingArtifact,
}

impl Zoo {
    fn new(seed: u64) -> Zoo {
        let platform = PlatformId::A100.spec();
        Zoo {
            flavor: BackendFlavor::for_platform(&platform),
            platform,
            cfg: SessionConfig::new(DType::F16).with_seed(seed),
        }
    }

    fn cold(&self, model: ModelId, tr: &mut Tracer) -> Result<(Prefix, String), String> {
        let g = tr.time("models.build", || model.build(BATCH));
        let compiled = tr
            .time("core.compile", || {
                stage_compile(&g, &self.platform, self.flavor, &self.cfg)
            })
            .map_err(|e| format!("{}: {e}", model.slug()))?;
        let profile = tr.time("core.builtin_profile", || stage_builtin_profile(&compiled));
        let mapping = tr.time("core.map", || {
            stage_map(&g, &profile, self.flavor, &self.cfg)
        });
        let prefix = Prefix {
            compiled,
            profile,
            mapping,
        };
        let json = self.warm(&prefix, tr)?;
        Ok((prefix, json))
    }

    fn warm(&self, p: &Prefix, tr: &mut Tracer) -> Result<String, String> {
        let metrics = tr.time("core.metrics", || {
            stage_metrics(&p.compiled, &p.mapping, MetricMode::Predicted)
        });
        let report = tr.time("core.assemble", || {
            stage_assemble(&p.compiled, &p.profile, &p.mapping, &metrics)
        });
        tr.time("core.encode", || report.try_to_json())
            .map_err(|e| e.to_string())
    }

    /// The reference bytes: `profile_model`, the one-call pipeline, on the same inputs.
    fn reference(&self, model: ModelId) -> Result<String, String> {
        let g = model.build(BATCH);
        profile_model(
            &g,
            &self.platform,
            self.flavor,
            &self.cfg,
            MetricMode::Predicted,
        )
        .and_then(|r| r.try_to_json())
        .map_err(|e| format!("reference {}: {e}", model.slug()))
    }
}

pub fn run(args: &RunArgs, origin: Instant) -> Result<Outcome, String> {
    run_models(args, origin, &ModelId::ALL)
}

/// One report check: byte for byte on the first pass, by digest after it.
fn check(model: ModelId, json: &str, reference: &str, first_pass: bool) -> Result<(), String> {
    let same = if first_pass {
        json == reference
    } else {
        digest(json) == digest(reference)
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "{}: report differs from profile_model's ({} vs {} bytes)",
            model.slug(),
            json.len(),
            reference.len()
        ))
    }
}

pub fn run_models(args: &RunArgs, origin: Instant, models: &[ModelId]) -> Result<Outcome, String> {
    let zoo = Zoo::new(args.seed);
    let mut out = Outcome::new(args, origin);
    let mut untraced = Tracer::new(false, origin);
    for _ in 0..SETUPS {
        let mark = out.calib.sample();
        let t = Instant::now();
        for &m in models {
            zoo.cold(m, &mut untraced)?;
        }
        out.setup_s.push(t.elapsed().as_secs_f64(), mark);
    }
    let mut reference = models
        .iter()
        .map(|&m| zoo.reference(m))
        .collect::<Result<Vec<String>, String>>()?;
    if args.corrupt_reference {
        corrupt(&mut reference[0]);
    }

    let passes = args.units(PASSES_PER_SECOND);
    let start = Instant::now();
    let usage = Usage::now();
    let mut report_bytes = 0usize;
    for pass in 0..passes {
        // a traced run alternates traced and untraced passes; their
        // difference is the tracing overhead
        let traced = args.trace && pass.is_multiple_of(2);
        out.spans.enabled = traced;
        let mark = out.calib.sample();
        let pass_start = Instant::now();
        let (mut pass_cold_ms, mut pass_warm_ms) = (0.0, 0.0);
        for (i, &m) in models.iter().enumerate() {
            out.spans.begin_trace(pass * models.len() as u64 + i as u64);
            out.attempted += 2;
            let t = Instant::now();
            let root = out.spans.enter("zoo.cold");
            let cold = zoo.cold(m, &mut out.spans);
            out.spans.exit(root);
            let cold_ms = ms_since(t);
            let (prefix, json) = match cold {
                Ok(v) => v,
                Err(e) => {
                    out.fail(e);
                    out.failed += 1; // its warm profile cannot run either
                    continue;
                }
            };
            let t = Instant::now();
            let root = out.spans.enter("zoo.warm");
            let warm = zoo.warm(&prefix, &mut out.spans);
            out.spans.exit(root);
            let warm_ms = ms_since(t);
            check(m, &json, &reference[i], pass == 0)?;
            pass_cold_ms += cold_ms;
            out.reports += 1;
            report_bytes += json.len();
            match warm {
                Ok(warm_json) => {
                    check(m, &warm_json, &reference[i], false)?;
                    pass_warm_ms += warm_ms;
                    out.reports += 1;
                    report_bytes += warm_json.len();
                }
                Err(e) => out.fail(e),
            }
        }
        // a pass over the whole zoo is the unit: per-profile times are
        // spread by model, so their median would sit between two models
        out.cold_ms.push(pass_cold_ms, mark);
        out.warm_ms.push(pass_warm_ms, mark);
        let pass_ms = ms_since(pass_start);
        out.busy_ms.push(pass_ms, mark);
        if traced {
            out.traced_ms.push(pass_ms, mark);
        } else {
            out.untraced_ms.push(pass_ms, mark);
        }
    }
    out.window_s = start.elapsed().as_secs_f64();
    out.usage.add_since(usage);
    if out.reports > 0 {
        out.set(
            "core.report_bytes",
            report_bytes as f64 / out.reports as f64,
        );
    }
    out.meta("passes", passes);
    out.meta("models", models.len() as u64);
    Ok(out)
}
