//! Typed analysis-job specification, canonicalization, and cache keys.
//!
//! A job arrives as loosely-typed JSON (aliases allowed: `"trt"`,
//! `"tensorrt"`, `"f16"`, ...). Its axis keys are read as a one-cell
//! [`GridSpec`], the one reader of grid axes, and the cell is resolved by
//! [`AnalysisJob::from_cell`], the one slug resolver, into an
//! [`AnalysisJob`]; re-serializing that into sorted-key compact JSON gives
//! a *canonical spec* that is independent of field order and alias
//! spelling, so hashing it yields a stable content address for the
//! artifact cache.

use proof_core::{GridCell, GridSpec, ProofError};
use proof_hw::PlatformId;
use proof_ir::DType;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};
use serde::Serialize;
use serde_json::Value;

/// The keys of a job or sweep body that are not grid axes, read by
/// [`AnalysisJob::from_body`] and carried by every job the body names.
const JOB_ONLY_KEYS: [&str; 2] = ["timeout_ms", "trace_parent"];

/// Fully-resolved job specification. Two specs that differ in any field —
/// including `seed` — get distinct cache keys. `timeout_ms` and
/// `trace_parent` are the exceptions: they are execution/observability
/// metadata (how long the submitter will wait; which distributed trace the
/// work belongs to), not artifact identity, so they are deliberately
/// excluded from the canonical spec and every cache key — the same work
/// under a different deadline or trace must still coalesce onto one
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisJob {
    pub model: ModelId,
    pub backend: BackendFlavor,
    pub hardware: PlatformId,
    pub batch: u64,
    pub dtype: DType,
    pub mode: proof_core::MetricMode,
    pub seed: u64,
    /// Per-job deadline override; `None` defers to the server default.
    pub timeout_ms: Option<u64>,
    /// Distributed trace context from the submitter (`"trace:span"` in the
    /// spec, mirroring the `X-Proof-Trace` header): the job records its
    /// spans under this trace id instead of allocating a fresh one.
    pub trace_parent: Option<(u64, u64)>,
}

/// The artifact identity of a job: its resolved spec in canonical tokens.
/// Serialized with sorted keys, it is the text the cache key hashes.
#[derive(Serialize)]
pub(crate) struct CanonicalSpec {
    model: &'static str,
    backend: &'static str,
    hardware: &'static str,
    batch: u64,
    dtype: &'static str,
    mode: &'static str,
    seed: u64,
}

/// Canonical CLI-style token for a platform (round-trips via
/// `PlatformId::parse`, which ignores separators).
pub fn platform_slug(p: PlatformId) -> &'static str {
    match p {
        PlatformId::A100 => "a100",
        PlatformId::Rtx4090 => "rtx-4090",
        PlatformId::Xeon6330 => "xeon-6330",
        PlatformId::XavierNx => "xavier-nx",
        PlatformId::OrinNx => "orin-nx",
        PlatformId::RaspberryPi4 => "raspberry-pi-4",
        PlatformId::Npu3720 => "npu-3720",
    }
}

fn parse_dtype(s: &str) -> Option<DType> {
    match s.to_ascii_lowercase().as_str() {
        "fp32" | "f32" | "float32" => Some(DType::F32),
        "fp16" | "f16" | "float16" => Some(DType::F16),
        "bf16" | "bfloat16" => Some(DType::BF16),
        "int8" | "i8" => Some(DType::I8),
        _ => None,
    }
}

fn parse_mode(s: &str) -> Option<proof_core::MetricMode> {
    match s.to_ascii_lowercase().as_str() {
        "predicted" | "predict" | "analytical" => Some(proof_core::MetricMode::Predicted),
        "measured" | "measure" | "counters" => Some(proof_core::MetricMode::Measured),
        _ => None,
    }
}

fn mode_token(m: proof_core::MetricMode) -> &'static str {
    match m {
        proof_core::MetricMode::Predicted => "predicted",
        proof_core::MetricMode::Measured => "measured",
    }
}

/// A grid-reader refusal as the text a 400 carries, without
/// [`ProofError`]'s `invalid spec: ` prefix.
fn spec_text(e: ProofError) -> String {
    match e {
        ProofError::InvalidSpec(msg) => msg,
        other => other.to_string(),
    }
}

impl AnalysisJob {
    /// Parse a `POST /jobs` body: `AnalysisJob::from_body` over a body
    /// that names exactly one cell. `model` and `hardware` (or `platform`)
    /// are required; everything else has a sensible default (backend: the
    /// platform's native flavor, batch 1, fp16, predicted,
    /// [`proof_runtime::DEFAULT_SEED`]).
    pub fn from_value(v: &Value) -> Result<AnalysisJob, String> {
        if v.as_object().is_none() {
            return Err("job spec must be a JSON object".to_string());
        }
        match AnalysisJob::from_body(v)?.as_slice() {
            [job] => Ok(*job),
            jobs => Err(format!(
                "a job spec names one cell, this one names {}; POST /sweep takes a grid",
                jobs.len()
            )),
        }
    }

    /// Every job a job or sweep body (a JSON object) names, in canonical
    /// cell order: the axis keys read as a [`GridSpec`], each cell resolved
    /// by [`AnalysisJob::from_cell`], and the body's job-only keys
    /// (`timeout_ms`, `trace_parent`) set on every job.
    pub(crate) fn from_body(v: &Value) -> Result<Vec<AnalysisJob>, String> {
        let grid = GridSpec::from_value_except(v, &JOB_ONLY_KEYS).map_err(spec_text)?;
        let present = |key| v.get(key).filter(|v| !v.is_null());
        let timeout_ms = present("timeout_ms")
            .map(|t| {
                t.as_u64().filter(|&ms| ms > 0).ok_or_else(|| {
                    format!("field 'timeout_ms' must be a positive integer, got {t}")
                })
            })
            .transpose()?;
        let trace_parent = present("trace_parent")
            .map(|t| {
                t.as_str()
                    .and_then(crate::http::parse_trace_header)
                    .ok_or_else(|| format!("bad trace_parent {t} (expected 'trace:span')"))
            })
            .transpose()?;
        grid.cells()
            .iter()
            .map(|cell| {
                Ok(AnalysisJob {
                    timeout_ms,
                    trace_parent,
                    ..AnalysisJob::from_cell(cell)?
                })
            })
            .collect()
    }

    /// Resolve one grid cell: the one place a model, platform, backend,
    /// dtype or mode slug becomes a value and a batch is range-checked.
    /// A cell without a backend gets the platform's native flavor, without
    /// a dtype fp16, without a mode predicted.
    pub fn from_cell(cell: &GridCell) -> Result<AnalysisJob, String> {
        let model = ModelId::parse(&cell.model)
            .ok_or_else(|| format!("unknown model '{}' (see GET /models)", cell.model))?;
        let hardware = PlatformId::parse(&cell.hardware)
            .ok_or_else(|| format!("unknown hardware platform '{}'", cell.hardware))?;
        let backend = match cell.backend.as_deref() {
            Some(s) => BackendFlavor::parse(s).ok_or_else(|| format!("unknown backend '{s}'"))?,
            None => BackendFlavor::for_platform(&hardware.spec()),
        };
        let dtype = match cell.dtype.as_deref() {
            Some(s) => parse_dtype(s).ok_or_else(|| format!("unknown dtype '{s}'"))?,
            None => DType::F16,
        };
        let mode = match cell.mode.as_deref() {
            Some(s) => parse_mode(s).ok_or_else(|| format!("unknown mode '{s}'"))?,
            None => proof_core::MetricMode::Predicted,
        };
        if cell.batch == 0 || cell.batch > 1 << 20 {
            return Err(format!("batch {} out of range [1, 2^20]", cell.batch));
        }
        Ok(AnalysisJob {
            model,
            backend,
            hardware,
            batch: cell.batch,
            dtype,
            mode,
            seed: cell.seed,
            timeout_ms: None,
            trace_parent: None,
        })
    }

    /// The fully-resolved spec (canonical tokens, all defaults filled in).
    /// `timeout_ms` and `trace_parent` are excluded on purpose — see the
    /// type docs.
    pub(crate) fn canonical_spec(&self) -> CanonicalSpec {
        CanonicalSpec {
            model: self.model.slug(),
            backend: self.backend.name(),
            hardware: platform_slug(self.hardware),
            batch: self.batch,
            dtype: self.dtype.short_name(),
            mode: mode_token(self.mode),
            seed: self.seed,
        }
    }

    /// Compact canonical JSON of the resolved spec (sorted keys).
    pub fn canonical_json(&self) -> String {
        serde::ser::to_json(&self.canonical_spec(), false)
    }

    /// Content address of this job's artifact: FNV-1a/64 over the canonical
    /// JSON, hex-encoded. Field order and alias spelling in the original
    /// request cannot affect it; the seed (and every other field) does.
    pub fn cache_key(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_json().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// The runtime session configuration this spec resolves to.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::new(self.dtype).with_seed(self.seed)
    }

    /// Key of this spec's mode-independent pipeline prefix. Everything that
    /// feeds compile/profile/map participates — including the seed, which
    /// shapes the built-in profiler's simulated latency noise — while `mode`
    /// deliberately does not: it only affects the metric stage, which is
    /// exactly the reuse the stage cache exists to exploit.
    pub fn stage_cache_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.model.slug(),
            self.backend.name(),
            platform_slug(self.hardware),
            self.batch,
            self.dtype.short_name(),
            self.seed
        )
    }

    /// Build this spec's pipeline prefix (compile + built-in profile + map).
    pub fn prepare(&self) -> Result<proof_core::PreparedStages, proof_core::ProofError> {
        self.prepare_ctx(&proof_core::RunCtx::unbounded(self.seed))
    }

    /// [`AnalysisJob::prepare`] under a [`proof_core::RunCtx`] (deadline +
    /// fault checkpoints between stages).
    pub fn prepare_ctx(
        &self,
        ctx: &proof_core::RunCtx,
    ) -> Result<proof_core::PreparedStages, proof_core::ProofError> {
        let graph = self.model.build(self.batch);
        let platform = self.hardware.spec();
        proof_core::prepare_stages_ctx(&graph, &platform, self.backend, &self.session_config(), ctx)
    }

    /// Run the full profiling pipeline for this spec.
    pub fn execute(&self) -> Result<proof_core::ProfileReport, proof_core::ProofError> {
        let graph = self.model.build(self.batch);
        let platform = self.hardware.spec();
        proof_core::profile_model(
            &graph,
            &platform,
            self.backend,
            &self.session_config(),
            self.mode,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<AnalysisJob, String> {
        AnalysisJob::from_value(&serde_json::from_str(s).unwrap())
    }

    #[test]
    fn cache_key_ignores_field_order_and_aliases() {
        let a = parse(r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":8,"dtype":"f16","seed":7}"#).unwrap();
        let b = parse(r#"{"seed":7,"dtype":"fp16","batch":8,"backend":"tensorrt","platform":"A100","model":"resnet-50"}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.canonical_json(), b.canonical_json());
    }

    #[test]
    fn canonical_json_and_cache_key_are_pinned() {
        // the disk store is addressed by this key: its bytes must not move
        let j = parse(r#"{"seed":7,"precision":"f16","batch":8,"backend":"tensorrt","platform":"A100","model":"resnet-50","mode":"measured","timeout_ms":9}"#).unwrap();
        assert_eq!(
            j.canonical_json(),
            r#"{"backend":"trt-like","batch":8,"dtype":"fp16","hardware":"a100","mode":"measured","model":"resnet-50","seed":7}"#
        );
        assert_eq!(j.cache_key(), "9082c285c5b07c0d");
    }

    #[test]
    fn timeout_is_execution_metadata_not_identity() {
        // identical work under different deadlines must share one artifact:
        // timeout_ms stays out of the canonical spec and the cache key
        let a = parse(r#"{"model":"resnet-50","hardware":"a100","timeout_ms":250}"#).unwrap();
        let b = parse(r#"{"model":"resnet-50","hardware":"a100"}"#).unwrap();
        assert_eq!(a.timeout_ms, Some(250));
        assert_eq!(b.timeout_ms, None);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert!(parse(r#"{"model":"resnet-50","hardware":"a100","timeout_ms":0}"#).is_err());
    }

    #[test]
    fn trace_parent_is_observability_metadata_not_identity() {
        // the same work dispatched under different distributed traces must
        // share one artifact: trace_parent stays out of the canonical spec
        let a = parse(r#"{"model":"resnet-50","hardware":"a100","trace_parent":"42:7"}"#).unwrap();
        let b = parse(r#"{"model":"resnet-50","hardware":"a100"}"#).unwrap();
        assert_eq!(a.trace_parent, Some((42, 7)));
        assert_eq!(b.trace_parent, None);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.stage_cache_key(), b.stage_cache_key());
        // malformed context in the body is a spec error (unlike the header,
        // which is transport metadata and silently dropped)
        assert!(parse(r#"{"model":"resnet-50","hardware":"a100","trace_parent":"nope"}"#).is_err());
        assert!(parse(r#"{"model":"resnet-50","hardware":"a100","trace_parent":"0:7"}"#).is_err());
    }

    #[test]
    fn seed_differentiates_cache_keys() {
        let a = parse(r#"{"model":"resnet-50","hardware":"a100","seed":1}"#).unwrap();
        let b = parse(r#"{"model":"resnet-50","hardware":"a100","seed":2}"#).unwrap();
        let c = parse(r#"{"model":"resnet-50","hardware":"a100"}"#).unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_eq!(c.seed, proof_runtime::DEFAULT_SEED);
    }

    #[test]
    fn every_field_feeds_the_key() {
        let base = r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":8,"dtype":"fp16","mode":"predicted","seed":7}"#;
        let variants = [
            r#"{"model":"resnet-34","hardware":"a100","backend":"trt","batch":8,"dtype":"fp16","mode":"predicted","seed":7}"#,
            r#"{"model":"resnet-50","hardware":"rtx-4090","backend":"trt","batch":8,"dtype":"fp16","mode":"predicted","seed":7}"#,
            r#"{"model":"resnet-50","hardware":"a100","backend":"ort","batch":8,"dtype":"fp16","mode":"predicted","seed":7}"#,
            r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":16,"dtype":"fp16","mode":"predicted","seed":7}"#,
            r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":8,"dtype":"fp32","mode":"predicted","seed":7}"#,
            r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":8,"dtype":"fp16","mode":"measured","seed":7}"#,
            r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":8,"dtype":"fp16","mode":"predicted","seed":8}"#,
        ];
        let key = parse(base).unwrap().cache_key();
        for v in variants {
            assert_ne!(parse(v).unwrap().cache_key(), key, "{v}");
        }
    }

    #[test]
    fn stage_cache_key_ignores_mode_but_not_seed() {
        let p = parse(r#"{"model":"resnet-50","hardware":"a100","mode":"predicted","seed":7}"#)
            .unwrap();
        let m =
            parse(r#"{"model":"resnet-50","hardware":"a100","mode":"measured","seed":7}"#).unwrap();
        let s = parse(r#"{"model":"resnet-50","hardware":"a100","mode":"predicted","seed":8}"#)
            .unwrap();
        // mode pairs share a prefix (the whole point of the stage cache)...
        assert_eq!(p.stage_cache_key(), m.stage_cache_key());
        // ...but still get distinct artifacts
        assert_ne!(p.cache_key(), m.cache_key());
        // the seed shapes the built-in profile, so it splits prefixes
        assert_ne!(p.stage_cache_key(), s.stage_cache_key());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse(r#"{"hardware":"a100"}"#).is_err()); // no model
        assert!(parse(r#"{"model":"resnet-50"}"#).is_err()); // no hardware
        assert!(parse(r#"{"model":"nope","hardware":"a100"}"#).is_err());
        assert!(parse(r#"{"model":"resnet-50","hardware":"a100","batch":0}"#).is_err());
        assert!(parse(r#"{"model":"resnet-50","hardware":"a100","bogus":1}"#).is_err());
        assert!(parse(r#"{"model":"resnet-50","hardware":"a100","batch":"x"}"#).is_err());
    }

    #[test]
    fn rejects_integers_past_u64_instead_of_saturating() {
        // 2^64 parses as a float; it must not become seed u64::MAX
        let err = parse(r#"{"model":"resnet-50","hardware":"a100","seed":18446744073709551616}"#)
            .unwrap_err();
        assert!(
            err.contains("'seed' must be a non-negative integer"),
            "{err}"
        );
        let j = parse(r#"{"model":"resnet-50","hardware":"a100","seed":18446744073709551615}"#)
            .unwrap();
        assert_eq!(j.seed, u64::MAX);
    }

    #[test]
    fn a_job_body_is_a_one_cell_grid() {
        let plural =
            parse(r#"{"models":["resnet-50"],"platforms":["a100"],"batches":[8]}"#).unwrap();
        assert_eq!(
            plural,
            parse(r#"{"model":"resnet-50","hardware":"a100","batch":8}"#).unwrap()
        );
        let err = parse(r#"{"models":["resnet-50","vit-tiny"],"hardware":"a100"}"#).unwrap_err();
        assert!(err.contains("names one cell"), "{err}");
        // refusals carry the grid reader's text without the error prefix
        let err = parse(r#"{"model":"resnet-50","hardware":"a100","bogus":1}"#).unwrap_err();
        assert_eq!(err, "unknown field 'bogus' in spec");
        // the cell resolver is what a job body goes through
        let cell = GridCell {
            model: "resnet-50".into(),
            backend: Some("tensorrt".into()),
            hardware: "A100".into(),
            dtype: Some("f16".into()),
            batch: 8,
            mode: Some("measured".into()),
            seed: 7,
        };
        let job = parse(r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":8,"mode":"measured","seed":7,"timeout_ms":9,"trace_parent":"4:2"}"#).unwrap();
        assert_eq!(
            AnalysisJob {
                timeout_ms: Some(9),
                trace_parent: Some((4, 2)),
                ..AnalysisJob::from_cell(&cell).unwrap()
            },
            job
        );
        for (batch, ok) in [
            (0, false),
            (1, true),
            (1 << 20, true),
            ((1 << 20) + 1, false),
        ] {
            let cell = GridCell {
                batch,
                ..cell.clone()
            };
            assert_eq!(AnalysisJob::from_cell(&cell).is_ok(), ok, "batch {batch}");
        }
    }

    #[test]
    fn defaults_resolve_to_platform_native_backend() {
        let j = parse(r#"{"model":"resnet-50","hardware":"a100"}"#).unwrap();
        assert_eq!(j.backend, BackendFlavor::TrtLike);
        assert_eq!(j.batch, 1);
        assert_eq!(j.dtype, DType::F16);
    }
}
