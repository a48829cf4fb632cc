//! Profiling *grid specs* and deterministic result merging — the shared
//! vocabulary between a fleet coordinator and its worker daemons.
//!
//! A [`GridSpec`] names the cross product of the paper's evaluation axes
//! (model × backend × platform × precision × batch, Tables 3–5) under one
//! metric mode and seed. [`GridSpec::cells`] expands it into *canonically
//! ordered* [`GridCell`]s — the order depends only on the spec, never on
//! which node ran which cell — and a [`GridMerger`] reassembles per-cell
//! report JSON into one combined artifact, a cell at a time as shards land
//! ([`merge_cells`] folds a finished set over it). Because every per-cell
//! report is already byte-deterministic for a given spec and seed, and the
//! merge orders cells canonically and writes sorted-key JSON, the merged
//! artifact is **byte-identical** no matter how the grid was sharded across
//! nodes, in what order the shards landed, or whether it ran on a single
//! daemon. The merge copies each cell's report bytes when they are already
//! canonical, as every worker report is, and parses and re-prints only a
//! cell that is not.

use crate::pipeline::ProofError;
use crate::profile::ProfileReport;
use crate::sweep::{BatchSweep, SweepPoint};
use serde::Serialize;
use serde_json::{Map, Value};
use std::borrow::Cow;
use std::ops::{Deref, Range};

/// Largest cell count a single grid may expand to: every grid, whether a
/// fleet run, a serve sweep or a one-cell job body.
pub const MAX_GRID_CELLS: usize = 4096;

/// Default seed for grid runs: the runtime's, so a grid cell, a serve job
/// and a CLI profile that name no seed all simulate alike.
pub const DEFAULT_GRID_SEED: u64 = proof_runtime::DEFAULT_SEED;

/// A profiling grid: every axis is a list, optional axes (`backends`,
/// `dtypes`, `mode`) default to the worker-side defaults when empty/None.
/// Axis order within each list is preserved — the canonical cell order is a
/// function of the spec as given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    pub models: Vec<String>,
    /// Empty → each cell omits `backend` (worker picks the platform-native
    /// flavor).
    pub backends: Vec<String>,
    pub platforms: Vec<String>,
    /// Empty → each cell omits `dtype` (worker default).
    pub dtypes: Vec<String>,
    pub batches: Vec<u64>,
    /// `None` → worker default (`predicted`).
    pub mode: Option<String>,
    pub seed: u64,
}

/// One point of the grid — exactly the fields of a `POST /jobs` spec, and
/// serialized as one: a defaulted optional axis leaves its key out.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GridCell {
    pub model: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub backend: Option<String>,
    pub hardware: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dtype: Option<String>,
    pub batch: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mode: Option<String>,
    pub seed: u64,
}

/// The `grid` member of a merged document: the spec with each defaulted
/// optional axis as `null`.
#[derive(Serialize)]
struct GridView {
    models: Vec<String>,
    backends: Option<Vec<String>>,
    platforms: Vec<String>,
    dtypes: Option<Vec<String>>,
    batches: Vec<u64>,
    mode: Option<String>,
    seed: u64,
}

/// Each string axis's keys in precedence order — an axis's own name before
/// its alias, the list spelling before the scalar one — each marked `true`
/// when it is a list spelling, which also takes a lone string.
const STRING_AXES: [&[(&str, bool)]; 4] = [
    &[("models", true), ("model", false)],
    &[("backends", true), ("backend", false)],
    &[("platforms", true), ("platform", false), ("hardware", true)],
    &[
        ("dtypes", true),
        ("dtype", false),
        ("precisions", true),
        ("precision", false),
    ],
];

/// The keys that are not string axes.
const OTHER_KEYS: [&str; 4] = ["batches", "batch", "mode", "seed"];

fn invalid(msg: impl Into<String>) -> ProofError {
    ProofError::InvalidSpec(msg.into())
}

/// `key`'s value, with `null` read as absent.
fn present<'a>(obj: &'a Map<String, Value>, key: &str) -> Option<&'a Value> {
    obj.get(key).filter(|v| !v.is_null())
}

fn non_negative(key: &str, v: &Value) -> Result<u64, ProofError> {
    v.as_u64().ok_or_else(|| {
        invalid(format!(
            "field '{key}' must be a non-negative integer, got {v}"
        ))
    })
}

/// One string axis: the value under the first of `keys` that is present,
/// or an empty axis when none is.
fn str_axis(obj: &Map<String, Value>, keys: &[(&str, bool)]) -> Result<Vec<String>, ProofError> {
    let Some((key, list, v)) = keys
        .iter()
        .find_map(|&(key, list)| Some((key, list, present(obj, key)?)))
    else {
        return Ok(Vec::new());
    };
    let entries = match v {
        Value::String(s) => return Ok(vec![s.clone()]),
        Value::Array(entries) if list => entries,
        _ if list => return Err(invalid(format!("field '{key}' must be an array"))),
        _ => return Err(invalid(format!("field '{key}' must be a string, got {v}"))),
    };
    if entries.is_empty() {
        return Err(invalid(format!("field '{key}' must not be empty")));
    }
    entries
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("'{key}' entries must be strings, got {e}")))
        })
        .collect()
}

/// The batch axis; `[1]` when absent.
fn batch_axis(obj: &Map<String, Value>) -> Result<Vec<u64>, ProofError> {
    match (present(obj, "batches"), present(obj, "batch")) {
        (Some(Value::Array(entries)), _) if entries.is_empty() => {
            Err(invalid("field 'batches' must not be empty"))
        }
        (Some(Value::Array(entries)), _) => {
            entries.iter().map(|b| non_negative("batches", b)).collect()
        }
        (Some(_), _) => Err(invalid("field 'batches' must be an array")),
        (None, Some(b)) => Ok(vec![non_negative("batch", b)?]),
        (None, None) => Ok(vec![1]),
    }
}

impl GridSpec {
    /// Parse a grid spec from JSON: the one reader of the grid axes, for a
    /// fleet grid, a serve sweep and a one-cell job body alike.
    ///
    /// Each axis takes a list or a scalar spelling (`models`/`model`, ...),
    /// and the platform and dtype axes also take an alias (`hardware`,
    /// `precisions`/`precision`). When a body gives more than one spelling
    /// of an axis, the axis's own name wins over its alias and the list
    /// spelling over the scalar one: `{"platform":"a100","hardware":"x"}`
    /// names a100. A `null` value reads as an absent key, and an explicitly
    /// empty list is refused.
    pub fn from_value(v: &Value) -> Result<GridSpec, ProofError> {
        GridSpec::from_value_except(v, &[])
    }

    /// [`GridSpec::from_value`] over a body that also carries `passed`
    /// keys, which its caller reads itself: they are skipped, not refused
    /// as unknown.
    pub fn from_value_except(v: &Value, passed: &[&str]) -> Result<GridSpec, ProofError> {
        let obj = v
            .as_object()
            .ok_or_else(|| invalid("grid spec must be a JSON object"))?;
        let known = |key: &str| {
            STRING_AXES
                .iter()
                .any(|keys| keys.iter().any(|&(k, _)| k == key))
                || OTHER_KEYS.contains(&key)
                || passed.contains(&key)
        };
        if let Some(key) = obj.keys().find(|key| !known(key)) {
            return Err(invalid(format!("unknown field '{key}' in spec")));
        }
        let [models, backends, platforms, dtypes] = STRING_AXES.map(|keys| str_axis(obj, keys));
        let spec = GridSpec {
            models: models?,
            backends: backends?,
            platforms: platforms?,
            dtypes: dtypes?,
            batches: batch_axis(obj)?,
            mode: str_axis(obj, &[("mode", false)])?.pop(),
            seed: present(obj, "seed")
                .map_or(Ok(DEFAULT_GRID_SEED), |v| non_negative("seed", v))?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation: axis presence and grid size. Slugs and batch
    /// ranges are the job resolver's to check, cell by cell
    /// (`proof_serve::AnalysisJob::from_cell`).
    pub fn validate(&self) -> Result<(), ProofError> {
        if self.models.is_empty() {
            return Err(invalid("spec needs at least one model"));
        }
        if self.platforms.is_empty() {
            return Err(invalid("spec needs at least one platform"));
        }
        if self.batches.is_empty() {
            return Err(invalid("spec needs at least one batch size"));
        }
        if self.cell_count() > MAX_GRID_CELLS {
            return Err(invalid(format!(
                "sweep grid larger than {MAX_GRID_CELLS} points"
            )));
        }
        Ok(())
    }

    /// How many cells [`GridSpec::cells`] will produce, saturating at
    /// `usize::MAX` so an oversized spec fails [`GridSpec::validate`]
    /// instead of wrapping under the cap.
    pub fn cell_count(&self) -> usize {
        [
            self.models.len(),
            self.backends.len().max(1),
            self.platforms.len(),
            self.dtypes.len().max(1),
            self.batches.len(),
        ]
        .into_iter()
        .try_fold(1, usize::checked_mul)
        .unwrap_or(usize::MAX)
    }

    /// Expand into cells in **canonical order**: model-major, then
    /// platform, backend, dtype, batch — each axis in spec order. The shard
    /// id of a cell is its index in this expansion.
    pub fn cells(&self) -> Vec<GridCell> {
        let opt = |axis: &[String]| -> Vec<Option<String>> {
            if axis.is_empty() {
                vec![None]
            } else {
                axis.iter().map(|s| Some(s.clone())).collect()
            }
        };
        let backends = opt(&self.backends);
        let dtypes = opt(&self.dtypes);
        let mut out = Vec::with_capacity(self.cell_count());
        for model in &self.models {
            for platform in &self.platforms {
                for backend in &backends {
                    for dtype in &dtypes {
                        for &batch in &self.batches {
                            out.push(GridCell {
                                model: model.clone(),
                                backend: backend.clone(),
                                hardware: platform.clone(),
                                dtype: dtype.clone(),
                                batch,
                                mode: self.mode.clone(),
                                seed: self.seed,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    fn view(&self) -> GridView {
        let axis = |v: &[String]| (!v.is_empty()).then(|| v.to_vec());
        GridView {
            models: self.models.clone(),
            backends: axis(&self.backends),
            platforms: self.platforms.clone(),
            dtypes: axis(&self.dtypes),
            batches: self.batches.clone(),
            mode: self.mode.clone(),
            seed: self.seed,
        }
    }

    /// Whether the grid is a pure batch sweep of one configuration (single
    /// model/platform/backend/dtype, the batch axis free) — the case where
    /// the merged artifact also carries a derived [`BatchSweep`].
    pub fn is_batch_sweep(&self) -> bool {
        self.models.len() == 1
            && self.platforms.len() == 1
            && self.backends.len() <= 1
            && self.dtypes.len() <= 1
    }
}

/// Merge per-cell report JSON into the combined grid artifact: a fold of
/// `reports` over a [`GridMerger`].
///
/// `reports` pairs each shard id (index into [`GridSpec::cells`]) with the
/// worker-produced report JSON for that cell, in **any** order — the merge
/// slots them canonically. Every shard must appear exactly once; a missing
/// or duplicate shard is an error, never a silently partial document. A
/// report may be any owner of its text: a `String`, or a shared
/// `Arc<String>`.
pub fn merge_cells<B>(spec: &GridSpec, reports: &[(usize, B)]) -> Result<String, ProofError>
where
    B: Deref<Target: AsRef<str>>,
{
    let mut merger = GridMerger::new(spec);
    for (shard, json) in reports {
        merger.insert(*shard, (**json).as_ref());
    }
    merger.finish().map(|merged| merged.doc)
}

/// A finished [`GridMerger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedGrid {
    /// The merged document.
    pub doc: String,
    /// Where each cell's report sits in `doc`, in canonical order:
    /// `&doc[span]` is the compact canonical copy the merge slotted.
    pub report_spans: Vec<Range<usize>>,
}

/// The grid merge, one cell at a time: [`GridMerger::insert`] slots each
/// shard's report as it arrives, in any order, and [`GridMerger::finish`]
/// writes the document once every cell is in. `insert` is
/// [`GridMerger::copy`] then [`GridMerger::slot`], so a caller can copy
/// cells on several threads and slot the copies on one. A slot may also
/// borrow a copy made earlier, such as `&doc[span]` of a previous merge
/// whose cell had the same report bytes: `copy` is a pure function of
/// those bytes.
///
/// The document is `{"cells": [...], "grid": ..., "sweep": ...}` with
/// sorted keys throughout, so its bytes depend only on (spec, per-cell
/// report bytes) — not on node count, dispatch order, or retry history.
/// Worker reports are already in the printer's canonical form, so each is
/// copied as compact bytes ([`serde_json::copy_canonical`]); only a cell
/// that is not canonical is parsed into a `Value` tree and printed. Either
/// way the bytes are those of parsing every cell and printing the whole
/// document.
///
/// A failed merge names one error, and arrival order matters to it only
/// through out-of-range and duplicate shards: the first such shard
/// inserted names it; otherwise the first missing or broken cell in
/// canonical order does; otherwise a batch-sweep cell that is not a report.
pub struct GridMerger<'a> {
    spec: &'a GridSpec,
    cells: Vec<GridCell>,
    /// Each cell's report as compact canonical bytes, or why its bytes are
    /// not JSON; `None` until its shard arrives.
    slots: Vec<Option<Result<Cow<'a, str>, ProofError>>>,
    /// The first out-of-range or duplicate shard inserted.
    misfit: Option<ProofError>,
}

impl<'a> GridMerger<'a> {
    /// A merge of `spec`'s cells with none inserted yet.
    pub fn new(spec: &'a GridSpec) -> GridMerger<'a> {
        let cells = spec.cells();
        GridMerger {
            spec,
            slots: vec![None; cells.len()],
            cells,
            misfit: None,
        }
    }

    /// Slot one shard's report, copied to compact canonical bytes. An
    /// out-of-range or duplicate shard is kept as the merge's error.
    pub fn insert(&mut self, shard: usize, json: &str) {
        self.slot(shard, GridMerger::copy(shard, json).map(Cow::Owned));
    }

    /// One shard's report as compact canonical bytes, or why its bytes are
    /// not JSON: the copying half of [`GridMerger::insert`]. It needs no
    /// merger, so any thread can copy a cell while another slots.
    pub fn copy(shard: usize, json: &str) -> Result<String, ProofError> {
        let mut report = String::with_capacity(json.len());
        if serde_json::copy_canonical(json, &mut report) {
            report.shrink_to_fit();
            Ok(report)
        } else {
            serde_json::from_str::<Value>(json)
                .map(|tree| tree.to_string())
                .map_err(|e| ProofError::Serialize(format!("shard {shard} report: {e}")))
        }
    }

    /// Slot one shard's [`GridMerger::copy`], owned or borrowed from an
    /// earlier copy of the same bytes: the slotting half of
    /// [`GridMerger::insert`]. An out-of-range or duplicate shard is kept
    /// as the merge's error, so slotting copies in arrival order names the
    /// error `insert` would.
    pub fn slot(&mut self, shard: usize, copy: Result<Cow<'a, str>, ProofError>) {
        if self.misfit.is_some() {
            return;
        }
        let cells = self.slots.len();
        let Some(slot) = self.slots.get_mut(shard) else {
            self.misfit = Some(ProofError::InvalidSpec(format!(
                "shard {shard} out of range for a {cells}-cell grid"
            )));
            return;
        };
        if slot.is_some() {
            self.misfit = Some(ProofError::InvalidSpec(format!(
                "shard {shard} reported twice"
            )));
            return;
        }
        *slot = Some(copy);
    }

    /// Write the merged document: every cell's report and spec in
    /// canonical order, then `grid` and `sweep` — the derived
    /// [`BatchSweep`] of a multi-cell batch-sweep grid, `null` otherwise.
    pub fn finish(self) -> Result<MergedGrid, ProofError> {
        if let Some(misfit) = self.misfit {
            return Err(misfit);
        }
        let reports = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(shard, slot)| {
                slot.unwrap_or_else(|| {
                    Err(ProofError::InvalidSpec(format!(
                        "shard {shard} missing from the merge"
                    )))
                })
            })
            .collect::<Result<Vec<Cow<str>>, ProofError>>()?;
        let texts: Vec<&str> = reports.iter().map(|report| report.as_ref()).collect();
        let sweep = if self.spec.is_batch_sweep() && texts.len() > 1 {
            Some(batch_sweep_from_reports(&texts)?)
        } else {
            None
        };
        let report_bytes: usize = texts.iter().map(|r| r.len()).sum();
        let mut doc = String::with_capacity(report_bytes + 128 * texts.len() + 512);
        let mut report_spans = Vec::with_capacity(texts.len());
        doc.push_str("{\"cells\":[");
        for (shard, (cell, report)) in self.cells.iter().zip(&texts).enumerate() {
            if shard > 0 {
                doc.push(',');
            }
            doc.push_str("{\"report\":");
            let start = doc.len();
            doc.push_str(report);
            report_spans.push(start..doc.len());
            doc.push_str(",\"spec\":");
            doc.push_str(&serde::ser::to_json(cell, false));
            doc.push('}');
        }
        doc.push_str("],\"grid\":");
        doc.push_str(&serde::ser::to_json(&self.spec.view(), false));
        doc.push_str(",\"sweep\":");
        doc.push_str(&serde::ser::to_json(&sweep, false));
        doc.push('}');
        Ok(MergedGrid { doc, report_spans })
    }
}

/// Derive a [`BatchSweep`] from the per-batch reports of a single-config
/// grid, computing each point exactly as [`crate::sweep::sweep_batches`]
/// does so the curve is interchangeable with a direct sweep.
fn batch_sweep_from_reports(reports: &[&str]) -> Result<BatchSweep, ProofError> {
    let mut points = Vec::with_capacity(reports.len());
    let mut model = String::new();
    let mut platform = String::new();
    for json in reports {
        let r = ProfileReport::from_json(json)
            .map_err(|e| ProofError::Serialize(format!("sweep cell report: {e}")))?;
        model = r.model.clone();
        platform = r.platform.clone();
        points.push(SweepPoint {
            batch: r.batch,
            latency_ms: r.total_latency_ms,
            throughput_per_s: r.throughput_per_s(),
            achieved_gflops: r.achieved_gflops(),
        });
    }
    points.sort_by_key(|p| p.batch);
    Ok(BatchSweep {
        model,
        platform,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec {
            models: vec!["resnet-50".into(), "vit-tiny".into()],
            backends: vec![],
            platforms: vec!["a100".into()],
            dtypes: vec!["fp16".into()],
            batches: vec![1, 4],
            mode: None,
            seed: 7,
        }
    }

    #[test]
    fn expansion_is_canonical_and_counts_match() {
        let s = spec();
        let cells = s.cells();
        assert_eq!(cells.len(), s.cell_count());
        assert_eq!(cells.len(), 4);
        // model-major, batch-minor
        assert_eq!(cells[0].model, "resnet-50");
        assert_eq!(cells[0].batch, 1);
        assert_eq!(cells[1].batch, 4);
        assert_eq!(cells[2].model, "vit-tiny");
        // empty backend axis → omitted from the job spec
        assert!(cells[0].backend.is_none());
        let job = serde_json::to_value(&cells[0]);
        assert!(job.as_object().unwrap().get("backend").is_none());
        assert_eq!(job["hardware"], "a100");
        assert_eq!(job["seed"], 7u64);
    }

    #[test]
    fn from_value_accepts_scalar_and_plural_spellings() {
        let a = GridSpec::from_value(
            &serde_json::from_str(
                r#"{"models":["resnet-50"],"platform":"a100","batches":[1,2],"seed":3}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let b = GridSpec::from_value(
            &serde_json::from_str(
                r#"{"model":"resnet-50","hardware":"a100","batches":[1,2],"seed":3}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cells().len(), 2);
        // precision alias feeds the dtype axis
        let c = GridSpec::from_value(
            &serde_json::from_str(
                r#"{"model":"resnet-50","platform":"a100","precisions":["fp16","fp32"]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(c.dtypes, vec!["fp16".to_string(), "fp32".to_string()]);
        assert_eq!(c.batches, vec![1]);
        assert_eq!(c.seed, DEFAULT_GRID_SEED);
    }

    #[test]
    fn from_value_rejects_malformed_specs() {
        for bad in [
            r#"{"platform":"a100"}"#,                                   // no model
            r#"{"model":"resnet-50"}"#,                                 // no platform
            r#"{"model":"resnet-50","platform":"a100","batches":[]}"#,  // empty axis
            r#"{"model":"resnet-50","platform":"a100","bogus":1}"#,     // unknown field
            r#"{"models":[1],"platform":"a100"}"#,                      // non-string entry
            r#"{"model":"resnet-50","platform":"a100","backends":[]}"#, // empty axis
            r#"{"model":["resnet-50"],"platform":"a100"}"#,             // list as scalar
            r#"{"model":"resnet-50","platform":"a100","batch":-1}"#,    // negative batch
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(GridSpec::from_value(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn one_precedence_and_null_as_absent() {
        let read = |s: &str| GridSpec::from_value(&serde_json::from_str(s).unwrap());
        // an axis's own name wins over its alias, a list over its scalar
        let a = read(r#"{"model":"resnet-50","platform":"a100","hardware":"rtx-4090"}"#).unwrap();
        assert_eq!(a.platforms, ["a100"]);
        let b = read(
            r#"{"models":["vit-tiny"],"model":"resnet-50","hardware":"a100","dtype":"fp32","precisions":["int8"]}"#,
        )
        .unwrap();
        assert_eq!(
            (b.models, b.platforms, b.dtypes),
            (
                vec!["vit-tiny".to_string()],
                vec!["a100".to_string()],
                vec!["fp32".to_string()]
            )
        );
        // null reads as absent, on every key
        let plain = read(r#"{"model":"resnet-50","platform":"a100"}"#).unwrap();
        let nulls = read(
            r#"{"model":"resnet-50","platform":"a100","hardware":null,"models":null,"backend":null,"dtypes":null,"batch":null,"batches":null,"mode":null,"seed":null}"#,
        )
        .unwrap();
        assert_eq!(nulls, plain);
        // an empty list is refused under its own name
        let err = read(r#"{"model":"resnet-50","platform":"a100","dtypes":[]}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid spec: field 'dtypes' must not be empty"
        );
        // keys the caller reads itself are skipped, not refused
        let body: Value =
            serde_json::from_str(r#"{"model":"resnet-50","platform":"a100","timeout_ms":5}"#)
                .unwrap();
        assert!(GridSpec::from_value(&body).is_err());
        assert_eq!(
            GridSpec::from_value_except(&body, &["timeout_ms"]).unwrap(),
            plain
        );
    }

    #[test]
    fn from_value_rejects_a_grid_whose_cell_count_overflows() {
        // five axes of 2^13 entries: 2^65 cells, which an unchecked
        // product wraps to 0 — under the cap
        let axis = |v: Value| Value::Array(vec![v; 8192]);
        let mut m = Map::new();
        for key in ["models", "backends", "platforms", "dtypes"] {
            m.insert(key.to_string(), axis(Value::from("x")));
        }
        m.insert("batches".to_string(), axis(Value::from(1u64)));
        let err = GridSpec::from_value(&Value::Object(m)).unwrap_err();
        assert!(err.to_string().contains("larger than 4096"), "{err}");
    }

    #[test]
    fn merge_requires_exactly_one_report_per_shard() {
        let s = spec();
        let fake = |i: usize| (i, format!(r#"{{"cell":{i}}}"#));
        // missing shard 3
        let partial: Vec<_> = (0..3).map(fake).collect();
        assert!(merge_cells(&s, &partial).is_err());
        // duplicate shard
        let mut dup: Vec<_> = (0..4).map(fake).collect();
        dup.push(fake(0));
        assert!(merge_cells(&s, &dup).is_err());
        // out of range
        let mut oob: Vec<_> = (0..4).map(fake).collect();
        oob.push(fake(9));
        assert!(merge_cells(&s, &oob).is_err());
    }

    #[test]
    fn merge_is_order_independent() {
        let s = spec();
        let fake = |i: usize| (i, format!(r#"{{"cell":{i}}}"#));
        let forward: Vec<_> = (0..4).map(fake).collect();
        let reverse: Vec<_> = (0..4).rev().map(fake).collect();
        let a = merge_cells(&s, &forward).unwrap();
        let b = merge_cells(&s, &reverse).unwrap();
        assert_eq!(a, b, "merge must not depend on report arrival order");
        // cells land in canonical order inside the document
        let doc: Value = serde_json::from_str(&a).unwrap();
        let cells = doc["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0]["report"]["cell"], 0u64);
        assert_eq!(cells[3]["report"]["cell"], 3u64);
        assert_eq!(doc["grid"]["seed"], 7u64);
        // a 2-model grid is not a batch sweep
        assert!(doc["sweep"].is_null());
    }

    #[test]
    fn merged_spec_and_grid_members_are_pinned() {
        // defaulted axes: each cell omits backend/dtype/mode, the grid
        // member prints them as null
        let bare = GridSpec {
            models: vec!["resnet-50".into()],
            backends: vec![],
            platforms: vec!["a100".into()],
            dtypes: vec![],
            batches: vec![2],
            mode: None,
            seed: 7,
        };
        assert_eq!(
            merge_cells(&bare, &[(0, String::from("{}"))]).unwrap(),
            r#"{"cells":[{"report":{},"spec":{"batch":2,"hardware":"a100","model":"resnet-50","seed":7}}],"grid":{"backends":null,"batches":[2],"dtypes":null,"mode":null,"models":["resnet-50"],"platforms":["a100"],"seed":7},"sweep":null}"#
        );
        let full = GridSpec {
            models: vec!["vit-tiny".into()],
            backends: vec!["ort".into()],
            platforms: vec!["rtx-4090".into()],
            dtypes: vec!["fp32".into()],
            batches: vec![1],
            mode: Some("measured".into()),
            seed: 3,
        };
        assert_eq!(
            merge_cells(&full, &[(0, String::from("{}"))]).unwrap(),
            r#"{"cells":[{"report":{},"spec":{"backend":"ort","batch":1,"dtype":"fp32","hardware":"rtx-4090","mode":"measured","model":"vit-tiny","seed":3}}],"grid":{"backends":["ort"],"batches":[1],"dtypes":["fp32"],"mode":"measured","models":["vit-tiny"],"platforms":["rtx-4090"],"seed":3},"sweep":null}"#
        );
    }

    #[test]
    fn batch_sweep_grid_detection() {
        let mut s = spec();
        assert!(!s.is_batch_sweep());
        s.models = vec!["resnet-50".into()];
        assert!(s.is_batch_sweep());
    }

    /// The merge as it was before cell bytes were copied: parse every cell
    /// into a `Value` tree and print the whole document. The copying merge
    /// must match it byte for byte, errors included.
    fn merge_cells_tree(
        spec: &GridSpec,
        reports: &[(usize, String)],
    ) -> Result<String, ProofError> {
        let cells = spec.cells();
        let mut slots: Vec<Option<&str>> = vec![None; cells.len()];
        for (shard, json) in reports {
            let slot = slots.get_mut(*shard).ok_or_else(|| {
                ProofError::InvalidSpec(format!(
                    "shard {shard} out of range for a {}-cell grid",
                    cells.len()
                ))
            })?;
            if slot.is_some() {
                return Err(ProofError::InvalidSpec(format!(
                    "shard {shard} reported twice"
                )));
            }
            *slot = Some(json.as_str());
        }
        let mut cell_values = Vec::with_capacity(cells.len());
        let mut parsed = Vec::with_capacity(cells.len());
        for (shard, (cell, slot)) in cells.iter().zip(&slots).enumerate() {
            let json = slot.ok_or_else(|| {
                ProofError::InvalidSpec(format!("shard {shard} missing from the merge"))
            })?;
            let report: Value = serde_json::from_str(json)
                .map_err(|e| ProofError::Serialize(format!("shard {shard} report: {e}")))?;
            parsed.push(json);
            let mut m = Map::new();
            m.insert("report".to_string(), report);
            m.insert("spec".to_string(), serde_json::to_value(cell));
            cell_values.push(Value::Object(m));
        }
        let sweep = if spec.is_batch_sweep() && cells.len() > 1 {
            serde_json::to_value(&batch_sweep_from_reports(&parsed)?)
        } else {
            Value::Null
        };
        let mut doc = Map::new();
        doc.insert("cells".to_string(), Value::Array(cell_values));
        doc.insert("grid".to_string(), serde_json::to_value(&spec.view()));
        doc.insert("sweep".to_string(), sweep);
        Ok(Value::Object(doc).to_string())
    }

    /// Both merges give the same bytes, or the same error.
    fn assert_merges_like_tree(spec: &GridSpec, reports: &[(usize, String)]) -> Option<String> {
        let fast = merge_cells(spec, reports).map_err(|e| e.to_string());
        let tree = merge_cells_tree(spec, reports).map_err(|e| e.to_string());
        assert_eq!(fast, tree);
        fast.ok()
    }

    /// A real pretty-printed report, as a worker daemon returns it.
    fn real_report(
        model: proof_models::ModelId,
        platform: proof_hw::PlatformId,
        batch: u64,
    ) -> String {
        use proof_runtime::{BackendFlavor, SessionConfig};
        let platform = platform.spec();
        crate::profile_model(
            &model.build(batch),
            &platform,
            BackendFlavor::for_platform(&platform),
            &SessionConfig::new(proof_ir::DType::F16),
            crate::MetricMode::Predicted,
        )
        .unwrap()
        .try_to_json()
        .unwrap()
    }

    /// Every cell of the benchmark's fleet grid: all 20 models × {a100,
    /// rtx-4090} × batches {1, 8}.
    fn fleet_grid_reports() -> (GridSpec, Vec<(usize, String)>) {
        use proof_hw::PlatformId;
        use proof_models::ModelId;

        let platforms = [
            (PlatformId::A100, "a100"),
            (PlatformId::Rtx4090, "rtx-4090"),
        ];
        let batches = [1u64, 8];
        let spec = GridSpec {
            models: ModelId::ALL.iter().map(|m| m.slug().to_string()).collect(),
            backends: vec![],
            platforms: platforms.iter().map(|(_, slug)| slug.to_string()).collect(),
            dtypes: vec![],
            batches: batches.to_vec(),
            mode: None,
            seed: 1,
        };
        let mut reports = Vec::new();
        for model in ModelId::ALL {
            for (platform, _) in platforms {
                for batch in batches {
                    reports.push((reports.len(), real_report(model, platform, batch)));
                }
            }
        }
        assert_eq!(reports.len(), spec.cell_count());
        (spec, reports)
    }

    #[test]
    fn fleet_grid_reports_copy_to_the_tree_merge_bytes() {
        let (spec, reports) = fleet_grid_reports();
        for (shard, json) in &reports {
            let mut copied = String::new();
            assert!(
                serde_json::copy_canonical(json, &mut copied),
                "worker report of shard {shard} is not canonical"
            );
        }
        let merged = assert_merges_like_tree(&spec, &reports).unwrap();
        // shard arrival order does not matter on the copying path either
        let mut reversed = reports.clone();
        reversed.reverse();
        assert_eq!(merge_cells(&spec, &reversed).unwrap(), merged);
    }

    #[test]
    fn finished_merge_hands_back_the_compact_cells_in_canonical_order() {
        let s = spec();
        let mut merger = GridMerger::new(&s);
        for (shard, json) in [
            (2, "{\n  \"cell\": 2\n}"),
            (0, r#"{"cell":0}"#),
            (3, r#"{"b":1,"a":2}"#),
            (1, "[1.50]"),
        ] {
            merger.insert(shard, json);
        }
        let merged = merger.finish().unwrap();
        let reports: Vec<&str> = merged
            .report_spans
            .iter()
            .map(|span| &merged.doc[span.clone()])
            .collect();
        assert_eq!(
            reports,
            [
                r#"{"cell":0}"#,
                "[1.5]",
                r#"{"cell":2}"#,
                r#"{"a":2,"b":1}"#
            ]
        );
        // each span holds exactly its cell's report
        let doc: Value = serde_json::from_str(&merged.doc).unwrap();
        for (shard, json) in reports.into_iter().enumerate() {
            assert_eq!(doc["cells"][shard]["report"].to_string(), json);
        }
    }

    #[test]
    fn non_canonical_cells_fall_back_to_the_tree_bytes() {
        let s = spec();
        // (cell, whether it is canonical and so copied rather than re-printed)
        let variants = [
            ("{\n  \"a\": [1, 2.5, \"x\"],\n  \"b\": null\n}", true),
            (r#"{"x":-0.0,"y":1e16,"z":"\u001f\n"}"#, true),
            (r#"{"b":1,"a":2}"#, false),
            (r#"{"a":1,"a":2}"#, false),
            (r#"{"a":{"y":true,"x":false}}"#, false),
            (r#"{"path":"a\/b"}"#, false),
            (r#"{"name":"caf\u00e9"}"#, false),
            (r#"{"ctl":"\u001F"}"#, false),
            (r#"{"tab":"\u0009"}"#, false),
            (r#"["\ud83d\ude00"]"#, false),
            (r#"{"x":1E5}"#, false),
            (r#"{"x":1.50}"#, false),
            (r#"{"x":-0}"#, false),
            (r#"{"x":01}"#, false),
            (r#"{"x":18446744073709551616}"#, false),
            (r#"{"x":-9223372036854775809}"#, false),
            (r#"{"x":1e999}"#, false),
        ];
        for (variant, canonical) in variants {
            assert_eq!(
                serde_json::copy_canonical(variant, &mut String::new()),
                canonical,
                "{variant}"
            );
            // the odd cell sits among canonical ones, in every slot
            for slot in 0..4 {
                let reports: Vec<_> = (0..4)
                    .map(|i| {
                        let json = if i == slot {
                            variant.to_string()
                        } else {
                            format!(r#"{{"cell":{i}}}"#)
                        };
                        (i, json)
                    })
                    .collect();
                assert_merges_like_tree(&s, &reports).unwrap();
            }
        }
    }

    #[test]
    fn broken_cells_fail_like_the_tree_merge() {
        let s = spec();
        let reports: Vec<_> = (0..4)
            .map(|i| (i, format!("{{\n  \"cell\": {i},\n  \"ms\": 1.25\n}}")))
            .collect();
        for cut in [0, 1, reports[2].1.len() / 2, reports[2].1.len() - 1] {
            let mut broken = reports.clone();
            broken[2].1.truncate(cut);
            assert_merges_like_tree(&s, &broken);
            let err = merge_cells(&s, &broken).unwrap_err().to_string();
            assert!(err.contains("shard 2 report: "), "{err}");
        }
        // a bad cell before a missing one: the first failing shard in
        // canonical order names the error
        let mut broken = reports.clone();
        broken[1].1 = "{\"a\":".into();
        broken.pop();
        assert_merges_like_tree(&s, &broken);
        assert!(merge_cells(&s, &broken)
            .unwrap_err()
            .to_string()
            .contains("shard 1 report: "));
    }

    #[test]
    fn batch_sweep_merges_like_the_tree() {
        let mut s = spec();
        s.models = vec!["resnet-50".into()];
        let reports: Vec<_> = [1, 4]
            .into_iter()
            .enumerate()
            .map(|(i, batch)| {
                let model = proof_models::ModelId::ALL[0];
                (i, real_report(model, proof_hw::PlatformId::A100, batch))
            })
            .collect();
        let merged = assert_merges_like_tree(&s, &reports).unwrap();
        let doc: Value = serde_json::from_str(&merged).unwrap();
        assert_eq!(doc["sweep"]["points"].as_array().unwrap().len(), 2);
    }

    /// A random JSON value: every number kind (non-finite floats print as
    /// `null`), strings with escapes, control and non-ASCII chars, and
    /// nested containers.
    fn random_value(rng: &mut proptest::test_runner::TestRng, depth: u32) -> Value {
        const CHARS: [&str; 10] = [
            "a", "Z", "\"", "\\", "/", "\n", "\u{1}", "\u{7f}", "é", "😀",
        ];
        let string = |rng: &mut proptest::test_runner::TestRng| -> String {
            let len = rng.below(6);
            (0..len).map(|_| CHARS[rng.below(10) as usize]).collect()
        };
        let arm = if depth >= 4 {
            rng.below(6)
        } else {
            rng.below(8)
        };
        match arm {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::from(rng.next_u64() >> rng.below(64)),
            3 => Value::from(-((rng.next_u64() >> (rng.below(63) + 1)) as i64) - 1),
            4 => Value::from(match rng.below(3) {
                0 => f64::from_bits(rng.next_u64()),
                1 => (rng.unit_f64() - 0.5) * 1e6,
                _ => rng.below(100) as f64 * 0.25,
            }),
            5 => Value::String(string(rng)),
            6 => {
                let len = rng.below(4);
                Value::Array((0..len).map(|_| random_value(rng, depth + 1)).collect())
            }
            _ => {
                let len = rng.below(4);
                Value::Object(
                    (0..len)
                        .map(|_| (string(rng), random_value(rng, depth + 1)))
                        .collect(),
                )
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        #[test]
        fn random_cells_merge_like_the_tree(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::test_runner::TestRng::for_case(seed);
            let s = spec();
            let values: Vec<Value> = (0..4).map(|_| random_value(&mut rng, 0)).collect();
            for print in [serde_json::to_string_pretty::<Value>, serde_json::to_string::<Value>] {
                let reports: Vec<_> = values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i, print(v).unwrap()))
                    .collect();
                for (_, json) in &reports {
                    let mut copied = String::new();
                    proptest::prop_assert!(serde_json::copy_canonical(json, &mut copied), "{json}");
                }
                let fast = merge_cells(&s, &reports).map_err(|e| e.to_string());
                let tree = merge_cells_tree(&s, &reports).map_err(|e| e.to_string());
                proptest::prop_assert_eq!(fast, tree);
            }
        }

        /// Cells arrive in any order, as shards resolve on a fleet, with
        /// every defect a merge must name: truncated, missing, duplicate
        /// and out-of-range cells. Each arrival order gives the bytes or
        /// the error text the tree merge gives for that same order, and a
        /// clean grid gives the same bytes in every order.
        #[test]
        fn shuffled_arrivals_merge_like_the_tree(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::test_runner::TestRng::for_case(seed);
            let mut s = spec();
            if rng.below(2) == 1 {
                // a batch sweep: its cells must also parse as reports
                s.models.truncate(1);
                s.batches = vec![1, 2, 4, 8];
            }
            let mut reports: Vec<(usize, String)> = (0..4)
                .map(|i| {
                    let v = random_value(&mut rng, 0);
                    let json = if rng.below(2) == 1 {
                        serde_json::to_string_pretty(&v)
                    } else {
                        serde_json::to_string(&v)
                    };
                    (i, json.unwrap())
                })
                .collect();
            let clean = merge_cells(&s, &reports).map_err(|e| e.to_string());
            let mut defective = false;
            if rng.below(4) == 0 {
                let cell = rng.below(4) as usize;
                let json = &mut reports[cell].1;
                let mut cut = rng.below(json.len() as u64) as usize;
                while !json.is_char_boundary(cut) {
                    cut -= 1;
                }
                json.truncate(cut);
                defective = true;
            }
            if rng.below(4) == 0 {
                reports.remove(rng.below(reports.len() as u64) as usize);
                defective = true;
            }
            if rng.below(4) == 0 {
                let cell = rng.below(reports.len() as u64) as usize;
                let again = (reports[cell].0, format!(r#"{{"again":{cell}}}"#));
                reports.push(again);
                defective = true;
            }
            if rng.below(4) == 0 {
                reports.push((4 + rng.below(4) as usize, "{}".to_string()));
                defective = true;
            }
            for orders in 0..4 {
                // Fisher–Yates; the first order is the one as built
                if orders > 0 {
                    for i in (1..reports.len()).rev() {
                        reports.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                let fast = merge_cells(&s, &reports).map_err(|e| e.to_string());
                let tree = merge_cells_tree(&s, &reports).map_err(|e| e.to_string());
                proptest::prop_assert_eq!(&fast, &tree);
                if !defective {
                    proptest::prop_assert_eq!(&fast, &clean);
                }
            }
        }
    }
}
