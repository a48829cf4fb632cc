//! Cross-node trace merging: one Perfetto/Chrome-trace document for a whole
//! fleet run, assembled from the coordinator's dispatch record and each
//! worker's span listing (`GET /trace/<id>?format=spans`, decoded as a
//! [`TraceSpans`]).
//!
//! The merged document is **byte-deterministic** for a given spec, seed,
//! and topology, which takes three deliberate moves:
//!
//! 1. **The coordinator track is synthesized, not sampled.** Shards
//!    complete in an order that races across nodes, so the coordinator
//!    records no spans of its own; its track is built from the
//!    [`ShardReport`]s on a unit-step logical timeline — `fleet_run` covers
//!    the whole run, shard `k` (in canonical shard order) occupies its own
//!    slot inside it.
//! 2. **Node tracks are re-anchored and renumbered.** Each node's spans are
//!    sorted by (logical start, id), shifted so the node's first span
//!    starts at 0, and every span id is renumbered into one collision-free
//!    global sequence — raw ids come from per-process allocators and would
//!    differ run to run.
//! 3. **Run-varying fields are dropped or resolved.** `remote_parent` (a
//!    coordinator-process span id) never reaches the output: the job id is
//!    resolved to its canonical `shard` index and the job span is
//!    re-parented onto the synthesized `fleet_shard`.
//!
//! Tracks: the coordinator is pid 1; node `i` is pid `2 + i`, so every node
//! renders as its own process row in Perfetto.

use crate::dispatcher::ShardReport;
use proof_obs::export::{chrome_trace_json, TraceEvent};
use proof_obs::FieldValue;
use proof_serve::{SpanView, TraceSpans};
use serde_json::Value;

/// pid of the synthesized coordinator track.
pub const COORDINATOR_PID: u32 = 1;

/// pid of node `i`'s track.
pub fn node_pid(node: usize) -> u32 {
    2 + node as u32
}

/// A span field as the merged trace writes it. The order of the checks
/// decides the kind a JSON number reads back as, and so the merged bytes.
fn field_from_value(v: &Value) -> FieldValue {
    if let Some(n) = v.as_u64() {
        FieldValue::U64(n)
    } else if let Some(n) = v.as_i64() {
        FieldValue::I64(n)
    } else if let Some(b) = v.as_bool() {
        FieldValue::Bool(b)
    } else if let Some(x) = v.as_f64() {
        FieldValue::F64(x)
    } else if let Some(s) = v.as_str() {
        FieldValue::Str(s.to_string())
    } else {
        FieldValue::Str(v.to_string())
    }
}

/// The span's field `key`, read as it would be merged.
fn field(span: &SpanView, key: &str) -> Option<FieldValue> {
    span.fields.get(key).map(field_from_value)
}

/// Merge one fleet run into a Chrome-trace document.
///
/// - `shards`: the run's completion records (any order; sorted internally
///   by canonical shard id).
/// - `nodes_total`: registry size, recorded on the `fleet_run` slice.
/// - `node_docs`: `(node index, span listing)` per node that answered the
///   post-run trace fetch. A listing holds only that daemon's own jobs.
pub fn merge_fleet_trace(
    shards: &[ShardReport],
    nodes_total: usize,
    node_docs: &[(usize, TraceSpans)],
) -> String {
    let mut ordered: Vec<ShardReport> = shards.to_vec();
    ordered.sort_by_key(|r| r.shard);
    let n = ordered.len();

    let mut events: Vec<TraceEvent> = Vec::new();
    let mut next_id: u64 = 1;

    // --- coordinator track: synthesized unit-step timeline ---
    let run_id = next_id;
    next_id += 1;
    events.push(TraceEvent {
        name: "fleet_run".to_string(),
        cat: "fleet",
        pid: COORDINATOR_PID,
        tid: 0,
        ts_us: 0.0,
        dur_us: (2 * n + 2) as f64,
        args: vec![
            ("span".to_string(), FieldValue::U64(run_id)),
            ("parent".to_string(), FieldValue::U64(0)),
            ("shards".to_string(), FieldValue::U64(n as u64)),
            ("nodes".to_string(), FieldValue::U64(nodes_total as u64)),
        ],
    });
    // (node, worker job id) -> the synthesized fleet_shard's exported id
    // and canonical shard index; the join key for re-parenting job spans
    let mut shard_anchor: Vec<((usize, u64), (u64, usize))> = Vec::new();
    for (k, report) in ordered.iter().enumerate() {
        let id = next_id;
        next_id += 1;
        shard_anchor.push(((report.node, report.job_id), (id, report.shard)));
        events.push(TraceEvent {
            name: "fleet_shard".to_string(),
            cat: "fleet",
            pid: COORDINATOR_PID,
            tid: 0,
            ts_us: (2 * k + 1) as f64,
            dur_us: 1.0,
            args: vec![
                ("span".to_string(), FieldValue::U64(id)),
                ("parent".to_string(), FieldValue::U64(run_id)),
                ("shard".to_string(), FieldValue::U64(report.shard as u64)),
                ("node".to_string(), FieldValue::U64(report.node as u64)),
                (
                    "attempts".to_string(),
                    FieldValue::U64(u64::from(report.attempts)),
                ),
            ],
        });
    }
    let anchor = |node: usize, job: u64| -> Option<(u64, usize)> {
        shard_anchor
            .iter()
            .find(|(key, _)| *key == (node, job))
            .map(|(_, v)| *v)
    };

    // --- node tracks, in node-index order ---
    let mut docs: Vec<&(usize, TraceSpans)> = node_docs.iter().collect();
    docs.sort_by_key(|(i, _)| *i);
    for (node, doc) in docs {
        let mut spans: Vec<&SpanView> = doc.spans.iter().collect();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        let shard_of = |s: &SpanView| match field(s, "job") {
            Some(FieldValue::U64(job)) => anchor(*node, job),
            _ => None,
        };
        // ownership pass: keep the job spans of this run's shards, plus
        // every span whose parent chain leads to one (spans are sorted by
        // logical start, so parents precede their children)
        let mut kept: Vec<&SpanView> = Vec::new();
        let mut kept_ids: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for s in spans {
            let shard_job = s.name == "job" && shard_of(s).is_some();
            if shard_job || kept_ids.contains(&s.parent) {
                kept_ids.insert(s.id);
                kept.push(s);
            }
        }
        if kept.is_empty() {
            continue;
        }
        let t0 = kept
            .iter()
            .map(|s| s.start_us)
            .fold(f64::INFINITY, f64::min);
        // renumber into the global sequence, in (start, id) order
        let local: std::collections::HashMap<u64, u64> = kept
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, next_id + i as u64))
            .collect();
        next_id += kept.len() as u64;
        for s in &kept {
            let job = shard_of(s);
            let parent = match local.get(&s.parent) {
                Some(&p) => p,
                // a job span roots its node-local subtree; re-parent it
                // onto the coordinator's synthesized fleet_shard
                None => job.map(|(anchor_id, _)| anchor_id).unwrap_or(0),
            };
            let mut args = vec![
                ("span".to_string(), FieldValue::U64(local[&s.id])),
                ("parent".to_string(), FieldValue::U64(parent)),
            ];
            if let Some((_, shard)) = job {
                args.push(("shard".to_string(), FieldValue::U64(shard as u64)));
            }
            args.extend(
                s.fields
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "job" | "remote_parent"))
                    .map(|(k, v)| (k.clone(), field_from_value(v))),
            );
            events.push(TraceEvent {
                name: s.name.clone(),
                cat: "pipeline",
                pid: node_pid(*node),
                tid: 0,
                ts_us: s.start_us - t0,
                dur_us: s.end_us - s.start_us,
                args,
            });
        }
    }
    chrome_trace_json(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn report(shard: usize, node: usize, job_id: u64) -> ShardReport {
        ShardReport {
            shard,
            node,
            job_id,
            attempts: 1,
        }
    }

    fn node_doc(job_id: u64, base_id: u64, start: f64) -> TraceSpans {
        serde_json::from_value(&node_json(job_id, base_id, start)).unwrap()
    }

    fn node_json(job_id: u64, base_id: u64, start: f64) -> Value {
        json!({
            "trace": 7,
            "spans": [
                {
                    "id": base_id,
                    "parent": 0,
                    "name": "job",
                    "start_us": start,
                    "end_us": (start + 10.0),
                    "wall_us": 123.4,
                    "fields": {"job": job_id, "remote_parent": 99, "status": "done"}
                },
                {
                    "id": (base_id + 1),
                    "parent": base_id,
                    "name": "compile",
                    "start_us": (start + 1.0),
                    "end_us": (start + 2.0),
                    "wall_us": 55.0,
                    "fields": {"rows": 3, "delta": (-2), "ratio": 0.5, "hit": true}
                }
            ]
        })
    }

    #[test]
    fn merge_synthesizes_a_deterministic_coordinator_track() {
        // same run observed with different completion orders and different
        // raw span ids must merge byte-identically
        let a = merge_fleet_trace(
            &[report(1, 1, 4), report(0, 0, 9)],
            2,
            &[(0, node_doc(9, 50, 0.0)), (1, node_doc(4, 80, 0.0))],
        );
        let b = merge_fleet_trace(
            &[report(0, 0, 9), report(1, 1, 4)],
            2,
            &[(1, node_doc(4, 700, 5.0)), (0, node_doc(9, 300, 2.0))],
        );
        assert_eq!(
            a, b,
            "merge must not depend on observation order or raw ids"
        );

        let doc: Value = serde_json::from_str(&a).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // coordinator track: fleet_run + 2 fleet_shard, then 2 spans/node
        assert_eq!(events.len(), 3 + 4);
        let run = events.iter().find(|e| e["name"] == "fleet_run").unwrap();
        assert_eq!(run["pid"].as_u64(), Some(1));
        assert_eq!(run["args"]["shards"].as_u64(), Some(2));
        let shard_spans: Vec<&Value> = events
            .iter()
            .filter(|e| e["name"] == "fleet_shard")
            .collect();
        assert_eq!(shard_spans.len(), 2);
        for s in &shard_spans {
            assert_eq!(s["args"]["parent"], run["args"]["span"]);
        }
        // each node renders as its own process track
        let pids: std::collections::BTreeSet<u64> =
            events.iter().map(|e| e["pid"].as_u64().unwrap()).collect();
        assert_eq!(pids, [1u64, 2, 3].into_iter().collect());
        // job spans are re-parented onto their fleet_shard, carry the
        // canonical shard index, and drop the run-varying fields
        for job in events.iter().filter(|e| e["name"] == "job") {
            let parent = &job["args"]["parent"];
            let anchor = shard_spans
                .iter()
                .find(|s| s["args"]["span"] == *parent)
                .expect("job parented onto a fleet_shard");
            assert_eq!(anchor["args"]["shard"], job["args"]["shard"]);
            assert!(job["args"]["remote_parent"].is_null());
            assert!(job["args"]["job"].is_null());
            assert_eq!(job["args"]["status"], "done");
        }
        // stage spans stay children of their job span
        let compile = events.iter().find(|e| e["name"] == "compile").unwrap();
        let job_ids: Vec<&Value> = events
            .iter()
            .filter(|e| e["name"] == "job")
            .map(|e| &e["args"]["span"])
            .collect();
        assert!(job_ids.contains(&&compile["args"]["parent"]));
    }

    #[test]
    fn merge_bytes_are_pinned() {
        let merged = merge_fleet_trace(
            &[report(1, 1, 4), report(0, 0, 9)],
            2,
            &[(0, node_doc(9, 50, 0.0)), (1, node_doc(4, 80, 3.0))],
        );
        assert_eq!(
            merged,
            r#"{"traceEvents":[
{"name":"fleet_run","cat":"fleet","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":6.000,"args":{"span":1,"parent":0,"shards":2,"nodes":2}},
{"name":"job","cat":"pipeline","ph":"X","pid":2,"tid":0,"ts":0.000,"dur":10.000,"args":{"span":4,"parent":2,"shard":0,"status":"done"}},
{"name":"job","cat":"pipeline","ph":"X","pid":3,"tid":0,"ts":0.000,"dur":10.000,"args":{"span":6,"parent":3,"shard":1,"status":"done"}},
{"name":"fleet_shard","cat":"fleet","ph":"X","pid":1,"tid":0,"ts":1.000,"dur":1.000,"args":{"span":2,"parent":1,"shard":0,"node":0,"attempts":1}},
{"name":"compile","cat":"pipeline","ph":"X","pid":2,"tid":0,"ts":1.000,"dur":1.000,"args":{"span":5,"parent":4,"delta":-2,"hit":true,"ratio":0.500,"rows":3}},
{"name":"compile","cat":"pipeline","ph":"X","pid":3,"tid":0,"ts":1.000,"dur":1.000,"args":{"span":7,"parent":6,"delta":-2,"hit":true,"ratio":0.500,"rows":3}},
{"name":"fleet_shard","cat":"fleet","ph":"X","pid":1,"tid":0,"ts":3.000,"dur":1.000,"args":{"span":3,"parent":1,"shard":1,"node":1,"attempts":1}}
],"displayTimeUnit":"ms"}
"#
        );
    }

    #[test]
    fn listed_jobs_outside_the_run_are_left_out() {
        // node 0 also ran job 5 under this trace (an attempt the run gave
        // up on): only the job its shard report names, and that job's
        // children, reach the node track
        let mut listing = node_doc(9, 50, 0.0);
        listing.spans.extend(node_doc(5, 60, 20.0).spans);
        let merged = merge_fleet_trace(&[report(0, 0, 9)], 1, &[(0, listing)]);
        let doc: Value = serde_json::from_str(&merged).unwrap();
        let node: Vec<&Value> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["pid"] == 2)
            .collect();
        assert_eq!(node.len(), 2, "{merged}");
        assert!(node.iter().all(|e| e["ts"].as_f64() < Some(20.0)));
    }

    #[test]
    fn empty_run_is_still_a_valid_document() {
        let merged = merge_fleet_trace(&[], 0, &[]);
        let doc: Value = serde_json::from_str(&merged).unwrap();
        // just the fleet_run slice
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 1);
    }
}
