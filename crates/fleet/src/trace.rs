//! Cross-node trace merging: one Perfetto/Chrome-trace document for a whole
//! fleet run, assembled from the coordinator's dispatch record and each
//! worker's span listing (`GET /trace/<id>?format=spans`, decoded as a
//! [`TraceSpans`]).
//!
//! The merged document is **byte-deterministic** for a given spec and
//! seed, whichever node ran which shard, which takes three deliberate
//! moves:
//!
//! 1. **The coordinator track is synthesized, not sampled.** Shards
//!    complete in an order that races across nodes, so the coordinator
//!    records no spans of its own; its track is built from the
//!    [`ShardReport`]s on one logical cursor — `fleet_run` covers the
//!    whole run, shard `k` (in canonical shard order) occupies its own
//!    slot inside it.
//! 2. **Job subtrees are laid out by shard, not by node.** A shard's
//!    report names the node and job that ran it, which finds the job's
//!    span subtree in that node's listing. Each job ran on its own capture
//!    clock, so its subtree is shifted onto the shard's slot as it stands
//!    and its span ids are renumbered into one collision-free global
//!    sequence — raw ids come from per-process allocators and would differ
//!    run to run. Which node ran a shard is a scheduling outcome and stays
//!    out of the bytes (run status events carry it).
//! 3. **Run-varying fields are dropped or resolved.** `remote_parent` (a
//!    coordinator-process span id) never reaches the output: the job id is
//!    resolved to its canonical `shard` index and the job span is
//!    re-parented onto the synthesized `fleet_shard`.
//!
//! Tracks: the coordinator is pid 1 and every job subtree is pid 2. Shard
//! `k`'s `fleet_shard` starts where shard `k - 1`'s slot ended plus one
//! tick and lasts as long as its job span (1 tick when no listing holds
//! the job), with the job subtree beside it at the same start.

use crate::dispatcher::ShardReport;
use proof_obs::export::{chrome_trace_json, TraceEvent};
use proof_obs::FieldValue;
use proof_serve::{SpanView, TraceSpans};
use serde_json::Value;
use std::collections::HashMap;

/// pid of the synthesized coordinator track.
pub const COORDINATOR_PID: u32 = 1;

/// pid of the track every shard's job subtree is laid out on.
pub const JOB_PID: u32 = 2;

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
    let mut ordered: Vec<&ShardReport> = shards.iter().collect();
    ordered.sort_by_key(|r| r.shard);
    let subtrees: HashMap<usize, HashMap<u64, Vec<&SpanView>>> = node_docs
        .iter()
        .map(|(node, doc)| (*node, job_subtrees(doc)))
        .collect();

    let mut events: Vec<TraceEvent> = Vec::new();
    let run_id = 1;
    let mut next_id = run_id + 1;
    let mut cursor = 1.0;
    for report in ordered {
        let shard_id = next_id;
        next_id += 1;
        let subtree = subtrees
            .get(&report.node)
            .and_then(|jobs| jobs.get(&report.job_id))
            .map_or(&[][..], Vec::as_slice);
        // the job span opens first on its capture clock and closes last
        let t0 = subtree.first().map_or(0.0, |s| s.start_us);
        let dur = subtree.first().map_or(1.0, |s| s.end_us - t0);
        events.push(TraceEvent {
            name: "fleet_shard".to_string(),
            cat: "fleet",
            pid: COORDINATOR_PID,
            tid: 0,
            ts_us: cursor,
            dur_us: dur,
            args: vec![
                ("span".to_string(), FieldValue::U64(shard_id)),
                ("parent".to_string(), FieldValue::U64(run_id)),
                ("shard".to_string(), FieldValue::U64(report.shard as u64)),
                (
                    "attempts".to_string(),
                    FieldValue::U64(u64::from(report.attempts)),
                ),
            ],
        });
        // renumber into the global sequence, in logical start order; the
        // job span re-parents onto the synthesized fleet_shard
        let base = next_id;
        next_id += subtree.len() as u64;
        for (i, s) in subtree.iter().enumerate() {
            let parent = subtree.iter().position(|p| p.id == s.parent);
            let mut args = vec![
                ("span".to_string(), FieldValue::U64(base + i as u64)),
                (
                    "parent".to_string(),
                    FieldValue::U64(parent.map_or(shard_id, |j| base + j as u64)),
                ),
            ];
            if i == 0 {
                args.push(("shard".to_string(), FieldValue::U64(report.shard as u64)));
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
                pid: JOB_PID,
                tid: 0,
                ts_us: cursor + s.start_us - t0,
                dur_us: s.end_us - s.start_us,
                args,
            });
        }
        cursor += dur + 1.0;
    }
    events.push(TraceEvent {
        name: "fleet_run".to_string(),
        cat: "fleet",
        pid: COORDINATOR_PID,
        tid: 0,
        ts_us: 0.0,
        dur_us: cursor,
        args: vec![
            ("span".to_string(), FieldValue::U64(run_id)),
            ("parent".to_string(), FieldValue::U64(0)),
            ("shards".to_string(), FieldValue::U64(shards.len() as u64)),
            ("nodes".to_string(), FieldValue::U64(nodes_total as u64)),
        ],
    });
    chrome_trace_json(&events)
}

/// Each listed job's span subtree, keyed by job id: the `job` span, then
/// every span whose parent chain leads to it, in logical start order. Span
/// ids are unique in a listing, and within one job (one capture clock) a
/// parent opens before its children.
fn job_subtrees(doc: &TraceSpans) -> HashMap<u64, Vec<&SpanView>> {
    let mut spans: Vec<&SpanView> = doc.spans.iter().collect();
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let mut owner: HashMap<u64, u64> = HashMap::new();
    let mut jobs: HashMap<u64, Vec<&SpanView>> = HashMap::new();
    for s in spans {
        let job = match field(s, "job") {
            Some(FieldValue::U64(job)) if s.name == "job" => Some(job),
            _ => owner.get(&s.parent).copied(),
        };
        if let Some(job) = job {
            owner.insert(s.id, job);
            jobs.entry(job).or_default().push(s);
        }
    }
    jobs
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
        // coordinator track: fleet_run + 2 fleet_shard, then 2 spans/job
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
        // the job subtrees share one track beside the coordinator's
        let pids: std::collections::BTreeSet<u64> =
            events.iter().map(|e| e["pid"].as_u64().unwrap()).collect();
        assert_eq!(pids, [1u64, 2].into_iter().collect());
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
    fn merge_does_not_depend_on_which_node_ran_a_shard() {
        // shard 1's job is longer than shard 0's, so a swapped layout shows
        let long = |job_id: u64, base_id: u64| {
            let mut doc = node_doc(job_id, base_id, 0.0);
            doc.spans[0].end_us = 20.0;
            doc
        };
        let a = merge_fleet_trace(
            &[report(0, 0, 9), report(1, 1, 4)],
            2,
            &[(0, node_doc(9, 50, 0.0)), (1, long(4, 80))],
        );
        let b = merge_fleet_trace(
            &[report(0, 1, 4), report(1, 0, 9)],
            2,
            &[(1, node_doc(4, 80, 0.0)), (0, long(9, 50))],
        );
        assert_eq!(a, b);
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
{"name":"fleet_run","cat":"fleet","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":23.000,"args":{"span":1,"parent":0,"shards":2,"nodes":2}},
{"name":"fleet_shard","cat":"fleet","ph":"X","pid":1,"tid":0,"ts":1.000,"dur":10.000,"args":{"span":2,"parent":1,"shard":0,"attempts":1}},
{"name":"job","cat":"pipeline","ph":"X","pid":2,"tid":0,"ts":1.000,"dur":10.000,"args":{"span":3,"parent":2,"shard":0,"status":"done"}},
{"name":"compile","cat":"pipeline","ph":"X","pid":2,"tid":0,"ts":2.000,"dur":1.000,"args":{"span":4,"parent":3,"delta":-2,"hit":true,"ratio":0.500,"rows":3}},
{"name":"fleet_shard","cat":"fleet","ph":"X","pid":1,"tid":0,"ts":12.000,"dur":10.000,"args":{"span":5,"parent":1,"shard":1,"attempts":1}},
{"name":"job","cat":"pipeline","ph":"X","pid":2,"tid":0,"ts":12.000,"dur":10.000,"args":{"span":6,"parent":5,"shard":1,"status":"done"}},
{"name":"compile","cat":"pipeline","ph":"X","pid":2,"tid":0,"ts":13.000,"dur":1.000,"args":{"span":7,"parent":6,"delta":-2,"hit":true,"ratio":0.500,"rows":3}}
],"displayTimeUnit":"ms"}
"#
        );
    }

    #[test]
    fn listed_jobs_outside_the_run_are_left_out() {
        // node 0 also ran job 5 under this trace (an attempt the run gave
        // up on): only the job its shard report names, and that job's
        // children, reach the job track
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
