//! Result merging: shard reports → the one combined artifact.
//!
//! The work (slotting by canonical shard id, duplicate/missing detection,
//! sweep reassembly, sorted-key output) lives in [`proof_core::GridMerger`]
//! so the coordinator and any library user share one implementation. It
//! copies each shard's report bytes in compact form when they are already
//! canonical — every worker report is — and parses and re-prints only a
//! report that is not, so the artifact's bytes never depend on which path
//! a cell took or in what order the shards landed.
//!
//! A fleet run merges as shards land: `spawn_merge` starts a run's merge
//! thread, which starts the run's other copy threads — one per core in
//! all, and no more than the run has shards. The dispatcher moves each resolved report over one channel, and
//! whichever copy thread is free takes it and copies it to compact bytes
//! ([`GridMerger::copy`]) while the dispatcher waits on node replies, so
//! a warm grid's back-to-back arrivals are copied on every core. When
//! dispatch ends — done or failed — the channel closes; the merge thread
//! joins its helpers, slots the copies in arrival order
//! ([`GridMerger::slot`]) and writes the document ([`GridMerger::finish`])
//! while the run thread fetches the nodes' span listings; then the run
//! thread joins it.
//!
//! Past its HTTP read, a report's bytes are copied twice: the walk that
//! checks them copies them into the cell's slot, and `finish`
//! concatenates the slots into the document. The finished run is then
//! handed to every caller as one shared `Arc<FleetRun>` (see
//! [`crate::runs::RunHandle::wait`]); only an HTTP reply copies the
//! document, into its body.

use proof_core::{merge_cells, GridMerger, GridSpec, MergedGrid, ProofError};
use std::sync::mpsc::Receiver;
use std::sync::Mutex;
use std::thread::{Builder, Scope, ScopedJoinHandle};

/// Merge shard results into the combined artifact. Exactly one report per
/// shard id is required; order does not matter (the merge slots
/// canonically), which is what makes the output independent of dispatch
/// interleaving.
pub fn merge_run(spec: &GridSpec, results: &[(usize, String)]) -> Result<String, ProofError> {
    merge_cells(spec, results)
}

/// Start a run's merge thread in `scope`, named `merge-<trace>` after the
/// run's trace id. It starts `copiers - 1` helpers, `copy-<trace>-<i>`,
/// and all `copiers` threads copy every `(shard id, report)` that
/// `arrivals` yields. Once every sender is dropped, the merge thread joins
/// the helpers, slots the copies in arrival order — so the first
/// out-of-range or duplicate shard to arrive names the error, as in
/// [`merge_cells`] — and finishes the merge. A panic in any copy thread
/// reaches the merge thread's join.
pub(crate) fn spawn_merge<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    spec: &'env GridSpec,
    trace: u64,
    copiers: usize,
    arrivals: Receiver<(usize, String)>,
) -> std::io::Result<ScopedJoinHandle<'scope, Result<MergedGrid, ProofError>>> {
    Builder::new()
        .name(format!("merge-{trace}"))
        .spawn_scoped(scope, move || {
            let arrivals = Mutex::new(Arrivals { taken: 0, arrivals });
            let mut copies = std::thread::scope(|helpers| {
                // a helper that cannot start leaves its share to the others
                let copying: Vec<_> = (1..copiers)
                    .filter_map(|i| {
                        Builder::new()
                            .name(format!("copy-{trace}-{i}"))
                            .spawn_scoped(helpers, || copy_arrivals(&arrivals))
                            .ok()
                    })
                    .collect();
                let mut copies = copy_arrivals(&arrivals);
                for helper in copying {
                    copies.extend(
                        helper
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    );
                }
                copies
            });
            copies.sort_unstable_by_key(|&(arrival, ..)| arrival);
            let mut merger = GridMerger::new(spec);
            for (_, shard, copy) in copies {
                merger.slot(shard, copy);
            }
            merger.finish()
        })
}

/// A run's report channel, shared by its copy threads, and how many
/// reports they have taken from it.
struct Arrivals {
    taken: usize,
    arrivals: Receiver<(usize, String)>,
}

/// One shard's copied report, tagged with its arrival number.
type CellCopy = (usize, usize, Result<String, ProofError>);

/// Take reports off the channel until it closes, copying each outside the
/// lock, and return the copies this thread made.
fn copy_arrivals(arrivals: &Mutex<Arrivals>) -> Vec<CellCopy> {
    let mut copies = Vec::new();
    loop {
        let (arrival, (shard, report)) = {
            let mut shared = arrivals.lock().unwrap_or_else(|e| e.into_inner());
            let Ok(next) = shared.arrivals.recv() else {
                return copies;
            };
            shared.taken += 1;
            (shared.taken, next)
        };
        copies.push((arrival, shard, GridMerger::copy(shard, &report)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A four-cell grid that is no batch sweep, so its cells may be any
    /// JSON.
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

    /// A canonical (pretty) report for `shard`, big enough that copying
    /// it takes a while, so the copy threads take turns at the channel.
    fn report(shard: usize) -> String {
        let rows: Vec<String> = (0..1000)
            .map(|i| {
                format!(
                    "    {{\n      \"row\": {i},\n      \"x\": {}.5\n    }}",
                    shard + i
                )
            })
            .collect();
        format!(
            "{{\n  \"cell\": {shard},\n  \"rows\": [\n{}\n  ]\n}}",
            rows.join(",\n")
        )
    }

    /// The run merge over `copiers` threads, fed `arrivals` in order.
    fn run_merge(
        spec: &GridSpec,
        copiers: usize,
        arrivals: &[(usize, String)],
    ) -> Result<MergedGrid, ProofError> {
        std::thread::scope(|scope| {
            let (reports, received) = mpsc::channel();
            let merge = spawn_merge(scope, spec, 0, copiers, received).unwrap();
            for arrival in arrivals {
                reports.send(arrival.clone()).unwrap();
            }
            drop(reports);
            merge.join().unwrap()
        })
    }

    /// The sequential reference: `insert` in arrival order.
    fn reference(spec: &GridSpec, arrivals: &[(usize, String)]) -> Result<MergedGrid, ProofError> {
        let mut merger = GridMerger::new(spec);
        for (shard, json) in arrivals {
            merger.insert(*shard, json);
        }
        merger.finish()
    }

    #[test]
    fn run_merge_matches_the_sequential_fold_on_any_thread_count() {
        let s = spec();
        let cell = |shard: usize| (shard, report(shard));
        let order = |shards: &[usize]| shards.iter().map(|&i| cell(i)).collect::<Vec<_>>();
        let cases: Vec<(&str, Vec<(usize, String)>)> = vec![
            ("canonical", order(&[0, 1, 2, 3])),
            ("reversed", order(&[3, 2, 1, 0])),
            ("interleaved", order(&[1, 3, 0, 2])),
            ("duplicate", order(&[0, 2, 1, 2, 3])),
            ("out of range", order(&[0, 1, 9, 2, 3])),
            ("out of range, then duplicate", order(&[3, 7, 0, 0, 1, 2])),
            ("duplicate, then out of range", order(&[3, 0, 0, 7, 1, 2])),
            ("missing", order(&[2, 0, 3])),
            ("non-canonical", {
                let mut cells = order(&[1, 0, 3, 2]);
                let odd = r#"{"b":1,"a":[2.50,1E5]}"#;
                assert!(!serde_json::copy_canonical(odd, &mut String::new()));
                cells[3].1 = odd.into();
                cells
            }),
            ("unparseable", {
                let mut cells = order(&[0, 3, 1, 2]);
                cells[2].1 = r#"{"a" 1}"#.into();
                cells
            }),
        ];
        for (case, arrivals) in &cases {
            let expected = reference(&s, arrivals);
            for copiers in 1..=3 {
                assert_eq!(
                    run_merge(&s, copiers, arrivals),
                    expected,
                    "{case}, {copiers} copy threads"
                );
            }
        }
        // the cases reach every outcome: a document, and each error
        let outcomes: Vec<String> = cases
            .iter()
            .map(|(_, arrivals)| match reference(&s, arrivals) {
                Ok(merged) => format!("ok {}", merged.reports.len()),
                Err(e) => e.to_string(),
            })
            .collect();
        assert_eq!(
            outcomes,
            [
                "ok 4",
                "ok 4",
                "ok 4",
                "invalid spec: shard 2 reported twice",
                "invalid spec: shard 9 out of range for a 4-cell grid",
                "invalid spec: shard 7 out of range for a 4-cell grid",
                "invalid spec: shard 0 reported twice",
                "invalid spec: shard 1 missing from the merge",
                "ok 4",
                "serialize: shard 1 report: expected `:` at line 1 column 6",
            ]
        );
    }

    #[test]
    fn every_placement_of_two_misfits_names_the_first_to_arrive() {
        let s = spec();
        let mut named = Vec::new();
        // a second shard 1 and an out-of-range shard 9, each at every
        // position among the four good cells
        for dup in 0..=4 {
            for far in 0..=5 {
                let mut shards = vec![0, 1, 2, 3];
                shards.insert(dup, 1);
                shards.insert(far, 9);
                let arrivals: Vec<_> = shards.iter().map(|&i| (i, report(i))).collect();
                let expected = reference(&s, &arrivals);
                for copiers in 2..=3 {
                    assert_eq!(
                        run_merge(&s, copiers, &arrivals),
                        expected,
                        "{shards:?}, {copiers} copy threads"
                    );
                }
                named.push(expected.unwrap_err().to_string());
            }
        }
        for error in [
            "invalid spec: shard 1 reported twice",
            "invalid spec: shard 9 out of range for a 4-cell grid",
        ] {
            assert!(named.iter().any(|e| e == error), "{error} never named");
        }
    }
}
