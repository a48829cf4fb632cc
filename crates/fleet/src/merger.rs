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
//! all, and no more than the run has shards. The dispatcher moves each
//! resolved report over one channel, and whichever copy thread is free
//! takes it while the dispatcher waits on node replies, so a warm grid's
//! back-to-back arrivals are copied on every core. When dispatch ends —
//! done or failed — the channel closes; the merge thread joins its
//! helpers, slots the copies in arrival order ([`GridMerger::slot`]) and
//! writes the document ([`GridMerger::finish`]); then the run thread
//! joins it.
//!
//! A copy thread walks a report ([`GridMerger::copy`]) unless the run was
//! given a `Prior` for its shard id — the bytes the fleet's last
//! successful run received for the same shard, and that run's copy of
//! them — and the report equals those bytes, byte for byte. Then the
//! cell's copy is the prior one, borrowed from the last run's document,
//! and the cell's report is the prior's shared buffer: the received
//! buffer is freed at once, so the next reply is read into memory just
//! released rather than into fresh pages. `copy` is a pure function of
//! the bytes, so the document is the same either way, and a repeated grid
//! on warm nodes compares its cells instead of walking them. Every byte
//! is compared; nothing is hashed or trusted, so a shard whose cell
//! differs from last time is walked.
//!
//! Every report travels as the `Arc<String>` its HTTP reply was read
//! into, so none is copied on its way from the node to the run. Past its
//! HTTP read, a walked report's bytes are copied twice: the walk that
//! checks them copies them into the cell's slot, and `finish`
//! concatenates the slots into the document; a reused cell is copied only
//! by `finish`. The run keeps each report, as the next run's priors. The
//! finished run is then handed to every caller as one shared
//! `Arc<FleetRun>` (see [`crate::runs::RunHandle::wait`]); only an HTTP
//! reply copies the document, into its body.

use proof_core::{merge_cells, GridMerger, GridSpec, MergedGrid, ProofError};
use std::borrow::Cow;
use std::ops::Deref;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::{Builder, Scope, ScopedJoinHandle};

/// Merge shard results into the combined artifact. Exactly one report per
/// shard id is required; order does not matter (the merge slots
/// canonically), which is what makes the output independent of dispatch
/// interleaving. A report may be any owner of its text: a `String`, or
/// the `Arc<String>` a run keeps in
/// [`DispatchOutcome::results`](crate::DispatchOutcome::results).
pub fn merge_run<B>(spec: &GridSpec, results: &[(usize, B)]) -> Result<String, ProofError>
where
    B: Deref<Target: AsRef<str>>,
{
    merge_cells(spec, results)
}

/// The last successful run's merge of one shard: the report bytes it
/// received, and the compact copy of them its document holds.
#[derive(Debug)]
pub(crate) struct Prior<'p> {
    pub body: &'p Arc<String>,
    pub copy: &'p str,
}

/// What a run's merge thread hands back.
#[derive(Debug)]
pub(crate) struct RunMerge {
    /// The merged document, or the error [`merge_cells`] would give.
    pub merged: Result<MergedGrid, ProofError>,
    /// Every `(shard id, report)` as it was received, sorted by shard id;
    /// a report that matched its prior is the prior's buffer.
    pub bodies: Vec<(usize, Arc<String>)>,
    /// How many reports matched their prior and were not walked.
    pub reused: usize,
}

/// Start a run's merge thread in `scope`, named `merge-<trace>` after the
/// run's trace id. It starts `copiers - 1` helpers, `copy-<trace>-<i>`,
/// and all `copiers` threads copy every `(shard id, report)` that
/// `arrivals` yields: a report equal to `priors[shard]`'s body takes its
/// copy and its buffer, and any other, or one whose shard is past the end
/// of `priors`, is walked. Once every sender is dropped, the merge thread
/// joins the helpers, slots the copies in arrival order — so the first
/// out-of-range or duplicate shard to arrive names the error, as in
/// [`merge_cells`] — and finishes the merge. A panic in any
/// copy thread reaches the merge thread's join.
pub(crate) fn spawn_merge<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    spec: &'env GridSpec,
    priors: &'env [Prior<'env>],
    trace: u64,
    copiers: usize,
    arrivals: Receiver<(usize, Arc<String>)>,
) -> std::io::Result<ScopedJoinHandle<'scope, RunMerge>> {
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
                            .spawn_scoped(helpers, || copy_arrivals(&arrivals, priors))
                            .ok()
                    })
                    .collect();
                let mut copies = copy_arrivals(&arrivals, priors);
                for helper in copying {
                    copies.extend(
                        helper
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    );
                }
                copies
            });
            copies.sort_unstable_by_key(|cell| cell.arrival);
            let reused = copies
                .iter()
                .filter(|cell| matches!(cell.copy, Ok(Cow::Borrowed(_))))
                .count();
            let mut merger = GridMerger::new(spec);
            let mut bodies = Vec::with_capacity(copies.len());
            for cell in copies {
                merger.slot(cell.shard, cell.copy);
                bodies.push((cell.shard, cell.body));
            }
            bodies.sort_by_key(|&(shard, _)| shard);
            RunMerge {
                merged: merger.finish(),
                bodies,
                reused,
            }
        })
}

/// A run's report channel, shared by its copy threads, and how many
/// reports they have taken from it.
struct Arrivals {
    taken: usize,
    arrivals: Receiver<(usize, Arc<String>)>,
}

/// One shard's report as received and its copy, tagged with its arrival
/// number.
struct CellCopy<'p> {
    arrival: usize,
    shard: usize,
    body: Arc<String>,
    copy: Result<Cow<'p, str>, ProofError>,
}

/// Take reports off the channel until it closes, copying each outside the
/// lock, and return the copies this thread made.
fn copy_arrivals<'p>(arrivals: &Mutex<Arrivals>, priors: &[Prior<'p>]) -> Vec<CellCopy<'p>> {
    let mut copies = Vec::new();
    loop {
        let (arrival, (shard, body)) = {
            let mut shared = arrivals.lock().unwrap_or_else(|e| e.into_inner());
            let Ok(next) = shared.arrivals.recv() else {
                return copies;
            };
            shared.taken += 1;
            (shared.taken, next)
        };
        let (body, copy) = match priors.get(shard) {
            Some(prior) if **prior.body == *body => {
                // free the received buffer now, for the next reply to reuse
                drop(body);
                (Arc::clone(prior.body), Ok(Cow::Borrowed(prior.copy)))
            }
            _ => {
                let copy = GridMerger::copy(shard, &body).map(Cow::Owned);
                (body, copy)
            }
        };
        copies.push(CellCopy {
            arrival,
            shard,
            body,
            copy,
        });
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
        priors: &[Prior],
        copiers: usize,
        arrivals: &[(usize, String)],
    ) -> RunMerge {
        std::thread::scope(|scope| {
            let (reports, received) = mpsc::channel();
            let merge = spawn_merge(scope, spec, priors, 0, copiers, received).unwrap();
            for (shard, json) in arrivals {
                reports.send((*shard, Arc::new(json.clone()))).unwrap();
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
                    run_merge(&s, &[], copiers, arrivals).merged,
                    expected,
                    "{case}, {copiers} copy threads"
                );
            }
        }
        // the cases reach every outcome: a document, and each error
        let outcomes: Vec<String> = cases
            .iter()
            .map(|(_, arrivals)| match reference(&s, arrivals) {
                Ok(merged) => format!("ok {}", merged.report_spans.len()),
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
                        run_merge(&s, &[], copiers, &arrivals).merged,
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

    #[test]
    fn a_report_equal_to_its_prior_takes_the_prior_copy() {
        let s = spec();
        // the last run's cells: three pretty reports and one the walk
        // cannot copy, so its copy is the tree fallback's bytes
        let odd = r#"{"b":1,"a":[2.50,1E5]}"#;
        let last: Vec<(usize, String)> = vec![
            (0, report(0)),
            (1, report(1)),
            (2, report(2)),
            (3, odd.to_string()),
        ];
        let last_merged = reference(&s, &last).unwrap();
        let last_bodies: Vec<Arc<String>> = last
            .iter()
            .map(|(_, body)| Arc::new(body.clone()))
            .collect();
        let priors: Vec<Prior> = last_bodies
            .iter()
            .zip(&last_merged.report_spans)
            .map(|(body, span)| Prior {
                body,
                copy: &last_merged.doc[span.clone()],
            })
            .collect();
        let tree_bytes = serde_json::from_str::<serde_json::Value>(odd)
            .unwrap()
            .to_string();
        assert_eq!(priors[3].copy, tree_bytes);

        let again = |shards: &[usize]| -> Vec<(usize, String)> {
            shards.iter().map(|&i| last[i].clone()).collect()
        };
        // `shards` in arrival order, the `at`-th arrival's bytes replaced
        let changed = |shards: &[usize], at: usize, json: String| {
            let mut cells = again(shards);
            cells[at].1 = json;
            cells
        };
        let one_digit = report(1).replacen("\"x\": 1.5", "\"x\": 7.5", 1);
        assert_ne!(one_digit, report(1));
        let compact = GridMerger::copy(2, &report(2)).unwrap();
        let out_of_range = [again(&[0]), vec![(9, report(9))], again(&[1, 2, 3])].concat();
        // (case, arrivals, reports that matched their prior)
        let cases = vec![
            ("identical", again(&[3, 1, 0, 2]), 4),
            ("one digit changed", changed(&[2, 0, 3, 1], 3, one_digit), 3),
            ("compact form", changed(&[0, 2, 1, 3], 1, compact), 3),
            ("duplicate", again(&[0, 1, 1, 2, 3]), 5),
            ("out of range", out_of_range, 4),
            ("missing", again(&[3, 0, 1]), 3),
        ];
        for (case, arrivals, reused) in &cases {
            let expected = reference(&s, arrivals);
            let mut bodies = arrivals.clone();
            bodies.sort_by_key(|&(shard, _)| shard);
            for copiers in 1..=3 {
                let got = run_merge(&s, &priors, copiers, arrivals);
                let at = format!("{case}, {copiers} copy threads");
                assert_eq!(got.merged, expected, "{at}");
                assert_eq!(got.reused, *reused, "{at}");
                let got_bodies: Vec<(usize, String)> = got
                    .bodies
                    .iter()
                    .map(|(shard, body)| (*shard, body.to_string()))
                    .collect();
                assert_eq!(got_bodies, bodies, "{at}");
                // a report that matched its prior is the prior's buffer
                let shared = got
                    .bodies
                    .iter()
                    .filter(|(shard, body)| {
                        priors
                            .get(*shard)
                            .is_some_and(|prior| Arc::ptr_eq(prior.body, body))
                    })
                    .count();
                assert_eq!(shared, *reused, "{at}");
            }
        }
        // a last run with fewer shards: the shards past its end are walked
        let identical = again(&[3, 1, 0, 2]);
        for copiers in 1..=3 {
            let got = run_merge(&s, &priors[..2], copiers, &identical);
            assert_eq!(
                got.merged,
                reference(&s, &identical),
                "{copiers} copy threads"
            );
            assert_eq!(got.reused, 2, "{copiers} copy threads");
        }
        let outcomes: Vec<String> = cases
            .iter()
            .map(|(_, arrivals, _)| match reference(&s, arrivals) {
                Ok(merged) => format!("ok {}", &merged.doc[merged.report_spans[3].clone()]),
                Err(e) => e.to_string(),
            })
            .collect();
        let ok = format!("ok {tree_bytes}");
        assert_eq!(
            outcomes,
            [
                ok.as_str(),
                &ok,
                &ok,
                "invalid spec: shard 1 reported twice",
                "invalid spec: shard 9 out of range for a 4-cell grid",
                "invalid spec: shard 2 missing from the merge",
            ]
        );
    }
}
