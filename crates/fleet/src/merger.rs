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
//! A fleet run merges as shards land: `spawn_merge` starts one scoped
//! merge thread per run, the dispatcher moves each resolved report to it
//! over a channel, and the thread copies the report into its cell's slot
//! while the dispatcher waits on node replies. When dispatch ends — done
//! or failed — the channel closes and the thread writes the document
//! ([`GridMerger::finish`]) while the run thread fetches the nodes' span
//! listings; then the run thread joins it.
//!
//! Past its HTTP read, a report's bytes are copied twice: the walk that
//! checks them copies them into the cell's slot, and `finish`
//! concatenates the slots into the document. The finished run is then
//! handed to every caller as one shared `Arc<FleetRun>` (see
//! [`crate::runs::RunHandle::wait`]); only an HTTP reply copies the
//! document, into its body.

use proof_core::{merge_cells, GridMerger, GridSpec, MergedGrid, ProofError};
use std::sync::mpsc::Receiver;
use std::thread::{Builder, Scope, ScopedJoinHandle};

/// Merge shard results into the combined artifact. Exactly one report per
/// shard id is required; order does not matter (the merge slots
/// canonically), which is what makes the output independent of dispatch
/// interleaving.
pub fn merge_run(spec: &GridSpec, results: &[(usize, String)]) -> Result<String, ProofError> {
    merge_cells(spec, results)
}

/// Start a run's merge thread in `scope`, named `merge-<trace>` after the
/// run's trace id. It slots every `(shard id, report)` that `arrivals`
/// yields and, once every sender is dropped, finishes the merge.
pub(crate) fn spawn_merge<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    spec: &'env GridSpec,
    trace: u64,
    arrivals: Receiver<(usize, String)>,
) -> std::io::Result<ScopedJoinHandle<'scope, Result<MergedGrid, ProofError>>> {
    Builder::new()
        .name(format!("merge-{trace}"))
        .spawn_scoped(scope, move || {
            let mut merger = GridMerger::new(spec);
            for (shard, report) in arrivals {
                merger.insert(shard, &report);
            }
            merger.finish()
        })
}
