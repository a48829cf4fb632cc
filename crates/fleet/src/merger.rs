//! Result merging: shard reports → the one combined artifact.
//!
//! The work (slotting by canonical shard id, duplicate/missing detection,
//! sweep reassembly, sorted-key output) lives in [`proof_core::merge_cells`]
//! so the coordinator and any library user share one implementation. It
//! copies each shard's report bytes in compact form when they are already
//! canonical — every worker report is — and parses and re-prints only a
//! report that is not, so the artifact's bytes never depend on which path
//! a cell took.

use proof_core::{merge_cells, GridSpec, ProofError};

/// Merge shard results into the combined artifact. Exactly one report per
/// shard id is required; order does not matter (the merge slots
/// canonically), which is what makes the output independent of dispatch
/// interleaving.
pub fn merge_run(spec: &GridSpec, results: &[(usize, String)]) -> Result<String, ProofError> {
    merge_cells(spec, results)
}
