//! Shard planning: grid → independently dispatchable shards, in a
//! seed-deterministic dispatch order.
//!
//! Shard *ids* are the canonical cell indices from
//! [`GridSpec::cells`](proof_core::GridSpec::cells) — the merge slots
//! results by id, so ids must be a function of the spec alone. The
//! *dispatch order* is a separate concern: shuffling it by the grid seed
//! spreads expensive cells (big models, big batches sit adjacent in
//! canonical order) across nodes instead of handing one node a contiguous
//! run of heavy work. The shuffle is a pure function of the seed, so two
//! coordinators given the same spec dispatch in the same order.

use proof_core::{GridCell, GridSpec, ProofError};
use proof_obs::fault::mix64;
use proof_serve::AnalysisJob;

/// One unit of dispatch: a canonical cell index plus its cell.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Canonical index into `spec.cells()` — the merge slot.
    pub id: usize,
    pub cell: GridCell,
}

/// The full dispatch plan for one grid run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shards in dispatch order (seeded shuffle of the canonical order).
    pub shards: Vec<Shard>,
    /// Total cells in the grid (== `shards.len()`).
    pub cells: usize,
}

/// Expand and order the grid. Fails on an invalid spec (empty axes,
/// oversized grid) or on the first cell in canonical order that a worker
/// would refuse ([`AnalysisJob::from_cell`]), so a bad grid is refused
/// before any node is asked.
pub fn plan_shards(spec: &GridSpec) -> Result<ShardPlan, ProofError> {
    spec.validate()?;
    let mut shards: Vec<Shard> = spec
        .cells()
        .into_iter()
        .enumerate()
        .map(|(id, cell)| {
            AnalysisJob::from_cell(&cell).map_err(ProofError::InvalidSpec)?;
            Ok(Shard { id, cell })
        })
        .collect::<Result<_, ProofError>>()?;
    let cells = shards.len();
    // seeded dispatch order: sort by a keyed hash of the shard id; ties
    // (impossible for distinct ids under mix64, but cheap to guard) break
    // by id so the order is total and deterministic
    shards.sort_by_key(|s| (mix64(spec.seed ^ (s.id as u64).wrapping_add(1)), s.id));
    Ok(ShardPlan { shards, cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn spec(json: &str) -> GridSpec {
        let v: Value = serde_json::from_str(json).unwrap();
        GridSpec::from_value(&v).unwrap()
    }

    #[test]
    fn plan_covers_every_cell_exactly_once() {
        let s = spec(
            r#"{"models":["resnet-50","vit-tiny"],"platform":"a100","batches":[1,2,4],"seed":9}"#,
        );
        let plan = plan_shards(&s).unwrap();
        assert_eq!(plan.cells, 6);
        let mut ids: Vec<usize> = plan.shards.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_order_is_a_pure_function_of_the_seed() {
        let s = spec(r#"{"model":"resnet-50","platform":"a100","batches":[1,2,4,8],"seed":5}"#);
        let a: Vec<usize> = plan_shards(&s)
            .unwrap()
            .shards
            .iter()
            .map(|x| x.id)
            .collect();
        let b: Vec<usize> = plan_shards(&s)
            .unwrap()
            .shards
            .iter()
            .map(|x| x.id)
            .collect();
        assert_eq!(a, b, "same seed, same order");
        let mut s2 = s.clone();
        s2.seed = 6;
        let c: Vec<usize> = plan_shards(&s2)
            .unwrap()
            .shards
            .iter()
            .map(|x| x.id)
            .collect();
        assert_ne!(a, c, "different seed shuffles differently");
    }

    #[test]
    fn shard_ids_stay_canonical_under_the_shuffle() {
        let s = spec(r#"{"model":"resnet-50","platform":"a100","batches":[1,2],"seed":3}"#);
        let cells = s.cells();
        for shard in plan_shards(&s).unwrap().shards {
            assert_eq!(shard.cell, cells[shard.id], "id still names its cell");
        }
    }
}
