//! A run leaves no in-flight residue in the node registry.
//!
//! A run that fails with shards still in flight must not leave them
//! counted against their nodes: that would lower the nodes' weighted score
//! and in-flight cap for every later run. Here one 2-worker daemon
//! stalls every job of seed 7 past the shard timeout, so a 2-cell run of
//! that seed fails on its first timed-out shard while the other is still
//! in flight; a 1-cell run of another seed then succeeds. Between and
//! after the runs, every node must read `in_flight` 0.
//!
//! This file holds only this test: the fault plan is process-global.

use proof_core::GridSpec;
use proof_fleet::{DispatcherConfig, Fleet, FleetConfig, FleetError, WorkerClient};
use proof_obs::fault::{self, FaultPlan};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn spec(batches: &str, seed: u64) -> GridSpec {
    let json = format!(
        r#"{{"model":"mobilenetv2-0.5","platform":"a100","batches":{batches},"seed":{seed}}}"#
    );
    GridSpec::from_value(&serde_json::from_str(&json).unwrap()).unwrap()
}

fn in_flight(fleet: &Fleet) -> Vec<usize> {
    fleet.nodes().iter().map(|n| n.in_flight).collect()
}

#[test]
fn a_failed_run_leaves_no_shard_in_flight() {
    fault::install(FaultPlan::parse("metrics:stall:400@7").unwrap());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let fleet = Fleet::start(FleetConfig {
            local_workers: 2,
            dispatcher: DispatcherConfig {
                max_shard_attempts: 1,
                shard_timeout: Duration::from_millis(100),
                ..DispatcherConfig::default()
            },
            ..FleetConfig::local(1)
        })
        .unwrap();
        let failed = fleet.run_grid(&spec("[1,2]", 7)).map(|_| ());
        let after_failed = in_flight(&fleet);
        // let the stalled jobs finish, so the next run's job does not
        // queue behind them past its own shard timeout
        let node = WorkerClient::new(fleet.node_addrs()[0], Duration::from_secs(2));
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.health().ok().and_then(|h| h.in_flight) != Some(0) {
            assert!(Instant::now() < deadline, "the stalled jobs never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
        let good = fleet
            .run_grid(&spec("[1]", 8))
            .map(|run| run.nodes.iter().map(|n| n.in_flight).collect::<Vec<_>>());
        let after_good = in_flight(&fleet);
        fleet.shutdown();
        let _ = tx.send((failed, after_failed, good, after_good));
    });
    let (failed, after_failed, good, after_good) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the runs never finished");
    fault::clear();

    assert!(
        matches!(failed, Err(FleetError::ShardFailed { attempts: 1, .. })),
        "the stalled run should fail on its first timed-out shard: {failed:?}"
    );
    assert_eq!(after_failed, vec![0], "/nodes after the failed run");
    assert_eq!(
        good.expect("the second run fails"),
        vec![0],
        "the good run's nodes"
    );
    assert_eq!(after_good, vec![0], "/nodes after the good run");
}
