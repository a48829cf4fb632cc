//! A backlog of accepted grid runs costs no threads, and the runs start in
//! submission order.
//!
//! The fleet runs accepted grids one at a time on its one run thread, so
//! queueing more runs behind a stalled one must not add threads. Every
//! shard stalls at the metrics stage (fault injection), which keeps run 1
//! in flight while five more runs queue behind it.
//!
//! This file holds only this test: `/proc/self/task` then counts no
//! sibling test's threads, and the process-global fault plan reaches no
//! other test.

use proof_core::GridSpec;
use proof_fleet::{Fleet, FleetConfig};
use proof_obs::fault::{self, FaultPlan};
use proof_obs::FieldValue;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn spec(seed: u64) -> GridSpec {
    let json =
        format!(r#"{{"model":"mobilenetv2-0.5","platform":"a100","batches":[1],"seed":{seed}}}"#);
    GridSpec::from_value(&serde_json::from_str(&json).unwrap()).unwrap()
}

/// This process's live thread count, or `None` where there is no procfs.
fn task_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn queued_runs_cost_no_threads_and_start_in_submission_order() {
    if task_count().is_none() {
        eprintln!("skipping: no /proc/self/task to count threads in");
        return;
    }
    fault::install(FaultPlan::parse("metrics:stall:400").unwrap());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let fleet = Fleet::start(FleetConfig {
            local_workers: 1,
            ..FleetConfig::local(1)
        })
        .unwrap();
        let first = fleet.submit_grid(&spec(100)).unwrap();
        // count once run 1 has reached its node, so the threads its start
        // brings (the merge thread, node connections) are already counted
        let deadline = Instant::now() + Duration::from_secs(10);
        while first.progress().counts().dispatched == 0 {
            assert!(Instant::now() < deadline, "run 1 never dispatched");
            std::thread::sleep(Duration::from_millis(5));
        }
        let after_first = task_count().unwrap();
        let mut handles = vec![first];
        for seed in 101..106 {
            handles.push(fleet.submit_grid(&spec(seed)).unwrap());
        }
        let after_sixth = task_count().unwrap();
        let stalled = !handles[0].is_finished();
        let flight = fleet.flight().clone();
        fleet.shutdown();
        let results: Vec<_> = handles.iter().map(|h| h.result()).collect();
        let _ = tx.send((
            after_first,
            after_sixth,
            stalled,
            results,
            flight.snapshot(),
        ));
    });
    let (after_first, after_sixth, stalled, results, events) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the queued runs never drained");

    assert!(stalled, "run 1 finished before the backlog was counted");
    assert!(
        after_sixth <= after_first + 1,
        "five queued runs took threads: {after_first} after the first submit, \
         {after_sixth} after the sixth"
    );
    for (i, result) in results.iter().enumerate() {
        match result {
            Some(Ok(_)) => {}
            other => panic!("run {} did not end Ok: {other:?}", i + 1),
        }
    }
    let started: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "run" && e.message.contains(" started"))
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k, v) {
                (&"run", FieldValue::U64(id)) => Some(*id),
                _ => None,
            })
        })
        .collect();
    assert_eq!(started, vec![1, 2, 3, 4, 5, 6], "runs started out of order");
}
