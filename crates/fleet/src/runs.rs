//! The run ledger and shared fleet view behind streaming grid runs: the
//! run thread dispatches while every HTTP handler reads, without waiting.
//!
//! - [`FleetView`] is the always-readable side — the latest registry
//!   snapshot and the last successful run, published by whoever is
//!   driving a run (the dispatcher refreshes it as nodes probe and shards
//!   resolve) and read lock-briefly by every HTTP handler.
//! - [`RunHandle`] is one grid run's lifecycle: its id, its
//!   [`ProgressSink`] stream, and a condvar-signalled terminal state that
//!   sync callers block on and async callers poll.
//! - [`RunLedger`] owns every handle, hands out run ids, and answers "is
//!   anything running?" for `/healthz`. The runs themselves execute one
//!   at a time on the fleet's run thread (see [`crate::coordinator`]).

use crate::coordinator::{FleetError, FleetRun};
use crate::progress::{ProgressEvent, ProgressSink};
use crate::registry::{NodeSnapshot, NodeState};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The coordinator state that must stay readable while the run thread
/// dispatches: the per-node registry snapshot and the last successful
/// run, whose trace `GET /grid/trace` renders.
#[derive(Default)]
pub struct FleetView {
    nodes: Mutex<Vec<NodeSnapshot>>,
    last_run: Mutex<Option<Arc<FleetRun>>>,
}

impl FleetView {
    pub fn new() -> FleetView {
        FleetView::default()
    }

    /// Publish a fresh registry snapshot (dispatcher: after probes and
    /// resolutions; coordinator: at start and run end).
    pub fn set_nodes(&self, nodes: Vec<NodeSnapshot>) {
        *lock_or_recover(&self.nodes) = nodes;
    }

    /// The most recently published registry snapshot.
    pub fn nodes(&self) -> Vec<NodeSnapshot> {
        lock_or_recover(&self.nodes).clone()
    }

    /// How many nodes are not `Dead` in the latest snapshot.
    pub fn alive(&self) -> usize {
        lock_or_recover(&self.nodes)
            .iter()
            .filter(|n| n.state != NodeState::Dead)
            .count()
    }

    /// Publish a run that finished successfully (the run thread: before
    /// its handle flips to finished).
    pub fn set_last_run(&self, run: Arc<FleetRun>) {
        *lock_or_recover(&self.last_run) = Some(run);
    }

    /// The most recent successful run, shared.
    pub fn last_run(&self) -> Option<Arc<FleetRun>> {
        lock_or_recover(&self.last_run).clone()
    }
}

enum Lifecycle {
    Running,
    Finished(Result<Arc<FleetRun>, FleetError>),
}

/// One grid run: id, live progress stream, and terminal state.
pub struct RunHandle {
    id: u64,
    progress: Arc<ProgressSink>,
    state: Mutex<Lifecycle>,
    done: Condvar,
}

impl RunHandle {
    fn new(id: u64, total_shards: usize) -> RunHandle {
        RunHandle {
            id,
            progress: Arc::new(ProgressSink::new(total_shards)),
            state: Mutex::new(Lifecycle::Running),
            done: Condvar::new(),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The run's seq-numbered progress ledger (shared with the dispatcher).
    pub fn progress(&self) -> &Arc<ProgressSink> {
        &self.progress
    }

    /// Record the terminal state and wake every [`RunHandle::wait`]er.
    /// Called exactly once per run.
    pub fn finish(&self, result: Result<Arc<FleetRun>, FleetError>) {
        let mut state = lock_or_recover(&self.state);
        *state = Lifecycle::Finished(result);
        self.done.notify_all();
    }

    pub fn is_finished(&self) -> bool {
        !matches!(*lock_or_recover(&self.state), Lifecycle::Running)
    }

    /// The terminal result, if the run has finished. A finished run is
    /// shared, not copied: every call hands out the same [`FleetRun`] the
    /// ledger keeps, so late `/grid/<id>/result` reads still answer.
    pub fn result(&self) -> Option<Result<Arc<FleetRun>, FleetError>> {
        match &*lock_or_recover(&self.state) {
            Lifecycle::Running => None,
            Lifecycle::Finished(r) => Some(r.clone()),
        }
    }

    /// Block until the run finishes and return its result, shared as
    /// [`RunHandle::result`] shares it. This is the synchronous
    /// `POST /grid` wrapper: submit + wait.
    pub fn wait(&self) -> Result<Arc<FleetRun>, FleetError> {
        let mut state = lock_or_recover(&self.state);
        loop {
            if let Lifecycle::Finished(r) = &*state {
                return r.clone();
            }
            state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The `GET /grid/<id>/status` document: run state, live counts, and
    /// every progress event past the `since` cursor (all of them for
    /// `since = 0`). Counts and events come from one [`ProgressSink`] read,
    /// so `seq` is the exact cursor for the next poll.
    pub fn status_body(&self, since: u64) -> String {
        let (counts, events) = self.progress.since(since);
        let (state, error) = match &*lock_or_recover(&self.state) {
            Lifecycle::Running => (RunState::Running, None),
            Lifecycle::Finished(Ok(_)) => (RunState::Done, None),
            Lifecycle::Finished(Err(e)) => (RunState::Failed, Some(e.to_string())),
        };
        serde::ser::to_json(
            &RunStatus {
                run_id: self.id,
                state,
                error,
                total: counts.total,
                completed: counts.completed,
                pending: counts.pending,
                in_flight: counts.in_flight,
                dispatched: counts.dispatched,
                rescheduled: counts.rescheduled,
                seq: counts.seq,
                events,
            },
            false,
        )
    }
}

/// Where a run is in its lifecycle, as `GET /grid/<id>/status` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum RunState {
    Running,
    Done,
    Failed,
}

/// The `GET /grid/<id>/status` document: live counts plus the progress
/// events past the poll's cursor; `error` only on a failed run.
#[derive(Debug, Serialize, Deserialize)]
pub struct RunStatus {
    pub run_id: u64,
    pub state: RunState,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    pub total: usize,
    pub completed: usize,
    pub pending: usize,
    pub in_flight: usize,
    pub dispatched: u64,
    pub rescheduled: u64,
    /// The cursor for the next poll.
    pub seq: u64,
    pub events: Vec<ProgressEvent>,
}

/// Every run the coordinator has accepted. Run ids are dense from 1.
#[derive(Default)]
pub struct RunLedger {
    runs: Mutex<Vec<Arc<RunHandle>>>,
    next_id: AtomicU64,
}

impl RunLedger {
    pub fn new() -> RunLedger {
        RunLedger {
            runs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Mint a handle for a newly accepted run.
    pub fn create(&self, total_shards: usize) -> Arc<RunHandle> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let handle = Arc::new(RunHandle::new(id, total_shards));
        lock_or_recover(&self.runs).push(Arc::clone(&handle));
        handle
    }

    pub fn get(&self, id: u64) -> Option<Arc<RunHandle>> {
        lock_or_recover(&self.runs)
            .iter()
            .find(|h| h.id == id)
            .cloned()
    }

    /// Runs not yet finished, queued ones included — the `running` signal
    /// in `/healthz` and the `fleet_runs_active` gauge.
    pub fn active(&self) -> usize {
        lock_or_recover(&self.runs)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Lifetime accepted-run count.
    pub fn total(&self) -> u64 {
        self.next_id.load(Ordering::SeqCst).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn snapshot(state: NodeState) -> NodeSnapshot {
        NodeSnapshot {
            addr: "127.0.0.1:1".to_string(),
            state,
            in_flight: 0,
            workers: 1,
            ewma_us: None,
            dispatched: 0,
            completed: 0,
            failures: 0,
        }
    }

    /// A finished run over no nodes.
    fn run() -> FleetRun {
        FleetRun {
            trace: 1,
            merged: "{}".to_string(),
            report_spans: Vec::new(),
            reused: 0,
            outcome: Default::default(),
            nodes: vec![snapshot(NodeState::Healthy)],
            scrapers: Vec::new().into(),
            trace_doc: Default::default(),
        }
    }

    #[test]
    fn view_tracks_alive_and_trace() {
        let view = FleetView::new();
        assert_eq!(view.alive(), 0);
        assert!(view.last_run().is_none());
        view.set_nodes(vec![
            snapshot(NodeState::Healthy),
            snapshot(NodeState::Dead),
        ]);
        assert_eq!(view.alive(), 1);
        assert_eq!(view.nodes().len(), 2);
        let last = Arc::new(run());
        view.set_last_run(Arc::clone(&last));
        assert!(Arc::ptr_eq(&view.last_run().unwrap(), &last));
    }

    #[test]
    fn ledger_ids_are_dense_and_lookup_works() {
        let ledger = RunLedger::new();
        let a = ledger.create(4);
        let b = ledger.create(2);
        assert_eq!(a.id(), 1);
        assert_eq!(b.id(), 2);
        assert_eq!(ledger.total(), 2);
        assert_eq!(ledger.active(), 2);
        assert!(ledger.get(1).is_some());
        assert!(ledger.get(99).is_none());
        a.finish(Err(FleetError::NoNodes));
        assert_eq!(ledger.active(), 1);
        assert!(a.is_finished());
        assert!(matches!(a.result(), Some(Err(FleetError::NoNodes))));
    }

    #[test]
    fn a_finished_run_is_handed_out_shared_not_copied() {
        let ledger = RunLedger::new();
        let h = ledger.create(1);
        assert!(h.result().is_none());
        h.finish(Ok(Arc::new(run())));
        let first = h.result().unwrap().unwrap();
        let second = h.result().unwrap().unwrap();
        let waited = h.wait().unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &waited));
    }

    #[test]
    fn wait_unblocks_on_finish_from_another_thread() {
        let ledger = RunLedger::new();
        let h = ledger.create(1);
        let waiter = Arc::clone(&h);
        let t = std::thread::spawn(move || waiter.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        h.finish(Err(FleetError::NoNodes));
        let result = t.join().unwrap();
        assert!(matches!(result, Err(FleetError::NoNodes)));
    }

    #[test]
    fn status_body_bytes_are_pinned() {
        let ledger = RunLedger::new();
        let h = ledger.create(2);
        h.progress().note_dispatched(1, 0, 5, 1);
        assert_eq!(
            h.status_body(0),
            r#"{"completed":0,"dispatched":1,"events":[{"attempts":1,"job_id":5,"kind":"dispatched","node":0,"seq":1,"shard":1}],"in_flight":1,"pending":1,"rescheduled":0,"run_id":1,"seq":1,"state":"running","total":2}"#
        );
        h.finish(Err(FleetError::ShardFailed {
            shard: 1,
            attempts: 3,
            last_error: "node said \"no\"".to_string(),
        }));
        assert_eq!(
            h.status_body(1),
            r#"{"completed":0,"dispatched":1,"error":"shard 1 failed after 3 attempts: node said \"no\"","events":[],"in_flight":1,"pending":1,"rescheduled":0,"run_id":1,"seq":1,"state":"failed","total":2}"#
        );
    }

    #[test]
    fn status_value_carries_state_counts_and_events() {
        let ledger = RunLedger::new();
        let h = ledger.create(2);
        h.progress().note_dispatched(0, 0, 1, 1);
        let v: Value = serde_json::from_str(&h.status_body(0)).unwrap();
        assert_eq!(v["state"], "running");
        assert_eq!(v["total"].as_u64(), Some(2));
        assert_eq!(v["in_flight"].as_u64(), Some(1));
        assert_eq!(v["pending"].as_u64(), Some(1));
        assert_eq!(v["events"].as_array().unwrap().len(), 1);
        assert!(v.get("error").is_none());

        h.finish(Err(FleetError::NoNodes));
        let v: Value = serde_json::from_str(&h.status_body(1)).unwrap();
        assert_eq!(v["state"], "failed");
        assert_eq!(v["error"], "no worker nodes configured");
        assert!(v["events"].as_array().unwrap().is_empty());
    }
}
