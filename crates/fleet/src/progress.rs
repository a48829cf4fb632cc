//! The per-run progress ledger: a seq-numbered stream of shard lifecycle
//! events the dispatcher publishes as each shard resolves.
//!
//! A [`ProgressSink`] is shared (`Arc`) between the run thread executing
//! [`crate::dispatcher::Dispatcher::run`] and every reader of the run —
//! the coordinator's `GET /grid/<id>/status` endpoint and `proof fleet
//! sweep --watch`. Each published event gets the next sequence number
//! (starting at 1, never reused, never regressing), so a client holding a
//! `since` cursor reads the stream monotonically: every poll returns only
//! events with `seq > since`, and replaying the events in seq order
//! reconstructs the run exactly — including shards that bounced between
//! nodes, because a reschedule is its own event rather than a mutation of
//! the dispatch that preceded it.

use crate::dispatcher::ShardReport;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// What happened to one shard at one point in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum ProgressKind {
    /// Submitted to a node; the shard is now in flight there.
    Dispatched,
    /// The node returned the shard's report; terminal for the shard.
    Completed,
    /// The shard left its node unresolved (failure, timeout, or a failed
    /// submission) and went back to the pending queue.
    Rescheduled,
}

/// One seq-numbered entry in the run's progress stream. `Completed`
/// events carry the full [`ShardReport`] fields, so a client that only
/// reads the stream still ends up with every completion record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// Position in the run's stream: 1-based, strictly increasing.
    pub seq: u64,
    pub kind: ProgressKind,
    /// Canonical shard (cell) index.
    pub shard: usize,
    /// Registry index of the node involved.
    pub node: usize,
    /// The node's job id (0 when the submission itself failed, so no job
    /// was ever created).
    pub job_id: u64,
    /// Dispatch attempts the shard had consumed when the event fired.
    pub attempts: u32,
}

/// Point-in-time totals derived from the stream. `pending + in_flight +
/// completed == total` at every observable instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressCounts {
    /// Shards in the plan.
    pub total: usize,
    /// Shards resolved with a report.
    pub completed: usize,
    /// Shards currently submitted to a node.
    pub in_flight: usize,
    /// Shards waiting for a node (never dispatched, or bounced back).
    pub pending: usize,
    /// Lifetime dispatch count (rescheduled shards dispatch again).
    pub dispatched: u64,
    /// How many times a shard bounced back to the queue.
    pub rescheduled: u64,
    /// Highest sequence number published so far (0 before any event).
    pub seq: u64,
}

struct SinkState {
    completed: usize,
    in_flight: usize,
    dispatched: u64,
    rescheduled: u64,
    /// The full stream; `events[i].seq == i as u64 + 1`, which makes the
    /// `since` cursor a plain slice index.
    events: Vec<ProgressEvent>,
}

impl SinkState {
    /// Append an event under the next sequence number.
    fn push(&mut self, kind: ProgressKind, shard: usize, node: usize, job_id: u64, attempts: u32) {
        let seq = self.events.len() as u64 + 1;
        self.events.push(ProgressEvent {
            seq,
            kind,
            shard,
            node,
            job_id,
            attempts,
        });
    }
}

/// Seq-numbered, `Arc`-shared progress ledger for one grid run.
pub struct ProgressSink {
    total: usize,
    state: Mutex<SinkState>,
}

impl ProgressSink {
    pub fn new(total: usize) -> ProgressSink {
        ProgressSink {
            total,
            state: Mutex::new(SinkState {
                completed: 0,
                in_flight: 0,
                dispatched: 0,
                rescheduled: 0,
                events: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A shard was submitted to `node` as `job_id`.
    pub fn note_dispatched(&self, shard: usize, node: usize, job_id: u64, attempts: u32) {
        let mut s = self.lock();
        s.dispatched += 1;
        s.in_flight += 1;
        s.push(ProgressKind::Dispatched, shard, node, job_id, attempts);
    }

    /// A shard resolved with a report.
    pub fn note_completed(&self, report: &ShardReport) {
        let mut s = self.lock();
        s.completed += 1;
        s.in_flight = s.in_flight.saturating_sub(1);
        s.push(
            ProgressKind::Completed,
            report.shard,
            report.node,
            report.job_id,
            report.attempts,
        );
    }

    /// A shard went back to the pending queue. `from_flight` says whether
    /// it had actually been in flight (poll-side failure or timeout) or the
    /// submission itself failed before any job existed.
    pub fn note_rescheduled(
        &self,
        shard: usize,
        node: usize,
        job_id: u64,
        attempts: u32,
        from_flight: bool,
    ) {
        let mut s = self.lock();
        s.rescheduled += 1;
        if from_flight {
            s.in_flight = s.in_flight.saturating_sub(1);
        }
        s.push(ProgressKind::Rescheduled, shard, node, job_id, attempts);
    }

    /// Current totals.
    pub fn counts(&self) -> ProgressCounts {
        let s = self.lock();
        self.counts_locked(&s)
    }

    fn counts_locked(&self, s: &SinkState) -> ProgressCounts {
        ProgressCounts {
            total: self.total,
            completed: s.completed,
            in_flight: s.in_flight,
            pending: self.total.saturating_sub(s.completed + s.in_flight),
            dispatched: s.dispatched,
            rescheduled: s.rescheduled,
            seq: s.events.len() as u64,
        }
    }

    /// Totals plus every event with `seq > since`, in seq order. The two
    /// are read under one lock, so `counts.seq` is exactly the seq of the
    /// last returned event (or `since` if nothing new) — a client can feed
    /// it straight back as the next cursor without ever missing or
    /// re-reading an event.
    pub fn since(&self, since: u64) -> (ProgressCounts, Vec<ProgressEvent>) {
        let s = self.lock();
        let counts = self.counts_locked(&s);
        let start = (since as usize).min(s.events.len());
        (counts, s.events[start..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(shard: usize, node: usize, job_id: u64, attempts: u32) -> ShardReport {
        ShardReport {
            shard,
            node,
            job_id,
            attempts,
        }
    }

    /// The satellite regression: sequence numbers never regress (or
    /// repeat) when a shard bounces between nodes — every reschedule and
    /// re-dispatch extends the stream instead of rewriting it.
    #[test]
    fn sequence_numbers_never_regress_under_rescheduling() {
        let sink = ProgressSink::new(2);
        sink.note_dispatched(0, 0, 1, 1);
        sink.note_dispatched(1, 1, 2, 1);
        // shard 0 times out on node 0 and bounces to node 1, twice
        sink.note_rescheduled(0, 0, 1, 1, true);
        sink.note_dispatched(0, 1, 3, 2);
        sink.note_rescheduled(0, 1, 3, 2, true);
        sink.note_dispatched(0, 1, 4, 3);
        sink.note_completed(&report(1, 1, 2, 1));
        sink.note_completed(&report(0, 1, 4, 3));

        let (counts, events) = sink.since(0);
        assert_eq!(events.len(), 8);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1, "seq must be dense and increasing");
        }
        assert_eq!(counts.seq, 8);
        assert_eq!(counts.completed, 2);
        assert_eq!(counts.in_flight, 0);
        assert_eq!(counts.pending, 0);
        assert_eq!(counts.rescheduled, 2);
        assert_eq!(counts.dispatched, 4);
    }

    #[test]
    fn since_cursor_reads_are_monotone_and_exact() {
        let sink = ProgressSink::new(3);
        sink.note_dispatched(0, 0, 1, 1);
        sink.note_dispatched(1, 0, 2, 1);

        let (counts, first) = sink.since(0);
        assert_eq!(first.len(), 2);
        assert_eq!(counts.seq, 2);

        // nothing new: the same cursor returns no events and the same seq
        let (counts, none) = sink.since(counts.seq);
        assert!(none.is_empty());
        assert_eq!(counts.seq, 2);

        sink.note_completed(&report(0, 0, 1, 1));
        let (counts, next) = sink.since(2);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].seq, 3);
        assert_eq!(next[0].kind, ProgressKind::Completed);
        assert_eq!(counts.completed, 1);
        assert_eq!(counts.in_flight, 1);
        assert_eq!(counts.pending, 1);

        // a cursor past the end is tolerated (a stale client cannot panic
        // the coordinator)
        let (_, empty) = sink.since(999);
        assert!(empty.is_empty());
    }

    #[test]
    fn submit_failure_reschedule_does_not_corrupt_in_flight() {
        let sink = ProgressSink::new(1);
        // the submission itself failed: nothing was ever in flight
        sink.note_rescheduled(0, 0, 0, 0, false);
        let c = sink.counts();
        assert_eq!(c.in_flight, 0);
        assert_eq!(c.pending, 1);
        assert_eq!(c.rescheduled, 1);

        sink.note_dispatched(0, 1, 7, 1);
        sink.note_completed(&report(0, 1, 7, 1));
        let c = sink.counts();
        assert_eq!((c.completed, c.in_flight, c.pending), (1, 0, 0));
    }

    #[test]
    fn events_render_their_shard_report_fields() {
        let sink = ProgressSink::new(1);
        sink.note_dispatched(0, 2, 9, 1);
        sink.note_completed(&report(0, 2, 9, 1));
        let (_, events) = sink.since(1);
        let v = serde_json::to_value(&events[0]);
        assert_eq!(v["kind"], "completed");
        assert_eq!(v["shard"].as_u64(), Some(0));
        assert_eq!(v["node"].as_u64(), Some(2));
        assert_eq!(v["job_id"].as_u64(), Some(9));
        assert_eq!(v["attempts"].as_u64(), Some(1));
        assert_eq!(v["seq"].as_u64(), Some(2));
    }
}
