//! The node registry: per-worker state the dispatcher schedules against.
//!
//! Nodes move `Healthy → Suspect → Dead` as failures accumulate and back to
//! `Healthy` on a successful probe or request — death is never final, a
//! restarted daemon rejoins the fleet at the next probe. Backpressure is
//! tracked separately from failure: a 429 with `Retry-After` sets a
//! backoff deadline that temporarily removes the node from dispatch
//! without counting against its health.
//!
//! Beyond health, every node carries a load picture for the weighted
//! scheduler: the worker/queue capacities its `/healthz` advertises
//! (refreshed on the probe cadence) and an EWMA of the shard latency
//! observed in the current run (each run starts without one).
//! [`NodeRegistry::pick_weighted`] scores candidates by estimated completion
//! time — `(in_flight + 1) × ewma_us ÷ workers` — so a heterogeneous fleet
//! keeps its fast nodes fed instead of tail-waiting on the slowest one.

use crate::client::{WorkerClient, WorkerError, WorkerHealth};
use proof_serve::PeersAdded;
use serde::Serialize;
use std::net::SocketAddr;
use std::time::Instant;

/// EWMA smoothing factor for observed shard latency: recent shards count
/// for ~30%, so a node that slows down mid-run is re-weighted within a few
/// completions without one outlier dominating.
const EWMA_ALPHA: f64 = 0.3;

/// Scheduling health of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "lowercase")]
pub enum NodeState {
    Healthy,
    /// At least one recent failure; still dispatchable, next probe decides.
    Suspect,
    /// Past the consecutive-failure threshold; skipped by dispatch until a
    /// probe succeeds.
    Dead,
}

impl NodeState {
    pub fn as_str(self) -> &'static str {
        match self {
            NodeState::Healthy => "healthy",
            NodeState::Suspect => "suspect",
            NodeState::Dead => "dead",
        }
    }
}

/// One registered worker and its scheduling state.
pub struct Node {
    pub client: WorkerClient,
    pub state: NodeState,
    /// Shards currently submitted to this node and not yet resolved.
    pub in_flight: usize,
    /// Failures since the last success (any kind the dispatcher charges
    /// to the node).
    pub consecutive_failures: u32,
    /// Dispatch holdoff from backpressure (429 `Retry-After`).
    pub backoff_until: Option<Instant>,
    /// Worker threads the node's `/healthz` advertises (floored at 1 by
    /// the client); scales both the weighted score and the in-flight cap.
    pub workers: u64,
    /// Advertised admission-queue capacity, kept for the load picture.
    pub queue_capacity: u64,
    /// Advertised queue depth at the last probe.
    pub queue_depth: u64,
    /// EWMA of observed shard latency in µs; `None` until the node has
    /// completed (or timed out) a shard this run.
    pub ewma_us: Option<f64>,
    // lifetime counters, surfaced via /metrics and the run summary
    pub dispatched: u64,
    pub completed: u64,
    pub failures: u64,
}

/// Point-in-time, JSON-ready view of one node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NodeSnapshot {
    pub addr: String,
    pub state: NodeState,
    pub in_flight: usize,
    /// Advertised worker count at the last probe.
    pub workers: u64,
    /// Shard-latency EWMA rounded to whole µs, when observed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ewma_us: Option<u64>,
    pub dispatched: u64,
    pub completed: u64,
    pub failures: u64,
}

/// The fleet's worker set. Indexes are stable for the registry's lifetime;
/// the dispatcher addresses nodes by index.
pub struct NodeRegistry {
    nodes: Vec<Node>,
    /// Consecutive failures that turn a node `Dead`.
    fail_threshold: u32,
}

impl NodeRegistry {
    pub fn new(clients: Vec<WorkerClient>, fail_threshold: u32) -> NodeRegistry {
        NodeRegistry {
            nodes: clients
                .into_iter()
                .map(|client| Node {
                    client,
                    state: NodeState::Healthy,
                    in_flight: 0,
                    consecutive_failures: 0,
                    backoff_until: None,
                    workers: 1,
                    queue_capacity: 1,
                    queue_depth: 0,
                    ewma_us: None,
                    dispatched: 0,
                    completed: 0,
                    failures: 0,
                })
                .collect(),
            fail_threshold: fail_threshold.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    pub fn client(&self, i: usize) -> &WorkerClient {
        &self.nodes[i].client
    }

    /// Point node `i`'s remote cache tier at every other node.
    pub fn advertise_peers(&self, i: usize) -> Result<PeersAdded, WorkerError> {
        let others = self.nodes.iter().enumerate().filter(|&(j, _)| j != i);
        let peers: Vec<SocketAddr> = others.map(|(_, n)| n.client.addr).collect();
        self.client(i).advertise_peers(&peers)
    }

    /// Nodes not currently `Dead`.
    pub fn alive(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state != NodeState::Dead)
            .count()
    }

    /// Estimated-completion-time pick: every eligible (non-dead,
    /// non-backing-off) node is scored `(in_flight + 1) × est_us ÷
    /// workers`, lowest score wins, ties break by index. Nodes without an
    /// observed EWMA use the mean of the fleet's known EWMAs (or a
    /// constant when nothing is known yet, which degrades the score to
    /// capacity-aware least-loaded).
    ///
    /// Crucially, at-cap nodes still *compete*: when the best estimated
    /// finisher is already at its capacity-scaled cap the pick is
    /// withheld (`None`) rather than falling through to a worse node —
    /// queueing behind the fast node beats feeding the slow one. Liveness
    /// holds because in-flight shards free slots on completion and the
    /// shard deadline bounds a wedged winner.
    ///
    /// `base_cap` is the configured `max_in_flight_per_node`, which each
    /// node's cap scales by its advertised worker count.
    pub fn pick_weighted(&self, base_cap: usize, now: Instant) -> Option<usize> {
        let fallback = self.fallback_est();
        let mut best: Option<(f64, usize)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.state == NodeState::Dead || n.backoff_until.is_some_and(|t| t > now) {
                continue;
            }
            let est = n.ewma_us.unwrap_or(fallback);
            let score = (n.in_flight as f64 + 1.0) * est / n.workers.max(1) as f64;
            if best.is_none_or(|(b, _)| score.total_cmp(&b).is_lt()) {
                best = Some((score, i));
            }
        }
        let (_, i) = best?;
        (self.nodes[i].in_flight < self.effective_cap(i, base_cap)).then_some(i)
    }

    /// The weighted policy's in-flight cap for node `i`: the configured
    /// base cap scaled by the node's advertised worker count.
    pub fn effective_cap(&self, i: usize, base_cap: usize) -> usize {
        base_cap.saturating_mul(self.nodes[i].workers.max(1) as usize)
    }

    /// Mean observed EWMA across non-dead nodes, used to score nodes that
    /// have not completed a shard yet; 1.0 when nothing is known (the
    /// constant cancels out of the score comparison).
    fn fallback_est(&self) -> f64 {
        let known: Vec<f64> = self
            .nodes
            .iter()
            .filter(|n| n.state != NodeState::Dead)
            .filter_map(|n| n.ewma_us)
            .collect();
        if known.is_empty() {
            1.0
        } else {
            known.iter().sum::<f64>() / known.len() as f64
        }
    }

    /// Node `i`'s current latency estimate in whole µs, as the scheduler
    /// would score it — for flight-recorder decision events.
    pub fn est_shard_us(&self, i: usize) -> u64 {
        self.nodes[i]
            .ewma_us
            .unwrap_or_else(|| self.fallback_est())
            .round() as u64
    }

    /// Fold an observed shard latency (completion, or elapsed time at a
    /// shard timeout — timeouts must poison the estimate or a wedged node
    /// keeps winning picks) into node `i`'s EWMA; returns the new value.
    pub fn note_latency(&mut self, i: usize, shard_us: u64) -> f64 {
        let n = &mut self.nodes[i];
        let x = shard_us as f64;
        let next = match n.ewma_us {
            Some(prev) => prev + EWMA_ALPHA * (x - prev),
            None => x,
        };
        n.ewma_us = Some(next);
        next
    }

    /// Refresh node `i`'s advertised load signals from a `/healthz` body.
    pub fn note_health(&mut self, i: usize, health: &WorkerHealth) {
        let n = &mut self.nodes[i];
        n.workers = health.workers.max(1);
        n.queue_capacity = health.queue_capacity.max(1);
        n.queue_depth = health.queue_depth;
    }

    /// A shard's submission to node `i` is on the wire: it counts against
    /// the node's in-flight cap until it resolves.
    pub fn note_dispatch(&mut self, i: usize) {
        self.nodes[i].in_flight += 1;
    }

    /// Node `i` accepted a submission noted with
    /// [`note_dispatch`](Self::note_dispatch).
    pub fn note_accepted(&mut self, i: usize) {
        self.nodes[i].dispatched += 1;
    }

    /// A shard on node `i` resolved successfully.
    pub fn note_success(&mut self, i: usize) {
        let n = &mut self.nodes[i];
        n.in_flight = n.in_flight.saturating_sub(1);
        n.completed += 1;
        n.consecutive_failures = 0;
        n.backoff_until = None;
        n.state = NodeState::Healthy;
    }

    /// A shard on node `i` failed in a way charged to the node (transport
    /// error, worker-reported failure, shard timeout). Crossing the
    /// threshold kills the node.
    pub fn note_failure(&mut self, i: usize, shard_was_in_flight: bool) {
        let threshold = self.fail_threshold;
        let n = &mut self.nodes[i];
        if shard_was_in_flight {
            n.in_flight = n.in_flight.saturating_sub(1);
        }
        n.failures += 1;
        n.consecutive_failures += 1;
        n.state = if n.consecutive_failures >= threshold {
            NodeState::Dead
        } else {
            NodeState::Suspect
        };
    }

    /// Backpressure from node `i`: hold dispatch until `until`, without
    /// charging the node's health.
    pub fn note_backoff(&mut self, i: usize, until: Instant, shard_was_in_flight: bool) {
        let n = &mut self.nodes[i];
        if shard_was_in_flight {
            n.in_flight = n.in_flight.saturating_sub(1);
        }
        n.backoff_until = Some(until);
    }

    /// A run starts: every node's latency estimate is forgotten. An
    /// estimate moves only when its node resolves a shard, so one carried
    /// over from the last run would let a node that turned fast (a warm
    /// cache) hold every shard while an idle node's stale estimate never
    /// fell. Each run measures its nodes afresh.
    pub fn forget_latencies(&mut self) {
        for n in &mut self.nodes {
            n.ewma_us = None;
        }
    }

    /// A run ended: none of its shards counts against a node any more.
    /// Runs do not overlap, so a shard a failed or panicked run left in
    /// flight is no later run's load; its job still finishes on its node.
    pub fn settle_in_flight(&mut self) {
        for n in &mut self.nodes {
            n.in_flight = 0;
        }
    }

    /// A health probe of node `i` came back: success revives the node,
    /// failure is charged like any other.
    pub fn note_probe(&mut self, i: usize, healthy: bool) {
        if healthy {
            let n = &mut self.nodes[i];
            if n.state == NodeState::Dead {
                // a dead→healthy transition is a (re)started daemon: any
                // pre-death Retry-After holdoff belonged to the old
                // process and must not keep the revived node
                // undispatchable. A live node's holdoff stays — probes
                // run on a cadence and would otherwise erase every 429
                // hint within one interval.
                n.backoff_until = None;
            }
            n.consecutive_failures = 0;
            n.state = NodeState::Healthy;
        } else {
            self.note_failure(i, false);
        }
    }

    pub fn snapshot(&self) -> Vec<NodeSnapshot> {
        self.nodes
            .iter()
            .map(|n| NodeSnapshot {
                addr: n.client.addr.to_string(),
                state: n.state,
                in_flight: n.in_flight,
                workers: n.workers,
                ewma_us: n.ewma_us.map(|e| e.round() as u64),
                dispatched: n.dispatched,
                completed: n.completed,
                failures: n.failures,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn registry(n: usize) -> NodeRegistry {
        let clients = (0..n)
            .map(|i| {
                WorkerClient::new(
                    format!("127.0.0.1:{}", 40_000 + i).parse().unwrap(),
                    Duration::from_secs(1),
                )
            })
            .collect();
        NodeRegistry::new(clients, 2)
    }

    #[test]
    fn cold_weighted_pick_prefers_idle_nodes_and_respects_the_cap() {
        // with no latency observed and one worker each, the score is
        // in-flight + 1: the least-loaded node wins, ties by index
        let mut r = registry(3);
        let now = Instant::now();
        assert_eq!(r.pick_weighted(2, now), Some(0), "ties break by index");
        r.note_dispatch(0);
        assert_eq!(r.pick_weighted(2, now), Some(1));
        r.note_dispatch(1);
        r.note_dispatch(2);
        assert_eq!(r.pick_weighted(2, now), Some(0));
        r.note_dispatch(0);
        // node 0 is at the cap now
        assert_eq!(r.pick_weighted(2, now), Some(1));
        assert_eq!(r.pick_weighted(1, now), None, "all at cap 1");
    }

    #[test]
    fn failures_kill_a_node_and_a_probe_revives_it() {
        let mut r = registry(2);
        let now = Instant::now();
        r.note_failure(0, false);
        assert_eq!(r.node(0).state, NodeState::Suspect);
        r.note_failure(0, false);
        assert_eq!(r.node(0).state, NodeState::Dead);
        assert_eq!(r.alive(), 1);
        assert_eq!(r.pick_weighted(2, now), Some(1), "dead node skipped");
        r.note_probe(0, true);
        assert_eq!(r.node(0).state, NodeState::Healthy);
        assert_eq!(r.alive(), 2);
    }

    #[test]
    fn backoff_holds_dispatch_without_hurting_health() {
        let mut r = registry(1);
        let now = Instant::now();
        r.note_backoff(0, now + Duration::from_secs(60), false);
        assert_eq!(r.pick_weighted(2, now), None, "backing off");
        assert_eq!(r.node(0).state, NodeState::Healthy, "health untouched");
        assert_eq!(
            r.pick_weighted(2, now + Duration::from_secs(61)),
            Some(0),
            "deadline passed"
        );
    }

    fn health(workers: u64, queue_capacity: u64) -> WorkerHealth {
        WorkerHealth {
            queue_depth: 0,
            queue_capacity,
            workers,
            in_flight: 0,
        }
    }

    #[test]
    fn healthy_probe_on_a_dead_node_clears_the_stale_backoff() {
        // regression: a daemon 429s with a long Retry-After, dies, and is
        // probe-revived — the pre-death holdoff belonged to the old
        // process and must not keep the revived node undispatchable
        let mut r = registry(1);
        let now = Instant::now();
        r.note_backoff(0, now + Duration::from_secs(60), false);
        r.note_failure(0, false);
        r.note_failure(0, false);
        assert_eq!(r.node(0).state, NodeState::Dead);
        r.note_probe(0, true);
        assert_eq!(r.node(0).state, NodeState::Healthy);
        assert_eq!(
            r.pick_weighted(2, now),
            Some(0),
            "revived node dispatches immediately, stale 60s backoff cleared"
        );
    }

    #[test]
    fn healthy_probe_on_a_live_node_keeps_the_backpressure_holdoff() {
        // probes run on a cadence for every node; they must not erase a
        // live node's Retry-After hint within one probe interval
        let mut r = registry(1);
        let now = Instant::now();
        r.note_backoff(0, now + Duration::from_secs(60), false);
        r.note_probe(0, true);
        assert_eq!(
            r.pick_weighted(2, now),
            None,
            "live node's holdoff survives a healthy probe"
        );
    }

    #[test]
    fn weighted_pick_prefers_advertised_capacity_and_scales_the_cap() {
        let mut r = registry(2);
        let now = Instant::now();
        r.note_health(1, &health(2, 8));
        // cold start, equal estimates: the two-worker node scores half
        assert_eq!(r.pick_weighted(2, now), Some(1));
        r.note_dispatch(1);
        r.note_dispatch(1);
        // node 1 at 2 in flight scores (3)/2 = 1.5 vs idle node 0 at 1.0
        assert_eq!(r.pick_weighted(2, now), Some(0));
        assert_eq!(r.effective_cap(1, 2), 4, "cap scales with workers");
        assert_eq!(r.effective_cap(0, 2), 2);
    }

    #[test]
    fn weighted_pick_scores_by_observed_latency_and_withholds_at_cap() {
        let mut r = registry(2);
        let now = Instant::now();
        r.note_latency(0, 100_000);
        r.note_latency(1, 1_000_000);
        assert_eq!(r.pick_weighted(1, now), Some(0), "10x-faster node wins");
        r.note_dispatch(0);
        // fast node at cap still scores best (2 × 100ms = 200ms vs 1s on
        // the slow node): the pick is withheld — queueing behind the fast
        // node beats feeding the slow one
        assert_eq!(r.pick_weighted(1, now), None);
        // once the slow node would genuinely finish sooner, it gets work
        r.note_latency(0, 10_000_000);
        assert_eq!(r.pick_weighted(1, now), Some(1));
    }

    #[test]
    fn weighted_ties_break_by_index_and_ewma_updates_smoothly() {
        let mut r = registry(3);
        let now = Instant::now();
        assert_eq!(
            r.pick_weighted(2, now),
            Some(0),
            "cold start is deterministic: lowest index wins the tie"
        );
        let first = r.note_latency(0, 100_000);
        assert_eq!(first, 100_000.0, "first observation seeds the EWMA");
        let second = r.note_latency(0, 200_000);
        assert!(
            second > 100_000.0 && second < 200_000.0,
            "EWMA moves toward the new observation without jumping: {second}"
        );
        // unknown nodes inherit the fleet mean, so one measured node does
        // not monopolise (or repel) all dispatch
        assert_eq!(r.est_shard_us(1), second.round() as u64);
    }

    #[test]
    fn floored_capacity_node_is_not_starved_by_weighted_dispatch() {
        // a node whose healthz lacked `workers` arrives floored at 1; it
        // must still win picks once the bigger node is loaded
        let mut r = registry(2);
        let now = Instant::now();
        r.note_health(0, &health(1, 1)); // floored signals
        r.note_health(1, &health(4, 16));
        for _ in 0..3 {
            let pick = r.pick_weighted(2, now).unwrap();
            assert_eq!(pick, 1, "big node absorbs the first wave");
            r.note_dispatch(1);
        }
        // node 1 now scores (4)/4 = 1.0, tying the idle floored node;
        // the tie breaks to the lower index, so node 0 gets work
        assert_eq!(r.pick_weighted(2, now), Some(0));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut r = registry(1);
        r.note_dispatch(0);
        r.note_failure(0, true);
        r.note_dispatch(0);
        r.note_success(0);
        r.note_failure(0, false);
        assert_eq!(
            r.node(0).state,
            NodeState::Suspect,
            "streak restarted after success, one failure is not death"
        );
    }
}
