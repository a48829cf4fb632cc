//! The dispatch loop: pending shards → capacity/latency-weighted nodes →
//! collected reports, with fault-aware rescheduling.
//!
//! Single-threaded by design — worker daemons provide the parallelism; the
//! coordinator only needs to keep every node's in-flight window full. One
//! pass of the loop (1) probes every node on a cadence — refreshing its
//! advertised load signals and reviving restarted daemons, then (2) writes
//! before it reads: it writes a submission for every pending shard a node
//! can take — to the node with the best estimated completion time
//! (`(in_flight + 1) × latency-EWMA ÷ workers`; see
//! [`NodeRegistry::pick_weighted`]), under its capacity-scaled in-flight
//! cap — and one status request per in-flight job, across all nodes, and
//! only then (3) reads the replies. Each of those requests asks the node to
//! hold its reply until the job is final or `poll_interval` passes
//! (`wait_ms`), so the nodes wait in parallel over kept-alive connections.
//! A submission the node settles within the wait (a cache hit, or a build
//! that fast) comes back `200` with the report inline; a status of `done`
//! is followed by a report fetch. Worker-reported failures, shard
//! timeouts, and transport errors send the shard back to the queue
//! (charging the node) until its attempt budget runs out.
//!
//! Rescheduling never loses work and never duplicates results: a shard is
//! either pending, in flight on exactly one node, or resolved, and results
//! are slotted by canonical shard id so the merge cannot double-count a
//! job that was rescheduled after the original node silently finished it.

use crate::client::{JobPoll, Pending, Submission, WorkerError};
use crate::coordinator::FleetError;
use crate::planner::{Shard, ShardPlan};
use crate::progress::{ProgressKind, ProgressSink};
use crate::registry::{NodeRegistry, NodeState};
use crate::runs::FleetView;
use proof_obs::{Counter, FieldValue, FlightRecorder, Level, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dispatch-loop tuning. Defaults suit local daemons; raise the timeouts
/// for real networks.
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// Base limit on unresolved shards submitted to one node at a time.
    /// Each node's cap scales it by the node's advertised workers.
    pub max_in_flight_per_node: usize,
    /// Wall-clock budget for one shard on one node, submission to report;
    /// past it the shard is rescheduled and the node charged.
    pub shard_timeout: Duration,
    /// How long a node may hold a submission or status reply waiting for
    /// the job to finish (`wait_ms`), and the shortest a dispatch pass
    /// lasts when nothing resolved: such a pass sleeps out what is left.
    pub poll_interval: Duration,
    /// How often every node is re-probed: dead nodes for revival, live
    /// ones to refresh the advertised load signals the scheduler uses.
    pub probe_interval: Duration,
    /// Total attempts one shard may consume across all nodes.
    pub max_shard_attempts: u32,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            max_in_flight_per_node: 2,
            shard_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(5),
            probe_interval: Duration::from_millis(250),
            max_shard_attempts: 3,
        }
    }
}

/// Fleet-level counters on the shared metrics registry (`GET /metrics` on
/// the coordinator renders them; per-node counters live in the
/// [`NodeRegistry`] snapshot). Registered once per fleet; every run's
/// dispatch adds to the same counters.
#[derive(Clone)]
pub struct FleetCounters {
    pub dispatched: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub rescheduled: Arc<Counter>,
    pub shard_failures: Arc<Counter>,
    pub probes: Arc<Counter>,
    pub probe_failures: Arc<Counter>,
    /// Dispatch decisions made by the weighted scheduler.
    pub weighted_picks: Arc<Counter>,
    /// Cells of finished runs whose report matched the previous run's
    /// bytes, so the merge reused that run's copy instead of walking it.
    pub cells_reused: Arc<Counter>,
}

impl FleetCounters {
    pub fn register(registry: &MetricsRegistry) -> FleetCounters {
        FleetCounters {
            dispatched: registry.counter("fleet_dispatched"),
            completed: registry.counter("fleet_completed"),
            rescheduled: registry.counter("fleet_rescheduled"),
            shard_failures: registry.counter("fleet_shard_failures"),
            probes: registry.counter("fleet_probes"),
            probe_failures: registry.counter("fleet_probe_failures"),
            weighted_picks: registry.counter("fleet_weighted_picks"),
            cells_reused: registry.counter("fleet_cells_reused"),
        }
    }
}

/// Where one shard finally resolved: the node, the worker-side job id, and
/// how many dispatch attempts it consumed. This is the join key for the
/// cross-node trace merge — the worker's job span carries the same job id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Canonical shard (cell) index.
    pub shard: usize,
    /// Registry index of the node that completed it.
    pub node: usize,
    /// The completing node's job id for this shard.
    pub job_id: u64,
    /// Dispatch attempts consumed across all nodes.
    pub attempts: u32,
}

/// What one grid run did, beyond the reports themselves. Counts are
/// per-run (the [`FleetCounters`] accumulate across runs). Dispatch,
/// reschedule and completion figures are read back from the run's
/// [`ProgressSink`] when the dispatch ends, so the two always agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// `(shard id, report JSON)` for every cell, in canonical order, each
    /// report as the node sent it, in the buffer its reply was read into
    /// — or, for a report whose bytes repeat the last run's, that run's
    /// buffer. It is the merge's input, so [`merge_run`](crate::merge_run)
    /// over it gives the run's document, and the next run's reuse
    /// baseline. [`Dispatcher::run`] moves every report to the run's copy
    /// threads instead of keeping it here, so this is empty in the outcome
    /// it returns; the coordinator fills it from the merge thread once the
    /// run has merged.
    pub results: Vec<(usize, Arc<String>)>,
    /// Per-shard completion records, in completion order (unordered with
    /// respect to shard ids).
    pub shards: Vec<ShardReport>,
    pub dispatched: u64,
    pub rescheduled: u64,
    pub probes: u64,
    pub probe_failures: u64,
}

struct InFlight {
    shard: Shard,
    attempts: u32,
    node: usize,
    job_id: u64,
    deadline: Instant,
    /// Submission time, for the per-node shard-latency histogram.
    started: Instant,
}

struct PendingShard {
    shard: Shard,
    /// Dispatch attempts already consumed.
    attempts: u32,
    last_error: Option<String>,
}

/// A submission written this pass, its reply not read yet.
struct SubmitSent {
    entry: PendingShard,
    node: usize,
    est_us: u64,
    sent_at: Instant,
    reply: Pending<Submission>,
}

/// A status request written this pass for an in-flight job, or the error
/// that kept it from being written.
struct StatusSent {
    entry: InFlight,
    reply: Result<Pending<JobPoll>, WorkerError>,
}

/// Everything one run's dispatch reports through: counters, tracing,
/// flight recorder, the run's [`ProgressSink`], and the shared
/// [`FleetView`] the HTTP surface reads mid-run.
pub struct DispatchCtx {
    pub counters: FleetCounters,
    /// The run's trace id.
    pub trace: u64,
    /// The `fleet_run` root span id, propagated to workers as the
    /// `X-Proof-Trace` parent so their job spans join the fleet trace.
    pub parent_span: u64,
    /// Registry for the per-node `node<i>_shard_us` latency histograms.
    pub metrics: Arc<MetricsRegistry>,
    /// Flight recorder shared with the coordinator: dispatches,
    /// reschedules, and node health transitions land here.
    pub flight: Arc<FlightRecorder>,
    /// The run's seq-numbered progress ledger — every dispatch,
    /// completion, and reschedule is published here as it resolves, and
    /// the run's [`DispatchOutcome`] is built from it.
    pub progress: Arc<ProgressSink>,
    /// Re-advertise the other nodes' cache endpoints to a node that comes
    /// back from the dead, so a restarted (cold) daemon serves its next
    /// shard from a warm peer's remote tier instead of re-simulating.
    pub advertise_peer_cache: bool,
    /// Shared registry view for lock-free `/nodes` and `/healthz` reads
    /// while this dispatch owns the registry.
    pub view: Arc<FleetView>,
    /// The run's copy threads: each resolved shard's report is moved here
    /// as it lands, and whichever copy thread is free takes it. Dropped
    /// when the run ends, which ends the merge.
    pub reports: Sender<(usize, Arc<String>)>,
}

/// The dispatch loop itself. Owns tuning and the run context, so it serves
/// one run; borrow the [`NodeRegistry`] for it.
pub struct Dispatcher {
    pub config: DispatcherConfig,
    ctx: DispatchCtx,
}

impl Dispatcher {
    pub fn new(config: DispatcherConfig, ctx: DispatchCtx) -> Dispatcher {
        Dispatcher { config, ctx }
    }

    /// Record a flight event when `before` differs from node `i`'s current
    /// health state.
    fn note_health_transition(&self, registry: &NodeRegistry, i: usize, before: NodeState) {
        let now = registry.node(i).state;
        if now != before {
            self.ctx.flight.record(
                "health",
                format!("node {i} {} -> {}", before.as_str(), now.as_str()),
                vec![
                    ("node", FieldValue::U64(i as u64)),
                    ("from", FieldValue::Str(before.as_str().to_string())),
                    ("to", FieldValue::Str(now.as_str().to_string())),
                ],
            );
        }
    }

    /// Run the plan to completion, moving each report to
    /// [`DispatchCtx::reports`] as its shard resolves. Fails fast when
    /// every node is dead with work still pending, or when one shard
    /// exhausts its attempt budget. Either way the dispatcher, and with it
    /// the report channel, is dropped on return.
    pub fn run(
        self,
        plan: &ShardPlan,
        registry: &mut NodeRegistry,
    ) -> Result<DispatchOutcome, FleetError> {
        if registry.is_empty() {
            return Err(FleetError::NoNodes);
        }
        let mut outcome = DispatchOutcome::default();
        let mut pending: VecDeque<PendingShard> = plan
            .shards
            .iter()
            .cloned()
            .map(|shard| PendingShard {
                shard,
                attempts: 0,
                last_error: None,
            })
            .collect();
        let mut inflight: Vec<InFlight> = Vec::new();
        let mut last_probe: Vec<Instant> = Vec::new();

        // pre-register every node's shard-latency histogram and EWMA
        // gauge so the federated exposition carries the series even
        // before (or without) completions on that node
        for i in 0..registry.len() {
            self.ctx.metrics.histogram(&format!("node{i}_shard_us"));
            self.ctx.metrics.gauge(&format!("node{i}_ewma_us"));
        }

        // opening probe: seed health and the per-run load picture, whose
        // latency estimates start afresh
        registry.forget_latencies();
        for i in 0..registry.len() {
            self.probe(registry, i, &mut outcome);
            last_probe.push(Instant::now());
        }
        self.ctx.view.set_nodes(registry.snapshot());

        while !pending.is_empty() || !inflight.is_empty() {
            let pass = Instant::now();
            // probe pass on the cadence, for every node: dead ones so a
            // restarted daemon rejoins, live ones so the scheduler's
            // advertised load signals (workers, queue capacity) stay fresh
            for (i, last) in last_probe.iter_mut().enumerate() {
                if pass.duration_since(*last) >= self.config.probe_interval {
                    self.probe(registry, i, &mut outcome);
                    *last = Instant::now();
                }
            }

            // write phase: every submission and status request goes out
            // before any reply is read, so the nodes work in parallel
            let submits = self.write_submits(registry, &mut pending)?;
            let wait = Some(self.config.poll_interval);
            let statuses: Vec<StatusSent> = inflight
                .drain(..)
                .map(|entry| StatusSent {
                    reply: registry.client(entry.node).begin_poll(entry.job_id, wait),
                    entry,
                })
                .collect();

            if !pending.is_empty()
                && submits.is_empty()
                && statuses.is_empty()
                && registry.alive() == 0
            {
                return Err(FleetError::AllNodesDead {
                    unresolved: pending.len(),
                });
            }

            // read phase, in write order
            let mut resolved = false;
            for sent in submits {
                resolved |= self.read_submit(registry, sent, &mut pending, &mut inflight);
            }
            for sent in statuses {
                resolved |= self.read_status(registry, sent, &mut pending, &mut inflight)?;
            }
            // republish the registry view every pass so `/nodes` and
            // `/healthz` track health transitions and in-flight counts live
            self.ctx.view.set_nodes(registry.snapshot());
            if !resolved {
                std::thread::sleep(self.config.poll_interval.saturating_sub(pass.elapsed()));
            }
        }
        self.ctx.view.set_nodes(registry.snapshot());
        let (counts, events) = self.ctx.progress.since(0);
        outcome.dispatched = counts.dispatched;
        outcome.rescheduled = counts.rescheduled;
        outcome.shards = events
            .iter()
            .filter(|e| e.kind == ProgressKind::Completed)
            .map(|e| ShardReport {
                shard: e.shard,
                node: e.node,
                job_id: e.job_id,
                attempts: e.attempts,
            })
            .collect();
        Ok(outcome)
    }

    fn probe(&self, registry: &mut NodeRegistry, i: usize, outcome: &mut DispatchOutcome) {
        let client = registry.client(i).clone();
        let state_before = registry.node(i).state;
        let was_dead = state_before == NodeState::Dead;
        let health = client.probe();
        let healthy = health.is_ok();
        if let Ok(h) = &health {
            registry.note_health(i, h);
        }
        registry.note_probe(i, healthy);
        self.note_health_transition(registry, i, state_before);
        self.ctx.counters.probes.inc();
        outcome.probes += 1;
        if !healthy {
            self.ctx.counters.probe_failures.inc();
            outcome.probe_failures += 1;
            proof_obs::event(
                Level::Warn,
                "proof_fleet",
                format!("probe of {} failed", client.addr),
                vec![("node", FieldValue::U64(i as u64))],
            );
        } else if was_dead && self.ctx.advertise_peer_cache && registry.len() > 1 {
            // a revived node is likely a restarted (cold) daemon: re-point
            // its remote cache tier at the surviving warm peers
            if let Err(e) = registry.advertise_peers(i) {
                proof_obs::event(
                    Level::Warn,
                    "proof_fleet",
                    format!(
                        "peer-cache advertisement to revived {} failed: {e}",
                        client.addr
                    ),
                    vec![("node", FieldValue::U64(i as u64))],
                );
            }
        }
    }

    /// Write a submission for pending shards until the queue drains or
    /// every node is at its cap / backing off. A shard whose submission
    /// cannot even be written goes back to the queue at once, so the next
    /// pick already sees the node's failure.
    fn write_submits(
        &self,
        registry: &mut NodeRegistry,
        pending: &mut VecDeque<PendingShard>,
    ) -> Result<Vec<SubmitSent>, FleetError> {
        let mut sent = Vec::new();
        while !pending.is_empty() {
            let now = Instant::now();
            let Some(node) = registry.pick_weighted(self.config.max_in_flight_per_node, now) else {
                // every node busy, dead, or backing off — or the weighted
                // policy is holding the shard for the projected-fastest
                // node rather than feeding a slower one
                break;
            };
            self.ctx.counters.weighted_picks.inc();
            let est_us = registry.est_shard_us(node);
            let entry = pending.pop_front().expect("non-empty");
            if entry.attempts >= self.config.max_shard_attempts {
                self.ctx.counters.shard_failures.inc();
                return Err(FleetError::ShardFailed {
                    shard: entry.shard.id,
                    attempts: entry.attempts,
                    last_error: entry.last_error.unwrap_or_else(|| "unknown".to_string()),
                });
            }
            match registry.client(node).begin_submit(
                &entry.shard.cell,
                Some((self.ctx.trace, self.ctx.parent_span)),
                Some(self.config.poll_interval),
            ) {
                Ok(reply) => {
                    registry.note_dispatch(node);
                    sent.push(SubmitSent {
                        entry,
                        node,
                        est_us,
                        sent_at: now,
                        reply,
                    });
                }
                Err(e) => {
                    let entry = self.submit_failed(registry, entry, node, e, false);
                    pending.push_front(entry);
                }
            }
        }
        Ok(sent)
    }

    /// Read one submission's reply: the shard settles inline, goes in
    /// flight, or returns to the queue. Returns whether it resolved.
    fn read_submit(
        &self,
        registry: &mut NodeRegistry,
        sent: SubmitSent,
        pending: &mut VecDeque<PendingShard>,
        inflight: &mut Vec<InFlight>,
    ) -> bool {
        let SubmitSent {
            mut entry,
            node,
            est_us,
            sent_at,
            reply,
        } = sent;
        let submission = match reply.read() {
            Ok(submission) => submission,
            Err(WorkerError::Busy { retry_after_s }) => {
                let hold = Duration::from_secs(retry_after_s.unwrap_or(1).max(1));
                registry.note_backoff(node, Instant::now() + hold, true);
                pending.push_front(entry); // not an attempt, not a failure
                return false;
            }
            Err(e) => {
                let entry = self.submit_failed(registry, entry, node, e, true);
                pending.push_front(entry);
                return false;
            }
        };
        let job_id = match submission {
            Submission::Queued(id) | Submission::Done { job_id: id, .. } => id,
        };
        registry.note_accepted(node);
        self.ctx.counters.dispatched.inc();
        entry.attempts += 1;
        if proof_obs::event_enabled(Level::Debug) {
            let addr = registry.client(node).addr;
            proof_obs::event(
                Level::Debug,
                "proof_fleet",
                format!("shard {} -> {addr} (job {job_id})", entry.shard.id),
                vec![
                    ("shard", FieldValue::U64(entry.shard.id as u64)),
                    ("attempt", FieldValue::U64(u64::from(entry.attempts))),
                ],
            );
        }
        self.ctx.flight.record(
            "dispatch",
            format!("shard {} -> node {node} (job {job_id})", entry.shard.id),
            vec![
                ("shard", FieldValue::U64(entry.shard.id as u64)),
                ("node", FieldValue::U64(node as u64)),
                ("job", FieldValue::U64(job_id)),
                ("attempt", FieldValue::U64(u64::from(entry.attempts))),
                ("est_us", FieldValue::U64(est_us)),
            ],
        );
        self.ctx
            .progress
            .note_dispatched(entry.shard.id, node, job_id, entry.attempts);
        let flight = InFlight {
            shard: entry.shard,
            attempts: entry.attempts,
            node,
            job_id,
            deadline: sent_at + self.config.shard_timeout,
            started: sent_at,
        };
        match submission {
            Submission::Queued(_) => {
                inflight.push(flight);
                false
            }
            Submission::Done { report, .. } => {
                self.complete(registry, flight, report);
                true
            }
        }
    }

    /// A submission to `node` failed: charge the node and return the shard
    /// for the front of the queue. It never reached the node as a job, so
    /// it consumed no attempt; `written` says whether it held an in-flight
    /// count.
    fn submit_failed(
        &self,
        registry: &mut NodeRegistry,
        mut entry: PendingShard,
        node: usize,
        e: WorkerError,
        written: bool,
    ) -> PendingShard {
        let state_before = registry.node(node).state;
        registry.note_failure(node, written);
        self.note_health_transition(registry, node, state_before);
        proof_obs::event(
            Level::Warn,
            "proof_fleet",
            format!("submit to {} failed: {e}", registry.client(node).addr),
            vec![("shard", FieldValue::U64(entry.shard.id as u64))],
        );
        self.ctx.flight.record(
            "reschedule",
            format!("shard {} submit to node {node} failed: {e}", entry.shard.id),
            vec![
                ("shard", FieldValue::U64(entry.shard.id as u64)),
                ("node", FieldValue::U64(node as u64)),
            ],
        );
        entry.last_error = Some(e.to_string());
        self.ctx.counters.rescheduled.inc();
        self.ctx
            .progress
            .note_rescheduled(entry.shard.id, node, 0, entry.attempts, false);
        entry
    }

    /// Read one in-flight job's status reply and resolve it: collect its
    /// report, reschedule it, or keep it in flight. Returns whether it
    /// resolved.
    fn read_status(
        &self,
        registry: &mut NodeRegistry,
        sent: StatusSent,
        pending: &mut VecDeque<PendingShard>,
        inflight: &mut Vec<InFlight>,
    ) -> Result<bool, FleetError> {
        // `Keep` leaves the job in flight; the other arms resolve it.
        enum Resolution {
            Keep,
            Done(Arc<String>),
            Fail { why: String, timed_out: bool },
        }
        let StatusSent { entry, reply } = sent;
        let client = registry.client(entry.node);
        let resolution = match reply.and_then(Pending::read) {
            Ok(JobPoll::Done) => match client.report(entry.job_id) {
                Ok(body) => Resolution::Done(body),
                // the report GET itself backpressured: the artifact
                // exists, fetch it next pass (deadline still applies)
                Err(WorkerError::Busy { .. }) => Resolution::Keep,
                Err(e) => Resolution::Fail {
                    why: e.to_string(),
                    timed_out: false,
                },
            },
            Ok(JobPoll::Failed(msg)) => Resolution::Fail {
                why: msg,
                timed_out: false,
            },
            // still running, or the status GET backpressured (node
            // alive, just saturated) — either way the shard stays in
            // flight and its deadline keeps ticking below
            Ok(JobPoll::Pending) | Err(WorkerError::Busy { .. }) => Resolution::Keep,
            // unreachable or protocol breakage (e.g. restarted daemon
            // that lost the job registry): node died mid-job
            Err(e) => Resolution::Fail {
                why: e.to_string(),
                timed_out: false,
            },
        };
        // the deadline governs every non-resolving outcome: a node
        // that answers only 429s must still release its shard at
        // `shard_timeout`, exactly like one that stays Pending
        let resolution = match resolution {
            Resolution::Keep if Instant::now() >= entry.deadline => Resolution::Fail {
                why: format!(
                    "shard timeout after {:?} on {}",
                    self.config.shard_timeout, client.addr
                ),
                timed_out: true,
            },
            r => r,
        };
        match resolution {
            Resolution::Keep => {
                inflight.push(entry);
                Ok(false)
            }
            Resolution::Done(report) => {
                self.complete(registry, entry, report);
                Ok(true)
            }
            Resolution::Fail { why, timed_out } => {
                self.reschedule(registry, entry, why, timed_out, pending)?;
                Ok(true)
            }
        }
    }

    /// Collect a finished shard's report.
    fn complete(&self, registry: &mut NodeRegistry, entry: InFlight, report: Arc<String>) {
        registry.note_success(entry.node);
        self.ctx.counters.completed.inc();
        let shard_us = entry
            .started
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        self.ctx
            .metrics
            .histogram(&format!("node{}_shard_us", entry.node))
            .record_us(shard_us);
        let ewma = registry.note_latency(entry.node, shard_us);
        self.ctx
            .metrics
            .gauge(&format!("node{}_ewma_us", entry.node))
            .set(ewma);
        self.ctx.progress.note_completed(&ShardReport {
            shard: entry.shard.id,
            node: entry.node,
            job_id: entry.job_id,
            attempts: entry.attempts,
        });
        // the channel is gone only if the copy threads panicked; the merge
        // thread's join reports that
        let _ = self.ctx.reports.send((entry.shard.id, report));
    }

    /// Charge the node an in-flight shard failed on and requeue the shard,
    /// or fail the run once the shard's attempt budget is spent.
    fn reschedule(
        &self,
        registry: &mut NodeRegistry,
        entry: InFlight,
        why: String,
        timed_out: bool,
        pending: &mut VecDeque<PendingShard>,
    ) -> Result<(), FleetError> {
        let state_before = registry.node(entry.node).state;
        registry.note_failure(entry.node, true);
        self.note_health_transition(registry, entry.node, state_before);
        if timed_out {
            // charge the full elapsed time to the node's latency estimate
            // — without this a wedged-but-healthy node keeps winning
            // weighted picks and burns the shard's whole attempt budget
            let elapsed_us = entry
                .started
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            let ewma = registry.note_latency(entry.node, elapsed_us);
            self.ctx
                .metrics
                .gauge(&format!("node{}_ewma_us", entry.node))
                .set(ewma);
        }
        let message = format!(
            "shard {} on node {} rescheduling: {why}",
            entry.shard.id, entry.node
        );
        let fields = || {
            vec![
                ("shard", FieldValue::U64(entry.shard.id as u64)),
                ("node", FieldValue::U64(entry.node as u64)),
            ]
        };
        self.ctx
            .flight
            .record("reschedule", message.clone(), fields());
        proof_obs::event(Level::Warn, "proof_fleet", message, fields());
        if entry.attempts >= self.config.max_shard_attempts {
            self.ctx.counters.shard_failures.inc();
            return Err(FleetError::ShardFailed {
                shard: entry.shard.id,
                attempts: entry.attempts,
                last_error: why,
            });
        }
        self.ctx.counters.rescheduled.inc();
        self.ctx.progress.note_rescheduled(
            entry.shard.id,
            entry.node,
            entry.job_id,
            entry.attempts,
            true,
        );
        pending.push_back(PendingShard {
            shard: entry.shard,
            attempts: entry.attempts,
            last_error: Some(why),
        });
        Ok(())
    }
}
