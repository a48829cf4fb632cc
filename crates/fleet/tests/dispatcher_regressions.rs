//! Dispatcher regression tests for the liveness bugs fixed alongside the
//! weighted scheduler:
//!
//! 1. a saturated node whose status GETs answer only 429 must release its
//!    shard at the deadline (the old `poll_inflight` skipped the deadline
//!    check on `WorkerError::Busy` and held the shard forever);
//! 2. a node that 429'd with a long `Retry-After`, died, and was
//!    probe-revived must receive dispatches immediately (the old
//!    `note_probe` left the pre-death holdoff in place).
//!
//! Those two tests run the dispatcher in a worker thread behind a watchdog:
//! pre-fix, each scenario wedges the dispatch loop forever, which shows up
//! here as a watchdog timeout instead of a hung test suite.
//!
//! The merge thread's failure paths are pinned here too: a failed dispatch
//! returns promptly and leaves no merge thread behind, and a report that
//! is not JSON fails the run with the merge's `shard N report: …` error.
//!
//! And a run's latency estimates start afresh: one carried over from a
//! cold grid let a warm grid's first fast node hold every shard while the
//! other node's stale estimate never refreshed.

use proof_core::GridSpec;
use proof_fleet::{run_grid_local, DispatcherConfig, Fleet, FleetConfig, FleetError, FleetRun};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn spec(json: &str) -> GridSpec {
    GridSpec::from_value(&serde_json::from_str(json).unwrap()).unwrap()
}

/// Serve one scripted HTTP exchange: read the request head (and drain the
/// body), hand the request line to `respond`, write the reply.
fn serve_scripted(
    listener: TcpListener,
    respond: impl Fn(&str) -> (u16, String, Vec<(&'static str, String)>) + Send + 'static,
) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { continue };
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
                match s.read(&mut byte) {
                    Ok(1) => head.push(byte[0]),
                    _ => break,
                }
            }
            let head = String::from_utf8_lossy(&head).to_string();
            let line = head.lines().next().unwrap_or("").to_string();
            if let Some(len) = head.lines().find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .and_then(|v| v.trim().parse::<usize>().ok())
            }) {
                let mut body = vec![0u8; len.min(1 << 20)];
                let _ = s.read_exact(&mut body);
            }
            let (status, body, extra) = respond(&line);
            let mut headers = String::new();
            for (k, v) in &extra {
                headers.push_str(&format!("{k}: {v}\r\n"));
            }
            let _ = write!(
                s,
                "HTTP/1.1 {status} X\r\ncontent-type: application/json\r\n{headers}content-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
}

/// A worker that accepts every job but answers every status GET with 429 —
/// alive and healthy by every probe, yet the shard can never resolve on
/// it. The shape of a daemon wedged behind admission control.
fn busy_poller_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let next_id = AtomicU64::new(1);
    serve_scripted(listener, move |line| {
        if line.starts_with("GET /healthz") {
            (
                200,
                r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":1}"#
                    .to_string(),
                vec![],
            )
        } else if line.starts_with("POST /jobs") {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            (201, format!(r#"{{"id":{id},"status":"queued"}}"#), vec![])
        } else if line.starts_with("GET /jobs/") {
            (
                429,
                r#"{"error":"saturated"}"#.to_string(),
                vec![("Retry-After", "1".to_string())],
            )
        } else if line.starts_with("POST /cache/peers") {
            (200, r#"{"peers":1}"#.to_string(), vec![])
        } else {
            (404, r#"{"error":"no route"}"#.to_string(), vec![])
        }
    });
    addr
}

/// Run `fleet.run_grid` on a worker thread behind a watchdog: pre-fix both
/// regression scenarios wedge the dispatch loop forever, and a wedged test
/// should fail loudly rather than hang the suite.
fn run_with_watchdog(
    fleet: Fleet,
    s: GridSpec,
    budget: Duration,
) -> Result<Arc<FleetRun>, FleetError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = fleet.run_grid(&s);
        fleet.shutdown();
        let _ = tx.send(result);
    });
    rx.recv_timeout(budget)
        .expect("dispatcher wedged: run_grid never returned within the watchdog budget")
}

#[test]
fn node_answering_only_429s_releases_its_shard_at_the_deadline() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":31}"#);
    let reference = run_grid_local(&s).unwrap();

    let config = FleetConfig {
        nodes: vec![busy_poller_worker()],
        local_daemons: 1,
        request_timeout: Duration::from_millis(500),
        dispatcher: DispatcherConfig {
            shard_timeout: Duration::from_millis(800),
            max_shard_attempts: 5,
            ..DispatcherConfig::default()
        },
        ..FleetConfig::default()
    };
    let fleet = Fleet::start(config).unwrap();
    let run = run_with_watchdog(fleet, s, Duration::from_secs(60)).unwrap();

    assert_eq!(
        run.merged, reference,
        "429-wedged node changed the artifact bytes"
    );
    assert_eq!(run.outcome.results.len(), 2, "every cell must resolve");
    assert!(
        run.outcome.rescheduled >= 1,
        "the shard stuck behind 429s was never rescheduled at its deadline"
    );
}

/// A worker that is healthy forever, accepts jobs up to the dispatcher's
/// cap, and never finishes any of them — it keeps the run (and its pending
/// queue) alive while the node under test dies and revives.
fn sponge_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let next_id = AtomicU64::new(1);
    serve_scripted(listener, move |line| {
        if line.starts_with("GET /healthz") {
            (
                200,
                r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#
                    .to_string(),
                vec![],
            )
        } else if line.starts_with("POST /jobs") {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            (201, format!(r#"{{"id":{id},"status":"queued"}}"#), vec![])
        } else if line.starts_with("GET /jobs/") {
            (200, r#"{"status":"running"}"#.to_string(), vec![])
        } else if line.starts_with("POST /cache/peers") {
            (200, r#"{"peers":1}"#.to_string(), vec![])
        } else {
            (404, r#"{"error":"no route"}"#.to_string(), vec![])
        }
    });
    addr
}

/// A worker scripted through the revival scenario: healthy once, then its
/// first submission 429s with a 60 s `Retry-After`; two probe failures
/// kill it; every later probe succeeds (the daemon "restarted"). Jobs
/// accepted after revival fail instantly so the run ends without needing
/// real reports — the assertion is about *when* dispatch resumes.
fn dying_then_revived_worker() -> (SocketAddr, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let submits = Arc::new(AtomicU64::new(0));
    let submits_in = Arc::clone(&submits);
    let healthz_count = AtomicU64::new(0);
    let next_id = AtomicU64::new(1);
    serve_scripted(listener, move |line| {
        if line.starts_with("GET /healthz") {
            let n = healthz_count.fetch_add(1, Ordering::Relaxed) + 1;
            if n == 2 || n == 3 {
                (500, r#"{"error":"dying"}"#.to_string(), vec![])
            } else {
                (
                    200,
                    r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#
                        .to_string(),
                    vec![],
                )
            }
        } else if line.starts_with("POST /jobs") {
            let n = submits_in.fetch_add(1, Ordering::Relaxed) + 1;
            if n == 1 {
                (
                    429,
                    r#"{"error":"full"}"#.to_string(),
                    vec![("Retry-After", "60".to_string())],
                )
            } else {
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                (201, format!(r#"{{"id":{id},"status":"queued"}}"#), vec![])
            }
        } else if line.starts_with("GET /jobs/") {
            (
                200,
                r#"{"status":"failed","error":"scripted failure"}"#.to_string(),
                vec![],
            )
        } else if line.starts_with("POST /cache/peers") {
            (200, r#"{"peers":0}"#.to_string(), vec![])
        } else {
            (404, r#"{"error":"no route"}"#.to_string(), vec![])
        }
    });
    (addr, submits)
}

#[test]
fn federated_scrape_answers_while_a_run_is_in_flight() {
    // the sponge accepts both shards and never finishes them, so the run
    // thread holds the registry for the whole shard timeout; an earlier
    // build scraped through the registry and blocked until then
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":8}"#);
    let fleet = Fleet::start(FleetConfig {
        nodes: vec![sponge_worker()],
        request_timeout: Duration::from_millis(500),
        ..FleetConfig::default()
    })
    .unwrap();
    let _run = fleet.submit_grid(&s).unwrap();
    let (tx, rx) = mpsc::channel();
    // detached: the run cannot finish, so neither can a shutdown
    std::thread::spawn(move || {
        assert!(fleet.runs().active() > 0, "the run must still be in flight");
        let prom = fleet.metrics_prometheus_federated();
        let _ = tx.send((prom, fleet.runs().active()));
    });
    let (prom, active) = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("the federated scrape waited on the run thread");
    assert!(active > 0, "the run finished before the scrape");
    assert!(prom.contains("proof_fleet_fleet_runs_total 1"), "{prom}");
}

#[test]
fn revived_node_with_a_stale_backoff_dispatches_immediately() {
    // the node under test 429s its first submission with Retry-After: 60,
    // dies, and is probe-revived ~150 ms in; the sponge peer keeps the
    // run alive (and the pending queue full) throughout. Post-fix, the
    // revived node sees its second submission within the probe cadence;
    // pre-fix the stale 60 s holdoff keeps it undispatchable and the
    // deadline below fires.
    let s =
        spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2,3,4,5,6],"seed":5}"#);
    let (addr, submits) = dying_then_revived_worker();
    let config = FleetConfig {
        nodes: vec![addr, sponge_worker()],
        request_timeout: Duration::from_millis(500),
        dispatcher: DispatcherConfig {
            probe_interval: Duration::from_millis(50),
            ..DispatcherConfig::default()
        },
        ..FleetConfig::default()
    };
    let fleet = Fleet::start(config).unwrap();
    let started = Instant::now();
    // detached: neither scripted worker can produce a real report, so the
    // run itself cannot complete — the assertion is purely about when the
    // revived node is dispatched to again
    std::thread::spawn(move || {
        let _ = fleet.run_grid(&s);
        fleet.shutdown();
    });
    while submits.load(Ordering::Relaxed) < 2 {
        assert!(
            started.elapsed() < Duration::from_secs(15),
            "no post-revival dispatch after {:?} — the stale 60s backoff was not cleared \
             on the dead node's healthy probe",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Names of this process's live threads (`/proc/self/task/*/comm`; empty
/// where there is no procfs).
fn thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// The trace id of the fleet's most recent run, from its flight record.
fn last_run_trace(fleet: &Fleet) -> u64 {
    fleet
        .flight()
        .snapshot()
        .iter()
        .rev()
        .filter(|e| e.kind == "run")
        .find_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k, v) {
                (&"trace", proof_obs::FieldValue::U64(t)) => Some(*t),
                _ => None,
            })
        })
        .expect("a started run records its trace")
}

/// A worker that settles its first waiting submission inline with an empty
/// report and then fails every job it takes.
fn settle_once_then_fail_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let next_id = AtomicU64::new(1);
    serve_scripted(listener, move |line| {
        if line.starts_with("GET /healthz") {
            (
                200,
                r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#
                    .to_string(),
                vec![],
            )
        } else if line.starts_with("POST /jobs") {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            if id == 1 {
                (200, "{}".to_string(), vec![("X-Proof-Job", id.to_string())])
            } else {
                (201, format!(r#"{{"id":{id},"status":"queued"}}"#), vec![])
            }
        } else if line.starts_with("GET /jobs/") {
            (
                200,
                r#"{"status":"failed","error":"scripted failure"}"#.to_string(),
                vec![],
            )
        } else if line.starts_with("POST /cache/peers") {
            (200, r#"{"peers":0}"#.to_string(), vec![])
        } else {
            (404, r#"{"error":"no route"}"#.to_string(), vec![])
        }
    });
    addr
}

/// A worker that settles every waiting submission inline with a body
/// that is not JSON.
fn garbled_report_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let next_id = AtomicU64::new(1);
    serve_scripted(listener, move |line| {
        if line.starts_with("GET /healthz") {
            (
                200,
                r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#
                    .to_string(),
                vec![],
            )
        } else if line.starts_with("POST /jobs") {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            (
                200,
                r#"{"model": "mobilenetv2-0.5", "batch""#.to_string(),
                vec![("X-Proof-Job", id.to_string())],
            )
        } else if line.starts_with("POST /cache/peers") {
            (200, r#"{"peers":0}"#.to_string(), vec![])
        } else {
            (404, r#"{"error":"no route"}"#.to_string(), vec![])
        }
    });
    addr
}

#[test]
fn failed_dispatch_returns_promptly_and_joins_its_merge_thread() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":13}"#);
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    // (node, attempt budget): a node that refuses every connection, and
    // one that settles a shard inline (so the merge thread holds a cell)
    // and then fails the other shard's only attempt
    for (node, attempts) in [(dead, 3), (settle_once_then_fail_worker(), 1)] {
        let fleet = Fleet::start(FleetConfig {
            nodes: vec![node],
            request_timeout: Duration::from_millis(500),
            dispatcher: DispatcherConfig {
                max_shard_attempts: attempts,
                ..DispatcherConfig::default()
            },
            ..FleetConfig::default()
        })
        .unwrap();
        let (tx, rx) = mpsc::channel();
        let s = s.clone();
        std::thread::spawn(move || {
            let started = Instant::now();
            let result = fleet.run_grid(&s).map(|_| ());
            let elapsed = started.elapsed();
            let trace = last_run_trace(&fleet);
            // the run has returned, so its merge thread and the copy
            // threads it started are joined; allow the exiting threads a
            // moment to leave the task list. Names are matched exactly
            // (`merge-1` is a prefix of `merge-12`), and every name fits
            // Linux's 15-byte thread names
            let merge = format!("merge-{trace}");
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let run_threads: Vec<String> = std::iter::once(merge.clone())
                .chain((1..cores).map(|i| format!("copy-{trace}-{i}")))
                .collect();
            assert!(run_threads.iter().all(|name| name.len() <= 15));
            let deadline = Instant::now() + Duration::from_secs(1);
            let live = loop {
                let live = thread_names();
                if !live.iter().any(|name| run_threads.contains(name)) || Instant::now() >= deadline
                {
                    break live;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            fleet.shutdown();
            let _ = tx.send((result, elapsed, live, run_threads));
        });
        let (result, elapsed, live, run_threads) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a failed dispatch never returned");
        match result {
            Err(FleetError::AllNodesDead { .. }) if attempts == 3 => {}
            Err(FleetError::ShardFailed { attempts: 1, .. }) if attempts == 1 => {}
            other => panic!("unexpected run result for {node}: {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "the failed run took {elapsed:?} to return"
        );
        for name in &run_threads {
            assert!(!live.contains(name), "{name} outlived its run: {live:?}");
        }
    }
}

#[test]
fn unparseable_inline_report_fails_the_run_with_the_shard_error() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":17}"#);
    let fleet = Fleet::start(FleetConfig {
        nodes: vec![garbled_report_worker()],
        request_timeout: Duration::from_millis(500),
        ..FleetConfig::default()
    })
    .unwrap();
    let err = run_with_watchdog(fleet, s, Duration::from_secs(30)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "serialize: shard 0 report: expected `:` at line 1 column 37"
    );
}

/// A one-worker node that settles every waiting submission inline with
/// an empty report: after `cold_ms` while `cold` holds, as a daemon takes
/// to build a cell, and at once after, as it answers a cache hit.
fn cold_then_warm_worker(cold_ms: u64, cold: Arc<AtomicBool>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let next_id = AtomicU64::new(1);
    serve_scripted(listener, move |line| {
        if line.starts_with("GET /healthz") {
            (
                200,
                r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#
                    .to_string(),
                vec![],
            )
        } else if line.starts_with("POST /jobs") {
            if cold.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(cold_ms));
            }
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            (200, "{}".to_string(), vec![("X-Proof-Job", id.to_string())])
        } else if line.starts_with("POST /cache/peers") {
            (200, r#"{"peers":1}"#.to_string(), vec![])
        } else {
            (404, r#"{"error":"no route"}"#.to_string(), vec![])
        }
    });
    addr
}

/// A cold grid leaves latency estimates of milliseconds (a probe of a
/// 2 × 1-worker fleet read ~3.5 and ~6.5 ms). Carried into a warm run of
/// the same grid, they let the node with the lower one take more of the
/// first shards, whose cache hits pull its estimate down faster, until
/// it outscores the other node for every shard; an estimate moves only
/// when its node completes a shard, so the idle node's never fell again
/// and the next warm grid went wholly to one node. Every run now starts
/// its estimates afresh, so each warm run feeds both nodes.
#[test]
fn a_warm_run_after_a_cold_one_feeds_every_node() {
    let cold = Arc::new(AtomicBool::new(true));
    let fleet = Fleet::start(FleetConfig {
        nodes: vec![
            cold_then_warm_worker(4, Arc::clone(&cold)),
            cold_then_warm_worker(7, Arc::clone(&cold)),
        ],
        request_timeout: Duration::from_secs(2),
        ..FleetConfig::default()
    })
    .unwrap();
    // two models over ten batches: 20 cells, no batch sweep
    let s = spec(
        r#"{"models":["mobilenetv2-0.5","resnet-50"],"platform":"a100","batches":[1,2,3,4,5,6,7,8,9,10],"seed":41}"#,
    );
    fleet.run_grid(&s).unwrap();
    cold.store(false, Ordering::Relaxed);
    for pass in 1..=2 {
        let warm = fleet.run_grid(&s).unwrap();
        let completed: Vec<usize> = (0..2)
            .map(|node| {
                warm.outcome
                    .shards
                    .iter()
                    .filter(|r| r.node == node)
                    .count()
            })
            .collect();
        assert!(
            completed.iter().all(|&n| n >= 1),
            "warm run {pass} starved a node: completed per node {completed:?}"
        );
    }
    fleet.shutdown();
}

/// A one-worker node that queues every job and reports it done `job_ms`
/// after its submission, with an empty report: a node that is slow to
/// build a cell, polled like a real daemon.
fn slow_worker(job_ms: u64) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let submitted: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    serve_scripted(listener, move |line| {
        let job_id = |rest: &str| -> usize {
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
            digits.and_then(|d| d.parse().ok()).unwrap_or(0)
        };
        if line.starts_with("GET /healthz") {
            (
                200,
                r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#
                    .to_string(),
                vec![],
            )
        } else if line.starts_with("POST /jobs") {
            let mut jobs = submitted.lock().unwrap();
            jobs.push(Instant::now());
            let id = jobs.len();
            (201, format!(r#"{{"id":{id},"status":"queued"}}"#), vec![])
        } else if let Some(rest) = line.strip_prefix("GET /jobs/") {
            let id = job_id(rest);
            if rest.contains("/report") {
                return (200, "{}".to_string(), vec![]);
            }
            let since = submitted.lock().unwrap()[id - 1].elapsed();
            let status = if since >= Duration::from_millis(job_ms) {
                "done"
            } else {
                "running"
            };
            (200, format!(r#"{{"status":"{status}"}}"#), vec![])
        } else if line.starts_with("POST /cache/peers") {
            (200, r#"{"peers":1}"#.to_string(), vec![])
        } else {
            (404, r#"{"error":"no route"}"#.to_string(), vec![])
        }
    });
    addr
}

/// Starting estimates afresh each run costs a heterogeneous fleet the
/// slow node's estimate learned in the run before: the next run feeds it
/// shards up to its cap again until it resolves one (2 of 20 here, in
/// both runs). That must stay a cost of a few shards, not of the run: on
/// one fleet of a slow and a fast node, the fast node still completes
/// most of the second grid.
#[test]
fn a_second_run_on_a_mixed_fleet_still_favours_the_fast_node() {
    let fleet = Fleet::start(FleetConfig {
        nodes: vec![
            slow_worker(30),
            cold_then_warm_worker(0, Arc::new(AtomicBool::new(false))),
        ],
        request_timeout: Duration::from_secs(2),
        ..FleetConfig::default()
    })
    .unwrap();
    let s = spec(
        r#"{"models":["mobilenetv2-0.5","resnet-50"],"platform":"a100","batches":[1,2,3,4,5,6,7,8,9,10],"seed":43}"#,
    );
    for pass in 1..=2 {
        let run = fleet.run_grid(&s).unwrap();
        let fast = run.outcome.shards.iter().filter(|r| r.node == 1).count();
        assert!(
            fast * 2 > run.outcome.shards.len(),
            "run {pass}: the fast node completed {fast} of {} shards",
            run.outcome.shards.len()
        );
    }
    fleet.shutdown();
}
