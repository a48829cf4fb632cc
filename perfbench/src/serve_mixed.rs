//! `serve-mixed`: one proof-serve daemon (two workers, a disk tier in a
//! fresh directory, a memory budget below the stream's distinct artifact
//! bytes) under one closed-loop client that repeats submit → poll → report
//! with no retries. The request mix comes from [`crate::stream`].

use crate::spans::Tracer;
use crate::stream::{Kind, Spec, SplitMix64, Stream, DECK, FRESH_HEAD};
use crate::{
    corrupt, daemon_means, digest, get_json, ms_since, out_dir, prom_value, Outcome, RunArgs, Usage,
};
use proof_fleet::DispatcherConfig;
use proof_serve::{client, AnalysisJob, ServeConfig, Server};
use proof_store::{validate_artifact, ArtifactKey, CacheTier, DiskTier};
use serde_json::{Map, Value};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Pipeline workers, one per core of the reference machine.
const WORKERS: usize = 2;
/// Requests each epoch's set-up sends to warm its fresh daemon.
const WARMUP_REQUESTS: usize = 32;
/// Requests per epoch: the fresh head plus 116 blocks, so each epoch deals
/// exactly one deck of fresh specs and every epoch has the same composition.
const EPOCH_REQUESTS: u64 = (FRESH_HEAD + 4 * (DECK - FRESH_HEAD)) as u64;
/// Epochs per second of `--seconds` (see [`crate::RunArgs::units`]).
pub const EPOCHS_PER_SECOND: f64 = 0.35;
#[cfg(test)]
/// Cold and warm latency samples one epoch adds: its fresh specs and twins
/// are built, its repeats are memory or disk hits.
pub const SAMPLES_PER_EPOCH: [u64; 2] = [
    (FRESH_HEAD + 2 * (DECK - FRESH_HEAD)) as u64,
    (2 * (DECK - FRESH_HEAD)) as u64,
];
/// Store counts are read after this many requests of the first epoch, so
/// they repeat exactly for a seed whatever the machine's speed.
const COUNT_WINDOW: u64 = 200;
/// Memory-tier budget: smaller than the distinct artifacts a repeat can
/// reach, so part of the repeats fall through to disk.
const CACHE_BUDGET_BYTES: usize = 3 << 19;
/// Requests between two host-speed calibrations (see [`crate::calib`]).
const CALIBRATE_EVERY: u64 = 8;
/// Served artifacts a traced run pushes through `DiskTier` and
/// `validate_artifact`.
const STORE_SAMPLE: usize = 32;
/// Threads that recompute references after the window.
const CHECK_THREADS: usize = 2;

struct Served {
    key: String,
    tier: String,
    polls: u64,
    /// Time spent in the pauses between polls.
    slept: Duration,
    report: String,
}

fn parse(body: &str, what: &str) -> Result<Value, String> {
    serde_json::from_str(body).map_err(|e| format!("{what}: invalid JSON: {e}"))
}

/// One job as the fleet dispatcher, the daemon's most frequent caller, runs
/// it: submit, poll the status at once and then every
/// `DispatcherConfig::default().poll_interval` until it is final, fetch the
/// report. Any non-2xx reply or a `failed` or `timed_out` job is an error;
/// nothing is retried.
fn round_trip(addr: SocketAddr, body: &str, tr: &mut Tracer) -> Result<Served, String> {
    let pause = DispatcherConfig::default().poll_interval;
    let (code, reply) = tr
        .time("serve.submit", || client::post(addr, "/jobs", body))
        .map_err(|e| format!("submit: {e}"))?;
    if code != 201 {
        return Err(format!("submit answered {code}: {reply}"));
    }
    let reply = parse(&reply, "submit reply")?;
    let id = reply
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("submit reply without an id")?;
    let key = reply
        .get("key")
        .and_then(Value::as_str)
        .ok_or("submit reply without a key")?
        .to_string();
    let path = format!("/jobs/{id}");
    let mut polls = 0;
    let mut slept = Duration::ZERO;
    let status = loop {
        polls += 1;
        let (code, body) = tr
            .time("serve.status", || client::get(addr, &path))
            .map_err(|e| format!("status: {e}"))?;
        if code != 200 {
            return Err(format!("status answered {code}: {body}"));
        }
        let status = parse(&body, "job status")?;
        match status.get("status").and_then(Value::as_str) {
            Some("done") => break status,
            Some("queued" | "running") => {
                let t = Instant::now();
                std::thread::sleep(pause);
                slept += t.elapsed();
            }
            other => {
                return Err(format!(
                    "job {id} ended {}: {}",
                    other.unwrap_or("without a status"),
                    status
                        .get("error")
                        .map(Value::to_string)
                        .unwrap_or_default()
                ))
            }
        }
    };
    let (code, report) = tr
        .time("serve.report", || {
            client::get(addr, &format!("{path}/report"))
        })
        .map_err(|e| format!("report: {e}"))?;
    if code != 200 {
        return Err(format!("report answered {code}"));
    }
    Ok(Served {
        key,
        tier: status
            .get("cache_tier")
            .and_then(Value::as_str)
            .unwrap_or("none")
            .to_string(),
        polls,
        slept,
        report,
    })
}

fn start(dir: &Path) -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: WORKERS,
        cache_budget_bytes: CACHE_BUDGET_BYTES,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))
}

pub fn run(args: &RunArgs, origin: Instant) -> Result<Outcome, String> {
    run_epochs(args, origin, EPOCH_REQUESTS)
}

/// The workload with epochs of `epoch_requests` requests each.
pub fn run_epochs(args: &RunArgs, origin: Instant, epoch_requests: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new(args, origin);
    let scratch = out_dir().join(format!(
        "serve-mixed-{}-{epoch_requests}",
        std::process::id()
    ));
    let result = measure(args, origin, &mut out, &scratch, epoch_requests);
    let _ = std::fs::remove_dir_all(&scratch);
    result.map(|()| out)
}

/// What the epochs of one run add up to.
#[derive(Default)]
struct Tally {
    requests: u64,
    polls: u64,
    kinds: BTreeMap<Kind, u64>,
    tiers: BTreeMap<(Kind, String), u64>,
    /// key → index into `distinct`
    served: HashMap<String, usize>,
    /// Every distinct spec served, with the digest of its first report.
    distinct: Vec<(Spec, (u64, usize))>,
    /// `/metrics` before and after each epoch's requests.
    metrics: Vec<(Value, Value)>,
    /// `/metrics` after the first [`COUNT_WINDOW`] requests of epoch 0.
    counted: Option<Value>,
    spans_dropped: f64,
}

/// The run is a sequence of epochs, as many as [`EPOCHS_PER_SECOND`] gives
/// for `--seconds`. Each starts a fresh daemon on a fresh cache directory
/// and warms it (one set-up), then sends `epoch_requests` requests of its
/// own seeded stream; set-ups are not part of the measured window. Fresh
/// daemons keep the job registry, and with it memory and per-request cost,
/// from growing with the run's length.
fn measure(
    args: &RunArgs,
    origin: Instant,
    out: &mut Outcome,
    scratch: &Path,
    epoch_requests: u64,
) -> Result<(), String> {
    let mut untraced = Tracer::new(false, origin);
    let mut seeds = SplitMix64::new(args.seed);
    let mut tally = Tally::default();
    let mut window = Duration::ZERO;
    let epochs = args.units(EPOCHS_PER_SECOND);
    for epoch in 0..epochs {
        let dir = scratch.join(format!("cache-{epoch}"));
        let mark = out.calib.sample();
        let t = Instant::now();
        let server = start(&dir)?;
        let mut slept = Duration::ZERO;
        for (_, spec) in Stream::new(seeds.next_u64()).take(WARMUP_REQUESTS) {
            slept += round_trip(server.addr(), &spec.body(), &mut untraced)?.slept;
        }
        out.setup_s
            .push_slept(t.elapsed().as_secs_f64(), slept.as_secs_f64(), mark);
        let (t, usage) = (Instant::now(), Usage::now());
        let stream = Stream::new(seeds.next_u64()).take(epoch_requests as usize);
        run_epoch(args, out, &mut tally, &server, stream, epoch == 0)?;
        window += t.elapsed();
        out.usage.add_since(usage);
        // later epochs repeat this work on fresh daemons: the footprint of
        // one is read here, before allocator retention across restarts
        out.peak_rss_mb.get_or_insert_with(crate::peak_rss_mb);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.window_s = window.as_secs_f64();

    out.spans.enabled = args.trace;
    let samples = verify(out, &tally.distinct, args.corrupt_reference, origin)?;
    if args.trace {
        time_store(out, &samples, &scratch.join("store-check"))?;
    }

    let (before, after) = tally.metrics.first().expect("at least one epoch");
    let counted = tally.counted.as_ref().unwrap_or(after);
    let delta = |path: &[&str]| crate::at(counted, path) - crate::at(before, path);
    out.set("store.memory_hits", delta(&["cache", "memory_hits"]));
    out.set("store.disk_hits", delta(&["cache", "disk_hits"]));
    out.set("store.misses", delta(&["cache", "misses"]));
    let total = |path: &[&str]| -> f64 {
        tally
            .metrics
            .iter()
            .map(|(b, a)| crate::at(a, path) - crate::at(b, path))
            .sum()
    };
    let sc_hits = total(&["stage_cache", "hits"]);
    let sc_misses = total(&["stage_cache", "misses"]);
    if sc_hits + sc_misses > 0.0 {
        out.set(
            "serve.stage_cache_hit_ratio",
            sc_hits / (sc_hits + sc_misses),
        );
    }
    let utilization = tally
        .metrics
        .iter()
        .map(|(_, a)| crate::at(a, &["workers", "utilization"]))
        .sum::<f64>()
        / tally.metrics.len() as f64;
    out.set("serve.worker_utilization", utilization);
    daemon_means(out, &tally.metrics);
    if out.reports > 0 {
        out.set(
            "serve.status_polls_per_job",
            tally.polls as f64 / out.reports as f64,
        );
    }
    out.set("obs.spans_dropped", tally.spans_dropped);

    let mut mix = Map::new();
    for ((kind, tier), count) in &tally.tiers {
        let entry = mix
            .entry(kind.name().to_string())
            .or_insert_with(|| Value::Object(Map::new()));
        if let Value::Object(m) = entry {
            m.insert(tier.clone(), Value::from(*count));
        }
    }
    let mut shares = Map::new();
    for (kind, count) in &tally.kinds {
        shares.insert(
            kind.name().to_string(),
            Value::from(*count as f64 / tally.requests as f64),
        );
    }
    out.meta("epochs", epochs);
    out.meta("requests", tally.requests);
    out.meta("count_window", COUNT_WINDOW.min(epoch_requests));
    out.meta("distinct_specs", tally.distinct.len() as u64);
    out.meta("tier_mix", Value::Object(mix));
    out.meta("shares", Value::Object(shares));
    Ok(())
}

fn run_epoch(
    args: &RunArgs,
    out: &mut Outcome,
    tally: &mut Tally,
    server: &Server,
    stream: impl Iterator<Item = (Kind, Spec)>,
    first: bool,
) -> Result<(), String> {
    let addr = server.addr();
    let before = get_json(addr, "/metrics")?;
    let mut mark = 0;
    for (n, (kind, spec)) in (1u64..).zip(stream) {
        tally.requests += 1;
        out.attempted += 1;
        *tally.kinds.entry(kind).or_default() += 1;
        // a traced run alternates traced and untraced requests
        let traced = args.trace && n.is_multiple_of(2);
        out.spans.enabled = traced;
        out.spans.begin_trace(tally.requests);
        if n % CALIBRATE_EVERY == 1 {
            mark = out.calib.sample();
        }
        let body = spec.body();
        if traced {
            let v = parse(&body, "job spec")?;
            out.spans
                .time("serve.spec_decode", || AnalysisJob::from_value(&v))
                .map_err(|e| format!("spec decode: {e}"))?;
        }
        let t = Instant::now();
        let root = out.spans.enter("serve.job");
        let result = round_trip(addr, &body, &mut out.spans);
        out.spans.exit(root);
        let ms = ms_since(t);
        match result {
            Err(e) => {
                out.busy_ms.push(ms, mark);
                out.fail(e);
            }
            Ok(s) => {
                let slept = s.slept.as_secs_f64() * 1e3;
                out.busy_ms.push_slept(ms, slept, mark);
                out.reports += 1;
                tally.polls += s.polls;
                if matches!(s.tier.as_str(), "memory" | "disk") {
                    out.warm_ms.push_slept(ms, slept, mark);
                    if traced {
                        out.traced_ms.push_slept(ms, slept, mark);
                    } else {
                        out.untraced_ms.push_slept(ms, slept, mark);
                    }
                } else {
                    out.cold_ms.push_slept(ms, slept, mark);
                }
                let d = digest(&s.report);
                *tally.tiers.entry((kind, s.tier)).or_default() += 1;
                match tally.served.get(&s.key) {
                    Some(&i) if tally.distinct[i].1 != d => {
                        return Err(format!("key {} served two different reports", s.key))
                    }
                    Some(_) => {}
                    None => {
                        tally.served.insert(s.key, tally.distinct.len());
                        tally.distinct.push((spec, d));
                    }
                }
            }
        }
        if first && n == COUNT_WINDOW {
            tally.counted = Some(get_json(addr, "/metrics")?);
        }
    }
    let after = get_json(addr, "/metrics")?;
    tally.spans_dropped = tally
        .spans_dropped
        .max(prom_value(addr, "proof_serve_trace_spans_dropped_total")?);
    tally.metrics.push((before, after));
    Ok(())
}

/// One check thread's spans and the reference artifacts it keeps, by index.
type Checked = Result<(Tracer, Vec<(usize, String)>), String>;

/// Recompute the report of every distinct spec served with
/// `AnalysisJob::execute().try_to_json()` and compare it with the served
/// bytes' digest, after the window, on [`CHECK_THREADS`] threads. Returns
/// the first [`STORE_SAMPLE`] reference artifacts.
fn verify(
    out: &mut Outcome,
    distinct: &[(Spec, (u64, usize))],
    corrupt_first: bool,
    origin: Instant,
) -> Result<Vec<String>, String> {
    let traced = out.spans.enabled;
    let results: Vec<Checked> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, origin);
                    let mut kept = Vec::new();
                    for (i, (spec, served)) in
                        distinct.iter().enumerate().skip(t).step_by(CHECK_THREADS)
                    {
                        let job = AnalysisJob::from_value(&parse(&spec.body(), "job spec")?)?;
                        let report = job
                            .execute()
                            .map_err(|e| format!("reference {}: {e}", spec.body()))?;
                        let mut json = tr
                            .time("core.encode", || report.try_to_json())
                            .map_err(|e| format!("reference {}: {e}", spec.body()))?;
                        if corrupt_first && i == 0 {
                            corrupt(&mut json);
                        }
                        if digest(&json) != *served {
                            return Err(format!(
                                "{}: served report differs from AnalysisJob::execute",
                                spec.body()
                            ));
                        }
                        if i < STORE_SAMPLE {
                            kept.push((i, json));
                        }
                    }
                    Ok((tr, kept))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a check thread panicked".to_string()))
            })
            .collect()
    });
    let mut kept = Vec::new();
    for r in results {
        let (tr, k) = r?;
        out.spans.absorb(tr);
        kept.extend(k);
    }
    kept.sort_by_key(|(i, _)| *i);
    if !distinct.is_empty() {
        let bytes: usize = distinct.iter().map(|(_, (_, len))| len).sum();
        out.set("core.report_bytes", bytes as f64 / distinct.len() as f64);
    }
    Ok(kept.into_iter().map(|(_, json)| json).collect())
}

/// Time the disk tier and artifact validation on the run's own artifacts.
fn time_store(out: &mut Outcome, samples: &[String], dir: &Path) -> Result<(), String> {
    let disk = DiskTier::new(dir).map_err(|e| format!("disk tier: {e}"))?;
    for (i, artifact) in samples.iter().enumerate() {
        let key = ArtifactKey::new(&format!("{i:016x}")).map_err(|e| e.to_string())?;
        out.spans
            .time("store.disk_put", || disk.put(&key, artifact))
            .map_err(|e| e.to_string())?;
        let back = out
            .spans
            .time("store.disk_get", || disk.get(&key))
            .map_err(|e| e.to_string())?;
        if back.as_deref() != Some(artifact.as_str()) {
            return Err("the disk tier returned different bytes".to_string());
        }
        if !out
            .spans
            .time("store.validate", || validate_artifact(artifact))
        {
            return Err("a served artifact failed validation".to_string());
        }
    }
    Ok(())
}
