//! `fleet-grid`: `Fleet::start` with two embedded daemons of one worker
//! each — the `proof fleet sweep --local 2` path. Each iteration runs the
//! 20 models × {a100, rtx-4090} × batches {1, 8} grid (80 cells) under a
//! fresh seed — cold: every cell built and published to the peer — and then
//! the same spec again, twice — warm: every cell a memory hit, so a warm
//! pass is pure dispatch, HTTP polling and merge.

use crate::stream::SplitMix64;
use crate::{at, corrupt, daemon_means, get_json, ms_since, prom_value, Outcome, RunArgs, Usage};
use proof_core::GridSpec;
use proof_fleet::{merge_run, run_grid_local, Fleet, FleetConfig};
use proof_models::ModelId;
use serde_json::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const NODES: usize = 2;
const WORKERS_PER_NODE: usize = 1;
const PLATFORMS: [&str; 2] = ["a100", "rtx-4090"];
const BATCHES: [u64; 2] = [1, 8];
/// Warm passes after each cold pass.
const WARM_PASSES: u64 = 2;
/// Iterations per second of `--seconds` (see [`crate::RunArgs::units`]).
pub const ITERATIONS_PER_SECOND: f64 = 1.25;
#[cfg(test)]
/// Cold and warm latency samples one iteration adds.
pub const SAMPLES_PER_ITERATION: [u64; 2] = [1, WARM_PASSES];
/// The warm-up grid of a set-up: two models over the same platforms and
/// batches, run cold and warm.
const WARMUP_MODELS: [ModelId; 2] = [ModelId::MobileNetV2x05, ModelId::ResNet50];

fn grid(models: &[ModelId], seed: u64) -> GridSpec {
    GridSpec {
        models: models.iter().map(|m| m.slug().to_string()).collect(),
        backends: Vec::new(),
        platforms: PLATFORMS.iter().map(|p| p.to_string()).collect(),
        dtypes: Vec::new(),
        batches: BATCHES.to_vec(),
        mode: None,
        seed,
    }
}

fn start() -> Result<Fleet, String> {
    Fleet::start(FleetConfig {
        local_workers: WORKERS_PER_NODE,
        ..FleetConfig::local(NODES)
    })
    .map_err(|e| format!("cannot start the fleet: {e}"))
}

fn node_metrics(nodes: &[SocketAddr]) -> Result<Vec<Value>, String> {
    nodes.iter().map(|&a| get_json(a, "/metrics")).collect()
}

/// HTTP requests the nodes have answered, counting this scrape itself.
fn node_requests(nodes: &[SocketAddr]) -> Result<f64, String> {
    nodes
        .iter()
        .map(|&a| prom_value(a, "proof_serve_http_requests_total"))
        .sum()
}

fn fleet_counter(fleet: &Fleet, name: &str) -> f64 {
    let v: Value = serde_json::from_str(&fleet.metrics_json()).unwrap_or(Value::Null);
    at(&v, &["counters", name])
}

/// The exact counts of one cold + warm iteration, read around it.
struct Counts {
    dispatched: f64,
    rescheduled: f64,
    remote_hits: f64,
    publishes: f64,
}

fn counts(fleet: &Fleet, nodes: &[SocketAddr]) -> Result<Counts, String> {
    Ok(Counts {
        dispatched: fleet_counter(fleet, "fleet_dispatched"),
        rescheduled: fleet_counter(fleet, "fleet_rescheduled"),
        remote_hits: fleet_counter(fleet, "fleet_cache_remote_hits"),
        publishes: node_metrics(nodes)?
            .iter()
            .map(|m| at(m, &["cache", "publishes"]))
            .sum(),
    })
}

/// What the iterations of one run add up to.
#[derive(Default)]
struct Tally {
    /// The first grid and its cold artifact, checked against
    /// `run_grid_local` after the window.
    first: Option<(GridSpec, String)>,
    rescheduled: u64,
    merged_bytes: usize,
    requests_per_shard: Vec<f64>,
    /// Each node's `/metrics` before and after an iteration (traced runs).
    metrics: Vec<(Value, Value)>,
    spans_dropped: f64,
}

pub fn run(args: &RunArgs, origin: Instant) -> Result<Outcome, String> {
    run_models(args, origin, &ModelId::ALL)
}

/// The run is a sequence of iterations, as many as
/// [`ITERATIONS_PER_SECOND`] gives for `--seconds`, each on a fresh fleet:
/// start it and run a small warm-up grid cold and warm (one set-up), then
/// the grid of `models` cold under a fresh seed and [`WARM_PASSES`] times
/// warm. Set-ups are not part of the measured window. A fresh fleet keeps
/// the run ledger and the node registries, and with them memory and
/// per-request cost, from growing with the run.
pub fn run_models(args: &RunArgs, origin: Instant, models: &[ModelId]) -> Result<Outcome, String> {
    let mut out = Outcome::new(args, origin);
    let mut seeds = SplitMix64::new(args.seed);
    let mut tally = Tally::default();
    let mut window = Duration::ZERO;
    let iterations = args.units(ITERATIONS_PER_SECOND);
    for iteration in 0..iterations {
        let mark = out.calib.sample();
        let t = Instant::now();
        let fleet = start()?;
        let warm_up = grid(&WARMUP_MODELS, seeds.job_seed());
        for _ in 0..2 {
            fleet
                .run_grid(&warm_up)
                .map_err(|e| format!("warm-up grid: {e}"))?;
        }
        out.setup_s.push(t.elapsed().as_secs_f64(), mark);
        let spec = grid(models, seeds.job_seed());
        let (t, usage) = (Instant::now(), Usage::now());
        let result = run_iteration(args, &mut out, &mut tally, &fleet, &spec, iteration);
        window += t.elapsed();
        out.usage.add_since(usage);
        // later iterations repeat this work on fresh fleets: the footprint
        // of one is read here, before allocator retention across restarts
        out.peak_rss_mb.get_or_insert_with(crate::peak_rss_mb);
        fleet.shutdown();
        result?;
    }
    out.window_s = window.as_secs_f64();
    // the reference is computed after the window, outside set-up and memory
    let (first_spec, first_merged) = tally
        .first
        .take()
        .ok_or("no cold grid succeeded, so none can be checked")?;
    let mut reference = run_grid_local(&first_spec).map_err(|e| format!("run_grid_local: {e}"))?;
    if args.corrupt_reference {
        corrupt(&mut reference);
    }
    if reference != first_merged {
        return Err("the first cold artifact differs from run_grid_local".to_string());
    }
    if args.trace {
        daemon_means(&mut out, &tally.metrics);
        out.set("obs.spans_dropped", tally.spans_dropped);
        if !tally.requests_per_shard.is_empty() {
            let n = tally.requests_per_shard.len() as f64;
            out.set(
                "fleet.node_http_requests_per_shard",
                tally.requests_per_shard.iter().sum::<f64>() / n,
            );
        }
        out.set("core.merged_bytes", tally.merged_bytes as f64);
    }
    out.meta("iterations", iterations);
    out.meta("warm_passes", WARM_PASSES);
    out.meta("cells_per_grid", grid(models, 0).cell_count() as u64);
    out.meta("rescheduled", tally.rescheduled);
    let ms_list = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::from(x)).collect());
    let (cold, warm) = (ms_list(&out.cold_ms.raw()), ms_list(&out.warm_ms.raw()));
    out.meta("cold_grid_ms", cold);
    out.meta("warm_grid_ms", warm);
    if tally.rescheduled > 0 {
        eprintln!(
            "perfbench: fleet-grid rescheduled {} shards",
            tally.rescheduled
        );
    }
    Ok(out)
}

fn run_iteration(
    args: &RunArgs,
    out: &mut Outcome,
    tally: &mut Tally,
    fleet: &Fleet,
    spec: &GridSpec,
    iteration: u64,
) -> Result<(), String> {
    let nodes = fleet.node_addrs();
    let cells = spec.cell_count() as u64;
    // a traced run alternates traced and untraced iterations
    let traced = args.trace && iteration.is_multiple_of(2);
    out.spans.enabled = traced;
    out.spans.begin_trace(iteration);
    let before = if args.trace {
        Some((counts(fleet, &nodes)?, node_metrics(&nodes)?))
    } else {
        None
    };

    out.attempted += 1 + WARM_PASSES;
    let mark = out.calib.sample();
    let t = Instant::now();
    let root = out.spans.enter("fleet.cold");
    let cold = out.spans.time("fleet.run_grid", || fleet.run_grid(spec));
    out.spans.exit(root);
    let cold_ms = ms_since(t);
    out.busy_ms.push(cold_ms, mark);
    let cold = match cold {
        Ok(run) => run,
        Err(e) => {
            out.fail(format!("cold grid: {e}"));
            for _ in 0..WARM_PASSES {
                out.fail("warm grid skipped after a failed cold grid");
            }
            return Ok(());
        }
    };
    tally.rescheduled += cold.outcome.rescheduled;
    if tally.first.is_none() {
        tally.first = Some((spec.clone(), cold.merged.clone()));
    }
    out.cold_ms.push(cold_ms, mark);
    out.reports += cells;
    if traced {
        out.traced_ms.push(cold_ms, mark);
    } else {
        out.untraced_ms.push(cold_ms, mark);
    }
    if args.trace {
        let merged = out
            .spans
            .time("core.merge", || merge_run(spec, &cold.outcome.results))
            .map_err(|e| format!("merge_run: {e}"))?;
        if merged != cold.merged {
            return Err("merge_run differs from the fleet's merged artifact".to_string());
        }
        tally.merged_bytes = merged.len();
    }

    for _ in 0..WARM_PASSES {
        let requests_before = if args.trace {
            Some(node_requests(&nodes)?)
        } else {
            None
        };
        let mark = out.calib.sample();
        let t = Instant::now();
        let root = out.spans.enter("fleet.warm");
        let warm = out.spans.time("fleet.run_grid", || fleet.run_grid(spec));
        out.spans.exit(root);
        let warm_ms = ms_since(t);
        out.busy_ms.push(warm_ms, mark);
        match warm {
            Err(e) => out.fail(format!("warm grid: {e}")),
            Ok(warm) => {
                tally.rescheduled += warm.outcome.rescheduled;
                if warm.merged != cold.merged {
                    return Err("a warm artifact differs from its cold one".to_string());
                }
                out.warm_ms.push(warm_ms, mark);
                out.reports += cells;
                if let Some(before) = requests_before {
                    // both scrapes count themselves: one extra request per node
                    let during = node_requests(&nodes)? - before - nodes.len() as f64;
                    tally.requests_per_shard.push(during / cells as f64);
                }
            }
        }
    }

    if let Some((b, metrics_before)) = before {
        let a = counts(fleet, &nodes)?;
        if iteration == 0 {
            // exact counts of one cold pass plus its warm passes
            out.set("fleet.dispatched", a.dispatched - b.dispatched);
            out.set("fleet.rescheduled", a.rescheduled - b.rescheduled);
            out.set("fleet.cache_remote_hits", a.remote_hits - b.remote_hits);
            out.set("fleet.peer_publishes", a.publishes - b.publishes);
        }
        tally
            .metrics
            .extend(metrics_before.into_iter().zip(node_metrics(&nodes)?));
        for &addr in &nodes {
            // embedded daemons share one process-wide ring: take the largest
            tally.spans_dropped = tally
                .spans_dropped
                .max(prom_value(addr, "proof_serve_trace_spans_dropped_total")?);
        }
    }
    Ok(())
}
