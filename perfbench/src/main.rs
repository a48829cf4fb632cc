//! perfbench — the seeded end-to-end and per-layer benchmark of the proof
//! workspace (README.md beside this crate has the workloads, the metric →
//! layer table and how to run it).
//!
//! ```text
//! perfbench --workload <zoo-profile|serve-mixed|fleet-grid> --seed <n>
//!           --seconds <s> --trace <0|1> [--corrupt-reference]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it holds
//! the run metadata. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. A failed output check prints no result and exits 1;
//! `--corrupt-reference` damages one reference on purpose to show that.

mod calib;
mod fleet_grid;
mod serve_mixed;
mod spans;
mod stats;
mod stream;
mod zoo;

use calib::Samples;
use proof_serve::client;
use serde_json::{Map, Value};
use spans::Tracer;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["zoo-profile", "serve-mixed", "fleet-grid"];

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order. Every
/// workload delivers profile reports, cold (built by the pipeline) or warm
/// (served from a cache or a prepared prefix); README.md maps each metric to
/// its meaning per workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reports_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_tail_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. Every
/// workload prints all of them; a layer the workload does not cross reads 0.
/// `_us` metrics are mean self time per call.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("models.build_us", "us"),
    ("core.compile_us", "us"),
    ("core.builtin_profile_us", "us"),
    ("core.map_us", "us"),
    ("core.metrics_us", "us"),
    ("core.assemble_us", "us"),
    ("core.encode_us", "us"),
    ("core.report_bytes", "bytes"),
    ("core.merge_us", "us"),
    ("core.merged_bytes", "bytes"),
    ("serve.spec_decode_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.status_us", "us"),
    ("serve.report_us", "us"),
    ("serve.status_polls_per_job", "count"),
    ("serve.queue_wait_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.stage_cache_hit_ratio", "ratio"),
    ("serve.worker_utilization", "ratio"),
    ("store.memory_hits", "count"),
    ("store.disk_hits", "count"),
    ("store.misses", "count"),
    ("store.disk_get_us", "us"),
    ("store.disk_put_us", "us"),
    ("store.validate_us", "us"),
    ("fleet.run_grid_us", "us"),
    ("fleet.dispatched", "count"),
    ("fleet.rescheduled", "count"),
    ("fleet.peer_publishes", "count"),
    ("fleet.cache_remote_hits", "count"),
    ("fleet.node_http_requests_per_shard", "count"),
    ("obs.spans_dropped", "count"),
    ("harness.self_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Root spans: one per unit of work; their self time is the harness's own.
const ROOT_SPANS: [&str; 5] = [
    "zoo.cold",
    "zoo.warm",
    "serve.job",
    "fleet.cold",
    "fleet.warm",
];

const USAGE: &str = "usage: perfbench --workload <zoo-profile|serve-mixed|fleet-grid> \
                     --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]";

#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Damage one reference so the output check must fail.
    pub corrupt_reference: bool,
}

impl RunArgs {
    /// Units of work (passes, epochs, iterations) a run measures:
    /// `per_second` for each second of `--seconds`, at least one. The count
    /// depends on the arguments alone, so every run of a workload takes the
    /// same number of samples and each tail is the same order statistic
    /// whatever the machine's speed. Each workload's rate is set so that a
    /// run measures for about `--seconds` on a 2-vCPU machine.
    pub fn units(&self, per_second: f64) -> u64 {
        ((self.seconds as f64 * per_second).round() as u64).max(1)
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
            },
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_reference,
    })
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up: daemon or fleet start plus warm-up, with
    /// reference computations excluded.
    pub setup_s: Samples,
    /// Reports delivered inside the measured window, and the window's length.
    pub reports: u64,
    pub window_s: f64,
    /// The time each unit of work took, in ms; `reports_per_s` divides by
    /// their scaled sum.
    pub busy_ms: Samples,
    pub cold_ms: Samples,
    pub warm_ms: Samples,
    /// Per-layer values measured directly (counts, ratios, program-side
    /// times); span self times fill in the rest.
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload metadata: tier mix, shares, exact counts.
    pub meta: Map<String, Value>,
    pub spans: Tracer,
    /// CPU this process used inside the window, and the machine's steal.
    pub usage: Usage,
    /// Peak resident set once the first epoch or iteration of the window
    /// is done, for workloads that restart their daemons; `None` reads it
    /// when the run ends.
    pub peak_rss_mb: Option<f64>,
    /// A traced run's unit latencies with spans on and off; their medians
    /// give the tracing overhead.
    pub traced_ms: Samples,
    pub untraced_ms: Samples,
    /// Host-speed calibrations; every sample above is scaled by the one
    /// taken right before it.
    pub calib: calib::Calibration,
}

impl Outcome {
    pub fn new(args: &RunArgs, origin: Instant) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s: Samples::default(),
            reports: 0,
            window_s: 0.0,
            busy_ms: Samples::default(),
            cold_ms: Samples::default(),
            warm_ms: Samples::default(),
            layers: BTreeMap::new(),
            meta: Map::new(),
            spans: Tracer::new(args.trace, origin),
            usage: Usage::default(),
            peak_rss_mb: None,
            traced_ms: Samples::default(),
            untraced_ms: Samples::default(),
            calib: calib::Calibration::default(),
        }
    }

    /// Count one failed or refused operation; the first few go to stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: operation failed: {what}");
        }
    }

    pub fn set(&mut self, layer_metric: &'static str, value: f64) {
        self.layers.insert(layer_metric, value);
    }

    pub fn meta(&mut self, key: &str, value: impl Into<Value>) {
        self.meta.insert(key.to_string(), value.into());
    }
}

/// FNV-1a/64 digest plus length: how a report is compared once its bytes
/// have been checked in full.
pub fn digest(s: &str) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, s.len())
}

/// Damage a reference (the `--corrupt-reference` self-check).
pub fn corrupt(reference: &mut String) {
    reference.push(' ');
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Where runs write their results, spans and scratch files: inside the
/// benchmark's own directory of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A number at a path of nested object keys, 0 when absent.
pub fn at(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `GET path` from a daemon, as JSON; anything but a 200 is an error.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Value, String> {
    let (code, body) = client::get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if code != 200 {
        return Err(format!("GET {path} answered {code}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("GET {path}: invalid JSON: {e}"))
}

/// One unlabeled sample of a daemon's Prometheus exposition, 0 when absent.
pub fn prom_value(addr: SocketAddr, name: &str) -> Result<f64, String> {
    let path = "/metrics?format=prometheus";
    let (code, body) = client::get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if code != 200 {
        return Err(format!("GET {path} answered {code}"));
    }
    Ok(body
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0))
}

/// Mean program-side stage, queue-wait and execute times over
/// `(before, after)` pairs of `/metrics` documents, one pair per daemon.
pub fn daemon_means(out: &mut Outcome, pairs: &[(Value, Value)]) {
    for (group, hist, metric) in [
        ("stages", "compile_us", "core.compile_us"),
        ("stages", "builtin_profile_us", "core.builtin_profile_us"),
        ("stages", "map_us", "core.map_us"),
        ("stages", "metrics_us", "core.metrics_us"),
        ("stages", "assemble_us", "core.assemble_us"),
        ("latency", "queue_wait_us", "serve.queue_wait_us"),
        ("latency", "execute_us", "serve.execute_us"),
    ] {
        let delta = |field: &str| -> f64 {
            pairs
                .iter()
                .map(|(b, a)| at(a, &[group, hist, field]) - at(b, &[group, hist, field]))
                .sum()
        };
        let count = delta("count");
        if count > 0.0 {
            out.set(metric, delta("sum_us") / count);
        }
    }
}

/// Clock ticks Linux accounts in `/proc` (USER_HZ).
const TICKS_PER_S: f64 = 100.0;

/// CPU accounting, in clock ticks: this process's CPU time (all threads,
/// ended ones included) and the machine's steal and total time. Steal is
/// time the host ran something else while this guest had work: it slows
/// every timing without any change to the program, so the metadata
/// reports it beside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub process: u64,
    pub steal: u64,
    pub total: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15
        let fields: Vec<u64> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let process = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        let machine: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .unwrap_or_default()
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        Usage {
            process,
            steal: machine.get(7).copied().unwrap_or(0),
            total: machine.iter().sum(),
        }
    }

    /// Add what was used since `start`.
    pub fn add_since(&mut self, start: Usage) {
        let now = Usage::now();
        self.process += now.process.saturating_sub(start.process);
        self.steal += now.steal.saturating_sub(start.steal);
        self.total += now.total.saturating_sub(start.total);
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's commit, when it is a git checkout at all.
fn git_commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn median_or_zero(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// The tail by the ten-beyond rule; a run too short for it is an error,
/// never a different order statistic.
fn tail(xs: &[f64], what: &str) -> Result<stats::Tail, String> {
    stats::tail(xs).ok_or_else(|| {
        format!(
            "{} {what} samples leave no percentile with {} beyond it; raise --seconds",
            xs.len(),
            stats::TAIL_BEYOND
        )
    })
}

fn end_to_end(out: &Outcome, meta: &mut Map<String, Value>) -> Result<Vec<f64>, String> {
    let cold = out.cold_ms.scaled(&out.calib);
    let warm = out.warm_ms.scaled(&out.calib);
    let cold_tail = tail(&cold, "cold")?;
    let warm_tail = tail(&warm, "warm")?;
    let mut samples = Map::new();
    for (name, n) in [
        ("setup_s", out.setup_s.len()),
        ("cold", out.cold_ms.len()),
        ("warm", out.warm_ms.len()),
        ("reports", out.reports as usize),
    ] {
        samples.insert(name.to_string(), Value::from(n as u64));
    }
    meta.insert("samples".to_string(), Value::Object(samples));
    let mut pct = Map::new();
    pct.insert(
        "cold_tail_ms".to_string(),
        Value::from(cold_tail.percentile),
    );
    pct.insert(
        "warm_tail_ms".to_string(),
        Value::from(warm_tail.percentile),
    );
    meta.insert("tail_percentile".to_string(), Value::Object(pct));
    Ok(vec![
        median_or_zero(&out.setup_s.scaled(&out.calib)),
        out.peak_rss_mb.unwrap_or_else(peak_rss_mb),
        out.reports as f64 * 1e3 / out.busy_ms.scaled(&out.calib).iter().sum::<f64>().max(1e-9),
        median_or_zero(&cold),
        cold_tail.value,
        median_or_zero(&warm),
        warm_tail.value,
    ])
}

fn per_layer(out: &Outcome) -> Vec<f64> {
    let selfs = out.spans.self_times();
    let harness =
        ROOT_SPANS
            .iter()
            .filter_map(|r| selfs.get(r))
            .fold(spans::SelfTime::default(), |a, s| spans::SelfTime {
                total_ns: a.total_ns + s.total_ns,
                calls: a.calls + s.calls,
            });
    let overhead = match (
        stats::median(&out.traced_ms.scaled(&out.calib)),
        stats::median(&out.untraced_ms.scaled(&out.calib)),
    ) {
        (Some(t), Some(u)) if u > 0.0 => 100.0 * (t - u) / u,
        _ => 0.0,
    };
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            if let Some(v) = out.layers.get(name) {
                return *v;
            }
            match name {
                "harness.self_us" => harness.mean_us(),
                "trace.overhead_pct" => overhead,
                _ => name
                    .strip_suffix("_us")
                    .and_then(|stem| selfs.get(stem))
                    .map_or(0.0, spans::SelfTime::mean_us),
            }
        })
        .collect()
}

fn metadata(args: &RunArgs, out: &Outcome) -> Map<String, Value> {
    let mut meta = Map::new();
    let mut put = |k: &str, v: Value| {
        meta.insert(k.to_string(), v);
    };
    put("workload", Value::from(args.workload.as_str()));
    put("seed", Value::from(args.seed));
    put("seconds", Value::from(args.seconds));
    put("trace", Value::from(args.trace));
    put("git_commit", Value::from(git_commit().as_str()));
    put(
        "nproc",
        Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
    );
    put("rustc", Value::from(env!("PERFBENCH_RUSTC")));
    put("build_profile", Value::from(env!("PERFBENCH_PROFILE")));
    put("window_s", Value::from(out.window_s));
    put("speed_factor", Value::from(out.calib.run_factor()));
    put(
        "cpu_ms_per_report",
        Value::from(out.usage.process as f64 * 1e3 / TICKS_PER_S / out.reports.max(1) as f64),
    );
    put(
        "steal_pct",
        Value::from(100.0 * out.usage.steal as f64 / out.usage.total.max(1) as f64),
    );
    put(
        "failed_ratio",
        Value::from(out.failed as f64 / out.attempted.max(1) as f64),
    );
    put("spans", Value::from(out.spans.len() as u64));
    for (k, v) in &out.meta {
        meta.insert(k.clone(), v.clone());
    }
    meta
}

fn render(args: &RunArgs, out: &Outcome) -> Result<(Value, Value), String> {
    let mut meta = metadata(args, out);
    let (names, values): (Vec<(&str, &str)>, Vec<f64>) = if args.trace {
        (PER_LAYER.to_vec(), per_layer(out))
    } else {
        (END_TO_END.to_vec(), end_to_end(out, &mut meta)?)
    };
    let mut metrics = Map::new();
    for ((name, unit), value) in names.into_iter().zip(values) {
        let mut m = Map::new();
        m.insert(
            "value".to_string(),
            Value::from(if value.is_finite() { value } else { 0.0 }),
        );
        m.insert("unit".to_string(), Value::from(unit));
        metrics.insert(name.to_string(), Value::Object(m));
    }
    let mut result = Map::new();
    result.insert("correct".to_string(), Value::from(true));
    result.insert("attempted".to_string(), Value::from(out.attempted.max(1)));
    result.insert("failed".to_string(), Value::from(out.failed));
    result.insert("metrics".to_string(), Value::Object(metrics));
    let mut wrapped = Map::new();
    wrapped.insert("meta".to_string(), Value::Object(meta));
    Ok((Value::Object(wrapped), Value::Object(result)))
}

/// Keep the latest result and spans of each workload for inspection.
fn write_files(args: &RunArgs, out: &Outcome, meta: &Value, result: &Value) {
    let dir = out_dir();
    let mode = if args.trace { "traced" } else { "untraced" };
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{}.{mode}.json", args.workload)),
            format!("{meta}\n{result}\n"),
        )?;
        if args.trace {
            std::fs::write(
                dir.join(format!("{}.spans.json", args.workload)),
                out.spans.to_chrome_json(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write under {}: {e}", dir.display());
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let outcome = match args.workload.as_str() {
        "zoo-profile" => zoo::run(&args, origin),
        "serve-mixed" => serve_mixed::run(&args, origin),
        _ => fleet_grid::run(&args, origin),
    };
    match outcome.and_then(|out| render(&args, &out).map(|r| (out, r))) {
        Ok((out, (meta, result))) => {
            write_files(&args, &out, &meta, &result);
            println!("{meta}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<RunArgs, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_match_the_allowed_pattern_and_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        all.extend(WORKLOADS);
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "names are used once");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn parses_the_run_flags_and_rejects_the_rest() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve-mixed");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(!a.corrupt_reference);
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fleet-grid",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fleet-grid",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "fleet-grid", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn corrupted_reference_fails_the_zoo_check() {
        let models = [proof_models::ModelId::MobileNetV2x05];
        let mut a = args(&[
            "--workload",
            "zoo-profile",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .unwrap();
        let out = zoo::run_models(&a, Instant::now(), &models).expect("clean run passes");
        assert_eq!(out.failed, 0);
        assert_eq!(out.reports, 2);
        let layers = per_layer(&out);
        let map_us = PER_LAYER.iter().position(|m| m.0 == "core.map_us").unwrap();
        assert!(layers[map_us] > 0.0, "traced run records stage spans");
        a.corrupt_reference = true;
        assert!(zoo::run_models(&a, Instant::now(), &models).is_err());
    }

    #[test]
    fn corrupted_reference_fails_the_serve_check() {
        let mut a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .unwrap();
        let out = serve_mixed::run_epochs(&a, Instant::now(), 24).expect("clean run passes");
        assert_eq!((out.reports, out.failed), (24, 0));
        a.corrupt_reference = true;
        let err = serve_mixed::run_epochs(&a, Instant::now(), 24).err();
        assert!(err.is_some_and(|e| e.contains("differs")));
    }

    #[test]
    fn corrupted_reference_fails_the_fleet_check() {
        let models = [proof_models::ModelId::MobileNetV2x05];
        let mut a = args(&[
            "--workload",
            "fleet-grid",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .unwrap();
        let out = fleet_grid::run_models(&a, Instant::now(), &models).expect("clean run passes");
        assert_eq!((out.cold_ms.len(), out.failed), (1, 0));
        a.corrupt_reference = true;
        let err = fleet_grid::run_models(&a, Instant::now(), &models).err();
        assert!(err.is_some_and(|e| e.contains("differs")));
    }

    #[test]
    fn every_tail_has_ten_samples_beyond_it_at_the_benchmark_length() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).unwrap();
        let seconds = v.get("run_seconds").and_then(Value::as_u64).unwrap();
        for (workload, per_second, [cold, warm]) in [
            ("zoo-profile", zoo::PASSES_PER_SECOND, zoo::SAMPLES_PER_PASS),
            (
                "serve-mixed",
                serve_mixed::EPOCHS_PER_SECOND,
                serve_mixed::SAMPLES_PER_EPOCH,
            ),
            (
                "fleet-grid",
                fleet_grid::ITERATIONS_PER_SECOND,
                fleet_grid::SAMPLES_PER_ITERATION,
            ),
        ] {
            let a = args(&[
                "--workload",
                workload,
                "--seed",
                "1",
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
            ])
            .unwrap();
            let units = a.units(per_second);
            for samples in [cold * units, warm * units] {
                let xs: Vec<f64> = (0..samples).map(|i| i as f64).collect();
                assert!(stats::tail(&xs).is_some(), "{workload}: {samples} samples");
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let a = args(&[
            "--workload",
            "zoo-profile",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .unwrap();
        let mut out = Outcome::new(&a, Instant::now());
        out.attempted = 4;
        out.reports = 4;
        out.window_s = 1.0;
        out.busy_ms.push(1e3, 0);
        out.setup_s.push(0.5, 0);
        for i in 0..11 {
            out.cold_ms.push(f64::from(i), 0);
        }
        for _ in 0..10 {
            out.warm_ms.push(1.0, 0);
        }
        assert!(
            render(&a, &out).is_err(),
            "ten warm samples leave no tail: the run fails rather than report another statistic"
        );
        out.warm_ms.push(1.0, 0);
        let (_, result) = render(&a, &out).unwrap();
        let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["reports_per_s"]
                .get("value")
                .and_then(Value::as_f64),
            Some(4.0)
        );
        assert_eq!(
            metrics["cold_p50_ms"].get("unit").and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn digest_tells_a_corrupted_reference_apart() {
        let mut r = String::from("{\"a\":1}");
        let before = digest(&r);
        corrupt(&mut r);
        assert_ne!(digest(&r), before);
    }
}
