//! `proof` — the PRoof command-line interface (paper Figure 1's CLI entry).
//!
//! ```text
//! proof list
//! proof inspect --model resnet-50 [--batch 1] [--dot out.dot] [--json out.json]
//! proof profile --model resnet-50 --platform a100 [--backend trt]
//!               [--batch 128] [--precision fp16] [--mode predicted|measured]
//!               [--top 15] [--svg chart.svg] [--csv chart.csv] [--json report.json] [--html report.html]
//!               [--trace-out trace.json]   (merged Chrome trace: stage spans + kernel timeline)
//! proof profile --model-file model.json ...   (PRoof JSON model format)
//! proof peak --platform orin-nx [--precision fp16]
//! proof memory --model resnet-50 --batch 64 [--precision fp16] [--budget-gb 16]
//! proof headroom --model resnet-50 --platform a100 [--batch N] [--top N]
//! proof serve [--addr 127.0.0.1:7878] [--workers 2] [--cache-budget-mb 64]
//!             [--cache-dir DIR] [--queue-cap 256]
//!             [--job-timeout MS] [--job-retries N]
//!             [--peer-cache IP:PORT,...] [--peer-timeout-ms 2000]
//! proof fleet sweep (--nodes IP:PORT,... | --local N) --models m1,m2 --platforms p1,p2
//!                   [--backends b,...] [--precisions d,...] [--batches 1,2,4] [--mode M]
//!                   [--seed N] [--out FILE]
//!                   [--metrics-out FILE] [--trace-out FILE]
//!                   [--in-process] [--watch] [--peer-cache on|off]
//! proof fleet serve [--addr 127.0.0.1:7979] (--nodes IP:PORT,... | --local N)
//! ```

use proof_core::report::{chart_to_csv, profile_summary};
use proof_core::{
    measure_achieved_peak, profile_model, render_roofline_svg, MetricMode, SvgOptions,
};
use proof_hw::{Platform, PlatformId};
use proof_ir::{DType, Graph};
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "usage:\n  proof list\n  proof inspect --model <slug> [--batch N] [--dot FILE] [--json FILE]\n  proof profile (--model <slug> | --model-file FILE) --platform <id>\n                [--backend trt|ort|ov] [--batch N] [--precision fp32|fp16|int8]\n                [--mode predicted|measured] [--seed N] [--top N] [--trace] [--timeout-ms N]\n                [--svg FILE] [--csv FILE] [--json FILE] [--html FILE] [--trace-out FILE]\n  proof peak --platform <id> [--precision fp16]\n  proof memory --model <slug> [--batch N] [--precision P] [--budget-gb G]\n  proof headroom --model <slug> --platform <id> [--batch N] [--top N]\n  proof serve [--addr HOST:PORT] [--workers N] [--cache-budget-mb MB] [--cache-dir DIR] [--queue-cap N] [--stage-cache-cap N]\n              [--job-timeout MS] [--job-retries N] [--peer-cache IP:PORT,...] [--peer-timeout-ms MS]\n  proof fleet sweep (--nodes IP:PORT,... | --local N) --models m1,m2 --platforms p1,p2\n                    [--backends b,...] [--precisions d,...] [--batches 1,2,4] [--mode predicted|measured]\n                    [--seed N] [--shard-timeout-ms MS] [--out FILE] [--metrics-out FILE] [--trace-out FILE] [--in-process] [--watch] [--peer-cache on|off]\n  proof fleet serve [--addr HOST:PORT] (--nodes IP:PORT,... | --local N) [--workers N] [--peer-cache on|off]\n\nenv: PROOF_LOG=error|warn|info|debug gates structured stderr log events\n     PROOF_FAULT=\"site:panic|stall:<ms>|fail:<n>[@seed];...\" injects deterministic pipeline faults\nmodels: {}\nplatforms: {}",
        ModelId::ALL.map(|m| m.slug()).join(", "),
        PlatformId::ALL.map(|p| format!("{p:?}").to_lowercase()).join(", ")
    );
    std::process::exit(2)
}

/// Flags that take no value; their presence maps to `"true"`.
const BOOLEAN_FLAGS: &[&str] = &["trace", "in-process", "watch"];

/// Parse `--key value` pairs (and valueless boolean flags) after the
/// subcommand.
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument: {}", args[i]);
            usage();
        };
        if BOOLEAN_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("--{key} needs a value");
            usage();
        };
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    flags
}

/// Parse one numeric value of `--key`. A malformed one prints
/// `--key expects a number, got '<v>'` and the usage text, then exits 2.
fn parse_num<T: FromStr>(key: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("--{key} expects a number, got '{v}'");
        usage()
    })
}

/// The numeric flag `--key`, if given (see [`parse_num`]).
fn num_flag<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flags.get(key).map(|v| parse_num(key, v))
}

fn parse_precision(s: &str) -> DType {
    match s {
        "fp32" => DType::F32,
        "fp16" => DType::F16,
        "int8" => DType::I8,
        other => {
            eprintln!("unknown precision {other} (fp32|fp16|int8)");
            usage();
        }
    }
}

fn load_model(flags: &HashMap<String, String>, batch: u64) -> Graph {
    if let Some(path) = flags.get("model-file") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        return Graph::from_json(&text).unwrap_or_else(|e| {
            eprintln!("invalid model file {path}: {e}");
            std::process::exit(1);
        });
    }
    let slug = flags
        .get("model")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let model = ModelId::parse(slug).unwrap_or_else(|| {
        eprintln!("unknown model {slug}");
        usage();
    });
    model.build(batch)
}

fn load_platform(flags: &HashMap<String, String>) -> Platform {
    let id = flags
        .get("platform")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    match PlatformId::parse(id) {
        Some(p) => p.spec(),
        None => {
            eprintln!("unknown platform {id}");
            usage();
        }
    }
}

fn cmd_list() {
    println!("models:");
    for m in ModelId::ALL {
        let t = m.table3();
        println!(
            "  {:<22} #{:<2} {:<6} {:>6.1} M params, {:>9.3} GFLOP (paper Table 3)",
            m.slug(),
            t.index,
            t.kind,
            t.paper_params_m,
            t.paper_gflop
        );
    }
    println!("\nplatforms:");
    for p in PlatformId::ALL {
        let spec = p.spec();
        println!(
            "  {:<14} {:<32} peak {:>8.1} TFLOP/s ({}), {:>7.1} GB/s",
            format!("{p:?}").to_lowercase(),
            spec.name,
            spec.peak_flops(spec.preferred_dtype(), true) / 1e12,
            spec.preferred_dtype(),
            spec.theoretical_bw() / 1e9,
        );
    }
}

fn cmd_inspect(flags: HashMap<String, String>) {
    let batch: u64 = num_flag(&flags, "batch").unwrap_or(1);
    let g = load_model(&flags, batch);
    let analysis = proof_core::AnalyzeRepr::new(&g, DType::F32);
    println!(
        "{}: {} nodes, {:.3} M params, {:.3} GFLOP, {:.2} MB traffic (unfused, fp32, bs={batch})",
        g.name,
        g.node_count(),
        g.param_count() as f64 / 1e6,
        analysis.gflops(),
        analysis.total().memory_bytes() as f64 / 1e6
    );
    let mut hist: Vec<_> = g.op_histogram().into_iter().collect();
    hist.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));
    for (op, count) in hist {
        println!("  {count:>5} × {op}");
    }
    if let Some(path) = flags.get("dot") {
        std::fs::write(path, proof_ir::dot::to_dot(&g)).expect("write dot");
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("json") {
        std::fs::write(path, g.to_json()).expect("write json");
        println!("wrote {path}");
    }
}

/// Run the profiling pipeline, honoring `--trace-out FILE`: with it, the
/// run executes under a captured root span and the merged Chrome trace
/// (pipeline-stage spans + kernel timeline) is written to FILE. The
/// capture's logical clock makes the file byte-reproducible for a given
/// seeded invocation.
fn run_profile(
    flags: &HashMap<String, String>,
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
    mode: MetricMode,
) -> Result<proof_core::ProfileReport, proof_core::ProofError> {
    // --timeout-ms bounds the whole run; expiry cancels at the next stage
    // boundary and reports which stage the deadline preempted.
    let ctx = match num_flag(flags, "timeout-ms") {
        Some(ms) => {
            proof_core::RunCtx::with_timeout(cfg.seed, std::time::Duration::from_millis(ms))
        }
        None => proof_core::RunCtx::unbounded(cfg.seed),
    };
    let Some(path) = flags.get("trace-out") else {
        return proof_core::run_pipeline_ctx(g, platform, flavor, cfg, mode, &ctx);
    };
    let capture = proof_obs::Capture::start();
    let mut root = proof_obs::span_in(proof_obs::new_trace_id(), "profile");
    root.field("model", g.name.clone());
    root.field("batch", g.batch_size());
    let outcome = proof_core::prepare_stages_ctx(g, platform, flavor, cfg, &ctx)
        .and_then(|prep| proof_core::run_metric_stages_ctx(&prep, mode, &ctx).map(|r| (r, prep)));
    root.finish();
    let spans = capture.finish().spans;
    let (report, prep) = outcome?;
    let trace_json = proof_core::merged_chrome_trace(&spans, Some(&prep.compiled.compiled));
    std::fs::write(path, trace_json).expect("write trace");
    println!("wrote {path}");
    Ok(report)
}

fn cmd_profile(flags: HashMap<String, String>) -> ExitCode {
    let platform = load_platform(&flags);
    let batch: u64 = num_flag(&flags, "batch").unwrap_or_else(|| platform.preferred_batch());
    let g = load_model(&flags, batch);
    let flavor = flags
        .get("backend")
        .map(|s| BackendFlavor::parse(s).unwrap_or_else(|| usage()))
        .unwrap_or_else(|| BackendFlavor::for_platform(&platform));
    let precision = flags
        .get("precision")
        .map(|s| parse_precision(s))
        .unwrap_or_else(|| platform.preferred_dtype());
    let mode = match flags.get("mode").map(String::as_str) {
        None | Some("predicted") => MetricMode::Predicted,
        Some("measured") => MetricMode::Measured,
        Some(other) => {
            eprintln!("unknown mode {other}");
            usage();
        }
    };
    let mut cfg = SessionConfig::new(precision);
    if let Some(seed) = num_flag(&flags, "seed") {
        cfg = cfg.with_seed(seed);
    }
    let report = match run_profile(&flags, &g, &platform, flavor, &cfg, mode) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("profiling failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if proof_obs::event_enabled(proof_obs::Level::Info) {
        proof_obs::event(
            proof_obs::Level::Info,
            "proof_cli",
            format!(
                "profiled {} on {} (bs={batch}, {precision}): {:.3} ms",
                report.model, report.platform, report.total_latency_ms
            ),
            Vec::new(),
        );
    }
    let top: usize = num_flag(&flags, "top").unwrap_or(15);
    println!("{}", profile_summary(&report, top));
    if flags.contains_key("trace") {
        println!("\n{}", report.trace.summary());
    }
    let chart = report.layerwise_chart(&format!(
        "{} on {} ({}, bs={batch})",
        report.model, report.platform, report.precision
    ));
    if let Some(path) = flags.get("svg") {
        std::fs::write(path, render_roofline_svg(&chart, &SvgOptions::default()))
            .expect("write svg");
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("csv") {
        std::fs::write(path, chart_to_csv(&chart)).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("json") {
        std::fs::write(path, report.to_json()).expect("write json");
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("html") {
        std::fs::write(path, proof_core::html_report(&[&report])).expect("write html");
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_memory(flags: HashMap<String, String>) {
    let batch: u64 = num_flag(&flags, "batch").unwrap_or(1);
    let precision = flags
        .get("precision")
        .map(|s| parse_precision(s))
        .unwrap_or(DType::F16);
    let g = load_model(&flags, batch);
    let plan = proof_core::plan_memory(&g, precision);
    println!(
        "{} (bs={batch}, {precision}): weights {:.1} MB + peak activations {:.1} MB = {:.1} MB peak working set (at node {})",
        g.name,
        plan.weight_bytes as f64 / 1e6,
        plan.peak_activation_bytes as f64 / 1e6,
        plan.peak_bytes() as f64 / 1e6,
        plan.peak_node
    );
    if let Some(gb) = flags.get("budget-gb") {
        let budget = (parse_num::<f64>("budget-gb", gb) * 1e9) as u64;
        let slug = flags.get("model").map(String::as_str).unwrap_or_default();
        if let Some(model) = ModelId::parse(slug) {
            match proof_core::max_batch_within(budget, precision, 65536, |b| model.build(b)) {
                Some(best) => println!("largest batch within {gb} GB: {best}"),
                None => println!("does not fit {gb} GB at any batch size"),
            }
        }
    }
}

fn cmd_headroom(flags: HashMap<String, String>) {
    let platform = load_platform(&flags);
    let batch: u64 = num_flag(&flags, "batch").unwrap_or_else(|| platform.preferred_batch());
    let g = load_model(&flags, batch);
    let cfg = SessionConfig::new(platform.preferred_dtype());
    let report = profile_model(
        &g,
        &platform,
        BackendFlavor::for_platform(&platform),
        &cfg,
        MetricMode::Predicted,
    )
    .expect("profile");
    let hr = proof_core::analyze_headroom(&report);
    println!(
        "{} on {}: {:.3} ms actual vs {:.3} ms roofline lower bound -> {:.2}x potential speedup\n",
        g.name,
        platform.name,
        hr.actual_ms,
        hr.ideal_ms,
        hr.potential_speedup()
    );
    let top: usize = num_flag(&flags, "top").unwrap_or(10);
    println!("layers losing the most time vs their roofline bound:");
    for l in hr.worst_layers(top) {
        println!(
            "  {:>9.1} us lost  {:>6.1}x from bound  [{}] {} ({})",
            l.actual_us - l.ideal_us,
            l.slowdown,
            if l.memory_bound { "mem" } else { "cmp" },
            l.name,
            l.category.label()
        );
    }
}

fn cmd_peak(flags: HashMap<String, String>) {
    let platform = load_platform(&flags);
    let precision = flags
        .get("precision")
        .map(|s| parse_precision(s))
        .unwrap_or_else(|| platform.preferred_dtype());
    let flavor = BackendFlavor::for_platform(&platform);
    let peak = measure_achieved_peak(&platform, flavor, precision).expect("peak");
    println!(
        "{} @ GPU {} MHz / mem {} MHz ({precision}):",
        platform.name, platform.clocks.gpu_mhz, platform.clocks.mem_mhz
    );
    println!(
        "  achieved peak: {:.3} TFLOP/s (theoretical {:.3})",
        peak.gflops / 1e3,
        platform.peak_flops(precision, true) / 1e12
    );
    println!(
        "  achieved bandwidth: {:.1} GB/s (theoretical {:.1})",
        peak.bw_gbs,
        platform.theoretical_bw() / 1e9
    );
}

fn cmd_serve(flags: HashMap<String, String>) -> ExitCode {
    let mut config = proof_serve::ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.clone();
    }
    if let Some(w) = num_flag(&flags, "workers") {
        config.workers = w;
    }
    if let Some(mb) = num_flag::<usize>(&flags, "cache-budget-mb") {
        config.cache_budget_bytes = mb << 20;
    }
    if let Some(dir) = flags.get("cache-dir") {
        config.cache_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(cap) = num_flag(&flags, "queue-cap") {
        config.queue_capacity = cap;
    }
    if let Some(cap) = num_flag(&flags, "stage-cache-cap") {
        config.stage_cache_capacity = cap;
    }
    if let Some(ms) = num_flag(&flags, "job-timeout") {
        config.job_timeout_ms = Some(ms);
    }
    if let Some(n) = num_flag(&flags, "job-retries") {
        config.max_retries = n;
    }
    for addr in csv(&flags, "peer-cache") {
        match addr.parse() {
            Ok(a) => config.peer_cache.push(a),
            Err(_) => {
                eprintln!("--peer-cache entries must be IP:PORT, got {addr}");
                usage();
            }
        }
    }
    if let Some(ms) = num_flag(&flags, "peer-timeout-ms") {
        config.peer_timeout_ms = ms;
    }
    let workers = config.workers;
    let server = match proof_serve::Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "proof-serve listening on http://{} ({workers} workers)\nendpoints: POST /jobs, GET /jobs/<id>, GET /jobs/<id>/report, POST /sweep, GET /sweep/<id>, GET /cache/<key>, PUT /cache/<key>, POST /cache/peers, GET /trace/<trace-id>[?format=spans], GET /metrics[?format=prometheus], GET /debug/events, GET /models",
        server.addr()
    );
    // serve until the process is terminated
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Split a comma-separated flag value, dropping empty pieces.
fn csv(flags: &HashMap<String, String>, key: &str) -> Vec<String> {
    flags
        .get(key)
        .map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// Build the grid spec shared by both fleet verbs from `--models`,
/// `--platforms`, and the optional axes.
fn fleet_grid_spec(flags: &HashMap<String, String>) -> proof_core::GridSpec {
    let batches = flags
        .get("batches")
        .map(|v| {
            v.split(',')
                .map(|b| parse_num("batches", b.trim()))
                .collect()
        })
        .unwrap_or_else(|| vec![1]);
    let spec = proof_core::GridSpec {
        models: csv(flags, "models"),
        backends: csv(flags, "backends"),
        platforms: csv(flags, "platforms"),
        dtypes: csv(flags, "precisions"),
        batches,
        mode: flags.get("mode").cloned(),
        seed: num_flag(flags, "seed").unwrap_or(proof_core::DEFAULT_GRID_SEED),
    };
    if let Err(e) = spec.validate() {
        eprintln!("invalid grid: {e}");
        usage();
    }
    spec
}

/// Build the fleet topology from `--nodes addr,...` and/or `--local N`.
fn fleet_config(flags: &HashMap<String, String>) -> proof_fleet::FleetConfig {
    let mut config = proof_fleet::FleetConfig::default();
    for addr in csv(flags, "nodes") {
        match addr.parse() {
            Ok(a) => config.nodes.push(a),
            Err(_) => {
                eprintln!("--nodes entries must be IP:PORT, got {addr}");
                usage();
            }
        }
    }
    if let Some(n) = num_flag(flags, "local") {
        config.local_daemons = n;
    }
    if let Some(w) = num_flag(flags, "workers") {
        config.local_workers = w;
    }
    if let Some(ms) = num_flag(flags, "shard-timeout-ms") {
        config.dispatcher.shard_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = flags.get("peer-cache") {
        config.advertise_peer_cache = match v.as_str() {
            "on" => true,
            "off" => false,
            other => {
                eprintln!("--peer-cache must be on|off, got {other}");
                usage();
            }
        };
    }
    if config.nodes.is_empty() && config.local_daemons == 0 {
        eprintln!("fleet needs --nodes and/or --local");
        usage();
    }
    config
}

/// `--watch`: submit the grid as a streaming run and render per-shard
/// progress to stderr as the dispatcher publishes it, then return the
/// finished result (same bytes as the blocking path).
fn watch_fleet_run(
    fleet: &proof_fleet::Fleet,
    spec: &proof_core::GridSpec,
) -> Result<proof_fleet::FleetRun, proof_fleet::FleetError> {
    let handle = fleet.submit_grid(spec)?;
    let (counts, _) = handle.progress().since(0);
    eprintln!(
        "fleet run {} submitted: {} shards",
        handle.id(),
        counts.total
    );
    let mut cursor = 0u64;
    loop {
        let finished = handle.is_finished();
        let (counts, events) = handle.progress().since(cursor);
        cursor = counts.seq;
        for e in events {
            match e.kind {
                proof_fleet::ProgressKind::Completed => eprintln!(
                    "  shard {} done on node {} ({}/{} complete)",
                    e.shard, e.node, counts.completed, counts.total
                ),
                proof_fleet::ProgressKind::Rescheduled => eprintln!(
                    "  shard {} rescheduled off node {} (attempt {})",
                    e.shard, e.node, e.attempts
                ),
                proof_fleet::ProgressKind::Dispatched => {}
            }
        }
        // read finished *before* draining the sink: events published
        // between the drain and the check are picked up next pass
        if finished {
            return handle.wait();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

fn cmd_fleet_sweep(flags: HashMap<String, String>) -> ExitCode {
    let spec = fleet_grid_spec(&flags);
    // --in-process: the single-node library reference (no HTTP, no
    // scheduling) — the bytes a fleet run must reproduce
    let merged = if flags.contains_key("in-process") {
        if flags.contains_key("trace-out") {
            // the merged fleet trace is a cross-node document; the
            // in-process reference has no nodes to merge
            eprintln!("--trace-out needs a fleet run; drop --in-process");
            return ExitCode::FAILURE;
        }
        match proof_fleet::run_grid_local(&spec) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("grid failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let fleet = match proof_fleet::Fleet::start(fleet_config(&flags)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot start fleet: {e}");
                return ExitCode::FAILURE;
            }
        };
        let run = if flags.contains_key("watch") {
            watch_fleet_run(&fleet, &spec)
        } else {
            fleet.run_grid(&spec)
        };
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fleet run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "fleet: {} cells over {} nodes ({} dispatched, {} rescheduled, {} probes)",
            run.outcome.results.len(),
            run.nodes.len(),
            run.outcome.dispatched,
            run.outcome.rescheduled,
            run.outcome.probes
        );
        if let Some(path) = flags.get("metrics-out") {
            std::fs::write(path, fleet.metrics_json()).expect("write metrics");
            eprintln!("wrote {path}");
        }
        // the merged cross-node Chrome trace: coordinator track + job
        // subtrees laid out by shard, Perfetto-loadable, byte-reproducible
        // for a fixed spec/seed
        if let Some(path) = flags.get("trace-out") {
            std::fs::write(path, &run.trace_json).expect("write trace");
            eprintln!("wrote {path}");
        }
        fleet.shutdown();
        run.merged
    };
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &merged).expect("write out");
            eprintln!("wrote {path}");
        }
        None => println!("{merged}"),
    }
    ExitCode::SUCCESS
}

fn cmd_fleet_serve(flags: HashMap<String, String>) -> ExitCode {
    let fleet = match proof_fleet::Fleet::start(fleet_config(&flags)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot start fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nodes = fleet.node_addrs();
    let mut config = proof_fleet::FleetServerConfig::default();
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.clone();
    }
    let server = match proof_fleet::FleetServer::start(fleet, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start coordinator: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "proof-fleet coordinating {} node(s) on http://{}\nnodes: {}\nendpoints: POST /grid[?mode=async], POST /grid/submit, GET /grid/<id>/status[?since=SEQ], GET /grid/<id>/result, GET /grid/trace, GET /nodes, GET /metrics[?format=prometheus], GET /debug/events, GET /healthz",
        nodes.len(),
        server.addr(),
        nodes
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    // serve until the process is terminated
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_fleet(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("sweep") => cmd_fleet_sweep(parse_flags(&args[1..])),
        Some("serve") => cmd_fleet_serve(parse_flags(&args[1..])),
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("inspect") => cmd_inspect(parse_flags(&args[1..])),
        Some("profile") => return cmd_profile(parse_flags(&args[1..])),
        Some("peak") => cmd_peak(parse_flags(&args[1..])),
        Some("memory") => cmd_memory(parse_flags(&args[1..])),
        Some("headroom") => cmd_headroom(parse_flags(&args[1..])),
        Some("serve") => return cmd_serve(parse_flags(&args[1..])),
        Some("fleet") => return cmd_fleet(&args[1..]),
        _ => usage(),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_collects_pairs() {
        let f = parse_flags(&args(&["--model", "resnet-50", "--batch", "8"]));
        assert_eq!(f["model"], "resnet-50");
        assert_eq!(f["batch"], "8");
    }

    #[test]
    fn parse_flags_handles_valueless_trace() {
        // --trace consumes no value: the flag after it must still be parsed
        let f = parse_flags(&args(&["--trace", "--model", "resnet-50"]));
        assert_eq!(f["trace"], "true");
        assert_eq!(f["model"], "resnet-50");
        // trailing position works too
        let f = parse_flags(&args(&["--model", "resnet-50", "--trace"]));
        assert_eq!(f["trace"], "true");
    }

    #[test]
    fn precision_parser_accepts_the_three_precisions() {
        assert_eq!(parse_precision("fp32"), DType::F32);
        assert_eq!(parse_precision("fp16"), DType::F16);
        assert_eq!(parse_precision("int8"), DType::I8);
    }

    #[test]
    fn model_loading_by_slug_and_by_file() {
        let f = parse_flags(&args(&["--model", "mobilenetv2-0.5", "--batch", "2"]));
        let g = load_model(&f, 2);
        assert_eq!(g.batch_size(), 2);
        // through a JSON model file
        let path = std::env::temp_dir().join("proof_cli_test_model.json");
        std::fs::write(&path, g.to_json()).unwrap();
        let f2 = parse_flags(&args(&["--model-file", path.to_str().unwrap()]));
        let g2 = load_model(&f2, 2);
        assert_eq!(g, g2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn platform_loading_accepts_aliases() {
        let f = parse_flags(&args(&["--platform", "orin-nx"]));
        assert_eq!(load_platform(&f).id, PlatformId::OrinNx);
    }
}
