//! Heterogeneous-fleet end-to-end test: two real `proof serve` daemons with
//! different capacity (`--workers`) and different injected per-shard stalls
//! (`PROOF_FAULT=metrics:stall:<ms>`), driven through the weighted
//! scheduler.
//!
//! Asserts the two properties the weighted scheduler exists for:
//!
//! 1. **throughput routing** — the fast node completes strictly more
//!    shards than the slow node, because the EWMA learns the slow node's
//!    latency and the capacity term favours the wider daemon;
//! 2. **byte determinism** — the merged artifact is byte-identical to the
//!    in-process [`proof_fleet::run_grid_local`] reference; scheduling
//!    never touches artifact bytes.
//!
//! The daemons are separate subprocesses because the fault plan is
//! process-global: each child reads its own `PROOF_FAULT` once at startup.

use proof_core::GridSpec;
use proof_fleet::{run_grid_local, Fleet, FleetConfig, NodeSnapshot};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// A `proof serve` child process, killed on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `proof serve --workers <workers>` with the given fault plan and
/// wait for its address announcement.
fn spawn_daemon(workers: u32, fault: &str) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_proof"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
        ])
        .env("PROOF_FAULT", fault)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn proof serve");
    let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read child stdout") == 0 {
            panic!("proof serve exited before announcing its address");
        }
        if let Some(rest) = line.trim().strip_prefix("proof-serve listening on http://") {
            let addr = rest.split_whitespace().next().expect("address token");
            break addr.parse().expect("daemon address");
        }
    };
    // keep draining so the child never blocks on a full stdout pipe
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Daemon { child, addr }
}

/// 24 one-cell shards; the seed keys every daemon-side cache, so the run
/// is measured against cold daemons.
fn spec(seed: u64) -> GridSpec {
    let batches: Vec<u64> = (1..=24).collect();
    GridSpec::from_value(&serde_json::json!({
        "model": "mobilenetv2-0.5",
        "platform": "a100",
        "batches": batches,
        "seed": seed,
    }))
    .unwrap()
}

/// Run one grid against the given nodes; return the merged artifact and
/// the per-node snapshots (same order as `nodes`).
fn run(nodes: Vec<SocketAddr>, seed: u64) -> (String, Vec<NodeSnapshot>) {
    let s = spec(seed);
    let fleet = Fleet::start(FleetConfig::remote(nodes)).expect("fleet start");
    let run = fleet.run_grid(&s).expect("fleet run");
    let snaps = fleet.nodes();
    fleet.shutdown();
    (std::sync::Arc::unwrap_or_clone(run).merged, snaps)
}

#[test]
fn weighted_scheduler_favours_the_fast_node_and_keeps_bytes_identical() {
    // fast: 2 workers, 200 ms per shard; slow: 1 worker, 1.5 s per shard
    let fast = spawn_daemon(2, "metrics:stall:200");
    let slow = spawn_daemon(1, "metrics:stall:1500");
    let (w_merged, w_nodes) = run(vec![fast.addr, slow.addr], 2002);

    // byte determinism: the run reproduces the in-process reference
    assert_eq!(
        w_merged,
        run_grid_local(&spec(2002)).unwrap(),
        "weighted merged artifact diverged from the in-process reference"
    );

    // node order in the snapshots follows the configured node order
    let (w_fast, w_slow) = (w_nodes[0].completed, w_nodes[1].completed);
    assert_eq!(
        w_fast + w_slow,
        24,
        "weighted lost or double-counted shards"
    );

    // throughput routing: the weighted scheduler must send the fast node
    // strictly more work than the stalled node gets
    assert!(
        w_fast > w_slow,
        "weighted sent the stalled node as much work as the fast node \
         (fast {w_fast}, slow {w_slow})"
    );
}
