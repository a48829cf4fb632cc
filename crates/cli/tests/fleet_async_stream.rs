//! Streaming-coordinator end-to-end at the CLI boundary: real `proof
//! serve` daemons and a real `proof fleet serve` coordinator, all separate
//! subprocesses, driven through the typed [`proof_fleet::CoordinatorClient`].
//!
//! Pins the full async contract across process boundaries:
//!
//! 1. `POST /grid/submit` answers 202 immediately and `/grid/<id>/result`
//!    is 202 while shards are still stalled in flight;
//! 2. `GET /grid/<id>/status?since=` streams partial completions under a
//!    monotone cursor (events never replay at or before the cursor);
//! 3. the finished artifact is byte-identical to the in-process
//!    [`proof_fleet::run_grid_local`] reference.
//!
//! A second test drives `proof fleet sweep --watch` as a subprocess and
//! checks the stderr progress rendering plus byte identity of `--out`
//! against `--in-process`.

use proof_core::GridSpec;
use proof_fleet::{run_grid_local, CoordinatorClient, RunResult, RunState};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A child process killed on drop.
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

/// Spawn a `proof` subcommand, wait for the line carrying `prefix`, and
/// parse the address that follows it.
fn spawn_announcing(args: &[&str], envs: &[(&str, &str)], prefix: &str) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_proof"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn proof subprocess");
    let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read child stdout") == 0 {
            panic!("subprocess exited before announcing its address");
        }
        if let Some(pos) = line.find(prefix) {
            let rest = &line[pos + prefix.len()..];
            let addr = rest.split_whitespace().next().expect("address token");
            break addr.parse().expect("announced address");
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

fn spawn_worker(stall_ms: u64) -> Daemon {
    spawn_announcing(
        &["serve", "--addr", "127.0.0.1:0", "--workers", "1"],
        &[("PROOF_FAULT", &format!("metrics:stall:{stall_ms}"))],
        "proof-serve listening on http://",
    )
}

#[test]
fn coordinator_streams_an_async_run_across_subprocess_daemons() {
    // fast node: 150 ms per shard; slow node: 900 ms per shard — the skew
    // spreads completions out so the poll loop can observe partial sweeps
    let fast = spawn_worker(150);
    let slow = spawn_worker(900);
    let nodes = format!("{},{}", fast.addr, slow.addr);
    let coordinator = spawn_announcing(
        &["fleet", "serve", "--addr", "127.0.0.1:0", "--nodes", &nodes],
        &[],
        "node(s) on http://",
    );

    let c = CoordinatorClient::new(coordinator.addr, Duration::from_secs(5));
    let spec_json =
        r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2,3,4,6,8],"seed":33}"#;
    let run_id = c.submit_grid(spec_json).expect("async submit");

    // still dispatching: the result endpoint must answer "running"
    assert_eq!(
        c.run_result(run_id).expect("early result poll"),
        RunResult::Running,
        "six stalled shards cannot have finished at submit time"
    );

    let mut cursor = 0u64;
    let mut mid_run_completed: Vec<usize> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    let merged = loop {
        assert!(Instant::now() < deadline, "streaming run never finished");
        let s = c.run_status(run_id, cursor).expect("status poll");
        let seq = s.seq;
        assert!(seq >= cursor, "seq cursor regressed: {seq} < {cursor}");
        for e in &s.events {
            let eseq = e.seq;
            assert!(
                eseq > cursor,
                "event {eseq} replayed at or before cursor {cursor}"
            );
        }
        cursor = seq;
        if s.state == RunState::Running {
            mid_run_completed.push(s.completed);
        }
        match c.run_result(run_id).expect("result poll") {
            RunResult::Done(m) => break m,
            RunResult::Running => std::thread::sleep(Duration::from_millis(25)),
            RunResult::Failed(e) => panic!("run failed: {e}"),
        }
    };

    // progress streamed: monotone completion counts with a strict partial
    assert!(
        mid_run_completed.windows(2).all(|w| w[0] <= w[1]),
        "completed regressed mid-run: {mid_run_completed:?}"
    );
    assert!(
        mid_run_completed.iter().any(|&c| c > 0 && c < 6),
        "never observed a partial sweep: {mid_run_completed:?}"
    );

    // terminal status document agrees with the artifact
    let s = c.run_status(run_id, 0).expect("final status");
    assert_eq!(s.state, RunState::Done);
    assert_eq!(s.completed, 6);

    // byte identity against the in-process reference
    let spec = GridSpec::from_value(&serde_json::from_str(spec_json).unwrap()).unwrap();
    assert_eq!(
        merged,
        run_grid_local(&spec).unwrap(),
        "async artifact diverged from the in-process reference"
    );
}

#[test]
fn fleet_sweep_watch_renders_progress_and_keeps_bytes_identical() {
    let dir = std::env::temp_dir().join(format!("proof-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let watched = dir.join("watched.json");
    let reference = dir.join("reference.json");
    let grid = [
        "--models",
        "mobilenetv2-0.5",
        "--platforms",
        "a100",
        "--batches",
        "1,2,3",
        "--seed",
        "9",
    ];

    let out = Command::new(env!("CARGO_BIN_EXE_proof"))
        .args(["fleet", "sweep", "--local", "2", "--watch", "--out"])
        .arg(&watched)
        .args(grid)
        .output()
        .expect("run proof fleet sweep --watch");
    assert!(out.status.success(), "watch sweep failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("submitted: 3 shards"),
        "no submit banner on stderr: {stderr}"
    );
    assert!(
        stderr.contains("done on node") && stderr.contains("(3/3 complete)"),
        "no per-shard progress lines on stderr: {stderr}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_proof"))
        .args(["fleet", "sweep", "--in-process", "--out"])
        .arg(&reference)
        .args(grid)
        .output()
        .expect("run proof fleet sweep --in-process");
    assert!(out.status.success(), "reference sweep failed: {out:?}");

    assert_eq!(
        std::fs::read_to_string(&watched).unwrap(),
        std::fs::read_to_string(&reference).unwrap(),
        "--watch changed the merged artifact bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
