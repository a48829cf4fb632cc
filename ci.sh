#!/usr/bin/env bash
# Tier-1 gate for the proof workspace. Run from the repo root.
#
#   ./ci.sh          # format check, lints, release build, full test suite
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
# the root Cargo.toml's default-members cover every workspace crate, so the
# bare build also refreshes ./target/release/proof for the smokes below
cargo build --release

echo "==> cargo test -q"
# likewise the bare test run covers the facade and every member crate
cargo test -q

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> proof profile --trace smoke test"
# capture first: grep -q on a pipe would close it early and break the CLI
trace_out="$(./target/release/proof profile --model mobilenetv2-0.5 --platform a100 --batch 1 --trace)"
grep -q "builtin_profile" <<<"$trace_out"

echo "==> proof profile --trace-out smoke test (valid + byte-reproducible)"
./target/release/proof profile --model mobilenetv2-0.5 --platform a100 --batch 1 --seed 42 \
    --trace-out /tmp/proof_ci_trace_a.json >/dev/null
./target/release/proof profile --model mobilenetv2-0.5 --platform a100 --batch 1 --seed 42 \
    --trace-out /tmp/proof_ci_trace_b.json >/dev/null
cmp /tmp/proof_ci_trace_a.json /tmp/proof_ci_trace_b.json
# events never read the trace clock: logging every event must not move a byte
PROOF_LOG=debug ./target/release/proof profile --model mobilenetv2-0.5 --platform a100 --batch 1 \
    --seed 42 --trace-out /tmp/proof_ci_trace_c.json >/dev/null 2>/dev/null
cmp /tmp/proof_ci_trace_a.json /tmp/proof_ci_trace_c.json
python3 - <<'EOF'
import json
doc = json.load(open("/tmp/proof_ci_trace_a.json"))
events = doc["traceEvents"]
assert events, "empty trace"
cats = {e["cat"] for e in events}
assert {"pipeline", "kernel", "backend_layer"} <= cats, cats
print(f"  trace OK: {len(events)} events, cats {sorted(cats)}")
EOF
rm -f /tmp/proof_ci_trace_a.json /tmp/proof_ci_trace_b.json /tmp/proof_ci_trace_c.json

echo "==> proof serve smoke test (healthz, prometheus metrics, keep-alive, job wait)"
serve_log="$(mktemp)"
./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$serve_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    grep -q "listening on" "$serve_log" && break
    sleep 0.1
done
serve_addr="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$serve_log" | head -n1)"
curl -sf "http://${serve_addr}/healthz" | grep -q '"ok"'
prom="$(curl -sf "http://${serve_addr}/metrics?format=prometheus")"
grep -q "^# TYPE proof_serve_http_requests_total counter" <<<"$prom"
grep -q "^proof_serve_queue_capacity " <<<"$prom"
grep -q "^proof_serve_stage_compile_us_count " <<<"$prom"
# opt-in keep-alive: two URLs in one curl run share one connection
connects="$(curl -sf -H 'Connection: keep-alive' -w '%{num_connects}\n' \
    -o /dev/null "http://${serve_addr}/healthz" -o /dev/null "http://${serve_addr}/models")"
[ "$connects" = "$(printf '1\n0')" ] || { echo "kept-alive connection not reused: ${connects}"; exit 1; }
# a repeated spec submitted with wait_ms settles in the submit exchange
wait_spec='{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":5}'
curl -sf -X POST "http://${serve_addr}/jobs" -d "$wait_spec" >/dev/null
settled="$(curl -s -i -X POST "http://${serve_addr}/jobs?wait_ms=2000" -d "$wait_spec")"
grep -q "^HTTP/1.1 200 " <<<"$settled"
grep -qi "^X-Proof-Job: " <<<"$settled"
kill "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"

echo "==> proof serve trace smoke (same seeded job on two fresh daemons, identical traces)"
# each daemon renders /trace/<id> on request from the spans its job kept;
# the span listing holds only this daemon's jobs, so it carries no "addr"
serve_trace() {
    out="$1"
    serve_log="$(mktemp)"
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$serve_log" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
    for _ in $(seq 50); do
        grep -q "listening on" "$serve_log" && break
        sleep 0.1
    done
    serve_addr="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$serve_log" | head -n1)"
    submitted="$(curl -sf -X POST "http://${serve_addr}/jobs" \
        -d '{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":9}')"
    job_id="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])' <<<"$submitted")"
    trace_id="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["trace"])' <<<"$submitted")"
    for _ in $(seq 20); do
        job_status="$(curl -sf "http://${serve_addr}/jobs/${job_id}?wait_ms=1000")"
        grep -q '"status":"done"' <<<"$job_status" && break
    done
    grep -q '"status":"done"' <<<"$job_status" || { echo "trace smoke job not done: ${job_status}"; exit 1; }
    curl -sf "http://${serve_addr}/trace/${trace_id}" >"$out"
    listing="$(curl -sf "http://${serve_addr}/trace/${trace_id}?format=spans")"
    grep -q '"name":"job"' <<<"$listing"
    if grep -q '"addr"' <<<"$listing"; then echo "span listing carries addr: ${listing}"; exit 1; fi
    kill "$serve_pid" 2>/dev/null || true
    trap - EXIT
    rm -f "$serve_log"
}
serve_trace /tmp/proof_ci_serve_t1.json
serve_trace /tmp/proof_ci_serve_t2.json
grep -q '"cat":"kernel"' /tmp/proof_ci_serve_t1.json
cmp /tmp/proof_ci_serve_t1.json /tmp/proof_ci_serve_t2.json
rm -f /tmp/proof_ci_serve_t1.json /tmp/proof_ci_serve_t2.json

echo "==> proof serve robustness smoke (fault injection, 429 backpressure, counters)"
# tiny queue + deterministic fault plan: jobs seeded 31337 panic at the
# compile stage, jobs seeded 41414 stall 1500 ms at the metrics stage
serve_log="$(mktemp)"
# stderr goes to the log too: the injected panic's backtrace is expected
PROOF_FAULT="compile:panic@31337;metrics:stall:1500@41414" \
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 1 --queue-cap 1 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    grep -q "listening on" "$serve_log" && break
    sleep 0.1
done
serve_addr="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$serve_log" | head -n1)"

# a panicking stage fails its job; the daemon survives
poison_id="$(curl -sf -X POST "http://${serve_addr}/jobs" \
    -d '{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":31337}' \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
for _ in $(seq 100); do
    poison_status="$(curl -sf "http://${serve_addr}/jobs/${poison_id}" \
        | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')"
    [ "$poison_status" = failed ] && break
    sleep 0.1
done
[ "$poison_status" = failed ] || { echo "expected panicked job to be failed, got ${poison_status}"; exit 1; }
curl -sf "http://${serve_addr}/jobs/${poison_id}" | grep -q "injected fault"
curl -sf "http://${serve_addr}/healthz" | grep -q '"ok"'

# stall the single worker, fill the 1-deep queue, and the next submission
# must bounce with 429 + Retry-After
curl -sf -X POST "http://${serve_addr}/jobs" \
    -d '{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":41414}' >/dev/null
sleep 0.3   # let the worker dequeue the stalling job
curl -sf -X POST "http://${serve_addr}/jobs" \
    -d '{"model":"mobilenetv2-0.5","hardware":"a100","batch":2,"seed":1}' >/dev/null
reject="$(curl -s -i -X POST "http://${serve_addr}/jobs" \
    -d '{"model":"mobilenetv2-0.5","hardware":"a100","batch":4,"seed":2}')"
grep -q "^HTTP/1.1 429 " <<<"$reject"
grep -qi "^Retry-After: " <<<"$reject"

# the hardening counters are exposed under the proof_serve_ prefix
prom="$(curl -sf "http://${serve_addr}/metrics?format=prometheus")"
grep -q "^proof_serve_retries_total " <<<"$prom"
grep -q "^proof_serve_timeouts_total " <<<"$prom"
grep -q "^proof_serve_panics_total " <<<"$prom"
grep -q "^proof_serve_rejected_total 1$" <<<"$prom"
grep -q "^proof_serve_jobs_failed_total 1$" <<<"$prom"

# a client that sends half a request line and goes silent holds one
# handler, not the daemon: /healthz answers meanwhile, and the daemon
# closes the silent connection within its 5 s request deadline
exec 3<>"/dev/tcp/${serve_addr%:*}/${serve_addr##*:}"
printf 'GET /heal' >&3
curl -sf "http://${serve_addr}/healthz" | grep -q '"ok"'
timeout 8 cat <&3 >/dev/null || { echo "silent connection still open past the deadline"; exit 1; }
exec 3<&-
kill "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"

echo "==> proof fleet smoke (two daemons, merged sweep byte-identical to single-node)"
log_a="$(mktemp)"; log_b="$(mktemp)"
./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_a" 2>&1 &
pid_a=$!
./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_b" 2>&1 &
pid_b=$!
trap 'kill "$pid_a" "$pid_b" 2>/dev/null || true' EXIT
for log in "$log_a" "$log_b"; do
    for _ in $(seq 50); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
done
addr_a="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_a" | head -n1)"
addr_b="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_b" | head -n1)"

fleet_spec=(--models mobilenetv2-0.5 --platforms a100 --batches 1,2 --seed 7)
./target/release/proof fleet sweep --nodes "${addr_a},${addr_b}" "${fleet_spec[@]}" \
    --out /tmp/proof_ci_fleet_a.json --metrics-out /tmp/proof_ci_fleet_m.json 2>/dev/null
./target/release/proof fleet sweep --in-process "${fleet_spec[@]}" \
    --out /tmp/proof_ci_fleet_b.json 2>/dev/null
cmp /tmp/proof_ci_fleet_a.json /tmp/proof_ci_fleet_b.json
# a multi-cell grid that is not a batch sweep: two models × two platforms
# merge with "sweep":null, byte-identical to the single-node reference
grid_spec=(--models mobilenetv2-0.5,resnet-50 --platforms a100,rtx-4090 --batches 1,2 --seed 7)
./target/release/proof fleet sweep --nodes "${addr_a},${addr_b}" "${grid_spec[@]}" \
    --out /tmp/proof_ci_fleet_g.json 2>/dev/null
./target/release/proof fleet sweep --in-process "${grid_spec[@]}" \
    --out /tmp/proof_ci_fleet_gr.json 2>/dev/null
cmp /tmp/proof_ci_fleet_g.json /tmp/proof_ci_fleet_gr.json
python3 - <<'EOF'
import json
doc = json.load(open("/tmp/proof_ci_fleet_g.json"))
assert len(doc["cells"]) == 8 and doc["sweep"] is None, (len(doc["cells"]), doc["sweep"])
print(f"  multi-cell grid OK: {len(doc['cells'])} cells, sweep null")
EOF
rm -f /tmp/proof_ci_fleet_g.json /tmp/proof_ci_fleet_gr.json
kill "$pid_a" "$pid_b" 2>/dev/null || true
trap - EXIT
rm -f "$log_a" "$log_b"

echo "==> proof fleet bad-grid smoke (an unknown model is refused at submit, no node is charged)"
bad_err="$(mktemp)"
if ./target/release/proof fleet sweep --local 2 --models nope --platforms a100 \
    >/dev/null 2>"$bad_err"; then
    echo "a grid with an unknown model was accepted" >&2
    exit 1
fi
grep -q "unknown model" "$bad_err"
if grep -q "all nodes dead" "$bad_err"; then
    echo "a bad grid reached the nodes:" >&2
    cat "$bad_err" >&2
    exit 1
fi
rm -f "$bad_err"

echo "==> proof fleet malformed-flag smoke (a non-numeric --batches is a usage error, exit 2)"
bad_err="$(mktemp)"
set +e
./target/release/proof fleet sweep --in-process --models resnet-50 --platforms a100 \
    --batches a >/dev/null 2>"$bad_err"
code=$?
set -e
if [ "$code" != 2 ] || grep -q "panicked" "$bad_err"; then
    echo "malformed --batches exited ${code}, expected 2:" >&2
    cat "$bad_err" >&2
    exit 1
fi
grep -q "^--batches expects a number, got 'a'" "$bad_err"
rm -f "$bad_err"

echo "==> proof fleet fault smoke (one panicking daemon, sweep reschedules and still matches)"
# daemon A panics at the compile stage for every job of this sweep's seed;
# the coordinator must shift A's shards to the clean daemon B and the
# merged artifact must not change by a byte
log_a="$(mktemp)"; log_b="$(mktemp)"
PROOF_FAULT="compile:panic@7" \
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_a" 2>&1 &
pid_a=$!
./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_b" 2>&1 &
pid_b=$!
trap 'kill "$pid_a" "$pid_b" 2>/dev/null || true' EXIT
for log in "$log_a" "$log_b"; do
    for _ in $(seq 50); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
done
addr_a="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_a" | head -n1)"
addr_b="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_b" | head -n1)"

./target/release/proof fleet sweep --nodes "${addr_a},${addr_b}" "${fleet_spec[@]}" \
    --out /tmp/proof_ci_fleet_f.json --metrics-out /tmp/proof_ci_fleet_fm.json 2>/dev/null
cmp /tmp/proof_ci_fleet_f.json /tmp/proof_ci_fleet_b.json
python3 - <<'EOF'
import json
m = json.load(open("/tmp/proof_ci_fleet_fm.json"))
resched = m["counters"]["fleet_rescheduled"]
assert resched > 0, f"expected rescheduling off the panicking daemon, counters: {m['counters']}"
assert m["counters"]["fleet_completed"] == 2, m["counters"]
print(f"  fleet fault OK: {resched} reschedule(s), counters {m['counters']}")
EOF
kill "$pid_a" "$pid_b" 2>/dev/null || true
trap - EXIT
rm -f "$log_a" "$log_b" /tmp/proof_ci_fleet_a.json /tmp/proof_ci_fleet_b.json \
    /tmp/proof_ci_fleet_f.json /tmp/proof_ci_fleet_m.json /tmp/proof_ci_fleet_fm.json

echo "==> proof fleet warm-peer cache smoke (fresh node served from a warm peer's cache)"
# warm a two-daemon fleet (publish-on-build leaves both nodes holding both
# cells), kill one node, bring up a cold replacement, and re-run the sweep
# through the coordinator: the fresh node must serve its shard from the
# surviving warm peer (remote-tier hits > 0) and the merged artifact must
# stay byte-identical to the single-node reference
log_a="$(mktemp)"; log_b="$(mktemp)"; log_c="$(mktemp)"; log_f="$(mktemp)"
./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_a" 2>&1 &
pid_a=$!
./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_b" 2>&1 &
pid_b=$!
trap 'kill "$pid_a" "$pid_b" 2>/dev/null || true' EXIT
for log in "$log_a" "$log_b"; do
    for _ in $(seq 50); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
done
addr_a="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_a" | head -n1)"
addr_b="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_b" | head -n1)"

./target/release/proof fleet sweep --nodes "${addr_a},${addr_b}" "${fleet_spec[@]}" \
    --out /tmp/proof_ci_cache_warm.json 2>/dev/null
./target/release/proof fleet sweep --in-process "${fleet_spec[@]}" \
    --out /tmp/proof_ci_cache_ref.json 2>/dev/null
cmp /tmp/proof_ci_cache_warm.json /tmp/proof_ci_cache_ref.json

kill "$pid_a" 2>/dev/null || true
./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_c" 2>&1 &
pid_c=$!
trap 'kill "$pid_a" "$pid_b" "$pid_c" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    grep -q "listening on" "$log_c" && break
    sleep 0.1
done
addr_c="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_c" | head -n1)"

./target/release/proof fleet serve --addr 127.0.0.1:0 --nodes "${addr_c},${addr_b}" >"$log_f" 2>&1 &
pid_f=$!
trap 'kill "$pid_a" "$pid_b" "$pid_c" "$pid_f" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    grep -q "coordinating" "$log_f" && break
    sleep 0.1
done
coord_addr="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_f" | head -n1)"

curl -sf -X POST "http://${coord_addr}/grid" \
    -d '{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":7}' \
    -o /tmp/proof_ci_cache_fresh.json
cmp /tmp/proof_ci_cache_fresh.json /tmp/proof_ci_cache_ref.json
curl -sf "http://${coord_addr}/metrics?format=prometheus" -o /tmp/proof_ci_cache_prom.txt
python3 - <<'EOF'
hits = None
for line in open("/tmp/proof_ci_cache_prom.txt"):
    if line.startswith("proof_fleet_fleet_cache_remote_hits "):
        hits = int(float(line.split()[1]))
assert hits is not None, "fleet_cache_remote_hits missing from prometheus export"
assert hits > 0, "fresh node never hit the warm peer's cache"
print(f"  warm-peer cache OK: {hits} remote-tier hit(s)")
EOF
# the /nodes body of the real binary: exactly the pinned keys per node
# (ewma_us only once a node has observed a shard), lowercase states
curl -sf "http://${coord_addr}/nodes" -o /tmp/proof_ci_cache_nodes.json
python3 - <<'EOF'
import json
nodes = json.load(open("/tmp/proof_ci_cache_nodes.json"))
pinned = {"addr", "completed", "dispatched", "failures", "in_flight", "state", "workers"}
assert len(nodes) == 2, nodes
for n in nodes:
    assert set(n) - {"ewma_us"} == pinned, f"unexpected /nodes keys: {sorted(n)}"
    assert n["state"] in ("healthy", "suspect", "dead"), n
print(f"  /nodes OK: {len(nodes)} node(s), {sum('ewma_us' in n for n in nodes)} with ewma_us")
EOF
kill "$pid_b" "$pid_c" "$pid_f" 2>/dev/null || true
trap - EXIT
rm -f "$log_a" "$log_b" "$log_c" "$log_f" /tmp/proof_ci_cache_warm.json \
    /tmp/proof_ci_cache_ref.json /tmp/proof_ci_cache_fresh.json /tmp/proof_ci_cache_prom.txt \
    /tmp/proof_ci_cache_nodes.json

echo "==> proof fleet trace smoke (merged cross-node trace, byte-reproducible)"
# each run gets its own pair of fresh 2-worker daemons, so jobs of the one
# fleet trace run concurrently on a node and placement may differ from run
# to run; every job keeps its own capture clock and the merge lays job
# subtrees out by canonical shard, so the merged fleet trace must
# reproduce byte-for-byte across three runs of the same spec/seed
trace_spec=(--models mobilenetv2-0.5,resnet-34,vit-tiny --platforms a100 --batches 1,2 --seed 7)
run_fleet_trace() {
    out="$1"
    log_a="$(mktemp)"; log_b="$(mktemp)"
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 2 >"$log_a" 2>&1 &
    pid_a=$!
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 2 >"$log_b" 2>&1 &
    pid_b=$!
    trap 'kill "$pid_a" "$pid_b" 2>/dev/null || true' EXIT
    for log in "$log_a" "$log_b"; do
        for _ in $(seq 50); do
            grep -q "listening on" "$log" && break
            sleep 0.1
        done
    done
    addr_a="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_a" | head -n1)"
    addr_b="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_b" | head -n1)"
    ./target/release/proof fleet sweep --nodes "${addr_a},${addr_b}" "${trace_spec[@]}" \
        --out /dev/null --trace-out "$out" 2>/dev/null
    kill "$pid_a" "$pid_b" 2>/dev/null || true
    trap - EXIT
    rm -f "$log_a" "$log_b"
}
for run in 1 2 3; do
    run_fleet_trace "/tmp/proof_ci_fleet_t${run}.json"
done
python3 - <<'EOF'
import json
doc = json.load(open("/tmp/proof_ci_fleet_t1.json"))
events = doc["traceEvents"]
names = {e["name"] for e in events}
assert "fleet_run" in names and "fleet_shard" in names, sorted(names)
pids = {e["pid"] for e in events}
assert pids == {1, 2}, f"expected coordinator + job tracks, got pids {sorted(pids)}"
assert not any("node" in e["args"] for e in events), "node placement leaked into the trace"
run = next(e for e in events if e["name"] == "fleet_run")
shards = {e["args"]["span"]: e for e in events if e["name"] == "fleet_shard"}
assert len(shards) == 6 and all(s["args"]["parent"] == run["args"]["span"] for s in shards.values())
jobs = [e for e in events if e["name"] == "job"]
assert len(jobs) == 6 and all(j["pid"] == 2 for j in jobs), jobs
for j in jobs:
    anchor = shards[j["args"]["parent"]]
    assert anchor["args"]["shard"] == j["args"]["shard"] and anchor["ts"] == j["ts"], j
print(f"  fleet trace OK: {len(events)} spans, {len(jobs)} jobs laid out by shard")
EOF
cmp /tmp/proof_ci_fleet_t1.json /tmp/proof_ci_fleet_t2.json
cmp /tmp/proof_ci_fleet_t1.json /tmp/proof_ci_fleet_t3.json
cmp /tmp/proof_ci_fleet_t2.json /tmp/proof_ci_fleet_t3.json
rm -f /tmp/proof_ci_fleet_t1.json /tmp/proof_ci_fleet_t2.json /tmp/proof_ci_fleet_t3.json

echo "==> proof fleet heterogeneous smoke (weighted scheduler favours the fast node)"
# fast daemon: 2 workers, no faults; slow daemon: 1 worker, every shard
# stalls 600 ms at the metrics stage. The weighted scheduler's EWMA and
# the advertised worker count must route most of the sweep to the fast
# daemon — and the merged artifact must still match the in-process
# reference byte-for-byte (scheduling never touches artifact bytes)
log_a="$(mktemp)"; log_b="$(mktemp)"
./target/release/proof serve --addr 127.0.0.1:0 --workers 2 >"$log_a" 2>&1 &
pid_a=$!
PROOF_FAULT="metrics:stall:600" \
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_b" 2>&1 &
pid_b=$!
trap 'kill "$pid_a" "$pid_b" 2>/dev/null || true' EXIT
for log in "$log_a" "$log_b"; do
    for _ in $(seq 50); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
done
addr_a="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_a" | head -n1)"
addr_b="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_b" | head -n1)"

hetero_spec=(--models mobilenetv2-0.5 --platforms a100 --batches 1,2,3,4,5,6,7,8,9,10 --seed 23)
./target/release/proof fleet sweep --nodes "${addr_a},${addr_b}" "${hetero_spec[@]}" \
    --out /tmp/proof_ci_hetero.json --metrics-out /tmp/proof_ci_hetero_m.json 2>/dev/null
./target/release/proof fleet sweep --in-process "${hetero_spec[@]}" \
    --out /tmp/proof_ci_hetero_ref.json 2>/dev/null
cmp /tmp/proof_ci_hetero.json /tmp/proof_ci_hetero_ref.json
python3 - <<'EOF'
import json
m = json.load(open("/tmp/proof_ci_hetero_m.json"))
fast, slow = m["nodes"][0], m["nodes"][1]
assert fast["completed"] + slow["completed"] == 10, m["nodes"]
assert fast["completed"] > slow["completed"], \
    f"weighted dispatch did not favour the fast node: {m['nodes']}"
picks = m["counters"]["fleet_weighted_picks"]
assert picks >= 10, f"expected every dispatch through the weighted picker, counters: {m['counters']}"
print(f"  hetero fleet OK: fast {fast['completed']}, slow {slow['completed']}, {picks} weighted pick(s)")
EOF
kill "$pid_a" "$pid_b" 2>/dev/null || true
trap - EXIT
rm -f "$log_a" "$log_b" /tmp/proof_ci_hetero.json /tmp/proof_ci_hetero_m.json \
    /tmp/proof_ci_hetero_ref.json

echo "==> proof fleet streaming smoke (async submit, live status, byte-identical result)"
# two single-worker daemons, every shard stalled 400 ms at the metrics
# stage: the 6-shard sweep takes over a second, long enough to observe the
# run mid-flight — result answering 202 while status already shows partial
# completions — before comparing the finished artifact against --in-process
log_a="$(mktemp)"; log_b="$(mktemp)"; log_f="$(mktemp)"
PROOF_FAULT="metrics:stall:400" \
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_a" 2>&1 &
pid_a=$!
PROOF_FAULT="metrics:stall:400" \
    ./target/release/proof serve --addr 127.0.0.1:0 --workers 1 >"$log_b" 2>&1 &
pid_b=$!
trap 'kill "$pid_a" "$pid_b" 2>/dev/null || true' EXIT
for log in "$log_a" "$log_b"; do
    for _ in $(seq 50); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
done
addr_a="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_a" | head -n1)"
addr_b="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_b" | head -n1)"

./target/release/proof fleet serve --addr 127.0.0.1:0 --nodes "${addr_a},${addr_b}" >"$log_f" 2>&1 &
pid_f=$!
trap 'kill "$pid_a" "$pid_b" "$pid_f" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    grep -q "coordinating" "$log_f" && break
    sleep 0.1
done
coord_addr="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log_f" | head -n1)"

stream_spec='{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2,3,4,6,8],"seed":97}'
run_id="$(curl -sf -X POST "http://${coord_addr}/grid/submit" -d "$stream_spec" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["run_id"])')"

# the run streams: at some poll the result endpoint must still answer 202
# while the status endpoint already reports completed > 0
saw_partial=0
code=000
for _ in $(seq 200); do
    code="$(curl -s -o /dev/null -w '%{http_code}' "http://${coord_addr}/grid/${run_id}/result")"
    [ "$code" = 200 ] && break
    completed="$(curl -sf "http://${coord_addr}/grid/${run_id}/status" \
        | python3 -c 'import json,sys; print(json.load(sys.stdin)["completed"])')"
    if [ "$code" = 202 ] && [ "$completed" -gt 0 ]; then
        saw_partial=1
        # the whole read surface answers mid-run, alive included, and the
        # node scrapes (healthz cache tiers, federated metrics) reach both
        # nodes while the run thread holds the registry
        curl -sf "http://${coord_addr}/healthz" | python3 -c \
            'import json,sys; h=json.load(sys.stdin); assert "alive" in h and h["running"] is True and h["cache"]["nodes_reporting"] == 2, h'
        curl -sf "http://${coord_addr}/nodes" >/dev/null
        prom="$(curl -sf "http://${coord_addr}/metrics?format=prometheus")"
        for node in "$addr_a" "$addr_b"; do
            grep -q "node=\"${node}\"" <<<"$prom" \
                || { echo "mid-run federated scrape lacks node ${node}"; exit 1; }
        done
        break
    fi
    sleep 0.1
done
[ "$saw_partial" = 1 ] || { echo "never observed a partial streaming run (last result status ${code})"; exit 1; }

# drain the run and compare bytes against the in-process reference
for _ in $(seq 600); do
    code="$(curl -s -o /tmp/proof_ci_stream.json -w '%{http_code}' "http://${coord_addr}/grid/${run_id}/result")"
    [ "$code" = 200 ] && break
    sleep 0.1
done
[ "$code" = 200 ] || { echo "streaming run never finished (last result status ${code})"; exit 1; }
./target/release/proof fleet sweep --in-process \
    --models mobilenetv2-0.5 --platforms a100 --batches 1,2,3,4,6,8 --seed 97 \
    --out /tmp/proof_ci_stream_ref.json 2>/dev/null
cmp /tmp/proof_ci_stream.json /tmp/proof_ci_stream_ref.json
curl -sf "http://${coord_addr}/healthz" | python3 -c \
    'import json,sys; h=json.load(sys.stdin); assert h["runs_total"] >= 1 and h["running"] is False, h; print("  streaming OK: %d run(s), alive %d" % (h["runs_total"], h["alive"]))'
kill "$pid_a" "$pid_b" "$pid_f" 2>/dev/null || true
trap - EXIT
rm -f "$log_a" "$log_b" "$log_f" /tmp/proof_ci_stream.json /tmp/proof_ci_stream_ref.json

echo "CI OK"
