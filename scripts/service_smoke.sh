#!/usr/bin/env bash
# Service smoke test: boot `stochsynthd` on an ephemeral port, drive it
# through simulate/exact/synthesize/check round trips with `stochsynth-cli`,
# and assert that a repeated request is a cache hit with a byte-identical
# body.
# Then exercise the telemetry surface (JSON logs, text metrics exposition,
# trace-span trees), boot a three-worker fabric, kill a worker mid-pool,
# and assert the sharded report is byte-identical to the single-node bytes
# with the failure visible in the federated cache metrics, that shard
# dispatches reuse keep-alive connections, and that workers stop promptly
# while coordinators still hold such connections to them.
#
# Run from the workspace root (CI runs it after `cargo build --release`):
#
#   ./scripts/service_smoke.sh [path-to-target-dir]
set -euo pipefail

TARGET_DIR="${1:-target/release}"
DAEMON="$TARGET_DIR/stochsynthd"
CLI="$TARGET_DIR/stochsynth-cli"
WORK="$(mktemp -d)"
PIDS=()

# Tears down every daemon this script booted, whatever state the run died
# in. `${PIDS[@]+...}` keeps `set -u` happy when no daemon was booted yet
# (bash < 4.4 treats expanding an empty array as an unset-variable error).
# Graceful TERM first; anything still alive after the grace window gets
# KILLed, and the final `wait` reaps the zombies so no orphaned daemon can
# outlive a failed CI job and wedge the runner.
cleanup() {
    local alive=()
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        if kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            alive+=("$pid")
        fi
    done
    if [ "${#alive[@]}" -gt 0 ]; then
        for _ in $(seq 1 50); do
            local still=0
            for pid in "${alive[@]}"; do
                kill -0 "$pid" 2>/dev/null && still=1
            done
            [ "$still" -eq 0 ] && break
            sleep 0.1
        done
        for pid in "${alive[@]}"; do
            kill -9 "$pid" 2>/dev/null || true
        done
        wait ${alive[@]+"${alive[@]}"} 2>/dev/null || true
    fi
    # CI sets SMOKE_LOG_DIR to preserve the daemons' logs and the compared
    # response bodies as a failure artifact before the workdir vanishes.
    if [ -n "${SMOKE_LOG_DIR:-}" ]; then
        mkdir -p "$SMOKE_LOG_DIR"
        cp "$WORK"/*.log "$WORK"/*.body "$WORK"/*.meta "$SMOKE_LOG_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Boots a daemon with the given log/addr basename; extra flags pass through.
# Sets BOOTED_ADDR and appends the PID to PIDS.
boot_daemon() {
    local name="$1"; shift
    "$DAEMON" --addr 127.0.0.1:0 --workers 2 --port-file "$WORK/$name.addr" "$@" \
        >"$WORK/$name.log" 2>&1 &
    local pid=$!
    PIDS+=("$pid")
    for _ in $(seq 1 100); do
        [ -s "$WORK/$name.addr" ] && break
        kill -0 "$pid" 2>/dev/null || { cat "$WORK/$name.log"; exit 1; }
        sleep 0.1
    done
    BOOTED_ADDR="$(cat "$WORK/$name.addr")"
    BOOTED_PID="$pid"
}

# Waits up to 3 s for daemon $1 to exit on its own after its shutdown, then
# reaps it (a non-zero exit status fails the run). A daemon whose connection
# threads still wait on idle keep-alive connections sits out its full 5 s
# join deadline and fails here. An exited daemon stays a zombie (state Z)
# until it is reaped.
await_exit() {
    local state
    for _ in $(seq 1 30); do
        state="$(awk '{print $3}' "/proc/$1/stat" 2>/dev/null || true)"
        if [ -z "$state" ] || [ "$state" = Z ]; then
            wait "$1"
            return
        fi
        sleep 0.1
    done
    echo "daemon $1 still running 3 s after its shutdown"
    exit 1
}

[ -x "$DAEMON" ] || { echo "missing $DAEMON (build with: cargo build --release)"; exit 2; }
[ -x "$CLI" ] || { echo "missing $CLI"; exit 2; }

# --- boot on an ephemeral port -------------------------------------------
boot_daemon single
SERVER="$BOOTED_ADDR"
DAEMON_PID="$BOOTED_PID"
echo "stochsynthd up on $SERVER"
"$CLI" health --server "$SERVER" >/dev/null

# --- simulate: fresh, then byte-identical cache hit ----------------------
cat >"$WORK/simulate.json" <<'EOF'
{
  "network": "x -> h @ 3\nx -> t @ 1",
  "initial": {"x": 1},
  "trials": 2000,
  "seed": 7,
  "classifier": [
    {"species": "h", "at_least": 1, "outcome": "heads"},
    {"species": "t", "at_least": 1, "outcome": "tails"}
  ]
}
EOF
"$CLI" submit --server "$SERVER" --endpoint simulate --file "$WORK/simulate.json" --wait \
    >"$WORK/fresh.body" 2>"$WORK/fresh.meta"
grep -q '^cache: miss$' "$WORK/fresh.meta" || { echo "first simulate was not a miss"; cat "$WORK/fresh.meta"; exit 1; }

"$CLI" submit --server "$SERVER" --endpoint simulate --file "$WORK/simulate.json" --wait \
    >"$WORK/cached.body" 2>"$WORK/cached.meta"
grep -q '^cache: hit$' "$WORK/cached.meta" || { echo "repeated simulate was not a cache hit"; cat "$WORK/cached.meta"; exit 1; }
cmp "$WORK/fresh.body" "$WORK/cached.body" || { echo "cached body differs from fresh body"; exit 1; }
echo "simulate: cache hit is byte-identical"

# --- exact: the coin's ground truth --------------------------------------
cat >"$WORK/exact.json" <<'EOF'
{
  "network": "x -> h @ 3\nx -> t @ 1",
  "initial": {"x": 1},
  "bounds": {"policy": "strict", "default_cap": 1},
  "analysis": {"type": "first_passage", "outcomes": [
    {"name": "heads", "species": "h", "at_least": 1},
    {"name": "tails", "species": "t", "at_least": 1}
  ]}
}
EOF
"$CLI" submit --server "$SERVER" --endpoint exact --file "$WORK/exact.json" --wait >"$WORK/exact.body"
grep -q '"heads":0.75' "$WORK/exact.body" || { echo "exact endpoint wrong:"; cat "$WORK/exact.body"; exit 1; }
echo "exact: P(heads) = 0.75"

# --- exact: counts at the top of the u64 range ---------------------------
# u64::MAX is 2^64 as a JSON number, which no u64 holds: a typed 400 naming
# the field. The largest count a JSON number carries, 2^64 - 2048, asks for
# a dense marginal no allocation can hold: the unit panics, its job fails
# with a JSON body, and the daemon serves on (every later stage).
cat >"$WORK/u64max.json" <<'EOF'
{
  "network": "0 -> a @ 1",
  "initial": {"a": 18446744073709551615},
  "bounds": {"policy": "truncating", "default_cap": 18446744073709551615},
  "analysis": {"type": "transient", "t": 1, "species": ["a"]}
}
EOF
if "$CLI" submit --server "$SERVER" --endpoint exact --file "$WORK/u64max.json" --wait \
    >"$WORK/u64max.body" 2>"$WORK/u64max.meta"; then
    echo "a count of u64::MAX was accepted:"; cat "$WORK/u64max.body"; exit 1
fi
grep -q '^HTTP 400$' "$WORK/u64max.meta" || { echo "u64::MAX: expected a 400"; cat "$WORK/u64max.meta" "$WORK/u64max.body"; exit 1; }
grep -q '"error":"bad request: initial.a: ' "$WORK/u64max.body" || { echo "u64::MAX: the 400 does not name the field:"; cat "$WORK/u64max.body"; exit 1; }
sed 's/18446744073709551615/18446744073709549568/g' "$WORK/u64max.json" >"$WORK/u64near.json"
if "$CLI" submit --server "$SERVER" --endpoint exact --file "$WORK/u64near.json" --wait \
    >"$WORK/u64near.body" 2>"$WORK/u64near.meta"; then
    echo "a marginal up to 2^64 - 2048 was answered:"; cat "$WORK/u64near.body"; exit 1
fi
grep -q '^HTTP 500$' "$WORK/u64near.meta" || { echo "2^64 - 2048: expected a failed job"; cat "$WORK/u64near.meta" "$WORK/u64near.body"; exit 1; }
grep -q '"state":"failed".*panicked' "$WORK/u64near.body" || { echo "2^64 - 2048: the failed job does not say it panicked:"; cat "$WORK/u64near.body"; exit 1; }
echo "exact: u64::MAX is a typed 400, a panicking solve fails its job alone"

# --- synthesize: scaled lambda response ----------------------------------
cat >"$WORK/synthesize.json" <<'EOF'
{
  "input": "moi",
  "response": {"constant": 2, "log2": 1, "linear": 1},
  "outcomes": ["lysis", "lysogeny"],
  "outputs": ["cro2", "ci2"],
  "thresholds": [1, 1],
  "food": [1, 1],
  "input_total": 8,
  "input_range": [1, 4],
  "evaluate": [2]
}
EOF
"$CLI" submit --server "$SERVER" --endpoint synthesize --file "$WORK/synthesize.json" --wait >"$WORK/synth.body"
grep -q '"lysis":0.62499' "$WORK/synth.body" || { echo "synthesize endpoint wrong:"; cat "$WORK/synth.body"; exit 1; }
echo "synthesize: P(lysis | moi=2) matches the exact golden"

# --- metrics must show exactly one cache hit -----------------------------
"$CLI" metrics --server "$SERVER" >"$WORK/metrics.body"
grep -q '"hits":1' "$WORK/metrics.body" || { echo "expected exactly one cache hit:"; cat "$WORK/metrics.body"; exit 1; }
echo "metrics: exactly one cache hit recorded"

# --- check: model checker verdicts and a parameter sweep -----------------
cat >"$WORK/check.json" <<'EOF'
{
  "network": "x -> h @ 3\nx -> t @ 1",
  "initial": {"x": 1},
  "bounds": {"policy": "strict", "default_cap": 1},
  "property": {"type": "hitting_time", "target": {"species": "h", "at_least": 1}}
}
EOF
"$CLI" submit --server "$SERVER" --endpoint check --file "$WORK/check.json" --wait >"$WORK/check.body"
grep -q '"probability":0.75' "$WORK/check.body" || { echo "check endpoint wrong:"; cat "$WORK/check.body"; exit 1; }
grep -q '"conditional_mean":0.25' "$WORK/check.body" || { echo "check hitting time wrong:"; cat "$WORK/check.body"; exit 1; }
echo "check: E[T | hit h] = 0.25 at P = 0.75"

printf 'x -> h @ {k}\nx -> t @ 1\n' >"$WORK/race.crn"
check_sweep() {
    "$CLI" check --server "$1" --network-file "$WORK/race.crn" --initial x=1 \
        --cap 1 --policy strict --type reach_before \
        --target 'h>=1' --competitor 't>=1' --sweep k=1,3,9
}
check_sweep "$SERVER" >"$WORK/sweep.body" 2>"$WORK/sweep.meta"
grep -q '^cache: miss$' "$WORK/sweep.meta" || { echo "first sweep was not a miss"; cat "$WORK/sweep.meta"; exit 1; }
grep -q '"kind":"check_sweep"' "$WORK/sweep.body" || { echo "sweep document wrong:"; cat "$WORK/sweep.body"; exit 1; }
grep -q '"value":0.75' "$WORK/sweep.body" || { echo "sweep landscape wrong:"; cat "$WORK/sweep.body"; exit 1; }
check_sweep "$SERVER" >"$WORK/sweep2.body" 2>"$WORK/sweep2.meta"
grep -q '^cache: hit$' "$WORK/sweep2.meta" || { echo "repeated sweep was not a cache hit"; cat "$WORK/sweep2.meta"; exit 1; }
cmp "$WORK/sweep.body" "$WORK/sweep2.body" || { echo "cached sweep differs from fresh sweep"; exit 1; }
echo "check: swept P(h before t) over k, replay byte-identical"

# --- telemetry: JSON logs, text metrics exposition, trace spans ----------
# A daemon with the full telemetry surface on: structured JSON logs at
# debug, a 1 ms slow-request threshold, and the Prometheus-style text
# exposition.
boot_daemon telemetry --log-json --log-level debug --slow-request-ms 1
TELEM="$BOOTED_ADDR"
"$CLI" submit --server "$TELEM" --endpoint simulate --file "$WORK/simulate.json" --wait \
    >"$WORK/telemetry_run.body"
cmp "$WORK/fresh.body" "$WORK/telemetry_run.body" || { echo "telemetry daemon changed result bytes"; exit 1; }

"$CLI" metrics --server "$TELEM" --format text >"$WORK/telemetry_metrics.body"
grep -q '^http_requests_total{endpoint="simulate"} 1$' "$WORK/telemetry_metrics.body" \
    || { echo "text exposition missing request counter:"; cat "$WORK/telemetry_metrics.body"; exit 1; }
grep -q '^service_uptime_ms ' "$WORK/telemetry_metrics.body" \
    || { echo "text exposition missing uptime:"; cat "$WORK/telemetry_metrics.body"; exit 1; }

# The first submission is job 1; its trace tree must be queryable.
"$CLI" trace --server "$TELEM" --job 1 >"$WORK/trace.body"
for span in job parse classify schedule-wait shard merge; do
    grep -q "\"name\":\"$span\"" "$WORK/trace.body" \
        || { echo "trace missing $span span:"; cat "$WORK/trace.body"; exit 1; }
done

# The coin job above takes about the threshold itself, so whether it trips
# it depends on the box. This job runs a million direct-method events (x
# decays one molecule at a time, 4,000 molecules a trial, 250 trials):
# 52 to 60 ms on a 2-vCPU Xeon VM, so at least ten times the threshold.
cat >"$WORK/slow.json" <<'EOF'
{"network": "x -> y @ 1", "initial": {"x": 4000}, "trials": 250, "seed": 7}
EOF
"$CLI" submit --server "$TELEM" --endpoint simulate --file "$WORK/slow.json" --wait \
    >"$WORK/slow.body"
grep -q '"trials":250' "$WORK/slow.body" || { echo "slow job failed:"; cat "$WORK/slow.body"; exit 1; }

# Every log line (past the boot banner on stdout) is a JSON record with
# the standard envelope, and the 1 ms threshold fired a slow_request.
if grep -v '^stochsynthd' "$WORK/telemetry.log" | grep -qv '^{"ts_us":'; then
    echo "non-JSON telemetry log line:"; cat "$WORK/telemetry.log"; exit 1
fi
grep -q '"event":"request"' "$WORK/telemetry.log" \
    || { echo "no request events logged:"; cat "$WORK/telemetry.log"; exit 1; }
grep -q '"event":"slow_request"' "$WORK/telemetry.log" \
    || { echo "slow_request threshold never fired:"; cat "$WORK/telemetry.log"; exit 1; }
"$CLI" shutdown --server "$TELEM" --deadline-ms 10000 >/dev/null
echo "telemetry: JSON logs, text metrics and trace tree all check out"

# --- fabric: three workers, byte-identical sharded reports ---------------
boot_daemon worker1; W1="$BOOTED_ADDR"; W1_PID="$BOOTED_PID"
boot_daemon worker2; W2="$BOOTED_ADDR"; W2_PID="$BOOTED_PID"
boot_daemon worker3; W3="$BOOTED_ADDR"; W3_PID="$BOOTED_PID"
boot_daemon coordinator \
    --fabric-worker "$W1" --fabric-worker "$W2" --fabric-worker "$W3" \
    --shard-trials 250 --shard-backoff-ms 10
COORD="$BOOTED_ADDR"
echo "fabric up: coordinator $COORD over workers $W1 $W2 $W3"

# The sharded run must be byte-identical to the single-node bytes.
"$CLI" submit --server "$COORD" --endpoint simulate --file "$WORK/simulate.json" --wait \
    >"$WORK/sharded.body"
cmp "$WORK/fresh.body" "$WORK/sharded.body" || { echo "sharded body differs from single-node body"; exit 1; }
"$CLI" fabric --server "$COORD" >"$WORK/fabric.body"
grep -q '"shards_completed":8' "$WORK/fabric.body" || { echo "expected 8 shards:"; cat "$WORK/fabric.body"; exit 1; }
echo "fabric: 3-worker sharded report byte-identical to single-node"

# The coordinator's first job must carry the distributed trace: shard spans
# with their dispatch attempts alongside the merge.
"$CLI" trace --server "$COORD" --job 1 >"$WORK/trace_fabric.body"
for span in job shard dispatch merge; do
    grep -q "\"name\":\"$span\"" "$WORK/trace_fabric.body" \
        || { echo "fabric trace missing $span span:"; cat "$WORK/trace_fabric.body"; exit 1; }
done
echo "fabric: trace tree covers shard dispatch and merge"

# Kill a worker; the next job's shards must rebalance onto the survivors
# and still reproduce the single-node bytes exactly.
kill -9 "$W1_PID"
sed 's/"seed": 7/"seed": 8/' "$WORK/simulate.json" >"$WORK/simulate8.json"
"$CLI" submit --server "$SERVER" --endpoint simulate --file "$WORK/simulate8.json" --wait \
    >"$WORK/fresh8.body"
"$CLI" submit --server "$COORD" --endpoint simulate --file "$WORK/simulate8.json" --wait \
    >"$WORK/sharded8.body"
cmp "$WORK/fresh8.body" "$WORK/sharded8.body" || { echo "post-kill sharded body differs"; exit 1; }
"$CLI" fabric --server "$COORD" >"$WORK/fabric.body"
grep -q '"worker_failures":0' "$WORK/fabric.body" && { echo "expected worker failures:"; cat "$WORK/fabric.body"; exit 1; }
echo "fabric: killed worker rebalanced, bytes unchanged, failures recorded"

# The two jobs dispatched 16 shards, and with 2 scheduler threads the
# coordinator holds at most 2 connections to each worker: dispatches must
# have reused pooled keep-alive connections.
REUSED="$(grep -o '"connections_reused":[0-9]*' "$WORK/fabric.body" | cut -d: -f2)"
[ "${REUSED:-0}" -gt 0 ] || { echo "expected reused connections:"; cat "$WORK/fabric.body"; exit 1; }
echo "fabric: $REUSED shard dispatches reused a pooled connection"

# Cache federation: a fresh coordinator re-shards the first job and is
# answered partly from the workers' shard caches. The first job's 8 shards
# went round-robin over three healthy workers from a fresh cursor, so W2
# ran 3 of them. Replayed while W2 is the new coordinator's only worker,
# every shard lands on W2, and at least those 3 are cache hits whichever
# shards they were.
boot_daemon coordinator2 --fabric-worker "$W2" --shard-trials 250 --shard-backoff-ms 10
COORD2="$BOOTED_ADDR"
"$CLI" submit --server "$COORD2" --endpoint simulate --file "$WORK/simulate.json" --wait \
    >"$WORK/federated.body"
cmp "$WORK/fresh.body" "$WORK/federated.body" || { echo "federated replay differs"; exit 1; }
"$CLI" fabric --server "$COORD2" >"$WORK/fabric2.body"
grep -q '"remote_cache_hits":0' "$WORK/fabric2.body" && { echo "expected worker-tier cache hits:"; cat "$WORK/fabric2.body"; exit 1; }
echo "fabric: federated worker caches answered the re-sharded replay"

# A worker registered at runtime joins the pool.
"$CLI" fabric --server "$COORD2" --register "$W3" >"$WORK/fabric3.body"
grep -q '"registered":true,"workers":2' "$WORK/fabric3.body" \
    || { echo "runtime registration did not take effect:"; cat "$WORK/fabric3.body"; exit 1; }

# A fabric-dispatched check sweep (one grid point per worker dispatch) must
# reproduce the single-node sweep document byte for byte.
check_sweep "$COORD2" >"$WORK/sweep_fabric.body"
cmp "$WORK/sweep.body" "$WORK/sweep_fabric.body" || { echo "fabric sweep differs from single-node sweep"; exit 1; }
echo "fabric: check sweep byte-identical to single-node document"

# Both coordinators still hold pooled connections to the workers, which
# must nevertheless stop at once.
"$CLI" shutdown --server "$W3" --deadline-ms 10000 >/dev/null
await_exit "$W3_PID"
"$CLI" shutdown --server "$W2" --deadline-ms 10000 >/dev/null
await_exit "$W2_PID"
echo "fabric: workers stopped promptly under pooled coordinator connections"
for peer in "$COORD2" "$COORD"; do
    "$CLI" shutdown --server "$peer" --deadline-ms 10000 >/dev/null
done

# --- graceful shutdown ---------------------------------------------------
"$CLI" shutdown --server "$SERVER" --deadline-ms 10000 >/dev/null
wait "$DAEMON_PID"
echo "service smoke test passed"
