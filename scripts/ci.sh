#!/usr/bin/env sh
# CI gate: formatting, vet, builds (including every example and
# command binary), the full test suite under the race detector, and
# the engine's headline perf metrics. Run from the repo root:
#
#   ./scripts/ci.sh
#
# Set BENCH_JSON=path to archive the ironman-bench metrics (gmw: AND
# gates/sec, bytes per AND, wire reduction; arith: triples/sec, bytes
# per triple, matmul GFLOP-equivalent; extend: the multicore Extend
# worker-scaling curve, COT/s and bytes per COT at workers=1,2,4,8) as
# a BENCH_*.json trajectory point instead of printing them.
#
# The committed trajectory point lives at the repo root; to refresh it
# after a perf-relevant change, run
#
#   BENCH_JSON=BENCH_extend.json ./scripts/ci.sh
#
# on a quiet machine and commit the regenerated file alongside the
# change (numbers are machine-dependent — compare trends, not runs
# from different hosts). TRACE_JSON=path additionally archives the
# extend phase-span trace (Chrome trace-event JSON) from the same run.
#
# CIRCUIT_JSON=path likewise archives the circuit-frontend metrics
# (embedded Bristol circuits through the level-scheduled SIMD
# evaluator, exchange/wire counters asserted against ppml.CircuitCost);
# the committed point is BENCH_circuit.json, refreshed with
#
#   CIRCUIT_JSON=BENCH_circuit.json ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== build example and command binaries =="
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/" ./examples/... ./cmd/...
ls "$bindir"

echo "== ironman-vet (protocol-invariant analysis suite) =="
# The five domain analyzers (detrange, randsrc, secretleak, wireerr,
# locknet) run through the standard vet driver; every finding is either
# fixed or carries an audited //ironman:allow(<analyzer>) <reason>.
# See the "Enforced invariants" section of DESIGN.md.
go vet -vettool="$bindir/ironman-vet" ./...

echo "== otd admin endpoint smoke test =="
# Boot the dispenser with its admin listener on loopback, then hit the
# observability surface end-to-end: liveness, Prometheus exposition
# (known metric families must be present), and the JSON session dump.
"$bindir/otd" -listen 127.0.0.1:17117 -admin 127.0.0.1:17118 &
otd_pid=$!
trap 'kill "$otd_pid" 2>/dev/null || true; rm -rf "$bindir"' EXIT
i=0
until curl -sf http://127.0.0.1:17118/healthz >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "otd admin endpoint never came up" >&2
        exit 1
    fi
    sleep 0.1
done
curl -sf http://127.0.0.1:17118/healthz | grep -q '^ok$'
metrics=$(curl -sf http://127.0.0.1:17118/metrics)
echo "$metrics" | grep -q '^ironman_otserv_sessions 0$'
echo "$metrics" | grep -q '^ironman_otserv_sessions_opened_total 0$'
echo "$metrics" | grep -q '^ironman_otserv_sessions_closed_total 0$'
curl -sf http://127.0.0.1:17118/sessions | grep -q '"sessions"'
kill "$otd_pid"
wait "$otd_pid" 2>/dev/null || true
echo "admin endpoint OK"

echo "== dispenser fleet smoke test (3 shards + router + otload) =="
# Boot a 3-shard fleet behind the consistent-hash router, drive it with
# the load generator in quick mode over real TCP, and smoke the fleet
# observability surface: the router's /metrics and /shards plus each
# shard's per-shard /sessions dump. FLEET_JSON=path archives the otload
# report (draw-latency p50/p95/p99, typed shed counts, per-shard
# balance) as the committed BENCH_fleet.json trajectory point:
#
#   FLEET_JSON=BENCH_fleet.json ./scripts/ci.sh
"$bindir/otd" -listen 127.0.0.1:17121 -shard-id 1 -params tiny -max-sessions 2048 -admin 127.0.0.1:17131 &
shard1_pid=$!
"$bindir/otd" -listen 127.0.0.1:17122 -shard-id 2 -params tiny -max-sessions 2048 -admin 127.0.0.1:17132 &
shard2_pid=$!
"$bindir/otd" -listen 127.0.0.1:17123 -shard-id 3 -params tiny -max-sessions 2048 -admin 127.0.0.1:17133 &
shard3_pid=$!
"$bindir/otd" -route -listen 127.0.0.1:17120 \
    -shards 127.0.0.1:17121,127.0.0.1:17122,127.0.0.1:17123 \
    -admin 127.0.0.1:17130 &
router_pid=$!
trap 'kill "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid" 2>/dev/null || true; rm -rf "$bindir"' EXIT
# Readiness is all three shards on the ring, not just router liveness:
# a shard whose listener lost the startup race stays dead until the
# router's next probe tick revives it.
i=0
until curl -sf http://127.0.0.1:17130/metrics 2>/dev/null | grep -q '^ironman_router_shards_live 3$'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "fleet router never saw all 3 shards live" >&2
        exit 1
    fi
    sleep 0.1
done
curl -sf http://127.0.0.1:17130/healthz | grep -q '^ok$'
fleet_json=${FLEET_JSON:-$bindir/fleet.json}
if [ -n "${FLEET_JSON:-}" ]; then
    # Archiving: the committed trajectory point is the full sizing —
    # 1024 concurrent sessions over 64 connections.
    "$bindir/otload" -addr 127.0.0.1:17120 -sessions 1024 -conns 64 \
        -draws 8 -n 128 -depth 128 -tenants 8 -out "$fleet_json" > /dev/null
    grep -q '"sessions_opened": 1024' "$fleet_json"
else
    "$bindir/otload" -addr 127.0.0.1:17120 -quick -n 64 -depth 128 -out "$fleet_json" > /dev/null
    grep -q '"sessions_opened": 96' "$fleet_json"
fi
grep -q '"balance_max_over_even"' "$fleet_json"
# Router surface: live-shard gauge and placement counter moved.
fleet_metrics=$(curl -sf http://127.0.0.1:17130/metrics)
echo "$fleet_metrics" | grep -q '^ironman_router_shards_live 3$'
echo "$fleet_metrics" | grep -q '^ironman_router_placements_total'
if echo "$fleet_metrics" | grep -q '^ironman_router_placements_total 0$'; then
    echo "router placed no sessions" >&2
    exit 1
fi
curl -sf http://127.0.0.1:17130/shards | grep -q '"state": "live"'
# Per-shard surface: every shard processed some share of the sessions.
for port in 17131 17132 17133; do
    curl -sf "http://127.0.0.1:$port/sessions" | grep -q '"sessions_opened"'
done
if [ -n "${FLEET_JSON:-}" ]; then
    echo "archived to $fleet_json"
fi
kill "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid"
wait "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid" 2>/dev/null || true
echo "fleet OK"

echo "== embedded circuit end-to-end (examples/private-aes over real TCP) =="
# Threshold AES through the Bristol circuit frontend: XOR-split key,
# four SIMD-packed blocks, ciphertexts verified against crypto/aes.
"$bindir/private-aes"

echo "== go test -race (includes the gmw + arith engines and the TCP pipeline) =="
go test -race ./...

echo "== engine metrics (ironman-bench -exp gmw,arith,extend -json) =="
# One document carries the gmw metrics (AND/s, B/AND, wire reduction),
# the arith metrics (triples/s, B/triple, matmul GFLOP-equiv), and the
# extend worker-scaling curves for BOTH extension backends on the same
# parameter set (COT/s per worker count, constant B/COT; the run panics
# if either backend's measured wire bytes drift from its Cost model).
trace_json=${TRACE_JSON:-$bindir/extend-trace.json}
if [ -n "${BENCH_JSON:-}" ]; then
    go run ./cmd/ironman-bench -quick -exp gmw,arith,extend -backend ferret,softspoken -json -trace "$trace_json" > "$BENCH_JSON"
    echo "archived to $BENCH_JSON"
else
    go run ./cmd/ironman-bench -quick -exp gmw,arith,extend -backend ferret,softspoken -json -trace "$trace_json"
fi

echo "== circuit frontend metrics (ironman-bench -exp circuit) =="
# The quick set evaluates embedded AES-128 and div64 SIMD-packed over
# the engine; the run itself panics if the measured exchange/wire
# counters drift from the exact ppml.CircuitCost model.
if [ -n "${CIRCUIT_JSON:-}" ]; then
    go run ./cmd/ironman-bench -quick -exp circuit -json > "$CIRCUIT_JSON"
    echo "archived to $CIRCUIT_JSON"
else
    go run ./cmd/ironman-bench -quick -exp circuit -json
fi

echo "== trace artifact sanity (chrome trace-event JSON) =="
# The extend bench above also emitted its phase spans; the artifact
# must be well-formed and contain the span taxonomy DESIGN.md names.
grep -q '"traceEvents"' "$trace_json"
grep -q '"extend"' "$trace_json"
grep -q '"lpn.encode"' "$trace_json"
grep -q '"spcot.expand"' "$trace_json"
grep -q '"softspoken.expand"' "$trace_json"
echo "trace artifact OK ($trace_json)"

echo "CI OK"
