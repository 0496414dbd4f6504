#!/usr/bin/env bash
# Smoke-runs the kernel microbenchmarks for one short iteration and checks
# that they still emit valid google-benchmark JSON. No timing assertions —
# this guards "the kernels run and the perf-trajectory artifact stays
# machine-readable", not any particular number. Wired up as the `bench_smoke`
# ctest test (tier1 label) and as a stage of tools/check_static.sh.
#
# With a third argument — the pregelix CLI binary — it additionally
# smoke-tests the observability server: `pregelix serve` on an ephemeral
# port, then /healthz and /metrics must answer 200 (DESIGN.md §15).
#
# With a fourth and fifth argument — the bench_adaptive binary and its JSON
# output path — it also runs the adaptive-plan bench in FAST mode (small
# graphs, same deterministic cost model) and validates the artifact: every
# experiment carries a finite adaptive/best-static ratio, and SSSP and
# PageRank stay within the acceptance bar (DESIGN.md §17).
#
# With a sixth and seventh argument — the bench_ledger binary and its JSON
# output path — it also runs the time-ledger overhead bench in FAST mode and
# validates the artifact: every experiment's simulated-time delta between
# ledger-on and ledger-off stays within the 2% gate and the ledger-on arm
# reports zero unattributed nanoseconds (DESIGN.md §20).
#
# usage: bench_smoke.sh <bench_micro_dataflow binary> <output json> \
#            [pregelix-cli] [bench_adaptive binary] [adaptive json] \
#            [bench_ledger binary] [ledger json]

set -u

if [ "$#" -lt 2 ] || [ "$#" -gt 7 ]; then
  echo "usage: $0 <bench-binary> <out.json> [pregelix-cli]" \
       "[bench-adaptive] [adaptive.json] [bench-ledger] [ledger.json]" >&2
  exit 2
fi
BIN="$1"
OUT="$2"
CLI="${3:-}"
ADAPTIVE_BIN="${4:-}"
ADAPTIVE_OUT="${5:-}"
LEDGER_BIN="${6:-}"
LEDGER_OUT="${7:-}"

# A tiny min_time runs each benchmark for a single iteration batch. (The
# pinned google-benchmark predates the `--benchmark_min_time=1x` syntax.)
"$BIN" --benchmark_min_time=0.001 \
       --benchmark_out="$OUT" --benchmark_out_format=json > /dev/null || {
  echo "bench_smoke: $BIN failed" >&2
  exit 1
}

python3 - "$OUT" <<'EOF' || exit 1
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
benches = doc.get("benchmarks", [])
if not benches:
    sys.exit("bench_smoke: no benchmarks in JSON output")
for b in benches:
    if "name" not in b or "real_time" not in b:
        sys.exit(f"bench_smoke: malformed benchmark entry: {b}")
print(f"bench_smoke: OK ({len(benches)} benchmarks, valid JSON)")
EOF

# --- Optional: adaptive-plan bench smoke -------------------------------------
if [ -n "$ADAPTIVE_BIN" ] && [ -n "$ADAPTIVE_OUT" ]; then
  PREGELIX_BENCH_ADAPTIVE_FAST=1 "$ADAPTIVE_BIN" "$ADAPTIVE_OUT" \
      > /dev/null || {
    echo "bench_smoke: $ADAPTIVE_BIN failed" >&2
    exit 1
  }
  python3 - "$ADAPTIVE_OUT" <<'EOF' || exit 1
import json, math, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
experiments = doc.get("experiments", [])
if not experiments:
    sys.exit("bench_smoke: no experiments in adaptive JSON")
algos = set()
for e in experiments:
    for key in ("algorithm", "static_sim_seconds", "adaptive_sim_seconds",
                "best_static_sim_seconds", "ratio_adaptive_vs_best"):
        if key not in e:
            sys.exit(f"bench_smoke: adaptive entry missing '{key}': {e}")
    ratio = e["ratio_adaptive_vs_best"]
    if not math.isfinite(ratio) or ratio <= 0:
        sys.exit(f"bench_smoke: bad adaptive ratio {ratio} in {e}")
    # The acceptance bar bench_adaptive itself enforces for SSSP/PageRank.
    if e["algorithm"] in ("sssp", "pagerank") and ratio > 1.05:
        sys.exit(f"bench_smoke: {e['algorithm']} adaptive ratio {ratio} "
                 "exceeds the 1.05 acceptance bar")
    algos.add(e["algorithm"])
for required in ("sssp", "pagerank"):
    if required not in algos:
        sys.exit(f"bench_smoke: adaptive JSON lacks a {required} experiment")
print(f"bench_smoke: OK ({len(experiments)} adaptive experiments, "
      "ratios within the acceptance bar)")
EOF
fi

# --- Optional: time-ledger overhead bench smoke ------------------------------
if [ -n "$LEDGER_BIN" ] && [ -n "$LEDGER_OUT" ]; then
  PREGELIX_BENCH_LEDGER_FAST=1 "$LEDGER_BIN" "$LEDGER_OUT" \
      > /dev/null || {
    echo "bench_smoke: $LEDGER_BIN failed" >&2
    exit 1
  }
  python3 - "$LEDGER_OUT" <<'EOF' || exit 1
import json, math, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
experiments = doc.get("experiments", [])
if not experiments:
    sys.exit("bench_smoke: no experiments in ledger JSON")
gate = doc.get("sim_delta_gate", 0.02)
algos = set()
for e in experiments:
    for key in ("algorithm", "ledger_off_sim_seconds",
                "ledger_on_sim_seconds", "sim_delta", "wall_ratio",
                "unattributed_ns"):
        if key not in e:
            sys.exit(f"bench_smoke: ledger entry missing '{key}': {e}")
    delta = e["sim_delta"]
    if not math.isfinite(delta) or delta > gate:
        sys.exit(f"bench_smoke: ledger sim delta {delta} exceeds the "
                 f"{gate} gate in {e}")
    if e["unattributed_ns"] != 0:
        sys.exit(f"bench_smoke: ledger-on arm left "
                 f"{e['unattributed_ns']} unattributed ns in {e}")
    algos.add(e["algorithm"])
for required in ("sssp", "pagerank"):
    if required not in algos:
        sys.exit(f"bench_smoke: ledger JSON lacks a {required} experiment")
print(f"bench_smoke: OK ({len(experiments)} ledger experiments, sim deltas "
      "within the gate, books balanced)")
EOF
fi

# --- Optional: observability-server smoke -----------------------------------
if [ -z "$CLI" ]; then
  exit 0
fi
if ! command -v curl >/dev/null 2>&1; then
  echo "bench_smoke: no curl on PATH, skipping server smoke"
  exit 0
fi

SERVE_LOG="$(mktemp)"
"$CLI" serve --admin-port=0 --serve-seconds=20 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
cleanup() {
  kill "$SERVE_PID" 2>/dev/null
  wait "$SERVE_PID" 2>/dev/null
  rm -f "$SERVE_LOG"
}
trap cleanup EXIT

# The CLI prints "admin server listening on 127.0.0.1:<port>" once bound.
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*admin server listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$SERVE_LOG" | head -n 1)"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "bench_smoke: pregelix serve never reported its port" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi

for path in /healthz /metrics; do
  CODE="$(curl -s -o /dev/null -w '%{http_code}' \
          "http://127.0.0.1:$PORT$path")"
  if [ "$CODE" != "200" ]; then
    echo "bench_smoke: GET $path returned $CODE (want 200)" >&2
    exit 1
  fi
done
echo "bench_smoke: OK (server answered /healthz and /metrics on :$PORT)"
