#!/usr/bin/env bash
# Serving-plane throughput harness: builds the release tree and runs the
# open-loop load generator against the sharded serving plane at two rates --
#
#   sustainable   an offered rate the plane absorbs without shedding, so the
#                 p50/p99 columns measure protocol latency, not queueing;
#   overload      an offered rate well past the service rate, so admission
#                 control sheds (bounded queues, retry-after) and the p99
#                 column measures honest open-loop queueing delay.
#
# One run of either rate is noise on a shared host (the sustainable p50 of
# one unchanged binary read 0.23-0.39 ms over four runs), so both rates run
# ROUNDS times and every figure is reported as its median with the min-max
# range. Given a second build dir (another commit's tree with
# throughput_serving built), its binary runs the same rounds, alternating
# which binary goes first, and lands under "before" -- the two never sample
# different phases of the host's contention.
#
# BENCH_serving.json at the repo root combines the rounds plus the
# acceptance gate: >= 2 shards, ops/sec and p50/p99 reported, and rejection
# counts present (nonzero in every overload run).
#
# Usage: scripts/bench_serving.sh [build-dir] [before-build-dir]
#        (default build dir: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BEFORE_DIR="${2:-}"
ROUNDS=7
OUT_JSON="BENCH_serving.json"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target throughput_serving

serve_round() {  # <build dir> <side> <round>
  local bin="$1/bench/throughput_serving"
  "$bin" --shards 2 --rate 400 --duration-ms 3000 \
    --json "$BUILD_DIR/serving_sustainable_$2_$3.json" > /dev/null
  "$bin" --shards 2 --rate 20000 --duration-ms 2000 \
    --json "$BUILD_DIR/serving_overload_$2_$3.json" > /dev/null
}
rm -f "$BUILD_DIR"/serving_sustainable_*.json "$BUILD_DIR"/serving_overload_*.json
for round in $(seq "$ROUNDS"); do
  if [ -n "$BEFORE_DIR" ] && [ $((round % 2)) -eq 0 ]; then
    serve_round "$BEFORE_DIR" before "$round"
  fi
  serve_round "$BUILD_DIR" after "$round"
  if [ -n "$BEFORE_DIR" ] && [ $((round % 2)) -eq 1 ]; then
    serve_round "$BEFORE_DIR" before "$round"
  fi
done

python3 - "$BUILD_DIR" "$OUT_JSON" "$ROUNDS" <<'EOF'
import glob
import json
import os
import statistics
import sys

build_dir, out_path, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
# Figures that vary run to run; the rest of a run's summary is its fixed
# configuration (shards, rate, duration, file size, preload).
FIGURES = ("offered_ops", "accepted", "completed", "rejected", "refused",
           "failed", "queue_peak", "ops_per_sec", "p50_ms", "p99_ms",
           "live_files")

def load(rate, side):
    runs = []
    for path in sorted(glob.glob(os.path.join(
            build_dir, f"serving_{rate}_{side}_*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs

def summarize(runs):
    out = {k: v for k, v in runs[0].items() if k not in FIGURES and k != "ok"}
    out["runs"] = len(runs)
    for k in FIGURES:
        vals = [r[k] for r in runs]
        out[k] = {"median": statistics.median(vals),
                  "min": min(vals), "max": max(vals)}
    out["ok"] = all(r["ok"] for r in runs)
    return out

sides = {}
for side in ("after", "before"):
    sustain, overload = load("sustainable", side), load("overload", side)
    if sustain:
        sides[side] = (sustain, overload)
sustain, overload = sides["after"]

result = {
    "benchmark": "throughput_serving",
    "description": "open-loop load vs the 2-shard serving plane; latency "
                   "from scheduled arrival (coordinated-omission-safe); "
                   "each figure is the median and min-max over the rounds",
    "rounds": rounds,
    "sustainable": summarize(sustain),
    "overload": summarize(overload),
}
if "before" in sides:
    result["before"] = {"sustainable": summarize(sides["before"][0]),
                        "overload": summarize(sides["before"][1])}

s, o = result["sustainable"], result["overload"]
result["acceptance"] = {
    "shards": s["shards"],
    "shards_ok": s["shards"] >= 2 and o["shards"] >= 2,
    # Accounting sanity: the measured window can never admit more than the
    # open loop offered (preload is reported separately), in any run.
    "accounting_ok": all(r["accepted"] <= r["offered_ops"]
                         for r in sustain + overload),
    "ops_per_sec": o["ops_per_sec"]["median"],
    "p50_ms": s["p50_ms"]["median"],
    "p99_ms": s["p99_ms"]["median"],
    "rejections_reported": o["rejected"]["median"],
    "overload_shed_ok": all(r["rejected"] > 0 for r in overload),
    "no_accepted_request_lost": s["ok"] and o["ok"],
}
result["acceptance"]["ok"] = all(
    result["acceptance"][k]
    for k in ("shards_ok", "accounting_ok", "overload_shed_ok",
              "no_accepted_request_lost"))

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
print(json.dumps(result["acceptance"], indent=2))
EOF
