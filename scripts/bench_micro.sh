#!/usr/bin/env bash
# Field-kernel + polynomial-engine microbenchmark harness: configures and
# builds a Release tree, runs the mul/sqr/dot kernels at every standard prime
# size plus the subproduct-tree interpolation, domain-build and
# batch-inversion benchmarks at n in {16, 64, 256, 1024}, and distills the google-benchmark JSON into
# BENCH_field.json at the repo root -- machine-readable specialized-vs-generic
# numbers plus speedup ratios, with the acceptance gates (>= 1.5x Montgomery
# multiply at g=256; >= 5x tree interpolation vs the Lagrange oracle at
# n=1024) spelled out as fields.
#
# The post-pass HARD-FAILS unless the benchmark binary was built with NDEBUG:
# it gates on the custom context key `pisces_build_type` emitted by
# micro_field_ops itself. google-benchmark's own `library_build_type` key is
# untrustworthy for this (it reports how the installed benchmark LIBRARY was
# compiled -- "debug" for the distro package -- not how our code was).
#
# The cert/channel crypto benches (exponentiation, Schnorr verify, DH,
# seal+open, SHA-256, ChaCha20) land in a "crypto" section, and upload share generation
# (BM_ShareBlocks at the window-bulk and serve-wire shapes) in a "pss"
# section; they and the tree build (BM_PolyDomainBuild, reported in "poly")
# run in short rounds. Given a second build dir -- a Release build of micro_field_ops at
# another commit, compiled with this commit's bench/micro_field_ops.cpp so it
# has the same benches -- both sets run on both binaries in alternating rounds
# (the one on a shared host is never measured in a quieter phase than the
# other), and each entry gains that binary's figure as before_ns and the
# speedup. Every round figure is the median over a binary's rounds with its
# quartiles beside it (*_q1_ns, *_q3_ns), as bench_serving.sh reports: one
# round that lands in a quiet phase cannot set the figure for the whole file.
#
# Usage: scripts/bench_micro.sh [build-dir] [before-build-dir]
#        (default build dir: build-rel)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-rel}"
BEFORE_DIR="${2:-}"
RAW_FIELD_JSON="$BUILD_DIR/micro_field_raw.json"
RAW_POLY_JSON="$BUILD_DIR/micro_poly_raw.json"
ROUND_FILTER='BM_(PowBytes|SchnorrVerify|DhSharedSecret|ChannelSealOpen|Sha256|ChaCha20Xor|FieldInv|ShareBlocks|PolyDomainBuild)'
CRYPTO_ROUNDS=15
OUT_JSON="BENCH_field.json"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_field_ops

# Belt and braces: the configured build type must be a release flavor even
# before we look at the binary's own context key.
if ! grep -q '^CMAKE_BUILD_TYPE:[^=]*=Rel' "$BUILD_DIR/CMakeCache.txt"; then
  echo "bench_micro.sh: $BUILD_DIR is not a release build" >&2
  exit 1
fi

# Repetitions with a min-selecting post-pass: on a shared host, interference
# is one-sided (it only ever slows a rep down), so the minimum across reps is
# the faithful estimate of the kernel's cost.
"$BUILD_DIR/bench/micro_field_ops" \
  --benchmark_filter='BM_Field(Mul|Sqr|Dot)' \
  --benchmark_out="$RAW_FIELD_JSON" \
  --benchmark_out_format=json \
  --benchmark_repetitions=5

# The poly-engine benches include the O(n^2) Lagrange oracle at n=1024
# (hundreds of ms per iteration), so fewer repetitions keep the harness
# tractable; min-of-3 retains the one-sided-noise property.
"$BUILD_DIR/bench/micro_field_ops" \
  --benchmark_filter='BM_(PolyInterp|BatchInv)' \
  --benchmark_out="$RAW_POLY_JSON" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3

# Short crypto, share-generation and domain-build rounds (0.1 s per benchmark),
# alternating which binary goes first: the host's contention phases last
# under a second, so both binaries sample the same mix of them. Each round
# gives one sample per benchmark; the median over rounds is the figure.
round_run() {  # <binary dir> <raw output>
  "$1/bench/micro_field_ops" \
    --benchmark_filter="$ROUND_FILTER" \
    --benchmark_out="$2" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.1
}
rm -f "$BUILD_DIR"/micro_crypto_*.json
for round in $(seq "$CRYPTO_ROUNDS"); do
  if [ -n "$BEFORE_DIR" ] && [ $((round % 2)) -eq 0 ]; then
    round_run "$BEFORE_DIR" "$BUILD_DIR/micro_crypto_before_$round.json"
  fi
  round_run "$BUILD_DIR" "$BUILD_DIR/micro_crypto_after_$round.json"
  if [ -n "$BEFORE_DIR" ] && [ $((round % 2)) -eq 1 ]; then
    round_run "$BEFORE_DIR" "$BUILD_DIR/micro_crypto_before_$round.json"
  fi
done

python3 - "$RAW_FIELD_JSON" "$RAW_POLY_JSON" "$OUT_JSON" "$BUILD_DIR" <<'EOF'
import glob
import json
import os
import statistics
import sys

field_path, poly_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
build_dir = sys.argv[4]
with open(field_path) as f:
    raw_field = json.load(f)
with open(poly_path) as f:
    raw_poly = json.load(f)

def load_all(side):
    paths = sorted(glob.glob(os.path.join(build_dir, f"micro_crypto_{side}_*.json")))
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out

raw_after = load_all("after")
raw_before = load_all("before")

# HARD GATE: numbers from a non-release build are not publishable. The key is
# emitted by our own translation unit (NDEBUG check), because the library's
# own library_build_type describes the distro libbenchmark, not our code.
for raw in [raw_field, raw_poly] + raw_after + raw_before:
    build_type = raw.get("context", {}).get("pisces_build_type")
    if build_type != "release":
        sys.exit(f"bench_micro.sh: refusing non-release numbers "
                 f"(pisces_build_type={build_type!r}); build with NDEBUG")

# Keep the MIN across repetitions of each benchmark/size pair (interference
# on a shared host only ever inflates a rep).
ns = {}
for raw in (raw_field, raw_poly):
    for b in raw["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue
        name, arg = b["run_name"].split("/")
        d = ns.setdefault(name, {})
        g = int(arg)
        d[g] = min(d.get(g, float("inf")), b["real_time"])

def ratio(num, den):
    return round(num / den, 3) if den else None

sizes = sorted(ns.get("BM_FieldMul", {}))
result = {
    "benchmark": "micro_field_ops",
    "dot_length": 32,
    "unit": "ns_min_of_reps",
    "round_unit": "ns_median_and_quartiles_over_rounds",
    "context": raw_field.get("context", {}),
    "sizes": {},
    "poly": {},
}
for g in sizes:
    mul = ns["BM_FieldMul"][g]
    mul_gen = ns["BM_FieldMulGeneric"][g]
    sqr = ns["BM_FieldSqr"][g]
    sqr_gen = ns["BM_FieldSqrGeneric"][g]
    dot = ns["BM_FieldDot"][g]
    dot_naive = ns["BM_FieldDotNaive"][g]
    result["sizes"][str(g)] = {
        "mul_ns": mul,
        "mul_generic_ns": mul_gen,
        "mul_speedup": ratio(mul_gen, mul),
        "sqr_ns": sqr,
        "sqr_generic_ns": sqr_gen,
        "sqr_speedup": ratio(sqr_gen, sqr),
        "sqr_vs_mul": ratio(mul, sqr),
        "dot32_ns": dot,
        "dot32_naive_ns": dot_naive,
        "dot_speedup": ratio(dot_naive, dot),
    }

# Round benches, keyed by the full benchmark name (e.g. "BM_PowBytes/512",
# "BM_SchnorrVerify"): every round's sample, in round order.
def samples_by_name(raws):
    out = {}
    for raw in raws:
        for b in raw["benchmarks"]:
            if b.get("run_type") != "iteration":
                continue
            out.setdefault(b["run_name"], []).append(b["real_time"])
    return out

after = samples_by_name(raw_after)
before = samples_by_name(raw_before)

def put_rounds(entry, key, samples):
    """Writes the median and quartiles of `samples` as key_ns, key_q1_ns and
    key_q3_ns; returns the median."""
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = med = q3 = samples[0]
    entry[f"{key}_ns"] = med
    entry[f"{key}_q1_ns"] = q1
    entry[f"{key}_q3_ns"] = q3
    return med

# Polynomial engine (256-bit field, domain size n): subproduct-tree
# interpolation vs the Lagrange oracle, batch inversion, and the tree build
# (from the rounds, so it carries the second build's figure when given).
for n in sorted(ns.get("BM_PolyInterpTree", {})):
    build = f"BM_PolyDomainBuild/{n}"
    entry = {
        "interp_tree_ns": ns["BM_PolyInterpTree"][n],
        "interp_lagrange_ns": ns["BM_PolyInterpLagrange"][n],
        "interp_speedup": ratio(ns["BM_PolyInterpLagrange"][n],
                                ns["BM_PolyInterpTree"][n]),
        "batchinv_ns": ns["BM_BatchInv"][n],
    }
    med = put_rounds(entry, "domain_build", after[build])
    if build in before:
        med_before = put_rounds(entry, "domain_build_before", before[build])
        entry["domain_build_speedup"] = ratio(med_before, med)
    result["poly"][str(n)] = entry

result["crypto"] = {}
result["pss"] = {}
for name in sorted(after):
    if name.startswith("BM_PolyDomainBuild"):
        continue
    entry = {}
    med = put_rounds(entry, "after", after[name])
    if name in before:
        entry["speedup"] = ratio(put_rounds(entry, "before", before[name]),
                                 med)
    section = "pss" if name.startswith("BM_ShareBlocks") else "crypto"
    result[section][name] = entry

mul256 = result["sizes"].get("256", {}).get("mul_speedup")
interp1024 = result["poly"].get("1024", {}).get("interp_speedup")
result["acceptance"] = {
    "build_type": "release",
    "mul256_speedup": mul256,
    "mul256_target": 1.5,
    "mul256_ok": bool(mul256 and mul256 >= 1.5),
    "interp1024_speedup": interp1024,
    "interp1024_target": 5.0,
    "interp1024_ok": bool(interp1024 and interp1024 >= 5.0),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
print(json.dumps(result["acceptance"], indent=2))
if not (result["acceptance"]["mul256_ok"]
        and result["acceptance"]["interp1024_ok"]):
    sys.exit("bench_micro.sh: acceptance gate failed")
EOF
