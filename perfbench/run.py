#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The driver (perfbench/driver.cpp) is built in
Release into $CARGO_TARGET_DIR (default .bench_build) with the library from
src/. With --trace 0 the last stdout line carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. The lines before it
give the run context and, for traced runs, the full span ledger. The exit code
is non-zero, and no result line is printed, when the sources are missing, the
build fails, or the build is not optimized. README.md describes the workloads
and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

sys.dont_write_bytecode = True
import stats  # noqa: E402

WORKLOADS = ("window-bulk", "window-small", "serve-wire")
# Failed requests are infinitely slow; JSON has no infinity, so a percentile
# that lands on one reports this value (ms).
INFINITE_MS = 1e12
# Traced runs: ledger rows must sum to the traced wall time within this share.
RECONCILE_TOLERANCE = 0.01
DRIVER_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 3)
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release" not in f.read():
            fail("refusing to report from a non-Release build", 4)
    return os.path.join(out, "perfbench_driver")


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def latencies(raw, key):
    return [stats.FAILED if v < 0 else v for v in raw[key]]


def finite(v):
    if v is None:
        return 0.0
    return INFINITE_MS if math.isinf(v) else v


def pct(values, p):
    return finite(stats.nearest_rank(values, p)[0])


def seg_pct(raw, kind, p):
    """p-th percentile of a calm measurement segment (stats.segmented)."""
    values = latencies(raw, kind + "_ms")
    return finite(stats.segmented(values, raw[kind + "_seg"], p)[0])


def end_to_end(raw):
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
        "window_s": stats.median(raw["window_s"]),
        "window_cpu_s": stats.median(raw["window_cpu_s"]),
        "window_wire_bytes_per_byte":
            stats.median(raw["window_wire_bytes_per_byte"]),
        "upload_p50_ms": seg_pct(raw, "upload", 50),
        "upload_p99_ms": seg_pct(raw, "upload", 99),
        "download_p50_ms": seg_pct(raw, "download", 50),
        "download_p99_ms": seg_pct(raw, "download", 99),
        "serve_cpu_ms_per_op": stats.median(raw["op_cpu_ms"]),
    }


def per_layer(raw, names):
    layers = dict(raw["layers"])
    layers["net.ping_rtt_p50_us"] = pct(raw["ping_us"], 50)
    layers["net.ping_rtt_p99_us"] = pct(raw["ping_us"], 99)
    layers["serve.gen_lag_p99_ms"] = pct(raw["gen_lag_ms"], 99)
    traced, untraced = raw["traced_e2e"], raw["untraced_e2e"]
    layers["trace.overhead_ratio"] = (
        stats.median(traced) / stats.median(untraced)
        if traced and untraced else 0.0)
    e2e = raw["ledger_e2e_s"]
    layers["trace.reconcile_error"] = (
        abs(raw["ledger_sum_s"] - e2e) / e2e if e2e else 0.0)
    # A layer the workload never reaches reads 0.
    return {k: layers.get(k, 0.0) for k in names}


def tails(raw):
    """Sample counts and the highest percentile with ten samples beyond it."""
    out = {}
    for key in ("upload_ms", "download_ms", "ping_us", "gen_lag_ms"):
        values = [stats.FAILED if v < 0 else v for v in raw[key]]
        p, v, n = stats.highest_tail(values)
        out[key] = {"samples": n, "tail_percentile": p,
                    "tail_value": None if v is None or math.isinf(v) else v}
        seg = key.replace("_ms", "_seg")
        if seg != key and seg in raw:
            out[key]["segments"] = len(set(raw[seg]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # subprocess.run kills and reaps its child on any exception, so turning
    # SIGTERM into an exit stops the build or the driver with us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    driver = build_driver()

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("driver timed out", 5)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail("driver exited with %d" % proc.returncode, 5)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    ctx = raw["context"]
    if ctx["build_type"] != "release":
        fail("refusing to report from a non-optimized driver build", 4)

    errors = list(raw["errors"])
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(raw, names)
        if values["trace.reconcile_error"] > RECONCILE_TOLERANCE:
            errors.append("ledger does not reconcile: error %.4f > %.2f" %
                          (values["trace.reconcile_error"],
                           RECONCILE_TOLERANCE))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(raw)
        missing = set(names) ^ set(values)
        if missing:
            fail("metric set differs from BENCHMARK.json: %s" % sorted(missing), 6)

    context = {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": "Release",
        "nproc": os.cpu_count(),
        "task_pool_threads": ctx["pool_threads"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "params": ctx["params"],
        # Times are charged at a reference core speed (driver.cpp, namespace
        # probe); these show how fast and how contended the core was.
        "speed_probe": {
            "probes": ctx["probes"],
            "kernel_p1_us": ctx["probe_p1_us"],
            "kernel_median_us": ctx["probe_median_us"],
            "window_wall_s_median": (stats.median(raw["window_wall_s"])
                                     if raw["window_wall_s"] else None),
            "serve_stalled_share": ctx["stalled_share"],
        },
        "driver_wall_s": round(time.monotonic() - t0, 3),
        "samples": tails(raw),
    }
    print(json.dumps({"context": context}))
    if args.trace:
        print(json.dumps({"ledger_s": raw["ledger"],
                          "ledger_e2e_s": raw["ledger_e2e_s"],
                          "ledger_sum_s": raw["ledger_sum_s"],
                          "tolerance": RECONCILE_TOLERANCE}))
    if errors:
        print(json.dumps({"errors": errors}))
    result = {
        "correct": not errors,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
