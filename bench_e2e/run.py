#!/usr/bin/env python3
"""End-to-end benchmark of whole Pregelix jobs.

Builds bench_e2e (the C++ benchmark binary in this directory) from the repository
sources, runs one workload as a closed loop of jobs for --seconds seconds,
checks every job's output, and prints the metrics. Run it from the root of
the repository:

    python3 bench_e2e/run.py --workload sssp-btc --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics; with --trace 1 they are the per-layer metrics of
a traced run. The line before it is the full record: the reproducibility
stamp, every metric, and how the superstep tail percentile was chosen. The
record is also written to <build>/records/, and a traced run writes its
Chrome trace (program spans plus the benchmark's own spans, each annotated
with its self time) to <build>/traces/.

<build> is $CARGO_TARGET_DIR when set, else .bench_build in the repository
root. See bench_e2e/README.md for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("pagerank-web", "sssp-btc", "pagerank-web-ooc")

# (name, unit). The end-to-end set is what --trace 0 prints.
END_TO_END = [
    ("setup_s", "s"),
    ("job_wall_s", "s"),
    ("job_cpu_s", "s"),
    ("superstep_wall_p50_ms", "ms"),
    ("superstep_wall_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("job_ok_ratio", "ratio"),
]

PLAN_OPERATORS = ("compute-full-outer-join", "combine-msgs", "global-agg",
                  "resolve")
LOCKS = ("overlap_prefetch", "overlap_writebehind", "channel")

# The per-layer set is what --trace 1 prints.
PER_LAYER = [
    ("graph.generate_s", "s"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.input_bytes", "bytes"),
    ("graph.ram_ratio", "ratio"),
    ("pregel.supersteps", "count"),
    ("pregel.messages", "count"),
    ("pregel.load_dump_wall_s", "s"),
    ("pregel.barrier_wait_s", "s"),
    ("pregel.sim_s", "s"),
    ("pregel.sim_s_spread", "ratio"),
    ("pregel.sim_to_wall_ratio", "ratio"),
    ("pregel.sim_to_wall_ratio_spread", "ratio"),
    ("pregel.plan_switches", "count"),
    ("dataflow.activations", "count"),
    ("dataflow.empty_activation_ratio", "ratio"),
    ("dataflow.shuffle_wait_s", "s"),
    ("dataflow.sort_s", "s"),
    ("dataflow.merge_s", "s"),
    ("dataflow.group_by_s", "s"),
    ("dataflow.shuffle_bytes", "bytes"),
    ("dataflow.net_bytes", "bytes"),
    ("dataflow.cpu_ops", "count"),
    ("dataflow.spills", "count"),
    ("dataflow.spill_bytes", "bytes"),
] + [
    (f"dataflow.op.{op}.{field}", unit)
    for op in PLAN_OPERATORS
    for field, unit in (("wall_s", "s"), ("tuples_in", "count"))
] + [
    ("buffer.hits", "count"),
    ("buffer.misses", "count"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions", "count"),
    ("buffer.writebacks", "count"),
    ("storage.probes", "count"),
    ("storage.inserts", "count"),
    ("io.read_s", "s"),
    ("io.write_s", "s"),
    ("io.wait_s", "s"),
    ("io.disk_read_bytes", "bytes"),
    ("io.disk_write_bytes", "bytes"),
    ("io.disk_seeks", "count"),
    ("io.overlap_io_bytes", "bytes"),
    ("io.writebehind_stalls", "count"),
    ("io.prefetch_hits", "count"),
    ("io.prefetch_wasted", "count"),
    ("io.prefetch_useful_ratio", "ratio"),
    ("common.lock_wait_s", "s"),
    ("common.lock_contended", "count"),
] + [
    (f"common.{field}.{lock}", unit)
    for lock in LOCKS
    for field, unit in (("lock_wait_s", "s"), ("lock_contended", "count"))
] + [
    ("common.idle_s", "s"),
    ("common.ledger_unattributed_ns", "ns"),
    ("algorithms.compute_calls", "count"),
    ("algorithms.compute_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
BINARY_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build(bdir, env):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("bench_e2e: no Pregelix sources next to bench_e2e/")
        return None
    if shutil.which("cmake") is None:
        log("bench_e2e: cmake not found")
        return None
    cdir = os.path.join(bdir, "cmake")
    if not os.path.isfile(os.path.join(cdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(cdir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", cdir, "--target", "bench_e2e", "-j",
           str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(cdir, "bench_e2e")


def nearest_rank(sorted_values, p):
    """Nearest-rank percentile and its 1-based rank."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], rank


def tail_percentile(min_samples):
    """Highest ladder percentile with TAIL_MIN_BEYOND samples beyond it in a
    run that completes only its minimum number of jobs, so the choice is the
    same on every run of a workload."""
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if (1.0 - p / 100.0) * min_samples >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen


def spread(values):
    """(max - min) / median; 0 for fewer than two values."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def end_to_end_metrics(rec, plain):
    steps = sorted(w for j in plain for w in j["superstep_wall_s"])
    pct = tail_percentile(rec["min_jobs"] * rec["reference_supersteps"])
    tail, rank = nearest_rank(steps, pct)
    attempted = len(rec["jobs"])
    failed = sum(1 for j in rec["jobs"] if not j["ok"])
    values = {
        "setup_s": statistics.median(rec["setup_s"]),
        "job_wall_s": statistics.median(j["wall_s"] for j in plain),
        "job_cpu_s": statistics.median(j["cpu_s"] for j in plain),
        "superstep_wall_p50_ms": 1e3 * statistics.median(steps),
        "superstep_wall_tail_ms": 1e3 * tail,
        "peak_rss_mb": rec["peak_rss_mb"],
        "job_ok_ratio": (attempted - failed) / attempted,
    }
    tail_info = {"percentile": pct, "samples": len(steps),
                 "samples_beyond": len(steps) - rank}
    return values, tail_info


def per_layer_metrics(rec, plain, traced):
    values = dict(rec["graph"])
    values["graph.generate_s"] = statistics.median(rec["generate_s"])
    for name in traced[0]["layers"]:
        values[name] = statistics.median(j["layers"][name] for j in traced)
    sims = [j["sim_s"] for j in rec["jobs"]]
    ratios = [j["sim_s"] / j["wall_s"] for j in plain]
    values["pregel.sim_s"] = statistics.median(sims)
    values["pregel.sim_s_spread"] = spread(sims)
    values["pregel.sim_to_wall_ratio"] = statistics.median(ratios)
    values["pregel.sim_to_wall_ratio_spread"] = spread(ratios)
    values["trace.overhead_ratio"] = (
        statistics.median(j["wall_s"] for j in traced) /
        statistics.median(j["wall_s"] for j in plain))
    return values


def annotate_trace(path):
    """Adds each span's self time (duration minus its child spans on the
    same thread track) to its args, plus a per-(cat, name) summary."""
    with open(path) as f:
        doc = json.load(f)
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    by_track = {}
    for e in spans:
        by_track.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    for events in by_track.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in events:
            e.setdefault("args", {})["self_us"] = e["dur"]
            while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                stack[-1]["args"]["self_us"] -= e["dur"]
            stack.append(e)
    summary = {}
    for e in spans:
        row = summary.setdefault((e.get("cat", ""), e["name"]),
                                 {"count": 0, "total_us": 0, "self_us": 0})
        row["count"] += 1
        row["total_us"] += e["dur"]
        row["self_us"] += e["args"]["self_us"]
    doc["spanSummary"] = sorted(
        ({"cat": c, "name": n, **row} for (c, n), row in summary.items()),
        key=lambda r: -r["self_us"])
    with open(path, "w") as f:
        json.dump(doc, f)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="2K-vertex graphs (self-test only)")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so the cleanup in `finally` runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(bdir, env)
    if binary is None:
        log("bench_e2e: build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(bdir, "work", f"{tag}-{os.getpid()}")
    trace_out = os.path.join(bdir, "traces", f"{tag}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}", f"--trace-out={trace_out}"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench_e2e: binary exceeded {BINARY_TIMEOUT_S}s")
        return 1
    finally:
        # Also reached on SIGTERM (see main): never leave the binary behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if not lines:
        log(f"bench_e2e: binary exited {proc.returncode} without a record")
        return 1
    rec = json.loads(lines[-1])

    plain = [j for j in rec["jobs"] if not j["traced"]]
    traced = [j for j in rec["jobs"] if j["traced"]]
    attempted = len(rec["jobs"])
    failed = sum(1 for j in rec["jobs"] if not j["ok"])
    for j in rec["jobs"]:
        if not j["ok"]:
            log(f"bench_e2e: job failed: {j['error']}")
    correct = proc.returncode == 0 and failed == 0

    e2e, tail_info = end_to_end_metrics(rec, plain)
    units = dict(END_TO_END + PER_LAYER)
    record = {
        "workload": args.workload,
        "stamp": dict(rec["stamp"], git_commit=git_commit(),
                      seconds=args.seconds, trace=args.trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "job_fail_ratio": failed / attempted,
        "superstep_wall_tail": tail_info,
        "job_wall_s_samples": [j["wall_s"] for j in plain],
        "job_cpu_s_samples": [j["cpu_s"] for j in plain],
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in e2e.items()},
    }
    if args.trace:
        layers = per_layer_metrics(rec, plain, traced)
        record["per_layer"] = {name: {"value": layers[name], "unit": unit}
                               for name, unit in PER_LAYER}
        record["trace_file"] = os.path.relpath(trace_out, ROOT)
        annotate_trace(trace_out)
    rdir = os.path.join(bdir, "records")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)

    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
