#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, on tiny graphs.

    python3 bench_e2e/selftest.py

For every workload, in both modes (--trace 0 and --trace 1), it runs
bench_e2e/run.py on 2K-vertex graphs for one second and checks that:
  * the command exits 0 and its last line parses, with exactly the keys
    correct / attempted / failed / metrics, correct true and failed 0;
  * every metric BENCHMARK.json names for that mode appears exactly once,
    with the unit BENCHMARK.json gives it and a finite value, and nothing
    else appears;
  * the full record has job_fail_ratio 0 and the tail percentile stated;
  * a traced run reports common.ledger_unattributed_ns 0 and writes a
    Chrome trace holding both the benchmark's own spans and program spans,
    each with a non-negative self time.
Finally it copies only BENCHMARK.json and bench_e2e/ into a bare directory
and checks that the command fails there without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402  (the benchmark module itself)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run_bench(cwd, env, workload, trace):
    cmd = [sys.executable, "bench_e2e/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def check_mode(workload, trace, spec):
    tag = f"{workload} --trace {trace}"
    proc = run_bench(ROOT, os.environ, workload, trace)
    check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        check(False, f"{tag}: no result printed; stderr: {proc.stderr[-400:]}")
        return
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    check(set(result) == RESULT_KEYS, f"{tag}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{tag}: correct is not true")
    check(result["failed"] == 0, f"{tag}: {result['failed']} jobs failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{tag}: attempted {result['attempted']}")
    check(record["job_fail_ratio"] == 0, f"{tag}: job_fail_ratio nonzero")
    check("percentile" in record["superstep_wall_tail"],
          f"{tag}: tail percentile not stated")

    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check(len(metrics) == len(want),
          f"{tag}: {len(metrics)} metrics, BENCHMARK.json names {len(want)}")
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            check(False, f"{tag}: metric {m['name']} missing")
            continue
        check(set(got) == {"value", "unit"}, f"{tag}: {m['name']} keys")
        check(got["unit"] == m["unit"],
              f"{tag}: {m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]),
              f"{tag}: {m['name']} value {got['value']}")
    if not trace:
        check(metrics.get("job_ok_ratio", {}).get("value") == 1,
              f"{tag}: job_ok_ratio != 1")
        return
    check(metrics.get("common.ledger_unattributed_ns", {}).get("value") == 0,
          f"{tag}: ledger_unattributed_ns != 0")
    with open(os.path.join(ROOT, record["trace_file"])) as f:
        doc = json.load(f)
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    cats = {e.get("cat") for e in spans}
    check("bench" in cats and "operator" in cats,
          f"{tag}: trace categories {sorted(c for c in cats if c)}")
    check(all(e["args"]["self_us"] >= 0 for e in spans),
          f"{tag}: negative span self time")
    check(bool(doc.get("spanSummary")), f"{tag}: no span summary")


def check_bare_directory():
    """Without the program's sources the command must fail, silently."""
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench_e2e"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = run_bench(bare, env, "pagerank-web", 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: command exited 0")
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(not last[0].startswith("{"), "bare directory: a result was printed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, ours in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        check([(m["name"], m["unit"]) for m in spec[key]] == ours,
              f"BENCHMARK.json {key} differs from run.py")
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
          "BENCHMARK.json names a workload run.py does not have")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_mode(workload, trace, spec)
            print(f"ran {workload} --trace {trace}", flush=True)
    check_bare_directory()
    print("selftest: " + ("OK" if not failures else
                          f"FAILED ({len(failures)} checks)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
