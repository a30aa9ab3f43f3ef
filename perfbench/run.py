#!/usr/bin/env python3
"""ENZO checkpoint and query benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/enzo_bench from the simulator sources in ../src (CMake,
into .bench_build/perfbench at the checkout root), runs one workload in its
own process and prints a metric table followed, as the last line of stdout,
by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the workload twice, untraced and then with the obs::Collector attached, and
reports the per-layer metrics: host-clock layer numbers come from the
untraced run, everything else from the traced one.  trace.overhead_frac is
the traced over the untraced host time per iteration, minus 1.  The traced
run must reproduce every virtual-clock and count metric of the untraced run
exactly, and the workload's stress checks must hold, or the run is reported
as incorrect.

Exit status is non-zero, with no result line, when the build or the run
fails.  See perfbench/README.md for the metric glossary.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "enzo_bench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_once(args, trace, passes=None):
    """Run the benchmark binary once; return its JSON report."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PARAMRIO_")}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=RUN_TIMEOUT_S)
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("enzo_bench exited with %d" % done.returncode)
    return json.loads(lines[-1])


def show(title, metrics):
    print(title)
    for name, m in sorted(metrics.items()):
        print("  %-40s %16.6g %-6s %-8s n=%d" % (
            name, m["value"], m["unit"], m["clock"], m["samples"]))


def end_to_end(args, spec):
    rep = run_once(args, trace=False)
    show("%s seed=%d engine=%s (end-to-end)" % (
        args.workload, args.seed, rep["engine"]), rep["e2e"])
    metrics = {}
    for m in spec["end_to_end"]:
        got = rep["e2e"].get(m["name"])
        if got is None:
            raise RuntimeError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = rep["failed"] == 0 and not rep["threw"]
    return correct, rep["attempted"], rep["failed"], metrics


def per_layer(args, spec):
    # One pass (one universe) each: the layer numbers need no averaging
    # over universes, and both runs must fit the time limit.
    plain = run_once(args, trace=False, passes=1)
    traced = run_once(args, trace=True, passes=1)

    # Every non-host number the untraced run measured must come out of the
    # traced run unchanged: attaching the collector may not move the model.
    drift = []
    for section in ("e2e", "layer"):
        for name, m in plain[section].items():
            if m["clock"] == "host":
                continue
            t = traced[section].get(name)
            if t is None or t["value"] != m["value"]:
                drift.append(name)
    stress = dict(traced["stress"])
    stress["traced_equals_untraced"] = not drift
    if drift:
        log("perfbench: traced run moved " + ", ".join(sorted(drift)))

    layer = dict(traced["layer"])
    for name, m in plain["layer"].items():
        if m["clock"] == "host":
            layer[name] = m
    base = plain["e2e"]["cycle_host_s"]["value"]
    layer["trace.overhead_frac"] = {
        "value": traced["e2e"]["cycle_host_s"]["value"] / base - 1.0,
        "unit": "ratio", "clock": "host",
        "samples": traced["e2e"]["cycle_host_s"]["samples"]}
    show("%s seed=%d engine=%s (per-layer)" % (
        args.workload, args.seed, traced["engine"]), layer)
    print("stress checks: " + json.dumps(stress, sort_keys=True))

    metrics = {}
    for m in spec["per_layer"]:
        got = layer.get(m["name"])
        value = got["value"] if got is not None else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = plain["failed"] + traced["failed"]
    correct = (failed == 0 and not plain["threw"] and not traced["threw"]
               and all(stress.values()))
    return correct, plain["attempted"] + traced["attempted"], failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("perfbench: unknown workload " + args.workload)
        return 2
    if not build():
        return 1
    try:
        if args.trace:
            correct, attempted, failed, metrics = per_layer(args, spec)
        else:
            correct, attempted, failed, metrics = end_to_end(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as e:
        log("perfbench: " + str(e))
        return 1
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
