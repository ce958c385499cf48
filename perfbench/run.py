#!/usr/bin/env python3
"""Builds the perfbench program from this checkout and runs one workload.

    python3 perfbench/run.py --workload chip --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run prints the program's JSON result as its last stdout line; build
output goes to stderr. The build tree is .bench_build/perfbench under the
checkout root, and a traced run (--trace 1) writes its spans to
.bench_build/spans/<workload>.jsonl.

--smoke runs every workload briefly, each in its own process, in both
modes, prints every metric with its unit, and fails unless every metric
BENCHMARK.json names is printed with its unit, every end-to-end metric and
every per-layer metric the workload measures (MEASURED) is above 0, every
run is correct and no operation failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("chip", "fleet", "service", "checkpoint")
BUILD_TIMEOUT_S = 420  # per step; the first run of a checkout may take 900 s
SMOKE_SECONDS = "2"  # long enough for the fleet watchdog to trip

TRACE = ("trace.overhead_frac", "trace.spans")
# The per-layer metrics each workload measures and that must read above 0
# there (perfbench/README.md, "Measured on"). Counts that are 0 on a good
# run (service.errors, service.sanitized, task.overflows) are left out, as
# is sim.otb_j on fleet and checkpoint, which is 0 for some seeds.
MEASURED = {
    "chip": (
        "workload.step_us", "workload.step_n", "sim.step_us", "sim.step_n",
        "sim.runner_us", "sim.runner_n", "sim.otb_j", "core.decide_us",
        "core.decide_p99_us", "core.decide_n", "registry.make_controller_us",
        "registry.make_controller_n") + TRACE,
    "fleet": (
        "sim.fault_events", "sim.watchdog_fallback_epochs", "core.decide_us", "core.decide_p99_us", "core.decide_n",
        "task.tasks_per_epoch", "task.steals_per_epoch",
        "task.steal_hit_ratio", "task.worker_parks_per_epoch",
        "task.wait_parks_per_epoch", "task.max_queue_depth",
        "task.speedup_vs_serial") + TRACE,
    "service": (
        "sim.otb_j", "service.encode_request_us", "service.decode_request_us",
        "service.encode_reply_us", "service.decode_reply_us",
        "service.handle_us", "service.dispatch_us", "service.connection_us",
        "service.codec_n", "service.request_bytes", "service.reply_bytes",
        "service.step_p50_us", "service.step_p99_us", "service.step_n",
        "snapshot.checksum_ns_per_byte", "snapshot.reader_us",
        "snapshot.blob_bytes", "snapshot.n") + TRACE,
    "checkpoint": (
        "service.handle_snapshot_us", "service.handle_open_us",
        "service.handle_close_us", "service.decode_snapshot_reply_us",
        "service.encode_open_us", "service.checkpoint_n",
        "service.snapshot_p50_ms", "service.snapshot_p99_ms",
        "service.restore_p50_ms", "service.restore_p99_ms",
        "service.snapshot_n", "snapshot.checksum_ns_per_byte",
        "snapshot.reader_us", "snapshot.blob_bytes", "snapshot.n",
        "registry.make_controller_us", "registry.make_controller_n") + TRACE,
}


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build():
    # cmake_install.cmake is written only once generation has succeeded.
    if not os.path.exists(os.path.join(BUILD, "cmake_install.cmake")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], BUILD_TIMEOUT_S)


def run_program(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its stdout."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace == 1:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans-out", os.path.join(SPANS, workload + ".jsonl")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, check=True,
                         timeout=3 * float(seconds) + 120)
    return out.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        positive = {0: {m["name"] for m in wanted[0]},
                    1: set(MEASURED[workload])}
        for trace in (0, 1):
            before = len(problems)
            result = json.loads(
                run_program(workload, 1, SMOKE_SECONDS, trace).splitlines()[-1])
            where = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{where}: attempted no operation")
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} [{m['unit']}] "
                                    f"missing or wrong unit: {got}")
                elif m["name"] in positive[trace] and not got["value"] > 0:
                    problems.append(f"{where}: {m['name']} = {got['value']}")
            extra = set(metrics) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: "
                                f"{sorted(extra)}")
            print(f"{where}: " + ", ".join(
                f"{name} {m['value']:.6g} {m['unit']}"
                for name, m in metrics.items()))
            print(f"smoke: {where}: "
                  f"{'ok' if len(problems) == before else 'FAILED'}",
                  file=sys.stderr)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        build()
        if args.smoke:
            return smoke()
        out = run_program(args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
