#!/usr/bin/env python3
"""Builds and runs the MemCA simulator benchmark (see README.md).

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 simbench/run.py --selftest

Run from the repository root. The first call configures and builds
simbench/ (which compiles ../src) as a Release build under $CARGO_TARGET_DIR
(default .bench_build) and later calls rebuild incrementally. Build output
goes to stderr; stdout carries the benchmark's regime and digest lines and,
last, one JSON result object.

The digest line (the run's deterministic simulated outputs) is cached per
binary, workload and seed in the build directory; a later run of the same
binary, workload and seed whose digest differs counts one failed operation.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def fail(message):
    print("simbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at " + os.path.join(ROOT, "src"))
    out = os.path.join(build_root(), "simbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "--target", "simbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "simbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    """Runs one benchmark process; returns (result dict, stdout lines before it)."""
    binary = build()
    traces = os.path.join(build_root(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMCA_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    want = {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items()))))

    digest = next((l for l in lines if l.startswith("digest ")), None)
    if digest is None:
        fail("no digest line")
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    cache_dir = os.path.join(build_root(), "digests", build_id)
    os.makedirs(cache_dir, exist_ok=True)
    cache = os.path.join(cache_dir, "%s-seed%d.txt" % (workload, seed))
    if os.path.isfile(cache):
        with open(cache) as f:
            if f.read().strip() != digest:
                print("simbench: simulated digest differs from an earlier run of this "
                      "workload and seed", file=sys.stderr)
                result["failed"] = min(result["attempted"], result["failed"] + 1)
                result["correct"] = False
    else:
        with open(cache, "w") as f:
            f.write(digest + "\n")
    return result, lines[:-1]


def selftest():
    """Runs every workload briefly, traced and untraced, and checks the output."""
    problems = []
    for workload in [w["name"] for w in load_spec()["workloads"]]:
        for trace in (False, True):
            result, _ = run(workload, 7, 1, trace)  # run() already checks names and units
            label = "%s trace=%d" % (workload, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: checks failed (%d of %d)" % (
                    label, result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (label, name))
            if trace:
                path = os.path.join(build_root(), "traces", "%s-seed7.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                spans = {e["name"] for e in events if e["ph"] == "X"}
                needed = {"construct", "start", "warmup", "snapshot", "sweep",
                          "run_attack_lab_sweep", "merge_sweep_registries", "build_run_report",
                          "rollback", "run_for", "attack_start", "attack_stop"}
                if needed - spans:
                    problems.append("%s: trace lacks spans %s" % (label, sorted(needed - spans)))
                if not any(e["ph"] == "C" for e in events):
                    problems.append("%s: trace lacks counter rows" % label)
            print("selftest %s: %d metrics, %d/%d operations ok" % (
                label, len(result["metrics"]), result["attempted"] - result["failed"],
                result["attempted"]), file=sys.stderr)
    for p in problems:
        print("selftest FAIL " + p, file=sys.stderr)
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace == 1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
