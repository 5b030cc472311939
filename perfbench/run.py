#!/usr/bin/env python3
"""Builds and runs the whole-stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Run from the root of a checkout. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which builds the system under
test from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to .bench_build/perfbench/build.log.

The last line of standard output is the benchmark's JSON result. Its
metric names and units are checked against BENCHMARK.json: end_to_end
with --trace 0, per_layer with --trace 1. With --workload all every
workload runs in turn (each prints its own result block) and the exit
code is non-zero if any of them failed.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["replay_locality", "replay_sharded", "serve_ingress", "elastic_chaos"]
# Each run stops measuring after --seconds; this bounds a hung one.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no system under test next to {HERE.name}/ (expected ../src)")
    out = build_root() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    # Keep the compiler's scratch files inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                fail(f"build failed: {' '.join(step)} (see {log_path})")
    return out / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_root() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout)
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} metrics do not match BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}, "
             f"unit mismatch {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        print(json.dumps(result))
        sys.exit(code)

    failures = []
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args.seed, args.seconds,
                               args.trace)
        print(json.dumps(result))
        print()
        if code or not result["correct"]:
            failures.append(workload)
    print("all workloads: " + ("FAIL " + " ".join(failures) if failures else "PASS"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
