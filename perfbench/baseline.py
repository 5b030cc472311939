#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 15]

For every workload it runs the end-to-end benchmark once per seed, runs
the first seed a second time, and runs the traced benchmark twice on the
first seed. It records, per end-to-end metric, the median over the seeds,
the quartiles and the spread (interquartile distance over the median, as
the acceptance check computes it) against the metric's bound; per
per-layer metric, the first traced run's value. A metric is flagged exact
when its two runs on the same seed read bit-for-bit the same.
"""
import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# What each workload loads and what it bypasses (the layer names are the
# src/ modules).
LAYERS = {
    "replay_locality": {
        "loads": ["sim", "core", "cluster", "cache", "gpu", "datastore", "trace"],
        "bypasses": ["gateway", "concurrent", "shard", "autoscale", "chaos",
                     "wall-clock executor", "threads"],
    },
    "replay_sharded": {
        "loads": ["shard", "sim", "core", "cluster", "cache", "gpu", "datastore",
                  "trace", "worker pool"],
        "bypasses": ["gateway", "concurrent", "autoscale", "chaos",
                     "wall-clock executor", "cache misses (nearly all hits)"],
    },
    "serve_ingress": {
        "loads": ["concurrent", "gateway", "cluster (RealTimeExecutor)", "telemetry",
                  "core", "cache", "gpu", "datastore", "trace"],
        "bypasses": ["sim", "shard", "autoscale", "chaos",
                     "gateway retries and hedging"],
    },
    "elastic_chaos": {
        "loads": ["gateway (shed, retry, hedge)", "autoscale", "chaos", "sim", "core",
                  "cluster (add/fence/remove/kill_gpu, cancel_request, "
                  "hedge_dispatch)", "cache", "gpu", "datastore", "trace"],
        "bypasses": ["concurrent", "shard", "wall-clock executor", "threads"],
    },
}


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    print(f"{workload} seed {seed} trace {trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed", file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, {platform.platform()}",
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        results = [run(name, seed, seconds, 0) for seed in seeds]
        again = run(name, seeds[0], seconds, 0)
        traced = [run(name, seeds[0], seconds, 1) for _ in range(2)]
        end_to_end = {}
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[metric] = {
                "unit": first["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bounds[metric],
                "exact": first["value"] == again["metrics"][metric]["value"],
            }
        per_layer = {
            metric: {
                "unit": m["unit"],
                "value": m["value"],
                "exact": m["value"] == traced[1]["metrics"][metric]["value"],
            }
            for metric, m in traced[0]["metrics"].items()
        }
        out["workloads"][name] = {
            "why": workload["why"],
            **LAYERS[name],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    for name, w in out["workloads"].items():
        worst = max(w["end_to_end"].items(),
                    key=lambda kv: 0 if kv[0] == "setup_s" else kv[1]["spread"] / kv[1]["bound"])
        print(f"{name}: widest spread {worst[0]} {worst[1]['spread']:.4f} "
              f"(bound {worst[1]['bound']})")


if __name__ == "__main__":
    main()
