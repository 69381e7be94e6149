#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 bench/spread.py --seeds 10 > summary.json

For each workload, runs ``bench/run.py`` once per seed (seeds 1..N,
untraced) and reports every end-to-end metric's median and its spread:
the distance between the first and third quartile as a share of the
median, which BENCHMARK.json bounds.  Then one traced run per workload
gives the layer metrics and each layer time's share of the traced wall
time.  A table goes to stderr and the JSON summary to stdout; the run
fails if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        results = [run(workload, seed, args.seconds, 0) for seed in seeds]
        ok &= all(r["correct"] for r in results)
        entry = {"runs": len(results), "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                         "unit": results[0]["metrics"][name]["unit"], "values": values}
            flag = "" if spread <= bounds[name] / 3 else ("  > bound/3" if spread <= bounds[name] else "  > BOUND")
            print(f"{workload:16} {name:14} median {median:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]}{flag}", file=sys.stderr)
        traced = run(workload, seeds[0], args.seconds, 1)
        ok &= traced["correct"]
        layer = {name: m["value"] for name, m in traced["metrics"].items()}
        wall = layer["trace.wall_s"]
        entry["per_layer"] = layer
        entry["layer_shares"] = {name: value / wall for name, value in layer.items()
                                 if name.endswith("_s") and name != "trace.wall_s" and value}
        for name, metric in traced["metrics"].items():
            share = entry["layer_shares"].get(name)
            note = f"  ({share:.1%} of traced wall)" if share is not None else ""
            print(f"{workload:16} {name:28} {metric['value']:12.6g} {metric['unit']}{note}",
                  file=sys.stderr)
        summary["workloads"][workload] = entry
    summary["correct"] = ok
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
