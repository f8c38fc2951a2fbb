#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the root of a popalloc checkout:

    python3 perfbench/repeat.py --seeds 1..10 --out summary.json
    python3 perfbench/repeat.py --seeds 11..20 --compare summary.json

For every workload and end-to-end metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, against the metric's bound in ``BENCHMARK.json``.
``--compare`` also reports how far each median moved from an earlier
summary, in the direction that makes the metric worse. Runs go seed by seed
with the workloads interleaved, so slow drift in machine load spreads over
all workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1..10", help="inclusive range, e.g. 1..10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--compare", help="earlier summary JSON to compare medians with")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_range(args.seeds):
        for workload in workloads:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            env = json.loads(next(
                line[len("env: "):] for line in proc.stdout.splitlines() if line.startswith("env: ")
            ))
            result.update(seed=seed, env=env)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"load={env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}", flush=True)

    earlier = json.loads(Path(args.compare).read_text())["summary"] if args.compare else {}
    summary: dict[str, dict] = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spec = specs[name]
            row = {
                "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0, "values": values,
            }
            line = (f"{workload:14s} {name:18s} median {median:14.6g} {spec['unit']:5s} "
                    f"spread {row['spread']:7.4f}")
            if "bound" in spec:
                line += f" bound {spec['bound']:.2f}"
            before = earlier.get(workload, {}).get(name)
            if before:
                sign = 1 if spec["better"] == "lower" else -1
                row["worse_by"] = sign * (median - before["median"]) / before["median"]
                line += f" worse_by {row['worse_by']:+.4f}"
            summary[workload][name] = row
            print(line)

    if args.out:
        record = {
            "seeds": args.seeds, "trace": args.trace, "run_seconds": bench["run_seconds"],
            "summary": summary, "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
