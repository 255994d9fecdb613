"""Run the benchmark over several seeds and report each metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...]
                                [--out FILE]

Runs are made one at a time, each with its own seed (first-seed onwards), for
``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric it
prints the quartiles of the per-run values, as ``statistics.quantiles(n=4)``
gives them, and the spread (q3 - q1) / median next to the metric's bound.
With ``--out`` the same figures are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=600, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or names:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        entry = {"runs": len(results),
                 "all_correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry["metrics"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "q1": q1, "median": median, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bound,
                "values": values,
            }
            print(f"{workload} {name}: median {median:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {(q3 - q1) / median:.3f} "
                  f"(bound {bound})", flush=True)
        print(f"{workload}: correct {entry['all_correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}", flush=True)
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
