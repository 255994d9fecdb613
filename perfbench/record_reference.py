"""Record the reference copy's own times, the yardstick's scale.

Run once, from the root of a checkout, when the benchmark's reference copy
(``reference/specforge_reference``) is taken or replaced:

    python3 perfbench/record_reference.py [--passes 3]

For every workload it runs the reference copy's commands on each input
variant ``--passes`` times, checking every output against ``golden.json``,
and records the mean over variants of each variant's median time to verdict.
It also records the median fresh-interpreter import time of the reference
copy.  ``run.py`` multiplies its measured program / reference ratios by
these figures, so they fix the scale of ``verdict_s`` and ``setup_s``, not
their movement.  Writes ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from run import (REFERENCE_TIMES, ROOT, VARIANTS, WORKLOADS, Checker, Tally,
                 load_reference, measure_setup, prepare, run_pass)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    os.environ.pop("SPECFORGE_THREADS", None)
    reference = load_reference()
    verdict_s = {}
    for name, workload in sorted(WORKLOADS.items()):
        per_variant = []
        for variant in range(VARIANTS):
            models, golden, workdir = prepare(workload, variant)
            checker, tally = Checker(golden), Tally()
            os.chdir(workdir)
            try:
                run_pass(reference, models, checker, tally)  # warm-up
                totals = [sum(o.seconds for o in
                              run_pass(reference, models, checker, tally))
                          for _ in range(args.passes)]
            finally:
                os.chdir(ROOT)
            if tally.failed:
                print(f"{name} variant {variant}: {tally.problems}", file=sys.stderr)
                return 1
            per_variant.append(statistics.median(totals))
            print(f"{name} variant {variant}: {per_variant[-1]:.4f} s", flush=True)
        verdict_s[name] = statistics.fmean(per_variant)
    _, setup = measure_setup()
    recorded = {
        "description": "Reference copy's time to verdict per workload (mean over "
                       f"the {VARIANTS} input variants of the median of "
                       f"{args.passes} passes) and its median fresh import time.",
        "machine": f"{os.cpu_count()} CPU {platform.machine()} {platform.system()}, "
                   f"Python {platform.python_version()}",
        "verdict_s": verdict_s,
        "setup_s": statistics.median(setup),
    }
    REFERENCE_TIMES.write_text(json.dumps(recorded, indent=1) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
