"""Record the golden SHA-256 digests of every benchmark input variant.

Run once, from the root of a checkout, at the commit whose outputs define
the contract (a later change may not alter a byte of them):

    python3 perfbench/record_golden.py

For every workload and input variant it runs each model's command once,
insists on the known exit code and, for ``.rho`` tables, on
the joint oracle, and writes the digests of the JSON report, stdout and
``.rho`` table to ``perfbench/golden.json``.
"""

from __future__ import annotations

import json
import os
import sys

from run import (GOLDEN, ROOT, VARIANTS, WORKLOADS, Checker, load_cli,
                 prepare, run_command)


def main() -> int:
    os.environ.pop("SPECFORGE_THREADS", None)
    cli = load_cli()
    golden: dict = {}
    for name, workload in sorted(WORKLOADS.items()):
        for variant in range(VARIANTS):
            models, _, workdir = prepare(workload, variant)
            checker = Checker(None)
            os.chdir(workdir)
            try:
                entry = {}
                for model in models:
                    outcome = run_command(cli, model, checker)
                    if outcome.problems:
                        print(f"{name} variant {variant}: {outcome.problems}",
                              file=sys.stderr)
                        return 1
                    entry[model.stem] = outcome.digests
            finally:
                os.chdir(ROOT)
            golden.setdefault(name, {})[str(variant)] = entry
            print(f"{name} variant {variant} recorded", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
