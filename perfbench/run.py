"""specforge benchmark: time to a verdict of check / construct / verify.

Run from the root of a checkout (no install needed, ``src`` is put on the
path):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's models are generated from the seed and written as ``.model``
files under ``.perfbench/<workload>/``; the real CLI entry point
``specforge.cli.main.main`` is then called in-process, one command at a
time, with fixed relative paths so that reports are byte-stable.

Timings are taken against a yardstick.  ``reference/specforge_reference`` is
a frozen copy of the package as it was when the benchmark was defined; it
never changes with the program.  Each command is run once by the program
and once by the reference copy, back to back in alternating order, so both
see the same host speed.  On a shared host CPU speed drifts by up to ~1.75x
for minutes at a time, which no estimator over raw seconds can hide, while
the program-to-reference ratio stays put.  Ratios are converted back to
seconds with the reference copy's own times recorded once in
``reference.json`` (see ``record_reference.py``); a faster or slower program
moves the ratio and so the reported seconds.

End-to-end metrics (``--trace 0``):

* ``verdict_s``: wall seconds of ``main([command, model, --json ...])``
  from call to returned exit code, summed over the workload's models: the
  median over the run's passes of program time / reference time, times the
  reference copy's recorded time to verdict on this workload;
* ``setup_s``: importing ``specforge`` and ``specforge.cli.main`` in a
  fresh interpreter, which every CLI call pays: the median over
  ``SETUP_SAMPLES`` pairs of fresh program / reference imports of their
  ratio, times the reference copy's recorded import time;
* ``peak_rss_mb``: peak resident set of the benchmark process after a
  warm-up pass of every command, taken before the reference copy is loaded.

Every command is checked, the reference copy's too: its exit code against
the verdict known from how the model was built, its JSON report, stdout and
``.rho`` table against the SHA-256 digests recorded at the seed commit
(``golden.json``), and each ``.rho`` record against the density computed
from the chain's product-form joint.  Seeds are folded onto ``VARIANTS``
input variants so that every input has a recorded digest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes of the program alone and prints the per-layer
metrics, in raw seconds, from spans recorded around specforge's public
functions (see ``tracer.py``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
REFERENCE = HERE / "reference"
REFERENCE_PACKAGE = "specforge_reference"
REFERENCE_TIMES = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import generate  # noqa: E402
from tracer import LAYERS, TARGETS, Tracer  # noqa: E402

VARIANTS = 32
SETUP_SAMPLES = 25

IMPORT_SNIPPET = (
    "import importlib, sys, time\n"
    "start = time.perf_counter()\n"
    "importlib.import_module(sys.argv[1])\n"
    "importlib.import_module(sys.argv[1] + '.cli.main')\n"
    "print(repr(time.perf_counter() - start))\n"
)


@dataclass
class Model:
    """One generated input: the command run on it, file stem, text and the
    exit code that command must return."""

    command: str
    stem: str
    text: str
    expected_exit: int
    chain: tuple | None = None  # (fields, pairs) of a positive chain

    @property
    def file(self) -> str:
        return self.stem + ".model"


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random], list[Model]]


def _positive_chain(rng: random.Random) -> list[Model]:
    # check: every symbol is good, so very weak positivity's good sets
    # dominate; construct: the axiom check's kernel arithmetic dominates.
    check_text, _, _ = generate.positive_chain(5, rng)
    build_text, fields, pairs = generate.positive_chain(4, rng)
    return [
        Model("check", "chain5", check_text, 0),
        Model("construct", "chain4", build_text, 0, chain=(fields, pairs)),
    ]


def _zero_density(rng: random.Random) -> list[Model]:
    # check: good sets shrink with the context and failing gates take the
    # witness path; verify: constructor rebuilds and measure suites dominate.
    return [
        Model("check", "hardcore5", generate.hardcore_chain(5, rng), 0),
        Model("check", "onesided5", generate.one_sided_hardcore(5, rng), 1),
        Model("check", "copycat5", generate.copycat(5, rng), 1),
        Model("verify", "hardcore4", generate.hardcore_chain(4, rng), 0),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("positive-chain", _positive_chain),
    Workload("zero-density", _zero_density),
)}

END_TO_END = (
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Every traced function except the root span around each CLI call.
TIMED_SPANS = tuple(name for name, _, _ in TARGETS if name != "cli.main")
COUNTED_SPANS = ("hypotheses.good_symbols", "constructor.build_family",
                 "constructor.extension_divisor", "constructor.assemble_kernel")
HIT_RATIOS = (("hypotheses.good_symbols", "good_symbols"),
              ("constructor.extension_divisor", "extension_divisor"))
REPORT_COUNTS = ("hypotheses.index_points", "hypotheses.comparisons",
                 "verifier.nested_pairs", "report.json_bytes", "report.rho_bytes")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {f"{name}_s": "s" for name in TIMED_SPANS}
    units.update({f"{name}_calls": "count" for name in COUNTED_SPANS})
    units.update({f"{name}_hit_ratio": "ratio" for name, _ in HIT_RATIOS})
    units.update({name: "B" if name.endswith("_bytes") else "count"
                  for name in REPORT_COUNTS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.untraced_s": "s", "trace.traced_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


# ---------------------------------------------------------------------------
# correctness

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rho_oracle(fields: dict, pairs: dict) -> dict:
    """Every .rho record of a positive chain, from its product-form joint.

    The density of region R at x is joint(x) divided by the sum, over the
    fills y of R, of joint(y on R, x off R) times the free weight of y.
    """
    sites = list(fields)
    n = len(sites)
    alphabet = generate.ALPHABET
    share = Fraction(1, len(alphabet))
    configs = list(itertools.product(alphabet, repeat=n))
    joint = {v: generate.chain_joint(fields, pairs, v) for v in configs}
    records = {}
    for mask in range(1, 2 ** n):
        region = [k for k in range(n) if mask >> k & 1]
        label = "+".join(sites[k] for k in region)
        weight = share ** len(region)
        for values in configs:
            total = Fraction(0)
            for fill in itertools.product(alphabet, repeat=len(region)):
                point = list(values)
                for k, sym in zip(region, fill):
                    point[k] = sym
                total += joint[tuple(point)] * weight
            records[(label, values, "default")] = joint[values] / total
    return records


def rho_records(text: str) -> dict:
    records = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        label, assignment, tail, value = line.split(" ")
        records[(label, tuple(assignment.split(",")), tail)] = Fraction(value)
    return records


@dataclass
class Outcome:
    """What one command produced."""

    seconds: float
    problems: list[str]
    digests: dict[str, str]
    report: dict | None
    json_bytes: int
    rho_bytes: int


@dataclass
class Checker:
    """Checks outcomes against known verdicts, golden digests and oracle."""

    golden: dict | None  # None records digests without comparing them
    oracle_checked: set = field(default_factory=set)

    def check(self, model: Model, code, stdout: str, seconds: float) -> Outcome:
        problems = []
        if isinstance(code, BaseException):
            problems.append(f"{model.stem}: raised {code!r}")
        elif code != model.expected_exit:
            problems.append(
                f"{model.stem}: exit {code}, expected {model.expected_exit}")
        digests = {"stdout": sha256(stdout.encode())}
        report = None
        json_bytes = 0
        json_path = Path(model.stem + ".json")
        if json_path.exists():
            raw = json_path.read_bytes()
            json_bytes = len(raw)
            digests["json"] = sha256(raw)
            try:
                report = json.loads(raw)
            except ValueError:
                problems.append(f"{model.stem}: JSON report does not parse")
        rho_bytes = 0
        rho_path = Path(model.stem + ".rho")
        if model.command == "construct" and rho_path.exists():
            raw = rho_path.read_bytes()
            rho_bytes = len(raw)
            digests["rho"] = sha256(raw)
            if model.chain and digests["rho"] not in self.oracle_checked:
                try:
                    records = rho_records(raw.decode())
                except ValueError:
                    records = None
                if records != rho_oracle(*model.chain):
                    problems.append(f"{model.stem}: .rho differs from the joint oracle")
                else:
                    self.oracle_checked.add(digests["rho"])
        if self.golden is not None:
            want = self.golden.get(model.stem)
            if want is None:
                problems.append(f"{model.stem}: no golden digests for this input")
            elif digests != want:
                differ = sorted(k for k in set(want) | set(digests)
                                if want.get(k) != digests.get(k))
                problems.append(
                    f"{model.stem}: digest mismatch in {', '.join(differ)}")
        return Outcome(seconds, problems, digests, report, json_bytes, rho_bytes)


# ---------------------------------------------------------------------------
# running commands

def _import_cli(path: Path, package: str):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
    cli = importlib.import_module(package + ".cli.main")
    here = Path(cli.__file__).resolve()
    if path not in here.parents:
        raise ImportError(f"{package} imported from {here}, not from {path}")
    return cli


def load_cli():
    """Import the CLI module from this checkout's ``src``."""
    return _import_cli(SRC, "specforge")


def load_reference():
    """Import the frozen reference copy's CLI module."""
    return _import_cli(REFERENCE, REFERENCE_PACKAGE)


def run_command(cli, model: Model, checker: Checker) -> Outcome:
    argv = [model.command, model.file, "--json", model.stem + ".json"]
    if model.command == "construct":
        argv += ["-o", model.stem + ".rho"]
    for stale in (model.stem + ".json", model.stem + ".rho"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(stale)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raise is a failed command, not a crash
            code = exc
        seconds = perf_counter() - start
    return checker.check(model, code, out.getvalue(), seconds)


def report_counts(outcomes: list[Outcome]) -> dict[str, int]:
    """Work counts read from the commands' JSON reports and outputs."""
    counts = dict.fromkeys(REPORT_COUNTS, 0)
    for outcome in outcomes:
        counts["report.rho_bytes"] += outcome.rho_bytes
        counts["report.json_bytes"] += outcome.json_bytes
        if outcome.report is None:
            continue
        for suite in outcome.report["suites"]:
            data = suite["data"]
            if suite["name"] == "very_weak_positivity":
                counts["hypotheses.index_points"] += data.get("index_points", 0)
            elif suite["name"] == "order_consistency":
                counts["hypotheses.comparisons"] += data.get("comparisons", 0)
            elif suite["name"] == "specification_axioms":
                checks = data.get("checks", {})
                counts["verifier.nested_pairs"] += checks.get("nested_pairs", 0)
    return counts


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            self.attempted += 1
            if outcome.problems:
                self.failed += 1
                self.problems.extend(outcome.problems)


def run_pass(cli, models: list[Model], checker: Checker,
             tally: Tally) -> list[Outcome]:
    outcomes = [run_command(cli, m, checker) for m in models]
    tally.add(outcomes)
    return outcomes


def pass_seconds(outcomes: list[Outcome]) -> list[float]:
    return [o.seconds for o in outcomes]


def best_total(passes: list[list[float]]) -> float:
    """Sum over models of each model's fastest time to verdict."""
    return sum(min(column) for column in zip(*passes))


def import_seconds(path: Path, package: str) -> float:
    """Import time of a package and its CLI module in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPECFORGE_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(path)
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, package], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True)
    return float(result.stdout)


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh-interpreter import times of the program and the reference copy,
    in ``SETUP_SAMPLES`` back-to-back pairs of alternating order.

    The untimed warm-up imports write the bytecode caches, as installing a
    package does, so the timed imports do not compile the sources.
    """
    sides = ((SRC, "specforge"), (REFERENCE, REFERENCE_PACKAGE))
    for side in sides:
        import_seconds(*side)
    live, ref = [], []
    for pair in range(SETUP_SAMPLES):
        for side in sides[::-1] if pair % 2 else sides:
            (live if side is sides[0] else ref).append(import_seconds(*side))
    return live, ref


def paired_pass(cli, reference, models, checker, tally, ref_tally,
                index: int) -> tuple[list[float], list[float]]:
    """Each model's command by the program and by the reference copy, back
    to back; which goes first alternates over models and passes."""
    live, ref = [], []
    for k, model in enumerate(models):
        first_live = (index + k) % 2 == 0
        for side in (cli, reference) if first_live else (reference, cli):
            outcome = run_command(side, model, checker)
            if side is cli:
                tally.add([outcome])
                live.append(outcome.seconds)
            else:
                ref_tally.add([outcome])
                ref.append(outcome.seconds)
    return live, ref


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        values = values * 2
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1/median/q3 {q1:.4f} / {q2:.4f} / {q3:.4f}"


def timed_run(cli, name, models, checker, seconds, tally) -> tuple[dict, list]:
    recorded = json.loads(REFERENCE_TIMES.read_text(encoding="utf-8"))
    run_pass(cli, models, checker, tally)  # warm-up
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    reference = load_reference()
    ref_tally = Tally()
    run_pass(reference, models, checker, ref_tally)  # warm-up
    setup_live, setup_ref = measure_setup()
    live_passes, ref_passes = [], []
    start = perf_counter()
    while not live_passes or perf_counter() - start < seconds:
        live, ref = paired_pass(cli, reference, models, checker, tally,
                                ref_tally, len(live_passes))
        live_passes.append(live)
        ref_passes.append(ref)
    if ref_tally.failed:
        problems = "; ".join(sorted(set(ref_tally.problems)))
        raise RuntimeError(f"the reference copy's outputs are wrong: {problems}")
    ratios = [sum(live) / sum(ref) for live, ref in zip(live_passes, ref_passes)]
    setup_ratios = [a / b for a, b in zip(setup_live, setup_ref)]
    reference_verdict_s = recorded["verdict_s"][name]
    metrics = {
        "verdict_s": statistics.median(ratios) * reference_verdict_s,
        "setup_s": statistics.median(setup_ratios) * recorded["setup_s"],
        "peak_rss_mb": rss_mb,
    }
    lines = [f"{m.command} {m.stem}: program {quartiles(list(lc))} s, "
             f"reference {quartiles(list(rc))} s, {len(lc)} passes"
             for m, lc, rc in zip(models, zip(*live_passes), zip(*ref_passes))]
    lines.append(f"program / reference per pass: {quartiles(ratios)}; "
                 f"verdict_s is the median times {reference_verdict_s} s, "
                 "the reference's recorded time to verdict")
    lines.append(f"setup_s fresh imports: program {quartiles(setup_live)} s, "
                 f"reference {quartiles(setup_ref)} s; median ratio times "
                 f"{recorded['setup_s']} s, the reference's recorded import time")
    return metrics, lines


def traced_run(cli, name, models, checker, seconds, tally) -> tuple[dict, list]:
    untraced, traced, summaries, counts = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(pass_seconds(run_pass(cli, models, checker, tally)))
        with Tracer() as tracer:
            outcomes = run_pass(cli, models, checker, tally)
        traced.append(pass_seconds(outcomes))
        summaries.append(tracer.summary())
        counts.append(report_counts(outcomes))
    first = summaries[0]
    exact = [(s["calls"], s["lookups"], s["misses"], s["spans"]) for s in summaries]
    if any(e != exact[0] for e in exact) or any(c != counts[0] for c in counts):
        tally.failed += 1
        tally.problems.append("work counts differ between traced passes")
    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = min(s["busy"][name] for s in summaries)
    for name in COUNTED_SPANS:
        metrics[f"{name}_calls"] = first["calls"][name]
    for name, kind in HIT_RATIOS:
        lookups = first["lookups"][kind]
        hits = lookups - first["misses"][kind]
        metrics[f"{name}_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics.update(counts[0])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = min(s["self"][layer] for s in summaries)
    metrics["trace.untraced_s"] = best_total(untraced)
    metrics["trace.traced_s"] = best_total(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    metrics["trace.spans"] = first["spans"]
    with open("spans.jsonl", "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    lines = [f"traced passes {len(traced)}; hit-ratio bases: "
             + ", ".join(f"{name}_calls" for name, _ in HIT_RATIOS)
             + "; spans of the last pass in spans.jsonl of the work directory"]
    return metrics, lines


# ---------------------------------------------------------------------------
# entry point

def prepare(workload: Workload, seed: int) -> tuple[list[Model], dict, Path]:
    variant = seed % VARIANTS
    models = workload.build(random.Random(variant))
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for model in models:
        (workdir / model.file).write_text(model.text, encoding="utf-8")
    golden: dict = {}
    if GOLDEN.exists():
        recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
        golden = recorded.get(workload.name, {}).get(str(variant), {})
    return models, golden, workdir


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("SPECFORGE_THREADS", None)
    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"perfbench: cannot load specforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    models, golden, workdir = prepare(workload, args.seed)
    tally = Tally()
    run = traced_run if args.trace else timed_run
    os.chdir(workdir)
    try:
        metrics, lines = run(cli, workload.name, models, Checker(golden),
                             args.seconds, tally)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(ROOT)
    units = per_layer_units() if args.trace else dict(END_TO_END)
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"error_rate {tally.failed / tally.attempted} ratio "
          f"({tally.failed} failed of {tally.attempted} commands)")
    for problem in sorted(set(tally.problems)):
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
