"""Command-line front end: check, construct, verify, replay.

Exit status contract: 0 means every gated suite passed, 1 means a suite
failed (the report carries a replayable witness), 2 means the input or
the invocation itself was unusable.  Reports are deterministic; two runs
over the same input produce byte-identical machine output.

The enumeration guardrail refuses models whose full construction would
exceed the cell budget (alphabet^sites * 2^sites * tail classes, default
10^7) before any work starts.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from ..constructor import (
    ConstructionError,
    DensityFamily,
    build_family,
    check_order_independence,
)
from ..core import SpecforgeError, _line_sum, _pair_text, _reduced
from ..hypotheses import (
    WITNESS_CAP,
    HypothesisFailure,
    HypothesisReport,
    Witness,
    check_bounded_positivity,
    check_order_consistency,
    check_pointwise_compatibility,
    check_uniqueness_condition,
    check_very_weak_positivity,
)
from ..models import SingletonFamily
from ..verifier import (
    FiniteMeasure,
    check_good_support_mass,
    check_measure_consistency,
    check_specification_axioms,
    good_support_report,
    quasilocality_diagnostic,
    ratio_bounds,
    roundtrip_reconstruction,
    support_class_certificate,
    uniqueness_probe,
)
from .modelfile import ModelFile, ModelFileError, parse_model_file
from .report import Report, encode_json, render_json, render_text

__all__ = ["main"]

DEFAULT_BUDGET = 10_000_000

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

VERIFY_FLAGS = ("axioms", "orders", "uniqueness", "measures", "roundtrip",
                "quasilocality", "exchange")


class UsageError(SpecforgeError):
    """The invocation cannot be served as given."""


# ---------------------------------------------------------------------------
# suite plumbing

class Job:
    """One named suite run: a callable producing a HypothesisReport."""

    def __init__(self, name: str, run: Callable[[], HypothesisReport],
                 gated: bool = True):
        self.name = name
        self.run = run
        self.gated = gated


def _guarded(name: str, run: Callable[[], HypothesisReport]) -> HypothesisReport:
    """Run a suite; a raised precondition becomes a failed report."""
    try:
        report = run()
    except SpecforgeError as exc:
        report = HypothesisReport(name=name, passed=False)
        report.witnesses.append(Witness(
            check=name,
            description=f"suite could not run: {exc}",
            replay={"error": type(exc).__name__},
        ))
        inner = getattr(exc, "report", None)
        if inner is not None:
            report.data["precondition"] = inner.as_dict()
        return report
    report.name = name
    return report


def run_jobs(jobs: list[Job], report: Report) -> None:
    """Execute suites in order and add each result to the report."""
    for job in jobs:
        report.add(_guarded(job.name, job.run), gate=job.gated)


# ---------------------------------------------------------------------------
# CLI-assembled suites (batteries over library checks)

def exchange_suite(dens: DensityFamily) -> HypothesisReport:
    """Both sides of the kernel exchange identity over all site pairs.

    For every unordered pair {a, b} of distinct sites, every ordered pair
    of symbol indicators f of a and g of b, and every exterior, the
    compositions γ_U(f · γ_a γ_b g) and γ_U(g · γ_b γ_a f), U = {a, b},
    agree on every family that passes the specification axioms, so they
    are not evaluated.  Write A = γ_a f and B = γ_b g.  By (a) and (b) a
    kernel is proper: γ_a(h · k) = k · γ_a h when k reads nothing in a,
    as B and A do.  With γ_U γ_a = γ_U from (c),
    γ_U(f · γ_a B) = γ_U(γ_a(f · γ_a B)) = γ_U(A · γ_a B) = γ_U(γ_a(AB))
    = γ_U(AB), and the mirror side, with γ_U γ_b = γ_U, is γ_U(BA).
    The report gives the count of an evaluation at one exterior per
    class off U: q² indicator pairs at T·q^(n−2) classes, so
    ``evaluations`` is C(n,2)·T·q^n for n sites, q symbols and T tail
    classes.  A family that fails the axioms raises `HypothesisFailure`
    carrying their report; ``verify`` builds with the gates checked, and
    a gated family passes the axioms, so it never raises there.
    """
    axioms = check_specification_axioms(dens)
    if not axioms.passed:
        raise HypothesisFailure(
            "exchange identity needs the specification axioms", report=axioms)
    space = dens.space
    n = len(space.universe)
    pairs = n * (n - 1) // 2
    evaluations = pairs * len(space.tail_classes) * len(space.alphabet) ** n
    return HypothesisReport(name="exchange_identity", passed=True,
                            data={"evaluations": evaluations, "site_pairs": pairs})


def measure_perturbation_suite(dens: DensityFamily, trials: int,
                               seed: int) -> HypothesisReport:
    """Perturbed window measures must lose consistency, detectably.

    Each trial moves a seeded sliver δ of mass between two support points
    of one class's full-window kernel measure μ.  The perturbed μ′ must
    not be fully consistent, and the singleton/full equivalence must hold.
    *Full consistency always fails:* the full-window kernel reads only the
    tail, so it maps μ′ to its row μ ≠ μ′.  *Class membership carries
    over:* 0 < δ < μ(lower) keeps μ's support, and a certificate line's
    zero pattern depends on the support alone.  So a trial fails exactly
    when μ is in the class and every single-site kernel preserves μ′.
    Multi-site rows are never read: where they lack mass one, pushing μ′
    through them raises ``DomainError`` and this suite does not.  Such
    rows fail axiom (b), which ``verify``'s checked build satisfies.
    The seeded draw reads the support sorted by `Configuration.key`.
    Weights are reduced pairs: with μ(lower) = a/b and k the draw,
    δ = a/(b·k), μ′(lower) = a·(k−1)/(b·k) and μ′(raised) = μ(raised) + δ,
    so μ′ totals 1 and is built from its pairs.
    """
    space = dens.space
    report = HypothesisReport(name="measure_perturbations", passed=True)
    import random  # only verify draws; kept off start-up
    rng = random.Random(seed)
    sites = space.universe.sites
    # the first configuration of each tail class
    firsts = [space.at(b) for b in space.class_bases(sites)]
    performed = 0
    skipped = 0
    for trial in range(trials):
        first = firsts[trial % len(firsts)]
        mu = FiniteMeasure.kernel_measure(dens, first)
        support = sorted(mu.weights, key=lambda index: space.at(index).key)
        if len(support) < 2:
            skipped += 1
            continue
        if not space.free.is_normalized:
            raise HypothesisFailure(
                "measure consistency needs normalized free weights")
        raised, lowered = rng.sample(support, 2)
        k = rng.randint(2, 9)
        num, den = mu.weights[lowered]
        delta = _reduced(num, den * k)
        weights = dict(mu.weights)
        weights[raised] = _reduced(*_line_sum((weights[raised], delta)))
        weights[lowered] = _reduced(num * (k - 1), den * k)
        perturbed = FiniteMeasure._of_pairs(space, weights)
        performed += 1
        if (support_class_certificate(mu, dens.singletons).passed
                and all(perturbed.preserved_by(dens, (site,)) for site in sites)):
            report.fail(WITNESS_CAP, lambda: Witness(
                check="measure_perturbations",
                description=(
                    "perturbed measure broke the singleton/full equivalence"
                ),
                replay={
                    "trial": trial, "tail": first.tail,
                    "raise_assignment": list(space.at(raised).values),
                    "lower_assignment": list(space.at(lowered).values),
                    "delta": _pair_text(*delta),
                },
            ))
    report.data = {"seed": seed, "trials": trials, "performed": performed,
                   "skipped": skipped, "detected": performed}
    return report


# ---------------------------------------------------------------------------
# suite catalogs per command

def check_jobs(fam: SingletonFamily) -> list[Job]:
    return [
        Job("very_weak_positivity", lambda: check_very_weak_positivity(fam)),
        Job("order_consistency", lambda: check_order_consistency(fam)),
        Job("pointwise_compatibility",
            lambda: check_pointwise_compatibility(fam), gated=False),
        Job("uniqueness_condition",
            lambda: check_uniqueness_condition(fam), gated=False),
        Job("bounded_positivity",
            lambda: check_bounded_positivity(fam), gated=False),
    ]


def uniqueness_applicable(fam: SingletonFamily) -> bool:
    return fam.space.free.is_positive and check_uniqueness_condition(fam).passed


def measure_jobs(model: ModelFile, dens: DensityFamily) -> list[Job]:
    jobs = [Job("good_support", lambda: good_support_report(dens))]
    space = dens.space
    for first in map(space.at, space.class_bases(space.universe.sites)):
        def consistency(cfg=first) -> HypothesisReport:
            return check_measure_consistency(FiniteMeasure.kernel_measure(dens, cfg), dens)

        def support_mass(cfg=first) -> HypothesisReport:
            return check_good_support_mass(FiniteMeasure.kernel_measure(dens, cfg), dens)

        jobs.append(Job(f"measure_consistency[kernel:{first.tail}]", consistency))
        jobs.append(Job(f"support_mass[kernel:{first.tail}]", support_mass))
    jobs.append(Job("measure_perturbations",
                    lambda: measure_perturbation_suite(
                        dens, model.trials, model.seed)))
    return jobs


def verify_jobs(model: ModelFile, fam: SingletonFamily, dens: DensityFamily,
                joint: dict | None, selected: dict[str, bool]) -> list[Job]:
    jobs: list[Job] = []
    if selected["axioms"]:
        jobs.append(Job("specification_axioms",
                        lambda: check_specification_axioms(dens)))
        jobs.append(Job("ratio_bounds", lambda: ratio_bounds(dens), gated=False))
    if selected["orders"]:
        jobs.append(Job("order_independence",
                        lambda: check_order_independence(
                            fam, permutation_cap=model.permutations,
                            seed=model.seed)))
    if selected["uniqueness"]:
        jobs.append(Job("uniqueness_probe",
                        lambda: uniqueness_probe(
                            dens, trials=model.trials, seed=model.seed)))
    if selected["measures"]:
        jobs.extend(measure_jobs(model, dens))
    if selected["exchange"]:
        jobs.append(Job("exchange_identity", lambda: exchange_suite(dens)))
    if selected["quasilocality"]:
        jobs.append(Job("quasilocality",
                        lambda: quasilocality_diagnostic(dens), gated=False))
    if selected["roundtrip"]:
        jobs.append(Job("roundtrip_reconstruction",
                        lambda: roundtrip_reconstruction(fam, joint)))
    return jobs


def select_verify_suites(args: argparse.Namespace, model: ModelFile,
                         fam: SingletonFamily, joint: dict | None,
                         report: Report) -> dict[str, bool]:
    """Which verify suites run: explicit flags, else everything applicable."""
    explicit = {flag: bool(getattr(args, flag)) for flag in VERIFY_FLAGS}
    if any(explicit.values()):
        if explicit["roundtrip"] and joint is None:
            raise UsageError(
                "--roundtrip needs a model of kind joint (no joint weight here)")
        if explicit["measures"] and not fam.space.free.is_normalized:
            raise UsageError(
                "--measures needs normalized free weights; rebalance the model")
        return explicit
    selected = {flag: True for flag in VERIFY_FLAGS}
    if joint is None:
        selected["roundtrip"] = False
    if not fam.space.free.is_normalized:
        selected["measures"] = False
        report.note("measures skipped: free weights are not normalized")
    if not uniqueness_applicable(fam):
        selected["uniqueness"] = False
        report.note("uniqueness probe skipped: its mass precondition fails")
    return selected


# ---------------------------------------------------------------------------
# rho table serialization

def rho_table_lines(dens: DensityFamily) -> list[str]:
    """One record per (region, full assignment, tail class), sorted.

    Fields are space-separated: the region as plus-joined site labels,
    the full window assignment as comma-joined symbols, the tail class,
    and the exact rational value, written straight from the table's
    reduced pair as ``n`` or ``n/d`` (`_pair_text`).  Lexicographic line
    order makes the file bit-exact across platforms.
    """
    points = [f"{','.join(cfg.values)} {cfg.tail}" for cfg in dens.space.configurations()]
    lines = []
    for region in dens.regions():
        if not region:
            continue
        label = "+".join(str(site) for site in region)
        lines.extend(f"{label} {point} {_pair_text(*value)}"
                     for point, value in zip(points, dens._tables[region]))
    return sorted(lines)


def write_rho_table(path: str, dens: DensityFamily, model_name: str,
                    digest: str) -> int:
    lines = rho_table_lines(dens)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# specforge rho table v1\n")
        handle.write(f"# model {model_name} sha256 {digest}\n")
        handle.write("# record: region assignment tail value\n")
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


# ---------------------------------------------------------------------------
# model loading and guardrail

def load_model(path: str, budget: int) -> ModelFile:
    model = parse_model_file(path)
    cells = model.cell_count()
    if cells > budget:
        raise UsageError(
            f"model enumerates {cells} table cells, over the budget of "
            f"{budget}; drop sites, symbols or tail classes, or raise "
            f"--budget if you accept the wait")
    return model


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file, written yet or not."""
    if os.path.realpath(first) == os.path.realpath(second):
        return True
    try:
        return os.path.samefile(first, second)
    except OSError:  # one of them does not exist yet
        return False


def check_output_paths(args: argparse.Namespace) -> None:
    """Refuse, before any work, an output path that cannot be written as
    asked: under a missing directory, itself a directory, the model file,
    or, for ``construct``, the report and the table at one path."""
    outputs = [("--json", getattr(args, "json", None))]
    if args.command == "construct":
        outputs.append(("--out", args.out or _default_out(args.model)))
    outputs = [(flag, path) for flag, path in outputs if path]
    for flag, path in outputs:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise UsageError(
                f"cannot write {flag} {path!r}: {parent!r} is not a directory")
        if os.path.isdir(path):
            raise UsageError(f"cannot write {flag} {path!r}: it is a directory")
        if _same_file(path, args.model):
            raise UsageError(
                f"cannot write {flag} {path!r}: it is the model file")
    if len(outputs) == 2 and _same_file(outputs[0][1], outputs[1][1]):
        raise UsageError(
            f"cannot write --json and --out to one file, {outputs[0][1]!r}")


def positive_budget(text: str) -> int:
    """``--budget``: a positive number of table cells."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def fresh_report(command: str, model: ModelFile, budget: int) -> Report:
    return Report(
        command=command,
        model_path=model.path,
        model_name=model.name,
        model_sha256=model.sha256,
        cells=model.cell_count(),
        budget=budget,
    )


def emit(report: Report, model: ModelFile, json_path: str | None) -> int:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(render_json(report))
    sys.stdout.write(render_text(report, model.float_tolerance))
    return report.exit_code


# ---------------------------------------------------------------------------
# commands

def cmd_check(args: argparse.Namespace) -> int:
    model = load_model(args.model, args.budget)
    _, fam, _ = model.realize()
    report = fresh_report("check", model, args.budget)
    run_jobs(check_jobs(fam), report)
    return emit(report, model, args.json)


def cmd_construct(args: argparse.Namespace) -> int:
    model = load_model(args.model, args.budget)
    _, fam, _ = model.realize()
    report = fresh_report("construct", model, args.budget)
    run_jobs(check_jobs(fam)[:2], report)
    if report.passed:
        dens = build_family(fam, sweep=model.sweep, checked=False)
        axioms = _guarded("specification_axioms",
                          lambda: check_specification_axioms(dens))
        report.add(axioms, gate=True)
        normalized = axioms.data.get("point_mass_off_region", False)
        report.note("normalization (kernel mass one): "
                    + ("pass" if normalized else "fail"))
        if report.passed:
            out = args.out or _default_out(args.model)
            records = write_rho_table(out, dens, model.name, report.model_sha256)
            report.note(f"wrote {records} records to {out}")
    else:
        report.note("construction not attempted: hypothesis gate failed")
    return emit(report, model, args.json)


def _default_out(model_path: str) -> str:
    base = os.path.basename(model_path)
    stem = base[:-len(".model")] if base.endswith(".model") else base
    return stem + ".rho"


def _construction_failure(exc: ConstructionError) -> HypothesisReport:
    """The failed ``construction`` report for a build that raised."""
    failed = HypothesisReport(name="construction", passed=False,
                              data={"error": str(exc)})
    if exc.witness:
        failed.witnesses.append(exc.witness)
    return failed


def cmd_verify(args: argparse.Namespace) -> int:
    model = load_model(args.model, args.budget)
    _, fam, joint = model.realize()
    report = fresh_report("verify", model, args.budget)
    try:
        dens = build_family(fam, sweep=model.sweep, checked=True)
    except ConstructionError as exc:
        report.add(_construction_failure(exc), gate=True)
        return emit(report, model, args.json)
    selected = select_verify_suites(args, model, fam, joint, report)
    run_jobs(verify_jobs(model, fam, dens, joint, selected), report)
    return emit(report, model, args.json)


def replay_catalog(model: ModelFile) -> dict[str, Callable[[], HypothesisReport]]:
    """Every suite name the pipelines can emit, as a rerunnable job."""
    _, fam, joint = model.realize()
    catalog: dict[str, Callable[[], HypothesisReport]] = {
        job.name: job.run for job in check_jobs(fam)
    }

    def construction() -> HypothesisReport:
        try:
            build_family(fam, sweep=model.sweep, checked=True)
        except ConstructionError as exc:
            return _construction_failure(exc)
        return HypothesisReport(name="construction", passed=True)

    catalog["construction"] = construction
    try:
        dens = build_family(fam, sweep=model.sweep, checked=True)
    except ConstructionError:
        return catalog
    selected = {flag: True for flag in VERIFY_FLAGS}
    selected["roundtrip"] = joint is not None
    for job in verify_jobs(model, fam, dens, joint, selected):
        catalog[job.name] = job.run
    return catalog


def cmd_replay(args: argparse.Namespace) -> int:
    import json  # only replay reads JSON; the start-up of the rest skips it
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read report {args.report!r}: {exc}")
    entries = recorded.get("suites", []) if isinstance(recorded, dict) else None
    if (not isinstance(entries, list)
            or not isinstance(recorded.get("model", {}), dict)
            or not all(isinstance(s, dict) and "name" in s
                       and isinstance(s.get("witnesses", []), list)
                       for s in entries)):
        raise UsageError(
            f"report {args.report!r} does not fit the schema: expected an "
            "object with a 'model' object and 'suites' entries that each "
            "carry a 'name' and a list of 'witnesses'")
    suites = {s["name"]: s for s in entries}
    if args.suite not in suites:
        raise UsageError(
            f"report has no suite named {args.suite!r}; it has: "
            + ", ".join(sorted(suites)))
    witnesses = suites[args.suite].get("witnesses", [])
    if not 0 <= args.witness < len(witnesses):
        raise UsageError(
            f"suite {args.suite!r} recorded {len(witnesses)} witnesses; "
            f"index {args.witness} is out of range")
    recorded_witness = witnesses[args.witness]
    model_path = args.model or recorded.get("model", {}).get("path")
    if not model_path:
        raise UsageError("report records no model path; pass --model")
    model = load_model(model_path, args.budget)
    if model.sha256 != recorded.get("model", {}).get("sha256"):
        raise UsageError(
            f"model file {model_path!r} no longer matches the report "
            "(sha256 differs); replay needs the original input")
    catalog = replay_catalog(model)
    if args.suite not in catalog:
        raise UsageError(f"suite {args.suite!r} is not replayable for this model")
    fresh = _guarded(args.suite, catalog[args.suite])
    target = encode_json(recorded_witness)
    reproduced = any(encode_json(w.as_dict()) == target for w in fresh.witnesses)
    if reproduced:
        sys.stdout.write(
            f"replay: witness {args.witness} of {args.suite} reproduced\n")
        return EXIT_FAIL
    sys.stdout.write(
        f"replay: witness {args.witness} of {args.suite} no longer occurs\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specforge",
        description=(
            "Construct full conditional-kernel families from single-site "
            "kernels and verify them exactly."),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--budget", type=positive_budget, default=DEFAULT_BUDGET,
                         metavar="CELLS",
                         help="enumeration guardrail (default %(default)s)")

    def reporting(sub: argparse.ArgumentParser) -> None:
        """``common`` plus ``--json``, for the commands that write a report."""
        sub.add_argument("--json", metavar="PATH",
                         help="also write the machine-readable report here")
        common(sub)

    check = commands.add_parser(
        "check", help="run the hypothesis checks on a model's singletons")
    check.add_argument("model", help="model definition file")
    reporting(check)
    check.set_defaults(handler=cmd_check)

    construct = commands.add_parser(
        "construct", help="build every region's density table and save it")
    construct.add_argument("model", help="model definition file")
    construct.add_argument("-o", "--out", metavar="PATH",
                           help="output table path (default: <model>.rho)")
    reporting(construct)
    construct.set_defaults(handler=cmd_construct)

    verify = commands.add_parser(
        "verify", help="run verification suites over the built family")
    verify.add_argument("model", help="model definition file")
    for flag in VERIFY_FLAGS:
        verify.add_argument(f"--{flag}", action="store_true",
                            help=f"run the {flag} suite")
    reporting(verify)
    verify.set_defaults(handler=cmd_verify)

    replay = commands.add_parser(
        "replay", help="re-execute one recorded failure witness")
    replay.add_argument("report", help="machine-readable report file")
    replay.add_argument("--suite", required=True,
                        help="suite name as recorded in the report")
    replay.add_argument("--witness", type=int, default=0, metavar="INDEX",
                        help="witness index within the suite (default 0)")
    replay.add_argument("--model", metavar="PATH",
                        help="model file override (default: path in report)")
    common(replay)
    replay.set_defaults(handler=cmd_replay)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # built on the first call, not at import, and kept for the process:
    # parsing leaves no state on it
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the code
        return int(exc.code or 0)
    try:
        check_output_paths(args)
        return args.handler(args)
    except (ModelFileError, UsageError) as exc:
        print(f"specforge: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecforgeError as exc:
        print(f"specforge: invalid model: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"specforge: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
