"""Each gate and the default build run once per family and command.

The gate reports (very weak positivity, order consistency, uniqueness
condition) are memoised on the singleton family per witness cap, and the
family built under each sweep order on the singleton family too.  Body
runs are counted by the reports the gates construct and by the sweeps
that build a family; ``check_order_independence`` runs no sweep and at
most one ``extend_density`` per (region, joining site).  A memoised
report must equal a fresh computation on a newly parsed family.  The
support suites read good membership off the good-point tables alone,
each built once per (site, context); misses are counted by wrapping
``SingletonFamily.cached``.  A failing ``check`` walks the index points
of very weak positivity and the uniqueness condition once: both read
one good-set sweep record, which calls no ``good_symbols`` and looks up
no configuration, and each gate looks one up per witness it keeps.
The measure suites push a measure only through the kernels their
verdicts read: the perturbation suite through at most one single-site
kernel per site and trial, the mass suite through none once the
measure's certificate is memoised.
Ratio integrals are counted by wrapping the families' memos.  They are
evaluated only in one table per ordered pair of regions (over, against),
filled at most once per family: the gates and the build read the
singleton family's tables of two sites, so that
``check_bounded_positivity`` fills none after
``check_order_consistency`` on a positive family, and ``build_family``
none that the gates have; the build keeps those of larger regions.  The
build and the block splits of ``check_order_independence`` fill every
table that ``good_support_report`` and ``uniqueness_probe`` read on a
positive family: each core point's own block is a good block of every
split of its region.  Once the block splits have passed, those two suites read
their record and walk nothing: a full ``verify`` of ``CHAIN5`` runs no
support walk and reads no ratio integral inside them.  A block split
that is a single-site join the sweeps have compared walks no cell of
its own.  A kernel measure is pushed only through the regions whose
nested pair of axiom (c) with the window failed: through none in a
full ``verify``, and through exactly those on a sibling whose window
row was replaced.
Kernel rows and measures are keyed by configuration index, so ``verify``
turns no ``(values, tail)`` key back into a configuration: it calls
``Space.make`` zero times.
Part (c) of the specification axioms is recorded once per family, and
the axiom report is computed once per witness cap although ``construct``
and several ``verify`` suites ask for it.  The exchange suite and the
uniqueness probe's self-check read that record: on a passing family
neither composes a kernel row with another of the same family.
``check`` reads bounded positivity's strict identity off the order
consistency report on a positive family, walking no cell of its own;
it decides order consistency of ``CHAIN5`` one site pair at a time and
reads pointwise compatibility off it, walking neither per configuration;
and a ``SingletonFamily`` checks unit mass with one integer line sum per
site and exterior class, building no extended rational.  ``normalize``
reads each raw weight once and builds its family without that check:
it does not call ``_check_unit_mass``; a
potential or table model looks up each site's pair tables or
complement once per universe.  A full ``verify`` checks the axioms
before order independence and reads the latter off their record,
computing no extension divisor inside it; ``verify --orders`` walks.
"""

import importlib
import itertools
from collections import Counter
from importlib import resources

import pytest

from specforge import constructor, hypotheses, models, verifier
from specforge.cli.main import main
from specforge.cli.modelfile import parse_model_file
from specforge.core import Space
from specforge.models import SingletonFamily, TableModel, normalize
from specforge.verifier import (
    FiniteMeasure,
    check_good_support_mass,
    check_specification_axioms,
    good_support_report,
    support_class_certificate,
    uniqueness_probe,
)

from test_bundled_golden import CHAIN5
from test_recorded_route_bytes import hardcore_chain
import oracles
import zoo
from zoo import alternating_exclusion_family, hardcore_family, potential_family

# the package re-exports the function ``main`` under the module's name
cli = importlib.import_module("specforge.cli.main")

MODELS = ("broken_h2", "example1", "extracted", "independent", "potential")
GATES = {
    "very_weak_positivity": hypotheses.check_very_weak_positivity,
    "order_consistency": hypotheses.check_order_consistency,
    "uniqueness_condition": hypotheses.check_uniqueness_condition,
}


def bundled(model: str) -> str:
    return str(resources.files("specforge") / "data" / f"{model}.model")


@pytest.fixture
def runs(monkeypatch) -> Counter:
    """Counts gate bodies by report name and sweeps by order."""
    counts: Counter = Counter()

    class CountedReport(hypotheses.HypothesisReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.name in GATES:
                counts[self.name] += 1

    honest_sweep = constructor._sweep

    def counted_sweep(singletons, order, *rest):
        counts[("sweep", tuple(order))] += 1
        return honest_sweep(singletons, order, *rest)

    monkeypatch.setattr(hypotheses, "HypothesisReport", CountedReport)
    monkeypatch.setattr(constructor, "_sweep", counted_sweep)
    return counts


@pytest.fixture
def integrals(monkeypatch) -> Counter:
    """Counts the ratio tables filled over every family's memo, by
    (owner, over, against): a table is filled when a ``"ratio_table"``
    memo entry is computed, on a singleton or a density family.  The
    fixture also checks that `_ratio_line`, the line sum of every ratio
    integral, runs only inside a fill, so that no evaluation escapes the
    count.
    """
    counts: Counter = Counter()
    depth = Counter()
    honest_line = models._ratio_line

    def counted_line(*args):
        assert depth["fill"] > 0, "a ratio integral evaluated outside its table"
        return honest_line(*args)

    def counting(cached):
        def counted(self, key, compute):
            if key[0] != "ratio_table":
                return cached(self, key, compute)

            def evaluate():
                counts[self, key[1], key[2]] += 1
                depth["fill"] += 1
                try:
                    return compute()
                finally:
                    depth["fill"] -= 1
            return cached(self, key, evaluate)
        return counted

    monkeypatch.setattr(models, "_ratio_line", counted_line)
    for owner in (SingletonFamily, constructor.DensityFamily):
        monkeypatch.setattr(owner, "cached", counting(owner.cached))
    return counts


def single_site(fill) -> bool:
    """Whether a counted fill integrates one site against one site."""
    _, over, against = fill
    return len(over) == len(against) == 1


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("command", ["check", "construct", "verify"])
def test_each_gate_and_the_default_build_run_once(
        model, command, runs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [command, bundled(model), "--json", "report.json"]
    if command == "construct":
        argv += ["-o", "out.rho"]
    main(argv)
    capsys.readouterr()
    expected = Counter({"very_weak_positivity": 1, "order_consistency": 1})
    if command == "check":
        expected["uniqueness_condition"] = 1
    report = (tmp_path / "report.json").read_text()
    space, _, _ = parse_model_file(bundled(model)).realize()
    default = ("sweep", space.universe.sites)
    if command == "construct" and "construction not attempted" not in report:
        expected[default] = 1
    if command == "verify" and '"construction"' not in report:
        expected[default] = 1
        if all(space.free.weight(site, symbol) > 0
               for site in space.universe for symbol in space.alphabet):
            expected["uniqueness_condition"] = 1
    assert runs == expected


@pytest.mark.parametrize("build", [lambda: hardcore_family(4),
                                   lambda: potential_family(1, n_sites=5)[2]],
                         ids=["hardcore_4", "potential_1_5"])
def test_order_independence_joins_each_region_once_per_site(build, runs, monkeypatch):
    family = build()
    constructor.build_family(family)
    runs.clear()
    honest_extend = constructor.extend_density

    def counted_extend(*args):
        runs["extend_density"] += 1
        return honest_extend(*args)

    monkeypatch.setattr(constructor, "extend_density", counted_extend)
    assert constructor.check_order_independence(family).passed
    n = len(family.space.universe)
    assert set(runs) == {"extend_density"}
    assert runs["extend_density"] <= n * 2 ** (n - 1) - n


@pytest.mark.parametrize("build", [lambda: hardcore_family(4),
                                   lambda: potential_family(1, n_sites=4)[2]],
                         ids=["hardcore_4", "potential_1_4"])
def test_block_splits_walk_no_cell_a_join_has_walked(build, monkeypatch):
    """Every (region, site) join is compared once, and a single-site split
    whose join passed walks no cell of its own."""
    family = build()
    constructor.build_family(family)
    walked = Counter()
    honest_cells = constructor._extended_cells

    def counted_cells(dens, theta, gamma):
        for cell in honest_cells(dens, theta, gamma):
            walked[theta, tuple(gamma)] += 1
            yield cell

    monkeypatch.setattr(constructor, "_extended_cells", counted_cells)
    report = constructor.check_order_independence(family)
    assert report.passed and not report.data["permutations_sampled"]
    space = family.space
    n = len(space.universe)
    cells = len(list(space.configurations()))
    joins = n * 2 ** (n - 1) - n
    multi_site_splits = 3 ** n - 2 ** (n + 1) + 1 - joins
    assert report.data["block_splits_tested"] == joins + multi_site_splits
    assert set(walked.values()) == {cells}
    assert len(walked) == joins + multi_site_splits


@pytest.mark.parametrize("build", [lambda: hardcore_family(4),
                                   lambda: potential_family(1, n_sites=4)[2]],
                         ids=["hardcore_4", "potential_1_4"])
def test_a_walk_whose_joins_all_hold_reads_no_sweep_order(build, monkeypatch):
    """A sweep order can change a table only through a failing join, so
    the walk, with no axiom record to read, evaluates each (region, site)
    join once and, when all of them hold, lists the orders but never
    iterates them."""
    family = build()
    honest_orders = constructor._sweep_orders

    class Unread(list):
        def __iter__(self):
            raise AssertionError("the walk iterated the sweep orders")

    def unread_orders(*args):
        perms, sampled = honest_orders(*args)
        return Unread(perms), sampled

    monkeypatch.setattr(constructor, "_sweep_orders", unread_orders)
    report = constructor.check_order_independence(family)
    assert report.passed
    assert report.data["permutations_tested"] == 24
    assert report.data["permutation_mismatches"] == 0


def test_verify_evaluates_each_ratio_integral_once(integrals, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    assert main(["verify", "chain5.model"]) == 0
    capsys.readouterr()
    assert integrals and max(integrals.values()) == 1
    assert not all(map(single_site, integrals))


@pytest.mark.parametrize("model", ["example1", "chain5"])
def test_verify_makes_no_configuration_from_a_key(model, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    calls = []
    honest = Space.make

    def counted(self, values, tail):
        calls.append((values, tail))
        return honest(self, values, tail)

    monkeypatch.setattr(Space, "make", counted)
    assert main(["verify", bundled(model) if model == "example1" else "chain5.model"]) == 0
    capsys.readouterr()
    assert calls == []


def test_check_evaluates_each_single_site_integral_once(
        integrals, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    assert main(["check", "chain5.model"]) == 0
    capsys.readouterr()
    sites = [f"s{k}" for k in range(1, 6)]
    assert len({owner for owner, _, _ in integrals}) == 1
    assert Counter({(over, against): count for (_, over, against), count in integrals.items()}
                   ) == Counter({((i,), (j,)): 1 for i, j in itertools.permutations(sites, 2)})


def test_construct_evaluates_each_single_site_integral_once(integrals):
    """The gates and the build share one table per ordered site pair."""
    family = potential_family(1, n_sites=5)[2]
    assert hypotheses.check_very_weak_positivity(family).passed
    assert hypotheses.check_order_consistency(family).passed
    assert hypotheses.check_bounded_positivity(family).passed
    gated = Counter(integrals)
    constructor.build_family(family, checked=False)
    assert gated and all(map(single_site, gated))
    assert Counter({fill: count for fill, count in integrals.items() if single_site(fill)}
                   ) == gated
    assert integrals != gated and max(integrals.values()) == 1


def test_bounded_positivity_reads_the_order_consistency_integrals(integrals):
    family = potential_family(1, n_sites=5)[2]
    assert hypotheses.check_order_consistency(family).passed
    made = Counter(integrals)
    assert hypotheses.check_bounded_positivity(family).passed
    assert made and integrals == made


def test_support_and_probe_integrals_are_block_split_entries(integrals):
    family = potential_family(1, n_sites=5)[2]
    assert constructor.check_order_independence(family).passed
    made = Counter(integrals)
    dens = constructor.build_family(family)
    support = good_support_report(dens)
    probe = uniqueness_probe(dens)
    assert support.passed and support.data["core_points"] > 0
    assert probe.passed and probe.data["rederived_points"] > 0
    assert made and integrals == made


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("gate", sorted(GATES))
def test_memoised_report_equals_a_fresh_one(model, gate):
    _, family, _ = parse_model_file(bundled(model)).realize()
    first = GATES[gate](family)
    try:
        constructor.build_family(family)
    except constructor.ConstructionError:
        pass
    assert GATES[gate](family) is first
    _, fresh, _ = parse_model_file(bundled(model)).realize()
    assert first.as_dict() == GATES[gate](fresh).as_dict()


@pytest.mark.parametrize("gate", sorted(GATES))
def test_another_witness_cap_recomputes(gate, runs):
    _, family, _ = parse_model_file(bundled("broken_h2")).realize()
    full = GATES[gate](family)
    capped = GATES[gate](family, witness_cap=1)
    assert capped is not full
    assert GATES[gate](family, witness_cap=1) is capped
    assert capped.as_dict() == {**full.as_dict(),
                                "witnesses": full.as_dict()["witnesses"][:1]}
    assert runs[gate] == 2


def test_a_raised_precondition_is_not_memoised(runs):
    family = alternating_exclusion_family()
    for _ in range(2):
        with pytest.raises(hypotheses.HypothesisFailure) as err:
            hypotheses.check_order_consistency(family)
        assert not err.value.report.passed
    assert runs == Counter({"very_weak_positivity": 1})


@pytest.mark.parametrize("build", [lambda: hardcore_family(4),
                                   lambda: potential_family(1, 4)[2]],
                         ids=["hardcore_4", "potential_1_4"])
def test_support_suites_build_each_good_point_table_once(build, monkeypatch):
    family = build()
    misses: Counter = Counter()
    honest_cached = SingletonFamily.cached

    def counted_cached(self, key, compute):
        def counted():
            misses[key] += 1
            return compute()
        return honest_cached(self, key, counted)

    monkeypatch.setattr(SingletonFamily, "cached", counted_cached)
    dens = constructor.build_family(family, checked=False)
    mu = FiniteMeasure.kernel_measure(dens, next(family.space.configurations()))
    calls = Counter()
    honest_good = hypotheses.good_symbols

    def counted_good(*args):
        calls["good_symbols"] += 1
        return honest_good(*args)

    monkeypatch.setattr(hypotheses, "good_symbols", counted_good)
    support_class_certificate(mu, family)
    good_support_report(dens)
    check_good_support_mass(mu, dens)
    assert calls["good_symbols"] == 0
    tables = [key for key in misses if key[0] == "good_points"]
    n = len(family.space.universe)
    assert all(misses[key] == 1 for key in tables)
    assert len(tables) <= n * 2 ** (n - 1)
    assert {key[0] for key in family._cache} & {"admissible_points", "bad_points"} == set()


def test_good_symbols_memoises_nothing_per_exterior():
    family = hardcore_family(4)
    constructor.build_family(family, checked=True)
    keys = [key for key in family._cache if key[0] == "good_symbols"]
    n = len(family.space.universe)
    assert keys and all(len(key) == 3 for key in keys)
    assert len(keys) <= n * 2 ** (n - 1)


def copycat_model(n: int = 3) -> str:
    """Each site copies its right neighbour (the last its left one): its
    density is 1 where it holds the neighbour's symbol, else 0, so no
    symbol is good against the empty context."""
    sites = [f"s{k}" for k in range(1, n + 1)]
    lines = [f"name copycat{n}", "sites " + " ".join(sites), "alphabet a b",
             "free uniform", "kind table"]
    for k, site in enumerate(sites):
        copied = k + 1 if k + 1 < n else k - 1
        for values in itertools.product("ab", repeat=n):
            ctx = " ".join(values[:k] + values[k + 1:])
            weight = 1 if values[k] == values[copied] else 0
            lines.append(f"entry {site} {values[k]} {ctx} default {weight}")
    return "\n".join(lines) + "\n"


def test_a_failing_check_sweeps_the_index_points_once(tmp_path, monkeypatch, capsys):
    """Very weak positivity and the uniqueness condition of a failing
    ``check`` read one good-set sweep record.  The sweep calls no
    ``good_symbols`` and looks up no configuration; each gate looks up
    one per witness it keeps, and very weak positivity, which runs
    first, one per tail class more: the first member of the class, at
    which its floor good sets call ``good_symbols``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "copycat3.model").write_text(copycat_model(), encoding="utf-8")
    counts: Counter = Counter()
    inside: list = []
    reports = {}
    honest_cached = SingletonFamily.cached
    honest_good = hypotheses.good_symbols
    honest_at = Space.at

    def within(name, run, *args, **kwargs):
        inside.append(name)
        try:
            return run(*args, **kwargs)
        finally:
            inside.pop()

    def counted_cached(self, key, compute):
        if key[0] != "good_set_sweep":
            return honest_cached(self, key, compute)
        counts["read", inside[-1] if inside else None] += 1

        def counted():
            counts["sweeps"] += 1
            return within("sweep", compute)
        return honest_cached(self, key, counted)

    def counted_good(*args):
        counts["good_symbols", inside[-1] if inside else None] += 1
        return honest_good(*args)

    def counted_at(self, index):
        counts["at", inside[-1] if inside else None] += 1
        return honest_at(self, index)

    def gate(name):
        honest = getattr(cli, f"check_{name}")

        def run(*args, **kwargs):
            reports[name] = within(name, honest, *args, **kwargs)
            return reports[name]
        return run

    monkeypatch.setattr(SingletonFamily, "cached", counted_cached)
    monkeypatch.setattr(hypotheses, "good_symbols", counted_good)
    monkeypatch.setattr(Space, "at", counted_at)
    for name in ("very_weak_positivity", "uniqueness_condition"):
        monkeypatch.setattr(cli, f"check_{name}", gate(name))
    assert main(["check", "copycat3.model"]) == 1
    capsys.readouterr()
    assert counts["sweeps"] == 1
    floors = {"very_weak_positivity": 1, "uniqueness_condition": 0}
    for name, report in reports.items():
        assert not report.passed
        assert counts["read", name] == 1
        assert counts["at", name] == len(report.witnesses) + floors[name]
        assert report.witnesses
    assert counts["good_symbols", "sweep"] == counts["at", "sweep"] == 0
    assert len(reports) == 2


def test_measure_suites_push_single_sites_only(monkeypatch):
    family = potential_family(1, 4)[2]
    dens = constructor.build_family(family)
    pushes = []
    honest_kernel = FiniteMeasure.push_kernel
    honest_free = FiniteMeasure.push_free

    def push_kernel(self, kernels_of, region):
        pushes.append(("kernel", tuple(region)))
        return honest_kernel(self, kernels_of, region)

    def push_free(self, region):
        pushes.append(("free", tuple(region)))
        return honest_free(self, region)

    monkeypatch.setattr(FiniteMeasure, "push_kernel", push_kernel)
    monkeypatch.setattr(FiniteMeasure, "push_free", push_free)
    space = dens.space
    kernels = [FiniteMeasure.kernel_measure(dens, cfg)
               for cfg in oracles.naive_exterior_classes(space, space.universe.sites)]
    for mu in kernels:
        support_class_certificate(mu, family)
    pushes.clear()
    report = cli.measure_perturbation_suite(dens, trials=12, seed=3)
    assert report.passed and report.data["performed"] == 12
    assert pushes and all(kind == "kernel" and len(region) == 1 for kind, region in pushes)
    assert len(pushes) <= len(space.universe) * report.data["performed"]
    pushes.clear()
    for mu in kernels:
        assert check_good_support_mass(mu, dens).passed
    assert [push for push in pushes if push[0] == "free"] == []


def test_verify_reads_the_support_suites_off_the_split_record(tmp_path, monkeypatch, capsys):
    """A full ``verify`` runs the block splits first, so the support
    identities and the re-derivation walk nothing and read no ratio
    integral, and the kernel measures are pushed through no kernel."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    counts = Counter()
    inside = []
    kernels = []
    honest_walk = verifier._support_failures
    honest_integral = constructor.DensityFamily.ratio_pair
    honest_push = FiniteMeasure.push_kernel
    honest_kernel = FiniteMeasure.kernel_measure

    def suite(name, honest):
        def run(*args, **kwargs):
            inside.append(name)
            try:
                return honest(*args, **kwargs)
            finally:
                inside.pop()
        return run

    def counted_walk(*args):
        counts["walk"] += 1
        return honest_walk(*args)

    def counted_integral(self, *args):
        counts["integral_in_support_suites"] += bool(inside)
        return honest_integral(self, *args)

    def counted_push(self, *args):
        counts["kernel_measure_pushes"] += any(self is mu for mu in kernels)
        return honest_push(self, *args)

    def kernel_measure(cls, *args):
        kernels.append(honest_kernel(*args))
        return kernels[-1]

    for name in ("good_support_report", "uniqueness_probe"):
        monkeypatch.setattr(cli, name, suite(name, getattr(cli, name)))
    monkeypatch.setattr(verifier, "_support_failures", counted_walk)
    monkeypatch.setattr(constructor.DensityFamily, "ratio_pair", counted_integral)
    monkeypatch.setattr(FiniteMeasure, "push_kernel", counted_push)
    monkeypatch.setattr(FiniteMeasure, "kernel_measure", classmethod(kernel_measure))
    assert main(["verify", "chain5.model", "--json", "report.json"]) == 0
    capsys.readouterr()
    assert '"good_support"' in (tmp_path / "report.json").read_text()
    assert kernels
    assert counts == Counter()


def test_a_sibling_kernel_measure_pushes_its_failed_regions(monkeypatch):
    """A sibling whose window row is another row of mass one fails some
    nested pairs of (c) with the window; its kernel measure is pushed
    through exactly those regions, once each."""
    dens = constructor.build_family(potential_family(1, n_sites=4)[2])
    space = dens.space
    window = space.universe.sites
    blocks = list(space.assignments(window))
    mass = sum((k + 2) * oracles.product_weight(space, window, b) for k, b in enumerate(blocks))
    row = {block: (k + 2) / mass for k, block in enumerate(blocks)}
    sibling = zoo.reweighted(dens, window, lambda block, _: row[block])
    failed = sorted(small for large, small in verifier._axiom_record(sibling)[2]
                    if large == window and small)
    assert failed
    pushes = []
    honest_push = FiniteMeasure.push_kernel

    def counted_push(self, family, region):
        pushes.append(tuple(region))
        return honest_push(self, family, region)

    monkeypatch.setattr(FiniteMeasure, "push_kernel", counted_push)
    mu = FiniteMeasure.kernel_measure(sibling, space.at(0))
    verifier.check_measure_consistency(mu, sibling)
    check_good_support_mass(mu, sibling)
    assert sorted(pushes) == failed


@pytest.fixture
def compositions(monkeypatch) -> Counter:
    """Counts ``_composed_row`` calls by whether a family's row is composed
    with a row of the same family (``"self"``) or of another (``"other"``),
    and misses of the density families' memo by key kind."""
    counts: Counter = Counter()
    honest_composed = verifier._composed_row
    honest_cached = constructor.DensityFamily.cached

    def counted_composed(outer, outer_region, inner, inner_region, cfg):
        counts["self" if outer is inner else "other"] += 1
        return honest_composed(outer, outer_region, inner, inner_region, cfg)

    def counted_cached(self, key, compute):
        def counted():
            counts[key[0]] += 1
            return compute()
        return honest_cached(self, key, counted)

    monkeypatch.setattr(verifier, "_composed_row", counted_composed)
    monkeypatch.setattr(constructor.DensityFamily, "cached", counted_cached)
    return counts


def test_verify_records_part_c_once_and_composes_no_self_pair(
        compositions, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    assert main(["verify", "chain5.model"]) == 0
    capsys.readouterr()
    assert compositions["axiom_record"] == 1
    assert compositions["specification_axioms"] == 1
    assert compositions["self"] == 0
    # the probe's perturbed families still compose against the built one
    assert compositions["other"] > 0


def test_construct_and_verify_callers_share_one_axiom_report(
        compositions, tmp_path, monkeypatch):
    path = tmp_path / "chain5.model"
    path.write_text(CHAIN5, encoding="utf-8")
    model = parse_model_file(str(path))
    _, fam, joint = model.realize()
    dens = constructor.build_family(fam, checked=True)
    axioms = check_specification_axioms(dens)
    selected = {flag: True for flag in cli.VERIFY_FLAGS}
    selected["roundtrip"] = False
    jobs = {job.name: job for job in cli.verify_jobs(model, fam, dens, joint, selected)}
    assert jobs["specification_axioms"].run() is axioms
    rows = Counter()
    honest_row = verifier._pair_row

    def counted_row(*args):
        rows["read"] += 1
        return honest_row(*args)

    monkeypatch.setattr(verifier, "_pair_row", counted_row)
    exchange = jobs["exchange_identity"].run()
    probe = uniqueness_probe(dens, trials=0)
    assert exchange.passed and probe.passed
    assert probe.data["regions_self_checked"] == 2 ** 5 - 5 - 1
    assert rows["read"] == 0 and compositions["self"] == compositions["other"] == 0
    assert compositions["axiom_record"] == compositions["specification_axioms"] == 1


@pytest.fixture
def pair_records(monkeypatch) -> list:
    """The failing cells of each order-consistency pair record a singleton
    family computes, one list per computation."""
    records = []
    honest_cached = SingletonFamily.cached

    def counted_cached(self, key, compute):
        if key[0] != "pair_record":
            return honest_cached(self, key, compute)

        def counted():
            record = compute()
            records.append(record[1])
            return record
        return honest_cached(self, key, counted)

    monkeypatch.setattr(SingletonFamily, "cached", counted_cached)
    return records


def test_check_of_a_positive_family_evaluates_no_strict_identity_cell(
        pair_records, tmp_path, monkeypatch, capsys):
    """Bounded positivity reads its strict identity off order consistency's
    pair record: the family computes one record, and the gate reads no
    density."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    counts = Counter()
    honest_bounds = hypotheses.check_bounded_positivity
    honest_density = SingletonFamily.density

    def counted_bounds(*args, **kwargs):
        counts["bounds"] += 1
        counts["inside"] += 1
        try:
            return honest_bounds(*args, **kwargs)
        finally:
            counts["inside"] -= 1

    def counted_density(self, *args):
        counts["density"] += 1
        counts["density_in_bounds"] += counts["inside"] > 0
        return honest_density(self, *args)

    monkeypatch.setattr(cli, "check_bounded_positivity", counted_bounds)
    monkeypatch.setattr(SingletonFamily, "density", counted_density)
    assert main(["check", "chain5.model", "--json", "report.json"]) == 0
    capsys.readouterr()
    assert '"strict_identity": true' in (tmp_path / "report.json").read_text()
    assert counts["bounds"] == 1
    assert counts["density_in_bounds"] == 0
    assert pair_records == [[]]

    family = potential_family(1, n_sites=5)[2]
    read = counts["density"]
    assert hypotheses.check_bounded_positivity(family).data["strict_identity"] is True
    assert counts["density"] == read
    assert hypotheses.check_order_consistency(family).passed
    assert pair_records == [[], []]


def test_a_passing_check_walks_no_pair_configuration(
        pair_records, tmp_path, monkeypatch, capsys):
    """Order consistency of ``CHAIN5`` is decided by one pair record that
    lists no failing cell, and pointwise compatibility is read off it: the
    eight-factor walk does not run.  A failing family's record lists its
    failing cells, and the eight-factor walk builds its witnesses."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    walks = Counter()
    honest = hypotheses._eight_factor_failures

    def counted(*args):
        walks["eight_factor"] += 1
        return honest(*args)

    monkeypatch.setattr(hypotheses, "_eight_factor_failures", counted)
    assert main(["check", "chain5.model", "--json", "report.json"]) == 0
    capsys.readouterr()
    report = (tmp_path / "report.json").read_text()
    assert '"comparisons": 1280' in report and '"comparisons": 5120' in report
    assert pair_records == [[]]
    assert walks == Counter()
    assert main(["check", bundled("broken_h2")]) == 1
    capsys.readouterr()
    assert len(pair_records) == 2 and pair_records[1]
    assert walks["eight_factor"] > 0


def test_singleton_family_construction_integrates_in_integers(monkeypatch):
    """Unit mass is one integer line sum per (site, exterior class off the
    site).  No extended rational is built: the library defines none, which
    `test_hygiene.py` pins."""
    family = potential_family(1, n_sites=5)[2]
    space = family.space
    tables = {site: {cfg.key: family.density(site, cfg) for cfg in space.configurations()}
              for site in space.universe.sites}
    counts = Counter()
    honest_sum = models._line_sum

    def counted_sum(terms):
        counts["_line_sum"] += 1
        return honest_sum(terms)

    monkeypatch.setattr(models, "_line_sum", counted_sum)
    SingletonFamily(space, tables)
    n, q, t = len(space.universe), len(space.alphabet), len(space.tail_classes)
    assert counts == Counter({"_line_sum": n * t * q ** (n - 1)})
    assert not hasattr(Space, "free_kernel")


@pytest.mark.parametrize("n_sites", [3, 5])
def test_normalize_reads_each_raw_weight_once_and_rechecks_no_mass(monkeypatch, n_sites):
    space, model, _ = potential_family(1, n_sites=n_sites)
    expected = oracles.normalize(space, model)._tables
    counts = Counter()
    honest_raw = model.raw_value

    class Counted:
        def raw_value(self, space, site, cfg):
            counts[site, cfg.index] += 1
            return honest_raw(space, site, cfg)

    def refused(name):
        def call(*args):
            counts[name] += 1
        return call

    monkeypatch.setattr(SingletonFamily, "_check_unit_mass", refused("_check_unit_mass"))
    fresh = normalize(space, Counted())
    assert counts["_check_unit_mass"] == 0
    del counts["_check_unit_mass"]
    assert set(counts.values()) == {1}
    assert len(counts) == len(space.universe) * space.size
    assert fresh._tables == expected


@pytest.mark.parametrize("model", ["chain5", "hardcore4"])
def test_full_verify_reads_order_independence_off_the_axiom_record(
        model, tmp_path, monkeypatch, capsys):
    """A full ``verify`` checks the axioms first, so order independence
    is read off their passing record and computes no extension divisor;
    ``verify --orders`` alone has no record and walks every split."""
    monkeypatch.chdir(tmp_path)
    text = CHAIN5 if model == "chain5" else hardcore_chain(4)
    (tmp_path / f"{model}.model").write_text(text, encoding="utf-8")
    counts = Counter()
    inside = []
    honest_suite = cli.check_order_independence
    honest_cached = constructor.DensityFamily.cached

    def suite(*args, **kwargs):
        inside.append(True)
        try:
            return honest_suite(*args, **kwargs)
        finally:
            inside.pop()

    def counted_cached(self, key, compute):
        def counted():
            counts["divisors_in_order_independence"] += bool(inside)
            return compute()
        return honest_cached(self, key, counted if key[0] == "extension_divisor" else compute)

    monkeypatch.setattr(cli, "check_order_independence", suite)
    monkeypatch.setattr(constructor.DensityFamily, "cached", counted_cached)
    assert main(["verify", f"{model}.model", "--json", "full.json"]) == 0
    assert '"block_splits_tested"' in (tmp_path / "full.json").read_text()
    assert counts == Counter()
    assert main(["verify", f"{model}.model", "--orders"]) == 0
    capsys.readouterr()
    assert counts["divisors_in_order_independence"] > 0


@pytest.mark.parametrize("kind", ["potential", "table"])
def test_raw_reads_look_up_each_site_once_per_universe(kind):
    """``normalize`` looks up a site's pair tables, or the positions of
    its complement, once per universe, not once per raw read."""
    if kind == "potential":
        space, model, _ = potential_family(1, n_sites=4)
        memo = model._incident
    else:
        family = hardcore_family(3)
        space = family.space
        model = TableModel({site: {(cfg.symbol(site), oracles.restrict(
            cfg, [s for s in space.universe if s != site]), cfg.tail): family.density(site, cfg)
            for cfg in space.configurations()} for site in space.universe})
        memo = model._positions
    first = normalize(space, model)
    assert sorted(site for _, site in memo) == sorted(space.universe.sites)
    held = dict(memo)
    assert normalize(space, model)._tables == first._tables
    assert memo.keys() == held.keys() and all(memo[at] is held[at] for at in held)
