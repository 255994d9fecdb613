"""Suites read off recorded verdicts against their walking oracles.

``check_order_independence`` records passing block splits on the built
families; ``good_support_report`` and the re-derivation of
``uniqueness_probe`` then walk no point, and report their counts in
closed form.  ``FiniteMeasure.kernel_measure`` marks the window's kernel
measure as preserved by every region whose nested pair of axiom (c) with
the window passed, so ``check_measure_consistency`` and
``check_good_support_mass`` push it only through the others.  Each
report must equal its oracle in ``oracles.py``, which walks every core
point and pushes through every kernel, at witness caps 0, 1 and 25.

The record route runs on gated zoo families, the zero-table seeds that
pass the gates, families extracted from positive joints and at least
twenty draws of ``zoo.random_hardcore_family``.  The walk route runs on
the same families without the record, on the unchecked builds of
doubled-entry draws (``zoo.doubled_entry``) that fail the gates, so no
split record can exist, and on ``replace_table``
siblings whose block splits fail or whose nested pairs with the window
fail.  There the kernel measure pushes exactly its failed regions.
"""

from fractions import Fraction

import pytest

from specforge import constructor
from specforge.constructor import (
    DensityFamily,
    build_family,
    check_order_independence,
    extend_density,
)
from specforge.core import SpecforgeError
from specforge.models import rebalance_free
from specforge.verifier import (
    FiniteMeasure,
    _axiom_record,
    check_good_support_mass,
    check_measure_consistency,
    good_support_report,
    uniqueness_probe,
)

import oracles
import zoo
from test_fast_path_oracle import renormalized

CAPS = (0, 1, 25)
TRIALS = 2

GATED = {
    "hardcore_3": lambda: zoo.hardcore_family(3),
    "hardcore_4": lambda: zoo.hardcore_family(4),
    "example1": zoo.example1_family,
    "independent": zoo.independent_family,
    "lopsided_free": zoo.lopsided_free_family,
    "potential_1": lambda: zoo.potential_family(1)[2],
    "ring_potential_2": lambda: zoo.ring_potential_family(2)[2],
    # the two zero-table seeds of 0-39 that pass the gates, at unit free
    # mass, which the measure suites need
    "zero_table_15": lambda: rebalance_free(zoo.random_zero_table_family(15)),
    "zero_table_28": lambda: rebalance_free(zoo.random_zero_table_family(28)),
    **{f"extracted_{seed}": (lambda s=seed: zoo.extracted_family(s)[2]) for seed in (5, 61)},
    **{f"hardcore_graph_{seed}": (lambda s=seed: zoo.random_hardcore_family(s))
       for seed in range(20)},
}

# doubled-entry draws whose unchecked build succeeds: where the doubled
# line had one nonzero entry the draw is the family again and passes its
# block splits, elsewhere it fails the gates and holds no record
DOUBLED = {f"doubled_{name}_{pick}": (name, pick)
           for name, picks in (("example1", (0,)), ("hardcore_3", (0, 2)),
                               ("hardcore_4", (0, 3)), ("hardcore_graph_0", (0, 2)),
                               ("hardcore_graph_3", (0, 1)), ("hardcore_graph_7", (0, 4)))
           for pick in picks}


def outcome(run, *args, **kwargs):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return run(*args, **kwargs).as_dict()
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def fresh(dens: DensityFamily) -> DensityFamily:
    """The same tables behind an empty memo, with no record."""
    return dens.replace_table((), dens.table(()))


def recorded(fam) -> DensityFamily:
    """The built family, carrying the record of passing block splits."""
    assert check_order_independence(fam).passed
    dens = build_family(fam)
    assert ("block_splits",) in dens._cache
    return dens


def kernel_measures(dens: DensityFamily) -> list[FiniteMeasure]:
    space = dens.space
    try:
        return [FiniteMeasure.kernel_measure(dens, cfg)
                for cfg in oracles.naive_exterior_classes(space, space.universe.sites)]
    except SpecforgeError:
        return []


def capped(expected, cap: int):
    """An oracle's outcome at the largest cap, as it reads at ``cap``: a
    report collects its witnesses in order, so a smaller cap cuts the list
    (`HypothesisReport.add_witness`) and changes nothing else."""
    if isinstance(expected, tuple):
        return expected
    return {**expected, "witnesses": expected["witnesses"][:cap]}


def assert_suites_match(oracle_dens: DensityFamily, *routes: DensityFamily) -> None:
    """Every suite on each family of ``routes`` against its oracle on
    ``oracle_dens``, all holding the same tables."""
    support = outcome(oracles.good_support_report, oracle_dens, max(CAPS))
    probe = outcome(oracles.uniqueness_probe, oracle_dens, trials=TRIALS,
                    witness_cap=max(CAPS))
    for dens in routes:
        for cap in CAPS:
            assert outcome(good_support_report, dens, cap) == capped(support, cap), cap
            assert (outcome(uniqueness_probe, dens, trials=TRIALS, witness_cap=cap)
                    == capped(probe, cap)), cap
        for mu in kernel_measures(dens):
            for cap in CAPS:
                assert (outcome(check_measure_consistency, mu, dens, cap)
                        == outcome(oracles.measure_consistency, mu, dens, cap)), cap
                assert (outcome(check_good_support_mass, mu, dens, cap)
                        == outcome(oracles.check_good_support_mass, mu, dens, cap)), cap


@pytest.mark.parametrize("name", sorted(GATED))
def test_both_routes_equal_their_oracles(name):
    """The record route on the built family, the walk route on a sibling
    holding the same tables."""
    dens = recorded(GATED[name]())
    assert_suites_match(fresh(dens), dens, fresh(dens))


def test_hardcore_draws_pass_the_gates_and_build():
    """Sixty draws, the twenty above among them, which also pass their
    block splits."""
    shapes = set()
    for seed in range(60):
        fam = zoo.random_hardcore_family(seed)
        space = fam.space
        n, q, t = len(space.universe), len(space.alphabet), len(space.tail_classes)
        assert 2 <= n <= 5 and q <= 3 and t <= 2 and q ** n <= 32
        assert any(value == (0, 1) for table in fam._tables.values() for value in table)
        build_family(fam, checked=True)
        shapes.add((n, q, t))
    assert {n for n, _, _ in shapes} == {2, 3, 4, 5}
    assert {q for _, q, _ in shapes} == {2, 3} and {t for _, _, t in shapes} == {1, 2}


@pytest.mark.parametrize("name", sorted(DOUBLED))
def test_doubled_entry_draws_equal_their_oracles(name):
    family, pick = DOUBLED[name]
    fam = zoo.doubled_entry(GATED[family](), pick)
    dens = build_family(fam, checked=False)
    try:
        splits_pass = check_order_independence(fam).passed
    except SpecforgeError:
        splits_pass = False
    assert (("block_splits",) in dens._cache) == splits_pass
    assert_suites_match(fresh(dens), dens)


@pytest.mark.parametrize("name", ["hardcore_4", "potential_1", "hardcore_graph_0"])
def test_every_memoised_sweep_carries_the_record(name):
    """A family built under another sweep before the splits pass is
    recorded too: every sweep builds the reference's tables."""
    fam = GATED[name]()
    swept = build_family(fam, sweep=fam.space.universe.sites[::-1])
    dens = recorded(fam)
    assert swept is not dens and ("block_splits",) in swept._cache
    assert all(swept.table(region) == dens.table(region) for region in dens.regions())
    assert_suites_match(fresh(dens), swept)


SIBLING_FAMILIES = ("hardcore_4", "potential_1", "hardcore_graph_0", "hardcore_graph_7")


@pytest.mark.parametrize("name", SIBLING_FAMILIES)
def test_siblings_walk_and_push_as_their_oracles(name, monkeypatch):
    """Siblings with a row changed: their splits fail, and on the window's
    row their nested pairs with the window fail too; the suites walk, and
    a kernel measure pushes exactly the regions whose pair failed."""
    dens = recorded(GATED[name]())
    space = dens.space
    window = space.universe.sites
    pushed = []
    honest_push = FiniteMeasure.push_kernel

    def push_kernel(self, family, region):
        pushed.append(tuple(region))
        return honest_push(self, family, region)

    failed_pairs = 0
    for region in (window[:2], window):
        sibling = renormalized(dens, region)
        # the join of the region's last site reads the unchanged tables
        assert extend_density(sibling, region[:-1], region[-1:]) != sibling._tables[region]
        failures = _axiom_record(sibling)[2]
        failed = [small for large, small in failures if large == window and small]
        failed_pairs += len(failed)
        monkeypatch.setattr(FiniteMeasure, "push_kernel", push_kernel)
        measures = kernel_measures(sibling)
        assert measures
        for mu in measures:
            pushed.clear()
            check_measure_consistency(mu, sibling)
            assert sorted(pushed) == sorted(failed)
        monkeypatch.undo()
        assert_suites_match(fresh(sibling), sibling)
    assert failed_pairs


def test_a_failing_split_leaves_no_record(monkeypatch):
    """Doubling the divisors of one multi-site split fails that split but
    no gate, and the built family then carries no record."""
    fam = zoo.hardcore_family(4)
    dens = build_family(fam)
    honest = constructor.extension_divisor

    def perturbed(dens, theta, gamma, cfg):
        num, den = honest(dens, theta, gamma, cfg)
        if (tuple(theta), tuple(gamma)) == (("s1",), ("s2", "s3")) and den:
            return Fraction(2 * num, den).as_integer_ratio()
        return num, den

    monkeypatch.setattr(constructor, "extension_divisor", perturbed)
    report = check_order_independence(fam)
    assert report.data["block_split_failures"] == 1 and report.data["permutation_mismatches"] == 0
    assert ("block_splits",) not in dens._cache
