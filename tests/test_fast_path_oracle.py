"""Generating-set fast paths and closed forms against the full enumerations.

``check_specification_axioms`` takes (a) exterior measurability and the
off-region half of (b) as proven, and sums each row's mass once per
exterior class.  Once (b) passes, part (c) composes only the covering
pairs (Λ, Λ∖x), by the marginal identity.  ``check_very_weak_positivity``
and ``check_uniqueness_condition`` read the floor good sets, one per site
and tail class.  Each runs its full enumeration from the start whenever
the shortcut does not settle the verdict.  The oracles in ``oracles.py``
always enumerate.  Reports must be equal as dicts at witness caps 0, 1
and 25 on every zoo family, on random zero-table seeds 0-19 and 198, and on
perturbations that force each fallback.  The proven properties are
checked by enumeration on the same families and perturbations: every
row is a function of its exterior class and charges only that class,
and good membership never reads the context's own symbols.  The last
group counts kernel-row reads, row assemblies and good-set calls, so
the fast paths must actually run, and compares every count reported in
closed form with the enumerated one.  The exchange suite is read off the
axioms: where they pass, its report must equal the oracle's evaluation of
every identity, and where they fail it must raise with their report.
Every family built with the gates checked, from the zoo and from 400
random zero-table seeds, must pass the axioms.
"""

from collections import Counter
from fractions import Fraction

import pytest

from specforge import constructor, hypotheses, verifier
from specforge.cli.main import exchange_suite
from specforge.constructor import ConstructionError, DensityFamily, build_family
from specforge.core import SpecforgeError
from specforge.hypotheses import (
    HypothesisFailure,
    check_uniqueness_condition,
    check_very_weak_positivity,
)
from specforge.verifier import (
    check_specification_axioms,
    good_support_report,
    uniqueness_probe,
)

import oracles
import zoo

CAPS = (0, 1, 25)

ZOO = {
    "alternating_exclusion": zoo.alternating_exclusion_family,
    "anchored_table_5": lambda: zoo.anchored_table_family(5)[1],
    "anchored_table_6_n4": lambda: zoo.anchored_table_family(6, n_sites=4)[1],
    "broken_pair": zoo.broken_pair_family,
    "example1": zoo.example1_family,
    "extracted_5": lambda: zoo.extracted_family(5)[2],
    "forced_exclusion": zoo.forced_exclusion_family,
    "hardcore_3": lambda: zoo.hardcore_family(3),
    "hardcore_4": lambda: zoo.hardcore_family(4),
    "independent": zoo.independent_family,
    "lopsided_free": zoo.lopsided_free_family,
    "one_sided_hardcore_3": lambda: zoo.one_sided_hardcore_family(3),
    "potential_1": lambda: zoo.potential_family(1)[2],
    "potential_1_n4": lambda: zoo.potential_family(1, 4)[2],
    "ring_potential_2": lambda: zoo.ring_potential_family(2)[2],
    "unnormalized_free": zoo.unnormalized_free_family,
}
FAMILIES = {**ZOO, **{f"zero_table_{seed}": (lambda s=seed: zoo.random_zero_table_family(s))
                      for seed in (*range(20), 198)}}
# every floor set is nonempty, but one carries only symbols of zero free
# weight: positivity takes the floor path, the uniqueness condition falls back
ZERO_MASS_FLOOR = "zero_table_198"


def outcome(run, *args, **kwargs):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return run(*args, **kwargs).as_dict()
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def fresh(dens: DensityFamily) -> DensityFamily:
    """The same tables behind an empty memo."""
    return dens.replace_table((), dens.table(()))


def built(fam):
    try:
        return build_family(fam, checked=False)
    except SpecforgeError:
        return None


def floor_masses(fam) -> list[Fraction]:
    free = fam.space.free
    return [sum((free.weight(site, x) for x in good), Fraction(0))
            for (site, _), good in hypotheses._floor_good_sets(fam).items()]


def assert_good_set_checks_match(fam):
    for cap in CAPS:
        assert (outcome(check_very_weak_positivity, fam, cap)
                == outcome(oracles.check_very_weak_positivity, fam, cap)), cap
        assert (outcome(check_uniqueness_condition, fam, cap)
                == outcome(oracles.check_uniqueness_condition, fam, cap)), cap


def assert_axioms_match(dens, caps=CAPS):
    for cap in caps:
        assert (outcome(check_specification_axioms, fresh(dens), cap)
                == outcome(oracles.check_specification_axioms, fresh(dens), cap)), cap


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_good_set_checks(name):
    assert_good_set_checks_match(FAMILIES[name]())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_specification_axioms(name):
    dens = built(FAMILIES[name]())
    if dens is not None:
        assert_axioms_match(dens)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_floor_sets_lie_inside_every_good_set(name):
    fam = FAMILIES[name]()
    space = fam.space
    floors = hypotheses._floor_good_sets(fam)
    for site in space.universe.sites:
        complement = space.universe.complement((site,))
        for cfg in oracles.naive_exterior_classes(space, space.universe.sites):
            assert floors[(site, cfg.tail)] == hypotheses.good_symbols(
                fam, site, complement, cfg)
        for ctx in space.universe.subsets(complement):
            for cfg in oracles.naive_exterior_classes(space, ctx + (site,)):
                good = hypotheses.good_symbols(fam, site, ctx, cfg)
                assert set(floors[(site, cfg.tail)]) <= set(good), (site, ctx, cfg)


# -- forced fallbacks --------------------------------------------------------

@pytest.mark.parametrize("name", ["alternating_exclusion", "zero_table_0", "zero_table_5"])
def test_empty_floor_set_runs_the_sweep(name):
    fam = FAMILIES[name]()
    assert not all(hypotheses._floor_good_sets(fam).values())
    assert not oracles.check_very_weak_positivity(fam).passed
    assert_good_set_checks_match(fam)


def test_floor_set_of_zero_free_mass_runs_the_sweep():
    fam = FAMILIES[ZERO_MASS_FLOOR]()
    assert all(hypotheses._floor_good_sets(fam).values())
    assert min(floor_masses(fam)) == 0
    assert check_very_weak_positivity(fam).passed
    naive = oracles.check_uniqueness_condition(fam)
    assert not naive.passed and naive.witnesses
    assert_good_set_checks_match(fam)


def renormalized(dens: DensityFamily, region) -> DensityFamily:
    """A different row of mass one at the region's first exterior class:
    (a) and (b) still hold, the row is no longer the constructed one."""
    space = dens.space
    blocks = list(space.assignments(region))
    raw = {block: Fraction(k + 2) for k, block in enumerate(blocks)}
    mass = sum(raw[b] * oracles.product_weight(space, region, b) for b in blocks)
    return zoo.reweighted(dens, region, lambda block, _: raw[block] / mass)


PERTURBED = ("potential_1", "hardcore_3", "example1", "anchored_table_5",
             "zero_table_15", "zero_table_18")


@pytest.mark.parametrize("name", PERTURBED)
def test_broken_point_mass_runs_every_nested_pair(name):
    dens = built(FAMILIES[name]())
    region = dens.space.universe.sites[:2]
    doubled = zoo.reweighted(dens, region, lambda _, value: 2 * value)
    naive = oracles.check_specification_axioms(fresh(doubled))
    assert not naive.data["point_mass_off_region"]
    assert_axioms_match(doubled)


@pytest.mark.parametrize("name", PERTURBED)
def test_broken_covering_pair_runs_every_nested_pair(name):
    dens = built(FAMILIES[name]())
    broken = 0
    for region in dens.regions():
        if not region:
            continue
        sibling = renormalized(dens, region)
        naive = oracles.check_specification_axioms(fresh(sibling))
        assert naive.data["exterior_measurable"] and naive.data["point_mass_off_region"]
        broken += not naive.data["consistent"]
        assert_axioms_match(sibling)
        # the uniqueness self-check reads the same record of (c): where
        # several member sites fail, it must name the first, as its oracle does
        assert (outcome(uniqueness_probe, fresh(sibling), trials=0)
                == outcome(oracles.uniqueness_probe, fresh(sibling), trials=0))
    assert broken


# -- proven properties ---------------------------------------------------------

def rows_of(fam) -> DensityFamily:
    """The built family, or its empty and single-site regions if none builds."""
    dens = built(fam)
    return DensityFamily(fam) if dens is None else dens


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_rows_are_functions_of_the_exterior_class(name):
    assert oracles.kernel_class_violations(rows_of(FAMILIES[name]())) == []


@pytest.mark.parametrize("name", PERTURBED)
def test_perturbed_rows_are_functions_of_the_exterior_class(name):
    dens = built(FAMILIES[name]())
    doubled = zoo.reweighted(dens, dens.space.universe.sites[:2], lambda _, value: 2 * value)
    for sibling in [doubled, *(renormalized(dens, region)
                               for region in dens.regions() if region)]:
        assert oracles.kernel_class_violations(sibling) == []


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_good_membership_ignores_the_context(name):
    points, violations = oracles.membership_measurability(FAMILIES[name]())
    assert points and violations == []


# -- the fast paths run --------------------------------------------------------

def axiom_row_reads(space) -> int:
    """Pair-row reads of the axiom check: per region of k sites and each
    of its T·q^(n-k) exterior classes, one read for the mass of (b), and
    for the covering pairs the region's row and at most q inner rows per
    member site."""
    n, q, t = len(space.universe), len(space.alphabet), len(space.tail_classes)
    return t * (2 * (q + 1) ** n + q * n * (q + 1) ** (n - 1))


@pytest.mark.parametrize("make", [lambda: zoo.potential_family(1, 5)[2],
                                  lambda: zoo.hardcore_family(4)],
                         ids=["chain_5", "hardcore_4"])
def test_fast_paths_read_only_the_generating_sets(monkeypatch, make):
    fam = make()
    space = fam.space
    n, q, t = len(space.universe), len(space.alphabet), len(space.tail_classes)
    good_calls = []
    honest_good = hypotheses.good_symbols

    def counted_good(*args):
        good_calls.append(args)
        return honest_good(*args)

    monkeypatch.setattr(hypotheses, "good_symbols", counted_good)
    positivity = check_very_weak_positivity(fam)
    uniqueness = check_uniqueness_condition(fam)
    assert positivity.passed and uniqueness.passed
    assert len(good_calls) == n * t
    assert positivity.data["index_points"] == n * t * (q + 1) ** (n - 1)

    dens = build_family(fam, checked=False)
    reads = Counter()
    honest_pair_row = verifier._pair_row

    def counted(kind, honest):
        def count(*args):
            reads[kind] += 1
            return honest(*args)
        return count

    monkeypatch.setattr(verifier, "_pair_row", counted("pair_row", honest_pair_row))
    monkeypatch.setattr(constructor, "assemble_kernel",
                        counted("assemble", constructor.assemble_kernel))
    monkeypatch.setattr(verifier, "Fraction", counted("fraction", Fraction))
    axioms = check_specification_axioms(dens)
    assert axioms.passed
    assert 0 < reads["pair_row"] <= axiom_row_reads(space)
    assert axioms.data["checks"]["nested_pairs"] == t * (q + 2) ** n
    # (b) and (c) read integer pair rows, one memo entry per region and
    # exterior class, Σ_k C(n,k)·T·q^(n−k) in all; no Fraction is built
    assert reads["fraction"] == reads["assemble"] == 0
    assert sum(key[0] == "pair_row" for key in dens._cache) == t * (q + 1) ** n


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_closed_form_counts_equal_the_enumerated_counts(name):
    fam = FAMILIES[name]()
    positivity = oracles.check_very_weak_positivity(fam)
    if positivity.passed:
        assert (check_very_weak_positivity(fam).data["index_points"]
                == positivity.data["index_points"])
    uniqueness = oracles.check_uniqueness_condition(fam)
    if uniqueness.passed:
        assert (check_uniqueness_condition(fam).data["index_points"]
                == uniqueness.data["index_points"])
    dens = built(fam)
    if dens is None:
        return
    axioms = oracles.check_specification_axioms(fresh(dens))
    checks = check_specification_axioms(fresh(dens)).data["checks"]
    for count in ("exterior", "point_mass"):
        assert checks[count] == axioms.data["checks"][count], count
    if axioms.passed:
        assert checks["nested_pairs"] == axioms.data["checks"]["nested_pairs"]
    points, _ = oracles.membership_measurability(fam)
    assert good_support_report(dens).data["measurability_points"] == points


# -- suites read off the axioms ------------------------------------------------

def gated(fam):
    try:
        return build_family(fam, checked=True)
    except ConstructionError:
        return None


def test_gated_families_pass_the_axioms():
    """The construction theorem: a family built with the gates checked
    passes the specification axioms, so the exchange suite's precondition
    never fails under ``verify``."""
    zoo_built = [gated(build()) for build in ZOO.values()]
    seeds_built = [gated(zoo.random_zero_table_family(seed)) for seed in range(400)]
    assert sum(dens is not None for dens in seeds_built) == 18
    families = [dens for dens in zoo_built + seeds_built if dens is not None]
    for dens in families:
        assert check_specification_axioms(dens).passed


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_exchange_suite_equals_its_oracle_where_the_axioms_pass(name):
    dens = built(FAMILIES[name]())
    if dens is None or not check_specification_axioms(dens).passed:
        return
    naive = oracles.exchange_suite(fresh(dens))
    assert naive.passed
    assert exchange_suite(dens).as_dict() == naive.as_dict()


@pytest.mark.parametrize("name", ["anchored_table_5", "zero_table_18"])
def test_exchange_suite_raises_with_the_axiom_report(name):
    dens = built(FAMILIES[name]())
    axioms = check_specification_axioms(dens)
    assert not axioms.data["consistent"]
    with pytest.raises(HypothesisFailure, match="needs the specification axioms") as err:
        exchange_suite(dens)
    assert err.value.report is axioms
