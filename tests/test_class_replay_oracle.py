"""Per-exterior-class evaluation against the configuration-by-configuration oracles.

``check_order_consistency`` and ``check_pointwise_compatibility`` read
good sets, ratio integrals and densities once per site pair and exterior
class off the pair and compare their sides as cross-multiplied integers
(a passing family is decided pair by pair, and pointwise compatibility
read off it; ``test_pair_pass_oracle.py`` holds that route to the same
oracles); ``check_bounded_positivity`` reads the family's ratio
tables; ``extend_density`` and the block-split loop of
``check_order_independence`` fetch one extension divisor per exterior
class of the base block; and ``uniqueness_probe`` re-derives each region
once per exterior class of the region.  Each replays its counts and
witnesses at every configuration, except that the re-derivation reports
each failing (point, site) once.  The oracles in ``oracles.py``
evaluate everything at every configuration, except those of pointwise
compatibility and bounded positivity, which are the gates as they were
before the integers: `Fraction` sides, and integrals evaluated afresh.
Reports must be equal as dicts, or both calls must raise the same error
with the same message, at witness caps 0, 1 and 25.  The uniqueness
probe needs a built family, so it runs on the families whose unchecked
build succeeds; its self-check reads the record of axiom (c) that the
axiom report reads, so the axiom report is compared on those families
too.  ``extension_divisor`` decides its good-block candidates as integer
pairs and returns a reduced pair; its oracle builds each as an
`ExtendedRational` product, and the two must return equal values (the
pair read back by ``oracles.divisor_value``) or raise the same text and
witness.  ``extend_density``'s pair tables are read back through
``oracles.fractions``, which checks every pair reduced.
"""

from fractions import Fraction

import pytest

from specforge import constructor, hypotheses
from specforge.constructor import (
    DensityFamily,
    build_family,
    check_order_independence,
    extend_density,
)
from specforge.core import SpecforgeError
from specforge.hypotheses import (
    check_bounded_positivity,
    check_order_consistency,
    check_pointwise_compatibility,
)
from specforge.verifier import check_specification_axioms, uniqueness_probe

import oracles
import zoo

CAPS = (0, 1, 25)

ZOO = {
    "broken_pair": zoo.broken_pair_family,
    "one_sided_hardcore_3": lambda: zoo.one_sided_hardcore_family(3),
    "anchored_table_5": lambda: zoo.anchored_table_family(5)[1],
    "anchored_table_6_n4": lambda: zoo.anchored_table_family(6, n_sites=4)[1],
    "forced_exclusion": zoo.forced_exclusion_family,
    "alternating_exclusion": zoo.alternating_exclusion_family,
    "hardcore_3": lambda: zoo.hardcore_family(3),
    "hardcore_4": lambda: zoo.hardcore_family(4),
    "example1": zoo.example1_family,
    "independent": zoo.independent_family,
    "lopsided_free": zoo.lopsided_free_family,
    "extracted_5": lambda: zoo.extracted_family(5)[2],
    "potential_1": lambda: zoo.potential_family(1)[2],
    "ring_potential_2": lambda: zoo.ring_potential_family(2)[2],
}
# seeds 0-19, then three later draws whose uniqueness probe runs to a verdict
ZERO_SEEDS = (*range(20), 28, 91, 117)
FAMILIES = {**ZOO, **{f"zero_table_{seed}": (lambda s=seed: zoo.random_zero_table_family(s))
                      for seed in ZERO_SEEDS}}
# the families whose unchecked build succeeds
BUILDING = ("anchored_table_5", "example1", "extracted_5", "hardcore_3", "hardcore_4",
            "independent", "lopsided_free", "potential_1", "ring_potential_2",
            "zero_table_7", "zero_table_15", "zero_table_18", "zero_table_28",
            "zero_table_91", "zero_table_117")


def outcome(run, *args, **kwargs):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return run(*args, **kwargs).as_dict()
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def cells(run, dens, theta, gamma):
    """An extended table, or the type and message of the raised error."""
    try:
        return run(dens, theta, gamma)
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


def splits(region):
    """Every ordered split of a region into two nonempty blocks."""
    for mask in range(1, 2 ** len(region) - 1):
        theta = tuple(s for k, s in enumerate(region) if mask >> k & 1)
        yield theta, tuple(s for s in region if s not in theta)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_order_consistency(name):
    fam = FAMILIES[name]()
    for cap in CAPS:
        assert (outcome(check_order_consistency, fam, cap)
                == outcome(oracles.check_order_consistency, fam, cap)), cap


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pointwise_compatibility(name):
    fam = FAMILIES[name]()
    for cap in CAPS:
        assert (outcome(check_pointwise_compatibility, fam, cap)
                == outcome(oracles.check_pointwise_compatibility, fam, cap)), cap


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_bounded_positivity(name):
    fam = FAMILIES[name]()
    for cap in CAPS:
        assert (outcome(check_bounded_positivity, fam, cap)
                == outcome(oracles.check_bounded_positivity, fam, cap)), cap


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extend_density_on_every_split(name):
    fam = FAMILIES[name]()
    for i, j in splits(fam.space.universe.sites[:2]):
        assert (cells(oracles.extend_values, DensityFamily(fam), i, j)
                == cells(oracles.extend_density, DensityFamily(fam), i, j))
    dens = built(fam)
    if dens is None:
        return
    for region in dens.regions():
        for theta, gamma in splits(region):
            assert (cells(oracles.extend_values, fresh(dens), theta, gamma)
                    == cells(oracles.extend_density, fresh(dens), theta, gamma))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_order_independence(name):
    fam = FAMILIES[name]()
    for cap in CAPS:
        assert (outcome(check_order_independence, fam, witness_cap=cap)
                == outcome(oracles.check_order_independence, fam,
                           witness_cap=cap)), cap


def test_building_list_is_exact():
    assert {name for name in FAMILIES if built(FAMILIES[name]())} == set(BUILDING)


@pytest.mark.parametrize("name", BUILDING)
def test_uniqueness_probe(name):
    dens = built(FAMILIES[name]())
    for cap in CAPS:
        assert (outcome(uniqueness_probe, dens, trials=4, witness_cap=cap)
                == outcome(oracles.uniqueness_probe, dens, trials=4,
                           witness_cap=cap)), cap


@pytest.mark.parametrize("name", BUILDING)
def test_specification_axioms(name):
    """The axiom report and the uniqueness probe's self-check read one
    record of part (c); the report must equal the enumeration."""
    dens = built(FAMILIES[name]())
    for cap in CAPS:
        assert (outcome(check_specification_axioms, dens, cap)
                == outcome(oracles.check_specification_axioms, fresh(dens), cap)), cap


def test_block_split_mismatch_stops_at_the_same_cell(monkeypatch):
    """A wrong default-order table makes the other splits of its region fail.

    The fault doubles every extension divisor of the default join of
    (s1, s2, s3), so that join and its block split read the same wrong
    cells and pass, and every other split of the region fails.
    """
    honest = constructor.extension_divisor

    def perturbed(dens, theta, gamma, cfg):
        num, den = honest(dens, theta, gamma, cfg)
        if tuple(theta) + tuple(gamma) == ("s1", "s2", "s3") and den:
            return Fraction(2 * num, den).as_integer_ratio()
        return num, den

    monkeypatch.setattr(constructor, "extension_divisor", perturbed)
    fam = zoo.hardcore_family(4)
    for cap in CAPS + (10_000,):
        expected = outcome(oracles.check_order_independence, fam, witness_cap=cap)
        assert expected["data"]["block_split_failures"] > 0
        assert outcome(check_order_independence, fam, witness_cap=cap) == expected


def every_point(family, site, ctx):
    """Every configuration index, good or not."""
    return frozenset(range(family.space.size))


@pytest.mark.parametrize("name", ["hardcore_3", "hardcore_4", "example1"])
def test_failing_rederivation_reports_each_witness_once(name, monkeypatch):
    """Re-deriving at blocks that are not good fails at every class
    member, but each failing (point, site) is reported once.

    Every point is made good, for the library's good core and the
    oracle's good blocks alike; the gate the probe asks for first is
    memoised before the patch."""
    dens = built(FAMILIES[name]())
    assert hypotheses.check_uniqueness_condition(dens.singletons).passed
    monkeypatch.setattr(hypotheses, "_good_points", every_point)
    for cap in CAPS + (10_000,):
        expected = outcome(oracles.uniqueness_probe, dens, trials=2,
                           witness_cap=cap)
        assert outcome(uniqueness_probe, dens, trials=2, witness_cap=cap) == expected
    rederived = [w for w in expected["witnesses"]
                 if w["description"].startswith("closed-form")]
    assert expected["data"]["rederivation_ok"] is False
    assert len(rederived) == len({repr(w) for w in rederived}) > 0


@pytest.mark.parametrize("name", ["hardcore_3", "hardcore_4", "forced_exclusion",
                                  "one_sided_hardcore_3", "zero_table_3"])
def test_ratio_kernel_failure_raises_the_same_text(name, monkeypatch):
    """A symbol that is not good sends its ratio integral out of (0, inf).

    Every point is made good, for the library's pair record, which reads
    the good-point tables, and the oracle's good symbols alike."""
    monkeypatch.setattr(hypotheses, "_good_points", every_point)
    for cap in CAPS:
        expected = outcome(oracles.check_order_consistency, FAMILIES[name](), cap)
        assert expected[:2] == ("raised", "HypothesisFailure")
        assert "good-set guarantee violated" in expected[2]
        assert outcome(check_order_consistency, FAMILIES[name](), cap) == expected


def test_per_class_evaluates_at_each_first_member_once():
    for fam in (zoo.example1_family(3), zoo.random_zero_table_family(3),
                zoo.hardcore_family(4)):
        space = fam.space
        cfgs = list(space.configurations())
        for hidden in space.universe.subsets():
            first = {}
            for cfg in cfgs:
                first.setdefault(oracles.masked_key(space, cfg, hidden), cfg)
            calls = []
            replayed = list(space.per_class(hidden, lambda b: calls.append(b) or b))
            assert calls == [cfg.index for cfg in first.values()]
            assert replayed == [(cfg.index, first[oracles.masked_key(space, cfg, hidden)].index)
                                for cfg in cfgs]


def test_infinite_divisor_writes_exact_zero():
    """Hard-core extension meets infinite divisors; their cells are 0."""
    dens = build_family(zoo.hardcore_family(3), checked=False)
    table = extend_density(fresh(dens), ("s1",), ("s2",))
    assert (0, 1) in table
    assert oracles.fractions(table) == oracles.extend_density(fresh(dens), ("s1",), ("s2",))


def divisor(run, dens, theta, gamma, cfg):
    """An extension divisor, or the type, message and witness of the raised error."""
    try:
        return run(dens, theta, gamma, cfg)
    except SpecforgeError as exc:
        witness = getattr(exc, "witness", None)
        return ("raised", type(exc).__name__, str(exc),
                witness.as_dict() if witness else None)


def divisors(run, dens, joins):
    """The divisor of every (theta, gamma) join at every configuration."""
    return [divisor(run, dens, theta, gamma, cfg)
            for theta, gamma in joins for cfg in dens.space.configurations()]


def site_joins(space):
    """Every ordered pair of distinct sites, as one-site blocks."""
    sites = space.universe.sites
    return [((i,), (j,)) for i in sites for j in sites if i != j]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extension_divisor(name):
    """Values, infinite ones included, and raised texts equal the oracle's:
    one-site joins on the singleton tables of every family, and every
    split of every region of the families that build."""
    fam = FAMILIES[name]()
    joins = site_joins(fam.space)
    assert (divisors(oracles.divisor_value, DensityFamily(fam), joins)
            == divisors(oracles.extension_divisor, DensityFamily(fam), joins))
    dens = built(fam)
    if dens is None:
        return
    joins = [split for region in dens.regions() for split in splits(region)]
    assert (divisors(oracles.divisor_value, fresh(dens), joins)
            == divisors(oracles.extension_divisor, fresh(dens), joins))


def test_extension_divisor_comparison_meets_every_outcome():
    """The families above reach finite and infinite divisors and a raise."""
    seen = set()
    for name in ("hardcore_3", "broken_pair", "zero_table_0"):
        fam = FAMILIES[name]()
        for value in divisors(oracles.divisor_value, DensityFamily(fam),
                              site_joins(fam.space)):
            seen.add(value[:2] if isinstance(value, tuple) else value.is_infinite)
    assert {False, True, ("raised", "ConstructionError")} <= seen


@pytest.mark.parametrize("table, expected", [
    (("s1",), ("3/2", "1")),
    (("s2",), ("inf", "1")),
])
def test_disagreeing_good_blocks_raise_the_same_witness(table, expected):
    """A swapped table that breaks the agreement of the good blocks.

    Good blocks are read off the singleton family, which the swap leaves
    alone; doubling the first cell of density(s1), or zeroing that of
    density(s2), changes the candidate at block ``a`` only."""
    dens = build_family(zoo.independent_family())
    values = list(dens.table(table))
    values[0] = values[0] * 2 if table == ("s1",) else 0
    sibling = dens.replace_table(table, values)
    cfg = dens.space.at(0)
    got = divisor(oracles.divisor_value, sibling, ("s1",), ("s2",), cfg)
    assert got == divisor(oracles.extension_divisor, fresh(sibling), ("s1",), ("s2",), cfg)
    lhs, rhs = expected
    assert got == ("raised", "ConstructionError",
                   "extension divisor of ('s1',) by ('s2',) at "
                   "Configuration(aaa, tail=default) disagrees across good blocks: "
                   f"{lhs} via ('a',) vs {rhs} via ('b',)",
                   {"check": "extension_divisor", "description": "good-block disagreement",
                    "replay": {"assignment": ["a", "a", "a"], "tail": "default",
                               "theta": ["s1"], "gamma": ["s2"],
                               "block_first": ["a"], "block_second": ["b"]},
                    "lhs": lhs, "rhs": rhs})
