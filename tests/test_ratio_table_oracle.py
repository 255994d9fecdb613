"""The ratio tables against the `Fraction` oracles.

``Tabulated.ratio_table`` holds, per ordered pair of disjoint regions
(over, against) and exterior class off ``over``, the free integral over
``over`` of density(over)/density(against) as an integer pair: None
where it is undefined, a zero second member where it is infinite and a
zero first member where it is zero.  It is the only ratio integral the
library computes.  Between two sites every entry must equal
``oracles.ratio_integral``, one `Fraction` operation per term, at the
class's first member, outcome included, and the table must list every
class off ``over`` in index order; read at any configuration of the
class, the table must give the oracle's value there, and its guard,
``ratio_pair``, the value where it lies in (0, inf) and None elsewhere.  Covered: the zoo, zero-table seeds 15 and
28, hard-core draws, a family with zero free weights, and whole tables
drawn by ``hypothesis`` with up to three sites, three symbols and two
tail classes, zeros included on purpose among both the free weights and
the raw weights.  On each family's build (its singleton tables where it
does not build) every ordered pair of disjoint nonempty regions is
compared in the same way with ``oracles.regional_ratio_integral``, which
reads the family's densities point by point.  A `replace_table` sibling
reads tables of its own for every pair but two shared sites, so never
its parent's or the singleton family's for a replaced region, and
leaves those as they were.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from specforge.constructor import DensityFamily, build_family
from specforge.core import Alphabet, FreeMeasure, Space, SpecforgeError, Universe
from specforge.models import normalize

import oracles
import zoo
from test_class_replay_oracle import ZOO


class DrawnWeights:
    """Raw weights given as one list per site, indexed by configuration."""

    def __init__(self, raws: dict):
        self.raws = raws

    def raw_value(self, space, site, cfg):
        return self.raws[site][cfg.index]


def zero_free_family():
    """Three symbols, with zero free weights at s1 and s3 and zero raw
    weights, so that undefined and infinite integrals occur."""
    alphabet = Alphabet(("a", "b", "c"))
    universe = Universe(("s1", "s2", "s3"))
    weights = {"s1": {"a": 1, "b": 0, "c": 1},
               "s2": {"a": 1, "b": 1, "c": 1},
               "s3": {"a": 0, "b": 2, "c": 1}}
    space = Space(alphabet, universe, FreeMeasure(alphabet, weights))
    raws = {site: [Fraction((k * (m + 2)) % 5, 1 + k % 3) for k in range(space.size)]
            for m, site in enumerate(universe)}
    return normalize(space, DrawnWeights(repaired(space, raws)))


def repaired(space, raws):
    """``raws`` with weight 1 on the first positive free weight of every
    (site, exterior class) line whose mass is zero, so that it normalizes."""
    for site, raw in raws.items():
        for cfg in space.exterior_classes((site,)):
            members = [(cfg.index + offset, w) for offset, w in oracles.fill_offsets(space, (site,))]
            if not any(w and raw[index] for index, w in members):
                raw[next(index for index, w in members if w)] = Fraction(1)
    return raws


FAMILIES = {
    **ZOO,
    "zero_table_15": lambda: zoo.random_zero_table_family(15),
    "zero_table_28": lambda: zoo.random_zero_table_family(28),
    **{f"random_hardcore_{seed}": (lambda s=seed: zoo.random_hardcore_family(s))
       for seed in range(8)},
    "zero_free": zero_free_family,
}


def kind(value) -> str:
    """The outcome of an oracle value."""
    if value is None:
        return "undefined"
    return "infinite" if value.is_infinite else "zero" if oracles.is_zero(value) else "finite"


def value_of(pair):
    """A table entry as an extended rational, None where undefined."""
    return None if pair is None else oracles.extended(pair)


def check_reads(family, over, against, cfg, want) -> None:
    """The table read at ``cfg`` is the oracle's value ``want``, and the
    guard gives it where it lies in (0, inf) and None elsewhere."""
    space = family.space
    table = family.ratio_table(over, against)
    assert value_of(table[space.class_index(cfg, over)]) == want, (over, against, cfg)
    guarded = want.fraction if kind(want) == "finite" else None
    pair = family.ratio_pair(over, against, cfg)
    assert (None if pair is None else Fraction(*pair)) == guarded, (over, against, cfg)


def compare_tables(family) -> set:
    """Assert every ratio table of two sites of ``family`` equals the
    oracle, entry by entry and read at every configuration, and return
    the outcomes seen."""
    space = family.space
    seen = set()
    for i, j in itertools.product(space.universe.sites, repeat=2):
        over, against = (i,), (j,)
        table = family.ratio_table(over, against)
        assert list(table) == [cfg.index for cfg in space.exterior_classes(over)]
        for b, pair in table.items():
            want = oracles.ratio_integral(space, over, oracles.fractions(family._tables[over]),
                                          oracles.fractions(family._tables[against]),
                                          space.at(b))
            got = ("undefined" if pair is None else "infinite" if not pair[1]
                   else "zero" if not pair[0] else "finite")
            assert got == kind(want), (over, against, b)
            if got == "finite":
                assert Fraction(*pair) == want.fraction, (over, against, b)
            seen.add(got)
        for cfg in space.configurations():
            check_reads(family, over, against, cfg, oracles.ratio_integral(
                space, over, oracles.fractions(family._tables[over]),
                oracles.fractions(family._tables[against]), cfg))
    return seen


def density_family(singletons) -> DensityFamily:
    """Every region when the family builds, else the empty and site tables."""
    try:
        return build_family(singletons, checked=False)
    except SpecforgeError:
        return DensityFamily(singletons)


def compare_region_tables(dens) -> set:
    """Assert the ratio table of every ordered pair of disjoint nonempty
    regions of ``dens`` lists every class off ``over`` in index order and,
    read at every configuration, equals `oracles.regional_ratio_integral`
    there; return the outcomes seen."""
    space = dens.space
    regions = [region for region in dens.regions() if region]
    seen = set()
    for over, against in itertools.product(regions, repeat=2):
        if set(over) & set(against):
            continue
        table = dens.ratio_table(over, against)
        assert list(table) == [cfg.index for cfg in space.exterior_classes(over)]
        for cfg in space.configurations():
            want = oracles.regional_ratio_integral(dens, over, over, against, cfg)
            check_reads(dens, over, against, cfg, want)
            seen.add(kind(want))
    return seen


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_ratio_tables_equal_the_oracle(name):
    compare_tables(FAMILIES[name]())


def test_every_outcome_of_a_singleton_family_occurs():
    """No integral of a singleton family is zero: density(over) has mass
    1 on every line, so some fill of positive weight carries a positive
    numerator, whose term is positive or infinite.  The other three
    outcomes must all occur."""
    seen = set()
    for name in ("zero_table_15", "zero_table_28", "zero_free"):
        seen |= compare_tables(FAMILIES[name]())
    assert seen == {"undefined", "infinite", "finite"}


def test_a_sibling_with_another_site_table_reads_its_own_tables():
    """A `replace_table` sibling of a single site reads that site's
    integrals off tables of its own, built from its tables (a zero line
    makes some of them zero); the singleton family's tables, and the
    parent's reads, stay as they were."""
    family = zoo.potential_family(1)[2]
    dens = build_family(family, checked=False)
    space = family.space
    pairs = list(itertools.product(space.universe.sites, repeat=2))
    parent = {pair: dict(dens.ratio_table((pair[0],), (pair[1],))) for pair in pairs}
    reads = [(pair, cfg, dens.ratio_pair((pair[0],), (pair[1],), cfg))
             for pair in pairs for cfg in space.configurations()]
    memo = dict(family._cache)
    site = space.universe.sites[0]
    line = {cfg.index for cfg in space.configurations()
            if space.class_index(cfg, (site,)) == 0}
    sibling = dens.replace_table((site,), [
        Fraction(0) if k in line else value * (k % 3 + 1)
        for k, value in enumerate(dens.table((site,)))])
    assert "zero" in compare_tables(sibling)
    for over, against in pairs:
        table = sibling.ratio_table((over,), (against,))
        if site in (over, against):
            assert ("ratio_table", (over,), (against,)) in sibling._cache
            assert table is not family.ratio_table((over,), (against,))
        else:
            assert table is family.ratio_table((over,), (against,))
    assert any(sibling.ratio_table((site,), (other,)) != parent[site, other]
               for other in space.universe.sites if other != site)
    assert family._cache.keys() == memo.keys()
    assert {pair: dens.ratio_table((pair[0],), (pair[1],)) for pair in pairs} == parent
    assert all(dens.ratio_pair((pair[0],), (pair[1],), cfg) == value
               for pair, cfg, value in reads)


BUILT = {name: FAMILIES[name]
         for name in (*ZOO, "zero_table_15", "zero_table_28",
                      *(f"random_hardcore_{seed}" for seed in range(8)))}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_region_pair_tables_equal_the_regional_oracle(name):
    compare_region_tables(density_family(BUILT[name]()))


def test_region_pairs_of_several_sites_and_every_outcome_occur():
    """Most of these families build at three sites or more, so their
    pairs have several sites on either side, and the comparison meets
    undefined, infinite and finite integrals."""
    seen = set()
    several = 0
    for name in sorted(BUILT):
        dens = density_family(BUILT[name]())
        several += max(len(region) for region in dens.regions()) >= 3
        seen |= compare_region_tables(dens)
    assert several >= 10
    assert {"undefined", "infinite", "finite"} <= seen


def test_a_sibling_with_another_region_table_reads_its_own_tables():
    """A `replace_table` sibling of a two-site region, with a zero line,
    reads every pair through tables of its own but those of two shared
    sites, and they equal the regional oracle on its tables, a zero
    integral included; the parent's tables and reads stay as they were."""
    dens = build_family(zoo.potential_family(1)[2], checked=False)
    space = dens.space
    region = space.universe.sites[:2]
    regions = [r for r in dens.regions() if r]
    pairs = [(over, against) for over, against in itertools.product(regions, repeat=2)
             if not set(over) & set(against)]
    parent = {pair: dict(dens.ratio_table(*pair)) for pair in pairs}
    line = {offset for offset, _ in oracles.fill_offsets(space, region)}
    sibling = dens.replace_table(region, [
        Fraction(0) if k in line else value * (k % 3 + 1)
        for k, value in enumerate(dens.table(region))])
    assert "zero" in compare_region_tables(sibling)
    for over, against in pairs:
        table = sibling.ratio_table(over, against)
        if len(over) == len(against) == 1:
            assert table is dens.singletons.ratio_table(over, against)
        else:
            assert ("ratio_table", over, against) in sibling._cache
            assert table is not dens.ratio_table(over, against)
    assert any(sibling.ratio_table(over, region) != parent[over, region]
               for over, against in pairs if against == region)
    assert {pair: dens.ratio_table(*pair) for pair in pairs} == parent


VALUES = (0, 0, 1, 2, Fraction(1, 3))


@st.composite
def drawn_families(draw):
    """A normalized family with n ≤ 3 sites, q ≤ 3 symbols and T ≤ 2 tail
    classes, whose free weights and raw weights are drawn with zeros."""
    n, q, t = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    alphabet = Alphabet(("a", "b", "c")[:q])
    universe = Universe(tuple(f"s{k}" for k in range(1, n + 1)))
    weights = {}
    for site in universe:
        row = draw(st.lists(st.sampled_from(VALUES), min_size=q, max_size=q))
        if not any(row):
            row[draw(st.integers(0, q - 1))] = 1
        weights[site] = dict(zip(alphabet, row))
    space = Space(alphabet, universe, FreeMeasure(alphabet, weights),
                  tail_classes=("t0", "t1")[:t])
    raws = {site: [Fraction(v) for v in draw(st.lists(
        st.sampled_from(VALUES), min_size=space.size, max_size=space.size))]
        for site in universe}
    return normalize(space, DrawnWeights(repaired(space, raws)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_families())
def test_drawn_ratio_tables_equal_the_oracle(family):
    compare_tables(family)
