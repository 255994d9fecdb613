"""Index points walked as integer class bases, against the walks through
configurations.

``Space.class_bases(hidden)`` lists the sorted distinct class indices
off ``hidden``; it, and the distinct entries of ``Space.class_map``,
must equal the indices of
``oracles.naive_exterior_classes``, the first-occurrence scan, for every
hidden tuple (every subset, in universe order and reversed), on spaces
with two tail classes and three symbols and with one symbol, and an
unknown site must raise on every call and leave no memo entry.

``hypotheses._good_set_sweep`` walks every (site, context, class base)
index point once per family and keeps the points whose good set has
zero free mass.  It must equal, point by point and in order, the walk
over ``naive_exterior_classes`` through ``good_symbols`` with each mass
summed as a `Fraction`.  Very weak positivity, the uniqueness condition
and pointwise compatibility, which read the record or the eight-factor
walk by index, must equal their oracles in ``oracles.py`` at caps 0, 1
and 25: on the zoo, zero-table seeds 15 and 28, hard-core draws 0-7, a
family whose only good symbol somewhere has zero free weight (so the
uniqueness condition fails where very weak positivity passes), and
families drawn by ``hypothesis`` with up to four sites, three symbols
and two tail classes, zeros included on purpose among the free weights
and the raw weights.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from specforge import hypotheses
from specforge.core import Alphabet, DomainError, FreeMeasure, Space, Universe
from specforge.models import SingletonFamily, normalize

import oracles
import zoo
from test_class_replay_oracle import CAPS, ZOO, outcome
from test_ratio_table_oracle import DrawnWeights, repaired

GATES = (
    (hypotheses.check_very_weak_positivity, oracles.check_very_weak_positivity),
    (hypotheses.check_uniqueness_condition, oracles.check_uniqueness_condition),
    (hypotheses.check_pointwise_compatibility, oracles.check_pointwise_compatibility),
)


def spaces():
    """Three sites with two tail classes, over three symbols and over one."""
    out = []
    for symbols in (("a", "b", "c"), ("a",)):
        alphabet = Alphabet(symbols)
        universe = Universe(("s1", "s2", "s3"))
        out.append(Space(alphabet, universe, FreeMeasure.uniform(alphabet, universe),
                         tail_classes=("t0", "t1")))
    return out


@pytest.mark.parametrize("space", spaces(), ids=["q3_t2", "q1_t2"])
def test_class_bases_equal_the_first_occurrence_scan(space):
    for subset in space.universe.subsets():
        for hidden in (subset, subset[::-1]):
            want = [cfg.index for cfg in oracles.naive_exterior_classes(space, hidden)]
            bases = space.class_bases(hidden)
            assert list(bases) == want, hidden
            assert space.class_bases(hidden) is bases
            assert sorted(set(space.class_map(hidden))) == want, hidden


@pytest.mark.parametrize("hidden", [("nowhere",), ("s1", "nowhere")])
def test_an_unknown_site_raises_on_every_call(hidden):
    space = spaces()[0]
    for _ in range(2):
        with pytest.raises(DomainError, match="nowhere"):
            space.class_bases(hidden)
        with pytest.raises(DomainError, match="nowhere"):
            space.class_map(hidden)
    assert hidden not in space._class_bases
    assert hidden not in space._class_maps


def sole_zero_weight_good_family() -> SingletonFamily:
    """Two sites over three symbols; s1 gives c zero free weight, and its
    density vanishes at (a, a) and (b, b), so c is s1's only good symbol
    at every point while a and b carry its whole mass."""
    alphabet = Alphabet(("a", "b", "c"))
    universe = Universe(("s1", "s2"))
    weights = {"s1": {"a": 1, "b": 1, "c": 0},
               "s2": {"a": 1, "b": 1, "c": 1}}
    space = Space(alphabet, universe, FreeMeasure(alphabet, weights))
    s1 = {("a", "a"): 0, ("b", "a"): 1, ("a", "b"): 1, ("b", "b"): 0,
          ("a", "c"): Fraction(1, 2), ("b", "c"): Fraction(1, 2)}
    tables = {"s1": {(values, "default"): s1.get(values, 1)
                     for values in space.assignments(universe.sites)},
              "s2": {(values, "default"): Fraction(1, 3)
                     for values in space.assignments(universe.sites)}}
    return SingletonFamily(space, tables)


FAMILIES = {
    **ZOO,
    "zero_table_15": lambda: zoo.random_zero_table_family(15),
    "zero_table_28": lambda: zoo.random_zero_table_family(28),
    **{f"random_hardcore_{seed}": (lambda s=seed: zoo.random_hardcore_family(s))
       for seed in range(8)},
    "sole_zero_weight_good": sole_zero_weight_good_family,
}


def oracle_sweep(family) -> list[tuple]:
    """``(site, ctx, index, good symbols)`` of each index point whose good
    set has zero `Fraction` mass, walking configurations in order."""
    space = family.space
    kept = []
    for site in space.universe.sites:
        for ctx in space.universe.subsets(space.universe.complement((site,))):
            for cfg in oracles.naive_exterior_classes(space, ctx + (site,)):
                good = hypotheses.good_symbols(family, site, ctx, cfg)
                if sum((space.free.weight(site, x) for x in good), Fraction(0)) == 0:
                    kept.append((site, ctx, cfg.index, good))
    return kept


def record_symbols(family) -> list[tuple]:
    symbols = family.space.alphabet.symbols
    return [(site, ctx, b, tuple(symbols[d] for d in good))
            for site, ctx, b, good in hypotheses._good_set_sweep(family)]


def assert_gates_equal_the_oracles(build) -> None:
    for cap in CAPS:
        family = build()
        for run, walk in GATES:
            assert outcome(run, family, cap) == outcome(walk, build(), cap), (run, cap)
    family = build()
    assert record_symbols(family) == oracle_sweep(build())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gates_and_the_sweep_record_equal_the_oracles(name):
    assert_gates_equal_the_oracles(FAMILIES[name])


def test_the_battery_holds_each_verdict_pair():
    verdicts = set()
    for build in FAMILIES.values():
        family = build()
        verdicts.add((hypotheses.check_very_weak_positivity(family).passed,
                      hypotheses.check_uniqueness_condition(family).passed))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_a_sole_zero_weight_good_symbol_fails_only_the_uniqueness_condition():
    family = sole_zero_weight_good_family()
    assert hypotheses.check_very_weak_positivity(family).passed
    report = hypotheses.check_uniqueness_condition(family)
    assert not report.passed
    assert report.data == {"index_points": 8, "violations": 4, "min_good_mass": "0"}
    assert {good for _, _, _, good in record_symbols(family)} == {("c",)}


VALUES = (0, 0, 1, 2, Fraction(1, 3))


@st.composite
def drawn_families(draw):
    """A normalized family with n ≤ 4 sites, q ≤ 3 symbols and T ≤ 2 tail
    classes, whose free weights and raw weights are drawn with zeros."""
    n, q, t = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
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
    return space, repaired(space, raws)


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(drawn_families())
def test_drawn_families_equal_the_oracles(drawn):
    space, raws = drawn
    assert_gates_equal_the_oracles(lambda: normalize(space, DrawnWeights(raws)))
