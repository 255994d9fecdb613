"""Shared core primitives against the code they replaced.

The integer configuration index must be the position in
``configurations()`` and follow its digits (``naive_index``), and the
class index off a set of hidden sites must group configurations exactly
as the ``masked_key`` tuples did, at the index of each class's first
member.  ``Space.exterior_classes`` builds one representative per
exterior class directly; the oracle scans every configuration and keeps
the first of each ``masked_key`` class.  ``Tabulated.ratio_table`` is the
one raw ratio integral, one table per ordered pair of disjoint regions
(over, against) over the exterior classes off ``over``; the oracles are
the single-site and the regional copies it replaced.
``DensityFamily.ratio_pair`` is the one guarded ratio integral, read off
that table, and ``ratio_integral`` its `Fraction`; at every configuration
both must equal the regional oracle there when that lies in (0, inf), and
None otherwise.  A `replace_table` sibling reads tables of its own for
every pair but two shared single sites.  Results must agree exactly,
representatives and their order included, and undefined (None) and
infinite outcomes included.
"""

import itertools
from fractions import Fraction

import pytest

from specforge.constructor import DensityFamily, build_family
from specforge.core import (
    Alphabet,
    DomainError,
    ExtendedRational,
    FreeMeasure,
    Space,
    SpecforgeError,
    Universe,
)

from oracles import (
    masked_key,
    naive_exterior_classes,
    naive_index,
    regional_ratio_integral,
    site_ratio_kernel,
)
from zoo import (
    example1_space,
    hardcore_family,
    lopsided_free_family,
    one_sided_hardcore_family,
    plain_space,
    potential_family,
    random_zero_table_family,
)

SPACES = {
    "q2_t1": lambda: plain_space(3),
    "q3_t1": lambda: plain_space(3, ("a", "b", "c")),
    "q2_t2": lambda: example1_space(3),
    "q2_t2_n4": lambda: example1_space(4),
    "q3_t2": lambda: random_zero_table_family(9).space,  # n=3, q=3, T=2
    "q1_t1": lambda: plain_space(2, ("a",)),
    "q2_t2_reversed": lambda: declared_space(("b", "a"), ("u", "t"), 3),
    "q3_t2_shuffled": lambda: declared_space(("c", "a", "b"), ("t1", "t0"), 3),
}


def declared_space(symbols, tails, n_sites) -> Space:
    """A space whose alphabet and tail classes are declared out of string
    order, so that declared positions and sorted strings disagree."""
    alphabet = Alphabet(symbols)
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)))
    return Space(alphabet, universe, FreeMeasure.uniform(alphabet, universe), tails)


def every_hidden(space):
    """Every ordered tuple of distinct sites, the empty one included."""
    sites = space.universe.sites
    for size in range(len(sites) + 1):
        yield from itertools.permutations(sites, size)


class TestConfigurationIndex:
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_the_kth_configuration_has_index_k(self, name):
        space = SPACES[name]()
        for k, cfg in enumerate(space.configurations()):
            assert cfg.index == k == naive_index(space, cfg)
            assert space.at(k) is cfg
            assert space.make(*cfg.key) is cfg

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_overlay_and_with_sites_keep_the_index(self, name):
        space = SPACES[name]()
        sites = space.universe.sites
        symbols = space.alphabet.symbols
        for cfg in space.configurations():
            for k, site in enumerate(sites):
                sym = symbols[k % len(symbols)]
                for moved in (space.overlay(cfg, (site,), (sym,)),
                              cfg.with_sites({site: sym})):
                    values = cfg.values[:k] + (sym,) + cfg.values[k + 1:]
                    assert moved.key == (values, cfg.tail)
                    assert moved.index == naive_index(space, moved)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_class_index_groups_as_the_masked_key(self, name):
        """Twice over every hidden tuple: the second pass reads the memoised
        class maps, after every other tuple's."""
        space = SPACES[name]()
        hiddens = list(every_hidden(space))
        for hidden in hiddens + hiddens[::-1]:
            first = {}
            for cfg in space.configurations():
                first.setdefault(masked_key(space, cfg, hidden), cfg)
            for cfg in space.configurations():
                assert (space.class_index(cfg, hidden)
                        == first[masked_key(space, cfg, hidden)].index), hidden

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_classes_and_per_class_replay_the_first_member(self, name):
        space = SPACES[name]()
        for hidden in every_hidden(space):
            slow = list(naive_exterior_classes(space, hidden))
            assert list(space.exterior_classes(hidden)) == slow, hidden
            assert [cfg.index for cfg in slow] == sorted(
                {space.class_index(cfg, hidden) for cfg in space.configurations()})
            first = {masked_key(space, cfg, hidden): cfg for cfg in reversed(slow)}
            for form in (tuple, iter):
                calls = []
                replayed = list(space.per_class(form(hidden),
                                                lambda cfg: calls.append(cfg) or cfg))
                assert calls == slow
                assert replayed == [(cfg, first[masked_key(space, cfg, hidden)])
                                    for cfg in space.configurations()]


class TestMemoisedIndexBookkeeping:
    """``Universe.region`` and the class maps behind ``Space.class_index``
    and ``Space.per_class`` are memoised per input tuple: a repeated call
    must return what the first did, whatever form the sites come in (the
    class maps are read twice in ``TestConfigurationIndex``), and an input
    that raises must raise on every call."""

    def test_region_of_lists_generators_and_shuffled_tuples(self):
        universe = Universe(("s1", "s2", "s3", "s4"))
        for size in range(len(universe) + 1):
            for sites in itertools.permutations(universe.sites, size):
                want = tuple(s for s in universe.sites if s in sites)
                for _ in range(2):
                    assert universe.region(list(sites)) == want
                    assert universe.region(s for s in sites) == want
                    assert universe.region(sites) == want

    @pytest.mark.parametrize("sites, message", [
        (("s1", "s1"), "listed twice"),
        (("s3", "s1", "s3"), "listed twice"),
        (("s2", "nowhere"), "not in universe"),
    ])
    def test_bad_region_raises_on_every_call(self, sites, message):
        universe = Universe(("s1", "s2", "s3"))
        for _ in range(3):
            for form in (tuple, list, iter):
                with pytest.raises(DomainError, match=message):
                    universe.region(form(sites))

    def test_unknown_hidden_site_raises_on_every_call(self):
        space = plain_space(2)
        cfg = space.at(0)
        for _ in range(2):
            with pytest.raises(DomainError, match="not in universe"):
                space.class_index(cfg, ("s1", "nowhere"))
            with pytest.raises(DomainError, match="not in universe"):
                list(space.per_class(("nowhere",), lambda cfg: cfg))


class TestExteriorClasses:
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_representatives_match_the_first_occurrence_scan(self, name):
        space = SPACES[name]()
        for hidden in every_hidden(space):
            fast = [cfg.key for cfg in space.exterior_classes(hidden)]
            slow = [cfg.key for cfg in naive_exterior_classes(space, hidden)]
            assert fast == slow, hidden

    def test_unknown_site_rejected(self):
        space = plain_space(2)
        with pytest.raises(SpecforgeError):
            list(space.exterior_classes(("nowhere",)))


def density_family(singletons) -> DensityFamily:
    """Every region when the family builds, else the empty and site tables."""
    try:
        return build_family(singletons, checked=False)
    except SpecforgeError:
        return DensityFamily(singletons)


FAMILIES = {
    "hardcore": lambda: hardcore_family(3),
    "one_sided_hardcore": lambda: one_sided_hardcore_family(3),
    "lopsided_free": lopsided_free_family,
    "potential": lambda: potential_family(5)[2],
    **{f"random_zero_{seed}": (lambda seed=seed: random_zero_table_family(seed))
       for seed in range(10)},
}


def outcome(value) -> str:
    if value is None:
        return "undefined"
    return "infinite" if value.is_infinite else "finite"


def disjoint_pairs(dens) -> list:
    """Every ordered pair of disjoint nonempty built regions."""
    regions = [region for region in dens.regions() if region]
    return [(over, against) for over, against in itertools.product(regions, repeat=2)
            if not set(over) & set(against)]


def table_value(dens, over, against, cfg):
    """The ``ratio_table`` entry at the class of ``cfg`` off ``over`` as
    an extended rational, None where undefined."""
    pair = dens.ratio_table(over, against)[dens.space.class_index(cfg, over)]
    return None if pair is None else ExtendedRational._of_pair(pair)


def compare_ratio_integrals(singletons) -> set:
    """Assert the ratio table of every ordered pair of disjoint nonempty
    regions equals both replaced copies at every configuration; return
    the outcomes seen."""
    dens = density_family(singletons)
    space = dens.space
    seen = set()
    for over, against in disjoint_pairs(dens):
        for cfg in space.configurations():
            fast = table_value(dens, over, against, cfg)
            assert fast == regional_ratio_integral(dens, over, over, against, cfg)
            if len(over) == len(against) == 1:
                assert fast == site_ratio_kernel(
                    singletons, over[0], over[0], against[0], cfg)
            seen.add(outcome(fast))
    return seen


class TestRatioIntegral:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_both_replaced_copies(self, name):
        compare_ratio_integrals(FAMILIES[name]())

    def test_every_outcome_occurs(self):
        # zero densities and zero free weights must drive the integral to
        # each of its three outcomes, or the comparison proves little
        seen = set()
        for seed in range(8):
            seen |= compare_ratio_integrals(random_zero_table_family(seed))
        assert seen == {"undefined", "infinite", "finite"}


def guarded(value):
    """The raw integral when it lies in (0, inf), else None."""
    if value is None or value.is_infinite or value == 0:
        return None
    return value.fraction


def compare_memoised_ratio_integrals(dens) -> set:
    """Assert the guarded reads equal the guarded oracle for every ordered
    pair of disjoint nonempty built regions at every configuration,
    reading in reverse enumeration order so that each table is first
    read at the last member of a class; return the raw outcomes seen."""
    space = dens.space
    pairs = disjoint_pairs(dens)
    seen = set()
    for cfg in reversed(list(space.configurations())):
        for over, against in pairs:
            raw = regional_ratio_integral(dens, over, over, against, cfg)
            want = guarded(raw)
            pair = dens.ratio_pair(over, against, cfg)
            assert dens.ratio_integral(over, against, cfg) == want, (over, against, cfg)
            assert (None if pair is None else Fraction(*pair)) == want
            assert pair is None or pair[1] > 0
            seen.add(outcome(raw))
    return seen


class TestMemoisedRatioIntegral:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_the_guarded_raw_integral(self, name):
        compare_memoised_ratio_integrals(density_family(FAMILIES[name]()))

    def test_every_raw_outcome_occurs(self):
        seen = set()
        for seed in range(8):
            seen |= compare_memoised_ratio_integrals(
                density_family(random_zero_table_family(seed)))
        assert seen == {"undefined", "infinite", "finite"}

    def test_a_sibling_with_another_table_keeps_its_own_memo(self):
        dens = build_family(potential_family(5)[2], checked=False)
        region = ("s1", "s2")
        table = dens.table(region)
        sibling = dens.replace_table(
            region, [value * (k % 3 + 1) for k, value in enumerate(table)])
        compare_memoised_ratio_integrals(dens)
        compare_memoised_ratio_integrals(sibling)
        for over, against in disjoint_pairs(dens):
            if len(over) == len(against) == 1:
                assert (sibling.ratio_table(over, against)
                        is dens.singletons.ratio_table(over, against))
            else:
                assert ("ratio_table", over, against) in sibling._cache
                assert (sibling.ratio_table(over, against)
                        is not dens.ratio_table(over, against))
        cfg = next(dens.space.configurations())
        assert any(dens.ratio_integral(over, region, cfg)
                   != sibling.ratio_integral(over, region, cfg)
                   for over in dens.regions() if over and not set(over) & set(region))
