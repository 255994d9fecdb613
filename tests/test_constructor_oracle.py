"""Shared construction work against naive oracles.

``check_order_independence`` rebuilds no sweep: it reads each sweep's
first mismatching region off the single-site joins of the reference
tables, one ``extend_density`` call per (region, joining site), and
``Space.fill_pairs`` memoizes the free-weight product of every fill of
a region as a reduced integer pair.  The oracles below are the direct
definitions: a full rebuild of the family under every permutation
(``oracles.check_order_independence``), and the product of the free
weights taken afresh, with each fill's offset from its naive index.  Results must agree exactly,
witnesses and raised errors included.  The sweep sample draws ranks and
unranks them; it must equal the sample drawn from the list of every
permutation.
"""

import itertools
import random
from fractions import Fraction

import pytest

from specforge import constructor
from specforge.constructor import ConstructionError, check_order_independence
from specforge.core import FreeMeasure, Space

from oracles import check_order_independence as naive_order_independence, naive_index, with_sites
from zoo import (
    broken_pair_family,
    example1_family,
    extracted_family,
    hardcore_family,
    lopsided_free_family,
    potential_family,
    random_zero_table_family,
    unnormalized_free_family,
)


def outcome(check, family, **kwargs):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return check(family, **kwargs).as_dict()
    except ConstructionError as exc:
        return ("raised", str(exc))


EXHAUSTIVE = {
    "example1_n3": lambda: example1_family(3),
    "example1_n4": lambda: example1_family(4),
    "hardcore_n3": lambda: hardcore_family(3),
    "hardcore_n4": lambda: hardcore_family(4),
    "potential_n4": lambda: potential_family(56, n_sites=4)[2],
    "extracted_n3": lambda: extracted_family(57)[2],
    "lopsided_free": lopsided_free_family,
    "unnormalized_free": unnormalized_free_family,
    "broken_pair": broken_pair_family,
    "zero_table_15": lambda: random_zero_table_family(15),
    "zero_table_16": lambda: random_zero_table_family(16),
}

SAMPLED = {
    "example1_n5": lambda: example1_family(5),
    "hardcore_n5": lambda: hardcore_family(5),
}


class TestOrderIndependenceOracle:
    @pytest.mark.parametrize("name", sorted(EXHAUSTIVE))
    def test_exhaustive_matches_full_rebuild(self, name):
        family = EXHAUSTIVE[name]()
        expected = outcome(naive_order_independence, family)
        assert outcome(check_order_independence, family) == expected

    @pytest.mark.parametrize("cap", [24, 2])
    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_sampled_matches_full_rebuild(self, name, cap):
        family = SAMPLED[name]()
        expected = outcome(naive_order_independence, family,
                           permutation_cap=cap)
        assert expected["data"]["permutations_sampled"] is True
        assert outcome(check_order_independence, family,
                       permutation_cap=cap) == expected

    @pytest.mark.parametrize("chosen", [
        ("s3", "s1", "s2"),
        ("s2", "s4", "s1"),
        ("s4", "s3", "s2", "s1"),
    ])
    def test_perturbed_restricted_order_is_caught(self, monkeypatch, chosen):
        """One non-default single-site join builds a wrong table.

        The patch is keyed on the inputs of ``extend_density``: the
        region ``chosen`` joined by its last site.  Only permutations
        sweeping that site last on the region build the wrong table, so
        a suite that reads every sweep off the default join reports no
        mismatch.
        """
        honest = constructor.extend_density

        def perturbed(dens, theta, gamma):
            table = honest(dens, theta, gamma)
            if (set(theta) | set(gamma) == set(chosen)
                    and tuple(gamma) == chosen[-1:]):
                num, den = table[0]
                table[0] = (num + den, den)  # one more, still reduced
            return table

        monkeypatch.setattr(constructor, "extend_density", perturbed)
        family = hardcore_family(4)
        expected = outcome(naive_order_independence, family)
        assert expected["data"]["permutation_mismatches"] > 0
        assert expected["witnesses"]
        assert outcome(check_order_independence, family) == expected


class TestSweepOrders:
    """The sweep sample draws ranks and unranks them; it must be the sample
    ``random.Random(seed).sample`` draws from the list of every
    permutation, which ``check_order_independence`` used to build."""

    @pytest.mark.parametrize("n_sites", [1, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("seed", [20260819, 7])
    def test_sample_equals_the_listed_sample(self, n_sites, seed):
        sites = tuple(f"s{k}" for k in range(1, n_sites + 1))
        every = list(itertools.permutations(sites))
        for cap in (0, 1, 24, 100):
            if len(every) <= cap:
                expected = (every, False)
            else:
                expected = (random.Random(seed).sample(every, cap), True)
            assert constructor._sweep_orders(sites, cap, seed) == expected, cap


def naive_product_weight(space, region, block) -> Fraction:
    w = Fraction(1)
    for site, sym in zip(region, block):
        w *= space.free.weights[site][sym]
    return w


class TestFillPairsMemo:
    @pytest.mark.parametrize("family", [
        lopsided_free_family, unnormalized_free_family,
        lambda: random_zero_table_family(3), lambda: example1_family(3),
    ])
    def test_every_region_and_block(self, family):
        space = family().space
        first = space.at(0)
        for region in space.universe.subsets():
            fills = space.fill_pairs(region)
            assert space.fill_pairs(region) is fills
            blocks = list(space.assignments(region))
            assert len(fills) == len(blocks)
            for (offset, num, den), block in zip(fills, blocks):
                assert type(num) is int and type(den) is int
                assert (num, den) == naive_product_weight(space, region, block).as_integer_ratio()
                assert offset == naive_index(space, with_sites(first, dict(zip(region, block))))

    def test_spaces_with_different_free_measures_do_not_share(self):
        space = lopsided_free_family().space
        heavy = FreeMeasure(space.alphabet, {
            site: {sym: Fraction(3) for sym in space.alphabet}
            for site in space.universe
        })
        other = Space(space.alphabet, space.universe, heavy)
        region, position = ("s1", "s2"), 2  # the block ("b", "a")
        assert space.fill_pairs(region)[position][1:] == (0, 1)
        assert other.fill_pairs(region)[position][1:] == (9, 1)
        assert space.fill_pairs(region)[position][1:] == (0, 1)
