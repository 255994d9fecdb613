"""Good blocks read as indices off the good-point tables, against the
product of good symbols.

``hypotheses._block_tables`` gives, per site k of a region, k's stride
and its good-point table against the rest of the region plus a context.
``constructor.extension_divisor`` reads its good blocks off them at the
class base b off the region: the product, in region order, of each
table's good digits at b, the block (d_k) being the point b + Σ d_k·s_k
(``block_points`` below).  At every (θ, γ) and configuration of the
gated families of ``test_axiom_readoff_oracle`` and the two-tail
hard-core chain, those blocks must be ``oracles.good_blocks`` at the
configuration, in the same order, each at the point the oracle's
overlay gives it.  On ``replace_table`` siblings with one cell doubled
or zeroed, the divisor must equal ``oracles.extension_divisor``, raised
texts and witnesses included, and the siblings must reach every raise.
A build after the gates asks ``hypotheses.good_symbols`` nothing and
memoises no divisor; it leaves one block-table entry per join.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from specforge import hypotheses
from specforge.constructor import build_family
from specforge.core import Universe
from specforge.hypotheses import _block_tables, _good_digits

import oracles
import zoo
from test_axiom_readoff_oracle import GATED
from test_class_replay_oracle import divisor, fresh

CHAINED = {**GATED, "two_tail_hardcore_4": zoo.two_tail_hardcore_family}


def block_points(family, region, context, base) -> list[tuple[tuple[int, ...], int]]:
    """``(digits, point)`` per good block of the canonical ``region``
    against the canonical ``context`` at the class base ``base``, as
    `constructor.extension_divisor` reads them off `_block_tables`."""
    q = len(family.space.alphabet)
    tables = _block_tables(family, region, context)
    return [(block, base + sum(d * stride for d, (stride, _) in zip(block, tables)))
            for block in itertools.product(*(_good_digits(table, base, stride, q)
                                             for stride, table in tables))]


def table_blocks(family, region, context, cfg) -> tuple[tuple[str, ...], ...]:
    """The good blocks of ``block_points`` at ``cfg``'s class, as symbols."""
    space = family.space
    universe = space.universe
    reg = universe.region(region)
    symbols = space.alphabet.symbols
    return tuple(tuple(symbols[d] for d in block) for block, _ in block_points(
        family, reg, universe.region(context), space.class_map(reg)[cfg.index]))


def joins(universe):
    """Every (θ, γ) of disjoint regions with γ nonempty."""
    for theta in universe.subsets():
        for gamma in universe.subsets(universe.complement(theta)):
            if gamma:
                yield theta, gamma


@pytest.mark.parametrize("name", sorted(CHAINED))
def test_block_points_are_the_oracle_blocks_in_order(name):
    family = CHAINED[name]()
    space = family.space
    symbols = space.alphabet.symbols
    partial = False
    for theta, gamma in joins(space.universe):
        classes = space.class_map(theta)
        for cfg in space.configurations():
            expected = oracles.good_blocks(family, theta, gamma, cfg)
            got = block_points(family, theta, gamma, classes[cfg.index])
            assert [tuple(symbols[d] for d in block) for block, _ in got] == list(expected)
            assert [point for _, point in got] == [
                oracles.overlay(space, cfg, theta, block).index for block in expected]
            assert [point for _, point in got] == sorted(point for _, point in got)
            partial |= 0 < len(expected) < len(symbols) ** len(theta)
    # a zero density leaves its symbol out of some good set, never all of it
    assert partial == any(not num for table in family._tables.values() for num, _ in table)


def siblings(dens):
    """``(sibling, reading)`` per ``replace_table`` sibling of
    ``dens``: each built region of one or two sites with its first
    nonzero cell doubled, then zeroed, and the (θ, γ) of built regions
    whose divisor reads that region's table, as θ or as γ."""
    universe = dens.space.universe
    for region in dens.regions():
        if not 1 <= len(region) <= 2:
            continue
        reading = [(theta, gamma) for theta, gamma in joins(universe)
                   if region in (theta, gamma) and theta in dens._tables
                   and gamma in dens._tables]
        values = list(dens.table(region))
        first = next(k for k, v in enumerate(values) if v)
        for value in (values[first] * 2, Fraction(0)):
            changed = values.copy()
            changed[first] = value
            yield dens.replace_table(region, changed), reading


SIBLING_FAMILIES = ("example1", "hardcore_4", "potential_1", "zero_table_15",
                    "two_tail_hardcore_4")


@pytest.mark.parametrize("name", SIBLING_FAMILIES)
def test_divisor_equals_the_oracle_on_siblings(name):
    """Values and raised texts, with their witnesses, equal the oracle's
    at every (θ, γ) of built regions and every configuration."""
    dens = build_family(CHAINED[name](), checked=False)
    for sibling, reading in siblings(dens):
        for theta, gamma in reading:
            for cfg in dens.space.configurations():
                assert (divisor(oracles.divisor_value, sibling, theta, gamma, cfg)
                        == divisor(oracles.extension_divisor, fresh(sibling), theta, gamma, cfg))


def test_siblings_reach_every_raise():
    """The sibling comparison meets each of the divisor's three raised
    texts, and finite and infinite values."""
    seen = set()
    for name in SIBLING_FAMILIES:
        dens = build_family(CHAINED[name](), checked=False)
        for sibling, reading in siblings(dens):
            for theta, gamma in reading:
                for cfg in dens.space.configurations():
                    got = divisor(oracles.divisor_value, sibling, theta, gamma, cfg)
                    if isinstance(got, tuple):
                        seen.add(next(text for text in ("vanishes", "is not in (0, inf)",
                                                        "disagrees", "no good block")
                                      if text in got[2]))
                    else:
                        seen.add(got.is_infinite)
    assert seen >= {True, False, "vanishes", "is not in (0, inf)", "disagrees"}


@pytest.mark.parametrize("name", ["example1", "hardcore_4", "zero_table_28",
                                  "two_tail_hardcore_4", "hardcore_graph_3"])
def test_a_build_after_the_gates_asks_no_good_symbols(name, monkeypatch):
    """With the gates run, an unchecked build reads every good block off
    the block tables: no `good_symbols` call, no divisor memo and no
    ``good_blocks`` entry, one block table per (region minus its last
    site, last site) join."""
    family = CHAINED[name]()
    assert hypotheses.check_order_consistency(family).passed
    calls = Counter()
    honest = hypotheses.good_symbols

    def counted(*args):
        calls["good_symbols"] += 1
        return honest(*args)

    monkeypatch.setattr(hypotheses, "good_symbols", counted)
    dens = build_family(family, checked=False)
    assert calls == Counter()
    kinds = {key[0] for key in (*family._cache, *dens._cache)}
    assert kinds.isdisjoint({"extension_divisor", "good_blocks"})
    multi = [region for region in dens.regions() if len(region) >= 2]
    assert {key for key in family._cache if key[0] == "block_tables"} == {
        ("block_tables", region[:-1], region[-1:]) for region in multi}


def test_block_tables_are_memoised_per_region_and_context(monkeypatch):
    """A second read of the same canonical (region, context) returns the
    same tables and asks neither `Universe.region` nor `_good_points`."""
    _, family = zoo.anchored_table_family(9)
    first = _block_tables(family, ("s1", "s3"), ("s2",))
    assert [stride for stride, _ in first] == list(family.space.strides(("s1", "s3")))
    assert [table for _, table in first] == [
        hypotheses._good_points(family, "s1", ("s2", "s3")),
        hypotheses._good_points(family, "s3", ("s1", "s2"))]
    asked = []
    honest_region = Universe.region
    honest_points = hypotheses._good_points

    def counted_region(self, sites):
        asked.append(tuple(sites))
        return honest_region(self, sites)

    def counted_points(family, site, ctx):
        asked.append((site, ctx))
        return honest_points(family, site, ctx)

    monkeypatch.setattr(Universe, "region", counted_region)
    monkeypatch.setattr(hypotheses, "_good_points", counted_points)
    assert _block_tables(family, ("s1", "s3"), ("s2",)) is first
    assert asked == []
