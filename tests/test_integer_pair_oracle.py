"""Integer-pair rows and normalization against their `Fraction` oracles.

``verifier._pair_row`` is a kernel row as integer pairs, ``index ->
(v_num·w_num, v_den·w_den)`` over the nonzero cells; the axiom check
sums and compares those pairs and builds no `Fraction` row on a passing
family.  Each pair must be the oracle's weight (``oracles.kernel_row``,
the block-keyed kernel) over a positive denominator, in the same order,
at every region and exterior class: on the zoo, on random zero-table
draws, on ``replace_table`` siblings with a doubled row and on families
with a doubled singleton entry.  A family keeps one row per region and
class, the pair row, the only row kind: a second read returns the same
row, whose pairs read back as `constructor.assemble_kernel`'s weights
on a fresh family.

``normalize`` writes each density as r/M from one integer line sum per
site and exterior class, and builds its family without re-checking unit
mass.  On potential, tail-rule, hard-core and zero-table draws, over
free measures with zero weights too, it must give the oracle's tables
(``oracles.normalize``, which reads each class's mass afresh in
`Fraction` values), or raise the oracle's error with its text where a
raw weight is negative or a class has no mass; ``oracles.check_unit_mass``
must hold on every family it returns.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from specforge import verifier
from specforge.constructor import assemble_kernel
from specforge.core import Alphabet, DomainError, FreeMeasure, Space, Universe
from specforge.models import NormalizationError, TableModel, TailRuleModel, normalize

import oracles
import zoo
from test_integer_sum_oracle import FAMILIES, density_family


def keyed_pairs(dens, region, cfg) -> list:
    """The pair row as the oracle's ``(key, weight)`` items, every
    denominator checked positive."""
    space = dens.space
    row = verifier._pair_row(dens, region, cfg)
    assert all(den > 0 for _, den in row.values())
    return [(space.at(index).key, Fraction(num, den)) for index, (num, den) in row.items()]


def assert_pair_rows_equal_the_oracle(dens) -> int:
    """Compare every region's pair row at every exterior class; return
    the number of rows compared."""
    space = dens.space
    rows = 0
    for region in dens.regions():
        for cfg in space.exterior_classes(region):
            assert keyed_pairs(dens, region, cfg) == list(
                oracles.kernel_row(dens, region, cfg).items()), (region, cfg)
            rows += 1
    return rows


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pair_rows_equal_the_block_keyed_oracle(name):
    assert assert_pair_rows_equal_the_oracle(density_family(FAMILIES[name]()))


@pytest.mark.parametrize("name", ["hardcore_3", "potential_1", "zero_table_15",
                                  "anchored_table_5"])
def test_pair_rows_of_doubled_siblings_equal_the_oracle(name):
    """A sibling reads its own table: each region's first row doubled."""
    dens = density_family(FAMILIES[name]())
    for region in dens.regions():
        doubled = zoo.reweighted(dens, region, lambda _, value: 2 * value)
        assert assert_pair_rows_equal_the_oracle(doubled)
    assert assert_pair_rows_equal_the_oracle(dens)


@pytest.mark.parametrize("pick", range(6))
def test_pair_rows_of_doubled_entry_families_equal_the_oracle(pick):
    for family in (zoo.hardcore_family(3), zoo.potential_family(2)[2],
                   zoo.random_zero_table_family(28)):
        assert assert_pair_rows_equal_the_oracle(
            density_family(zoo.doubled_entry(family, pick)))


def pair_entries(dens) -> int:
    return sum(key[0] == "pair_row" for key in dens._cache)


@pytest.mark.parametrize("name", ["hardcore_3", "potential_1", "zero_table_15"])
def test_one_row_is_kept_per_region_and_class(name):
    dens = density_family(FAMILIES[name]())
    space = dens.space
    classes = [(region, cfg) for region in dens.regions()
               for cfg in space.exterior_classes(region)]
    pairs = {(region, cfg.index): verifier._pair_row(dens, region, cfg)
             for region, cfg in classes}
    assert pair_entries(dens) == len(classes)
    fresh = density_family(FAMILIES[name]())
    for region, cfg in classes:
        row = pairs[region, cfg.index]
        assert verifier._pair_row(dens, region, cfg) is row
        assert [(index, Fraction(num, den)) for index, (num, den) in row.items()] == list(
            assemble_kernel(fresh, region, cfg).items())
    assert pair_entries(dens) == len(classes)


# -- normalize -------------------------------------------------------------------


@dataclass(frozen=True)
class HardcoreModel:
    """Hard-core exclusion along the window's site order: a symbol other
    than the first has weight ``activity[site]`` unless a neighbour holds
    one too; the first symbol has weight 1."""

    activity: dict

    def raw_value(self, space, site, cfg):
        k = space.universe.index(site)
        empty = space.alphabet.symbols[0]
        if cfg.values[k] == empty:
            return Fraction(1)
        neighbours = cfg.values[max(k - 1, 0):k] + cfg.values[k + 1:k + 2]
        return Fraction(0) if any(v != empty for v in neighbours) else self.activity[site]


@dataclass(frozen=True)
class Edited:
    """``model`` with the raw weights at some (site, index) replaced."""

    model: object
    edits: dict

    def raw_value(self, space, site, cfg):
        if (site, cfg.index) in self.edits:
            return self.edits[site, cfg.index]
        return self.model.raw_value(space, site, cfg)


def random_space(rng: random.Random) -> Space:
    """One to four sites, two or three symbols, one or two tail classes;
    free weights drawn from 0, 1/2, 1 and 3, one positive at least."""
    n_sites = rng.randint(1, 4)
    symbols = ("a", "b", "c")[:rng.randint(2, 3) if n_sites < 4 else 2]
    alphabet = Alphabet(symbols)
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)))
    weights = {}
    for site in universe:
        row = {sym: rng.choice((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)))
               for sym in symbols}
        if not any(row.values()):
            row[rng.choice(symbols)] = Fraction(1)
        weights[site] = row
    tails = ("t0", "t1")[:rng.randint(1, 2)]
    return Space(alphabet, universe, FreeMeasure(alphabet, weights), tail_classes=tails)


def positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def potential_model(space, rng):
    return zoo.chain_potential(space, rng)


def tail_rule_model(space, rng):
    return TailRuleModel({(tail, site): {sym: rng.choice((Fraction(0), positive(rng)))
                                         for sym in space.alphabet}
                          for tail in space.tail_classes for site in space.universe})


def hardcore_model(space, rng):
    return HardcoreModel({site: positive(rng) for site in space.universe})


def zero_table_model(space, rng):
    entries = {}
    for site in space.universe:
        others = tuple(s for s in space.universe if s != site)
        entries[site] = {(sym, ctx, tail): rng.choice((Fraction(0), Fraction(0), positive(rng)))
                         for tail in space.tail_classes
                         for ctx in space.assignments(others)
                         for sym in space.alphabet}
    return TableModel(entries)


KINDS = {"potential": potential_model, "tail_rule": tail_rule_model,
         "hardcore": hardcore_model, "zero_table": zero_table_model}


def edited(space, model, rng):
    """``model`` unchanged, with one negative weight, with two negative
    weights in one class of one site (so that the read order shows), or
    with one class of one site zeroed; which, and where, is drawn."""
    site = rng.choice(space.universe.sites)
    index = rng.randrange(space.size)
    base = space.class_index(space.at(index), (site,))
    members = [base + offset for offset, _ in oracles.fill_offsets(space, (site,))]
    edit = rng.choice(("none", "negative", "negatives", "zero_class"))
    if edit == "negative":
        return Edited(model, {(site, index): Fraction(-1, rng.randint(1, 3))})
    if edit == "negatives":
        return Edited(model, {(site, member): Fraction(-1)
                              for member in rng.sample(members, 2)})
    if edit == "zero_class":
        return Edited(model, {(site, member): Fraction(0) for member in members})
    return model


def outcome(space, model, run):
    try:
        family = run(space, model)
    except (DomainError, NormalizationError) as exc:
        return type(exc).__name__, str(exc)
    return "normalized", family._tables


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_normalize_equals_the_oracle_tables_and_errors(kind):
    seen = set()
    zero_weights = 0
    for seed in range(100):
        rng = random.Random(f"{kind}-{seed}")
        space = random_space(rng)
        zero_weights += any(w == 0 for row in space.free.weights.values() for w in row.values())
        model = edited(space, KINDS[kind](space, rng), rng)
        got = outcome(space, model, normalize)
        assert got == outcome(space, model, oracles.normalize), (kind, seed)
        if got[0] in ("DomainError", "NormalizationError"):
            seen.add(got[0])
        else:
            seen.add("normalized")
            assert oracles.check_unit_mass(space, {region: oracles.fractions(table)
                                                   for region, table in got[1].items()}) is None
    assert seen == {"normalized", "DomainError", "NormalizationError"}
    assert zero_weights

