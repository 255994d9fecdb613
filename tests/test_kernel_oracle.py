"""Kernel rows and good blocks as plain values, against the old code.

``assemble_kernel`` returns the row ``{point index: weight}`` with zero
weights dropped; the oracle is the block-keyed kernel it replaced, turned
into ``(values, tail)`` keys by overlaying each block on the exterior,
and rows are compared in that form through ``oracles.keyed``.  Rows must
agree for every built region (the empty one included) and every
configuration, in the same order, on families with zero densities and
on positive ones.  ``exchange_identity`` must equal the old ``apply``
composition, and the good blocks read off the block tables
(``test_block_table_oracle.table_blocks``) the product of the per-site
good symbols.

The verifier reads rows through a memo keyed by region and exterior
class; a fresh ``assemble_kernel`` row is its oracle.  A sibling from
``replace_table`` must read its own rows.  The axiom check takes exterior
measurability as proven; the enumeration that replaces it in
``oracles.kernel_class_violations`` must still catch a row that varies
inside its class.
"""

import itertools
from fractions import Fraction

import pytest

from specforge import constructor, verifier
from specforge.constructor import (
    ConstructionError,
    DensityFamily,
    assemble_kernel,
    build_family,
)
from specforge.hypotheses import good_symbols
from specforge.verifier import FiniteMeasure

import oracles
from test_block_table_oracle import table_blocks
from zoo import (
    anchored_table_family,
    example1_family,
    extracted_family,
    hardcore_family,
    lopsided_free_family,
    one_sided_hardcore_family,
    potential_family,
    unnormalized_free_family,
)

ZERO_DENSITY = {
    "hardcore": lambda: hardcore_family(3),
    "one_sided_hardcore": lambda: one_sided_hardcore_family(3),
    "anchored_table": lambda: anchored_table_family(5)[1],
    "example1": lambda: example1_family(3),
}
POSITIVE = {
    "extracted": lambda: extracted_family(47)[2],
    "potential": lambda: potential_family(3)[2],
    "lopsided_free": lopsided_free_family,
    "unnormalized_free": unnormalized_free_family,
}
FAMILIES = {**ZERO_DENSITY, **POSITIVE}


def densities(family) -> DensityFamily:
    """The built family, or its empty and single-site regions if none builds."""
    try:
        return build_family(family, checked=False)
    except ConstructionError:
        return DensityFamily(family)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_rows_equal_the_block_keyed_kernel(name):
    dens = densities(FAMILIES[name]())
    space = dens.space
    zero_blocks = 0
    for region in dens.regions():
        for cfg in space.configurations():
            row = oracles.keyed(space, assemble_kernel(dens, region, cfg))
            expected = oracles.kernel_row(dens, region, cfg)
            assert row == expected
            assert list(row) == list(expected)
            assert all(row.values())
            zero_blocks += len(space.alphabet) ** len(region) - len(row)
    if name in ZERO_DENSITY:
        assert zero_blocks > 0, "zero weights must be reached and dropped"


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_empty_region_is_the_point_mass(name):
    dens = densities(FAMILIES[name]())
    for cfg in dens.space.configurations():
        assert assemble_kernel(dens, (), cfg) == {cfg.index: Fraction(1)}


@pytest.mark.parametrize("name", ["hardcore", "example1", "extracted"])
def test_kernel_measure_reads_the_full_window_row(name):
    dens = densities(FAMILIES[name]())
    space = dens.space
    sites = space.universe.sites
    for cfg in space.configurations():
        mu = FiniteMeasure.kernel_measure(dens, cfg)
        assert (oracles.keyed(space, oracles.fraction_values(mu.weights))
                == oracles.kernel_row(dens, sites, cfg))


def observables(space):
    """Indicators of one symbol at one site, and a non-indicator weight."""
    out = []
    for site in space.universe.sites:
        for sym in space.alphabet:
            out.append(lambda x, s=site, v=sym: Fraction(x.symbol(s) == v))
    out.append(lambda x: Fraction(1 + x.values.count(x.values[0]), 3))
    return out


@pytest.mark.parametrize("name", ["hardcore", "extracted"])
def test_exchange_identity_equals_the_apply_composition(name):
    dens = densities(FAMILIES[name]())
    space = dens.space
    sites = space.universe.sites
    obs = observables(space)
    for a, b in [((sites[0],), (sites[1],)), ((sites[0],), sites[1:])]:
        for cfg in space.configurations():
            for f in obs:
                for g in obs:
                    assert oracles.row_exchange_identity(dens, a, b, f, g, cfg) == (
                        oracles.exchange_identity(dens, a, b, f, g, cfg)
                    )


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_good_blocks_are_the_product_of_good_symbols(name):
    family = FAMILIES[name]()
    space = family.space
    universe = space.universe
    partial = False
    for region in universe.subsets():
        for ctx in universe.subsets(universe.complement(region)):
            for cfg in space.configurations():
                factors = [
                    good_symbols(family, k,
                                 tuple(s for s in region if s != k) + ctx, cfg)
                    for k in region
                ]
                expected = tuple(itertools.product(*factors))
                assert table_blocks(family, region, ctx, cfg) == expected
                assert table_blocks(family, region[::-1], ctx, cfg) == expected
                assert oracles.good_blocks(family, region[::-1], ctx, cfg) == expected
                partial |= 0 < len(expected) < len(space.alphabet) ** len(region)
    if name in ZERO_DENSITY:
        assert partial, "zero densities must reach a partial product"


def pair_row_values(row: dict) -> dict:
    """A `verifier._pair_row` with each pair read back as a `Fraction`,
    in the row's order."""
    return {index: Fraction(num, den) for index, (num, den) in row.items()}


MEMO_FAMILIES = ("hardcore", "one_sided_hardcore", "anchored_table",
                 "potential", "unnormalized_free")


@pytest.mark.parametrize("name", MEMO_FAMILIES)
def test_memoised_rows_equal_fresh_rows(name):
    dens = densities(FAMILIES[name]())
    space = dens.space
    for region in dens.regions():
        for cfg in space.configurations():
            fresh = assemble_kernel(dens, region, cfg)
            row = verifier._pair_row(dens, region, cfg.index)
            assert list(pair_row_values(row).items()) == list(fresh.items())
            assert verifier._pair_row(dens, region, cfg.index) is row


def test_sibling_reads_its_own_rows_not_the_parents():
    dens = densities(FAMILIES["potential"]())
    space = dens.space
    region = space.universe.sites[:2]
    configurations = list(space.configurations())
    parent_rows = [pair_row_values(verifier._pair_row(dens, region, cfg.index))
                   for cfg in configurations]
    doubled = [2 * value for value in dens.table(region)]
    sibling = dens.replace_table(region, doubled)
    for cfg, parent_row in zip(configurations, parent_rows):
        row = pair_row_values(verifier._pair_row(sibling, region, cfg.index))
        assert row == assemble_kernel(sibling, region, cfg)
        assert row == {key: 2 * w for key, w in parent_row.items()}
        assert pair_row_values(verifier._pair_row(dens, region, cfg.index)) == (
            assemble_kernel(dens, region, cfg))


@pytest.mark.parametrize("name", ["potential", "hardcore"])
def test_axiom_a_catches_a_row_that_reads_inside_its_region(monkeypatch, name):
    # every member of an exterior class reads the same table cells, so no
    # table makes (a) fail; a kernel that reads inside its region does
    dens = densities(FAMILIES[name]())
    assert oracles.kernel_class_violations(dens) == []
    first = dens.space.alphabet.symbols[0]
    honest = constructor.assemble_kernel

    def mutated(dens, region, cfg):
        row = honest(dens, region, cfg)
        if region and cfg.symbol(region[0]) != first:
            return dict(zip(row, reversed(list(row.values()))))
        return row

    monkeypatch.setattr(constructor, "assemble_kernel", mutated)
    violations = oracles.kernel_class_violations(densities(FAMILIES[name]()))
    assert violations
    assert all(cfg.symbol(region[0]) != first for region, cfg in violations)
