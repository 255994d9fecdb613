"""Pair tables against a `Fraction` build, and the pair formatter.

Every density table a family stores is a flat list of integer pairs, one
per configuration index, in lowest terms over a positive denominator,
zero being (0, 1).  Read back as `Fraction`s (``oracles.fractions``,
which checks each pair reduced), every region's table of the default
build must equal ``oracles.build_tables``, which builds the same sweep
afresh in `Fraction`s: on the gated zoo families, `random_hardcore_family`
seeds 0-7 and zero-table seeds 15 and 28 (``GATED`` of
``test_axiom_readoff_oracle.py``), on whole models drawn by
``hypothesis`` whose gates pass, and on a ``replace_table`` sibling,
whose replacement values are stored reduced.  The public readers
``DensityFamily.density``, ``DensityFamily.table`` and
``SingletonFamily.density`` must return the oracle's `Fraction`s.

``core._pair_text``, which writes the ``.rho`` values straight from the
pairs, must equal ``str(Fraction(n, d))`` on drawn reduced pairs: zero,
denominator 1 and values of 60 bits or more among them.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from specforge.constructor import build_family
from specforge.core import _pair_text
from specforge.hypotheses import check_order_consistency, check_very_weak_positivity

import oracles
from test_axiom_readoff_oracle import GATED
from test_whole_model_draws import whole_models


def assert_tables_equal(dens, expected: dict) -> None:
    """Every stored table is reduced pairs equal to ``expected``'s, and the
    public readers give ``expected``'s `Fraction`s."""
    space = dens.space
    assert set(dens._tables) == set(expected)
    for region, want in expected.items():
        assert oracles.fractions(dens._tables[region]) == want, region
        assert list(dens.table(region)) == want, region
        assert [dens.density(region, cfg) for cfg in space.configurations()] == want, region
    for site in space.universe:
        assert oracles.fractions(dens.singletons._tables[(site,)]) == expected[(site,)]
        assert [dens.singletons.density(site, cfg)
                for cfg in space.configurations()] == expected[(site,)]


def test_the_batteries_hold_zero_densities():
    """The pairs meet zero cells, so (0, 1) is read back too."""
    assert sum(any(value == (0, 1) for table in GATED[name]()._tables.values()
                   for value in table) for name in GATED) >= 10


@pytest.mark.parametrize("name", sorted(GATED))
def test_gated_family_tables_equal_the_fraction_build(name):
    family = GATED[name]()
    assert_tables_equal(build_family(family), oracles.build_tables(family))


@pytest.mark.parametrize("name", ["hardcore_graph_3", "zero_table_28", "potential_1"])
def test_a_sibling_stores_its_replacement_reduced(name):
    """Unreduced `Fraction` inputs and ints are stored in lowest terms; the
    parent keeps its own tables."""
    family = GATED[name]()
    dens = build_family(family)
    expected = oracles.build_tables(family)
    region = max(dens.regions(), key=len)
    values = [Fraction(3 * k, 6) if k % 3 else k for k in range(dens.space.size)]
    sibling = dens.replace_table(region, values)
    assert_tables_equal(sibling, {**expected, region: [Fraction(v) for v in values]})
    assert_tables_equal(dens, expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(whole_models())
def test_drawn_gated_tables_equal_the_fraction_build(family):
    if not (check_very_weak_positivity(family).passed
            and check_order_consistency(family).passed):
        return
    assert_tables_equal(build_family(family, checked=True), oracles.build_tables(family))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 90), st.integers(1, 2 ** 90))
@example(0, 7)
@example(12, 1)
@example(2 ** 61 + 1, 1)
@example(2 ** 64 - 1, 2 ** 63 + 3)
def test_pair_text_is_the_fraction_text(num, den):
    value = Fraction(num, den)
    assert _pair_text(*value.as_integer_ratio()) == str(value)
