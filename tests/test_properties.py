"""Property tests: the checks that count in closed form equal their oracles.

``hypothesis`` draws seeds of ``zoo.random_zero_table_family``: two to
four sites, up to three symbols and up to two tail classes, with random
zeros in the densities and in the free weights.  Whenever the unchecked
build succeeds, ``check_specification_axioms`` and ``good_support_report``
must report exactly what the enumerating oracles in ``oracles.py``
report, at witness caps 0, 1 and 25, on the built family and on a
sibling with one region's row doubled.  Draws are derandomised and not
stored, so every run tries the same seeds.
"""

from hypothesis import given, settings, strategies as st

from specforge.constructor import build_family
from specforge.core import SpecforgeError
from specforge.verifier import check_specification_axioms, good_support_report

import oracles
import zoo

CAPS = (0, 1, 25)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def outcome(run, *args):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return run(*args).as_dict()
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def built(seed: int):
    try:
        return build_family(zoo.random_zero_table_family(seed), checked=False)
    except SpecforgeError:
        return None


def fresh(dens):
    """The same tables behind an empty memo."""
    return dens.replace_table((), dens.table(()))


def doubled(dens, pick: int):
    """``dens`` with one nonempty region's row doubled at its first exterior class."""
    regions = [region for region in dens.regions() if region]
    return zoo.reweighted(dens, regions[pick % len(regions)], lambda _, value: 2 * value)


def assert_axioms_match(dens):
    for cap in CAPS:
        assert (outcome(check_specification_axioms, fresh(dens), cap)
                == outcome(oracles.check_specification_axioms, fresh(dens), cap)), cap


@PROPERTY
@given(SEEDS)
def test_specification_axioms_equal_the_oracle(seed):
    dens = built(seed)
    if dens is not None:
        assert_axioms_match(dens)


@PROPERTY
@given(SEEDS, st.integers(min_value=0, max_value=14))
def test_doubled_row_axioms_equal_the_oracle(seed, pick):
    dens = built(seed)
    if dens is not None:
        assert_axioms_match(doubled(dens, pick))


@PROPERTY
@given(SEEDS)
def test_good_support_report_equals_the_oracle(seed):
    dens = built(seed)
    if dens is not None:
        for cap in CAPS:
            assert (outcome(good_support_report, dens, cap)
                    == outcome(oracles.good_support_report, dens, cap)), cap
