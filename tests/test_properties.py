"""Property tests: the checks that count in closed form equal their oracles.

``hypothesis`` draws seeds of ``zoo.random_zero_table_family``: two to
four sites, up to three symbols and up to two tail classes, with random
zeros in the densities and in the free weights.  Whenever the unchecked
build succeeds, ``check_specification_axioms`` and ``good_support_report``
must report exactly what the enumerating oracles in ``oracles.py``
report, at witness caps 0, 1 and 25, on the built family and on a
sibling with one region's row doubled.  The measure suites run on the
draws rebalanced to unit free mass (``rebalance_free``), which they
need: ``check_good_support_mass`` on kernel, random full-support and
point-mass measures, at the same caps, on the family and on a
doubled-row sibling, and ``measure_perturbation_suite`` (which has no
cap), on the raw draw too, where both must raise the same precondition.
Draws are derandomised and not stored, so every run tries the same
seeds.
"""

import importlib
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from specforge.constructor import build_family
from specforge.core import SpecforgeError
from specforge.models import rebalance_free
from specforge.verifier import (
    FiniteMeasure,
    check_good_support_mass,
    check_specification_axioms,
    good_support_report,
)

import oracles
import zoo

CAPS = (0, 1, 25)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# the package re-exports the function ``main`` under the module's name
cli = importlib.import_module("specforge.cli.main")


def outcome(run, *args):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return run(*args).as_dict()
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def built(seed: int, rebalanced: bool = False):
    family = zoo.random_zero_table_family(seed)
    try:
        return build_family(rebalance_free(family) if rebalanced else family,
                            checked=False)
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


def measures(dens, seed: int) -> list[FiniteMeasure]:
    """Kernel measures at the first and last point, a random full-support
    measure and two point masses."""
    space = dens.space
    rng = random.Random(seed)
    cfgs = list(space.configurations())
    out = [FiniteMeasure.kernel_measure(dens, cfg) for cfg in (cfgs[0], cfgs[-1])]
    raw = {cfg.key: Fraction(rng.randint(1, 9)) for cfg in cfgs}
    total = sum(raw.values())
    out.append(FiniteMeasure(space, {key: w / total for key, w in raw.items()}))
    return out + [FiniteMeasure(space, {cfg.key: Fraction(1)})
                  for cfg in rng.sample(cfgs, 2)]


def assert_support_mass_matches(dens, mus):
    for mu in mus:
        for cap in CAPS:
            assert (outcome(check_good_support_mass, mu, fresh(dens), cap)
                    == outcome(oracles.check_good_support_mass, mu, fresh(dens), cap)), cap


@PROPERTY
@given(SEEDS)
def test_support_mass_equals_the_oracle(seed):
    dens = built(seed, rebalanced=True)
    if dens is not None:
        assert_support_mass_matches(dens, measures(dens, seed))


@PROPERTY
@given(SEEDS, st.integers(min_value=0, max_value=14))
def test_doubled_row_support_mass_equals_the_oracle(seed, pick):
    dens = built(seed, rebalanced=True)
    if dens is not None:
        assert_support_mass_matches(doubled(dens, pick), measures(dens, seed))


@PROPERTY
@given(SEEDS, st.booleans())
def test_perturbation_suite_equals_the_oracle(seed, rebalanced):
    dens = built(seed, rebalanced)
    if dens is not None:
        assert (outcome(cli.measure_perturbation_suite, fresh(dens), 12, seed)
                == outcome(oracles.measure_perturbation_suite, fresh(dens), 12, seed))
