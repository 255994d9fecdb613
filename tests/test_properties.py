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
The three two-site gates (order consistency, pointwise compatibility
and bounded positivity, run in that order on one family, as ``check``
runs them) must equal their oracles, run on a second copy, at caps 0, 1
and 25, on zero-table draws and extracted families, each also with one
nonzero density entry doubled and its line rescaled to unit mass
(``zoo.doubled_entry``), so that failing witnesses and their lhs/rhs
strings are compared in order.
``check_order_independence`` must equal the full rebuild of
``oracles.check_order_independence`` at caps 1 and 25 on the draws that
build and on three-site families extracted from positive joints
(``zoo.extracted_family``), and again with joins that the default sweep
does not make perturbed: for a drawn region R and a site x of R that is
not R's last, ``constructor.extension_divisor`` doubles its value (an
infinite divisor becomes 1) whenever a region containing R, minus x, is
joined by x, so a sweep can go wrong at several regions.  Draws are
derandomised and not stored, so every run tries the same seeds.
"""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from specforge import constructor
from specforge.constructor import build_family, check_order_independence
from specforge.core import SpecforgeError
from specforge.hypotheses import (
    check_bounded_positivity,
    check_order_consistency,
    check_pointwise_compatibility,
)
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
    raw = {cfg.index: Fraction(rng.randint(1, 9)) for cfg in cfgs}
    total = sum(raw.values())
    out.append(FiniteMeasure(space, {index: w / total for index, w in raw.items()}))
    return out + [FiniteMeasure(space, {cfg.index: Fraction(1)})
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


def drawn_family(seed: int, extracted: bool):
    """A zero-table draw, or a three-site family extracted from a positive
    joint, which passes the gates (zero-table draws pass them at two
    sites only)."""
    return zoo.extracted_family(seed)[2] if extracted else zoo.random_zero_table_family(seed)


def assert_order_independence_matches(seed: int, extracted: bool):
    for cap in (1, 25):
        assert (outcome(check_order_independence, drawn_family(seed, extracted),
                        24, 20260819, cap)
                == outcome(oracles.check_order_independence,
                           drawn_family(seed, extracted), 24, 20260819, cap)), cap


@settings(PROPERTY, max_examples=35)
@given(SEEDS, st.booleans())
def test_order_independence_equals_the_full_rebuild(seed, extracted):
    if extracted or built(seed) is not None:
        assert_order_independence_matches(seed, extracted)


@settings(PROPERTY, max_examples=35)
@given(SEEDS, st.booleans(), st.integers(min_value=0, max_value=63))
def test_perturbed_join_order_independence_equals_the_full_rebuild(seed, extracted, pick):
    dens = build_family(drawn_family(seed, extracted), checked=False) if extracted else built(seed)
    if dens is None:
        return
    joins = [(set(region), site) for region in dens.regions()
             for site in region[:-1]]
    region, site = joins[pick % len(joins)]
    honest = constructor.extension_divisor

    def perturbed(dens, theta, gamma, cfg):
        num, den = honest(dens, theta, gamma, cfg)
        if tuple(gamma) != (site,) or not region <= set(theta) | {site}:
            return num, den
        if not den:  # infinite
            return 1, 1
        return Fraction(2 * num, den).as_integer_ratio()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructor, "extension_divisor", perturbed)
        assert_order_independence_matches(seed, extracted)


TWO_SITE_GATES = (
    (check_order_consistency, oracles.check_order_consistency),
    (check_pointwise_compatibility, oracles.check_pointwise_compatibility),
    (check_bounded_positivity, oracles.check_bounded_positivity),
)


@settings(PROPERTY, max_examples=100)
@given(SEEDS, st.booleans(), st.none() | st.integers(min_value=0, max_value=255))
def test_two_site_gates_equal_their_oracles(seed, extracted, pick):
    family, fresh_family = (drawn_family(seed, extracted) for _ in range(2))
    if pick is not None:
        family, fresh_family = (zoo.doubled_entry(f, pick) for f in (family, fresh_family))
    for cap in CAPS:
        got = [outcome(gate, family, cap) for gate, _ in TWO_SITE_GATES]
        want = [outcome(oracle, fresh_family, cap) for _, oracle in TWO_SITE_GATES]
        assert got == want, cap
