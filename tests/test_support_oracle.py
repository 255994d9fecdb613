"""The support suites against their configuration-by-configuration oracles.

``support_class_certificate``, ``good_support_report`` and
``check_good_support_mass`` read good membership off one good-point
table per (site, context), ``hypotheses._good_points``.  Each must
report exactly what the oracle in ``oracles.py`` reports, which asks
``site_is_good`` at every configuration, at witness caps 1 and 25 and
uncapped.  The families are
the zoo families with at most four sites and normalised free weights,
and random zero-pattern draws rescaled to unit free mass; the measures
are kernel measures, random full-support measures and point masses.
A patched good-point table that reads the context makes the certificate
fail where the oracle's does, so failing certificates are compared as
well.  ``good_support_report`` and ``check_good_support_mass`` prove
from the whole lines of every table ``_good_points`` builds that no
table reads the context, so they are not compared under the patch.
"""
import random
from fractions import Fraction

import pytest

import specforge.hypotheses as hypotheses
from specforge.constructor import build_family
from specforge.core import FreeMeasure, Space
from specforge.models import SingletonFamily
from specforge.verifier import (
    FiniteMeasure,
    check_good_support_mass,
    good_support_report,
    support_class_certificate,
)

import oracles
import zoo

CAPS = (1, 25, 10_000)

# zoo families that build (anchored tables only unchecked)
DENSITY_FAMILIES = {
    "hardcore_3": lambda: zoo.hardcore_family(3),
    "hardcore_4": lambda: zoo.hardcore_family(4),
    "example1": zoo.example1_family,
    "independent": zoo.independent_family,
    "lopsided_free": zoo.lopsided_free_family,
    "extracted_5": lambda: zoo.extracted_family(5)[2],
    "potential_1": lambda: zoo.potential_family(1)[2],
    "ring_potential_2": lambda: zoo.ring_potential_family(2)[2],
    "anchored_table_5": lambda: zoo.anchored_table_family(5)[1],
}

# zoo families whose build fails: only the certificate applies
SINGLETON_FAMILIES = {
    "one_sided_hardcore": lambda: zoo.one_sided_hardcore_family(3),
    "broken_pair": zoo.broken_pair_family,
    "forced_exclusion": zoo.forced_exclusion_family,
    "alternating_exclusion": zoo.alternating_exclusion_family,
}

# the first twenty random zero-pattern draws whose unchecked build succeeds
BUILDING_SEEDS = (7, 15, 18, 20, 28, 31, 32, 44, 46, 52,
                  53, 59, 61, 67, 78, 79, 87, 88, 91, 95)


def normalized(fam: SingletonFamily) -> SingletonFamily:
    """The same zero patterns over free weights rescaled to unit mass per site."""
    space = fam.space
    mass = {site: sum(space.free.weights[site].values(), Fraction(0))
            for site in space.universe}
    free = FreeMeasure(space.alphabet, {
        site: {sym: w / mass[site] for sym, w in row.items()}
        for site, row in space.free.weights.items()
    })
    rescaled = Space(space.alphabet, space.universe, free, space.tail_classes)
    return SingletonFamily(rescaled, {
        site: {cfg.key: fam.density(site, cfg) * mass[site] for cfg in space.configurations()}
        for site in space.universe
    })


def zero_draw(seed: int) -> SingletonFamily:
    return normalized(zoo.random_zero_table_family(seed))


def measures(space: Space, dens=None, seed: int = 0) -> list[FiniteMeasure]:
    """Kernel measures (with a family), one random full-support measure, point masses."""
    rng = random.Random(seed)
    cfgs = list(space.configurations())
    out = []
    if dens is not None:
        out += [FiniteMeasure.kernel_measure(dens, cfg) for cfg in (cfgs[0], cfgs[-1])]
    raw = {cfg.index: Fraction(rng.randint(1, 9)) for cfg in cfgs}
    total = sum(raw.values())
    out.append(FiniteMeasure(space, {index: w / total for index, w in raw.items()}))
    for cfg in [cfgs[0]] + rng.sample(cfgs, min(3, len(cfgs))):
        out.append(FiniteMeasure(space, {cfg.index: Fraction(1)}))
    return out


def assert_measure_suites_match(fam: SingletonFamily, dens=None, seed: int = 0) -> None:
    for mu in measures(fam.space, dens, seed):
        assert (support_class_certificate(mu, fam).as_dict()
                == oracles.support_class_certificate(mu, fam).as_dict())
        if dens is None:
            continue
        for cap in CAPS:
            assert (check_good_support_mass(mu, dens, cap).as_dict()
                    == oracles.check_good_support_mass(mu, dens, cap).as_dict()), cap


def assert_matches_oracles(fam: SingletonFamily, dens=None, seed: int = 0) -> None:
    assert_measure_suites_match(fam, dens, seed)
    if dens is not None:
        for cap in CAPS:
            assert (good_support_report(dens, cap).as_dict()
                    == oracles.good_support_report(dens, cap).as_dict()), cap


@pytest.mark.parametrize("family", sorted(DENSITY_FAMILIES))
def test_zoo_density_families(family):
    fam = DENSITY_FAMILIES[family]()
    assert_matches_oracles(fam, build_family(fam, checked=False))


@pytest.mark.parametrize("family", sorted(SINGLETON_FAMILIES))
def test_zoo_certificates(family):
    assert_matches_oracles(SINGLETON_FAMILIES[family]())


@pytest.mark.parametrize("seed", range(20))
def test_zero_pattern_certificates(seed):
    assert_matches_oracles(zero_draw(seed), seed=seed)


@pytest.mark.parametrize("seed", BUILDING_SEEDS)
def test_zero_pattern_density_families(seed):
    fam = zero_draw(seed)
    assert_matches_oracles(fam, build_family(fam, checked=False), seed=seed)


def context_reading_good_points(monkeypatch) -> None:
    """Patch the table; every good-set reader looks it up through ``hypotheses``."""
    patched = zoo.context_reading(hypotheses._good_points)
    monkeypatch.setattr(hypotheses, "_good_points", patched)


@pytest.mark.parametrize("family", ["independent", "potential_1", "hardcore_3"])
def test_context_reading_predicate(family, monkeypatch):
    # the mass suite and good_support_report prove that no real table
    # reads the context, so the patched table is compared on the
    # certificate alone
    fam = DENSITY_FAMILIES[family]()
    dens = build_family(fam)
    context_reading_good_points(monkeypatch)
    for mu in measures(fam.space, dens):
        assert (support_class_certificate(mu, fam).as_dict()
                == oracles.support_class_certificate(mu, fam).as_dict())
