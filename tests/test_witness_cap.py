"""Witness caps cut the witness list and nothing else.

Every check and suite that takes ``witness_cap`` is run on failing zoo
families at a cap no run reaches and at caps 0, 1 and 3.  Suites over a
built family run on the failing families that build (anchored tables)
and on a hard-core chain with one region's table perturbed.  The capped
report must be the uncapped one with its witness list truncated: same
verdict, same data, same leading witnesses.  A suite whose precondition
fails must raise the same error at every cap.
"""

import importlib
import random
from fractions import Fraction

import pytest

import specforge.hypotheses as hypotheses
from specforge.constructor import build_family, check_order_independence
from specforge.core import SpecforgeError
from specforge.hypotheses import (
    WITNESS_CAP,
    HypothesisReport,
    Witness,
    check_bounded_positivity,
    check_order_consistency,
    check_pointwise_compatibility,
    check_uniqueness_condition,
    check_very_weak_positivity,
)
from specforge.verifier import (
    FiniteMeasure,
    check_good_support_mass,
    check_measure_consistency,
    check_specification_axioms,
    good_support_report,
    ratio_bounds,
    roundtrip_reconstruction,
    uniqueness_probe,
)

import oracles
from zoo import (
    anchored_table_family,
    broken_pair_family,
    context_reading,
    forced_exclusion_family,
    extracted_family,
    hardcore_family,
    independent_family,
    one_sided_hardcore_family,
    random_joint,
)

# the package re-exports the function ``main`` under the module's name
cli = importlib.import_module("specforge.cli.main")

UNCAPPED = 10_000

FAMILIES = {
    "broken_pair": broken_pair_family,
    "one_sided_hardcore": lambda: one_sided_hardcore_family(3),
    "anchored_table": lambda: anchored_table_family(5)[1],
    "forced_exclusion": forced_exclusion_family,
}


def perturbed_hardcore():
    dens = build_family(hardcore_family(3), checked=False)
    table = {key: value * 2 if value else Fraction(1)
             for key, value in dens.table(("s1", "s2")).items()}
    return dens.replace_table(("s1", "s2"), table)


DENSITY_FAMILIES = {
    "anchored_table_1": lambda: build_family(
        anchored_table_family(1)[1], checked=False),
    "anchored_table_5": lambda: build_family(
        anchored_table_family(5)[1], checked=False),
    "perturbed_hardcore": perturbed_hardcore,
}


def kernel_measure(dens) -> FiniteMeasure:
    return FiniteMeasure.kernel_measure(dens, next(dens.space.configurations()))


SINGLETON_CHECKS = {
    "very_weak_positivity": check_very_weak_positivity,
    "order_consistency": check_order_consistency,
    "pointwise_compatibility": check_pointwise_compatibility,
    "uniqueness_condition": check_uniqueness_condition,
    "bounded_positivity": check_bounded_positivity,
    "order_independence": lambda fam, cap: check_order_independence(
        fam, witness_cap=cap),
    "roundtrip_reconstruction": lambda fam, cap: roundtrip_reconstruction(
        fam.space, random_joint(fam.space, random.Random(3)), cap),
}

FAMILY_SUITES = {
    "divisor_factorization": oracles.check_divisor_factorization,
    "specification_axioms": check_specification_axioms,
    "uniqueness_probe": lambda dens, cap: uniqueness_probe(
        dens, trials=6, witness_cap=cap),
    "good_support": good_support_report,
    "good_support_mass": lambda dens, cap: check_good_support_mass(
        kernel_measure(dens), dens, witness_cap=cap),
    "measure_consistency": lambda dens, cap: check_measure_consistency(
        kernel_measure(dens), dens, witness_cap=cap),
    "ratio_bounds": ratio_bounds,
}


def outcome(run, cap):
    try:
        return run(cap)
    except SpecforgeError as exc:
        return exc


def assert_capping_only_truncates(run) -> None:
    """Compare caps 0, 1 and 3 against the uncapped run."""
    full = outcome(run, UNCAPPED)
    for cap in (0, 1, 3):
        capped = outcome(run, cap)
        if isinstance(full, SpecforgeError):
            assert type(capped) is type(full) and str(capped) == str(full)
            continue
        expected = full.as_dict()
        expected["witnesses"] = expected["witnesses"][:cap]
        assert capped.as_dict() == expected, cap


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("check", sorted(SINGLETON_CHECKS))
def test_singleton_checks(check, family):
    fam = FAMILIES[family]()
    assert_capping_only_truncates(lambda cap: SINGLETON_CHECKS[check](fam, cap))


@pytest.mark.parametrize("family", sorted(DENSITY_FAMILIES))
@pytest.mark.parametrize("suite", sorted(FAMILY_SUITES))
def test_family_suites(suite, family):
    dens = DENSITY_FAMILIES[family]()
    assert_capping_only_truncates(lambda cap: FAMILY_SUITES[suite](dens, cap))


def test_failing_families_overrun_the_small_caps():
    # the comparison only bites where the uncapped run holds more than
    # three witnesses; every failing family must get there somewhere
    for name, build in FAMILIES.items():
        fam = build()
        counts = [
            len(check(fam, UNCAPPED).witnesses)
            for check in (check_very_weak_positivity, check_pointwise_compatibility,
                          check_bounded_positivity, check_uniqueness_condition)
        ]
        assert max(counts) > 3, name
    for name, build in DENSITY_FAMILIES.items():
        dens = build()
        counts = [len(suite(dens, UNCAPPED).witnesses)
                  for suite in (check_specification_axioms, good_support_report)]
        assert max(counts) > 3, name


def test_good_support_mass_overruns_the_small_caps(monkeypatch):
    # no family above makes the mass suite fail; a good-point table that
    # reads the context does, at a point mass inside the class
    dens = build_family(independent_family())
    patched = context_reading(hypotheses._good_points)
    monkeypatch.setattr(hypotheses, "_good_points", patched)
    mu = FiniteMeasure(dens.space, {next(dens.space.configurations()).key: Fraction(1)})

    def run(cap):
        return check_good_support_mass(mu, dens, witness_cap=cap)

    assert len(run(UNCAPPED).witnesses) > 3
    assert_capping_only_truncates(run)


def test_collector_builds_nothing_past_the_cap():
    report = HypothesisReport(name="probe", passed=True)
    built = []

    def build(k):
        built.append(k)
        return Witness(check="probe", description=f"failure {k}", replay={})

    report.add_witness(2, lambda: build(0))
    assert report.passed
    for k in range(1, 5):
        report.fail(2, lambda: build(k))
    assert not report.passed
    assert built == [0, 1]
    assert [w.description for w in report.witnesses] == ["failure 0", "failure 1"]


def test_perturbation_suite_keeps_at_most_the_cap(monkeypatch):
    # every trial fails twice: the perturbed measure stays fully
    # consistent and the equivalence verdict breaks
    def failing(mu, dens):
        return HypothesisReport(name="measure_consistency", passed=False,
                                data={"fully_consistent": True})

    monkeypatch.setattr(cli, "check_measure_consistency", failing)
    dens = build_family(extracted_family(47)[2])
    report = cli.measure_perturbation_suite(dens, trials=20, seed=5)
    assert not report.passed
    assert report.data["performed"] == 20
    assert report.data["detected"] == 0
    assert len(report.witnesses) == WITNESS_CAP
    assert [w.replay["trial"] for w in report.witnesses[:4]] == [0, 0, 1, 1]
    assert report.witnesses[0].description == (
        "perturbed measure stayed fully consistent")
    assert report.witnesses[1].description == (
        "perturbed measure broke the singleton/full equivalence")
