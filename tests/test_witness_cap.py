"""Witness caps cut the witness list and nothing else.

Every check and suite that takes ``witness_cap`` is run on failing zoo
families at a cap no run reaches and at caps 0, 1 and 3.  Suites over a
built family run on the failing families that build (anchored tables)
and on a hard-core chain with one region's table perturbed.  The capped
report must be the uncapped one with its witness list truncated: same
verdict, same data, same leading witnesses.  A suite whose precondition
fails must raise the same error at every cap.  With every trial that
draws made to fail, the perturbation suite must name the points of its
oracle's draw over the support sorted by ``(values, tail)``, also on
example1's space, where index order is the reverse of that order.
"""

import importlib
import random
from fractions import Fraction

import pytest

from specforge.constructor import build_family, check_order_independence
from specforge.core import SpecforgeError
from specforge.models import extract_singletons
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
    example1_family,
    example1_space,
    forced_exclusion_family,
    extracted_family,
    hardcore_family,
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
    table = [value * 2 if value else Fraction(1)
             for value in dens.table(("s1", "s2"))]
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


def roundtrip(joint, space, cap):
    """The round trip on the joint's extracted singleton family."""
    return roundtrip_reconstruction(extract_singletons(space, joint), joint, cap)


SINGLETON_CHECKS = {
    "very_weak_positivity": check_very_weak_positivity,
    "order_consistency": check_order_consistency,
    "pointwise_compatibility": check_pointwise_compatibility,
    "uniqueness_condition": check_uniqueness_condition,
    "bounded_positivity": check_bounded_positivity,
    "order_independence": lambda fam, cap: check_order_independence(
        fam, witness_cap=cap),
    "roundtrip_reconstruction": lambda fam, cap: roundtrip(
        random_joint(fam.space, random.Random(3)), fam.space, cap),
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


def single_sites_preserve(monkeypatch) -> None:
    """Make every single-site kernel preserve every measure."""
    honest = FiniteMeasure.preserved_by

    def preserved_by(self, dens, region):
        return len(region) == 1 or honest(self, dens, region)

    monkeypatch.setattr(FiniteMeasure, "preserved_by", preserved_by)


def test_perturbation_suite_keeps_at_most_the_cap(monkeypatch):
    # every trial fails once: with every single-site kernel made to
    # preserve the perturbed measure, the equivalence verdict breaks
    single_sites_preserve(monkeypatch)
    dens = build_family(extracted_family(47)[2])
    report = cli.measure_perturbation_suite(dens, trials=30, seed=5)
    assert not report.passed
    assert report.data["performed"] == 30
    assert report.data["detected"] == report.data["performed"]
    assert len(report.witnesses) == WITNESS_CAP
    assert [w.replay["trial"] for w in report.witnesses[:4]] == [0, 1, 2, 3]
    assert all(w.description == "perturbed measure broke the singleton/full equivalence"
               for w in report.witnesses)


def test_perturbation_suite_judges_only_measures_in_the_class(monkeypatch):
    # the hard-core chain's kernel measure lies outside the support
    # class, so the same patch must break no trial
    single_sites_preserve(monkeypatch)
    dens = build_family(hardcore_family(4))
    report = cli.measure_perturbation_suite(dens, trials=12, seed=5)
    assert report.passed and report.data["performed"] == 12
    assert report.as_dict() == oracles.measure_perturbation_suite(dens, 12, 5).as_dict()


def extracted_on_example1_space():
    space = example1_space(3)
    return extract_singletons(space, random_joint(space, random.Random(11)))


@pytest.mark.parametrize("build, performed", [
    (example1_family, 0), (extracted_on_example1_space, 12)],
    ids=["example1", "extracted_on_example1_space"])
def test_perturbation_draw_reads_the_support_in_key_order(monkeypatch, build, performed):
    # alphabet L H and tails many-high few-high are declared against string
    # order, so index order is the reverse of key order on both.  With the
    # patch every trial that draws fails and names its two points, which
    # must be the oracle's draw over the key-sorted support.  example1's
    # kernel measures are point masses, so it skips every trial
    single_sites_preserve(monkeypatch)
    dens = build_family(build())
    report = cli.measure_perturbation_suite(dens, trials=12, seed=5)
    assert report.data["performed"] == performed
    assert len(report.witnesses) == min(performed, WITNESS_CAP)
    assert report.as_dict() == oracles.measure_perturbation_suite(dens, 12, 5).as_dict()
