"""The pair-by-pair pass of order consistency, and pointwise compatibility
read off it, against the configuration-by-configuration walks.

``check_order_consistency`` decides a passing family one site pair at a
time (``hypotheses._consistency_comparisons``) and reports its count in
closed form; only a failing cell, or a ratio integral outside (0, inf),
sends it to the walk that builds witnesses.  ``check_pointwise_compatibility``
passes with q² times that count when very weak positivity and order
consistency pass.  Both reports must equal the oracles in ``oracles.py``
at caps 0, 1 and 25: on the zoo families, zero-table seeds 15 and 28,
hard-core draws and families that fail only at their last site pair,
with pointwise compatibility run after order consistency on the same
family (as ``check`` runs them) and alone on a fresh one.  The pass
must return a count exactly when the oracle passes, and wherever order
consistency passes the oracle's eight-factor walk must pass with q²
times its count, so the read-off is held to a walk that does not read
order consistency.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from specforge import hypotheses

import oracles
import zoo
from test_class_replay_oracle import CAPS, ZOO, outcome

HARDCORE_SEEDS = range(8)
FAMILIES = {
    **ZOO,
    "zero_table_15": lambda: zoo.random_zero_table_family(15),
    "zero_table_28": lambda: zoo.random_zero_table_family(28),
    **{f"random_hardcore_{seed}": (lambda s=seed: zoo.random_hardcore_family(s))
       for seed in HARDCORE_SEEDS},
    "last_pair_broken_3": lambda: zoo.last_pair_broken_family(3),
    "last_pair_broken_4": lambda: zoo.last_pair_broken_family(4),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_both_gates_equal_their_oracles(name):
    for cap in CAPS:
        family = FAMILIES[name]()
        assert (outcome(hypotheses.check_order_consistency, family, cap)
                == outcome(oracles.check_order_consistency, FAMILIES[name](), cap)), cap
        expected = outcome(oracles.check_pointwise_compatibility, FAMILIES[name](), cap)
        assert outcome(hypotheses.check_pointwise_compatibility, family, cap) == expected, cap
        assert (outcome(hypotheses.check_pointwise_compatibility, FAMILIES[name](), cap)
                == expected), cap


def assert_pass_counts_the_passing_family(family, fresh_family):
    expected = outcome(oracles.check_order_consistency, fresh_family)
    if not hypotheses.check_very_weak_positivity(family).passed:
        assert expected[:2] == ("raised", "HypothesisFailure")
        return
    count = hypotheses._consistency_comparisons(family)
    if expected["passed"]:
        assert count == expected["data"]["comparisons"]
    else:
        assert count is None


def assert_eight_factor_walk_passes(family, fresh_family):
    """Where order consistency passes, the oracle's eight-factor walk passes
    with q² times its count."""
    try:
        consistent = hypotheses.check_order_consistency(family)
    except hypotheses.HypothesisFailure:
        return
    if consistent.passed:
        q = len(family.space.alphabet)
        walked = oracles.check_pointwise_compatibility(fresh_family)
        assert walked.passed
        assert walked.data == {"comparisons": q * q * consistent.data["comparisons"],
                               "violations": 0}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pass_counts_exactly_the_passing_families(name):
    assert_pass_counts_the_passing_family(FAMILIES[name](), FAMILIES[name]())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_eight_factor_walk_passes_wherever_order_consistency_passes(name):
    assert_eight_factor_walk_passes(FAMILIES[name](), FAMILIES[name]())


def test_the_battery_holds_passing_and_failing_families():
    verdicts = set()
    for build in FAMILIES.values():
        try:
            verdicts.add(hypotheses.check_order_consistency(build()).passed)
        except hypotheses.HypothesisFailure:
            verdicts.add("raised")
    assert verdicts == {True, False, "raised"}


@pytest.mark.parametrize("n_sites", [3, 4])
def test_the_pass_reaches_the_last_pair_before_it_fails(n_sites, monkeypatch):
    family = zoo.last_pair_broken_family(n_sites)
    assert hypotheses.check_very_weak_positivity(family).passed
    asked = set()
    honest = hypotheses.good_symbols

    def recorded(family, site, context, cfg):
        asked.add((site, tuple(context)))
        return honest(family, site, context, cfg)

    monkeypatch.setattr(hypotheses, "good_symbols", recorded)
    assert hypotheses._consistency_comparisons(family) is None
    pairs = list(itertools.combinations(family.space.universe.sites, 2))
    assert asked == {(i, (j,)) for i, j in pairs} | {(j, (i,)) for i, j in pairs}
    report = hypotheses.check_order_consistency(family)
    assert not report.passed
    assert {(w.replay["site_first"], w.replay["site_second"])
            for w in report.witnesses} == {pairs[-1]}


DRAWS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
BUILDERS = (zoo.random_hardcore_family, zoo.random_zero_table_family,
            lambda seed: zoo.extracted_family(seed)[2])


@DRAWS
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(range(len(BUILDERS))),
       st.none() | st.integers(min_value=0, max_value=255))
def test_drawn_families_agree_with_the_walks(seed, builder, pick):
    def draw():
        family = BUILDERS[builder](seed)
        return family if pick is None else zoo.doubled_entry(family, pick)

    assert_pass_counts_the_passing_family(draw(), draw())
    assert_eight_factor_walk_passes(draw(), draw())
