"""Order consistency's pair record, and the gates read off it, against the
configuration-by-configuration walks.

``hypotheses._pair_record`` reads order consistency's cells one site pair
and exterior class at a time, decides each class from the cells of one
pair of good symbols, and lists every failing cell only where one of
those fails.  ``check_order_consistency`` builds its report from it,
``check_bounded_positivity`` reads its strict identity off it, and
``check_pointwise_compatibility`` passes with q² times its count when
very weak positivity and order consistency pass.  The reports must equal
the oracles in ``oracles.py`` at caps 0, 1 and 25: on the zoo families,
zero-table seeds 15 and 28, hard-core draws and families that fail only
at their last site pair, with pointwise compatibility run after order
consistency on the same family (as ``check`` runs them) and alone on a
fresh one; on the failing families, at a cap past every witness too.
The record's count must be the oracle's, its failures empty exactly when
the oracle passes, and wherever order consistency passes the oracle's
eight-factor walk must pass with q² times its count, so the read-off is
held to a walk that does not read order consistency.
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


def assert_record_counts_the_walk(family, fresh_family):
    expected = outcome(oracles.check_order_consistency, fresh_family)
    if not hypotheses.check_very_weak_positivity(family).passed:
        assert expected[:2] == ("raised", "HypothesisFailure")
        return
    count, failures = hypotheses._pair_record(family)
    assert count == expected["data"]["comparisons"]
    assert (failures == []) == expected["passed"]


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
def test_record_counts_the_walk_and_fails_exactly_with_it(name):
    assert_record_counts_the_walk(FAMILIES[name](), FAMILIES[name]())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_eight_factor_walk_passes_wherever_order_consistency_passes(name):
    assert_eight_factor_walk_passes(FAMILIES[name](), FAMILIES[name]())


FAILING = ("anchored_table_5", "anchored_table_6_n4", "broken_pair", "forced_exclusion",
           "last_pair_broken_3", "last_pair_broken_4", "one_sided_hardcore_3")
ALL_WITNESSES = 10_000


def test_the_battery_holds_passing_and_failing_families():
    verdicts = {}
    for name, build in FAMILIES.items():
        try:
            verdicts[name] = hypotheses.check_order_consistency(build()).passed
        except hypotheses.HypothesisFailure:
            verdicts[name] = "raised"
    assert set(verdicts.values()) == {True, False, "raised"}
    assert sorted(name for name, verdict in verdicts.items() if verdict is False) == list(FAILING)


def assert_all_witnesses_equal_the_oracles(build):
    """Every witness of both record readers, in the walks' order."""
    for run, walk in ((hypotheses.check_order_consistency, oracles.check_order_consistency),
                      (hypotheses.check_bounded_positivity, oracles.check_bounded_positivity)):
        assert outcome(run, build(), ALL_WITNESSES) == outcome(walk, build(), ALL_WITNESSES)


@pytest.mark.parametrize("name", FAILING)
def test_failing_families_list_every_witness_in_walk_order(name):
    family = FAMILIES[name]()
    report = hypotheses.check_order_consistency(family, ALL_WITNESSES)
    assert len(report.witnesses) == report.data["violations"] > 0
    assert_all_witnesses_equal_the_oracles(FAMILIES[name])


@pytest.mark.parametrize("n_sites", [3, 4])
def test_the_record_reaches_the_last_pair_and_fails_only_there(n_sites, monkeypatch):
    family = zoo.last_pair_broken_family(n_sites)
    assert hypotheses.check_very_weak_positivity(family).passed
    asked = set()
    honest = hypotheses.good_symbols

    def recorded(family, site, context, cfg):
        asked.add((site, tuple(context)))
        return honest(family, site, context, cfg)

    monkeypatch.setattr(hypotheses, "good_symbols", recorded)
    failures = hypotheses._pair_record(family)[1]
    pairs = list(itertools.combinations(family.space.universe.sites, 2))
    assert asked == {(i, (j,)) for i, j in pairs} | {(j, (i,)) for i, j in pairs}
    assert failures and {(i, j) for _, i, j, *_ in failures} == {pairs[-1]}
    report = hypotheses.check_order_consistency(family)
    assert not report.passed
    assert {(w.replay["site_first"], w.replay["site_second"])
            for w in report.witnesses} == {pairs[-1]}


def broken_guarantee(*cases):
    """`good_symbols` with every symbol good for the given (site, context,
    smallest class index off both) cases."""
    honest = hypotheses.good_symbols

    def patched(family, site, context, cfg):
        context = tuple(context)
        space = family.space
        for c_site, c_context, first in cases:
            if (site, context) == (c_site, c_context) and space.class_map(
                    (site,) + context)[cfg.index] >= first:
                return space.alphabet.symbols
        return honest(family, site, context, cfg)

    return patched


@pytest.mark.parametrize("cases, named", [
    ((("s1", ("s2",), 1),), "over 's2' of 's2'/'s1'"),
    ((("s1", ("s2",), 1), ("s3", ("s2",), 0)), "over 's2' of 's2'/'s3'"),
], ids=["first_pair_alone", "later_pair_breaks_at_an_earlier_class"])
def test_a_broken_guarantee_raises_where_the_walk_does(cases, named, monkeypatch):
    """Pair (s1, s2) breaks only at its second class; (s2, s3), a later
    pair, breaks at its first, which a walk over configurations reaches
    first.  The raised text is the walk's either way."""
    monkeypatch.setattr(hypotheses, "good_symbols", broken_guarantee(*cases))
    for cap in CAPS:
        expected = outcome(oracles.check_order_consistency, zoo.hardcore_family(3), cap)
        assert expected[:2] == ("raised", "HypothesisFailure")
        assert named in expected[2] and "good-set guarantee violated" in expected[2]
        assert outcome(hypotheses.check_order_consistency, zoo.hardcore_family(3), cap) == expected


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

    assert_record_counts_the_walk(draw(), draw())
    assert_eight_factor_walk_passes(draw(), draw())
    assert_all_witnesses_equal_the_oracles(draw)
    assert (outcome(hypotheses.check_pointwise_compatibility, draw())
            == outcome(oracles.check_pointwise_compatibility, draw()))
