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
zero-table seeds 15 and 28, hard-core draws, families that fail only
at their last site pair, and the 5-site one-sided hard-core chain, the
two-tail hard-core chain and the copycat family that the zero-density
benchmark runs, with pointwise compatibility run after order
consistency on the same family (as ``check`` runs them) and alone on a
fresh one; on the failing families, and for pointwise compatibility on
the copycat family, whose order consistency raises, at a cap past every
witness too.  Off a passing order consistency, pointwise compatibility
runs order consistency's cell walker ``hypotheses._class_cells`` once
per site pair and exterior class off it, and ``Space.per_class`` never.
The record's count must be the oracle's, its failures empty exactly when
the oracle passes, and wherever order consistency passes the oracle's
eight-factor walk must pass with q² times its count, so the read-off is
held to a walk that does not read order consistency.  The record reads
good sets off the good-point tables, so the fault-injection tests patch
``hypotheses._good_points``, which the oracles' ``good_symbols`` reads
too, and a record that raises nothing calls neither ``good_symbols`` nor
``Space.at``.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from specforge import hypotheses
from specforge.core import Space

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
    "one_sided_hardcore_5": lambda: zoo.one_sided_hardcore_family(5),
    "two_tail_hardcore_4": zoo.two_tail_hardcore_family,
    "copycat_5": zoo.copycat_family,
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
           "last_pair_broken_3", "last_pair_broken_4", "one_sided_hardcore_3",
           "one_sided_hardcore_5")
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


@pytest.mark.parametrize("name", FAILING + ("copycat_5",))
def test_the_pointwise_walk_lists_every_witness_in_walk_order(name):
    """Where order consistency fails or raises, pointwise compatibility
    walks its cells; past every witness, its report is the oracle's."""
    expected = outcome(oracles.check_pointwise_compatibility, FAMILIES[name](), ALL_WITNESSES)
    assert len(expected["witnesses"]) == expected["data"]["violations"]
    assert (outcome(hypotheses.check_pointwise_compatibility, FAMILIES[name](), ALL_WITNESSES)
            == expected)


@pytest.mark.parametrize("name", ["one_sided_hardcore_5", "copycat_5"])
def test_the_pointwise_walk_compares_each_pair_class_once(name, monkeypatch):
    """Off a failing or raising order consistency, pointwise compatibility
    runs the cell walker of order consistency's failing classes once per
    site pair and exterior class off it, and replays no class at every
    configuration through `Space.per_class`."""
    family = FAMILIES[name]()
    try:
        assert not hypotheses.check_order_consistency(family).passed
    except hypotheses.HypothesisFailure:
        assert name == "copycat_5"
    calls = Counter()
    honest_cells, honest_per_class = hypotheses._class_cells, Space.per_class

    def counted_cells(pair, q, b, weights):
        calls[pair[:2], b] += 1
        return honest_cells(pair, q, b, weights)

    def counted_per_class(*args):
        calls["per_class"] += 1
        return honest_per_class(*args)

    monkeypatch.setattr(hypotheses, "_class_cells", counted_cells)
    monkeypatch.setattr(Space, "per_class", counted_per_class)
    report = hypotheses.check_pointwise_compatibility(family)
    space = family.space
    assert calls == Counter({(pair, b): 1
                             for pair in itertools.combinations(space.universe.sites, 2)
                             for b in space.class_bases(pair)})
    assert report.data["comparisons"] > 0 and report.passed == (name == "copycat_5")


@pytest.mark.parametrize("n_sites", [3, 4])
def test_the_record_reaches_the_last_pair_and_fails_only_there(n_sites, monkeypatch):
    family = zoo.last_pair_broken_family(n_sites)
    assert hypotheses.check_very_weak_positivity(family).passed
    asked = set()
    honest = hypotheses._good_points
    depth = 0

    def recorded(family, site, ctx):
        # the tables asked for, not the prefix tables a build reads itself
        nonlocal depth
        if not depth:
            asked.add((site, ctx))
        depth += 1
        try:
            return honest(family, site, ctx)
        finally:
            depth -= 1

    monkeypatch.setattr(hypotheses, "_good_points", recorded)
    failures = hypotheses._pair_record(family)[1]
    pairs = list(itertools.combinations(family.space.universe.sites, 2))
    assert asked == {(i, (j,)) for i, j in pairs} | {(j, (i,)) for i, j in pairs}
    assert failures and {(i, j) for _, i, j, *_ in failures} == {pairs[-1]}
    report = hypotheses.check_order_consistency(family)
    assert not report.passed
    assert {(w.replay["site_first"], w.replay["site_second"])
            for w in report.witnesses} == {pairs[-1]}
    # the record holds good digits; the witnesses name their symbols
    symbols = family.space.alphabet.symbols
    assert [(w.replay["symbol_first"], w.replay["symbol_second"]) for w in report.witnesses] == [
        (symbols[x], symbols[y]) for _, _, _, x, y, *_ in failures[:len(report.witnesses)]]


@pytest.mark.parametrize("name", ["hardcore_4", "two_tail_hardcore_4", "one_sided_hardcore_5"])
def test_the_record_asks_no_good_symbols_and_builds_no_configuration(name, monkeypatch):
    """The record reads good digits off the good-point tables and every
    cell by index, so, raising nothing, it calls neither `good_symbols`
    nor `Space.at`; very weak positivity on a fresh family calls both."""
    family = FAMILIES[name]()
    assert hypotheses.check_very_weak_positivity(family).passed
    calls = Counter()
    for owner, attr in ((hypotheses, "good_symbols"), (Space, "at")):
        def counted(*args, honest=getattr(owner, attr), attr=attr):
            calls[attr] += 1
            return honest(*args)

        monkeypatch.setattr(owner, attr, counted)
    count, failures = hypotheses._pair_record(family)
    assert count and (name in FAILING) == bool(failures)
    assert not calls
    hypotheses.check_very_weak_positivity(FAMILIES[name]())
    assert calls["good_symbols"] and calls["at"]


def broken_guarantee(*cases):
    """`_good_points` with every symbol good for the given (site, context,
    smallest class index off both) cases: the table of each case also
    holds every point of the classes at or past ``first``."""
    honest = hypotheses._good_points

    def patched(family, site, ctx):
        table = honest(family, site, ctx)
        space = family.space
        for c_site, c_context, first in cases:
            if (site, ctx) == (c_site, c_context):
                classes = space.class_map((site,) + ctx)
                table = table | {p for p in range(space.size) if classes[p] >= first}
        return table

    return patched


@pytest.mark.parametrize("cases, named", [
    ((("s1", ("s2",), 1),), "over 's2' of 's2'/'s1'"),
    ((("s1", ("s2",), 1), ("s3", ("s2",), 0)), "over 's2' of 's2'/'s3'"),
], ids=["first_pair_alone", "later_pair_breaks_at_an_earlier_class"])
def test_a_broken_guarantee_raises_where_the_walk_does(cases, named, monkeypatch):
    """Pair (s1, s2) breaks only at its second class; (s2, s3), a later
    pair, breaks at its first, which a walk over configurations reaches
    first.  The raised text is the walk's either way."""
    monkeypatch.setattr(hypotheses, "_good_points", broken_guarantee(*cases))
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
