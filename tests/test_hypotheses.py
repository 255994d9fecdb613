"""Tests for the admissibility checks.

Expected values for the two-symbol tail-class model and the hand-built
two-site tables were worked out on paper and are frozen as literals; the
randomized batteries compare whole verdicts, never sampled subsets.
"""

from fractions import Fraction

import pytest

from specforge import hypotheses
from specforge.core import Configuration, DomainError, Universe
from specforge.hypotheses import (
    HypothesisFailure,
    check_bounded_positivity,
    check_order_consistency,
    check_pointwise_compatibility,
    check_uniqueness_condition,
    check_very_weak_positivity,
    good_blocks,
    good_symbols,
    two_point_identity,
)

import oracles
from zoo import (
    HIGH,
    LOW,
    MANY_HIGH,
    FEW_HIGH,
    alternating_exclusion_family,
    anchored_table_family,
    broken_pair_family,
    example1_family,
    extracted_family,
    forced_exclusion_family,
    independent_family,
    potential_family,
)
from oracles import ExtendedRational, INF, pair_divisor, with_sites


def er(n, d=1) -> ExtendedRational:
    return ExtendedRational(Fraction(n, d))


class TestGoodSymbols:
    def test_example1_good_sets_follow_the_class(self):
        family = example1_family()
        space = family.space
        low_cfg = space.make((LOW, HIGH, LOW, HIGH), MANY_HIGH)
        high_cfg = space.make((LOW, HIGH, LOW, HIGH), FEW_HIGH)
        for ctx in ((), ("s2",), ("s2", "s3"), ("s2", "s3", "s4")):
            assert good_symbols(family, "s1", ctx, low_cfg) == (LOW,)
            assert good_symbols(family, "s1", ctx, high_cfg) == (HIGH,)

    def test_strictly_positive_families_keep_every_symbol(self):
        _, _, family = potential_family(3)
        space = family.space
        cfg = next(space.configurations())
        for site in space.universe:
            for ctx in ((), tuple(s for s in space.universe if s != site)):
                assert good_symbols(family, site, ctx, cfg) == tuple(space.alphabet)

    def test_forced_exclusion_drops_the_dying_symbol(self):
        family = forced_exclusion_family()
        space = family.space
        cfg_a = space.make(("a", "a"), "default")
        cfg_b = space.make(("b", "b"), "default")
        # "b" at v dies when u carries "b": excluded against {u} by the
        # positivity sweep, excluded against () by an infinite ratio integral.
        assert good_symbols(family, "s2", ("s1",), cfg_a) == ("a",)
        assert good_symbols(family, "s2", (), cfg_a) == ("a",)
        assert good_symbols(family, "s2", (), cfg_b) == ("a",)
        # u itself is unconstrained.
        assert good_symbols(family, "s1", ("s2",), cfg_a) == ("a", "b")

    def test_membership_helper_reads_own_symbol(self):
        family = example1_family()
        space = family.space
        good = space.make((LOW, LOW, LOW, LOW), MANY_HIGH)
        bad = space.make((HIGH, LOW, LOW, LOW), MANY_HIGH)
        assert oracles.site_is_good(family, "s1", ("s2",), good)
        assert not oracles.site_is_good(family, "s1", ("s2",), bad)

    def test_result_ignores_hidden_coordinates(self):
        _, family = anchored_table_family(5)
        space = family.space
        base = space.make(("a", "a", "a"), "default")
        moved = space.make(("b", "b", "a"), "default")
        # context {s2} plus own site s1: only s3 and the tail matter.
        a = good_symbols(family, "s1", ("s2",), base)
        b = good_symbols(family, "s1", ("s2",), moved)
        assert a == b

    def test_context_validation(self):
        family = independent_family()
        cfg = next(family.space.configurations())
        with pytest.raises(DomainError):
            good_symbols(family, "s1", ("s1",), cfg)
        with pytest.raises(DomainError):
            good_symbols(family, "missing", (), cfg)


class TestGoodBlocks:
    def test_example1_single_block(self):
        family = example1_family()
        space = family.space
        cfg = space.make((LOW, HIGH, LOW, HIGH), MANY_HIGH)
        blocks = good_blocks(family, ("s1", "s2"), (), cfg)
        assert blocks == ((LOW, LOW),)
        assert (LOW, LOW) in blocks

    def test_independent_blocks_are_full_products(self):
        family = independent_family()
        cfg = next(family.space.configurations())
        blocks = good_blocks(family, ("s1", "s3"), ("s2",), cfg)
        assert len(blocks) == 4
        # blocks are aligned with the canonical region order
        assert good_blocks(family, ("s3", "s1"), ("s2",), cfg) == blocks

    def test_single_site_region_reduces_to_good_symbols(self):
        _, family = anchored_table_family(9)
        space = family.space
        cfg = space.make(("b", "a", "b"), "default")
        blocks = good_blocks(family, ("s2",), ("s3",), cfg)
        plain = good_symbols(family, "s2", ("s3",), cfg)
        assert blocks == tuple((x,) for x in plain)

    def test_region_context_overlap_rejected(self):
        family = independent_family()
        cfg = next(family.space.configurations())
        with pytest.raises(DomainError):
            good_blocks(family, ("s1", "s2"), ("s2",), cfg)

    def test_an_overlap_raises_on_every_call(self):
        family = independent_family()
        cfg = next(family.space.configurations())
        for _ in range(2):
            with pytest.raises(DomainError, match=r"overlap on \['s2'\]"):
                good_blocks(family, ("s1", "s2"), ("s2",), cfg)
        assert [key for key in family._cache if key[0] == "good_blocks"] == []

    def test_site_contexts_are_memoised_per_region_and_context_as_given(self, monkeypatch):
        _, family = anchored_table_family(9)
        cfgs = list(family.space.configurations())
        first = [good_blocks(family, ("s3", "s1"), ("s2",), cfg) for cfg in cfgs]
        regions = []
        honest_region = Universe.region

        def counted_region(self, sites):
            regions.append(tuple(sites))
            return honest_region(self, sites)

        asked = []
        honest_good = hypotheses.good_symbols

        def counted_good(family, site, context, cfg):
            asked.append((site, context))
            return honest_good(family, site, context, cfg)

        monkeypatch.setattr(Universe, "region", counted_region)
        monkeypatch.setattr(hypotheses, "good_symbols", counted_good)
        assert [good_blocks(family, ("s3", "s1"), ("s2",), cfg) for cfg in cfgs] == first
        assert regions == []
        assert asked == [("s1", ("s3", "s2")), ("s3", ("s1", "s2"))] * len(cfgs)


class TestVeryWeakPositivity:
    def test_example1_passes(self):
        report = check_very_weak_positivity(example1_family())
        assert report.passed
        assert report.witnesses == []
        assert report.data["violations"] == 0
        # 4 sites, contexts of size 0..3 inside the 3-site complement,
        # exteriors counted once per visible mask, 2 tail classes.
        assert report.data["index_points"] == 216

    def test_positive_and_forced_exclusion_families_pass(self):
        _, _, fam = potential_family(11)
        assert check_very_weak_positivity(fam).passed
        assert check_very_weak_positivity(forced_exclusion_family()).passed

    def test_alternating_exclusion_fails_with_witness(self):
        report = check_very_weak_positivity(alternating_exclusion_family())
        assert not report.passed
        assert report.data["violations"] > 0
        w = report.witnesses[0]
        assert w.check == "very_weak_positivity"
        assert w.replay["site"] == "s2"
        assert "assignment" in w.replay and "tail" in w.replay


class TestPairDivisor:
    def test_example1_values(self):
        family = example1_family()
        space = family.space
        low_next = space.make((HIGH, LOW, LOW, LOW), MANY_HIGH)
        high_next = space.make((LOW, HIGH, LOW, LOW), MANY_HIGH)
        assert pair_divisor(family, "s1", "s2", low_next) == er(1, 2)
        assert pair_divisor(family, "s1", "s2", high_next) == INF
        assert pair_divisor(family, "s1", "s2", high_next).is_infinite

    def test_independent_family_divisor_is_one(self):
        family = independent_family()
        for cfg in family.space.configurations():
            assert pair_divisor(family, "s1", "s3", cfg) == er(1)

    def test_value_matches_manual_formula(self):
        space, _, family = extracted_family(17)
        cfg = space.make(("a", "b", "a"), "default")
        value = pair_divisor(family, "s1", "s2", cfg)
        # recompute by hand with the good symbol "a"
        shifted = with_sites(cfg, {"s1": "a"})
        total = Fraction(0)
        for sym in space.alphabet:
            point = with_sites(shifted, {"s2": sym})
            total += Fraction(1, 2) * family.density("s2", point) / family.density("s1", point)
        expected = ExtendedRational(
            family.density("s1", shifted) / family.density("s2", shifted) * total
        )
        assert value == expected

    def test_divisor_ignores_own_site_coordinate(self):
        space, _, family = extracted_family(23)
        base = space.make(("a", "b", "b"), "default")
        moved = with_sites(base, {"s1": "b"})
        assert pair_divisor(family, "s1", "s2", base) == pair_divisor(family, "s1", "s2", moved)

    def test_same_site_rejected_and_empty_good_set_raises(self):
        family = independent_family()
        cfg = next(family.space.configurations())
        with pytest.raises(DomainError):
            pair_divisor(family, "s1", "s1", cfg)
        broken = alternating_exclusion_family()
        bcfg = next(broken.space.configurations())
        with pytest.raises(HypothesisFailure):
            pair_divisor(broken, "s2", "s1", bcfg)

    def test_density_over_divisor_is_symmetric(self):
        # on order-consistent families density(i)/divisor(i vs j) is a
        # symmetric function of the pair, in extended arithmetic
        for family in (example1_family(2), extracted_family(29)[2]):
            space = family.space
            sites = space.universe.sites
            for cfg in space.configurations():
                for i in sites:
                    for j in sites:
                        if i == j:
                            continue
                        lhs = ExtendedRational(family.density(i, cfg)) / pair_divisor(family, i, j, cfg)
                        rhs = ExtendedRational(family.density(j, cfg)) / pair_divisor(family, j, i, cfg)
                        assert lhs == rhs


class TestOrderConsistency:
    def test_example1_and_random_joints_pass(self):
        assert check_order_consistency(example1_family()).passed
        for seed in (1, 2, 3):
            _, _, fam = extracted_family(seed)
            report = check_order_consistency(fam)
            assert report.passed and report.data["violations"] == 0

    def test_potential_families_pass(self):
        for seed in (4, 5):
            _, _, fam = potential_family(seed)
            assert check_order_consistency(fam).passed

    def test_broken_pair_fails_with_frozen_witness(self):
        report = check_order_consistency(broken_pair_family())
        assert not report.passed
        assert report.data["comparisons"] == 16
        assert report.data["violations"] > 0
        target = [
            w for w in report.witnesses
            if w.replay["assignment"] == ["0", "0"]
            and w.replay["symbol_first"] == "0"
            and w.replay["symbol_second"] == "0"
        ]
        assert len(target) == 1
        assert target[0].lhs == "2/3"
        assert target[0].rhs == "8/9"

    def test_requires_positivity(self):
        with pytest.raises(HypothesisFailure) as err:
            check_order_consistency(alternating_exclusion_family())
        assert err.value.report is not None
        assert err.value.report.name == "very_weak_positivity"


class TestPointwiseCompatibility:
    def test_consistent_families_pass(self):
        assert check_pointwise_compatibility(example1_family()).passed
        for seed in (6, 7):
            _, _, fam = extracted_family(seed)
            assert check_pointwise_compatibility(fam).passed

    def test_broken_pair_fails(self):
        report = check_pointwise_compatibility(broken_pair_family())
        assert not report.passed
        w = report.witnesses[0]
        assert w.lhs != w.rhs

    def test_agrees_with_order_consistency_on_anchored_battery(self):
        # positivity holds by construction here, so the two checks must
        # return the same verdict on every draw; a passing order
        # consistency settles pointwise compatibility, so the eight-factor
        # walk of the oracle, on a fresh copy, must agree as well
        agree_false = 0
        agree_true = 0
        for seed in range(15):
            _, family = anchored_table_family(seed)
            a = check_order_consistency(family).passed
            b = check_pointwise_compatibility(family).passed
            assert a == b
            assert oracles.check_pointwise_compatibility(anchored_table_family(seed)[1]).passed == a
            if a:
                agree_true += 1
            else:
                agree_false += 1
        # the battery is only meaningful if both verdicts occur
        assert agree_false > 0
        _, _, fam = extracted_family(31)
        assert check_order_consistency(fam).passed
        assert check_pointwise_compatibility(fam).passed


class TestTwoPointIdentity:
    def test_independent_family_sides_are_one(self):
        family = independent_family()
        cfg = next(family.space.configurations())
        lhs, rhs = two_point_identity(family, "s1", "s2", cfg, "a", "a")
        assert type(lhs) is type(rhs) is Fraction
        assert lhs == Fraction(1)
        assert rhs == Fraction(1)

    def test_example1_sides_agree(self):
        family = example1_family()
        cfg = family.space.make((HIGH, HIGH, LOW, LOW), MANY_HIGH)
        lhs, rhs = two_point_identity(family, "s1", "s2", cfg, LOW, LOW)
        assert lhs == rhs == Fraction(1)

    def test_broken_pair_sides_differ(self):
        family = broken_pair_family()
        cfg = family.space.make(("0", "0"), "default")
        lhs, rhs = two_point_identity(family, "s1", "s2", cfg, "0", "0")
        assert lhs == Fraction(1)
        assert rhs == Fraction(3, 4)

    def test_bad_symbols_rejected(self):
        family = example1_family()
        cfg = family.space.make((LOW, LOW, LOW, LOW), MANY_HIGH)
        with pytest.raises(DomainError):
            two_point_identity(family, "s1", "s2", cfg, HIGH, LOW)

    def test_equality_everywhere_on_extracted_family(self):
        space, _, family = extracted_family(37)
        sites = space.universe.sites
        for cfg in space.configurations():
            for a_pos, i in enumerate(sites):
                for j in sites[a_pos + 1:]:
                    for x_i in good_symbols(family, i, (j,), cfg):
                        for x_j in good_symbols(family, j, (i,), cfg):
                            lhs, rhs = two_point_identity(family, i, j, cfg, x_i, x_j)
                            assert lhs == rhs


class TestUniquenessCondition:
    def test_example1_has_half_mass(self):
        report = check_uniqueness_condition(example1_family())
        assert report.passed
        assert report.data["min_good_mass"] == "1/2"

    def test_positive_families_have_full_mass(self):
        _, _, family = potential_family(13)
        report = check_uniqueness_condition(family)
        assert report.passed
        assert report.data["min_good_mass"] == "1"

    def test_forced_exclusion_still_passes(self):
        report = check_uniqueness_condition(forced_exclusion_family())
        assert report.passed
        assert report.data["min_good_mass"] == "1/2"

    def test_empty_good_sets_fail(self):
        report = check_uniqueness_condition(alternating_exclusion_family())
        assert not report.passed
        assert report.data["min_good_mass"] == "0"
        assert report.witnesses[0].replay["site"] == "s2"


class TestBoundedPositivity:
    def test_independent_family_bounds_collapse_to_one(self):
        report = check_bounded_positivity(independent_family())
        assert report.passed
        for pair, b in report.data["bounds"].items():
            assert b == {"min": "1", "max": "1"}
        assert report.data["strict_identity"] is True

    def test_potential_families_pass_with_strict_identity(self):
        for seed in (19, 20):
            _, _, family = potential_family(seed)
            report = check_bounded_positivity(family)
            assert report.passed
            assert report.data["strict_identity"] is True
            for b in report.data["bounds"].values():
                assert Fraction(b["min"]) > 0
                assert Fraction(b["max"]) >= Fraction(b["min"])

    def test_example1_fails(self):
        report = check_bounded_positivity(example1_family())
        assert not report.passed
        assert report.data["strict_identity"] is None
        assert any(w.check == "bounded_positivity" for w in report.witnesses)

    def test_broken_pair_bounds_hold_but_identity_fails(self):
        report = check_bounded_positivity(broken_pair_family())
        assert report.passed
        assert report.data["bounds"]["s1->s2"] == {"min": "1", "max": "1"}
        assert report.data["bounds"]["s2->s1"] == {"min": "9/8", "max": "9/8"}
        assert report.data["strict_identity"] is False
        assert any(w.check == "strict_identity" for w in report.witnesses)
