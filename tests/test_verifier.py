"""Verifier suite: axioms, exchange, uniqueness, support, measures, locality.

Expected values are frozen from independent derivations: kernel rows are
re-summed with explicit loops over density tables, measure images are
compared entry by entry, and the counting data of each report is checked
against closed-form enumeration counts.
"""

import re
from fractions import Fraction

import pytest

from specforge import (
    DomainError,
    FiniteMeasure,
    HypothesisFailure,
    build_family,
    check_good_support_mass,
    check_measure_consistency,
    check_specification_axioms,
    exchange_identity,
    extract_singletons,
    good_support_report,
    quasilocality_diagnostic,
    ratio_bounds,
    roundtrip_reconstruction,
    support_class_certificate,
    uniqueness_probe,
)

import oracles
import zoo


def apply_kernel(dens, region, h, cfg):
    """Brute-force kernel application straight from the density table."""
    space = dens.space
    region = space.universe.region(region)
    total = Fraction(0)
    for block in space.assignments(region):
        point = oracles.overlay(space, cfg, region, block)
        total += (
            dens.density(region, point)
            * oracles.product_weight(space, region, block)
            * h(point)
        )
    return total


def kernel_row(dens, region, cfg):
    """Point weights of a region's kernel at one exterior, nonzero only."""
    space = dens.space
    region = space.universe.region(region)
    row = {}
    for block in space.assignments(region):
        point = oracles.overlay(space, cfg, region, block)
        w = dens.density(region, point) * oracles.product_weight(space, region, block)
        if w:
            row[point.key] = w
    return row


def renormalized_entry_bump(dens, region, key, factor):
    """A copy of one region table with one entry scaled, row re-unitized."""
    space = dens.space
    region = space.universe.region(region)
    table = list(dens.table(region))
    cfg = space.make(*key)
    table[cfg.index] = table[cfg.index] * factor
    classes = space.class_map(region)
    row = [c for c in space.configurations() if classes[c.index] == classes[cfg.index]]
    mass = sum(table[c.index] * oracles.product_weight(space, region, oracles.restrict(c, region))
               for c in row)
    for c in row:
        table[c.index] = table[c.index] / mass
    return dens.replace_table(region, table)


class TestFiniteMeasure:
    def test_mass_must_be_one(self):
        space = zoo.plain_space(2)
        with pytest.raises(DomainError):
            FiniteMeasure(space, {0: Fraction(1, 2)})

    def test_negative_weight_rejected(self):
        space = zoo.plain_space(2)
        with pytest.raises(DomainError):
            FiniteMeasure(space, {0: Fraction(3, 2), 1: Fraction(-1, 2)})

    @pytest.mark.parametrize("key", [4, -1, True, 1.0, "0", (("a", "b"), "default")])
    def test_key_that_is_no_configuration_index_is_rejected(self, key):
        space = zoo.plain_space(2)
        with pytest.raises(DomainError, match=re.escape(f"not a configuration index: {key!r}")):
            FiniteMeasure(space, {key: Fraction(1)})

    @pytest.mark.parametrize("value", [1.0, True])
    def test_inexact_weight_is_rejected(self, value):
        space = zoo.plain_space(2)
        with pytest.raises(DomainError, match=r"not an exact rational at "
                           rf"Configuration\(ab, tail=default\): {value!r}"):
            FiniteMeasure(space, {1: value})

    def test_kernel_measure_is_normalized_joint(self):
        # The full-window kernel measure of an extracted family must be the
        # joint itself, normalized: that is what conditioning on nothing
        # inside the window means.
        space, joint, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(dens, space.make(("a", "a", "a"), "default"))
        total = sum(joint.values(), Fraction(0))
        weights = oracles.fraction_values(mu.weights)
        for values in space.assignments(space.universe.sites):
            index = space.make(values, "default").index
            assert weights[index] == joint[values] / total

    def test_free_measure_and_expect(self):
        space = zoo.plain_space(2)
        lam = oracles.free_measure(space, "default")
        assert sum(oracles.fraction_values(lam.weights).values(), Fraction(0)) == 1
        ind = oracles.expect(lam, lambda c: Fraction(1) if c.symbol("s1") == "a" else Fraction(0))
        assert ind == Fraction(1, 2)

    def test_push_preserves_mass(self):
        space, _, fam = zoo.extracted_family(62)
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(dens, space.make(("b", "a", "b"), "default"))
        for region in [("s1",), ("s1", "s3")]:
            for image in (mu.push_kernel(dens, region), mu.push_free(region)):
                assert sum(oracles.fraction_values(image.weights).values(), Fraction(0)) == 1


class TestSpecificationAxioms:
    def test_extracted_family_passes(self):
        _, _, fam = zoo.extracted_family(61)
        report = check_specification_axioms(build_family(fam))
        assert report.passed
        assert report.data["exterior_measurable"]
        assert report.data["point_mass_off_region"]
        assert report.data["consistent"]
        # 8 regions x 8 configurations = 64 kernel evaluations; the nested
        # loop visits sum over Delta of classes(Delta) * subsets(Delta)
        # = sum_d C(3,d) * 2^(3-d) * 2^d = 64 as well.
        assert report.data["checks"] == {
            "exterior": 64, "point_mass": 64, "nested_pairs": 64,
        }

    def test_two_class_family_passes(self):
        report = check_specification_axioms(build_family(zoo.example1_family()))
        assert report.passed
        assert report.data["checks"] == {
            "exterior": 512, "point_mass": 512, "nested_pairs": 512,
        }

    def test_independent_family_passes(self):
        report = check_specification_axioms(build_family(zoo.independent_family()))
        assert report.passed

    def test_potential_family_passes(self):
        _, _, fam = zoo.potential_family(63)
        assert check_specification_axioms(build_family(fam)).passed

    def test_perturbed_family_fails_consistency(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        key = (("a", "a", "a"), "default")
        perturbed = renormalized_entry_bump(dens, ("s1", "s2"), key, Fraction(8, 7))
        report = check_specification_axioms(perturbed)
        assert not report.passed
        # Rows were renormalized, so only the nesting axiom can break.
        assert report.data["exterior_measurable"]
        assert report.data["point_mass_off_region"]
        assert not report.data["consistent"]
        witness = next(w for w in report.witnesses if w.check == "consistency")
        assert set(witness.replay) >= {
            "large", "small", "assignment", "tail", "point_assignment", "point_tail",
        }

    def test_consistency_witness_names_the_smallest_differing_point(self):
        # a set of string tuples iterates in hash-seed order, so the point
        # must be chosen by value for reports to be reproducible
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        key = (("a", "a", "a"), "default")
        perturbed = renormalized_entry_bump(dens, ("s1", "s2"), key, Fraction(8, 7))
        report = check_specification_axioms(perturbed, witness_cap=100)
        witnesses = [w for w in report.witnesses if w.check == "consistency"]
        assert witnesses
        for witness in witnesses:
            replay = witness.replay
            cfg = space.make(tuple(replay["assignment"]), replay["tail"])
            direct = kernel_row(perturbed, replay["large"], cfg)
            composed = {}
            for mid, w1 in direct.items():
                for point, w2 in kernel_row(
                        perturbed, replay["small"], space.make(*mid)).items():
                    composed[point] = composed.get(point, Fraction(0)) + w1 * w2
            differing = [k for k in set(direct) | set(composed)
                         if direct.get(k, 0) != composed.get(k, 0)]
            assert (tuple(replay["point_assignment"]), replay["point_tail"]) \
                == min(differing)

    def test_raw_entry_edit_breaks_row_mass(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        region = ("s2", "s3")
        table = list(dens.table(region))
        index = space.make(("a", "b", "a"), "default").index
        table[index] = table[index] + Fraction(1, 5)
        report = check_specification_axioms(dens.replace_table(region, table))
        assert not report.passed
        assert not report.data["point_mass_off_region"]
        assert report.witnesses[0].description == "kernel of ['s2', 's3'] has mass 21/20"
        # Kernel rows are functions of the overlaid point, so exterior
        # measurability survives any table edit; only the masses break.
        assert report.data["exterior_measurable"]


class TestExchangeIdentity:
    def test_sides_equal_everywhere(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)

        def f(c):
            return Fraction(2) if c.symbol("s1") == "a" else Fraction(1, 3)

        def g(c):
            return Fraction(1) if c.symbol("s3") == "b" else Fraction(5, 7)

        for cfg in space.configurations():
            lhs, rhs = exchange_identity(dens, ("s1",), ("s3",), f, g, cfg)
            assert lhs == rhs

    def test_frozen_value_matches_brute_force(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        cfg = space.make(("a", "b", "a"), "default")

        def f(c):
            return Fraction(2) if c.symbol("s1") == "a" else Fraction(1, 3)

        def g(c):
            return Fraction(1) if c.symbol("s3") == "b" else Fraction(5, 7)

        lhs, rhs = exchange_identity(dens, ("s1",), ("s3",), f, g, cfg)
        assert lhs == rhs == Fraction(2129390, 2093091)

        def oracle(c):
            inner = apply_kernel(
                dens, ("s1",),
                lambda y: apply_kernel(dens, ("s3",), g, y), c,
            )
            return f(c) * inner

        assert lhs == apply_kernel(dens, ("s1", "s3"), oracle, cfg)

    def test_equal_functions_trivially_symmetric(self):
        space, _, fam = zoo.extracted_family(64)
        dens = build_family(fam)
        h = lambda c: Fraction(3) if c.symbol("s2") == "b" else Fraction(1, 2)
        cfg = space.make(("b", "b", "a"), "default")
        lhs, rhs = exchange_identity(dens, ("s2",), ("s3",), h, h, cfg)
        assert lhs == rhs

    def test_constant_one_collapses_to_plain_kernel(self):
        space, _, fam = zoo.extracted_family(65)
        dens = build_family(fam)
        one = lambda c: Fraction(1)
        g = lambda c: Fraction(2) if c.symbol("s1") == "a" else Fraction(0)
        for cfg in space.configurations():
            lhs, rhs = exchange_identity(dens, ("s2",), ("s1",), one, g, cfg)
            assert lhs == rhs == apply_kernel(dens, ("s1", "s2"), g, cfg)

    def test_two_class_family(self):
        dens = build_family(zoo.example1_family())
        space = dens.space
        f = lambda c: Fraction(1) if c.symbol("s1") == "L" else Fraction(0)
        g = lambda c: Fraction(1) if c.symbol("s4") == "L" else Fraction(0)
        for tail in ("many-high", "few-high"):
            cfg = space.make(("L", "H", "L", "H"), tail)
            lhs, rhs = exchange_identity(dens, ("s1", "s2"), ("s4",), f, g, cfg)
            assert lhs == rhs

    def test_overlap_rejected(self):
        _, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        cfg = dens.space.make(("a", "a", "a"), "default")
        one = lambda c: Fraction(1)
        with pytest.raises(DomainError):
            exchange_identity(dens, ("s1", "s2"), ("s2",), one, one, cfg)

    def test_perturbed_family_breaks_identity_somewhere(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        # Bump a block that moves the s1=a marginal but not the s3=a one;
        # a symmetric bump would cancel against the row renormalization.
        key = (("a", "b", "b"), "default")
        perturbed = renormalized_entry_bump(dens, ("s1", "s3"), key, Fraction(9, 4))
        f = lambda c: Fraction(1) if c.symbol("s1") == "a" else Fraction(0)
        g = lambda c: Fraction(1) if c.symbol("s3") == "a" else Fraction(0)
        broken = [
            cfg for cfg in space.configurations()
            if exchange_identity(perturbed, ("s1",), ("s3",), f, g, cfg)[0]
            != exchange_identity(perturbed, ("s1",), ("s3",), f, g, cfg)[1]
        ]
        assert broken


class TestUniquenessProbe:
    def test_extracted_family(self):
        _, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        report = uniqueness_probe(dens, trials=10, seed=3)
        assert report.passed
        assert report.data["surviving_alternatives"] == 0
        assert report.data["rederivation_ok"]
        # 3 two-site regions contribute 8 cfgs x 4 good blocks x 2 sites,
        # the three-site region 8 x 8 x 3; all blocks are good here.
        assert report.data["rederived_points"] == 384
        assert len(report.data["perturbations"]) == 10
        assert all(p["violates"] for p in report.data["perturbations"])

    def test_two_class_family(self):
        dens = build_family(zoo.example1_family())
        report = uniqueness_probe(dens, trials=6, seed=11)
        assert report.passed
        assert report.data["surviving_alternatives"] == 0
        assert report.data["rederivation_ok"]

    def test_potential_family(self):
        _, _, fam = zoo.potential_family(66)
        report = uniqueness_probe(build_family(fam), trials=6, seed=5)
        assert report.passed

    def test_zero_free_weight_refused(self):
        dens = build_family(zoo.lopsided_free_family())
        with pytest.raises(HypothesisFailure, match="strictly positive free weights"):
            uniqueness_probe(dens, trials=1)

    def test_single_entry_bump_violates_singleton_consistency(self):
        # The classic probe: scale one entry by 1 + 1/7, renormalize its
        # row. Some member site's kernel composed after the perturbed
        # region kernel must then disagree with the perturbed kernel.
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        region = ("s1", "s2")
        key = (("a", "a", "a"), "default")
        perturbed = renormalized_entry_bump(dens, region, key, Fraction(8, 7))
        assert perturbed.table(region) != dens.table(region)
        violated = False
        for site in region:
            for cfg in space.configurations():
                direct = kernel_row(perturbed, region, cfg)
                composed = {}
                for mid_key, w1 in direct.items():
                    mid = space.make(*mid_key)
                    for pkey, w2 in kernel_row(perturbed, (site,), mid).items():
                        composed[pkey] = composed.get(pkey, Fraction(0)) + w1 * w2
                if direct != composed:
                    violated = True
        assert violated


class TestGoodSupport:
    def test_extracted_family(self):
        _, _, fam = zoo.extracted_family(61)
        report = good_support_report(build_family(fam))
        assert report.passed
        # Strictly positive model: every configuration is in every core.
        # 2-site regions: 3 x 8 cfgs, the 3-site region: 8 -> 32 core points;
        # splits: 3 regions x 2 + 1 region x 6 -> 96 identity evaluations.
        assert report.data == {
            "core_points": 32, "identity_points": 96, "measurability_points": 72,
        }

    def test_two_class_family(self):
        report = good_support_report(build_family(zoo.example1_family()))
        assert report.passed
        # Core points: per region of size k, only the all-preferred block,
        # leaving 2^(4-k) exteriors x 2 classes: sum over k>=2 of
        # C(4,k) 2^(4-k) 2 = 48 + 16 + 2 = 66.
        assert report.data["core_points"] == 66
        assert report.data["identity_points"] == 220
        assert report.data["measurability_points"] == 896

    def test_independent_family(self):
        assert good_support_report(build_family(zoo.independent_family())).passed

    def test_perturbed_family_fails(self):
        _, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        key = (("b", "a", "b"), "default")
        perturbed = renormalized_entry_bump(dens, ("s1", "s2"), key, Fraction(3, 2))
        report = good_support_report(perturbed)
        assert not report.passed
        assert any(w.check == "good_support" for w in report.witnesses)


class TestSupportClassCertificate:
    def test_positive_model_in_class(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(dens, space.make(("a", "a", "a"), "default"))
        cert = support_class_certificate(mu, fam)
        assert cert.passed
        assert all(mass == 0 for mass in oracles.fraction_values(cert.lines).values())
        # 3 sites x (4 contexts within the 2-site complement) = 12 lines.
        assert len(cert.lines) == 12

    def test_two_class_kernel_measure_out_of_class(self):
        fam = zoo.example1_family()
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(
            dens, dens.space.make(("L", "L", "L", "L"), "many-high")
        )
        cert = support_class_certificate(mu, fam)
        assert not cert.passed
        # Smoothing site s1 by its free kernel moves half the mass onto H,
        # which is never good in the many-high class.
        assert cert.as_dict()["lines"]["s1|"] == "1/2"
        assert len(cert.lines) == 32


class TestMeasureConsistency:
    def test_kernel_measure_consistent(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(dens, space.make(("a", "a", "a"), "default"))
        report = check_measure_consistency(mu, dens)
        assert report.passed
        assert report.data["in_support_class"]
        assert report.data["singleton_consistent"]
        assert report.data["fully_consistent"]
        assert report.data["equivalence_holds"] is True

    def test_free_measure_on_independent_model(self):
        dens = build_family(zoo.independent_family())
        lam = oracles.free_measure(dens.space, "default")
        report = check_measure_consistency(lam, dens)
        assert report.passed
        assert report.data["singleton_consistent"]
        assert report.data["fully_consistent"]

    def test_perturbed_measure_fails_both_levels(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(dens, space.make(("a", "a", "a"), "default"))
        weights = oracles.fraction_values(mu.weights)
        keys = sorted(weights)
        delta = Fraction(1, 7) * weights[keys[0]]
        weights[keys[0]] -= delta
        weights[keys[1]] += delta
        report = check_measure_consistency(FiniteMeasure(space, weights), dens)
        assert report.passed
        assert report.data["in_support_class"]
        assert not report.data["singleton_consistent"]
        assert not report.data["fully_consistent"]
        assert report.data["equivalence_holds"] is True

    def test_point_mass_fails_both_levels(self):
        space, _, fam = zoo.extracted_family(67)
        dens = build_family(fam)
        cfg = space.make(("a", "b", "a"), "default")
        report = check_measure_consistency(
            FiniteMeasure(space, {cfg.index: Fraction(1)}), dens
        )
        assert report.passed
        assert report.data["in_support_class"]
        assert not report.data["singleton_consistent"]
        assert not report.data["fully_consistent"]

    def test_out_of_class_measure_is_flagged_not_judged(self):
        fam = zoo.example1_family()
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(
            dens, dens.space.make(("L", "L", "L", "L"), "many-high")
        )
        report = check_measure_consistency(mu, dens)
        assert report.passed
        assert not report.data["in_support_class"]
        # The kernel measure is consistent anyway; no equivalence is claimed.
        assert report.data["singleton_consistent"]
        assert report.data["fully_consistent"]
        assert report.data["equivalence_holds"] is None

    @pytest.mark.parametrize("failing", [
        (), (("s1", "s2"),), (("s2",),), (("s1",), ("s1", "s2", "s3")),
        (("s1",), ("s2",), ("s3",)),
    ])
    def test_one_push_per_region_matches_the_two_loop_oracle(
            self, monkeypatch, failing):
        # a stand-in push fails exactly the regions in ``failing``, so the
        # singleton verdict must be read off the single-site regions alone;
        # the measure is an unmarked copy of a kernel measure, which would
        # come marked preserved by every region whose pair of (c) passed
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        kernel = FiniteMeasure.kernel_measure(dens, space.make(("a", "a", "a"), "default"))
        mu = FiniteMeasure(space, oracles.fraction_values(kernel.weights))
        moved = oracles.free_measure(space, "default")
        assert not moved.same_as(mu)
        pushes = []

        def push_kernel(self, dens, region):
            pushes.append(tuple(region))
            return moved if tuple(region) in failing else self

        monkeypatch.setattr(FiniteMeasure, "push_kernel", push_kernel)
        report = check_measure_consistency(mu, dens)
        assert sorted(pushes) == sorted(r for r in space.universe.subsets() if r)
        assert report.as_dict() == oracles.measure_consistency(mu, dens).as_dict()
        assert report.data["singleton_consistent"] == (
            not any(len(r) == 1 for r in failing))

    def test_unnormalized_free_weights_refused(self):
        fam = zoo.unnormalized_free_family()
        dens = build_family(fam)
        space = dens.space
        uniform = {cfg.index: Fraction(1, 4) for cfg in space.configurations()}
        with pytest.raises(HypothesisFailure, match="normalized free weights"):
            check_measure_consistency(FiniteMeasure(space, uniform), dens)


class TestGoodSupportMass:
    def test_consistent_measure_all_parts(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(dens, space.make(("a", "a", "a"), "default"))
        report = check_good_support_mass(mu, dens)
        assert report.passed
        assert report.data["in_support_class"]
        assert report.data["singleton_consistent"]
        assert report.data["checked"] == {
            "smoothed_site": 12, "smoothed_region": 4,
            "plain_site": 12, "plain_region": 4,
        }

    def test_inconsistent_measure_skips_plain_parts(self):
        space, _, fam = zoo.extracted_family(61)
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(dens, space.make(("a", "a", "a"), "default"))
        weights = oracles.fraction_values(mu.weights)
        keys = sorted(weights)
        delta = Fraction(1, 7) * weights[keys[0]]
        weights[keys[0]] -= delta
        weights[keys[1]] += delta
        report = check_good_support_mass(FiniteMeasure(space, weights), dens)
        assert report.passed
        assert report.data["singleton_consistent"] is False
        assert report.data["checked"]["smoothed_site"] == 12
        assert report.data["checked"]["plain_site"] == 0

    def test_out_of_class_measure_nothing_in_scope(self):
        fam = zoo.example1_family()
        dens = build_family(fam)
        mu = FiniteMeasure.kernel_measure(
            dens, dens.space.make(("L", "L", "L", "L"), "many-high")
        )
        report = check_good_support_mass(mu, dens)
        assert report.passed
        assert not report.data["in_support_class"]
        assert report.data["singleton_consistent"] is None
        assert all(n == 0 for n in report.data["checked"].values())


def roundtrip(space, joint):
    """The round trip on the joint's extracted singleton family."""
    return roundtrip_reconstruction(extract_singletons(space, joint), joint)


class TestRoundtrip:
    def test_random_positive_joint(self):
        import random

        space = zoo.plain_space()
        joint = zoo.random_joint(space, random.Random(77))
        report = roundtrip(space, joint)
        assert report.passed
        assert report.data["points_compared"] == 56
        assert report.data["mismatches"] == 0

    def test_many_seeds(self):
        import random

        space = zoo.plain_space()
        for seed in range(100, 106):
            joint = zoo.random_joint(space, random.Random(seed))
            assert roundtrip(space, joint).passed

    def test_uniform_joint_gives_unit_densities(self):
        space = zoo.plain_space()
        joint = {
            values: Fraction(1)
            for values in space.assignments(space.universe.sites)
        }
        assert roundtrip(space, joint).passed
        dens = build_family(extract_singletons(space, joint))
        for region in dens.regions():
            if not region:
                continue
            for cfg in space.configurations():
                assert dens.density(region, cfg) == 1

    def test_product_joint_gives_product_densities(self):
        import random

        space = zoo.plain_space()
        rng = random.Random(68)
        marginals = {
            site: {sym: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for sym in space.alphabet}
            for site in space.universe.sites
        }
        joint = {}
        for values in space.assignments(space.universe.sites):
            w = Fraction(1)
            for site, sym in zip(space.universe.sites, values):
                w *= marginals[site][sym]
            joint[values] = w
        assert roundtrip(space, joint).passed
        dens = build_family(extract_singletons(space, joint))
        for region in dens.regions():
            if len(region) < 2:
                continue
            for cfg in space.configurations():
                product = Fraction(1)
                for site in region:
                    product *= dens.density((site,), cfg)
                assert dens.density(region, cfg) == product

    def test_zero_entry_rejected(self):
        space = zoo.plain_space(2)
        joint = {values: Fraction(1) for values in space.assignments(space.universe.sites)}
        family = extract_singletons(space, joint)
        joint[("a", "b")] = Fraction(0)
        with pytest.raises(DomainError, match="strictly positive joint"):
            roundtrip_reconstruction(family, joint)

    def test_missing_entry_rejected(self):
        space = zoo.plain_space(2)
        joint = {values: Fraction(1) for values in space.assignments(space.universe.sites)}
        family = extract_singletons(space, joint)
        del joint[("b", "b")]
        with pytest.raises(DomainError, match="offending assignment"):
            roundtrip_reconstruction(family, joint)

    def test_zero_free_weight_rejected_before_dividing(self):
        family = zoo.lopsided_free_family()
        joint = {values: Fraction(1)
                 for values in family.space.assignments(family.space.universe.sites)}
        with pytest.raises(DomainError, match="strictly positive free weights; zero at 's1'/'b'"):
            roundtrip_reconstruction(family, joint)

    def test_another_family_mismatches_at_the_single_sites(self):
        import random

        space = zoo.plain_space()
        joint = zoo.random_joint(space, random.Random(77))
        other = extract_singletons(space, zoo.random_joint(space, random.Random(78)))
        report = roundtrip_reconstruction(other, joint)
        assert not report.passed
        assert report.data["mismatches"] > 0
        assert len(report.witnesses[0].replay["region"]) == 1

    def test_four_site_joint(self):
        import random

        space = zoo.plain_space(4)
        joint = zoo.random_joint(space, random.Random(69))
        report = roundtrip(space, joint)
        assert report.passed
        assert report.data["points_compared"] == 240


class TestQuasilocality:
    def test_chain_potential_is_local_beyond_range(self):
        # Nearest-neighbour interactions on a 4-site chain: any region whose
        # farthest exterior site sits at distance 2 or more cannot feel it.
        _, _, fam = zoo.potential_family(9, n_sites=4)
        report = quasilocality_diagnostic(build_family(fam))
        assert report.passed
        regions = report.data["regions"]
        assert regions["s1"] == {
            "far_sites": ["s4"], "far_distance": 3,
            "far_variation": "0", "tail_variation": "0",
        }
        assert regions["s1+s2"]["far_variation"] == "0"
        for entry in regions.values():
            if entry["far_distance"] >= 2:
                assert entry["far_variation"] == "0"
            assert entry["tail_variation"] == "0"

    def test_adjacent_exterior_still_felt(self):
        _, _, fam = zoo.potential_family(9, n_sites=4)
        report = quasilocality_diagnostic(build_family(fam))
        entry = report.data["regions"]["s2+s3"]
        assert entry["far_sites"] == ["s1", "s4"]
        assert entry["far_distance"] == 1
        assert entry["far_variation"] == "14232/19327"

    def test_two_class_family_flips_with_tail(self):
        report = quasilocality_diagnostic(build_family(zoo.example1_family()))
        assert report.passed
        for name, entry in report.data["regions"].items():
            size = name.count("+") + 1
            assert entry["far_variation"] == "0"
            assert entry["tail_variation"] == str(2 ** size)

    def test_independent_family_fully_local(self):
        report = quasilocality_diagnostic(build_family(zoo.independent_family()))
        for entry in report.data["regions"].values():
            assert entry["far_variation"] == "0"
            assert entry["tail_variation"] == "0"


class TestRatioBounds:
    def test_positive_potential_bounds(self):
        _, _, fam = zoo.potential_family(9, n_sites=4)
        report = ratio_bounds(build_family(fam))
        assert report.passed
        bounds = report.data["bounds"]
        assert bounds["s1+s2"] == {"lower": "392/835", "upper": "1278/835"}
        for name, entry in bounds.items():
            if "+" not in name:
                assert entry == {"lower": "1", "upper": "1"}
            assert Fraction(entry["lower"]) > 0

    def test_extracted_family_positive_bounds(self):
        _, _, fam = zoo.extracted_family(61)
        report = ratio_bounds(build_family(fam))
        assert report.passed
        for entry in report.data["bounds"].values():
            assert Fraction(entry["lower"]) > 0
            assert Fraction(entry["upper"]) >= Fraction(entry["lower"])

    def test_two_class_family_has_no_two_sided_bounds(self):
        report = ratio_bounds(build_family(zoo.example1_family()))
        assert not report.passed
        assert any("vanishes" in w.description for w in report.witnesses)
