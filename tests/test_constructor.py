"""Tests for the recursive density construction.

The conditional-density oracle used against extracted families is
computed here by brute-force enumeration of the joint weight, entirely
independent of the construction code.  Closed-form expectations for the
two-symbol tail-class model are frozen literals.
"""

import itertools
from fractions import Fraction

import pytest

from specforge.constructor import (
    ConstructionError,
    DensityFamily,
    assemble_kernel,
    build_family,
    check_order_independence,
    extension_divisor,
)
from specforge.core import DomainError, Space
from specforge import hypotheses

from zoo import (
    HIGH,
    LOW,
    MANY_HIGH,
    FEW_HIGH,
    alternating_exclusion_family,
    broken_pair_family,
    example1_family,
    extracted_family,
    independent_family,
    potential_family,
    ring_potential_family,
)
from oracles import (
    check_divisor_factorization,
    extended,
    ExtendedRational,
    free_kernel,
    good_blocks,
    overlay,
    pair_divisor,
    product_weight,
)


def oracle_density(space: Space, joint: dict, region: tuple, cfg) -> Fraction:
    """Conditional density of a joint weight, by direct enumeration.

    weight(cfg) over the region-section sum, divided by the free weight
    of the region's own symbols.
    """
    num = joint[cfg.values]
    section = Fraction(0)
    for fill in space.assignments(region):
        section += joint[overlay(space, cfg, region, fill).values]
    free = product_weight(space, region, tuple(cfg.symbol(s) for s in region))
    return num / (section * free)


def regional_integral(dens: DensityFamily, over, num_region, den_region, cfg) -> Fraction:
    """Free integral of a density ratio over a region; positive case only."""
    space = dens.space
    total = Fraction(0)
    for fill in space.assignments(over):
        point = overlay(space, cfg, over, fill)
        total += (product_weight(space, over, fill)
                  * dens.density(num_region, point)
                  / dens.density(den_region, point))
    return total


def ex1_expected(region, cfg) -> Fraction:
    """Frozen closed form for the two-symbol tail-class model."""
    preferred = LOW if cfg.tail == MANY_HIGH else HIGH
    if all(cfg.symbol(s) == preferred for s in region):
        return Fraction(2) ** len(region)
    return Fraction(0)


class TestDensityFamily:
    def test_seeds_empty_and_singletons(self):
        family = example1_family()
        dens = DensityFamily(family)
        space = family.space
        assert dens.regions() == [(), ("s1",), ("s2",), ("s3",), ("s4",)]
        for cfg in space.configurations():
            assert dens.density((), cfg) == 1
            for site in space.universe:
                assert dens.density((site,), cfg) == family.density(site, cfg)

    def test_unbuilt_region_rejected(self):
        dens = DensityFamily(independent_family())
        cfg = next(dens.space.configurations())
        with pytest.raises(DomainError):
            dens.density(("s1", "s2"), cfg)
        with pytest.raises(ConstructionError):
            extension_divisor(dens, ("s1", "s2"), ("s3",), cfg)

    def test_replace_table_is_isolated(self):
        dens = build_family(independent_family())
        region = ("s1", "s2")
        table = list(dens.table(region))
        table[0] += Fraction(1, 7)
        sibling = dens.replace_table(region, table)
        assert sibling.table(region)[0] == Fraction(8, 7)
        assert dens.table(region)[0] == Fraction(1)
        with pytest.raises(DomainError, match="holds 7 values"):
            dens.replace_table(region, table[1:])

    @pytest.mark.parametrize("inexact", [1.0, True])
    def test_replace_table_takes_exact_values_only(self, inexact):
        dens = build_family(independent_family())
        table = list(dens.table(("s1", "s2")))
        table[3] = inexact
        with pytest.raises(DomainError, match=r"region \('s1', 's2'\), "
                           rf"Configuration\(abb, tail=default\): {inexact!r}"):
            dens.replace_table(("s1", "s2"), table)

    def test_replace_table_takes_nonnegative_values_only(self):
        """Densities are nonnegative, which the ratio integral's result
        wrapper presumes; a negative value is refused where it sits."""
        dens = build_family(independent_family())
        table = list(dens.table(("s1", "s2")))
        table[3] = Fraction(-1, 2)
        with pytest.raises(DomainError, match=r"negative density at region \('s1', 's2'\), "
                           r"Configuration\(abb, tail=default\)$"):
            dens.replace_table(("s1", "s2"), table)


class TestExtensionDivisor:
    def test_single_site_base_case_matches_pair_divisor(self):
        space, _, family = extracted_family(41)
        dens = build_family(family)
        for cfg in space.configurations():
            assert extended(extension_divisor(dens, ("s1",), ("s2",), cfg)) == pair_divisor(
                family, "s1", "s2", cfg
            )

    def test_independent_model_divisor_is_one(self):
        dens = build_family(independent_family())
        cfg = next(dens.space.configurations())
        assert extension_divisor(dens, ("s1",), ("s2", "s3"), cfg) == (1, 1)
        assert extension_divisor(dens, ("s1", "s3"), ("s2",), cfg) == (1, 1)

    def test_example1_closed_form(self):
        dens = build_family(example1_family())
        space = dens.space
        all_low = space.make((LOW, LOW, LOW, LOW), MANY_HIGH)
        one_high = space.make((LOW, LOW, LOW, HIGH), MANY_HIGH)
        theta, gamma = ("s1", "s2"), ("s3", "s4")
        assert extension_divisor(dens, theta, gamma, all_low) == (1, 4)
        assert extension_divisor(dens, theta, gamma, one_high) == (1, 0)
        assert extension_divisor(dens, ("s1",), ("s2", "s3", "s4"), all_low) == (1, 8)

    def test_overlapping_blocks_rejected(self):
        dens = build_family(independent_family())
        cfg = next(dens.space.configurations())
        with pytest.raises(DomainError):
            extension_divisor(dens, ("s1", "s2"), ("s2",), cfg)
        with pytest.raises(DomainError):
            extension_divisor(dens, ("s1",), (), cfg)


class TestBuildFamily:
    def test_one_site_universe(self):
        family = independent_family(1)
        dens = build_family(family)
        assert dens.regions() == [(), ("s1",)]

    def test_example1_all_subsets_closed_form(self):
        dens = build_family(example1_family())
        space = dens.space
        for region in space.universe.subsets():
            for cfg in space.configurations():
                assert dens.density(region, cfg) == ex1_expected(region, cfg)

    def test_extracted_family_matches_conditional_oracle(self):
        for seed in (43, 44):
            space, joint, family = extracted_family(seed)
            dens = build_family(family)
            for region in space.universe.subsets():
                if not region:
                    continue
                for cfg in space.configurations():
                    assert dens.density(region, cfg) == oracle_density(
                        space, joint, region, cfg
                    )

    def test_unit_mass_for_every_region(self):
        builders = (
            example1_family(),
            extracted_family(45)[2],
            potential_family(46)[2],
        )
        for family in builders:
            dens = build_family(family)
            space = family.space
            for region in space.universe.subsets():
                for cfg in space.configurations():
                    value = free_kernel(
                        space, region, lambda c: dens.density(region, c), cfg
                    )
                    assert value == ExtendedRational(Fraction(1))

    def test_rewrite_identity_at_good_blocks(self):
        # at a good block x for theta, the union density at (x over w)
        # equals density(gamma) over the ratio integral of gamma vs theta
        space, _, family = extracted_family(47)
        dens = build_family(family)
        regions = [r for r in space.universe.subsets() if len(r) >= 2]
        for region in regions:
            for r in range(1, len(region)):
                for theta in itertools.combinations(region, r):
                    theta = space.universe.region(theta)
                    gamma = space.universe.region(set(region) - set(theta))
                    for cfg in space.configurations():
                        for block in good_blocks(family, theta, gamma, cfg):
                            shifted = overlay(space, cfg, theta, block)
                            expected = dens.density(gamma, shifted) / regional_integral(
                                dens, gamma, gamma, theta, shifted
                            )
                            assert dens.density(region, shifted) == expected

    def test_another_sweep_builds_the_default_tables(self):
        family = example1_family()
        swept = build_family(family, sweep=("s3", "s1", "s4", "s2"))
        default = build_family(family)
        assert swept is not default
        assert swept.regions() == default.regions()
        for region in default.regions():
            assert swept.table(region) == default.table(region)

    def test_bad_sweep_rejected(self):
        family = independent_family()
        with pytest.raises(DomainError):
            build_family(family, sweep=("s1", "s2"))
        with pytest.raises(DomainError):
            build_family(family, sweep=("s1", "s2", "s2"))

    def test_hypothesis_failures_become_construction_errors(self):
        with pytest.raises(ConstructionError):
            build_family(alternating_exclusion_family())
        with pytest.raises(ConstructionError):
            build_family(broken_pair_family())

    def test_inline_agreement_catches_broken_family_even_unchecked(self):
        # with checks skipped, the divisor's all-good-blocks comparison
        # still refuses to build an inconsistent family
        with pytest.raises(ConstructionError) as err:
            build_family(broken_pair_family(), checked=False)
        assert "disagrees" in str(err.value)


class TestCheckedBuildRunsPositivityOnce:
    @staticmethod
    def count_positivity(monkeypatch) -> list:
        calls = []
        original = hypotheses.check_very_weak_positivity

        def counted(family, *args, **kwargs):
            calls.append(family)
            return original(family, *args, **kwargs)

        monkeypatch.setattr(hypotheses, "check_very_weak_positivity", counted)
        return calls

    def test_passing_build(self, monkeypatch):
        calls = self.count_positivity(monkeypatch)
        build_family(example1_family())
        assert len(calls) == 1

    def test_order_consistency_failure(self, monkeypatch):
        calls = self.count_positivity(monkeypatch)
        with pytest.raises(ConstructionError) as err:
            build_family(broken_pair_family())
        assert "order consistency fails" in str(err.value)
        assert len(calls) == 1

    def test_positivity_failure_keeps_message_and_first_witness(self, monkeypatch):
        family = alternating_exclusion_family()
        h1 = hypotheses.check_very_weak_positivity(family)
        assert not h1.passed
        calls = self.count_positivity(monkeypatch)
        with pytest.raises(ConstructionError) as err:
            build_family(family)
        assert len(calls) == 1
        assert str(err.value) == (
            "cannot build: very weak positivity fails "
            f"({h1.data['violations']} index points)"
        )
        assert err.value.witness == h1.witnesses[0]

    def test_unchecked_build_skips_positivity(self, monkeypatch):
        calls = self.count_positivity(monkeypatch)
        build_family(example1_family(), checked=False)
        assert calls == []


class TestAssembleKernel:
    def test_empty_region_is_point_mass(self):
        dens = build_family(independent_family())
        cfg = next(dens.space.configurations())
        row = assemble_kernel(dens, (), cfg)
        assert row == {cfg.index: Fraction(1)}

    def test_independent_model_gives_product_weights(self):
        dens = build_family(independent_family())
        cfg = next(dens.space.configurations())
        row = assemble_kernel(dens, ("s1", "s2"), cfg)
        assert set(row.values()) == {Fraction(1, 4)}
        assert sum(row.values()) == 1

    def test_example1_concentrates_on_preferred_block(self):
        dens = build_family(example1_family())
        space = dens.space
        region = ("s1", "s2")
        cfg = space.make((HIGH, HIGH, LOW, HIGH), MANY_HIGH)
        row = assemble_kernel(dens, region, cfg)
        assert row[overlay(space, cfg, region, (LOW, LOW)).index] == 1
        assert sum(row.values()) == 1
        fh = space.make((HIGH, HIGH, LOW, HIGH), FEW_HIGH)
        assert assemble_kernel(dens, region, fh)[
            overlay(space, fh, region, (HIGH, HIGH)).index] == 1

    def test_extracted_kernel_matches_conditional_probabilities(self):
        space, joint, family = extracted_family(48)
        dens = build_family(family)
        region = ("s1", "s3")
        for cfg in space.configurations():
            row = assemble_kernel(dens, region, cfg)
            section = sum(
                joint[overlay(space, cfg, region, fill).values]
                for fill in space.assignments(region)
            )
            for block in space.assignments(region):
                point = overlay(space, cfg, region, block)
                expected = joint[point.values] / section
                assert row.get(point.index, Fraction(0)) == expected

    def test_depends_only_on_exterior(self):
        dens = build_family(extracted_family(49)[2])
        space = dens.space
        a = space.make(("a", "b", "a"), "default")
        b = space.make(("b", "a", "a"), "default")
        region = ("s1", "s2")
        assert assemble_kernel(dens, region, a) == assemble_kernel(
            dens, region, b
        )

    def test_row_integrates_indicators(self):
        dens = build_family(extracted_family(50)[2])
        space = dens.space
        cfg = next(space.configurations())
        row = assemble_kernel(dens, ("s1", "s2"), cfg)
        probe = overlay(space, cfg, ("s1", "s2"), ("b", "a"))
        h = lambda c: Fraction(1) if c == probe else Fraction(0)
        integral = sum(w * h(space.at(index)) for index, w in row.items())
        assert integral == row[probe.index]


class TestOrderIndependence:
    def test_example1_all_orders_agree(self):
        report = check_order_independence(example1_family())
        assert report.passed
        assert report.data["permutations_tested"] == 24
        assert report.data["permutations_sampled"] is False
        assert report.data["permutation_mismatches"] == 0
        assert report.data["block_splits_tested"] > 0
        assert report.data["block_split_failures"] == 0

    def test_extracted_families_agree(self):
        for seed in (51, 52):
            _, _, family = extracted_family(seed)
            report = check_order_independence(family)
            assert report.passed
            assert report.data["permutations_tested"] == 6

    def test_sampling_kicks_in_over_the_cap(self):
        _, _, family = extracted_family(53)
        report = check_order_independence(family, permutation_cap=2)
        assert report.passed
        assert report.data["permutations_tested"] == 2
        assert report.data["permutations_sampled"] is True

    def test_broken_family_raises(self):
        with pytest.raises(ConstructionError):
            check_order_independence(broken_pair_family())


class TestDivisorFactorization:
    def test_consistent_families_factorize(self):
        for family in (
            example1_family(3),
            extracted_family(54)[2],
            independent_family(),
        ):
            dens = build_family(family)
            report = check_divisor_factorization(dens)
            assert report.passed
            assert report.data["evaluations"] > 0
            assert report.data["violations"] == 0


class TestTranslationInvariance:
    def test_ring_potential_densities_shift_covariantly(self):
        space, _, family = ring_potential_family(55, n_sites=4)
        dens = build_family(family)
        sites = space.universe.sites
        succ = {s: sites[(k + 1) % len(sites)] for k, s in enumerate(sites)}
        for region in space.universe.subsets():
            shifted_region = space.universe.region(succ[s] for s in region)
            for cfg in space.configurations():
                rotated = space.make(
                    (cfg.values[-1],) + cfg.values[:-1], cfg.tail
                )
                assert dens.density(shifted_region, rotated) == dens.density(
                    region, cfg
                )
