"""Fast hypothesis paths against their naive oracles.

``good_symbols`` reads one good-point table per (site, context), built
from zero patterns, and ``check_pointwise_compatibility`` evaluates the eight-factor
identity once per pair and exterior.  The oracles below are the direct
definitions: fresh ratio integrals for every (site, context, exterior),
and the identity recomputed at every configuration.  Results must agree
exactly, witness order and capping included.
"""

import pytest

from specforge.hypotheses import (
    HypothesisReport,
    Witness,
    _replay_point,
    check_pointwise_compatibility,
    good_symbols,
)

from oracles import overlay, site_ratio_kernel, with_sites

from zoo import (
    alternating_exclusion_family,
    anchored_table_family,
    broken_pair_family,
    example1_family,
    forced_exclusion_family,
    lopsided_free_family,
    one_sided_hardcore_family,
    potential_family,
    random_zero_table_family,
)


def naive_good_symbols(family, site, context, cfg) -> tuple[str, ...]:
    """Symbols keeping every density and cross-site ratio integral in (0, inf)."""
    space = family.space
    ctx = space.universe.region(context)
    others = [i for i in space.universe.sites if i != site]
    ctx_fills = list(space.assignments(ctx))
    members = []
    for candidate in space.alphabet:
        base = with_sites(cfg, {site: candidate})
        sections = [overlay(space, base, ctx, fill) for fill in ctx_fills]
        if any(family.density(site, s) == 0 for s in sections):
            continue
        keeps = True
        for i in others:
            for s in sections:
                value = site_ratio_kernel(family, i, i, site, s)
                if value is None or value.is_infinite or value == 0:
                    keeps = False
                    break
            if not keeps:
                break
        if keeps:
            members.append(candidate)
    return tuple(members)


def naive_pointwise_compatibility(family, witness_cap: int = 25) -> HypothesisReport:
    """The eight-factor identity recomputed at every configuration."""
    space = family.space
    sites = space.universe.sites
    alphabet = list(space.alphabet)
    report = HypothesisReport(name="pointwise_compatibility", passed=True)
    checked = 0
    violations = 0
    for cfg in space.configurations():
        for a_pos, i in enumerate(sites):
            for j in sites[a_pos + 1:]:
                gi = naive_good_symbols(family, i, (j,), cfg)
                gj = naive_good_symbols(family, j, (i,), cfg)
                for u_i in alphabet:
                    for u_j in alphabet:
                        for x_i in gi:
                            for x_j in gj:
                                checked += 1
                                c_xj_ui = with_sites(cfg, {j: x_j, i: u_i})
                                c_uj_ui = with_sites(cfg, {j: u_j, i: u_i})
                                c_xi_uj = with_sites(cfg, {i: x_i, j: u_j})
                                c_xi_xj = with_sites(cfg, {i: x_i, j: x_j})
                                lhs = (family.density(i, c_xj_ui)
                                       * family.density(j, c_uj_ui)
                                       * family.density(i, c_xi_uj)
                                       * family.density(j, c_xi_xj))
                                rhs = (family.density(j, c_xi_uj)
                                       * family.density(i, c_uj_ui)
                                       * family.density(j, c_xj_ui)
                                       * family.density(i, c_xi_xj))
                                if lhs != rhs:
                                    violations += 1
                                    report.passed = False
                                    if len(report.witnesses) < witness_cap:
                                        report.witnesses.append(Witness(
                                            check="pointwise_compatibility",
                                            description=(
                                                f"eight-factor identity fails "
                                                f"on pair ({i!r}, {j!r})"
                                            ),
                                            replay=_replay_point(
                                                cfg,
                                                site_first=str(i),
                                                site_second=str(j),
                                                free_first=u_i,
                                                free_second=u_j,
                                                good_first=x_i,
                                                good_second=x_j,
                                            ),
                                            lhs=str(lhs), rhs=str(rhs),
                                        ))
    report.data = {"comparisons": checked, "violations": violations}
    return report


def good_set_mismatches(family) -> list:
    """Disagreements over every site, context and exterior."""
    space = family.space
    mismatches = []
    for site in space.universe.sites:
        for ctx in space.universe.subsets(space.universe.complement((site,))):
            for cfg in space.configurations():
                fast = good_symbols(family, site, ctx, cfg)
                slow = naive_good_symbols(family, site, ctx, cfg)
                if fast != slow:
                    mismatches.append((site, ctx, cfg, fast, slow))
    return mismatches


ZOO = {
    "example1": lambda: example1_family(3),
    "forced_exclusion": forced_exclusion_family,
    "alternating_exclusion": alternating_exclusion_family,
    "lopsided_free": lopsided_free_family,
    "broken_pair": broken_pair_family,
    "anchored_table": lambda: anchored_table_family(5)[1],
    "one_sided_hardcore": lambda: one_sided_hardcore_family(3),
    "potential": lambda: potential_family(3)[2],
}


class TestGoodSetOracle:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_good_sets_match_the_ratio_integrals(self, name):
        assert good_set_mismatches(ZOO[name]()) == []

    def test_random_zero_pattern_families_match(self):
        # the draws must reach empty and partial good sets, or the
        # comparison proves little about the zero-density regime
        some_empty = some_partial = False
        for seed in range(40):
            family = random_zero_table_family(seed)
            assert good_set_mismatches(family) == []
            space = family.space
            for site in space.universe.sites:
                for cfg in space.configurations():
                    size = len(good_symbols(family, site, (), cfg))
                    some_empty |= size == 0
                    some_partial |= 0 < size < len(space.alphabet)
        assert some_empty and some_partial


class TestPointwiseOracle:
    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("cap", [1, 3, 25])
    def test_reports_are_identical(self, name, cap):
        family = ZOO[name]()
        fast = check_pointwise_compatibility(family, witness_cap=cap)
        slow = naive_pointwise_compatibility(family, witness_cap=cap)
        assert fast.as_dict() == slow.as_dict()

    def test_failing_models_cut_their_witness_lists(self):
        for name in ("broken_pair", "one_sided_hardcore", "anchored_table"):
            report = check_pointwise_compatibility(ZOO[name](), witness_cap=3)
            assert not report.passed
            assert report.data["violations"] > 3
            assert len(report.witnesses) == 3
