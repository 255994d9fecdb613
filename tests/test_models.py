"""Model layer: carriers, unit normalization, extraction, rebalancing."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from specforge.core import Alphabet, DomainError, FreeMeasure, Space, Universe
from specforge.models import (
    NormalizationError,
    PotentialModel,
    SingletonFamily,
    TableModel,
    TailRuleModel,
    extract_singletons,
    normalize,
    rebalance_free,
)
from specforge.verifier import roundtrip_reconstruction
import oracles
from zoo import (
    FEW_HIGH,
    HIGH,
    LOW,
    MANY_HIGH,
    broken_pair_family,
    example1_family,
    example1_space,
    extracted_family,
    independent_family,
    plain_space,
    potential_family,
)


def unit_mass_everywhere(family: SingletonFamily) -> bool:
    space = family.space
    for site in space.universe:
        for cfg in space.configurations():
            total = sum(oracles.kernel_weights(family, site, cfg).values(), Fraction(0))
            if total != 1:
                return False
    return True


class TestEvaluate:
    def test_independent_model_is_one(self):
        family = independent_family()
        for cfg in family.space.configurations():
            for site in family.space.universe:
                assert family.density(site, cfg) == 1

    def test_tail_class_model_preferred_symbol_value(self):
        family = example1_family()
        space = family.space
        all_low = space.make((LOW,) * 4, MANY_HIGH)
        for site in space.universe:
            assert family.density(site, all_low) == 2
            assert family.density(site, all_low.with_sites({site: HIGH})) == 0

    def test_density_reads_only_assignment_and_tail(self):
        family = example1_family()
        space = family.space
        for cfg in space.configurations():
            clone = space.make(tuple(cfg.values), cfg.tail)
            for site in space.universe:
                assert family.density(site, cfg) == family.density(site, clone)

    def test_unknown_site_rejected(self):
        family = independent_family()
        cfg = next(family.space.configurations())
        with pytest.raises(DomainError):
            family.density("nowhere", cfg)


class TestNormalize:
    def test_constants_normalize_to_one(self):
        space = plain_space(2)
        entries = {
            site: {
                (sym, ctx, tail): Fraction(7, 3)
                for sym in space.alphabet
                for ctx in space.assignments([s for s in space.universe if s != site])
                for tail in space.tail_classes
            }
            for site in space.universe
        }
        family = normalize(space, TableModel(entries))
        for cfg in space.configurations():
            for site in space.universe:
                assert family.density(site, cfg) == 1

    def test_potential_unit_mass_on_all_configurations(self):
        space, model, family = potential_family(seed=7, n_sites=3)
        # Oracle: direct sum over own symbol, independent of free_kernel.
        for site in space.universe:
            for cfg in space.configurations():
                total = Fraction(0)
                for sym in space.alphabet:
                    total += space.free.weight(site, sym) * family.density(
                        site, cfg.with_sites({site: sym})
                    )
                assert total == 1
        assert unit_mass_everywhere(family)

    def test_zero_row_raises_named_normalization_error(self):
        space = plain_space(2)
        u, v = space.universe.sites
        entries = {
            u: {
                (sym, ctx, "default"): Fraction(0) if ctx == ("a",) else Fraction(1)
                for sym in space.alphabet
                for ctx in space.assignments((v,))
            },
            v: {
                (sym, ctx, "default"): Fraction(1)
                for sym in space.alphabet
                for ctx in space.assignments((u,))
            },
        }
        with pytest.raises(NormalizationError) as err:
            normalize(space, TableModel(entries))
        assert repr(u) in str(err.value)

    def test_negative_raw_weight_of_a_later_class_member_is_located(self):
        # the -1 sits at (b, a), the second member of the class of the
        # first configuration (a, a) off s1, read while summing its mass
        space = plain_space(2)
        u, v = space.universe.sites
        entries = {site: {(sym, ctx, "default"): Fraction(1)
                          for sym in space.alphabet for ctx in space.assignments((other,))}
                   for site, other in ((u, v), (v, u))}
        entries[u][("b", ("a",), "default")] = -1
        with pytest.raises(DomainError, match=r"^negative raw weight at site 's1', "
                           r"Configuration\(ba, tail=default\)$"):
            normalize(space, TableModel(entries))

    def test_potential_missing_symbol_pair_is_located(self):
        space = plain_space(2)
        model = PotentialModel({site: {"a": 1, "b": 1} for site in space.universe},
                               {("s1", "s2"): {("a", "a"): 2}})
        cfg = space.make(("b", "a"), "default")
        for run in (lambda: model.raw_value(space, "s2", cfg),
                    lambda: normalize(space, model)):
            with pytest.raises(DomainError, match=r"^potential pair \('s1', 's2'\) misses "
                               r"symbol pair \('b', 'a'\)$"):
                run()

    def test_tail_rule_model_normalizes_per_class(self):
        family = example1_family()
        assert unit_mass_everywhere(family)

    @pytest.mark.parametrize("build", [
        lambda: (example1_space(3), TailRuleModel(
            {(tail, site): {LOW: Fraction(1), HIGH: Fraction(tail == FEW_HIGH)}
             for tail in (MANY_HIGH, FEW_HIGH) for site in example1_space(3).universe})),
        lambda: potential_family(2, n_sites=4, symbols=("a", "b", "c"))[:2],
    ], ids=["tail_rule_3", "potential_4_q3"])
    def test_reads_each_raw_weight_once(self, build):
        space, model = build()
        calls: Counter = Counter()
        honest = model.raw_value

        class Counted:
            def raw_value(self, space, site, cfg):
                calls[site, cfg.key] += 1
                return honest(space, site, cfg)

        family = normalize(space, Counted())
        n, q, tails = len(space.universe), len(space.alphabet), len(space.tail_classes)
        assert set(calls.values()) == {1}
        assert sum(calls.values()) == n * tails * q ** n
        assert family._tables == oracles.normalize(space, model)._tables

    def test_errors_match_the_two_read_oracle(self):
        """Random tables with missing, zero and (on odd seeds) negative
        entries normalize to the same tables, or raise the same error
        naming the same configuration, as the oracle."""
        space = plain_space(3)
        kinds: Counter = Counter()
        for seed in range(400):
            rng = random.Random(seed)
            pool = (0, 0, 1, 1, 2, Fraction(1, 2)) + (-1,) * (seed % 2)
            entries = {}
            for site in space.universe:
                others = [s for s in space.universe if s != site]
                entries[site] = {(sym, ctx, "default"): rng.choice(pool)
                                 for sym in space.alphabet
                                 for ctx in space.assignments(others)
                                 if rng.random() > 0.01}
            outcomes = []
            for run in (normalize, oracles.normalize):
                try:
                    outcomes.append(run(space, TableModel(entries))._tables)
                except (DomainError, NormalizationError) as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], seed
            kinds[next((word for word in ("negative", "misses", "raw mass")
                        if word in outcomes[0]), "ok")] += 1
        assert min(kinds[kind] for kind in ("ok", "negative", "misses", "raw mass")) > 0


class TestExtraction:
    def test_uniform_joint_gives_unit_density(self):
        space = plain_space(3)
        joint = {values: Fraction(1, 8) for values in space.assignments(space.universe.sites)}
        family = extract_singletons(space, joint)
        for cfg in space.configurations():
            for site in space.universe:
                assert family.density(site, cfg) == 1

    def test_product_joint_gives_context_free_densities(self):
        space = plain_space(2)
        u, v = space.universe.sites
        pu = {"a": Fraction(1, 4), "b": Fraction(3, 4)}
        pv = {"a": Fraction(2, 5), "b": Fraction(3, 5)}
        joint = {
            (x, y): pu[x] * pv[y] for x in space.alphabet for y in space.alphabet
        }
        family = extract_singletons(space, joint)
        for cfg in space.configurations():
            # Conditional of a product joint is the marginal; free weight is 1/2.
            assert family.density(u, cfg) == pu[cfg.symbol(u)] / Fraction(1, 2)
            assert family.density(v, cfg) == pv[cfg.symbol(v)] / Fraction(1, 2)

    def test_two_site_joint_matches_hand_computed_conditionals(self):
        space = plain_space(2)
        u, v = space.universe.sites
        joint = {
            ("a", "a"): Fraction(1),
            ("a", "b"): Fraction(2),
            ("b", "a"): Fraction(3),
            ("b", "b"): Fraction(5),
        }
        family = extract_singletons(space, joint)
        expected_u = {
            ("a", "a"): Fraction(1, 2),
            ("b", "a"): Fraction(3, 2),
            ("a", "b"): Fraction(4, 7),
            ("b", "b"): Fraction(10, 7),
        }
        expected_v = {
            ("a", "a"): Fraction(2, 3),
            ("a", "b"): Fraction(4, 3),
            ("b", "a"): Fraction(3, 4),
            ("b", "b"): Fraction(5, 4),
        }
        for values in space.assignments(space.universe.sites):
            cfg = space.make(values, "default")
            assert family.density(u, cfg) == expected_u[values]
            assert family.density(v, cfg) == expected_v[values]
        assert unit_mass_everywhere(family)

    def test_random_joint_matches_brute_force_oracle(self):
        space, joint, family = extracted_family(seed=123, n_sites=3)
        for site in space.universe:
            idx = space.universe.index(site)
            for cfg in space.configurations():
                values = cfg.values
                section = sum(
                    (joint[values[:idx] + (b,) + values[idx + 1 :]] for b in space.alphabet),
                    Fraction(0),
                )
                oracle = joint[values] / (space.free.weight(site, values[idx]) * section)
                assert family.density(site, cfg) == oracle

    def test_non_positive_joint_rejected(self):
        space = plain_space(2)
        joint = {values: Fraction(1, 4) for values in space.assignments(space.universe.sites)}
        joint[("a", "a")] = Fraction(0)
        with pytest.raises(DomainError):
            extract_singletons(space, joint)

    def test_zero_free_weight_rejected(self):
        alphabet = Alphabet(("a", "b"))
        universe = Universe(("u", "v"))
        free = FreeMeasure(
            alphabet,
            {
                "u": {"a": Fraction(1), "b": Fraction(0)},
                "v": {"a": Fraction(1, 2), "b": Fraction(1, 2)},
            },
        )
        space = Space(alphabet, universe, free)
        joint = {values: Fraction(1, 4) for values in space.assignments(universe.sites)}
        with pytest.raises(DomainError):
            extract_singletons(space, joint)


class TestFamilyInvariants:
    def test_unit_mass_for_every_builder(self):
        for family in (
            independent_family(),
            example1_family(),
            broken_pair_family(),
            potential_family(seed=3)[2],
            extracted_family(seed=5)[2],
        ):
            assert unit_mass_everywhere(family)

    def test_negative_density_rejected(self):
        space = plain_space(1)
        tables = {
            space.universe.sites[0]: {
                cfg.key: Fraction(-1) for cfg in space.configurations()
            }
        }
        with pytest.raises(DomainError):
            SingletonFamily(space, tables)

    @pytest.mark.parametrize("inexact", [0.5, True])
    def test_inexact_density_rejected(self, inexact):
        space = plain_space(1)
        table = {cfg.key: Fraction(1) for cfg in space.configurations()}
        table[(("b",), "default")] = inexact
        with pytest.raises(DomainError, match=r"site 's1', Configuration\(b, "
                           rf"tail=default\): {inexact!r}"):
            SingletonFamily(space, {"s1": table})

    def test_table_for_a_site_outside_the_universe_rejected(self):
        family = independent_family(2)
        space = family.space
        tables = {site: {cfg.key: family.density(site, cfg) for cfg in space.configurations()}
                  for site in space.universe.sites}
        tables["s9"] = {}
        with pytest.raises(DomainError, match=r"density tables name sites outside the "
                                              r"universe \['s9'\]"):
            SingletonFamily(space, tables)

    @pytest.mark.parametrize("key", [(("z", "z"), "default"), (("a", "a"), "t9"),
                                     (("a",), "default"), "aa"])
    def test_entry_at_no_configuration_rejected(self, key):
        family = independent_family(2)
        space = family.space
        tables = {site: {cfg.key: family.density(site, cfg) for cfg in space.configurations()}
                  for site in space.universe.sites}
        tables["s2"][key] = Fraction(5)
        with pytest.raises(DomainError) as raised:
            SingletonFamily(space, tables)
        assert str(raised.value) == (f"density table for site 's2' names {key!r}, "
                                     "which is no configuration of the space")
        del tables["s2"][key]
        assert SingletonFamily(space, tables)._tables == family._tables

    def test_unnormalized_tables_rejected(self):
        space = plain_space(1)
        tables = {
            space.universe.sites[0]: {cfg.key: Fraction(2) for cfg in space.configurations()}
        }
        with pytest.raises(NormalizationError):
            SingletonFamily(space, tables)

    def test_broken_pair_values_are_as_designed(self):
        family = broken_pair_family()
        space = family.space
        u, v = space.universe.sites
        cfg = space.make(("0", "0"), "default")
        assert family.density(u, cfg) == 1
        assert family.density(v, cfg) == Fraction(2, 3)
        assert family.density(v, cfg.with_sites({v: "1"})) == Fraction(4, 3)
        assert family.density(v, cfg.with_sites({u: "1"})) == Fraction(4, 3)


class TestRebalance:
    def unnormalized_family(self):
        alphabet = Alphabet(("a", "b"))
        universe = Universe(("u", "v"))
        free = FreeMeasure(
            alphabet,
            {
                "u": {"a": Fraction(1), "b": Fraction(3)},
                "v": {"a": Fraction(2), "b": Fraction(2)},
            },
        )
        space = Space(alphabet, universe, free)
        entries = {
            site: {
                (sym, ctx, "default"): Fraction(1 if sym == "a" else 2)
                for sym in alphabet
                for ctx in space.assignments([s for s in universe if s != site])
            }
            for site in universe
        }
        return normalize(space, TableModel(entries))

    def test_default_rebalance_normalizes_free_measure(self):
        family = self.unnormalized_family()
        assert not family.space.free.is_normalized
        balanced = rebalance_free(family)
        assert balanced.space.free.is_normalized

    def test_kernels_survive_rebalancing_pointwise(self):
        family = self.unnormalized_family()
        balanced = rebalance_free(family)
        for cfg in family.space.configurations():
            mate = balanced.space.make(cfg.values, cfg.tail)
            for site in family.space.universe:
                assert (oracles.kernel_weights(family, site, cfg)
                        == oracles.kernel_weights(balanced, site, mate))

    def test_custom_rescalers(self):
        family = self.unnormalized_family()
        r = {
            "u": {"a": Fraction(2), "b": Fraction(1, 3)},
            "v": {"a": Fraction(1), "b": Fraction(5)},
        }
        balanced = rebalance_free(family, r)
        assert balanced.space.free.is_normalized
        for cfg in family.space.configurations():
            mate = balanced.space.make(cfg.values, cfg.tail)
            for site in family.space.universe:
                assert (oracles.kernel_weights(family, site, cfg)
                        == oracles.kernel_weights(balanced, site, mate))

    def test_nonpositive_rescaler_rejected(self):
        family = self.unnormalized_family()
        with pytest.raises(DomainError):
            rebalance_free(family, {"u": {"a": Fraction(0), "b": Fraction(1)}, "v": {"a": Fraction(1), "b": Fraction(1)}})


class RawWeights:
    """A raw weight model whose every value is ``value``."""

    def __init__(self, value):
        self.value = value

    def raw_value(self, space, site, cfg):
        return self.value


def with_one_inexact(mapping: dict, value) -> dict:
    """A copy of ``mapping`` whose first entry is replaced by ``value``."""
    first = next(iter(mapping))
    return {**mapping, first: value}


def table_entries(space: Space, value) -> dict:
    return {
        site: {(sym, ctx, tail): value
               for sym in space.alphabet
               for ctx in space.assignments([s for s in space.universe if s != site])
               for tail in space.tail_classes}
        for site in space.universe
    }


def tail_rules(space: Space, value) -> dict:
    return {(tail, site): {sym: value for sym in space.alphabet}
            for tail in space.tail_classes for site in space.universe}


def uniform_joint(space: Space, value) -> dict:
    return {values: value for values in space.assignments(space.universe.sites)}


def roundtrip_with_joint(value):
    _, joint, family = extracted_family(3)
    return roundtrip_reconstruction(family, with_one_inexact(joint, value))


CARRIERS = {
    "table_model": lambda v: normalize(plain_space(2), TableModel(
        table_entries(plain_space(2), v))),
    "tail_rule_model": lambda v: normalize(plain_space(2), TailRuleModel(
        tail_rules(plain_space(2), v))),
    "potential_fields": lambda v: PotentialModel({"s1": {"a": v, "b": Fraction(1)}}),
    "potential_pairs": lambda v: PotentialModel(
        {}, {("s1", "s2"): {("a", "a"): v, ("a", "b"): Fraction(1)}}),
    "normalize_read": lambda v: normalize(plain_space(2), RawWeights(v)),
    "extract_singletons": lambda v: extract_singletons(
        plain_space(2), with_one_inexact(uniform_joint(plain_space(2), Fraction(1)), v)),
    "rebalance_free": lambda v: rebalance_free(
        independent_family(2), {site: {"a": v, "b": Fraction(1)} for site in ("s1", "s2")}),
    "roundtrip_joint": roundtrip_with_joint,
}


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_carriers_reject_inexact_values(carrier, value):
    with pytest.raises(DomainError, match="not an exact rational at .*: " + repr(value)):
        CARRIERS[carrier](value)
    # the same carrier takes the exact value
    CARRIERS[carrier](Fraction(1, 2) if value == 0.5 else 1)
