"""Core layer: configurations, the free kernel that unit mass and the
families' ratio tables are checked against (`oracles.free_kernel`),
and the extended arithmetic the oracles compute with
(`oracles.ExtendedRational`)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from specforge.core import (
    Alphabet,
    Configuration,
    DomainError,
    FreeMeasure,
    Space,
    Universe,
    parse_rational,
)

from oracles import INF, ArithmeticDomainError, ExtendedRational, free_kernel, ratio, with_sites


def concat(primary, secondary, base: Configuration) -> Configuration:
    """Overlay two partial assignments on a base configuration.

    `primary` wins where the two overlap; both win over `base`; the tail
    class of `base` is kept.
    """
    merged = dict(secondary)
    merged.update(primary)
    return with_sites(base, merged)


def check_factorization(space: Space, region_a, region_b, h, cfg) -> bool:
    """Joint-vs-nested agreement of the free kernel on disjoint regions.

    Integrating over the union must equal integrating over one region
    inside the other, in both nesting orders.
    """
    a = space.universe.region(region_a)
    b = space.universe.region(region_b)
    if set(a) & set(b):
        raise DomainError(f"regions overlap: {a} and {b}")
    joint = free_kernel(space, a + b, h, cfg)
    a_then_b = free_kernel(space, a, lambda c: free_kernel(space, b, h, c), cfg)
    b_then_a = free_kernel(space, b, lambda c: free_kernel(space, a, h, c), cfg)
    return joint == a_then_b == b_then_a


def two_site_space() -> Space:
    alphabet = Alphabet(("a", "b"))
    universe = Universe(("i", "j"))
    free = FreeMeasure.uniform(alphabet, universe)
    return Space(alphabet, universe, free)


def four_site_space() -> Space:
    alphabet = Alphabet(("a", "b"))
    universe = Universe(("1", "2", "3", "4"))
    free = FreeMeasure.uniform(alphabet, universe)
    return Space(alphabet, universe, free, tail_classes=("default", "other"))


class TestExtendedRational:
    def test_finite_arithmetic_is_exact(self):
        x = ExtendedRational(Fraction(1, 3))
        y = ExtendedRational(Fraction(1, 6))
        assert x + y == Fraction(1, 2)
        assert x * y == Fraction(1, 18)
        assert x / y == 2
        assert str(x / y) == "2"

    def test_infinity_conventions(self):
        two = ExtendedRational(2)
        zero = ExtendedRational(0)
        assert two / INF == 0
        assert zero / INF == 0
        assert two / zero == INF
        assert (two * INF).is_infinite
        assert INF + two == INF
        assert INF + INF == INF
        assert INF / two == INF

    def test_indeterminate_contractions_raise(self):
        zero = ExtendedRational(0)
        with pytest.raises(ArithmeticDomainError):
            zero * INF
        with pytest.raises(ArithmeticDomainError):
            INF * zero
        with pytest.raises(ArithmeticDomainError):
            zero / zero
        with pytest.raises(ArithmeticDomainError):
            INF / INF
        with pytest.raises(ArithmeticDomainError):
            ratio(Fraction(0), Fraction(0))

    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            ExtendedRational(Fraction(-1, 2))
        with pytest.raises(DomainError):
            ExtendedRational(-3)

    def test_total_order(self):
        vals = [ExtendedRational(Fraction(3, 2)), INF, ExtendedRational(0), ExtendedRational(1)]
        ordered = sorted(vals)
        assert ordered == [0, 1, Fraction(3, 2), INF]
        assert INF > Fraction(10**9)
        assert not (INF < INF)
        assert INF <= INF

    def test_mixed_comparisons_with_fractions(self):
        assert ExtendedRational(Fraction(1, 2)) == Fraction(1, 2)
        assert Fraction(1, 3) + ExtendedRational(Fraction(1, 6)) == Fraction(1, 2)
        assert hash(ExtendedRational(Fraction(1, 2))) == hash(Fraction(1, 2))

    def test_parse_and_format(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("7") == Fraction(7)
        assert ExtendedRational.parse("inf").is_infinite
        for bad in ("1.5", "-1/2", "1/0", "a", "", "1/-2"):
            with pytest.raises(DomainError):
                parse_rational(bad)


class TestValidation:
    def test_alphabet_rejects_duplicates_and_empty(self):
        with pytest.raises(DomainError):
            Alphabet(())
        with pytest.raises(DomainError):
            Alphabet(("a", "a"))
        with pytest.raises(DomainError):
            Alphabet(("a", "b c"))

    def test_universe_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Universe(("i", "i"))
        with pytest.raises(DomainError):
            Universe(())

    def test_free_measure_needs_positive_entry_per_site(self):
        alphabet = Alphabet(("a", "b"))
        with pytest.raises(DomainError):
            FreeMeasure(alphabet, {"i": {"a": Fraction(0), "b": Fraction(0)}})
        with pytest.raises(DomainError):
            FreeMeasure(alphabet, {"i": {"a": Fraction(1)}})  # misses b
        with pytest.raises(DomainError):
            FreeMeasure(alphabet, {"i": {"a": Fraction(1), "b": Fraction(-1)}})

    @pytest.mark.parametrize("inexact", [0.1, True, False])
    def test_free_measure_takes_exact_weights_only(self, inexact):
        # 0.1 would read as 3602879701896397/36028797018963968, True as 1
        alphabet = Alphabet(("a", "b"))
        with pytest.raises(DomainError, match=rf"site 's', symbol 'a': {inexact!r}"):
            FreeMeasure(alphabet, {"s": {"a": inexact, "b": Fraction(9, 10)}})

    def test_normalized_flag(self):
        alphabet = Alphabet(("a", "b"))
        assert FreeMeasure.uniform(alphabet, ("i",)).is_normalized
        lopsided = FreeMeasure(alphabet, {"i": {"a": Fraction(1), "b": Fraction(2)}})
        assert not lopsided.is_normalized

    def test_positive_flag(self):
        alphabet = Alphabet(("a", "b"))
        assert FreeMeasure(alphabet, {"i": {"a": Fraction(1), "b": Fraction(2)}}).is_positive
        one_zero = FreeMeasure(alphabet, {"i": {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                                          "j": {"a": Fraction(1), "b": Fraction(0)}})
        assert one_zero.is_normalized and not one_zero.is_positive

    def test_space_rejects_free_weights_outside_its_universe(self):
        """A stray site's weights would count in `is_normalized` and turn
        the measure suites off for a window that does not hold it."""
        alphabet = Alphabet(("a", "b"))
        weights = {s: {"a": Fraction(1, 2), "b": Fraction(1, 2)} for s in ("s1", "s2")}
        weights["s9"] = {"a": Fraction(1), "b": Fraction(1)}
        free = FreeMeasure(alphabet, weights)
        assert not free.is_normalized
        with pytest.raises(DomainError, match=r"outside the universe \['s9'\]"):
            Space(alphabet, Universe(("s1", "s2")), free)

    def test_space_compares_alphabets_by_symbols(self):
        universe = Universe(("i", "j"))
        free = FreeMeasure.uniform(Alphabet(("a", "b")), universe)
        space = Space(Alphabet(("a", "b")), universe, free)
        assert space.alphabet == free.alphabet and space.alphabet is not free.alphabet
        assert hash(space.alphabet) == hash(free.alphabet)
        with pytest.raises(DomainError, match="alphabet differs"):
            Space(Alphabet(("b", "a")), universe, free)

    def test_value_classes_are_frozen(self):
        space = two_site_space()
        for obj, name in ((space.alphabet, "symbols"), (space.universe, "sites"),
                          (space.free, "weights"), (space, "free"), (space, "extra")):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, None)
        with pytest.raises(AttributeError, match="cannot delete field 'tail_classes'"):
            del space.tail_classes
        assert space.tail_classes == ("default",)
        # memo dicts still fill in place
        assert space.universe.region(("j", "i")) == ("i", "j")

    def test_configuration_requires_total_assignment(self):
        space = two_site_space()
        with pytest.raises(DomainError):
            space.configuration({"i": "a"})
        with pytest.raises(DomainError):
            space.configuration({"i": "a", "j": "a", "k": "b"})
        with pytest.raises(DomainError):
            space.configuration({"i": "a", "j": "z"})
        with pytest.raises(DomainError):
            space.configuration({"i": "a", "j": "b"}, tail="missing")

    def test_configuration_equality_is_value_based(self):
        space = two_site_space()
        c1 = space.configuration({"i": "a", "j": "b"})
        c2 = space.configuration({"j": "b", "i": "a"})
        assert c1 == c2
        assert hash(c1) == hash(c2)
        assert c1 != with_sites(c2, {"i": "b"})


class TestConcat:
    def test_empty_overlays_are_identity(self):
        space = two_site_space()
        omega = space.configuration({"i": "a", "j": "b"})
        assert concat({}, {}, omega) == omega

    def test_single_site_overwrite(self):
        space = two_site_space()
        omega = space.configuration({"i": "b", "j": "b"})
        out = concat({"i": "a"}, {}, omega)
        assert out.symbol("i") == "a"
        assert out.symbol("j") == "b"
        assert out.tail == omega.tail

    def test_full_overlay_matches_direct_construction(self):
        space = four_site_space()
        omega = space.configuration({"1": "b", "2": "b", "3": "b", "4": "b"}, tail="other")
        x = {"1": "a", "2": "b"}
        s = {"3": "a", "4": "a"}
        direct = space.configuration({"1": "a", "2": "b", "3": "a", "4": "a"}, tail="other")
        assert concat(x, s, omega) == direct

    def test_primary_wins_on_overlap(self):
        space = two_site_space()
        omega = space.configuration({"i": "b", "j": "b"})
        out = concat({"i": "a"}, {"i": "b", "j": "a"}, omega)
        assert out.symbol("i") == "a"
        assert out.symbol("j") == "a"

    def test_overlay_associativity(self):
        space = four_site_space()
        omega = space.configuration({"1": "b", "2": "b", "3": "b", "4": "b"}, tail="default")
        x = {"1": "a"}
        s = {"3": "a"}
        merged = dict(x)
        merged.update(s)
        assert concat(x, s, omega) == concat(merged, {}, omega)


class TestFreeKernel:
    def test_empty_region_is_identity(self):
        space = two_site_space()
        omega = space.configuration({"i": "a", "j": "b"})
        h = lambda c: Fraction(5, 7) if c.symbol("i") == "a" else Fraction(0)
        assert free_kernel(space, (), h, omega) == Fraction(5, 7)

    def test_constant_one_integrates_to_one(self):
        space = two_site_space()
        omega = space.configuration({"i": "b", "j": "b"})
        assert free_kernel(space, ("i",), lambda c: 1, omega) == 1

    def test_two_site_indicator_has_mass_one_half(self):
        space = two_site_space()
        omega = space.configuration({"i": "b", "j": "b"})
        h = lambda c: 1 if c.symbol("i") == "a" else 0
        # Oracle: enumerate all four (sigma_i, sigma_j) pairs by hand.
        expected = Fraction(0)
        for si in "ab":
            for sj in "ab":
                expected += Fraction(1, 4) * (1 if si == "a" else 0)
        assert expected == Fraction(1, 2)
        assert free_kernel(space, ("i", "j"), h, omega) == Fraction(1, 2)

    def test_depends_only_on_exterior(self):
        space = four_site_space()
        h = lambda c: Fraction(1, 2) if c.symbol("3") == "a" else Fraction(2 if c.tail == "default" else 3)
        region = ("1", "2")
        values = {}
        for cfg in space.configurations():
            key = space.class_map(region)[cfg.index]
            got = free_kernel(space, region, h, cfg)
            if key in values:
                assert values[key] == got
            else:
                values[key] = got
        # Different exteriors appear and can give different values.
        assert len(set(values.values())) > 1

    def test_zero_weight_times_infinity_raises_with_context(self):
        alphabet = Alphabet(("a", "b"))
        universe = Universe(("i",))
        free = FreeMeasure(alphabet, {"i": {"a": Fraction(1), "b": Fraction(0)}})
        space = Space(alphabet, universe, free)
        omega = space.configuration({"i": "a"})
        h = lambda c: INF if c.symbol("i") == "b" else ExtendedRational(1)
        with pytest.raises(ArithmeticDomainError) as err:
            free_kernel(space, ("i",), h, omega)
        assert "0 * inf" in str(err.value)

    def test_infinite_value_with_positive_weight_is_infinite(self):
        space = two_site_space()
        omega = space.configuration({"i": "a", "j": "a"})
        h = lambda c: INF if c.symbol("i") == "b" else ExtendedRational(1)
        assert free_kernel(space, ("i",), h, omega).is_infinite

    def test_region_outside_universe_rejected(self):
        space = two_site_space()
        omega = space.configuration({"i": "a", "j": "a"})
        with pytest.raises(DomainError):
            free_kernel(space, ("k",), lambda c: 1, omega)


class TestFactorization:
    def test_empty_region_trivially_factorizes(self):
        space = two_site_space()
        omega = space.configuration({"i": "a", "j": "b"})
        assert check_factorization(space, (), ("i",), lambda c: Fraction(3, 5), omega)

    def test_two_singletons_with_random_rational_h(self):
        space = two_site_space()
        omega = space.configuration({"i": "b", "j": "b"})
        rng = random.Random(20240811)
        table = {
            key: Fraction(rng.randint(0, 9), rng.randint(1, 9))
            for key in [(si, sj) for si in "ab" for sj in "ab"]
        }
        h = lambda c: table[(c.symbol("i"), c.symbol("j"))]
        # Oracle: both sides enumerated independently of free_kernel.
        joint = sum(Fraction(1, 4) * table[(si, sj)] for si in "ab" for sj in "ab")
        nested = sum(
            Fraction(1, 2) * sum(Fraction(1, 2) * table[(si, sj)] for sj in "ab") for si in "ab"
        )
        assert joint == nested
        assert check_factorization(space, ("i",), ("j",), h, omega)

    def test_overlapping_regions_rejected(self):
        space = two_site_space()
        omega = space.configuration({"i": "a", "j": "a"})
        with pytest.raises(DomainError):
            check_factorization(space, ("i",), ("i", "j"), lambda c: 1, omega)

    def test_property_random_h_on_four_sites(self):
        space = four_site_space()
        rng = random.Random(99)
        keys = [cfg.key for cfg in space.configurations()]
        for _ in range(10):
            table = {k: Fraction(rng.randint(0, 12), rng.randint(1, 7)) for k in keys}
            h = lambda c: table[c.key]
            omega = space.make(("b", "a", "b", "a"), rng.choice(space.tail_classes))
            split = rng.randint(0, 4)
            sites = list(space.universe.sites)
            rng.shuffle(sites)
            lam, delta = tuple(sites[:split]), tuple(sites[split:])
            assert check_factorization(space, lam, delta, h, omega)
