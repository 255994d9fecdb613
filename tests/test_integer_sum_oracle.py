"""Integer line sums and cross-multiplied comparisons against their
`Fraction` oracles.

The ratio tables (``Tabulated.ratio_table``) and ``Space.free_integral``
add every term of a free-measure line as one integer numerator over one
integer denominator (``core._line_sum``); ``normalize``'s class masses,
the unit-mass check of ``SingletonFamily`` and the part (b) masses and
covering-pair masses of the axiom check use the same sum.  ``check_bounded_positivity`` and
``ratio_bounds`` keep their extremes as integer pairs, the covering pairs
compare each direct weight with mass·w cross-multiplied, and the strict
identity of bounded positivity is read off order consistency when that
passes.  The oracles in ``oracles.py`` do each of these in `Fraction`
values.  Results must be equal, undefined (None) and infinite integrals
included, on the zoo and on random zero-table draws, whose free measures
have zero weights; error messages must be equal where unit mass fails.
No singleton table has an integral of zero, so a sibling with a zero
line supplies that outcome.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from specforge import hypotheses
from specforge.constructor import DensityFamily, build_family
from specforge.core import Alphabet, ExtendedRational, FreeMeasure, Space, SpecforgeError, Universe
from specforge.hypotheses import check_bounded_positivity, check_order_consistency
from specforge.models import NormalizationError, SingletonFamily, TableModel, normalize
from specforge.verifier import _covering_pairs_agree, check_specification_axioms, ratio_bounds

import oracles
import zoo
from test_fast_path_oracle import PERTURBED, renormalized

CAPS = (0, 1, 25)

ZOO = {
    "anchored_table_5": lambda: zoo.anchored_table_family(5)[1],
    "broken_pair": zoo.broken_pair_family,
    "example1": zoo.example1_family,
    "extracted_5": lambda: zoo.extracted_family(5)[2],
    "hardcore_3": lambda: zoo.hardcore_family(3),
    "independent": zoo.independent_family,
    "lopsided_free": zoo.lopsided_free_family,
    "one_sided_hardcore_3": lambda: zoo.one_sided_hardcore_family(3),
    "potential_1": lambda: zoo.potential_family(1)[2],
    "ring_potential_2": lambda: zoo.ring_potential_family(2)[2],
    "unnormalized_free": zoo.unnormalized_free_family,
}
ZERO_SEEDS = (*range(12), 15, 18)
FAMILIES = {**ZOO, **{f"zero_table_{seed}": (lambda s=seed: zoo.random_zero_table_family(s))
                      for seed in ZERO_SEEDS}}


def outcome(run, *args, **kwargs):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return run(*args, **kwargs).as_dict()
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def density_family(singletons) -> DensityFamily:
    """Every region when the family builds, else the empty and site tables."""
    try:
        return build_family(singletons, checked=False)
    except SpecforgeError:
        return DensityFamily(singletons)


def kind(value) -> str:
    if value is None:
        return "undefined"
    return "infinite" if value.is_infinite else "zero" if value.is_zero else "finite"


def compare_line_sums(dens) -> set:
    """Assert both line sums equal their oracles on every region, table
    pair and configuration, the ratio integrals through the family's
    ratio table of every ordered pair of disjoint nonempty regions;
    return the ratio-integral outcomes seen."""
    space = dens.space
    regions = [region for region in dens.regions() if region]
    tables = {region: dens.table(region) for region in regions}
    seen = set()
    for over in regions:
        for cfg in space.exterior_classes(over):
            for region in regions:
                table = tables[region]
                got = space.free_integral(over, table.__getitem__, cfg)
                want = oracles.free_kernel(space, over, lambda c: table[c.index], cfg)
                assert Fraction(*got) == want.fraction, (over, region, cfg)
            for against in regions:
                if set(over) & set(against):
                    continue
                pair = dens.ratio_table(over, against)[cfg.index]
                got = None if pair is None else ExtendedRational._of_pair(pair)
                assert got == oracles.ratio_integral(
                    space, over, tables[over], tables[against], cfg), (over, against, cfg)
                seen.add(kind(got))
    return seen


def zero_line_sibling(dens) -> DensityFamily:
    """A sibling whose first site's table is zero on the line of class 0
    off that site: no singleton table can be, for each has mass 1 on
    every line, so only such a table gives an integral over it of zero."""
    space = dens.space
    site = space.universe.sites[0]
    line = {offset for offset, _ in space.fill_offsets((site,))}
    return dens.replace_table((site,), [0 if k in line else value
                                        for k, value in enumerate(dens.table((site,)))])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_line_sums_equal_their_fraction_oracles(name):
    compare_line_sums(density_family(FAMILIES[name]()))


def test_every_ratio_integral_outcome_occurs():
    seen = set()
    for seed in ZERO_SEEDS:
        dens = density_family(zoo.random_zero_table_family(seed))
        seen |= compare_line_sums(dens)
        seen |= compare_line_sums(zero_line_sibling(dens))
    assert {"undefined", "infinite", "zero", "finite"} <= seen


def test_zero_free_weights_occur():
    assert any(w == 0 for seed in ZERO_SEEDS
               for row in zoo.random_zero_table_family(seed).space.free.weights.values()
               for w in row.values())


def keyed_tables(space, tables) -> dict:
    return {site: {cfg.key: tables[(site,)][cfg.index] for cfg in space.configurations()}
            for site in space.universe.sites}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_unit_mass_failures_name_what_the_oracle_names(name):
    """One density cell at a time is scaled by 3/2; construction must raise
    the oracle's message, or pass where the oracle passes."""
    fam = FAMILIES[name]()
    space = fam.space
    rng = random.Random(name)
    failures = 0
    for _ in range(6):
        tables = {region: list(table) for region, table in fam._tables.items()}
        site = rng.choice(space.universe.sites)
        index = rng.randrange(space.size)
        tables[(site,)][index] *= Fraction(3, 2)
        try:
            oracles.check_unit_mass(space, tables)
            expected = None
        except NormalizationError as exc:
            expected = str(exc)
            failures += 1
        try:
            SingletonFamily(space, keyed_tables(space, tables))
            got = None
        except NormalizationError as exc:
            got = str(exc)
        assert got == expected
    assert oracles.check_unit_mass(space, fam._tables) is None
    assert failures


def test_normalize_masses_equal_the_oracle_on_zero_tables():
    """Each class mass is summed from raw weights with zeros, on free
    measures with zero weights."""
    for seed in ZERO_SEEDS:
        space = zoo.random_zero_table_family(seed).space
        rng = random.Random(seed)
        entries = {}
        for site in space.universe:
            others = tuple(s for s in space.universe if s != site)
            entries[site] = {(sym, ctx, tail): Fraction(rng.randint(0, 3), rng.randint(1, 4))
                             for tail in space.tail_classes
                             for ctx in space.assignments(others)
                             for sym in space.alphabet}
        outcomes = []
        for run in (normalize, oracles.normalize):
            try:
                outcomes.append(run(space, TableModel(entries))._tables)
            except NormalizationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], seed


def built(name):
    try:
        return build_family(FAMILIES[name](), checked=False)
    except SpecforgeError:
        return None


BUILDING = [name for name in sorted(FAMILIES) if built(name) is not None]


def covering_outcomes(dens) -> list:
    """Both answers at every region and exterior class of a family whose
    rows have mass one, as the covering-pair check presumes."""
    assert check_specification_axioms(dens).data["point_mass_off_region"]
    space = dens.space
    return [(_covering_pairs_agree(dens, region, cfg),
             oracles.covering_pairs_agree(dens, region, cfg))
            for region in dens.regions() if region
            for cfg in space.exterior_classes(region)]


@pytest.mark.parametrize("name", BUILDING)
def test_covering_pairs_equal_the_dict_comparison(name):
    pairs = covering_outcomes(built(name))
    assert pairs and all(fast == slow for fast, slow in pairs)


@pytest.mark.parametrize("name", PERTURBED[:2])
def test_covering_pairs_equal_the_dict_comparison_where_they_differ(name):
    dens = built(name)
    seen = set()
    for region in dens.regions():
        if region:
            for fast, slow in covering_outcomes(renormalized(dens, region)):
                assert fast == slow
                seen.add(fast)
    assert seen == {True, False}


@pytest.mark.parametrize("name", BUILDING)
def test_ratio_bounds_equal_the_fraction_oracle(name):
    dens = built(name)
    for cap in CAPS:
        assert outcome(ratio_bounds, dens, cap) == outcome(oracles.ratio_bounds, dens, cap), cap


@pytest.fixture
def pair_reads(monkeypatch) -> Counter:
    """Counts singleton-family memo misses by key kind, so computations of
    order consistency's ``"pair_record"``, and ``"density"`` reads."""
    counts: Counter = Counter()
    honest_cached, honest_density = SingletonFamily.cached, SingletonFamily.density

    def counted_cached(self, key, compute):
        def counted():
            counts[key[0]] += 1
            return compute()
        return honest_cached(self, key, counted)

    def counted_density(self, *args):
        counts["density"] += 1
        return honest_density(self, *args)

    monkeypatch.setattr(SingletonFamily, "cached", counted_cached)
    monkeypatch.setattr(SingletonFamily, "density", counted_density)
    return counts


def bounded(reads: Counter, fam, cap: int = hypotheses.WITNESS_CAP):
    """The outcome of `check_bounded_positivity`, which reads no density."""
    read = reads["density"]
    report = outcome(check_bounded_positivity, fam, cap)
    assert reads["density"] == read
    return report


def test_broken_pair_reads_its_strict_witnesses_off_the_record(pair_reads):
    """Bounds pass and order consistency fails, so the strict identity
    fails at the diagonal cells of order consistency's record, with the
    oracle's witnesses at every cap, and the record is computed once per
    family."""
    for cap in CAPS:
        fam = zoo.broken_pair_family()
        assert not check_order_consistency(fam).passed
        report = bounded(pair_reads, fam, cap)
        assert report == outcome(oracles.check_bounded_positivity, fam, cap), cap
        assert report["passed"] and report["data"]["strict_identity"] is False
        strict = [w for w in report["witnesses"] if w["check"] == "strict_identity"]
        assert len(strict) == min(cap, 4)
    assert pair_reads["pair_record"] == len(CAPS)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_strict_identity_is_read_off_a_passing_order_consistency(name, pair_reads):
    fam = FAMILIES[name]()
    report = bounded(pair_reads, fam)
    assert report == oracles.check_bounded_positivity(fam).as_dict()
    if report["passed"]:
        if check_order_consistency(fam).passed:
            assert report["data"]["strict_identity"] is True
        assert pair_reads["pair_record"] == 1


def one_site_family(weights) -> SingletonFamily:
    alphabet = Alphabet(tuple(weights))
    universe = Universe(("s1",))
    space = Space(alphabet, universe, FreeMeasure.uniform(alphabet, universe))
    return normalize(space, TableModel({"s1": {(sym, (), "default"): Fraction(w)
                                               for sym, w in weights.items()}}))


@pytest.mark.parametrize("weights", [{"a": 1, "b": 2}, {"a": 1, "b": 0}],
                         ids=["positive", "zero_density"])
def test_one_site_identity_holds_vacuously(weights, pair_reads):
    """No pair: the bounds pass, order consistency passes with no
    comparison, and the identity holds, read off the same empty record."""
    fam = one_site_family(weights)
    order = check_order_consistency(fam)
    assert order.passed and order.data["comparisons"] == 0
    report = bounded(pair_reads, fam)
    assert report == oracles.check_bounded_positivity(fam).as_dict()
    assert report["passed"] and report["data"] == {"bounds": {}, "strict_identity": True}
    assert pair_reads["pair_record"] == 1
