"""Release acceptance gate: eight criteria, one test per criterion.

Every comparison is exact rational equality; every criterion carries a
wall-clock budget that fails the test when exceeded.  Expected values
are closed forms or independent oracles computed inside this module,
never read back from the code under test.
"""

import itertools
import random
from fractions import Fraction
from importlib import resources
from time import monotonic

from specforge import (
    FiniteMeasure,
    build_family,
    check_bounded_positivity,
    check_measure_consistency,
    check_order_consistency,
    check_pointwise_compatibility,
    check_specification_axioms,
    check_very_weak_positivity,
    ratio_bounds,
    support_class_certificate,
    uniqueness_probe,
)
from specforge.cli.modelfile import parse_model_file

import zoo
from oracles import ExtendedRational, fraction_values, INF, overlay, pair_divisor, product_weight


def bundled(name: str) -> str:
    return str(resources.files("specforge") / "data" / name)


def conditional_density(space, joint, region, cfg) -> Fraction:
    """Oracle: the conditional density of a joint weight, from scratch."""
    section = Fraction(0)
    for fill in space.assignments(region):
        section += joint[overlay(space, cfg, region, fill).values]
    free = product_weight(space, region, tuple(cfg.symbol(s) for s in region))
    return joint[cfg.values] / (section * free)


def free_mass_of_region(space, dens, region, cfg) -> Fraction:
    """Oracle: the free integral of a region's density at one exterior."""
    total = Fraction(0)
    for fill in space.assignments(region):
        point = overlay(space, cfg, region, fill)
        total += product_weight(space, region, fill) * dens.density(region, point)
    return total


def transfer_perturbation(mu: FiniteMeasure, rng: random.Random) -> FiniteMeasure:
    """Move a sliver of mass between two support points (support kept)."""
    weights = fraction_values(mu.weights)
    support = sorted(weights)
    raise_key, lower_key = rng.sample(support, 2)
    delta = weights[lower_key] / rng.randint(2, 9)
    weights[raise_key] += delta
    weights[lower_key] -= delta
    return FiniteMeasure(mu.space, weights)


def test_criterion_1_two_class_example_reproduction():
    """Closed forms of the two-symbol, two-class, four-site model."""
    start = monotonic()
    fam = zoo.example1_family()
    space = fam.space
    sites = space.universe.sites
    pinned = {zoo.MANY_HIGH: zoo.LOW, zoo.FEW_HIGH: zoo.HIGH}

    # single-site joining factor: 1/2 on the pinned symbol, infinite off it
    half = ExtendedRational(Fraction(1, 2))
    for i in sites:
        for j in sites:
            if i == j:
                continue
            for cfg in space.configurations():
                expected = half if cfg.symbol(j) == pinned[cfg.tail] else INF
                assert pair_divisor(fam, i, j, cfg) == expected, (i, j, cfg.key)

    # both sides of the two-site compatibility display: 4 or 0
    for i, j in itertools.permutations(sites, 2):
        for cfg in space.configurations():
            lhs = ExtendedRational(fam.density(i, cfg)) / pair_divisor(fam, i, j, cfg)
            rhs = ExtendedRational(fam.density(j, cfg)) / pair_divisor(fam, j, i, cfg)
            want = pinned[cfg.tail]
            expected = Fraction(4) if (
                cfg.symbol(i) == want and cfg.symbol(j) == want) else Fraction(0)
            assert lhs == rhs == ExtendedRational(expected), (i, j, cfg.key)

    # every region's density: 2^size times the all-pinned indicator
    dens = build_family(fam)
    for region in space.universe.subsets():
        if not region:
            continue
        for cfg in space.configurations():
            indicator = all(cfg.symbol(s) == pinned[cfg.tail] for s in region)
            expected = Fraction(2) ** len(region) if indicator else Fraction(0)
            assert dens.density(region, cfg) == expected, (region, cfg.key)

    elapsed = monotonic() - start
    assert elapsed < 1.0, f"criterion 1 over budget: {elapsed:.2f}s"
    print(f"criterion 1 (two-class example reproduction): PASS [{elapsed:.2f}s]")


def test_criterion_2_roundtrip_oracle_equivalence():
    """50 random positive joints: rebuilt densities equal the conditionals."""
    start = monotonic()
    space = zoo.plain_space(3)
    for seed in range(50):
        rng = random.Random(seed)
        joint = zoo.random_joint(space, rng)
        fam = zoo.extract_singletons(space, joint)
        dens = build_family(fam)
        for region in space.universe.subsets():
            for cfg in space.configurations():
                if region:
                    expected = conditional_density(space, joint, region, cfg)
                else:
                    expected = Fraction(1)
                assert dens.density(region, cfg) == expected, (seed, region, cfg.key)
    elapsed = monotonic() - start
    assert elapsed < 10.0, f"criterion 2 over budget: {elapsed:.2f}s"
    print(f"criterion 2 (roundtrip oracle equivalence, 50 joints): PASS [{elapsed:.2f}s]")


def _constructible_model_zoo() -> list:
    """At least 50 constructible families, up to 4 sites and 3 symbols."""
    families = [
        zoo.example1_family(2), zoo.example1_family(3), zoo.example1_family(4),
        zoo.independent_family(2), zoo.independent_family(3), zoo.independent_family(4),
        zoo.independent_family(2, ("a", "b", "c")),
        zoo.independent_family(3, ("a", "b", "c")),
    ]
    shapes = [(3, ("a", "b")), (4, ("a", "b")), (3, ("a", "b", "c")),
              (2, ("a", "b", "c"))]
    for seed in range(20):
        n_sites, symbols = shapes[seed % len(shapes)]
        _, _, fam = zoo.extracted_family(seed, n_sites=n_sites, symbols=symbols)
        families.append(fam)
    for seed in range(16):
        n_sites = 3 if seed % 2 else 4
        _, _, fam = zoo.potential_family(seed, n_sites=n_sites)
        families.append(fam)
    for seed in range(4):
        _, _, fam = zoo.ring_potential_family(seed)
        families.append(fam)
    for name in ("example1.model", "independent.model", "extracted.model",
                 "potential.model"):
        _, fam, _ = parse_model_file(bundled(name)).realize()
        families.append(fam)
    return families


def test_criterion_3_specification_axioms_across_zoo():
    """Nesting consistency and unit kernel mass on 50+ built families."""
    start = monotonic()
    families = _constructible_model_zoo()
    assert len(families) >= 50
    for index, fam in enumerate(families):
        dens = build_family(fam)
        report = check_specification_axioms(dens)
        assert report.passed, (index, [w.description for w in report.witnesses[:1]])
        space = fam.space
        for region in space.universe.subsets():
            if not region:
                continue
            for cfg in space.configurations():
                assert free_mass_of_region(space, dens, region, cfg) == 1, (
                    index, region, cfg.key)
    elapsed = monotonic() - start
    assert elapsed < 60.0, f"criterion 3 over budget: {elapsed:.2f}s"
    print(f"criterion 3 (specification axioms, {len(families)} models): "
          f"PASS [{elapsed:.2f}s]")


def test_criterion_4_order_consistency_matches_pointwise_form():
    """The two formulations agree on 100+ weakly positive families."""
    start = monotonic()
    verdicts = {True: 0, False: 0}
    examined = 0
    for seed in range(100):
        space, fam = zoo.anchored_table_family(seed)
        assert check_very_weak_positivity(fam).passed, seed
        ordered = check_order_consistency(fam)
        pointwise = check_pointwise_compatibility(fam)
        assert ordered.passed == pointwise.passed, (
            f"seed {seed}: order consistency {ordered.passed} but "
            f"pointwise form {pointwise.passed}")
        verdicts[ordered.passed] += 1
        examined += 1
    for seed in range(10):
        _, _, fam = zoo.extracted_family(1000 + seed)
        assert check_very_weak_positivity(fam).passed
        ordered = check_order_consistency(fam)
        pointwise = check_pointwise_compatibility(fam)
        assert ordered.passed == pointwise.passed
        verdicts[ordered.passed] += 1
        examined += 1
    assert examined >= 100
    assert verdicts[True] >= 10, "no passing families exercised the equivalence"
    assert verdicts[False] >= 10, "no failing families exercised the equivalence"
    elapsed = monotonic() - start
    assert elapsed < 60.0, f"criterion 4 over budget: {elapsed:.2f}s"
    print(f"criterion 4 (order consistency equivalence, {examined} models, "
          f"{verdicts[True]} pass / {verdicts[False]} fail): PASS [{elapsed:.2f}s]")


def test_criterion_5_sweep_order_independence():
    """All 24 site orders rebuild identical tables on 20 four-site models."""
    start = monotonic()
    families = [zoo.example1_family(4), zoo.independent_family(4)]
    for seed in range(9):
        _, _, fam = zoo.extracted_family(200 + seed, n_sites=4)
        families.append(fam)
    for seed in range(9):
        _, _, fam = zoo.ring_potential_family(300 + seed)
        families.append(fam)
    assert len(families) == 20
    for index, fam in enumerate(families):
        sites = fam.space.universe.sites
        assert len(sites) == 4
        reference = build_family(fam)
        for perm in itertools.permutations(sites):
            rebuilt = build_family(fam, sweep=perm, checked=False)
            for region in reference.regions():
                assert rebuilt.table(region) == reference.table(region), (
                    index, perm, region)
    elapsed = monotonic() - start
    assert elapsed < 60.0, f"criterion 5 over budget: {elapsed:.2f}s"
    print(f"criterion 5 (24 sweep orders identical, 20 models): "
          f"PASS [{elapsed:.2f}s]")


def test_criterion_6_measure_consistency_equivalence():
    """Singleton consistency iff full consistency, on certified measures."""
    start = monotonic()
    families = []
    for seed in range(16):
        _, _, fam = zoo.extracted_family(400 + seed)
        families.append(fam)
    for seed in range(2):
        _, _, fam = zoo.potential_family(500 + seed)
        families.append(fam)
    families.append(zoo.independent_family(3))
    _, fam, _ = parse_model_file(bundled("extracted.model")).realize()
    families.append(fam)
    assert len(families) >= 20
    for index, fam in enumerate(families):
        dens = build_family(fam)
        space = fam.space
        for tail in space.tail_classes:
            cfg = next(c for c in space.configurations() if c.tail == tail)
            mu = FiniteMeasure.kernel_measure(dens, cfg)
            certificate = support_class_certificate(mu, dens.singletons)
            assert certificate.passed, (index, tail)
            verdict = check_measure_consistency(mu, dens)
            assert verdict.data["in_support_class"] is True
            assert verdict.data["singleton_consistent"] is True
            assert verdict.data["fully_consistent"] is True
            assert verdict.data["equivalence_holds"] is True
            rng = random.Random(600 + index)
            for _ in range(5):
                perturbed = transfer_perturbation(mu, rng)
                crooked = check_measure_consistency(perturbed, dens)
                assert crooked.passed, (index, "equivalence broke")
                assert crooked.data["in_support_class"] is True
                assert crooked.data["singleton_consistent"] is False
                assert crooked.data["fully_consistent"] is False
    elapsed = monotonic() - start
    assert elapsed < 120.0, f"criterion 6 over budget: {elapsed:.2f}s"
    print(f"criterion 6 (measure consistency equivalence, {len(families)} "
          f"models x 6 measures): PASS [{elapsed:.2f}s]")


def test_criterion_7_uniqueness_probes():
    """100+ perturbed families all break singleton consistency; densities
    re-derive exactly from any member site."""
    start = monotonic()
    perturbed_total = 0
    rederived_total = 0
    for seed in range(12):
        _, _, fam = zoo.extracted_family(700 + seed)
        dens = build_family(fam)
        report = uniqueness_probe(dens, trials=9, seed=seed)
        assert report.passed, (seed, [w.description for w in report.witnesses[:1]])
        probes = report.data["perturbations"]
        assert len(probes) == 9
        assert all(p["violates"] for p in probes), seed
        assert report.data["surviving_alternatives"] == 0
        assert report.data["rederivation_ok"] is True
        assert report.data["rederived_points"] > 0
        perturbed_total += len(probes)
        rederived_total += report.data["rederived_points"]
    assert perturbed_total >= 100
    elapsed = monotonic() - start
    assert elapsed < 60.0, f"criterion 7 over budget: {elapsed:.2f}s"
    print(f"criterion 7 (uniqueness probes, {perturbed_total} perturbations, "
          f"{rederived_total} re-derived points): PASS [{elapsed:.2f}s]")


def test_criterion_8_bounded_positivity_scope():
    """The two-class example fails the uniform-bound check; strictly
    positive models pass it with finite positive two-sided constants."""
    start = monotonic()
    example = zoo.example1_family()
    assert check_very_weak_positivity(example).passed
    assert check_order_consistency(example).passed
    assert not check_bounded_positivity(example).passed

    positive_families = []
    for seed in range(5):
        _, _, fam = zoo.potential_family(800 + seed)
        positive_families.append(fam)
    _, _, ring = zoo.ring_potential_family(800)
    positive_families.append(ring)
    for index, fam in enumerate(positive_families):
        assert check_bounded_positivity(fam).passed, index
        dens = build_family(fam)
        bounds = ratio_bounds(dens)
        assert bounds.passed, index
        for label, pair in bounds.data["bounds"].items():
            lower, upper = Fraction(pair["lower"]), Fraction(pair["upper"])
            assert 0 < lower <= upper, (index, label, pair)
    elapsed = monotonic() - start
    assert elapsed < 10.0, f"criterion 8 over budget: {elapsed:.2f}s"
    print(f"criterion 8 (bounded positivity scope, {len(positive_families)} "
          f"positive models): PASS [{elapsed:.2f}s]")
