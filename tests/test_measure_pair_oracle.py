"""Measures, certificates and joint conditionals as integer pairs, against
the `Fraction` oracles.

``FiniteMeasure.weights`` and ``SupportClassCertificate.lines`` hold
reduced integer pairs, and ``kernel_measure``, ``push_kernel`` and
``push_free`` all sum their images through ``verifier._mixed_row``.
Every image must equal ``oracles.push_kernel`` and ``oracles.push_free``,
which spread `Fraction` weights over `Fraction` kernel rows and free
weights point by point; ``preserved_by`` must say whether the oracle's
kernel image is the measure itself; and every certificate line must be
``oracles.support_class_certificate``'s, which asks ``site_is_good`` at
every configuration.  Read back through ``oracles.fraction_values``,
every pair must be reduced over a positive denominator.  The families
are the gated zoo, random hard-core draws and a two-tail hard-core
chain; the measures are each tail class's kernel measure, the same
measures with a sliver of mass moved between two support points, a
random full-support measure and point masses.  The perturbation suite,
which draws δ and w − δ = w·(k − 1)/k as pairs, must report exactly what
``oracles.measure_perturbation_suite`` reports with `Fraction` weights.

``models._joint_conditionals`` is the one integer table of a positive
joint's conditional density per region, which ``extract_singletons``
reads per site and ``roundtrip_reconstruction`` per region; it must
equal ``oracles.joint_conditional`` at every configuration of every
region, over two tail classes and free weights that are not uniform,
and the round trip, passing or not, must report what
``oracles.roundtrip_reconstruction`` reports.
``oracles.pair_two_point_identity``, the two-point identity as the
library last held it, reads its ratio integrals as pairs and must return
``oracles.two_point_identity``'s two `Fraction`s, or raise its error
with its text.
"""

import importlib
import random
from fractions import Fraction

import pytest

from specforge import hypotheses
from specforge.cli.modelfile import parse_model_text
from specforge.constructor import build_family
from specforge.core import Alphabet, FreeMeasure, Space, SpecforgeError, Universe
from specforge.models import _joint_conditionals, extract_singletons
from specforge.verifier import (
    FiniteMeasure,
    roundtrip_reconstruction,
    support_class_certificate,
)

import oracles
import zoo
from test_recorded_route_bytes import hardcore_chain

CAPS = (0, 1, 25)

# the package re-exports the function ``main`` under the module's name
cli = importlib.import_module("specforge.cli.main")


def two_tail_hardcore():
    return parse_model_text(hardcore_chain(), "hardcore4.model").realize()[1]


GATED = {
    "hardcore_3": lambda: zoo.hardcore_family(3),
    "hardcore_4": lambda: zoo.hardcore_family(4),
    "two_tail_hardcore_4": two_tail_hardcore,
    "example1": zoo.example1_family,
    "independent": zoo.independent_family,
    "lopsided_free": zoo.lopsided_free_family,
    "extracted_5": lambda: zoo.extracted_family(5)[2],
    "potential_1": lambda: zoo.potential_family(1)[2],
    "ring_potential_2": lambda: zoo.ring_potential_family(2)[2],
    **{f"random_hardcore_{seed}": (lambda s=seed: zoo.random_hardcore_family(s))
       for seed in range(6)},
}


def outcome(run, *args, **kwargs):
    """The report as a dict, or the type and message of the raised error."""
    try:
        return run(*args, **kwargs).as_dict()
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def perturbed(mu: FiniteMeasure, rng: random.Random) -> FiniteMeasure:
    """``mu`` with a sliver of one support point's mass moved to another,
    computed in `Fraction`s."""
    weights = oracles.fraction_values(mu.weights)
    raised, lowered = rng.sample(sorted(weights), 2)
    delta = weights[lowered] / rng.randint(2, 9)
    weights[raised] += delta
    weights[lowered] -= delta
    return FiniteMeasure(mu.space, weights)


def measures(dens, seed: int = 0) -> list[FiniteMeasure]:
    """Each tail class's kernel measure and, where its support allows, a
    perturbed copy; a random full-support measure; two point masses."""
    space = dens.space
    rng = random.Random(seed)
    out = []
    for first in oracles.naive_exterior_classes(space, space.universe.sites):
        mu = FiniteMeasure.kernel_measure(dens, first)
        out.append(mu)
        if len(mu.weights) >= 2:
            out.append(perturbed(mu, rng))
    raw = {index: Fraction(rng.randint(1, 9)) for index in range(space.size)}
    total = sum(raw.values())
    out.append(FiniteMeasure(space, {index: w / total for index, w in raw.items()}))
    out += [FiniteMeasure(space, {index: Fraction(1)}) for index in (0, space.size - 1)]
    return out


def test_the_families_pass_the_gates():
    for name, build in GATED.items():
        assert build_family(build(), checked=True), name
    assert two_tail_hardcore().space.tail_classes == ("open", "pinned")


@pytest.mark.parametrize("name", sorted(GATED))
def test_pushes_and_preservation_equal_the_fraction_oracles(name):
    dens = build_family(GATED[name]())
    preserved = set()
    for mu in measures(dens):
        plain = oracles.fraction_values(mu.weights)
        for region in dens.space.universe.subsets():
            image = oracles.push_kernel(mu, dens, region)
            assert oracles.fraction_values(mu.push_kernel(dens, region).weights) == image
            assert (oracles.fraction_values(mu.push_free(region).weights)
                    == oracles.push_free(mu, region))
            assert mu.preserved_by(dens, region) == (image == plain), region
            preserved.add(image == plain)
    assert preserved == {True, False}


@pytest.mark.parametrize("name", sorted(GATED))
def test_certificate_lines_equal_the_fraction_oracle(name):
    singletons = GATED[name]()
    dens = build_family(singletons)
    for mu in measures(dens, seed=1):
        certificate = support_class_certificate(mu, singletons)
        expected = oracles.support_class_certificate(mu, singletons)
        oracles.fraction_values(certificate.lines)
        assert certificate.lines == expected.lines
        assert certificate.passed == expected.passed
        assert certificate.as_dict() == expected.as_dict()


def test_certificates_reach_both_verdicts():
    """Kernel measures of the gated families lie inside the support class
    and outside it, so the comparison above meets zero and positive lines."""
    verdicts = set()
    for build in GATED.values():
        singletons = build()
        dens = build_family(singletons)
        for first in oracles.naive_exterior_classes(dens.space, dens.space.universe.sites):
            certificate = support_class_certificate(
                FiniteMeasure.kernel_measure(dens, first), singletons)
            assert certificate.passed == (not any(num for num, _ in certificate.lines.values()))
            verdicts.add(certificate.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(GATED))
@pytest.mark.parametrize("seed", [3, 51])
def test_perturbation_suite_equals_the_fraction_oracle(name, seed):
    expected = outcome(oracles.measure_perturbation_suite,
                       build_family(GATED[name]()), 12, seed)
    assert outcome(cli.measure_perturbation_suite,
                   build_family(GATED[name]()), 12, seed) == expected


@pytest.mark.parametrize("name", ["extracted_5", "potential_1", "ring_potential_2"])
def test_perturbation_witnesses_carry_the_oracle_delta(name, monkeypatch):
    """With every kernel taken as preserving, each trial on a positive
    family is witnessed, and its replay, δ included, is the oracle's."""
    monkeypatch.setattr(FiniteMeasure, "preserved_by", lambda self, dens, region: True)
    got = cli.measure_perturbation_suite(build_family(GATED[name]()), 12, 51)
    want = oracles.measure_perturbation_suite(build_family(GATED[name]()), 12, 51)
    assert len(got.witnesses) == len(want.witnesses) == 12
    assert [w.replay for w in got.witnesses] == [w.replay for w in want.witnesses]


def test_perturbation_suite_perturbs_both_tail_classes():
    report = cli.measure_perturbation_suite(build_family(two_tail_hardcore()), 12, 51)
    assert report.passed and report.data["performed"] == 12


def joint_space(seed: int, n_sites: int, symbols: tuple[str, ...]):
    """Two tail classes and positive free weights that differ by site and
    symbol, with a random positive joint on full assignments."""
    rng = random.Random(seed)
    alphabet = Alphabet(symbols)
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)))
    free = FreeMeasure(alphabet, {site: {sym: Fraction(rng.randint(1, 5), rng.randint(1, 5))
                                         for sym in symbols} for site in universe})
    space = Space(alphabet, universe, free, tail_classes=("t0", "t1"))
    return space, zoo.random_joint(space, rng)


SHAPES = [(seed, n, symbols) for seed, (n, symbols) in enumerate(
    [(1, ("a", "b")), (2, ("a", "b", "c")), (3, ("a", "b")), (3, ("x", "y", "z")),
     (4, ("a", "b"))])]


@pytest.mark.parametrize("seed, n_sites, symbols", SHAPES)
def test_joint_conditionals_equal_the_fraction_oracle(seed, n_sites, symbols):
    space, joint = joint_space(seed, n_sites, symbols)
    pairs = [joint[values].as_integer_ratio()
             for values in space.assignments(space.universe.sites)]
    for region in space.universe.subsets():
        assert (oracles.fractions(_joint_conditionals(space, pairs, region))
                == oracles.joint_conditional(space, joint, region)), region
    family = extract_singletons(space, joint)
    for site in space.universe.sites:
        assert (oracles.fractions(family._tables[(site,)])
                == oracles.joint_conditional(space, joint, (site,))), site


@pytest.mark.parametrize("seed, n_sites, symbols", SHAPES)
def test_round_trip_equals_the_fraction_oracle(seed, n_sites, symbols):
    """The joint's own family passes; another joint's fails with the
    oracle's witnesses."""
    space, joint = joint_space(seed, n_sites, symbols)
    other = zoo.random_joint(space, random.Random(seed + 100))
    for against in (joint, other):
        for cap in CAPS:
            expected = outcome(oracles.roundtrip_reconstruction,
                               extract_singletons(space, joint), against, cap)
            assert outcome(roundtrip_reconstruction, extract_singletons(space, joint),
                           against, cap) == expected
    passing = roundtrip_reconstruction(extract_singletons(space, joint), joint)
    failing = roundtrip_reconstruction(extract_singletons(space, joint), other, 10_000)
    assert passing.passed and passing.data["mismatches"] == 0
    if n_sites > 1:
        assert not failing.passed
        assert len(failing.witnesses) == failing.data["mismatches"] > 0


def site_pairs(space):
    return [(i, j) for i in space.universe.sites for j in space.universe.sites if i != j]


@pytest.mark.parametrize("name", sorted(GATED))
def test_two_point_identity_equals_the_fraction_oracle(name):
    family = GATED[name]()
    space = family.space
    compared = 0
    for cfg in space.configurations():
        for i, j in site_pairs(space):
            for x in space.alphabet:
                for y in space.alphabet:
                    expected = oracles.two_point_identity(family, i, j, cfg, x, y) if (
                        x in hypotheses.good_symbols(family, i, (j,), cfg)
                        and y in hypotheses.good_symbols(family, j, (i,), cfg)) else None
                    if expected is None:
                        with pytest.raises(SpecforgeError, match="is not good for site"):
                            oracles.pair_two_point_identity(family, i, j, cfg, x, y)
                        continue
                    got = oracles.pair_two_point_identity(family, i, j, cfg, x, y)
                    assert all(type(side) is Fraction for side in got)
                    assert got == expected
                    assert got[0] == got[1]
                    compared += 1
    assert compared > 0


@pytest.mark.parametrize("name", ["hardcore_3", "two_tail_hardcore_4", "random_hardcore_0"])
def test_two_point_identity_raises_the_oracle_error_off_the_good_sets(name, monkeypatch):
    """With every symbol taken as good, a ratio integral leaves (0, inf)
    somewhere, and both raise the same error there."""
    family = GATED[name]()
    space = family.space
    monkeypatch.setattr(hypotheses, "good_symbols",
                        lambda family, site, context, cfg: space.alphabet.symbols)
    raised = 0
    for cfg in space.configurations():
        for i, j in site_pairs(space):
            for x in space.alphabet:
                for y in space.alphabet:
                    expected = outcome_pair(oracles.two_point_identity, family, i, j, cfg, x, y)
                    got = outcome_pair(oracles.pair_two_point_identity, family, i, j, cfg, x, y)
                    assert got == expected
                    raised += got[0] == "raised"
    assert raised > 0


def outcome_pair(run, *args):
    """The returned pair, or the type and message of the raised error."""
    try:
        return run(*args)
    except SpecforgeError as exc:
        return ("raised", type(exc).__name__, str(exc))
