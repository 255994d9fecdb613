"""Independent verification suites for constructed kernel families.

The suites check, over the finite configuration space: the
specification axioms, the two-kernel exchange identity, uniqueness
probes against perturbed alternatives, support-set identities,
consistency of finite measures with the family (and its equivalence to
consistency with singletons alone), exact reconstruction round trips,
locality diagnostics, and two-sided density ratio bounds.  What a proof
settles is counted in closed form.  Part (c) of the axioms is recorded
once per family (`_axiom_record`); the axiom report and the uniqueness
probe's self-check read it, the command line's exchange suite reads
the axiom report, and a kernel measure is marked preserved by every
region whose pair with the window passed, so the measure suites push it
only through the others.  `check_order_independence` records passing
block splits on the built families; `good_support_report` and the
uniqueness probe's re-derivation read that record and walk no point.
Without it (a suite run alone, ``replay``, a `replace_table` sibling, a
failing split) both walk their identities through `_support_failures`.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from .core import (
    Configuration,
    DomainError,
    Frozen,
    Site,
    Space,
    _line_sum,
    _pair_text,
    _reduced,
    exact,
)
from . import hypotheses
from .constructor import (
    DensityFamily,
    _pair_row,
    build_family,
)
from .hypotheses import (
    WITNESS_CAP,
    HypothesisFailure,
    HypothesisReport,
    Witness,
    _extreme_texts,
    _replay_point,
    check_order_consistency,
    check_uniqueness_condition,
    check_very_weak_positivity,
)
from .models import SingletonFamily, _joint_conditionals

__all__ = [
    "FiniteMeasure",
    "SupportClassCertificate",
    "check_specification_axioms",
    "exchange_identity",
    "uniqueness_probe",
    "good_support_report",
    "support_class_certificate",
    "check_good_support_mass",
    "check_measure_consistency",
    "roundtrip_reconstruction",
    "quasilocality_diagnostic",
    "ratio_bounds",
]


class FiniteMeasure:
    """A probability measure on the finite configuration space.

    Built from exact nonnegative rationals keyed by configuration index,
    which must total exactly 1; missing configurations carry weight 0.
    ``weights`` holds each nonzero weight as a reduced integer pair,
    ``index -> (num, den)``, so equal measures have equal weights.
    Measures are read-only, so they are shared, and ``cached`` memoises
    their support-class certificates and which kernels preserve them.
    """

    def __init__(self, space: Space, weights: Mapping[int, Fraction]):
        pairs: dict[int, tuple[int, int]] = {}
        for index, value in weights.items():
            if (isinstance(index, bool) or not isinstance(index, int)
                    or not 0 <= index < space.size):
                raise DomainError(f"not a configuration index: {index!r}")
            value = exact(value, lambda: repr(space.at(index)))
            if value < 0:
                raise DomainError(f"negative weight {value} at {space.at(index)!r}")
            if value:
                pairs[index] = value.as_integer_ratio()
        self._hold(space, pairs)

    @classmethod
    def _of_pairs(cls, space: Space, pairs: dict[int, tuple[int, int]]) -> "FiniteMeasure":
        """The measure of ``pairs``, nonzero reduced nonnegative pairs by
        configuration index, trusted but for the total, which must be 1."""
        mu = cls.__new__(cls)
        mu._hold(space, pairs)
        return mu

    def _hold(self, space: Space, pairs: dict[int, tuple[int, int]]) -> None:
        num, den = _line_sum(pairs.values())
        if num != den:
            raise DomainError(f"total mass is {_pair_text(*_reduced(num, den))}, expected 1")
        self.space = space
        self.weights = pairs
        self._cache: dict = {}

    def cached(self, key: tuple, compute: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @classmethod
    def kernel_measure(cls, dens: DensityFamily, cfg: Configuration) -> "FiniteMeasure":
        """The full-window kernel at one exterior, as a measure, built once
        per family and tail class (the only exterior it depends on).

        μ = γ_V(·|ω), V the whole window, is marked as preserved by every
        region Λ whose pair (V, Λ) has no entry in the failures of the
        family's `_axiom_record`, so `preserved_by` pushes it only
        through the regions whose pair failed.  Proof: pushing μ through
        γ_Λ sums w·γ_Λ(·|x) over μ's weights w = γ_V(x|ω), which is the
        composed row (γ_V γ_Λ)(·|ω) of `_composed_row`, term for term.
        A pair with no entry has composed = direct, γ_V γ_Λ = γ_V, at
        every exterior class of V (the fast path of the record proves it
        for all pairs at once), so μγ_Λ = μ, with zero weights dropped on
        both sides.
        """
        space = dens.space
        sites = space.universe.sites

        def compute() -> "FiniteMeasure":
            mu = cls._of_pairs(space, _mixed_row([((1, 1), _pair_row(dens, sites, cfg.index))]))
            failures = _axiom_record(dens)[2]
            mu._cache.update({("preserved_by", dens, region): True
                              for region in space.universe.subsets()
                              if (sites, region) not in failures})
            return mu

        return dens.cached(("kernel_measure", cfg.tail), compute)

    def push_kernel(self, dens: DensityFamily, region: Iterable[Site]) -> "FiniteMeasure":
        """The image measure under the region's conditional kernel, the
        `_mixed_row` of its weights and the region's pair rows."""
        space = self.space
        reg = space.universe.region(region)
        return FiniteMeasure._of_pairs(space, _mixed_row(
            (w, _pair_row(dens, reg, index)) for index, w in self.weights.items()))

    def preserved_by(self, dens: DensityFamily, region: Iterable[Site]) -> bool:
        """Does the region's kernel map the measure to itself?  Memoised."""
        reg = self.space.universe.region(region)
        return self.cached(("preserved_by", dens, reg),
                           lambda: self.push_kernel(dens, reg).same_as(self))

    def push_free(self, region: Iterable[Site]) -> "FiniteMeasure":
        """The image measure under the free kernel of a region: the
        `_mixed_row` of its weights and, at each weight's class off the
        region, the fills of positive product free weight."""
        space = self.space
        reg = space.universe.region(region)
        fills = [(offset, (num, den)) for offset, num, den in space.fill_pairs(reg) if num]
        classes = space.class_map(reg)
        return FiniteMeasure._of_pairs(space, _mixed_row(
            (w, {classes[index] + offset: kw for offset, kw in fills})
            for index, w in self.weights.items()))

    def same_as(self, other: "FiniteMeasure") -> bool:
        return self.weights == other.weights


class SupportClassCertificate(Frozen):
    """Exact masses of the bad sets under the free-smoothed measure.

    One line per (site, context): the mass that the measure, smoothed by
    the site's free kernel, puts outside the good-membership event of
    that site against that context, as a reduced integer pair.  The
    measure belongs to the support class iff every line is exactly zero.
    """

    def __init__(self, lines: dict[tuple[Site, tuple[Site, ...]], tuple[int, int]],
                 passed: bool):
        self.lines = lines
        self.passed = passed
        self._freeze()

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "lines": {
                f"{site}|{','.join(str(s) for s in ctx)}": _pair_text(*mass)
                for (site, ctx), mass in sorted(
                    self.lines.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            },
        }


def support_class_certificate(
    mu: FiniteMeasure, singletons: SingletonFamily
) -> SupportClassCertificate:
    """Membership test for the class where consistency reduces to singletons.

    Each line is the smoothed measure's weight off the good-point table
    of its (site, context), summed by `_line_sum` and reduced.  Memoised
    on the measure per family.
    """
    def compute() -> SupportClassCertificate:
        space = singletons.space
        lines: dict[tuple[Site, tuple[Site, ...]], tuple[int, int]] = {}
        for site in space.universe.sites:
            smoothed = mu.push_free((site,))
            complement = space.universe.complement((site,))
            for ctx in space.universe.subsets(complement):
                good = hypotheses._good_points(singletons, site, ctx)
                lines[(site, ctx)] = _reduced(*_line_sum(
                    w for index, w in smoothed.weights.items() if index not in good))
        return SupportClassCertificate(
            lines=lines, passed=not any(num for num, _ in lines.values()))

    return mu.cached(("certificate", singletons), compute)


def _good_core(singletons: SingletonFamily, region: tuple[Site, ...]) -> frozenset:
    """Indices where every member of ``region`` is good against the rest."""
    return frozenset.intersection(*(
        hypotheses._good_points(singletons, k, tuple(s for s in region if s != k))
        for k in region
    ))


def _support_value(dens: DensityFamily, over: tuple[Site, ...],
                   against: tuple[Site, ...], index: int) -> str | None:
    """The text of density(over) / I at the configuration ``index``,
    I = ratio_pair(over, against) read as it is, None where I is not in
    (0, inf)."""
    integral = dens.ratio_pair(over, against, index)
    if integral is None:
        return None
    num, den = dens._tables[over][index]
    return _pair_text(*_reduced(num * integral[1], den * integral[0]))


def _support_failures(dens: DensityFamily, region: tuple[Site, ...],
                      sides: list[tuple[tuple[Site, ...], tuple[Site, ...]]]):
    """The support-identity walk: ``(point, j)``, lazily, for each good-core
    point of ``region`` in index order and each j-th ``(V, W)`` of
    ``sides`` in order, where density(region) = density(V) / I(V, W)
    fails at the point or I = ratio_pair(V, W) is None.

    With ρ_Λ = a/b, ρ_V = c/d and I = e/f, the unreduced entry of the
    family's `ratio_table` of (V, W), every denominator and e positive,
    the identity holds iff a·d·e = c·b·f, so it is compared in
    integers; `_support_value` writes the value of a witness.
    """
    table = dens._tables[region]
    for point in sorted(_good_core(dens.singletons, region)):
        a, b = table[point]
        for j, (v, w) in enumerate(sides):
            i = dens.ratio_pair(v, w, point)
            c, d = dens._tables[v][point]
            if i is None or a * d * i[0] != c * b * i[1]:
                yield point, j


def _composed_row(outer: DensityFamily, outer_region: tuple[Site, ...],
                  inner: DensityFamily, inner_region: tuple[Site, ...],
                  index: int) -> dict[int, tuple[int, int]]:
    """Row of (outer kernel) followed by (inner kernel) at the exterior
    of the configuration ``index``, as `_pair_row` holds rows: the
    `_mixed_row` of the outer row's weights and the inner rows at its
    points."""
    return _mixed_row((w, _pair_row(inner, inner_region, mid))
                      for mid, w in _pair_row(outer, outer_region, index).items())


def _mixed_row(parts: Iterable[tuple[tuple[int, int], dict[int, tuple[int, int]]]]
               ) -> dict[int, tuple[int, int]]:
    """Σ w·row over ``parts``, pairs ``(w, row)`` of a nonnegative weight
    as an integer pair and a pair row: ``point -> (num, den)``, its
    weight summed by `_line_sum` and reduced, nonzero weights only, in
    order of first appearance."""
    terms: dict[int, list] = {}
    for (w_num, w_den), row in parts:
        for point, (k_num, k_den) in row.items():
            terms.setdefault(point, []).append((w_num * k_num, w_den * k_den))
    out = {point: _reduced(*_line_sum(pairs)) for point, pairs in terms.items()}
    return {point: pair for point, pair in out.items() if pair[0]}


def _covering_pairs_agree(dens: DensityFamily, region: tuple[Site, ...],
                          base: int) -> bool:
    """Does γ_Λ γ_{Λ∖x} = γ_Λ hold at the exterior class of class base
    ``base``, for Λ = ``region`` and every x in Λ?

    Under (a) and (b) of `check_specification_axioms`, every point the
    row of Λ charges agrees with its exterior ω off Λ, and the row of
    Λ∖x depends on that point only through its symbol at x.  So the
    composition is the marginal identity

        (γ_Λ γ_{Λ∖x})(σ|ω) = M_Λ(σ_x|ω) · γ_{Λ∖x}(σ | σ_x, ω),

    with M_Λ(s|ω) the mass of the row of Λ on points carrying s at x:
    one inner row per value of x, read at any charged point with that
    value.  The inner rows of distinct values charge disjoint points, so
    each weight is one product, equal to that of `_composed_row`.  The
    rows are `_pair_row`'s, each mass is summed by `_line_sum`, and each
    direct weight d is compared with M·w cross-multiplied, every
    denominator being positive.  When every inner point is a direct
    point of weight M·w, no other direct point is left: by (b) the inner
    row has mass 1, so the direct points carrying s at x and off it
    weigh M(s|ω) − M(s|ω)·1 = 0 together, and rows hold nonzero weights
    only.
    """
    space = dens.space
    q = len(space.alphabet)
    direct = _pair_row(dens, region, base)
    for site, stride in zip(region, space.strides(region)):
        weights: dict[int, list] = {}
        charged: dict[int, int] = {}
        for index, pair in direct.items():
            digit = index // stride % q
            weights.setdefault(digit, []).append(pair)
            charged.setdefault(digit, index)
        inner = tuple(s for s in region if s != site)
        for digit, pairs in weights.items():
            m_num, m_den = _line_sum(pairs)
            for index, (w_num, w_den) in _pair_row(dens, inner, charged[digit]).items():
                if index not in direct:
                    return False
                d_num, d_den = direct[index]
                if d_num * m_den * w_den != m_num * w_num * d_den:
                    return False
    return True


def _axiom_record(dens: DensityFamily) -> tuple[list, int, dict]:
    """Parts (b) and (c) of `check_specification_axioms`, once per
    family: ``(masses, pairs, failures)``.

    ``masses`` lists ``(region, index, mass)`` at each configuration
    index whose row has mass other than 1, in region then index order;
    each mass is the `_line_sum` of the class's `_pair_row`, reduced.
    ``pairs`` counts the nested pairs of (c); ``failures`` maps each
    differing (large, small) pair, in enumeration order, to the class
    base of its first differing exterior class of ``large`` and the
    index of its smallest differing point by `Configuration.key`.  When (b)
    holds and the covering pairs agree, the proof given there settles
    every pair and nothing is composed.  Otherwise (c) composes the pair
    rows pair by pair (`_composed_row`).  The axiom report, at every
    witness cap, and the uniqueness self-check read this memo.
    """
    def compute() -> tuple[list, int, dict]:
        space = dens.space
        universe = space.universe
        masses = []
        for region in universe.subsets():
            for index, (num, den) in space.per_class(region, lambda base: _line_sum(
                    _pair_row(dens, region, base).values())):
                if num != den:
                    masses.append((region, index, _reduced(num, den)))
        if not masses and all(_covering_pairs_agree(dens, region, base)
                              for region in universe.subsets()
                              for base in space.class_bases(region)):
            n, q, t = len(universe), len(space.alphabet), len(space.tail_classes)
            return masses, t * (q + 2) ** n, {}
        pairs = 0
        failures: dict = {}
        for large in universe.subsets():
            for small in universe.subsets(large):
                for base in space.class_bases(large):
                    pairs += 1
                    direct = _pair_row(dens, large, base)
                    composed = _composed_row(dens, large, dens, small, base)
                    if direct != composed:
                        point = min((i for i in direct.keys() | composed.keys()
                                     if direct.get(i) != composed.get(i)),
                                    key=lambda i: space.at(i).key)
                        failures[large, small] = (base, point)
                        break
        return masses, pairs, failures

    return dens.cached(("axiom_record",), compute)


def check_specification_axioms(
    dens: DensityFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """The three defining kernel-family properties, checked exactly.

    (a) each region's kernel row depends on the exterior only off the
    region; (b) each kernel is the point mass on events determined off
    its region (total mass 1, all of it on points agreeing with the
    exterior there); (c) applying a sub-region's kernel after a
    region's kernel changes nothing, for every nested pair.

    (a), and the off-region half of (b), hold for every density table.
    `assemble_kernel` and `_pair_row` read ``cfg`` only through its
    class base off the region, plus the offsets of the region's fills,
    which rewrite every coordinate of the region.  So the members of one
    exterior class read the same cells and give the same row, and every
    point a row charges carries ``cfg``'s coordinates off the region.
    Only the mass of (b) is left, and it is a function of the class: it
    is summed once per region and exterior class, from the pair row
    memo, and its verdict and witnesses are replayed at every
    configuration of the class (`Space.per_class`).  The two counts are
    those of a check at every region and configuration, T·q^n·2^n for n
    sites, q symbols and T tail classes.

    When (b) holds, (c) is checked on the covering pairs (Λ, Λ∖x)
    alone, composed by the marginal identity of `_covering_pairs_agree`.
    That suffices: kernels compose as matrices, so associatively.  For
    Δ = Λ, (a) puts one row on every point the row charges and (b) gives
    it mass 1, so γ_Λ γ_Λ = γ_Λ.  For Δ ⊊ Λ pick x in Λ∖Δ; by induction
    on |Λ∖Δ|, γ_{Λ∖x} γ_Δ = γ_{Λ∖x}, so
    γ_Λ γ_Δ = (γ_Λ γ_{Λ∖x}) γ_Δ = γ_Λ (γ_{Λ∖x} γ_Δ) = γ_Λ γ_{Λ∖x} = γ_Λ.
    A region of k sites has 2^k sub-regions and T·q^(n−k) exterior
    classes, so the pair-by-pair count is Σ_k C(n,k)·2^k·q^(n−k)·T =
    T·(q+2)^n, which is reported.  If (b) fails, or a covering pair
    differs, part (c) runs pair by pair from the start, so failing
    reports and their witnesses are those of the full enumeration.
    Both parts are read off the family's `_axiom_record`, and the report
    is memoised on the family per ``witness_cap``: later calls return
    the same report, which callers only read.
    """
    def compute() -> HypothesisReport:
        space = dens.space
        masses, pairs, failures = _axiom_record(dens)
        report = HypothesisReport(name="specification_axioms", passed=True)
        for region, index, mass in masses:
            report.fail(witness_cap, lambda: Witness(
                check="point_mass_off_region",
                description=(
                    f"kernel of {[str(s) for s in region]!r} has mass {_pair_text(*mass)}"
                ),
                replay=_replay_point(space.at(index), region=[str(s) for s in region]),
            ))
        for (large, small), (base, index) in failures.items():
            point = space.at(index)
            report.fail(witness_cap, lambda: Witness(
                check="consistency",
                description=(
                    f"composing {[str(s) for s in small]!r} after "
                    f"{[str(s) for s in large]!r} changes the kernel"
                ),
                replay=_replay_point(space.at(base), large=[str(s) for s in large],
                                     small=[str(s) for s in small],
                                     point_assignment=list(point.values),
                                     point_tail=point.tail),
            ))
        n, q, t = len(space.universe), len(space.alphabet), len(space.tail_classes)
        report.data = {
            "exterior_measurable": True,
            "point_mass_off_region": not masses,
            "consistent": not failures,
            "checks": {"exterior": t * q ** n * 2 ** n, "point_mass": t * q ** n * 2 ** n,
                       "nested_pairs": pairs},
        }
        return report

    return dens.cached(("specification_axioms", witness_cap), compute)


def exchange_identity(
    dens: DensityFamily,
    region_a: Iterable[Site],
    region_b: Iterable[Site],
    f: Callable[[Configuration], Fraction],
    g: Callable[[Configuration], Fraction],
    cfg: Configuration,
) -> tuple[Fraction, Fraction]:
    """Both sides of the two-kernel exchange identity at one exterior.

    Left: the joint kernel of a + b applied to f times (kernel of a
    applied to (kernel of b applied to g)).  Right: the mirror image
    with f and g (and a and b) swapped.  Equal on every family passing
    the specification axioms.
    """
    space = dens.space
    a = space.universe.region(region_a)
    b = space.universe.region(region_b)
    if set(a) & set(b):
        raise DomainError("exchange identity needs disjoint regions")
    union = space.universe.region(a + b)

    def integrate(region, index: int, h) -> Fraction:
        row = _pair_row(dens, region, index)
        return sum((Fraction(*w) * h(i) for i, w in row.items()), Fraction(0))

    def f_at(index: int) -> Fraction:
        return f(space.at(index))

    def g_at(index: int) -> Fraction:
        return g(space.at(index))

    lhs = integrate(union, cfg.index, lambda x: f_at(x) * integrate(
        a, x, lambda y: integrate(b, y, g_at)))
    rhs = integrate(union, cfg.index, lambda x: g_at(x) * integrate(
        b, x, lambda y: integrate(a, y, f_at)))
    return lhs, rhs


def uniqueness_probe(
    dens: DensityFamily,
    trials: int = 25,
    seed: int = 8141,
    witness_cap: int = WITNESS_CAP,
) -> HypothesisReport:
    """No alternative family survives the singleton-consistency test.

    First confirms the constructed family itself satisfies singleton
    consistency (composing any member site's kernel after a region's
    kernel changes nothing).  Each (Λ, {x}) is a nested pair of axiom
    (c), so this reads the family's `_axiom_record` and composes
    nothing: a failing region reports its first failing site, in region
    order, at that pair's first failing exterior class.  Then, for
    ``trials`` seeded random perturbations of one region's kernel row
    (kept normalized, made to differ), verifies each perturbed family
    violates singleton consistency for some site of the region.
    Finally re-derives every multi-site density from a closed-form solve
    at good blocks and confirms it reproduces the built table: at each
    configuration ω, each good block of Λ (the good-core points p of Λ
    in ω's class off Λ) and each k ∈ Λ, ρ_Λ(p) = ρ_k(p) / I({k}, Λ∖k, p).
    ``rederived_points`` is Σ|Λ|·q^|Λ|·|core_Λ|, each core point counted
    at the q^|Λ| members of its class.  This is the identity of
    `good_support_report` with V = {k}, so on a family carrying the
    record of passing block splits it holds everywhere (proof there) and
    nothing is walked.  Otherwise `_support_failures` walks it once per
    core point, and each failing (core point, site) is reported once:
    sorted, stably, by class base, so a class's failures keep the
    walk's order.
    """
    singletons = dens.singletons
    space = dens.space
    universe = space.universe
    uc = check_uniqueness_condition(singletons)
    if not uc.passed:
        raise HypothesisFailure(
            "uniqueness probe needs the good-mass condition", report=uc
        )
    for site in universe.sites:
        for symbol in space.alphabet:
            if space.free.weight(site, symbol) == 0:
                raise HypothesisFailure(
                    f"uniqueness probe needs strictly positive free weights; "
                    f"site {site!r} gives zero weight to {symbol!r}"
                )
    report = HypothesisReport(name="uniqueness_probe", passed=True)
    import random  # only verify draws; kept off start-up
    rng = random.Random(seed)

    multi_regions = [r for r in universe.subsets() if len(r) >= 2]

    def singleton_consistent(family: DensityFamily, region: tuple[Site, ...]) -> bool:
        return all(_pair_row(family, region, base)
                   == _composed_row(family, region, dens, (site,), base)
                   for site in region for base in space.class_bases(region))

    failures = _axiom_record(dens)[2]
    for region in multi_regions:
        site = next((s for s in region if (region, (s,)) in failures), None)
        if site is not None:
            cfg = space.at(failures[region, (site,)][0])
            report.fail(witness_cap, lambda: Witness(
                check="uniqueness_probe",
                description=(
                    "the constructed family itself fails singleton "
                    f"consistency on {[str(s) for s in region]!r}"
                ),
                replay=_replay_point(cfg, site=str(site)),
            ))

    survivors = 0
    perturbations = []
    for trial in range(trials if multi_regions else 0):
        region = multi_regions[rng.randrange(len(multi_regions))]
        reps = space.class_bases(region)
        rep = reps[rng.randrange(len(reps))]
        fills = space.fill_pairs(region)
        original = dens._tables[region]
        new_table = list(original)
        for attempt in range(10):
            raws = [rng.randint(1, 9) for _ in fills]
            m_num, m_den = _line_sum((raw * w_num, w_den)
                                     for raw, (_, w_num, w_den) in zip(raws, fills))
            for raw, (offset, _, _) in zip(raws, fills):
                new_table[rep + offset] = _reduced(raw * m_den, m_num)
            if new_table != original:
                break
        else:
            continue
        perturbed = dens._sibling(region, new_table)
        ok = singleton_consistent(perturbed, region)
        first = space.at(rep)
        perturbations.append({
            "region": [str(s) for s in region],
            "tail": first.tail,
            "exterior": list(first.values),
            "violates": not ok,
        })
        if ok:
            survivors += 1
            report.fail(witness_cap, lambda: Witness(
                check="uniqueness_probe",
                description=(
                    "a perturbed family still satisfies singleton "
                    f"consistency on {[str(s) for s in region]!r}"
                ),
                replay=_replay_point(first, region=[str(s) for s in region]),
            ))

    rederived_points = 0
    rederive_ok = True
    walk = ("block_splits",) not in dens._cache
    q = len(space.alphabet)
    for region in multi_regions:
        rederived_points += (len(region) * q ** len(region)
                             * len(_good_core(singletons, region)))
        if not walk:
            continue
        sides = [((k,), tuple(s for s in region if s != k)) for k in region]
        classes = space.class_map(region)
        for point, j in sorted(_support_failures(dens, region, sides),
                               key=lambda failure: classes[failure[0]]):
            rederive_ok = False
            report.fail(witness_cap, lambda: Witness(
                check="uniqueness_probe",
                description=(
                    "closed-form re-derivation disagrees "
                    f"with the built density on "
                    f"{[str(s) for s in region]!r}"
                ),
                replay=_replay_point(space.at(point), region=[str(s) for s in region],
                                     site=str(region[j])),
                lhs=_pair_text(*dens._tables[region][point]),
                rhs=_support_value(dens, *sides[j], point) or "undefined",
            ))
    report.data = {
        "seed": seed,
        "regions_self_checked": len(multi_regions),
        "trials": trials,
        "perturbations": perturbations,
        "surviving_alternatives": survivors,
        "rederived_points": rederived_points,
        "rederivation_ok": rederive_ok,
    }
    return report


def good_support_report(
    dens: DensityFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Support-set identities for every split of every region.

    Wherever a configuration's own symbols form a good block for a
    region (each site good against the rest of the region), the region's
    density must equal either block's density divided by the matching
    ratio integral, reading membership off the good-point tables.
    ``core_points`` is Σ|core_Λ| over the regions Λ of at least two
    sites, and ``identity_points`` is Σ|core_Λ|·(2^|Λ| − 2), one per core
    point and ordered split (V, W).

    *Passing block splits settle every identity.*  On a family carrying
    `check_order_independence`'s record of passing block splits, nothing
    is walked.  Take a core point p of Λ and a split (V, W).  The
    block-split cell (θ = W, γ = V) at p compares ρ_Λ(p) with
    ρ_W(p) / D, D being `extension_divisor` of W by V at p's class off W.
    p's own W-block is one of D's good blocks: `good_blocks` tests each
    k ∈ W against (W∖k) + V, which `good_symbols` canonicalises to Λ∖k,
    the context of p's core table for k, and that table is a union of
    whole lines along Λ∖k (below), so p's other symbols on W do not
    matter.  Every good block gives the same divisor: on a walk because
    `extension_divisor` raises unless every good block agrees with the
    first, and on `check_order_independence`'s read-off of a passing
    axiom record by step 3 of its proof (step 2 there rules out the
    raises below).  So D is the candidate at p:
    ρ_W(p)·I(V, W, p) / ρ_V(p), where ρ_W(p) > 0 and the integral, the
    same `ratio_pair` read here, lies in (0, inf), or else it raises.
    If ρ_V(p) > 0 the cell says ρ_Λ(p) = ρ_V(p) / I(V, W, p); if
    ρ_V(p) = 0, D is infinite, the cell says ρ_Λ(p) = 0, and so is the
    right side.  So every identity holds, and the report passes with the
    counts above.  Without the record (a suite run alone, ``replay``, a
    `replace_table` sibling, a failing split) `_support_failures` walks
    every core point and split, and each failure is reported with the
    values of both sides up to the first undefined one.

    Good membership of a site against a context never depends on the
    configuration inside the context, and no table can break that: each
    table `hypotheses._good_points` builds is a union of whole lines
    along every site of its context, by induction on the context.  The
    empty context has no such site.  A longer context ctx + (j,) keeps,
    by `hypotheses._full_lines`, the points of its prefix's table whose
    whole line along j lies in that table; all points of one such line
    share it, so they are kept together.  Take a kept point p and a
    point p′ on p's line along a prefix site i.  The prefix's table
    holds p′, and it holds p′'s line along j, since each point of that
    line lies on the line along i through a point of p's line along j.
    So p′ is kept, and the lines along i stay whole.  Membership is
    therefore constant on the q^|ctx| fills of each exterior class of
    the context, and the T·q^(n−|ctx|) classes give T·q^n points per
    (site, context), for n sites, q symbols and T tail classes.  With
    2^(n−1) − 1 nonempty contexts per site, ``measurability_points`` is
    n·(2^(n−1) − 1)·T·q^n.
    """
    space = dens.space
    universe = space.universe
    report = HypothesisReport(name="good_support", passed=True)
    walk = ("block_splits",) not in dens._cache
    identity_points = 0
    core_points = 0
    for region in universe.subsets():
        if len(region) < 2:
            continue
        core = len(_good_core(dens.singletons, region))
        core_points += core
        identity_points += core * (2 ** len(region) - 2)
        if not walk:
            continue
        splits = [(v, universe.region(set(region) - set(v)))
                  for r in range(1, len(region))
                  for v in itertools.combinations(region, r)]
        sides = [side for v, w in splits for side in ((v, w), (w, v))]
        failed = dict.fromkeys((point, j // 2) for point, j
                               in _support_failures(dens, region, sides))
        for point, split in failed:
            v, w = splits[split]
            values = [_support_value(dens, v, w, point), _support_value(dens, w, v, point)]
            values = values[:values.index(None)] if None in values else values
            report.fail(witness_cap, lambda: Witness(
                check="good_support",
                description=(f"support identity fails on region {[str(s) for s in region]!r} "
                             f"split {[str(s) for s in v]!r} / {[str(s) for s in w]!r}"),
                replay=_replay_point(space.at(point)),
                lhs=_pair_text(*dens._tables[region][point]),
                rhs=",".join(values) or "undefined",
            ))
    n = len(universe)
    report.data = {
        "core_points": core_points,
        "identity_points": identity_points,
        "measurability_points": (n * (2 ** (n - 1) - 1) * len(space.tail_classes)
                                 * len(space.alphabet) ** n),
    }
    return report


def check_good_support_mass(
    mu: FiniteMeasure, dens: DensityFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Zero mass off the good sets, for measures in the support class.

    If the measure's certificate passes, smoothing it by any region's free
    kernel must leave zero mass where some member site fails to be good
    against the rest of that region, site by site and for the whole-region
    intersection.  If the measure is moreover preserved by every
    single-site kernel, the measure itself must put zero mass off every
    good-membership event.  Parts whose premise fails are skipped.

    Both parts hold for every density table, so the report always passes
    and ``witness_cap`` cuts nothing.  *Smoothed.* The free kernel of Λ
    charges p only if p equals a support point s off Λ and has positive
    free weights on Λ.  Then the free kernel of k ∈ Λ charges p′ = (s with
    k rewritten to p_k), so the certificate line (k, Λ∖k) puts p′ in
    ``_good_points(k, Λ∖k)``, a union of whole lines along every site of
    Λ∖k (proof in `good_support_report`).  p differs from p′ on Λ∖k only,
    so that table, and the good core, hold p.  *Plain.* If the kernel of
    j preserves the measure, a row of j at some support point charges
    each support point p, so p_j has positive free weight, the free
    kernel of j charges p, and every certificate line (j, ctx) puts p in
    ``_good_points(j, ctx)``.  Each part reports its count in closed form
    (0 when its premise fails): n·2^(n−1) per ``*_site`` part and
    2^n − n − 1 per ``*_region`` part, for n sites.
    """
    universe = dens.space.universe
    in_class = support_class_certificate(mu, dens.singletons).passed
    singleton_ok = None
    if in_class:
        singleton_ok = all(mu.preserved_by(dens, (site,)) for site in universe.sites)
    n = len(universe)
    smoothed = (n * 2 ** (n - 1), 2 ** n - n - 1) if in_class else (0, 0)
    plain = smoothed if singleton_ok else (0, 0)
    report = HypothesisReport(name="good_support_mass", passed=True)
    report.data = {
        "in_support_class": in_class,
        "singleton_consistent": singleton_ok,
        "checked": {"smoothed_site": smoothed[0], "smoothed_region": smoothed[1],
                    "plain_site": plain[0], "plain_region": plain[1]},
    }
    return report


def check_measure_consistency(
    mu: FiniteMeasure, dens: DensityFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Support class, singleton consistency, full consistency, and their link.

    Computes (i) the support-class certificate of the measure, (ii)
    whether smoothing by each single-site kernel preserves the measure,
    (iii) whether smoothing by every region's kernel preserves it, with
    (ii) read off the single-site regions of (iii).  The report passes
    iff the advertised equivalence holds: for measures in the class, (ii)
    and (iii) agree.  Measures outside the class are flagged; no claim is
    made about them.  A kernel measure comes marked preserved by every
    region whose nested pair of axiom (c) with the window passed
    (`FiniteMeasure.kernel_measure`), so on a family passing the axioms
    nothing is pushed.
    """
    space = dens.space
    if not space.free.is_normalized:
        raise HypothesisFailure(
            "measure consistency needs normalized free weights"
        )
    report = HypothesisReport(name="measure_consistency", passed=True)
    certificate = support_class_certificate(mu, dens.singletons)

    failed = [region for region in space.universe.subsets()
              if region and not mu.preserved_by(dens, region)]
    full_fail_regions = [[str(s) for s in region] for region in failed]
    singleton_fail_sites = [str(region[0]) for region in failed if len(region) == 1]
    singleton_ok = not singleton_fail_sites
    full_ok = not full_fail_regions
    equivalence = None
    if certificate.passed:
        equivalence = singleton_ok == full_ok
        if not equivalence:
            report.fail(witness_cap, lambda: Witness(
                check="measure_consistency",
                description=(
                    "inside the support class, singleton consistency and "
                    "full consistency disagree"
                ),
                replay={
                    "singleton_consistent": singleton_ok,
                    "fully_consistent": full_ok,
                    "singleton_failures": singleton_fail_sites[:witness_cap],
                    "full_failures": full_fail_regions[:witness_cap],
                },
            ))
    report.data = {
        "in_support_class": certificate.passed,
        "certificate": certificate.as_dict(),
        "singleton_consistent": singleton_ok,
        "fully_consistent": full_ok,
        "equivalence_holds": equivalence,
    }
    return report


def roundtrip_reconstruction(
    singletons: SingletonFamily, joint: Mapping[tuple, Fraction],
    witness_cap: int = WITNESS_CAP,
) -> HypothesisReport:
    """Rebuild a joint's singleton family (`extract_singletons`), compare exactly.

    The expected densities come straight from the joint weight (section
    sums over the region divided by free weights): each region's table
    is `models._joint_conditionals`'s, the one `extract_singletons`
    reads per site.  Every region's built table, the single sites'
    included, must match it entry for entry.  The family's gates and
    default build are its memoised ones.
    """
    space = singletons.space
    sites = space.universe.sites
    weights = []
    for values in space.assignments(sites):
        w = joint.get(values)
        if w is not None:
            w = exact(w, lambda: f"joint weight of {values!r}")
        if w is None or w <= 0:
            raise DomainError(
                f"round trip needs a strictly positive joint; offending "
                f"assignment {values!r}"
            )
        weights.append(w.as_integer_ratio())
    for site, sym in itertools.product(sites, space.alphabet):
        if space.free.weight(site, sym) == 0:
            raise DomainError("round trip needs strictly positive free "
                              f"weights; zero at {site!r}/{sym!r}")
    report = HypothesisReport(name="roundtrip_reconstruction", passed=True)
    h1 = check_very_weak_positivity(singletons)
    h2 = check_order_consistency(singletons) if h1.passed else None
    report.data["positivity_passed"] = h1.passed
    report.data["order_consistency_passed"] = h2.passed if h2 is not None else None
    if not (h1.passed and h2 is not None and h2.passed):
        report.passed = False
        return report
    dens = build_family(singletons, checked=False)
    compared = 0
    mismatches = 0
    for region in space.universe.subsets():
        if not region:
            continue
        expected = _joint_conditionals(space, weights, region)
        for index, (got, want) in enumerate(zip(dens._tables[region], expected)):
            compared += 1
            if got != want:
                mismatches += 1
                report.fail(witness_cap, lambda: Witness(
                    check="roundtrip_reconstruction",
                    description=(
                        f"built density of {[str(s) for s in region]!r} "
                        "differs from the joint's conditional"
                    ),
                    replay=_replay_point(space.at(index), region=[str(s) for s in region]),
                    lhs=_pair_text(*got),
                    rhs=_pair_text(*want),
                ))
    report.data["points_compared"] = compared
    report.data["mismatches"] = mismatches
    return report


def _largest_spread(table: list[tuple[int, int]], keys: Iterable) -> tuple[int, int]:
    """The largest max − min of ``table``'s values over the groups of
    indices with equal ``keys``, the k-th key that of index k, as an
    unreduced pair over a positive denominator; (0, 1) for no group.
    Values are compared cross-multiplied, every denominator positive."""
    lo, hi = {}, {}
    for key, value in zip(keys, table):
        low = lo.get(key)
        if low is None:
            lo[key] = hi[key] = value
        elif value[0] * low[1] < low[0] * value[1]:
            lo[key] = value
        elif value[0] * hi[key][1] > hi[key][0] * value[1]:
            hi[key] = value
    best = (0, 1)
    for key, (h_num, h_den) in hi.items():
        l_num, l_den = lo[key]
        spread = (h_num * l_den - l_num * h_den, h_den * l_den)
        if spread[0] * best[1] > best[0] * spread[1]:
            best = spread
    return best


def quasilocality_diagnostic(dens: DensityFamily) -> HypothesisReport:
    """How far away can the exterior still move a region's density?

    For each region, reports the exact maximal variation of its density
    under rewrites at the exterior sites farthest from the region (in
    declared site order) and under tail-class swaps at fixed assignment.
    Purely diagnostic: the report always passes, locality shows up as
    zero variation and tail sensitivity as a nonzero entry.  Each
    region's table is read by index: grouped by the class map off the
    far sites, and by the index less its tail digit for the swaps
    (`_largest_spread`); only each reported variation is reduced.
    """
    space = dens.space
    universe = space.universe
    report = HypothesisReport(name="quasilocality", passed=True)
    per_region = {}
    assignments = [index % (space.size // len(space.tail_classes))
                   for index in range(space.size)]
    for region in universe.subsets():
        if not region:
            continue
        table = dens._tables[region]
        indices = [universe.index(s) for s in region]
        distances = {
            s: min(abs(universe.index(s) - i) for i in indices)
            for s in universe.sites
            if s not in region
        }
        dmax = max(distances.values(), default=0)
        far = universe.region(s for s, d in distances.items() if d == dmax)
        per_region["+".join(str(s) for s in region)] = {
            "far_sites": [str(s) for s in far],
            "far_distance": dmax,
            "far_variation": _pair_text(*_reduced(*_largest_spread(
                table, space.class_map(far)))),
            "tail_variation": _pair_text(*_reduced(*_largest_spread(table, assignments))),
        }
    report.data = {"regions": per_region}
    return report


def ratio_bounds(dens: DensityFamily, witness_cap: int = WITNESS_CAP) -> HypothesisReport:
    """Tightest two-sided bounds of each region's density against members.

    For each region, the extreme values of density(region)/density(site)
    over all member sites and configurations; passes iff every ratio is
    defined (no positive density over a vanishing single-site density,
    no 0/0) with finite positive extremes.  Both tables are read by
    index; each ratio is kept as an integer pair over a positive
    denominator, and a region with no vanishing member density reports
    `hypotheses._extreme_texts` of its ratios.
    """
    space = dens.space
    report = HypothesisReport(name="ratio_bounds", passed=True)
    bounds: dict[str, dict[str, str | None]] = {}
    for region in space.universe.subsets():
        if not region:
            continue
        table = dens._tables[region]
        ratios = []
        defined = True
        for site in region:
            for index, ((n_num, n_den), (d_num, d_den)) in enumerate(
                    zip(table, dens._tables[(site,)])):
                if d_num:
                    ratios.append((n_num * d_den, n_den * d_num))
                    continue
                defined = False
                report.fail(witness_cap, lambda: Witness(
                    check="ratio_bounds",
                    description=(
                        f"density of member {site!r} vanishes, no "
                        "two-sided bound for region "
                        f"{[str(s) for s in region]!r}"
                    ),
                    replay=_replay_point(space.at(index), site=str(site)),
                ))
        lower, upper = _extreme_texts(ratios) if defined else (None, None)
        bounds["+".join(str(s) for s in region)] = {"lower": lower, "upper": upper}
        if lower == "0":
            report.fail(witness_cap, lambda: Witness(
                check="ratio_bounds",
                description=(
                    f"lower ratio bound of {[str(s) for s in region]!r} "
                    "collapses to zero"
                ),
                replay={"region": [str(s) for s in region]},
            ))
    report.data = {"bounds": bounds}
    return report
