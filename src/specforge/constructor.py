"""Recursive construction of multi-site densities and kernel tables.

Starting from a checked family of single-site densities, every larger
region gets its density by repeatedly dividing out an *extension
divisor*: the exact factor by which a region's density shrinks when a
new block of sites joins it.  The end product is a `DensityFamily`
holding one exact table per subset of the universe, from which finite
conditional-probability kernels are assembled on demand.

The construction itself makes choices (which good block to evaluate at,
which order to sweep the sites, how to split a region into blocks) that
provably do not matter.  Inline, every good block is evaluated and
compared.  The dedicated `check_order_independence` suite reads the
rest off a passing record of the specification axioms when the free
weights are positive (the construction theorem run in reverse, proof
there), and otherwise re-verifies it by walking every sweep and block
split.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    Configuration,
    DomainError,
    ExtendedRational,
    Site,
    SpecforgeError,
    exact,
)
from .hypotheses import (
    WITNESS_CAP,
    HypothesisFailure,
    HypothesisReport,
    Witness,
    check_order_consistency,
    good_blocks,
)
from .models import SingletonFamily, Tabulated

__all__ = [
    "ConstructionError",
    "DensityFamily",
    "extension_divisor",
    "extend_density",
    "build_family",
    "assemble_kernel",
    "check_order_independence",
]


class ConstructionError(SpecforgeError):
    """The recursive construction cannot proceed or contradicts itself."""

    def __init__(self, message: str, witness: Witness | None = None):
        super().__init__(message)
        self.witness = witness


class DensityFamily(Tabulated):
    """Exact density tables for every built region of the universe.

    ``density(region, cfg)`` reads the finite multi-site density; the
    empty region is the constant 1 and the single-site regions share the
    input family's table lists.  Tables are immutable once registered;
    ``replace_table`` returns a modified sibling for perturbation probes
    without touching the original.  ``cached`` memoises what the tables
    determine: one ratio table per ordered pair of regions, keyed by the
    pair, then extension divisors and one kernel row per region and
    class that the verifier reads (integer pairs or `Fraction` weights),
    each keyed by its regions and exterior class, the full-window kernel
    measure of each tail class, and the record of passing block splits
    (`check_order_independence`).  The ratio tables of two shared
    single-site tables are the singleton family's; every other pair's is
    kept here.  A sibling starts with an empty memo, so it never reads
    its parent's, and builds its own table for every pair that is not
    two shared single-site tables.
    """

    def __init__(self, singletons: SingletonFamily):
        self.singletons = singletons
        self.space = singletons.space
        ones = [Fraction(1)] * self.space.size
        self._tables = {(): ones, **singletons._tables}
        self._cache = {}

    def _integral_memo(self, over: tuple[Site, ...], against: tuple[Site, ...]) -> Tabulated:
        shared = self.singletons._tables
        if (shared.get(over) is self._tables[over]
                and shared.get(against) is self._tables[against]):
            return self.singletons
        return self

    def regions(self) -> list[tuple[Site, ...]]:
        """All built regions, smallest first, then by site order."""
        universe = self.space.universe
        return sorted(
            self._tables,
            key=lambda r: (len(r), tuple(universe.index(s) for s in r)),
        )

    def density(self, region: Iterable[Site], cfg: Configuration) -> Fraction:
        reg = tuple(region)
        table = self._tables.get(reg)
        if table is None:
            reg = self.space.universe.region(reg)
            table = self._tables.get(reg)
        if table is None:
            raise DomainError(f"region {reg!r} has not been built")
        return table[cfg.index]

    def table(self, region: Iterable[Site]) -> tuple[Fraction, ...]:
        """The region's values, the k-th at configuration index k."""
        reg = self.space.universe.region(region)
        if reg not in self._tables:
            raise DomainError(f"region {reg!r} has not been built")
        return tuple(self._tables[reg])

    def replace_table(self, region: Iterable[Site],
                      values: Sequence[Fraction]) -> "DensityFamily":
        """A sibling with one region's table swapped for ``values``, the
        k-th at configuration index k, each an exact nonnegative rational."""
        space = self.space
        reg = space.universe.region(region)
        if reg not in self._tables:
            raise DomainError(f"region {reg!r} has not been built")
        if len(values) != space.size:
            raise DomainError(f"replacement table holds {len(values)} values; "
                              f"expected one per configuration, {space.size}")
        sibling = DensityFamily.__new__(DensityFamily)
        sibling.singletons = self.singletons
        sibling.space = space
        sibling._tables = dict(self._tables)
        table = sibling._tables[reg] = []
        for index, value in enumerate(values):
            value = exact(value, lambda: f"region {reg!r}, {space.at(index)!r}")
            if value < 0:
                raise DomainError(f"negative density at region {reg!r}, {space.at(index)!r}")
            table.append(value)
        sibling._cache = {}
        return sibling


def extension_divisor(
    dens: DensityFamily,
    theta: Iterable[Site],
    gamma: Iterable[Site],
    cfg: Configuration,
) -> ExtendedRational:
    """The factor dividing a region's density when a block joins it.

    Evaluated as (density(theta)/density(gamma) times the regional ratio
    integral of gamma against theta) at the configuration rewritten so
    theta carries a good block; every good block is evaluated and must
    agree.  The value lies in (0, inf]; it is infinite exactly when
    density(gamma) vanishes at the rewritten point.  Depends on ``cfg``
    only off theta.  Each block's point is the class index of ``cfg``
    off theta plus the block's digits times theta's strides, and its
    value is the integer pair (num(rho_theta)·den(rho_gamma)·num(I),
    den(rho_theta)·num(rho_gamma)·den(I)), with (num(I), den(I)) the
    family's `ratio_pair`, the unreduced entry of its `ratio_table` of
    gamma against theta, a zero second member being the infinite
    value.  Both first members are positive, so two pairs
    agree iff they cross-multiply equal, infinite ones included; one
    `ExtendedRational` is built per divisor.
    """
    space = dens.space
    th = space.universe.region(theta)
    ga = space.universe.region(gamma)
    if not set(th).isdisjoint(ga):
        raise DomainError("extension blocks must be disjoint")
    if not ga:
        raise DomainError("the joining block must be nonempty")
    for reg in (th, ga):
        if reg not in dens._tables:
            raise ConstructionError(f"region {reg!r} has not been built yet")
    base = space.class_index(cfg, th)

    def compute() -> ExtendedRational:
        blocks = good_blocks(dens.singletons, th, ga, cfg)
        if not blocks:
            raise ConstructionError(
                f"no good block for region {th!r} against {ga!r} at {cfg!r}; "
                "very weak positivity fails"
            )
        digits, strides = space._digits, space.strides(th)
        th_table, ga_table = dens._tables[th], dens._tables[ga]
        value: tuple[int, int] | None = None
        first_block: tuple[str, ...] | None = None
        for block in blocks:
            point = base + sum(digits[sym] * stride for sym, stride in zip(block, strides))
            num, den = th_table[point], ga_table[point]
            if num == 0:
                raise ConstructionError(
                    f"density of {th!r} vanishes at its own good block "
                    f"{block!r} at {cfg!r}; good-set guarantee violated"
                )
            shifted = space.at(point)
            integral = dens.ratio_pair(ga, th, shifted)
            if integral is None:
                raise ConstructionError(
                    f"ratio integral over {ga!r} against {th!r} at {shifted!r} "
                    "is not in (0, inf); good-set guarantee violated"
                )
            candidate = (num.numerator * den.denominator * integral[0],
                         num.denominator * den.numerator * integral[1])
            if value is None:
                value, first_block = candidate, block
            elif candidate[0] * value[1] != candidate[1] * value[0]:
                lhs, rhs = (str(ExtendedRational._of_pair(value)),
                            str(ExtendedRational._of_pair(candidate)))
                raise ConstructionError(
                    f"extension divisor of {th!r} by {ga!r} at {cfg!r} "
                    f"disagrees across good blocks: {lhs} via "
                    f"{first_block!r} vs {rhs} via {block!r}",
                    witness=Witness(
                        check="extension_divisor",
                        description="good-block disagreement",
                        replay={
                            "assignment": list(cfg.values), "tail": cfg.tail,
                            "theta": [str(s) for s in th],
                            "gamma": [str(s) for s in ga],
                            "block_first": list(first_block),
                            "block_second": list(block),
                        },
                        lhs=lhs, rhs=rhs,
                    ),
                )
        return ExtendedRational._of_pair(value)

    return dens.cached(("extension_divisor", th, ga, base), compute)


def _extended_cells(dens: DensityFamily, th: tuple[Site, ...],
                    gamma: Iterable[Site]):
    """``(cfg, num, den)`` per configuration, lazily, with den > 0 and
    num/den = density(th)/divisor, one divisor per exterior class of
    ``th``; an infinite divisor gives 0."""
    def reciprocal(cfg: Configuration) -> tuple[int, int]:
        divisor = extension_divisor(dens, th, gamma, cfg)
        if divisor.is_infinite:
            return 0, 1
        return divisor.fraction.denominator, divisor.fraction.numerator

    for cfg, (num, den) in dens.space.per_class(th, reciprocal):
        value = dens._tables[th][cfg.index]
        yield cfg, value.numerator * num, value.denominator * den


def extend_density(
    dens: DensityFamily,
    theta: Iterable[Site],
    gamma: Iterable[Site],
) -> list[Fraction]:
    """Flat density table for theta + gamma: density(theta) over the divisor.

    Built over every configuration with one `extension_divisor` call per
    exterior class of theta; an infinite divisor contracts to the exact
    value 0, so the stored table is finite everywhere.  The table is
    returned, not registered; `build_family` owns the bookkeeping.
    """
    th = dens.space.universe.region(theta)
    return [Fraction(num, den) for _, num, den in _extended_cells(dens, th, gamma)]


def build_family(
    singletons: SingletonFamily,
    sweep: Iterable[Site] | None = None,
    checked: bool = True,
) -> DensityFamily:
    """Construct the density of every region by sweeping sites in order.

    Each region's density divides the region-minus-last-site density by
    the extension divisor of that single joining site, where "last" is
    relative to ``sweep`` (default: the universe's declared site order).
    With ``checked`` true (the default) the positivity and
    order-consistency hypotheses are verified first (order consistency
    runs the positivity check itself) and failures are raised as
    construction errors.  The family built under each sweep order is
    memoised on ``singletons``, so a second build returns the same
    family, its divisor and kernel-row memos included.
    """
    space = singletons.space
    universe = space.universe
    if sweep is None:
        order = universe.sites
    else:
        order = tuple(sweep)
        if len(order) != len(universe.sites) or set(order) != set(universe.sites):
            raise DomainError(
                f"sweep {order!r} is not a permutation of the universe"
            )
    if checked:
        try:
            h2 = check_order_consistency(singletons)
        except HypothesisFailure as exc:
            h1 = exc.report
            if h1 is None:
                raise
            first = h1.witnesses[0] if h1.witnesses else None
            raise ConstructionError(
                "cannot build: very weak positivity fails "
                f"({h1.data['violations']} index points)", witness=first,
            ) from exc
        if not h2.passed:
            first = h2.witnesses[0] if h2.witnesses else None
            raise ConstructionError(
                "cannot build: order consistency fails "
                f"({h2.data['violations']} comparisons)", witness=first,
            )
    return singletons.cached(("family", order),
                             lambda: _sweep(singletons, order))


def _sweep(singletons: SingletonFamily, order) -> DensityFamily:
    """Build every region by joining its last site in ``order`` to the rest."""
    universe = singletons.space.universe
    dens = DensityFamily(singletons)
    position = {site: k for k, site in enumerate(order)}
    for region in universe.subsets():
        if len(region) < 2:
            continue
        swept = tuple(sorted(region, key=position.__getitem__))
        table = extend_density(dens, universe.region(swept[:-1]),
                               (swept[-1],))
        dens._tables[region] = table
    return dens


def assemble_kernel(
    dens: DensityFamily,
    region: Iterable[Site],
    cfg: Configuration,
) -> dict[int, Fraction]:
    """The finite conditional kernel of a region given its exterior.

    Returns the kernel row ``{index: weight}`` over the configuration
    indices of the points that agree with ``cfg`` off the region, nonzero
    weights only, in block order.  The weight of the point carrying
    ``block`` on the region is density(region, block over cfg) times the
    product free weight of the block.  The empty region gives the point
    mass at ``cfg``; weights depend on ``cfg`` only off the region.  Every
    call assembles a new row, which the caller owns.
    """
    space = dens.space
    reg = space.universe.region(region)
    base = space.class_index(cfg, reg)
    row: dict[int, Fraction] = {}
    for offset, w in space.fill_offsets(reg):
        weight = dens.density(reg, space.at(base + offset)) * w
        if weight:
            row[base + offset] = weight
    return row


def _sweep_orders(sites: Sequence[Site], cap: int, seed: int) -> tuple[list, bool]:
    """Every permutation of ``sites`` if there are at most ``cap``, else
    ``cap`` of them drawn by ``random.Random(seed)``, and whether drawn.

    The draw samples ranks, not a list of every permutation, and
    unranks each in the order `itertools.permutations` yields them,
    lexicographic in positions: ``sample``'s picks depend only on the
    population's length and the cap, so these are the permutations a
    sample of the listed ones would give.
    """
    count = math.factorial(len(sites))
    if count <= cap:
        return list(itertools.permutations(sites)), False
    perms = []
    for rank in random.Random(seed).sample(range(count), cap):
        pool = list(sites)
        perm = []
        for size in range(len(pool), 0, -1):
            position, rank = divmod(rank, math.factorial(size - 1))
            perm.append(pool.pop(position))
        perms.append(tuple(perm))
    return perms, True


def check_order_independence(
    singletons: SingletonFamily,
    permutation_cap: int = 24,
    seed: int = 20260819,
    witness_cap: int = WITNESS_CAP,
) -> HypothesisReport:
    """Site-sweep order and extension granularity must not matter.

    For every permutation of the universe (or a seeded sample of
    ``permutation_cap`` permutations when there are more) it reports the
    first region whose table a sweep in that order builds differently
    from the default build, which `build_family` memoises.  It also
    reports every ordered split of every region into two nonempty
    disjoint blocks θ, γ whose *block* extension, density(θ)/divisor,
    does not reproduce the stored table.  ``block_splits_tested`` is
    Σ_{|R|≥2} (2^|R| − 2) on a passing family.  When every block split
    passes, the verdict is recorded on every family `build_family` has
    memoised for ``singletons``, the reference among them, under
    ``("block_splits",)``; `good_support_report` and `uniqueness_probe`
    read the record.

    *Read off the axioms.*  If the reference family carries a passing
    record of axioms (b) and (c) (`verifier._axiom_record`: no mass
    other than 1, no failing nested pair) and every free weight is
    positive, every split and every sweep passes, and the report is
    the closed form above with no mismatch and no failure; nothing is
    computed.  The record is read, never computed here: a failing one
    costs the full pair enumeration, and the walk would still follow.
    Proof.  Take a region R = θ⊔γ, ω the exterior off R, λ the free
    measure.
    1. Axiom (c) on (R, θ) at a point σ reads
       ρ_R(σ)·λ(σ_R) = λ(σ_R)·ρ_θ(σ)·m_θ(σ_γ, ω), m_θ(σ_γ, ω) being
       Σ_τ λ(τ)·ρ_R(τ, σ_γ, ω) over the fills τ of θ.  λ(σ_R) > 0
       cancels: ρ_R(σ) = ρ_θ(σ)·m_θ(σ_γ, ω), and symmetrically
       ρ_R(σ) = ρ_γ(σ)·m_γ(σ_θ, ω).
    2. Very weak positivity, checked by the build, gives a good block ξ
       of θ against γ; each ξ_k is good against (θ∖k)∪γ, so ρ_k > 0 at
       every rewrite of that context.  At any τ_γ, (b) on θ gives a
       point with ρ_θ > 0; switch its θ-coordinates to ξ one at a time.
       Step 1 on (θ, {k}) writes ρ_θ = ρ_k·m_k, with m_k not reading
       site k; m_k > 0 before the switch and ρ_k > 0 after it, so
       ρ_θ(ξ, τ_γ, ω) > 0 for every τ_γ.  The ratio integral
       I(ξ, ω) = Σ_τ λ(τ)·ρ_γ/ρ_θ at (ξ, τ, ω), over the fills τ of γ,
       is then defined and finite, and positive since (b) on γ puts
       mass 1 on the fiber.  So `extension_divisor`'s "good-set
       guarantee violated" raises cannot fire.
    3. At (ξ, τ_γ, ω), where ρ_θ > 0 by step 2, step 1 gives
       m_θ(τ_γ, ω) = m_γ(ξ, ω)·ρ_γ/ρ_θ.  (b) on R gives 1 = Σ λ·ρ_R
       over the fills of R; summed over θ first, that is
       Σ_τ λ(τ)·m_θ(τ, ω) over the fills τ of γ, so by the line above
       1 = m_γ(ξ, ω)·I(ξ, ω).  Hence
       m_θ(σ_γ, ω) = ρ_γ(p)/(ρ_θ(p)·I(ξ, ω)) = 1/D, p = (ξ, σ_γ, ω)
       and D the divisor's value at ξ, infinite iff ρ_γ(p) = 0, at
       *every* good block.  So every good block gives the same divisor,
       and every cell holds: ρ_R(σ) = ρ_θ(σ)·m_θ(σ_γ, ω) = ρ_θ(σ)/D.
    In particular every join J(R, x) below holds, and by its induction
    every sweep builds the reference's tables.

    *The walk*, without the premises (a zero free weight, no record, as
    for a suite run alone, ``replay`` or a custom `sweep`, or a failing
    record), settles the sweeps without rebuilding one.  `_sweep` builds
    region R as ``extend_density`` of R minus x by (x,), x being R's
    last swept site, and that reads only the tables of R minus x and
    {x}.  Let J(R, x) say that this join on the default tables gives R's
    default table, and R* be the first region of size at least 2, by
    size and then site order, with J false.  R minus x precedes R, so by
    induction every region before R* is rebuilt equal to the default,
    and R* is rebuilt as its join on default tables, which differs.  So
    one ``extend_density`` per (R, x) settles every sweep.  Only a
    raised `ConstructionError` can differ from a full rebuild, which
    also runs joins past a sweep's first mismatch, on wrong tables: its
    message may name another join, or a rebuild may raise where this
    suite reports a mismatch.
    Then every split is walked with one divisor per exterior class of
    θ, up to its first mismatching cell.  A split (R minus x, {x})
    walks the cells of J(R, x), so it passes unwalked if the sweeps
    found that join true, and walks to its witness if false.  A cell
    compares density(θ)·den(divisor) with the stored value times
    num(divisor) as integers.  A raise leaves the check unfinished.
    """
    space = singletons.space
    report = HypothesisReport(name="order_independence", passed=True)
    reference = build_family(singletons, checked=True)
    perms, sampled = _sweep_orders(space.universe.sites, permutation_cap, seed)
    regions = reference.regions()
    # `verifier._axiom_record`'s (masses, pairs, failures), if computed
    record = reference._cache.get(("axiom_record",))
    if record is not None and not record[0] and not record[2] and space.free.is_positive:
        counts = 0, sum(2 ** len(r) - 2 for r in regions if len(r) >= 2), 0
    else:
        counts = _walk_orders(reference, regions, perms, report, witness_cap)
    mismatched_perms, split_checks, split_failures = counts
    if not split_failures:
        for key, family in singletons._cache.items():
            if key[0] == "family":
                family._cache[("block_splits",)] = True
    report.data = {
        "permutations_tested": len(perms),
        "permutations_sampled": sampled,
        "permutation_mismatches": mismatched_perms,
        "block_splits_tested": split_checks,
        "block_split_failures": split_failures,
    }
    return report


def _walk_orders(reference: DensityFamily, regions: list, perms: list,
                 report: HypothesisReport, witness_cap: int) -> tuple[int, int, int]:
    """The walk of `check_order_independence`: fails ``report`` per
    mismatch and returns (permutation mismatches, block splits tested,
    block split failures)."""
    space = reference.space
    joins: dict[tuple, bool] = {}

    def join(region: tuple[Site, ...], site: Site) -> bool:
        if (region, site) not in joins:
            rest = tuple(s for s in region if s != site)
            joins[region, site] = (extend_density(reference, rest, (site,))
                                   == reference._tables[region])
        return joins[region, site]

    mismatched_perms = 0
    for perm in perms:
        for region in regions:
            if len(region) >= 2 and not join(region, max(region, key=perm.index)):
                mismatched_perms += 1
                report.fail(witness_cap, lambda: Witness(
                    check="order_independence",
                    description=(
                        f"sweep {[str(s) for s in perm]!r} changes the "
                        f"table of region {[str(s) for s in region]!r}"
                    ),
                    replay={"sweep": [str(s) for s in perm],
                            "region": [str(s) for s in region]},
                ))
                break
    split_checks = 0
    split_failures = 0
    for region in regions:
        if len(region) < 2:
            continue
        members = set(region)
        for r in range(1, len(region)):
            for theta in itertools.combinations(region, r):
                gamma = space.universe.region(members - set(theta))
                theta = space.universe.region(theta)
                split_checks += 1
                if len(gamma) == 1 and joins.get((region, gamma[0])):
                    continue
                ok = True
                table = reference._tables[region]
                for cfg, num, den in _extended_cells(reference, theta, gamma):
                    value = table[cfg.index]
                    if num * value.denominator != value.numerator * den:
                        ok = False
                        split_failures += 1
                        report.fail(witness_cap, lambda: Witness(
                            check="order_independence",
                            description=(
                                "block extension disagrees with the "
                                "site-by-site table"
                            ),
                            replay={
                                "assignment": list(cfg.values),
                                "tail": cfg.tail,
                                "theta": [str(s) for s in theta],
                                "gamma": [str(s) for s in gamma],
                            },
                            lhs=str(Fraction(num, den)),
                            rhs=str(value),
                        ))
                        break
                if not ok:
                    break
    return mismatched_perms, split_checks, split_failures
