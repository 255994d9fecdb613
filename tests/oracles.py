"""Direct definitions kept as oracles for the library's shared primitives.

``naive_exterior_classes`` is the first-occurrence scan over every
configuration that ``Space.exterior_classes`` replaced;
``site_ratio_kernel`` and ``regional_ratio_integral`` are the two guarded
ratio integrals that ``Space.ratio_integral`` replaced, one reading a
singleton family site by site and one reading a density family region by
region.

``block_kernel``, ``BlockKernel.apply``, ``kernel_row`` and
``exchange_identity`` are the block-keyed kernel the library used before
``assemble_kernel`` returned rows keyed by point: weights per block of
the region with zeros kept, integrated by overlaying each block on the
exterior, and turned into point-keyed rows by overlaying once more.

``measure_consistency`` is the measure-consistency check that pushed
the measure through every single-site kernel and then through every
region's kernel, single sites again included.

``pair_divisor`` is the one-site case of ``extension_divisor``, written
against the singleton family alone: the factor dividing one site's
density when one other site joins it.

``support_class_certificate``, ``good_support_report`` and
``check_good_support_mass`` are the support suites as they were before
they read good membership off one bad-point table per (site, context):
they ask ``site_is_good`` configuration by configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from specforge.core import INF, DomainError, ExtendedRational, ratio
from specforge.hypotheses import (
    WITNESS_CAP,
    HypothesisFailure,
    HypothesisReport,
    Witness,
    _checked_ratio_kernel,
    good_symbols,
    site_is_good,
)
from specforge import verifier
from specforge.verifier import SupportClassCertificate


def naive_exterior_classes(space, hidden):
    """First configuration of each ``masked_key`` class, in enumeration order."""
    seen = set()
    for cfg in space.configurations():
        mask = space.masked_key(cfg, hidden)
        if mask in seen:
            continue
        seen.add(mask)
        yield cfg


def site_ratio_kernel(family, over, num_site, den_site, cfg):
    """Integrate density(num_site)/density(den_site) over one site.

    Returns the exact extended-rational value of the one-site free
    integral, or None when the integrand is undefined at some point of
    the sum: a 0/0 ratio, or an infinite ratio sitting on a zero-weight
    symbol.
    """
    space = family.space
    idx = space.universe.index(over)
    values = cfg.values
    tail = cfg.tail
    total = Fraction(0)
    infinite = False
    for symbol in space.alphabet:
        w = space.free.weight(over, symbol)
        point = values[:idx] + (symbol,) + values[idx + 1:]
        num = family.density_at(num_site, point, tail)
        den = family.density_at(den_site, point, tail)
        if den == 0:
            if num == 0 or w == 0:
                return None
            infinite = True
        elif w != 0 and num != 0:
            total += w * num / den
    if infinite:
        return INF
    return ExtendedRational(total)


def regional_ratio_integral(dens, over, num_region, den_region, cfg):
    """Free integral over a region of density(num)/density(den).

    Same guarded semantics as the single-site version: an undefined
    point (0/0, or an infinite ratio carrying zero free weight) makes
    the whole integral undefined, reported as None.
    """
    space = dens.space
    total = Fraction(0)
    infinite = False
    for fill in space.assignments(over):
        w = space.product_weight(over, fill)
        point = space.overlay(cfg, over, fill)
        num = dens.density(num_region, point)
        den = dens.density(den_region, point)
        if den == 0:
            if num == 0 or w == 0:
                return None
            infinite = True
        elif w != 0 and num != 0:
            total += w * num / den
    if infinite:
        return INF
    return ExtendedRational(total)


@dataclass(frozen=True)
class BlockKernel:
    """Weights over a region's blocks at one exterior, zeros kept."""

    region: tuple
    exterior: object
    weights: dict

    def apply(self, h, space) -> Fraction:
        """Integrate a rational-valued observable against the kernel."""
        total = Fraction(0)
        for block, w in self.weights.items():
            if w == 0:
                continue
            total += w * h(space.overlay(self.exterior, self.region, block))
        return total


def block_kernel(dens, region, cfg) -> BlockKernel:
    """weight(block) = density(region, block over cfg) * free weight."""
    space = dens.space
    reg = space.universe.region(region)
    weights = {}
    for block in space.assignments(reg):
        point = space.overlay(cfg, reg, block)
        weights[block] = dens.density(reg, point) * space.product_weight(reg, block)
    return BlockKernel(region=reg, exterior=cfg, weights=weights)


def kernel_row(dens, region, cfg) -> dict:
    """Kernel weights of a region at one exterior, keyed by target point."""
    space = dens.space
    table = block_kernel(dens, region, cfg)
    return {
        space.overlay(cfg, table.region, block).key: w
        for block, w in table.weights.items()
        if w != 0
    }


def exchange_identity(dens, region_a, region_b, f, g, cfg):
    """Both sides of the two-kernel exchange identity, via ``apply``."""
    space = dens.space
    a = space.universe.region(region_a)
    b = space.universe.region(region_b)
    union = space.universe.region(a + b)
    outer = block_kernel(dens, union, cfg)
    lhs = outer.apply(
        lambda x: f(x) * block_kernel(dens, a, x).apply(
            lambda y: block_kernel(dens, b, y).apply(g, space), space
        ),
        space,
    )
    rhs = outer.apply(
        lambda x: g(x) * block_kernel(dens, b, x).apply(
            lambda y: block_kernel(dens, a, y).apply(f, space), space
        ),
        space,
    )
    return lhs, rhs


def measure_consistency(mu, dens, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Support class, singleton and full consistency, from two loops."""
    space = dens.space
    report = HypothesisReport(name="measure_consistency", passed=True)
    certificate = verifier.support_class_certificate(mu, dens.singletons)
    singleton_ok = True
    singleton_fail_sites = []
    for site in space.universe.sites:
        if not mu.push_kernel(dens, (site,)).same_as(mu):
            singleton_ok = False
            singleton_fail_sites.append(str(site))
    full_ok = True
    full_fail_regions = []
    for region in space.universe.subsets():
        if not region:
            continue
        if not mu.push_kernel(dens, region).same_as(mu):
            full_ok = False
            full_fail_regions.append([str(s) for s in region])
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


def pair_divisor(family, site, other, cfg) -> ExtendedRational:
    """The exact factor dividing one site's density when another joins.

    Evaluated as (density(site)/density(other) times the ratio integral
    of other against site) at the configuration rewritten so that
    ``site`` carries a good symbol against context {other}.  The value
    is independent of which good symbol is chosen; all choices are
    evaluated and checked for agreement.  Infinite exactly when
    density(other) vanishes at the rewritten point.  Depends on ``cfg``
    only off ``site``.
    """
    if site == other:
        raise DomainError(f"pair divisor needs two distinct sites, got {site!r}")
    good = good_symbols(family, site, (other,), cfg)
    if not good:
        raise HypothesisFailure(
            f"no good symbol for site {site!r} against context "
            f"[{other!r}]; very weak positivity fails at {cfg!r}"
        )
    seen = []
    for x in good:
        shifted = cfg.with_sites({site: x})
        num = family.density(site, shifted)
        den = family.density(other, shifted)
        integral = _checked_ratio_kernel(
            family, other, other, site, shifted, "pair_divisor"
        )
        seen.append((x, ratio(num, den) * ExtendedRational(integral)))
    first_sym, first_val = seen[0]
    for sym, val in seen[1:]:
        if val != first_val:
            raise HypothesisFailure(
                f"pair divisor of {site!r} against {other!r} at {cfg!r} "
                f"disagrees across good symbols: {first_val} via "
                f"{first_sym!r} vs {val} via {sym!r}; order consistency "
                "fails"
            )
    return first_val


def support_class_certificate(mu, singletons) -> SupportClassCertificate:
    """Bad masses summed configuration by configuration."""
    space = singletons.space
    lines = {}
    passed = True
    for site in space.universe.sites:
        smoothed = mu.push_free((site,))
        complement = space.universe.complement((site,))
        for ctx in space.universe.subsets(complement):
            bad = Fraction(0)
            for cfg in space.configurations():
                w = smoothed.weights.get(cfg.key)
                if w and not site_is_good(singletons, site, ctx, cfg):
                    bad += w
            lines[(site, ctx)] = bad
            if bad != 0:
                passed = False
    return SupportClassCertificate(lines=lines, passed=passed)


def good_support_report(dens, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Support-set identities for every split of every region.

    Wherever a configuration's own symbols form a good block for a
    region (each site good against the rest of the region), the region's
    density must equal either block's density divided by the matching
    ratio integral.  Also verifies that good-membership of a site
    against a context never depends on the configuration inside the
    context.
    """
    space = dens.space
    universe = space.universe
    singletons = dens.singletons
    report = HypothesisReport(name="good_support", passed=True)
    identity_points = 0
    member_points = 0
    measurability_points = 0

    def in_core(region, cfg):
        return all(
            site_is_good(
                singletons, site,
                tuple(s for s in region if s != site), cfg,
            )
            for site in region
        )

    for region in universe.subsets():
        if len(region) < 2:
            continue
        splits = []
        members = set(region)
        for r in range(1, len(region)):
            for v in itertools.combinations(region, r):
                v = universe.region(v)
                w = universe.region(members - set(v))
                splits.append((v, w))
        for cfg in space.configurations():
            if not in_core(region, cfg):
                continue
            member_points += 1
            for v, w in splits:
                identity_points += 1
                int_v = space.ratio_integral(
                    v, dens._tables[v], dens._tables[w], cfg.values, cfg.tail)
                int_w = space.ratio_integral(
                    w, dens._tables[w], dens._tables[v], cfg.values, cfg.tail)
                built = dens.density(region, cfg)
                ok = True
                values = []
                for num_region, integral in ((v, int_v), (w, int_w)):
                    if integral is None or integral.is_infinite or integral == 0:
                        ok = False
                        break
                    values.append(
                        dens.density(num_region, cfg) / integral.fraction
                    )
                if not ok or any(val != built for val in values):
                    report.fail(witness_cap, lambda: Witness(
                        check="good_support",
                        description=(
                            "support identity fails on region "
                            f"{[str(s) for s in region]!r} split "
                            f"{[str(s) for s in v]!r} / "
                            f"{[str(s) for s in w]!r}"
                        ),
                        replay={"assignment": list(cfg.values),
                                "tail": cfg.tail},
                        lhs=str(built),
                        rhs=",".join(str(x) for x in values) or "undefined",
                    ))
    for site in universe.sites:
        complement = universe.complement((site,))
        for ctx in universe.subsets(complement):
            if not ctx:
                continue
            for cfg in space.exterior_classes(ctx):
                base = site_is_good(singletons, site, ctx, cfg)
                for fill in space.assignments(ctx):
                    measurability_points += 1
                    if site_is_good(
                        singletons, site, ctx, space.overlay(cfg, ctx, fill)
                    ) != base:
                        report.fail(witness_cap, lambda: Witness(
                            check="good_support",
                            description=(
                                f"good membership of {site!r} against "
                                f"{[str(s) for s in ctx]!r} depends on "
                                "the context's own symbols"
                            ),
                            replay={"assignment": list(cfg.values),
                                    "tail": cfg.tail,
                                    "fill": list(fill)},
                        ))
    report.data = {
        "core_points": member_points,
        "identity_points": identity_points,
        "measurability_points": measurability_points,
    }
    return report


def check_good_support_mass(mu, dens, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Zero mass off the good sets, for measures in the support class.

    If the measure's certificate passes, smoothing it by any region's free
    kernel must leave zero mass where some member site fails to be good
    against the rest of that region, site by site and for the whole-region
    intersection.  If the measure is moreover preserved by every
    single-site kernel, the measure itself must put zero mass off every
    good-membership event.  Parts whose premise fails are skipped and
    recorded as out of scope.
    """
    space = dens.space
    singletons = dens.singletons
    report = HypothesisReport(name="good_support_mass", passed=True)
    certificate = support_class_certificate(mu, singletons)
    in_class = certificate.passed
    counts = {"smoothed_site": 0, "smoothed_region": 0,
              "plain_site": 0, "plain_region": 0}

    def bad_mass(measure, predicate):
        total = Fraction(0)
        for cfg in space.configurations():
            w = measure.weights.get(cfg.key)
            if w and not predicate(cfg):
                total += w
        return total

    singleton_ok = None
    if in_class:
        for region in space.universe.subsets():
            if not region:
                continue
            smoothed = mu.push_free(region)
            for k in region:
                ctx = tuple(s for s in region if s != k)
                counts["smoothed_site"] += 1
                mass = bad_mass(
                    smoothed,
                    lambda c, k=k, ctx=ctx: site_is_good(singletons, k, ctx, c),
                )
                if mass != 0:
                    report.fail(witness_cap, lambda: Witness(
                        check="good_support_mass",
                        description=(
                            "free-smoothed measure of "
                            f"{[str(s) for s in region]!r} charges "
                            f"configurations where {k!r} is not good"
                        ),
                        replay={"region": [str(s) for s in region],
                                "site": str(k), "mass": str(mass)},
                    ))
            if len(region) >= 2:
                counts["smoothed_region"] += 1
                mass = bad_mass(
                    smoothed,
                    lambda c, region=region: all(
                        site_is_good(
                            singletons, k,
                            tuple(s for s in region if s != k), c,
                        )
                        for k in region
                    ),
                )
                if mass != 0:
                    report.fail(witness_cap, lambda: Witness(
                        check="good_support_mass",
                        description=(
                            "free-smoothed measure charges the complement "
                            f"of the good core of {[str(s) for s in region]!r}"
                        ),
                        replay={"region": [str(s) for s in region],
                                "mass": str(mass)},
                    ))
        singleton_ok = all(
            mu.push_kernel(dens, (site,)).same_as(mu)
            for site in space.universe.sites
        )
        if singleton_ok:
            for j in space.universe.sites:
                for ctx in space.universe.subsets(space.universe.complement((j,))):
                    counts["plain_site"] += 1
                    mass = bad_mass(
                        mu,
                        lambda c, j=j, ctx=ctx: site_is_good(singletons, j, ctx, c),
                    )
                    if mass != 0:
                        report.fail(witness_cap, lambda: Witness(
                            check="good_support_mass",
                            description=(
                                "the measure itself charges configurations "
                                f"where {j!r} is not good against "
                                f"{[str(s) for s in ctx]!r}"
                            ),
                            replay={"site": str(j),
                                    "context": [str(s) for s in ctx],
                                    "mass": str(mass)},
                        ))
            for region in space.universe.subsets():
                if len(region) < 2:
                    continue
                counts["plain_region"] += 1
                mass = bad_mass(
                    mu,
                    lambda c, region=region: all(
                        site_is_good(
                            singletons, k,
                            tuple(s for s in region if s != k), c,
                        )
                        for k in region
                    ),
                )
                if mass != 0:
                    report.fail(witness_cap, lambda: Witness(
                        check="good_support_mass",
                        description=(
                            "the measure itself charges the complement of "
                            f"the good core of {[str(s) for s in region]!r}"
                        ),
                        replay={"region": [str(s) for s in region],
                                "mass": str(mass)},
                    ))
    report.data = {
        "in_support_class": in_class,
        "singleton_consistent": singleton_ok,
        "checked": counts,
    }
    return report
