"""Direct definitions kept as oracles for the library's shared primitives.

``naive_exterior_classes`` is the first-occurrence scan over every
configuration that ``Space.exterior_classes`` replaced;
``site_ratio_kernel`` and ``regional_ratio_integral`` are the two guarded
ratio integrals that ``Space.ratio_integral`` replaced, one reading a
singleton family site by site and one reading a density family region by
region.
"""

from __future__ import annotations

from fractions import Fraction

from specforge.core import INF, ExtendedRational


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
