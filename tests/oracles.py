"""Direct definitions kept as oracles for the library's shared primitives.

``ExtendedRational``, with ``INF`` and ``ArithmeticDomainError``, is the
nonnegative rational extended by one infinite element, which the library
once used for ratio integrals and extension divisors; the library now
holds every value as a reduced integer pair, the infinite one as
(1, 0), and the class lives on here as the oracles' independent
reference arithmetic.  ``product_weight`` and ``fill_offsets`` are the
free-weight products the library keeps only as integer pairs
(``Space.fill_pairs``), taken afresh from ``FreeMeasure.weight`` as
`Fraction`s.  ``fraction_values`` reads a measure's weights or a
certificate's lines back as `Fraction`s, checking every pair reduced.
``push_kernel`` and ``push_free`` are a measure's images spread point by
point in `Fraction`s.  ``joint_conditional`` and
``roundtrip_reconstruction`` are a joint's conditional density per
region and the round trip against it, in `Fraction`s, as they were
before both read ``models._joint_conditionals``.
``two_point_identity`` is that public reader as it was before it read
ratio pairs, through ``checked_ratio_kernel``, and
``pair_two_point_identity`` is the reader as the library last held it,
on ratio pairs: nothing under ``src/`` read it, and order consistency's
two-site cells compare the same identity.

``normalize`` is ``models.normalize`` as it was when the first member of
each exterior class read every member's raw weight a second time to sum
the class's mass, through ``free_kernel``.

``free_kernel``, ``check_unit_mass``, ``ratio_integral``,
``covering_pairs_agree`` and ``ratio_bounds`` are the line sums and
comparisons as they were before they were done in integers: each term a
`Fraction` product added to a `Fraction` total, and each comparison one
of `Fraction` values.  ``free_kernel`` was ``Space.free_kernel``, the
integral of any function (infinite values included) over a region, and
``check_unit_mass`` is ``SingletonFamily``'s unit-mass check through it;
``covering_pairs_agree`` compares the direct row with a dict of the
products mass·w.

``build_tables`` builds every region's table of the default sweep in
`Fraction`s, from the singleton family's densities up; ``fractions``
reads a family's stored pair table back as `Fraction`s, checking each
pair reduced over a positive denominator.

``naive_index`` computes a configuration's index digit by digit, and
``masked_key`` is the tuple key (hidden sites set to None) that named
exterior classes before the class index did.
``naive_exterior_classes`` is the first-occurrence scan over every
configuration, the first member of each class, whose indices
``Space.class_bases`` lists.  ``with_sites``, ``overlay`` and
``class_index`` rewrite sites of a configuration, and find its class
base, by building the rewritten configuration through
``Space.configuration``, never by the library's stride arithmetic,
which they check;
``site_ratio_kernel`` and ``regional_ratio_integral`` are the two guarded
ratio integrals that the families' ratio tables (``Tabulated.ratio_table``)
replaced, one reading a singleton family site by site and one reading a
density family region by region.

``row_exchange_identity`` is the two-kernel exchange identity at one
exterior as the library last held it, integrating the index-keyed pair
rows; nothing under ``src/`` read it, and the command line's exchange
suite reads the specification axioms instead.
``block_kernel``, ``BlockKernel.apply``, ``kernel_row`` and
``exchange_identity`` are the block-keyed kernel the library used before
``assemble_kernel`` returned rows keyed by point: weights per block of
the region with zeros kept, integrated by overlaying each block on the
exterior, and turned into rows keyed by ``(values, tail)`` by overlaying
once more.  The library keys rows and measures by configuration index;
``keyed`` turns one of them into that key form, in the same order, for
comparison with these oracles.  ``kernel_row``,
``measure_perturbation_suite`` and ``check_specification_axioms`` keep
the key form throughout: the perturbation draw sorts the support by key,
and the axiom (c) witness names the smallest differing point by key.

``kernel_class_violations`` assembles every row at every configuration
and lists the rows that differ inside one exterior class or charge a
point off the class; ``check_specification_axioms`` takes both
properties as proven and reports no such row.

``measure_consistency`` is the measure-consistency check that pushed
the measure through every single-site kernel and then through every
region's kernel, single sites again included.

``ratio`` is the quotient of two nonnegative rationals as an extended
value, with which the extension divisors were built before they were
decided in integers.

``pair_divisor`` is the one-site case of ``extension_divisor``, written
against the singleton family alone: the factor dividing one site's
density when one other site joins it.  ``extension_divisor`` is the
library's as it was before it found each good block's point by stride
arithmetic and compared the candidates as integer pairs: each point is
an overlay, each candidate an `ExtendedRational` product, and nothing
is memoised.

``is_zero``, ``restrict``, ``free_measure``, ``expect`` and
``kernel_weights`` were methods that no library code read (of
`ExtendedRational`, `Configuration`, `FiniteMeasure` twice and
`SingletonFamily`): whether an extended value is zero, a
configuration's symbols on some sites, the product of the free weights
on one tail class as a measure, a measure's integral of a function, and
a site's kernel row (density times free weight per symbol).

``support_class_certificate``, ``good_support_report`` and
``check_good_support_mass`` are the support suites as they were before
they read good membership off one good-point table per (site, context):
they ask ``site_is_good`` configuration by configuration.
``site_is_good`` is the library's membership helper of that name,
which nothing under ``src/`` read; it asks ``hypotheses.good_symbols``.
``check_good_support_mass`` also charges every smoothed and plain part,
which ``verifier.check_good_support_mass`` proves and counts in closed
form.

``exchange_suite`` is the CLI suite as it was before it read its verdict
off the specification axioms: both sides of the exchange identity
evaluated for every site pair, exterior class off the pair and pair of
symbol indicators.

``measure_perturbation_suite`` is the CLI suite as it was before it took
full inconsistency and class membership of the perturbed measure as
proven: every trial runs ``verifier.check_measure_consistency`` on the
perturbed measure, pushing it through every region's kernel.
``membership_measurability`` is the half of ``good_support_report`` that
``verifier.good_support_report`` proves and counts in closed form: good
membership at every fill of every context against its class.

``check_order_consistency`` (with ``consistency_side``),
``extend_density``, the block-split loop of ``check_order_independence``
and the re-derivation of ``uniqueness_probe`` are those checks as they
were before they evaluated each quantity once per exterior class: every
configuration computes its own good sets, ratio integrals and extension
divisor.  ``check_order_independence`` also rebuilds the whole family
under every permutation instead of sharing tables between them.  They
look up ``good_symbols`` on its module at call time, directly or
through ``good_blocks``.  ``good_blocks`` is the library's blockwise
reader as it was before the build read its good blocks as indices off
the good-point tables (``hypotheses._block_tables``): the product of
the per-site ``good_symbols``, with no memo.  The library's
order-consistency record and extension divisors read the good-point
tables (``hypotheses._good_points``) without ``good_symbols``, and
``good_symbols`` reads them too, so a test that patches
``hypotheses._good_points`` patches the library and the oracle alike;
one that patches ``good_symbols`` no longer reaches the library's
order consistency or build.  Their guarded single-site ratio integrals
are ``checked_ratio_kernel``'s, which sums ``site_ratio_kernel`` afresh
and raises the library's ``hypotheses._kernel_failure`` outside (0, inf).

``check_pointwise_compatibility`` (with ``eight_factor_failures`` and
``pair_densities``) and ``check_bounded_positivity`` are those gates as
they were before they compared cross-multiplied integers: both sides of
every identity are built as `Fraction` values, pointwise compatibility
walks its identity also where a passing order consistency settles it,
and bounded positivity evaluates every ratio integral afresh instead of
reading the family's ratio tables, keeps its extremes as `Fraction`
values, and walks the strict identity at every cell, also where order
consistency settles it.

``check_divisor_factorization`` is the factorization lemma for ratio
integrals that no command runs: peeling one site off the base block of
a ratio integral splits it into two.  Its integrals are
``regional_ratio_integral``'s, so it reads no table of the library's.

``check_specification_axioms``, ``check_very_weak_positivity`` and
``check_uniqueness_condition`` are those checks as they were before they
read a generating set: parts (a) and (b) of the axioms assemble every
row at every configuration, part (c) composes every nested pair point
by point, and both good-set checks visit every (site, context,
exterior class) index point.  The good-set sweeps look up
``good_symbols`` on its module at call time too, and none of the three
is memoised.  The self-check of ``uniqueness_probe`` composes each
(region, member site) pair itself, as it did before it read the
library's record of part (c).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from specforge.core import DomainError, SpecforgeError, exact, parse_rational
from specforge.hypotheses import (
    WITNESS_CAP,
    HypothesisFailure,
    HypothesisReport,
    Witness,
    _kernel_failure,
    good_symbols,
)
from specforge import constructor, hypotheses, verifier
from specforge.hypotheses import _replay_point
from specforge.models import NormalizationError, SingletonFamily
from specforge.verifier import SupportClassCertificate


class ArithmeticDomainError(SpecforgeError):
    """An indeterminate extended-arithmetic contraction was attempted.

    Raised for 0 * inf, 0 / 0 and inf / inf.  These never occur along valid
    computation paths (good symbols keep every denominator usable), so hitting
    one means either bad input data or a genuine hypothesis violation; the
    message names the offending quantity and, where known, the configuration.
    """


class ExtendedRational:
    """A nonnegative rational extended with a single infinite element.

    Supports exactly the operations the kernel calculus needs: addition,
    multiplication, division and total ordering, with the conventions

        a / inf = 0        a / 0 = inf (a > 0)        a * inf = inf (a > 0)

    and hard `ArithmeticDomainError` for 0 * inf, 0 / 0 and inf / inf.
    Instances are immutable and hash-compatible with `Fraction`.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Fraction | int | ExtendedRational | None = 0):
        if isinstance(value, ExtendedRational):
            self._value = value._value
            return
        if value is None:
            self._value = None  # the infinite element
            return
        frac = exact(value, lambda: "ExtendedRational")
        if frac < 0:
            raise DomainError(f"negative value not representable: {value}")
        self._value = frac

    @classmethod
    def infinity(cls) -> "ExtendedRational":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def fraction(self) -> Fraction:
        if self._value is None:
            raise DomainError("the infinite element has no finite value")
        return self._value

    @classmethod
    def parse(cls, text: str) -> "ExtendedRational":
        text = text.strip()
        if text == "inf":
            return cls(None)
        return cls(parse_rational(text))

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"ExtendedRational({str(self)!r})"

    @staticmethod
    def _lift(other) -> "ExtendedRational":
        if isinstance(other, ExtendedRational):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return ExtendedRational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "ExtendedRational":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            return ExtendedRational(None)
        return ExtendedRational(self._value + other._value)

    __radd__ = __add__

    def __mul__(self, other) -> "ExtendedRational":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            if (self._value == 0) or (other._value == 0):
                raise ArithmeticDomainError("indeterminate product 0 * inf")
            return ExtendedRational(None)
        return ExtendedRational(self._value * other._value)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExtendedRational":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None:
            if other._value is None:
                raise ArithmeticDomainError("indeterminate quotient inf / inf")
            return ExtendedRational(None)
        if other._value is None:
            return ExtendedRational(0)
        if other._value == 0:
            if self._value == 0:
                raise ArithmeticDomainError("indeterminate quotient 0 / 0")
            return ExtendedRational(None)
        return ExtendedRational(self._value / other._value)

    def __rtruediv__(self, other) -> "ExtendedRational":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._value == other._value

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __le__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self == other or self < other

    def __gt__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other < self

    def __ge__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other <= self

    def __hash__(self) -> int:
        # Hash-compatible with Fraction so mixed comparisons stay coherent.
        return hash(self._value) if self._value is not None else hash("ExtendedRational:inf")


INF = ExtendedRational.infinity()


def product_weight(space, region, symbols) -> Fraction:
    """The product of the free weights of ``symbols`` on ``region``, site by
    site through ``FreeMeasure.weight``, as a `Fraction`."""
    return math.prod((space.free.weight(site, sym) for site, sym in zip(region, symbols)),
                     start=Fraction(1))


def fill_offsets(space, region) -> list[tuple[int, Fraction]]:
    """``(offset, weight)`` per fill of the canonical ``region``, in
    ``Space.assignments`` order: the offset is the ``naive_index`` of the
    first configuration with the fill written on ``region``, so a class
    index off ``region`` plus it indexes the class member carrying the
    fill, and the weight is its ``product_weight``."""
    first = space.at(0)
    return [(naive_index(space, with_sites(first, dict(zip(region, fill)))),
             product_weight(space, region, fill))
            for fill in space.assignments(region)]

def ratio(numerator: Fraction, denominator: Fraction) -> ExtendedRational:
    """Exact quotient of two nonnegative rationals as an extended value."""
    if denominator == 0:
        if numerator == 0:
            raise ArithmeticDomainError("indeterminate quotient 0 / 0")
        return INF
    return ExtendedRational(Fraction(numerator, denominator))


def extended(pair: tuple[int, int]) -> ExtendedRational:
    """The value of an integer pair with both members nonnegative, as
    `constructor.extension_divisor` and the ratio tables give them: a
    zero second member is infinite, else the quotient."""
    num, den = pair
    return INF if not den else ExtendedRational(Fraction(num, den))


def is_zero(value: ExtendedRational) -> bool:
    return not value.is_infinite and value.fraction == 0


def restrict(cfg, sites) -> tuple[str, ...]:
    return tuple(cfg.symbol(site) for site in sites)


def free_measure(space, tail: str) -> verifier.FiniteMeasure:
    """The free product measure on one tail class, whose indices start
    at tail_pos·q^n."""
    sites = space.universe.sites
    base = space.tail_classes.index(tail) * len(space.alphabet) ** len(sites)
    return verifier.FiniteMeasure(space, {base + offset: w
                                          for offset, w in fill_offsets(space, sites)})


def expect(mu, h) -> Fraction:
    return sum((w * h(mu.space.at(index)) for index, w in fraction_values(mu.weights).items()),
               Fraction(0))


def kernel_weights(family, site, cfg) -> dict:
    """The single-site kernel row at cfg: symbol -> density * free weight."""
    space = family.space
    base = class_index(space, cfg, (site,))
    return {sym: family.density(site, space.at(base + offset)) * w
            for sym, (offset, w) in zip(space.alphabet, fill_offsets(space, (site,)))}


def keyed(space, weights) -> dict:
    """An index-keyed row or measure weight dict keyed by ``(values, tail)``."""
    return {space.at(index).key: w for index, w in weights.items()}


def normalize(space, model) -> SingletonFamily:
    """Scale raw site weights to unit mass, reading each class's mass afresh.

    Each configuration reads its raw weight, and the first member of each
    exterior class reads every member's again inside ``free_kernel``.
    Every read refuses a negative weight, naming the configuration read.
    """
    tables = {}
    for site in space.universe:
        table = {}
        masses = {}

        def read(c):
            raw = Fraction(model.raw_value(space, site, c))
            if raw < 0:
                raise DomainError(f"negative raw weight at site {site!r}, {c!r}")
            return raw

        for cfg in space.configurations():
            raw = read(cfg)
            mkey = masked_key(space, cfg, (site,))
            if mkey not in masses:
                mass = free_kernel(space, (site,), read, cfg)
                if mass.is_infinite or is_zero(mass):
                    raise NormalizationError(
                        f"raw mass at site {site!r} is {mass} (need positive finite) at {cfg!r}"
                    )
                masses[mkey] = mass.fraction
            table[cfg.key] = raw / masses[mkey]
        tables[site] = table
    return SingletonFamily(space, tables)


def naive_index(space, cfg) -> int:
    """tail_pos·q^n + Σ_k pos(v_k)·q^(n-1-k), digit by digit."""
    q = len(space.alphabet)
    index = space.tail_classes.index(cfg.tail)
    for sym in cfg.values:
        index = index * q + space.alphabet.symbols.index(sym)
    return index


def masked_key(space, cfg, hidden) -> tuple:
    """The configuration with every ``hidden`` site's value replaced by
    None: the key that named an exterior class before the class index."""
    vals = list(cfg.values)
    for site in hidden:
        vals[space.universe.index(site)] = None
    return (tuple(vals), cfg.tail)


def naive_exterior_classes(space, hidden):
    """First configuration of each ``masked_key`` class, in enumeration order."""
    seen = set()
    for cfg in space.configurations():
        mask = masked_key(space, cfg, hidden)
        if mask in seen:
            continue
        seen.add(mask)
        yield cfg


def with_sites(cfg, assignment):
    """``cfg`` with the sites of ``assignment`` rewritten to its symbols,
    built through ``Space.configuration`` from every site's symbol: the
    ``Configuration.with_sites`` of the library before its private code
    passed configuration indices, without its stride arithmetic."""
    space = cfg.space
    symbols = {site: cfg.symbol(site) for site in space.universe}
    for site, sym in assignment.items():
        space.universe.index(site)  # refuses a site off the window
        symbols[site] = sym
    return space.configuration(symbols, cfg.tail)


def overlay(space, cfg, region, symbols):
    """``cfg`` with the sites of ``region`` rewritten to ``symbols``, by
    ``with_sites``: the library's former ``Space.overlay``."""
    return with_sites(cfg, dict(zip(region, symbols)))


def class_index(space, cfg, hidden) -> int:
    """The ``naive_index`` of ``cfg`` with every ``hidden`` site on the
    first symbol: the index of the first member of ``cfg``'s exterior
    class off ``hidden``, the library's class base."""
    first = space.alphabet.symbols[0]
    return naive_index(space, with_sites(cfg, dict.fromkeys(hidden, first)))


def free_kernel(space, sites, h, cfg) -> ExtendedRational:
    """Integrate ``h`` over the given sites against the free weights.

    The integration rewrites the named coordinates of ``cfg`` and leaves
    everything else (including the tail class) alone.  An infinite value
    of ``h`` at a zero-weight point is the indeterminate 0 * inf and
    raises, with the offending configuration in the message.
    """
    region = space.universe.region(sites)
    if not region:
        return ExtendedRational(h(cfg))
    base = class_index(space, cfg, region)
    total = Fraction(0)
    infinite = False
    for offset, w in fill_offsets(space, region):
        point = space.at(base + offset)
        value = ExtendedRational(h(point))
        if value.is_infinite:
            if w == 0:
                raise ArithmeticDomainError(
                    f"indeterminate product 0 * inf integrating over {region} at {point!r}"
                )
            infinite = True
        elif not infinite:
            total += w * value.fraction
    return INF if infinite else ExtendedRational(total)


def check_unit_mass(space, tables) -> None:
    """Unit mass of per-site flat tables, keyed by one-site region, each
    class's mass a ``free_kernel`` value compared with 1."""
    for site in space.universe:
        table = tables[(site,)]
        for cfg in naive_exterior_classes(space, (site,)):
            mass = free_kernel(space, (site,), lambda c: table[c.index], cfg)
            if mass != 1:
                raise NormalizationError(
                    f"site {site!r} has mass {mass} (expected 1) at {cfg!r}"
                )


def ratio_integral(space, over, num, den, cfg):
    """Free integral over the canonical sites ``over`` of num/den at ``cfg``,
    read from flat tables, one `Fraction` operation per term; None where
    undefined, INF where infinite."""
    base = class_index(space, cfg, over)
    total = Fraction(0)
    infinite = False
    for offset, w in fill_offsets(space, over):
        n = num[base + offset]
        d = den[base + offset]
        if d == 0:
            if n == 0 or w == 0:
                return None
            infinite = True
        elif w != 0 and n != 0:
            total += w * n / d
    return INF if infinite else ExtendedRational(total)


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
        num = family.density(num_site, space.make(point, tail))
        den = family.density(den_site, space.make(point, tail))
        if den == 0:
            if num == 0 or w == 0:
                return None
            infinite = True
        elif w != 0 and num != 0:
            total += w * num / den
    if infinite:
        return INF
    return ExtendedRational(total)


def checked_ratio_kernel(family, over, against, cfg, where) -> Fraction:
    """``site_ratio_kernel`` of ``over`` against ``against`` over ``over``
    at ``cfg``, as a `Fraction`, where the good-set definition keeps it in
    (0, inf); elsewhere it raises ``hypotheses._kernel_failure``, the
    library's error for broken good-set bookkeeping."""
    value = site_ratio_kernel(family, over, over, against, cfg)
    if value is None or value.is_infinite or is_zero(value):
        raise _kernel_failure(over, against, cfg, where)
    return value.fraction


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
        w = product_weight(space, over, fill)
        point = overlay(space, cfg, over, fill)
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
            total += w * h(overlay(space, self.exterior, self.region, block))
        return total


def block_kernel(dens, region, cfg) -> BlockKernel:
    """weight(block) = density(region, block over cfg) * free weight."""
    space = dens.space
    reg = space.universe.region(region)
    weights = {}
    for block in space.assignments(reg):
        point = overlay(space, cfg, reg, block)
        weights[block] = dens.density(reg, point) * product_weight(space, reg, block)
    return BlockKernel(region=reg, exterior=cfg, weights=weights)


def kernel_row(dens, region, cfg) -> dict:
    """Kernel weights of a region at one exterior, keyed by target point."""
    space = dens.space
    table = block_kernel(dens, region, cfg)
    return {
        overlay(space, cfg, table.region, block).key: w
        for block, w in table.weights.items()
        if w != 0
    }


def kernel_class_violations(dens) -> list:
    """Rows that read their exterior class, or move it.

    Assembles every built region's row at every configuration and
    returns the ``(region, cfg)`` whose row differs, items and order, from
    the row at the first member of ``cfg``'s exterior class, or charges a
    point that differs from ``cfg`` off the region.
    """
    space = dens.space
    violations = []
    for region in dens.regions():
        first = {}
        for cfg in space.configurations():
            mask = masked_key(space, cfg, region)
            row = list(keyed(space, constructor.assemble_kernel(dens, region, cfg)).items())
            if (row != first.setdefault(mask, row)
                    or any(masked_key(space, space.make(*key), region) != mask
                           for key, _ in row)):
                violations.append((region, cfg))
    return violations


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


def row_exchange_identity(dens, region_a, region_b, f, g, cfg):
    """Both sides of the two-kernel exchange identity at one exterior, as
    ``verifier.exchange_identity`` computed them: the joint kernel of
    a + b applied to f times (kernel of a applied to (kernel of b
    applied to g)), and the mirror image with f and g (and a and b)
    swapped, each kernel the index-keyed pair row ``_pair_row``
    integrated in `Fraction`s."""
    space = dens.space
    a = space.universe.region(region_a)
    b = space.universe.region(region_b)
    if set(a) & set(b):
        raise DomainError("exchange identity needs disjoint regions")
    union = space.universe.region(a + b)

    def integrate(region, index, h):
        row = constructor._pair_row(dens, region, index)
        return sum((Fraction(*w) * h(i) for i, w in row.items()), Fraction(0))

    def f_at(index):
        return f(space.at(index))

    def g_at(index):
        return g(space.at(index))

    lhs = integrate(union, cfg.index, lambda x: f_at(x) * integrate(
        a, x, lambda y: integrate(b, y, g_at)))
    rhs = integrate(union, cfg.index, lambda x: g_at(x) * integrate(
        b, x, lambda y: integrate(a, y, f_at)))
    return lhs, rhs


def push_kernel(mu, dens, region) -> dict:
    """The image of the measure ``mu`` under the region's kernel, in
    `Fraction`s: index -> Σ_x μ(x)·``kernel_row``(x), nonzero weights
    only, in order of first appearance."""
    space = mu.space
    out: dict = {}
    for index, w in fraction_values(mu.weights).items():
        for key, k in kernel_row(dens, region, space.at(index)).items():
            point = naive_index(space, space.make(*key))
            out[point] = out.get(point, Fraction(0)) + w * k
    return {point: v for point, v in out.items() if v}


def push_free(mu, region) -> dict:
    """The image of the measure ``mu`` under the free kernel of ``region``,
    in `Fraction`s: every weight spread over the fills of the region by
    ``product_weight``, each point found by overlay, nonzero weights only,
    in order of first appearance."""
    space = mu.space
    reg = space.universe.region(region)
    out: dict = {}
    for index, w in fraction_values(mu.weights).items():
        cfg = space.at(index)
        for fill in space.assignments(reg):
            kw = product_weight(space, reg, fill)
            if kw:
                point = naive_index(space, with_sites(cfg, dict(zip(reg, fill))))
                out[point] = out.get(point, Fraction(0)) + w * kw
    return out


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
        shifted = with_sites(cfg, {site: x})
        num = family.density(site, shifted)
        den = family.density(other, shifted)
        integral = checked_ratio_kernel(family, other, site, shifted, "pair_divisor")
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


def site_is_good(family, site, context, cfg) -> bool:
    """Is the configuration's own symbol at ``site`` a good one?

    Membership of ``cfg[site]`` in the good set of ``site`` against
    ``context`` at exterior ``cfg``, through ``hypotheses.good_symbols``
    looked up at call time.
    """
    return cfg.symbol(site) in hypotheses.good_symbols(family, site, context, cfg)


def support_class_certificate(mu, singletons) -> SupportClassCertificate:
    """Bad masses summed configuration by configuration."""
    space = singletons.space
    lines = {}
    passed = True
    for site in space.universe.sites:
        smoothed = push_free(mu, (site,))
        complement = space.universe.complement((site,))
        for ctx in space.universe.subsets(complement):
            bad = Fraction(0)
            for cfg in space.configurations():
                w = smoothed.get(cfg.index)
                if w and not site_is_good(singletons, site, ctx, cfg):
                    bad += w
            lines[(site, ctx)] = bad.as_integer_ratio()
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
                int_v = regional_ratio_integral(dens, v, v, w, cfg)
                int_w = regional_ratio_integral(dens, w, w, v, cfg)
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
    measurability_points, violations = membership_measurability(singletons)
    for site, ctx, cfg, fill in violations:
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


def membership_measurability(singletons) -> tuple[int, list]:
    """Good membership at every fill of every context, against its class.

    Visits every (site, nonempty context, exterior class of the context,
    fill of the context) point and returns their number with the list of
    ``(site, context, representative, fill)`` where ``site_is_good`` at
    the fill differs from its value at the class representative.
    """
    space = singletons.space
    universe = space.universe
    points = 0
    violations = []
    for site in universe.sites:
        for ctx in universe.subsets(universe.complement((site,))):
            if not ctx:
                continue
            for cfg in naive_exterior_classes(space, ctx):
                base = site_is_good(singletons, site, ctx, cfg)
                for fill in space.assignments(ctx):
                    points += 1
                    if site_is_good(
                        singletons, site, ctx, overlay(space, cfg, ctx, fill)
                    ) != base:
                        violations.append((site, ctx, cfg, fill))
    return points, violations


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

    def bad_mass(weights, predicate):
        total = Fraction(0)
        for cfg in space.configurations():
            w = weights.get(cfg.index)
            if w and not predicate(cfg):
                total += w
        return total

    singleton_ok = None
    if in_class:
        for region in space.universe.subsets():
            if not region:
                continue
            smoothed = push_free(mu, region)
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
        plain = fraction_values(mu.weights)
        singleton_ok = all(
            verifier.FiniteMeasure(space, push_kernel(mu, dens, (site,))).same_as(mu)
            for site in space.universe.sites)
        if singleton_ok:
            for j in space.universe.sites:
                for ctx in space.universe.subsets(space.universe.complement((j,))):
                    counts["plain_site"] += 1
                    mass = bad_mass(
                        plain,
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
                    plain,
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


def measure_perturbation_suite(dens, trials, seed) -> HypothesisReport:
    """Perturbed window measures, each checked for consistency in full."""
    space = dens.space
    report = HypothesisReport(name="measure_perturbations", passed=True)
    rng = random.Random(seed)
    tails = space.tail_classes
    performed = 0
    skipped = 0
    detected = 0
    for trial in range(trials):
        tail = tails[trial % len(tails)]
        rep = next(cfg for cfg in space.configurations() if cfg.tail == tail)
        mu = keyed(space, fraction_values(verifier.FiniteMeasure.kernel_measure(dens, rep).weights))
        support = sorted(mu)
        if len(support) < 2:
            skipped += 1
            continue
        raise_key, lower_key = rng.sample(support, 2)
        delta = mu[lower_key] / rng.randint(2, 9)
        weights = dict(mu)
        weights[raise_key] += delta
        weights[lower_key] -= delta
        outcome = verifier.check_measure_consistency(verifier.FiniteMeasure(
            space, {space.make(*key).index: w for key, w in weights.items()}), dens)
        performed += 1
        replay = {
            "trial": trial, "tail": tail,
            "raise_assignment": list(raise_key[0]),
            "lower_assignment": list(lower_key[0]),
            "delta": str(delta),
        }
        if outcome.data["fully_consistent"]:
            report.fail(WITNESS_CAP, lambda: Witness(
                check="measure_perturbations",
                description="perturbed measure stayed fully consistent",
                replay=replay,
            ))
        else:
            detected += 1
        if not outcome.passed:
            report.fail(WITNESS_CAP, lambda: Witness(
                check="measure_perturbations",
                description=(
                    "perturbed measure broke the singleton/full equivalence"
                ),
                replay=replay,
            ))
    report.data = {"seed": seed, "trials": trials, "performed": performed,
                   "skipped": skipped, "detected": detected}
    return report


def exchange_suite(dens) -> HypothesisReport:
    """Both sides of the kernel exchange identity, evaluated for every
    site pair, exterior class off the pair and pair of symbol indicators."""
    space = dens.space
    report = HypothesisReport(name="exchange_identity", passed=True)
    sites = space.universe.sites
    symbols = space.alphabet.symbols
    evaluations = 0
    for i, site_a in enumerate(sites):
        for site_b in sites[i + 1:]:
            for cfg in naive_exterior_classes(space, (site_a, site_b)):
                for sym_a in symbols:
                    for sym_b in symbols:
                        def f(x, s=site_a, v=sym_a) -> Fraction:
                            return Fraction(1 if x.symbol(s) == v else 0)

                        def g(x, s=site_b, v=sym_b) -> Fraction:
                            return Fraction(1 if x.symbol(s) == v else 0)

                        lhs, rhs = row_exchange_identity(
                            dens, (site_a,), (site_b,), f, g, cfg)
                        evaluations += 1
                        if lhs != rhs:
                            report.fail(WITNESS_CAP, lambda: Witness(
                                check="exchange_identity",
                                description=(
                                    f"indicator exchange over {site_a!r} and "
                                    f"{site_b!r} disagrees"
                                ),
                                replay={
                                    "site_a": site_a, "symbol_a": sym_a,
                                    "site_b": site_b, "symbol_b": sym_b,
                                    "assignment": list(cfg.values),
                                    "tail": cfg.tail,
                                },
                                lhs=str(lhs), rhs=str(rhs),
                            ))
    report.data = {"evaluations": evaluations,
                   "site_pairs": len(sites) * (len(sites) - 1) // 2}
    return report


def consistency_side(family, first, second, cfg, x_first) -> Fraction:
    """One side of the order-consistency identity, resolving ``first`` first.

    density(first, cfg) * density(second, shifted) divided by
    (density(first, shifted) * ratio integral of second against first at
    shifted), where shifted rewrites ``first`` to the good symbol
    ``x_first``.  Finite by the good-set guarantees.
    """
    shifted = with_sites(cfg, {first: x_first})
    integral = checked_ratio_kernel(family, second, first, shifted, "order consistency")
    num = family.density(first, cfg) * family.density(second, shifted)
    den = family.density(first, shifted) * integral
    return num / den


def check_order_consistency(family, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Resolving two sites in either order must give the same weight.

    For every configuration and every unordered pair of sites, and for
    every pair of good symbols (one per site, each against the other
    site as context), the two resolution orders are compared exactly.
    The identity is literally symmetric under swapping the pair, so each
    unordered pair is checked once.  Requires very weak positivity; if
    that fails, raises HypothesisFailure carrying its report.

    Not memoised: every call evaluates every configuration afresh.
    """
    h1 = hypotheses.check_very_weak_positivity(family)
    if not h1.passed:
        raise HypothesisFailure(
            "order consistency needs very weak positivity, which fails "
            f"at {len(h1.witnesses)} witnessed index points", report=h1,
        )
    space = family.space
    sites = space.universe.sites
    report = HypothesisReport(name="order_consistency", passed=True)
    checked = 0
    violations = 0
    for cfg in space.configurations():
        for a_pos, i in enumerate(sites):
            for j in sites[a_pos + 1:]:
                sides_i = {x: consistency_side(family, i, j, cfg, x)
                           for x in hypotheses.good_symbols(family, i, (j,), cfg)}
                sides_j = {y: consistency_side(family, j, i, cfg, y)
                           for y in hypotheses.good_symbols(family, j, (i,), cfg)}
                for x, lhs in sides_i.items():
                    for y, rhs in sides_j.items():
                        checked += 1
                        if lhs != rhs:
                            violations += 1
                            report.fail(witness_cap, lambda: Witness(
                                check="order_consistency",
                                description=(
                                    f"resolving {i!r} then {j!r} differs "
                                    f"from {j!r} then {i!r}"
                                ),
                                replay=_replay_point(
                                    cfg,
                                    site_first=str(i), site_second=str(j),
                                    symbol_first=x, symbol_second=y,
                                ),
                                lhs=str(lhs), rhs=str(rhs),
                            ))
    report.data = {"comparisons": checked, "violations": violations}
    return report


def pair_densities(family, i, j, cfg) -> tuple[dict, dict]:
    """density(i) and density(j) at ``cfg`` rewritten to each (s_i, s_j)."""
    space = family.space
    a, b = space.universe.index(i), space.universe.index(j)
    values, tail = cfg.key
    d_i: dict[tuple[str, str], Fraction] = {}
    d_j: dict[tuple[str, str], Fraction] = {}
    for s in itertools.product(space.alphabet.symbols, repeat=2):
        point = list(values)
        point[a], point[b] = s
        d_i[s] = family.density(i, space.make(tuple(point), tail))
        d_j[s] = family.density(j, space.make(tuple(point), tail))
    return d_i, d_j


def eight_factor_failures(family, i, j, cfg) -> tuple[int, list[tuple]]:
    """Comparison count and failing rows of the identity on pair {i, j}.

    Every configuration the identity reads rewrites both ``i`` and ``j``,
    so the outcome depends on ``cfg`` only off {i, j}.  Failing rows are
    ``(u_i, u_j, x_i, x_j, lhs, rhs)`` in loop order.
    """
    alphabet = family.space.alphabet.symbols
    gi = hypotheses.good_symbols(family, i, (j,), cfg)
    gj = hypotheses.good_symbols(family, j, (i,), cfg)
    d_i, d_j = pair_densities(family, i, j, cfg)
    failures = []
    for u_i in alphabet:
        for u_j in alphabet:
            for x_i in gi:
                for x_j in gj:
                    lhs = (d_i[(u_i, x_j)] * d_j[(u_i, u_j)]
                           * d_i[(x_i, u_j)] * d_j[(x_i, x_j)])
                    rhs = (d_j[(x_i, u_j)] * d_i[(u_i, u_j)]
                           * d_j[(u_i, x_j)] * d_i[(x_i, x_j)])
                    if lhs != rhs:
                        failures.append((u_i, u_j, x_i, x_j, lhs, rhs))
    return len(alphabet) ** 2 * len(gi) * len(gj), failures


def check_pointwise_compatibility(family, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Eight-factor two-site product identity, checked pointwise.

    For every configuration, unordered site pair {i, j}, arbitrary
    symbols u_i, u_j, and good symbols x_i (for i against {j}) and x_j
    (for j against {i}), the product of four densities along one rewrite
    path must equal the product along the mirrored path.  No integrals
    are involved.  Order consistency implies the identity cell by cell;
    the converse is only observed on the test families.  The identity is
    evaluated once per pair and exterior off the pair, then counted at
    every configuration that shares them, whatever order consistency
    says.
    """
    report = HypothesisReport(name="pointwise_compatibility", passed=True)
    space = family.space
    pairs = list(itertools.combinations(space.universe.sites, 2))
    outcomes = {}
    checked = 0
    violations = 0
    for cfg in space.configurations():
        for i, j in pairs:
            key = (i, j, masked_key(space, cfg, (i, j)))
            if key not in outcomes:
                outcomes[key] = eight_factor_failures(family, i, j, cfg)
            count, failures = outcomes[key]
            checked += count
            for u_i, u_j, x_i, x_j, lhs, rhs in failures:
                violations += 1
                report.fail(witness_cap, lambda: Witness(
                    check="pointwise_compatibility",
                    description=(
                        f"eight-factor identity fails on pair "
                        f"({i!r}, {j!r})"
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


def check_bounded_positivity(family, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Uniform two-sided bounds on every cross-site ratio integral.

    Passes iff for every ordered pair of distinct sites the free
    integral of density(other)/density(site) over the other site is
    defined, finite and positive at *every* configuration; the exact
    infimum and supremum per pair are reported.  When the bounds hold,
    the strict pointwise identity density(site)/integral(site against
    other) == density(other)/integral(other against site) is also
    audited and reported under data["strict_identity"].
    """
    space = family.space
    sites = space.universe.sites
    report = HypothesisReport(name="bounded_positivity", passed=True)
    bounds: dict[str, dict[str, str | None]] = {}
    integrals: dict[tuple, ExtendedRational | None] = {}
    for i in sites:
        for j in sites:
            if i == j:
                continue
            lo: Fraction | None = None
            hi: Fraction | None = None
            defined = True
            for cfg in naive_exterior_classes(space, (j,)):
                value = site_ratio_kernel(family, j, j, i, cfg)
                integrals[(i, j, masked_key(space, cfg, (j,)))] = value
                if value is None or value.is_infinite or value == 0:
                    defined = False
                    report.fail(witness_cap, lambda: Witness(
                        check="bounded_positivity",
                        description=(
                            f"ratio integral of {j!r} against {i!r} is "
                            + ("undefined" if value is None else
                               "infinite" if value.is_infinite else "zero")
                        ),
                        replay=_replay_point(
                            cfg, site=str(i), other=str(j),
                        ),
                    ))
                    continue
                f = value.fraction
                if lo is None or f < lo:
                    lo = f
                if hi is None or f > hi:
                    hi = f
            bounds[f"{i}->{j}"] = {
                "min": str(lo) if defined and lo is not None else None,
                "max": str(hi) if defined and hi is not None else None,
            }
    strict: bool | None = None
    if report.passed:
        strict = True
        for cfg in space.configurations():
            for a_pos, i in enumerate(sites):
                for j in sites[a_pos + 1:]:
                    int_ij = integrals[(i, j, masked_key(space, cfg, (j,)))]
                    int_ji = integrals[(j, i, masked_key(space, cfg, (i,)))]
                    lhs = family.density(i, cfg) / int_ji.fraction
                    rhs = family.density(j, cfg) / int_ij.fraction
                    if lhs != rhs:
                        strict = False
                        report.add_witness(witness_cap, lambda: Witness(
                            check="strict_identity",
                            description=(
                                f"pointwise density/integral identity "
                                f"fails on pair ({i!r}, {j!r})"
                            ),
                            replay=_replay_point(
                                cfg, site=str(i), other=str(j),
                            ),
                            lhs=str(lhs), rhs=str(rhs),
                        ))
    report.data = {"bounds": bounds, "strict_identity": strict}
    return report


def good_blocks(family, region, context, cfg) -> tuple:
    """Blockwise good assignments for ``region`` against ``context`` at
    ``cfg``: the cartesian product, in the canonical order of
    ``region``, of the good symbols of each site k against the rest of
    the region together with ``context``, asked of
    ``hypotheses.good_symbols`` at each call.  Empty iff some site has
    no good symbol; a region and context that overlap raise.  Nothing
    is memoised."""
    universe = family.space.universe
    reg = universe.region(region)
    ctx = universe.region(context)
    overlap = set(reg) & set(ctx)
    if overlap:
        raise DomainError(f"region and context overlap on {sorted(map(str, overlap))!r}")
    return tuple(itertools.product(*(
        hypotheses.good_symbols(family, k, tuple(s for s in reg if s != k) + ctx, cfg)
        for k in reg)))


def extension_divisor(dens, theta, gamma, cfg) -> ExtendedRational:
    """The factor dividing a region's density when a block joins it,
    evaluated afresh: each good block's point by overlay, and each
    candidate an `ExtendedRational` product compared as one."""
    space = dens.space
    th = space.universe.region(theta)
    ga = space.universe.region(gamma)
    if set(th) & set(ga):
        raise DomainError("extension blocks must be disjoint")
    if not ga:
        raise DomainError("the joining block must be nonempty")
    for reg in (th, ga):
        if reg not in dens._tables:
            raise constructor.ConstructionError(f"region {reg!r} has not been built yet")
    blocks = good_blocks(dens.singletons, th, ga, cfg)
    if not blocks:
        raise constructor.ConstructionError(
            f"no good block for region {th!r} against {ga!r} at {cfg!r}; "
            "very weak positivity fails"
        )
    value = None
    first_block = None
    for block in blocks:
        shifted = overlay(space, cfg, th, block)
        num = dens.density(th, shifted)
        den = dens.density(ga, shifted)
        if num == 0:
            raise constructor.ConstructionError(
                f"density of {th!r} vanishes at its own good block "
                f"{block!r} at {cfg!r}; good-set guarantee violated"
            )
        integral = regional_ratio_integral(dens, ga, ga, th, shifted)
        if integral is None or integral.is_infinite or is_zero(integral):
            raise constructor.ConstructionError(
                f"ratio integral over {ga!r} against {th!r} at {shifted!r} "
                "is not in (0, inf); good-set guarantee violated"
            )
        candidate = ratio(num, den) * integral
        if value is None:
            value, first_block = candidate, block
        elif candidate != value:
            raise constructor.ConstructionError(
                f"extension divisor of {th!r} by {ga!r} at {cfg!r} "
                f"disagrees across good blocks: {value} via "
                f"{first_block!r} vs {candidate} via {block!r}",
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
                    lhs=str(value), rhs=str(candidate),
                ),
            )
    return value


def extend_density(dens, theta, gamma) -> list:
    """Flat density table for theta + gamma: density(theta) over the divisor.

    Built pointwise over every configuration; an infinite divisor
    contracts to the exact value 0, so the stored table is finite
    everywhere.  The table is returned, not registered; `build_family`
    owns the bookkeeping.
    """
    space = dens.space
    th = space.universe.region(theta)
    table = []
    for cfg in space.configurations():
        divisor = extended(constructor.extension_divisor(dens, th, gamma, cfg))
        value = ExtendedRational(dens.density(th, cfg)) / divisor
        table.append(value.fraction)
    return table


def build_tables(singletons) -> dict:
    """Every region's table of the default sweep, built afresh in
    `Fraction`s, keyed by canonical region like ``DensityFamily._tables``.

    The empty region is 1 and each site's table is its densities, read
    through ``SingletonFamily.density``.  A region R joins its last site
    x to θ = R∖x: at each configuration, every good block of θ against
    {x} (``good_blocks``) gives the divisor
    ρ_θ/ρ_x · ∫ ρ_x/ρ_θ over x at the block's point, the integral by
    ``ratio_integral`` on these tables, and every block must give the
    same one; the value is ρ_θ over that divisor, 0 where it is
    infinite."""
    space = singletons.space
    configs = list(space.configurations())
    tables = {(): [Fraction(1)] * space.size}
    tables.update({(site,): [singletons.density(site, cfg) for cfg in configs]
                   for site in space.universe})
    for region in space.universe.subsets():
        if len(region) < 2:
            continue
        theta, gamma = region[:-1], region[-1:]
        table = []
        for cfg in configs:
            divisors = set()
            for block in good_blocks(singletons, theta, gamma, cfg):
                point = overlay(space, cfg, theta, block)
                integral = ratio_integral(space, gamma, tables[gamma], tables[theta], point)
                divisors.add(ratio(tables[theta][point.index], tables[gamma][point.index])
                             * integral)
            (divisor,) = divisors
            table.append((ExtendedRational(tables[theta][cfg.index]) / divisor).fraction)
        tables[region] = table
    return tables


def uniqueness_probe(dens, trials=25, seed=8141,
                     witness_cap=WITNESS_CAP) -> HypothesisReport:
    """No alternative family survives the singleton-consistency test.

    First confirms the constructed family itself satisfies singleton
    consistency (composing any member site's kernel after a region's
    kernel changes nothing).  Then, for ``trials`` seeded random
    perturbations of one region's kernel row (kept normalized, made to
    differ), verifies each perturbed family violates singleton
    consistency for some site of the region.  Finally re-derives every
    multi-site density from a closed-form solve at good blocks and
    confirms it reproduces the built table.  Every configuration re-derives
    its class's core points, so each is counted at every member of its
    class, but a failing (region, point, site) is reported only the first
    time, at the first member.
    """
    singletons = dens.singletons
    space = dens.space
    universe = space.universe
    uc = hypotheses.check_uniqueness_condition(singletons)
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
    rng = random.Random(seed)

    multi_regions = [r for r in universe.subsets() if len(r) >= 2]

    def singleton_consistent(family, region):
        for site in region:
            for cfg in naive_exterior_classes(space, region):
                direct = constructor.assemble_kernel(family, region, cfg)
                composed = composed_row(family, region, dens, (site,), cfg)
                composed = {k: v for k, v in composed.items() if v != 0}
                if direct != composed:
                    return False, {
                        "site": str(site),
                        "assignment": list(cfg.values),
                        "tail": cfg.tail,
                    }
        return True, None

    self_checked = 0
    for region in multi_regions:
        ok, where = singleton_consistent(dens, region)
        self_checked += 1
        if not ok:
            report.fail(witness_cap, lambda: Witness(
                check="uniqueness_probe",
                description=(
                    "the constructed family itself fails singleton "
                    f"consistency on {[str(s) for s in region]!r}"
                ),
                replay=where or {},
            ))

    survivors = 0
    perturbations = []
    for trial in range(trials if multi_regions else 0):
        region = multi_regions[rng.randrange(len(multi_regions))]
        reps = list(naive_exterior_classes(space, region))
        rep = reps[rng.randrange(len(reps))]
        blocks = list(space.assignments(region))
        original = dens.table(region)
        new_table = list(original)
        for attempt in range(10):
            raw = {block: Fraction(rng.randint(1, 9)) for block in blocks}
            mass = sum(
                raw[block] * product_weight(space, region, block)
                for block in blocks
            )
            row = {block: raw[block] / mass for block in blocks}
            changed = False
            for block in blocks:
                index = overlay(space, rep, region, block).index
                if original[index] != row[block]:
                    changed = True
                new_table[index] = row[block]
            if changed:
                break
        else:
            continue
        perturbed = dens.replace_table(region, new_table)
        ok, _ = singleton_consistent(perturbed, region)
        perturbations.append({
            "region": [str(s) for s in region],
            "tail": rep.tail,
            "exterior": list(rep.values),
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
                replay={"region": [str(s) for s in region],
                        "assignment": list(rep.values), "tail": rep.tail},
            ))

    rederived_points = 0
    rederive_ok = True
    reported = set()
    for region in multi_regions:
        for cfg in space.configurations():
            for block in good_blocks(singletons, region, (), cfg):
                shifted = overlay(space, cfg, region, block)
                for k in region:
                    rest = universe.region(s for s in region if s != k)
                    integral = regional_ratio_integral(dens, (k,), (k,), rest, shifted)
                    rederived_points += 1
                    if integral is None or integral.is_infinite or integral == 0:
                        expected = None
                    else:
                        expected = dens.density((k,), shifted) / integral.fraction
                    if expected is None or dens.density(region, shifted) != expected:
                        rederive_ok = False
                        if (region, shifted, k) in reported:
                            continue
                        reported.add((region, shifted, k))
                        report.fail(witness_cap, lambda: Witness(
                            check="uniqueness_probe",
                            description=(
                                "closed-form re-derivation disagrees "
                                f"with the built density on "
                                f"{[str(s) for s in region]!r}"
                            ),
                            replay={
                                "region": [str(s) for s in region],
                                "site": str(k),
                                "assignment": list(shifted.values),
                                "tail": shifted.tail,
                            },
                            lhs=str(dens.density(region, shifted)),
                            rhs=str(expected) if expected is not None else "undefined",
                        ))
    report.data = {
        "seed": seed,
        "regions_self_checked": self_checked,
        "trials": trials,
        "perturbations": perturbations,
        "surviving_alternatives": survivors,
        "rederived_points": rederived_points,
        "rederivation_ok": rederive_ok,
    }
    return report


def check_order_independence(singletons, permutation_cap=24, seed=20260819,
                             witness_cap=25) -> HypothesisReport:
    """Rebuild the whole family under every permutation and compare.

    Block splits are recomputed cell by cell, with one
    ``extension_divisor`` call per configuration.
    """
    space = singletons.space
    sites = space.universe.sites
    report = HypothesisReport(name="order_independence", passed=True)
    reference = constructor.build_family(singletons, checked=True)
    all_perms = list(itertools.permutations(sites))
    if len(all_perms) <= permutation_cap:
        perms = all_perms
        sampled = False
    else:
        rng = random.Random(seed)
        perms = rng.sample(all_perms, permutation_cap)
        sampled = True
    mismatched_perms = 0
    for perm in perms:
        rebuilt = constructor.build_family(singletons, sweep=perm, checked=False)
        for region in reference.regions():
            if rebuilt.table(region) != reference.table(region):
                mismatched_perms += 1
                report.passed = False
                if len(report.witnesses) < witness_cap:
                    report.witnesses.append(Witness(
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
    for region in reference.regions():
        if len(region) < 2:
            continue
        members = set(region)
        for r in range(1, len(region)):
            for theta in itertools.combinations(region, r):
                gamma = space.universe.region(members - set(theta))
                theta = space.universe.region(theta)
                split_checks += 1
                ok = True
                for cfg in space.configurations():
                    divisor = extended(constructor.extension_divisor(reference, theta, gamma, cfg))
                    value = ExtendedRational(reference.density(theta, cfg)) / divisor
                    if value.fraction != reference.density(region, cfg):
                        ok = False
                        split_failures += 1
                        report.passed = False
                        if len(report.witnesses) < witness_cap:
                            report.witnesses.append(Witness(
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
                                lhs=str(value.fraction),
                                rhs=str(reference.density(region, cfg)),
                            ))
                        break
                if not ok:
                    break
    report.data = {
        "permutations_tested": len(perms),
        "permutations_sampled": sampled,
        "permutation_mismatches": mismatched_perms,
        "block_splits_tested": split_checks,
        "block_split_failures": split_failures,
    }
    return report


def check_specification_axioms(dens, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Exterior measurability, point mass off the region, and every nested pair.

    (a) and (b) assemble every row afresh at every configuration; (c)
    composes two kernel rows, one inner row per point of the outer row,
    for every pair Δ ⊆ Λ and every exterior class of Λ.
    """
    space = dens.space
    universe = space.universe
    report = HypothesisReport(name="specification_axioms", passed=True)
    exterior_ok = True
    point_mass_ok = True
    consistency_ok = True
    checks = {"exterior": 0, "point_mass": 0, "nested_pairs": 0}

    for region in universe.subsets():
        rows: dict = {}
        for cfg in space.configurations():
            mask = masked_key(space, cfg, region)
            row = keyed(space, constructor.assemble_kernel(dens, region, cfg))
            checks["exterior"] += 1
            if mask in rows:
                if rows[mask] != row:
                    exterior_ok = False
                    report.fail(witness_cap, lambda: Witness(
                        check="exterior_measurability",
                        description=(
                            f"kernel of {[str(s) for s in region]!r} "
                            "varies inside one exterior class"
                        ),
                        replay={"region": [str(s) for s in region],
                                "assignment": list(cfg.values),
                                "tail": cfg.tail},
                    ))
            else:
                rows[mask] = row
            checks["point_mass"] += 1
            mass = sum(row.values(), Fraction(0))
            off_region_moved = any(
                masked_key(space, space.make(*key), region) != mask
                for key in row
            )
            if mass != 1 or off_region_moved:
                point_mass_ok = False
                report.fail(witness_cap, lambda: Witness(
                    check="point_mass_off_region",
                    description=(
                        f"kernel of {[str(s) for s in region]!r} has mass {mass}"
                    ),
                    replay={"region": [str(s) for s in region],
                            "assignment": list(cfg.values),
                            "tail": cfg.tail},
                ))
    for large in universe.subsets():
        for small in universe.subsets(large):
            for cfg in naive_exterior_classes(space, large):
                checks["nested_pairs"] += 1
                direct = keyed(space, constructor.assemble_kernel(dens, large, cfg))
                composed: dict = {}
                for mid_key, w1 in direct.items():
                    inner = keyed(space, constructor.assemble_kernel(
                        dens, small, space.make(*mid_key)))
                    for key, w2 in inner.items():
                        composed[key] = composed.get(key, Fraction(0)) + w1 * w2
                composed = {k: v for k, v in composed.items() if v != 0}
                if direct != composed:
                    consistency_ok = False

                    def build() -> Witness:
                        diff_key = min(
                            k for k in set(direct) | set(composed)
                            if direct.get(k, Fraction(0))
                            != composed.get(k, Fraction(0))
                        )
                        return Witness(
                            check="consistency",
                            description=(
                                f"composing {[str(s) for s in small]!r} after "
                                f"{[str(s) for s in large]!r} changes the kernel"
                            ),
                            replay={"large": [str(s) for s in large],
                                    "small": [str(s) for s in small],
                                    "assignment": list(cfg.values),
                                    "tail": cfg.tail,
                                    "point_assignment": list(diff_key[0]),
                                    "point_tail": diff_key[1]},
                        )

                    report.fail(witness_cap, build)
                    break
    report.data = {
        "exterior_measurable": exterior_ok,
        "point_mass_off_region": point_mass_ok,
        "consistent": consistency_ok,
        "checks": checks,
    }
    return report


def check_very_weak_positivity(family, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """A good symbol at every (site, context, exterior class) index point."""
    space = family.space
    report = HypothesisReport(name="very_weak_positivity", passed=True)
    checked = 0
    violations = 0
    for site in space.universe.sites:
        complement = space.universe.complement((site,))
        for ctx in space.universe.subsets(complement):
            for cfg in naive_exterior_classes(space, ctx + (site,)):
                checked += 1
                if not hypotheses.good_symbols(family, site, ctx, cfg):
                    violations += 1
                    report.fail(witness_cap, lambda: Witness(
                        check="very_weak_positivity",
                        description=(
                            f"no good symbol for site {site!r} against "
                            f"context {list(map(str, ctx))!r}"
                        ),
                        replay=_replay_point(
                            cfg, site=str(site),
                            context=[str(s) for s in ctx],
                        ),
                    ))
    report.data = {"index_points": checked, "violations": violations}
    return report


def check_uniqueness_condition(family, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Positive free mass on the good set at every index point."""
    space = family.space
    report = HypothesisReport(name="uniqueness_condition", passed=True)
    checked = 0
    violations = 0
    min_mass = None
    for site in space.universe.sites:
        complement = space.universe.complement((site,))
        for ctx in space.universe.subsets(complement):
            for cfg in naive_exterior_classes(space, ctx + (site,)):
                checked += 1
                mass = sum(
                    (space.free.weight(site, x)
                     for x in hypotheses.good_symbols(family, site, ctx, cfg)),
                    Fraction(0),
                )
                if min_mass is None or mass < min_mass:
                    min_mass = mass
                if mass == 0:
                    violations += 1
                    report.fail(witness_cap, lambda: Witness(
                        check="uniqueness_condition",
                        description=(
                            f"good symbols of site {site!r} against "
                            f"context {list(map(str, ctx))!r} have zero "
                            "free mass"
                        ),
                        replay=_replay_point(
                            cfg, site=str(site),
                            context=[str(s) for s in ctx],
                        ),
                    ))
    report.data = {
        "index_points": checked,
        "violations": violations,
        "min_good_mass": str(min_mass) if min_mass is not None else None,
    }
    return report


def check_divisor_factorization(dens, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """Peeling one site off the base block factorizes the ratio integral.

    For every pair of disjoint nonempty regions (theta, gamma), every
    site k of theta, every exterior and every good block x for theta
    against gamma: the integral over gamma of density(gamma)/density(theta)
    at (x over cfg) must equal the integral over gamma of
    density(gamma)/density(k) at (x over cfg) times the integral over
    gamma + {k} of density(gamma + {k})/density(theta minus k) at
    (x-minus-k over cfg).
    """
    space = dens.space
    universe = space.universe
    report = HypothesisReport(name="divisor_factorization", passed=True)
    checked = 0
    violations = 0
    for theta in universe.subsets():
        if not theta:
            continue
        complement = universe.complement(theta)
        for gamma in universe.subsets(complement):
            if not gamma:
                continue
            for k in theta:
                theta_rest = universe.region(s for s in theta if s != k)
                gamma_plus = universe.region(gamma + (k,))
                for cfg in naive_exterior_classes(space, theta):
                    for block in good_blocks(dens.singletons, theta, gamma, cfg):
                        checked += 1
                        shifted = overlay(space, cfg, theta, block)
                        rest_block = tuple(
                            b for s, b in zip(theta, block) if s != k
                        )
                        shifted_rest = overlay(space, cfg, theta_rest, rest_block)
                        lhs = regional_ratio_integral(dens, gamma, gamma, theta, shifted)
                        f1 = regional_ratio_integral(dens, gamma, gamma, (k,), shifted)
                        f2 = regional_ratio_integral(
                            dens, gamma_plus, gamma_plus, theta_rest, shifted_rest)
                        defined = (lhs is not None and f1 is not None
                                   and f2 is not None)
                        rhs = None
                        equal = False
                        if defined:
                            try:
                                rhs = f1 * f2
                                equal = lhs == rhs
                            except ArithmeticDomainError:
                                defined = False
                        if not (defined and equal):
                            violations += 1
                            report.fail(witness_cap, lambda: Witness(
                                check="divisor_factorization",
                                description=(
                                    "factorized ratio integral "
                                    f"mismatch peeling {k!r} off "
                                    f"{[str(s) for s in theta]!r}"
                                ),
                                replay={
                                    "assignment": list(cfg.values),
                                    "tail": cfg.tail,
                                    "theta": [str(s) for s in theta],
                                    "gamma": [str(s) for s in gamma],
                                    "site": str(k),
                                    "block": list(block),
                                },
                                lhs=str(lhs) if lhs is not None else "undefined",
                                rhs=str(rhs) if rhs is not None else "undefined",
                            ))
    report.data = {"evaluations": checked, "violations": violations}
    return report


def composed_row(outer, outer_region, inner, inner_region, cfg) -> dict:
    """The row of the outer kernel followed by the inner one at ``cfg``:
    `Fraction` sums of `constructor.assemble_kernel` products, zeros
    kept."""
    out = {}
    for mid, w1 in constructor.assemble_kernel(outer, outer_region, cfg).items():
        for point, w2 in constructor.assemble_kernel(inner, inner_region,
                                                     outer.space.at(mid)).items():
            out[point] = out.get(point, Fraction(0)) + w1 * w2
    return out


def joint_conditional(space, joint, region) -> list:
    """The conditional density of ``region`` that the strictly positive
    ``joint`` (keyed by full assignment, shared by every tail class) gives,
    per configuration index, in `Fraction`s: at σ, joint(σ) over the
    section sum of the joint over the fills of ``region`` at σ, times σ's
    ``product_weight`` on ``region``, each section summed afresh."""
    table = []
    for cfg in space.configurations():
        section = sum((joint[overlay(space, cfg, region, fill).values]
                       for fill in space.assignments(region)), Fraction(0))
        free = product_weight(space, region, tuple(cfg.symbol(s) for s in region))
        table.append(joint[cfg.values] / (section * free))
    return table


def roundtrip_reconstruction(singletons, joint, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """``verifier.roundtrip_reconstruction`` as it was before it read
    ``models._joint_conditionals``: each region's expected table is
    ``joint_conditional``'s, in `Fraction`s, compared with the built
    density read back as one."""
    space = singletons.space
    sites = space.universe.sites
    for values in space.assignments(sites):
        if not joint.get(values, 0) > 0:
            raise DomainError(
                f"round trip needs a strictly positive joint; offending "
                f"assignment {values!r}"
            )
    for site, sym in itertools.product(sites, space.alphabet):
        if space.free.weight(site, sym) == 0:
            raise DomainError("round trip needs strictly positive free "
                              f"weights; zero at {site!r}/{sym!r}")
    report = HypothesisReport(name="roundtrip_reconstruction", passed=True)
    h1 = hypotheses.check_very_weak_positivity(singletons)
    h2 = hypotheses.check_order_consistency(singletons) if h1.passed else None
    report.data["positivity_passed"] = h1.passed
    report.data["order_consistency_passed"] = h2.passed if h2 is not None else None
    if not (h1.passed and h2 is not None and h2.passed):
        report.passed = False
        return report
    dens = constructor.build_family(singletons, checked=False)
    compared = 0
    mismatches = 0
    for region in space.universe.subsets():
        if not region:
            continue
        for cfg, expected in zip(space.configurations(),
                                 joint_conditional(space, joint, region)):
            compared += 1
            built = dens.density(region, cfg)
            if built != expected:
                mismatches += 1
                report.fail(witness_cap, lambda: Witness(
                    check="roundtrip_reconstruction",
                    description=(
                        f"built density of {[str(s) for s in region]!r} "
                        "differs from the joint's conditional"
                    ),
                    replay=_replay_point(cfg, region=[str(s) for s in region]),
                    lhs=str(built),
                    rhs=str(expected),
                ))
    report.data["points_compared"] = compared
    report.data["mismatches"] = mismatches
    return report


def two_point_identity(family, site, other, cfg, x_site, x_other):
    """``hypotheses.two_point_identity`` as it was before it read ratio
    pairs: each side a `Fraction` density times ``checked_ratio_kernel``,
    good symbols looked up on their module at call time."""
    if site == other:
        raise DomainError("two-point identity needs two distinct sites")
    if x_site not in hypotheses.good_symbols(family, site, (other,), cfg):
        raise DomainError(
            f"symbol {x_site!r} is not good for site {site!r} against "
            f"[{other!r}] at {cfg!r}"
        )
    if x_other not in hypotheses.good_symbols(family, other, (site,), cfg):
        raise DomainError(
            f"symbol {x_other!r} is not good for site {other!r} against "
            f"[{site!r}] at {cfg!r}"
        )
    both = with_sites(cfg, {site: x_site, other: x_other})
    left = checked_ratio_kernel(family, other, site, with_sites(cfg, {site: x_site}),
                                "two-point identity")
    right = checked_ratio_kernel(family, site, other, with_sites(cfg, {other: x_other}),
                                 "two-point identity")
    return family.density(site, both) * left, family.density(other, both) * right


def pair_two_point_identity(family, site, other, cfg, x_site, x_other):
    """``hypotheses.two_point_identity`` as it was when it read ratio
    pairs: each side the integer pair of a density times the family's
    ``ratio_pair``, at points found by class base plus digit times
    stride, returned as `Fraction`s; good symbols looked up on their
    module at call time, and a ratio integral outside (0, inf) raising
    ``hypotheses._kernel_failure``."""
    if site == other:
        raise DomainError("two-point identity needs two distinct sites")
    if x_site not in hypotheses.good_symbols(family, site, (other,), cfg):
        raise DomainError(
            f"symbol {x_site!r} is not good for site {site!r} against "
            f"[{other!r}] at {cfg!r}"
        )
    if x_other not in hypotheses.good_symbols(family, other, (site,), cfg):
        raise DomainError(
            f"symbol {x_other!r} is not good for site {other!r} against "
            f"[{site!r}] at {cfg!r}"
        )
    space = family.space
    digits = space._digits
    strides = dict(zip((site, other), space.strides((site, other))))
    both = (space.class_map((site, other))[cfg.index]
            + digits[x_site] * strides[site] + digits[x_other] * strides[other])
    sides = []
    for own, against, x in ((site, other, x_site), (other, site, x_other)):
        shifted = space.class_map((own,))[cfg.index] + digits[x] * strides[own]
        k = family.ratio_pair((against,), (own,), shifted)
        if k is None:
            raise _kernel_failure(against, own, space.at(shifted), "two-point identity")
        num, den = family._tables[(own,)][both]
        sides.append(Fraction(num * k[0], den * k[1]))
    return sides[0], sides[1]


def fractions(table) -> list:
    """A flat table of integer pairs, as the families store them, each
    checked to be in lowest terms over a positive denominator, read back
    as `Fraction`s."""
    for num, den in table:
        assert type(num) is int and type(den) is int, (num, den)
        assert den > 0 and math.gcd(num, den) == 1, (num, den)
    return [Fraction(num, den) for num, den in table]


def fraction_values(pairs) -> dict:
    """A dict of integer pairs, as measure weights and certificate lines
    hold them, each checked to be in lowest terms over a positive
    denominator, read back as `Fraction`s, in the same order."""
    fractions(pairs.values())
    return {key: Fraction(*pair) for key, pair in pairs.items()}


def divisor_value(dens, theta, gamma, cfg) -> ExtendedRational:
    """`constructor.extension_divisor`, looked up at each call, its pair
    checked to be in lowest terms with a positive first member, as an
    `ExtendedRational`."""
    num, den = constructor.extension_divisor(dens, theta, gamma, cfg)
    assert num > 0 and den >= 0 and math.gcd(num, den) == 1, (num, den)
    return extended((num, den))


def extend_values(dens, theta, gamma) -> list:
    """`constructor.extend_density`'s table, through `fractions`."""
    return fractions(constructor.extend_density(dens, theta, gamma))


def covering_pairs_agree(dens, region, cfg) -> bool:
    """``verifier._covering_pairs_agree`` as it was before it summed each
    mass in integers: the masses as `Fraction` sums, and the direct row
    compared with a dict of the products mass·w."""
    at = dens.space.at
    direct = constructor.assemble_kernel(dens, region, cfg)
    for site in region:
        position = dens.space.universe.index(site)
        masses: dict = {}
        charged: dict = {}
        for index, w in direct.items():
            point = at(index)
            value = point.values[position]
            masses[value] = masses.get(value, Fraction(0)) + w
            charged.setdefault(value, point)
        inner = tuple(s for s in region if s != site)
        if direct != {index: mass * w for value, mass in masses.items()
                      for index, w in constructor.assemble_kernel(
                          dens, inner, charged[value]).items()}:
            return False
    return True


def ratio_bounds(dens, witness_cap=WITNESS_CAP) -> HypothesisReport:
    """``verifier.ratio_bounds`` as it was before it kept its extremes as
    integer pairs: every ratio a `Fraction`, compared as one."""
    space = dens.space
    report = HypothesisReport(name="ratio_bounds", passed=True)
    bounds: dict = {}
    for region in space.universe.subsets():
        if not region:
            continue
        lo = None
        hi = None
        defined = True
        for site in region:
            for cfg in space.configurations():
                num = dens.density(region, cfg)
                den = dens.density((site,), cfg)
                if den == 0:
                    defined = False
                    report.fail(witness_cap, lambda: Witness(
                        check="ratio_bounds",
                        description=(
                            f"density of member {site!r} vanishes, no "
                            "two-sided bound for region "
                            f"{[str(s) for s in region]!r}"
                        ),
                        replay={"assignment": list(cfg.values),
                                "tail": cfg.tail, "site": str(site)},
                    ))
                    continue
                value = num / den
                if lo is None or value < lo:
                    lo = value
                if hi is None or value > hi:
                    hi = value
        key = "+".join(str(s) for s in region)
        bounds[key] = {
            "lower": str(lo) if defined and lo is not None else None,
            "upper": str(hi) if defined and hi is not None else None,
        }
        if defined and lo is not None and lo == 0:
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
