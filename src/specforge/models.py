"""Singleton families: carriers, unit normalization, extraction from joints.

A singleton family assigns to every site a finite nonnegative density over
full configurations; together with the free measure it forms the single-site
conditional kernels everything else is built from.  Every family constructed
here satisfies the unit-mass condition exactly: integrating the site's
density over its own coordinate against the free weights gives 1 for every
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Protocol

from .core import (
    Configuration,
    DomainError,
    FreeMeasure,
    Site,
    Space,
    SpecforgeError,
    _line_sum,
    _ratio_line,
    exact,
)

__all__ = [
    "NormalizationError",
    "SingletonFamily",
    "TableModel",
    "TailRuleModel",
    "PotentialModel",
    "normalize",
    "extract_singletons",
    "rebalance_free",
]


class NormalizationError(SpecforgeError):
    """A raw weight family cannot be scaled to unit mass at some site."""


class RawWeightModel(Protocol):
    """Anything that yields raw (not yet normalized) site weights."""

    provenance: str

    def raw_value(self, space: Space, site: Site, cfg: Configuration) -> Fraction: ...


class Tabulated:
    """``_tables``, a list per canonical region of exact values indexed by
    `Space` configuration index, and a memo of what they determine."""

    def cached(self, key: tuple, compute: Callable[[], object]):
        """``compute()``, memoised under ``key`` for the life of the family.

        ``key[0]`` names the kind of value, then come its sites or regions
        and, for a value read at one exterior class, the `Space.class_index`
        of that class, as in ``("extension_divisor", theta, gamma, class)``;
        a `ratio_table` is keyed ``("ratio_table", over, against)``.
        Good-point tables are sets of configuration indices.  Values are
        shared, so callers only read them; a ``compute`` that raises
        leaves no entry.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    def _integral_memo(self, over: tuple[Site, ...], against: tuple[Site, ...]) -> "Tabulated":
        """The family whose memo keeps the integrals of ``over`` against
        ``against``: this one, unless it reads another family's tables."""
        return self

    def _integer_pairs(self, region: tuple[Site, ...]) -> list[tuple[int, int]]:
        """The table of ``region`` as integer pairs, in index order,
        memoised under ``("integer_pairs", region)``."""
        return self.cached(("integer_pairs", region), lambda: [
            value.as_integer_ratio() for value in self._tables[region]])

    def ratio_table(self, over: tuple[Site, ...],
                    against: tuple[Site, ...]) -> dict[int, tuple[int, int] | None]:
        """The free integral over the canonical region ``over`` of
        density(over)/density(against), ``against`` a canonical region
        disjoint from it, at every exterior class off ``over``: class
        index -> `_ratio_line`'s integer pair, None where undefined, a
        zero second member where infinite and a zero first member where
        zero.  The pairs are not reduced.

        Filled in one pass over the class bases, in index order, from the
        `_integer_pairs` of both tables; no `Fraction` is built.  Kept on
        the memo of the family `_integral_memo` names, once per ordered
        pair, so the gates, the build and the verifier read one table.
        Every family's tables are nonnegative: `SingletonFamily` and
        `replace_table` refuse a negative value, and a built table
        divides nonnegative values by positive divisors.  Shared, so
        callers only read it.
        """
        owner = self._integral_memo(over, against)
        key = ("ratio_table", over, against)
        try:
            return owner._cache[key]
        except KeyError:
            pass

        def compute() -> dict[int, tuple[int, int] | None]:
            space = owner.space
            fills = space.fill_pairs(over)
            num, den = owner._integer_pairs(over), owner._integer_pairs(against)
            return {b: _ratio_line((w_num, w_den, num[b + offset], den[b + offset])
                                   for offset, w_num, w_den in fills)
                    for b in space.class_bases(over)}

        return owner.cached(key, compute)

    def ratio_pair(self, over: tuple[Site, ...], against: tuple[Site, ...],
                   cfg: Configuration) -> tuple[int, int] | None:
        """The `ratio_table` entry at ``cfg``'s class off ``over``, as it
        is, unreduced, when it lies in (0, inf), else None."""
        pair = self.ratio_table(over, against)[self.space._class_map(over)[cfg.index]]
        return pair if pair is not None and pair[0] and pair[1] else None

    def ratio_integral(self, over: tuple[Site, ...], against: tuple[Site, ...],
                       cfg: Configuration) -> Fraction | None:
        """`ratio_pair` as a `Fraction`."""
        pair = self.ratio_pair(over, against, cfg)
        return None if pair is None else Fraction(*pair)


class SingletonFamily(Tabulated):
    """The per-site densities, tabulated, validated and immutable.

    Construction takes one table per site keyed by `Configuration.key`,
    the input boundary of the configuration index, and checks that every
    value is an exact nonnegative rational, that no table names a site
    outside the universe or a key that is no configuration of the space,
    and that the unit-mass condition holds at every site for every
    configuration.  Evaluation is a pure table lookup.
    """

    def __init__(
        self,
        space: Space,
        tables: Mapping[Site, Mapping[tuple, Fraction]],
        provenance: str = "table",
    ):
        stray = [site for site in tables if site not in space.universe]
        if stray:
            raise DomainError(f"density tables name sites outside the universe {stray}")
        self.space = space
        self.provenance = provenance
        self._tables = {}
        self._cache = {}
        for site in space.universe:
            if site not in tables:
                raise DomainError(f"no density table for site {site!r}")
            given = tables[site]
            table = []
            for cfg in space.configurations():
                if cfg.key not in given:
                    raise DomainError(f"density table for site {site!r} misses {cfg!r}")
                value = exact(given[cfg.key], lambda: f"site {site!r}, {cfg!r}")
                if value < 0:
                    raise DomainError(f"negative density at site {site!r}, {cfg!r}")
                table.append(value)
            if len(given) != len(table):
                keys = {cfg.key for cfg in space.configurations()}
                key = next(key for key in given if key not in keys)
                raise DomainError(f"density table for site {site!r} names {key!r}, "
                                  "which is no configuration of the space")
            self._tables[(site,)] = table
        self._check_unit_mass()

    @classmethod
    def _of_tables(cls, space: Space, tables: dict[tuple[Site, ...], list[Fraction]],
                   provenance: str) -> "SingletonFamily":
        """The family of flat ``tables``, one list per one-site region in
        index order, trusted: the caller has proven every value an exact
        nonnegative rational and every site's mass 1 (as `normalize`
        does), so nothing is re-keyed or re-checked."""
        family = cls.__new__(cls)
        family.space = space
        family.provenance = provenance
        family._tables = tables
        family._cache = {}
        return family

    @classmethod
    def from_function(
        cls,
        space: Space,
        density: Callable[[Site, Configuration], Fraction],
        provenance: str = "table",
    ) -> "SingletonFamily":
        tables = {
            site: {cfg.key: density(site, cfg) for cfg in space.configurations()}
            for site in space.universe
        }
        return cls(space, tables, provenance)

    def _check_unit_mass(self) -> None:
        """Each site's mass, the free integral of its density over its own
        coordinate, is 1 at every exterior class: `Space.free_integral`'s
        numerator equals its denominator."""
        space = self.space
        for site in space.universe:
            table = self._tables[(site,)]
            for cfg in space.exterior_classes((site,)):
                num, den = space.free_integral((site,), table.__getitem__, cfg)
                if num != den:
                    raise NormalizationError(
                        f"site {site!r} has mass {Fraction(num, den)} (expected 1) at {cfg!r}"
                    )

    def density(self, site: Site, cfg: Configuration) -> Fraction:
        """The site's density at a full configuration; always finite."""
        try:
            table = self._tables[(site,)]
        except KeyError:
            raise DomainError(f"site {site!r} not in universe") from None
        return table[cfg.index]

    def kernel_weights(self, site: Site, cfg: Configuration) -> dict[str, Fraction]:
        """The single-site kernel row at cfg: symbol -> density * free weight.

        Rows sum to 1 by the unit-mass invariant.
        """
        space = self.space
        table = self._tables[(site,)]
        base = space.class_index(cfg, (site,))
        return {sym: table[base + offset] * w
                for sym, (offset, w) in zip(space.alphabet, space.fill_offsets((site,)))}


@dataclass(frozen=True)
class TableModel:
    """Fully explicit raw weights: (site, own symbol, context, tail) -> value.

    The context is the restriction of the configuration to the other sites,
    in universe order.  This is the general-purpose carrier; the other model
    kinds are compact special cases.  The positions a raw read looks up are
    memoised per universe and site.
    """

    entries: Mapping[Site, Mapping[tuple, Fraction]]
    provenance: str = "table"
    _positions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def raw_value(self, space: Space, site: Site, cfg: Configuration) -> Fraction:
        at = (space.universe.sites, site)
        if at not in self._positions:
            # the universe positions of the site and of the others
            universe = space.universe
            self._positions[at] = (universe.index(site),
                                   tuple(universe.index(s) for s in universe if s != site))
        own, others = self._positions[at]
        values = cfg.values
        key = (values[own], tuple([values[k] for k in others]), cfg.tail)
        try:
            value = self.entries[site][key]
        except KeyError:
            raise DomainError(f"table model misses entry for site {site!r}, key {key}") from None
        return exact(value, lambda: f"table model entry for site {site!r}, key {key}")


@dataclass(frozen=True)
class TailRuleModel:
    """Raw weights that depend only on the tail class and the own symbol.

    rules: (tail class, site) -> symbol -> weight.  Assignment-dependent
    weights belong in a TableModel; this carrier exists for models whose
    singletons are driven purely by the exterior class.
    """

    rules: Mapping[tuple, Mapping[str, Fraction]]
    provenance: str = "tail_rule"

    def raw_value(self, space: Space, site: Site, cfg: Configuration) -> Fraction:
        try:
            vector = self.rules[(cfg.tail, site)]
        except KeyError:
            raise DomainError(f"tail rule misses (class {cfg.tail!r}, site {site!r})") from None
        rule = f"tail rule for (class {cfg.tail!r}, site {site!r})"
        try:
            value = vector[cfg.symbol(site)]
        except KeyError:
            raise DomainError(f"{rule} misses symbol {cfg.symbol(site)!r}") from None
        return exact(value, lambda: f"{rule}, symbol {cfg.symbol(site)!r}")


@dataclass(frozen=True)
class PotentialModel:
    """Strictly positive pairwise-interaction weights, given as exact rationals.

    fields: site -> symbol -> weight (> 0); pairs: (site, site) -> (symbol,
    symbol) -> weight (> 0), with the pair key and symbol order matching the
    universe order of the two sites.  The raw weight of a site multiplies its
    field by every pair factor it participates in, which mirrors conditioning
    a strictly positive product-form joint on the other coordinates.  The
    pair tables holding each site are looked up once per universe and site.
    """

    fields: Mapping[Site, Mapping[str, Fraction]]
    pairs: Mapping[tuple, Mapping[tuple, Fraction]] = None  # type: ignore[assignment]
    provenance: str = "potential"
    _incident: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        def positive(w, kind: str, at: str) -> Fraction:
            value = exact(w, lambda: f"{kind} {at}")
            if value <= 0:
                raise DomainError(f"{kind} must be positive at {at}")
            return value

        fields = {site: {sym: positive(w, "field weight", f"{site!r}/{sym!r}")
                         for sym, w in vector.items()}
                  for site, vector in self.fields.items()}
        pairs = {}
        for edge, table in (self.pairs or {}).items():
            if len(edge) != 2 or edge[0] == edge[1]:
                raise DomainError(f"bad pair key {edge!r}")
            pairs[edge] = {syms: positive(w, "pair weight", f"{edge!r}/{syms!r}")
                           for syms, w in table.items()}
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "pairs", pairs)

    def raw_value(self, space: Space, site: Site, cfg: Configuration) -> Fraction:
        try:
            value = self.fields[site][cfg.symbol(site)]
        except KeyError:
            raise DomainError(f"potential misses field for site {site!r}") from None
        at = (space.universe.sites, site)
        if at not in self._incident:
            # each pair table holding the site, in ``pairs`` order, with the
            # universe positions of its sites: None off the universe, where
            # reading the symbol raises
            position = space.universe._index.get
            self._incident[at] = [(edge, position(edge[0]), position(edge[1]), table)
                                  for edge, table in self.pairs.items() if site in edge]
        values = cfg.values
        for (a, b), i, j, table in self._incident[at]:
            symbols = ((values[i], values[j]) if i is not None and j is not None
                       else (cfg.symbol(a), cfg.symbol(b)))
            try:
                value *= table[symbols]
            except KeyError:
                raise DomainError(f"potential pair {(a, b)!r} misses symbol pair "
                                  f"{symbols!r}") from None
        return value


def normalize(space: Space, model: RawWeightModel) -> SingletonFamily:
    """Scale raw site weights to unit mass, exterior class by exterior class.

    One pass per (site, exterior class off the site), classes in index
    order: it reads the q raw weights r_d of the class in digit order,
    each once, sums the mass M = Σ_d w_d·r_d (w_d the site's free
    weights) by `_line_sum` in integers, and writes each density r_d/M
    as one `Fraction` into a flat table.  The mass must be positive (raw
    weights are finite), otherwise a NormalizationError names the site
    and the class's first member; a negative raw weight raises
    `DomainError` naming the configuration it is read at.  The result
    has unit mass by construction, Σ_d w_d·r_d/M = M/M = 1 exactly, and
    every value is a nonnegative `Fraction`, so the family is built from
    the tables as they are (`SingletonFamily._of_tables`).
    """
    tables: dict[tuple[Site, ...], list[Fraction]] = {}
    for site in space.universe:
        table: list[Fraction] = [Fraction(0)] * space.size
        fills = space.fill_pairs((site,))
        for base in space.class_bases((site,)):
            raws = []
            for offset, _, _ in fills:
                c = space.at(base + offset)
                raw = exact(model.raw_value(space, site, c),
                            lambda: f"raw weight of site {site!r}, {c!r}").as_integer_ratio()
                if raw[0] < 0:
                    raise DomainError(f"negative raw weight at site {site!r}, {c!r}")
                raws.append(raw)
            m_num, m_den = _line_sum((w_num * r_num, w_den * r_den)
                                     for (_, w_num, w_den), (r_num, r_den) in zip(fills, raws)
                                     if w_num and r_num)
            if not m_num:
                raise NormalizationError(f"raw mass at site {site!r} is 0 (need positive "
                                         f"finite) at {space.at(base)!r}")
            for (offset, _, _), (r_num, r_den) in zip(fills, raws):
                table[base + offset] = Fraction(r_num * m_den, r_den * m_num)
        tables[(site,)] = table
    return SingletonFamily._of_tables(space, tables, model.provenance)


def extract_singletons(
    space: Space,
    joint: Mapping[tuple, Fraction],
    provenance: str = "extracted",
) -> SingletonFamily:
    """Recover the single-site densities of a strictly positive joint weight.

    `joint` maps full assignments (in universe order) to positive rationals;
    tail classes, if several are declared, all share it.  The density at
    (site, cfg) is the joint's conditional probability of the site's symbol
    given the rest, divided by the free weight of that symbol.  Requires a
    strictly positive free measure for the division to stay finite.
    """
    for site in space.universe:
        for sym in space.alphabet:
            if space.free.weight(site, sym) == 0:
                raise DomainError(
                    f"extraction needs strictly positive free weights; zero at {site!r}/{sym!r}"
                )
    table_values = {}
    for values in space.assignments(space.universe.sites):
        if values not in joint:
            raise DomainError(f"joint weight misses assignment {values}")
        w = exact(joint[values], lambda: f"joint weight of {values}")
        if w <= 0:
            raise DomainError(f"joint weight must be strictly positive; got {w} at {values}")
        table_values[values] = w

    def density(site: Site, cfg: Configuration) -> Fraction:
        section = sum((table_values[space.overlay(cfg, (site,), (b,)).values]
                       for b in space.alphabet), Fraction(0))
        return table_values[cfg.values] / (space.free.weight(site, cfg.symbol(site)) * section)

    return SingletonFamily.from_function(space, density, provenance)


def rebalance_free(
    family: SingletonFamily,
    rescalers: Mapping[Site, Mapping[str, Fraction]] | None = None,
) -> SingletonFamily:
    """Trade mass between free weights and densities without moving kernels.

    Given positive per-site symbol rescalers r, the free weight picks up a
    factor r (scaled back to total mass one) and the density gives the same
    factor up.  The single-site kernels (density times free weight) are
    unchanged pointwise, so every construction downstream is too; the result
    has a normalized free measure, which the measure-level verifier requires.
    With the default r = 1 this simply normalizes each free weight vector.
    """
    space = family.space
    scales: dict[Site, dict[str, Fraction]] = {}
    new_weights: dict[Site, dict[str, Fraction]] = {}
    masses: dict[Site, Fraction] = {}
    for site in space.universe:
        if rescalers is not None and site not in rescalers:
            raise DomainError(f"rescaler missing for site {site!r}")
        r = dict.fromkeys(space.alphabet, 1) if rescalers is None else rescalers[site]
        scales[site] = {}
        for sym in space.alphabet:
            scale = exact(r[sym], lambda: f"rescaler {site!r}/{sym!r}") if sym in r else 0
            if scale <= 0:
                raise DomainError(f"rescaler must be positive at {site!r}/{sym!r}")
            scales[site][sym] = scale
        mass = sum((space.free.weight(site, sym) * scale
                    for sym, scale in scales[site].items()), Fraction(0))
        if mass <= 0:
            raise NormalizationError(f"rescaled free mass at {site!r} is {mass}")
        masses[site] = mass
        new_weights[site] = {sym: space.free.weight(site, sym) * scale / mass
                             for sym, scale in scales[site].items()}
    new_space = Space(
        space.alphabet,
        space.universe,
        FreeMeasure(space.alphabet, new_weights),
        space.tail_classes,
    )
    return SingletonFamily.from_function(
        new_space,
        lambda site, cfg: (family.density(site, cfg) * masses[site]
                           / scales[site][cfg.symbol(site)]),
        provenance=family.provenance)
