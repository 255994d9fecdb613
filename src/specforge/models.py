"""Singleton families: carriers, unit normalization, extraction from joints.

A singleton family assigns to every site a finite nonnegative density over
full configurations; together with the free measure it forms the single-site
conditional kernels everything else is built from.  Every family constructed
here satisfies the unit-mass condition exactly: integrating the site's
density over its own coordinate against the free weights gives 1 for every
configuration.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from math import gcd

from .core import (
    Configuration,
    DomainError,
    FreeMeasure,
    Frozen,
    Site,
    Space,
    SpecforgeError,
    _line_sum,
    _pair_text,
    _ratio_line,
    _reduced,
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


class RawWeightModel:
    """Anything that yields raw (not yet normalized) site weights.

    An interface for the annotations: the sources below provide it
    without subclassing it.  A source may also offer ``raw_pair``, the
    raw weight as an integer pair over a positive denominator, which
    `normalize` then reads instead."""

    def raw_value(self, space: Space, site: Site, cfg: Configuration) -> Fraction: ...


class Tabulated:
    """``_tables``, a list per canonical region of exact nonnegative
    values indexed by `Space` configuration index, each an integer pair
    ``(num, den)`` in lowest terms with den > 0, zero being (0, 1), and
    a memo of what they determine.  Equal values are equal pairs."""

    def cached(self, key: tuple, compute: Callable[[], object]):
        """``compute()``, memoised under ``key`` for the life of the family.

        ``key[0]`` names the kind of value, then come its sites or regions
        and, for a value read at one exterior class, the class base of
        that class, as in ``("extension_divisor", theta, gamma, base)``;
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

    def ratio_table(self, over: tuple[Site, ...],
                    against: tuple[Site, ...]) -> dict[int, tuple[int, int] | None]:
        """The free integral over the canonical region ``over`` of
        density(over)/density(against), ``against`` a canonical region
        disjoint from it, at every exterior class off ``over``: class
        index -> `_ratio_line`'s integer pair, None where undefined, a
        zero second member where infinite and a zero first member where
        zero.  The pairs are not reduced.

        Filled in one pass over the class bases, in index order, from the
        pairs of both tables; no `Fraction` is built.  Kept on
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
            num, den = owner._tables[over], owner._tables[against]
            return {b: _ratio_line((w_num, w_den, num[b + offset], den[b + offset])
                                   for offset, w_num, w_den in fills)
                    for b in space.class_bases(over)}

        return owner.cached(key, compute)

    def ratio_pair(self, over: tuple[Site, ...], against: tuple[Site, ...],
                   index: int) -> tuple[int, int] | None:
        """The `ratio_table` entry at the class off ``over`` of the
        configuration ``index``, as it is, unreduced, when it lies in
        (0, inf), else None."""
        pair = self.ratio_table(over, against)[self.space.class_map(over)[index]]
        return pair if pair is not None and pair[0] and pair[1] else None


class SingletonFamily(Tabulated):
    """The per-site densities, tabulated, validated and immutable.

    Construction takes one table per site keyed by `Configuration.key`,
    the input boundary of the configuration index, and checks that every
    value is an exact nonnegative rational, that no table names a site
    outside the universe or a key that is no configuration of the space,
    and that the unit-mass condition holds at every site for every
    configuration.  Each value is stored as its reduced integer pair, in
    a flat table per one-site region; `density` reads one back as a
    `Fraction`.
    """

    def __init__(self, space: Space, tables: Mapping[Site, Mapping[tuple, Fraction]]):
        stray = [site for site in tables if site not in space.universe]
        if stray:
            raise DomainError(f"density tables name sites outside the universe {stray}")
        self.space = space
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
                table.append(value.as_integer_ratio())
            if len(given) != len(table):
                keys = {cfg.key for cfg in space.configurations()}
                key = next(key for key in given if key not in keys)
                raise DomainError(f"density table for site {site!r} names {key!r}, "
                                  "which is no configuration of the space")
            self._tables[(site,)] = table
        self._check_unit_mass()

    @classmethod
    def _of_tables(cls, space: Space,
                   tables: dict[tuple[Site, ...], list[tuple[int, int]]]) -> "SingletonFamily":
        """The family of flat ``tables``, one list of pairs per one-site
        region in index order, trusted: the caller has proven every pair
        reduced and nonnegative over a positive denominator and every
        site's mass 1 (as `normalize` does), so nothing is re-keyed or
        re-checked."""
        family = cls.__new__(cls)
        family.space = space
        family._tables = tables
        family._cache = {}
        return family

    @classmethod
    def from_function(cls, space: Space,
                      density: Callable[[Site, Configuration], Fraction]) -> "SingletonFamily":
        tables = {
            site: {cfg.key: density(site, cfg) for cfg in space.configurations()}
            for site in space.universe
        }
        return cls(space, tables)

    def _check_unit_mass(self) -> None:
        """Each site's mass, the free integral of its density over its own
        coordinate, is 1 at every exterior class: at each class base, the
        `_line_sum` of the fills' weights times their densities, as
        `normalize` sums its masses, has its numerator equal to its
        denominator."""
        space = self.space
        for site in space.universe:
            table = self._tables[(site,)]
            fills = space.fill_pairs((site,))
            for base in space.class_bases((site,)):
                num, den = _line_sum((w_num * table[base + offset][0],
                                      w_den * table[base + offset][1])
                                     for offset, w_num, w_den in fills)
                if num != den:
                    raise NormalizationError(
                        f"site {site!r} has mass {_pair_text(*_reduced(num, den))} "
                        f"(expected 1) at {space.at(base)!r}"
                    )

    def density(self, site: Site, cfg: Configuration) -> Fraction:
        """The site's density at a full configuration; always finite."""
        try:
            table = self._tables[(site,)]
        except KeyError:
            raise DomainError(f"site {site!r} not in universe") from None
        return Fraction(*table[cfg.index])


class TableModel(Frozen):
    """Fully explicit raw weights: (site, own symbol, context, tail) -> value.

    The context is the restriction of the configuration to the other sites,
    in universe order.  This is the general-purpose carrier; the other model
    kinds are compact special cases.  The positions a raw read looks up are
    memoised per universe and site.
    """

    def __init__(self, entries: Mapping[Site, Mapping[tuple, Fraction]]):
        self.entries = entries
        self._positions: dict[tuple, tuple[int, tuple[int, ...]]] = {}
        self._freeze()

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


class TailRuleModel(Frozen):
    """Raw weights that depend only on the tail class and the own symbol.

    rules: (tail class, site) -> symbol -> weight.  Assignment-dependent
    weights belong in a TableModel; this carrier exists for models whose
    singletons are driven purely by the exterior class.
    """

    def __init__(self, rules: Mapping[tuple, Mapping[str, Fraction]]):
        self.rules = rules
        self._freeze()

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


class PotentialModel(Frozen):
    """Strictly positive pairwise-interaction weights, given as exact rationals.

    fields: site -> symbol -> weight (> 0); pairs: (site, site) -> (symbol,
    symbol) -> weight (> 0), with the pair key and symbol order matching the
    universe order of the two sites.  The raw weight of a site multiplies its
    field by every pair factor it participates in, which mirrors conditioning
    a strictly positive product-form joint on the other coordinates.  Each
    weight is taken as an integer pair once, at construction, and the
    pair tables holding each site are looked up once per universe and
    site, so `raw_pair` multiplies integers only.
    """

    def __init__(self, fields: Mapping[Site, Mapping[str, Fraction]],
                 pairs: Mapping[tuple, Mapping[tuple, Fraction]] | None = None):
        def positive(w, kind: str, key, symbols) -> Fraction:
            value = exact(w, lambda: f"{kind} {key!r}/{symbols!r}")
            if value.numerator <= 0:
                raise DomainError(f"{kind} must be positive at {key!r}/{symbols!r}")
            return value

        self.fields = {site: {sym: positive(w, "field weight", site, sym)
                              for sym, w in vector.items()}
                       for site, vector in fields.items()}
        self.pairs = {}
        for edge, table in (pairs or {}).items():
            if len(edge) != 2 or edge[0] == edge[1]:
                raise DomainError(f"bad pair key {edge!r}")
            self.pairs[edge] = {syms: positive(w, "pair weight", edge, syms)
                                for syms, w in table.items()}
        self._field_pairs, self._pair_tables = ({
            key: {symbols: w.as_integer_ratio() for symbols, w in table.items()}
            for key, table in weights.items()} for weights in (self.fields, self.pairs))
        self._incident: dict[tuple, list] = {}
        self._freeze()

    def raw_value(self, space: Space, site: Site, cfg: Configuration) -> Fraction:
        return Fraction(*self.raw_pair(space, site, cfg))

    def raw_pair(self, space: Space, site: Site, cfg: Configuration) -> tuple[int, int]:
        """`raw_value` as an integer pair: the product of the factors'
        numerators over the product of their denominators, unreduced."""
        try:
            own, incident = self._incident[space.universe, site]
        except KeyError:
            # the site's universe position and each pair table holding
            # it, in ``pairs`` order, as integer pairs, with the universe
            # positions of its sites: None off the universe, where
            # reading the symbol raises
            position = space.universe._index.get
            own, incident = self._incident[space.universe, site] = position(site), [
                (edge, position(edge[0]), position(edge[1]), table)
                for edge, table in self._pair_tables.items() if site in edge]
        values = cfg.values
        try:
            num, den = self._field_pairs[site][
                values[own] if own is not None else cfg.symbol(site)]
        except KeyError:
            raise DomainError(f"potential misses field for site {site!r}") from None
        for (a, b), i, j, table in incident:
            symbols = ((values[i], values[j]) if i is not None and j is not None
                       else (cfg.symbol(a), cfg.symbol(b)))
            try:
                w_num, w_den = table[symbols]
            except KeyError:
                raise DomainError(f"potential pair {(a, b)!r} misses symbol pair "
                                  f"{symbols!r}") from None
            num *= w_num
            den *= w_den
        return num, den


def normalize(space: Space, model: RawWeightModel) -> SingletonFamily:
    """Scale raw site weights to unit mass, exterior class by exterior class.

    One pass per (site, exterior class off the site), classes in index
    order: it reads the q raw weights r_d of the class in digit order,
    each once, as an integer pair (the model's ``raw_pair`` if it has
    one, else the ``as_integer_ratio`` of its exact ``raw_value``), sums
    the mass M = Σ_d w_d·r_d (w_d the site's free weights) by
    `_line_sum` in integers, and writes each density r_d/M into a flat
    table as one reduced pair, one gcd per cell.  The mass must be
    positive (raw weights are finite), otherwise a NormalizationError
    names the site and the class's first member; a negative raw weight
    raises `DomainError` naming the configuration it is read at.  The
    result has unit mass by construction, Σ_d w_d·r_d/M = M/M = 1
    exactly, and every pair is reduced and nonnegative, so the family is
    built from the tables as they are (`SingletonFamily._of_tables`).
    """
    read = getattr(model, "raw_pair", None)
    if read is None:
        def read(space: Space, site: Site, c: Configuration) -> tuple[int, int]:
            return exact(model.raw_value(space, site, c),
                         lambda: f"raw weight of site {site!r}, {c!r}").as_integer_ratio()
    tables: dict[tuple[Site, ...], list[tuple[int, int]]] = {}
    for site in space.universe:
        table = [(0, 1)] * space.size
        fills = space.fill_pairs((site,))
        for base in space.class_bases((site,)):
            raws = []
            for offset, _, _ in fills:
                c = space.at(base + offset)
                raw = read(space, site, c)
                if raw[0] < 0:
                    raise DomainError(f"negative raw weight at site {site!r}, {c!r}")
                raws.append(raw)
            m_num, m_den = _line_sum([(w_num * r_num, w_den * r_den)
                                      for (_, w_num, w_den), (r_num, r_den) in zip(fills, raws)
                                      if w_num and r_num])
            if not m_num:
                raise NormalizationError(f"raw mass at site {site!r} is 0 (need positive "
                                         f"finite) at {space.at(base)!r}")
            for (offset, _, _), (r_num, r_den) in zip(fills, raws):
                num, den = r_num * m_den, r_den * m_num
                g = gcd(num, den)  # `core._reduced`, inline: one call less per cell
                table[base + offset] = (num // g, den // g)
        tables[(site,)] = table
    return SingletonFamily._of_tables(space, tables)


def extract_singletons(space: Space, joint: Mapping[tuple, Fraction]) -> SingletonFamily:
    """Recover the single-site densities of a strictly positive joint weight.

    `joint` maps full assignments (in universe order) to positive rationals;
    tail classes, if several are declared, all share it.  The density at
    (site, cfg) is the joint's conditional probability of the site's symbol
    given the rest, divided by the free weight of that symbol.  Requires a
    strictly positive free measure for the division to stay finite.  Each
    site's table is `_joint_conditionals`'s, which has unit mass exactly
    (Σ_s w(s)·j(s)/(S·w(s)) = S/S over the section sum S) and holds
    reduced pairs, so the family is built from the tables as they are.
    """
    for site in space.universe:
        for sym in space.alphabet:
            if space.free.weight(site, sym) == 0:
                raise DomainError(
                    f"extraction needs strictly positive free weights; zero at {site!r}/{sym!r}"
                )
    weights = []
    for values in space.assignments(space.universe.sites):
        if values not in joint:
            raise DomainError(f"joint weight misses assignment {values}")
        w = exact(joint[values], lambda: f"joint weight of {values}")
        if w <= 0:
            raise DomainError(f"joint weight must be strictly positive; got {w} at {values}")
        weights.append(w.as_integer_ratio())
    return SingletonFamily._of_tables(
        space, {(site,): _joint_conditionals(space, weights, (site,))
                for site in space.universe})


def _joint_conditionals(space: Space, joint: list[tuple[int, int]],
                        region: tuple[Site, ...]) -> list[tuple[int, int]]:
    """A strictly positive joint weight's conditional density of the
    canonical ``region``, per configuration index, as reduced pairs.

    ``joint`` holds the weight j of each full assignment as a positive
    integer pair, in `Space.assignments` order, so a configuration's
    index modulo their number is its position; every tail class shares
    it.  At σ the density is j(σ) / (S·w), S the section sum of j over
    the fills of ``region`` at σ's class off it (by `_line_sum`) and w
    the product free weight of σ on ``region`` (`Space.fill_pairs`),
    which must be positive: j_num·S_den·w_den over j_den·S_num·w_num,
    one gcd per cell.  `extract_singletons` reads it per site and
    `verifier.roundtrip_reconstruction` per region.
    """
    table = [(0, 1)] * space.size
    fills = space.fill_pairs(region)
    for base in space.class_bases(region):
        cells = [joint[(base + offset) % len(joint)] for offset, _, _ in fills]
        s_num, s_den = _line_sum(cells)
        for (offset, w_num, w_den), (j_num, j_den) in zip(fills, cells):
            table[base + offset] = _reduced(j_num * s_den * w_den, j_den * s_num * w_num)
    return table


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
                           / scales[site][cfg.symbol(site)]))
