"""Finite configuration spaces with exact nonnegative rational arithmetic.

Everything downstream works on a finite window of sites, a finite symbol
alphabet and a finite set of frozen tail-class labels.  A configuration is a
full symbol assignment on the window plus one tail label; the label stands in
for the behaviour of the unmodelled exterior and is never touched by any
kernel.  All numeric work uses `fractions.Fraction`, extended with a single
point at infinity where ratios demand it.  The indeterminate contractions
0 * inf, 0 / 0 and inf / inf are hard errors carrying the offending context,
never silent conventions.  Sums along a line of the free measure
(`Space.free_integral`, and the ratio integrals a family tabulates by
region pair, `Tabulated.ratio_table`) are accumulated in integers by
`_line_sum`, one numerator over one common denominator; a ratio
integral's undefined, infinite and zero cases are decided once, by
`_ratio_line`, and no `Fraction` is built for either.

A configuration's index is its position in `Space.configurations()`: with
pos(v) the alphabet position of v, (v_0 ... v_{n-1}, tail) has index
tail_pos·q^n + Σ_k pos(v_k)·q^(n-1-k), site 0 most significant.  Its class
off some hidden sites is the index with the hidden digits zeroed
(`Space.class_index`), the index of the class's first member, read off
one class map per tuple of hidden sites; `Space.class_bases` lists the
distinct ones in order, once per tuple, for walks over the classes that
need no `Configuration`.  The index is
the only key inside the library: density tables are lists indexed by it,
memos key classes by it, and kernel rows and measure weights are keyed by
it.  `Configuration.key`, ``(values, tail)``, keys only the per-site
tables a `SingletonFamily` is given and the report orders that sort
points by it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

Site = Union[str, int]

__all__ = [
    "Site",
    "SpecforgeError",
    "DomainError",
    "ArithmeticDomainError",
    "ExtendedRational",
    "INF",
    "parse_rational",
    "exact",
    "Alphabet",
    "Universe",
    "FreeMeasure",
    "Configuration",
    "Space",
]


class SpecforgeError(Exception):
    """Base class for every error raised deliberately by this package."""


class DomainError(SpecforgeError):
    """A caller violated a documented precondition."""


class ArithmeticDomainError(SpecforgeError):
    """An indeterminate extended-arithmetic contraction was attempted.

    Raised for 0 * inf, 0 / 0 and inf / inf.  These never occur along valid
    computation paths (good symbols keep every denominator usable), so hitting
    one means either bad input data or a genuine hypothesis violation; the
    message names the offending quantity and, where known, the configuration.
    """


def exact(value, where: Callable[[], str]) -> Fraction:
    """``value`` as a `Fraction` if it is exact, an int (not a bool) or a
    Fraction; else `DomainError`, naming the place ``where()`` describes."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"not an exact rational at {where()}: {value!r}")
    return Fraction(value)


def _line_sum(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Σ n/d over ``terms``, integer pairs with every d > 0, as one
    numerator over one denominator, the lcm of the ds: one gcd per term,
    and no `Fraction` built.  The pair is not reduced, but its
    denominator is positive, so the sum is 1 iff the two are equal, 0
    iff the numerator is, and ``Fraction(*pair)`` is its value."""
    num, den = 0, 1
    for n, d in terms:
        g = math.gcd(den, d)
        num = num * (d // g) + n * (den // g)
        den = den // g * d
    return num, den


def _ratio_line(terms: Iterable[tuple[int, int, tuple[int, int], tuple[int, int]]]
                ) -> tuple[int, int] | None:
    """Σ w·n/d along one line of the free measure, ``terms`` holding per
    fill the weight w as ``w_num, w_den`` and n and d as integer pairs,
    all nonnegative over positive denominators.  None where the sum is
    undefined: a 0/0 point, or n/d infinite on a zero weight.  Else an
    integer pair: (1, 0) where n/d is infinite on a positive weight, or
    `_line_sum`'s pair of the finite terms, whose first member is zero
    iff the sum is; `ExtendedRational._of_pair` is its value."""
    finite = []
    infinite = False
    for w_num, w_den, (n_num, n_den), (d_num, d_den) in terms:
        if not d_num:
            if not n_num or not w_num:
                return None
            infinite = True
        elif w_num and n_num:
            finite.append((w_num * n_num * d_den, w_den * n_den * d_num))
    return (1, 0) if infinite else _line_sum(finite)


_RATIONAL_RE = re.compile(r"^(0|[1-9][0-9]*)(/([1-9][0-9]*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a nonnegative rational literal of the form ``n`` or ``n/d``.

    Floating-point syntax is rejected on purpose: exact fields must stay
    exact all the way from input files to reports.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise DomainError(f"not a nonnegative rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(3)) if m.group(3) else 1
    return Fraction(num, den)


class ExtendedRational:
    """A nonnegative rational extended with a single infinite element.

    Supports exactly the operations the kernel calculus needs: addition,
    multiplication, division and total ordering, with the conventions

        a / inf = 0        a / 0 = inf (a > 0)        a * inf = inf (a > 0)

    and hard `ArithmeticDomainError` for 0 * inf, 0 / 0 and inf / inf.
    Instances are immutable and hash-compatible with `Fraction`.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[Fraction, int, "ExtendedRational", None] = 0):
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

    @classmethod
    def _trusted(cls, value: Fraction) -> "ExtendedRational":
        """The finite element ``value``, a `Fraction` the caller has
        proven nonnegative; unchecked, for the hot integer paths."""
        element = object.__new__(cls)
        element._value = value
        return element

    @classmethod
    def _of_pair(cls, pair: tuple[int, int]) -> "ExtendedRational":
        """The value of an integer pair with both members nonnegative: a
        zero second member is infinite, else the quotient."""
        num, den = pair
        return INF if not den else cls._trusted(Fraction(num, den))

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_zero(self) -> bool:
        return self._value == 0

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


@dataclass(frozen=True)
class Alphabet:
    """The finite symbol set shared by every site."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise DomainError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise DomainError(f"duplicate alphabet symbols: {self.symbols}")
        for sym in self.symbols:
            if not sym or any(ch.isspace() for ch in sym):
                raise DomainError(f"bad alphabet symbol: {sym!r}")

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise DomainError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self.symbols


@dataclass(frozen=True)
class Universe:
    """The ordered finite window of sites the artifact actually models.

    Site labels are abstract; `dimension_hint` is optional metadata for tools
    that want to render the window geometrically and plays no role in any
    computation.
    """

    sites: tuple[Site, ...]
    dimension_hint: int | None = None

    def __post_init__(self):
        if not self.sites:
            raise DomainError("universe must contain at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise DomainError(f"duplicate sites: {self.sites}")
        object.__setattr__(self, "_index", {s: k for k, s in enumerate(self.sites)})
        object.__setattr__(self, "_regions", {})

    def index(self, site: Site) -> int:
        try:
            return self._index[site]  # type: ignore[attr-defined]
        except KeyError:
            raise DomainError(f"site {site!r} not in universe {self.sites}") from None

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, site) -> bool:
        return site in self._index  # type: ignore[attr-defined]

    def region(self, sites: Iterable[Site]) -> tuple[Site, ...]:
        """Canonical form of a site subset: ordered by universe position.

        Memoised per input tuple; an input that raises leaves no entry."""
        sites = tuple(sites)
        try:
            return self._regions[sites]  # type: ignore[attr-defined]
        except KeyError:
            pass
        seen = set()
        idx = []
        for s in sites:
            k = self.index(s)
            if k in seen:
                raise DomainError(f"site {s!r} listed twice in region")
            seen.add(k)
            idx.append(k)
        region = self._regions[sites] = tuple(  # type: ignore[attr-defined]
            self.sites[k] for k in sorted(idx))
        return region

    def complement(self, sites: Iterable[Site]) -> tuple[Site, ...]:
        inside = set(self.region(sites))
        return tuple(s for s in self.sites if s not in inside)

    def subsets(self, within: Iterable[Site] | None = None) -> Iterator[tuple[Site, ...]]:
        """All subsets of `within` (default: whole universe), smallest first."""
        pool = self.region(within) if within is not None else self.sites
        for size in range(len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                yield combo


@dataclass(frozen=True)
class FreeMeasure:
    """Per-site reference weights over the alphabet.

    Each site carries a finite nonnegative weight per symbol with at least one
    strictly positive entry.  `is_normalized` reports whether every per-site
    total equals one; parts of the verifier require that and say so.
    `is_positive` reports whether no weight is zero, which the uniqueness
    probe and the order-independence read-off need.
    """

    alphabet: Alphabet
    weights: Mapping[Site, Mapping[str, Fraction]]

    def __post_init__(self):
        frozen: dict[Site, dict[str, Fraction]] = {}
        for site, table in self.weights.items():
            row: dict[str, Fraction] = {}
            for sym in self.alphabet:
                if sym not in table:
                    raise DomainError(f"free measure at site {site!r} misses symbol {sym!r}")
                w = exact(table[sym], lambda: f"site {site!r}, symbol {sym!r}")
                if w < 0:
                    raise DomainError(f"negative free weight at site {site!r}, symbol {sym!r}")
                row[sym] = w
            extra = set(table) - set(self.alphabet.symbols)
            if extra:
                raise DomainError(f"free measure at site {site!r} names unknown symbols {sorted(extra)}")
            if all(w == 0 for w in row.values()):
                raise DomainError(f"free measure at site {site!r} has no positive weight")
            frozen[site] = row
        object.__setattr__(self, "weights", frozen)

    @classmethod
    def uniform(cls, alphabet: Alphabet, sites: Iterable[Site]) -> "FreeMeasure":
        share = Fraction(1, len(alphabet))
        return cls(alphabet, {s: {a: share for a in alphabet} for s in sites})

    def weight(self, site: Site, symbol: str) -> Fraction:
        try:
            return self.weights[site][symbol]
        except KeyError:
            raise DomainError(f"free measure has no weight for site {site!r}, symbol {symbol!r}") from None

    def site_mass(self, site: Site) -> Fraction:
        return sum(self.weights[site].values(), Fraction(0))

    @property
    def is_normalized(self) -> bool:
        return all(self.site_mass(site) == 1 for site in self.weights)

    @property
    def is_positive(self) -> bool:
        """Whether every site gives every symbol a positive weight."""
        return all(w > 0 for row in self.weights.values() for w in row.values())


class Configuration:
    """A full assignment on the window plus a tail-class label.

    Immutable, at its ``index`` in `Space.configurations()`; equality and
    hashing use the assignment and the tail only, so configurations
    behave as plain values in tables and caches.
    """

    __slots__ = ("space", "values", "tail", "index")

    def __init__(self, space: "Space", values: tuple[str, ...], tail: str, index: int):
        self.space = space
        self.values = values
        self.tail = tail
        self.index = index

    @property
    def key(self) -> tuple[tuple[str, ...], str]:
        return (self.values, self.tail)

    def symbol(self, site: Site) -> str:
        return self.values[self.space.universe.index(site)]

    def restrict(self, sites: Iterable[Site]) -> tuple[str, ...]:
        uni = self.space.universe
        return tuple(self.values[uni.index(s)] for s in sites)

    def with_sites(self, assignment: Mapping[Site, str]) -> "Configuration":
        for sym in assignment.values():
            if sym not in self.space.alphabet:
                raise DomainError(f"symbol {sym!r} not in alphabet")
        return self.space.overlay(self, tuple(assignment), tuple(assignment.values()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (
            self.values == other.values
            and self.tail == other.tail
            and self.space.universe.sites == other.space.universe.sites
        )

    def __hash__(self) -> int:
        return hash((self.values, self.tail))

    def __repr__(self) -> str:
        return f"Configuration({''.join(self.values)}, tail={self.tail})"


@dataclass(frozen=True)
class Space:
    """Alphabet, window, tail classes and free measure bundled together.

    This is the ambient context every model and kernel computation shares.
    Enumeration order is part of the contract: assignments iterate in
    lexicographic order of alphabet positions, tail classes in declared order,
    so every downstream artifact (tables, reports) is reproducible byte for
    byte.  Each configuration is built once, at its index.
    """

    alphabet: Alphabet
    universe: Universe
    free: FreeMeasure
    tail_classes: tuple[str, ...] = ("default",)

    def __post_init__(self):
        if not self.tail_classes:
            raise DomainError("at least one tail class is required")
        if len(set(self.tail_classes)) != len(self.tail_classes):
            raise DomainError(f"duplicate tail classes: {self.tail_classes}")
        missing = [s for s in self.universe if s not in self.free.weights]
        if missing:
            raise DomainError(f"free measure misses sites {missing}")
        stray = [s for s in self.free.weights if s not in self.universe.sites]
        if stray:
            raise DomainError(f"free measure names sites outside the universe {stray}")
        if self.free.alphabet != self.alphabet:
            raise DomainError("free measure alphabet differs from space alphabet")
        q, n = len(self.alphabet), len(self.universe)
        fills = itertools.product(self.tail_classes,
                                  itertools.product(self.alphabet.symbols, repeat=n))
        # the configurations by index, q, each site's stride and symbol's
        # digit; memos of strides and class maps per site tuple, fill
        # offsets and weights
        for name, value in (
                ("_configs", tuple(Configuration(self, values, tail, index)
                                   for index, (tail, values) in enumerate(fills))),
                ("_q", q), ("_strides", tuple(q ** (n - 1 - k) for k in range(n))),
                ("_digits", {sym: d for d, sym in enumerate(self.alphabet.symbols)}),
                ("_site_strides", {}), ("_class_maps", {}), ("_class_bases", {}),
                ("_memo", {})):
            object.__setattr__(self, name, value)

    def _memoised(self, key: tuple, compute: Callable[[], object]):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    # -- construction ------------------------------------------------------

    def configuration(self, assignment: Mapping[Site, str], tail: str | None = None) -> Configuration:
        if tail is None:
            if len(self.tail_classes) != 1:
                raise DomainError("tail class must be named when several are declared")
            tail = self.tail_classes[0]
        if tail not in self.tail_classes:
            raise DomainError(f"unknown tail class {tail!r}; declared: {self.tail_classes}")
        vals = []
        for site in self.universe:
            if site not in assignment:
                raise DomainError(f"assignment misses site {site!r}")
            sym = assignment[site]
            if sym not in self.alphabet:
                raise DomainError(f"symbol {sym!r} not in alphabet")
            vals.append(sym)
        if len(assignment) != len(self.universe):
            extra = set(assignment) - set(self.universe.sites)
            raise DomainError(f"assignment names unknown sites {sorted(map(repr, extra))}")
        return self.make(tuple(vals), tail)

    def make(self, values: tuple[str, ...], tail: str) -> Configuration:
        """The configuration of ``values`` (window order) and ``tail``, unchecked."""
        index = self.tail_classes.index(tail)
        for sym in values:
            index = index * self._q + self._digits[sym]
        return self._configs[index]

    # -- enumeration -------------------------------------------------------

    def assignments(self, sites: Iterable[Site]) -> Iterator[tuple[str, ...]]:
        region = self.universe.region(sites)
        return itertools.product(self.alphabet.symbols, repeat=len(region))

    def configurations(self) -> Iterator[Configuration]:
        """Every configuration, in index order."""
        return iter(self._configs)

    def at(self, index: int) -> Configuration:
        """The configuration of the given index."""
        return self._configs[index]

    @property
    def size(self) -> int:
        """The number of configurations, T·q^n."""
        return len(self._configs)

    def overlay(self, cfg: Configuration, region: tuple[Site, ...], symbols: tuple[str, ...]) -> Configuration:
        """`cfg` with the sites of `region` rewritten to `symbols`."""
        index = cfg.index
        for site, sym in zip(region, symbols):
            stride = self._strides[self.universe.index(site)]
            index += (self._digits[sym] - index // stride % self._q) * stride
        return self._configs[index]

    def strides(self, sites: Iterable[Site]) -> tuple[int, ...]:
        """The index stride of each of ``sites``, memoised per tuple."""
        sites = tuple(sites)
        try:
            return self._site_strides[sites]
        except KeyError:
            strides = self._site_strides[sites] = tuple(
                self._strides[self.universe.index(site)] for site in sites)
            return strides

    def _class_map(self, hidden: Iterable[Site]) -> list[int]:
        """The `class_index` off ``hidden`` of every configuration, in
        index order, memoised per tuple."""
        hidden = tuple(hidden)
        try:
            return self._class_maps[hidden]
        except KeyError:
            classes = list(range(self.size))
            for stride in self.strides(hidden):
                classes = [index - index // stride % self._q * stride for index in classes]
            self._class_maps[hidden] = classes
            return classes

    def class_index(self, cfg: Configuration, hidden: Iterable[Site]) -> int:
        """The exterior class of ``cfg`` off ``hidden``: its index with the
        hidden digits zeroed, the index of the class's first member."""
        return self._class_map(hidden)[cfg.index]

    def class_bases(self, hidden: Iterable[Site]) -> tuple[int, ...]:
        """The sorted distinct class indices off ``hidden``: every hidden
        digit 0, the visible digits and the tail free.  Memoised per
        tuple; an input that raises leaves no entry."""
        hidden = tuple(hidden)
        try:
            return self._class_bases[hidden]
        except KeyError:
            q = self._q
            masked = set(self.strides(hidden))  # strides differ unless q = 1, all digits 0
            bases = [t * q * self._strides[0] for t in range(len(self.tail_classes))]
            for stride in self._strides:
                if stride not in masked:
                    bases = [b + d * stride for b in bases for d in range(q)]
            bases = self._class_bases[hidden] = tuple(bases)
            return bases

    def exterior_classes(self, hidden: Iterable[Site]) -> Iterator[Configuration]:
        """The first member of each exterior class off ``hidden``, at its
        `class_bases`."""
        return map(self._configs.__getitem__, self.class_bases(hidden))

    def per_class(self, hidden: Iterable[Site],
                  evaluate: Callable[[Configuration], object]) -> Iterator[tuple]:
        """``(cfg, evaluate(cfg))`` for every configuration, in order, lazily,
        for an ``evaluate`` that reads ``cfg`` only off ``hidden``: it runs
        once per `class_index`, at the class's first member."""
        outcomes: dict[int, object] = {}
        for cfg, key in zip(self._configs, self._class_map(hidden)):
            if key not in outcomes:
                outcomes[key] = evaluate(cfg)
            yield cfg, outcomes[key]

    # -- free integrals ----------------------------------------------------

    def product_weight(self, region: tuple[Site, ...], symbols: tuple[str, ...]) -> Fraction:
        return self._memoised(("weight", region, symbols), lambda: math.prod(
            (self.free.weight(site, sym) for site, sym in zip(region, symbols)),
            start=Fraction(1)))

    def fill_offsets(self, region: tuple[Site, ...]) -> list[tuple[int, Fraction]]:
        """``(offset, product free weight)`` per fill of the canonical
        ``region``, in `assignments` order: a class index off ``region``
        plus the offset indexes the class member carrying the fill."""
        return self._memoised(("offsets", region), lambda: [
            (sum(self._digits[sym] * stride for sym, stride in zip(fill, self.strides(region))),
             self.product_weight(region, fill))
            for fill in self.assignments(region)])

    def fill_pairs(self, region: tuple[Site, ...]) -> list[tuple[int, int, int]]:
        """`fill_offsets` with each weight as its integer pair:
        ``(offset, num, den)`` per fill, memoised per canonical region."""
        try:
            return self._memo["pairs", region]
        except KeyError:
            pairs = self._memo["pairs", region] = [
                (offset, *w.as_integer_ratio()) for offset, w in self.fill_offsets(region)]
            return pairs

    def free_integral(self, region: tuple[Site, ...], value: Callable[[int], Fraction],
                      cfg: Configuration) -> tuple[int, int]:
        """Free integral over the canonical ``region`` at the class of
        ``cfg`` of ``value``, read at each member's configuration index,
        as `_line_sum`'s integer pair."""
        base = self._class_map(region)[cfg.index]
        terms = []
        for offset, w_num, w_den in self.fill_pairs(region):
            v_num, v_den = value(base + offset).as_integer_ratio()
            if w_num and v_num:
                terms.append((w_num * v_num, w_den * v_den))
        return _line_sum(terms)
