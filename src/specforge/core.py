"""Finite configuration spaces with exact nonnegative rational arithmetic.

Everything downstream works on a finite window of sites, a finite symbol
alphabet and a finite set of frozen tail-class labels.  A configuration is a
full symbol assignment on the window plus one tail label; the label stands in
for the behaviour of the unmodelled exterior and is never touched by any
kernel.  Values are exact nonnegative rationals.  Tables hold them as
integer pairs in lowest terms, ``(num, den)`` with den > 0 and zero as
(0, 1), and every value the library computes past its input is such a
pair: table cells, free weights (`Space.fill_pairs`), kernel rows,
measure weights and certificate lines.  A `fractions.Fraction` is built
only where a value enters or leaves the library: parsing and the public
constructors on the way in, the public readers and report or witness
text (`_pair_text`) on the way out.  The one infinite value, where a
ratio integral or an extension divisor demands it, is the pair (1, 0);
an undefined ratio integral is None.  Sums along a line of the free measure (the unit
mass of a site, and the ratio integrals a family tabulates by region
pair, `Tabulated.ratio_table`) are accumulated in integers by
`_line_sum`, one numerator over one common denominator; a ratio
integral's undefined, infinite and zero cases are decided once, by
`_ratio_line`, and no `Fraction` is built for either.

A configuration's index is its position in `Space.configurations()`: with
pos(v) the alphabet position of v, (v_0 ... v_{n-1}, tail) has index
tail_pos·q^n + Σ_k pos(v_k)·q^(n-1-k), site 0 most significant.  Its class
off some hidden sites is the index with the hidden digits zeroed, the
index of the class's first member, its class base: `Space.class_map`
holds the base of every index per tuple of hidden sites, and
`Space.class_bases` lists the distinct ones in order, once per tuple.
The index is the only point inside the library: density tables are
lists indexed by it, memos key classes by their base, kernel rows and
measure weights are keyed by it, and private code passes indices and
class bases, never a `Configuration`.  A `Configuration` is built only
at the boundary: the public readers and the functions that take one,
the raw weights a model is read at, and witness or error text.
`Configuration.key`, ``(values, tail)``, keys only the per-site tables a
`SingletonFamily` is given and the report orders that sort points by it.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction

Site = str | int

__all__ = [
    "Site",
    "SpecforgeError",
    "DomainError",
    "parse_rational",
    "exact",
    "Frozen",
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


def _reduced(num: int, den: int) -> tuple[int, int]:
    """``num/den`` in lowest terms, for ``num`` >= 0 and ``den`` > 0, or
    ``num`` > 0 and ``den`` = 0, the infinite (1, 0): zero is (0, 1)."""
    g = math.gcd(num, den)
    return num // g, den // g


def _pair_text(num: int, den: int) -> str:
    """The text of a reduced pair, ``n`` or ``n/d``: ``str(Fraction(num,
    den))``, without building the `Fraction`; ``inf`` for the infinite
    (1, 0).  The one writer of a computed value into report, witness or
    `.rho` text."""
    return "inf" if not den else str(num) if den == 1 else f"{num}/{den}"


def _ratio_line(terms: Iterable[tuple[int, int, tuple[int, int], tuple[int, int]]]
                ) -> tuple[int, int] | None:
    """Σ w·n/d along one line of the free measure, ``terms`` holding per
    fill the weight w as ``w_num, w_den`` and n and d as integer pairs,
    all nonnegative over positive denominators.  None where the sum is
    undefined: a 0/0 point, or n/d infinite on a zero weight.  Else an
    integer pair: (1, 0) where n/d is infinite on a positive weight, or
    `_line_sum`'s pair of the finite terms, whose first member is zero
    iff the sum is."""
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


class Frozen:
    """Immutable once built: an ``__init__`` assigns its attributes, then
    calls `_freeze`; every later assignment or deletion raises
    `AttributeError`.  Attributes holding memo dicts still fill in place."""

    _frozen = False

    def _freeze(self) -> None:
        object.__setattr__(self, "_frozen", True)

    def __setattr__(self, name: str, value) -> None:
        if self._frozen:
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if self._frozen:
            raise AttributeError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)


class Alphabet(Frozen):
    """The finite symbol set shared by every site."""

    def __init__(self, symbols: tuple[str, ...]):
        if not symbols:
            raise DomainError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise DomainError(f"duplicate alphabet symbols: {symbols}")
        for sym in symbols:
            if not sym or any(ch.isspace() for ch in sym):
                raise DomainError(f"bad alphabet symbol: {sym!r}")
        self.symbols = symbols
        self._freeze()

    def __eq__(self, other) -> bool:
        # `Space` compares its alphabet with the free measure's by symbols
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

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


class Universe(Frozen):
    """The ordered finite window of sites the artifact actually models.

    Site labels are abstract; `dimension_hint` is optional metadata for tools
    that want to render the window geometrically and plays no role in any
    computation.
    """

    def __init__(self, sites: tuple[Site, ...], dimension_hint: int | None = None):
        if not sites:
            raise DomainError("universe must contain at least one site")
        if len(set(sites)) != len(sites):
            raise DomainError(f"duplicate sites: {sites}")
        self.sites = sites
        self.dimension_hint = dimension_hint
        self._index = {s: k for k, s in enumerate(sites)}
        self._regions: dict[tuple, tuple[Site, ...]] = {}
        self._freeze()

    def index(self, site: Site) -> int:
        try:
            return self._index[site]
        except KeyError:
            raise DomainError(f"site {site!r} not in universe {self.sites}") from None

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, site) -> bool:
        return site in self._index

    def region(self, sites: Iterable[Site]) -> tuple[Site, ...]:
        """Canonical form of a site subset: ordered by universe position.

        Memoised per input tuple; an input that raises leaves no entry."""
        sites = tuple(sites)
        try:
            return self._regions[sites]
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
        region = self._regions[sites] = tuple(
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


class FreeMeasure(Frozen):
    """Per-site reference weights over the alphabet.

    Each site carries a finite nonnegative weight per symbol with at least one
    strictly positive entry.  `is_normalized` says whether every per-site
    total equals one; parts of the verifier require that and say so.
    `is_positive` says whether no weight is zero, which the uniqueness
    probe and the order-independence read-off need.  Both are decided
    once, at construction.
    """

    def __init__(self, alphabet: Alphabet, weights: Mapping[Site, Mapping[str, Fraction]]):
        frozen: dict[Site, dict[str, Fraction]] = {}
        for site, table in weights.items():
            row: dict[str, Fraction] = {}
            for sym in alphabet:
                if sym not in table:
                    raise DomainError(f"free measure at site {site!r} misses symbol {sym!r}")
                w = exact(table[sym], lambda: f"site {site!r}, symbol {sym!r}")
                if w.numerator < 0:
                    raise DomainError(f"negative free weight at site {site!r}, symbol {sym!r}")
                row[sym] = w
            extra = set(table) - set(alphabet.symbols)
            if extra:
                raise DomainError(f"free measure at site {site!r} names unknown symbols {sorted(extra)}")
            if not any(w.numerator for w in row.values()):
                raise DomainError(f"free measure at site {site!r} has no positive weight")
            frozen[site] = row
        self.alphabet = alphabet
        self.weights = frozen
        masses = [_line_sum(w.as_integer_ratio() for w in row.values()) for row in frozen.values()]
        self.is_normalized = all(num == den for num, den in masses)
        self.is_positive = all(w.numerator for row in frozen.values() for w in row.values())
        self._freeze()

    @classmethod
    def uniform(cls, alphabet: Alphabet, sites: Iterable[Site]) -> "FreeMeasure":
        share = Fraction(1, len(alphabet))
        return cls(alphabet, {s: {a: share for a in alphabet} for s in sites})

    def weight(self, site: Site, symbol: str) -> Fraction:
        try:
            return self.weights[site][symbol]
        except KeyError:
            raise DomainError(f"free measure has no weight for site {site!r}, symbol {symbol!r}") from None


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


class Space(Frozen):
    """Alphabet, window, tail classes and free measure bundled together.

    This is the ambient context every model and kernel computation shares.
    Enumeration order is part of the contract: assignments iterate in
    lexicographic order of alphabet positions, tail classes in declared order,
    so every downstream artifact (tables, reports) is reproducible byte for
    byte.  Each configuration is built once, at its index.
    """

    def __init__(self, alphabet: Alphabet, universe: Universe, free: FreeMeasure,
                 tail_classes: tuple[str, ...] = ("default",)):
        if not tail_classes:
            raise DomainError("at least one tail class is required")
        if len(set(tail_classes)) != len(tail_classes):
            raise DomainError(f"duplicate tail classes: {tail_classes}")
        missing = [s for s in universe if s not in free.weights]
        if missing:
            raise DomainError(f"free measure misses sites {missing}")
        stray = [s for s in free.weights if s not in universe.sites]
        if stray:
            raise DomainError(f"free measure names sites outside the universe {stray}")
        if free.alphabet != alphabet:
            raise DomainError("free measure alphabet differs from space alphabet")
        self.alphabet = alphabet
        self.universe = universe
        self.free = free
        self.tail_classes = tail_classes
        q, n = len(alphabet), len(universe)
        fills = itertools.product(tail_classes, itertools.product(alphabet.symbols, repeat=n))
        # the configurations by index, q, each site's stride and symbol's
        # digit; memos of strides, class maps and class bases per site
        # tuple, and of `fill_pairs` per region
        self._configs = tuple(Configuration(self, values, tail, index)
                              for index, (tail, values) in enumerate(fills))
        self._q = q
        self._strides = tuple(q ** (n - 1 - k) for k in range(n))
        self._digits = {sym: d for d, sym in enumerate(alphabet.symbols)}
        self._site_strides: dict[tuple, tuple[int, ...]] = {}
        self._class_maps: dict[tuple, list[int]] = {}
        self._class_bases: dict[tuple, tuple[int, ...]] = {}
        self._fills: dict[tuple, list[tuple[int, int, int]]] = {}
        self._freeze()

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

    def strides(self, sites: Iterable[Site]) -> tuple[int, ...]:
        """The index stride of each of ``sites``, memoised per tuple."""
        sites = tuple(sites)
        try:
            return self._site_strides[sites]
        except KeyError:
            strides = self._site_strides[sites] = tuple(
                self._strides[self.universe.index(site)] for site in sites)
            return strides

    def class_map(self, hidden: Iterable[Site]) -> list[int]:
        """The class base off ``hidden`` of every configuration index, in
        index order: the index with the hidden digits zeroed, the index
        of the class's first member.  Memoised per tuple."""
        hidden = tuple(hidden)
        try:
            return self._class_maps[hidden]
        except KeyError:
            classes = list(range(self.size))
            for stride in self.strides(hidden):
                classes = [index - index // stride % self._q * stride for index in classes]
            self._class_maps[hidden] = classes
            return classes

    def class_bases(self, hidden: Iterable[Site]) -> tuple[int, ...]:
        """The sorted distinct class bases off ``hidden``: every hidden
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

    def per_class(self, hidden: Iterable[Site],
                  evaluate: Callable[[int], object]) -> Iterator[tuple[int, object]]:
        """``(index, evaluate(base))`` for every configuration index, in
        order, lazily, base the index's `class_map` entry off ``hidden``,
        for an ``evaluate`` that reads its point only off ``hidden``: it
        runs once per class, at the class base."""
        outcomes: dict[int, object] = {}
        for index, base in enumerate(self.class_map(hidden)):
            if base not in outcomes:
                outcomes[base] = evaluate(base)
            yield index, outcomes[base]

    # -- free weights ------------------------------------------------------

    def fill_pairs(self, region: tuple[Site, ...]) -> list[tuple[int, int, int]]:
        """``(offset, num, den)`` per fill of the canonical ``region``, in
        `assignments` order: a class base off ``region`` plus the offset
        indexes the class member carrying the fill, and num/den, in lowest
        terms, is the fill's product free weight, multiplied out in
        integers.  Memoised per region."""
        try:
            return self._fills[region]
        except KeyError:
            pass
        fills = [(0, 1, 1)]
        for site, stride in zip(region, self.strides(region)):
            row = [w.as_integer_ratio() for w in self.free.weights[site].values()]
            fills = [(offset + d * stride, num * w_num, den * w_den)
                     for offset, num, den in fills for d, (w_num, w_den) in enumerate(row)]
        pairs = self._fills[region] = [
            (offset, *_reduced(num, den)) for offset, num, den in fills]
        return pairs
