"""Shared model builders for the test suite.

Every builder is deterministic: either fully literal or driven by an explicit
seed, so that any expected value frozen in a test stays meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from specforge.core import Alphabet, FreeMeasure, Space, Universe
from specforge.models import (
    PotentialModel,
    SingletonFamily,
    TableModel,
    TailRuleModel,
    extract_singletons,
    normalize,
)

LOW, HIGH = "L", "H"
MANY_HIGH, FEW_HIGH = "many-high", "few-high"


def example1_space(n_sites: int = 4) -> Space:
    alphabet = Alphabet((LOW, HIGH))
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)), dimension_hint=1)
    free = FreeMeasure.uniform(alphabet, universe)
    return Space(alphabet, universe, free, tail_classes=(MANY_HIGH, FEW_HIGH))


def example1_family(n_sites: int = 4) -> SingletonFamily:
    """Two-symbol tail-class model: each class pins its own preferred symbol.

    In class many-high the raw weight charges only L, in class few-high only
    H; with uniform free weights the normalized density is 2 on the preferred
    symbol and 0 on the other.
    """
    space = example1_space(n_sites)
    rules = {}
    for site in space.universe:
        rules[(MANY_HIGH, site)] = {LOW: Fraction(1), HIGH: Fraction(0)}
        rules[(FEW_HIGH, site)] = {LOW: Fraction(0), HIGH: Fraction(1)}
    return normalize(space, TailRuleModel(rules))


def plain_space(n_sites: int = 3, symbols: tuple[str, ...] = ("a", "b")) -> Space:
    alphabet = Alphabet(symbols)
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)), dimension_hint=1)
    free = FreeMeasure.uniform(alphabet, universe)
    return Space(alphabet, universe, free)


def independent_family(n_sites: int = 3, symbols: tuple[str, ...] = ("a", "b")) -> SingletonFamily:
    space = plain_space(n_sites, symbols)
    return SingletonFamily.from_function(space, lambda site, cfg: Fraction(1))


def random_joint(space: Space, rng: random.Random) -> dict[tuple, Fraction]:
    """A strictly positive random rational joint weight on full assignments."""
    return {
        values: Fraction(rng.randint(1, 12), rng.randint(1, 12))
        for values in space.assignments(space.universe.sites)
    }


def extracted_family(seed: int, n_sites: int = 3, symbols: tuple[str, ...] = ("a", "b")):
    """(space, joint, family) extracted from a random strictly positive joint."""
    space = plain_space(n_sites, symbols)
    rng = random.Random(seed)
    joint = random_joint(space, rng)
    return space, joint, extract_singletons(space, joint)


def chain_potential(space: Space, rng: random.Random) -> PotentialModel:
    """Random strictly positive fields plus nearest-neighbour pair weights."""
    sites = space.universe.sites
    fields = {
        site: {sym: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for sym in space.alphabet}
        for site in sites
    }
    pairs = {}
    for a, b in zip(sites, sites[1:]):
        pairs[(a, b)] = {
            (x, y): Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for x in space.alphabet
            for y in space.alphabet
        }
    return PotentialModel(fields, pairs)


def potential_family(seed: int, n_sites: int = 3, symbols: tuple[str, ...] = ("a", "b")):
    space = plain_space(n_sites, symbols)
    rng = random.Random(seed)
    model = chain_potential(space, rng)
    return space, model, normalize(space, model)


def ring_potential_family(seed: int, n_sites: int = 4, symbols: tuple[str, ...] = ("a", "b")):
    """A shift-invariant potential on a ring of sites.

    One shared field table and one shared pair table on every edge of the
    cycle s1 - s2 - ... - sn - s1, so the normalized family is invariant
    under rotating both the sites and the configuration.
    """
    space = plain_space(n_sites, symbols)
    rng = random.Random(seed)
    sites = space.universe.sites
    shared_field = {sym: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for sym in space.alphabet}
    shared_pair = {
        (x, y): Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for x in space.alphabet
        for y in space.alphabet
    }
    fields = {site: dict(shared_field) for site in sites}
    pairs = {}
    for k, site in enumerate(sites):
        pairs[(site, sites[(k + 1) % n_sites])] = dict(shared_pair)
    model = PotentialModel(fields, pairs)
    return space, model, normalize(space, model)


def broken_pair_family() -> SingletonFamily:
    """Two strictly positive sites whose conditionals cannot cohere.

    Site u ignores v, but v's preference flips with u in a way no joint
    weight can produce, so the order-consistency check must fail while the
    positivity check passes.
    """
    space = plain_space(2, ("0", "1"))
    u, v = space.universe.sites
    entries = {
        u: {
            ("0", ("0",), "default"): Fraction(1),
            ("1", ("0",), "default"): Fraction(1),
            ("0", ("1",), "default"): Fraction(1),
            ("1", ("1",), "default"): Fraction(1),
        },
        v: {
            ("0", ("0",), "default"): Fraction(1),
            ("1", ("0",), "default"): Fraction(2),
            ("0", ("1",), "default"): Fraction(2),
            ("1", ("1",), "default"): Fraction(1),
        },
    }
    return normalize(space, TableModel(entries))


def forced_exclusion_family() -> SingletonFamily:
    """Two sites where one symbol of v dies under a context rewrite.

    v's symbol "b" has zero weight when u carries "b", so "b" can never be
    good for v (against {u} it fails positivity at the rewrite u="b"; against
    the empty context the ratio integral over u blows up).  Positivity still
    holds: "a" stays good everywhere.
    """
    space = plain_space(2, ("a", "b"))
    u, v = space.universe.sites
    entries = {
        u: {
            ("a", ("a",), "default"): Fraction(1),
            ("b", ("a",), "default"): Fraction(1),
            ("a", ("b",), "default"): Fraction(1),
            ("b", ("b",), "default"): Fraction(1),
        },
        v: {
            ("a", ("a",), "default"): Fraction(1),
            ("b", ("a",), "default"): Fraction(1),
            ("a", ("b",), "default"): Fraction(1),
            ("b", ("b",), "default"): Fraction(0),
        },
    }
    return normalize(space, TableModel(entries))


def alternating_exclusion_family() -> SingletonFamily:
    """A family whose site v has no usable symbol at all.

    v must copy u exactly (weight only on the matching symbol), so every
    candidate symbol for v dies under some rewrite of u and the very-weak
    positivity check has to fail with an empty good set.
    """
    space = plain_space(2, ("a", "b"))
    u, v = space.universe.sites
    entries = {
        u: {
            ("a", ("a",), "default"): Fraction(1),
            ("b", ("a",), "default"): Fraction(1),
            ("a", ("b",), "default"): Fraction(1),
            ("b", ("b",), "default"): Fraction(1),
        },
        v: {
            ("a", ("a",), "default"): Fraction(1),
            ("b", ("a",), "default"): Fraction(0),
            ("a", ("b",), "default"): Fraction(0),
            ("b", ("b",), "default"): Fraction(1),
        },
    }
    return normalize(space, TableModel(entries))


def lopsided_free_family() -> SingletonFamily:
    """Constant densities over a free measure with one zero weight.

    Site s1 puts all its free weight on "a"; densities are 1 everywhere, so
    every hypothesis check passes and the family builds, but operations that
    need strictly positive free weights must refuse it.
    """
    alphabet = Alphabet(("a", "b"))
    universe = Universe(("s1", "s2"), dimension_hint=1)
    free = FreeMeasure(alphabet, {
        "s1": {"a": Fraction(1), "b": Fraction(0)},
        "s2": {"a": Fraction(1, 2), "b": Fraction(1, 2)},
    })
    space = Space(alphabet, universe, free)
    return SingletonFamily.from_function(space, lambda site, cfg: Fraction(1))


def unnormalized_free_family() -> SingletonFamily:
    """Constant densities over unit free weights (per-site mass 2, not 1).

    Kernels are perfectly fine, so the family builds; operations that insist
    on a normalized free measure must refuse the space.
    """
    alphabet = Alphabet(("a", "b"))
    universe = Universe(("s1", "s2"), dimension_hint=1)
    free = FreeMeasure(alphabet, {
        site: {"a": Fraction(1), "b": Fraction(1)} for site in universe
    })
    space = Space(alphabet, universe, free)
    return SingletonFamily.from_function(space, lambda site, cfg: Fraction(1, 2))


def anchored_table_family(seed: int, n_sites: int = 3, symbols: tuple[str, ...] = ("a", "b")):
    """A random family that keeps its first symbol usable everywhere.

    The first alphabet symbol gets a strictly positive raw weight in every
    context, the rest are zero or positive at random.  Such families always
    pass the positivity hypothesis; generic draws break order consistency.
    """
    space = plain_space(n_sites, symbols)
    rng = random.Random(seed)
    anchor = symbols[0]
    entries: dict = {}
    for site in space.universe:
        others = tuple(s for s in space.universe if s != site)
        table = {}
        for tail in space.tail_classes:
            for ctx in space.assignments(others):
                for sym in space.alphabet:
                    if sym == anchor or rng.random() < 0.6:
                        w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    else:
                        w = Fraction(0)
                    table[(sym, ctx, tail)] = w
        entries[site] = table
    return space, normalize(space, TableModel(entries))


def _hardcore_chain(n_sites: int, tails: tuple[str, ...] = ("default",),
                    exempt: frozenset[int] = frozenset()) -> SingletonFamily:
    """Symbol "b" at site k has weight k + 1 unless a neighbour carries
    "b", which sites of an index in ``exempt`` ignore, or the tail is
    "pinned" and k is an end of the chain; "a" has weight 1."""
    alphabet = Alphabet(("a", "b"))
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)), dimension_hint=1)
    space = Space(alphabet, universe, FreeMeasure.uniform(alphabet, universe), tails)
    sites = universe.sites
    entries: dict = {}
    for k, site in enumerate(sites):
        table = {}
        for values in space.assignments(sites):
            neighbours = values[max(k - 1, 0):k] + values[k + 1:k + 2]
            for tail in tails:
                if values[k] == "a":
                    w = Fraction(1)
                elif tail == "pinned" and k in (0, n_sites - 1):
                    w = Fraction(0)
                elif k not in exempt and "b" in neighbours:
                    w = Fraction(0)
                else:
                    w = Fraction(k + 1)
                table[(values[k], values[:k] + values[k + 1:], tail)] = w
        entries[site] = table
    return normalize(space, TableModel(entries))


def hardcore_family(n_sites: int = 3) -> SingletonFamily:
    """A hard-core chain: "b" at site k has weight k + 1 unless a neighbour has "b".

    These are the conditionals of a Gibbs measure with site activities
    k + 1, so every hypothesis holds while many densities are zero.
    """
    return _hardcore_chain(n_sites)


def two_tail_hardcore_family(n_sites: int = 4) -> SingletonFamily:
    """`hardcore_family` under two tail classes, "open" and "pinned";
    tail "pinned" also forbids "b" at both ends of the chain.

    Each tail class carries the conditionals of its own hard-core Gibbs
    measure, so every hypothesis holds.
    """
    return _hardcore_chain(n_sites, ("open", "pinned"))


def one_sided_hardcore_family(n_sites: int = 3) -> SingletonFamily:
    """A hard-core chain whose first site ignores the exclusion.

    Symbol "b" at site k has weight k + 1 unless a neighbour carries "b";
    site s1 keeps "b" regardless.  "a" stays good everywhere, so very weak
    positivity holds, but no joint has these conditionals: order
    consistency and the eight-factor identity fail.
    """
    return _hardcore_chain(n_sites, exempt=frozenset({0}))


def random_zero_table_family(seed: int) -> SingletonFamily:
    """A random table family in the zero-density regime.

    Two to four sites, up to three symbols and up to two tail classes.
    Each site's free measure is zero on a random subset of symbols (never
    all of them); raw weights are zero with probability 0.4, except that
    every row keeps one positive weight on a symbol of positive free
    weight, so the weights always normalize.
    """
    rng = random.Random(seed)
    n_sites = rng.randint(2, 4)
    symbols = ("a", "b", "c")[:rng.randint(2, 3) if n_sites < 4 else 2]
    tails = ("t0", "t1")[:rng.randint(1, 2)]
    alphabet = Alphabet(symbols)
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)))
    weights = {}
    for site in universe:
        row = {sym: Fraction(rng.choice((0, 1, 2, 3))) for sym in symbols}
        if all(w == 0 for w in row.values()):
            row[rng.choice(symbols)] = Fraction(1)
        weights[site] = row
    space = Space(alphabet, universe, FreeMeasure(alphabet, weights), tail_classes=tails)
    entries: dict = {}
    for site in universe:
        others = tuple(s for s in universe if s != site)
        carriers = [sym for sym in symbols if weights[site][sym] != 0]
        table = {}
        for tail in tails:
            for ctx in space.assignments(others):
                keep = rng.choice(carriers)
                for sym in symbols:
                    zero = sym != keep and rng.random() < 0.4
                    table[(sym, ctx, tail)] = (
                        Fraction(0) if zero else Fraction(rng.randint(1, 5), rng.randint(1, 5))
                    )
        entries[site] = table
    return normalize(space, TableModel(entries))


def random_hardcore_family(seed: int) -> SingletonFamily:
    """Hard-core exclusion on a random graph, with random positive activities.

    Two to five sites (three symbols only up to three sites), up to two
    tail classes, uniform free weights.  The first symbol is the empty
    one; every other symbol is a particle, and no two neighbours in the
    graph (each pair joined with probability 1/2, and one pair at least)
    both hold one.  Tail class t1 also pins a random set of sites to the
    empty symbol, as an occupied exterior would.  The densities are the
    conditionals of the Gibbs weight Π λ_x(σ_x) over the allowed
    configurations of each tail class, so order consistency holds, and
    the empty symbol keeps a positive density everywhere, so every site
    has a good symbol: every draw passes the gates and builds, and the
    sites of an edge have zero densities.
    """
    rng = random.Random(seed)
    n_sites = rng.randint(2, 5)
    symbols = ("a", "b", "c")[:rng.randint(2, 3) if n_sites <= 3 else 2]
    tails = ("t0", "t1")[:rng.randint(1, 2)]
    alphabet = Alphabet(symbols)
    universe = Universe(tuple(f"s{k}" for k in range(1, n_sites + 1)))
    space = Space(alphabet, universe, FreeMeasure.uniform(alphabet, universe),
                  tail_classes=tails)
    sites = universe.sites
    pairs = list(itertools.combinations(sites, 2))
    edges = [pair for pair in pairs if rng.random() < 0.5] or [rng.choice(pairs)]
    neighbours = {site: set() for site in sites}
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    pinned = {"t0": set(), "t1": {site for site in sites if rng.random() < 0.4}}
    activity = {site: {sym: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for sym in symbols}
                for site in sites}
    empty = symbols[0]
    entries: dict = {}
    for k, site in enumerate(sites):
        table = {}
        for tail in tails:
            for values in space.assignments(sites):
                blocked = site in pinned[tail] or any(
                    values[universe.index(other)] != empty for other in neighbours[site])
                occupied = values[k] != empty
                table[(values[k], values[:k] + values[k + 1:], tail)] = (
                    Fraction(0) if occupied and blocked else activity[site][values[k]])
        entries[site] = table
    return normalize(space, TableModel(entries))


def last_pair_broken_family(n_sites: int = 4) -> SingletonFamily:
    """Strictly positive sites that cohere on every pair but the last one.

    Every site but the last has density 1 whatever the configuration,
    and the last site's preference flips with the one before it, as in
    ``broken_pair_family``; so order consistency fails on the site pair
    that comes last in universe order, and only there.
    """
    space = plain_space(n_sites, ("0", "1"))
    *_, before, last = space.universe.sites

    def density(site, cfg):
        if site != last:
            return Fraction(1)
        return Fraction(2, 3) if cfg.symbol(site) == cfg.symbol(before) else Fraction(4, 3)

    return SingletonFamily.from_function(space, density)


def context_reading(good_points):
    """A good-point table made to read the context's own symbols.

    Drops the points whose first context site holds the last alphabet
    symbol.  Real good sets never depend on the context's symbols, so
    the support suites must report the patched table.
    """

    def patched(family, site, ctx):
        table = good_points(family, site, ctx)
        if not ctx:
            return table
        k = family.space.universe.index(ctx[0])
        last = family.space.alphabet.symbols[-1]
        return frozenset(i for i in table if family.space.at(i).values[k] != last)

    return patched


def reweighted(dens, region, weigh):
    """``dens`` with the region's row at its first exterior class replaced
    by ``weigh(block, original density)`` for every block."""
    space = dens.space
    first = dict(zip(space.universe.sites, space.at(0).values))
    table = list(dens.table(region))
    for block in space.assignments(region):
        index = space.configuration({**first, **dict(zip(region, block))},
                                    space.tail_classes[0]).index
        table[index] = weigh(block, table[index])
    return dens.replace_table(region, table)


def doubled_entry(family: SingletonFamily, pick: int) -> SingletonFamily:
    """``family`` with one nonzero density entry doubled and its line along
    the entry's own site rescaled to unit mass again."""
    space = family.space
    tables = {s: {cfg.key: family.density(s, cfg) for cfg in space.configurations()}
              for s in space.universe.sites}
    entries = [(site, key) for site in space.universe.sites
               for key, value in tables[site].items() if value != 0]
    site, (values, tail) = entries[pick % len(entries)]
    k = space.universe.index(site)
    table = tables[site]
    table[(values, tail)] *= 2
    line = [(values[:k] + (sym,) + values[k + 1:], tail) for sym in space.alphabet]
    mass = sum(space.free.weight(site, key[0][k]) * table[key] for key in line)
    for key in line:
        table[key] /= mass
    return SingletonFamily(space, tables)
