"""Deterministic model-file generator for the benchmark workloads.

Every family is written as a specforge ``.model`` file; the program under
test only ever sees these files.  The verdict each model must get is known
from how it is built, not from the code under test:

* ``positive_chain``: random strictly positive field and pair weights on a
  nearest-neighbour chain.  It is the conditional family of a product-form
  joint, so every gate passes (exit 0) and ``chain_joint`` is its exact
  joint weight.
* ``hardcore_chain``: no two neighbouring sites may both carry ``b``, with
  random positive activities.  Tail ``open`` has no boundary condition;
  tail ``pinned`` also forbids ``b`` at both ends.  It is the conditional
  family of a joint with hard constraints, so it passes (exit 0) while
  sitting in the zero-density regime.
* ``one_sided_hardcore``: as ``hardcore_chain`` with one tail, except that
  site s1 ignores the exclusion that s2 obeys.  Symbol ``a`` stays good
  everywhere, so very weak positivity holds, but no joint has these
  conditionals, so order consistency fails (exit 1).
* ``copycat``: s2 must repeat the symbol of s1 while s1 ignores s2.  Every
  symbol of s2 dies under some rewrite of s1, so very weak positivity
  fails (exit 1).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

ALPHABET = ("a", "b")


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _sites(n: int) -> list[str]:
    return [f"s{k}" for k in range(1, n + 1)]


def _header(name: str, n: int, tails: tuple[str, ...], kind: str) -> list[str]:
    lines = [
        f"name {name}",
        "sites " + " ".join(_sites(n)),
        "alphabet " + " ".join(ALPHABET),
    ]
    if tails != ("default",):
        lines.append("tails " + " ".join(tails))
    lines += ["free uniform", f"kind {kind}"]
    return lines


def chain_weights(n: int, rng: random.Random) -> tuple[dict, dict]:
    """Random positive (fields, pairs) of a nearest-neighbour chain."""
    sites = _sites(n)
    fields = {s: {x: _weight(rng) for x in ALPHABET} for s in sites}
    pairs = {
        (a, b): {(x, y): _weight(rng) for x in ALPHABET for y in ALPHABET}
        for a, b in zip(sites, sites[1:])
    }
    return fields, pairs


def positive_chain(n: int, rng: random.Random) -> tuple[str, dict, dict]:
    """(model text, fields, pairs) of a seeded positive chain."""
    fields, pairs = chain_weights(n, rng)
    lines = _header(f"chain{n}", n, ("default",), "potential")
    for site, vector in fields.items():
        lines.append(f"field {site} " + " ".join(
            f"{x}={vector[x]}" for x in ALPHABET))
    for (a, b), table in pairs.items():
        lines.append(f"pair {a} {b} " + " ".join(
            f"{x},{y}={table[(x, y)]}" for x in ALPHABET for y in ALPHABET))
    return "\n".join(lines) + "\n", fields, pairs


def chain_joint(fields: dict, pairs: dict, values: tuple[str, ...]) -> Fraction:
    """Product-form joint weight of a positive chain at a full assignment."""
    sites = list(fields)
    total = Fraction(1)
    for k, site in enumerate(sites):
        total *= fields[site][values[k]]
    for k, (a, b) in enumerate(pairs):
        total *= pairs[(a, b)][(values[k], values[k + 1])]
    return total


def _table_model(name: str, n: int, tails: tuple[str, ...], raw) -> str:
    """Table model from ``raw(k, values, tail)``: site k's raw weight."""
    lines = _header(name, n, tails, "table")
    sites = _sites(n)
    for k, site in enumerate(sites):
        for tail in tails:
            for values in itertools.product(ALPHABET, repeat=n):
                ctx = values[:k] + values[k + 1:]
                lines.append(
                    f"entry {site} {values[k]} {' '.join(ctx)} {tail} "
                    f"{raw(k, values, tail)}")
    return "\n".join(lines) + "\n"


def _hardcore(name: str, n: int, rng: random.Random, tails: tuple[str, ...],
              exempt: frozenset[int]) -> str:
    """Hard-core chain; sites in ``exempt`` ignore their neighbours."""
    activity = [_weight(rng) for _ in range(n)]

    def raw(k: int, values: tuple[str, ...], tail: str) -> Fraction:
        if values[k] == "a":
            return Fraction(1)
        if tail == "pinned" and k in (0, n - 1):
            return Fraction(0)
        if k not in exempt:
            neighbours = values[max(k - 1, 0):k] + values[k + 1:k + 2]
            if "b" in neighbours:
                return Fraction(0)
        return activity[k]

    return _table_model(name, n, tails, raw)


def hardcore_chain(n: int, rng: random.Random) -> str:
    return _hardcore(f"hardcore{n}", n, rng, ("open", "pinned"), frozenset())


def one_sided_hardcore(n: int, rng: random.Random) -> str:
    return _hardcore(f"onesided{n}", n, rng, ("open",), frozenset({0}))


def copycat(n: int, rng: random.Random) -> str:
    """s2 copies s1; every other site follows a positive chain conditional."""
    fields, pairs = chain_weights(n, rng)
    sites = _sites(n)
    edges = list(pairs)

    def raw(k: int, values: tuple[str, ...], tail: str) -> Fraction:
        if k == 1:
            return Fraction(1 if values[1] == values[0] else 0)
        value = fields[sites[k]][values[k]]
        for j, edge in enumerate(edges):
            if k in (j, j + 1):
                value *= pairs[edge][(values[j], values[j + 1])]
        return value

    return _table_model(f"copycat{n}", n, ("default",), raw)
