"""Admissibility checks for single-site kernel families.

Everything the construction stage relies on is verified here, exactly
and exhaustively, before any multi-site kernel is assembled:

* *good symbols*: for a site and a finite context region, the symbols
  that keep the site's density positive under every rewrite of the
  context, with every cross-site ratio integral pinned inside (0, inf).
  Both conditions depend only on which densities vanish, so good
  membership is read off one zero-pattern table per site and context;
* *very weak positivity*: every site/context/exterior combination owns
  at least one good symbol;
* *order consistency*: swapping the order in which two sites are
  resolved does not change the combined two-site weight;
* *pointwise compatibility*: the eight-factor product identity on pairs
  of sites, which needs no integrals.  Order consistency implies it cell
  by cell (proof in `check_pointwise_compatibility`); the converse is
  only observed on the test batteries;
* *bounded positivity* and the *uniqueness mass condition*: the
  stronger regimes under which the constructed family is unique or
  admits two-sided density bounds.

All verdicts come back as `HypothesisReport` values carrying replayable
witnesses; nothing is sampled, every index point is enumerated.  The
(site, context, exterior class) index points are walked as integer class
bases (`Space.class_bases`), once per family, into one record of the
points whose good set has zero free mass (`_good_set_sweep`), which very
weak positivity and the uniqueness condition both read when they fail.
Order consistency's two-site cells are read once per family, one site
pair and exterior class off it at a time, into one record
(`_pair_record`): the order-consistency report at every witness cap and
bounded positivity's strict identity are read off it, and pointwise
compatibility off a passing order consistency.  Order consistency and
the eight-factor identity are one two-site cell with two choices of a
pair of weights, and one walker compares it (`_class_cells`): on
order consistency's failing classes, and on every class when pointwise
compatibility cannot be read off.  The two-site identities
and bounded positivity's extremes are decided by cross-multiplying
integer numerators and denominators, over ratio integrals read as
integer pairs off the family's single-site ratio tables
(`SingletonFamily.ratio_table`); a value is reduced and written as
text only for a witness or a reported bound.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable

from .core import (
    Configuration,
    DomainError,
    Frozen,
    Site,
    SpecforgeError,
    _line_sum,
    _pair_text,
    _reduced,
)
from .models import SingletonFamily

__all__ = [
    "WITNESS_CAP",
    "Witness",
    "HypothesisReport",
    "HypothesisFailure",
    "good_symbols",
    "check_very_weak_positivity",
    "check_order_consistency",
    "check_pointwise_compatibility",
    "check_uniqueness_condition",
    "check_bounded_positivity",
]


WITNESS_CAP = 25


class HypothesisFailure(SpecforgeError):
    """A check precondition does not hold, or an internal invariant broke.

    Raised when an operation *needs* a hypothesis that the family fails
    (for example the order-consistency check on a family with an empty
    good set), never for an ordinary "checked and found false" verdict;
    those are returned as reports.
    """

    def __init__(self, message: str, report: "HypothesisReport | None" = None):
        super().__init__(message)
        self.report = report


class Witness(Frozen):
    """One replayable counterexample (or anomaly) found by a check."""

    def __init__(self, check: str, description: str, replay: dict,
                 lhs: str | None = None, rhs: str | None = None):
        self.check = check
        self.description = description
        self.replay = replay
        self.lhs = lhs
        self.rhs = rhs
        self._freeze()

    def as_dict(self) -> dict:
        out = {"check": self.check, "description": self.description,
               "replay": dict(self.replay)}
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        return out


class HypothesisReport:
    """Outcome of one exhaustive check over a family.

    ``witnesses`` holds up to ``witness_cap`` counterexamples (the cap
    the check ran with); ``data`` carries check-specific summary values,
    all JSON-friendly.  ``passed`` is the overall verdict.
    """

    def __init__(self, name: str, passed: bool, witnesses: list[Witness] | None = None,
                 data: dict | None = None):
        self.name = name
        self.passed = passed
        self.witnesses = [] if witnesses is None else witnesses
        self.data = {} if data is None else data

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "data": dict(self.data),
        }

    def add_witness(self, witness_cap: int, build: Callable[[], Witness]) -> None:
        """Append ``build()`` while fewer than ``witness_cap`` are held.

        ``build`` runs only for a witness that is kept, so a check pays
        for no description or replay dict past its cap.
        """
        if len(self.witnesses) < witness_cap:
            self.witnesses.append(build())

    def fail(self, witness_cap: int, build: Callable[[], Witness]) -> None:
        """Mark the report failed and collect the witness under the cap."""
        self.passed = False
        self.add_witness(witness_cap, build)


def _replay_point(cfg: Configuration, **extra) -> dict:
    """Replay dict for a configuration plus check-specific fields."""
    out = {"assignment": list(cfg.values), "tail": cfg.tail}
    out.update(extra)
    return out


def _kernel_failure(over: Site, against: Site, cfg: Configuration,
                    where: str) -> HypothesisFailure:
    """The error of a ratio integral read outside (0, inf) where the
    good-set definition keeps it inside: broken good-set bookkeeping."""
    return HypothesisFailure(
        f"ratio integral over {over!r} of {over!r}/{against!r} at "
        f"{cfg!r} is not in (0, inf) during {where}; good-set guarantee "
        "violated"
    )


def _full_lines(points: frozenset, stride: int, q: int) -> frozenset:
    """The indices of ``points`` whose whole line along the site of index
    stride ``stride``, all ``q`` digits there with the other digits fixed,
    lies in ``points``."""
    lines = Counter(i - i // stride % q * stride for i in points)
    return frozenset(i for i in points if lines[i - i // stride % q * stride] == q)


def _good_points(family: SingletonFamily, site: Site, ctx: tuple[Site, ...]) -> frozenset:
    """Configuration indices where ``site``'s own symbol is good against ``ctx``.

    ``ctx`` must be canonical.  Against the empty context a point is good
    iff the site's density is nonzero there and, for every other site
    ``i``, the free integral over ``i`` of density(i)/density(site) is
    defined, finite and positive.  That is a statement about zero
    patterns only: the integral is undefined or infinite iff
    density(site) vanishes somewhere along ``i``'s coordinate, and it is
    never zero, because unit mass puts a nonzero density(i) on some
    symbol of positive free weight there.  So the table holds the live
    points whose whole line along every other site is live.  A good set
    is an AND over the fills of its context, so a longer context keeps
    the points of its prefix's table whose whole line along its last
    site lies in that table.  No rational arithmetic is done; each table
    is built once per (family, site, context).
    """
    space = family.space
    q = len(space.alphabet)

    def compute() -> frozenset:
        if ctx:
            return _full_lines(_good_points(family, site, ctx[:-1]),
                               space.strides(ctx[-1:])[0], q)
        live = frozenset(i for i, (num, _) in enumerate(family._tables[(site,)]) if num)
        return live.intersection(*(_full_lines(live, stride, q)
                                   for stride in space.strides(
                                       space.universe.complement((site,)))))

    return family.cached(("good_points", site, ctx), compute)


def good_symbols(
    family: SingletonFamily,
    site: Site,
    context: Iterable[Site],
    cfg: Configuration,
) -> tuple[str, ...]:
    """Good symbols for ``site`` against ``context`` at exterior ``cfg``.

    Returns the tuple of good symbols in alphabet order.  A symbol
    qualifies iff, for every assignment of ``context``:

    * the site's own density at the rewritten configuration is positive;
    * for every other site ``i`` of the universe, the free integral over
      ``i`` of density(i)/density(site) is defined, finite and positive.

    Both conditions depend only on which densities vanish (the free
    weights enter through unit mass alone), so a symbol is good iff
    ``cfg`` with ``site`` set to it lies in the site's good-point table
    for the canonical context (`_good_points`), read by `_good_digits`
    at the class of ``cfg`` off ``site``.  The result depends on
    ``cfg`` only off ``context + (site,)``.  The argument checks and the
    canonical context are memoised per (site, context as given); nothing
    is memoised per exterior.

    The library's own sweeps skip this reader and read the tables at
    class bases: the two-site walk `_pair_walk` of order consistency and
    pointwise compatibility, the good-set sweep `_good_set_sweep`, the
    blockwise tables `_block_tables` of the build's extension divisors
    and the verifier's good cores, and the support certificate of
    `verifier`.  Only the floor good sets (`_floor_good_sets`) call it.
    """
    context = tuple(context)
    space = family.space

    def canonical() -> tuple[tuple[Site, ...], int]:
        universe = space.universe
        ctx = universe.region(context)
        if site not in universe.sites:
            raise DomainError(f"site {site!r} not in universe")
        if site in ctx:
            raise DomainError(f"site {site!r} may not appear in its own context")
        return ctx, space.strides((site,))[0]

    ctx, stride = family.cached(("good_symbols", site, context), canonical)
    symbols = space.alphabet.symbols
    return tuple(map(symbols.__getitem__, _good_digits(
        _good_points(family, site, ctx), space.class_map((site,))[cfg.index], stride,
        len(symbols))))


def _good_digits(table: frozenset, base: int, stride: int, q: int) -> tuple[int, ...]:
    """The digits d < ``q`` whose point ``base + d * stride`` lies in the
    good-point ``table``: with ``base`` a class index off the table's
    site, of stride ``stride``, the site's good set there, in alphabet
    order.  The one reader of a good-point table for a good set."""
    return tuple(d for d in range(q) if base + d * stride in table)


def _block_tables(family: SingletonFamily, region: tuple[Site, ...],
                  context: tuple[Site, ...]) -> tuple[tuple[int, frozenset], ...]:
    """The blockwise good-point tables of ``region`` against ``context``:
    ``(stride, _good_points(k, canonical((region∖k) + context)))`` per
    site k of the region, in region order.

    ``region`` and ``context`` must be canonical and disjoint.  The good
    blocks at a class base b off the region are the product, in region
    order, of each table's `_good_digits` at b; the block (d_k) is the
    point b + Σ d_k·s_k, so product order is index order.  The
    library's one source of good blocks: `constructor.extension_divisor`
    evaluates every block, and `verifier._good_core` intersects the
    tables of a region against the empty context.  Memoised per
    (region, context).
    """
    def compute() -> tuple[tuple[int, frozenset], ...]:
        space = family.space
        return tuple((stride, _good_points(family, k, space.universe.region(
                          tuple(s for s in region if s != k) + context)))
                     for k, stride in zip(region, space.strides(region)))

    return family.cached(("block_tables", region, context), compute)


def _floor_good_sets(family: SingletonFamily) -> dict[tuple[Site, str], tuple[str, ...]]:
    """good(site, all other sites, tail) per (site, tail class).

    A good set is an AND over the fills of its context, and the fills of
    the whole complement of the site cover the points that any smaller
    context, at any exterior of the same tail class, rewrites.  So each
    floor set lies inside every good set of its site and tail class.
    Computed once per family.
    """
    def compute() -> dict[tuple[Site, str], tuple[str, ...]]:
        space = family.space
        universe = space.universe
        firsts = [space.at(b) for b in space.class_bases(universe.sites)]
        return {(site, cfg.tail): good_symbols(family, site, universe.complement((site,)), cfg)
                for site in universe.sites for cfg in firsts}

    return family.cached(("floor_good_sets",), compute)


def _index_points(family: SingletonFamily) -> int:
    """(site, context, exterior class) points the good-set sweeps visit:
    each site has C(n-1, k) contexts of k sites with T·q^(n-1-k) classes
    each, n·T·(q+1)^(n-1) in all."""
    space = family.space
    n = len(space.universe)
    return n * len(space.tail_classes) * (len(space.alphabet) + 1) ** (n - 1)


def _good_set_sweep(family: SingletonFamily) -> list[tuple]:
    """The index points whose good set has zero free mass, once per
    family: ``(site, ctx, b, good)`` in sweep order.

    The sweep walks every site, every context inside its complement in
    `Universe.subsets` order, and every base b of `Space.class_bases`
    off the context and the site, in index order: the
    ``_index_points`` points.  Each good set is read by `_good_digits`
    off the (site, context) `_good_points` table at b, as digits; no
    `Configuration` is built and `good_symbols` is not called.  A good
    set has zero mass iff none of its digits has a positive free weight
    (weights are nonnegative), so no `Fraction` is summed.  An empty
    good set has zero mass, so the points without a good symbol are the
    kept points with an empty ``good``.  Very weak positivity and the
    uniqueness condition both read this record on their failing paths;
    shared, so callers only read it.
    """
    def compute() -> list[tuple]:
        space = family.space
        q = len(space.alphabet)
        universe = space.universe
        zero_mass = []
        for site in universe.sites:
            stride = space.strides((site,))[0]
            weighted = {d for d, s in enumerate(space.alphabet.symbols)
                        if space.free.weight(site, s)}
            for ctx in universe.subsets(universe.complement((site,))):
                table = _good_points(family, site, ctx)
                for b in space.class_bases(ctx + (site,)):
                    good = _good_digits(table, b, stride, q)
                    if weighted.isdisjoint(good):
                        zero_mass.append((site, ctx, b, good))
        return zero_mass

    return family.cached(("good_set_sweep",), compute)


def check_very_weak_positivity(
    family: SingletonFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Every (site, context, exterior) must own at least one good symbol.

    Exhausts all sites, all context regions inside the complement of the
    site, and all exteriors up to the mask that the good set actually
    depends on.  The report's data counts distinct index points and
    violations.

    Every good set contains the floor set of its site and tail class
    (`_floor_good_sets`), so when no floor set is empty the check passes
    at all ``_index_points`` without visiting them.  A floor set is
    itself an index point, so otherwise the check fails, and its
    violations are the points of the family's `_good_set_sweep` record
    with an empty good set, in sweep order; a `Configuration` is looked
    up only for a kept witness.

    Memoised on the family per ``witness_cap``: later calls return the
    same report, which callers only read.
    """
    def compute() -> HypothesisReport:
        report = HypothesisReport(name="very_weak_positivity", passed=True)
        violations = 0
        if not all(_floor_good_sets(family).values()):
            for site, ctx, b, good in _good_set_sweep(family):
                if good:
                    continue
                violations += 1
                report.fail(witness_cap, lambda: Witness(
                    check="very_weak_positivity",
                    description=(
                        f"no good symbol for site {site!r} against "
                        f"context {list(map(str, ctx))!r}"
                    ),
                    replay=_replay_point(
                        family.space.at(b), site=str(site),
                        context=[str(s) for s in ctx],
                    ),
                ))
        report.data = {"index_points": _index_points(family), "violations": violations}
        return report

    return family.cached(("very_weak_positivity", witness_cap), compute)


def _pair_walk(family: SingletonFamily) -> tuple[list[tuple], list[tuple[int, int]]]:
    """The two-site walks' setup: ``(pairs, classes)``.

    ``pairs`` holds ``(i, j, s_i, s_j, d_i, d_j, good_i, good_j)`` per
    unordered site pair {i, j}, in `itertools.combinations` order: the
    strides, the singleton tables, and the `_good_points` tables of i
    against (j,) and of j against (i,), fetched once per pair.
    ``classes`` holds ``(b, pos)`` per pair and exterior class off it,
    ``pos`` the pair's position and b the class base (both sites on
    digit 0), in the order a walk over every configuration, then pair,
    first reaches them: by (b, pos).
    """
    space = family.space
    pairs = [(i, j, *space.strides((i, j)), family._tables[(i,)], family._tables[(j,)],
              _good_points(family, i, (j,)), _good_points(family, j, (i,)))
             for i, j in itertools.combinations(space.universe.sites, 2)]
    classes = sorted((b, pos) for pos, pair in enumerate(pairs)
                     for b in space.class_bases(pair[:2]))
    return pairs, classes


def _class_cells(pair: tuple, q: int, b: int,
                 weights: Callable[[int, int], tuple]) -> tuple[int, list[tuple]]:
    """The two-site cells of a `_pair_walk` pair {i, j} at the exterior
    class of base ``b`` off it: ``(count, failing)``.

    Write a(s, t) and c(s, t) for d_i and d_j at b with i = s, j = t.
    For every u = (u_i, u_j), every x of g_i and every y of g_j, the good
    sets `_good_digits` reads at b off the pair's good-point tables (a
    table against (j,) holds whole lines along j, so b stands for every
    member of the class), the cell (u, x, y) compares the left product
    a(u) c(x, u_j) c(u_i, y) L with the right product c(u) a(u_i, y)
    a(x, u_j) R, where (L, R) = ``weights(x, y)`` are integer pairs over
    positive denominators.  Each density is the integer pair its table
    holds, so each product is the product of numerators over the
    positive product of denominators, and the two are equal iff they
    cross-multiply equal.  ``count`` is q²·|g_i|·|g_j|; ``failing`` lists
    ``(u_i, u_j, x, y, left, right)`` per unequal cell, digits and
    unreduced products, in u_i, u_j, x, y order.
    """
    _, _, s_i, s_j, d_i, d_j, good_i, good_j = pair
    g_i = _good_digits(good_i, b, s_i, q)
    g_j = _good_digits(good_j, b, s_j, q)
    weight = {(x, y): weights(x, y) for x in g_i for y in g_j}
    failing = []
    for u_i in range(q):
        row = b + u_i * s_i
        mirrors = [(y, d_i[row + y * s_j], d_j[row + y * s_j]) for y in g_j]
        for u_j in range(q):
            (a_num, a_den), (c_num, c_den) = d_i[row + u_j * s_j], d_j[row + u_j * s_j]
            for x in g_i:
                (ax_num, ax_den), (cx_num, cx_den) = (d_i[b + x * s_i + u_j * s_j],
                                                      d_j[b + x * s_i + u_j * s_j])
                for y, (ay_num, ay_den), (cy_num, cy_den) in mirrors:
                    (l_num, l_den), (r_num, r_den) = weight[x, y]
                    l_num, l_den = a_num * cx_num * cy_num * l_num, a_den * cx_den * cy_den * l_den
                    r_num, r_den = c_num * ay_num * ax_num * r_num, c_den * ay_den * ax_den * r_den
                    if l_num * r_den != r_num * l_den:
                        failing.append((u_i, u_j, x, y, (l_num, l_den), (r_num, r_den)))
    return q * q * len(g_i) * len(g_j), failing


def _pair_record(family: SingletonFamily) -> tuple[int, list[tuple]]:
    """Order consistency's two-site cells, once per family:
    ``(comparisons, failures)``.

    Resolving i first to the good symbol x gives, at u = (u_i, u_j),
    lhs_x(u) = d_i(u) d_j(x, u_j) / (d_i(x, u_j) K_i(x)), with K_i(x) the
    ratio integral over j of d_j/d_i at i = x; resolving j first to y
    mirrors it as rhs_y(u) = d_j(u) d_i(u_i, y) / (d_j(u_i, y) K_j(y)).
    Good sets and integrals depend on u only off {i, j}, so the cells
    are read one unordered pair {i, j} and exterior class off it at a
    time, in `_pair_walk`'s order, with the good sets g_i and g_j read
    at the class's base index b off the pair's `_good_points` tables: x
    is good iff b + x·s_i is in the first, s_i the stride of i.  The
    ratio tables are fetched once per pair.  In each class every K of a
    good symbol is read, g_i's then g_j's, as an unreduced integer pair
    by index off the family's `ratio_table` over j against i, or over i
    against j: the point b with i on x is its own class base off j.  A K
    outside (0, inf) raises `_kernel_failure`, so a broken good-set
    guarantee raises at that walk's integral, with its text.

    Write a(s, t) and c(s, t) for d_i and d_j with i = s, j = t, so that
    lhs_x(u) = a(u) P_x(u_j) and rhs_y(u) = c(u) Q_y(u_i), with P_x =
    c(x, .) / (a(x, .) K_i(x)) and Q_y = a(., y) / (c(., y) K_j(y)).
    K_i(x) in (0, inf) forces a(x, v) > 0 for every v, good sets or not:
    where a(x, v) = 0, `_ratio_line` is undefined (a 0/0 point,
    or an infinite ratio on a zero free weight) or infinite, and the
    guard raises.  Mirrored, c(., y) > 0.  So each side is one integer
    numerator over one positive integer denominator, read off the tables
    as integer pairs, and lhs == rhs iff num(lhs) den(rhs) == num(rhs)
    den(lhs).  Only a failing cell's two sides are reduced.

    The q² cells of the first good pair (x0, y0) decide the class.  By
    the definition of K_i(x0), Σ_v w_j(v) P_x0(v) = 1.  The cell
    (u = (x, v), x0, y0) reads a(x, v) P_x0(v) = c(x, v) Q_y0(x), with
    Q_y0(x) > 0, so c(x, .) / a(x, .) = P_x0 / Q_y0(x).  Then K_i(x) =
    Σ_v w_j(v) c(x, v) / a(x, v) = 1 / Q_y0(x), and P_x = P_x0.
    Mirrored, the cells (u = (v, y), x0, y0) give Q_y = Q_y0, since
    P_x0(y) > 0.  So when those q² cells hold, every lhs_x(u) equals
    lhs_x0(u), every rhs_y(u) equals rhs_y0(u), and those two are equal.
    They are compared in the walk itself, building nothing; only when
    one of them fails are all cells of the class compared, by
    `_class_cells` with (L, R) = (K_j(y), K_i(x)): its left and right
    products are lhs_x(u) and rhs_y(u) times the positive factor
    a(x, u_j) c(u_i, y) K_i(x) K_j(y), which a failing cell's two sides
    are divided by.

    ``comparisons`` is Σ over pairs and classes of q²·|g_i|·|g_j|, the
    cells of a walk over every configuration and pair.  ``failures``
    lists each failing cell ``(index, i, j, x, y, lhs, rhs)``, with u
    the configuration of ``index`` and x, y good digits, in
    configuration order, then pair order, x-major: that walk's order,
    lhs and rhs as reduced pairs.
    Memoised on the family; an error
    leaves no entry, so it raises on every call.
    """
    def compute() -> tuple[int, list[tuple]]:
        space = family.space
        q = len(space.alphabet)
        pairs, classes = _pair_walk(family)
        kernels = [(family.ratio_table((j,), (i,)), family.ratio_table((i,), (j,)))
                   for i, j, *_ in pairs]
        comparisons = 0
        failures: list[tuple] = []
        for b, pos in classes:
            i, j, s_i, s_j, d_i, d_j, good_i, good_j = pairs[pos]
            k_i, k_j = kernels[pos]
            n_i = n_j = 0
            for p in range(b, b + q * s_i, s_i):
                if p in good_i:
                    k = k_i[p]
                    if k is None or not k[0] or not k[1]:
                        raise _kernel_failure(j, i, space.at(p), "order consistency")
                    if not n_i:
                        p_x, (kx_num, kx_den) = p, k
                    n_i += 1
            for p in range(b, b + q * s_j, s_j):
                if p in good_j:
                    k = k_j[p]
                    if k is None or not k[0] or not k[1]:
                        raise _kernel_failure(i, j, space.at(p), "order consistency")
                    if not n_j:
                        p_y, (ky_num, ky_den) = p, k
                    n_j += 1
            if not n_i or not n_j:
                continue
            comparisons += q * q * n_i * n_j
            # the cells (u, x0, y0), p_x the point b with i on x0 and p_y
            # the point b with j on y0: a(u) P_x0(u_j) == c(u) Q_y0(u_i),
            # cross-multiplied, with both K's folded into P's pair
            holds = True
            for u_j in range(q):
                (pa_num, pa_den), (pc_num, pc_den) = d_i[p_x + u_j * s_j], d_j[p_x + u_j * s_j]
                p_num, p_den = pc_num * pa_den * kx_den * ky_num, pc_den * pa_num * kx_num * ky_den
                for u_i in range(q):
                    u, v = b + u_i * s_i + u_j * s_j, p_y + u_i * s_i
                    (a_num, a_den), (c_num, c_den) = d_i[u], d_j[u]
                    (qa_num, qa_den), (qc_num, qc_den) = d_i[v], d_j[v]
                    if (a_num * c_den * p_num * qa_den * qc_num
                            != c_num * a_den * p_den * qa_num * qc_den):
                        holds = False
            if holds:
                continue
            _, failing = _class_cells(pairs[pos], q, b, lambda x, y: (
                k_j[b + y * s_j], k_i[b + x * s_i]))
            for u_i, u_j, x, y, (l_num, l_den), (r_num, r_den) in failing:
                (a_num, a_den), (c_num, c_den) = (d_i[b + x * s_i + u_j * s_j],
                                                  d_j[b + u_i * s_i + y * s_j])
                (ki_num, ki_den), (kj_num, kj_den) = k_i[b + x * s_i], k_j[b + y * s_j]
                f_num, f_den = a_num * c_num * ki_num * kj_num, a_den * c_den * ki_den * kj_den
                failures.append((b + u_i * s_i + u_j * s_j, i, j, x, y,
                                 _reduced(l_num * f_den, l_den * f_num),
                                 _reduced(r_num * f_den, r_den * f_num)))
        rank = {pair[:2]: pos for pos, pair in enumerate(pairs)}
        failures.sort(key=lambda cell: (cell[0], rank[cell[1:3]]))
        return comparisons, failures

    return family.cached(("pair_record",), compute)


def check_order_consistency(
    family: SingletonFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Resolving two sites in either order must give the same weight.

    For every configuration and every unordered pair of sites, and for
    every pair of good symbols (one per site, each against the other
    site as context), the two resolution orders are compared exactly.
    The identity is literally symmetric under swapping the pair, so each
    unordered pair is checked once.  Requires very weak positivity; if
    that fails, raises HypothesisFailure carrying its report.

    The count, the failing cells and the raised error are those of the
    family's `_pair_record`, which decides each pair and exterior class
    off it from the q² cells of one pair of good symbols and compares
    every cell only where one of those fails.  Its good sets are read
    off the `_good_points` tables directly, not through `good_symbols`,
    so this check calls `good_symbols` only through very weak
    positivity's floor good sets.  Each ratio integral is
    an integer pair read by index off the family's
    `SingletonFamily.ratio_table` of its ordered site pair, which
    `check_bounded_positivity` walks too, and bounded positivity reads
    its strict identity off the same record.

    Memoised on the family per ``witness_cap``, like the positivity
    report it reads first; a raised HypothesisFailure is not memoised.
    """
    def compute() -> HypothesisReport:
        h1 = check_very_weak_positivity(family)
        if not h1.passed:
            raise HypothesisFailure(
                "order consistency needs very weak positivity, which fails "
                f"at {len(h1.witnesses)} witnessed index points", report=h1,
            )
        comparisons, failures = _pair_record(family)
        report = HypothesisReport(name="order_consistency", passed=True)
        symbols = family.space.alphabet.symbols
        for index, i, j, x, y, lhs, rhs in failures:
            report.fail(witness_cap, lambda: Witness(
                check="order_consistency",
                description=(
                    f"resolving {i!r} then {j!r} differs "
                    f"from {j!r} then {i!r}"
                ),
                replay=_replay_point(
                    family.space.at(index),
                    site_first=str(i), site_second=str(j),
                    symbol_first=symbols[x], symbol_second=symbols[y],
                ),
                lhs=_pair_text(*lhs), rhs=_pair_text(*rhs),
            ))
        report.data = {"comparisons": comparisons, "violations": len(failures)}
        return report

    return family.cached(("order_consistency", witness_cap), compute)


def check_pointwise_compatibility(
    family: SingletonFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Eight-factor two-site product identity, checked pointwise.

    For every configuration, unordered site pair {i, j}, arbitrary
    symbols u_i, u_j, and good symbols x_i (for i against {j}) and x_j
    (for j against {i}), the product of four densities along one rewrite
    path must equal the product along the mirrored path.  No integrals
    are involved.

    Order consistency implies the identity cell by cell.  Both are the
    cell (u, x, y) of `_class_cells`, which compares a(u) c(x,u_j)
    c(u_i,y) L with c(u) a(u_i,y) a(x,u_j) R, a and c the densities of i
    and j with both sites rewritten, u = (u_i, u_j), x good for i and y
    good for j: order consistency with (L, R) = (K_j(y), K_i(x)), the
    ratio integrals of `_pair_record`, and this identity with (L, R) =
    (a(x,y), c(x,y)), its two sides the right and left products.  A
    passing order consistency has read both integrals inside (0, inf),
    which makes a(x, .) positive along j's line and c(., y) along i's
    line (`_pair_record`), good sets or not.  Its cell (u = (x, y), x,
    y), divided by a(x,y) c(x,y) > 0, reads c(x,y) K_j(y) = a(x,y)
    K_i(x); so (K_j(y), K_i(x)) is (a(x,y), c(x,y)) times K_i(x) /
    c(x,y) > 0, and at every u the two cells' products differ by that
    one positive factor: the one holds iff the other does.  Both checks
    read the same good sets at every configuration, and each of order
    consistency's cells is q² cells here, one per u.  So when very weak
    positivity and the memoised order consistency both pass, this check
    passes with q² times its comparison count and evaluates nothing.
    The converse is only observed on the test batteries, not proven.

    Otherwise `_class_cells` compares the cells once per pair and
    exterior class off the pair, in `_pair_walk`'s order, reading no
    integral, and each class's count and failing cells are counted at
    its q² configurations.  The witnesses are the first ``witness_cap``
    failing cells by (configuration index, pair position, cell): the
    order of a walk over every configuration, then pair.
    """
    report = HypothesisReport(name="pointwise_compatibility", passed=True)
    space = family.space
    symbols = space.alphabet.symbols
    q = len(symbols)
    if check_very_weak_positivity(family).passed:
        try:
            consistent = check_order_consistency(family)
        except HypothesisFailure:
            # a broken good-set guarantee; the walk below reads no integral
            consistent = None
        if consistent is not None and consistent.passed:
            report.data = {"comparisons": q * q * consistent.data["comparisons"],
                           "violations": 0}
            return report
    pairs, classes = _pair_walk(family)
    checked = 0
    failing = []
    for b, pos in classes:
        _, _, s_i, s_j, d_i, d_j, *_ = pairs[pos]
        count, cells = _class_cells(pairs[pos], q, b, lambda x, y: (
            d_i[b + x * s_i + y * s_j], d_j[b + x * s_i + y * s_j]))
        checked += count
        failing += [(b + v_i * s_i + v_j * s_j, pos, cell)
                    for v_i in range(q) for v_j in range(q) for cell in cells]
    # stable: a class's cells keep their order at each configuration
    failing.sort(key=lambda row: row[:2])
    report.passed = not failing
    for index, pos, (u_i, u_j, x, y, left, right) in failing[:witness_cap]:
        i, j = pairs[pos][:2]
        report.witnesses.append(Witness(
            check="pointwise_compatibility",
            description=(
                f"eight-factor identity fails on pair "
                f"({i!r}, {j!r})"
            ),
            replay=_replay_point(
                space.at(index),
                site_first=str(i),
                site_second=str(j),
                free_first=symbols[u_i],
                free_second=symbols[u_j],
                good_first=symbols[x],
                good_second=symbols[y],
            ),
            lhs=_pair_text(*_reduced(*right)), rhs=_pair_text(*_reduced(*left)),
        ))
    report.data = {"comparisons": q * q * checked, "violations": len(failing)}
    return report


def check_uniqueness_condition(
    family: SingletonFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Good sets must carry positive free mass everywhere.

    For every site, context and exterior mask, the free measure of the
    site must give the good-symbol set strictly positive mass.  On
    finite alphabets this strengthens very weak positivity just enough
    to pin the constructed family down uniquely.  data reports the
    smallest mass seen.

    Free weights are nonnegative and every good set contains the floor
    set of its site and tail class (`_floor_good_sets`), which is an
    index point itself, so the smallest mass is the smallest floor mass.
    When that is positive the check passes without visiting the other
    index points.  Otherwise it is zero, and the violations are the
    points of the family's `_good_set_sweep` record, which lists the
    points of zero mass in sweep order; a `Configuration` is looked up
    only for a kept witness.  So a mass is summed only once per distinct
    (site, floor set), by `_line_sum` over the site's free weights as
    `Space.fill_pairs` holds them, and the smallest is found by
    cross-multiplying.

    Memoised on the family per ``witness_cap``: later calls return the
    same report, which callers only read.
    """
    def compute() -> HypothesisReport:
        space = family.space
        report = HypothesisReport(name="uniqueness_condition", passed=True)
        floor = None
        for site, good in {(site, good) for (site, _), good
                           in _floor_good_sets(family).items()}:
            fills = space.fill_pairs((site,))
            num, den = _line_sum(fills[space._digits[x]][1:] for x in good)
            if floor is None or num * floor[1] < floor[0] * den:
                floor = num, den
        zero_mass = _good_set_sweep(family) if not floor[0] else []
        for site, ctx, b, _ in zero_mass:
            report.fail(witness_cap, lambda: Witness(
                check="uniqueness_condition",
                description=(
                    f"good symbols of site {site!r} against "
                    f"context {list(map(str, ctx))!r} have zero "
                    "free mass"
                ),
                replay=_replay_point(
                    space.at(b), site=str(site),
                    context=[str(s) for s in ctx],
                ),
            ))
        report.data = {"index_points": _index_points(family),
                       "violations": len(zero_mass),
                       "min_good_mass": _pair_text(*_reduced(*floor))}
        return report

    return family.cached(("uniqueness_condition", witness_cap), compute)


def check_bounded_positivity(
    family: SingletonFamily, witness_cap: int = WITNESS_CAP
) -> HypothesisReport:
    """Uniform two-sided bounds on every cross-site ratio integral.

    Passes iff for every ordered pair of distinct sites the free
    integral of density(other)/density(site) over the other site is
    defined, finite and positive at *every* configuration; the exact
    infimum and supremum per pair are reported.  When the bounds hold,
    the strict pointwise identity density(site)/integral(site against
    other) == density(other)/integral(other against site) is also
    audited and reported under data["strict_identity"].

    The integrals of each ordered pair are read in one walk over its
    `SingletonFamily.ratio_table`, class by class in index order, each
    an integer pair or None; a failing class is witnessed at its first
    member.  After `check_order_consistency`, which reads every table
    once very weak positivity passes, no table is built afresh.  A pair
    with a failing class reports no bounds; otherwise its extremes are
    `_extreme_texts`'s.

    The strict identity is read off order consistency's `_pair_record`.
    With n ≥ 2 sites, passing bounds make every density positive: a zero
    of density(i) at σ makes the integral of any j against i undefined
    or infinite at σ's class off j.  So every good set is the whole
    alphabet, and the record holds, at every configuration u and pair
    i < j, the cell x = u_i, y = u_j.  There K_i(u_i) = I_ij(u) and
    K_j(u_j) = I_ji(u), the integrals of j against i and of i against
    j, so lhs_x = d_i(u) d_j(u) / (d_i(u) I_ij(u)) = d_j(u)/I_ij(u) and
    rhs_y = d_i(u)/I_ji(u): that cell is the strict identity at
    (u, i, j), with its two sides swapped.  The identity fails exactly at
    those diagonal cells of the record's failures, and its witnesses
    are theirs, in record order.  With n = 1 there is no pair, and the
    identity holds vacuously.  No density is read here, and on a family
    whose order consistency has run, no cell is compared afresh.
    """
    space = family.space
    sites = space.universe.sites
    report = HypothesisReport(name="bounded_positivity", passed=True)
    bounds: dict[str, dict[str, str | None]] = {}
    for i in sites:
        for j in sites:
            if i == j:
                continue
            table = family.ratio_table((j,), (i,))
            undefined = [(b, value) for b, value in table.items()
                         if value is None or not value[0] or not value[1]]
            for b, value in undefined:
                report.fail(witness_cap, lambda: Witness(
                    check="bounded_positivity",
                    description=(
                        f"ratio integral of {j!r} against {i!r} is "
                        + ("undefined" if value is None else
                           "infinite" if not value[1] else "zero")
                    ),
                    replay=_replay_point(
                        space.at(b), site=str(i), other=str(j),
                    ),
                ))
            low, high = (None, None) if undefined else _extreme_texts(table.values())
            bounds[f"{i}->{j}"] = {"min": low, "max": high}
    strict: bool | None = None
    if report.passed:
        strict = True
        q = len(space.alphabet)
        for index, i, j, x, y, lhs, rhs in _pair_record(family)[1]:
            s_i, s_j = space.strides((i, j))
            if (x, y) != (index // s_i % q, index // s_j % q):
                continue
            strict = False
            report.add_witness(witness_cap, lambda: Witness(
                check="strict_identity",
                description=(
                    f"pointwise density/integral identity "
                    f"fails on pair ({i!r}, {j!r})"
                ),
                replay=_replay_point(
                    space.at(index), site=str(i), other=str(j),
                ),
                lhs=_pair_text(*rhs), rhs=_pair_text(*lhs),
            ))
    report.data = {"bounds": bounds, "strict_identity": strict}
    return report


def _extreme_texts(values: Iterable[tuple[int, int]]) -> tuple[str | None, str | None]:
    """The texts of the least and the greatest of ``values``, integer
    pairs over positive denominators compared cross-multiplied, each
    reduced only to be written; (None, None) for no value.  The one
    extremes loop of `check_bounded_positivity` and
    `verifier.ratio_bounds`."""
    lo = hi = None
    for value in values:
        num, den = value
        if lo is None:
            lo = hi = value
        elif num * lo[1] < lo[0] * den:
            lo = value
        elif num * hi[1] > hi[0] * den:
            hi = value
    if lo is None:
        return None, None
    return _pair_text(*_reduced(*lo)), _pair_text(*_reduced(*hi))
