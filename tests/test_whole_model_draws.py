"""Whole models drawn by ``hypothesis``: the gates imply the theorems.

A draw is a model, not a seed of a fixed generator: one to four sites,
one to three symbols and one or two tail classes, free weights with
zeros, scaled to unit mass, and per tail class a joint weight over the
window's assignments, zeros included on purpose.  Each site's raw
weight at a configuration is the joint weight of its tail class there,
so `normalize` turns the joints into their conditionals, the singleton
part of the joint; a (site, exterior class) line that the joint leaves
with no mass gets the weight 1 at its first fill of positive free
weight, which only adds mass to the other lines, so one pass repairs
them all.

Whenever very weak positivity and order consistency pass, the paper's
construction theorem promises a specification built from the draw: the
checked build must succeed and the specification axioms, order
independence and the support identities must pass, and so must the
uniqueness probe where the command line runs it (positive free weights
and the uniqueness condition).  ``event`` reports the share of gated
draws with a zero density at three sites or more, the regime where the
good sets do the work.

A drawn kind-joint model file with strictly positive joint and free
weights must round-trip exactly: `roundtrip_reconstruction` passes, and
every singleton table equals the joint's conditionals, computed here
from the drawn weights, divided by the free weight of the own symbol.
"""

import itertools
from fractions import Fraction

from hypothesis import event, given, settings, strategies as st

from specforge.cli.main import uniqueness_applicable
from specforge.cli.modelfile import parse_model_text
from specforge.constructor import build_family, check_order_independence
from specforge.core import Alphabet, FreeMeasure, Space, Universe
from specforge.hypotheses import check_order_consistency, check_very_weak_positivity
from specforge.models import normalize
from specforge.verifier import (
    check_specification_axioms,
    good_support_report,
    roundtrip_reconstruction,
    uniqueness_probe,
)

from oracles import fill_offsets

VALUES = (0, 0, 1, 2, 3, Fraction(1, 2))
POSITIVE = (1, 2, 3, 5, Fraction(1, 2), Fraction(7, 3))


class JointWeights:
    """Raw weights read off one joint weight per tail class."""

    def __init__(self, joints: dict):
        self.joints = joints

    def raw_value(self, space, site, cfg):
        return self.joints[cfg.tail][cfg.values]


def repaired(space, joints: dict) -> dict:
    """``joints`` with weight 1 at the first fill of positive free weight
    of every (site, exterior class) line that carries no mass."""
    for site in space.universe:
        for cfg in space.exterior_classes((site,)):
            fills = [(space.at(cfg.index + offset), w)
                     for offset, w in fill_offsets(space, (site,))]
            if not any(w and joints[c.tail][c.values] for c, w in fills):
                c = next(c for c, w in fills if w)
                joints[c.tail][c.values] = Fraction(1)
    return joints


@st.composite
def whole_models(draw):
    """A normalized singleton family drawn whole, zeros included."""
    n, q, t = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    alphabet = Alphabet(("a", "b", "c")[:q])
    universe = Universe(tuple(f"s{k}" for k in range(1, n + 1)))
    weights = {}
    for site in universe:
        row = draw(st.lists(st.sampled_from(VALUES), min_size=q, max_size=q))
        if not any(row):
            row[draw(st.integers(0, q - 1))] = 1
        mass = sum(row)
        weights[site] = {sym: Fraction(w) / mass for sym, w in zip(alphabet, row)}
    space = Space(alphabet, universe, FreeMeasure(alphabet, weights),
                  tail_classes=("t0", "t1")[:t])
    assignments = list(itertools.product(alphabet.symbols, repeat=n))
    joints = {tail: dict(zip(assignments, map(Fraction, draw(st.lists(
        st.sampled_from(VALUES), min_size=len(assignments), max_size=len(assignments))))))
        for tail in space.tail_classes}
    return normalize(space, JointWeights(repaired(space, joints)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(whole_models())
def test_gated_draws_build_a_specification(family):
    gated = (check_very_weak_positivity(family).passed
             and check_order_consistency(family).passed)
    event(f"gates pass: {gated}")
    if not gated:
        return
    space = family.space
    zero = any(value == (0, 1) for table in family._tables.values() for value in table)
    event(f"gated, zero density at n >= 3: {zero and len(space.universe) >= 3}")
    dens = build_family(family, checked=True)
    assert check_specification_axioms(dens).passed
    assert check_order_independence(family).passed
    assert good_support_report(dens).passed
    if uniqueness_applicable(family):
        assert uniqueness_probe(dens).passed


@st.composite
def positive_joint_models(draw):
    """A kind-joint model file, with its joint and free weights as drawn."""
    n, q, t = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    sites = tuple(f"s{k}" for k in range(1, n + 1))
    alphabet = ("a", "b", "c")[:q]
    free = {site: dict(zip(alphabet, draw(st.lists(st.sampled_from(POSITIVE),
                                                    min_size=q, max_size=q))))
            for site in sites}
    assignments = list(itertools.product(alphabet, repeat=n))
    joint = dict(zip(assignments, map(Fraction, draw(st.lists(
        st.sampled_from(POSITIVE), min_size=len(assignments), max_size=len(assignments))))))
    lines = [f"sites {' '.join(sites)}", f"alphabet {' '.join(alphabet)}",
             f"tails {' '.join(('t0', 't1')[:t])}", "kind joint"]
    lines += [f"free {site} " + " ".join(f"{sym}={w}" for sym, w in row.items())
              for site, row in free.items()]
    lines += [f"joint {' '.join(values)} {w}" for values, w in joint.items()]
    return "\n".join(lines) + "\n", free, joint


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(positive_joint_models())
def test_positive_joints_round_trip_exactly(drawn):
    text, free, joint = drawn
    _, family, parsed_joint = parse_model_text(text).realize()
    event(f"sites x symbols: {len(free)} x {len(next(iter(free.values())))}")
    assert roundtrip_reconstruction(family, parsed_joint).passed
    space = family.space
    for site in space.universe:
        k = space.universe.index(site)
        for cfg in space.configurations():
            values = cfg.values
            section = sum(joint[values[:k] + (sym,) + values[k + 1:]]
                          for sym in space.alphabet)
            expected = joint[values] / section / free[site][values[k]]
            assert family.density(site, cfg) == expected, (site, cfg)
