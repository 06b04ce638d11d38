"""Indexed Tietze simplification against the rescan it replaced.

``simplify_presentation`` picks each step from a lazy heap and rewrites only
the relators its generator index names; ``oracles.simplify_presentation_rescan``
scans every relator at every step.  Their outputs must be equal, not just
isomorphic: same survivors, same relators in the same order, same
components.  Small length budgets make steps blocked, and relators whose
once-occurring generators are all blocked wait for the next step.
"""

import itertools
import random

import pytest

from wld import invariants
from wld.classify import named
from wld.diagram import random_diagram
from wld.invariants import (GroupPresentation, _least_rotation, core_group,
                            simplify_presentation, welded_group)
from wld.moves import EXPAND, make_kind, parse_kinds, scramble

import oracles


def random_presentation(rng):
    """Up to six generators and seven relators; words repeat generators, and
    some relators are empty or cancel to nothing."""
    ngens = rng.randint(1, 6)
    relators = []
    for _ in range(rng.randint(0, 7)):
        word = [(rng.randrange(ngens), rng.choice((1, -1))) for _ in range(rng.randint(0, 9))]
        kind = rng.random()
        if kind < 0.15:
            word += [(g, -e) for g, e in reversed(word)]
        elif kind < 0.25:
            word = []
        relators.append(tuple(word))
    components = tuple(rng.randrange(3) for _ in range(ngens)) if rng.random() < 0.5 else ()
    return GroupPresentation(ngens, tuple(relators), components)


@pytest.mark.parametrize("budget", [None, 5, 12])
def test_indexed_simplification_matches_the_rescan(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(invariants, "_LENGTH_BUDGET", budget)
    rng = random.Random(23)
    for _ in range(1500):
        p = random_presentation(rng)
        assert simplify_presentation(p) == oracles.simplify_presentation_rescan(p), p


def closures():
    v_kinds = [make_kind("v^n", 3, EXPAND), make_kind("v(n)", 3, EXPAND)]
    welded = parse_kinds("r1,r2,r3,oc")
    for base in ("h-closure:2,1,2,2", "hbar-closure:2,1,2,-3", "h-closure:3,1,2,1",
                 "h-closure:3,1,2,40"):
        for seed in range(3):
            yield scramble(scramble(named(base), v_kinds, 2, seed), welded, 25, seed)


def test_indexed_simplification_matches_the_rescan_on_diagrams():
    rng = random.Random(230)
    diagrams = [random_diagram(rng, max_crossings=12, max_mu=3) for _ in range(40)]
    for d in diagrams + list(closures()):
        for p in (welded_group(d), core_group(d)):
            assert simplify_presentation(p) == oracles.simplify_presentation_rescan(p)


def rotations_min(word):
    return min(tuple(word[k:] + word[:k]) for k in range(len(word)))


def test_least_rotation_is_the_least_of_all_rotations():
    rng = random.Random(231)
    words = [[rng.choice((1, -1, 2, -2, 3)) for _ in range(rng.randint(1, 30))]
             for _ in range(500)]
    words += [[1, 2] * k for k in range(1, 6)] + [[2, -1, -1] * 4, [-3, 1, -3, 1, 1]]
    words += [[x] * k for x in (1, -2) for k in range(1, 5)]
    # a word equal to a rotation of its own inverse (no cyclically reduced
    # one is, so these cancel)
    words += [[1, -1], [1, 2, -2, -1], [2, 1, -1, -2] * 2]
    words += [list(w) for n in range(1, 7) for w in itertools.product((1, -1, 2), repeat=n)]
    for w in words:
        assert _least_rotation(w) == rotations_min(w), w
    for w in ([1, -1], [1, 2, -2, -1], [2, 1, -1, -2] * 2):
        inverse = [-x for x in reversed(w)]
        assert _least_rotation(w) == _least_rotation(inverse)
