"""Homomorphism counts with conjugacy-class symmetry, and the shared group
tables they run on."""

import itertools
import random

import pytest

from wld.classify import named
from wld.diagram import Diagram, crossing_arcs, random_diagram
from wld.invariants import (FiniteGroupTable, GroupPresentation, builtin_group,
                            core_group, hom_count, simplify_presentation,
                            welded_group)
from wld.moves import EXPAND, make_kind, parse_kinds, scramble

import oracles

EXHAUSTIVE_LIMIT = 20000   # largest |G|^ngens handed to the exhaustive oracle


def relabelled_s3():
    """S3 with its elements renamed so that the identity is element 4."""
    base = builtin_group("s3")
    label = [4, 0, 5, 1, 3, 2]
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[label[a]][label[b]] = label[base.table[a][b]]
    return FiniteGroupTable("s3-relabelled", table)


def v_scrambled():
    """Closures changed by two V^3/V(3) moves, then welded-scrambled: their
    simplified welded presentations keep up to three generators of one
    component."""
    v_kinds = [make_kind("v^n", 3, EXPAND), make_kind("v(n)", 3, EXPAND)]
    welded = parse_kinds("r1,r2,r3,oc")
    for base in ("h-closure:2,1,2,2", "hbar-closure:2,1,2,-3", "h-closure:3,1,2,1"):
        for seed in range(6):
            yield scramble(scramble(named(base), v_kinds, 2, seed), welded, 15, seed)


def is_hom(pres, group, images):
    for rel in pres.relators:
        acc = group.identity
        for g, e in rel:
            acc = group.table[acc][images[g] if e == 1 else group.inverse[images[g]]]
        if acc != group.identity:
            return False
    return True


def test_hom_count_against_exhaustive_on_up_to_three_components():
    rng = random.Random(26)
    groups = [builtin_group(name) for name in ("s3", "d4", "q8", "s4")]
    checked = {g.name: 0 for g in groups}
    for _ in range(40):
        d = random_diagram(rng, max_crossings=5, max_mu=3)
        for pres in (welded_group(d), core_group(d)):
            for g in groups:
                if g.order ** pres.ngens <= EXHAUSTIVE_LIMIT:
                    assert hom_count(pres, g) == oracles.hom_count_exhaustive(pres, g)
                    checked[g.name] += 1
    assert min(checked.values()) >= 10


def test_hom_count_against_exhaustive_with_conjugate_generators():
    groups = [builtin_group(name) for name in ("s3", "d4", "q8", "s4")]
    repeated = 0
    for d in v_scrambled():
        for pres in (welded_group(d), core_group(d)):
            simp = simplify_presentation(pres)
            repeated += len(set(simp.components)) < simp.ngens
            for g in groups:
                if g.order ** simp.ngens <= EXHAUSTIVE_LIMIT:
                    assert hom_count(pres, g) == oracles.hom_count_exhaustive(simp, g)
    assert repeated >= 10


def side_by_side(d, e):
    """The split union of two diagrams of one kind, e's crossings renumbered."""
    offset = max(d.crossing_ids(), default=0)
    shifted = tuple(tuple(psg._replace(crossing=psg.crossing + offset) for psg in comp)
                    for comp in e.components)
    return Diagram(d.components + shifted, d.kind)


def test_hom_count_of_side_by_side_copies_against_exhaustive():
    rng = random.Random(27)
    groups = [builtin_group(name) for name in ("s3", "d4", "q8")]
    checked = 0
    for _ in range(30):
        d = random_diagram(rng, max_crossings=3, max_mu=2)
        e = random_diagram(rng, max_crossings=3, max_mu=2)
        for pres in (welded_group(side_by_side(d, e)), core_group(side_by_side(d, e))):
            simp = simplify_presentation(pres)
            for g in groups:
                if g.order ** simp.ngens <= EXHAUSTIVE_LIMIT:
                    assert hom_count(pres, g) == oracles.hom_count_exhaustive(simp, g)
                    checked += 1
    assert checked >= 60


def test_conjugacy_classes_of_tables():
    groups = [builtin_group(name) for name in ("z6", "s3", "d4", "q8", "s4", "d5")]
    for g in groups + [relabelled_s3()]:
        t = g.table
        for x in range(g.order):
            conjugates = {y for y in range(g.order)
                          if any(t[h][x] == t[y][h] for h in range(g.order))}
            assert set(g.classes[g.class_of[x]]) == conjugates
        assert sum(map(len, g.classes)) == g.order


def test_relabelled_s3_counts_like_s3():
    g = relabelled_s3()
    assert g.identity == 4 and g.classes[g.class_of[4]] == (4,)
    assert sorted(map(len, g.classes)) == [1, 2, 3]
    rng = random.Random(27)
    for _ in range(25):
        d = random_diagram(rng, max_crossings=5, max_mu=3)
        for pres in (welded_group(d), core_group(d)):
            want = hom_count(pres, builtin_group("s3"))
            assert hom_count(pres, g) == want
            if g.order ** pres.ngens <= EXHAUSTIVE_LIMIT:
                assert oracles.hom_count_exhaustive(pres, g) == want


def test_components_follow_the_surviving_arcs():
    rng = random.Random(28)
    s3 = builtin_group("s3")
    diagrams = [random_diagram(rng, max_crossings=8, max_mu=3) for _ in range(30)]
    for d in diagrams + list(v_scrambled()):
        pres = welded_group(d)
        assert pres.components == crossing_arcs(d)[1]
        # label every generator by itself to read off the survivors
        labelled = GroupPresentation(pres.ngens, pres.relators, tuple(range(pres.ngens)))
        survivors = simplify_presentation(labelled).components
        assert list(survivors) == sorted(set(survivors))
        simp = simplify_presentation(pres)
        assert simp.ngens == len(survivors)
        assert simp.components == tuple(pres.components[g] for g in survivors)
        assert core_group(d).components == ()
        assert simplify_presentation(core_group(d)).components == ()
        # every homomorphism sends the arcs of one component into one class
        if s3.order ** simp.ngens <= EXHAUSTIVE_LIMIT:
            for images in itertools.product(range(s3.order), repeat=simp.ngens):
                if is_hom(simp, s3, images):
                    seen = {}
                    for g, c in enumerate(simp.components):
                        cls = s3.class_of[images[g]]
                        assert seen.setdefault(c, cls) == cls


def test_builtin_groups_are_shared_and_read_only():
    assert builtin_group("S4") is builtin_group("s4")
    g = builtin_group("s4")
    with pytest.raises(TypeError):
        g.table[0][1] = 5
    with pytest.raises(TypeError):
        g.table[0] = g.table[1]
