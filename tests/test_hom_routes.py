"""The two routes of ``hom_count`` that need no full search: abelian targets
counted from the abelianization, and parts with alternating relators
counted up to right translation."""

import random

import pytest

from wld import invariants
from wld.diagram import random_diagram
from wld.invariants import (FiniteGroupTable, GroupPresentation, builtin_group,
                            core_group, hom_count, simplify_presentation,
                            welded_group)

import oracles
from support import scrambled_link, time_limit

EXHAUSTIVE_LIMIT = 20000   # largest |G|^ngens handed to the exhaustive oracle


def relabelled(group, label, name):
    """``group`` with element a renamed label[a]."""
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[label[a]][label[b]] = label[group.table[a][b]]
    return FiniteGroupTable(name, table)


def product(m, n):
    """Z/m x Z/n, the element (a, b) numbered a * n + b."""
    return FiniteGroupTable(f"z{m}xz{n}", [[(a // n + b // n) % m * n + (a + b) % n
                                           for b in range(m * n)] for a in range(m * n)])


def alternates(rel):
    return all(e == -rel[i - 1][1] for i, (_, e) in enumerate(rel))


def presentations(rng, count, max_crossings=5):
    for _ in range(count):
        d = random_diagram(rng, max_crossings=max_crossings, max_mu=3)
        yield welded_group(d)
        yield core_group(d)


def assert_counts_exhaustively(pres, groups, checked):
    # the oracle enumerates the given presentation where it is small enough,
    # and the simplified one (an isomorphic group) where that is
    simp = simplify_presentation(pres)
    for g in groups:
        small = [p for p in (pres, simp) if g.order ** p.ngens <= EXHAUSTIVE_LIMIT]
        if small:
            assert hom_count(pres, g) == oracles.hom_count_exhaustive(small[0], g), g
            checked[g.name] = checked.get(g.name, 0) + 1


def test_abelian_targets_against_exhaustive():
    klein = product(2, 2)
    # Z2 x Z4 with the identity renamed 5, so element 0 is not the identity
    z2z4 = relabelled(product(2, 4), [5, 0, 7, 2, 1, 6, 3, 4], "z2xz4-relabelled")
    assert z2z4.identity == 5 and sorted(z2z4.element_orders) == [1, 2, 2, 2, 4, 4, 4, 4]
    groups = [builtin_group(f"z{n}") for n in range(2, 7)] + [klein, z2z4]
    assert all(len(g.classes) == g.order for g in groups)
    rng = random.Random(40)
    checked = {}
    for pres in presentations(rng, 40):
        assert_counts_exhaustively(pres, groups, checked)
    assert sorted(checked) == sorted(g.name for g in groups)
    assert min(checked.values()) >= 30


def test_abelian_targets_need_no_tietze_step(monkeypatch):
    def refuse(p):
        raise AssertionError("an abelian target was searched")

    monkeypatch.setattr(invariants, "simplify_presentation", refuse)
    rng = random.Random(41)
    for pres in presentations(rng, 10, max_crossings=8):
        rank, torsion = invariants.abelianization(pres)
        for n in (2, 6, 12):
            want = n ** rank
            for d in torsion:
                want *= sum(1 for a in range(n) if d * a % n == 0)
            assert hom_count(pres, builtin_group(f"z{n}")) == want


def test_alternating_parts_against_exhaustive():
    s3 = builtin_group("s3")
    groups = [s3, builtin_group("d4"), builtin_group("q8"),
              relabelled(s3, [4, 0, 5, 1, 3, 2], "s3-relabelled")]
    rng = random.Random(42)
    checked, alternating = {}, 0
    for _ in range(60):
        pres = core_group(random_diagram(rng, max_crossings=6, max_mu=3))
        simp = simplify_presentation(pres)
        assert all(map(alternates, simp.relators))
        alternating += bool(simp.relators)
        assert_counts_exhaustively(pres, groups, checked)
    assert alternating >= 20
    assert min(checked.values()) >= 30


def test_an_alternating_part_beside_a_rigid_part():
    # the core and the welded presentation of one diagram, side by side:
    # simplification leaves both kinds of relator, in separate parts
    s3, d4 = builtin_group("s3"), builtin_group("d4")
    rng = random.Random(43)
    mixed = 0
    for _ in range(60):
        d = random_diagram(rng, max_crossings=4, max_mu=2)
        core, welded = core_group(d), welded_group(d)
        shifted = tuple(tuple((g + core.ngens, e) for g, e in rel) for rel in welded.relators)
        pres = GroupPresentation(core.ngens + welded.ngens, core.relators + shifted)
        kinds = {alternates(rel) for rel in simplify_presentation(pres).relators}
        mixed += kinds == {True, False}
        for g in (s3, d4):
            want = hom_count(core, g) * hom_count(welded, g)
            assert hom_count(pres, g) == want
            simp = simplify_presentation(pres)
            if g.order ** simp.ngens <= EXHAUSTIVE_LIMIT:
                assert oracles.hom_count_exhaustive(simp, g) == want
    assert mixed >= 10


def test_an_odd_relator_alternating_but_at_its_ends_is_rigid():
    # x y^-1 x y^-1 x: right translation would turn it into w a, not a
    # conjugate, so the part is searched in full
    pres = GroupPresentation(2, (((0, 1), (1, -1)) * 2 + ((0, 1),),))
    assert simplify_presentation(pres) == pres
    for g in map(builtin_group, ("s3", "d4", "q8")):
        assert hom_count(pres, g) == oracles.hom_count_exhaustive(pres, g)


def test_an_alternating_part_with_a_component_anchor():
    # (x y^-1)^2 = (x y^-1)^3 = 1 gives x = y, so the component index may
    # join them, and y runs over the class of x's image, the identity
    rels = (((0, 1), (1, -1)) * 2, ((0, 1), (1, -1)) * 3)
    pres = GroupPresentation(2, rels, (0, 0))
    assert simplify_presentation(pres).ngens == 2
    for g in map(builtin_group, ("s3", "d4", "q8")):
        assert hom_count(pres, g) == oracles.hom_count_exhaustive(pres, g) == g.order


@pytest.mark.parametrize("build, group, count", [
    (core_group, "z6", 72), (welded_group, "z12", 1728)])
def test_abelian_counts_at_156_crossings_within_budget(build, group, count):
    # Tietze simplification leaves 17 core generators here, and the search
    # into z6 ran for over a minute
    d = scrambled_link(115)
    assert d.crossing_count == 156
    with time_limit(10):
        assert hom_count(build(d), builtin_group(group)) == count
