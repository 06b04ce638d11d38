"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  Every tolerance here is exact integer/polynomial equality.
"""

import random

from wld.algebra import Laurent, f_n, fold, hnf, ideal_mod, parse_poly, snf
from wld.arrows import build_H, build_Hbar, surgery, to_arrows
from wld.classify import decide_vn, decide_vn_uc, multiplex, named, obstruct_vn
from wld.diagram import (Diagram, closure, crossing_arcs, linking_matrix,
                         parse, random_diagram, same_diagram, serialize)
from wld.invariants import (alexander, builtin_group, coloring_count,
                            core_group, elementary_ideals, hom_count)
from wld.moves import (EXPAND, MoveSite, _all_gaps, apply, make_kind,
                       replay, scramble, search_path)

import oracles
from support import PANEL

WELDED_KINDS = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc")]


def report(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_trefoil_polynomial():
    _, delta = alexander(named("trefoil"), 1)
    assert delta == parse_poly("1 - t + t^2")
    _, delta_u = alexander(named("unknot"), 1)
    assert delta_u == Laurent({0: 1})
    report(1, "Delta^1(trefoil) = 1 - t + t^2 and Delta^1(unknot) = 1, exact")


def test_criterion_2_trefoil_obstruction():
    trefoil, unknot, figure8 = named("trefoil"), named("unknot"), named("figure8")
    tre_poly = parse_poly("1 - t + t^2")
    for n in range(2, 13):
        cert = obstruct_vn(trefoil, unknot, n, 1)
        if n in (5, 7, 11):
            # 1 - t + t^2 is a unit modulo t^n - 1 (resultant +-1), so the
            # trefoil's E^1 image is the whole ring, as is the unknot's
            assert cert is None, n
        else:
            assert cert is not None and cert.k == 1 and cert.reason == "ideal", n
        cert = obstruct_vn(figure8, unknot, n, 1)
        assert cert is not None and cert.k == 1 and cert.reason == "ideal", n
        for eps in (1, -1):
            for r in range(n):
                diff = tre_poly - Laurent({r: eps})
                assert fold(diff, n)  # residue route
                assert f_n(diff, n) != 0                 # functional route
    report(2, "ideal certificates at k=1: trefoil vs unknot for n=2..12 except "
              "5, 7, 11, figure-eight vs unknot for n=2..12; residue and f_n "
              "routes agree that 1 - t + t^2 - eps t^r is never in (1 - t^n)")


def test_criterion_3_even_vn_trivializes():
    rng = random.Random(301)
    for i in range(100):
        d = random_diagram(rng, max_crossings=10, max_mu=3)
        unlink = Diagram(tuple(() for _ in range(rng.randint(1, 3))), "link")
        n = rng.choice((2, 4, 6))
        assert decide_vn(d, unlink, n).equivalent
    report(3, "100 random diagrams are V(n)-equivalent to trivial links for even n")


def test_criterion_4_odd_twist_soundness():
    rng = random.Random(401)
    pairs = 0
    for n in (3, 5):
        for _ in range(100):
            d = random_diagram(rng, max_crossings=8, max_mu=3)
            steps = rng.randint(0, 60)
            s = scramble(d, WELDED_KINDS + [make_kind("v(n)", n)], steps,
                         rng.randrange(10 ** 9))
            assert s.mu == d.mu
            lam_d, lam_s = linking_matrix(d), linking_matrix(s)
            for i in range(d.mu):
                for j in range(i + 1, d.mu):
                    assert (lam_d[i][j] + lam_d[j][i]) % n == \
                        (lam_s[i][j] + lam_s[j][i]) % n
            assert decide_vn(d, s, n).equivalent
            pairs += 1
    assert pairs == 200
    report(4, "200 scramble pairs under {R1,R2,R3,OC,V(n)} preserve "
              "(lambda_ij + lambda_ji) mod n for n in {3,5}")


def test_criterion_5_vn_uc_soundness():
    rng = random.Random(501)
    pairs = 0
    for n in (2, 3, 4):
        for _ in range(70):
            d = random_diagram(rng, max_crossings=8, max_mu=3)
            steps = rng.randint(0, 60)
            kinds = WELDED_KINDS + [make_kind("uc"), make_kind("v^n", n)]
            s = scramble(d, kinds, steps, rng.randrange(10 ** 9))
            lam_d, lam_s = linking_matrix(d), linking_matrix(s)
            for i in range(d.mu):
                for j in range(d.mu):
                    if i != j:
                        assert lam_d[i][j] % n == lam_s[i][j] % n
            assert decide_vn_uc(d, s, n).equivalent
            pairs += 1
    assert pairs == 210
    report(5, "210 scramble pairs under {welded, UC, V^n} preserve "
              "lambda_ij mod n for n in {2,3,4}")


def test_criterion_6_normal_form_calibration():
    for a in range(-3, 4):
        lam = linking_matrix(closure(surgery(build_H(2, 1, 2, a))))
        assert (lam[0][1], lam[1][0]) == (a, 0)
        lam = linking_matrix(closure(surgery(build_Hbar(2, 1, 2, a))))
        assert (lam[0][1], lam[1][0]) == (0, a)
    report(6, "closure(surgery(H_12(a))) has lambda = (a, 0) and "
              "Hbar_12(b) gives (0, b) for a, b in -3..3")


def test_criterion_7_ideal_invariance_under_vn():
    rng = random.Random(701)
    checked = 0
    while checked < 50:
        d = random_diagram(rng, max_crossings=10, max_mu=3)
        n = rng.choice((2, 3))
        gaps = _all_gaps(d)
        g1 = gaps[rng.randrange(len(gaps))]
        g2 = gaps[rng.randrange(len(gaps))]
        site = MoveSite((g1[0], g1[1], g2[0], g2[1], rng.choice((1, -1))))
        d2 = apply(d, make_kind("v^n", n, EXPAND), site)
        before = elementary_ideals(d, 3)
        after = elementary_ideals(d2, 3)
        for k in range(4):
            assert ideal_mod(before[k], n) == ideal_mod(after[k], n), (checked, n, k)
        checked += 1
    report(7, "E^k = E^k mod (1 - t^n) for k in 0..3 after one V^n move, "
              "50 random diagrams, n in {2,3}")


def test_criterion_8_core_invariance_under_v2():
    rng = random.Random(801)
    groups = [builtin_group(g) for g in ("z3", "s3", "d4", "q8")]
    for i in range(50):
        d = random_diagram(rng, max_crossings=10, max_mu=3)
        steps = rng.randint(0, 20)
        s = scramble(d, [make_kind("v^n", 2)], steps, rng.randrange(10 ** 9))
        for n in range(2, 8):
            assert coloring_count(d, n) == coloring_count(s, n), (i, n)
        for g in groups:
            assert hom_count(core_group(d), g) == hom_count(core_group(s), g), \
                (i, g.name)
    report(8, "V^2-scrambles preserve coloring counts (n=2..7) and core-group "
              "hom counts into {Z/3, S3, D4, Q8}, 50 random diagrams")


def test_criterion_9_multiplexing_core_trivialization():
    trefoil = named("trefoil")
    deltas = {}
    for m in (2, 4):
        km = multiplex(trefoil, (m,))
        assert km.crossing_count == 3 * m
        for g in map(builtin_group, PANEL):
            assert hom_count(core_group(km), g) == g.order, (m, g.name)
        deltas[m] = alexander(km, 1)[1]
    k2 = multiplex(trefoil, (2,))
    path = search_path(k2, named("unknot"), [make_kind("v^n", 2)],
                       max_crossings=6, max_depth=4)
    assert path is not None
    assert same_diagram(replay(k2, path), named("unknot"))
    report(9, "core group of trefoil(m) has |Hom| = |G| on the whole panel for "
              f"m in {{2,4}}; V^2 search unknots trefoil(2) in {len(path)} moves; "
              f"for the record Delta^1(K(2)) = {deltas[2]}, Delta^1(K(4)) = {deltas[4]}")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(1001)
    for _ in range(100):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert snf(mat) == oracles.snf_by_minors(mat)
        h = hnf(mat)
        assert oracles.is_hnf(h)
        assert oracles.lattices_equal(mat, h)
    small = 0
    while small < 25:
        d = random_diagram(rng, max_crossings=4, max_mu=2)
        if len(crossing_arcs(d)[1]) > 4:
            continue
        for n in range(2, 6):
            assert coloring_count(d, n) == oracles.colorings_exhaustive(d, n)
        small += 1
    for _ in range(500):
        u = tuple((rng.randrange(3), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 5)))
        v = tuple((rng.randrange(3), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 5)))
        rows = [oracles._fox_row_by_definition(w) for w in (u + v, u, v)]
        for gen in range(3):
            duv, du, dv = (row.get(gen, Laurent()) for row in rows)
            assert duv == du + Laurent({sum(e for _, e in u): 1}) * dv
    report(10, "hnf/snf match brute-force minor oracles (100 matrices); "
               "coloring counts match exhaustive enumeration (25 small diagrams); "
               "Fox product rule holds on 500 random word pairs")


def test_criterion_11_round_trips():
    rng = random.Random(1101)
    for _ in range(200):
        d = random_diagram(rng, max_crossings=10, max_mu=3,
                           kind=rng.choice(("link", "stringlink")))
        assert parse(serialize(d)) == d
        assert surgery(to_arrows(d)) == d
        assert to_arrows(surgery(to_arrows(d))) == to_arrows(d)
    report(11, "parse/serialize and to_arrows/surgery identities hold on "
               "200 random diagrams")
