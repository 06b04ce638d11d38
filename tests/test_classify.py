import random
import re

import pytest

from wld.algebra import AlgebraError, cyclic_ring, parse_poly
from wld.arrows import build_H
from wld.classify import (decide_vn, decide_vn_uc, example_names, multiplex, named,
                          normalize_vn, normalize_vn_uc, obstruct_vn)
from wld.diagram import (DiagramError, linking_matrix, parse,
                         random_diagram, same_diagram)
from wld.invariants import (alexander, coloring_count, core_group,
                            hom_count, builtin_group)
from wld.moves import make_kind, parse_kinds, replay, scramble, search_path

from support import PANEL, time_limit

TREFOIL = named("trefoil")
UNKNOT = named("unknot")
HOPF = named("hopf+")
UNLINK2 = named("unlink-2")


def test_decide_vn_even_always_equivalent():
    assert decide_vn(TREFOIL, UNKNOT, 2).equivalent
    assert decide_vn(HOPF, UNKNOT, 4).equivalent
    assert decide_vn(HOPF, UNLINK2, 6).equivalent


def test_decide_vn_odd_examples():
    assert not decide_vn(HOPF, UNLINK2, 3).equivalent
    assert decide_vn(TREFOIL, UNKNOT, 3).equivalent  # knots: condition vacuous
    assert decide_vn(TREFOIL, UNKNOT, 5).equivalent


def test_decide_vn_odd_mu_mismatch():
    assert not decide_vn(HOPF, UNKNOT, 3).equivalent


def test_decide_vn_residue_certificate():
    verdict = decide_vn(HOPF, UNLINK2, 3)
    assert verdict.residues == (((1, 2), 2, 0),)
    assert verdict.verdict == "inequivalent"


def test_decide_vn_uc_examples():
    assert decide_vn_uc(HOPF, UNLINK2, 1).equivalent  # mod 1 always
    assert not decide_vn_uc(HOPF, UNLINK2, 2).equivalent
    h3 = named("h-closure:2,1,2,3")
    h1 = named("h-closure:2,1,2,1")
    assert decide_vn_uc(h3, h1, 2).equivalent
    assert not decide_vn_uc(h3, h1, 3).equivalent


def test_decide_reflexive_symmetric():
    rng = random.Random(50)
    for _ in range(20):
        d = random_diagram(rng, max_crossings=6, max_mu=3)
        e = random_diagram(rng, max_crossings=6, max_mu=3)
        for n in (2, 3, 4, 5):
            assert decide_vn(d, d, n).equivalent
            assert decide_vn_uc(d, d, n).equivalent
            assert decide_vn(d, e, n).equivalent == decide_vn(e, d, n).equivalent
            assert decide_vn_uc(d, e, n).equivalent == decide_vn_uc(e, d, n).equivalent


def test_decide_invariant_under_matching_scrambles():
    rng = random.Random(51)
    welded = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc")]
    for _ in range(8):
        d = random_diagram(rng, max_crossings=6, max_mu=3)
        n = rng.choice((3, 5))
        s = scramble(d, welded + [make_kind("v(n)", n)], 30, rng.randrange(10 ** 6))
        assert decide_vn(d, s, n).equivalent
        n2 = rng.choice((2, 3, 4))
        s2 = scramble(d, welded + [make_kind("uc"), make_kind("v^n", n2)], 30,
                      rng.randrange(10 ** 6))
        assert decide_vn_uc(d, s2, n2).equivalent


def test_decide_any_order_flag():
    left = parse("component: O1+ U2+\ncomponent:\ncomponent: U1+ O2+\n")
    right = parse("component: O1+ U2+\ncomponent: U1+ O2+\ncomponent:\n")
    n = 3
    assert not decide_vn(left, right, n).equivalent
    assert decide_vn(left, right, n, any_order=True).equivalent


def test_obstruct_trefoil_all_n():
    for n in range(2, 13):
        cert = obstruct_vn(TREFOIL, UNKNOT, n, 1)
        if n in (5, 7, 11):
            # 1 - t + t^2 is a unit modulo t^n - 1: both E^1 images are R_n
            assert cert is None
        else:
            assert cert is not None and cert.k == 1
            assert cert.reason == "ideal"


def test_obstruct_figure8_all_n():
    # V^n is not an unknotting operation for any n >= 2
    for n in range(2, 13):
        cert = obstruct_vn(named("figure8"), UNKNOT, n, 1)
        assert cert is not None and cert.k == 1 and cert.reason == "ideal"


def test_obstruct_trefoil_against_its_v3_scramble_is_inconclusive():
    # V^3-equivalent, with equal E^1 images modulo 1 - t^3, though their
    # Alexander polynomials differ (1 - t + t^2 against 1): a gcd over
    # Z[t^+-1] is no V^n invariant, so it certifies nothing
    s = scramble(TREFOIL, parse_kinds("v^n:3"), 1, 0)
    assert alexander(s, 1)[1] == parse_poly("1")
    assert obstruct_vn(TREFOIL, s, 3, 1) is None
    assert obstruct_vn(TREFOIL, s, 3, 3) is None


def test_obstruct_nothing_cases():
    assert obstruct_vn(TREFOIL, TREFOIL, 3, 3) is None
    assert obstruct_vn(TREFOIL, UNKNOT, 1, 3) is None
    assert obstruct_vn(UNKNOT, UNKNOT, 5, 2) is None


def test_obstruct_reads_no_k_past_the_arc_count():
    # E^k is the whole ring once k reaches the arc count, so kmax = 10^12
    # gives kmax = 3's answer without computing the k in between
    with time_limit(2):
        assert obstruct_vn(TREFOIL, TREFOIL, 3, 10 ** 12) is None
        far = obstruct_vn(TREFOIL, UNKNOT, 2, 10 ** 12)
    assert far == obstruct_vn(TREFOIL, UNKNOT, 2, 3) and far.k == 1


@pytest.mark.parametrize("n", [0, -3])
def test_every_decision_and_normal_form_checks_n_by_the_one_modulus_rule(n):
    string = build_H(2, 1, 2, 1)
    for call in (lambda: decide_vn(TREFOIL, UNKNOT, n), lambda: decide_vn_uc(HOPF, HOPF, n),
                 lambda: normalize_vn(string, n), lambda: normalize_vn_uc(string, n),
                 lambda: obstruct_vn(TREFOIL, UNKNOT, n)):
        with pytest.raises(AlgebraError) as err:
            call()
        assert str(err.value) == f"modulus n must be >= 1, got {n}"


def test_decisions_over_many_moduli_keep_a_bounded_number_of_rings():
    # every decision checks n by cyclic_ring, which keeps its latest rings
    for n in range(1, 601, 2):
        decide_vn(TREFOIL, UNKNOT, n)
    assert cyclic_ring.cache_info().currsize <= 256


def test_obstruct_is_vn_sound():
    # one V^n move never triggers the obstruction
    rng = random.Random(52)
    from wld.moves import EXPAND, MoveSite, apply, _all_gaps
    for _ in range(10):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        n = rng.choice((2, 3))
        gaps = _all_gaps(d)
        g1 = gaps[rng.randrange(len(gaps))]
        g2 = gaps[rng.randrange(len(gaps))]
        if g1 == g2:
            continue
        d2 = apply(d, make_kind("v^n", n, EXPAND),
                   MoveSite((g1[0], g1[1], g2[0], g2[1], rng.choice((1, -1)))))
        assert obstruct_vn(d, d2, n, 3) is None


def test_uc_gap_witness():
    # (V^2+UC)-equivalent yet not V^2-equivalent: UC is not realized by V^n
    # moves for n >= 2
    assert decide_vn_uc(TREFOIL, UNKNOT, 2).equivalent
    assert obstruct_vn(TREFOIL, UNKNOT, 2, 1) is not None


def test_multiplex_zero_tuple_trivializes():
    out = multiplex(TREFOIL, (0,))
    assert out.crossing_count == 0 and out.mu == 1


def test_multiplex_crossing_count():
    assert multiplex(TREFOIL, (2,)).crossing_count == 6
    assert multiplex(TREFOIL, (-3,)).crossing_count == 9
    assert multiplex(HOPF, (2, 3)).crossing_count == 5


def test_multiplex_tuple_length_checked():
    with pytest.raises(DiagramError):
        multiplex(TREFOIL, (1, 1))


def test_multiplex_even_lambda_mod_two():
    rng = random.Random(53)
    for _ in range(20):
        d = random_diagram(rng, max_crossings=6, max_mu=3)
        m = tuple(rng.choice((-4, -2, 0, 2, 4)) for _ in range(d.mu))
        lam = linking_matrix(multiplex(d, m))
        assert all(x % 2 == 0 for row in lam for x in row)


def test_multiplex_even_reduces_to_unknot_by_v2():
    k2 = multiplex(TREFOIL, (2,))
    path = search_path(k2, UNKNOT, [make_kind("v^n", 2)], 6, 4)
    assert path is not None and len(path) == 3
    assert same_diagram(replay(k2, path), UNKNOT)


def test_multiplex_core_group_is_z():
    for m in (2, 4):
        km = multiplex(TREFOIL, (m,))
        for g in map(builtin_group, PANEL):
            assert hom_count(core_group(km), g) == g.order
        for n in range(2, 8):
            assert coloring_count(km, n) == n


def test_multiplex_negative_mirror_of_positive_counts():
    km = multiplex(TREFOIL, (-2,))
    assert km.crossing_count == 6
    signs = {p.sign for c in km.components for p in c}
    assert signs == {-1}


def test_named_corpus():
    assert named("unknot").crossing_count == 0
    assert named("trefoil").crossing_count == 3
    assert named("figure8").crossing_count == 4
    assert named("virtual-trefoil").crossing_count == 2
    assert named("hopf-").crossing_count == 2
    assert named("unlink-4").mu == 4
    lam = linking_matrix(named("hbar-closure:2,1,2,-2"))
    assert lam[0][1] == 0 and lam[1][0] == -2
    assert named(" H-closure: 2, 1 ,2,-2 ") == named("h-closure:2,1,2,-2")
    # str.isdigit accepts "²", which int() cannot read
    # int() refuses more than 4300 digits
    for name in ("nonsense", "unlink-²", "h-closure:²,1,2,2", "h-closure:--2,1,2,2",
                 "unlink-" + "9" * 5000, "h-closure:" + "9" * 5000 + ",1,2,2"):
        with pytest.raises(DiagramError, match=re.escape(repr(name))):
            named(name)


def test_named_validated_by_invariants():
    assert alexander(named("trefoil"), 1)[1] == parse_poly("1 - t + t^2")
    assert alexander(named("figure8"), 1)[1] == parse_poly("1 - 3t + t^2")
    lam = linking_matrix(named("hopf+"))
    assert lam[0][1] == lam[1][0] == 1
    lam = linking_matrix(named("hopf-"))
    assert lam[0][1] == lam[1][0] == -1
    assert linking_matrix(named("h-closure:2,1,2,3")) == [[0, 3], [0, 0]]


def test_example_names_listed():
    names = example_names()
    assert "trefoil" in names and "unknot" in names


def test_verdict_json_shape():
    verdict = decide_vn(HOPF, UNLINK2, 3)
    doc = verdict.to_json_dict()
    assert doc["verdict"] == "inequivalent" and doc["n"] == 3
    cert = obstruct_vn(TREFOIL, UNKNOT, 2, 1)
    doc = cert.to_json_dict()
    assert doc["obstruction_k"] == 1 and doc["lattices"]["left"]


def test_obstruct_none_under_vn_scrambles():
    # welded moves plus V^n moves (no UC) never trigger the obstruction
    rng = random.Random(54)
    welded = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc")]
    for _ in range(6):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        n = rng.choice((2, 3))
        s = scramble(d, welded + [make_kind("v^n", n)], 15, rng.randrange(10 ** 6))
        assert obstruct_vn(d, s, n, 2) is None


def test_vn_unknots_all_welded_knots():
    # for knots the V(n)-classification condition is vacuous at every n
    rng = random.Random(55)
    for _ in range(30):
        knot = random_diagram(rng, max_crossings=10, max_mu=1)
        for n in (1, 2, 3, 4, 5, 6, 7):
            assert decide_vn(knot, UNKNOT, n).equivalent
