import itertools
import random
import re

import pytest

from wld import moves
from wld.diagram import (STRING_LINK, Diagram, DiagramError, Passage,
                         linking_matrix, parse, random_diagram, same_diagram)
from wld.moves import (EXPAND, FAMILIES, REDUCE, MoveError, MoveKind,
                       MoveSite, apply, count_sites, find_sites, make_kind,
                       parse_kind, parse_kinds, replay, scramble, search_path)

import oracles
from support import PANEL, time_limit
from test_moves_golden import KINDS, SCRAMBLE_CASES, golden_diagrams, scramble_digest

TREFOIL = parse("component: O1+ U2+ O3+ U1+ O2+ U3+\n")
HOPF = parse("component: O1+ U2+\ncomponent: U1+ O2+\n")
BRAID_R3 = parse("component: O1+ O2+ U2+ U3+\ncomponent: U1+ O3+\n")

WELDED = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc")]


def lam_sum_mod(d, n):
    lam = linking_matrix(d)
    return {(i, j): (lam[i][j] + lam[j][i]) % n
            for i in range(d.mu) for j in range(i + 1, d.mu)}


def lam_mod(d, n):
    lam = linking_matrix(d)
    return {(i, j): lam[i][j] % n
            for i in range(d.mu) for j in range(d.mu) if i != j}


def test_kind_normalization():
    assert make_kind("v(n)", 1) == make_kind("v")
    assert make_kind("v^n", 1) == make_kind("v")
    assert make_kind("vbar^n", 1) == make_kind("v")
    with pytest.raises(MoveError):
        make_kind("vbar(n)", 2)
    with pytest.raises(MoveError):
        make_kind("v^n", 0)
    with pytest.raises(MoveError):
        make_kind("bogus")
    assert parse_kind(" V^N:2 ") == make_kind("v^n", 2)
    # str.isdigit accepts "²", which int() cannot read
    # int() refuses more than 4300 digits
    for text in ("v^n:²", "v^n:--2", "v(n):x", "v^n:" + "9" * 5000):
        with pytest.raises(MoveError, match=re.escape(repr(text))):
            parse_kind(text)


def test_move_kind_validates_on_construction():
    from wld.moves import MoveKind
    trefoil = parse("component: O1+ U2+ O3+ U1+ O2+ U3+\n")
    with pytest.raises(MoveError, match="unknown move family"):
        find_sites(trefoil, MoveKind("bogus", 0, REDUCE))
    for bad in [("v^n", -2, EXPAND), ("v^n", 0, EXPAND), ("v(n)", 0, REDUCE),
                ("vbar(n)", 2, EXPAND), ("vbar(n)", 4, REDUCE),
                ("r1", 3, EXPAND), ("oc", 1), ("v", 2, EXPAND),
                ("r2", 0, "sideways"), ("r3", 0, "up")]:
        with pytest.raises(MoveError):
            MoveKind(*bad)
    # n = 1 kinds stay constructible directly, as the arrow calculus does
    for fam in ("v(n)", "v^n", "vbar(n)", "vbar^n"):
        assert MoveKind(fam, 1, EXPAND).n == 1
    assert MoveKind("vbar(n)", 3, REDUCE).n == 3


def test_parse_kinds():
    kinds = parse_kinds("r1,oc,v(n):3,v^n:2,vbar^n:4")
    assert kinds[2] == make_kind("v(n)", 3)
    assert kinds[3] == make_kind("v^n", 2)
    assert kinds[4] == make_kind("vbar^n", 4)


def test_r1_reduce_site_on_kink():
    kink = parse("component: O1+ U1+\n")
    sites = find_sites(kink, make_kind("r1", direction=REDUCE))
    assert len(sites) >= 1
    out = apply(kink, make_kind("r1", direction=REDUCE), sites[0])
    assert out.crossing_count == 0


def test_r1_reduce_empty_on_crossing_free():
    d = parse("component:\n")
    assert find_sites(d, make_kind("r1", direction=REDUCE)) == []


def test_r1_expand_reduce_inverse():
    rng = random.Random(7)
    for _ in range(30):
        d = random_diagram(rng, max_crossings=6)
        sites = find_sites(d, make_kind("r1", direction=EXPAND))
        site = sites[rng.randrange(len(sites))]
        d2 = apply(d, make_kind("r1", direction=EXPAND), site)
        assert d2.crossing_count == d.crossing_count + 1
        back = [s for s in find_sites(d2, make_kind("r1", direction=REDUCE))
                if same_diagram(apply(d2, make_kind("r1", direction=REDUCE), s), d)]
        assert back


def test_r2_expand_reduce_inverse_and_lambda():
    rng = random.Random(8)
    for _ in range(30):
        d = random_diagram(rng, max_crossings=6)
        sites = find_sites(d, make_kind("r2", direction=EXPAND))
        if not sites:
            continue
        site = sites[rng.randrange(len(sites))]
        d2 = apply(d, make_kind("r2", direction=EXPAND), site)
        assert d2.crossing_count == d.crossing_count + 2
        assert linking_matrix(d2) == linking_matrix(d)
        back = [s for s in find_sites(d2, make_kind("r2", direction=REDUCE))
                if same_diagram(apply(d2, make_kind("r2", direction=REDUCE), s), d)]
        assert back


def test_r3_braid_site_exists_and_swaps():
    sites = find_sites(BRAID_R3, make_kind("r3"))
    assert len(sites) == 1
    out = apply(BRAID_R3, make_kind("r3"), sites[0])
    assert out.components[0] == parse("component: O2+ O1+ U3+ U2+\ncomponent: O3+ U1+\n").components[0]


def test_r3_is_involution():
    sites = find_sites(BRAID_R3, make_kind("r3"))
    out = apply(apply(BRAID_R3, make_kind("r3"), sites[0]), make_kind("r3"), sites[0])
    assert same_diagram(out, BRAID_R3)


def test_r3_rejects_cyclic_triangle():
    assert find_sites(TREFOIL, make_kind("r3")) == []


def test_r3_preserves_lambda_and_signs():
    rng = random.Random(9)
    found = 0
    for _ in range(200):
        d = random_diagram(rng, max_crossings=8, max_mu=3)
        sites = find_sites(d, make_kind("r3"))
        for site in sites[:2]:
            out = apply(d, make_kind("r3"), site)
            assert linking_matrix(out) == linking_matrix(d)
            assert sorted(p for c in out.components for p in c) == \
                sorted(p for c in d.components for p in c)
            found += 1
    assert found >= 3


def test_oc_swaps_and_preserves_lambda():
    d = parse("component: O1+ O2- U1+ U2-\n")
    sites = find_sites(d, make_kind("oc"))
    assert sites
    out = apply(d, make_kind("oc"), sites[0])
    assert out.components[0][0].crossing == 2
    assert linking_matrix(out) == linking_matrix(d)


def test_uc_swaps_unders():
    d = parse("component: O1+ O2- U1+ U2-\n")
    sites = find_sites(d, make_kind("uc"))
    assert len(sites) == 1
    out = apply(d, make_kind("uc"), sites[0])
    assert [p.crossing for p in out.components[0]] == [1, 2, 2, 1]


def test_v_reduce_deletes_crossing():
    sites = find_sites(TREFOIL, make_kind("v", direction=REDUCE))
    assert len(sites) == 3
    out = apply(TREFOIL, make_kind("v", direction=REDUCE), sites[0])
    assert out.crossing_count == 2


def test_v_expand_inserts_crossing():
    d = parse("component:\ncomponent:\n")
    site = MoveSite((0, 0, 1, 0, -1))
    out = apply(d, make_kind("v", direction=EXPAND), site)
    assert out.crossing_count == 1
    assert linking_matrix(out)[0][1] == -1


def test_vn_expand_shifts_lambda_by_n():
    for n in (2, 3, 5):
        for sign in (1, -1):
            site = MoveSite((0, 0, 1, 0, sign))
            out = apply(HOPF, make_kind("v^n", n, EXPAND), site)
            lam = linking_matrix(out)
            assert lam[0][1] == 1 + sign * n
            assert lam[1][0] == 1


def test_vn_reduce_inverse():
    site = MoveSite((0, 1, 1, 1, 1))
    big = apply(HOPF, make_kind("v^n", 4, EXPAND), site)
    reductions = find_sites(big, make_kind("v^n", 4, REDUCE))
    assert any(same_diagram(apply(big, make_kind("v^n", 4, REDUCE), s), HOPF)
               for s in reductions)


def test_vbar_n_reversed_under_block():
    site = MoveSite((0, 0, 1, 0, 1))
    out = apply(HOPF, make_kind("vbar^n", 2, EXPAND), site)
    unders = [p.crossing for p in out.components[1] if p.crossing >= 3]
    overs = [p.crossing for p in out.components[0] if p.crossing >= 3]
    assert unders == list(reversed(overs))
    lam = linking_matrix(out)
    assert lam[0][1] == 3 and lam[1][0] == 1
    back = find_sites(out, make_kind("vbar^n", 2, REDUCE))
    assert any(same_diagram(apply(out, make_kind("vbar^n", 2, REDUCE), s), HOPF)
               for s in back)


def test_v_odd_twist_preserves_mu_and_shifts_sum():
    for n in (3, 5):
        for sign in (1, -1):
            for first in (1, 2):
                site = MoveSite((0, 0, 1, 0, sign, first))
                out = apply(HOPF, make_kind("v(n)", n, EXPAND), site)
                assert out.mu == 2
                lam = linking_matrix(out)
                assert (lam[0][1] + lam[1][0]) - 2 == sign * n


def test_v_even_twist_changes_mu():
    site = MoveSite((0, 0, 1, 0, 1, 1))
    merged = apply(HOPF, make_kind("v(n)", 2, EXPAND), site)
    assert merged.mu == 1
    split_sites = find_sites(merged, make_kind("v(n)", 2, REDUCE))
    assert any(same_diagram(apply(merged, make_kind("v(n)", 2, REDUCE), s), HOPF)
               for s in split_sites)


def test_v_even_twist_same_component_splits():
    kink = parse("component: O1+ U1+\n")
    site = MoveSite((0, 0, 0, 1, 1, 1))
    out = apply(kink, make_kind("v(n)", 2, EXPAND), site)
    assert out.mu == 2


def test_v_even_twist_rejected_on_string_links():
    sl = parse("stringlink\ncomponent:\ncomponent:\n")
    site = MoveSite((0, 0, 1, 0, 1, 1))
    with pytest.raises(MoveError):
        apply(sl, make_kind("v(n)", 2, EXPAND), site)


def test_vbar_odd_twist_lambda_sum():
    site = MoveSite((0, 0, 1, 0, 1, 1))
    out = apply(HOPF, make_kind("vbar(n)", 3, EXPAND), site)
    lam = linking_matrix(out)
    assert (lam[0][1] + lam[1][0]) - 2 == 3
    back = find_sites(out, make_kind("vbar(n)", 3, REDUCE))
    assert any(same_diagram(apply(out, make_kind("vbar(n)", 3, REDUCE), s), HOPF)
               for s in back)


def test_welded_moves_preserve_lambda():
    rng = random.Random(10)
    for _ in range(10):
        d = random_diagram(rng, max_crossings=8, max_mu=3)
        s = scramble(d, WELDED + [make_kind("uc")], 200, rng.randrange(10 ** 6))
        assert linking_matrix(s) == linking_matrix(d)


def test_scramble_deterministic():
    out1 = scramble(TREFOIL, WELDED, 30, 12345)
    out2 = scramble(TREFOIL, WELDED, 30, 12345)
    assert out1 == out2


def test_scramble_zero_steps():
    assert scramble(TREFOIL, WELDED, 0, 1) == TREFOIL


def test_scramble_odd_twist_preserves_sum_mod_n():
    rng = random.Random(11)
    for n in (3, 5):
        for _ in range(10):
            d = random_diagram(rng, max_crossings=6, max_mu=3)
            s = scramble(d, WELDED + [make_kind("v(n)", n)], 40, rng.randrange(10 ** 6))
            assert s.mu == d.mu
            assert lam_sum_mod(s, n) == lam_sum_mod(d, n)


def test_scramble_vn_preserves_lambda_mod_n():
    rng = random.Random(12)
    for n in (2, 3, 4):
        for _ in range(10):
            d = random_diagram(rng, max_crossings=6, max_mu=3)
            s = scramble(d, WELDED + [make_kind("uc"), make_kind("v^n", n)], 40,
                         rng.randrange(10 ** 6))
            assert lam_mod(s, n) == lam_mod(d, n)


def test_search_path_identity():
    assert search_path(TREFOIL, TREFOIL, WELDED, 10, 0) == []


def test_search_path_single_r1():
    kink = parse("component: O1+ U1+\n")
    unknot = parse("component:\n")
    path = search_path(kink, unknot, [make_kind("r1")], 1, 1)
    assert path is not None and len(path) == 1
    assert path[0][0].direction == REDUCE
    assert same_diagram(replay(kink, path), unknot)


def test_search_path_not_found_within_bounds():
    unknot = parse("component:\n")
    assert search_path(TREFOIL, unknot, [make_kind("r1")], 3, 2) is None


def test_apply_rejects_bad_site():
    with pytest.raises(MoveError):
        apply(TREFOIL, make_kind("r1", direction=REDUCE), MoveSite((0, 0)))


def test_moves_on_string_links_do_not_wrap():
    sl = parse("stringlink\ncomponent: O1+ U1+\ncomponent:\n")
    sites = find_sites(sl, make_kind("r1", direction=REDUCE))
    assert len(sites) == 1
    wrapped = parse("stringlink\ncomponent: U1+ O1+\ncomponent:\n")
    rotated_pair = [s for s in find_sites(wrapped, make_kind("r1", direction=REDUCE))]
    assert len(rotated_pair) == 1  # only the interior adjacency


def test_r1_kink_has_exactly_one_reduce_site():
    kink = parse("component: O1+ U1+\n")
    assert len(find_sites(kink, make_kind("r1", direction=REDUCE))) == 1


def test_h12_2_closure_has_v2_reduce_site():
    from wld.arrows import build_H, surgery
    from wld.diagram import closure
    d = closure(surgery(build_H(2, 1, 2, 2)))
    assert len(find_sites(d, make_kind("v^n", 2, REDUCE))) >= 1


def test_scramble_trefoil_named_example():
    from wld.invariants import alexander, builtin_group, hom_count, welded_group
    s = scramble(TREFOIL, [make_kind("r1"), make_kind("r2"), make_kind("r3"),
                           make_kind("oc")], 50, 7)
    assert linking_matrix(s) == linking_matrix(TREFOIL)
    assert alexander(s, 1)[1] == alexander(TREFOIL, 1)[1]
    for g in map(builtin_group, PANEL):
        assert hom_count(welded_group(s), g) == hom_count(welded_group(TREFOIL), g)


def test_every_returned_site_is_applicable():
    rng = random.Random(60)
    families = ["r1", "r2", "r3", "oc", "uc", "v"]
    parametrized = [("v^n", 2), ("v^n", 3), ("vbar^n", 2), ("v(n)", 2),
                    ("v(n)", 3), ("vbar(n)", 3)]
    for _ in range(25):
        d = random_diagram(rng, max_crossings=6, max_mu=2,
                           kind=rng.choice(("link", "stringlink")))
        kinds = []
        for fam in families:
            if fam in ("r3", "oc", "uc"):
                kinds.append(make_kind(fam))
            else:
                kinds.append(make_kind(fam, direction=EXPAND))
                kinds.append(make_kind(fam, direction=REDUCE))
        for fam, n in parametrized:
            kinds.append(make_kind(fam, n, EXPAND))
            kinds.append(make_kind(fam, n, REDUCE))
        for kind in kinds:
            sites = find_sites(d, kind)
            sample = sites if len(sites) <= 5 else \
                [sites[rng.randrange(len(sites))] for _ in range(5)]
            for site in sample:
                apply(d, kind, site)  # must not raise


def _reverse_component(d, ci):
    # reversing one component reverses its reading order and flips the sign
    # of every crossing it shares with another component (self-crossings
    # reverse both strands, so their signs persist)
    from wld.diagram import Diagram, Passage
    selfish = set()
    counts = {}
    for p in d.components[ci]:
        counts[p.crossing] = counts.get(p.crossing, 0) + 1
    selfish = {cid for cid, c in counts.items() if c == 2}
    comps = []
    for cj, comp in enumerate(d.components):
        if cj == ci:
            comp = tuple(reversed(comp))
        out = []
        for p in comp:
            flip = (p.crossing in counts) and (p.crossing not in selfish)
            out.append(Passage(p.crossing, p.role, -p.sign if flip else p.sign))
        comps.append(tuple(out))
    return Diagram(tuple(comps), d.kind)


def test_r3_sites_invariant_under_component_reversal():
    rng = random.Random(61)
    total = 0
    for _ in range(150):
        d = random_diagram(rng, max_crossings=7, max_mu=2)
        base = len(find_sites(d, make_kind("r3")))
        for ci in range(d.mu):
            assert len(find_sites(_reverse_component(d, ci), make_kind("r3"))) == base
        total += base
    assert total >= 5


def test_r3_sites_invariant_under_mirror():
    from wld.diagram import Diagram, Passage
    rng = random.Random(62)
    total = 0
    for _ in range(150):
        d = random_diagram(rng, max_crossings=7, max_mu=2)
        mirror = Diagram(tuple(tuple(Passage(p.crossing, p.role, -p.sign)
                                     for p in c) for c in d.components), d.kind)
        base = len(find_sites(d, make_kind("r3")))
        assert len(find_sites(mirror, make_kind("r3"))) == base
        total += base
    assert total >= 5


def test_expand_rejects_out_of_range_gap():
    with pytest.raises(MoveError):
        apply(TREFOIL, make_kind("r1", direction=EXPAND), MoveSite((0, 99, "O", 1)))
    with pytest.raises(MoveError):
        apply(TREFOIL, make_kind("v^n", 2, EXPAND), MoveSite((0, 0, 1, 0, 1)))


def test_reduce_rejects_positions_find_sites_does_not_list():
    # a cyclic component of length two has one adjacency, (0, 0)
    kink = parse("component: O1+ U1+\n")
    assert find_sites(kink, make_kind("r1", direction=REDUCE)) == [MoveSite((0, 0))]
    with pytest.raises(MoveError):
        apply(kink, make_kind("r1", direction=REDUCE), MoveSite((0, 1)))
    with pytest.raises(MoveError):
        apply(TREFOIL, make_kind("oc"), MoveSite((0, -1)))
    block = apply(parse("component:\ncomponent:\n"), make_kind("v^n", 2, EXPAND),
                  MoveSite((0, 0, 1, 0, 1)))
    assert MoveSite((0, 0, 1, 0)) in find_sites(block, make_kind("v^n", 2, REDUCE))
    with pytest.raises(MoveError):  # starts past the component ends
        apply(block, make_kind("v^n", 2, REDUCE), MoveSite((0, 2, 1, 2)))


def test_scramble_empty_kinds():
    assert scramble(TREFOIL, [], 0, 1) == TREFOIL
    with pytest.raises(MoveError):
        scramble(TREFOIL, [], 5, 1)


def test_expand_reduce_exact_inverse_sites_across_components():
    # with the two blocks on different components the reduce site is the
    # expansion site itself
    d = parse("component: O1+ U2+\ncomponent: U1+ O2+\n")
    r2_site = MoveSite((0, 1, 1, 0, 1, True))
    out = apply(d, make_kind("r2", direction=EXPAND), r2_site)
    back = apply(out, make_kind("r2", direction=REDUCE), MoveSite((0, 1, 1, 0, True)))
    assert back == d
    vn_site = MoveSite((0, 1, 1, 1, -1))
    out = apply(d, make_kind("v^n", 3, EXPAND), vn_site)
    back = apply(out, make_kind("v^n", 3, REDUCE), MoveSite((0, 1, 1, 1)))
    assert back == d
    r1_site = MoveSite((0, 1, "U", -1))
    out = apply(d, make_kind("r1", direction=EXPAND), r1_site)
    back = apply(out, make_kind("r1", direction=REDUCE), MoveSite((0, 1)))
    assert back == d


def test_vbar_scrambles_respect_lambda_residues():
    rng = random.Random(63)
    for _ in range(6):
        d = random_diagram(rng, max_crossings=6, max_mu=3)
        s = scramble(d, WELDED + [make_kind("vbar(n)", 3)], 30, rng.randrange(10 ** 6))
        assert lam_sum_mod(s, 3) == lam_sum_mod(d, 3)
        s2 = scramble(d, WELDED + [make_kind("uc"), make_kind("vbar^n", 2)], 30,
                      rng.randrange(10 ** 6))
        assert lam_mod(s2, 2) == lam_mod(d, 2)


@pytest.mark.parametrize("kind, data", [
    (make_kind("r3"), ((5, 0), (0, 1), (0, 2))),   # no component 5
    (make_kind("v", direction=REDUCE), (99,)),      # no crossing 99
    (make_kind("r1", direction=EXPAND), (0, 0, 1)),  # one entry short
])
def test_apply_rejects_malformed_site_with_move_error(kind, data):
    with pytest.raises(MoveError):
        apply(TREFOIL, kind, MoveSite(data))


@pytest.mark.parametrize("kind, data", [
    (make_kind("r1", direction=EXPAND), ("0", 0, "O", 1)),       # string component
    (make_kind("r1", direction=EXPAND), (0, 0, "O", True)),      # bool sign
    (make_kind("r2", direction=EXPAND), (0, "1", 0, 3, 1, True)),  # string gap
    (make_kind("r2", direction=EXPAND), (0, 1, 0, 3, 1, "yes")),   # non-bool parallel
    (make_kind("v", direction=EXPAND), (0, 0, "0", 3, 1)),       # string component
    (make_kind("v", direction=REDUCE), (1.0,)),                  # float crossing id
])
def test_apply_rejects_non_integer_site_entries(kind, data):
    with pytest.raises(MoveError):
        apply(TREFOIL, kind, MoveSite(data))


def _reduce_test_diagrams():
    from wld.moves import MoveKind
    rng = random.Random(64)
    out = [parse("component: O1+ U1+\n"),
           parse("component: O1+ O2-\ncomponent: U1+ U2-\n"),
           parse("stringlink\ncomponent: O1+ O2-\ncomponent: U1+ U2-\n"),
           BRAID_R3, TREFOIL]
    # even twists at even indices, which are links
    plants = [MoveKind("v^n", 2, EXPAND), MoveKind("vbar^n", 3, EXPAND),
              MoveKind("v(n)", 2, EXPAND), MoveKind("vbar(n)", 3, EXPAND),
              MoveKind("v(n)", 4, EXPAND), MoveKind("r2", 0, EXPAND),
              MoveKind("v(n)", 4, EXPAND), MoveKind("v^n", 3, EXPAND),
              MoveKind("v(n)", 3, EXPAND), MoveKind("v^n", 4, EXPAND),
              MoveKind("v^n", 1, EXPAND), MoveKind("vbar^n", 4, EXPAND)]
    for i in range(30):
        kind = ("link", "stringlink")[i % 2]
        d = random_diagram(rng, max_crossings=4, max_mu=2, kind=kind)
        if i % 5:
            plant = plants[i % len(plants)]
            sites = find_sites(d, plant)
            d = apply(d, plant, sites[rng.randrange(len(sites))])
        out.append(d)
    return out


def test_reduce_applies_exactly_at_listed_sites():
    import itertools
    from wld.moves import MoveKind
    kinds = ([MoveKind(fam, 0, REDUCE) for fam in ("r1", "r2", "v")]
             + [MoveKind(fam, n, REDUCE) for fam in ("v^n", "vbar^n", "v(n)")
                for n in (1, 2, 3, 4)]
             + [MoveKind("vbar(n)", n, REDUCE) for n in (1, 3)]
             + [make_kind("r3"), make_kind("oc"), make_kind("uc")])
    checked = 0
    for d in _reduce_test_diagrams():
        # every position, one past each end, and one component past the last
        spots = [(ci, p) for ci in range(d.mu + 1)
                 for p in range(-1, (len(d.components[ci]) if ci < d.mu else 1) + 1)]
        inside = [(ci, p) for ci, p in spots
                  if ci < d.mu and 0 <= p < len(d.components[ci])]
        ids = range(0, d.crossing_count + 2)
        for kind in kinds:
            fam = kind.family
            if fam in ("r1", "oc", "uc"):
                candidates = spots
            elif fam == "r2":
                candidates = [a + b + (par,) for a in spots for b in spots
                              for par in (True, False)]
            elif fam == "v":
                candidates = [(cid,) for cid in ids]
            elif fam == "r3":
                candidates = list(itertools.combinations(inside, 3))
            else:
                candidates = [a + b for a in spots for b in spots]
            listed = {site.data for site in find_sites(d, kind)}
            assert listed <= set(candidates), kind
            for data in candidates:
                try:
                    apply(d, kind, MoveSite(data))
                    applied = True
                except MoveError:
                    applied = False
                assert applied == (data in listed), (str(d), str(kind), data)
                checked += 1
    assert checked > 10000


def _every_directed_kind():
    """Every directed kind of every family at n = 1..4; the n = 1 kinds are
    built directly, as the arrow calculus does, so they keep block sites."""
    kinds = []
    for fam in FAMILIES:
        if fam in ("r3", "oc", "uc"):
            kinds.append(MoveKind(fam))
            continue
        for n in ((1, 2, 3, 4) if fam in ("v(n)", "v^n", "vbar(n)", "vbar^n") else (0,)):
            if fam == "vbar(n)" and n % 2 == 0:
                continue
            kinds += [MoveKind(fam, n, EXPAND), MoveKind(fam, n, REDUCE)]
    return kinds


def test_count_sites_is_the_number_of_found_sites():
    kinds = _every_directed_kind()
    assert len(kinds) == 37
    mixed = parse_kinds("r1,r2,r3,oc,v^n:2,v(n):3,vbar^n:3")
    bases = [TREFOIL, HOPF, BRAID_R3,
             parse("stringlink\ncomponent: O1+ U2+\ncomponent: U1+ O2+\n"),
             parse("stringlink\ncomponent: O1+\ncomponent:\ncomponent: U1+\n"),
             parse("component: O1+ U2+ O3+ U1+ O2+ U3+\ncomponent:\n")]
    for i, base in enumerate(bases):
        for seed in range(3):
            d = scramble(base, mixed, 5 * seed, 100 * i + seed)
            for kind in kinds:
                assert count_sites(d, kind) == len(find_sites(d, kind)), (str(d), str(kind))
    # the even twist on a string link has no sites, and a directed family
    # needs its direction
    assert count_sites(bases[3], MoveKind("v(n)", 2, EXPAND)) == 0
    with pytest.raises(MoveError, match="needs a direction"):
        count_sites(TREFOIL, MoveKind("v^n", 2))


def test_block_with_more_crossings_than_the_diagram_fits_nowhere():
    # a block has n distinct crossings, so none is looked for on a diagram
    # with fewer, however large n is
    for family in ("v^n", "vbar^n", "v(n)", "vbar(n)"):
        kind = MoveKind(family, 10**7 + (family == "vbar(n)"), REDUCE)
        with time_limit(1):
            assert find_sites(TREFOIL, kind) == [] and count_sites(TREFOIL, kind) == 0
            with pytest.raises(MoveError):
                apply(TREFOIL, kind, (0, 0, 0, 3))


def test_move_site_is_a_tuple():
    site = MoveSite((0, 1, 1, 0, -1))
    assert isinstance(site, tuple) and site == (0, 1, 1, 0, -1)
    assert type(site.data) is tuple and site.data == (0, 1, 1, 0, -1)
    assert MoveSite((0, 0)) < MoveSite((0, 1)) and hash(site) == hash(site.data)
    assert repr(site) == "MoveSite((0, 1, 1, 0, -1))"
    with pytest.raises(AttributeError):
        site.extra = 1


def test_apply_takes_a_plain_tuple_site():
    d = scramble(TREFOIL, WELDED + [make_kind("v^n", 2)], 12, 5)
    kinds = [make_kind("r1", direction=EXPAND), make_kind("r2", direction=REDUCE),
             make_kind("r3"), make_kind("oc"), make_kind("v", direction=REDUCE)]
    applied = 0
    for kind in kinds:
        for site in find_sites(d, kind)[:4]:
            assert apply(d, kind, tuple(site)) == apply(d, kind, site)
            applied += 1
    assert applied > len(kinds)
    with pytest.raises(MoveError):
        apply(TREFOIL, make_kind("oc"), (0, 0))


def _grown_diagrams(count, seed):
    """Small seeded links and string links (at most three components), each
    grown by two V^n, V(n), R2 or R3 moves, so that reduce and block sites
    exist."""
    rng = random.Random(seed)
    grow = ([MoveKind(fam, n, EXPAND) for fam in ("v^n", "vbar^n", "v(n)") for n in (1, 2, 3, 4)]
            + [MoveKind("vbar(n)", 3, EXPAND), MoveKind("r2", 0, EXPAND), make_kind("r3")])
    out = []
    for i in range(count):
        d = random_diagram(rng, max_crossings=2, max_mu=3, kind=("link", "stringlink")[i % 2])
        out.append(scramble(d, rng.sample(grow, 3), 2, rng.randrange(1 << 30)))
    return out


def test_finders_list_exactly_the_sites_apply_accepts():
    kinds = ([MoveKind(fam, 0, REDUCE) for fam in ("r1", "r2")]
             + [make_kind("r3"), make_kind("oc"), make_kind("uc")]
             + [MoveKind(fam, n, REDUCE) for fam in ("v^n", "vbar^n", "v(n)")
                for n in (1, 2, 3, 4)]
             + [MoveKind("vbar(n)", n, REDUCE) for n in (1, 3)])
    nonempty = dict.fromkeys(kinds, 0)
    for d in _grown_diagrams(200, 19):
        for kind in kinds:
            listed = [site.data for site in find_sites(d, kind)]
            assert listed == oracles.sites_bruteforce(d, kind), (str(d), str(kind))
            nonempty[kind] += bool(listed)
    # every kind's finder is exercised, not only on diagrams without sites
    assert min(nonempty.values()) >= 3, {str(k): v for k, v in nonempty.items()}


def _pair_walk_diagrams(count, seed):
    """Seeded links and string links of zero to four crossings on up to four
    components, so that empty, one-passage and two-passage components are
    common; every third gets a kink from an R1 expand move."""
    rng = random.Random(seed)
    r1 = MoveKind("r1", 0, EXPAND)
    out = []
    for i in range(count):
        d = random_diagram(rng, max_crossings=rng.randrange(5), max_mu=4,
                           kind=("link", "stringlink")[i % 2])
        if i % 3 == 0:
            sites = find_sites(d, r1)
            d = apply(d, r1, sites[rng.randrange(len(sites))])
        out.append(d)
    return out


def test_pair_finders_match_the_pair_walk():
    # R1 reduce, OC and UC find their sites from id lists and role strings;
    # the pair walk they replaced is the reference, on the wrap pair of a
    # link component and the single pair of a two-passage one above all
    from wld.arrows import find_arrow_sites, make_arrow_kind, to_arrows
    kinds = {"r1": MoveKind("r1", 0, REDUCE), "oc": make_kind("oc"), "uc": make_kind("uc")}
    # arrow move -> (the family whose walk it runs, the kept first role)
    arrow_moves = {("ar7", ""): ("oc", None), ("heads-exchange", ""): ("uc", None),
                   ("ar8", REDUCE): ("r1", "O"), ("ar10", REDUCE): ("r1", "U")}
    seen = dict.fromkeys(("wrap", "two-passage link", "one-passage", "empty"), 0)
    nonempty = dict.fromkeys(list(kinds) + [name for name, _ in arrow_moves], 0)
    for d in _pair_walk_diagrams(3000, 32):
        walks = {fam: oracles.pair_walk_sites(d, fam) for fam in kinds}
        for fam, kind in kinds.items():
            assert [site.data for site in find_sites(d, kind)] == walks[fam], (str(d), fam)
            assert count_sites(d, kind) == len(walks[fam]), (str(d), fam)
            nonempty[fam] += bool(walks[fam])
        p = to_arrows(d)
        for (name, direction), (fam, role) in arrow_moves.items():
            want = [site for site in walks[fam]
                    if role is None or d.components[site[0]][site[1]].role == role]
            got = find_arrow_sites(p, make_arrow_kind(name, direction=direction))
            assert [site.data for site in got] == want, (str(d), name)
            nonempty[name] += bool(want)
        lengths = [len(comp) for comp in d.components]
        link_sites = [] if d.kind == STRING_LINK else sum(walks.values(), [])
        seen["wrap"] += any(p == lengths[ci] - 1 > 1 for ci, p in link_sites)
        seen["two-passage link"] += any(lengths[ci] == 2 for ci, _ in link_sites)
        seen["one-passage"] += 1 in lengths
        seen["empty"] += 0 in lengths
    assert min(seen.values()) >= 100 and min(nonempty.values()) >= 100, (seen, nonempty)


def test_every_r3_pattern_has_one_top_and_one_bottom_pair():
    # what _match_r3 checks and _r3_sites prunes by: one over-over pair (the
    # top strand) and one under-under pair (the bottom) through one common
    # crossing; the third pair is under at the top's other crossing and over
    # at the bottom's.  A pattern names each crossing by the pairs it joins.
    patterns = oracles.r3_pattern_table()
    assert len(patterns) == 96
    for pattern in patterns:
        roles = [(a[1], b[1]) for a, b in pattern]
        assert roles.count(("O", "O")) == roles.count(("U", "U")) == 1
        top, bottom = roles.index(("O", "O")), roles.index(("U", "U"))
        (middle,) = {0, 1, 2} - {top, bottom}
        owners = [{owner for owner, _, _ in pair} for pair in pattern]
        assert owners[top] & owners[bottom] == {tuple(sorted((top, bottom)))}
        under, over = sorted(pattern[middle], key=lambda passage: passage[1] == "O")
        assert under[0] == tuple(sorted((top, middle)))
        assert over[0] == tuple(sorted((bottom, middle)))


def test_r3_accepts_exactly_the_patterns_of_the_braid_closure():
    # every arrangement of three crossings' six passages, with every choice
    # of signs, as three one-pair components of a string link
    patterns = oracles.r3_pattern_table()
    passages = [(cid, role) for cid in (1, 2, 3) for role in ("O", "U")]
    site, kind = ((0, 0), (1, 0), (2, 0)), make_kind("r3")
    seen = accepted = 0
    for order in itertools.permutations(passages):
        for signs in itertools.product((1, -1), repeat=3):
            pairs = [tuple((cid, role, signs[cid - 1]) for cid, role in order[k:k + 2])
                     for k in (0, 2, 4)]
            d = Diagram(tuple(tuple(Passage(*p) for p in pair) for pair in pairs),
                        STRING_LINK)
            expected = oracles.triple_key(pairs) in patterns
            try:
                out = apply(d, kind, site)
            except MoveError:
                assert not expected, str(d)
            else:
                assert expected, str(d)
                assert out.components == tuple(comp[::-1] for comp in d.components)
                accepted += 1
            seen += 1
    assert (seen, accepted) == (5760, 576)


def _checked_whole(r):
    """The full walk accepts a move result and builds the same diagram."""
    assert Diagram(r.components, r.kind) == r, r


def test_move_results_pass_the_full_walk_at_every_site():
    # ``apply`` builds a result by ``Diagram.moved``, which checks only what
    # the move changed; the walk over every passage must accept each one
    rng = random.Random(24)
    checked = 0
    for d in golden_diagrams():
        for kind in KINDS:
            sites = find_sites(d, kind)
            if kind.direction == EXPAND:
                sites = rng.sample(sites, min(6, len(sites)))
            for site in sites:
                _checked_whole(apply(d, kind, site))
                checked += 1
    assert checked > 1000


def test_scramble_steps_pass_the_full_walk(monkeypatch):
    # a scramble step acts on its drawn site through ``_act``, without the
    # entry check of ``_apply``; each result is recorded there
    results = []

    def recording_act(*args):
        results.append(real_act(*args))
        return results[-1]
    real_act = moves._act
    monkeypatch.setattr(moves, "_act", recording_act)
    for case in SCRAMBLE_CASES:
        scramble_digest(*case)
    assert len(results) == sum(steps for _, _, steps, _ in SCRAMBLE_CASES)
    for r in results:
        _checked_whole(r)


def test_apply_raises_when_an_action_drops_one_passage_too_many(monkeypatch):
    # an R1 reduce whose deletion takes one more passage than the kink
    d = parse("component: O1+ U1+ O2+ U3+ U2+ O3+\n")
    length, axes, finder, match, delete = moves._REDUCE["r1"]

    def delete_one_more(d, kind, positions):
        ci, p = positions[-1]
        return delete(d, kind, positions + [(ci, p + 1)])
    assert apply(d, MoveKind("r1", 0, REDUCE), (0, 0)) == parse(
        "component: O2+ U3+ U2+ O3+\n")
    monkeypatch.setitem(moves._REDUCE, "r1", (length, axes, finder, match, delete_one_more))
    with pytest.raises(DiagramError, match="crossing 2"):
        apply(d, MoveKind("r1", 0, REDUCE), (0, 0))
