import random

import pytest

from wld.diagram import (linking_matrix, parse, random_diagram,
                         same_diagram)
from wld.moves import (EXPAND, REDUCE, MoveError, MoveSite, apply,
                       find_sites, make_kind, parse_kinds, replay, scramble,
                       search_path)

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
    from wld.invariants import alexander, hom_count, panel, welded_group
    s = scramble(TREFOIL, [make_kind("r1"), make_kind("r2"), make_kind("r3"),
                           make_kind("oc")], 50, 7)
    assert linking_matrix(s) == linking_matrix(TREFOIL)
    assert alexander(s, 1)[1] == alexander(TREFOIL, 1)[1]
    for g in panel():
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
