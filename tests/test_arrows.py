import random

import pytest

from wld.arrows import (ArrowSite, WArrowPresentation,
                        apply_arrow_move, build_H, build_Hbar,
                        find_arrow_sites, make_arrow_kind, normalize_vn,
                        normalize_vn_uc, parse_presentation,
                        serialize_presentation, stack, surgery, to_arrows,
                        trivial_string_link)
from wld.diagram import (DiagramError, closure, linking_matrix, parse,
                         random_diagram, same_diagram)
from wld.invariants import alexander, panel, welded_group, hom_count
from wld.moves import (EXPAND, REDUCE, MoveError, MoveKind, MoveSite,
                       find_sites, make_kind, scramble, apply as apply_move)

HOPF_SL = parse("stringlink\ncomponent: O1+ U2+\ncomponent: U1+ O2+\n")


def lam_pair(p, i=0, j=1):
    lam = linking_matrix(closure(surgery(p)))
    return lam[i][j], lam[j][i]


def test_surgery_of_empty_presentation():
    base = trivial_string_link(2)
    d = surgery(base)
    assert d.crossing_count == 0 and d.mu == 2 and d.kind == "stringlink"


def test_surgery_to_arrows_round_trip():
    rng = random.Random(40)
    for _ in range(200):
        d = random_diagram(rng, kind=rng.choice(("link", "stringlink")))
        assert surgery(to_arrows(d)) == d


def test_to_arrows_surgery_round_trip():
    rng = random.Random(41)
    for _ in range(100):
        d = random_diagram(rng)
        p = to_arrows(d)
        assert to_arrows(surgery(p)) == p


def test_to_arrows_counts_and_signs():
    tre = parse("component: O1+ U2+ O3+ U1+ O2+ U3+\n")
    p = to_arrows(tre)
    assert len(p.arrows) == 3
    assert all(a.sign == 1 for a in p.arrows)


def test_build_H_calibration():
    for a in range(-3, 4):
        assert lam_pair(build_H(2, 1, 2, a)) == (a, 0)


def test_build_Hbar_calibration():
    for b in range(-3, 4):
        assert lam_pair(build_Hbar(2, 1, 2, b)) == (0, b)


def test_build_H_zero_is_trivial():
    assert build_H(3, 1, 2, 0) == trivial_string_link(3)


def test_build_H_index_validation():
    with pytest.raises(DiagramError):
        build_H(2, 2, 1, 1)
    with pytest.raises(DiagramError):
        build_H(2, 1, 3, 1)


def test_stacking_adds_linking():
    p = stack(build_H(2, 1, 2, 2), build_Hbar(2, 1, 2, -1))
    assert lam_pair(p) == (2, -1)
    with pytest.raises(DiagramError):
        stack(build_H(2, 1, 2, 1), build_H(3, 1, 2, 1))


def test_presentation_text_round_trip():
    p = stack(build_H(2, 1, 2, 2), build_Hbar(2, 1, 2, -3))
    text = serialize_presentation(p)
    assert parse_presentation(text) == p


def test_presentation_parse_rejects_crossing_base():
    bad = "arrows\ncomponent: O1+ U1+\n"
    with pytest.raises(DiagramError):
        parse_presentation(bad)


def test_presentation_rejects_non_positive_arrow_ids():
    # arrow ids become crossing ids under surgery, which must be positive
    with pytest.raises(DiagramError):
        WArrowPresentation((((0, "T"), (0, "H")),), ((0, 1),), "link")


def test_presentation_format_example():
    text = "arrows\nstringlink\ncomponent:\ncomponent:\narrow: 1.1 2.1 +\n"
    p = parse_presentation(text)
    assert p == build_H(2, 1, 2, 1)
    assert serialize_presentation(p) == text


# ---------------------------------------------------------------------------
# arrow moves

def test_ar8_deletes_isolated_arrow():
    p = WArrowPresentation((((1, "T"), (1, "H")),), ((1, 1),), "stringlink")
    sites = find_arrow_sites(p, make_arrow_kind("ar8", direction=REDUCE))
    assert len(sites) == 1
    out = apply_arrow_move(p, make_arrow_kind("ar8", direction=REDUCE), sites[0])
    assert out == trivial_string_link(1)


def test_ar8_surgery_is_r1():
    p = WArrowPresentation((((1, "T"), (1, "H")),), ((1, -1),), "link")
    d = surgery(p)
    sites = find_arrow_sites(p, make_arrow_kind("ar8", direction=REDUCE))
    out = apply_arrow_move(p, make_arrow_kind("ar8", direction=REDUCE), sites[0])
    r1 = apply_move(d, make_kind("r1", direction=REDUCE), MoveSite((0, 0)))
    assert surgery(out) == r1


def test_ar10_deletes_reversed_adjacency():
    p = WArrowPresentation((((1, "H"), (1, "T")),), ((1, 1),), "link")
    sites = find_arrow_sites(p, make_arrow_kind("ar10", direction=REDUCE))
    assert sites
    out = apply_arrow_move(p, make_arrow_kind("ar10", direction=REDUCE), sites[0])
    assert not out.arrows


def test_ar7_is_oc_under_surgery():
    p = to_arrows(parse("component: O1+ O2- U1+ U2-\n"))
    sites = find_arrow_sites(p, make_arrow_kind("ar7"))
    assert sites
    out = apply_arrow_move(p, make_arrow_kind("ar7"), sites[0])
    d = surgery(p)
    oc_sites = find_sites(d, make_kind("oc"))
    assert surgery(out) == apply_move(d, make_kind("oc"), oc_sites[0])


def test_heads_exchange_is_uc_under_surgery():
    p = to_arrows(parse("component: O1+ O2- U1+ U2-\n"))
    sites = find_arrow_sites(p, make_arrow_kind("heads-exchange"))
    assert sites
    out = apply_arrow_move(p, make_arrow_kind("heads-exchange"), sites[0])
    d = surgery(p)
    uc_sites = find_sites(d, make_kind("uc"))
    assert surgery(out) == apply_move(d, make_kind("uc"), uc_sites[0])


def test_noop_catalog_moves():
    p = build_H(2, 1, 2, 2)
    for name in ("ar1", "ar2", "ar3", "ar4", "ar5", "ar6", "ar11", "ar12"):
        kind = make_arrow_kind(name)
        sites = find_arrow_sites(p, kind)
        assert sites == [ArrowSite(())]
        assert apply_arrow_move(p, kind, sites[0]) == p


def test_ar9_cancels_opposite_pair():
    p = stack(build_H(2, 1, 2, 1), build_H(2, 1, 2, -1))
    sites = find_arrow_sites(p, make_arrow_kind("ar9", direction=REDUCE))
    assert sites
    out = apply_arrow_move(p, make_arrow_kind("ar9", direction=REDUCE), sites[0])
    assert out == trivial_string_link(2)


def test_ar9_preserves_welded_invariants():
    p = stack(build_H(2, 1, 2, 1), build_H(2, 1, 2, -1))
    sites = find_arrow_sites(p, make_arrow_kind("ar9", direction=REDUCE))
    out = apply_arrow_move(p, make_arrow_kind("ar9", direction=REDUCE), sites[0])
    before, after = closure(surgery(p)), closure(surgery(out))
    assert linking_matrix(before) == linking_matrix(after)
    assert alexander(before, 1)[1] == alexander(after, 1)[1]


def test_head_tail_reversal_keeps_sign_moves_linking():
    p = build_H(2, 1, 2, 1)
    out = apply_arrow_move(p, make_arrow_kind("head-tail-reversal"), ArrowSite((1,)))
    assert lam_pair(out) == (0, 1)
    assert lam_pair(p) == (1, 0)


def test_a_n_odd_block_delta():
    base = trivial_string_link(2)
    kind = make_arrow_kind("a(n)", 3, EXPAND)
    site = ArrowSite((0, 0, 1, 0, 1, 1))
    out = apply_arrow_move(base, kind, site)
    li, lj = lam_pair(out)
    assert li + lj == 3
    back = find_arrow_sites(out, make_arrow_kind("a(n)", 3, REDUCE))
    assert any(apply_arrow_move(out, make_arrow_kind("a(n)", 3, REDUCE), s) == base
               for s in back)


def test_a_n_reduce_drops_lambda_sum_by_n():
    # spec example: removing n parallel same-sign arrows at one site
    p = build_H(2, 1, 2, 3)
    sites = find_arrow_sites(p, make_arrow_kind("a^n", 3, REDUCE))
    assert sites
    out = apply_arrow_move(p, make_arrow_kind("a^n", 3, REDUCE), sites[0])
    assert lam_pair(out) == (0, 0)


def test_a_hat_n_matches_v_hat_n_surgery():
    base = trivial_string_link(2)
    kind = make_arrow_kind("a^n", 2, EXPAND)
    site = ArrowSite((0, 0, 1, 0, 1))
    out = apply_arrow_move(base, kind, site)
    assert lam_pair(out) == (2, 0)


def test_abar_n_reversed_heads():
    base = trivial_string_link(2)
    kind = make_arrow_kind("abar^n", 2, EXPAND)
    out = apply_arrow_move(base, kind, ArrowSite((0, 0, 1, 0, 1)))
    heads = [aid for aid, role in out.strands[1] if role == "H"]
    tails = [aid for aid, role in out.strands[0] if role == "T"]
    assert heads == list(reversed(tails))
    assert lam_pair(out) == (2, 0)


def test_a_n_even_splices_like_v_n_even():
    p = to_arrows(parse("component: O1+ U2+\ncomponent: U1+ O2+\n"))
    kind = make_arrow_kind("a(n)", 2, EXPAND)
    site = ArrowSite((0, 0, 1, 0, 1, 1))
    out = apply_arrow_move(p, kind, site)
    assert out.mu == 1
    d = surgery(p)
    from wld.moves import MoveSite
    d2 = apply_move(d, make_kind("v(n)", 2, EXPAND), MoveSite((0, 0, 1, 0, 1, 1)))
    assert same_diagram(surgery(out), d2)


def test_arrow_moves_preserve_normal_form_parameters():
    rng = random.Random(42)
    p = stack(build_H(3, 1, 2, 4), build_H(3, 1, 3, 2))
    n = 3
    base_nf = normalize_vn(p, n)
    moves = [make_arrow_kind("ar7"), make_arrow_kind("head-tail-exchange"),
             make_arrow_kind("ends-exchange"),
             make_arrow_kind("a(n)", n, EXPAND), make_arrow_kind("a(n)", n, REDUCE)]
    cur = p
    for _ in range(30):
        kind = moves[rng.randrange(len(moves))]
        sites = find_arrow_sites(cur, kind)
        if not sites:
            continue
        cur = apply_arrow_move(cur, kind, sites[rng.randrange(len(sites))])
        assert normalize_vn(cur, n) == base_nf


def test_normalize_vn_examples():
    assert normalize_vn(to_arrows(HOPF_SL), 3) == {(1, 2): 2}
    assert normalize_vn(trivial_string_link(3), 5) == {(1, 2): 0, (1, 3): 0, (2, 3): 0}
    assert normalize_vn(build_H(2, 1, 2, 4), 3) == {(1, 2): 1}


def test_normalize_vn_rejects_even_n_and_links():
    with pytest.raises(DiagramError):
        normalize_vn(build_H(2, 1, 2, 1), 2)
    with pytest.raises(DiagramError):
        normalize_vn(to_arrows(parse("component:\n")), 3)


def test_normalize_vn_uc_examples():
    st = stack(build_H(2, 1, 2, 3), build_Hbar(2, 1, 2, 5))
    assert normalize_vn_uc(st, 2) == ({(1, 2): 1}, {(1, 2): 1})
    a, b = normalize_vn_uc(trivial_string_link(2), 4)
    assert a == {(1, 2): 0} and b == {(1, 2): 0}
    a, b = normalize_vn_uc(st, 1)
    assert a == {(1, 2): 0} and b == {(1, 2): 0}


def test_normalize_matches_scrambled_string_link():
    rng = random.Random(43)
    for _ in range(20):
        d = random_diagram(rng, max_crossings=6, max_mu=3, kind="stringlink")
        p = to_arrows(d)
        for n in (3, 5):
            nf = normalize_vn(p, n)
            lam = linking_matrix(closure(d))
            for (i, j), value in nf.items():
                assert value == (lam[i - 1][j - 1] + lam[j - 1][i - 1]) % n


def test_unknown_arrow_move_rejected():
    with pytest.raises(MoveError):
        make_arrow_kind("ar99")
    with pytest.raises(MoveError):
        make_arrow_kind("abar(n)", 2)


def test_ar_catalog_preserves_welded_invariants_of_surgery():
    rng = random.Random(44)
    kinds = [make_arrow_kind("ar1"), make_arrow_kind("ar2"),
             make_arrow_kind("ar3"), make_arrow_kind("ar4"),
             make_arrow_kind("ar5"), make_arrow_kind("ar6"),
             make_arrow_kind("ar7"),
             make_arrow_kind("ar8", direction=REDUCE),
             make_arrow_kind("ar8", direction=EXPAND),
             make_arrow_kind("ar9", direction=REDUCE),
             make_arrow_kind("ar9", direction=EXPAND),
             make_arrow_kind("ar10", direction=REDUCE),
             make_arrow_kind("ar10", direction=EXPAND)]
    panel_groups = panel()[:3]
    for _ in range(12):
        d = random_diagram(rng, max_crossings=4, max_mu=2)
        p = to_arrows(d)
        before = surgery(p)
        lam = linking_matrix(before)
        delta = alexander(before, 1)[1]
        homs = [hom_count(welded_group(before), g) for g in panel_groups]
        for kind in kinds:
            sites = find_arrow_sites(p, kind)
            if not sites:
                continue
            out = apply_arrow_move(p, kind, sites[rng.randrange(len(sites))])
            image = surgery(out)
            assert linking_matrix(image) == lam, kind
            assert alexander(image, 1)[1] == delta, kind
            assert [hom_count(welded_group(image), g) for g in panel_groups] \
                == homs, kind


def test_abar_n_odd_twist_block():
    base = trivial_string_link(2)
    kind = make_arrow_kind("abar(n)", 3, EXPAND)
    out = apply_arrow_move(base, kind, ArrowSite((0, 0, 1, 0, 1, 1)))
    li, lj = lam_pair(out)
    assert li + lj == 3
    ids2 = [aid for aid, _ in out.strands[1]]
    ids1 = [aid for aid, _ in out.strands[0]]
    assert ids2 == list(reversed(ids1))
    back = find_arrow_sites(out, make_arrow_kind("abar(n)", 3, REDUCE))
    assert any(apply_arrow_move(out, make_arrow_kind("abar(n)", 3, REDUCE), s) == base
               for s in back)


def test_surgery_h12_1_structure():
    d = surgery(build_H(2, 1, 2, 1))
    assert d.kind == "stringlink" and d.crossing_count == 1
    assert [p.role for p in d.components[0]] == ["O"]
    assert [p.role for p in d.components[1]] == ["U"]
    assert d.components[0][0].sign == 1


def test_h12_2_closure_unlinks_in_one_v2():
    from wld.moves import search_path, make_kind, replay
    from wld.diagram import Diagram
    d = closure(surgery(build_H(2, 1, 2, 2)))
    unlink = Diagram(((), ()), "link")
    path = search_path(d, unlink, [make_kind("v^n", 2)], 2, 1)
    assert path is not None and len(path) == 1
    assert path[0][0].direction == "reduce"
    assert same_diagram(replay(d, path), unlink)


# ---------------------------------------------------------------------------
# contract: a reduce move applies exactly at the sites find_arrow_sites lists

REDUCE_CONTRACT_KINDS = (
    [("ar8", None), ("ar10", None), ("ar9", None)]
    + [(name, n) for name in ("a^n", "abar^n", "a(n)") for n in (1, 2, 3, 4)]
    + [("abar(n)", 1), ("abar(n)", 3)])


def _contract_presentations():
    """Small seeded presentations with planted reduce sites, plus tails 1,2
    adjacent on strand 1 whose heads are separated on strand 2."""
    out = [WArrowPresentation(
        (((1, "T"), (2, "T")), ((1, "H"), (3, "T"), (3, "H"), (2, "H"))),
        ((1, 1), (2, 1), (3, -1)), kind)
        for kind in ("stringlink", "link")]
    plants = ([("r1", 0), ("r2", 0), ("vbar(n)", 1), ("vbar(n)", 3)]
              + [(family, n) for family in ("v^n", "vbar^n", "v(n)")
                 for n in (1, 2, 3, 4)])
    rng = random.Random(46)
    for k, (family, n) in enumerate(plants):
        # even v(n) splices strands, so it is planted on links only
        kind = "link" if k % 2 or (family == "v(n)" and n % 2 == 0) else "stringlink"
        d = random_diagram(rng, max_crossings=2, max_mu=2, kind=kind)
        grown = scramble(d, [MoveKind(family, n, EXPAND)], 1, rng.randrange(1 << 20))
        out.append(to_arrows(grown))
    return out


def _reduce_site_grid(p, name):
    """Every reduce site tuple of the kind's shape, one position past each
    strand end included."""
    positions = [(ci, q) for ci in range(p.mu)
                 for q in range(len(p.strands[ci]) + 1)]
    if name in ("ar8", "ar10"):
        return [ArrowSite(pos) for pos in positions]
    pairs = [a + b for a in positions for b in positions]
    if name == "ar9":
        return [ArrowSite(pair + (parallel,)) for pair in pairs
                for parallel in (True, False)]
    return [ArrowSite(pair) for pair in pairs]


@pytest.mark.parametrize("name,n", REDUCE_CONTRACT_KINDS,
                         ids=[f"{name}-{n}" for name, n in REDUCE_CONTRACT_KINDS])
def test_arrow_reduce_applies_exactly_at_listed_sites(name, n):
    kind = make_arrow_kind(name, n, REDUCE)
    listed_total = 0
    for p in _contract_presentations():
        listed = set(find_arrow_sites(p, kind))
        listed_total += len(listed)
        for site in _reduce_site_grid(p, name):
            if site in listed:
                out = apply_arrow_move(p, kind, site)
                assert len(out.arrow_ids()) < len(p.arrow_ids())
            else:
                with pytest.raises(MoveError):
                    apply_arrow_move(p, kind, site)
    assert listed_total > 0
