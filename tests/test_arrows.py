import random

import pytest

from wld.arrows import (apply_arrow_move, build_H, build_Hbar,
                        find_arrow_sites, make_arrow_kind, parse_presentation,
                        serialize_presentation, stack, surgery, to_arrows,
                        trivial_string_link)
from wld.classify import normalize_vn, normalize_vn_uc
from wld.diagram import (LINK, STRING_LINK, Diagram, DiagramError, ParseError,
                         Passage, closure, linking_matrix, parse, random_diagram,
                         same_diagram, serialize)
from wld.invariants import alexander, builtin_group, welded_group, hom_count
from wld.moves import (EXPAND, REDUCE, MoveError, MoveKind, MoveSite,
                       find_sites, make_kind, scramble, apply as apply_move)

from support import PANEL

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
    assert p.arrow_ids() == [1, 2, 3]
    assert all(psg.sign == 1 for comp in surgery(p).components for psg in comp)


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
        to_arrows(Diagram(((Passage(0, "O", 1), Passage(0, "U", 1)),), "link"))


@pytest.mark.parametrize("line, message", [
    ("arrow: 1.1 2.1 +-", "bad arrow line"),
    ("arrow: 1.1 2.1", "bad arrow line"),
    ("arrow: 1.\u00b2 2.1 +", "bad arrow position '1.\u00b2'"),
    ("arrow: 1.1 2.1.1 -", "bad arrow position '2.1.1'"),
    pytest.param("arrow: 1.1 2." + "9" * 5000 + " -", "bad arrow position '2." + "9" * 5000,
                 id="arrow: 1.1 2.9...9 -"),
])
def test_presentation_rejects_bad_arrow_lines(line, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(f"arrows\nstringlink\ncomponent:\ncomponent:\n{line}\n")
    assert message in str(err.value) and err.value.line == 5


def test_presentation_of_a_gauss_code_is_its_surgery_diagram():
    rng = random.Random(7)
    texts = ["stringlink\ncomponent: O1+ U2+\ncomponent: U1+ O2+\n",
             "# a comment first\n\nstringlink\ncomponent: O1- U1-\n"]
    texts += [serialize(random_diagram(rng, max_crossings=6, kind=kind))
              for kind in (STRING_LINK, LINK) for _ in range(10)]
    for text in texts:
        assert parse_presentation(text) == to_arrows(parse(text))


def test_presentation_format_example():
    text = "arrows\nstringlink\ncomponent:\ncomponent:\narrow: 1.1 2.1 +\n"
    p = parse_presentation(text)
    assert p == build_H(2, 1, 2, 1)
    assert serialize_presentation(p) == text


# ---------------------------------------------------------------------------
# arrow moves

def test_ar8_deletes_isolated_arrow():
    p = to_arrows(parse("stringlink\ncomponent: O1+ U1+\n"))
    sites = find_arrow_sites(p, make_arrow_kind("ar8", direction=REDUCE))
    assert len(sites) == 1
    out = apply_arrow_move(p, make_arrow_kind("ar8", direction=REDUCE), sites[0])
    assert out == trivial_string_link(1)


def test_ar8_surgery_is_r1():
    p = to_arrows(parse("component: O1- U1-\n"))
    d = surgery(p)
    sites = find_arrow_sites(p, make_arrow_kind("ar8", direction=REDUCE))
    out = apply_arrow_move(p, make_arrow_kind("ar8", direction=REDUCE), sites[0])
    r1 = apply_move(d, make_kind("r1", direction=REDUCE), MoveSite((0, 0)))
    assert surgery(out) == r1


def test_ar10_deletes_reversed_adjacency():
    p = to_arrows(parse("component: U1+ O1+\n"))
    sites = find_arrow_sites(p, make_arrow_kind("ar10", direction=REDUCE))
    assert sites
    out = apply_arrow_move(p, make_arrow_kind("ar10", direction=REDUCE), sites[0])
    assert not out.arrow_ids()


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
        assert sites == [MoveSite(())]
        assert apply_arrow_move(p, kind, sites[0]) == p
        for site in ((5, "x"), (0,), (1, 0)):
            with pytest.raises(MoveError):
                apply_arrow_move(p, kind, MoveSite(site))


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
    out = apply_arrow_move(p, make_arrow_kind("head-tail-reversal"), MoveSite((1,)))
    assert lam_pair(out) == (0, 1)
    assert lam_pair(p) == (1, 0)


def test_head_tail_reversal_applies_exactly_at_arrow_ids():
    p = build_H(2, 1, 2, 2)
    kind = make_arrow_kind("head-tail-reversal")
    assert find_arrow_sites(p, kind) == [MoveSite((1,)), MoveSite((2,))]
    assert apply_arrow_move(p, kind, (2,)) == apply_arrow_move(p, kind, MoveSite((2,)))
    for site in ((), (1, 2), (3,), (0,), ("1",)):
        with pytest.raises(MoveError):
            apply_arrow_move(p, kind, MoveSite(site))


def test_a_n_odd_block_delta():
    base = trivial_string_link(2)
    kind = make_arrow_kind("a(n)", 3, EXPAND)
    site = MoveSite((0, 0, 1, 0, 1, 1))
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
    site = MoveSite((0, 0, 1, 0, 1))
    out = apply_arrow_move(base, kind, site)
    assert lam_pair(out) == (2, 0)


def test_abar_n_reversed_heads():
    base = trivial_string_link(2)
    kind = make_arrow_kind("abar^n", 2, EXPAND)
    out = apply_arrow_move(base, kind, MoveSite((0, 0, 1, 0, 1)))
    heads = [psg.crossing for psg in surgery(out).components[1] if psg.role == "U"]
    tails = [psg.crossing for psg in surgery(out).components[0] if psg.role == "O"]
    assert heads == list(reversed(tails))
    assert lam_pair(out) == (2, 0)


def test_a_n_even_splices_like_v_n_even():
    p = to_arrows(parse("component: O1+ U2+\ncomponent: U1+ O2+\n"))
    kind = make_arrow_kind("a(n)", 2, EXPAND)
    site = MoveSite((0, 0, 1, 0, 1, 1))
    out = apply_arrow_move(p, kind, site)
    assert out.mu == 1
    d = surgery(p)
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
    panel_groups = [builtin_group(name) for name in PANEL[:3]]
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
    out = apply_arrow_move(base, kind, MoveSite((0, 0, 1, 0, 1, 1)))
    li, lj = lam_pair(out)
    assert li + lj == 3
    ids2 = [psg.crossing for psg in surgery(out).components[1]]
    ids1 = [psg.crossing for psg in surgery(out).components[0]]
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
    out = [to_arrows(parse(header + "component: O1+ O2+\ncomponent: U1+ O3- U3- U2+\n"))
           for header in ("stringlink\n", "")]
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
                 for q in range(len(surgery(p).components[ci]) + 1)]
    if name in ("ar8", "ar10"):
        return [MoveSite(pos) for pos in positions]
    pairs = [a + b for a in positions for b in positions]
    if name == "ar9":
        return [MoveSite(pair + (parallel,)) for pair in pairs
                for parallel in (True, False)]
    return [MoveSite(pair) for pair in pairs]


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


@pytest.mark.parametrize("name,role", [("ar8", "O"), ("ar10", "U")])
def test_arrow_kink_expand_applies_exactly_at_its_r1_sites(name, role):
    # AR8 and AR10 insert the R1 kinks whose first passage is a tail (O) or
    # a head (U); an expand site names that role
    kind = make_arrow_kind(name, direction=EXPAND)
    for p in _contract_presentations():
        r1_sites = find_sites(surgery(p), MoveKind("r1", 0, EXPAND))
        assert find_arrow_sites(p, kind) == [s for s in r1_sites if s[2] == role]
        for site in r1_sites:
            if site[2] == role:
                out = apply_arrow_move(p, kind, site)
                assert len(out.arrow_ids()) == len(p.arrow_ids()) + 1
            else:
                with pytest.raises(MoveError):
                    apply_arrow_move(p, kind, site)


# ---------------------------------------------------------------------------
# contract: an exchange applies exactly at the sites find_arrow_sites lists,
# and swaps that adjacent pair

EXCHANGES = ("head-tail-exchange", "ends-exchange")


def _exchange_presentations():
    """The reduce-contract presentations, random links and string links with
    up to three components, and stacks of H/Hbar blocks."""
    rng = random.Random(47)
    out = _contract_presentations()
    for k in range(24):
        kind = "link" if k % 2 else "stringlink"
        out.append(to_arrows(random_diagram(rng, max_crossings=6, max_mu=3, kind=kind)))
    out += [stack(build_H(3, 1, 2, 2), build_Hbar(3, 1, 3, -2)),
            stack(build_Hbar(2, 1, 2, 3), build_H(2, 1, 2, -1))]
    return out


@pytest.mark.parametrize("name", EXCHANGES)
def test_arrow_exchange_applies_exactly_at_listed_sites(name):
    kind = make_arrow_kind(name)
    listed_total = 0
    for p in _exchange_presentations():
        comps = surgery(p).components
        listed = set(find_arrow_sites(p, kind))
        listed_total += len(listed)
        grid = [MoveSite((ci, q)) for ci in range(-1, p.mu + 1)
                for q in range(-1, len(comps[ci % p.mu]) + 1)]
        assert listed <= set(grid)
        grid += [MoveSite(()), MoveSite((0,)), MoveSite((0, 0, 0))]
        for site in grid:
            if site not in listed:
                with pytest.raises(MoveError):
                    apply_arrow_move(p, kind, site)
                continue
            ci, q = site
            r = (q + 1) % len(comps[ci])
            a, b = comps[ci][q], comps[ci][r]
            assert a.crossing != b.crossing
            assert name == "ends-exchange" or a.role != b.role
            swapped = [list(c) for c in comps]
            swapped[ci][q], swapped[ci][r] = b, a
            out = surgery(apply_arrow_move(p, kind, site))
            assert out.components == tuple(map(tuple, swapped)) and out.kind == p.kind
    assert listed_total > 0


@pytest.mark.parametrize("name", EXCHANGES + ("head-tail-reversal",))
def test_arrow_exchange_rejects_bool_site_entries(name):
    # (True, 0) equals the listed (1, 0), and (True,) the listed (1,), but a
    # bool is neither a position nor an arrow id
    p = to_arrows(parse("component:\ncomponent: O1+ U2+ U1+ O2+\n"))
    kind = make_arrow_kind(name)
    listed = (1,) if name == "head-tail-reversal" else (1, 0)
    assert MoveSite(listed) in find_arrow_sites(p, kind)
    with pytest.raises(MoveError):
        apply_arrow_move(p, kind, MoveSite((True,) + listed[1:]))


@pytest.mark.parametrize("name", ["ar1", "ar7", "ar8", "a^n", "head-tail-exchange"])
def test_make_arrow_kind_rejects_a_bad_direction(name):
    # as make_kind does, at once, not first at find_arrow_sites
    with pytest.raises(MoveError, match="bad direction 'sideways'"):
        make_arrow_kind(name, 3, direction="sideways")
    for direction in (None, "", EXPAND, REDUCE):
        assert make_arrow_kind(name, 3, direction=direction).direction == (direction or "")
