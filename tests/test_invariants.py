import math
import random

import pytest

from wld.algebra import (LAURENT, AlgebraError, Laurent, cyclic_ring, f_n, fold,
                         ideal_mod, laurent_minors, parse_poly, poly_gcd)
from wld.classify import named
from wld.diagram import (LINK, STRING_LINK, Diagram, crossing_arcs,
                         linking_matrix, parse, random_diagram)
from wld.invariants import (GroupPresentation, GroupTableError,
                            _alexander_rows, _pivot_reduce, abelianization,
                            alexander, alexander_polynomials,
                            builtin_group, coloring_count, core_group,
                            elementary_ideals, hom_count, parse_group_csv,
                            simplify_presentation, welded_group)
from wld.moves import EXPAND, MoveSite, apply, make_kind, scramble

import oracles
from support import PANEL, scrambled_link, time_limit

TREFOIL = parse("component: O1+ U2+ O3+ U1+ O2+ U3+\n")
HOPF = parse("component: O1+ U2+\ncomponent: U1+ O2+\n")
UNKNOT = parse("component:\n")


def test_linking_hopf_and_unlink():
    lam = linking_matrix(HOPF)
    assert lam[0][1] == 1 and lam[1][0] == 1
    unlink = Diagram(((), (), ()), "link")
    assert linking_matrix(unlink) == [[0, 0, 0]] * 3


def test_welded_group_unknot_is_free_of_rank_one():
    pres = welded_group(UNKNOT)
    assert pres.ngens == 1 and pres.relators == ()


def test_welded_group_trefoil_shape():
    pres = welded_group(TREFOIL)
    assert pres.ngens == 3 and len(pres.relators) == 3
    assert abelianization(pres) == (1, ())


def test_welded_abelianization_is_z_mu():
    # each relator abelianizes to x - z, joining the arcs of each component;
    # `wld invariants` prints (mu, ()) without computing it
    rng = random.Random(20)
    for _ in range(300):
        kind = rng.choice((LINK, STRING_LINK))
        d = random_diagram(rng, max_crossings=8, max_mu=3, kind=kind)
        assert abelianization(welded_group(d)) == (d.mu, ())


def test_core_group_orientation_independent():
    # reversing every component leaves the core presentation's counts intact
    rng = random.Random(21)
    for _ in range(40):
        d = random_diagram(rng, max_crossings=6, max_mu=2)
        reversed_d = Diagram(tuple(tuple(reversed(c)) for c in d.components), d.kind)
        for n in range(2, 6):
            assert coloring_count(d, n) == coloring_count(reversed_d, n)


def test_core_group_sign_independent():
    flipped = Diagram(
        tuple(tuple(type(p)(p.crossing, p.role, -p.sign) for p in c)
              for c in TREFOIL.components), "link")
    assert core_group(flipped) == core_group(TREFOIL)


def test_core_abelianization_trefoil():
    assert abelianization(core_group(TREFOIL)) == (1, (3,))


def test_core_abelianization_unknot():
    assert abelianization(core_group(UNKNOT)) == (1, ())


def test_core_relation_matrix_smith_form():
    pres = core_group(TREFOIL)
    rows = []
    for rel in pres.relators:
        row = [0] * pres.ngens
        for g, e in rel:
            row[g] += e
        rows.append(row)
    assert oracles.snf_by_minors(rows) == [1, 3]


# ---------------------------------------------------------------------------
# Alexander side

def test_trefoil_alexander():
    gens, delta = alexander(TREFOIL, 1)
    assert delta == parse_poly("1 - t + t^2")
    assert alexander(TREFOIL, 0)[1] == Laurent()
    assert alexander(TREFOIL, 2)[1] == Laurent({0: 1})


def test_unknot_alexander():
    assert alexander(UNKNOT, 1)[1] == Laurent({0: 1})
    assert alexander(UNKNOT, 0)[1] == Laurent()


def test_figure8_alexander():
    f8 = parse("component: O1+ U2- O4- U1+ O3+ U4- O2- U3+\n")
    assert alexander(f8, 1)[1] == parse_poly("1 - 3t + t^2")


def test_negative_k_is_an_algebra_error():
    for n in (None, 3):
        with pytest.raises(AlgebraError):
            elementary_ideals(TREFOIL, -1, n)
    with pytest.raises(AlgebraError):
        alexander(TREFOIL, -1)
    with pytest.raises(AlgebraError):
        alexander_polynomials(TREFOIL, -2)
    assert len(elementary_ideals(TREFOIL, 0)) == 1


def test_elementary_ideals_match_bruteforce_minors():
    rng = random.Random(22)
    for _ in range(25):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        mine = elementary_ideals(d, 2)
        for k in range(3):
            brute = oracles.elementary_ideal_bruteforce(d, k)
            assert poly_gcd(mine[k]) == poly_gcd(brute)
            for n in (2, 3):
                assert ideal_mod(mine[k], n) == ideal_mod(brute, n)
    for _ in range(6):
        d = random_diagram(rng, max_crossings=6, max_mu=2)
        mine = elementary_ideals(d, 3)
        for k in range(4):
            brute = oracles.elementary_ideal_bruteforce(d, k)
            assert poly_gcd(mine[k]) == poly_gcd(brute)
            for n in (2, 3, 4):
                assert ideal_mod(mine[k], n) == ideal_mod(brute, n)


def _ideals_of_rows(rows, g, pivots, n, kmax=3):
    """E^0..E^kmax of a matrix given as rows after ``pivots`` unit pivots,
    finished as ``elementary_ideals`` finishes the rows of
    ``_alexander_rows``."""
    ring = LAURENT if n is None else cyclic_ring(n)
    reduced, more = _pivot_reduce([dict(row) for row in rows], ring)
    sizes = [max(g - k - pivots - more, 0) for k in range(kmax + 1)]
    by_size = {}
    for (rset, _cols), minor in laurent_minors(reduced, sizes, ring).items():
        by_size.setdefault(len(rset), []).append(minor)
    return [by_size.get(s, []) for s in sizes]


def _assert_same_ideals(mine, theirs, n):
    # over Z[t^+-1]: the gcds, and the images in R_2, R_3 and R_7
    for a, b in zip(mine, theirs, strict=True):
        if n is None:
            assert poly_gcd(a) == poly_gcd(b)
            for m in (2, 3, 7):
                assert ideal_mod(a, m) == ideal_mod(b, m)
        else:
            assert ideal_mod(a, n) == ideal_mod(b, n)


def _assert_rows_collapse_reference(d, n, brute=None):
    # the collapse keeps the arc count and E^0..E^3 of the under-run rows,
    # returns no more rows than they hold, and leaves no rename undone: no
    # row is a unit times x - z; ``brute`` holds E^0..E^3 by raw minors
    rows, g, _pivots = _alexander_rows(d, n)
    ref_rows, ref_g, ref_pivots = oracles.alexander_rows_reference(d, n)
    assert g == ref_g
    assert len(rows) <= len(ref_rows)
    is_unit = (LAURENT if n is None else cyclic_ring(n)).is_unit
    for row in rows:
        entries = list(row.values())
        assert all(entries)
        assert not (len(entries) == 2 and is_unit(entries[0])
                    and not entries[0] + entries[1]), row
    mine = elementary_ideals(d, 3, n)
    _assert_same_ideals(mine, _ideals_of_rows(ref_rows, ref_g, ref_pivots, n), n)
    if brute is not None:
        _assert_same_ideals(mine, brute, n)


def _bruteforce_ideals(d):
    return [oracles.elementary_ideal_bruteforce(d, k) for k in range(4)]


def test_alexander_rows_are_fox_rows_times_a_unit():
    # the collapsed rows against the under-run rows (the Fox rows with the
    # inner arcs of every under-run substituted away) and, up to 6
    # crossings, against the raw minors
    rng = random.Random(25)
    diagrams = [random_diagram(rng, max_crossings=8, max_mu=3, kind=kind)
                for kind in (LINK, STRING_LINK) for _ in range(40)]
    r1 = [make_kind("r1", direction=EXPAND)]
    diagrams += [scramble(d, r1, 3, rng.randrange(10 ** 6)) for d in diagrams[::4]]
    blocks = [make_kind("v^n", 3, EXPAND), make_kind("r2", direction=EXPAND)]
    diagrams += [scramble(d, blocks, 3, rng.randrange(10 ** 6)) for d in diagrams[::8]]
    diagrams += [parse("component: U2+ O1- O2+ U1-\n"),
                 parse("component: O1+ O2- O3+\ncomponent: U1+ U2- U3+\n"),
                 parse("component: O1+ O2+\ncomponent: U1+ U2+\n")]
    shapes = set()
    for d in diagrams:
        crossings = crossing_arcs(d)[0]
        shapes.update((x == z, y == x, y == z) for y, x, z, _ in crossings.values())
        for run, _inner in oracles.under_runs_reference(d):
            signs = [crossings[cid][3] for cid in run]
            if len(run) > 1:
                around = crossings[run[-1]][2] == crossings[run[0]][1]
                shapes.add(("sigma = 0" if sum(signs) == 0 else "sigma != 0",
                            "around a component" if around else ""))
            if len(run) == 3 and len(set(signs)) == 1:
                shapes.add("V^3 block")
            if len(run) == 2 and sum(signs) == 0:
                shapes.add("R2 pair")
        brute = _bruteforce_ideals(d) if d.crossing_count <= 6 else None
        for n in (None, 1, 2, 3, 4):
            _assert_rows_collapse_reference(d, n, brute)
    # kinks: x = z (a one-arc component passing under), y = x, y = z, all equal
    assert {(True, False, False), (False, True, False), (False, False, True),
            (True, True, True)} <= shapes
    assert {"V^3 block", "R2 pair", ("sigma = 0", ""), ("sigma != 0", ""),
            ("sigma = 0", "around a component"),
            ("sigma != 0", "around a component")} <= shapes


def test_crossing_arcs_and_alexander_rows_match_run_reference():
    rng = random.Random(41)
    diagrams = [random_diagram(rng, max_crossings=rng.randint(0, 9), max_mu=4, kind=kind)
                for kind in (LINK, STRING_LINK) for _ in range(160)]
    diagrams += [parse("component:\n"), parse("component: O1+\ncomponent: U1+\n"),
                 Diagram(((), ()), STRING_LINK), named("h-closure:3,1,2,2")]
    seen = set()
    for d in diagrams:
        ref_arcs, _, _ = oracles.arc_data_reference(d)
        assert crossing_arcs(d) == (oracles.crossing_arcs_reference(d),
                                    tuple(c for c, _ in ref_arcs))
        brute = _bruteforce_ideals(d) if d.crossing_count <= 6 else None
        for n in (None, 2, 3, 5, 7):
            _assert_rows_collapse_reference(d, n, brute)
        for comp in d.components:
            unders = sum(psg.role == "U" for psg in comp)
            seen.add("empty component" if not comp else
                     "no under-passage" if not unders else None)
        if d.kind == STRING_LINK:
            seen.update("passage-free trailing arc" if not comp or comp[-1].role == "U"
                        else "trailing arc with passages" for comp in d.components)
    assert {"empty component", "no under-passage", "passage-free trailing arc",
            "trailing arc with passages"} <= seen


def test_sigma_zero_run_with_coinciding_arcs_cancels():
    # the two crossings pass under arc 1 with signs -1 and +1, and the run
    # around the component starts and ends on arc 1, so x = z = y: its row
    # (t^0 - 1) x + (1 - t^0) y is zero and is left out
    d = parse("component: U2+ O1- O2+ U1-\n")
    assert _alexander_rows(d) == ([], 2, 1)
    brute = [oracles.elementary_ideal_bruteforce(d, k) for k in range(3)]
    mine = elementary_ideals(d, 2)
    assert [poly_gcd(gens) for gens in mine] == [poly_gcd(gens) for gens in brute]
    for n in (1, 2, 3, 5):
        mine = elementary_ideals(d, 2, n)
        assert [ideal_mod(gens, n) for gens in mine] == [ideal_mod(gens, n) for gens in brute]
    # V^3 blocks collapse to no row: the trefoil's rows are all that is left
    d = scramble(TREFOIL, [make_kind("v^n", 3, EXPAND)], 4, 7)
    assert len(_alexander_rows(d, 3)[0]) == len(_alexander_rows(TREFOIL, 3)[0])


def test_runs_compose_once_their_over_arcs_merge():
    # crossing 3 passes under its own under-in arc 0, so its rename merges
    # arc 1 into arc 0; crossings 2 (under arc 0) and 1 (under arc 1) then
    # pass under one class across arc 3, which no crossing passes over, and
    # compose into one run: one row is left, not two
    d = parse("stringlink\ncomponent: O3+ O2- U3+ O1-\ncomponent: U2- U1-\n")
    assert crossing_arcs(d)[0] == {1: (1, 3, 4, -1), 2: (0, 2, 3, -1), 3: (0, 0, 1, 1)}
    for n in (None, 3):
        rows, g, pivots = _alexander_rows(d, n)
        assert (len(rows), g, pivots) == (1, 5, 2)
        _assert_rows_collapse_reference(d, n, _bruteforce_ideals(d))


def test_one_vn_block_leaves_no_row_in_r_n():
    # a V^n block's row is x - z in R_n: it only renames an arc, so one
    # block added anywhere leaves the rows and the matrix size of its base
    bases = ["trefoil", "figure8", "hopf+", "h-closure:2,1,2,3", "hbar-closure:3,2,3,3",
             "h-closure:3,1,2,2"]
    for name in bases:
        base = named(name)
        for n in (2, 3, 5):
            rows, g, pivots = _alexander_rows(base, n)
            for seed in range(60):
                d = scramble(base, [make_kind("v^n", n, EXPAND)], 1, seed)
                assert d.crossing_count == base.crossing_count + n
                got, g_d, pivots_d = _alexander_rows(d, n)
                assert (len(got), g_d - pivots_d) == (len(rows), g - pivots), (name, n, seed)


def test_folded_elementary_ideals_match_bruteforce_images():
    rng = random.Random(26)
    mus = set()
    for _ in range(30):
        d = random_diagram(rng, max_crossings=6, max_mu=3)
        mus.add(d.mu)
        brute = [oracles.elementary_ideal_bruteforce(d, k) for k in range(4)]
        for n in range(1, 7):
            mine = elementary_ideals(d, 3, n)
            for k in range(4):
                assert all(0 <= p.low and p.low + len(p.coeffs) <= n for p in mine[k])
                assert ideal_mod(mine[k], n) == ideal_mod(brute[k], n)
    assert mus == {1, 2, 3}


def test_folded_first_ideal_at_156_crossings_within_budget():
    # unit pivots leave a 12 x 12 matrix; over Z[t^+-1] its 11 x 11 minors
    # span up to 80 terms with 11-digit coefficients, while folded into
    # Z[t]/(t^3 - 1) every entry and minor has at most three
    d = scrambled_link(115)
    assert d.crossing_count == 156
    with time_limit(10):
        lattice = ideal_mod(elementary_ideals(d, 1, 3)[1], 3)
    # computed over Z[t^+-1] and then reduced, by the unfolded path
    assert lattice.basis == ((1, 4, -5), (0, 21, -21))


def test_block_relator_congruence():
    # a kinked unknot next to a free circle, before and after inserting a
    # parallel block under the circle: ideals agree mod (1 - t^n)
    before = parse("component: O1+ U1+\ncomponent:\n")
    for n in (2, 3):
        site = MoveSite((0, 1, 1, 0, 1))
        after = apply(before, make_kind("v^n", n, EXPAND), site)
        a = elementary_ideals(before, 3)
        b = elementary_ideals(after, 3)
        for k in range(4):
            assert ideal_mod(a[k], n) == ideal_mod(b[k], n)


def test_alexander_invariant_under_welded_scramble():
    rng = random.Random(23)
    kinds = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc")]
    for _ in range(10):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        s = scramble(d, kinds, 20, rng.randrange(10 ** 6))
        assert alexander_polynomials(d, 2) == alexander_polynomials(s, 2)


# ---------------------------------------------------------------------------
# finite groups

def test_builtin_group_orders():
    assert builtin_group("z5").order == 5
    assert builtin_group("d4").order == 8
    assert builtin_group("s3").order == 6
    assert builtin_group("q8").order == 8
    assert builtin_group("z12").order == 12
    assert builtin_group("d8").order == 16
    for name in ("z99", "z" + "9" * 5000):
        with pytest.raises(GroupTableError):
            builtin_group(name)


def test_builtin_group_has_one_spelling_per_group():
    # a leading zero or a non-ASCII digit would give a group a second cache
    # entry, so neither names a group
    for name in ("z05", "z08", "D04", "s03", "z\u0665"):
        with pytest.raises(GroupTableError):
            builtin_group(name)
    assert builtin_group("Z5") is builtin_group("z5")


def _element_order_counts(group):
    counts = {}
    for x in range(group.order):
        k, y = 1, x
        while y != group.identity:
            k, y = k + 1, group.table[y][x]
        counts[k] = counts.get(k, 0) + 1
    return counts


def _cyclic_order_counts(n):
    # Z/n has phi(d) elements of order d for every divisor d of n
    return {d: sum(math.gcd(k, d) == 1 for k in range(d))
            for d in range(1, n + 1) if n % d == 0}


def test_builtin_groups_have_the_element_orders_of_their_type():
    # orders and class sizes alone do not tell d4 from q8, and the
    # exhaustive hom-count oracle reads the same tables
    want = {f"z{n}": _cyclic_order_counts(n) for n in range(2, 13)}
    for n in range(3, 9):
        # n reflections of order 2 besides the rotations, a copy of Z/n
        rotations = _cyclic_order_counts(n)
        want[f"d{n}"] = {**rotations, 2: rotations.get(2, 0) + n}
    want["s3"] = {1: 1, 2: 3, 3: 2}
    want["s4"] = {1: 1, 2: 9, 3: 8, 4: 6}
    want["q8"] = {1: 1, 2: 1, 4: 6}
    for name, counts in want.items():
        assert _element_order_counts(builtin_group(name)) == counts, name


def test_group_table_validation():
    with pytest.raises(GroupTableError):
        # left-translation table of a non-group magma
        from wld.invariants import FiniteGroupTable
        FiniteGroupTable("bad", [[0, 1], [0, 1]])


@pytest.mark.parametrize("n", [0, -1])
def test_modulus_below_one_is_an_error(n):
    # only n = None means Z[t^+-1]; any other n < 1 raises, whatever the input
    with pytest.raises(AlgebraError):
        elementary_ideals(TREFOIL, 1, n)
    for p in (Laurent(), Laurent({0: 1}), parse_poly("t^-1 - 1 + t")):
        for residue_map in (fold, f_n):
            with pytest.raises(AlgebraError):
                residue_map(p, n)
    for gens in ([], [Laurent()], [parse_poly("1 - t + t^2")]):
        with pytest.raises(AlgebraError):
            ideal_mod(gens, n)


def test_load_group_csv(tmp_path):
    path = tmp_path / "z3.csv"
    path.write_text("0,1,2\n1,2,0\n2,0,1\n")
    table = parse_group_csv(path.read_text(), path)
    assert table.order == 3 and table.identity == 0


def test_load_group_csv_names_the_line_of_a_bad_entry():
    # the file name is the CLI's to add (test_cli)
    with pytest.raises(GroupTableError) as err:
        parse_group_csv("0,1\n\n1,x\n", "bad.csv")
    assert str(err.value) == "line 3: entries must be integers, got '1,x'"


def test_hom_count_free_group():
    free = GroupPresentation(1, ())
    for g in map(builtin_group, PANEL):
        assert hom_count(free, g) == g.order


def test_hom_count_factors_out_free_generators():
    # a split unknot component gives a generator in no relator, alone in
    # its component; the trefoil's arcs share one component
    d = parse("component: O1+ U2+ O3+ U1+ O2+ U3+\ncomponent:\n")
    for pres in (welded_group(d), core_group(d)):
        assert pres.ngens == 4
        for g in map(builtin_group, ("s3", "d4", "q8")):
            assert hom_count(pres, g) == oracles.hom_count_exhaustive(pres, g)


def test_hom_count_of_a_large_unlink_is_immediate():
    pres = welded_group(named("unlink-40"))
    with time_limit(1):
        count = hom_count(pres, builtin_group("z2"))
    assert count == 2 ** 40


def test_hom_count_of_split_hopf_links_multiplies_the_parts():
    # every Hopf link is a part of its own with 18 homomorphisms into s3,
    # the commuting pairs; one search over all 24 arcs would cost the
    # product of the parts (z2, abelian, is counted with no search at all)
    text = "".join(f"component: O{2 * k + 1}+ U{2 * k + 2}+\n"
                   f"component: U{2 * k + 1}+ O{2 * k + 2}+\n" for k in range(12))
    pres = welded_group(parse(text))
    with time_limit(1):
        count = hom_count(pres, builtin_group("s3"))
    assert count == 18 ** 12


def test_hom_count_of_a_part_too_deep_to_search_is_an_error():
    # commutators chain 1200 generators into one part that no Tietze step
    # shortens; the depth-first search would nest one call per generator
    # (an abelian target is counted from the abelianization, with no search)
    rels = tuple(((g, 1), (g + 1, 1), (g, -1), (g + 1, -1)) for g in range(1199))
    with pytest.raises(AlgebraError, match="1200 generators"):
        hom_count(GroupPresentation(1200, rels), builtin_group("s3"))


def test_hom_count_of_a_deep_commutator_chain_into_an_abelian_group():
    # the chain above abelianizes to Z^1200, which z2 counts with no search
    rels = tuple(((g, 1), (g + 1, 1), (g, -1), (g + 1, -1)) for g in range(1199))
    with time_limit(1):
        assert hom_count(GroupPresentation(1200, rels), builtin_group("z2")) == 2 ** 1200


def test_hom_count_above_the_tietze_budget_keeps_the_period():
    # h-closure:3,1,2,a has 4a letters in its relators, more than the
    # 4000-letter budget for a > 1000; simplification then takes every step
    # within the starting total, and the counts into S3 repeat with period 6
    # (a = 9999 leaves one relator of 20000 letters, which a rescan at
    # every step, or a dedup over all its rotations, would not finish in time)
    s3 = builtin_group("s3")
    with time_limit(10):
        for big, small in ((1001, 5), (2000, 8), (9999, 3)):
            assert (hom_count(welded_group(named(f"h-closure:3,1,2,{big}")), s3)
                    == hom_count(welded_group(named(f"h-closure:3,1,2,{small}")), s3))


def test_hom_count_against_exhaustive():
    rng = random.Random(24)
    groups = [builtin_group(name) for name in ("z3", "s3", "q8")]
    for _ in range(25):
        d = random_diagram(rng, max_crossings=3, max_mu=1)
        for pres in (welded_group(d), core_group(d)):
            if pres.ngens > 4:
                continue
            for g in groups:
                assert hom_count(pres, g) == oracles.hom_count_exhaustive(pres, g)


def test_simplify_preserves_hom_counts():
    rng = random.Random(25)
    for _ in range(15):
        d = random_diagram(rng, max_crossings=4, max_mu=2)
        pres = core_group(d)
        simp = simplify_presentation(pres)
        assert simp.ngens <= pres.ngens
        for g in (builtin_group("z4"), builtin_group("s3")):
            assert (oracles.hom_count_exhaustive(simp, g)
                    == oracles.hom_count_exhaustive(pres, g))


def test_coloring_count_examples():
    assert coloring_count(TREFOIL, 3) == 9
    for n in range(2, 8):
        assert coloring_count(UNKNOT, n) == n


def test_coloring_count_matches_exhaustive():
    rng = random.Random(26)
    for _ in range(40):
        d = random_diagram(rng, max_crossings=4, max_mu=2)
        if len(crossing_arcs(d)[1]) > 4:
            continue
        for n in range(2, 6):
            assert coloring_count(d, n) == oracles.colorings_exhaustive(d, n)


def test_coloring_count_at_400_crossings_within_budget():
    # the core relation matrix is 400 x 400; +-1 pivots on sparse rows leave
    # a small remainder for the dense Smith form, which took seconds on the
    # whole matrix
    expand = [make_kind("r1", direction=EXPAND), make_kind("r2", direction=EXPAND),
              make_kind("r3"), make_kind("oc")]
    rng = random.Random(11)
    d = named("figure8")
    while d.crossing_count < 400:
        kinds = expand if 400 - d.crossing_count >= 2 else expand[:1]
        d = scramble(d, kinds, 1, rng.randrange(1 << 30))
    assert d.crossing_count == 400
    with time_limit(1):
        count = coloring_count(d, 3)
    # welded moves keep the figure-eight's three colorings
    assert count == coloring_count(named("figure8"), 3) == 3


def test_coloring_count_multiple_of_n():
    rng = random.Random(27)
    for _ in range(60):
        d = random_diagram(rng, max_crossings=8, max_mu=3)
        for n in range(2, 8):
            c = coloring_count(d, n)
            assert c % n == 0 and c >= n


def test_coloring_equals_core_hom_count():
    rng = random.Random(28)
    for _ in range(20):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        for n in (2, 3, 5):
            assert coloring_count(d, n) == hom_count(core_group(d), builtin_group(f"z{n}"))


def test_welded_panel_invariant_under_scramble():
    rng = random.Random(29)
    kinds = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc")]
    for _ in range(8):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        s = scramble(d, kinds, 20, rng.randrange(10 ** 6))
        for g in map(builtin_group, PANEL):
            assert hom_count(welded_group(d), g) == hom_count(welded_group(s), g)
        assert abelianization(welded_group(d)) == abelianization(welded_group(s))


def test_core_panel_invariant_under_welded_and_v2():
    rng = random.Random(30)
    kinds = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc"),
             make_kind("v^n", 2)]
    for _ in range(8):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        s = scramble(d, kinds, 15, rng.randrange(10 ** 6))
        for n in range(2, 8):
            assert coloring_count(d, n) == coloring_count(s, n)
        for g in map(builtin_group, PANEL):
            assert hom_count(core_group(d), g) == hom_count(core_group(s), g)


def test_parallel_block_composite_relator():
    # a strand passing under an n-crossing parallel block of arc y satisfies
    # the composite relation x_out = y^n x_in y^-n; with the kink closing the
    # strand this simplifies to the single relator x^-1 y^3 x y^-3
    d = parse("component: O9+ U9+ U1+ U2+ U3+\ncomponent: O1+ O2+ O3+\n")
    simp = simplify_presentation(welded_group(d))
    assert simp.ngens == 2 and len(simp.relators) == 1
    candidates = set()
    for x, y in ((0, 1), (1, 0)):
        word = ((x, -1), (y, 1), (y, 1), (y, 1), (x, 1), (y, -1), (y, -1), (y, -1))
        for k in range(len(word)):
            rot = word[k:] + word[:k]
            candidates.add(rot)
            candidates.add(tuple((g, -e) for g, e in reversed(rot)))
    assert simp.relators[0] in candidates


def test_cinquefoil_alexander():
    c5 = parse("component: O1+ U2+ O3+ U4+ O5+ U1+ O2+ U3+ O4+ U5+\n")
    assert alexander(c5, 1)[1] == parse_poly("1 - t + t^2 - t^3 + t^4")
    assert alexander(c5, 0)[1] == Laurent()
    assert alexander(c5, 2)[1] == Laurent({0: 1})


def test_core_panel_invariant_under_antiparallel_v2():
    # the even parallel-block moves preserve the core group for either
    # orientation of the second strand
    rng = random.Random(31)
    for _ in range(8):
        d = random_diagram(rng, max_crossings=5, max_mu=2)
        s = scramble(d, [make_kind("vbar^n", 2)], 10, rng.randrange(10 ** 6))
        for n in range(2, 8):
            assert coloring_count(d, n) == coloring_count(s, n)
        for g in map(builtin_group, PANEL):
            assert hom_count(core_group(d), g) == hom_count(core_group(s), g)


def test_elementary_ideals_match_bruteforce_on_three_components():
    rng = random.Random(24)
    done = 0
    while done < 12:
        d = random_diagram(rng, max_crossings=5, max_mu=3)
        if d.mu != 3:
            continue
        done += 1
        mine = elementary_ideals(d, 3)
        for k in range(4):
            brute = oracles.elementary_ideal_bruteforce(d, k)
            assert poly_gcd(mine[k]) == poly_gcd(brute)
            for n in (2, 3):
                assert ideal_mod(mine[k], n) == ideal_mod(brute, n)
