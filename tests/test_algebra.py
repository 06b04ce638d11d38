import itertools
import random

import pytest

from wld.algebra import (AlgebraError, Laurent, cyclic_reduce, cyclic_ring,
                         f_n, fold, format_poly, free_reduce, hnf, ideal_mod,
                         laurent_minors, normalize_units, parse_poly, poly_gcd,
                         snf)

import oracles
from oracles import exact_div
from support import time_limit


def rand_poly(rng, max_terms=4, max_coeff=4, max_exp=5):
    return Laurent([(rng.randint(-max_exp, max_exp), rng.randint(-max_coeff, max_coeff))
                    for _ in range(rng.randint(0, max_terms))])


def rand_word(rng, ngens=3, max_len=6):
    return free_reduce(tuple((rng.randrange(ngens), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, max_len))))


# ---------------------------------------------------------------------------
# Laurent arithmetic

def test_mul_difference_of_squares():
    one_minus_t = parse_poly("1 - t")
    one_plus_t = parse_poly("1 + t")
    assert one_minus_t * one_plus_t == parse_poly("1 - t^2")


def test_normalize_units_examples():
    p = Laurent([(3, -1), (4, 1), (5, -1)])
    assert normalize_units(p) == parse_poly("1 - t + t^2")
    assert normalize_units(Laurent({0: 1})) == Laurent({0: 1})
    assert normalize_units(Laurent()) == Laurent()


def test_normalize_units_idempotent_and_unit_invariant():
    rng = random.Random(0)
    for _ in range(100):
        p = rand_poly(rng)
        q = normalize_units(p)
        assert normalize_units(q) == q
        assert normalize_units(-p * Laurent({rng.randint(-3, 3): 1})) == q


def test_parse_format_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        p = rand_poly(rng)
        assert parse_poly(format_poly(p)) == p


def test_parse_examples():
    assert parse_poly("t^-1 + 1") == Laurent([(-1, 1), (0, 1)])
    assert parse_poly("1 - t + t^2") == Laurent([(0, 1), (1, -1), (2, 1)])
    assert parse_poly("0") == Laurent()
    assert parse_poly("-2t^3") == Laurent([(3, -2)])
    assert parse_poly("3*t^-2 - 0t + 4") == Laurent([(-2, 3), (0, 4)])


@pytest.mark.parametrize("text", ["t^", "", "1 +", "+-t", "t^+1", "tt", "**",
                                  "at", "^t", "t^\u00b2", "1^t", "2^-3",
                                  pytest.param("t^" + "9" * 5000, id="t^9...9")])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(AlgebraError):
        parse_poly(text)


def test_ring_axioms_spot():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)


def test_exact_div():
    rng = random.Random(3)
    for _ in range(50):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if not b:
            continue
        assert exact_div(a * b, b) == a
    with pytest.raises(AlgebraError):
        exact_div(parse_poly("t + 1"), parse_poly("t - 1"))


# ---------------------------------------------------------------------------
# gcd

def test_poly_gcd_examples():
    assert poly_gcd([parse_poly("1 - t + t^2")]) == parse_poly("1 - t + t^2")
    assert poly_gcd([parse_poly("1 - t^2"), parse_poly("1 - t^3")]) == parse_poly("1 - t")
    assert poly_gcd([Laurent(), parse_poly("-t^2 + t^3")]) == parse_poly("1 - t")
    assert poly_gcd([]) == Laurent()


def test_poly_gcd_divides_and_is_maximal():
    rng = random.Random(4)
    for _ in range(60):
        g = rand_poly(rng, max_terms=3)
        a, b = rand_poly(rng, max_terms=3), rand_poly(rng, max_terms=3)
        got = poly_gcd([g * a, g * b])
        if not g * a and not g * b:
            assert not got
            continue
        if not g:
            continue
        for p in (g * a, g * b):
            if p:
                exact_div(p, got)  # must not raise


def test_poly_gcd_integer_content():
    assert poly_gcd([parse_poly("2 + 2t"), parse_poly("4")]) == parse_poly("2")


# ---------------------------------------------------------------------------
# free words, and the Fox derivative as the oracle defines it

def test_free_reduce():
    assert free_reduce(((0, 1), (0, -1))) == ()
    assert free_reduce(((0, 1), (1, 1), (1, -1), (0, 1))) == ((0, 1), (0, 1))


def test_cyclic_reduce():
    assert cyclic_reduce(((0, -1), (1, 1), (0, 1))) == ((1, 1),)


def fox(word, gen):
    return oracles._fox_row_by_definition(word).get(gen, Laurent())


def test_fox_axioms():
    assert fox(((0, 1),), 0) == Laurent({0: 1})
    assert fox(((0, -1),), 0) == Laurent({-1: -1})
    assert fox(((0, 1),), 1) == Laurent()


def test_fox_product_rule():
    rng = random.Random(5)
    for _ in range(500):
        u, v = rand_word(rng), rand_word(rng)
        for gen in range(3):
            prefix = Laurent({sum(e for _, e in u): 1})
            assert fox(u + v, gen) == fox(u, gen) + prefix * fox(v, gen)


def test_fox_block_relator_entries():
    # w = x1 x3^n x2^-1 x3^-n, generators indexed 0,1,2
    for n in (1, 2, 5):
        w = ((0, 1),) + ((2, 1),) * n + ((1, -1),) + ((2, -1),) * n
        assert fox(w, 1) == Laurent([(n, -1)])
        assert fox(w, 2) == Laurent([(n, 1), (0, -1)])
        assert fox(w, 0) == Laurent({0: 1})


# ---------------------------------------------------------------------------
# HNF / SNF

def rand_matrix(rng, max_dim=3, lo=-4, hi=4):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_hnf_examples():
    assert hnf([[0, 0], [0, 0]]) == []
    assert hnf([[2, 1], [0, 3]]) == [(2, 1), (0, 3)]


def test_hnf_is_canonical_and_spans_same_lattice():
    rng = random.Random(7)
    for _ in range(100):
        mat = rand_matrix(rng)
        h = hnf(mat)
        assert oracles.is_hnf(h)
        assert oracles.lattices_equal(mat, h)


def test_hnf_unimodular_invariance():
    rng = random.Random(8)
    unimods = ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]], [[-1, 0], [0, 1]])
    for _ in range(60):
        n = rng.randint(1, 3)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(2)]
        u = unimods[rng.randrange(len(unimods))]
        mixed = [[sum(u[i][k] * mat[k][j] for k in range(2)) for j in range(n)]
                 for i in range(2)]
        assert hnf(mat) == hnf(mixed)


def test_snf_examples():
    assert snf([[2, 0], [0, 3]]) == [1, 6]
    assert snf([[0, 0], [0, 0]]) == []


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(9)
    for _ in range(100):
        mat = rand_matrix(rng)
        assert snf(mat) == oracles.snf_by_minors(mat)


def test_snf_divisibility_chain():
    rng = random.Random(10)
    for _ in range(50):
        factors = snf(rand_matrix(rng))
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


# ---------------------------------------------------------------------------
# ideals mod (1 - t^n)

def test_member_of_principal_shifted_generators():
    rng = random.Random(11)
    for n in range(1, 13):
        gen = Laurent({0: 1}) - Laurent({n: 1})
        for _ in range(10):
            s = rng.randint(-6, 6)
            assert not fold(gen * Laurent({s: 1}), n)
            p = rand_poly(rng)
            assert not fold(p * gen, n)


def test_member_routes_agree():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = rand_poly(rng)
        gen = Laurent({0: 1}) - Laurent({n: 1})
        direct = not fold(p, n)
        via_lattice = ideal_mod([p, gen], n) == ideal_mod([gen], n)
        assert direct == via_lattice


def test_f_n_values():
    p = parse_poly("1 - t + t^2")
    assert f_n(p, 2) == 2
    assert f_n(p, 3) == 2
    for n in range(2, 13):
        assert f_n(p, n) == 2


def test_f_n_vanishes_on_ideal():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 10)
        p = rand_poly(rng)
        s = rng.randint(-5, 5)
        gen = (Laurent({0: 1}) - Laurent({n: 1})) * Laurent({s: 1})
        assert f_n(p * gen, n) == 0


def test_trefoil_poly_never_unit_mod_ideal():
    tre = parse_poly("1 - t + t^2")
    for n in range(2, 13):
        for eps in (1, -1):
            for r in range(n):
                diff = tre - Laurent({r: eps})
                assert fold(diff, n)
                assert f_n(diff, n) != 0


def test_ideal_mod_generator_order_and_multiples():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 6)
        gens = [rand_poly(rng) for _ in range(rng.randint(1, 3))]
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert ideal_mod(gens, n) == ideal_mod(shuffled, n)
        extra = gens + [gens[0] * rand_poly(rng)]
        assert ideal_mod(gens, n) == ideal_mod(extra, n)


def test_ideal_mod_against_bruteforce_lattice_equality():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [rand_poly(rng, max_exp=3) for _ in range(2)]
        b = [rand_poly(rng, max_exp=3) for _ in range(2)]
        mine = ideal_mod(a, n) == ideal_mod(b, n)
        rows_a = [r for p in a for r in _shift_rows(p, n)]
        rows_b = [r for p in b for r in _shift_rows(p, n)]
        assert mine == oracles.lattices_equal(rows_a, rows_b)


def _shift_rows(p, n):
    q = fold(p, n)
    coeffs = dict(enumerate(q.coeffs, q.low))
    vec = [coeffs.get(e, 0) for e in range(n)]
    rows = []
    for _ in range(n):
        rows.append(list(vec))
        vec = [vec[-1]] + vec[:-1]
    return rows


def test_cyclic_lattice_contains():
    lat = ideal_mod([parse_poly("1 - t + t^2")], 2)
    assert oracles.lattices_equal(lat.basis + ((2, -1),), lat.basis)
    assert not oracles.lattices_equal(lat.basis + ((1, 0),), lat.basis)


def test_laurent_minors_match_bruteforce_for_every_minor():
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[rand_poly(rng, max_terms=2, max_exp=2) for _ in range(n)]
               for _ in range(m)]
        rows = [{j: p for j, p in enumerate(row) if p} for row in mat]
        sizes = range(min(m, n) + 1)
        minors = laurent_minors(rows, sizes)
        assert all(minors.values())
        count = 0
        for s in sizes:
            for rset in itertools.combinations(range(m), s):
                for cset in itertools.combinations(range(n), s):
                    sub = [[mat[r][c] for c in cset] for r in rset]
                    want = oracles.laurent_det_bruteforce(sub)
                    assert minors.get((rset, cset), Laurent()) == want
                    count += bool(want)
        assert count == len(minors)
        # one requested size alone gives the same minors of that size
        s = rng.choice(sizes)
        assert laurent_minors(rows, [s]) == {key: p for key, p in minors.items()
                                             if len(key[0]) == s}


def test_folded_laurent_minors_match_folded_bruteforce():
    rng = random.Random(19)
    for _ in range(40):
        m, k = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[rand_poly(rng, max_terms=3, max_exp=3) for _ in range(k)]
               for _ in range(m)]
        rows = [{j: p for j, p in enumerate(row) if p} for row in mat]
        sizes = range(min(m, k) + 1)
        for n in range(1, 6):
            want = {}
            for s in sizes:
                for rset in itertools.combinations(range(m), s):
                    for cset in itertools.combinations(range(k), s):
                        sub = [[mat[r][c] for c in cset] for r in rset]
                        det = oracles.fold_bruteforce(oracles.laurent_det_bruteforce(sub), n)
                        if det:
                            want[(rset, cset)] = det
            folded = [{j: q for j, p in row.items() if (q := fold(p, n))} for row in rows]
            assert laurent_minors(folded, sizes, cyclic_ring(n)) == want
            assert all(fold(p, n) == oracles.fold_bruteforce(p, n)
                       for row in mat for p in row)


def test_ideal_mod_of_many_dense_generators_stays_fast():
    # twenty degree-20 generators with coefficients in +-100 make a 100 x 5
    # lattice basis problem; a full-matrix Euclid sweep blows the entries up
    # and takes from a tenth of a second to minutes, depending on the draw
    rng = random.Random(18)
    n = 5
    problems = [[Laurent([(e, rng.randint(-100, 100)) for e in range(21)])
                 for _ in range(20)] for _ in range(10)]
    with time_limit(10):
        lattices = [ideal_mod(gens, n) for gens in problems]
    for gens, lattice in zip(problems, lattices):
        assert oracles.is_hnf(lattice.basis)
        for p in gens:
            for row in _shift_rows(p, n):
                # an HNF is unique, so a row of the lattice leaves it as it is
                assert hnf(lattice.basis + (tuple(row),)) == list(lattice.basis)
