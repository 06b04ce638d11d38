"""Property tests of the dense Laurent polynomial against a dict-of-terms
reference: {exponent: nonzero coefficient}.  Each test runs a derandomized
search, so the suite stays deterministic."""

from hypothesis import given, settings, strategies as st

from wld.algebra import Laurent, format_poly, parse_poly

# unsorted, repeated and zero pairs on purpose
PAIRS = st.lists(st.tuples(st.integers(-6, 6), st.integers(-5, 5)), max_size=8)


def reference(pairs):
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def terms(p):
    return {e: c for e, c in enumerate(p.coeffs, p.low) if c}


def ref_mul(a, b):
    return reference((ea + eb, ca * cb) for ea, ca in a.items() for eb, cb in b.items())


@settings(derandomize=True)
@given(PAIRS)
def test_constructor_normalizes_pairs(pairs):
    p = Laurent(pairs)
    want = reference(pairs)
    assert terms(p) == want
    assert p == Laurent(want) == Laurent(sorted(want.items(), reverse=True))
    assert (not p) == (not want)
    if want:
        assert (p.low, p.low + len(p.coeffs) - 1) == (min(want), max(want))
        assert p.coeffs[0] and p.coeffs[-1]


@settings(derandomize=True)
@given(PAIRS, PAIRS)
def test_ring_operations_match_reference(a, b):
    p, q = Laurent(a), Laurent(b)
    ra, rb = reference(a), reference(b)
    assert terms(p + q) == reference(list(ra.items()) + list(rb.items()))
    assert terms(p - q) == reference(list(ra.items()) + [(e, -c) for e, c in rb.items()])
    assert terms(-p) == {e: -c for e, c in ra.items()}
    assert terms(p * q) == ref_mul(ra, rb)
    three = Laurent({0: 3})
    assert terms(p * three) == terms(three * p) == {e: 3 * c for e, c in ra.items()}
    assert terms(p * Laurent({4: 1})) == {e + 4: c for e, c in ra.items()}


@settings(derandomize=True)
@given(PAIRS, PAIRS)
def test_equality_and_hash_agree(a, b):
    p, q = Laurent(a), Laurent(b)
    assert (p == q) == (reference(a) == reference(b))
    assert p == Laurent(reversed(a))
    assert hash(p) == hash(Laurent(reversed(a)))
    if p == q:
        assert hash(p) == hash(q)


@settings(derandomize=True)
@given(PAIRS)
def test_parse_format_round_trip(pairs):
    p = Laurent(pairs)
    assert parse_poly(format_poly(p)) == p
