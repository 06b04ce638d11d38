"""Hypothesis property tests.

Every test runs a bounded number of examples from a derandomized search, so
the suite stays deterministic.  Diagrams are drawn through a Hypothesis
controlled ``random.Random`` handed to ``random_diagram``.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from wld.algebra import ideal_mod, snf
from wld.arrows import (build_H, build_Hbar, parse_presentation,
                        serialize_presentation, stack)
from wld.classify import parallel_residues, twist_residues
from wld.diagram import (LINK, STRING_LINK, Diagram, canonical_key, linking_matrix,
                         parse, random_diagram, serialize)
from wld.invariants import (GroupPresentation, abelianization, builtin_group,
                            coloring_count, elementary_ideals, hom_count,
                            welded_group)
from wld.moves import make_kind, scramble

import oracles

WELDED = [make_kind("r1"), make_kind("r2"), make_kind("r3"), make_kind("oc")]


def _diagrams(kinds=(LINK,), max_crossings=6, max_mu=3):
    return st.builds(
        lambda rng, crossings, mu, kind: random_diagram(rng, crossings, mu, kind),
        st.randoms(use_true_random=False), st.integers(0, max_crossings),
        st.integers(1, max_mu), st.sampled_from(kinds))


def _matrices(max_rows, max_cols, entries):
    return st.integers(1, max_rows).flatmap(lambda m: st.integers(1, max_cols).flatmap(
        lambda k: st.lists(st.lists(entries, min_size=k, max_size=k),
                           min_size=m, max_size=m)))


def _presentation(mat):
    """A presentation whose abelianized relation matrix is ``mat``."""
    relators = tuple(tuple((j, 1 if a > 0 else -1) for j, a in enumerate(row)
                           for _ in range(abs(a))) for row in mat)
    return GroupPresentation(len(mat[0]), relators)


def _abelianization_from(factors, ngens):
    return ngens - len(factors), tuple(f for f in factors if f > 1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_diagrams(), st.sampled_from((2, 3, 4, 5)), st.integers(1, 12),
       st.integers(0, 10 ** 6))
def test_folded_ideals_are_invariant_under_vn_scrambles(d, n, steps, seed):
    s = scramble(d, WELDED + [make_kind("v^n", n)], steps, seed)
    before = [ideal_mod(gens, n) for gens in elementary_ideals(d, 2, n)]
    after = [ideal_mod(gens, n) for gens in elementary_ideals(s, 2, n)]
    assert before == after


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_diagrams((LINK, STRING_LINK), max_crossings=8), st.integers(1, 7))
def test_ideals_in_r_n_are_images_of_the_laurent_ideals(d, n):
    folded = elementary_ideals(d, 3, n)
    unfolded = elementary_ideals(d, 3)
    for k in range(4):
        assert ideal_mod(folded[k], n) == ideal_mod(unfolded[k], n)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices(4, 4, st.integers(-3, 3)))
def test_z_elimination_then_snf_matches_the_minor_oracle(mat):
    assert abelianization(_presentation(mat)) == _abelianization_from(
        oracles.snf_by_minors(mat), len(mat[0]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices(12, 12, st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 5))))
def test_z_elimination_then_snf_matches_dense_snf(mat):
    assert abelianization(_presentation(mat)) == _abelianization_from(
        snf(mat), len(mat[0]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_diagrams((LINK, STRING_LINK), max_crossings=7), st.data())
def test_canonical_key_is_the_least_code_under_rotation_and_relabelling(d, data):
    ids = d.crossing_ids()
    labels = data.draw(st.lists(st.integers(1, 99), min_size=len(ids),
                                max_size=len(ids), unique=True))
    relabel = dict(zip(ids, labels))
    comps = []
    for comp in d.components:
        comp = tuple(p._replace(crossing=relabel[p.crossing]) for p in comp)
        if comp and d.kind == LINK:
            r = data.draw(st.integers(0, len(comp) - 1))
            comp = comp[r:] + comp[:r]
        comps.append(comp)
    key = canonical_key(d)
    assert key == canonical_key(Diagram(tuple(comps), d.kind))
    assert key == oracles.canonical_key_bruteforce(d)


def _arrow_blocks(mu):
    pairs = [(i, j) for i in range(1, mu + 1) for j in range(i + 1, mu + 1)]
    return st.builds(lambda build, pair, a: build(mu, *pair, a),
                     st.sampled_from((build_H, build_Hbar)), st.sampled_from(pairs),
                     st.integers(-3, 3))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda mu: st.lists(_arrow_blocks(mu), min_size=1,
                                                      max_size=4)))
def test_presentation_text_round_trips(blocks):
    p = functools.reduce(stack, blocks)
    assert parse_presentation(serialize_presentation(p)) == p


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_diagrams((LINK, STRING_LINK), max_crossings=8))
def test_diagram_text_round_trips(d):
    assert parse(serialize(d)) == d


def _welded_invariants(d):
    return (linking_matrix(d), coloring_count(d, 3), coloring_count(d, 5),
            hom_count(welded_group(d), builtin_group("s3")))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_diagrams(), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_welded_invariants_are_invariant_under_welded_scrambles(d, steps, seed):
    assert _welded_invariants(scramble(d, WELDED, steps, seed)) == _welded_invariants(d)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_diagrams(), st.sampled_from((3, 5, 7)), st.integers(1, 12),
       st.integers(0, 10 ** 6))
def test_twist_residues_are_invariant_under_v_n_scrambles(d, n, steps, seed):
    kinds = WELDED + [make_kind("v(n)", n), make_kind("vbar(n)", n)]
    assert twist_residues(scramble(d, kinds, steps, seed), n) == twist_residues(d, n)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_diagrams(), st.sampled_from((2, 3, 4, 5)), st.integers(1, 12),
       st.integers(0, 10 ** 6))
def test_parallel_residues_are_invariant_under_v_n_uc_scrambles(d, n, steps, seed):
    kinds = WELDED + [make_kind("uc"), make_kind("v^n", n), make_kind("vbar^n", n)]
    assert parallel_residues(scramble(d, kinds, steps, seed), n) == parallel_residues(d, n)
