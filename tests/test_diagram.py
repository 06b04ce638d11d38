import itertools
import random

import pytest

import oracles
from support import time_limit
from wld.arrows import build_H, build_Hbar, stack, surgery, to_arrows
from wld.diagram import (Diagram, DiagramError, ParseError, Passage,
                         canonical_key, closure, crossing_arcs, linking_matrix,
                         parse, random_diagram, same_diagram, serialize)
from wld.moves import EXPAND, MoveKind, scramble

TREFOIL = "component: O1+ U2+ O3+ U1+ O2+ U3+\n"
HOPF = "component: O1+ U2+\ncomponent: U1+ O2+\n"


def test_parse_trefoil():
    d = parse(TREFOIL)
    assert d.mu == 1
    assert d.crossing_count == 3
    assert d.kind == "link"


def test_parse_empty_component_is_unknot():
    d = parse("component:\n")
    assert d.mu == 1 and d.crossing_count == 0


def test_parse_hopf_two_lines():
    d = parse(HOPF)
    assert d.mu == 2 and d.crossing_count == 2


def test_parse_comments_and_blank_lines():
    d = parse("# a knot\n\ncomponent: O1+ U1+\n")
    assert d.crossing_count == 1


def test_parse_stringlink_header():
    d = parse("stringlink\ncomponent: O1+\ncomponent: U1+\n")
    assert d.kind == "stringlink"


def test_parse_unknown_token():
    with pytest.raises(ParseError):
        parse("component: X1+\n")


@pytest.mark.parametrize("tok", ["O\u00b2+", "O0+", "O1+-", "O1", "o1+",
                                 pytest.param("O" + "9" * 5000 + "+", id="O9...9+")])
def test_parse_names_a_malformed_token_and_its_line(tok):
    with pytest.raises(ParseError) as err:
        parse(f"component:\ncomponent: {tok} U1+\n")
    assert str(err.value) == f"line 2: unknown token {tok!r}"


@pytest.mark.parametrize("bad", ["U50000", "U" + "9" * 641 + "+", "U50000+U1+"],
                         ids=["no-sign", "641-digits", "glued"])
def test_a_long_line_with_a_bad_last_token_fails_fast(bad):
    # 100,000 tokens: each is matched on its own, so the line is read once
    toks = [f"{role}{k}+" for k in range(1, 50001) for role in "OU"]
    toks[-1] = bad
    with time_limit(1), pytest.raises(ParseError) as err:
        parse("component: " + " ".join(toks) + "\n")
    assert str(err.value) == f"line 1: unknown token {bad!r}"


def test_parse_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse("component:\ncomponent: Q9+\n")
    assert err.value.line == 2


def test_parse_unbalanced_crossing():
    with pytest.raises(ParseError):
        parse("component: O1+ O1+\n")
    with pytest.raises(ParseError):
        parse("component: O1+\n")


def test_parse_sign_mismatch():
    with pytest.raises(ParseError):
        parse("component: O1+ U1-\n")


@pytest.mark.parametrize("text, message", [
    ("component: O1+ O1+\n", "crossing 1 must appear exactly once over and once under"),
    ("component: O1+ U1-\n", "crossing 1 has mismatched signs"),
    ("component: O1+ U2+ O2+\n", "crossing 1 must appear exactly once over and once under"),
    ("component: O1+ U1+ O1+\n", "crossing 1 appears 3 times, expected 2"),
], ids=["two-overs", "mismatched-signs", "appears-once", "appears-three-times"])
def test_diagram_rejection_messages(text, message):
    with pytest.raises(DiagramError) as err:
        parse(text)
    # parse names the line of the crossing's last passage
    assert str(err.value) == f"line 1: {message}"
    assert err.value.line == 1


def test_serialize_round_trip_exact():
    rng = random.Random(1)
    for _ in range(200):
        d = random_diagram(rng)
        assert parse(serialize(d)) == d


def test_serialize_canonicalizes_whitespace():
    text = "component:   O1+    U1+  \n"
    assert serialize(parse(text)) == "component: O1+ U1+\n"


def test_serialize_unknot():
    assert serialize(parse("component:\n")) == "component:\n"


def test_passage_counts():
    rng = random.Random(2)
    for _ in range(50):
        d = random_diagram(rng)
        overs = sum(1 for c in d.components for p in c if p.role == "O")
        unders = sum(1 for c in d.components for p in c if p.role == "U")
        assert overs == unders == d.crossing_count


def test_closure_basics():
    sl = parse("stringlink\ncomponent:\ncomponent:\n")
    link = closure(sl)
    assert link.kind == "link" and link.mu == 2 and link.crossing_count == 0
    with pytest.raises(DiagramError):
        closure(link)


def test_closure_preserves_passages():
    rng = random.Random(3)
    for _ in range(50):
        sl = random_diagram(rng, kind="stringlink")
        link = closure(sl)
        assert link.components == sl.components
        assert link.crossing_count == sl.crossing_count


def test_arcs_trefoil():
    assert crossing_arcs(parse(TREFOIL))[1] == (0, 0, 0)


def test_arcs_unknot():
    assert crossing_arcs(parse("component:\n"))[1] == (0,)


def test_arcs_hopf():
    assert crossing_arcs(parse(HOPF))[1] == (0, 1)


def assert_arcs_partition(d, extra):
    """Each component has ``extra`` more arcs than under-passages (at least
    one), and the reference runs of its arcs cover its positions once."""
    ref_arcs, _, _ = oracles.arc_data_reference(d)
    assert crossing_arcs(d)[1] == tuple(c for c, _ in ref_arcs)
    for ci, comp in enumerate(d.components):
        unders = sum(1 for p in comp if p.role == "U")
        assert crossing_arcs(d)[1].count(ci) == max(1, unders + extra)
        covered = sorted(pos for c, run in ref_arcs if c == ci for pos in run)
        assert covered == list(range(len(comp)))


def test_arcs_partition_links():
    rng = random.Random(4)
    for _ in range(100):
        assert_arcs_partition(random_diagram(rng), 0)


def test_linking_matrix_hopf():
    lam = linking_matrix(parse(HOPF))
    assert lam[0][1] == 1 and lam[1][0] == 1


def test_linking_matrix_unlink():
    d = Diagram(((), (), ()), "link")
    assert linking_matrix(d) == [[0] * 3 for _ in range(3)]


def test_basepoint_rotation_invariance():
    d = parse(TREFOIL)
    comp = d.components[0]
    for r in range(len(comp)):
        rotated = Diagram((comp[r:] + comp[:r],), "link")
        assert same_diagram(d, rotated)
        assert linking_matrix(rotated) == linking_matrix(d)
        assert len(crossing_arcs(rotated)[1]) == len(crossing_arcs(d)[1])


def test_canonical_key_detects_difference():
    left = parse("component: O1+ U1+\n")
    right = parse("component: O1- U1-\n")
    assert not same_diagram(left, right)


def test_canonical_key_relabeling():
    a = parse("component: O7+ U9-\ncomponent: U7+ O9-\n")
    b = parse("component: O1+ U2-\ncomponent: U1+ O2-\n")
    assert same_diagram(a, b)


def test_diagram_requires_component():
    with pytest.raises(DiagramError):
        Diagram((), "link")


def test_arcs_partition_string_links():
    rng = random.Random(14)
    for _ in range(60):
        # open strands carry a leading arc and a possibly passage-free
        # trailing arc
        assert_arcs_partition(random_diagram(rng, kind="stringlink"), 1)


def _closed_stack(p, q):
    return closure(surgery(stack(p, q)))


def _rotate_and_relabel(d, rng):
    ids = d.crossing_ids()
    shuffled = ids[:]
    rng.shuffle(shuffled)
    relabel = dict(zip(ids, shuffled))
    comps = []
    for comp in d.components:
        comp = tuple(type(p)(relabel[p.crossing], p.role, p.sign) for p in comp)
        if comp and d.kind == "link":
            r = rng.randrange(len(comp))
            comp = comp[r:] + comp[:r]
        comps.append(comp)
    return Diagram(tuple(comps), d.kind)


def test_canonical_key_invariant_under_rotation_and_relabeling():
    rng = random.Random(15)
    randoms = (random_diagram(rng, max_crossings=8, max_mu=3) for _ in range(60))
    # 12^4 and 30 * 60 * 30 combinations of basepoint rotations, with many
    # ties on every component
    closures = [_closed_stack(build_H(4, 1, 2, 12), build_H(4, 3, 4, 12)),
                _closed_stack(build_H(3, 1, 2, 30), build_H(3, 2, 3, 30))]
    for d in itertools.chain(randoms, closures):
        other = _rotate_and_relabel(d, rng)
        assert same_diagram(d, other)


def test_canonical_key_matches_bruteforce():
    rng = random.Random(16)
    inputs = [random_diagram(rng, max_crossings=7, max_mu=3, kind=kind)
              for kind in ("link", "stringlink") for _ in range(150)]
    for a in (1, 2, 3, -2):
        inputs.append(_closed_stack(build_H(3, 1, 2, a), build_H(3, 2, 3, a)))
        inputs.append(_closed_stack(build_H(4, 1, 2, a), build_H(4, 3, 4, a)))
        inputs.append(_closed_stack(build_H(3, 1, 3, a), build_Hbar(3, 1, 2, 2)))
        inputs.append(surgery(stack(build_H(3, 1, 2, a), build_H(3, 2, 3, a))))
    # V^n/V(n)-grown links and string links, whose runs of one (role, sign)
    # tie many basepoints on their first entry
    grown = random.Random(19)
    grow = [MoveKind(fam, n, EXPAND) for fam in ("v^n", "vbar^n", "v(n)") for n in (2, 3)]
    for i in range(150):
        d = random_diagram(grown, max_crossings=3, max_mu=3, kind=("link", "stringlink")[i % 2])
        inputs.append(scramble(d, grown.sample(grow, 2), 2, grown.randrange(1 << 30)))
    for d in inputs:
        key = canonical_key(d)
        assert key == oracles.canonical_key_bruteforce(d)
        assert key == canonical_key(_rotate_and_relabel(d, rng))


def test_canonical_key_of_many_tied_rotations_is_fast():
    # 60 tied rotations on each of 4 components: 60^4 combinations
    d = _closed_stack(build_H(4, 1, 2, 60), build_H(4, 3, 4, 60))
    rotated = _rotate_and_relabel(d, random.Random(17))
    with time_limit(2):
        assert canonical_key(d) == canonical_key(rotated)


def test_moved_checks_what_the_move_changed():
    d = parse(TREFOIL)
    comps = d.components[0]
    o1, u2, o3, u1, o2, u3 = comps
    # a whole crossing removed, a fresh one added, passages swapped
    assert d.moved([comps[1:3] + comps[4:]], removed=[o1, u1]) == parse(
        "component: U2+ O3+ O2+ U3+\n")
    block = [Passage(4, "O", -1), Passage(4, "U", -1)]
    assert d.moved([comps + tuple(block)], added=block) == parse(
        TREFOIL.replace("U3+", "U3+ O4- U4-"))
    assert d.moved([(u2, o1) + comps[2:]]).components[0][:2] == (u2, o1)
    # one passage of a crossing removed
    with pytest.raises(DiagramError, match="crossing 1"):
        d.moved([comps[1:]], removed=[o1])
    # an added block that reuses an id in use, whether fresh is given or not
    reused = [Passage(3, "O", 1), Passage(3, "U", 1)]
    for fresh in ({}, {"fresh": 4}):
        with pytest.raises(DiagramError, match="added crossing 3"):
            d.moved([comps + tuple(reused)], added=reused, **fresh)
    # an added block that is not one over and one under of one sign
    for bad in ([Passage(4, "O", 1)], [Passage(4, "O", 1), Passage(4, "U", -1)],
                [Passage(4, "O", 1), Passage(4, "O", 1)]):
        with pytest.raises(DiagramError, match="crossing 4"):
            d.moved([comps + tuple(bad)], added=bad)
    # a component list that lost or repeated a passage
    for wrong in ([comps[1:]], [comps + (o1,)], [comps[:3], comps[3:] + (u3,)]):
        with pytest.raises(DiagramError, match="passages after removing"):
            d.moved(wrong)
    with pytest.raises(DiagramError, match="at least one component"):
        d.moved([], removed=list(comps))


BOUND = 10 ** 640


def _crossing(cid, role="O", sign=1):
    return [Passage(cid, role, sign), Passage(cid, "U", sign)]


@pytest.mark.parametrize("passages, message", [
    (["O1+", Passage(1, "U", 1)], "not a passage: 'O1+'"),
    (_crossing(1, role="X"), "bad role 'X'"),
    (_crossing(1, sign=0), "bad sign 0"),
    (_crossing(0), "crossing ids must be positive, got 0"),
    (_crossing(BOUND - 1), None),
    (_crossing(BOUND), "crossing ids must be below 10^640"),
    # ids and signs are integers, and a bool is not one here: ``parse``
    # reads back no other
    (_crossing(True), "crossing id True is not an integer"),
    (_crossing(2.5), "crossing id 2.5 is not an integer"),
    (_crossing("1"), "crossing id '1' is not an integer"),
    (_crossing(1, sign=1.0), "bad sign 1.0"),
    (_crossing(1, sign=True), "bad sign True"),
], ids=["not-a-passage", "bad-role", "bad-sign", "id-0", "id-10^640-1", "id-10^640",
        "id-bool", "id-float", "id-str", "sign-float", "sign-bool"])
def test_one_rule_checks_passages_built_removed_and_added(passages, message):
    # the constructor, and moved over what a move removes and what it adds
    empty = parse("component:\n")
    builds = [lambda: Diagram((tuple(passages),)),
              lambda: empty.moved([tuple(passages)], added=passages),
              lambda: (empty if message else Diagram((tuple(passages),))).moved(
                  [()], removed=passages)]
    for build in builds:
        if message is None:
            d = build()
            assert parse(serialize(d)) == d
        else:
            with pytest.raises(DiagramError) as err:
                build()
            assert str(err.value) == message


def test_diagram_rejects_an_unknown_kind():
    with pytest.raises(DiagramError, match="unknown diagram kind 'loop'"):
        Diagram(((),), "loop")


def test_stack_rejects_ids_too_long_to_write_out():
    # stacking offsets the second factor's ids by the first's largest
    top = to_arrows(Diagram(((Passage(BOUND - 1, "O", 1),), (Passage(BOUND - 1, "U", 1),)),
                            "stringlink"))
    with pytest.raises(DiagramError, match="below 10\\^640"):
        stack(top, build_H(2, 1, 2, 1))
