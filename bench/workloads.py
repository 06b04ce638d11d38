"""Seeded workloads of the wld benchmark.

Each builder takes a ``random.Random`` and a work directory, generates its
inputs with public ``wld`` calls, writes the input files, and returns the
ordered list of operations the closed loop issues.  An operation is a
``Case``: ``run()`` is the timed call, ``check(output)`` runs afterwards,
outside the timed region, against a reference that does not come from the
timed code path.  ``check`` returns None for a correct answer, or a
``(kind, detail)`` pair: kind ``"wrong"`` for an unexplained wrong answer,
or the name of one of the two known defects (see README.md), which count as
failures but do not make the run incorrect.

The ``wld`` modules are looked up at call time (``import wld`` inside the
functions) because set-up re-imports the package on every repetition.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

KNOWN_ALEXANDER = "known-defect-alexander"
KNOWN_CANONICAL_KEY = "known-defect-canonical-key"
WRONG = "wrong"

# Per-operation budgets in seconds.  Each sits in a gap of the per-case
# times measured on the current library (see README.md), at least four
# times the slowest case seen, so whether a case runs over budget does not
# depend on the machine's speed or on a slow stretch during one repetition.
BUDGET_S = {"obstruct": 10.0, "homs": 8.0, "moves": 5.0}


# Operations in the traced run: the first this many of each workload's list.
TRACE_CASES = {"obstruct": 96, "homs": 400, "moves": 90}


class CliError(Exception):
    """The CLI returned a nonzero exit code."""


@dataclass
class Case:
    key: str                  # "<operation type>#<case>"
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]

    @property
    def kind(self):
        return self.key.split("#")[0]


# ---------------------------------------------------------------------------
# helpers shared by the workloads

def cli(argv):
    """Run ``wld.cli.main(argv)`` in-process and return its stdout."""
    import wld.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = wld.cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            rc = exc.code
    if rc != 0:
        raise CliError(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def linking(d):
    """Ordered linking numbers straight from the Gauss code: entry (i, j)
    sums the signs of crossings over on component i and under on j."""
    ends = {}
    for ci, comp in enumerate(d.components):
        for psg in comp:
            ends.setdefault(psg.crossing, {})[psg.role] = (ci, psg.sign)
    mat = [[0] * d.mu for _ in range(d.mu)]
    for roles in ends.values():
        (co, sign), (cu, _) = roles["O"], roles["U"]
        if co != cu:
            mat[co][cu] += sign
    return mat


def linking_kept(before, after, rule, n):
    """Does ``after`` keep the part of the linking matrix ``rule`` fixes?

    ``exact``: every lambda_ij; ``parallel`` (V^n kinds): every lambda_ij
    mod n; ``twist`` (odd V(n) kinds): every lambda_ij + lambda_ji mod n.
    """
    if len(before) != len(after):
        return False
    mu = len(before)
    for i in range(mu):
        for j in range(mu):
            if i == j:
                continue
            if rule == "exact" and before[i][j] != after[i][j]:
                return False
            if rule == "parallel" and (before[i][j] - after[i][j]) % n:
                return False
            if rule == "twist" and (before[i][j] + before[j][i]
                                    - after[i][j] - after[j][i]) % n:
                return False
    return True


def grow(d, kinds, target, rng, slack=5):
    """Apply seeded single scramble steps until the crossing count lands in
    [target, target + slack]; ``slack`` is at least the largest step."""
    from wld import scramble
    cur = d
    for _ in range(50 * target + 200):
        if target <= cur.crossing_count <= target + slack:
            return cur
        cur = scramble(cur, kinds, 1, rng.randrange(1 << 30))
    raise RuntimeError(f"could not grow a diagram to {target} crossings")


def stratified(rng, lo, hi, count):
    """``count`` targets evenly covering [lo, hi], in seeded order, so every
    seed draws the same size mix."""
    if count == 1:
        return [lo]
    vals = [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]
    rng.shuffle(vals)
    return vals


def rotate_relabel(d, rng):
    """The same diagram with seeded basepoint rotations and crossing ids."""
    from wld.diagram import Diagram, Passage, LINK
    ids = d.crossing_ids()
    fresh = rng.sample(range(1, 4 * len(ids) + 2), len(ids))
    relabel = dict(zip(ids, fresh))
    comps = []
    for comp in d.components:
        r = rng.randrange(len(comp)) if comp and d.kind == LINK else 0
        comp = comp[r:] + comp[:r]
        comps.append(tuple(Passage(relabel[p.crossing], p.role, p.sign)
                           for p in comp))
    return Diagram(tuple(comps), d.kind)


def write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# obstruct: E^k-mod-(1 - t^n) obstruction on V^n-scrambled pairs

OBSTRUCT_BASES = ("trefoil", "figure8", "hopf+", "hopf-", "h-closure:2,1,2,3",
                  "hbar-closure:2,1,2,2", "h-closure:3,1,2,2",
                  "hbar-closure:3,2,3,3")
OBSTRUCT_PAIRS = 448
OBSTRUCT_KMAX = 2


def lattice_verdict(key):
    """Expected answer for base pair (left, right, n): the first k whose E^k
    lattices modulo (1 - t^n) differ, with both lattices, or None.  The
    lattices are V^n-invariant, so this is the answer for every scramble."""
    from wld import named
    from wld.algebra import ideal_mod
    from wld.invariants import elementary_ideals
    left, right, n = key
    ideals_l = elementary_ideals(named(left), OBSTRUCT_KMAX)
    ideals_r = elementary_ideals(named(right), OBSTRUCT_KMAX)
    for k in range(OBSTRUCT_KMAX + 1):
        lat_l = ideal_mod(ideals_l[k], n).basis
        lat_r = ideal_mod(ideals_r[k], n).basis
        if lat_l != lat_r:
            return k, [list(r) for r in lat_l], [list(r) for r in lat_r]
    return None


def build_obstruct(rng, workdir):
    from wld import make_kind, named, serialize
    from wld.moves import EXPAND, REDUCE
    expected = functools.cache(lattice_verdict)
    # a pair's cost follows its total size, so the totals are stratified
    # and only their split between the sides (each 20-50) is drawn
    totals = stratified(rng, 40, 100, OBSTRUCT_PAIRS)
    cases = []
    nb = len(OBSTRUCT_BASES)
    for i in range(OBSTRUCT_PAIRS):
        # every base is the left side equally often; half the pairs share it
        n = (3, 5)[i % 2]
        left = OBSTRUCT_BASES[(i // 4) % nb]
        # the other bases in turn, so every seed draws the same base pairs
        right = left if (i // 2) % 2 == 0 else OBSTRUCT_BASES[
            (i // 4 + 1 + (2 * (i // (4 * nb)) + i % 2) % (nb - 1)) % nb]
        # expand-biased, so a diagram takes few (costly) scramble steps
        kinds = [make_kind("r1", direction=EXPAND), make_kind("r2", direction=EXPAND),
                 make_kind("r2", direction=REDUCE), make_kind("r3"), make_kind("oc"),
                 make_kind("v^n", n, EXPAND)]
        first = rng.randint(max(20, totals[i] - 50), min(50, totals[i] - 20))
        sizes = (first, totals[i] - first)
        paths, diagrams = [], []
        for side, base in enumerate((left, right)):
            diagrams.append(grow(named(base), kinds, sizes[side], rng))
            paths.append(write(workdir, f"obstruct-{i}-{side}.gc",
                               serialize(diagrams[-1])))
        argv = ["obstruct", *paths, "--n", str(n), "--kmax", str(OBSTRUCT_KMAX),
                "--json"]
        key = (left, right, n)

        def check(out, key=key):
            got = json.loads(out)
            want = expected(key)
            if (got.get("verdict") == "obstruction-found"
                    and got.get("reason") == "alexander"
                    and (want is None or got.get("obstruction_k") < want[0])):
                return (KNOWN_ALEXANDER,
                        f"certificate at k={got['obstruction_k']} where the "
                        f"E^k lattices agree: {got.get('alexander')}")
            if want is None:
                ok = got == {"relation": "vn-only", "n": key[2],
                             "verdict": "inconclusive"}
            else:
                k, lat_l, lat_r = want
                ok = (got.get("verdict") == "obstruction-found"
                      and got.get("reason") == "ideal"
                      and got.get("obstruction_k") == k
                      and got.get("lattices") == {"left": lat_l, "right": lat_r})
            return None if ok else (WRONG, f"got {got}, expected {want}")

        cases.append(Case(f"obstruct#{i}", f"{left}@{diagrams[0].crossing_count} vs "
                          f"{right}@{diagrams[1].crossing_count}, n={n}",
                          lambda argv=argv: cli(argv), check))
        if i % 4 == 3:
            # the V(n) decision on the same pair: linking numbers only
            want = expected_verdict(*map(linking, diagrams), "vn", n)

            def check_equiv(out, n=n, want=want):
                got = json.loads(out)
                ok = got.get("verdict") == want and got.get("n") == n
                return None if ok else (WRONG, f"got {got.get('verdict')}, expected {want}")

            cases.append(Case(f"equiv#{i}", f"equiv vn n={n}, {left} vs {right}",
                              lambda argv=["equiv", *paths, "--relation", "vn", "--n", str(n),
                                           "--json"]: cli(argv),
                              check_equiv))
    return cases


def expected_verdict(lam_l, lam_r, relation, n):
    """The paper's complete invariants: lambda_ij + lambda_ji mod n (i < j)
    for odd V(n), every lambda_ij mod n for V^n + UC."""
    if len(lam_l) != len(lam_r):
        return "inequivalent"
    mu = len(lam_l)
    for i in range(mu):
        for j in range(mu):
            if i == j or (relation == "vn" and j < i):
                continue
            if relation == "vn":
                same = (lam_l[i][j] + lam_l[j][i] - lam_r[i][j] - lam_r[j][i]) % n == 0
            else:
                same = (lam_l[i][j] - lam_r[i][j]) % n == 0
            if not same:
                return "inequivalent"
    return "equivalent"


# ---------------------------------------------------------------------------
# homs: Tietze simplification and backtracking on V^n/V(n)-modified closures

HOMS_GROUPS = ("z6", "s3", "d4", "q8", "s4")
HOMS_CASES = 400
HOMS_BASES = ("h-closure:2,1,2,2", "hbar-closure:2,1,2,-3", "h-closure:3,1,2,1",
              "hbar-closure:3,2,3,2", "h-closure:3,1,3,-2", "hbar-closure:2,1,2,1",
              "h-closure:2,1,2,-1", "hbar-closure:3,1,2,3")
# S4 targets take the 2-component bases: a 3-component input that Tietze
# simplification leaves one generator too many multiplies the search by 24
# (0.03 s becomes 1-11 s), the cliff census.py measures
HOMS_S4_BASES = tuple(b for b in HOMS_BASES if b.split(":")[1].startswith("2,"))
# and only inputs that Tietze simplification reduces to at most this many
# generators: one more multiplies the search by 24 again (about 0.04 s
# becomes 1.5-2.5 s at five generators, in two of nine seeds tried)
HOMS_S4_MAX_GENS = 3
HOMS_V_MOVES = 2
HOMS_SIZES = (20, 35)


def hom_reference(key):
    """Count on the small V-modified diagram the input was grown from by
    welded moves (same group); a cyclic target must also match the
    abelianization."""
    import wld
    from wld import invariants
    text, group, presentation = key
    core = wld.parse(text)
    build = invariants.core_group if presentation == "core" else invariants.welded_group
    count = invariants.hom_count(build(core), invariants.builtin_group(group))
    if group.startswith("z"):
        n = int(group[1:])
        rank, torsion = invariants.abelianization(build(core))
        formula = n ** rank
        for f in torsion:
            formula *= math.gcd(f, n)
        if formula != count:
            return None, f"abelianization formula {formula} != count {count} of the core"
    return count, None


def simplified_generators(d, presentation):
    from wld import invariants
    build = invariants.core_group if presentation == "core" else invariants.welded_group
    return invariants.simplify_presentation(build(d)).ngens


def build_homs(rng, workdir):
    from wld import make_kind, named, scramble, serialize
    from wld.moves import EXPAND, REDUCE
    # A few V^n/V(n) moves change the link; welded growth then changes only
    # the presentation, which is what Tietze simplification has to undo.
    # S4 targets skip the V^n/V(n) moves: with them, a few generators left
    # over by Tietze make S4 counts span four orders of magnitude between
    # seeds (the cliff, measured by census.py instead).
    v_kinds = [make_kind("v^n", 3, EXPAND), make_kind("v(n)", 3, EXPAND)]
    welded = [make_kind("r1", direction=EXPAND), make_kind("r2", direction=EXPAND),
              make_kind("r2", direction=REDUCE), make_kind("r3"), make_kind("oc")]
    reference = functools.cache(hom_reference)
    sizes = stratified(rng, *HOMS_SIZES, HOMS_CASES)
    cases = []
    for i in range(HOMS_CASES):
        group = HOMS_GROUPS[i % len(HOMS_GROUPS)]
        presentation = ("welded", "core")[(i // len(HOMS_GROUPS)) % 2]
        base = (HOMS_BASES[(i // 10) % len(HOMS_BASES)] if group != "s4" else
                HOMS_S4_BASES[(i // 10) % len(HOMS_S4_BASES)])
        core = (named(base) if group == "s4" else
                scramble(named(base), v_kinds, HOMS_V_MOVES, rng.randrange(1 << 30)))
        for _ in range(100):
            d = grow(core, welded, sizes[i], rng)
            if group != "s4" or simplified_generators(d, presentation) <= HOMS_S4_MAX_GENS:
                break
        else:
            raise RuntimeError(f"no {base} input with at most {HOMS_S4_MAX_GENS} generators")
        path = write(workdir, f"homs-{i}.gc", serialize(d))
        argv = ["homs", path, "--group", group, "--presentation", presentation,
                "--json"]
        key = (serialize(core), group, presentation)

        def check(out, key=key, group=group, presentation=presentation):
            got = json.loads(out)
            want, problem = reference(key)
            if problem:
                return (WRONG, problem)
            if got != {"group": group, "presentation": presentation, "count": want}:
                return (WRONG, f"got {got}, expected count {want}")
            return None

        cases.append(Case(f"homs-{group}#{i}", f"{base} @{d.crossing_count} -> {group} "
                          f"({presentation})", lambda argv=argv: cli(argv), check))
        if i % 10 == 9:
            # colorings: integer SNF of the same inputs
            n = (3, 5, 7)[(i // 10) % 3]

            def check_col(out, core=key[0], n=n):
                got = json.loads(out)
                want = {"n": n, "count": coloring_reference(core, n)}
                return None if got == want else (WRONG, f"got {got}, expected {want}")

            cases.append(Case(f"colorings#{i}", f"colorings n={n} @{d.crossing_count}",
                              lambda p=path, n=n: cli(["colorings", p, "--n", str(n), "--json"]),
                              check_col))
    return cases


@functools.cache
def coloring_reference(core_text, n):
    """Colorings of the small diagram the input was grown from by welded
    moves (a welded invariant)."""
    import wld
    from wld.invariants import coloring_count
    return coloring_count(wld.parse(core_text), n)


# ---------------------------------------------------------------------------
# moves: scramble writes, site enumeration, same_diagram, arrow moves, search

MOVES_ROUNDS = 12
SCRAMBLE_KINDS = (("r1,r2,r3,oc", "exact"), ("r1,r2,r3,oc,v^n:3", "parallel"),
                  ("r1,r2,r3,oc,v(n):3", "twist"),
                  ("r1,r2,r3,oc,vbar^n:3", "parallel"),
                  ("r1,r2,r3,oc,vbar(n):3", "twist"))
ENUMERATE_KINDS = "r1,r2,r3,oc,uc,v,v(n):3,v^n:3,vbar(n):3,vbar^n:3"
MOVES_BASES = ("trefoil", "figure8", "hopf+", "h-closure:2,1,2,2",
               "hbar-closure:3,1,3,2")
SEARCH_BASES = ("trefoil", "figure8", "hopf+", "hopf-", "h-closure:2,1,2,1")
# (name, n, direction, linking rule, change in the number of arrows)
ARROW_KINDS = (("ar7", None, None, "exact", 0),
               ("ar8", None, "expand", "exact", 1),
               ("ar10", None, "reduce", "exact", -1),
               ("ar9", None, "expand", "exact", 2),
               ("ar9", None, "reduce", "exact", -2),
               ("heads-exchange", None, None, "exact", 0),
               ("a^n", 3, "expand", "parallel", 3),
               ("a^n", 3, "reduce", "parallel", -3),
               ("abar^n", 3, "expand", "parallel", 3),
               ("a(n)", 3, "expand", "twist", 3),
               ("abar(n)", 3, "expand", "twist", 3))


def canonical_key_case():
    """ROADMAP 5(a): basepoint rotations of this closure get different
    canonical keys with the current library."""
    from wld import build_H, closure, stack, surgery
    return closure(surgery(stack(build_H(4, 1, 2, 12), build_H(4, 3, 4, 12))))


def build_moves(rng, workdir):
    """Rounds of 11 or 12 operations: four cheap reads (two same_diagram, an
    arrow move, a search; every third round adds the ROADMAP 5(a) closure),
    five scramble writes (one per kind set) and two site enumerations.  The
    mix puts the median inside the scramble writes and the 90th percentile
    inside the enumerations."""
    import wld
    from wld import moves as mv
    from wld import arrows as ar
    cases = []
    defect = canonical_key_case()
    mixed = wld.parse_kinds("r1,r2,r3,oc,v^n:3,v(n):3")
    small_sizes = stratified(rng, 10, 30, MOVES_ROUNDS)
    big_sizes = stratified(rng, 30, 60, 2 * MOVES_ROUNDS)
    steps = stratified(rng, 20, 40, len(SCRAMBLE_KINDS) * MOVES_ROUNDS)
    for rnd in range(MOVES_ROUNDS):
        base = wld.named(MOVES_BASES[rnd % len(MOVES_BASES)])
        small = grow(base, mixed, small_sizes[rnd], rng)
        bigs = [grow(base, mixed, big_sizes[2 * rnd + k], rng) for k in range(2)]

        # reads: same_diagram on seeded rotations and relabelings
        for d in (small, bigs[0]) + ((defect,) if rnd % 3 == 0 else ()):
            other = rotate_relabel(d, rng)

            def check_same(out, d=d, known=d is defect):
                if out is True:
                    return None
                detail = (f"same_diagram returned {out!r} on a basepoint rotation "
                          f"and relabeling ({d.crossing_count} crossings)")
                # only the ROADMAP 5(a) closure is a known defect
                return (KNOWN_CANONICAL_KEY if known and out is False else WRONG, detail)

            cases.append(Case(f"same_diagram#{rnd}-{d.crossing_count}",
                              f"same_diagram @{d.crossing_count}",
                              lambda d=d, other=other: wld.same_diagram(d, other),
                              check_same))

        # arrow sites: enumerate and apply on stacked H presentations
        cases.append(_arrow_case(rng, rnd, ar))

        # search: back to the base from k known expand moves
        cases.append(_search_case(rng, rnd, wld, mv))

        # writes: scramble with each kind set
        src = write(workdir, f"moves-src-{rnd}.gc", wld.serialize(small))
        for k, (kinds_text, rule) in enumerate(SCRAMBLE_KINDS):
            dst = os.path.join(workdir, f"moves-out-{rnd}-{k}.gc")
            argv = ["scramble", src, "--moves", kinds_text, "--steps",
                    str(steps[len(SCRAMBLE_KINDS) * rnd + k]), "--seed", str(rng.randrange(1 << 30)),
                    "-o", dst]

            def check_scramble(_out, small=small, dst=dst, rule=rule):
                with open(dst) as fh:
                    out = wld.parse(fh.read())
                if not linking_kept(linking(small), linking(out), rule, 3):
                    return (WRONG, f"scramble output changed linking numbers ({rule})")
                return None

            cases.append(Case(f"scramble#{rnd}-{k}",
                              f"scramble {kinds_text} @{small.crossing_count}",
                              lambda argv=argv: cli(argv), check_scramble))

        # reads: site enumeration over every kind
        for k, big in enumerate(bigs):
            path = write(workdir, f"moves-enum-{rnd}-{k}.gc", wld.serialize(big))
            argv = ["moves", path, "--moves", ENUMERATE_KINDS, "--json"]
            probe_seed = rng.randrange(1 << 30)

            def check_enum(out, big=big, probe_seed=probe_seed):
                return _check_enumeration(json.loads(out), big, probe_seed)

            cases.append(Case(f"enumerate#{rnd}-{k}", f"moves @{big.crossing_count}",
                              lambda argv=argv: cli(argv), check_enum))
    return cases


def _check_enumeration(got, d, probe_seed):
    """Keys name every directed kind; a seeded sample of kinds re-enumerates
    to the same counts, and one of its sites applies and keeps the linking
    numbers the kind preserves."""
    import random
    import wld
    from wld import moves as mv
    directed = []
    for kind in wld.parse_kinds(ENUMERATE_KINDS):
        if kind.family in ("oc", "uc", "r3"):
            directed.append(kind)
        else:
            directed += [mv.MoveKind(kind.family, kind.n, mv.EXPAND),
                         mv.MoveKind(kind.family, kind.n, mv.REDUCE)]
    if sorted(got) != sorted(str(k) for k in directed):
        return (WRONG, f"kinds {sorted(got)}")
    probe = random.Random(probe_seed)
    before = linking(d)
    for kind in probe.sample(directed, 4):
        sites = wld.find_sites(d, kind)
        if len(sites) != got[str(kind)]:
            return (WRONG, f"{kind}: {got[str(kind)]} sites, re-enumerated {len(sites)}")
        if not sites:
            continue
        site = sites[probe.randrange(len(sites))]
        try:
            after = wld.apply(d, kind, site)
        except mv.MoveError as exc:
            return (WRONG, f"{kind} site {site.data} does not apply: {exc}")
        rule = ("twist" if "(" in kind.family else
                "parallel" if "^" in kind.family else
                None if kind.family == "v" else "exact")
        if rule and not linking_kept(before, linking(after), rule, kind.n):
            return (WRONG, f"{kind} at {site.data} changed linking numbers")
    return None


def _arrow_case(rng, rnd, ar):
    import wld
    for _ in range(100):
        mu = rng.choice((2, 3, 4))
        parts = []
        for _ in range(rng.randint(2, 3)):
            i, j = sorted(rng.sample(range(1, mu + 1), 2))
            a = rng.choice((-5, -4, -3, 3, 4, 5))
            parts.append((rng.choice(("H", "Hbar")), i, j, a))
        p = None
        for which, i, j, a in parts:
            q = (ar.build_H if which == "H" else ar.build_Hbar)(mu, i, j, a)
            p = q if p is None else ar.stack(p, q)
        name, n, direction, rule, delta = ARROW_KINDS[rng.randrange(len(ARROW_KINDS))]
        kind = ar.make_arrow_kind(name, n, direction)
        if ar.find_arrow_sites(p, kind):
            break
    else:
        raise RuntimeError("no arrow move with a site in 100 draws")
    pick = rng.randrange(1 << 30)

    def run(p=p, kind=kind, pick=pick):
        sites = ar.find_arrow_sites(p, kind)
        return len(sites), ar.apply_arrow_move(p, kind, sites[pick % len(sites)])

    def check(out, p=p, rule=rule, delta=delta, n=n):
        _count, q = out
        if len(q.arrow_ids()) - len(p.arrow_ids()) != delta:
            return (WRONG, f"arrow count changed by {len(q.arrow_ids()) - len(p.arrow_ids())}")
        before = linking(wld.closure(ar.surgery(p)))
        after = linking(wld.closure(ar.surgery(q)))
        if not linking_kept(before, after, rule, n or 1):
            return (WRONG, "arrow move changed linking numbers")
        return None

    return Case(f"arrows#{rnd}", f"{kind.name} {kind.direction} on {parts}", run, check)


def _search_case(rng, rnd, wld, mv):
    base = wld.named(SEARCH_BASES[rnd % len(SEARCH_BASES)])
    depth = 2 + rnd % 2
    expand = [wld.make_kind("r1", direction=mv.EXPAND),
              wld.make_kind("r2", direction=mv.EXPAND)]
    reduce = [wld.make_kind("r1", direction=mv.REDUCE),
              wld.make_kind("r2", direction=mv.REDUCE)]
    d = base
    for _ in range(depth):
        kind = expand[rng.randrange(2)]
        sites = wld.find_sites(d, kind)
        d = wld.apply(d, kind, sites[rng.randrange(len(sites))])

    def run(d=d, base=base, depth=depth):
        return wld.search_path(d, base, reduce, d.crossing_count, depth)

    def check(path, d=d, base=base, depth=depth):
        if path is None or len(path) > depth:
            return (WRONG, f"no path within depth {depth}")
        end = wld.replay(d, path)
        if not (wld.same_diagram(end, base) and linking(end) == linking(base)
                and end.crossing_count == base.crossing_count):
            return (WRONG, "path does not replay to the target")
        return None

    return Case(f"search#{rnd}", f"search depth {depth} from {d.crossing_count}",
                run, check)


BUILDERS = {"obstruct": build_obstruct, "homs": build_homs, "moves": build_moves}
