"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: Smith invariants via
the minor-gcd characterization, lattice equality via gcds of maximal minors,
arcs as explicit runs between under-passages with position maps, Alexander
rows as Fox derivatives of the Wirtinger relators over those runs with the
arcs inside under-runs substituted away, colorings
by exhaustive enumeration, elementary ideals by enumerating every minor of
the raw Alexander matrix, the canonical key by trying every combination of
basepoint rotations, divisibility by exact Laurent long division, move
sites by offering ``apply`` every tuple of a site's shape, R3 triangles
by a pattern table closed from the braid relation, Tietze simplification
by rescanning every relator at every step, and Gauss codes by matching each
token on its own and checking the diagram by the constructor's walk.
"""

import itertools
import operator
import re
from collections import Counter

from wld import invariants
from wld.algebra import AlgebraError, Laurent, cyclic_reduce
from wld.diagram import (DIGITS, LINK, OVER, STRING_LINK, UNDER, Diagram, DiagramError,
                         ParseError, Passage)
from wld.moves import MoveError, apply


def int_det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
            if prod == 0:
                break
        total += sign * prod
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def minor_gcds(matrix):
    """d_k = gcd of all k x k minors, for k = 1..min(m, n)."""
    if not matrix:
        return []
    m, n = len(matrix), len(matrix[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                g = _gcd(g, int_det(sub))
        out.append(g)
    return out


def snf_by_minors(matrix):
    """Invariant factors from the classical d_k / d_{k-1} formula."""
    gcds = minor_gcds(matrix)
    out = []
    prev = 1
    for d in gcds:
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def int_rank(matrix):
    if not matrix:
        return 0
    m, n = len(matrix), len(matrix[0])
    rank = 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if int_det([[matrix[r][c] for c in cols] for r in rows]):
                    return k
    return 0


def _max_minor_gcd(matrix, rank):
    g = 0
    m, n = len(matrix), len(matrix[0])
    for rows in itertools.combinations(range(m), rank):
        for cols in itertools.combinations(range(n), rank):
            g = _gcd(g, int_det([[matrix[r][c] for c in cols] for r in rows]))
    return g


def lattices_equal(rows_a, rows_b):
    """Row lattices equal iff each has the rank and maximal-minor gcd of the
    stacked matrix (nested lattices of equal rank and covolume coincide)."""
    rows_a = [list(r) for r in rows_a if any(r)]
    rows_b = [list(r) for r in rows_b if any(r)]
    if not rows_a and not rows_b:
        return True
    if not rows_a or not rows_b:
        return False
    stacked = rows_a + rows_b
    r = int_rank(stacked)
    if int_rank(rows_a) != r or int_rank(rows_b) != r:
        return False
    g = _max_minor_gcd(stacked, r)
    return (_max_minor_gcd(rows_a, r) == g and _max_minor_gcd(rows_b, r) == g)


def is_hnf(rows):
    """Row-style HNF shape: positive pivots strictly moving right, entries
    above each pivot reduced into [0, pivot), no zero rows."""
    last = -1
    for i, row in enumerate(rows):
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None or lead <= last:
            return False
        if row[lead] <= 0:
            return False
        for r in range(i):
            if not 0 <= rows[r][lead] < row[lead]:
                return False
        last = lead
    return True


def arc_data_reference(d):
    """(arcs, pos_to_arc, under_out) from explicit runs.

    ``arcs`` lists (component, positions) runs: on a link component, the
    positions from just after one under-passage up to and including the
    next (all positions, in order, when there is none); on a string-link
    strand, the runs up to each under-passage and a trailing run to the top
    (possibly empty).  ``pos_to_arc[(c, p)]`` is the arc holding position p
    of component c, and ``under_out[(c, p)]`` the arc that begins just
    after the under-passage at p.
    """
    arc_list = []
    pos_to_arc = {}
    under_out = {}
    for ci, comp in enumerate(d.components):
        n = len(comp)
        unders = [i for i, psg in enumerate(comp) if psg.role == UNDER]
        if d.kind == STRING_LINK:
            runs = []
            prev = -1
            for u in unders:
                runs.append(list(range(prev + 1, u + 1)))
                prev = u
            runs.append(list(range(prev + 1, n)))
            for k, run in enumerate(runs):
                idx = len(arc_list)
                arc_list.append((ci, tuple(run)))
                for p in run:
                    pos_to_arc[(ci, p)] = idx
                if k > 0:
                    under_out[(ci, unders[k - 1])] = idx
        else:
            if not unders:
                idx = len(arc_list)
                arc_list.append((ci, tuple(range(n))))
                for p in range(n):
                    pos_to_arc[(ci, p)] = idx
                continue
            first = len(arc_list)
            for k, u in enumerate(unders):
                prev = unders[k - 1] if k > 0 else unders[-1]
                run = []
                p = (prev + 1) % n
                while True:
                    run.append(p)
                    if p == u:
                        break
                    p = (p + 1) % n
                idx = len(arc_list)
                arc_list.append((ci, tuple(run)))
                for p in run:
                    pos_to_arc[(ci, p)] = idx
            for k, u in enumerate(unders):
                under_out[(ci, u)] = first + (k + 1) % len(unders)
    return arc_list, pos_to_arc, under_out


def crossing_arcs_reference(d):
    """Per crossing id, increasing: (over-arc, under-in arc, under-out arc,
    sign), read off the position maps of ``arc_data_reference``."""
    _, pos_to_arc, under_out = arc_data_reference(d)
    over, under, sign = {}, {}, {}
    for ci, comp in enumerate(d.components):
        for p, psg in enumerate(comp):
            (under if psg.role == UNDER else over)[psg.crossing] = (ci, p)
            sign[psg.crossing] = psg.sign
    return {cid: (pos_to_arc[over[cid]], pos_to_arc[under[cid]],
                  under_out[under[cid]], sign[cid]) for cid in sorted(sign)}


def _fox_row_by_definition(word):
    """{generator: Laurent} with every generator sent to t: a letter g^e
    after a prefix of exponent sum s adds t^s to column g when e = 1 and
    -t^(s-1) when e = -1."""
    cells = {}
    s = 0
    for g, e in word:
        if e == 1:
            cells.setdefault(g, []).append((s, 1))
        else:
            cells.setdefault(g, []).append((s - 1, -1))
        s += e
    return {g: Laurent(terms) for g, terms in cells.items()}


def _freely_trivial(word):
    out = []
    for g, e in word:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return not out


def under_runs_reference(d):
    """Under-runs read off the Gauss code: per component, the maximal
    stretches of adjacent under-passages (cyclically on a link component)
    whose crossings pass under one arc, as (crossing ids in order, inner
    arcs).  Two adjacent under-passages enclose an arc with no passage over
    it, the arc holding the second.  A link component whose passages are
    all under one arc is one run around it, every arc inner but the first
    (the one holding position 0), which is both of its ends."""
    _, pos_to_arc, _ = arc_data_reference(d)
    over_at = {}
    for ci, comp in enumerate(d.components):
        for p, psg in enumerate(comp):
            if psg.role == OVER:
                over_at[psg.crossing] = pos_to_arc[(ci, p)]
    runs = []
    for ci, comp in enumerate(d.components):
        n = len(comp)
        cyclic = d.kind != STRING_LINK

        def joined(p):
            # the under-passage at p + 1 goes on the run of the one at p
            q = (p + 1) % n
            return (comp[p].role == comp[q].role == UNDER and (cyclic or q)
                    and over_at[comp[p].crossing] == over_at[comp[q].crossing])

        if cyclic and n and all(joined(p) for p in range(n)):
            runs.append((tuple(psg.crossing for psg in comp),
                         [pos_to_arc[(ci, p)] for p in range(1, n)]))
            continue
        # start each run at an under-passage not joined to the one before
        for p in range(n):
            if comp[p].role != UNDER or (p - 1 >= 0 or cyclic) and joined((p - 1) % n):
                continue
            crossings, inner = [comp[p].crossing], []
            while joined(p):
                p = (p + 1) % n
                crossings.append(comp[p].crossing)
                inner.append(pos_to_arc[(ci, p)])
            runs.append((tuple(crossings), inner))
    return runs


def alexander_rows_reference(d, n=None):
    """(rows, g, pivots) of the Alexander matrix with the inner arcs of
    every under-run eliminated, one row per under-run, which
    ``invariants._alexander_rows`` collapses further; by substitution: per
    crossing whose Wirtinger relator (z^-1 y x y^-1 at a positive crossing,
    z^-1 y^-1 x y at a negative one) is not freely trivial, its Fox row;
    then every inner arc of ``under_runs_reference`` (one pivot each)
    solved from the row of the crossing it leaves, whose entry there is a
    unit, and substituted into every other row.  The rows left are in
    crossing id order; given n, every entry is reduced by
    ``fold_bruteforce``; zero entries and rows are left out."""
    arcs = crossing_arcs_reference(d)
    rows = {}
    for cid, (y, x, z, sign) in arcs.items():
        if sign > 0:
            word = ((z, -1), (y, 1), (x, 1), (y, -1))
        else:
            word = ((z, -1), (y, -1), (x, 1), (y, 1))
        if not _freely_trivial(word):
            rows[cid] = {g: p for g, p in _fox_row_by_definition(word).items() if p}
    leaving = {z: cid for cid, (_y, _x, z, _sign) in arcs.items()}
    inner = [a for _, arcs_in in under_runs_reference(d) for a in arcs_in]
    for a in inner:
        solved = rows.pop(leaving[a])
        unit = solved.pop(a)
        assert len(unit.coeffs) == 1 and unit.coeffs[0] in (1, -1), unit
        # a = -unit^-1 * (the rest of the solved row)
        factor = -Laurent({-unit.low: unit.coeffs[0]})
        for row in rows.values():
            e = row.pop(a, None)
            if e is None:
                continue
            for g, p in solved.items():
                row[g] = row.get(g, Laurent()) + e * factor * p
    out = []
    for row in rows.values():
        row = {g: fold_bruteforce(p, n) if n else p for g, p in row.items()}
        row = {g: p for g, p in sorted(row.items()) if p}
        if row:
            out.append(row)
    return out, len(arc_data_reference(d)[0]), len(inner)


def colorings_exhaustive(d, n):
    """Count maps arcs -> Z/n with 2y = x + z at every crossing."""
    narcs = len(arc_data_reference(d)[0])
    table = crossing_arcs_reference(d)
    count = 0
    for assignment in itertools.product(range(n), repeat=narcs):
        if all((2 * assignment[y] - assignment[x] - assignment[z]) % n == 0
               for y, x, z, _ in table.values()):
            count += 1
    return count


def canonical_key_bruteforce(d):
    """Least relabelled code over every combination of basepoint rotations
    (rotation 0 only for string links and components of length <= 1);
    crossings are labelled by first occurrence across the whole code."""
    rotations = [range(1 if d.kind == STRING_LINK or len(comp) <= 1 else len(comp))
                 for comp in d.components]
    best = None
    for combo in itertools.product(*rotations):
        labels = {}
        words = []
        for comp, r in zip(d.components, combo):
            word = []
            for psg in comp[r:] + comp[:r]:
                if psg.crossing not in labels:
                    labels[psg.crossing] = len(labels)
                word.append((psg.role, psg.sign, labels[psg.crossing]))
            words.append(tuple(word))
        key = (d.kind, tuple(words))
        if best is None or key < best:
            best = key
    return best


def sites_bruteforce(d, kind):
    """Every tuple of a reduce or undirected kind's site shape that ``apply``
    accepts, sorted: each (c, p) for r1, oc and uc, each sorted triple of
    them for r3, each (c1, p1, c2, p2, parallel) for r2 and each
    (c1, p1, c2, p2) for a V^n/V(n) block."""
    spots = [(ci, p) for ci, comp in enumerate(d.components) for p in range(len(comp))]
    if kind.family in ("r1", "oc", "uc"):
        candidates = spots
    elif kind.family == "r3":
        candidates = itertools.combinations(spots, 3)
    elif kind.family == "r2":
        candidates = (a + b + (parallel,) for a in spots for b in spots
                      for parallel in (True, False))
    else:
        candidates = (a + b for a in spots for b in spots)
    found = []
    for site in candidates:
        try:
            apply(d, kind, site)
        except MoveError:
            continue
        found.append(site)
    return sorted(found)


# R3 pattern table, closed from the triangle of the braid relation
#
# s1 s2 s1 = s2 s1 s2 gives one R3 triangle: the top strand passes over its
# two crossings, the middle strand under the top one and then over the
# bottom one, the bottom strand under both, every crossing positive.  Every
# oriented R3 configuration comes from it by reversing strands and taking
# the mirror image (Polyak, Minimal generating sets of Reidemeister moves,
# 2010).  A reversed strand meets its two crossings backwards and negates
# their signs; the mirror image negates every sign.  The move itself reads
# every pair backwards, which is reversing all three strands, so the table
# is closed under it.  It holds every order of the three pairs, so a site's
# pairs match as they come.

# per strand (top, middle, bottom), its crossings in travel order, each
# named by the two strands it joins, with the strand's role there
R3_SEED = ((((0, 1), OVER), ((0, 2), OVER)),
           (((0, 1), UNDER), ((1, 2), OVER)),
           (((0, 2), UNDER), ((1, 2), UNDER)))


def triple_key(edges):
    """Key of three (first-passage, second-passage) pairs up to crossing
    names.

    Each passage is (crossing-key, role, sign); a crossing key is replaced
    by the slots of the pairs it joins.
    """
    owners = {}
    for ei, edge in enumerate(edges):
        for ckey, _, _ in edge:
            owners.setdefault(ckey, []).append(ei)
    return tuple(tuple((tuple(owners[ckey]), role, sign) for ckey, role, sign in edge)
                 for edge in edges)


def r3_pattern_table():
    patterns = set()
    # flips[s] is -1 where strand s is reversed and mirror -1 for the mirror
    # image; the crossing of strands i and j then has sign
    # mirror * flips[i] * flips[j]
    for flips in itertools.product((1, -1), repeat=3):
        for mirror in (1, -1):
            edges = [tuple((c, role, mirror * flips[c[0]] * flips[c[1]])
                           for c, role in pair[::flips[s]])
                     for s, pair in enumerate(R3_SEED)]
            patterns.update(triple_key(order) for order in itertools.permutations(edges))
    return frozenset(patterns)


def hom_count_exhaustive(pres, group):
    """Count homomorphisms by enumerating all generator images."""
    table = group.table
    invs = group.inverse
    ident = group.identity
    count = 0
    for assignment in itertools.product(range(group.order), repeat=pres.ngens):
        ok = True
        for rel in pres.relators:
            acc = ident
            for g, e in rel:
                img = assignment[g]
                acc = table[acc][img if e == 1 else invs[img]]
            if acc != ident:
                ok = False
                break
        if ok:
            count += 1
    return count


def simplify_presentation_rescan(p):
    """``invariants.simplify_presentation`` as a rescan: each step scans every
    relator for the shortest one holding a generator that occurs once in it,
    and every relator again for the ones to rewrite; duplicates are found by
    comparing all rotations of each relator and its inverse.  Reads the
    budget from ``invariants._LENGTH_BUDGET``."""
    relators = [r for r in map(cyclic_reduce, p.relators) if r]
    counts = [Counter(map(_generator, r)) for r in relators]
    total = sum(map(len, relators))
    budget = max(invariants._LENGTH_BUDGET, total)
    alive = list(range(p.ngens))
    blocked = set()
    while True:
        best = None
        for ri, rel in enumerate(relators):
            if best is not None and len(rel) >= best[0]:
                continue
            for g, c in counts[ri].items():
                if c == 1 and g not in blocked:
                    best = (len(rel), ri, g)
                    break
        if best is None:
            break
        _, ri, gen = best
        rel = relators[ri]
        pos = next(i for i, (g, _) in enumerate(rel) if g == gen)
        rest = rel[pos + 1:] + rel[:pos]
        if rel[pos][1] == -1:
            repl, inv = rest, _word_inverse(rest)
        else:
            repl, inv = _word_inverse(rest), rest
        subs = {i: _substitute(r, gen, repl, inv) for i, r in enumerate(relators)
                if i != ri and gen in counts[i]}
        new_total = (total - len(rel) + sum(len(w) for w in subs.values())
                     - sum(len(relators[i]) for i in subs))
        if new_total > budget and len(relators) > 1:
            blocked.add(gen)
            continue
        for i, w in subs.items():
            relators[i] = w
            counts[i] = Counter(map(_generator, w))
        for i in sorted([ri] + [i for i, w in subs.items() if not w], reverse=True):
            del relators[i], counts[i]
        total = new_total
        alive.remove(gen)
        blocked.clear()
    index = {g: i for i, g in enumerate(alive)}
    out = []
    seen = set()
    for rel in relators:
        rel = cyclic_reduce(tuple((index[g], e) for g, e in rel))
        if not rel:
            continue
        key = min(_cyclic_keys(rel))
        if key in seen:
            continue
        seen.add(key)
        out.append(rel)
    components = tuple(p.components[g] for g in alive) if p.components else ()
    return invariants.GroupPresentation(len(alive), tuple(out), components)


_generator = operator.itemgetter(0)


def _word_inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


def _substitute(rel, gen, repl, inv):
    word = []
    for g, e in rel:
        if g == gen:
            word.extend(repl if e == 1 else inv)
        else:
            word.append((g, e))
    return cyclic_reduce(tuple(word))


def _cyclic_keys(rel):
    words = [rel, _word_inverse(rel)]
    for w in words:
        for k in range(len(w)):
            yield w[k:] + w[:k]


def laurent_det_bruteforce(matrix):
    n = len(matrix)
    if n == 0:
        return Laurent({0: 1})
    total = Laurent()
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = Laurent({0: 1})
        for i, j in enumerate(perm):
            prod = prod * matrix[i][j]
        total = total + (prod if sign > 0 else -prod)
    return total


def exact_div(p, q):
    """Exact division of Laurent polynomials; raises if not divisible."""
    if not q:
        raise AlgebraError("division by zero polynomial")
    if not p:
        return Laurent()
    a, b = list(p.coeffs), q.coeffs
    db, lead = len(b) - 1, b[-1]
    if len(a) <= db:
        raise AlgebraError("not divisible")
    out = [0] * (len(a) - db)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(a[k + db], lead)
        if rem:
            raise AlgebraError("not divisible")
        if c:
            out[k] = c
            for i, y in enumerate(b, k):
                a[i] -= c * y
    if any(a):
        raise AlgebraError("not divisible")
    return Laurent(enumerate(out, p.low - q.low))


def fold_bruteforce(p, n):
    """p modulo t^n - 1: every exponent taken mod n, like terms summed."""
    return Laurent([(e % n, c) for e, c in enumerate(p.coeffs, p.low)])


def elementary_ideal_bruteforce(d, k):
    """Generators of E^k as the raw (g-k)-minors of the Alexander matrix."""
    from wld.invariants import welded_group

    pres = welded_group(d)
    g = pres.ngens
    matrix = [[row.get(j, Laurent()) for j in range(g)]
              for row in map(_fox_row_by_definition, pres.relators)]
    s = g - k
    if s <= 0:
        return [Laurent({0: 1})]
    if s > len(matrix):
        return []
    out = []
    for rows in itertools.combinations(range(len(matrix)), s):
        for cols in itertools.combinations(range(g), s):
            sub = [[matrix[r][c] for c in cols] for r in rows]
            det = laurent_det_bruteforce(sub)
            if det:
                out.append(det)
    return out


def parse_per_token(text):
    """``diagram.parse`` as a per-token reader: each token is matched on its
    own and built through ``Passage``, and the constructor's walk checks the
    whole diagram."""
    kind = LINK
    components = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "stringlink" and header_allowed:
            kind = STRING_LINK
            header_allowed = False
            continue
        header_allowed = False
        if not line.startswith("component:"):
            raise ParseError(f"expected 'component:' line, got {line!r}", lineno)
        body = line[len("component:"):]
        components.append(tuple(_parse_token(tok, lineno) for tok in body.split()))
    if not components:
        raise ParseError("no components found")
    try:
        return Diagram(tuple(components), kind)
    except DiagramError as exc:
        # name the line of the crossing's last passage; every line that
        # starts with "component:" gave one component, in order
        comp_lines = (lineno for lineno, raw in enumerate(text.splitlines(), start=1)
                      if raw.strip().startswith("component:"))
        line = max((lineno for lineno, comp in zip(comp_lines, components)
                    if any(psg.crossing == exc.crossing for psg in comp)), default=None)
        raise ParseError(str(exc), line) from exc


_TOKEN = re.compile(rf"([{OVER}{UNDER}])({DIGITS})([+-])")


def _parse_token(tok, lineno):
    m = _TOKEN.fullmatch(tok)
    cid = int(m[2]) if m else 0
    if cid < 1:
        raise ParseError(f"unknown token {tok!r}", lineno)
    return Passage(cid, m[1], 1 if m[3] == "+" else -1)
