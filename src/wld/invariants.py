"""Invariants of welded link diagrams.

Wirtinger-style welded group presentations, core group presentations,
elementary ideals / Alexander polynomials via the Fox derivative (over
Z[t^+-1], or their images in Z[t]/(t^n - 1) straight from the crossing
table), homomorphism and coloring counts, and abelianizations.

Wirtinger convention: at a positive crossing with over-arc y, under-in arc
x and under-out arc z the relator is z^-1 y x y^-1; a negative crossing
conjugates by y^-1 instead.  This normalization gives the trefoil first
Alexander polynomial 1 - t + t^2.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from dataclasses import dataclass

from . import diagram as dg
from .algebra import (INTEGERS, LAURENT, AlgebraError, Laurent, cyclic_reduce,
                      cyclic_ring, fold, free_reduce, laurent_minors, poly_gcd,
                      snf)


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation; relators are freely reduced words over
    generators 0..ngens-1.

    ``components`` is empty or holds one component index per generator;
    generators with equal indices are conjugate in the presented group, so
    ``hom_count`` sends them into one conjugacy class of the target.
    """

    ngens: int
    relators: tuple
    components: tuple = ()


def welded_group(d):
    """Arc-generated presentation of the diagram group, one relator
    z^-1 y^s x y^-s per classical crossing of sign s.  Each relator
    conjugates the under-in arc into the under-out arc, so the arcs of one
    component are conjugate and ``components`` records each arc's
    component."""
    return _arc_presentation(d, lambda y, x, z, s: ((z, -1), (y, s), (x, 1), (y, -s)))


def core_group(d):
    """Unoriented core presentation: relator y x^-1 y z^-1 per crossing,
    independent of crossing signs and of component orientations.  Arcs of
    one component need not be conjugate here, so ``components`` is empty."""
    p = _arc_presentation(d, lambda y, x, z, s: ((y, 1), (x, -1), (y, 1), (z, -1)))
    return GroupPresentation(p.ngens, p.relators)


def _arc_presentation(d, word):
    """The presentation on the arcs of d, each recorded with its component,
    whose relators are the freely reduced, nonempty ``word(over-arc,
    under-in arc, under-out arc, sign)`` of each crossing."""
    arcs, components = dg.crossing_arcs(d)
    relators = tuple(rel for rel in (free_reduce(word(*arc)) for arc in arcs.values()) if rel)
    return GroupPresentation(len(components), relators, components)


def abelianization(p):
    """(free rank, invariant factors > 1) of the abelianized presentation.

    The relation matrix is eliminated on sparse rows over Z first (see
    ``_pivot_reduce``); only what is left goes to the dense ``snf``, and each
    pivot stands for one invariant factor 1.
    """
    rows = []
    for rel in p.relators:
        row = {}
        for g, e in rel:
            row[g] = row.get(g, 0) + e
        rows.append({g: e for g, e in row.items() if e})
    reduced, pivots = _pivot_reduce(rows, INTEGERS)
    cols = sorted({c for row in reduced for c in row})
    factors = snf([[row.get(c, 0) for c in cols] for row in reduced])
    return p.ngens - pivots - len(factors), tuple(f for f in factors if f > 1)


# ---------------------------------------------------------------------------
# Alexander matrices and elementary ideals

@functools.cache
def _run_entries(sigma, n):
    """The entries of the row of a run of sign sum sigma (see
    ``_alexander_rows``): x: t^sigma, z: -1 and y: 1 - t^sigma, times the
    unit t^-sigma when sigma < 0 so that no exponent is negative, and given
    n folded into R_n, where the caller passes sigma mod n; then the sum
    x + z for a run whose ends are one class."""
    u = Laurent({abs(sigma): 1})
    one = Laurent({0: 1})
    ex, ez, ey = (u, -one, one - u) if sigma >= 0 else (one, -u, u - one)
    entries = (ex, ez, ey, ex + ez)
    if n is not None:
        entries = tuple(fold(p, n) for p in entries)
    return entries


def _alexander_rows(d, n=None):
    """(rows, g, pivots): the Alexander matrix after the unit pivots that
    integer bookkeeping alone can take, as sparse rows {column: nonzero
    entry}; the arc count g; and the number of pivots taken (see
    ``_pivot_reduce``).  Given n, the entries are folded into R_n (see
    ``fold``).  The columns are classes of arcs, each labelled by one arc.

    A run from arc x to arc z under the over-arc y, of sign sum sigma,
    stands for the row t^sigma x - z + (1 - t^sigma) y up to a unit, the
    relation z = t^sigma x + (1 - t^sigma) y; the entries of arcs of one
    class add up.  Each crossing starts as a run: the Fox row of its
    relator (see ``welded_group``) times the unit t at a positive and t^2
    at a negative crossing is t^s x - z + (1 - t^s) y, s its sign.  Every
    arc is the under-in arc of at most one crossing and the under-out arc
    of at most one, so every class starts at most one run and ends at most
    one; both steps below keep this, and the runs form paths and cycles
    through the classes.  Two steps repeat until neither applies:

    - Rename.  If t^sigma = 1 (sigma = 0 mod n in R_n, sigma = 0 over
      Z[t^+-1]), or y is in x's class, or in z's, the row is x - z, x - z
      or t^sigma (x - z).  If x and z are one class it is zero and is
      dropped, with no pivot.  Otherwise its entry at z is a unit; adding
      column z to column x and clearing column z with this row leaves
      diag(unit, M'), where M' is the other rows with z's class merged into
      x's: one pivot (see ``_pivot_reduce`` for why a pivot keeps the
      ideals).  The runs over either class are then over the merged one.
    - Compose.  If run A goes from x to a and run B from a to z, both under
      one class y, and no run passes over a, then column a holds -1 in A
      and t^sigma_B in B and nothing else: a is not y, and it is neither x
      nor z, since it starts and ends only B and A.  Pivoting on A's -1
      substitutes a = t^sA x + (1 - t^sA) y into B, giving t^(sA+sB) x - z
      + (1 - t^(sA+sB)) y, the run from x to z of sign sum sA + sB: one
      pivot.

    Each step removes a run, so the loop stops.  It sweeps the live runs,
    and a step puts the runs it may have made eligible back on the sweep's
    worklist: a composition its new run; a rename the runs ending and
    starting at the merged class, and at the renamed run's over-arc class
    if no run passes over it any more.  A merge of two over-arc classes can
    also let two runs compose; a later sweep finds them.  The loop ends
    after a sweep that takes no step, so neither step applies to what is
    left: each row is t^sigma x - z + (1 - t^sigma) y with t^sigma != 1 and
    y apart from x and z, or (t^sigma - 1)(x - y) where x and z are one
    class.  A V^n block (n crossings of one sign under one arc) or an R2
    pair (two of opposite signs) with no crossing over its inner arcs
    composes into one run with t^sigma = 1 in R_n, and its rename leaves no
    row of it.
    """
    arcs, components = dg.crossing_arcs(d)
    g = len(components)
    # per run, one per crossing: its ends and over-arc (x and z are always
    # class roots, y is read through _root) and its sign sum, mod n in R_n
    ys, xs, zs, sigmas = map(list, zip(*arcs.values())) if arcs else ([], [], [], [])
    if n is not None:
        sigmas = [s % n for s in sigmas]
    # per class root: the run ending there, the run starting there and the
    # number of runs over it
    into, out_of, over = [None] * g, [None] * g, [0] * g
    for i, x in enumerate(xs):
        out_of[x] = i
    for i, z in enumerate(zs):
        into[z] = i
    for y in ys:
        over[y] += 1
    live = [True] * len(xs)
    parent = list(range(g))
    pivots = 0
    changed = True
    while changed:
        changed = False
        work = [i for i in range(len(xs) - 1, -1, -1) if live[i]]
        while work:
            i = work.pop()
            if i is None or not live[i]:
                continue
            x, z, y = xs[i], zs[i], _root(parent, ys[i])
            if not sigmas[i] or y == x or y == z:
                # rename: merge z into x
                live[i] = False
                over[y] -= 1
                out_of[x] = into[z] = None
                if x != z:
                    pivots += 1
                    parent[z] = x
                    over[x] += over[z]
                    after = out_of[x] = out_of[z]
                    if after is not None:
                        xs[after] = x
                    work += (into[x], after)
                y = _root(parent, y)
                if not over[y]:
                    work += (into[y], out_of[y])
                changed = True
                continue
            # compose with the run after i, or else with the run before it
            a, b, v = i, out_of[z], z
            if b is None or b == i or over[z] or _root(parent, ys[b]) != y:
                a, b, v = into[x], i, x
                if a is None or a == i or over[x] or _root(parent, ys[a]) != y:
                    continue
            live[a] = False
            u = xs[b] = xs[a]
            out_of[u] = b
            into[v] = out_of[v] = None
            sigma = sigmas[a] + sigmas[b]
            sigmas[b] = sigma if n is None else sigma % n
            over[y] -= 1
            pivots += 1
            changed = True
            work.append(b)
    rows = []
    for i in range(len(xs)):
        if live[i]:
            x, z, y = xs[i], zs[i], _root(parent, ys[i])
            ex, ez, ey, exz = _run_entries(sigmas[i], n)
            rows.append({x: ex, z: ez, y: ey} if x != z else {x: exz, y: ey})
    return rows, g, pivots


def _root(parent, a):
    """The root of a in the union-find forest ``parent``, halving the path
    to it."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def _pivot_reduce(rows, ring):
    """Eliminate the unit entries of sparse rows {column: entry} over ``ring``.

    The ring contract (``algebra.Ring``): a commutative ring whose elements
    add with ``+`` and are false exactly when zero, given by ``is_unit``
    (the entries to pivot on), ``neg_inverse(u)`` = -u^-1 and the product
    ``mul``.  The instances are ``INTEGERS`` (units +-1), ``LAURENT``
    (Z[t^+-1], units +-t^a) and ``cyclic_ring(n)`` (R_n = Z[t]/(t^n - 1) on
    folded polynomials, units +-t^a).

    Why a pivot keeps the answer: at a unit u in row i, column j, adding
    e * (-u^-1) times row i to every row r with entry e in column j clears
    the rest of column j; column operations, which then touch row i only,
    clear the rest of row i.  Both are invertible over the ring, so the
    matrix is equivalent to the block matrix diag(u, M'), with M' the other
    rows without column j.  Equivalent matrices have equal ideals of
    s-minors (Fitting ideals), and for diag(u, M') that ideal is the one of
    the (s-1)-minors of M': every s-minor is u times an (s-1)-minor of M',
    an s-minor of M' (in that ideal by Laplace expansion), or 0.  So the
    returned (rows, pivots) carries the elementary ideals of the input,
    whose rows it consumes: its s-minors generate the ideal of the input's
    (s + pivots)-minors.  Over Z, equivalent matrices share their Smith
    form, and that of diag(+-1, M') is the Smith form of M' with one more
    factor 1.

    Pivots go by least fill, (row entries - 1) * (column entries - 1), kept
    lazily in a heap: a popped unit whose fill has grown goes back with the
    new fill, and a pivot pushes only the entries it rewrote into units.
    All-zero rows are dropped; the columns left keep their labels.
    """
    is_unit, neg_inverse, mul = ring
    live = {i: row for i, row in enumerate(rows) if row}
    in_col = {}
    for i, row in live.items():
        for j in row:
            in_col.setdefault(j, set()).add(i)
    heap = [((len(row) - 1) * (len(in_col[j]) - 1), i, j)
            for i, row in live.items() for j, p in row.items() if is_unit(p)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    pivots = 0
    while heap:
        old_fill, i, j = pop(heap)
        prow = live.get(i)
        if prow is None:
            continue
        unit = prow.get(j)
        if unit is None or not is_unit(unit):
            continue
        col = in_col[j]
        now = (len(prow) - 1) * (len(col) - 1)
        if now > old_fill:
            push(heap, (now, i, j))
            continue
        del live[i], in_col[j], prow[j]
        col.discard(i)
        for c in prow:
            in_col[c].discard(i)
        # row r gains its entry e in column j over -unit times the pivot row
        factor = neg_inverse(unit)
        for r in col:
            row = live[r]
            e = mul(row.pop(j), factor)
            for c, b in prow.items():
                old = row.get(c)
                if old is None:
                    new = mul(e, b)
                    if not new:
                        continue
                    in_col[c].add(r)
                else:
                    new = old + mul(e, b)
                    if not new:
                        del row[c]
                        in_col[c].discard(r)
                        continue
                row[c] = new
                if is_unit(new):
                    push(heap, ((len(row) - 1) * (len(in_col[c]) - 1), r, c))
            if not row:
                del live[r]
        pivots += 1
    return list(live.values()), pivots


def elementary_ideals(d, kmax, n=None):
    """Generators of E^0..E^kmax of the welded group.

    E^k is the ideal of (g-k)-minors of the Alexander matrix: the whole ring
    when g-k <= 0 and the zero ideal when g-k exceeds the relator count.
    Returned lists generate the same ideals as the full minor sets.

    The matrix comes collapsed by two integer steps (see
    ``_alexander_rows``), each a unit pivot or a zero row dropped.  A
    rename takes a row that is a unit times x - z, because t^sigma = 1 (in
    R_n, the row of a V^n block) or because its over-arc is one of its
    ends, and merges column z into column x.  A composition takes a column
    a with two entries only, the unit -1 in one run's row and t^sigma in
    the next run's, and substitutes the first row into the second.  A unit
    pivot leaves diag(unit, M') (see ``_pivot_reduce``), so the ideal of
    (s + 1)-minors is that of the s-minors of M', and a zero row adds no
    nonzero minor.  The unit pivots left are then eliminated by
    ``_pivot_reduce``.  Each pivot of either kind takes one from every
    minor size, and the minors of every size needed come from one
    ``laurent_minors`` memo.

    Given n >= 1 (n = None means Z[t^+-1]), the lists hold folded
    polynomials generating the images of the E^k in R_n = Z[t]/(t^n - 1).
    Determinants commute with the ring map Z[t^+-1] -> R_n, so the minors
    of the folded matrix are the images of the minors, which generate the
    image of E^k (Fitting ideals commute with base change); both the
    elimination and the minors run in R_n.
    """
    if kmax < 0:
        raise AlgebraError(f"E^k needs k >= 0, got {kmax}")
    ring = LAURENT if n is None else cyclic_ring(n)
    rows, g, run_pivots = _alexander_rows(d, n)
    reduced, pivots = _pivot_reduce(rows, ring)
    pivots += run_pivots
    # size 0 yields the 0 x 0 minor 1, the whole ring; a size beyond the
    # rows left yields no minor, the zero ideal, as g - k > len(rows) does
    sizes = [max(g - k - pivots, 0) for k in range(kmax + 1)]
    by_size = {}
    for (rset, _cols), minor in laurent_minors(reduced, sizes, ring).items():
        by_size.setdefault(len(rset), []).append(minor)
    return [list(by_size.get(s, ())) for s in sizes]


def alexander(d, k):
    """(generators of E^k, k-th Alexander polynomial = gcd of E^k)."""
    gens = elementary_ideals(d, k)[k]
    return gens, poly_gcd(gens)


def alexander_polynomials(d, kmax):
    return [poly_gcd(gens) for gens in elementary_ideals(d, kmax)]


# ---------------------------------------------------------------------------
# finite groups and homomorphism counting

class GroupTableError(ValueError):
    pass


class FiniteGroupTable:
    """Multiplication table of a finite group, validated on construction.

    Rows are tuples, so one instance can be shared (``builtin_group`` does).
    ``classes`` lists the conjugacy classes as sorted tuples, ordered by
    their least element; ``class_of[x]`` indexes the class of ``x``.
    ``by_inverse[a][x]`` is a x^-1 and ``element_orders[x]`` the order of
    x, both for ``hom_count``.
    """

    def __init__(self, name, table):
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        n = self.order
        if n < 1 or any(len(row) != n for row in self.table):
            raise GroupTableError("table must be square and nonempty")
        for row in self.table:
            for entry in row:
                if not isinstance(entry, int) or not 0 <= entry < n:
                    raise GroupTableError("table entries must index elements")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupTableError("no identity element")
        self.identity = identity
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == identity:
                    inverse[a] = b
            if inverse[a] is None:
                raise GroupTableError(f"element {a} has no inverse")
        self.inverse = tuple(inverse)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise GroupTableError("multiplication is not associative")
        class_of = [None] * n
        classes = []
        for x in range(n):
            if class_of[x] is None:
                members = tuple(sorted({self.table[self.table[g][x]][inverse[g]]
                                        for g in range(n)}))
                for y in members:
                    class_of[y] = len(classes)
                classes.append(members)
        self.classes = tuple(classes)
        self.class_of = tuple(class_of)
        self.by_inverse = tuple(tuple(row[x] for x in inverse) for row in self.table)
        orders = []
        for x in range(n):
            k, power = 1, x
            while power != identity:
                k, power = k + 1, self.table[power][x]
            orders.append(k)
        self.element_orders = tuple(orders)

    def __repr__(self):
        return f"FiniteGroupTable({self.name!r}, order={self.order})"


def _permutation_group(name, gens):
    """The group generated by permutations of range(n) (tuples of images),
    its elements numbered in sorted order, identity first; the product of
    p and q is p after q."""
    elements, size = {tuple(range(len(gens[0])))}, 0
    while size < len(elements):
        size = len(elements)
        elements |= {tuple(p[i] for i in g) for p in elements for g in gens}
    perms = sorted(elements)
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroupTable(name, [[index[tuple(p[i] for i in q)] for q in perms]
                                   for p in perms])


def builtin_group(name):
    """Groups addressable by name: z2..z12, d3..d8, s3, s4, q8.

    Names are case-insensitive, without leading zeros; each is built and
    validated once per process, and later calls return the same instance.
    """
    return _builtin_group(name.lower())


def _cycle(n):
    return tuple(range(1, n)) + (0,)


# family letter -> (the n it is built for, generating permutations of
# range(n)): the n-cycle i -> i + 1 for z_n, whose element i is its i-th
# power; with the reflection i -> -i for d_n, the symmetries of an n-gon;
# and with (0 1) for s_n
_FAMILIES = {
    "z": (range(2, 13), lambda n: [_cycle(n)]),
    "d": (range(3, 9), lambda n: [_cycle(n), tuple(-i % n for i in range(n))]),
    "s": (range(3, 5), lambda n: [_cycle(n), (1, 0) + tuple(range(2, n))]),
}
# Q8 = {+-1, +-i, +-j, +-k} as left multiplication by i and by j on the
# units numbered 1, i, j, k, -1, -i, -j, -k
_Q8 = [(1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)]


@functools.cache
def _builtin_group(name):
    if name == "q8":
        return _permutation_group(name, _Q8)
    # one spelling per group: its size in ASCII digits with no leading zero
    m = re.fullmatch(r"([zds])([1-9][0-9]?)", name)
    if m is None or int(m[2]) not in _FAMILIES[m[1]][0]:
        raise GroupTableError(f"unknown group name {name!r}")
    n = int(m[2])
    return _permutation_group(f"{m[1]}{n}", _FAMILIES[m[1]][1](n))


def parse_group_csv(text, name):
    """The group named ``name`` of a CSV multiplication table, one row per
    nonblank line."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            if line.strip():
                rows.append([int(x) for x in line.split(",")])
        except ValueError:
            raise GroupTableError(f"line {lineno}: entries must be integers, "
                                  f"got {line.strip()!r}") from None
    return FiniteGroupTable(str(name), rows)


# -- Tietze simplification keeps backtracking feasible on scrambled diagrams.

_LENGTH_BUDGET = 4000


def simplify_presentation(p):
    """Eliminate generators occurring exactly once in some relator.

    Substitution plus free/cyclic reduction.  A step is blocked when it
    would take the total relator length above both ``_LENGTH_BUDGET`` and
    the total at entry, so the procedure terminates quickly, and a
    presentation that starts above the budget still takes every step that
    keeps it within its starting total.  The returned presentation defines
    an isomorphic group; its generators are the survivors in their old
    order, and ``components`` follows them.  Each step eliminates, from the
    shortest relator holding one (the first such relator on ties), the
    first generator occurring exactly once there.  Duplicate relators, equal
    up to rotation and inversion, are kept once.

    A step costs only the relators it touches, and the output is that of
    rescanning every relator at every step.  An index maps each generator
    to the relators that may hold it: a rewrite files the relator under the
    generators of the replacement, and a step skips those that no longer
    hold its generator.  A lazy heap of (length, position) picks the step.
    An entry goes stale when its relator is rewritten or deleted; a blocked
    step puts its entry back, and an entry whose once-occurring generators
    are all blocked waits for the next step that succeeds.  Substitution,
    free and cyclic reduction are one pass, and duplicates are found by the
    least rotation (Booth, "Lexicographically least circular substrings",
    1980) of each relator and of its inverse.
    """
    # letters are signed ints, +-(g + 1) for (g, +-1)
    rels = [[(g + 1) * e for g, e in r] for r in map(cyclic_reduce, p.relators)]
    rels = [r for r in rels if r]
    # holders[a]: every relator holding generator a, and perhaps some that
    # held it once; None once a is eliminated
    holders = [set() for _ in range(p.ngens + 1)]
    for i, r in enumerate(rels):
        for x in r:
            holders[abs(x)].add(i)
    total = sum(map(len, rels))
    budget = max(_LENGTH_BUDGET, total)
    # heap entries (length, position, stamp); stamp[i] -1 marks a deleted
    # relator, and a rewrite makes the entries before it stale
    stamp = [0] * len(rels)
    heap = [(len(r), i, 0) for i, r in enumerate(rels)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    waiting = []
    blocked = set()
    while heap:
        entry = pop(heap)
        ri = entry[1]
        if entry[2] != stamp[ri]:
            continue
        rel = rels[ri]
        once = _once_generators(rel)
        free = [a for a in once if a not in blocked] if blocked else once
        if not free:
            if once:
                waiting.append(entry)
            continue
        gen = free[0]
        pos = rel.index(gen) if gen in rel else rel.index(-gen)
        # rel = before g^e after = 1  =>  g^e = (after before)^-1; a rotation
        # of the cyclically reduced rel, after before needs no reduction
        rest = rel[pos + 1:] + rel[:pos]
        inv = [-x for x in reversed(rest)]
        if rel[pos] < 0:
            repl = rest
        else:
            repl, inv = inv, rest
        subs = [(ri, [])]
        growth = -len(rel)
        for i in holders[gen]:
            r = rels[i]
            if i != ri and r is not None and (gen in r or -gen in r):
                w = _substituted(r, gen, repl, inv)
                growth += len(w) - len(r)
                subs.append((i, w))
        if total + growth > budget:
            blocked.add(gen)
            push(heap, entry)
            continue
        total += growth
        new_gens = set(map(abs, rest))
        for i, w in subs:
            if w:
                rels[i] = w
                stamp[i] += 1
                push(heap, (len(w), i, stamp[i]))
                for a in new_gens:
                    holders[a].add(i)
            else:
                rels[i] = None
                stamp[i] = -1
        holders[gen] = None
        if blocked:
            blocked.clear()
            for entry in waiting:
                push(heap, entry)
            waiting.clear()
    alive = [g for g in range(p.ngens) if holders[g + 1] is not None]
    index = {g + 1: i for i, g in enumerate(alive)}
    out = []
    seen = set()
    for rel in rels:
        if rel is None:
            continue
        key = min(_least_rotation(rel), _least_rotation([-x for x in reversed(rel)]))
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple((index[abs(x)], 1 if x > 0 else -1) for x in rel))
    components = tuple(p.components[g] for g in alive) if p.components else ()
    return GroupPresentation(len(alive), tuple(out), components)


def _once_generators(rel):
    """The generators occurring exactly once in ``rel``, in order of first
    occurrence."""
    count = {}
    for x in rel:
        a = x if x > 0 else -x
        count[a] = count.get(a, 0) + 1
    return [a for a, c in count.items() if c == 1]


def _substituted(rel, gen, repl, inv):
    """``rel`` with the letter gen replaced by ``repl`` and -gen by ``inv``,
    freely and cyclically reduced in one stack pass; ``repl`` and ``inv``
    are reduced, so each cancels only where it meets what precedes it."""
    out = []
    for x in rel:
        if x == gen or x == -gen:
            piece = repl if x == gen else inv
            k = 0
            while out and k < len(piece) and out[-1] == -piece[k]:
                out.pop()
                k += 1
            out.extend(piece[k:])
        elif out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out) - 1
    while i < j and out[i] == -out[j]:
        i += 1
        j -= 1
    return out[i:j + 1]


def _least_rotation(word):
    """The lexicographically least rotation of ``word``, as a tuple, by
    Booth's linear-time failure-function scan of the doubled word."""
    doubled = word + word
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        x = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and x != doubled[k + i + 1]:
            if x < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and x != doubled[k]:
            if x < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return tuple(doubled[k:k + len(word)])


def hom_count(p, group):
    """Exact number of homomorphisms from the presented group pi into ``group``.

    An abelian target (every conjugacy class a singleton) is counted from
    the abelianization, with no search.  Every homomorphism into an abelian
    A factors through pi^ab = Z^rank + Z/d_1 + ... + Z/d_m, so Hom(pi, A) =
    Hom(pi^ab, A): a free generator goes anywhere in A, and a generator of
    order d to any a with a^d = 1, that is with ord(a) dividing d.  The
    count is |A|^rank times, per invariant factor d, the number of such a
    (see ``_abelian_hom_count``).

    Any other target is counted by backtracking over generator images with
    relator pruning, run on the Tietze-simplified presentation.  Generators
    that share a relator or a ``components`` index fall into one part.  The
    presented group is the free product of its parts, so the count is the
    product of the parts' counts; a generator in no relator and alone in
    its component is a part that counts |G|.  Generators that
    ``components`` marks as conjugate take images in one class: once one of
    them is assigned, the later ones run over the members of its image's
    class only.  Each part's one search carries a flag, set while every
    image assigned so far is central.  Two symmetries cut it:

    - Conjugation.  Hom(part, G) is closed under conjugation by G, and so
      is its subset with given central images at the generators assigned
      so far.  So while the flag is set, the next free generator runs over
      one representative per conjugacy class, each count weighted by the
      class size, and the flag stays set below a central one.  An anchored
      generator then takes its anchor's central image alone.
    - Right translation.  Take a part in which every relator has even
      length and exponents that alternate cyclically, as in the core
      relator y x^-1 y z^-1.  Sending every generator x to x a, for one a
      in G, sends each relator word w to w or to a^-1 w a: between
      neighbours x^1 y^-1 the letters become x a a^-1 y^-1 and cancel, and
      the a^-1 left before a leading x^-1 and the a after a trailing x^1
      conjugate.  So the map takes Hom(part, G) to itself, and G acts on it
      freely (x_1 goes to x_1 a).  Each orbit holds exactly one
      homomorphism with the identity at the part's first generator: fix it
      there and multiply by |G|; the identity is central, so the flag
      stays set.  A relator checked at that first generator holds no other,
      and the identity satisfies it, so none is checked.  Tietze steps keep
      alternation (the word put in for x^1 alternates and starts and ends
      with exponent 1, and a free cancellation leaves neighbours of
      opposite sign), so simplified core presentations keep it; the check
      is per relator all the same.

    A part too deep for the interpreter's recursion limit raises
    ``AlgebraError``.
    """
    if len(group.classes) == group.order:
        orders = group.element_orders
        return _abelian_hom_count(abelianization(p), group.order,
                                  lambda d: sum(1 for k in orders if d % k == 0))
    simp = simplify_presentation(p)
    gens_in = [{g for g, _ in rel} for rel in simp.relators]
    order = sorted(range(simp.ngens), key=lambda g: min(
        (len(r) for r, gens in zip(simp.relators, gens_in) if g in gens), default=10 ** 9))
    rank = {g: i for i, g in enumerate(order)}
    # a relator is checked once its last generator is assigned, each letter
    # g^e as (the table of right multiplication by x^e, g)
    table, by_inverse = group.table, group.by_inverse
    ready_at = [[] for _ in range(simp.ngens)]
    for rel, gens in zip(simp.relators, gens_in):
        ready_at[max(gens, key=rank.__getitem__)].append(
            tuple((table if e == 1 else by_inverse, g) for g, e in rel))
    # anchor[g]: the generator assigned first in g's component, if not g;
    # root[g] leads to g's part (union-find)
    anchor = [None] * simp.ngens
    root = list(range(simp.ngens))
    first_of = {}
    for g in order:
        if simp.components:
            first = first_of.setdefault(simp.components[g], g)
            anchor[g] = first if first != g else None
    for gens in gens_in + [(first_of[c], g) for g, c in enumerate(simp.components)]:
        r = _root(root, min(gens))
        for g in gens:
            root[_root(root, g)] = r
    # the parts holding a relator whose exponents do not alternate cyclically
    rigid = {_root(root, rel[0][0]) for rel in simp.relators
             if any(e == rel[i - 1][1] for i, (_, e) in enumerate(rel))}
    ident = group.identity
    classes, class_of = group.classes, group.class_of
    reps = [members[0] for members in classes]
    size = [len(classes[class_of[x]]) for x in range(group.order)]
    every = range(group.order)
    assign = [0] * simp.ngens

    def search(part, level, central):
        # the weighted count of extensions of the images of part[:level]
        if level == len(part):
            return 1
        gen = part[level]
        first = anchor[gen]
        total = 0
        values = (classes[class_of[assign[first]]] if first is not None
                  else reps if central else every)
        for val in values:
            assign[gen] = val
            for rel in ready_at[gen]:
                acc = ident
                for tab, g in rel:
                    acc = tab[acc][assign[g]]
                if acc != ident:
                    break
            else:
                found = search(part, level + 1, central and size[val] == 1)
                total += size[val] * found if central else found
        return total

    def count(part):
        try:
            if _root(root, part[0]) in rigid:
                return search(part, 0, True)
            assign[part[0]] = ident
            return group.order * search(part, 1, True)
        except RecursionError:
            raise AlgebraError(f"hom_count: a part of {len(part)} generators is too "
                               "deep for the interpreter's recursion limit") from None

    parts = {}
    for g in order:
        parts.setdefault(_root(root, g), []).append(g)
    return math.prod(map(count, parts.values()))


def _abelian_hom_count(ab, size, solutions):
    """The number of homomorphisms into an abelian group A of order
    ``size`` from a group whose abelianization is ab = (rank, invariant
    factors), given solutions(d) = #{a in A : a^d = 1}: |A|^rank times the
    product of solutions(d) (see ``hom_count``)."""
    rank, torsion = ab
    return size ** rank * math.prod(map(solutions, torsion))


def cyclic_hom_count(ab, n):
    """The number of homomorphisms into Z/n from a group whose
    abelianization is ab: n^rank times gcd(d, n) per invariant factor d,
    since d a = 0 has gcd(d, n) solutions in Z/n; ``cyclic_ring`` checks n."""
    cyclic_ring(n)
    return _abelian_hom_count(ab, n, lambda d: math.gcd(d, n))


def coloring_count(d, n):
    """Number of maps arcs -> Z/n with 2y = x + z at every crossing.

    These are the homomorphisms of the core group into Z/n (each core
    relator abelianizes to 2y - x - z), counted from its abelianization by
    ``cyclic_hom_count``.
    """
    return cyclic_hom_count(abelianization(core_group(d)), n)
