"""Invariants of welded link diagrams.

Ordered linking numbers, Wirtinger-style welded group presentations, core
group presentations, elementary ideals / Alexander polynomials via the Fox
derivative, homomorphism and coloring counts, and abelianizations.

Wirtinger convention: at a positive crossing with over-arc y, under-in arc
x and under-out arc z the relator is z^-1 y x y^-1; a negative crossing
conjugates by y^-1 instead.  This normalization gives the trefoil first
Alexander polynomial 1 - t + t^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import diagram as dg
from .algebra import (AlgebraError, Laurent, cyclic_reduce, exact_div,
                      fox_row, free_reduce, ideal_mod, laurent_det, poly_gcd,
                      snf, word_inverse, word_mul)

linking_matrix = dg.linking_matrix

WELDED = "welded-group"
CORE = "core-group"


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation; relators are freely reduced words over
    generators 0..ngens-1."""

    ngens: int
    relators: tuple
    marking: str = WELDED


def welded_group(d):
    """Arc-generated presentation of the diagram group, one relator per
    classical crossing."""
    arcs = dg.arcs(d)
    relators = []
    for cid, (y, x, z, sign) in sorted(dg.crossing_arcs(d).items()):
        if sign > 0:
            word = ((z, -1), (y, 1), (x, 1), (y, -1))
        else:
            word = ((z, -1), (y, -1), (x, 1), (y, 1))
        word = free_reduce(word)
        if word:
            relators.append(word)
    return GroupPresentation(len(arcs), tuple(relators), WELDED)


def core_group(d):
    """Unoriented core presentation: relator y x^-1 y z^-1 per crossing,
    independent of crossing signs and of component orientations."""
    arcs = dg.arcs(d)
    relators = []
    for cid, (y, x, z, _sign) in sorted(dg.crossing_arcs(d).items()):
        word = free_reduce(((y, 1), (x, -1), (y, 1), (z, -1)))
        if word:
            relators.append(word)
    return GroupPresentation(len(arcs), tuple(relators), CORE)


def abelianization(p):
    """(free rank, invariant factors > 1) of the abelianized presentation."""
    rows = []
    for rel in p.relators:
        row = [0] * p.ngens
        for g, e in rel:
            row[g] += e
        rows.append(row)
    factors = snf(rows)
    free_rank = p.ngens - len(factors)
    return free_rank, tuple(f for f in factors if f > 1)


# ---------------------------------------------------------------------------
# Alexander matrices and elementary ideals

def alexander_matrix(d):
    """Fox-derivative matrix of the welded group, all generators sent to t."""
    pres = welded_group(d)
    return [fox_row(rel, pres.ngens) for rel in pres.relators], pres.ngens


def _pivot_reduce(matrix):
    """Eliminate unit entries by row and column operations.

    Elementary operations preserve every determinantal ideal, and clearing a
    unit pivot trades the ideal of s-minors for the ideal of (s-1)-minors of
    the complement, so the returned (matrix, pivots) pair carries the same
    elementary ideals as the input.
    """
    mat = [row[:] for row in matrix]
    pivots = 0
    while True:
        mat = [row for row in mat if any(not p.is_zero() for p in row)]
        if not mat:
            break
        target = None
        for i, row in enumerate(mat):
            for j, p in enumerate(row):
                if p.is_unit():
                    target = (i, j)
                    break
            if target:
                break
        if target is None:
            break
        i, j = target
        pivot = mat[i][j]
        for r in range(len(mat)):
            if r != i and not mat[r][j].is_zero():
                q = exact_div(mat[r][j], pivot)
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
        for row in mat:
            del row[j]
        del mat[i]
        pivots += 1
    return mat, pivots


def _minors(mat, size):
    rows = range(len(mat))
    cols = range(len(mat[0]) if mat else 0)
    out = []
    for rset in itertools.combinations(rows, size):
        for cset in itertools.combinations(cols, size):
            sub = [[mat[r][c] for c in cset] for r in rset]
            out.append(laurent_det(sub))
    return out


def elementary_ideals(d, kmax):
    """Generators of E^0..E^kmax of the welded group.

    E^k is the ideal of (g-k)-minors of the Alexander matrix: the whole ring
    when g-k <= 0 and the zero ideal when g-k exceeds the relator count.
    Returned lists generate the same ideals as the full minor sets (unit
    pivots are eliminated first).
    """
    matrix, g = alexander_matrix(d)
    nrows = len(matrix)
    reduced, pivots = _pivot_reduce(matrix)
    out = []
    for k in range(kmax + 1):
        s = g - k
        if s <= 0:
            out.append([Laurent.one()])
            continue
        if s > nrows:
            out.append([])
            continue
        s_red = s - pivots
        if s_red <= 0:
            out.append([Laurent.one()])
            continue
        if s_red > len(reduced):
            out.append([])
            continue
        gens = [p for p in _minors(reduced, s_red) if not p.is_zero()]
        out.append(gens)
    return out


def alexander(d, k):
    """(generators of E^k, k-th Alexander polynomial = gcd of E^k)."""
    gens = elementary_ideals(d, k)[k]
    return gens, poly_gcd(gens)


def alexander_polynomials(d, kmax):
    return [poly_gcd(gens) for gens in elementary_ideals(d, kmax)]


def ideal_lattices(d, n, kmax):
    """CyclicLattice images of E^0..E^kmax modulo (1 - t^n)."""
    return [ideal_mod(gens, n) for gens in elementary_ideals(d, kmax)]


# ---------------------------------------------------------------------------
# finite groups and homomorphism counting

class GroupTableError(ValueError):
    pass


class FiniteGroupTable:
    """Multiplication table of a finite group, validated on construction."""

    def __init__(self, name, table):
        self.name = name
        self.table = [list(row) for row in table]
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
        self.inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == identity:
                    self.inverse[a] = b
            if self.inverse[a] is None:
                raise GroupTableError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise GroupTableError("multiplication is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def __repr__(self):
        return f"FiniteGroupTable({self.name!r}, order={self.order})"


def cyclic_group(n):
    return FiniteGroupTable(f"z{n}", [[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral_group(n):
    """Dihedral group of order 2n: elements (r^i, r^i s)."""
    size = 2 * n

    def mul(a, b):
        ia, sa = a % n, a // n
        ib, sb = b % n, b // n
        if sa == 0:
            return ((ia + ib) % n) + n * sb
        return ((ia - ib) % n) + n * (1 - sb)

    return FiniteGroupTable(f"d{n}", [[mul(a, b) for b in range(size)] for a in range(size)])


def symmetric_group(n):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return FiniteGroupTable(f"s{n}", table)


def quaternion_group():
    """Q8 = {+-1, +-i, +-j, +-k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul_t = {
        ("1", x): x for x in names
    }
    for x in names:
        mul_t[(x, "1")] = x

    def neg(x):
        return x[1:] if x.startswith("-") else "-" + x

    base = {("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}

    def mul(a, b):
        if a == "1":
            return b
        if b == "1":
            return a
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = base[(a, b)]
        return neg(out) if sign < 0 else out

    idx = {x: i for i, x in enumerate(names)}
    table = [[idx[mul(a, b)] for b in names] for a in names]
    return FiniteGroupTable("q8", table)


def builtin_group(name):
    """Groups addressable by name: z2..z12, d3..d8, s3, s4, q8."""
    name = name.lower()
    if name.startswith("z") and name[1:].isdigit():
        n = int(name[1:])
        if 2 <= n <= 12:
            return cyclic_group(n)
    if name.startswith("d") and name[1:].isdigit():
        n = int(name[1:])
        if 3 <= n <= 8:
            return dihedral_group(n)
    if name == "s3":
        return symmetric_group(3)
    if name == "s4":
        return symmetric_group(4)
    if name == "q8":
        return quaternion_group()
    raise GroupTableError(f"unknown group name {name!r}")


def load_group_csv(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise GroupTableError(f"cannot read {path}: {exc.strerror}") from exc
    rows = [[int(x) for x in line.strip().split(",")]
            for line in text.splitlines() if line.strip()]
    return FiniteGroupTable(str(path), rows)


PANEL_NAMES = ("z2", "z3", "z5", "s3", "d4", "q8")


def panel():
    return [builtin_group(name) for name in PANEL_NAMES]


# -- Tietze simplification keeps backtracking feasible on scrambled diagrams.

_LENGTH_BUDGET = 4000


def simplify_presentation(p):
    """Eliminate generators occurring exactly once in some relator.

    Substitution plus free/cyclic reduction; relator growth is capped so the
    procedure always terminates quickly.  The returned presentation defines
    an isomorphic group.
    """
    relators = [cyclic_reduce(r) for r in p.relators]
    relators = [r for r in relators if r]
    alive = list(range(p.ngens))
    blocked = set()
    while True:
        best = None
        for ri, rel in enumerate(relators):
            counts = {}
            for g, _ in rel:
                counts[g] = counts.get(g, 0) + 1
            for g, c in counts.items():
                if c == 1 and g not in blocked:
                    cost = len(rel)
                    if best is None or cost < best[0]:
                        best = (cost, ri, g)
        if best is None:
            break
        _, ri, gen = best
        rel = relators[ri]
        pos = next(i for i, (g, _) in enumerate(rel) if g == gen)
        g, e = rel[pos]
        before, after = rel[:pos], rel[pos + 1:]
        # rel = before * g^e * after = 1  =>  g^e = before^-1 after^-1
        repl = word_mul(word_inverse(before), word_inverse(after))
        if e == -1:
            repl = word_inverse(repl)
        rest = [r for i, r in enumerate(relators) if i != ri]
        new = _substitute_all(rest, gen, repl)
        if sum(len(r) for r in new) > _LENGTH_BUDGET and rest:
            blocked.add(gen)
            continue
        relators = new
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
    return GroupPresentation(len(alive), tuple(out), p.marking)


def _substitute_all(relators, gen, repl):
    inv = word_inverse(repl)
    out = []
    for rel in relators:
        word = []
        for g, e in rel:
            if g == gen:
                word.extend(repl if e == 1 else inv)
            else:
                word.append((g, e))
        out.append(cyclic_reduce(tuple(word)))
    return [r for r in out if r]


def _cyclic_keys(rel):
    words = [rel, word_inverse(rel)]
    for w in words:
        for k in range(len(w)):
            yield w[k:] + w[:k]


def hom_count(p, group):
    """Exact number of homomorphisms from the presented group into ``group``.

    Backtracking over generator images with relator pruning, run on the
    Tietze-simplified presentation.
    """
    simp = simplify_presentation(p)
    ngens = simp.ngens
    order = group.order
    if ngens == 0:
        return 1
    generators_in = [set() for _ in range(len(simp.relators))]
    for ri, rel in enumerate(simp.relators):
        for g, _ in rel:
            generators_in[ri].add(g)
    order_of_gens = sorted(range(ngens),
                           key=lambda g: min((len(r) for r in simp.relators
                                              if g in {x for x, _ in r}),
                                             default=10 ** 9))
    rank = {g: i for i, g in enumerate(order_of_gens)}
    ready_at = [[] for _ in range(ngens)]
    for ri, gens in enumerate(generators_in):
        if gens:
            ready_at[max(rank[g] for g in gens)].append(simp.relators[ri])
        elif simp.relators[ri]:
            return 0
    table = group.table
    invs = group.inverse
    ident = group.identity
    assign = [0] * ngens

    def evaluate(rel):
        acc = ident
        for g, e in rel:
            img = assign[g]
            acc = table[acc][img if e == 1 else invs[img]]
        return acc

    def rec(level):
        if level == ngens:
            return 1
        gen = order_of_gens[level]
        total = 0
        for val in range(order):
            assign[gen] = val
            if all(evaluate(rel) == ident for rel in ready_at[level]):
                total += rec(level + 1)
        return total

    return rec(0)


def coloring_count(d, n):
    """Number of maps arcs -> Z/n with 2y = x + z at every crossing.

    Computed from the Smith form of the integer relation matrix; equals the
    homomorphism count of the core group into Z/n.
    """
    if n < 1:
        raise AlgebraError("modulus n must be >= 1")
    arcs = dg.arcs(d)
    rows = []
    for cid, (y, x, z, _s) in sorted(dg.crossing_arcs(d).items()):
        row = [0] * len(arcs)
        row[y] += 2
        row[x] -= 1
        row[z] -= 1
        rows.append(row)
    factors = snf(rows)
    count = n ** (len(arcs) - len(factors))
    for f in factors:
        count *= math.gcd(f, n)
    return count
