"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: Smith invariants via
the minor-gcd characterization, lattice equality via gcds of maximal minors,
colorings by exhaustive enumeration, and elementary ideals by enumerating
every minor of the raw Alexander matrix, and the canonical key by trying
every combination of basepoint rotations.
"""

import itertools

from wld.algebra import Laurent, fox_row
from wld.diagram import STRING_LINK, arcs, crossing_arcs


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


def colorings_exhaustive(d, n):
    """Count maps arcs -> Z/n with 2y = x + z at every crossing."""
    narcs = len(arcs(d))
    table = crossing_arcs(d)
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


def laurent_det_bruteforce(matrix):
    n = len(matrix)
    if n == 0:
        return Laurent.one()
    total = Laurent.zero()
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = Laurent.one()
        for i, j in enumerate(perm):
            prod = prod * matrix[i][j]
        total = total + (prod if sign > 0 else -prod)
    return total


def fold_bruteforce(p, n):
    """p modulo t^n - 1: every exponent taken mod n, like terms summed."""
    return Laurent([(e % n, c) for e, c in enumerate(p.coeffs, p.low)])


def elementary_ideal_bruteforce(d, k):
    """Generators of E^k as the raw (g-k)-minors of the Alexander matrix."""
    from wld.invariants import welded_group

    pres = welded_group(d)
    matrix = [fox_row(rel, pres.ngens) for rel in pres.relators]
    g = pres.ngens
    s = g - k
    if s <= 0:
        return [Laurent.one()]
    if s > len(matrix):
        return []
    out = []
    for rows in itertools.combinations(range(len(matrix)), s):
        for cols in itertools.combinations(range(g), s):
            sub = [[matrix[r][c] for c in cols] for r in rows]
            det = laurent_det_bruteforce(sub)
            if not det.is_zero():
                out.append(det)
    return out
