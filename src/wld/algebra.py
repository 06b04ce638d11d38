"""Exact integer algebra: Laurent polynomials in t, free-group words with
Fox derivatives, polynomial gcd, integer HNF/SNF, and ideal arithmetic in
Z[t,t^-1]/(1-t^n) via shift-closed integer lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Laurent polynomials

class Laurent:
    """Integer Laurent polynomial in one variable t, canonical term map."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        for e, c in items:
            if c:
                data[e] = data.get(e, 0) + c
                if not data[e]:
                    del data[e]
        self.terms = tuple(sorted(data.items()))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(((0, 1),))

    @classmethod
    def monomial(cls, coeff, exp=0):
        return cls(((exp, coeff),))

    @classmethod
    def t(cls, exp=1):
        return cls(((exp, 1),))

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        return len(self.terms) == 1 and abs(self.terms[0][1]) == 1

    def min_exp(self):
        if not self.terms:
            raise AlgebraError("zero polynomial has no exponents")
        return self.terms[0][0]

    def max_exp(self):
        if not self.terms:
            raise AlgebraError("zero polynomial has no exponents")
        return self.terms[-1][0]

    def coeff(self, e):
        for exp, c in self.terms:
            if exp == e:
                return c
        return 0

    def __add__(self, other):
        return Laurent(list(self.terms) + list(other.terms))

    def __neg__(self):
        return Laurent([(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Laurent([(e, c * other) for e, c in self.terms])
        out = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def shift(self, k):
        return Laurent([(e + k, c) for e, c in self.terms])

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"Laurent({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def normalize_units(p):
    """Multiply by +-t^r so the lowest exponent is 0 with positive coefficient."""
    if p.is_zero():
        return p
    q = p.shift(-p.min_exp())
    if q.terms[0][1] < 0:
        q = -q
    return q


def format_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.terms:
        if e == 0:
            body = str(abs(c))
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def parse_poly(text):
    """Parse strings like "1 - t + t^2" or "t^-1 + 1"."""
    s = text.replace(" ", "")
    if not s:
        raise AlgebraError("empty polynomial string")
    if s == "0":
        return Laurent.zero()
    tokens = []
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    cur = ""
    while i <= len(s):
        ch = s[i] if i < len(s) else None
        splits = ch in ("+", "-") and not cur.endswith("^")
        if splits or ch is None:
            if not cur:
                raise AlgebraError(f"cannot parse polynomial {text!r}")
            tokens.append((sign, cur))
            if ch is None:
                break
            sign = -1 if ch == "-" else 1
            cur = ""
        else:
            cur += ch
        i += 1
    terms = []
    for sign, tok in tokens:
        tok = tok.replace("*", "")
        if "t" not in tok:
            if not tok.lstrip("-").isdigit():
                raise AlgebraError(f"bad term {tok!r} in {text!r}")
            terms.append((0, sign * int(tok)))
            continue
        coeff_s, _, rest = tok.partition("t")
        coeff = int(coeff_s) if coeff_s else 1
        if rest == "":
            exp = 1
        elif rest.startswith("^"):
            exp_s = rest[1:]
            if not exp_s.lstrip("-").isdigit():
                raise AlgebraError(f"bad exponent in {tok!r}")
            exp = int(exp_s)
        else:
            raise AlgebraError(f"bad term {tok!r} in {text!r}")
        terms.append((exp, sign * coeff))
    return Laurent(terms)


# -- dense helpers on ordinary integer polynomials (lists, low degree first)

def _to_dense(p):
    shift = p.min_exp()
    q = p.shift(-shift)
    out = [0] * (q.max_exp() + 1)
    for e, c in q.terms:
        out[e] = c
    return out


def _from_dense(coeffs):
    return Laurent(list(enumerate(coeffs)))


def _dense_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _dense_trim(out)


def _dense_scale(a, s):
    return _dense_trim([x * s for x in a])


def _dense_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _dense_trim(out)


def _primitive(a):
    g = math.gcd(*a)
    if g in (0, 1):
        return list(a), max(g, 1)
    return [x // g for x in a], g


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b (both dense, b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = _dense_sub(_dense_scale(a, lb), _dense_mul(b, [0] * (da - db) + [la]))
    return a


def _dense_gcd(a, b):
    a, b = _dense_trim(list(a)), _dense_trim(list(b))
    if not a:
        return b
    if not b:
        return a
    ca = math.gcd(*a)
    cb = math.gcd(*b)
    cg = math.gcd(ca, cb)
    a, _ = _primitive(a)
    b, _ = _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        r, _ = _primitive(r)
        a, b = b, r
    return _dense_scale(a, cg)


def poly_gcd(polys):
    """Gcd up to units of a list of Laurent polynomials, unit-normalized.

    gcd([]) = 0; the content/primitive split with a primitive remainder
    sequence keeps everything in exact integers.
    """
    acc = []
    for p in polys:
        if p.is_zero():
            continue
        acc = _dense_gcd(acc, _to_dense(p))
        if acc == [1]:
            break
    if not acc:
        return Laurent.zero()
    return normalize_units(_from_dense(acc))


def exact_div(p, q):
    """Exact division of Laurent polynomials; raises if not divisible."""
    if q.is_zero():
        raise AlgebraError("division by zero polynomial")
    if p.is_zero():
        return Laurent.zero()
    a = _to_dense(p)
    b = _to_dense(q)
    out = [0] * (len(a) - len(b) + 1)
    if len(a) < len(b):
        raise AlgebraError("not divisible")
    while a:
        if len(a) < len(b):
            raise AlgebraError("not divisible")
        if a[-1] % b[-1]:
            raise AlgebraError("not divisible")
        c = a[-1] // b[-1]
        k = len(a) - len(b)
        out[k] = c
        a = _dense_sub(a, _dense_mul(b, [0] * k + [c]))
    shift = p.min_exp() - q.min_exp()
    return _from_dense(out).shift(shift)


# ---------------------------------------------------------------------------
# free-group words and the Fox derivative

def free_reduce(word):
    """Freely reduce a word given as ((generator, +-1), ...)."""
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


def word_mul(*words):
    out = ()
    for w in words:
        out = free_reduce(out + tuple(w))
    return out


def word_pow(word, k):
    if k < 0:
        return word_pow(word_inverse(word), -k)
    out = ()
    for _ in range(k):
        out = word_mul(out, word)
    return out


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def fox_derive(word, gen):
    """Fox free derivative d(word)/d(x_gen) as a list of (+-1, prefix word).

    Satisfies dx/dx = 1, d(x^-1)/dx = -x^-1 and the product rule
    d(uv)/dx = du/dx + u dv/dx.
    """
    terms = []
    prefix = ()
    for g, e in free_reduce(word):
        if g == gen:
            if e == 1:
                terms.append((1, prefix))
            else:
                terms.append((-1, word_mul(prefix, ((g, -1),))))
        prefix = word_mul(prefix, ((g, e),))
    return terms


def abelianize_t(terms):
    """Send every generator to t: formal Z[F]-sums become Laurent polynomials."""
    out = {}
    for coeff, prefix in terms:
        e = sum(ex for _, ex in prefix)
        out[e] = out.get(e, 0) + coeff
    return Laurent(out)


def fox_row(word, ngens):
    """Abelianized Fox derivative row of a relator, all generators -> t."""
    row = [{} for _ in range(ngens)]
    e = 0
    for g, ex in free_reduce(word):
        if ex == 1:
            row[g][e] = row[g].get(e, 0) + 1
            e += 1
        else:
            e -= 1
            row[g][e] = row[g].get(e, 0) - 1
    return [Laurent(cell) for cell in row]


# ---------------------------------------------------------------------------
# integer matrices: Hermite and Smith normal forms

def hnf(rows):
    """Row-style Hermite normal form.

    Rows span an integer lattice; the result is the unique echelon basis with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Zero rows are dropped, so equal lattices give equal HNFs.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise AlgebraError("ragged matrix")
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                if pivot is None or abs(mat[r][col]) < abs(mat[pivot][col]):
                    pivot = r
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        changed = True
        while changed:
            changed = False
            for r in range(pivot_row + 1, len(mat)):
                if mat[r][col]:
                    q = mat[r][col] // mat[pivot_row][col]
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[pivot_row])]
                    if mat[r][col]:
                        mat[pivot_row], mat[r] = mat[r], mat[pivot_row]
                        changed = True
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-a for a in mat[pivot_row]]
        for r in range(pivot_row):
            q = mat[r][col] // mat[pivot_row][col]
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    out = [tuple(r) for r in mat[:pivot_row] if any(r)]
    return out


def snf(rows):
    """Smith invariant factors d1 | d2 | ... (positive, zero factors dropped)."""
    mat = [list(r) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return []
    m, n = len(mat), len(mat[0])
    factors = []
    top = 0
    while top < m and top < n:
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if mat[i][j] and (pivot is None or abs(mat[i][j]) < abs(mat[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        mat[top], mat[i] = mat[i], mat[top]
        for r in mat:
            r[top], r[j] = r[j], r[top]
        dirty = False
        for i in range(top + 1, m):
            if mat[i][top]:
                q = mat[i][top] // mat[top][top]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                if mat[i][top]:
                    dirty = True
        for j in range(top + 1, n):
            if mat[top][j]:
                q = mat[top][j] // mat[top][top]
                for r in mat:
                    r[j] -= q * r[top]
                if mat[top][j]:
                    dirty = True
        if dirty:
            continue
        p = abs(mat[top][top])
        bad = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if mat[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            mat[top] = [a + b for a, b in zip(mat[top], mat[bad])]
            continue
        factors.append(p)
        top += 1
    chained = []
    for d in factors:
        for k, prev in enumerate(chained):
            if d % prev:
                g = math.gcd(d, prev)
                lcm = d * prev // g
                chained[k] = g
                d = lcm
        chained.append(d)
    return sorted(chained)


# ---------------------------------------------------------------------------
# ideals of Z[t^{+-1}] modulo (1 - t^n)

@dataclass(frozen=True)
class CyclicLattice:
    """Shift-closed sublattice of Z^n in Hermite normal form.

    Models an ideal of Z[t]/(t^n - 1): coordinates are coefficients of
    1, t, ..., t^{n-1}, and closure under the cyclic shift is multiplication
    by t.  Equal ideals have equal bases.
    """

    n: int
    basis: tuple

    def contains(self, vec):
        v = list(vec)
        for row in self.basis:
            lead = next((j for j, a in enumerate(row) if a), None)
            if lead is None:
                continue
            if v[lead] % row[lead] == 0:
                q = v[lead] // row[lead]
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)


def poly_residue(p, n):
    """Coefficient vector of p modulo t^n - 1 (exponents folded mod n)."""
    if n < 1:
        raise AlgebraError("modulus n must be >= 1")
    vec = [0] * n
    for e, c in p.terms:
        vec[e % n] += c
    return vec


def _shift_vec(vec):
    return [vec[-1]] + vec[:-1]


def ideal_mod(gens, n):
    """Image in Z[t]/(t^n - 1) of the ideal generated by ``gens``."""
    rows = []
    for p in gens:
        vec = poly_residue(p, n)
        for _ in range(n):
            rows.append(tuple(vec))
            vec = _shift_vec(vec)
    return CyclicLattice(n, tuple(hnf(rows)))


def ideal_equal_mod(gens_a, gens_b, n):
    """Do two generator lists span the same ideal modulo (1 - t^n)?"""
    return ideal_mod(gens_a, n) == ideal_mod(gens_b, n)


def member_of_principal(p, n):
    """Is p in the ideal of Z[t^{+-1}] generated by 1 - t^n?"""
    return not any(poly_residue(p, n))


def f_n(p, n):
    """Sum of coefficients whose exponent is congruent to 0 or 2 mod n.

    Z-linear and vanishing on the ideal (1 - t^n), so a nonzero value
    certifies non-membership.
    """
    if n < 1:
        raise AlgebraError("modulus n must be >= 1")
    return sum(c for e, c in p.terms if e % n in (0, 2 % n))


# ---------------------------------------------------------------------------
# determinants of small Laurent matrices

def laurent_det(matrix):
    """Determinant by cofactor expansion with column-subset memoization."""
    size = len(matrix)
    if size == 0:
        return Laurent.one()
    memo = {}

    def rec(row, cols):
        if not cols:
            return Laurent.one()
        key = cols
        got = memo.get((row, key))
        if got is not None:
            return got
        total = Laurent.zero()
        for k, col in enumerate(cols):
            entry = matrix[row][col]
            if entry.is_zero():
                continue
            sub = rec(row + 1, cols[:k] + cols[k + 1:])
            term = entry * sub
            total = total + (term if k % 2 == 0 else -term)
        memo[(row, key)] = total
        return total

    return rec(0, tuple(range(size)))
