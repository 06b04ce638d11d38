"""Exact integer algebra: Laurent polynomials in t, free-group word
reduction, polynomial gcd, integer Hermite forms (``hnf``, which ``snf``
also reads), ideal arithmetic in Z[t,t^-1]/(1-t^n) via shift-closed
integer lattices, and minors of Laurent matrices.

A Laurent polynomial is held in one dense form, a lowest exponent and a
trimmed coefficient tuple, which gcd reads directly.  The same form serves
R_n = Z[t]/(t^n - 1): ``fold``, the one residue map, reduces a polynomial
to its representative with exponents in [0, n), which ``ideal_mod``
reads; p lies in the ideal (1 - t^n) exactly when ``fold(p, n)`` is zero.
``INTEGERS``, ``LAURENT`` and ``cyclic_ring(n)`` are the rings Z,
Z[t^+-1] and R_n that unit-pivot elimination and ``laurent_minors``
multiply in; ``cyclic_ring`` holds the one check that a modulus n is at
least 1.  ``laurent_minors`` computes the minors of every requested size
of a sparse matrix (rows as {column: entry}) from one Laplace-expansion
memo.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .diagram import DIGITS, MAX_DIGITS


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Laurent polynomials

class Laurent:
    """Integer Laurent polynomial in one variable t.

    Dense form: ``low`` is the lowest exponent and ``coeffs`` the tuple of
    coefficients of t^low, t^(low+1), ..., whose first and last entries are
    nonzero; the zero polynomial is ``low == 0``, ``coeffs == ()``.  The form
    is canonical, so equality and hashing compare the two fields.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            if c:
                data[e] = data.get(e, 0) + c
        data = {e: c for e, c in data.items() if c}
        if not data:
            self.low, self.coeffs = 0, ()
            return
        low = min(data)
        self.low = low
        self.coeffs = tuple(data.get(e, 0) for e in range(low, max(data) + 1))

    @staticmethod
    def _raw(low, coeffs):
        """Wrap an already trimmed coefficient tuple."""
        p = object.__new__(Laurent)
        p.low, p.coeffs = low, coeffs
        return p

    @staticmethod
    def _trimmed(low, coeffs):
        """Trim zero coefficients from both ends of a list or tuple."""
        hi = len(coeffs)
        while hi and not coeffs[hi - 1]:
            hi -= 1
        if not hi:
            return Laurent._raw(0, ())
        lo = 0
        while not coeffs[lo]:
            lo += 1
        return Laurent._raw(low + lo, tuple(coeffs[lo:hi]))

    def __bool__(self):
        return bool(self.coeffs)

    def is_unit(self):
        return len(self.coeffs) == 1 and self.coeffs[0] in (1, -1)

    def _combine(self, other, op):
        """op(self, other) coefficientwise, op being + or -."""
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other if op is operator.add else -other
        la, lb = self.low, other.low
        low = min(la, lb)
        out = [0] * (max(la + len(a), lb + len(b)) - low)
        i = la - low
        out[i:i + len(a)] = a
        i = lb - low
        out[i:i + len(b)] = map(op, out[i:i + len(b)], b)
        return Laurent._trimmed(low, out)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return Laurent._raw(self.low, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Laurent._raw(0, ())
        low = self.low + other.low
        # the product of the end coefficients is nonzero, so no trimming
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            x = a[0]
            return Laurent._raw(low, b if x == 1 else tuple(x * y for y in b))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return Laurent._raw(low, tuple(out))

    def __eq__(self, other):
        return (isinstance(other, Laurent) and self.low == other.low
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __repr__(self):
        return f"Laurent({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def normalize_units(p):
    """Multiply by +-t^r so the lowest exponent is 0 with positive coefficient."""
    if not p:
        return p
    q = Laurent._raw(0, p.coeffs)
    return -q if q.coeffs[0] < 0 else q


def format_poly(p):
    if not p:
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs, p.low):
        if not c:
            continue
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


_SIGN_SPLIT = re.compile(r"(?<!\^)([+-])")
# numbers have at most MAX_DIGITS digits, as in ``diagram.DIGITS``
_TERM = re.compile(rf"(\d{{0,{MAX_DIGITS}}})(t(?:\^(-?{DIGITS}))?)?")


def parse_poly(text):
    """Parse strings like "1 - t + t^2", "t^-1 + 1" or "3*t^2".

    The text, spaces removed, splits at each sign not preceded by ``^``;
    each term, ``*`` removed, is a coefficient, ``t`` with an optional
    ``^exponent``, or both.  Anything else raises ``AlgebraError``.
    """
    s = text.replace(" ", "")
    if not s:
        raise AlgebraError("empty polynomial string")
    if s[0] not in "+-":
        s = "+" + s
    pieces = _SIGN_SPLIT.split(s)  # "", sign, term, sign, term, ...
    terms = []
    for sign, body in zip(pieces[1::2], pieces[2::2]):
        body = body.replace("*", "")
        m = _TERM.fullmatch(body) if body else None
        if m is None:
            raise AlgebraError(f"bad term {body!r} in {text!r}")
        coeff, var, exp = m.groups()
        terms.append((int(exp or 1) if var else 0, int(sign + (coeff or "1"))))
    return Laurent(terms)


# -- dense helpers on ordinary integer polynomials (lists, low degree first)

def _dense_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a):
    g = math.gcd(*a)
    return list(a) if g in (0, 1) else [x // g for x in a]


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b (both dense, b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        la, k = a[-1], len(a) - 1 - db
        a = [x * lb for x in a]
        for i, y in enumerate(b, k):
            a[i] -= la * y
        _dense_trim(a)
    return a


def _dense_gcd(a, b):
    a, b = _dense_trim(list(a)), _dense_trim(list(b))
    if not a:
        return b
    if not b:
        return a
    cg = math.gcd(*a, *b)
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return [x * cg for x in a]


def poly_gcd(polys):
    """Gcd up to units of a list of Laurent polynomials, unit-normalized.

    gcd([]) = 0; the content/primitive split with a primitive remainder
    sequence keeps everything in exact integers.
    """
    acc = []
    for p in polys:
        if not p:
            continue
        acc = _dense_gcd(acc, p.coeffs)
        if acc == [1]:
            break
    return normalize_units(Laurent._trimmed(0, acc))


# ---------------------------------------------------------------------------
# free-group words

def free_reduce(word):
    """Freely reduce a word given as ((generator, +-1), ...)."""
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


# ---------------------------------------------------------------------------
# integer matrices: Hermite and Smith normal forms

def hnf(rows):
    """Row-style Hermite normal form.

    Rows span an integer lattice; the result is the unique echelon basis with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Zero rows are dropped, so equal lattices give equal HNFs.  Rows are
    inserted one at a time into a basis of at most ``ncols`` echelon rows,
    merged by extended-gcd steps, and the basis is reduced after every
    insertion, so entries stay bounded by the lattice instead of growing
    with the number of rows.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise AlgebraError("ragged matrix")
    basis = {}  # pivot column -> echelon row
    for v in mat:
        changed = False
        for col in range(ncols):
            a = v[col]
            if not a:
                continue
            b = basis.get(col)
            if b is None:
                basis[col] = v if a > 0 else [-x for x in v]
                changed = True
                break
            p = b[col]
            if a % p == 0:
                q = a // p
                v = [x - q * y for x, y in zip(v, b)]
                continue
            # [[x, y], [-a/g, p/g]] is unimodular and clears column col of v
            g, x, y = _ext_gcd(p, a)
            basis[col] = [x * s + y * w for s, w in zip(b, v)]
            v = [(p // g) * w - (a // g) * s for s, w in zip(b, v)]
            changed = True
        if changed:
            _reduce_above_pivots(basis)
    return [tuple(basis[col]) for col in sorted(basis)]


def _ext_gcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _reduce_above_pivots(basis):
    """Reduce every entry above a pivot into [0, pivot), left to right: the
    row of a later pivot is zero left of it, so it leaves earlier columns
    alone."""
    cols = sorted(basis)
    for i, col in enumerate(cols):
        row = basis[col]
        p = row[col]
        for prev in cols[:i]:
            upper = basis[prev]
            q = upper[col] // p
            if q:
                basis[prev] = [x - q * y for x, y in zip(upper, row)]


def snf(rows):
    """Smith invariant factors d1 | d2 | ... (positive, zero factors dropped).

    Alternates row Hermite forms of the matrix and of its transpose (Kannan
    and Bachem 1979) until each row holds one nonzero entry; the steps are
    unimodular, so the diagonal left has the Smith form that gcd/lcm steps
    chain it into.  This ends: each first pivot is the gcd of the first row
    before it, so it never grows; once it stops shrinking it divides that
    row, the first row and column stay cleared, and the same holds for the
    rest.
    """
    mat = hnf(rows)
    while any(sum(map(bool, row)) > 1 for row in mat):
        mat = hnf(zip(*mat))
    chained = []
    # the one nonzero entry of an HNF row is its positive pivot
    for d in map(max, mat):
        for k, prev in enumerate(chained):
            if d % prev:
                chained[k], d = math.gcd(d, prev), math.lcm(d, prev)
        chained.append(d)
    return chained


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


def fold(p, n):
    """p modulo t^n - 1: the Laurent polynomial with exponents in [0, n)
    that represents p in R_n = Z[t]/(t^n - 1); ``cyclic_ring`` checks n."""
    cyclic_ring(n)
    if 0 <= p.low and p.low + len(p.coeffs) <= n:
        return p
    slots = [0] * n
    for e, c in enumerate(p.coeffs, p.low):
        slots[e % n] += c
    return Laurent._trimmed(0, slots)


# ---------------------------------------------------------------------------
# rings for unit-pivot elimination

class Ring(NamedTuple):
    """A commutative ring as unit-pivot elimination sees it.

    Elements add with ``+`` and are false exactly when zero.  ``is_unit``
    recognizes the units to pivot on, ``neg_inverse(u)`` is -u^-1 for such
    a unit, and ``mul`` is the product.
    """

    is_unit: Callable
    neg_inverse: Callable
    mul: Callable


def _is_int_unit(a):
    return a == 1 or a == -1


# the units of Z are +-1, each its own inverse
INTEGERS = Ring(_is_int_unit, operator.neg, operator.mul)

LAURENT = Ring(Laurent.is_unit, lambda u: Laurent._raw(-u.low, (-u.coeffs[0],)),
               Laurent.__mul__)


@functools.lru_cache(maxsize=256)
def cyclic_ring(n):
    """R_n = Z[t]/(t^n - 1) on folded polynomials (see ``fold``), with the
    units +-t^a; only for n >= 1, and kept for the 256 latest n.

    The product of two folded polynomials adds the coefficient products
    straight into n slots, exponent e going to slot e mod n; a monomial
    factor c t^a only rotates the other factor by a and scales it by c.
    """
    if n < 1:
        raise AlgebraError(f"modulus n must be >= 1, got {n}")
    raw, trimmed = Laurent._raw, Laurent._trimmed

    def neg_inverse(u):
        return raw(-u.low % n, (-u.coeffs[0],))

    def mul(a, b):
        x, y = a.coeffs, b.coeffs
        if len(x) > len(y):
            x, y = y, x
        # folded factors have exponents below n, so low < 2n - 1
        low = a.low + b.low
        if low >= n:
            low -= n
        if len(x) == 1:
            c = x[0]
            if len(y) == 1:
                return raw(low, (c * y[0],))
            if c != 1:
                y = tuple(c * v for v in y)
            cut = n - low
            if len(y) <= cut:
                return raw(low, y)
            return trimmed(0, y[cut:] + (0,) * (n - len(y)) + y[:cut])
        slots = [0] * n
        for i, c in enumerate(x, low):
            for k, v in enumerate(y, i):
                slots[k % n] += c * v
        return trimmed(0, slots)

    return Ring(Laurent.is_unit, neg_inverse, mul)


def ideal_mod(gens, n):
    """Image in Z[t]/(t^n - 1) of the ideal generated by ``gens``: the
    lattice spanned by the cyclic shifts of their folded coefficients."""
    cyclic_ring(n)
    rows = []
    for p in gens:
        q = fold(p, n)
        vec = [0] * q.low + list(q.coeffs)
        vec += [0] * (n - len(vec))
        rows.extend(tuple(vec[-s:] + vec[:-s]) for s in range(n))
    return CyclicLattice(n, tuple(hnf(rows)))


def f_n(p, n):
    """Sum of coefficients whose exponent is congruent to 0 or 2 mod n.

    Z-linear and vanishing on the ideal (1 - t^n), so a nonzero value
    certifies non-membership.
    """
    q = fold(p, n)
    return sum(c for e, c in enumerate(q.coeffs, q.low) if e in (0, 2 % n))


# ---------------------------------------------------------------------------
# minors of Laurent matrices

def laurent_minors(rows, sizes, ring=LAURENT):
    """Every nonzero s x s minor of a sparse Laurent matrix, for s in ``sizes``.

    ``rows`` is a list of {column: nonzero Laurent} dicts; columns are any
    sortable labels, and all-zero columns need no entry since they give no
    nonzero minor.  Returns {(row positions, column labels): minor}, both
    tuples increasing.  The minors of all sizes come from one Laplace memo:
    a size-s minor expands along its first row into the size-(s-1) minors of
    the rows below it, so each level is built from the one before and every
    smaller minor is computed once.  A minor is kept only while some
    requested size can still be reached from it, which makes a single full
    determinant a walk over column subsets of the bottom rows.  Products
    are ``ring.mul``: over ``LAURENT`` the minors lie in Z[t^+-1]; over
    ``cyclic_ring(n)``, whose entries must be folded, they are the images
    in R_n of the minors of any matrix that folds to ``rows``.
    """
    mul = ring.mul
    sizes = {s for s in sizes if 0 <= s <= len(rows)}
    out = {}
    level = {((), ()): Laurent._raw(0, (1,))}
    for size in range(max(sizes, default=-1) + 1):
        if size:
            # a new first row r leaves room above it for the rows the
            # smallest requested size >= size still needs
            first = min(s for s in sizes if s >= size) - size
            level = _extend_minors(rows, level, first, mul)
        if size in sizes:
            out.update(level)
        if not level:
            break
    return out


def _extend_minors(rows, level, first, mul):
    """Minors one size up: put a row r >= first above each minor's rows."""
    nxt = {}
    for (rset, cset), minor in level.items():
        for r in range(first, rset[0] if rset else len(rows)):
            for col, entry in rows[r].items():
                if col in cset:
                    continue
                pos = bisect.bisect(cset, col)
                key = ((r,) + rset, cset[:pos] + (col,) + cset[pos:])
                term = mul(entry, minor)
                got = nxt.get(key)
                if pos % 2:
                    nxt[key] = -term if got is None else got - term
                else:
                    nxt[key] = term if got is None else got + term
    return {key: p for key, p in nxt.items() if p.coeffs}

