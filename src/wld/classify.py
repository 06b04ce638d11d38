"""Decision procedures for generalized-virtualization equivalence, the
normal forms of string links, the elementary-ideal obstruction, crossing
multiplexing, and a named example corpus.

Two welded links are V(n)-equivalent for even n unconditionally; for odd n
exactly when the mod-n reductions of lambda_ij + lambda_ji agree pairwise
(``twist_residues``).  They are (V^n + UC)-equivalent exactly when every
ordered lambda_ij agrees mod n (``parallel_residues``).  Both conditions
are complete, so the verdicts are exact, and the same residues of a string
link's closure are its normal-form parameters.  For V^n-moves alone there
is only an obstruction: the images of the elementary ideals E^k in
Z[t]/(t^n - 1), compared as lattices.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .algebra import cyclic_ring, ideal_mod
from .arrows import build_H, build_Hbar, surgery
from .diagram import (DIGITS, LINK, Diagram, DiagramError, Passage, closure,
                      linking_matrix, parse)
from .invariants import elementary_ideals

RELATION_VN = "vn"
RELATION_VN_UC = "vn-uc"


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Exact decision with its residue certificate.

    ``residues`` maps "i,j" (1-based) to the pair of compared residues; for
    odd V(n) these are the mod-n sums lambda_ij + lambda_ji over i < j, for
    V^n + UC the individual ordered linking numbers mod n.
    """

    relation: str
    n: int
    equivalent: bool
    residues: tuple

    @property
    def verdict(self):
        return "equivalent" if self.equivalent else "inequivalent"

    def to_json_dict(self):
        return {
            "relation": self.relation,
            "n": self.n,
            "verdict": self.verdict,
            "residues": [
                {"pair": list(pair), "left": left, "right": right}
                for pair, left, right in self.residues
            ],
        }


@dataclass(frozen=True)
class ObstructionCertificate:
    """Least k at which the E^k images modulo (1 - t^n) differ, with both
    lattices (HNF bases of the images, see ``CyclicLattice``)."""

    n: int
    k: int
    lattice_left: tuple
    lattice_right: tuple

    reason = "ideal"

    def to_json_dict(self):
        return {
            "relation": "vn-only",
            "n": self.n,
            "verdict": "obstruction-found",
            "obstruction_k": self.k,
            "reason": self.reason,
            "lattices": {
                "left": [list(r) for r in self.lattice_left],
                "right": [list(r) for r in self.lattice_right],
            },
        }


def _check(n, *diagrams):
    """The n and the link diagrams every decision and normal form needs."""
    for d in diagrams:
        if d.kind != LINK:
            raise DiagramError("equivalence decisions expect link diagrams; "
                               "close string links first")
    cyclic_ring(n)


def twist_residues(d, n):
    """{(i, j): (lambda_ij + lambda_ji) mod n} over 1-based i < j: what
    ``decide_vn`` compares for odd n."""
    lam = linking_matrix(d)
    return {(i + 1, j + 1): (lam[i][j] + lam[j][i]) % n
            for i, j in itertools.combinations(range(d.mu), 2)}


def parallel_residues(d, n):
    """{(i, j): lambda_ij mod n} over ordered 1-based pairs: what
    ``decide_vn_uc`` compares."""
    lam = linking_matrix(d)
    return {(i + 1, j + 1): lam[i][j] % n
            for i, j in itertools.permutations(range(d.mu), 2)}


def decide_vn(left, right, n, any_order=False):
    """Decide V(n)-equivalence.

    Even n: every welded link is V(n)-equivalent to the unknot, so the
    verdict is always equivalent.  Odd n: complete invariant is the matrix
    of (lambda_ij + lambda_ji) mod n over i < j; diagrams with different
    component counts are inequivalent (odd V(n)-moves preserve mu).
    """
    _check(n, left, right)
    if n % 2 == 0:
        return EquivalenceVerdict(RELATION_VN, n, True, ())
    return _decide(RELATION_VN, twist_residues, left, right, n, any_order)


def decide_vn_uc(left, right, n, any_order=False):
    """Decide (V^n + UC)-equivalence: complete invariant is lambda_ij mod n
    over ordered pairs."""
    _check(n, left, right)
    return _decide(RELATION_VN_UC, parallel_residues, left, right, n, any_order)


def _decide(relation, residues, left, right, n, any_order):
    """Verdict comparing the residue maps of two links with equal component
    counts.  ``any_order`` also tries every reordering of the right one's
    components, a convenience beyond the fixed-order definition of the
    relations, and returns the first equivalent verdict, else the one in
    the given order."""
    if left.mu != right.mu:
        return EquivalenceVerdict(relation, n, False, ())
    mine = residues(left, n)
    rights = ((Diagram(comps, right.kind) for comps in itertools.permutations(right.components))
              if any_order else (right,))
    first = None
    for other in rights:
        theirs = residues(other, n)
        verdict = EquivalenceVerdict(relation, n, mine == theirs, tuple(
            (pair, a, theirs[pair]) for pair, a in mine.items()))
        if verdict.equivalent:
            return verdict
        first = first or verdict
    return first


def normalize_vn(p, n):
    """Twist normal-form parameters for odd n.

    Returns {(i, j): a_ij} with 0 <= a_ij < n for 1 <= i < j <= mu, where
    a_ij is the mod-n reduction of lambda_ij + lambda_ji of the closure of
    the string-link presentation p; the stacked H_ij(a_ij) presentations
    realize the normal form.
    """
    _check(n)
    if n % 2 == 0:
        raise DiagramError("normalize_vn needs odd n >= 1")
    return twist_residues(closure(p.diagram), n)


def normalize_vn_uc(p, n):
    """Parallel normal-form parameters of a string-link presentation:
    ({(i,j): a_ij}, {(i,j): b_ij}) with a_ij = lambda_ij mod n and
    b_ij = lambda_ji mod n for i < j."""
    _check(n)
    res = parallel_residues(closure(p.diagram), n)
    pairs = [(i, j) for i, j in res if i < j]
    return {(i, j): res[i, j] for i, j in pairs}, {(i, j): res[j, i] for i, j in pairs}


def obstruct_vn(left, right, n, kmax=3):
    """Elementary-ideal obstruction to V^n-equivalence.

    V^n-equivalent links have, for every k, equal E^k images modulo
    (1 - t^n); they are computed in Z[t]/(t^n - 1) directly (see
    ``elementary_ideals``).  Returns the certificate at the least k <= kmax
    where they differ, or None when all agree (inconclusive: this direction
    never certifies equivalence).
    """
    _check(n, left, right)
    if kmax < 0:
        raise DiagramError("need kmax >= 0")
    # E^k is the whole ring once k reaches the arc count, which is at most
    # the crossing count plus the component count, so no later k differs
    top = min(kmax, max(d.crossing_count + d.mu for d in (left, right)))
    ideals_l = elementary_ideals(left, top, n)
    ideals_r = elementary_ideals(right, top, n)
    for k in range(top + 1):
        lat_l = ideal_mod(ideals_l[k], n)
        lat_r = ideal_mod(ideals_r[k], n)
        if lat_l != lat_r:
            return ObstructionCertificate(n, k, lat_l.basis, lat_r.basis)
    return None


def multiplex(d, m):
    """Multiplexing of crossings: each crossing whose over-passage lies on
    component j becomes a parallel block of |m_j| crossings of sign
    sign(crossing) * sign(m_j); m_j = 0 virtualizes the crossing.
    """
    if len(m) != d.mu:
        raise DiagramError(f"need one multiplier per component, got {len(m)}")
    blocks = {}
    next_id = 1
    for cid, ((co, _), _, _) in d.crossing_table().items():
        mj = m[co]
        count = abs(mj)
        blocks[cid] = (list(range(next_id, next_id + count)),
                       (1 if mj >= 0 else -1))
        next_id += count
    comps = []
    for comp in d.components:
        seq = []
        for psg in comp:
            ids, msign = blocks[psg.crossing]
            seq.extend(Passage(k, psg.role, psg.sign * msign) for k in ids)
        comps.append(tuple(seq))
    return Diagram(tuple(comps), d.kind)


# ---------------------------------------------------------------------------
# named corpus

_FIXED = {
    "unknot": "component:\n",
    "trefoil": "component: O1+ U2+ O3+ U1+ O2+ U3+\n",
    "figure8": "component: O1+ U2- O4- U1+ O3+ U4- O2- U3+\n",
    "hopf+": "component: O1+ U2+\ncomponent: U1+ O2+\n",
    "hopf-": "component: O1- U2-\ncomponent: U1- O2-\n",
    "virtual-trefoil": "component: O1+ O2+ U1+ U2+\n",
}


def named(name):
    """Fixed example diagrams.

    Names: unknot, trefoil, figure8, hopf+, hopf-, virtual-trefoil,
    unlink-<k>, h-closure:<mu>,<i>,<j>,<a> and hbar-closure:<mu>,<i>,<j>,<b>.
    """
    key = name.strip().lower()
    if key in _FIXED:
        return parse(_FIXED[key])
    if key.startswith("unlink-"):
        suffix = key[len("unlink-"):]
        if re.fullmatch(DIGITS, suffix) and int(suffix) >= 1:
            return Diagram(tuple(() for _ in range(int(suffix))), LINK)
    if key.startswith(("h-closure:", "hbar-closure:")):
        head, _, params = key.partition(":")
        parts = [s.strip() for s in params.split(",")]
        if len(parts) == 4 and all(re.fullmatch(rf"-?{DIGITS}", s) for s in parts):
            mu, i, j, a = (int(s) for s in parts)
            builder = build_H if head == "h-closure" else build_Hbar
            return closure(surgery(builder(mu, i, j, a)))
    raise DiagramError(f"unknown example name {name!r}")


def example_names():
    return sorted(_FIXED) + ["unlink-<k>", "h-closure:<mu>,<i>,<j>,<a>",
                             "hbar-closure:<mu>,<i>,<j>,<b>"]
