"""Decision procedures for generalized-virtualization equivalence, the
elementary-ideal obstruction, crossing multiplexing, and a named example
corpus.

Two welded links are V(n)-equivalent for even n unconditionally; for odd n
exactly when the mod-n reductions of lambda_ij + lambda_ji agree pairwise.
They are (V^n + UC)-equivalent exactly when every ordered lambda_ij agrees
mod n.  Both conditions are complete, so the verdicts are exact; the ideal
comparison is only an obstruction for V^n-moves alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (Laurent, format_poly, ideal_mod, member_of_principal,
                      poly_gcd)
from .diagram import (LINK, Diagram, DiagramError, Passage,
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
    """Least k at which the V^n-invariance of the elementary ideals fails.

    ``reason`` is "ideal" when the E^k images modulo (1 - t^n) differ as
    lattices, and "alexander" when the lattices agree but no unit +-t^r
    makes the k-th Alexander polynomials congruent modulo (1 - t^n).
    """

    n: int
    k: int
    reason: str
    lattice_left: tuple
    lattice_right: tuple
    delta_left: str = ""
    delta_right: str = ""

    def to_json_dict(self):
        out = {
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
        if self.reason == "alexander":
            out["alexander"] = {"left": self.delta_left, "right": self.delta_right}
        return out


def _require_links(*diagrams):
    for d in diagrams:
        if d.kind != LINK:
            raise DiagramError("equivalence decisions expect link diagrams; "
                               "close string links first")


def decide_vn(left, right, n, any_order=False):
    """Decide V(n)-equivalence.

    Even n: every welded link is V(n)-equivalent to the unknot, so the
    verdict is always equivalent.  Odd n: complete invariant is the matrix
    of (lambda_ij + lambda_ji) mod n over i < j; diagrams with different
    component counts are inequivalent (odd V(n)-moves preserve mu).
    """
    _require_links(left, right)
    if n < 1:
        raise DiagramError("n must be >= 1")
    if n % 2 == 0:
        return EquivalenceVerdict(RELATION_VN, n, True, ())
    if any_order:
        return _best_over_orders(left, right, n, decide_vn)
    if left.mu != right.mu:
        return EquivalenceVerdict(RELATION_VN, n, False, ())
    return _compare_residues(RELATION_VN, n, left, right,
                             itertools.combinations(range(left.mu), 2),
                             lambda lam, i, j: lam[i][j] + lam[j][i])


def decide_vn_uc(left, right, n, any_order=False):
    """Decide (V^n + UC)-equivalence: complete invariant is lambda_ij mod n
    over ordered pairs."""
    _require_links(left, right)
    if n < 1:
        raise DiagramError("n must be >= 1")
    if any_order:
        return _best_over_orders(left, right, n, decide_vn_uc)
    if left.mu != right.mu:
        return EquivalenceVerdict(RELATION_VN_UC, n, False, ())
    return _compare_residues(RELATION_VN_UC, n, left, right,
                             itertools.permutations(range(left.mu), 2),
                             lambda lam, i, j: lam[i][j])


def _compare_residues(relation, n, left, right, pairs, residue):
    """Verdict comparing residue(lambda, i, j) mod n of both diagrams over
    the 0-based component pairs."""
    lam_l, lam_r = linking_matrix(left), linking_matrix(right)
    residues = tuple(((i + 1, j + 1), residue(lam_l, i, j) % n, residue(lam_r, i, j) % n)
                     for i, j in pairs)
    return EquivalenceVerdict(relation, n, all(a == b for _, a, b in residues), residues)


def _best_over_orders(left, right, n, decide):
    """Allow reordering of the right diagram's components; a convenience
    beyond the fixed-order definition of the relations."""
    best = None
    for perm in itertools.permutations(range(right.mu)):
        permuted = Diagram(tuple(right.components[i] for i in perm), right.kind)
        verdict = decide(left, permuted, n)
        if verdict.equivalent:
            return verdict
        if best is None:
            best = verdict
    return best


def obstruct_vn(left, right, n, kmax=3):
    """Elementary-ideal obstruction to V^n-equivalence.

    V^n-equivalent links have, for every k, equal E^k images modulo
    (1 - t^n) and k-th Alexander polynomials congruent up to a unit +-t^r.
    Returns the certificate at the least k <= kmax where either fails, or
    None when all agree (inconclusive: this direction never certifies
    equivalence).
    """
    _require_links(left, right)
    if n < 1 or kmax < 0:
        raise DiagramError("need n >= 1 and kmax >= 0")
    ideals_l = elementary_ideals(left, kmax)
    ideals_r = elementary_ideals(right, kmax)
    for k in range(kmax + 1):
        lat_l = ideal_mod(ideals_l[k], n)
        lat_r = ideal_mod(ideals_r[k], n)
        if lat_l != lat_r:
            return ObstructionCertificate(n, k, "ideal", lat_l.basis, lat_r.basis)
        delta_l = poly_gcd(ideals_l[k])
        delta_r = poly_gcd(ideals_r[k])
        if not _deltas_congruent(delta_l, delta_r, n):
            return ObstructionCertificate(
                n, k, "alexander", lat_l.basis, lat_r.basis,
                format_poly(delta_l), format_poly(delta_r))
    return None


def _deltas_congruent(p, q, n):
    """Does p = +-t^r q hold modulo (1 - t^n) for some sign and shift?"""
    for eps in (1, -1):
        for r in range(n):
            if member_of_principal(p - Laurent.monomial(eps, r) * q, n):
                return True
    return False


def multiplex(d, m):
    """Multiplexing of crossings: each crossing whose over-passage lies on
    component j becomes a parallel block of |m_j| crossings of sign
    sign(crossing) * sign(m_j); m_j = 0 virtualizes the crossing.
    """
    if len(m) != d.mu:
        raise DiagramError(f"need one multiplier per component, got {len(m)}")
    blocks = {}
    next_id = 1
    for cid in d.crossing_ids():
        (co, po), _ = d.passage_positions(cid)
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
        if suffix.isdigit() and int(suffix) >= 1:
            return Diagram(tuple(() for _ in range(int(suffix))), LINK)
    if key.startswith(("h-closure:", "hbar-closure:")):
        from .arrows import build_H, build_Hbar, surgery
        from .diagram import closure
        head, _, params = key.partition(":")
        parts = [s.strip() for s in params.split(",")]
        if len(parts) == 4 and all(s.lstrip("-").isdigit() for s in parts):
            mu, i, j, a = (int(s) for s in parts)
            builder = build_H if head == "h-closure" else build_Hbar
            return closure(surgery(builder(mu, i, j, a)))
    raise DiagramError(f"unknown example name {name!r}")


def example_names():
    return sorted(_FIXED) + ["unlink-<k>", "h-closure:<mu>,<i>,<j>,<a>",
                             "hbar-closure:<mu>,<i>,<j>,<b>"]
