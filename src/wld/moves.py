"""Local moves on Gauss codes.

Welded Reidemeister moves (R1, R2, R3, OC), the forbidden UC-move, crossing
virtualization V, the generalized virtualizations V(n) and V^n, and their
antiparallel variants.  Also a seeded scrambler and a bounded breadth-first
equivalence search.

Conventions pinned by the ordered-linking-number calibration:

* V^n inserts/deletes n consecutive same-sign crossings with the first
  strand over at all of them, over-passages consecutive on strand 1 and
  under-passages consecutive in the same order on strand 2; the block
  shifts the ordered linking number of (strand 1, strand 2) by +-n.
* V(n) inserts/deletes an n-crossing twist block: roles alternate along
  each strand, all crossings share one sign.  Odd n preserves strand
  connectivity; even n splices the two strands at the site, so the
  component count may change by one.
* The antiparallel variants read the second strand's block in reversed
  order.  V(1), V^1 and their bars all normalize to plain V.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .diagram import (LINK, OVER, STRING_LINK, UNDER, DiagramError,
                      Passage, canonical_key)

EXPAND = "expand"
REDUCE = "reduce"

FAMILIES = ("r1", "r2", "r3", "oc", "uc", "v", "v(n)", "v^n", "vbar(n)", "vbar^n")
_PARAMETRIC = ("v(n)", "v^n", "vbar(n)", "vbar^n")
_UNDIRECTED = ("r3", "oc", "uc")


class MoveError(DiagramError):
    """A move site does not apply to the given diagram."""


@dataclass(frozen=True, order=True)
class MoveKind:
    family: str
    n: int = 0
    direction: str = ""

    def __str__(self):
        name = self.family.replace("n", str(self.n)) if self.family in _PARAMETRIC else self.family
        return f"{name} {self.direction}".strip()


def make_kind(family, n=None, direction=None):
    """Validated MoveKind; n=1 variants collapse to plain virtualization."""
    if family not in FAMILIES:
        raise MoveError(f"unknown move family {family!r}")
    if family in _PARAMETRIC:
        if n is None or n < 1:
            raise MoveError(f"{family} needs a parameter n >= 1")
        if family == "vbar(n)" and n % 2 == 0:
            raise MoveError("vbar(n) is defined for odd n only")
        if n == 1:
            family, n = "v", 0
    else:
        n = 0
    if direction not in (None, EXPAND, REDUCE):
        raise MoveError(f"bad direction {direction!r}")
    if family in _UNDIRECTED:
        direction = ""
    return MoveKind(family, n, direction or "")


def parse_kind(text):
    """Parse CLI move names: r1, oc, v, v(n):3, v^n:2, vbar(n):3, vbar^n:2."""
    text = text.strip().lower()
    if ":" in text:
        name, _, param = text.partition(":")
        if not param.lstrip("-").isdigit():
            raise MoveError(f"bad move parameter in {text!r}")
        return make_kind(name, int(param))
    return make_kind(text)


def parse_kinds(text):
    return [parse_kind(tok) for tok in text.split(",") if tok.strip()]


@dataclass(frozen=True, order=True)
class MoveSite:
    """Kind-specific tuple of positions/variants in a host diagram."""

    data: tuple


# ---------------------------------------------------------------------------
# position helpers

def _adjacent_pairs(d, ci):
    """(p, p_next) index pairs along component ci, honoring cyclicity.

    A cyclic component of length two has a single unordered adjacency, not
    two, so the wrap pair is dropped there.
    """
    comp = d.components[ci]
    n = len(comp)
    if n < 2:
        return []
    if d.kind == STRING_LINK:
        return [(p, p + 1) for p in range(n - 1)]
    if n == 2:
        return [(0, 1)]
    return [(p, (p + 1) % n) for p in range(n)]


def _gaps(d, ci):
    n = len(d.components[ci])
    if d.kind == STRING_LINK:
        return list(range(n + 1))
    return list(range(n)) if n else [0]


def _check_variant(value, allowed, what):
    if value not in allowed:
        raise MoveError(f"bad {what} {value!r} in site")


def _check_gap(components, kind, ci, gap):
    if not 0 <= ci < len(components):
        raise MoveError(f"no component {ci}")
    n = len(components[ci])
    limit = n + 1 if kind == STRING_LINK else max(n, 1)
    if not 0 <= gap < limit:
        raise MoveError(f"gap {gap} out of range on component {ci}")


def _insert(components, ci, gap, block):
    comps = [list(c) for c in components]
    comps[ci][gap:gap] = block
    return comps


def _delete_positions(components, removals):
    """removals: iterable of (ci, position).  Returns new component lists."""
    by_comp = {}
    for ci, p in removals:
        by_comp.setdefault(ci, set()).add(p)
    comps = [list(c) for c in components]
    for ci, positions in by_comp.items():
        comps[ci] = [psg for p, psg in enumerate(comps[ci]) if p not in positions]
    return comps


def _run_positions(d, ci, start, length):
    if not 0 <= ci < d.mu:
        return None
    n = len(d.components[ci])
    if not 0 <= start < n:
        return None
    if d.kind == STRING_LINK:
        if start + length > n:
            return None
        return list(range(start, start + length))
    if length > n:
        return None
    return [(start + i) % n for i in range(length)]


# ---------------------------------------------------------------------------
# R3 pattern table, derived from plane triangle configurations
#
# Three lines at angles 0/60/120 degrees in generic position form a triangle.
# Assigning the three code strands to the lines (6 ways), flipping each
# direction (8 ways) and choosing who is over at each crossing (transitive
# tournaments only -- one strand must be slidable across the opposite vertex)
# determines travel orders and crossing signs.  The move swaps the two
# passages of each of the three adjacent pairs, and the swapped configuration
# is itself realizable (the slid triangle), so the table is closed under the
# swap.

_SQRT3 = math.sqrt(3.0)
_LINES = (((0.0, 0.0), (1.0, 0.0)),
          ((1.0, 0.0), (0.5, _SQRT3 / 2)),
          ((-1.0, 0.0), (-0.5, _SQRT3 / 2)))
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _line_params():
    """params[i][j] = parameter along line i of its meeting with line j."""
    params = {}
    for i, j in itertools.combinations(range(3), 2):
        (pi, di), (pj, dj) = _LINES[i], _LINES[j]
        rel = (pj[0] - pi[0], pj[1] - pi[1])
        denom = _cross2(di, dj)
        ti = _cross2(rel, dj) / denom
        tj = -_cross2((-rel[0], -rel[1]), di) / denom
        params[(i, j)] = ti
        params[(j, i)] = tj
    return params


def _canon_triple(edges):
    """Canonical form of three (first-passage, second-passage) pairs.

    Each passage is (crossing-key, role, sign); crossing keys are abstract
    and get relabeled by the pair of edge slots they join.
    """
    best = None
    for perm in itertools.permutations(range(3)):
        ordered = [edges[k] for k in perm]
        owners = {}
        for ei, edge in enumerate(ordered):
            for ckey, _, _ in edge:
                owners.setdefault(ckey, []).append(ei)
        label = {ckey: tuple(sorted(v)) for ckey, v in owners.items()}
        key = tuple(tuple((label[ckey], role, sign) for ckey, role, sign in edge)
                    for edge in ordered)
        if best is None or key < best:
            best = key
    return best


def _r3_pattern_table():
    params = _line_params()
    patterns = set()
    for assign in itertools.permutations(range(3)):
        for flips in itertools.product((1, -1), repeat=3):
            dirs = []
            for s in range(3):
                _, dv = _LINES[assign[s]]
                dirs.append((flips[s] * dv[0], flips[s] * dv[1]))
            for overs in itertools.product((0, 1), repeat=3):
                wins = [0, 0, 0]
                over_of = {}
                for m, (a, b) in enumerate(_PAIRS):
                    ov = (a, b)[overs[m]]
                    over_of[frozenset((a, b))] = ov
                    wins[ov] += 1
                if sorted(wins) != [0, 1, 2]:
                    continue  # cyclic tournament: no strand can slide
                signs = {}
                for a, b in _PAIRS:
                    ov = over_of[frozenset((a, b))]
                    un = b if ov == a else a
                    signs[frozenset((a, b))] = 1 if _cross2(dirs[ov], dirs[un]) > 0 else -1
                edges = []
                for s in range(3):
                    others = [u for u in range(3) if u != s]
                    def travel(u):
                        return flips[s] * params[(assign[s], assign[u])]
                    others.sort(key=travel)
                    edge = []
                    for u in others:
                        key = frozenset((s, u))
                        role = OVER if over_of[key] == s else UNDER
                        edge.append((key, role, signs[key]))
                    edges.append(tuple(edge))
                pat = _canon_triple(edges)
                patterns.add(pat)
                patterns.add(_canon_triple([tuple(reversed(e)) for e in edges]))
    return frozenset(patterns)


_R3_PATTERNS = _r3_pattern_table()


def _r3_triple_pattern(d, pair_sites):
    """Canonical pattern of three adjacent pairs, or None if malformed."""
    positions = set()
    edges = []
    for ci, p in pair_sites:
        if not 0 <= ci < d.mu or not 0 <= p < len(d.components[ci]):
            return None
        comp = d.components[ci]
        n = len(comp)
        q = p + 1 if d.kind == STRING_LINK else (p + 1) % n
        if q >= n:
            return None
        if (ci, p) in positions or (ci, q) in positions or p == q:
            return None
        positions.update([(ci, p), (ci, q)])
        a, b = comp[p], comp[q]
        if a.crossing == b.crossing:
            return None
        edges.append(((a.crossing, a.role, a.sign), (b.crossing, b.role, b.sign)))
    crossings = {}
    for edge in edges:
        for cid, _, _ in edge:
            crossings[cid] = crossings.get(cid, 0) + 1
    if len(crossings) != 3 or set(crossings.values()) != {2}:
        return None
    return _canon_triple([tuple(edge) for edge in edges])


# ---------------------------------------------------------------------------
# find_sites

def find_sites(d, kind):
    """All applicable sites of a move kind, deterministically sorted."""
    fam = kind.family
    if fam in _UNDIRECTED:
        finder = {"r3": _sites_r3, "oc": _sites_swap_oc, "uc": _sites_swap_uc}[fam]
        return sorted(finder(d))
    if not kind.direction:
        raise MoveError(f"move kind {kind} needs a direction")
    finder = _FINDERS[(fam, kind.direction)]
    return sorted(finder(d, kind.n))


def _sites_swap_oc(d):
    return _sites_swap(d, OVER)


def _sites_swap_uc(d):
    return _sites_swap(d, UNDER)


def _sites_swap(d, role):
    out = []
    for ci in range(d.mu):
        comp = d.components[ci]
        for p, q in _adjacent_pairs(d, ci):
            if comp[p].role == role and comp[q].role == role:
                out.append(MoveSite((ci, p)))
    return out


def _sites_r3(d):
    edges = []
    for ci in range(d.mu):
        comp = d.components[ci]
        for p, q in _adjacent_pairs(d, ci):
            if comp[p].crossing != comp[q].crossing:
                edges.append((ci, p, frozenset((comp[p].crossing, comp[q].crossing))))
    by_cset = {}
    for ci, p, cset in edges:
        by_cset.setdefault(cset, []).append((ci, p))
    graph = {}
    for cset in by_cset:
        a, b = sorted(cset)
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set()).add(a)
    out = set()
    for a in sorted(graph):
        for b in sorted(graph[a]):
            if b <= a:
                continue
            for c in sorted(graph[a] & graph[b]):
                if c <= b:
                    continue
                bins = [by_cset.get(frozenset(x), []) for x in
                        ((a, b), (b, c), (a, c))]
                for combo in itertools.product(*bins):
                    sites = tuple(sorted(combo))
                    pat = _r3_triple_pattern(d, sites)
                    if pat is not None and pat in _R3_PATTERNS:
                        out.add(MoveSite(sites))
    return out


def _sites_r1_reduce(d, n):
    out = []
    for ci in range(d.mu):
        comp = d.components[ci]
        for p, q in _adjacent_pairs(d, ci):
            if comp[p].crossing == comp[q].crossing:
                out.append(MoveSite((ci, p)))
    return out


def _sites_r1_expand(d, n):
    out = []
    for ci in range(d.mu):
        for g in _gaps(d, ci):
            for order in (OVER, UNDER):
                for sign in (1, -1):
                    out.append(MoveSite((ci, g, order, sign)))
    return out


def _sites_r2_reduce(d, n):
    out = []
    unders = {}
    for ci in range(d.mu):
        comp = d.components[ci]
        for p, q in _adjacent_pairs(d, ci):
            if comp[p].role == UNDER and comp[q].role == UNDER:
                unders[(comp[p].crossing, comp[q].crossing)] = unders.get(
                    (comp[p].crossing, comp[q].crossing), []) + [(ci, p)]
    for ci in range(d.mu):
        comp = d.components[ci]
        for p, q in _adjacent_pairs(d, ci):
            a, b = comp[p], comp[q]
            if a.role != OVER or b.role != OVER or a.sign != -b.sign:
                continue
            over_pos = {(ci, p), (ci, (p + 1) % len(comp) if d.kind == LINK else p + 1)}
            for parallel, key in ((True, (a.crossing, b.crossing)),
                                  (False, (b.crossing, a.crossing))):
                for cj, r in unders.get(key, []):
                    comp_j = d.components[cj]
                    s = r + 1 if d.kind == STRING_LINK else (r + 1) % len(comp_j)
                    if {(cj, r), (cj, s)} & over_pos:
                        continue
                    out.append(MoveSite((ci, p, cj, r, parallel)))
    return out


def _sites_r2_expand(d, n):
    out = []
    for (c1, g1), (c2, g2) in itertools.product(_all_gaps(d), repeat=2):
        for sign in (1, -1):
            for parallel in (True, False):
                out.append(MoveSite((c1, g1, c2, g2, sign, parallel)))
    return out


def _all_gaps(d):
    return [(ci, g) for ci in range(d.mu) for g in _gaps(d, ci)]


def _sites_v_reduce(d, n):
    return [MoveSite((cid,)) for cid in d.crossing_ids()]


def _sites_v_expand(d, n):
    out = []
    for (c1, g1), (c2, g2) in itertools.product(_all_gaps(d), repeat=2):
        for sign in (1, -1):
            out.append(MoveSite((c1, g1, c2, g2, sign)))
    return out


def _block_run(d, ci, start, n, role):
    """Crossing ids of a same-role, same-sign run of length n, else None."""
    positions = _run_positions(d, ci, start, n)
    if positions is None or len(set(positions)) != n:
        return None
    comp = d.components[ci]
    sign = comp[positions[0]].sign
    ids = []
    for p in positions:
        psg = comp[p]
        if psg.role != role or psg.sign != sign:
            return None
        ids.append(psg.crossing)
    return ids, sign, positions


def _sites_vn_reduce(d, n, reversed_under=False):
    out = []
    for ci in range(d.mu):
        comp = d.components[ci]
        for p in range(len(comp)):
            got = _block_run(d, ci, p, n, OVER)
            if not got:
                continue
            ids, sign, over_pos = got
            want = list(reversed(ids)) if reversed_under else ids
            for cj in range(d.mu):
                comp_j = d.components[cj]
                for q in range(len(comp_j)):
                    under = _block_run(d, cj, q, n, UNDER)
                    if not under:
                        continue
                    uids, usign, under_pos = under
                    if uids != want or usign != sign:
                        continue
                    if cj == ci and set(under_pos) & set(over_pos):
                        continue
                    out.append(MoveSite((ci, p, cj, q)))
    return out


def _sites_vn_expand(d, n):
    return _sites_v_expand(d, n)


def _alt_run(d, ci, start, n):
    """Alternating-role, same-sign run: (ids, roles, sign, positions) or None."""
    positions = _run_positions(d, ci, start, n)
    if positions is None or len(set(positions)) != n:
        return None
    comp = d.components[ci]
    sign = comp[positions[0]].sign
    first = comp[positions[0]].role
    ids, roles = [], []
    for k, p in enumerate(positions):
        psg = comp[p]
        want = first if k % 2 == 0 else (UNDER if first == OVER else OVER)
        if psg.role != want or psg.sign != sign:
            return None
        ids.append(psg.crossing)
        roles.append(psg.role)
    return ids, roles, sign, positions


def _sites_twist_reduce(d, n, reversed_second=False):
    if n % 2 == 0 and not reversed_second and d.kind == STRING_LINK:
        return []
    out = []
    for ci in range(d.mu):
        comp = d.components[ci]
        for p in range(len(comp)):
            got = _alt_run(d, ci, p, n)
            if not got or got[1][0] != OVER:
                continue
            ids, roles, sign, positions = got
            want_ids = list(reversed(ids)) if reversed_second else ids
            for cj in range(d.mu):
                comp_j = d.components[cj]
                for q in range(len(comp_j)):
                    other = _alt_run(d, cj, q, n)
                    if not other:
                        continue
                    oids, oroles, osign, opos = other
                    if oids != want_ids or osign != sign:
                        continue
                    expect = [UNDER if r == OVER else OVER for r in
                              (reversed(roles) if reversed_second else roles)]
                    if oroles != expect:
                        continue
                    if cj == ci and set(opos) & set(positions):
                        continue
                    out.append(MoveSite((ci, p, cj, q)))
    return out


def _sites_twist_expand(d, n):
    if n % 2 == 0 and d.kind == STRING_LINK:
        return []
    out = []
    for (c1, g1), (c2, g2) in itertools.product(_all_gaps(d), repeat=2):
        for sign in (1, -1):
            for first_over in (1, 2):
                out.append(MoveSite((c1, g1, c2, g2, sign, first_over)))
    return out


def _sites_v_n_even_guard(d):
    if d.kind == STRING_LINK:
        raise MoveError("even twist moves splice strands; links only")


_FINDERS = {
    ("r1", REDUCE): _sites_r1_reduce,
    ("r1", EXPAND): _sites_r1_expand,
    ("r2", REDUCE): _sites_r2_reduce,
    ("r2", EXPAND): _sites_r2_expand,
    ("v", REDUCE): _sites_v_reduce,
    ("v", EXPAND): _sites_v_expand,
    ("v^n", REDUCE): lambda d, n: _sites_vn_reduce(d, n, reversed_under=False),
    ("v^n", EXPAND): _sites_vn_expand,
    ("vbar^n", REDUCE): lambda d, n: _sites_vn_reduce(d, n, reversed_under=True),
    ("vbar^n", EXPAND): _sites_vn_expand,
    ("v(n)", REDUCE): lambda d, n: _sites_twist_reduce(d, n, reversed_second=False),
    ("v(n)", EXPAND): _sites_twist_expand,
    ("vbar(n)", REDUCE): lambda d, n: _sites_twist_reduce(d, n, reversed_second=True),
    ("vbar(n)", EXPAND): _sites_twist_expand,
}


# ---------------------------------------------------------------------------
# apply

def apply(d, kind, site):
    """Apply one move at a site; raises MoveError if the site does not fit."""
    fam = kind.family
    if fam not in _UNDIRECTED and not kind.direction:
        raise MoveError(f"move kind {kind} needs a direction")
    data = site.data
    if len(data) != _SITE_LENGTHS[(fam, kind.direction)] or (
            fam == "r3" and not all(isinstance(pair, tuple) and len(pair) == 2
                                    for pair in data)):
        raise MoveError(f"site {data} does not have the shape of a {kind} site")
    _check_entry_types(fam, kind.direction, data)
    if fam == "r3":
        return _apply_r3(d, site)
    if fam in ("oc", "uc"):
        return _apply_swap(d, site, OVER if fam == "oc" else UNDER)
    handler = _APPLIERS[(fam, kind.direction)]
    return handler(d, kind.n, site)


def _check_entry_types(fam, direction, data):
    """Site entries are ints (bools excluded), except the r2 parallel flag,
    a bool, and the r1 expand passage order, which ``_check_variant``
    checks."""
    entries = [x for pair in data for x in pair] if fam == "r3" else list(data)
    if fam == "r2" and not isinstance(entries.pop(), bool):
        raise MoveError(f"bad parallel flag {data[-1]!r} in site")
    if fam == "r1" and direction == EXPAND:
        del entries[2]
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool):
            raise MoveError(f"site entry {x!r} is not an integer")


def _next_pos(d, ci, p):
    """Position after p on component ci, for a pair _adjacent_pairs lists."""
    if not 0 <= ci < d.mu:
        raise MoveError(f"no component {ci}")
    n = len(d.components[ci])
    last = n if d.kind == LINK and n > 2 else n - 1
    if not 0 <= p < last:
        raise MoveError(f"no adjacent pair at position {p} of component {ci}")
    return (p + 1) % n


def _apply_swap(d, site, role):
    ci, p = site.data
    q = _next_pos(d, ci, p)
    comp = d.components[ci]
    if comp[p].role != role or comp[q].role != role:
        raise MoveError("site passages do not both carry the required role")
    comps = [list(c) for c in d.components]
    comps[ci][p], comps[ci][q] = comps[ci][q], comps[ci][p]
    return d.with_components(comps)


def _apply_r3(d, site):
    pat = _r3_triple_pattern(d, site.data)
    if pat is None or pat not in _R3_PATTERNS:
        raise MoveError("not a valid R3 triangle configuration")
    comps = [list(c) for c in d.components]
    for ci, p in site.data:
        q = _next_pos(d, ci, p)
        comps[ci][p], comps[ci][q] = comps[ci][q], comps[ci][p]
    return d.with_components(comps)


def _apply_r1_reduce(d, n, site):
    ci, p = site.data
    q = _next_pos(d, ci, p)
    comp = d.components[ci]
    if comp[p].crossing != comp[q].crossing:
        raise MoveError("R1 site is not a kink")
    return d.with_components(_delete_positions(d.components, [(ci, p), (ci, q)]))


def _apply_r1_expand(d, n, site):
    ci, g, order, sign = site.data
    _check_gap(d.components, d.kind, ci, g)
    _check_variant(order, (OVER, UNDER), "passage order")
    _check_variant(sign, (1, -1), "sign")
    cid = d.fresh_crossing_id()
    first, second = (OVER, UNDER) if order == OVER else (UNDER, OVER)
    block = [Passage(cid, first, sign), Passage(cid, second, sign)]
    return d.with_components(_insert(d.components, ci, g, block))


def _apply_r2_reduce(d, n, site):
    ci, p, cj, r, parallel = site.data
    q, s = _next_pos(d, ci, p), _next_pos(d, cj, r)
    comp, comp_j = d.components[ci], d.components[cj]
    a, b = comp[p], comp[q]
    u1, u2 = comp_j[r], comp_j[s]
    ok = (a.role == b.role == OVER and u1.role == u2.role == UNDER
          and a.sign == -b.sign)
    if parallel:
        ok = ok and (u1.crossing, u2.crossing) == (a.crossing, b.crossing)
    else:
        ok = ok and (u1.crossing, u2.crossing) == (b.crossing, a.crossing)
    if not ok:
        raise MoveError("R2 site does not match a cancelling pair")
    return d.with_components(
        _delete_positions(d.components, [(ci, p), (ci, q), (cj, r), (cj, s)]))


def _apply_r2_expand(d, n, site):
    c1, g1, c2, g2, sign, parallel = site.data
    _check_gap(d.components, d.kind, c1, g1)
    _check_gap(d.components, d.kind, c2, g2)
    _check_variant(sign, (1, -1), "sign")
    k = d.fresh_crossing_id()
    over_block = [Passage(k, OVER, sign), Passage(k + 1, OVER, -sign)]
    if parallel:
        under_block = [Passage(k, UNDER, sign), Passage(k + 1, UNDER, -sign)]
    else:
        under_block = [Passage(k + 1, UNDER, -sign), Passage(k, UNDER, sign)]
    return d.with_components(
        _insert_two(d.components, (c1, g1, over_block), (c2, g2, under_block)))


def _insert_two(components, first, second):
    """Insert two blocks; equal gaps mean two points of the same arc met in
    travel order, so the first site's block lands first."""
    (c1, g1, b1), (c2, g2, b2) = first, second
    if c1 == c2:
        comps = [list(c) for c in components]
        if g1 == g2:
            comps[c1][g1:g1] = list(b1) + list(b2)
            return comps
        for g, b in sorted([(g1, b1), (g2, b2)], key=lambda t: -t[0]):
            comps[c1][g:g] = b
        return comps
    comps = _insert(components, c1, g1, b1)
    return _insert(comps, c2, g2, b2)


def _apply_v_reduce(d, n, site):
    (cid,) = site.data
    if cid not in d.crossing_ids():
        raise MoveError(f"no crossing {cid} in diagram")
    over, under = d.passage_positions(cid)
    return d.with_components(_delete_positions(d.components, [over, under]))


def _apply_v_expand(d, n, site):
    c1, g1, c2, g2, sign = site.data
    _check_gap(d.components, d.kind, c1, g1)
    _check_gap(d.components, d.kind, c2, g2)
    _check_variant(sign, (1, -1), "sign")
    cid = d.fresh_crossing_id()
    return d.with_components(
        _insert_two(d.components, (c1, g1, [Passage(cid, OVER, sign)]),
                    (c2, g2, [Passage(cid, UNDER, sign)])))


def _apply_vn_expand(d, n, site, reversed_under=False):
    c1, g1, c2, g2, sign = site.data
    _check_gap(d.components, d.kind, c1, g1)
    _check_gap(d.components, d.kind, c2, g2)
    _check_variant(sign, (1, -1), "sign")
    base = d.fresh_crossing_id()
    ids = list(range(base, base + n))
    over_block = [Passage(k, OVER, sign) for k in ids]
    uids = list(reversed(ids)) if reversed_under else ids
    under_block = [Passage(k, UNDER, sign) for k in uids]
    return d.with_components(
        _insert_two(d.components, (c1, g1, over_block), (c2, g2, under_block)))


def _apply_vn_reduce(d, n, site, reversed_under=False):
    ci, p, cj, q = site.data
    got = _block_run(d, ci, p, n, OVER)
    under = _block_run(d, cj, q, n, UNDER)
    if not got or not under:
        raise MoveError("no parallel crossing block at site")
    ids, sign, over_pos = got
    uids, usign, under_pos = under
    want = list(reversed(ids)) if reversed_under else ids
    if uids != want or usign != sign or (ci == cj and set(over_pos) & set(under_pos)):
        raise MoveError("blocks at site do not match")
    removals = [(ci, x) for x in over_pos] + [(cj, x) for x in under_pos]
    return d.with_components(_delete_positions(d.components, removals))


def _twist_blocks(n, sign, first_over):
    """Passage blocks for the two strands of an n-twist, strand-1 view first."""
    ids = list(range(1, n + 1))  # caller shifts ids
    b1, b2 = [], []
    for k in range(n):
        r1 = OVER if (k % 2 == 0) == (first_over == 1) else UNDER
        r2 = UNDER if r1 == OVER else OVER
        b1.append((ids[k], r1, sign))
        b2.append((ids[k], r2, sign))
    return b1, b2


def _apply_twist_expand(d, n, site, reversed_second=False):
    c1, g1, c2, g2, sign, first_over = site.data
    _check_gap(d.components, d.kind, c1, g1)
    _check_gap(d.components, d.kind, c2, g2)
    _check_variant(sign, (1, -1), "sign")
    _check_variant(first_over, (1, 2), "first strand role")
    base = d.fresh_crossing_id()
    raw1, raw2 = _twist_blocks(n, sign, first_over)
    block1 = [Passage(base + k - 1, r, s) for k, r, s in raw1]
    raw2 = list(reversed(raw2)) if reversed_second else raw2
    block2 = [Passage(base + k - 1, r, s) for k, r, s in raw2]
    if n % 2 == 1 or reversed_second:
        return d.with_components(
            _insert_two(d.components, (c1, g1, block1), (c2, g2, block2)))
    _sites_v_n_even_guard(d)
    return _splice(d, (c1, g1), (c2, g2), block1, block2)


def _apply_twist_reduce(d, n, site, reversed_second=False):
    ci, p, cj, q = site.data
    got = _alt_run(d, ci, p, n)
    other = _alt_run(d, cj, q, n)
    if not got or not other or got[1][0] != OVER:
        raise MoveError("no twist block at site")
    ids, roles, sign, positions = got
    oids, oroles, osign, opos = other
    want_ids = list(reversed(ids)) if reversed_second else ids
    expect = [UNDER if r == OVER else OVER for r in
              (reversed(roles) if reversed_second else roles)]
    if oids != want_ids or osign != sign or oroles != expect:
        raise MoveError("twist blocks at site do not match")
    if ci == cj and set(opos) & set(positions):
        raise MoveError("twist blocks overlap")
    if n % 2 == 1 or reversed_second:
        removals = [(ci, x) for x in positions] + [(cj, x) for x in opos]
        return d.with_components(_delete_positions(d.components, removals))
    _sites_v_n_even_guard(d)
    return _delete_and_splice(d, (ci, p), (cj, q), n)


def _splice(d, gap_a, gap_b, block_a, block_b):
    """Insert blocks at two cut points and reconnect the strands crosswise."""
    (ca, ga), (cb, gb) = gap_a, gap_b
    comps = [list(c) for c in d.components]
    if ca != cb:
        sa, sb = comps[ca], comps[cb]
        wa = sa[ga:] + sa[:ga]
        wb = sb[gb:] + sb[:gb]
        merged = list(block_a) + wb + list(block_b) + wa
        lo, hi = min(ca, cb), max(ca, cb)
        comps[lo] = merged
        del comps[hi]
        return d.with_components(comps)
    s = comps[ca]
    if ga <= gb:
        # equal gaps: two cut points of one arc met in travel order, so the
        # arc between them is empty
        x = s[ga:gb]
        y = s[gb:] + s[:ga]
    else:
        x = s[ga:] + s[:gb]
        y = s[gb:ga]
    comp1 = y + list(block_a)
    comp2 = x + list(block_b)
    comps[ca] = comp1
    comps.insert(ca + 1, comp2)
    return d.with_components(comps)


def _delete_and_splice(d, run_a, run_b, n):
    (ca, pa), (cb, pb) = run_a, run_b
    comps = [list(c) for c in d.components]
    if ca != cb:
        la, lb = len(comps[ca]), len(comps[cb])
        wa = [comps[ca][(pa + n + i) % la] for i in range(la - n)]
        wb = [comps[cb][(pb + n + i) % lb] for i in range(lb - n)]
        merged = wb + wa
        lo, hi = min(ca, cb), max(ca, cb)
        comps[lo] = merged
        del comps[hi]
        return d.with_components(comps)
    s = comps[ca]
    ln = len(s)
    idx2 = {(pb + i) % ln for i in range(n)}
    walk = []
    b_index = None
    pos = (pa + n) % ln
    while pos != pa:
        if pos == pb:
            b_index = len(walk)
        if pos not in idx2:
            walk.append(s[pos])
        pos = (pos + 1) % ln
    if b_index is None:
        b_index = len(walk)
    comp1 = walk[b_index:]
    comp2 = walk[:b_index]
    comps[ca] = comp1
    comps.insert(ca + 1, comp2)
    return d.with_components(comps)


# site tuple length per (family, direction); an r3 site is three
# (component, position) pairs
_SITE_LENGTHS = {
    ("r3", ""): 3, ("oc", ""): 2, ("uc", ""): 2,
    ("r1", REDUCE): 2, ("r1", EXPAND): 4, ("r2", REDUCE): 5, ("r2", EXPAND): 6,
    ("v", REDUCE): 1, ("v", EXPAND): 5,
    ("v^n", REDUCE): 4, ("v^n", EXPAND): 5, ("vbar^n", REDUCE): 4, ("vbar^n", EXPAND): 5,
    ("v(n)", REDUCE): 4, ("v(n)", EXPAND): 6, ("vbar(n)", REDUCE): 4, ("vbar(n)", EXPAND): 6,
}

_APPLIERS = {
    ("r1", REDUCE): _apply_r1_reduce,
    ("r1", EXPAND): _apply_r1_expand,
    ("r2", REDUCE): _apply_r2_reduce,
    ("r2", EXPAND): _apply_r2_expand,
    ("v", REDUCE): _apply_v_reduce,
    ("v", EXPAND): _apply_v_expand,
    ("v^n", REDUCE): lambda d, n, s: _apply_vn_reduce(d, n, s, False),
    ("v^n", EXPAND): lambda d, n, s: _apply_vn_expand(d, n, s, False),
    ("vbar^n", REDUCE): lambda d, n, s: _apply_vn_reduce(d, n, s, True),
    ("vbar^n", EXPAND): lambda d, n, s: _apply_vn_expand(d, n, s, True),
    ("v(n)", REDUCE): lambda d, n, s: _apply_twist_reduce(d, n, s, False),
    ("v(n)", EXPAND): lambda d, n, s: _apply_twist_expand(d, n, s, False),
    ("vbar(n)", REDUCE): lambda d, n, s: _apply_twist_reduce(d, n, s, True),
    ("vbar(n)", EXPAND): lambda d, n, s: _apply_twist_expand(d, n, s, True),
}


# ---------------------------------------------------------------------------
# scrambling and search

_EXPANDABLE = ("r1", "r2", "v", "v^n", "vbar^n", "v(n)", "vbar(n)")


def _sample_expand_site(d, fam, n, rng):
    gaps = _all_gaps(d)
    for _ in range(32):
        if fam == "r1":
            ci, g = gaps[rng.randrange(len(gaps))]
            return MoveSite((ci, g, rng.choice((OVER, UNDER)), rng.choice((1, -1))))
        (c1, g1) = gaps[rng.randrange(len(gaps))]
        (c2, g2) = gaps[rng.randrange(len(gaps))]
        if fam == "r2":
            return MoveSite((c1, g1, c2, g2, rng.choice((1, -1)), rng.choice((True, False))))
        if fam == "v":
            return MoveSite((c1, g1, c2, g2, rng.choice((1, -1))))
        if fam in ("v^n", "vbar^n"):
            return MoveSite((c1, g1, c2, g2, rng.choice((1, -1))))
        if fam in ("v(n)", "vbar(n)"):
            if fam == "v(n)" and n % 2 == 0 and d.kind == STRING_LINK:
                return None
            return MoveSite((c1, g1, c2, g2, rng.choice((1, -1)), rng.choice((1, 2))))
    return None


def scramble(d, kinds, steps, seed):
    """Apply exactly ``steps`` random moves drawn from ``kinds``.

    Deterministic in ``seed``.  Kinds may omit the direction, in which case
    one is drawn per step; a drawn kind with no applicable site is redrawn.
    """
    if steps < 0:
        raise MoveError("steps must be >= 0")
    kinds = sorted(set(kinds))
    if not kinds and steps > 0:
        raise MoveError("no move kinds to draw from")
    rng = random.Random(seed)
    cur = d
    for _ in range(steps):
        for attempt in range(1000):
            kind = kinds[rng.randrange(len(kinds))]
            direction = kind.direction or (
                "" if kind.family in _UNDIRECTED else rng.choice((EXPAND, REDUCE)))
            concrete = MoveKind(kind.family, kind.n, direction)
            if direction == EXPAND and kind.family in _EXPANDABLE:
                site = _sample_expand_site(cur, kind.family, kind.n, rng)
                if site is None:
                    continue
                try:
                    cur = apply(cur, concrete, site)
                except MoveError:
                    continue
                break
            sites = find_sites(cur, concrete)
            if not sites:
                continue
            cur = apply(cur, concrete, sites[rng.randrange(len(sites))])
            break
        else:
            raise MoveError("no applicable move found while scrambling")
    return cur


def directed_kinds(kind):
    """The directed kinds a kind stands for: itself if it is undirected or
    has a direction, else its expand and its reduce form."""
    if kind.family in _UNDIRECTED or kind.direction:
        return [kind]
    return [MoveKind(kind.family, kind.n, EXPAND), MoveKind(kind.family, kind.n, REDUCE)]


def search_path(d, target, kinds, max_crossings, max_depth):
    """Breadth-first search for a move sequence from d to target.

    Returns a replayable list of (kind, site) or None; absence within the
    bounds is not a disproof of equivalence.
    """
    goal = canonical_key(target)
    if canonical_key(d) == goal:
        return []
    kinds = [dk for kind in sorted(set(kinds)) for dk in directed_kinds(kind)]
    frontier = [(d, [])]
    visited = {canonical_key(d)}
    for _ in range(max_depth):
        nxt = []
        for cur, path in frontier:
            for kind in kinds:
                for site in find_sites(cur, kind):
                    try:
                        child = apply(cur, kind, site)
                    except MoveError:
                        continue
                    if child.crossing_count > max_crossings:
                        continue
                    key = canonical_key(child)
                    if key in visited:
                        continue
                    visited.add(key)
                    new_path = path + [(kind, site)]
                    if key == goal:
                        return new_path
                    nxt.append((child, new_path))
        frontier = nxt
        if not frontier:
            break
    return None


def replay(d, sequence):
    """Apply a (kind, site) sequence in order."""
    cur = d
    for kind, site in sequence:
        cur = apply(cur, kind, site)
    return cur
