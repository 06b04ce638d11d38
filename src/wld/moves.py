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

A site is a ``MoveSite``, a tuple; ``find_sites`` lists them sorted and
``count_sites`` counts them without building them.  ``c`` is a component,
``p`` a position on it, ``g`` a gap (the point before position ``g``; a
string link also has the one after its last passage) and ``s`` a sign, 1 or
-1.  Strand 1 is at ``c1``, strand 2 at ``c2``:

==============  ==================================  ==========================
kind            expand site                         reduce site
==============  ==================================  ==========================
r1              (c, g, "O" or "U", s)               (c, p)
r2              (c1, g1, c2, g2, s, parallel)       (c1, p1, c2, p2, parallel)
v               (c1, g1, c2, g2, s)                 (crossing id,)
v^n, vbar^n     (c1, g1, c2, g2, s)                 (c1, p1, c2, p2)
v(n), vbar(n)   (c1, g1, c2, g2, s, 1 or 2)         (c1, p1, c2, p2)
r3              ((c, p), (c, p), (c, p)), sorted
oc, uc          (c, p)
==============  ==================================  ==========================

A position names the first passage of an adjacent pair (r1, r2, r3, oc,
uc) or of a block (V^n, V(n)).  The r1 role is that of the kink's first
passage; the r2 flag tells whether strand 2 meets the two crossings in
strand 1's order; the V(n) variant names the strand that is over at the
first crossing.  A kind built directly with n = 1, as the arrow calculus
does, keeps the block formats.
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
    """Family, parameter n (0 if it takes none), direction ("" if none)."""

    family: str
    n: int = 0
    direction: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise MoveError(f"unknown move family {self.family!r}")
        if self.family in _PARAMETRIC:
            if self.n < 1:
                raise MoveError(f"{self.family} needs a parameter n >= 1")
            if self.family == "vbar(n)" and self.n % 2 == 0:
                raise MoveError("vbar(n) is defined for odd n only")
        elif self.n != 0:
            raise MoveError(f"{self.family} takes no parameter, got n={self.n}")
        if self.direction not in ("", EXPAND, REDUCE):
            raise MoveError(f"bad direction {self.direction!r}")

    def __str__(self):
        name = self.family.replace("n", str(self.n)) if self.family in _PARAMETRIC else self.family
        return f"{name} {self.direction}".strip()


def make_kind(family, n=None, direction=None):
    """Validated MoveKind; n=1 variants collapse to plain virtualization,
    and the parameter of a family without one is ignored."""
    kind = MoveKind(family, (n or 0) if family in _PARAMETRIC else 0, direction or "")
    if family in _UNDIRECTED:
        return MoveKind(family)
    return MoveKind("v", 0, kind.direction) if kind.n == 1 else kind


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


class MoveSite(tuple):
    """Kind-specific tuple of positions/variants in a host diagram; ``data``
    is the plain tuple."""

    __slots__ = ()

    @property
    def data(self):
        return tuple(self)

    def __repr__(self):
        return f"MoveSite({tuple.__repr__(self)})"


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


def _pair(d, ci, p):
    """The position after p on component ci if ``_adjacent_pairs`` lists
    that pair, else None."""
    if not 0 <= ci < d.mu:
        return None
    n = len(d.components[ci])
    last = n if d.kind == LINK and n > 2 else n - 1
    return (p + 1) % n if 0 <= p < last else None


def _run(d, ci, start, roles):
    """(positions, crossing ids) of the same-sign passages from start on
    component ci whose roles are ``roles``, else None.  Runs wrap on a link
    component no shorter than the run."""
    if not 0 <= ci < d.mu:
        return None
    comp = d.components[ci]
    n, k = len(comp), len(roles)
    if not 0 <= start < n or (start + k > n if d.kind == STRING_LINK else k > n):
        return None
    positions = [(start + i) % n for i in range(k)]
    sign = comp[start].sign
    ids = []
    for p, role in zip(positions, roles):
        psg = comp[p]
        if psg.role != role or psg.sign != sign:
            return None
        ids.append(psg.crossing)
    return positions, ids


def _gaps(d, ci):
    n = len(d.components[ci])
    if d.kind == STRING_LINK:
        return list(range(n + 1))
    return list(range(n)) if n else [0]


def _all_gaps(d):
    return [(ci, g) for ci in range(d.mu) for g in _gaps(d, ci)]


def _check_gap(d, ci, gap):
    if not 0 <= ci < d.mu:
        raise MoveError(f"no component {ci}")
    n = len(d.components[ci])
    if not 0 <= gap < (n + 1 if d.kind == STRING_LINK else max(n, 1)):
        raise MoveError(f"gap {gap} out of range on component {ci}")


def _check_entries(data, length, axes=()):
    """A site is ``length`` entries: integers, then one value of each
    variant axis, of that axis's type (a bool is not an integer here)."""
    if len(data) != length:
        raise MoveError(f"site {data} has {len(data)} entries, not {length}")
    ints = length - len(axes)
    for x in data[:ints]:
        if not isinstance(x, int) or isinstance(x, bool):
            raise MoveError(f"site entry {x!r} is not an integer")
    for x, axis in zip(data[ints:], axes):
        if not (x in axis and isinstance(x, type(axis[0]))
                and isinstance(x, bool) == isinstance(axis[0], bool)):
            raise MoveError(f"bad variant {x!r} in site")


def _entries(fam, data):
    """The flat entries of a site; an r3 site is three (component, position)
    pairs."""
    if fam != "r3":
        return data
    if len(data) != 3 or not all(isinstance(pair, tuple) and len(pair) == 2
                                 for pair in data):
        raise MoveError(f"site {data} is not three (component, position) pairs")
    return [x for pair in data for x in pair]


def _insert_two(components, first, second):
    """Insert two (component, gap, block)s; equal gaps mean two points of
    the same arc met in travel order, so the first block lands first."""
    comps = [list(c) for c in components]
    (c1, g1, b1), (c2, g2, b2) = first, second
    if (c1, g1) == (c2, g2):
        comps[c1][g1:g1] = b1 + b2
        return comps
    # the later gap first, so that on one component the earlier stays put
    for ci, g, block in ((second, first) if g2 > g1 else (first, second)):
        comps[ci][g:g] = block
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


# ---------------------------------------------------------------------------
# blocks
#
# An expand move inserts a block of crossings met by two strands, the second
# with the roles swapped; the antiparallel (bar) variants meet it backwards
# on the second strand.  V is V^1, V(n) alternates roles from the role its
# first_over variant gives strand 1, R2 is two opposite-sign overs, and R1 is
# V^1 with both strands at one gap.

_OPPOSITE = {OVER: UNDER, UNDER: OVER}
_BAR = ("vbar^n", "vbar(n)")

# expand moves: family -> (strands, variant axes); a site is a (component,
# gap) per strand, then one value of each axis
_EXPAND = {
    "r1": (1, ((OVER, UNDER), (1, -1))),
    "r2": (2, ((1, -1), (True, False))),
    "v": (2, ((1, -1),)),
    "v^n": (2, ((1, -1),)),
    "vbar^n": (2, ((1, -1),)),
    "v(n)": (2, ((1, -1), (1, 2))),
    "vbar(n)": (2, ((1, -1), (1, 2))),
}


def _splices(kind):
    """Even twists reconnect the two strands crosswise; links only."""
    return kind.family == "v(n)" and kind.n % 2 == 0


def _roles(kind, first=OVER):
    """Strand-1 roles of a V^n block (all ``first``) or a V(n) block
    (alternating from ``first``); V is V^1."""
    n = max(kind.n, 1)
    if kind.family in ("v(n)", "vbar(n)"):
        return tuple(first if k % 2 == 0 else _OPPOSITE[first] for k in range(n))
    return (first,) * n


def _block(kind, variants):
    """Strand-1 roles and signs of the block an expand site inserts, and
    whether strand 2 meets it backwards."""
    fam = kind.family
    if fam == "r1":
        first, sign = variants
        return (first,), (sign,), False
    if fam == "r2":
        sign, parallel = variants
        return (OVER, OVER), (sign, -sign), not parallel
    first = UNDER if fam in ("v(n)", "vbar(n)") and variants[1] == 2 else OVER
    roles = _roles(kind, first)
    return roles, (variants[0],) * len(roles), fam in _BAR


def _expand_sites(d, kind):
    strands, axes = _EXPAND[kind.family]
    gaps = [sum(combo, ()) for combo in itertools.product(_all_gaps(d), repeat=strands)]
    variants = list(itertools.product(*axes))
    return [g + v for g in gaps for v in variants]


def _expand(d, kind, data):
    # an R1 kink has both strands at its one gap
    strands, _ = _EXPAND[kind.family]
    (c1, g1), (c2, g2) = (data[0:2], data[2:4]) if strands == 2 else (data[0:2],) * 2
    _check_gap(d, c1, g1)
    _check_gap(d, c2, g2)
    roles, signs, backwards = _block(kind, data[2 * strands:])
    block1 = [Passage(cid, role, sign)
              for cid, role, sign in zip(itertools.count(d.fresh_crossing_id()), roles, signs)]
    block2 = [Passage(p.crossing, _OPPOSITE[p.role], p.sign)
              for p in (block1[::-1] if backwards else block1)]
    if _splices(kind):
        return _splice(d, (c1, g1), (c2, g2), block1, block2)
    return d.with_components(_insert_two(d.components, (c1, g1, block1), (c2, g2, block2)))


def _match_block(d, kind, site):
    """Positions of a block from (ci, p) on strand 1 and (cj, q) on strand 2,
    strand 1's first; None if the site holds none."""
    ci, p, cj, q = site
    roles = _roles(kind)
    backwards = kind.family in _BAR
    first = _run(d, ci, p, roles)
    second = _run(d, cj, q, tuple(_OPPOSITE[r] for r in (roles[::-1] if backwards else roles)))
    if first is None or second is None:
        return None
    (pos1, ids1), (pos2, ids2) = first, second
    # equal crossings carry equal signs, so the two runs share one sign
    if ids2 != (ids1[::-1] if backwards else ids1) or (ci == cj and set(pos1) & set(pos2)):
        return None
    return [(ci, x) for x in pos1] + [(cj, x) for x in pos2]


def _block_sites(d, kind):
    """Strand 2 meets strand 1's first crossing at its first passage, or at
    its last when backwards, so each over passage fixes one candidate."""
    back = max(kind.n, 1) - 1 if kind.family in _BAR else 0
    table = d.crossing_table()
    out = []
    for ci, comp in enumerate(d.components):
        for p, psg in enumerate(comp):
            if psg.role != OVER:
                continue
            cj, q = table[psg.crossing][1]
            q -= back
            if d.kind == LINK:
                q %= len(d.components[cj])
            if _match_block(d, kind, (ci, p, cj, q)) is not None:
                out.append((ci, p, cj, q))
    return out


def _splice(d, gap_a, gap_b, block_a, block_b):
    """Insert blocks at two cut points and reconnect the strands crosswise."""
    (ca, ga), (cb, gb) = gap_a, gap_b
    comps = [list(c) for c in d.components]
    if ca != cb:
        sa, sb = comps[ca], comps[cb]
        wa = sa[ga:] + sa[:ga]
        wb = sb[gb:] + sb[:gb]
        merged = block_a + wb + block_b + wa
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
    comps[ca] = y + block_a
    comps.insert(ca + 1, x + block_b)
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


def _triple_key(edges):
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
                # every order of the pairs, so a site's pairs match as
                # they come
                for config in (edges, [tuple(reversed(e)) for e in edges]):
                    patterns.update(_triple_key(order)
                                    for order in itertools.permutations(config))
    return frozenset(patterns)


_R3_PATTERNS = _r3_pattern_table()


def _match_r3(d, kind, site):
    """The six positions of three adjacent pairs forming an R3 triangle,
    pair by pair, else None."""
    positions, edges = [], []
    for ci, p in site:
        q = _pair(d, ci, p)
        if q is None:
            return None
        a, b = d.components[ci][p], d.components[ci][q]
        positions += [(ci, p), (ci, q)]
        edges.append(((a.crossing, a.role, a.sign), (b.crossing, b.role, b.sign)))
    crossings = {}
    for edge in edges:
        for cid, _, _ in edge:
            crossings[cid] = crossings.get(cid, 0) + 1
    if (len(set(positions)) != 6 or len(crossings) != 3 or set(crossings.values()) != {2}
            or _triple_key(edges) not in _R3_PATTERNS):
        return None
    return positions


def _r3_sites(d, kind):
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
                    site = tuple(sorted(combo))
                    if _match_r3(d, kind, site) is not None:
                        out.add(site)
    return out


# ---------------------------------------------------------------------------
# reduce and undirected moves: a finder lists sites, a matcher returns the
# positions a site deletes (or swaps, pair by pair) or None.  The cheap
# finders filter inline instead of calling the matcher on every candidate.

def _pair_move(test):
    """Finder and matcher of a move on one adjacent pair passing ``test``."""
    def sites(d, kind):
        out = []
        for ci, comp in enumerate(d.components):
            for p, q in _adjacent_pairs(d, ci):
                if test(comp[p], comp[q]):
                    out.append((ci, p))
        return out

    def match(d, kind, site):
        ci, p = site
        q = _pair(d, ci, p)
        if q is None or not test(d.components[ci][p], d.components[ci][q]):
            return None
        return [(ci, p), (ci, q)]
    return sites, match


def _r2_sites(d, kind):
    unders = {}
    for ci, comp in enumerate(d.components):
        for p, q in _adjacent_pairs(d, ci):
            if comp[p].role == comp[q].role == UNDER:
                unders.setdefault((comp[p].crossing, comp[q].crossing), []).append((ci, p))
    out = []
    for ci, comp in enumerate(d.components):
        for p, q in _adjacent_pairs(d, ci):
            a, b = comp[p], comp[q]
            if a.role == b.role == OVER and a.sign == -b.sign:
                for parallel, key in ((True, (a.crossing, b.crossing)),
                                      (False, (b.crossing, a.crossing))):
                    out += [(ci, p, cj, r, parallel) for cj, r in unders.get(key, ())]
    return out


def _match_r2(d, kind, site):
    ci, p, cj, r, parallel = site
    q, s = _pair(d, ci, p), _pair(d, cj, r)
    if q is None or s is None:
        return None
    a, b = d.components[ci][p], d.components[ci][q]
    u, w = d.components[cj][r], d.components[cj][s]
    if (a.role == b.role == OVER and u.role == w.role == UNDER and a.sign == -b.sign
            and (u.crossing, w.crossing) == ((a.crossing, b.crossing) if parallel
                                             else (b.crossing, a.crossing))):
        return [(ci, p), (ci, q), (cj, r), (cj, s)]
    return None


def _v_sites(d, kind):
    return [(cid,) for cid in d.crossing_ids()]


def _match_v(d, kind, site):
    entry = d.crossing_table().get(site[0])
    return None if entry is None else list(entry[:2])


_KINK = _pair_move(lambda a, b: a.crossing == b.crossing)
_OC = _pair_move(lambda a, b: a.role == b.role == OVER)
_UC = _pair_move(lambda a, b: a.role == b.role == UNDER)

# family -> (site length, variant axes ending the site, finder, matcher); an
# r3 site counts its three pairs' six entries
_REDUCE = {
    "r1": (2, (), *_KINK),
    "r2": (5, ((True, False),), _r2_sites, _match_r2),
    "r3": (6, (), _r3_sites, _match_r3),
    "oc": (2, (), *_OC),
    "uc": (2, (), *_UC),
    "v": (1, (), _v_sites, _match_v),
    "v^n": (4, (), _block_sites, _match_block),
    "vbar^n": (4, (), _block_sites, _match_block),
    "v(n)": (4, (), _block_sites, _match_block),
    "vbar(n)": (4, (), _block_sites, _match_block),
}


# ---------------------------------------------------------------------------
# find_sites and apply

def _finder(d, kind):
    """The site finder of a directed kind, or None if the kind has no sites
    on d (an even twist on a string link)."""
    if kind.family in _UNDIRECTED or kind.direction == REDUCE:
        finder = _REDUCE[kind.family][2]
    elif kind.direction == EXPAND:
        finder = _expand_sites
    else:
        raise MoveError(f"move kind {kind} needs a direction")
    return None if _splices(kind) and d.kind == STRING_LINK else finder


def find_sites(d, kind):
    """All applicable sites of a move kind, deterministically sorted."""
    finder = _finder(d, kind)
    return [] if finder is None else [MoveSite(site) for site in sorted(finder(d, kind))]


def count_sites(d, kind):
    """``len(find_sites(d, kind))`` without building the sites: an expand
    kind has one site per choice of a gap for each strand and a value on
    each variant axis."""
    finder = _finder(d, kind)
    if finder is None:
        return 0
    if finder is _expand_sites:
        strands, axes = _EXPAND[kind.family]
        return len(_all_gaps(d)) ** strands * math.prod(len(axis) for axis in axes)
    return len(finder(d, kind))


def apply(d, kind, site):
    """Apply one move at a site; raises MoveError if the site does not fit."""
    fam, data = kind.family, site.data
    if fam in _UNDIRECTED or kind.direction == REDUCE:
        length, axes, _, match = _REDUCE[fam]
        _check_entries(_entries(fam, data), length, axes)
    elif kind.direction == EXPAND:
        strands, axes = _EXPAND[fam]
        _check_entries(data, 2 * strands + len(axes), axes)
        match = None
    else:
        raise MoveError(f"move kind {kind} needs a direction")
    if _splices(kind) and d.kind == STRING_LINK:
        raise MoveError("even twist moves splice strands; links only")
    if match is None:
        return _expand(d, kind, data)
    positions = match(d, kind, data)
    if positions is None:
        raise MoveError(f"site {data} does not fit a {kind} move")
    if fam in _UNDIRECTED:
        comps = [list(c) for c in d.components]
        for (ci, p), (cj, q) in zip(positions[::2], positions[1::2]):
            comps[ci][p], comps[cj][q] = comps[cj][q], comps[ci][p]
        return d.with_components(comps)
    if _splices(kind):
        return _delete_and_splice(d, positions[0], positions[kind.n], kind.n)
    return d.with_components(_delete_positions(d.components, positions))


# ---------------------------------------------------------------------------
# scrambling and search

def _sample_expand_site(d, kind, rng):
    """A random expand site, or None for an even twist on a string link.
    The draws (every gap, even for that None, then one value per axis in
    axis order) fix what ``scramble`` makes of a seed."""
    strands, axes = _EXPAND[kind.family]
    gaps = _all_gaps(d)
    site = ()
    for _ in range(strands):
        site += gaps[rng.randrange(len(gaps))]
    if _splices(kind) and d.kind == STRING_LINK:
        return None
    for axis in axes:
        site += (rng.choice(axis),)
    return MoveSite(site)


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
            if direction == EXPAND and kind.family in _EXPAND:
                site = _sample_expand_site(cur, concrete, rng)
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
    start = canonical_key(d)
    if start == goal:
        return []
    kinds = [dk for kind in sorted(set(kinds)) for dk in directed_kinds(kind)]
    frontier = [(d, [])]
    visited = {start}
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
