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

Every move is a rule (site length, variant axes, finder, matcher, action):
``_find`` lists its sites, and ``_apply`` checks a site's entries, matches
it and acts on what the matcher found.  Each is stated once: one count of a
component's adjacent pairs and one of its gaps, one splice for both
directions of an even twist, one dispatch on the direction (``_rule``), and
R3 by the sign rule of the one triangle of the braid relation.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass

from .diagram import (DIGITS, LINK, OVER, STRING_LINK, UNDER, DiagramError,
                      Passage, canonical_key)

EXPAND = "expand"
REDUCE = "reduce"

FAMILIES = ("r1", "r2", "r3", "oc", "uc", "v", "v(n)", "v^n", "vbar(n)", "vbar^n")
_PARAMETRIC = ("v(n)", "v^n", "vbar(n)", "vbar^n")
_UNDIRECTED = ("r3", "oc", "uc")


class MoveError(DiagramError):
    """A move site does not apply to the given diagram."""


def _check_direction(direction):
    """A move's direction is none (""), expand or reduce."""
    if direction not in ("", EXPAND, REDUCE):
        raise MoveError(f"bad direction {direction!r}")


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
        _check_direction(self.direction)

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
        if not re.fullmatch(rf"-?{DIGITS}", param):
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

def _pair_count(d, ci):
    """The number of adjacent pairs on component ci, each named by its first
    position: every position of a link component longer than two, all but
    the last elsewhere.  A cyclic component of length two has a single
    unordered adjacency, not two."""
    n = len(d.components[ci])
    return n if d.kind == LINK and n > 2 else max(n - 1, 0)


def _pairs(d, ci):
    """(p, first passage, second passage) of each adjacent pair on component
    ci: the component zipped with its rotation by one, cut to the pair
    count."""
    comp = d.components[ci]
    return zip(range(_pair_count(d, ci)), comp, comp[1:] + comp[:1])


def _pair(d, ci, p):
    """The position after p on component ci if ``_pairs`` lists
    that pair, else None."""
    if not (0 <= ci < d.mu and 0 <= p < _pair_count(d, ci)):
        return None
    return (p + 1) % len(d.components[ci])


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
    ids, got, signs = zip(*(comp[start:start + k] + comp[:max(start + k - n, 0)]))
    if got != roles or signs.count(signs[0]) != k:
        return None
    return [(start + i) % n for i in range(k)], ids


def _gap_count(d, ci):
    """The number of gaps on component ci: one before each position, plus
    one after the last on a string link; an empty link component has one."""
    n = len(d.components[ci])
    return n + 1 if d.kind == STRING_LINK else max(n, 1)


def _all_gaps(d):
    return [(ci, g) for ci in range(d.mu) for g in range(_gap_count(d, ci))]


def _check_entries(data, length, axes=()):
    """A site is ``length`` entries: integers, then one value of each
    variant axis, of that axis's type (a bool is not an integer here).  An
    r3 site, of length (2, 2, 2), is three (component, position) pairs."""
    if isinstance(length, tuple):
        if len(data) != 3 or not all(isinstance(pair, tuple) and len(pair) == 2
                                     for pair in data):
            raise MoveError(f"site {data} is not three (component, position) pairs")
        data, length = sum(data, ()), sum(length)
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


def _swap_pairs(d, kind, positions):
    """Swap the passages at positions 2k and 2k + 1, pair by pair."""
    comps = [list(c) for c in d.components]
    for (ci, p), (cj, q) in zip(positions[::2], positions[1::2]):
        comps[ci][p], comps[cj][q] = comps[cj][q], comps[ci][p]
    return d.moved(comps)


def _delete(d, kind, positions):
    """Delete the passages at the positions."""
    comps = [list(c) for c in d.components]
    positions = sorted(set(positions), reverse=True)
    for ci, p in positions:
        del comps[ci][p]
    return d.moved(comps, removed=[d.components[ci][p] for ci, p in positions])


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


def _block(kind, variants=(1, 1)):
    """Strand 1's roles, strand 2's roles and strand 1's signs of the block
    an expand site with these variants inserts, and whether strand 2 meets
    it backwards: its roles are strand 1's swapped, and reversed when it
    does.  The default variants give the block a reduce site's strand 1
    starts, over at its first crossing; the matchers read its sign from the
    diagram."""
    fam = kind.family
    if fam == "r1":
        roles, signs, backwards = variants[:1], variants[1:], False
    elif fam == "r2":
        sign, parallel = variants
        roles, signs, backwards = (OVER, OVER), (sign, -sign), not parallel
    else:
        n = max(kind.n, 1)
        if fam in ("v(n)", "vbar(n)"):
            first = UNDER if variants[1] == 2 else OVER
            roles = tuple(first if k % 2 == 0 else _OPPOSITE[first] for k in range(n))
        else:
            roles = (OVER,) * n
        signs, backwards = (variants[0],) * n, fam in _BAR
    roles2 = tuple(map(_OPPOSITE.get, roles[::-1] if backwards else roles))
    return roles, roles2, signs, backwards


def _expand_sites(d, kind):
    strands, axes = _EXPAND[kind.family]
    gaps = [sum(combo, ()) for combo in itertools.product(_all_gaps(d), repeat=strands)]
    variants = list(itertools.product(*axes))
    return [g + v for g in gaps for v in variants]


def _match_gaps(d, kind, site):
    """The (component, gap) of each strand of an expand site, and its
    variants, if both gaps exist, else None; an R1 kink has both strands at
    its one gap."""
    strands, _ = _EXPAND[kind.family]
    gaps = (site[0:2], site[2:4]) if strands == 2 else (site[0:2],) * 2
    if all(0 <= ci < d.mu and 0 <= g < _gap_count(d, ci) for ci, g in gaps):
        return gaps, site[2 * strands:]
    return None


def _expand(d, kind, found):
    ((c1, g1), (c2, g2)), variants = found
    roles, roles2, signs, backwards = _block(kind, variants)
    fresh = d.fresh_crossing_id()
    block1 = [Passage(cid, role, sign)
              for cid, role, sign in zip(itertools.count(fresh), roles, signs)]
    block2 = [Passage(p.crossing, role, p.sign)
              for p, role in zip(block1[::-1] if backwards else block1, roles2)]
    if _splices(kind):
        comps = _splice(d.components, (c1, g1), (c2, g2), block1, block2)
    else:
        comps = _insert_two(d.components, (c1, g1, block1), (c2, g2, block2))
    return d.moved(comps, added=block1 + block2, fresh=fresh)


def _match_block(d, kind, site):
    """Positions of a block from (ci, p) on strand 1 and (cj, q) on strand 2,
    strand 1's first; None if the site holds none.  A block has n distinct
    crossings, so none fits a diagram with fewer."""
    return None if kind.n > d.crossing_count else _block_at(d, site, _block(kind))


def _block_at(d, site, block):
    """``_match_block`` on a diagram that fits the block ``_block`` gives."""
    ci, p, cj, q = site
    roles, roles2, _, backwards = block
    first = _run(d, ci, p, roles)
    second = first and _run(d, cj, q, roles2)
    if second is None:
        return None
    (pos1, ids1), (pos2, ids2) = first, second
    # equal crossings carry equal signs, so the two runs share one sign
    if ids2 != (ids1[::-1] if backwards else ids1) or (ci == cj and set(pos1) & set(pos2)):
        return None
    return [(ci, x) for x in pos1] + [(cj, x) for x in pos2]


def _starts(text, word):
    """Every position where ``word`` starts in ``text``, overlaps included."""
    out, p = [], text.find(word)
    while p >= 0:
        out.append(p)
        p = text.find(word, p + 1)
    return out


def _block_sites(d, kind):
    """Strand 1 starts a run of its roles, and strand 2, which meets strand
    1's first crossing at its first passage (its last when backwards), a run
    of its own.  So one string search per component and strand, on the
    component's roles read with n - 1 passages of wrap on a link, pairs the
    run starts by that crossing, and the block matcher keeps the pairs that
    hold a block: ``_block_at``, which is ``_match_block`` past its crossing
    count test, made here once."""
    n = kind.n
    if n > d.crossing_count:
        return []
    block = _block(kind)
    roles, roles2, _, backwards = block
    words = "".join(roles), "".join(roles2)
    back = n - 1 if backwards else 0
    wrap = n - 1 if d.kind == LINK else 0
    firsts, seconds = [], {}
    for ci, comp in enumerate(d.components):
        if len(comp) >= n:
            ids, text, _ = (col + col[:wrap] for col in zip(*comp))
            text = "".join(text)
            firsts += [(ci, p, ids[p]) for p in _starts(text, words[0])]
            seconds.update((ids[q + back], (ci, q)) for q in _starts(text, words[1]))
    sites = [(ci, p, *seconds[cid]) for ci, p, cid in firsts if cid in seconds]
    return [site for site in sites if _block_at(d, site, block) is not None]


def _splice(components, gap_a, gap_b, block_a, block_b):
    """Insert blocks at two cut points and reconnect the strands crosswise.
    Returns new component lists."""
    (ca, ga), (cb, gb) = gap_a, gap_b
    comps = [list(c) for c in components]
    if ca != cb:
        sa, sb = comps[ca], comps[cb]
        wa = sa[ga:] + sa[:ga]
        wb = sb[gb:] + sb[:gb]
        merged = block_a + wb + block_b + wa
        lo, hi = min(ca, cb), max(ca, cb)
        comps[lo] = merged
        del comps[hi]
        return comps
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
    return comps


def _unsplice(d, kind, positions):
    """Delete an even twist's two blocks and reconnect the strands crosswise:
    ``_splice`` with empty blocks, each component read from just after its
    block.  On one component strand 1's cut is then gap 0 and strand 2's
    the number of passages met between the blocks, so cut points that fall
    together keep their travel order."""
    n = kind.n
    (ca, pa), (cb, pb) = positions[0], positions[n]
    comps = list(d.components)
    sa = comps[ca][pa:] + comps[ca][:pa]
    if ca != cb:
        sb = comps[cb][pb:] + comps[cb][:pb]
        comps[ca], comps[cb], gb = sa[n:], sb[n:], 0
    else:
        gb = (pb - pa) % len(sa) - n
        comps[ca] = sa[n:n + gb] + sa[2 * n + gb:]
    return d.moved(_splice(comps, (ca, 0), (cb, gb), [], []),
                   removed=[d.components[ci][p] for ci, p in positions])


# ---------------------------------------------------------------------------
# R3
#
# s1 s2 s1 = s2 s1 s2 gives one R3 triangle: the top strand passes over
# crossings a then b, the middle strand under a then over c, the bottom
# strand under b then c, every crossing positive.  Every oriented R3
# configuration comes from it by reversing strands and taking the mirror
# image (Polyak, Minimal generating sets of Reidemeister moves, 2010).  A
# reversed strand (f = -1) meets its two crossings backwards and negates
# their signs; the mirror image negates every sign.  So s_a f_top f_mid,
# s_b f_top f_bot and s_c f_mid f_bot are one sign, the mirror's.  The move
# itself reads every pair backwards, which is reversing all three strands.

def _match_r3(d, kind, site):
    """The six positions of three adjacent pairs forming an R3 triangle,
    pair by pair, else None.  The pairs, in any order, are the top (over at
    both), the bottom (under at both) and the middle, under at a crossing a
    of the top and over at a crossing c of the bottom; the top's other
    crossing b is the bottom's other, a, b and c are distinct, and the signs
    follow the rule above.  Each of a, b and c is then met once over and
    once under, so no position repeats."""
    positions, signs = [], {}
    top = bottom = middle = None
    for ci, p in site:
        q = _pair(d, ci, p)
        if q is None:
            return None
        positions += [(ci, p), (ci, q)]
        (x, rx, sx), (y, ry, sy) = d.components[ci][p], d.components[ci][q]
        signs[x], signs[y] = sx, sy
        if rx != ry:
            middle = (x, y, 1) if rx == UNDER else (y, x, -1)
        elif rx == OVER:
            top = (x, y)
        else:
            bottom = (x, y)
    # three pairs fill the three roles only if each fills a different one
    if top is None or bottom is None or middle is None:
        return None
    a, c, f_mid = middle
    if a == c or a not in top:
        return None
    f_top = 1 if top[0] == a else -1
    b = top[1] if f_top == 1 else top[0]
    if set(bottom) != {b, c}:
        return None
    f_bot = 1 if bottom[0] == b else -1
    if signs[a] * f_top * f_mid == signs[b] * f_top * f_bot == signs[c] * f_mid * f_bot:
        return positions
    return None


def _r3_sites(d, kind):
    """For each top {a, b} and each bottom {b, c} or {a, c}, the candidates
    are the pairs under at a (or b) and over at c, in either order;
    ``_match_r3`` checks each."""
    tops, bottoms, middles = [], {}, {}
    for ci in range(d.mu):
        for p, (x, rx, _), (y, ry, _) in _pairs(d, ci):
            if x == y:
                continue
            if rx != ry:
                middles.setdefault((x, y) if rx == UNDER else (y, x), []).append((ci, p))
            elif rx == OVER:
                tops.append((x, y, (ci, p)))
            else:
                bottoms.setdefault(x, []).append((y, (ci, p)))
                bottoms.setdefault(y, []).append((x, (ci, p)))
    out = []
    for a, b, top in tops:
        for shared, left in ((a, b), (b, a)):
            for c, bottom in bottoms.get(shared, ()):
                if c == left:
                    continue
                for middle in middles.get((left, c), ()):
                    site = tuple(sorted((top, bottom, middle)))
                    if _match_r3(d, kind, site) is not None:
                        out.append(site)
    return out


# ---------------------------------------------------------------------------
# reduce and undirected moves: a finder lists sites, a matcher returns the
# positions a site deletes (or swaps, pair by pair) or None.  The cheap
# finders filter inline instead of calling the matcher on every candidate.

def _pair_move(test):
    """Finder and matcher of a move on one adjacent pair whose crossings and
    roles, (x, role of x, y, role of y), pass ``test``."""
    def sites(d, kind):
        return [(ci, p) for ci in range(d.mu)
                for p, (x, rx, _), (y, ry, _) in _pairs(d, ci) if test(x, rx, y, ry)]

    def match(d, kind, site):
        ci, p = site
        q = _pair(d, ci, p)
        if q is None:
            return None
        (x, rx, _), (y, ry, _) = d.components[ci][p], d.components[ci][q]
        return [(ci, p), (ci, q)] if test(x, rx, y, ry) else None
    return sites, match


def _r2_sites(d, kind):
    """The over-over pairs of opposite signs, each with the under-under
    pairs through its two crossings in either order."""
    overs, unders = [], {}
    for ci in range(d.mu):
        for p, (x, rx, sx), (y, ry, sy) in _pairs(d, ci):
            if rx == ry == UNDER:
                unders.setdefault((x, y), []).append((ci, p))
            elif rx == ry and sx == -sy:
                overs.append((ci, p, x, y))
    out = []
    for ci, p, x, y in overs:
        for parallel, key in ((True, (x, y)), (False, (y, x))):
            out += [(ci, p, cj, r, parallel) for cj, r in unders.get(key, ())]
    return out


def _match_r2(d, kind, site):
    ci, p, cj, r, parallel = site
    q, s = _pair(d, ci, p), _pair(d, cj, r)
    if q is None or s is None:
        return None
    (x, rx, sx), (y, ry, sy) = d.components[ci][p], d.components[ci][q]
    (u, ru, _), (w, rw, _) = d.components[cj][r], d.components[cj][s]
    if (rx == ry == OVER and ru == rw == UNDER and sx == -sy
            and (u, w) == ((x, y) if parallel else (y, x))):
        return [(ci, p), (ci, q), (cj, r), (cj, s)]
    return None


def _v_sites(d, kind):
    return [(cid,) for cid in d.crossing_ids()]


def _match_v(d, kind, site):
    entry = d.crossing_table().get(site[0])
    return None if entry is None else list(entry[:2])


_KINK = _pair_move(lambda x, rx, y, ry: x == y)
_OC = _pair_move(lambda x, rx, y, ry: rx == ry == OVER)
_UC = _pair_move(lambda x, rx, y, ry: rx == ry == UNDER)

# family -> (site length, variant axes ending the site, finder, matcher,
# action); an r3 site is three pairs, and an action takes the diagram, the
# kind and what the matcher found
_REDUCE = {
    "r1": (2, (), *_KINK, _delete),
    "r2": (5, ((True, False),), _r2_sites, _match_r2, _delete),
    "r3": ((2, 2, 2), (), _r3_sites, _match_r3, _swap_pairs),
    "oc": (2, (), *_OC, _swap_pairs),
    "uc": (2, (), *_UC, _swap_pairs),
    "v": (1, (), _v_sites, _match_v, _delete),
    **dict.fromkeys(_PARAMETRIC, (4, (), _block_sites, _match_block, _delete)),
}
_NOWHERE = (lambda d, kind: [], lambda d, kind, site: None)


# ---------------------------------------------------------------------------
# find_sites and apply

def _rule(d, kind):
    """(site length, variant axes, finder, matcher, action) of a directed
    kind on d.  An even twist splices strands: its reduce action unsplices,
    and on a string link it has no sites."""
    if kind.family in _UNDIRECTED or kind.direction == REDUCE:
        rule = _REDUCE[kind.family]
    elif kind.direction == EXPAND:
        strands, axes = _EXPAND[kind.family]
        rule = (2 * strands + len(axes), axes, _expand_sites, _match_gaps, _expand)
    else:
        raise MoveError(f"move kind {kind} needs a direction")
    if _splices(kind) and d.kind == STRING_LINK:
        return rule[:2] + _NOWHERE + rule[4:]
    return rule[:4] + (_unsplice,) if _splices(kind) and kind.direction == REDUCE else rule


def _find(d, kind, rule):
    """The sites a rule's finder lists, sorted."""
    return [MoveSite(site) for site in sorted(rule[2](d, kind))]


def _apply(d, kind, rule, site):
    """Check a site's entries, match it and act on what the matcher found;
    raises MoveError if the site does not fit."""
    length, axes, _, match, act = rule
    data = tuple(site)
    _check_entries(data, length, axes)
    found = match(d, kind, data)
    if found is None:
        raise MoveError(f"site {data} does not fit a {kind} move")
    return act(d, kind, found)


def find_sites(d, kind):
    """All applicable sites of a move kind, deterministically sorted."""
    return _find(d, kind, _rule(d, kind))


def count_sites(d, kind):
    """``len(find_sites(d, kind))`` without building the sites: an expand
    kind has one site per choice of a gap for each strand and a value on
    each variant axis."""
    finder = _rule(d, kind)[2]
    if finder is _expand_sites:
        strands, axes = _EXPAND[kind.family]
        gaps = sum(_gap_count(d, ci) for ci in range(d.mu))
        return gaps ** strands * math.prod(len(axis) for axis in axes)
    return len(finder(d, kind))


def apply(d, kind, site):
    """Apply one move at a site, a ``MoveSite`` or a plain tuple; raises
    MoveError if the site does not fit."""
    return _apply(d, kind, _rule(d, kind), site)


# ---------------------------------------------------------------------------
# scrambling and search

def _sample_expand_site(d, kind, rule, rng):
    """A random expand site, or None for an even twist on a string link.
    The draws (a gap index per strand, even for that None, then one value
    per axis in axis order) fix what ``scramble`` makes of a seed; gap
    indices count ``_all_gaps``' order, component by component."""
    strands, axes = _EXPAND[kind.family]
    counts = [_gap_count(d, ci) for ci in range(d.mu)]
    total = sum(counts)
    site = ()
    for _ in range(strands):
        g = rng.randrange(total)
        ci = 0
        while g >= counts[ci]:
            g -= counts[ci]
            ci += 1
        site += (ci, g)
    if rule[2] is not _expand_sites:
        return None
    for axis in axes:
        site += (rng.choice(axis),)
    return site


def scramble(d, kinds, steps, seed):
    """Apply exactly ``steps`` random moves drawn from ``kinds``.

    Deterministic in ``seed``.  Kinds may omit the direction, in which case
    one is drawn per step; a drawn kind with no applicable site is redrawn.
    Each kind's directed kinds and their rules are made once, when it is
    first drawn: a diagram's kind, all a rule depends on, is the same after
    every move.
    """
    if steps < 0:
        raise MoveError("steps must be >= 0")
    kinds = sorted(set(kinds))
    if not kinds and steps > 0:
        raise MoveError("no move kinds to draw from")
    # per kind drawn, its directed kinds with their rules; a draw samples a
    # site of an expand rule rather than picking a listed one
    table = {}
    rng = random.Random(seed)
    cur = d
    for _ in range(steps):
        for attempt in range(1000):
            drawn = kinds[rng.randrange(len(kinds))]
            if drawn not in table:
                table[drawn] = [(dk, _rule(d, dk)) for dk in directed_kinds(drawn)]
            options = table[drawn]
            kind, rule = options[0] if len(options) == 1 else rng.choice(options)
            if rule[4] is _expand:
                site = _sample_expand_site(cur, kind, rule, rng)
                if site is None:
                    continue
            else:
                sites = sorted(rule[2](cur, kind))
                if not sites:
                    continue
                site = sites[rng.randrange(len(sites))]
            cur = _apply(cur, kind, rule, site)
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
                    child = apply(cur, kind, site)
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
