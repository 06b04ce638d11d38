"""w-arrow presentations and arrow calculus.

A presentation is a crossing-free base diagram together with signed
w-arrows.  Surgery turns each arrow into one classical crossing: over at
the tail, under at the head, with the arrow's sign.  On Gauss codes the
base carries no passages, so a presentation is just the per-strand order of
arrow endpoints plus the signs; twists are absorbed into the sign, which is
calibrated so that the closure of H_ij(a) has ordered linking numbers
(a, 0) and that of Hbar_ij(b) has (0, b).

Arrow move catalog: AR1-AR6 involve only virtual crossings and twist pairs
and act trivially on this data; AR7 exchanges adjacent tails (surgery image
OC), AR8/AR10 insert or delete an arrow whose tail/head or head/tail are
adjacent (R1 kink), AR9 inserts or cancels an opposite-sign parallel pair
(R2).  The heads-exchange move (and its H/H' avatars) swaps adjacent heads,
whose surgery image is the forbidden UC.  A(n), A^n and the antiparallel
Abar(n), Abar^n insert or delete the arrow blocks whose surgery images are
the V(n)/V^n twist and parallel blocks.

These moves run on ``wld.moves`` through surgery: the sites of an arrow
move are the sites of its surgery image, and applying it applies the image
and reads the result back with ``to_arrows``.  The head-tail exchange, the
ends exchange and the head-tail reversal have no Gauss-code counterpart and
act on the presentation directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagram import (OVER, STRING_LINK, UNDER, Diagram, DiagramError,
                      ParseError, Passage, closure, parallel_residues,
                      twist_residues)
from .diagram import parse as parse_diagram
from .moves import (EXPAND, REDUCE, MoveError, MoveKind, MoveSite,
                    _adjacent_pairs, find_sites)
from .moves import apply as apply_move

TAIL = "T"
HEAD = "H"

ARROW_MOVE_NAMES = (
    "ar1", "ar2", "ar3", "ar4", "ar5", "ar6", "ar7", "ar8", "ar9", "ar10",
    "ar11", "ar12", "heads-exchange", "head-tail-exchange", "h", "hprime",
    "head-tail-reversal", "ends-exchange", "a(n)", "a^n", "abar(n)", "abar^n",
)
_NOOP_MOVES = ("ar1", "ar2", "ar3", "ar4", "ar5", "ar6", "ar11", "ar12")
_PARAMETRIC_MOVES = ("a(n)", "a^n", "abar(n)", "abar^n")


@dataclass(frozen=True)
class WArrowPresentation:
    """Crossing-free base plus ordered arrow endpoints.

    ``strands[c]`` lists endpoint tokens ``(arrow_id, TAIL|HEAD)`` along
    component ``c``; ``signs`` maps arrow id to the crossing sign.
    """

    strands: tuple
    signs: tuple  # sorted tuple of (arrow_id, sign)
    kind: str = STRING_LINK

    def __post_init__(self):
        object.__setattr__(self, "strands", tuple(tuple(s) for s in self.strands))
        sign_map = dict(self.signs)
        object.__setattr__(self, "signs", tuple(sorted(sign_map.items())))
        seen = {}
        for ci, strand in enumerate(self.strands):
            for tok in strand:
                aid, role = tok
                if role not in (TAIL, HEAD):
                    raise DiagramError(f"bad arrow token {tok!r}")
                if aid < 1:  # arrow ids are the crossing ids of the surgery
                    raise DiagramError(f"arrow ids must be positive, got {aid}")
                roles = seen.setdefault(aid, set())
                if role in roles:
                    raise DiagramError(f"arrow {aid} has two {role} ends")
                roles.add(role)
        for aid, roles in seen.items():
            if roles != {TAIL, HEAD}:
                raise DiagramError(f"arrow {aid} is missing an endpoint")
            if aid not in sign_map:
                raise DiagramError(f"arrow {aid} has no sign")
        for aid, sign in sign_map.items():
            if aid not in seen:
                raise DiagramError(f"sign given for unknown arrow {aid}")
            if sign not in (1, -1):
                raise DiagramError(f"bad sign for arrow {aid}")

    @property
    def mu(self):
        return len(self.strands)

    @property
    def sign_map(self):
        return dict(self.signs)

    def arrow_ids(self):
        return sorted(dict(self.signs))


def trivial_string_link(mu):
    return WArrowPresentation(tuple(() for _ in range(mu)), (), STRING_LINK)


def surgery(p):
    """Replace every arrow by one classical crossing (over at its tail)."""
    comps = []
    for strand in p.strands:
        seq = []
        sm = p.sign_map
        for aid, role in strand:
            seq.append(Passage(aid, OVER if role == TAIL else UNDER, sm[aid]))
        comps.append(tuple(seq))
    return Diagram(tuple(comps), p.kind)


def to_arrows(d):
    """Arrow presentation of a diagram: one arrow per classical crossing,
    tail at the over passage, head at the under passage, same sign."""
    strands = []
    signs = {}
    for comp in d.components:
        strand = []
        for psg in comp:
            strand.append((psg.crossing, TAIL if psg.role == OVER else HEAD))
            signs[psg.crossing] = psg.sign
        strands.append(tuple(strand))
    return WArrowPresentation(tuple(strands), tuple(sorted(signs.items())), d.kind)


def stack(p, q):
    """Stacking product of two string-link presentations with equal mu."""
    if p.kind != STRING_LINK or q.kind != STRING_LINK:
        raise DiagramError("stacking needs string-link presentations")
    if p.mu != q.mu:
        raise DiagramError("stacking needs equal strand counts")
    offset = max(p.arrow_ids(), default=0)
    strands = []
    for sp, sq in zip(p.strands, q.strands):
        strands.append(tuple(sp) + tuple((aid + offset, role) for aid, role in sq))
    signs = dict(p.signs)
    for aid, sign in q.signs:
        signs[aid + offset] = sign
    return WArrowPresentation(tuple(strands), tuple(sorted(signs.items())), STRING_LINK)


def build_H(mu, i, j, a):
    """H_ij(a): |a| arrows tail-on-strand-i, head-on-strand-j whose closure
    has ordered linking numbers (a, 0)."""
    _check_pair(mu, i, j)
    return _arrow_block(mu, i, j, a)


def build_Hbar(mu, i, j, b):
    """Hbar_ij(b): |b| arrows tail-on-strand-j, head-on-strand-i; closure
    linking numbers (0, b)."""
    _check_pair(mu, i, j)
    return _arrow_block(mu, j, i, b)


def _arrow_block(mu, tail, head, count):
    """|count| parallel arrows of sign sign(count) from strand ``tail`` to
    strand ``head`` (1-based) on ``mu`` strands."""
    sign = 1 if count >= 0 else -1
    ids = range(1, abs(count) + 1)
    strands = [()] * mu
    strands[tail - 1] = tuple((k, TAIL) for k in ids)
    strands[head - 1] = tuple((k, HEAD) for k in ids)
    return WArrowPresentation(tuple(strands), tuple((k, sign) for k in ids), STRING_LINK)


def _check_pair(mu, i, j):
    if not (1 <= i < j <= mu):
        raise DiagramError(f"need 1 <= i < j <= mu, got i={i} j={j} mu={mu}")


# ---------------------------------------------------------------------------
# text format

_ARROW_LINE = re.compile(r"arrow:\s*(\S+)\s+(\S+)\s+([+-])")
_ARROW_POSITION = re.compile(r"(\d+)\.(\d+)")


def parse_presentation(text):
    """Parse the ``arrows`` file format.

    Header line ``arrows``; then the base diagram (crossing-free) in the
    diagram format; then lines ``arrow: <comp>.<slot> <comp>.<slot> <+|->``
    giving tail and head positions, 1-based.
    """
    lines = text.splitlines()
    base_lines = []
    arrow_lines = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "arrows":
                raise ParseError("presentation text must start with 'arrows'", lineno)
            header_seen = True
            continue
        if line.startswith("arrow:"):
            arrow_lines.append((lineno, line))
        else:
            base_lines.append(line)
    if not header_seen:
        raise ParseError("presentation text must start with 'arrows'")
    base = parse_diagram("\n".join(base_lines))
    if base.crossing_count:
        raise ParseError("presentation base must be crossing-free")
    slots = [{} for _ in range(base.mu)]
    signs = {}
    for aid, (lineno, line) in enumerate(arrow_lines, start=1):
        m = _ARROW_LINE.fullmatch(line)
        if m is None:
            raise ParseError(f"bad arrow line {line!r}", lineno)
        for role, field in ((TAIL, m[1]), (HEAD, m[2])):
            pos = _ARROW_POSITION.fullmatch(field)
            if pos is None:
                raise ParseError(f"bad arrow position {field!r}", lineno)
            comp, slot = int(pos[1]), int(pos[2])
            if not 1 <= comp <= base.mu:
                raise ParseError(f"component {comp} out of range", lineno)
            if slot in slots[comp - 1]:
                raise ParseError(f"slot {field} used twice", lineno)
            slots[comp - 1][slot] = (aid, role)
        signs[aid] = 1 if m[3] == "+" else -1
    strands = tuple(tuple(v for _, v in sorted(comp.items())) for comp in slots)
    return WArrowPresentation(strands, tuple(sorted(signs.items())), base.kind)


def serialize_presentation(p):
    lines = ["arrows"]
    if p.kind == STRING_LINK:
        lines.append("stringlink")
    lines.extend("component:" for _ in range(p.mu))
    where = {}
    for ci, strand in enumerate(p.strands):
        for slot, (aid, role) in enumerate(strand, start=1):
            where[(aid, role)] = f"{ci + 1}.{slot}"
    for aid in p.arrow_ids():
        sign = "+" if p.sign_map[aid] > 0 else "-"
        lines.append(f"arrow: {where[(aid, TAIL)]} {where[(aid, HEAD)]} {sign}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# arrow moves (arrow ids are the crossing ids of the surgery image)

@dataclass(frozen=True, order=True)
class ArrowMoveKind:
    name: str
    n: int = 0
    direction: str = ""


def make_arrow_kind(name, n=None, direction=None):
    name = name.lower()
    if name not in ARROW_MOVE_NAMES:
        raise MoveError(f"unknown arrow move {name!r}")
    if name in _PARAMETRIC_MOVES:
        if n is None or n < 1:
            raise MoveError(f"{name} needs n >= 1")
        if name == "abar(n)" and n % 2 == 0:
            raise MoveError("abar(n) is defined for odd n only")
    else:
        n = 0
    return ArrowMoveKind(name, n, direction or "")


ArrowSite = MoveSite

# arrow move -> Gauss-code move family of its surgery image
_GAUSS_FAMILY = {
    "ar7": "oc", "heads-exchange": "uc", "h": "uc", "hprime": "uc",
    "ar8": "r1", "ar10": "r1", "ar9": "r2",
    "a^n": "v^n", "abar^n": "vbar^n", "a(n)": "v(n)", "abar(n)": "vbar(n)",
}
# AR8 and AR10 are the R1 kinks whose first passage is the tail (over) or
# the head (under); an expand site (ci, g, role, sign) names that role.
_KINK_FIRST = {"ar8": OVER, "ar10": UNDER}
_EXCHANGES = ("head-tail-exchange", "ends-exchange")


def _gauss_kind(kind):
    family = _GAUSS_FAMILY.get(kind.name)
    if family is None:
        raise MoveError(f"unknown arrow move {kind.name!r}")
    if family not in ("oc", "uc") and kind.direction not in (EXPAND, REDUCE):
        raise MoveError(f"move {kind.name} needs a direction")
    return MoveKind(family, kind.n, kind.direction)


def _kink_first(d, kind, site):
    """Role of the first passage an AR8/AR10 site names."""
    if kind.direction == EXPAND:
        return site.data[2]
    ci, q = site.data
    return d.components[ci][q].role


def find_arrow_sites(p, kind):
    """Applicable sites of an arrow move, sorted: those of the Gauss-code
    move of its surgery image, so an AR8/AR10 expand site reads
    (component, gap, first role, sign)."""
    name = kind.name
    if name in _NOOP_MOVES:
        return [ArrowSite(())]
    if name == "head-tail-reversal":
        return [ArrowSite((aid,)) for aid in p.arrow_ids()]
    d = surgery(p)
    if name in _EXCHANGES:
        return _exchange_sites(d, name)
    sites = find_sites(d, _gauss_kind(kind))
    if name in _KINK_FIRST:
        return [s for s in sites if _kink_first(d, kind, s) == _KINK_FIRST[name]]
    return sites


def _exchange_sites(d, name):
    """Adjacent endpoints of two distinct arrows; the head-tail exchange
    also needs one tail and one head."""
    out = []
    for ci, comp in enumerate(d.components):
        for q, r in _adjacent_pairs(d, ci):
            a, b = comp[q], comp[r]
            if a.crossing != b.crossing and (name == "ends-exchange" or a.role != b.role):
                out.append(ArrowSite((ci, q)))
    return out


def apply_arrow_move(p, kind, site):
    """Apply an arrow move; surgery images stay welded-equivalent for
    AR1-AR10, and shift ordered linking data by the documented deltas for
    the A-family.  Raises MoveError at a site the move does not list."""
    name = kind.name
    if name in _NOOP_MOVES:
        return p
    if name == "head-tail-reversal":
        (aid,) = site.data
        if aid not in p.sign_map:
            raise MoveError(f"no arrow {aid}")
        strands = tuple(tuple((a, (HEAD if ro == TAIL else TAIL) if a == aid else ro)
                              for a, ro in strand)
                        for strand in p.strands)
        return WArrowPresentation(strands, p.signs, p.kind)
    d = surgery(p)
    if name in _EXCHANGES:
        if site not in _exchange_sites(d, name):
            raise MoveError(f"site is not a {name} pair")
        ci, q = site.data
        comps = [list(c) for c in d.components]
        r = (q + 1) % len(comps[ci])
        comps[ci][q], comps[ci][r] = comps[ci][r], comps[ci][q]
        return to_arrows(d.with_components(comps))
    out = apply_move(d, _gauss_kind(kind), site)
    # the R1 move has checked the site, so the kink's first passage exists
    if name in _KINK_FIRST and _kink_first(d, kind, site) != _KINK_FIRST[name]:
        raise MoveError(f"site is not an {name} kink")
    return to_arrows(out)


# ---------------------------------------------------------------------------
# normal forms

def normalize_vn(p, n):
    """Twist normal-form parameters for odd n.

    Returns {(i, j): a_ij} with 0 <= a_ij < n for 1 <= i < j <= mu, where
    a_ij is the mod-n reduction of lambda_ij + lambda_ji of the closure; the
    stacked H_ij(a_ij) presentations realize the normal form.
    """
    if n < 1 or n % 2 == 0:
        raise DiagramError("normalize_vn needs odd n >= 1")
    if p.kind != STRING_LINK:
        raise DiagramError("normalize_vn expects a string-link presentation")
    return twist_residues(closure(surgery(p)), n)


def normalize_vn_uc(p, n):
    """Parallel normal-form parameters: ({(i,j): a_ij}, {(i,j): b_ij}) with
    a_ij = lambda_ij mod n and b_ij = lambda_ji mod n for i < j."""
    if n < 1:
        raise DiagramError("normalize_vn_uc needs n >= 1")
    if p.kind != STRING_LINK:
        raise DiagramError("normalize_vn_uc expects a string-link presentation")
    res = parallel_residues(closure(surgery(p)), n)
    pairs = [(i, j) for i, j in res if i < j]
    return {(i, j): res[i, j] for i, j in pairs}, {(i, j): res[j, i] for i, j in pairs}
