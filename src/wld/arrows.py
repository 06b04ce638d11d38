"""w-arrow presentations and arrow calculus.

A presentation is a crossing-free base diagram together with signed
w-arrows.  Surgery turns each arrow into one classical crossing: over at
the tail, under at the head, with the arrow's sign.  On Gauss codes the
base carries no passages, so a presentation is held as its surgery
diagram, which records the order of arrow ends along each strand and the
signs; twists are absorbed into the sign, which is calibrated so that the
closure of H_ij(a) has ordered linking numbers (a, 0) and that of
Hbar_ij(b) has (0, b).

Arrow move catalog: AR1-AR6 involve only virtual crossings and twist pairs
and act trivially on this data; AR7 exchanges adjacent tails (surgery image
OC), AR8/AR10 insert or delete an arrow whose tail/head or head/tail are
adjacent (R1 kink), AR9 inserts or cancels an opposite-sign parallel pair
(R2).  The heads-exchange move (and its H/H' avatars) swaps adjacent heads,
whose surgery image is the forbidden UC.  A(n), A^n and the antiparallel
Abar(n), Abar^n insert or delete the arrow blocks whose surgery images are
the V(n)/V^n twist and parallel blocks.

These moves run on ``wld.moves`` through surgery: the sites of an arrow
move are the sites of its surgery image, and applying it applies the
image, which ``to_arrows`` wraps without converting.  The no-ops, the
head-tail reversal and the head-tail and ends exchanges have no Gauss-code
counterpart.  Each is a rule of the engine's shape (site length, finder,
matcher, action), so its sites are checked as ``moves.apply`` checks one:
the reversal finds and matches a crossing as V does and swaps its roles,
and the exchanges are adjacent-pair moves with their own pair test that
swap the pair as OC and UC do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagram import (DIGITS, OVER, STRING_LINK, UNDER, Diagram, DiagramError,
                      ParseError, Passage)
from .diagram import parse as parse_diagram
from .moves import (_PARAMETRIC, EXPAND, REDUCE, MoveError, MoveKind,
                    MoveSite, _check_entries, _match_v, _pair_move, _swap_pairs,
                    _v_sites, find_sites)
from .moves import apply as apply_move

ARROW_MOVE_NAMES = (
    "ar1", "ar2", "ar3", "ar4", "ar5", "ar6", "ar7", "ar8", "ar9", "ar10",
    "ar11", "ar12", "heads-exchange", "head-tail-exchange", "h", "hprime",
    "head-tail-reversal", "ends-exchange", "a(n)", "a^n", "abar(n)", "abar^n",
)


@dataclass(frozen=True)
class WArrowPresentation:
    """Signed w-arrows on a crossing-free base, held as their surgery image.

    Arrow ``a`` is crossing ``a`` of ``diagram``: its tail is the over
    passage, its head the under passage, and its sign the crossing sign.
    """

    diagram: Diagram

    @property
    def kind(self):
        return self.diagram.kind

    @property
    def mu(self):
        return self.diagram.mu

    def arrow_ids(self):
        return self.diagram.crossing_ids()


def trivial_string_link(mu):
    return WArrowPresentation(Diagram(((),) * mu, STRING_LINK))


def surgery(p):
    """Replace every arrow by one classical crossing (over at its tail)."""
    return p.diagram


def to_arrows(d):
    """Arrow presentation of a diagram: one arrow per classical crossing,
    tail at the over passage, head at the under passage, same sign."""
    return WArrowPresentation(d)


def stack(p, q):
    """Stacking product of two string-link presentations with equal mu."""
    if p.kind != STRING_LINK or q.kind != STRING_LINK:
        raise DiagramError("stacking needs string-link presentations")
    if p.mu != q.mu:
        raise DiagramError("stacking needs equal strand counts")
    offset = max(p.arrow_ids(), default=0)
    return WArrowPresentation(Diagram(tuple(
        sp + tuple(psg._replace(crossing=psg.crossing + offset) for psg in sq)
        for sp, sq in zip(p.diagram.components, q.diagram.components)), STRING_LINK))


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
    strand ``head`` (1-based), on a string link of ``mu`` components."""
    sign = 1 if count >= 0 else -1
    ids = range(1, abs(count) + 1)
    comps = [()] * mu
    comps[tail - 1] = tuple(Passage(k, OVER, sign) for k in ids)
    comps[head - 1] = tuple(Passage(k, UNDER, sign) for k in ids)
    return WArrowPresentation(Diagram(tuple(comps), STRING_LINK))


def _check_pair(mu, i, j):
    if not (1 <= i < j <= mu):
        raise DiagramError(f"need 1 <= i < j <= mu, got i={i} j={j} mu={mu}")


# ---------------------------------------------------------------------------
# text format

_ARROW_LINE = re.compile(r"arrow:\s*(\S+)\s+(\S+)\s+([+-])")
_ARROW_POSITION = re.compile(rf"({DIGITS})\.({DIGITS})")


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
    for aid, (lineno, line) in enumerate(arrow_lines, start=1):
        m = _ARROW_LINE.fullmatch(line)
        if m is None:
            raise ParseError(f"bad arrow line {line!r}", lineno)
        sign = 1 if m[3] == "+" else -1
        for role, field in ((OVER, m[1]), (UNDER, m[2])):
            pos = _ARROW_POSITION.fullmatch(field)
            if pos is None:
                raise ParseError(f"bad arrow position {field!r}", lineno)
            comp, slot = int(pos[1]), int(pos[2])
            if not 1 <= comp <= base.mu:
                raise ParseError(f"component {comp} out of range", lineno)
            if slot in slots[comp - 1]:
                raise ParseError(f"slot {field} used twice", lineno)
            slots[comp - 1][slot] = Passage(aid, role, sign)
    return WArrowPresentation(Diagram(
        tuple(tuple(v for _, v in sorted(comp.items())) for comp in slots), base.kind))


def serialize_presentation(p):
    lines = ["arrows"]
    if p.kind == STRING_LINK:
        lines.append("stringlink")
    lines.extend("component:" for _ in range(p.mu))
    for (ct, qt), (ch, qh), sign in p.diagram.crossing_table().values():
        lines.append(f"arrow: {ct + 1}.{qt + 1} {ch + 1}.{qh + 1} {'+' if sign > 0 else '-'}")
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
    # the surgery image's MoveKind checks n; a move without one ignores it
    family = _GAUSS_FAMILY.get(name)
    n = MoveKind(family, n or 0).n if family in _PARAMETRIC else 0
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


def _reverse(d, positions):
    """Swap the roles of an arrow's over and under passage: its tail and
    head change places."""
    comps = [list(c) for c in d.components]
    for (ci, q), role in zip(positions, (UNDER, OVER)):
        comps[ci][q] = comps[ci][q]._replace(role=role)
    return d.with_components(comps)


# arrow moves with no Gauss-code image, in the move engine's rule shape:
# name -> (site length, finder, matcher, action).  AR1-AR6, AR11 and AR12
# act trivially at the one empty site; the head-tail reversal's site is an
# arrow id; the exchanges swap adjacent ends of two distinct arrows, one
# tail and one head for the head-tail exchange.
_NO_IMAGE = {
    **dict.fromkeys(("ar1", "ar2", "ar3", "ar4", "ar5", "ar6", "ar11", "ar12"),
                    (0, lambda d, kind: [()], lambda d, kind, site: (),
                     lambda d, found: d)),
    "head-tail-reversal": (1, _v_sites, _match_v, _reverse),
    "head-tail-exchange": (2, *_pair_move(lambda a, b: a.crossing != b.crossing
                                          and a.role != b.role), _swap_pairs),
    "ends-exchange": (2, *_pair_move(lambda a, b: a.crossing != b.crossing), _swap_pairs),
}


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
        return site[2]
    ci, q = site
    return d.components[ci][q].role


def find_arrow_sites(p, kind):
    """Applicable sites of an arrow move, sorted: those of the Gauss-code
    move of its surgery image, so an AR8/AR10 expand site reads
    (component, gap, first role, sign)."""
    name = kind.name
    d = p.diagram
    if name in _NO_IMAGE:
        return [ArrowSite(site) for site in sorted(_NO_IMAGE[name][1](d, kind))]
    sites = find_sites(d, _gauss_kind(kind))
    if name in _KINK_FIRST:
        return [s for s in sites if _kink_first(d, kind, s) == _KINK_FIRST[name]]
    return sites


def apply_arrow_move(p, kind, site):
    """Apply an arrow move; surgery images stay welded-equivalent for
    AR1-AR10, and shift ordered linking data by the documented deltas for
    the A-family.  Raises MoveError at a site the move does not list."""
    name, data = kind.name, tuple(site)
    d = p.diagram
    if name in _NO_IMAGE:
        length, _, match, act = _NO_IMAGE[name]
        _check_entries(data, length)
        found = match(d, kind, data)
        if found is None:
            raise MoveError(f"site {data} does not fit a {name} move")
        return WArrowPresentation(act(d, found))
    out = apply_move(d, _gauss_kind(kind), data)
    # the R1 move has checked the site, so the kink's first passage exists
    if name in _KINK_FIRST and _kink_first(d, kind, data) != _KINK_FIRST[name]:
        raise MoveError(f"site is not an {name} kink")
    return WArrowPresentation(out)
