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

These moves run on the engine of ``wld.moves`` through surgery, which
``to_arrows`` wraps without converting.  One table gives each move the
Gauss-code family of its surgery image, whose rule it runs, or a rule of
the engine's own shape, and ``find_arrow_sites`` and ``apply_arrow_move``
are the engine's find and apply on it.  AR8 and AR10 are the R1 rule kept
to one first role.  The no-ops, the head-tail reversal and the head-tail
and ends exchanges have no Gauss-code image: the reversal finds and
matches a crossing as V does and swaps its roles, and the exchanges are
adjacent-pair moves with their own pair test that swap the pair as OC and
UC do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .diagram import (DIGITS, OVER, STRING_LINK, UNDER, Diagram, DiagramError,
                      ParseError, Passage)
from .diagram import parse as parse_diagram
from .moves import (_PARAMETRIC, EXPAND, MoveError, MoveKind, _apply, _check_direction,
                    _find, _match_v, _pair_move, _rule, _swap_pairs, _v_sites)


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
    """Parse a presentation: the ``arrows`` format, or a Gauss code read as
    the presentation whose arrows are its crossings (``to_arrows``).

    The first line that is neither blank nor a comment names the format:
    one starting ``arrows`` names the ``arrows`` format, whose header it
    must be, and any other line a Gauss code.  After the header come the
    base diagram (crossing-free) in the diagram format and lines ``arrow:
    <comp>.<slot> <comp>.<slot> <+|->`` giving tail and head positions,
    1-based.  The base is parsed from the whole text with the header and
    arrow lines blanked, so its errors give the text's own line numbers.
    """
    lines = [line.strip() for line in text.splitlines()]
    header = next((i for i, line in enumerate(lines)
                   if line and not line.startswith("#")), None)
    if header is None or not lines[header].startswith("arrows"):
        return to_arrows(parse_diagram(text))
    if lines[header] != "arrows":
        raise ParseError("presentation text must start with 'arrows'", header + 1)
    lines[header] = ""
    arrow_lines = [(lineno, line) for lineno, line in enumerate(lines, start=1)
                   if line.startswith("arrow:")]
    base = parse_diagram("\n".join("" if line.startswith("arrow:") else line
                                   for line in lines))
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

    def __str__(self):
        return f"{self.name} {self.direction}".strip()


def make_arrow_kind(name, n=None, direction=None):
    name, direction = name.lower(), direction or ""
    if name not in _ARROW_MOVES:
        raise MoveError(f"unknown arrow move {name!r}")
    _check_direction(direction)
    # the surgery image's MoveKind checks n; a move without one ignores it
    entry = _ARROW_MOVES[name]
    n = MoveKind(entry, n or 0).n if entry in _PARAMETRIC else 0
    return ArrowMoveKind(name, n, direction)


def _reverse(d, kind, positions):
    """Swap the roles of an arrow's over and under passage: its tail and
    head change places."""
    comps = [list(c) for c in d.components]
    for (ci, q), role in zip(positions, (UNDER, OVER)):
        comps[ci][q] = comps[ci][q]._replace(role=role)
    return Diagram(comps, d.kind)


def _kinks(role, d, kind):
    """AR8 (role O) or AR10 (role U) on d: the R1 kind and rule, its finder
    and matcher kept to the kinks whose first passage has ``role``, which an
    expand site names and a reduce site's first position holds."""
    r1 = MoveKind("r1", 0, kind.direction)
    length, axes, find, match, act = _rule(d, r1)

    def kept(site):
        return (site[2] if r1.direction == EXPAND else d.components[site[0]][site[1]].role) == role

    def match_kept(d, kind, site):
        found = match(d, kind, site)
        return found if found is not None and kept(site) else None
    return r1, (length, axes, lambda d, kind: filter(kept, find(d, kind)), match_kept, act)


# arrow move -> the Gauss-code family of its surgery image, its own rule, or
# (AR8, AR10) a function of the diagram and kind giving the kind and rule to
# run.  AR1-AR6, AR11 and AR12 act trivially at the one empty site; the
# head-tail reversal's site is an arrow id; the exchanges swap adjacent ends
# of two distinct arrows, one tail and one head for the head-tail exchange.
_ARROW_MOVES = {
    **dict.fromkeys(("ar1", "ar2", "ar3", "ar4", "ar5", "ar6", "ar11", "ar12"),
                    (0, (), lambda d, kind: [()], lambda d, kind, site: (),
                     lambda d, kind, found: d)),
    "ar7": "oc", "ar8": partial(_kinks, OVER), "ar9": "r2", "ar10": partial(_kinks, UNDER),
    "heads-exchange": "uc", "h": "uc", "hprime": "uc",
    "head-tail-exchange": (2, (), *_pair_move(lambda x, rx, y, ry: x != y and rx != ry),
                           _swap_pairs),
    "head-tail-reversal": (1, (), _v_sites, _match_v, _reverse),
    "ends-exchange": (2, (), *_pair_move(lambda x, rx, y, ry: x != y), _swap_pairs),
    "a(n)": "v(n)", "a^n": "v^n", "abar(n)": "vbar(n)", "abar^n": "vbar^n",
}


def _arrow_rule(d, kind):
    """The kind and rule an arrow move runs on d."""
    entry = _ARROW_MOVES.get(kind.name)
    if entry is None:
        raise MoveError(f"unknown arrow move {kind.name!r}")
    if isinstance(entry, str):
        image = MoveKind(entry, kind.n, kind.direction)
        return image, _rule(d, image)
    return entry(d, kind) if callable(entry) else (kind, entry)


def find_arrow_sites(p, kind):
    """Applicable sites of an arrow move, sorted: those of the Gauss-code
    move of its surgery image, so an AR8/AR10 expand site reads
    (component, gap, first role, sign)."""
    return _find(p.diagram, *_arrow_rule(p.diagram, kind))


def apply_arrow_move(p, kind, site):
    """Apply an arrow move; surgery images stay welded-equivalent for
    AR1-AR10, and shift ordered linking data by the documented deltas for
    the A-family.  Raises MoveError at a site the move does not list."""
    return WArrowPresentation(_apply(p.diagram, *_arrow_rule(p.diagram, kind), site))
