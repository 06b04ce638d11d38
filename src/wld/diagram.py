"""Gauss-code diagrams for virtual and welded links.

A diagram is an ordered, oriented family of components, each a cyclic
(link) or linear (string link) sequence of classical-crossing passages.
Virtual crossings are never stored: on Gauss codes the virtual moves
VR1-VR4 and planar isotopy act trivially, so welded isotopy is generated
by R1, R2, R3 and OC alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

LINK = "link"
STRING_LINK = "stringlink"

OVER = "O"
UNDER = "U"

# Cap on basepoint-rotation combinations tried while canonicalizing.
_CANON_CAP = 4096


class DiagramError(ValueError):
    """Structurally invalid diagram, or an operation misapplied to one."""


class ParseError(DiagramError):
    """Malformed diagram or presentation text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, order=True)
class Passage:
    """One visit of a component through a classical crossing."""

    crossing: int
    role: str  # OVER or UNDER
    sign: int  # +1 or -1

    def __str__(self):
        return f"{self.role}{self.crossing}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class Diagram:
    """Ordered, oriented Gauss code.

    ``components[i]`` is the passage sequence of the ``i``-th component in
    reading order (= orientation), cyclic for links and linear for string
    links.  Every crossing id occurs exactly twice overall, once over and
    once under, with equal signs.
    """

    components: tuple
    kind: str = LINK

    def __post_init__(self):
        if self.kind not in (LINK, STRING_LINK):
            raise DiagramError(f"unknown diagram kind {self.kind!r}")
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))
        if len(self.components) < 1:
            raise DiagramError("a diagram needs at least one component")
        seen = {}
        for comp in self.components:
            for psg in comp:
                if not isinstance(psg, Passage):
                    raise DiagramError(f"not a passage: {psg!r}")
                if psg.crossing < 1:
                    raise DiagramError(f"crossing ids must be positive, got {psg.crossing}")
                if psg.role not in (OVER, UNDER):
                    raise DiagramError(f"bad role {psg.role!r}")
                if psg.sign not in (1, -1):
                    raise DiagramError(f"bad sign {psg.sign!r}")
                roles, signs = seen.setdefault(psg.crossing, [set(), set()])
                roles.add(psg.role)
                signs.add(psg.sign)
        for cid, (roles, signs) in seen.items():
            if roles != {OVER, UNDER}:
                raise DiagramError(
                    f"crossing {cid} must appear exactly once over and once under")
            if len(signs) != 1:
                raise DiagramError(f"crossing {cid} has mismatched signs")
        counts = {}
        for comp in self.components:
            for psg in comp:
                counts[psg.crossing] = counts.get(psg.crossing, 0) + 1
        for cid, cnt in counts.items():
            if cnt != 2:
                raise DiagramError(f"crossing {cid} appears {cnt} times, expected 2")

    @property
    def mu(self):
        return len(self.components)

    @property
    def is_link(self):
        return self.kind == LINK

    def crossing_ids(self):
        return sorted({p.crossing for comp in self.components for p in comp})

    @property
    def crossing_count(self):
        return sum(len(comp) for comp in self.components) // 2

    def passage_positions(self, crossing):
        """Return ((c, p) of the over passage, (c, p) of the under passage)."""
        over = under = None
        for ci, comp in enumerate(self.components):
            for pi, psg in enumerate(comp):
                if psg.crossing == crossing:
                    if psg.role == OVER:
                        over = (ci, pi)
                    else:
                        under = (ci, pi)
        if over is None or under is None:
            raise DiagramError(f"no crossing {crossing} in diagram")
        return over, under

    def with_components(self, components):
        return Diagram(tuple(tuple(c) for c in components), self.kind)

    def fresh_crossing_id(self):
        ids = self.crossing_ids()
        return (ids[-1] + 1) if ids else 1

    def __str__(self):
        return serialize(self)


def parse(text):
    """Parse diagram text into a Diagram.

    Format: an optional header line ``stringlink``; one line per component,
    ``component:`` followed by tokens ``O<id><+|->`` / ``U<id><+|->``;
    ``#`` starts a comment line.
    """
    kind = LINK
    components = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "stringlink" and header_allowed:
            kind = STRING_LINK
            header_allowed = False
            continue
        header_allowed = False
        if not line.startswith("component:"):
            raise ParseError(f"expected 'component:' line, got {line!r}", lineno)
        body = line[len("component:"):].strip()
        passages = []
        for tok in body.split():
            passages.append(_parse_token(tok, lineno))
        components.append(tuple(passages))
    if not components:
        raise ParseError("no components found")
    try:
        return Diagram(tuple(components), kind)
    except DiagramError as exc:
        raise ParseError(str(exc)) from exc


def _parse_token(tok, lineno):
    if len(tok) < 3 or tok[0] not in (OVER, UNDER) or tok[-1] not in "+-":
        raise ParseError(f"unknown token {tok!r}", lineno)
    digits = tok[1:-1]
    if not digits.isdigit() or int(digits) < 1:
        raise ParseError(f"unknown token {tok!r}", lineno)
    return Passage(int(digits), tok[0], 1 if tok[-1] == "+" else -1)


def serialize(d):
    """Canonical text form; ``parse`` is a left inverse up to whitespace."""
    lines = []
    if d.kind == STRING_LINK:
        lines.append("stringlink")
    for comp in d.components:
        if comp:
            lines.append("component: " + " ".join(str(p) for p in comp))
        else:
            lines.append("component:")
    return "\n".join(lines) + "\n"


def closure(d):
    """Close each strand of a string link into a circle.

    Component order, orientation, and every passage are preserved; only the
    kind changes.
    """
    if d.kind != STRING_LINK:
        raise DiagramError("closure expects a string link diagram")
    return Diagram(d.components, LINK)


@dataclass(frozen=True)
class Arc:
    """Maximal run of a component between consecutive under-passages.

    ``positions`` is the half-open run from just after one under-passage up
    to and including the next one, so arcs partition the component.  On a
    component with no under-passages the single closed arc carries all
    positions.  String-link strands additionally get a leading arc from the
    bottom endpoint and a (possibly passage-free) trailing arc to the top.
    """

    component: int
    positions: tuple


def arcs(d):
    """Arc decomposition, ordered by component then along the orientation."""
    return _arc_data(d)[0]


def _arc_data(d):
    """Return (arcs, pos_to_arc, under_out).

    ``pos_to_arc[(c, p)]`` is the index of the arc containing position ``p``;
    ``under_out[(c, p)]`` is the arc index that begins just after the
    under-passage at ``p``.
    """
    arc_list = []
    pos_to_arc = {}
    under_out = {}
    for ci, comp in enumerate(d.components):
        n = len(comp)
        unders = [i for i, psg in enumerate(comp) if psg.role == UNDER]
        if d.kind == STRING_LINK:
            runs = []
            prev = -1
            for u in unders:
                runs.append(list(range(prev + 1, u + 1)))
                prev = u
            runs.append(list(range(prev + 1, n)))
            for k, run in enumerate(runs):
                idx = len(arc_list)
                arc_list.append(Arc(ci, tuple(run)))
                for p in run:
                    pos_to_arc[(ci, p)] = idx
                if k > 0:
                    under_out[(ci, unders[k - 1])] = idx
        else:
            if not unders:
                idx = len(arc_list)
                arc_list.append(Arc(ci, tuple(range(n))))
                for p in range(n):
                    pos_to_arc[(ci, p)] = idx
                continue
            first = len(arc_list)
            for k, u in enumerate(unders):
                prev = unders[k - 1] if k > 0 else unders[-1]
                run = []
                p = (prev + 1) % n
                while True:
                    run.append(p)
                    if p == u:
                        break
                    p = (p + 1) % n
                idx = len(arc_list)
                arc_list.append(Arc(ci, tuple(run)))
                for p in run:
                    pos_to_arc[(ci, p)] = idx
            for k, u in enumerate(unders):
                nxt = first + (k + 1) % len(unders)
                under_out[(ci, u)] = nxt
    return arc_list, pos_to_arc, under_out


def crossing_arcs(d):
    """Per crossing id: (over-arc, under-in arc, under-out arc, sign)."""
    _, pos_to_arc, under_out = _arc_data(d)
    table = {}
    for cid in d.crossing_ids():
        (co, po), (cu, pu) = d.passage_positions(cid)
        sign = d.components[co][po].sign
        table[cid] = (pos_to_arc[(co, po)], pos_to_arc[(cu, pu)],
                      under_out[(cu, pu)], sign)
    return table


def linking_matrix(d):
    """Ordered linking numbers: entry (i, j) sums the signs of crossings
    passing over on component i and under on component j.  Diagonal unused.
    """
    mat = [[0] * d.mu for _ in range(d.mu)]
    for cid in d.crossing_ids():
        (co, _), (cu, _) = d.passage_positions(cid)
        if co != cu:
            sign = next(p.sign for comp in d.components for p in comp
                        if p.crossing == cid)
            mat[co][cu] += sign
    return mat


def canonical_key(d):
    """Hashable key invariant under basepoint rotation and crossing relabeling.

    Two diagrams present the same ordered oriented Gauss code iff their keys
    agree.  Per component the basepoint is rotated to minimize a local
    relabel-invariant word; among tied rotations the globally relabeled code
    is minimized.
    """
    candidate_offsets = []
    for comp in d.components:
        if d.kind == STRING_LINK or len(comp) <= 1:
            candidate_offsets.append([0])
            continue
        best = None
        best_offsets = [0]
        n = len(comp)
        for r in range(n):
            key = _local_word(comp, r)
            if best is None or key < best:
                best, best_offsets = key, [r]
            elif key == best:
                best_offsets.append(r)
        candidate_offsets.append(best_offsets)
    total = 1
    for offs in candidate_offsets:
        total *= len(offs)
        if total > _CANON_CAP:
            candidate_offsets = [[offs[0]] for offs in candidate_offsets]
            break
    best_global = None
    for combo in itertools.product(*candidate_offsets):
        labels = {}
        out = []
        for comp, r in zip(d.components, combo):
            n = len(comp)
            word = []
            for i in range(n):
                psg = comp[(r + i) % n]
                lbl = labels.setdefault(psg.crossing, len(labels))
                word.append((psg.role, psg.sign, lbl))
            out.append(tuple(word))
        key = (d.kind, tuple(out))
        if best_global is None or key < best_global:
            best_global = key
    return best_global


def _local_word(comp, r):
    n = len(comp)
    labels = {}
    word = []
    for i in range(n):
        psg = comp[(r + i) % n]
        lbl = labels.setdefault(psg.crossing, len(labels))
        word.append((psg.role, psg.sign, lbl))
    return tuple(word)


def same_diagram(d1, d2):
    """Equality up to basepoint rotation and crossing relabeling."""
    return canonical_key(d1) == canonical_key(d2)


def random_diagram(rng, max_crossings=10, max_mu=3, kind=LINK):
    """Uniform-ish random valid Gauss code; every code is virtually realizable."""
    mu = rng.randint(1, max_mu)
    ncross = rng.randint(0, max_crossings)
    per_comp = [[] for _ in range(mu)]
    for cid in range(1, ncross + 1):
        sign = rng.choice((1, -1))
        per_comp[rng.randrange(mu)].append(Passage(cid, OVER, sign))
        per_comp[rng.randrange(mu)].append(Passage(cid, UNDER, sign))
    for seq in per_comp:
        rng.shuffle(seq)
    return Diagram(tuple(tuple(seq) for seq in per_comp), kind)
