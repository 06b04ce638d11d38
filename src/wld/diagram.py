"""Gauss-code diagrams for virtual and welded links.

A diagram is an ordered, oriented family of components, each a cyclic
(link) or linear (string link) sequence of classical-crossing passages.
Virtual crossings are never stored: on Gauss codes the virtual moves
VR1-VR4 and planar isotopy act trivially, so welded isotopy is generated
by R1, R2, R3 and OC alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

LINK = "link"
STRING_LINK = "stringlink"

OVER = "O"
UNDER = "U"

# a number in text has at most 640 digits, the least limit ``int`` can be
# held to (``sys.set_int_max_str_digits``), so reading one never fails; a
# crossing id, written out as one, is below ID_BOUND
MAX_DIGITS = 640
DIGITS = rf"\d{{1,{MAX_DIGITS}}}"
ID_BOUND = 10 ** MAX_DIGITS

class DiagramError(ValueError):
    """Structurally invalid diagram, or an operation misapplied to one.
    ``crossing`` is the id of the crossing a validation error is about."""

    def __init__(self, message, crossing=None):
        self.crossing = crossing
        super().__init__(message)


class ParseError(DiagramError):
    """Malformed diagram or presentation text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Passage(NamedTuple):
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
    links.  Every crossing id, from 1 to 10^640 - 1 so that it can be
    written out, occurs exactly twice overall, once over and once under,
    with equal signs.

    The constructor checks that by ``_check_whole``, the one rule, over
    every passage.  ``parse`` runs its test inline on what it reads,
    ``moved`` runs it over only what a move changed and ``closure`` changes
    only the kind: the three skip the constructor.
    """

    components: tuple
    kind: str = LINK

    def __post_init__(self):
        if self.kind not in (LINK, STRING_LINK):
            raise DiagramError(f"unknown diagram kind {self.kind!r}")
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))
        if len(self.components) < 1:
            raise DiagramError("a diagram needs at least one component")
        _check_whole([psg for comp in self.components for psg in comp])

    @property
    def mu(self):
        return len(self.components)

    def crossing_ids(self):
        return sorted({p.crossing for comp in self.components for p in comp})

    @property
    def crossing_count(self):
        return sum(len(comp) for comp in self.components) // 2

    def crossing_table(self):
        """Per crossing id, in increasing order: ((c, p) of the over passage,
        (c, p) of the under passage, sign)."""
        over, under, sign = {}, {}, {}
        for ci, comp in enumerate(self.components):
            for p, (cid, role, s) in enumerate(comp):
                (over if role == OVER else under)[cid] = (ci, p)
                sign[cid] = s
        return {cid: (over[cid], under[cid], sign[cid]) for cid in sorted(sign)}

    def moved(self, components, removed=(), added=(), fresh=None):
        """The diagram of this kind with these components, made from this
        one by removing the passages ``removed`` and adding ``added``.

        This diagram's passages were checked when it was built, so only the
        change is: the lists ``removed`` and ``added`` each pass
        ``_check_whole``; the added ids are at least ``fresh`` (default
        ``fresh_crossing_id()``), so none is in use; and the passage count
        changes by ``len(added) - len(removed)``.  Raises DiagramError
        otherwise.
        """
        components = tuple(tuple(c) for c in components)
        if not components:
            raise DiagramError("a diagram needs at least one component")
        _check_whole(removed)
        if added:
            _check_whole(added)
            if fresh is None:
                fresh = self.fresh_crossing_id()
            low = min(psg.crossing for psg in added)
            if low < max(fresh, 1):
                raise DiagramError(f"added crossing {low} is below the fresh id {fresh}", low)
        count = sum(map(len, components))
        if count != sum(map(len, self.components)) + len(added) - len(removed):
            raise DiagramError(f"{count} passages after removing {len(removed)} "
                               f"and adding {len(added)} of {2 * self.crossing_count}")
        return _unchecked(components, self.kind)

    def fresh_crossing_id(self):
        return max([max(comp)[0] for comp in self.components if comp], default=0) + 1

    def __str__(self):
        return serialize(self)


def _unchecked(components, kind):
    """``Diagram(components, kind)`` without ``_check_whole``, for checked
    components."""
    out = object.__new__(Diagram)
    object.__setattr__(out, "components", components)
    object.__setattr__(out, "kind", kind)
    return out


def _check_whole(passages):
    """Raise DiagramError unless the passages, a list, pair up into whole
    crossings: each id, an integer from 1 to 10^640 - 1, once over and once
    under, with one sign, the integer 1 or -1.

    ``over`` and ``under`` map each id to the sign of its over and its
    under passage.  When they are equal, the N passages hold 2 len(over)
    distinct (id, role), so N = 2 len(over) means each id occurs once over
    and once under with one sign.  Only when that test fails are the
    passages counted per id, to name the first crossing, in the order of
    first passages, that is not once over and once under, else that has
    mismatched signs, else the first that does not occur twice.
    """
    over, under = {}, {}
    for psg in passages:
        if not isinstance(psg, Passage):
            raise DiagramError(f"not a passage: {psg!r}")
        cid, role, sign = psg
        if not isinstance(cid, int) or isinstance(cid, bool):
            raise DiagramError(f"crossing id {cid!r} is not an integer")
        if cid < 1:
            raise DiagramError(f"crossing ids must be positive, got {cid}")
        if cid >= ID_BOUND:
            # too long to write out, and so to print in this message
            raise DiagramError(f"crossing ids must be below 10^{MAX_DIGITS}")
        if role not in (OVER, UNDER):
            raise DiagramError(f"bad role {role!r}")
        if sign not in (1, -1) or not isinstance(sign, int) or isinstance(sign, bool):
            raise DiagramError(f"bad sign {sign!r}")
        (over if role == OVER else under)[cid] = sign
    if over == under and 2 * len(over) == len(passages):
        return
    # per crossing id: [over count, under count, sign], the sign set to 0
    # once two passages disagree
    seen = {}
    for cid, role, sign in passages:
        entry = seen.get(cid)
        if entry is None:
            seen[cid] = entry = [0, 0, sign]
        elif entry[2] != sign:
            entry[2] = 0
        entry[role == UNDER] += 1
    for cid, (overs, unders, sign) in seen.items():
        if not overs or not unders:
            raise DiagramError(
                f"crossing {cid} must appear exactly once over and once under", cid)
        if not sign:
            raise DiagramError(f"crossing {cid} has mismatched signs", cid)
    cid, count = next((cid, o + u) for cid, (o, u, _) in seen.items() if o + u != 2)
    raise DiagramError(f"crossing {cid} appears {count} times, expected 2", cid)


def parse(text):
    """Parse diagram text into a Diagram.

    Format: an optional header line ``stringlink``; one line per component,
    ``component:`` followed by tokens ``O<id><+|->`` / ``U<id><+|->``;
    ``#`` starts a comment line.

    Each token that ``_TOKEN`` matches with an id of 1 or more is a
    passage: role O or U, sign +1 or -1, a positive integer id of at most
    640 digits; any other token is an error.  The passages read are
    checked by ``_check_whole``'s test, inline: when it holds the diagram
    is whole and skips the constructor, else the constructor names what
    does not pair up, and the line of that crossing's last passage.
    """
    kind = LINK
    components, lines = [], []
    over, under = {}, {}
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
        body = line[len("component:"):]
        comp = []
        for tok in body.split():
            m = _TOKEN.fullmatch(tok)
            if not m or not (cid := int(m[2])):
                raise ParseError(f"unknown token {tok!r}", lineno)
            role, sign = m[1], _SIGN[m[3]]
            # _check_whole's rule, inline: calling it on the read passages
            # costs a fifth more parse time (896 obstruct inputs, 57 -> 70 ms)
            (over if role == OVER else under)[cid] = sign
            comp.append(tuple.__new__(Passage, (cid, role, sign)))
        components.append(tuple(comp))
        lines.append(lineno)
    if not components:
        raise ParseError("no components found")
    if over == under and 2 * len(over) == sum(map(len, components)):
        return _unchecked(tuple(components), kind)
    try:
        return Diagram(tuple(components), kind)
    except DiagramError as exc:
        # name the line of the crossing's last passage
        line = max((lineno for lineno, comp in zip(lines, components)
                    if any(psg.crossing == exc.crossing for psg in comp)), default=None)
        raise ParseError(str(exc), line) from exc


_TOKEN = re.compile(rf"([{OVER}{UNDER}])({DIGITS})([+-])")
_SIGN = {"+": 1, "-": -1}


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
    return _unchecked(d.components, LINK)


def _walk_start(kind, comp):
    """Where to start reading ``comp`` so that each arc is one stretch of
    the walk: just after the last under-passage of a link component, else
    at position 0.  A link component's first arc then ends at its first
    under-passage and its last under-passage ends the walk."""
    if kind == LINK:
        for p in range(len(comp) - 1, -1, -1):
            if comp[p].role == UNDER:
                return p + 1
    return 0


def crossing_arcs(d):
    """(per crossing id, in increasing order: (over-arc, under-in arc,
    under-out arc, sign); the component of every arc).

    An arc runs from just after one under-passage to the next.  One walk
    numbers them 0, 1, ... component by component: every component is read
    from its ``_walk_start`` and the arc index goes up after each
    under-passage, so the under-in arc ends at the crossing and the
    under-out arc starts just after it.  The last under-passage of a link
    component leads back into its first arc; a string-link strand ends in
    one more arc, as does a link component with no under-passage (its only
    arc).
    """
    over, under, out, sign = {}, {}, {}, {}
    components = []
    arc = 0
    for ci, comp in enumerate(d.components):
        first = arc
        start = _walk_start(d.kind, comp)
        for psg in comp[start:] + comp[:start]:
            cid = psg.crossing
            if psg.role == UNDER:
                under[cid] = arc
                arc += 1
                out[cid] = arc
                sign[cid] = psg.sign
            else:
                over[cid] = arc
        if d.kind == LINK and arc > first:
            out[cid] = first
        else:
            arc += 1
        components += [ci] * (arc - first)
    return ({cid: (over[cid], under[cid], out[cid], sign[cid]) for cid in sorted(sign)},
            tuple(components))


def linking_matrix(d):
    """Ordered linking numbers: entry (i, j) sums the signs of crossings
    passing over on component i and under on component j.  Diagonal unused.
    """
    mat = [[0] * d.mu for _ in range(d.mu)]
    for (co, _), (cu, _), sign in d.crossing_table().values():
        if co != cu:
            mat[co][cu] += sign
    return mat


def canonical_key(d):
    """Hashable key invariant under basepoint rotation and crossing relabeling.

    The key is ``(d.kind, words)`` for the least ``words`` over every choice
    of basepoint rotation per component (only rotation 0 for a string link
    or a component of length <= 1), where ``words[i]`` lists component
    ``i`` read from its basepoint as ``(role, sign, label)`` and crossings
    are labelled 0, 1, ... by first occurrence across the whole code.  So
    two diagrams present the same ordered oriented Gauss code iff their
    keys agree.

    The least code is found by one branch-and-prune search over the
    components in order.  Words compare component by component, so only
    the partial choices whose words so far are least can complete to the
    least code.  A later word depends on the earlier choices only through
    the labels they gave to crossings that occur later, so of two kept
    choices that label those crossings alike only one is kept: their
    completions are the same.

    A word's entries compare (role, sign) before the label, and its first
    entry's (role, sign) is that of the passage it starts at, whatever the
    labels.  So a rotation starting at a passage whose (role, sign) is not
    the least of the component gives a word greater than any rotation
    starting at one that is, and is never least.  Only those are read; the
    kept choices, in their order, are the ones reading all would keep.
    """
    comps = d.components
    # per component, the crossings occurring in the components after it
    later, seen = [], set()
    for comp in reversed(comps):
        later.insert(0, tuple(seen))
        seen.update(psg.crossing for psg in comp)
    words = []
    choices = [{}]
    for comp, ahead in zip(comps, later):
        # each rotation read reads every passage, and a plain tuple unpacks
        # faster than a Passage
        comp = tuple(map(tuple, comp))
        if d.kind == STRING_LINK or len(comp) <= 1:
            rotations = (0,)
        else:
            least = min(psg[1:] for psg in comp)
            rotations = [r for r, psg in enumerate(comp) if psg[1:] == least]
        best, kept = None, {}
        for labels in choices:
            for r in rotations:
                lab = labels.copy()
                word = tuple((role, sign, lab.setdefault(cid, len(lab)))
                             for cid, role, sign in comp[r:] + comp[:r])
                if best is None or word < best:
                    best, kept = word, {}
                if word == best:
                    kept.setdefault(tuple(lab.get(c) for c in ahead), lab)
        words.append(best)
        choices = list(kept.values())
    return (d.kind, tuple(words))


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
