"""The Gauss reader against the reader it replaced.

``diagram.parse`` checks the diagram on what it read as it reads each
token; ``oracles.parse_per_token`` builds each passage through its
constructor and checks the diagram by the constructor's walk.  On every text
they must give the same diagram, or the same error class, message, line
and crossing.  The texts are random diagrams, written out and then mutated
at the character and the token level.
"""

import random
import re
from collections import Counter

from wld.diagram import LINK, STRING_LINK, Passage, parse, random_diagram, serialize

import oracles

CASES = 4000

# characters a mutation inserts: parts of tokens, line structure, digits
# that are and are not decimal (Arabic-Indic one, superscript two), and
# whitespace that str.split splits on but a keyboard seldom types
CHARS = ["O", "U", "+", "-", "0", "1", "9", " ", "\n", ":", "#", "x", "\u0661", "\u00b2",
         "\x1f", "\u00a0", "\u2003", "\u3000"]
SPACES = ["\x1f", "\u00a0", "\u2003", "\u3000", "\t", "  "]
TOKEN = re.compile(r"([OU])(\d+)([+-])")


def outcome(read, text):
    try:
        d = read(text)
    except Exception as exc:  # the class is what is compared
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "crossing", None))
    assert all(type(c) is tuple for c in d.components)
    assert all(type(p) is Passage for c in d.components for p in c)
    return d


def tokens(text):
    return list(TOKEN.finditer(text))


def on_token(edit):
    """A mutation that rewrites one token, chosen at random, by ``edit``."""
    def mutation(rng, text):
        found = tokens(text)
        if not found:
            return text
        m = rng.choice(found)
        return text[:m.start()] + edit(rng, m) + text[m.end():]
    return mutation


def on_crossing(edit):
    """A mutation that rewrites every token of one crossing id by ``edit``,
    so the result may still be a whole diagram."""
    def mutation(rng, text):
        found = tokens(text)
        if not found:
            return text
        cid = rng.choice(found)[2]
        return TOKEN.sub(lambda m: edit(rng, m) if m[2] == cid else m[0], text)
    return mutation


def drop_char(rng, text):
    i = rng.randrange(len(text))
    return text[:i] + text[i + 1:]


def insert_char(rng, text):
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice(CHARS) + text[i:]


def glue(rng, text):
    gaps = [m.start() for m in re.finditer(r"(?<=[+-]) (?=[OU])", text)]
    if not gaps:
        return text
    i = rng.choice(gaps)
    return text[:i] + text[i + 1:]


def odd_space(rng, text):
    gaps = [m.start() for m in re.finditer(" ", text)]
    if not gaps:
        return text
    i = rng.choice(gaps)
    return text[:i] + rng.choice(SPACES) + text[i + 1:]


def arabic(digits):
    return "".join(chr(0x0660 + int(c)) for c in digits)


MUTATIONS = [
    drop_char,
    insert_char,
    glue,
    odd_space,
    on_token(lambda rng, m: f"{m[0]} {m[0]}"),
    on_token(lambda rng, m: m[1] + m[2] + "-+"[m[3] == "-"]),
    on_token(lambda rng, m: m[1] + "0" * rng.randint(1, 2) + m[2] + m[3]),
    on_token(lambda rng, m: m[1] + rng.choice(("0", "00")) + m[3]),
    on_token(lambda rng, m: m[1] + m[2] + "\u00b2" + m[3]),
    on_token(lambda rng, m: m[1] + arabic(m[2]) + m[3]),
    on_token(lambda rng, m: m[1] + "7" * rng.choice((640, 641)) + m[3]),
    on_crossing(lambda rng, m: m[1] + m[2] + "-+"[m[3] == "-"]),
    on_crossing(lambda rng, m: m[1] + "0" + m[2] + m[3]),
    on_crossing(lambda rng, m: m[1] + arabic(m[2]) + m[3]),
    on_crossing(lambda rng, m: m[1] + "8" * 639 + m[2][-1] + m[3]),
]


def texts(rng):
    for _ in range(CASES):
        kind = rng.choice((LINK, STRING_LINK))
        text = serialize(random_diagram(rng, max_crossings=12, max_mu=3, kind=kind))
        if rng.random() < 0.2:
            text = "# a comment\n\n" + text
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            text = rng.choice(MUTATIONS)(rng, text)
        yield text


# what a reading can end in: a whole diagram, or one of the errors
ENDINGS = ("unknown token", "expected 'component:'", "exactly once", "mismatched signs",
           "expected 2")


def ending(result):
    if not isinstance(result, tuple):
        return "diagram"
    return next((name for name in ENDINGS if name in result[1]), result[1])


def test_parse_matches_the_per_token_reader():
    seen = Counter()
    for text in texts(random.Random(27)):
        got, want = outcome(parse, text), outcome(oracles.parse_per_token, text)
        assert got == want, text
        seen[ending(want)] += 1
    assert seen["diagram"] > CASES // 4, seen
    assert all(seen[name] for name in ENDINGS), seen


def test_unusual_but_whole_texts_read_alike():
    # leading zeros, 640-digit and Arabic-Indic ids, odd whitespace, a first
    # token glued to "component:"
    for text in ["component: O01+ U1+\n", "component:O1+\u3000U1+\n",
                 f"component: O{'9' * 640}- U{'9' * 640}-\n",
                 "component: O\u0661\u0662+ U12+\n", "component:\x1fO1+ U1+ \n"]:
        d = parse(text)
        assert d == oracles.parse_per_token(text) and d.crossing_count == 1, text
