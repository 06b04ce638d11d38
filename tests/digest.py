"""Differential digest of the move engine: one sha256 and one record count
per area, over a seeded corpus built from public ``wld`` calls.

Run from the repository root:

    python tests/digest.py [--seed S] [--count N] [--against PATH]

The areas are ``sites`` (``find_sites`` and ``count_sites`` of every
directed kind, n = 1..4), ``apply`` (results and error classes at listed
sites and at sites with one entry moved by one), ``arrows``
(``find_arrow_sites`` and ``apply_arrow_move`` of every arrow move) and
``scramble`` (outputs and error classes).  A record is one line of text;
site lists and diagrams enter it as short hashes.  With ``--against PATH``
the same corpus runs on the ``src/`` of the checkout at PATH in a fresh
process, both digests are printed, the first differing record of each area
is named, and the script exits 1 if any area differs.  Pytest does not
collect this file; ``test_digest.py`` runs a tiny corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from wld import named, parse_kinds, scramble, serialize  # noqa: E402
from wld.arrows import (apply_arrow_move, find_arrow_sites, make_arrow_kind,  # noqa: E402
                        to_arrows)
from wld.diagram import random_diagram  # noqa: E402
from wld.moves import (EXPAND, FAMILIES, REDUCE, MoveKind, apply, count_sites,  # noqa: E402
                       find_sites)

AREAS = ("sites", "apply", "arrows", "scramble")
BASES = ("trefoil", "figure8", "hopf+", "h-closure:2,1,2,2", "hbar-closure:3,1,3,2")
GROW = parse_kinds("r2,v^n:2,vbar^n:3,v(n):2,v(n):3,vbar(n):3")
SCRAMBLE_KINDS = ("r1,r2,r3,oc", "r1,r2,r3,oc,uc,v", "r1,r2,oc,v^n:3,v(n):3",
                  "r1,r3,vbar^n:2,vbar(n):3", "v(n):2,v^n:2,r1")
# arrow move -> the directions it is run with
ARROW_MOVES = {
    **dict.fromkeys(("ar1", "ar7", "ar12", "heads-exchange", "h", "hprime",
                     "head-tail-exchange", "head-tail-reversal", "ends-exchange"), ("",)),
    **dict.fromkeys(("ar8", "ar9", "ar10"), (EXPAND, REDUCE)),
}
ARROW_BLOCKS = ("a(n)", "a^n", "abar(n)", "abar^n")


def _short(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def directed_kinds():
    """Every directed kind of every family at n = 1..4, built directly."""
    kinds = []
    for fam in FAMILIES:
        if fam in ("r3", "oc", "uc"):
            kinds.append(MoveKind(fam))
        elif fam in ("v(n)", "v^n", "vbar(n)", "vbar^n"):
            kinds += [MoveKind(fam, n, direction) for n in (1, 2, 3, 4)
                      if fam != "vbar(n)" or n % 2 for direction in (EXPAND, REDUCE)]
        else:
            kinds += [MoveKind(fam, 0, direction) for direction in (EXPAND, REDUCE)]
    return kinds


def corpus(seed, count):
    """``count`` seeded small links and string links, every second grown by
    two V^n, V(n) or R2 moves so that block sites exist, then the named
    bases."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        d = random_diagram(rng, max_crossings=rng.randrange(7), max_mu=3,
                           kind=("link", "stringlink")[i % 2])
        out.append(scramble(d, GROW, 2, rng.randrange(1 << 30)) if i % 2 else d)
    return out + [named(base) for base in BASES]


def _outcome(call):
    """A short hash of the diagram a call returns, or its error class."""
    try:
        return _short(serialize(call()))
    except Exception as exc:  # the class is what is compared
        return type(exc).__name__


def _perturbed(site):
    """The site with each integer entry moved by -1 and by +1, one at a
    time; an r3 site's pairs are read as flat entries."""
    nested = bool(site) and isinstance(site[0], tuple)
    flat = sum(site, ()) if nested else site
    out = []
    for k, x in enumerate(flat):
        if isinstance(x, int) and not isinstance(x, bool):
            for step in (-1, 1):
                moved = flat[:k] + (x + step,) + flat[k + 1:]
                out.append(tuple(zip(moved[::2], moved[1::2])) if nested else moved)
    return out


def records(seed, count):
    """Area -> its records, in corpus order."""
    rng = random.Random(seed)
    out = {area: [] for area in AREAS}
    kinds = directed_kinds()
    for i, d in enumerate(corpus(seed, count)):
        for kind in kinds:
            sites = [tuple(site) for site in find_sites(d, kind)]
            out["sites"].append(f"{i} {kind}: {len(sites)} {count_sites(d, kind)} "
                                f"{_short(repr(sites))}")
            for site in rng.sample(sites, min(2, len(sites))):
                for at in [site] + _perturbed(site):
                    out["apply"].append(f"{i} {kind} {at}: "
                                        f"{_outcome(lambda at=at: apply(d, kind, at))}")
        p = to_arrows(d)
        arrow_kinds = [make_arrow_kind(name, direction=direction)
                       for name, directions in ARROW_MOVES.items() for direction in directions]
        arrow_kinds += [make_arrow_kind(name, n, direction) for name in ARROW_BLOCKS
                        for n in (1, 3) for direction in (EXPAND, REDUCE)]
        for kind in arrow_kinds:
            try:
                sites = [tuple(site) for site in find_arrow_sites(p, kind)]
            except Exception as exc:
                out["arrows"].append(f"{i} {kind}: {type(exc).__name__}")
                continue
            applied = [_outcome(lambda site=site: apply_arrow_move(p, kind, site).diagram)
                       for site in sites[:3]]
            out["arrows"].append(f"{i} {kind}: {len(sites)} {_short(repr(sites))} {applied}")
        for text in SCRAMBLE_KINDS:
            for steps in (1, 9):
                got = _outcome(lambda: scramble(d, parse_kinds(text), steps, seed + i))
                out["scramble"].append(f"{i} {text} {steps}: {got}")
    return out


def digests(recs):
    """Area -> (sha256 of its records, one per line, and their count)."""
    return {area: (hashlib.sha256("".join(r + "\n" for r in lines).encode()).hexdigest(),
                   len(lines)) for area, lines in recs.items()}


def dump(seed, count):
    """Print the records as JSON, for ``--against``."""
    print(json.dumps(records(seed, count)))


def _records_at(path, seed, count):
    """The records of the corpus run on the ``src/`` of the checkout at path."""
    code = "import sys, digest; digest.dump(int(sys.argv[1]), int(sys.argv[2]))"
    pythonpath = os.pathsep.join((str(Path(path) / "src"), str(Path(__file__).parent)))
    done = subprocess.run(
        [sys.executable, "-c", code, str(seed), str(count)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=pythonpath))
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=300, help="seeded diagrams before the bases")
    parser.add_argument("--against", metavar="PATH", help="a checkout to compare with")
    args = parser.parse_args(argv)
    ours = records(args.seed, args.count)
    theirs = _records_at(args.against, args.seed, args.count) if args.against else None
    differ = 0
    for area, (sha, n) in digests(ours).items():
        print(f"{area:9} {sha} {n}")
        if theirs is None:
            continue
        other_sha, other_n = digests({area: theirs.get(area, [])})[area]
        print(f"{'':9} {other_sha} {other_n} at {args.against}")
        if sha != other_sha:
            differ += 1
            first = next((k for k, (a, b) in enumerate(zip(ours[area], theirs[area])) if a != b),
                         min(n, other_n))
            pair = [(lines[first] if first < len(lines) else "(none)")
                    for lines in (ours[area], theirs[area])]
            print(f"{'':9} first difference at record {first}: {pair[0]!r} here, "
                  f"{pair[1]!r} there")
    if theirs is not None:
        print("digests differ" if differ else "digests equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
