"""Golden output of the move engine.

The literals below were captured from an earlier implementation of
``wld.moves``: for every directed move kind, the number of sites
``find_sites`` lists on a seeded diagram and the sha256 of the ``repr`` of
their data tuples (first 16 hex digits), and the sha256 of
``serialize(scramble(...))`` for seeded scrambles.  They pin the site
tuple formats, the sort order and the scrambler's draw order.
"""

import hashlib
import random

from wld.arrows import build_H, surgery
from wld.classify import named
from wld.diagram import parse, random_diagram, serialize
from wld.moves import (EXPAND, REDUCE, MoveKind, MoveSite, apply, find_sites,
                       parse_kinds, scramble)

import oracles

# every directed kind; n = 1 is built directly, the way the arrow calculus
# does, so that it keeps the block site format
KINDS = ([MoveKind("r3"), MoveKind("oc"), MoveKind("uc")]
         + [MoveKind(fam, 0, direction) for fam in ("r1", "r2", "v")
            for direction in (EXPAND, REDUCE)]
         + [MoveKind(fam, n, direction)
            for fam, ns in (("v^n", (1, 2, 3, 4)), ("vbar^n", (1, 2, 3, 4)),
                            ("v(n)", (1, 2, 3, 4)), ("vbar(n)", (1, 3)))
            for n in ns for direction in (EXPAND, REDUCE)])

# (expand kind, site) planted on a random diagram, so that block reduce
# sites exist
_PLANTS = [
    (MoveKind("v^n", 2, EXPAND), (0, 0, 0, 1, 1)),
    (MoveKind("vbar^n", 3, EXPAND), (0, 1, 0, 0, -1)),
    (MoveKind("v(n)", 3, EXPAND), (0, 0, 0, 2, 1, 1)),
    (MoveKind("vbar(n)", 3, EXPAND), (0, 1, 0, 1, -1, 2)),
    (MoveKind("v(n)", 2, EXPAND), (0, 0, 0, 1, 1, 2)),
    (MoveKind("r2", 0, EXPAND), (0, 0, 0, 2, 1, False)),
]


def golden_diagrams():
    out = [parse("component: O1+ U1+\n"),
           parse("component: O1+ O2-\ncomponent: U1+ U2-\n"),
           named("trefoil"),
           named("h-closure:3,1,2,2"),
           surgery(build_H(2, 1, 2, 3))]
    seed = 0
    while len(out) < 12:
        seed += 1
        rng = random.Random(seed)
        kind = ("link", "stringlink")[len(out) % 2]
        d = random_diagram(rng, max_crossings=6, max_mu=2, kind=kind)
        if len(d.components[0]) < 3:
            continue
        plant, site = _PLANTS[len(out) % len(_PLANTS)]
        if plant.family == "v(n)" and plant.n % 2 == 0 and kind == "stringlink":
            plant = MoveKind("v^n", 2, EXPAND)
            site = site[:5]
        out.append(apply(d, plant, MoveSite(site)))
    return out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def site_digests(d):
    rows = []
    for kind in KINDS:
        data = [site.data for site in find_sites(d, kind)]
        rows.append(f"{len(data)}:{_digest(repr(data))}")
    return rows


# (base, moves, steps, seed): the benchmark's scramble kind sets, even and
# odd twists, string links (where an even twist has no site) and directed
# kinds
SCRAMBLE_CASES = [
    ("trefoil", "r1,r2,r3,oc", 30, 1),
    ("figure8", "r1,r2,r3,oc,v^n:3", 30, 2),
    ("hopf+", "r1,r2,r3,oc,v(n):3", 30, 3),
    ("h-closure:2,1,2,2", "r1,r2,r3,oc,vbar^n:3", 30, 4),
    ("hbar-closure:3,1,3,2", "r1,r2,r3,oc,vbar(n):3", 30, 5),
    ("trefoil", "r1,r2,r3,oc,v^n:3,v(n):3", 40, 6),
    ("hopf-", "r1,r2,r3,oc,uc,v", 30, 7),
    ("hopf+", "r1,r2,r3,oc,v(n):2", 30, 8),
    ("h-closure:3,1,2,2", "r1,r2,oc,v(n):4", 25, 9),
    ("figure8", "r1,r2,r3,oc,uc,vbar^n:2", 30, 10),
    ("unlink-2", "v(n):2,v^n:2,r1", 20, 11),
    ("virtual-trefoil", "r1,r2,r3,oc,v(n):1,v^n:1", 30, 12),
    ("virtual-trefoil", "r3,oc,uc", 20, 13),
    ("hbar-closure:2,1,2,3", "r1,r2,r3,oc,v(n):5", 30, 14),
    ("string:H(2,1,2,3)", "r1,r2,r3,oc,v(n):2", 30, 15),
    ("string:H(3,1,3,2)", "r1,r2,r3,oc,uc,v^n:2,vbar(n):3", 30, 16),
    ("string:H(2,1,2,1)", "v(n):2,v(n):3,r1", 25, 17),
    ("figure8", "directed", 30, 18),
    ("string:H(2,1,2,2)", "directed", 30, 19),
    ("h-closure:2,1,2,2", "r1,r2,r3,oc,uc,v,v^n:2,vbar^n:2,v(n):2,v(n):3,vbar(n):3", 60, 20),
    ("trefoil", "repeated", 40, 21),
]

_DIRECTED = [MoveKind("r1", 0, EXPAND), MoveKind("r2", 0, REDUCE),
             MoveKind("v(n)", 2, EXPAND), MoveKind("v(n)", 2, REDUCE),
             MoveKind("vbar^n", 3, EXPAND), MoveKind("v^n", 2, REDUCE),
             MoveKind("oc")]

# kinds that repeat, and undirected families given a direction beside their
# plain kind, to pin how the scrambler draws from such a list
_REPEATED = [MoveKind("oc"), MoveKind("oc", 0, EXPAND), MoveKind("r1"), MoveKind("r1"),
             MoveKind("r3", 0, REDUCE), MoveKind("r2"), MoveKind("r2"),
             MoveKind("v^n", 2, EXPAND), MoveKind("v^n", 2)]


def scramble_digest(base, moves, steps, seed):
    if base.startswith("string:H("):
        mu, i, j, a = (int(x) for x in base[len("string:H("):-1].split(","))
        d = surgery(build_H(mu, i, j, a))
    else:
        d = named(base)
    kinds = {"directed": _DIRECTED, "repeated": _REPEATED}.get(moves) or parse_kinds(moves)
    return _digest(serialize(scramble(d, kinds, steps, seed)))


def test_find_sites_match_golden_lists():
    diagrams = golden_diagrams()
    assert len(diagrams) == len(SITE_DIGESTS)
    for i, (d, want) in enumerate(zip(diagrams, SITE_DIGESTS)):
        got = site_digests(d)
        for kind, g, w in zip(KINDS, got, want.split()):
            assert g == w, f"diagram {i}, {kind}: {g} != {w}"


def test_scramble_matches_golden_outputs():
    for case, want in zip(SCRAMBLE_CASES, SCRAMBLE_DIGESTS, strict=True):
        assert scramble_digest(*case) == want, case


# captured from the earlier implementation; see the module docstring
SITE_DIGESTS = [
    ('0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 0:4f53cda18c2baa0c '
     '8:8e01ebbf056e295e 1:2e671ae9b7fca357 16:b1475a5a2465a46f '
     '0:4f53cda18c2baa0c 8:df8600bc84416c32 1:2f89a856b49d7814 '
     '8:df8600bc84416c32 1:26413cf4e9e7b4b0 8:df8600bc84416c32 '
     '0:4f53cda18c2baa0c 8:df8600bc84416c32 0:4f53cda18c2baa0c '
     '8:df8600bc84416c32 0:4f53cda18c2baa0c 8:df8600bc84416c32 '
     '1:26413cf4e9e7b4b0 8:df8600bc84416c32 0:4f53cda18c2baa0c '
     '8:df8600bc84416c32 0:4f53cda18c2baa0c 8:df8600bc84416c32 '
     '0:4f53cda18c2baa0c 16:2b22ccaef4823a65 1:26413cf4e9e7b4b0 '
     '16:2b22ccaef4823a65 0:4f53cda18c2baa0c 16:2b22ccaef4823a65 '
     '0:4f53cda18c2baa0c 16:2b22ccaef4823a65 0:4f53cda18c2baa0c '
     '16:2b22ccaef4823a65 1:26413cf4e9e7b4b0 16:2b22ccaef4823a65 '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 1:2e671ae9b7fca357 1:fcbd8f2ee97e86ea '
     '16:01db85d44b0e4718 0:4f53cda18c2baa0c 64:c58730e83f44891f '
     '1:bd0be5ab2a2a0338 32:345b9926066c9bb5 2:c2ed2b5e4dd6fe50 '
     '32:345b9926066c9bb5 2:be1626cdcd475361 32:345b9926066c9bb5 '
     '0:4f53cda18c2baa0c 32:345b9926066c9bb5 0:4f53cda18c2baa0c '
     '32:345b9926066c9bb5 0:4f53cda18c2baa0c 32:345b9926066c9bb5 '
     '2:be1626cdcd475361 32:345b9926066c9bb5 0:4f53cda18c2baa0c '
     '32:345b9926066c9bb5 0:4f53cda18c2baa0c 32:345b9926066c9bb5 '
     '0:4f53cda18c2baa0c 64:5c46b242ee0e469f 2:be1626cdcd475361 '
     '64:5c46b242ee0e469f 0:4f53cda18c2baa0c 64:5c46b242ee0e469f '
     '0:4f53cda18c2baa0c 64:5c46b242ee0e469f 0:4f53cda18c2baa0c '
     '64:5c46b242ee0e469f 2:be1626cdcd475361 64:5c46b242ee0e469f '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 0:4f53cda18c2baa0c '
     '24:6c62775c1fa81213 0:4f53cda18c2baa0c 144:fe7046edcdd12f94 '
     '0:4f53cda18c2baa0c 72:64e26195b47a61b4 3:804a0e4f14a6af27 '
     '72:64e26195b47a61b4 3:198b9921a82fedb0 72:64e26195b47a61b4 '
     '0:4f53cda18c2baa0c 72:64e26195b47a61b4 0:4f53cda18c2baa0c '
     '72:64e26195b47a61b4 0:4f53cda18c2baa0c 72:64e26195b47a61b4 '
     '3:198b9921a82fedb0 72:64e26195b47a61b4 0:4f53cda18c2baa0c '
     '72:64e26195b47a61b4 0:4f53cda18c2baa0c 72:64e26195b47a61b4 '
     '0:4f53cda18c2baa0c 144:f83b7567b126e8c7 3:198b9921a82fedb0 '
     '144:f83b7567b126e8c7 3:198b9921a82fedb0 144:f83b7567b126e8c7 '
     '3:198b9921a82fedb0 144:f83b7567b126e8c7 0:4f53cda18c2baa0c '
     '144:f83b7567b126e8c7 3:198b9921a82fedb0 144:f83b7567b126e8c7 '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 1:2e671ae9b7fca357 1:fcbd8f2ee97e86ea '
     '20:04d175f946f4ec8c 0:4f53cda18c2baa0c 100:61cfffa697c86229 '
     '0:4f53cda18c2baa0c 50:9696fa561894627a 2:c2ed2b5e4dd6fe50 '
     '50:9696fa561894627a 2:be1626cdcd475361 50:9696fa561894627a '
     '2:be1626cdcd475361 50:9696fa561894627a 0:4f53cda18c2baa0c '
     '50:9696fa561894627a 0:4f53cda18c2baa0c 50:9696fa561894627a '
     '2:be1626cdcd475361 50:9696fa561894627a 2:7ab80fe37c0ffc55 '
     '50:9696fa561894627a 0:4f53cda18c2baa0c 50:9696fa561894627a '
     '0:4f53cda18c2baa0c 100:045500d9353a96dc 2:be1626cdcd475361 '
     '100:045500d9353a96dc 0:4f53cda18c2baa0c 100:045500d9353a96dc '
     '0:4f53cda18c2baa0c 100:045500d9353a96dc 0:4f53cda18c2baa0c '
     '100:045500d9353a96dc 2:be1626cdcd475361 100:045500d9353a96dc '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 2:6eb681965c5b82a9 2:f3d934a9beef124d '
     '32:0a764d71415c155e 0:4f53cda18c2baa0c 256:b9aff1ef8aeca1fc '
     '0:4f53cda18c2baa0c 128:018ce484f5f4763d 3:804a0e4f14a6af27 '
     '128:018ce484f5f4763d 3:cd7cd2f96daf4851 128:018ce484f5f4763d '
     '2:be1626cdcd475361 128:018ce484f5f4763d 1:f41a317838c6f4a3 '
     '128:018ce484f5f4763d 0:4f53cda18c2baa0c 128:018ce484f5f4763d '
     '3:cd7cd2f96daf4851 128:018ce484f5f4763d 0:4f53cda18c2baa0c '
     '128:018ce484f5f4763d 0:4f53cda18c2baa0c 128:018ce484f5f4763d '
     '0:4f53cda18c2baa0c 256:f42e9349e4d8761a 3:cd7cd2f96daf4851 '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 256:f42e9349e4d8761a '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 0:4f53cda18c2baa0c '
     '256:f42e9349e4d8761a 3:cd7cd2f96daf4851 256:f42e9349e4d8761a '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 3:3c2f807e8e7b239b 4:7cfae8836b048d54 '
     '52:3eaada7f59645a5e 1:5e62036aee2f08a5 676:28f94ad789754658 '
     '2:b7eda015b1dcb2ac 338:dd7ed404b0ecbb04 6:8564c061ae245767 '
     '338:dd7ed404b0ecbb04 6:9cbb6f7344b00421 338:dd7ed404b0ecbb04 '
     '0:4f53cda18c2baa0c 338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c '
     '338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c 338:dd7ed404b0ecbb04 '
     '6:9cbb6f7344b00421 338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c '
     '338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c 338:dd7ed404b0ecbb04 '
     '0:4f53cda18c2baa0c 676:7c7e84a33e588d5e 6:9cbb6f7344b00421 '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 676:7c7e84a33e588d5e '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 0:4f53cda18c2baa0c '
     '676:7c7e84a33e588d5e 6:9cbb6f7344b00421 676:7c7e84a33e588d5e '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 3:a81f428831578d3a 3:3d1f36b39570ea31 '
     '48:7d65c92d64c26efb 0:4f53cda18c2baa0c 576:7f7685d40c4c9c8b '
     '0:4f53cda18c2baa0c 288:cabf7d1522a634f9 6:8564c061ae245767 '
     '288:cabf7d1522a634f9 6:06526187794575f9 288:cabf7d1522a634f9 '
     '1:24a7bbddf58ec36a 288:cabf7d1522a634f9 0:4f53cda18c2baa0c '
     '288:cabf7d1522a634f9 0:4f53cda18c2baa0c 288:cabf7d1522a634f9 '
     '6:06526187794575f9 288:cabf7d1522a634f9 0:4f53cda18c2baa0c '
     '288:cabf7d1522a634f9 0:4f53cda18c2baa0c 288:cabf7d1522a634f9 '
     '0:4f53cda18c2baa0c 576:7d9ff01a741096b6 6:06526187794575f9 '
     '576:7d9ff01a741096b6 0:4f53cda18c2baa0c 576:7d9ff01a741096b6 '
     '0:4f53cda18c2baa0c 576:7d9ff01a741096b6 0:4f53cda18c2baa0c '
     '576:7d9ff01a741096b6 6:06526187794575f9 576:7d9ff01a741096b6 '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 3:cdde06f046f5001a 3:c3c69fa316f4a22c '
     '44:0d1fd32c3b942e64 1:415fb36ecccd8d63 484:22fe5a38d4667fc4 '
     '0:4f53cda18c2baa0c 242:2b3cc22ad470cb0e 5:a6c8984df0670e97 '
     '242:2b3cc22ad470cb0e 5:2579c9cc22c15ec7 242:2b3cc22ad470cb0e '
     '0:4f53cda18c2baa0c 242:2b3cc22ad470cb0e 0:4f53cda18c2baa0c '
     '242:2b3cc22ad470cb0e 0:4f53cda18c2baa0c 242:2b3cc22ad470cb0e '
     '5:2579c9cc22c15ec7 242:2b3cc22ad470cb0e 2:859808634d2a388a '
     '242:2b3cc22ad470cb0e 1:1b0e3463641b3d85 242:2b3cc22ad470cb0e '
     '0:4f53cda18c2baa0c 484:178d7ae2df5094e5 5:2579c9cc22c15ec7 '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 484:178d7ae2df5094e5 '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 0:4f53cda18c2baa0c '
     '484:178d7ae2df5094e5 5:2579c9cc22c15ec7 484:178d7ae2df5094e5 '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 3:ab9d77caeb6900e4 3:fdcd7dc23e5ae314 '
     '64:45773777869faf47 2:93c1f12b504f079a 1024:b187b008360bf31d '
     '0:4f53cda18c2baa0c 512:0e6de97c143b4314 8:b9f6356fdeeba19c '
     '512:0e6de97c143b4314 8:f49aa97918bd1c69 512:0e6de97c143b4314 '
     '1:cafe89c38ed89831 512:0e6de97c143b4314 0:4f53cda18c2baa0c '
     '512:0e6de97c143b4314 0:4f53cda18c2baa0c 512:0e6de97c143b4314 '
     '8:f49aa97918bd1c69 512:0e6de97c143b4314 0:4f53cda18c2baa0c '
     '512:0e6de97c143b4314 0:4f53cda18c2baa0c 512:0e6de97c143b4314 '
     '0:4f53cda18c2baa0c 1024:217d12a9c0cc3001 8:f49aa97918bd1c69 '
     '1024:217d12a9c0cc3001 2:2bea91dd32f74eee 1024:217d12a9c0cc3001 '
     '1:46908b7c7a8a6a0b 1024:217d12a9c0cc3001 0:4f53cda18c2baa0c '
     '1024:217d12a9c0cc3001 8:f49aa97918bd1c69 1024:217d12a9c0cc3001 '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 2:43eca8275afb7ae7 2:a5d1a65019f798a0 '
     '52:3eaada7f59645a5e 1:1b92d0de8bb0230d 676:28f94ad789754658 '
     '1:720f1bfcd5b18bf6 338:dd7ed404b0ecbb04 6:8564c061ae245767 '
     '338:dd7ed404b0ecbb04 6:03bb453a08d54eb1 338:dd7ed404b0ecbb04 '
     '0:4f53cda18c2baa0c 338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c '
     '338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c 338:dd7ed404b0ecbb04 '
     '6:03bb453a08d54eb1 338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c '
     '338:dd7ed404b0ecbb04 0:4f53cda18c2baa0c 338:dd7ed404b0ecbb04 '
     '0:4f53cda18c2baa0c 676:7c7e84a33e588d5e 6:03bb453a08d54eb1 '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 676:7c7e84a33e588d5e '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 0:4f53cda18c2baa0c '
     '676:7c7e84a33e588d5e 6:03bb453a08d54eb1 676:7c7e84a33e588d5e '
     '1:6a100320ac26f1cb'),
    ('2:4c5f254c86b9f608 2:c9088d1725e33f64 2:9cbe1219dea4f9e1 '
     '32:1f430908233b8d8b 0:4f53cda18c2baa0c 256:aed42c69495a0eaf '
     '0:4f53cda18c2baa0c 128:e460e317a8738853 4:8e8c1e4e1dc31469 '
     '128:e460e317a8738853 4:8f7e70b44873b6db 128:e460e317a8738853 '
     '0:4f53cda18c2baa0c 128:e460e317a8738853 0:4f53cda18c2baa0c '
     '128:e460e317a8738853 0:4f53cda18c2baa0c 128:e460e317a8738853 '
     '4:8f7e70b44873b6db 128:e460e317a8738853 0:4f53cda18c2baa0c '
     '128:e460e317a8738853 0:4f53cda18c2baa0c 128:e460e317a8738853 '
     '0:4f53cda18c2baa0c 256:5a37ac341030dab7 4:8f7e70b44873b6db '
     '256:5a37ac341030dab7 1:17870358a87c327d 256:5a37ac341030dab7 '
     '0:4f53cda18c2baa0c 256:5a37ac341030dab7 0:4f53cda18c2baa0c '
     '256:5a37ac341030dab7 4:8f7e70b44873b6db 256:5a37ac341030dab7 '
     '0:4f53cda18c2baa0c'),
    ('0:4f53cda18c2baa0c 1:2e671ae9b7fca357 1:00ce6357cff8c292 '
     '56:cec1fce5f460e4d6 0:4f53cda18c2baa0c 784:c72318c90cc4d5d2 '
     '1:65535bbe86e58338 392:795903c79aac3aa4 6:8564c061ae245767 '
     '392:795903c79aac3aa4 6:9695c567e4a9aa86 392:795903c79aac3aa4 '
     '0:4f53cda18c2baa0c 392:795903c79aac3aa4 0:4f53cda18c2baa0c '
     '392:795903c79aac3aa4 0:4f53cda18c2baa0c 392:795903c79aac3aa4 '
     '6:9695c567e4a9aa86 392:795903c79aac3aa4 0:4f53cda18c2baa0c '
     '392:795903c79aac3aa4 0:4f53cda18c2baa0c 392:795903c79aac3aa4 '
     '0:4f53cda18c2baa0c 784:df95a9e14a3124c8 6:9695c567e4a9aa86 '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 784:df95a9e14a3124c8 '
     '0:4f53cda18c2baa0c 0:4f53cda18c2baa0c 0:4f53cda18c2baa0c '
     '784:df95a9e14a3124c8 6:9695c567e4a9aa86 784:df95a9e14a3124c8 '
     '0:4f53cda18c2baa0c'),
]
SCRAMBLE_DIGESTS = [
    '52981658a7ad2120',
    '6644fb7812101eb9',
    '229446c42a7d9b8a',
    'c1ccabfbed6d3df4',
    '8ea863d40acb94e7',
    '31f85522d4aba12a',
    '1a7475226e7c66d1',
    'a9c8245079b246fc',
    'b6ef82527aa6289f',
    'fd995eaadf08520b',
    '750edeaded14d9b3',
    '31d2cdfa1ed729b3',
    'ada19df022066bd8',
    '8ab9fdc8ecba55ce',
    'd5aacd6362eb285d',
    '9c2a3c991d3e39ec',
    '338606e4133ae7d3',
    '4b2d496547e964bf',
    'ec4a2f7d300bf19d',
    'bb66b824dec3e68b',
    '6a4713af2b906224',
]


# even-twist reduce where the two blocks are adjacent, so that both cut
# points fall on one gap once the blocks are gone: (diagram, site, output)
# as an earlier implementation gave them
EVEN_TWIST_ADJACENT = [
    ("component: O1+ U2+ U1+ O2+ O3+ U3+\n", (0, 0, 0, 2),
     "component: O3+ U3+\ncomponent:\n"),
    ("component: U1+ O2+ O1+ U2+ O3+ U3+\n", (0, 2, 0, 0),
     "component:\ncomponent: O3+ U3+\n"),
    # strand 1's block wraps round the end of its component
    ("component: U3+ O4+\ncomponent: U2+ U1+ O2+ O3+ O1+\ncomponent: U4+\n",
     (1, 4, 1, 1),
     "component: U3+ O4+\ncomponent: O3+\ncomponent:\ncomponent: U4+\n"),
    ("component: U3+ O4+\ncomponent: U1+ O2+ O3+ O1+ U2+\ncomponent: U4+\n",
     (1, 3, 1, 0),
     "component: U3+ O4+\ncomponent: O3+\ncomponent:\ncomponent: U4+\n"),
    # the blocks on two components, which merge
    ("component: O1+ U2+ O3+\ncomponent: U3+ O4+\ncomponent: U1+ O2+ U4+\n",
     (0, 0, 2, 0), "component: U4+ O3+\ncomponent: U3+ O4+\n"),
]


def test_even_twist_reduce_on_adjacent_blocks():
    kind = MoveKind("v(n)", 2, REDUCE)
    for text, site, want in EVEN_TWIST_ADJACENT:
        d = parse(text)
        assert find_sites(d, kind) == [MoveSite(site)], text
        assert serialize(apply(d, kind, MoveSite(site))) == want, text


def test_r3_pattern_table_matches_golden():
    patterns = oracles.r3_pattern_table()
    assert len(patterns) == 96
    assert hashlib.sha256(repr(sorted(patterns)).encode()).hexdigest() == (
        "8acecb7086e00857f5c96cc93a28c2e8a7bf5aef60cfaeb9d690fcf9e1d97cfd")
