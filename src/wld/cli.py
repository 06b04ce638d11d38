"""Command-line front end.

Thin adapters over the library: every subcommand parses inputs, calls the
corresponding module operation and renders text or a single JSON document.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import arrows, classify, invariants, moves
from .algebra import format_poly
from .diagram import (DiagramError, STRING_LINK, closure, linking_matrix,
                      parse, serialize)


def _read(path, parse_text):
    """``parse_text`` of the text of the file at ``path``.  Only the CLI
    names files, so an error reading or parsing it names the file here."""
    try:
        with open(path) as fh:
            return parse_text(fh.read())
    except OSError as exc:
        raise DiagramError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_diagram(path, close=True):
    d = _read(path, parse)
    if close and d.kind == STRING_LINK:
        d = closure(d)
    return d


def _emit(args, payload, text_lines):
    """Print the payload as one JSON document under ``--json``, else the
    lines ``text_lines()`` gives.  An exact count may have more digits than
    Python turns into text by default, so the limit is lifted while they
    are formatted, and only then: inputs are still read under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        json_out = getattr(args, "json", False)
        lines = [json.dumps(payload, sort_keys=True, indent=2)] if json_out else text_lines()
    finally:
        sys.set_int_max_str_digits(limit)
    for line in lines:
        print(line)


def _group_from_spec(spec):
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        return _read(path, functools.partial(invariants.parse_group_csv, name=path))
    return invariants.builtin_group(spec)


def _cmd_invariants(args):
    d = _read_diagram(args.file)
    lam = linking_matrix(d)
    polys = invariants.alexander_polynomials(d, args.kmax)
    # each welded relator abelianizes to x - z, joining the arcs of each
    # component, so the welded abelianization is Z^mu (tests pin this)
    welded_ab = (d.mu, ())
    core_ab = invariants.abelianization(invariants.core_group(d))
    colorings = {str(n): invariants.cyclic_hom_count(core_ab, n) for n in range(2, 8)}
    payload = {
        "mu": d.mu,
        "crossings": d.crossing_count,
        "linking": lam,
        "alexander": {str(k): format_poly(p) for k, p in enumerate(polys)},
        "welded_abelianization": {"rank": welded_ab[0], "torsion": list(welded_ab[1])},
        "core_abelianization": {"rank": core_ab[0], "torsion": list(core_ab[1])},
        "colorings": colorings,
    }
    _emit(args, payload, lambda: [
        f"components: {d.mu}",
        f"crossings:  {d.crossing_count}",
        "linking matrix: " + "; ".join(" ".join(str(x) for x in row) for row in lam),
        *(f"alexander[{k}]: {p}" for k, p in payload["alexander"].items()),
        f"welded abelianization: rank {welded_ab[0]}, torsion {list(welded_ab[1])}",
        f"core abelianization:   rank {core_ab[0]}, torsion {list(core_ab[1])}",
        "colorings: " + ", ".join(f"{n}:{c}" for n, c in colorings.items())])
    return 0


def _cmd_equiv(args):
    left = _read_diagram(args.left)
    right = _read_diagram(args.right)
    decide = classify.decide_vn if args.relation == "vn" else classify.decide_vn_uc
    verdict = decide(left, right, args.n, any_order=args.any_order)
    _emit(args, verdict.to_json_dict(),
          lambda: [f"{verdict.relation} n={verdict.n}: {verdict.verdict}"])
    return 0


def _cmd_obstruct(args):
    left = _read_diagram(args.left)
    right = _read_diagram(args.right)
    cert = classify.obstruct_vn(left, right, args.n, args.kmax)
    if cert is None:
        _emit(args, {"relation": "vn-only", "n": args.n, "verdict": "inconclusive"},
              lambda: [f"vn-only n={args.n}: inconclusive "
                       f"(no ideal obstruction up to k={args.kmax})"])
    else:
        _emit(args, cert.to_json_dict(),
              lambda: [f"vn-only n={args.n}: obstruction at k={cert.k} "
                       "(elementary ideals differ mod 1 - t^n)"])
    return 0


def _cmd_normal_form(args):
    pres = _read(args.file, arrows.parse_presentation)
    if args.relation == "vn":
        a_mat = classify.normalize_vn(pres, args.n)
        payload = {"relation": "vn", "n": args.n,
                   "a": {f"{i},{j}": v for (i, j), v in sorted(a_mat.items())}}
        lines = [f"vn normal form, n={args.n}:"]
        lines += [f"  a[{i},{j}] = {v}" for (i, j), v in sorted(a_mat.items())]
    else:
        a_mat, b_mat = classify.normalize_vn_uc(pres, args.n)
        payload = {"relation": "vn-uc", "n": args.n,
                   "a": {f"{i},{j}": v for (i, j), v in sorted(a_mat.items())},
                   "b": {f"{i},{j}": v for (i, j), v in sorted(b_mat.items())}}
        lines = [f"vn-uc normal form, n={args.n}:"]
        lines += [f"  a[{i},{j}] = {v}  b[{i},{j}] = {b_mat[(i, j)]}"
                  for (i, j), v in sorted(a_mat.items())]
    _emit(args, payload, lambda: lines)
    return 0


def _write_diagram(args, d):
    text = serialize(d)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DiagramError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _cmd_multiplex(args):
    d = _read_diagram(args.file, close=False)
    m = [int(tok) for tok in args.m.split(",") if tok.strip()]
    _write_diagram(args, classify.multiplex(d, m))
    return 0


def _cmd_scramble(args):
    d = _read_diagram(args.file, close=False)
    kinds = moves.parse_kinds(args.moves)
    _write_diagram(args, moves.scramble(d, kinds, args.steps, args.seed))
    return 0


def _cmd_moves(args):
    d = _read_diagram(args.file, close=False)
    # each directed kind once, in the order first listed
    kinds = dict.fromkeys(dk for kind in moves.parse_kinds(args.moves)
                          for dk in moves.directed_kinds(kind))
    payload = {str(dk): moves.count_sites(d, dk) for dk in kinds}
    _emit(args, payload, lambda: [f"{name}: {count} site(s)" for name, count in payload.items()])
    return 0


def _cmd_homs(args):
    d = _read_diagram(args.file)
    group = _group_from_spec(args.group)
    pres = (invariants.core_group(d) if args.presentation == "core"
            else invariants.welded_group(d))
    count = invariants.hom_count(pres, group)
    _emit(args, {"group": args.group, "presentation": args.presentation,
                 "count": count},
          lambda: [f"|Hom({args.presentation} group -> {args.group})| = {count}"])
    return 0


def _cmd_colorings(args):
    d = _read_diagram(args.file)
    count = invariants.coloring_count(d, args.n)
    _emit(args, {"n": args.n, "count": count}, lambda: [f"colorings mod {args.n}: {count}"])
    return 0


def _cmd_examples(args):
    if args.name:
        _write_diagram(args, classify.named(args.name))
        return 0
    payload = classify.example_names()
    _emit(args, payload, lambda: payload)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="wld",
        description="Welded-link invariants and generalized virtualization moves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON document")

    p = sub.add_parser("invariants", help="linking numbers, Alexander polynomials, colorings")
    p.add_argument("file")
    p.add_argument("--kmax", type=int, default=3)
    add_json(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser(
        "equiv", help="decide V(n)- or (V^n+UC)-equivalence",
        description="Decide V(n)- or (V^n+UC)-equivalence of two link "
                    "diagrams. For even n every welded link is "
                    "V(n)-equivalent to the unknot; for odd n diagrams with "
                    "different component counts are reported inequivalent "
                    "(odd V(n)-moves preserve the component count).")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--relation", choices=("vn", "vn-uc"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--any-order", action="store_true",
                   help="also try reorderings of the second link's components")
    add_json(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("obstruct", help="elementary-ideal obstruction to V^n-equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=3)
    add_json(p)
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("normal-form", help="normal-form parameters of a string link")
    p.add_argument("file")
    p.add_argument("--relation", choices=("vn", "vn-uc"), required=True)
    p.add_argument("--n", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("multiplex", help="multiplex all crossings")
    p.add_argument("file")
    p.add_argument("--m", required=True, help="comma-separated multipliers, one per component")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_multiplex)

    p = sub.add_parser("scramble", help="apply random moves, deterministically seeded")
    p.add_argument("file")
    p.add_argument("--moves", required=True,
                   help="comma list: r1,r2,r3,oc,uc,v,v(n):N,v^n:N,vbar(n):N,vbar^n:N")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_scramble)

    p = sub.add_parser("moves", help="count applicable sites per move kind")
    p.add_argument("file")
    p.add_argument("--moves", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("homs", help="count homomorphisms into a finite group")
    p.add_argument("file")
    p.add_argument("--group", required=True, help="z2..z12, d3..d8, s3, s4, q8, or table:PATH")
    p.add_argument("--presentation", choices=("welded", "core"), default="welded")
    add_json(p)
    p.set_defaults(func=_cmd_homs)

    p = sub.add_parser("colorings", help="count colorings 2y = x + z mod n")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser("examples", help="list or print named example diagrams")
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--output")
    add_json(p)
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
