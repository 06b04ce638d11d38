"""The CLI's error contract on generated inputs.

Every run of ``wld.cli.main`` exits 0, 1 or 2, prints exactly one ``error:``
line when it exits 1, and raises nothing else.  The inputs are mutated
Gauss codes and headers, arrows files and group tables, and mutated
move-kind and example names.  Gauss crossing ids go up to 640 digits,
which reading needs no budget for; other numbers keep to three digits, and
obstruct's ``--n`` to two (its ideals live in Z[t]/(t^n - 1), whose
lattices grow with n), so every run is quick without work budgets.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from wld.classify import named
from wld.cli import main
from wld.diagram import serialize
from wld.invariants import builtin_group

from support import time_limit

GAUSS = [serialize(named(name)) for name in
         ("trefoil", "hopf+", "figure8", "virtual-trefoil", "unlink-2", "h-closure:2,1,2,2")]
GAUSS += ["stringlink\ncomponent: O1+ U2+\ncomponent: U1+ O2+\n",
          "# a comment\nstringlink\ncomponent: O1- U1-\n"]
ARROWS = ["arrows\nstringlink\ncomponent:\ncomponent:\narrow: 1.1 2.1 +\narrow: 1.2 2.2 -\n",
          "# one arrow\narrows\nstringlink\ncomponent:\ncomponent:\ncomponent:\n"
          "arrow: 3.1 1.1 +\n"]
TABLES = [builtin_group(name).table for name in ("z2", "z3", "s3")]

# whole tokens and pieces of tokens, valid and not, of both text formats
TOKENS = ["O1+", "U1+", "O2-", "U2-", "O3+", "U4-", "O0+", "U-1+", "O999+", "X1+",
          "O1", "O1++", "o1+", "U٣+", "+", "-", "component:", "component",
          "stringlink", "link", "arrows", "arrow:", "1.1", "2.1", "0.1", "1.999", "#",
          ":", ",", "\n", ""]
ENTRIES = ["0", "1", "2", "3", "-1", "999", "x", "", " 1", "1.0", "١"]
MOVE_NAMES = ["r1", "r2", "r3", "oc", "uc", "v", "V", "v(n)", "w", "", " r2 ", "r3:2",
              "r1:0", ":", "v^n:", "v(n):x", "v(n):--1"]
PARAMETRIC = ["v(n)", "v^n", "vbar(n)", "vbar^n"]
FIXED_EXAMPLES = ["trefoil", "TREFOIL", "unknot", "figure8", "hopf+", "hopf-",
                  "virtual-trefoil", "unlink-", "unlink-x", "h-closure:", "", " ", "x"]

small = st.integers(-3, 12)
three_digits = st.integers(-999, 999)
# a passage of any id DIGITS allows, and both passages of one crossing
passage = st.builds("{}{}{}".format, st.sampled_from("OU"),
                    st.integers(0, 10 ** 640 - 1) | st.integers(0, 999), st.sampled_from("+-"))
crossing = st.builds("O{0}{1} U{0}{1}".format, st.integers(1, 10 ** 640 - 1),
                     st.sampled_from("+-"))
gauss_token = st.sampled_from(TOKENS) | passage | crossing


@st.composite
def mutated(draw, texts, tokens):
    """One of ``texts`` with up to four tokens, drawn from the strategy
    ``tokens``, replaced, inserted or deleted."""
    words = draw(st.sampled_from(texts)).replace("\n", " \n ").split(" ")
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(words)))
        token = draw(tokens)
        action = draw(st.sampled_from(("replace", "insert", "delete")))
        if action == "insert":
            words.insert(at, token)
        elif at < len(words):
            if action == "replace":
                words[at] = token
            else:
                del words[at]
    return " ".join(words).replace(" \n ", "\n")


@st.composite
def group_csv(draw):
    """A built-in group's table with up to three entries or rows changed."""
    rows = [[str(x) for x in row] for row in draw(st.sampled_from(TABLES))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(("entry", "drop-entry", "drop-row", "add-row")))
        if action == "entry":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(
                st.sampled_from(ENTRIES) | three_digits.map(str))
        elif action == "drop-entry" and len(rows[i]) > 1:
            del rows[i][-1]
        elif action == "drop-row" and len(rows) > 1:
            del rows[i]
        elif action == "add-row":
            rows.insert(i, list(rows[i]))
    return "\n".join(",".join(row) for row in rows) + "\n"


def move_kinds(n):
    name = st.sampled_from(MOVE_NAMES) | st.builds(
        "{}:{}".format, st.sampled_from(PARAMETRIC), n)
    return st.lists(name, max_size=4).map(",".join)


example_name = st.sampled_from(FIXED_EXAMPLES) | st.builds(
    "unlink-{}".format, three_digits) | st.builds(
    "{}:{}".format, st.sampled_from(["h-closure", "hbar-closure"]),
    st.lists(st.integers(-3, 999), min_size=3, max_size=5).map(
        lambda xs: ",".join(map(str, xs))))

# each command with its options drawn; "{G}" and "{H}" are Gauss files,
# "{A}" an arrows file, "{T}" a group table and "{O}" an output path
num = st.integers(-3, 999).map(str)
commands = st.one_of(
    st.tuples(st.just("invariants"), st.just("{G}"), st.just("--kmax"), small.map(str)),
    st.tuples(st.just("equiv"), st.just("{G}"), st.just("{H}"), st.just("--relation"),
              st.sampled_from(["vn", "vn-uc", "v"]), st.just("--n"), num,
              st.sampled_from(["--any-order", "--json"])),
    st.tuples(st.just("obstruct"), st.just("{G}"), st.just("{H}"), st.just("--n"),
              st.integers(-3, 99).map(str), st.just("--kmax"), small.map(str)),
    st.tuples(st.just("normal-form"), st.sampled_from(["{G}", "{A}"]), st.just("--relation"),
              st.sampled_from(["vn", "vn-uc"]), st.just("--n"), num, st.just("--json")),
    st.tuples(st.just("multiplex"), st.just("{G}"), st.just("--m"),
              st.lists(st.integers(-3, 5).map(str), max_size=4).map(",".join),
              st.just("-o"), st.just("{O}")),
    st.tuples(st.just("scramble"), st.just("{G}"), st.just("--moves"), move_kinds(small),
              st.just("--steps"), st.integers(-3, 40).map(str), st.just("--seed"), num),
    st.tuples(st.just("moves"), st.just("{G}"), st.just("--moves"), move_kinds(three_digits),
              st.just("--json")),
    st.tuples(st.just("homs"), st.just("{G}"), st.just("--group"),
              st.sampled_from(["z2", "Z6", "s3", "d4", "q8", "z13", "z0", "d2", "s5", "x",
                               "table:{T}", "table:{O}", "table:"]),
              st.just("--presentation"), st.sampled_from(["welded", "core"])),
    st.tuples(st.just("colorings"), st.just("{G}"), st.just("--n"), num),
    st.tuples(st.just("examples"), example_name),
    st.tuples(st.just("examples")),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(argv=commands, gauss=mutated(GAUSS, gauss_token), other=mutated(GAUSS, gauss_token),
       arrows=mutated(ARROWS, st.sampled_from(TOKENS)), table=group_csv(),
       drop=st.integers(0, 30))
def test_cli_exits_0_1_or_2_with_one_error_line(argv, gauss, other, arrows, table, drop):
    with tempfile.TemporaryDirectory() as folder:
        paths = {key: os.path.join(folder, name) for key, name in
                 (("G", "g.gc"), ("H", "h.gc"), ("A", "a.arrows"), ("T", "t.csv"),
                  ("O", "out.gc"))}
        for key, text in (("G", gauss), ("H", other), ("A", arrows), ("T", table)):
            with open(paths[key], "w") as fh:
                fh.write(text)
        argv = [arg.format(**paths) for arg in argv]
        # dropping an argument makes most commands a usage error
        if 0 < drop < len(argv):
            del argv[drop]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), time_limit(10):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
