import json
import random
import sys

import pytest

from wld.cli import main
from wld.classify import named
from wld.diagram import LINK, STRING_LINK, closure, parse, random_diagram, serialize
from wld.invariants import (abelianization, coloring_count, core_group, hom_count,
                            welded_group, builtin_group)
from wld.moves import (EXPAND, directed_kinds, find_sites, make_kind,
                       parse_kinds, scramble)

from support import run_fresh, time_limit

ENUMERATE_KINDS = "r1,r2,r3,oc,uc,v,v(n):2,v(n):3,v^n:3,vbar(n):3,vbar^n:3"
# scramble kinds that only add crossings (or keep their number)
GROW = [make_kind("r1", direction=EXPAND), make_kind("r2", direction=EXPAND),
        make_kind("r3"), make_kind("oc"), make_kind("v^n", 3, EXPAND),
        make_kind("v(n)", 3, EXPAND)]


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.gc"
    path.write_text(serialize(named("trefoil")))
    return str(path)


@pytest.fixture
def unknot_file(tmp_path):
    path = tmp_path / "unknot.gc"
    path.write_text(serialize(named("unknot")))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariants_json(capsys, trefoil_file):
    code, doc = run_json(capsys, ["invariants", trefoil_file, "--json"])
    assert code == 0
    assert doc["alexander"]["1"] == "1 - t + t^2"
    assert doc["mu"] == 1 and doc["crossings"] == 3
    assert doc["colorings"]["3"] == 9


def test_invariants_abelianizations_and_colorings_match_the_library(capsys, tmp_path):
    # the CLI prints (mu, ()) for the welded group and reads the colorings
    # off its one core abelianization
    rng = random.Random(44)
    path = tmp_path / "d.gc"
    for _ in range(30):
        d = random_diagram(rng, max_crossings=8, max_mu=3,
                           kind=rng.choice((LINK, STRING_LINK)))
        path.write_text(serialize(d))
        code, doc = run_json(capsys, ["invariants", str(path), "--kmax", "0", "--json"])
        closed = closure(d) if d.kind == STRING_LINK else d
        for key, build in (("welded_abelianization", welded_group),
                           ("core_abelianization", core_group)):
            rank, torsion = abelianization(build(closed))
            assert doc[key] == {"rank": rank, "torsion": list(torsion)}
        assert doc["colorings"] == {str(n): coloring_count(closed, n) for n in range(2, 8)}


def test_invariants_json_deterministic(capsys, trefoil_file):
    main(["invariants", trefoil_file, "--json"])
    first = capsys.readouterr().out
    main(["invariants", trefoil_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_equiv_vn_even(capsys, trefoil_file, unknot_file):
    code, doc = run_json(capsys, ["equiv", trefoil_file, unknot_file,
                                  "--relation", "vn", "--n", "2", "--json"])
    assert code == 0 and doc["verdict"] == "equivalent"


def test_equiv_vn_uc(capsys, trefoil_file, unknot_file):
    code, doc = run_json(capsys, ["equiv", trefoil_file, unknot_file,
                                  "--relation", "vn-uc", "--n", "3", "--json"])
    assert code == 0 and doc["verdict"] == "equivalent"


def test_obstruct(capsys, trefoil_file, unknot_file):
    code, doc = run_json(capsys, ["obstruct", trefoil_file, unknot_file,
                                  "--n", "2", "--kmax", "1", "--json"])
    assert code == 0 and doc["obstruction_k"] == 1


def test_obstruct_inconclusive(capsys, trefoil_file):
    code, doc = run_json(capsys, ["obstruct", trefoil_file, trefoil_file,
                                  "--n", "2", "--json"])
    assert code == 0 and doc["verdict"] == "inconclusive"


def test_normal_form(capsys, tmp_path):
    path = tmp_path / "hopf.gc"
    path.write_text("stringlink\ncomponent: O1+ U2+\ncomponent: U1+ O2+\n")
    code, doc = run_json(capsys, ["normal-form", str(path),
                                  "--relation", "vn", "--n", "3", "--json"])
    assert code == 0 and doc["a"]["1,2"] == 2
    code, doc = run_json(capsys, ["normal-form", str(path),
                                  "--relation", "vn-uc", "--n", "2", "--json"])
    assert code == 0 and doc["a"]["1,2"] == 1 and doc["b"]["1,2"] == 1


def test_normal_form_arrows_file(capsys, tmp_path):
    path = tmp_path / "h.arr"
    path.write_text("arrows\nstringlink\ncomponent:\ncomponent:\n"
                    "arrow: 1.1 2.1 +\narrow: 1.2 2.2 +\n")
    code, doc = run_json(capsys, ["normal-form", str(path),
                                  "--relation", "vn", "--n", "3", "--json"])
    assert code == 0 and doc["a"]["1,2"] == 2


def test_normal_form_arrows_file_after_a_comment(capsys, tmp_path):
    # the format is named by the first line that is neither blank nor a
    # comment, as parse_presentation reads it
    path = tmp_path / "h.arr"
    path.write_text("# two arrows\n\narrows\nstringlink\ncomponent:\ncomponent:\n"
                    "arrow: 1.1 2.1 +\narrow: 1.2 2.2 +\n")
    code, doc = run_json(capsys, ["normal-form", str(path),
                                  "--relation", "vn", "--n", "3", "--json"])
    assert code == 0 and doc["a"]["1,2"] == 2


def test_multiplex_output(capsys, trefoil_file):
    code = main(["multiplex", trefoil_file, "--m", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse(out).crossing_count == 6


def test_scramble_deterministic_bytes(capsys, trefoil_file):
    argv = ["scramble", trefoil_file, "--moves", "r1,r2,oc", "--steps", "20",
            "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    expected = scramble(named("trefoil"),
                        [make_kind("r1"), make_kind("r2"), make_kind("oc")], 20, 9)
    assert parse(first) == expected


def test_moves_counts(capsys, trefoil_file):
    code, doc = run_json(capsys, ["moves", trefoil_file, "--moves", "v,r1", "--json"])
    assert code == 0
    assert doc["v reduce"] == 3


def test_moves_counts_equal_found_sites(capsys, tmp_path):
    d = scramble(named("hopf+"), GROW, 8, 3)
    path = tmp_path / "d.gc"
    path.write_text(serialize(d))
    code, doc = run_json(capsys, ["moves", str(path), "--moves", ENUMERATE_KINDS, "--json"])
    assert code == 0
    expected = {str(dk): len(find_sites(d, dk))
                for kind in parse_kinds(ENUMERATE_KINDS) for dk in directed_kinds(kind)}
    assert doc == expected and len(doc) == 19 and doc["v expand"] > 1000


def test_moves_counts_at_203_crossings_within_budget(capsys, tmp_path):
    # listing every expand site here builds nearly 3 million of them
    d = scramble(named("h-closure:3,1,2,2"), GROW, 150, 5)
    assert d.crossing_count == 203
    path = tmp_path / "d.gc"
    path.write_text(serialize(d))
    with time_limit(2):
        code, doc = run_json(capsys, ["moves", str(path), "--moves",
                                      "r1,r2,r3,oc,uc,v,v(n):3,v^n:3,vbar(n):3,vbar^n:3",
                                      "--json"])
    assert code == 0
    # every component is a nonempty link component: one gap per passage
    gaps = 2 * d.crossing_count
    assert doc["v expand"] == doc["v^3 expand"] == 2 * gaps ** 2
    assert doc["r2 expand"] == doc["v(3) expand"] == 4 * gaps ** 2
    assert doc["r1 expand"] == 4 * gaps


def test_homs_matches_library(capsys, trefoil_file):
    code, doc = run_json(capsys, ["homs", trefoil_file, "--group", "s3", "--json"])
    assert code == 0
    assert doc["count"] == hom_count(welded_group(named("trefoil")),
                                     builtin_group("s3"))


def test_homs_of_a_large_unlink(capsys, tmp_path):
    # every generator is free: no backtracking, so no recursion 1500 deep
    path = tmp_path / "unlink-1500.gc"
    path.write_text(serialize(named("unlink-1500")))
    code, doc = run_json(capsys, ["homs", str(path), "--group", "z2", "--json"])
    assert code == 0 and doc["count"] == 2 ** 1500


def test_homs_core_and_table(capsys, trefoil_file, tmp_path):
    table = tmp_path / "z3.csv"
    table.write_text("0,1,2\n1,2,0\n2,0,1\n")
    code, doc = run_json(capsys, ["homs", trefoil_file, "--group",
                                  f"table:{table}", "--presentation", "core",
                                  "--json"])
    assert code == 0 and doc["count"] == 9


@pytest.mark.parametrize("argv, digits", [
    (["colorings", "{unlink_600}", "--n", "100000000"], 4800),
    (["colorings", "{unlink_600}", "--n", "100000000", "--json"], 4800),
    (["homs", "{unlink_4400}", "--group", "z10", "--json"], 4400),
], ids=["colorings-10^4800", "colorings-10^4800-json", "homs-10^4400-json"])
def test_counts_over_4300_digits_print_exactly(capsys, tmp_path, argv, digits):
    # CPython turns at most 4300 digits into text by default; the CLI lifts
    # that limit only while it formats its output, and then restores it
    paths = {}
    for k in (600, 4400):
        paths[f"unlink_{k}"] = path = tmp_path / f"unlink-{k}.gc"
        path.write_text(serialize(named(f"unlink-{k}")))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main([arg.format(**paths) for arg in argv]) == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    count = json.loads(out, parse_int=str)["count"] if "--json" in argv else out.split()[-1]
    assert count == "1" + "0" * digits


def test_colorings(capsys, trefoil_file):
    code, doc = run_json(capsys, ["colorings", trefoil_file, "--n", "3", "--json"])
    assert code == 0
    assert doc["count"] == coloring_count(named("trefoil"), 3)


def test_examples_listing_and_output(capsys, tmp_path):
    code = main(["examples"])
    out = capsys.readouterr().out
    assert code == 0 and "trefoil" in out
    dest = tmp_path / "t.gc"
    assert main(["examples", "trefoil", "-o", str(dest)]) == 0
    assert parse(dest.read_text()) == named("trefoil")


def test_missing_file_is_domain_error(capsys):
    assert main(["invariants", "/nonexistent/file.gc"]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.gc"
    path.write_text("component: O1+\ncomponent: Q2+\n")
    assert main(["invariants", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_usage_error_exit_code(trefoil_file):
    with pytest.raises(SystemExit) as err:
        main(["equiv", trefoil_file, trefoil_file, "--relation", "bogus", "--n", "2"])
    assert err.value.code == 2


def test_unknown_example_name(capsys):
    assert main(["examples", "not-a-knot"]) == 1


def test_readme_command_walkthrough(tmp_path, capsys):
    tre = tmp_path / "trefoil.gc"
    unk = tmp_path / "unknot.gc"
    sl = tmp_path / "stringlink.gc"
    assert main(["examples", "trefoil", "-o", str(tre)]) == 0
    assert main(["examples", "unknot", "-o", str(unk)]) == 0
    sl.write_text("stringlink\ncomponent: O1+ U2+\ncomponent: U1+ O2+\n")
    commands = [
        ["invariants", str(tre), "--json"],
        ["equiv", str(tre), str(unk), "--relation", "vn", "--n", "3"],
        ["equiv", str(tre), str(unk), "--relation", "vn-uc", "--n", "2"],
        ["obstruct", str(tre), str(unk), "--n", "2", "--kmax", "1"],
        ["normal-form", str(sl), "--relation", "vn", "--n", "3"],
        ["multiplex", str(tre), "--m", "2"],
        ["scramble", str(tre), "--moves", "r1,r2,r3,oc", "--steps", "50", "--seed", "7"],
        ["moves", str(tre), "--moves", "v,r1", "--json"],
        ["homs", str(tre), "--group", "s3", "--presentation", "core"],
        ["colorings", str(tre), "--n", "3"],
        ["examples"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_scramble_to_an_id_too_long_to_write_out_fails_and_writes_nothing(capsys, tmp_path):
    # seed 1 draws an R1 expansion, whose fresh crossing would be 10^640
    src, dst = tmp_path / "nines.gc", tmp_path / "out.gc"
    src.write_text(f"component: O{'9' * 640}+ U{'9' * 640}+\n")
    argv = ["scramble", str(src), "--moves", "r1", "--steps", "1", "--seed", "1",
            "-o", str(dst)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: crossing ids must be below 10^640\n"
    assert not dst.exists()


def test_python_m_wld_reads_the_files_it_writes(tmp_path):
    # each command reads the file the one before it wrote
    tre, mixed = str(tmp_path / "trefoil.gc"), str(tmp_path / "scrambled.gc")
    steps = [["examples", "trefoil", "-o", tre],
             ["scramble", tre, "--moves", "r1,r2,r3,oc", "--steps", "20", "--seed", "3",
              "-o", mixed],
             ["invariants", mixed, "--json"],
             ["obstruct", mixed, tre, "--n", "2", "--kmax", "1"]]
    outs = []
    for argv in steps:
        code, out, err = run_fresh(argv)
        assert (code, err) == (0, ""), argv
        outs.append(out)
    doc = json.loads(outs[2])
    assert doc["alexander"]["1"] == "1 - t + t^2" and doc["colorings"]["3"] == 9
    assert outs[3] == "vn-only n=2: inconclusive (no ideal obstruction up to k=1)\n"


@pytest.mark.parametrize("argv, fragment", [
    (["normal-form", "{missing}", "--relation", "vn", "--n", "3"],
     "cannot read {missing}"),
    (["homs", "{trefoil}", "--group", "table:{missing}"], "cannot read {missing}"),
    (["scramble", "{trefoil}", "--moves", "r1", "--steps", "1", "--seed", "1",
      "-o", "{unwritable}"], ""),
    (["examples", "trefoil", "-o", "{unwritable}"], ""),
    (["multiplex", "{trefoil}", "--m", "2", "-o", "{unwritable}"], ""),
    (["invariants", "{trefoil}", "--kmax", "-1"], ""),
    (["normal-form", "{bad_arrow_sign}", "--relation", "vn", "--n", "3"],
     "{bad_arrow_sign}: line 5: bad arrow line"),
    (["homs", "{trefoil}", "--group", "table:{bad_table}"], "{bad_table}: line 2: "),
    (["homs", "{hopf_chain}", "--group", "s3"], "generators is too deep"),
    # a content error names its file, and a Gauss or arrows error the
    # file's own line
    (["normal-form", "{bad_arrow_base}", "--relation", "vn", "--n", "3"],
     "error: {bad_arrow_base}: line 7: unknown token 'X'"),
    (["homs", "{trefoil}", "--group", "table:{empty_table}"],
     "error: {empty_table}: table must be square and nonempty"),
    (["homs", "{trefoil}", "--group", "table:{ragged_table}"],
     "error: {ragged_table}: table must be square and nonempty"),
    (["homs", "{trefoil}", "--group", "table:{no_inverse_table}"],
     "error: {no_inverse_table}: element 1 has no inverse"),
    (["equiv", "{trefoil}", "{bad_gauss}", "--relation", "vn", "--n", "3"],
     "error: {bad_gauss}: line 2: unknown token 'Q2+'"),
    # a diagram validation error names the line of the crossing's last passage
    (["invariants", "{two_overs}"],
     "error: {two_overs}: line 3: crossing 1 must appear exactly once over and once under"),
    (["invariants", "{mixed_signs}"], "error: {mixed_signs}: line 2: crossing 1 has mismatched signs"),
    (["invariants", "{three_times}"],
     "error: {three_times}: line 3: crossing 1 appears 3 times, expected 2"),
    (["invariants", "{glued}"], "error: {glued}: line 1: unknown token 'O1+U1+'"),
    (["invariants", "{id_00}"], "error: {id_00}: line 2: unknown token 'O00+'"),
    (["invariants", "{after_valid}"],
     "error: {after_valid}: line 2: crossing 3 must appear exactly once over and once under"),
    (["colorings", "{trefoil}", "--n", "0"], "error: modulus n must be >= 1, got 0"),
    (["colorings", "{trefoil}", "--n", "-3"], "error: modulus n must be >= 1, got -3"),
    (["equiv", "{trefoil}", "{trefoil}", "--relation", "vn", "--n", "0"],
     "error: modulus n must be >= 1, got 0"),
    (["obstruct", "{trefoil}", "{trefoil}", "--n", "-1"], "error: modulus n must be >= 1, got -1"),
    (["normal-form", "{trefoil}", "--relation", "vn-uc", "--n", "0"],
     "error: modulus n must be >= 1, got 0"),
], ids=["normal-form-read", "group-table-read", "scramble-write",
        "examples-write", "multiplex-write", "invariants-negative-kmax",
        "arrow-sign-plus-minus", "group-table-entry", "homs-too-deep",
        "arrows-base-line", "group-table-empty", "group-table-not-square",
        "group-table-no-inverse", "equiv-right-file", "gauss-two-overs-line",
        "gauss-mixed-signs-line", "gauss-three-times-line", "gauss-glued-tokens",
        "gauss-id-00", "gauss-pairing-after-a-valid-line", "colorings-n-0",
        "colorings-n-negative", "equiv-n-0", "obstruct-n-negative", "normal-form-n-0"])
def test_file_errors_exit_1_with_one_error_line(capsys, tmp_path, trefoil_file, argv,
                                                fragment):
    bad_arrow_sign = tmp_path / "bad-sign.arrows"
    bad_arrow_sign.write_text("arrows\nstringlink\ncomponent:\ncomponent:\narrow: 1.1 2.1 +-\n")
    bad_arrow_base = tmp_path / "bad-base.arrows"
    bad_arrow_base.write_text("arrows\nstringlink\ncomponent:\narrow: 1.1 2.1 +\n"
                              "arrow: 1.2 1.1 -\ncomponent:\ncomponent: X\n")
    bad_gauss = tmp_path / "bad.gc"
    bad_gauss.write_text("component: O1+\ncomponent: Q2+\n")
    # crossing 1 twice over, with both signs, and three times; two tokens
    # glued, an id of 00, and crossing 3 left unpaired after a whole line
    gauss = {"two_overs": "component: O1+ U2+\n# the other\ncomponent: O2+ O1+\n",
             "mixed_signs": "component: O1+\ncomponent: U1-\n",
             "three_times": "component: O1+ U1+\n\ncomponent: U1+\n",
             "glued": "component: O1+U1+\n",
             "id_00": "component: O1+ U1+\ncomponent: O00+ U00+\n",
             "after_valid": "component: O1+ U1+\ncomponent: O2+ U3+\n# the last\ncomponent: U2+\n"}
    for name, text in gauss.items():
        (tmp_path / f"{name}.gc").write_text(text)
    tables = {"bad_table": "0,1\n1,x\n", "empty_table": "", "ragged_table": "0,1\n1\n",
              "no_inverse_table": "0,1\n1,1\n"}
    for name, text in tables.items():
        (tmp_path / f"{name}.csv").write_text(text)
    # 1100 components, each clasping the next as in the Hopf link: one part
    # of the homomorphism search, deeper than the interpreter can recurse
    hopf_chain = tmp_path / "hopf-chain.gc"
    hopf_chain.write_text("".join(
        "component:" + (f" U{2 * k - 1}+ O{2 * k}+" if k else "")
        + (f" O{2 * k + 1}+ U{2 * k + 2}+" if k < 1099 else "") + "\n"
        for k in range(1100)))
    paths = {"missing": str(tmp_path / "missing.gc"), "trefoil": trefoil_file,
             "unwritable": str(tmp_path / "no-such-dir" / "x.gc"),
             "bad_arrow_sign": str(bad_arrow_sign), "bad_arrow_base": str(bad_arrow_base),
             "bad_gauss": str(bad_gauss), "hopf_chain": str(hopf_chain),
             **{name: str(tmp_path / f"{name}.csv") for name in tables},
             **{name: str(tmp_path / f"{name}.gc") for name in gauss}}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert fragment.format(**paths) in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
