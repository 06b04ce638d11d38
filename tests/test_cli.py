import json

import pytest

from wld.cli import main
from wld.classify import named
from wld.diagram import parse, serialize
from wld.invariants import coloring_count, hom_count, welded_group, builtin_group
from wld.moves import make_kind, scramble


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


def test_homs_matches_library(capsys, trefoil_file):
    code, doc = run_json(capsys, ["homs", trefoil_file, "--group", "s3", "--json"])
    assert code == 0
    assert doc["count"] == hom_count(welded_group(named("trefoil")),
                                     builtin_group("s3"))


def test_homs_core_and_table(capsys, trefoil_file, tmp_path):
    table = tmp_path / "z3.csv"
    table.write_text("0,1,2\n1,2,0\n2,0,1\n")
    code, doc = run_json(capsys, ["homs", trefoil_file, "--group",
                                  f"table:{table}", "--presentation", "core",
                                  "--json"])
    assert code == 0 and doc["count"] == 9


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


@pytest.mark.parametrize("argv", [
    ["normal-form", "{missing}", "--relation", "vn", "--n", "3"],
    ["homs", "{trefoil}", "--group", "table:{missing}"],
    ["scramble", "{trefoil}", "--moves", "r1", "--steps", "1", "--seed", "1",
     "-o", "{unwritable}"],
    ["examples", "trefoil", "-o", "{unwritable}"],
    ["multiplex", "{trefoil}", "--m", "2", "-o", "{unwritable}"],
], ids=["normal-form-read", "group-table-read", "scramble-write",
        "examples-write", "multiplex-write"])
def test_file_errors_exit_1_with_one_error_line(capsys, tmp_path, trefoil_file, argv):
    paths = {"missing": str(tmp_path / "missing.gc"), "trefoil": trefoil_file,
             "unwritable": str(tmp_path / "no-such-dir" / "x.gc")}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
