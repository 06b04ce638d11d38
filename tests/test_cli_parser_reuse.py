"""The CLI parser is built once per process; reusing it must leak nothing
from one ``main`` call into the next."""

from support import run_fresh
from wld.classify import named
from wld.cli import main
from wld.diagram import serialize


def run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_reuse_leaks_nothing(capsys, tmp_path):
    path = tmp_path / "trefoil.gc"
    path.write_text(serialize(named("trefoil")))
    trefoil = str(path)
    calls = [
        ["homs", trefoil, "--group", "s3", "--json"],
        ["homs", trefoil, "--group", "s3"],
        ["homs", trefoil, "--group", "s3", "--presentation", "bogus"],
        ["obstruct", trefoil, trefoil, "--n", "2", "--kmax", "1"],
        ["obstruct", trefoil, trefoil, "--n", "2"],
    ]
    got = [run_in_process(capsys, argv) for argv in calls]
    assert [code for code, _, _ in got] == [0, 0, 2, 0, 0]
    assert "k=3" in got[-1][1]
    for argv, result in zip(calls, got):
        assert result == run_fresh(argv), argv
