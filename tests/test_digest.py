"""``digest.py`` on a tiny corpus: two runs, one of them in a fresh process
on this checkout's ``src/`` as ``--against`` runs it, give equal digests."""

import digest


def test_tiny_corpus_digests_agree_across_two_runs(capsys):
    assert digest.main(["--seed", "5", "--count", "3", "--against", str(digest.ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "digests equal"
    got = digest.digests(digest.records(5, 3))
    assert list(got) == list(digest.AREAS) and min(n for _, n in got.values()) > 10
    assert [line.split()[:3] for line in lines[:-1:2]] == [
        [area, sha, str(n)] for area, (sha, n) in got.items()]
