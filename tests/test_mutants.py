"""Each mutation record of ``mutants.py`` still names text that occurs
exactly once in its file, so that running the records mutates what they
say."""

from mutants import MUTANTS, SRC


def test_each_mutant_text_occurs_exactly_once_in_its_file():
    counts = [(m.file, m.old, (SRC / "wld" / m.file).read_text().count(m.old)) for m in MUTANTS]
    assert [c for c in counts if c[2] != 1] == []
