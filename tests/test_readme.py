"""The README's examples run and give the values it states."""

import json
import pathlib
import re

from wld.algebra import parse_poly
from wld.arrows import parse_presentation, serialize_presentation
from wld.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block_after(heading, fence):
    """The first ``fence`` code block after the line holding ``heading``."""
    start = README.index(heading)
    match = re.compile(rf"^```{fence}\n(.*?)^```$", re.M | re.S).search(README, start)
    return match[1]


def test_library_sketch_gives_its_commented_values():
    namespace = {}
    exec(_block_after("## Library sketch", "python"), namespace)
    assert namespace["delta"] == parse_poly("1 - t + t^2")
    lam = namespace["lam"]
    assert (lam[0][1], lam[1][0]) == (3, 0)


def test_arrows_example_round_trips_and_has_a_normal_form(tmp_path, capsys):
    text = _block_after("Arrow presentations use an `arrows` header", "")
    assert text.startswith("arrows\n")
    assert serialize_presentation(parse_presentation(text)) == text
    path = tmp_path / "example.arrows"
    path.write_text(text)
    assert main(["normal-form", str(path), "--relation", "vn", "--n", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"relation": "vn", "n": 3,
                                                   "a": {"1,2": 1}}
