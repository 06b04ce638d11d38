"""Mutation records: each names a contract by a small change that breaks it
and the tests that must then fail, or says why the change survives them.

Run from the repository root:

    python tests/mutants.py

For each record the script copies ``src/`` into a temporary directory,
replaces the record's old text (which must occur exactly once in its file)
by the new text, and runs the record's tests against the copy in a fresh
``pytest`` process.  A killed record needs every one of its tests to fail,
a surviving one every one to pass.  The script prints one line per record
and exits 1 if any outcome differs from its record.  Pytest does not collect
this file; ``test_mutants.py`` checks that every old text occurs exactly
once.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# a mutation may make a test allocate without bound, as a kmax cap taken
# out does; the test then fails on memory instead of taking the machine's
MEMORY_BYTES = 2 << 30


class Mutant(NamedTuple):
    file: str            # under src/wld
    old: str             # occurs exactly once in the file
    new: str
    tests: tuple         # pytest node ids, from the repository root
    survives: str = ""   # empty: every test must fail; else why all pass


DIAGRAM, CLI = "tests/test_diagram.py", "tests/test_cli.py"
MOVES, GOLDEN = "tests/test_moves.py", "tests/test_moves_golden.py"
PAIR_WALK = f"{MOVES}::test_pair_finders_match_the_pair_walk"
FINDERS = f"{MOVES}::test_finders_list_exactly_the_sites_apply_accepts"
ONE_RULE = f"{DIAGRAM}::test_one_rule_checks_passages_built_removed_and_added"
CLI_ERRORS = f"{CLI}::test_file_errors_exit_1_with_one_error_line"
HOMS = ("tests/test_hom_symmetry.py", "tests/test_hom_routes.py")
EXHAUSTIVE = ("tests/test_hom_symmetry.py::"
              "test_hom_count_against_exhaustive_on_up_to_three_components")

MUTANTS = [
    # the pairing rule
    Mutant("diagram.py", "        if cid >= ID_BOUND:\n", "        if False:\n",
           (f"{ONE_RULE}[id-10^640]",
            f"{DIAGRAM}::test_stack_rejects_ids_too_long_to_write_out")),
    Mutant("diagram.py", "    if over == under and 2 * len(over) == len(passages):\n",
           "    if over == under:\n",
           (f"{DIAGRAM}::test_diagram_rejection_messages[appears-three-times]",
            f"{CLI_ERRORS}[gauss-three-times-line]")),
    Mutant("diagram.py", "        if not isinstance(cid, int) or isinstance(cid, bool):\n",
           "        if False:\n",
           (f"{ONE_RULE}[id-bool]", f"{ONE_RULE}[id-float]", f"{ONE_RULE}[id-str]")),
    Mutant("diagram.py",
           "        if sign not in (1, -1) or not isinstance(sign, int)"
           " or isinstance(sign, bool):\n",
           "        if sign not in (1, -1):\n",
           (f"{ONE_RULE}[sign-float]", f"{ONE_RULE}[sign-bool]")),
    # parse names the line of a crossing's last passage from its record
    Mutant("diagram.py", "        lines.append(lineno)\n", "        lines.append(1)\n",
           (f"{CLI_ERRORS}[gauss-two-overs-line]", f"{CLI_ERRORS}[gauss-mixed-signs-line]")),
    # the one modulus check
    Mutant("invariants.py", "    cyclic_ring(n)\n    return _abelian_hom_count(ab, n",
           "    return _abelian_hom_count(ab, n",
           (f"{CLI_ERRORS}[colorings-n-0]", f"{CLI_ERRORS}[colorings-n-negative]")),
    Mutant("classify.py", "    cyclic_ring(n)\n", "",
           ("tests/test_classify.py::test_every_decision_and_normal_form_checks_n_by_the_one"
            "_modulus_rule[0]", f"{CLI_ERRORS}[equiv-n-0]")),
    # hom_count: the conjugation symmetry's flag and weight
    Mutant("invariants.py", "search(part, level + 1, central and size[val] == 1)",
           "search(part, level + 1, central)",
           (EXHAUSTIVE,)),
    Mutant("invariants.py", "total += size[val] * found if central else found",
           "total += found", (EXHAUSTIVE,)),
    # either symmetry off: same counts, only slower
    Mutant("invariants.py", "return search(part, 0, True)\n            assign[part[0]] = ident\n"
           "            return group.order * search(part, 1, True)",
           "return search(part, 0, False)\n            assign[part[0]] = ident\n"
           "            return group.order * search(part, 1, False)",
           HOMS, survives="the conjugation symmetry only cuts the search"),
    Mutant("invariants.py", "            if _root(root, part[0]) in rigid:\n",
           "            if True:\n",
           HOMS, survives="right translation only cuts the search"),
    # the block finder keeps what the block matcher accepts
    Mutant("moves.py",
           "    return [site for site in sites if _block_at(d, site, block) is not None]\n",
           "    return sites\n",
           (FINDERS, f"{GOLDEN}::test_find_sites_match_golden_lists")),
    # obstruct_vn reads no k past the arc count
    Mutant("classify.py",
           "    top = min(kmax, max(d.crossing_count + d.mu for d in (left, right)))\n",
           "    top = kmax\n",
           ("tests/test_classify.py::test_obstruct_reads_no_k_past_the_arc_count",)),
    # R1, OC and UC sites from id lists and role strings: the wrap pair of a
    # link component, and no pair past the pair count
    Mutant("moves.py", "_starts(text + text[:wrap], word)", "_starts(text, word)",
           (PAIR_WALK, FINDERS)),
    Mutant("moves.py", "word) if p < count]", "word) if p <= count]", (PAIR_WALK,)),
    # a scramble step lists a kind's sites once, on the diagram it moves
    Mutant("moves.py", "    for _ in range(steps):\n        listed = {}",
           "    listed = {}\n    for _ in range(steps):\n        pass",
           (f"{GOLDEN}::test_scramble_matches_golden_outputs",)),
    # a site the matcher finds nothing at raises MoveError, not the action's error
    Mutant("moves.py", "    if found is None:\n        raise MoveError(f\"site {site} does not fit",
           "    if False:\n        raise MoveError(f\"site {site} does not fit",
           (f"{MOVES}::test_apply_rejects_bad_site",
            f"{MOVES}::test_reduce_rejects_positions_find_sites_does_not_list", FINDERS)),
    # Tietze: an entry waiting on blocked generators goes back on the heap
    Mutant("invariants.py", "            for entry in waiting:\n                push(heap, entry)\n",
           "            for entry in waiting:\n                pass\n",
           ("tests/test_tietze_differential.py::test_indexed_simplification_matches_the_rescan",)),
    # Alexander runs: a rename needs t^sigma = 1 or y at x or z
    Mutant("invariants.py", "            if not sigmas[i] or y == x or y == z:\n",
           "            if not sigmas[i] or y == x or y == z or sigmas[i] == 1:\n",
           ("tests/test_invariants.py::test_alexander_rows_are_fox_rows_times_a_unit",
            "tests/test_invariants.py::test_crossing_arcs_and_alexander_rows_match_run_reference")),
    # Diagram.moved checks that the removed passages pair up
    Mutant("diagram.py", "        _check_whole(removed)\n", "",
           (f"{DIAGRAM}::test_moved_checks_what_the_move_changed",
            f"{MOVES}::test_apply_raises_when_an_action_drops_one_passage_too_many")),
    # the CLI puts Python's digit limit back after formatting
    Mutant("cli.py", "        sys.set_int_max_str_digits(limit)\n", "        pass\n",
           (f"{CLI}::test_counts_over_4300_digits_print_exactly[colorings-10^4800]",)),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _passes(src, test):
    """Whether ``test`` passes against the package in ``src``."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", test],
        cwd=ROOT, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        preexec_fn=_limit_memory)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode} on {test}:\n"
                           f"{done.stdout}{done.stderr}")
    return done.returncode == 0


def outcome(mutant):
    """'killed' if every test fails on the mutated copy, 'survives' if every
    one passes, else the tests that passed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "wld" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        passed = [test for test in mutant.tests if _passes(src, test)]
    if not passed:
        return "killed"
    return "survives" if len(passed) == len(mutant.tests) else f"passed {passed}"


def main():
    wrong = 0
    for mutant in MUTANTS:
        got = outcome(mutant)
        want = "survives" if mutant.survives else "killed"
        wrong += got != want
        print(f"{'ok ' if got == want else 'BAD'} {mutant.file}: {mutant.old.strip()[:60]!r}"
              f" -> {got} (want {want})", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} as recorded")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
