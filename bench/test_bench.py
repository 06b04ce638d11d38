"""Checks of the benchmark's own references and tracing.

The workloads check scrambled inputs against answers computed on small base
diagrams; these tests check those base answers against the brute-force
oracles of the test suite.  Run with ``pytest bench``.
"""

import gzip
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from wld import (linking_matrix, named, parse_kinds, random_diagram,  # noqa: E402
                 same_diagram, scramble, serialize)
from wld.algebra import ideal_mod  # noqa: E402
from wld.classify import decide_vn  # noqa: E402
from wld.invariants import builtin_group, core_group, welded_group  # noqa: E402


def test_obstruct_references_match_bruteforce_ideals():
    bases = workloads.OBSTRUCT_BASES
    lattices = {}
    for name in bases:
        for k in range(workloads.OBSTRUCT_KMAX + 1):
            gens = oracles.elementary_ideal_bruteforce(named(name), k)
            for n in (3, 5):
                lattices[(name, k, n)] = [list(r) for r in ideal_mod(gens, n).basis]
    for left in bases:
        for right in bases:
            for n in (3, 5):
                want = next(((k, lattices[(left, k, n)], lattices[(right, k, n)])
                             for k in range(workloads.OBSTRUCT_KMAX + 1)
                             if lattices[(left, k, n)] != lattices[(right, k, n)]), None)
                assert workloads.lattice_verdict((left, right, n)) == want


def test_equiv_reference_matches_decisions():
    rng = random.Random(7)
    for _ in range(100):
        left = random_diagram(rng, max_crossings=10, max_mu=3)
        right = random_diagram(rng, max_crossings=10, max_mu=3)
        for n in (3, 5):
            want = workloads.expected_verdict(workloads.linking(left),
                                              workloads.linking(right), "vn", n)
            assert decide_vn(left, right, n).verdict == want


@pytest.mark.parametrize("base", workloads.HOMS_BASES)
def test_hom_reference_matches_exhaustive_count_on_bases(base):
    d = named(base)
    text = serialize(d)
    for group in ("z6", "s3", "d4", "q8"):
        for presentation, build in (("welded", welded_group), ("core", core_group)):
            count, problem = workloads.hom_reference((text, group, presentation))
            assert problem is None
            assert count == oracles.hom_count_exhaustive(build(d), builtin_group(group))
    for n in (3, 5, 7):
        assert workloads.coloring_reference(text, n) == oracles.colorings_exhaustive(d, n)


def test_linking_and_rotation_helpers():
    rng = random.Random(5)
    for _ in range(50):
        d = random_diagram(rng, max_crossings=12, max_mu=3)
        assert workloads.linking(d) == linking_matrix(d)
        assert same_diagram(d, workloads.rotate_relabel(d, rng))


def test_only_the_known_closure_excuses_a_false_same_diagram(tmp_path):
    cases = [c for c in workloads.build_moves(random.Random(3), str(tmp_path))
             if c.kind == "same_diagram"]
    verdicts = [c.check(False)[0] for c in cases]
    known = (workloads.MOVES_ROUNDS + 2) // 3      # every third round
    assert verdicts.count(workloads.KNOWN_CANONICAL_KEY) == known
    assert verdicts.count(workloads.WRONG) == len(cases) - known
    assert all(c.check(True) is None for c in cases)


def test_scramble_rules_hold_for_v_kinds():
    d = named("h-closure:3,1,2,2")
    for kinds, rule in workloads.SCRAMBLE_KINDS:
        out = scramble(d, parse_kinds(kinds), 30, 4)
        assert workloads.linking_kept(workloads.linking(d), workloads.linking(out), rule, 3)


def test_tracer_spans_and_self_times(tmp_path):
    import wld.cli
    import wld.invariants
    path = tmp_path / "h.gc"
    path.write_text(workloads.cli(["examples", "h-closure:3,1,2,2"]))
    original = wld.invariants.hom_count
    tracer = Tracer()
    tracer.install()
    try:
        assert wld.invariants.hom_count is not original
        tracer.op(0, lambda: workloads.cli(["homs", str(path), "--group", "s3", "--json"]))
    finally:
        tracer.uninstall()
    assert wld.invariants.hom_count is original
    table = tracer.layer_table()
    assert table["cli.main"]["calls"] == 1
    assert table["invariants.hom_count"]["calls"] == 1
    assert table["invariants.simplify_presentation"]["calls"] == 1
    assert tracer.counts["invariants.simplify_presentation.gens_out"] >= 3
    for row in table.values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9
    # self times of all spans add up to the root span's duration
    root = table["op"]["total_s"]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(root, rel=1e-6)
    written = tracer.write_spans(str(tmp_path / "spans.tsv.gz"))
    with gzip.open(tmp_path / "spans.tsv.gz", "rt") as fh:
        assert written == len(fh.read().splitlines()) - 1


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "obstruct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    import json
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = run.end_to_end(1.0, 1.0, 1.0, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, v["unit"]) for name, v in e2e.items()]
    layers = run.per_layer(Tracer(), 1.0, 1.0)
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == sorted(
        (name, v["unit"]) for name, v in layers.items())
