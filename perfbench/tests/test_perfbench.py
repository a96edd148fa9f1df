"""The benchmark's own tests: its independent results agree with the program
at small bounds, and its checks catch a wrong contraction and a corrupted
operad.  Run with `python3 -m pytest perfbench/tests -q` from the root."""

import itertools
import json
import os
import shutil
import subprocess
import sys

import oracle
import workloads
from duoidal_kit import colored_trees
from duoidal_kit.finset import CartMap
from duoidal_kit.kcat import fn_elt_of

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def run_job(job, seed=7):
    job.setup()
    job.run()
    return job.verify(seed)


def failed(checks):
    return [name for name, ok in checks if not ok]


def all_binary_trees(vertices):
    if vertices == 0:
        return [oracle.LEAF]
    out = [(c, ()) for c in oracle.COLORS] if vertices == 1 else []
    for a in range(vertices):
        for left, right in itertools.product(all_binary_trees(a), all_binary_trees(vertices - 1 - a)):
            out += [(c, (left, right)) for c in oracle.COLORS]
    return out


def test_tree_count_recurrence_matches_direct_enumeration():
    for bound in range(5):
        trees = [all_binary_trees(v) for v in range(bound + 1)]
        direct = sum(
            oracle.leaf_count(t) * len(trees[vs])
            for vt in range(bound + 1)
            for t in trees[vt]
            for vs in range(bound + 1 - vt)
        )
        assert direct == oracle.contraction_triples(bound)
    assert oracle.contraction_triples(6) == 424_169
    assert oracle.contraction_triples(7) == 3_838_185


def test_normal_form_contracts_edges_and_drops_unary_vertices():
    # w(w(), l): the nullary white child merges, leaving a unary vertex
    assert oracle.render(oracle.normal_form(("w", (("w", ()), "l")))) == "l"
    t = ("w", (("b", (("w", ("l", "l")), ("b", ()))), "l"))
    assert oracle.render(oracle.normal_form(t)) == "w(l,l,l)"


def test_contraction_agrees_with_the_program_at_vertex_bound_4():
    job = workloads.Contraction(max_vertices=4)
    assert failed(run_job(job)) == []
    assert job.cases() == oracle.contraction_triples(4) == 5353


def test_tree_operad_agrees_with_brute_force_at_leaf_bound_2():
    job = workloads.TreeOperad()
    assert failed(run_job(job)) == []
    assert [job._pairs(rep)[1] for rep in job.reports] == [oracle.composable_pairs(2, 3)] * 2 == [1149] * 2


def test_operad_workloads_pass_at_small_bounds():
    for job in (workloads.EndOperad(bound=1), workloads.SpanOperad(bound=1)):
        checks = run_job(job)
        assert failed(checks) == []
        assert sum(name.startswith("sampled") for name, _ in checks) == workloads.SAMPLES


def test_centers_pass_at_small_levels():
    assert failed(run_job(workloads.Centers(levels=2, certificate_levels=2))) == []


def test_the_seed_changes_samples_but_not_the_operations():
    job = workloads.Contraction(max_vertices=4)
    job.setup()
    job.run()
    names = [[name for name, _ in job.verify(seed)] for seed in (1, 2)]
    assert names[0] == names[1]


def test_a_wrong_contraction_is_reported_failed(monkeypatch):
    real = colored_trees.ContractionMap.contract

    def mirrored(self, t):
        out = real(self, t)
        kids = self.atrees.kids[out]
        return self.atrees.intern(self.atrees.color[out], kids[::-1]) if len(kids) > 1 else out

    monkeypatch.setattr(colored_trees.ContractionMap, "contract", mirrored)
    bad = failed(run_job(workloads.Contraction(max_vertices=4)))
    assert "no failing triple" in bad
    assert any(name.startswith("sampled triple") for name in bad)


def test_an_end_operad_with_a_corrupted_m_is_reported_failed():
    job = workloads.EndOperad(bound=1)
    job.setup()
    A = job.mult
    target = A.m[1].cod
    word = A.base.component(1)[0].dom_word
    constant = fn_elt_of(word, lambda t: (0,))  # not the identity the unit asks for
    A.m[1] = CartMap((), target, table={(): (constant,)})
    job.run()
    assert any(name.startswith("row: ") for name in failed(job.verify(7)))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_command_prints_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        proc = bench("--workload", "contraction", "--seed", "3", "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "contraction", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
