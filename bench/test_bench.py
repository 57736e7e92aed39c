"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

    python3 -m pytest bench/test_bench.py -q        # about five minutes

They check the committed reference, the identity wrapping of the tracer,
that deterministic counters repeat exactly between fresh processes at one
seed (they would not if state leaked between passes), that outputs are the
same at two seeds and with tracing on or off, and the output contract.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_reference_agrees_with_golden_gap_rows():
    from corank.goldens import gap_table
    reference = json.loads((HERE / "reference.json").read_text())
    graphs = reference["graphs"]
    assert len(graphs) == 143
    gap_rows = sorted((key, mz, gz, gq) for key, (mz, gz, gq) in graphs.items() if mz < gq)
    assert gap_rows == gap_table()
    assert len(reference["trees"]) == 25
    assert all(mz == nu2 and p == delta for mz, p, delta, nu2 in reference["trees"].values())


def test_tracer_rebinds_every_corank_binding_and_restores_them():
    tracing.import_all_corank()
    import corank.criticalideals as ci
    import corank.linalg as linalg
    import corank.minrank as mr
    from corank.cache import DecisionCache
    originals = (linalg.exact_rank, ci.gamma, DecisionCache.get)
    tracer = tracing.Tracer()
    tracer.install(tracing.ENUMERATION_TARGETS + tracing.LAYER_TARGETS)
    tracer.install_cache()
    try:
        assert tracer.unwrapped_bindings() == []
        assert mr.exact_rank is linalg.exact_rank is not originals[0]
        assert mr.gamma is ci.gamma is not originals[1]
    finally:
        tracer.uninstall()
    assert (linalg.exact_rank, ci.gamma, DecisionCache.get) == originals
    assert mr.exact_rank is originals[0] and mr.gamma is originals[1]


def test_each_pass_takes_its_own_labeling_and_seed_zero_is_the_identity():
    import worker
    from corank.formats import canonical_graph6
    first, second = (worker.build_items("trees", 5, k) for k in (0, 1))
    assert [t.edges for t in first] != [t.edges for t in second]
    assert sorted(map(canonical_graph6, first)) == sorted(map(canonical_graph6, second))
    assert [t.edges for t in worker.build_items("trees", 5, 1)] == [t.edges for t in second]
    identity = worker.build_items("trees", 0, 0)
    assert [t.edges for t in worker.build_items("trees", 0, 3)] == [t.edges for t in identity]
    assert [t.n for t in identity] == sorted(t.n for t in identity)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat_and_outputs_are_label_invariant(workload):
    run.WORK.mkdir(exist_ok=True)
    warm = run.warm_cache_dir() if workload == "gap-table-warm" else None
    first, second = (run.timed_pass(workload, 11, True, warm) for _ in range(2))
    other_seed = run.timed_pass(workload, 12, False, warm)
    for res in (first, second, other_seed):
        assert res["failed"] == 0 and res["undecided"] == 0, res["errors"]
    assert first["digest"] == second["digest"] == other_seed["digest"]
    exact = {k: v for k, v in first["layers"].items() if run.is_exact_counter(k)}
    assert exact == {k: second["layers"][k] for k in exact}
    assert any(exact.values())


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    cmd = BENCHMARK["command"] + ["--workload", "gap-table-warm", "--seed", "3",
                                  "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(HERE.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = BENCHMARK["command"] + ["--workload", "trees", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
