"""Tests of the benchmark itself, on reduced workload sizes."""

import functools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from scipy.sparse import csr_matrix  # noqa: E402
from scipy.sparse.csgraph import connected_components  # noqa: E402

import dicond  # noqa: E402
from perfbench import bench, inputs  # noqa: E402
from perfbench.bench import Workload, run_workload  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SECONDS = 1.0
SEED = 7
SMALL = (
    Workload("dsbm-lscc", functools.partial(inputs.dsbm_lscc, n=60, p=0.04), cost_s=0.25),
    Workload("dsbm-grid", functools.partial(inputs.dsbm_grid, n=30, p=0.1, etas=(0.0, 0.2)),
             cost_s=0.1, round_size=2),
    Workload("oracle-small", functools.partial(inputs.oracle_small, n_max=7), cost_s=0.05,
             with_oracle=True),
)
COUNTS = ("solver.iterations", "solver.restarts_at_max_iters", "baselines.power_iters",
          "baselines.power_iters_capped", "oracle.subsets_enumerated")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per small workload: one untraced run and two traced runs."""
    work = tmp_path_factory.mktemp("work")
    return {
        w.name: [run_workload(w, SEED, SECONDS, trace, work) for trace in (False, True, True)]
        for w in SMALL
    }


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    def files(seed, sub):
        out = tmp_path / sub
        out.mkdir()
        return [(i.path.name, i.path.read_bytes(), i.solver_seed) for i in workload.make(seed, 4, out)]

    assert files(SEED, "a") == files(SEED, "b")
    assert files(SEED, "a2") != files(SEED + 1, "c")


def test_dsbm_lscc_input_is_one_strong_component(tmp_path):
    (inst,) = bench.WORKLOADS["dsbm-lscc"].make(SEED, 1, tmp_path)
    g = dicond.load_edge_list(inst.path)
    adj = csr_matrix((g.weights, (g.tails, g.heads)), shape=(g.n, g.n))
    assert connected_components(adj, directed=True, connection="strong")[0] == 1
    assert g.n > 800


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_result_line_and_checks(workload, runs):
    (plain, detail), (traced, tdetail), _ = runs[workload.name]
    for result, names in ((plain, bench.END_TO_END), (traced, bench.PER_LAYER)):
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert detail["failed_frac"] == 0.0 and detail["samples"] >= workload.trace_size(SECONDS)
    assert tdetail["absent"] == []


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_reports_agree(workload, runs):
    (_, detail), (_, tdetail), _ = runs[workload.name]
    assert tdetail["digest_n"] == detail["digest_n"] == workload.trace_size(SECONDS)
    assert tdetail["digest"] == detail["digest"]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_counts_repeat_exactly(workload, runs):
    _, (first, _), (second, _) = runs[workload.name]

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith(".calls") or k in COUNTS}

    assert counts(first) == counts(second)
    assert counts(first)["solver.dsi_solve.calls"] == workload.trace_size(SECONDS)


def test_tracer_reports_absent_names_and_self_time():
    names = ("functionals.r_obj", "functionals.n_med", "graph.no_such_function")
    tracer = Tracer(names=names)
    g = dicond.canonical("c3")
    with tracer:
        dicond.r_obj(g, g.degree_profile, np.array([1.0, -1.0, 0.0]))
    assert tracer.absent == ["graph.no_such_function"]
    arr = tracer.arrays()
    totals = tracer.totals(arr)
    assert totals["functionals.r_obj"]["calls"] == 1
    assert totals["functionals.n_med"]["calls"] == 1
    assert totals["graph.no_such_function"] == {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    r_obj = totals["functionals.r_obj"]
    assert r_obj["self_s"] == pytest.approx(r_obj["incl_s"] - totals["functionals.n_med"]["incl_s"])
    assert dicond.functionals.r_obj is dicond.r_obj and not hasattr(dicond.r_obj, "__wrapped__")


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
