"""Closed-loop benchmark of dicond: one client, one instance at a time.

An untraced run (``trace=False``) processes instances until ``seconds``
have passed and reports the end-to-end metrics. A traced run processes a
fixed number of instances twice, first untraced and then traced, on
fresh copies of the same graphs, and reports the per-layer metrics and
the tracing overhead. Every report is checked; any failure is counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import dicond
import dicond.baselines
import dicond.solver
from dicond.graph import conductance_set
from dicond.solver import flip_conductances

from . import inputs
from .tracing import TRACED, Tracer

SETUP_REPS = 20
CHECK_TOL = 1e-9
MIN_OPTIMAL_FRAC = 0.80  # acceptance criterion 1 on the same graph family
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """A seeded input family and how each instance is processed.

    ``cost_s`` is the nominal seconds per instance at the baseline
    commit. It only sizes the input pool and the traced run, so both
    stay fixed for a given ``seconds`` and counts repeat exactly.
    """

    name: str
    make: Callable[[int, int, Path], list]
    cost_s: float
    round_size: int = 1
    with_oracle: bool = False

    def _rounds(self, k: float) -> int:
        return self.round_size * max(1, math.ceil(k / self.round_size))

    def pool_size(self, seconds: float) -> int:
        return self._rounds(seconds / self.cost_s + 1)

    def trace_size(self, seconds: float) -> int:
        return self._rounds(round(seconds / (2.0 * self.cost_s)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dsbm-lscc", inputs.dsbm_lscc, cost_s=2.7),
        Workload("dsbm-grid", inputs.dsbm_grid, cost_s=0.8, round_size=len(inputs.DSBM_ETAS)),
        Workload("oracle-small", inputs.oracle_small, cost_s=0.03, with_oracle=True),
    )
}

END_TO_END = {"setup_s": "s", "graphs_per_s": "1/s", "solve_s_p50": "s"}

# Self time is reported for the functions that every workload calls at
# the baseline commit; the rest report calls only (a function that is
# never called would report a self time of exactly 0 on every run).
SELF_TIMED = (
    "graph.load_edge_list", "graph.build_graph", "graph.prefix_cut_profile",
    "graph.weak_components", "functionals.r_obj", "functionals.n_med",
    "subgrad.classify", "subgrad.bounds", "subgrad.boundary_indicator",
    "subgrad.select_subgradient", "solver.dsi_solve", "solver.dsi_run",
    "solver.subproblem_argmin", "solver.extract_partition", "solver.verify_local_opt",
    "solver.flip_conductances", "baselines.spectral_embedding", "baselines.sweep_cut",
    "baselines.spectral_sweep",
)
DERIVED = {
    "solver.iterations": "count",
    "solver.restarts_at_max_iters": "count",
    "solver.winner_iter_share": "ratio",
    "solver.iters_per_s": "1/s",
    "baselines.power_iters": "count",
    "baselines.power_iters_capped": "count",
    "oracle.subsets_enumerated": "count",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in TRACED},
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **DERIVED,
}

OBSERVE = {
    "solver.dsi_solve": lambda rep: rep.iterations,
    "solver.dsi_run": lambda rep: (rep.iterations, rep.certificate),
    "baselines.spectral_embedding": lambda emb: (emb.iterations, emb.residual),
    "oracle.brute_conductance": lambda res: res.subsets_enumerated,
}


@dataclass
class Outcome:
    """Timings and results of one processed instance."""

    solve_s: float
    sweep_s: float
    oracle_s: float
    best_r: float
    sweep_phi: float
    oracle_phi: float | None
    digest: str
    failures: list

    @property
    def total_s(self) -> float:
        return self.solve_s + self.sweep_s + self.oracle_s


def report_digest(rep) -> str:
    doc = json.dumps(rep.to_dict(with_timings=False), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def check_report(g, rep, sweep_phi, oracle_phi) -> list[str]:
    """Invariants every returned report must satisfy; returns failures."""
    fails = []
    trace = rep.r_trace
    if any(b >= a for a, b in zip(trace, trace[1:])):
        fails.append("ratio trace not strictly decreasing")
    if abs(rep.best_r - conductance_set(g, rep.best_set)[0]) > CHECK_TOL:
        fails.append("best_r != conductance_set(best_set)")
    if flip_conductances(g, rep.best_set).min() < rep.best_r - CHECK_TOL:
        fails.append("a single-vertex flip improves best_set")
    if rep.best_r > sweep_phi + CHECK_TOL:
        fails.append("best_r above the spectral sweep")
    if oracle_phi is not None and oracle_phi > rep.best_r + CHECK_TOL:
        fails.append("oracle above best_r")
    return fails


def process(inst, g, with_oracle: bool, tracer: Tracer | None = None) -> Outcome:
    """Solve, sweep and (optionally) run the oracle on one fresh graph.

    The calls go through module attributes so that the tracer, installed
    only around them, sees them; the checks run afterwards, untimed and
    untraced.
    """
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = clock()
        rep = dicond.dsi_solve(g, dicond.SolverConfig(seed=inst.solver_seed))
        t1 = clock()
        _, sweep_phi = dicond.baselines.spectral_sweep(g)
        t2 = clock()
        oracle_phi = dicond.brute_conductance(g).phi_d_min if with_oracle else None
        t3 = clock()
    return Outcome(t1 - t0, t2 - t1, t3 - t2, rep.best_r, sweep_phi, oracle_phi,
                   report_digest(rep), check_report(g, rep, sweep_phi, oracle_phi))


def calibrate() -> dict[str, float]:
    """Fixed kernels timed at the start and end of a run, recorded so a
    contended run can be recognised; never used to adjust numbers."""
    a = np.arange(10_000, dtype=float)
    t0 = clock()
    for _ in range(2_000):
        a.dot(a)
    t1 = clock()
    total = 0
    for i in range(300_000):
        total += i
    t2 = clock()
    return {"numpy_dot_s": t1 - t0, "python_loop_s": t2 - t1}


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dicond": getattr(dicond, "__version__", "?"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def digest_of(outcomes, n: int) -> str:
    h = hashlib.sha256()
    for o in outcomes[:n]:
        h.update(o.digest.encode())
    return h.hexdigest()


def setup_pass(pool) -> float:
    """Seconds to load every pool file into a DirectedGraph.

    The graphs are dropped afterwards: every timed instance loads its
    own fresh graph, so lazily built caches are paid inside the solve,
    as a user pays them.
    """
    t0 = clock()
    graphs = [dicond.load_edge_list(inst.path) for inst in pool]
    elapsed = clock() - t0
    del graphs
    return elapsed


class Run:
    """Instances attempted and failed, and the outcomes, of one run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed_instances: set[str] = set()
        self.failures: list[str] = []
        self.outcomes: list[Outcome] = []

    def fail(self, inst, msg: str) -> None:
        self.failed_instances.add(inst.path.name)
        self.failures.append(f"{inst.path.name}: {msg}")

    def guard(self, inst, g, tracer: Tracer | None = None) -> Outcome | None:
        """Process one instance; an exception or a failed check counts
        the instance as failed."""
        try:
            out = process(inst, g, self.workload.with_oracle, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(inst, "raised")
            return None
        for msg in out.failures:
            self.fail(inst, msg)
        return out


def run_untraced(workload, pool, seconds):
    """Closed loop over the pool, whole rounds, until ``seconds`` pass
    and at least the instances of a traced run are done, so that both
    kinds of run digest the same reports.

    The set-up pass is repeated SETUP_REPS times, spread evenly over the
    run, so its median samples the machine at the same moments as the
    instances do; set-up time is not counted as instance time.
    """
    run = Run(workload)
    setup_times: list[float] = []
    supply = itertools.cycle(pool)
    least = workload.trace_size(seconds)
    start = clock()
    while clock() - start < seconds or run.attempted < least:
        if clock() - start >= len(setup_times) * seconds / SETUP_REPS:
            setup_times.append(setup_pass(pool))
            continue
        for _ in range(workload.round_size):
            inst = next(supply)
            run.attempted += 1
            out = run.guard(inst, dicond.load_edge_list(inst.path))
            if out is not None:
                run.outcomes.append(out)
    while len(setup_times) < SETUP_REPS:
        setup_times.append(setup_pass(pool))
    return run, setup_times


def run_traced(workload, pool, tracer, seconds):
    """Each of the first k instances runs untraced, then traced, each on
    a freshly loaded graph; the two reports must agree."""
    run = Run(workload)
    plain_s = traced_s = 0.0
    for i, inst in enumerate(pool[:workload.trace_size(seconds)]):
        run.attempted += 1
        plain = run.guard(inst, dicond.load_edge_list(inst.path))
        tracer.instance = i
        traced = run.guard(inst, dicond.load_edge_list(inst.path), tracer)
        if plain is None or traced is None:
            continue
        if traced.digest != plain.digest:
            run.fail(inst, "traced report differs from untraced")
        plain_s += plain.total_s
        traced_s += traced.total_s
        run.outcomes.append(plain)
    overhead = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
    return run, overhead


def layer_metrics(tracer: Tracer, totals: dict, overhead: float) -> dict[str, float]:
    runs = tracer.results["solver.dsi_run"]
    iterations = sum(it for it, _ in runs)
    cap_cert = getattr(dicond.solver, "CERT_MAX_ITERS", "stop-by-T")
    winner = sum(tracer.results["solver.dsi_solve"])
    embeds = tracer.results["baselines.spectral_embedding"]
    run_s = totals["solver.dsi_run"]["incl_s"]
    values = {
        **{f"{name}.calls": totals[name]["calls"] for name in TRACED},
        **{f"{name}.self_s": totals[name]["self_s"] for name in SELF_TIMED},
        "solver.iterations": iterations,
        "solver.restarts_at_max_iters": sum(cert == cap_cert for _, cert in runs),
        "solver.winner_iter_share": winner / iterations if iterations else 0.0,
        "solver.iters_per_s": iterations / run_s if run_s > 0 else 0.0,
        "baselines.power_iters": sum(it for it, _ in embeds),
        "baselines.power_iters_capped": sum(not res <= 1e-10 for _, res in embeds),
        "oracle.subsets_enumerated": sum(tracer.results["oracle.brute_conductance"]),
        "trace.overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def summarise(run: Run, workload: Workload, digest_n: int) -> dict:
    outs = run.outcomes
    detail = {
        "samples": len(outs),
        "failed_frac": len(run.failed_instances) / max(1, run.attempted),
        "failures": run.failures[:20],
        "digest": digest_of(outs, digest_n),
        "digest_n": min(digest_n, len(outs)),
    }
    if outs:
        solve = [o.solve_s for o in outs]
        detail["best_r_mean"] = statistics.fmean(o.best_r for o in outs)
        detail["sweep_s_p50"] = statistics.median(o.sweep_s for o in outs)
        if len(solve) >= 100:  # at least ten samples beyond p90
            detail["solve_s_p90"] = statistics.quantiles(solve, n=10)[-1]
        if workload.with_oracle:
            optimal = sum(o.best_r <= o.oracle_phi + CHECK_TOL for o in outs)
            detail["optimal_frac"] = optimal / len(outs)
            detail["oracle_s_p50"] = statistics.median(o.oracle_s for o in outs)
            if detail["optimal_frac"] < MIN_OPTIMAL_FRAC:
                run.failures.append(f"optimal_frac below {MIN_OPTIMAL_FRAC}")  # run-level
    return detail


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path, out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail document)."""
    cal_start = calibrate()
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    tracer = Tracer(OBSERVE) if trace else None
    try:
        pool = workload.make(seed, workload.pool_size(seconds), work)
        if tracer is not None:
            with tracer:
                setup_times = [setup_pass(pool) for _ in range(SETUP_REPS)]
            run, overhead = run_traced(workload, pool, tracer, seconds)
        else:
            run, setup_times = run_untraced(workload, pool, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = summarise(run, workload, workload.trace_size(seconds))

    if tracer is None:
        outs = run.outcomes
        spent = sum(o.total_s for o in outs)
        values = {
            "setup_s": statistics.median(setup_times),
            "graphs_per_s": len(outs) / spent if spent > 0 else 0.0,
            "solve_s_p50": statistics.median(o.solve_s for o in outs) if outs else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        arr = tracer.arrays()
        totals = tracer.totals(arr)
        metrics = layer_metrics(tracer, totals, overhead)
        detail["layers"] = totals
        detail["absent"] = tracer.absent
        detail["spans"] = int(arr["name"].size)
        if out_dir is not None:
            path = out_dir / f"spans-{workload.name}-seed{seed}.npz"
            tracer.write(path, arr)
            detail["spans_file"] = str(path)

    detail.update(workload=workload.name, seed=seed, seconds=seconds, trace=trace,
                  setup_reps=SETUP_REPS, pool=len(pool), provenance=provenance(),
                  calibration={"start": cal_start, "end": calibrate()})
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failed_instances),
        "metrics": metrics,
    }
    return result, detail
