"""Print one JSON line per probe case: the solve report's key values
and the sha256 of its no-timings JSON.

The cases are fixed; the script takes no options. Its output, kept as
tools/probe.jsonl, is the one record of solve reports:
tests/test_report_probe.py reruns the probe and names every case whose
line moved, with the fields that moved. A change that moves reports
records the file again:

    PYTHONPATH=src python tools/report_probe.py > tools/probe.jsonl

- 400 random strongly connected digraphs. For seed in 0..399, with
  rng = default_rng(seed): n = rng.integers(4, 40), m = 3n,
  perm = rng.permutation(n); the arcs are rng.integers(0, n, m) tails
  and rng.integers(0, n, m) heads plus the cycle perm -> roll(perm, -1);
  the m + n weights are 10 ** rng.uniform(-3, 3, m + n) for even seeds
  and rng.uniform(0.1, 1, m + n) for odd ones. Each graph is solved
  with SolverConfig(seed=seed).
- 200 random strongly connected digraphs whose weights make every sum
  exact, so that the solver's binary cut bookkeeping runs on weighted
  input: the same recipe for seed in 400..599, with weights
  rng.integers(1, 4, m + n) (in {1, 2, 3}) for even seeds and
  rng.choice([0.5, 1, 1.5, 2], m + n) for odd ones.
- 30 DSBM strong components: the largest strong component of
  dsbm(DsbmParams(n=200, p=0.02, q=0.02, eta, seed)) for eta in
  0.05, 0.10, ..., 0.30 and seed in 0..4, solved with
  SolverConfig(seed=seed).
- 90 random digraphs with isolated vertices or without the cycle, so
  that the solve lifts its set from the positive-degree core or stops at
  the zero-cut precheck: the first recipe for seed in 1000..1089, where
  seeds with seed % 3 != 0 drop the n cycle arcs and seeds with
  seed % 3 != 1 append 1 + (seed // 3) % 3 isolated vertices.
- 6 named cases, solved with SolverConfig(seed=0): "c3", the canonical
  3-cycle; "dsbm-lscc", the largest strong component (N = 78) of
  dsbm(DsbmParams(n=40, p=0.15, q=0.1, eta=0.2, seed=5)); "rescue-flip"
  and "rounding", unweighted, with rng = default_rng(225) and
  default_rng(163), n = rng.integers(4, 13) and 2n random arcs plus the
  cycle, drawn as above, whose winning restart takes a rescue flip
  (N = 11) or rounds a non-binary stall that does not descend and goes
  on (N = 8); "weighted" and "wide", with rng = default_rng(9), n = 12
  and 30 random arcs plus the cycle, weighted by rng.choice([0.5, 1,
  1.5, 2]) (exact sums, so binary iterates run on a CutState) or by
  10 ** rng.uniform(-3, 3) (so every iterate runs the general code).

Each line holds the case name, n, best_r, the spectral sweep baseline's
phi, on graphs with n <= 12 the exhaustive oracle's phi_d_min
(oracle_phi), the certificate, the winning restart's init kind, the
iteration count and the digest: perfbench.bench.report_digest, the
sha256 of the report's no-timings JSON, which tools/ab_time.py compares
too.

The digest covers best_x and r_trace, which come from dot products and
norms whose last bits can differ with the BLAS build or the CPU's SIMD
width; the file was recorded on x86-64 with NumPy's bundled OpenBLAS.
best_r, the certificate and the iteration count do not depend on those
bits: where they hold and only the digest moves, suspect the platform
before the code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from dicond import (
    DsbmParams,
    SolverConfig,
    brute_conductance,
    build_graph,
    canonical,
    dsbm,
    dsi_solve,
    largest_strong_component,
)
from dicond.baselines import spectral_sweep

sys.path.append(str(Path(__file__).resolve().parent.parent))  # the repository root, for perfbench
from perfbench.bench import report_digest  # noqa: E402


def _cycle_plus_arcs(rng, n: int, extra: int):
    """Tails and heads of `extra` random arcs plus the Hamiltonian cycle
    perm -> roll(perm, -1), drawn as perm, then tails, then heads."""
    perm = rng.permutation(n)
    tails = np.concatenate([rng.integers(0, n, extra), perm])
    heads = np.concatenate([rng.integers(0, n, extra), np.roll(perm, -1)])
    return tails, heads


def random_case(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    m = 3 * n
    tails, heads = _cycle_plus_arcs(rng, n, m)
    if 400 <= seed < 600:
        if seed % 2 == 0:
            weights = rng.integers(1, 4, m + n).astype(float)
        else:
            weights = rng.choice([0.5, 1.0, 1.5, 2.0], m + n)
    elif seed % 2 == 0:
        weights = 10 ** rng.uniform(-3, 3, m + n)
    else:
        weights = rng.uniform(0.1, 1, m + n)
    if seed < 1000:
        return build_graph(n, tails, heads, weights)
    arcs = m + n if seed % 3 == 0 else m
    isolated = 0 if seed % 3 == 1 else 1 + (seed // 3) % 3
    return build_graph(n + isolated, tails[:arcs], heads[:arcs], weights[:arcs])


def case_graph(name: str):
    """The graph of the probe case called name."""
    if name == "c3":
        return canonical("c3")
    if name == "dsbm-lscc":
        g, _ = dsbm(DsbmParams(n=40, p=0.15, q=0.1, eta=0.2, seed=5))
        return largest_strong_component(g)[0]
    if name in ("rescue-flip", "rounding"):
        rng = np.random.default_rng(225 if name == "rescue-flip" else 163)
        n = int(rng.integers(4, 13))
        return build_graph(n, *_cycle_plus_arcs(rng, n, 2 * n))
    if name in ("weighted", "wide"):
        rng = np.random.default_rng(9)
        tails, heads = _cycle_plus_arcs(rng, 12, 30)
        if name == "weighted":
            weights = rng.choice([0.5, 1.0, 1.5, 2.0], size=tails.size)
        else:
            weights = 10 ** rng.uniform(-3, 3, size=tails.size)
        return build_graph(12, tails, heads, weights)
    kind, arg = name.split("-", 1)
    if kind == "random":
        return random_case(int(arg))
    eta, seed = arg.split("-")  # dsbm-<eta>-<seed>
    g, _ = dsbm(DsbmParams(n=200, p=0.02, q=0.02, eta=float(eta), seed=int(seed)))
    return largest_strong_component(g)[0]


def cases():
    """(name, solver seed) of every probe case, in output order."""
    for seed in range(600):
        yield f"random-{seed}", seed
    for eta in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30):
        for seed in range(5):
            yield f"dsbm-{eta:.2f}-{seed}", seed
    for seed in range(1000, 1090):
        yield f"random-{seed}", seed
    for name in ("c3", "dsbm-lscc", "rescue-flip", "rounding", "weighted", "wide"):
        yield name, 0


def probe_lines():
    """The probe's output lines, one per case, in case order."""
    for name, seed in cases():
        g = case_graph(name)
        rep = dsi_solve(g, SolverConfig(seed=seed))
        line = {"name": name, "n": g.n, "best_r": rep.best_r, "sweep_phi": spectral_sweep(g)[1]}
        if g.n <= 12:
            line["oracle_phi"] = brute_conductance(g).phi_d_min
        line.update(certificate=rep.certificate, init_kind=rep.init_kind, iterations=rep.iterations,
                    digest=report_digest(rep))
        yield json.dumps(line)


def main() -> None:
    for line in probe_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
