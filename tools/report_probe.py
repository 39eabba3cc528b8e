"""Print one JSON line per probe case: the solve report's key values
and the sha256 of its no-timings JSON.

Run it on two checkouts and diff the outputs to see which reports a
change moves:

    PYTHONPATH=src python tools/report_probe.py > probe.jsonl

The cases are fixed; the script takes no options. Its output is kept as
tools/probe.jsonl, and tests/test_report_probe.py reruns the probe and
names every case whose line moved; a change that moves reports records
the file again.

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

Each line holds the case name, n, best_r, the spectral sweep baseline's
phi, on graphs with n <= 12 the exhaustive oracle's phi_d_min
(oracle_phi), the certificate, the winning restart's init kind, the
iteration count and the digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from dicond import (
    DsbmParams,
    SolverConfig,
    brute_conductance,
    build_graph,
    dsbm,
    dsi_solve,
    largest_strong_component,
)
from dicond.baselines import spectral_sweep


def random_case(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    m = 3 * n
    perm = rng.permutation(n)
    tails = np.concatenate([rng.integers(0, n, m), perm])
    heads = np.concatenate([rng.integers(0, n, m), np.roll(perm, -1)])
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


def cases():
    for seed in range(600):
        yield f"random-{seed}", random_case(seed), seed
    for eta in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30):
        for seed in range(5):
            g, _ = dsbm(DsbmParams(n=200, p=0.02, q=0.02, eta=eta, seed=seed))
            yield f"dsbm-{eta:.2f}-{seed}", largest_strong_component(g)[0], seed
    for seed in range(1000, 1090):
        yield f"random-{seed}", random_case(seed), seed


def probe_lines():
    """The probe's output lines, one per case, in case order."""
    for name, g, seed in cases():
        rep = dsi_solve(g, SolverConfig(seed=seed))
        doc = json.dumps(rep.to_dict(with_timings=False), sort_keys=True)
        line = {"name": name, "n": g.n, "best_r": rep.best_r, "sweep_phi": spectral_sweep(g)[1]}
        if g.n <= 12:
            line["oracle_phi"] = brute_conductance(g).phi_d_min
        line.update(certificate=rep.certificate, init_kind=rep.init_kind, iterations=rep.iterations,
                    digest=hashlib.sha256(doc.encode()).hexdigest())
        yield json.dumps(line)


def main() -> None:
    for line in probe_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
