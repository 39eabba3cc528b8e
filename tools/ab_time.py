"""Time two checkouts of dicond against each other on one benchmark workload.

    python tools/ab_time.py OLD NEW --workload dsbm-lscc --rounds 5

OLD and NEW are the roots of two source checkouts. Each one's package is
loaded from its ``src/dicond`` under its own module name, so both run in
one process on the same inputs, which perfbench.inputs (through
perfbench.bench.WORKLOADS) writes to a temporary directory.

Each round processes every instance once per checkout, on a freshly
loaded graph, as perfbench.bench.process does: the solve, the spectral
sweep and, on workloads that run it, the oracle. The order of the two
checkouts alternates from instance to instance and from round to round,
so neither side always runs first. Per round the script prints the
speed ratio OLD/NEW of the summed instance time (what graphs_per_s
reads), of the median solve time (what solve_s_p50 reads) and of the
median spectral sweep time, each median beside its ratio; a ratio above
1 means NEW is faster. The sweep is timed apart because on a workload
whose solves stop at the precheck, its embedding is most of an
instance. The summary line gives each ratio's median and range over the
rounds and in how many rounds NEW was faster (a ratio above 1; a tie
counts for neither side). The checkout named second (NEW) reads about
3% slower even when the two checkouts are identical, so read any ratio
beside a control run of the parent against a copy of itself. It exits
with status 1 when any instance's no-timings report digest or sweep
value differs between the two; it then first prints how many instances
have a lower, equal or higher best_r on NEW.
"""

import os

# pin BLAS/OpenMP to one thread before numpy is first imported, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_checkout(root: Path, name: str):
    """The dicond package of the checkout at root, imported as ``name``."""
    init = root / "src" / "dicond" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_time: no src/dicond/__init__.py under {root}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def process(pkg, inst, with_oracle: bool, digest):
    """(total seconds, {"solve": seconds, "sweep": seconds}, result key,
    best_r) of one instance."""
    g = pkg.load_edge_list(inst.path)
    t0 = time.perf_counter()
    rep = pkg.dsi_solve(g, pkg.SolverConfig(seed=inst.solver_seed))
    t1 = time.perf_counter()
    _, sweep_phi = pkg.baselines.spectral_sweep(g)
    t2 = time.perf_counter()
    oracle_phi = pkg.brute_conductance(g).phi_d_min if with_oracle else None
    t3 = time.perf_counter()
    return (t3 - t0, {"solve": t1 - t0, "sweep": t2 - t1}, (digest(rep), repr(sweep_phi), repr(oracle_phi)),
            rep.best_r)


def summary(ratios) -> str:
    """Median, range and win count of per-round OLD/NEW speed ratios."""
    wins = sum(r > 1.0 for r in ratios)
    return (f"{statistics.median(ratios):.3f}x (rounds {min(ratios):.3f}-{max(ratios):.3f}, "
            f"new faster in {wins} of {len(ratios)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--count", type=int, default=10, help="instances per round")
    parser.add_argument("--seed", type=int, default=811, help="workload seed")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.count < 1:
        parser.error("--rounds and --count must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import WORKLOADS, report_digest

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    sides = {"old": load_checkout(args.old.resolve(), "dicond_ab_old"),
             "new": load_checkout(args.new.resolve(), "dicond_ab_new")}
    print(f"{workload.name}, seed {args.seed}: {args.count} instances x {args.rounds} rounds, "
          f"order alternating; old={args.old} new={args.new}")

    with tempfile.TemporaryDirectory(prefix="ab-time-") as work:
        pool = workload.make(args.seed, args.count, Path(work))
        for pkg in sides.values():  # warm up: first calls, lazy imports
            process(pkg, pool[0], workload.with_oracle, report_digest)
        mismatched = set()
        best_r = {}  # instance -> (OLD, NEW); solves are deterministic
        total_ratios = []
        p50_ratios = {"solve": [], "sweep": []}
        for rnd in range(args.rounds):
            total = {"old": 0.0, "new": 0.0}
            parts = {part: {"old": [], "new": []} for part in p50_ratios}
            for i, inst in enumerate(pool):
                order = ("old", "new") if (rnd + i) % 2 == 0 else ("new", "old")
                keys, r = {}, {}
                for side in order:
                    t_all, t_parts, keys[side], r[side] = process(sides[side], inst, workload.with_oracle,
                                                                  report_digest)
                    total[side] += t_all
                    for part, t in t_parts.items():
                        parts[part][side].append(t)
                best_r[inst.path.name] = (r["old"], r["new"])
                if keys["old"] != keys["new"]:
                    mismatched.add(inst.path.name)
            total_ratios.append(total["old"] / total["new"])
            line = (f"round {rnd + 1}: total {total['old']:.3f} s -> {total['new']:.3f} s, "
                    f"speed {total_ratios[-1]:.3f}x")
            for part, ratios in p50_ratios.items():
                p50 = {side: statistics.median(ts) for side, ts in parts[part].items()}
                ratios.append(p50["old"] / p50["new"])
                line += f"; {part} p50 {1e3 * p50['old']:.3f} ms -> {1e3 * p50['new']:.3f} ms, {ratios[-1]:.3f}x"
            print(line)

    print(f"median speed {summary(total_ratios)}; "
          + "; ".join(f"{part} p50 {summary(ratios)}" for part, ratios in p50_ratios.items()))
    if mismatched:
        lower = sum(new < old for old, new in best_r.values())
        higher = sum(new > old for old, new in best_r.values())
        print(f"best_r on new: {lower} lower, {len(best_r) - lower - higher} equal, {higher} higher")
        print(f"DIGESTS DIFFER on {len(mismatched)} of {len(pool)} instances: {sorted(mismatched)}")
        return 1
    print(f"digests: all {len(pool)} instances identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
