"""Command-line interface: solve, oracle, sweep, DSBM generation,
benchmark grids, dataset fetch, and format conversion.

Every file output gets a sidecar <out>.manifest.json capturing the
command, inputs (with content hashes), config, seeds, and tool version:
rerunning with the same manifest inputs reproduces the outputs byte for
byte (use --no-timings to zero out wall-clock fields, which are the only
nondeterministic bytes).

Exit codes: 0 success, 2 usage error, 3 data error, 4 size-limit error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import __version__
from .baselines import spectral_sweep
from .datasets import _sha256, fetch
from .errors import DicondError, GraphTooLargeError
from .generators import DsbmParams, dsbm
from .graph import load_edge_list, write_edge_list
from .oracle import brute_conductance
from .solver import INIT_MODES, SolverConfig, _sorted_labels, dsi_solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SIZE = 4


def _write_manifest(args, inputs, outputs, config: dict) -> None:
    """Write <first output>.manifest.json for the given files."""
    man = {
        "tool": "dicond",
        "version": __version__,
        "schema_version": 1,
        "command": [args.command] + args._raw_rest,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs if Path(p).exists()],
        "outputs": [str(p) for p in outputs],
        "config": config,
    }
    Path(str(outputs[0]) + ".manifest.json").write_text(
        json.dumps(man, indent=2, sort_keys=True) + "\n"
    )


def _emit(doc: dict, out_path, args, inputs, config: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        _write_manifest(args, inputs, [out_path], config)
    else:
        sys.stdout.write(text)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iters=args.max_iters,
        restarts=args.restarts,
        init=args.init,
        seed=args.seed,
    )


def cmd_solve(args) -> int:
    g = load_edge_list(args.graph)
    cfg = _solver_config(args)
    rep = dsi_solve(g, cfg)
    doc = rep.to_dict(with_timings=not args.no_timings)
    doc["n"] = g.n
    doc["m"] = g.m
    snapshot = {
        "restarts": args.restarts,
        "max_iters": args.max_iters,
        "seed": args.seed,
        "init": args.init,
    }
    _emit(doc, args.out, args, [args.graph], {"solver": snapshot})
    if args.trace_csv:
        with open(args.trace_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "r"])
            writer.writerows(enumerate(doc["r_trace"]))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = load_edge_list(args.graph)
    res = brute_conductance(g, limit=args.limit)
    doc = {
        "phi_d_min": res.phi_d_min,
        "phi_plus_min": res.phi_plus_min,
        "phi_minus_min": res.phi_minus_min,
        "argmin_d": _sorted_labels(g, res.argmin_d),
        "argmin_plus": _sorted_labels(g, res.argmin_plus),
        "argmin_minus": _sorted_labels(g, res.argmin_minus),
        "subsets_enumerated": res.subsets_enumerated,
        "n": g.n,
        "m": g.m,
    }
    _emit(doc, args.out, args, [args.graph], {"limit": args.limit})
    return EXIT_OK


def cmd_sweep(args) -> int:
    g = load_edge_list(args.graph)
    mask, phi = spectral_sweep(g)
    doc = {"phi": phi, "set": _sorted_labels(g, mask), "n": g.n, "m": g.m}
    _emit(doc, args.out, args, [args.graph], {})
    return EXIT_OK


def cmd_gen_dsbm(args) -> int:
    params = DsbmParams(n=args.n, p=args.p, q=args.q, eta=args.eta, seed=args.seed)
    g, planted = dsbm(params)
    write_edge_list(g, args.out)
    side = Path(str(args.out) + ".labels")
    with open(side, "w") as fh:
        for lab, block in zip(g.labels, planted):
            fh.write(f"{lab} {block}\n")
    cfg = {"n": args.n, "p": args.p, "q": args.q, "eta": args.eta, "seed": args.seed}
    _write_manifest(args, [], [args.out, side], {"params": cfg})
    return EXIT_OK


def cmd_fetch(args) -> int:
    path = fetch(args.name, registry_path=args.registry, force=args.force)
    print(path)
    return EXIT_OK


def cmd_convert(args) -> int:
    g = load_edge_list(args.input)
    write_edge_list(g, args.output)
    _write_manifest(args, [args.input], [args.output], {})
    if g.self_loops_dropped:
        print(f"dropped {g.self_loops_dropped} self-loop(s)", file=sys.stderr)
    return EXIT_OK


def _expand_values(text: str):
    """Parse "0,0.05,...,0.3" (arithmetic fill), "1,2,3", or "5"."""
    parts = [p.strip() for p in text.split(",")]
    if "..." in parts:
        k = parts.index("...")
        if k < 2 or k != len(parts) - 2:
            raise ValueError(f"bad progression {text!r}: need a,b,...,end")
        a, b = float(parts[k - 2]), float(parts[k - 1])
        end = float(parts[k + 1])
        step = b - a
        if step <= 0:
            raise ValueError(f"bad progression step in {text!r}")
        vals = [float(p) for p in parts[: k - 2]]
        v = a
        while v <= end + 1e-12:
            vals.append(round(v, 12))
            v += step
        return vals
    return [float(p) for p in parts]


def parse_grid(spec: str) -> dict:
    """Parse "p=q=0.02;eta=0,0.05,...,0.3;n=200;seeds=5" into a dict of
    lists; chained keys share values; "seeds=<count>" expands to
    range(count)."""
    grid: dict = {}
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        *keys, value = item.split("=")
        if not keys:
            raise ValueError(f"bad grid item {item!r}")
        vals = _expand_values(value)
        for key in keys:
            key = key.strip()
            if key == "seeds":
                if len(vals) == 1 and float(vals[0]).is_integer():
                    grid["seeds"] = list(range(int(vals[0])))
                else:
                    grid["seeds"] = [int(v) for v in vals]
            elif key == "n":
                grid["n"] = [int(v) for v in vals]
            else:
                grid[key] = vals
    return grid


def _bench_rows_dsbm(grid, args):
    ns = grid.get("n", [200])
    ps = grid.get("p", [0.02])
    qs = grid.get("q", ps)
    etas = grid.get("eta", [0.0])
    seeds = grid.get("seeds", [0])
    for n in ns:
        for p in ps:
            for q in qs:
                for eta in etas:
                    for seed in seeds:
                        params = DsbmParams(n=n, p=p, q=q, eta=eta, seed=seed)
                        g, _ = dsbm(params)
                        name = f"dsbm(n={n},p={p},q={q},eta={eta},seed={seed})"
                        pstr = f"n={n};p={p};q={q};eta={eta};seed={seed}"
                        yield name, pstr, g, seed


def _bench_rows_real(grid, args):
    names = grid.get("names")
    if names is None:
        raise DicondError("real suite needs --grid \"names=<name1,name2,...>\"")
    seeds = grid.get("seeds", [0])
    for name in names:
        path = fetch(name, registry_path=args.registry)
        g = load_edge_list(path)
        for seed in seeds:
            yield str(name), f"name={name};seed={seed}", g, seed


def cmd_bench(args) -> int:
    grid_text = args.grid or ""
    if args.suite == "real":
        # names are strings; parse them apart from the numeric grid
        grid = {}
        for item in grid_text.split(";"):
            if not item.strip():
                continue
            key, _, value = item.partition("=")
            if key.strip() == "names":
                grid["names"] = [v.strip() for v in value.split(",") if v.strip()]
            else:
                grid.update(parse_grid(item))
        rows_iter = _bench_rows_real(grid, args)
    else:
        grid = parse_grid(grid_text)
        rows_iter = _bench_rows_dsbm(grid, args)

    fieldnames = [
        "instance", "params", "dsi_phi", "sweep_phi", "oracle_phi",
        "iters", "wall_time", "certificate",
    ]
    rows = []
    for name, pstr, g, seed in rows_iter:
        t0 = time.perf_counter()
        cfg = SolverConfig(max_iters=args.max_iters, restarts=args.restarts, seed=seed)
        rep = dsi_solve(g, cfg)
        _, sweep_phi = spectral_sweep(g)
        oracle_phi = ""
        if args.with_oracle:
            try:
                oracle_phi = repr(float(brute_conductance(g, limit=args.oracle_limit).phi_d_min))
            except GraphTooLargeError:
                oracle_phi = ""
        wall = 0.0 if args.no_timings else time.perf_counter() - t0
        rows.append({
            "instance": name,
            "params": pstr,
            "dsi_phi": repr(float(rep.best_r)),
            "sweep_phi": repr(float(sweep_phi)),
            "oracle_phi": oracle_phi,
            "iters": rep.iterations,
            "wall_time": repr(wall),
            "certificate": rep.certificate,
        })

    out = args.out_csv
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        _write_manifest(args, [], [out], {"grid": grid_text, "suite": args.suite})
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dicond", description=__doc__.split("\n\n")[0])
    ap.add_argument("--version", action="version", version=f"dicond {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--restarts", type=int, default=8)
        p.add_argument("--max-iters", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--init", default="mixed", choices=INIT_MODES)

    p = sub.add_parser("solve", help="minimize conductance on an edge-list graph")
    p.add_argument("graph")
    add_solver_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--no-timings", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive minimum for small graphs")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=24)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="spectral sweep-cut baseline")
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-dsbm", help="sample a two-block DSBM digraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dsbm)

    p = sub.add_parser("bench", help="benchmark grid to CSV")
    p.add_argument("--suite", choices=["dsbm", "real"], required=True)
    p.add_argument("--grid", default="")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--oracle-limit", type=int, default=20)
    p.add_argument("--registry", default=None)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--no-timings", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fetch", help="download a registered dataset into the cache")
    p.add_argument("name")
    p.add_argument("--registry", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("convert", help="normalize an edge list (gzip by extension)")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    args._raw_rest = argv
    try:
        return args.func(args)
    except GraphTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (DicondError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
