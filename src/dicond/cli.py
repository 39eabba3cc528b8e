"""Command-line interface: solve, oracle, sweep, DSBM generation,
benchmark grids, dataset fetch, and format conversion.

Every file output is listed in a sidecar <out>.manifest.json, one per
command and named after its first output file, capturing the
command, inputs (with content hashes), config, seeds, and tool version:
rerunning with the same manifest inputs reproduces the outputs byte for
byte (use --no-timings to zero out wall-clock fields, which are the only
nondeterministic bytes). A command whose output names one of its inputs
or another output exits 3 before it writes anything.

Exit codes: 0 success, 2 usage error, 3 data error, 4 size-limit error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
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
from .oracle import LIMIT, brute_conductance
from .solver import SolverConfig, _sorted_labels, dsi_solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SIZE = 4


def _claim_files(args, inputs, outputs, config: dict):
    """Check a command's files before it writes any: raise DicondError
    where an output or the manifest <first output>.manifest.json resolves
    to an input or another output. Returns the function that writes the
    manifest (a no-op without output files), with the inputs hashed now."""
    outputs = [str(p) for p in outputs if p]
    if not outputs:
        return lambda: None
    manifest = Path(outputs[0] + ".manifest.json")
    claimed = {Path(p).resolve(): p for p in inputs}
    for p in outputs + [str(manifest)]:
        key = Path(p).resolve()
        if key in claimed:
            raise DicondError(f"{claimed[key]} and {p} name the same file")
        claimed[key] = p
    text = json.dumps({
        "tool": "dicond",
        "version": __version__,
        "schema_version": 1,
        "command": args.argv,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs if Path(p).exists()],
        "outputs": outputs,
        "config": config,
    }, indent=2, sort_keys=True) + "\n"
    return lambda: manifest.write_text(text)


def _emit(doc: dict, out_path, write_manifest) -> None:
    """Write doc as JSON to out_path, or to stdout without one, then the
    manifest (write_manifest from _claim_files)."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    write_manifest()


def cmd_solve(args) -> int:
    settings = {k: getattr(args, k) for k in ("restarts", "max_iters", "seed")}
    write_manifest = _claim_files(args, [args.graph], [args.out, args.trace_csv], {"solver": settings})
    g = load_edge_list(args.graph)
    rep = dsi_solve(g, SolverConfig(**settings))
    doc = rep.to_dict(with_timings=not args.no_timings)
    doc["n"] = g.n
    doc["m"] = g.m
    if args.trace_csv:
        with open(args.trace_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "r"])
            writer.writerows(enumerate(doc["r_trace"]))
    _emit(doc, args.out, write_manifest)
    return EXIT_OK


def cmd_oracle(args) -> int:
    write_manifest = _claim_files(args, [args.graph], [args.out], {"limit": args.limit})
    g = load_edge_list(args.graph)
    res = brute_conductance(g, limit=args.limit)
    doc = {
        "phi_d_min": res.phi_d_min,
        "argmin_d": _sorted_labels(g.labels, res.argmin_d),
        "subsets_enumerated": res.subsets_enumerated,
        "n": g.n,
        "m": g.m,
    }
    _emit(doc, args.out, write_manifest)
    return EXIT_OK


def cmd_sweep(args) -> int:
    write_manifest = _claim_files(args, [args.graph], [args.out], {})
    g = load_edge_list(args.graph)
    mask, phi = spectral_sweep(g)
    doc = {"phi": phi, "set": _sorted_labels(g.labels, mask), "n": g.n, "m": g.m}
    _emit(doc, args.out, write_manifest)
    return EXIT_OK


def _report_isolated(count: int) -> None:
    if count:
        print(f"the edge list leaves out {count} isolated vertex(es): it holds only vertices with arcs",
              file=sys.stderr)


def cmd_gen_dsbm(args) -> int:
    settings = {k: getattr(args, k) for k in ("n", "p", "q", "eta", "seed")}
    side = Path(str(args.out) + ".labels")
    write_manifest = _claim_files(args, [], [args.out, side], {"params": settings})
    g, planted = dsbm(DsbmParams(**settings))
    isolated = write_edge_list(g, args.out)
    with open(side, "w") as fh:
        for lab, block in zip(g.labels, planted):
            fh.write(f"{lab} {block}\n")
    write_manifest()
    _report_isolated(isolated)
    return EXIT_OK


def cmd_fetch(args) -> int:
    path = fetch(args.name, registry_path=args.registry, force=args.force)
    print(path)
    return EXIT_OK


def cmd_convert(args) -> int:
    write_manifest = _claim_files(args, [args.input], [args.output], {})
    g = load_edge_list(args.input)
    isolated = write_edge_list(g, args.output)
    write_manifest()
    if g.self_loops_dropped:
        print(f"dropped {g.self_loops_dropped} self-loop(s)", file=sys.stderr)
    _report_isolated(isolated)
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
        i = 0
        while a + i * step <= end + 1e-12:  # a + i*step, not a running sum, which drifts
            vals.append(round(a + i * step, 12))
            i += 1
        return vals
    return [float(p) for p in parts]


def parse_grid(spec: str) -> dict:
    """Parse "p=q=0.02;eta=0,0.05,...,0.3;n=200;seeds=5" into a dict of
    lists; chained keys share values; "seeds=<count>" expands to
    range(count); "names=a,b" is a list of strings. n and seeds take
    integers only, a seed count must be at least 1, and every axis needs
    a value."""
    grid: dict = {}
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        *keys, value = item.split("=")
        if not keys:
            raise ValueError(f"bad grid item {item!r}")
        for key in keys:
            key = key.strip()
            if key == "names":
                vals = [v.strip() for v in value.split(",") if v.strip()]
            else:
                vals = _expand_values(value)
            if not vals:
                raise ValueError(f"grid axis {key} has no values in {item!r}")
            if key in ("n", "seeds"):
                if not all(v.is_integer() for v in vals):
                    raise ValueError(f"{key} takes integers, got {value!r}")
                vals = [int(v) for v in vals]
            if key == "seeds" and len(vals) == 1:
                if vals[0] < 1:
                    raise ValueError(f"seed count must be >= 1, got {value!r}")
                vals = list(range(vals[0]))
            grid[key] = vals
    return grid


def _bench_rows_dsbm(grid, args):
    ps = grid.get("p", [0.02])
    axes = (grid.get("n", [200]), ps, grid.get("q", ps), grid.get("eta", [0.0]),
            grid.get("seeds", [0]))
    for n, p, q, eta, seed in itertools.product(*axes):
        g, _ = dsbm(DsbmParams(n=n, p=p, q=q, eta=eta, seed=seed))
        pstr = f"n={n};p={p};q={q};eta={eta};seed={seed}"
        yield f"dsbm({pstr.replace(';', ',')})", pstr, g, seed, None


def _bench_rows_real(grid, args):
    names = grid.get("names")
    if names is None:
        raise DicondError("real suite needs --grid \"names=<name1,name2,...>\"")
    seeds = grid.get("seeds", [0])
    for name in names:
        path = fetch(name, registry_path=args.registry)
        g = load_edge_list(path)
        for seed in seeds:
            yield name, f"name={name};seed={seed}", g, seed, path


SUITE_GRID_KEYS = {"dsbm": {"n", "p", "q", "eta", "seeds"}, "real": {"names", "seeds"}}


def cmd_bench(args) -> int:
    grid = parse_grid(args.grid)
    unknown = sorted(set(grid) - SUITE_GRID_KEYS[args.suite])
    if unknown:
        raise DicondError(f"--suite {args.suite} does not read grid key(s) {', '.join(unknown)}")
    rows_iter = (_bench_rows_real if args.suite == "real" else _bench_rows_dsbm)(grid, args)

    fieldnames = [
        "instance", "params", "dsi_phi", "sweep_phi", "oracle_phi",
        "iters", "wall_time", "certificate",
    ]
    rows, inputs = [], []
    for name, pstr, g, seed, path in rows_iter:
        if path is not None and path not in inputs:
            inputs.append(path)
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
    write_manifest = _claim_files(args, inputs, [out], {"grid": args.grid, "suite": args.suite})
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    write_manifest()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dicond", description=__doc__.split("\n\n")[0])
    ap.add_argument("--version", action="version", version=f"dicond {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_iteration_flags(p):
        p.add_argument("--restarts", type=int, default=SolverConfig.restarts,
                       help="restart count (default %(default)s); best_r <= the sweep's phi "
                       "holds only from 2 on, as 1 runs the spectral seed alone")
        p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)

    p = sub.add_parser("solve", help="minimize conductance on an edge-list graph")
    p.add_argument("graph")
    add_iteration_flags(p)
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument("--out", default=None)
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--no-timings", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive minimum for small graphs")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=LIMIT)
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
    p.add_argument("--suite", choices=list(SUITE_GRID_KEYS), required=True)
    p.add_argument("--grid", default="")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--oracle-limit", type=int, default=20)
    p.add_argument("--registry", default=None)
    add_iteration_flags(p)
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
    args.argv = argv
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
