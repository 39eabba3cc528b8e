"""Run one dicond benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dsbm-lscc --seed 811 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory. The last line of standard output is the result
object (``correct``, ``attempted``, ``failed``, ``metrics``); the line
before it is the detail document (samples, digests, provenance,
calibration). The detail document is also written to ``perfbench/.out``,
with the spans of a traced run.
"""

import os

# pin BLAS/OpenMP to one thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import dicond
    except ImportError as exc:
        print(f"perfbench: cannot import dicond from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(dicond.__file__).resolve().parents:
        print(f"perfbench: dicond imported from {dicond.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    from perfbench.bench import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=811)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = HERE / ".out"
    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), HERE / ".work", out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
