"""tools/ab_time.py: two checkouts timed in one process, reports compared."""

import re
import shutil
import subprocess
import sys

from conftest import TOOLS

ROOT = TOOLS.parent


def _ab_time(old, new):
    return subprocess.run(
        [sys.executable, str(TOOLS / "ab_time.py"), str(old), str(new),
         "--workload", "oracle-small", "--count", "4", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)


def test_a_checkout_against_itself_reports_identical_digests():
    run = _ab_time(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[1:3]] == ["round 1", "round 2"]
    for line in lines[1:3]:
        assert re.fullmatch(r"round [12]: total \S+ s -> \S+ s, speed \S+x; "
                            r"solve p50 \S+ ms -> \S+ ms, \S+x; sweep p50 \S+ ms -> \S+ ms, \S+x", line)
    assert lines[-1] == "digests: all 4 instances identical"
    assert re.fullmatch(r"median speed \S+x \(rounds \S+, new faster in [0-2] of 2\); "
                        r"solve p50 \S+x \(rounds \S+, new faster in [0-2] of 2\); "
                        r"sweep p50 \S+x \(rounds \S+, new faster in [0-2] of 2\)", lines[-2])


def test_the_summary_counts_the_rounds_that_new_won(monkeypatch):
    # importing the script pins the BLAS thread variables; the test
    # restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOLS))
    from ab_time import summary

    # a tie (1.0) counts for neither side
    assert summary([1.2, 0.9, 1.0, 1.1]) == "1.050x (rounds 0.900-1.200, new faster in 2 of 4)"
    assert summary([0.8]) == "0.800x (rounds 0.800-0.800, new faster in 0 of 1)"


def test_a_checkout_whose_reports_differ_fails(tmp_path):
    old = tmp_path / "old"
    shutil.copytree(ROOT / "src" / "dicond", old / "src" / "dicond",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = old / "src" / "dicond" / "solver.py"
    text = solver.read_text()
    assert text.count('"init_kind": self.init_kind,') == 1
    solver.write_text(text.replace('"init_kind": self.init_kind,', '"init_kind": "?",'))
    run = _ab_time(old, ROOT)
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1].startswith("RESULTS DIFFER on 4 of 4 instances")
    # only the report changed: each result is counted apart
    assert lines[-2] == "instances that differ: report digest 4, sweep value 0, oracle value 0"
    assert lines[-3] == "best_r on new: 0 lower, 4 equal, 0 higher"


def test_a_checkout_with_a_higher_best_r_is_counted(tmp_path):
    # a copy whose every report carries best_r + 1
    old = tmp_path / "old"
    shutil.copytree(ROOT / "src" / "dicond", old / "src" / "dicond",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = old / "src" / "dicond" / "solver.py"
    solver.write_text(solver.read_text() + (
        "\n\n_dsi_solve = dsi_solve\n\n\n"
        "def dsi_solve(g, cfg=None):\n"
        "    rep = _dsi_solve(g, cfg)\n"
        "    return replace(rep, best_r=rep.best_r + 1.0)\n"))
    for args, counts in (((old, ROOT), "4 lower, 0 equal, 0 higher"),
                         ((ROOT, old), "0 lower, 0 equal, 4 higher")):
        run = _ab_time(*args)
        assert run.returncode == 1, run.stderr
        lines = run.stdout.splitlines()
        assert lines[-3] == f"best_r on new: {counts}"
        assert lines[-1].startswith("RESULTS DIFFER on 4 of 4 instances")
