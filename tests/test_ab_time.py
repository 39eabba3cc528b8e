"""tools/ab_time.py: two checkouts timed in one process, reports compared."""

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
    assert "speed" in lines[1] and "solve p50" in lines[1]
    assert lines[-1] == "digests: all 4 instances identical"


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
    assert run.stdout.splitlines()[-1].startswith("DIGESTS DIFFER on 4 of 4 instances")
