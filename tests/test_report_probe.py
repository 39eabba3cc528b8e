"""The report probe (tools/report_probe.py) against its committed output.

A case whose line moved has a different solve report or sweep value
than when tools/probe.jsonl was recorded. The probe sweeps each graph
right after solving it, so the shared per-graph caches are on its path.
"""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _probe_module():
    spec = importlib.util.spec_from_file_location("report_probe", TOOLS / "report_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_name(lines):
    return {json.loads(line)["name"]: line for line in lines}


def test_probe_reports_match_the_committed_output():
    want = _by_name((TOOLS / "probe.jsonl").read_text().splitlines())
    got = _by_name(_probe_module().probe_lines())
    moved = [name for name in want if name in got and got[name] != want[name]]
    assert not moved, f"{len(moved)} probe cases moved: {moved}"
    assert list(got) == list(want), "the probe's case list changed"
