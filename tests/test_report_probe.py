"""The report probe (tools/report_probe.py) against its committed output.

A case whose line moved has a different solve report or sweep value
than when tools/probe.jsonl was recorded. The probe sweeps each graph
right after solving it, so the shared per-graph caches are on its path.
"""

import json

from conftest import TOOLS, report_probe


def _by_name(lines):
    return {json.loads(line)["name"]: line for line in lines}


def test_probe_reports_match_the_committed_output():
    want = _by_name((TOOLS / "probe.jsonl").read_text().splitlines())
    got = _by_name(report_probe().probe_lines())
    moved = [name for name in want if name in got and got[name] != want[name]]
    assert not moved, f"{len(moved)} probe cases moved: {moved}"
    assert list(got) == list(want), "the probe's case list changed"


def test_no_probe_solve_is_above_its_sweep():
    # the sweep restart starts from the sweep's set, and both values are
    # conductance_set of the reported set, so the bound holds exactly
    lines = [json.loads(line) for line in (TOOLS / "probe.jsonl").read_text().splitlines()]
    above = [doc["name"] for doc in lines if not doc["best_r"] <= doc["sweep_phi"]]
    assert not above, f"best_r > sweep_phi in {above}"
