"""The report probe (tools/report_probe.py) against its committed output.

A case whose line moved has a different solve report or sweep value
than when tools/probe.jsonl was recorded. The probe sweeps each graph
right after solving it, so the shared per-graph caches are on its path.
"""

import json

from conftest import TOOLS, report_probe


def _by_name(lines):
    return {doc["name"]: doc for doc in map(json.loads, lines)}


def test_probe_reports_match_the_committed_output():
    want = _by_name((TOOLS / "probe.jsonl").read_text().splitlines())
    got = _by_name(report_probe().probe_lines())
    # the fields that moved, per case: a moved digest alone is a change
    # in the last bits of best_x or r_trace (see the probe's docstring)
    moved = {name: sorted(k for k in want[name].keys() | got[name].keys()
                          if want[name].get(k) != got[name].get(k))
             for name in want if name in got and got[name] != want[name]}
    assert not moved, f"{len(moved)} probe cases moved: {moved}"
    assert list(got) == list(want), "the probe's case list changed"


def test_no_probe_solve_is_above_its_sweep():
    # the sweep restart starts from the sweep's set, and both values are
    # conductance_set of the reported set, so the bound holds exactly
    lines = [json.loads(line) for line in (TOOLS / "probe.jsonl").read_text().splitlines()]
    above = [doc["name"] for doc in lines if not doc["best_r"] <= doc["sweep_phi"]]
    assert not above, f"best_r > sweep_phi in {above}"


def test_no_probe_solve_is_below_the_oracle():
    # the probe records the exhaustive minimum on graphs with n <= 12.
    # On exact-sums graphs the oracle's matmul sums and conductance_set's
    # masked sums are both exact, so the bound holds exactly; elsewhere
    # the two round differently, by a few ulps
    probe = report_probe()
    lines = [json.loads(line) for line in (TOOLS / "probe.jsonl").read_text().splitlines()]
    checked = [doc for doc in lines if "oracle_phi" in doc]
    assert len(checked) == sum(doc["n"] <= 12 for doc in lines) > 0
    below = []
    for doc in checked:
        g = probe.case_graph(doc["name"])
        slack = 0.0 if g.exact_sums else 1e-12 * doc["best_r"]
        if not doc["oracle_phi"] <= doc["best_r"] + slack:
            below.append(doc["name"])
    assert not below, f"best_r < oracle_phi in {below}"
