"""The report probe (tools/report_probe.py) against its committed output.

A case whose line moved has a different solve report or sweep value
than when tools/probe.jsonl was recorded. The probe sweeps each graph
right after solving it, so the shared per-graph caches are on its path.
Three metamorphic checks solve transformed probe graphs against the
record: scaling every weight keeps each report, and reversing every arc
keeps best_r, exactly on the exact-sums cases and to rounding on the
others.
"""

import json

from dicond import SolverConfig, build_graph, dsi_solve

from conftest import TOOLS, report_probe


def _by_name(lines):
    return {doc["name"]: doc for doc in map(json.loads, lines)}


def _recorded():
    return _by_name((TOOLS / "probe.jsonl").read_text().splitlines())


def test_probe_reports_match_the_committed_output():
    want = _recorded()
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
    # the two round differently, by a few ulps, and conductance_set
    # itself can score a set and its complement a few ulps apart
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


def test_scaling_every_weight_by_two_to_the_ten_keeps_each_report():
    # an even power of two scales every sum exactly and sqrt(d) by a
    # power of two, so the embedding, every ratio and every tie stay
    # bit for bit. Every fifth case covers each family of the probe
    # (both weight kinds of both random recipes, the DSBM components at
    # each eta, the three kinds of cores and prechecks); the six named
    # cases are added
    probe = report_probe()
    want = _recorded()
    cases = list(probe.cases())
    moved = []
    for i, (name, seed) in enumerate(cases):
        if i % 5 and i < len(cases) - 6:
            continue
        g = probe.case_graph(name)
        for k in (10, -10):
            scaled = build_graph(g.n, g.tails, g.heads, g.weights * 2.0**k, g.labels)
            if probe.report_digest(dsi_solve(scaled, SolverConfig(seed=seed))) != want[name]["digest"]:
                moved.append((name, k))
    assert not moved, f"scaling moved {moved}"


# the exact-sums cases where reversing every arc moves best_r, with the
# traced cause: the winning restart of "rounding" (random-2) takes J = 0
# at its first step with d_delta[i*] = 0, so _assemble signs y by
# Sign(0) = +1 on both graphs; reversal negates d_delta, so y flips and
# the two runs part at once
REVERSAL_EXCEPTIONS = {"rounding"}


def test_reversing_every_arc_keeps_best_r_on_exact_sums_cases():
    # reversal swaps cut+ and cut- and negates d_out - d_in, so it keeps
    # every conductance; every sweep cuts only between distinct values,
    # so the imbalance seed of the reversed graph is the complement of
    # the original's. On exact sums both best_r are exactly rounded
    probe = report_probe()
    want = _recorded()
    moved, checked = set(), 0
    for name, seed in probe.cases():
        g = probe.case_graph(name)
        if not g.exact_sums:
            continue
        checked += 1
        rev = build_graph(g.n, g.heads, g.tails, g.weights, g.labels)
        if dsi_solve(rev, SolverConfig(seed=seed)).best_r != want[name]["best_r"]:
            moved.add(name)
    assert checked == 235
    assert moved == REVERSAL_EXCEPTIONS, f"reversal moved best_r on {sorted(moved)}"


def test_reversing_every_arc_keeps_best_r_to_rounding_on_float_weights():
    # off exact sums, reversal reorders the additions in every cut and
    # volume sum, so best_r may move in its last bits (by at most 2.1e-14
    # relative on the probe)
    probe = report_probe()
    want = _recorded()
    moved, checked = [], 0
    for name, seed in probe.cases():
        g = probe.case_graph(name)
        if g.exact_sums:
            continue
        checked += 1
        rev = build_graph(g.n, g.heads, g.tails, g.weights, g.labels)
        got, ref = dsi_solve(rev, SolverConfig(seed=seed)).best_r, want[name]["best_r"]
        if not abs(got - ref) <= 1e-12 * ref:
            moved.append((name, ref, got))
    assert checked == 491
    assert not moved, f"reversal moved best_r by more than 1e-12 relative on {moved}"
