import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dicond import (
    ConstantVectorError,
    DsbmParams,
    SolverConfig,
    brute_conductance,
    build_graph,
    canonical,
    conductance_set,
    dsbm,
    dsi_run,
    dsi_solve,
    r_obj,
    subproblem_argmin,
    sweep_cut,
    verify_local_opt,
)
import dicond.solver
from dicond.baselines import spectral_sweep
from dicond.solver import CERT_BOUNDARY, CERT_MAX_ITERS, CERT_NO_DESCENT, CERT_PRECHECK, flip_conductances
from dicond.subgrad import general_step, iterate_state

from conftest import random_digraph, report_probe


def l1_sphere_topk_minimum(s):
    """Independent oracle for the subproblem: the optimum puts equal
    mass on a top-k prefix of |s|, so enumerate all k."""
    s = np.asarray(s, dtype=float)
    n = s.size
    a = np.sort(np.abs(s))[::-1]
    best = np.inf
    for k in range(1, n + 1):
        best = min(best, (1.0 - a[:k].sum()) / k)
    return best


def _wide_weight_digraph(seed):
    """Random digraph with weights spanning 1e-3..1e3 (weights drawn first)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    m = 3 * n
    w = 10.0 ** rng.uniform(-3, 3, m)
    return build_graph(n, rng.integers(0, n, m), rng.integers(0, n, m), w)


def test_subproblem_examples():
    x, l = subproblem_argmin(np.array([0.8, -0.5, 0.1]))
    assert x.tolist() == [0.5, -0.5, 0.0]
    assert l == pytest.approx(-0.15)

    x, l = subproblem_argmin(np.array([-0.25, -1.0, 0.25]))
    assert np.allclose(x, [-1 / 3, -1 / 3, 1 / 3])
    assert l == pytest.approx(-1 / 6)

    x, l = subproblem_argmin(np.array([0.3, 0.2, 0.1]))
    assert np.allclose(x, [1 / 3, 1 / 3, 1 / 3])
    assert l == pytest.approx(1 / 3 - 0.2)
    assert l >= 0


def test_subproblem_all_zero():
    x, l = subproblem_argmin(np.zeros(4))
    assert np.allclose(x, 0.25)
    assert l == pytest.approx(0.25)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_subproblem_matches_enumeration_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    vals = data.draw(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    s = np.array(vals)
    x, l = subproblem_argmin(s)
    assert np.abs(x).sum() == pytest.approx(1.0, abs=1e-12)
    assert l == pytest.approx(float(np.max(np.abs(x)) - x @ s), abs=1e-12)
    assert l <= l1_sphere_topk_minimum(s) + 1e-12


def test_subproblem_degenerate_tie_band():
    # partial sums hit 1 exactly: the whole tied band stays active
    x, l = subproblem_argmin(np.array([1.5, 0.5]))
    assert np.allclose(x, [0.5, 0.5])
    assert l == pytest.approx(-0.5)


def _subproblem_by_sort(s):
    """The subproblem rule with the full sort on every call: the
    reference for the sort-free return of the uniform sign vector."""
    n = s.size
    sgn = np.where(s >= 0, 1.0, -1.0)
    abs_s = np.abs(s)
    order = np.argsort(-abs_s, kind="stable")
    a = abs_s[order]
    partial = np.cumsum(a) - np.arange(1, n + 1) * np.append(a[1:], 0.0)
    if partial[-1] <= 1.0:
        x = sgn / n
        return x, 1.0 / n - float(np.dot(x, s))
    m0 = int(np.argmax(partial > 1.0)) + 1
    z = np.zeros(n)
    z[order[:m0]] = 1.0
    x = sgn * z / m0
    return x, float(np.max(np.abs(x)) - np.dot(x, s))


def test_subproblem_equals_full_sort_near_the_unit_norm():
    rng = np.random.default_rng(38)
    deltas = [-1e-3, -2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9, 1e-3, 0.5]
    for trial in range(300):
        n = int(rng.integers(2, 40))
        sgn = rng.choice([-1.0, 1.0], size=n)
        mag = rng.uniform(0.0, 1.0, n)
        if trial % 6 == 0:
            mag[int(rng.integers(n))] = 0.0  # min|s| = 0: A_{n-1} = ||s||_1
        for delta in deltas:
            if trial % 3 == 0:  # ||s||_1 = 1 + delta
                s = sgn * mag * ((1.0 + delta) / mag.sum())
            elif trial % 3 == 1:  # near-uniform |s| with ||s||_1 = 1 + delta
                s = sgn * (1.0 + 1e-3 * mag) * ((1.0 + delta) / (n + 1e-3 * mag.sum()))
            else:  # A_{n-1} = ||s||_1 - n min|s| = 1 + delta
                m = mag[0]
                s = sgn * np.full(n, m + (1.0 + delta) / (n - 1))
                s[int(rng.integers(n))] = sgn[0] * m
            x, val = subproblem_argmin(s)
            x_ref, val_ref = _subproblem_by_sort(s)
            assert x.tolist() == x_ref.tolist() and val == val_ref, (trial, delta)


def test_dsi_run_p3_trace(p3):
    rep = dsi_run(p3, np.array([1.0, -1.0, 1.0]), SolverConfig(self_check=True))
    assert rep.r_trace == (0.5, 0.0)
    assert rep.iterations == 1
    assert rep.certificate == CERT_BOUNDARY
    assert np.allclose(rep.best_x, [-1 / 3, -1 / 3, 1 / 3])
    assert rep.best_set_labels in (("3",), ("1",))
    assert rep.best_r == 0.0
    assert rep.is_flip_local_opt


def test_a_solve_sorts_only_the_labels_it_returns(monkeypatch):
    # a 6-cycle with a heavy chord; labels out of their sorted order
    g = build_graph(6, [0, 1, 2, 3, 4, 5, 0], [1, 2, 3, 4, 5, 0, 3], [1, 1, 1, 1, 1, 1, 4],
                    labels=["10", "9", "b", "a", "2", "x"])
    x1 = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    rep = dsi_run(g, x1, SolverConfig())
    natural = sorted((g.labels[i] for i in np.flatnonzero(rep.best_set)),
                     key=lambda s: (0, int(s)) if s.isdecimal() else (1, s))
    assert list(rep.best_set_labels) == natural

    calls = []
    sort = dicond.solver._sorted_labels
    monkeypatch.setattr(dicond.solver, "_sorted_labels",
                        lambda labels, mask: calls.append(1) or sort(labels, mask))
    solved = dsi_solve(g, SolverConfig(restarts=8))
    assert calls == []  # nothing is sorted until best_set_labels is read
    first = solved.best_set_labels
    assert solved.best_set_labels is first and len(calls) == 1
    assert first == sort(g.labels, solved.best_set)


def test_dsi_run_c3_immediate_stop(c3):
    rep = dsi_run(c3, np.array([1.0, -1.0, -1.0]), SolverConfig())
    assert rep.certificate == CERT_BOUNDARY
    assert rep.r_trace == (0.5,)
    assert rep.iterations == 0
    assert rep.best_r == 0.5


# a binary start where V_b is empty, yet flipping vertex 0 reaches ratio 0
# (test_known_boundary_blind_spot)
BLIND_SPOT = (build_graph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 0, 2, 1]), np.array([-1.0, 1.0, 1.0, -1.0]))


def _count_calls(monkeypatch, name):
    """Record the calls to the dicond.solver global name."""
    calls = []
    real = getattr(dicond.solver, name)
    monkeypatch.setattr(dicond.solver, name, lambda *a, **kw: (calls.append(a), real(*a, **kw))[1])
    return calls


def _assert_descent(g, rep):
    tr = rep.r_trace
    assert all(tr[i + 1] < tr[i] for i in range(len(tr) - 1))
    assert rep.best_r == conductance_set(g, rep.best_set)[0]


def test_dsi_run_takes_a_rescue_flip_at_a_blind_spot(monkeypatch):
    g, x = BLIND_SPOT
    assert general_step(g, iterate_state(g, x))[0].size == 0
    sweeps = _count_calls(monkeypatch, "flip_conductances")
    rep = dsi_run(g, x, SolverConfig(self_check=True))
    # the sweep that flips and the one that certifies the stop; the run
    # stops at its best iterate, so the final is_flip_local_opt test
    # reuses the second sweep's conductances
    assert len(sweeps) == 2
    assert rep.r_trace == (0.2, 0.0) and rep.iterations == 1
    assert rep.certificate == CERT_BOUNDARY
    fresh = dicond.solver.flip_conductances(g, rep.best_set)
    assert rep.is_flip_local_opt == bool(fresh.min() >= rep.best_r - 1e-12)
    _assert_descent(g, rep)


def test_dsi_run_rounds_a_non_binary_stall_and_continues(monkeypatch):
    # V_b is empty at this start, whose vertex 3 is interior: the first
    # move is the sweep-cut rounding, and two subproblem steps follow it
    g = build_graph(4, [0, 1, 2, 2, 3, 3], [3, 0, 0, 1, 1, 2], [1.0, 2.0, 2.0, 1.0, 3.0, 1.0])
    x = np.array([-1.0, 1.0, -1.0, 0.0])
    assert general_step(g, iterate_state(g, x))[0].size == 0
    sweeps = _count_calls(monkeypatch, "sweep_cut")
    rep = dsi_run(g, x, SolverConfig(self_check=True))
    assert len(sweeps) == 2  # the rounding and the final best_set
    assert rep.iterations == 3 and len(rep.r_trace) == 4
    assert rep.certificate == CERT_BOUNDARY
    _assert_descent(g, rep)


def test_dsi_run_refuses_a_rescue_flip_that_does_not_descend(monkeypatch):
    # the flip sweep reports a spurious improvement once, at the stall
    # that the first rescue flip reaches; the evaluated flip does not
    # descend, so the run stops there and the trace gains nothing
    g, x = BLIND_SPOT
    real = dicond.solver.flip_conductances
    calls = []

    def spurious(g, s):
        phis = real(g, s)
        calls.append(s)
        if len(calls) == 2:
            phis[np.argmin(phis)] = -1.0
        return phis

    monkeypatch.setattr(dicond.solver, "flip_conductances", spurious)
    rep = dsi_run(g, x, SolverConfig())
    assert rep.certificate == CERT_NO_DESCENT
    assert rep.r_trace == (0.2, 0.0) and rep.iterations == 2
    _assert_descent(g, rep)


def test_dsi_solve_disconnected_precheck():
    g = build_graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    rep = dsi_solve(g, SolverConfig())
    assert rep.certificate == CERT_PRECHECK
    assert rep.best_r == 0.0
    assert rep.iterations == 0
    assert rep.is_flip_local_opt


def test_dsi_run_constant_start_raises(p3):
    with pytest.raises(ConstantVectorError):
        dsi_run(p3, np.ones(3), SolverConfig())


@pytest.mark.parametrize(("x1", "got"), [
    ([1.0, -1.0], r"got shape \(2,\)"), ([1.0, -1.0, 1.0, -1.0], r"got shape \(4,\)"),
    ([[1.0], [-1.0], [1.0]], r"got shape \(3, 1\)"), ([1.0, np.nan, -1.0], "got nan at index 1"),
    ([1.0, np.inf, -1.0], "got inf at index 1"), ([-np.inf, 0.0, 1.0], "got -inf at index 0")],
    ids=["short", "long", "column", "nan", "inf", "minus-inf"])
def test_dsi_run_rejects_a_start_vector_of_the_wrong_shape_or_not_finite(c3, x1, got):
    # a short vector once raised IndexError inside iterate_state, and a
    # NaN or infinite one read as a constant vector
    with pytest.raises(ValueError, match="n = 3 finite values; " + got) as err:
        dsi_run(c3, np.array(x1), SolverConfig())
    assert not isinstance(err.value, ConstantVectorError)


def test_sweep_cut_level_set_examples(p3):
    mask = sweep_cut(p3, np.array([-1 / 3, -1 / 3, 1 / 3]))
    assert mask.tolist() == [False, False, True]
    assert conductance_set(p3, mask)[0] == 0.0

    # +/-1 indicators reproduce their own sign partition
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(3, 8)))
        x = rng.choice([-1.0, 1.0], size=g.n)
        if not (x > 0).any() or (x > 0).all():
            continue
        try:
            phi_direct = conductance_set(g, x > 0)[0]
        except Exception:
            continue
        mask = sweep_cut(g, x)
        assert mask.tolist() == (x > 0).tolist()
        assert conductance_set(g, mask)[0] == pytest.approx(phi_direct, abs=1e-12)

    mask = sweep_cut(p3, np.array([0.9, 0.5, 0.1]))
    assert conductance_set(p3, mask)[0] == 0.0
    assert mask.tolist() == [True, False, False]  # both prefixes tie at 0; smaller wins


def test_verify_local_opt_examples(c3, p3, p2):
    assert verify_local_opt(c3, np.array([True, False, False]))
    assert not verify_local_opt(p3, np.array([True, False, True]))
    assert verify_local_opt(p2, np.array([True, False]))


def test_verify_local_opt_skips_flips_that_empty_a_side_of_volume():
    # flipping vertex 7 leaves every positive-degree vertex on one side;
    # r is undefined there, and the check once raised ConstantVectorError
    g = _wide_weight_digraph(287)
    s = np.ones(g.n, dtype=bool)
    s[[2, 7]] = False
    assert verify_local_opt(g, s)


@pytest.mark.parametrize("seed, bits", [(222, 68), (222, 187), (248, 260), (266, 32)])
def test_verify_local_opt_decides_by_conductance_set(seed, bits):
    # each set has conductance 0, a global minimum; on these weights the
    # rounding of r_obj (about 2e-12) once made one of its flips look better
    g = _wide_weight_digraph(seed)
    s = (bits >> np.arange(g.n)) & 1 == 1
    assert conductance_set(g, s)[0] == 0.0
    assert verify_local_opt(g, s)
    assert flip_conductances(g, s).min() >= -1e-12


def test_dsi_solve_monotone_trace_and_identity():
    rng = np.random.default_rng(32)
    for trial in range(40):
        g = random_digraph(rng, int(rng.integers(3, 11)), weighted=bool(trial % 2))
        rep = dsi_solve(g, SolverConfig(seed=trial, self_check=True))
        tr = rep.r_trace
        assert all(tr[i + 1] < tr[i] for i in range(len(tr) - 1))
        assert rep.iterations <= 1000
        assert rep.best_r == conductance_set(g, rep.best_set)[0]
        if rep.certificate == CERT_BOUNDARY:
            assert rep.is_flip_local_opt
        assert rep.is_flip_local_opt == verify_local_opt(g, rep.best_set)


def test_dsi_solve_bounded_by_oracle_and_sweep():
    rng = np.random.default_rng(33)
    for trial in range(30):
        g = random_digraph(rng, int(rng.integers(3, 12)))
        opt = brute_conductance(g).phi_d_min
        _, sweep_phi = spectral_sweep(g)
        rep = dsi_solve(g, SolverConfig(seed=trial))
        assert rep.best_r >= opt - 1e-9
        assert rep.best_r <= sweep_phi + 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="with one restart only the spectral seed runs, so nothing pins "
    "best_r to the sweep; best_r <= sweep holds from 2 restarts on",
)
def test_one_restart_keeps_best_r_at_or_below_the_sweep():
    # a strongly connected unit-weight graph (n = 11, m = 38; parallel
    # arcs of weight 2) where restarts=1 ends at best_r 7/41 against the
    # sweep's 1/11
    tails = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8, 9, 9, 9, 9, 10, 10, 10, 10, 10]
    heads = [1, 2, 6, 9, 2, 4, 9, 0, 1, 3, 6, 1, 2, 0, 5, 7, 1, 4, 6, 7, 2, 3, 8, 10, 2, 6, 10, 0, 10, 0, 6, 8, 10, 0, 1, 2, 7, 8]
    weights = np.ones(38)
    weights[[7, 18, 26, 33]] = 2.0
    g = build_graph(11, tails, heads, weights)
    assert dsi_solve(g, SolverConfig(restarts=1)).best_r <= spectral_sweep(g)[1]


def test_dsi_solve_deterministic(c3):
    rng = np.random.default_rng(34)
    g = random_digraph(rng, 9)
    a = dsi_solve(g, SolverConfig(seed=5))
    b = dsi_solve(g, SolverConfig(seed=5))
    assert a.to_dict(with_timings=False) == b.to_dict(with_timings=False)
    assert a.best_x.tolist() == b.best_x.tolist()


def test_dsi_solve_isolated_vertices_lift():
    g = build_graph(5, [0, 1, 2], [1, 2, 0])  # C3 plus isolated 3, 4
    rep = dsi_solve(g, SolverConfig(seed=0))
    assert rep.best_r == pytest.approx(0.5)
    assert not rep.best_set[3] and not rep.best_set[4]
    assert rep.best_r == pytest.approx(conductance_set(g, rep.best_set)[0])


def test_the_init_note_names_the_restart_kinds_that_ran():
    g = _strongly_connected_digraph(50)
    assert g.degree_profile.d_delta.min() < g.degree_profile.d_delta.max()  # imbalance seeds
    c3 = canonical("c3")
    assert not c3.degree_profile.d_delta.any()  # no imbalance seed, so restart 3 is random
    for graph, restarts, note in [
        (g, 8, "symmetrized spectral embedding, sweep seed, and random restarts"),
        (g, 1, "symmetrized spectral embedding"),
        (g, 2, "symmetrized spectral embedding and sweep seed"),
        (g, 3, "symmetrized spectral embedding and sweep seed"),
        (c3, 3, "symmetrized spectral embedding, sweep seed, and random restarts"),
    ]:
        assert dsi_solve(graph, SolverConfig(restarts=restarts)).notes == ("initialized from " + note,)


def test_dsi_solve_exact_zero_cut_is_not_negative():
    # cancellation in the prefix cut sums once returned best_r = -6e-17 here
    rng = np.random.default_rng(21)
    n = int(rng.integers(4, 16))
    m = 3 * n
    g = build_graph(n, rng.integers(0, n, m), rng.integers(0, n, m), 10.0 ** rng.uniform(-3, 3, m))
    rep = dsi_solve(g, SolverConfig(seed=0))
    assert rep.best_r >= 0
    assert rep.best_r == pytest.approx(conductance_set(g, rep.best_set)[0], abs=1e-9)


def _strongly_connected_digraph(seed):
    """n in 4..39, 3n random arcs plus a random Hamiltonian cycle; weights
    10^U(-3,3) for even seeds and U(0.1, 1) for odd ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    perm = rng.permutation(n)
    tails = np.concatenate([rng.integers(0, n, 3 * n), perm])
    heads = np.concatenate([rng.integers(0, n, 3 * n), np.roll(perm, -1)])
    if seed % 2 == 0:
        w = 10.0 ** rng.uniform(-3, 3, tails.size)
    else:
        w = rng.uniform(0.1, 1.0, tails.size)
    return build_graph(n, tails, heads, w)


def test_best_r_is_the_conductance_of_best_set():
    # the sweep's cumulative sums once put best_r 4.4e-10 (relative) off
    # the direct value on seeds 50 and 51; the probe's cases with isolated
    # vertices follow, four of which once reported the core's
    # conductance, which differs from g's in the last bits
    probe = report_probe()
    cases = [(_strongly_connected_digraph(seed), seed) for seed in (50, 51)]
    cases += [(probe.random_case(seed), seed) for seed in range(1000, 1090) if seed % 3 != 1]
    for g, seed in cases:
        rep = dsi_solve(g, SolverConfig(seed=seed))
        assert rep.best_r == conductance_set(g, rep.best_set)[0], seed


def test_dsi_solve_not_strongly_connected_is_exact_zero():
    # one weak component but not one strong component: the iteration
    # once stopped at 0.0476, flagged flip-locally optimal
    g, _ = dsbm(DsbmParams(n=2000, p=0.005, q=0.005, eta=0.1, seed=811))
    rep = dsi_solve(g, SolverConfig(seed=0))
    assert rep.best_r == 0.0
    assert rep.certificate == CERT_PRECHECK
    assert conductance_set(g, rep.best_set)[0] == 0.0
    # three strong components; the iteration once read this cut as 1.6e-14
    rep = dsi_solve(_wide_weight_digraph(151), SolverConfig(seed=0))
    assert rep.best_r == 0.0


@st.composite
def not_strongly_connected_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=3 * n))
    g = build_graph(n, [a for a, _ in arcs], [b for _, b in arcs])
    assume(g.m > 0)
    # transitive closure, independent of the solver's component pass
    reach = np.eye(n, dtype=bool)
    reach[g.tails, g.heads] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    live = np.flatnonzero(g.degree_profile.d > 0)
    assume(not reach[np.ix_(live, live)].all())
    return g


@given(g=not_strongly_connected_digraphs())
@settings(max_examples=150, deadline=None)
def test_not_strongly_connected_solves_to_exact_zero(g):
    assert dsi_solve(g, SolverConfig(seed=0)).best_r == 0.0 == brute_conductance(g).phi_d_min


def test_dsi_solve_degenerate_graph():
    from dicond.errors import EmptyGraphError

    with pytest.raises(EmptyGraphError):
        dsi_solve(build_graph(1, [], []), SolverConfig())
    with pytest.raises(EmptyGraphError):
        dsi_solve(build_graph(3, [], []), SolverConfig())


def test_flip_conductances_matches_direct():
    rng = np.random.default_rng(35)
    for _ in range(40):
        g = random_digraph(rng, int(rng.integers(3, 9)), weighted=True)
        k = int(rng.integers(1, g.n))
        s = np.zeros(g.n, dtype=bool)
        s[rng.choice(g.n, k, replace=False)] = True
        if s.all() or not s.any():
            continue
        phis = flip_conductances(g, s)
        for i in range(g.n):
            s2 = s.copy()
            s2[i] = ~s2[i]
            if not s2.any() or s2.all():
                assert phis[i] == np.inf
                continue
            try:
                direct = conductance_set(g, s2)[0]
            except Exception:
                assert phis[i] == np.inf
                continue
            assert phis[i] == pytest.approx(direct, abs=1e-12)


def test_termination_certificates_small_family():
    # small instances always stop on a certificate, not the cap
    rng = np.random.default_rng(36)
    for trial in range(30):
        g = random_digraph(rng, int(rng.integers(3, 7)))
        rep = dsi_solve(g, SolverConfig(seed=trial))
        assert rep.certificate != CERT_MAX_ITERS


def test_config_validation():
    # the non-integer counts and the seeds failed only inside range(), a
    # slice or SeedSequence, and not at all on input the precheck settles
    for bad in ({"max_iters": 0}, {"restarts": 0},
                {"max_iters": 2.5}, {"restarts": 2.5}, {"seed": 1.5}, {"seed": -1},
                {"restarts": 3.0}, {"max_iters": False}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    cfg = SolverConfig(max_iters=np.int32(50), restarts=np.int64(2), seed=np.uint8(3))
    same = SolverConfig(max_iters=50, restarts=2, seed=3)
    assert cfg == same and hash(cfg) == hash(same)
    assert (dsi_solve(canonical("c3"), cfg).to_dict(with_timings=False)
            == dsi_solve(canonical("c3"), same).to_dict(with_timings=False))
