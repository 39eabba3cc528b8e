import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicond import (
    ConstantVectorError,
    SolverConfig,
    brute_conductance,
    build_graph,
    canonical,
    conductance_set,
    degrees,
    dsi_run,
    dsi_solve,
    r_obj,
    subproblem_argmin,
    sweep_cut,
    verify_local_opt,
)
from dicond.baselines import spectral_sweep
from dicond.solver import CERT_BOUNDARY, CERT_MAX_ITERS, CERT_PRECHECK, flip_conductances

from conftest import random_digraph


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


def test_dsi_run_p3_trace(p3):
    deg = degrees(p3)
    rep = dsi_run(p3, deg, np.array([1.0, -1.0, 1.0]), SolverConfig(self_check=True))
    assert rep.r_trace == (0.5, 0.0)
    assert rep.iterations == 1
    assert rep.certificate == CERT_BOUNDARY
    assert np.allclose(rep.best_x, [-1 / 3, -1 / 3, 1 / 3])
    assert rep.best_set_labels in (("3",), ("1",))
    assert rep.best_r == 0.0
    assert rep.is_flip_local_opt


def test_dsi_run_c3_immediate_stop(c3):
    deg = degrees(c3)
    rep = dsi_run(c3, deg, np.array([1.0, -1.0, -1.0]), SolverConfig())
    assert rep.certificate == CERT_BOUNDARY
    assert rep.r_trace == (0.5,)
    assert rep.iterations == 0
    assert rep.best_r == 0.5


def test_dsi_run_disconnected_precheck():
    g = build_graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    rep = dsi_run(g, degrees(g), np.ones(6), SolverConfig())  # x1 unused
    assert rep.certificate == CERT_PRECHECK
    assert rep.best_r == 0.0
    assert rep.iterations == 0
    assert rep.is_flip_local_opt


def test_dsi_run_constant_start_raises(p3):
    with pytest.raises(ConstantVectorError):
        dsi_run(p3, degrees(p3), np.ones(3), SolverConfig())


def test_sweep_cut_distinct_only_examples(p3):
    mask, phi = sweep_cut(p3, np.array([-1 / 3, -1 / 3, 1 / 3]), distinct_only=True)
    assert mask.tolist() == [False, False, True]
    assert phi == 0.0

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
        mask, phi = sweep_cut(g, x, distinct_only=True)
        assert mask.tolist() == (x > 0).tolist()
        assert phi == pytest.approx(phi_direct, abs=1e-12)

    mask, phi = sweep_cut(p3, np.array([0.9, 0.5, 0.1]), distinct_only=True)
    assert phi == 0.0
    assert mask.tolist() == [True, False, False]  # both prefixes tie at 0; smaller wins

    # tied values: the default splits them by id, distinct_only keeps them together
    x = np.array([1.0, 1.0, -1.0])
    mask, phi = sweep_cut(p3, x)
    assert mask.tolist() == [True, False, False] and phi == 0.0
    mask, phi = sweep_cut(p3, x, distinct_only=True)
    assert mask.tolist() == [True, True, False] and phi == 0.0


def test_verify_local_opt_examples(c3, p3, p2):
    assert verify_local_opt(c3, np.array([True, False, False]))
    assert not verify_local_opt(p3, np.array([True, False, True]))
    assert verify_local_opt(p2, np.array([True, False]))


def test_dsi_solve_monotone_trace_and_identity():
    rng = np.random.default_rng(32)
    for trial in range(40):
        g = random_digraph(rng, int(rng.integers(3, 11)), weighted=bool(trial % 2))
        rep = dsi_solve(g, SolverConfig(seed=trial, self_check=True))
        tr = rep.r_trace
        assert all(tr[i + 1] < tr[i] for i in range(len(tr) - 1))
        assert rep.iterations <= 1000
        assert rep.best_r == pytest.approx(conductance_set(g, rep.best_set)[0], abs=1e-9)
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


def test_dsi_solve_exact_zero_cut_is_not_negative():
    # cancellation in the prefix cut sums once returned best_r = -6e-17 here
    rng = np.random.default_rng(21)
    n = int(rng.integers(4, 16))
    m = 3 * n
    g = build_graph(n, rng.integers(0, n, m), rng.integers(0, n, m), 10.0 ** rng.uniform(-3, 3, m))
    rep = dsi_solve(g, SolverConfig(seed=0))
    assert rep.best_r >= 0
    assert rep.best_r == pytest.approx(conductance_set(g, rep.best_set)[0], abs=1e-9)


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


def test_user_init_vector(p3):
    cfg = SolverConfig(init="user", restarts=1, user_vector=np.array([1.0, -1.0, 1.0]))
    rep = dsi_solve(p3, cfg)
    assert rep.best_r == 0.0
    assert rep.init_kind == "user"


def test_termination_certificates_small_family():
    # small instances always stop on a certificate, not the cap
    rng = np.random.default_rng(36)
    for trial in range(30):
        g = random_digraph(rng, int(rng.integers(3, 7)))
        rep = dsi_solve(g, SolverConfig(seed=trial))
        assert rep.certificate != CERT_MAX_ITERS


def test_random_istar_rule_is_seeded():
    rng = np.random.default_rng(37)
    g = random_digraph(rng, 10)
    a = dsi_solve(g, SolverConfig(seed=3, istar_rule="random"))
    b = dsi_solve(g, SolverConfig(seed=3, istar_rule="random"))
    assert a.to_dict(with_timings=False) == b.to_dict(with_timings=False)
    # still a valid bounded solve
    assert a.best_r >= brute_conductance(g).phi_d_min - 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(istar_rule="weird")
