"""The binary fast path: CutState bookkeeping against full recounts,
binary_state against conductance_set and the general iterate_state,
binary_step against the general code, and dsi_run's choice of the
evaluation for each move."""

import dataclasses
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dicond.solver
import dicond.subgrad
from dicond import (ConstantVectorError, DsbmParams, SolverConfig, build_graph, canonical, conductance_set, dsbm,
                    dsi_solve, largest_strong_component)
from dicond.functionals import linf, n_med
from dicond.baselines import sweep_cut
from dicond.solver import dsi_run, flip_conductances, subproblem_argmin
from dicond.subgrad import CutState, binary_state, binary_step, general_step, iterate_state

WEIGHT_KINDS = {
    "unit": lambda rng, m: np.ones(m),
    "integer": lambda rng, m: rng.integers(1, 4, m).astype(float),
    "dyadic": lambda rng, m: rng.choice([0.5, 1.0, 1.5, 2.0], m),
    "wide": lambda rng, m: 10 ** rng.uniform(-3, 3, m),
}


def _graph(seed, kind, n=None):
    """Random digraph: a Hamiltonian cycle plus about 2n random arcs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30)) if n is None else n
    perm = rng.permutation(n)
    m = int(rng.integers(0, 2 * n + 1))
    tails = np.concatenate([rng.integers(0, n, m), perm])
    heads = np.concatenate([rng.integers(0, n, m), np.roll(perm, -1)])
    return build_graph(n, tails, heads, WEIGHT_KINDS[kind](rng, m + n)), rng


def _moves(rng, n):
    """Sides to move through: single flips, which move the state in
    O(deg), and small and large random moves and one move of every
    vertex, which recount it."""
    side = rng.random(n) < 0.5
    yield side
    for step in range(12):
        side = side.copy()
        if step == 6:
            side = ~side
        elif step % 3 == 0:
            side[rng.integers(n)] ^= True
        else:
            side[rng.random(n) < (0.1 if step % 3 == 1 else 0.6)] ^= True
        yield side


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


exact_kinds = st.sampled_from(["unit", "integer", "dyadic"])


@given(seed=st.integers(0, 2**32 - 1), kind=exact_kinds)
@settings(max_examples=80, deadline=None)
def test_moves_equal_a_full_recount(seed, kind):
    g, rng = _graph(seed, kind)
    assert g.exact_sums
    cut = CutState(g)
    for side in _moves(rng, g.n):
        cut.move_to(side)
        assert _same_bits(cut.side, side)
        assert cut.matches_recount()
        # and the recount itself against a direct per-pair count
        pu, pv, w = g.pairs
        own, across = np.zeros(g.n), np.zeros(g.n)
        for a, b, wab in zip(pu, pv, w):
            tgt = across if side[a] != side[b] else own
            tgt[a] += wab
            tgt[b] += wab
        assert _same_bits(g.degree_profile.d - cut.cut, own) and _same_bits(cut.cut, across)
        assert _same_bits(cut.is_cut, side[pu] != side[pv])
        # the two cut scalars against a per-arc count of cut+ and cut-
        cut_plus = sum(w for a, b, w in zip(g.tails, g.heads, g.weights) if side[a] and not side[b])
        cut_minus = sum(w for a, b, w in zip(g.tails, g.heads, g.weights) if side[b] and not side[a])
        assert (cut.cut_total, cut.imbalance) == (cut_plus + cut_minus, cut_plus - cut_minus)
        assert cut.vol_neg == g.degree_profile.d[~side].sum()


@given(seed=st.integers(0, 2**32 - 1), kind=exact_kinds)
@settings(max_examples=80, deadline=None)
def test_degrees_equal_the_pair_weight_sums(seed, kind):
    # own = d - cut rests on this identity
    g, _ = _graph(seed, kind)
    pu, pv, w = g.pairs
    per_vertex = np.zeros(g.n)
    for a, b, wab in zip(pu, pv, w):
        per_vertex[a] += wab
        per_vertex[b] += wab
    assert _same_bits(g.degree_profile.d, per_vertex)


def test_only_a_single_flip_skips_the_recount(monkeypatch):
    g, rng = _graph(3, "integer", n=20)
    calls = []  # the states that recounted (matches_recount's fresh ones too)
    recount = CutState._recount
    monkeypatch.setattr(CutState, "_recount", lambda self, side: (calls.append(self), recount(self, side)))
    cut = CutState(g)

    def recounts():
        return sum(c is cut for c in calls)

    side = rng.random(g.n) < 0.5
    cut.move_to(side)  # the first move counts everything
    assert recounts() == 1
    for v in (0, 7, 0):
        side = side.copy()
        side[v] ^= True
        cut.move_to(side)  # one vertex: O(deg), no recount
        assert recounts() == 1 and cut.matches_recount()
    cut.move_to(side.copy())  # nothing moves
    assert recounts() == 1
    side = side.copy()
    side[[2, 5]] ^= True
    cut.move_to(side)  # two vertices: recount
    assert recounts() == 2 and cut.matches_recount()
    assert _same_bits(cut.side, side)


def _fused_x(side, uniform):
    """The binary iterate on side: the subproblem minimizer sign(s) / n
    of an s with ||s||_1 = 1/2 (so k = n), whose -0.0 entry counts as
    positive, or x = +/-1. Returns (x, the side that dsi_run passes, c)."""
    n = side.size
    if not uniform:
        return np.where(side, 1.0, -1.0), side, 1.0
    s = np.where(side, 0.5 / n, -0.5 / n)
    if side.any():
        s[side.argmax()] = -0.0  # Sign(-0.0) = +1
    x, _ = subproblem_argmin(s)
    return x, s >= 0, 1.0 / n


@given(seed=st.integers(0, 2**32 - 1), kind=exact_kinds, uniform=st.booleans())
@settings(max_examples=80, deadline=None)
def test_fused_state_and_signs_match_iterate_state_and_a_fresh_where(seed, kind, uniform):
    # along single flips (chi moves in O(1)) and larger moves
    # (they are recounted), at c = 1 and at the c = 1/n of a k = n step
    g, rng = _graph(seed, kind)
    fused_cut, ref_cut = CutState(g), CutState(g)
    for side in _moves(rng, g.n):
        x, s_side, c = _fused_x(side, uniform)
        assert _same_bits(s_side, side) and _same_bits(np.abs(x), np.full(g.n, c))
        if side.all() or not side.any():  # a constant x
            for call in (lambda: binary_state(g, x, s_side, c, fused_cut),
                         lambda: binary_state(g, x, x > 0, c, ref_cut), lambda: iterate_state(g, x)):
                with pytest.raises(ConstantVectorError):
                    call()
            continue
        fused = binary_state(g, x, s_side, c, fused_cut)
        ref = binary_state(g, x, x > 0, c, ref_cut)
        general = iterate_state(g, x)
        assert fused.cut is fused_cut and ref.cut is ref_cut and general.cut is None
        for name in ("x", "x_min", "x_max", "norm", "t", "alpha", "j0", "r"):
            assert _same_bits(getattr(fused, name), getattr(ref, name)), name
            if name != "r":  # r_obj's formula can differ from phi in the last bits
                assert _same_bits(getattr(fused, name), getattr(general, name)), name
        assert fused_cut.matches_recount()
        assert _same_bits(fused_cut.chi, np.where(side, -1.0, 1.0))


def _check_binary_step(g, x, cut):
    """binary_state and binary_step at the +/-c iterate x against the
    exact reference and the general code, bit for bit: r is
    conductance_set of the positive side, every other field is
    iterate_state's, and binary_step is general_step on the same state.
    Returns the selected subgradient and (one tie vertex, J = 0, V_b
    empty)."""
    fast = binary_state(g, x, x > 0, float(x.max()), cut)
    slow = iterate_state(g, x)
    assert fast.cut is cut and slow.cut is None
    assert _same_bits(fast.r, conductance_set(g, x > 0)[0])
    for name in ("x_min", "x_max", "norm", "t", "alpha", "j0"):
        assert _same_bits(getattr(fast, name), getattr(slow, name)), name
    # the state's median is n_med's, bit for bit
    assert _same_bits(fast.alpha, n_med(g.degree_profile, x).alpha_low)
    # r_obj's formula cancels vol c against I+ + J: it lies within a few
    # ulps of vol_total / vol_min of the exact value
    d = g.degree_profile.d
    vol_min = min(d[x > 0].sum(), d[x < 0].sum())
    assert abs(slow.r - fast.r) <= 8 * np.finfo(float).eps * g.degree_profile.vol_total / vol_min
    v_b, sel = binary_step(g, fast)
    ref_v_b, ref_sel = general_step(g, fast)
    assert _same_bits(v_b, ref_v_b) and v_b.dtype == ref_v_b.dtype
    assert (sel is None) == (ref_sel is None) == (v_b.size == 0)
    if sel is not None:
        assert sel.i_star == ref_sel.i_star
        for name in ("u", "v", "y", "s"):
            # tobytes tells -0.0 from 0.0
            assert _same_bits(getattr(sel, name), getattr(ref_sel, name)), name
    one_tie = np.count_nonzero(slow.classes.s_alpha) <= 1
    return sel, (one_tie, abs(slow.j0) <= slow.t, v_b.size == 0)


@given(seed=st.integers(0, 2**32 - 1), kind=exact_kinds,
       scale=st.sampled_from([1.0, 0.5, 3.0, None]))
@settings(max_examples=80, deadline=None)
def test_binary_step_and_median_match_the_general_chain(seed, kind, scale):
    g, rng = _graph(seed, kind)
    c = 1.0 / g.n if scale is None else scale
    cut = CutState(g)
    for side in _moves(rng, g.n):
        if side.all() or not side.any():
            continue
        _check_binary_step(g, np.where(side, c, -c), cut)


def test_binary_step_covers_one_tie_zero_imbalance_and_the_stop():
    # a bidirected star has J = 0 everywhere, and its centre alone holds
    # half the volume, so the centre is the only tie when it is negative
    star = build_graph(5, [0, 0, 0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 0, 0, 0, 0])
    cases = ((star, np.arange(5) > 0), (star, np.arange(5) == 0),
             (canonical("c3"), np.array([True, False, False])),  # a stop: V_b is empty
             (canonical("p2"), np.array([True, False])),  # J = 2
             (canonical("p3"), np.array([True, False, True])))  # a descent step
    flags = np.array([_check_binary_step(g, np.where(side, c, -c), CutState(g))[1]
                      for g, side in cases for c in (1.0, 0.5, 3.0, 1.0 / g.n)])
    # each of (one tie vertex, J = 0, V_b empty) holds in some case and fails in another
    assert flags.any(axis=0).all() and not flags.all(axis=0).any()


def test_binary_median_is_one_volume_comparison(monkeypatch):
    # p3 has degrees (1, 2, 1), so vol_neg is below, at and above half
    # the volume; p2's negative side holds exactly half
    cases = [("p3", [1, 1, -1], 1.0), ("p3", [1, -1, 1], -1.0), ("p3", [-1, -1, 1], -1.0),
             ("p2", [1, -1], -1.0)]
    xs = [(canonical(name), c * np.array(signs, dtype=float), c, sign * c)
          for name, signs, sign in cases for c in (1.0, 0.5, 3.0, 1.0 / 3.0)]
    want = [n_med(g.degree_profile, x).alpha_low for g, x, _, _ in xs]

    def no_sort(*args):
        raise AssertionError("a binary iterate calls n_med")

    monkeypatch.setattr(dicond.subgrad, "n_med", no_sort)
    for (g, x, c, expected), alpha_low in zip(xs, want):
        state = binary_state(g, x, x > 0, c, CutState(g))
        assert state.cut is not None
        assert _same_bits(state.alpha, alpha_low) and _same_bits(state.alpha, expected)


def test_nonbinary_iterates_do_not_move_the_state():
    g, rng = _graph(5, "integer", n=12)
    cut = CutState(g)
    side = rng.random(g.n) < 0.5
    side[:2] = (True, False)
    x = np.where(side, 1.0, -1.0)
    assert binary_state(g, x, x > 0, 1.0, cut).cut is cut
    x3 = np.where(~side, 1.0, -1.0)
    x3[0] = 0.5  # three values
    for y in (x3, np.where(~side, 2.0, -1.0)):  # two values, not +/-c
        assert iterate_state(g, y).cut is None
    assert _same_bits(cut.side, side)


def _record_evaluations(monkeypatch):
    """dsi_run's calls of iterate_state and binary_state, in order: a list
    that each call appends (name, a copy of x) to."""
    evals = []
    for name in ("iterate_state", "binary_state"):
        real = getattr(dicond.solver, name)

        def recorded(g, x, *rest, real=real, name=name):
            evals.append((name, np.array(x)))
            return real(g, x, *rest)

        monkeypatch.setattr(dicond.solver, name, recorded)
    return evals


def _is_binary(x):
    """x takes exactly the two values +/-c, c > 0."""
    return bool(x.min() < 0 < x.max() and (np.abs(x) == x.max()).all())


def test_a_start_vector_is_binary_iff_every_entry_is_plus_or_minus_its_norm(monkeypatch):
    # the start-vector cases of the test above: the normalized start of a
    # +/-3 vector takes binary_state, a three-valued one and a (2, -1) one
    # take iterate_state
    g, rng = _graph(5, "integer", n=12)
    side = rng.random(g.n) < 0.5
    side[:2] = (True, False)
    x3 = np.where(~side, 1.0, -1.0)
    x3[0] = 0.5
    for start, route in ((np.where(side, 3.0, -3.0), "binary_state"), (x3, "iterate_state"),
                         (np.where(~side, 2.0, -1.0), "iterate_state")):
        assert _is_binary(start) == (route == "binary_state")
        with monkeypatch.context() as m:
            evals = _record_evaluations(m)
            dsi_run(g, start, SolverConfig(max_iters=1))
        name, x = evals[0]
        assert name == route and _same_bits(x, start / np.abs(start).max())


@given(seed=st.integers(0, 2**32 - 1), kind=exact_kinds, uniform=st.booleans())
@settings(max_examples=80, deadline=None)
def test_binary_ratio_and_subproblem_value_match_the_general_code(seed, kind, uniform):
    # along single flips (the cut scalars move in O(1)) and larger moves
    # (they are recounted), at c = 1 and at the c = 1/n of a k = n step
    g, rng = _graph(seed, kind)
    c = 1.0 / g.n if uniform else 1.0
    cut = CutState(g)
    for side in _moves(rng, g.n):
        if side.all() or not side.any():
            continue
        sel, _ = _check_binary_step(g, np.where(side, c, -c), cut)
        if sel is None:
            continue
        # the subgradient itself (k <= n) and, scaled to ||s||_1 = 1/2,
        # the k = n case: the uniform sign vector / n
        for s in (sel.s, sel.s * (0.5 / np.abs(sel.s).sum())):
            x_new, value = subproblem_argmin(s)
            assert _same_bits(value, linf(x_new) - np.dot(x_new, s))
        assert _same_bits(np.abs(x_new), np.full(g.n, 1.0 / g.n))


def _exact_by_fractions(weights):
    """exact_sums recomputed in exact arithmetic: every weight a multiple
    of one 2^-k with k <= 52, and twice the total below 2^(53-k)."""
    ws = [Fraction(float(w)) for w in weights]
    k = max(w.denominator.bit_length() - 1 for w in ws)  # denominators are powers of two
    return k <= 52 and 2 * sum(ws) < 2 ** (53 - k)


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=450)  # n = 2 with weights that happen to be exact
@settings(max_examples=40, deadline=None)
def test_wide_weights_never_use_the_state(seed):
    g, _ = _graph(seed, "wide")
    exact = _exact_by_fractions(g.weights)
    assert g.exact_sums == exact
    if exact:
        CutState(g)
    else:
        with pytest.raises(ValueError, match="exact"):
            CutState(g)


def test_solve_without_exact_sums_never_builds_a_state(monkeypatch):
    def refuse(self, side):
        raise AssertionError("CutState used on a graph without exact sums")

    monkeypatch.setattr(CutState, "move_to", refuse)
    for seed in range(5):
        g, _ = _graph(seed, "wide", n=15)
        dsi_solve(g, SolverConfig(seed=seed, restarts=3))


def test_exact_sums_predicate():
    def exact(weights):
        k = len(weights)
        return build_graph(k + 1, np.arange(k), np.arange(1, k + 1), weights).exact_sums

    assert exact([1.0, 2.0, 3.0]) and exact([0.5, 1.5, 2.0]) and exact([2.0**-30, 7.0])
    assert not exact([1.0, 0.1])
    assert not exact([0.1])
    # volumes count each weight twice: a total pair weight of 2^52 is a
    # volume of 2^53, where the next integer sum is not representable
    assert not exact([2.0**52])
    assert not exact([2.0**52, 2.0**52])
    assert exact([2.0**51 - 1.0])
    assert not exact([2.0**-10, 2.0**42])  # 2^-10 steps need totals below 2^43


def _dsbm_component():
    g, _ = dsbm(DsbmParams(n=40, p=0.15, q=0.1, eta=0.2, seed=5))
    return largest_strong_component(g)[0]


def test_self_check_compares_the_state_on_a_dsbm_component(monkeypatch):
    g = _dsbm_component()
    assert g.exact_sums
    checks = []
    matches = CutState.matches_recount
    monkeypatch.setattr(CutState, "matches_recount",
                        lambda self: (checks.append(1), matches(self))[1])
    rep = dsi_solve(g, SolverConfig(seed=0, self_check=True))
    assert rep.iterations > 0 and len(checks) >= rep.iterations

    # a state that drifts from its recount is caught
    move_to = CutState.move_to

    def drift(self, side):
        move_to(self, side)
        self.cut[0] += 1.0

    monkeypatch.setattr(CutState, "move_to", drift)
    with pytest.raises(AssertionError, match="full recount"):
        dsi_solve(g, SolverConfig(seed=0, self_check=True))


@pytest.mark.parametrize("name", ["cut_total", "imbalance"])
def test_self_check_catches_a_cut_scalar_that_drifts(monkeypatch, name):
    g = _dsbm_component()
    move_to = CutState.move_to

    def drift(self, side):
        move_to(self, side)
        setattr(self, name, getattr(self, name) + 1.0)

    monkeypatch.setattr(CutState, "move_to", drift)
    cut = CutState(g)
    cut.move_to(np.arange(g.n) % 2 == 0)
    assert not cut.matches_recount()
    with pytest.raises(AssertionError, match="full recount"):
        dsi_solve(g, SolverConfig(seed=0, self_check=True))


def test_self_check_compares_the_binary_ratio_with_conductance_set(monkeypatch):
    g = _dsbm_component()
    # the sums pass their recount, but the ratio read off them is one ulp off
    phi = CutState.phi
    monkeypatch.setattr(CutState, "phi", lambda self: np.nextafter(phi(self), np.inf))
    with pytest.raises(AssertionError, match="conductance_set"):
        dsi_solve(g, SolverConfig(seed=0, self_check=True))
    # and the unchanged run passes every check
    monkeypatch.setattr(CutState, "phi", phi)
    assert dsi_solve(g, SolverConfig(seed=0, self_check=True)).iterations > 0


def test_a_binary_start_with_a_zero_volume_side_is_constant():
    # vertices 3 and 4 are isolated: +1 on them alone leaves the positive
    # side without volume, where the ratio is undefined
    g = build_graph(5, [0, 1, 2], [1, 2, 0])
    assert g.exact_sums
    x = np.where(np.arange(5) >= 3, 1.0, -1.0)
    for start in (x, -x, 0.5 * x):
        with pytest.raises(ConstantVectorError):
            dsi_run(g, start, SolverConfig())


def test_self_check_compares_the_binary_step_with_the_general_chain(monkeypatch):
    g = _dsbm_component()
    checks = []
    general = dicond.solver.general_step
    monkeypatch.setattr(dicond.solver, "general_step",
                        lambda g, state: (checks.append(state.cut is not None), general(g, state))[1])
    rep = dsi_solve(g, SolverConfig(seed=0, self_check=True))
    assert rep.iterations > 0 and sum(checks) >= rep.iterations

    # a fused result one ulp away from the general chain's is caught
    fused = dicond.solver.binary_step

    def perturbed(g, state):
        v_b, sel = fused(g, state)
        if sel is not None:
            sel.s[sel.i_star] = np.nextafter(sel.s[sel.i_star], np.inf)
        return v_b, sel

    monkeypatch.setattr(dicond.solver, "binary_step", perturbed)
    with pytest.raises(AssertionError, match="general chain"):
        dsi_solve(g, SolverConfig(seed=0, self_check=True))


def test_self_check_catches_a_sign_that_drifts(monkeypatch):
    g = _dsbm_component()
    move_to = CutState.move_to

    def drift(self, side):
        move_to(self, side)
        self.chi[0] = -self.chi[0]

    monkeypatch.setattr(CutState, "move_to", drift)
    cut = CutState(g)
    cut.move_to(np.arange(g.n) % 2 == 0)
    assert not cut.matches_recount()
    with pytest.raises(AssertionError, match="full recount"):
        dsi_solve(g, SolverConfig(seed=0, self_check=True))


def test_subproblem_steps_that_keep_every_coordinate_skip_iterate_state(monkeypatch):
    g = _dsbm_component()
    evals = _record_evaluations(monkeypatch)
    # a (1, -1/2) start is not binary, so it takes iterate_state, as do
    # the k < n steps; a +/-1 start would take binary_state
    rep = dsi_run(g, np.where(np.arange(g.n) % 3 == 0, 1.0, -0.5), SolverConfig())
    calls = Counter(name for name, _ in evals)
    assert calls["binary_state"] > 0 and calls["iterate_state"] >= 1
    assert calls["binary_state"] + calls["iterate_state"] == rep.iterations + 1


# a +/-1 start where V_b is empty and a rescue flip descends, and a
# non-binary start where V_b is empty and the move is the sweep-cut
# rounding (test_solver's blind-spot and rounding runs)
FLIP_RUN = (build_graph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 0, 2, 1]), np.array([-1.0, 1.0, 1.0, -1.0]))
ROUNDING_RUN = (build_graph(4, [0, 1, 2, 2, 3, 3], [3, 0, 0, 1, 1, 2], [1.0, 2.0, 2.0, 1.0, 3.0, 1.0]),
                np.array([-1.0, 1.0, -1.0, 0.0]))


def test_iterate_state_evaluates_only_the_non_binary_states(monkeypatch):
    # flips, roundings and +/-1 starts are binary moves: each takes
    # binary_state, and only the states that are not +/-c take
    # iterate_state
    comp = _dsbm_component()
    for g, start in ((comp, np.where(np.arange(comp.n) % 3 == 0, 1.0, -1.0)), (comp, np.cos(np.arange(comp.n))),
                     FLIP_RUN, ROUNDING_RUN):
        with monkeypatch.context() as m:
            evals = _record_evaluations(m)
            dsi_run(g, start, SolverConfig())
        binary = sum(_is_binary(x) for _, x in evals)
        calls = Counter(name for name, _ in evals)
        assert binary > 0 and calls["iterate_state"] == len(evals) - binary
        assert calls["binary_state"] == binary


def test_self_check_compares_a_fused_state_with_iterate_state(monkeypatch):
    g = _dsbm_component()
    fused = dicond.solver.binary_state

    def nudged(*args):
        state = fused(*args)
        return dataclasses.replace(state, j0=np.nextafter(state.j0, np.inf))

    monkeypatch.setattr(dicond.solver, "binary_state", nudged)
    with pytest.raises(AssertionError, match="binary state differs from iterate_state"):
        dsi_solve(g, SolverConfig(seed=0, self_check=True))


@pytest.mark.parametrize("move", ["start", "flip", "rounding"])
def test_self_check_compares_flip_rounding_and_start_states_with_iterate_state(monkeypatch, move):
    # the c = 1 states are the +/-1 starts (a solve's sweep seed), the
    # flips and the roundings; the flip run's +/-1 start is left alone
    real = dicond.solver.binary_state
    seen = []

    def nudged(g, x, side, c, cut):
        state = real(g, x, side, c, cut)
        seen.append(c)
        if c != 1.0 or (move == "flip" and len(seen) == 1):
            return state
        return dataclasses.replace(state, alpha=np.nextafter(state.alpha, np.inf))

    monkeypatch.setattr(dicond.solver, "binary_state", nudged)
    with pytest.raises(AssertionError, match="binary state differs from iterate_state"):
        if move == "start":
            dsi_solve(_dsbm_component(), SolverConfig(seed=0, self_check=True))
        else:
            dsi_run(*(FLIP_RUN if move == "flip" else ROUNDING_RUN), SolverConfig(self_check=True))
    assert seen[-1] == 1.0


def test_a_binary_best_skips_the_sweep_and_its_conductance(monkeypatch):
    g = _dsbm_component()
    x = np.where(np.arange(g.n) % 3 == 0, 1.0, -1.0)
    ref = dsi_run(g, x, SolverConfig())
    calls = []
    for name in ("sweep_cut", "conductance_set"):
        real = getattr(dicond.solver, name)
        monkeypatch.setattr(dicond.solver, name,
                            lambda *a, real=real, name=name, **kw: (calls.append(name), real(*a, **kw))[1])
    rep = dsi_run(g, x, SolverConfig())
    assert calls == [] and rep.certificate == dicond.solver.CERT_BOUNDARY
    assert _same_bits(rep.best_set, sweep_cut(g, rep.best_x))
    assert _same_bits(rep.best_r, conductance_set(g, rep.best_set)[0])
    assert rep.is_flip_local_opt == bool(flip_conductances(g, rep.best_set).min() >= rep.best_r - 1e-12)
    assert rep.to_dict(with_timings=False) == ref.to_dict(with_timings=False)

    # under self_check the finish is compared with sweep_cut and conductance_set
    monkeypatch.setattr(dicond.solver, "sweep_cut", lambda g, v: v < 0)
    with pytest.raises(AssertionError, match="binary finish differs"):
        dsi_run(g, x, SolverConfig(self_check=True))
