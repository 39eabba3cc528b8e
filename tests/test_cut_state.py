"""The binary fast path: CutState bookkeeping against full recounts, and
bounds/iterate_state with a CutState against the general code."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicond import DsbmParams, SolverConfig, build_graph, dsbm, dsi_solve, largest_strong_component
from dicond.functionals import n_med
from dicond.subgrad import CutState, bounds, iterate_state

WEIGHT_KINDS = {
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


exact_kinds = st.sampled_from(["integer", "dyadic"])


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


@given(seed=st.integers(0, 2**32 - 1), kind=exact_kinds,
       scale=st.sampled_from([1.0, 0.5, 3.0, None]))
@settings(max_examples=80, deadline=None)
def test_bounds_and_median_match_the_general_code(seed, kind, scale):
    g, rng = _graph(seed, kind)
    deg = g.degree_profile
    c = 1.0 / g.n if scale is None else scale
    cut = CutState(g)
    for side in _moves(rng, g.n):
        if side.all() or not side.any():
            continue
        x = np.where(side, c, -c)
        fast = iterate_state(g, deg, x, cut)
        slow = iterate_state(g, deg, x)
        assert fast.cut is cut and slow.cut is None
        # the state's median is n_med's, bit for bit
        ref = n_med(deg, x)
        for name in ("alpha_low", "alpha_high", "n_value"):
            assert _same_bits(getattr(fast.median, name), getattr(ref, name))
        assert _same_bits(fast.r, slow.r)
        b_fast = bounds(g, deg, fast.classes, x, fast.cut)
        b_slow = bounds(g, deg, slow.classes, x)
        for f in fields(b_slow):
            a, b = getattr(b_fast, f.name), getattr(b_slow, f.name)
            if f.name == "zero_pairs":
                assert all(_same_bits(u, v) and u.dtype == v.dtype for u, v in zip(a, b))
            else:
                assert _same_bits(a, b), f.name  # tobytes tells -0.0 from 0.0


def test_nonbinary_iterates_do_not_move_the_state():
    g, rng = _graph(5, "integer", n=12)
    cut = CutState(g)
    side = rng.random(g.n) < 0.5
    side[:2] = (True, False)
    x = np.where(side, 1.0, -1.0)
    assert iterate_state(g, g.degree_profile, x, cut).cut is cut
    x3 = np.where(~side, 1.0, -1.0)
    x3[0] = 0.5  # three values
    for y in (x3, np.where(~side, 2.0, -1.0)):  # two values, not +/-c
        assert iterate_state(g, g.degree_profile, y, cut).cut is None
    assert _same_bits(cut.side, side)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_wide_weights_never_use_the_state(seed):
    g, _ = _graph(seed, "wide")
    assert not g.exact_sums
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


def test_self_check_compares_the_state_on_a_dsbm_component(monkeypatch):
    g, _ = dsbm(DsbmParams(n=40, p=0.15, q=0.1, eta=0.2, seed=5))
    g = largest_strong_component(g)[0]
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
