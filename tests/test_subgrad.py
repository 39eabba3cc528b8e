from dataclasses import fields

import numpy as np
import pytest

from dicond import (
    ConstantVectorError,
    boundary_indicator,
    bounds,
    build_graph,
    classify,
    n_med,
    q_r,
    r_obj,
    select_subgradient,
)
from dicond.functionals import i_plus, is_nonconstant
from dicond.solver import flip_conductances, subproblem_argmin
from dicond.subgrad import CutState, VertexClasses, binary_state, binary_step, general_step, iterate_state

from conftest import all_pair_state_digraphs, pair_state_digraphs, random_digraph, sign_vectors


def pipeline(g, x):
    state = iterate_state(g, x)
    bnd = bounds(g, state)
    return state, bnd, boundary_indicator(g, state, bnd)


def test_classify_examples(c3, p3):
    cls = classify(c3.degree_profile, np.array([1.0, -1.0, -1.0]))
    assert np.flatnonzero(cls.s_plus).tolist() == [0]
    assert np.flatnonzero(cls.s_minus).tolist() == [1, 2]
    assert not cls.s_less.any()
    assert cls.alpha == -1.0
    assert np.flatnonzero(cls.s_alpha).tolist() == [1, 2]

    cls = classify(p3.degree_profile, np.array([1.0, -1.0, 1.0]))
    assert np.flatnonzero(cls.s_plus).tolist() == [0, 2]
    assert np.flatnonzero(cls.s_minus).tolist() == [1]
    assert cls.alpha == -1.0
    assert np.flatnonzero(cls.s_alpha).tolist() == [1]


def test_classify_interior_point(p3):
    # equal unit degrees: median interval [-1, 1], lower end picked
    from dicond.graph import DegreeProfile

    prof = DegreeProfile(
        d_out=np.ones(3), d_in=np.ones(3), d=np.ones(3),
        d_delta=np.zeros(3), vol_total=3.0,
    )
    cls = classify(prof, np.array([1.0, 0.0, -1.0]))
    assert np.flatnonzero(cls.s_less).tolist() == [1]
    assert cls.alpha == 0.0


def test_classify_constant_raises(c3):
    with pytest.raises(ConstantVectorError):
        classify(c3.degree_profile, np.array([2.0, 2.0, 2.0]))


def test_bounds_c3_trace(c3):
    # hand-verified against finite differences of the three functionals
    x = np.array([1.0, -1.0, -1.0])
    state, bnd, _ = pipeline(c3, x)
    assert bnd.p.tolist() == [0.0, -1.0, -1.0]
    assert bnd.q.tolist() == [2.0, 1.0, 1.0]
    assert (bnd.A, bnd.B) == (-2.0, 4.0)
    assert bnd.a_low.tolist() == [2.0, -2.0, -2.0]
    assert bnd.a_high.tolist() == [2.0, 0.0, 0.0]
    assert state.j_is_zero
    assert bnd.l_low.tolist() == [0.0, 0.0, 0.0]


def test_bounds_p3_nonzero_j(p3):
    x = np.array([1.0, -1.0, -1.0])
    state, bnd, _ = pipeline(p3, x)
    assert not state.j_is_zero
    assert bnd.l_low.tolist() == [1.0, 0.0, -1.0]
    assert (bnd.A, bnd.B) == (-1.0, 3.0)
    assert bnd.a_low[0] == bnd.a_high[0] == 1.0
    assert (bnd.a_low[1], bnd.a_high[1]) == (-2.0, 0.0)
    assert (bnd.a_low[2], bnd.a_high[2]) == (-1.0, 1.0)


def test_bounds_smooth_region_is_gradient():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(3, 8)), weighted=True)
        x = rng.standard_normal(g.n) + np.linspace(0, 0.01, g.n)  # break ties
        if np.min(np.abs(x[g.pairs[0]] + x[g.pairs[1]])) < 1e-6:
            continue
        bnd = bounds(g, iterate_state(g, x))
        assert not bnd.q.any()
        # central differences of the arc term
        eps = 1e-6
        for i in range(g.n):
            e = np.zeros(g.n)
            e[i] = eps
            fd = (i_plus(g, x + e) - i_plus(g, x - e)) / (2 * eps)
            assert bnd.p[i] == pytest.approx(fd, abs=1e-5)


def test_bounds_fd_median_term():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(3, 8)))
        deg = g.degree_profile
        x = rng.standard_normal(g.n)
        state = iterate_state(g, x)
        cls = state.classes
        if cls.s_alpha.sum() != 1:
            continue  # FD only matches where N is differentiable
        bnd = bounds(g, state)
        eps = 1e-7
        for i in range(g.n):
            if cls.s_alpha[i]:
                continue
            e = np.zeros(g.n)
            e[i] = eps
            fd = (n_med(deg, x + e).n_value - n_med(deg, x - e).n_value) / (2 * eps)
            assert bnd.a_low[i] == pytest.approx(fd, abs=1e-5)
            assert bnd.a_high[i] == pytest.approx(fd, abs=1e-5)


def test_boundary_indicator_c3_certificate(c3):
    x = np.array([1.0, -1.0, -1.0])
    state, _, ind = pipeline(c3, x)
    assert state.r == 0.5
    assert ind.chi.tolist() == [-1.0, 1.0, 1.0]
    assert ind.a_sel.tolist() == [2.0, 0.0, 0.0]
    assert ind.b.tolist() == [0.0, 0.0, 0.0]
    assert ind.v_b.size == 0


def test_boundary_indicator_p3_global_opt(p3):
    x = np.array([1.0, -1.0, -1.0])
    state, _, ind = pipeline(p3, x)
    assert state.r == 0.0
    assert ind.b.tolist() == [0.0, 0.0, -2.0]
    assert (ind.b * ind.chi <= 0).all()
    assert ind.v_b.size == 0


def test_boundary_indicator_p3_descent(p3):
    x = np.array([1.0, -1.0, 1.0])
    state, _, ind = pipeline(p3, x)
    assert state.r == 0.5
    assert ind.chi.tolist() == [-1.0, 1.0, -1.0]
    assert ind.b.tolist() == [-1.0, 0.0, -1.0]
    assert ind.v_b.tolist() == [0, 2]


def test_select_subgradient_p3_trace(p3):
    x = np.array([1.0, -1.0, 1.0])
    state, bnd, ind = pipeline(p3, x)
    assert state.r == 0.5
    sel = select_subgradient(p3, state, bnd, ind)
    assert sel.i_star == 0
    assert sel.u.tolist() == [-1.0, -2.0, -1.0]
    assert sel.v.tolist() == [1.0, -2.0, 1.0]
    assert sel.y.tolist() == [-1.0, 0.0, 1.0]
    assert sel.s.tolist() == [-0.25, -1.0, 0.25]
    assert np.abs(sel.s).sum() == 1.5
    assert float(x @ sel.s) == pytest.approx(q_r(p3, p3.degree_profile, x, 0.5), abs=1e-12)


def test_select_raises_when_vb_empty(c3):
    state, bnd, ind = pipeline(c3, np.array([1.0, -1.0, -1.0]))
    assert state.r == 0.5 and ind.v_b.size == 0
    with pytest.raises(ValueError, match="V_b is empty"):
        select_subgradient(c3, state, bnd, ind)


def _random_states(rng, count):
    """(graph, x, r) states with assorted tie structure."""
    for _ in range(count):
        g = random_digraph(rng, int(rng.integers(3, 10)), weighted=bool(rng.integers(2)))
        deg = g.degree_profile
        kind = rng.integers(3)
        if kind == 0:
            x = rng.choice([-1.0, 1.0], size=g.n)
        elif kind == 1:
            x = rng.choice([-1.0, 0.0, 1.0], size=g.n)
        else:
            x = rng.standard_normal(g.n)
        if not (x.max() - x.min() > 1e-9):
            continue
        if n_med(deg, x).n_value <= 0:
            continue
        yield g, deg, x


def test_iterate_state_equals_r_obj_and_classify():
    rng = np.random.default_rng(29)
    checked = 0
    for g, deg, x in _random_states(rng, 300):
        state = iterate_state(g, x)
        assert state.r == r_obj(g, deg, x)
        cls = classify(deg, x)
        for f in fields(VertexClasses):
            got, want = getattr(state.classes, f.name), getattr(cls, f.name)
            assert np.asarray(got).tolist() == np.asarray(want).tolist(), f.name
        checked += 1
    assert checked >= 250
    g = random_digraph(rng, 5)
    deg = g.degree_profile
    for const in (np.zeros(g.n), np.full(g.n, -2.5)):
        with pytest.raises(ConstantVectorError):
            r_obj(g, deg, const)
        with pytest.raises(ConstantVectorError):
            iterate_state(g, const)
    # constant to is_nonconstant's tolerance, though r_obj is defined there
    nearly = np.ones(g.n)
    nearly[0] += 1e-13
    assert not is_nonconstant(nearly)
    with pytest.raises(ConstantVectorError):
        iterate_state(g, nearly)


def test_subgradient_inequality_random_probes():
    rng = np.random.default_rng(23)
    tested = 0
    for g, deg, x in _random_states(rng, 150):
        state, bnd, ind = pipeline(g, x)
        if ind.v_b.size == 0:
            continue
        r = state.r
        sel = select_subgradient(g, state, bnd, ind)
        qx = q_r(g, deg, x, r)
        assert float(x @ sel.s) == pytest.approx(qx, abs=1e-10)
        for _ in range(100):
            y = rng.standard_normal(g.n) * rng.choice([0.1, 1.0, 10.0])
            assert q_r(g, deg, y, r) >= qx + float(sel.s @ (y - x)) - 1e-9
        tested += 1
    assert tested >= 60


def test_component_feasibility_invariants():
    rng = np.random.default_rng(24)
    for g, deg, x in _random_states(rng, 120):
        state, bnd, ind = pipeline(g, x)
        if ind.v_b.size == 0:
            continue
        sel = select_subgradient(g, state, bnd, ind)
        assert (sel.u >= bnd.p - bnd.q - 1e-12).all()
        assert (sel.u <= bnd.p + bnd.q + 1e-12).all()
        assert (sel.v >= bnd.a_low - 1e-12).all()
        assert (sel.v <= bnd.a_high + 1e-12).all()
        ties = state.classes.s_alpha
        assert sel.v[ties].sum() == pytest.approx(bnd.A, abs=1e-9)
        if ties.sum() >= 2:
            tie_ids = np.flatnonzero(ties)
            ab = np.abs(ind.b[tie_ids])
            # otherwise the pivot is the tie with the largest |b|, then the largest id
            j_star = sel.i_star if ties[sel.i_star] else int(tie_ids[ab == ab.max()][-1])
            denom = bnd.B - deg.d[j_star]
            if denom > 0:
                assert abs((bnd.A - ind.a_sel[j_star]) / denom) <= 1 + 1e-12


def _select_by_rank(deg, bnd, ind, cls, i_star):
    """u and v by the rank rule: vertices ordered by |b| ascending with
    ties by id (a lexsort). select_subgradient compares |b| instead."""
    n = ind.b.size
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), np.abs(ind.b)))] = np.arange(n)
    u = bnd.p.copy()
    zu, zv, zw = bnd.zero_pairs
    if zu.size:
        touches = (zu == i_star) | (zv == i_star)
        later = np.where(rank[zu] >= rank[zv], zu, zv)
        zval = np.where(touches, ind.chi[i_star], ind.chi[later])
        np.add.at(u, zu, zw * zval)
        np.add.at(u, zv, zw * zval)
    in_a = cls.s_alpha
    v = np.empty(n)
    v[~in_a] = ind.a_sel[~in_a]
    tie_ids = np.flatnonzero(in_a)
    if tie_ids.size <= 1:
        v[tie_ids] = bnd.A
    else:
        j_star = i_star if in_a[i_star] else int(tie_ids[np.argmax(rank[tie_ids])])
        v[j_star] = ind.a_sel[j_star]
        others = tie_ids[tie_ids != j_star]
        denom = bnd.B - deg.d[j_star]
        v[others] = ((bnd.A - ind.a_sel[j_star]) / denom if denom > 0 else 0.0) * deg.d[others]
    return u, v


def test_select_subgradient_equals_rank_rule():
    rng = np.random.default_rng(28)
    compared = 0
    for g, deg, x in _random_states(rng, 400):
        state, bnd, ind = pipeline(g, x)
        if ind.v_b.size == 0:
            continue
        r = state.r
        sel = select_subgradient(g, state, bnd, ind)
        assert sel.i_star == int(ind.v_b.min())
        u, v = _select_by_rank(deg, bnd, ind, state.classes, sel.i_star)
        assert sel.u.tolist() == u.tolist()
        assert sel.v.tolist() == v.tolist()
        assert sel.s.tolist() == ((u + sel.y + 2.0 * r * v) / deg.vol_total).tolist()
        compared += 1
    assert compared >= 200


def test_descent_detection_binary_exhaustive():
    # v_b nonempty <=> the selected subgradient forces strict descent
    # (subproblem value < 0), over all sign vectors of a small family
    rng = np.random.default_rng(25)
    graphs = all_pair_state_digraphs(3) + pair_state_digraphs(rng, 4, 80) + \
        pair_state_digraphs(rng, 5, 40) + pair_state_digraphs(rng, 6, 25)
    states = 0
    for g in graphs:
        for x in sign_vectors(g.n):
            state, bnd, ind = pipeline(g, x)
            if ind.v_b.size:
                _, l_val = subproblem_argmin(select_subgradient(g, state, bnd, ind).s)
                assert l_val < 0, (g.tails, g.heads, x, l_val)
            states += 1
    assert states > 3000


def test_vb_nonempty_implies_improving_flip():
    # the reverse of certificate soundness does hold empirically
    rng = np.random.default_rng(26)
    graphs = all_pair_state_digraphs(3) + pair_state_digraphs(rng, 5, 40)
    for g in graphs:
        for x in sign_vectors(g.n):
            state, _, ind = pipeline(g, x)
            if ind.v_b.size:
                phis = flip_conductances(g, x > 0)
                assert phis.min() < state.r - 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the boundary stop set can miss single-flip improvements at a "
    "small fraction of binary states; the solver compensates with a "
    "direct flip sweep before accepting a stop (see test below)",
)
def test_vb_empty_implies_flip_optimal_as_stated():
    rng = np.random.default_rng(27)
    graphs = all_pair_state_digraphs(4)
    for g in graphs:
        for x in sign_vectors(g.n):
            state, _, ind = pipeline(g, x)
            if ind.v_b.size == 0:
                phis = flip_conductances(g, x > 0)
                assert phis.min() >= state.r - 1e-12


def test_known_boundary_blind_spot():
    # concrete instance where every subgradient is sign-aligned with x
    # (so v_b is rightly empty) yet one flip improves the ratio: the
    # component intervals force s_0 < 0 while flipping vertex 0 reaches 0
    from dicond import build_graph

    g = build_graph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 0, 2, 1])
    deg = g.degree_profile
    x = np.array([-1.0, 1.0, 1.0, -1.0])
    state, bnd, ind = pipeline(g, x)
    r = state.r
    assert r == pytest.approx(0.2)
    assert ind.v_b.size == 0
    # upper boundary of the s_0 interval is negative: no subgradient escape
    s0_max = (bnd.p[0] + bnd.q[0] + bnd.l_low[0] + 2 * r * bnd.a_high[0]) / deg.vol_total
    assert s0_max < 0
    # yet the flip is strictly better
    phis = flip_conductances(g, x > 0)
    assert phis[0] == pytest.approx(0.0)


def _both_steps(g, x):
    """The general chain and the binary step at the binary iterate x;
    both assemble v, y and s in the same shared code."""
    return general_step(g, iterate_state(g, x)), binary_step(g, binary_state(g, x, x > 0, 1.0, CutState(g)))


def test_assembly_signs_y_by_chi_where_the_pivot_has_no_imbalance():
    # J = 0 and d_delta[i*] = 0 while d_delta is not zero elsewhere: with
    # Sign(0) = +1 the one imbalance scalar is chi[i*], so y = chi[i*] d_delta
    g = build_graph(4, [0, 1, 2, 2, 3], [1, 2, 3, 1, 2])
    x = np.array([-1.0, -1.0, 1.0, -1.0])
    state = iterate_state(g, x)
    ind = boundary_indicator(g, state, bounds(g, state))
    d_delta = g.degree_profile.d_delta
    assert state.j_is_zero and d_delta.any()
    for _, sel in _both_steps(g, x):
        i = sel.i_star
        assert i == 3 and d_delta[i] == 0.0 and ind.chi[i] == 1.0
        assert sel.y.tolist() == d_delta.tolist()


def test_assembly_on_a_tie_set_whose_other_members_are_isolated():
    # the tie set is {0, 1} with j* = 1, and vertex 0 is isolated, so
    # B - d[j*] = 0: the other ties take v = 0 rather than a division by zero
    g = build_graph(6, [1, 2], [3, 1])
    x = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    state = iterate_state(g, x)
    bnd = bounds(g, state)
    d = g.degree_profile.d
    assert np.flatnonzero(state.classes.s_alpha).tolist() == [0, 1]
    assert d[0] == 0.0 and bnd.B == d[1]
    for _, sel in _both_steps(g, x):
        assert sel.i_star == 2 and sel.v[0] == 0.0 and np.isfinite(sel.s).all()
        assert sel.v[[0, 1]].sum() == bnd.A
