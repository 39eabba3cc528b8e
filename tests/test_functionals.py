import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicond import (
    ConstantVectorError,
    brute_conductance,
    conductance_set,
    i_plus,
    j_terms,
    n_med,
    q_r,
    r_obj,
)
from dicond.graph import DegreeProfile

from conftest import fixture_suite, random_digraph, sign_vectors
from reference import SetFunctionHandle, i_diff, lovasz_extension, single_directed_ratio


def test_i_plus_examples(p2, c3):
    assert i_plus(p2, np.array([1.0, -1.0])) == 0.0
    assert i_diff(p2, np.array([1.0, -1.0])) == 2.0
    assert i_plus(p2, np.array([1.0, 1.0])) == 2.0
    assert i_diff(p2, np.array([1.0, 1.0])) == 0.0
    x = np.array([1.0, -1.0, -1.0])
    assert i_plus(c3, x) == 2.0  # arcs contribute 0, 2, 0
    assert i_diff(c3, x) == 4.0


def test_j_terms_examples(p2, p3, c3):
    assert j_terms(p2, np.array([1.0, -1.0])) == (2.0, 2.0)
    assert j_terms(c3, np.array([0.3, -2.0, 5.0])) == (0.0, 0.0)
    assert j_terms(p3, np.array([1.0, -1.0, 1.0])) == (0.0, 0.0)


def _prof(d):
    d = np.asarray(d, dtype=float)
    return DegreeProfile(d_out=d / 2, d_in=d / 2, d=d, d_delta=np.zeros_like(d), vol_total=float(d.sum()))


def test_n_med_examples():
    res = n_med(_prof([1, 1]), np.array([1.0, -1.0]))
    assert (res.alpha_low, res.n_value) == (-1.0, 2.0)
    res = n_med(_prof([1, 2, 1]), np.array([0.0, 1.0, 2.0]))
    assert (res.alpha_low, res.n_value) == (1.0, 2.0)
    res = n_med(_prof([1, 2, 1]), np.array([1.0, -1.0, 1.0]))
    assert (res.alpha_low, res.n_value) == (-1.0, 4.0)


def test_n_med_value_is_the_minimum_at_alpha_low():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = rng.choice([1.0, 2.0, 3.0], size=n)
        x = rng.choice([-1.0, 0.0, 1.0, 2.0], size=n)
        res = n_med(_prof(d), x)
        assert res.n_value == np.dot(d, np.abs(x - res.alpha_low))
        # no c beats it
        for c in np.linspace(x.min() - 1, x.max() + 1, 17):
            assert np.dot(d, np.abs(x - c)) >= res.n_value - 1e-12


def test_r_obj_examples(p2, c3):
    assert r_obj(p2, p2.degree_profile, np.array([1.0, -1.0])) == 0.0
    # oracle over all bipartitions of C3 gives 1/2
    assert brute_conductance(c3).phi_d_min == 0.5
    assert r_obj(c3, c3.degree_profile, np.array([1.0, -1.0, -1.0])) == 0.5


def test_r_obj_scale_invariance(c3):
    deg = c3.degree_profile
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.standard_normal(3)
        if abs(x.max() - x.min()) < 1e-6:
            continue
        t = float(rng.uniform(0.1, 9.0))
        assert r_obj(c3, deg, t * x) == pytest.approx(r_obj(c3, deg, x), rel=1e-12)


def test_r_obj_constant_raises(p2):
    with pytest.raises(ConstantVectorError):
        r_obj(p2, p2.degree_profile, np.array([1.0, 1.0]))


def test_q_r_examples(p2, c3):
    assert q_r(p2, p2.degree_profile, np.array([1.0, -1.0]), 0.0) == 1.0
    assert q_r(c3, c3.degree_profile, np.array([1.0, -1.0, -1.0]), 0.5) == pytest.approx(1.0)


def test_q_r_identity_at_own_ratio():
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_digraph(rng, int(rng.integers(3, 9)), weighted=True)
        deg = g.degree_profile
        x = rng.standard_normal(g.n)
        r = r_obj(g, deg, x)
        linf = float(np.max(np.abs(x)))
        assert q_r(g, deg, x, r) == pytest.approx(linf, rel=1e-12)


@given(t=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_q_r_homogeneity(t):
    g = random_digraph(np.random.default_rng(99), 6)
    deg = g.degree_profile
    x = np.random.default_rng(100).standard_normal(6)
    assert q_r(g, deg, t * x, 0.7) == pytest.approx(t * q_r(g, deg, x, 0.7), rel=1e-9)


def test_lovasz_cut_plus_closed_form(p2):
    f = SetFunctionHandle.cut_plus(p2)
    x = np.array([1.0, 0.0])
    val = lovasz_extension(f, x)
    closed = sum(
        w / 2 * (x[t] - x[h] + abs(x[t] - x[h]))
        for t, h, w in zip(p2.tails, p2.heads, p2.weights)
    )
    assert val == closed == 1.0


def test_lovasz_vol_min_equals_median_term(p2):
    f = SetFunctionHandle.vol_min(p2)
    x = np.array([1.0, 0.0])
    assert lovasz_extension(f, x) == 1.0
    assert n_med(p2.degree_profile, x).n_value == 1.0


def test_lovasz_indicator_identity_random_table():
    rng = np.random.default_rng(14)
    values = rng.uniform(0.0, 5.0, size=16)
    values[0] = 0.0  # empty set must evaluate to zero for the identity
    f = SetFunctionHandle.from_table(values)
    for mask in range(16):
        x = np.array([(mask >> i) & 1 for i in range(4)], dtype=float)
        for mode in ("sum", "integral"):
            assert lovasz_extension(f, x, mode) == pytest.approx(values[mask], abs=1e-12)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lovasz_sum_integral_agree(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, 3.0, size=1 << n)
    f = SetFunctionHandle.from_table(values)
    x = rng.choice([-1.5, -0.5, 0.0, 0.5, 1.0, 2.0], size=n)
    a = lovasz_extension(f, x, "sum")
    b = lovasz_extension(f, x, "integral")
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_lovasz_min_upper_bound():
    # the min-of-extensions bound needs the full-set term under control:
    # it multiplies min(x), so either f(V) = 0 (as for all cut
    # functions) or x >= 0; cover both regimes
    rng = np.random.default_rng(15)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        gv = rng.uniform(0.0, 4.0, size=1 << n)
        hv = rng.uniform(0.0, 4.0, size=1 << n)
        if trial % 2 == 0:
            gv[-1] = hv[-1] = 0.0
            x = rng.standard_normal(n)
        else:
            x = rng.uniform(0.0, 2.0, size=n)
        fg = SetFunctionHandle.from_table(gv)
        fh = SetFunctionHandle.from_table(hv)
        fmin = SetFunctionHandle.from_table(np.minimum(gv, hv))
        fl = lovasz_extension(fmin, x)
        assert fl <= min(lovasz_extension(fg, x), lovasz_extension(fh, x)) + 1e-12


def test_dominance_chain():
    # 0.5*(vol*linf - I+ - J) >= 0.5*(I - J) >= lovasz(min-cut)
    rng = np.random.default_rng(16)
    for _ in range(30):
        g = random_digraph(rng, int(rng.integers(3, 7)), weighted=True)
        deg = g.degree_profile
        x = rng.standard_normal(g.n)
        linf = float(np.max(np.abs(x)))
        _, j = j_terms(g, x)
        upper = 0.5 * (deg.vol_total * linf - i_plus(g, x) - j)
        mid = 0.5 * (i_diff(g, x) - j)
        low = lovasz_extension(SetFunctionHandle.cut_min(g), x)
        assert upper >= mid - 1e-10
        assert mid >= low - 1e-10


def test_indicator_identity_fixture_suite():
    # r at a +/-1 indicator equals the set conductance, exhaustively
    for g in fixture_suite(max_n=10):
        deg = g.degree_profile
        for x in sign_vectors(g.n):
            s = x > 0
            try:
                phi = conductance_set(g, s)[0]
            except Exception:
                continue
            assert r_obj(g, deg, x) == pytest.approx(phi, abs=1e-12)


def test_r_lower_bounded_by_graph_conductance():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_digraph(rng, int(rng.integers(3, 11)))
        deg = g.degree_profile
        opt = brute_conductance(g).phi_d_min
        for _ in range(30):
            x = rng.standard_normal(g.n)
            assert r_obj(g, deg, x) >= opt - 1e-9


def test_single_directed_sign_convention():
    # sign=+1 (the literal minus-J0 form) matches in-conductance at
    # indicators; sign=-1 matches out-conductance
    for g in fixture_suite(max_n=7)[:20]:
        deg = g.degree_profile
        for x in sign_vectors(g.n):
            s = x > 0
            try:
                _, phi_plus, phi_minus = conductance_set(g, s)
            except Exception:
                continue
            assert single_directed_ratio(g, deg, x, sign=1.0) == pytest.approx(phi_minus, abs=1e-10)
            assert single_directed_ratio(g, deg, x, sign=-1.0) == pytest.approx(phi_plus, abs=1e-10)


def test_single_directed_minimum_matches_oracle():
    rng = np.random.default_rng(18)
    for _ in range(10):
        g = random_digraph(rng, int(rng.integers(3, 8)))
        deg = g.degree_profile
        res = brute_conductance(g)
        best = min(
            single_directed_ratio(g, deg, x, sign=1.0)
            for x in sign_vectors(g.n)
            if n_med(deg, x).n_value > 0
        )
        assert best == pytest.approx(res.phi_d_min, abs=1e-10)
