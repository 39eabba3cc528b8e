import numpy as np
import pytest

from dicond import (
    GraphTooLargeError,
    brute_conductance,
    build_graph,
    canonical,
    conductance_set,
    r_obj,
)

from conftest import random_digraph
from reference import brute_binary_r_min


def test_c3_all_bipartitions_tie(c3):
    res = brute_conductance(c3)
    assert res.phi_d_min == 0.5
    assert res.subsets_enumerated == 3
    # lexicographically smallest attaining membership vector
    assert res.argmin_d.tolist() == [False, False, True]


def test_p2_oracle(p2):
    res = brute_conductance(p2)
    assert res.phi_d_min == 0.0
    # both sides attain 0; lexicographically smallest membership wins
    assert res.argmin_d.tolist() == [False, True]
    assert conductance_set(p2, res.argmin_d)[0] == 0.0
    assert res.phi_plus_min == 0.0
    assert res.argmin_plus.tolist() == [False, True]


def test_two_components_zero(c3):
    g = build_graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    res = brute_conductance(g)
    assert res.phi_d_min == 0.0


def test_min_formula_identity():
    # graph-level conductance equals the min of the one-sided minima
    rng = np.random.default_rng(41)
    for _ in range(40):
        g = random_digraph(rng, int(rng.integers(2, 10)), weighted=bool(rng.integers(2)))
        res = brute_conductance(g)
        assert res.phi_d_min == min(res.phi_plus_min, res.phi_minus_min)


def test_size_limit():
    g = build_graph(5, [0, 1], [1, 2])
    with pytest.raises(GraphTooLargeError):
        brute_conductance(g, limit=4)
    with pytest.raises(GraphTooLargeError):
        brute_binary_r_min(g, g.degree_profile, limit=4)


def test_binary_r_min_examples(c3, p3):
    r_min, arg = brute_binary_r_min(c3, c3.degree_profile)
    assert r_min == 0.5
    r_min, _ = brute_binary_r_min(p3, p3.degree_profile)
    assert r_min == 0.0


def test_binary_r_min_equals_conductance_min():
    # dual enumeration: ratio formula vs cut formula, exact on unit weights
    rng = np.random.default_rng(42)
    for _ in range(500):
        g = random_digraph(rng, int(rng.integers(2, 11)))
        res = brute_conductance(g)
        r_min, arg = brute_binary_r_min(g, g.degree_profile)
        assert r_min == res.phi_d_min
        x = np.where(arg, 1.0, -1.0)
        assert r_obj(g, g.degree_profile, x) == pytest.approx(r_min, abs=1e-12)


def test_binary_r_min_weighted_close():
    rng = np.random.default_rng(43)
    for _ in range(40):
        g = random_digraph(rng, int(rng.integers(2, 10)), weighted=True)
        res = brute_conductance(g)
        r_min, _ = brute_binary_r_min(g, g.degree_profile)
        assert r_min == pytest.approx(res.phi_d_min, rel=1e-12)


def test_argmin_is_attaining_subset():
    rng = np.random.default_rng(44)
    for _ in range(30):
        g = random_digraph(rng, int(rng.integers(3, 9)), weighted=True)
        res = brute_conductance(g)
        phi, phi_p, phi_m = conductance_set(g, res.argmin_d)
        assert phi == res.phi_d_min
        assert conductance_set(g, res.argmin_plus)[1] == res.phi_plus_min
        assert conductance_set(g, res.argmin_minus)[2] == res.phi_minus_min


def test_chunked_enumeration_consistency(monkeypatch):
    # force multiple chunks and compare against a default-chunk run; the
    # dicycle ties many subsets at the minimum, so the lexicographic tie
    # rule is checked across chunk boundaries
    import dicond.oracle as oracle_mod

    rng = np.random.default_rng(45)
    graphs = (random_digraph(rng, 12, weighted=True), canonical("dicycle", 8))

    def run(g):
        return brute_conductance(g), brute_binary_r_min(g, g.degree_profile)

    default_runs = [run(g) for g in graphs]
    monkeypatch.setattr(oracle_mod, "CHUNK", 17)
    for g, (big, (r_big, arg_big)) in zip(graphs, default_runs):
        small, (r_small, arg_small) = run(g)
        for field in ("phi_d_min", "phi_plus_min", "phi_minus_min", "subsets_enumerated"):
            assert getattr(big, field) == getattr(small, field)
        for field in ("argmin_d", "argmin_plus", "argmin_minus"):
            assert getattr(big, field).tolist() == getattr(small, field).tolist()
        assert r_big == r_small
        assert arg_big.tolist() == arg_small.tolist()
