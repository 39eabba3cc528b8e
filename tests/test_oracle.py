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
from reference import brute_binary_r_min, scan_minima


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


def test_two_components_zero(c3):
    g = build_graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    res = brute_conductance(g)
    assert res.phi_d_min == 0.0


def test_min_formula_identity():
    # graph-level conductance equals the min of the one-sided minima, and
    # as cut+ of a complement is cut- of the set, both one-sided minima
    # equal it: checked against the scan, which scores every subset and
    # its complement apart
    rng = np.random.default_rng(41)
    for _ in range(40):
        g = random_digraph(rng, int(rng.integers(2, 10)), weighted=bool(rng.integers(2)))
        assert_matches_scan(g)


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
        assert conductance_set(g, res.argmin_d)[0] == res.phi_d_min


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
        assert big.phi_d_min == small.phi_d_min
        assert big.subsets_enumerated == small.subsets_enumerated
        assert big.argmin_d.tolist() == small.argmin_d.tolist()
        assert r_big == r_small
        assert arg_big.tolist() == arg_small.tolist()


def assert_matches_scan(g):
    res = brute_conductance(g)
    values, masks = scan_minima(g)
    assert values == [res.phi_d_min] * 3
    assert res.argmin_d.tolist() == masks[0].tolist()


def test_oracle_matches_a_per_subset_scan():
    # exact weights, so the oracle's matmul sums and conductance_set's
    # masked sums agree bit for bit; the last graphs have isolated
    # vertices, whose zero-volume sides both skip. The reversed p2 (1 -> 0)
    # has its phi_plus minimum only at {0}, the complement of the one
    # representative {1}
    rng = np.random.default_rng(46)
    graphs = [random_digraph(rng, int(rng.integers(2, 9)), weighted=bool(rng.integers(2))) for _ in range(60)]
    graphs += [build_graph(4, [0, 1], [1, 0]), build_graph(5, [1, 2, 3], [2, 3, 1], [0.5, 2.0, 1.5])]
    graphs.append(build_graph(2, [1], [0]))
    for g in graphs:
        assert_matches_scan(g)


def test_tie_rule_across_chunks(monkeypatch):
    # the dicycle's four pairs of contiguous halves tie at 1/8, and
    # 17-row chunks put the tied sets in different chunks
    import dicond.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "CHUNK", 17)
    assert_matches_scan(canonical("dicycle", 8))


def test_phi_plus_argmin_may_hold_vertex_0():
    # the reversed p2 (1 -> 0): {0} has no out-arc, so its phi_plus is 0,
    # while {1} has phi_plus 1; the phi_plus argmin is a complement of a
    # representative, which the oracle never returns, yet its value is
    # the oracle's minimum
    g = build_graph(2, [1], [0])
    res = brute_conductance(g)
    values, masks = scan_minima(g)
    assert values[1] == res.phi_d_min == 0.0
    assert masks[1].tolist() == [True, False]
    assert masks[2].tolist() == [False, True]
    assert res.argmin_d.tolist() == [False, True]
    assert_matches_scan(g)
