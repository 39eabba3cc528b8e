import gzip
import io

import numpy as np
import pytest

from dicond import (
    DegenerateSubsetError,
    EdgeListParseError,
    EmptyGraphError,
    build_graph,
    canonical,
    conductance_set,
    cut_values,
    degrees,
    largest_strong_component,
    largest_weak_component,
    load_edge_list,
    weak_components,
)
from dicond.graph import prefix_cut_profile, zero_cut

from conftest import random_digraph


def test_load_default_weight():
    g = load_edge_list(b"1 2\n")
    assert g.n == 2 and g.m == 1
    assert g.weights[0] == 1.0


def test_load_aggregates_parallel_arcs():
    g = load_edge_list(b"1 2 0.5\n1 2 0.5\n")
    assert g.m == 1
    assert g.weights[0] == 1.0


def test_load_drops_self_loops():
    g = load_edge_list(b"1 1 3.0\n1 2 1\n")
    assert g.m == 1
    assert g.self_loops_dropped == 1


def test_load_comments_and_blank_lines():
    g = load_edge_list(b"# header\n% other\n\n1 2\n")
    assert g.m == 1


def test_load_malformed_line_reports_number():
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(b"1 2\n1 2 3 4\n")
    assert exc.value.line_no == 2


def test_load_bad_weight():
    with pytest.raises(EdgeListParseError):
        load_edge_list(b"1 2 abc\n")
    with pytest.raises(EdgeListParseError):
        load_edge_list(b"1 2 -1\n")


def test_load_empty_input():
    with pytest.raises(EmptyGraphError):
        load_edge_list(b"# nothing here\n")


def test_build_graph_rejects_endpoints_outside_the_ids():
    for tails, heads in (([0, 1, 5], [1, 2, 0]), ([0, 1, -1], [1, 2, 0]), ([0, 1, 2], [1, 2, 3])):
        with pytest.raises(ValueError, match="outside the vertex ids"):
            build_graph(3, tails, heads)
    assert build_graph(3, [0, 1, 2], [1, 2, 0]).m == 3


def test_build_graph_rejects_nan_weights():
    with pytest.raises(ValueError, match="non-finite"):
        build_graph(3, [0, 1, 2], [1, 2, 0], [1.0, np.nan, 1.0])


def test_build_graph_rejects_infinite_weights():
    with pytest.raises(ValueError, match="non-finite"):
        build_graph(3, [0, 1, 2], [1, 2, 0], [1.0, np.inf, 1.0])


def test_load_gzip_transparent(tmp_path):
    path = tmp_path / "g.el.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1 2 2.0\n2 3\n")
    g = load_edge_list(str(path))
    assert g.m == 2 and g.weights.sum() == 3.0
    # and from a file object
    with open(path, "rb") as fh:
        g2 = load_edge_list(fh)
    assert g2.m == 2


def test_degrees_p2(p2):
    d = degrees(p2)
    assert d.d_out.tolist() == [1, 0]
    assert d.d_in.tolist() == [0, 1]
    assert d.d.tolist() == [1, 1]
    assert d.d_delta.tolist() == [1, -1]
    assert d.vol_total == 2.0


def test_degrees_c3(c3):
    d = degrees(c3)
    assert d.d.tolist() == [2, 2, 2]
    assert d.d_delta.tolist() == [0, 0, 0]
    assert d.vol_total == 6.0


def test_degrees_b2(b2):
    d = degrees(b2)
    assert d.d.tolist() == [2, 2]
    assert d.d_delta.tolist() == [0, 0]
    assert d.vol_total == 4.0


def test_cut_values_examples(p2, c3):
    s = np.array([True, False])
    assert cut_values(p2, s) == (1.0, 0.0, 1.0, 1.0)
    s1 = np.array([True, False, False])
    assert cut_values(c3, s1) == (1.0, 1.0, 2.0, 4.0)
    s12 = np.array([True, True, False])
    assert cut_values(c3, s12) == (1.0, 1.0, 4.0, 2.0)


def test_conductance_examples(p2, c3, b2):
    phi, plus, minus = conductance_set(p2, np.array([True, False]))
    assert (phi, plus, minus) == (0.0, 1.0, 0.0)
    # brute force over the 3 bipartitions of C3: every subset gives 1/2
    best = min(
        conductance_set(c3, np.array(m))[0]
        for m in ([True, False, False], [False, True, False], [True, True, False])
    )
    assert conductance_set(c3, np.array([True, False, False]))[0] == best == 0.5
    assert conductance_set(b2, np.array([True, False]))[0] == 0.5


def test_conductance_degenerate_subset(p2):
    with pytest.raises(DegenerateSubsetError):
        conductance_set(p2, np.array([True, True]))
    g = build_graph(3, [0], [1])  # vertex 2 isolated
    with pytest.raises(DegenerateSubsetError):
        conductance_set(g, np.array([False, False, True]))


def test_complement_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_digraph(rng, int(rng.integers(3, 9)), weighted=True)
        k = int(rng.integers(1, g.n))
        s = np.zeros(g.n, dtype=bool)
        s[rng.choice(g.n, k, replace=False)] = True
        if s.all() or not s.any():
            continue
        cp, cm, vs, vc = cut_values(g, s)
        cp2, cm2, vs2, vc2 = cut_values(g, ~s)
        assert cp == cm2 and cm == cp2
        assert vs == vc2 and vc == vs2
        assert conductance_set(g, s)[0] == conductance_set(g, ~s)[0]


def test_delta_degrees_sum_zero():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(2, 12)), weighted=True)
        assert abs(degrees(g).d_delta.sum()) < 1e-12


def test_bidirectionalization_halves_conductance():
    # undirected edge {i,j} of weight w -> arcs both ways of weight w
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
        if len(edges) < n - 1:
            continue
        w = rng.choice([1.0, 2.0], size=len(edges))
        tails = [e[0] for e in edges] + [e[1] for e in edges]
        heads = [e[1] for e in edges] + [e[0] for e in edges]
        g = build_graph(n, tails, heads, np.concatenate([w, w]))
        d_und = np.zeros(n)
        for (i, j), wij in zip(edges, w):
            d_und[i] += wij
            d_und[j] += wij
        vol_und = d_und.sum()
        for bits in range(1, (1 << n) - 1):
            s = np.array([(bits >> i) & 1 == 1 for i in range(n)])
            cut_und = sum(wij for (i, j), wij in zip(edges, w) if s[i] != s[j])
            mv = min(d_und[s].sum(), vol_und - d_und[s].sum())
            if mv <= 0:
                continue
            assert conductance_set(g, s)[0] == pytest.approx(cut_und / mv / 2.0, abs=1e-12)


def test_largest_weak_component_examples():
    g = load_edge_list(b"1 2\n3 3\n")  # vertex 3 isolated after loop drop
    sub, vmap = largest_weak_component(g)
    assert sub.n == 2 and sub.m == 1
    assert [g.labels[v] for v in vmap] == ["1", "2"]

    two = build_graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    sub, vmap = largest_weak_component(two)
    assert sub.n == 3 and sub.m == 3
    assert vmap.tolist() == [0, 1, 2]  # tie broken toward smallest original id

    g3 = load_edge_list(b"1 2\n3 4\n4 3\n3 5\n")
    sub, vmap = largest_weak_component(g3)
    assert sub.n == 3 and sub.m == 3
    assert sorted(g3.labels[v] for v in vmap) == ["3", "4", "5"]


def test_weak_components_structure():
    g = build_graph(5, [0, 2, 3], [1, 3, 4])
    comps = [c.tolist() for c in weak_components(g)]
    assert comps == [[2, 3, 4], [0, 1]]


def test_zero_cut_examples(p3, c3):
    # dipath 0 -> 1 -> 2: vertex 0 is the only source strong component
    assert zero_cut(p3).tolist() == [True, False, False]
    # reversed dipath: the source is the vertex with the largest id
    rev = build_graph(3, [2, 1], [1, 0])
    assert zero_cut(rev).tolist() == [False, False, True]
    assert zero_cut(c3) is None
    # one volume-carrying strong component plus isolated vertices
    assert zero_cut(build_graph(5, [0, 1, 2], [1, 2, 0])) is None
    two = build_graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    assert zero_cut(two, strong=False).tolist() == [True] * 3 + [False] * 3
    # weakly connected but not strongly connected
    assert zero_cut(p3, strong=False) is None
    for g in (p3, rev, two):
        assert conductance_set(g, zero_cut(g))[0] == 0.0


def test_largest_strong_component_examples(p3):
    # strong components {0, 1}, {2}, {3, 4}; the tie goes to {0, 1}
    g = build_graph(5, [0, 1, 1, 2, 3, 4], [1, 0, 2, 3, 4, 3])
    sub, vmap = largest_strong_component(g)
    assert vmap.tolist() == [0, 1] and sub.m == 2
    sub, vmap = largest_strong_component(p3)
    assert vmap.tolist() == [0] and sub.m == 0


def test_prefix_cut_profile_matches_direct():
    rng = np.random.default_rng(8)
    for n in (5, 30, 120):
        g = random_digraph(rng, n)
        order = rng.permutation(n)
        cps, cms, vols = prefix_cut_profile(g, order)
        for k in range(n - 1):
            s = np.zeros(n, dtype=bool)
            s[order[: k + 1]] = True
            cp, cm, vs, _ = cut_values(g, s)
            # unit weights keep all running sums integral, hence exact
            assert cps[k] == cp and cms[k] == cm and vols[k] == vs


def test_prefix_cut_profile_weighted_close():
    rng = np.random.default_rng(9)
    g = random_digraph(rng, 40, weighted=True)
    order = rng.permutation(40)
    cps, cms, vols = prefix_cut_profile(g, order)
    for k in (0, 10, 25, 38):
        s = np.zeros(40, dtype=bool)
        s[order[: k + 1]] = True
        cp, cm, vs, _ = cut_values(g, s)
        assert cps[k] == pytest.approx(cp, abs=1e-10)
        assert cms[k] == pytest.approx(cm, abs=1e-10)
