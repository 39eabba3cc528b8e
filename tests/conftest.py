import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dicond import build_graph, canonical, weak_components


@pytest.fixture
def p2():
    return canonical("p2")


@pytest.fixture
def p3():
    return canonical("p3")


@pytest.fixture
def c3():
    return canonical("c3")


@pytest.fixture
def b2():
    return canonical("b2")


def random_digraph(rng, n, weighted=False, extra_arcs=None):
    """Random weakly-connected digraph: a random spanning chain plus
    extra random arcs."""
    order = rng.permutation(n)
    tails, heads = [], []
    for a, b in zip(order[:-1], order[1:]):
        if rng.random() < 0.5:
            a, b = b, a
        tails.append(a)
        heads.append(b)
    m_extra = int(rng.integers(0, n * (n - 1) // 2 + 1)) if extra_arcs is None else extra_arcs
    for _ in range(m_extra):
        a, b = rng.integers(0, n, 2)
        if a != b:
            tails.append(a)
            heads.append(b)
    if weighted:
        w = rng.choice([0.5, 1.0, 1.5, 2.0], size=len(tails))
    else:
        w = np.ones(len(tails))
    g = build_graph(n, tails, heads, w)
    assert len(weak_components(g)) == 1
    return g


def pair_state_digraphs(rng, n, count):
    """Sample weakly connected digraphs by drawing one of the four arc
    states (none, forward, backward, both) per unordered pair."""
    out = []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tries = 0
    while len(out) < count and tries < count * 40:
        tries += 1
        tails, heads = [], []
        for (i, j) in pairs:
            state = int(rng.integers(0, 4))
            if state in (1, 3):
                tails.append(i)
                heads.append(j)
            if state in (2, 3):
                tails.append(j)
                heads.append(i)
        if not tails:
            continue
        g = build_graph(n, tails, heads)
        if len(weak_components(g)) == 1:
            out.append(g)
    return out


def all_pair_state_digraphs(n):
    """Every weakly connected digraph on n labeled vertices (4 states
    per unordered pair); exhaustive, so keep n <= 4."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for code in range(4 ** len(pairs)):
        tails, heads = [], []
        c = code
        for (i, j) in pairs:
            state = c % 4
            c //= 4
            if state in (1, 3):
                tails.append(i)
                heads.append(j)
            if state in (2, 3):
                tails.append(j)
                heads.append(i)
        if not tails:
            continue
        g = build_graph(n, tails, heads)
        if len(weak_components(g)) == 1:
            out.append(g)
    return out


def sign_vectors(n):
    """All nonconstant +/-1 vectors on n vertices."""
    for bits in range(1, (1 << n) - 1):
        yield np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(n)])


def fixture_suite(max_n=10):
    """Deterministic small-graph suite: canonical fixtures plus seeded
    random digraphs, all weakly connected, n <= max_n."""
    rng = np.random.default_rng(20240817)
    graphs = [canonical("p2"), canonical("p3"), canonical("c3"), canonical("b2"),
              canonical("dicycle", 5), canonical("dipath", 6)]
    for n in range(3, max_n + 1):
        for _ in range(4):
            graphs.append(random_digraph(rng, n))
        for _ in range(2):
            graphs.append(random_digraph(rng, n, weighted=True))
    return [g for g in graphs if g.n <= max_n]


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def report_probe():
    """tools/report_probe.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("report_probe", TOOLS / "report_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
