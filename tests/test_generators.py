import numpy as np
import pytest

from dicond import DsbmParams, canonical, conductance_set, cut_values, dsbm


def test_canonical_kinds():
    c3 = canonical("c3")
    assert c3.n == 3 and c3.m == 3
    assert list(zip(c3.tails.tolist(), c3.heads.tolist())) == [(0, 1), (1, 2), (2, 0)]
    p3 = canonical("dipath", 3)
    assert list(zip(p3.tails.tolist(), p3.heads.tolist())) == [(0, 1), (1, 2)]
    b2 = canonical("b2")
    assert b2.m == 2 and b2.degree_profile.d.tolist() == [2, 2]
    assert canonical("dicycle", 7).m == 7
    with pytest.raises(ValueError):
        canonical("dipath", 1)
    with pytest.raises(ValueError):
        canonical("nope")


def test_params_validation():
    with pytest.raises(ValueError):
        DsbmParams(n=0, p=0.1, q=0.1, eta=0.5, seed=0)
    with pytest.raises(ValueError):
        DsbmParams(n=5, p=1.5, q=0.1, eta=0.5, seed=0)
    # seed=1.5 sampled the seed-1 graph, and n=2.5 failed later in range()
    for bad in ({"seed": 1.5}, {"seed": -1}, {"seed": 2.0}, {"n": 2.5}, {"n": True}):
        with pytest.raises(ValueError, match="integer|>= "):
            DsbmParams(**{"n": 5, "p": 0.1, "q": 0.1, "eta": 0.5, "seed": 0, **bad})
    numpy_ints = DsbmParams(n=np.int64(5), p=0.1, q=0.1, eta=0.5, seed=np.uint32(7))
    g, _ = dsbm(numpy_ints)
    assert g.tails.tolist() == dsbm(DsbmParams(n=5, p=0.1, q=0.1, eta=0.5, seed=7))[0].tails.tolist()


def test_dsbm_deterministic():
    params = DsbmParams(n=50, p=0.1, q=0.05, eta=0.3, seed=123)
    g1, lab1 = dsbm(params)
    g2, lab2 = dsbm(params)
    assert g1.tails.tolist() == g2.tails.tolist()
    assert g1.heads.tolist() == g2.heads.tolist()
    assert lab1.tolist() == lab2.tolist()
    g3, _ = dsbm(DsbmParams(n=50, p=0.1, q=0.05, eta=0.3, seed=124))
    assert g3.tails.tolist() != g1.tails.tolist()


def test_dsbm_eta_zero_gives_zero_out_cut():
    for seed in range(5):
        g, planted = dsbm(DsbmParams(n=30, p=0.1, q=0.2, eta=0.0, seed=seed))
        c1 = planted == 0
        cp, cm, _, _ = cut_values(g, c1)
        assert cp == 0.0
        assert cm > 0
        assert conductance_set(g, c1)[0] == 0.0


def test_dsbm_arc_count_expectations():
    # n=1000, p=q=0.005: within-arcs ~ Binom(999000, .005), cross ~ Binom(1e6, .005)
    g, planted = dsbm(DsbmParams(n=1000, p=0.005, q=0.005, eta=0.2, seed=9))
    same = planted[g.tails] == planted[g.heads]
    n_within = int(same.sum())
    n_cross = int((~same).sum())
    for count, trials, prob in ((n_within, 999000, 0.005), (n_cross, 1000000, 0.005)):
        mean = trials * prob
        sigma = np.sqrt(trials * prob * (1 - prob))
        assert abs(count - mean) < 5 * sigma


def test_dsbm_direction_frequency_matches_eta():
    # pooled over seeds, the fraction of cross arcs directed block1->block2
    eta = 0.3
    fwd = tot = 0
    for seed in range(10):
        g, planted = dsbm(DsbmParams(n=60, p=0.05, q=0.1, eta=eta, seed=seed))
        cross = planted[g.tails] != planted[g.heads]
        t_block = planted[g.tails[cross]]
        fwd += int((t_block == 0).sum())
        tot += int(cross.sum())
    sigma = np.sqrt(tot * eta * (1 - eta))
    assert abs(fwd - tot * eta) < 5 * sigma


def test_dsbm_planted_conductance_concentrates():
    n, p, q, eta = 200, 0.02, 0.02, 0.2
    predicted = q * n * n * min(eta, 1 - eta) / (n * ((n - 1) * p + n * q))
    for seed in range(3):
        g, planted = dsbm(DsbmParams(n=n, p=p, q=q, eta=eta, seed=seed))
        phi = conductance_set(g, planted == 0)[0]
        assert phi == pytest.approx(predicted, rel=0.2)


def test_dsbm_weights_all_one():
    g, _ = dsbm(DsbmParams(n=20, p=0.3, q=0.3, eta=0.5, seed=2))
    assert (g.weights == 1.0).all()
    assert g.labels[:3] == ("1", "2", "3")
