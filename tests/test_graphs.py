"""Graph generators: exact structural contracts plus statistical oracles
(binomial degree bounds, heavy tails, clustering collapse under rewiring)."""

import numpy as np
import pytest

from mpnode import graphs
from mpnode.graphs import (GraphSpec, gen_barabasi_albert, gen_erdos_renyi,
                           gen_fixed_degree, gen_fully_connected_weighted,
                           gen_watts_strogatz)


def check_symmetric_binary(g: GraphSpec):
    adj = g.adjacency
    assert np.array_equal(adj, adj.T)
    assert set(np.unique(adj)) <= {0.0, 1.0}
    assert not np.diagonal(adj).any()


def clustering_coefficient(adj: np.ndarray) -> float:
    """Mean local clustering; independent oracle via triangle counting."""
    n = adj.shape[0]
    coeffs = []
    for i in range(n):
        nbrs = np.nonzero(adj[i] > 0)[0]
        k = len(nbrs)
        if k < 2:
            continue
        links = adj[np.ix_(nbrs, nbrs)].sum() / 2
        coeffs.append(links / (k * (k - 1) / 2))
    return float(np.mean(coeffs)) if coeffs else 0.0


class TestErdosRenyi:
    def test_p_one_complete(self):
        g = gen_erdos_renyi(6, 1.0, seed=1)
        assert np.array_equal(g.adjacency.sum(axis=1), np.full(6, 5.0))

    def test_p_zero_empty(self):
        g = gen_erdos_renyi(6, 0.0, seed=1)
        assert not g.adjacency.any()

    def test_mean_degree_binomial(self):
        # mean degree of G(100, 0.3) concentrates near 99 * 0.3 = 29.7
        g = gen_erdos_renyi(100, 0.3, seed=7)
        sigma = np.sqrt(99 * 0.3 * 0.7)
        assert abs(g.adjacency.sum(axis=1).mean() - 29.7) < 3 * sigma
        check_symmetric_binary(g)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(5, 1.5, seed=0)


class TestBarabasiAlbert:
    def test_clique_start_complete(self):
        g = gen_barabasi_albert(4, 3, seed=2)
        assert np.array_equal(g.adjacency, (1.0 - np.eye(4)))

    def test_edge_count_formula(self):
        for n, m, seed in [(20, 2, 0), (50, 3, 1), (200, 2, 2)]:
            g = gen_barabasi_albert(n, m, seed)
            expect = m * (m - 1) / 2 + (n - m) * m
            assert g.adjacency.sum() / 2 == expect
            check_symmetric_binary(g)

    def test_heavier_tail_than_er(self):
        # same edge density, BA max degree strictly above ER for >= 9/10 seeds
        n, m = 200, 2
        edges = m * (m - 1) / 2 + (n - m) * m
        p = 2 * edges / (n * (n - 1))
        wins = 0
        for seed in range(10):
            ba = gen_barabasi_albert(n, m, seed)
            er = gen_erdos_renyi(n, p, seed)
            if ba.adjacency.sum(axis=1).max() > er.adjacency.sum(axis=1).max():
                wins += 1
        assert wins >= 9

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 5, seed=0)


class TestWattsStrogatz:
    def test_beta_zero_ring(self):
        g = gen_watts_strogatz(12, 4, 0.0, seed=3)
        assert np.array_equal(g.adjacency.sum(axis=1), np.full(12, 4.0))
        assert g.adjacency[0, 1] == 1.0 and g.adjacency[0, 2] == 1.0

    def test_edge_count_preserved(self):
        for beta in (0.0, 0.3, 1.0):
            g = gen_watts_strogatz(20, 6, beta, seed=4)
            assert g.adjacency.sum() / 2 == 20 * 6 / 2
            check_symmetric_binary(g)

    def test_rewiring_lowers_clustering(self):
        lattice = gen_watts_strogatz(50, 4, 0.0, seed=5)
        rewired = gen_watts_strogatz(50, 4, 1.0, seed=5)
        assert clustering_coefficient(rewired.adjacency) < clustering_coefficient(
            lattice.adjacency)

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            gen_watts_strogatz(10, 3, 0.2, seed=0)


class TestFullyConnectedWeighted:
    def test_zero_magnitude(self):
        g = gen_fully_connected_weighted(4, 0.0, seed=6)
        assert not g.adjacency.any()

    def test_weight_ranges(self):
        g = gen_fully_connected_weighted(5, 2.5, seed=7)
        off = g.adjacency[~np.eye(5, dtype=bool)]
        assert ((off >= 0.0) & (off <= 2.5)).all()
        assert not np.diagonal(g.adjacency).any()

    def test_lorenz3_low_coupling_recipe(self):
        g = gen_fully_connected_weighted(3, 0.01, seed=8)
        off = g.adjacency[~np.eye(3, dtype=bool)]
        assert ((off >= 0.0) & (off <= 0.01)).all()
        assert (off > 0.0).all()  # almost surely strictly inside


class TestFixedDegree:
    def test_kuramoto10_recipe(self):
        g = gen_fixed_degree(10, 5, seed=9)
        assert np.array_equal(g.adjacency.sum(axis=1), np.full(10, 5.0))
        check_symmetric_binary(g)

    def test_gene_grid_recipe(self):
        g = gen_fixed_degree(16, 8, seed=10)
        assert np.array_equal(g.adjacency.sum(axis=1), np.full(16, 8.0))

    def test_complete_when_d_is_n_minus_1(self):
        g = gen_fixed_degree(6, 5, seed=11)
        assert np.array_equal(g.adjacency, 1.0 - np.eye(6))

    def test_infeasible_parity(self):
        with pytest.raises(ValueError):
            gen_fixed_degree(5, 3, seed=0)

    def test_many_seeds_succeed(self):
        for seed in range(30):
            g = gen_fixed_degree(10, 5, seed=seed)
            assert np.array_equal(g.adjacency.sum(axis=1), np.full(10, 5.0))


class TestDeterminismAndInvariants:
    def test_same_seed_bit_identical(self):
        for gen in [lambda s: gen_erdos_renyi(30, 0.4, s),
                    lambda s: gen_barabasi_albert(30, 3, s),
                    lambda s: gen_watts_strogatz(30, 4, 0.3, s),
                    lambda s: gen_fully_connected_weighted(8, 1.0, s),
                    lambda s: gen_fixed_degree(12, 4, s)]:
            assert np.array_equal(gen(42).adjacency, gen(42).adjacency)

    def test_different_seeds_differ(self):
        a = gen_erdos_renyi(30, 0.4, 1).adjacency
        b = gen_erdos_renyi(30, 0.4, 2).adjacency
        assert not np.array_equal(a, b)

    def test_all_generators_zero_diag_finite_nonneg(self):
        gs = [gen_erdos_renyi(15, 0.5, 3), gen_barabasi_albert(15, 2, 3),
              gen_watts_strogatz(15, 4, 0.5, 3), gen_fully_connected_weighted(15, 2.0, 3),
              gen_fixed_degree(15, 4, 3)]
        for g in gs:
            assert not np.diagonal(g.adjacency).any()
            assert np.isfinite(g.adjacency).all() and (g.adjacency >= 0).all()

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            GraphSpec(2, np.array([[1.0, 0.0], [0.0, 0.0]]), "explicit")  # diag
        with pytest.raises(ValueError):
            GraphSpec(2, np.array([[0.0, -1.0], [-1.0, 0.0]]), "explicit")  # negative


def test_degree_helpers():
    assert graphs.ba_m_for_degree(8) == 4
    assert graphs.ba_m_for_degree(5) == 3
    assert graphs.ws_k_for_degree(8) == 8
    assert graphs.ws_k_for_degree(5) == 4
