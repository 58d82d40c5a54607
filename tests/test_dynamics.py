"""Ground-truth simulators: hand-computed RHS values, RK4 order-4
convergence, conservation laws, and bit-exact node-relabeling symmetry."""

import numpy as np
import pytest

from mpnode import dynamics, graphs
from mpnode.dynamics import (GeneParams, KuramotoParams, LorenzParams,
                             PendulumParams, gene_rhs, in_domain, kuramoto_rhs,
                             lorenz_coupled_rhs, make_gene, make_kuramoto,
                             make_lorenz, make_pendulum, pendulum_rhs, rk4_step,
                             simulate_trajectory, steps_for)
from mpnode.errors import DivergenceError, DomainError


def hand_rk4(f, x, dt):
    """Independent oracle: RK4 written out stage by stage."""
    k1 = f(x)
    k2 = f(x + dt / 2 * k1)
    k3 = f(x + dt / 2 * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class TestRk4:
    def test_exponential_decay_hand_value(self):
        out = rk4_step(lambda x, u: -x, np.array([1.0]), None, 0.1)
        # hand arithmetic: 1 - (0.1/6)(1 + 2*0.95 + 2*0.9525 + 0.90475)
        assert abs(out[0] - 0.9048375) < 1e-12
        assert abs(out[0] - hand_rk4(lambda x: -x, np.array([1.0]), 0.1)[0]) == 0.0

    def test_zero_rhs_identity(self):
        x = np.array([3.0, -1.0])
        assert np.array_equal(rk4_step(lambda x, u: 0.0 * x, x, None, 0.5), x)

    def test_fourth_order_convergence(self):
        # halving dt on x' = -x over [0, 1] shrinks global error ~16x
        def integrate(dt):
            x = np.array([1.0])
            for _ in range(int(round(1.0 / dt))):
                x = rk4_step(lambda x, u: -x, x, None, dt)
            return abs(x[0] - np.exp(-1.0))

        ratio = integrate(0.1) / integrate(0.05)
        assert 12.0 <= ratio <= 20.0

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(lambda x, u: -x, np.array([1.0]), None, 0.0)

    def test_divergence_names_stage(self):
        def blow(x, u):
            return x * 1e200
        with pytest.raises(DivergenceError, match="rk4 stage"):
            rk4_step(blow, np.array([1e200]), None, 1.0)


class TestPendulumRhs:
    def test_equilibrium(self):
        out = pendulum_rhs(np.zeros(4), PendulumParams())
        assert np.array_equal(out, np.zeros(4))

    def test_symmetric_configuration(self):
        out = pendulum_rhs(np.array([0.3, 0.2, 0.3, 0.2]), PendulumParams())
        assert out[1] == out[3]
        assert out[0] == 0.2 and out[2] == 0.2

    def test_substitution_example(self):
        p = PendulumParams()
        out = pendulum_rhs(np.array([0.1, 0.0, 0.0, 0.0]), p)
        expect_a1 = np.sin(0.1) * (-9.81 - 3.0) / (1.5 * np.cos(0.1))
        expect_a2 = 2.0 * 1.5 * np.sin(0.1) / (1.5 * np.cos(0.0))
        assert abs(out[1] - expect_a1) < 1e-14
        assert abs(out[3] - expect_a2) < 1e-14

    def test_singularity_guard(self):
        with pytest.raises(DomainError):
            pendulum_rhs(np.array([np.pi / 2, 0.0, 0.0, 0.0]), PendulumParams())


class TestLorenzRhs:
    def test_origin_fixed_point(self):
        g = graphs.explicit_graph(np.zeros((1, 1)))
        out = lorenz_coupled_rhs(np.zeros((1, 3)), LorenzParams(coupling=g))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_substitution_example(self):
        g = graphs.explicit_graph(np.zeros((1, 1)))
        out = lorenz_coupled_rhs(np.array([[10.0, 10.0, 10.0]]),
                                 LorenzParams(coupling=g))
        assert np.allclose(out[0], [0.0, 170.0, 73.34], atol=1e-12)

    def test_identical_states_cancel_coupling(self):
        g = graphs.explicit_graph(np.array([[0.0, 0.7], [0.7, 0.0]]))
        state = np.tile([1.0, 2.0, 3.0], (2, 1))
        coupled = lorenz_coupled_rhs(state, LorenzParams(coupling=g))
        g0 = graphs.explicit_graph(np.zeros((2, 2)))
        uncoupled = lorenz_coupled_rhs(state, LorenzParams(coupling=g0))
        assert np.allclose(coupled, uncoupled, atol=1e-15)


class TestGeneRhs:
    def test_zero_state(self):
        g = graphs.gen_erdos_renyi(4, 0.5, seed=1)
        p = GeneParams(b=np.ones(4), coupling=g)
        assert np.array_equal(gene_rhs(np.zeros(4), p), np.zeros(4))

    def test_isolated_decay(self):
        g = graphs.explicit_graph(np.zeros((1, 1)))
        p = GeneParams(b=np.ones(1), g_exp=1.0, h_exp=2.0, coupling=g)
        assert abs(gene_rhs(np.array([2.0]), p)[0] + 2.0) < 1e-15

    def test_substitution_example(self):
        g = graphs.explicit_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p = GeneParams(b=np.ones(2), g_exp=1.0, h_exp=2.0, coupling=g)
        out = gene_rhs(np.array([1.0, 1.0]), p)
        assert np.allclose(out, [-0.5, -0.5], atol=1e-15)

    def test_negative_state_rejected(self):
        g = graphs.explicit_graph(np.zeros((1, 1)))
        p = GeneParams(b=np.ones(1), coupling=g)
        with pytest.raises(DomainError):
            gene_rhs(np.array([-0.1]), p)


class TestKuramotoRhs:
    def test_equal_phases_gives_frequencies(self):
        g = graphs.gen_fixed_degree(6, 3, seed=2)
        b = np.linspace(-1, 1, 6)
        out = kuramoto_rhs(np.full(6, 0.42), KuramotoParams(b=b, coupling=g))
        assert np.array_equal(out, b)

    def test_quarter_turn_pair(self):
        g = graphs.explicit_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p = KuramotoParams(b=np.zeros(2), coupling=g)
        out = kuramoto_rhs(np.array([0.0, np.pi / 2]), p)
        assert np.allclose(out, [1.0, -1.0], atol=1e-15)

    def test_phase_sum_conserved_instantaneously(self):
        g = graphs.gen_erdos_renyi(8, 0.5, seed=3)
        rng = np.random.default_rng(4)
        b = rng.uniform(-1, 1, 8)
        x = rng.uniform(-np.pi, np.pi, 8)
        out = kuramoto_rhs(x, KuramotoParams(b=b, coupling=g))
        assert abs(out.sum() - b.sum()) < 1e-12


class TestSimulateTrajectory:
    def test_constant_kuramoto(self):
        g = graphs.gen_fixed_degree(4, 2, seed=5)
        sys = dynamics.SystemSpec("kuramoto",
                                  KuramotoParams(b=np.zeros(4), coupling=g), 4)
        traj = simulate_trajectory(sys, np.full((4, 1), 0.3), 1.0, 0.1)
        assert np.allclose(traj, 0.3, atol=1e-15)

    def test_pendulum_snapshot_count(self):
        sys = make_pendulum()
        x0 = np.array([[0.2, 0.1], [-0.1, 0.0]])
        traj = simulate_trajectory(sys, x0, 10.0, 0.1)
        assert traj.shape == (101, 2, 2)

    def test_lorenz_step_halving(self):
        # step-halving oracle on a single attractor from (1, 1, 1): each
        # halving shrinks the deviation ~16x (order 4), reaching 2e-3 by
        # dt = 0.0125 over the first second
        g = graphs.explicit_graph(np.zeros((1, 1)))
        sys = make_lorenz(g)
        x0 = np.ones((1, 3))
        trajs = {dt: simulate_trajectory(sys, x0, 1.0, dt)
                 for dt in (0.05, 0.025, 0.0125, 0.00625)}
        devs = [np.abs(trajs[dt] - trajs[dt / 2][::2]).max()
                for dt in (0.05, 0.025, 0.0125)]
        assert devs[2] < 2e-3
        for a, b in zip(devs[:-1], devs[1:]):
            assert 10.0 <= a / b <= 22.0

    def test_pendulum_zero_state_stays_zero(self):
        sys = make_pendulum()
        traj = simulate_trajectory(sys, np.zeros((2, 2)), 10.0, 0.1)
        assert np.abs(traj).max() < 1e-9

    def test_non_integral_horizon_rejected(self):
        sys = make_pendulum()
        with pytest.raises(ValueError):
            simulate_trajectory(sys, np.zeros((2, 2)), 1.05, 0.1)

    def test_divergence_reports_timestep(self):
        sys = make_pendulum()
        x0 = np.array([[1.56, 1.0], [0.5, 0.5]])  # starts against the barrier
        with pytest.raises((DivergenceError, DomainError), match="timestep"):
            simulate_trajectory(sys, x0, 10.0, 0.1)


def _system_and_states(kind, batch, seed):
    """A small system of `kind` and `batch` initial states from its sampling range."""
    rng = np.random.default_rng(seed)
    if kind == "pendulum":
        sys = make_pendulum()
        x0 = np.stack([rng.uniform(-1.2, 1.2, (batch, 2)), rng.uniform(-1, 1, (batch, 2))],
                      axis=-1)
        return sys, x0, 5.0, 0.1
    n = 6
    if kind == "kuramoto":
        sys = make_kuramoto(graphs.gen_erdos_renyi(n, 0.5, seed=seed), seed=seed)
        return sys, rng.uniform(-1, 1, (batch, n, 1)), 2.0, 0.05
    if kind == "gene":
        sys = make_gene(graphs.gen_barabasi_albert(n, 2, seed=seed))
        return sys, rng.uniform(0, 50, (batch, n, 1)), 2.0, 0.1
    sys = make_lorenz(graphs.gen_fully_connected_weighted(n, 0.5, seed=seed))
    return sys, rng.uniform(-10, 10, (batch, n, 3)), 2.0, 0.05


class TestBatchedSimulation:
    @pytest.mark.parametrize("kind", ["kuramoto", "gene", "lorenz", "pendulum"])
    def test_rows_match_single_runs_bit_for_bit(self, kind):
        sys, x0, horizon, dt = _system_and_states(kind, 7, seed=21)
        batch = simulate_trajectory(sys, x0, horizon, dt)
        assert batch.shape == (7, steps_for(horizon, dt) + 1) + x0.shape[1:]
        assert np.isfinite(batch).all()
        for row, start in zip(batch, x0):
            assert np.array_equal(row, simulate_trajectory(sys, start, horizon, dt))

    def test_pendulum_rows_at_the_barrier_fail_alone(self):
        sys = make_pendulum()
        good = np.array([[[0.2, 0.1], [-0.1, 0.0]], [[0.9, 0.5], [-0.4, -0.2]]])
        barrier = np.array([[[1.56, 1.0], [0.5, 0.5]], [[0.1, 0.0], [-1.5705, -1.0]]])
        x0 = np.stack([good[0], barrier[0], good[1], barrier[1]])
        batch = simulate_trajectory(sys, x0, 10.0, 0.1)
        assert np.isnan(batch[[1, 3]]).all()
        assert np.array_equal(batch[0], simulate_trajectory(sys, good[0], 10.0, 0.1))
        assert np.array_equal(batch[2], simulate_trajectory(sys, good[1], 10.0, 0.1))
        for start in barrier:
            with pytest.raises((DivergenceError, DomainError), match="timestep"):
                simulate_trajectory(sys, start, 10.0, 0.1)

    def test_diverging_row_fails_alone(self):
        g = graphs.explicit_graph(np.zeros((1, 1)))
        sys = make_lorenz(g)
        x0 = np.array([[[1.0, 1.0, 1.0]], [[1e155, 1e155, 1e155]]])
        batch = simulate_trajectory(sys, x0, 1.0, 0.05)
        assert np.isnan(batch[1]).all()
        assert np.array_equal(batch[0], simulate_trajectory(sys, x0[0], 1.0, 0.05))
        with pytest.raises(DivergenceError, match="timestep 1: non-finite rk4 stage"):
            simulate_trajectory(sys, x0[1], 1.0, 0.05)

    # NaN passes the domain test: the finiteness checks own it, as before
    @pytest.mark.parametrize("kind,grid,ok", [
        ("pendulum", [[[0.3, 9.0], [-1.5, 0.0]], [[np.pi / 2, 0.0], [0.0, 0.0]],
                      [[np.nan, 0.0], [0.0, 0.0]]], [True, False, True]),
        ("gene", [[[0.0], [2.0]], [[1.0], [-1e-300]], [[np.nan], [1.0]]],
         [True, False, True]),
        ("lorenz", [[[1e300, -5.0, 0.0]], [[np.nan, 0.0, 0.0]]], [True, True]),
    ])
    def test_in_domain_per_row(self, kind, grid, ok):
        assert list(in_domain(kind, np.array(grid))) == ok

    def test_rhs_raises_when_any_row_is_out_of_domain(self):
        with pytest.raises(DomainError):
            pendulum_rhs(np.array([[0.1, 0.0, 0.2, 0.0], [0.0, 0.0, np.pi / 2, 0.0]]),
                         PendulumParams())
        g = graphs.explicit_graph(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            gene_rhs(np.array([[1.0, 2.0], [0.5, -0.1]]), GeneParams(b=np.ones(2), coupling=g))

    def test_state_shape_checked(self):
        sys = make_pendulum()
        for x0 in (np.zeros((2, 3)), np.zeros((1, 1, 2, 2)), np.zeros(4)):
            with pytest.raises(DomainError, match="does not match"):
                simulate_trajectory(sys, x0, 1.0, 0.1)


class TestConservationAndSymmetry:
    def test_kuramoto_mean_phase_drift(self):
        # symmetric coupling conserves sum(x) - t * sum(b)
        g = graphs.gen_fixed_degree(10, 5, seed=6)
        sys = make_kuramoto(g, seed=7)
        rng = np.random.default_rng(8)
        x0 = rng.uniform(-1, 1, (10, 1))
        traj = simulate_trajectory(sys, x0, 5.0, 0.05)
        b_sum = sys.params.b.sum()
        times = np.arange(traj.shape[0]) * 0.05
        drift = traj.sum(axis=(1, 2)) - times * b_sum
        assert np.abs(drift - drift[0]).max() < 1e-6

    def test_gene_stays_nonnegative(self):
        g = graphs.gen_barabasi_albert(16, 4, seed=9)
        sys = make_gene(g)
        rng = np.random.default_rng(10)
        x0 = rng.uniform(0, 50, (16, 1))
        traj = simulate_trajectory(sys, x0, 5.0, 0.1)
        assert traj.min() >= 0.0

    @pytest.mark.parametrize("kind", ["kuramoto", "gene", "lorenz", "pendulum"])
    def test_permutation_symmetry_bit_exact(self, kind):
        rng = np.random.default_rng(11)
        if kind == "pendulum":
            sys = make_pendulum()
            x0 = np.array([[0.9, 0.5], [-0.4, -0.2]])
            perm = np.array([1, 0])
            traj = simulate_trajectory(sys, x0, 5.0, 0.1)
            traj_p = simulate_trajectory(sys, x0[perm], 5.0, 0.1)
            assert np.array_equal(traj[:, perm], traj_p)
            return
        n = 8
        if kind == "kuramoto":
            g = graphs.gen_erdos_renyi(n, 0.5, seed=12)
            b = rng.uniform(-1, 1, n)
            x0 = rng.uniform(-1, 1, (n, 1))
            horizon, dt = 2.0, 0.05
            make = lambda gg, bb: dynamics.SystemSpec(
                "kuramoto", KuramotoParams(b=bb, coupling=gg), n)
        elif kind == "gene":
            g = graphs.gen_fixed_degree(n, 4, seed=13)
            b = rng.uniform(0.5, 1.5, n)
            x0 = rng.uniform(0, 50, (n, 1))
            horizon, dt = 2.0, 0.1
            make = lambda gg, bb: dynamics.SystemSpec(
                "gene", GeneParams(b=bb, g_exp=1.0, h_exp=2.0, coupling=gg), n)
        else:
            g = graphs.gen_fully_connected_weighted(n, 0.5, seed=14)
            b = None
            x0 = rng.uniform(-10, 10, (n, 3))
            horizon, dt = 1.0, 0.05
            make = lambda gg, bb: dynamics.SystemSpec(
                "lorenz", LorenzParams(coupling=gg), n)
        perm = rng.permutation(n)
        traj = simulate_trajectory(make(g, b), x0, horizon, dt)
        traj_p = simulate_trajectory(
            make(g.permuted(perm), None if b is None else b[perm]), x0[perm], horizon, dt)
        assert np.array_equal(traj[:, perm], traj_p)


def test_system_spec_dims():
    assert make_pendulum().state_dim == 2
    g = graphs.explicit_graph(np.zeros((3, 3)))
    assert make_lorenz(g).state_dim == 3
    assert make_gene(g).state_dim == 1
    assert make_kuramoto(g, 0).state_dim == 1
    for sys in [make_pendulum(), make_lorenz(g)]:
        assert sys.control_dim == 0
