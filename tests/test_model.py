"""MP-NODE model: weight sharing, aggregation, step semantics, rollout
equivariance and reductions, checkpoint round trips, rollout gradients."""

from pathlib import Path

import numpy as np
import pytest

from mpnode import autodiff as ad
from mpnode import graphs
from mpnode.autodiff import Tensor
from mpnode.datasets import NormStats
from mpnode.dynamics import rk4_step
from mpnode.errors import CompatibilityError, DivergenceError, ShapeError
from mpnode.model import (_advance, init_model, load_checkpoint, mlp_forward, rollout,
                          rollout_batch, save_checkpoint)


def zeroed_last_layer(model):
    model.weights[-1].data[:] = 0.0
    model.biases[-1].data[:] = 0.0
    return model


class TestMlpForward:
    def test_zero_final_layer_zero_output(self):
        model = zeroed_last_layer(init_model(2, 3, 0, hidden=(8,), seed=1))
        rng = np.random.default_rng(2)
        out = mlp_forward(model, Tensor(rng.standard_normal((1, 5))))
        assert np.array_equal(out.data, np.zeros((1, 5)))

    def test_weight_sharing_identical_outputs(self):
        model = init_model(2, 3, 0, hidden=(8,), seed=3)
        z = np.random.default_rng(4).standard_normal(5)
        batch = mlp_forward(model, Tensor(np.stack([z, z])))
        assert np.array_equal(batch.data[0], batch.data[1])

    def test_gradient_vs_finite_differences(self):
        model = init_model(2, 2, 0, hidden=(8,), seed=5)
        z = np.random.default_rng(6).standard_normal((1, 4))

        def f(params):
            return ad.mean_all(ad.square(mlp_forward(model, Tensor(z))))

        assert ad.finite_diff_check(f, model.parameters()) < 1e-4

    def test_width_mismatch(self):
        model = init_model(2, 3, 0, seed=7)
        with pytest.raises(ShapeError):
            mlp_forward(model, Tensor(np.zeros((1, 4))))

    def test_param_count_independent_of_nodes(self):
        # one shared parameter set: the model never sees a node count
        model = init_model(3, 7, 0, hidden=(64, 64), seed=8)
        expect = (64 * 10 + 64) + (64 * 64 + 64) + (10 * 64 + 10)
        assert sum(t.size for t in model.parameters()) == expect
        # one row of d+p outputs: the time derivative of [x_k; m_k]
        assert mlp_forward(model, Tensor(np.zeros((1, 10)))).shape == (1, 10)


def neighbor_means(adjacency, m):
    """Plain-loop reference: mean of the neighbours' rows of m, zeros when
    a node has no neighbours."""
    out = np.zeros_like(m)
    for k in range(len(adjacency)):
        nbrs = [m[j] for j in range(len(adjacency)) if adjacency[k][j] > 0.0]
        if nbrs:
            out[k] = sum(nbrs) / len(nbrs)
    return out


def advance(model, g, x, m, dt):
    """One observation step of `_advance` on the [n, d+p] block [x, m] with
    the stable kernels; returns the new x and outgoing messages."""
    d = model.state_dim
    aug = _advance(model, g.neighbor_mask(), Tensor(np.concatenate([x, m], axis=1)),
                   None, dt, stable=True)
    return aug.data[:, :d], aug.data[:, d:]


class TestMpnodeStep:
    def test_zero_parameter_model_keeps_state(self):
        g = graphs.gen_erdos_renyi(5, 0.5, seed=14)
        model = zeroed_last_layer(init_model(2, 2, 0, hidden=(8,), seed=15))
        rng = np.random.default_rng(16)
        x, m = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        new_x, new_m = advance(model, g, x, m, dt=0.1)
        assert np.array_equal(new_x, x)
        # zero derivative: outgoing messages become the aggregated ones
        expect = neighbor_means(g.adjacency, m)
        assert np.any(expect != 0.0)
        assert np.allclose(new_m, expect, rtol=1e-12, atol=1e-15)

    def test_isolated_node_p0_equals_plain_rk4(self):
        g = graphs.explicit_graph(np.zeros((1, 1)))
        model = init_model(3, 0, 0, hidden=(8,), seed=17)
        x = np.random.default_rng(18).standard_normal((1, 3))
        new_x, _ = advance(model, g, x, np.zeros((1, 0)), dt=0.05)
        ref = rk4_step(lambda a, u: mlp_forward(model, a, stable=True),
                       Tensor(x), None, 0.05)
        assert np.array_equal(new_x, ref.data)

    def test_permutation_equivariance_random_instances(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            p = int(rng.integers(0, 4))
            g = graphs.gen_erdos_renyi(n, 0.6, seed=100 + trial)
            model = init_model(d, p, 0, hidden=(12,), seed=trial)
            x = rng.standard_normal((n, d))
            m = rng.standard_normal((n, p))
            perm = rng.permutation(n)
            out_x, out_m = advance(model, g, x, m, dt=0.1)
            perm_x, perm_m = advance(model, g.permuted(perm), x[perm], m[perm], dt=0.1)
            assert np.array_equal(out_x[perm], perm_x), f"trial {trial}"
            assert np.array_equal(out_m[perm], perm_m), f"trial {trial}"


class TestRollout:
    def test_t1_returns_initial_state(self):
        g = graphs.gen_erdos_renyi(3, 0.5, seed=20)
        model = init_model(2, 2, 0, seed=21)
        x0 = np.random.default_rng(22).standard_normal((3, 2))
        states, msgs = rollout(model, g, x0, T=1, dt=0.1)
        assert np.array_equal(states.data[0], x0)
        assert np.array_equal(msgs.data[0], np.zeros((3, 2)))

    def test_clamped_messages_sever_information_flow(self):
        g = graphs.gen_erdos_renyi(4, 1.0, seed=23)
        model = init_model(2, 3, 0, seed=24)
        rng = np.random.default_rng(25)
        x0 = rng.standard_normal((4, 2))
        x0_perturbed = x0.copy()
        x0_perturbed[1] += 0.5
        a, ma = rollout(model, g, x0, T=6, dt=0.1, clamp_messages=True)
        b, _ = rollout(model, g, x0_perturbed, T=6, dt=0.1, clamp_messages=True)
        others = [0, 2, 3]
        assert np.array_equal(a.data[:, others], b.data[:, others])
        assert not np.array_equal(a.data[:, 1], b.data[:, 1])
        assert np.array_equal(ma.data, np.zeros_like(ma.data))

    def test_identical_nodes_identical_predictions(self):
        g = graphs.explicit_graph([[0.0, 1.0], [1.0, 0.0]])
        model = init_model(2, 3, 0, seed=26)
        x0 = np.tile(np.random.default_rng(27).standard_normal(2), (2, 1))
        states, _ = rollout(model, g, x0, T=8, dt=0.1)
        assert np.array_equal(states.data[:, 0], states.data[:, 1])

    def test_divergence_names_step_stage_and_nodes(self):
        # only node 2 of trajectory 1 (block row 3 + 2 = 5) starts huge
        g = graphs.gen_erdos_renyi(3, 0.0, seed=28)
        model = init_model(1, 0, 0, hidden=(4,), activation="relu", seed=29)
        for w in model.weights:
            w.data[:] = 1.0
        x0 = np.ones((2, 3, 1))
        x0[1, 2] = 1e308
        with pytest.raises(DivergenceError,
                           match=r"rollout step 1: non-finite rk4 stage k1 at nodes \[2\]$"):
            rollout_batch(model, g, x0, T=3, dt=0.1)

    def test_batch_matches_single(self):
        # the fast kernels agree to roundoff; the stable ones bit for bit
        g = graphs.gen_erdos_renyi(5, 0.5, seed=28)
        model = init_model(2, 3, 0, seed=29)
        x0 = np.random.default_rng(30).standard_normal((4, 5, 2))
        batch, batch_m = rollout_batch(model, g, x0, T=7, dt=0.1)
        stable, stable_m = rollout_batch(model, g, x0, T=7, dt=0.1, stable=True)
        for i in range(4):
            single, single_m = rollout(model, g, x0[i], T=7, dt=0.1)
            assert np.allclose(batch.data[:, i], single.data, rtol=1e-12, atol=1e-14)
            assert np.allclose(batch_m.data[:, i], single_m.data, rtol=1e-12, atol=1e-14)
            assert np.array_equal(stable.data[:, i], single.data)
            assert np.array_equal(stable_m.data[:, i], single_m.data)

    def test_rollout_gradient_vs_finite_differences(self):
        g = graphs.gen_erdos_renyi(3, 0.7, seed=31)
        model = init_model(2, 2, 0, hidden=(8,), seed=32)
        x0 = np.random.default_rng(33).standard_normal((3, 2))

        def f(params):
            states, _ = rollout(model, g, x0, T=5, dt=0.1)
            return ad.mean_all(ad.square(states))

        assert ad.finite_diff_check(f, model.parameters()) < 1e-4

    def test_control_inputs_enter_the_model(self):
        g = graphs.explicit_graph([[0.0, 1.0], [1.0, 0.0]])
        model = init_model(2, 2, 1, seed=34)
        x0 = np.zeros((2, 2))
        quiet = np.zeros((5, 2, 1))
        loud = np.ones((5, 2, 1))
        a, _ = rollout(model, g, x0, T=5, dt=0.1, controls=quiet)
        b, _ = rollout(model, g, x0, T=5, dt=0.1, controls=loud)
        assert not np.allclose(a.data, b.data)
        with pytest.raises(ShapeError):
            rollout(model, g, x0, T=5, dt=0.1)  # missing controls

    def test_message_log_matches_rollout_width(self):
        g = graphs.gen_erdos_renyi(3, 0.5, seed=35)
        model = init_model(1, 4, 0, seed=36)
        _, msgs = rollout(model, g, np.zeros((3, 1)), T=4, dt=0.1)
        assert msgs.shape == (4, 3, 4)


class TestCheckpoint:
    def make(self, seed=40):
        model = init_model(3, 7, 0, hidden=(16, 16), seed=seed)
        norm = NormStats(mean=np.array([0.1, 0.2, 0.3]), std=np.array([1.0, 2.0, 3.0]))
        return model, norm

    def test_roundtrip_bit_exact(self, tmp_path):
        model, norm = self.make()
        save_checkpoint(model, norm, {"note": "test"}, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        for a, b in zip(model.parameters(), back.model.parameters()):
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(back.norm.mean, norm.mean)
        assert back.provenance["note"] == "test"
        assert back.model.hidden == (16, 16)

    def test_corrupt_payload_rejected(self, tmp_path):
        model, norm = self.make()
        save_checkpoint(model, norm, {}, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "m.ckpt").write_bytes(blob[:-8])
        with pytest.raises(CompatibilityError):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_failed_overwrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        model, norm = self.make()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, norm, {"note": "old"}, path)
        old = path.read_bytes()
        write_bytes = Path.write_bytes

        def half_then_fail(self, data):
            write_bytes(self, data[:len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError):
            save_checkpoint(self.make(seed=41)[0], norm, {"note": "new"}, path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        assert load_checkpoint(path).provenance["note"] == "old"

    def test_node_count_free_reuse(self, tmp_path):
        # a checkpoint trained at one node count rolls out at any other
        model, norm = self.make()
        save_checkpoint(model, norm, {}, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        for n in (3, 7, 10):
            g = graphs.gen_fully_connected_weighted(n, 0.01, seed=41)
            states, _ = rollout(back.model, g, np.zeros((n, 3)), T=3, dt=0.05)
            assert states.shape == (3, n, 3)
