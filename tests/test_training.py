"""Losses, Adam, and the training loop: hand values, convergence oracles,
batch-gradient identity, full bitwise determinism, and bounded memory."""

import tracemalloc

import numpy as np
import pytest

from mpnode import autodiff as ad
from mpnode import datasets, dynamics, graphs, training
from mpnode.autodiff import Tape, Tensor
from mpnode.errors import CompatibilityError, DivergenceError
from mpnode.model import init_model, rollout_batch
from mpnode.training import (RunRecord, TrainConfig, adam_step,
                             finetune, huber_time_loss, init_adam, mse_loss,
                             train)


@pytest.fixture(scope="module")
def tiny_kuramoto():
    g = graphs.gen_fixed_degree(6, 3, seed=1)
    sys = dynamics.make_kuramoto(g, seed=2)
    ts = datasets.generate_dataset(sys, g, n_traj=10, horizon=0.5, dt=0.05, seed=3)
    return datasets.split_train_val(ts, 0.7, seed=4)


class TestLosses:
    def test_mse_zero_on_match(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert mse_loss(x, x.data.copy()).item() == 0.0

    def test_mse_unit_residual(self):
        pred = Tensor(np.ones((2, 3)))
        assert mse_loss(pred, np.zeros((2, 3))).item() == 1.0

    def test_mse_gradient(self):
        rng = np.random.default_rng(5)
        pred, target = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        p = ad.parameter(pred)
        with Tape() as tape:
            loss = mse_loss(p, target)
        g = tape.backward(loss, params=[p])[p]
        assert np.allclose(g, 2.0 * (pred - target) / pred.size, rtol=1e-12)

    def test_huber_time_quadratic_branch(self):
        pred = Tensor(np.full((2, 5), 0.5))
        assert abs(huber_time_loss(pred, np.zeros((2, 5)), 1.0).item() - 0.125) < 1e-15

    def test_huber_time_linear_branch(self):
        pred = Tensor(np.full((2, 5), 2.0))
        assert abs(huber_time_loss(pred, np.zeros((2, 5)), 1.0).item() - 1.5) < 1e-15

    def test_zero_residual(self):
        pred = Tensor(np.ones((4,)))
        assert huber_time_loss(pred, np.ones(4), 1.0).item() == 0.0

    def test_losses_read_only_states(self):
        g = graphs.gen_erdos_renyi(4, 0.8, seed=6)
        model = init_model(1, 3, 0, seed=7)
        x0 = np.random.default_rng(8).standard_normal((2, 4, 1))
        target = np.zeros((5, 2, 4, 1))
        with_log, msgs = rollout_batch(model, g, x0, T=5, dt=0.1)
        without_log, _ = rollout_batch(model, g, x0, T=5, dt=0.1, record_messages=False)
        a = mse_loss(with_log, target).item()
        b = mse_loss(without_log, target).item()
        msgs.data[:] = 777.0  # mutating the log cannot touch the loss
        c = mse_loss(with_log, target).item()
        assert a == b == c


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = ad.parameter([1.0, -2.0])
        st = init_adam([p])
        adam_step([p], [np.zeros(2)], st, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert st.t == 1

    def test_first_step_magnitude_near_lr(self):
        for g0 in (1.0, 1e-3, 42.0):
            p = ad.parameter([0.0])
            st = init_adam([p])
            adam_step([p], [np.array([g0])], st, lr=0.01)
            expect = 0.01 * (1.0 - st.eps / (g0 + st.eps))
            assert abs(abs(p.data[0]) - expect) < 1e-12

    def test_quadratic_convergence_oracle(self):
        # 200 steps on f(w) = w^2 from w = 1 at lr = 0.1 lands near zero
        w = ad.parameter([1.0])
        st = init_adam([w])
        for _ in range(200):
            adam_step([w], [2.0 * w.data], st, lr=0.1)
        assert abs(w.data[0]) < 0.05

    def test_lr_zero_exact_noop(self):
        p = ad.parameter([0.3, 0.7])
        before = p.data.copy()
        st = init_adam([p])
        adam_step([p], [np.array([1.0, -1.0])], st, lr=0.0)
        assert np.array_equal(p.data, before)

    def test_non_finite_gradient_rejected(self):
        p = ad.parameter([1.0])
        st = init_adam([p])
        with pytest.raises(DivergenceError):
            adam_step([p], [np.array([np.nan])], st, lr=0.1)


class TestRunRecord:
    def test_csv_roundtrip(self, tmp_path):
        rec = RunRecord()
        rec.append(epoch=1, train_loss=0.5, val_loss=None, test_error=None,
                   wall_seconds=0.12)
        rec.append(epoch=2, train_loss=0.25, val_loss=0.3, test_error=0.4,
                   wall_seconds=0.11)
        rec.to_csv(tmp_path / "metrics.csv")
        header = (tmp_path / "metrics.csv").read_text().split("\n")[0]
        assert header == "epoch,train_loss,val_loss,test_error,wall_seconds"
        back = RunRecord.from_csv(tmp_path / "metrics.csv")
        assert back.rows[0].val_loss is None
        assert back.rows[1].test_error == 0.4
        assert back.rows[1].train_loss == 0.25


class TestTrainLoop:
    def test_zero_epochs_returns_initial(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), seed=9)
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(epochs=0, batch_size=4, loss="huber_time", seed=10)
        ckpt, record = train(model, train_set, val_set, cfg)
        assert record.rows == []
        for p, b in zip(ckpt.model.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_loss_decreases_in_trend(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 3, 0, hidden=(16,), seed=11)
        cfg = TrainConfig(epochs=25, batch_size=8, loss="huber_time", seed=12,
                          eval_every=5)
        _, record = train(model, train_set, val_set, cfg)
        losses = [r.train_loss for r in record.rows]
        assert min(losses[-5:]) < losses[0]
        best_so_far = np.minimum.accumulate(losses)
        assert best_so_far[-1] < best_so_far[0]

    def test_deterministic_bitwise(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        cfg = TrainConfig(epochs=4, batch_size=4, loss="huber_time", seed=13,
                          eval_every=2)

        def run():
            model = init_model(1, 2, 0, hidden=(8,), seed=14)
            ckpt, record = train(model, train_set, val_set, cfg)
            return ckpt, record

        c1, r1 = run()
        c2, r2 = run()
        for a, b in zip(c1.model.parameters(), c2.model.parameters()):
            assert np.array_equal(a.data, b.data)
        for ra, rb in zip(r1.rows, r2.rows):
            assert ra.train_loss == rb.train_loss
            assert ra.val_loss == rb.val_loss and ra.test_error == rb.test_error

    def test_batch_gradient_identity(self, tiny_kuramoto):
        # gradient of the mean loss == mean of per-trajectory gradients
        train_set, _ = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), seed=15)
        params = model.parameters()
        g = train_set.graphs[0]
        T = train_set.T
        data = train_set.data[:4]

        with Tape() as tape:
            pred, _ = rollout_batch(model, g, data[:, 0], T, train_set.dt,
                                    record_messages=False)
            loss = mse_loss(pred, data.transpose(1, 0, 2, 3))
        batched = tape.backward(loss, params=params)

        sums = [np.zeros(p.shape) for p in params]
        for i in range(4):
            with Tape() as tape:
                pred, _ = rollout_batch(model, g, data[i:i + 1, 0], T, train_set.dt,
                                        record_messages=False)
                loss_i = mse_loss(pred, data[i:i + 1].transpose(1, 0, 2, 3))
            per = tape.backward(loss_i, params=params)
            for s, p in zip(sums, params):
                s += per[p]
        for s, p in zip(sums, params):
            mean_grad = s / 4.0
            denom = np.maximum(np.abs(batched[p]), 1e-30)
            rel = np.abs(mean_grad - batched[p]) / denom
            assert rel.max() < 1e-12

    def test_two_batches_hold_one_tape(self):
        # the reverse sweep frees each batch's graph, so the second batch's
        # tape does not stack onto the first's (that was a 2x peak)
        g = graphs.gen_fixed_degree(6, 3, seed=1)
        sys = dynamics.make_kuramoto(g, seed=2)
        ts = datasets.generate_dataset(sys, g, n_traj=20, horizon=2.0, dt=0.05, seed=3)
        train_set, val_set = datasets.split_train_val(ts, 0.8, seed=4)
        half = train_set.n_traj // 2
        cfg = TrainConfig(epochs=1, batch_size=half, loss="mse", seed=5)

        def traced_peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def one_batch():
            model = init_model(1, 2, 0, hidden=(32, 32), seed=6)
            with Tape() as tape:
                loss = training._batch_loss(model, train_set, list(range(half)), cfg,
                                            train_set.T, training.loss_fn_for(cfg))
            tape.backward(loss, params=model.parameters())

        one = traced_peak(one_batch)
        two = traced_peak(lambda: train(init_model(1, 2, 0, hidden=(32, 32), seed=6),
                                        train_set, val_set, cfg))
        assert two < 1.25 * one

    def test_unnormalized_data_rejected(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        raw = datasets.zscore_invert(train_set, train_set.norm)
        model = init_model(1, 2, 0, seed=16)
        with pytest.raises(CompatibilityError):
            train(model, raw, val_set, TrainConfig(epochs=1, seed=17))

    def test_dim_mismatch_rejected(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(2, 2, 0, seed=18)  # d=2 against d=1 data
        with pytest.raises(CompatibilityError):
            train(model, train_set, val_set, TrainConfig(epochs=1, seed=19))

    def test_divergence_halts_with_context(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), activation="relu", seed=20)
        for w in model.weights:
            w.data[:] = 1e80  # guarantees an overflowing rollout
        cfg = TrainConfig(epochs=1, batch_size=4, seed=21)
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(model, train_set, val_set, cfg)

    def test_validation_divergence_reported(self, tiny_kuramoto, capsys):
        train_set, val_set = tiny_kuramoto
        val_set = val_set.subset(range(val_set.n_traj))
        val_set.data[0] *= 1e300
        model = init_model(1, 2, 0, hidden=(8,), activation="relu", seed=20)
        for w in model.weights:
            w.data *= 10.0  # steep enough that only the huge state overflows
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=21)
        # no epoch validated: the run fails instead of returning a NaN checkpoint
        with pytest.raises(DivergenceError, match="no epoch validated") as info:
            train(model, train_set, val_set, cfg)
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:2] for line in lines] == \
            [["epoch 1", "validation diverged"], ["epoch 2", "validation diverged"]]
        record = info.value.run_record
        assert len(record.rows) == 2
        assert all(r.val_loss is None and r.test_error is None for r in record.rows)

    def test_rollout_horizon_option(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        cfg_short = TrainConfig(epochs=2, batch_size=8, loss="huber_time", seed=36,
                                rollout_horizon=3)
        cfg_full = TrainConfig(epochs=2, batch_size=8, loss="huber_time", seed=36)
        model_a = init_model(1, 2, 0, hidden=(8,), seed=37)
        model_b = init_model(1, 2, 0, hidden=(8,), seed=37)
        _, rec_short = train(model_a, train_set, val_set, cfg_short)
        _, rec_full = train(model_b, train_set, val_set, cfg_full)
        assert rec_short.rows[0].train_loss != rec_full.rows[0].train_loss

    def test_bad_rollout_horizon_rejected(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), seed=38)
        cfg = TrainConfig(epochs=1, batch_size=8, loss="huber_time", seed=39,
                          rollout_horizon=train_set.T + 5)
        with pytest.raises(ValueError):
            train(model, train_set, val_set, cfg)

    def test_best_checkpoint_retained(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), seed=22)
        cfg = TrainConfig(epochs=6, batch_size=8, loss="huber_time", seed=23,
                          eval_every=1)
        ckpt, record = train(model, train_set, val_set, cfg)
        vals = [r.val_loss for r in record.rows]
        assert ckpt.provenance["val_loss"] == min(vals)
        assert ckpt.provenance["epoch"] == vals.index(min(vals)) + 1
        assert ckpt.norm is train_set.norm


class TestFinetune:
    def test_lr_zero_keeps_parameters(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), seed=24)
        cfg0 = TrainConfig(epochs=2, batch_size=4, loss="huber_time", seed=25)
        ckpt, _ = train(model, train_set, val_set, cfg0)
        cfg = TrainConfig(epochs=2, batch_size=4, loss="huber_time", seed=26,
                          learning_rate=0.0)
        tuned, _ = finetune(ckpt, train_set, val_set, cfg)
        for a, b in zip(ckpt.model.parameters(), tuned.model.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_transfers_across_topology_and_size(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), seed=27)
        cfg = TrainConfig(epochs=1, batch_size=4, loss="huber_time", seed=28)
        ckpt, _ = train(model, train_set, val_set, cfg)
        # new dataset: different node count and topology
        g = graphs.gen_erdos_renyi(9, 0.5, seed=29)
        sys = dynamics.make_kuramoto(g, seed=30)
        ts = datasets.generate_dataset(sys, g, n_traj=6, horizon=0.5, dt=0.05, seed=31)
        tr, va = datasets.split_train_val(ts, 0.7, seed=32)
        tuned, record = finetune(ckpt, tr, va, cfg)
        assert len(record.rows) == 1
        assert tuned.provenance["source_checkpoint"]
        assert "source_norm" in tuned.provenance

    def test_dim_mismatch_rejected(self, tiny_kuramoto):
        train_set, val_set = tiny_kuramoto
        model = init_model(1, 2, 0, hidden=(8,), seed=33)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=34)
        ckpt, _ = train(model, train_set, val_set,
                        TrainConfig(epochs=1, batch_size=4, loss="huber_time", seed=35))
        g = graphs.explicit_graph([[0.0, 1.0], [1.0, 0.0]])
        sys = dynamics.make_pendulum()
        ts = datasets.generate_dataset(sys, g, n_traj=6, horizon=1.0, dt=0.1, seed=36)
        tr, va = datasets.split_train_val(ts, 0.7, seed=37)
        with pytest.raises(CompatibilityError):
            finetune(ckpt, tr, va, cfg)  # pendulum d=2 against d=1 checkpoint
