"""Evaluation, the epochs-times-min-error metric, Jacobi PCA, and plotting."""

import json

import numpy as np
import pytest

from mpnode import analysis, datasets, dynamics, graphs, training
from mpnode.analysis import (emit_plot, epochs_times_min_error, evaluate,
                             jacobi_eigh, message_log, message_norms, pca_messages)
from mpnode.errors import CompatibilityError, DivergenceError, ShapeError
from mpnode.model import Checkpoint, init_model, rollout
from mpnode.training import RunRecord, TrainConfig, train


def record_from(errors, epochs=None):
    rec = RunRecord()
    for i, e in enumerate(errors):
        rec.append(epoch=epochs[i] if epochs else i + 1, train_loss=1.0,
                   val_loss=None, test_error=e, wall_seconds=0.0)
    return rec


class TestEpochsTimesMinError:
    def test_hand_example(self):
        assert epochs_times_min_error(record_from([0.5, 0.2, 0.3])) == pytest.approx(0.4)

    def test_monotone_decreasing(self):
        rec = record_from([0.5, 0.4, 0.3, 0.2])
        assert epochs_times_min_error(rec) == pytest.approx(4 * 0.2)

    def test_single_entry(self):
        assert epochs_times_min_error(record_from([0.1])) == pytest.approx(0.1)

    def test_tie_takes_earliest(self):
        assert epochs_times_min_error(record_from([0.3, 0.2, 0.2])) == pytest.approx(0.4)

    def test_invariant_to_later_worse_entries(self):
        a = epochs_times_min_error(record_from([0.5, 0.2]))
        b = epochs_times_min_error(record_from([0.5, 0.2, 0.9, 1.4]))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            epochs_times_min_error(RunRecord())


class TestJacobi:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64, 128])
    def test_eigenpair_residuals(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T / dim
        vals, vecs = jacobi_eigh(cov)
        norm = np.sqrt((cov * cov).sum())
        for i in range(dim):
            resid = np.linalg.norm(cov @ vecs[:, i] - vals[i] * vecs[:, i])
            assert resid <= 1e-8 * norm

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 20))
        _, vecs = jacobi_eigh(a @ a.T)
        assert np.abs(vecs.T @ vecs - np.eye(20)).max() < 1e-8

    def test_matches_numpy_eigvals(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 12))
        cov = a @ a.T
        ours = np.sort(jacobi_eigh(cov)[0])
        ref = np.sort(np.linalg.eigvalsh(cov))
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10)

    def test_converges_on_spread_column_scales(self):
        # column scales over six decades: the off-diagonal mass measured as
        # total minus diagonal mass cancels to zero long before the rotations
        # have annihilated it, which stopped the sweeps early
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 70)) * np.logspace(-6, 0, 70)
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / 499
        vals, vecs = jacobi_eigh(cov)
        rotated = vecs.T @ cov @ vecs
        off = rotated - np.diag(np.diagonal(rotated))
        assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(cov)
        ref = np.linalg.eigvalsh(cov)
        assert np.abs(np.sort(vals) - ref).max() <= 1e-13 * ref.max()

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            jacobi_eigh(np.zeros((2, 3)))


class TestPcaMessages:
    def test_single_axis_explains_everything(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 10, 1, 1))
        direction = np.array([1.0, 2.0, -1.0, 0.5, 0.0, 0.0])
        log = (t * direction).reshape(4, 10, 3, 2)
        result = pca_messages(log, k=2)
        assert result.explained_variance[0] == pytest.approx(1.0, abs=1e-12)
        assert result.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_variance_fractions(self):
        rng = np.random.default_rng(6)
        log = rng.standard_normal((100, 100, 2, 2))  # 1e4 samples, dim 4
        result = pca_messages(log, k=4)
        assert np.all(np.abs(result.explained_variance - 0.25) < 0.1)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(7)
        log = rng.standard_normal((8, 12, 3, 2))
        result = pca_messages(log, k=4)
        gram = result.components.T @ result.components
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_fractions_sum_below_one(self):
        rng = np.random.default_rng(8)
        log = rng.standard_normal((5, 9, 2, 3))
        result = pca_messages(log, k=6)
        assert result.explained_variance.sum() <= 1.0 + 1e-8
        assert np.all(np.diff(result.explained_variance) <= 1e-12)

    def test_projection_shape_and_centering(self):
        rng = np.random.default_rng(9)
        log = rng.standard_normal((6, 11, 2, 2))
        result = pca_messages(log, k=3)
        assert result.projections.shape == (6, 11, 3)
        assert np.abs(result.projections.reshape(-1, 3).mean(axis=0)).max() < 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ShapeError):
            pca_messages(np.zeros((2, 3, 2, 2)), k=5)

    def test_spread_column_scales_match_jacobi(self):
        # cold Jacobi, which shares no code with LAPACK, is the reference
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 70)) * np.logspace(-6, 0, 70)
        result = pca_messages(x.reshape(5, 100, 70, 1), k=70)
        xc = x - x.mean(axis=0)
        ref = np.sort(jacobi_eigh(xc.T @ xc / 499)[0])[::-1]
        assert np.abs(result.eigenvalues - ref).max() <= 1e-13 * ref[0]
        gram = result.components.T @ result.components
        assert np.abs(gram - np.eye(70)).max() <= 1e-12

    def test_overflowing_covariance_rejected(self):
        rng = np.random.default_rng(10)
        log = rng.standard_normal((4, 10, 2, 2)) * 1e160
        with pytest.raises(DivergenceError, match="covariance is not finite"):
            pca_messages(log, k=2)


class TestMessageNorms:
    def test_zero_messages(self):
        assert np.array_equal(message_norms(np.zeros((2, 3, 4, 2))), np.zeros((2, 3, 4)))

    def test_scalar_messages_absolute_value(self):
        log = np.array([-3.0, 4.0]).reshape(1, 2, 1, 1)
        assert np.array_equal(message_norms(log).reshape(-1), [3.0, 4.0])

    def test_euclidean(self):
        log = np.array([3.0, 4.0]).reshape(1, 1, 1, 2)
        assert message_norms(log)[0, 0, 0] == pytest.approx(5.0)


class TestEmitPlot:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "x.svg")

    def test_two_point_series_single_polyline(self, tmp_path):
        emit_plot([("loss", [0.0, 1.0], [2.0, 3.0])], tmp_path / "p.svg")
        svg = (tmp_path / "p.svg").read_text()
        assert svg.count("<polyline") == 1
        pts = svg.split('points="')[1].split('"')[0].split()
        assert len(pts) == 2

    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        series = [("a", list(range(5)), list(rng.standard_normal(5))),
                  ("b", list(range(3)), list(rng.standard_normal(3)))]
        emit_plot(series, tmp_path / "p.svg")
        lines = (tmp_path / "p.csv").read_text().strip().split("\n")
        assert lines[0] == "series,t,value"
        parsed = {}
        for line in lines[1:]:
            name, t, v = line.split(",")
            parsed.setdefault(name, []).append((float(t), float(v)))
        for name, ts, vs in series:
            assert parsed[name] == [(float(t), float(v)) for t, v in zip(ts, vs)]

    def test_svg_has_axes_and_legend(self, tmp_path):
        emit_plot([("curve", [0, 1, 2], [1.0, 0.5, 0.25])], tmp_path / "p.svg")
        svg = (tmp_path / "p.svg").read_text()
        assert svg.startswith("<svg")
        assert "curve" in svg and "<line" in svg


@pytest.fixture(scope="module")
def trained():
    g = graphs.gen_fixed_degree(6, 3, seed=40)
    sys = dynamics.make_kuramoto(g, seed=41)
    ts = datasets.generate_dataset(sys, g, n_traj=12, horizon=0.5, dt=0.05, seed=42)
    train_set, val_set = datasets.split_train_val(ts, 0.7, seed=43)
    model = init_model(1, 2, 0, hidden=(8,), seed=44)
    cfg = TrainConfig(epochs=3, batch_size=8, loss="huber_time", seed=45)
    ckpt, _ = train(model, train_set, val_set, cfg)
    return ckpt, val_set, ts


class TestEvaluate:
    def test_report_fields_and_json(self, trained, tmp_path):
        ckpt, val_set, _ = trained
        report = evaluate(ckpt, val_set)
        assert len(report.per_traj) == val_set.n_traj
        assert report.mean >= 0 and np.isfinite(report.mean)
        assert report.std >= 0
        assert report.fingerprint["checkpoint"]
        report.to_json(tmp_path / "report.json")
        back = json.loads((tmp_path / "report.json").read_text())
        assert back["mean"] == report.mean
        assert back["std_convention"] == "across trajectories"
        assert len(back["per_trajectory"]) == val_set.n_traj

    def test_deterministic(self, trained):
        ckpt, val_set, _ = trained
        a = evaluate(ckpt, val_set)
        b = evaluate(ckpt, val_set)
        assert a.per_traj == b.per_traj and a.mean == b.mean

    def test_accepts_unnormalized_set(self, trained):
        ckpt, _, raw = trained
        report = evaluate(ckpt, raw)
        assert np.isfinite(report.mean)

    def test_dim_mismatch_rejected(self, trained):
        ckpt, _, _ = trained
        g = graphs.explicit_graph([[0.0, 1.0], [1.0, 0.0]])
        sys = dynamics.make_pendulum()
        bad = datasets.generate_dataset(sys, g, n_traj=3, horizon=0.5, dt=0.1, seed=49)
        with pytest.raises(CompatibilityError):
            evaluate(ckpt, bad)

    def test_clamped_evaluation_runs(self, trained):
        ckpt, val_set, _ = trained
        report = evaluate(ckpt, val_set, clamp_messages=True)
        assert np.isfinite(report.mean)
        assert report.fingerprint["clamp_messages"] is True


@pytest.fixture(scope="module")
def multi_adjacency():
    """Gene set on three BA graphs with trajectories assigned round-robin, and
    a relu model steep enough that a huge initial state overflows."""
    gs = [graphs.gen_barabasi_albert(8, 2, seed=s) for s in (50, 51, 52)]
    raw = datasets.generate_dataset(dynamics.make_gene(gs[0]), gs, n_traj=9,
                                    horizon=0.5, dt=0.1, seed=53)
    model = init_model(1, 3, 0, hidden=(8,), activation="relu", seed=54)
    for w in model.weights:
        w.data *= 10.0
    return Checkpoint(model=model, norm=datasets.zscore_fit(raw), provenance={}), raw


def per_trajectory_reference(ckpt, raw):
    """One stable `rollout` per trajectory, each scored on its own slice:
    physical and normalized MSEs and message logs of the finite rollouts,
    and the number that diverged."""
    ts = datasets.zscore_apply(raw, ckpt.norm)
    per, per_norm, msgs, diverged = [], [], [], 0
    for i in range(ts.n_traj):
        try:
            pred, m = rollout(ckpt.model, ts.graphs[ts.adjacency_index[i]],
                              ts.data[i, 0], ts.T, ts.dt)
        except DivergenceError:
            diverged += 1
            continue
        resid = pred.data - ts.data[i]
        per_norm.append(float(np.mean(resid * resid)))
        resid_phys = resid * ckpt.norm.std
        per.append(float(np.mean(resid_phys * resid_phys)))
        msgs.append(m.data)
    return per, per_norm, msgs, diverged


class TestBatchedScoring:
    def test_evaluate_matches_per_trajectory_rollouts(self, multi_adjacency):
        ckpt, raw = multi_adjacency
        per, per_norm, _, diverged = per_trajectory_reference(ckpt, raw)
        report = evaluate(ckpt, raw)
        assert diverged == 0 and report.diverged == 0
        assert report.per_traj == per
        assert report.per_traj_normalized == per_norm

    def test_diverged_trajectory_counted_others_bit_identical(self, multi_adjacency):
        ckpt, raw = multi_adjacency
        poisoned = raw.subset(range(raw.n_traj))
        poisoned.data[4] *= 1e305
        per, per_norm, _, diverged = per_trajectory_reference(ckpt, poisoned)
        report = evaluate(ckpt, poisoned)
        assert diverged == 1 and report.diverged == 1
        assert len(report.per_traj) == raw.n_traj - 1
        assert report.per_traj == per
        assert report.per_traj_normalized == per_norm

    def test_message_log_matches_per_trajectory_rollouts(self, multi_adjacency):
        ckpt, raw = multi_adjacency
        _, _, msgs, _ = per_trajectory_reference(ckpt, raw)
        log = message_log(ckpt.model, datasets.zscore_apply(raw, ckpt.norm))
        assert np.array_equal(log, np.stack(msgs))
