"""Dataset recipes, Z-score round trips, splits, and binary persistence."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mpnode import datasets, dynamics, graphs
from mpnode.datasets import (NormStats, generate_dataset, load_dataset,
                             sample_initial_states, save_dataset,
                             split_train_val, zscore_apply, zscore_fit,
                             zscore_invert)
from mpnode.errors import CompatibilityError, DivergenceError


@pytest.fixture(scope="module")
def kuramoto_set():
    g = graphs.gen_fixed_degree(10, 5, seed=1)
    sys = dynamics.make_kuramoto(g, seed=2)
    return generate_dataset(sys, g, n_traj=12, horizon=2.5, dt=0.05, seed=3)


@pytest.fixture(scope="module")
def pendulum_set():
    sys = dynamics.make_pendulum()
    g = graphs.explicit_graph([[0.0, 1.0], [1.0, 0.0]])
    return generate_dataset(sys, g, n_traj=10, horizon=10.0, dt=0.1, seed=4)


class TestInitialStates:
    def test_pendulum_ranges(self):
        sys = dynamics.make_pendulum()
        draws = np.stack([sample_initial_states(sys, 2, seed=i) for i in range(200)])
        theta, omega = draws[..., 0], draws[..., 1]
        assert theta.min() >= -np.pi / 2 and theta.max() <= np.pi / 2
        assert omega.min() >= -1.0 and omega.max() <= 1.0
        assert theta.max() > 1.0 and theta.min() < -1.0  # actually spans the range

    def test_gene_range(self):
        g = graphs.gen_fixed_degree(16, 8, seed=5)
        sys = dynamics.make_gene(g)
        draws = np.stack([sample_initial_states(sys, 16, seed=i) for i in range(50)])
        assert draws.min() >= 0.0 and draws.max() <= 50.0 and draws.max() > 40.0

    def test_kuramoto_and_lorenz_ranges(self):
        g = graphs.gen_fixed_degree(10, 5, seed=6)
        k = sample_initial_states(dynamics.make_kuramoto(g, 0), 10, seed=7)
        assert k.min() >= -1.0 and k.max() <= 1.0
        gl = graphs.gen_fully_connected_weighted(3, 0.01, seed=8)
        lo = sample_initial_states(dynamics.make_lorenz(gl), 3, seed=9)
        assert lo.min() >= -10.0 and lo.max() <= 10.0

    def test_same_seed_identical(self):
        sys = dynamics.make_pendulum()
        a = sample_initial_states(sys, 2, seed=11)
        b = sample_initial_states(sys, 2, seed=11)
        assert np.array_equal(a, b)


class TestGenerate:
    def test_kuramoto_recipe_shape(self, kuramoto_set):
        ts = kuramoto_set
        assert ts.data.shape == (12, 51, 10, 1)
        assert ts.dt == 0.05 and ts.c == 0
        assert np.isfinite(ts.data).all()

    def test_pendulum_recipe_shape(self, pendulum_set):
        assert pendulum_set.data.shape == (10, 101, 2, 2)

    def test_deterministic(self):
        g = graphs.gen_fixed_degree(6, 3, seed=21)
        sys = dynamics.make_kuramoto(g, seed=22)
        a = generate_dataset(sys, g, 4, 1.0, 0.05, seed=23)
        b = generate_dataset(sys, g, 4, 1.0, 0.05, seed=23)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("kind", ["kuramoto", "pendulum", "gene"])
    def test_batch_composition_invariant(self, kind):
        # trajectory i's bits do not depend on which other rows share its
        # batch or redraw round: a longer set starts with the shorter one
        if kind == "pendulum":  # several rows are redrawn at this seed
            sys, g = dynamics.make_pendulum(), graphs.explicit_graph([[0.0, 1.0], [1.0, 0.0]])
            horizon, dt = 10.0, 0.1
        elif kind == "gene":  # three adjacencies, so groups of unequal size
            g = [graphs.gen_barabasi_albert(8, 2, seed=s) for s in range(3)]
            sys, horizon, dt = dynamics.make_gene(g[0]), 1.0, 0.1
        else:
            g = graphs.gen_fixed_degree(6, 3, seed=21)
            sys, horizon, dt = dynamics.make_kuramoto(g, seed=22), 1.0, 0.05
        a = generate_dataset(sys, g, 4, horizon, dt, seed=6)
        b = generate_dataset(sys, g, 6, horizon, dt, seed=6)
        assert np.array_equal(a.data, b.data[:4])

    @pytest.mark.parametrize("kind,expect", [
        ("kuramoto", "84459d6ca20e4a434d6373842048796478a390cad62bb56d32988eff861f6e2a"),
        ("lorenz", "d1956fd62b19aceec21dedd97d9ccd202397eda667640fb8887bcea02753bbd6"),
        ("pendulum", "5c66d1b91cc0b050ef68dcaaf72d46f3e8c7cae1d1266ed5f4a0890843f8df01"),
        ("gene_x3", "d4c04d0a8cec909feddd9e080257b9d10fe3ba4d4ed12689ca0bcffde4d365c0"),
    ])
    def test_golden_data_bin(self, tmp_path, kind, expect):
        # sha256 of data.bin as one simulate_trajectory call per trajectory
        # and draw wrote it; batching must not move a bit
        if kind == "kuramoto":
            g = graphs.gen_fixed_degree(6, 3, seed=1)
            ts = generate_dataset(dynamics.make_kuramoto(g, seed=2), g, 5, 1.0, 0.05, seed=3)
        elif kind == "lorenz":
            g = graphs.gen_fully_connected_weighted(4, 0.5, seed=4)
            ts = generate_dataset(dynamics.make_lorenz(g), g, 4, 1.0, 0.05, seed=5)
        elif kind == "pendulum":  # 12 draws for 8 trajectories
            g = graphs.explicit_graph([[0.0, 1.0], [1.0, 0.0]])
            ts = generate_dataset(dynamics.make_pendulum(), g, 8, 10.0, 0.1, seed=6)
        else:
            gs = [graphs.gen_barabasi_albert(8, 2, seed=s) for s in range(3)]
            ts = generate_dataset(dynamics.make_gene(gs[0]), gs, 7, 1.0, 0.1, seed=7)
        save_dataset(ts, tmp_path)
        assert hashlib.sha256((tmp_path / "data.bin").read_bytes()).hexdigest() == expect

    def test_never_finite_names_first_trajectory_and_its_error(self):
        # dt = 5 overflows every Lorenz draw; the message names the lowest
        # failed trajectory and the error of its last draw
        gs = [graphs.gen_fixed_degree(4, 2, seed=s) for s in range(2)]
        with pytest.raises(DivergenceError) as info:
            generate_dataset(dynamics.make_lorenz(gs[0]), gs, 3, 50.0, 5.0, seed=1)
        assert str(info.value) == ("trajectory 0: no finite trajectory in 50 draws "
                                   "(at timestep 3: non-finite rk4 stage k2)")

    def test_constant_trajectory_stored(self):
        g = graphs.explicit_graph(np.zeros((3, 3)))
        sys = dynamics.SystemSpec(
            "kuramoto", dynamics.KuramotoParams(b=np.zeros(3), coupling=g), 3)
        ts = generate_dataset(sys, g, 1, 0.5, 0.05, seed=25)
        assert np.allclose(ts.data, ts.data[:, :1], atol=1e-15)

    def test_multi_adjacency_tagging(self):
        gs = [graphs.gen_barabasi_albert(16, 4, seed=s) for s in range(5)]
        sys = dynamics.make_gene(gs[0])
        ts = generate_dataset(sys, gs, n_traj=11, horizon=0.5, dt=0.1, seed=26)
        assert list(ts.adjacency_index) == [i % 5 for i in range(11)]
        assert len(ts.graphs) == 5
        assert ts.graphs[ts.adjacency_index[7]] is ts.graphs[2]

    def test_one_step_reproduction(self, kuramoto_set):
        # stored (possibly normalized) data re-simulates step to step
        ts = kuramoto_set
        f = dynamics.system_rhs(ts.system.with_coupling(ts.graphs[ts.adjacency_index[0]]))
        for t in (0, 10, 40):
            step = dynamics.rk4_step(lambda g, u: f(g), ts.data[0, t], None, ts.dt)
            assert np.abs(step - ts.data[0, t + 1]).max() < 1e-9


class TestZscore:
    def test_fit_hand_example(self):
        # pooled values {1, 2, 3} in one dimension: mean 2, sample std 1
        data = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
        ts = datasets.TrajectorySet(
            data=data, dt=0.1, system=dynamics.make_pendulum(),
            graphs=[graphs.explicit_graph(np.zeros((1, 1)))],
            adjacency_index=np.zeros(1, dtype=np.int64),
            controls=np.zeros((1, 3, 1, 0)))
        norm = zscore_fit(ts)
        assert abs(norm.mean[0] - 2.0) < 1e-15
        assert abs(norm.std[0] - 1.0) < 1e-15

    def test_constant_dim_floored_and_flagged(self):
        data = np.full((3, 2, 1, 2), 5.0)
        data[..., 1] = np.arange(6).reshape(3, 2, 1) * 1.0
        ts = datasets.TrajectorySet(
            data=data, dt=0.1, system=dynamics.make_pendulum(),
            graphs=[graphs.explicit_graph(np.zeros((1, 1)))],
            adjacency_index=np.zeros(3, dtype=np.int64),
            controls=np.zeros((3, 2, 1, 0)))
        norm = zscore_fit(ts)
        assert norm.std[0] == datasets.STD_FLOOR
        assert norm.floored == (0,)

    def test_apply_then_fit_standardizes(self, kuramoto_set):
        norm = zscore_fit(kuramoto_set)
        normed = zscore_apply(kuramoto_set, norm)
        flat = normed.data.reshape(-1, 1)
        assert abs(flat.mean()) < 1e-10
        assert abs(flat.std(ddof=1) - 1.0) < 1e-12

    def test_invert_roundtrip(self, kuramoto_set):
        norm = zscore_fit(kuramoto_set)
        back = zscore_invert(zscore_apply(kuramoto_set, norm), norm)
        assert np.allclose(back.data, kuramoto_set.data, rtol=1e-12, atol=1e-12)

    def test_identity_norm(self, kuramoto_set):
        ident = NormStats(mean=np.zeros(1), std=np.ones(1))
        out = zscore_apply(kuramoto_set, ident)
        assert np.array_equal(out.data, kuramoto_set.data)

    def test_double_normalize_rejected(self, kuramoto_set):
        norm = zscore_fit(kuramoto_set)
        normed = zscore_apply(kuramoto_set, norm)
        with pytest.raises(ValueError):
            zscore_fit(normed)


class TestSplit:
    def test_seventy_thirty(self, kuramoto_set):
        train, val = split_train_val(kuramoto_set, 0.7, seed=31)
        assert train.n_traj == 8 and val.n_traj == 4

    def test_500_at_070_gives_350(self):
        # 500 * 0.7 is 349.9999... in floats; the split must still give 350
        g = graphs.explicit_graph(np.zeros((2, 2)))
        sys = dynamics.SystemSpec(
            "kuramoto", dynamics.KuramotoParams(b=np.zeros(2), coupling=g), 2)
        ts = generate_dataset(sys, g, n_traj=500, horizon=0.05, dt=0.05, seed=30)
        train, val = split_train_val(ts, 0.7, seed=30)
        assert train.n_traj == 350 and val.n_traj == 150

    def test_disjoint_exhaustive(self, kuramoto_set):
        train, val = split_train_val(kuramoto_set, 0.5, seed=32)
        joined = np.concatenate([zscore_invert(train, train.norm).data,
                                 zscore_invert(val, val.norm).data])
        assert len(joined) == kuramoto_set.n_traj
        # every original trajectory appears exactly once across the two sides
        for orig in kuramoto_set.data:
            matches = sum(np.allclose(orig, got, rtol=1e-12, atol=1e-12)
                          for got in joined)
            assert matches == 1

    def test_same_seed_same_split(self, kuramoto_set):
        a = split_train_val(kuramoto_set, 0.7, seed=33)
        b = split_train_val(kuramoto_set, 0.7, seed=33)
        assert np.array_equal(a[0].data, b[0].data)

    def test_norm_from_train_only(self, kuramoto_set):
        train, val = split_train_val(kuramoto_set, 0.7, seed=34)
        assert train.norm is val.norm
        flat = train.data.reshape(-1, 1)
        assert abs(flat.mean()) < 1e-10  # train side is standardized
        assert abs(val.data.reshape(-1, 1).mean()) > 1e-12  # val side is not exactly

    def test_empty_side_rejected(self, kuramoto_set):
        with pytest.raises(ValueError):
            split_train_val(kuramoto_set, 0.01, seed=35)


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, kuramoto_set):
        train, _ = split_train_val(kuramoto_set, 0.7, seed=41)
        save_dataset(train, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert np.array_equal(back.data, train.data)
        assert np.array_equal(back.adjacency_index, train.adjacency_index)
        assert np.array_equal(back.graphs[0].adjacency, train.graphs[0].adjacency)
        assert np.array_equal(back.norm.mean, train.norm.mean)
        assert np.array_equal(back.norm.std, train.norm.std)
        assert back.dt == train.dt and back.seed == train.seed
        assert np.array_equal(back.system.params.b, train.system.params.b)

    def test_failed_write_leaves_nothing_that_loads(self, tmp_path, kuramoto_set,
                                                   monkeypatch):
        write_bytes = Path.write_bytes

        def half_then_fail(self, data):
            write_bytes(self, data[:len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError):
            save_dataset(kuramoto_set, tmp_path / "ds")
        monkeypatch.undo()
        # data.bin failed midway: no partial file, and no manifest to load
        assert list((tmp_path / "ds").iterdir()) == []
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "ds")

    def test_manifest_written_last(self, tmp_path, kuramoto_set, monkeypatch):
        order = []
        write_atomic = datasets.write_atomic
        monkeypatch.setattr(datasets, "write_atomic",
                            lambda path, payload: (order.append(path.name),
                                                   write_atomic(path, payload)))
        save_dataset(kuramoto_set, tmp_path / "ds")
        assert order == ["data.bin", "adjacency.bin", "manifest.json"]

    def test_truncated_data_rejected(self, tmp_path, kuramoto_set):
        save_dataset(kuramoto_set, tmp_path / "ds")
        blob = (tmp_path / "ds" / "data.bin").read_bytes()
        (tmp_path / "ds" / "data.bin").write_bytes(blob[:-16])
        with pytest.raises(CompatibilityError):
            load_dataset(tmp_path / "ds")

    def test_unknown_kind_rejected(self, tmp_path, kuramoto_set):
        save_dataset(kuramoto_set, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        manifest["system"]["kind"] = "quadrotor"
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CompatibilityError):
            load_dataset(tmp_path / "ds")

    def test_version_mismatch_rejected(self, tmp_path, kuramoto_set):
        save_dataset(kuramoto_set, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CompatibilityError):
            load_dataset(tmp_path / "ds")

    def test_manifest_schema(self, tmp_path, pendulum_set):
        save_dataset(pendulum_set, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        for key in ("format_version", "system", "graphs", "n_traj", "T", "n_nodes",
                    "d", "c", "dt", "seed", "norm", "adjacency_index_per_traj"):
            assert key in manifest
        assert manifest["format_version"] == 1
        assert manifest["norm"] is None
        assert manifest["graphs"][0]["adjacency_offset"] == 0
        assert manifest["system"]["params"]["k"] == 2.0

    def test_multi_adjacency_roundtrip(self, tmp_path):
        gs = [graphs.gen_barabasi_albert(8, 2, seed=s) for s in range(3)]
        sys = dynamics.make_gene(gs[0])
        ts = generate_dataset(sys, gs, n_traj=7, horizon=0.5, dt=0.1, seed=42)
        save_dataset(ts, tmp_path / "multi")
        back = load_dataset(tmp_path / "multi")
        for a, b in zip(ts.graphs, back.graphs):
            assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(ts.adjacency_index, back.adjacency_index)


def test_dataset_hash_stable(kuramoto_set):
    a = datasets.dataset_hash(kuramoto_set)
    b = datasets.dataset_hash(kuramoto_set)
    assert a == b and len(a) == 64
