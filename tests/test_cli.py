"""End-to-end command-line pipeline: generate, train, eval, ablate, sweep,
pca, plot; exit codes; reproducibility of outputs."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from mpnode.cli import main

TINY = {
    "system": {"kind": "kuramoto", "params": {}},
    "graph": {"topology": "fixed", "n": 6, "degree": 3, "seed": 5},
    "dataset": {"n_traj": 10, "horizon": 0.5, "dt": 0.05,
                "split_fraction": 0.7, "seed": 6},
    "model": {"message_dim": 2, "hidden": [8], "activation": "tanh", "seed": 7},
    "train": {"learning_rate": 0.001, "batch_size": 4, "epochs": 2,
              "loss": "huber_time", "eval_every": 1, "seed": 8},
}


def _drop_header_key(raw: bytes, key: str) -> bytes:
    head, body = raw.split(b"\n", 1)
    header = json.loads(head)
    del header[key]
    return json.dumps(header).encode() + b"\n" + body


def _edit_norm(raw: bytes, key: str, value: float) -> bytes:
    head, body = raw.split(b"\n", 1)
    header = json.loads(head)
    header["norm"][key][0] = value
    return json.dumps(header).encode() + b"\n" + body


def _scale_parameters(ckpt: Path, factor: float) -> None:
    raw = ckpt.read_bytes()
    body = raw.index(b"\n") + 1
    params = np.frombuffer(raw[body:], dtype="<f8")
    ckpt.write_bytes(raw[:body] + (params * factor).astype("<f8").tobytes())


def _nan_parameter(raw: bytes, index: int) -> bytes:
    body = raw.index(b"\n") + 1 + 8 * index
    return raw[:body] + np.array([np.nan]).tobytes() + raw[body + 8:]


# case -> (corruption of a valid checkpoint's bytes, text the error must name)
MALFORMED_CHECKPOINTS = {
    "empty file": (lambda raw: b"", "is empty"),
    "no header newline": (lambda raw: raw[:raw.index(b"\n")], "no newline"),
    "bad json": (lambda raw: b"{not json" + raw[raw.index(b"\n"):], "not valid JSON"),
    "missing header key": (lambda raw: _drop_header_key(raw, "hidden"),
                           "'hidden' is missing"),
    "truncated parameters": (lambda raw: raw[:-3], "parameter blocks"),
    "nan first weight": (lambda raw: _nan_parameter(raw, 0), "parameter block W1"),
    "nan last bias": (lambda raw: _nan_parameter(raw, (len(raw) - raw.index(b"\n") - 9) // 8),
                      "parameter block b2"),
    "nan norm mean": (lambda raw: _edit_norm(raw, "mean", float("nan")), "'norm.mean'"),
    "infinite norm std": (lambda raw: _edit_norm(raw, "std", float("inf")), "'norm.std'"),
    "zero norm std": (lambda raw: _edit_norm(raw, "std", 0.0), "'norm.std'"),
}



def _edit_manifest(**changes):
    """A corruption of a manifest: set the given fields, or delete those set
    to None."""
    def corrupt(manifest):
        for key, value in changes.items():
            if value is None:
                del manifest[key]
            else:
                manifest[key] = value
        return json.dumps(manifest)
    return corrupt


# case -> (corruption of a valid manifest's JSON object, text the error must name)
MALFORMED_MANIFESTS = {
    "bad json": (lambda m: "{not json", "not valid JSON"),
    "not an object": (lambda m: "[]", "is not a JSON object"),
    "missing dt": (_edit_manifest(dt=None), "'dt' is missing"),
    "missing n_traj": (_edit_manifest(n_traj=None), "'n_traj' is missing"),
    "missing graphs": (_edit_manifest(graphs=None), "'graphs' is missing"),
    "T as a string": (_edit_manifest(T="11"), "'T' has the wrong type"),
    "negative sizes": (_edit_manifest(n_traj=-10, T=-11), "'n_traj' is negative"),
    "graph entry missing a field": (
        _edit_manifest(graphs=[{"n": 6, "topology_tag": "fixed", "seed": 5}]),
        "'graphs[0].adjacency_offset' is missing"),
    "adjacency index out of range": (
        lambda m: _edit_manifest(adjacency_index_per_traj=[1] * m["n_traj"])(m),
        "'adjacency_index_per_traj'"),
    "system params of another kind": (
        _edit_manifest(system={"kind": "lorenz", "params": {}}), "'system.params'"),
    "nan norm mean": (
        _edit_manifest(norm={"mean": [float("nan")], "std": [1.0], "floored_dims": []}),
        "'norm.mean'"),
    "negative norm std": (
        _edit_manifest(norm={"mean": [0.0], "std": [-1.0], "floored_dims": []}), "'norm.std'"),
    "norm mean as strings": (
        _edit_manifest(norm={"mean": ["0.5"], "std": [1.0], "floored_dims": []}),
        "'norm.mean'"),
}


def _rewrite(name: str, edit):
    """A corruption of a dataset directory: rewrite file `name` through `edit`
    (bytes -> bytes, or None to delete it)."""
    def corrupt(data: Path):
        path = data / name
        raw = edit(path.read_bytes())
        if raw is None:
            path.unlink()
        else:
            path.write_bytes(raw)
    return corrupt


def _with_controls(controls: bytes | None):
    """Declare one control dimension in the manifest, with `controls.bin`
    holding `controls` (None: no such file)."""
    def corrupt(data: Path):
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), c=1)))
        if controls is not None:
            (data / "controls.bin").write_bytes(controls)
    return corrupt


def _nan_at(index: int):
    return lambda raw: raw[:8 * index] + np.array([np.nan]).tobytes() + raw[8 * index + 8:]


# case -> (corruption of a valid dataset directory, file the error must name,
#          text it must contain)
MALFORMED_BINS = {
    "missing data.bin": (_rewrite("data.bin", lambda raw: None), "data.bin", "cannot be read"),
    "missing adjacency.bin": (_rewrite("adjacency.bin", lambda raw: None), "adjacency.bin",
                              "cannot be read"),
    "missing controls.bin": (_with_controls(None), "controls.bin", "cannot be read"),
    "truncated data.bin": (_rewrite("data.bin", lambda raw: raw[:-16]), "data.bin",
                           "expected"),
    "data.bin cut mid-value": (_rewrite("data.bin", lambda raw: raw[:-3]), "data.bin",
                               "expected"),
    "nan in data.bin": (_rewrite("data.bin", _nan_at(5)), "data.bin", "non-finite"),
    "truncated adjacency.bin": (_rewrite("adjacency.bin", lambda raw: raw[:-8]),
                                "adjacency.bin", "shorter than the manifest declares"),
    "adjacency.bin cut mid-value": (_rewrite("adjacency.bin", lambda raw: raw[:-3]),
                                    "adjacency.bin", "whole number"),
    "nan in adjacency.bin": (_rewrite("adjacency.bin", _nan_at(1)), "adjacency.bin",
                             "non-finite"),
    "short controls.bin": (_with_controls(bytes(16)), "controls.bin", "expected"),
}


METRICS_HEADER = "epoch,train_loss,val_loss,test_error,wall_seconds"
VALID_METRICS_ROWS = ["1,0.5,0.4,0.3,1.0", "2,0.25,,,1.0"]

# case -> (metrics.csv rows after the header, text the error must name)
MALFORMED_METRICS = {
    "non-numeric cell": (["1,abc,0.4,0.3,1.0", "2,0.25,,,1.0"], "line 2, column train_loss"),
    "short row": (["1,0.5,0.4,0.3,1.0", "2,0.25,,"], "line 3: 4 cells"),
    "long row": (["1,0.5,0.4,0.3,1.0,9", "2,0.25,,,1.0"], "line 2: 6 cells"),
    "nan train loss": (["1,nan,0.4,0.3,1.0", "2,0.25,,,1.0"], "line 2, column train_loss"),
    "infinite test error": (["1,0.5,0.4,inf,1.0", "2,0.25,,,1.0"],
                            "line 2, column test_error"),
    "empty train loss": (["1,0.5,0.4,0.3,1.0", "2,,,,1.0"], "line 3, column train_loss"),
    "empty wall seconds": (["1,0.5,0.4,0.3,", "2,0.25,,,1.0"], "line 2, column wall_seconds"),
    "fractional epoch": (["1.5,0.5,0.4,0.3,1.0", "2,0.25,,,1.0"], "line 2, column epoch"),
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture()
def dataset_dir(tmp_path, tiny_config):
    out = tmp_path / "data"
    assert main(["generate", "--config", str(tiny_config), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def trained_dir(tmp_path, tiny_config, dataset_dir):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--data", str(dataset_dir),
                 "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_config(self, dataset_dir):
        assert (dataset_dir / "manifest.json").exists()
        assert (dataset_dir / "data.bin").exists()
        assert (dataset_dir / "adjacency.bin").exists()
        assert (dataset_dir / "config.json").exists()
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["n_traj"] == 10 and manifest["T"] == 11

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "o")]) == 2

    def test_missing_block_exit_2(self, tmp_path):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"system": {"kind": "kuramoto"}}))
        assert main(["generate", "--config", str(partial),
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_finite_config_number_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.json"
        train = dict(TINY["train"], clip_norm=float("nan"))
        cfg.write_text(json.dumps(dict(TINY, train=train)))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "NaN is not a JSON number" in capsys.readouterr().err

    def test_rerun_bit_identical(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["generate", "--config", str(tiny_config), "--out", str(out1)]) == 0
        assert main(["generate", "--config", str(tiny_config), "--out", str(out2)]) == 0
        for name in ("manifest.json", "data.bin", "adjacency.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_occupied_out_dir_rejected(self, tmp_path, tiny_config, dataset_dir):
        assert main(["generate", "--config", str(tiny_config),
                     "--out", str(dataset_dir)]) == 2

    def test_refused_out_dir_keeps_user_files(self, tmp_path, tiny_config):
        out = tmp_path / "mine"
        out.mkdir()
        (out / "keep.txt").write_text("the user's")
        assert main(["generate", "--config", str(tiny_config), "--out", str(out)]) == 2
        assert (out / "keep.txt").read_text() == "the user's"

    def test_out_naming_a_file_exit_2(self, tmp_path, tiny_config):
        out = tmp_path / "a_file"
        out.write_text("the user's")
        assert main(["generate", "--config", str(tiny_config), "--out", str(out)]) == 2
        assert out.read_text() == "the user's"

    def test_failure_before_out_keeps_user_files(self, tmp_path, dataset_dir):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"{not json\n")
        out = tmp_path / "mine"
        out.mkdir()
        (out / "keep.txt").write_text("the user's")
        assert main(["eval", "--data", str(dataset_dir), "--from", str(ckpt),
                     "--out", str(out)]) == 3
        assert (out / "keep.txt").read_text() == "the user's"

    def test_failure_into_empty_out_dir_cleans_it(self, tmp_path, dataset_dir):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["eval", "--data", str(dataset_dir), "--from", str(tmp_path / "nope"),
                     "--out", str(out)]) == 2
        assert out.is_dir() and not any(out.iterdir())


class TestTrainEval:
    def test_train_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint.ckpt").exists()
        assert (trained_dir / "metrics.csv").exists()
        resolved = json.loads((trained_dir / "config.json").read_text())
        assert resolved["command"] == "train"
        lines = (trained_dir / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,test_error,wall_seconds"
        assert len(lines) == 1 + TINY["train"]["epochs"]

    def test_zero_epochs_header_holds_null(self, tmp_path, dataset_dir):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(dict(TINY, train=dict(TINY["train"], epochs=0))))
        out = tmp_path / "run0"
        assert main(["train", "--config", str(cfg), "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        head = (out / "checkpoint.ckpt").read_bytes().split(b"\n", 1)[0]
        provenance = json.loads(head)["provenance"]
        assert provenance["val_loss"] is None and provenance["epoch"] == 0

    def test_eval_heldout_split(self, tmp_path, tiny_config, dataset_dir, trained_dir):
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(tiny_config), "--data", str(dataset_dir),
                     "--from", str(trained_dir / "checkpoint.ckpt"),
                     "--out", str(out), "--split", "val"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_trajectory"]) == 3  # 30% of 10
        assert report["mean"] >= 0
        assert report["std_convention"] == "across trajectories"

    def test_train_rerun_bit_identical(self, tmp_path, tiny_config, dataset_dir):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["train", "--config", str(tiny_config),
                         "--data", str(dataset_dir), "--out", str(out)]) == 0
        assert (outs[0] / "checkpoint.ckpt").read_bytes() == \
               (outs[1] / "checkpoint.ckpt").read_bytes()
        # metrics match except the wall_seconds column
        strip = lambda p: ["," .join(line.split(",")[:4])
                           for line in (p / "metrics.csv").read_text().splitlines()]
        assert strip(outs[0]) == strip(outs[1])

    def test_finetune_incompatible_dims_exit_3(self, tmp_path, trained_dir):
        pend_cfg = dict(TINY, system={"kind": "pendulum", "params": {}},
                        graph={"topology": "explicit",
                               "adjacency": [[0.0, 1.0], [1.0, 0.0]], "seed": 9},
                        dataset={"n_traj": 8, "horizon": 1.0, "dt": 0.1,
                                 "split_fraction": 0.7, "seed": 10})
        cfg_path = tmp_path / "pend.json"
        cfg_path.write_text(json.dumps(pend_cfg))
        pend_data = tmp_path / "pend_data"
        assert main(["generate", "--config", str(cfg_path), "--out", str(pend_data)]) == 0
        code = main(["finetune", "--config", str(cfg_path), "--data", str(pend_data),
                     "--from", str(trained_dir / "checkpoint.ckpt"),
                     "--out", str(tmp_path / "ft")])
        assert code == 3
        assert not (tmp_path / "ft").exists()

    def test_finetune_runs(self, tmp_path, tiny_config, dataset_dir, trained_dir):
        out = tmp_path / "ft_ok"
        code = main(["finetune", "--config", str(tiny_config), "--data", str(dataset_dir),
                     "--from", str(trained_dir / "checkpoint.ckpt"), "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()

    def test_eval_missing_checkpoint_exit_2(self, tmp_path, dataset_dir):
        assert main(["eval", "--data", str(dataset_dir),
                     "--from", str(tmp_path / "nope.ckpt"),
                     "--out", str(tmp_path / "e")]) == 2

    def test_eval_all_diverged_exit_4(self, tmp_path, tiny_config, dataset_dir,
                                      trained_dir, capsys):
        # finite parameters load; scaled this far every rollout overflows
        ckpt = trained_dir / "checkpoint.ckpt"
        _scale_parameters(ckpt, 1e200)
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(tiny_config), "--data", str(dataset_dir),
                     "--from", str(ckpt), "--out", str(out), "--split", "val"])
        assert code == 4
        assert "all 3 scored trajectories diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_overflowing_scores_exit_4(self, tmp_path, tiny_config, dataset_dir,
                                           trained_dir, capsys):
        # rollouts stay finite, but their squared residuals overflow: a report
        # would hold an infinite spread, which JSON cannot carry
        ckpt = trained_dir / "checkpoint.ckpt"
        _scale_parameters(ckpt, 1e150)
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(tiny_config), "--data", str(dataset_dir),
                     "--from", str(ckpt), "--out", str(out), "--split", "val"])
        assert code == 4
        assert "is not finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_exit_3(self, tmp_path, dataset_dir, trained_dir,
                                         capsys, case):
        corrupt, field = MALFORMED_CHECKPOINTS[case]
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(corrupt((trained_dir / "checkpoint.ckpt").read_bytes()))
        code = main(["eval", "--data", str(dataset_dir), "--from", str(ckpt),
                     "--out", str(tmp_path / "e")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and field in err


    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_exit_3(self, tmp_path, tiny_config, dataset_dir, capsys,
                                       case):
        corrupt, field = MALFORMED_MANIFESTS[case]
        data = tmp_path / "bad_data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.json"
        manifest.write_text(corrupt(json.loads(manifest.read_text())))
        code = main(["train", "--config", str(tiny_config), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(manifest) in err and field in err
        assert len(err) < 500


    @pytest.mark.parametrize("case", sorted(MALFORMED_BINS))
    def test_malformed_bin_exit_3(self, tmp_path, tiny_config, dataset_dir, capsys, case):
        corrupt, name, text = MALFORMED_BINS[case]
        data = tmp_path / "bad_data"
        shutil.copytree(dataset_dir, data)
        corrupt(data)
        code = main(["train", "--config", str(tiny_config), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(data / name) in err and text in err


class TestAblateSweepPcaPlot:
    def test_ablate(self, tmp_path, tiny_config, dataset_dir):
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(tiny_config), "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        assert (out / "normal" / "metrics.csv").exists()
        assert (out / "clamped" / "metrics.csv").exists()
        assert (out / "ablation.svg").exists() and (out / "ablation.csv").exists()

    def test_sweep(self, tmp_path, tiny_config, dataset_dir):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(tiny_config), "--data", str(dataset_dir),
                     "--out", str(out), "--message-sizes", "1,3"]) == 0
        assert (out / "p1" / "metrics.csv").exists()
        assert (out / "p3" / "metrics.csv").exists()
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "message_dim,best_test_error,epochs_times_min_error"
        assert len(summary) == 3

    def test_pca(self, tmp_path, dataset_dir, trained_dir):
        out = tmp_path / "pca"
        assert main(["pca", "--data", str(dataset_dir),
                     "--from", str(trained_dir / "checkpoint.ckpt"),
                     "--out", str(out), "--trajectories", "5"]) == 0
        payload = json.loads((out / "pca.json").read_text())
        assert len(payload["explained_variance"]) == 3
        assert (out / "pca.svg").exists()

    @pytest.mark.parametrize("flag", ["--trajectories", "--components"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_pca_count_below_one_exit_2(self, tmp_path, dataset_dir, trained_dir, capsys,
                                        flag, value):
        out = tmp_path / "pca"
        code = main(["pca", "--data", str(dataset_dir),
                     "--from", str(trained_dir / "checkpoint.ckpt"),
                     "--out", str(out), flag, value])
        assert code == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_plot(self, tmp_path, trained_dir):
        out = tmp_path / "plot"
        assert main(["plot", "--data", str(trained_dir / "metrics.csv"),
                     "--out", str(out)]) == 0
        assert (out / "metrics.svg").exists()

    def test_pca_overflowing_covariance_exit_4(self, tmp_path, dataset_dir, trained_dir,
                                               capsys):
        # the rollout stays finite, but the messages' squares overflow the
        # covariance; eval exits 4 on the same overflow
        ckpt = trained_dir / "checkpoint.ckpt"
        _scale_parameters(ckpt, 2e154)
        out = tmp_path / "pca"
        code = main(["pca", "--data", str(dataset_dir), "--from", str(ckpt),
                     "--out", str(out)])
        assert code == 4
        assert "message covariance is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_valid_metrics_table(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("\n".join([METRICS_HEADER, *VALID_METRICS_ROWS]) + "\n")
        assert main(["plot", "--data", str(metrics), "--out", str(tmp_path / "plot")]) == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_METRICS))
    def test_plot_malformed_metrics_exit_3(self, tmp_path, capsys, case):
        rows, text = MALFORMED_METRICS[case]
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("\n".join([METRICS_HEADER, *rows]) + "\n")
        out = tmp_path / "plot"
        code = main(["plot", "--data", str(metrics), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(metrics) in err and text in err
        assert not out.exists()


class TestShippedConfigs:
    def test_all_parse_and_resolve(self):
        from mpnode.cli import build_graphs, build_system, build_train_config, load_config
        root = Path(__file__).resolve().parents[1] / "configs"
        names = {p.name for p in root.glob("*.json")}
        assert names == {
            "pendulum.json", "lorenz3_low.json", "lorenz10_low.json",
            "lorenz10_strong_coupling.json", "lorenz10_10s.json",
            "gene4x4_ba_x5.json", "gene8x8.json", "kuramoto10_ba.json",
            "kuramoto10_er.json", "kuramoto10_ws.json"}
        for path in sorted(root.glob("*.json")):
            cfg = load_config(path)
            gs = build_graphs(cfg["graph"])
            system = build_system(cfg["system"], gs, cfg["dataset"]["seed"])
            build_train_config(cfg["train"])
            assert system.kind == cfg["system"]["kind"]

    def test_recipe_values(self):
        root = Path(__file__).resolve().parents[1] / "configs"
        kuramoto = json.loads((root / "kuramoto10_ba.json").read_text())
        assert kuramoto["dataset"]["n_traj"] == 500
        assert kuramoto["dataset"]["dt"] == 0.05
        assert kuramoto["graph"]["degree"] == 5
        assert kuramoto["train"]["loss"] == "huber_time"
        pend = json.loads((root / "pendulum.json").read_text())
        assert pend["dataset"]["horizon"] == 10.0 and pend["dataset"]["dt"] == 0.1
        assert pend["dataset"]["n_traj"] == 500
        assert pend["train"]["loss"] == "mse"
        gene = json.loads((root / "gene4x4_ba_x5.json").read_text())
        assert gene["graph"]["count"] == 5 and gene["graph"]["n"] == 16
        assert gene["dataset"]["n_traj"] == 200
        lorenz = json.loads((root / "lorenz3_low.json").read_text())
        assert lorenz["graph"]["magnitude"] == 0.01
        assert lorenz["dataset"]["horizon"] == 2.5
        strong = json.loads((root / "lorenz10_strong_coupling.json").read_text())
        assert strong["graph"]["magnitude"] == 1.0

    def test_train_block_defaults_match_optimizer_recipe(self):
        root = Path(__file__).resolve().parents[1] / "configs"
        for path in root.glob("*.json"):
            cfg = json.loads(path.read_text())
            assert cfg["train"]["learning_rate"] == 0.001
            assert cfg["train"]["batch_size"] == 128


def test_seed_override_changes_outputs(tmp_path, tiny_config):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["generate", "--config", str(tiny_config), "--out", str(out1),
                 "--seed", "1"]) == 0
    assert main(["generate", "--config", str(tiny_config), "--out", str(out2),
                 "--seed", "2"]) == 0
    assert (out1 / "data.bin").read_bytes() != (out2 / "data.bin").read_bytes()
