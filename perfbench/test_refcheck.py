"""Each output check of the lifecycle benchmark accepts real `mpnode` outputs
and rejects a corrupted one."""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refcheck  # noqa: E402
from mpnode.cli import main  # noqa: E402

CONFIG = {
    "system": {"kind": "kuramoto", "params": {}},
    "graph": {"topology": "ba", "n": 6, "degree": 2, "seed": 5},
    "dataset": {"n_traj": 24, "horizon": 1.0, "dt": 0.05, "split_fraction": 0.7, "seed": 6},
    "model": {"message_dim": 2, "hidden": [16, 16], "activation": "tanh", "seed": 7},
    "train": {"learning_rate": 0.01, "batch_size": 8, "epochs": 3, "loss": "huber_time",
              "eval_every": 1, "seed": 8},
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("lifecycle")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    d = {name: root / name for name in ("data", "train", "eval", "pca")}
    ckpt = str(d["train"] / "checkpoint.ckpt")
    assert main(["generate", "--config", str(cfg), "--out", str(d["data"]), "--seed", "11"]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(d["data"]),
                 "--out", str(d["train"]), "--seed", "11"]) == 0
    assert main(["eval", "--config", str(cfg), "--data", str(d["data"]), "--from", ckpt,
                 "--out", str(d["eval"]), "--split", "val", "--seed", "11"]) == 0
    assert main(["pca", "--data", str(d["data"]), "--from", ckpt, "--out", str(d["pca"])]) == 0
    d["config"] = cfg
    return d


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _rewrite_parameters(ckpt: Path, edit) -> None:
    raw = ckpt.read_bytes()
    nl = raw.index(b"\n")
    blob = np.frombuffer(raw[nl + 1:], dtype="<f8").copy()
    edit(blob)
    ckpt.write_bytes(raw[:nl + 1] + blob.astype("<f8").tobytes())


def test_real_outputs_pass(run):
    assert refcheck.check_dataset(CONFIG, run["data"]) == []
    assert refcheck.check_train(CONFIG, run["data"], run["train"]) == []
    assert refcheck.check_eval(CONFIG, run["data"], run["train"], run["eval"]) == []
    assert refcheck.check_pca(run["data"], run["train"], run["pca"]) == []


def test_split_matches_program(run):
    from mpnode.datasets import load_dataset, split_train_val
    ts = load_dataset(run["data"])
    _, val = split_train_val(ts, 0.7, ts.seed)
    _, val_rows = refcheck.split_indices(ts.n_traj, 0.7, ts.seed)
    _, data, _ = refcheck.read_dataset(run["data"])
    assert np.array_equal(val.data, (data[val_rows] - val.norm.mean) / val.norm.std)


def test_perturbed_parameter_rejected(run, tmp_path):
    train = _copy(run["train"], tmp_path / "train")

    def nudge(blob):
        blob[5] += 1e-3
    _rewrite_parameters(train / "checkpoint.ckpt", nudge)
    assert any("test_error" in f for f in refcheck.check_train(CONFIG, run["data"], train))
    assert refcheck.check_eval(CONFIG, run["data"], train, run["eval"]) != []
    assert refcheck.check_pca(run["data"], train, run["pca"]) != []


def test_edited_data_value_rejected(run, tmp_path):
    data = _copy(run["data"], tmp_path / "data")
    values = np.fromfile(data / "data.bin", dtype="<f8")
    values[7 * 21 * 6 + 10 * 6 + 3] += 1e-4   # trajectory 7, step 10, node 3
    values.tofile(data / "data.bin")
    fails = refcheck.check_dataset(CONFIG, data)
    assert len(fails) == 1 and fails[0].startswith("trajectory 7 ")


def test_nan_checkpoint_rejected_although_eval_exits_zero(run, tmp_path):
    train = _copy(run["train"], tmp_path / "train")

    def poison(blob):
        blob[:] = np.nan
    _rewrite_parameters(train / "checkpoint.ckpt", poison)
    out = tmp_path / "eval"
    code = main(["eval", "--config", str(run["config"]), "--data", str(run["data"]),
                 "--from", str(train / "checkpoint.ckpt"), "--out", str(out),
                 "--split", "val", "--seed", "11"])
    if code == 0:   # the program accepts this checkpoint; the check must not
        fails = refcheck.check_eval(CONFIG, run["data"], train, out)
        assert any("diverged" in f for f in fails)
    assert "checkpoint holds non-finite parameters" in \
        refcheck.check_train(CONFIG, run["data"], train)


def test_truncated_checkpoint_unreadable(run, tmp_path):
    ckpt = tmp_path / "checkpoint.ckpt"
    ckpt.write_bytes((run["train"] / "checkpoint.ckpt").read_bytes()[:100])
    with pytest.raises(ValueError):
        refcheck.read_checkpoint(ckpt)
