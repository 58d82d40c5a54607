"""The benchmark's tracer (`perfbench/tracer.py`) wraps package functions by
module attribute. Its per-layer report indexes the ground-truth span without
a guard, so `generate` must keep calling `datasets.simulate_trajectory`; it
reads a missing span as zero, so a `pca` that stopped calling
`analysis.pca_messages` through the module would report no PCA time."""

import importlib.util
import json
from pathlib import Path

import pytest

from mpnode import analysis, autodiff, cli, datasets, model, training

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

TINY = {
    "system": {"kind": "kuramoto", "params": {}},
    "graph": {"topology": "fixed", "n": 6, "degree": 3, "seed": 5},
    "dataset": {"n_traj": 10, "horizon": 0.5, "dt": 0.05, "split_fraction": 0.7, "seed": 6},
    "model": {"message_dim": 2, "hidden": [8], "activation": "tanh", "seed": 7},
    "train": {"learning_rate": 0.001, "batch_size": 4, "epochs": 2, "loss": "huber_time",
              "eval_every": 1, "seed": 8},
}


@pytest.fixture()
def recorder(monkeypatch):
    """The tracer's wrappers, installed on the package for one test."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # the wrappers replace module attributes; put every one back afterwards
    for mod in (analysis, autodiff, cli, datasets, model, training):
        for name, value in list(vars(mod).items()):
            monkeypatch.setattr(mod, name, value)
    monkeypatch.setattr(autodiff.Tape, "backward", autodiff.Tape.backward)
    rec = tracer.Recorder()
    tracer.install(rec)
    return rec


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def test_generate_records_the_simulate_trajectory_span(tmp_path, recorder, config):
    assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
    spans = recorder.summary()["spans"]
    assert spans["dynamics.simulate_trajectory"]["calls"] >= 1
    assert spans["datasets.generate_dataset"]["calls"] == 1


def test_pca_records_the_pca_messages_span(tmp_path, recorder, config):
    data, run = tmp_path / "d", tmp_path / "run"
    assert cli.main(["generate", "--config", str(config), "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(run)]) == 0
    assert cli.main(["pca", "--data", str(data), "--from", str(run / "checkpoint.ckpt"),
                     "--out", str(tmp_path / "pca")]) == 0
    spans = recorder.summary()["spans"]
    assert spans["analysis.pca_messages"]["calls"] == 1
