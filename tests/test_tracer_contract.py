"""The benchmark's tracer (`perfbench/tracer.py`) wraps package functions by
module attribute; its per-layer report indexes the ground-truth span without
a guard, so `generate` must keep calling `datasets.simulate_trajectory`."""

import importlib.util
import json
from pathlib import Path

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


def test_generate_records_the_simulate_trajectory_span(tmp_path, monkeypatch):
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
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
    spans = rec.summary()["spans"]
    assert spans["dynamics.simulate_trajectory"]["calls"] >= 1
    assert spans["datasets.generate_dataset"]["calls"] == 1
