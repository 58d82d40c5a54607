"""Single executable for the full experiment lifecycle.

    mpnode <generate|train|finetune|eval|ablate|sweep|pca|plot>
           --config FILE [--data DIR] [--from CKPT] [--out DIR]
           [--seed N] [--clamp-messages] [--message-sizes LIST]

Exit codes: 0 ok, 2 config error, 3 compatibility error, 4 numerical
divergence. Every command writes the resolved configuration it actually
used into its output directory. On failure it removes its partial outputs
from an output directory that did not exist or was empty when it started,
and touches no other.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import analysis, datasets, dynamics, graphs, model as model_mod, training
from .errors import (CompatibilityError, ConfigError, DivergenceError, DomainError,
                     ShapeError)
from .rng import derive

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPAT = 3
EXIT_DIVERGED = 4


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_BLOCKS = ("system", "graph", "dataset", "model", "train")


def load_config(path, seed_override: int | None = None) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")

    def reject(name):
        raise ConfigError(f"config {path} is not valid JSON: {name} is not a JSON number")

    try:
        cfg = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}")
    for block in _BLOCKS:
        if block not in cfg:
            raise ConfigError(f"config is missing the {block!r} block")
    if seed_override is not None:
        for i, block in enumerate(_BLOCKS[1:], start=1):
            cfg[block]["seed"] = derive(seed_override, i)
    return cfg


def build_graphs(block: dict) -> list[graphs.GraphSpec]:
    topo = block.get("topology")
    seed = int(block.get("seed", 0))
    count = int(block.get("count", 1))
    if count < 1:
        raise ConfigError("graph count must be at least 1")
    if topo == "explicit":
        adj = block.get("adjacency")
        if adj is None:
            raise ConfigError("explicit topology needs an adjacency matrix")
        return [graphs.explicit_graph(np.asarray(adj, dtype=np.float64), seed)]
    n = int(block["n"])
    out = []
    for i in range(count):
        s = derive(seed, i)
        if topo == "er":
            p = block.get("p", None)
            if p is None:
                p = block["degree"] / (n - 1)
            g = graphs.gen_erdos_renyi(n, float(p), s)
        elif topo == "ba":
            m = block.get("m", None)
            if m is None:
                m = graphs.ba_m_for_degree(int(block["degree"]))
            g = graphs.gen_barabasi_albert(n, int(m), s)
        elif topo == "ws":
            k = block.get("k", None)
            if k is None:
                k = graphs.ws_k_for_degree(int(block["degree"]))
            g = graphs.gen_watts_strogatz(n, int(k), float(block.get("beta", 0.3)), s)
        elif topo == "full":
            g = graphs.gen_fully_connected_weighted(n, float(block["magnitude"]), s)
        elif topo == "fixed":
            g = graphs.gen_fixed_degree(n, int(block["degree"]), s)
        else:
            raise ConfigError(f"unknown graph topology {topo!r}")
        out.append(g)
    return out


def build_system(block: dict, graph_list: list[graphs.GraphSpec],
                 dataset_seed: int) -> dynamics.SystemSpec:
    kind = block.get("kind")
    params = dict(block.get("params", {}))
    g0 = graph_list[0]
    if kind == "pendulum":
        return dynamics.make_pendulum(dynamics.PendulumParams(**params))
    if kind == "lorenz":
        return dynamics.make_lorenz(g0, **params)
    if kind == "gene":
        return dynamics.make_gene(g0, **params)
    if kind == "kuramoto":
        return dynamics.make_kuramoto(g0, seed=derive(dataset_seed, 60))
    raise ConfigError(f"unknown system kind {kind!r}")


def build_train_config(block: dict, clamp_override: bool = False) -> training.TrainConfig:
    try:
        return training.TrainConfig(
            learning_rate=float(block.get("learning_rate", 0.001)),
            batch_size=int(block.get("batch_size", 128)),
            epochs=int(block.get("epochs", 100)),
            loss=block.get("loss", "mse"),
            huber_delta=float(block.get("huber_delta", 1.0)),
            rollout_horizon=block.get("rollout_horizon"),
            clamp_messages=bool(block.get("clamp_messages", False)) or clamp_override,
            seed=int(block.get("seed", 0)),
            eval_every=int(block.get("eval_every", 1)),
            clip_norm=block.get("clip_norm"),
        )
    except ValueError as err:
        raise ConfigError(str(err))


def _split_from_config(ts: datasets.TrajectorySet, cfg: dict):
    fraction = float(cfg["dataset"].get("split_fraction", 0.7))
    return datasets.split_train_val(ts, fraction, ts.seed)


def _build_model(cfg: dict, ts: datasets.TrajectorySet) -> model_mod.MpNodeModel:
    block = cfg["model"]
    return model_mod.init_model(
        state_dim=ts.d,
        message_dim=int(block.get("message_dim", 7)),
        control_dim=ts.c,
        hidden=tuple(block.get("hidden", (64, 64))),
        activation=block.get("activation", "tanh"),
        seed=int(block.get("seed", 0)),
    )


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------


def _prepare_out(out: str) -> Path:
    path = Path(out)
    if path.exists() and any(path.iterdir()):
        raise ConfigError(f"output directory {out} exists and is not empty")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_resolved(out: Path, command: str, cfg: dict | None, args) -> None:
    resolved = {
        "command": command,
        "config": cfg,
        "data": args.data,
        "from": getattr(args, "from_ckpt", None),
        "out": str(out),
        "seed": args.seed,
        "clamp_messages": getattr(args, "clamp_messages", False),
        "message_sizes": getattr(args, "message_sizes", None),
        "split": getattr(args, "split", None),
    }
    (out / "config.json").write_text(json.dumps(resolved, indent=1, allow_nan=False))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out)
    graph_list = build_graphs(cfg["graph"])
    ds_block = cfg["dataset"]
    seed = int(ds_block.get("seed", 0))
    system = build_system(cfg["system"], graph_list, seed)
    ts = datasets.generate_dataset(
        system, graph_list, n_traj=int(ds_block["n_traj"]),
        horizon=float(ds_block["horizon"]), dt=float(ds_block["dt"]), seed=seed)
    datasets.save_dataset(ts, out)
    _write_resolved(out, "generate", cfg, args)
    print(f"wrote {ts.n_traj} trajectories (T={ts.T}, n={ts.n_nodes}, d={ts.d}) to {out}")
    return EXIT_OK


def _load_data(args) -> datasets.TrajectorySet:
    if not args.data:
        raise ConfigError("this command needs --data DIR")
    if not Path(args.data, "manifest.json").exists():
        raise ConfigError(f"{args.data} does not contain a dataset (no manifest.json)")
    return datasets.load_dataset(args.data)


def _load_checkpoint(args) -> model_mod.Checkpoint:
    if not args.from_ckpt:
        raise ConfigError(f"{args.command} needs --from CKPT")
    if not Path(args.from_ckpt).exists():
        raise ConfigError(f"checkpoint {args.from_ckpt} does not exist")
    return model_mod.load_checkpoint(args.from_ckpt)


def _write_run(out: Path, ckpt: model_mod.Checkpoint, record: training.RunRecord) -> None:
    out.mkdir(exist_ok=True)
    model_mod.save_checkpoint(ckpt.model, ckpt.norm, ckpt.provenance, out / "checkpoint.ckpt")
    record.to_csv(out / "metrics.csv")


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    ts = _load_data(args)
    out = _prepare_out(args.out)
    train_set, val_set = _split_from_config(ts, cfg)
    net = _build_model(cfg, ts)
    tc = build_train_config(cfg["train"], args.clamp_messages)
    ckpt, record = training.train(net, train_set, val_set, tc)
    _write_run(out, ckpt, record)
    _write_resolved(out, "train", cfg, args)
    val_loss = ckpt.provenance["val_loss"]
    print(f"trained {tc.epochs} epochs; best val loss "
          f"{'none' if val_loss is None else format(val_loss, '.6g')} "
          f"at epoch {ckpt.provenance['epoch']}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = load_config(args.config, args.seed)
    source = _load_checkpoint(args)
    ts = _load_data(args)
    out = _prepare_out(args.out)
    train_set, val_set = _split_from_config(ts, cfg)
    tc = build_train_config(cfg["train"], args.clamp_messages)
    ckpt, record = training.finetune(source, train_set, val_set, tc)
    _write_run(out, ckpt, record)
    _write_resolved(out, "finetune", cfg, args)
    print(f"finetuned {tc.epochs} epochs from {args.from_ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = _load_checkpoint(args)
    ts = _load_data(args)
    cfg = load_config(args.config, args.seed) if args.config else None
    if args.split != "all":
        if cfg is None:
            raise ConfigError("--split train/val needs --config for the split fraction")
        train_set, val_set = _split_from_config(ts, cfg)
        ts = train_set if args.split == "train" else val_set
    out = _prepare_out(args.out)
    report = analysis.evaluate(ckpt, ts, clamp_messages=args.clamp_messages)
    if not report.per_traj:
        raise DivergenceError(f"all {report.diverged} scored trajectories diverged; "
                              "no report written")
    report.to_json(out / "report.json")
    _write_resolved(out, "eval", cfg, args)
    print(f"test error {report.mean:.6g} +- {report.std:.6g} over "
          f"{len(report.per_traj)} trajectories ({report.diverged} diverged)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    """Matched-seed training with messages active vs clamped to zero."""
    cfg = load_config(args.config, args.seed)
    ts = _load_data(args)
    out = _prepare_out(args.out)
    train_set, val_set = _split_from_config(ts, cfg)
    records = {}
    for label, clamp in (("normal", False), ("clamped", True)):
        net = _build_model(cfg, ts)
        tc = build_train_config(cfg["train"], clamp)
        ckpt, record = training.train(net, train_set, val_set, tc)
        _write_run(out / label, ckpt, record)
        records[label] = record
    series = [(label, [r.epoch for r in rec.rows], [r.train_loss for r in rec.rows])
              for label, rec in records.items()]
    analysis.emit_plot(series, out / "ablation.svg")
    _write_resolved(out, "ablate", cfg, args)
    normal = records["normal"].final_train_loss()
    clamped = records["clamped"].final_train_loss()
    print(f"final train loss: messages {normal:.6g} vs clamped {clamped:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.seed)
    if not args.message_sizes:
        raise ConfigError("sweep needs --message-sizes LIST")
    try:
        sizes = [int(s) for s in args.message_sizes.split(",") if s]
        if len(set(sizes)) < len(sizes):
            raise ValueError("a size repeats")
    except ValueError:
        raise ConfigError(f"bad --message-sizes {args.message_sizes!r}")
    ts = _load_data(args)
    out = _prepare_out(args.out)
    train_set, val_set = _split_from_config(ts, cfg)
    summary = ["message_dim,best_test_error,epochs_times_min_error"]
    series = []
    for p in sizes:
        cfg_p = json.loads(json.dumps(cfg))
        cfg_p["model"]["message_dim"] = p
        net = _build_model(cfg_p, ts)
        tc = build_train_config(cfg_p["train"], args.clamp_messages)
        ckpt, record = training.train(net, train_set, val_set, tc)
        _write_run(out / f"p{p}", ckpt, record)
        entries = record.test_errors()
        series.append((f"p={p}", [e for e, _ in entries], [v for _, v in entries]))
        summary.append(f"{p},{record.best_test_error()!r},"
                       f"{analysis.epochs_times_min_error(record)!r}")
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    analysis.emit_plot(series, out / "sweep.svg")
    _write_resolved(out, "sweep", cfg, args)
    print(f"swept message sizes {sizes}")
    return EXIT_OK


def cmd_pca(args) -> int:
    ckpt = _load_checkpoint(args)
    ts = _load_data(args)
    out = _prepare_out(args.out)
    net = ckpt.model
    if net.message_dim < 1:
        raise CompatibilityError("checkpoint has no message variables to analyze")
    if args.trajectories < 1:
        raise ConfigError("--trajectories must be at least 1")
    n_traj = min(args.trajectories, ts.n_traj)
    ts = ts.subset(range(n_traj))
    raw = datasets.zscore_invert(ts, ts.norm) if ts.norm is not None else ts
    normed = datasets.zscore_apply(raw, ckpt.norm)
    log = analysis.message_log(net, normed)
    k = min(args.components, net.message_dim * normed.n_nodes)
    result = analysis.pca_messages(log, k)
    times = [t * normed.dt for t in range(normed.T)]
    series = [(f"pc{i + 1} mean", times, list(result.projections[:, :, i].mean(axis=0)))
              for i in range(min(k, 3))]
    analysis.emit_plot(series, out / "pca.svg")
    payload = {
        "explained_variance": [float(v) for v in result.explained_variance],
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "trajectories": int(n_traj),
        "components": int(k),
    }
    datasets.write_atomic(out / "pca.json", json.dumps(payload, indent=1, allow_nan=False))
    _write_resolved(out, "pca", None, args)
    print(f"explained variance fractions: {payload['explained_variance']}")
    return EXIT_OK


def cmd_plot(args) -> int:
    if not args.data:
        raise ConfigError("plot needs --data metrics.csv")
    path = Path(args.data)
    if not path.exists():
        raise ConfigError(f"{path} does not exist")
    record = training.RunRecord.from_csv(path)
    out = _prepare_out(args.out)
    epochs = [r.epoch for r in record.rows]
    series = [("train_loss", epochs, [r.train_loss for r in record.rows])]
    val = [(r.epoch, r.val_loss) for r in record.rows if r.val_loss is not None]
    if val:
        series.append(("val_loss", [e for e, _ in val], [v for _, v in val]))
    test = record.test_errors()
    if test:
        series.append(("test_error", [e for e, _ in test], [v for _, v in test]))
    analysis.emit_plot(series, out / "metrics.svg")
    _write_resolved(out, "plot", None, args)
    print(f"plotted {len(series)} series from {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "sweep": cmd_sweep,
    "pca": cmd_pca,
    "plot": cmd_plot,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mpnode", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", help="experiment config JSON")
    ap.add_argument("--data", help="dataset directory (or metrics.csv for plot)")
    ap.add_argument("--from", dest="from_ckpt", help="checkpoint to start from / evaluate")
    ap.add_argument("--out", help="output directory", required=True)
    ap.add_argument("--seed", type=int, default=None, help="override all block seeds")
    ap.add_argument("--clamp-messages", action="store_true",
                    help="force outgoing messages to zero")
    ap.add_argument("--message-sizes", help="comma-separated message dims for sweep")
    ap.add_argument("--split", choices=("all", "train", "val"), default="all",
                    help="which side of the train/val split eval should score")
    ap.add_argument("--components", type=int, default=3, help="PCA component count")
    ap.add_argument("--trajectories", type=int, default=100,
                    help="trajectory budget for pca")
    return ap


def _discard_partial_outputs(path: Path, created: bool) -> None:
    if not path.exists():
        return
    if created:
        shutil.rmtree(path, ignore_errors=True)
    else:  # pre-existing empty directory: drop only what we wrote into it
        for child in path.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                child.unlink(missing_ok=True)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    needs_config = args.command in ("generate", "train", "finetune", "ablate", "sweep")
    out = Path(args.out)
    created_out = not out.exists()
    # only a directory this command may own is cleaned up on failure: one
    # that did not exist or was empty; anything else is the user's
    owned_out = created_out or (out.is_dir() and not any(out.iterdir()))
    # Exception clauses run most-specific first: the error classes share
    # ValueError ancestry, and each must keep its own exit code.
    try:
        if needs_config and not args.config:
            raise ConfigError(f"{args.command} needs --config FILE")
        return _COMMANDS[args.command](args)
    except (CompatibilityError, ShapeError) as err:
        print(f"compatibility error: {err}", file=sys.stderr)
        code = EXIT_COMPAT
    except (DivergenceError, DomainError) as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        code = EXIT_DIVERGED
    except (ConfigError, KeyError, TypeError, ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        code = EXIT_CONFIG
    if owned_out:
        _discard_partial_outputs(out, created_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
