#!/usr/bin/env python3
"""Lifecycle benchmark: `mpnode generate -> train -> eval -> pca` on one
reference config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each command runs as its own child
process, one at a time, with the program's default thread settings, and is
timed from outside; `os.wait4` gives its peak RSS. Every output is checked
against the independent reference code in `refcheck.py`. An operation is one
command together with its output check; it fails when the command exits
non-zero or the check rejects its output, and `correct` turns false when a
command exits 0 with an output the check rejects.

A round runs `generate` once, then `train`, `eval` and `pca` each as many
times as the workload's REPEATS say (after the first `train`, all
interleaved evenly; eval and pca read the first checkpoint). A timing
metric is the fastest of a round's repeats: on a shared host, other tenants
slow a command down for tens of seconds at a time and never speed it up, so
the fastest repeat is the steadiest estimate of the command's own cost.
Rounds repeat until S seconds have passed, so at least one runs, and each
metric is the median over rounds. `setup_s` is the first round's cold
set-up, from this process's start to the end of `generate`.

With `--trace 0` the last stdout line reports the end-to-end metrics. With
`--trace 1` a round runs all four commands under `tracer.py`, and `eval` and
`pca` also untraced, just before their traced twins; the last line reports
the per-layer metrics, summed over the traced commands, and the tracing
overhead of `eval` and `pca` (traced walls minus untraced ones). Those two
record the most spans per second. `train` is not twinned: the first large
allocation of a run is often seconds slower than a later identical one,
which would swamp the difference.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import refcheck  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

# Each workload is a reference config unchanged except for the epoch count.
# Two epochs are the fewest for which "the train loss fell" can be checked.
EPOCHS = 2
WORKLOADS = {
    # T=51, n=10: cheap, training on the BLAS `dense` path; pca at dim 70
    "kuramoto10_ba": "configs/kuramoto10_ba.json",
    # T=201: the taped rollout dominates memory; heaviest simulation and
    # per-trajectory scoring
    "lorenz10_10s": "configs/lorenz10_10s.json",
    # n=64 of degree 32: large `neighbor_mean`; pca at dim 448 is Jacobi-bound
    "gene8x8": "configs/gene8x8.json",
}
# How often an untraced round runs each timed command: as often as a
# comparison's time budget allows on a host running 1.4x slower than quiet
# (lorenz10_10s's 15 s `train` and gene8x8's 25-66 s `pca` once).
REPEATS = {
    "kuramoto10_ba": {"train": 2, "eval": 3, "pca": 9},
    "lorenz10_10s": {"train": 1, "eval": 2, "pca": 3},
    "gene8x8": {"train": 1, "eval": 3, "pca": 1},
}
COMMANDS = ("generate", "train", "eval", "pca")
RUN_LIMIT_S = 170.0   # children still running then are killed

END_TO_END = {
    "setup_s": "s", "train_epoch_s": "s", "train_peak_rss_mb": "MB",
    "eval_s": "s", "pca_s": "s", "score_peak_rss_mb": "MB",
}
# per-layer metric -> (span name, summary field), summed over the traced commands
LAYER_SPANS = {
    "autodiff.dense.fwd_s": ("autodiff.dense", "total_s"),
    "autodiff.dense.bwd_s": ("autodiff.dense.bwd", "total_s"),
    "autodiff.dense.calls": ("autodiff.dense", "calls"),
    "autodiff.dense_stable.fwd_s": ("autodiff.dense_stable", "total_s"),
    "autodiff.dense_stable.calls": ("autodiff.dense_stable", "calls"),
    "autodiff.neighbor_mean.fwd_s": ("autodiff.neighbor_mean", "total_s"),
    "autodiff.neighbor_mean.bwd_s": ("autodiff.neighbor_mean.bwd", "total_s"),
    "autodiff.backward_s": ("autodiff.backward", "self_s"),
    "model.rollout_batch.taped_s": ("model.rollout_batch.taped", "total_s"),
    "model.rollout_batch.untaped_s": ("model.rollout_batch.untaped", "total_s"),
    "model.rk4_step.calls": ("model.rk4_step", "calls"),
    "model.checkpoint_io_s": ("model.checkpoint_io", "total_s"),
    "training.adam_step_s": ("training.adam_step", "total_s"),
    "training.batches": ("training.adam_step", "calls"),
    "analysis.evaluate_s": ("analysis.evaluate", "total_s"),
    "analysis.jacobi_eigh_s": ("analysis.jacobi_eigh", "total_s"),
    "analysis.pca_messages_s": ("analysis.pca_messages", "total_s"),
    "analysis.emit_plot_s": ("analysis.emit_plot", "total_s"),
    "dynamics.simulate_trajectory_s": ("dynamics.simulate_trajectory", "total_s"),
    "dynamics.simulate_trajectory.calls": ("dynamics.simulate_trajectory", "calls"),
    "datasets.generate_dataset_s": ("datasets.generate_dataset", "total_s"),
    "datasets.save_dataset_s": ("datasets.save_dataset", "total_s"),
    "datasets.load_dataset_s": ("datasets.load_dataset", "total_s"),
    "datasets.split_train_val_s": ("datasets.split_train_val", "total_s"),
}
PER_LAYER_UNITS = {
    **{name: ("count" if name.endswith((".calls", ".batches")) else "s")
       for name in LAYER_SPANS},
    "autodiff.dense.gflop": "GFLOP",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_retained_mb": "MB",
    "dynamics.simulate_trajectory.useful_ratio": "ratio",
    "trace.overhead_s": "s",
}
TWINNED = ("eval", "pca")   # run untraced as well in a --trace 1 round


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns exit code, wall seconds, peak RSS MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(_T0 + RUN_LIMIT_S - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def dense_calls_expected(cfg: dict, data_dir: Path) -> int:
    """`dense` calls of one `mpnode train`, from the config and the data shape:
    per rollout (T-1) steps x 4 RK4 stages x layers, one rollout per
    training batch and per validation."""
    manifest, _, _ = refcheck.read_dataset(data_dir)
    tr = cfg["train"]
    n_train = int(round(manifest["n_traj"] * float(cfg["dataset"].get("split_fraction", 0.7))))
    batches = -(-n_train // int(tr.get("batch_size", 128)))
    epochs = int(tr["epochs"])
    every = int(tr.get("eval_every", 1))
    validations = sum(1 for e in range(1, epochs + 1) if e % every == 0 or e == epochs)
    per_rollout = (manifest["T"] - 1) * 4 * (len(cfg["model"].get("hidden", (64, 64))) + 1)
    return (epochs * batches + validations) * per_rollout


def round_plan(trace: bool, repeats: dict) -> list[tuple[str, bool]]:
    """(command, traced) in execution order."""
    if trace:
        return [("generate", True), ("train", True)] + \
            [(c, t) for c in TWINNED for t in (False, True)]
    # after the first train, the repeats are spread evenly over the rest of the
    # round, so that the fastest of them is less likely to fall in one slow
    # spell of the host
    rest = {**repeats, "train": repeats["train"] - 1}
    spread = sorted(((i + 0.5) / n, c) for c, n in rest.items() for i in range(n))
    return [("generate", False), ("train", False)] + [(c, False) for _, c in spread]


def run_round(cfg: dict, cfg_path: Path, seed: int, out: Path, plan) -> dict:
    """Run the plan's commands in order, each followed by its output check.
    eval and pca read the first train's checkpoint."""
    out.mkdir(parents=True)
    dests = [out / f"{k}-{cmd}{'-traced' if traced else ''}"
             for k, (cmd, traced) in enumerate(plan)]
    data = dests[0]
    train = dests[[cmd for cmd, _ in plan].index("train")]
    ckpt = train / "checkpoint.ckpt"
    needs = {"generate": [], "train": [data / "manifest.json"],
             "eval": [data / "manifest.json", ckpt], "pca": [data / "manifest.json", ckpt]}
    result = {"ops": [], "failed": 0, "wrong": []}
    for (cmd, traced), dest in zip(plan, dests):
        if not all(path.exists() for path in needs[cmd]):
            result["failed"] += 1   # the output this command reads is missing
            continue
        args = {
            "generate": ["--config", str(cfg_path), "--seed", str(seed)],
            "train": ["--config", str(cfg_path), "--data", str(data), "--seed", str(seed)],
            "eval": ["--config", str(cfg_path), "--data", str(data), "--from", str(ckpt),
                     "--split", "val", "--seed", str(seed)],
            "pca": ["--data", str(data), "--from", str(ckpt)],
        }[cmd] + ["--out", str(dest)]
        summary = dest.with_name(dest.name + ".trace.json")
        prefix = [str(HERE / "tracer.py"), str(summary)] if traced else ["-m", "mpnode.cli"]
        code, wall, rss = run_child([sys.executable] + prefix + [cmd] + args,
                                    dest.with_name(dest.name + ".log"))
        if cmd == "generate":
            result["setup_end"] = time.perf_counter()
        if code != 0:
            log(f"  {cmd}: exit {code}; see {dest.name}.log")
            result["failed"] += 1
            continue
        op = {"cmd": cmd, "traced": traced, "wall": wall, "rss": rss}
        try:
            problems = {
                "generate": lambda: refcheck.check_dataset(cfg, data),
                "train": lambda: refcheck.check_train(cfg, data, dest),
                "eval": lambda: refcheck.check_eval(cfg, data, train, dest),
                "pca": lambda: refcheck.check_pca(data, train, dest),
            }[cmd]()
            if traced:
                op["summary"] = json.loads(summary.read_text())
                if cmd == "train":
                    got = op["summary"]["spans"]["autodiff.dense"]["calls"]
                    want = dense_calls_expected(cfg, data)
                    if got != want:
                        problems.append(f"traced dense calls {got}, config implies {want}")
        except Exception as err:  # a check that cannot read the output rejects it
            problems = [f"{type(err).__name__}: {err}"]
        if problems:
            log(f"  {cmd}: output check failed: " + "; ".join(problems))
            result["wrong"].extend(f"{cmd}: {p}" for p in problems)
            result["failed"] += 1
            continue
        result["ops"].append(op)
    return result


def end_to_end(rounds: list[dict], plan) -> dict:
    samples = {name: [] for name in END_TO_END}
    complete = [r for r in rounds if len(r["ops"]) == len(plan)]
    if rounds[0]["ops"] and rounds[0]["ops"][0]["cmd"] == "generate":
        samples["setup_s"].append(rounds[0]["setup_end"] - _T0)
    for r in complete:
        wall = {c: [op["wall"] for op in r["ops"] if op["cmd"] == c] for c in COMMANDS}
        rss = {c: [op["rss"] for op in r["ops"] if op["cmd"] == c] for c in COMMANDS}
        log("  walls (s): " + "; ".join(
            f"{c} " + " ".join(f"{w:.3f}" for w in ws) for c, ws in wall.items()))
        samples["train_epoch_s"].append(min(wall["train"]) / EPOCHS)
        samples["train_peak_rss_mb"].append(max(rss["train"]))
        samples["eval_s"].append(min(wall["eval"]))
        samples["pca_s"].append(min(wall["pca"]))
        samples["score_peak_rss_mb"].append(max(rss["eval"] + rss["pca"]))
    return samples


def per_layer(rounds: list[dict], plan) -> dict:
    samples = {name: [] for name in PER_LAYER_UNITS}
    for r in rounds:
        if len(r["ops"]) != len(plan):
            continue
        spans, counters = {}, {}
        for op in r["ops"]:
            if not op["traced"]:
                continue
            for name, row in op["summary"]["spans"].items():
                acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in acc:
                    acc[key] += row[key]
            for key, value in op["summary"]["counters"].items():
                merge = max if key.startswith("tape_") else (lambda a, b: a + b)
                counters[key] = merge(counters.get(key, 0.0), value)
        for metric, (span, field) in LAYER_SPANS.items():
            samples[metric].append(spans.get(span, {}).get(field, 0))
        samples["autodiff.dense.gflop"].append(counters.get("dense_flop", 0.0) / 1e9)
        samples["autodiff.tape_nodes"].append(counters.get("tape_nodes", 0))
        samples["autodiff.tape_retained_mb"].append(
            counters.get("tape_retained_bytes", 0) / 2**20)
        manifest = json.loads((r["dir"] / "0-generate-traced" / "manifest.json").read_text())
        attempts = spans["dynamics.simulate_trajectory"]["calls"]
        samples["dynamics.simulate_trajectory.useful_ratio"].append(manifest["n_traj"] / attempts)
        walls = {(op["cmd"], op["traced"]): op["wall"] for op in r["ops"]}
        overhead = {c: walls[c, True] - walls[c, False] for c in TWINNED}
        samples["trace.overhead_s"].append(sum(overhead.values()))
        log("  span                                  calls     total_s      self_s")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            log(f"  {name:36s} {row['calls']:7d} {row['total_s']:11.4f} {row['self_s']:11.4f}")
        log("  tracing overhead (s): " + ", ".join(f"{c} {v:+.3f}" for c, v in overhead.items()))
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src_cfg = ROOT / WORKLOADS[args.workload]
    if not (ROOT / "src" / "mpnode" / "cli.py").is_file() or not src_cfg.is_file():
        log(f"no mpnode sources or no {WORKLOADS[args.workload]} under {ROOT}: "
            "run from a source checkout")
        return 2
    cfg = json.loads(src_cfg.read_text())
    cfg["train"]["epochs"] = EPOCHS
    work = RUNS / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))

    plan = round_plan(bool(args.trace), REPEATS[args.workload])
    rounds = []
    while True:
        n = len(rounds)
        result = run_round(cfg, cfg_path, args.seed, work / f"round{n}", plan)
        result["dir"] = work / f"round{n}"
        rounds.append(result)
        elapsed = time.perf_counter() - _T0
        if elapsed >= args.seconds or elapsed * (n + 2) / (n + 1) > RUN_LIMIT_S:
            break

    if args.trace:
        samples, units = per_layer(rounds, plan), PER_LAYER_UNITS
    else:
        samples, units = end_to_end(rounds, plan), END_TO_END
    missing = [name for name, values in samples.items() if not values]
    if missing:
        log(f"no measurement for {', '.join(missing)}")
        return 1
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items()}
    for name, m in metrics.items():
        log(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not any(r["wrong"] for r in rounds),
                      "attempted": len(plan) * len(rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
