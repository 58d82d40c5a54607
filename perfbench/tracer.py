"""Run one `mpnode` command with spans recorded around the public functions of
its modules, then write a summary of the spans.

    python3 perfbench/tracer.py SUMMARY.json COMMAND [CLI ARGS...]

Each span has a name, a start, an end and the span that was open when it
began. The wrappers are installed from here, on the module attributes the
package calls through, so nothing under `src/` changes. Spans stay in memory
and are written when the command ends: the summary holds, per span name, the
call count, the inclusive time and the self time (inclusive minus the time
covered by child spans), plus counters computed from array shapes. The raw
spans go to SUMMARY.npz beside it.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from mpnode import analysis, autodiff, cli, datasets, model, training


class Recorder:
    """Spans in parallel lists; parents follow a per-thread stack."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def high_water(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def summary(self) -> dict:
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        spans = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            spans[label] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                            "self_s": float((dur[sel] - covered[sel]).sum())}
        return {"spans": spans, "counters": self.counters}

    def save_spans(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def _timed(rec: Recorder, name, fn):
    """Wrap fn in a span; `name` is a string or a function of the call's arguments."""
    def wrapper(*args, **kwargs):
        idx = rec.begin(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(idx)
    wrapper.inner = fn
    return wrapper


def _retained_bytes(nodes) -> int:
    """Bytes of the distinct buffers a tape keeps alive: node outputs, their
    inputs, and the arrays captured by their backward closures."""
    seen: dict[int, int] = {}

    def add(arr):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        seen[id(arr)] = arr.nbytes

    for node in nodes:
        add(node.data)
        for parent in node._parents:
            add(parent.data)
        fn = getattr(node._backward, "inner", node._backward)
        for cell in getattr(fn, "__closure__", None) or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                add(value)
    return sum(seen.values())


def install(rec: Recorder) -> None:
    """Replace the package functions the CLI reaches with span-recording wrappers."""
    dense, neighbor_mean = autodiff.dense, autodiff.neighbor_mean
    backward = autodiff.Tape.backward

    def traced_dense(x, w, b, activation=None, stable=False):
        # one matmul forward, two in the backward: 2 flops per multiply-add
        flop = 2.0 * x.shape[0] * w.shape[1] * w.shape[0]
        label = "autodiff.dense_stable" if stable else "autodiff.dense"
        idx = rec.begin(label)
        try:
            out = dense(x, w, b, activation=activation, stable=stable)
        finally:
            rec.finish(idx)
        if stable:
            return out
        rec.count("dense_flop", flop)
        if out._backward is not None:
            inner = out._backward

            def timed_backward(g):
                rec.count("dense_flop", 2.0 * flop)
                bidx = rec.begin("autodiff.dense.bwd")
                try:
                    inner(g)
                finally:
                    rec.finish(bidx)
            timed_backward.inner = inner
            out._backward = timed_backward
        return out

    timed_neighbor_mean = _timed(rec, "autodiff.neighbor_mean", neighbor_mean)

    def traced_neighbor_mean(mask, x, stable=False):
        out = timed_neighbor_mean(mask, x, stable=stable)
        if out._backward is not None:
            out._backward = _timed(rec, "autodiff.neighbor_mean.bwd", out._backward)
        return out

    timed_backward_sweep = _timed(rec, "autodiff.backward", backward)

    def traced_backward(tape, loss, *args, **kwargs):
        rec.high_water("tape_nodes", len(tape._nodes))
        rec.high_water("tape_retained_bytes", _retained_bytes(tape._nodes))
        return timed_backward_sweep(tape, loss, *args, **kwargs)

    autodiff.dense = traced_dense
    autodiff.neighbor_mean = traced_neighbor_mean
    autodiff.Tape.backward = traced_backward

    def rollout_label(*_args, **_kwargs):
        taped = bool(autodiff._tape_stack())
        return "model.rollout_batch.taped" if taped else "model.rollout_batch.untaped"

    traced_rollout = _timed(rec, rollout_label, model.rollout_batch)
    model.rollout_batch = training.rollout_batch = traced_rollout
    model.rk4_step = _timed(rec, "model.rk4_step", model.rk4_step)
    model.save_checkpoint = _timed(rec, "model.checkpoint_io", model.save_checkpoint)
    model.load_checkpoint = _timed(rec, "model.checkpoint_io", model.load_checkpoint)
    training.adam_step = _timed(rec, "training.adam_step", training.adam_step)
    for fn in ("evaluate", "jacobi_eigh", "pca_messages", "emit_plot"):
        setattr(analysis, fn, _timed(rec, f"analysis.{fn}", getattr(analysis, fn)))
    datasets.simulate_trajectory = _timed(rec, "dynamics.simulate_trajectory",
                                          datasets.simulate_trajectory)
    for fn in ("generate_dataset", "save_dataset", "load_dataset", "split_train_val"):
        setattr(datasets, fn, _timed(rec, f"datasets.{fn}", getattr(datasets, fn)))


def main(argv: list[str]) -> int:
    summary_path, cli_args = Path(argv[0]), argv[1:]
    rec = Recorder()
    install(rec)
    code = _timed(rec, f"cli.{cli_args[0]}", cli.main)(cli_args)
    result = rec.summary()
    result.update({"command": cli_args[0], "exit": code})
    summary_path.write_text(json.dumps(result, indent=1))
    rec.save_spans(summary_path.with_suffix(".npz"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
