"""Losses, Adam, and the rollout training loop (plus finetuning).

Gradients are discretize-then-optimize: the loss backpropagates through the
unrolled RK4 steps recorded on the tape, so they are exact gradients of the
trajectory actually computed. Losses compare predicted and observed states
only; logged messages never enter a loss.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .datasets import TrajectorySet, dataset_hash, write_atomic
from .errors import CompatibilityError, DivergenceError, ShapeError
from .model import Checkpoint, MpNodeModel, checkpoint_hash, rollout_group
from .rng import Rng, derive

LOSS_KINDS = ("mse", "huber_time")


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 100
    loss: str = "mse"
    huber_delta: float = 1.0
    rollout_horizon: int | None = None  # timesteps; None rolls the full trajectory
    clamp_messages: bool = False
    seed: int = 0
    eval_every: int = 1
    clip_norm: float | None = None

    def __post_init__(self):
        # lr = 0 is allowed: it makes every update an exact no-op, which is
        # the documented way to run the loop without changing parameters
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.huber_delta <= 0:
            raise ValueError("huber delta must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean of squared differences over all elements."""
    t = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != t.shape:
        raise ShapeError(f"loss shapes disagree: {pred.shape} vs {t.shape}")
    return ad.mean_all(ad.square(ad.sub(pred, t)))


def huber_time_loss(pred: Tensor, target, delta: float = 1.0) -> Tensor:
    """Huber on each timestep residual, averaged over time then the rest.

    With rectangular data that is the grand mean of the elementwise Huber
    values, which is how it is computed here.
    """
    t = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != t.shape:
        raise ShapeError(f"loss shapes disagree: {pred.shape} vs {t.shape}")
    return ad.mean_all(ad.huber(ad.sub(pred, t), delta))


def loss_fn_for(cfg: TrainConfig):
    if cfg.loss == "mse":
        return mse_loss
    return lambda pred, target: huber_time_loss(pred, target, cfg.huber_delta)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: list[Tensor]) -> AdamState:
    return AdamState(m=[np.zeros(p.shape) for p in params],
                     v=[np.zeros(p.shape) for p in params])


def adam_step(params: list[Tensor], grads: list[np.ndarray], st: AdamState,
              lr: float) -> None:
    """Standard bias-corrected Adam update, in place."""
    if len(params) != len(grads):
        raise ShapeError("one gradient per parameter tensor required")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match {p.shape}")
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient")
    st.t += 1
    bc1 = 1.0 - st.beta1 ** st.t
    bc2 = 1.0 - st.beta2 ** st.t
    for p, g, m, v in zip(params, grads, st.m, st.v):
        m *= st.beta1
        m += (1.0 - st.beta1) * g
        v *= st.beta2
        v += (1.0 - st.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + st.eps)


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None
    test_error: float | None
    wall_seconds: float


@dataclass
class RunRecord:
    rows: list[EpochStats] = field(default_factory=list)

    def append(self, **kw) -> None:
        self.rows.append(EpochStats(**kw))

    def final_train_loss(self) -> float:
        return self.rows[-1].train_loss

    def test_errors(self) -> list[tuple[int, float]]:
        return [(r.epoch, r.test_error) for r in self.rows if r.test_error is not None]

    def best_test_error(self) -> float:
        errs = [e for _, e in self.test_errors()]
        if not errs:
            raise ValueError("record holds no test errors")
        return min(errs)

    def to_csv(self, path) -> None:
        lines = ["epoch,train_loss,val_loss,test_error,wall_seconds"]
        for r in self.rows:
            cells = [str(r.epoch), repr(r.train_loss),
                     "" if r.val_loss is None else repr(r.val_loss),
                     "" if r.test_error is None else repr(r.test_error),
                     repr(r.wall_seconds)]
            lines.append(",".join(cells))
        write_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "RunRecord":
        lines = Path(path).read_text().strip().split("\n")
        header = "epoch,train_loss,val_loss,test_error,wall_seconds"
        if lines[0] != header:
            raise CompatibilityError(f"unexpected metrics header {lines[0]!r}")
        rec = cls()
        for line in lines[1:]:
            e, tr, vl, te, ws = line.split(",")
            rec.append(epoch=int(e), train_loss=float(tr),
                       val_loss=float(vl) if vl else None,
                       test_error=float(te) if te else None,
                       wall_seconds=float(ws))
        return rec


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _check_model_data(model: MpNodeModel, ts: TrajectorySet) -> None:
    if model.state_dim != ts.d or model.control_dim != ts.c:
        raise CompatibilityError(
            f"model (d={model.state_dim}, c={model.control_dim}) does not match "
            f"dataset (d={ts.d}, c={ts.c})")
    if ts.norm is None:
        raise CompatibilityError("training data must be normalized")


def _batch_loss(model: MpNodeModel, ts: TrajectorySet, indices: list[int],
                cfg: TrainConfig, T_roll: int, loss_fn) -> Tensor:
    total = None
    for gi, rows in ts.adjacency_groups(indices):
        target = ts.data[rows, :T_roll].transpose(1, 0, 2, 3)
        pred, _ = rollout_group(model, ts, gi, rows, T_roll, cfg.clamp_messages)
        part = ad.scale(loss_fn(pred, target), len(rows) / len(indices))
        total = part if total is None else ad.add(total, part)
    return total


def _eval_metrics(model: MpNodeModel, ts: TrajectorySet, cfg: TrainConfig,
                  T_roll: int, loss_fn) -> tuple[float, float]:
    """Validation loss (normalized space) and test error (de-normalized MSE,
    mean over per-trajectory MSEs), via untaped batched rollouts."""
    loss_acc = 0.0
    per_traj = np.empty(ts.n_traj)
    std = ts.norm.std
    for gi, rows in ts.adjacency_groups():
        target = ts.data[rows, :T_roll].transpose(1, 0, 2, 3)
        pred, _ = rollout_group(model, ts, gi, rows, T_roll, cfg.clamp_messages)
        loss_acc += loss_fn(pred, target).item() * (len(rows) / ts.n_traj)
        diff = (pred.data - target) * std  # means cancel in the residual
        per_traj[rows] = np.mean(diff * diff, axis=(0, 2, 3))
    return loss_acc, float(per_traj.mean())


def _snapshot(model: MpNodeModel) -> list[np.ndarray]:
    return [p.data.copy() for p in model.parameters()]


def _fit(model: MpNodeModel, train_set: TrajectorySet, val_set: TrajectorySet,
         cfg: TrainConfig, provenance: dict) -> tuple[Checkpoint, RunRecord]:
    _check_model_data(model, train_set)
    _check_model_data(model, val_set)
    horizon = cfg.rollout_horizon if cfg.rollout_horizon is not None else train_set.T - 1
    if not (1 <= horizon <= train_set.T - 1):
        raise ValueError(f"rollout horizon {horizon} not in [1, {train_set.T - 1}]")
    T_roll = horizon + 1
    loss_fn = loss_fn_for(cfg)
    params = model.parameters()
    adam = init_adam(params)
    shuffle_rng = Rng(derive(cfg.seed, 50))
    record = RunRecord()
    best: tuple[float | None, int, list[np.ndarray], float | None] | None = None
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(train_set.n_traj)
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            chunk = order[lo:lo + cfg.batch_size]
            try:
                with Tape() as tape:
                    loss = _batch_loss(model, train_set, chunk, cfg, T_roll, loss_fn)
                grads = tape.backward(loss, params=params)
                glist = [grads[p] for p in params]
                if cfg.clip_norm is not None:
                    gnorm = float(np.sqrt(sum(float((g * g).sum()) for g in glist)))
                    if gnorm > cfg.clip_norm:
                        glist = [g * (cfg.clip_norm / gnorm) for g in glist]
                adam_step(params, glist, adam, cfg.learning_rate)
            except DivergenceError as err:
                halt = DivergenceError(f"epoch {epoch}, batch starting at {lo}: {err}")
                halt.run_record = record
                raise halt from err
            epoch_loss += loss.item() * len(chunk)
        train_loss = epoch_loss / train_set.n_traj
        val_loss = test_error = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            try:
                val_loss, test_error = _eval_metrics(model, val_set, cfg, T_roll, loss_fn)
            except DivergenceError as err:
                print(f"epoch {epoch}: validation diverged: {err}", file=sys.stderr)
                val_loss = test_error = None
            if val_loss is not None and (best is None or val_loss < best[0]):
                best = (val_loss, epoch, _snapshot(model), train_loss)
        record.append(epoch=epoch, train_loss=train_loss, val_loss=val_loss,
                      test_error=test_error, wall_seconds=time.perf_counter() - t0)
    if best is None:
        if cfg.epochs >= 1:
            halt = DivergenceError(f"no epoch validated: validation diverged at every "
                                   f"evaluation of {cfg.epochs} epochs")
            halt.run_record = record
            raise halt
        best = (None, 0, _snapshot(model), None)  # JSON null: no epoch ran
    best_model = model.copy()
    for p, data in zip(best_model.parameters(), best[2]):
        p.data = data
    prov = dict(provenance)
    prov.update({"dataset": dataset_hash(train_set), "epoch": best[1],
                 "val_loss": best[0], "train_loss": best[3]})
    ckpt = Checkpoint(model=best_model, norm=train_set.norm, provenance=prov)
    return ckpt, record


def train(model: MpNodeModel, train_set: TrajectorySet, val_set: TrajectorySet,
          cfg: TrainConfig, provenance: dict | None = None
          ) -> tuple[Checkpoint, RunRecord]:
    """Optimize the shared MLP on rollout losses; retains the best-validation
    parameters in the returned checkpoint."""
    return _fit(model, train_set, val_set, cfg, dict(provenance or {}))


def finetune(ckpt: Checkpoint, train_set: TrajectorySet, val_set: TrajectorySet,
             cfg: TrainConfig, provenance: dict | None = None
             ) -> tuple[Checkpoint, RunRecord]:
    """Continue training from a checkpoint on a new dataset.

    Node count and topology may differ freely from the source dataset; the
    state/control widths must match. Normalization comes from the new
    training split, with the source stats kept in the provenance.
    """
    model = ckpt.model.copy()
    if model.state_dim != train_set.d or model.control_dim != train_set.c:
        raise CompatibilityError(
            f"checkpoint (d={model.state_dim}, c={model.control_dim}) cannot "
            f"finetune on dataset (d={train_set.d}, c={train_set.c})")
    prov = dict(provenance or {})
    prov["source_checkpoint"] = checkpoint_hash(ckpt)
    if ckpt.norm is not None:
        prov["source_norm"] = {"mean": list(ckpt.norm.mean), "std": list(ckpt.norm.std)}
    return _fit(model, train_set, val_set, cfg, prov)
