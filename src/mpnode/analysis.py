"""Evaluation metrics, message PCA, the epochs-times-minimum-error summary
metric, and SVG/CSV figure emission.

Test error is reported on de-normalized (physical) states so numbers are
comparable across normalization choices; the normalized-space error is
reported alongside. The +- spread is the standard deviation across
trajectories, and is labeled as such in report.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import (TrajectorySet, dataset_hash, write_atomic, zscore_apply,
                       zscore_invert)
from .errors import CompatibilityError, DivergenceError, ShapeError
from .model import Checkpoint, MpNodeModel, checkpoint_hash, rollout_group
from .training import RunRecord


@dataclass
class EvalReport:
    per_traj: list[float]                 # physical-space MSE per trajectory
    per_traj_normalized: list[float]
    mean: float
    std: float
    mean_normalized: float
    std_normalized: float
    diverged: int
    fingerprint: dict

    def to_json(self, path) -> None:
        payload = {
            "mean": self.mean, "std": self.std,
            "mean_normalized": self.mean_normalized,
            "std_normalized": self.std_normalized,
            "per_trajectory": self.per_traj,
            "per_trajectory_normalized": self.per_traj_normalized,
            "diverged": self.diverged,
            "fingerprint": self.fingerprint,
            "std_convention": "across trajectories",
        }
        write_atomic(path, json.dumps(payload, indent=1, allow_nan=False))


def _spread(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


def evaluate(ckpt: Checkpoint, test_set: TrajectorySet,
             clamp_messages: bool = False) -> EvalReport:
    """Roll out every test trajectory from its initial state and score it.

    The test set is re-normalized with the checkpoint's training statistics
    (zero-shot sets arrive with other stats or none). Trajectories sharing an
    adjacency matrix roll out as one batch on the stable kernels, which is
    bit-identical to rolling each out alone. Trajectories whose rollout
    diverges are excluded from the aggregates and counted: a group that
    diverges is rolled out again one trajectory at a time. Scores that
    overflow to a non-finite mean or spread raise DivergenceError.
    """
    model = ckpt.model
    if model.state_dim != test_set.d or model.control_dim != test_set.c:
        raise CompatibilityError(
            f"checkpoint (d={model.state_dim}, c={model.control_dim}) does not "
            f"match dataset (d={test_set.d}, c={test_set.c})")
    if ckpt.norm is None:
        raise CompatibilityError("checkpoint carries no normalization stats")
    raw = zscore_invert(test_set, test_set.norm) if test_set.norm is not None else test_set
    ts = zscore_apply(raw, ckpt.norm)
    std = ckpt.norm.std
    scores: list[tuple[float, float] | None] = [None] * ts.n_traj

    def score(gi: int, rows) -> None:
        preds, _ = rollout_group(model, ts, gi, rows, ts.T, clamp_messages, stable=True)
        for j, i in enumerate(rows):
            resid = preds.data[:, j] - ts.data[i]
            resid_phys = resid * std
            scores[i] = (float(np.mean(resid_phys * resid_phys)),
                         float(np.mean(resid * resid)))

    for gi, rows in ts.adjacency_groups():
        try:
            score(gi, rows)
        except DivergenceError:
            # one diverging trajectory fails its whole batch
            for i in rows:
                try:
                    score(gi, [i])
                except DivergenceError:
                    pass
    kept = [s for s in scores if s is not None]
    per, per_norm = [s[0] for s in kept], [s[1] for s in kept]
    arr, arr_n = np.asarray(per), np.asarray(per_norm)
    mean = float(arr.mean()) if arr.size else float("nan")
    mean_n = float(arr_n.mean()) if arr_n.size else float("nan")
    spreads = _spread(arr), _spread(arr_n)
    if kept and not np.isfinite([mean, mean_n, *spreads]).all():
        # finite rollouts whose squared residuals overflow
        raise DivergenceError(f"test error over {len(kept)} finite rollouts is not finite "
                              f"(mean {mean:.6g}, std {spreads[0]:.6g}); no report written")
    return EvalReport(
        per_traj=per, per_traj_normalized=per_norm,
        mean=mean, std=spreads[0], mean_normalized=mean_n, std_normalized=spreads[1],
        diverged=ts.n_traj - len(kept),
        fingerprint={"dataset": dataset_hash(test_set),
                     "checkpoint": checkpoint_hash(ckpt),
                     "clamp_messages": bool(clamp_messages)})


def message_log(model: MpNodeModel, ts: TrajectorySet) -> np.ndarray:
    """Outgoing messages of every trajectory rolled out from its first state,
    [traj, T, n, p], one stable batched rollout per adjacency group."""
    log = np.empty((ts.n_traj, ts.T, ts.n_nodes, model.message_dim))
    for gi, rows in ts.adjacency_groups():
        _, msgs = rollout_group(model, ts, gi, rows, ts.T, stable=True,
                                record_messages=True)
        log[rows] = msgs.data.transpose(1, 0, 2, 3)
    return log


def epochs_times_min_error(record: RunRecord) -> float:
    """Epoch index of the minimum test error times that minimum (ties: earliest)."""
    entries = record.test_errors()
    if not entries:
        raise ValueError("record holds no test errors")
    best_epoch, best_err = min(entries, key=lambda entry: entry[1])
    return best_epoch * best_err


def message_norms(message_log: np.ndarray) -> np.ndarray:
    """Euclidean norm of each node's outgoing message, [traj, T, n]."""
    log = np.asarray(message_log)
    if log.ndim != 4 or log.shape[3] < 1:
        raise ShapeError("message log must be [traj, T, n, p>=1]")
    return np.sqrt((log * log).sum(axis=3))


# ---------------------------------------------------------------------------
# PCA via cyclic Jacobi
# ---------------------------------------------------------------------------


def jacobi_eigh(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100
                ) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted. Small and
    robust; intended for the few-hundred-dimensional covariances here.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"need a square matrix, got {a.shape}")
    n = a.shape[0]
    A = a.copy()
    V = np.eye(n)
    if n == 1:
        return np.diagonal(A).copy(), V
    norm = np.sqrt((a * a).sum())
    if norm == 0.0:
        return np.zeros(n), V
    for _ in range(max_sweeps):
        # summed over the off-diagonal entries themselves: the difference of
        # the total and the diagonal mass cancels to noise near convergence
        off = np.sqrt(2.0 * (np.triu(A, 1) ** 2).sum())
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                diff = A[q, q] - A[p, p]
                # an off-diagonal entry this far below the diagonal gap is
                # already annihilated at f64 resolution
                if apq == 0.0 or abs(apq) <= 1e-18 * abs(diff):
                    continue
                theta = diff / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[p].copy(), A[q].copy()
                A[p] = c * rp - s * rq
                A[q] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    return np.diagonal(A).copy(), V


@dataclass
class PcaResult:
    components: np.ndarray            # [dim, k], orthonormal columns
    explained_variance: np.ndarray    # fractions of total variance, descending
    projections: np.ndarray           # [traj, T, k]
    eigenvalues: np.ndarray           # top-k raw eigenvalues


def pca_messages(message_log: np.ndarray, k: int) -> PcaResult:
    """PCA of message trajectories.

    Each (trajectory, time) sample is the concatenation of all node messages
    (length n*p). The covariance of the mean-centered samples is
    eigendecomposed with cyclic Jacobi; projections come back per trajectory
    over time.
    """
    log = np.asarray(message_log, dtype=np.float64)
    if log.ndim != 4:
        raise ShapeError("message log must be [traj, T, n, p]")
    n_traj, T, n, p = log.shape
    if p < 1:
        raise ShapeError("PCA needs message dimension p >= 1")
    dim = n * p
    if not (1 <= k <= dim):
        raise ShapeError(f"k={k} out of range for sample dimension {dim}")
    X = log.reshape(n_traj * T, dim)
    Xc = X - X.mean(axis=0)
    denom = max(X.shape[0] - 1, 1)
    cov = (Xc.T @ Xc) / denom
    eigvals, eigvecs = jacobi_eigh(cov)
    order = np.argsort(-eigvals)
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    total = eigvals.clip(min=0.0).sum()
    fractions = (eigvals[:k].clip(min=0.0) / total) if total > 0 else np.zeros(k)
    comps = eigvecs[:, :k]
    proj = (Xc @ comps).reshape(n_traj, T, k)
    return PcaResult(components=comps, explained_variance=fractions,
                     projections=proj, eigenvalues=eigvals[:k].copy())


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_plot(series: list[tuple[str, list, list]], path) -> None:
    """Write a standalone SVG line plot and a sibling CSV with the numbers.

    `series` is a list of (name, t_values, values). The CSV holds one
    `series,t,value` row per point at full precision, so re-parsing it
    recovers the plotted numbers exactly.
    """
    if not series:
        raise ValueError("emit_plot needs at least one series")
    for name, ts, vs in series:
        if len(ts) != len(vs) or len(ts) == 0:
            raise ValueError(f"series {name!r} must pair equal, nonempty t/value lists")
    path = Path(path)
    width, height = 640, 420
    ml, mr, mt, mb = 60, 150, 20, 45
    all_t = [float(t) for _, ts, _ in series for t in ts]
    all_v = [float(v) for _, _, vs in series for v in vs]
    t_lo, t_hi = min(all_t), max(all_t)
    v_lo, v_hi = min(all_v), max(all_v)
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if v_hi == v_lo:
        v_hi = v_lo + 1.0

    def sx(t):
        return ml + (t - t_lo) / (t_hi - t_lo) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - v_lo) / (v_hi - v_lo) * (height - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
             'stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>']
    for tv in _ticks(t_lo, t_hi):
        x = sx(tv)
        parts.append(f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" '
                     f'y2="{height - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - mb + 18}" font-size="11" '
                     f'text-anchor="middle">{tv:.4g}</text>')
    for vv in _ticks(v_lo, v_hi):
        y = sy(vv)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{vv:.4g}</text>')
    for i, (name, ts, vs) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(float(t)):.2f},{sy(float(v)):.2f}" for t, v in zip(ts, vs))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = mt + 16 * (i + 1)
        parts.append(f'<line x1="{width - mr + 10}" y1="{ly - 4}" '
                     f'x2="{width - mr + 30}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{width - mr + 35}" y="{ly}" font-size="11">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))
    csv_lines = ["series,t,value"]
    for name, ts, vs in series:
        for t, v in zip(ts, vs):
            csv_lines.append(f"{name},{float(t)!r},{float(v)!r}")
    path.with_suffix(".csv").write_text("\n".join(csv_lines) + "\n")
