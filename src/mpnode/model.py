"""The message-passing neural ODE: one shared per-node MLP over an augmented
state [x_k; m_k], mean aggregation of neighbor messages at every observation
boundary, and RK4 integration of the augmented state in between.

A rollout keeps the full system as a [B*n, d+p] block (batch-major rows) so
one fused MLP evaluation advances every node of every trajectory at once.
Aggregated messages are frozen during the four RK4 stages of a step; the
freshly integrated message component becomes the node's next outgoing
message. `rollout_batch` favours throughput by default and is then
equivariant up to roundoff. With `stable=True` it computes each row's bits
independently of the rest of the block, so a batch equals its
per-trajectory `rollout`s bit for bit. `rollout` (single trajectory) always
runs on the stable kernels and is bit-exactly equivariant under node
relabeling. `rollout_group` rolls out the trajectories of a dataset that
share one adjacency matrix: training batches and validation on the fast
kernels, `eval` and `pca` on the stable ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datasets import NormStats, TrajectorySet, check_fields, read_norm, write_atomic
from .dynamics import rk4_step
from .errors import CompatibilityError, DivergenceError, ShapeError
from .graphs import GraphSpec
from .rng import Rng, derive

CHECKPOINT_VERSION = 1


@dataclass
class MpNodeModel:
    state_dim: int
    message_dim: int
    control_dim: int
    hidden: tuple[int, ...]
    activation: str
    weights: list[Tensor] = field(default_factory=list)
    biases: list[Tensor] = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.state_dim + self.message_dim + self.control_dim

    @property
    def output_dim(self) -> int:
        return self.state_dim + self.message_dim

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "MpNodeModel":
        return MpNodeModel(
            self.state_dim, self.message_dim, self.control_dim, self.hidden,
            self.activation,
            [Tensor(w.data.copy(), requires_grad=True) for w in self.weights],
            [Tensor(b.data.copy(), requires_grad=True) for b in self.biases])


def init_model(state_dim: int, message_dim: int, control_dim: int = 0,
               hidden: tuple[int, ...] = (64, 64), activation: str = "tanh",
               seed: int = 0) -> MpNodeModel:
    """Shared per-node MLP, Glorot-uniform weights and zero biases."""
    if state_dim < 1 or message_dim < 0 or control_dim < 0:
        raise ValueError("bad model dimensions")
    if activation not in ("tanh", "relu"):
        raise ValueError(f"unknown activation {activation!r}")
    model = MpNodeModel(state_dim, message_dim, control_dim, tuple(hidden), activation)
    rng = Rng(derive(seed, 40))
    widths = [model.input_dim, *hidden, model.output_dim]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniforms((fan_out, fan_in), -bound, bound)
        model.weights.append(Tensor(w, requires_grad=True))
        model.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return model


def mlp_forward(model: MpNodeModel, z: Tensor, stable: bool = False) -> Tensor:
    """Apply the shared MLP to a row batch [N, d+p+c]; returns [N, d+p]."""
    if z.shape[-1] != model.input_dim:
        raise ShapeError(f"MLP input width {z.shape[-1]}, expected {model.input_dim}")
    h = z
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        act = None if i == last else model.activation
        h = ad.dense(h, w, b, activation=act, stable=stable)
    return h


def _system_rhs(model: MpNodeModel, stable: bool):
    def f(aug: Tensor, u: Tensor | None) -> Tensor:
        z = aug if u is None else ad.concat_cols([aug, u])
        return mlp_forward(model, z, stable=stable)
    return f


def _advance(model: MpNodeModel, mask: np.ndarray, aug: Tensor,
             u: Tensor | None, dt: float, stable: bool) -> Tensor:
    """One observation step on the [B*n, d+p] block: aggregate, integrate."""
    d, p = model.state_dim, model.message_dim
    if p > 0:
        m_in = ad.neighbor_mean(mask, ad.col_slice(aug, d, d + p), stable=stable)
        start = ad.concat_cols([ad.col_slice(aug, 0, d), m_in])
    else:
        start = aug

    def check(value: Tensor, context: str) -> None:
        if not np.isfinite(value.data).all():
            rows = np.nonzero(~np.isfinite(value.data).all(axis=1))[0]
            nodes = sorted({int(r) % mask.shape[0] for r in rows})
            raise DivergenceError(f"non-finite {context} at nodes {nodes}")

    return rk4_step(_system_rhs(model, stable), start, u, dt, check)


def rollout_batch(model: MpNodeModel, g: GraphSpec, x0, T: int, dt: float,
                  controls: np.ndarray | None = None, clamp_messages: bool = False,
                  stable: bool = False, record_messages: bool = True
                  ) -> tuple[Tensor, Tensor | None]:
    """Roll B trajectories forward jointly; returns states [T, B, n, d] and,
    when recording, outgoing messages [T, B, n, p].

    Initial messages are zero. With `clamp_messages`, outgoing messages are
    replaced by zeros after every step, severing all information flow
    between nodes.
    """
    if T < 1:
        raise ValueError("rollout needs T >= 1")
    d, p, c = model.state_dim, model.message_dim, model.control_dim
    xt = x0 if isinstance(x0, Tensor) else Tensor(x0)
    if xt.data.ndim != 3 or xt.shape[1] != g.n or xt.shape[2] != d:
        raise ShapeError(f"x0 shape {xt.shape} does not match [B, {g.n}, {d}]")
    B = xt.shape[0]
    rows = B * g.n
    if c > 0 and (controls is None or controls.shape != (B, T, g.n, c)):
        raise ShapeError(f"controls must be [B, T, n, {c}]")
    mask = g.neighbor_mask()
    zeros_msg = Tensor(np.zeros((rows, p)))
    aug = ad.reshape(xt, (rows, d))
    if p > 0:
        aug = ad.concat_cols([aug, zeros_msg])
    states = [ad.col_slice(aug, 0, d)]
    messages = [zeros_msg] if record_messages else None
    for step in range(1, T):
        u = None
        if c > 0:
            u = Tensor(controls[:, step - 1].reshape(rows, c))
        try:
            aug = _advance(model, mask, aug, u, dt, stable)
        except DivergenceError as err:
            raise DivergenceError(f"rollout step {step}: {err}") from err
        if clamp_messages and p > 0:
            aug = ad.concat_cols([ad.col_slice(aug, 0, d), zeros_msg])
        states.append(ad.col_slice(aug, 0, d))
        if record_messages:
            messages.append(ad.col_slice(aug, d, d + p) if p > 0 else zeros_msg)
    states_t = ad.reshape(ad.stack(states), (T, B, g.n, d))
    msg_t = None
    if record_messages:
        msg_t = ad.reshape(ad.stack(messages), (T, B, g.n, p))
    return states_t, msg_t


def rollout_group(model: MpNodeModel, ts: TrajectorySet, gi: int, rows, T: int,
                  clamp_messages: bool = False, stable: bool = False,
                  record_messages: bool = False) -> tuple[Tensor, Tensor | None]:
    """`rollout_batch` of trajectories `rows` of `ts`, which share the
    adjacency `ts.graphs[gi]` (see `TrajectorySet.adjacency_groups`), for T
    steps from their first states under their controls. `rollout_batch` is
    called through this module's global, so a wrapper installed on the
    module sees every group rollout."""
    return rollout_batch(model, ts.graphs[gi], ts.data[rows, 0], T, ts.dt,
                         controls=ts.controls[rows, :T] if ts.c > 0 else None,
                         clamp_messages=clamp_messages, stable=stable,
                         record_messages=record_messages)


def rollout(model: MpNodeModel, g: GraphSpec, x0, T: int, dt: float,
            controls: np.ndarray | None = None, clamp_messages: bool = False
            ) -> tuple[Tensor, Tensor]:
    """Single-trajectory rollout; returns states [T, n, d] and messages [T, n, p].

    Runs on the stable kernels, making the result bit-exactly equivariant
    under node permutation.
    """
    xt = x0 if isinstance(x0, Tensor) else Tensor(x0)
    if xt.data.ndim != 2:
        raise ShapeError(f"x0 must be [n, d], got {xt.shape}")
    batched = ad.reshape(xt, (1, *xt.shape))
    ctl = None if controls is None else controls[None]
    states, messages = rollout_batch(model, g, batched, T, dt, controls=ctl,
                                     clamp_messages=clamp_messages, stable=True,
                                     record_messages=True)
    d, p = model.state_dim, model.message_dim
    return (ad.reshape(states, (T, g.n, d)), ad.reshape(messages, (T, g.n, p)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    model: MpNodeModel
    norm: NormStats | None
    provenance: dict
    format_version: int = CHECKPOINT_VERSION


def _checkpoint_header(ckpt: Checkpoint) -> dict:
    m = ckpt.model
    return {
        "format_version": ckpt.format_version,
        "d": m.state_dim, "p": m.message_dim, "c": m.control_dim,
        "hidden": list(m.hidden), "activation": m.activation,
        "norm": None if ckpt.norm is None else ckpt.norm.to_dict(),
        "provenance": ckpt.provenance,
        "param_shapes": [list(t.shape) for t in m.parameters()],
    }


def checkpoint_hash(ckpt: Checkpoint) -> str:
    h = hashlib.sha256(json.dumps(_checkpoint_header(ckpt), sort_keys=True).encode())
    for t in ckpt.model.parameters():
        h.update(t.data.astype("<f8").tobytes("C"))
    return h.hexdigest()


def save_checkpoint(model: MpNodeModel, norm: NormStats | None, provenance: dict,
                    path) -> Checkpoint:
    """Write a checkpoint file: one JSON header line, then raw float64 blocks
    in declared layer order (W1, b1, W2, b2, ...)."""
    ckpt = Checkpoint(model=model, norm=norm, provenance=dict(provenance))
    header = json.dumps(_checkpoint_header(ckpt), allow_nan=False)
    if "\n" in header:
        raise ValueError("checkpoint header must be a single line")
    blocks = [t.data.astype("<f8").tobytes("C") for t in model.parameters()]
    write_atomic(path, header.encode() + b"\n" + b"".join(blocks))
    return ckpt


_HEADER_FIELDS = {"d": int, "p": int, "c": int, "hidden": list, "activation": str,
                  "norm": (dict, type(None)), "provenance": dict, "param_shapes": list}


def _read_checkpoint(path) -> tuple[dict, np.ndarray]:
    """Split a checkpoint file into its checked header and its float64
    parameter values; any malformed part raises CompatibilityError naming
    the file and the field."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        what = "is empty" if not raw else "has no newline ending its header line"
        raise CompatibilityError(f"checkpoint {path} {what}")
    try:
        header = json.loads(raw[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CompatibilityError(f"checkpoint {path}: header is not valid JSON: {err}")
    where = f"checkpoint {path}: header"
    check_fields(header, {"format_version": int}, where)
    if header["format_version"] != CHECKPOINT_VERSION:
        raise CompatibilityError(f"checkpoint {path}: unsupported format version "
                                 f"{header['format_version']}")
    check_fields(header, _HEADER_FIELDS, where)
    shapes = header["param_shapes"]
    if len(shapes) % 2 or not all(
            isinstance(s, list) and all(isinstance(v, int) and v >= 0 for v in s)
            for s in shapes):
        raise CompatibilityError(f"checkpoint {path}: header field 'param_shapes' "
                                 "is not a list of (weight, bias) shapes")
    body = len(raw) - nl - 1
    expect = sum(int(np.prod(s)) for s in shapes)
    if body != 8 * expect:
        raise CompatibilityError(f"checkpoint {path}: parameter blocks hold {body} bytes, "
                                 f"expected {8 * expect} ({expect} float64 values)")
    return header, np.frombuffer(raw[nl + 1:], dtype="<f8")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed file, a non-finite parameter or
    non-finite norm stats raise CompatibilityError naming the file and the field."""
    header, blob = _read_checkpoint(path)
    shapes = [tuple(s) for s in header["param_shapes"]]
    model = MpNodeModel(header["d"], header["p"], header["c"],
                        tuple(header["hidden"]), header["activation"])
    offset = 0
    for i, shape in enumerate(shapes):
        size = int(np.prod(shape))
        block = blob[offset:offset + size]
        if not np.isfinite(block).all():
            name = f"{'Wb'[i % 2]}{i // 2 + 1}"
            raise CompatibilityError(f"checkpoint {path}: parameter block {name} "
                                     "holds a non-finite value")
        (model.biases if i % 2 else model.weights).append(
            Tensor(block.reshape(shape).copy(), requires_grad=True))
        offset += size
    norm = read_norm(header["norm"], f"checkpoint {path}: header")
    return Checkpoint(model=model, norm=norm, provenance=header["provenance"])
