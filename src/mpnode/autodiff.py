"""Dense float64 tensors with a creation-order reverse-mode tape.

Ops record onto the innermost active `Tape`; `Tape.backward` replays the
records in reverse creation order, which is a valid topological order, so
no graph search is needed. It returns the gradients as a dict; tensors
carry no gradient state of their own. The sweep consumes its tape,
detaching each node as it passes, so a caller still holding the loss
holds nothing of the graph and peak training memory is one batch's tape.

Two kernel flavours exist for the hot ops (`dense`, `neighbor_mean`):

* the default BLAS path, fastest, deterministic for fixed shapes;
* a `stable=True` path whose results are bit-independent of row order
  (einsum matmuls, value-sorted reductions). Rollouts that must be
  bit-exactly permutation-equivariant use the stable path.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, ShapeError

_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


class Tensor:
    """A dense float64 array, optionally participating in the active tape."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    # Arithmetic sugar so generic code (e.g. the RK4 update formula) works
    # on tensors and plain ndarrays alike.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, c):
        return scale(self, float(c))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Creation-order record of taped tensors for one reverse sweep."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._swept = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor, params: Sequence[Tensor] | None = None):
        """Reverse sweep from a 0-d `loss`; returns a leaf -> gradient dict.

        With `params` given, every requested tensor appears in the result
        (zeros when the loss does not depend on it). Adjoints live in a
        sweep-local sink (freed as the sweep passes each node) and nothing is
        written to the tensors, so independent tapes can run backward
        concurrently on shared read-only parameters; merging results across
        tapes is the caller's serial reduction.

        The sweep pops each node and detaches it from its parents and its
        backward closure before running that closure, so each intermediate
        array is freed once the sweep has passed it, and the tape ends
        empty. One backward call per tape; a second raises RuntimeError.
        """
        if loss.data.shape != ():
            raise ShapeError(f"backward root must be scalar, got shape {loss.data.shape}")
        if self._swept:
            raise RuntimeError("tape already swept")
        self._swept = True
        sink: dict[int, np.ndarray] = {id(loss): np.ones(())}
        _LOCAL.sink = sink
        leaves: list[Tensor] = []
        seen: set[int] = set()
        nodes = self._nodes
        try:
            while nodes:
                node = nodes.pop()
                backward, parents = node._backward, node._parents
                node._backward, node._parents = None, ()
                g = sink.pop(id(node), None)
                if g is None:
                    continue
                # a parent predates its children, so it is not detached yet:
                # `_backward is None` still means a leaf
                for parent in parents:
                    if parent._backward is None and parent.requires_grad \
                            and id(parent) not in seen:
                        seen.add(id(parent))
                        leaves.append(parent)
                backward(g)
        finally:
            _LOCAL.sink = None
        wanted = leaves if params is None else params
        result = {}
        for p in wanted:
            g = sink.get(id(p))
            result[p] = g if g is not None else np.zeros(p.shape)
        return result


def _record(out: Tensor, parents: tuple, backward: Callable) -> Tensor:
    stack = _tape_stack()
    if stack and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        stack[-1]._nodes.append(out)
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    # Adjoints accumulate in the running sweep's sink, never on the tensors
    # themselves; `owned=False` means g may alias another adjoint, so copy.
    sink = _LOCAL.sink
    cur = sink.get(id(t))
    if cur is None:
        sink[id(t)] = g if owned else g.copy()
    else:
        cur += g


def ordered_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Reduce along `axis` so the result depends only on the multiset of addends.

    Sorting first (after normalizing -0.0 to +0.0) makes the floating-point
    result invariant to any permutation of the addends, which is what makes
    neighbor reductions bit-exactly equivariant under node relabeling.
    """
    ordered = values + 0.0
    ordered.sort(axis=axis)  # in place: np.sort would copy the block once more
    return ordered.sum(axis=axis)


def assert_finite(x, context: str = "value") -> None:
    """Post-hoc NaN/Inf check; raises DivergenceError naming the context."""
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite {context}")


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes disagree: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes disagree: {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g, owned=True)

    return _record(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def backward(g):
        _accumulate(x, g * c, owned=True)

    return _record(out, (x,), backward)


_ACTIVATIONS = {"tanh", "relu"}


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str | None = None,
          stable: bool = False) -> Tensor:
    """Fused affine layer: activation(x @ W.T + b) on a row batch x [N, in].

    W is stored [out, in]. One fused op keeps the tape short and retains a
    single output array per layer. With `stable=True` the matmul runs
    through einsum, whose per-row bits do not depend on row position.
    """
    if activation is not None and activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if w.data.ndim != 2 or b.data.ndim != 1 or w.shape[0] != b.shape[0]:
        raise ShapeError(f"dense parameter shapes disagree: W{w.shape} b{b.shape}")
    if x.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"dense input {x.shape} does not match W{w.shape}")
    xd, wd = x.data, w.data
    # bias and activation go into the fresh matmul output: the same IEEE
    # operations in the same order as the out-of-place formula. `y` itself
    # must stay fresh, since the backward closure keeps it.
    y = np.einsum("ni,oi->no", xd, wd) if stable else xd @ wd.T
    y += b.data
    if activation == "tanh":
        np.tanh(y, out=y)
    elif activation == "relu":
        np.maximum(y, 0.0, out=y)
    out = Tensor(y)

    def backward(g):
        if activation == "tanh":
            gp = y * y  # g * (1 - y*y), built in one buffer
            np.subtract(1.0, gp, out=gp)
            gp *= g
        elif activation == "relu":
            gp = g * (y > 0.0)
        else:
            gp = g
        _accumulate(x, np.einsum("no,oi->ni", gp, wd) if stable else gp @ wd, owned=True)
        _accumulate(w, np.einsum("no,ni->oi", gp, xd) if stable else gp.T @ xd, owned=True)
        _accumulate(b, gp.sum(axis=0), owned=True)

    return _record(out, (x, w, b), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors along columns (equal row counts)."""
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise ShapeError("concat_cols parts must be rank-2 with equal row counts")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[:, lo:hi])

    return _record(out, tuple(parts), backward)


def col_slice(x: Tensor, lo: int, hi: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"col_slice needs rank 2, got shape {x.shape}")
    if not (0 <= lo <= hi <= x.shape[1]):
        raise ShapeError(f"column bounds [{lo}, {hi}) out of range for width {x.shape[1]}")
    out = Tensor(x.data[:, lo:hi].copy())

    def backward(g):
        full = np.zeros(x.shape)
        full[:, lo:hi] = g
        _accumulate(x, full, owned=True)

    return _record(out, (x,), backward)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    if not parts:
        raise ShapeError("stack needs at least one part")
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise ShapeError("stack parts must share a shape")
    out = Tensor(np.stack([p.data for p in parts]))

    def backward(g):
        for i, p in enumerate(parts):
            _accumulate(p, g[i])

    return _record(out, tuple(parts), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _record(out, (x,), backward)


def neighbor_mean(mask: np.ndarray, x: Tensor, stable: bool = False) -> Tensor:
    """Per-node mean over neighbor rows, batched in row blocks of n.

    `mask` is a constant binary [n, n] matrix with mask[k, j] = 1 when j is a
    neighbor of k. `x` is [B*n, p] laid out batch-major; output row (b, k)
    is the unweighted mean of rows (b, j) over the neighbors j of k, or
    zeros when k is isolated. The stable path sums neighbor contributions
    in value order so the result is invariant to node relabeling.
    """
    n = mask.shape[0]
    if mask.ndim != 2 or mask.shape[1] != n:
        raise ShapeError(f"mask must be square, got {mask.shape}")
    if x.data.ndim != 2 or x.shape[0] % n != 0:
        raise ShapeError(f"input rows {x.shape} not divisible into blocks of {n}")
    batch = x.shape[0] // n
    width = x.shape[1]
    deg = mask.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    m3 = x.data.reshape(batch, n, width)
    if stable:
        contrib = mask[None, :, :, None] * m3[:, None, :, :]
        out3 = ordered_sum(contrib, axis=2) * inv[None, :, None]
    else:
        out3 = np.einsum("kj,bjp->bkp", mask * inv[:, None], m3)
    out = Tensor(out3.reshape(x.shape[0], width))
    wmat = mask * inv[:, None]

    def backward(g):
        g3 = g.reshape(batch, n, width)
        dx = np.einsum("kj,bkp->bjp", wmat, g3)
        _accumulate(x, dx.reshape(x.shape[0], width), owned=True)

    return _record(out, (x,), backward)


def square(x: Tensor) -> Tensor:
    out = Tensor(x.data * x.data)

    def backward(g):
        _accumulate(x, 2.0 * x.data * g, owned=True)

    return _record(out, (x,), backward)


def huber(x: Tensor, delta: float) -> Tensor:
    """Elementwise Huber: quadratic below delta, linear above."""
    if delta <= 0:
        raise ValueError("huber delta must be positive")
    a = np.abs(x.data)
    small = a <= delta
    out = Tensor(np.where(small, 0.5 * x.data * x.data, delta * (a - 0.5 * delta)))

    def backward(g):
        _accumulate(x, np.where(small, x.data, delta * np.sign(x.data)) * g, owned=True)

    return _record(out, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.mean())
    count = x.size

    def backward(g):
        _accumulate(x, np.full(x.shape, float(g) / count), owned=True)

    return _record(out, (x,), backward)


def finite_diff_check(f: Callable, params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Worst relative disagreement between backward() and central differences.

    `f(params)` must return a scalar Tensor and be re-evaluable (it is called
    ~2 per parameter component with perturbed values, outside any tape).
    Relative error uses denominator max(|g_ad|, |g_fd|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    with Tape() as tape:
        loss = f(params)
    grads = tape.backward(loss, params=params)
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        gflat = grads[p].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(params).item()
            flat[i] = orig - eps
            lo = f(params).item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(fd), 1e-8)
            worst = max(worst, abs(gflat[i] - fd) / denom)
    return worst
