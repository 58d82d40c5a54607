"""Ground-truth simulators and the fixed-step RK4 integrator.

Four coupled systems are implemented: a two-pendulum spring coupling,
diffusively coupled Lorenz attractors, Michaelis-Menten gene regulation,
and Kuramoto phase oscillators. Neighbor reductions go through
`ordered_sum`, so permuting node labels together with the adjacency
permutes trajectories bit-exactly.

`rk4_step` is shared between data generation (plain ndarrays, one
[B, n, d] block of trajectories per call) and the learned model (taped
tensors); it only needs `+` and scalar `*` from its operands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import assert_finite, ordered_sum
from .errors import DivergenceError, DomainError
from .graphs import GraphSpec
from .rng import Rng, derive

SYSTEM_KINDS = ("pendulum", "lorenz", "gene", "kuramoto")
STATE_DIMS = {"pendulum": 2, "lorenz": 3, "gene": 1, "kuramoto": 1}


@dataclass(frozen=True)
class PendulumParams:
    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.5
    l2: float = 1.5
    k: float = 2.0
    g: float = 9.81

    def __post_init__(self):
        if min(self.m1, self.m2, self.l1, self.l2) <= 0:
            raise ValueError("pendulum masses and lengths must be positive")


@dataclass(frozen=True)
class LorenzParams:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 2.666
    coupling: GraphSpec | None = None


@dataclass(frozen=True)
class GeneParams:
    b: np.ndarray = None  # per-node degradation rates
    g_exp: float = 1.0
    h_exp: float = 2.0
    coupling: GraphSpec | None = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if (b <= 0).any():
            raise ValueError("degradation rates must be positive")
        if self.g_exp <= 0 or self.h_exp <= 0:
            raise ValueError("exponents must be positive")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class KuramotoParams:
    b: np.ndarray = None  # per-node natural frequencies
    coupling: GraphSpec | None = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if not np.isfinite(b).all():
            raise ValueError("natural frequencies must be finite")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class SystemSpec:
    kind: str
    params: object
    n_nodes: int

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "pendulum" and self.n_nodes != 2:
            raise ValueError("the coupled pendulum has exactly 2 nodes")

    @property
    def state_dim(self) -> int:
        return STATE_DIMS[self.kind]

    @property
    def control_dim(self) -> int:
        return 0

    def with_coupling(self, graph: GraphSpec) -> "SystemSpec":
        if self.kind == "pendulum":
            return self
        return SystemSpec(self.kind, replace(self.params, coupling=graph), self.n_nodes)


def make_kuramoto(graph: GraphSpec, seed: int) -> SystemSpec:
    """Kuramoto system with natural frequencies ~ U[-1, 1] drawn from seed."""
    rng = Rng(derive(seed, 10))
    b = rng.uniforms((graph.n,), -1.0, 1.0)
    return SystemSpec("kuramoto", KuramotoParams(b=b, coupling=graph), graph.n)


def make_gene(graph: GraphSpec, b: float = 1.0, g_exp: float = 1.0,
              h_exp: float = 2.0) -> SystemSpec:
    params = GeneParams(b=np.full(graph.n, b), g_exp=g_exp, h_exp=h_exp, coupling=graph)
    return SystemSpec("gene", params, graph.n)


def make_lorenz(graph: GraphSpec, sigma: float = 10.0, rho: float = 28.0,
                beta: float = 2.666) -> SystemSpec:
    return SystemSpec("lorenz", LorenzParams(sigma, rho, beta, coupling=graph), graph.n)


def make_pendulum(params: PendulumParams | None = None) -> SystemSpec:
    return SystemSpec("pendulum", params or PendulumParams(), 2)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def in_domain(kind: str, grid: np.ndarray) -> np.ndarray:
    """Which rows of a [B, n, d] node-state grid the RHS of `kind` is defined
    on, as bool[B]: pendulum angles with cos > 1e-9, gene expression >= 0,
    every row of the other kinds. NaN passes; the finiteness checks catch it."""
    if kind not in ("pendulum", "gene"):
        return np.ones(len(grid), dtype=bool)
    bad = np.cos(grid[..., 0]) <= 1e-9 if kind == "pendulum" else grid < 0
    return ~bad.reshape(len(grid), -1).any(axis=1)


def pendulum_rhs(state: np.ndarray, p: PendulumParams) -> np.ndarray:
    """Spring-coupled pendulum pair; state is [..., 4] = [theta1, omega1, theta2, omega2].

    The governing equations divide by cos(theta) (the coupling acts through
    the horizontal displacement), so they are only meaningful for
    |theta| < pi/2. States at or beyond the horizontal are out of domain;
    a fixed-step integration that overshoots the barrier lands there and
    must be rejected rather than continued.
    """
    state = np.asarray(state, dtype=np.float64)
    if state.shape[-1:] != (4,):
        raise DomainError(f"pendulum state must have shape (..., 4), got {state.shape}")
    if not in_domain("pendulum", state.reshape(-1, 2, 2)).all():
        raise DomainError("pendulum configuration at or beyond the +-pi/2 singularity")
    th1, w1, th2, w2 = np.moveaxis(state, -1, 0)
    c1, c2 = np.cos(th1), np.cos(th2)
    s1, s2 = np.sin(th1), np.sin(th2)
    a1 = (s1 * (p.m1 * p.l1 * w1 * w1 - p.g - p.k * p.l1) + p.k * p.l2 * s2) / (p.m1 * p.l1 * c1)
    a2 = (s2 * (p.m2 * p.l2 * w2 * w2 - p.g - p.k * p.l2) + p.k * p.l1 * s1) / (p.m2 * p.l2 * c2)
    return np.stack([w1, a1, w2, a2], axis=-1)


def lorenz_coupled_rhs(states: np.ndarray, p: LorenzParams) -> np.ndarray:
    """Per-node Lorenz with diffusive coupling on the first component; states [..., n, 3]."""
    states = np.asarray(states, dtype=np.float64)
    n = p.coupling.n
    if states.shape[-2:] != (n, 3):
        raise DomainError(f"lorenz states must have shape (..., {n}, 3), got {states.shape}")
    x, y, z = np.moveaxis(states, -1, 0)
    dx = p.sigma * (y - x)
    dy = x * (p.rho - z) - y
    dz = x * y - p.beta * z
    # coupling[i, j] * (x_j - x_i), value-sorted sum per row
    diff = p.coupling.adjacency * (x[..., None, :] - x[..., :, None])
    dx = dx + ordered_sum(diff, axis=-1)
    return np.stack([dx, dy, dz], axis=-1)


def gene_rhs(states: np.ndarray, p: GeneParams) -> np.ndarray:
    """Michaelis-Menten regulation: dx_i = -b_i x_i^g + sum_j A_ij x_j^h / (x_j^h + 1)."""
    states = np.asarray(states, dtype=np.float64)
    n = p.coupling.n
    if states.shape[-1:] != (n,):
        raise DomainError(f"gene states must have shape (..., {n}), got {states.shape}")
    if not in_domain("gene", states.reshape(-1, n)).all():
        raise DomainError("gene expression states must be nonnegative")
    xh = states ** p.h_exp
    hill = xh / (xh + 1.0)
    decay = -p.b * states ** p.g_exp
    contrib = p.coupling.adjacency * hill[..., None, :]
    return decay + ordered_sum(contrib, axis=-1)


def kuramoto_rhs(states: np.ndarray, p: KuramotoParams) -> np.ndarray:
    """Phase oscillators: dx_i = b_i + sum_j A_ij sin(x_j - x_i); states [..., n]."""
    states = np.asarray(states, dtype=np.float64)
    n = p.coupling.n
    if states.shape[-1:] != (n,):
        raise DomainError(f"kuramoto states must have shape (..., {n}), got {states.shape}")
    contrib = p.coupling.adjacency * np.sin(states[..., None, :] - states[..., :, None])
    return p.b + ordered_sum(contrib, axis=-1)


def system_rhs(sys: SystemSpec):
    """RHS over [..., n, d] node-state grids (one or a batch) for any system kind."""
    if sys.kind == "pendulum":
        return lambda grid: pendulum_rhs(grid.reshape(-1, 4), sys.params).reshape(grid.shape)
    if sys.kind == "lorenz":
        return lambda grid: lorenz_coupled_rhs(grid, sys.params)
    if sys.kind == "gene":
        return lambda grid: gene_rhs(grid[..., 0], sys.params)[..., None]
    return lambda grid: kuramoto_rhs(grid[..., 0], sys.params)[..., None]


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def rk4_step(f, x, u, dt: float, check=assert_finite):
    """One classical 4th-order Runge-Kutta step of dx/dt = f(x, u).

    Works on plain ndarrays and on taped tensors (the update formula only
    needs `+` and scalar `*`), so the same integrator serves data generation
    and the differentiable model rollout. `check(value, context)` sees each
    stage and the update; the default raises DivergenceError naming the
    first non-finite one.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow to inf/nan is caught by the stage checks below
        k1 = f(x, u)
        check(k1, "rk4 stage k1")
        k2 = f(x + half * k1, u)
        check(k2, "rk4 stage k2")
        k3 = f(x + half * k2, u)
        check(k3, "rk4 stage k3")
        k4 = f(x + dt * k3, u)
        check(k4, "rk4 stage k4")
        out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    check(out, "rk4 update")
    return out


def steps_for(horizon: float, dt: float) -> int:
    """Number of RK4 steps covering `horizon`; horizon/dt must be integral."""
    ratio = horizon / dt
    steps = int(round(ratio))
    if steps < 1 or abs(ratio - steps) > 1e-9:
        raise ValueError(f"horizon {horizon} is not an integral multiple of dt {dt}")
    return steps


def simulate_trajectory(sys: SystemSpec, x0: np.ndarray, horizon: float,
                        dt: float) -> np.ndarray:
    """Integrate the ground truth from x0 [n, d] to [T, n, d] (T = horizon/dt + 1),
    raising DomainError or DivergenceError naming the timestep; or from x0
    [B, n, d], as one RK4 block, to [B, T, n, d]: a row whose stage input
    leaves the RHS domain or whose stage or update is non-finite goes on from
    zeros, raises nothing and comes back all NaN. Each row equals its own
    [n, d] run bit for bit."""
    steps = steps_for(horizon, dt)
    x0 = np.asarray(x0, dtype=np.float64)
    rows = x0[None] if x0.ndim == 2 else x0
    if rows.ndim != 3 or rows.shape[1:] != (sys.n_nodes, sys.state_dim):
        raise DomainError(f"initial state shape {x0.shape} does not match "
                          f"([B,] {sys.n_nodes}, {sys.state_dim})")
    f = system_rhs(sys)
    failed = np.zeros(len(rows), dtype=bool)

    def guarded_rhs(grid, _u):
        failed[~in_domain(sys.kind, grid)] = True
        return f(np.where(failed[:, None, None], 0.0, grid))

    def mark_non_finite(values, _context):
        failed[~np.isfinite(values).all(axis=(1, 2))] = True

    rhs, check = (guarded_rhs, mark_non_finite) if x0.ndim == 3 else \
        (lambda grid, _u: f(grid), assert_finite)
    out = np.empty((len(rows), steps + 1, sys.n_nodes, sys.state_dim))
    out[:, 0] = state = rows
    for t in range(steps):
        try:
            state = out[:, t + 1] = rk4_step(rhs, state, None, dt, check)
        except (DomainError, DivergenceError) as err:
            raise type(err)(f"at timestep {t + 1}: {err}") from err
    out[failed] = np.nan
    return out[0] if x0.ndim == 2 else out
