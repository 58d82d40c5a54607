"""Trajectory dataset generation, Z-score normalization, and persistence.

A dataset directory holds:

* ``manifest.json``  - shapes, system parameters, graph metadata, norm stats
* ``data.bin``       - little-endian float64, row-major [traj, time, node, dim]
* ``adjacency.bin``  - concatenated row-major n*n float64 matrices
* ``controls.bin``   - only when control width c > 0, layout like data.bin

Save/load round-trips bit-exactly. Normalized data is stored normalized and
the manifest carries the stats that invert it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics
from .dynamics import SystemSpec, simulate_trajectory, steps_for
from .errors import CompatibilityError, DivergenceError, DomainError, ShapeError
from .graphs import GraphSpec
from .rng import Rng, derive

FORMAT_VERSION = 1
STD_FLOOR = 1e-8

INIT_RANGES = {
    # per-dimension uniform sampling ranges for initial states
    "pendulum": ((-np.pi / 2, np.pi / 2), (-1.0, 1.0)),
    "lorenz": ((-10.0, 10.0),) * 3,
    "gene": ((0.0, 50.0),),
    "kuramoto": ((-1.0, 1.0),),
}


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray
    floored: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if (self.std <= 0).any():
            raise ValueError("normalization std must be positive")

    def to_dict(self) -> dict:
        """The `norm` field of a manifest or a checkpoint header (see `read_norm`)."""
        return {"mean": list(self.mean), "std": list(self.std),
                "floored_dims": list(self.floored)}


@dataclass
class TrajectorySet:
    data: np.ndarray                    # [n_traj, T, n_nodes, d]
    dt: float
    system: SystemSpec
    graphs: list[GraphSpec]
    adjacency_index: np.ndarray         # [n_traj] int, graph index per trajectory
    controls: np.ndarray                # [n_traj, T, n_nodes, c], c may be 0
    norm: NormStats | None = None
    seed: int = 0

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[1] < 2:
            raise ShapeError("trajectory data must be [traj, time>=2, node, dim]")
        if not np.isfinite(self.data).all():
            raise ValueError("trajectory data contains non-finite values")
        if len(self.adjacency_index) != self.n_traj:
            raise ShapeError("adjacency index must tag every trajectory")

    @property
    def n_traj(self) -> int:
        return self.data.shape[0]

    @property
    def T(self) -> int:
        return self.data.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.data.shape[2]

    @property
    def d(self) -> int:
        return self.data.shape[3]

    @property
    def c(self) -> int:
        return self.controls.shape[3]

    def adjacency_groups(self, indices=None) -> list[tuple[int, np.ndarray]]:
        """Split trajectory indices (default: all, in order) by adjacency
        index, so each batched rollout sees one graph. Groups come in graph
        order and keep the given order of their rows."""
        if indices is None:
            indices = range(self.n_traj)
        by_graph: dict[int, list[int]] = {}
        for i in indices:
            by_graph.setdefault(int(self.adjacency_index[i]), []).append(i)
        return [(gi, np.asarray(rows)) for gi, rows in sorted(by_graph.items())]

    def subset(self, indices) -> "TrajectorySet":
        idx = np.asarray(indices)
        return TrajectorySet(
            data=self.data[idx].copy(),
            dt=self.dt,
            system=self.system,
            graphs=self.graphs,
            adjacency_index=self.adjacency_index[idx].copy(),
            controls=self.controls[idx].copy(),
            norm=self.norm,
            seed=self.seed,
        )


def sample_initial_states(sys: SystemSpec, n_nodes: int, seed: int) -> np.ndarray:
    """Uniform per-system initial states, [n_nodes, d], node-major draw order."""
    rng, ranges = Rng(derive(seed, 20)), INIT_RANGES[sys.kind]
    draws = [rng.uniform_range(lo, hi) for _ in range(n_nodes) for lo, hi in ranges]
    return np.array(draws, dtype=np.float64).reshape(n_nodes, sys.state_dim)


def generate_dataset(sys: SystemSpec, graphs: GraphSpec | list[GraphSpec],
                     n_traj: int, horizon: float, dt: float, seed: int) -> TrajectorySet:
    """Simulate n_traj trajectories; graphs are assigned round-robin.

    Trajectory i draws its initial state from its own stream derive(seed, 0,
    i, attempt), and the trajectories of one adjacency are integrated as one
    `simulate_trajectory` batch, whose rows are bit-identical to one run per
    trajectory; so the data depend on neither the batching nor n_traj.
    Initial conditions whose fixed-step simulation leaves the finite domain
    (the pendulum can reach its +-pi/2 singularity from inside its sampling
    range) are redrawn from the next attempt's stream, up to 50 rounds.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if isinstance(graphs, GraphSpec):
        graphs = [graphs]
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ShapeError("all adjacencies in a dataset must share the node count")
    if sys.kind != "pendulum" and sys.n_nodes != n:
        raise CompatibilityError(f"system has {sys.n_nodes} nodes, graphs have {n}")
    T = steps_for(horizon, dt) + 1
    systems = [sys.with_coupling(g) for g in graphs]
    adjacency_index = np.array([i % len(graphs) for i in range(n_traj)], dtype=np.int64)
    data = np.empty((n_traj, T, n, sys.state_dim))
    pending = np.arange(n_traj)
    for attempt in range(50):
        x0 = np.stack([sample_initial_states(sys, n, derive(seed, 0, int(i), attempt))
                       for i in pending])
        done = np.zeros(len(pending), dtype=bool)
        for gi, s in enumerate(systems):
            rows = np.flatnonzero(adjacency_index[pending] == gi)
            if rows.size:
                traj = simulate_trajectory(s, x0[rows], horizon, dt)
                ok = np.isfinite(traj).all(axis=(1, 2, 3))
                data[pending[rows[ok]]] = traj[ok]
                done[rows] = ok
        if done.all():
            break
        pending, x0 = pending[~done], x0[~done]
    else:
        i, last = int(pending[0]), None
        try:  # one run of its last draw names the error that failed it
            simulate_trajectory(systems[adjacency_index[i]], x0[0], horizon, dt)
        except (DomainError, DivergenceError) as err:
            last = err
        raise DivergenceError(f"trajectory {i}: no finite trajectory in 50 draws ({last})")
    controls = np.zeros((n_traj, T, n, sys.control_dim))
    return TrajectorySet(data=data, dt=dt, system=sys, graphs=list(graphs),
                         adjacency_index=adjacency_index, controls=controls, seed=seed)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def zscore_fit(ts: TrajectorySet) -> NormStats:
    """Per-dimension mean and sample std pooled over trajectories, time, nodes."""
    if ts.norm is not None:
        raise ValueError("dataset is already normalized")
    flat = ts.data.reshape(-1, ts.d)
    if flat.shape[0] < 2:
        raise ValueError("need at least two pooled samples to fit normalization")
    mean = flat.mean(axis=0)
    std = flat.std(axis=0, ddof=1)
    floored = tuple(int(i) for i in np.nonzero(std < STD_FLOOR)[0])
    std = np.maximum(std, STD_FLOOR)
    return NormStats(mean=mean, std=std, floored=floored)


def zscore_apply(ts: TrajectorySet, norm: NormStats) -> TrajectorySet:
    if ts.norm is not None:
        raise ValueError("dataset is already normalized")
    data = (ts.data - norm.mean) / norm.std
    return replace(ts, data=data, norm=norm)


def zscore_invert(ts: TrajectorySet, norm: NormStats) -> TrajectorySet:
    data = ts.data * norm.std + norm.mean
    return replace(ts, data=data, norm=None)


def split_train_val(ts: TrajectorySet, fraction: float, seed: int
                    ) -> tuple[TrajectorySet, TrajectorySet]:
    """Random trajectory-level split; normalization is fitted on the train side
    only and applied to both."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    if ts.norm is not None:
        raise ValueError("split expects un-normalized data")
    order = Rng(derive(seed, 30)).permutation(ts.n_traj)
    n_train = int(round(ts.n_traj * fraction))
    if n_train < 1 or n_train >= ts.n_traj:
        raise ValueError(f"split of {ts.n_traj} at {fraction} leaves an empty side")
    train = ts.subset(order[:n_train])
    val = ts.subset(order[n_train:])
    norm = zscore_fit(train)
    return zscore_apply(train, norm), zscore_apply(val, norm)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _system_params_dict(sys: SystemSpec) -> dict:
    p = sys.params
    if sys.kind == "pendulum":
        return {"m1": p.m1, "m2": p.m2, "l1": p.l1, "l2": p.l2, "k": p.k, "g": p.g}
    if sys.kind == "lorenz":
        return {"sigma": p.sigma, "rho": p.rho, "beta": p.beta}
    if sys.kind == "gene":
        return {"b": list(p.b), "g_exp": p.g_exp, "h_exp": p.h_exp}
    return {"b": list(p.b)}


def _system_from_dict(kind: str, params: dict, n_nodes: int, graph: GraphSpec) -> SystemSpec:
    if kind == "pendulum":
        return SystemSpec(kind, dynamics.PendulumParams(**params), 2)
    if kind == "lorenz":
        return SystemSpec(kind, dynamics.LorenzParams(
            params["sigma"], params["rho"], params["beta"], coupling=graph), n_nodes)
    if kind == "gene":
        return SystemSpec(kind, dynamics.GeneParams(
            b=np.asarray(params["b"]), g_exp=params["g_exp"], h_exp=params["h_exp"],
            coupling=graph), n_nodes)
    if kind == "kuramoto":
        return SystemSpec(kind, dynamics.KuramotoParams(
            b=np.asarray(params["b"]), coupling=graph), n_nodes)
    raise CompatibilityError(f"unsupported system kind {kind!r}")


def manifest_dict(ts: TrajectorySet) -> dict:
    graphs_meta = []
    offset = 0
    for g in ts.graphs:
        graphs_meta.append({"n": g.n, "topology_tag": g.topology_tag,
                            "seed": g.seed, "adjacency_offset": offset})
        offset += g.n * g.n
    return {
        "format_version": FORMAT_VERSION,
        "system": {"kind": ts.system.kind, "params": _system_params_dict(ts.system)},
        "graphs": graphs_meta,
        "n_traj": ts.n_traj,
        "T": ts.T,
        "n_nodes": ts.n_nodes,
        "d": ts.d,
        "c": ts.c,
        "dt": ts.dt,
        "seed": ts.seed,
        "norm": None if ts.norm is None else ts.norm.to_dict(),
        "adjacency_index_per_traj": [int(i) for i in ts.adjacency_index],
    }


def dataset_hash(ts: TrajectorySet) -> str:
    """Stable fingerprint of a dataset's manifest."""
    payload = json.dumps(manifest_dict(ts), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def write_atomic(path, payload: bytes | str) -> None:
    """Write `payload` to a temporary file beside `path`, then `os.replace`
    it: a write that fails or is killed midway leaves no partial `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload.encode() if isinstance(payload, str) else payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_dataset(ts: TrajectorySet, path) -> None:
    """Write a dataset directory, manifest.json last: a directory whose write
    failed has no manifest and does not load."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_atomic(path / "data.bin", ts.data.astype("<f8").tobytes("C"))
    adj = np.concatenate([g.adjacency.reshape(-1) for g in ts.graphs])
    write_atomic(path / "adjacency.bin", adj.astype("<f8").tobytes("C"))
    if ts.c > 0:
        write_atomic(path / "controls.bin", ts.controls.astype("<f8").tobytes("C"))
    write_atomic(path / "manifest.json",
                 json.dumps(manifest_dict(ts), indent=1, allow_nan=False))


NORM_FIELDS = {"mean": list, "std": list, "floored_dims": list}
_MANIFEST_FIELDS = {"system": dict, "graphs": list, "n_traj": int, "T": int,
                    "n_nodes": int, "d": int, "c": int, "dt": (int, float), "seed": int,
                    "norm": (dict, type(None)), "adjacency_index_per_traj": list}
_SYSTEM_FIELDS = {"kind": str, "params": dict}
_GRAPH_FIELDS = {"n": int, "topology_tag": str, "seed": int, "adjacency_offset": int}


def check_fields(doc, fields: dict, where: str, prefix: str = "") -> None:
    """Check a JSON object read from a file against a table of field name ->
    accepted type(s); raise CompatibilityError naming `where` (the file) and
    the field, written `prefix` + name, that is missing or of another type."""
    if not isinstance(doc, dict):
        name = f" field {prefix.rstrip('.')!r}" if prefix else ""
        raise CompatibilityError(f"{where}{name} is not a JSON object")
    for key, kind in fields.items():
        if not isinstance(doc.get(key), kind):
            what = "is missing" if key not in doc else "has the wrong type"
            raise CompatibilityError(f"{where} field '{prefix}{key}' {what}")


def read_norm(doc, where: str) -> NormStats | None:
    """NormStats from a `norm` field (None stays None); a malformed field or
    a non-finite or (std) non-positive value raises CompatibilityError naming
    `where` (the file) and the field."""
    if doc is None:
        return None
    check_fields(doc, NORM_FIELDS, where, "norm.")
    for key in ("mean", "std"):
        if not all(type(v) in (int, float) and np.isfinite(v) and (key == "mean" or v > 0)
                   for v in doc[key]):
            raise CompatibilityError(f"{where} field 'norm.{key}' holds a value that is "
                                     f"not a {'positive ' * (key == 'std')}finite number")
    return NormStats(doc["mean"], doc["std"], tuple(doc["floored_dims"]))


def _read_manifest(path: Path) -> dict:
    where = f"dataset manifest {path}"
    try:
        manifest = json.loads(path.read_bytes().decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CompatibilityError(f"{where} is not valid JSON: {err}")
    check_fields(manifest, {"format_version": int}, where)
    if manifest["format_version"] != FORMAT_VERSION:
        raise CompatibilityError(
            f"{where}: unsupported format version {manifest['format_version']}")
    check_fields(manifest, _MANIFEST_FIELDS, where)
    for key in ("n_traj", "T", "n_nodes", "d", "c"):
        if manifest[key] < 0:
            raise CompatibilityError(f"{where} field '{key}' is negative")
    check_fields(manifest["system"], _SYSTEM_FIELDS, where, "system.")
    for i, meta in enumerate(manifest["graphs"]):
        check_fields(meta, _GRAPH_FIELDS, where, f"graphs[{i}].")
    if not all(isinstance(i, int) and 0 <= i < len(manifest["graphs"])
               for i in manifest["adjacency_index_per_traj"]):
        raise CompatibilityError(f"{where} field 'adjacency_index_per_traj' names "
                                 "a graph the manifest does not list")
    return manifest


def _read_bin(path: Path, expect: int | None = None) -> np.ndarray:
    """The float64 values of a dataset `.bin` file; a missing or unreadable
    file, a size other than `expect` values (when given), or a non-finite
    value raises CompatibilityError naming the file."""
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise CompatibilityError(f"dataset file {path} cannot be read: {err.strerror or err}")
    if len(raw) % 8 or (expect is not None and len(raw) != 8 * expect):
        want = "a whole number of" if expect is None else f"{8 * expect} bytes, {expect}"
        raise CompatibilityError(f"dataset file {path} holds {len(raw)} bytes, "
                                 f"expected {want} float64 values")
    values = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(values).all():
        raise CompatibilityError(f"dataset file {path} holds a non-finite value")
    return values


def load_dataset(path) -> TrajectorySet:
    """Read a dataset directory; a malformed manifest or `.bin` file raises
    CompatibilityError naming the file (and, for the manifest, the field)."""
    path = Path(path)
    manifest = _read_manifest(path / "manifest.json")
    n_traj, T = manifest["n_traj"], manifest["T"]
    n, d, c = manifest["n_nodes"], manifest["d"], manifest["c"]
    data = _read_bin(path / "data.bin", n_traj * T * n * d).reshape(n_traj, T, n, d).copy()
    adj_raw = _read_bin(path / "adjacency.bin")
    graphs = []
    for meta in manifest["graphs"]:
        gn, off = meta["n"], meta["adjacency_offset"]
        if off + gn * gn > adj_raw.size:
            raise CompatibilityError(f"dataset file {path / 'adjacency.bin'} holds "
                                     f"{adj_raw.size} values, shorter than the manifest "
                                     "declares")
        graphs.append(GraphSpec(gn, adj_raw[off:off + gn * gn].reshape(gn, gn).copy(),
                                meta["topology_tag"], meta["seed"]))
    kind = manifest["system"]["kind"]
    try:
        system = _system_from_dict(kind, manifest["system"]["params"], n, graphs[0])
    except (KeyError, TypeError) as err:
        raise CompatibilityError(f"dataset manifest {path / 'manifest.json'} field "
                                 f"'system.params' does not fit kind {kind!r}: {err!r}")
    if c > 0:
        controls = _read_bin(path / "controls.bin", n_traj * T * n * c)
        controls = controls.reshape(n_traj, T, n, c).copy()
    else:
        controls = np.zeros((n_traj, T, n, 0))
    norm = read_norm(manifest["norm"], f"dataset manifest {path / 'manifest.json'}")
    return TrajectorySet(
        data=data, dt=manifest["dt"], system=system, graphs=graphs,
        adjacency_index=np.asarray(manifest["adjacency_index_per_traj"], dtype=np.int64),
        controls=controls, norm=norm, seed=manifest["seed"])
