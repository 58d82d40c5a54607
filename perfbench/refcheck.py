"""Independent output checks for the lifecycle benchmark.

Everything here is plain numpy written from the documented file formats and
equations; nothing imports `mpnode`. Each `check_*` function reads the files
one `mpnode` command wrote and returns a list of failure messages, empty when
the output is right:

* `check_dataset`: every stored state is re-integrated by one RK4 step from
  the stored state before it, with the manifest's parameters and adjacency.
* `check_train`: the checkpoint's parameter blocks are rolled out on the
  validation split; the result must reproduce the best epoch's `test_error`
  and `val_loss` in `metrics.csv`. Also checks the normalization statistics
  and the loss properties.
* `check_eval`: the same reference rollout must reproduce `report.json`'s
  per-trajectory errors, with no diverged trajectory.
* `check_pca`: LAPACK `eigvalsh` of the covariance of the reference rollout's
  messages must reproduce `pca.json`'s eigenvalues and fractions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerances. Measured agreement is ~1e-16 for the one-step
# re-integration (a whole-horizon re-simulation of chaotic lorenz drifts to
# 8e-8 on some seeds); ~1e-15 for the model rollouts and ~1e-13 for the PCA
# eigenvalues.
RESIM_RTOL = 1e-12
MODEL_RTOL = 1e-9
PCA_RTOL = 1e-8

STD_FLOOR = 1e-8
PCA_TRAJECTORIES = 100   # `mpnode pca` defaults
PCA_COMPONENTS = 3

# per-dimension sampling ranges of the initial states
INIT_RANGES = {"lorenz": (-10.0, 10.0), "gene": (0.0, 50.0), "kuramoto": (-1.0, 1.0)}

# ---------------------------------------------------------------------------
# splitmix64 / xoshiro256++: needed to know which trajectories are validation
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive(seed: int, *indices: int) -> int:
    h = seed & _M64
    for ix in indices:
        h = _splitmix((h + (ix + 1) * _GAMMA) & _M64)
    return h


def permutation(seed: int, n: int) -> list[int]:
    """Fisher-Yates shuffle of range(n) driven by xoshiro256++ seeded via splitmix64."""
    s, z = [], seed & _M64
    for _ in range(4):
        z = (z + _GAMMA) & _M64
        s.append(_splitmix(z))

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & _M64

    def next_u64():
        out = (rotl((s[0] + s[3]) & _M64, 23) + s[0]) & _M64
        t = (s[1] << 17) & _M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return out

    order = list(range(n))
    for i in range(n - 1, 0, -1):
        bound = i + 1
        limit = _M64 - (_M64 + 1) % bound
        while True:
            x = next_u64()
            if x <= limit:
                break
        j = x % bound
        order[i], order[j] = order[j], order[i]
    return order


def split_indices(n_traj: int, fraction: float, seed: int) -> tuple[list[int], list[int]]:
    order = permutation(derive(seed, 30), n_traj)
    n_train = int(round(n_traj * fraction))
    return order[:n_train], order[n_train:]


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------


def read_dataset(path) -> tuple[dict, np.ndarray, list[np.ndarray]]:
    """Manifest, data [traj, T, n, d] and one adjacency matrix per graph."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    shape = (manifest["n_traj"], manifest["T"], manifest["n_nodes"], manifest["d"])
    data = np.fromfile(path / "data.bin", dtype="<f8")
    if data.size != math.prod(shape):
        raise ValueError(f"data.bin holds {data.size} values, manifest says {shape}")
    adj = np.fromfile(path / "adjacency.bin", dtype="<f8")
    graphs = []
    for g in manifest["graphs"]:
        n, off = g["n"], g["adjacency_offset"]
        graphs.append(adj[off:off + n * n].reshape(n, n))
    return manifest, data.reshape(shape), graphs


def read_checkpoint(path) -> tuple[dict, list[np.ndarray]]:
    """JSON header line, then float64 parameter blocks W1, b1, W2, b2, ..."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError("checkpoint has no header line")
    header = json.loads(raw[:nl])
    blob = np.frombuffer(raw[nl + 1:], dtype="<f8")
    params, off = [], 0
    for shape in header["param_shapes"]:
        size = math.prod(shape)
        params.append(blob[off:off + size].reshape(shape))
        off += size
    if off != blob.size:
        raise ValueError(f"checkpoint holds {blob.size} values, header declares {off}")
    return header, params


def read_metrics(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"epoch": int(r["epoch"]), "train_loss": float(r["train_loss"]),
             "val_loss": float(r["val_loss"]) if r["val_loss"] else None,
             "test_error": float(r["test_error"]) if r["test_error"] else None}
            for r in rows]


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


def rk4(f, x, dt: float):
    half = 0.5 * dt
    k1 = f(x)
    k2 = f(x + half * k1)
    k3 = f(x + half * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def system_rhs(kind: str, params: dict, adj: np.ndarray):
    """Right-hand side over a batch of node states [B, n, d]."""
    if kind == "kuramoto":
        b = np.asarray(params["b"])

        def f(x):
            th = x[..., 0]
            return (b + (adj * np.sin(th[:, None, :] - th[:, :, None])).sum(axis=2))[..., None]
    elif kind == "lorenz":
        sigma, rho, beta = params["sigma"], params["rho"], params["beta"]

        def f(x):
            X, Y, Z = x[..., 0], x[..., 1], x[..., 2]
            dx = sigma * (Y - X) + (adj * (X[:, None, :] - X[:, :, None])).sum(axis=2)
            return np.stack([dx, X * (rho - Z) - Y, X * Y - beta * Z], axis=-1)
    elif kind == "gene":
        b = np.asarray(params["b"])
        g_exp, h_exp = params["g_exp"], params["h_exp"]

        def f(x):
            v = x[..., 0]
            vh = v ** h_exp
            return (-b * v ** g_exp + (adj * (vh / (vh + 1.0))[:, None, :]).sum(axis=2))[..., None]
    else:
        raise ValueError(f"no reference equations for system kind {kind!r}")
    return f


def resimulate(manifest: dict, data: np.ndarray, graphs: list[np.ndarray]) -> np.ndarray:
    """Every stored state integrated again by one RK4 step from the stored
    state before it. By induction this re-simulates each trajectory from its
    stored initial state, without chaos (lorenz) amplifying the rounding
    differences between two correct integrators over the horizon."""
    kind, params = manifest["system"]["kind"], manifest["system"]["params"]
    index = np.asarray(manifest["adjacency_index_per_traj"])
    out = np.empty_like(data)
    out[:, 0] = data[:, 0]
    for gi, adj in enumerate(graphs):
        rows = np.nonzero(index == gi)[0]
        f = system_rhs(kind, params, adj)
        for t in range(1, data.shape[1]):
            out[rows, t] = rk4(f, data[rows, t - 1], manifest["dt"])
    return out


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


def model_rollout(header: dict, params: list[np.ndarray], adj: np.ndarray,
                  x0: np.ndarray, T: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """MP-NODE rollout of x0 [B, n, d]; returns states [B, T, n, d] and
    outgoing messages [B, T, n, p].

    At each observation step every node's message slot is replaced by the
    mean of its neighbours' outgoing messages (zeros without neighbours),
    then the augmented state [x; m] takes one RK4 step under the shared MLP.
    Initial messages are zero.
    """
    d, p = header["d"], header["p"]
    if header.get("c", 0):
        raise ValueError("reference rollout covers models without controls")
    B, n, _ = x0.shape
    weights, biases = params[0::2], params[1::2]
    act = np.tanh if header["activation"] == "tanh" else (lambda h: np.maximum(h, 0.0))

    def mlp(z):
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = z @ w.T + b
            if i < len(weights) - 1:
                z = act(z)
        return z

    mask = (adj > 0.0).astype(np.float64)
    deg = mask.sum(axis=1)
    mean_op = mask / np.maximum(deg, 1.0)[:, None]
    aug = np.concatenate([x0.reshape(B * n, d), np.zeros((B * n, p))], axis=1)
    states = np.empty((B, T, n, d))
    messages = np.zeros((B, T, n, p))
    states[:, 0] = x0
    for t in range(1, T):
        m_in = np.einsum("kj,bjp->bkp", mean_op, aug[:, d:].reshape(B, n, p))
        aug = rk4(mlp, np.concatenate([aug[:, :d], m_in.reshape(B * n, p)], axis=1), dt)
        states[:, t] = aug[:, :d].reshape(B, n, d)
        messages[:, t] = aug[:, d:].reshape(B, n, p)
    return states, messages


def _norm_of(header: dict) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(header["norm"]["mean"]), np.asarray(header["norm"]["std"])


def _rollout_set(header, params, manifest, data, graphs, rows):
    """Normalized reference predictions and targets for the given trajectories."""
    mean, std = _norm_of(header)
    target = (data[rows] - mean) / std
    pred = np.empty_like(target)
    msgs = np.empty(target.shape[:3] + (header["p"],))
    index = np.asarray(manifest["adjacency_index_per_traj"])[rows]
    for gi, adj in enumerate(graphs):
        sel = np.nonzero(index == gi)[0]
        if sel.size:
            pred[sel], msgs[sel] = model_rollout(header, params, adj, target[sel, 0],
                                                 manifest["T"], manifest["dt"])
    return pred, target, msgs


# Reference results by the bytes they were computed from: a run checks several
# `eval` and `pca` outputs made from one dataset and one checkpoint.
_MEMO: dict = {}


def _inputs_digest(data_dir, ckpt_path) -> str:
    h = hashlib.sha256()
    for path in (Path(data_dir) / "manifest.json", Path(data_dir) / "data.bin",
                 Path(data_dir) / "adjacency.bin", Path(ckpt_path)):
        h.update(path.read_bytes())
    return h.hexdigest()


def _memoized(key, compute):
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]


def reference_validation(cfg: dict, data_dir, ckpt_path) -> dict:
    """Score the checkpoint on the validation split with the reference rollout."""
    key = ("validation", _inputs_digest(data_dir, ckpt_path),
           float(cfg["dataset"].get("split_fraction", 0.7)), cfg["train"].get("loss", "mse"),
           float(cfg["train"].get("huber_delta", 1.0)))
    return _memoized(key, lambda: _reference_validation(cfg, data_dir, ckpt_path))


def _reference_validation(cfg: dict, data_dir, ckpt_path) -> dict:
    manifest, data, graphs = read_dataset(data_dir)
    header, params = read_checkpoint(ckpt_path)
    fraction = float(cfg["dataset"].get("split_fraction", 0.7))
    _, val = split_indices(manifest["n_traj"], fraction, manifest["seed"])
    pred, target, _ = _rollout_set(header, params, manifest, data, graphs, val)
    resid = pred - target
    _, std = _norm_of(header)
    phys = resid * std
    per_traj = np.mean(phys * phys, axis=(1, 2, 3))
    if cfg["train"].get("loss", "mse") == "huber_time":
        delta = float(cfg["train"].get("huber_delta", 1.0))
        a = np.abs(resid)
        loss = np.where(a <= delta, 0.5 * resid * resid, delta * (a - 0.5 * delta)).mean()
    else:
        loss = (resid * resid).mean()
    return {"per_traj": per_traj, "test_error": float(per_traj.mean()),
            "val_loss": float(loss), "n_val": len(val)}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


def check_dataset(cfg: dict, data_dir) -> list[str]:
    manifest, data, graphs = read_dataset(data_dir)
    ds = cfg["dataset"]
    fails = []
    expect = {"n_traj": ds["n_traj"], "T": int(round(ds["horizon"] / ds["dt"])) + 1,
              "n_nodes": cfg["graph"]["n"], "norm": None}
    for key, value in expect.items():
        if manifest.get(key) != value:
            fails.append(f"manifest {key} is {manifest.get(key)!r}, expected {value!r}")
    if manifest["system"]["kind"] != cfg["system"]["kind"]:
        fails.append(f"manifest system kind {manifest['system']['kind']!r}")
    if not np.isfinite(data).all():
        return fails + ["data.bin holds non-finite values"]
    lo, hi = INIT_RANGES[manifest["system"]["kind"]]
    if not ((data[:, 0] >= lo) & (data[:, 0] <= hi)).all():
        fails.append(f"initial states outside [{lo}, {hi}]")
    sim = resimulate(manifest, data, graphs)
    scale = max(1.0, float(np.abs(data).max()))
    dev = np.abs(sim - data).max(axis=(1, 2, 3)) / scale
    worst = int(np.argmax(dev))
    if not dev[worst] <= RESIM_RTOL:
        fails.append(f"trajectory {worst} differs from RK4 re-simulation by "
                     f"{dev[worst]:.3g} of the state scale (tolerance {RESIM_RTOL:g})")
    return fails


def check_train(cfg: dict, data_dir, train_dir) -> list[str]:
    train_dir = Path(train_dir)
    rows = read_metrics(train_dir / "metrics.csv")
    header, params = read_checkpoint(train_dir / "checkpoint.ckpt")
    prov = header["provenance"]
    fails = []
    epochs = int(cfg["train"]["epochs"])
    if [r["epoch"] for r in rows] != list(range(1, epochs + 1)):
        return [f"metrics.csv epochs are {[r['epoch'] for r in rows]}, expected 1..{epochs}"]
    if not rows[-1]["train_loss"] < rows[0]["train_loss"]:
        fails.append(f"last train loss {rows[-1]['train_loss']!r} is not below the "
                     f"first {rows[0]['train_loss']!r}")
    validated = [r for r in rows if r["val_loss"] is not None]
    if not validated:
        return fails + ["no epoch validated"]
    best = min(validated, key=lambda r: r["val_loss"])
    if prov["val_loss"] != best["val_loss"] or prov["epoch"] != best["epoch"]:
        fails.append(f"checkpoint val_loss {prov['val_loss']!r} (epoch {prov['epoch']}) is "
                     f"not the minimum {best['val_loss']!r} (epoch {best['epoch']})")
    # normalization fitted on the training split alone
    manifest, data, _ = read_dataset(data_dir)
    fraction = float(cfg["dataset"].get("split_fraction", 0.7))
    train_rows, _ = split_indices(manifest["n_traj"], fraction, manifest["seed"])
    pooled = data[train_rows].reshape(-1, manifest["d"])
    mean, std = _norm_of(header)
    ref_std = np.maximum(pooled.std(axis=0, ddof=1), STD_FLOOR)
    if not (np.allclose(mean, pooled.mean(axis=0), rtol=1e-12, atol=1e-12)
            and np.allclose(std, ref_std, rtol=1e-12, atol=0.0)):
        fails.append("checkpoint normalization does not match the training split")
    if not all(np.isfinite(p).all() for p in params):
        return fails + ["checkpoint holds non-finite parameters"]
    ref = reference_validation(cfg, data_dir, train_dir / "checkpoint.ckpt")
    if not _close(ref["test_error"], best["test_error"], MODEL_RTOL):
        fails.append(f"best-epoch test_error {best['test_error']!r} differs from the "
                     f"reference rollout's {ref['test_error']!r}")
    if not _close(ref["val_loss"], prov["val_loss"], MODEL_RTOL):
        fails.append(f"checkpoint val_loss {prov['val_loss']!r} differs from the "
                     f"reference rollout's {ref['val_loss']!r}")
    return fails


def check_eval(cfg: dict, data_dir, train_dir, eval_dir) -> list[str]:
    report = json.loads((Path(eval_dir) / "report.json").read_text())
    fails = []
    if report["diverged"] != 0:
        fails.append(f"{report['diverged']} trajectories diverged")
    if not math.isfinite(report["mean"]):
        fails.append(f"mean test error is {report['mean']!r}")
    if fails:
        return fails
    ref = reference_validation(cfg, data_dir, Path(train_dir) / "checkpoint.ckpt")
    got = np.asarray(report["per_trajectory"])
    if got.shape != (ref["n_val"],):
        return [f"report scores {got.size} trajectories, the split has {ref['n_val']}"]
    dev = np.abs(got - ref["per_traj"]) / np.maximum(np.abs(got), np.abs(ref["per_traj"]))
    worst = int(np.argmax(dev))
    if not dev[worst] <= MODEL_RTOL:
        fails.append(f"validation trajectory {worst}: report says {got[worst]!r}, "
                     f"reference rollout gives {ref['per_traj'][worst]!r}")
    if not _close(report["mean"], ref["test_error"], MODEL_RTOL):
        fails.append(f"mean {report['mean']!r} differs from the reference {ref['test_error']!r}")
    return fails


def _reference_eigenvalues(header, params, manifest, data, graphs, n_traj) -> np.ndarray:
    """Descending eigenvalues of the covariance of the reference rollout's messages."""
    _, _, msgs = _rollout_set(header, params, manifest, data, graphs, list(range(n_traj)))
    X = msgs.reshape(-1, manifest["n_nodes"] * header["p"])
    Xc = X - X.mean(axis=0)
    return np.linalg.eigvalsh(Xc.T @ Xc / max(X.shape[0] - 1, 1))[::-1]


def check_pca(data_dir, train_dir, pca_dir) -> list[str]:
    payload = json.loads((Path(pca_dir) / "pca.json").read_text())
    fails = []
    frac = np.asarray(payload["explained_variance"])
    eig = np.asarray(payload["eigenvalues"])
    if not ((frac >= 0).all() and (frac <= 1).all()):
        fails.append(f"explained-variance fractions outside [0, 1]: {frac.tolist()}")
    if not (np.diff(frac) <= 0).all():
        fails.append(f"explained-variance fractions not descending: {frac.tolist()}")
    if not frac.sum() <= 1.0 + 1e-12:
        fails.append(f"explained-variance fractions sum to {frac.sum()!r}")
    manifest, data, graphs = read_dataset(data_dir)
    header, params = read_checkpoint(Path(train_dir) / "checkpoint.ckpt")
    n_traj = min(PCA_TRAJECTORIES, manifest["n_traj"])
    k = min(PCA_COMPONENTS, header["p"] * manifest["n_nodes"])
    if payload["trajectories"] != n_traj or payload["components"] != k or eig.shape != (k,):
        return fails + [f"pca.json covers {payload['trajectories']} trajectories and "
                        f"{payload['components']} components, expected {n_traj} and {k}"]
    ref = _memoized(("pca", _inputs_digest(data_dir, Path(train_dir) / "checkpoint.ckpt"), n_traj),
                    lambda: _reference_eigenvalues(header, params, manifest, data, graphs, n_traj))
    ref_frac = ref[:k].clip(min=0.0) / ref.clip(min=0.0).sum()
    tol = PCA_RTOL * abs(ref[0])
    if not (np.abs(eig - ref[:k]) <= tol).all():
        fails.append(f"eigenvalues {eig.tolist()} differ from LAPACK's {ref[:k].tolist()}")
    if not (np.abs(frac - ref_frac) <= PCA_RTOL).all():
        fails.append(f"fractions {frac.tolist()} differ from LAPACK's {ref_frac.tolist()}")
    return fails
