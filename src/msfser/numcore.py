"""Minimal float64 neural-net numerics with hand-written backward passes.

Everything the regression model needs lives here: affine maps, pointwise
nonlinearities, row softmax, layer normalization, inverted dropout, the
concordance correlation coefficient (CCC) and its loss, AdamW, central
finite-difference gradient checking, a JSON checkpoint format, and the
JSON encoder every artifact goes through, which refuses NaN and infinity.
All arrays are float64 and gradients are exact analytic expressions, so
the model is verifiable against finite differences to tight tolerances.

Conventions: data is row-major, one sample per row.  Parameters are 2-D
(biases are shaped (1, n)) named views into one flat vector of values
and one of gradients, which AdamW updates as whole vectors.  Backward
functions take the upstream gradient last and return gradients in the
same order as the forward inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalFailure, ShapeMismatch

LAYER_NORM_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8
CHECKPOINT_VERSION = "msf-ser-ckpt-v1"


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(eq=False)
class Param:
    """A named trainable array and its gradient; update both in place."""

    name: str
    value: np.ndarray
    grad: np.ndarray


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# ---------------------------------------------------------------- affine

def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(
            f"linear: input cols {x.shape[1]} != weight rows {w.shape[0]}")
    return x @ w + b


def linear_bwd(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    dx = dy @ w.T
    dw = x.T @ dy
    db = dy.sum(axis=0, keepdims=True)
    return dx, dw, db


# -------------------------------------------------------- nonlinearities

def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_bwd(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * y * (1.0 - y)


def tanh_fwd(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_bwd(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * (1.0 - y * y)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    ex = np.exp(x - x.max(axis=axis, keepdims=True))
    return ex / ex.sum(axis=axis, keepdims=True)


def softmax_bwd(y: np.ndarray, dy: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = (dy * y).sum(axis=axis, keepdims=True)
    return y * (dy - inner)


# ------------------------------------------------------------ layer norm

def layer_norm_fwd(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                   eps: float = LAYER_NORM_EPS):
    """Per-row normalization; returns (y, cache) for the backward pass."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    y = gamma * xhat + beta
    return y, (xhat, inv, gamma)


def layer_norm_bwd(cache, dy: np.ndarray):
    xhat, inv, gamma = cache
    d = xhat.shape[1]
    dgamma = (dy * xhat).sum(axis=0, keepdims=True)
    dbeta = dy.sum(axis=0, keepdims=True)
    dxhat = dy * gamma
    dx = inv / d * (d * dxhat
                    - dxhat.sum(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
    return dx, dgamma, dbeta


# --------------------------------------------------------------- dropout

def dropout_mask(rng: np.random.Generator | None, shape, rate: float,
                 train: bool) -> np.ndarray:
    """Inverted-dropout multiplier: 0 or 1/(1-rate) entries; ones in eval.

    rng is read only when training with rate > 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return np.ones(shape, dtype=np.float64)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def dropout_fwd(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return x * mask


def dropout_bwd(mask: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * mask


# ------------------------------------------------------------------- CCC

def _ccc_moments(p: np.ndarray, t: np.ndarray):
    """(gap, dp, dt, cov, denom) of Lin's CCC for each column of (N, D) inputs.

    gap = mu_p - mu_t; dp, dt are (D, N) residuals; population moments.
    Each column is reduced as a contiguous row, as a 1-D reduction would.
    """
    p, t = np.ascontiguousarray(p.T), np.ascontiguousarray(t.T)
    mu_p = p.mean(axis=1, keepdims=True)
    mu_t = t.mean(axis=1, keepdims=True)
    # A constant column has exactly zero residuals; computing them as
    # value - mean would leave rounding dust and a not-quite-zero score.
    dp = np.where(np.all(p == p[:, :1], axis=1, keepdims=True), 0.0, p - mu_p)
    dt = np.where(np.all(t == t[:, :1], axis=1, keepdims=True), 0.0, t - mu_t)
    gap = (mu_p - mu_t)[:, 0]
    cov = (dp * dt).mean(axis=1)
    denom = (dp * dp).mean(axis=1) + (dt * dt).mean(axis=1) + gap * gap
    return gap, dp, dt, cov, denom


def ccc_columns(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Lin's concordance correlation of each column, population moments.

    Two identical constant columns are in perfect agreement (1.0); the
    degenerate zero denominator only happens in exactly that case.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if pred.shape != target.shape:
        raise ShapeMismatch(f"ccc: shape {pred.shape} vs {target.shape}")
    if len(pred) == 0:
        raise ShapeMismatch("ccc: empty input")
    *_, cov, denom = _ccc_moments(pred, target)
    ok = denom != 0.0
    return np.where(ok, 2.0 * cov / np.where(ok, denom, 1.0), 1.0)


def ccc(pred: np.ndarray, target: np.ndarray) -> float:
    """Lin's concordance correlation of two sequences; see :func:`ccc_columns`."""
    column = lambda a: np.asarray(a, dtype=np.float64).reshape(-1, 1)
    return float(ccc_columns(column(pred), column(target))[0])


def ccc_loss(pred: np.ndarray, target: np.ndarray):
    """Sum over output dims of (1 - CCC), with the gradient w.r.t. pred.

    A degenerate column (zero denominator) contributes zero loss and
    zero gradient.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ShapeMismatch(
            f"ccc_loss: need matching 2-D arrays, got {pred.shape} vs {target.shape}")
    n = pred.shape[0]
    if n == 0:
        raise ShapeMismatch("ccc: empty input")
    gap, dp, dt, cov, denom = _ccc_moments(pred, target)
    ok = denom != 0.0
    denom, cov, gap = denom[ok, None], cov[ok, None], gap[ok, None]
    loss = np.sum(1.0 - 2.0 * cov / denom)
    dcov = dt[ok] / n
    ddenom = 2.0 * dp[ok] / n + 2.0 * gap / n
    dc = (2.0 * dcov * denom - 2.0 * cov * ddenom) / (denom * denom)
    dpred = np.zeros_like(pred)
    dpred[:, ok] = -dc.T
    return float(loss), dpred


# ----------------------------------------------------------------- AdamW

class AdamW:
    """Adam with decoupled weight decay over one flat parameter vector."""

    def __init__(self, size: int, lr: float = 1e-5, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = np.zeros(size)
        self._v = np.zeros(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update theta in place from its gradient grad (same shape)."""
        self.t += 1
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        mhat = m / (1.0 - ADAM_BETA1 ** self.t)
        vhat = v / (1.0 - ADAM_BETA2 ** self.t)
        theta -= self.lr * (mhat / (np.sqrt(vhat) + ADAM_EPS)
                            + self.weight_decay * theta)


# ---------------------------------------------------------- grad checking

def grad_check(loss_fn, params, eps: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    loss_fn() must return the scalar loss and leave d(loss)/d(param) in
    each param's .grad.  It must be a deterministic pure function of the
    param values.
    """
    for p in params:
        p.grad[...] = 0.0
    base = loss_fn()
    if not np.isfinite(base):
        raise NumericalFailure(f"loss is not finite: {base}")
    analytic = {p.name: p.grad.copy() for p in params}
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            for q in params:
                q.grad[...] = 0.0
            up = loss_fn()
            flat[i] = orig - eps
            for q in params:
                q.grad[...] = 0.0
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[i]
            scale = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / scale)
    for p in params:
        p.grad[...] = analytic[p.name]
    return worst


# ------------------------------------------------------------ checkpoints

def finite_json(obj, where, **kwargs) -> str:
    """json.dumps(obj, **kwargs) for an artifact or report named by where.

    A NaN or infinity anywhere in obj raises NumericalFailure naming
    where; finite values encode exactly as json.dumps encodes them.
    """
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalFailure(f"{where}: {exc}") from exc


def save_checkpoint(params: dict[str, np.ndarray], path) -> None:
    """Write named parameter values as versioned JSON (bitwise round-trip)."""
    blob = {"version": CHECKPOINT_VERSION, "params": {}}
    for name, value in sorted(params.items()):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"checkpoint param {name!r} must be 2-D")
        blob["params"][name] = {
            "rows": arr.shape[0],
            "cols": arr.shape[1],
            "data": arr.reshape(-1).tolist(),
        }
    Path(path).write_text(finite_json(blob, path, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Named parameter values from a :func:`save_checkpoint` file.

    Any defect in the file raises :class:`NumericalFailure`: invalid JSON,
    another version, or a parameter that is not ``{"rows", "cols",
    "data"}`` with rows * cols finite numbers.
    """
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise NumericalFailure(f"checkpoint is not valid JSON: {exc}") from exc
    version = blob.get("version") if isinstance(blob, dict) else None
    if version != CHECKPOINT_VERSION:
        raise NumericalFailure(
            f"unsupported checkpoint version {version!r}, "
            f"expected {CHECKPOINT_VERSION!r}")
    params = blob.get("params", {})
    if not isinstance(params, dict):
        raise NumericalFailure("checkpoint 'params' must be a JSON object")
    out = {}
    for name, rec in params.items():
        try:
            rows, cols = rec["rows"], rec["cols"]
            arr = np.asarray(rec["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise NumericalFailure(
                f"checkpoint param {name!r} is malformed: {exc!r}") from exc
        if not (type(rows) is int and type(cols) is int and rows >= 0
                and cols >= 0 and arr.size == rows * cols):
            raise NumericalFailure(
                f"checkpoint param {name!r}: {arr.size} values for "
                f"shape ({rows!r}, {cols!r})")
        if not np.all(np.isfinite(arr)):
            raise NumericalFailure(
                f"checkpoint param {name!r} holds non-finite values")
        out[name] = arr.reshape(rows, cols)
    return out
