"""Multi-channel emotion regression: fusion, experts, training, evaluation.

Architecture, per utterance:

  acoustic frames --linear+tanh--> h_t --attentive stats pooling--> pooled
  les / gs vectors --linear+tanh--> h_l, h_g
  scalar gate g = sigmoid(W_g [h_l; h_g] + b_g);  h_sem = g*h_l + (1-g)*h_g
  es vector --linear+tanh--> h_ext

  expert A: head(pooled)
  expert B: head(film(pooled | h_sem))      film: y = (1 + mul)*x + add
  expert C: head(film(pooled | h_ext))
  head (expert_head): linear -> layer_norm -> tanh -> dropout -> linear -> 3

  y[:, d] = sum_e pi[d, e] * expert_e[:, d]   with pi = row-softmax of a
  free (input-independent) routing logit table, one row per output dim
  (valence, arousal, dominance).

The FiLM generators are two-layer MLPs whose output layer starts at
zero, so every expert begins as the plain pooled statistics and the
modulation is learned.  Training minimizes sum_d (1 - CCC_d) with AdamW
and gradient accumulation.  Each op reads a layer's weights in the order
the model groups them; its hand-written backward sits beside it and reads
only its cache, which holds those weights.  MsfSerModel.backward chains
them, and each is verifiable by central finite differences.

The encoder and attentive pooling run once per utterance, so their
backward is the hot loop: it adds each utterance's att.* and enc.*
gradients straight into the Param.grad views, takes the encoder's tanh
backward from the h*h that pooling cached, and never forms the
encoder's input gradient, which nothing reads.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .config import CHANNELS, ModelConfig, TrainConfig
from .errors import (
    NumericalFailure,
    ShapeMismatch,
    TooFewUtterances,
    finite_json,
)
from .numcore import (
    AdamW,
    Param,
    ccc_columns,
    ccc_loss,
    dropout_mask,
    glorot_uniform,
    layer_norm_bwd,
    layer_norm_fwd,
    linear_bwd,
    linear_fwd,
    seeded_rng,
    sigmoid,
    sigmoid_bwd,
    softmax,
    softmax_bwd,
    tanh_bwd,
)

VAR_FLOOR = 1e-9
EVAL_BATCH = 64                              # utterances per evaluation forward


@dataclass
class UttExample:
    """One utterance ready for the model."""

    utt_id: str
    frames: np.ndarray              # (T, acoustic_dim)
    les: np.ndarray
    gs: np.ndarray
    es: np.ndarray
    target: np.ndarray              # (3,) valence, arousal, dominance


@dataclass
class Batch:
    utt_ids: tuple[str, ...]
    frames: list                    # per-utterance (T_i, acoustic_dim)
    les: np.ndarray                 # (B, les_dim)
    gs: np.ndarray
    es: np.ndarray
    targets: np.ndarray             # (B, 3)

    def __len__(self) -> int:
        return len(self.frames)


def make_batch(examples) -> Batch:
    if not examples:
        raise TooFewUtterances("cannot build an empty batch")
    return Batch(
        utt_ids=tuple(e.utt_id for e in examples),
        frames=[np.asarray(e.frames, dtype=np.float64) for e in examples],
        targets=np.stack([np.asarray(e.target, dtype=np.float64)
                          for e in examples]),
        **{ch: np.stack([np.asarray(getattr(e, ch), dtype=np.float64)
                         for e in examples]) for ch in CHANNELS},
    )


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable config."""
    canon = finite_json(obj, "config", sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# ------------------------------------------------ composable operations

# Each op's cache: what its backward reads, the weights included.
PoolCache = namedtuple("PoolCache", "h hh u a m1 sd pos att_w att_v")
FuseCache = namedtuple("FuseCache", "h_l h_g cat g gate_w")
FilmCache = namedtuple("FilmCache", "x cond t1 gamma w1 w2")
HeadCache = namedtuple("HeadCache", "x ln act mask dropped w1 w2")


def attentive_pool(h: np.ndarray, att_w: np.ndarray, att_v: np.ndarray):
    """Attention-weighted mean and standard deviation over frames.

    h is (T, d); the result is (2d,) = [weighted mean; weighted std],
    with the weighted variance floored at 0 before the +1e-9 stabilizer.
    The attention weights a are a (T,) vector and each moment is one
    matrix-vector product.  Returns (pooled, PoolCache); the encoder's
    backward reads its hh too.
    """
    u = h @ att_w                               # (T, att_dim)
    np.tanh(u, out=u)
    a = softmax(u @ att_v[:, 0], axis=0)        # (T,)
    hh = h * h
    m1 = a @ h                                  # (d,)
    raw = a @ hh - m1 * m1
    pos = raw > 0.0
    sd = np.sqrt(np.where(pos, raw, 0.0) + VAR_FLOOR)
    pooled = np.concatenate([m1, sd])
    return pooled, PoolCache(h, hh, u, a, m1, sd, pos, att_w, att_v)


def _pool_bwd(cache: PoolCache, dpooled: np.ndarray):
    h, hh, u, a, m1, sd, pos, att_w, att_v = cache
    d = h.shape[1]
    dm2 = (dpooled[d:] / (2.0 * sd)) * pos      # d(var) = d(m2)
    dm1 = dpooled[:d] - 2.0 * m1 * dm2
    ds = softmax_bwd(a, h @ dm1 + hh @ dm2, axis=0)
    datt_v = (ds @ u)[:, None]
    dz = u * u                                  # tanh backward, in place:
    np.subtract(1.0, dz, out=dz)                # dz = (1 - u^2) * ds v^T
    dz *= ds[:, None]
    dz *= att_v[:, 0]
    dh = dz @ att_w.T
    dh += a[:, None] * (dm1 + h * (2.0 * dm2))
    return dh, h.T @ dz, datt_v


def gated_fuse(h_l: np.ndarray, h_g: np.ndarray,
               gate_w: np.ndarray, gate_b: np.ndarray):
    """Scalar-gated blend of the two semantic encodings, per sample.

    g = sigmoid([h_l; h_g] W + b) is (B, 1); output g*h_l + (1-g)*h_g.
    Returns (h_sem, FuseCache).
    """
    cat = np.concatenate([h_l, h_g], axis=1)
    g = sigmoid(linear_fwd(cat, gate_w, gate_b))
    h_sem = g * h_l + (1.0 - g) * h_g
    return h_sem, FuseCache(h_l, h_g, cat, g, gate_w)


def _fuse_bwd(cache: FuseCache, dh_sem: np.ndarray):
    h_l, h_g, cat, g, gate_w = cache
    dg = ((h_l - h_g) * dh_sem).sum(axis=1, keepdims=True)
    dh_l = g * dh_sem
    dh_g = (1.0 - g) * dh_sem
    dcat, dgate_w, dgate_b = linear_bwd(cat, gate_w, sigmoid_bwd(g, dg))
    d = h_l.shape[1]
    dh_l += dcat[:, :d]
    dh_g += dcat[:, d:]
    return dh_l, dh_g, dgate_w, dgate_b


def film_modulate(x: np.ndarray, cond: np.ndarray,
                  w1: np.ndarray, b1: np.ndarray,
                  w2: np.ndarray, b2: np.ndarray):
    """Feature-wise linear modulation of x, conditioned on cond.

    A two-layer MLP maps cond to (scale_raw, shift); the output is
    (1 + scale_raw) * x + shift, so all-zero MLP output is exactly the
    identity.  Returns (modulated, FilmCache).
    """
    z1 = linear_fwd(cond, w1, b1)
    t1 = np.tanh(z1)
    mods = linear_fwd(t1, w2, b2)
    half = mods.shape[1] // 2
    if mods.shape[1] != 2 * x.shape[1]:
        raise ShapeMismatch(
            f"film: modulator width {mods.shape[1]} != 2 * {x.shape[1]}")
    gamma = 1.0 + mods[:, :half]
    beta = mods[:, half:]
    return gamma * x + beta, FilmCache(x, cond, t1, gamma, w1, w2)


def _film_bwd(cache: FilmCache, dy: np.ndarray):
    x, cond, t1, gamma, w1, w2 = cache
    dmods = np.concatenate([dy * x, dy], axis=1)     # [dgamma, dbeta]
    dt1, dw2, db2 = linear_bwd(t1, w2, dmods)
    dcond, dw1, db1 = linear_bwd(cond, w1, tanh_bwd(t1, dt1))
    return dy * gamma, dcond, dw1, db1, dw2, db2


def expert_head(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, ln_g: np.ndarray,
                ln_b: np.ndarray, w2: np.ndarray, b2: np.ndarray, mask: np.ndarray):
    """linear -> layer_norm -> tanh -> dropout (times mask) -> linear.

    Returns (out, HeadCache); its ln is layer_norm_fwd's cache.
    """
    ln, ln_cache = layer_norm_fwd(linear_fwd(x, w1, b1), ln_g, ln_b)
    act = np.tanh(ln)
    dropped = act * mask
    return (linear_fwd(dropped, w2, b2),
            HeadCache(x, ln_cache, act, mask, dropped, w1, w2))


def _head_bwd(cache: HeadCache, dout: np.ndarray):
    x, ln_cache, act, mask, dropped, w1, w2 = cache
    dact, dw2, db2 = linear_bwd(dropped, w2, dout)
    dhz, dln_g, dln_b = layer_norm_bwd(ln_cache, tanh_bwd(act, dact * mask))
    dx, dw1, db1 = linear_bwd(x, w1, dhz)
    return dx, dw1, db1, dln_g, dln_b, dw2, db2


def moe_combine(expert_out: np.ndarray, route_logits: np.ndarray):
    """Blend expert predictions with per-output-dim routing weights.

    expert_out is (E, B, D); route_logits is (D, E) and is softmaxed
    over experts row-wise.  Returns (pred (B, D), pi (D, E)).
    """
    if expert_out.shape[0] != route_logits.shape[1] \
            or expert_out.shape[2] != route_logits.shape[0]:
        raise ShapeMismatch(
            f"moe: {expert_out.shape[0]} experts x {expert_out.shape[2]} dims "
            f"vs logits {route_logits.shape}")
    pi = softmax(route_logits, axis=1)
    pred = np.einsum("de,ebd->bd", pi, expert_out)
    return pred, pi


def _moe_bwd(expert_out: np.ndarray, pi: np.ndarray, dpred: np.ndarray):
    dpi = np.einsum("bd,ebd->de", dpred, expert_out)
    return np.einsum("de,bd->ebd", pi, dpred), softmax_bwd(pi, dpi, axis=1)


class MsfSerModel:
    """The gated-fusion mixture-of-experts regressor."""

    def __init__(self, config: ModelConfig,
                 params: dict[str, np.ndarray] | None = None):
        """Weights drawn from config.seed or, given params (a checkpoint's,
        say), those values, and then nothing is drawn."""
        self.config = config
        rng = seeded_rng(config.seed) if params is None else None
        d, p = config.d_model, 2 * config.d_model
        values: dict[str, np.ndarray] = {}
        par = values.__setitem__

        def glorot(n_in: int, n_out: int) -> np.ndarray:
            if rng is None:                 # load_params fills it
                return np.empty((n_in, n_out))
            return glorot_uniform(rng, n_in, n_out)

        def layer(prefix: str, n_in: int, n_out: int, i: str = "") -> None:
            # a linear layer: weight {prefix}.w{i}, then bias {prefix}.b{i}
            par(f"{prefix}.w{i}", glorot(n_in, n_out))
            par(f"{prefix}.b{i}", np.zeros((1, n_out)))

        layer("enc", config.acoustic_dim, d)
        par("att.w", glorot(d, config.att_dim))
        par("att.v", glorot(config.att_dim, 1))

        if "B" in config.experts:
            layer("les", config.les_dim, d)
            layer("gs", config.gs_dim, d)
            layer("gate", 2 * d, 1)
        if "C" in config.experts:
            layer("es", config.es_dim, d)
        for name in ("B", "C"):
            if name in config.experts:
                layer(f"film{name}", d, config.film_hidden, "1")
                par(f"film{name}.w2", np.zeros((config.film_hidden, 2 * p)))
                par(f"film{name}.b2", np.zeros((1, 2 * p)))
        h = config.expert_hidden
        for name in config.experts:
            layer(f"head{name}", p, h, "1")
            par(f"head{name}.ln_g", np.ones((1, h)))
            par(f"head{name}.ln_b", np.zeros((1, h)))
            layer(f"head{name}", h, 3, "2")
        par("route.logits", np.zeros((3, len(config.experts))))

        self.theta = np.concatenate([a.reshape(-1) for a in values.values()])
        self.grad = np.zeros_like(self.theta)
        ends = np.cumsum([a.size for a in values.values()])[:-1]
        self._params: dict[str, Param] = {}
        self._layers: dict[str, list[Param]] = {}   # by name prefix
        for (name, a), t, g in zip(values.items(), np.split(self.theta, ends),
                                   np.split(self.grad, ends)):
            self._params[name] = Param(name, t.reshape(a.shape), g.reshape(a.shape))
            self._layers.setdefault(name.split(".")[0], []).append(self._params[name])
        if params is not None:
            self.load_params(params)

    # ------------------------------------------------------ accessors

    def params(self):
        return list(self._params.values())

    def param(self, name: str) -> Param:
        return self._params[name]

    @property
    def n_params(self) -> int:
        return self.theta.size

    def params_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_params(self, values: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(values)
        extra = set(values) - set(self._params)
        if missing or extra:
            raise ShapeMismatch(
                f"parameter names do not match model: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}")
        for name, arr in values.items():
            if arr.shape != self._params[name].value.shape:
                raise ShapeMismatch(
                    f"param {name!r}: checkpoint shape {arr.shape} != "
                    f"model shape {self._params[name].value.shape}")
            self._params[name].value[...] = arr

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def _weights(self, layer: str) -> list[np.ndarray]:
        """The values of a layer's parameters, in its op's order."""
        return [p.value for p in self._layers[layer]]

    def _add_grads(self, layer: str, grads) -> None:
        for p, grad in zip(self._layers[layer], grads):
            p.grad[...] += grad

    # -------------------------------------------------------- forward

    def _check_batch(self, batch: Batch) -> None:
        cfg = self.config
        for i, fr in enumerate(batch.frames):
            if fr.ndim != 2 or fr.shape[1] != cfg.acoustic_dim:
                raise ShapeMismatch(
                    f"utterance {batch.utt_ids[i]!r}: frames shape {fr.shape}, "
                    f"expected (T, {cfg.acoustic_dim})")
            if fr.shape[0] < 1:
                raise ShapeMismatch(
                    f"utterance {batch.utt_ids[i]!r} has no frames")
        for ch in CHANNELS:
            arr, want = getattr(batch, ch), getattr(cfg, f"{ch}_dim")
            if arr.shape != (len(batch), want):
                raise ShapeMismatch(
                    f"{ch} block has shape {arr.shape}, expected "
                    f"({len(batch)}, {want})")

    def forward(self, batch: Batch, train: bool = False,
                rng: np.random.Generator | None = None):
        """Predictions (B, 3) plus the cache needed for backward()."""
        self._check_batch(batch)
        cfg = self.config
        if train and cfg.dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")

        (enc_w, enc_b), (att_w, att_v) = self._weights("enc"), self._weights("att")
        pooled_rows, enc = [], []
        for fr in batch.frames:
            h = fr @ enc_w
            h += enc_b
            np.tanh(h, out=h)
            pooled, pool_cache = attentive_pool(h, att_w, att_v)
            pooled_rows.append(pooled)
            enc.append(pool_cache)
        pooled = np.stack(pooled_rows)              # (B, 2d)

        sem = {ch: np.tanh(linear_fwd(getattr(batch, ch), *self._weights(ch)))
               for ch in CHANNELS if ch in self._layers}
        cond, fuse_cache = {}, None
        if "B" in cfg.experts:
            cond["B"], fuse_cache = gated_fuse(sem["les"], sem["gs"],
                                               *self._weights("gate"))
        if "C" in cfg.experts:
            cond["C"] = sem["es"]

        outs, experts = [], []
        for name in cfg.experts:
            x, film_cache = pooled, None
            if name in cond:
                x, film_cache = film_modulate(pooled, cond[name],
                                              *self._weights(f"film{name}"))
            mask = dropout_mask(rng, (len(batch), cfg.expert_hidden), cfg.dropout, train)
            out, head_cache = expert_head(x, *self._weights(f"head{name}"), mask)
            outs.append(out)
            experts.append((name, film_cache, head_cache))

        expert_out = np.stack(outs)                 # (E, B, 3)
        pred, pi = moe_combine(expert_out, *self._weights("route"))
        return pred, {"batch": batch, "enc": enc, "sem": sem, "fuse": fuse_cache,
                      "experts": experts, "expert_out": expert_out, "pi": pi}

    # ------------------------------------------------------- backward

    def backward(self, cache, dpred: np.ndarray) -> None:
        """Accumulate d(loss)/d(param) into .grad for every parameter."""
        batch: Batch = cache["batch"]
        dout, dlogits = _moe_bwd(cache["expert_out"], cache["pi"], dpred)
        self._add_grads("route", (dlogits,))

        dpooled = np.zeros((len(batch), 2 * self.config.d_model))
        dcond = {}
        for (name, film_cache, head_cache), d in zip(cache["experts"], dout):
            dx, *dhead = _head_bwd(head_cache, d)
            self._add_grads(f"head{name}", dhead)
            if film_cache is not None:
                dx, dcond[name], *dfilm = _film_bwd(film_cache, dx)
                self._add_grads(f"film{name}", dfilm)
            dpooled += dx

        dsem = {}
        if "B" in dcond:
            dsem["les"], dsem["gs"], *dgate = _fuse_bwd(cache["fuse"], dcond["B"])
            self._add_grads("gate", dgate)
        if "C" in dcond:
            dsem["es"] = dcond["C"]
        for ch, h in cache["sem"].items():
            _, *dlayer = linear_bwd(getattr(batch, ch), self._weights(ch)[0],
                                    tanh_bwd(h, dsem[ch]))
            self._add_grads(ch, dlayer)

        # The encoder's input gradient is never needed, so it is not formed.
        g_att_w, g_att_v, g_enc_w, g_enc_b = (
            p.grad for layer in ("att", "enc") for p in self._layers[layer])
        for fr, pool_cache, dp in zip(batch.frames, cache["enc"], dpooled):
            dz, datt_w, datt_v = _pool_bwd(pool_cache, dp)
            g_att_w += datt_w
            g_att_v += datt_v
            dz *= 1.0 - pool_cache.hh               # tanh backward
            g_enc_w += fr.T @ dz
            g_enc_b += np.ones(len(dz)) @ dz        # column sums; .sum(0) is slower

    # ----------------------------------------------------------- loss

    def loss_and_grad(self, batch: Batch, train: bool = False,
                      rng: np.random.Generator | None = None,
                      grad_scale: float = 1.0) -> float:
        pred, cache = self.forward(batch, train=train, rng=rng)
        loss, dpred = ccc_loss(pred, batch.targets)
        self.backward(cache, dpred * grad_scale)
        return loss


# ------------------------------------------------------------- training

def train_model(model: MsfSerModel, train_set, cfg: TrainConfig,
                dev_set=None, log=None) -> list[dict]:
    """Seeded, deterministic training; returns per-epoch history rows.

    Each optimizer step averages gradients over up to accum_steps
    micro-batches of batch_size utterances.  Micro-batches of fewer than
    two utterances are skipped: the concordance loss is constant there.
    A non-finite loss or gradient raises NumericalFailure before the step.
    """
    if len(train_set) < 2:
        raise TooFewUtterances(
            f"need at least 2 training utterances, got {len(train_set)}")
    opt = AdamW(model.n_params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = seeded_rng(cfg.seed)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_set))
        micro = [order[i:i + cfg.batch_size]
                 for i in range(0, len(order), cfg.batch_size)]
        micro = [m for m in micro if len(m) >= 2]
        losses = []
        for step, start in enumerate(range(0, len(micro), cfg.accum_steps), 1):
            group = micro[start:start + cfg.accum_steps]
            model.zero_grad()
            for idx in group:
                batch = make_batch([train_set[i] for i in idx])
                loss = model.loss_and_grad(batch, train=True, rng=rng,
                                           grad_scale=1.0 / len(group))
                losses.append(loss)
            if not np.isfinite(model.grad).all() \
                    or not np.isfinite(losses[-len(group):]).all():
                raise NumericalFailure(_nonfinite_report(model, epoch, step))
            opt.step(model.theta, model.grad)
        row = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if dev_set is not None:
            row["dev_ccc_avg"] = float(np.mean(
                evaluate(model, dev_set)["ccc"]))
        history.append(row)
        if log is not None:
            log(row)
    return history


def _nonfinite_report(model: MsfSerModel, epoch: int, step: int) -> str:
    """Name the first parameter with a non-finite gradient, else the loss."""
    where = f"epoch {epoch}, step {step}"
    for p in model.params():
        if not np.isfinite(p.grad).all():
            return f"{where}: gradient of {p.name!r} is not finite"
    return f"{where}: training loss is not finite"


def evaluate(model: MsfSerModel, dataset) -> dict:
    """Held-out predictions and per-dimension CCC."""
    if len(dataset) < 2:
        raise TooFewUtterances(
            f"need at least 2 utterances to evaluate, got {len(dataset)}")
    preds, targets = [], []
    for start in range(0, len(dataset), EVAL_BATCH):
        batch = make_batch(dataset[start:start + EVAL_BATCH])
        preds.append(model.forward(batch)[0])
        targets.append(batch.targets)
    pred = np.concatenate(preds)
    target = np.concatenate(targets)
    per_dim = ccc_columns(pred, target)
    return {"ccc": per_dim, "pred": pred, "target": target,
            "n_utterances": len(dataset)}


def eval_report(model: MsfSerModel, dataset, extra_config: dict) -> dict:
    """The JSON document emitted by the eval command."""
    res = evaluate(model, dataset)
    cfg = {"model": asdict(model.config), **extra_config}
    return {
        "ccc_v": float(res["ccc"][0]),
        "ccc_a": float(res["ccc"][1]),
        "ccc_d": float(res["ccc"][2]),
        "ccc_avg": float(np.mean(res["ccc"])),
        "n_utterances": res["n_utterances"],
        "config_hash": config_hash(cfg),
    }
