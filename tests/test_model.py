"""Fusion model: composable ops vs straight-line oracles, gradient checks,
determinism, and the training loop on a small synthetic task."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from msfser.errors import (
    LengthMismatch,
    NumericalFailure,
    ShapeMismatch,
    TooFewUtterances,
)
from msfser.model import (
    Batch,
    ModelConfig,
    MsfSerModel,
    TrainConfig,
    UttExample,
    _nonfinite_report,
    _film_bwd,
    _fuse_bwd,
    _moe_bwd,
    _pool_bwd,
    attentive_pool,
    config_hash,
    eval_report,
    evaluate,
    film_modulate,
    gated_fuse,
    make_batch,
    moe_combine,
    train_model,
)
from msfser.numcore import ccc, grad_check, seeded_rng


# ------------------------------------------------- straight-line oracles
# Pure-Python scalar reimplementations, loops and math.* only.

def pool_oracle(h, att_w, att_v):
    t_len, d = h.shape
    k = att_w.shape[1]
    u = [[math.tanh(sum(h[t][i] * att_w[i][j] for i in range(d)))
          for j in range(k)] for t in range(t_len)]
    s = [sum(u[t][j] * att_v[j][0] for j in range(k)) for t in range(t_len)]
    mx = max(s)
    e = [math.exp(x - mx) for x in s]
    z = sum(e)
    a = [x / z for x in e]
    m1 = [sum(a[t] * h[t][i] for t in range(t_len)) for i in range(d)]
    m2 = [sum(a[t] * h[t][i] * h[t][i] for t in range(t_len))
          for i in range(d)]
    sd = []
    for i in range(d):
        raw = m2[i] - m1[i] * m1[i]
        sd.append(math.sqrt((raw if raw > 0.0 else 0.0) + 1e-9))
    return np.array(m1 + sd)


def fuse_oracle(h_l, h_g, w, b):
    n, d = h_l.shape
    out = np.zeros((n, d))
    for r in range(n):
        z = b[0][0]
        z += sum(h_l[r][i] * w[i][0] for i in range(d))
        z += sum(h_g[r][i] * w[d + i][0] for i in range(d))
        g = 1.0 / (1.0 + math.exp(-z))
        for i in range(d):
            out[r][i] = g * h_l[r][i] + (1.0 - g) * h_g[r][i]
    return out


def film_oracle(x, cond, w1, b1, w2, b2):
    n, dx = x.shape
    dc = cond.shape[1]
    hid = w1.shape[1]
    out = np.zeros((n, dx))
    for r in range(n):
        t1 = [math.tanh(b1[0][j] + sum(cond[r][i] * w1[i][j]
                                       for i in range(dc)))
              for j in range(hid)]
        mods = [b2[0][j] + sum(t1[i] * w2[i][j] for i in range(hid))
                for j in range(2 * dx)]
        for i in range(dx):
            out[r][i] = (1.0 + mods[i]) * x[r][i] + mods[dx + i]
    return out


def moe_oracle(expert_out, logits):
    n_exp, n, d = expert_out.shape
    out = np.zeros((n, d))
    for dd in range(d):
        mx = max(logits[dd])
        e = [math.exp(v - mx) for v in logits[dd]]
        z = sum(e)
        pi = [v / z for v in e]
        for r in range(n):
            out[r][dd] = sum(pi[k] * expert_out[k][r][dd]
                             for k in range(n_exp))
    return out


def max_rel(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-10)
    return np.abs(np.asarray(a) - np.asarray(b)).max() / scale


class TestOpsAgainstOracles:
    def test_attentive_pool(self):
        rng = seeded_rng(20)
        for _ in range(20):
            t_len = int(rng.integers(1, 9))
            d, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            h = rng.standard_normal((t_len, d))
            w = rng.standard_normal((d, k))
            v = rng.standard_normal((k, 1))
            pooled, _ = attentive_pool(h, w, v)
            assert max_rel(pooled, pool_oracle(h, w, v)) <= 1e-10

    def test_gated_fuse(self):
        rng = seeded_rng(21)
        for _ in range(20):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            h_l = rng.standard_normal((n, d))
            h_g = rng.standard_normal((n, d))
            w = rng.standard_normal((2 * d, 1))
            b = rng.standard_normal((1, 1))
            fused, _ = gated_fuse(h_l, h_g, w, b)
            assert max_rel(fused, fuse_oracle(h_l, h_g, w, b)) <= 1e-10

    def test_film_modulate(self):
        rng = seeded_rng(22)
        for _ in range(20):
            n, dx = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            dc, hid = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            x = rng.standard_normal((n, dx))
            cond = rng.standard_normal((n, dc))
            w1 = rng.standard_normal((dc, hid))
            b1 = rng.standard_normal((1, hid))
            w2 = rng.standard_normal((hid, 2 * dx))
            b2 = rng.standard_normal((1, 2 * dx))
            y, _ = film_modulate(x, cond, w1, b1, w2, b2)
            assert max_rel(y, film_oracle(x, cond, w1, b1, w2, b2)) <= 1e-10

    def test_moe_combine(self):
        rng = seeded_rng(23)
        for _ in range(20):
            n_exp = int(rng.integers(1, 5))
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            eo = rng.standard_normal((n_exp, n, d))
            logits = rng.standard_normal((d, n_exp))
            pred, pi = moe_combine(eo, logits)
            assert max_rel(pred, moe_oracle(eo, logits)) <= 1e-10
            assert np.abs(pi.sum(axis=1) - 1.0).max() <= 1e-12


class TestOpInvariants:
    def test_film_zero_mlp_is_exact_identity(self):
        rng = seeded_rng(24)
        x = rng.standard_normal((4, 6))
        cond = rng.standard_normal((4, 3))
        w1 = rng.standard_normal((3, 5))
        b1 = rng.standard_normal((1, 5))
        y, _ = film_modulate(x, cond, w1, b1,
                             np.zeros((5, 12)), np.zeros((1, 12)))
        assert np.array_equal(y, x)

    def test_one_hot_routing_is_exact(self):
        rng = seeded_rng(25)
        eo = rng.standard_normal((3, 5, 3))
        logits = np.zeros((3, 3))
        logits[:, 1] = 800.0           # softmax underflows the others to 0
        pred, pi = moe_combine(eo, logits)
        assert np.array_equal(pi, np.tile([0.0, 1.0, 0.0], (3, 1)))
        assert np.array_equal(pred, eo[1])

    def test_fuse_output_is_convex_blend(self):
        rng = seeded_rng(26)
        h_l = rng.standard_normal((6, 4))
        h_g = rng.standard_normal((6, 4))
        fused, (_, _, _, g) = gated_fuse(h_l, h_g,
                                         rng.standard_normal((8, 1)),
                                         rng.standard_normal((1, 1)))
        lo = np.minimum(h_l, h_g)
        hi = np.maximum(h_l, h_g)
        assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)
        assert np.all((g > 0.0) & (g < 1.0))

    def test_pool_std_never_below_floor(self):
        h = np.ones((5, 3)) * 2.0      # zero variance rows
        pooled, _ = attentive_pool(h, np.zeros((3, 2)), np.zeros((2, 1)))
        assert np.allclose(pooled[:3], 2.0, atol=1e-15)
        assert np.allclose(pooled[3:], math.sqrt(1e-9), atol=1e-18)

    def test_one_frame_takes_the_floored_branch(self):
        rng = seeded_rng(26)
        h = rng.standard_normal((1, 4))
        pooled, cache = attentive_pool(h, rng.standard_normal((4, 3)),
                                       rng.standard_normal((3, 1)))
        assert not cache[-1].any()                      # pos
        assert np.array_equal(pooled[:4], h[0])
        assert np.all(pooled[4:] == math.sqrt(1e-9))

    def test_film_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            film_modulate(np.zeros((2, 4)), np.zeros((2, 3)),
                          np.zeros((3, 5)), np.zeros((1, 5)),
                          np.zeros((5, 6)), np.zeros((1, 6)))

    def test_moe_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            moe_combine(np.zeros((2, 4, 3)), np.zeros((3, 3)))


def _pool(shapes):
    return (attentive_pool,
            lambda cache, h, w, v, dy: _pool_bwd(cache, w, v, dy), shapes)


# (forward, backward(cache, *inputs, dy), input shapes); each backward
# returns one gradient per forward input, in the forward's order.
OP_BACKWARDS = {
    "pool": _pool([(6, 4), (4, 3), (3, 1)]),
    # one frame: the weighted variance is exactly 0, so the floored branch
    "pool_one_frame": _pool([(1, 4), (4, 3), (3, 1)]),
    "pool_d1": _pool([(6, 1), (1, 3), (3, 1)]),
    "pool_att1": _pool([(6, 4), (4, 1), (1, 1)]),
    "fuse": (gated_fuse,
             lambda cache, h_l, h_g, w, b, dy: _fuse_bwd(cache, w, dy),
             [(5, 3), (5, 3), (6, 1), (1, 1)]),
    "film": (film_modulate,
             lambda cache, x, cond, w1, b1, w2, b2, dy:
                 _film_bwd(cache, w1, w2, dy),
             [(4, 3), (4, 2), (2, 5), (1, 5), (5, 6), (1, 6)]),
    "moe": (moe_combine,
            lambda pi, expert_out, logits, dy: _moe_bwd(expert_out, pi, dy),
            [(3, 5, 2), (2, 3)]),
}


class TestOpBackward:
    @pytest.mark.parametrize("op", sorted(OP_BACKWARDS))
    def test_matches_finite_differences(self, op):
        fwd, bwd, shapes = OP_BACKWARDS[op]
        rng = seeded_rng(27)
        inputs = [rng.standard_normal(shape) for shape in shapes]
        out, cache = fwd(*inputs)
        r = rng.standard_normal(out.shape)

        def loss():
            return float((fwd(*inputs)[0] * r).sum())

        grads = bwd(cache, *inputs, r)
        assert len(grads) == len(inputs)
        eps = 1e-6
        for arr, grad in zip(inputs, grads):
            assert np.shape(grad) == arr.shape
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                down = loss()
                flat[i] = orig
                num = (up - down) / (2 * eps)
                assert abs(gflat[i] - num) / max(abs(num), abs(gflat[i]),
                                                 1e-8) <= 1e-6

    @pytest.mark.parametrize("op", sorted(k for k in OP_BACKWARDS
                                          if k.startswith("pool")))
    def test_pool_ops_write_no_input_or_cache(self, op):
        fwd, bwd, shapes = OP_BACKWARDS[op]
        rng = seeded_rng(28)
        inputs = [rng.standard_normal(shape) for shape in shapes]
        given = [a.copy() for a in inputs]
        out, cache = fwd(*inputs)
        dy = rng.standard_normal(out.shape)
        seen = [a.copy() for a in (*given, *cache, dy)]
        bwd(cache, *inputs, dy)
        bwd(cache, *inputs, dy)
        for a, b in zip((*inputs, *cache, dy), seen):
            assert np.array_equal(a, b)


# --------------------------------------------------------- model fixtures

def tiny_config(**kw):
    base = dict(acoustic_dim=5, les_dim=4, gs_dim=4, es_dim=3,
                d_model=6, att_dim=5, film_hidden=4, expert_hidden=6,
                dropout=0.0, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def tiny_examples(n, cfg, seed=0, latent=True):
    """Utterances whose targets are simple functions of the inputs."""
    rng = seeded_rng(seed)
    out = []
    for i in range(n):
        t_len = int(rng.integers(3, 8))
        frames = rng.standard_normal((t_len, cfg.acoustic_dim)) * 0.5
        les = rng.standard_normal(cfg.les_dim)
        gs = rng.standard_normal(cfg.gs_dim)
        es = rng.standard_normal(cfg.es_dim)
        if latent:
            target = np.array([les[0] + gs[0],
                               float(frames.mean()) * 3.0,
                               es[0]])
            target += 0.02 * rng.standard_normal(3)
        else:
            target = rng.standard_normal(3)
        out.append(UttExample(f"u{i:03d}", frames, les, gs, es, target))
    return out


class TestModelStructure:
    def test_param_inventory_full(self):
        model = MsfSerModel(tiny_config())
        names = set(model.params_dict())
        assert {"enc.w", "att.w", "att.v", "gate.w", "les.w", "gs.w",
                "es.w", "filmB.w1", "filmC.w1", "headA.w1", "headB.w1",
                "headC.w1", "route.logits"} <= names
        assert model.param("route.logits").value.shape == (3, 3)

    def test_param_inventory_acoustic_only(self):
        model = MsfSerModel(tiny_config(experts=("A",)))
        names = set(model.params_dict())
        assert "gate.w" not in names and "les.w" not in names
        assert "es.w" not in names and "filmB.w1" not in names
        assert model.param("route.logits").value.shape == (3, 1)

    def test_param_inventory_without_semantic_expert(self):
        model = MsfSerModel(tiny_config(experts=("A", "C")))
        names = set(model.params_dict())
        assert "es.w" in names and "filmC.w1" in names
        assert "gate.w" not in names and "les.w" not in names

    def test_film_params_start_as_identity(self):
        model = MsfSerModel(tiny_config())
        assert np.array_equal(model.param("filmB.w2").value,
                              np.zeros_like(model.param("filmB.w2").value))
        cfg = model.config
        examples = tiny_examples(3, cfg)
        pred, cache = model.forward(make_batch(examples))
        experts = {name: (film_cache, head_cache)
                   for name, film_cache, head_cache in cache["experts"]}
        assert experts["A"][0] is None
        pooled = experts["A"][1][0]         # expert A's head reads pooled
        for name in ("B", "C"):
            film_cache, head_cache = experts[name]
            assert film_cache[0] is pooled
            assert np.array_equal(head_cache[0], pooled)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(experts=())
        with pytest.raises(ValueError):
            tiny_config(experts=("A", "Z"))
        with pytest.raises(ValueError):
            tiny_config(experts=("A", "A"))
        for field in ("acoustic_dim", "les_dim", "gs_dim", "es_dim", "d_model",
                      "att_dim", "film_hidden", "expert_hidden"):
            for bad in (0, -3):
                with pytest.raises(ValueError, match=field):
                    tiny_config(**{field: bad})
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="dropout"):
                tiny_config(dropout=bad)
        tiny_config(dropout=0.0)
        tiny_config(dropout=0.99)

    def test_config_round_trip(self):
        cfg = tiny_config(experts=("A", "C"))
        assert ModelConfig.from_dict(asdict(cfg)) == cfg

    def test_config_hash_is_stable(self):
        h1 = config_hash({"a": 1, "b": [2, 3]})
        h2 = config_hash({"b": [2, 3], "a": 1})
        assert h1 == h2 and len(h1) == 12
        assert h1 != config_hash({"a": 2, "b": [2, 3]})

    def test_init_is_deterministic(self):
        p1 = MsfSerModel(tiny_config()).params_dict()
        p2 = MsfSerModel(tiny_config()).params_dict()
        assert set(p1) == set(p2)
        for name in p1:
            assert np.array_equal(p1[name], p2[name])

    def test_batch_validation(self):
        model = MsfSerModel(tiny_config())
        good = tiny_examples(2, model.config)
        bad = tiny_examples(2, model.config)
        bad[0].frames = bad[0].frames[:, :3]
        with pytest.raises(ShapeMismatch):
            model.forward(make_batch(bad))
        bad2 = tiny_examples(2, model.config)
        for e in bad2:
            e.les = e.les[:2]
        with pytest.raises(ShapeMismatch):
            model.forward(make_batch(bad2))
        model.forward(make_batch(good))

    def test_train_forward_needs_rng_when_dropping(self):
        model = MsfSerModel(tiny_config(dropout=0.5))
        batch = make_batch(tiny_examples(2, model.config))
        with pytest.raises(ValueError):
            model.forward(batch, train=True)

    def test_params_are_views_of_theta_and_grad(self):
        model = MsfSerModel(tiny_config())
        assert model.n_params == sum(p.value.size for p in model.params())
        assert model.theta.shape == model.grad.shape == (model.n_params,)
        for p in model.params():
            assert np.shares_memory(p.value, model.theta)
            assert np.shares_memory(p.grad, model.grad)
        model.param("route.logits").grad[...] = 7.0
        assert np.count_nonzero(model.grad == 7.0) == 9
        model.theta[0] = 3.5
        assert model.param("enc.w").value[0, 0] == 3.5

    def test_load_params_round_trip_and_errors(self):
        model = MsfSerModel(tiny_config())
        other = MsfSerModel(tiny_config(seed=9))
        other.load_params(model.params_dict())
        for name, arr in model.params_dict().items():
            assert np.array_equal(other.param(name).value, arr)
        partial = model.params_dict()
        partial.pop("enc.w")
        with pytest.raises(ShapeMismatch):
            other.load_params(partial)
        wrong = model.params_dict()
        wrong["enc.w"] = wrong["enc.w"][:, :2]
        with pytest.raises(ShapeMismatch):
            other.load_params(wrong)

    def test_make_batch_behavior(self):
        cfg = tiny_config()
        examples = tiny_examples(3, cfg)
        batch = make_batch(examples)
        assert len(batch) == 3 and batch.targets.shape == (3, 3)
        examples[1].target = None
        assert make_batch(examples).targets is None
        with pytest.raises(TooFewUtterances):
            make_batch([])


class TestModelGradients:
    def test_full_loss_gradient_check(self):
        model = MsfSerModel(tiny_config())
        rng = seeded_rng(30)
        for p in model.params():   # move off the zero-init saddle points
            p.value += 0.05 * rng.standard_normal(p.value.shape)
        batch = make_batch(tiny_examples(3, model.config, seed=1))

        def loss_fn():
            return model.loss_and_grad(batch, train=False)

        assert grad_check(loss_fn, model.params()) <= 1e-4

    def test_gradient_check_with_a_one_frame_utterance(self):
        model = MsfSerModel(tiny_config())
        rng = seeded_rng(31)
        for p in model.params():
            p.value += 0.05 * rng.standard_normal(p.value.shape)
        examples = tiny_examples(3, model.config, seed=2)
        examples[1].frames = examples[1].frames[:1]
        batch = make_batch(examples)

        def loss_fn():
            return model.loss_and_grad(batch, train=False)

        assert grad_check(loss_fn, model.params()) <= 1e-4

    def test_gradients_accumulate_additively(self):
        model = MsfSerModel(tiny_config())
        b1 = make_batch(tiny_examples(2, model.config, seed=1))
        b2 = make_batch(tiny_examples(2, model.config, seed=2))
        model.zero_grad()
        model.loss_and_grad(b1)
        g_first = {p.name: p.grad.copy() for p in model.params()}
        model.loss_and_grad(b2)
        g_both = {p.name: p.grad.copy() for p in model.params()}
        model.zero_grad()
        model.loss_and_grad(b2)
        for p in model.params():
            assert np.allclose(g_both[p.name] - g_first[p.name], p.grad,
                               atol=1e-12)

    def test_grad_scale_scales_gradients(self):
        model = MsfSerModel(tiny_config())
        batch = make_batch(tiny_examples(3, model.config, seed=1))
        model.zero_grad()
        model.loss_and_grad(batch, grad_scale=1.0)
        full = {p.name: p.grad.copy() for p in model.params()}
        model.zero_grad()
        model.loss_and_grad(batch, grad_scale=0.25)
        for p in model.params():
            assert np.allclose(p.grad * 4.0, full[p.name], atol=1e-13)

    def test_loss_requires_targets(self):
        model = MsfSerModel(tiny_config())
        examples = tiny_examples(2, model.config)
        for e in examples:
            e.target = None
        with pytest.raises(LengthMismatch):
            model.loss_and_grad(make_batch(examples))


class TestModelBehavior:
    def test_one_hot_route_selects_expert_exactly(self):
        model = MsfSerModel(tiny_config())
        model.param("route.logits").value[...] = 0.0
        model.param("route.logits").value[0, 2] = 800.0
        batch = make_batch(tiny_examples(4, model.config))
        pred, cache = model.forward(batch)
        assert np.array_equal(pred[:, 0], cache["expert_out"][2, :, 0])

    def test_predict_independent_of_eval_batch_size(self):
        model = MsfSerModel(tiny_config())
        data = tiny_examples(11, model.config, seed=5)
        small = evaluate(model, data, eval_batch=3)
        big = evaluate(model, data, eval_batch=64)
        assert np.allclose(small["pred"], big["pred"], atol=1e-12)

    def test_forward_eval_is_deterministic(self):
        model = MsfSerModel(tiny_config(dropout=0.5))
        batch = make_batch(tiny_examples(3, model.config))
        assert np.array_equal(model.predict(batch), model.predict(batch))

    def test_dropout_changes_train_forward(self):
        model = MsfSerModel(tiny_config(dropout=0.5))
        batch = make_batch(tiny_examples(3, model.config))
        p1, _ = model.forward(batch, train=True, rng=seeded_rng(1))
        p2, _ = model.forward(batch, train=True, rng=seeded_rng(2))
        assert not np.array_equal(p1, p2)

    def test_training_learns_the_latent_task(self):
        cfg = tiny_config(d_model=8, dropout=0.1)
        model = MsfSerModel(cfg)
        data = tiny_examples(40, cfg, seed=11)
        history = train_model(
            model, data,
            TrainConfig(epochs=30, batch_size=10, accum_steps=2,
                        lr=5e-3, weight_decay=1e-4, seed=0))
        assert len(history) == 30
        assert history[-1]["train_loss"] < history[0]["train_loss"] * 0.7
        res = evaluate(model, data)
        assert float(np.mean(res["ccc"])) > 0.5

    def test_training_is_deterministic(self):
        cfg = tiny_config(d_model=8, dropout=0.3)
        data = tiny_examples(20, cfg, seed=13)
        tc = TrainConfig(epochs=4, batch_size=8, accum_steps=2, lr=1e-3,
                         seed=7)
        m1, m2 = MsfSerModel(cfg), MsfSerModel(cfg)
        h1 = train_model(m1, data, tc)
        h2 = train_model(m2, data, tc)
        assert h1 == h2
        for name, arr in m1.params_dict().items():
            assert np.array_equal(arr, m2.params_dict()[name])

    def test_nonfinite_gradient_stops_training(self):
        model = MsfSerModel(tiny_config(dropout=0.0))
        data = tiny_examples(4, model.config, seed=3)
        data[2].frames[1, 0] = np.nan
        before = model.theta.copy()
        with pytest.raises(NumericalFailure,
                           match=r"epoch 1, step 1: gradient of 'enc.w'"):
            train_model(model, data, TrainConfig(epochs=2, batch_size=4,
                                                 accum_steps=1, lr=1e-3))
        assert np.array_equal(model.theta, before)

    def test_nonfinite_report_finds_parameter_by_offset(self):
        model = MsfSerModel(tiny_config())
        assert _nonfinite_report(model, 3, 2) == \
            "epoch 3, step 2: training loss is not finite"
        model.param("headB.w1").grad[1, 2] = np.inf
        model.param("route.logits").grad[0, 0] = np.nan
        assert _nonfinite_report(model, 3, 2) == \
            "epoch 3, step 2: gradient of 'headB.w1' is not finite"

    def test_train_requires_two_utterances(self):
        model = MsfSerModel(tiny_config())
        with pytest.raises(TooFewUtterances):
            train_model(model, tiny_examples(1, model.config),
                        TrainConfig(epochs=1))

    def test_history_tracks_dev_set(self):
        cfg = tiny_config(d_model=8)
        model = MsfSerModel(cfg)
        data = tiny_examples(12, cfg, seed=17)
        history = train_model(model, data[:8],
                              TrainConfig(epochs=2, batch_size=4,
                                          accum_steps=1, lr=1e-3),
                              dev_set=data[8:])
        assert all("dev_ccc_avg" in row for row in history)

    def test_evaluate_matches_ccc(self):
        model = MsfSerModel(tiny_config())
        data = tiny_examples(9, model.config, seed=19)
        res = evaluate(model, data)
        pred = model.predict(make_batch(data))
        target = np.stack([e.target for e in data])
        for d in range(3):
            assert res["ccc"][d] == pytest.approx(
                ccc(pred[:, d], target[:, d]), abs=1e-12)

    def test_eval_report_schema(self):
        model = MsfSerModel(tiny_config())
        data = tiny_examples(6, model.config, seed=23)
        report = eval_report(model, data, extra_config={"note": 1})
        assert set(report) == {"ccc_v", "ccc_a", "ccc_d", "ccc_avg",
                               "n_utterances", "config_hash"}
        assert report["n_utterances"] == 6
        assert report["ccc_avg"] == pytest.approx(
            (report["ccc_v"] + report["ccc_a"] + report["ccc_d"]) / 3.0,
            abs=1e-12)

    def test_evaluate_needs_targets_and_examples(self):
        model = MsfSerModel(tiny_config())
        data = tiny_examples(3, model.config)
        data[0].target = None
        with pytest.raises(LengthMismatch):
            evaluate(model, data)
        with pytest.raises(TooFewUtterances):
            evaluate(model, data[:1])
