"""Fusion model: op invariants and backwards, gradient checks, determinism,
and the training loop on a small synthetic task.

The ops' straight-line oracles are C2's, in test_acceptance.py, which also
makes C1's full-model gradient check and C3's exact identities; README's
"Acceptance suite" names the one home of each scalar twin."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from msfser.config import FEATURES, from_dict
from msfser.errors import (
    NumericalFailure,
    ShapeMismatch,
    TooFewUtterances,
)
from msfser.model import (
    ModelConfig,
    MsfSerModel,
    TrainConfig,
    UttExample,
    _nonfinite_report,
    _film_bwd,
    _fuse_bwd,
    _head_bwd,
    _moe_bwd,
    _pool_bwd,
    attentive_pool,
    config_hash,
    eval_report,
    evaluate,
    expert_head,
    film_modulate,
    gated_fuse,
    make_batch,
    moe_combine,
    train_model,
)
from msfser.numcore import ccc, grad_check, seeded_rng


class TestOpInvariants:
    def test_fuse_output_is_convex_blend(self):
        rng = seeded_rng(26)
        h_l = rng.standard_normal((6, 4))
        h_g = rng.standard_normal((6, 4))
        fused, cache = gated_fuse(h_l, h_g, rng.standard_normal((8, 1)),
                                  rng.standard_normal((1, 1)))
        lo = np.minimum(h_l, h_g)
        hi = np.maximum(h_l, h_g)
        assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)
        assert np.all((cache.g > 0.0) & (cache.g < 1.0))

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
        assert not cache.pos.any()
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


def _moe(expert_out, logits):
    """moe_combine, with the expert outputs that _moe_bwd reads cached too."""
    pred, pi = moe_combine(expert_out, logits)
    return pred, (expert_out, pi)


# a fixed dropout mask for the head: 0 or 1 / (1 - 0.5) per hidden unit
HEAD_MASK = np.resize([2.0, 0.0, 2.0, 2.0, 0.0, 0.0, 2.0], (5, 6))

# (forward, backward(cache, dy), input shapes); each backward returns one
# gradient per forward input, in the forward's order.
OP_BACKWARDS = {
    "pool": (attentive_pool, _pool_bwd, [(6, 4), (4, 3), (3, 1)]),
    # one frame: the weighted variance is exactly 0, so the floored branch
    "pool_one_frame": (attentive_pool, _pool_bwd, [(1, 4), (4, 3), (3, 1)]),
    "pool_d1": (attentive_pool, _pool_bwd, [(6, 1), (1, 3), (3, 1)]),
    "pool_att1": (attentive_pool, _pool_bwd, [(6, 4), (4, 1), (1, 1)]),
    "fuse": (gated_fuse, _fuse_bwd, [(5, 3), (5, 3), (6, 1), (1, 1)]),
    "film": (film_modulate, _film_bwd,
             [(4, 3), (4, 2), (2, 5), (1, 5), (5, 6), (1, 6)]),
    "moe": (_moe, lambda cache, dy: _moe_bwd(*cache, dy), [(3, 5, 2), (2, 3)]),
    "head": (lambda x, *weights: expert_head(x, *weights, HEAD_MASK), _head_bwd,
             [(5, 4), (4, 6), (1, 6), (1, 6), (1, 6), (6, 3), (1, 3)]),
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

        grads = bwd(cache, r)
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
        bwd(cache, dy)
        bwd(cache, dy)
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
        pooled = experts["A"][1].x          # expert A's head reads pooled
        for name in ("B", "C"):
            film_cache, head_cache = experts[name]
            assert film_cache.x is pooled
            assert np.array_equal(head_cache.x, pooled)

    def test_named_caches_read_off_the_production_forward(self):
        model = MsfSerModel(tiny_config())
        model.theta += 0.3 * seeded_rng(5).standard_normal(model.n_params)
        pred, cache = model.forward(make_batch(tiny_examples(5, model.config)))
        assert cache["expert_out"].shape == (3, 5, 3)
        blend = np.einsum("de,ebd->bd", cache["pi"], cache["expert_out"])
        assert np.abs(pred - blend).max() <= 1e-12
        for pool_cache in cache["enc"]:
            assert abs(pool_cache.a.sum() - 1.0) <= 1e-12
        g = cache["fuse"].g
        assert g.shape == (5, 1) and np.all((g > 0.0) & (g < 1.0))
        assert cache["fuse"].gate_w is model.param("gate.w").value

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
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            tiny_config(seed=-1)
        tiny_config(dropout=0.0)
        tiny_config(dropout=0.99)

    def test_config_round_trip(self):
        for section, cfg in (
                ("model", tiny_config(experts=("A", "C"))),
                ("train", TrainConfig(3, 8, 2, 1e-3, 1e-4, 7))):
            obj = asdict(cfg)
            assert from_dict(type(cfg), obj, section) == cfg
            # as train_config.json holds it, experts a list
            obj = json.loads(json.dumps(obj))
            assert from_dict(type(cfg), obj, section) == cfg

    def test_config_hash_is_stable(self):
        h1 = config_hash({"a": 1, "b": [2, 3]})
        h2 = config_hash({"b": [2, 3], "a": 1})
        assert h1 == h2 and len(h1) == 12
        assert h1 != config_hash({"a": 2, "b": [2, 3]})

    def test_config_hash_bytes_are_pinned(self):
        # an eval report's config at the default settings with 16-dim text
        # channels; a change to the canonical encoding changes every report
        cfg = {"model": asdict(ModelConfig(acoustic_dim=11, les_dim=16,
                                           gs_dim=16, es_dim=16)),
               "train": asdict(TrainConfig()),
               "features": FEATURES, "split": "test"}
        assert config_hash(cfg) == "fc584e4975b9"
        with pytest.raises(NumericalFailure, match="^config: "):
            config_hash({"lr": float("nan")})

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
        empty = tiny_examples(2, model.config)
        empty[0].frames = empty[0].frames[:0]
        with pytest.raises(ShapeMismatch, match="^utterance 'u000' has no frames$"):
            model.forward(make_batch(empty))
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

    def test_model_from_params_matches_drawn_then_loaded(self, monkeypatch):
        cfg = tiny_config()
        saved = MsfSerModel(cfg).params_dict()
        loaded = MsfSerModel(tiny_config(seed=9))
        loaded.load_params(saved)

        def no_draw(seed):
            raise AssertionError("drew a random init")
        monkeypatch.setattr("msfser.model.seeded_rng", no_draw)
        built = MsfSerModel(tiny_config(seed=9), saved)
        assert built.theta.tobytes() == loaded.theta.tobytes()
        assert [p.name for p in built.params()] == [
            p.name for p in loaded.params()]
        assert not np.shares_memory(built.theta, saved["enc.w"])
        partial = dict(saved)
        partial.pop("enc.w")
        with pytest.raises(ShapeMismatch, match="missing"):
            MsfSerModel(cfg, partial)
        wrong = dict(saved, **{"enc.w": saved["enc.w"][:, :2]})
        with pytest.raises(ShapeMismatch, match="enc.w"):
            MsfSerModel(cfg, wrong)

    def test_make_batch_behavior(self):
        cfg = tiny_config()
        examples = tiny_examples(3, cfg)
        batch = make_batch(examples)
        assert len(batch) == 3 and batch.targets.shape == (3, 3)
        with pytest.raises(TooFewUtterances):
            make_batch([])


class TestModelGradients:
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


class TestModelBehavior:
    def test_one_hot_route_selects_expert_exactly(self):
        model = MsfSerModel(tiny_config())
        model.param("route.logits").value[...] = 0.0
        model.param("route.logits").value[0, 2] = 800.0
        batch = make_batch(tiny_examples(4, model.config))
        pred, cache = model.forward(batch)
        assert np.array_equal(pred[:, 0], cache["expert_out"][2, :, 0])

    def test_predict_independent_of_eval_batch_size(self, monkeypatch):
        model = MsfSerModel(tiny_config())
        data = tiny_examples(11, model.config, seed=5)
        big = evaluate(model, data)
        monkeypatch.setattr("msfser.model.EVAL_BATCH", 3)
        small = evaluate(model, data)
        assert np.allclose(small["pred"], big["pred"], atol=1e-12)

    def test_forward_eval_is_deterministic(self):
        model = MsfSerModel(tiny_config(dropout=0.5))
        batch = make_batch(tiny_examples(3, model.config))
        assert np.array_equal(model.forward(batch)[0], model.forward(batch)[0])

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

    def test_nonfinite_gradient_under_a_finite_loss_stops_training(
            self, monkeypatch):
        # the loss stays finite; only one parameter's gradient turns NaN
        real_backward = MsfSerModel.backward

        def backward(model, cache, dpred):
            real_backward(model, cache, dpred)
            model.param("headB.w1").grad[0, 0] = np.nan

        monkeypatch.setattr(MsfSerModel, "backward", backward)
        model = MsfSerModel(tiny_config(dropout=0.0))
        data = tiny_examples(4, model.config, seed=3)
        before = model.theta.copy()
        with pytest.raises(NumericalFailure,
                           match=r"epoch 1, step 1: gradient of 'headB.w1'"):
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

    @pytest.mark.parametrize("field, low", [
        ("epochs", 1), ("batch_size", 2), ("accum_steps", 1)])
    def test_train_config_refuses_nan_counts(self, field, low):
        with pytest.raises(ValueError,
                           match=f"^{field} must be >= {low}, got nan$"):
            TrainConfig(**{field: math.nan})

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
        pred = model.forward(make_batch(data))[0]
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

    def test_evaluate_needs_two_examples(self):
        model = MsfSerModel(tiny_config())
        data = tiny_examples(3, model.config)
        with pytest.raises(TooFewUtterances):
            evaluate(model, data[:1])
