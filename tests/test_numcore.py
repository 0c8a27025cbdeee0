"""Numeric kernels: forwards vs oracles, backwards vs finite differences."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import oracle_ccc
from msfser.errors import (
    MalformedRecord,
    NumericalFailure,
    ShapeMismatch,
    finite_json,
    write_json,
)
from msfser.model import ModelConfig, MsfSerModel, UttExample, make_batch
from msfser.numcore import (
    AdamW,
    Param,
    ccc,
    ccc_columns,
    ccc_loss,
    dropout_mask,
    glorot_uniform,
    grad_check,
    layer_norm_bwd,
    layer_norm_fwd,
    linear_bwd,
    linear_fwd,
    load_checkpoint,
    save_checkpoint,
    seeded_rng,
    sigmoid,
    sigmoid_bwd,
    softmax,
    softmax_bwd,
    tanh_bwd,
)


def fd(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f w.r.t. array x."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = f()
        flat_x[i] = orig - eps
        down = f()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * eps)
    return g


def sigmoid_two_branch(x):
    """Oracle: each sign's exp on its own masked elements."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-10)
    return np.abs(a - b).max() / scale


class TestLinear:
    def test_identity_plus_bias(self):
        x = np.array([[1.0, 2.0]])
        w = np.eye(2)
        b = np.array([[3.0, 4.0]])
        assert np.array_equal(linear_fwd(x, w, b), [[4.0, 6.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            linear_fwd(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros((1, 4)))

    def test_backward_matches_fd(self):
        rng = seeded_rng(1)
        for _ in range(5):
            n, din, dout = (int(rng.integers(1, 5)) for _ in range(3))
            x = rng.standard_normal((n, din))
            w = rng.standard_normal((din, dout))
            b = rng.standard_normal((1, dout))
            r = rng.standard_normal((n, dout))
            loss = lambda: float((linear_fwd(x, w, b) * r).sum())
            dx, dw, db = linear_bwd(x, w, r)
            assert rel_err(dx, fd(loss, x)) <= 1e-7
            assert rel_err(dw, fd(loss, w)) <= 1e-7
            assert rel_err(db, fd(loss, b)) <= 1e-7


class TestActivations:
    def test_sigmoid_range_and_extremes(self):
        x = np.array([[-1000.0, -1.0, 0.0, 1.0, 1000.0]])
        y = sigmoid(x)
        assert y[0, 0] == 0.0 and y[0, 4] == 1.0
        assert y[0, 2] == 0.5
        assert np.all((y >= 0.0) & (y <= 1.0))

    def test_sigmoid_symmetry(self):
        rng = seeded_rng(2)
        x = rng.standard_normal((3, 4))
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    @pytest.mark.parametrize("x", [
        np.array([sign * v for v in (0.0, 5e-324, 1e-300, 1.0, 709.79,
                                     745.2, 1000.0, np.inf)
                  for sign in (1.0, -1.0)]),
        seeded_rng(5).standard_normal((64, 3)) * 30.0,
    ], ids=["edges", "normal-x30"])
    def test_sigmoid_matches_two_branch_oracle_bitwise(self, x):
        # the CLI's guard: an overflow, divide or invalid op would raise
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            y, want = sigmoid(x), sigmoid_two_branch(x)
        assert y.shape == want.shape and y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["sigmoid", "tanh"])
    def test_backward_matches_fd(self, name):
        rng = seeded_rng(3)
        x = rng.standard_normal((4, 6)) * 2.0
        r = rng.standard_normal((4, 6))
        if name == "sigmoid":
            loss = lambda: float((sigmoid(x) * r).sum())
            grad = sigmoid_bwd(sigmoid(x), r)
        else:
            loss = lambda: float((np.tanh(x) * r).sum())
            grad = tanh_bwd(np.tanh(x), r)
        assert rel_err(grad, fd(loss, x)) <= 1e-7


class TestSoftmax:
    def test_no_overflow_on_big_logits(self):
        y = softmax(np.array([[1000.0, 999.0, 998.0]]))
        assert np.all(np.isfinite(y))
        assert abs(y.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = seeded_rng(5)
        x = rng.standard_normal((3, 4))
        assert np.allclose(softmax(x), softmax(x + 7.5), atol=1e-15)

    def test_backward_matches_fd(self):
        rng = seeded_rng(6)
        x = rng.standard_normal((3, 5))
        r = rng.standard_normal((3, 5))
        loss = lambda: float((softmax(x) * r).sum())
        grad = softmax_bwd(softmax(x), r)
        assert rel_err(grad, fd(loss, x)) <= 1e-7

    def test_axis_zero(self):
        rng = seeded_rng(7)
        x = rng.standard_normal((6, 2))
        y = softmax(x, axis=0)
        assert np.abs(y.sum(axis=0) - 1.0).max() <= 1e-12


class TestLayerNorm:
    def test_one_two_three(self):
        x = np.array([[1.0, 2.0, 3.0]])
        y, _ = layer_norm_fwd(x, np.ones((1, 3)), np.zeros((1, 3)))
        want = math.sqrt(1.5)              # up to the 1e-5 epsilon
        assert abs(y[0, 0] + want) <= 1e-4
        assert abs(y[0, 1]) <= 1e-12
        assert abs(y[0, 2] - want) <= 1e-4

    def test_rows_standardized(self):
        rng = seeded_rng(8)
        x = rng.standard_normal((5, 16)) * 3.0 + 2.0
        y, _ = layer_norm_fwd(x, np.ones((1, 16)), np.zeros((1, 16)))
        assert np.abs(y.mean(axis=1)).max() <= 1e-12
        assert np.abs((y * y).mean(axis=1) - 1.0).max() <= 1e-4

    def test_gamma_beta_applied(self):
        x = np.array([[1.0, 2.0, 3.0]])
        gamma = np.array([[2.0, 2.0, 2.0]])
        beta = np.array([[1.0, 1.0, 1.0]])
        y, _ = layer_norm_fwd(x, gamma, beta)
        y0, _ = layer_norm_fwd(x, np.ones((1, 3)), np.zeros((1, 3)))
        assert np.allclose(y, 2.0 * y0 + 1.0, atol=1e-14)

    def test_backward_matches_fd(self):
        rng = seeded_rng(9)
        x = rng.standard_normal((4, 7))
        gamma = rng.standard_normal((1, 7))
        beta = rng.standard_normal((1, 7))
        r = rng.standard_normal((4, 7))

        def loss():
            y, _ = layer_norm_fwd(x, gamma, beta)
            return float((y * r).sum())

        _, cache = layer_norm_fwd(x, gamma, beta)
        dx, dgamma, dbeta = layer_norm_bwd(cache, r)
        assert rel_err(dx, fd(loss, x)) <= 1e-6
        assert rel_err(dgamma, fd(loss, gamma)) <= 1e-7
        assert rel_err(dbeta, fd(loss, beta)) <= 1e-7


class TestDropout:
    def test_eval_mode_is_identity(self):
        mask = dropout_mask(seeded_rng(0), (3, 4), 0.5, train=False)
        assert np.array_equal(mask, np.ones((3, 4)))

    def test_zero_rate_is_identity(self):
        mask = dropout_mask(seeded_rng(0), (3, 4), 0.0, train=True)
        assert np.array_equal(mask, np.ones((3, 4)))

    def test_inverted_scaling_values(self):
        mask = dropout_mask(seeded_rng(1), (50, 50), 0.25, train=True)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
        kept = (mask > 0).mean()
        assert 0.70 <= kept <= 0.80

    def test_forward_backward_share_mask(self):
        # a train-mode loss with the same rng on every call draws one
        # mask, so the head's first layer passes a gradient check only if
        # its backward scales by the mask its forward applied
        cfg = ModelConfig(acoustic_dim=3, les_dim=2, gs_dim=2, es_dim=2,
                          d_model=3, att_dim=2, expert_hidden=8,
                          experts=("A",), dropout=0.5, seed=1)
        model = MsfSerModel(cfg)
        rng = seeded_rng(2)
        batch = make_batch([
            UttExample(f"u{i}", rng.standard_normal((5, 3)),
                       *rng.standard_normal((3, 2)), rng.standard_normal(3))
            for i in range(4)])
        mask = dropout_mask(seeded_rng(3), (len(batch), 8), 0.5, train=True)
        assert 0 < np.count_nonzero(mask) < mask.size

        def loss_fn():
            return model.loss_and_grad(batch, train=True, rng=seeded_rng(3))

        head = [model.param("headA.w1"), model.param("headA.b1")]
        assert grad_check(loss_fn, head) <= 1e-5

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            dropout_mask(seeded_rng(0), (2,), 1.0, train=True)
        with pytest.raises(ValueError):
            dropout_mask(seeded_rng(0), (2,), -0.1, train=True)

    def test_seeded_determinism(self):
        a = dropout_mask(seeded_rng(7), (6, 6), 0.5, train=True)
        b = dropout_mask(seeded_rng(7), (6, 6), 0.5, train=True)
        assert np.array_equal(a, b)


def per_column_ccc_loss(pred, target):
    """The CCC loss one column at a time: the oracle for ccc_loss.

    Same moments, constant-column rule and gradient as ccc_loss, but
    each column is a strided 1-D slice and the mean gap is squared with
    ``** 2`` (numpy's scalar power, which may differ from gap * gap in
    the last bit).
    """
    n = pred.shape[0]
    loss = 0.0
    dpred = np.zeros_like(pred)
    for d in range(pred.shape[1]):
        p, t = pred[:, d], target[:, d]
        mu_p, mu_t = p.mean(), t.mean()
        dp = np.zeros_like(p) if np.all(p == p[0]) else p - mu_p
        dt = np.zeros_like(t) if np.all(t == t[0]) else t - mu_t
        cov = (dp * dt).mean()
        denom = (dp * dp).mean() + (dt * dt).mean() + (mu_p - mu_t) ** 2
        if denom == 0.0:
            continue
        loss += 1.0 - 2.0 * cov / denom
        dcov = dt / n
        ddenom = 2.0 * dp / n + 2.0 * (mu_p - mu_t) / n
        dpred[:, d] = -(2.0 * dcov * denom - 2.0 * cov * ddenom) / (denom * denom)
    return loss, dpred


def ccc_draws(seed, count):
    """Seeded (pred, target) pairs; some columns are constant or both equal."""
    rng = seeded_rng(seed)
    for _ in range(count):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        p = rng.standard_normal((n, d)) * rng.uniform(0.01, 10.0)
        t = rng.standard_normal((n, d)) + rng.uniform(-2.0, 2.0)
        if rng.random() < 0.2:
            p[:, 0] = p[0, 0]
        if rng.random() < 0.2:
            t[:, -1] = 1.5
        if rng.random() < 0.1:
            p[:, 0] = t[:, 0] = 1.5
        yield p, t


class TestCcc:
    def test_worked_example(self):
        # pred [1,2,3] vs target [2,4,6]: 2*cov = 8/3, denom = 22/3
        assert ccc([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == \
            pytest.approx(8.0 / 22.0, abs=1e-15)

    def test_identical_constants(self):
        assert ccc([2.0, 2.0], [2.0, 2.0]) == 1.0

    def test_symmetry(self):
        rng = seeded_rng(10)
        p, t = rng.standard_normal(20), rng.standard_normal(20)
        assert ccc(p, t) == pytest.approx(ccc(t, p), abs=1e-15)

    def test_matches_oracle(self):
        rng = seeded_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            p = rng.uniform(-5, 5, n)
            t = rng.uniform(-5, 5, n)
            assert abs(ccc(p, t) - oracle_ccc(list(p), list(t))) <= 1e-12

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            ccc([1.0, 2.0], [1.0])
        with pytest.raises(ShapeMismatch):
            ccc([], [])
        # a 1-D input is not read as a row of one-sample columns
        with pytest.raises(ShapeMismatch, match="need matching 2-D arrays"):
            ccc_columns([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=15),
           st.data())
    def test_bounded_by_one(self, p, data):
        t = data.draw(st.lists(st.floats(-100, 100),
                               min_size=len(p), max_size=len(p)))
        assert abs(ccc(p, t)) <= 1.0 + 1e-9

    def test_columns(self):
        for p, t in ccc_draws(12, 200):
            cols = ccc_columns(p, t)
            for d in range(p.shape[1]):
                assert cols[d] == ccc(p[:, d], t[:, d])


class TestCccLoss:
    def test_value_is_sum_of_deficits(self):
        rng = seeded_rng(13)
        p = rng.standard_normal((7, 3))
        t = rng.standard_normal((7, 3))
        loss, _ = ccc_loss(p, t)
        want = sum(1.0 - ccc(p[:, d], t[:, d]) for d in range(3))
        assert loss == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = seeded_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            p = rng.standard_normal((n, 3))
            t = rng.standard_normal((n, 3))
            _, grad = ccc_loss(p, t)
            loss = lambda: ccc_loss(p, t)[0]
            assert rel_err(grad, fd(loss, p)) <= 1e-6

    def test_perfect_prediction_zero_loss(self):
        rng = seeded_rng(15)
        t = rng.standard_normal((6, 3))
        loss, grad = ccc_loss(t.copy(), t)
        assert loss == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeMismatch, match="empty input"):
            ccc_loss(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_degenerate_column_contributes_nothing(self):
        t = np.zeros((4, 1))
        loss, grad = ccc_loss(np.zeros((4, 1)), t)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((4, 1)))

    def test_degenerate_column_among_others(self):
        rng = seeded_rng(16)
        p, t = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        p[:, 1] = t[:, 1] = 0.7
        loss, grad = ccc_loss(p, t)
        assert np.array_equal(grad[:, 1], np.zeros(6))
        assert ccc_columns(p, t)[1] == 1.0
        keep = [0, 2]
        want_loss, want_grad = ccc_loss(p[:, keep], t[:, keep])
        assert loss == want_loss
        assert np.array_equal(grad[:, keep], want_grad)

    def test_matches_per_column_oracle(self):
        for p, t in ccc_draws(17, 2000):
            loss, grad = ccc_loss(p, t)
            want_loss, want_grad = per_column_ccc_loss(p, t)
            assert abs(loss - want_loss) <= 1e-14
            assert np.all(np.abs(grad - want_grad) <= 1e-14 * np.abs(want_grad))


def adamw_oracle(w0, grads, lr, b1, b2, eps, wd):
    """Independent scalar AdamW trace."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        w = w - lr * (mh / (math.sqrt(vh) + eps) + wd * w)
    return w


class PerParamAdamW:
    """The per-parameter AdamW loop, one m/v pair per name: the flat step's oracle."""

    def __init__(self, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.t = 0
        self._m, self._v = {}, {}

    def step(self, params):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in params:
            m = self._m.setdefault(p.name, np.zeros_like(p.value))
            v = self._v.setdefault(p.name, np.zeros_like(p.value))
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            mhat = m / bc1
            vhat = v / bc2
            p.value -= self.lr * (mhat / (np.sqrt(vhat) + self.eps)
                                  + self.weight_decay * p.value)


def named(name, value):
    """A standalone Param over its own value and a zero gradient."""
    value = np.array(value, dtype=np.float64)
    return Param(name, value, np.zeros_like(value))


class TestAdamW:
    def test_single_step_hand_trace(self):
        # w=1, g=1, lr=0.1: mhat=1, vhat=1, w -> 1 - 0.1/(1+1e-8) ~ 0.9
        theta, grad = np.array([1.0]), np.array([1.0])
        opt = AdamW(1, lr=0.1, weight_decay=0.0)
        opt.step(theta, grad)
        assert abs(theta[0] - 0.9) <= 1e-8

    def test_multi_step_matches_oracle(self):
        rng = seeded_rng(16)
        grads = [float(g) for g in rng.standard_normal(6)]
        theta, grad = np.array([0.5]), np.zeros(1)
        opt = AdamW(1, lr=0.05, weight_decay=0.01)
        for g in grads:
            grad[0] = g
            opt.step(theta, grad)
        want = adamw_oracle(0.5, grads, 0.05, 0.9, 0.999, 1e-8, 0.01)
        assert theta[0] == pytest.approx(want, abs=1e-14)

    def test_decay_is_decoupled(self):
        # zero gradient: the only movement is the decay term lr*wd*w
        theta = np.array([2.0])
        opt = AdamW(1, lr=0.1, weight_decay=0.05)
        opt.step(theta, np.zeros(1))
        assert theta[0] == pytest.approx(2.0 - 0.1 * 0.05 * 2.0, abs=1e-15)

    def test_state_is_per_param_name(self):
        # each parameter's slice of the vector keeps its own moments
        theta = np.ones(2)
        a, b = theta[:1], theta[1:]
        opt = AdamW(2, lr=0.1, weight_decay=0.0)
        opt.step(theta, np.array([1.0, -1.0]))
        assert a[0] < 1.0 < b[0]

    def test_flat_step_equals_per_param_loop(self):
        cfg = ModelConfig(acoustic_dim=11, les_dim=16, gs_dim=16, es_dim=16,
                          d_model=16, att_dim=16, film_hidden=16,
                          expert_hidden=16)
        flat, looped = MsfSerModel(cfg), MsfSerModel(cfg)
        opt = AdamW(flat.n_params, lr=1e-2, weight_decay=1e-4)
        oracle = PerParamAdamW(lr=1e-2, weight_decay=1e-4)
        rng = seeded_rng(19)
        for _ in range(20):
            g = rng.standard_normal(flat.n_params) * rng.uniform(1e-3, 10.0)
            flat.grad[...] = g
            looped.grad[...] = g
            opt.step(flat.theta, flat.grad)
            oracle.step(looped.params())
            assert np.array_equal(flat.theta, looped.theta)
        assert not np.array_equal(flat.theta, MsfSerModel(cfg).theta)


class TestGradCheck:
    def test_correct_gradients_pass(self):
        p = named("w", [[1.0, -2.0], [0.5, 3.0]])

        def loss_fn():
            p.grad[...] += 2.0 * p.value
            return float((p.value ** 2).sum())

        assert grad_check(loss_fn, [p]) <= 1e-9

    def test_wrong_gradients_detected(self):
        p = named("w", [[1.0, -2.0]])

        def loss_fn():
            p.grad[...] += 3.0 * p.value     # wrong by 1.5x
            return float((p.value ** 2).sum())

        assert grad_check(loss_fn, [p]) >= 0.1

    def test_values_restored_after_check(self):
        p = named("w", [[1.25, -0.75]])
        before = p.value.copy()

        def loss_fn():
            p.grad[...] += 2.0 * p.value
            return float((p.value ** 2).sum())

        grad_check(loss_fn, [p])
        assert np.array_equal(p.value, before)

    def test_nonfinite_loss_rejected(self):
        p = named("w", [[1.0]])
        with pytest.raises(NumericalFailure):
            grad_check(lambda: float("nan"), [p])


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        rng = seeded_rng(17)
        params = {
            "layer.w": rng.standard_normal((3, 4)) * 1e6,
            "layer.b": np.array([[0.0, -0.0, 1e-300, -1e-300]]),
            "head.w": rng.standard_normal((2, 2)) * 1e-8,
        }
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert set(back) == set(params)
        for name in params:
            assert np.array_equal(back[name], params[name])
            # signed zero survives too
            assert np.array_equal(np.signbit(back[name]),
                                  np.signbit(params[name]))

    def test_save_is_deterministic(self, tmp_path):
        params = {"b": np.ones((1, 2)), "a": np.zeros((2, 1))}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        save_checkpoint(params, p1)
        save_checkpoint(dict(reversed(params.items())), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_field_present(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint({"w": np.ones((1, 1))}, path)
        blob = json.loads(path.read_text())
        assert blob["version"] == "msf-ser-ckpt-v1"
        assert blob["params"]["w"] == {"rows": 1, "cols": 1, "data": [1.0]}

    def test_one_dimensional_param_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        with pytest.raises(ShapeMismatch, match="'w' must be 2-D"):
            save_checkpoint({"w": np.ones(3)}, path)
        assert not path.exists()

    def test_nonfinite_value_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        with pytest.raises(NumericalFailure, match="c.json"):
            save_checkpoint({"w": np.array([[1.0, np.nan]])}, path)
        assert not path.exists()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"version": "msf-ser-ckpt-v0", "params": {}}')
        with pytest.raises(MalformedRecord, match="c.json: unsupported"):
            load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(MalformedRecord, match="c.json: "):
            load_checkpoint(path)

    def test_missing_params_rejected(self, tmp_path):
        # read as no parameters, this failed later as a ShapeMismatch (exit 3)
        path = tmp_path / "c.json"
        path.write_text('{"version": "msf-ser-ckpt-v1"}')
        with pytest.raises(MalformedRecord,
                           match="c.json: 'params' must be a JSON object"):
            load_checkpoint(path)

    def test_size_conflict_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "version": "msf-ser-ckpt-v1",
            "params": {"w": {"rows": 2, "cols": 2, "data": [1.0, 2.0]}}}))
        with pytest.raises(MalformedRecord, match="c.json: param 'w'"):
            load_checkpoint(path)

    def test_non_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"version":\r\n"msf-ser-ckpt-v1\xff"}')
        with pytest.raises(MalformedRecord,
                           match=f"^{path}: not valid UTF-8 at line 2: "):
            load_checkpoint(path)


class TestFiniteJson:
    @pytest.mark.parametrize("kwargs", [
        {}, {"indent": 1, "sort_keys": True}, {"separators": (",", ":")}])
    def test_finite_values_encode_as_json_dumps(self, kwargs):
        doc = {"b": [0.1, -0.0, 1e-300, 1.7976931348623157e308],
               "a": {"x": 3, "y": None, "z": "s"}}
        assert finite_json(doc, "doc", **kwargs) == json.dumps(doc, **kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_value_names_the_target(self, bad):
        with pytest.raises(NumericalFailure, match="report.json"):
            finite_json({"a": [1.0, {"b": bad}]}, "out/report.json")

    def test_write_json_to_a_file_or_stdout(self, tmp_path, capsys):
        doc = {"b": [0.5, None], "a": "s"}
        write_json(doc, tmp_path / "doc.json", indent=1, sort_keys=True)
        write_json(doc, indent=1, sort_keys=True)
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        assert (tmp_path / "doc.json").read_bytes() == text.encode()
        assert capsys.readouterr().out == text
        with pytest.raises(NumericalFailure, match="^stdout: "):
            write_json({"a": math.nan})


class TestMisc:
    def test_param_requires_2d(self):
        for experts in (("A", "B", "C"), ("A", "B"), ("A",)):
            cfg = ModelConfig(acoustic_dim=5, les_dim=3, gs_dim=3, es_dim=3,
                              d_model=4, att_dim=4, film_hidden=4,
                              expert_hidden=4, experts=experts)
            for p in MsfSerModel(cfg).params():
                assert p.value.ndim == 2 and p.grad.shape == p.value.shape

    def test_param_zero_grad(self):
        cfg = ModelConfig(acoustic_dim=5, les_dim=3, gs_dim=3, es_dim=3,
                          d_model=4, att_dim=4, film_hidden=4, expert_hidden=4)
        model = MsfSerModel(cfg)
        for p in model.params():
            p.grad[...] = 5.0
        assert np.all(model.grad == 5.0)
        model.zero_grad()
        for p in model.params():
            assert np.array_equal(p.grad, np.zeros_like(p.value))

    def test_glorot_bounds(self):
        w = glorot_uniform(seeded_rng(18), 30, 50)
        limit = math.sqrt(6.0 / 80.0)
        assert w.shape == (30, 50)
        assert np.abs(w).max() <= limit

    def test_seeded_rng_reproducible(self):
        a = seeded_rng(99).standard_normal(5)
        b = seeded_rng(99).standard_normal(5)
        assert np.array_equal(a, b)
