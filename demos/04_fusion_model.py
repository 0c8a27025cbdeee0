"""
Inside the gated-fusion mixture-of-experts regressor
====================================================

Walks through the model's building blocks on toy tensors: attentive
pooling, the semantic gate, feature-wise modulation, expert routing,
and a finite-difference check of the hand-written backward pass.
"""

import numpy as np

from msfser import (
    ModelConfig,
    MsfSerModel,
    UttExample,
    attentive_pool,
    film_modulate,
    gated_fuse,
    grad_check,
    make_batch,
    moe_combine,
    seeded_rng,
)

rng = seeded_rng(0)

# 1. Attentive pooling turns a variable-length frame sequence (T, d)
#    into a fixed vector [weighted mean; weighted std] of length 2d.
h = rng.standard_normal((12, 4))
pooled, _ = attentive_pool(h, rng.standard_normal((4, 4)),
                           rng.standard_normal((4, 1)))
print(f"pooled {h.shape} -> {pooled.shape}")

# 2. The gate blends two semantic encodings with a per-sample scalar
#    g in (0, 1), so the fusion never leaves the segment between them.
h_l = rng.standard_normal((2, 4))
h_g = rng.standard_normal((2, 4))
fused, fuse_cache = gated_fuse(h_l, h_g, rng.standard_normal((8, 1)),
                               np.zeros((1, 1)))
print(f"gate values: {fuse_cache.g.ravel().round(3)}")

# 3. Modulation scales and shifts the pooled vector conditioned on the
#    semantics.  Its output layer starts at zero, which makes the whole
#    block the identity on step one: training begins from the plain
#    acoustic representation and learns deviations from it.
x = rng.standard_normal((2, 4))
cond = rng.standard_normal((2, 3))
y, _ = film_modulate(x, cond, rng.standard_normal((3, 5)),
                     np.zeros((1, 5)), np.zeros((5, 8)), np.zeros((1, 8)))
print(f"zero-initialized modulation is the identity: {np.array_equal(y, x)}")

# 4. Routing mixes expert predictions with one softmax per output
#    dimension, so valence can lean on a different expert than arousal.
expert_out = rng.standard_normal((3, 2, 3))
logits = np.array([[4.0, 0.0, 0.0],     # dim 0 trusts expert 0
                   [0.0, 4.0, 0.0],     # dim 1 trusts expert 1
                   [0.0, 0.0, 4.0]])    # dim 2 trusts expert 2
pred, pi = moe_combine(expert_out, logits)
print("routing weights per output dim:")
print(pi.round(3))

# 5. Everything composes into the full model, whose backward pass is
#    written by hand.  Central finite differences agree with it.
cfg = ModelConfig(acoustic_dim=6, les_dim=5, gs_dim=5, es_dim=4,
                  d_model=6, att_dim=6, film_hidden=5, expert_hidden=6,
                  dropout=0.0, seed=1)
model = MsfSerModel(cfg)
for p in model.params():
    p.value += 0.05 * rng.standard_normal(p.value.shape)

examples = [UttExample(f"u{i}",
                       rng.standard_normal((int(rng.integers(5, 9)), 6)),
                       rng.standard_normal(5), rng.standard_normal(5),
                       rng.standard_normal(4), rng.standard_normal(3))
            for i in range(4)]
batch = make_batch(examples)

err = grad_check(lambda: model.loss_and_grad(batch), model.params())
print(f"\n{model.n_params} parameters, "
      f"worst analytic-vs-numeric gradient error: {err:.2e}")
