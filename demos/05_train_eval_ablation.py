"""
Training on synthetic data and ablating the extended channel
============================================================

Generates a labelled corpus whose dominance dimension is only readable
from the extended-semantics vectors, trains the full model and an
ablated one, and compares held-out concordance per dimension.

Takes about 6 s on a 2 vCPU Intel Xeon.
"""

import tempfile
import time
from pathlib import Path

from msfser import (
    ModelConfig,
    MsfSerModel,
    SynthConfig,
    TrainConfig,
    evaluate,
    generate_dataset,
    load_examples,
    train_model,
)

t0 = time.monotonic()

# The generator plants each label dimension somewhere specific:
#   valence   -> the les and gs embedding channels
#   arousal   -> loudness and pitch of the audio itself
#   dominance -> the es channel only
# The corpus on disk is needed only until its features are in memory.
with tempfile.TemporaryDirectory(prefix="msfser_demo_") as tmp:
    root = Path(tmp) / "data"
    manifest = generate_dataset(root, SynthConfig(n_utts=160, seed=0))
    print(f"dataset: {manifest['splits']} in {root}")

    train_set = load_examples(root, split="train")
    test_set = load_examples(root, split="test")
print(f"features extracted in {time.monotonic() - t0:.1f} s")

first = train_set[0]


def fit(experts):
    cfg = ModelConfig(
        acoustic_dim=first.frames.shape[1], les_dim=len(first.les),
        gs_dim=len(first.gs), es_dim=len(first.es),
        d_model=16, att_dim=16, film_hidden=16, expert_hidden=16,
        experts=experts, dropout=0.5, seed=0)
    model = MsfSerModel(cfg)
    train_model(model, train_set,
                TrainConfig(epochs=60, batch_size=16, accum_steps=2,
                            lr=1e-2, weight_decay=1e-4, seed=0))
    return evaluate(model, test_set)["ccc"]


full = fit(("A", "B", "C"))
ablated = fit(("A", "B"))

print(f"\nheld-out concordance ({len(test_set)} utterances):")
print(f"{'':>12}{'valence':>10}{'arousal':>10}{'dominance':>11}")
print("".join([f"{'A+B+C':>12}"] + [f"{c:10.3f}" for c in full[:2]]
              + [f"{full[2]:11.3f}"]))
print("".join([f"{'A+B':>12}"] + [f"{c:10.3f}" for c in ablated[:2]]
              + [f"{ablated[2]:11.3f}"]))

print(f"\nremoving the extended channel costs "
      f"{full[2] - ablated[2]:.3f} dominance CCC "
      f"while arousal moves {abs(full[1] - ablated[1]):.3f}")
print(f"total time {time.monotonic() - t0:.1f} s")
