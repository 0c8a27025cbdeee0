"""The benchmark's tracer still finds every function and method it times.

perfbench/tracer.py names msfser functions and methods by string and
wraps them from outside the package, so a rename in src/ would only show
up as a failed traced benchmark run.  This test installs the tracer in
process, checks every span binds at least one msfser site, and checks a
small training run goes through every model and optimizer span.
"""

import importlib.util
import sys
from pathlib import Path

# every msfser module the tracer scans, loaded before it is installed
from msfser import cli, dsp, embeddings, lemf, numcore, synth, textgrid  # noqa: F401
from msfser import model as model_mod
from msfser.model import ModelConfig, MsfSerModel, TrainConfig, UttExample
from msfser.numcore import seeded_rng

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def msfser_bindings():
    """Every attribute of every loaded msfser module and of its classes."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "msfser" or mod_name.startswith("msfser."):
            for key, value in list(vars(module).items()):
                out[(mod_name, key)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, raw in list(vars(value).items()):
                        out[(mod_name, key, attr)] = raw
    return out


# the spans a training run must pass through, as the traced benchmark
# run requires on its train workload
TRAINING_SPANS = ("model.forward", "model.backward", "model.attentive_pool",
                  "model.gated_fuse", "model.film_modulate", "model.moe_combine",
                  "model.train_model", "model.evaluate", "numcore.ccc_loss",
                  "numcore.layer_norm_fwd", "numcore.adamw_step")


def tiny_training_run():
    """Train and evaluate through module attributes, where spans are bound."""
    rng = seeded_rng(0)
    examples = [UttExample(f"u{i}", rng.standard_normal((4, 3)),
                           rng.standard_normal(2), rng.standard_normal(2),
                           rng.standard_normal(2), rng.standard_normal(3))
                for i in range(4)]
    model = MsfSerModel(ModelConfig(acoustic_dim=3, les_dim=2, gs_dim=2,
                                    es_dim=2, d_model=2, att_dim=2,
                                    film_hidden=2, expert_hidden=2))
    model_mod.train_model(model, examples,
                          TrainConfig(epochs=1, batch_size=2, accum_steps=1))
    model_mod.evaluate(model, examples)


def test_every_span_binds_an_msfser_site_and_uninstall_restores():
    tracer_mod = load_tracer()
    before = msfser_bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        during = msfser_bindings()
        assert set(tracer.sites) == set(tracer_mod.span_names())
        for name, sites in tracer.sites.items():
            assert sites, f"span {name} binds no msfser site"
            for site in sites:
                assert site.startswith("msfser."), site
        changed = {k for k in before if during[k] is not before[k]}
        assert len(changed) == sum(len(s) for s in tracer.sites.values())
        tiny_training_run()
        summary = tracer.summary(1.0)
        for name in TRAINING_SPANS:
            assert summary[f"{name}.calls"] > 0, f"span {name} recorded no calls"
    finally:
        tracer.uninstall()
    after = msfser_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
