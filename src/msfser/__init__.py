"""Multi-channel speech emotion regression at desk scale.

The pieces, bottom to top: every setting's defaults (:mod:`.config`),
Praat TextGrid parsing and validation (:mod:`.textgrid`), frame-level
prosody and spectral features (:mod:`.dsp`), word-emphasis scoring
(:mod:`.lemf`), text-embedding storage (:mod:`.embeddings`), float64
numerics with hand-written gradients (:mod:`.numcore`), the gated-fusion
mixture-of-experts regressor with training and evaluation
(:mod:`.model`), a synthetic labelled corpus generator (:mod:`.synth`),
and the ``msfser`` command line (:mod:`.cli`).

Each export is loaded from its home module on first use, so importing
the package loads none of them.
"""

import importlib

__version__ = "0.1.0"

# export name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("config", "CHANNELS FrameConfig LemfConfig ModelConfig SynthConfig "
               "TrainConfig"),
    ("dsp", "AudioBuffer ProsodyTrack acoustic_frames estimate_f0 "
            "frame_signal mel_filterbank read_wav stft_energy write_wav"),
    ("embeddings", "EmbeddingStore"),
    ("errors", "MsfSerError"),
    ("lemf", "LemfResult WordProsody run_lemf select_emphasis_indices "
             "zscore_normalize"),
    ("model", "Batch MsfSerModel UttExample attentive_pool eval_report "
              "evaluate expert_head film_modulate gated_fuse make_batch "
              "moe_combine train_model"),
    ("numcore", "AdamW Param ccc ccc_loss grad_check load_checkpoint "
                "save_checkpoint seeded_rng"),
    ("synth", "generate_dataset load_examples make_emphasis_case"),
    ("textgrid", "Interval TextGrid Tier parse_textgrid phones_for_word "
                 "read_textgrid_file serialize_textgrid validate_textgrid "
                 "word_intervals"),
) for name in names.split()}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
