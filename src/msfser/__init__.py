"""Multi-channel speech emotion regression at desk scale.

The pieces, bottom to top: Praat TextGrid parsing and validation
(:mod:`.textgrid`), frame-level prosody and spectral features
(:mod:`.dsp`), word-emphasis scoring and the extended-description text
(:mod:`.lemf`), embedding storage plus a deterministic toy provider
(:mod:`.embeddings`), float64 numerics with hand-written gradients
(:mod:`.numcore`), the gated-fusion mixture-of-experts regressor with
training and evaluation (:mod:`.model`), a synthetic labelled corpus
generator (:mod:`.synth`), and the ``msfser`` command line
(:mod:`.cli`).
"""

__version__ = "0.1.0"

from .dsp import (
    AudioBuffer,
    FrameConfig,
    ProsodyTrack,
    acoustic_frames,
    estimate_f0,
    frame_signal,
    mel_filterbank,
    read_wav,
    stft_energy,
    write_wav,
)
from .embeddings import CHANNELS, EmbeddingStore, hash_token, toy_embedding
from .errors import MsfSerError
from .lemf import (
    EmphasisSegment,
    ExtendedInfo,
    LemfConfig,
    LemfResult,
    WordProsody,
    assemble_extended_description,
    run_lemf,
    select_emphasis_indices,
    select_emphasis_segment,
    zscore_normalize,
)
from .model import (
    Batch,
    ModelConfig,
    MsfSerModel,
    TrainConfig,
    UttExample,
    attentive_pool,
    eval_report,
    evaluate,
    film_modulate,
    gated_fuse,
    make_batch,
    moe_combine,
    train_model,
)
from .numcore import AdamW, Param, ccc, ccc_loss, grad_check, load_checkpoint, \
    save_checkpoint, seeded_rng
from .synth import SynthConfig, generate_dataset, load_examples, make_emphasis_case
from .textgrid import (
    Interval,
    TextGrid,
    Tier,
    parse_textgrid,
    phones_for_word,
    read_textgrid_file,
    serialize_textgrid,
    validate_textgrid,
    word_intervals,
)

__all__ = [
    "__version__",
    "AdamW", "AudioBuffer", "Batch", "CHANNELS", "EmbeddingStore",
    "EmphasisSegment", "ExtendedInfo", "FrameConfig",
    "Interval", "LemfConfig", "LemfResult",
    "ModelConfig", "MsfSerError", "MsfSerModel", "Param", "ProsodyTrack",
    "SynthConfig", "TextGrid", "Tier", "TrainConfig", "UttExample",
    "WordProsody", "acoustic_frames", "assemble_extended_description",
    "attentive_pool", "ccc", "ccc_loss", "estimate_f0",
    "eval_report", "evaluate", "film_modulate", "frame_signal",
    "gated_fuse", "generate_dataset", "grad_check", "hash_token",
    "load_checkpoint", "load_examples", "make_batch", "moe_combine",
    "make_emphasis_case", "mel_filterbank", "parse_textgrid",
    "phones_for_word", "read_textgrid_file", "read_wav", "run_lemf",
    "save_checkpoint", "seeded_rng", "select_emphasis_indices",
    "select_emphasis_segment", "serialize_textgrid", "stft_energy",
    "toy_embedding", "train_model", "validate_textgrid", "word_intervals",
    "write_wav", "zscore_normalize",
]
