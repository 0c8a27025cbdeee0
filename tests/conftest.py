"""Pin numeric libraries to one thread before numpy is first imported.

The determinism guarantees (bitwise-identical checkpoints and reports
for a fixed seed) are stated for single-threaded execution, so the test
suite runs that way end to end.  The corpus helper below imports numpy
only when called, after the pins; checkout_env is the one way a test
starts a process that imports msfser from this checkout.
"""

import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env(**extra):
    """os.environ and extra, with the checkout's src first on PYTHONPATH:
    the environment of a child process that imports msfser from here."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def rewrite_wavs_at_lowest_rate(root):
    """Resample each WAV of the corpus at root to 4 * F0_MAX = 1800 Hz, the
    lowest rate the front end accepts.  Linear interpolation is enough:
    the synthetic bursts hold nothing near the 900 Hz Nyquist limit."""
    import numpy as np

    from msfser.config import F0_MAX
    from msfser.dsp import AudioBuffer, min_sample_rate, read_wav, write_wav

    rate = int(min_sample_rate(F0_MAX))
    for path in sorted(Path(root, "wavs").glob("*.wav")):
        audio = read_wav(path)
        n = len(audio.samples)
        t = np.arange(round(n * rate / audio.sample_rate)) / rate
        samples = np.interp(t, np.arange(n) / audio.sample_rate, audio.samples)
        write_wav(path, AudioBuffer(samples=samples, sample_rate=rate))
