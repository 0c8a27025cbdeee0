"""
Word emphasis from pitch, energy and duration
=============================================

Synthesizes an utterance with one deliberately boosted word, scores
every word with the weighted z-score rule, and extracts the emphasized
segment plus a one-line description for a text channel.
"""

from dataclasses import dataclass

import numpy as np

from msfser import LemfConfig, make_emphasis_case, run_lemf, seeded_rng

# The extended-description (ES) template lives here, not in the library:
# nothing in the pipeline makes or reads ES text.


@dataclass(frozen=True)
class ExtendedInfo:
    """The six description categories assembled into the ES text."""

    free_label: str = ""
    constrained_label: str = ""
    explanation: str = ""
    scenario: str = ""
    paralinguistics: str = ""
    gender: str = ""


def assemble_extended_description(info: ExtendedInfo) -> str:
    """Deterministic description text from the six categories.

    Empty fields collapse their clause; all-empty input yields "".
    """
    first = ""
    if info.gender or info.free_label or info.constrained_label or info.scenario:
        first = f"This is a {info.gender} speaker" if info.gender \
            else "This is a speaker"
        if info.free_label:
            first += f", expressing {info.free_label}"
            if info.constrained_label:
                first += f" (categorized as {info.constrained_label})"
        elif info.constrained_label:
            first += f", categorized as {info.constrained_label}"
        if info.scenario:
            first += f", in {info.scenario}"
        first += "."

    sentences = []
    if first:
        sentences.append(first)
    if info.explanation:
        sentences.append(info.explanation.rstrip(".") + ".")
    if info.paralinguistics:
        sentences.append(
            f"The speech is characterized by {info.paralinguistics.rstrip('.')}.")
    return " ".join(sentences)


# One word gets +6 dB energy, +4 semitones and 1.5x duration.
audio, grid, planted = make_emphasis_case(seeded_rng(42), n_words=7)
print(f"planted word index: {planted}")

# Word scores combine standardized pitch, energy and duration:
#   s(w) = 1.0 * z_pitch + 1.2 * z_energy + 0.8 * z_duration
cfg = LemfConfig(f0_min=70.0, f0_max=450.0)
result = run_lemf(audio, grid, cfg)

print(f"\n{'word':<8}{'f0 max':>8}{'energy':>8}{'dur':>7}{'score':>8}")
for w in result.words:
    f0 = np.exp(w.f_pitch) if w.pitch_defined else float("nan")
    print(f"{w.word:<8}{f0:8.1f}{w.f_energy:8.2f}"
          f"{w.f_duration:7.3f}{w.score:8.2f}")

top = int(np.argmax([w.score for w in result.words]))
print(f"\ntop-scoring word: index {top} "
      f"({'correct' if top == planted else 'WRONG'})")

# The emphasis segment is the argmax word and its neighbours, so
# downstream text always gets a few words of context.
chosen = [result.words[i] for i in result.segment]
span = chosen[-1].interval.xmax - chosen[0].interval.xmin
print(f"segment spans {span:.2f} s over words "
      f"{result.segment}: {' '.join(w.word for w in chosen)}")

# Free-form metadata slots render into a fixed sentence for models that
# read a text channel; absent slots collapse cleanly.
text = assemble_extended_description(ExtendedInfo(
    gender="female",
    free_label="bright excitement",
    constrained_label="happy",
    scenario="a game show",
    explanation="The climb in pitch signals anticipation",
    paralinguistics="fast, clipped words",
))
print(f"\nextended description:\n  {text}")
print("\nwith only two slots:\n  "
      + assemble_extended_description(ExtendedInfo(
          constrained_label="neutral", paralinguistics="steady pacing")))
