"""Command-line front end.

Subcommands:

  emphasis        score word emphasis for one WAV + TextGrid pair
  synth           generate a labelled synthetic dataset
  train           fit the fusion model on a dataset directory
  eval            concordance report for a trained model
  textgrid-check  parse and validate TextGrid files

Exit codes: 0 success, 2 bad usage or unreadable/invalid input, 3 a
processing failure (numerical trouble, shape conflicts, out of memory).
Settings come from flags only.

Options named after a SynthConfig or TrainConfig field are generated
from it; --n, --word-tier, --phone-tier, --d-model, --dropout and
--experts are hand-written.  None sets the front end, config.FEATURES.
eval reads the model and train sections of train_config.json through
config.from_dict, which refuses a section that does not hold exactly its
class's fields, and refuses a features section other than FEATURES.
Each subcommand imports the modules it runs, so ``emphasis`` never loads
the model or the corpus code.  argv is parsed before numpy is imported:
--version, --help, usage errors and textgrid-check never load it.
emphasis, synth, train and eval load numpy and run with overflow,
division by zero and invalid operations raising (exit 3).  Only synth and
train load numpy.random: eval builds its model from the checkpoint
without drawing an initialisation.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .config import (CHANNELS, FEATURES, FIELD_TYPES, N_BANDS, SPLITS,
                     LemfConfig, ModelConfig, SynthConfig, TrainConfig,
                     acoustic_width, from_dict)
from .errors import (
    DimMismatch,
    EmptyInput,
    MalformedRecord,
    MsfSerError,
    NumericalFailure,
    ShapeMismatch,
    TextGridError,
    UnfitSignal,
    json_object,
    naming,
    read_text,
    write_json,
)

_PROCESS_ERRORS = (NumericalFailure, ShapeMismatch, MemoryError, FloatingPointError)
# the commands that run without numpy; every other one runs under the
# floating-point guard in main
_PURE_PYTHON = {"textgrid-check"}


# ------------------------------------------------------------ SVG output

def _svg_doc(width: int, height: int, body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="16" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _write_score_svg(path, labels, scores, highlight) -> None:
    """Bar chart of per-word emphasis scores; chosen words darkened."""
    width, height, top, bottom = max(320, 60 * len(scores)), 260, 30, 40
    lo, hi = min(min(scores), 0.0), max(max(scores), 0.0)
    span = (hi - lo) or 1.0
    y_of = lambda v: top + (hi - v) / span * (height - top - bottom)
    slot = (width - 40) / len(scores)
    body = [f'<line x1="20" y1="{y_of(0.0):.1f}" x2="{width - 20}" '
            f'y2="{y_of(0.0):.1f}" stroke="#999"/>']
    for i, (label, s) in enumerate(zip(labels, scores)):
        label = label.replace("&", "&amp;").replace("<", "&lt;")
        label = label.replace(">", "&gt;")
        x = 20 + i * slot + slot * 0.15
        y0, y1 = sorted((y_of(0.0), y_of(s)))
        fill = "#1f4e79" if i in highlight else "#8fb4d9"
        body.append(f'<rect x="{x:.1f}" y="{y0:.1f}" width="{slot * 0.7:.1f}" '
                    f'height="{max(y1 - y0, 0.5):.1f}" fill="{fill}"/>')
        body.append(f'<text x="{x + slot * 0.35:.1f}" y="{height - 22}" '
                    f'font-family="sans-serif" font-size="11" '
                    f'text-anchor="middle">{label}</text>')
        body.append(f'<text x="{x + slot * 0.35:.1f}" y="{height - 8}" '
                    f'font-family="sans-serif" font-size="10" '
                    f'text-anchor="middle">{s:+.2f}</text>')
    Path(path).write_text(_svg_doc(width, height, body, "word emphasis scores"),
                          encoding="utf-8")


def _write_history_svg(path, history) -> None:
    """Training-loss curve, plus held-out CCC when it was tracked."""
    width, height, top, bottom, side = 640, 280, 30, 30, 45
    xs = [row["epoch"] for row in history]
    series = [("train_loss", "#b33", [row["train_loss"] for row in history])]
    if history and "dev_ccc_avg" in history[0]:
        series.append(("dev_ccc_avg", "#283",
                       [row["dev_ccc_avg"] for row in history]))
    lo = min(min(v) for _, _, v in series)
    hi = max(max(v) for _, _, v in series)
    span = (hi - lo) or 1.0
    x_of = lambda e: side + (e - xs[0]) / max(xs[-1] - xs[0], 1) * (width - 2 * side)
    y_of = lambda v: top + (hi - v) / span * (height - top - bottom)
    body = [f'<line x1="{side}" y1="{height - bottom}" x2="{width - side}" '
            f'y2="{height - bottom}" stroke="#999"/>',
            f'<line x1="{side}" y1="{top}" x2="{side}" '
            f'y2="{height - bottom}" stroke="#999"/>']
    for k, (name, color, vals) in enumerate(series):
        pts = " ".join(f"{x_of(e):.1f},{y_of(v):.1f}" for e, v in zip(xs, vals))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>')
        body.append(f'<text x="{width - side:.1f}" y="{top + 14 * k}" '
                    f'font-family="sans-serif" font-size="11" fill="{color}" '
                    f'text-anchor="end">{name}</text>')
    Path(path).write_text(_svg_doc(width, height, body, "training history"),
                          encoding="utf-8")


# ------------------------------------------------------------ subcommands

def _cmd_emphasis(args) -> int:
    from .dsp import prosody_to_csv, read_wav
    from .lemf import run_lemf, words_to_json
    from .textgrid import read_textgrid_file
    audio = read_wav(args.wav)
    tg = read_textgrid_file(args.grid)
    cfg = LemfConfig(word_tier=args.word_tier,
                     phone_tier=args.phone_tier or None)
    with (naming(args.grid, TextGridError, EmptyInput),    # no tier, no words
          naming(args.wav, UnfitSignal)):       # too short, or sampled too low
        result = run_lemf(audio, tg, cfg)
    write_json(words_to_json(Path(args.wav).stem, result), args.out, indent=2)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            prosody_to_csv(result.track, fh)
    if args.svg:
        _write_score_svg(args.svg, [w.word for w in result.words],
                         [w.score for w in result.words],
                         set(result.segment))
    return 0


def _cmd_synth(args) -> int:
    from .synth import generate_dataset
    cfg = _from_flags(SynthConfig, args, n_utts=args.n)
    write_json(generate_dataset(args.out, cfg), indent=2, sort_keys=True)
    return 0


def _cmd_train(args) -> int:
    from .model import MsfSerModel, train_model
    from .numcore import save_checkpoint
    from .synth import load_examples
    train_cfg = _from_flags(TrainConfig, args)
    # check the model settings before featurising; the input sizes come
    # from the data (replace runs the checks again)
    model_cfg = ModelConfig(
        acoustic_dim=1, les_dim=1, gs_dim=1, es_dim=1,
        d_model=args.d_model, att_dim=args.d_model,
        film_hidden=args.d_model, expert_hidden=args.d_model,
        experts=tuple(args.experts.replace(",", "").upper()),
        dropout=args.dropout, seed=args.seed)
    train_set = load_examples(args.data, "train")
    dev_set = load_examples(args.data, "dev") if args.track_dev else None
    first = train_set[0]
    model_cfg = replace(model_cfg, acoustic_dim=first.frames.shape[1],
                        les_dim=len(first.les), gs_dim=len(first.gs),
                        es_dim=len(first.es))

    model = MsfSerModel(model_cfg)
    log = None
    if not args.quiet:
        def log(row):
            line = f"epoch {row['epoch']:4d}  loss {row['train_loss']:.4f}"
            if "dev_ccc_avg" in row:
                line += f"  dev_ccc {row['dev_ccc_avg']:+.4f}"
            sys.stderr.write(line + "\n")
    history = train_model(model, train_set, train_cfg, dev_set=dev_set,
                          log=log)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model.params_dict(), out / "checkpoint.json")
    write_json({"model": asdict(model_cfg), "train": asdict(train_cfg),
                "features": FEATURES}, out / "train_config.json",
               indent=2, sort_keys=True)
    write_json(history, out / "history.json", indent=1)
    if args.svg:
        _write_history_svg(args.svg, history)
    write_json({"out": str(out), "epochs": len(history),
                "final_train_loss": history[-1]["train_loss"],
                "n_params": model.n_params})
    return 0


def _load_trained(model_dir):
    """(model, TrainConfig) of a ``msfser train`` directory."""
    from .model import MsfSerModel
    from .numcore import load_checkpoint
    root = Path(model_dir)
    cfg_path = root / "train_config.json"
    text = read_text(cfg_path)
    with naming(cfg_path, ValueError, MalformedRecord):
        run_cfg = json_object(text)
        model_cfg = from_dict(ModelConfig, run_cfg.get("model"), "model")
        train_cfg = from_dict(TrainConfig, run_cfg.get("train"), "train")
        features = run_cfg.get("features")
        # each value of its type too: 8.0 bands is not 8
        if features != FEATURES or any(type(features[k]) is not type(v)
                                       for k, v in FEATURES.items()):
            raise MalformedRecord(f"'features' must be {FEATURES}")
        if acoustic_width(N_BANDS) != model_cfg.acoustic_dim:
            raise ValueError(f"model acoustic_dim {model_cfg.acoustic_dim} "
                             f"does not fit {N_BANDS} mel bands")
    ckpt_path = root / "checkpoint.json"
    with naming(f"{ckpt_path} does not fit {cfg_path}", ShapeMismatch):
        model = MsfSerModel(model_cfg, load_checkpoint(ckpt_path))
    return model, train_cfg


def _cmd_eval(args) -> int:
    from .model import eval_report
    from .synth import load_examples
    model, train_cfg = _load_trained(args.model)
    cfg_path = Path(args.model) / "train_config.json"
    dataset = load_examples(args.data, args.split)
    for ch in CHANNELS:         # a store holds one size per channel
        got = len(getattr(dataset[0], ch))
        want = getattr(model.config, f"{ch}_dim")
        if got != want:
            raise DimMismatch(f"{Path(args.data) / 'embeddings.jsonl'} does "
                              f"not fit {cfg_path}: {ch} vectors have {got} "
                              f"dims, the model takes {want}")
    report = eval_report(model, dataset,
                         extra_config={"train": asdict(train_cfg),
                                       "features": FEATURES,
                                       "split": args.split})
    if args.out:
        write_json(report, args.out, indent=2, sort_keys=True)
    write_json(report, indent=2, sort_keys=True)
    return 0


def _cmd_textgrid_check(args) -> int:
    from .textgrid import read_textgrid_file
    failures = 0
    for path in args.paths:
        try:
            tg = read_textgrid_file(path)
        except (TextGridError, OSError) as exc:
            failures += 1
            # both messages name the path; the report gives it once, first
            detail = (exc.strerror if isinstance(exc, OSError)
                      else str(exc).removeprefix(f"{path}: "))
            sys.stdout.write(f"{path}: {type(exc).__name__}: {detail}\n")
            continue
        n_iv = sum(len(t.intervals) for t in tg.tiers)
        sys.stdout.write(f"{path}: OK ({len(tg.tiers)} tiers, "
                         f"{n_iv} intervals)\n")
    return 2 if failures else 0


# ----------------------------------------------------------------- parser

def _add_flags(parser, config, skip=()) -> None:
    """An option per field of config not in skip, typed and defaulted by it."""
    for f in fields(config):
        if f.name not in skip:
            parser.add_argument("--" + f.name.replace("_", "-"),
                                type=FIELD_TYPES[f.type][-1],
                                default=getattr(config, f.name))


def _from_flags(config, args, **given):
    """config from the options _add_flags made; given fields win."""
    return config(**{f.name: given[f.name] if f.name in given
                     else getattr(args, f.name) for f in fields(config)})


class _TopParser(argparse.ArgumentParser):
    """Names an option that msfser lacks when it comes before the subcommand.

    argparse would read the word after such an option as the subcommand
    and report that word as an invalid choice.  --help and --version exit
    before the subcommand is read, so when the first word is no subcommand
    every option ahead of it is unknown.
    """

    commands: dict[str, argparse.ArgumentParser]

    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        lead = list(itertools.takewhile(
            lambda a: a.startswith("-") and a != "--", self.argv))
        word = self.argv[len(lead):len(lead) + 1]
        if lead and word and word[0] not in self.commands:
            message = f"unrecognized arguments: {' '.join(lead)}"
        super().error(message)


def build_parser() -> _TopParser:
    """The msfser parser; its subcommand parsers by name are .commands."""
    parser = _TopParser(
        prog="msfser",
        description="Speech emotion tooling: emphasis detection, synthetic "
                    "data, fusion-model training and evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    parser.commands = sub.choices

    p = sub.add_parser("emphasis", help="score word emphasis in one utterance")
    p.add_argument("--wav", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--word-tier", default=LemfConfig.word_tier)
    p.add_argument("--phone-tier", default=LemfConfig.phone_tier,
                   help="empty string to skip phone durations")
    p.add_argument("--out", help="write the JSON document here instead of stdout")
    p.add_argument("--csv", help="also dump the frame-level prosody track")
    p.add_argument("--svg", help="also render a score bar chart")
    p.set_defaults(func=_cmd_emphasis)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=SynthConfig.n_utts)
    _add_flags(p, SynthConfig, skip=("n_utts",))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the fusion model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, TrainConfig)
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--experts", default="".join(ModelConfig.experts),
                   help="subset of ABC, e.g. AB for the no-es ablation")
    p.add_argument("--track-dev", action="store_true",
                   help="evaluate the dev split after every epoch")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--svg", help="render the training history as SVG")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="concordance report on a dataset split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="directory written by train")
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("textgrid-check", help="parse and validate TextGrids")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=_cmd_textgrid_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _PURE_PYTHON:
            return args.func(args)
        import numpy as np
        # an overflow or invalid operation is a processing failure, not a
        # warning followed by inf or NaN
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except _PROCESS_ERRORS as exc:
        # a MemoryError may carry no message
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 3
    except (MsfSerError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
