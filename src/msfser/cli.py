"""Command-line front end.

Subcommands:

  emphasis        score word emphasis for one WAV + TextGrid pair
  synth           generate a labelled synthetic dataset
  train           fit the fusion model on a dataset directory
  eval            concordance report for a trained model
  embed           deterministic toy text embeddings -> JSONL
  textgrid-check  parse and validate TextGrid files

Exit codes: 0 success, 2 bad usage or unreadable/invalid input, 3 a
processing failure (numerical trouble, shape conflicts, out of memory).
Defaults can be supplied as a flat JSON object via --config; explicit
flags win.
The seed falls back to the MSFSER_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .dsp import F0_MAX, F0_MIN, N_BANDS, FrameConfig, prosody_to_csv, read_wav
from .embeddings import CHANNELS, EmbeddingStore, toy_embedding
from .errors import (
    EmptyInput,
    LengthMismatch,
    MsfSerError,
    NumericalFailure,
    ShapeMismatch,
    TextGridError,
)
from .lemf import LemfConfig, run_lemf, words_to_json
from .model import (
    ModelConfig,
    MsfSerModel,
    TrainConfig,
    eval_report,
    train_model,
)
from .numcore import finite_json, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_dataset, load_examples
from .textgrid import read_textgrid_file

_PROCESS_ERRORS = (NumericalFailure, ShapeMismatch, LengthMismatch, MemoryError)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("MSFSER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MSFSER_SEED must be an integer, got {env!r}")
    return 0


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
    audio = read_wav(args.wav)
    tg = read_textgrid_file(args.grid)
    cfg = LemfConfig(
        frame=FrameConfig(win_ms=args.win_ms, hop_ms=args.hop_ms),
        mode=args.mode, top_k=args.k,
        word_tier=args.word_tier,
        phone_tier=args.phone_tier if args.phone_tier != "" else None,
        f0_min=args.f0_min, f0_max=args.f0_max,
    )
    result = run_lemf(audio, tg, cfg)
    doc = words_to_json(Path(args.wav).stem, result)
    payload = finite_json(doc, args.out or "stdout", indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            prosody_to_csv(result.track, fh)
    if args.svg:
        _write_score_svg(args.svg, [w.word for w in result.words],
                         [w.score for w in result.words],
                         set(result.segment.word_indices))
    return 0


def _cmd_synth(args) -> int:
    cfg = SynthConfig(n_utts=args.n, seed=_resolve_seed(args.seed),
                      sample_rate=args.sample_rate, les_dim=args.les_dim,
                      gs_dim=args.gs_dim, es_dim=args.es_dim)
    manifest = generate_dataset(args.out, cfg)
    sys.stdout.write(finite_json(manifest, "stdout", indent=2, sort_keys=True) + "\n")
    return 0


def _parse_experts(text: str) -> tuple[str, ...]:
    experts = tuple(p for p in text.replace(",", "").upper())
    if not experts:
        raise ValueError("experts must name at least one of A, B, C")
    return experts


_FEATURE_KEYS = ("win_ms", "hop_ms", "n_bands", "f0_min", "f0_max")


def _load_split(data_dir, feats: dict, split: str):
    return load_examples(
        data_dir, split=split,
        frame_cfg=FrameConfig(win_ms=feats["win_ms"], hop_ms=feats["hop_ms"]),
        n_bands=feats["n_bands"], f0_min=feats["f0_min"],
        f0_max=feats["f0_max"])


def _cmd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    train_cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                            accum_steps=args.accum_steps, lr=args.lr,
                            weight_decay=args.weight_decay, seed=seed)
    feats = {key: getattr(args, key) for key in _FEATURE_KEYS}
    # check the model settings before featurising; the input sizes come
    # from the data (replace runs the checks again)
    model_cfg = ModelConfig(
        acoustic_dim=1, les_dim=1, gs_dim=1, es_dim=1,
        d_model=args.d_model, att_dim=args.d_model,
        film_hidden=args.d_model, expert_hidden=args.d_model,
        experts=_parse_experts(args.experts),
        dropout=args.dropout, seed=seed)
    train_set = _load_split(args.data, feats, "train")
    dev_set = _load_split(args.data, feats, "dev") if args.track_dev else None
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
    history = train_model(model, train_set, train_cfg, dev_set=dev_set, log=log)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model.params_dict(), out / "checkpoint.json")
    run_cfg = {"model": asdict(model_cfg), "train": asdict(train_cfg),
               "features": feats}
    cfg_path, history_path = out / "train_config.json", out / "history.json"
    cfg_path.write_text(finite_json(run_cfg, cfg_path, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    history_path.write_text(finite_json(history, history_path, indent=1) + "\n",
                            encoding="utf-8")
    if args.svg:
        _write_history_svg(args.svg, history)
    sys.stdout.write(finite_json({
        "out": str(out), "epochs": len(history),
        "final_train_loss": history[-1]["train_loss"],
        "n_params": model.n_params}, "stdout") + "\n")
    return 0


def _load_trained(model_dir):
    """(model, run config) from a directory written by ``msfser train``."""
    root = Path(model_dir)
    cfg_path = root / "train_config.json"
    run_cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    feats = run_cfg.get("features") if isinstance(run_cfg, dict) else None
    if not (isinstance(feats, dict) and set(feats) == set(_FEATURE_KEYS)
            and all(type(v) in (int, float) for v in feats.values())
            and type(feats["n_bands"]) is int
            and isinstance(run_cfg.get("train"), dict)):
        raise ValueError(f"{cfg_path}: expected 'train' and 'features' "
                         f"objects, the latter of numbers {_FEATURE_KEYS}")
    try:
        model = MsfSerModel(ModelConfig.from_dict(run_cfg["model"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{cfg_path}: bad 'model' section: {exc!r}") from exc
    # a frame is energy, log f0 and voicing, then the mel bands
    if 3 + feats["n_bands"] != model.config.acoustic_dim:
        raise ValueError(f"{cfg_path}: features.n_bands {feats['n_bands']} does "
                         f"not fit model acoustic_dim {model.config.acoustic_dim}")
    model.load_params(load_checkpoint(root / "checkpoint.json"))
    return model, run_cfg


def _cmd_eval(args) -> int:
    model, run_cfg = _load_trained(args.model)
    dataset = _load_split(args.data, run_cfg["features"], args.split)
    report = eval_report(model, dataset,
                         extra_config={"train": run_cfg["train"],
                                       "features": run_cfg["features"],
                                       "split": args.split})
    payload = finite_json(report, args.out or "stdout", indent=2,
                          sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    sys.stdout.write(payload)
    return 0


def _cmd_embed(args) -> int:
    if args.dim < 1:
        raise ValueError(f"dim must be >= 1, got {args.dim}")
    if args.append and Path(args.out).exists():
        store = EmbeddingStore.load_jsonl(args.out)
    else:
        store = EmbeddingStore()
    n = 0
    with open(args.input, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise EmptyInput(
                    f"{args.input}:{lineno}: expected 'id<TAB>text'")
            utt_id, text = line.split("\t", 1)
            store.put(utt_id, args.channel,
                      toy_embedding(text, args.dim, args.channel))
            n += 1
    store.save_jsonl(args.out)
    sys.stdout.write(finite_json({"written": n, "channel": args.channel,
                                  "dim": args.dim, "out": args.out}, "stdout") + "\n")
    return 0


def _cmd_textgrid_check(args) -> int:
    failures = 0
    for path in args.paths:
        try:
            tg = read_textgrid_file(path)
        except (TextGridError, OSError) as exc:
            failures += 1
            sys.stdout.write(f"{path}: {type(exc).__name__}: {exc}\n")
            continue
        n_iv = sum(len(t.intervals) for t in tg.tiers)
        sys.stdout.write(f"{path}: OK ({len(tg.tiers)} tiers, "
                         f"{n_iv} intervals)\n")
    return 2 if failures else 0


# ----------------------------------------------------------------- parser

def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The msfser parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="msfser",
        description="Speech emotion tooling: emphasis detection, synthetic "
                    "data, fusion-model training and evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_frame_args(p, n_bands=False):
        p.add_argument("--win-ms", type=float, default=FrameConfig.win_ms)
        p.add_argument("--hop-ms", type=float, default=FrameConfig.hop_ms)
        p.add_argument("--f0-min", type=float, default=F0_MIN)
        p.add_argument("--f0-max", type=float, default=F0_MAX)
        if n_bands:
            p.add_argument("--n-bands", type=int, default=N_BANDS)

    p = sub.add_parser("emphasis", help="score word emphasis in one utterance")
    p.add_argument("--wav", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--mode", choices=("adjacent", "topk"),
                   default=LemfConfig.mode)
    p.add_argument("--k", type=int, default=LemfConfig.top_k)
    p.add_argument("--word-tier", default=LemfConfig.word_tier)
    p.add_argument("--phone-tier", default=LemfConfig.phone_tier,
                   help="empty string to skip phone durations")
    add_frame_args(p)
    p.add_argument("--out", help="write the JSON document here instead of stdout")
    p.add_argument("--csv", help="also dump the frame-level prosody track")
    p.add_argument("--svg", help="also render a score bar chart")
    p.set_defaults(func=_cmd_emphasis)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=SynthConfig.n_utts)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sample-rate", type=int, default=SynthConfig.sample_rate)
    p.add_argument("--les-dim", type=int, default=SynthConfig.les_dim)
    p.add_argument("--gs-dim", type=int, default=SynthConfig.gs_dim)
    p.add_argument("--es-dim", type=int, default=SynthConfig.es_dim)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the fusion model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--accum-steps", type=int, default=TrainConfig.accum_steps)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--weight-decay", type=float,
                   default=TrainConfig.weight_decay)
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--experts", default="".join(ModelConfig.experts),
                   help="subset of ABC, e.g. AB for the no-es ablation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--track-dev", action="store_true",
                   help="evaluate the dev split after every epoch")
    p.add_argument("--quiet", action="store_true")
    add_frame_args(p, n_bands=True)
    p.add_argument("--svg", help="render the training history as SVG")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="concordance report on a dataset split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="directory written by train")
    p.add_argument("--split", default="test",
                   choices=("train", "dev", "test"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("embed", help="toy text embeddings -> JSONL")
    p.add_argument("--input", required=True, help="lines of 'id<TAB>text'")
    p.add_argument("--out", required=True)
    p.add_argument("--channel", choices=CHANNELS, default="gs")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--append", action="store_true",
                   help="extend an existing JSONL instead of replacing it")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("textgrid-check", help="parse and validate TextGrids")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=_cmd_textgrid_check)

    return parser, sub.choices


def _apply_config_file(parser: argparse.ArgumentParser,
                       commands: dict[str, argparse.ArgumentParser],
                       argv: list[str]) -> list[str]:
    """Pull defaults from a flat JSON file named by --config.

    Each key must name an option of some subcommand.  A flag such as
    --quiet takes true or false; any other option takes a string or a
    number, which argparse converts with the option's type as if it had
    been typed on the command line.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        blob = json.loads(Path(known.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"--config {known.config}: cannot read: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"--config {known.config}: invalid JSON: {exc}")
    if not isinstance(blob, dict):
        parser.error(f"--config {known.config}: expected a JSON object")
    defaults = {k.replace("-", "_"): v for k, v in blob.items()}
    # argparse lists a parser's arguments only in the private _actions
    options = {a.dest: a for sp in commands.values() for a in sp._actions
               if a.dest != "help"}
    unknown = sorted(set(defaults) - set(options))
    if unknown:
        parser.error(f"--config {known.config}: unknown keys "
                     f"{', '.join(unknown)}")
    for key, value in defaults.items():
        if options[key].nargs == 0:         # a store_true flag
            if type(value) is not bool:
                parser.error(f"--config {known.config}: {key} must be "
                             f"true or false, got {value!r}")
        elif type(value) in (int, float):
            # argparse passes string defaults through the option's type
            defaults[key] = str(value)
        elif type(value) is not str:
            parser.error(f"--config {known.config}: {key} must be a string "
                         f"or a number, got {value!r}")
    for sp in commands.values():
        sp.set_defaults(**defaults)
    return rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    argv = _apply_config_file(parser, commands, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PROCESS_ERRORS as exc:
        # a MemoryError may carry no message
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 3
    except (MsfSerError, OSError, UnicodeDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
