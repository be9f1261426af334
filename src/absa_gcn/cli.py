"""Command-line interface.

Commands: train, eval, ablate, gradcheck, scores, convert. ``OPTIONS`` is
the one table of settings: each row's config-file key, flag, type and the
field it sets. The argument parser and ``read_config`` are both built from
it. A setting may come from ``--config`` (a ``key = value`` text file),
with command-line flags taking precedence. ``HyperParams``, ``TrainConfig``
and ``build_check_setup`` hold the defaults and the range checks; a value
they reject is a configuration error. All randomness flows from ``--seed``;
reruns with the same inputs produce byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 configuration error (a model
whose parameters would not fit in physical memory among them, refused
before it is built, and a run out of memory), 3 data error, 4 checkpoint
mismatch or a checkpoint whose model gives a non-finite loss or score, 5
training diverged (a non-finite loss; nothing is written). Every JSON line
written or printed is strict JSON: never ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .data import (
    LABELS, LoadError, convert_conllu, corpus_line, load_embeddings, parse_corpus, write_atomically, write_corpus,
)
from .gradcheck import CHECK_HYPERPARAMS, build_check_setup, check_model_gradients
from .model import (
    CheckpointError, HyperParams, load_checkpoint, model_scores, require_memory, save_checkpoint, total_loss,
)
from .trainer import EVAL_CHUNK, TrainConfig, TrainingDiverged, evaluate, run_ablations, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_DIVERGED = 5


class ConfigError(ValueError):
    """Bad command-line arguments or configuration file."""


class Option(NamedTuple):
    """One setting: its config-file key, its flag, its type and the field it sets.

    ``flag`` is None for a key that only a config file sets. A boolean flag
    stores False if it starts with ``--no-`` and True otherwise. ``field`` is
    the keyword the value is passed as: a ``HyperParams`` or ``TrainConfig``
    field, a ``build_check_setup`` parameter, or a path a command reads.
    ``commands`` are those that take the flag.
    """

    key: str
    flag: str | None
    kind: type
    field: str
    commands: tuple[str, ...] = ()


_ALL = ("train", "eval", "ablate", "gradcheck", "scores", "convert")
_TRAINING = ("train", "ablate")
_MODEL = ("train", "ablate", "gradcheck")

OPTIONS = (
    Option("seed", "--seed", int, "seed", _ALL),
    Option("out", "--out", str, "out", _ALL),
    Option("train", "--train", str, "train", _TRAINING),
    Option("dev", "--dev", str, "dev", _TRAINING),
    Option("test", "--test", str, "test", ("eval", "scores")),
    Option("embeddings", "--embeddings", str, "embeddings", _TRAINING),
    Option("checkpoint", "--checkpoint", str, "checkpoint", ("train", "eval", "scores")),
    Option("conllu", "--conllu", str, "conllu", ("convert",)),
    Option("aspects", "--aspects", str, "aspects", ("convert",)),
    Option("hidden", "--hidden", int, "hidden", _MODEL),
    Option("layers", "--layers", int, "layers", _MODEL),
    Option("alpha", "--alpha", float, "alpha", _MODEL),
    Option("beta", "--beta", float, "beta", _MODEL),
    Option("gate", "--no-gate", bool, "gate_on", _MODEL),
    Option("div", "--no-div", bool, "div_on", _MODEL),
    Option("con", "--no-con", bool, "con_on", _MODEL),
    Option("gatediv", "--gatediv", bool, "gatediv_baseline", _MODEL),
    Option("include_self_loop", None, bool, "include_self_loop"),
    Option("epochs", "--epochs", int, "epochs", _TRAINING),
    Option("batch_size", "--batch-size", int, "batch_size", _TRAINING),
    Option("learning_rate", "--lr", float, "learning_rate", _TRAINING),
    Option("shuffle", "--no-shuffle", bool, "shuffle", _TRAINING),
    Option("tokens", "--tokens", int, "tokens", ("gradcheck",)),
    Option("embed_dim", "--embed-dim", int, "embed_dim", ("gradcheck",)),
)
_BY_KEY = {option.key: option for option in OPTIONS}


def read_config(path: str) -> dict:
    """Parse ``key = value`` lines into a dict by key; ``#`` starts a comment."""
    values: dict = {}
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _BY_KEY:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _BY_KEY[key].kind
            try:
                if kind is bool:
                    if value.lower() not in ("true", "false"):
                        raise ValueError
                    values[key] = value.lower() == "true"
                else:
                    values[key] = kind(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad {kind.__name__} value {value!r}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="absa-gcn", description="Aspect-based sentiment over dependency trees")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value settings file")
        for option in OPTIONS:
            if command not in option.commands:
                continue
            if option.kind is bool:
                const = not option.flag.startswith("--no-")
                p.add_argument(option.flag, dest=option.field, action="store_const", const=const)
            else:
                p.add_argument(option.flag, dest=option.field, type=option.kind)
    return parser


def parse(argv: list[str] | None) -> tuple[str, dict]:
    """The command and its settings by field: config-file values under explicit flags (flags win)."""
    args = _build_parser().parse_args(argv)
    settings = {_BY_KEY[key].field: value for key, value in read_config(args.config).items()} if args.config else {}
    for option in OPTIONS:
        value = getattr(args, option.field, None)
        if value is not None:
            settings[option.field] = value
    return args.command, settings


def _arguments(settings: dict, target) -> dict:
    """The settings that name a parameter of ``target``, a class or a function."""
    names = inspect.signature(target).parameters
    return {name: value for name, value in settings.items() if name in names}


@contextlib.contextmanager
def _range_checks():
    """Report a ``ValueError`` from a range check as a configuration error."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from None


def train_config(settings: dict) -> TrainConfig:
    with _range_checks():
        hp = HyperParams(**_arguments(settings, HyperParams))
        return TrainConfig(hyperparams=hp, **_arguments(settings, TrainConfig))


def _require_file(settings: dict, key: str) -> str:
    path = settings.get(key)
    if not path:
        raise ConfigError(f"missing required path --{key}")
    if not os.path.exists(path):
        raise ConfigError(f"--{key} path does not exist: {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"--{key} path is not a regular file: {path}")
    return path


def _out_dir(settings: dict, default: str | None = ".") -> str | None:
    out = settings.get("out", default)
    if out is not None and not os.path.isdir(out):
        raise ConfigError(f"output directory does not exist: {out}")
    return out


def _load_table(settings: dict):
    """The embedding file's table, or None for train() to build a seeded random one."""
    return load_embeddings(_require_file(settings, "embeddings")) if settings.get("embeddings") else None


def _require_memory(hp: HyperParams, table, train_set: list) -> None:
    """Refuse, as a configuration error, a model whose parameters ``require_memory`` says cannot be built.

    Without an embedding file the table is the one ``train`` builds:
    ``hidden`` columns, a row for each distinct training word and one for
    the unknown word.
    """
    if table is None:
        dim, rows = hp.hidden, len({tok for ex in train_set for tok in ex.tokens}) + 1
    else:
        dim, rows = table.dim, len(table.vectors.data)
    with _range_checks():
        require_memory(hp, dim, rows)


def _json(row: dict) -> str:
    """One line of strict JSON: a NaN or an infinity raises ``ValueError``."""
    return json.dumps(row, allow_nan=False)


def _write_json_lines(path: str, rows: list[dict]) -> None:
    with write_atomically(path) as fh:
        for row in rows:
            fh.write(_json(row))
            fh.write("\n")


def _require_finite(values, what: str) -> None:
    """Exit 4 if the loaded model gives a non-finite ``what``: its weights overflow on this corpus."""
    if not np.isfinite(values).all():
        raise CheckpointError(f"the model gives a non-finite {what} on this corpus")


def cmd_train(settings: dict) -> int:
    train_path = _require_file(settings, "train")
    out = _out_dir(settings)
    checkpoint_path = settings.get("checkpoint") or os.path.join(out, "checkpoint.bin")
    if os.path.isdir(checkpoint_path) or not os.path.isdir(os.path.dirname(checkpoint_path) or "."):
        raise ConfigError(f"checkpoint path is not a file in an existing directory: {checkpoint_path}")
    config = train_config(settings)
    train_set = parse_corpus(train_path)
    dev_set = parse_corpus(_require_file(settings, "dev")) if settings.get("dev") else None
    table = _load_table(settings)
    _require_memory(config.hyperparams, table, train_set)
    model, log = train(train_set, dev_set, config, table=table)
    save_checkpoint(checkpoint_path, model)
    _write_json_lines(os.path.join(out, "metrics.jsonl"), log)
    final = log[-1]
    print(f"trained {config.epochs} epochs on {len(train_set)} examples")
    print(f"final {final['split']} accuracy {final['accuracy']:.4f} macro_f1 {final['macro_f1']:.4f}")
    print(f"checkpoint: {checkpoint_path}")
    return EXIT_OK


# eval and scores check their outputs (``_require_finite``), so numpy's
# overflow warnings on the way to a non-finite value would only repeat that.
@np.errstate(all="ignore")
def cmd_eval(settings: dict) -> int:
    model = load_checkpoint(_require_file(settings, "checkpoint"))
    data = parse_corpus(_require_file(settings, "test"))
    metrics = evaluate(model, data)
    _require_finite(metrics.loss_total, "loss")
    print(_json({
        "examples": len(data),
        "accuracy": metrics.accuracy,
        "macro_f1": metrics.macro_f1,
        "per_class": metrics.per_class,
        "loss_total": metrics.loss_total,
    }))
    return EXIT_OK


def cmd_ablate(settings: dict) -> int:
    train_path = _require_file(settings, "train")
    dev_path = _require_file(settings, "dev")
    out = _out_dir(settings)
    config = train_config(settings)
    train_set = parse_corpus(train_path)
    dev_set = parse_corpus(dev_path)
    table = _load_table(settings)
    _require_memory(config.hyperparams, table, train_set)
    results = run_ablations(train_set, dev_set, config, table=table)
    rows = [{"variant": name, **result.metrics.scalars()} for name, result in results.items()]
    _write_json_lines(os.path.join(out, "ablation.jsonl"), rows)
    for row in rows:
        print(f"{row['variant']:<10} acc {row['accuracy']:.4f}  macro_f1 {row['macro_f1']:.4f}")
    return EXIT_OK


def cmd_gradcheck(settings: dict) -> int:
    with _range_checks():
        hp = replace(CHECK_HYPERPARAMS, **_arguments(settings, HyperParams))
        ex, state = build_check_setup(hp=hp, **_arguments(settings, build_check_setup))
    report = check_model_gradients(ex, state)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


@np.errstate(all="ignore")
def cmd_scores(settings: dict) -> int:
    model = load_checkpoint(_require_file(settings, "checkpoint"))
    data = parse_corpus(_require_file(settings, "test"))
    out = _out_dir(settings, default=None)
    rows = []
    for start in range(0, len(data), EVAL_CHUNK):
        _, trace = total_loss(data[start : start + EVAL_CHUNK], model)
        mod = (trace.mod if trace.mod is not None else model_scores(trace, model)).data  # a -Con model builds none
        _require_finite(mod, "importance score")
        _require_finite(trace.class_probs.data, "class probability")
        segments = trace.batch.tree.segments
        for e, (ex, first, size) in enumerate(zip(trace.batch.examples, segments.starts, segments.sizes)):
            own = slice(first, first + size)
            rows.append({
                "tokens": list(ex.tokens),
                "aspect_from": ex.aspect_from,
                "aspect_to": ex.aspect_to,
                "syn": trace.syn[own].tolist(),
                "mod": mod[own].tolist(),
                "predicted": LABELS[int(trace.class_probs.data[e].argmax())],
                "gold": ex.label,
            })
    if out:
        _write_json_lines(os.path.join(out, "scores.jsonl"), rows)
    else:
        for row in rows:
            print(_json(row))
    return EXIT_OK


def cmd_convert(settings: dict) -> int:
    conllu = _require_file(settings, "conllu")
    aspects = _require_file(settings, "aspects")
    examples = convert_conllu(conllu, aspects)
    out = _out_dir(settings, default=None)
    if out:
        path = os.path.join(out, "converted.jsonl")
        write_corpus(examples, path)
        print(f"wrote {len(examples)} examples to {path}")
    else:
        for ex in examples:
            print(corpus_line(ex))
    return EXIT_OK


_COMMANDS = {
    "train": (cmd_train, "train and write a checkpoint"),
    "eval": (cmd_eval, "evaluate a checkpoint on a corpus"),
    "ablate": (cmd_ablate, "train all ablation variants"),
    "gradcheck": (cmd_gradcheck, "verify analytic gradients against finite differences"),
    "scores": (cmd_scores, "dump per-token importance scores"),
    "convert": (cmd_convert, "convert CoNLL-U plus aspect sidecar to corpus JSONL"),
}


def main(argv: list[str] | None = None) -> int:
    try:
        command, settings = parse(argv)
        return _COMMANDS[command][0](settings)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except LoadError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except TrainingDiverged as err:
        print(f"training diverged: {err}; nothing was written", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as err:
        print(f"error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
