"""Command-line interface.

Commands: train, eval, ablate, gradcheck, scores, convert. Options may come
from ``--config`` (a ``key = value`` text file) with command-line flags
taking precedence. All randomness flows from ``--seed``; reruns with the
same inputs produce byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 data error,
4 checkpoint mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import LABELS, LoadError, convert_conllu, load_embeddings, parse_corpus, write_atomically, write_corpus
from .gradcheck import run_model_gradient_check
from .model import CheckpointError, HyperParams, load_checkpoint, save_checkpoint, total_loss
from .trainer import TrainConfig, evaluate, run_ablations, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4


class ConfigError(ValueError):
    """Bad command-line arguments or configuration file."""


_CONFIG_TYPES = {
    "seed": int,
    "train": str,
    "dev": str,
    "test": str,
    "embeddings": str,
    "checkpoint": str,
    "out": str,
    "hidden": int,
    "layers": int,
    "alpha": float,
    "beta": float,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "gate": bool,
    "div": bool,
    "con": bool,
    "gatediv": bool,
    "normalize_div": bool,
    "include_self_loop": bool,
    "shuffle": bool,
    "tokens": int,
    "embed_dim": int,
    "conllu": str,
    "aspects": str,
}


def read_config(path: str) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
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
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _CONFIG_TYPES[key]
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

    def common(p, paths=(), knobs=False, training=False):
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        for name in paths:
            p.add_argument(f"--{name}", default=None)
        if knobs:
            p.add_argument("--hidden", type=int, default=None)
            p.add_argument("--layers", type=int, default=None)
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--beta", type=float, default=None)
            p.add_argument("--no-gate", action="store_true")
            p.add_argument("--no-div", action="store_true")
            p.add_argument("--no-con", action="store_true")
            p.add_argument("--gatediv", action="store_true")
        if training:
            p.add_argument("--epochs", type=int, default=None)
            p.add_argument("--batch-size", type=int, default=None)
            p.add_argument("--lr", type=float, default=None)
            p.add_argument("--no-shuffle", action="store_true")

    common(sub.add_parser("train", help="train and write a checkpoint"),
           paths=("train", "dev", "embeddings", "checkpoint"), knobs=True, training=True)
    common(sub.add_parser("eval", help="evaluate a checkpoint on a corpus"),
           paths=("test", "checkpoint"))
    common(sub.add_parser("ablate", help="train all ablation variants"),
           paths=("train", "dev", "embeddings"), knobs=True, training=True)
    grad = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    common(grad, knobs=True)
    grad.add_argument("--tokens", type=int, default=None)
    grad.add_argument("--embed-dim", type=int, default=None)
    common(sub.add_parser("scores", help="dump per-token importance scores"),
           paths=("test", "checkpoint"))
    common(sub.add_parser("convert", help="convert CoNLL-U plus aspect sidecar to corpus JSONL"),
           paths=("conllu", "aspects"))
    return parser


def _merge(args: argparse.Namespace) -> dict:
    """Layer config-file values under explicit flags (flags win)."""
    settings = dict(read_config(args.config)) if args.config else {}
    for key, kind in _CONFIG_TYPES.items():
        if kind is bool:
            continue  # boolean flags handled below; store_true defaults must not clobber
        attr = "lr" if key == "learning_rate" else key
        value = getattr(args, attr, None)
        if value is not None:
            settings[key] = value
    for flag, key in (("no_gate", "gate"), ("no_div", "div"), ("no_con", "con"), ("no_shuffle", "shuffle")):
        if getattr(args, flag, False):
            settings[key] = False
    if getattr(args, "gatediv", False):
        settings["gatediv"] = True
    return settings


def _require_file(settings: dict, key: str) -> str:
    path = settings.get(key)
    if not path:
        raise ConfigError(f"missing required path --{key}")
    if not os.path.isfile(path):
        raise ConfigError(f"--{key} path does not exist: {path}")
    return path


def _hyperparams(settings: dict, hidden_default: int = 200, layers_default: int = 2) -> HyperParams:
    try:
        return HyperParams(
            hidden=settings.get("hidden", hidden_default),
            layers=settings.get("layers", layers_default),
            alpha=settings.get("alpha", 1.0),
            beta=settings.get("beta", 1.0),
            include_self_loop=settings.get("include_self_loop", True),
            gate_on=settings.get("gate", True),
            div_on=settings.get("div", True),
            con_on=settings.get("con", True),
            gatediv_baseline=settings.get("gatediv", False),
            normalize_div=settings.get("normalize_div", False),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _train_config(settings: dict) -> TrainConfig:
    try:
        return TrainConfig(
            epochs=settings.get("epochs", 10),
            batch_size=settings.get("batch_size", 32),
            learning_rate=settings.get("learning_rate", 0.001),
            seed=settings.get("seed", 0),
            hyperparams=_hyperparams(settings),
            shuffle=settings.get("shuffle", True),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _out_dir(settings: dict) -> str:
    out = settings.get("out", ".")
    if not os.path.isdir(out):
        raise ConfigError(f"output directory does not exist: {out}")
    return out


def _load_table(settings: dict):
    path = settings.get("embeddings")
    if path:
        if not os.path.isfile(path):
            raise ConfigError(f"--embeddings path does not exist: {path}")
        return load_embeddings(path, trainable=True)
    return None  # train() builds a seeded random table


def _write_metrics_log(path: str, log: list[dict]) -> None:
    with write_atomically(path) as fh:
        for entry in log:
            fh.write(json.dumps(entry))
            fh.write("\n")


def cmd_train(settings: dict) -> int:
    train_path = _require_file(settings, "train")
    out = _out_dir(settings)
    config = _train_config(settings)
    train_set = parse_corpus(train_path)
    dev_set = parse_corpus(_require_file(settings, "dev")) if settings.get("dev") else None
    table = _load_table(settings)
    model, log = train(train_set, dev_set, config, table=table)
    checkpoint_path = settings.get("checkpoint") or os.path.join(out, "checkpoint.bin")
    save_checkpoint(checkpoint_path, model)
    _write_metrics_log(os.path.join(out, "metrics.jsonl"), log)
    final = log[-1]
    print(f"trained {config.epochs} epochs on {len(train_set)} examples")
    print(f"final {final['split']} accuracy {final['accuracy']:.4f} macro_f1 {final['macro_f1']:.4f}")
    print(f"checkpoint: {checkpoint_path}")
    return EXIT_OK


def cmd_eval(settings: dict) -> int:
    model = load_checkpoint(_require_file(settings, "checkpoint"))
    data = parse_corpus(_require_file(settings, "test"))
    metrics = evaluate(model, data)
    print(json.dumps({
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
    config = _train_config(settings)
    train_set = parse_corpus(train_path)
    dev_set = parse_corpus(dev_path)
    table = _load_table(settings)
    results = run_ablations(train_set, dev_set, config, table=table)
    rows = []
    for name, result in results.items():
        rows.append({
            "variant": name,
            "accuracy": result.metrics.accuracy,
            "macro_f1": result.metrics.macro_f1,
            "loss_div": result.metrics.loss_div,
            "loss_const": result.metrics.loss_const,
            "loss_pred": result.metrics.loss_pred,
            "loss_total": result.metrics.loss_total,
        })
    with write_atomically(os.path.join(out, "ablation.jsonl")) as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")
    for row in rows:
        print(f"{row['variant']:<10} acc {row['accuracy']:.4f}  macro_f1 {row['macro_f1']:.4f}")
    return EXIT_OK


def cmd_gradcheck(settings: dict) -> int:
    hp = _hyperparams(settings, hidden_default=8, layers_default=2)
    tokens, embed_dim = settings.get("tokens", 5), settings.get("embed_dim", 8)
    for flag, value in (("tokens", tokens), ("embed-dim", embed_dim)):
        if value < 1:
            raise ConfigError(f"--{flag} must be positive, got {value}")
    report = run_model_gradient_check(seed=settings.get("seed", 0), tokens=tokens, embed_dim=embed_dim, hp=hp)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_scores(settings: dict) -> int:
    model = load_checkpoint(_require_file(settings, "checkpoint"))
    data = parse_corpus(_require_file(settings, "test"))
    out = settings.get("out")
    lines = []
    for ex in data:
        _, trace = total_loss(ex, model)
        lines.append(json.dumps({
            "tokens": list(ex.tokens),
            "aspect_from": ex.aspect_from,
            "aspect_to": ex.aspect_to,
            "syn": trace.syn.tolist(),
            "mod": trace.mod.data.tolist(),
            "predicted": LABELS[int(trace.class_probs.data.argmax())],
            "gold": ex.label,
        }))
    if out:
        if not os.path.isdir(out):
            raise ConfigError(f"output directory does not exist: {out}")
        with write_atomically(os.path.join(out, "scores.jsonl")) as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_convert(settings: dict) -> int:
    conllu = _require_file(settings, "conllu")
    aspects = _require_file(settings, "aspects")
    examples = convert_conllu(conllu, aspects)
    out = settings.get("out")
    if out:
        if not os.path.isdir(out):
            raise ConfigError(f"output directory does not exist: {out}")
        path = os.path.join(out, "converted.jsonl")
        write_corpus(examples, path)
        print(f"wrote {len(examples)} examples to {path}")
    else:
        for ex in examples:
            print(json.dumps({
                "tokens": list(ex.tokens), "heads": list(ex.heads),
                "aspect_from": ex.aspect_from, "aspect_to": ex.aspect_to, "label": ex.label,
            }))
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
    "scores": cmd_scores,
    "convert": cmd_convert,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _merge(args)
        return _COMMANDS[args.command](settings)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except LoadError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
