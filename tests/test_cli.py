import argparse
import inspect
import json
import os
import pathlib
import re
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

import absa_gcn.cli as cli
import absa_gcn.data as data
import absa_gcn.gradcheck as gradcheck
import absa_gcn.model as model_module
import absa_gcn.trainer as trainer_module
from absa_gcn.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CHECKPOINT,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    main,
    read_config,
)
from absa_gcn.data import LABELS, Example, parse_corpus, write_corpus
from absa_gcn.model import TENSOR_OBJECT_BYTES, HyperParams, load_checkpoint, model_scores, save_checkpoint, total_loss
from absa_gcn.trainer import EVAL_CHUNK, TrainConfig, train
from conftest import join_frame, split_frame
from corpora import make_overfit_corpus

ROOT = pathlib.Path(__file__).resolve().parents[1]
ASSETS = ROOT / "src" / "absa_gcn" / "assets"
SAMPLE = str(ASSETS / "sample_corpus.jsonl")


def _write_corpus(tmp_path, examples, name="corpus.jsonl"):
    path = tmp_path / name
    write_corpus(examples, path)
    return str(path)


def _overfit_checkpoint(tmp_path):
    corpus = make_overfit_corpus(12, seed=4)
    hp = HyperParams(hidden=16, layers=2)
    config = TrainConfig(epochs=30, batch_size=12, learning_rate=0.02, seed=5, hyperparams=hp)
    model, _ = train(corpus, None, config)
    path = tmp_path / "overfit.bin"
    save_checkpoint(path, model)
    return str(path), _write_corpus(tmp_path, corpus, "overfit_corpus.jsonl")


# ---------------------------------------------------------------------------
# config file


def test_read_config_parses_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "seed = 3\n"
        "hidden = 16   # comment after value\n"
        "learning_rate = 0.01\n"
        "gate = false\n"
        "train = data/train.jsonl\n"
    )
    values = read_config(str(path))
    assert values == {
        "seed": 3,
        "hidden": 16,
        "learning_rate": 0.01,
        "gate": False,
        "train": "data/train.jsonl",
    }


def test_read_config_rejects_unknown_key_and_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(cli.ConfigError):
        read_config(str(path))
    path.write_text("seed = abc\n")
    with pytest.raises(cli.ConfigError):
        read_config(str(path))
    path.write_text("normalize_div = false\n")  # a removed setting
    with pytest.raises(cli.ConfigError, match="unknown key 'normalize_div'"):
        read_config(str(path))


def _config_file(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    return str(path)


def _example_value(option):
    """A valid value of the option: (its text, the value it parses to, the flag's arguments)."""
    if option.kind is bool:
        value = option.flag is not None and not option.flag.startswith("--no-")
        return str(value).lower(), value, [option.flag]
    text = {int: "3", float: "0.25", str: "some/path"}[option.kind]
    return text, option.kind(text), [option.flag, text]


@pytest.mark.parametrize("option", cli.OPTIONS, ids=lambda option: option.key)
def test_flag_and_config_file_set_the_same_field(tmp_path, option):
    text, value, flag_args = _example_value(option)
    config = _config_file(tmp_path, f"{option.key} = {text}")
    for command in option.commands or ("train", "ablate", "gradcheck"):
        from_config = cli.parse([command, "--config", config])
        assert from_config == (command, {option.field: value})
        if option.flag:
            assert cli.parse([command, *flag_args]) == from_config
    # the field is one the program reads: a model or training setting, a check size, or a path
    built = cli.train_config(from_config[1])
    if option.field in {f.name for f in fields(HyperParams)}:
        assert getattr(built.hyperparams, option.field) == value
    elif option.field in {f.name for f in fields(TrainConfig)}:
        assert getattr(built, option.field) == value
    else:
        assert built == TrainConfig()
        assert option.field in inspect.signature(gradcheck.build_check_setup).parameters or option.kind is str


OUT_OF_RANGE = {
    "seed": "-1", "hidden": "0", "layers": "0", "alpha": "nan", "beta": "inf",
    "epochs": "0", "batch_size": "0", "learning_rate": "0", "tokens": "0", "embed_dim": "0",
}
OPTION = {option.key: option for option in cli.OPTIONS}


def test_every_numeric_option_has_an_out_of_range_case():
    assert {option.key for option in cli.OPTIONS if option.kind in (int, float)} == set(OUT_OF_RANGE)


def test_every_model_and_training_field_is_set_by_exactly_one_option():
    settable = [f.name for f in fields(HyperParams)] + [f.name for f in fields(TrainConfig) if f.name != "hyperparams"]
    setters = [option.field for option in cli.OPTIONS]
    assert {name: setters.count(name) for name in settable} == dict.fromkeys(settable, 1)


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize(
    "key, command",
    [(key, command) for key in OUT_OF_RANGE for command in ("train", "ablate", "gradcheck") if command in OPTION[key].commands],
)
def test_out_of_range_value_is_one_config_error_line(tmp_path, capsys, key, command, form):
    out = tmp_path / "out"
    out.mkdir()
    argv = [command] if command == "gradcheck" else [command, "--train", SAMPLE, "--dev", SAMPLE, "--out", str(out)]
    if form == "flag":
        argv += [OPTION[key].flag, OUT_OF_RANGE[key]]
    else:
        argv += ["--config", _config_file(tmp_path, f"{key} = {OUT_OF_RANGE[key]}")]
    assert main(argv) == EXIT_CONFIG
    _one_error_line(capsys, "error: ")
    assert os.listdir(out) == []


def _parser_flags() -> dict[str, set[str]]:
    """Each flag of the generated parser, with the commands that take it."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags: dict[str, set[str]] = {}
    for command, sub in commands.items():
        for action in sub._actions:
            for flag in action.option_strings:
                flags.setdefault(flag, set()).add(command)
    for own in ("-h", "--help", "--config"):
        flags.pop(own)
    return flags


def test_readme_lists_every_option_of_the_table():
    rows = re.findall(r"^\| (`--[\w-]+`|config file only) \| `(\w+)` \|[^|]*\| ([^|]*) \|", (ROOT / "README.md").read_text(), re.M)
    every = ("train", "eval", "ablate", "gradcheck", "scores", "convert")
    listed = {key: flag.strip("`") if flag.startswith("`") else None for flag, key, _ in rows}
    assert listed == {option.key: option.flag for option in cli.OPTIONS}
    commands = {
        flag.strip("`"): set(every) if where.strip() == "all" else set(where.strip().split(", "))
        for flag, _, where in rows
        if flag.startswith("`")
    }
    assert commands == _parser_flags()


def test_flags_override_config(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"train = {SAMPLE}\nepochs = 1\nhidden = 8\nseed = 1\nlayers = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--hidden", "6", "--out", str(out_b)]) == EXIT_OK
    assert load_checkpoint(out_b / "checkpoint.bin").hp.hidden == 6
    assert load_checkpoint(out_a / "checkpoint.bin").hp.hidden == 8


# ---------------------------------------------------------------------------
# train


def test_train_happy_path_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    code = main([
        "train", "--train", SAMPLE, "--out", str(out),
        "--epochs", "1", "--hidden", "8", "--layers", "1", "--seed", "0",
    ])
    assert code == EXIT_OK
    assert (out / "checkpoint.bin").is_file()
    lines = (out / "metrics.jsonl").read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["epoch"] for e in entries] == [0, 1]
    assert all(set(e) == {
        "epoch", "split", "accuracy", "macro_f1",
        "loss_div", "loss_const", "loss_pred", "loss_total",
    } for e in entries)


def test_train_missing_path_is_config_error(tmp_path):
    assert main(["train", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["train", "--train", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("where", ["missing/model.bin", "a-directory"])
def test_an_unwritable_checkpoint_path_is_exit_2_before_training(tmp_path, capsys, monkeypatch, where):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran before the checkpoint path was checked")

    monkeypatch.setattr(cli, "train", no_training)
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / where)
    assert main(["train", "--train", SAMPLE, "--out", str(tmp_path), "--checkpoint", path]) == EXIT_CONFIG
    err = _one_error_line(capsys, "error: ")
    assert err == f"error: checkpoint path is not a file in an existing directory: {path}\n"
    assert os.listdir(tmp_path) == ["a-directory"]


def test_train_malformed_line_reports_line_and_exit_3(tmp_path, capsys):
    examples = parse_corpus(SAMPLE)[:8]
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps({
        "tokens": list(e.tokens), "heads": list(e.heads),
        "aspect_from": e.aspect_from, "aspect_to": e.aspect_to, "label": e.label,
    }) for e in examples]
    lines[6] = '{"tokens": ["a", "b"], "heads": [1, 0], "aspect_from": 0, "aspect_to": 1, "label": "positive"}'
    path.write_text("\n".join(lines) + "\n")
    code = main(["train", "--train", str(path), "--out", str(tmp_path), "--epochs", "1"])
    assert code == EXIT_DATA
    assert "line 7" in capsys.readouterr().err


def test_train_on_empty_corpus_is_exit_3(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["train", "--train", str(empty), "--out", str(tmp_path), "--epochs", "1"]) == EXIT_DATA
    assert capsys.readouterr().err == "data error: no examples\n"


def test_eval_on_empty_corpus_is_exit_3(tmp_path, capsys):
    checkpoint, _ = _overfit_checkpoint(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--checkpoint", checkpoint, "--test", str(empty)]) == EXIT_DATA
    assert capsys.readouterr().err == "data error: no examples\n"


def test_train_determinism_byte_identical_outputs(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        out.mkdir()
        code = main([
            "train", "--train", SAMPLE, "--dev", SAMPLE, "--out", str(out),
            "--epochs", "2", "--hidden", "8", "--layers", "2", "--seed", "11",
        ])
        assert code == EXIT_OK
        outs.append(out)
    for artifact in ("checkpoint.bin", "metrics.jsonl"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def _tree_bytes(root):
    return {path.relative_to(root): path.read_bytes() if path.is_file() else None for path in sorted(root.rglob("*"))}


def test_train_with_embeddings_file(tmp_path):
    # The sample file is under the cache floor: the installed assets stay as they are.
    assets = _tree_bytes(ASSETS)
    out = tmp_path / "run"
    out.mkdir()
    code = main([
        "train", "--train", SAMPLE, "--embeddings", str(ASSETS / "sample_embeddings.txt"),
        "--out", str(out), "--epochs", "1", "--hidden", "6", "--layers", "1",
    ])
    assert code == EXIT_OK
    assert load_checkpoint(out / "checkpoint.bin").table.dim == 5
    assert _tree_bytes(ASSETS) == assets
    assert sorted(os.listdir(out)) == ["checkpoint.bin", "metrics.jsonl"]


def test_the_embedding_cache_is_ignored_by_git():
    patterns = (ROOT / ".gitignore").read_text().splitlines()
    assert "*" + data._TABLE_CACHE_SUFFIX in patterns


@pytest.mark.parametrize("dev", [False, True])
def test_train_reads_its_own_embedding_cache_to_the_same_outputs(tmp_path, monkeypatch, dev):
    # The floor at 0 lets the sample file stand for a large one: the first run
    # parses it and writes the cache, the second reads the cache and parses nothing.
    monkeypatch.setattr(data, "_TABLE_CACHE_BYTES", 0)
    vectors = tmp_path / "vectors.txt"
    vectors.write_bytes((ASSETS / "sample_embeddings.txt").read_bytes())
    argv = ["train", "--train", SAMPLE, "--embeddings", str(vectors), "--epochs", "2", "--hidden", "6"]
    argv += ["--dev", SAMPLE] if dev else []

    def refuse(path, digest=None):
        raise AssertionError("the cached file was parsed again")

    outs = []
    for run in ("parsed", "cached"):
        if run == "cached":
            monkeypatch.setattr(data, "_read_canonical_embeddings", refuse)
            monkeypatch.setattr(data, "_parse_embedding_lines", refuse)
        out = tmp_path / run
        out.mkdir()
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert (tmp_path / ("vectors.txt" + data._TABLE_CACHE_SUFFIX)).is_file()
        outs.append(out)
    for artifact in ("checkpoint.bin", "metrics.jsonl"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_an_input_path_that_is_not_a_regular_file_is_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "vectors.txt"
    if kind == "directory":
        path.mkdir()
    else:
        os.mkfifo(path)
    out = tmp_path / "run"
    out.mkdir()
    assert main(["train", "--train", SAMPLE, "--embeddings", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert _one_error_line(capsys, "error: ") == f"error: --embeddings path is not a regular file: {path}\n"
    assert os.listdir(out) == []


def test_train_with_embeddings_whose_mean_overflows_is_exit_3(tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("the 1e308 1.0\nfood 1e308 2.0\nwas 1.0 1.0\n")
    out = tmp_path / "run"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would be two more stderr lines
        code = main(["train", "--train", SAMPLE, "--embeddings", str(vectors), "--out", str(out), "--epochs", "1"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "data error: the unknown-word row, the mean of the vectors, overflows\n"
    assert os.listdir(out) == []


# ---------------------------------------------------------------------------
# eval


def test_eval_overfit_model_reaches_perfect_accuracy(tmp_path, capsys):
    ckpt, corpus = _overfit_checkpoint(tmp_path)
    code = main(["eval", "--checkpoint", ckpt, "--test", corpus])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["accuracy"] == 1.0
    assert payload["macro_f1"] == 1.0


def test_eval_with_garbage_checkpoint_is_exit_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    assert main(["eval", "--checkpoint", str(bad), "--test", SAMPLE]) == EXIT_CHECKPOINT


def test_eval_on_a_version_1_checkpoint_is_exit_4(tmp_path, capsys):
    checkpoint, corpus = _tampered_checkpoint(tmp_path, lambda model: None)
    model = load_checkpoint(checkpoint)
    entries = {"embeddings": model.table.vectors, **model.tensors}
    values = {name: {"shape": list(t.shape), "values": t.data.ravel().tolist()} for name, t in entries.items()}
    old = tmp_path / "model.json"  # version 1: the whole model as one JSON object
    old.write_text(json.dumps({
        "format": "absa-gcn-checkpoint", "version": 1, "hyperparams": asdict(model.hp),
        "embedding_dim": model.table.dim, "unk_index": model.table.unk_index, "embeddings_trainable": True,
        "vocabulary": sorted(model.table.vocabulary, key=model.table.vocabulary.get),
        "embeddings": values.pop("embeddings"), "parameters": values,
    }))
    assert main(["eval", "--checkpoint", str(old), "--test", corpus]) == EXIT_CHECKPOINT
    _one_error_line(capsys, "checkpoint error: not a valid checkpoint: no version 2 magic bytes")


def _tampered_checkpoint(tmp_path, tamper):
    corpus = make_overfit_corpus(6, seed=4)
    config = TrainConfig(epochs=1, batch_size=6, seed=5, hyperparams=HyperParams(hidden=4, layers=1))
    model, _ = train(corpus, None, config)
    tamper(model)
    path = tmp_path / "tampered.bin"
    save_checkpoint(path, model)
    return str(path), _write_corpus(tmp_path, corpus)


def test_eval_with_transposed_tensor_is_exit_4(tmp_path, capsys):
    def transpose(model):
        model.tensors["w_cls_out"].data = model.tensors["w_cls_out"].data.T.copy()

    checkpoint, corpus = _tampered_checkpoint(tmp_path, transpose)
    assert main(["eval", "--checkpoint", checkpoint, "--test", corpus]) == EXIT_CHECKPOINT
    assert capsys.readouterr().err == (
        "checkpoint error: tensor 'w_cls_out' has shape (4, 3), expected (3, 4)\n"
    )


@pytest.mark.parametrize("unk_index", [10**6, 0])
def test_eval_with_a_wrong_unknown_word_row_is_exit_4(tmp_path, capsys, unk_index):
    checkpoint, corpus = _tampered_checkpoint(tmp_path, lambda model: setattr(model.table, "unk_index", unk_index))
    assert main(["eval", "--checkpoint", checkpoint, "--test", corpus]) == EXIT_CHECKPOINT
    _one_error_line(capsys, f"checkpoint error: unk_index {unk_index} is not ")


def test_eval_with_non_finite_value_is_exit_4(tmp_path, capsys):
    checkpoint, corpus = _tampered_checkpoint(tmp_path, lambda model: None)
    block = load_checkpoint(checkpoint).tensors["b_gcn_0"].data
    poisoned = block.copy()
    poisoned[2] = float("nan")
    path = pathlib.Path(checkpoint)
    assert path.read_bytes().count(block.tobytes()) == 1
    path.write_bytes(path.read_bytes().replace(block.tobytes(), poisoned.tobytes()))
    assert main(["eval", "--checkpoint", checkpoint, "--test", corpus]) == EXIT_CHECKPOINT
    assert capsys.readouterr().err == "checkpoint error: tensor 'b_gcn_0' holds a non-finite value\n"


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err, err
    return err


@pytest.mark.parametrize("damage", ["random-bytes", "cut-in-header", "cut-in-block"])
def test_eval_with_unreadable_checkpoint_is_exit_4(tmp_path, capsys, damage):
    checkpoint, corpus = _tampered_checkpoint(tmp_path, lambda model: None)
    path = pathlib.Path(checkpoint)
    whole = path.read_bytes()
    header_end = len(whole) - len(split_frame(whole)[2])
    path.write_bytes({
        "random-bytes": np.random.default_rng(6).bytes(2000),
        "cut-in-header": whole[: header_end - 10],
        "cut-in-block": whole[: header_end + 20],
    }[damage])
    assert main(["eval", "--checkpoint", checkpoint, "--test", corpus]) == EXIT_CHECKPOINT
    _one_error_line(capsys, "checkpoint error: ")


def test_train_with_a_non_finite_parameter_saves_nothing(tmp_path, monkeypatch, capsys):
    args = ["train", "--train", SAMPLE, "--out", str(tmp_path), "--epochs", "1", "--hidden", "4", "--layers", "1"]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    before = (tmp_path / "checkpoint.bin").read_bytes()
    real_train = cli.train

    def diverging_train(*a, **kw):
        model, log = real_train(*a, **kw)
        model.tensors["b_cls_out"].data[0] = float("nan")
        return model, log

    monkeypatch.setattr(cli, "train", diverging_train)
    assert main(args) == EXIT_CHECKPOINT
    _one_error_line(capsys, "checkpoint error: tensor 'b_cls_out' holds a non-finite value")
    assert (tmp_path / "checkpoint.bin").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["checkpoint.bin", "metrics.jsonl"]


def test_a_diverging_run_is_exit_5_and_writes_nothing(tmp_path, capsys):
    argv = ["train", "--train", SAMPLE, "--out", str(tmp_path), "--lr", "1e308", "--epochs", "3", "--batch-size", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would be more stderr lines
        assert main([*argv, "--hidden", "8"]) == EXIT_DIVERGED
    err = _one_error_line(capsys, "training diverged: ")
    assert err == "training diverged: the loss is nan in epoch 1; nothing was written\n"
    assert os.listdir(tmp_path) == []


def test_a_last_step_divergence_without_dev_is_exit_5_and_writes_nothing(tmp_path, capsys):
    argv = ["train", "--train", SAMPLE, "--out", str(tmp_path), "--lr", "1e308", "--epochs", "1", "--hidden", "8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DIVERGED
    err = _one_error_line(capsys, "training diverged: ")
    assert err == "training diverged: the loss is nan on the last batch after the last step; nothing was written\n"
    assert os.listdir(tmp_path) == []


def _saturate(model):
    """Set every weight matrix to +-1e308: finite, but every forward pass overflows."""
    for _, t in model.named_tensors():
        if t.data.ndim == 2:
            t.data[...] = np.where(t.data >= 0, 1e308, -1e308)
    return model


def _overflowing_checkpoint(tmp_path):
    """A two-layer model whose weights are finite but near 1e308, so every forward pass overflows."""
    corpus = make_overfit_corpus(6, seed=4)
    config = TrainConfig(epochs=1, batch_size=6, seed=5, hyperparams=HyperParams(hidden=4, layers=2))
    model, _ = train(corpus, None, config)
    path = tmp_path / "overflowing.bin"
    save_checkpoint(path, _saturate(model))
    return str(path), _write_corpus(tmp_path, corpus)


@pytest.mark.parametrize("command, what", [("eval", "loss"), ("scores", "importance score")])
@pytest.mark.parametrize("to_file", [False, True])
def test_a_non_finite_loss_or_score_is_exit_4_and_no_json(tmp_path, capsys, command, what, to_file):
    checkpoint, corpus = _overflowing_checkpoint(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, "--checkpoint", checkpoint, "--test", corpus] + (["--out", str(out)] if to_file else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would be more stderr lines
        assert main(argv) == EXIT_CHECKPOINT
    captured = capsys.readouterr()
    assert captured.err == f"checkpoint error: the model gives a non-finite {what} on this corpus\n"
    assert captured.out == ""
    assert os.listdir(out) == []


def test_nan_class_probabilities_are_exit_5_in_train_and_exit_4_in_eval(tmp_path, capsys, monkeypatch):
    """A one-layer model (hidden 4) at +-1e308 gives NaN class probabilities; the log's floor must not hide them."""
    corpus = _write_corpus(tmp_path, make_overfit_corpus(6, seed=4))
    config = TrainConfig(epochs=1, batch_size=6, seed=5, hyperparams=HyperParams(hidden=4, layers=1))
    model, _ = train(parse_corpus(corpus), None, config)
    checkpoint = tmp_path / "overflowing.bin"
    save_checkpoint(checkpoint, _saturate(model))
    out = tmp_path / "out"
    out.mkdir()
    real_init = trainer_module.init_model_state
    monkeypatch.setattr(trainer_module, "init_model_state", lambda *a: _saturate(real_init(*a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would be more stderr lines
        assert main(["eval", "--checkpoint", str(checkpoint), "--test", corpus]) == EXIT_CHECKPOINT
        assert _one_error_line(capsys, "checkpoint error: ") == (
            "checkpoint error: the model gives a non-finite loss on this corpus\n"
        )
        argv = ["train", "--train", corpus, "--out", str(out), "--hidden", "4", "--layers", "1", "--epochs", "1"]
        assert main(argv) == EXIT_DIVERGED
    err = _one_error_line(capsys, "training diverged: ")
    assert err == "training diverged: the loss is nan in epoch 0; nothing was written\n"
    assert os.listdir(out) == []


def test_scores_rows_match_each_example_run_alone(tmp_path, capsys):
    """Also for a -Con and a -Gate checkpoint, whose passes build no scores, and no gates."""
    corpus = make_overfit_corpus(EVAL_CHUNK + 5, seed=2)
    corpus_path = _write_corpus(tmp_path, corpus)
    for variant in ({}, {"con_on": False}, {"gate_on": False}):
        hp = HyperParams(hidden=6, layers=2, **variant)
        model, _ = train(corpus, None, TrainConfig(epochs=1, batch_size=8, seed=3, hyperparams=hp))
        checkpoint = tmp_path / "model.bin"
        save_checkpoint(checkpoint, model)
        assert main(["scores", "--checkpoint", str(checkpoint), "--test", corpus_path]) == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == len(corpus)
        loaded = load_checkpoint(checkpoint)
        for row, ex in zip(rows, corpus):
            _, alone = total_loss(ex, loaded)
            assert list(row) == ["tokens", "aspect_from", "aspect_to", "syn", "mod", "predicted", "gold"]
            assert (row["tokens"], row["aspect_from"], row["aspect_to"]) == (list(ex.tokens), ex.aspect_from, ex.aspect_to)
            np.testing.assert_allclose(row["syn"], alone.syn, rtol=0, atol=1e-12)
            np.testing.assert_allclose(row["mod"], model_scores(alone, loaded).data, rtol=0, atol=1e-12)
            assert row["predicted"] == LABELS[int(alone.class_probs.data[0].argmax())]
            assert row["gold"] == ex.label


def test_json_output_is_strict():
    assert cli._json({"loss": 1.5}) == '{"loss": 1.5}'
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._json({"loss": value})


def _write_bytes(path, content: bytes) -> str:
    path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("reader", ["corpus", "embeddings", "conllu", "aspects", "config"])
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, reader):
    conllu, aspects = str(ASSETS / "sample.conllu"), str(ASSETS / "sample_aspects.json")
    bad = tmp_path / "bad"
    train = ["train", "--out", str(tmp_path), "--epochs", "1", "--hidden", "4", "--layers", "1"]
    if reader == "corpus":
        first = (ASSETS / "sample_corpus.jsonl").read_bytes().splitlines(keepends=True)[0]
        argv = [*train, "--train", _write_bytes(bad, first + b"\xff\xfe\n")]
    elif reader == "embeddings":
        argv = [*train, "--train", SAMPLE, "--embeddings", _write_bytes(bad, b"a 1 2\n\xff\xfe 1 2\n")]
    elif reader == "conllu":
        argv = ["convert", "--conllu", _write_bytes(bad, b"# text\n\xff\xfe\n"), "--aspects", aspects]
    elif reader == "aspects":
        argv = ["convert", "--conllu", conllu, "--aspects", _write_bytes(bad, b"[\n\xff\xfe]")]
    else:
        argv = [*train, "--config", _write_bytes(bad, f"train = {SAMPLE}\n".encode() + b"\xff\xfe = 1\n")]
    if reader == "config":
        assert main(argv) == EXIT_CONFIG
        assert _one_error_line(capsys, "error: ") == f"error: {bad}:2: not UTF-8 text\n"
    else:
        assert main(argv) == EXIT_DATA
        assert _one_error_line(capsys, "data error: ") == "data error: line 2: not UTF-8 text\n"


@pytest.mark.parametrize("payload", [b"[" * 100_000 + b"]" * 100_000, b"1" * 5000], ids=["deep-array", "long-integer"])
@pytest.mark.parametrize("reader", ["corpus", "aspects", "checkpoint"])
def test_json_past_the_parser_limits_is_one_error_line(tmp_path, capsys, monkeypatch, reader, payload):
    # json.loads raises RecursionError on a deep nesting and a ValueError
    # that is no JSONDecodeError on an integer of more than 4300 digits.
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    bad = tmp_path / "bad"
    if reader == "corpus":
        first = (ASSETS / "sample_corpus.jsonl").read_bytes().splitlines(keepends=True)[0]
        argv = ["train", "--out", str(out), "--epochs", "1", "--hidden", "4", "--layers", "1"]
        argv += ["--train", _write_bytes(bad, first + payload + b"\n")]
        code, prefix = EXIT_DATA, "data error: line 2: unreadable JSON: "
    elif reader == "aspects":
        argv = ["convert", "--conllu", str(ASSETS / "sample.conllu"), "--aspects", _write_bytes(bad, payload)]
        code, prefix = EXIT_DATA, "data error: unreadable aspect JSON: "
    else:
        frame = join_frame(model_module._MAGIC, None, b"", header_bytes=payload)
        argv = ["eval", "--checkpoint", _write_bytes(bad, frame), "--test", SAMPLE]
        code, prefix = EXIT_CHECKPOINT, "checkpoint error: not a valid checkpoint: "
    assert main([*argv, "--out", str(out)] if reader == "aspects" else argv) == code
    _one_error_line(capsys, prefix)
    assert capsys.readouterr().out == "" and list(out.iterdir()) == []


def test_bool_aspect_span_is_exit_3(tmp_path, capsys):
    corpus = tmp_path / "bools.jsonl"
    corpus.write_text('{"tokens":["a","b"],"heads":[-1,0],"aspect_from":false,"aspect_to":true,"label":"neutral"}\n')
    assert main(["train", "--train", str(corpus), "--out", str(tmp_path), "--epochs", "1"]) == EXIT_DATA
    assert capsys.readouterr().err == "data error: line 1: aspect span bounds must be integers\n"


# ---------------------------------------------------------------------------
# scores


def test_scores_dump_contract(tmp_path, capsys):
    ckpt, corpus = _overfit_checkpoint(tmp_path)
    single = _write_corpus(
        tmp_path,
        [
            parse_corpus(corpus)[0],
            Example(tokens=["food"], heads=[-1], aspect_from=0, aspect_to=1, label="neutral"),
            Example(tokens=["a", "b", "c"], heads=[-1, 0, 1], aspect_from=0, aspect_to=1, label="neutral"),
        ],
        "scores_corpus.jsonl",
    )
    code = main(["scores", "--checkpoint", ckpt, "--test", single])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {"tokens", "aspect_from", "aspect_to", "syn", "mod", "predicted", "gold"}
        assert abs(sum(row["syn"]) - 1.0) < 1e-6
        assert abs(sum(row["mod"]) - 1.0) < 1e-6
        span = range(row["aspect_from"], row["aspect_to"])
        assert max(range(len(row["syn"])), key=row["syn"].__getitem__) in span

    single_token = rows[1]
    assert single_token["syn"] == [1.0] and single_token["mod"] == [1.0]
    chain = rows[2]
    assert chain["syn"] == pytest.approx([0.66524, 0.24473, 0.09003], abs=1e-4)


def test_scores_writes_file_with_out(tmp_path):
    ckpt, corpus = _overfit_checkpoint(tmp_path)
    out = tmp_path / "dump"
    out.mkdir()
    assert main(["scores", "--checkpoint", ckpt, "--test", corpus, "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
    assert len(rows) == 12


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "worst:" in out


def test_gradcheck_covers_ablated_variants(capsys):
    assert main(["gradcheck", "--seed", "2", "--no-gate"]) == EXIT_OK
    assert main(["gradcheck", "--seed", "2", "--gatediv", "--layers", "3"]) == EXIT_OK
    assert main(["gradcheck", "--seed", "2", "--no-con", "--alpha", "0.5"]) == EXIT_OK


def test_gradcheck_repeated_runs_identical(capsys):
    assert main(["gradcheck", "--seed", "3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["gradcheck", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("flag", ["--hidden", "--layers", "--tokens", "--embed-dim"])
def test_gradcheck_zero_size_is_config_error(capsys, flag):
    assert main(["gradcheck", flag, "0"]) == EXIT_CONFIG
    _one_error_line(capsys, "error: ")


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    import absa_gcn.model as model

    real_relu = model.relu

    def corrupted_relu(t):
        out = real_relu(t)
        original = out._backward
        out._backward = lambda g: tuple(None if p is None else 1.05 * p for p in original(g))
        return out

    monkeypatch.setattr(model, "relu", corrupted_relu)
    assert main(["gradcheck", "--seed", "0"]) == EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# ablate


def test_ablate_emits_all_seven_rows(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, make_overfit_corpus(8, seed=2), "train.jsonl")
    dev = _write_corpus(tmp_path, make_overfit_corpus(4, seed=3), "dev.jsonl")
    out = tmp_path / "abl"
    out.mkdir()
    code = main([
        "ablate", "--train", corpus, "--dev", dev, "--out", str(out),
        "--epochs", "1", "--hidden", "4", "--layers", "2", "--seed", "1",
    ])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in (out / "ablation.jsonl").read_text().splitlines()]
    assert [r["variant"] for r in rows] == [
        "full", "-Div", "-Con", "-Div-Con", "-Gate", "-Gate-Con", "GateDiv",
    ]


# ---------------------------------------------------------------------------
# convert


def test_convert_bundled_fixture(tmp_path):
    out = tmp_path / "conv"
    out.mkdir()
    code = main([
        "convert", "--conllu", str(ASSETS / "sample.conllu"),
        "--aspects", str(ASSETS / "sample_aspects.json"), "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in (out / "converted.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["heads"] == [1, 3, 3, -1]
    assert rows[1]["heads"] == [2, 2, -1]
    # loader round-trip
    examples = parse_corpus(out / "converted.jsonl")
    assert examples[0].tokens == ("The", "food", "was", "great")


def test_convert_to_stdout_prints_the_bytes_of_the_converted_file(tmp_path, capsys):
    argv = ["convert", "--conllu", str(ASSETS / "sample.conllu"), "--aspects", str(ASSETS / "sample_aspects.json")]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert printed.encode("utf-8") == (tmp_path / "converted.jsonl").read_bytes()


@pytest.mark.parametrize("to_file", [True, False])
def test_convert_with_an_empty_sidecar_is_exit_3_and_writes_nothing(tmp_path, capsys, to_file):
    aspects = _write_bytes(tmp_path / "aspects.json", b"[]")
    out = tmp_path / "conv"
    out.mkdir()
    argv = ["convert", "--conllu", str(ASSETS / "sample.conllu"), "--aspects", aspects]
    assert main([*argv, "--out", str(out)] if to_file else argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "data error: aspect sidecar holds no aspects\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rows, message", [
    ("1\tde\t_\t_\t_\t_\t-3\t_\t_\t_\n2\tel\t_\t_\t_\t_\t0\t_\t_\t_\n", "line 1: negative HEAD -3"),
    ("2\tel\t_\t_\t_\t_\t0\t_\t_\t_\n1\tde\t_\t_\t_\t_\t2\t_\t_\t_\n", "line 1: ID '2' where the sentence's next ID is 1"),
])
def test_convert_with_a_negative_head_or_ids_out_of_order_is_exit_3(tmp_path, capsys, rows, message):
    conllu = _write_bytes(tmp_path / "s.conllu", rows.encode())
    aspects = _write_bytes(tmp_path / "a.json", b'[{"sentence_index": 0, "from": 0, "to": 1, "label": "neutral"}]')
    assert main(["convert", "--conllu", conllu, "--aspects", aspects, "--out", str(tmp_path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"data error: {message}\n")
    assert not (tmp_path / "converted.jsonl").exists()


def test_convert_missing_sidecar_is_config_error(tmp_path):
    code = main(["convert", "--conllu", str(ASSETS / "sample.conllu")])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# output files


@pytest.mark.parametrize("command", ["ablate", "scores", "convert"])
def test_failed_output_write_leaves_the_old_file_whole(tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    if command == "ablate":
        corpus = _write_corpus(tmp_path, make_overfit_corpus(4, seed=2), "train.jsonl")
        argv = ["ablate", "--train", corpus, "--dev", corpus, "--epochs", "1", "--hidden", "4", "--layers", "2"]
        artifact = "ablation.jsonl"
    elif command == "scores":
        checkpoint, corpus = _tampered_checkpoint(tmp_path, lambda model: None)
        argv = ["scores", "--checkpoint", checkpoint, "--test", corpus]
        artifact = "scores.jsonl"
    else:
        argv = ["convert", "--conllu", str(ASSETS / "sample.conllu"), "--aspects", str(ASSETS / "sample_aspects.json")]
        artifact = "converted.jsonl"
    (out / artifact).write_text("old\n")
    real = data.write_atomically

    def disk_full(path, **kwargs):
        with real(path, **kwargs) as fh:
            fh.write("partial")
            raise OSError("disk full")

    monkeypatch.setattr(cli, "write_atomically", disk_full)
    monkeypatch.setattr(data, "write_atomically", disk_full)
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    _one_error_line(capsys, "error: disk full")
    assert (out / artifact).read_text() == "old\n"
    assert os.listdir(out) == [artifact]


# ---------------------------------------------------------------------------
# memory


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--train", SAMPLE, "--hidden", str(10**12)],
        ["train", "--train", SAMPLE, "--layers", str(10**12)],
        ["ablate", "--train", SAMPLE, "--dev", SAMPLE, "--hidden", str(10**12)],
        ["ablate", "--train", SAMPLE, "--dev", SAMPLE, "--embeddings", str(ASSETS / "sample_embeddings.txt"),
         "--layers", str(10**12)],
        ["gradcheck", "--tokens", "1", "--embed-dim", str(10**12)],
        ["gradcheck", "--tokens", str(10**12)],
        ["gradcheck", "--layers", str(10**12)],
        # About 320 MB of values, but 40 million tensors whose objects need tens of gigabytes.
        ["train", "--train", SAMPLE, "--hidden", "1", "--layers", str(10**7)],
    ],
    ids=[
        "train-hidden", "train-layers", "ablate-hidden", "ablate-embeddings-layers",
        "gradcheck-dim", "gradcheck-tokens", "gradcheck-layers", "train-deep-thin",
    ],
)
def test_a_model_past_physical_memory_is_exit_2_before_it_is_built(tmp_path, capsys, monkeypatch, argv):
    # Each model would need terabytes at least; the limit is fixed so that the test reads the same on any machine.
    monkeypatch.setattr(model_module, "_physical_memory", lambda: 2**30)
    # Nothing of the model is built: a call to any of these would raise TypeError.
    monkeypatch.setattr(model_module.ModelState, "initialize", None)
    monkeypatch.setattr(data, "build_random_table", None)
    monkeypatch.setattr(gradcheck, "random_tree_heads", None)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    _one_error_line(capsys, "error: the model's parameters need ")
    assert capsys.readouterr().out == "" and list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_the_memory_check_refuses_a_model_one_byte_past_physical_memory(tmp_path, capsys, monkeypatch, command):
    # The bytes the check counts are those of the model the command builds: the table and every parameter.
    if command == "train":
        argv = ["train", "--train", SAMPLE, "--epochs", "1", "--hidden", "4", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        model = load_checkpoint(tmp_path / "checkpoint.bin")
    else:
        argv = ["gradcheck", "--out", str(tmp_path)]
        model = gradcheck.build_check_setup()[1]
    need = sum(t.data.nbytes + TENSOR_OBJECT_BYTES for _, t in model.parameters())
    for name in os.listdir(tmp_path):
        os.remove(tmp_path / name)
    capsys.readouterr()
    monkeypatch.setattr(model_module, "_physical_memory", lambda: need - 1)
    assert main(argv) == EXIT_CONFIG
    err = _one_error_line(capsys, "error: the model's parameters need ")
    assert err.endswith(f" need {need} bytes, more than the {need - 1} bytes of physical memory\n")
    assert os.listdir(tmp_path) == []
    monkeypatch.setattr(model_module, "_physical_memory", lambda: need)
    assert main(argv) == EXIT_OK


_NUMPY_MEMORY_ERROR = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError(_NUMPY_MEMORY_ERROR), f"error: out of memory: {_NUMPY_MEMORY_ERROR}\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_a_memory_error_is_exit_2_and_one_line(tmp_path, capsys, monkeypatch, error, line):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "train", exhausted)
    assert main(["train", "--train", SAMPLE, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == line
    assert os.listdir(tmp_path) == []
