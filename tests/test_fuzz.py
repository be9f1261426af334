"""Random and mutated bytes through the command line, and random examples through the corpus format.

Every input kind a command reads (a corpus, an embedding file, CoNLL-U, an
aspect sidecar, a config file, a checkpoint) is replaced by random bytes, and
then by a valid file of its kind with a few bytes flipped, inserted or
deleted or, in JSON, one value replaced by a value of another type. The
command must succeed, or end in a documented exit code with one line on
stderr and no traceback. A damaged embedding cache must change nothing a
load returns. The examples are derandomized, so a failure reproduces.
"""

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from absa_gcn import cli
from absa_gcn import data as data_module
from absa_gcn.data import LABELS, Example, LoadError, load_embeddings, parse_corpus, write_corpus
from absa_gcn.synthetic import random_tree_heads
from conftest import join_frame, split_frame

ASSETS = pathlib.Path(__file__).resolve().parents[1] / "src" / "absa_gcn" / "assets"
SAMPLE = str(ASSETS / "sample_corpus.jsonl")
FUZZ = settings(max_examples=40, deadline=None, derandomize=True)


def _commands(fuzz: str, good: dict) -> dict:
    """For each input kind, the command line that reads ``fuzz`` as that kind."""
    return {
        "corpus": ["eval", "--checkpoint", good["checkpoint"], "--test", fuzz],
        "embeddings": ["train", "--train", SAMPLE, "--embeddings", fuzz, "--epochs", "1", "--out", good["out"]],
        "conllu": ["convert", "--conllu", fuzz, "--aspects", good["aspects"]],
        "aspects": ["convert", "--conllu", str(ASSETS / "sample.conllu"), "--aspects", fuzz],
        # The corpus is empty, so a config that parses still ends in a data error.
        "config": ["train", "--config", fuzz, "--train", good["empty"], "--out", good["out"]],
        "checkpoint": ["eval", "--checkpoint", fuzz, "--test", SAMPLE],
    }


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def _is_embedding_file(path: str) -> bool:
    try:
        load_embeddings(path)
    except LoadError:
        return False
    return True


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Valid files: a tiny checkpoint from ``train``, a config file for ``eval``, a sidecar, an empty corpus."""
    root = tmp_path_factory.mktemp("inputs")
    good = {"out": str(root / "out"), "checkpoint": str(root / "checkpoint.bin"), "empty": str(root / "empty.jsonl")}
    (root / "out").mkdir()
    assert _run(["train", "--train", SAMPLE, "--epochs", "1", "--hidden", "4", "--out", str(root)]) == (0, "")
    # eval reads only the paths; the other keys are settings it ignores, so no size in the file reaches a model.
    good["config"] = str(root / "eval.cfg")
    pathlib.Path(good["config"]).write_text(
        f"# evaluate the tiny model\ncheckpoint = {good['checkpoint']}\ntest = {SAMPLE}\n"
        "hidden = 8\nlayers = 2\nalpha = 0.5\ngate = false\nlearning_rate = 0.01\nseed = 3\n"
    )
    # No sentence has this index, so even a CoNLL-U file that parses ends in a data error.
    good["aspects"] = str(root / "aspects.json")
    pathlib.Path(good["aspects"]).write_text('[{"sentence_index": 1000000, "from": 0, "to": 1, "label": "neutral"}]')
    pathlib.Path(good["empty"]).write_bytes(b"")
    good["fuzz"] = str(root / "fuzz")
    return good


@pytest.mark.parametrize("kind", ["corpus", "embeddings", "conllu", "aspects", "config", "checkpoint"])
@FUZZ
@given(payload=st.binary(max_size=200))
def test_random_bytes_as_each_input_end_in_one_error_line(good, kind, payload):
    fuzz = good["fuzz"]
    pathlib.Path(fuzz).write_bytes(payload)
    assume(kind != "embeddings" or not _is_embedding_file(fuzz))
    code, err = _run(_commands(fuzz, good)[kind])
    assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_CHECKPOINT), (payload, code, err)
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err, (payload, err)


# ---------------------------------------------------------------------------
# mutations of valid inputs

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
CONFIG_VALUES = ["true", "false", "0", "-1", "8", "0.5", "1e400", "nan", "abc", "", "/", "é"]


@st.composite
def byte_edits(draw, data: bytes) -> bytes:
    """``data`` with one to four bytes flipped, inserted or deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out) - 1))
        edit = draw(st.sampled_from(["flip", "insert", "delete"]))
        if edit == "flip":
            out[at] ^= 1 << draw(st.integers(0, 7))
        elif edit == "insert":
            out.insert(at, draw(st.integers(0, 255)))
        else:
            del out[at]
    return bytes(out)


@st.composite
def swapped(draw, value):
    """A JSON value with one value in it, at any depth, replaced by a value of another type."""
    children = list(value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ())
    if children and draw(st.integers(0, 4)):
        key, child = draw(st.sampled_from(children))
        out = dict(value) if isinstance(value, dict) else list(value)
        out[key] = draw(swapped(child))
        return out
    return draw(JSON_VALUES.filter(lambda new: type(new) is not type(value)))


@st.composite
def json_swaps(draw, data: bytes) -> bytes:
    """A JSON file with one value swapped, or a JSON Lines file with one value swapped in one line."""
    if not data.startswith(b"{"):
        return json.dumps(draw(swapped(json.loads(data)))).encode()
    lines = data.decode().splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = json.dumps(draw(swapped(json.loads(lines[at]))))
    return "\n".join(lines).encode() + b"\n"


@st.composite
def header_swaps(draw, data: bytes) -> bytes:
    """A checkpoint or an embedding cache with one value of its JSON header swapped, its length field kept true."""
    magic, header, body = split_frame(data)
    return join_frame(magic, draw(swapped(header)), body)


@st.composite
def config_swaps(draw, data: bytes) -> bytes:
    """A config file with one setting's value replaced by text of another kind."""
    lines = data.decode().splitlines()
    at = draw(st.integers(1, len(lines) - 1))
    value = draw(st.sampled_from(CONFIG_VALUES) | st.text(max_size=8))
    lines[at] = f"{lines[at].split('=')[0]}= {value}"
    return "\n".join(lines).encode() + b"\n"


def _mutation_cases(good: dict) -> dict:
    """For each input kind: a valid file's bytes, the command line that reads ``good["fuzz"]`` as it, its JSON swaps."""
    fuzz, conllu, aspects = good["fuzz"], str(ASSETS / "sample.conllu"), str(ASSETS / "sample_aspects.json")
    # The model's sizes come from the flags; only the table's width comes from the embedding file.
    train = ["train", "--train", SAMPLE, "--embeddings", fuzz, "--epochs", "1", "--hidden", "4", "--out", good["out"]]
    cases = {
        "corpus": (SAMPLE, ["eval", "--checkpoint", good["checkpoint"], "--test", fuzz], json_swaps),
        "embeddings": (str(ASSETS / "sample_embeddings.txt"), train, None),
        "conllu": (conllu, ["convert", "--conllu", fuzz, "--aspects", aspects], None),
        "aspects": (aspects, ["convert", "--conllu", conllu, "--aspects", fuzz], json_swaps),
        "config": (good["config"], ["eval", "--config", fuzz], config_swaps),
        "checkpoint": (good["checkpoint"], ["eval", "--checkpoint", fuzz, "--test", SAMPLE], header_swaps),
    }
    return {kind: (pathlib.Path(path).read_bytes(), argv, swaps) for kind, (path, argv, swaps) in cases.items()}


@pytest.mark.parametrize("kind", ["corpus", "embeddings", "conllu", "aspects", "config", "checkpoint"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_valid_inputs_succeed_or_end_in_one_error_line(good, kind, data):
    original, argv, swaps = _mutation_cases(good)[kind]
    payload = data.draw(byte_edits(original) if swaps is None else byte_edits(original) | swaps(original))
    pathlib.Path(good["fuzz"]).write_bytes(payload)
    code, err = _run(argv)
    if code == cli.EXIT_OK:
        assert err == "", (payload, err)
    else:
        assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_CHECKPOINT, cli.EXIT_DIVERGED), (payload, code, err)
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err, (payload, err)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    sentences=st.lists(
        st.tuples(
            st.lists(st.text(max_size=6), min_size=1, max_size=8),
            st.integers(0, 2**32 - 1),
            st.sampled_from(LABELS),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_written_corpus_parses_back_to_the_same_examples(tmp_path_factory, sentences):
    examples = []
    for tokens, seed, label in sentences:
        rng = np.random.default_rng(seed)
        n = len(tokens)
        start = int(rng.integers(n))
        end = int(rng.integers(start + 1, n + 1))
        examples.append(Example(tokens, random_tree_heads(n, rng), start, end, label))
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus(examples, path)
    assert parse_corpus(path) == examples


# ---------------------------------------------------------------------------
# a damaged embedding cache


def _refuse_parsing(path, digest=None):
    raise AssertionError(f"{path} was parsed, not read from its cache")


def _table_bytes(path):
    table = load_embeddings(path)
    return list(table.vocabulary), table.vectors.data.tobytes()


@pytest.fixture(scope="module")
def cached_vectors(tmp_path_factory):
    """A small embedding file alone in its directory, what its load returns, and its valid cache's bytes."""
    path = tmp_path_factory.mktemp("cache") / "vectors.txt"
    rows = np.random.default_rng(5).normal(size=(6, 3)).tolist()
    path.write_text("".join(f"w{i} " + " ".join(map(repr, row)) + "\n" for i, row in enumerate(rows)))
    with mock.patch.object(data_module, "_TABLE_CACHE_BYTES", 0):
        expected = _table_bytes(path)
    cache = pathlib.Path(f"{path}{data_module._TABLE_CACHE_SUFFIX}")
    return path, cache, expected, cache.read_bytes()


def _assert_the_load_parses_past(cached_vectors, damage):
    """With the cache replaced by ``damage(cache)``, a load returns the parse's bytes, leaves no temporary file and,
    unless a directory stands in the cache's place, a cache the next load reads."""
    path, cache, expected, _ = cached_vectors
    cache.unlink(missing_ok=True)
    damage(cache)
    with mock.patch.object(data_module, "_TABLE_CACHE_BYTES", 0):
        assert _table_bytes(path) == expected
        assert sorted(os.listdir(path.parent)) == sorted([path.name, cache.name])
        if not cache.is_dir():
            with mock.patch.multiple(
                data_module, _read_canonical_embeddings=_refuse_parsing, _parse_embedding_lines=_refuse_parsing
            ):
                assert _table_bytes(path) == expected


def _cache_fields(valid: bytes) -> dict:
    """The offsets at which each field of a cache ends: magic, header length, header, first row, block."""
    header_end = len(valid) - len(split_frame(valid)[2])
    return {"magic": 8, "length": 16, "header": header_end, "row": header_end + 24, "block": len(valid)}


def test_a_cache_cut_at_each_field_boundary_is_parsed_past(cached_vectors):
    valid = cached_vectors[3]
    ends = {0} | {end + step for end in _cache_fields(valid).values() for step in (-1, 0, 1)}
    for end in sorted(end for end in ends if 0 <= end < len(valid)):
        _assert_the_load_parses_past(cached_vectors, lambda cache: cache.write_bytes(valid[:end]))


@st.composite
def cache_flips(draw, valid: bytes) -> bytes:
    """The cache with one bit flipped in its magic and length, its header or its block."""
    ends = _cache_fields(valid)
    regions = [(0, ends["length"]), (ends["length"], ends["header"]), (ends["header"], len(valid))]
    start, end = draw(st.sampled_from(regions))
    at = draw(st.integers(start, end - 1))
    out = bytearray(valid)
    out[at] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_flipped_edited_and_swapped_cache_bytes_are_parsed_past(cached_vectors, data):
    valid = cached_vectors[3]
    damaged = data.draw(cache_flips(valid) | byte_edits(valid) | header_swaps(valid))
    _assert_the_load_parses_past(cached_vectors, lambda cache: cache.write_bytes(damaged))


def _rewritten(**change):
    """A damage that writes a cache, consistent in every other way, through the cache's own writer."""

    def damage(cache):
        path = pathlib.Path(str(cache)[: -len(data_module._TABLE_CACHE_SUFFIX)])
        table = load_embeddings(path)
        words, matrix = list(table.vocabulary), table.vectors.data.copy()
        size, digest = data_module._file_digest(path)
        source = (size + change.get("size", 0), change.get("digest", digest))
        if "value" in change:
            matrix[2, 1] = change["value"]
        if change.get("duplicate"):
            words[3] = words[1]
        version = data_module._TABLE_CACHE_VERSION + change.get("version", 0)
        with mock.patch.multiple(data_module, _TABLE_CACHE_BYTES=0, _TABLE_CACHE_VERSION=version):
            data_module._write_table_cache(path, source, words, matrix)
        assert cache.is_file()

    return damage


def _edited(edit):
    """A damage that writes a valid cache, then replaces its bytes by ``edit(bytes)``."""

    def damage(cache):
        _rewritten()(cache)
        cache.write_bytes(edit(cache.read_bytes()))

    return damage


def _with_header(**fields):
    def edit(valid):
        magic, header, body = split_frame(valid)
        return join_frame(magic, {**header, **fields}, body)

    return edit


def _nested_header(cache):
    nested = b"[" * 100_000 + b"]" * 100_000
    cache.write_bytes(join_frame(data_module._TABLE_CACHE_MAGIC, None, b"", header_bytes=nested))


@pytest.mark.parametrize(
    "damage",
    [
        _rewritten(value=float("inf")),
        _rewritten(value=float("nan")),
        _rewritten(duplicate=True),
        _rewritten(version=1),
        _rewritten(size=1),
        _rewritten(digest="0" * 64),
        _edited(lambda valid: valid + bytes(8)),
        _edited(_with_header(dim=10**15)),  # a table of 56 PB, were it read before the size is checked
        _nested_header,
        lambda cache: os.mkfifo(cache),  # opening a pipe for reading would wait for a writer
        lambda cache: cache.mkdir(),
    ],
    ids=[
        "inf", "nan", "duplicate-word", "version", "size", "digest", "trailing-bytes", "dim-past-the-file",
        "nested-header", "fifo", "directory",
    ],
)
def test_a_defective_cache_is_parsed_past(cached_vectors, damage):
    _assert_the_load_parses_past(cached_vectors, damage)
    _, cache, _, valid = cached_vectors
    if cache.is_dir():
        cache.rmdir()
    else:
        assert cache.read_bytes() == valid
