"""Random bytes through the command line, and random examples through the corpus format.

Every input kind a command reads (a corpus, an embedding file, CoNLL-U, an
aspect sidecar, a config file, a checkpoint) is replaced by random bytes. The
command must end in a documented exit code with one line on stderr and no
traceback. The examples are derandomized, so a failure reproduces.
"""

import contextlib
import io
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from absa_gcn import cli
from absa_gcn.data import LABELS, Example, LoadError, load_embeddings, parse_corpus, write_corpus
from absa_gcn.model import HyperParams, save_checkpoint
from absa_gcn.synthetic import random_tree_heads
from absa_gcn.trainer import TrainConfig, train

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
    """Valid files for the inputs that are not fuzzed: a tiny checkpoint, a sidecar, an empty corpus."""
    root = tmp_path_factory.mktemp("inputs")
    good = {"out": str(root / "out"), "checkpoint": str(root / "tiny.bin"), "empty": str(root / "empty.jsonl")}
    (root / "out").mkdir()
    model, _ = train(parse_corpus(SAMPLE), None, TrainConfig(epochs=1, hyperparams=HyperParams(hidden=4, layers=1)))
    save_checkpoint(good["checkpoint"], model)
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
