import contextlib
import json
import os
import re
import time
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import absa_gcn.data as data
from absa_gcn.data import (
    Example,
    LoadError,
    build_random_table,
    build_tree,
    convert_conllu,
    load_embeddings,
    parse_corpus,
    read_conllu_sentences,
    syntax_scores,
    write_corpus,
)
from absa_gcn.synthetic import random_tree_heads
from absa_gcn.tensor import gather_rows
from conftest import neighbor_sets

ASSETS = __import__("pathlib").Path(__file__).resolve().parents[1] / "src" / "absa_gcn" / "assets"


# ---------------------------------------------------------------------------
# Example validation


def test_minimal_example_is_valid():
    ex = Example(tokens=["good", "food"], heads=[1, -1], aspect_from=1, aspect_to=2, label="positive")
    assert ex.n == 2
    assert ex.label_index == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tokens=[], heads=[], aspect_from=0, aspect_to=0, label="positive"),
        dict(tokens=["a", "b"], heads=[1, 0], aspect_from=0, aspect_to=1, label="positive"),  # 2-cycle
        dict(tokens=["a", "b"], heads=[-1, -1], aspect_from=0, aspect_to=1, label="positive"),
        dict(tokens=["a", "b"], heads=[-1, 5], aspect_from=0, aspect_to=1, label="positive"),
        dict(tokens=["a", "b"], heads=[-1, 1], aspect_from=0, aspect_to=1, label="positive"),  # self-head
        dict(tokens=["a", "b"], heads=[-1, 0], aspect_from=1, aspect_to=1, label="positive"),  # empty span
        dict(tokens=["a", "b"], heads=[-1, 0], aspect_from=0, aspect_to=3, label="positive"),
        dict(tokens=["a", "b"], heads=[-1, 0], aspect_from=0, aspect_to=1, label="meh"),
        dict(tokens=["a", "b"], heads=[-1, 0], aspect_from=False, aspect_to=True, label="positive"),
        dict(tokens=["a", "b"], heads=[-1, 0], aspect_from=0, aspect_to=True, label="positive"),
    ],
)
def test_invalid_examples_rejected(kwargs):
    with pytest.raises(ValueError):
        Example(**kwargs)


def _cycle_verdict_by_walks(heads):
    """The cycle check the stamped walk replaced: every token walked to the root, O(n * depth)."""
    n = len(heads)
    for i in range(n):
        j, steps = i, 0
        while heads[j] != -1:
            j = heads[j]
            steps += 1
            if steps > n:
                return f"cycle reachable from token {i}"
    return None


@st.composite
def _head_lists(draw):
    """One root, no token its own head, the other heads drawn freely: trees and cyclic lists alike."""
    n = draw(st.integers(2, 30))
    heads = [draw(st.integers(0, n - 2)) for _ in range(n)]
    heads = [h + (h >= i) for i, h in enumerate(heads)]
    heads[draw(st.integers(0, n - 1))] = -1
    return heads


@settings(max_examples=500, deadline=None, derandomize=True)
@given(heads=_head_lists())
def test_the_cycle_check_agrees_with_walking_every_token_to_the_root(heads):
    try:
        Example(tokens=["a"] * len(heads), heads=heads, aspect_from=0, aspect_to=1, label="positive")
        verdict = None
    except ValueError as err:
        verdict = str(err)
    assert verdict == _cycle_verdict_by_walks(heads)


@pytest.mark.parametrize("cyclic", [False, True])
def test_a_50000_token_chain_parses_in_under_a_second(tmp_path, cyclic):
    n = 50_000
    heads = list(range(1, n)) + [-1]
    if cyclic:
        heads[n - 2] = 0  # tokens 0 .. n-2 close a ring; the root n-1 heads nothing
    line = dict(tokens=["a"] * n, heads=heads, aspect_from=0, aspect_to=1, label="positive")
    path = tmp_path / "chain.jsonl"
    path.write_text(json.dumps(line) + "\n")
    start = time.perf_counter()
    if cyclic:
        with pytest.raises(LoadError, match="line 1: cycle reachable from token 0$"):
            parse_corpus(path)
    else:
        assert parse_corpus(path)[0].n == n
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# corpus parsing


def test_parse_minimal_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"tokens":["good","food"],"heads":[1,-1],"aspect_from":1,"aspect_to":2,"label":"positive"}\n'
    )
    examples = parse_corpus(path)
    assert len(examples) == 1
    assert examples[0].tokens == ("good", "food")


def test_parse_cycle_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    good = '{"tokens":["ok"],"heads":[-1],"aspect_from":0,"aspect_to":1,"label":"neutral"}'
    bad = '{"tokens":["a","b"],"heads":[1,0],"aspect_from":0,"aspect_to":1,"label":"positive"}'
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(LoadError) as err:
        parse_corpus(path)
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    assert "root" in str(err.value) or "cycle" in str(err.value)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("{not json", "malformed JSON"),
        ('{"tokens":["a"],"heads":[-1],"aspect_from":0,"aspect_to":1}', "label"),
        ('{"tokens":["a"],"heads":[-1],"aspect_from":0,"aspect_to":1,"label":"bogus"}', "bogus"),
        ("", "empty line"),
        ('{"tokens":"ab","heads":[1,-1],"aspect_from":0,"aspect_to":1,"label":"neutral"}', "'tokens' must be a JSON array"),
        ('{"tokens":{"a":1,"b":2},"heads":[1,-1],"aspect_from":0,"aspect_to":1,"label":"neutral"}', "'tokens' must be a JSON array"),
        ('{"tokens":["a","b"],"heads":{"1":0,"-1":0},"aspect_from":0,"aspect_to":1,"label":"neutral"}', "'heads' must be a JSON array"),
    ],
)
def test_parse_errors_fail_whole_load(tmp_path, line, fragment):
    path = tmp_path / "c.jsonl"
    good = '{"tokens":["ok"],"heads":[-1],"aspect_from":0,"aspect_to":1,"label":"neutral"}'
    path.write_text(good + "\n" + line + "\n" + good + "\n")
    with pytest.raises(LoadError) as err:
        parse_corpus(path)
    assert fragment in str(err.value)
    assert err.value.line == 2


def test_bundled_sample_counts_match_manifest_and_raw_scan():
    examples = parse_corpus(ASSETS / "sample_corpus.jsonl")
    manifest = json.loads((ASSETS / "sample_corpus.manifest.json").read_text())
    assert len(examples) == manifest["examples"]
    # independent count: raw text scan, no corpus machinery
    raw_counts = {"positive": 0, "neutral": 0, "negative": 0}
    for line in (ASSETS / "sample_corpus.jsonl").read_text().splitlines():
        for label in raw_counts:
            if f'"label": "{label}"' in line:
                raw_counts[label] += 1
    assert sum(raw_counts.values()) == manifest["examples"]
    assert raw_counts == manifest["label_counts"]
    loaded_counts = {label: sum(1 for e in examples if e.label == label) for label in raw_counts}
    assert loaded_counts == manifest["label_counts"]


def test_corpus_roundtrip_and_determinism(tmp_path):
    examples = parse_corpus(ASSETS / "sample_corpus.jsonl")
    out = tmp_path / "copy.jsonl"
    write_corpus(examples, out)
    assert parse_corpus(out) == examples
    assert parse_corpus(ASSETS / "sample_corpus.jsonl") == examples


# ---------------------------------------------------------------------------
# trees


def test_chain_tree_distances():
    ex = Example(tokens=["a", "b", "c"], heads=[-1, 0, 1], aspect_from=0, aspect_to=1, label="neutral")
    tree = build_tree([ex])
    assert tree.path_len_to_aspect.tolist() == [0, 1, 2]
    assert neighbor_sets(tree) == ((0, 1), (0, 1, 2), (1, 2))


def test_single_token_tree():
    ex = Example(tokens=["x"], heads=[-1], aspect_from=0, aspect_to=1, label="neutral")
    tree = build_tree([ex])
    assert neighbor_sets(tree) == ((0,),)
    assert tree.path_len_to_aspect.tolist() == [0]
    # without self loops an isolated token still keeps itself
    assert neighbor_sets(build_tree([ex], include_self_loop=False)) == ((0,),)


def test_star_tree_distances():
    ex = Example(
        tokens=["hub", "s1", "s2", "s3"], heads=[-1, 0, 0, 0], aspect_from=0, aspect_to=1, label="neutral"
    )
    tree = build_tree([ex])
    assert set(tree.path_len_to_aspect) == {0, 1}
    assert tree.path_len_to_aspect[0] == 0


def test_self_loop_flag_only_affects_membership():
    ex = Example(tokens=["a", "b", "c"], heads=[-1, 0, 1], aspect_from=0, aspect_to=1, label="neutral")
    with_loops = build_tree([ex], include_self_loop=True)
    without = build_tree([ex], include_self_loop=False)
    for i in range(3):
        assert i in neighbor_sets(with_loops)[i]
        assert i not in neighbor_sets(without)[i]
    assert with_loops.path_len_to_aspect.tolist() == without.path_len_to_aspect.tolist()


def _floyd_warshall(n, heads):
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, h in enumerate(heads):
        if h != -1:
            dist[i, h] = dist[h, i] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def test_bfs_distances_match_floyd_warshall_on_random_trees():
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        heads = random_tree_heads(n, rng)
        start = int(rng.integers(n))
        end = min(n, start + int(rng.integers(1, 3)))
        ex = Example(tokens=[f"t{i}" for i in range(n)], heads=heads, aspect_from=start, aspect_to=end, label="neutral")
        tree = build_tree([ex])
        dist = _floyd_warshall(n, heads)
        expected = dist[:, start:end].min(axis=1)
        npt.assert_array_equal(np.asarray(tree.path_len_to_aspect, dtype=float), expected)


def test_neighbor_symmetry_and_self_loops_on_random_trees():
    rng = np.random.default_rng(321)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        heads = random_tree_heads(n, rng)
        ex = Example(tokens=[f"t{i}" for i in range(n)], heads=heads, aspect_from=0, aspect_to=1, label="neutral")
        hoods = neighbor_sets(build_tree([ex]))
        for i in range(n):
            assert i in hoods[i]
            for j in hoods[i]:
                assert i in hoods[j]


# ---------------------------------------------------------------------------
# syntax scores


def test_syntax_scores_chain_frozen_values():
    ex = Example(tokens=["a", "b", "c"], heads=[-1, 0, 1], aspect_from=0, aspect_to=1, label="neutral")
    npt.assert_allclose(syntax_scores(build_tree([ex])), [0.66524, 0.24473, 0.09003], atol=1e-4)


def test_syntax_scores_star_frozen_values():
    ex = Example(tokens=["hub", "s1", "s2"], heads=[-1, 0, 0], aspect_from=0, aspect_to=1, label="neutral")
    npt.assert_allclose(syntax_scores(build_tree([ex])), [0.57612, 0.21194, 0.21194], atol=1e-4)


def test_syntax_scores_single_token():
    ex = Example(tokens=["x"], heads=[-1], aspect_from=0, aspect_to=1, label="neutral")
    npt.assert_array_equal(syntax_scores(build_tree([ex])), [1.0])


def test_syntax_scores_sum_to_one_and_peak_on_aspect():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(1, 14))
        heads = random_tree_heads(n, rng)
        start = int(rng.integers(n))
        end = min(n, start + 1)
        ex = Example(tokens=[f"t{i}" for i in range(n)], heads=heads, aspect_from=start, aspect_to=end, label="neutral")
        scores = syntax_scores(build_tree([ex]))
        assert abs(scores.sum() - 1.0) < 1e-9
        assert np.all(scores > 0)
        assert start <= int(np.argmax(scores)) < end


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings_counts_and_unk_mean(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("hot 1.0 2.0 3.0\ncold -1.0 0.0 1.0\n")
    table = load_embeddings(path)
    assert table.dim == 3
    assert table.vectors.shape == (3, 3)  # 2 words + UNK
    assert table.unk_index == 2
    # independent mean from raw text
    rows = [[float(v) for v in line.split()[1:]] for line in path.read_text().splitlines()]
    expected = [sum(col) / len(rows) for col in zip(*rows)]
    npt.assert_allclose(table.vectors.data[2], expected, atol=1e-15)


def test_load_embeddings_bundled_sample():
    table = load_embeddings(ASSETS / "sample_embeddings.txt")
    assert table.dim == 5
    assert table.vectors.shape == (11, 5)
    npt.assert_allclose(
        table.vectors.data[table.unk_index],
        table.vectors.data[:-1].mean(axis=0),
        atol=1e-15,
    )


def test_load_embeddings_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(LoadError, match="no vectors"):
        load_embeddings(empty)

    bad_dim = tmp_path / "dim.txt"
    bad_dim.write_text("a 1.0 2.0\nb 1.0\n")
    with pytest.raises(LoadError, match="line 2"):
        load_embeddings(bad_dim)

    dup = tmp_path / "dup.txt"
    dup.write_text("a 1.0\na 2.0\n")
    with pytest.raises(LoadError, match="duplicate"):
        load_embeddings(dup)

    bad_value = tmp_path / "bad_value.txt"
    bad_value.write_text("a 1.0 2.0\nb 1.0 x\n")
    with pytest.raises(LoadError, match="line 2: non-numeric"):
        load_embeddings(bad_value)


@pytest.mark.parametrize("entry", ["nan", "inf", "-Infinity", "1e400"])
def test_load_embeddings_rejects_non_finite_entries(tmp_path, entry):
    path = tmp_path / "vec.txt"
    path.write_text(f"a 1.0 2.0\nb 0.5 {entry}\nc 3.0 4.0\n")
    with pytest.raises(LoadError, match="line 2: non-finite vector entry"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "text",
    [
        "the 1e308 1.0\nfood 1e308 2.0\nwas 1.0 1.0\n",  # read by the C reader
        "the  -1e308 1.0\nfood -1.7976931348623157e308 2.0\n",  # read by the line parser
    ],
)
def test_finite_vectors_whose_mean_overflows_fail_the_load_without_a_warning(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(LoadError) as err:
            load_embeddings(path)
    assert str(err.value) == "the unknown-word row, the mean of the vectors, overflows"
    assert [str(warning.message) for warning in caught] == []


def test_load_embeddings_matches_python_float_parse(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 4))
    lines = [f"w{i} " + " ".join(repr(float(x)) for x in row) for i, row in enumerate(values)]
    lines.append("u 1_000 -0.0 .5 1E3")
    path = tmp_path / "vec.txt"
    path.write_text("\n".join(lines) + "\n")
    rows = np.array([[float(x) for x in line.split()[1:]] for line in lines])
    table = load_embeddings(path)
    expected = np.vstack([rows, rows.mean(axis=0)])
    assert table.vectors.data.tobytes() == expected.tobytes()


def test_parse_corpus_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(LoadError, match="no examples"):
        parse_corpus(path)


def test_load_embeddings_deterministic(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 0.25 -0.5\nb 0.125 1.0\n")
    first = load_embeddings(path)
    second = load_embeddings(path)
    npt.assert_array_equal(first.vectors.data, second.vectors.data)
    assert first.vocabulary == second.vocabulary


def test_build_random_table_seeded_and_bounded():
    examples = parse_corpus(ASSETS / "sample_corpus.jsonl")
    a = build_random_table(examples, dim=7, seed=5)
    b = build_random_table(examples, dim=7, seed=5)
    npt.assert_array_equal(a.vectors.data, b.vectors.data)
    assert np.all(np.abs(a.vectors.data) <= 0.1)
    vocab = {tok for ex in examples for tok in ex.tokens}
    assert a.vectors.shape == (len(vocab) + 1, 7)


def _embed(tokens, table):
    return gather_rows(table.vectors, [table.row_index(tok) for tok in tokens])


def test_row_index_lookup_rules(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("food 1.0 0.0\nFancy 0.0 1.0\n")
    table = load_embeddings(path)
    rows = _embed(["Food", "fancy", "zzz"], table).data
    npt.assert_array_equal(rows[0], [1.0, 0.0])  # case fallback
    npt.assert_array_equal(rows[1], [0.0, 1.0])  # case fallback to "Fancy"
    npt.assert_array_equal(rows[2], table.vectors.data[table.unk_index])  # UNK
    npt.assert_array_equal(_embed(["food"], table).data[0], [1.0, 0.0])


def test_embedding_gradients_flow_to_used_rows(tmp_path):
    from absa_gcn.tensor import backward, sum_all

    path = tmp_path / "vec.txt"
    path.write_text("a 1.0 2.0\nb 3.0 4.0\n")
    table = load_embeddings(path, trainable=True)
    backward(sum_all(_embed(["a", "a"], table)))
    npt.assert_array_equal(table.vectors.grad[0], [2.0, 2.0])  # used twice
    npt.assert_array_equal(table.vectors.grad[1], [0.0, 0.0])


# ---------------------------------------------------------------------------
# embeddings: the C reader against the line parser


def _with_unknown_row(words, matrix):
    """(words, matrix bytes) with the mean of the vectors as the last row, or the error if that mean overflows."""
    with np.errstate(over="ignore"):
        matrix[-1] = matrix[:-1].mean(axis=0)
    if not np.isfinite(matrix[-1]).all():
        return "the unknown-word row, the mean of the vectors, overflows"
    return words, matrix.tobytes()


def _line_parser_table(path):
    """What ``load_embeddings`` must return, from the line parser alone: (words, matrix bytes) or the error."""
    try:
        words, matrix = data._parse_embedding_lines(path)
    except LoadError as err:
        return str(err)
    return _with_unknown_row(words, matrix)


def _loaded_table(path):
    try:
        table = load_embeddings(path)
    except LoadError as err:
        return str(err)
    return table.vocabulary, table.vectors.data.tobytes()


def _assert_c_reader_agrees(path):
    """``load_embeddings`` equals the line parser, and the C reader returns the same table or nothing."""
    expected = _line_parser_table(path)
    assert _loaded_table(path) == expected
    fast = data._read_canonical_embeddings(path)
    if fast is not None:
        assert _with_unknown_row(*fast) == expected
    return fast is not None


# What a canonical file holds, and the odd spellings, words and separators the grammar mixes in.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: "%.6f" % x),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:e}"),
    st.sampled_from(["-0.0", ".5", "1.", "+2", "1E-3", "-7e+02"]),
)
_ODD_VALUES = st.sampled_from(["1_000", "\u0661", "nan", "infinity", "-Inf", "1e400", "x", "0x1p3", ""])
_WORD_STEMS = st.sampled_from(["w", "Food", "#", '"q', "\ufeffthe"])
_ODD_WORDS = st.text(st.sampled_from("ab#\"\u00a0\u2028\u0085\x1c\ufeff"), min_size=1, max_size=3)
_LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n"])
_ODD_SEPARATORS = st.sampled_from(["  ", "\t", " \t", "\r"])
_ODD_EDGES = st.sampled_from([" ", "\t", "\u00a0"])


@st.composite
def _embedding_texts(draw):
    """An embedding file's text: canonical, or with some share of odd choices."""
    odd_percent = draw(st.sampled_from([0, 2, 10, 30]))

    def pick(usual, odd):
        return draw(odd if draw(st.integers(0, 99)) < odd_percent else usual)

    dim = draw(st.integers(1, 4))
    none = st.just("")
    lines = []
    for i in range(draw(st.integers(1, 5))):
        count = dim + (pick(st.just(0), st.sampled_from([1, -1])) if i else 0)
        word = pick(_WORD_STEMS.map(lambda stem: f"{stem}{i}"), _ODD_WORDS)
        line = word + "".join(pick(st.just(" "), _ODD_SEPARATORS) + pick(_NUMBERS, _ODD_VALUES) for _ in range(count))
        lines.append(pick(none, _ODD_EDGES) + line + pick(none, _ODD_EDGES) + draw(_LINE_ENDS))
        lines.append(pick(none, st.sampled_from(["\n", "\r\n", " \n"])))
    text = "".join(lines)
    return text[:-1] if draw(st.booleans()) and text.endswith("\n") else text


@pytest.fixture(scope="module")
def vec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vectors") / "vec.txt"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_embedding_texts())
def test_load_embeddings_equals_the_line_parser_on_drawn_files(vec_path, text):
    vec_path.write_bytes(text.encode("utf-8"))
    _assert_c_reader_agrees(vec_path)


@pytest.mark.parametrize(
    "text, error",
    [
        # A later line with a value too many: ``usecols`` would drop it, the C reader's column check refuses it.
        ("a 1.0 2.0\nb 3.0 4.0 5.0\n", "line 2: dimension 3 != 2"),
        # The C reader skips a blank line.
        ("a 1.0\n\nb 2.0\n", "line 2: expected 'word v1 ... vd'"),
        ("a 1.0\nb 2.0\n\n", "line 3: expected 'word v1 ... vd'"),
        # The C reader takes a word holding a character str.split splits on as one word.
        ("a 1.0\nb\u00a0c 2.0\n", "line 2: non-numeric vector entry"),
        ("a 1.0\nb\u2028c 2.0\n", "line 2: non-numeric vector entry"),
        ("a 1.0\nb\x85c 2.0\n", "line 2: non-numeric vector entry"),
        ("a 1.0\nb\x1fc 2.0\n", "line 2: non-numeric vector entry"),
        ("a 1.0\nb\x1cc 2.0\n", "line 2: non-numeric vector entry"),
        ("a 1.0\na\u00a0 2.0\n", "line 2: duplicate word 'a'"),
        # The C reader reads these, but the line parser refuses them.
        ("a 1.0\nb infinity\n", "line 2: non-finite vector entry"),
        ("a 1.0\nb 1e400\n", "line 2: non-finite vector entry"),
        ("a 1.0\na 2.0\n", "line 2: duplicate word 'a'"),
        (" 1.0\n", "line 1: expected 'word v1 ... vd'"),
        ("a\n", "line 1: expected 'word v1 ... vd'"),
        # The C reader warns on a file without data.
        ("", "no vectors"),
        ("\n", "line 1: expected 'word v1 ... vd'"),
    ],
)
def test_the_c_readers_divergences_end_in_the_line_parsers_error(tmp_path, text, error):
    path = tmp_path / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert data._read_canonical_embeddings(path) is None
        with pytest.raises(LoadError) as err:
            load_embeddings(path)
    assert str(err.value) == error
    assert [str(warning.message) for warning in caught] == []


@pytest.mark.parametrize(
    "text",
    [
        "a 1_0 2.0\n",  # float reads underscores, the C reader does not
        "a \u0661 2.0\n",  # an Arabic-Indic digit
        "a\t1.0\t2.0\n",  # tab separators
        "a  1.0 2.0\n",  # a run of spaces
        " a 1.0 2.0 \n",  # leading and trailing spaces
        "a 1.0\r 2.0\n",  # a carriage return inside a line
        "a\x1c 1.0 2.0\n",  # a word ending in a character str.split splits on
    ],
)
def test_spellings_only_the_line_parser_reads_take_it(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    assert data._read_canonical_embeddings(path) is None
    assert isinstance(_loaded_table(path), tuple)
    _assert_c_reader_agrees(path)


@pytest.mark.parametrize(
    "text",
    [
        "a 0.5\n",  # one value on one line: 2-D without the line parser's help
        "a 0.5 1\r\nb -2 3e-2\r\n",  # CRLF line ends
        "a 0.5\nb 1.5",  # no final line end
        "a 1.0\u00a0 2.0\n",  # whitespace str.split knows beside a separator
    ],
)
def test_canonical_layouts_are_read_by_the_c_reader(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _assert_c_reader_agrees(path)


def test_canonical_files_never_reach_the_line_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(500, 20)) * 10.0 ** rng.integers(-5, 5, size=(500, 20))
    generated = tmp_path / "vec.txt"
    generated.write_text("".join(f"w{i} " + " ".join(map(repr, row.tolist())) + "\n" for i, row in enumerate(values)))
    paths = [ASSETS / "sample_embeddings.txt", generated]
    expected = [_line_parser_table(path) for path in paths]

    def refuse(path):
        raise AssertionError(f"{path} went to the line parser")

    monkeypatch.setattr(data, "_parse_embedding_lines", refuse)
    assert [_loaded_table(path) for path in paths] == expected
    assert load_embeddings(generated).vectors.data[:-1].tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# embeddings: the parsed-table cache


def _cache_of(path):
    return path.with_name(path.name + data._TABLE_CACHE_SUFFIX)


def _refuse_parsing(path, digest=None):
    raise AssertionError(f"{path} was parsed, not read from its cache")


@contextlib.contextmanager
def _parsers_refused():
    with mock.patch.multiple(data, _read_canonical_embeddings=_refuse_parsing, _parse_embedding_lines=_refuse_parsing):
        yield


def _table_fields(path, trainable):
    """Everything a load returns: the words in row order, the matrix bytes and the table's fields, or the error."""
    try:
        table = load_embeddings(path, trainable=trainable)
    except LoadError as err:
        return str(err)
    vectors = table.vectors
    return list(table.vocabulary), vectors.data.tobytes(), vectors.shape, table.dim, table.unk_index, vectors.trainable


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_embedding_texts(), trainable=st.booleans())
def test_a_cache_hit_equals_the_parse_on_drawn_files(vec_path, text, trainable):
    vec_path.write_bytes(text.encode("utf-8"))
    cache = _cache_of(vec_path)
    cache.unlink(missing_ok=True)
    expected = _line_parser_table(vec_path)
    with mock.patch.object(data, "_TABLE_CACHE_BYTES", 0):
        parsed = _table_fields(vec_path, trainable)
        if isinstance(expected, str):
            # A file that fails never writes a cache.
            assert parsed == expected and not cache.exists()
            return
        words, matrix = expected
        dim = len(matrix) // 8 // (len(words) + 1)

        def fields(flag):
            return list(words), matrix, (len(words) + 1, dim), dim, len(words), flag

        assert parsed == fields(trainable)
        assert cache.is_file()
        with _parsers_refused():
            assert _table_fields(vec_path, trainable) == fields(trainable)
            assert _table_fields(vec_path, not trainable) == fields(not trainable)


def test_a_file_rewritten_to_the_same_size_and_mtime_loads_its_new_values(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_TABLE_CACHE_BYTES", 0)
    path = tmp_path / "vec.txt"
    path.write_text("a 0.5 1.5\nb 2.5 3.5\n")
    load_embeddings(path)
    old = os.stat(path)
    path.write_text("a 0.5 1.5\nb 2.5 9.5\n")
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (old.st_size, old.st_mtime_ns)
    expected = _line_parser_table(path)
    assert _loaded_table(path) == expected
    # The new values' cache replaced the old one.
    with _parsers_refused():
        assert _loaded_table(path) == expected


def test_a_file_edited_into_a_bad_one_fails_despite_its_old_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_TABLE_CACHE_BYTES", 0)
    path = tmp_path / "vec.txt"
    path.write_text("a 0.5 1.5\nb 2.5 3.5\n")
    load_embeddings(path)
    cached = _cache_of(path).read_bytes()
    path.write_text("a 0.5 1.5\nb 2.5 x.5\n")
    with pytest.raises(LoadError) as err:
        load_embeddings(path)
    assert (str(err.value), err.value.line) == ("line 2: non-numeric vector entry", 2)
    assert _cache_of(path).read_bytes() == cached


class _FullDisk:
    def write(self, data):
        raise OSError(28, "No space left on device")


def test_a_cache_write_that_fails_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_TABLE_CACHE_BYTES", 0)
    real = data.write_atomically

    @contextlib.contextmanager
    def full_disk(target, **kwargs):
        with real(target, **kwargs):
            yield _FullDisk()

    monkeypatch.setattr(data, "write_atomically", full_disk)
    path = tmp_path / "vec.txt"
    path.write_text("a 0.5 1.5\nb 2.5 3.5\n")
    assert _loaded_table(path) == _line_parser_table(path)
    assert os.listdir(tmp_path) == ["vec.txt"]


def _embedding_file_of(path, size):
    """A valid embedding file of exactly ``size`` bytes: 12-byte lines, the first word padded."""
    pad = size % 12
    path.write_text(f"w{'x' * pad}000000 0.5\n" + "".join(f"w{i:06d} 0.5\n" for i in range(1, size // 12)))
    assert path.stat().st_size == size


def test_only_a_file_at_the_floor_or_above_writes_a_cache(tmp_path):
    for size, written in ((data._TABLE_CACHE_BYTES - 1, False), (data._TABLE_CACHE_BYTES, True)):
        path = tmp_path / f"vec{size}.txt"
        _embedding_file_of(path, size)
        load_embeddings(path)
        assert _cache_of(path).is_file() == written
    assert len(os.listdir(tmp_path)) == 3


# ---------------------------------------------------------------------------
# CoNLL-U conversion


def test_conllu_bundled_fixture_remaps_heads():
    examples = convert_conllu(ASSETS / "sample.conllu", ASSETS / "sample_aspects.json")
    assert len(examples) == 2
    assert examples[0].tokens == ("The", "food", "was", "great")
    assert examples[0].heads == (1, 3, 3, -1)  # 1-based 2,4,4,0 remapped
    assert examples[1].tokens == ("Service", "was", "awful")
    assert examples[1].heads == (2, 2, -1)
    assert examples[0].label == "positive" and examples[1].label == "negative"


def test_conllu_roundtrip_through_corpus_format(tmp_path):
    examples = convert_conllu(ASSETS / "sample.conllu", ASSETS / "sample_aspects.json")
    out = tmp_path / "conv.jsonl"
    write_corpus(examples, out)
    assert parse_corpus(out) == examples


def test_conllu_skips_comments_ranges_and_empty_nodes(tmp_path):
    path = tmp_path / "s.conllu"
    path.write_text(
        "# comment\n"
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\t_\t_\t_\t_\t2\t_\t_\t_\n"
        "1.1\tghost\t_\t_\t_\t_\t0\t_\t_\t_\n"
        "2\tel\t_\t_\t_\t_\t0\t_\t_\t_\n"
        "\n"
    )
    sentences = read_conllu_sentences(path)
    assert sentences == [(["de", "el"], [1, -1])]


def test_conllu_malformed_line_reports_number(tmp_path):
    path = tmp_path / "s.conllu"
    path.write_text("1\tonly\tthree\n")
    with pytest.raises(LoadError, match="line 1"):
        read_conllu_sentences(path)


def _conllu(*rows) -> str:
    """CoNLL-U text of ``(ID, FORM, HEAD)`` rows, a blank line for ``None``."""
    return "".join("\n" if r is None else f"{r[0]}\t{r[1]}\t_\t_\t_\t_\t{r[2]}\t_\t_\t_\n" for r in rows)


# (the rows, the line at fault, its message)
_BAD_IDS_AND_HEADS = [
    (((1, "de", -3), (2, "el", 0)), 1, "negative HEAD -3"),
    (((2, "el", 0), (1, "de", 2)), 1, "ID '2' where the sentence's next ID is 1"),
    (((1, "de", 3), (3, "el", 0)), 2, "ID '3' where the sentence's next ID is 2"),
    (((1, "de", 0), (1, "el", 1)), 2, "ID '1' where the sentence's next ID is 2"),
    # a new sentence starts again at 1, and neither a range nor an empty node counts
    (((1, "a", 0), None, ("1-2", "del", "_"), ("1.1", "b", 0), (2, "c", 0)), 5, "ID '2' where the sentence's next ID is 1"),
]


@pytest.mark.parametrize("rows, line, message", _BAD_IDS_AND_HEADS)
def test_conllu_rejects_a_negative_head_or_an_id_out_of_order(tmp_path, rows, line, message):
    path = tmp_path / "s.conllu"
    path.write_text(_conllu(*rows))
    with pytest.raises(LoadError, match=f"^line {line}: {re.escape(message)}$"):
        read_conllu_sentences(path)


def test_conllu_sidecar_errors(tmp_path):
    conllu = tmp_path / "s.conllu"
    conllu.write_text("1\thi\t_\t_\t_\t_\t0\t_\t_\t_\n")
    aspects = tmp_path / "a.json"
    aspects.write_text('[{"sentence_index": 3, "from": 0, "to": 1, "label": "neutral"}]')
    with pytest.raises(LoadError, match="out of range"):
        convert_conllu(conllu, aspects)
    aspects.write_text('[{"from": 0, "to": 1, "label": "neutral"}]')
    with pytest.raises(LoadError, match="missing field"):
        convert_conllu(conllu, aspects)
    # A bool is an int to isinstance, but true must not select sentence 1.
    conllu.write_text("1\thi\t_\t_\t_\t_\t0\t_\t_\t_\n\n1\tho\t_\t_\t_\t_\t0\t_\t_\t_\n")
    for flag in ("true", "false"):
        aspects.write_text(f'[{{"sentence_index": {flag}, "from": 0, "to": 1, "label": "neutral"}}]')
        with pytest.raises(LoadError, match="sentence_index"):
            convert_conllu(conllu, aspects)


def test_an_atomic_write_drops_the_cached_pages_of_the_large_file_it_replaces(tmp_path, monkeypatch):
    # Only a file of _DROP_CACHE_BYTES or more is advised; a smaller one, a
    # missing target, a link to a large file and a directory are left alone
    # (the write over a directory fails as before).
    advised = []
    monkeypatch.setattr(data.os, "posix_fadvise", lambda fd, start, size, advice: advised.append(advice), raising=False)
    monkeypatch.setattr(data.os, "POSIX_FADV_DONTNEED", 4, raising=False)
    (tmp_path / "old.txt").write_text("o" * data._DROP_CACHE_BYTES)
    (tmp_path / "small.txt").write_text("o" * (data._DROP_CACHE_BYTES - 1))
    (tmp_path / "link.txt").symlink_to(tmp_path / "old.txt")
    (tmp_path / "dir").mkdir()
    names = ("link.txt", "small.txt", "new.txt", "old.txt")
    for name in names:
        with data.write_atomically(tmp_path / name) as fh:
            fh.write("new")
    with pytest.raises(IsADirectoryError), data.write_atomically(tmp_path / "dir") as fh:
        fh.write("new")
    assert advised == [4]
    assert [(tmp_path / name).read_text() for name in names] == ["new"] * 4
    assert not (tmp_path / "link.txt").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", *sorted(names)]
