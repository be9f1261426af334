"""Corpus loading, dependency-tree utilities and word-embedding tables.

The corpus wire format is UTF-8 JSON Lines, one object per line::

    {"tokens": ["great", "food"], "heads": [1, -1],
     "aspect_from": 1, "aspect_to": 2, "label": "positive"}

``heads[i]`` is the 0-based parent of token ``i`` and exactly one token
carries ``-1`` as the root. ``aspect_from``/``aspect_to`` delimit a
half-open token span. A malformed line aborts the whole load with its line
number; silently dropping lines would corrupt dataset-count checks.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .tensor import RowGroups, Tensor

LABELS = ("positive", "neutral", "negative")


class LoadError(ValueError):
    """A corpus, embedding or conversion input failed validation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Example:
    """One labeled sentence with its dependency parse and aspect span."""

    tokens: tuple[str, ...]
    heads: tuple[int, ...]
    aspect_from: int
    aspect_to: int
    label: str

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        heads = tuple(self.heads)
        for h in heads:
            if isinstance(h, bool) or not isinstance(h, (int, np.integer)):
                raise ValueError(f"heads must be integers, got {h!r}")
        object.__setattr__(self, "heads", tuple(int(h) for h in heads))
        _check_example(self.tokens, self.heads, self.aspect_from, self.aspect_to, self.label)

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def label_index(self) -> int:
        return LABELS.index(self.label)


def _check_example(tokens, heads, aspect_from, aspect_to, label) -> None:
    if len(tokens) == 0:
        raise ValueError("tokens must be non-empty")
    if any(not isinstance(t, str) for t in tokens):
        raise ValueError("tokens must all be strings")
    n = len(tokens)
    if len(heads) != n:
        raise ValueError(f"heads has length {len(heads)}, expected {n}")
    roots = [i for i, h in enumerate(heads) if h == -1]
    if len(roots) != 1:
        raise ValueError("no root" if not roots else f"multiple roots at {roots}")
    for i, h in enumerate(heads):
        if h != -1 and not 0 <= h < n:
            raise ValueError(f"head {h} of token {i} out of range")
        if h == i:
            raise ValueError(f"token {i} is its own head")
    # Every token must reach the root. The walk from token i stamps each
    # unstamped token it meets with i and stops at the first stamped one: its
    # own stamp closes a cycle, an earlier walk's stamp (or the root's head,
    # stamp[-1]) leads to the root. Each token is walked once.
    stamp = [-1] * n + [n]
    for i in range(n):
        j = i
        while stamp[j] < 0:
            stamp[j] = i
            j = heads[j]
        if stamp[j] == i:
            raise ValueError(f"cycle reachable from token {i}")
    if any(isinstance(bound, bool) or not isinstance(bound, int) for bound in (aspect_from, aspect_to)):
        raise ValueError("aspect span bounds must be integers")
    if not 0 <= aspect_from < aspect_to <= n:
        raise ValueError(f"aspect span [{aspect_from}, {aspect_to}) invalid for {n} tokens")
    if label not in LABELS:
        raise ValueError(f"label {label!r} not one of {LABELS}")


_REQUIRED_FIELDS = ("tokens", "heads", "aspect_from", "aspect_to", "label")


def _utf8_lines(fh):
    """``(line number, text)`` for each line of a file opened in binary mode."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise LoadError("not UTF-8 text", line=lineno) from None
        yield lineno, line


def parse_corpus(path) -> list[Example]:
    """Load a JSON Lines corpus, failing on the first malformed line.

    A file without a single line fails too: no command can train on or
    evaluate an empty corpus.
    """
    examples = []
    with open(path, "rb") as fh:
        for lineno, line in _utf8_lines(fh):
            if not line.strip():
                raise LoadError("empty line", line=lineno)
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise LoadError(f"malformed JSON: {err.msg}", line=lineno) from None
            except (ValueError, RecursionError) as err:  # an integer past Python's digit limit, or too deep a nesting
                raise LoadError(f"unreadable JSON: {err}", line=lineno) from None
            if not isinstance(obj, dict):
                raise LoadError("expected a JSON object", line=lineno)
            for name in _REQUIRED_FIELDS:
                if name not in obj:
                    raise LoadError(f"missing field {name!r}", line=lineno)
            for name in ("tokens", "heads"):
                if not isinstance(obj[name], list):
                    raise LoadError(f"field {name!r} must be a JSON array", line=lineno)
            try:
                examples.append(
                    Example(
                        tokens=obj["tokens"],
                        heads=obj["heads"],
                        aspect_from=obj["aspect_from"],
                        aspect_to=obj["aspect_to"],
                        label=obj["label"],
                    )
                )
            except (TypeError, ValueError) as err:
                raise LoadError(str(err), line=lineno) from None
    if not examples:
        raise LoadError("no examples")
    return examples


@contextlib.contextmanager
def write_atomically(path, binary: bool = False):
    """A UTF-8 text file, or a byte file with ``binary``, that replaces ``path`` when complete.

    The output goes to a temporary file beside ``path``, which is renamed
    over it on success and removed on failure, so a reader finds the old file
    or the new one, never a part of one. The clean cached pages of an old
    file of ``_DROP_CACHE_BYTES`` or more are dropped first, so the new
    file's pages can reuse them instead of both files sitting in the page
    cache; its contents on disk stay as they are.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    _drop_cached_pages(path)
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# Below this size, dropping a replaced file's pages costs more than reusing
# them saves: about 35 us of a 0.5 ms save of a 222 KB checkpoint.
_DROP_CACHE_BYTES = 1 << 20


def _drop_cached_pages(path) -> None:
    """Advise the kernel that the cached pages of the file at ``path`` are not needed.

    It drops the clean ones that no process maps. A path whose own size is
    under ``_DROP_CACHE_BYTES`` (a small file, a link, a pipe) or that does
    not exist, and a system without ``posix_fadvise``, is left alone.
    """
    if not hasattr(os, "posix_fadvise"):
        return
    with contextlib.suppress(OSError):
        if os.lstat(path).st_size >= _DROP_CACHE_BYTES:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
            finally:
                os.close(fd)


def corpus_line(ex: Example) -> str:
    """The example as one line of the JSON Lines corpus format, without the newline."""
    return json.dumps(
        {
            "tokens": list(ex.tokens),
            "heads": list(ex.heads),
            "aspect_from": ex.aspect_from,
            "aspect_to": ex.aspect_to,
            "label": ex.label,
        },
        allow_nan=False,
    )


def write_corpus(examples, path) -> None:
    """Write examples in the JSON Lines corpus format, replacing ``path`` whole."""
    with write_atomically(path) as fh:
        for ex in examples:
            fh.write(corpus_line(ex) + "\n")


# ---------------------------------------------------------------------------
# dependency trees


@dataclass(frozen=True, eq=False)
class DependencyTree:
    """Undirected adjacency derived from parent links, plus aspect distances.

    A tree may be a forest of examples' trees laid end to end, such as a
    batch's, with node ids running on from one tree to the next.
    ``neighborhoods`` holds token ``i``'s neighbours as group ``i`` of a
    symmetric ``RowGroups``: sorted, with ``i`` itself when self-loops are
    enabled. ``path_len_to_aspect[i]`` is the minimum tree distance from
    token ``i`` to any aspect token of its own tree (0 inside the span).
    """

    n: int
    neighborhoods: RowGroups
    path_len_to_aspect: np.ndarray


def build_tree(examples: Sequence[Example], include_self_loop: bool = True) -> DependencyTree:
    """The examples' trees laid end to end as one forest, built by one pass of array operations.

    Example ``e``'s tokens follow those of the examples before it. A token's
    neighbourhood is its head and its children, sorted, with the token itself
    when self-loops are enabled; a lone token keeps itself even without
    self-loops, so its mean stays defined. The aspect distances come from a
    breadth-first search of the whole forest, one level per step.
    """
    lengths = np.fromiter((ex.n for ex in examples), dtype=np.intp, count=len(examples))
    starts = np.cumsum(lengths) - lengths
    n = int(lengths.sum())
    heads = np.fromiter(itertools.chain.from_iterable(ex.heads for ex in examples), dtype=np.intp, count=n)
    child = np.flatnonzero(heads >= 0)
    head = heads[child] + np.repeat(starts, lengths)[child]
    loops = np.arange(n) if include_self_loop else starts[lengths == 1]
    # One key per (token, neighbour) pair; sorted, they list each token's neighbours in order.
    pairs = np.sort(np.concatenate([loops * (n + 1), child * n + head, head * n + child]))
    token, members = np.divmod(pairs, n)

    dist = np.full(n, -1)
    for start, ex in zip(starts.tolist(), examples):
        dist[start + ex.aspect_from : start + ex.aspect_to] = 0
    src, dst = np.concatenate([child, head]), np.concatenate([head, child])
    level = 0
    while True:
        reached = dst[(dist[src] == level) & (dist[dst] == -1)]
        if reached.size == 0:
            break
        level += 1
        dist[reached] = level
    return DependencyTree(n, RowGroups(np.bincount(token, minlength=n), members, n, symmetric=True), dist)


def syntax_scores(tree: DependencyTree, starts: Sequence[int] = (0,)) -> np.ndarray:
    """Importance of each token from the tree alone: softmax of negated distance.

    ``tree`` may be a forest of trees laid end to end, such as a batch's,
    with ``starts`` holding each tree's first token; the softmax then runs
    within each tree. Each tree's scores are a probability vector whose
    maximum sits on its aspect span. A tree's sum is taken over its own
    slice, so its scores do not depend on the trees beside it.
    """
    raw = -np.asarray(tree.path_len_to_aspect, dtype=np.float64)
    bounds = [*starts, raw.size]
    owner = np.repeat(np.arange(len(starts)), np.diff(bounds))
    e = np.exp(raw - np.maximum.reduceat(raw, starts)[owner])
    sums = np.array([e[first:end].sum() for first, end in zip(bounds, bounds[1:])])
    return e / sums[owner]


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingTable:
    """Word-vector lookup with an unknown-word row.

    Lookups try the exact token first, then a case-insensitive match, then
    fall back to the unknown row. The vocabulary and its lower-case map are
    read-only once built, so copies of a table may share them.
    """

    vocabulary: dict[str, int]
    vectors: Tensor
    dim: int
    unk_index: int
    _lowercase: dict[str, int] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._lowercase is None:
            self._lowercase = {}
            for word, idx in self.vocabulary.items():
                self._lowercase.setdefault(word.lower(), idx)

    def row_index(self, token: str) -> int:
        idx = self.vocabulary.get(token)
        if idx is not None:
            return idx
        return self._lowercase.get(token.lower(), self.unk_index)


def load_embeddings(path, trainable: bool = True) -> EmbeddingTable:
    """Read a text embedding file: one ``word v1 ... vd`` per line.

    Vocabulary order follows the file; an unknown-word row equal to the
    component-wise mean of all loaded vectors is appended at the end. Words
    and values are separated by any whitespace ``str.split`` knows, and a
    value is any spelling ``float`` reads (``1_000``, ``.5``, ``-0.0``,
    non-ASCII digits). An empty line, a duplicate word, a line of another
    dimension, or a non-numeric or non-finite entry fails the load with its
    line number; finite values whose mean overflows fail it without one.

    A canonical file (one space between fields, LF or CRLF line ends, values
    spelled in ASCII) is read by numpy's C text reader. Any other file, and
    every error, goes to the line parser, with the same values and messages.
    """
    words, matrix = _read_canonical_embeddings(path) or _parse_embedding_lines(path)
    with np.errstate(over="ignore"):
        matrix[-1] = matrix[:-1].mean(axis=0)
    if not np.isfinite(matrix[-1]).all():
        raise LoadError("the unknown-word row, the mean of the vectors, overflows")
    return EmbeddingTable(
        vocabulary=words,
        vectors=Tensor(matrix, trainable=trainable),
        dim=matrix.shape[1],
        unk_index=len(words),
    )


def _parse_embedding_lines(path) -> tuple[dict[str, int], np.ndarray]:
    """The words and an ``(n + 1, d)`` matrix of their vectors, parsed line by line.

    The last row is left for the unknown word. This parser is the judge of
    every file: it owns each error message and line number, and the C reader
    may only return what it returns.
    """
    words: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    with open(path, "rb") as fh:
        for lineno, line in _utf8_lines(fh):
            parts = line.split()
            if len(parts) < 2:
                raise LoadError("expected 'word v1 ... vd'", line=lineno)
            word = parts[0]
            if word in words:
                raise LoadError(f"duplicate word {word!r}", line=lineno)
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError:
                raise LoadError("non-numeric vector entry", line=lineno) from None
            if not np.isfinite(vec).all():
                raise LoadError("non-finite vector entry", line=lineno)
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise LoadError(f"dimension {len(vec)} != {dim}", line=lineno)
            words[word] = len(rows)
            rows.append(vec)
    if not rows:
        raise LoadError("no vectors")
    matrix = np.empty((len(rows) + 1, dim))
    np.stack(rows, out=matrix[:-1])
    return words, matrix


def _read_canonical_embeddings(path) -> tuple[dict[str, int], np.ndarray] | None:
    """What ``_parse_embedding_lines`` returns, read by numpy's C text reader, or None.

    The C reader takes the file's lines, splits each on single spaces,
    refuses a row whose field count changes or with a carriage return inside,
    strips the whitespace ``str.split`` knows around a value and parses it as
    ``float`` does, unless it needs ``float``'s extras (``1_0``, non-ASCII
    digits). A converter collects column 0, the words. What it cannot see is
    checked after: a skipped blank line, a word ``str.split`` would split, a
    repeated word, a non-finite value. Any of these, and any exception or
    warning, means None, and the line parser judges the file.
    """
    words: list[str] = []
    lines = 0

    def decoded(fh):
        nonlocal lines
        for lines, line in _utf8_lines(fh):
            yield line

    try:  # whatever goes wrong here, the line parser reports or reads the file
        with open(path, "rb") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(
                decoded(fh),
                dtype=np.float64,
                delimiter=" ",
                comments=None,
                quotechar=None,
                converters={0: lambda word: words.append(word) or 0.0},
                ndmin=2,
            )
    except Exception:
        return None
    n, dim = block.shape[0], block.shape[1] - 1
    vocabulary = {word: i for i, word in enumerate(words)}
    if not (
        n == lines == len(vocabulary)
        and dim >= 1
        and all(word.split() == [word] for word in words)
        and np.isfinite(block).all()
    ):
        return None
    matrix = np.empty((n + 1, dim))
    matrix[:-1] = block[:, 1:]
    return vocabulary, matrix


def build_random_table(examples, dim: int, seed, trainable: bool = True) -> EmbeddingTable:
    """Seeded uniform [-0.1, 0.1] table over the corpus vocabulary.

    Vocabulary order is first occurrence across the examples, which keeps the
    table deterministic for a fixed corpus and seed.
    """
    if dim <= 0:
        raise ValueError("embedding dimension must be positive")
    words: dict[str, int] = {}
    for ex in examples:
        for tok in ex.tokens:
            if tok not in words:
                words[tok] = len(words)
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.1, 0.1, size=(len(words) + 1, dim))
    return EmbeddingTable(
        vocabulary=words,
        vectors=Tensor(matrix, trainable=trainable),
        dim=dim,
        unk_index=len(words),
    )


# ---------------------------------------------------------------------------
# CoNLL-U conversion

_CONLLU_COLUMNS = 10
_ID, _FORM, _HEAD = 0, 1, 6


def read_conllu_sentences(path) -> list[tuple[list[str], list[int]]]:
    """Parse CoNLL-U into (tokens, heads) pairs with 0-based heads, -1 root.

    Comment lines, multiword ranges (``1-2``) and empty nodes (``1.1``) are
    skipped; every remaining line must carry the full 10 columns.
    """
    sentences: list[tuple[list[str], list[int]]] = []
    tokens: list[str] = []
    heads: list[int] = []

    def flush():
        if tokens:
            sentences.append((list(tokens), list(heads)))
            tokens.clear()
            heads.clear()

    with open(path, "rb") as fh:
        for lineno, raw in _utf8_lines(fh):
            line = raw.rstrip("\r\n")
            if not line:
                flush()
                continue
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != _CONLLU_COLUMNS:
                raise LoadError(f"expected {_CONLLU_COLUMNS} columns, got {len(cols)}", line=lineno)
            if "-" in cols[_ID] or "." in cols[_ID]:
                continue
            try:
                head = int(cols[_HEAD])
            except ValueError:
                raise LoadError(f"non-integer HEAD {cols[_HEAD]!r}", line=lineno) from None
            tokens.append(cols[_FORM])
            heads.append(head - 1 if head > 0 else -1)
    flush()
    return sentences


def convert_conllu(conllu_path, aspects_path) -> list[Example]:
    """Pair CoNLL-U sentences with a sidecar aspect file into Examples.

    The sidecar is a JSON array of ``{"sentence_index", "from", "to",
    "label"}`` objects; one sentence may carry several aspects.
    """
    sentences = read_conllu_sentences(conllu_path)
    with open(aspects_path, "rb") as fh:
        raw = fh.read()
    try:
        entries = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise LoadError("not UTF-8 text", line=raw.count(b"\n", 0, err.start) + 1) from None
    except json.JSONDecodeError as err:
        raise LoadError(f"malformed aspect JSON: {err.msg}") from None
    except (ValueError, RecursionError) as err:  # an integer past Python's digit limit, or too deep a nesting
        raise LoadError(f"unreadable aspect JSON: {err}") from None
    if not isinstance(entries, list):
        raise LoadError("aspect sidecar must be a JSON array")
    if not entries:
        raise LoadError("aspect sidecar holds no aspects")
    examples = []
    for pos, entry in enumerate(entries):
        try:
            sent_idx = entry["sentence_index"]
            span_from = entry["from"]
            span_to = entry["to"]
            label = entry["label"]
        except (TypeError, KeyError) as err:
            raise LoadError(f"aspect entry {pos}: missing field {err}") from None
        if type(sent_idx) is not int or not 0 <= sent_idx < len(sentences):
            raise LoadError(f"aspect entry {pos}: sentence_index {sent_idx!r} out of range")
        tokens, heads = sentences[sent_idx]
        try:
            examples.append(
                Example(tokens=tokens, heads=heads, aspect_from=span_from, aspect_to=span_to, label=label)
            )
        except (TypeError, ValueError) as err:
            raise LoadError(f"aspect entry {pos}: {err}") from None
    return examples
