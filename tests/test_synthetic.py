import numpy as np
import pytest

from absa_gcn.data import Example, build_tree
from absa_gcn.synthetic import prufer_to_edges, random_tree_heads
from corpora import CUE_POLARITY, aspect_adjacent_tokens, make_contrastive_corpus, make_overfit_corpus, random_example


def test_prufer_sequence_decodes_to_tree():
    edges = prufer_to_edges([3, 3, 3, 4], 6)
    assert len(edges) == 5
    flat = [v for e in edges for v in e]
    assert set(flat) == set(range(6))
    degree = {i: flat.count(i) for i in range(6)}
    assert degree[3] == 4  # appears 3 times in the sequence


def test_random_tree_heads_always_valid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        heads = random_tree_heads(n, rng)
        # Example's validator enforces single root, acyclicity, coverage
        Example(tokens=["w"] * n, heads=heads, aspect_from=0, aspect_to=1, label="neutral")


def test_random_tree_heads_cover_many_shapes():
    rng = np.random.default_rng(1)
    shapes = {tuple(random_tree_heads(5, rng)) for _ in range(100)}
    assert len(shapes) > 20


def test_random_example_is_valid_and_varied():
    rng = np.random.default_rng(2)
    examples = [random_example(rng) for _ in range(50)]
    assert {e.label for e in examples} == {"positive", "neutral", "negative"}
    assert any(e.aspect_to - e.aspect_from > 1 for e in examples)


def test_overfit_corpus_label_determined_by_adjacent_cue():
    corpus = make_overfit_corpus(40, seed=9)
    assert len(corpus) == 40
    for ex in corpus:
        adjacent = aspect_adjacent_tokens(ex)
        assert len(adjacent) == 1
        assert CUE_POLARITY[adjacent[0]] == ex.label


def test_overfit_corpus_deterministic():
    assert make_overfit_corpus(10, seed=3) == make_overfit_corpus(10, seed=3)
    assert make_overfit_corpus(10, seed=3) != make_overfit_corpus(10, seed=4)


def test_contrastive_corpus_pairs_opposite_labels():
    corpus = make_contrastive_corpus(30, seed=1)
    assert len(corpus) == 30
    for a, b in zip(corpus[::2], corpus[1::2]):
        assert a.tokens == b.tokens and a.heads == b.heads
        assert {a.label, b.label} == {"positive", "negative"}
        # each aspect's tree-adjacent cue carries that aspect's label
        for ex in (a, b):
            cues = [t for t in aspect_adjacent_tokens(ex) if t in CUE_POLARITY]
            assert len(cues) == 1
            assert CUE_POLARITY[cues[0]] == ex.label


def test_contrastive_distractor_is_far_from_both_aspects():
    corpus = make_contrastive_corpus(10, seed=2)
    for ex in corpus[::2]:
        tree = build_tree([ex])
        distractor_positions = [
            i for i, tok in enumerate(ex.tokens)
            if tok in CUE_POLARITY and i not in (2, 4)
        ]
        assert distractor_positions
        for i in distractor_positions:
            assert tree.path_len_to_aspect[i] >= 3


def test_contrastive_corpus_requires_even_count():
    with pytest.raises(ValueError):
        make_contrastive_corpus(7, seed=0)
