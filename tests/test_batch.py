"""Property tests of the batched forward pass against the per-example oracle.

A mini-batch runs as one graph, the disjoint union of its examples' trees.
Each example must come out of it as the numpy oracle computes it alone, the
batch gradient must be the mean of the examples' own gradients, and
``evaluate`` must not depend on how the data falls into chunks.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absa_gcn.data import LABELS, EmbeddingTable, Example, build_random_table, build_tree, syntax_scores
from absa_gcn.model import HyperParams, LossTerms, ModelState, make_batch, model_scores, total_loss
from absa_gcn.tensor import RowGroups, Segments, Tensor, backward, mul, segment_mean_rows, sum_all
from absa_gcn.trainer import compute_metrics, evaluate
from conftest import dense_adjacency, floyd_warshall_distances, neighbor_sets, oracle_losses

WORDS = [f"w{i}" for i in range(8)]
TERMS = ("div", "const", "pred", "total")
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def pruefer_heads(sequence, n: int, root: int) -> list[int]:
    """Parent links of the tree with Prüfer ``sequence`` on ``n`` nodes, hung from ``root``."""
    adjacency = [[] for _ in range(n)]
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    for x in sequence:
        leaf = min(i for i in range(n) if degree[i] == 1)
        adjacency[leaf].append(x)
        adjacency[x].append(leaf)
        degree[leaf] -= 1
        degree[x] -= 1
    if n > 1:
        u, v = (i for i in range(n) if degree[i] == 1)
        adjacency[u].append(v)
        adjacency[v].append(u)
    heads = [None] * n
    heads[root] = -1
    stack = [root]
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if heads[j] is None:
                heads[j] = i
                stack.append(j)
    return heads


@st.composite
def examples(draw, max_tokens: int = 9):
    n = draw(st.integers(1, max_tokens))
    sequence = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    start = draw(st.integers(0, n - 1))
    # "oov" is missing from the table and falls back to the unknown row
    tokens = draw(st.lists(st.sampled_from(WORDS + ["oov"]), min_size=n, max_size=n))
    return Example(
        tokens=tokens,
        heads=pruefer_heads(sequence, n, draw(st.integers(0, n - 1))),
        aspect_from=start,
        aspect_to=draw(st.integers(start + 1, n)),
        label=draw(st.sampled_from(LABELS)),
    )


hyperparams = st.builds(
    HyperParams,
    hidden=st.just(6),
    layers=st.integers(1, 3),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    beta=st.sampled_from([0.5, 1.0, 3.0]),
    include_self_loop=st.booleans(),
    gate_on=st.booleans(),
    div_on=st.booleans(),
    con_on=st.booleans(),
    gatediv_baseline=st.booleans(),
)


def random_state(hp: HyperParams, seed: int) -> ModelState:
    rng = np.random.default_rng(seed)
    vocabulary = [Example(tokens=WORDS, heads=[-1] + [0] * 7, aspect_from=0, aspect_to=1, label="neutral")]
    table = build_random_table(vocabulary, dim=5, seed=rng)
    return ModelState.initialize(table, hp, rng, weight_scale=0.5, bias_scale=0.3)


@PROPERTY
@given(batch=st.lists(examples(), min_size=1, max_size=6), hp=hyperparams, seed=st.integers(0, 2**32 - 1))
def test_every_example_of_a_batch_matches_the_oracle(batch, hp, seed):
    state = random_state(hp, seed)
    loss, trace = total_loss(batch, state)
    expected = [oracle_losses(ex, state, hp) for ex in batch]
    segments = trace.batch.tree.segments
    mod = trace.mod if hp.con_on else model_scores(trace, state)  # a -Con pass builds no scores
    for e, (ex, want) in enumerate(zip(batch, expected)):
        rows = slice(segments.starts[e], segments.starts[e] + segments.sizes[e])
        np.testing.assert_allclose(trace.class_probs.data[e], want["probs"], rtol=0, atol=1e-10)
        np.testing.assert_allclose(mod.data[rows], want["mod"], rtol=0, atol=1e-10)
        np.testing.assert_allclose(trace.syn[rows], want["syn"], rtol=0, atol=1e-10)
        # the loss terms of one example: the same forward on the batch of one
        _, alone = total_loss(ex, state)
        for term in TERMS:
            assert getattr(alone.losses, term) == pytest.approx(want[term], rel=0, abs=1e-10)
    # a batch reports its terms summed over the examples, its loss as their mean
    for term in TERMS:
        total = sum(want[term] for want in expected)
        assert getattr(trace.losses, term) == pytest.approx(total, rel=0, abs=1e-10 * len(batch))
    assert loss.item() == pytest.approx(np.mean([w["total"] for w in expected]), rel=0, abs=1e-10)


@PROPERTY
@given(batch=st.lists(examples(), min_size=1, max_size=6), hp=hyperparams, seed=st.integers(0, 2**32 - 1))
def test_batch_gradient_is_the_mean_of_the_examples_gradients(batch, hp, seed):
    state = random_state(hp, seed)
    state.zero_grads()
    backward(total_loss(batch, state)[0])
    together = [p.grad.copy() for _, p in state.parameters()]
    state.zero_grads()
    for ex in batch:
        backward(total_loss(ex, state)[0])
    means = [p.grad / len(batch) for _, p in state.parameters()]
    # relative to the whole gradient: a tensor whose true gradient is zero
    # (a one-token sentence's importance scores) holds only rounding residue
    size = max(np.abs(mean).max() for mean in means)
    for (name, _), grad, mean in zip(state.parameters(), together, means):
        assert np.abs(grad - mean).max() <= 1e-12 * size, name


@pytest.mark.parametrize("count", [1, 32, 33, 65])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data(), hp=hyperparams, seed=st.integers(0, 2**32 - 1))
def test_evaluate_agrees_with_the_oracle_across_chunk_edges(count, data, hp, seed):
    corpus = data.draw(st.lists(examples(), min_size=count, max_size=count))
    state = random_state(hp, seed)
    expected = [oracle_losses(ex, state, hp) for ex in corpus]
    want = compute_metrics(
        [ex.label_index for ex in corpus],
        [int(np.argmax(e["probs"])) for e in expected],
        LossTerms(*(float(np.mean([e[term] for e in expected])) for term in TERMS)),
    )
    got = evaluate(state, corpus)
    assert (got.accuracy, got.macro_f1, got.per_class) == (want.accuracy, want.macro_f1, want.per_class)
    for term in TERMS:
        assert getattr(got, f"loss_{term}") == pytest.approx(getattr(want, f"loss_{term}"), rel=0, abs=1e-10)


# ---------------------------------------------------------------------------
# the tree aggregation of a batch


@st.composite
def tree_heads(draw, max_tokens: int = 9):
    """Parent links of a random (Prüfer), chain or star tree."""
    n = draw(st.integers(1, max_tokens))
    kind = draw(st.sampled_from(["random", "chain", "star"]))
    root = draw(st.integers(0, n - 1))
    if kind == "chain":
        return [-1] + list(range(n - 1))
    if kind == "star":
        return [-1 if i == root else root for i in range(n)]
    sequence = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    return pruefer_heads(sequence, n, root)


def _forest(forest):
    return [Example([f"t{i}" for i in range(len(h))], h, 0, 1, "neutral") for h in forest]


def _block_adjacency(exs, include_self_loop):
    """The row-normalised adjacency of the forest, from the numpy oracle's per-tree matrices."""
    n = sum(ex.n for ex in exs)
    A = np.zeros((n, n))
    at = 0
    for ex in exs:
        A[at : at + ex.n, at : at + ex.n] = dense_adjacency(ex, include_self_loop)
        at += ex.n
    return A


@PROPERTY
@given(
    forest=st.lists(tree_heads(), min_size=1, max_size=6),
    include_self_loop=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(forest=[[-1]], include_self_loop=False, seed=0)  # one isolated token, a batch of one
@example(forest=[[-1], [1, -1, 1, 1, 1], [-1, 0, 1]], include_self_loop=True, seed=1)
def test_tree_aggregation_is_the_dense_adjacency_and_its_transpose(forest, include_self_loop, seed):
    exs = _forest(forest)
    A = _block_adjacency(exs, include_self_loop)
    rng = np.random.default_rng(seed)
    H = Tensor(rng.uniform(-1, 1, (A.shape[0], 3)), trainable=True)
    G = rng.uniform(-1, 1, H.shape)
    out = segment_mean_rows(H, make_batch(exs, include_self_loop).tree.neighborhoods)
    np.testing.assert_allclose(out.data, A @ H.data, rtol=0, atol=1e-14)
    backward(sum_all(mul(out, Tensor(G))))
    np.testing.assert_allclose(H.grad, A.T @ G, rtol=0, atol=1e-14)


@PROPERTY
@given(forest=st.lists(tree_heads(), min_size=1, max_size=6), include_self_loop=st.booleans())
def test_trees_built_together_are_the_trees_built_one_by_one(forest, include_self_loop):
    exs = [Example([f"t{i}" for i in range(len(h))], h, len(h) // 2, len(h), "neutral") for h in forest]
    together = build_tree(exs, include_self_loop)
    alone = [build_tree([ex], include_self_loop) for ex in exs]
    starts = np.cumsum([0] + [tree.n for tree in alone[:-1]])
    assert together.n == sum(tree.n for tree in alone)
    np.testing.assert_array_equal(together.neighborhoods.sizes, np.concatenate([t.neighborhoods.sizes for t in alone]))
    offset = [t.neighborhoods.members + start for t, start in zip(alone, starts)]
    np.testing.assert_array_equal(together.neighborhoods.members, np.concatenate(offset))
    np.testing.assert_array_equal(together.path_len_to_aspect, np.concatenate([t.path_len_to_aspect for t in alone]))
    # A batch's scores are each tree's own, to the bit.
    alone_scores = np.concatenate([syntax_scores(tree) for tree in alone])
    assert make_batch(exs, include_self_loop).syn.tobytes() == alone_scores.tobytes()


@PROPERTY
@given(forest=st.lists(tree_heads(), min_size=1, max_size=6), include_self_loop=st.booleans())
def test_a_batch_joins_the_examples_neighbourhoods_with_offsets(forest, include_self_loop):
    exs = _forest(forest)
    batch = make_batch(exs, include_self_loop)
    hoods = neighbor_sets(batch.tree)
    segments = batch.tree.segments
    for e, (ex, start) in enumerate(zip(exs, segments.starts.tolist())):
        own = neighbor_sets(build_tree([ex], include_self_loop))
        assert hoods[start : start + ex.n] == tuple(tuple(j + start for j in hood) for hood in own)
        assert segments.owner[start : start + ex.n].tolist() == [e] * ex.n
    assert batch.tree.neighborhoods.n_in == batch.tree.n == segments.owner.size == sum(ex.n for ex in exs)


# ---------------------------------------------------------------------------
# the batch's index structures, built once as arrays


def _derived_structures(exs, include_self_loop):
    """The batch's structures as derived example by example, without the batch's record.

    Starts, owner and sizes from the lengths; the aspect spans as ``range``s;
    each token's sorted neighbourhood from the parent links; and each tree's
    scores from Floyd–Warshall distances, max-shifted and summed over its own
    slice.
    """
    lengths = [ex.n for ex in exs]
    starts = np.cumsum([0] + lengths[:-1])
    spans = RowGroups.of([range(s + ex.aspect_from, s + ex.aspect_to) for s, ex in zip(starts.tolist(), exs)], sum(lengths))
    hoods = []
    for s, ex in zip(starts.tolist(), exs):
        for i in range(ex.n):
            hood = {h for h in (ex.heads[i],) if h >= 0} | {j for j, h in enumerate(ex.heads) if h == i}
            hoods.append(sorted(j + s for j in hood | ({i} if include_self_loop or ex.n == 1 else set())))
    raw = -np.concatenate([floyd_warshall_distances(ex) for ex in exs])
    bounds = [*starts.tolist(), raw.size]
    owner = np.repeat(np.arange(len(exs)), lengths)
    e = np.exp(raw - np.maximum.reduceat(raw, starts)[owner])
    sums = np.array([e[first:end].sum() for first, end in zip(bounds, bounds[1:])])
    return {
        "starts": starts, "owner": owner, "sizes": np.array(lengths, dtype=np.intp),
        "aspect sizes": spans.sizes, "aspect members": spans.members,
        "hood sizes": np.array([len(h) for h in hoods], dtype=np.intp),
        "hood members": np.array([j for h in hoods for j in h], dtype=np.intp),
        "syn": e / sums[owner],
    }


@PROPERTY
@given(exs=st.lists(examples(max_tokens=12), min_size=1, max_size=8), include_self_loop=st.booleans())
@example(exs=[Example(["a"], [-1], 0, 1, "neutral")] * 3, include_self_loop=False)
@example(
    exs=[Example(list("abcd"), [1, -1, 1, 2], 0, 1, "neutral"), Example(["a"], [-1], 0, 1, "positive"),
         Example(list("abcd"), [1, -1, 1, 2], 2, 4, "negative"), Example(list("abcd"), [1, -1, 1, 1], 2, 4, "neutral")],
    include_self_loop=True,
)
def test_the_batch_record_is_byte_equal_to_the_per_example_derivations(exs, include_self_loop):
    batch = make_batch(exs, include_self_loop)
    tree, segments = batch.tree, batch.tree.segments
    built = {
        "starts": segments.starts, "owner": segments.owner, "sizes": segments.sizes,
        "aspect sizes": tree.aspects.sizes, "aspect members": tree.aspects.members,
        "hood sizes": tree.neighborhoods.sizes, "hood members": tree.neighborhoods.members, "syn": batch.syn,
    }
    for name, want in _derived_structures(exs, include_self_loop).items():
        assert (built[name].dtype, built[name].tobytes()) == (want.dtype, want.tobytes()), name
    assert tree.aspects.n_in == tree.n == segments.owner.size


@PROPERTY
@given(exs=st.lists(examples(max_tokens=12), min_size=1, max_size=8), include_self_loop=st.booleans())
# Spans whose tokens the tree does not join: tokens 2 and 3 hang from 1, and 0 and 1 from 2.
@example(exs=[Example(list("abcd"), [1, -1, 1, 1], 2, 4, "neutral"), Example(list("abcde"), [2, 2, -1, 2, 3], 0, 2, "neutral")],
         include_self_loop=False)
def test_forest_distances_are_floyd_warshall(exs, include_self_loop):
    want = np.concatenate([floyd_warshall_distances(ex) for ex in exs])
    np.testing.assert_array_equal(build_tree(exs, include_self_loop).path_len_to_aspect, want)


def test_a_forward_pass_reads_the_batch_record_and_checks_no_starts(monkeypatch):
    def refused(*args):
        raise AssertionError("a forward pass checked segment starts")

    monkeypatch.setattr(Segments, "of", refused)
    exs = [Example(WORDS[:3], [-1, 0, 0], 1, 3, "positive"), Example(["w1"], [-1], 0, 1, "neutral")]
    state = random_state(HyperParams(hidden=6, layers=2), seed=5)
    backward(total_loss(exs, state)[0])


def test_one_pass_looks_up_each_distinct_token_once(monkeypatch):
    looked_up = Counter()
    row_index = EmbeddingTable.row_index

    def counted(table, token):
        looked_up[token] += 1
        return row_index(table, token)

    monkeypatch.setattr(EmbeddingTable, "row_index", counted)
    exs = [
        Example(["w1", "w2", "w1", "oov"], [-1, 0, 0, 0], 0, 1, "positive"),
        Example(["W1", "oov", "w2"], [-1, 0, 1], 1, 2, "negative"),
        Example(["w1"], [-1], 0, 1, "neutral"),
    ]
    state = random_state(HyperParams(hidden=6, layers=2), seed=6)
    looked_up.clear()
    total_loss(exs, state)
    assert looked_up == Counter({"w1": 1, "w2": 1, "oov": 1, "W1": 1})


@pytest.mark.parametrize("shape", ["chain", "star", "broom"])
def test_a_50000_token_tree_is_evaluated_in_under_five_seconds(shape):
    # A chain's aspect is its first token, so the distance search has 49 999 levels. A broom's
    # aspect is 20 000 leaves of token 0, joined only through it, and a 29 999-token chain hangs
    # from token 0: a search that kept each of token 0's 20 000 listings would walk the chain
    # 20 000 times over.
    n, leaves = 50_000, 20_000
    if shape == "broom":
        heads, span = [-1] + [0] * leaves + [0] + list(range(leaves + 1, n - 1)), (1, leaves + 1)
    else:
        heads, span = [-1] + (list(range(n - 1)) if shape == "chain" else [0] * (n - 1)), (0, 1)
    ex = Example([WORDS[i % 8] for i in range(n)], heads, *span, "neutral")
    state = random_state(HyperParams(hidden=4, layers=2), seed=7)
    started = time.perf_counter()
    metrics = evaluate(state, [ex])
    assert time.perf_counter() - started < 5.0
    assert math.isfinite(metrics.loss_total)
