"""Forward computation and training losses for the gated tree-GCN classifier.

Pipeline per example: embed tokens, pool a sentence vector, run mean-over-
neighbors graph convolutions over the dependency tree, regulate each layer's
hidden vectors with a sigmoid gate computed from the aspect embedding, then
score the sentence three ways:

* a diversity penalty that keeps per-layer gates from collapsing onto each
  other (dot products of pooled own-gate vs cross-gate regulated vectors),
* a consistency penalty pulling the model's token-importance distribution
  toward the tree-distance-based one (forward KL, tree side constant),
* the classification loss itself (negative log-likelihood of the gold
  polarity).

Total objective: ``div + alpha * const + beta * pred``.

A mini-batch runs as one graph, the disjoint union of its examples' trees:
their token rows are stacked into one matrix and their trees joined into one
forest with offset node ids (see ``Batch``), so each layer is one operation
per batch. Quantities with one value per example (aspect vectors, gates,
pooled vectors, class probabilities) are matrices with one row per example,
and each token reaches its example's row through ``Batch.owner``. The loss
terms are summed over the batch's examples; the training loss is their mean.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import LABELS, DependencyTree, EmbeddingTable, Example, build_tree, syntax_scores, write_atomically
from .tensor import (
    DimensionError,
    Tensor,
    add,
    add_n,
    clamp_min,
    concat,
    dot,
    gather_rows,
    log,
    matmul,
    maxpool_rows,
    mul,
    pick,
    reciprocal,
    relu,
    scale,
    segment_mean_rows,
    segment_softmax,
    sigmoid,
    softmax_rows,
    sqrt,
    sum_all,
    tanh,
    transpose,
)

N_CLASSES = len(LABELS)
PROB_FLOOR = 1e-12


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its consumer."""


@dataclass
class HyperParams:
    """Model-shape knobs, loss trade-offs and ablation switches."""

    hidden: int = 200
    layers: int = 2
    alpha: float = 1.0
    beta: float = 1.0
    include_self_loop: bool = True
    gate_on: bool = True
    div_on: bool = True
    con_on: bool = True
    gatediv_baseline: bool = False
    normalize_div: bool = False

    def __post_init__(self):
        if self.hidden <= 0:
            raise ValueError("hidden must be positive")
        if self.layers < 1:
            raise ValueError("need at least one graph convolution layer")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss trade-off weights must be non-negative")


@dataclass
class LossTerms:
    """Loss terms summed over the examples of a forward pass."""

    div: float
    const: float
    pred: float
    total: float


@dataclass(frozen=True)
class Batch:
    """Examples laid end to end: one token matrix, one forest.

    Example ``e`` owns rows ``starts[e]`` up to the next start, and
    ``owner[i]`` is the example of row ``i``. ``tree`` is the disjoint union
    of the examples' trees with node ids offset by ``starts``; ``syn`` holds
    each example's tree-based importance scores in that example's rows.
    """

    examples: tuple[Example, ...]
    starts: np.ndarray
    owner: np.ndarray
    tree: DependencyTree
    syn: np.ndarray


def make_batch(examples, include_self_loop: bool = True) -> Batch:
    """Lay the examples end to end in the order given."""
    if not examples:
        raise ValueError("a batch needs at least one example")
    graphs = [_graph(ex, include_self_loop) for ex in examples]
    trees = [tree for tree, _ in graphs]
    lengths = [tree.n for tree in trees]
    starts = np.cumsum([0] + lengths[:-1])
    neighbor_sets: list[tuple[int, ...]] = []
    distances: list[int] = []
    for start, tree in zip(starts.tolist(), trees):
        neighbor_sets.extend(tuple(j + start for j in nb) for nb in tree.neighbor_sets)
        distances.extend(tree.path_len_to_aspect)
    return Batch(
        examples=tuple(examples),
        starts=starts,
        owner=np.repeat(np.arange(len(trees)), lengths),
        tree=DependencyTree(
            n=len(distances), neighbor_sets=tuple(neighbor_sets), path_len_to_aspect=tuple(distances)
        ),
        syn=np.concatenate([syn for _, syn in graphs]),
    )


def _graph(ex: Example, include_self_loop: bool) -> tuple[DependencyTree, np.ndarray]:
    """The example's tree and tree-based scores, computed on first use and kept on the example."""
    if ex.graph_cache is None:
        object.__setattr__(ex, "graph_cache", {})  # a cache, not part of the frozen value
    graph = ex.graph_cache.get(include_self_loop)
    if graph is None:
        tree = build_tree(ex, include_self_loop=include_self_loop)
        graph = ex.graph_cache[include_self_loop] = (tree, syntax_scores(tree))
    return graph


@dataclass
class ForwardTrace:
    """Every intermediate of a forward pass, for tests and dumps.

    The shapes below are those of the trace ``total_loss`` returns for one
    example, whose per-example vectors are constants holding the rows of its
    batch of one: gradients flow from the loss only. A batch's trace stacks
    the examples' token rows (``n`` becomes the batch's token count) and
    gives each per-example vector one row per example.
    """

    batch: Batch | None = None
    embeddings: Tensor | None = None          # (n, d)
    aspect_vec: Tensor | None = None          # (d,)
    sentence_vec: Tensor | None = None        # (hidden,)
    hidden_layers: list[Tensor] = field(default_factory=list)      # each (n, hidden)
    gates: list[Tensor] = field(default_factory=list)              # each (hidden,)
    regulated: list[Tensor] = field(default_factory=list)          # each (n, hidden)
    pooled_regulated: list[Tensor] = field(default_factory=list)   # each (hidden,)
    pooled_cross: dict[tuple[int, int], Tensor] = field(default_factory=dict)
    overall: Tensor | None = None             # (2*hidden,)
    syn: np.ndarray | None = None             # (n,) constant target
    mod: Tensor | None = None                 # (n,)
    class_probs: Tensor | None = None         # (3,)
    losses: LossTerms | None = None


# ---------------------------------------------------------------------------
# parameters


def parameter_shapes(hp: HyperParams, dim: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every learnable tensor besides the embedding table.

    The order is that of initialisation, ``ModelState.named_tensors`` and
    checkpoints; ``dim`` is the embedding dimension.
    """
    h = hp.hidden
    shapes: dict[str, tuple[int, ...]] = {"w_sent": (h, dim), "b_sent": (h,)}
    for l in range(hp.layers):
        shapes[f"w_gcn_{l}"] = (h, dim if l == 0 else h)
        shapes[f"b_gcn_{l}"] = (h,)
    for l in range(hp.layers):
        shapes[f"w_gate_{l}"] = (h, dim)
        shapes[f"b_gate_{l}"] = (h,)
    shapes["w_score_overall"] = (h, 2 * h)
    shapes["b_score_overall"] = (h,)
    shapes["w_score_token"] = (h, h)
    shapes["b_score_token"] = (h,)
    shapes["w_cls_hidden"] = (h, 2 * h)
    shapes["b_cls_hidden"] = (h,)
    shapes["w_cls_out"] = (N_CLASSES, h)
    shapes["b_cls_out"] = (N_CLASSES,)
    return shapes


class ModelState:
    """All learnable tensors plus the embedding table they index into."""

    def __init__(self, table: EmbeddingTable, hp: HyperParams, tensors: dict[str, Tensor]):
        self.table = table
        self.hp = hp
        self.tensors = {name: tensors[name] for name in parameter_shapes(hp, table.dim)}
        self.w_sent = tensors["w_sent"]
        self.b_sent = tensors["b_sent"]
        self.w_gcn = [tensors[f"w_gcn_{l}"] for l in range(hp.layers)]
        self.b_gcn = [tensors[f"b_gcn_{l}"] for l in range(hp.layers)]
        self.w_gate = [tensors[f"w_gate_{l}"] for l in range(hp.layers)]
        self.b_gate = [tensors[f"b_gate_{l}"] for l in range(hp.layers)]
        self.w_score_overall = tensors["w_score_overall"]
        self.b_score_overall = tensors["b_score_overall"]
        self.w_score_token = tensors["w_score_token"]
        self.b_score_token = tensors["b_score_token"]
        self.w_cls_hidden = tensors["w_cls_hidden"]
        self.b_cls_hidden = tensors["b_cls_hidden"]
        self.w_cls_out = tensors["w_cls_out"]
        self.b_cls_out = tensors["b_cls_out"]

    @classmethod
    def initialize(
        cls,
        table: EmbeddingTable,
        hp: HyperParams,
        rng: np.random.Generator,
        weight_scale: float = 0.1,
        bias_scale: float = 0.0,
    ) -> "ModelState":
        """Seeded uniform init; zero bias_scale keeps fresh gates at exactly 0.5.

        Weights (matrices) and biases (vectors) draw from ``rng`` in the order
        of ``parameter_shapes``.
        """
        tensors: dict[str, Tensor] = {}
        for name, shape in parameter_shapes(hp, table.dim).items():
            if len(shape) == 2:
                tensors[name] = Tensor(rng.uniform(-weight_scale, weight_scale, size=shape), trainable=True)
            elif bias_scale == 0.0:
                tensors[name] = Tensor(np.zeros(shape), trainable=True)
            else:
                tensors[name] = Tensor(rng.uniform(-bias_scale, bias_scale, size=shape), trainable=True)
        return cls(table, hp, tensors)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """The tensors besides the embedding table, in ``parameter_shapes`` order."""
        return list(self.tensors.items())

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in a fixed order (embeddings first, if trainable)."""
        params = []
        if self.table.vectors.trainable:
            params.append(("embeddings", self.table.vectors))
        params.extend(self.named_tensors())
        return params

    def zero_grads(self) -> None:
        for _, p in self.parameters():
            p.zero_grad()

    def clone(self) -> "ModelState":
        """Deep copy of all tensors (including the embedding table)."""
        table = EmbeddingTable(
            vocabulary=dict(self.table.vocabulary),
            vectors=Tensor(self.table.vectors.data.copy(), trainable=self.table.vectors.trainable),
            dim=self.table.dim,
            unk_index=self.table.unk_index,
        )
        tensors = {
            name: Tensor(t.data.copy(), trainable=t.trainable) for name, t in self.named_tensors()
        }
        return ModelState(table, replace(self.hp), tensors)


# ---------------------------------------------------------------------------
# forward building blocks


def encode(batch: Batch, table: EmbeddingTable, params: ModelState):
    """Token embeddings, mean aspect-span vectors and pooled sentence vectors."""
    E = gather_rows(table.vectors, [table.row_index(tok) for ex in batch.examples for tok in ex.tokens])
    starts = batch.starts.tolist()
    spans = [range(s + ex.aspect_from, s + ex.aspect_to) for s, ex in zip(starts, batch.examples)]
    aspect_vec = segment_mean_rows(E, spans)
    sentence_vec = tanh(add(matmul(maxpool_rows(E, batch.starts), transpose(params.w_sent)), params.b_sent))
    return E, aspect_vec, sentence_vec


def gcn_layer(h_prev: Tensor, tree: DependencyTree, w: Tensor, b: Tensor) -> Tensor:
    """Mean over each token's tree neighborhood, then affine map and ReLU."""
    if h_prev.shape[0] != tree.n:
        raise DimensionError(f"hidden rows {h_prev.shape[0]} != tree size {tree.n}")
    agg = segment_mean_rows(h_prev, tree.neighbor_sets)
    return relu(add(matmul(agg, transpose(w)), b))


def compute_gate(aspect_vec: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-layer sigmoid gates computed from the aspect representations."""
    return sigmoid(add(matmul(aspect_vec, transpose(w)), b))


def regulate(hidden: Tensor, gate: Tensor, owner) -> Tensor:
    """Multiply every token's hidden vector by its example's gate (row ``owner[i]``)."""
    return mul(hidden, gather_rows(gate, owner))


def _pair_similarity(a: Tensor, b: Tensor, normalize: bool) -> Tensor:
    if not normalize:
        return dot(a, b)
    norms = mul(sqrt(dot(a, a)), sqrt(dot(b, b)))
    return mul(dot(a, b), reciprocal(clamp_min(norms, PROB_FLOOR)))


def _mean_over_layer_pairs(own: list[Tensor], other, normalize: bool) -> Tensor:
    """Sum over examples of the mean similarity of ``own[l]`` and ``other(l, lp)``."""
    n_layers = len(own)
    if n_layers < 2:
        return Tensor(np.zeros(()))
    terms = [
        _pair_similarity(own[l], other(l, lp), normalize)
        for l in range(n_layers)
        for lp in range(n_layers)
        if lp != l
    ]
    return scale(sum_all(add_n(terms)), 1.0 / (n_layers * (n_layers - 1)))


def diversity_loss(trace: ForwardTrace, normalize: bool = False) -> Tensor:
    """Mean over ordered layer pairs of pooled own-gate vs cross-gate products.

    With a single layer there are no pairs and the loss is zero.
    """
    cross = trace.pooled_cross
    return _mean_over_layer_pairs(trace.pooled_regulated, lambda l, lp: cross[(l, lp)], normalize)


def gatediv_baseline_loss(gates: list[Tensor], normalize: bool = False) -> Tensor:
    """Diversity measured directly between the gate vectors themselves."""
    return _mean_over_layer_pairs(gates, lambda l, lp: gates[lp], normalize)


def model_scores(trace: ForwardTrace, params: ModelState) -> Tensor:
    """Model-side token importances: per-example softmax of transformed-vector dot products."""
    overall_sig = sigmoid(
        add(matmul(trace.overall, transpose(params.w_score_overall)), params.b_score_overall)
    )
    token_sig = sigmoid(
        add(matmul(trace.regulated[-1], transpose(params.w_score_token)), params.b_score_token)
    )
    raw = dot(token_sig, gather_rows(overall_sig, trace.batch.owner))
    return segment_softmax(raw, trace.batch.starts)


def consistency_loss(syn, mod: Tensor) -> Tensor:
    """Forward KL divergence from the model scores to the tree-based scores.

    The tree-based distribution is a constant target: gradients flow only
    into ``mod``. Model probabilities are floored at 1e-12 before the log so
    saturated softmax outputs cannot produce infinities. Given a batch's
    scores, one distribution per example laid end to end, the result is the
    sum of the examples' divergences.
    """
    syn_values = np.asarray(syn.data if isinstance(syn, Tensor) else syn, dtype=np.float64)
    if syn_values.shape != mod.shape:
        raise DimensionError(f"score lengths differ: {syn_values.shape} vs {mod.shape}")
    safe_syn = np.maximum(syn_values, PROB_FLOOR)
    entropy_term = float(np.sum(syn_values * np.log(safe_syn)))
    cross_term = dot(Tensor(syn_values), log(clamp_min(mod, PROB_FLOOR)))
    return add(Tensor(np.asarray(entropy_term)), scale(cross_term, -1.0))


def predict(overall: Tensor, params: ModelState) -> Tensor:
    """Class probabilities, one row per row of the overall representations."""
    hidden = relu(add(matmul(overall, transpose(params.w_cls_hidden)), params.b_cls_hidden))
    return softmax_rows(add(matmul(hidden, transpose(params.w_cls_out)), params.b_cls_out))


def prediction_loss(class_probs: Tensor, gold_index) -> Tensor:
    """Negative log-likelihood of the gold classes, summed over the rows."""
    picked = pick(class_probs, gold_index)
    return scale(sum_all(log(clamp_min(picked, PROB_FLOOR))), -1.0)


# ---------------------------------------------------------------------------
# full objective


def _first_example(trace: ForwardTrace) -> ForwardTrace:
    """A batch-of-one trace with each per-example row given as that example's vector."""
    row = lambda t: Tensor(t.data[0])
    return replace(
        trace,
        aspect_vec=row(trace.aspect_vec),
        sentence_vec=row(trace.sentence_vec),
        gates=[row(g) for g in trace.gates],
        pooled_regulated=[row(p) for p in trace.pooled_regulated],
        pooled_cross={k: row(v) for k, v in trace.pooled_cross.items()},
        overall=row(trace.overall),
        class_probs=row(trace.class_probs),
    )


def total_loss(examples, params: ModelState, hp: HyperParams | None = None):
    """Run the full pipeline on a mini-batch of examples, or on one example.

    Returns ``(loss, trace)``: ``loss`` is the mean objective over the
    examples, a scalar tensor ready for ``backward``, and ``trace`` records
    every intermediate with the loss terms summed over the examples. One
    ``Example`` runs as the batch of one, and its trace has that example's
    shapes. Ablation switches: ``gate_on=False`` replaces gates with constant
    ones (which also disables the diversity term), ``div_on``/``con_on`` drop
    their terms, and ``gatediv_baseline`` swaps the diversity term for
    gate-vector products.
    """
    hp = hp if hp is not None else params.hp
    single = isinstance(examples, Example)
    batch = make_batch([examples] if single else examples, include_self_loop=hp.include_self_loop)
    count = len(batch.examples)
    trace = ForwardTrace(batch=batch)

    E, aspect_vec, sentence_vec = encode(batch, params.table, params)
    trace.embeddings, trace.aspect_vec, trace.sentence_vec = E, aspect_vec, sentence_vec

    h = E
    for l in range(hp.layers):
        h = gcn_layer(h, batch.tree, params.w_gcn[l], params.b_gcn[l])
        trace.hidden_layers.append(h)

    if hp.gate_on:
        trace.gates = [
            compute_gate(aspect_vec, params.w_gate[l], params.b_gate[l]) for l in range(hp.layers)
        ]
    else:
        trace.gates = [Tensor(np.ones((count, hp.hidden))) for _ in range(hp.layers)]

    trace.regulated = [regulate(h, g, batch.owner) for h, g in zip(trace.hidden_layers, trace.gates)]
    trace.pooled_regulated = [maxpool_rows(r, batch.starts) for r in trace.regulated]

    div_active = hp.div_on and hp.gate_on and hp.layers >= 2
    if div_active and not hp.gatediv_baseline:
        for l in range(hp.layers):
            for lp in range(hp.layers):
                if lp != l:
                    cross = regulate(trace.hidden_layers[l], trace.gates[lp], batch.owner)
                    trace.pooled_cross[(l, lp)] = maxpool_rows(cross, batch.starts)

    trace.overall = concat(sentence_vec, trace.pooled_regulated[-1])
    trace.syn = batch.syn
    trace.mod = model_scores(trace, params)
    trace.class_probs = predict(trace.overall, params)

    if div_active:
        if hp.gatediv_baseline:
            l_div = gatediv_baseline_loss(trace.gates, normalize=hp.normalize_div)
        else:
            l_div = diversity_loss(trace, normalize=hp.normalize_div)
    else:
        l_div = Tensor(np.zeros(()))

    l_const = consistency_loss(trace.syn, trace.mod) if hp.con_on else Tensor(np.zeros(()))
    l_pred = prediction_loss(trace.class_probs, [ex.label_index for ex in batch.examples])

    total = add(add(l_div, scale(l_const, hp.alpha)), scale(l_pred, hp.beta))
    trace.losses = LossTerms(
        div=l_div.item(), const=l_const.item(), pred=l_pred.item(), total=total.item()
    )
    loss = scale(total, 1.0 / count)
    return loss, (_first_example(trace) if single else trace)


# ---------------------------------------------------------------------------
# checkpointing

_CHECKPOINT_FORMAT = "absa-gcn-checkpoint"
_VALUES_BLOCK = 65536  # floats per json.dumps call when writing a tensor


def _write_tensor(fh, t: Tensor) -> None:
    """``{"shape": [...], "values": [...]}`` as ``json.dump`` writes it.

    The values are encoded one block at a time, so the text of only one block
    is held in memory, and each block goes through the C encoder.
    """
    fh.write(f'{{"shape": {json.dumps(list(t.shape))}, "values": [')
    flat = t.data.ravel()
    for start in range(0, flat.size, _VALUES_BLOCK):
        if start:
            fh.write(", ")
        fh.write(json.dumps(flat[start : start + _VALUES_BLOCK].tolist())[1:-1])
    fh.write("]}")


def save_checkpoint(path, params: ModelState) -> None:
    """Write hyperparameters, vocabulary and all tensors as one JSON file.

    The text is that of ``json.dump`` of the whole payload. The file is
    written beside ``path`` and renamed over it, so a reader never sees a
    half-written checkpoint.
    """
    vocab_rows = [None] * len(params.table.vocabulary)
    for word, idx in params.table.vocabulary.items():
        vocab_rows[idx] = word
    header = {
        "format": _CHECKPOINT_FORMAT,
        "version": 1,
        "hyperparams": asdict(params.hp),
        "embedding_dim": params.table.dim,
        "unk_index": params.table.unk_index,
        "embeddings_trainable": params.table.vectors.trainable,
        "vocabulary": vocab_rows,
    }
    with write_atomically(path) as fh:
        fh.write(json.dumps(header)[:-1])
        fh.write(', "embeddings": ')
        _write_tensor(fh, params.table.vectors)
        fh.write(', "parameters": {')
        for i, (name, t) in enumerate(params.named_tensors()):
            fh.write(f"{', ' if i else ''}{json.dumps(name)}: ")
            _write_tensor(fh, t)
        fh.write("}}\n")


def _tensor_from_payload(name: str, entry, shape: tuple[int, ...], trainable: bool) -> Tensor:
    try:
        values = np.asarray(entry["values"], dtype=np.float64).reshape(tuple(entry["shape"]))
    except (TypeError, KeyError, ValueError) as err:
        raise CheckpointError(f"bad tensor {name!r}: {err}") from None
    if values.shape != shape:
        raise CheckpointError(f"tensor {name!r} has shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise CheckpointError(f"tensor {name!r} holds a non-finite value")
    return Tensor(values, trainable=trainable)


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint written by ``save_checkpoint``, validating it first.

    The tensors must be exactly those ``parameter_shapes`` names for the
    stored hyperparameters and embedding dimension, with those shapes; the
    table must have one row per vocabulary word plus the unknown row; every
    value must be finite. Anything else raises ``CheckpointError``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise CheckpointError(f"not a checkpoint file: {err.msg}") from None
    if not isinstance(payload, dict) or payload.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointError("not a checkpoint file")
    try:
        hp = HyperParams(**payload["hyperparams"])
        vocab_rows = payload["vocabulary"]
        dim = payload["embedding_dim"]
        shapes = parameter_shapes(hp, dim)
        entries = payload["parameters"]
        if set(entries) != set(shapes):
            raise CheckpointError(f"parameter names {sorted(entries)} do not match the model's {sorted(shapes)}")
        table = EmbeddingTable(
            vocabulary={word: idx for idx, word in enumerate(vocab_rows)},
            vectors=_tensor_from_payload(
                "embeddings", payload["embeddings"], (len(vocab_rows) + 1, dim), payload["embeddings_trainable"]
            ),
            dim=dim,
            unk_index=payload["unk_index"],
        )
        tensors = {name: _tensor_from_payload(name, entries[name], shape, True) for name, shape in shapes.items()}
        return ModelState(table, hp, tensors)
    except CheckpointError:
        raise
    except (TypeError, KeyError, ValueError) as err:
        raise CheckpointError(f"incomplete checkpoint: {err}") from None
