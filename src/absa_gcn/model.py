"""Forward computation and training losses for the gated tree-GCN classifier.

Pipeline per example: embed tokens, pool a sentence vector, run mean-over-
neighbors graph convolutions over the dependency tree, regulate each layer's
hidden vectors with a sigmoid gate computed from the aspect embedding, then
score the sentence three ways:

* a diversity penalty that keeps per-layer gates from collapsing onto each
  other (dot products of each layer's pooled vectors gated by its own gate
  and by another layer's),
* a consistency penalty pulling the model's token-importance distribution
  toward the tree-distance-based one (forward KL, tree side constant),
* the classification loss itself (negative log-likelihood of the gold
  polarity).

Total objective: ``div + alpha * const + beta * pred``.

A mini-batch runs as one graph, the disjoint union of its examples' trees:
their token rows are stacked into one matrix and their trees joined into one
forest with offset node ids (see ``Batch``), so each layer is one operation
per batch. Quantities with one value per example (aspect vectors, gates,
pooled vectors, class probabilities) are matrices with one row per example.
``make_batch`` builds the batch's index structures once, as arrays, through
``build_tree``: one segment record (``tree.segments``: each example's first
row, its row count, and the example of each row), which the max-pooling, the
per-example softmax and the tree-based scores read and through which
``spread_rows`` hands each token its example's gate and overall vector, and
the aspect spans as row groups (``tree.aspects``). The one table lookup is
``encode``'s ``gather_rows``. The loss terms are summed over the batch's
examples; the training loss is their mean.
Every forward pass is such a batch: one example runs as the batch of one,
so its per-example rows have shape ``(1, ·)``.

``parameter_shapes`` is the one table of the learnable tensors' names and
shapes. Initialisation, the forward pass (through ``ModelState.tensors``)
and checkpoints all read it.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (
    FRAME_DTYPE, LABELS, DependencyTree, EmbeddingTable, Example, build_tree, read_frame, syntax_scores, write_frame,
)
from .tensor import (
    DimensionError,
    Segments,
    Tensor,
    add,
    add_n,
    clamp_min,
    concat,
    dot,
    gather_rows,
    linear,
    log,
    maxpool_rows,
    mul,
    pick,
    relu,
    scale,
    segment_mean_rows,
    segment_softmax,
    sigmoid,
    softmax_rows,
    spread_rows,
    sum_all,
    tanh,
)

N_CLASSES = len(LABELS)
PROB_FLOOR = 1e-12


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its consumer."""


@dataclass(frozen=True)
class HyperParams:
    """Model-shape knobs, loss trade-offs and ablation switches; a value, changed only by ``replace``."""

    hidden: int = 200
    layers: int = 2
    alpha: float = 1.0
    beta: float = 1.0
    include_self_loop: bool = True
    gate_on: bool = True
    div_on: bool = True
    con_on: bool = True
    gatediv_baseline: bool = False

    def __post_init__(self):
        # A checkpoint header may hold any JSON value here. ``f.type`` is the annotation's
        # text, and a bool, an int to ``isinstance``, is a number for no field.
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, int if f.type == "int" else (int, float)) and not isinstance(value, bool)
            if not (isinstance(value, bool) if f.type == "bool" else number):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.hidden <= 0:
            raise ValueError("hidden must be positive")
        if self.layers < 1:
            raise ValueError("need at least one graph convolution layer")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 <= value <= sys.float_info.max:  # exact for an int too large for a float
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass
class LossTerms:
    """Loss terms summed over the examples of a forward pass; a term not built counts 0."""

    div: float = 0.0
    const: float = 0.0
    pred: float = 0.0
    total: float = 0.0


@dataclass(frozen=True)
class Batch:
    """Examples laid end to end: one token matrix, one forest.

    ``tree`` is the disjoint union of the examples' trees with node ids
    offset by each example's first row. Its ``segments`` is the batch's one
    segment record: example ``e`` owns ``sizes[e]`` rows from ``starts[e]``
    on, and ``owner[i]`` is the example of row ``i``. Its ``aspects`` groups
    each example's aspect rows. ``syn`` holds each example's tree-based
    importance scores in that example's rows.
    """

    examples: tuple[Example, ...]
    tree: DependencyTree
    syn: np.ndarray


def make_batch(examples, include_self_loop: bool = True) -> Batch:
    """Lay the examples end to end in the order given.

    The batch's forest, with its segment record and aspect groups, and its
    tree-based scores are built here, by a few array operations for the
    whole batch; every segment op of the forward pass reads that record.
    """
    if not examples:
        raise ValueError("a batch needs at least one example")
    forest = build_tree(examples, include_self_loop)
    return Batch(examples=tuple(examples), tree=forest, syn=syntax_scores(forest))


@dataclass
class ForwardTrace:
    """Every intermediate of a forward pass over a batch, for tests and dumps.

    ``B`` is the batch's example count and ``n`` its token count: token rows
    lie end to end as in ``Batch``, and each per-example quantity has one row
    per example. A pass builds only what its loss reads (``total_loss``); each
    per-layer list is in layer order and ends with the last layer's entry.
    """

    batch: Batch | None = None
    embeddings: Tensor | None = None          # (n, d)
    aspect_vec: Tensor | None = None          # (B, d), each aspect span's mean embedding, built for the gates
    sentence_vec: Tensor | None = None        # (B, hidden)
    hidden_layers: list[Tensor] = field(default_factory=list)      # each (n, hidden)
    gates: list[Tensor] = field(default_factory=list)              # each (B, hidden), a layer's
    pooled_hidden: list[Tensor] = field(default_factory=list)      # each (B, hidden), a max-pooled layer
    pooled_regulated: list[Tensor] = field(default_factory=list)   # each pooled_hidden entry times its gate, if any
    overall: Tensor | None = None             # (B, 2*hidden)
    syn: np.ndarray | None = None             # (n,) constant target
    mod: Tensor | None = None                 # (n,), built for the consistency term
    class_probs: Tensor | None = None         # (B, 3)
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


def _tensor_count(hp: HyperParams) -> int:
    """The table and the 10 + 4 * layers tensors of ``parameter_shapes``, counted without building them."""
    return 11 + 4 * hp.layers


# Python's own memory for one tensor besides its values: the ``Tensor``, its value and
# gradient arrays, its name and its dict entry. tracemalloc read 420-470 bytes a tensor
# around ``ModelState.initialize`` at hidden 1 and 2 with 1000 and 4000 layers.
TENSOR_OBJECT_BYTES = 1024


def parameter_bytes(hp: HyperParams, dim: int, rows: int) -> int:
    """The bytes a model's parameters take: a ``(rows, dim)`` table and ``parameter_shapes(hp, dim)``.

    Each tensor counts its float64 values and ``TENSOR_OBJECT_BYTES``, so a
    deep, thin model counts the objects that outweigh its values. No loop
    runs over the layers, whose count may come from a flag: each layer after
    the first has the shapes of the second, so the model holds a 1-layer
    model's values and ``layers - 1`` times what a second layer adds.
    """
    one, two = (sum(math.prod(s) for s in parameter_shapes(replace(hp, layers=n), dim).values()) for n in (1, 2))
    return 8 * (rows * dim + one + (hp.layers - 1) * (two - one)) + TENSOR_OBJECT_BYTES * _tensor_count(hp)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(hp: HyperParams, dim: int, rows: int) -> None:
    """Raise ``ValueError`` if the model's ``parameter_bytes`` exceed the machine's physical memory."""
    need, have = parameter_bytes(hp, dim, rows), _physical_memory()
    if need > have:
        raise ValueError(f"the model's parameters need {need} bytes, more than the {have} bytes of physical memory")


class ModelState:
    """All learnable tensors plus the embedding table they index into."""

    def __init__(self, table: EmbeddingTable, hp: HyperParams, tensors: dict[str, Tensor]):
        self.table = table
        self.hp = hp
        self.tensors = {name: tensors[name] for name in parameter_shapes(hp, table.dim)}

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
        """Deep copy of all tensors (including the embedding table); the read-only vocabulary is shared."""
        table = replace(
            self.table, vectors=Tensor(self.table.vectors.data.copy(), trainable=self.table.vectors.trainable)
        )
        tensors = {
            name: Tensor(t.data.copy(), trainable=t.trainable) for name, t in self.named_tensors()
        }
        return ModelState(table, replace(self.hp), tensors)


# ---------------------------------------------------------------------------
# forward building blocks


def _affine(x: Tensor, params: ModelState, name: str) -> Tensor:
    """``x @ w.T + b`` with the parameters ``w_<name>`` and ``b_<name>``."""
    return linear(x, params.tensors[f"w_{name}"], params.tensors[f"b_{name}"])


def encode(batch: Batch, table: EmbeddingTable, params: ModelState):
    """Token embeddings and pooled sentence vectors."""
    tokens = list(itertools.chain.from_iterable(ex.tokens for ex in batch.examples))
    rows = {token: table.row_index(token) for token in dict.fromkeys(tokens)}  # each distinct token looked up once
    E = gather_rows(table.vectors, np.fromiter(map(rows.__getitem__, tokens), dtype=np.intp, count=len(tokens)))
    sentence_vec = tanh(_affine(maxpool_rows(E, batch.tree.segments), params, "sent"))
    return E, sentence_vec


def gcn_layer(h_prev: Tensor, tree: DependencyTree, w: Tensor, b: Tensor) -> Tensor:
    """Mean over each token's tree neighborhood, then affine map and ReLU."""
    if h_prev.shape[0] != tree.n:
        raise DimensionError(f"hidden rows {h_prev.shape[0]} != tree size {tree.n}")
    agg = segment_mean_rows(h_prev, tree.neighborhoods)
    return relu(linear(agg, w, b))


def compute_gate(aspect_vec: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-layer sigmoid gates computed from the aspect representations."""
    return sigmoid(linear(aspect_vec, w, b))


def regulate(hidden: Tensor, gate: Tensor, segments: Segments) -> Tensor:
    """Multiply every token's hidden vector by its example's gate, spread over the example's rows by ``segments``."""
    return mul(hidden, spread_rows(gate, segments))


def _mean_over_layer_pairs(own: list[Tensor], other) -> Tensor:
    """Sum over examples of the mean dot product of ``own[l]`` and ``other(l, lp)``."""
    n_layers = len(own)
    terms = [dot(own[l], other(l, lp)) for l in range(n_layers) for lp in range(n_layers) if lp != l]
    return scale(sum_all(add_n(terms)), 1.0 / (n_layers * (n_layers - 1)))


def diversity_loss(trace: ForwardTrace) -> Tensor:
    """Mean over ordered layer pairs (l, l') of layer l's pooled vectors gated by gate l and by gate l'.

    A gate is one non-negative row per example and rounding is monotone, so
    gating a layer's max-pooled rows equals max-pooling its gated token rows,
    bit for bit: ``maxpool(h * g[owner]) == maxpool(h) * g``. Both sides of a
    pair are therefore ``(B, hidden)`` products, ``pooled_regulated[l]`` and
    ``pooled_hidden[l] * gates[l']``. Where rounding ties rows of ``h * g``
    (a gate of 0 ties them all), the gate's gradient is the first argmax row
    of ``h``, the subgradient of exact arithmetic. It needs two or more
    layers; ``total_loss`` builds it only then.
    """
    pooled, gates = trace.pooled_hidden, trace.gates
    return _mean_over_layer_pairs(trace.pooled_regulated, lambda l, lp: mul(pooled[l], gates[lp]))


def gatediv_baseline_loss(gates: list[Tensor]) -> Tensor:
    """Diversity measured directly between the gate vectors themselves."""
    return _mean_over_layer_pairs(gates, lambda l, lp: gates[lp])


def model_scores(trace: ForwardTrace, params: ModelState) -> Tensor:
    """Model-side token importances: per-example softmax of transformed-vector dot products.

    The token side is the last layer's rows, gated token by token by the
    last gate when the trace has gates.
    """
    tokens, segments = trace.hidden_layers[-1], trace.batch.tree.segments
    if trace.gates:
        tokens = regulate(tokens, trace.gates[-1], segments)
    overall_sig = sigmoid(_affine(trace.overall, params, "score_overall"))
    token_sig = sigmoid(_affine(tokens, params, "score_token"))
    raw = dot(token_sig, spread_rows(overall_sig, segments))
    return segment_softmax(raw, segments)


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
    hidden = relu(_affine(overall, params, "cls_hidden"))
    return softmax_rows(_affine(hidden, params, "cls_out"))


def prediction_loss(class_probs: Tensor, gold_index) -> Tensor:
    """Negative log-likelihood of the gold classes, summed over the rows."""
    picked = pick(class_probs, gold_index)
    return scale(sum_all(log(clamp_min(picked, PROB_FLOOR))), -1.0)


# ---------------------------------------------------------------------------
# full objective


def total_loss(examples, params: ModelState):
    """Run the full pipeline on a mini-batch of examples; one ``Example`` runs as the batch ``[ex]``.

    Returns ``(loss, trace)``: ``loss`` is the mean objective over the
    examples, a scalar tensor ready for ``backward``, and ``trace`` records
    the intermediates with the loss terms summed over the examples.
    Ablation switches, read from ``params.hp``: ``gate_on=False`` builds no
    gates (which also disables the diversity term), ``div_on``/``con_on``
    drop their terms, and ``gatediv_baseline`` swaps the diversity term for
    gate-vector products. Each term builds only what it reads: only the
    consistency term reads the model scores. An off term adds no node to the
    tape and counts 0 in ``trace.losses``.
    """
    hp = params.hp
    if isinstance(examples, Example):
        examples = [examples]
    batch = make_batch(examples, include_self_loop=hp.include_self_loop)
    trace = ForwardTrace(batch=batch, syn=batch.syn)
    E, trace.sentence_vec = encode(batch, params.table, params)
    trace.embeddings = h = E
    p = params.tensors
    for l in range(hp.layers):
        h = gcn_layer(h, batch.tree, p[f"w_gcn_{l}"], p[f"b_gcn_{l}"])
        trace.hidden_layers.append(h)

    # Only the diversity term reads a layer before the last: its gate, and its pooled rows unless under GateDiv.
    div_on = hp.div_on and hp.gate_on and hp.layers >= 2
    every, last = range(hp.layers), range(hp.layers - 1, hp.layers)
    pooled = every if div_on and not hp.gatediv_baseline else last
    segments = batch.tree.segments
    trace.pooled_hidden = trace.pooled_regulated = [maxpool_rows(trace.hidden_layers[l], segments) for l in pooled]
    if hp.gate_on:
        trace.aspect_vec = segment_mean_rows(E, batch.tree.aspects)
        gated = every if div_on else last
        trace.gates = [compute_gate(trace.aspect_vec, p[f"w_gate_{l}"], p[f"b_gate_{l}"]) for l in gated]
        # Pool, then gate (see ``diversity_loss``): the pooled layers are the last gated ones.
        trace.pooled_regulated = [mul(x, g) for x, g in zip(trace.pooled_hidden, trace.gates[-len(pooled):])]
    trace.overall = concat(trace.sentence_vec, trace.pooled_regulated[-1])
    trace.class_probs = predict(trace.overall, params)

    l_div = l_const = None
    if div_on:
        l_div = gatediv_baseline_loss(trace.gates) if hp.gatediv_baseline else diversity_loss(trace)
    if hp.con_on:
        trace.mod = model_scores(trace, params)
        l_const = consistency_loss(trace.syn, trace.mod)
    gold = np.fromiter((ex.label_index for ex in batch.examples), dtype=np.intp, count=len(batch.examples))
    l_pred = prediction_loss(trace.class_probs, gold)
    # (div + alpha * const) + beta * pred over the terms built, in this order: it fixes the rounding.
    weighted = [l_div, None if l_const is None else scale(l_const, hp.alpha), scale(l_pred, hp.beta)]
    total = functools.reduce(add, [term for term in weighted if term is not None])
    trace.losses = LossTerms(*(0.0 if term is None else term.item() for term in (l_div, l_const, l_pred, total)))
    return scale(total, 1.0 / len(batch.examples)), trace


# ---------------------------------------------------------------------------
# checkpointing

_CHECKPOINT_FORMAT = "absa-gcn-checkpoint"
_MAGIC = b"\x93ABSAGCN"  # 0x93 never starts UTF-8 text, so no JSON file (a version 1 checkpoint) begins with it
# Below this size, mapping the table costs more than copying it: about 0.08 ms
# more for a 12 KB table loaded right after it was saved.
_MAP_TABLE_BYTES = 1 << 20


def save_checkpoint(path, params: ModelState) -> None:
    """Write format version 2: a ``write_frame`` frame with one block per tensor, ``embeddings`` first.

    The header holds the hyperparameters, the vocabulary and each tensor's
    name and shape, in block order. The file is written beside ``path`` and
    renamed over it; a non-finite value raises ``CheckpointError`` before it
    is opened.
    """
    tensors = [("embeddings", params.table.vectors), *params.named_tensors()]
    for name, t in tensors:
        if not np.isfinite(t.data).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value; nothing was saved")
    table = params.table
    header = {
        "format": _CHECKPOINT_FORMAT, "version": 2, "dtype": FRAME_DTYPE, "hyperparams": asdict(params.hp),
        "embedding_dim": table.dim, "unk_index": table.unk_index, "embeddings_trainable": table.vectors.trainable,
        "vocabulary": sorted(table.vocabulary, key=table.vocabulary.get),
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in tensors],
    }
    write_frame(path, _MAGIC, header, (t.data for _, t in tensors))


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint that ``save_checkpoint`` wrote, checking it before use.

    Before any value is read, the header must name this format, version 2
    and its dtype, hold hyperparameters of the right types, and list each
    word of the vocabulary once; the tensors must match the table (one row
    per word plus the unknown row) and the ``parameter_shapes`` of the stored
    hyperparameters by name, order and shape; and the file must hold exactly
    the bytes its header implies. A stored ``normalize_div`` (a removed
    setting) must be false. Every value must be finite. A failed check, and
    any other file (a version 1 checkpoint, one JSON object, among them),
    raises ``CheckpointError``.

    The embedding table of the model returned, if it has
    ``_MAP_TABLE_BYTES`` or more, is a copy-on-write map of the file: it
    shares the file's cached pages until the model writes a row, and no
    write reaches the file. Replacing the file, as ``save_checkpoint`` does,
    leaves the model as it was; a program that rewrites the file in place
    while the model lives may change it, or end the process if it cuts the
    file short.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh)
    except CheckpointError:
        raise
    except (TypeError, KeyError, ValueError, AttributeError) as err:
        raise CheckpointError(f"not a valid checkpoint: {err}") from None


def _read_checkpoint(fh) -> ModelState:
    """The model in the checkpoint file ``fh``, read from its start."""
    frame = read_frame(fh, _MAGIC)
    if frame is None:
        raise CheckpointError("not a valid checkpoint: no version 2 magic bytes (version 1 is no longer read)")
    header, start, size = frame
    stored = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
    if (header.get("format"), header.get("version"), header.get("dtype")) != (_CHECKPOINT_FORMAT, 2, FRAME_DTYPE):
        raise CheckpointError(f"not a version 2 checkpoint of dtype {FRAME_DTYPE!r}")

    settings = dict(header["hyperparams"])
    # Headers written before the setting was removed store it, as false unless a config file set it.
    if settings.pop("normalize_div", False) is not False:
        raise CheckpointError("the model was trained with normalize_div, a setting this version no longer has")
    hp = HyperParams(**settings)
    vocab_rows, dim, trainable = header["vocabulary"], header["embedding_dim"], header["embeddings_trainable"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise CheckpointError(f"embedding_dim {dim!r} is not a positive integer")
    if not isinstance(trainable, bool):
        raise CheckpointError(f"embeddings_trainable {trainable!r} is not true or false")
    vocabulary = {word: i for i, word in enumerate(vocab_rows)}
    if len(vocabulary) != len(vocab_rows):
        raise CheckpointError(f"the vocabulary lists {len(vocab_rows)} words, of which {len(vocabulary)} differ")
    # Counted first: the work of ``parameter_shapes`` grows with the claimed layers.
    count = _tensor_count(hp)
    if len(stored) != count:
        raise CheckpointError(f"the header lists {len(stored)} tensors, not the {count} of a {hp.layers}-layer model")
    shapes = {"embeddings": (len(vocab_rows) + 1, dim), **parameter_shapes(hp, dim)}
    for (name, shape), (want, want_shape) in zip(stored, shapes.items()):
        if name != want:
            raise CheckpointError(f"the header lists tensor {name!r} where the model has {want!r}")
        if shape != want_shape:
            raise CheckpointError(f"tensor {name!r} has shape {shape}, expected {want_shape}")
    unk_index = header["unk_index"]
    if type(unk_index) is not int or unk_index != len(vocab_rows):
        raise CheckpointError(f"unk_index {unk_index!r} is not {len(vocab_rows)}, the row after the vocabulary")
    expected = start + 8 * sum(math.prod(shape) for _, shape in stored)
    if size != expected:
        raise CheckpointError(f"the file has {size} bytes, its header implies {expected}")

    # A table of _MAP_TABLE_BYTES or more is a copy-on-write map of the file,
    # which shares the file's cached pages instead of copying them into new
    # memory; only row gathers read it. Every other block is read into memory
    # of its own, aligned for BLAS.
    blocks, offset = {}, start
    for name, shape in stored:
        nbytes = 8 * math.prod(shape)
        if name == "embeddings" and nbytes >= _MAP_TABLE_BYTES:
            mapped = mmap.mmap(fh.fileno(), offset + nbytes, access=mmap.ACCESS_COPY)
            block = np.frombuffer(mapped, dtype=FRAME_DTYPE, offset=offset).reshape(shape)
            fh.seek(offset + nbytes)
        else:
            block = np.empty(shape, dtype=FRAME_DTYPE)
            if fh.readinto(block.data) != nbytes:
                raise CheckpointError(f"tensor {name!r} is cut short")
        if not np.isfinite(block).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
        blocks[name] = block
        offset += nbytes
    vectors = Tensor(blocks.pop("embeddings"), trainable=trainable)
    table = EmbeddingTable(vocabulary, vectors, dim, unk_index)
    return ModelState(table, hp, {name: Tensor(block, trainable=True) for name, block in blocks.items()})
