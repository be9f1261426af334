"""Mini-batch training with Adam, evaluation metrics and the ablation driver."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

# build_random_table is looked up on ``data`` at each call, so a wrapper set there (perfbench's tracer) sees it.
from . import data
from .data import LABELS, EmbeddingTable, Example
from .model import HyperParams, ModelState, total_loss
from .optim import AdamState, adam_step, as_rows
from .tensor import backward

# Examples per forward pass in ``evaluate``: a fixed size bounds the memory
# one pass's tape holds, however large the data.
EVAL_CHUNK = 32


class TrainingDiverged(ArithmeticError):
    """A training loss that is not finite: the run stopped and returned no model."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.001
    seed: int = 0
    hyperparams: HyperParams = field(default_factory=HyperParams)
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < float("inf"):
            raise ValueError("learning_rate must be positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    per_class: dict[str, dict[str, float]]
    loss_div: float
    loss_const: float
    loss_pred: float
    loss_total: float

    def scalars(self) -> dict[str, float]:
        """Every field but ``per_class``, in field order: what the logs record."""
        return {k: v for k, v in asdict(self).items() if k != "per_class"}


def compute_metrics(golds: list[int], preds: list[int], losses=None) -> Metrics:
    """Accuracy plus unweighted mean of per-class F1 over the three polarities.

    A class absent from both gold and predictions contributes F1 = 0.
    """
    if len(golds) != len(preds) or not golds:
        raise ValueError("need equal, non-empty gold/prediction lists")
    per_class = {}
    f1_sum = 0.0
    for idx, name in enumerate(LABELS):
        tp = sum(1 for g, p in zip(golds, preds) if g == idx and p == idx)
        fp = sum(1 for g, p in zip(golds, preds) if g != idx and p == idx)
        fn = sum(1 for g, p in zip(golds, preds) if g == idx and p != idx)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[name] = {"precision": precision, "recall": recall, "f1": f1}
        f1_sum += f1
    accuracy = sum(1 for g, p in zip(golds, preds) if g == p) / len(golds)
    loss_means = losses or {"div": 0.0, "const": 0.0, "pred": 0.0, "total": 0.0}
    return Metrics(
        accuracy=accuracy,
        macro_f1=f1_sum / len(LABELS),
        per_class=per_class,
        loss_div=loss_means["div"],
        loss_const=loss_means["const"],
        loss_pred=loss_means["pred"],
        loss_total=loss_means["total"],
    )


def _tally(trace, golds: list[int], preds: list[int], sums: dict[str, float]) -> None:
    """Add one forward pass's gold labels, argmax predictions and loss sums."""
    golds.extend(ex.label_index for ex in trace.batch.examples)
    preds.extend(np.argmax(trace.class_probs.data, axis=1).tolist())
    sums["div"] += trace.losses.div
    sums["const"] += trace.losses.const
    sums["pred"] += trace.losses.pred
    sums["total"] += trace.losses.total


def evaluate(model: ModelState, data: list[Example]) -> Metrics:
    """Pure function of (model, data): argmax predictions plus mean loss terms."""
    if not data:
        raise ValueError("cannot evaluate on an empty dataset")
    golds, preds = [], []
    sums = {"div": 0.0, "const": 0.0, "pred": 0.0, "total": 0.0}
    for start in range(0, len(data), EVAL_CHUNK):
        # No name keeps a pass's trace, so its tape is freed before the next pass.
        _tally(total_loss(data[start : start + EVAL_CHUNK], model)[1], golds, preds, sums)
    means = {k: v / len(data) for k, v in sums.items()}
    return compute_metrics(golds, preds, means)


def _check_finite(loss: float, where: str) -> None:
    if not math.isfinite(loss):
        raise TrainingDiverged(f"the loss is {loss} {where}")


def _log_entry(epoch: int, split: str, metrics: Metrics) -> dict:
    """One log line; its loss must be finite, so every line is strict JSON.

    The loss terms are non-negative, so a finite total means finite terms.
    """
    _check_finite(metrics.loss_total, f"in epoch {epoch}")
    return {"epoch": epoch, "split": split, **metrics.scalars()}


def init_model_state(table: EmbeddingTable, hp: HyperParams, seed) -> ModelState:
    """Seeded uniform [-0.1, 0.1] weights; biases start at zero."""
    return ModelState.initialize(table, hp, np.random.default_rng(seed))


def _snapshot(model: ModelState, adam: AdamState) -> list:
    """Each parameter with the rows steps have moved of it so far and their values."""
    saved = []
    for name, t in model.parameters():
        rows = adam.rows[name]
        saved.append((name, t, rows, as_rows(t.data)[rows]))
    return saved


def _restore(adam: AdamState, snapshot: list) -> None:
    """The parameters set back to ``snapshot``, which must hold every row ``adam`` has moved since."""
    for name, _, rows, _ in snapshot:
        if adam.rows[name].size != rows.size:
            raise RuntimeError(f"rows of {name!r} moved after the best epoch's snapshot, which does not hold them")
    for _, t, rows, values in snapshot:
        as_rows(t.data)[rows] = values


# A run checks its own losses (``TrainingDiverged``), so numpy's overflow
# warnings on the way to a non-finite loss would only repeat that report.
@np.errstate(over="ignore", invalid="ignore")
def train(
    train_set: list[Example],
    dev_set: list[Example] | None = None,
    config: TrainConfig | None = None,
    table: EmbeddingTable | None = None,
    initial_state: ModelState | None = None,
):
    """Train with Adam on shuffled mini-batches; batch loss is the mean.

    Each mini-batch is one forward pass over the disjoint union of its
    examples' trees and one backward pass.

    Returns ``(model, log)``: the model trained, which is ``initial_state``
    when one is given (it is trained in place). With a dev set it holds the
    parameters of the epoch with the best dev accuracy (earliest epoch wins
    ties), otherwise those of the final epoch. The log holds one dict per
    epoch and split, including an epoch-0 entry for the untrained state. A
    batch or logged loss that is not finite raises ``TrainingDiverged``.
    Without a dev set, the final model's loss on the last mini-batch (one
    forward pass, no backward) must be finite as well, or a diverging last
    step would go unnoticed. An ``initial_state`` must hold
    ``config.hyperparams``, the ones the run trains with and the model it
    returns keeps; other ones raise ``ValueError``.

    The best epoch is kept as a snapshot, not as a copy of the model: of
    each parameter, the rows Adam has moved (``AdamState.rows``), which for
    the table are the rows the training set reaches. Every epoch visits
    every training example, so no row goes live after the first epoch, and
    the first snapshot is taken after it. ``_restore`` checks that, and
    raises ``RuntimeError`` rather than return a model whose later-moved
    rows it could not restore.
    """
    if not train_set:
        raise ValueError("training set is empty")
    config = config or TrainConfig()
    hp = config.hyperparams
    seeds = np.random.SeedSequence(config.seed).spawn(3)

    if initial_state is not None:
        if initial_state.hp != hp:
            raise ValueError(f"initial_state has hyperparameters {initial_state.hp}, the config {hp}")
        model = initial_state
    else:
        if table is None:
            table = data.build_random_table(train_set, dim=hp.hidden, seed=seeds[0])
        model = init_model_state(table, hp, seeds[1])

    adam = AdamState(learning_rate=config.learning_rate)
    shuffle_rng = np.random.default_rng(seeds[2])
    # Epoch 0 records the untrained state; later train entries are running
    # means over that epoch's own forward passes.
    log = [_log_entry(0, "train", evaluate(model, train_set))]
    if dev_set:
        log.append(_log_entry(0, "dev", evaluate(model, dev_set)))

    best = None
    best_score = -1.0
    order = np.arange(len(train_set))
    for epoch in range(1, config.epochs + 1):
        if config.shuffle:
            shuffle_rng.shuffle(order)
        golds, preds = [], []
        sums = {"div": 0.0, "const": 0.0, "pred": 0.0, "total": 0.0}
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            model.zero_grads()
            loss, trace = total_loss(batch, model)
            _check_finite(trace.losses.total, f"in epoch {epoch}")
            _tally(trace, golds, preds, sums)
            backward(loss)
            adam_step(model.parameters(), adam)
        means = {k: v / len(order) for k, v in sums.items()}
        log.append(_log_entry(epoch, "train", compute_metrics(golds, preds, means)))
        if dev_set:
            dev_metrics = evaluate(model, dev_set)
            log.append(_log_entry(epoch, "dev", dev_metrics))
            if dev_metrics.accuracy > best_score:
                best_score = dev_metrics.accuracy
                best = _snapshot(model, adam)

    if dev_set:
        _restore(adam, best)
        return model, log
    _check_finite(total_loss(batch, model)[1].losses.total, "on the last batch after the last step")
    return model, log


# ---------------------------------------------------------------------------
# ablation driver

ABLATION_VARIANTS: dict[str, dict] = {
    "full": {},
    "-Div": {"div_on": False},
    "-Con": {"con_on": False},
    "-Div-Con": {"div_on": False, "con_on": False},
    "-Gate": {"gate_on": False},
    "-Gate-Con": {"gate_on": False, "con_on": False},
    "GateDiv": {"gatediv_baseline": True},
}


@dataclass
class AblationResult:
    variant: str
    metrics: Metrics
    log: list[dict]


def run_ablations(
    train_set: list[Example],
    dev_set: list[Example],
    config: TrainConfig,
    table: EmbeddingTable | None = None,
    variants: list[str] | None = None,
) -> dict[str, AblationResult]:
    """Train each variant from identical seeded initial parameters.

    Gate-dependent weights are initialized for every variant (state-size
    parity) even where a variant never uses them.
    """
    if not train_set or not dev_set:
        raise ValueError("ablations need non-empty train and dev sets")
    names = list(ABLATION_VARIANTS) if variants is None else list(variants)
    for name in names:
        if name not in ABLATION_VARIANTS:
            raise ValueError(f"unknown ablation variant {name!r}")

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    if table is None:
        table = data.build_random_table(train_set, dim=config.hyperparams.hidden, seed=seeds[0])
    base = init_model_state(table, config.hyperparams, seeds[1])

    results: dict[str, AblationResult] = {}
    for name in names:
        hp_variant = replace(config.hyperparams, **ABLATION_VARIANTS[name])
        state = base.clone()
        state.hp = hp_variant
        config_variant = replace(config, hyperparams=hp_variant)
        model, log = train(train_set, dev_set, config_variant, initial_state=state)
        results[name] = AblationResult(variant=name, metrics=evaluate(model, dev_set), log=log)
    return results
