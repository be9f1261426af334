"""Workloads, their seeded inputs, and one measured run of the program.

A run does what a user of ``absa-gcn`` does, through the package's public
functions: set up from corpus (and embedding) files, train with a dev set,
evaluate a held-out split, save and reload the checkpoint. Inputs come from
this file's own generator, never from ``absa_gcn.synthetic``, so a change to
the program cannot change a workload.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

import checks
from absa_gcn import data, model, trainer

CUES = {
    "positive": ("good", "great", "tasty"),
    "neutral": ("okay", "average", "plain"),
    "negative": ("bad", "awful", "bland"),
}
ASPECT_WORDS = ("food", "service", "price", "staff", "menu", "drinks", "place", "music")
ORACLE_SAMPLE = 12
GRADIENT_EXAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    hidden: int
    # Sentence lengths, cycled over each split and then shuffled: every seed
    # gets the same multiset of lengths, hence the same amount of work.
    lengths: tuple[int, ...]
    aspects: int  # aspects per sentence; two make a contrastive pair of examples
    span_max: int  # longest aspect span in tokens
    fillers: int  # words that are neither aspects nor cues
    sentences: tuple[int, int, int]  # train, dev, test
    epochs: int
    embedding: tuple[int, int] | None = None  # (rows, dim) of an embedding file
    batch_size: int = 32
    learning_rate: float = 0.001


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short-h50",
            hidden=50,
            lengths=(8,),
            aspects=2,
            span_max=1,
            fillers=24,
            sentences=(96, 32, 512),
            epochs=3,
        ),
        Workload(
            name="long-h200",
            hidden=200,
            lengths=tuple(range(40, 81, 4)),
            aspects=1,
            span_max=2,
            fillers=3000,
            sentences=(48, 24, 160),
            epochs=2,
        ),
        Workload(
            name="bigvocab-h200",
            hidden=200,
            lengths=tuple(range(10, 31, 2)),
            aspects=1,
            span_max=2,
            fillers=20000 - len(ASPECT_WORDS) - 3 * len(CUES),
            sentences=(48, 24, 800),
            epochs=2,
            embedding=(20000, 300),
        ),
    )
}


def tiny(spec: Workload) -> Workload:
    """The same workload at a size that runs in about a second, for the self-test."""
    fillers = min(spec.fillers, 40)
    embedding = None if spec.embedding is None else (fillers + len(ASPECT_WORDS) + 3 * len(CUES), 16)
    return replace(
        spec,
        hidden=8,
        lengths=spec.lengths[:3],
        fillers=fillers,
        sentences=(12, 6, 6),
        epochs=2,
        embedding=embedding,
        batch_size=4,
        learning_rate=0.02,
    )


# ---------------------------------------------------------------------------
# input generation


def _random_tree(rng, n: int) -> list[int]:
    """Random recursive tree: each token in a shuffled order hangs off an earlier one."""
    order = rng.permutation(n)
    heads = [-1] * n
    for pos in range(1, n):
        heads[int(order[pos])] = int(order[rng.integers(pos)])
    return heads


def _place_aspects(rng, heads, spec: Workload):
    """Aspect spans with a cue word next to each in the tree, or None to retry.

    In a contrastive sentence no cue touches the other aspect, so the label of
    each example follows from its own aspect's tree neighbour.
    """
    n = len(heads)
    adj = [set() for _ in range(n)]
    for i, h in enumerate(heads):
        if h != -1:
            adj[i].add(h)
            adj[h].add(i)
    used: set[int] = set()
    spans, cues = [], []
    for _ in range(spec.aspects):
        length = int(rng.integers(1, spec.span_max + 1))
        start = int(rng.integers(0, n - length + 1))
        span = set(range(start, start + length))
        near = sorted(set().union(*(adj[i] for i in span)) - span - used)
        if span & used or not near:
            return None
        cue = near[int(rng.integers(len(near)))]
        spans.append((start, start + length))
        cues.append(cue)
        used |= span | {cue}
    for k, cue in enumerate(cues):
        for m, (start, end) in enumerate(spans):
            if m != k and adj[cue] & set(range(start, end)):
                return None
    return spans, cues


def _sentence(rng, n: int, spec: Workload) -> list[dict]:
    while True:
        heads = _random_tree(rng, n)
        placed = _place_aspects(rng, heads, spec)
        if placed is not None:
            break
    spans, cues = placed
    labels = list(CUES)
    chosen = rng.choice(len(labels), size=spec.aspects, replace=False)
    tokens = [f"w{int(j)}" for j in rng.integers(spec.fillers, size=n)]
    for (start, end), cue, label_idx in zip(spans, cues, chosen):
        for i in range(start, end):
            tokens[i] = ASPECT_WORDS[int(rng.integers(len(ASPECT_WORDS)))]
        words = CUES[labels[label_idx]]
        tokens[cue] = words[int(rng.integers(len(words)))]
    return [
        {"tokens": tokens, "heads": heads, "aspect_from": start, "aspect_to": end, "label": labels[label_idx]}
        for (start, end), label_idx in zip(spans, chosen)
    ]


def generate(spec: Workload, seed: int, directory: str) -> dict[str, str]:
    """Write the workload's corpus splits (and embedding file) for ``seed``."""
    streams = np.random.SeedSequence([seed, zlib.crc32(spec.name.encode())]).spawn(4)
    paths = {}
    for split, count, stream in zip(("train", "dev", "test"), spec.sentences, streams):
        rng = np.random.default_rng(stream)
        lengths = rng.permutation([spec.lengths[i % len(spec.lengths)] for i in range(count)])
        path = os.path.join(directory, f"{split}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for n in lengths:
                for example in _sentence(rng, int(n), spec):
                    fh.write(json.dumps(example) + "\n")
        paths[split] = path
    if spec.embedding is not None:
        rows, dim = spec.embedding
        words = [w for ws in CUES.values() for w in ws] + list(ASPECT_WORDS)
        words += [f"w{j}" for j in range(rows - len(words))]
        vectors = np.random.default_rng(streams[3]).uniform(-0.1, 0.1, size=(rows, dim))
        row_format = " ".join(["%.6f"] * dim)
        path = os.path.join(directory, "embeddings.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for word, vec in zip(words, vectors):
                fh.write(f"{word} {row_format % tuple(vec)}\n")
        paths["embeddings"] = path
    return paths


# ---------------------------------------------------------------------------
# the measured run


@dataclass
class Result:
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    attempted: int
    check_failures: dict[str, str]  # check name -> why it failed
    check_outputs: dict

    @property
    def failed(self) -> int:
        return len(self.check_failures)


def _setup(spec: Workload, paths: dict, seed: int):
    """What a user's run does before training: parse, build or load the table, init."""
    streams = np.random.SeedSequence([seed, zlib.crc32(spec.name.encode()), 1]).spawn(2)
    train_set = data.parse_corpus(paths["train"])
    dev_set = data.parse_corpus(paths["dev"])
    test_set = data.parse_corpus(paths["test"])
    hp = model.HyperParams(hidden=spec.hidden)
    if spec.embedding is not None:
        table = data.load_embeddings(paths["embeddings"], trainable=True)
    else:
        table = data.build_random_table(train_set, dim=spec.hidden, seed=streams[0])
    state = trainer.init_model_state(table, hp, streams[1])
    return train_set, dev_set, test_set, state


def run(spec: Workload, seed: int, seconds: float, workdir: str, tracer=None, min_rounds: int = 3) -> Result:
    """Repeat whole rounds for ``seconds``, then check the last round's outputs.

    A round is what one user run does: set up, train, evaluate the held-out
    split, save and reload the checkpoint, evaluate the reloaded model. Every
    metric is a median over the rounds, so each one samples the whole run
    rather than one stretch of it.
    """
    phase = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    paths = generate(spec, seed, workdir)
    checkpoint = os.path.join(workdir, "checkpoint.json")
    samples: dict[str, list[float]] = {k: [] for k in ("setup", "train", "eval", "save", "load")}
    rounds = 0
    if tracer is not None:
        tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        while rounds < min_rounds or time.perf_counter() < deadline:
            initial = trained = loaded = None  # free the last round's models before building new ones
            # Each timed section starts from a collected heap, so the garbage of
            # the section before it is not charged to it.
            gc.collect()
            with phase("bench.setup"):
                start = time.perf_counter()
                train_set, dev_set, test_set, initial = _setup(spec, paths, seed)
                samples["setup"].append(time.perf_counter() - start)
            config = trainer.TrainConfig(
                epochs=spec.epochs,
                batch_size=spec.batch_size,
                learning_rate=spec.learning_rate,
                seed=seed,
                hyperparams=initial.hp,
            )
            gc.collect()
            with phase("bench.round"):
                start = time.perf_counter()
                trained, log = trainer.train(train_set, dev_set, config, initial_state=initial)
                samples["train"].append(spec.epochs * len(train_set) / (time.perf_counter() - start))
                gc.collect()
                start = time.perf_counter()
                metrics_memory = trainer.evaluate(trained, test_set)
                samples["eval"].append(len(test_set) / (time.perf_counter() - start))
            gc.collect()
            with phase("bench.checkpoint"):
                start = time.perf_counter()
                model.save_checkpoint(checkpoint, trained)
                samples["save"].append(time.perf_counter() - start)
                gc.collect()
                start = time.perf_counter()
                loaded = model.load_checkpoint(checkpoint)
                samples["load"].append(time.perf_counter() - start)
            # The reloaded model is evaluated on the held-out split as well: a
            # second sample of the evaluation rate, and the reload check's input.
            gc.collect()
            with phase("bench.round"):
                start = time.perf_counter()
                metrics_loaded = trainer.evaluate(loaded, test_set)
                samples["eval"].append(len(test_set) / (time.perf_counter() - start))
            rounds += 1
        checkpoint_bytes = os.path.getsize(checkpoint)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = checks.collect(
        trained,
        loaded,
        log,
        metrics_memory,
        metrics_loaded,
        test_set[:ORACLE_SAMPLE],
        train_set[:GRADIENT_EXAMPLES],
        seed,
    )
    failures = {name: why for name, why in checks.verify(outputs).items() if why is not None}

    steps_per_round = spec.epochs * -(-len(train_set) // spec.batch_size)
    attempted = rounds * (steps_per_round + 2 * len(test_set) + 2) + len(checks.CHECKS)
    end_to_end = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "train_examples_per_s": (statistics.median(samples["train"]), "1/s"),
        "eval_examples_per_s": (statistics.median(samples["eval"]), "1/s"),
        "checkpoint_save_s": (statistics.median(samples["save"]), "s"),
        "checkpoint_load_s": (statistics.median(samples["load"]), "s"),
        "checkpoint_bytes": (float(checkpoint_bytes), "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = {}
    if tracer is not None:
        per_layer = layer_metrics(tracer, rounds, rounds * spec.epochs * len(train_set))
    return Result(end_to_end, per_layer, attempted, failures, outputs)


# Op kinds the default model records on the tape, in the order of total_loss.
TAPE_OPS = (
    "gather_rows",
    "mean_rows",
    "maxpool_rows",
    "matvec",
    "add",
    "tanh",
    "segment_mean_rows",
    "transpose",
    "matmul",
    "relu",
    "sigmoid",
    "mul",
    "concat",
    "softmax",
    "dot",
    "clamp_min",
    "log",
    "scale",
    "add_n",
)


def layer_metrics(tracer, rounds: int, train_examples: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run.

    Times and call counts are per round, tape counts per training example.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def total(names, phases=("train", "bench.round"), column=0):
        return sum(totals.get((n, p), (0.0, 0.0, 0))[column] for n in names for p in phases)

    def per_round(*names, phases=("train", "bench.round"), column=0):
        return (total(names, phases, column) / rounds, "s")

    adam_calls = total(["optim.adam_step"], column=2)
    metrics = {
        "tensor.trace_s": per_round("tensor.trace"),
        "tensor.backward_s": per_round("tensor.backward"),
        "tensor.tape_nodes": (counts["tape_nodes"] / train_examples, "count"),
    }
    for op in TAPE_OPS:
        metrics[f"tensor.nodes.{op}"] = (counts[f"nodes.{op}"] / train_examples, "count")
    metrics.update(
        {
            "model.total_loss_s": per_round("model.total_loss"),
            "model.total_loss_calls": (total(["model.total_loss"], column=2) / rounds, "count"),
            "model.total_loss_self_s": per_round("model.total_loss", column=1),
            "model.gcn_layer_s": per_round("model.gcn_layer"),
            "model.scores_s": per_round("model.model_scores", "model.consistency_loss"),
            "data.build_tree_s": per_round("data.build_tree"),
            "data.syntax_scores_s": per_round("data.syntax_scores"),
            "model.encode_s": per_round("model.encode"),
            "model.gate_s": per_round("model.compute_gate", "model.regulate"),
            "model.diversity_loss_s": per_round("model.diversity_loss"),
            "model.classifier_s": per_round("model.predict", "model.prediction_loss"),
            "optim.adam_step_s": per_round("optim.adam_step"),
            "optim.adam_step_calls": (adam_calls / rounds, "count"),
            "optim.params_updated": (counts["params_updated"] / adam_calls, "count"),
            "model.clone_s": per_round("model.clone", phases=("train",)),
            "trainer.evaluate_s": per_round("trainer.evaluate", phases=("train",)),
            "trainer.train_s": per_round("trainer.train", phases=("train",)),
            "trainer.train_self_s": per_round("trainer.train", phases=("train",), column=1),
            "data.parse_corpus_s": per_round("data.parse_corpus", phases=("bench.setup",)),
            "data.table_s": per_round("data.load_embeddings", "data.build_random_table", phases=("bench.setup",)),
        }
    )
    return metrics
