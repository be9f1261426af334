"""Spans for the traced run, recorded around the program's own functions.

``Tracer.install`` replaces each traced function by a wrapper in the module
(or class) through which its callers look it up, so that ``trainer.train``
calling ``total_loss`` or ``model.total_loss`` calling ``gcn_layer`` goes
through a span. Spans (name, start, end, parent) stay in memory and are
written out once, when the run ends. Self time is a span's duration minus the
durations of its child spans; calls in one thread nest, so the children never
overlap.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from absa_gcn import data, model, tensor, trainer

# (owner, attribute, span name). The owner is where the caller looks the name
# up: trainer.py imports total_loss, evaluate, adam_step from other modules.
TRACED = (
    (data, "parse_corpus", "data.parse_corpus"),
    (data, "load_embeddings", "data.load_embeddings"),
    (data, "build_random_table", "data.build_random_table"),
    (trainer, "train", "trainer.train"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "total_loss", "model.total_loss"),
    (model, "build_tree", "data.build_tree"),
    (model, "syntax_scores", "data.syntax_scores"),
    (model, "encode", "model.encode"),
    (model, "gcn_layer", "model.gcn_layer"),
    (model, "compute_gate", "model.compute_gate"),
    (model, "regulate", "model.regulate"),
    (model, "diversity_loss", "model.diversity_loss"),
    (model, "model_scores", "model.model_scores"),
    (model, "consistency_loss", "model.consistency_loss"),
    (model, "predict", "model.predict"),
    (model, "prediction_loss", "model.prediction_loss"),
    (model.ModelState, "clone", "model.clone"),
    (tensor.Tape, "backward", "tensor.backward"),
)


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own phases."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrapped(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)

        return traced

    def _traced_tape_trace(self, fn):
        def traced(cls, root):
            with self.span("tensor.trace"):
                tape = fn(cls, root)
            self.counts["tape_nodes"] += len(tape.entries)
            self.counts.update("nodes." + str(e.op) for e in tape.entries)
            return tape

        return classmethod(traced)

    def _traced_adam_step(self, fn):
        def traced(params, state):
            params = list(params)
            self.counts["params_updated"] += sum(p.data.size for _, p in params)
            with self.span("optim.adam_step"):
                return fn(params, state)

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        # A class keeps its own descriptor (classmethod), so restore exactly that.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in TRACED:
            self._patch(owner, attr, self._wrapped(getattr(owner, attr), name))
        self._patch(tensor.Tape, "trace", self._traced_tape_trace(tensor.Tape.__dict__["trace"].__func__))
        self._patch(trainer, "adam_step", self._traced_adam_step(trainer.adam_step))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def totals(self) -> dict[tuple[str, str], list[float]]:
        """(span name, enclosing benchmark phase) -> [total time, self time, calls].

        Spans opened inside ``trainer.train`` carry the phase ``train``; the
        others carry the name of the outermost span around them.
        """
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        phase = [""] * len(self.spans)
        out: dict[tuple[str, str], list[float]] = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[i]
                phase[i] = phase[parent]
            else:
                phase[i] = name
            if name == "trainer.train":
                phase[i] = "train"
        for i, (name, _, _, _) in enumerate(self.spans):
            entry = out.setdefault((name, phase[i]), [0.0, 0.0, 0])
            entry[0] += durations[i]
            entry[1] += durations[i] - child_time[i]
            entry[2] += 1
        return out
