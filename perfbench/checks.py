"""Correctness checks of one benchmark run, made outside every timed section.

``collect`` asks the program for the outputs the checks need; ``verify``
judges them and never calls the program. The split lets the self-test feed
``verify`` a deliberately corrupted copy of real outputs and see each check
fail. Every check compares against an independent computation (the numpy
oracle, finite differences, the saved model) or a property of the method,
never against stored figures.
"""

from __future__ import annotations

import numpy as np

import oracle
from absa_gcn import model as model_mod
from absa_gcn import tensor, trainer

ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-10
GRAD_STEPS = (1e-5, 1e-6, 1e-7)
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-9
SUM_TOL = 1e-12

CHECKS = (
    "oracle_forward",
    "oracle_accuracy",
    "directional_gradient",
    "checkpoint_identity",
    "reload_metrics",
    "loss_decreases",
    "probabilities_sum_to_one",
    "tree_scores_peak_on_aspect",
)


def _state_record(state) -> dict:
    named = [("embeddings", state.table.vectors), *state.named_tensors()]
    return {
        "hp": state.hp,
        "vocabulary": state.table.vocabulary,
        "dim": state.table.dim,
        "unk_index": state.table.unk_index,
        "tensors": {name: t.data for name, t in named},
        "trainable": {name: t.trainable for name, t in named},
    }


def _directional_terms(ex, state, rng) -> dict:
    """Analytic and finite-difference slopes of the total loss along one direction.

    Each parameter tensor gets a random direction of unit norm, so that a
    wrong gradient in any single tensor moves the inner product. A ReLU or
    max-pool switch inside a step spoils the central difference; the
    one-sided second-order differences stay valid on the side without the
    switch, so each step yields three estimates.
    """
    params = state.parameters()
    state.zero_grads()
    loss, _ = model_mod.total_loss(ex, state)
    tensor.backward(loss)
    directions = []
    for _, p in params:
        d = rng.standard_normal(p.data.shape)
        directions.append(d / np.linalg.norm(d))
    terms = {name: float(np.sum(p.grad * d)) for (name, p), d in zip(params, directions)}
    originals = [p.data.copy() for _, p in params]

    def loss_at(t):
        for (_, p), d, orig in zip(params, directions, originals):
            np.add(orig, t * d, out=p.data)
        return model_mod.total_loss(ex, state)[0].item()

    here = loss.item()
    numeric = []
    try:
        for h in GRAD_STEPS:
            up, up2, down, down2 = loss_at(h), loss_at(2 * h), loss_at(-h), loss_at(-2 * h)
            numeric += [
                (up - down) / (2 * h),
                (4 * up - up2 - 3 * here) / (2 * h),
                (3 * here - 4 * down + down2) / (2 * h),
            ]
    finally:
        for (_, p), orig in zip(params, originals):
            p.data[...] = orig
        state.zero_grads()
    return {"terms": terms, "numeric": numeric}


def collect(trained, loaded, log, metrics_memory, metrics_loaded, sample, grad_examples, seed) -> dict:
    """Run the program and the oracle on the inputs the checks need."""
    forward = []
    for ex in sample:
        _, trace = model_mod.total_loss(ex, trained)
        program = {
            "div": trace.losses.div,
            "const": trace.losses.const,
            "pred": trace.losses.pred,
            "total": trace.losses.total,
            "probs": trace.class_probs.data.copy(),
            "mod": trace.mod.data.copy(),
            "syn": np.array(trace.syn, dtype=np.float64),
        }
        forward.append(
            {
                "program": program,
                "oracle": oracle.forward(ex, trained),
                "span": (ex.aspect_from, ex.aspect_to),
                "gold": ex.label_index,
            }
        )
    rng = np.random.default_rng(seed)
    return {
        "forward": forward,
        "eval_accuracy": trainer.evaluate(trained, sample).accuracy,
        "gradient": [_directional_terms(ex, trained, rng) for ex in grad_examples],
        "saved": _state_record(trained),
        "loaded": _state_record(loaded),
        "metrics_memory": metrics_memory,
        "metrics_loaded": metrics_loaded,
        "log": log,
    }


# ---------------------------------------------------------------------------
# judging


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=ORACLE_RTOL, atol=ORACLE_ATOL))


def _oracle_forward(out) -> str | None:
    for i, item in enumerate(out["forward"]):
        for key, value in item["program"].items():
            if not _close(value, item["oracle"][key]):
                return f"sample {i}: {key} differs from the numpy oracle"
    return None


def _oracle_accuracy(out) -> str | None:
    hits = [int(np.argmax(item["oracle"]["probs"])) == item["gold"] for item in out["forward"]]
    expected = sum(hits) / len(hits)
    if out["eval_accuracy"] != expected:
        return f"evaluate accuracy {out['eval_accuracy']} != oracle argmax accuracy {expected}"
    return None


def _directional_gradient(out) -> str | None:
    for i, item in enumerate(out["gradient"]):
        analytic = sum(item["terms"].values())
        errors = [abs(analytic - n) - GRAD_RTOL * max(abs(analytic), abs(n)) for n in item["numeric"]]
        if min(errors) > GRAD_ATOL:
            return f"example {i}: analytic slope {analytic!r} vs finite differences {item['numeric']!r}"
    return None


def _checkpoint_identity(out) -> str | None:
    saved, loaded = out["saved"], out["loaded"]
    for key in ("hp", "vocabulary", "dim", "unk_index", "trainable"):
        if saved[key] != loaded[key]:
            return f"reloaded {key} differs"
    if saved["tensors"].keys() != loaded["tensors"].keys():
        return "reloaded tensor names differ"
    for name, a in saved["tensors"].items():
        b = loaded["tensors"][name]
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return f"reloaded tensor {name!r} is not bit-identical"
    return None


def _reload_metrics(out) -> str | None:
    if out["metrics_memory"] != out["metrics_loaded"]:
        return "evaluating the reloaded checkpoint gives other metrics"
    return None


def _loss_decreases(out) -> str | None:
    train_losses = [e["loss_total"] for e in out["log"] if e["split"] == "train"]
    if not train_losses[-1] < train_losses[0]:
        return f"final-epoch training loss {train_losses[-1]} is not below epoch 0 {train_losses[0]}"
    return None


def _probabilities(out) -> str | None:
    for i, item in enumerate(out["forward"]):
        for key in ("probs", "mod", "syn"):
            if abs(float(np.sum(item["program"][key])) - 1.0) > SUM_TOL:
                return f"sample {i}: {key} sums to {np.sum(item['program'][key])!r}"
    return None


def _tree_peak(out) -> str | None:
    for i, item in enumerate(out["forward"]):
        syn = item["program"]["syn"]
        start, end = item["span"]
        inside, outside = syn[start:end], np.concatenate([syn[:start], syn[end:]])
        if inside.min() != syn.max() or (outside.size and outside.max() >= inside.min()):
            return f"sample {i}: tree scores do not peak on the aspect span"
    return None


_JUDGES = {
    "oracle_forward": _oracle_forward,
    "oracle_accuracy": _oracle_accuracy,
    "directional_gradient": _directional_gradient,
    "checkpoint_identity": _checkpoint_identity,
    "reload_metrics": _reload_metrics,
    "loss_decreases": _loss_decreases,
    "probabilities_sum_to_one": _probabilities,
    "tree_scores_peak_on_aspect": _tree_peak,
}


def verify(out) -> dict[str, str | None]:
    """Check name -> None when it passes, else a one-line reason."""
    return {name: _JUDGES[name](out) for name in CHECKS}
