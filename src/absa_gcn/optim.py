"""Adam optimizer with bias correction, operating on named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .tensor import Tensor


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus the shared step counter.

    ``scratch`` holds the two work arrays of an update, kept across steps and
    sized to the largest parameter seen so far.
    """

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)))


def adam_step(params: Iterable[tuple[str, Tensor]], state: AdamState) -> None:
    """Apply one Adam update, reading gradients from each parameter tensor.

    Moment buffers are created lazily per parameter name and must keep the
    parameter's shape afterwards. The step counter increases by exactly one.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, p in params:
        if p.grad is None:
            raise RuntimeError(f"parameter {name!r} has no gradient buffer")
        if p.grad.shape != p.data.shape:
            raise RuntimeError(f"parameter {name!r} gradient shape mismatch")
        g = p.grad
        m = state.first_moment.setdefault(name, np.zeros_like(p.data))
        v = state.second_moment.setdefault(name, np.zeros_like(p.data))
        # m_hat = m / bias1, v_hat = v / bias2 and
        # p -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order in
        # the two scratch arrays instead of one temporary per operation.
        if state.scratch.shape[1] < p.data.size:
            state.scratch = np.empty((2, p.data.size))
        a, b = (row[: p.data.size].reshape(p.data.shape) for row in state.scratch)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v += a
        np.divide(m, bias1, out=a)
        a *= state.learning_rate
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += state.epsilon
        a /= b
        p.data -= a
