"""Adam optimizer with bias correction, operating on named parameter tensors.

A row of a matrix parameter is *live* once a backward pass has recorded it
in the parameter's ``grad_rows`` (see ``tensor``), or at once for every row
while that record is unknown. A row that has never been recorded has held
only the ``+0.0`` gradient that ``zero_grad`` left, so it keeps ``m = v = 0``
exactly, since ``b * 0`` and ``(1 - b) * 0`` are zeros (``+0.0`` after the
addition), and then the update ``p -= lr * 0 / (sqrt(0) + eps)`` subtracts
zero: every bit of ``p``, ``m`` and ``v`` stays as it was. So ``adam_step``
may skip such rows and still leave every array byte-equal to the dense
update. A recorded row whose gradient is exactly zero (also ``-0.0``) goes
through the same update as in the dense step, so treating it as live changes
nothing either. This needs a finite, non-negative learning rate, a finite,
positive epsilon and betas in [0, 1), which ``AdamState`` checks: otherwise
``0 * lr``, ``0 / eps`` or ``0 / bias`` need not be a positive zero.

When fewer than half the rows of a matrix are live, the step gathers the live
rows, updates the copy and writes it back; otherwise it updates the whole
arrays in place, as it always does for vectors and scalars. Below half, the
gathered step is the faster one, even counting the copies (measured on a
20 001 x 300 table). Each element goes through the
same operations in the same order either way, so the two paths round alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .tensor import Tensor


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus the shared step counter.

    The moments of a parameter are allocated once, on its first step, with
    ``np.zeros``, whose pages stay unmapped until written (2 MB pages for a
    large table). Unlike the gradient they are not put on 4 KB pages: they
    are freed when training ends, and the checkpoint written next reuses
    their pages. On a VM that hands idle memory back to its host, moving
    them to 4 KB pages made that save 1.5x slower (20 001 x 300 table).
    ``live_rows`` holds the live-row mask of each matrix parameter (see the
    module docstring).
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
    live_rows: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)))

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and non-negative")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")


def _update(p, g, m, v, state: AdamState, bias1: float, bias2: float) -> None:
    """``p``, ``m`` and ``v`` updated in place from ``g``.

    m_hat = m / bias1, v_hat = v / bias2 and
    p -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order in the two
    scratch arrays instead of one temporary per operation.
    """
    a, b = (w[: p.size].reshape(p.shape) for w in state.scratch)
    b1, b2 = state.beta1, state.beta2
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
    p -= a


def adam_step(params: Iterable[tuple[str, Tensor]], state: AdamState) -> None:
    """Apply one Adam update, reading gradients from each parameter tensor.

    Moment buffers are created on a parameter name's first step and must keep
    the parameter's shape afterwards. The step counter increases by exactly
    one. Rows of a matrix parameter that no backward pass has recorded yet
    are left alone, which changes no bit of the result (module docstring).
    """
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    for name, p in params:
        if p.grad is None:
            raise RuntimeError(f"parameter {name!r} has no gradient buffer")
        if p.grad.shape != p.data.shape:
            raise RuntimeError(f"parameter {name!r} gradient shape mismatch")
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros(p.data.shape)
            state.second_moment[name] = np.zeros(p.data.shape)
            if p.data.ndim == 2:
                state.live_rows[name] = np.zeros(p.data.shape[0], dtype=bool)
        m, v = state.first_moment[name], state.second_moment[name]
        if state.scratch.shape[1] < p.data.size:
            state.scratch = np.empty((2, p.data.size))

        live = state.live_rows.get(name)
        if live is not None and not live.all():
            live |= True if p.grad_rows is None else p.grad_rows
            rows = np.flatnonzero(live)
            if 2 * rows.size < live.size:
                part = [x[rows] for x in (p.data, p.grad, m, v)]
                _update(*part, state, bias1, bias2)
                p.data[rows], m[rows], v[rows] = part[0], part[2], part[3]
                continue
        _update(p.data, p.grad, m, v, state, bias1, bias2)
