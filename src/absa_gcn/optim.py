"""Adam optimizer with bias correction, operating on named parameter tensors.

Every parameter is updated as rows, through a reshaped view: a matrix's
rows, a vector's entries, a scalar's one value (``as_rows``). A row is
*live* once a backward pass has recorded it in the parameter's
``grad_rows`` (see ``tensor``), or at once for every row while that record
is unknown. A row that has never been recorded has held only the ``+0.0``
gradient that ``zero_grad`` left, so its moments would be ``m = v = 0``
exactly, since ``b * 0`` and ``(1 - b) * 0`` are zeros (``+0.0`` after the
addition), and then the update ``p -= lr * 0 / (sqrt(0) + eps)`` subtracts
zero: every bit of ``p`` stays as it was. So ``adam_step`` skips such rows
and keeps no moments for them, and every array still comes out byte-equal
to the dense update of all rows. A recorded row whose gradient is exactly
zero (also ``-0.0``) goes through the same update as in the dense step, so
treating it as live changes nothing either. This needs a finite,
non-negative learning rate, a finite, positive epsilon and betas in [0, 1),
which ``AdamState`` checks: otherwise ``0 * lr``, ``0 / eps`` or ``0 / bias``
need not be a positive zero.

When every row is live, as for the dense weights and biases, whose first
backward pass records every row, the step updates the parameter and the
moments in place. Otherwise it gathers the live rows of the parameter and
its gradient, updates them against the moments and writes them back. Each
element goes through the same operations in the same order either way, so
the two forms round alike.
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

    ``rows[name]`` holds the live rows of parameter ``name`` (rows of
    ``as_rows``), sorted; a new array replaces it when rows go live, so an
    array read earlier stays as it was. ``first_moment`` and
    ``second_moment`` hold the moments of those rows, one row each, in the
    same order, and nothing else. So a table of which a training set
    reaches a few hundred rows keeps moments for those rows only, and a
    parameter no backward pass reaches keeps none. ``scratch`` holds the two
    work arrays of an update, kept across steps and sized to the largest
    update so far.
    """

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    rows: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)))

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and non-negative")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")


def as_rows(a: np.ndarray) -> np.ndarray:
    """``a`` viewed as rows: a matrix as it is, a vector as one entry per row, a scalar as one row."""
    return a.reshape(-1, 1) if a.ndim < 2 else a


def _update(p, g, m, v, state: AdamState, bias1: float, bias2: float) -> None:
    """``p``, ``m`` and ``v`` updated in place from ``g``.

    m_hat = m / bias1, v_hat = v / bias2 and
    p -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order in the two
    scratch arrays instead of one temporary per operation.
    """
    if state.scratch.shape[1] < p.size:
        state.scratch = np.empty((2, p.size))
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


def _live_rows(name: str, p: Tensor, count: int, width: int, state: AdamState) -> np.ndarray:
    """The live rows of ``p``, sorted; the moments are rebuilt with +0.0 for rows newly recorded."""
    rows = state.rows.get(name)
    if rows is None:
        rows = state.rows[name] = np.empty(0, dtype=np.intp)
        state.first_moment[name] = np.zeros((0, width))
        state.second_moment[name] = np.zeros((0, width))
    if rows.size == count:
        return rows
    recorded = np.ones(count, dtype=bool) if p.grad_rows is None else p.grad_rows.reshape(-1).copy()
    recorded[rows] = True
    live = np.flatnonzero(recorded)
    if live.size > rows.size:
        at = np.searchsorted(live, rows)
        for moments in (state.first_moment, state.second_moment):
            grown = np.zeros((live.size, width))
            grown[at] = moments[name]
            moments[name] = grown
        rows = state.rows[name] = live
    return rows


def adam_step(params: Iterable[tuple[str, Tensor]], state: AdamState) -> None:
    """Apply one Adam update, reading gradients from each parameter tensor.

    Moment buffers are created on a parameter name's first step, and the
    parameter must keep its shape afterwards. The step counter increases by
    exactly one. Rows that no backward pass has recorded yet are left alone
    and get no moments, which changes no bit of the result (module
    docstring).
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
        data, grad = as_rows(p.data), as_rows(p.grad)
        rows = _live_rows(name, p, *data.shape, state)
        m, v = state.first_moment[name], state.second_moment[name]
        if rows.size == data.shape[0]:
            _update(data, grad, m, v, state, bias1, bias2)
        else:
            part = data[rows]
            _update(part, grad[rows], m, v, state, bias1, bias2)
            data[rows] = part
