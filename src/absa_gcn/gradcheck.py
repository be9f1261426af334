"""Central-difference gradient verification for the whole model.

The numeric side only ever calls the forward pass, so it stays independent
of every backward rule it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Example, build_random_table
from .model import HyperParams, ModelState, require_memory, total_loss
from .synthetic import random_tree_heads
from .tensor import Tensor, backward

# The model the check differences: small enough to nudge every coordinate.
CHECK_HYPERPARAMS = HyperParams(hidden=8)


def numeric_gradient(fn, tensor: Tensor, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``fn()`` with respect to one tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()  # view: in-place nudges reach the live parameter
    out = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = fn()
        flat[i] = keep - step
        down = fn()
        flat[i] = keep
        out[i] = (up - down) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / scale


@dataclass
class GradCheckReport:
    tolerance: float
    max_relative_error: float = 0.0
    worst_parameter: str = ""
    worst_index: int = 0
    per_parameter: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Every parameter's error is below the tolerance, which a NaN error is not."""
        return all(err < self.tolerance for err in self.per_parameter.values())

    def lines(self) -> list[str]:
        out = [
            f"{'PASS' if err < self.tolerance else 'FAIL'}  {name:<18} max rel err {err:.3e}"
            for name, err in self.per_parameter.items()
        ]
        out.append(
            f"worst: {self.worst_parameter}[{self.worst_index}] "
            f"rel err {self.max_relative_error:.3e} (tolerance {self.tolerance:.1e})"
        )
        return out


def build_check_setup(
    seed: int = 0, tokens: int = 5, embed_dim: int = 8, hp: HyperParams = CHECK_HYPERPARAMS
) -> tuple[Example, ModelState]:
    """A random example and model small enough to difference exhaustively.

    Weights and biases are drawn uniformly away from zero-crossing plateaus
    so ReLU kinks and pooling ties are vanishingly unlikely at the probe
    points. Pass ``hp`` to check an ablated, resized or reweighted variant.
    A negative seed, a size below 1, or a model (a table of one row per
    token and the unknown row) that ``require_memory`` refuses raises
    ``ValueError`` before anything is built.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for name, size in (("tokens", tokens), ("embed_dim", embed_dim)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    require_memory(hp, embed_dim, tokens + 1)
    rng = np.random.default_rng(seed)
    heads = random_tree_heads(tokens, rng)
    words = [f"w{i}" for i in range(tokens)]
    start = int(rng.integers(tokens))
    end = min(tokens, start + 1 + int(rng.integers(2)))
    label = ("positive", "neutral", "negative")[int(rng.integers(3))]
    ex = Example(tokens=words, heads=heads, aspect_from=start, aspect_to=end, label=label)

    table = build_random_table([ex], dim=embed_dim, seed=rng)
    state = ModelState.initialize(table, hp, rng, weight_scale=0.4, bias_scale=0.2)
    return ex, state


def check_model_gradients(
    ex: Example,
    state: ModelState,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    floor: float = 1e-3,
) -> GradCheckReport:
    """Compare one analytic backward pass against central differences.

    ``floor`` guards the relative-error denominator: coordinates whose
    gradient magnitude sits below it are compared near-absolutely, which
    keeps finite-difference noise from flagging healthy tiny gradients.
    """
    state.zero_grads()
    loss, _ = total_loss(ex, state)
    backward(loss)

    def forward() -> float:
        value, _ = total_loss(ex, state)
        return value.item()

    report = GradCheckReport(tolerance=tolerance)
    for name, param in state.parameters():
        numeric = numeric_gradient(forward, param, step=step)
        errors = relative_error(param.grad, numeric, floor=floor)
        worst = int(np.argmax(errors))
        report.per_parameter[name] = float(errors.ravel()[worst])
        if errors.ravel()[worst] > report.max_relative_error:
            report.max_relative_error = float(errors.ravel()[worst])
            report.worst_parameter = name
            report.worst_index = worst
    return report
