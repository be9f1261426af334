"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation returns a fresh :class:`Tensor` that remembers its parent
tensors and a backward closure. ``Tape.trace`` linearizes the graph that is
reachable from a root into an order where inputs always precede the
operations consuming them, and ``backward`` walks that tape once in reverse,
accumulating gradients into trainable leaves.

One operation writes into a leaf's gradient itself: ``gather_rows`` on a
leaf adds the gradient of the rows it gathered straight into that leaf's
``grad`` (nothing for a frozen leaf) and hands the tape nothing to add, so a
lookup into a large embedding table costs work in proportion to the rows it
touched, not to the table. Every other operation, including ``gather_rows``
on an operation's output, returns dense gradients for the tape to add.

Supported shapes are scalars ``()``, vectors ``(n,)`` and matrices ``(n, d)``.
The only broadcasting rule is a vector combined row-wise with a matrix; this
keeps every backward rule small enough to audit by hand.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes cannot be combined."""


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop.

    ``grad`` is allocated eagerly for trainable tensors so that parameters
    never touched by a backward pass still report an all-zero gradient. It
    comes from ``np.zeros``, whose pages stay unmapped until first written,
    so a model that is only evaluated keeps no resident gradient memory.
    ``tape_id`` is assigned when the tensor is recorded on a tape and orders
    the operations topologically.
    """

    __slots__ = ("data", "grad", "trainable", "tape_id", "op", "parents", "_backward")

    def __init__(self, values, trainable: bool = False):
        data = np.asarray(values, dtype=np.float64)
        if data.size == 0:
            raise DimensionError("tensor must be non-empty, got shape %r" % (data.shape,))
        self.data = data
        self.grad = np.zeros(data.shape) if trainable else None
        self.trainable = trainable
        self.tape_id: int | None = None
        self.op: str | None = None
        self.parents: tuple["Tensor", ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        kind = self.op or ("param" if self.trainable else "const")
        return f"Tensor({kind}, shape={self.shape})"


def _record(data: np.ndarray, op: str, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    out.op = op
    out.parents = tuple(parents)
    out._backward = backward
    return out


class Tape:
    """Topologically ordered record of the operations reachable from a root.

    ``entries`` lists operation outputs in an order where every operation's
    inputs appear earlier; the backward pass visits each entry exactly once
    in reverse. A backward closure returns one gradient per parent, or
    ``None`` for a parent it has nothing to add to: the tape adds a returned
    gradient into a pending buffer (operation outputs) or into ``grad``
    (trainable leaves). ``gather_rows`` on a leaf returns ``None`` because it
    has already added its rows into the leaf's ``grad`` itself.
    """

    def __init__(self, entries: list[Tensor]):
        self.entries = entries

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        entries: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in visited:
                continue
            if expanded:
                visited.add(id(node))
                if node.op is not None:
                    node.tape_id = len(entries)
                    entries.append(node)
            else:
                stack.append((node, True))
                for parent in node.parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))
        return cls(entries)

    def backward(self, root: Tensor) -> None:
        pending: dict[int, np.ndarray] = {id(root): np.ones((), dtype=np.float64)}
        if root.trainable:
            root.grad += 1.0
        for out in reversed(self.entries):
            grad_out = pending.pop(id(out), None)
            if grad_out is None:
                continue
            for parent, grad in zip(out.parents, out._backward(grad_out)):
                if grad is None:
                    continue
                if parent.op is not None:
                    buf = pending.get(id(parent))
                    if buf is None:
                        pending[id(parent)] = np.array(grad, dtype=np.float64)
                    else:
                        buf += grad
                elif parent.trainable:
                    parent.grad += grad


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(theta) into every trainable tensor feeding loss."""
    if loss.shape != ():
        raise ValueError("backward expects a scalar loss, got shape %r" % (loss.shape,))
    Tape.trace(loss).backward(loss)


# ---------------------------------------------------------------------------
# binary and unary elementwise operations


def _row_broadcastable(a: Tensor, b: Tensor) -> bool:
    return a.data.ndim == 2 and b.data.ndim == 1 and b.shape[0] == a.shape[1]


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        back = lambda g: (g, g)
    elif _row_broadcastable(a, b):
        back = lambda g: (g, g.sum(axis=0))
    else:
        raise DimensionError(f"cannot add shapes {a.shape} and {b.shape}")
    return _record(a.data + b.data, "add", (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        back = lambda g: (g, -g)
    elif _row_broadcastable(a, b):
        back = lambda g: (g, -g.sum(axis=0))
    else:
        raise DimensionError(f"cannot subtract shapes {a.shape} and {b.shape}")
    return _record(a.data - b.data, "sub", (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        back = lambda g: (g * b.data, g * a.data)
    elif _row_broadcastable(a, b):
        back = lambda g: (g * b.data, (g * a.data).sum(axis=0))
    else:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return _record(a.data * b.data, "mul", (a, b), back)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _record(a.data * factor, "scale", (a,), lambda g: (g * factor,))


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of identically shaped tensors."""
    if not tensors:
        raise ValueError("add_n needs at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise DimensionError(f"add_n shapes differ: {shape} vs {t.shape}")
    total = tensors[0].data.copy()
    for t in tensors[1:]:
        total += t.data
    n = len(tensors)
    return _record(total, "add_n", tensors, lambda g: (g,) * n)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    # exp only ever sees non-positive arguments, so it cannot overflow
    x = a.data
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _record(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _record(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log requires strictly positive entries")
    return _record(np.log(a.data), "log", (a,), lambda g: (g / a.data,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    mask = a.data >= floor
    return _record(np.where(mask, a.data, floor), "clamp_min", (a,), lambda g: (g * mask,))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise ValueError("sqrt requires non-negative entries")
    out = np.sqrt(a.data)
    return _record(out, "sqrt", (a,), lambda g: (g / (2.0 * out),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul needs (m,k) x (k,n), got {a.shape} and {b.shape}")
    back = lambda g: (g @ b.data.T, a.data.T @ g)
    return _record(a.data @ b.data, "matmul", (a, b), back)


def matvec(a: Tensor, x: Tensor) -> Tensor:
    if a.data.ndim != 2 or x.data.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"matvec needs (m,k) x (k,), got {a.shape} and {x.shape}")
    back = lambda g: (np.outer(g, x.data), a.data.T @ g)
    return _record(a.data @ x.data, "matvec", (a, x), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose needs a matrix, got shape {a.shape}")
    return _record(a.data.T.copy(), "transpose", (a,), lambda g: (g.T,))


# ---------------------------------------------------------------------------
# reductions and reshaping


def softmax(a: Tensor) -> Tensor:
    """Probability vector via max-shifted exponentials (overflow-safe)."""
    if a.data.ndim != 1:
        raise DimensionError(f"softmax needs a vector, got shape {a.shape}")
    z = a.data - a.data.max()
    e = np.exp(z)
    out = e / e.sum()

    def back(g):
        return (out * (g - float(g @ out)),)

    return _record(out, "softmax", (a,), back)


def maxpool_rows(a: Tensor) -> Tensor:
    """Column-wise maximum over the rows of a matrix.

    The backward pass routes each column's gradient to the first row
    attaining the maximum, which makes tie handling deterministic.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"maxpool_rows needs a matrix, got shape {a.shape}")
    cols = np.arange(a.shape[1])
    argmax = np.argmax(a.data, axis=0)
    out = a.data[argmax, cols]

    def back(g):
        grad = np.zeros_like(a.data)
        grad[argmax, cols] = g
        return (grad,)

    return _record(out, "maxpool_rows", (a,), back)


def mean_rows(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"mean_rows needs a matrix, got shape {a.shape}")
    n = a.shape[0]

    def back(g):
        return (np.tile(g / n, (n, 1)),)

    return _record(a.data.mean(axis=0), "mean_rows", (a,), back)


def sum_all(a: Tensor) -> Tensor:
    def back(g):
        return (np.full_like(a.data, float(g)),)

    return _record(np.asarray(a.data.sum()), "sum", (a,), back)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"dot needs equal-length vectors, got {a.shape} and {b.shape}")
    back = lambda g: (g * b.data, g * a.data)
    return _record(np.asarray(a.data @ b.data), "dot", (a, b), back)


def concat(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise DimensionError(f"concat needs vectors, got {a.shape} and {b.shape}")
    split = a.shape[0]
    back = lambda g: (g[:split], g[split:])
    return _record(np.concatenate([a.data, b.data]), "concat", (a, b), back)


def gather_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a matrix; gradients scatter-add back to the source.

    On a leaf the backward pass sums the gradients of repeated indices into
    one row each, adds those rows into ``a.grad`` (and does nothing for a
    frozen leaf), and returns no gradient for the tape. The sums run in
    index order, as a dense ``np.add.at`` would, so ``a.grad`` ends up
    bit-identical to adding a dense scatter of the whole table (but for the
    sign of a zero in an untouched row, which adding ``+0.0`` would clear).
    On an operation's output it returns that dense scatter.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"gather_rows needs a matrix, got shape {a.shape}")
    idx = list(int(i) for i in indices)
    if not idx:
        raise ValueError("gather_rows needs at least one row index")
    for i in idx:
        if not 0 <= i < a.shape[0]:
            raise ValueError(f"row index {i} out of range for {a.shape[0]} rows")

    if a.op is None:

        def back(g):
            if a.trainable:
                slot: dict[int, int] = {}
                inverse = [slot.setdefault(i, len(slot)) for i in idx]
                summed = np.zeros((len(slot), g.shape[1]))
                np.add.at(summed, inverse, g)
                a.grad[list(slot)] += summed
            return (None,)

    else:

        def back(g):
            grad = np.zeros_like(a.data)
            np.add.at(grad, idx, g)
            return (grad,)

    return _record(a.data[idx], "gather_rows", (a,), back)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix."""
    if not rows:
        raise ValueError("stack_rows needs at least one row")
    width = rows[0].shape
    for r in rows:
        if r.data.ndim != 1 or r.shape != width:
            raise DimensionError(f"stack_rows rows must share shape {width}, got {r.shape}")
    n = len(rows)

    def back(g):
        return tuple(g[i] for i in range(n))

    return _record(np.stack([r.data for r in rows]), "stack_rows", rows, back)


def segment_mean_rows(a: Tensor, groups: Sequence[Sequence[int]]) -> Tensor:
    """Row i of the result is the mean of a's rows named by ``groups[i]``.

    Equivalent to stacking ``mean_rows(gather_rows(a, g))`` per group, fused
    into one operation: groups are flattened to an edge list once and both
    passes run as a single gather plus scatter-add.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"segment_mean_rows needs a matrix, got shape {a.shape}")
    if not groups:
        raise ValueError("segment_mean_rows needs at least one group")
    counts = np.empty(len(groups), dtype=np.float64)
    flat: list[int] = []
    for i, group in enumerate(groups):
        if len(group) == 0:
            raise ValueError(f"group {i} is empty")
        counts[i] = len(group)
        flat.extend(group)
    members = np.asarray(flat, dtype=np.intp)
    if members.min() < 0 or members.max() >= a.shape[0]:
        raise ValueError(f"row index out of range for {a.shape[0]} rows")
    owners = np.repeat(np.arange(len(groups), dtype=np.intp), counts.astype(np.intp))

    out = np.zeros((len(groups), a.shape[1]))
    np.add.at(out, owners, a.data[members])
    out /= counts[:, None]

    def back(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, members, (g / counts[:, None])[owners])
        return (grad,)

    return _record(out, "segment_mean_rows", (a,), back)


# ---------------------------------------------------------------------------
# kind-dispatching wrappers

_ELEMENTWISE_BINARY = {"add": add, "mul": mul, "sub": sub}
_ELEMENTWISE_UNARY = {"relu": relu, "sigmoid": sigmoid, "tanh": tanh, "log": log}


def elementwise(kind: str, a: Tensor, b: Tensor | None = None) -> Tensor:
    """Dispatch an elementwise operation by kind name."""
    if kind in _ELEMENTWISE_BINARY:
        if b is None:
            raise ValueError(f"elementwise {kind!r} needs two operands")
        return _ELEMENTWISE_BINARY[kind](a, b)
    if kind in _ELEMENTWISE_UNARY:
        if b is not None:
            raise ValueError(f"elementwise {kind!r} takes one operand")
        return _ELEMENTWISE_UNARY[kind](a)
    raise ValueError(f"unknown elementwise kind {kind!r}")


def reduce(kind: str, *args) -> Tensor:
    """Dispatch a reduction/reshaping operation by kind name."""
    table: dict[str, Callable[..., Tensor]] = {
        "maxpool_rows": maxpool_rows,
        "mean_rows": mean_rows,
        "sum": sum_all,
        "dot": dot,
        "concat": concat,
    }
    if kind not in table:
        raise ValueError(f"unknown reduce kind {kind!r}")
    return table[kind](*args)
