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

Each tensor records the gradient rows written since its last ``zero_grad``
in ``Tensor.grad_rows``: ``gather_rows`` marks the rows it wrote, and the
tape's dense add into a leaf marks every row. ``zero_grad`` clears only the
recorded rows, and the optimizer updates only rows ever recorded. A fresh
tensor's record is unknown (``None``), so every row counts as written and
``zero_grad`` swaps in a new zero buffer. That buffer lies on 4 KB pages of
its own anonymous map: numpy advises 2 MB pages for arrays of 4 MiB or more,
and a first write to one scattered row would map a whole one.

Supported shapes are scalars ``()``, vectors ``(n,)`` and matrices ``(n, d)``.
There is no broadcasting: the elementwise operations take operands of equal
shape, which keeps every backward rule small enough to audit by hand. The
one affine operation is ``linear``, ``x @ w.T + b`` with a bias vector added
to every row.

A mini-batch of sentences runs as one matrix whose rows are split into
contiguous segments, one per sentence, given by their first rows
(``starts``). The segment operations reduce within each segment:
``maxpool_rows`` (column-wise maximum) and ``segment_softmax`` (softmax of a
vector's entries). ``dot`` and ``concat`` work along the last axis, so on
matrices they act row by row; ``softmax_rows`` normalises each row and
``pick`` takes one entry per row, such as each example's gold-class
probability.

``segment_mean_rows`` averages the row groups of a ``RowGroups`` (the GCN's
tree neighbourhoods, the aspect spans) by one row gather per neighbour
position. Its backward pass is the same gather over the transposed groups;
a tree's neighbourhoods are symmetric, their own transpose, so there it
needs no scatter and no sort.
"""

from __future__ import annotations

import itertools
import math
import mmap
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

    ``grad_rows`` flags the rows of ``grad`` written since the last
    ``zero_grad`` (one flag per matrix row or vector entry, one for a
    scalar), or is ``None`` while unknown, as for a fresh tensor. Code that
    writes ``grad`` by hand after a ``zero_grad`` must mark its rows there,
    or the next ``zero_grad`` and the optimizer miss them.
    """

    __slots__ = ("data", "grad", "grad_rows", "trainable", "op", "parents", "_backward")

    def __init__(self, values, trainable: bool = False):
        data = np.asarray(values, dtype=np.float64)
        if data.size == 0:
            raise DimensionError("tensor must be non-empty, got shape %r" % (data.shape,))
        self.data = data
        self.grad = np.zeros(data.shape) if trainable else None
        self.grad_rows: np.ndarray | None = None
        self.trainable = trainable
        self.op: str | None = None
        self.parents: tuple["Tensor", ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Zeros in every written row of ``grad``, and an empty record."""
        if self.grad is None:
            return
        if self.grad_rows is None:
            self.grad = _zeros(self.data.shape)
            self.grad_rows = np.zeros(self.data.shape[:1], dtype=bool)
        else:
            # The tape's dense add marks every row, and a fill clears those faster than the mask does.
            if np.count_nonzero(self.grad_rows) == self.grad_rows.size:
                self.grad.fill(0.0)
            else:
                self.grad[self.grad_rows] = 0.0
            self.grad_rows[...] = False

    def __repr__(self) -> str:
        kind = self.op or ("param" if self.trainable else "const")
        return f"Tensor({kind}, shape={self.shape})"


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Float64 zeros on their own anonymous map, advised against huge pages where that advice exists."""
    buf = mmap.mmap(-1, 8 * math.prod(shape))
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def _add_dense(leaf: Tensor, grad) -> None:
    """``grad`` added into a trainable leaf's gradient, every row marked written."""
    leaf.grad += grad
    if leaf.grad_rows is not None:
        leaf.grad_rows[...] = True


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
            _add_dense(root, 1.0)
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
                    _add_dense(parent, grad)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(theta) into every trainable tensor feeding loss."""
    if loss.shape != ():
        raise ValueError("backward expects a scalar loss, got shape %r" % (loss.shape,))
    Tape.trace(loss).backward(loss)


# ---------------------------------------------------------------------------
# binary and unary elementwise operations


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"cannot add shapes {a.shape} and {b.shape}")
    return _record(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return _record(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


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
    # fmax picks the non-NaN operand, so a (quiet) NaN gives 0.0 as a select on a > 0 does; += 0.0 turns -0.0 into +0.0.
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _record(out, "relu", (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a: Tensor) -> Tensor:
    # exp only ever sees non-positive arguments, so it cannot overflow. Its
    # result z lies in [0, 1], so max(z, x >= 0) is exactly 1.0 where x >= 0
    # and z elsewhere (NaN stays NaN): the numerators of 1 / (1 + z) and
    # z / (1 + z) without a select, divided by the same 1 + z.
    x = a.data
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.maximum(z, x >= 0)
    z += 1.0
    out /= z
    return _record(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _record(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log requires strictly positive entries")
    return _record(np.log(a.data), "log", (a,), lambda g: (g / a.data,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """Entries below ``floor`` raised to it; a NaN stays NaN, so a loss built on it is not finite."""
    # maximum keeps a NaN, as a select on a < floor does, and on a tie returns its second operand, here a's zero
    # of either sign. The backward mask ~(a < floor) gives a NaN entry gradient 1.
    return _record(np.maximum(floor, a.data), "clamp_min", (a,), lambda g: (g * ~(a.data < floor),))


# ---------------------------------------------------------------------------
# linear algebra


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b``: each row of ``x`` (n, k) mapped by the weight ``w`` (m, k) plus the bias ``b`` (m,).

    ``w.T`` is copied to a C-contiguous array before either product. The
    copy fixes the operand layout BLAS sees, and with it the summation order
    and so every bit of the results.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.shape != w.shape[:1] or x.shape[1] != w.shape[1]:
        raise DimensionError(f"linear needs x (n, k), w (m, k) and b (m,), got {x.shape}, {w.shape} and {b.shape}")
    wt = w.data.T.copy()
    back = lambda g: (g @ wt.T, (x.data.T @ g).T, g.sum(axis=0))
    out = x.data @ wt
    out += b.data
    return _record(out, "linear", (x, w, b), back)


# ---------------------------------------------------------------------------
# reductions and reshaping


def softmax_rows(a: Tensor) -> Tensor:
    """Each row of a matrix turned into a probability vector via max-shifted exponentials."""
    if a.data.ndim != 2:
        raise DimensionError(f"softmax_rows needs a matrix, got shape {a.shape}")
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)

    def back(g):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return _record(out, "softmax_rows", (a,), back)


def _segments(rows: int, starts) -> tuple[np.ndarray, np.ndarray]:
    """Checked segment starts and the segment each of ``rows`` rows belongs to."""
    starts = np.asarray(starts, dtype=np.intp)
    rising = starts.ndim == 1 and starts.size and starts[0] == 0 and np.all(np.diff(starts) > 0)
    if not rising or starts[-1] >= rows:
        raise ValueError(f"segment starts must rise from 0 and stay below {rows}, got {starts.tolist()}")
    return starts, np.repeat(np.arange(starts.size), np.diff(starts, append=rows))


def maxpool_rows(a: Tensor, starts: Sequence[int]) -> Tensor:
    """Column-wise maximum over each segment of a matrix's rows.

    Row ``s`` of the result pools rows ``starts[s]`` up to the next start.
    The backward pass routes each column's gradient to the first row of the
    segment attaining the maximum, which makes tie handling deterministic.
    It finds those rows itself, so a forward-only pass never looks for them.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"maxpool_rows needs a matrix, got shape {a.shape}")
    starts, owner = _segments(a.shape[0], starts)
    out = np.maximum.reduceat(a.data, starts, axis=0)

    def back(g):
        rows = np.arange(a.shape[0])[:, None]
        first = np.minimum.reduceat(np.where(a.data < out[owner], a.shape[0], rows), starts, axis=0)
        grad = np.zeros_like(a.data)
        grad[first, np.arange(a.shape[1])] = g
        return (grad,)

    return _record(out, "maxpool_rows", (a,), back)


def segment_softmax(a: Tensor, starts: Sequence[int]) -> Tensor:
    """Softmax of a vector's entries within each segment, max-shifted per segment."""
    if a.data.ndim != 1:
        raise DimensionError(f"segment_softmax needs a vector, got shape {a.shape}")
    starts, owner = _segments(a.shape[0], starts)
    e = np.exp(a.data - np.maximum.reduceat(a.data, starts)[owner])
    out = e / np.add.reduceat(e, starts)[owner]

    def back(g):
        return (out * (g - np.add.reduceat(g * out, starts)[owner]),)

    return _record(out, "segment_softmax", (a,), back)


def sum_all(a: Tensor) -> Tensor:
    def back(g):
        return (np.full_like(a.data, float(g)),)

    return _record(np.asarray(a.data.sum()), "sum_all", (a,), back)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product along the last axis: a scalar for two vectors, one value per row for two matrices."""
    if a.shape != b.shape or a.data.ndim not in (1, 2):
        raise DimensionError(f"dot needs equal-shape vectors or matrices, got {a.shape} and {b.shape}")
    back = lambda g: (g[..., None] * b.data, g[..., None] * a.data)
    return _record(np.einsum("...i,...i->...", a.data, b.data), "dot", (a, b), back)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Two vectors, or two matrices with the same rows, joined along the last axis."""
    if a.data.ndim != b.data.ndim or a.data.ndim not in (1, 2) or a.shape[:-1] != b.shape[:-1]:
        raise DimensionError(f"concat needs vectors or matrices with equal rows, got {a.shape} and {b.shape}")
    split = a.shape[-1]
    back = lambda g: (g[..., :split], g[..., split:])
    return _record(np.concatenate([a.data, b.data], axis=-1), "concat", (a, b), back)


def pick(a: Tensor, index) -> Tensor:
    """Entry ``index`` along the last axis: a scalar from a vector, or one entry per row of a matrix."""
    at = np.asarray(index, dtype=np.intp)
    if a.data.ndim not in (1, 2) or at.shape != a.shape[:-1]:
        raise DimensionError(f"pick needs one index per row of {a.shape}, got shape {at.shape}")
    if np.any(at < 0) or np.any(at >= a.shape[-1]):
        raise ValueError(f"pick index out of range for {a.shape[-1]} columns")
    at = at[..., None]

    def back(g):
        grad = np.zeros_like(a.data)
        np.put_along_axis(grad, at, np.asarray(g)[..., None], axis=-1)
        return (grad,)

    return _record(np.take_along_axis(a.data, at, axis=-1)[..., 0], "pick", (a,), back)


def _scatter_sums(idx: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``idx`` and, for each, the sum of the rows of ``g`` it indexes."""
    order = np.argsort(idx, kind="stable")
    ranked = idx[order]
    firsts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    return ranked[firsts], np.add.reduceat(g[order], firsts, axis=0)


def gather_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a matrix; gradients scatter-add back to the source.

    On a leaf the backward pass sums the gradients of repeated indices into
    one row each, adds those rows into ``a.grad`` and marks them in
    ``a.grad_rows`` (and does nothing for a frozen leaf), and returns no
    gradient for the tape. The sums run in index order, as a dense
    ``np.add.at`` would, so ``a.grad`` ends up bit-identical to adding a
    dense scatter of the whole table (but for the sign of a zero in an
    untouched row, which adding ``+0.0`` would clear).
    On an operation's output it returns that dense scatter.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"gather_rows needs a matrix, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("gather_rows needs a non-empty list of row indices")
    outside = (idx < 0) | (idx >= a.shape[0])
    if outside.any():
        raise ValueError(f"row index {idx[outside][0]} out of range for {a.shape[0]} rows")

    if a.op is None:

        def back(g):
            if a.trainable:
                slot: dict[int, int] = {}
                inverse = [slot.setdefault(i, len(slot)) for i in idx.tolist()]
                rows = list(slot)
                summed = np.zeros((len(rows), g.shape[1]))
                np.add.at(summed, inverse, g)
                a.grad[rows] += summed
                if a.grad_rows is not None:
                    a.grad_rows[rows] = True
            return (None,)

    else:

        def back(g):
            grad = np.zeros_like(a.data)
            rows, sums = _scatter_sums(idx, g)
            grad[rows] = sums
            return (grad,)

    return _record(a.data[idx], "gather_rows", (a,), back)


class RowGroups:
    """Groups of input rows, one per output row, summed as a gather sorted by group size.

    Output row ``i`` names ``sizes[i]`` input rows, listed in ``members``
    group after group; each member is below ``n_in``, the number of input
    rows. ``gather`` orders the output rows by group size, largest first
    (ties by row): ``columns[j]`` holds the ``j``-th member of each of the
    first ``columns[j].size`` rows of that order, the rows whose group has
    more than ``j`` members, and ``rank[i]`` is output row ``i``'s place in
    it. So ``sums`` takes one row gather per column, added into a prefix of
    the rows, and one large group (a star tree's hub) pads nothing. The
    gather is built on first use and then kept.

    ``symmetric`` states that ``j`` is in group ``i`` exactly when ``i`` is
    in group ``j``, as for the neighbourhoods of an undirected tree; then
    the groups are their own ``transpose`` and no transpose is built.
    """

    def __init__(self, sizes: np.ndarray, members: np.ndarray, n_in: int, symmetric: bool = False):
        self.sizes = sizes
        self.members = members
        self.n_in = n_in
        self._transpose = self if symmetric else None
        self._gather: tuple[tuple[np.ndarray, ...], np.ndarray] | None = None

    @classmethod
    def of(cls, groups: Sequence[Sequence[int]], n_in: int) -> "RowGroups":
        """The groups given as one sequence of input rows per output row, checked.

        The constructor takes ``sizes`` and ``members`` as built by the
        package's own code (intp arrays, members in range) unchecked.
        """
        if not groups:
            raise ValueError("row groups need at least one group")
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        members = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp, count=int(sizes.sum()))
        if members.size and (members.min() < 0 or members.max() >= n_in):
            raise ValueError(f"row index out of range for {n_in} rows")
        return cls(sizes, members, n_in)

    def gather(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """``(columns, rank)``, built on first use."""
        if self._gather is None:
            order = np.argsort(-self.sizes, kind="stable")
            ranked = self.sizes[order]
            firsts = (np.cumsum(self.sizes) - self.sizes)[order]
            widths = np.searchsorted(-ranked, -np.arange(ranked[0]), side="left")
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            self._gather = tuple(self.members[firsts[:m] + j] for j, m in enumerate(widths.tolist())), rank
        return self._gather

    @property
    def transpose(self) -> "RowGroups":
        """The groups with inputs and outputs swapped: input row ``j`` names each output row whose group holds it."""
        if self._transpose is None:
            owners = np.repeat(np.arange(self.sizes.size), self.sizes)[np.argsort(self.members, kind="stable")]
            self._transpose = RowGroups(np.bincount(self.members, minlength=self.n_in), owners, self.sizes.size)
            self._transpose._transpose = self
        return self._transpose

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Row ``i``: the sum of the rows of ``x`` in group ``i``, added in member order (zero for an empty group)."""
        columns, rank = self.gather()
        # The indices are in range, so mode="clip" changes no value; unlike
        # the default it lets take write into ``part`` without a buffer.
        acc = x.take(columns[0], axis=0)
        part = np.empty((rank.size, x.shape[1]))
        for col in columns[1:]:
            acc[: col.size] += x.take(col, axis=0, out=part[: col.size], mode="clip")
        if acc.shape[0] < rank.size:
            acc = np.concatenate([acc, np.zeros((rank.size - acc.shape[0], x.shape[1]))])
        return acc.take(rank, axis=0, out=part, mode="clip")


def segment_mean_rows(a: Tensor, groups: RowGroups) -> Tensor:
    """Row i of the result is the mean of a's rows in group ``i``.

    The forward pass is the gather of ``RowGroups.sums`` divided by the
    group sizes. The backward pass is the transpose's gather of ``g`` divided
    by those sizes, so it needs no scatter. For symmetric groups (a tree's
    neighbourhoods) the transpose is the same gather: the mean is the fixed
    operator D^-1 A with A symmetric, whose transpose A D^-1 gathers exactly
    the rows the forward pass gathered.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"segment_mean_rows needs a matrix, got shape {a.shape}")
    if groups.n_in != a.shape[0]:
        raise DimensionError(f"groups over {groups.n_in} rows applied to {a.shape[0]} rows")
    if groups.sizes.min() == 0:
        raise ValueError(f"group {int(np.argmin(groups.sizes))} is empty")
    counts = groups.sizes[:, None].astype(np.float64)  # dividing by integers would convert them on every pass
    out = groups.sums(a.data)
    out /= counts
    return _record(out, "segment_mean_rows", (a,), lambda g: (groups.transpose.sums(g / counts),))
