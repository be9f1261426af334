import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from absa_gcn.data import EmbeddingTable, Example
from absa_gcn.tensor import (
    DimensionError,
    RowGroups,
    Segments,
    Tape,
    Tensor,
    add,
    add_n,
    backward,
    clamp_min,
    concat,
    dot,
    gather_rows,
    linear,
    log,
    maxpool_rows,
    mul,
    pick,
    relu,
    scale,
    segment_mean_rows,
    segment_softmax,
    sigmoid,
    softmax_rows,
    spread_rows,
    sum_all,
    tanh,
)
from absa_gcn.gradcheck import numeric_gradient, relative_error
from conftest import resident_bytes, softmax_np


def test_tensor_rejects_empty():
    with pytest.raises(DimensionError):
        Tensor([])
    with pytest.raises(DimensionError):
        Tensor(np.zeros((0, 3)))


def test_tensor_shape_and_grad_allocation():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]], trainable=True)
    assert t.shape == (2, 2)
    assert t.grad.shape == (2, 2)
    assert not Tensor([1.0]).trainable
    assert Tensor([1.0]).grad is None


# ---------------------------------------------------------------------------
# linear


def test_linear_hand_case():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], trainable=True)
    w = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], trainable=True)
    b = Tensor([10.0, 20.0, 30.0], trainable=True)
    out = linear(x, w, b)
    npt.assert_array_equal(out.data, [[11.0, 22.0, 33.0], [13.0, 24.0, 37.0]])
    backward(sum_all(out))
    npt.assert_array_equal(x.grad, [[2.0, 2.0], [2.0, 2.0]])  # column sums of w
    npt.assert_array_equal(w.grad, [[4.0, 6.0]] * 3)  # column sums of x
    npt.assert_array_equal(b.grad, [2.0, 2.0, 2.0])  # one per row of x


# The matrix product inside linear: with a zero bias, linear(x, w, 0) is x @ w.T.


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = linear(a, Tensor(np.eye(2)), Tensor(np.zeros(2)))
    npt.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    out = linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([0.0]))
    npt.assert_array_equal(out.data, [[11.0]])


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), trainable=True)
    w = Tensor(rng.uniform(-1, 1, (2, 4)), trainable=True)
    b = Tensor(rng.uniform(-1, 1, 2), trainable=True)
    weights = Tensor(rng.uniform(-1, 1, (3, 2)))

    def loss():
        return sum_all(mul(linear(x, w, b), weights))

    backward(loss())
    for t in (x, w, b):
        numeric = numeric_gradient(lambda: loss().item(), t)
        assert relative_error(t.grad, numeric).max() < 1e-6


def test_linear_shape_error_names_all_three_shapes():
    for w, b in (((4, 2), (4,)), ((4, 3), (3,)), ((4, 3), (1, 4))):
        with pytest.raises(DimensionError) as err:
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones(w)), Tensor(np.ones(b)))
        assert all(str(shape) in str(err.value) for shape in ((2, 3), w, b))
    with pytest.raises(DimensionError):
        linear(Tensor(np.ones(3)), Tensor(np.ones((4, 3))), Tensor(np.ones(4)))


@pytest.mark.parametrize("rows, k, m", [(1, 6, 3), (33, 50, 50), (80, 300, 200), (32, 400, 200)])
def test_linear_is_byte_equal_to_the_old_matmul_transpose_add_chain(rows, k, m):
    rng = np.random.default_rng(rows + k + m)
    x, w, b = rng.normal(size=(rows, k)), rng.normal(size=(m, k)), rng.normal(size=m)
    g = rng.normal(size=(rows, m))
    # The chain add(matmul(x, transpose(w)), b) copied w.T, multiplied, and
    # handed back g @ wt.T for x and the transpose of x.T @ g for w.
    wt = w.T.copy()
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    assert out.data.tobytes() == (x @ wt + b).tobytes()
    gx, gw, gb = out._backward(g)
    assert gx.tobytes() == (g @ wt.T).tobytes()
    assert gw.tobytes() == (x.T @ g).T.tobytes()
    assert gb.tobytes() == g.sum(axis=0).tobytes()


# ---------------------------------------------------------------------------
# elementwise


def test_relu_definition():
    npt.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_sigmoid_at_zero():
    npt.assert_array_equal(sigmoid(Tensor([0.0])).data, [0.5])


def test_sigmoid_saturation_is_finite():
    out = sigmoid(Tensor([-1000.0, 1000.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


def test_clamp_min_lets_nan_through():
    t = Tensor([float("nan"), 1e-20, 0.5], trainable=True)
    out = clamp_min(t, 1e-12)
    npt.assert_array_equal(out.data, [float("nan"), 1e-12, 0.5])
    assert np.isnan(log(out).data[0])
    backward(sum_all(out))
    npt.assert_array_equal(t.grad, [1.0, 0.0, 1.0])


# Signed zeros, subnormals, the infinities, NaNs of both signs, and |x| where exp(-|x|) underflows (past 745).
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan, -np.nan, 745.2, -745.2, 800.0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
        elements=st.floats() | st.sampled_from(_EDGE_FLOATS),
    ),
    floor=st.sampled_from([1e-12, 0.0, -0.0, 1.0, -np.inf]),
)
def test_branch_free_kernels_are_byte_equal_to_the_where_forms(x, floor):
    # No arithmetic makes a signaling NaN, so the kernels need not agree on one:
    # fmax's scalar path returns NaN for it, its vector path the other operand.
    with np.errstate(invalid="ignore"):
        x[np.isnan(x)] *= 1.0
    g = np.linspace(-2.0, 3.0, x.size).reshape(x.shape)
    # The forms the kernels had: a select on a data-dependent mask.
    z = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    below = x < floor
    cases = [
        (relu(Tensor(x)), np.where(x > 0, x, 0.0), g * (x > 0)),
        (sigmoid(Tensor(x)), sig, g * sig * (1.0 - sig)),
        (clamp_min(Tensor(x), floor), np.where(below, floor, x), g * ~below),
    ]
    for out, value, grad in cases:
        assert out.data.tobytes() == value.tobytes(), out.op
        assert out._backward(g)[0].tobytes() == grad.tobytes(), out.op


def test_branch_free_kernels_pin_the_edge_values():
    out = relu(Tensor([np.nan, -0.0, -np.inf, np.inf])).data
    assert out.tobytes() == np.array([0.0, 0.0, 0.0, np.inf]).tobytes()
    assert not np.signbit(out[1])
    assert np.isnan(sigmoid(Tensor([np.nan, -np.nan])).data).all()
    npt.assert_array_equal(sigmoid(Tensor([-np.inf, np.inf, -800.0])).data, [0.0, 1.0, 0.0])


def test_mul_annihilator():
    out = mul(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))
    npt.assert_array_equal(out.data, [0.0, 0.0, 0.0])


def test_non_broadcastable_shapes_rejected():
    with pytest.raises(DimensionError):
        add(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionError):
        mul(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))
    # nor a vector combined row by row with a matrix: only linear adds a bias to rows
    with pytest.raises(DimensionError):
        add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))
    with pytest.raises(DimensionError):
        mul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))


# ---------------------------------------------------------------------------
# softmax, as the model's importance scores take it: one segment of a vector


def softmax(a: Tensor) -> Tensor:
    return segment_softmax(a, Segments.of([0], a.shape[0]))


def test_softmax_symmetry():
    npt.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)


def test_softmax_frozen_values():
    out = softmax(Tensor([0.0, -1.0, -2.0])).data
    npt.assert_allclose(out, [0.66524, 0.24473, 0.09003], atol=1e-4)


def test_softmax_large_inputs_no_overflow():
    out = softmax(Tensor([1000.0, 999.0])).data
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out, [0.73106, 0.26894], atol=1e-4)


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(9)
    for _ in range(50):
        out = softmax(Tensor(rng.uniform(-50, 50, size=rng.integers(1, 12)))).data
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    x = rng.uniform(-5, 5, 7)
    npt.assert_allclose(
        softmax(Tensor(x)).data, softmax(Tensor(x + 123.0)).data, atol=1e-12
    )


def test_softmax_needs_vector():
    with pytest.raises(DimensionError):
        softmax(Tensor([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# reductions


def test_maxpool_rows_hand_case():
    t = Tensor([[1.0, 5.0], [3.0, 2.0], [0.0, 9.0]])
    npt.assert_array_equal(maxpool_rows(t, Segments.of([0], 3)).data, [[3.0, 9.0]])
    npt.assert_array_equal(maxpool_rows(t, Segments.of([0, 2], 3)).data, [[3.0, 5.0], [0.0, 9.0]])


def test_maxpool_tie_routes_to_lowest_row():
    t = Tensor([[2.0, 1.0], [2.0, 1.0], [4.0, 4.0], [4.0, 3.0]], trainable=True)
    backward(sum_all(maxpool_rows(t, Segments.of([0, 2], 4))))
    npt.assert_array_equal(t.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])


def test_dot_hand_case():
    assert dot(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0])).item() == 32.0
    rows = dot(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    npt.assert_array_equal(rows.data, [17.0, 53.0])


def test_segment_ops_match_each_segment_alone():
    rng = np.random.default_rng(12)
    starts = [0, 1, 4, 6]
    bounds = list(zip(starts, starts[1:] + [9]))
    m = rng.uniform(-1, 1, (9, 3))
    v = rng.uniform(-5, 5, 9)
    segments = Segments.of(starts, 9)
    pooled = maxpool_rows(Tensor(m), segments).data
    scores = segment_softmax(Tensor(v), segments).data
    for s, (lo, hi) in enumerate(bounds):
        npt.assert_array_equal(pooled[s], m[lo:hi].max(axis=0))
        npt.assert_allclose(scores[lo:hi], softmax_np(v[lo:hi]), rtol=1e-15, atol=1e-17)
    rows = softmax_rows(Tensor(m)).data
    for i in range(9):
        npt.assert_allclose(rows[i], softmax_np(m[i]), rtol=1e-15, atol=1e-17)
    cols = [2, 0, 1, 1, 0, 2, 2, 0, 1]
    npt.assert_array_equal(pick(Tensor(m), cols).data, m[np.arange(9), cols])
    assert pick(Tensor(v), 4).item() == v[4]
    npt.assert_array_equal(concat(Tensor(m), Tensor(m[:, :1])).data, np.hstack([m, m[:, :1]]))


@pytest.mark.parametrize("starts", [[], [1, 2], [0, 2, 2], [0, 3, 1], [0, 9]])
def test_segment_starts_must_rise_from_zero_inside_the_rows(starts):
    with pytest.raises(ValueError, match="segment starts must rise from 0 and stay below 9"):
        Segments.of(starts, 9)


@pytest.mark.parametrize("rows", [8, 10])
def test_a_segment_record_applies_only_to_the_rows_it_covers(rows):
    segments = Segments.of([0, 4], 9)
    with pytest.raises(DimensionError, match=f"segments over 9 rows applied to {rows} rows"):
        maxpool_rows(Tensor(np.ones((rows, 2))), segments)
    with pytest.raises(DimensionError, match=f"segments over 9 rows applied to {rows} rows"):
        segment_softmax(Tensor(np.ones(rows)), segments)


def test_row_ops_reject_mismatched_shapes():
    with pytest.raises(DimensionError):
        dot(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):
        concat(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0]]))
    with pytest.raises(DimensionError):
        pick(Tensor([[1.0, 2.0], [3.0, 4.0]]), [0])
    with pytest.raises(ValueError):
        pick(Tensor([[1.0, 2.0]]), [2])
    with pytest.raises(DimensionError):
        softmax_rows(Tensor([1.0, 2.0]))


def test_concat_and_backward_split():
    a = Tensor([1.0, 2.0], trainable=True)
    b = Tensor([3.0], trainable=True)
    out = concat(a, b)
    npt.assert_array_equal(out.data, [1.0, 2.0, 3.0])
    backward(dot(out, Tensor([1.0, 10.0, 100.0])))
    npt.assert_array_equal(a.grad, [1.0, 10.0])
    npt.assert_array_equal(b.grad, [100.0])


def test_gather_rows_empty_selection_rejected():
    with pytest.raises(ValueError):
        gather_rows(Tensor([[1.0, 2.0]]), [])
    with pytest.raises(ValueError):
        gather_rows(Tensor([[1.0, 2.0]]), [5])


def test_gather_rows_duplicate_indices_accumulate():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]], trainable=True)
    backward(sum_all(gather_rows(t, [0, 0, 1])))
    npt.assert_array_equal(t.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_gather_rows_leaf_grad_is_byte_equal_to_dense_scatter():
    rng = np.random.default_rng(11)
    table = rng.normal(size=(9, 4))
    first, second = [7, 2, 7, 0, 2, 7], [5, 2, 2, 8, 0]
    w1, w2 = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))

    t = Tensor(table.copy(), trainable=True)
    t.grad[...] = rng.normal(size=(9, 4))  # gradient already accumulated
    start = t.grad.copy()
    loss = add(
        sum_all(mul(gather_rows(t, first), Tensor(w1))),
        sum_all(mul(gather_rows(t, second), Tensor(w2))),
    )
    backward(loss)

    # Reference rule: each gather scatters into a dense zero table with
    # np.add.at, and the tape adds that table into the gradient, the later
    # gather first (the tape runs in reverse).
    expected = start.copy()
    for idx, w in ((second, w2), (first, w1)):
        dense = np.zeros_like(table)
        np.add.at(dense, idx, w)
        expected += dense
    assert t.grad.tobytes() == expected.tobytes()


_ADDENDS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_subnormal=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_gather_rows_leaf_grad_is_byte_equal_to_np_add_at_on_edge_values(data):
    """Unsorted, repeated rows of ±0.0, ±inf, subnormal and huge addends sum as ``np.add.at`` sums them.

    Some rows of the gradient hold ``-0.0`` beforehand; the sum of a row
    that only ``-0.0``s reach adds ``+0.0`` to it, as the dense scatter does.
    A row no index reaches keeps its bits. NaNs (from inf - inf) compare as
    NaN, whatever their bits.
    """
    rows, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    idx = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=12))
    g = data.draw(hnp.arrays(np.float64, (len(idx), width), elements=_ADDENDS))
    before = data.draw(hnp.arrays(np.float64, (rows, width), elements=st.sampled_from([0.0, -0.0, 1.5, -np.inf])))
    t = Tensor(np.ones((rows, width)), trainable=True)  # so the product's gradient into the lookup is g, bit for bit
    t.grad[...] = before
    with np.errstate(invalid="ignore", over="ignore"):
        backward(sum_all(mul(gather_rows(t, idx), Tensor(g))))
        dense = np.zeros((rows, width))
        np.add.at(dense, idx, g)
        expected = before.copy()
        expected[idx] += dense[idx]
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(t.grad), nan)
    assert t.grad[~nan].tobytes() == expected[~nan].tobytes()


def test_gather_rows_frozen_leaf_gets_no_gradient():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    x = Tensor(np.ones((3, 2)), trainable=True)
    backward(sum_all(mul(gather_rows(t, [1, 0, 1]), x)))
    assert t.grad is None
    npt.assert_array_equal(x.grad, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])


def test_gather_rows_on_an_operation_output_is_rejected():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]], trainable=True)
    with pytest.raises(ValueError, match="leaf"):
        gather_rows(scale(t, 3.0), [1, 1])


def test_embedding_backward_does_no_table_sized_work():
    rng = np.random.default_rng(3)
    table = EmbeddingTable(
        vocabulary={f"w{i}": i for i in range(20_000)},
        vectors=Tensor(rng.normal(size=(20_001, 50)), trainable=True),
        dim=50,
        unk_index=20_000,
    )
    ex = Example(
        tokens=["w5", "w19999", "w5", "oov", "w7"], heads=[-1, 0, 0, 1, 1],
        aspect_from=1, aspect_to=3, label="neutral",
    )
    E = gather_rows(table.vectors, [table.row_index(tok) for tok in ex.tokens])
    aspect, sentence = RowGroups.of([[1, 2]], 5), RowGroups.of([range(5)], 5)
    loss = sum_all(add(segment_mean_rows(E, aspect), segment_mean_rows(E, sentence)))
    tracemalloc.start()
    try:
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.vectors.data.nbytes / 4
    assert np.count_nonzero(table.vectors.grad.any(axis=1)) == 4


def test_segment_mean_rows_matches_composed_ops():
    rng = np.random.default_rng(4)
    data = rng.uniform(-1, 1, (6, 3))
    groups = [(0, 1), (2,), (3, 4, 5), (0, 5)]

    fused_in = Tensor(data.copy(), trainable=True)
    fused = segment_mean_rows(fused_in, RowGroups.of(groups, 6))
    npt.assert_allclose(fused.data, [data[list(g)].mean(axis=0) for g in groups], atol=1e-15)

    weights = rng.uniform(-1, 1, (4, 3))
    backward(sum_all(mul(fused, Tensor(weights))))
    composed_grad = np.zeros_like(data)
    for g, w in zip(groups, weights):
        composed_grad[list(g)] += w / len(g)
    npt.assert_allclose(fused_in.grad, composed_grad, atol=1e-15)


def test_segment_mean_rows_rejects_empty_group():
    with pytest.raises(ValueError):
        segment_mean_rows(Tensor([[1.0, 2.0]]), RowGroups.of([()], 1))


def test_segment_mean_rows_backward_skips_unnamed_rows_and_counts_repeats():
    # rows 1 and 4 are in no group, row 3 twice in group 0: the transpose
    # gives them no gradient and twice the share
    groups = RowGroups.of([(3, 0, 3), (2,), (0, 2)], 5)
    a = Tensor(np.arange(10.0).reshape(5, 2), trainable=True)
    out = segment_mean_rows(a, groups)
    npt.assert_array_equal(out.data, [[4.0, 5.0], [4.0, 5.0], [2.0, 3.0]])
    backward(sum_all(mul(out, Tensor([[3.0, 6.0], [1.0, 2.0], [2.0, 4.0]]))))
    npt.assert_array_equal(a.grad, [[2.0, 4.0], [0.0, 0.0], [2.0, 4.0], [2.0, 4.0], [0.0, 0.0]])
    npt.assert_array_equal(groups.transpose.sizes, [2, 0, 2, 2, 0])
    assert groups.transpose.transpose is groups


@pytest.mark.parametrize("groups, n_in", [([(0, 2)], 2), ([(-1,)], 3), ([], 3)])
def test_row_groups_reject_rows_out_of_range_and_no_groups(groups, n_in):
    with pytest.raises(ValueError):
        RowGroups.of(groups, n_in)


def test_segment_mean_rows_rejects_groups_over_other_rows():
    with pytest.raises(DimensionError):
        segment_mean_rows(Tensor(np.ones((3, 2))), RowGroups.of([(0, 1)], 2))


# ---------------------------------------------------------------------------
# backward contract


def test_backward_sum_gives_ones():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], trainable=True)
    backward(sum_all(x))
    npt.assert_array_equal(x.grad, np.ones((2, 2)))


def test_backward_dot_self():
    x = Tensor([1.0, 2.0], trainable=True)
    backward(dot(x, x))
    npt.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_accumulates_without_zeroing():
    x = Tensor([1.0, 2.0], trainable=True)
    backward(sum_all(x))
    backward(sum_all(x))
    npt.assert_array_equal(x.grad, [2.0, 2.0])
    x.zero_grad()
    npt.assert_array_equal(x.grad, [0.0, 0.0])


def test_zero_grad_after_a_hand_write_clears_every_row():
    # A fresh tensor's record is unknown, so the first zero_grad cannot
    # trust it and clears every row, -0.0 included.
    w = Tensor(np.ones((5, 3)), trainable=True)
    w.grad[...] = np.arange(15.0).reshape(5, 3)
    w.grad[4] = -0.0
    w.zero_grad()
    assert w.grad.tobytes() == np.zeros((5, 3)).tobytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the resident set from /proc/self/statm")
def test_zeroing_and_a_backward_pass_on_a_few_rows_of_a_large_table_map_little_memory():
    # The first zero_grad swaps in a gradient on 4 KB pages; a backward pass
    # gathering 100 rows, and the zero_grad after it, map the pages of those
    # rows, not the whole 48 MB gradient.
    rng = np.random.default_rng(12)
    w = Tensor(rng.normal(size=(20_001, 300)), trainable=True)
    rows = rng.choice(20_001, size=100, replace=False)
    coefficients = Tensor(rng.normal(size=(100, 300)))
    before = resident_bytes()
    w.zero_grad()
    backward(sum_all(mul(gather_rows(w, rows), coefficients)))
    w.zero_grad()
    assert resident_bytes() - before < w.data.nbytes / 4


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], trainable=True)
    with pytest.raises(ValueError):
        backward(relu(x))


def test_unreachable_parameter_keeps_zero_grad():
    x = Tensor([1.0], trainable=True)
    y = Tensor([2.0], trainable=True)
    backward(sum_all(x))
    npt.assert_array_equal(y.grad, [0.0])


# ---------------------------------------------------------------------------
# tape invariants


def _small_graph():
    a = Tensor([[1.0, -2.0], [0.5, 3.0]], trainable=True)
    b = Tensor([[0.2, 0.1], [-0.4, 0.8]], trainable=True)
    h = relu(linear(a, b, Tensor([0.5, -0.5])))
    return a, b, sum_all(mul(h, h))


def test_tape_inputs_precede_operations():
    _, _, loss = _small_graph()
    tape = Tape.trace(loss)
    assert tape.entries, "expected a non-empty tape"
    position = {id(entry): index for index, entry in enumerate(tape.entries)}
    assert len(position) == len(tape.entries)
    for entry in tape.entries:
        for parent in entry.parents:
            if parent.op is not None:
                assert position[id(parent)] < position[id(entry)]


def test_tape_backward_visits_each_op_once_in_reverse():
    _, _, loss = _small_graph()
    tape = Tape.trace(loss)
    position = {id(entry): index for index, entry in enumerate(tape.entries)}
    seen = []
    for entry in tape.entries:
        original = entry._backward

        def wrapped(g, entry=entry, original=original):
            seen.append(position[id(entry)])
            return original(g)

        entry._backward = wrapped
    tape.backward(loss)
    assert seen == sorted(seen, reverse=True)
    assert len(seen) == len(set(seen)) == len(tape.entries)


def test_replay_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.uniform(-1, 1, (4, 4)), trainable=True)
        b = Tensor(rng.uniform(-1, 1, (4, 4)), trainable=True)
        loss = sum_all(sigmoid(linear(relu(a), tanh(b), Tensor(np.zeros(4)))))
        backward(loss)
        return loss.item(), a.grad.copy(), b.grad.copy()

    first, second = run(), run()
    assert first[0] == second[0]
    npt.assert_array_equal(first[1], second[1])
    npt.assert_array_equal(first[2], second[2])


# ---------------------------------------------------------------------------
# gradient-check property over random op compositions


def _composition_loss(params):
    x, w, b, v, u = params
    h = relu(linear(x, w, b))
    gated = mul(h, spread_rows(sigmoid(v), Segments.of([0, 1], 3)))
    pooled = maxpool_rows(gated, Segments.of([0, 2], 3))
    mixed = concat(pooled, segment_mean_rows(tanh(gated), RowGroups.of([[0, 1], [1, 2]], 3)))
    shifted = add(mixed, Tensor(np.full(mixed.shape, 0.3)))
    probs = softmax_rows(mixed)
    scores = segment_softmax(dot(gated, gated), Segments.of([0, 2], 3))
    return add_n([
        sum_all(dot(probs, probs)),
        log(sum_all(pick(probs, [3, 7]))),
        dot(scores, scores),
        mul(sum_all(log(clamp_min(shifted, 1e-6))), dot(u, u)),
    ])


def test_gradient_check_random_compositions():
    """Finite differences agree with backward for x, w and b of linear and every other input."""
    with pytest.raises(DimensionError):
        spread_rows(Tensor(np.ones((3, 5))), Segments.of([0, 1], 3))  # three rows for two segments
    with pytest.raises(DimensionError):
        spread_rows(Tensor(np.ones(2)), Segments.of([0, 1], 3))  # a vector has no rows to spread
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        params = (
            Tensor(rng.uniform(-1, 1, (3, 4)), trainable=True),
            Tensor(rng.uniform(-1, 1, (5, 4)), trainable=True),
            Tensor(rng.uniform(-1, 1, 5), trainable=True),
            Tensor(rng.uniform(-1, 1, (2, 5)), trainable=True),
            Tensor(rng.uniform(-1, 1, 2), trainable=True),
        )
        backward(_composition_loss(params))
        for t in params:
            numeric = numeric_gradient(lambda: _composition_loss(params).item(), t)
            assert relative_error(t.grad, numeric, floor=1e-3).max() < 1e-4


def test_unary_op_gradients():
    rng = np.random.default_rng(7)
    cases = [
        (sigmoid, rng.uniform(-2, 2, 6)),
        (tanh, rng.uniform(-2, 2, 6)),
        (lambda t: log(t), rng.uniform(0.1, 3, 6)),
        (lambda t: clamp_min(t, 0.5), rng.uniform(0.6, 3, 6)),
        (lambda t: scale(t, -2.5), rng.uniform(-2, 2, 6)),
    ]
    for op, values in cases:
        t = Tensor(values, trainable=True)
        loss = lambda: dot(op(t), op(t))
        backward(loss())
        numeric = numeric_gradient(lambda: loss().item(), t)
        assert relative_error(t.grad, numeric, floor=1e-3).max() < 1e-4


def test_add_n_sums_and_distributes_gradient():
    xs = [Tensor([float(i)], trainable=True) for i in range(4)]
    out = add_n(xs)
    npt.assert_array_equal(out.data, [6.0])
    backward(sum_all(out))
    for x in xs:
        npt.assert_array_equal(x.grad, [1.0])
    with pytest.raises(DimensionError):
        add_n([Tensor([1.0]), Tensor([[1.0]])])
