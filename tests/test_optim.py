import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import absa_gcn.trainer as trainer
from absa_gcn.data import build_random_table
from absa_gcn.model import HyperParams
from absa_gcn.optim import AdamState, adam_step, as_rows
from absa_gcn.tensor import Tensor, add, backward, gather_rows, mul, sum_all
from conftest import resident_bytes
from corpora import make_overfit_corpus


def _moments_by_row(state, name, shape):
    """The first and second moments of ``name`` as ``shape`` arrays, read row for row through its live rows.

    A row (a vector's entry, a scalar's one value) that is not live has no
    moments; the dense update leaves them at +0.0. The live rows must be
    sorted, each once, and the moments must hold one row per live row and
    no more.
    """
    rows = state.rows[name]
    assert (rows[1:] > rows[:-1]).all()
    full = []
    for m in (state.first_moment[name], state.second_moment[name]):
        assert m.shape[0] == rows.size
        dense = np.zeros(shape)
        as_rows(dense)[rows] = m
        full.append(dense)
    return full


def test_zero_gradients_leave_parameters_unchanged():
    w = Tensor([1.0, -2.0, 3.0], trainable=True)
    state = AdamState(learning_rate=0.001)
    before = w.data.copy()
    adam_step([("w", w)], state)
    npt.assert_array_equal(w.data, before)
    assert state.step_count == 1


def test_first_step_moves_by_learning_rate():
    # m_hat = v_hat = 1 after one unit-gradient step, so the update is
    # lr / (1 + eps), within 1e-10 of -0.001.
    w = Tensor(np.zeros(()), trainable=True)
    w.grad[...] = 1.0
    state = AdamState(learning_rate=0.001)
    adam_step([("w", w)], state)
    assert abs(w.item() + 0.001) < 1e-10


def test_identical_parameters_stay_identical():
    a = Tensor([0.5, -0.5], trainable=True)
    b = Tensor([0.5, -0.5], trainable=True)
    state = AdamState(learning_rate=0.01)
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = rng.normal(size=2)
        a.grad[...] = g
        b.grad[...] = g
        adam_step([("a", a), ("b", b)], state)
        npt.assert_array_equal(a.data, b.data)


def test_zero_learning_rate_is_bitwise_noop_on_parameters():
    w = Tensor([0.1, -0.2, 0.0], trainable=True)
    before = w.data.copy()
    state = AdamState(learning_rate=0.0)
    for step in range(5):
        w.grad[...] = [1.0, -3.0, 0.5]
        adam_step([("w", w)], state)
    npt.assert_array_equal(w.data, before)
    assert state.step_count == 5
    assert np.any(state.first_moment["w"] != 0.0)


def test_step_counter_strictly_increments_and_moments_keep_shape():
    w = Tensor(np.ones((2, 3)), trainable=True)
    state = AdamState()
    for expected in range(1, 4):
        w.grad[...] = 1.0
        adam_step([("w", w)], state)
        assert state.step_count == expected
        assert state.first_moment["w"].shape == (2, 3)
        assert state.second_moment["w"].shape == (2, 3)


def test_missing_gradient_is_an_error():
    w = Tensor([1.0])  # not trainable: no grad buffer
    with pytest.raises(RuntimeError):
        adam_step([("w", w)], AdamState())


def test_bitwise_equal_to_textbook_formula():
    # The update as written with one temporary per operation; the in-place
    # evaluation must round exactly as this does, step after step. The
    # parameters start at the scale of one update, so that a last-bit
    # difference in the update is not rounded away when it is subtracted.
    # Two parameters of different sizes share the scratch arrays, which are
    # made once, at the larger size, and kept across steps.
    lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(8)
    shapes = {"b": (3,), "w": (7, 5)}
    params = [(name, Tensor(rng.normal(size=shape) * lr, trainable=True)) for name, shape in shapes.items()]
    state = AdamState(learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    ref = {name: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)] for name, p in params}
    for t in range(1, 6):
        for _, p in params:
            p.grad[...] = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3, size=p.shape)
        adam_step(params, state)
        if t == 1:
            scratch = state.scratch
        assert state.scratch is scratch and scratch.shape == (2, 35)
        for name, p in params:
            ref_w, m, v = ref[name]
            moments = _moments_by_row(state, name, p.shape)
            g = p.grad
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            ref_w = ref_w - lr * m_hat / (np.sqrt(v_hat) + eps)
            ref[name] = [ref_w, m, v]
            assert p.data.tobytes() == ref_w.tobytes()
            assert moments[0].tobytes() == m.tobytes()
            assert moments[1].tobytes() == v.tobytes()


def test_matches_reference_recurrence():
    # Independent scalar reimplementation of the update rule.
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    w = Tensor(np.asarray(0.7), trainable=True)
    state = AdamState(learning_rate=lr)
    ref_w, m, v = 0.7, 0.0, 0.0
    rng = np.random.default_rng(5)
    for t in range(1, 20):
        g = float(rng.normal())
        w.grad[...] = g
        adam_step([("w", w)], state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref_w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        npt.assert_allclose(w.item(), ref_w, rtol=0, atol=1e-14)


def _textbook_step(ref, g, t, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """One dense update of ``ref = [w, m, v]`` with one temporary per operation."""
    w, m, v = ref
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    w = w - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return [w, m, v]


@st.composite
def touched_row_runs(draw):
    """A parameter shape, one set of touched rows per step, and a seed for the values."""
    rows = draw(st.integers(1, 9))
    shape = draw(st.sampled_from([(), (rows,), (rows, 1), (rows, 3)]))
    count = shape[0] if shape else 1  # a scalar is one row
    steps = draw(st.lists(st.sets(st.integers(0, count - 1)), min_size=1, max_size=6))
    return shape, steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(touched_row_runs())
@example(((4, 2), [{0}, set(), set(), {1, 2}, {3}, set()], 1))  # idle after one touch; 1/4 -> 3/4 -> 4/4 live
@example(((6, 3), [{0, 1, 2, 3}, {4}, set()], 2))  # 4/6 live at once, then 5/6
@example(((4, 2), [{2, 3}, {0, 1}, set()], 4))  # every row live, gone live out of row order
@example(((5,), [{0}, {1, 2, 3, 4}], 3))
@example(((), [set(), {0}, set()], 5))  # a scalar idle, then live
def test_live_row_steps_byte_equal_to_dense_formula(run):
    # Each step zeroes the gradient, writes it and records the touched rows,
    # so only the rows touched so far are live. Rows not touched at a step
    # hold +0.0 or -0.0 gradients; a touched row's gradient is exactly zero
    # about a quarter of the time. Every array must come out byte-equal to
    # the dense update of all rows, step after step.
    shape, steps, seed = run
    rng = np.random.default_rng(seed)
    lr = 0.001
    w = Tensor(rng.normal(size=shape) * lr, trainable=True)
    w.data[rng.random(shape) < 0.1] = -0.0
    state = AdamState(learning_rate=lr)
    ref = [w.data.copy(), np.zeros(shape), np.zeros(shape)]
    for t, touched in enumerate(steps, start=1):
        g = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        width = as_rows(g).shape[1:]
        for row in sorted(touched):
            if rng.random() >= 0.25:
                as_rows(g)[row] = rng.normal(size=width) * 10.0 ** rng.integers(-6, 3, size=width)
        w.zero_grad()
        w.grad[...] = g
        w.grad_rows.reshape(-1)[sorted(touched)] = True
        adam_step([("w", w)], state)
        ref = _textbook_step(ref, g, t, lr=lr)
        assert w.data.tobytes() == ref[0].tobytes()
        m, v = _moments_by_row(state, "w", shape)
        assert m.tobytes() == ref[1].tobytes()
        assert v.tobytes() == ref[2].tobytes()


def test_parameters_a_gateless_model_never_reaches_keep_no_moments(monkeypatch):
    # Without gates no backward pass reaches a gate weight or bias, so no
    # step records a row of them: they keep no moments and their initial
    # bytes, while the parameters the loss reaches move.
    states = []

    def recording_adam_step(params, adam):
        states.append(adam)
        adam_step(params, adam)

    monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
    corpus = make_overfit_corpus(12, seed=4)
    hp = HyperParams(hidden=8, layers=2, gate_on=False)
    model = trainer.init_model_state(build_random_table(corpus, dim=8, seed=0), hp, 1)
    initial = {name: t.data.tobytes() for name, t in model.named_tensors()}
    config = trainer.TrainConfig(epochs=2, batch_size=6, learning_rate=0.01, seed=3, hyperparams=hp)
    trainer.train(corpus, None, config, initial_state=model)
    adam = states[0]
    assert all(state is adam for state in states) and adam.step_count == 4
    for name, t in model.named_tensors():
        if "_gate_" in name:
            assert adam.rows[name].size == 0
            assert adam.first_moment[name].shape == adam.second_moment[name].shape == (0, as_rows(t.data).shape[1])
            assert t.data.tobytes() == initial[name]
        else:
            assert adam.rows[name].size == as_rows(t.data).shape[0]
            assert t.data.tobytes() != initial[name]


def _gathered_loss(w, ids, coefficients):
    """``sum(w[ids] * coefficients)``: its gradient reaches ``w`` through ``gather_rows`` alone."""
    return sum_all(mul(gather_rows(w, ids), Tensor(coefficients)))


@st.composite
def gathered_runs(draw):
    """A table shape and, per step, gathered ids, rows whose gradient cancels, a dense-gradient flag and a seed."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 3))
    ids = st.lists(st.integers(0, rows - 1), max_size=6)
    cancel = st.sets(st.integers(0, rows - 1), max_size=2)
    steps = draw(st.lists(st.tuples(ids, cancel, st.booleans()), min_size=1, max_size=6))
    return (rows, cols), steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gathered_runs())
@example(((8, 2), [([5, 1, 5, 5], set(), False), ([], set(), False), ([], {3}, False), ([0], set(), True)], 1))
@example(((10, 3), [([9, 2, 2], {4, 7}, False), ([2, 0], set(), False), ([], set(), False)], 2))
@example(((3, 1), [([], set(), True), ([1, 1], set(), False)], 3))
def test_recorded_row_steps_byte_equal_to_dense_reference(run):
    # Each step zeroes the gradient, runs a backward pass whose gradient
    # reaches the table through gather_rows (unsorted and repeated ids; a
    # cancelling row is gathered twice with opposite coefficients, so its
    # summed gradient is exactly zero), optionally through a dense product
    # with the whole table too, and takes an Adam step. The reference zeroes
    # the whole gradient, scatters densely and applies the textbook formula.
    shape, steps, seed = run
    rng = np.random.default_rng(seed)
    lr = 0.001
    w = Tensor(rng.normal(size=shape) * lr, trainable=True)
    w.data[rng.random(shape) < 0.1] = -0.0
    start = w.data.copy()
    state = AdamState(learning_rate=lr)
    ref = [w.data.copy(), np.zeros(shape), np.zeros(shape)]
    touched = np.zeros(shape[0], dtype=bool)
    for t, (ids, cancel, dense) in enumerate(steps, start=1):
        values = rng.normal(size=(len(ids), shape[1])) * 10.0 ** rng.integers(-6, 3, size=(len(ids), shape[1]))
        pairs = rng.normal(size=(len(cancel), shape[1]))
        ids = [i for i in ids if i not in cancel] + sorted(cancel) * 2
        coefficients = np.concatenate([values[: len(ids) - 2 * len(cancel)], pairs, -pairs])
        order = rng.permutation(len(ids))
        ids, coefficients = [ids[i] for i in order], coefficients[order]
        g = np.zeros(shape)
        np.add.at(g, ids, coefficients)
        terms = [_gathered_loss(w, ids, coefficients)] if ids else []
        if dense:
            d = rng.normal(size=shape)
            g += d
            terms.append(sum_all(mul(w, Tensor(d))))
        w.zero_grad()
        if terms:
            backward(terms[0] if len(terms) == 1 else add(*terms))
        adam_step([("w", w)], state)
        ref = _textbook_step(ref, g, t, lr=lr)
        touched[ids] = True
        touched |= dense
        assert w.grad.tobytes() == g.tobytes()
        assert w.data.tobytes() == ref[0].tobytes()
        m, v = _moments_by_row(state, "w", shape)
        assert m.tobytes() == ref[1].tobytes()
        assert v.tobytes() == ref[2].tobytes()
        assert w.data[~touched].tobytes() == start[~touched].tobytes()


def test_second_step_on_a_few_live_rows_allocates_little():
    # The moments grow only when rows go live; a second step whose backward
    # pass gathered the same 100 of 20 001 rows allocates only the gathered
    # rows. tracemalloc does not see the gradient, which is memory-mapped:
    # tests/test_tensor.py reads the resident set for it.
    rng = np.random.default_rng(11)
    w = Tensor(rng.normal(size=(20_001, 300)), trainable=True)
    rows = rng.choice(20_001, size=100, replace=False)
    state = AdamState()
    w.zero_grad()
    backward(_gathered_loss(w, rows, rng.normal(size=(100, 300))))
    adam_step([("embeddings", w)], state)
    w.zero_grad()
    backward(_gathered_loss(w, rows, rng.normal(size=(100, 300))))
    tracemalloc.start()
    try:
        adam_step([("embeddings", w)], state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.data.nbytes / 4


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the resident set from /proc/self/statm")
def test_a_first_step_on_a_few_live_rows_of_a_large_table_maps_little_memory():
    # The moments hold one row per live row and the scratch arrays are sized
    # to the update, so a first step on 100 of 20 001 rows maps about those
    # rows, not two moment arrays of the whole 48 MB table.
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(20_001, 300)), trainable=True)
    rows = rng.choice(20_001, size=100, replace=False)
    w.zero_grad()
    backward(_gathered_loss(w, rows, rng.normal(size=(100, 300))))
    state = AdamState()
    before = resident_bytes()
    adam_step([("embeddings", w)], state)
    assert resident_bytes() - before < 8 * 2**20
    assert state.first_moment["embeddings"].shape == state.second_moment["embeddings"].shape == (100, 300)
    assert state.scratch.shape == (2, 100 * 300)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(learning_rate=float("inf")),
        dict(learning_rate=float("nan")),
        dict(learning_rate=-0.001),
        dict(epsilon=0.0),
        dict(epsilon=float("nan")),
        dict(beta1=1.0),
        dict(beta2=-0.5),
        dict(beta2=float("nan")),
    ],
)
def test_hyperparameters_that_could_move_an_idle_row_are_rejected(kwargs):
    with pytest.raises(ValueError):
        AdamState(**kwargs)
