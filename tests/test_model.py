import ast
import contextlib
import inspect
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import absa_gcn.data as data_module
import absa_gcn.model as model_module
import absa_gcn.tensor as tensor_module
from absa_gcn.data import Example, build_random_table, build_tree, load_embeddings
from absa_gcn.gradcheck import check_model_gradients, numeric_gradient, relative_error
from absa_gcn.model import (
    TENSOR_OBJECT_BYTES,
    CheckpointError,
    ForwardTrace,
    HyperParams,
    ModelState,
    compute_gate,
    consistency_loss,
    diversity_loss,
    encode,
    gatediv_baseline_loss,
    gcn_layer,
    load_checkpoint,
    make_batch,
    model_scores,
    parameter_bytes,
    predict,
    regulate,
    save_checkpoint,
    total_loss,
)
from absa_gcn.synthetic import random_tree_heads
from absa_gcn.tensor import DimensionError, Segments, Tape, Tensor, backward, maxpool_rows, mul
from absa_gcn.trainer import ABLATION_VARIANTS, init_model_state
from conftest import dense_adjacency, join_frame, neighbor_sets, oracle_losses, split_frame
from corpora import random_example


def _example(tokens, heads, span=(0, 1), label="neutral"):
    return Example(tokens=tokens, heads=heads, aspect_from=span[0], aspect_to=span[1], label=label)


def _batch_of_one(n):
    """The row layout of one n-token sentence."""
    return make_batch([_example([f"t{i}" for i in range(n)], [-1] + list(range(n - 1)))])


def _random_model(seed=0, tokens=("alpha", "beta", "gamma", "delta"), dim=6, hidden=8, layers=2, **hp_kwargs):
    rng = np.random.default_rng(seed)
    hp = HyperParams(hidden=hidden, layers=layers, **hp_kwargs)
    corpus = [_example(list(tokens), random_tree_heads(len(tokens), rng))]
    table = build_random_table(corpus, dim=dim, seed=rng)
    state = ModelState.initialize(table, hp, rng, weight_scale=0.4, bias_scale=0.2)
    return state, hp


def _with(state, **changes):
    """The same tensors under hyperparameters changed by ``changes``."""
    return ModelState(state.table, replace(state.hp, **changes), state.tensors)


# ---------------------------------------------------------------------------
# encode


def test_encode_single_token_aspect_is_embedding_row():
    state, hp = _random_model(tokens=("solo",))
    _, trace = total_loss(_example(["solo"], [-1]), state)
    npt.assert_array_equal(trace.aspect_vec.data[0], trace.embeddings.data[0])


def test_encode_mean_of_identical_rows():
    state, hp = _random_model(tokens=("twin", "twin"))
    _, trace = total_loss(_example(["twin", "twin"], [-1, 0], span=(0, 2)), state)
    aspect_vec, E = trace.aspect_vec, trace.embeddings
    npt.assert_allclose(aspect_vec.data[0], E.data[0], atol=1e-15)
    npt.assert_allclose(aspect_vec.data[0], E.data[1], atol=1e-15)


def test_encode_zero_projection_gives_zero_sentence_vector():
    state, hp = _random_model()
    state.tensors["w_sent"].data[...] = 0.0
    state.tensors["b_sent"].data[...] = 0.0
    ex = _example(["alpha", "beta"], [-1, 0])
    _, sentence_vec = encode(make_batch([ex]), state.table, state)
    npt.assert_array_equal(sentence_vec.data, np.zeros((1, hp.hidden)))


# ---------------------------------------------------------------------------
# gcn layer


def test_gcn_single_token_identity_weights():
    ex = _example(["x"], [-1])
    tree = build_tree([ex])
    out = gcn_layer(Tensor([[-2.0, 3.0]]), tree, Tensor(np.eye(2)), Tensor(np.zeros(2)))
    npt.assert_array_equal(out.data, [[0.0, 3.0]])


def test_gcn_two_node_hand_case():
    ex = _example(["a", "b"], [-1, 0])
    tree = build_tree([ex])
    assert neighbor_sets(tree) == ((0, 1), (0, 1))
    out = gcn_layer(Tensor([[2.0, 0.0], [0.0, 4.0]]), tree, Tensor(np.eye(2)), Tensor(np.zeros(2)))
    npt.assert_allclose(out.data, [[1.0, 2.0], [1.0, 2.0]], atol=1e-15)


def test_gcn_matches_dense_adjacency_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        heads = random_tree_heads(n, rng)
        ex = _example([f"t{i}" for i in range(n)], heads)
        include = bool(rng.integers(2))
        tree = build_tree([ex], include_self_loop=include)
        h_prev = Tensor(rng.uniform(-1, 1, (n, 5)))
        w = Tensor(rng.uniform(-1, 1, (4, 5)))
        b = Tensor(rng.uniform(-1, 1, 4))
        out = gcn_layer(h_prev, tree, w, b)
        dense = np.maximum(0.0, dense_adjacency(ex, include) @ h_prev.data @ w.data.T + b.data)
        npt.assert_allclose(out.data, dense, atol=1e-12)


# ---------------------------------------------------------------------------
# gates and regulation


def test_gate_zero_weights_give_half():
    gate = compute_gate(Tensor([[1.0, -2.0]]), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
    npt.assert_array_equal(gate.data, [[0.5, 0.5, 0.5]])


def test_gate_saturates_toward_zero():
    gate = compute_gate(Tensor([[1.0]]), Tensor(np.zeros((4, 1))), Tensor(np.full(4, -30.0)))
    assert np.all(gate.data < 1e-12)


def test_gate_zero_input_depends_only_on_bias():
    b = np.array([0.3, -0.7])
    gate = compute_gate(Tensor([[0.0, 0.0, 0.0]]), Tensor(np.ones((2, 3))), Tensor(b))
    npt.assert_allclose(gate.data[0], 1.0 / (1.0 + np.exp(-b)), atol=1e-15)


def test_regulate_identity_and_annihilator_and_mask():
    h = Tensor([[1.0, 2.0], [3.0, 4.0]])
    one = Segments.of([0], 2)
    npt.assert_array_equal(regulate(h, Tensor([[1.0, 1.0]]), one).data, h.data)
    npt.assert_array_equal(regulate(h, Tensor([[0.0, 0.0]]), one).data, np.zeros((2, 2)))
    masked = regulate(h, Tensor([[0.0, 1.0]]), one).data
    npt.assert_array_equal(masked, [[0.0, 2.0], [0.0, 4.0]])


_NEAR_ONE = [1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)), 1.0 + 2.0**-51]
_RELU_VALUES = st.one_of(st.just(0.0), st.sampled_from(_NEAR_ONE), st.floats(0.0, 1e6, allow_subnormal=True))
_GATE_VALUES = st.one_of(
    st.sampled_from([1.0, float(np.nextafter(1.0, 0.0)), 1e-300, 2.2250738585072014e-308, 1e-310, 5e-324]),
    st.floats(5e-324, 1.0, allow_subnormal=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_gating_a_pooled_layer_is_byte_equal_to_pooling_its_gated_rows(data):
    """``maxpool(h) * g == maxpool(h * g[owner])`` to the bit, the identity ``total_loss`` pools on."""
    lengths = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    width = data.draw(st.integers(1, 4))
    h = data.draw(hnp.arrays(np.float64, (sum(lengths), width), elements=_RELU_VALUES))
    g = data.draw(hnp.arrays(np.float64, (len(lengths), width), elements=_GATE_VALUES))
    segments = Segments(np.array(lengths, dtype=np.intp))
    gated_after = mul(maxpool_rows(Tensor(h), segments), Tensor(g)).data
    gated_before = maxpool_rows(regulate(Tensor(h), Tensor(g), segments), segments).data
    assert gated_after.tobytes() == gated_before.tobytes()


def test_a_zero_gate_gets_the_argmax_rows_of_the_layers_as_its_gradient(monkeypatch):
    """Every row of ``h * 0`` ties at 0, yet the gate's gradient takes ``h``'s first argmax row, not its first row."""
    state, _ = _random_model(seed=5, con_on=False, beta=0.0)  # the loss is the diversity term alone
    gates = [Tensor(np.zeros((1, 8)), trainable=True), Tensor(np.full((1, 8), 0.5), trainable=True)]
    layer_gates = iter(gates)  # compute_gate runs once per layer, in layer order
    monkeypatch.setattr(model_module, "compute_gate", lambda aspect_vec, w, b: next(layer_gates))
    loss, trace = total_loss(_example(["alpha", "beta", "gamma", "delta"], [-1, 0, 1, 1]), state)
    backward(loss)

    h0, h1 = (layer.data for layer in trace.hidden_layers)
    # d/dg0 of the mean over the pairs (0, 1) and (1, 0) of (P0 g0).(P0 g1) and (P1 g1).(P1 g0), with g1 = 0.5
    argmax_rows = (h0.max(axis=0) ** 2 + h1.max(axis=0) ** 2) * 0.5 / 2
    first_rows = (h0[0] * h0.max(axis=0) + h1[0] * h1.max(axis=0)) * 0.5 / 2
    npt.assert_allclose(gates[0].grad[0], argmax_rows, rtol=1e-12)
    assert np.abs(argmax_rows - first_rows).max() > 1e-3  # the case tells the two rules apart


# ---------------------------------------------------------------------------
# diversity losses


def _trace_with_pooled(pooled, gates):
    """A trace holding max-pooled layer rows and their gates, each ``(B, hidden)``, gated as ``total_loss`` gates them."""
    trace = ForwardTrace()
    trace.pooled_hidden = [Tensor(p) for p in pooled]
    trace.gates = [Tensor(g) for g in gates]
    trace.pooled_regulated = [mul(p, g) for p, g in zip(trace.pooled_hidden, trace.gates)]
    return trace


def test_diversity_loss_hand_case_zero():
    # own-gated rows [1, 0] and [0, 2] meet cross-gated rows [0, 1] and [2, 0]
    trace = _trace_with_pooled([[[1.0, 1.0]], [[2.0, 2.0]]], [[[1.0, 0.0]], [[0.0, 1.0]]])
    assert diversity_loss(trace).item() == 0.0


def test_diversity_loss_hand_case_nonzero():
    # example 0: [1, 1].[0.5, 2] + [1, 1].[2, 0.5] = 5; example 1: [3, 0].[3, 0] + [0, 4].[0, 4] = 25
    trace = _trace_with_pooled(
        [[[1.0, 2.0], [3.0, 0.0]], [[2.0, 1.0], [0.0, 4.0]]],
        [[[1.0, 0.5], [1.0, 1.0]], [[0.5, 1.0], [1.0, 1.0]]],
    )
    assert diversity_loss(trace).item() == pytest.approx((5.0 + 25.0) / 2.0, abs=1e-15)


def test_gatediv_orthogonal_gates():
    assert gatediv_baseline_loss([Tensor([1.0, 0.0]), Tensor([0.0, 1.0])]).item() == 0.0


def test_gatediv_identical_gates_squared_norm():
    g = [0.25, 0.5, 0.75]
    out = gatediv_baseline_loss([Tensor(g), Tensor(g)]).item()
    assert out == pytest.approx(float(np.dot(g, g)), abs=1e-15)


def test_gatediv_hand_case():
    out = gatediv_baseline_loss([Tensor([1.0, 1.0]), Tensor([2.0, 0.0])]).item()
    assert out == pytest.approx(2.0, abs=1e-15)


def test_all_zero_gates_zero_diversity_via_forward():
    state, hp = _random_model()
    for l in range(hp.layers):
        state.tensors[f"w_gate_{l}"].data[...] = 0.0
        state.tensors[f"b_gate_{l}"].data[...] = -1000.0
    ex = _example(["alpha", "beta", "gamma"], [-1, 0, 0])
    _, trace = total_loss(ex, state)
    for gate in trace.gates:
        npt.assert_array_equal(gate.data, np.zeros((1, hp.hidden)))
    assert trace.losses.div == 0.0


# ---------------------------------------------------------------------------
# model scores


def test_model_scores_identical_rows_uniform():
    state, hp = _random_model()
    trace = ForwardTrace(batch=_batch_of_one(4))
    row = np.linspace(-1, 1, hp.hidden)
    trace.hidden_layers = [Tensor(np.tile(row, (4, 1)))]
    trace.overall = Tensor(np.linspace(0, 1, 2 * hp.hidden)[None, :])
    mod = model_scores(trace, state)
    npt.assert_allclose(mod.data, np.full(4, 0.25), atol=1e-12)


def test_model_scores_single_token():
    state, hp = _random_model()
    trace = ForwardTrace(batch=_batch_of_one(1))
    trace.hidden_layers = [Tensor(np.random.default_rng(0).uniform(-1, 1, (1, hp.hidden)))]
    trace.overall = Tensor(np.zeros((1, 2 * hp.hidden)))
    npt.assert_array_equal(model_scores(trace, state).data, [1.0])


def test_model_scores_zero_overall_transform_matches_script():
    # With the overall-side transform zeroed, each raw score collapses to
    # 0.5 * sum(sigmoid(token transform)); verified against plain numpy.
    state, hp = _random_model(seed=3)
    state.tensors["w_score_overall"].data[...] = 0.0
    state.tensors["b_score_overall"].data[...] = 0.0
    rng = np.random.default_rng(7)
    rows = rng.uniform(-1, 1, (5, hp.hidden))
    trace = ForwardTrace(batch=_batch_of_one(5))
    trace.hidden_layers = [Tensor(rows)]
    trace.overall = Tensor(rng.uniform(-1, 1, (1, 2 * hp.hidden)))
    mod = model_scores(trace, state).data

    w, b = state.tensors["w_score_token"].data, state.tensors["b_score_token"].data
    token_sig = 1.0 / (1.0 + np.exp(-(rows @ w.T + b)))
    raw = 0.5 * token_sig.sum(axis=1)
    expected = np.exp(raw - raw.max())
    expected /= expected.sum()
    npt.assert_allclose(mod, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# consistency loss


def test_consistency_loss_zero_when_equal():
    p = np.array([0.2, 0.5, 0.3])
    assert abs(consistency_loss(p, Tensor(p)).item()) < 1e-12


def test_consistency_loss_point_mass_vs_uniform():
    out = consistency_loss(np.array([1.0, 0.0]), Tensor(np.array([0.5, 0.5]))).item()
    assert out == pytest.approx(np.log(2.0), abs=1e-6)


def test_consistency_loss_hand_value():
    out = consistency_loss(np.array([0.7, 0.3]), Tensor(np.array([0.3, 0.7]))).item()
    expected = 0.7 * np.log(7.0 / 3.0) + 0.3 * np.log(3.0 / 7.0)
    assert out == pytest.approx(expected, abs=1e-10)
    assert out == pytest.approx(0.3389, abs=1e-4)


def test_consistency_loss_nonnegative_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 10))
        syn = rng.dirichlet(np.ones(n))
        mod = rng.dirichlet(np.ones(n))
        assert consistency_loss(syn, Tensor(mod)).item() >= -1e-12


def test_consistency_loss_gradient_targets_model_scores_only():
    syn_tensor = Tensor(np.array([0.6, 0.4]), trainable=True)
    mod = Tensor(np.array([0.3, 0.7]), trainable=True)
    loss = consistency_loss(syn_tensor, mod)
    backward(loss)
    npt.assert_array_equal(syn_tensor.grad, [0.0, 0.0])
    assert np.any(mod.grad != 0.0)
    numeric = numeric_gradient(lambda: consistency_loss(syn_tensor, mod).item(), mod)
    assert relative_error(mod.grad, numeric, floor=1e-3).max() < 1e-4


def test_consistency_loss_length_mismatch():
    with pytest.raises(DimensionError):
        consistency_loss(np.array([1.0]), Tensor(np.array([0.5, 0.5])))


# ---------------------------------------------------------------------------
# prediction


def test_predict_zero_weights_uniform():
    state, hp = _random_model()
    for name in ("w_cls_hidden", "b_cls_hidden", "w_cls_out", "b_cls_out"):
        state.tensors[name].data[...] = 0.0
    probs = predict(Tensor(np.linspace(-1, 1, 2 * hp.hidden)[None, :]), state)
    npt.assert_allclose(probs.data, [[1 / 3] * 3], atol=1e-15)


def test_predict_sums_to_one_on_random_weights():
    state, hp = _random_model(seed=5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        probs = predict(Tensor(rng.uniform(-2, 2, (1, 2 * hp.hidden))), state)
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs.data > 0)


def test_perfect_prediction_loss_near_zero():
    from absa_gcn.model import prediction_loss

    probs = Tensor(np.array([1.0 - 2e-9, 1e-9, 1e-9]))
    assert prediction_loss(probs, 0).item() == pytest.approx(0.0, abs=1e-8)
    assert prediction_loss(probs, 1).item() == pytest.approx(-np.log(1e-9), abs=1e-6)


# ---------------------------------------------------------------------------
# total loss: term algebra and ablations


def _fixed_example():
    return _example(["alpha", "beta", "gamma", "delta"], [-1, 0, 0, 2], span=(1, 2), label="positive")


def test_total_loss_term_removal():
    state, _ = _random_model(seed=9, div_on=False, con_on=False)
    loss, trace = total_loss(_fixed_example(), state)
    assert loss.item() == pytest.approx(trace.losses.pred, abs=1e-15)
    assert trace.losses.div == 0.0 and trace.losses.const == 0.0


def test_total_loss_weight_zeroing_leaves_div():
    state, _ = _random_model(seed=9, alpha=0.0, beta=0.0)
    loss, trace = total_loss(_fixed_example(), state)
    assert loss.item() == pytest.approx(trace.losses.div, abs=1e-15)
    assert trace.losses.div > 0.0


def test_ablation_flags_do_not_touch_prediction_term():
    state, _ = _random_model(seed=13)
    ex = _fixed_example()
    variants = [{"div_on": False}, {"con_on": False}, {"div_on": False, "con_on": False}, {"gatediv_baseline": True}]
    _, full_trace = total_loss(ex, state)
    for changes in variants:
        _, trace = total_loss(ex, _with(state, **changes))
        assert trace.losses.pred == full_trace.losses.pred
        npt.assert_array_equal(trace.class_probs.data, full_trace.class_probs.data)


def test_a_clone_shares_the_vocabulary_and_copies_every_array():
    state, _ = _random_model(seed=23, tokens=("Alpha", "beta", "GAMMA", "delta"))
    clone = state.clone()
    for token in ("Alpha", "alpha", "ALPHA", "beta", "Beta", "gamma", "GAMMA", "zeta", ""):
        assert clone.table.row_index(token) == state.table.row_index(token)
    assert state.table.row_index("zeta") == state.table.unk_index
    assert clone.table.vocabulary is state.table.vocabulary
    assert clone.table.vectors.trainable == state.table.vectors.trainable
    npt.assert_array_equal(clone.table.vectors.data, state.table.vectors.data)
    assert not np.shares_memory(clone.table.vectors.data, state.table.vectors.data)
    for (name, a), (_, b) in zip(state.named_tensors(), clone.named_tensors()):
        assert not np.shares_memory(a.data, b.data), name
    clone.table.vectors.data[0] += 1.0
    assert not np.array_equal(clone.table.vectors.data[0], state.table.vectors.data[0])


def test_gate_off_equals_saturated_ones_gates():
    state, _ = _random_model(seed=21)
    ex = _fixed_example()
    _, trace_off = total_loss(ex, _with(state, gate_on=False))

    forced = state.clone()
    for l in range(2):
        forced.tensors[f"w_gate_{l}"].data[...] = 0.0
        forced.tensors[f"b_gate_{l}"].data[...] = 1000.0  # sigmoid saturates to exactly 1.0
    _, trace_on = total_loss(ex, _with(forced, div_on=False))

    assert (len(trace_off.gates), len(trace_on.gates)) == (0, 1)  # only the last layer's gate is read
    assert len(trace_off.pooled_regulated) == len(trace_on.pooled_regulated) == 1
    npt.assert_array_equal(trace_off.pooled_regulated[0].data, trace_on.pooled_regulated[0].data)
    npt.assert_array_equal(trace_off.mod.data, trace_on.mod.data)
    npt.assert_array_equal(trace_off.class_probs.data, trace_on.class_probs.data)
    assert trace_off.losses.div == 0.0


def test_gate_off_forces_diversity_off():
    state, _ = _random_model(seed=22)
    ex = _fixed_example()
    _, trace = total_loss(ex, _with(state, gate_on=False, div_on=True))
    assert trace.losses.div == 0.0


def test_single_layer_diversity_is_zero():
    state, hp = _random_model(seed=23, layers=1)
    _, trace = total_loss(_fixed_example(), state)
    assert trace.losses.div == 0.0


def test_gatediv_baseline_used_when_flagged():
    state, _ = _random_model(seed=25, gatediv_baseline=True)
    _, trace = total_loss(_fixed_example(), state)
    expected = gatediv_baseline_loss(trace.gates).item()
    assert trace.losses.div == pytest.approx(expected, abs=1e-15)


def test_trace_invariants_on_random_forward():
    state, hp = _random_model(seed=31)
    _, trace = total_loss(_fixed_example(), state)
    assert trace.syn.sum() == pytest.approx(1.0, abs=1e-9)
    assert trace.mod.data.sum() == pytest.approx(1.0, abs=1e-9)
    assert trace.class_probs.data.sum() == pytest.approx(1.0, abs=1e-9)
    for gate in trace.gates:
        assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)


def test_aspect_span_changes_prediction():
    state, hp = _random_model(seed=17)
    tokens = ["alpha", "beta", "gamma", "delta"]
    heads = [-1, 0, 0, 2]
    a = _example(tokens, heads, span=(1, 2), label="positive")
    b = _example(tokens, heads, span=(3, 4), label="positive")
    _, trace_a = total_loss(a, state)
    _, trace_b = total_loss(b, state)
    assert np.abs(trace_a.class_probs.data - trace_b.class_probs.data).max() > 1e-12
    for ga, gb in zip(trace_a.gates, trace_b.gates):
        assert np.abs(ga.data - gb.data).max() > 1e-12


def test_shape_stability_across_sizes():
    rng = np.random.default_rng(55)
    for layers in (1, 2, 3):
        hp = HyperParams(hidden=6, layers=layers)
        for n in (1, 2, 3, 7, 20, 50):
            heads = random_tree_heads(n, rng)
            ex = _example([f"t{i % 9}" for i in range(n)], heads, span=(0, 1), label="negative")
            table = build_random_table([ex], dim=4, seed=rng)
            state = ModelState.initialize(table, hp, rng, weight_scale=0.3, bias_scale=0.1)
            _, trace = total_loss(ex, state)
            assert trace.embeddings.shape == (n, 4)
            assert trace.aspect_vec.shape == (1, 4)
            assert trace.sentence_vec.shape == (1, 6)
            assert len(trace.hidden_layers) == layers
            assert all(h.shape == (n, 6) for h in trace.hidden_layers)
            assert all(g.shape == (1, 6) for g in trace.gates)
            assert all(p.shape == (1, 6) for p in trace.pooled_regulated)
            assert trace.overall.shape == (1, 12)
            assert trace.syn.shape == (n,)
            assert trace.mod.shape == (n,)
            assert trace.class_probs.shape == (1, 3)


# ---------------------------------------------------------------------------
# the tape of a batch


def _tape_ops(hp: HyperParams, examples) -> list[str]:
    table = build_random_table(examples, dim=6, seed=0)
    state = ModelState.initialize(table, hp, np.random.default_rng(1), weight_scale=0.4, bias_scale=0.2)
    loss, _ = total_loss(examples, state)
    return [entry.op for entry in Tape.trace(loss).entries]


def test_a_batch_tape_has_one_linear_node_per_affine_map():
    rng = np.random.default_rng(8)
    ops = _tape_ops(HyperParams(hidden=8, layers=2), [random_example(rng) for _ in range(32)])
    # sentence, two GCN layers, two gates, two importance scores, two classifier maps
    assert ops.count("linear") == 9
    assert len(ops) == 55
    # the embeddings and each layer are pooled once; one table lookup; only the last layer's token rows
    # are gated (one spread), and the overall vectors are spread over the tokens once for the scores
    assert (ops.count("maxpool_rows"), ops.count("gather_rows"), ops.count("spread_rows")) == (3, 1, 2)
    assert ops.count("mul") == 5


def test_a_three_layer_tape_pools_each_layer_once():
    rng = np.random.default_rng(8)
    ops = _tape_ops(HyperParams(hidden=8, layers=3), [random_example(rng) for _ in range(32)])
    assert len(ops) == 70
    # the embeddings and three layers are pooled once each; the last layer's gated token rows,
    # then 3 own-gate and 6 cross-gate (B, hidden) products
    assert (ops.count("maxpool_rows"), ops.count("mul")) == (4, 1 + 3 + 6)


# Ops on each variant's tape at 1, 2 and 3 layers.
TAPE_SIZES = {
    "full": (40, 55, 70),
    "-Div": (40, 43, 46),
    "-Con": (24, 39, 54),
    "-Div-Con": (24, 27, 30),
    "-Gate": (34, 37, 40),
    "-Gate-Con": (20, 23, 26),
    "GateDiv": (40, 51, 60),
}


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
def test_a_variant_records_only_what_its_loss_reads(monkeypatch, variant, layers):
    """Every op recorded during ``total_loss`` is on the loss's tape, and an off term adds none."""
    rng = np.random.default_rng(8)
    examples = [random_example(rng) for _ in range(4)]
    hp = HyperParams(hidden=8, layers=layers, **ABLATION_VARIANTS[variant])
    state = ModelState.initialize(build_random_table(examples, dim=6, seed=0), hp, np.random.default_rng(1))
    recorded = []
    record = tensor_module._record

    def recording(*args):
        recorded.append(record(*args))
        return recorded[-1]

    monkeypatch.setattr(tensor_module, "_record", recording)
    loss, _ = total_loss(examples, state)
    monkeypatch.undo()
    on_tape = {id(entry) for entry in Tape.trace(loss).entries}
    assert [t.op for t in recorded if id(t) not in on_tape] == []
    assert len(recorded) == len(on_tape) == TAPE_SIZES[variant][layers - 1]


def test_the_model_calls_every_op_of_the_tensor_library():
    """An op that no variant of the model records on its tape has no caller and should go."""
    public_ops = {
        name for name, fn in vars(tensor_module).items()
        if callable(fn) and getattr(fn, "__module__", None) == tensor_module.__name__
        and not isinstance(fn, type) and not name.startswith("_") and name != "backward"
    }
    rng = np.random.default_rng(9)
    examples = [random_example(rng) for _ in range(4)]
    variants = [*ABLATION_VARIANTS.values(), {"include_self_loop": False}]
    recorded = set()
    for variant in variants:
        recorded.update(_tape_ops(HyperParams(hidden=8, layers=2, **variant), examples))
    assert public_ops - recorded == set()
    assert recorded <= public_ops


def test_the_ops_the_tensor_library_records_are_the_ops_on_the_variants_tapes():
    """The op names ``tensor.py`` passes to ``_record`` equal those on the tapes of every variant at 1, 2 and 3 layers."""
    calls = [
        node for node in ast.walk(ast.parse(inspect.getsource(tensor_module)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_record"
    ]
    assert all(isinstance(call.args[1], ast.Constant) for call in calls)  # a computed name would go unread
    recordable = {call.args[1].value for call in calls}
    rng = np.random.default_rng(9)
    examples = [random_example(rng) for _ in range(4)]
    on_tapes = set()
    for variant in ABLATION_VARIANTS.values():
        for layers in (1, 2, 3):
            on_tapes.update(_tape_ops(HyperParams(hidden=8, layers=layers, **variant), examples))
    assert recordable == on_tapes


# ---------------------------------------------------------------------------
# independent full-forward oracle (shared with the trainer tests)


@pytest.mark.parametrize("kwargs", [
    {},
    {"gate_on": False},
    {"div_on": False},
    {"con_on": False},
    {"gatediv_baseline": True},
    {"include_self_loop": False},
    {"alpha": 0.25, "beta": 3.0},
])
def test_total_loss_matches_independent_oracle(kwargs):
    state, hp = _random_model(seed=101, **kwargs)
    ex = _fixed_example()
    loss, trace = total_loss(ex, state)
    expected = oracle_losses(ex, state, hp)
    assert trace.losses.div == pytest.approx(expected["div"], abs=1e-10)
    assert trace.losses.const == pytest.approx(expected["const"], abs=1e-10)
    assert trace.losses.pred == pytest.approx(expected["pred"], abs=1e-10)
    assert loss.item() == pytest.approx(expected["total"], abs=1e-10)
    npt.assert_allclose(trace.class_probs.data[0], expected["probs"], atol=1e-10)
    mod = trace.mod if hp.con_on else model_scores(trace, state)  # a -Con pass builds no scores
    npt.assert_allclose(mod.data, expected["mod"], atol=1e-10)
    npt.assert_allclose(trace.syn, expected["syn"], atol=1e-10)


def test_total_loss_matches_oracle_on_random_instances():
    rng = np.random.default_rng(202)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        layers = int(rng.integers(1, 4))
        heads = random_tree_heads(n, rng)
        start = int(rng.integers(n))
        end = min(n, start + 1 + int(rng.integers(2)))
        ex = _example([f"t{i % 5}" for i in range(n)], heads, span=(start, end), label="negative")
        hp = HyperParams(hidden=7, layers=layers)
        table = build_random_table([ex], dim=5, seed=rng)
        state = ModelState.initialize(table, hp, rng, weight_scale=0.5, bias_scale=0.3)
        loss, trace = total_loss(ex, state)
        expected = oracle_losses(ex, state, hp)
        assert loss.item() == pytest.approx(expected["total"], abs=1e-10)


# ---------------------------------------------------------------------------
# end-to-end gradients


def test_end_to_end_gradient_check_small_model():
    from absa_gcn.gradcheck import build_check_setup

    for seed in (0, 1):
        ex, state = build_check_setup(seed=seed, tokens=4, embed_dim=6, hp=HyperParams(hidden=6, layers=2))
        report = check_model_gradients(ex, state)
        assert report.passed, report.lines()[-1]


def test_gradient_check_fails_on_a_nan_weight():
    from absa_gcn.gradcheck import build_check_setup

    ex, state = build_check_setup(seed=0)
    state.tensors["w_cls_out"].data[0, 0] = float("nan")
    report = check_model_gradients(ex, state)
    assert any(np.isnan(err) for err in report.per_parameter.values())
    assert not report.passed
    assert any(line.startswith("FAIL") for line in report.lines())


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    state, hp = _random_model(seed=77)
    examples = [
        _fixed_example(),
        _example(["alpha", "gamma"], [-1, 0], span=(0, 1), label="negative"),
    ]
    path = tmp_path / "model.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)

    assert loaded.hp == state.hp
    assert loaded.table.vocabulary == state.table.vocabulary
    for (name_a, a), (name_b, b) in zip(state.parameters(), loaded.parameters()):
        assert name_a == name_b
        npt.assert_array_equal(a.data, b.data)
    for ex in examples:
        loss_a, trace_a = total_loss(ex, state)
        loss_b, trace_b = total_loss(ex, loaded)
        assert loss_a.item() == loss_b.item()
        npt.assert_array_equal(trace_a.class_probs.data, trace_b.class_probs.data)
        npt.assert_array_equal(trace_a.mod.data, trace_b.mod.data)


EDGE_VALUES = [-0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308, -1.7976931348623157e308]


def _edge_model(seed):
    """A model whose tensors hold signed zero, tiny, subnormal and extreme finite values."""
    state, _ = _random_model(seed=seed)
    state.table.vectors.data[1, : len(EDGE_VALUES)] = EDGE_VALUES
    state.tensors["w_cls_out"].data[0, : len(EDGE_VALUES)] = EDGE_VALUES
    state.tensors["b_cls_out"].data[:] = EDGE_VALUES[:3]
    return state


def _assert_bit_equal(state, loaded):
    assert loaded.hp == state.hp
    assert loaded.table.vocabulary == state.table.vocabulary
    assert (loaded.table.dim, loaded.table.unk_index) == (state.table.dim, state.table.unk_index)
    assert loaded.table.vectors.trainable == state.table.vectors.trainable
    assert [name for name, _ in loaded.parameters()] == [name for name, _ in state.parameters()]
    for (_, a), (_, b) in zip(state.parameters(), loaded.parameters()):
        assert (a.data.dtype, a.shape) == (b.data.dtype, b.shape)
        assert a.data.tobytes() == b.data.tobytes()


def test_checkpoint_round_trips_every_bit(tmp_path):
    state = _edge_model(seed=78)
    path = tmp_path / "model.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    _assert_bit_equal(state, loaded)
    again = tmp_path / "again.bin"
    save_checkpoint(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_a_loaded_table_keeps_its_values_when_the_model_writes_or_the_file_is_saved_over(tmp_path, monkeypatch):
    # A loaded table maps the file copy-on-write (here whatever its size): a
    # write into the table changes the model, not the file, and a save over
    # the file renames a new one into place and leaves the mapped one as it was.
    monkeypatch.setattr(model_module, "_MAP_TABLE_BYTES", 0)
    state = _edge_model(seed=81)
    path = tmp_path / "model.bin"
    save_checkpoint(path, state)
    saved = path.read_bytes()
    loaded = load_checkpoint(path)
    assert not loaded.table.vectors.data.flags.owndata
    loaded.table.vectors.data[0] = 0.5
    assert path.read_bytes() == saved
    assert load_checkpoint(path).table.vectors.data[0].tobytes() == state.table.vectors.data[0].tobytes()
    loaded.table.vectors.data[0] = state.table.vectors.data[0]
    save_checkpoint(path, _random_model(seed=82)[0])
    assert path.read_bytes() != saved
    _assert_bit_equal(state, loaded)


def _frame_block_starts(raw: bytes, shapes) -> list[int]:
    """The offset of each block of the frame ``raw``, whose blocks hold float64 arrays of ``shapes``."""
    offset = len(raw) - len(split_frame(raw)[2])
    starts = []
    for shape in shapes:
        starts.append(offset)
        offset += 8 * math.prod(shape)
    assert offset == len(raw)
    return starts


def _cache_beside(tmp_path, name, text):
    """An embedding file of ``text``, loaded once so that its cache lies beside it, and that cache's path."""
    vectors = tmp_path / name
    vectors.write_text(text)
    load_embeddings(vectors)
    return vectors, tmp_path / (name + data_module._TABLE_CACHE_SUFFIX)


def test_every_block_of_a_checkpoint_and_a_cache_starts_at_a_multiple_of_8(tmp_path, monkeypatch):
    # One word grows a byte at a time, so the headers take every length modulo 8.
    monkeypatch.setattr(model_module, "_MAP_TABLE_BYTES", 0)
    monkeypatch.setattr(data_module, "_TABLE_CACHE_BYTES", 0)
    for k in range(1, 9):
        path = tmp_path / f"model{k}.bin"
        save_checkpoint(path, _random_model(seed=84, tokens=("alpha", "beta", "w" * k))[0])
        raw = path.read_bytes()
        starts = _frame_block_starts(raw, [t["shape"] for t in split_frame(raw)[1]["tensors"]])
        _, cache = _cache_beside(tmp_path, f"vectors{k}.txt", f"{'w' * k} 0.5 1.5\nb 2.5 3.5\n")
        raw = cache.read_bytes()
        starts += _frame_block_starts(raw, [(3, split_frame(raw)[1]["dim"])])
        assert [start % 8 for start in starts] == [0] * len(starts), k
        assert load_checkpoint(path).table.vectors.data.flags.aligned


def test_an_unpadded_frame_loads_to_the_bytes_of_its_padded_twin(tmp_path, monkeypatch):
    # Frames written before the header was padded end their JSON without spaces.
    monkeypatch.setattr(data_module, "_TABLE_CACHE_BYTES", 0)
    state = _edge_model(seed=85)
    path = tmp_path / "model.bin"
    save_checkpoint(path, state)
    padded = path.read_bytes()
    path.write_bytes(join_frame(*split_frame(padded)))
    assert len(path.read_bytes()) < len(padded)
    _assert_bit_equal(state, load_checkpoint(path))

    vectors, cache = _cache_beside(tmp_path, "vectors.txt", "a 0.5 1.5\nbb 2.5 -3.5e-300\n")
    expected = load_embeddings(vectors).vectors.data.tobytes()
    padded = cache.read_bytes()
    cache.write_bytes(join_frame(*split_frame(padded)))
    assert len(cache.read_bytes()) < len(padded)
    with mock.patch.multiple(data_module, _read_canonical_embeddings=None, _parse_embedding_lines=None):
        assert load_embeddings(vectors).vectors.data.tobytes() == expected
    assert cache.read_bytes() == join_frame(*split_frame(padded))


class _DiskFull:
    """A file whose writes fail after the first ``allowed``."""

    def __init__(self, fh, allowed):
        self.fh, self.allowed = fh, allowed

    def write(self, data):
        if self.allowed == 0:
            raise OSError("disk full")
        self.allowed -= 1
        return self.fh.write(data)


def test_checkpoint_save_replaces_the_file_whole_or_not_at_all(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    old, _ = _random_model(seed=79)
    save_checkpoint(path, old)
    before = path.read_bytes()
    real = data_module.write_atomically

    @contextlib.contextmanager
    def fail_after_the_header(target, **kwargs):
        with real(target, **kwargs) as fh:
            yield _DiskFull(fh, allowed=1)

    monkeypatch.setattr(data_module, "write_atomically", fail_after_the_header)
    with pytest.raises(OSError):
        save_checkpoint(path, _random_model(seed=80)[0])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


def test_checkpoint_with_a_non_finite_value_is_not_saved(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _random_model(seed=79)[0])
    before = path.read_bytes()
    state, _ = _random_model(seed=80)
    state.tensors["b_cls_out"].data[1] = float("nan")
    with pytest.raises(CheckpointError, match="tensor 'b_cls_out' holds a non-finite value"):
        save_checkpoint(path, state)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.bin"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text('{"format": "absa-gcn-checkpoint", "version": 1}')
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(np.random.default_rng(0).bytes(2000))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _with_shape(header, name, shape):
    return {**header, "tensors": [{**t, "shape": shape} if t["name"] == name else t for t in header["tensors"]]}


def _renamed(header, name, new_name):
    return {**header, "tensors": [{**t, "name": new_name} if t["name"] == name else t for t in header["tensors"]]}


def _with_hyperparams(header, **changes):
    return {**header, "hyperparams": {**header["hyperparams"], **changes}}


def _poison_block(header, body, name="b_cls_out", value=np.nan):
    """The tensor bytes with the last value of tensor ``name`` set to ``value``."""
    end = 0
    for t in header["tensors"]:
        end += 8 * int(np.prod(t["shape"]))
        if t["name"] == name:
            return body[: end - 8] + np.array([value], dtype="<f8").tobytes() + body[end:]
    raise AssertionError(f"no {name}")


@pytest.mark.parametrize(
    "tamper, message",
    [(lambda h, b: (h, _poison_block(h, b, "embeddings", np.inf)), "non-finite")],
)
def test_checkpoint_must_match_the_shapes_of_its_hyperparameters(tmp_path, tamper, message):
    # Header edits that break a shape are cases of the version 2 test below;
    # this one keeps every shape and puts an infinity in the embedding table.
    path = tmp_path / "model.bin"
    save_checkpoint(path, _random_model(seed=81)[0])
    magic, header, body = split_frame(path.read_bytes())
    path.write_bytes(join_frame(magic, *tamper(header, body)))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda m, h, b: join_frame(b"\x93ABSAGCX", h, b), "not a valid checkpoint"),
        (lambda m, h, b: m + (10**9).to_bytes(8, "little") + json.dumps(h).encode(), "runs past the end"),
        (lambda m, h, b: join_frame(m, h, b, header_bytes=b"not json"), "not a valid checkpoint"),
        (lambda m, h, b: join_frame(m, {**h, "dtype": ">f8"}, b), "dtype"),
        (lambda m, h, b: join_frame(m, {**h, "version": 3}, b), "not a version 2 checkpoint"),
        (
            lambda m, h, b: join_frame(m, _with_shape(h, "w_cls_out", [8, 3]), b),
            "tensor 'w_cls_out' has shape (8, 3), expected (3, 8)",
        ),
        (lambda m, h, b: join_frame(m, {**h, "tensors": h["tensors"][:-1]}, b[:-24]), "lists 18 tensors, not the 19"),
        (
            lambda m, h, b: join_frame(m, {**h, "tensors": [*h["tensors"], {"name": "w_extra", "shape": [1]}]}, b + bytes(8)),
            "lists 20 tensors, not the 19",
        ),
        (
            lambda m, h, b: join_frame(m, _renamed(h, "w_gate_0", "w_extra"), b),
            "the header lists tensor 'w_extra' where the model has 'w_gate_0'",
        ),
        (
            lambda m, h, b: join_frame(m, {**h, "tensors": [*h["tensors"][:-2], *h["tensors"][:-3:-1]]}, b),
            "the header lists tensor 'b_cls_out' where the model has 'w_cls_out'",
        ),
        (lambda m, h, b: join_frame(m, h, b)[:-1], "bytes, its header implies"),
        (lambda m, h, b: join_frame(m, h, b) + b"\0", "bytes, its header implies"),
        (lambda m, h, b: join_frame(m, h, _poison_block(h, b)), "tensor 'b_cls_out' holds a non-finite value"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, layers=1), b), "lists 19 tensors, not the 15 of a 1-layer"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, layers=10**9), b), "not the 4000000011 of a 1000000000-layer"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, hidden=9), b), "tensor 'w_sent' has shape"),
        (lambda m, h, b: join_frame(m, {**h, "embedding_dim": 5}, b), "tensor 'embeddings' has shape"),
        (lambda m, h, b: join_frame(m, {**h, "vocabulary": h["vocabulary"][:-1]}, b), "tensor 'embeddings' has shape"),
        (
            lambda m, h, b: join_frame(m, {**h, "vocabulary": [*h["vocabulary"][:-1], h["vocabulary"][0]]}, b),
            "the vocabulary lists 4 words, of which 3 differ",
        ),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, hidden=8.0), b), "hidden must be of type int, got 8.0"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, layers="2"), b), "layers must be of type int, got '2'"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, layers=True), b), "layers must be of type int, got True"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, gate_on="no"), b), "gate_on must be of type bool, got 'no'"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, div_on=1), b), "div_on must be of type bool, got 1"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, alpha=False), b), "alpha must be of type float, got False"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, beta="1.0"), b), "beta must be of type float, got '1.0'"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, beta=10**400), b), "beta must be finite and non-negative"),
        (lambda m, h, b: join_frame(m, {**h, "embedding_dim": 6.0}, b), "embedding_dim 6.0 is not a positive integer"),
        (lambda m, h, b: join_frame(m, {**h, "embedding_dim": 0}, b), "embedding_dim 0 is not a positive integer"),
        (lambda m, h, b: join_frame(m, {**h, "embeddings_trainable": "yes"}, b), "embeddings_trainable 'yes' is not true or false"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, normalize_div=True), b), "trained with normalize_div"),
        (lambda m, h, b: join_frame(m, _with_hyperparams(h, normalize_div=None), b), "trained with normalize_div"),
    ],
    ids=[
        "bad-magic", "header-past-end", "header-not-json", "dtype", "version", "shape",
        "missing-name", "extra-name", "renamed", "reordered", "one-byte-short", "one-byte-over", "non-finite",
        "layers-1", "layers-1e9", "hidden-9", "embedding-dim-5", "word-missing", "word-repeated",
        "hidden-float", "layers-str", "layers-bool", "gate-str", "div-int", "alpha-bool", "beta-str", "beta-huge",
        "embedding-dim-float", "embedding-dim-0", "trainable-str", "normalize-div-true", "normalize-div-null",
    ],
)
def test_version_2_checkpoint_is_validated_before_use(tmp_path, corrupt, message):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _random_model(seed=82)[0])
    path.write_bytes(corrupt(*split_frame(path.read_bytes())))
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(path)


def test_a_header_that_stores_normalize_div_false_loads_the_same_model(tmp_path):
    # Every checkpoint written while the setting existed stores it, false unless a config file set it.
    state = _edge_model(seed=83)
    path = tmp_path / "model.bin"
    save_checkpoint(path, state)
    magic, header, body = split_frame(path.read_bytes())
    assert "normalize_div" not in header["hyperparams"]
    path.write_bytes(join_frame(magic, _with_hyperparams(header, normalize_div=False), body))
    _assert_bit_equal(state, load_checkpoint(path))


@pytest.mark.parametrize("layers", [1, 2, 3, 5])
def test_parameter_bytes_are_those_of_the_model_built(layers):
    state, hp = _random_model(seed=86, dim=5, hidden=7, layers=layers)
    rows = len(state.table.vectors.data)
    tensors = state.parameters()
    assert parameter_bytes(hp, 5, rows) == sum(t.data.nbytes for _, t in tensors) + TENSOR_OBJECT_BYTES * len(tensors)


def test_a_tensor_is_counted_at_least_the_memory_python_takes_for_it():
    # Hidden 1 and many layers: the objects, not the values, hold nearly all of the model's memory.
    table = build_random_table([_fixed_example()], dim=1, seed=3)
    hp = HyperParams(hidden=1, layers=1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = ModelState.initialize(table, hp, np.random.default_rng(0))
        taken = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    values = sum(t.data.nbytes for t in state.tensors.values())
    assert taken - values <= TENSOR_OBJECT_BYTES * len(state.tensors)
    assert parameter_bytes(hp, 1, 0) >= taken


def test_trainer_init_keeps_biases_zero_and_weights_bounded():
    ex = _fixed_example()
    table = build_random_table([ex], dim=5, seed=3)
    state = init_model_state(table, HyperParams(hidden=6, layers=2), seed=3)
    for name, t in state.named_tensors():
        if name.startswith("b_"):
            npt.assert_array_equal(t.data, np.zeros_like(t.data))
        else:
            assert np.all(np.abs(t.data) <= 0.1)
