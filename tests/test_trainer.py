import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from absa_gcn import trainer as trainer_module
from absa_gcn.data import Example, build_random_table
from absa_gcn.model import HyperParams, total_loss
from absa_gcn.optim import AdamState, adam_step
from absa_gcn.tensor import add_n, backward, scale
from absa_gcn.trainer import (
    TrainConfig,
    compute_metrics,
    evaluate,
    init_model_state,
    run_ablations,
    train,
)
from conftest import oracle_losses
from corpora import make_overfit_corpus


def _tiny_corpus(n=12, seed=0):
    return make_overfit_corpus(n, seed=seed)


# ---------------------------------------------------------------------------
# metrics


def test_perfect_predictions():
    m = compute_metrics([0, 1, 2, 0], [0, 1, 2, 0])
    assert m.accuracy == 1.0
    assert m.macro_f1 == 1.0


def test_macro_f1_hand_computed_confusion():
    # pos: tp=2 fp=1 fn=1; neu: tp=1 fp=0 fn=0; neg: tp=0 fp=1 fn=1
    golds = [0, 0, 0, 1, 2]
    preds = [0, 0, 2, 1, 0]
    m = compute_metrics(golds, preds)
    assert m.per_class["positive"]["f1"] == pytest.approx(2 / 3, abs=1e-12)
    assert m.per_class["neutral"]["f1"] == 1.0
    assert m.per_class["negative"]["f1"] == 0.0
    assert m.macro_f1 == pytest.approx((2 / 3 + 1.0 + 0.0) / 3, abs=1e-12)
    assert m.macro_f1 == pytest.approx(0.5556, abs=1e-4)


def test_macro_f1_permutation_invariant():
    rng = np.random.default_rng(4)
    golds = list(rng.integers(0, 3, 60))
    preds = list(rng.integers(0, 3, 60))
    base = compute_metrics(golds, preds)
    order = rng.permutation(60)
    shuffled = compute_metrics([golds[i] for i in order], [preds[i] for i in order])
    assert base.macro_f1 == shuffled.macro_f1
    assert base.accuracy == shuffled.accuracy


def test_absent_class_contributes_zero_f1():
    m = compute_metrics([0, 0], [0, 0])
    assert m.accuracy == 1.0
    assert m.macro_f1 == pytest.approx(1 / 3, abs=1e-12)


def test_metrics_need_nonempty_input():
    with pytest.raises(ValueError):
        compute_metrics([], [])


def test_majority_class_baseline_on_mams_dev_shape():
    # Class counts 403/604/325; a constant-neutral model must score 604/1332.
    counts = {"positive": 403, "neutral": 604, "negative": 325}
    corpus = []
    for label, count in counts.items():
        corpus.extend(
            Example(tokens=["w"], heads=[-1], aspect_from=0, aspect_to=1, label=label)
            for _ in range(count)
        )
    table = build_random_table(corpus, dim=3, seed=0)
    model = init_model_state(table, HyperParams(hidden=3, layers=1), seed=0)
    for name, t in model.named_tensors():
        t.data[...] = 0.0
    model.tensors["b_cls_out"].data[...] = [0.0, 5.0, 0.0]  # always predict neutral
    metrics = evaluate(model, corpus)
    assert metrics.accuracy == pytest.approx(604 / 1332, abs=1e-12)
    assert metrics.accuracy == pytest.approx(0.4535, abs=1e-4)


def test_evaluate_is_pure_and_deterministic():
    corpus = _tiny_corpus()
    table = build_random_table(corpus, dim=6, seed=1)
    model = init_model_state(table, HyperParams(hidden=6, layers=2), seed=1)
    a = evaluate(model, corpus)
    b = evaluate(model, corpus)
    assert a == b


def test_evaluate_empty_rejected():
    corpus = _tiny_corpus()
    table = build_random_table(corpus, dim=4, seed=0)
    model = init_model_state(table, HyperParams(hidden=4, layers=1), seed=0)
    with pytest.raises(ValueError):
        evaluate(model, [])


# ---------------------------------------------------------------------------
# training loop


def test_train_rejects_empty_training_set():
    with pytest.raises(ValueError):
        train([], config=TrainConfig(epochs=1))


def test_frozen_table_is_untouched_by_training():
    corpus = _tiny_corpus()
    hp = HyperParams(hidden=6, layers=2)
    table = build_random_table(corpus, dim=6, seed=1, trainable=False)
    before = table.vectors.data.copy()
    initial = init_model_state(table, hp, seed=1)
    weights = initial.tensors["w_sent"].data.copy()
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, seed=1, hyperparams=hp)
    model, _ = train(corpus, None, config, initial_state=initial)
    assert model.table.vectors is table.vectors
    assert table.vectors.data.tobytes() == before.tobytes()
    assert table.vectors.grad is None
    assert not np.array_equal(model.tensors["w_sent"].data, weights)  # the rest did train


def test_an_initial_state_must_carry_the_configs_hyperparameters():
    # The run trains with config.hyperparams and saves the state's own hp, so the two must agree.
    corpus = _tiny_corpus()
    hp = HyperParams(hidden=6, layers=2)
    initial = init_model_state(build_random_table(corpus, dim=6, seed=1), replace(hp, gate_on=False), seed=1)
    before = initial.tensors["w_sent"].data.copy()
    with pytest.raises(ValueError, match="hyperparameters"):
        train(corpus, None, TrainConfig(epochs=1, hyperparams=hp), initial_state=initial)
    assert initial.tensors["w_sent"].data.tobytes() == before.tobytes()


def test_epoch_zero_loss_matches_independent_oracle():
    corpus = _tiny_corpus()
    hp = HyperParams(hidden=6, layers=2)
    config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.001, seed=5, hyperparams=hp)
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    table = build_random_table(corpus, dim=hp.hidden, seed=seeds[0])
    initial = init_model_state(table, hp, seeds[1])
    reference = initial.clone()

    _, log = train(corpus, None, config, initial_state=initial)
    entry = log[0]
    assert entry["epoch"] == 0 and entry["split"] == "train"
    expected = [oracle_losses(ex, reference, hp) for ex in corpus]
    assert entry["loss_total"] == pytest.approx(
        float(np.mean([e["total"] for e in expected])), abs=1e-10
    )
    assert entry["loss_div"] == pytest.approx(
        float(np.mean([e["div"] for e in expected])), abs=1e-10
    )
    assert entry["loss_pred"] == pytest.approx(
        float(np.mean([e["pred"] for e in expected])), abs=1e-10
    )


def test_one_adam_step_decreases_batch_loss():
    corpus = _tiny_corpus(8, seed=3)
    hp = HyperParams(hidden=6, layers=2)
    table = build_random_table(corpus, dim=6, seed=9)
    model = init_model_state(table, hp, seed=9)

    def batch_loss():
        losses = [total_loss(ex, model)[0] for ex in corpus]
        return scale(add_n(losses), 1.0 / len(losses))

    before = batch_loss()
    model.zero_grads()
    backward(before)
    adam_step(model.parameters(), AdamState(learning_rate=1e-4))
    after = batch_loss()
    assert before.item() - after.item() > 0.0


def test_vanishing_learning_rate_freezes_metrics():
    corpus = _tiny_corpus()
    hp = HyperParams(hidden=5, layers=1)
    config = TrainConfig(epochs=4, batch_size=4, learning_rate=1e-30, seed=2, hyperparams=hp)
    _, log = train(corpus, corpus, config)
    dev_entries = [e for e in log if e["split"] == "dev" and e["epoch"] >= 1]
    assert len(dev_entries) == 4
    for entry in dev_entries[1:]:
        for key in ("accuracy", "macro_f1", "loss_total"):
            assert entry[key] == dev_entries[0][key]


def test_same_seed_gives_bitwise_identical_logs():
    corpus = _tiny_corpus()
    hp = HyperParams(hidden=6, layers=2)
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=0.005, seed=13, hyperparams=hp)
    _, log_a = train(corpus, corpus, config)
    _, log_b = train(corpus, corpus, config)
    assert json.dumps(log_a) == json.dumps(log_b)


def test_shuffle_changes_batch_order_but_not_determinism():
    corpus = _tiny_corpus(16, seed=8)
    hp = HyperParams(hidden=5, layers=1)
    base = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, seed=3, hyperparams=hp)
    no_shuffle = TrainConfig(
        epochs=2, batch_size=4, learning_rate=0.01, seed=3, hyperparams=hp, shuffle=False
    )
    _, log_a = train(corpus, None, base)
    _, log_b = train(corpus, None, no_shuffle)
    _, log_b2 = train(corpus, None, no_shuffle)
    assert json.dumps(log_b) == json.dumps(log_b2)
    assert json.dumps(log_a) != json.dumps(log_b)  # different batch order, different path


def test_best_epoch_selection_prefers_earliest_tie():
    corpus = _tiny_corpus()
    hp = HyperParams(hidden=5, layers=1)
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-30, seed=4, hyperparams=hp)
    best, log = train(corpus, corpus, config)
    # with a frozen model every epoch ties; the earliest (epoch 1) model wins,
    # which equals the final model here because nothing moves
    final, _ = train(corpus, corpus, config)
    for (na, a), (nb, b) in zip(best.parameters(), final.parameters()):
        npt.assert_array_equal(a.data, b.data)


def _best_epoch_run(trainable: bool):
    """A corpus, dev set, config and initial-state factory whose best dev epoch (2 of 6) is not the last."""
    corpus, dev = make_overfit_corpus(12, seed=32), make_overfit_corpus(8, seed=62)
    hp = HyperParams(hidden=6, layers=2)
    config = TrainConfig(epochs=6, batch_size=4, learning_rate=0.05, seed=2, hyperparams=hp)

    def initial():
        return init_model_state(build_random_table(corpus, dim=6, seed=2, trainable=trainable), hp, seed=2)

    return corpus, dev, config, initial


def _model_bytes(model) -> list[bytes]:
    return [model.table.vectors.data.tobytes()] + [t.data.tobytes() for _, t in model.named_tensors()]


@pytest.mark.parametrize("trainable", [True, False], ids=["trained-table", "frozen-table"])
def test_best_epoch_model_is_the_initial_state_byte_equal_to_a_run_stopped_there(trainable):
    # Training goes on for four epochs after the best one, so the model the
    # run returns holds the snapshot written back, not what it ended with.
    corpus, dev, config, initial = _best_epoch_run(trainable)
    state = initial()
    model, log = train(corpus, dev, config, initial_state=state)
    accuracies = [e["accuracy"] for e in log if e["split"] == "dev" and e["epoch"] >= 1]
    best = 1 + accuracies.index(max(accuracies))
    assert best == 2
    stopped, _ = train(corpus, None, replace(config, epochs=best), initial_state=initial())
    final, _ = train(corpus, None, config, initial_state=initial())
    assert model is state
    assert _model_bytes(model) == _model_bytes(stopped)
    assert _model_bytes(model) != _model_bytes(final)
    # The table moves after the best epoch only if it trains.
    assert (model.table.vectors.data.tobytes() != final.table.vectors.data.tobytes()) == trainable


def test_a_table_row_live_after_the_best_epoch_snapshot_raises(monkeypatch):
    # The snapshot holds only the table rows live when it was taken. A row
    # that goes live later (here the unknown-word row, which no training
    # example reaches, moved in epoch 3) could not be set back, so the run
    # must fail rather than return a model that mixes two epochs.
    corpus, dev, config, initial = _best_epoch_run(True)
    state = initial()
    unknown = state.table.unk_index

    def adam_step_moving_the_unknown_row(params, adam):
        if adam.step_count == 6:  # the first step of epoch 3: three batches per epoch
            state.table.vectors.grad[unknown] = 1.0
            state.table.vectors.grad_rows[unknown] = True
        adam_step(params, adam)

    monkeypatch.setattr(trainer_module, "adam_step", adam_step_moving_the_unknown_row)
    before = state.table.vectors.data[unknown].copy()
    with pytest.raises(RuntimeError, match="'embeddings' moved after the best epoch"):
        train(corpus, dev, config, initial_state=state)
    assert state.table.vectors.data[unknown].tobytes() != before.tobytes()


def test_without_dev_returns_final_model():
    corpus = _tiny_corpus()
    hp = HyperParams(hidden=5, layers=1)
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, seed=6, hyperparams=hp)
    model, log = train(corpus, None, config)
    assert model is not None
    assert all(e["split"] == "train" for e in log)


def test_overfit_small_separable_corpus():
    corpus = make_overfit_corpus(20, seed=1)
    hp = HyperParams()  # defaults: hidden 200, 2 layers
    config = TrainConfig(epochs=40, batch_size=32, learning_rate=0.001, seed=7, hyperparams=hp)
    _, log = train(corpus, None, config)
    accs = [e["accuracy"] for e in log if e["split"] == "train"]
    assert max(accs) == 1.0


# ---------------------------------------------------------------------------
# ablation driver


def test_ablation_driver_covers_all_variants_and_shares_init():
    corpus = _tiny_corpus(12, seed=5)
    dev = _tiny_corpus(6, seed=6)
    hp = HyperParams(hidden=5, layers=2)
    config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.005, seed=21, hyperparams=hp)
    results = run_ablations(corpus, dev, config)
    assert list(results) == ["full", "-Div", "-Con", "-Div-Con", "-Gate", "-Gate-Con", "GateDiv"]

    epoch0 = {name: r.log[0] for name, r in results.items()}
    # identical seeded initial parameters: the prediction term agrees within
    # each forward family (gates on vs replaced by ones)
    gated = {epoch0[n]["loss_pred"] for n in ("full", "-Div", "-Con", "-Div-Con", "GateDiv")}
    ungated = {epoch0[n]["loss_pred"] for n in ("-Gate", "-Gate-Con")}
    assert len(gated) == 1
    assert len(ungated) == 1

    for name in ("-Gate", "-Gate-Con"):
        for entry in results[name].log:
            assert entry["loss_div"] == 0.0
    for name in ("-Con", "-Div-Con", "-Gate-Con"):
        for entry in results[name].log:
            assert entry["loss_const"] == 0.0
    for name in ("-Div", "-Div-Con"):
        for entry in results[name].log:
            assert entry["loss_div"] == 0.0


def test_ablation_variant_subset_and_unknown_name():
    corpus = _tiny_corpus(8, seed=5)
    dev = _tiny_corpus(4, seed=6)
    config = TrainConfig(
        epochs=1, batch_size=4, learning_rate=0.005, seed=2,
        hyperparams=HyperParams(hidden=4, layers=2),
    )
    results = run_ablations(corpus, dev, config, variants=["full", "GateDiv"])
    assert list(results) == ["full", "GateDiv"]
    with pytest.raises(ValueError):
        run_ablations(corpus, dev, config, variants=["bogus"])


def test_gatediv_and_full_share_initial_state_but_diverge():
    corpus = _tiny_corpus(12, seed=15)
    dev = _tiny_corpus(6, seed=16)
    config = TrainConfig(
        epochs=3, batch_size=4, learning_rate=0.01, seed=3,
        hyperparams=HyperParams(hidden=6, layers=2),
    )
    results = run_ablations(corpus, dev, config, variants=["full", "GateDiv"])
    div_full = [e["loss_div"] for e in results["full"].log if e["split"] == "train"]
    div_gate = [e["loss_div"] for e in results["GateDiv"].log if e["split"] == "train"]
    assert all(np.isfinite(v) for v in div_full + div_gate)
    assert div_full != div_gate
    assert div_full[0] != div_gate[0]  # different similarity targets from step one
