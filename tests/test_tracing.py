"""The benchmark's tracer reaches every function it wraps on a default run.

``perfbench/tracer.py`` replaces each traced function under the name its
callers look it up by. If a caller stops using that name, the wrapper is
never called and the benchmark's per-layer metric for it reads 0 without any
error. A tiny seeded run with a dev set, then an evaluation, set up as the
benchmark sets up its rounds, plus a tiny embedding file, a run that
builds its own table and an ablation run (the one caller of
``ModelState.clone``), must call every traced function.
"""

import pathlib
import sys
from collections import Counter
from dataclasses import replace

from absa_gcn import data, trainer
from absa_gcn.model import HyperParams
from corpora import make_overfit_corpus

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import TRACED, Tracer  # noqa: E402


def test_a_default_run_calls_every_traced_function(tmp_path):
    corpus = make_overfit_corpus(12, seed=1)
    data.write_corpus(corpus[:8], tmp_path / "train.jsonl")
    data.write_corpus(corpus[8:], tmp_path / "dev.jsonl")
    tracer = Tracer()
    tracer.install()
    try:
        train_set = data.parse_corpus(tmp_path / "train.jsonl")
        dev_set = data.parse_corpus(tmp_path / "dev.jsonl")
        # Set up as the benchmark does: the table and the initial model outside ``train``.
        hp = HyperParams(hidden=4)
        state = trainer.init_model_state(data.build_random_table(train_set, dim=4, seed=1), hp, seed=2)
        config = trainer.TrainConfig(epochs=2, batch_size=4, seed=1, hyperparams=hp)
        model, _ = trainer.train(train_set, dev_set, config, initial_state=state)
        trainer.evaluate(model, dev_set)
        # As ``absa-gcn train`` does: an embedding file is read, and without one ``train`` builds the table.
        (tmp_path / "vectors.txt").write_text("great 0.5 -0.25\nfood 0.125 1.0\n")
        data.load_embeddings(tmp_path / "vectors.txt")
        trainer.train(train_set, None, trainer.TrainConfig(epochs=1, batch_size=4, seed=1, hyperparams=hp))
        # Each ablation variant trains a clone of one initial model.
        trainer.run_ablations(train_set, dev_set, replace(config, epochs=1), table=state.table, variants=["full"])
    finally:
        tracer.uninstall()
    calls = Counter()
    for (name, _), (_, _, count) in tracer.totals().items():
        calls[name] += count
    expected = {name for _, _, name in TRACED} | {"tensor.trace", "optim.adam_step"}
    assert sorted(name for name in expected if calls[name] == 0) == []
    assert calls["data.build_tree"] >= 1
    # Once by the set-up, once inside the ``train`` that got no table.
    assert calls["data.build_random_table"] == 2
    # Only the ablation clones a model: ``train`` keeps its best epoch as a snapshot.
    assert calls["model.clone"] == 1
    assert tracer.counts["tape_nodes"] > 0
