"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success).

The training-based criteria use frozen seeds and settings; every number
asserted here was produced by an independent oracle (finite differences,
dense matrix products, Floyd-Warshall, hand arithmetic or a brute-force
separability check), never by the code path under test.
"""

import functools
import json
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from absa_gcn.cli import EXIT_OK, main
from absa_gcn.data import Example, build_tree, parse_corpus
from absa_gcn.gradcheck import build_check_setup, check_model_gradients
from absa_gcn.model import HyperParams, ModelState, consistency_loss, gcn_layer, total_loss
from absa_gcn.data import build_random_table
from absa_gcn.synthetic import random_tree_heads
from corpora import CUE_POLARITY, aspect_adjacent_tokens, make_contrastive_corpus, make_overfit_corpus
from absa_gcn.tensor import Tensor
from absa_gcn.trainer import TrainConfig, run_ablations, train
from conftest import dense_adjacency, floyd_warshall_distances

ASSETS = __import__("pathlib").Path(__file__).resolve().parents[1] / "src" / "absa_gcn" / "assets"


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {description}: FAIL")
                raise
            print(f"[criterion {number}] {description}: PASS")
            return result

        return run

    return wrap


# ---------------------------------------------------------------------------


@criterion(1, "gradient integrity (analytic vs central differences)")
def test_criterion_1_gradient_integrity():
    start = time.time()
    report = check_model_gradients(*build_check_setup(seed=0, tokens=5, embed_dim=8, hp=HyperParams(hidden=8, layers=2)))
    elapsed = time.time() - start
    assert report.max_relative_error < 1e-4, report.lines()[-1]
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    # the CLI surface agrees
    assert main(["gradcheck", "--seed", "0"]) == EXIT_OK


@criterion(2, "oracle equivalence (dense adjacency product, Floyd-Warshall)")
def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        heads = random_tree_heads(n, rng)
        start = int(rng.integers(n))
        end = min(n, start + 1 + int(rng.integers(2)))
        ex = Example(
            tokens=[f"t{i}" for i in range(n)], heads=heads,
            aspect_from=start, aspect_to=end, label="neutral",
        )
        tree = build_tree([ex])

        h_prev = Tensor(rng.uniform(-1, 1, (n, 6)))
        w = Tensor(rng.uniform(-1, 1, (5, 6)))
        b = Tensor(rng.uniform(-1, 1, 5))
        out = gcn_layer(h_prev, tree, w, b).data
        dense = np.maximum(0.0, dense_adjacency(ex) @ h_prev.data @ w.data.T + b.data)
        assert np.abs(out - dense).max() <= 1e-12

        bfs = np.asarray(tree.path_len_to_aspect, dtype=float)
        npt.assert_array_equal(bfs, floyd_warshall_distances(ex))


@criterion(3, "loss-term laws (KL sign, probability sums, null diversity)")
def test_criterion_3_loss_term_laws():
    rng = np.random.default_rng(33)

    # KL(syn || mod) >= 0 with equality iff the distributions coincide
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        syn = rng.dirichlet(np.ones(n))
        mod = rng.dirichlet(np.ones(n))
        while np.abs(syn - mod).max() < 1e-3:
            mod = rng.dirichlet(np.ones(n))
        value = consistency_loss(syn, Tensor(mod)).item()
        assert value >= -1e-12
        assert value > 1e-9  # distinct pairs stay strictly positive
        assert abs(consistency_loss(syn, Tensor(syn.copy())).item()) < 1e-9

    # probability outputs stay normalized across a random forward suite
    hp = HyperParams(hidden=10, layers=2)
    for trial in range(500):
        n = int(rng.integers(1, 11))
        heads = random_tree_heads(n, rng)
        start = int(rng.integers(n))
        end = min(n, start + 1 + int(rng.integers(2)))
        label = ("positive", "neutral", "negative")[int(rng.integers(3))]
        ex = Example(
            tokens=[f"w{int(rng.integers(12))}" for _ in range(n)], heads=heads,
            aspect_from=start, aspect_to=end, label=label,
        )
        table = build_random_table([ex], dim=6, seed=rng)
        state = ModelState.initialize(table, hp, rng, weight_scale=0.6, bias_scale=0.3)
        _, trace = total_loss(ex, state)
        assert abs(trace.syn.sum() - 1.0) <= 1e-6
        assert abs(trace.mod.data.sum() - 1.0) <= 1e-6
        assert abs(trace.class_probs.data.sum() - 1.0) <= 1e-6

    # no layer pairs, no diversity term
    ex = Example(tokens=["a", "b", "c"], heads=[-1, 0, 0], aspect_from=0, aspect_to=1, label="positive")
    table = build_random_table([ex], dim=6, seed=1)
    single = ModelState.initialize(table, HyperParams(hidden=10, layers=1), np.random.default_rng(1))
    _, trace = total_loss(ex, single)
    assert trace.losses.div == 0.0

    # saturated-to-zero gates null the diversity term exactly
    state = ModelState.initialize(table, hp, np.random.default_rng(2), weight_scale=0.4)
    for l in range(hp.layers):
        state.tensors[f"w_gate_{l}"].data[...] = 0.0
        state.tensors[f"b_gate_{l}"].data[...] = -1000.0
    _, trace = total_loss(ex, state)
    assert trace.losses.div == 0.0


@criterion(4, "synthetic overfit (100% train accuracy inside budget)")
def test_criterion_4_synthetic_overfit():
    corpus = make_overfit_corpus(20, seed=1)

    # brute-force separability oracle: the tree-adjacent cue determines the label
    cue_to_labels = {}
    for ex in corpus:
        adjacent = aspect_adjacent_tokens(ex)
        assert len(adjacent) == 1
        cue_to_labels.setdefault(adjacent[0], set()).add(ex.label)
    assert all(len(labels) == 1 for labels in cue_to_labels.values())
    assert all(CUE_POLARITY[cue] == next(iter(labels)) for cue, labels in cue_to_labels.items())

    start = time.time()
    config = TrainConfig(epochs=200, batch_size=32, learning_rate=0.001, seed=7, hyperparams=HyperParams())
    _, log = train(corpus, None, config)
    elapsed = time.time() - start
    accuracies = [e["accuracy"] for e in log if e["split"] == "train" and e["epoch"] >= 1]
    assert max(accuracies) == 1.0, f"never reached 100%, best {max(accuracies):.3f}"
    assert elapsed < 60.0, f"training took {elapsed:.1f}s"


@criterion(5, "gate ablation direction on the two-aspect corpus (5 seeds)")
def test_criterion_5_ablation_direction():
    train_set = make_contrastive_corpus(600, seed=100)
    dev_set = make_contrastive_corpus(150, seed=200)
    variants = ["full", "-Gate", "-Gate-Con"]
    accuracy = {name: [] for name in variants}
    for seed in (11, 12, 13, 14, 15):
        hp = HyperParams(hidden=48, layers=2, alpha=1.0, beta=10.0)
        config = TrainConfig(epochs=20, batch_size=32, learning_rate=0.03, seed=seed, hyperparams=hp)
        results = run_ablations(train_set, dev_set, config, variants=variants)
        for name in variants:
            accuracy[name].append(results[name].metrics.accuracy)
    means = {name: float(np.mean(vals)) for name, vals in accuracy.items()}
    print(f"  mean dev accuracy: {means}")
    assert means["full"] >= means["-Gate"]
    assert means["full"] >= means["-Gate-Con"]


@criterion(6, "diversity-variant harness (pooled vs direct gate products)")
def test_criterion_6_gatediv_harness():
    train_set = make_contrastive_corpus(200, seed=300)
    dev_set = make_contrastive_corpus(60, seed=301)
    hp = HyperParams(hidden=24, layers=2, alpha=1.0, beta=10.0)
    config = TrainConfig(epochs=6, batch_size=32, learning_rate=0.01, seed=9, hyperparams=hp)
    results = run_ablations(train_set, dev_set, config, variants=["full", "GateDiv"])
    assert list(results) == ["full", "GateDiv"]
    trajectories = {}
    for name, result in results.items():
        divs = [e["loss_div"] for e in result.log if e["split"] == "train"]
        totals = [e["loss_total"] for e in result.log]
        assert all(np.isfinite(v) for v in divs + totals)
        trajectories[name] = divs
    assert trajectories["full"] != trajectories["GateDiv"]


@criterion(7, "byte-identical reruns of training (logs and checkpoint)")
def test_criterion_7_determinism(tmp_path):
    sample = str(ASSETS / "sample_corpus.jsonl")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        code = main([
            "train", "--train", sample, "--dev", sample, "--out", str(out),
            "--epochs", "2", "--hidden", "10", "--layers", "2", "--seed", "42",
        ])
        assert code == EXIT_OK
        outputs.append(out)
    for artifact in ("metrics.jsonl", "checkpoint.bin"):
        first = (outputs[0] / artifact).read_bytes()
        second = (outputs[1] / artifact).read_bytes()
        assert first == second, f"{artifact} differs between reruns"


PUBLISHED_SPLIT_COUNTS = {
    "restaurant_train": {"positive": 2164, "neutral": 637, "negative": 807},
    "restaurant_test": {"positive": 728, "neutral": 196, "negative": 196},
    "laptop_train": {"positive": 994, "neutral": 464, "negative": 870},
    "laptop_test": {"positive": 341, "neutral": 169, "negative": 128},
    "mams_train": {"positive": 3380, "neutral": 5042, "negative": 2764},
    "mams_dev": {"positive": 403, "neutral": 604, "negative": 325},
    "mams_test": {"positive": 400, "neutral": 607, "negative": 329},
}


@criterion(8, "data contract (fixtures round-trip; line-numbered aborts)")
def test_criterion_8_data_contract(tmp_path):
    # converter + loader round-trip over the bundled fixtures
    out = tmp_path / "conv"
    out.mkdir()
    code = main([
        "convert", "--conllu", str(ASSETS / "sample.conllu"),
        "--aspects", str(ASSETS / "sample_aspects.json"), "--out", str(out),
    ])
    assert code == EXIT_OK
    converted = parse_corpus(out / "converted.jsonl")
    assert [ex.heads for ex in converted] == [(1, 3, 3, -1), (2, 2, -1)]

    sample = parse_corpus(ASSETS / "sample_corpus.jsonl")
    manifest = json.loads((ASSETS / "sample_corpus.manifest.json").read_text())
    assert len(sample) == manifest["examples"]
    counts = {label: sum(1 for e in sample if e.label == label) for label in manifest["label_counts"]}
    assert counts == manifest["label_counts"]

    # malformed lines abort the whole load with their line number
    bad = tmp_path / "bad.jsonl"
    good_line = '{"tokens":["ok"],"heads":[-1],"aspect_from":0,"aspect_to":1,"label":"neutral"}'
    bad.write_text(good_line + "\n" + '{"tokens":["a","b"],"heads":[1,0],"aspect_from":0,"aspect_to":1,"label":"positive"}' + "\n")
    from absa_gcn.data import LoadError

    with pytest.raises(LoadError) as err:
        parse_corpus(bad)
    assert err.value.line == 2

    # conditional: user-supplied converted review datasets must match the
    # published per-split class counts exactly
    data_dir = os.environ.get("ABSA_DATA_DIR")
    if not data_dir or not os.path.isdir(data_dir):
        print("  (no ABSA_DATA_DIR; published-count check skipped)")
        return
    checked = 0
    for split, expected in PUBLISHED_SPLIT_COUNTS.items():
        path = os.path.join(data_dir, f"{split}.jsonl")
        if not os.path.isfile(path):
            continue
        examples = parse_corpus(path)
        counts = {label: sum(1 for e in examples if e.label == label) for label in expected}
        assert counts == expected, f"{split}: {counts} != {expected}"
        checked += 1
    print(f"  (verified class counts for {checked} supplied split files)")
