"""Self-test of the benchmark at a tiny size, a few seconds in all.

    python3 -m pytest perfbench/test_selftest.py

Each workload runs end to end, traced, and must pass every correctness check
and report every per-layer metric. Then each check is fed a copy of that
run's outputs with one deliberate fault and must reject it, so that no check
can pass vacuously.
"""

import copy
import dataclasses
import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _zero_largest_term(out):
    terms = out["gradient"][0]["terms"]
    terms[max(terms, key=lambda name: abs(terms[name]))] = 0.0


def _flip_last_bit(out):
    tensors = out["loaded"]["tensors"]
    bad = tensors["w_cls_out"].copy()
    bad.flat[0] = np.nextafter(bad.flat[0], np.inf)
    tensors["w_cls_out"] = bad


def _raise_final_loss(out):
    train = [e for e in out["log"] if e["split"] == "train"]
    train[-1]["loss_total"] = train[0]["loss_total"]


def _lift_outside_score(out):
    item = out["forward"][0]
    syn, (start, _) = item["program"]["syn"], item["span"]
    syn[0 if start > 0 else -1] = syn.max() + 0.01


CORRUPTIONS = {
    "oracle_forward": lambda out: out["forward"][0]["program"].__setitem__(
        "total", out["forward"][0]["program"]["total"] + 1e-6
    ),
    "oracle_accuracy": lambda out: out.__setitem__(
        "eval_accuracy", out["eval_accuracy"] + 1.0 / len(out["forward"])
    ),
    "directional_gradient": _zero_largest_term,
    "checkpoint_identity": _flip_last_bit,
    "reload_metrics": lambda out: out.__setitem__(
        "metrics_loaded",
        dataclasses.replace(out["metrics_loaded"], loss_total=np.nextafter(out["metrics_loaded"].loss_total, np.inf)),
    ),
    "loss_decreases": _raise_final_loss,
    "probabilities_sum_to_one": lambda out: out["forward"][0]["program"].__setitem__(
        "mod", out["forward"][0]["program"]["mod"] * (1.0 + 1e-9)
    ),
    "tree_scores_peak_on_aspect": _lift_outside_score,
}


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def tiny_run(request, tmp_path_factory):
    spec = harness.tiny(harness.WORKLOADS[request.param])
    tracer = Tracer()
    result = harness.run(spec, SEED, 0.0, str(tmp_path_factory.mktemp(spec.name)), tracer, min_rounds=1)
    return request.param, result


def test_workload_passes_every_check_and_reports_every_metric(tiny_run):
    name, result = tiny_run
    assert result.check_failures == {}
    assert result.failed == 0 and result.attempted > 0
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    for group, metrics in (("end_to_end", result.end_to_end), ("per_layer", result.per_layer)):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: unit for k, (_, unit) in metrics.items()} == expected, (name, group)
        assert all(np.isfinite(value) and value >= 0 for value, _ in metrics.values())
    for metric in spec["end_to_end"]:
        assert result.end_to_end[metric["name"]][0] > 0, metric["name"]


def test_every_check_rejects_a_corrupted_output(tiny_run):
    name, result = tiny_run
    assert set(CORRUPTIONS) == set(checks.CHECKS)
    for check, corrupt in CORRUPTIONS.items():
        out = copy.deepcopy(result.check_outputs)
        corrupt(out)
        assert checks.verify(out)[check] is not None, (name, check)


def test_inputs_depend_on_the_seed_alone(tmp_path):
    spec = harness.tiny(harness.WORKLOADS["bigvocab-h200"])
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (SEED, SEED, SEED + 1)):
        d.mkdir()
        harness.generate(spec, seed, str(d))
    files = sorted(os.listdir(dirs[0]))
    assert filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)[0] == files
    assert not filecmp.cmp(dirs[0] / "train.jsonl", dirs[2] / "train.jsonl", shallow=False)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-h50", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
