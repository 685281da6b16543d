"""Tests of the benchmark itself: span arithmetic, tiny runs, checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times, tail_level  # noqa: E402
from tweetxfer import lda, net, transfer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "b", 2.0, 5.0, 0, 1),  # overlaps a: union is [1, 5]
        Span(3, "c", 8.0, 12.0, 0, 1),  # only [8, 10] lies inside root
        Span(4, "a.child", 1.5, 2.5, 1, 1),  # counts against a, not root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_links_parents_and_operations():
    tracer = Tracer()
    tracer.op = 7
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    assert tracer.enclosing(("outer", "other")) == "outer"
    tracer.end(inner)
    tracer.end(outer)
    assert inner.parent == outer.id and outer.parent is None
    assert {s.op for s in tracer.spans} == {7}
    assert outer.start <= inner.start <= inner.end <= outer.end


@pytest.mark.parametrize(
    "n, level", [(5, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0), (10000, 99.9)]
)
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_low_rate_is_the_tenth_percentile():
    assert harness.low_rate([]) == 0.0
    assert harness.low_rate([5.0]) == 5.0
    assert harness.low_rate([float(x) for x in range(11, 0, -1)]) == pytest.approx(2.0)


# Sizes that run in seconds; models this small cannot learn, so the
# quality floors are off and only the structural checks bite.
TINY = {
    "transfer": workloads.TransferSize(comments=12, train=8, valid=8, vocab=30, f1_floor=0.0),
    "topics": workloads.TopicsSize(
        docs=20, iterations=2, mention_tweets=30, foldin_docs=10, infer_iterations=2,
        purity_floor=0.0,
    ),
    "classify": workloads.ClassifySize(
        tweets=10, words_per_topic=50, train=8, train_epochs=1, accuracy_floor=0.0
    ),
}


def _tiny(name):
    """The workload's own set-up and job, at the tiny size."""
    return dataclasses.replace(workloads.WORKLOADS[name], size=TINY[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    out = harness.measure(_tiny(name), seed=3, seconds=0.01, workdir=str(tmp_path))
    assert out.attempted >= 1 and out.failed == 0, out.failures
    assert list(out.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in out.metrics.values())
    assert out.digests[name] and all(out.digests_repeat.values())


def test_tiny_traced_run_reports_every_per_layer_metric(tmp_path):
    tiny = {name: _tiny(name) for name in workloads.WORKLOADS}
    out = harness.measure_traced(
        seed=3, seconds=0.01, workdir=str(tmp_path), spans_path=str(tmp_path / "spans.jsonl"),
        workloads=tiny,
    )
    assert out.failed == 0, out.failures
    assert out.attempted == 3 * len(tiny)  # a warm-up, then one round
    assert sorted(out.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert out.metrics["lda.infer_topics.calls"][0] > 0
    assert out.metrics["net.backward.finetune.g4.n"][0] > 0
    assert out.metrics["embed.buckets_touched"][0] > 0
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"id", "name", "start", "end", "parent", "op", "work"}
    # The probes are gone once the traced job ends.
    assert not hasattr(net.forward, "__wrapped__")


def _corrupt_predictions(monkeypatch):
    real = transfer.predict_dataset
    monkeypatch.setattr(transfer, "predict_dataset", lambda *a, **k: real(*a, **k)[:-1])


def _corrupt_counts(monkeypatch):
    real = lda.train_gibbs

    def train(*args, **kwargs):
        model = real(*args, **kwargs)
        model.n_t[0] += 1
        return model

    monkeypatch.setattr(lda, "train_gibbs", train)


def _corrupt_checkpoint(monkeypatch):
    real = net.save_checkpoint

    def save(path, params, state=None):
        bad = params.copy()
        bad.leaky_slope += 0.1
        real(path, bad, state)

    monkeypatch.setattr(net, "save_checkpoint", save)


@pytest.mark.parametrize("name, corrupt", [
    ("classify", _corrupt_predictions),
    ("topics", _corrupt_counts),
    ("transfer", _corrupt_checkpoint),
])
def test_corrupted_output_counts_as_failed(name, corrupt, monkeypatch, tmp_path):
    wl = _tiny(name)
    state = wl.setup(str(tmp_path), 3, wl.size)
    out = harness.Outcome()
    harness._run_job(wl, state, out)
    assert (out.attempted, out.failed) == (1, 0), out.failures
    corrupt(monkeypatch)
    harness._run_job(wl, state, out)
    assert (out.attempted, out.failed) == (2, 1)
    assert out.result_line()["correct"] is False


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "topics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
