"""`bench/layers.py` at tiny sizes: it runs, and its JSON has the agreed shape."""

import json
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCRIPT = os.path.join(_ROOT, "bench", "layers.py")

_TIMINGS = {
    *(f"forward.{mode}.b{B}.t6" for mode in ("train", "eval") for B in (4, 8)),
    *(f"backward.{mask}.b{B}.t6" for mask in ("g1234", "g1", "g2", "g3", "g4") for B in (4, 8)),
    "forward.eval.b4.t5", "forward.eval.b4.t9", "predict_dataset.n16", "step.nadam.g1234",
    "load_vectors.l20", "embed_tokens.cold.t56",
    "train_gibbs.k20", "train_gibbs.k50", "infer_topics.k20",
}


def _bench(out, label):
    return subprocess.run(
        [sys.executable, _SCRIPT, "--tiny", "--label", label, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    """Two tiny runs written into one file."""
    out = tmp_path_factory.mktemp("bench") / "BENCH.json"
    for label in ("before", "after"):
        proc = _bench(out, label)
        assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def _check_stat(stat):
    assert set(stat) == {"min_ms", "median_ms", "n"}
    assert stat["n"] == 2
    assert 0.0 < stat["min_ms"] <= stat["median_ms"]


def test_file_keeps_every_labelled_run(doc):
    assert doc["schema"] == "tweetxfer-layer-bench/1"
    assert set(doc["runs"]) == {"before", "after"}


@pytest.mark.parametrize("label", ["before", "after"])
def test_run_schema(doc, label):
    run = doc["runs"][label]
    assert set(run) == {"environment", "sizes", "calibration", "timings", "embed", "lda"}
    env = run["environment"]
    assert set(env) == {
        "blas_threads", "blas", "blas_core", "numpy", "python", "cpu", "cpu_count",
    }
    assert env["blas_threads"] == 1
    assert set(env["blas"]) == {"name", "version"}
    assert env["blas_core"] is None or (isinstance(env["blas_core"], str) and env["blas_core"])
    assert isinstance(env["numpy"], str) and isinstance(env["python"], str)
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    assert run["sizes"]["repeats"] == 2
    assert run["sizes"]["net"]["kernels"] == [2, 3]
    assert set(run["calibration"]) == {"gemm_64", "python_loop_10000"}
    assert set(run["timings"]) == _TIMINGS
    for stat in [*run["calibration"].values(), *run["timings"].values()]:
        _check_stat(stat)
    loaded, embedded = run["embed"]["load_vectors.l20"], run["embed"]["embed_tokens.cold.t56"]
    assert (loaded["lines"], loaded["dim"]) == (20, 12)
    assert embedded["tokens"] == 56 and 0.5 < embedded["oov_share"] < 0.9
    assert loaded["lines_per_s"] > 0 and embedded["tokens_per_s"] > 0
    assert set(run["lda"]) == {"train_gibbs.k20", "train_gibbs.k50", "infer_topics.k20"}
    for work in run["lda"].values():
        assert set(work) == {"token_samples", "token_samples_per_s"}
        assert work["token_samples"] > 0 and work["token_samples_per_s"] > 0


def test_refuses_a_file_of_another_schema(tmp_path):
    out = tmp_path / "other.json"
    out.write_text('{"schema": "something-else", "runs": {}}\n', encoding="utf-8")
    proc = _bench(out, "x")
    assert proc.returncode == 2
    assert "is not a tweetxfer-layer-bench/1 file" in proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["schema"] == "something-else"
