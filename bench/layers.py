"""Layer bench: forward, backward, Nadam-step and predict_dataset times of the BiLSTM-CNN.

Times each network layer call, and ``transfer.predict_dataset`` over a
fixed dataset of 256 tweets, in-process at the paper's sizes (E=300,
H=100, F=200, kernels 3/4/5, dense 100, 51 cluster features, 2 classes)
and writes one JSON run, keyed by ``--label``, into ``--out``; runs under
other labels already in that file are kept, so one file can hold the
parent commit's run beside a change's.  Each timing is the minimum and
the median of ``repeats`` calls (7 at paper sizes), after one untimed
warm-up call.

A fixed float64 GEMM and a fixed pure-Python loop are timed in the same
run.  Raw milliseconds taken at different times on a shared machine do
not compare; ratios to these calibrations carry over better.

    python bench/layers.py --label change --out BENCH_20.json
    python bench/layers.py --src OTHER_CHECKOUT/src --label parent --out BENCH_20.json
    python bench/layers.py --tiny --label smoke --out smoke.json

``--tiny`` shrinks the network and the batches, and times each call
twice, so the whole run takes about a second; its numbers only check
that the script works.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

BLAS_THREADS = "1"
SCHEMA = "tweetxfer-layer-bench/1"

PAPER = dict(
    net=dict(embed_dim=300, hidden=100, filters=200, dense=100, kernels=(3, 4, 5)),
    cluster_width=51, n_classes=2,
    train_shapes=((32, 20), (128, 20)),  # (B, T): train and eval forward, backward
    eval_shapes=((64, 14), (64, 40)),  # (B, T): eval forward only
    # transfer.predict_dataset over a fixed dataset: tweets, their token
    # counts and the vocabulary they draw from, so a token recurs about six
    # times, as in the perfbench classify workload.
    predict=dict(tweets=256, tokens=(20, 40), vocab=1300),
    gemm=512, loop=1_000_000, repeats=7,
)
TINY = dict(
    net=dict(embed_dim=12, hidden=6, filters=5, dense=8, kernels=(2, 3)),
    cluster_width=3, n_classes=2,
    train_shapes=((4, 6), (8, 6)),
    eval_shapes=((4, 5), (4, 9)),
    predict=dict(tweets=16, tokens=(3, 6), vocab=20),
    gemm=64, loop=10_000, repeats=2,
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to add this run to")
    parser.add_argument("--label", required=True, help="name of this run in the file")
    parser.add_argument(
        "--src", default=os.path.join(os.path.dirname(here), "src"),
        help="directory holding the tweetxfer package (default: this checkout's src)",
    )
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for a smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.src, "tweetxfer", "__init__.py")):
        parser.error(f"no tweetxfer package under {args.src}")
    return args


def _stats(run, repeats: int) -> dict:
    """Min and median wall time of ``repeats`` calls of ``run``, in ms."""
    run()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(1e3 * (time.perf_counter() - t0))
    return {"min_ms": min(times), "median_ms": statistics.median(times), "n": repeats}


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its config
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:  # no procfs, as on macOS
        pass
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        # sched_getaffinity is Linux-only; it counts the CPUs this process may use.
        "cpu_count": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
    }


def _calibration(np, sizes: dict) -> dict:
    n, repeats = sizes["gemm"], sizes["repeats"]
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))

    def loop() -> int:
        total = 0
        for i in range(sizes["loop"]):
            total += i * i
        return total

    return {
        f"gemm_{n}": _stats(lambda: a @ b, repeats),
        f"python_loop_{sizes['loop']}": _stats(loop, repeats),
    }


def _dataset(np, transfer, sizes: dict):
    """A fixed ``EncodedDataset`` of ``sizes["predict"]`` random tweets."""
    spec, dim = sizes["predict"], sizes["net"]["embed_dim"]
    rng = np.random.default_rng(4)
    lo, hi = spec["tokens"]
    matrix = rng.normal(0.0, 0.3, (spec["vocab"] + 1, dim))
    matrix[0] = 0.0
    n = spec["tweets"]
    return transfer.EncodedDataset(
        ids=tuple(rng.integers(1, spec["vocab"] + 1, k) for k in rng.integers(lo, hi + 1, n)),
        matrix=matrix,
        cluster_features=(rng.random((n, sizes["cluster_width"])) < 0.1).astype(np.float64),
        labels=np.zeros(n, dtype=np.int64),
    )


def _timings(np, net, transfer, fixtures, sizes: dict) -> dict:
    arch, repeats = sizes["net"], sizes["repeats"]
    params = net.init_params(sizes["n_classes"], sizes["cluster_width"], seed=1, **arch)
    masks = {"g1234": net.ALL_LAYERS, **{f"g{g}": net.FreezeMask.of(g) for g in net.LAYER_IDS}}

    def batch(B: int, T: int):
        return fixtures.toy_batch(
            n_classes=sizes["n_classes"], cluster_width=sizes["cluster_width"], batch=B, t=T,
            embed_dim=arch["embed_dim"], seed=2,
        )

    out = {}
    for B, T in sizes["train_shapes"]:
        data = batch(B, T)
        for mode in ("train", "eval"):
            out[f"forward.{mode}.b{B}.t{T}"] = _stats(
                lambda: net.forward(params, data, mode=mode, dropout_seed=3), repeats
            )
        _, cache = net.forward(params, data, mode="train", dropout_seed=3)
        for name, mask in masks.items():
            out[f"backward.{name}.b{B}.t{T}"] = _stats(
                lambda: net.backward(params, data, cache, mask), repeats
            )
    for B, T in sizes["eval_shapes"]:
        data = batch(B, T)
        out[f"forward.eval.b{B}.t{T}"] = _stats(
            lambda: net.forward(params, data, mode="eval"), repeats
        )

    dataset = _dataset(np, transfer, sizes)
    out[f"predict_dataset.n{len(dataset)}"] = _stats(
        lambda: transfer.predict_dataset(params, dataset), repeats
    )

    # The step updates its copy in place; a constant gradient keeps every
    # repeat's arithmetic the same size.
    B, T = sizes["train_shapes"][0]
    data = batch(B, T)
    grads = net.backward(params, data, net.forward(params, data, dropout_seed=3)[1])
    stepped = params.copy()
    state = net.OptimizerState.for_params(stepped)
    out["step.nadam.g1234"] = _stats(lambda: net.step(stepped, grads, state), repeats)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    doc = {"schema": SCHEMA, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            print(f"error: {args.out} is not a {SCHEMA} file", file=sys.stderr)
            return 2
    # The pin only holds if it precedes the first numpy import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from tweetxfer import fixtures, net, transfer

    sizes = TINY if args.tiny else PAPER
    run = {
        "environment": _environment(np),
        "sizes": sizes,
        "calibration": _calibration(np, sizes),
        "timings": _timings(np, net, transfer, fixtures, sizes),
    }
    doc["runs"][args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, stat in {**run["calibration"], **run["timings"]}.items():
        print(f"{name:32s} min {stat['min_ms']:9.2f} ms  median {stat['median_ms']:9.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
