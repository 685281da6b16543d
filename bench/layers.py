"""Layer bench: network, predict_dataset, embedding and LDA times of tweetxfer.

Times each network layer call, and ``transfer.predict_dataset`` over a
fixed dataset of 256 tweets, in-process at the paper's sizes (E=300,
H=100, F=200, kernels 3/4/5, dense 100, 51 cluster features, 2 classes).
It also times ``embed.load_vectors`` on a 1,266 x 300 vectors file and
``EmbeddingTable.embed_tokens`` on a cold table over the distinct tokens
of 800 tweets of 20-40 tokens, 70 % of whose vocabulary is not in the
file, as in the perfbench classify workload; the ``embed`` section
records lines/s, tokens/s and the OOV share of those two rows.  It
times ``lda.train_gibbs`` at k = 20 on a 300-document topic corpus and
at k = 50 on mention lists, and ``lda.infer_topics`` fold-in of 300
new documents, on the perfbench topics inputs of seed 1; the ``lda``
section records the token-samples/s of each.  It
writes one JSON run, keyed by ``--label``, into ``--out``; runs under
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
import ctypes
import json
import os
import platform
import statistics
import sys
import tempfile
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
    # The perfbench classify inputs of seed 1: a vectors file of the 1,266
    # words drawn from 2 x 2,000 planted words, and 800 tweets over all 4,000.
    embed=dict(tweets=800, tokens=(20, 40), words_per_topic=2000, known_share=0.3, dim=300),
    # The perfbench topics inputs of seed 1 and its sampler settings.
    lda=dict(docs=300, planted=5, k=20, iterations=40, cliques=5, users_per_clique=12,
             mention_tweets=800, k_users=50, foldin_docs=300, infer_iterations=30, seed=1),
    gemm=512, loop=1_000_000, repeats=7,
)
TINY = dict(
    net=dict(embed_dim=12, hidden=6, filters=5, dense=8, kernels=(2, 3)),
    cluster_width=3, n_classes=2,
    train_shapes=((4, 6), (8, 6)),
    eval_shapes=((4, 5), (4, 9)),
    predict=dict(tweets=16, tokens=(3, 6), vocab=20),
    embed=dict(tweets=40, tokens=(3, 6), words_per_topic=30, known_share=0.3, dim=12),
    lda=dict(docs=20, planted=2, k=20, iterations=2, cliques=2, users_per_clique=4,
             mention_tweets=30, k_users=50, foldin_docs=10, infer_iterations=4, seed=1),
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
        "blas_core": _blas_core(np),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        # sched_getaffinity is Linux-only; it counts the CPUs this process may use.
        "cpu_count": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
    }


def _blas_core(np) -> str | None:
    """The kernel name (such as ``SkylakeX`` or ``Haswell``) that numpy's
    bundled OpenBLAS chose for this CPU, or None without that library.
    Byte-for-byte results hold per kernel, not per OpenBLAS version."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
        corename = ctypes.CDLL(os.path.join(libs, names[0])).scipy_openblas_get_corename64_
    except (OSError, IndexError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode("ascii")


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


def _embed_rows(np, embed, fixtures, sizes: dict, workdir: str) -> tuple[dict, dict]:
    """Timings of ``load_vectors`` and of a cold-table ``embed_tokens``,
    and the work behind each: lines loaded, tokens embedded, OOV share."""
    spec, repeats = sizes["embed"], sizes["repeats"]
    vocab = fixtures.topic_vocabulary(2, spec["words_per_topic"])
    rng = np.random.default_rng([1, 3])
    known = [w for w in vocab if rng.random() < spec["known_share"]]
    path = os.path.join(workdir, "vectors.txt")
    fixtures.write_vectors_file(path, fixtures.word_vector_table(known, dim=spec["dim"], seed=1))
    docs, _ = fixtures.planted_topic_docs(
        spec["tweets"], n_topics=2, words_per_topic=spec["words_per_topic"],
        doc_len=spec["tokens"], purity=0.8, seed=1,
    )
    tokens = list(dict.fromkeys(tok for doc in docs for tok in doc))
    loaded = embed.load_vectors(path)

    def cold():
        table = embed.EmbeddingTable(dim=loaded.dim, word_vectors=loaded.word_vectors)
        return table.embed_tokens(tokens)

    load_key, embed_key = f"load_vectors.l{len(known)}", f"embed_tokens.cold.t{len(tokens)}"
    timings = {
        load_key: _stats(lambda: embed.load_vectors(path), repeats),
        embed_key: _stats(cold, repeats),
    }
    oov = sum(tok not in loaded.word_vectors for tok in tokens)
    work = {
        load_key: {"lines": len(known), "dim": loaded.dim,
                   "lines_per_s": 1e3 * len(known) / timings[load_key]["min_ms"]},
        embed_key: {"tokens": len(tokens), "oov_share": oov / len(tokens),
                    "tokens_per_s": 1e3 * len(tokens) / timings[embed_key]["min_ms"]},
    }
    return timings, work


def _lda_rows(corpus, fixtures, lda, sizes: dict) -> tuple[dict, dict]:
    """Timings of ``train_gibbs`` at k = 20 (topic corpus) and k = 50
    (mention lists, as ``cluster_users`` runs it) and of a fold-in loop of
    ``infer_topics``, and the token-samples behind each."""
    spec, repeats = sizes["lda"], sizes["repeats"]
    seed = spec["seed"]
    docs, _ = fixtures.planted_topic_docs(
        spec["docs"], n_topics=spec["planted"], purity=0.9, seed=seed
    )
    fold, _ = fixtures.planted_topic_docs(
        spec["foldin_docs"], n_topics=spec["planted"], purity=0.9, seed=seed + 1
    )
    tweets, _ = fixtures.clique_mentions(
        n_cliques=spec["cliques"], users_per_clique=spec["users_per_clique"],
        n_tweets=spec["mention_tweets"], seed=seed,
    )
    lists = corpus.extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
    model = lda.train_gibbs(docs, k=spec["k"], iterations=spec["iterations"], seed=seed)
    infer_its = spec["infer_iterations"]

    def foldin():
        for doc in fold:
            lda.infer_topics(model, doc, iterations=infer_its, seed=seed)

    rows = {
        f"train_gibbs.k{spec['k']}": (
            lambda: lda.train_gibbs(docs, k=spec["k"], iterations=spec["iterations"], seed=seed),
            sum(map(len, docs)) * spec["iterations"],
        ),
        f"train_gibbs.k{spec['k_users']}": (
            lambda: lda.train_gibbs(
                lists, k=spec["k_users"], iterations=spec["iterations"], seed=seed
            ),
            sum(map(len, lists)) * spec["iterations"],
        ),
        f"infer_topics.k{spec['k']}": (
            foldin,
            sum(tok in model.vocab for doc in fold for tok in doc) * infer_its,
        ),
    }
    timings = {key: _stats(run, repeats) for key, (run, _) in rows.items()}
    work = {
        key: {"token_samples": samples,
              "token_samples_per_s": 1e3 * samples / timings[key]["min_ms"]}
        for key, (_, samples) in rows.items()
    }
    return timings, work


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

    from tweetxfer import corpus, embed, fixtures, lda, net, transfer

    sizes = TINY if args.tiny else PAPER
    timings = _timings(np, net, transfer, fixtures, sizes)
    with tempfile.TemporaryDirectory() as workdir:
        embed_timings, embed_work = _embed_rows(np, embed, fixtures, sizes, workdir)
    lda_timings, lda_work = _lda_rows(corpus, fixtures, lda, sizes)
    run = {
        "environment": _environment(np),
        "sizes": sizes,
        "calibration": _calibration(np, sizes),
        "timings": {**timings, **embed_timings, **lda_timings},
        "embed": embed_work,
        "lda": lda_work,
    }
    doc["runs"][args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, stat in {**run["calibration"], **run["timings"]}.items():
        print(f"{name:32s} min {stat['min_ms']:9.2f} ms  median {stat['median_ms']:9.2f} ms")
    for name, work in {**embed_work, **lda_work}.items():
        print(f"{name:32s} " + "  ".join(f"{k} {v:.6g}" for k, v in sorted(work.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
