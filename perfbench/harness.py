"""Closed-loop measurement of the workloads, untraced or traced.

An untraced run sets its workload up several times (reporting the
median set-up time), runs one warm-up job, then runs jobs back to back
until the time budget is spent and reports each rate at the 10th
percentile of its per-job values.  A traced run sets up all three
workloads, runs one warm-up job of each, then runs rounds of one
untraced and one traced job of each, so every per-layer metric is
measured in any traced run and the tracing overhead of each workload is
the difference.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import probes
from tracer import Tracer
from workloads import JobResult, Workload, WORKLOADS

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# gone, so the median of cheap set-ups is taken over enough samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


@dataclass
class Outcome:
    """What a run reports: the contract's four keys plus evidence."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    readable: list[tuple[str, str, float, str]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    digests_repeat: dict[str, bool] = field(default_factory=dict)
    jobs: list[dict] = field(default_factory=list)  # stage seconds and work per job
    setups: list[float] = field(default_factory=list)  # seconds per set-up

    def result_line(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "setup_repeats": {"min": SETUP_REPEATS, "until_s": SETUP_SECONDS},
    }


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _run_job(wl: Workload, state, out: Outcome, tracer: Tracer | None = None,
             counts: probes.Counts | None = None) -> tuple[JobResult | None, float]:
    """One job and its checks; a raised error or missed check is a failure."""
    out.attempted += 1
    job = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            job = wl.job(state)
            wall = time.perf_counter() - t0
        else:
            tracer.op += 1
            with probes.instrumented(tracer, counts):
                root = tracer.begin(f"job.{wl.name}")
                try:
                    job = wl.job(state)
                finally:
                    tracer.end(root)
            # The root span leaves out installing the probes and counting
            # work afterwards, which are not part of the job.
            wall = root.duration
        missed = job.check()
    except Exception as exc:  # the loop must go on and report the failure
        traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        missed = [f"job raised {type(exc).__name__}: {exc}"]
        job = None
    if missed:
        out.failed += 1
        out.failures += [f"{wl.name} job {out.attempted}: {m}" for m in missed]
    if job is not None:
        out.jobs.append({"workload": wl.name, "traced": tracer is not None,
                         "stages": job.stages, "work": job.work})
        known = out.digests.setdefault(wl.name, job.digests)
        out.digests_repeat[wl.name] = out.digests_repeat.get(wl.name, True) and known == job.digests
    return job, wall


def _rate(job: JobResult, work: tuple[str, ...], timed: tuple[str, ...]) -> float:
    return sum(job.work[s] for s in work) / sum(job.stages[s] for s in timed)


def low_rate(rates: list[float]) -> float:
    """The 10th percentile of per-job rates: nine jobs in ten meet it.

    On a shared host, jobs run at a steady base speed with bursts of
    faster ones; the bursts come and go between runs, while the base
    speed repeats, so a low percentile is steadier than the median.
    """
    if len(rates) < 2:
        return rates[0] if rates else 0.0
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


def measure(wl: Workload, seed: int, seconds: float, workdir: str) -> Outcome:
    """Untraced run: end-to-end metrics of one workload."""
    out = Outcome()
    setups = out.setups
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        d = _fresh(os.path.join(workdir, wl.name))
        t0 = time.perf_counter()
        state = wl.setup(d, seed, wl.size)
        setups.append(time.perf_counter() - t0)
    start = time.perf_counter()
    # The warm-up job lets lazy set-up in the package and the interpreter
    # finish before timing; it is checked like every other job.
    warmup, _ = _run_job(wl, state, out)
    if warmup is not None:
        out.jobs[-1]["warmup"] = True
    jobs, timed = [], 0
    while timed == 0 or time.perf_counter() - start < seconds:
        job, _ = _run_job(wl, state, out)
        timed += 1
        if job is not None:
            jobs.append(job)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.metrics["setup_s"] = (statistics.median(setups), "s")
    out.metrics["peak_rss_mb"] = (rss_mb, "MB")
    for slot, (name, unit, work, stages) in wl.rates.items():
        value = low_rate([_rate(j, work, stages) for j in jobs])
        out.metrics[slot] = (value, "1/s")
        out.readable.append((slot, name, value, unit))
    return out


def measure_traced(
    seed: int, seconds: float, workdir: str, spans_path: str,
    workloads: dict[str, Workload] = WORKLOADS,
) -> Outcome:
    """Traced run over all workloads: per-layer metrics and overheads."""
    out = Outcome()
    states = {}
    for name, wl in workloads.items():
        states[name] = wl.setup(_fresh(os.path.join(workdir, name)), seed, wl.size)
    for name, wl in workloads.items():
        _run_job(wl, states[name], out)  # warm-up, as in an untraced run
    tracer, counts = Tracer(), probes.Counts()
    walls: dict[str, list[tuple[float, float]]] = {name: [] for name in workloads}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for name, wl in workloads.items():
            _, untraced = _run_job(wl, states[name], out)
            _, traced = _run_job(wl, states[name], out, tracer, counts)
            walls[name].append((untraced, traced))
        rounds += 1
    tracer.write_jsonl(spans_path)
    out.metrics = probes.layer_metrics(tracer, counts, rounds, walls)
    return out
