"""Measurement loop of one workload process.

``run.py`` starts this file as a child process, once per set-up sample
and once for the measured (or traced) run:

    python3 benchmarks/harness.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --spawn-time T

``--spawn-time`` is the parent's ``time.monotonic()`` just before it
started this process; the child reports ``setup_s`` as the monotonic
time from there to the moment the first timed trial could start (after
importing ``sqpbs``, building the workload with its oracles, and one
untimed warm-up trial).  The child prints one JSON object on its last
stdout line.

Closed loop, one client: trials run back to back in this one process,
with no threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# BLAS thread pools stay at one thread: the arrays have 2 to 32 entries.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TrialLog:
    """Outcome of running trials ``0 .. count-1`` of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.durations: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.hits = 0
        self._digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def run_one(self, index: int, tracer=None) -> float:
        """Run trial ``index``; returns its end time (``perf_counter``)."""
        w = self.workload
        inp = w.input(index)
        if tracer is not None:
            tracer.trial = index
        t0 = time.perf_counter()
        try:
            out = w.trial(inp)
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            out, error = None, f"trial {index}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.durations.append(t1 - t0)
        if out is None or not w.check(out):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error if out is None else f"trial {index}: check failed")
        if index < w.min_trials:
            self._digest.update(b"raised;" if out is None else w.record(out))
            self.hits += 0 if out is None else w.tally(out)
        return t1

    def digest(self) -> str:
        return self._digest.hexdigest()

    def run_check(self) -> tuple[bool, str]:
        return self.workload.run_check(self.hits, min(self.attempted, self.workload.min_trials))


def run_for(workload, seconds: float) -> tuple[TrialLog, float]:
    """Trials back to back until ``seconds`` have passed and ``min_trials`` ran.

    Returns the log and the loop's wall time in seconds.
    """
    log = TrialLog(workload)
    start = time.perf_counter()
    index = 0
    while True:
        end = log.run_one(index)
        index += 1
        if index >= workload.min_trials and end - start >= seconds:
            return log, time.perf_counter() - start


def run_count(workload, count: int, tracer=None) -> tuple[TrialLog, float]:
    """Exactly ``count`` trials; returns the log and the wall time."""
    log = TrialLog(workload)
    start = time.perf_counter()
    for index in range(count):
        log.run_one(index, tracer)
    return log, time.perf_counter() - start


def end_to_end_metrics(log: TrialLog, wall: float) -> tuple[dict[str, dict], dict[str, dict]]:
    """The gated end-to-end metrics, and the informational ones.

    ``trials_per_s`` and ``trial_ms_p50`` are reported but not gated: on a
    host whose speed flips between two states they are a mixture of both
    and do not repeat from run to run (see README.md).
    """
    deciles = statistics.quantiles(log.durations, n=10, method="inclusive")
    gated = {
        "trial_ms_p90": {"value": deciles[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
        },
        "passed_frac": {"value": (log.attempted - log.failed) / log.attempted, "unit": "fraction"},
    }
    informational = {
        "trials_per_s": {"value": log.attempted / wall, "unit": "1/s"},
        "trial_ms_p50": {"value": statistics.median(log.durations) * 1e3, "unit": "ms"},
    }
    return gated, informational


def per_layer_metrics(tracer, trials: int, untraced_tps: float, traced_tps: float) -> dict[str, dict]:
    metrics: dict[str, dict] = {}
    for name, (calls, self_ns) in tracer.summary().items():
        metrics[f"{name}.calls"] = {"value": calls / trials, "unit": "calls/trial"}
        metrics[f"{name}.self_us"] = {"value": self_ns / 1e3 / trials, "unit": "us/trial"}
    raw = tracer.raw_count
    metrics["keys.sift_ratio"] = {
        "value": tracer.sifted_count / raw if raw else 0.0, "unit": "ratio"
    }
    metrics["trace.untraced_trials_per_s"] = {"value": untraced_tps, "unit": "1/s"}
    metrics["trace.traced_trials_per_s"] = {"value": traced_tps, "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {"value": untraced_tps / traced_tps, "unit": "ratio"}
    return metrics


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _import_package():
    """Import ``sqpbs`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import sqpbs

    if Path(sqpbs.__file__).resolve().parent != src / "sqpbs":
        raise SystemExit(f"sqpbs imported from {sqpbs.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _import_package()
    from workloads import WARMUP_INDEX, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.check(workload.trial(workload.input(WARMUP_INDEX)))
    setup_s = time.monotonic() - args.spawn_time

    result: dict = {"setup_s": setup_s}
    if args.mode == "measure":
        log, wall = run_for(workload, args.seconds)
        result["metrics"], result["informational"] = end_to_end_metrics(log, wall)
    elif args.mode == "trace":
        from tracing import Tracer

        untraced, untraced_wall = run_count(workload, workload.min_trials)
        with Tracer() as tracer:
            log, wall = run_count(workload, workload.min_trials, tracer)
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"{workload.name}.spans.jsonl.gz")
        result["metrics"] = per_layer_metrics(
            tracer, log.attempted, untraced.attempted / untraced_wall, log.attempted / wall
        )
        result["untraced_digest"] = untraced.digest()
        result["untraced_failed"] = untraced.failed
    if args.mode != "setup":
        ok, text = log.run_check()
        result.update(
            attempted=log.attempted,
            failed=log.failed,
            errors=log.errors,
            digest=log.digest(),
            digest_trials=min(log.attempted, workload.min_trials),
            run_check={"passed": ok, "detail": text},
            environment=environment(args.seed),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
