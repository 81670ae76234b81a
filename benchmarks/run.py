"""Run one sqpbs benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the workload is measured end to
end; with ``--trace 1`` a fixed number of trials is run untraced and
then traced, and the per-layer numbers are printed instead.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``benchmarks/README.md``.

Each measurement runs in a child process (``harness.py``).  ``setup_s``
is the median over ``SETUP_SAMPLES`` fresh processes, the measured one
included; the set-up-only processes run half before and half after the
measured one, so the samples span the run.  The samples, in the order
they were taken, are printed with the run's details.  At most two
processes exist at a time: this one and one child.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from harness import BLAS_THREAD_VARS, HERE, RESULTS, ROOT

HARNESS = HERE / "harness.py"
WORKLOADS = ("honest-n64-sim", "forge-n8-stubbed", "detect-em-d20", "audit-corrections")
SETUP_SAMPLES = 11
# The whole run, set-up samples included, ends within DEADLINE_S; a
# measured window longer than MAX_SECONDS would not fit in it.
DEADLINE_S = 170.0
MAX_SECONDS = 120.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _child(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    command = [
        sys.executable, str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--spawn-time", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchmarkError(f"{mode} process timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def _report(
    args: argparse.Namespace, child: dict, correct: bool, metrics: dict, setup: list[float]
) -> None:
    env = child["environment"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {env['python']}  numpy {env['numpy']}  {env['blas']}  nproc {env['nproc']}"
    )
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    for name, metric in child.get("informational", {}).items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}  (informational)")
    print(f"  digest sha256:{child['digest']} over the first {child['digest_trials']} trials")
    print(f"  run check {'PASS' if child['run_check']['passed'] else 'FAIL'}: {child['run_check']['detail']}")
    for error in child["errors"]:
        print(f"  failed {error}")
    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, **child, "metrics": metrics,
        "setup_samples": setup,
    }
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "environment": env, "digest": child["digest"], "run_check": child["run_check"],
        "informational": child.get("informational", {}), "setup_samples": setup,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one sqpbs benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS:g}]")
    if not (ROOT / "src" / "sqpbs" / "__init__.py").is_file():
        print(f"error: no sqpbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            child = _child(args, "trace", deadline)
            metrics = child["metrics"]
            setup = [child["setup_s"]]
            correct = child["untraced_digest"] == child["digest"] and child["untraced_failed"] == 0
        else:
            before = (SETUP_SAMPLES - 1) // 2
            setup = [_child(args, "setup", deadline)["setup_s"] for _ in range(before)]
            child = _child(args, "measure", deadline)
            setup.append(child["setup_s"])
            setup += [
                _child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1 - before)
            ]
            metrics = dict(child["metrics"])
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            correct = True
    except (BenchmarkError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = correct and child["failed"] == 0 and child["run_check"]["passed"]
    _report(args, child, correct, metrics, setup)
    print(json.dumps({
        "correct": correct, "attempted": child["attempted"], "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
