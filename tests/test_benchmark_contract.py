"""The package names the benchmark binds to still exist and still work.

``benchmarks/`` wraps package functions by name and drives the package
through them; renaming or deleting one breaks only the slow benchmark
suite.  These checks load the benchmark's own ``tracing`` and
``workloads`` modules and fail fast in tier-1 instead.

``WORKLOAD_PINS`` pins each workload's run digest over its first
``PINNED_TRIALS`` trials at two seeds, through the benchmark's own
``harness.run_count``: a change that moves a benchmark output fails
here.  ``python -m tests.test_golden`` prints these pins too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sqpbs

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load("harness")
tracing = _load("tracing")
workloads = _load("workloads")

PINNED_TRIALS = 100
WORKLOAD_PINS = {
    ("audit-corrections", 1): "9f20f34b64490c924a8976b594a384a0687784405f8d52fab6dd8bd0bcf32737",
    ("audit-corrections", 20231030): "20b8c9cee47a2e9b0ae93d1f1ca5677c6e881d7126e15f5c008264efb6ab7959",
    ("detect-em-d20", 1): "6c2f8e82405bf401d79518eb39bbf734f41c348c6385614f4afde3abbfd1596f",
    ("detect-em-d20", 20231030): "b918db9bce8e8e6e9aef5e4a6d0f6fb13797a983fe2f59f8ef0acd107a216395",
    ("forge-n8-stubbed", 1): "b37a4404b2950f6a8a6844aee5c7bf600eab76a2cf96cc29219686c44758f381",
    ("forge-n8-stubbed", 20231030): "ceba7b4d3645af52f6e7140674c65edd9fa6a872cae7dda6c75b7439dcb30472",
    ("honest-n64-sim", 1): "0786bd8973aba734ef21c0c793a063bfc7b94ec227b897806d1742f5b4a3ee77",
    ("honest-n64-sim", 20231030): "12c21a3c2c402d4edee8d6db4be0b2e43dda2b34fe391033c8150397f43459f3",
}


def workload_sha256(name: str, seed: int) -> str:
    """The run digest of workload ``name``'s first ``PINNED_TRIALS`` trials at ``seed``."""
    log, _ = harness.run_count(workloads.WORKLOADS[name](seed), PINNED_TRIALS)
    return log.digest()


def _bindings() -> dict:
    out = {}
    for _, module_name, attr in tracing.LAYERS:
        owner = importlib.import_module(f"sqpbs.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        out[module_name, attr] = vars(owner)[attr]
    return out


def test_every_traced_layer_resolves():
    for (module_name, attr), fn in _bindings().items():
        assert callable(fn), f"sqpbs.{module_name}.{attr}"
    # The tracer's binding-restore test follows ``measure`` into ``registers``.
    assert sqpbs.registers.measure is sqpbs.statevec.measure


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_trial_per_workload(name):
    before = _bindings()
    workload = workloads.WORKLOADS[name](1)
    with tracing.Tracer() as tracer:
        tracer.trial = 0
        out = workload.trial(workload.input(0))
    assert workload.check(out)
    assert isinstance(workload.record(out), bytes)
    assert sum(calls for calls, _ in tracer.summary().values()) > 0
    assert _bindings() == before


def test_workload_pins_cover_every_workload():
    assert sorted(WORKLOAD_PINS) == sorted((name, seed) for name in workloads.WORKLOADS for seed in (1, 20231030))


@pytest.mark.parametrize("name, seed", sorted(WORKLOAD_PINS))
def test_workload_digest_is_pinned(name, seed):
    assert workload_sha256(name, seed) == WORKLOAD_PINS[name, seed]
