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
    ("forge-n8-stubbed", 1): "ae528cf067139798531212feeeec7a4e18a12dcb8d6e15d99f45279538962534",
    ("forge-n8-stubbed", 20231030): "6e8e6ed4f1c53b1267c86927fde2ecdf47906dd5bcb452e96c21da850c4323fc",
    ("honest-n64-sim", 1): "9b84fa9b597a9fa679b4237e68cbfd13a2b7c1472328675c4370024e218206c7",
    ("honest-n64-sim", 20231030): "4e71382be9f686b345003d75bf618762fd6f2550ac90d967c86f217ab2716f9f",
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
