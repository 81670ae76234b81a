"""The package names the benchmark binds to still exist and still work.

``benchmarks/`` wraps package functions by name and drives the package
through them; renaming or deleting one breaks only the slow benchmark
suite.  These checks load the benchmark's own ``tracing`` and
``workloads`` modules and fail fast in tier-1 instead.
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


tracing = _load("tracing")
workloads = _load("workloads")


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
