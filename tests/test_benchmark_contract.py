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
    ("detect-em-d20", 1): "d5f6f31f4dc5a5fca340f6bb6aba33b527029bcf0efeb13d4e45a088c59e3e4f",
    ("detect-em-d20", 20231030): "ee6cc93c6a59f896d5f66126a9b127faae05a26da032b67854bd144db6f2595c",
    ("forge-n8-stubbed", 1): "f2f5bd08cb6f2a05cc11df0953cb5c1097806ed64a06d927d51b5887630ef9a6",
    ("forge-n8-stubbed", 20231030): "ab7415bf34be436a4f700a25313a59d293a326063962e72015ad1e17892a363c",
    ("honest-n64-sim", 1): "70c736298705298ff4b3e5e8611170b0fb5790f44b1b6830ecf0b5eacabb9959",
    ("honest-n64-sim", 20231030): "1459b7a28d1f2d78d74fc16bb988751086a69b08afc73e57c4a9f64db43f97cf",
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
