"""Tests of the benchmark itself: checks, digests, tracing and the CLI contract.

Run with ``python3 -m pytest benchmarks -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import end_to_end_metrics, per_layer_metrics, run_count
from sqpbs.adversary import EveParams
from sqpbs.teleport import _TABLE
from tracing import Tracer
from workloads import WORKLOADS, AuditCorrections, DetectEmD20, ForgeN8Stubbed, HonestN64Sim

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231030
SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# Layers a workload never reaches, as predicted in README.md.
PREDICTED_ZERO = {
    "honest-n64-sim": (
        "adversary.", "teleport.verify_correction_table", "statevec.postselect",
    ),
    "forge-n8-stubbed": (
        "keys.establish_key", "adversary.", "teleport.verify_correction_table",
        "statevec.postselect",
    ),
    "detect-em-d20": (
        "keys.", "teleport.", "protocol.", "transcript.", "bits.", "statevec.postselect",
        "statevec.measure_bell", "registers.measure_qubits_bell",
        "channels.semiquantum_return_check",
    ),
    "audit-corrections": (
        "keys.", "adversary.", "protocol.", "transcript.", "bits.", "channels.",
        "registers.", "statevec.measure", "statevec.apply_unitary",
        "teleport.correction_for",
    ),
}


class _Runs:
    """Untraced and traced runs of each workload's checked prefix, computed once."""

    def __init__(self):
        self._cache = {}

    def get(self, name: str, seed: int):
        if (name, seed) not in self._cache:
            workload = WORKLOADS[name](seed)
            untraced, wall = run_count(workload, workload.min_trials)
            with Tracer() as tracer:
                traced, traced_wall = run_count(workload, workload.min_trials, tracer)
            self._cache[name, seed] = (untraced, traced, tracer, wall, traced_wall)
        return self._cache[name, seed]


@pytest.fixture(scope="module")
def runs():
    return _Runs()


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_and_tracing_keeps_outputs(runs, name, seed):
    untraced, traced, _, _, _ = runs.get(name, seed)
    assert untraced.failed == 0, untraced.errors
    assert traced.failed == 0, traced.errors
    ok, detail = untraced.run_check()
    assert ok, detail
    assert traced.run_check() == (ok, detail)
    assert traced.digest() == untraced.digest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_digest_depends_on_the_seed(runs, name):
    digests = {runs.get(name, seed)[0].digest() for seed in SEEDS}
    assert len(digests) == len(SEEDS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_predicted_zero_layers(runs, name):
    _, _, tracer, _, _ = runs.get(name, DEFAULT_SEED)
    summary = tracer.summary()
    zero = [layer for layer in summary if layer.startswith(PREDICTED_ZERO[name])]
    assert zero, "prediction names no layer"
    for layer in zero:
        assert summary[layer] == (0, 0), layer
    if name == "honest-n64-sim":
        assert tracer.raw_count > tracer.sifted_count > 0
    else:
        assert tracer.raw_count == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_call_counts_repeat(name):
    workload = WORKLOADS[name](DEFAULT_SEED)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            run_count(workload, 10, tracer)
        counts.append({layer: calls for layer, (calls, _) in tracer.summary().items()})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_tracer_restores_every_binding():
    import sqpbs.registers
    import sqpbs.statevec
    from sqpbs.bits import Bits

    before = (sqpbs.statevec.measure, sqpbs.registers.measure, Bits.__dict__["__init__"])
    with Tracer():
        assert sqpbs.registers.measure is sqpbs.statevec.measure
        assert sqpbs.registers.measure is not before[0]
    assert (sqpbs.statevec.measure, sqpbs.registers.measure, Bits.__dict__["__init__"]) == before


def test_benchmark_json_names_the_harness_metrics(runs):
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    untraced, traced, tracer, wall, traced_wall = runs.get("audit-corrections", DEFAULT_SEED)
    gated, informational = end_to_end_metrics(untraced, wall)
    assert {m["name"] for m in spec["end_to_end"]} == set(gated) | {"setup_s"}
    assert set(informational) == {"trials_per_s", "trial_ms_p50"}
    per_layer = per_layer_metrics(tracer, traced.attempted, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] for m in spec["end_to_end"])


# -- negative controls: each check must catch a bad output ---------------------


def test_corrupted_correction_table_fails_audit():
    key = next(iter(_TABLE))
    coeffs, correction = _TABLE[key]
    wrong = next(p for p in type(correction) if p is not correction)
    workload = AuditCorrections(DEFAULT_SEED, check_table={**_TABLE, key: (coeffs, wrong)})
    log, _ = run_count(workload, 5)
    assert log.failed == log.attempted == 5


def test_forged_transcripts_fail_the_honest_check():
    class ForgedJudgedHonest(ForgeN8Stubbed):
        check = staticmethod(HonestN64Sim.check)

    log, _ = run_count(ForgedJudgedHonest(DEFAULT_SEED), 50)
    assert log.failed >= 45  # a random Bell record is accepted with probability 2**-8


def test_undetectable_coupling_fails_the_detection_check():
    workload = DetectEmD20(DEFAULT_SEED, eve=EveParams.undetectable((0.6, 0.8)))
    workload.min_trials = 200
    log, _ = run_count(workload, 200)
    assert log.failed == 0  # every trial is well formed ...
    ok, detail = log.run_check()
    assert not ok, detail  # ... but no trial detects anything


# -- the command-line contract ---------------------------------------------------


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_cli_prints_the_result_line_and_repeats_the_digest(runs):
    done = _run_cli(ROOT, "--workload", "audit-corrections", "--seed", str(DEFAULT_SEED),
                    "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= AuditCorrections.min_trials
    spec = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    detail = json.loads(lines[-2])
    assert detail["environment"]["seed"] == DEFAULT_SEED
    assert set(detail["informational"]) == {"trials_per_s", "trial_ms_p50"}
    untraced, _, _, _, _ = runs.get("audit-corrections", DEFAULT_SEED)
    assert detail["digest"] == untraced.digest()


def test_cli_rejects_a_run_longer_than_its_deadline_allows():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "audit-corrections", "--seconds", str(run.MAX_SECONDS + 1)])
    assert exc.value.code == 2


def test_cli_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run_cli(tmp_path, "--workload", "audit-corrections", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
