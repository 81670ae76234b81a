"""Golden transcript pins: refactors must not move one transcript byte.

Each config below is pinned to the sha256 of its run's canonical JSON.
A change that alters the random stream or the transcript format on
purpose bumps ``TOOL_VERSION`` (here and in ``pyproject.toml``) and
regenerates these hashes, and the ``--out`` pins of two experiments,
with::

    PYTHONPATH=src python -m tests.test_golden

``data/golden_run.json`` is a transcript file written by ``sqpbs run``;
``sqpbs replay`` must still reproduce it byte for byte.  Rewrite it,
from the repository root, with::

    PYTHONPATH=src python -m sqpbs.cli run --n 4 --seed 21 --out tests/data/golden_run.json
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from sqpbs import TOOL_VERSION
from sqpbs.adversary import EveParams
from sqpbs.bits import Bits
from sqpbs.cli import EXIT_VALID, main
from sqpbs.protocol import run_full
from sqpbs.transcript import AttackSpec, RunConfig

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = ROOT / "tests" / "data" / "golden_run.json"

CONFIGS = {
    "honest-sim-n4": RunConfig(n=4, seed=1),
    "honest-stubbed-n8": RunConfig(n=8, seed=2, key_mode="stubbed"),
    "honest-explicit-inputs": RunConfig(
        n=3, seed=3, g_a=Bits("101"), k_a=Bits("011"), decoy_count=5,
        hash_bits=300, hash_algorithm="sha512",
    ),
    "ir-random-xi_m": RunConfig(
        n=2, seed=4, decoy_count=6, attack=AttackSpec("intercept-resend", "xi_m"),
    ),
    "ir-z-bb84_dt": RunConfig(
        n=2, seed=5, attack=AttackSpec("intercept-resend", "bb84_dt", basis="z"),
    ),
    "ir-x-sqkd_bt-threshold": RunConfig(
        n=2, seed=6, error_threshold=0.5,
        attack=AttackSpec("intercept-resend", "sqkd_bt", basis="x"),
    ),
    "em-rotation-w1": RunConfig(
        n=3, seed=7, attack=AttackSpec("entangle-measure", "w1", eve=EveParams.rotation(0.8)),
    ),
    "em-undetectable-sqkd_ct": RunConfig(
        n=2, seed=8,
        attack=AttackSpec("entangle-measure", "sqkd_ct", eve=EveParams.undetectable((0.6, 0.8))),
    ),
    "em-marking-g_prime": RunConfig(
        n=3, seed=9, key_mode="stubbed",
        attack=AttackSpec("entangle-measure", "g_prime", eve=EveParams.probe_marking(1.2)),
    ),
    "forge-md-stubbed": RunConfig(n=4, seed=10, key_mode="stubbed", attack=AttackSpec("forge-md")),
    "tamper-md-bit7": RunConfig(n=4, seed=11, attack=AttackSpec("tamper-md", bit_index=7)),
    "withhold-M_B": RunConfig(n=3, seed=12, attack=AttackSpec("withhold", record="M_B")),
    "withhold-M_C-stubbed": RunConfig(
        n=3, seed=13, key_mode="stubbed", attack=AttackSpec("withhold", record="M_C"),
    ),
}

PINS = {
    "honest-sim-n4": "aa2d18dd69a7c57d08a415b808e1bd6a92ebe135f2a5d2e82f3b13ac1a02ee6b",
    "honest-stubbed-n8": "1a0bf5e47f4faaff85e33f8482ecc6ae9b2ef1eeb8c06f9f1522751109a58f3a",
    "honest-explicit-inputs": "eea7a7c70f49fd42eeb94d17190b89362c5c45b66355ef484fc889a7b4819564",
    "ir-random-xi_m": "0e428d9968b5013a045d0137ec60f9ca08be2140db26ddb16450272eb5fcce07",
    "ir-z-bb84_dt": "8f300bafe3ac15659d95d5c81a7891cceace98ef435882d76d5c99fa7d1f61cf",
    "ir-x-sqkd_bt-threshold": "37aa88f3da70ed9b26481534d8f0b7d9bdc24d4f76c1fb892d4cc1018efb74b8",
    "em-rotation-w1": "6651fe2d33a521ce367bfaf188450af2a4510686bf8cbeffc09ac5f19c2f337b",
    "em-undetectable-sqkd_ct": "e48832ed87f29ad1f156128006a11044ed59bb88af2a9c6a313e4404da267ff8",
    "em-marking-g_prime": "7d5d70bc4a5a8d48d49022ddfb8e1325aea80e1e7f32b87ed87b34eb4ce88ce0",
    "forge-md-stubbed": "e1bdcf3651eed9cfc678ff7fdc1bd0c3ad024d99d5231050a18ad04f479bdd8d",
    "tamper-md-bit7": "6b51f41e21cb3160f09a12a6265f51a8b385bf4b0aef546a447f0d844e989ba6",
    "withhold-M_B": "5824b40a5c1c00d3b3d1a83a5f4adaab552d64095e00a07459dcba4c48c082e7",
    "withhold-M_C-stubbed": "8139d4b580dd39c770fbac91456a612a66365a331e275862cdeb9deae9e0c624",
}

# `--out` JSON of experiments, parsed and without its "version" key.
OUT_ARGV = {
    "efficiency-n16-l256": ("experiment", "efficiency", "--n", "16", "--l", "256"),
    "detection-ir-d5": (
        "experiment", "detection", "--trials", "50", "--seed", "3", "--decoys", "5",
        "--attack", "intercept-resend",
    ),
}

OUT_PINS = {
    "efficiency-n16-l256": "3a5aad2154ed922d0778feaa50a7ff24cd464edbfbf06eab87d9c98b4fc44376",
    "detection-ir-d5": "b24199239716908e89af1d79b9a58c753116f439bb15c362a1e85dd112ae5a96",
}


def transcript_sha256(config: RunConfig) -> str:
    return hashlib.sha256(run_full(config).canonical_json().encode()).hexdigest()


def out_sha256(argv: tuple[str, ...], path: Path) -> str:
    assert main([*argv, "--out", str(path)]) == EXIT_VALID
    data = json.loads(path.read_text())
    del data["version"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_tool_version_matches_the_pins():
    assert TOOL_VERSION == "0.2.0"


def test_pyproject_version_is_the_tool_version():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == TOOL_VERSION


def test_pins_cover_every_config():
    assert set(PINS) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_transcript_bytes_are_pinned(name):
    assert transcript_sha256(CONFIGS[name]) == PINS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_json_round_trip(name):
    config = CONFIGS[name]
    assert RunConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict()))) == config


@pytest.mark.parametrize("name", sorted(OUT_ARGV))
def test_experiment_out_is_pinned(name, tmp_path):
    assert out_sha256(OUT_ARGV[name], tmp_path / "out.json") == OUT_PINS[name]


def test_checked_in_transcript_replays(capsys):
    assert main(["replay", str(GOLDEN_FILE)]) == EXIT_VALID
    recorded = json.loads(GOLDEN_FILE.read_text())["transcript"]
    out = capsys.readouterr().out
    assert out == f"replay matches: {len(recorded['events'])} events, verdict {recorded['verdict']}\n"


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    for key, config in CONFIGS.items():
        print(f'    "{key}": "{transcript_sha256(config)}",')
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in OUT_ARGV.items():
            with contextlib.redirect_stdout(io.StringIO()):
                digest = out_sha256(argv, Path(tmp) / "out.json")
            print(f'    "{key}": "{digest}",')
