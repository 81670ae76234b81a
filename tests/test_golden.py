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
import math
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

# Attacked payload rows that reach Trent's recovery: probes and
# intercept-collapsed qubits inside the carriers and message qubits.  One
# decoy per channel and a high threshold let most runs pass the checks;
# each seed is the first from 100 whose run reaches the recovery record.
_C, _S = math.cos(1.2), math.sin(1.2)
FOUR_DIM_EVE = EveParams(
    _C, _S, -_S, _C, eps_00=(1, 0, 0, 0), eps_01=(0, 1, 0, 0), eps_10=(0, 0, 1, 0), eps_11=(0, 0, 0, 1),
)
ROW_ATTACKS = {
    "em2": lambda channel: AttackSpec("entangle-measure", channel, eve=EveParams.probe_marking(1.2)),
    "em4": lambda channel: AttackSpec("entangle-measure", channel, eve=FOUR_DIM_EVE),
    "ir": lambda channel: AttackSpec("intercept-resend", channel),
}
ROW_SEEDS = {
    ("em2", "xi_m"): 100, ("em2", "w1"): 100, ("em2", "w2"): 100, ("em2", "w4"): 100,
    ("em4", "xi_m"): 100, ("em4", "w1"): 101, ("em4", "w2"): 105, ("em4", "w4"): 100,
    ("ir", "xi_m"): 100, ("ir", "w1"): 102, ("ir", "w2"): 100, ("ir", "w4"): 100,
}
ROW_CONFIGS = {
    f"rows-{attack}-{channel}": RunConfig(
        n=6, seed=seed, key_mode="stubbed", decoy_count=1, error_threshold=0.99,
        attack=ROW_ATTACKS[attack](channel),
    )
    for (attack, channel), seed in ROW_SEEDS.items()
}
CONFIGS.update(ROW_CONFIGS)

PINS = {
    "honest-sim-n4": "828ed6efdeff54049fd11e2663b571f055cd1796d7636290f781dff0f6d5de26",
    "honest-stubbed-n8": "915178828703c61f782742551a498d915ca78d81768782c7d0ab162c96f7a9e3",
    "honest-explicit-inputs": "cda24d5aeaef695c6fb91b622fc25e346c712406ea1c11f4332a7aeadfb6a4d1",
    "ir-random-xi_m": "01188f34b62f2c3dd1b7ab7e41020edb3d749756fa09670507fdfae810af3f3d",
    "ir-z-bb84_dt": "0170b7dfb72a4fcf7eabb0c0c1c85193fa9beda7c63846b4f8ce25cb2d2c19b7",
    "ir-x-sqkd_bt-threshold": "f7f6b829051c39f4897775816ca159accf51dce44c364dd9d5d00048a286d159",
    "em-rotation-w1": "6481258665ce13e29d0035fc00079ded4d663d847c87d134429336c358719f7b",
    "em-undetectable-sqkd_ct": "56e28487e4770a7a5bf2ea5f0a67fe632ff3c5e78ab5a427efa55be7722a18d6",
    "em-marking-g_prime": "06e572aa87059f404ac7161dcc2f5928a3266683255da456e57b6f85e392d922",
    "forge-md-stubbed": "2496842f4e6e11610694506ae114e7c9495a4b6b5fe1f5fb484108735cb5b6e1",
    "tamper-md-bit7": "fa2eb346b98923518bdfa064fce3550a7e3af0699600e8e77b52c130694641e2",
    "withhold-M_B": "bcac6dc1b20ca34f4ae565ac519c9e49af90eb18ed87aeb2e71690a7ff48d1ba",
    "withhold-M_C-stubbed": "11cc1082a779e2545fc2de19c6d1b1300aa659afd9856f30158e9e33b2c52cdc",
    "rows-em2-xi_m": "1b7c484003d0add6a22a8736c5e5ba55c21b6a4ae019007d7d52fc89f522d942",
    "rows-em2-w1": "e23c0e441197838707226a0d4cb498b0129c585825092117a560b4cbf6db1949",
    "rows-em2-w2": "3a5b50928bf617efe648ecb26f86e93b71f1180028dd4cc328a6525a31c24286",
    "rows-em2-w4": "3caa0d9f1250eed784583cceef434544141780ca8a11da1c201a55ce9e408804",
    "rows-em4-xi_m": "1dcf4118ffa42a3f0d53b2fb54d9788c2d2486a85e29bd22bf0d54366eb21edf",
    "rows-em4-w1": "bfa62ce5bd1c9e22d38ae36b14cee3762e5e214addff23bbb656bcf8275ec4b1",
    "rows-em4-w2": "89c50accfd36cb9cf0cc78f377e6116d62eca30a9861e61ac56672377f682b48",
    "rows-em4-w4": "9b8edeab7d787d03002b437c05e9b2650f3c3cbbb8c6f1620f1ff00ea3be5d2f",
    "rows-ir-xi_m": "a96a1d4a634f1207ba8dbf22232a6f9bf4a04444541a15b57952e84ed408919c",
    "rows-ir-w1": "23f757ed320d079869e7d389999836f4a96f789f203f9f1e80b47546591699f9",
    "rows-ir-w2": "a6c132d2fcb2b29d7569545d7793b33f3a417856c8b83707a2234e09cd0323c6",
    "rows-ir-w4": "073ead6e3391c2b24c5cd3366ae284c0e23dc6596e9c88f3e50e77fe4cf971f4",
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
    assert TOOL_VERSION == "0.3.0"


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


@pytest.mark.parametrize("name", sorted(ROW_CONFIGS))
def test_attacked_rows_reach_the_recovery(name):
    assert run_full(ROW_CONFIGS[name]).events_of("recovery_record")


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
