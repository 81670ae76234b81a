"""Golden transcript pins: refactors must not move one transcript byte.

Each config below is pinned to the sha256 of its run's canonical JSON.
A change that alters the random stream or the transcript format on
purpose bumps ``TOOL_VERSION`` and regenerates these hashes with::

    PYTHONPATH=src python -m tests.test_golden

``data/golden_run.json`` is a transcript file written by ``sqpbs run``;
``sqpbs replay`` must still reproduce it byte for byte.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sqpbs import TOOL_VERSION
from sqpbs.adversary import EveParams
from sqpbs.bits import Bits
from sqpbs.cli import EXIT_VALID, main
from sqpbs.protocol import run_full
from sqpbs.transcript import AttackSpec, RunConfig

GOLDEN_FILE = Path(__file__).resolve().parent / "data" / "golden_run.json"

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
    "honest-sim-n4": "23624f1a5d11dcdffdfa0e5e07f568bfd971c8c89fa8cd7b2ef79fd07f50f3af",
    "honest-stubbed-n8": "e6d8af97490dfbb047e99d1ef32965ada224303a6857d8eff8f822a95604d7b1",
    "honest-explicit-inputs": "6d6572b580cb3c20f547f6adb36184f75fd30408095982dd0f0ea640b7c24f3a",
    "ir-random-xi_m": "d68bce8fe1ab3967a8b88e6a73f40b3c345860d7aa14b591c1df02f8afd39914",
    "ir-z-bb84_dt": "4d828ca8b1bfbd7a74c67387b815e1300a060ed795bf86210d9459d203ecba24",
    "ir-x-sqkd_bt-threshold": "3216e22adc25fae3d4a63ceff8a48b34f9a8f199fd05bcdb88964316b9709285",
    "em-rotation-w1": "3ef4176e3a76452739c0356cac5aeee4d1e73e0b79d225ea5e201f61205ac441",
    "em-undetectable-sqkd_ct": "0833440e2da327b769ed0e1080f6d5506cf558e5b039203fe104aa73aee62e90",
    "em-marking-g_prime": "43c390414848bed9e68cc87f9bf17850d0dd37117d35299ece38230176cc43a0",
    "forge-md-stubbed": "7ac753b93ca46b1e355dcf8a1f5c233018b682e982bc0c892db76eb8acc5f3e5",
    "tamper-md-bit7": "757a90dfea8f01faa8257c88f44e830a056f252cadb4f1eb73fa598d3a4ef99b",
    "withhold-M_B": "0e0f4644acedb392b335aa119928d04e65f13683effd24f2ffd5e5e1533b1c62",
    "withhold-M_C-stubbed": "1fe6a4d90ed809a7d657046feff8a3bb6e13e79f829d7e127ff15c5347ac6fd8",
}


def transcript_sha256(config: RunConfig) -> str:
    return hashlib.sha256(run_full(config).canonical_json().encode()).hexdigest()


def test_tool_version_matches_the_pins():
    assert TOOL_VERSION == "0.1.0"


def test_pins_cover_every_config():
    assert set(PINS) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_transcript_bytes_are_pinned(name):
    assert transcript_sha256(CONFIGS[name]) == PINS[name]


def test_checked_in_transcript_replays(capsys):
    assert main(["replay", str(GOLDEN_FILE)]) == EXIT_VALID
    recorded = json.loads(GOLDEN_FILE.read_text())["transcript"]
    out = capsys.readouterr().out
    assert out == f"replay matches: {len(recorded['events'])} events, verdict {recorded['verdict']}\n"


if __name__ == "__main__":
    for key, config in CONFIGS.items():
        print(f'    "{key}": "{transcript_sha256(config)}",')
