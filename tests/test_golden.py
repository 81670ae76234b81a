"""Golden transcript pins: refactors must not move one transcript byte.

Each config below is pinned to the sha256 of its run's canonical JSON
with ``meta.version`` left out, and a separate assertion pins that
field to ``TOOL_VERSION``: a version-only bump moves no hash, and a
change to the random stream moves exactly the configs it touches.
``data/golden_run.json`` is a transcript file written by ``sqpbs run``
with ``GOLDEN_ARGV``; ``sqpbs replay`` must still reproduce it byte for
byte.

``AUDIT_PIN`` pins the correction-table audit reports of acceptance
criterion 1's 100 messages, each field rounded to 1e-9 as the
``audit-corrections`` benchmark workload records them; the audit draws
no random numbers, so no version bump moves it.

A change that alters the random stream or the transcript format on
purpose bumps ``TOOL_VERSION`` (here and in ``pyproject.toml``) and
refreshes every pin with one command, from the repository root::

    PYTHONPATH=src python -m tests.test_golden

It prints the transcript hashes and the ``--out`` pins of the
experiments, to paste below, and the benchmark workload digests, to
paste into ``WORKLOAD_PINS`` in ``test_benchmark_contract.py``, and
rewrites ``data/golden_run.json``.
"""

import functools
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
from sqpbs.statevec import new_rng
from sqpbs.teleport import MessageQubit, TableAuditReport, verify_correction_table
from sqpbs.transcript import AttackSpec, RunConfig

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = ROOT / "tests" / "data" / "golden_run.json"
GOLDEN_ARGV = ("run", "--n", "4", "--seed", "21")

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
# each seed, from 100 up, is one whose run reaches the recovery record.
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
    ("em4", "xi_m"): 102, ("em4", "w1"): 101, ("em4", "w2"): 105, ("em4", "w4"): 103,
    ("ir", "xi_m"): 101, ("ir", "w1"): 102, ("ir", "w2"): 100, ("ir", "w4"): 100,
}
ROW_CONFIGS = {
    f"rows-{attack}-{channel}": RunConfig(
        n=6, seed=seed, key_mode="stubbed", decoy_count=1, error_threshold=0.99,
        attack=ROW_ATTACKS[attack](channel),
    )
    for (attack, channel), seed in ROW_SEEDS.items()
}
CONFIGS.update(ROW_CONFIGS)

# Probe-widened rows read in both bases: the BB84 key reads tapped qubits
# in Z and X, and 20 decoys under a threshold the run survives.
CONFIGS.update({
    "em4-bb84_dt": RunConfig(n=2, seed=14, attack=AttackSpec("entangle-measure", "bb84_dt", eve=FOUR_DIM_EVE)),
    "em-marking-xi_m-d20": RunConfig(
        n=3, seed=14, decoy_count=20, error_threshold=0.99,
        attack=AttackSpec("entangle-measure", "xi_m", eve=EveParams.probe_marking(1.2)),
    ),
})

PINS = {
    "honest-sim-n4": "5a54c98d6696417005907f0faea6838579b4cea7354fce52d314a4cad97578db",
    "honest-stubbed-n8": "cc4c2b906005e80f0e44036c7af9263ce3f475065bac0b661f8e489b06ac5919",
    "honest-explicit-inputs": "c5e6658749222149622b70a9ffc07cba9b39a34646ce5ae6426a9791744e7293",
    "ir-random-xi_m": "80e933f093a804abe66713200879991fc52c31927d53809a5cc989afc0557713",
    "ir-z-bb84_dt": "2f6ca8f8afc467e93dee85d3f8b462e5bb2fe6ce91c918856af653766e7b8a5a",
    "ir-x-sqkd_bt-threshold": "dc42640eec1f0f7a79ad23af34cea0360ca2bc5706892c9931ad0c099a66b097",
    "em-rotation-w1": "28b61d9f6df6ac999de3b97072486a7a2b4ede1190cdb259fb161761e8d2140c",
    "em-undetectable-sqkd_ct": "3bf0320718275845ea67e48c96ebe447047aec45a303dd53d754dd1036ed3490",
    "em-marking-g_prime": "103a762a8b12eee4813f6d995ec4e8a357ccfe0ec630f2a40d1e7e0563f15fba",
    "forge-md-stubbed": "53a60d12d6f1a33f03ea1e34aee0be1b0342a8b6d0cc89f4c5a58a4e600b9d9c",
    "tamper-md-bit7": "2fdd97db11921c6333c395d2a4c88f37b7a2e696cbd03efdca084d916cf0927d",
    "withhold-M_B": "172679c0471162fad199c6779b11c8dd477b119a6cb7195cfbf0e8d411e12e71",
    "withhold-M_C-stubbed": "d82ca74138f3596a202a830812786a8d2d2d43b5afd5335fe423c23a064f7c5a",
    "rows-em2-xi_m": "dc926ab0b9d7638695f7122c1fbf4228d7261140bf148a3854dc20b260e93056",
    "rows-em2-w1": "9370c1d78ff651c476d1a45387455273851bb8b5acbfb21194d40170c1a47074",
    "rows-em2-w2": "a38e1e901fb0f7cdcb9c9e756dbbbccf4424992ad9a69d1224d5feef8bc6599b",
    "rows-em2-w4": "1c79490f29bf74a9e8f95277cb5db3553d8f27e5da0af59cca604d00d3414775",
    "rows-em4-xi_m": "f18f7679d2bb66f8a380bbcfa24c9e7f19d65e75af0d18d62510c29ed084d82b",
    "rows-em4-w1": "bdf0b7edd7718947f9aa9cf3c92d09eb47628c356f20c66305834535af906426",
    "rows-em4-w2": "9eb94e523e2b781dca3462b7f2d9bda35e3d3589b9314dd0a6e4954b72d05ae1",
    "rows-em4-w4": "25157eaf397348dd54cb36d6561ec12f644637cc3b28beb97d571ea55e660eae",
    "rows-ir-xi_m": "1b8393323b11f65bb2438a43ff52eeb4aaa9502b873dc7e9182b3a5410a2e0aa",
    "rows-ir-w1": "7dd6fbec6d0216befa1f2d58ee300cfa306968d0df317035b87af01a90e8ec27",
    "rows-ir-w2": "7524e5de39ce59c8ef516a9f99b9dfd3d8439ecfcc26e18733d8df87404da61e",
    "rows-ir-w4": "f6b726255e4f0d8febc01e64573b89003ef5edc6b185b95365f2f59e7fa43e65",
    "em4-bb84_dt": "62d4f13c2641878a2cfa71c54fa26beecb40ddfd347b2627fa4a600178fbf9ac",
    "em-marking-xi_m-d20": "480f7d6ac55fbd2c8ad97fd6acc7d59f358740170b999f9736bd069df65b5743",
}

# `--out` JSON of experiments, parsed and without its "version" key.
OUT_ARGV = {
    "efficiency-n16-l256": ("experiment", "efficiency", "--n", "16", "--l", "256"),
    "detection-ir-d5": (
        "experiment", "detection", "--trials", "50", "--seed", "3", "--decoys", "5",
        "--attack", "intercept-resend",
    ),
    "detection-em-d20": (
        "experiment", "detection", "--trials", "200", "--seed", "3", "--attack", "entangle-measure",
        "--eve-params", str(ROOT / "tests" / "data" / "detect_coupling.json"),
    ),
}

OUT_PINS = {
    "efficiency-n16-l256": "3a5aad2154ed922d0778feaa50a7ff24cd464edbfbf06eab87d9c98b4fc44376",
    "detection-ir-d5": "6be5f871423d2485360e8d2a7f843510ae04aa54822dc20970af9e5886dc193a",
    "detection-em-d20": "7bb6b3d03ebed9fb5cf7e0ffd329bb71005ae7b8ccca6ae5069c3ac3abb49168",
}

AUDIT_PIN = "581ec5664374af6a350bb38fdc6df03dceb244995d5192a703403783da101638"


@functools.cache
def canonical_transcript(name: str) -> dict:
    """The parsed canonical JSON of config ``name``'s run."""
    return json.loads(run_full(CONFIGS[name]).canonical_json())


def transcript_sha256(name: str) -> str:
    """sha256 of config ``name``'s canonical transcript without ``meta.version``."""
    data = canonical_transcript(name)
    unversioned = {**data, "meta": {k: v for k, v in data["meta"].items() if k != "version"}}
    return hashlib.sha256(json.dumps(unversioned, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def out_sha256(argv: tuple[str, ...], path: Path) -> str:
    assert main([*argv, "--out", str(path)]) == EXIT_VALID
    data = json.loads(path.read_text())
    del data["version"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def criterion_1_messages() -> list[MessageQubit]:
    """Acceptance criterion 1's 100 messages: two fixed ones, then 98 drawn from seed 1001."""
    rng = new_rng(1001)
    messages = [MessageQubit(0.6, 0.8), MessageQubit(1 / math.sqrt(2), 1j / math.sqrt(2))]
    return messages + [MessageQubit.random(rng) for _ in range(98)]


def audit_record(report: TableAuditReport) -> str:
    """Pass flag, message and each branch's findings, every number rounded to 1e-9."""

    def num(x: float) -> str:
        return f"{round(x, 9) + 0.0!r}"  # + 0.0 folds -0.0 into 0.0

    m = report.message
    fields = [str(int(report.all_pass()))]
    fields += [num(z.real) + "," + num(z.imag) for z in (m.a, m.b)]
    for b in report.branches:
        fields.append(":".join((
            num(b.probability), num(b.collapsed_fidelity), num(b.corrected_fidelity),
            num(b.recovery_phase.real), str(len(b.fidelity_one_corrections)),
            str(int(b.order_independent)),
        )))
    return "|".join(fields) + ";"


def audit_sha256() -> str:
    records = "".join(audit_record(verify_correction_table(m)) for m in criterion_1_messages())
    return hashlib.sha256(records.encode()).hexdigest()


def test_tool_version_matches_the_pins():
    assert TOOL_VERSION == "0.8.0"


def test_pyproject_version_is_the_tool_version():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == TOOL_VERSION


def test_pins_cover_every_config():
    assert set(PINS) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_transcript_bytes_are_pinned(name):
    assert transcript_sha256(name) == PINS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_transcript_version_is_the_tool_version(name):
    assert canonical_transcript(name)["meta"]["version"] == TOOL_VERSION


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


def test_correction_table_audit_is_pinned():
    assert audit_sha256() == AUDIT_PIN


def test_checked_in_transcript_replays(capsys):
    assert main(["replay", str(GOLDEN_FILE)]) == EXIT_VALID
    recorded = json.loads(GOLDEN_FILE.read_text())["transcript"]
    out = capsys.readouterr().out
    assert out == f"replay matches: {len(recorded['events'])} events, verdict {recorded['verdict']}\n"


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    for key in CONFIGS:
        print(f'    "{key}": "{transcript_sha256(key)}",')
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in OUT_ARGV.items():
            with contextlib.redirect_stdout(io.StringIO()):
                digest = out_sha256(argv, Path(tmp) / "out.json")
            print(f'    "{key}": "{digest}",')
    print(f'AUDIT_PIN = "{audit_sha256()}"')
    from tests.test_benchmark_contract import WORKLOAD_PINS, workload_sha256

    for name, seed in WORKLOAD_PINS:
        print(f'    ("{name}", {seed}): "{workload_sha256(name, seed)}",')
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*GOLDEN_ARGV, "--out", str(GOLDEN_FILE)]) == EXIT_VALID
    print(f"rewrote {GOLDEN_FILE.relative_to(ROOT)}")
