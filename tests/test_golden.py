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
    "honest-sim-n4": "5e25761028ac22280ae3b73b164d1dd69646d2b1e4d1cda7df2edfd841c4257f",
    "honest-stubbed-n8": "f6123ddae8c0cd2a4a27ceff7aead5931855d75772912e83885f00795e647ee0",
    "honest-explicit-inputs": "e7d033599c051d30c413ad7de9c9fe3058730bd2907e63d3ef877e3ac29143ab",
    "ir-random-xi_m": "f36552754fb66bef7909191804887a47b677d0232f9d929147c9b3448d3fb8fa",
    "ir-z-bb84_dt": "961827d57e405e0a44d6916138e954858d58c1c7f3b66c6959413ee78322fdf5",
    "ir-x-sqkd_bt-threshold": "6fe3d766650a026af96ded0ce813591c64c4d80b762d84baa7007c63543b380f",
    "em-rotation-w1": "a334dc55462fe41602cef72c43e2cdcba9d66c217b077e8cf7ea17b9510fd2a0",
    "em-undetectable-sqkd_ct": "e0a70663068f345c2cb47a7734afe632100e179b9d532e396b758cad8e6219f9",
    "em-marking-g_prime": "9bd9e98fbd4fea3e6b8c8d7593f72fbd89d0f039a1e1dda7aae4cbfcdd1441ae",
    "forge-md-stubbed": "2c4a30adf0786cf39a63329167b26d50f588ef62abedffaf48106a6bdd402874",
    "tamper-md-bit7": "a00caeaa449b0a4994b5c4ced78f46c382279c6caa120755317810d3c783519c",
    "withhold-M_B": "f2cbb0fb9cca96cc96697cb41560c3c5a9143657700013c9ec725e179ee364c1",
    "withhold-M_C-stubbed": "6be79063b812dc64d586e0a4f5ca0e580a0abcc65072b8964cd5209d162314c8",
    "rows-em2-xi_m": "cdb5a4d05245e5ab71c93178cfdaa8f03ac0ee7a494872634f323b857e1d3a5b",
    "rows-em2-w1": "25edb035cb57f409b23c624c7464a4d71bfa486a6388f3cad8dae732c3bba4a9",
    "rows-em2-w2": "2e964a88c7bb1ddc7b57ea1cadd81d580721b3915f3ab4a7a028ee3231201001",
    "rows-em2-w4": "45300e6a28bddcc08f7dcba034aada7dd6cd446c2af39dc6d8eeff948f284b07",
    "rows-em4-xi_m": "d573202d2df3174424700a2b770de1747bfcd4217217a7a667712744ba4f0d9a",
    "rows-em4-w1": "dea4cc8db61c93daf55eee45a8d8f78ae76014c1e228d782e6bada70bc0568b4",
    "rows-em4-w2": "4169c6f1d08b347209c0d255041d64e0f4af561f4d4172a2c43a152a068dea7d",
    "rows-em4-w4": "cb4867902361d625ad3ed3dd86575be476e6d5bf63534653a04b5cc20190b379",
    "rows-ir-xi_m": "c11a489df3a94126677dec9a183ead21120e6f01b44a0eabe67fd3fa0c137aac",
    "rows-ir-w1": "f8167dbcd41cab5527f0733b689c6331f2e29262b47966d6134cbbe477a0d94b",
    "rows-ir-w2": "017d7d1c8be675d62cb92704c8cc71c19202707c7eaed0eb607396cdf635a7db",
    "rows-ir-w4": "e170b9b3910b23f5095109d3ba792e72eaca30c42efdeea0568c2f10080d3d4d",
    "em4-bb84_dt": "9f9c36ead671a2aba7bc8ab899a10961f7e001a9b1c0b376e9bc60834afbea06",
    "em-marking-xi_m-d20": "24e1db3429e17f29b0c0fea36aad39fc29b8c8028a6bf845a004ca6efab5d7d6",
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
    assert TOOL_VERSION == "0.7.0"


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
