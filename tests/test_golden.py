"""Golden transcript pins: refactors must not move one transcript byte.

Each config below is pinned to the sha256 of its run's canonical JSON.
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

It prints the transcript hashes and the ``--out`` pins of two
experiments, to paste below, and rewrites ``data/golden_run.json``.
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
    "honest-sim-n4": "4b405810c72cd8830fdcb7dd81354059fe34b93e4f6c99ddfc87e0524ba1fa09",
    "honest-stubbed-n8": "c103abbe6fbeebba46f6b6eef5142455ecce1844d13f32e2b8485ac3378fb331",
    "honest-explicit-inputs": "be208616de7358c990df7473071c90e58906d29b5c5a62aeb782599a5a2d5008",
    "ir-random-xi_m": "97c812f4771907028d3fcbd546974cad592a0084f4215d05faca62c72dc7910c",
    "ir-z-bb84_dt": "e13811c47501e1381ba7f29fd11b52de5fcc5bae1d3804e72b5825c14207a4e9",
    "ir-x-sqkd_bt-threshold": "9ed6c23288807daaf93d5ad84f71e6cc794d30f9028d024b2f265bea3ae6e51e",
    "em-rotation-w1": "ecc5177292f9d1aa67092881045e5672bfa8d29d1f8e3b2065b15360cf5bf682",
    "em-undetectable-sqkd_ct": "760be0b43a19eddabdfb5afe134feeba7cac6ca2687a6c7d51d8093b25946f36",
    "em-marking-g_prime": "2c0fe3023315de6a29a59c3690b1587218caa34c6fbd7405963ff782d1a8b855",
    "forge-md-stubbed": "e65720ebc620b721477f1d75aaf6490609cf88c7ad4eb4d1b4ea945f72de6e1d",
    "tamper-md-bit7": "52a92a306de16f5536c97c96739b8350d281d72b1ba495eeca9038f94c8d8468",
    "withhold-M_B": "a033e95453f22a871ff483d91bfdb6e501c003427f9abaa9015b8fb5b62a918f",
    "withhold-M_C-stubbed": "998106a2e5049acfdcbb2d7b413aa574316a0424479874e4315f532bfc75ea2d",
    "rows-em2-xi_m": "2ee0155a78f01b3bcbb417c5bbf7320231b9607b741b32fd49421973b0d76a4f",
    "rows-em2-w1": "e122b21646a7dc2b5a65327e110765a01c7bfeb9a8b8318f487c612640a9cb14",
    "rows-em2-w2": "e263d4bf03a698a13788c79be62e51826abc8ac28151f65e5f4d9fb6b0565f0b",
    "rows-em2-w4": "4848f775e2df0f7b2537645c98b3548e0de94d0091501f1ff3f600f432c67c23",
    "rows-em4-xi_m": "d9b142cb4afbf84ce47d325ba1fe68a9e12c8690b9e5b250875bf55bf0d3abbd",
    "rows-em4-w1": "801dbf9654d4f2af92ee57c8e898cdeb05af8469d05fb7c941c247e76593f9f5",
    "rows-em4-w2": "dec820e654ae70920025dda817bebdf14729dec203a366149f8e6618fa1bed9b",
    "rows-em4-w4": "efd788b47530ddf6ee6fbe5c9ef228e51fc10624b291263e5a9303287d767e1f",
    "rows-ir-xi_m": "5cf74165f35f5602b2171783e78a7bfd35b0a5c8a3dbdc5b32270b35eaacf7ac",
    "rows-ir-w1": "22fbb0d9cbceb5a2a5a1120bf9a1539e3eeac4f89136b33f68c061b1ae39276a",
    "rows-ir-w2": "d016fd91fbf518fdf8083a8dc5af07b02b10a71355b7c0074ffa427a11198f1a",
    "rows-ir-w4": "a6163a7d281697f6edd46804fb0f77e92e35de0631362711656078c0bc5f3eed",
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

AUDIT_PIN = "581ec5664374af6a350bb38fdc6df03dceb244995d5192a703403783da101638"


def transcript_sha256(config: RunConfig) -> str:
    return hashlib.sha256(run_full(config).canonical_json().encode()).hexdigest()


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
    assert TOOL_VERSION == "0.4.0"


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

    for key, config in CONFIGS.items():
        print(f'    "{key}": "{transcript_sha256(config)}",')
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in OUT_ARGV.items():
            with contextlib.redirect_stdout(io.StringIO()):
                digest = out_sha256(argv, Path(tmp) / "out.json")
            print(f'    "{key}": "{digest}",')
    print(f'AUDIT_PIN = "{audit_sha256()}"')
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*GOLDEN_ARGV, "--out", str(GOLDEN_FILE)]) == EXIT_VALID
    print(f"rewrote {GOLDEN_FILE.relative_to(ROOT)}")
