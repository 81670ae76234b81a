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
    ("em4", "xi_m"): 102, ("em4", "w1"): 100, ("em4", "w2"): 105, ("em4", "w4"): 103,
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
    "honest-sim-n4": "e7979cd59d8171058581d7cf67b58bb234585cce7a016dc99c746310dec5cb7d",
    "honest-stubbed-n8": "1050874441bfc85fd35be3e187e5967b3db56f2b3b54ef842cd6da454ab92f24",
    "honest-explicit-inputs": "b9f2cea9cc16ba573e0bb93cc9464e49949123c09f15df066eb25aa5ac5273de",
    "ir-random-xi_m": "0177074e27b1138132c4ed3dcda6f9604ca59477e6cb6a0fa6ceb9698f2d4903",
    "ir-z-bb84_dt": "49c3c5b81807861a54144639ac5e07ee71dafdd60244f9348be1dbfc8aa2e965",
    "ir-x-sqkd_bt-threshold": "350071d6c19375028127c18b97375128fc257ca09ea9bd4d69ce777f1a2c6442",
    "em-rotation-w1": "10d7eeb3e058c6062e1d68fc61dc9f73d3bcdf1eb1f7585fcaee3d2842ff58bf",
    "em-undetectable-sqkd_ct": "18c35c1937a19b5b59bbe992aec0ea970202ea4f8a20af141276c69781c53ca9",
    "em-marking-g_prime": "2bdb8da1ba9a2c9cc72e898c8db7af5d26cbb1cee4b5b15a1812c4c1a3fce28f",
    "forge-md-stubbed": "975cc8e93c39d5383228e4c50ffcb07e8e49e7884fb14a92b8fd7cd7bcc0e575",
    "tamper-md-bit7": "5a43e2e6186de4b54739f6a161cc3565f87f21788ca5bf42c6cf3428c0fde620",
    "withhold-M_B": "ede9286095507e1abaa98ede75761916935d7d229b7d09de3f655536f387be02",
    "withhold-M_C-stubbed": "f231eee42c6d8aa45aa527eaec772d574264311ec20bea48863739ec1a5df7f7",
    "rows-em2-xi_m": "3a7145f64354748d9f52ca2aadeaca49c51d2bbaac7d67b086611bab201f4864",
    "rows-em2-w1": "b796052e9af44070f826e7751239671b79e668c941b58335fd04982741e1279e",
    "rows-em2-w2": "5e0be36ca9e898a429ad32d264895b008052d97c996ad64a9d82e6016343ca2d",
    "rows-em2-w4": "e3670e3761c7cf69cc1f169423f93383c0cc0989612be9bac1715926cd045f0b",
    "rows-em4-xi_m": "5e098b97872eb2f3aaa1ce6864ac574bc01f6387dd295acbdb6ed2538241c4bc",
    "rows-em4-w1": "277b74412b6976ef53e6d784a486462a903a81bec121034d1e5589b6c6b0f06b",
    "rows-em4-w2": "268eb9f5392b71052c2160918b8542f22cdf29f752787fff28924129efd51600",
    "rows-em4-w4": "e50b575433007c721116d3c22c020a6fad96b1aab18d1b9486c7c9dc81c490e2",
    "rows-ir-xi_m": "0b5c5e9e2935d5304b1e847e870b50d8e52486356a0c52358b92044ad34f620c",
    "rows-ir-w1": "d65d21ac86d5ffefb4d54453c4ff1199ae87bfa88793d6775e42a69a45b974eb",
    "rows-ir-w2": "c563d0511f598a2a5a7383382d5a0fb33a6b0fcf46f3cbef9512f0b7f682a2f9",
    "rows-ir-w4": "78cf773d1f4c321fdea66756177f36865f6fb01cf9b6cdfb3410c7b81fd2849f",
    "em4-bb84_dt": "62d4f13c2641878a2cfa71c54fa26beecb40ddfd347b2627fa4a600178fbf9ac",
    "em-marking-xi_m-d20": "9513cfc2bd367163a9fb833bfad8e5991fb5f2f2831a6e9d24ebbfbb63fecaea",
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
    "detection-em-d20": "9d18247f44a48d703a67aa6ceb82ff39ca17d519eb81c1f5ea7477f2f3edbb1a",
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
    assert TOOL_VERSION == "0.9.0"


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
