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
experiments, to paste below, and rewrites ``data/golden_run.json``.
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
    ("em4", "xi_m"): 100, ("em4", "w1"): 101, ("em4", "w2"): 105, ("em4", "w4"): 100,
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
    "honest-sim-n4": "58af02e7a110028c3e9f6347e11e50893ee36e45d476524f37668147bc420c91",
    "honest-stubbed-n8": "186b5825c73ee871f49007bb8213352ebc17a5f23b0d0643c930df6c1fc0ee79",
    "honest-explicit-inputs": "6920fd1f9fe6be6e8d57aa345ff1821457ba6a5874a44fb6f2ad944a1fd93468",
    "ir-random-xi_m": "1e3ba602899256d00ea28398ccc705c3ad632522e81f6ecee83cefc60435a0d0",
    "ir-z-bb84_dt": "961827d57e405e0a44d6916138e954858d58c1c7f3b66c6959413ee78322fdf5",
    "ir-x-sqkd_bt-threshold": "628988ac74ce5fbec3fe119bfe2741c315c3be8084258abcf15921caff4c297b",
    "em-rotation-w1": "b98742890dbcfda881cd933c1dc194d132ae1611581ddae467dcc8a29c5b6587",
    "em-undetectable-sqkd_ct": "1473ce5cf0f77261f16c7ef7b1c1f2d39f168a483c87f26886a3527ed65dd2e9",
    "em-marking-g_prime": "2cf47fc1ae4a02e0aed5af7d30bffada767bb5622d070ceea02a7e933b7bfb6a",
    "forge-md-stubbed": "e82c05941cc2610ed14076be09a4e58fb816cf2102e82852efb8a6dc06033a79",
    "tamper-md-bit7": "785b14b5e2055bd274eda14c5be938771eae0df7358469d2bd19a95697ef39cd",
    "withhold-M_B": "68683d3e907290ff8054f4a2508022a1e04c39d9118c1f58b1825ee327ee5720",
    "withhold-M_C-stubbed": "4802321ff691cfa396cce35f6aee30263caa2fc2d3701f967fe4ea8c59d65d1f",
    "rows-em2-xi_m": "490448277846eef62028b51d8ced7b17c537bbf786cc14e6ebb4519ad45aeba6",
    "rows-em2-w1": "e142becce5165826cfb631467f7b4c78e6222610c474dd9d6f234b579c8d8785",
    "rows-em2-w2": "7323a0dfd1a71e16e19253f90441690746ac987a3956f0434afbdb09ddd9ea8d",
    "rows-em2-w4": "ec53b6d3f7cbd46d30c0bdb3f9b3eae3f69b0fa4f6a16d6f0db1701632b11aa4",
    "rows-em4-xi_m": "ce68bb566caa5bd6781ec530c255c099ea97f1e2f871d87fd9c4ba0a71c0274d",
    "rows-em4-w1": "18d689a17d44fd3c52034862c119c200d464bcd16a6fa648d98bd24e207336f9",
    "rows-em4-w2": "8ebb5d154f8588a9309a83bdbb88c31f78f82cc1cc55b8e487185410544dfcb2",
    "rows-em4-w4": "b4264b39abdfa6754ebcc191c49658f63e7509ee37a30ca813517aaf0da8ab8e",
    "rows-ir-xi_m": "add38784f8dac135bd73e70cf6c25e5d81fcbc8a147865e281d44a8e04419063",
    "rows-ir-w1": "8eeb1d139886043b95183df19ad30434bf1862ee39d77a0b83e75ba3ffe7095f",
    "rows-ir-w2": "d12084254c2041b7cb4c5ec1582396a5f68994ea84092a84fdf6aef75d5331b8",
    "rows-ir-w4": "ac520c4b4f3ea3f6428aa363da6c855f85430d6d7c7c4eabcde48ac91131a116",
    "em4-bb84_dt": "9f9c36ead671a2aba7bc8ab899a10961f7e001a9b1c0b376e9bc60834afbea06",
    "em-marking-xi_m-d20": "8eb557975186f43415fe613f014946cb5bf12f7289e8a296331e510ddc080cf5",
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
    "detection-ir-d5": "67865718a87ab62097742cf1f0c821de64188790c32a1343a17cd32fe4595183",
    "detection-em-d20": "406b551a0b46bf5e660131beaf7e63cc68897c032a14223ffb27f440ed7dbcb5",
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
    assert TOOL_VERSION == "0.5.0"


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
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*GOLDEN_ARGV, "--out", str(GOLDEN_FILE)]) == EXIT_VALID
    print(f"rewrote {GOLDEN_FILE.relative_to(ROOT)}")
