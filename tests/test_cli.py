"""Command-line interface: subcommands, exit codes, file formats."""

import json
import tracemalloc

import pytest

from sqpbs import cli
from sqpbs.adversary import EveParams
from sqpbs.analysis import MAX_TRIALS
from sqpbs.cli import (
    EXIT_ABORTED,
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_INVALID,
    EXIT_VALID,
    main,
)
from sqpbs.statevec import new_rng
from sqpbs.teleport import MessageQubit
from sqpbs.transcript import SIZE_BOUNDS, TOOL_VERSION, RunConfig
from test_golden import GOLDEN_FILE


def run_cli(*argv):
    return main(list(argv))


# A valid attack-parameter file, and three ways to over-fill it.
GOOD_EVE = EveParams.undetectable((0.6, 0.8)).to_json_dict()
FIVE_ENTRY_EVE = {"alpha": GOOD_EVE["alpha"] * 2, "eps": GOOD_EVE["eps"][:1] * 5}
EXTRA_KEY_EVE = {**GOOD_EVE, "extra": 1}
THREE_PART_COMPLEX_EVE = {**GOOD_EVE, "alpha": [[*p, 0.0] for p in GOOD_EVE["alpha"]]}


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--attack", "bogus"),
        ("run", "--n", "abc"),
        ("run", "--seed", "1", "--hash-algorithm", "nope"),
        ("run", "--seed", "1", "--hash-algorithm", "shake_128"),
        ("verify-corrections", "--trials", "0", "--seed", "1"),
        ("verify-corrections", "--trials", "-2", "--seed", "1"),
        ("experiment", "detection", "--trials", "0", "--seed", "1"),
        ("experiment", "forgery", "--trials", "0", "--seed", "1"),
        ("experiment", "blindness", "--trials", "0", "--seed", "1"),
        ("experiment", "efficiency", "--n", "0"),
        ("run", "--n", "2", "--seed", "-1"),
        ("verify-corrections", "--seed", "-1"),
        ("experiment", "detection", "--decoys", "0", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--n", "0", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--threshold", "2", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--threshold", "-0.5", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--threshold", "1", "--trials", "2", "--seed", "1"),
        ("run", "--n", "2", "--seed", "1", "--threshold", "1"),
        ("run", "--n", "2", "--seed", "1", "--key-mode", "stubbed", "--attack", "intercept-resend",
         "--attack-channel", "bb84_dt"),
        ("experiment", "detection", "--attack", "intercept-resend", "--attack-channel", "sqkd_ct",
         "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--attack", "none", "--attack-channel", "bogus",
         "--trials", "2", "--seed", "1"),
        ("run", "--n", "2", "--seed", "1", "--attack", "forge-md", "--attack-channel", "bogus"),
        ("run", "--n", "2", "--seed", "1", "--attack", "forge-md", "--attack-channel", "w1"),
        ("run", "--n", "2", "--seed", "1", "--attack-channel", "xi_m"),
        ("run", "--n", "2", "--seed", "1", "--attack-basis", "z"),
        ("run", "--n", "2", "--seed", "1", "--attack", "entangle-measure", "--eve-params", "EVE_FILE",
         "--attack-basis", "x"),
        ("run", "--n", "2", "--seed", "1", "--attack", "intercept-resend", "--eve-params", "EVE_FILE"),
        ("run", "--n", "2", "--seed", "1", "--attack", "intercept-resend", "--tamper-bit", "2"),
        ("run", "--n", "2", "--seed", "1", "--attack", "withhold", "--tamper-bit", "2"),
        ("run", "--n", "2", "--seed", "1", "--attack", "tamper-md", "--withhold-record", "M_B"),
        ("experiment", "forgery", "--n", "2", "--trials", "2", "--seed", "1", "--attack", "intercept-resend"),
        ("experiment", "blindness", "--n", "2", "--trials", "1", "--seed", "1", "--tamper-bit", "3"),
        ("experiment", "forgery", "--n", "2", "--trials", "2", "--seed", "1", "--scope", "full"),
        ("experiment", "forgery", "--n", "2", "--trials", "2", "--seed", "1", "--decoys", "5", "--threshold", "0.5"),
        ("experiment", "detection", "--n", "2", "--trials", "2", "--seed", "1", "--model", "honest-control"),
        ("experiment", "detection", "--n", "2", "--trials", "2", "--seed", "1", "--key-mode", "stubbed"),
        ("experiment", "efficiency", "--n", "2", "--attack", "intercept-resend"),
        ("experiment", "detection", "--attack", "withhold", "--withhold-record", "M_C", "--trials", "5", "--seed", "1"),
        ("experiment", "detection", "--attack", "withhold", "--scope", "full", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--attack", "forge-md", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--attack", "forge-md", "--scope", "full", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--attack", "tamper-md", "--trials", "2", "--seed", "1"),
        ("experiment", "detection", "--attack", "tamper-md", "--scope", "full", "--trials", "2", "--seed", "1"),
        ("verify-corrections", "--corrupt-branch", "99", "--trials", "1", "--seed", "1"),
        ("verify-corrections", "--corrupt-branch", "-1", "--trials", "1", "--seed", "1"),
        ("bogus-command",),
        (),
    ],
    ids=lambda argv: "_".join(argv) or "no-arguments",
)
def test_bad_input_exits_4_with_one_line(argv, capsys, tmp_path):
    eve_file = tmp_path / "eve.json"
    eve_file.write_text(json.dumps(GOOD_EVE))
    assert run_cli(*(str(eve_file) if a == "EVE_FILE" else a for a in argv)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-corrections", "--trials", str(MAX_TRIALS + 1), "--seed", "1"),
         f"--trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
        (("experiment", "forgery", "--n", "2", "--trials", str(MAX_TRIALS + 1), "--seed", "1"),
         f"trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
        (("experiment", "forgery", "--n", "2", "--trials", str(10**30), "--seed", "1"),
         f"trials must be <= {MAX_TRIALS}, got {10**30}"),
        (("experiment", "detection", "--trials", str(MAX_TRIALS + 1), "--seed", "1"),
         f"trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
        (("experiment", "blindness", "--n", "2", "--trials", str(MAX_TRIALS + 1), "--seed", "1"),
         f"trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
    ],
    ids=["verify-corrections", "forgery", "forgery-1e30", "detection", "blindness"],
)
def test_trials_past_the_bound_exit_4_before_any_allocation(argv, message, capsys):
    tracemalloc.start()
    try:
        assert run_cli(*argv) == EXIT_CONFIG
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert peak < 1 << 20  # one list or array of the trials' seeds or messages would take tens of MB


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(flag)
    assert exc.value.code == 0
    assert capsys.readouterr().out


class TestRun:
    def test_honest_run_exits_zero(self, capsys):
        assert run_cli("run", "--n", "4", "--seed", "7") == EXIT_VALID
        out = capsys.readouterr().out
        assert "verdict: valid" in out
        assert "channel checks passed: 5\n" in out  # xi_m, w1, w2, w4, g_prime

    def test_transcript_file_roundtrip(self, tmp_path):
        out = tmp_path / "run.json"
        assert run_cli("run", "--n", "4", "--seed", "7", "--out", str(out)) == EXIT_VALID
        data = json.loads(out.read_text())
        assert data["format"] == "sqpbs-transcript"
        assert data["config"]["seed"] == 7
        assert data["transcript"]["verdict"] == "valid"
        assert data["transcript"]["meta"]["n"] == 4

    def test_zero_n_is_config_error(self, capsys):
        assert run_cli("run", "--n", "0", "--seed", "1") == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(("flag", "value"), [("--n", 4097), ("--decoys", 4097), ("--hash-bits", 65537)])
    def test_size_past_its_bound_is_config_error(self, capsys, flag, value):
        assert run_cli("run", "--seed", "1", flag, str(value)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert f"<= {value - 1}" in err

    def test_sizes_at_their_bounds_validate(self):
        RunConfig(n=SIZE_BOUNDS["n"], seed=1, decoy_count=SIZE_BOUNDS["decoy_count"],
                  hash_bits=SIZE_BOUNDS["hash_bits"]).validate()

    def test_bad_message_bits_is_config_error(self):
        assert run_cli("run", "--n", "3", "--seed", "1", "--message", "10x") == EXIT_CONFIG

    def test_message_length_mismatch_is_config_error(self):
        assert run_cli("run", "--n", "3", "--seed", "1", "--message", "10") == EXIT_CONFIG

    def test_attacked_run_exits_aborted(self):
        code = run_cli(
            "run", "--n", "2", "--seed", "5", "--decoys", "20",
            "--attack", "intercept-resend",
        )
        assert code == EXIT_ABORTED

    def test_tampered_signature_exits_invalid(self):
        code = run_cli("run", "--n", "4", "--seed", "5", "--attack", "tamper-md", "--tamper-bit", "1")
        assert code == EXIT_INVALID

    def test_seed_env_variable_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SQPBS_SEED", "424242")
        out = tmp_path / "run.json"
        assert run_cli("run", "--n", "3", "--out", str(out)) == EXIT_VALID
        assert json.loads(out.read_text())["config"]["seed"] == 424242

    @pytest.mark.parametrize("value", ["not-a-number", "-1"])
    def test_bad_seed_env_is_config_error(self, monkeypatch, value):
        monkeypatch.setenv("SQPBS_SEED", value)
        assert run_cli("run", "--n", "3") == EXIT_CONFIG

    def test_eve_params_file(self, tmp_path):
        params_file = tmp_path / "eve.json"
        params_file.write_text(json.dumps(EveParams.undetectable((0.6, 0.8)).to_json_dict()))
        code = run_cli(
            "run", "--n", "3", "--seed", "11",
            "--attack", "entangle-measure", "--eve-params", str(params_file),
        )
        assert code == EXIT_VALID  # undetectable coupling passes every check

    def test_missing_eve_params_is_config_error(self):
        assert run_cli("run", "--n", "3", "--seed", "1", "--attack", "entangle-measure") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command",
        [("run", "--n", "2"), ("experiment", "detection", "--trials", "2")],
        ids=["run", "experiment-detection"],
    )
    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"alpha": [[1, 0]], "eps": [[[1, 0]]] * 4},
            {"alpha": [["0.6", "0"], [0, 0], [0, 0], [0.8, 0]], "eps": [[[1, 0]]] * 4},
            {"alpha": [1, 0, 0, 1], "eps": [1, 1, 1, 1]},
            FIVE_ENTRY_EVE,
            EXTRA_KEY_EVE,
            THREE_PART_COMPLEX_EVE,
            {"alpha": [[float("nan"), 0], [0, 0], [0, 0], [1, 0]], "eps": [[[1, 0]]] * 4},
        ],
        ids=[
            "empty-array", "one-alpha", "string-amplitude", "flat-numbers",
            "five-entries", "extra-key", "three-part-complex", "nan-amplitude",
        ],
    )
    def test_malformed_eve_params_is_config_error(self, tmp_path, capsys, command, payload):
        bad = tmp_path / "eve.json"
        bad.write_text(json.dumps(payload))
        code = run_cli(
            *command, "--seed", "1", "--attack", "entangle-measure", "--eve-params", str(bad)
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


class TestReplay:
    def test_replay_matches(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli("run", "--n", "4", "--seed", "21", "--out", str(out))
        assert run_cli("replay", str(out)) == EXIT_VALID

    def test_replay_detects_edits(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli("run", "--n", "4", "--seed", "21", "--out", str(out))
        data = json.loads(out.read_text())
        data["transcript"]["verdict"] = "invalid"
        out.write_text(json.dumps(data))
        assert run_cli("replay", str(out)) == EXIT_FAILURE

    def test_replay_of_attacked_run_matches(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli(
            "run", "--n", "2", "--seed", "5", "--decoys", "20",
            "--attack", "intercept-resend", "--out", str(out),
        )
        assert run_cli("replay", str(out)) == EXIT_VALID

    def test_replay_wrong_format_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        assert run_cli("replay", str(bad)) == EXIT_CONFIG

    def test_replay_missing_file_is_config_error(self, tmp_path):
        assert run_cli("replay", str(tmp_path / "absent.json")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "payload",
        [
            {"format": "sqpbs-transcript", "transcript": {}},
            {"format": "sqpbs-transcript", "config": {"n": 3, "seed": 1, "g_a": "10x"}, "transcript": {}},
            ["sqpbs-transcript"],
            {"format": "sqpbs-transcript", "config": {"n": 3, "seed": -1}, "transcript": {}},
            {"format": "sqpbs-transcript", "config": {"n": 3, "seed": 1, "decoys": 5}, "transcript": {}},
            {"format": "sqpbs-transcript", "config": {"n": 2.5, "seed": 1}, "transcript": {}},
            {"format": "sqpbs-transcript", "config": {"n": True, "seed": 1}, "transcript": {}},
            {"format": "sqpbs-transcript", "config": {"n": 2, "seed": 1.5}, "transcript": {}},
            {"format": "sqpbs-transcript", "config": {"n": 2, "seed": 1, "decoy_count": "a"}, "transcript": {}},
            {"format": "sqpbs-transcript", "config": {"n": 2, "seed": 1, "hash_bits": 2.5}, "transcript": {}},
            {
                "format": "sqpbs-transcript",
                "config": {"n": 2, "seed": 1, "attack": {"kind": "tamper-md", "bit_index": "a"}},
                "transcript": {},
            },
            {
                "format": "sqpbs-transcript",
                "config": {"n": 2, "seed": 1, "attack": {"kind": "none", "channel": "bogus"}},
                "transcript": {},
            },
            *(
                {
                    "format": "sqpbs-transcript",
                    "config": {"n": 2, "seed": 1, "attack": {"kind": "entangle-measure", "eve": eve}},
                    "transcript": {},
                }
                for eve in (FIVE_ENTRY_EVE, EXTRA_KEY_EVE)
            ),
            *(
                {"format": "sqpbs-transcript", "config": {"n": 2, "seed": 1, "attack": attack}, "transcript": {}}
                for attack in (
                    {"kind": "forge-md", "channel": "w1"},
                    {"channel": "w2"},
                    {"kind": "intercept-resend", "channel": "w1", "bit_index": 3},
                    {"kind": "entangle-measure", "channel": "w1", "basis": "z", "eve": GOOD_EVE},
                    {"kind": "withhold", "record": "M_B", "basis": "x"},
                )
            ),
        ],
        ids=[
            "missing-config", "bad-bits", "top-level-array", "negative-seed", "unknown-config-key",
            "float-n", "bool-n", "float-seed", "string-decoy-count", "float-hash-bits", "string-bit-index",
            "unknown-channel-without-attack", "eve-five-entries", "eve-extra-key",
            "channel-with-forge-md", "channel-without-kind", "bit-index-with-intercept-resend",
            "basis-with-entangle-measure", "basis-with-withhold",
        ],
    )
    def test_replay_of_malformed_file_is_config_error(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("replay", str(bad)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


    @pytest.mark.parametrize(("key", "value"), [("n", 4097), ("decoy_count", 4097), ("hash_bits", 10**12)])
    def test_replay_of_a_size_past_its_bound_is_config_error(self, tmp_path, capsys, key, value):
        data = json.loads(GOLDEN_FILE.read_text())
        data["config"][key] = value
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(data))
        assert run_cli("replay", str(bad)) == EXIT_CONFIG
        bound = {"n": 4096, "decoy_count": 4096, "hash_bits": 65536}[key]
        assert capsys.readouterr().err == f"config error: {key} must be <= {bound}, got {value}\n"

    def test_replay_of_a_non_string_hash_algorithm_is_config_error(self, tmp_path, capsys):
        data = json.loads(GOLDEN_FILE.read_text())
        data["config"]["hash_algorithm"] = []
        bad = tmp_path / "list.json"
        bad.write_text(json.dumps(data))
        assert run_cli("replay", str(bad)) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown hash algorithm []\n"

    @pytest.mark.parametrize(
        ("edit", "named"),
        [
            (lambda t: t["events"][14].update(bits="1111"), "events[14] measurement_record: field bits"),
            (lambda t: t["events"].pop(), "events: 28 recorded, 29 re-executed"),
            (lambda t: t["meta"].update(n=5), "meta.n"),
            (lambda t: t.update(verdict="invalid"), "verdict"),
            (
                lambda t: (t["meta"].update(version="0.0.1"), t["events"][14].update(bits="1111")),
                f"meta.version: 0.0.1 recorded, {TOOL_VERSION} re-executed",
            ),
        ],
        ids=["event-field", "event-count", "meta", "verdict", "version-first"],
    )
    def test_replay_names_the_first_difference(self, tmp_path, capsys, edit, named):
        data = json.loads(GOLDEN_FILE.read_text())
        edit(data["transcript"])
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        assert run_cli("replay", str(edited)) == EXIT_FAILURE
        out = capsys.readouterr().out
        assert out == f"replay MISMATCH: re-executed transcript differs from the recorded one at {named}\n"


class TestVerifyCorrections:
    def test_audit_passes(self, capsys):
        assert run_cli("verify-corrections", "--trials", "5", "--seed", "3") == EXIT_VALID
        out = capsys.readouterr().out
        assert "80 branch checks passed" in out

    def test_exactly_max_trials_is_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.analysis, "MAX_TRIALS", 2)
        assert run_cli("verify-corrections", "--trials", "2", "--seed", "3") == EXIT_VALID
        assert "32 branch checks passed" in capsys.readouterr().out
        assert run_cli("verify-corrections", "--trials", "3", "--seed", "3") == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --trials must be <= 2, got 3\n"

    def test_messages_are_drawn_in_order_one_per_audit(self, monkeypatch, capsys):
        audited = []

        def audit(m, **kwargs):
            audited.append(m)
            return real_audit(m, **kwargs)

        real_audit = cli.verify_correction_table
        monkeypatch.setattr(cli, "verify_correction_table", audit)
        assert run_cli("verify-corrections", "--trials", "4", "--seed", "3") == EXIT_VALID
        rng = new_rng(3)
        assert audited == [MessageQubit(1.0, 0.0)] + [MessageQubit.random(rng) for _ in range(3)]
        assert capsys.readouterr().out == "all 64 branch checks passed over 4 message qubits (seed 3)\n"

    def test_corrupted_lookup_names_the_branch(self, capsys):
        code = run_cli("verify-corrections", "--trials", "3", "--seed", "3", "--corrupt-branch", "5")
        assert code == EXIT_FAILURE
        out = capsys.readouterr().out
        assert "FAIL branch" in out
        assert "corrupted branch" in out


class TestExperiments:
    def test_efficiency_example(self, capsys, tmp_path):
        out = tmp_path / "eff.json"
        code = run_cli("experiment", "efficiency", "--n", "16", "--l", "256", "--out", str(out))
        assert code == EXIT_VALID
        text = capsys.readouterr().out
        assert "eta = 32/800 = 1/25" in text
        data = json.loads(out.read_text())
        assert data["report"]["eta"]["numerator"] == 1
        assert data["report"]["eta"]["denominator"] == 25
        assert data["report"]["signature_bits"] == 32
        assert data["report"]["consumed_qubits"] + data["report"]["classical_bits"] == 800
        assert data["beats_ghz_reference"] is True
        cited = {
            (row["eta"]["numerator"], row["eta"]["denominator"])
            for row in data["comparison"]
            if row.get("eta") and "reference" in row["protocol"]
        }
        assert cited == {(2, 31), (1, 29)}

    def test_detection_none_attack_rate_zero(self, capsys):
        code = run_cli("experiment", "detection", "--attack", "none", "--trials", "30", "--seed", "2")
        assert code == EXIT_VALID
        assert "rate=0.000000" in capsys.readouterr().out

    def test_detection_reads_the_channel_without_an_attack(self):
        # Channel scope replays the named channel's guard with no adversary.
        code = run_cli("experiment", "detection", "--attack-channel", "w1", "--trials", "2", "--seed", "2")
        assert code == EXIT_VALID

    def test_blindness_reports_zero_violations(self, capsys):
        code = run_cli("experiment", "blindness", "--n", "4", "--trials", "5", "--seed", "2")
        assert code == EXIT_VALID
        assert "blindness: 0/5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind, flag, recorded",
        [
            ("blindness", ["--key-mode", "stubbed"], "stubbed"),
            ("blindness", [], "simulated"),
            ("forgery", [], "stubbed"),
        ],
    )
    def test_key_mode_reaches_the_driver(self, tmp_path, kind, flag, recorded):
        out = tmp_path / "result.json"
        code = run_cli("experiment", kind, "--n", "2", "--trials", "2", "--seed", "3", *flag, "--out", str(out))
        assert code == EXIT_VALID
        assert json.loads(out.read_text())["config"]["key_mode"] == recorded

    def test_forgery_writes_result_file(self, tmp_path):
        out = tmp_path / "forgery.json"
        code = run_cli(
            "experiment", "forgery", "--n", "4", "--trials", "40", "--seed", "2", "--out", str(out)
        )
        assert code == EXIT_VALID
        data = json.loads(out.read_text())
        assert data["format"] == "sqpbs-experiment"
        assert data["kind"] == "forgery"
        assert data["detail"]["oracle_rate"] == pytest.approx(2.0**-4)
