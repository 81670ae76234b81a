"""Five-party orchestration: phases, verdicts, attacks, determinism."""

import gc
import json

import numpy as np
import pytest

from sqpbs.adversary import EveParams
from sqpbs.analysis import instrumented_accounting
from sqpbs.bits import Bits
from sqpbs.errors import ConfigError, SemiquantumCapabilityError
from sqpbs.protocol import Party, ProtocolRun, replay_difference, run_full
from sqpbs.registers import merge, new_qubit
from sqpbs.statevec import HADAMARD, Basis, BellState, fidelity_1q_rows, ket_minus, ket_plus, new_rng
from sqpbs.transcript import CHANNELS, AttackSpec, RunConfig


def honest(n, seed, **kwargs):
    return RunConfig(n=n, seed=seed, **kwargs)


def recovery_fidelities(run: ProtocolRun) -> list[float]:
    """Per instance, Trent's corrected particle 3 against Alice's blind state: |+> for a 0 of g, |-> for a 1.

    Particle 3 is column 0 of ``run.recovered`` when no probe rides on the message qubits.
    """
    targets = np.array([ket_plus(), ket_minus()])[list(run.g)]
    return fidelity_1q_rows(run.recovered, 0, targets).tolist()


class TestHonestRuns:
    def test_smallest_instance(self):
        run = ProtocolRun(honest(1, 1))
        transcript = run.run()
        assert transcript.verdict == "valid"
        assert run.g_prime == run.g

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("key_mode", ["simulated", "stubbed"])
    def test_valid_across_sizes_and_key_modes(self, n, key_mode):
        run = ProtocolRun(honest(n, 7 * n + 1, key_mode=key_mode))
        transcript = run.run()
        assert transcript.verdict == "valid"
        assert run.g_prime == run.g == run.g_a ^ run.k_a

    def test_key_lengths(self):
        run = ProtocolRun(honest(6, 3))
        run.run()
        assert len(run.k_a) == 6
        for party, bits in (("bob", 6), ("charlie", 6), ("david", 12)):
            assert [len(pad.key) for pad in run.pads[party]] == [bits, bits]

    def test_explicit_message_and_key(self):
        g_a, k_a = Bits("1010"), Bits("0111")
        run = ProtocolRun(honest(4, 11, g_a=g_a, k_a=k_a))
        transcript = run.run()
        assert transcript.verdict == "valid"
        assert run.g == g_a ^ k_a
        assert run.g_prime == g_a ^ k_a

    def test_recovery_fidelities_are_one(self):
        run = ProtocolRun(honest(5, 13))
        transcript = run.run()
        assert transcript.events_of("recovery_record")
        assert all(abs(f - 1.0) < 1e-10 for f in recovery_fidelities(run))

    def test_channel_checks_all_pass(self):
        transcript = run_full(honest(4, 17))
        checks = transcript.events_of("decoy_check") + transcript.events_of("return_check")
        assert len(checks) == 5  # xi_m, w2 decoy checks; w1, w4, g_prime return checks
        assert transcript.verdict == "valid"  # a failed check would have aborted the run

    def test_counted_classical_bits_follow_the_accounting_rule(self):
        n = 6
        transcript = run_full(honest(n, 19, hash_bits=64))
        counted = instrumented_accounting(transcript)
        assert counted["classical_bits"] == 64 + 4 * n
        # 4n carrier, n message and n re-encoded qubits; 2n BB84 and 2n semiquantum key bits
        assert counted["consumed_qubits"] == 4 * n + n + n + 4 * 2 * n + 8 * 2 * n
        assert counted["signature_bits"] == 2 * n


class TestDeterminismAndReplay:
    def test_same_seed_bit_identical(self):
        a = run_full(honest(4, 23))
        b = run_full(honest(4, 23))
        assert a.canonical_json() == b.canonical_json()

    def test_different_seed_differs(self):
        a = run_full(honest(4, 23))
        b = run_full(honest(4, 24))
        assert a.canonical_json() != b.canonical_json()

    def test_replay_matches_round_trip(self):
        config = honest(3, 29, attack=AttackSpec("tamper-md", bit_index=3))
        transcript = run_full(config)
        assert replay_difference(config, transcript.to_dict()) is None

    def test_replay_detects_tampering(self):
        config = honest(3, 31)
        recorded = run_full(config).to_dict()
        recorded["verdict"] = "invalid"
        assert replay_difference(config, recorded) is not None

    def test_replay_of_a_malformed_record_names_a_section(self):
        config = honest(2, 31)
        assert replay_difference(config, []) == "transcript"
        assert replay_difference(config, {**run_full(config).to_dict(), "meta": "0.8.0"}) == "meta"

    def test_transcript_is_json_serializable(self):
        payload = run_full(honest(3, 37)).to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["verdict"] == "valid"


class TestBlindness:
    @pytest.mark.parametrize("delta", ["0000", "1111", "0110"])
    def test_paired_flip_leaves_transcript_unchanged(self, delta):
        g_a, k_a, d = Bits("1001"), Bits("0101"), Bits(delta)
        base = run_full(honest(4, 41, g_a=g_a, k_a=k_a))
        flipped = run_full(honest(4, 41, g_a=g_a ^ d, k_a=k_a ^ d))
        assert base.canonical_json() == flipped.canonical_json()

    def test_transcript_never_carries_private_inputs(self):
        g_a, k_a = Bits("110010"), Bits("101011")
        transcript = run_full(honest(6, 43, g_a=g_a, k_a=k_a))
        text = transcript.canonical_json()
        assert "g_a" not in text
        assert "k_a" not in text


class TestSemiquantumEnforcement:
    def test_party_capability_errors(self):
        for name in ("bob", "charlie"):
            party = Party(name, quantum=False)
            rng = new_rng(0)
            pair = merge(new_qubit(ket_plus()), party.prepare_z(Bits("0")))
            with pytest.raises(SemiquantumCapabilityError):
                party.measure_bell(pair, 0, 1, rng)
            with pytest.raises(SemiquantumCapabilityError):
                party.measure(pair, 0, Basis.X, rng)
            with pytest.raises(SemiquantumCapabilityError):
                party.apply_gates(pair, 0, HADAMARD[None])
            with pytest.raises(SemiquantumCapabilityError):
                party.prepare_state(ket_plus()[None])
            assert party.measure(party.prepare_z(Bits("01")), 0, Basis.Z, rng) == [0, 1]
            assert abs(party.prepare_z(Bits("1")).state[0, 1]) ** 2 == 1.0

    def test_quantum_party_allowed(self):
        david = Party("david", quantum=True)
        rng = new_rng(0)
        assert david.measure(david.prepare_state(ket_plus()[None]), 0, Basis.X, rng) == [0]
        pairs = merge(david.prepare_z(Bits("00")), david.prepare_z(Bits("00")))
        assert david.measure_bell(pairs, 0, 1, rng) == [BellState.PHI_PLUS.index] * 2

    @pytest.mark.parametrize("n", [2, 6])
    def test_transcript_attributes_only_z_to_semiquantum_parties(self, n):
        transcript = run_full(honest(n, 47))
        for event in transcript.events_of("measurement_record"):
            if event["party"] in ("bob", "charlie"):
                assert event["basis"] == "Z"
        for event in transcript.events_of("decoy_check"):
            assert event["by"] not in ("bob", "charlie")  # announced-basis checks need X
        for event in transcript.events_of("return_check"):
            assert event["by"] in ("bob", "charlie")

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_channel_guard_follows_the_receivers_capability(self, channel):
        _, receiver, guard = CHANNELS[channel]
        run = ProtocolRun(honest(1, 0))
        assert (guard in ("return", "sqkd")) == (not getattr(run, receiver).quantum)


class TestAttacks:
    def test_intercept_resend_on_message_channel_aborts(self):
        for seed in (1, 2, 3):
            transcript = run_full(
                honest(2, seed, decoy_count=20, attack=AttackSpec("intercept-resend", "xi_m"))
            )
            assert transcript.verdict == "aborted:eavesdropping"
            abort = transcript.events_of("abort")[0]
            assert abort["channel"] == "xi_m"

    @pytest.mark.parametrize("channel", ["w1", "w2", "w4", "g_prime"])
    def test_intercept_resend_on_carrier_channels_aborts(self, channel):
        transcript = run_full(
            honest(2, 5, decoy_count=24, attack=AttackSpec("intercept-resend", channel))
        )
        assert transcript.verdict == "aborted:eavesdropping"
        assert transcript.events_of("abort")[0]["channel"] == channel

    def test_only_tapped_decoys_get_registers(self):
        run = ProtocolRun(honest(2, 5))
        run.run()
        for seq in (run.xi_seq, run.w1_seq, run.w2_seq, run.w4_seq, run.g_seq):
            assert seq.tapped is None, seq.channel
        run = ProtocolRun(honest(2, 5, attack=AttackSpec("intercept-resend", "w1")))
        run.run()
        assert run.w1_seq.tapped.rows == len(run.w1_seq.codes)
        for seq in (run.w2_seq, run.w4_seq):
            assert seq.tapped is None, seq.channel

    def test_intercept_resend_on_key_channels_aborts(self):
        # n large enough that the tapped exchange checks a real sample
        for channel in ("bb84_dt", "sqkd_bt", "sqkd_ct"):
            transcript = run_full(honest(16, 7, attack=AttackSpec("intercept-resend", channel)))
            assert transcript.verdict == "aborted:key-establishment", channel

    def test_each_party_pads_with_its_own_key_copy(self):
        # A tapped BB84 exchange under a lax threshold leaves David's key copy
        # unlike Trent's; Trent then reads another M_D than David recorded.
        verdicts = []
        for seed in range(10):
            run = ProtocolRun(
                honest(8, seed, error_threshold=0.5, attack=AttackSpec("intercept-resend", "bb84_dt"))
            )
            transcript = run.run()
            trent_pad, david_pad = run.pads["david"]
            (record,) = [e for e in transcript.events_of("measurement_record") if e["label"] == "M_D"]
            assert (run.m_d == Bits(record["bits"])) == (trent_pad.key == david_pad.key)
            verdicts.append(transcript.verdict)
        assert verdicts.count("invalid") >= 8

    def test_forged_signature_record_rejected(self):
        rejected = 0
        for seed in range(30):
            transcript = run_full(
                honest(8, 100 + seed, key_mode="stubbed", attack=AttackSpec("forge-md"))
            )
            assert transcript.verdict in ("valid", "invalid")
            rejected += transcript.verdict == "invalid"
        assert rejected >= 28  # acceptance probability is 2^-8 per run

    def test_low_bit_tamper_deterministically_invalidates(self):
        for seed in (3, 9, 27):
            run = ProtocolRun(honest(4, seed, attack=AttackSpec("tamper-md", bit_index=1)))
            transcript = run.run()
            assert transcript.verdict == "invalid"
            fidelities = recovery_fidelities(run)
            assert fidelities[0] == pytest.approx(0.0, abs=1e-10)  # instance 0 flipped
            assert all(abs(f - 1.0) < 1e-10 for f in fidelities[1:])

    def test_high_bit_tamper_is_invisible_for_blinded_states(self):
        # Swapping the Bell pair within {phi+, psi+} confuses I with sigma_x,
        # which |+>/|-> messages cannot see: the signature still verifies.
        transcript = run_full(honest(4, 9, attack=AttackSpec("tamper-md", bit_index=0)))
        assert transcript.verdict == "valid"

    @pytest.mark.parametrize("record", ["M_B", "M_D", "M_C"])
    def test_withholding_any_record_blocks_recovery(self, record):
        transcript = run_full(honest(2, 11, attack=AttackSpec("withhold", record=record)))
        assert transcript.verdict == f"aborted:missing:{record}"
        assert record in transcript.events_of("withheld")[0]["label"]

    def test_undetectable_entangle_measure_passes(self):
        transcript = run_full(
            honest(3, 13, decoy_count=16,
                   attack=AttackSpec("entangle-measure", "xi_m", eve=EveParams.undetectable((0.6, 0.8))))
        )
        assert transcript.verdict == "valid"

    def test_detectable_entangle_measure_aborts(self):
        transcript = run_full(
            honest(3, 13, decoy_count=24,
                   attack=AttackSpec("entangle-measure", "xi_m", eve=EveParams.rotation(0.8)))
        )
        assert transcript.verdict == "aborted:eavesdropping"


UNDETECTABLE = EveParams.undetectable((0.6, 0.8))


@pytest.mark.parametrize(
    ("config", "verdict"),
    [
        (honest(8, 1), "valid"),
        (honest(8, 2, key_mode="stubbed", attack=AttackSpec("forge-md")), "invalid"),
        (honest(2, 1, decoy_count=20, attack=AttackSpec("intercept-resend", "xi_m")), "aborted:eavesdropping"),
        (honest(3, 13, attack=AttackSpec("entangle-measure", "xi_m", eve=UNDETECTABLE)), "valid"),
        (honest(3, 13, attack=AttackSpec("entangle-measure", "w4", eve=UNDETECTABLE)), "valid"),
        (honest(16, 7, attack=AttackSpec("intercept-resend", "bb84_dt")), "aborted:key-establishment"),
        (honest(2, 11, attack=AttackSpec("withhold", record="M_D")), "aborted:missing:M_D"),
        (honest(4, 3, attack=AttackSpec("tamper-md", bit_index=1)), "invalid"),
    ],
    ids=["honest", "forge-stubbed", "intercept-abort", "entangle-xi_m", "entangle-w4",
         "intercept-bb84_dt", "withhold", "tamper"],
)
def test_runs_leave_no_reference_cycles(config, verdict):
    # Nothing a run builds points back at its owner, so a finished run is
    # freed by reference counting alone.  The first run warms up imports.
    run_full(config)
    gc.collect()
    gc.disable()
    try:
        assert run_full(config).verdict == verdict
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestTranscriptRecord:
    def test_counted_classical_messages_follow_the_flow_diagram(self):
        transcript = run_full(honest(4, 53))
        counted = transcript.events_of("classical_send")
        assert [(e["label"], e["sender"], e["receiver"]) for e in counted] == [
            ("H(g)", "alice", "charlie"),
            ("E_KBT[M_B]", "bob", "trent"),
            ("E_KDT[M_D]", "david", "trent"),
            ("E_KCT[M_C]", "charlie", "trent"),
        ]
        assert len(counted[0]["bits"]) == 128
        assert len(counted[2]["bits"]) == 8  # 2n bits under the 2n-bit pad

    def test_quantum_sends_cover_all_five_channels(self):
        transcript = run_full(honest(3, 59))
        sends = {e["channel"]: (e["sender"], e["receiver"]) for e in transcript.events_of("quantum_send")}
        assert sends == {
            "w1": ("trent", "bob"),
            "w2": ("trent", "david"),
            "w4": ("trent", "charlie"),
            "xi_m": ("alice", "david"),
            "g_prime": ("trent", "charlie"),
        }

    def test_meta_is_self_describing(self):
        transcript = run_full(honest(3, 61, hash_bits=64, key_mode="stubbed"))
        meta = transcript.meta
        assert meta["version"]
        assert (meta["hash_algorithm"], meta["hash_bits"]) == ("sha256", 64)
        assert meta["key_mode"] == "stubbed"
        assert meta["attack"] == {"kind": "none"}

    def test_empty_classical_payload_logged(self):
        from sqpbs.transcript import Transcript

        t = Transcript(meta={})
        t.add("classical_send", sender="a", receiver="b", label="empty", bits=str(Bits("")))
        assert t.events[-1]["bits"] == ""
        json.loads(t.canonical_json())

    def test_unserializable_event_value_rejected(self):
        from sqpbs.transcript import Transcript

        t = Transcript(meta={})
        with pytest.raises(TypeError, match="not a JSON scalar"):
            t.add("notice", sender="a", receiver="b", label=object())


class TestConfigValidation:
    def test_n_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(n=0, seed=1).validate()

    def test_message_length_must_match(self):
        with pytest.raises(ConfigError):
            RunConfig(n=4, seed=1, g_a=Bits("101")).validate()

    def test_attack_kind_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(n=4, seed=1, attack=AttackSpec("laser")).validate()

    def test_attack_channel_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(n=4, seed=1, attack=AttackSpec("intercept-resend", "w9")).validate()

    def test_entangle_measure_needs_params(self):
        with pytest.raises(ConfigError):
            RunConfig(n=4, seed=1, attack=AttackSpec("entangle-measure")).validate()

    @pytest.mark.parametrize("algorithm", [[], {}], ids=["list", "dict"])
    def test_non_string_hash_algorithm_is_refused(self, algorithm):
        with pytest.raises(ConfigError, match="unknown hash algorithm"):
            RunConfig(n=2, seed=1, hash_algorithm=algorithm).validate()

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": np.int64(3)},
            {"seed": np.int64(5)},
            {"decoy_count": np.int64(3)},
            {"hash_bits": np.int64(64)},
            {"attack": AttackSpec("tamper-md", bit_index=np.int64(1))},
            {"error_threshold": np.float64(0.0)},
            {"error_threshold": True},
        ],
        ids=["n", "seed", "decoy_count", "hash_bits", "bit_index", "error_threshold", "bool-error_threshold"],
    )
    def test_numpy_and_bool_values_are_refused(self, fields):
        # A numpy value would reach the transcript, which holds plain JSON only.
        config = RunConfig(**{"n": 3, "seed": 5, **fields})
        with pytest.raises(ConfigError, match="must be an integer|must be a number") as refused:
            run_full(config)
        assert "\n" not in str(refused.value)

    def test_config_json_round_trip(self):
        config = RunConfig(
            n=4, seed=99, g_a=Bits("1100"), decoy_count=7, error_threshold=0.1,
            hash_bits=64, key_mode="stubbed", attack=AttackSpec("tamper-md", bit_index=2),
        )
        clone = RunConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
        assert clone == config
