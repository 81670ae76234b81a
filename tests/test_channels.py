"""Decoy-protected transmission and both eavesdropping checks."""

import math

import numpy as np
import pytest

from sqpbs.adversary import INTERCEPT_BASES, EntangleMeasure, EveParams, InterceptResend
from sqpbs.channels import (
    DecoyState,
    check_decoys,
    read_prepared,
    semiquantum_return_check,
    send_with_decoys,
    tap,
)
from sqpbs.errors import EavesdroppingDetected
from sqpbs.registers import measure_qubit, new_qubit
from sqpbs.statevec import KETS, Basis, ket_plus, new_rng
from stubs import PassThrough, RecordingRng

def _plus_payload(k):
    return [np.tile(ket_plus(), (k, 1))]


class TestDecoyStates:
    def test_four_variants_with_bases(self):
        assert DecoyState.ZERO.basis is Basis.Z and DecoyState.ZERO.bit == 0
        assert DecoyState.ONE.basis is Basis.Z and DecoyState.ONE.bit == 1
        assert DecoyState.PLUS.basis is Basis.X and DecoyState.PLUS.bit == 0
        assert DecoyState.MINUS.basis is Basis.X and DecoyState.MINUS.bit == 1

    def test_prepared_state_measures_to_its_bit(self):
        rng = new_rng(2)
        for state in DecoyState:
            assert measure_qubit(new_qubit(KETS[state.index]), 0, 0, state.basis, rng) == state.bit

    def test_kets_are_the_textbook_states_in_decoy_order(self):
        s = 1 / math.sqrt(2)
        textbook = {"0": [1, 0], "1": [0, 1], "+": [s, s], "-": [s, -s]}
        assert KETS.shape == (4, 2) and KETS.dtype == complex
        for state in DecoyState:
            assert KETS[state.index].tolist() == textbook[state.label]

    def test_kets_refuse_a_write(self):
        with pytest.raises(ValueError, match="read-only"):
            KETS[0, 0] = 0


class TestSendWithDecoys:
    def test_requires_at_least_one_decoy(self):
        with pytest.raises(ValueError):
            send_with_decoys(_plus_payload(2), 0, new_rng(3))

    def test_recorded_decoy_states_uniform(self):
        rng = new_rng(1)
        trials = 10_000
        counts = {s.index: 0 for s in DecoyState}
        payload = _plus_payload(1)  # never measured
        for _ in range(trials // 10):
            for code in send_with_decoys(payload, 10, rng, PassThrough()).codes:
                counts[code] += 1
        sigma = math.sqrt(trials * 0.25 * 0.75)
        for code, count in counts.items():
            assert abs(count - trials / 4) < 4 * sigma, code

    def test_honest_channel_leaves_decoys_intact(self):
        rng = new_rng(5)
        seq = send_with_decoys(_plus_payload(4), 6, rng)
        result = check_decoys(seq, rng)
        assert result.error_rate == 0.0

    def test_adversary_acts_on_every_qubit(self):
        class Counter:
            calls = []

            def intercept(self, segments, rng):
                Counter.calls.append(sum(len(stack) for stack, _ in segments))
                return [stack for stack, _ in segments]

        rng = new_rng(7)
        send_with_decoys(_plus_payload(3), 5, rng, Counter())
        assert Counter.calls == [8]

    @pytest.mark.parametrize("basis", INTERCEPT_BASES)
    def test_intercept_resend_draws_once_per_transmission(self, basis):
        """Decoys, then two payload stacks: one coin vector (random basis only) and one uniform
        vector per transmission, and each row collapses as ``measure_qubit`` would on its own, in
        its coin's basis and fed its own uniform."""
        draw = new_rng(3)
        raw = draw.normal(size=(5, 4)) + 1j * draw.normal(size=(5, 4))
        rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        payload = [rows[:3].copy(), rows[3:].copy()]
        rng = RecordingRng(1)
        seq = send_with_decoys(payload, 4, rng, InterceptResend(basis), column=1)
        coins = [("random", 9)] if basis == "random" else []
        assert rng.calls == [("random", 4), *coins, ("random", 9)]
        ref = new_rng(1)  # replays the stream; its scalar draws are the uniform vector's entries
        assert seq.codes.tolist() == np.floor(4 * ref.random(4)).astype(int).tolist()
        on_x = iter(np.floor(2 * ref.random(9)) == 1 if basis == "random" else [basis == "x"] * 9)
        decoys = KETS[seq.codes]
        for stack, before, column in ((seq.tapped, decoys, 0), (seq.payload[0], rows[:3], 1), (seq.payload[1], rows[3:], 1)):
            for got, row in zip(stack, before, strict=True):
                want = row[None].copy()
                measure_qubit(want, 0, column, Basis.X if next(on_x) else Basis.Z, ref)
                assert got.tobytes() == want[0].tobytes()


class TestCheckDecoys:
    def test_intercept_resend_disturbs_quarter_of_decoys(self):
        rng = new_rng(8)
        errors = 0
        total = 0
        for _ in range(100):
            seq = send_with_decoys(_plus_payload(1), 20, rng, InterceptResend("random"))
            try:
                result = check_decoys(seq, rng)
                add = result.errors
            except EavesdroppingDetected as exc:
                add = round(exc.error_rate * 20)
            errors += add
            total += 20
        sigma = math.sqrt(0.25 * 0.75 / total)
        assert abs(errors / total - 0.25) < 3 * sigma

    def test_detection_rate_matches_three_quarters_power_d(self):
        rng = new_rng(9)
        d = 20
        trials = 2000
        detected = 0
        for _ in range(trials):
            seq = send_with_decoys(_plus_payload(1), d, rng, InterceptResend("random"))
            try:
                check_decoys(seq, rng)
            except EavesdroppingDetected:
                detected += 1
        p = 1 - 0.75**d
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(detected / trials - p) < 3 * sigma
        assert detected / trials > 0.99

    def test_threshold_breach_raises(self):
        rng = new_rng(10)
        seq = send_with_decoys(_plus_payload(1), 40, rng, InterceptResend("z"))
        with pytest.raises(EavesdroppingDetected) as excinfo:
            check_decoys(seq, rng, threshold=0.0)
        assert excinfo.value.check == "decoy"
        assert excinfo.value.error_rate > 0.0

    def test_loose_threshold_tolerates_errors(self):
        rng = new_rng(11)
        seq = send_with_decoys(_plus_payload(1), 40, rng, InterceptResend("random"))
        result = check_decoys(seq, rng, threshold=0.6)  # returns: the check passed
        assert 0.0 < result.error_rate <= 0.6


class TestSemiquantumReturnCheck:
    def test_honest_run_has_zero_rates(self):
        rng = new_rng(12)
        seq = send_with_decoys(_plus_payload(4), 40, rng)
        result = semiquantum_return_check(seq, rng)
        assert result.reflected_error_rate == 0.0
        assert result.z_sift_error_rate == 0.0
        assert result.reflected_count + result.sifted_count == 40

    def test_permutation_bookkeeping_identity(self):
        # Reading the reflected decoys in sending order, as the order reveal
        # allows, is exact bookkeeping: every reflected decoy of a tapped
        # but undisturbed sequence measures back to its prepared value.
        rng = new_rng(13)
        for _ in range(30):
            seq = send_with_decoys(_plus_payload(1), 16, rng, PassThrough())
            result = semiquantum_return_check(seq, rng)
            assert result.reflected_count > 0
            assert result.reflected_errors == 0

    def test_z_measuring_adversary_disturbs_reflected_x_decoys(self):
        """A Z-basis tap flips half of the reflected X-prepared decoys."""
        rng = new_rng(14)
        x_errors = 0
        x_count = 0
        z_errors = 0
        z_count = 0
        for _ in range(150):
            seq = send_with_decoys(_plus_payload(1), 20, rng, InterceptResend("z"))
            result = semiquantum_return_check(seq, rng, threshold=1.0)
            x_errors += result.detail["reflected_x_errors"]
            x_count += result.detail["reflected_x_count"]
            z_errors += result.detail["reflected_z_errors"]
            z_count += result.detail["reflected_z_count"]
        sigma = math.sqrt(0.5 * 0.5 / x_count)
        assert abs(x_errors / x_count - 0.5) < 3 * sigma
        assert z_errors == 0  # Z-prepared decoys are transparent to a Z tap

    def test_z_sift_rate_catches_x_measuring_adversary(self):
        rng = new_rng(15)
        z_sift_errors = 0
        z_sift_count = 0
        for _ in range(150):
            seq = send_with_decoys(_plus_payload(1), 20, rng, InterceptResend("x"))
            result = semiquantum_return_check(seq, rng, threshold=1.0)
            z_sift_errors += result.z_sift_errors
            z_sift_count += result.z_sift_count
        sigma = math.sqrt(0.5 * 0.5 / z_sift_count)
        assert abs(z_sift_errors / z_sift_count - 0.5) < 3 * sigma

    def test_abort_on_reflected_errors(self):
        rng = new_rng(16)
        with pytest.raises(EavesdroppingDetected):
            for _ in range(20):  # Z tap throws on the first batch with an X-CTRL decoy
                seq = send_with_decoys(_plus_payload(1), 20, rng, InterceptResend("z"))
                semiquantum_return_check(seq, rng, threshold=0.0)


@pytest.mark.parametrize("check", [check_decoys, semiquantum_return_check])
@pytest.mark.parametrize("decoy_count", [1, 4, 20])
def test_untouched_decoys_match_the_register_path(check, decoy_count):
    """An untapped check reports what the same check of a ``PassThrough``-tapped sequence does.

    The untapped return check draws its codes where the tapped send draws
    them, so the two paths draw alike up to the first read, and both count
    0 errors."""
    for seed in range(10):
        rng_table, rng_registers = new_rng(seed), new_rng(seed)
        table = send_with_decoys(_plus_payload(3), decoy_count, rng_table)
        registers = send_with_decoys(_plus_payload(3), decoy_count, rng_registers, PassThrough())
        assert table.tapped is None and len(registers.tapped) == decoy_count
        result = check(table, rng_table)  # returns at threshold 0: no error on either path
        assert result == check(registers, rng_registers), seed


@pytest.mark.parametrize("adversary", [None, PassThrough()], ids=["untouched", "registers"])
def test_each_check_reads_once_per_step(adversary):
    """Tapped, check_decoys reads once, and the return check draws its coins, then reads the SIFTed
    and the reflected decoys.  Untapped, nothing is read: the return check draws codes, then coins.
    Every draw is one ``random`` vector."""
    d = 20
    seq = send_with_decoys(_plus_payload(3), d, new_rng(0), adversary)
    rng = RecordingRng(1)
    check_decoys(seq, rng)
    assert rng.calls == ([] if adversary is None else [("random", d)])
    rng = RecordingRng(1)
    k = semiquantum_return_check(seq, rng).sifted_count
    assert 0 < k < d
    reads = [("random", k), ("random", d - k)]
    assert rng.calls == ([("random", d)] * 2 if adversary is None else [("random", d), *reads])


@pytest.mark.parametrize("adversary", [InterceptResend(), EntangleMeasure(EveParams.probe_marking(0.8))], ids=["intercept", "entangle"])
def test_a_tap_of_no_prepared_qubits_crosses_and_reads_without_a_draw(adversary):
    """No prepared qubits cross as a stack of no rows beside the payload, and reading them takes no draw."""
    rng = new_rng(6)
    before = rng.bit_generator.state
    tapped, payload = tap([], adversary, rng)
    assert tapped.shape[0] == 0 and payload == []
    assert read_prepared(tapped, [], rng).shape == (0,)
    assert rng.bit_generator.state == before
