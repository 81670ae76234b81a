"""Bit strings, blinding, one-time pad, keyed hash, and key agreement."""

import math

import pytest

from sqpbs.adversary import InterceptResend
from sqpbs.bits import Bits
from sqpbs.errors import KeyEstablishmentError
from sqpbs.keys import (
    HashConfig,
    OtpKey,
    establish_key_bb84,
    establish_key_sqkd,
    keyed_hash,
    otp_decrypt,
    otp_encrypt,
    xor_blind,
)
from sqpbs.statevec import new_rng
from stubs import PassThrough, ReadsApart, RecordingRng


class TestBits:
    def test_str_round_trip(self):
        assert str(Bits("10110")) == "10110"
        assert Bits("10110") == Bits([1, 0, 1, 1, 0])

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Bits([0, 2, 1])

    def test_xor(self):
        assert Bits("1011") ^ Bits("0110") == Bits("1101")
        g = Bits("100101")
        assert g ^ Bits.zeros(6) == g
        assert g ^ g == Bits.zeros(6)
        assert (g ^ Bits("111000")) ^ Bits("111000") == g

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            Bits("101") ^ Bits("10")

    def test_concat_slice_flip(self):
        b = Bits("1010") + Bits("01")
        assert b == Bits("101001")
        assert b[1:4] == Bits("010")
        assert b.flip(0) == Bits("001001")

    def test_bytes_round_trip(self):
        for text in ("1", "10110100", "1011010", "000000001111"):
            b = Bits(text)
            assert Bits.from_bytes(b.to_bytes(), len(b)) == b

    def test_random_reproducible(self):
        assert Bits.random(32, new_rng(5)) == Bits.random(32, new_rng(5))
        assert Bits.random(32, new_rng(5)) != Bits.random(32, new_rng(6))

    def test_hamming(self):
        assert sum(a != b for a, b in zip(Bits("1100"), Bits("1001"))) == 2


class TestBlindingAndOtp:
    def test_xor_blind_examples(self):
        assert xor_blind(Bits("1011"), Bits("0110")) == Bits("1101")
        g_a = Bits("100110")
        assert xor_blind(g_a, Bits.zeros(6)) == g_a
        assert xor_blind(g_a, g_a) == Bits.zeros(6)

    def test_blind_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_blind(Bits("101"), Bits("1011"))

    def test_otp_example(self):
        assert otp_encrypt(Bits("1100"), Bits("1010")) == Bits("0110")

    def test_otp_round_trip(self):
        rng = new_rng(7)
        key = Bits.random(64, rng)
        msg = Bits.random(64, rng)
        assert otp_decrypt(key, otp_encrypt(key, msg)) == msg

    def test_otp_key_too_short(self):
        with pytest.raises(ValueError):
            otp_encrypt(Bits("10"), Bits("101"))

    def test_otp_perfect_secrecy_reachability(self):
        # For a fixed ciphertext every plaintext is reachable by some key.
        rng = new_rng(8)
        ct = Bits.random(16, rng)
        for _ in range(20):
            pt = Bits.random(16, rng)
            key = ct ^ pt
            assert otp_encrypt(key, pt) == ct

    def test_double_length_record_uses_whole_key(self):
        # A 2n-bit record under a 2n-bit key: full-length, single use.
        n = 8
        rng = new_rng(9)
        k_dt = OtpKey(Bits.random(2 * n, rng), "K_DT")
        m_d = Bits.random(2 * n, rng)
        ct = k_dt.encrypt(m_d)
        assert len(ct) == 2 * n
        assert k_dt.decrypt(ct) == m_d

    def test_one_time_key_refuses_reuse(self):
        key = OtpKey(Bits("1010"), "K")
        key.encrypt(Bits("11"))
        with pytest.raises(ValueError, match="already used"):
            key.encrypt(Bits("00"))


class TestKeyedHash:
    def test_deterministic(self):
        cfg = HashConfig(128)
        secret, msg = Bits("1011001"), Bits("111000")
        assert keyed_hash(cfg, secret, msg) == keyed_hash(cfg, secret, msg)

    def test_output_length(self):
        secret, msg = Bits("101"), Bits("01")
        for bits in (1, 8, 128, 256, 300, 512):
            assert len(keyed_hash(HashConfig(bits), secret, msg)) == bits

    def test_secret_matters(self):
        cfg = HashConfig(128)
        msg = Bits("10101010")
        assert keyed_hash(cfg, Bits("1100"), msg) != keyed_hash(cfg, Bits("0011"), msg)

    def test_no_collisions_at_256_bits(self):
        cfg = HashConfig(256)
        rng = new_rng(10)
        secret = Bits.random(128, rng)
        seen = set()
        for _ in range(10_000):
            digest = keyed_hash(cfg, secret, Bits.random(48, rng))
            seen.add(str(digest))
        assert len(seen) == 10_000

    def test_avalanche(self):
        # One flipped message bit changes about half the digest bits.
        cfg = HashConfig(256)
        rng = new_rng(11)
        secret = Bits.random(128, rng)
        total = 0
        rounds = 300
        for _ in range(rounds):
            msg = Bits.random(64, rng)
            flipped = msg.flip(int(rng.integers(64)))
            total += sum(a != b for a, b in zip(keyed_hash(cfg, secret, msg), keyed_hash(cfg, secret, flipped)))
        mean_fraction = total / (rounds * 256)
        assert 0.45 < mean_fraction < 0.55

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            HashConfig(128, "not-a-hash")


class TestBB84:
    def test_honest_keys_match_with_zero_errors(self):
        result = establish_key_bb84(128, new_rng(13))
        assert result.sender_key == result.receiver_key
        assert len(result.sender_key) == 128
        assert result.error_rate == 0.0

    def test_raw_to_sifted_ratio_is_half(self):
        result = establish_key_bb84(5000, new_rng(14), check_bits=5000)
        ratio = result.sifted_count / result.raw_count
        assert abs(ratio - 0.5) < 0.02

    def test_intercept_resend_pushes_error_to_quarter(self):
        result = establish_key_bb84(
            2, new_rng(15), InterceptResend("random"), check_bits=10_000, error_threshold=0.9
        )
        sigma = math.sqrt(0.25 * 0.75 / 10_000)
        assert abs(result.error_rate - 0.25) < max(3 * sigma, 0.02)

    def test_intercept_resend_aborts_at_zero_threshold(self):
        with pytest.raises(KeyEstablishmentError):
            establish_key_bb84(64, new_rng(16), InterceptResend("random"))

    def test_deterministic(self):
        a = establish_key_bb84(64, new_rng(17))
        b = establish_key_bb84(64, new_rng(17))
        assert a.sender_key == b.sender_key
        assert a.raw_count == b.raw_count

    def test_length_validation(self):
        with pytest.raises(ValueError):
            establish_key_bb84(0, new_rng(0))


class TestSQKD:
    def test_honest_keys_match_with_zero_errors(self):
        result = establish_key_sqkd(128, new_rng(18))
        assert result.sender_key == result.receiver_key
        assert len(result.sender_key) == 128
        assert result.error_rate == 0.0

    def test_key_yield_is_quarter_of_raw(self):
        result = establish_key_sqkd(4000, new_rng(19))
        # key bits come from SIFT (1/2) positions prepared in Z (1/2)
        assert abs(result.sifted_count / result.raw_count - 0.25) < 0.02

    def test_intercept_resend_error_on_reflected_x_subset(self):
        result = establish_key_sqkd(
            10_000, new_rng(20), InterceptResend("random"), error_threshold=0.9
        )
        x_total = result.detail["ctrl_x_total"]
        assert x_total >= 8_000
        sigma = math.sqrt(0.25 * 0.75 / x_total)
        assert abs(result.detail["ctrl_x_error_rate"] - 0.25) < max(3 * sigma, 0.02)
        assert result.error_rate > 0.1  # overall reflected rate also flags the attack

    def test_intercept_resend_aborts_at_zero_threshold(self):
        with pytest.raises(KeyEstablishmentError):
            establish_key_sqkd(64, new_rng(21), InterceptResend("random"))

    def test_deterministic(self):
        a = establish_key_sqkd(64, new_rng(22))
        b = establish_key_sqkd(64, new_rng(22))
        assert a.sender_key == b.sender_key
        assert a.detail == b.detail


@pytest.mark.parametrize("establish", [establish_key_bb84, establish_key_sqkd], ids=["bb84", "sqkd"])
@pytest.mark.parametrize("length", [1, 2, 64, 200])
def test_untouched_channel_matches_the_register_path(establish, length):
    """The untapped path reports what the ``PassThrough`` path does when its reads come from a
    stream of their own: the same coins, keys and counts, matching keys and no error."""
    for seed in range(10):
        rng_table, rng_registers = new_rng(seed), ReadsApart(seed)
        table = establish(length, rng_table)
        registers = establish(length, rng_registers, PassThrough())
        for name in ("sender_key", "receiver_key", "raw_count", "sifted_count", "error_rate", "detail"):
            assert getattr(table, name) == getattr(registers, name), (seed, name)
        assert table.sender_key == table.receiver_key and table.error_rate == 0.0, seed
        assert rng_table.integers(0, 2**32) == rng_registers.integers(0, 2**32), seed


@pytest.mark.parametrize("establish", [establish_key_bb84, establish_key_sqkd], ids=["bb84", "sqkd"])
@pytest.mark.parametrize("length", [1, 64, 200])
def test_each_batch_reads_its_qubits_with_one_draw(establish, length):
    """Every batch draws its three coin arrays; tapped, it then reads all its qubits with one
    ``random``, and untapped it reads nothing."""
    for adversary in (None, PassThrough()):
        rng = RecordingRng(3)
        result = establish(length, rng, adversary)
        calls = rng.calls
        if establish is establish_key_bb84:
            assert calls[-1][0] == "choice"
            calls = calls[:-1]
        step = 3 if adversary is None else 4
        batches = [calls[i : i + step] for i in range(0, len(calls), step)]
        for batch in batches:
            assert [method for method, _ in batch] == ["integers"] * 3 + ["random"] * (step - 3), calls
        if adversary is not None:
            assert sum(batch[3][1] for batch in batches) == result.raw_count
