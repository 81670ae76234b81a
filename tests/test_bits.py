"""Bits boundaries: the checked constructor, the unchecked internal path, and the byte layout."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqpbs.bits import Bits
from sqpbs.cli import EXIT_CONFIG, main
from sqpbs.transcript import RunConfig

FAST = settings(max_examples=100, deadline=None, derandomize=True)
bit_lists = st.lists(st.integers(0, 1), max_size=300)


def packed_by_loop(values):
    """The per-bit packing ``Bits.to_bytes`` replaced: MSB first, zero-padded."""
    out, acc, count = bytearray(), 0, 0
    for b in values:
        acc, count = (acc << 1) | b, count + 1
        if count == 8:
            out.append(acc)
            acc, count = 0, 0
    if count:
        out.append(acc << (8 - count))
    return bytes(out)


class TestCheckedConstructor:
    @pytest.mark.parametrize("value", ["102", "2", "1 0", [2], [0, 2, 1], [-1]])
    def test_rejects_anything_but_zero_and_one(self, value):
        with pytest.raises(ValueError):
            Bits(value)

    @pytest.mark.parametrize("field", ["g_a", "k_a"])
    @pytest.mark.parametrize("value", ["102", [1, 2, 0]])
    def test_config_from_json_rejects_bad_private_bits(self, field, value):
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"n": 3, "seed": 1, field: value})

    @pytest.mark.parametrize("value", ["102", [1, 2, 0]])
    def test_replay_of_bad_g_a_exits_4_with_one_line(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"format": "sqpbs-transcript", "config": {"n": 3, "seed": 1, "g_a": value}, "transcript": {}}
        ))
        assert main(["replay", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        ("value", "error"),
        [([1.5, 0, 1], ValueError), ([True, False, True], ValueError), (101, TypeError)],
        ids=["floats", "bools", "json-number"],
    )
    def test_truncatable_values_are_refused_directly_and_in_a_replay(self, tmp_path, capsys, value, error):
        """Each value once read as ``Bits('101')``; a recorded run whose ``g_a`` holds it is a config error naming g_a."""
        with pytest.raises(error, match="bits must be 0 or 1" if error is ValueError else None):
            Bits(value)
        run = tmp_path / "run.json"
        assert main(["run", "--n", "3", "--seed", "1", "--message", "101", "--out", str(run)]) == 0
        data = json.loads(run.read_text())
        data["config"]["g_a"] = value
        run.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["replay", str(run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: g_a must be a 0/1 string, got {value!r}\n", err


def assert_same(a: Bits, b: Bits) -> None:
    assert a == b and hash(a) == hash(b)
    assert (str(a), repr(a), list(a), len(a), a.to_bytes()) == (str(b), repr(b), list(b), len(b), b.to_bytes())


class TestUncheckedPath:
    @FAST
    @given(bit_lists)
    def test_checked_and_unchecked_agree(self, values):
        for dtype in (np.intp, np.uint8, bool):
            assert_same(Bits(values), Bits._trusted(np.array(values, dtype=dtype)))
        assert_same(Bits(values), Bits("".join(map(str, values))))

    @FAST
    @given(bit_lists, st.data())
    def test_operations_build_what_the_checked_path_builds(self, values, data):
        bits = Bits(values)
        other = Bits(data.draw(st.lists(st.integers(0, 1), min_size=len(values), max_size=len(values))))
        start, stop = sorted(data.draw(st.lists(st.integers(0, len(values)), min_size=2, max_size=2)))
        assert_same(bits ^ other, Bits([a ^ b for a, b in zip(values, other)]))
        assert_same(bits[start:stop], Bits(values[start:stop]))
        assert_same(bits[::-1], Bits(values[::-1]))
        assert_same(bits + other, Bits(values + list(other)))
        if values:
            i = data.draw(st.integers(0, len(values) - 1))
            assert_same(bits.flip(i), Bits(values[:i] + [1 - values[i]] + values[i + 1:]))

    def test_random_matches_the_checked_path(self):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert_same(Bits.random(50, rng), Bits(np.floor(2 * ref.random(50)).astype(int)))
        assert Bits.random(0, rng) == Bits()


class TestArrayBoundary:
    @FAST
    @given(bit_lists)
    def test_array_is_a_read_only_uint8_view(self, values):
        bits = Bits(values)
        view = np.asarray(bits)
        assert view.dtype == np.uint8 and view.tolist() == values
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[...] = 1
        assert_same(Bits._trusted(view), bits)

    @FAST
    @given(bit_lists)
    def test_array_honours_dtype_and_copy(self, values):
        bits = Bits(values)
        assert np.asarray(bits, dtype=float).tolist() == values
        copied = np.array(bits)
        assert copied.flags.writeable and copied.tolist() == values
        with pytest.raises(ValueError):
            np.asarray(bits, dtype=np.intp, copy=False)

    def test_the_view_shares_the_stored_bytes(self):
        bits = Bits("1011")
        assert np.shares_memory(np.asarray(bits), np.asarray(bits, copy=False))
        assert not np.shares_memory(np.array(bits), np.asarray(bits))

    def test_empty_crosses_both_ways(self):
        view = np.asarray(Bits())
        assert view.shape == (0,) and view.dtype == np.uint8 and not view.flags.writeable
        for dtype in (np.intp, np.uint8, bool):
            assert_same(Bits._trusted(np.zeros(0, dtype=dtype)), Bits())
        assert_same(Bits._trusted(view), Bits())


class TestByteLayout:
    @pytest.mark.parametrize(
        "text, packed",
        [
            ("", b""),
            ("1", b"\x80"),
            ("01", b"\x40"),
            ("10110100", b"\xb4"),
            ("101101001", b"\xb4\x80"),
            ("0000000011", b"\x00\xc0"),
            ("1" * 16, b"\xff\xff"),
            ("0" * 17, b"\x00\x00\x00"),
        ],
    )
    def test_msb_first_zero_padded(self, text, packed):
        assert Bits(text).to_bytes() == packed == packed_by_loop(Bits(text))
        assert Bits.from_bytes(packed, len(text)) == Bits(text)

    def test_from_bytes_takes_the_leading_bits(self):
        assert Bits.from_bytes(b"\xb4\xff", 3) == Bits("101")
        assert Bits.from_bytes(b"\x01", 0) == Bits()
        assert Bits.from_bytes(b"\x00\x01", 16) == Bits("0" * 15 + "1")

    @pytest.mark.parametrize("data, bit_length", [(b"", 1), (b"\xff", 9), (b"\xff", -1)])
    def test_from_bytes_rejects_lengths_the_data_cannot_supply(self, data, bit_length):
        with pytest.raises(ValueError):
            Bits.from_bytes(data, bit_length)

    def test_round_trip_for_every_length_up_to_300(self):
        rng = np.random.default_rng(11)
        for length in range(301):
            bits = Bits.random(length, rng)
            packed = bits.to_bytes()
            assert packed == packed_by_loop(bits) and len(packed) == (length + 7) // 8
            assert Bits.from_bytes(packed, length) == bits

    @FAST
    @given(bit_lists)
    def test_round_trip_matches_the_bit_loop(self, values):
        bits = Bits(values)
        assert bits.to_bytes() == packed_by_loop(values)
        assert Bits.from_bytes(bits.to_bytes(), len(bits)) == bits
