"""Immutable bit strings: the classical data carried by the protocol.

``Bits(...)`` checks outside input (strings, JSON, CLI, ``RunConfig``).
Values the package builds itself go through the unchecked
``Bits._trusted``; both store the same tuple of 0/1 ints.
"""

from __future__ import annotations

from operator import xor
from typing import Iterable, Iterator, overload

import numpy as np

# bytes(bits) holds the values 0/1; the string form holds the characters "0"/"1".
_TO_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_TO_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class Bits:
    """An immutable sequence of 0/1 values.

    Supports XOR (length-checked), concatenation, slicing, and a compact
    string form ("1011") used for JSON serialization.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: "Iterable[int] | str | Bits" = ()):
        if isinstance(bits, Bits):
            self._bits = bits._bits
            return
        values = tuple(int(b) for b in bits)  # a str iterates over its characters
        if any(b not in (0, 1) for b in values):
            raise ValueError(f"bits must be 0 or 1, got {values}")
        self._bits = values

    @classmethod
    def _trusted(cls, values: Iterable[int]) -> "Bits":
        """Wrap 0/1 ints the package produced itself, without checking them."""
        out = object.__new__(cls)
        out._bits = tuple(values)
        return out

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "Bits":
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        return cls._trusted(rng.integers(0, 2, size=length).tolist())

    @classmethod
    def zeros(cls, length: int) -> "Bits":
        return cls._trusted((0,) * length)

    def __len__(self) -> int:
        return len(self._bits)

    @overload
    def __getitem__(self, item: int) -> int: ...
    @overload
    def __getitem__(self, item: slice) -> "Bits": ...

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Bits._trusted(self._bits[item])
        return self._bits[item]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Bits) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __xor__(self, other: "Bits") -> "Bits":
        if not isinstance(other, Bits):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"XOR length mismatch: {len(self)} vs {len(other)}")
        return Bits._trusted(map(xor, self._bits, other._bits))

    def __add__(self, other: "Bits") -> "Bits":
        if not isinstance(other, Bits):
            return NotImplemented
        return Bits._trusted(self._bits + other._bits)

    def __str__(self) -> str:
        return bytes(self._bits).translate(_TO_CHARS).decode()

    def __repr__(self) -> str:
        return f"Bits('{self}')"

    def flip(self, index: int) -> "Bits":
        """Copy with one bit inverted."""
        values = list(self._bits)
        values[index] ^= 1
        return Bits._trusted(values)

    def to_bytes(self) -> bytes:
        """Pack into bytes, MSB first, zero-padded to a whole byte."""
        length = len(self._bits)
        value = int(b"0" + bytes(self._bits).translate(_TO_CHARS), 2)
        return (value << (-length % 8)).to_bytes((length + 7) // 8, "big")

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int) -> "Bits":
        """The first ``bit_length`` bits of ``data``, MSB first."""
        if not 0 <= bit_length <= 8 * len(data):
            raise ValueError(f"{len(data)} bytes cannot supply {bit_length} bits")
        value = int.from_bytes(data, "big") >> (8 * len(data) - bit_length)
        # The leading 1 fixes the width at bit_length digits, 0 included.
        return cls._trusted(bin(value | (1 << bit_length))[3:].encode().translate(_TO_VALUES))
