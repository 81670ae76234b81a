"""Immutable bit strings: the classical data carried by the protocol."""

from __future__ import annotations

from typing import Iterable, Iterator, overload

import numpy as np


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
        if isinstance(bits, str):
            values = tuple(int(c) for c in bits)
        else:
            values = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in values):
            raise ValueError(f"bits must be 0 or 1, got {values}")
        self._bits = values

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "Bits":
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        return cls(int(b) for b in rng.integers(0, 2, size=length))

    @classmethod
    def zeros(cls, length: int) -> "Bits":
        return cls((0,) * length)

    def __len__(self) -> int:
        return len(self._bits)

    @overload
    def __getitem__(self, item: int) -> int: ...
    @overload
    def __getitem__(self, item: slice) -> "Bits": ...

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Bits(self._bits[item])
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
        return Bits(a ^ b for a, b in zip(self._bits, other._bits))

    def __add__(self, other: "Bits") -> "Bits":
        if not isinstance(other, Bits):
            return NotImplemented
        return Bits(self._bits + other._bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self._bits)

    def __repr__(self) -> str:
        return f"Bits('{self}')"

    def flip(self, index: int) -> "Bits":
        """Copy with one bit inverted."""
        values = list(self._bits)
        values[index] ^= 1
        return Bits(values)

    def to_bytes(self) -> bytes:
        """Pack into bytes, MSB first, zero-padded to a whole byte."""
        out = bytearray()
        acc = 0
        count = 0
        for b in self._bits:
            acc = (acc << 1) | b
            count += 1
            if count == 8:
                out.append(acc)
                acc = 0
                count = 0
        if count:
            out.append(acc << (8 - count))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int) -> "Bits":
        bits = []
        for byte in data:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
                if len(bits) == bit_length:
                    return cls(bits)
        if len(bits) < bit_length:
            raise ValueError(f"{len(data)} bytes cannot supply {bit_length} bits")
        return cls(bits[:bit_length])

    def hamming_distance(self, other: "Bits") -> int:
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return sum(a != b for a, b in zip(self._bits, other._bits))
