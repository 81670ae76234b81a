"""Immutable bit strings: the classical data carried by the protocol.

A ``Bits`` keeps one ``bytes`` object, one byte (0 or 1) per bit; no other
module knows this.  ``Bits(...)`` checks outside input (strings, JSON,
CLI, ``RunConfig``).  The integer arrays the package builds itself, such
as measurement outcomes and agreed keys, take the unchecked
``Bits._trusted``.  ``np.asarray(bits)`` is a read-only ``uint8`` view of
the bytes, without a copy.  ``Bits.random`` draws one coin per bit, from
one ``rng.random(length)`` (``statevec.draw_bits``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, overload

import numpy as np

from .statevec import draw_bits

# The stored bytes hold the values 0/1; the string form holds the characters "0"/"1".
_TO_CHARS = bytes.maketrans(b"\x00\x01", b"01")


class Bits:
    """An immutable sequence of 0/1 values.

    Supports XOR (length-checked), concatenation, slicing, and a compact
    string form ("1011") used for JSON serialization.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] | str | Bits = ()):
        if isinstance(bits, Bits):
            self._bits = bits._bits
            return
        values = tuple(bits)  # a str iterates over its characters; anything else holds integers, no float or bool
        kinds = str if isinstance(bits, str) else (int, np.integer)
        if any(not isinstance(b, kinds) or isinstance(b, bool) or b not in ("0", "1", 0, 1) for b in values):
            raise ValueError(f"bits must be 0 or 1, got {values}")
        self._bits = bytes(map(int, values))

    @classmethod
    def _trusted(cls, values: "np.ndarray | bytes") -> "Bits":
        """Wrap 0/1 values the package built, unchecked: an integer array, or bytes of one byte per bit."""
        out = object.__new__(cls)
        out._bits = values if type(values) is bytes else values.astype(np.uint8).tobytes()
        return out

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "Bits":
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        return cls._trusted(draw_bits(rng, length, 1))  # one coin per bit

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A read-only ``uint8`` view of the stored bytes, cast or copied as ``dtype`` and ``copy`` ask."""
        return np.array(np.frombuffer(self._bits, dtype=np.uint8), dtype=dtype, copy=copy)

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
        # One byte per bit, so the XOR of the two big integers is the bitwise XOR.
        value = int.from_bytes(self._bits, "big") ^ int.from_bytes(other._bits, "big")
        return Bits._trusted(value.to_bytes(len(self), "big"))

    def __add__(self, other: "Bits") -> "Bits":
        if not isinstance(other, Bits):
            return NotImplemented
        return Bits._trusted(self._bits + other._bits)

    def __str__(self) -> str:
        return self._bits.translate(_TO_CHARS).decode()

    def __repr__(self) -> str:
        return f"Bits('{self}')"

    def flip(self, index: int) -> "Bits":
        """Copy with one bit inverted."""
        values = bytearray(self._bits)
        values[index] ^= 1
        return Bits._trusted(bytes(values))

    def to_bytes(self) -> bytes:
        """Pack into bytes, MSB first, zero-padded to a whole byte."""
        return np.packbits(self).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int) -> "Bits":
        """The first ``bit_length`` bits of ``data``, MSB first."""
        if not 0 <= bit_length <= 8 * len(data):
            raise ValueError(f"{len(data)} bytes cannot supply {bit_length} bits")
        return cls._trusted(np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=bit_length).tobytes())
