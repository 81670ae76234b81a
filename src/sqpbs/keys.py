"""Classical key material and simulated key establishment.

Covers the four pre-shared keys the signing protocol consumes (one
2n-bit key agreed over simulated BB84, two n-bit keys agreed over a
simulated semiquantum exchange, and the owner's locally generated n-bit
blinding key), the one-time-pad encryption of measurement records, and
the keyed hash shared between the message owner and the verifier.

Key establishment is simulated honestly at the single-qubit level.
Each key qubit is a ``channels.DecoyState`` preparation that crosses
like a decoy: ``channels.cross`` gives a batch's raw qubits one row
stack only under attack.  Each batch draws, in this order: its three
coin arrays (one ``rng.integers`` each), any adversary draws as the raw
qubits it spends cross, then one ``channels.read_prepared`` of all those
qubits.  After the last batch, BB84 draws its check sample.

Runs that do not care about the key-agreement channel may skip it
entirely and draw pre-shared keys ("stubbed" mode in the protocol
layer), since the agreed keys of an honest noiseless exchange are
uniform random strings either way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .bits import Bits
from .channels import DecoyState, cross, read_prepared
from .errors import ConfigError, KeyEstablishmentError
from .statevec import Basis, Rng

__all__ = [
    "HashConfig",
    "KeyExchangeResult",
    "OtpKey",
    "establish_key_bb84",
    "establish_key_sqkd",
    "keyed_hash",
    "otp_decrypt",
    "otp_encrypt",
    "xor_blind",
]


def xor_blind(message: Bits, key: Bits) -> Bits:
    """Blind a classical message by XOR with an equal-length private key."""
    if len(message) != len(key):
        raise ValueError(f"blinding key length {len(key)} != message length {len(message)}")
    return message ^ key


def otp_encrypt(key: Bits, message: Bits) -> Bits:
    """One-time-pad encryption: ciphertext = message XOR key prefix."""
    if len(key) < len(message):
        raise ValueError(f"one-time-pad key too short: {len(key)} < {len(message)}")
    return message ^ key[: len(message)]


def otp_decrypt(key: Bits, ciphertext: Bits) -> Bits:
    """Inverse of :func:`otp_encrypt` (XOR is self-inverse)."""
    return otp_encrypt(key, ciphertext)


class OtpKey:
    """A one-time-pad key that refuses to encrypt twice within a run."""

    def __init__(self, key: Bits, label: str):
        self.key = key
        self.label = label
        self._used = False

    def __len__(self) -> int:
        return len(self.key)

    def encrypt(self, message: Bits) -> Bits:
        if self._used:
            raise ValueError(f"one-time-pad key {self.label!r} already used in this run")
        self._used = True
        return otp_encrypt(self.key, message)

    def decrypt(self, ciphertext: Bits) -> Bits:
        return otp_decrypt(self.key, ciphertext)


@dataclass(frozen=True)
class HashConfig:
    """Keyed-hash configuration; recorded in transcripts for replay."""

    output_bits: int = 128
    algorithm: str = "sha256"

    def __post_init__(self):
        if self.output_bits < 1:
            raise ConfigError(f"hash output length must be >= 1 bit, got {self.output_bits}")
        if self.algorithm not in hashlib.algorithms_available:
            raise ConfigError(f"unknown hash algorithm {self.algorithm!r}")
        if hashlib.new(self.algorithm).digest_size == 0:
            raise ConfigError(f"hash algorithm {self.algorithm!r} has no fixed digest length")


def keyed_hash(config: HashConfig, secret: Bits, message: Bits) -> Bits:
    """Deterministic keyed digest of ``message``, ``output_bits`` long.

    Modeled as digest(secret || message) with unambiguous length framing,
    extended by counter blocks when the configured output exceeds one
    digest.  The secret models a hash function shared only between two
    parties; without it the digest is unpredictable.
    """
    header = (
        b"sqpbs-keyed-hash\x00"
        + len(secret).to_bytes(8, "big")
        + secret.to_bytes()
        + len(message).to_bytes(8, "big")
        + message.to_bytes()
    )
    out = bytearray()
    counter = 0
    while len(out) * 8 < config.output_bits:
        h = hashlib.new(config.algorithm)
        h.update(header + counter.to_bytes(4, "big"))
        out.extend(h.digest())
        counter += 1
    return Bits.from_bytes(bytes(out), config.output_bits)


@dataclass
class KeyExchangeResult:
    """Outcome of one simulated key agreement."""

    kind: str
    sender_key: Bits
    receiver_key: Bits
    error_rate: float
    raw_count: int
    sifted_count: int
    detail: dict = field(default_factory=dict)

    @property
    def keys_match(self) -> bool:
        return self.sender_key == self.receiver_key


_BASES = (Basis.Z, Basis.X)  # indexed by the basis coins the key loops draw
_PREPARED = tuple(DecoyState)  # indexed by 2 * basis coin + value coin


def _receive(prep_bases, prep_values, meas_bases, adversary, rng: Rng) -> np.ndarray:
    """Receiver's outcomes for prepared qubits measured after one forward leg.

    Arguments are equal-length 0/1 arrays (basis 0 = Z, 1 = X); every
    qubit crosses before any is read.
    """
    codes = 2 * prep_bases + prep_values
    tapped = cross(codes, adversary, rng)
    states = [_PREPARED[c] for c in codes.tolist()]
    bases = [_BASES[mb] for mb in meas_bases.tolist()]
    return np.array(read_prepared(states, bases, rng, tapped), dtype=int)


def _raw_used(key_positions: np.ndarray, missing: int, batch: int) -> int:
    """Raw qubits a batch spends: up to its ``missing``-th key position, else all."""
    return int(key_positions[missing - 1]) + 1 if key_positions.size >= missing else batch


def establish_key_bb84(
    length: int,
    rng: Rng,
    adversary=None,
    *,
    check_bits: int | None = None,
    error_threshold: float = 0.0,
) -> KeyExchangeResult:
    """Qubit-level BB84: random bases, sifting, sampled error estimate.

    Generates sifted bits until ``length`` key bits plus ``check_bits``
    sacrificial bits are available; the check sample (chosen at random
    among the sifted positions) estimates the channel error rate.  An
    honest noiseless channel yields identical keys and error rate 0; a
    full intercept-resend attacker pushes the sifted error rate to ~25%.
    Raises :class:`KeyEstablishmentError` above ``error_threshold``.
    """
    if length < 1:
        raise ValueError(f"key length must be >= 1, got {length}")
    if check_bits is None:
        check_bits = min(length, 64)
    needed = length + check_bits
    sender_bits: list[int] = []
    receiver_bits: list[int] = []
    raw = 0
    while len(sender_bits) < needed:
        missing = needed - len(sender_bits)
        batch = max(16, 2 * missing + 8)
        send_bases = rng.integers(0, 2, size=batch)
        send_values = rng.integers(0, 2, size=batch)
        recv_bases = rng.integers(0, 2, size=batch)
        sifted = np.flatnonzero(send_bases == recv_bases)
        used = _raw_used(sifted, missing, batch)
        sifted = sifted[:missing]
        outcomes = _receive(send_bases[:used], send_values[:used], recv_bases[:used], adversary, rng)
        raw += used
        sender_bits += send_values[sifted].tolist()
        receiver_bits += outcomes[sifted].tolist()
    errors = 0
    check_positions: set[int] = set()
    if check_bits:
        check_positions = set(int(i) for i in rng.choice(needed, size=check_bits, replace=False))
        errors = sum(1 for i in check_positions if sender_bits[i] != receiver_bits[i])
    error_rate = errors / check_bits if check_bits else 0.0
    if error_rate > error_threshold:
        raise KeyEstablishmentError("bb84", error_rate, error_threshold)
    keep = [i for i in range(needed) if i not in check_positions][:length]
    return KeyExchangeResult(
        kind="bb84",
        sender_key=Bits._trusted(sender_bits[i] for i in keep),
        receiver_key=Bits._trusted(receiver_bits[i] for i in keep),
        error_rate=error_rate,
        raw_count=raw,
        sifted_count=needed,
        detail={"check_bits": check_bits, "check_errors": errors},
    )


def establish_key_sqkd(
    length: int,
    rng: Rng,
    adversary=None,
    *,
    error_threshold: float = 0.0,
) -> KeyExchangeResult:
    """Qubit-level semiquantum key agreement with a classical receiver.

    The quantum party sends qubits prepared in a random basis (Z or X)
    with a random value.  The classical party flips a fair coin per
    qubit: SIFT (measure in Z, resend a fresh Z qubit carrying the
    outcome) or CTRL (reflect untouched).  Key bits are the SIFT
    positions where the quantum party prepared in Z.  The quantum party
    measures everything that comes back in the original preparation
    basis; mismatches on CTRL (reflected) positions are the detection
    statistic.  The adversary hook acts on the forward leg of each
    transmission; the return leg is modeled clean.  So the quantum
    party's reading of a SIFT resend, a Z state measured in Z, always
    returns the classical party's outcome, and it is not simulated.
    """
    if length < 1:
        raise ValueError(f"key length must be >= 1, got {length}")
    sender_key: list[int] = []
    receiver_key: list[int] = []
    raw = 0
    ctrl_errors = 0
    ctrl_total = 0
    ctrl_x_errors = 0
    ctrl_x_total = 0
    while len(sender_key) < length:
        missing = length - len(sender_key)
        batch = max(16, 4 * missing + 8)
        prep_bases = rng.integers(0, 2, size=batch)
        prep_values = rng.integers(0, 2, size=batch)
        sift_coins = rng.integers(0, 2, size=batch)
        keyed = np.flatnonzero((sift_coins == 1) & (prep_bases == 0))  # SIFT of a Z preparation
        used = _raw_used(keyed, missing, batch)
        keyed = keyed[:missing]
        prep_bases, prep_values, sift_coins = prep_bases[:used], prep_values[:used], sift_coins[:used]
        # SIFT: the classical party measures in Z; CTRL: the reflection is
        # read in the preparation basis.
        meas_bases = np.where(sift_coins == 1, 0, prep_bases)
        outcomes = _receive(prep_bases, prep_values, meas_bases, adversary, rng)
        raw += used
        sender_key += prep_values[keyed].tolist()
        receiver_key += outcomes[keyed].tolist()
        ctrl = sift_coins == 0
        mismatch = outcomes[ctrl] != prep_values[ctrl]
        on_x = prep_bases[ctrl] == 1
        ctrl_total += int(ctrl.sum())
        ctrl_errors += int(mismatch.sum())
        ctrl_x_total += int(on_x.sum())
        ctrl_x_errors += int(mismatch[on_x].sum())
    error_rate = ctrl_errors / ctrl_total if ctrl_total else 0.0
    if error_rate > error_threshold:
        raise KeyEstablishmentError("sqkd", error_rate, error_threshold)
    return KeyExchangeResult(
        kind="sqkd",
        sender_key=Bits._trusted(sender_key[:length]),
        receiver_key=Bits._trusted(receiver_key[:length]),
        error_rate=error_rate,
        raw_count=raw,
        sifted_count=len(sender_key),
        detail={
            "ctrl_total": ctrl_total,
            "ctrl_errors": ctrl_errors,
            "ctrl_x_total": ctrl_x_total,
            "ctrl_x_errors": ctrl_x_errors,
            "ctrl_x_error_rate": ctrl_x_errors / ctrl_x_total if ctrl_x_total else 0.0,
        },
    )
