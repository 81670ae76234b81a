"""Classical key material and simulated key establishment.

Covers the four pre-shared keys the signing protocol consumes (one
2n-bit key agreed over simulated BB84, two n-bit keys agreed over a
simulated semiquantum exchange, and the owner's locally generated n-bit
blinding key), the one-time-pad encryption of measurement records, and
the keyed hash shared between the message owner and the verifier.

Key establishment is simulated honestly at the single-qubit level.
Each key qubit crosses like a decoy, as its integer preparation code
(``channels.DecoyState.index``), and BB84 and the semiquantum exchange
share one batch loop, ``_agree``: they differ only in the batch factor
(2 or 4) and in the rule that picks key positions and measurement
bases.  Each batch draws its qubits' (basis, value, coin) triples with
one ``rng.random`` (``statevec.draw_bits``); a tapped batch then draws
the adversary draws of the one ``channels.tap`` that sends the raw
qubits it spends, and one ``channels.read_prepared`` of them.  An
untapped batch reads nothing: its key and CTRL positions are read in
their preparation bases, which returns the prepared values.  A batch is
sized so that one is almost always enough.  After the last batch, BB84
draws its check sample, one ``rng.random`` over the sifted positions
(``statevec.draw_sample``).  Each key copy is the ``Bits`` of an array.

Runs that do not care about the key-agreement channel may skip it
entirely and draw pre-shared keys ("stubbed" mode in the protocol
layer), since the agreed keys of an honest noiseless exchange are
uniform random strings either way.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .bits import Bits
from .channels import read_prepared, tap
from .errors import ConfigError, KeyEstablishmentError
from .statevec import Rng, draw_bits, draw_sample

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
        if not isinstance(self.algorithm, str) or self.algorithm not in hashlib.algorithms_available:
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


def _agree(length: int, factor: int, rule, adversary, rng: Rng) -> tuple[np.ndarray, ...]:
    """The one batch loop of key agreement: raw qubits until ``length`` key positions.

    A qubit is a key position with probability ``1 / factor``, so ``missing``
    key positions take ``factor * missing`` raw qubits on average, with
    standard deviation ``sqrt(factor * (factor - 1) * missing)``; a batch is
    that mean plus about four deviations and 16 more, so a second batch is
    rare.  A batch of ``k`` qubits draws ``statevec.draw_bits(rng, k, 3)``,
    each qubit's (preparation basis, value, receiver's coin) as the three bits
    of ``floor(8u)``, high to low; the top two are its preparation code.
    ``rule(bases, coins)`` gives its key positions as a mask and each qubit's
    measurement basis.  The batch spends its prefix up to the ``missing``-th
    key position, or all of it, which crosses through one ``channels.tap``
    and, tapped, is read with one ``channels.read_prepared``.  Untapped, its
    outcomes are the prepared values, exact at the key and CTRL positions, the
    only ones a caller reads.  Returns the spent qubits' bases, values, coins
    and outcomes, and the indices of the ``length`` key positions among them.
    """
    batches, raw, found = [], 0, 0
    while found < length:
        missing = length - found
        triples = draw_bits(rng, factor * missing + 4 * math.isqrt(factor * (factor - 1) * missing) + 16, 3)
        bases, values, coins = triples >> 2, (triples >> 1) & 1, triples & 1
        key, meas_bases = rule(bases, coins)
        keyed = np.flatnonzero(key)[:missing]
        used = int(keyed[-1]) + 1 if keyed.size == missing else len(triples)
        tapped = tap(triples[:used] >> 1, adversary, rng)[0]
        outcomes = values[:used] if tapped is None else read_prepared(tapped, meas_bases[:used], rng)
        batches.append((bases[:used], values[:used], coins[:used], outcomes, keyed + raw))
        raw += used
        found += keyed.size
    return tuple(map(np.concatenate, zip(*batches)))


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
    sacrificial bits are available; the check sample, ``check_bits``
    sifted positions drawn uniformly, estimates the channel error rate.  An
    honest noiseless channel yields identical keys and error rate 0; a
    full intercept-resend attacker pushes the sifted error rate to ~25%.
    Raises :class:`KeyEstablishmentError` above ``error_threshold``.
    """
    if length < 1:
        raise ValueError(f"key length must be >= 1, got {length}")
    if check_bits is None:
        check_bits = min(length, 64)
    if check_bits < 0:
        raise ValueError(f"check_bits must be >= 0, got {check_bits}")
    needed = length + check_bits
    # Sifting keeps the qubits whose receiver basis coin matches the preparation basis.
    _, values, _, outcomes, keyed = _agree(needed, 2, lambda bases, coins: (bases == coins, coins), adversary, rng)
    sender, receiver = values[keyed], outcomes[keyed]
    check = np.zeros(needed, dtype=bool)
    if check_bits:
        check[draw_sample(rng, needed, check_bits)] = True
    errors = int(np.count_nonzero(sender[check] != receiver[check]))
    error_rate = errors / check_bits if check_bits else 0.0
    if error_rate > error_threshold:
        raise KeyEstablishmentError("bb84", error_rate, error_threshold)
    return KeyExchangeResult(
        kind="bb84",
        sender_key=Bits._trusted(sender[~check]),
        receiver_key=Bits._trusted(receiver[~check]),
        error_rate=error_rate,
        raw_count=len(values),
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
    # A SIFT (coin 1) of a Z preparation is a key position.  SIFT measures
    # in Z; a CTRL reflection is read in the preparation basis.
    bases, values, coins, outcomes, keyed = _agree(
        length, 4, lambda bases, coins: ((coins == 1) & (bases == 0), np.where(coins == 1, 0, bases)), adversary, rng
    )
    ctrl = coins == 0
    mismatch = outcomes[ctrl] != values[ctrl]
    on_x = bases[ctrl] == 1
    ctrl_total, ctrl_errors = int(np.count_nonzero(ctrl)), int(np.count_nonzero(mismatch))
    ctrl_x_total, ctrl_x_errors = int(np.count_nonzero(on_x)), int(np.count_nonzero(mismatch & on_x))
    error_rate = ctrl_errors / ctrl_total if ctrl_total else 0.0
    if error_rate > error_threshold:
        raise KeyEstablishmentError("sqkd", error_rate, error_threshold)
    return KeyExchangeResult(
        kind="sqkd",
        sender_key=Bits._trusted(values[keyed]),
        receiver_key=Bits._trusted(outcomes[keyed]),
        error_rate=error_rate,
        raw_count=len(values),
        sifted_count=length,
        detail={
            "ctrl_total": ctrl_total,
            "ctrl_errors": ctrl_errors,
            "ctrl_x_total": ctrl_x_total,
            "ctrl_x_errors": ctrl_x_errors,
            "ctrl_x_error_rate": ctrl_x_errors / ctrl_x_total if ctrl_x_total else 0.0,
        },
    )
