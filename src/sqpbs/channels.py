"""Quantum channels with decoy-particle eavesdropping protection.

Two check styles, matching who sits at the receiving end:

* ``check_decoys`` — receiver has full quantum capability: the preparer
  announces decoy positions and bases, the receiver measures each decoy
  in its announced basis, and the preparer compares outcomes against
  what was sent.
* ``semiquantum_return_check`` — receiver can only Z-measure, reflect
  and reorder: each decoy is either SIFTed (Z-measured, outcome
  published) or CTRLed (reflected back in a random order revealed after
  the preparer has collected everything).  The preparer measures the
  reflected particles in their preparation bases and separately checks
  the published Z outcomes on decoys it prepared in Z.

A decoy (or a key qubit in ``keys``) gets a register only when an
adversary acts on it (``transmit``); payload qubits stay inside whatever
register they already inhabit.  Honest operations never entangle the
two, so the factorization is exact.  Adversary hooks act on the forward
leg of each transmission; return legs are modeled clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EavesdroppingDetected
from .registers import Qubit, measure_qubit, measure_qubits, new_qubit
from .statevec import Basis, Rng, basis_state, born_1q, born_outcome, ket_minus, ket_plus


class DecoyState(Enum):
    """The four BB84/decoy preparations: label, basis and encoded bit.

    This table is the single definition of the four states and their
    Born probabilities; key agreement and the entangle-measure analysis
    use it too.
    """

    ZERO = ("0", Basis.Z, 0)
    ONE = ("1", Basis.Z, 1)
    PLUS = ("+", Basis.X, 0)
    MINUS = ("-", Basis.X, 1)

    def __init__(self, label: str, basis: Basis, bit: int):
        self.label = label
        self.basis = basis
        self.bit = bit  # expected outcome when measured in the preparation basis

    def make_state(self) -> np.ndarray:
        if self.basis is Basis.Z:
            return basis_state(1, self.bit)
        return ket_minus() if self.bit else ket_plus()

    def read(self, qubit: Qubit | None, basis: Basis, rng: Rng) -> int:
        """Measure in ``basis`` after crossing as ``qubit`` (``None``: untouched).

        Untouched, the outcome comes from the Born table, with the one
        uniform draw a register measurement takes.
        """
        if qubit is None:
            return born_outcome(_BORN[self, basis], rng.random())
        return measure_qubit(qubit, basis, rng)


_DECOY_ORDER = tuple(DecoyState)
# (preparation, measurement basis) -> Born (p0, p1)
_BORN = {(d, b): born_1q(d.make_state(), b)[1] for d in DecoyState for b in Basis}


def transmit(state: DecoyState, adversary, rng: Rng) -> Qubit | None:
    """Send ``state`` over one forward leg: a register the adversary acted on, or ``None``."""
    if adversary is None:
        return None
    qubit = new_qubit(state.make_state())
    adversary.intercept(qubit, rng)
    return qubit


@dataclass
class DecoyRecord:
    """Preparer-side record of one inserted decoy; ``qubit`` is None when untouched."""

    position: int
    state: DecoyState
    qubit: Qubit | None


@dataclass
class TransmittedSequence:
    """A payload interleaved with decoys, as it crossed the channel."""

    channel: str
    payload: list[Qubit]  # in its original order
    decoys: list[DecoyRecord]

    @property
    def decoy_count(self) -> int:
        return len(self.decoys)


def send_with_decoys(
    payload: Sequence[Qubit],
    decoy_count: int,
    rng: Rng,
    adversary=None,
    *,
    channel: str = "",
) -> TransmittedSequence:
    """Interleave fresh decoys into ``payload`` and push it through the channel.

    Decoy positions are uniform over all interleavings; decoy states are
    sampled independently and uniformly from the four preparations.  The
    adversary, when present, acts once on every transmitted qubit (decoy
    and payload alike) in transmission order.
    """
    if decoy_count < 1:
        raise ValueError(f"decoy_count must be >= 1, got {decoy_count}")
    total = len(payload) + decoy_count
    decoy_positions = {int(p) for p in rng.choice(total, size=decoy_count, replace=False)}
    decoy_states = iter(rng.integers(0, 4, size=decoy_count).tolist())
    decoys: list[DecoyRecord] = []
    payload_iter = iter(payload)
    for pos in range(total):
        if pos in decoy_positions:
            state = _DECOY_ORDER[next(decoy_states)]
            decoys.append(DecoyRecord(position=pos, state=state, qubit=transmit(state, adversary, rng)))
        elif adversary is not None:
            adversary.intercept(next(payload_iter), rng)
    return TransmittedSequence(channel=channel, payload=list(payload), decoys=decoys)


@dataclass
class DecoyCheckResult:
    channel: str
    decoy_count: int
    errors: int
    error_rate: float
    passed: bool


def check_decoys(
    seq: TransmittedSequence,
    rng: Rng,
    *,
    threshold: float = 0.0,
) -> DecoyCheckResult:
    """Announced-basis decoy comparison for a fully quantum receiver.

    Raises :class:`EavesdroppingDetected` when the error rate exceeds
    ``threshold``.
    """
    errors = sum(
        outcome != record.state.bit for outcome, record in zip(_read_in_own_bases(seq.decoys, rng), seq.decoys)
    )
    rate = errors / len(seq.decoys)
    result = DecoyCheckResult(
        channel=seq.channel,
        decoy_count=len(seq.decoys),
        errors=errors,
        error_rate=rate,
        passed=rate <= threshold,
    )
    if not result.passed:
        raise EavesdroppingDetected(seq.channel, "decoy", rate, threshold)
    return result


def _read_in_own_bases(decoys: list[DecoyRecord], rng: Rng) -> list[int]:
    """``DecoyState.read`` of every decoy in its preparation basis, in one stacked read.

    One adversary taps all of a sequence's decoys or none, so the decoys
    are all untouched (one Born-table lookup each) or all registers of
    one shape (one stacked measurement); either way their uniform draws
    come from one ``rng.random``.
    """
    if decoys[0].qubit is not None:
        return measure_qubits([r.qubit for r in decoys], [r.state.basis for r in decoys], rng)
    u = rng.random(len(decoys)).tolist()
    return [born_outcome(_BORN[r.state, r.state.basis], x) for r, x in zip(decoys, u)]


@dataclass
class ReturnCheckResult:
    channel: str
    reflected_count: int
    reflected_errors: int
    reflected_error_rate: float
    z_sift_count: int
    z_sift_errors: int
    z_sift_error_rate: float
    sifted_count: int
    passed: bool
    detail: dict = field(default_factory=dict)


def semiquantum_return_check(
    seq: TransmittedSequence,
    rng: Rng,
    *,
    threshold: float = 0.0,
) -> ReturnCheckResult:
    """SIFT/CTRL/reorder check for a semiquantum receiver.

    Per decoy the receiver flips a fair coin: SIFT (Z-measure, publish
    the outcome later) or CTRL (reflect).  Reflected particles travel
    back in a random order which the receiver reveals only after the
    preparer has collected them; the preparer then measures each in its
    preparation basis.  Two error rates result: on reflected particles,
    and on the published Z outcomes of decoys the preparer prepared in
    Z.  Raises :class:`EavesdroppingDetected` when either rate exceeds
    ``threshold``.
    """
    sifted: list[tuple[DecoyRecord, int]] = []
    reflected: list[DecoyRecord] = []
    for record in seq.decoys:
        if rng.integers(0, 2):  # SIFT
            sifted.append((record, record.state.read(record.qubit, Basis.Z, rng)))
        else:  # CTRL
            reflected.append(record)
    # Reflected particles travel back shuffled; once the receiver reveals
    # the order, the preparer re-associates each particle with its
    # original slot, so measuring record-by-record in arrival order is
    # exact bookkeeping.
    order = rng.permutation(len(reflected)) if reflected else []
    returned = [reflected[int(i)] for i in order]
    reflected_errors = 0
    subset = {Basis.Z: [0, 0], Basis.X: [0, 0]}  # basis -> [count, errors]
    for rec in returned:
        outcome = rec.state.read(rec.qubit, rec.state.basis, rng)
        mismatch = outcome != rec.state.bit
        reflected_errors += mismatch
        subset[rec.state.basis][0] += 1
        subset[rec.state.basis][1] += mismatch
    z_sift = [(rec, bit) for rec, bit in sifted if rec.state.basis is Basis.Z]
    z_sift_errors = sum(1 for rec, bit in z_sift if bit != rec.state.bit)
    reflected_rate = reflected_errors / len(returned) if returned else 0.0
    z_rate = z_sift_errors / len(z_sift) if z_sift else 0.0
    passed = reflected_rate <= threshold and z_rate <= threshold
    result = ReturnCheckResult(
        channel=seq.channel,
        reflected_count=len(returned),
        reflected_errors=reflected_errors,
        reflected_error_rate=reflected_rate,
        z_sift_count=len(z_sift),
        z_sift_errors=z_sift_errors,
        z_sift_error_rate=z_rate,
        sifted_count=len(sifted),
        passed=passed,
        detail={
            "permutation": [int(i) for i in order],
            "reflected_z_count": subset[Basis.Z][0],
            "reflected_z_errors": subset[Basis.Z][1],
            "reflected_x_count": subset[Basis.X][0],
            "reflected_x_errors": subset[Basis.X][1],
        },
    )
    if reflected_rate > threshold:
        raise EavesdroppingDetected(seq.channel, "reflected", reflected_rate, threshold)
    if z_rate > threshold:
        raise EavesdroppingDetected(seq.channel, "z-sift", z_rate, threshold)
    return result
