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

A prepared qubit, decoy or key qubit, travels as its integer code,
``DecoyState.index`` = 2 * basis + bit (basis 0 is Z, 1 is X), from its
draw to its read; a sequence keeps its decoys' ``positions`` and
``codes``.  Prepared qubits get a row stack only when an adversary acts
on them: ``tap`` is the one place that builds it, one stack per
transmission, row i for prepared qubit i, for ``send_with_decoys`` and
the key-agreement batches alike.  Payload qubits stay in the stacks
they already inhabit.  Honest operations never entangle the two, so
the factorization is exact.  An adversary sees each transmission once,
as one ``intercept(segments, rng)`` call: the prepared qubits' stack,
then each payload stack.  Both adversaries treat every qubit alike, so
the announced decoy positions never reach them.  They act on the
forward leg; return legs are modeled clean.

``read_prepared`` is the one read of prepared one-qubit states: codes
and measurement bases in, outcomes out, and each step reads once.  A
read is the last thing that touches a prepared qubit, so tapped rows are
read from their Born sums (``statevec.born_rows``) and never collapsed.
``send_with_decoys`` draws the decoy positions, the decoy codes, then
any adversary draws, decoys before payload; ``check_decoys`` reads every
decoy in its preparation basis; ``semiquantum_return_check`` draws every
SIFT/CTRL coin, reads the SIFTed decoys in Z, draws the return
permutation, then reads the reflected decoys in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EavesdroppingDetected
from .registers import Stack
from .statevec import Basis, Rng, basis_state, born_outcomes, born_rows, ket_minus, ket_plus, postselect


class DecoyState(Enum):
    """The four BB84/decoy preparations: label, basis and encoded bit.

    This table is the single definition of the four states and their
    Born probabilities; the entangle-measure analysis uses it too.  A
    member's ``index`` is the integer code that the channels and key
    agreement carry in its place.
    """

    ZERO = ("0", Basis.Z, 0)
    ONE = ("1", Basis.Z, 1)
    PLUS = ("+", Basis.X, 0)
    MINUS = ("-", Basis.X, 1)

    def __init__(self, label: str, basis: Basis, bit: int):
        self.label = label
        self.basis = basis
        self.bit = bit  # expected outcome when measured in the preparation basis
        self.index = 2 * (basis is Basis.X) + bit  # definition order; index >> 1 is the basis

    def make_state(self) -> np.ndarray:
        if self.basis is Basis.Z:
            return basis_state(1, self.bit)
        return ket_minus() if self.bit else ket_plus()


_KETS = np.array([d.make_state() for d in DecoyState])
# Row 2 * code + x_basis: Born (p0, p1) of preparation ``code`` read in Z (0) or X (1)
_BORN = np.array([[postselect(d.make_state(), 0, b, o)[0] for o in (0, 1)] for d in DecoyState for b in Basis])


def read_prepared(
    codes: Sequence[int], x_basis: Sequence[int], rng: Rng, tapped: np.ndarray | None = None
) -> list[int]:
    """Measure each prepared qubit in its basis after crossing.

    ``codes[i]`` is qubit i's preparation (a ``DecoyState.index``) and
    ``x_basis[i]`` its measurement basis, 0 for Z and 1 for X.
    ``tapped`` holds the rows of the qubits that an adversary acted on,
    with the crossed qubit at column 0, or is None when none was: one
    adversary taps all of a channel's qubits or none.  Untouched qubits
    take their Born probabilities from the table, tapped rows pick theirs
    from the Z and X sums over the whole stack, which no read collapses;
    either way one ``rng.random`` feeds ``born_outcomes``, and an empty
    read takes none.
    """
    if not len(codes):
        return []
    u = rng.random(len(codes))
    if tapped is None:
        p0, p1 = _BORN[2 * np.asarray(codes) + x_basis].T
    else:
        on_x = np.asarray(x_basis, dtype=bool)
        (z0, z1), (x0, x1) = born_rows(tapped, 0, Basis.Z), born_rows(tapped, 0, Basis.X)
        p0, p1 = np.where(on_x, x0, z0), np.where(on_x, x1, z1)
    return born_outcomes(p0, p1, u).tolist()


def tap(codes: Sequence[int], adversary, rng: Rng, payload: Sequence[Stack] = (), column: int = 0) -> Stack | None:
    """Send prepared qubits through an adversary: the one tap of decoys and key qubits.

    Qubit i, prepared as ``codes[i]``, becomes row i of one stack.  The
    adversary sees the transmission as segments: that stack at column 0,
    then the qubit at ``column`` of every row of each ``payload`` stack.
    Returns the stack of the prepared qubits as the adversary left them,
    or None when there is no adversary.
    """
    if adversary is None:
        return None
    tapped = Stack(_KETS[codes])
    segments = [(tapped, 0), *((stack, column) for stack in payload)]
    adversary.intercept([(stack, c) for stack, c in segments if stack.rows], rng)  # an empty stack does not cross
    return tapped


@dataclass
class TransmittedSequence:
    """The decoys interleaved into one payload, as they crossed the channel.

    Decoy i crossed at transmission slot ``positions[i]`` (ascending),
    prepared as ``codes[i]`` (a ``DecoyState.index``).  ``tapped`` is the
    stack of the decoys an adversary acted on (row i for decoy i), or None
    when the channel was not tapped.
    """

    channel: str
    positions: list[int]
    codes: list[int]
    tapped: Stack | None


def send_with_decoys(
    payload: Sequence[Stack],
    decoy_count: int,
    rng: Rng,
    adversary=None,
    *,
    channel: str = "",
    column: int = 0,
) -> TransmittedSequence:
    """Interleave fresh decoys into ``payload`` and push it through the channel.

    The payload qubits are the qubit at ``column`` of every row of each
    stack in turn.  Decoy positions, which the preparer announces, are
    uniform over all interleavings; decoy states are sampled independently
    and uniformly from the four preparations.  The adversary, when
    present, acts once on every transmitted qubit through ``tap``.
    """
    if decoy_count < 1:
        raise ValueError(f"decoy_count must be >= 1, got {decoy_count}")
    total = sum(stack.rows for stack in payload) + decoy_count
    positions = sorted(rng.choice(total, size=decoy_count, replace=False).tolist())
    codes = rng.integers(0, 4, size=decoy_count).tolist()
    tapped = tap(codes, adversary, rng, payload, column)
    return TransmittedSequence(channel=channel, positions=positions, codes=codes, tapped=tapped)


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
    codes = seq.codes
    outcomes = read_prepared(codes, [c >> 1 for c in codes], rng, seq.tapped and seq.tapped.state)
    errors = sum(outcome != (code & 1) for outcome, code in zip(outcomes, codes))
    rate = errors / len(codes)
    result = DecoyCheckResult(
        channel=seq.channel,
        decoy_count=len(codes),
        errors=errors,
        error_rate=rate,
        passed=rate <= threshold,
    )
    if not result.passed:
        raise EavesdroppingDetected(seq.channel, "decoy", rate, threshold)
    return result


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
    codes = seq.codes
    sift = rng.integers(0, 2, size=len(codes)).tolist()
    sifted = [i for i, coin in enumerate(sift) if coin]
    reflected = [i for i, coin in enumerate(sift) if not coin]
    sift_codes = [codes[i] for i in sifted]
    sift_bits = read_prepared(sift_codes, [0] * len(sifted), rng, seq.tapped and seq.tapped.state[sifted])
    # Reflected particles travel back shuffled; once the receiver reveals
    # the order, the preparer re-associates each particle with its
    # original slot, so measuring record-by-record in arrival order is
    # exact bookkeeping.
    order = rng.permutation(len(reflected)).tolist() if reflected else []
    returned = [reflected[i] for i in order]
    returned_codes = [codes[i] for i in returned]
    on_x = [code >> 1 for code in returned_codes]
    outcomes = read_prepared(returned_codes, on_x, rng, seq.tapped and seq.tapped.state[returned])
    wrong = [outcome != (code & 1) for code, outcome in zip(returned_codes, outcomes)]
    reflected_errors, x_count = sum(wrong), sum(on_x)
    x_errors = sum(w for w, x in zip(wrong, on_x) if x)
    z_sift = [bit != code for code, bit in zip(sift_codes, sift_bits) if code < 2]  # a Z code is its bit
    z_sift_errors = sum(z_sift)
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
            "permutation": order,
            "reflected_z_count": len(returned) - x_count,
            "reflected_z_errors": reflected_errors - x_errors,
            "reflected_x_count": x_count,
            "reflected_x_errors": x_errors,
        },
    )
    if reflected_rate > threshold:
        raise EavesdroppingDetected(seq.channel, "reflected", reflected_rate, threshold)
    if z_rate > threshold:
        raise EavesdroppingDetected(seq.channel, "z-sift", z_rate, threshold)
    return result
