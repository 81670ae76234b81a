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
draw to its read.  Prepared qubits get a row stack only when an
adversary acts on them: ``tap`` is the one place that builds it, one
stack per transmission, row i for prepared qubit i, for
``send_with_decoys`` and the key-agreement batches alike.  Payload
qubits stay in the stacks they already inhabit.  Honest operations
never entangle the two, so the factorization is exact.  An adversary
sees each transmission once, as one ``intercept(segments, rng)`` call:
the prepared qubits' stack, then each payload stack; it returns them as
they arrive, and writes into none of them.  Both adversaries treat
every qubit alike, so where the decoys sit among the payload qubits
never matters, and it is not drawn.  They act on the forward leg;
return legs are modeled clean.

An untapped prepared qubit read in its preparation basis returns its
bit, so an untapped channel reads nothing and draws only what reaches
its check's report.  Every draw is one ``rng.random`` vector: a code is
``floor(4u)`` and a coin ``floor(2u)`` (``statevec.draw_bits``).
``send_with_decoys`` draws the decoy codes, then the adversary draws,
decoys before payload, and nothing when untapped.  ``check_decoys``
reads the tapped decoys in their preparation bases.
``semiquantum_return_check`` draws an untapped sequence's codes, then
every SIFT/CTRL coin, as two vectors, as a tapped send and its check
do; then it reads the tapped SIFTed decoys in Z and the reflected ones
in their preparation bases.  ``read_prepared``, the one read of tapped
prepared qubits, reads a step once, from the Born sums of its rows
(``statevec.born_rows``), which it never collapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EavesdroppingDetected
from .statevec import Basis, Rng, basis_state, born_outcomes, born_rows, draw_bits, ket_minus, ket_plus


class DecoyState(Enum):
    """The four BB84/decoy preparations: label, basis and encoded bit.

    This table is the single definition of the four states; the
    entangle-measure analysis uses it too.  A member's ``index`` is the
    integer code that the channels and key agreement carry in its place.
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


def read_prepared(tapped: np.ndarray, x_basis: Sequence[int], rng: Rng) -> np.ndarray:
    """Measure each tapped prepared qubit in its basis after crossing.

    ``tapped`` holds row i for qubit i, the crossed qubit at column 0, as
    the adversary left it, and ``x_basis[i]`` is its measurement basis, 0
    for Z and 1 for X.  Each row picks its Born pair from the Z and X sums
    over the whole stack, which no read collapses; one ``rng.random``
    feeds ``born_outcomes``, and an empty read takes none.  Returns each
    row's outcome bit.
    """
    if not len(tapped):
        return np.zeros(0, dtype=np.intp)
    u = rng.random(len(tapped))
    on_x = np.asarray(x_basis, dtype=bool)
    (z0, z1), (x0, x1) = born_rows(tapped, 0, Basis.Z), born_rows(tapped, 0, Basis.X)
    return born_outcomes(np.where(on_x, x0, z0), np.where(on_x, x1, z1), u)


def tap(
    codes: Sequence[int], adversary, rng: Rng, payload: Sequence[np.ndarray] = (), column: int = 0
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Send prepared qubits through an adversary: the one tap of decoys and key qubits.

    Qubit i, prepared as ``codes[i]``, becomes row i of one stack.  The
    adversary sees the transmission as segments: that stack at column 0,
    then the qubit at ``column`` of every row of each ``payload`` stack.
    Returns the stack of the prepared qubits and the payload stacks, as
    they arrived; without an adversary, None and the payload as given.
    """
    if adversary is None:
        return None, list(payload)
    sent = [_KETS[codes], *payload]
    crossed = iter(adversary.intercept([(s, column if i else 0) for i, s in enumerate(sent) if len(s)], rng))
    arrived = [next(crossed) if len(s) else s for s in sent]  # an empty stack does not cross
    return arrived[0], arrived[1:]


@dataclass
class TransmittedSequence:
    """The decoys sent along with one payload, and the payload, as they crossed the channel.

    On a tapped channel decoy i was prepared as ``codes[i]`` (a
    ``DecoyState.index``) and is row i of ``tapped``, the stack the
    adversary left.  An untapped sequence keeps only its ``decoy_count``:
    both are None.  ``payload`` holds the payload stacks as they arrived.
    """

    channel: str
    decoy_count: int
    codes: np.ndarray | None
    tapped: np.ndarray | None
    payload: list[np.ndarray]


def send_with_decoys(
    payload: Sequence[np.ndarray],
    decoy_count: int,
    rng: Rng,
    adversary=None,
    *,
    channel: str = "",
    column: int = 0,
) -> TransmittedSequence:
    """Send ``payload`` with fresh decoys through the channel.

    The payload qubits are the qubit at ``column`` of every row of each
    stack in turn.  Decoy states are sampled independently and uniformly
    from the four preparations.  The adversary, when present, acts once
    on every transmitted qubit through ``tap``; without one, nothing is
    drawn.
    """
    if decoy_count < 1:
        raise ValueError(f"decoy_count must be >= 1, got {decoy_count}")
    if adversary is None:
        return TransmittedSequence(channel, decoy_count, None, None, list(payload))
    codes = draw_bits(rng, decoy_count, 2)
    return TransmittedSequence(channel, decoy_count, codes, *tap(codes, adversary, rng, payload, column))


@dataclass
class DecoyCheckResult:
    channel: str
    decoy_count: int
    errors: int
    error_rate: float


def check_decoys(
    seq: TransmittedSequence,
    rng: Rng,
    *,
    threshold: float = 0.0,
) -> DecoyCheckResult:
    """Announced-basis decoy comparison for a fully quantum receiver.

    An untapped sequence reads nothing and counts 0 errors.  Raises
    :class:`EavesdroppingDetected` when the error rate exceeds
    ``threshold``.
    """
    errors = 0
    if seq.tapped is not None:
        codes = seq.codes
        errors = int(np.count_nonzero(read_prepared(seq.tapped, codes >> 1, rng) != codes & 1))
    rate = errors / seq.decoy_count
    if rate > threshold:
        raise EavesdroppingDetected(seq.channel, "decoy", rate, threshold)
    return DecoyCheckResult(
        channel=seq.channel,
        decoy_count=seq.decoy_count,
        errors=errors,
        error_rate=rate,
    )


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
    Z.  An untapped sequence draws its codes and coins and reads nothing.
    Raises :class:`EavesdroppingDetected` when either rate exceeds
    ``threshold``.
    """
    tapped = seq.tapped
    codes = draw_bits(rng, seq.decoy_count, 2) if tapped is None else seq.codes
    sift = draw_bits(rng, len(codes), 1) == 1
    on_z = codes < 2  # a Z code is its bit
    sifted_count = int(np.count_nonzero(sift))
    reflected_count = len(codes) - sifted_count
    z_sift_count, x_count = int(np.count_nonzero(sift & on_z)), int(np.count_nonzero(~(sift | on_z)))
    reflected_errors = x_errors = z_sift_errors = 0  # untapped, every read returns the prepared bit
    if tapped is not None:
        sift_bits = read_prepared(tapped[sift], np.zeros(sifted_count, dtype=bool), rng)
        z_sift_errors = int(np.count_nonzero((sift_bits != codes[sift]) & on_z[sift]))
        # The reflected particles travel back shuffled, and the receiver
        # reveals the order once the preparer holds them all.  A read takes
        # each row's Born pair and its own uniform from an i.i.d. vector, so
        # reading them in sending order changes no count's distribution.
        reflected = ~sift
        on_x = ~on_z[reflected]
        wrong = read_prepared(tapped[reflected], on_x, rng) != codes[reflected] & 1
        reflected_errors, x_errors = int(np.count_nonzero(wrong)), int(np.count_nonzero(wrong & on_x))
    reflected_rate = reflected_errors / reflected_count if reflected_count else 0.0
    z_rate = z_sift_errors / z_sift_count if z_sift_count else 0.0
    if reflected_rate > threshold:
        raise EavesdroppingDetected(seq.channel, "reflected", reflected_rate, threshold)
    if z_rate > threshold:
        raise EavesdroppingDetected(seq.channel, "z-sift", z_rate, threshold)
    return ReturnCheckResult(
        channel=seq.channel,
        reflected_count=reflected_count,
        reflected_errors=reflected_errors,
        reflected_error_rate=reflected_rate,
        z_sift_count=z_sift_count,
        z_sift_errors=z_sift_errors,
        z_sift_error_rate=z_rate,
        sifted_count=sifted_count,
        detail={
            "reflected_z_count": reflected_count - x_count,
            "reflected_z_errors": reflected_errors - x_errors,
            "reflected_x_count": x_count,
            "reflected_x_errors": x_errors,
        },
    )
