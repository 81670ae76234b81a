"""Dense statevector simulation for small qubit registers.

Conventions, fixed across the package:

* A state of ``n`` qubits is a plain 1-D complex numpy array of length
  ``2**n``; ``num_qubits`` derives ``n`` from the length.  A row stack
  holds one such state per row, shape ``(rows, 2**n)`` (see the row
  kernels below).  Operations never write into their input arrays: they
  return new ones.  Only ``apply_unitary``, whose input comes from
  outside the package, checks the length and norm of the state it is
  given; the package's own callers use the trusted ``apply_rows``.
* Qubit 0 is the most significant bit of a basis-state index: in a
  register of ``n`` qubits, qubit ``q`` occupies bit ``n - 1 - q`` of
  the index, so ``basis_state(4, 5)`` is ``|0101>``.
* States carry unit 2-norm; measurements renormalize, and every
  operation is required to keep the norm within 1e-12.
* All randomness flows through an explicit ``numpy.random.Generator``
  (PCG64, from ``new_rng``), and only its ``random`` method: the draw
  section below builds coins, codes and samples from it.  A projective
  measurement consumes exactly one uniform draw, compared against
  cumulative Born probabilities, so any run is reproducible bit-for-bit
  from its seed.
* In the X basis, outcome bit 0 means ``|+>`` and bit 1 means ``|->``.

Registers are capped at 8 qubits; the protocol layers above never need
more (the largest system that occurs is a five-qubit carrier register
joined with a four-dimensional attack probe).
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Sequence

import numpy as np

Rng = np.random.Generator

MAX_QUBITS = 8
UNITARY_ATOL = 1e-10
# Outcomes with less Born weight than this count as impossible.
ZERO_PROB = 1e-15

SQRT1_2 = 1.0 / math.sqrt(2.0)

ID2 = np.array([[1, 0], [0, 1]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
I_SIGMA_Y = np.array([[0, 1], [-1, 0]], dtype=complex)  # |0><1| - |1><0|
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT1_2


def new_rng(seed: int | np.random.SeedSequence | None) -> Rng:
    """Create the package's deterministic random generator (PCG64)."""
    return np.random.default_rng(seed)


# Draws.  Every random draw on a run's path is built from ``u = rng.random(k)``,
# the one ``Generator`` method it calls.  ``random()`` returns m * 2**-53 with m
# uniform below 2**53, so ``floor(2**j * u)`` is the top j bits of m: exactly
# uniform below 2**j, independent across entries.
#
# * a coin is ``floor(2u)``;
# * a decoy or key preparation code (``DecoyState.index``) is ``floor(4u)``;
# * a key batch's (basis, value, coin) triple is the three bits of ``floor(8u)``,
#   high to low, so its top two bits are the preparation code;
# * a sample of k of ``population`` positions is the k positions with the
#   smallest of ``population`` uniforms, found by a stable argsort.


def draw_bits(rng: Rng, size: int, bits: int) -> np.ndarray:
    """``size`` integers uniform below ``2**bits``: ``floor(2**bits * u)`` of ``u = rng.random(size)``."""
    return (rng.random(size) * (1 << bits)).astype(np.intp)


def draw_sample(rng: Rng, population: int, size: int) -> np.ndarray:
    """``size`` distinct positions below ``population``, uniform: the positions of the ``size``
    smallest of ``u = rng.random(population)``, in a stable ``argsort`` of ``u``."""
    return np.argsort(rng.random(population), kind="stable")[:size]


class Basis(Enum):
    """Single-qubit measurement basis."""

    Z = "Z"
    X = "X"


class BellState(Enum):
    """The four Bell states of a qubit pair.

    The classical-bit encoding used throughout the protocol is
    phi+ -> 00, phi- -> 01, psi+ -> 10, psi- -> 11.
    """

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def index(self) -> int:
        return _BELL_ORDER.index(self)

    @property
    def bits(self) -> tuple[int, int]:
        i = self.index
        return (i >> 1, i & 1)

    @classmethod
    def from_index(cls, index: int) -> "BellState":
        return _BELL_ORDER[index]

    @property
    def vector(self) -> np.ndarray:
        """Two-qubit amplitude vector (first qubit of the pair = MSB)."""
        return BELL_MATRIX[:, self.index].copy()


_BELL_ORDER = (
    BellState.PHI_PLUS,
    BellState.PHI_MINUS,
    BellState.PSI_PLUS,
    BellState.PSI_MINUS,
)

# Columns: phi+ = (|00>+|11>)/sqrt2, phi- = (|00>-|11>)/sqrt2,
#          psi+ = (|01>+|10>)/sqrt2, psi- = (|01>-|10>)/sqrt2.
BELL_MATRIX = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=complex,
) * SQRT1_2


class PauliCorrection(Enum):
    """Single-qubit recovery operation applied by the receiver."""

    I = "I"
    X = "sigma_x"
    IY = "i_sigma_y"
    Z = "sigma_z"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self].copy()


_PAULI_MATRICES = {
    PauliCorrection.I: ID2,
    PauliCorrection.X: SIGMA_X,
    PauliCorrection.IY: I_SIGMA_Y,
    PauliCorrection.Z: SIGMA_Z,
}


def num_qubits(state: np.ndarray) -> int:
    """Number of qubits of a state array of length ``2**n``, or of each row of a ``(rows, 2**n)`` stack."""
    return state.shape[-1].bit_length() - 1 if state.ndim else 0


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """Computational basis state ``|index>`` under the MSB-first convention."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def ket_plus() -> np.ndarray:
    return np.array([SQRT1_2, SQRT1_2], dtype=complex)


def ket_minus() -> np.ndarray:
    return np.array([SQRT1_2, -SQRT1_2], dtype=complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; ``a``'s qubits become the most significant ones."""
    n = num_qubits(a) + num_qubits(b)
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would need {n} qubits (max {MAX_QUBITS})")
    return np.outer(a, b).reshape(-1)


def _check_targets(n: int, targets: Sequence[int]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"target qubits must be distinct, got {list(targets)}")
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")


def is_unitary(matrix: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= atol)


def apply_unitary(state: np.ndarray, targets: Sequence[int], matrix: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` to the ordered ``targets``, identity elsewhere.

    ``targets[0]`` is the most significant bit of the matrix's index
    space.  ``state`` must have length ``2**n`` for ``1 <= n <=
    MAX_QUBITS`` and unit norm within 1e-9, and ``matrix`` must be
    unitary within 1e-10; a ValueError says which check failed.
    """
    state = np.asarray(state, dtype=complex)
    matrix = np.asarray(matrix, dtype=complex)
    n = num_qubits(state)
    if not 1 <= n <= MAX_QUBITS or state.shape != (1 << n,):
        raise ValueError(
            f"state must be a 1-D array of length 2**n with 1 <= n <= {MAX_QUBITS}, "
            f"got shape {state.shape}"
        )
    norm = float(np.sum(np.abs(state) ** 2))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: |amps|^2 = {norm}")
    _check_targets(n, targets)
    k = len(targets)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {matrix.shape} does not act on {k} qubits")
    if not is_unitary(matrix):
        raise ValueError("matrix is not unitary within 1e-10")
    return apply_rows(state[None], targets, matrix)[0]


def _one_row(prob: np.ndarray, out: np.ndarray) -> tuple[float, np.ndarray | None]:
    """A one-row kernel result as ``(prob, state)``, or ``(prob, None)`` below ``ZERO_PROB``."""
    p = float(prob[0])
    return (p, None) if p < ZERO_PROB else (p, out[0])


def postselect(state: np.ndarray, qubit: int, basis: Basis, outcome: int) -> tuple[float, np.ndarray | None]:
    """Probability of ``outcome`` and the renormalized state of the other qubits.

    ``postselect_rows`` on one row; returns ``(prob, None)`` when the
    outcome has (numerically) zero probability.  Deterministic; used by
    oracles to force branches.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return _one_row(*postselect_rows(state[None], qubit, basis, np.array([outcome])))


def measure(state: np.ndarray, qubit: int, basis: Basis, rng: Rng) -> tuple[int, np.ndarray]:
    """Projective single-qubit measurement in the Z or X basis.

    ``measure_rows`` on one row: one uniform draw against the cumulative
    Born probabilities; returns ``(bit, state of the other qubits)``.  In
    the X basis, bit 0 corresponds to ``|+>`` and bit 1 to ``|->``.
    """
    outcome, out = measure_rows(state[None], qubit, basis, np.array([rng.random()]))
    return int(outcome[0]), out[0]


def postselect_bell(
    state: np.ndarray, qubit_a: int, qubit_b: int, outcome: BellState
) -> tuple[float, np.ndarray | None]:
    """Probability of a Bell outcome on (a, b) and the other qubits' state: ``postselect_bell_rows`` on one row."""
    return _one_row(*postselect_bell_rows(state[None], qubit_a, qubit_b, np.array([outcome.index])))


def measure_bell(state: np.ndarray, qubit_a: int, qubit_b: int, rng: Rng) -> tuple[BellState, np.ndarray]:
    """Projective measurement of a qubit pair in the Bell basis: ``measure_bell_rows`` on one row."""
    index, out = measure_bell_rows(state[None], qubit_a, qubit_b, np.array([rng.random()]))
    return BellState.from_index(int(index[0])), out[0]


# -- row stacks ----------------------------------------------------------------
#
# A stack holds one state per row, shape ``(rows, 2**k)``: the same
# system in ``rows`` independent protocol instances, or one channel's
# decoys.  Each kernel runs the same operations, in the same order and
# summed along the same contiguous axis, on every row at once, so a row's
# result does not depend on the other rows; ``measure``, ``measure_bell``,
# ``postselect``, ``postselect_bell`` and ``apply_unitary`` are the kernels
# on one row.  No package module but ``registers.measure_qubit`` calls one
# of those one-state forms: they stay for outside callers, the benchmark's
# tracer and the tests' references.  Kernels read a stack's width from its
# shape and reshape with explicit sizes, so a stack of no rows gives one of
# no rows.  Measurements take one uniform draw per row, ``u``, as one
# ``rng.random(rows)`` vector gives it, and drop the qubits they measure;
# ``prepare_rows`` puts one back, in its outcome state.  ``_born`` (one
# qubit) and ``_bell_rows`` (a pair) give each row's components in the
# measured basis as one ``(rows, k, rest)`` array with their ``(rows, k)``
# weights, and ``_collapse`` picks and renormalizes one component per row
# for both.  ``born_rows`` reads one qubit's per-row Born probabilities
# without a collapse, each row in its own basis, from one array of the Z
# and X components: the same weights that ``measure_rows`` and
# ``postselect_rows`` use.  ``apply_rows`` computes its transposes once per
# ``(n, targets)``.  ``couple_rows`` sends one qubit of every row through a
# 2 -> 2d isometry, such as an attacker's coupling to a probe that starts in
# a fixed state, with one matrix product over all rows.


def _check_rows(stack: np.ndarray, targets: Sequence[int]) -> None:
    if stack.ndim != 2:
        raise ValueError(f"expected a (rows, 2**k) stack, got shape {stack.shape}")
    _check_targets(num_qubits(stack), targets)


def born_outcomes(p0: np.ndarray, p1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one-qubit outcome rule: 0 where ``u < p0``, else 1; a draw that lands on an
    outcome without weight (the probabilities can sum to just under 1) takes the other."""
    one = u >= p0
    return (one ^ (np.where(one, p1, p0) < ZERO_PROB)).astype(np.intp)


def _born(stack: np.ndarray, qubit: int, basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """Each row's two components along ``qubit`` in ``basis`` as one ``(rows, 2, rest)`` array, the other
    qubits in order along ``rest``, and their ``(rows, 2)`` weights.  ``comp`` is C-contiguous, so each weight
    is a sum along a contiguous axis, whatever ``qubit`` is: the same sum for the same amplitudes."""
    _check_rows(stack, [qubit])
    rows, width = stack.shape
    t = stack.reshape(rows, 1 << qubit, 2, width >> (qubit + 1))
    if basis is Basis.Z:
        comp = np.ascontiguousarray(t.transpose(0, 2, 1, 3)).reshape(rows, 2, width >> 1)
    else:
        a0, a1 = t[:, :, 0, :], t[:, :, 1, :]
        comp = (np.stack((a0 + a1, a0 - a1), axis=1) * SQRT1_2).reshape(rows, 2, width >> 1)
    return comp, (comp.real**2 + comp.imag**2).sum(axis=2)


def born_rows(stack: np.ndarray, qubit: int, x_basis: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row Born probabilities ``(p0, p1)`` of ``qubit``, row ``r`` in X where ``x_basis[r]`` is true and
    in Z elsewhere; no row collapses.

    One ``(4, rows, rest)`` array holds every row's Z components, then its
    X components, each the same amplitudes that ``_born`` gives, and each
    weight is the same contiguous sum; each row then keeps its basis' pair.
    """
    _check_rows(stack, [qubit])
    rows, width = stack.shape
    comp = np.empty((4, rows, 1 << qubit, width >> (qubit + 1)), dtype=complex)
    comp[:2] = stack.reshape(rows, 1 << qubit, 2, width >> (qubit + 1)).transpose(2, 0, 1, 3)
    np.add(comp[0], comp[1], out=comp[2])
    np.subtract(comp[0], comp[1], out=comp[3])
    comp[2:] *= SQRT1_2
    probs = (comp.real**2 + comp.imag**2).reshape(4, rows, width >> 1).sum(axis=2)
    on_x = np.asarray(x_basis, dtype=bool)
    return np.where(on_x, probs[2], probs[0]), np.where(on_x, probs[3], probs[1])


def _collapse(comp: np.ndarray, probs: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row ``r``'s component ``index[r]`` of ``(rows, k, rest)`` components with ``(rows, k)`` weights,
    renormalized, and its weight; a component lighter than ``ZERO_PROB`` leaves all zeros."""
    picked = np.arange(comp.shape[0]), index
    prob = probs[picked]
    scale = np.divide(1.0, np.sqrt(prob), out=np.zeros_like(prob), where=prob >= ZERO_PROB)
    return prob, comp[picked] * scale[:, None]


def prepare_rows(rest: np.ndarray, qubit: int, basis: Basis, outcomes: np.ndarray) -> np.ndarray:
    """Insert a qubit at column ``qubit`` of row ``r`` of ``rest``, prepared in ``basis`` as bit ``outcomes[r]``:
    of what ``measure_rows`` returns, this makes the collapsed stack."""
    rows, width = rest.shape
    v = rest.reshape(rows, 1 << qubit, width >> qubit)
    out = np.zeros((rows, v.shape[1], 2, v.shape[2]), dtype=complex)
    if basis is Basis.Z:
        out[np.arange(rows), :, outcomes, :] = v
    else:
        out[:, :, 0, :] = v * SQRT1_2
        out[:, :, 1, :] = v * np.where(outcomes == 0, SQRT1_2, -SQRT1_2)[:, None, None]
    return out.reshape(rows, 2 * width)


def postselect_rows(
    stack: np.ndarray, qubit: int, basis: Basis, outcomes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Force ``qubit`` of row ``r`` onto bit ``outcomes[r]`` in ``basis``: per-row probabilities and the rest.

    Row ``r`` of the rest is <outcome|_qubit row ``r``, renormalized: the
    other qubits, in order.  A row whose outcome has less weight than
    ``ZERO_PROB`` shows it in its probability and leaves all zeros.
    """
    return _collapse(*_born(stack, qubit, basis), outcomes)


def measure_rows(stack: np.ndarray, qubit: int, basis: Basis, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure ``qubit`` of every row in ``basis``: outcome bits and the rest, as ``postselect_rows`` leaves it.

    Row ``r`` takes the outcome that ``born_outcomes`` gives for its Born
    probabilities and ``u[r]``.
    """
    comp, probs = _born(stack, qubit, basis)
    outcome = born_outcomes(probs[:, 0], probs[:, 1], u)
    return outcome, _collapse(comp, probs, outcome)[1]


# Column i is the conjugate of Bell vector i, so ``pairs @ _BELL_BRAS`` gives each pair's Bell components.
_BELL_BRAS = BELL_MATRIX.conj()


def _bell_rows(stack: np.ndarray, qubit_a: int, qubit_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's pair (a, b) in the Bell basis: ``(rows, 4, rest)`` amplitudes, the other qubits in
    order along ``rest``, and their ``(rows, 4)`` weights."""
    rows, width = stack.shape
    lo, hi = sorted((qubit_a, qubit_b))
    t = stack.reshape(rows, 1 << lo, 2, 1 << (hi - lo - 1), 2, width >> (hi + 1))
    t = t.transpose(0, 1, 3, 5, 2, 4) if qubit_a < qubit_b else t.transpose(0, 1, 3, 5, 4, 2)
    rest = width >> 2
    comp = np.ascontiguousarray((t.reshape(rows * rest, 4) @ _BELL_BRAS).reshape(rows, rest, 4).transpose(0, 2, 1))
    return comp, np.sum(np.abs(comp) ** 2, axis=2)


def postselect_bell_rows(
    stack: np.ndarray, qubit_a: int, qubit_b: int, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Force the pair (a, b) of row ``r`` onto Bell state ``indices[r]``: per-row probabilities and the rest.

    Row ``r`` of the rest is <bell|_{a,b} row ``r``, renormalized: the
    other qubits, in order.  A row whose outcome has less weight than
    ``ZERO_PROB`` shows it in its probability and leaves all zeros.
    """
    _check_rows(stack, [qubit_a, qubit_b])
    return _collapse(*_bell_rows(stack, qubit_a, qubit_b), indices)


def measure_bell_rows(
    stack: np.ndarray, qubit_a: int, qubit_b: int, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the pair (a, b) of every row in the Bell basis: Bell indices and the rest, as ``postselect_bell_rows`` leaves it.

    Row ``r`` takes the first outcome with weight whose cumulative
    probability exceeds ``u[r]``; a draw past the last cumulative sum
    (which can round to just under 1) takes the last outcome with weight.
    """
    _check_rows(stack, [qubit_a, qubit_b])
    comp, probs = _bell_rows(stack, qubit_a, qubit_b)
    weighted = probs >= ZERO_PROB
    hit = (u[:, None] < np.cumsum(probs, axis=1)) & weighted
    index = np.where(hit.any(axis=1), hit.argmax(axis=1), 3 - weighted[:, ::-1].argmax(axis=1))
    return index, _collapse(comp, probs, index)[1]


def apply_1q_rows(stack: np.ndarray, qubit: int, matrices: np.ndarray) -> np.ndarray:
    """Apply row ``r``'s trusted 2x2 ``matrices[r]`` to ``qubit`` of row ``r``."""
    _check_rows(stack, [qubit])
    rows, width = stack.shape
    t = stack.reshape(rows, 1 << qubit, 2, width >> (qubit + 1))
    a0, a1 = t[:, :, 0, :], t[:, :, 1, :]
    m = matrices[:, :, :, None, None]
    out = np.empty_like(t)
    out[:, :, 0, :] = m[:, 0, 0] * a0 + m[:, 0, 1] * a1
    out[:, :, 1, :] = m[:, 1, 0] * a0 + m[:, 1, 1] * a1
    return out.reshape(rows, width)


@functools.cache
def _target_axes(n: int, targets: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis permutation of a ``(rows, 2, ..., 2)`` stack that brings ``targets`` first, in order, and its inverse."""
    forward = (0, *(1 + q for q in targets), *(1 + q for q in range(n) if q not in targets))
    return forward, tuple(forward.index(axis) for axis in range(n + 1))


def apply_rows(stack: np.ndarray, targets: Sequence[int], matrix: np.ndarray) -> np.ndarray:
    """Apply one trusted unitary to the ordered ``targets`` of every row.

    ``targets[0]`` is the most significant bit of the matrix's index
    space.  Each row's block goes through its own ``matrix @ block``.
    """
    _check_rows(stack, targets)
    k = len(targets)
    if k == 1:
        return apply_1q_rows(stack, targets[0], matrix[None])
    rows, width = stack.shape
    n = num_qubits(stack)
    forward, inverse = _target_axes(n, tuple(targets))
    block = matrix @ stack.reshape((rows,) + (2,) * n).transpose(forward).reshape(rows, 1 << k, width >> k)
    return np.ascontiguousarray(block.reshape((rows,) + (2,) * n).transpose(inverse)).reshape(rows, width)


def couple_rows(stack: np.ndarray, column: int, images: np.ndarray) -> np.ndarray:
    """Send the qubit at ``column`` of every row through a trusted 2 -> 2d isometry; a new, wider stack.

    Row ``b`` of the ``(2, 2d)`` array ``images`` is the image of ``|b>``:
    for an attacker's coupling E with its probe in |e>, E|b>|e>, the qubit
    as its most significant bit.  The qubit keeps its column and the
    d-dimensional factor joins every row as its least significant qubits,
    as ``registers.merge`` joins a stack.  Each amplitude pair goes through
    the same 2-D product ``pair @ images``, in one product for all rows.
    """
    _check_rows(stack, [column])
    n = num_qubits(stack) + num_qubits(images) - 1
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would need {n} qubits (max {MAX_QUBITS})")
    rows, width = stack.shape
    dim = images.shape[1] >> 1
    pairs = stack.reshape(rows << column, 2, width >> (column + 1)).transpose(0, 2, 1).reshape(-1, 2)
    return (pairs @ images).reshape(rows << column, width >> (column + 1), 2, dim).transpose(0, 2, 1, 3).reshape(rows, width * dim)


def fidelity_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 — equality predicate that ignores global phase."""
    if num_qubits(a) != num_qubits(b):
        raise ValueError(
            f"dimension mismatch: {num_qubits(a)} vs {num_qubits(b)} qubits"
        )
    return float(abs(np.vdot(a, b)) ** 2)
