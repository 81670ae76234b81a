"""Single-qubit teleportation over the four-particle chi carrier state.

The carrier is the chi-type maximally entangled state

    (|0000> + |0011> - |0101> + |0110>
     + |1001> + |1010> + |1100> - |1111>) / (2*sqrt(2))

shared so that the sender holds particle 2, one assistant holds particle
1, a second assistant holds particle 4, and the receiver holds particle
3.  Teleporting a message qubit a|0> + b|1> takes three measurements: a
Z measurement on particle 1, a Bell measurement on the (message, 2)
pair, and a Z measurement on particle 4.  The receiver then applies one
of four single-qubit corrections, looked up from the sixteen-entry
table below, to recover the message on particle 3.

Four of the sixteen branches recover the message only up to a global
phase of -1, so every equality check here uses the phase-insensitive
fidelity.  ``verify_correction_table`` is the brute-force auditor: it
forces each branch by projection instead of sampling, recomputes the
collapsed state of particle 3 from first principles, and checks both
the table's collapsed-state column and its correction column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statevec import (
    KETS,
    ZERO_PROB,
    Basis,
    BellState,
    PauliCorrection,
    Rng,
    measure_bell_rows,
    measure_rows,
    postselect_bell_rows,
    postselect_rows,
    tensor,
)

CHI_AMPLITUDE = 1.0 / (2.0 * math.sqrt(2.0))

_CHI_PLUS_INDICES = (0b0000, 0b0011, 0b0110, 0b1001, 0b1010, 0b1100)
_CHI_MINUS_INDICES = (0b0101, 0b1111)

_CHI_AMPS = np.zeros(16, dtype=complex)
for _ket in _CHI_PLUS_INDICES:
    _CHI_AMPS[_ket] = CHI_AMPLITUDE
for _ket in _CHI_MINUS_INDICES:
    _CHI_AMPS[_ket] = -CHI_AMPLITUDE


def prepare_chi() -> np.ndarray:
    """Fresh copy of the four-qubit chi carrier state (particles 1..4)."""
    return _CHI_AMPS.copy()


@dataclass(frozen=True)
class MessageQubit:
    """Single-qubit message a|0> + b|1> with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"message amplitudes are not normalized: |a|^2+|b|^2 = {norm}")

    def state(self) -> np.ndarray:
        return np.array([self.a, self.b], dtype=complex)

    @classmethod
    def plus(cls) -> "MessageQubit":
        return cls(*KETS[2])

    @classmethod
    def minus(cls) -> "MessageQubit":
        return cls(*KETS[3])

    @classmethod
    def random(cls, rng: Rng) -> "MessageQubit":
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        return cls(complex(raw[0]), complex(raw[1]))


@dataclass(frozen=True)
class TeleportOutcomes:
    """One of the 16 measurement triples driving the correction lookup."""

    z1: int
    bell_m2: BellState
    z4: int

    def __post_init__(self):
        if self.z1 not in (0, 1) or self.z4 not in (0, 1):
            raise ValueError(f"Z outcomes must be bits, got z1={self.z1}, z4={self.z4}")


# The 16 triples in (z1, bell, z4) lexicographic order, so that branch r
# is ``8*z1 + 2*bell.index + z4``, and each coordinate as a (16,) array.
_OUTCOMES = tuple(TeleportOutcomes(z1, bell, z4) for z1 in (0, 1) for bell in BellState for z4 in (0, 1))
_Z1, _BELL, _Z4 = (np.array(c) for c in zip(*((o.z1, o.bell_m2.index, o.z4) for o in _OUTCOMES)))


def all_outcomes() -> list[TeleportOutcomes]:
    """The 16 outcome triples in (z1, bell, z4) lexicographic order."""
    return list(_OUTCOMES)


# Correction lookup, one row per outcome triple.  Each entry carries the
# collapsed state of particle 3 (before correction) as coefficients
# (c0a, c0b, c1a, c1b): amp(|0>) = c0a*a + c0b*b, amp(|1>) = c1a*a + c1b*b.
# Validated phase-exactly against projection of the joint state by
# verify_correction_table and its tests.
_B = BellState
_P = PauliCorrection
_TABLE: dict[tuple[int, BellState, int], tuple[tuple[int, int, int, int], PauliCorrection]] = {
    (0, _B.PHI_PLUS, 0): ((1, 0, 0, 1), _P.I),      # a|0> + b|1>
    (0, _B.PHI_PLUS, 1): ((0, -1, 1, 0), _P.IY),    # a|1> - b|0>
    (0, _B.PHI_MINUS, 0): ((1, 0, 0, -1), _P.Z),    # a|0> - b|1>
    (0, _B.PHI_MINUS, 1): ((0, 1, 1, 0), _P.X),     # a|1> + b|0>
    (0, _B.PSI_PLUS, 0): ((0, 1, 1, 0), _P.X),      # a|1> + b|0>
    (0, _B.PSI_PLUS, 1): ((-1, 0, 0, 1), _P.Z),     # -a|0> + b|1>
    (0, _B.PSI_MINUS, 0): ((0, -1, 1, 0), _P.IY),   # a|1> - b|0>
    (0, _B.PSI_MINUS, 1): ((-1, 0, 0, -1), _P.I),   # -a|0> - b|1>
    (1, _B.PHI_PLUS, 0): ((0, 1, 1, 0), _P.X),      # a|1> + b|0>
    (1, _B.PHI_PLUS, 1): ((1, 0, 0, -1), _P.Z),     # a|0> - b|1>
    (1, _B.PHI_MINUS, 0): ((0, -1, 1, 0), _P.IY),   # a|1> - b|0>
    (1, _B.PHI_MINUS, 1): ((1, 0, 0, 1), _P.I),     # a|0> + b|1>
    (1, _B.PSI_PLUS, 0): ((1, 0, 0, 1), _P.I),      # a|0> + b|1>
    (1, _B.PSI_PLUS, 1): ((0, 1, -1, 0), _P.IY),    # -a|1> + b|0>
    (1, _B.PSI_MINUS, 0): ((1, 0, 0, -1), _P.Z),    # a|0> - b|1>
    (1, _B.PSI_MINUS, 1): ((0, -1, -1, 0), _P.X),   # -a|1> - b|0>
}


def correction_for(outcomes: TeleportOutcomes) -> PauliCorrection:
    """Receiver's recovery operation for a measurement triple."""
    return _TABLE[(outcomes.z1, outcomes.bell_m2, outcomes.z4)][1]


def _table_columns(table: dict) -> tuple[np.ndarray, np.ndarray]:
    """A lookup's collapsed-state coefficients, (16, 4), and correction matrices, (16, 2, 2), in branch order."""
    rows = [table[(o.z1, o.bell_m2, o.z4)] for o in _OUTCOMES]
    return np.array([coeffs for coeffs, _ in rows]), np.array([corr.matrix for _, corr in rows])


_TABLE_COLUMNS = _table_columns(_TABLE)
_CORRECTION_MATRICES = _TABLE_COLUMNS[1]
_PAULIS = tuple(PauliCorrection)
_PAULI_STACK = np.array([p.matrix for p in _PAULIS])
# A branch's fidelity-one corrections by its winners bitmask: bit k is set when _PAULIS[k] wins.
_WINNER_BITS = 1 << np.arange(len(_PAULIS))
_WINNER_SETS = tuple(tuple(p for k, p in enumerate(_PAULIS) if mask >> k & 1) for mask in range(1 << len(_PAULIS)))


def correction_matrices(z1: Sequence[int], bell_bits: Sequence[int], z4: Sequence[int]) -> np.ndarray:
    """``correction_for`` of n instances at once, as an (n, 2, 2) stack of matrices.

    ``z1`` and ``z4`` hold one Z outcome per instance, ``bell_bits`` the
    two bits of each Bell outcome in turn.
    """
    bell = np.asarray(bell_bits).reshape(-1, 2)
    return _CORRECTION_MATRICES[8 * np.asarray(z1) + 4 * bell[:, 0] + 2 * bell[:, 1] + np.asarray(z4)]


# Joint-register qubit layout used below: (m, 1, 2, 3, 4) = indices 0..4.
Q_M, Q_1, Q_2, Q_3, Q_4 = 0, 1, 2, 3, 4


def joint_state(m: MessageQubit) -> np.ndarray:
    """The five-qubit state message (x) carrier, qubit order (m, 1, 2, 3, 4)."""
    return tensor(m.state(), prepare_chi())


def run_teleportation(m: MessageQubit, rng: Rng) -> tuple[TeleportOutcomes, np.ndarray]:
    """Sampled end-to-end teleportation of one message qubit.

    Measures in the fixed order: Z on particle 1, Bell on (m, 2), Z on
    particle 4; then applies the looked-up correction to particle 3 and
    returns (outcomes, recovered particle-3 state).  The recovered state
    equals the message up to global phase.  The cascade runs on a one-row
    stack, each measurement fed one ``rng.random(1)``, which leaves
    particle 3 alone.
    """
    z1, state = measure_rows(joint_state(m)[None], Q_1, Basis.Z, rng.random(1))  # (m, 2, 3, 4) remain
    bell, state = measure_bell_rows(state, 0, 1, rng.random(1))  # (3, 4)
    z4, state = measure_rows(state, 1, Basis.Z, rng.random(1))  # (3)
    branch = int(8 * z1[0] + 2 * bell[0] + z4[0])
    return _OUTCOMES[branch], _CORRECTION_MATRICES[branch] @ state[0]


@dataclass(frozen=True)
class BranchAudit:
    """Auditor's findings for a single forced measurement branch."""

    outcomes: TeleportOutcomes
    probability: float
    collapsed_fidelity: float       # projected particle-3 state vs. table column
    corrected_fidelity: float       # corrected state vs. the original message
    recovery_phase: complex         # <message|corrected>; -1 for phase-flipped branches
    fidelity_one_corrections: tuple[PauliCorrection, ...]  # all corrections achieving fidelity 1
    order_independent: bool         # same fidelity when measured in reverse order


@dataclass(frozen=True)
class TableAuditReport:
    message: MessageQubit
    branches: tuple[BranchAudit, ...]
    tolerance: float

    def all_pass(self) -> bool:
        return not self.failures()

    def failures(self) -> list[BranchAudit]:
        return [
            b
            for b in self.branches
            if abs(b.probability - 1 / 16) > 1e-12
            or b.collapsed_fidelity < 1 - self.tolerance
            or b.corrected_fidelity < 1 - self.tolerance
            or not b.order_independent
        ]


def _cascade(stack: np.ndarray, z_first: np.ndarray, bell: np.ndarray, z_last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project row ``r`` of a five-qubit stack: Z at column 1 onto ``z_first[r]``, then Bell on columns
    (0, 1) onto ``bell[r]``, then Z at column 1 onto ``z_last[r]``.  Returns each row's probability, 0
    where some projection left it without weight, and the one qubit left at column 3 of the input."""
    # Each projection drops what it measures; the comments list the columns that remain.
    prob = np.ones(stack.shape[0])
    for project, where, outcomes in (
        (postselect_rows, (1, Basis.Z), z_first),  # (0, 2, 3, 4)
        (postselect_bell_rows, (0, 1), bell),  # (3, 4)
        (postselect_rows, (1, Basis.Z), z_last),  # (3)
    ):
        p, stack = project(stack, *where, outcomes)
        prob *= np.where(p < ZERO_PROB, 0.0, p)
    return prob, stack


def forced_branches_particle3(m: MessageQubit) -> tuple[np.ndarray, np.ndarray]:
    """Every branch's probability and particle 3's projected state, no sampling.

    First-principles route used by oracles: repeats the joint state into
    16 rows and projects row ``r`` onto the outcome triple
    ``all_outcomes()[r]`` in the sampled order (Z on particle 1, Bell on
    (m, 2), Z on particle 4), which leaves particle 3, without consulting
    the correction table's collapsed-state column.  Returns a (16,) array
    and a (16, 2) stack; a branch that some projection leaves without
    weight has probability 0 and a zero row.
    """
    return _cascade(np.repeat(joint_state(m)[None], len(_OUTCOMES), axis=0), _Z1, _BELL, _Z4)


# The audit projects both measurement orders in one 32-row stack.  Rows
# 0-15 hold the joint state (m, 1, 2, 3, 4) and project particle 1 first;
# rows 16-31 hold it with particles 1 and 4 trading places, on axes
# (m, 4, 2, 3, 1), so the same column-wise cascade projects particle 4
# first.  Row ``16 + r`` is branch ``r`` as well.
_REVERSED_AXES = (Q_M, Q_4, Q_2, Q_3, Q_1)
_BOTH_Z_FIRST = np.concatenate((_Z1, _Z4))
_BOTH_BELL = np.concatenate((_BELL, _BELL))
_BOTH_Z_LAST = np.concatenate((_Z4, _Z1))


def _forced_both_orders(m: MessageQubit) -> tuple[np.ndarray, np.ndarray]:
    """``forced_branches_particle3`` in both measurement orders: (32,) probabilities and a (32, 2) stack,
    rows 0-15 projecting particle 1 first and rows 16-31 projecting particle 4 first."""
    joint = joint_state(m)
    relabeled = joint.reshape((2,) * 5).transpose(_REVERSED_AXES).reshape(-1)
    stack = np.repeat(np.stack((joint, relabeled)), len(_OUTCOMES), axis=0)
    return _cascade(stack, _BOTH_Z_FIRST, _BOTH_BELL, _BOTH_Z_LAST)


def _fidelity_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fidelity_up_to_phase`` of each row pair of two (rows, 2) stacks."""
    return np.abs(np.sum(a.conj() * b, axis=-1)) ** 2


def verify_correction_table(
    m: MessageQubit, *, tolerance: float = 1e-10, check_table: dict | None = None
) -> TableAuditReport:
    """Brute-force audit of the correction table for one message qubit.

    Every one of the 16 branches is forced deterministically by
    projection of the joint state (never sampled), in both measurement
    orders at once: one 32-row stack projects particle 1 first in its
    top half and particle 4 first in its bottom half.  Per branch this
    verifies: the branch probability is exactly 1/16, the projected
    particle-3 state matches the table's collapsed-state column, the
    table's correction recovers the message up to phase, and the
    probability and that recovery are the same in either order.  It also
    records which of the four corrections reach fidelity 1, exposing
    degeneracies (for |a| = |b| two corrections tie) instead of
    asserting uniqueness.

    ``check_table`` substitutes an alternative lookup; the auditor then
    reports its failures (used for negative controls).
    """
    coeffs, matrices = _TABLE_COLUMNS if check_table is None else _table_columns(check_table)
    target = m.state()
    both_prob, both3 = _forced_both_orders(m)
    prob, got3 = both_prob[:16], both3[:16]
    if not prob.all():
        raise AssertionError(f"branch {_OUTCOMES[int(np.argmin(prob))]} unexpectedly has zero probability")
    collapsed_fid = _fidelity_rows(got3, coeffs[:, 0::2] * m.a + coeffs[:, 1::2] * m.b)
    both_phase = (np.concatenate((matrices, matrices)) @ both3[:, :, None])[:, :, 0] @ target.conj()
    both_fid = np.abs(both_phase) ** 2
    phase, corrected_fid, rprob, rfid = both_phase[:16], both_fid[:16], both_prob[16:], both_fid[16:]
    winners = _fidelity_rows((_PAULI_STACK @ got3[:, None, :, None])[..., 0], target) >= 1 - tolerance
    order_ok = (rprob != 0.0) & (np.abs(rprob - prob) <= 1e-12) & (np.abs(rfid - corrected_fid) <= tolerance)
    fields = (prob, collapsed_fid, corrected_fid, phase, winners @ _WINNER_BITS, order_ok)
    audits = tuple(
        BranchAudit(
            outcomes=outcomes, probability=p, collapsed_fidelity=cf, corrected_fidelity=f, recovery_phase=ph,
            fidelity_one_corrections=_WINNER_SETS[mask], order_independent=ok,
        )
        for outcomes, p, cf, f, ph, mask, ok in zip(_OUTCOMES, *(a.tolist() for a in fields))
    )
    return TableAuditReport(message=m, branches=audits, tolerance=tolerance)
